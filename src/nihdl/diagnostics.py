"""Coded findings shared by the parser, the validator and the corpus store.

Every finding carries a stable code whose first letter determines its
severity: E = error, W = warning, I = info. Parse-time findings always
carry a source location; findings computed on hand-constructed values
may not. ``value_class`` here makes every value type of the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


_SEVERITY_BY_PREFIX = {"E": Severity.ERROR, "W": Severity.WARNING, "I": Severity.INFO}
_CODE_RE = re.compile(r"^[EWI]\d{3}$")
# A tab, line feed or carriage return as one space: a rendered diagnostic,
# like an index.tsv field, is one line whatever a file name holds.
ONE_LINE = str.maketrans("\t\n\r", "   ")


def value_class(cls):
    """``@dataclass(frozen=True)``, but with ``==``, ``hash`` and ``repr``
    written once, here, rather than compiled for each class. They read the
    fields that ``compare`` and ``repr`` select, found once per class."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    compared = [f.name for f in fields(cls) if f.compare]
    shown = [f.name for f in fields(cls) if f.repr]
    get = attrgetter(*compared) if compared else lambda value: ()
    # attrgetter gives one field bare; == and hash take a tuple of fields.
    key = (lambda value: (get(value),)) if len(compared) == 1 else get

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({values})"

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    return cls


@value_class
class SourceLocation:
    """1-based line and column (in code points) inside a named input."""

    file: str
    line: int
    column: int

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@value_class
class Diagnostic:
    code: str
    message: str
    location: SourceLocation | None = None
    method_name: str | None = None

    def __post_init__(self) -> None:
        if not _CODE_RE.match(self.code):
            raise ValueError(f"malformed diagnostic code {self.code!r}")

    @property
    def severity(self) -> Severity:
        # Derived from the code prefix, which keeps code and severity
        # consistent by construction.
        return _SEVERITY_BY_PREFIX[self.code[0]]

    def render(self) -> str:
        """One-line form: ``FILE:LINE:COL: CODE SEVERITY [method] message``."""
        parts = []
        if self.location is not None:
            parts.append(f"{self.location}:")
        parts.append(self.code)
        parts.append(self.severity.value)
        if self.method_name is not None:
            parts.append(f"[{self.method_name}]")
        parts.append(self.message)
        return " ".join(parts).translate(ONE_LINE)


def sort_key(diag: Diagnostic) -> tuple:
    """Deterministic ordering: rule code first, then location, then method."""
    loc = diag.location
    return (
        diag.code,
        loc.file if loc else "",
        loc.line if loc else 0,
        loc.column if loc else 0,
        diag.method_name or "",
    )
