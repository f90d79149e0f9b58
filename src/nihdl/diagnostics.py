"""Coded findings shared by the parser, the validator and the corpus store.

Every finding carries a stable code whose first letter determines its
severity: E = error, W = warning, I = info. Parse-time findings always
carry a source location; findings computed on hand-constructed values
may not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


_SEVERITY_BY_PREFIX = {"E": Severity.ERROR, "W": Severity.WARNING, "I": Severity.INFO}
_CODE_RE = re.compile(r"^[EWI]\d{3}$")
# A tab, line feed or carriage return as one space: a rendered diagnostic,
# like an index.tsv field, is one line whatever a file name holds.
ONE_LINE = str.maketrans("\t\n\r", "   ")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
