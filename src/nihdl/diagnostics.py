"""Coded findings shared by the parser, the validator and the corpus store.

Every finding carries a stable code whose first letter determines its
severity: E = error, W = warning, I = info. Parse-time findings always
carry a source location; findings computed on hand-constructed values
may not. ``value_class`` here makes every value type of the package.
"""

from __future__ import annotations

import re
import sys
from dataclasses import (_FIELD_CLASSVAR, _FIELD_INITVAR, MISSING, FrozenInstanceError,
                         dataclass, fields)
from enum import Enum
from inspect import formatannotation
from operator import attrgetter


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


_SEVERITY_BY_PREFIX = {"E": Severity.ERROR, "W": Severity.WARNING, "I": Severity.INFO}
_CODE_RE = re.compile("[EWI][0-9]{3}")  # fullmatch: `$` passes a final LF, `\d` any digit
# A tab, line feed or carriage return as one space: a rendered diagnostic,
# like an index.tsv field, is one line whatever a file name holds.
ONE_LINE = str.maketrans("\t\n\r", "   ")


def value_class(cls):
    """``@dataclass(frozen=True)``, but with only ``__init__`` compiled for
    each class. ``==``, ``hash`` and ``repr`` read the fields that ``compare``
    and ``repr`` select, found once per class; ``__setattr__`` and
    ``__delattr__`` refuse a field, and any attribute of the class itself,
    as a frozen dataclass does. All five are written once, here. A class
    without a docstring gets the one ``dataclass`` would give it, built from
    the fields: ``dataclass`` would ask ``inspect`` for the signature. Instances
    refuse assignment, though ``__dataclass_params__.frozen`` reads False."""
    undocumented = not cls.__doc__
    if undocumented:
        cls.__doc__ = cls.__name__
    cls = dataclass(init=False, eq=False, repr=False)(cls)
    every = fields(cls)
    for f in cls.__dataclass_fields__.values():
        if f._field_type is not _FIELD_CLASSVAR and (
                f._field_type is _FIELD_INITVAR or not f.init or f.kw_only
                or f.default_factory is not MISSING):
            raise TypeError(f"{cls.__qualname__}.{f.name}: value_class writes no __init__ "
                            "for init=False, kw_only, default_factory or InitVar")
    cls.__init__ = _compile_init(cls, every)
    if undocumented:
        params = ", ".join(f"{f.name}: {formatannotation(f.type)}"
                           + ("" if f.default is MISSING else f" = {f.default!r}")
                           for f in every)
        cls.__doc__ = f"{cls.__name__}({params})"
    names = tuple(f.name for f in every)
    compared = [f.name for f in every if f.compare]
    shown = [f.name for f in every if f.repr]
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

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


def _compile_init(cls, every):
    """``__init__(self, <fields>)``, storing each field with ``object.__setattr__``
    and ending in ``__post_init__()`` if the class has one. Compiled in the
    class's module, as ``dataclass`` does, so that ``typing.get_type_hints``
    resolves its annotations there."""
    params = "".join(f", {f.name}" if f.default is MISSING
                     else f", {f.name}=_defaults[{f.name!r}]" for f in every)
    body = [f"  _setattr(self, {f.name!r}, {f.name})" for f in every]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    source = "\n".join(["def make(_setattr, _defaults):", f" def __init__(self{params}):",
                        *(body or ["  pass"]), " return __init__"])
    namespace = {}
    exec(source, vars(sys.modules[cls.__module__]), namespace)
    init = namespace["make"](object.__setattr__, {f.name: f.default for f in every})
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in every} | {"return": None}
    return init


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
        if not _CODE_RE.fullmatch(self.code):
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
