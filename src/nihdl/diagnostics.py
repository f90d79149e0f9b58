"""Coded findings shared by the parser, the validator and the corpus store.

Every finding carries a stable code whose first letter determines its
severity: E = error, W = warning, I = info. Parse-time findings always
carry a source location; findings computed on hand-constructed values
may not. ``value_class`` and ``field`` here make every value type of the
package; ``dataclasses`` is imported only when its metadata is first read.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
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
_NO_DEFAULT = object()


def one_line(text: str) -> str:
    """``text.translate(ONE_LINE)``, which looks up every character, for text that needs it."""
    return text.translate(ONE_LINE) if "\t" in text or "\n" in text or "\r" in text else text


class field:
    """``dataclasses.field`` for a value class: whether ``==`` and ``repr`` read a field."""
    def __init__(self, default, *, compare=True, repr=True):
        self.default, self.compare, self.repr = default, compare, repr


def value_class(cls):
    """``@dataclass(frozen=True)`` without ``dataclasses``, with only ``__init__``
    compiled for each class. The fields are those of value-class bases, then
    the class's own annotations but a ``ClassVar``, as in a dataclass. ``==``,
    ``hash`` and ``repr`` read the fields that ``compare`` and ``repr`` select;
    ``__setattr__`` and ``__delattr__`` refuse a field, and any attribute of
    the class itself, as a frozen dataclass does. All five are written once,
    here. A class without a docstring gets the one ``dataclass`` would give
    it. Instances refuse assignment, though ``__dataclass_params__.frozen``
    (made on first read, see ``_Metadata``) reads False."""
    found = {name: f for base in reversed(cls.__mro__[1:])
             for name, f in vars(base).get("_value_fields", {}).items()}
    # A feature that value_class writes no code for is asked for with an object
    # of dataclasses or typing, so there is none while that module is unloaded.
    dc, typing = sys.modules.get("dataclasses"), sys.modules.get("typing")
    namespace, keyword_only = vars(sys.modules[cls.__module__]), False
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        head = annotation
        if isinstance(annotation, str):  # resolved as dataclass does: the same fields
            owner, _, head = annotation.partition("[")[0].strip().rpartition(".")
            head = getattr(namespace.get(owner), head, None) if owner else namespace.get(head)
        if typing and typing.ClassVar in (head, getattr(head, "__origin__", None)):
            continue
        if dc and head is dc.KW_ONLY:
            keyword_only = True
            continue
        default = getattr(cls, name, _NO_DEFAULT)
        if dc and (keyword_only or dc.InitVar in (head, type(head)) or isinstance(default, dc.Field)):
            raise TypeError(f"{cls.__qualname__}.{name}: value_class writes no __init__ "
                            "for init=False, kw_only, default_factory or InitVar")
        found[name] = f = default if isinstance(default, field) else field(default)
        f.name, f.type = name, annotation
        if f is default:
            setattr(cls, name, f.default)
    cls._value_fields, every, names = found, list(found.values()), tuple(found)
    cls.__init__ = _compile_init(cls, every)
    if not cls.__doc__:
        if all(isinstance(f.type, str) for f in every):
            formatannotation = repr  # as inspect.formatannotation writes a string
        else:
            from inspect import formatannotation
        params = ", ".join(f"{f.name}: {formatannotation(f.type)}"
                           + ("" if f.default is _NO_DEFAULT else f" = {f.default!r}")
                           for f in every)
        cls.__doc__ = f"{cls.__name__}({params})"
    cls.__match_args__ = vars(cls).get("__match_args__", names)
    cls.__dataclass_fields__ = _Metadata(cls, "__dataclass_fields__")
    cls.__dataclass_params__ = _Metadata(cls, "__dataclass_params__")
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
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


class _Metadata:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a value class. The first
    read of either has ``dataclass(init=False, eq=False, repr=False)`` replace both."""
    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, instance, owner):
        from dataclasses import dataclass
        made = dataclass(init=False, eq=False, repr=False)(self.cls).__dataclass_fields__
        for name, f in self.cls._value_fields.items():
            made[name].compare, made[name].repr = f.compare, f.repr
        return vars(self.cls)[self.name]


def _compile_init(cls, every):
    """``__init__(self, <fields>)``, storing each field with ``object.__setattr__``
    and ending in ``__post_init__()`` if the class has one. Compiled in the
    class's module, as ``dataclass`` does, so that ``typing.get_type_hints``
    resolves its annotations there."""
    params = "".join(f", {f.name}" if f.default is _NO_DEFAULT
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
        return one_line(" ".join(parts))


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
