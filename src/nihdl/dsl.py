"""Concrete syntax for description files (.nihd) and catalog files (.nihc).

The format is a one-token-lookahead block grammar: braces delimit blocks,
keys appear in a fixed canonical order, strings are double-quoted and
single-line with \\" and \\\\ escapes, and `#` starts a line comment. A
`nihdl-version 1` header line is accepted and ignored. Input may use LF
or CRLF line endings; the serializer emits LF. A line feed or a lone
carriage return ends a string before its closing quote (E002 at the
opening quote), so every string that parses can be serialized again.

Tokens are held in three parallel lists, with no object per token: kinds,
texts and offsets into the normalized text. A kind is a short string:
the punctuation character itself, or `string`, `integer`, `keyword`,
`relation` or `end of input`. A string's text is its decoded value; an
integer stays digits until a year reads it. One regex match yields a key
and the `:` or `{` after it, still as two tokens, and the parser steps over
both at once. It walks the lists by index; line and column are worked out
from an offset only when a location is needed.

Parsing is total: any input yields either a value or error diagnostics
with source locations, never an unhandled exception. Diagnostic codes:

    E001  unexpected token (structure, including end of input)
    E002  unterminated string
    E003  duplicate key or sibling in a block
    E004  value outside its domain (unknown enumeration token, bad year,
          malformed pattern path, empty name or label, justify off the path)
    E005  missing required key or block within a present block, or a
          binding or metric its block refuses

The serializer produces the canonical form: schema ordering, two-space
indentation per block depth, one key per line, a trailing newline, and
descriptions normalized first. Serializing then parsing a valid document
is the identity up to normalization.

The description schema is one table (`_METHOD` and the block entries it
opens): per block, its keys in canonical order, each required, optional
or repeated, with its value kind and the model field it fills. A kind
also gives the value a left-out key leaves, which is never written. A
repeated key may appear any number of times and so is never a duplicate.
The parser, the serializer and the validator's check for `unspecified`
values all walk it; it is the only place key order and optionality live.

Value rules (a non-empty name, a year in range, ...) live in the model
only: the parser builds each model value where the file states it and
reports the model's refusal at that token. Before its colon, a `justify`
element or `feature` line is asked of the model's check_justified or check_features;
a catalog node's name is asked of the taxonomy's check_name before its block.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from . import model
from .diagnostics import Diagnostic, SourceLocation
from .taxonomy import (
    MAX_DEPTH,
    InvalidNameError,
    PatternCatalog,
    PatternNode,
    PatternPath,
    TaxonomyError,
    UNASSIGNED,
    check_name,
)

DESCRIPTION_SUFFIX = ".nihd"

_METHOD_WORD = "method"


@dataclass(frozen=True)
class Document:
    """An ordered collection of method descriptions from one file."""

    methods: tuple[model.MethodDescription, ...] = ()
    source_file: str = field(default="<memory>", compare=False)


def normalize_document(doc: Document) -> Document:
    return Document(
        methods=tuple(model.normalize(m) for m in doc.methods),
        source_file=doc.source_file,
    )


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class _Fail(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# One match per token, or per keyword and the `:` or `{` after it on its
# line, which still yields two tokens: skip blanks, newlines and comments,
# then take the first alternative that matches; ``lastindex`` is its group
# (the opener's closes last). A backslash escapes only `"` and `\`. After the
# skip something always matches (end or bad), so it is never backtracked into.
_SCAN = re.compile(r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
        ([1n]:[1m](?![A-Za-z0-9:_-]))                            # 1 relation
      | ([{}\[\]():,])                                            # 2 punctuation
      | "([^"\\\n\r]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n\r]*)*)"      # 3 string
      | ([0-9]+)                                                 # 4 integer
      | ([A-Za-z][A-Za-z0-9-]*)(?:[ \t]*([:{]))?                  # 5 keyword, 6 opener
      | (\Z)                                                     # 7 end
      | (.)                                                      # 8 bad
    )""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r'\\(["\\])')
_UNESCAPE = operator.itemgetter(1)  # a C callable; a template runs Python per escape
_END = "end of input"
# The kind of each group's token: punctuation and an opener are their own.
_SHAPE_KINDS = (None, "relation", None, "string", "integer", "keyword", None)


def _lex(text: str, locate: Callable[[int], SourceLocation]
         ) -> tuple[list[str], list[str], list[int]]:
    """The kinds, texts and offsets of the tokens of normalized ``text``,
    ending in end of input; ``locate`` maps an offset to the
    SourceLocation of a lexical error."""
    kinds: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    add_kind, add_text, add_offset = kinds.append, texts.append, offsets.append
    for m in _SCAN.finditer(text):
        shape = m.lastindex
        word = m[shape]
        offset = m.start(shape)
        if shape == 6:  # the keyword first, then its opener
            add_kind("keyword")
            add_text(m[5])
            add_offset(m.start(5))
        elif shape == 3:
            offset -= 1  # at the opening quote
            if "\\" in word:
                word = _ESCAPE.sub(_UNESCAPE, word)
        elif shape == 7:
            break  # finditer would match the empty end once more
        elif shape == 8:
            if word == '"':
                raise _Fail(Diagnostic("E002", "unterminated string", locate(offset)))
            raise _Fail(Diagnostic("E001", f"unexpected character {word!r}", locate(offset)))
        add_kind(_SHAPE_KINDS[shape] or word)
        add_text(word)
        add_offset(offset)
    add_kind(_END)
    add_text("")
    add_offset(len(text))  # `\Z` matches only there
    return kinds, texts, offsets


# ---------------------------------------------------------------------------
# Description schema
# ---------------------------------------------------------------------------

class _Need(Enum):
    REQUIRED = "required"
    OPTIONAL = "optional"
    REPEATED = "repeated"


_REQUIRED, _OPTIONAL, _REPEATED = _Need


class _Kind:
    """A value kind: how a key's value is read after its introducer and
    written back. The base form is one `key: value` line."""

    word = "key"  # how E005 names a missing required one
    opener: str | None = ":"  # the token after the key, if any
    unspecified: object = None  # the value written `unspecified`, if any
    default: object = None  # the value a left-out key leaves; it goes unwritten

    def parse(self, p: _Parser, key: _Key, fields: dict, at: int) -> object:
        raise NotImplementedError

    def text(self, value) -> str:
        raise NotImplementedError

    def emit(self, w: _Writer, key: _Key, value) -> None:
        w.line(f"{key.name}: {self.text(value)}")

    def collect(self, items: list) -> object:
        """The field value of a repeated key's items, in file order."""
        return tuple(items)

    def members(self, value):
        """A repeated key's items, in canonical order."""
        return value


class _Key:
    __slots__ = ("name", "kind", "need", "field")

    def __init__(self, name: str, kind: _Kind, need: _Need = _OPTIONAL,
                 field: str | None = "") -> None:
        self.name = name
        self.kind = kind
        self.need = need
        # The model field it fills: by default the name in snake case. None
        # spreads a block's fields into its parent's.
        self.field = name.replace("-", "_") if field == "" else field


class _String(_Kind):
    def __init__(self, what: str | None = None) -> None:
        self.what = what  # how E001 names the expected value, if not by the key

    def parse(self, p, key, fields, at):
        return p.string_value(self.what or key.name)[0]

    def text(self, value):
        return _quote(value)


class _Shared(_Kind):
    """The non-empty label of a combined description."""

    def parse(self, p, key, fields, at):
        label, label_at = p.string_value(f"{key.name} label")
        return p.build("E004", label_at, model.SharedGroup, {"label": label})

    def text(self, value):
        return _quote(value.label)


class _Year(_Kind):
    def parse(self, p, key, fields, at):
        year_at = p.expect("integer", key.name)
        # No year has more than four digits, and int() refuses more than
        # 4,300, so the model gets a longer number as its digits, unread.
        digits = p.texts[year_at].lstrip("0") or "0"
        return p.build("E004", year_at, model.check_year,
                       {"year": int(digits) if len(digits) <= 4 else digits})

    def text(self, value):
        return str(value)


class _Enum(_Kind):
    """One token of a fixed vocabulary."""

    def __init__(self, mapping: dict[str, object], default: object = None) -> None:
        self.mapping = mapping
        self.names = {value: name for name, value in mapping.items()}
        self.unspecified = mapping.get("unspecified")
        self.default = default

    def parse(self, p, key, fields, at):
        return p.enum_value(self.mapping, key.name)

    def text(self, value):
        return self.names[value]

    def ordered(self, values) -> list:
        """A set of vocabulary values in vocabulary order."""
        return [value for value in self.names if value in values]


def _enum(cls: type[Enum], kind: type[_Enum] = _Enum) -> _Enum:
    return kind({member.value: member for member in cls})


class _EnumList(_Enum):
    """`key: [a, b]`: a non-empty set of vocabulary values."""

    def parse(self, p, key, fields, at):
        p.expect("[")
        values = [p.enum_member(self.mapping, key.name, ())]
        while p.kind == ",":
            p.advance()
            values.append(p.enum_member(self.mapping, key.name, values))
        p.expect("]")
        return frozenset(values)

    def text(self, value):
        return "[" + ", ".join(self.names[v] for v in self.ordered(value)) + "]"


class _Features(_Enum):
    """Repeated `key: token` lines forming a set; before the colon, the
    model is asked whether the status allows any."""

    opener = None

    def parse(self, p, key, fields, at):
        p.build("E001", at, model.check_features,
                {"presence": fields["presence"], "features": self.names})
        p.expect(":")
        return p.enum_member(self.mapping, key.name, fields[key.field])

    def collect(self, items):
        return frozenset(items)

    def members(self, value):
        return self.ordered(value)


class _Binding(_Kind):
    """`generic`, `unspecified`, or a binding kind naming its protocols or
    features in parentheses."""

    kinds = {kind.value: kind for kind in model.BindingKind}
    unspecified = default = model.CarrierBinding.unspecified()

    def parse(self, p, key, fields, at):
        kind = p.enum_value(self.kinds, key.name)
        if kind in (model.BindingKind.GENERIC, model.BindingKind.UNSPECIFIED):
            return model.CarrierBinding(kind)
        p.expect("(")
        names = [p.string_value("name")[0]]
        while p.kind == ",":
            p.advance()
            names.append(p.string_value("name")[0])
        close = p.expect(")")
        return p.build("E005", close, model.CarrierBinding,
                       {"kind": kind, "names": tuple(names)})

    def text(self, value):
        if not value.names:
            return value.kind.value
        return f"{value.kind.value}({', '.join(_quote(n) for n in value.names)})"


class _Directness(_Kind):
    """`direct`, `unspecified`, or `indirect("intermediary requirements")`."""

    kinds = {kind.value: kind for kind in model.DirectnessKind}
    unspecified = model.Directness.unspecified()

    def parse(self, p, key, fields, at):
        kind = p.enum_value(self.kinds, key.name)
        if kind is not model.DirectnessKind.INDIRECT:
            return model.Directness(kind)
        p.expect("(")
        requirements, _ = p.string_value("intermediary requirements")
        p.expect(")")
        return model.Directness(kind, requirements)

    def text(self, value):
        if value.kind is model.DirectnessKind.INDIRECT:
            return f"{value.kind.value}({_quote(value.requirements)})"
        return value.kind.value


class _Path(_Kind):
    """`unassigned`, or a quoted pattern path."""

    def parse(self, p, key, fields, at):
        if p.at_keyword(UNASSIGNED.text):
            p.advance()
            return UNASSIGNED
        text, text_at = p.string_value("pattern path")
        try:
            return PatternPath.from_text(text)
        except InvalidNameError as exc:
            p.fail("E004", f"malformed pattern path: {exc}", text_at)

    def text(self, value):
        return value.text if value.unassigned else _quote(value.text)


class _Justify(_Kind):
    """`key "element": "rationale"` for an element on the parsed path, which
    is asked before the colon; no colon follows the key."""

    opener = None

    def parse(self, p, key, fields, at):
        element, element_at = p.string_value("path element")
        p.build("E004", element_at, model.check_justified,
                {"path": fields["path"], "element": element})
        p.expect(":")
        rationale, _ = p.string_value("justification")
        return model.Justification(element, rationale)

    def emit(self, w, key, value):
        w.line(f"{key.name} {_quote(value.element)}: {_quote(value.rationale)}")


class _Block(_Kind):
    """`key { ... }` holding keys in canonical order. ``make`` builds the
    model value from the fields; without it they join the parent's."""

    word = "block"
    opener = "{"

    def __init__(self, make: Callable | None, *keys: _Key) -> None:
        self.make = make
        self.keys = keys
        self.known = {key.name: position for position, key in enumerate(keys)}

    def parse(self, p, key, fields, at):
        block_fields = p.parse_block(self)
        if self.make is None:
            return block_fields
        return p.build("E005", at, self.make, block_fields)

    def emit(self, w, key, value):
        w.open(key.name)
        _emit_block(w, self, value)
        w.close()


# The description grammar: one entry per block, its keys in canonical order.

_TEXT = _Key("text", _String())
_STATUS = _Key("status", _Enum({p.name.lower(): p for p in model.Presence}), _REQUIRED,
               field="presence")
_SHARED = _Key("shared-with", _Shared(), field="shared")
_LOCATIONS = _enum(model.Location)
_LOCATION = _Key("location", _LOCATIONS, _REQUIRED)


_PATTERN = _Block(
    model.PatternAssignment,
    _Key("path", _Path(), _REQUIRED),
    _Key("justify", _Justify(), _REPEATED, field="justifications"),
)
_SCENARIO = _Block(
    model.ApplicationScenario,
    _STATUS,
    _Key("purpose", _enum(model.Purpose)),
    _SHARED,
    _TEXT,
)
_CARRIER = _Block(
    model.CarrierRequirements,
    _STATUS,
    _Key("binding", _Binding()),
    _Key("condition", _String(), _REPEATED, field="conditions"),
    _SHARED,
    _TEXT,
)
_GENERAL = _Block(
    None,
    _Key("pattern", _PATTERN, _REQUIRED),
    _Key("application-scenario", _SCENARIO, field="scenario"),
    _Key("carrier-requirements", _CARRIER, _REQUIRED, field="carrier"),
)
_SENDER = _Block(
    model.SenderProcess,
    _Key("relation", _enum(model.Relation), _REQUIRED),
    _LOCATION,
    _Key("data-location", _LOCATIONS, _REQUIRED),
    _Key("generates-cover", _enum(model.Tristate), _REQUIRED),
    _TEXT,
)
_RECEIVER = _Block(model.ReceiverProcess, _LOCATION, _TEXT)
_METRIC = _Block(
    model.ChannelCharacteristic,
    _STATUS,
    _Key("value", _String()),
    _Key("ref", _Enum({"countermeasures": True}, default=False),
         field="refers_to_countermeasures"),
    _SHARED,
    _TEXT,
)
_CHANNEL = _Block(
    model.ChannelProperties,
    _Key("scenario", _enum(model.ChannelScenario, _EnumList), _REQUIRED, field="scenarios"),
    _Key("directness", _Directness(), _REQUIRED),
    _Key("bandwidth", _METRIC, _REQUIRED),
    _Key("undetectability", _METRIC, _REQUIRED),
    _Key("robustness", _METRIC, _REQUIRED),
    _Key("cost", _METRIC, _REQUIRED),
)
_CONTROL = _Block(
    model.ControlProtocol,
    _STATUS,
    _Key("feature", _enum(model.ControlFeature, _Features), _REPEATED, field="features"),
    _TEXT,
)
_PROCESS = _Block(
    None,
    _Key("sender", _SENDER, _REQUIRED),
    _Key("receiver", _RECEIVER, _REQUIRED),
    _Key("channel", _CHANNEL, _REQUIRED),
    _Key("control-protocol", _CONTROL),
)
_ENTRY = _Block(
    model.CountermeasureEntry,
    _Key("type", _enum(model.CountermeasureKind), _REQUIRED, field="kind"),
    _Key("applicability", _enum(model.Applicability), _REQUIRED),
    _Key("evaluated", _Enum({"true": True, "false": False}), _REQUIRED),
    _Key("limitations", _String()),
    _TEXT,
)
_WARDEN = _Block(
    model.WardenProfile,
    _Key("placement", _LOCATIONS, _REQUIRED),
    _Key("state", _enum(model.WardenState), _REQUIRED),
    _Key("activity", _enum(model.WardenActivity), _REQUIRED),
)
_COUNTERMEASURES = _Block(
    None,
    _Key("entry", _ENTRY, _REPEATED, field="countermeasures"),
    _Key("warden", _WARDEN),
)
# The body of `method "name" { ... }`; parse_document adds name and location.
_METHOD = _Block(
    model.MethodDescription,
    _Key("source", _String("source key")),
    _Key("year", _Year()),
    _Key("general", _GENERAL, _REQUIRED, field=None),
    _Key("process", _PROCESS, _REQUIRED, field=None),
    _Key("countermeasures", _COUNTERMEASURES, _REQUIRED, field=None),
)


def _unspecifiable(block: _Block, name: str, path: tuple[str, ...]):
    for key in block.keys:
        at = path if key.field is None else path + (key.field,)
        if isinstance(key.kind, _Block):
            if key.need is not _REPEATED:
                yield from _unspecifiable(key.kind, key.name, at)
        elif key.kind.unspecified is not None:
            yield f"{name}.{key.name}", at, key.kind.unspecified


# (`block.key`, model field path, the value written `unspecified`) for each
# key whose vocabulary has that token, in table order. Repeated blocks
# (countermeasure entries) have no such key.
_UNSPECIFIABLE = tuple(_unspecifiable(_METHOD, _METHOD_WORD, ()))


def _unspecified_keys(m: model.MethodDescription) -> list[str]:
    """`block.key` for each field of ``m`` written as `unspecified`."""
    found = []
    for label, path, unspecified in _UNSPECIFIABLE:
        value = m
        for name in path:
            value = getattr(value, name, None)  # None past a missing block
        if value == unspecified:
            found.append(label)
    return found


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Reads the token lists of one text. ``pos`` indexes the current token,
    and ``kind`` and ``text`` are its kind and text."""

    def __init__(self, text: str, file_name: str) -> None:
        self.source = text.removeprefix("\ufeff").replace("\r\n", "\n")
        self.file = file_name
        self._located = (1, 0, 0)  # line, its start, offset of the last location
        self.kinds, self.texts, self.offsets = _lex(self.source, self.locate)
        self.pos = 0
        self.kind = self.kinds[0]
        self.text = self.texts[0]

    def advance(self) -> int:
        """Step past the current token unless it ends the input; return its index."""
        at = self.pos
        if self.kind != _END:
            self.pos = at + 1
            self.kind = self.kinds[at + 1]
            self.text = self.texts[at + 1]
        return at

    def locate(self, offset: int) -> SourceLocation:
        """Line and column of an offset into the normalized text. Methods
        are located in file order, so lines are counted on from the last
        offset located when it is no later."""
        line, start, last = self._located if self._located[2] <= offset else (1, 0, 0)
        line += self.source.count("\n", last, offset)
        start = max(start, self.source.rfind("\n", last, offset) + 1)
        self._located = (line, start, offset)
        return SourceLocation(self.file, line, offset - start + 1)

    def loc(self, at: int | None = None) -> SourceLocation:
        return self.locate(self.offsets[self.pos if at is None else at])

    def describe(self) -> str:
        """The current token as a diagnostic names it."""
        return _END if self.kind == _END else repr(self.text)

    def fail(self, code: str, message: str, at: int | None = None) -> None:
        raise _Fail(Diagnostic(code, message, self.loc(at)))

    def build(self, code: str, at: int, make: Callable, fields: dict):
        """``make(**fields)``, a model value; its refusal, a ValueError or
        TaxonomyError, is reported as ``code`` at token ``at``. Fields come
        as one dict: forwarding ``**kwargs`` would copy them twice per block."""
        try:
            return make(**fields)
        except (ValueError, TaxonomyError) as exc:
            self.fail(code, str(exc), at)

    def expect(self, kind: str, what: str | None = None) -> int:
        """Consume a token of ``kind``, which E001 names as ``what`` or
        quoted; return its index."""
        if self.kind != kind:
            self.fail("E001", f"expected {what or repr(kind)}, found {self.describe()}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.text == word and self.kind == "keyword"

    # -- key sequencing -----------------------------------------------------

    def _surprise(self, block: _Block, consumed: set[str], due: _Key | None) -> None:
        """Report the current token where ``block``'s required key ``due``
        is missing, or where the block should close when ``due`` is None.

        A key of the block from before ``due`` is out of order (E001); a
        later one, or a token that is not a key, leaves ``due`` missing (E005).
        """
        kind, text, known = self.kind, self.text, block.known
        if kind == _END:
            self.fail("E001", "unexpected end of input")
        if kind == "keyword":
            if text in consumed:
                self.fail("E003", f"duplicate key {text!r} in block")
            if text not in known:
                self.fail("E001", f"unknown key {text!r}")
            if due is None or known[text] < known[due.name]:
                self.fail("E001", f"key {text!r} out of canonical order")
        if due is not None:
            self.fail("E005", f"missing required {due.kind.word} {due.name!r}")
        self.fail("E001", f"unexpected token {self.describe()}")

    def take(self, key: _Key) -> int | None:
        """Consume ``key``'s word and its kind's opener, if any, when the
        word is next; return the word's index."""
        if self.text != key.name or self.kind != "keyword":
            return None
        at, opener = self.pos, key.kind.opener
        if opener and self.kinds[at + 1] != opener:
            self.advance()
            self.expect(opener)
        after = at + 2 if opener else at + 1  # one step over the word and its opener
        self.pos, self.kind, self.text = after, self.kinds[after], self.texts[after]
        return at

    def parse_block(self, block: _Block) -> dict[str, object]:
        """A block's keys in table order, through its closing brace, as
        model fields; a key the file leaves out keeps the model default."""
        consumed: set[str] = set()
        fields: dict[str, object] = {}
        for key in block.keys:
            kind = key.kind
            if key.need is _REPEATED:  # never recorded, so never a duplicate
                items = fields[key.field] = []
                while (at := self.take(key)) is not None:
                    items.append(kind.parse(self, key, fields, at))
                fields[key.field] = kind.collect(items)
                continue
            # Testing the word first saves the call for the many optional
            # keys that are left out.
            if self.text == key.name and (at := self.take(key)) is not None:
                consumed.add(key.name)
                value = kind.parse(self, key, fields, at)
                if key.field is None:
                    fields.update(value)
                else:
                    fields[key.field] = value
            elif key.need is _REQUIRED:
                self._surprise(block, consumed, key)
        if self.kind != "}":
            self._surprise(block, consumed, None)
        self.advance()
        return fields

    # -- scalar values ------------------------------------------------------

    def string_value(self, what: str) -> tuple[str, int]:
        at = self.expect("string", what)
        return self.texts[at], at

    def enum_value(self, mapping: dict, what: str):
        if self.kind in ("keyword", "relation") and self.text in mapping:
            return mapping[self.texts[self.advance()]]
        self.fail("E004", f"unknown enumeration token {self.describe()} for {what}")

    def enum_member(self, mapping: dict, what: str, seen):
        """An enumeration value that is not in ``seen`` yet."""
        at = self.pos
        value = self.enum_value(mapping, what)
        if value in seen:
            self.fail("E003", f"duplicate {what} {self.texts[at]!r}", at)
        return value

    # -- description grammar ------------------------------------------------

    def parse_document(self) -> Document:
        self._skip_version_header()
        methods = []
        while self.kind != _END:
            if not self.at_keyword(_METHOD_WORD):
                self.fail("E001", f"expected {_METHOD_WORD!r}, found {self.describe()}")
            start = self.advance()
            name, name_at = self.string_value("method name")
            self.expect("{")
            fields = self.parse_block(_METHOD)
            fields.update(name=name, location=self.loc(start))
            methods.append(self.build("E004", name_at, _METHOD.make, fields))
        return Document(methods=tuple(methods), source_file=self.file)

    def _skip_version_header(self) -> None:
        if self.at_keyword("nihdl-version"):
            self.advance()
            self.expect("integer", "version number")

    # -- catalog grammar ----------------------------------------------------
    def parse_catalog_file(self) -> PatternCatalog:
        self._skip_version_header()
        if not self.at_keyword("catalog"):
            self.fail("E001", f"expected 'catalog', found {self.describe()}")
        self.advance()
        label = None
        if self.kind == "string":
            label = self.texts[self.advance()]
        self.expect("{")
        roots = self.parse_nodes(depth=1)
        self.expect("}")
        self.expect(_END, _END)
        return PatternCatalog(roots=roots, label=label)

    def parse_nodes(self, depth: int) -> tuple[PatternNode, ...]:
        nodes: list[PatternNode] = []
        seen: set[str] = set()
        while self.at_keyword("node"):
            if depth > MAX_DEPTH:
                self.fail("E001", f"catalog nesting deeper than {MAX_DEPTH}")
            self.advance()
            name, name_at = self.string_value("node name")
            self.build("E004", name_at, check_name, {"name": name})
            if name in seen:
                self.fail("E003", f"duplicate sibling node {name!r}", name_at)
            seen.add(name)
            self.expect("{")
            children = self.parse_nodes(depth + 1)
            self.expect("}")
            nodes.append(PatternNode(name, children))
        return tuple(nodes)


def _parse(text: str, file_name: str, grammar: Callable[[_Parser], object]):
    try:
        return grammar(_Parser(text, file_name)), []
    except _Fail as failure:
        return None, [failure.diagnostic]


def parse_description(
    text: str, file_name: str = "<input>"
) -> tuple[Document | None, list[Diagnostic]]:
    """Parse description text. Returns (document, []) or (None, diagnostics)."""
    return _parse(text, file_name, _Parser.parse_document)


def parse_catalog(
    text: str, file_name: str = "<input>"
) -> tuple[PatternCatalog | None, list[Diagnostic]]:
    """Parse catalog text. Returns (catalog, []) or (None, diagnostics)."""
    return _parse(text, file_name, _Parser.parse_catalog_file)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

def _quote(value: str) -> str:
    if "\n" in value or "\r" in value:
        raise ValueError("string values are single-line in the file format")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def open(self, header: str) -> None:
        self.line(header + " {")
        self.depth += 1

    def close(self) -> None:
        self.depth -= 1
        self.line("}")


def _emit_block(w: _Writer, block: _Block, obj) -> None:
    for key in block.keys:
        kind = key.kind
        value = obj if key.field is None else getattr(obj, key.field)
        if key.need is _REPEATED:
            for item in kind.members(value):
                kind.emit(w, key, item)
        # Identity first: most defaults are None, and `!=` is slower.
        elif value is not None if kind.default is None else value != kind.default:
            kind.emit(w, key, value)
        elif key.need is _REQUIRED:
            raise ValueError(f"cannot serialize: {kind.word} {key.name!r} is missing")


def serialize(doc: Document) -> str:
    """Canonical text for a document; the empty document serializes to ""."""
    if not doc.methods:
        return ""
    w = _Writer()
    for i, method in enumerate(doc.methods):
        if i:
            w.line("")
        method = model.normalize(method)
        w.open(f"{_METHOD_WORD} {_quote(method.name)}")
        _emit_block(w, _METHOD, method)
        w.close()
    return "\n".join(w.lines) + "\n"


def serialize_catalog(catalog: PatternCatalog) -> str:
    """Canonical text for a catalog file: each header opens its children's block, or `{}`."""
    w = _Writer()

    def emit(header: str, children: tuple[PatternNode, ...]) -> None:
        if not children:
            w.line(header + " {}")
            return
        w.open(header)
        for node in children:
            emit(f"node {_quote(node.name)}", node.children)
        w.close()

    emit("catalog" if catalog.label is None else f"catalog {_quote(catalog.label)}",
         catalog.roots)
    return "\n".join(w.lines) + "\n"
