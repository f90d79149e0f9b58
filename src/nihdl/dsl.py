"""Concrete syntax for description files (.nihd) and catalog files (.nihc).

The format is a one-token-lookahead block grammar: braces delimit blocks,
keys appear in a fixed canonical order, strings are double-quoted and
single-line with \\" and \\\\ escapes, and `#` starts a line comment. A
`nihdl-version 1` header line is accepted and ignored. Input may use LF
or CRLF line endings; the serializer emits LF. A line feed or a lone
carriage return ends a string before its closing quote (E002 at the
opening quote), so every string that parses can be serialized again.

Tokens are the raw texts one `re.split` yields, with no object per token
and no kind or offset stored. A token's kind follows from its text: empty
is end of input, a leading `"` a string, punctuation its own kind, three
characters with `:` in the middle a relation, a leading digit an integer,
anything else a keyword. So the parser compares texts, and it decodes a
string only where it reads one. A token's offset into the normalized text
is summed from the lengths of the split parts before it, and its line and
column from the offset, only when a location is needed.

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
A block holds one step per key, walked in order: the parser steps over a
key and its `:` or `{`, reads a nested block, plain enumeration or string
in place, and leaves any other value, or a wrong token, to its kind.

Value rules (a non-empty name, a year in range, ...) live in the model,
except that a string value is single-line, which the serializer's _quote
holds. The parser builds each model value where the file states it and
reports the model's refusal at that token. Before its colon, a `justify`
element or `feature` line is asked of the model's check_justified or check_features;
a catalog node's name is asked of the taxonomy's check_name before its block.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable
from enum import Enum

from . import model
from .diagnostics import Diagnostic, SourceLocation, field, value_class
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


@value_class
class Document:
    """An ordered collection of method descriptions from one file."""

    methods: tuple[model.MethodDescription, ...] = ()
    source_file: str = field(default="<memory>", compare=False)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class _Fail(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


# The token alternatives, shared by the split pattern and the check of its
# last token. A backslash escapes only `"` and `\`; `1:1x` is 1, :, 1 and x.
# Keywords, the most common token, are tried early; only a relation (`n:1`)
# may also start with a letter, so a keyword starting with `n` is tried last.
_TOKENS = r"""
    [{}\[\]():,]                                            # punctuation
  | [A-Za-mo-z][A-Za-z0-9-]*                                # keyword, not n...
  | "[^"\\\n\r]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n\r]*)*"      # string
  | [1n]:[1m](?![A-Za-z0-9:_-])                             # relation
  | [0-9]+                                                  # integer
  | [A-Za-z][A-Za-z0-9-]*                                   # keyword
"""
_TOKEN = re.compile(_TOKENS, re.VERBOSE)
# Each match is (blanks, newlines and comments)(one raw token): the tokens
# are ``split(text)[2::3]``, and "" comes before each match. After the skip
# something always matches, so it is never backtracked into: a token, the
# end (empty; twice after trailing blanks), or a bad character, which takes
# the rest of the text and so is the last token before the end.
_SCAN = re.compile(r"([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)(" + _TOKENS + r"|\Z|.+)",
                   re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r'\\(["\\])')
_UNESCAPE = operator.itemgetter(1)  # a C callable; a template runs Python per escape
_END = "end of input"


def _lex(text: str, locate: Callable[[int], SourceLocation]) -> list[str]:
    """The split parts of normalized ``text``, whose tokens end in end of
    input; ``locate`` maps an offset to the SourceLocation of a lexical
    error, which can only be the last token before the end."""
    parts = _SCAN.split(text)
    bad = parts[-5] if len(parts) > 4 else ""  # the token before the last end
    if bad and not _TOKEN.fullmatch(bad):
        at = locate(len(text) - len(bad))
        if bad[0] == '"':
            raise _Fail(Diagnostic("E002", "unterminated string", at))
        raise _Fail(Diagnostic("E001", f"unexpected character {bad[0]!r}", at))
    return parts


def _kind(token: str) -> str:
    """A raw token's kind, told from its text as the module docstring says."""
    if not token:
        return _END
    first = token[0]
    if first == '"':
        return "string"
    if token[1:2] == ":":
        return "relation"
    return first if first in "{}[]():," else "integer" if first.isdigit() else "keyword"


def _unquote(token: str) -> str:
    """A string token's value."""
    text = token[1:-1]
    return _ESCAPE.sub(_UNESCAPE, text) if "\\" in text else text


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

    def emit(self, lines: list[str], indent: str, head: str, value) -> None:
        lines.append(f"{indent}{head}: {self.text(value)}")


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


def _enum(cls: type[Enum], kind: type[_Enum] = _Enum) -> _Enum:
    return kind({member.value: member for member in cls})


class _EnumList(_Enum):
    """`key: [a, b]`: distinct vocabulary values, which the model orders."""

    def parse(self, p, key, fields, at):
        p.expect("[")
        values = [p.enum_member(self.mapping, key.name, ())]
        while p.text == ",":
            p.advance()
            values.append(p.enum_member(self.mapping, key.name, values))
        p.expect("]")
        return tuple(values)

    def text(self, value):
        return "[" + ", ".join(self.names[v] for v in value) + "]"


class _Features(_Enum):
    """Repeated `key: token` lines, each token once; before the colon, the
    model is asked whether the status allows any."""

    opener = None

    def parse(self, p, key, fields, at):
        p.build("E001", at, model.check_features,
                {"presence": fields["presence"], "features": self.names})
        p.expect(":")
        return p.enum_member(self.mapping, key.name, fields[key.field])


class _Binding(_Kind):
    """`generic`, `unspecified`, or a binding kind naming its protocols or
    features in parentheses."""

    kinds = {kind.value: kind for kind in model.BindingKind}
    unspecified = default = model.CarrierBinding(model.BindingKind.UNSPECIFIED)

    def parse(self, p, key, fields, at):
        kind = p.enum_value(self.kinds, key.name)
        if kind in (model.BindingKind.GENERIC, model.BindingKind.UNSPECIFIED):
            return model.CarrierBinding(kind)
        p.expect("(")
        names = [p.string_value("name")[0]]
        while p.text == ",":
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
    unspecified = model.Directness(model.DirectnessKind.UNSPECIFIED)

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
        if p.text == UNASSIGNED.text:
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

    def emit(self, lines, indent, head, value):
        lines.append(f"{indent}{head} {_quote(value.element)}: {_quote(value.rationale)}")


class _Block(_Kind):
    """`key { ... }` holding keys in canonical order. ``make`` builds the
    model value from the fields; without it they join the parent's."""

    word = "block"
    opener = "{"

    def __init__(self, make: Callable | None, *keys: _Key) -> None:
        self.make = make
        self.keys = keys
        self.known = {key.name: position for position, key in enumerate(keys)}
        # parse_block's step per key: its word, kind, opener, need, field, and what it reads in
        # place: a plain enum's vocabulary, True for a string, False for a block, else None.
        self.steps = tuple(
            (key, key.name, key.kind, key.kind.opener, key.need, key.field,
             key.kind.mapping if type(key.kind) is _Enum else True if type(key.kind) is _String
             else False if isinstance(key.kind, _Block) else None)
            for key in keys)

    def emit(self, lines, indent, head, value):
        lines.append(f"{indent}{head} {{")
        _emit_block(lines, indent + "  ", self, value)
        lines.append(indent + "}")


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
    """Reads the tokens of one text. ``pos`` indexes the current token and
    ``text`` is its raw text; parse_block sets them only to call out to a kind."""

    def __init__(self, text: str, file_name: str) -> None:
        self.source = text.removeprefix("\ufeff").replace("\r\n", "\n")
        self.file = file_name
        self._located = (1, 0, 0)  # line, its start, offset of the last location
        self._summed = (0, 0)  # a part index and the offset where that part starts
        self.parts = _lex(self.source, self.locate)
        self.texts = self.parts[2::3]
        self.pos = 0
        self.text = self.texts[0]

    def advance(self) -> int:
        """Step past the current token unless it ends the input; return its index."""
        at = self.pos
        if self.text:
            self.pos = at + 1
            self.text = self.texts[at + 1]
        return at

    def offset(self, at: int) -> int:
        """Token ``at``'s offset into the normalized text, summed on from the
        last token asked for when it is no later."""
        end = 3 * at + 2  # the parts before token ``at``
        start, offset = self._summed if self._summed[0] <= end else (0, 0)
        offset += len("".join(self.parts[start:end]))  # faster than summing lengths
        self._summed = (end, offset)
        return offset

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
        return self.locate(self.offset(self.pos if at is None else at))

    def describe(self) -> str:
        """The current token as a diagnostic names it; a string shows its quotes."""
        kind = _kind(self.text)
        text = _quote(_unquote(self.text)) if kind == "string" else self.text
        return _END if kind == _END else repr(text)

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
        if _kind(self.text) != kind:
            self.fail("E001", f"expected {what or repr(kind)}, found {self.describe()}")
        return self.advance()

    # -- key sequencing -----------------------------------------------------

    def _surprise(self, block: _Block, fields: dict, due: _Key | None, at: int) -> None:
        """Report token ``at`` where ``block``'s required key ``due`` is
        missing, or where the block should close when ``due`` is None.

        A key read already is a duplicate (E003): a required one before ``due``
        (parsing stops at the first missing) or an optional one whose field is
        in ``fields``. Another key from before ``due`` is out of order (E001); a
        later one, or a token that is not a key, leaves ``due`` missing (E005).
        """
        self.pos, self.text = at, self.texts[at]
        text, known, kind = self.text, block.known, _kind(self.text)
        if kind == _END:
            self.fail("E001", "unexpected end of input")
        if kind == "keyword":
            if text not in known:
                self.fail("E001", f"unknown key {text!r}")
            key, early = block.keys[known[text]], due is None or known[text] < known[due.name]
            if early and key.need is _REQUIRED or key.need is _OPTIONAL and key.field in fields:
                self.fail("E003", f"duplicate key {text!r} in block")
            if early:
                self.fail("E001", f"key {text!r} out of canonical order")
        if due is not None:
            self.fail("E005", f"missing required {due.kind.word} {due.name!r}")
        self.fail("E001", f"unexpected token {self.describe()}")

    def parse_block(self, block: _Block, at: int) -> tuple[dict[str, object], int]:
        """A block's keys in table order from token ``at``, as model fields, and
        the index after its closing brace; a key the file leaves out keeps the
        model default. A nested block's model refusal is E005 at its key."""
        texts = self.texts
        fields: dict[str, object] = {}
        for key, word, kind, opener, need, field, plain in block.steps:
            if need is _REPEATED:
                items = fields[field] = []
            while texts[at] == word:
                start, at = at, at + 2 if opener else at + 1
                if opener and texts[at - 1] != opener:
                    self.pos, self.text = at - 1, texts[at - 1]
                    self.expect(opener)
                text = texts[at]
                if plain is False:
                    value, at = self.parse_block(kind, at)
                    try:
                        value = value if kind.make is None else kind.make(**value)
                    except (ValueError, TaxonomyError) as exc:
                        self.fail("E005", str(exc), start)
                # Any other value, or a wrong token, goes to the kind to read or report.
                elif plain is None or (text[:1] != '"' if plain is True else text not in plain):
                    self.pos, self.text = at, text
                    value, at = kind.parse(self, key, fields, start), self.pos
                else:
                    value, at = _unquote(text) if plain is True else plain[text], at + 1
                if need is _REPEATED:
                    items.append(value)
                    continue
                if field is None:
                    fields.update(value)
                else:
                    fields[field] = value
                break
            else:
                if need is _REQUIRED:
                    self._surprise(block, fields, key, at)
            if need is _REPEATED:
                fields[field] = tuple(items)
        if texts[at] != "}":
            self._surprise(block, fields, None, at)
        return fields, at + 1

    # -- scalar values ------------------------------------------------------

    def string_value(self, what: str) -> tuple[str, int]:
        at, text = self.pos, self.text
        if text[:1] != '"':
            self.fail("E001", f"expected {what}, found {self.describe()}")
        self.pos, self.text = at + 1, self.texts[at + 1]
        return _unquote(text), at

    def enum_value(self, mapping: dict, what: str):
        at, text = self.pos, self.text
        if text not in mapping:
            self.fail("E004", f"unknown enumeration token {self.describe()} for {what}")
        self.pos, self.text = at + 1, self.texts[at + 1]
        return mapping[text]

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
        while self.text:
            if self.text != _METHOD_WORD:
                self.fail("E001", f"expected {_METHOD_WORD!r}, found {self.describe()}")
            start = self.advance()
            name, name_at = self.string_value("method name")
            fields, at = self.parse_block(_METHOD, self.expect("{") + 1)
            self.pos, self.text = at, self.texts[at]
            fields.update(name=name, location=self.loc(start))
            methods.append(self.build("E004", name_at, _METHOD.make, fields))
        return Document(methods=tuple(methods), source_file=self.file)

    def _skip_version_header(self) -> None:
        if self.text == "nihdl-version":
            self.advance()
            self.expect("integer", "version number")

    # -- catalog grammar ----------------------------------------------------
    def parse_catalog_file(self) -> PatternCatalog:
        self._skip_version_header()
        if self.text != "catalog":
            self.fail("E001", f"expected 'catalog', found {self.describe()}")
        self.advance()
        label = None
        if _kind(self.text) == "string":
            label = _unquote(self.texts[self.advance()])
        self.expect("{")
        roots = self.parse_nodes(depth=1)
        self.expect("}")
        self.expect(_END, _END)
        return PatternCatalog(roots=roots, label=label)

    def parse_nodes(self, depth: int) -> tuple[PatternNode, ...]:
        nodes: list[PatternNode] = []
        seen: set[str] = set()
        while self.text == "node":
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


def _emit_block(lines: list[str], indent: str, block: _Block, obj) -> None:
    for key in block.keys:
        kind = key.kind
        value = obj if key.field is None else getattr(obj, key.field)
        if key.need is _REPEATED:
            for item in value:
                kind.emit(lines, indent, key.name, item)
        # Identity first: most defaults are None, and `!=` is slower.
        elif value is not None if kind.default is None else value != kind.default:
            kind.emit(lines, indent, key.name, value)
        elif key.need is _REQUIRED:
            raise ValueError(f"cannot serialize: {kind.word} {key.name!r} is missing")


def serialize(doc: Document) -> str:
    """Canonical text for a document; the empty document serializes to ""."""
    if not doc.methods:
        return ""
    lines: list[str] = []
    for method in map(model.normalize, doc.methods):
        if lines:
            lines.append("")
        _METHOD.emit(lines, "", f"{_METHOD_WORD} {_quote(method.name)}", method)
    return "\n".join(lines) + "\n"


def serialize_catalog(catalog: PatternCatalog) -> str:
    """Canonical text for a catalog file: each header opens its children's block, or `{}`."""
    lines: list[str] = []

    def emit(indent: str, header: str, children: tuple[PatternNode, ...]) -> None:
        if not children:
            lines.append(f"{indent}{header} {{}}")
            return
        lines.append(f"{indent}{header} {{")
        for node in children:
            emit(indent + "  ", f"node {_quote(node.name)}", node.children)
        lines.append(indent + "}")

    emit("", "catalog" if catalog.label is None else f"catalog {_quote(catalog.label)}",
         catalog.roots)
    return "\n".join(lines) + "\n"
