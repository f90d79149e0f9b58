"""Concrete syntax for description files (.nihd) and catalog files (.nihc).

The format is a one-token-lookahead block grammar: braces delimit blocks,
keys appear in a fixed canonical order, strings are double-quoted and
single-line with \\" and \\\\ escapes, and `#` starts a line comment. A
`nihdl-version 1` header line is accepted and ignored. Input may use LF
or CRLF line endings; the serializer emits LF. A line feed or a lone
carriage return ends a string before its closing quote (E002 at the
opening quote), so every string that parses can be serialized again.

Parsing is total: any input yields either a value or error diagnostics
with source locations, never an unhandled exception. Diagnostic codes:

    E001  unexpected token (structure, including end of input)
    E002  unterminated string
    E003  duplicate key or sibling in a block
    E004  value outside its domain (unknown enumeration token, bad year,
          malformed pattern path, empty name)
    E005  missing required key or block within a present block

The serializer produces the canonical form: schema ordering, two-space
indentation per block depth, one key per line, a trailing newline, and
descriptions normalized first. Serializing then parsing a valid document
is the identity up to normalization.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from . import model
from .diagnostics import Diagnostic, SourceLocation
from .taxonomy import (
    InvalidNameError,
    PatternCatalog,
    PatternNode,
    PatternPath,
    UNASSIGNED,
)

DESCRIPTION_SUFFIX = ".nihd"
CATALOG_SUFFIX = ".nihc"

_MAX_CATALOG_DEPTH = 64


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

class TokenKind(Enum):
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    LPAREN = "("
    RPAREN = ")"
    COLON = ":"
    COMMA = ","
    STRING = "string"
    INT = "integer"
    KEYWORD = "keyword"
    RELATION = "relation"
    EOF = "end of input"


class Token:
    """One token. ``offset`` indexes the normalized text; line and column
    are derived from it only when a location is needed."""

    __slots__ = ("kind", "text", "offset", "value")

    def __init__(self, kind: TokenKind, text: str, offset: int,
                 value: object = None) -> None:
        self.kind = kind
        self.text = text
        self.offset = offset
        self.value = value  # decoded string or int payload

    def describe(self) -> str:
        if self.kind is TokenKind.EOF:
            return "end of input"
        return repr(self.text)


class _Fail(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
}

# One match per token: skip blanks, newlines and comments, then take the
# first alternative that matches. A backslash escapes only `"` and `\`;
# before any other character it is literal. Something always matches
# after the skip (EOF or BAD), so the skip is never backtracked into.
_SCAN = re.compile(r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?:
        (?P<RELATION>[1n]:[1m](?![A-Za-z0-9:_-]))
      | (?P<PUNCT>[{}\[\]():,])
      | (?P<STRING>"[^"\\\n\r]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n\r]*)*")
      | (?P<INT>[0-9]+)
      | (?P<KEYWORD>[A-Za-z][A-Za-z0-9-]*)
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r'\\(["\\])')
_NEWLINE = re.compile("\n")


def _lex(text: str, locate: Callable[[int], SourceLocation]) -> list[Token]:
    """Tokens of normalized ``text``, ending in EOF; ``locate`` maps an
    offset to the SourceLocation of a lexical error."""
    tokens: list[Token] = []
    append = tokens.append
    for m in _SCAN.finditer(text):
        group = m.lastgroup
        offset = m.start(group)
        word = m[group]
        if group == "KEYWORD":
            append(Token(TokenKind.KEYWORD, word, offset))
        elif group == "PUNCT":
            append(Token(_PUNCT[word], word, offset))
        elif group == "STRING":
            value = word[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
            append(Token(TokenKind.STRING, value, offset, value))
        elif group == "INT":
            append(Token(TokenKind.INT, word, offset, int(word)))
        elif group == "RELATION":
            append(Token(TokenKind.RELATION, word, offset))
        elif group == "EOF":
            append(Token(TokenKind.EOF, "", offset))
            break  # finditer would match the empty end once more
        elif word == '"':
            raise _Fail(Diagnostic("E002", "unterminated string", locate(offset)))
        else:
            raise _Fail(Diagnostic("E001", f"unexpected character {word!r}",
                                   locate(offset)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_PRESENCE = {
    "full": model.Presence.FULL,
    "partial": model.Presence.PARTIAL,
    "absent": model.Presence.ABSENT,
}
_PURPOSES = {p.value: p for p in model.Purpose}
_RELATIONS = {r.value: r for r in model.Relation}
_LOCATIONS = {v.value: v for v in model.Location}
_TRISTATES = {v.value: v for v in model.Tristate}
_SCENARIOS = {v.value: v for v in model.ChannelScenario}
_FEATURES = {v.value: v for v in model.ControlFeature}
_CM_KINDS = {v.value: v for v in model.CountermeasureKind}
_APPLICABILITY = {v.value: v for v in model.Applicability}
_WARDEN_STATES = {v.value: v for v in model.WardenState}
_WARDEN_ACTIVITIES = {v.value: v for v in model.WardenActivity}
_BOOLS = {"true": True, "false": False}

_METHOD_KEYS = {"source", "year", "general", "process", "countermeasures"}
_GENERAL_KEYS = {"pattern", "application-scenario", "carrier-requirements"}
_PATTERN_KEYS = {"path", "justify"}
_SCENARIO_KEYS = {"status", "purpose", "shared-with", "text"}
_CARRIER_KEYS = {"status", "binding", "condition", "shared-with", "text"}
_PROCESS_KEYS = {"sender", "receiver", "channel", "control-protocol"}
_SENDER_KEYS = {"relation", "location", "data-location", "generates-cover", "text"}
_RECEIVER_KEYS = {"location", "text"}
_CHANNEL_KEYS = {"scenario", "directness", "bandwidth", "undetectability",
                 "robustness", "cost"}
_METRIC_KEYS = {"status", "value", "ref", "shared-with", "text"}
_CONTROL_KEYS = {"status", "feature", "text"}
_COUNTERM_KEYS = {"entry", "warden"}
_ENTRY_KEYS = {"type", "applicability", "evaluated", "limitations", "text"}
_WARDEN_KEYS = {"placement", "state", "activity"}


class _Parser:
    def __init__(self, text: str, file_name: str) -> None:
        self.text = text.removeprefix("\ufeff").replace("\r\n", "\n")
        self.file = file_name
        self._line_starts: list[int] | None = None
        self.tokens = _lex(self.text, self.locate)
        self.pos = 0
        self.cur = self.tokens[0]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def locate(self, offset: int) -> SourceLocation:
        """Line and column of an offset into the normalized text."""
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in _NEWLINE.finditer(self.text)]
        line = bisect_right(self._line_starts, offset)
        return SourceLocation(self.file, line, offset - self._line_starts[line - 1] + 1)

    def loc(self, tok: Token | None = None) -> SourceLocation:
        return self.locate((tok or self.cur).offset)

    def fail(self, code: str, message: str, tok: Token | None = None) -> None:
        raise _Fail(Diagnostic(code, message, self.loc(tok)))

    def expect(self, kind: TokenKind, what: str) -> Token:
        if self.cur.kind is not kind:
            self.fail("E001", f"expected {what}, found {self.cur.describe()}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        return self.cur.kind is TokenKind.KEYWORD and self.cur.text == word

    # -- key sequencing -----------------------------------------------------

    def _surprise(self, known: set[str], consumed: set[str],
                  missing: str | None) -> None:
        """Report the current token given a block's key set.

        ``missing`` names a required key/block when one is due here; a
        closing brace is then E005, otherwise E001.
        """
        tok = self.cur
        if tok.kind is TokenKind.EOF:
            self.fail("E001", "unexpected end of input")
        if tok.kind is TokenKind.KEYWORD:
            if tok.text in consumed:
                self.fail("E003", f"duplicate key {tok.text!r} in block")
            if tok.text in known and missing:
                self.fail("E005", f"missing required {missing}")
            if tok.text in known:
                self.fail("E001", f"key {tok.text!r} out of canonical order")
            self.fail("E001", f"unknown key {tok.text!r}")
        if missing:
            self.fail("E005", f"missing required {missing}")
        self.fail("E001", f"unexpected token {tok.describe()}")

    def take_key(self, key: str, consumed: set[str]) -> bool:
        """Consume an optional ``key:`` introducer if it is next."""
        if self.at_keyword(key):
            self.advance()
            self.expect(TokenKind.COLON, "':'")
            consumed.add(key)
            return True
        return False

    def require_key(self, key: str, known: set[str], consumed: set[str]) -> None:
        if not self.take_key(key, consumed):
            self._surprise(known, consumed, f"key {key!r}")

    def take_block(self, name: str, consumed: set[str]) -> bool:
        """Consume an optional ``name {`` block opener if it is next."""
        if self.at_keyword(name):
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            consumed.add(name)
            return True
        return False

    def require_block(self, name: str, known: set[str], consumed: set[str]) -> None:
        if not self.take_block(name, consumed):
            self._surprise(known, consumed, f"block {name!r}")

    def end_block(self, known: set[str], consumed: set[str]) -> None:
        if self.cur.kind is TokenKind.RBRACE:
            self.advance()
            return
        self._surprise(known, consumed, None)

    # -- scalar values ------------------------------------------------------

    def string_value(self, what: str = "string") -> tuple[str, Token]:
        if self.cur.kind is not TokenKind.STRING:
            self.fail("E001", f"expected {what}, found {self.cur.describe()}")
        tok = self.advance()
        return str(tok.value), tok

    def int_value(self, what: str = "integer") -> tuple[int, Token]:
        if self.cur.kind is not TokenKind.INT:
            self.fail("E001", f"expected {what}, found {self.cur.describe()}")
        tok = self.advance()
        return int(tok.value), tok  # type: ignore[arg-type]

    def enum_value(self, mapping: dict, what: str):
        tok = self.cur
        if tok.kind in (TokenKind.KEYWORD, TokenKind.RELATION) and tok.text in mapping:
            self.advance()
            return mapping[tok.text]
        self.fail("E004", f"unknown enumeration token {tok.describe()} for {what}")

    def presence_key(self, known: set[str], consumed: set[str]) -> model.Presence:
        self.require_key("status", known, consumed)
        return self.enum_value(_PRESENCE, "status")

    # -- shared fragments ---------------------------------------------------

    def opt_shared(self, consumed: set[str]) -> model.SharedGroup | None:
        if self.take_key("shared-with", consumed):
            label, tok = self.string_value("shared-with label")
            if not label:
                self.fail("E004", "shared-with label must be non-empty", tok)
            return model.SharedGroup(label)
        return None

    def opt_text(self, consumed: set[str]) -> str | None:
        if self.take_key("text", consumed):
            text, _ = self.string_value("text")
            return text
        return None

    # -- description grammar ------------------------------------------------

    def parse_document(self) -> Document:
        self._skip_version_header()
        methods = []
        while self.cur.kind is not TokenKind.EOF:
            if not self.at_keyword("method"):
                self.fail("E001", f"expected 'method', found {self.cur.describe()}")
            methods.append(self.parse_method())
        return Document(methods=tuple(methods), source_file=self.file)

    def _skip_version_header(self) -> None:
        if self.at_keyword("nihdl-version"):
            self.advance()
            self.int_value("version number")

    def parse_method(self) -> model.MethodDescription:
        start = self.cur
        self.advance()  # 'method'
        name, name_tok = self.string_value("method name")
        if not name:
            self.fail("E004", "method name must be non-empty", name_tok)
        self.expect(TokenKind.LBRACE, "'{'")
        consumed: set[str] = set()
        source = None
        year = None
        if self.take_key("source", consumed):
            source, _ = self.string_value("source key")
        if self.take_key("year", consumed):
            year, year_tok = self.int_value("year")
            if not model.YEAR_MIN <= year <= model.YEAR_MAX:
                self.fail(
                    "E004",
                    f"year out of range {model.YEAR_MIN}-{model.YEAR_MAX}: {year}",
                    year_tok,
                )
        self.require_block("general", _METHOD_KEYS, consumed)
        pattern, scenario, carrier = self.parse_general()
        self.require_block("process", _METHOD_KEYS, consumed)
        sender, receiver, channel, control = self.parse_process()
        self.require_block("countermeasures", _METHOD_KEYS, consumed)
        entries, warden = self.parse_countermeasures()
        self.end_block(_METHOD_KEYS, consumed)
        try:
            return model.MethodDescription(
                name=name,
                source=source,
                year=year,
                pattern=pattern,
                scenario=scenario,
                carrier=carrier,
                sender=sender,
                receiver=receiver,
                channel=channel,
                control_protocol=control,
                countermeasures=entries,
                warden=warden,
                location=self.loc(start),
            )
        except ValueError as exc:
            # Structural checks above should make this unreachable; keep
            # the parser total regardless.
            self.fail("E001", str(exc), start)
            raise AssertionError  # pragma: no cover

    def parse_general(self):
        consumed: set[str] = set()
        self.require_block("pattern", _GENERAL_KEYS, consumed)
        pattern = self.parse_pattern()
        scenario = None
        if self.take_block("application-scenario", consumed):
            scenario = self.parse_scenario()
        self.require_block("carrier-requirements", _GENERAL_KEYS, consumed)
        carrier = self.parse_carrier()
        self.end_block(_GENERAL_KEYS, consumed)
        return pattern, scenario, carrier

    def parse_pattern(self) -> model.PatternAssignment:
        consumed: set[str] = set()
        self.require_key("path", _PATTERN_KEYS, consumed)
        if self.at_keyword("unassigned"):
            self.advance()
            path = UNASSIGNED
        else:
            text, tok = self.string_value("pattern path")
            try:
                path = PatternPath.from_text(text)
            except InvalidNameError as exc:
                self.fail("E004", f"malformed pattern path: {exc}", tok)
        justifications = []
        while self.at_keyword("justify"):
            self.advance()
            element, element_tok = self.string_value("path element")
            if not path.unassigned and element not in path.elements:
                self.fail(
                    "E004",
                    f"justify names {element!r}, which is not on the path",
                    element_tok,
                )
            self.expect(TokenKind.COLON, "':'")
            rationale, _ = self.string_value("justification")
            justifications.append(model.Justification(element, rationale))
        self.end_block(_PATTERN_KEYS, consumed)
        return model.PatternAssignment(path=path, justifications=tuple(justifications))

    def parse_scenario(self) -> model.ApplicationScenario:
        consumed: set[str] = set()
        presence = self.presence_key(_SCENARIO_KEYS, consumed)
        purpose = None
        if self.take_key("purpose", consumed):
            purpose = self.enum_value(_PURPOSES, "purpose")
        shared = self.opt_shared(consumed)
        text = self.opt_text(consumed)
        self.end_block(_SCENARIO_KEYS, consumed)
        return model.ApplicationScenario(presence, purpose, shared, text)

    def parse_carrier(self) -> model.CarrierRequirements:
        consumed: set[str] = set()
        presence = self.presence_key(_CARRIER_KEYS, consumed)
        binding = model.CarrierBinding.unspecified()
        if self.take_key("binding", consumed):
            binding = self.parse_binding()
        conditions = []
        while self.at_keyword("condition"):
            self.advance()
            self.expect(TokenKind.COLON, "':'")
            consumed.add("condition")
            value, _ = self.string_value("condition")
            conditions.append(value)
        shared = self.opt_shared(consumed)
        text = self.opt_text(consumed)
        self.end_block(_CARRIER_KEYS, consumed)
        return model.CarrierRequirements(
            presence, binding, tuple(conditions), shared, text
        )

    def parse_binding(self) -> model.CarrierBinding:
        tok = self.cur
        if tok.kind is not TokenKind.KEYWORD:
            self.fail("E004", f"unknown enumeration token {tok.describe()} for binding")
        word = tok.text
        if word == "generic":
            self.advance()
            return model.CarrierBinding.generic()
        if word == "unspecified":
            self.advance()
            return model.CarrierBinding.unspecified()
        if word not in ("single-protocol", "protocol-set", "feature-based"):
            self.fail("E004", f"unknown enumeration token {word!r} for binding")
        self.advance()
        self.expect(TokenKind.LPAREN, "'('")
        names = [self.string_value("name")[0]]
        while self.cur.kind is TokenKind.COMMA:
            self.advance()
            names.append(self.string_value("name")[0])
        close = self.cur
        self.expect(TokenKind.RPAREN, "')'")
        if word == "single-protocol":
            if len(names) != 1:
                self.fail("E005", "single-protocol takes exactly one protocol", close)
            return model.CarrierBinding.single(names[0])
        if word == "protocol-set":
            if len(names) < 2:
                self.fail("E005", "protocol-set requires at least two protocols", close)
            return model.CarrierBinding.protocol_set(*names)
        return model.CarrierBinding.feature_based(*names)

    def parse_process(self):
        consumed: set[str] = set()
        self.require_block("sender", _PROCESS_KEYS, consumed)
        sender = self.parse_sender()
        self.require_block("receiver", _PROCESS_KEYS, consumed)
        receiver = self.parse_receiver()
        self.require_block("channel", _PROCESS_KEYS, consumed)
        channel = self.parse_channel()
        control = None
        if self.take_block("control-protocol", consumed):
            control = self.parse_control()
        self.end_block(_PROCESS_KEYS, consumed)
        return sender, receiver, channel, control

    def parse_sender(self) -> model.SenderProcess:
        consumed: set[str] = set()
        self.require_key("relation", _SENDER_KEYS, consumed)
        relation = self.enum_value(_RELATIONS, "relation")
        self.require_key("location", _SENDER_KEYS, consumed)
        location = self.enum_value(_LOCATIONS, "location")
        self.require_key("data-location", _SENDER_KEYS, consumed)
        data_location = self.enum_value(_LOCATIONS, "data-location")
        self.require_key("generates-cover", _SENDER_KEYS, consumed)
        generates = self.enum_value(_TRISTATES, "generates-cover")
        text = self.opt_text(consumed)
        self.end_block(_SENDER_KEYS, consumed)
        return model.SenderProcess(relation, location, data_location, generates, text)

    def parse_receiver(self) -> model.ReceiverProcess:
        consumed: set[str] = set()
        self.require_key("location", _RECEIVER_KEYS, consumed)
        location = self.enum_value(_LOCATIONS, "location")
        text = self.opt_text(consumed)
        self.end_block(_RECEIVER_KEYS, consumed)
        return model.ReceiverProcess(location, text)

    def parse_channel(self) -> model.ChannelProperties:
        consumed: set[str] = set()
        self.require_key("scenario", _CHANNEL_KEYS, consumed)
        self.expect(TokenKind.LBRACKET, "'['")
        scenarios: set[model.ChannelScenario] = set()
        while True:
            tok = self.cur
            scenario = self.enum_value(_SCENARIOS, "scenario")
            if scenario in scenarios:
                self.fail("E003", f"duplicate scenario {tok.text!r}", tok)
            scenarios.add(scenario)
            if self.cur.kind is TokenKind.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenKind.RBRACKET, "']'")
        self.require_key("directness", _CHANNEL_KEYS, consumed)
        directness = self.parse_directness()
        metrics = {}
        for name in ("bandwidth", "undetectability", "robustness", "cost"):
            self.require_block(name, _CHANNEL_KEYS, consumed)
            metrics[name] = self.parse_metric(name)
        self.end_block(_CHANNEL_KEYS, consumed)
        return model.ChannelProperties(
            scenarios=frozenset(scenarios),
            directness=directness,
            bandwidth=metrics["bandwidth"],
            undetectability=metrics["undetectability"],
            robustness=metrics["robustness"],
            cost=metrics["cost"],
        )

    def parse_directness(self) -> model.Directness:
        tok = self.cur
        if tok.kind is not TokenKind.KEYWORD or tok.text not in (
            "direct", "indirect", "unspecified",
        ):
            self.fail("E004", f"unknown enumeration token {tok.describe()} for directness")
        self.advance()
        if tok.text == "direct":
            return model.Directness.direct()
        if tok.text == "unspecified":
            return model.Directness.unspecified()
        self.expect(TokenKind.LPAREN, "'('")
        requirements, _ = self.string_value("intermediary requirements")
        self.expect(TokenKind.RPAREN, "')'")
        return model.Directness.indirect(requirements)

    def parse_metric(self, name: str) -> model.ChannelCharacteristic:
        consumed: set[str] = set()
        presence = self.presence_key(_METRIC_KEYS, consumed)
        value = None
        if self.take_key("value", consumed):
            value, _ = self.string_value("value")
        refers = False
        if self.at_keyword("ref"):
            ref_tok = self.cur
            self.advance()
            self.expect(TokenKind.COLON, "':'")
            consumed.add("ref")
            if not self.at_keyword("countermeasures"):
                self.fail("E004",
                          f"unknown enumeration token {self.cur.describe()} for ref")
            self.advance()
            if name != "undetectability":
                self.fail(
                    "E005",
                    "ref: countermeasures is only allowed on the undetectability metric",
                    ref_tok,
                )
            refers = True
        shared = self.opt_shared(consumed)
        text = self.opt_text(consumed)
        self.end_block(_METRIC_KEYS, consumed)
        return model.ChannelCharacteristic(presence, value, refers, shared, text)

    def parse_control(self) -> model.ControlProtocol:
        consumed: set[str] = set()
        presence = self.presence_key(_CONTROL_KEYS, consumed)
        features: set[model.ControlFeature] = set()
        while self.at_keyword("feature"):
            feature_tok = self.cur
            if presence is model.Presence.ABSENT:
                self.fail(
                    "E001",
                    "an absent control protocol cannot list features",
                    feature_tok,
                )
            self.advance()
            self.expect(TokenKind.COLON, "':'")
            consumed.add("feature")
            tok = self.cur
            feature = self.enum_value(_FEATURES, "feature")
            if feature in features:
                self.fail("E003", f"duplicate feature {tok.text!r}", tok)
            features.add(feature)
        text = self.opt_text(consumed)
        self.end_block(_CONTROL_KEYS, consumed)
        return model.ControlProtocol(presence, frozenset(features), text)

    def parse_countermeasures(self):
        consumed: set[str] = set()
        entries = []
        while self.at_keyword("entry"):
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            entries.append(self.parse_entry())
        warden = None
        if self.take_block("warden", consumed):
            warden = self.parse_warden()
        self.end_block(_COUNTERM_KEYS, consumed)
        return tuple(entries), warden

    def parse_entry(self) -> model.CountermeasureEntry:
        consumed: set[str] = set()
        self.require_key("type", _ENTRY_KEYS, consumed)
        kind = self.enum_value(_CM_KINDS, "type")
        self.require_key("applicability", _ENTRY_KEYS, consumed)
        applicability = self.enum_value(_APPLICABILITY, "applicability")
        self.require_key("evaluated", _ENTRY_KEYS, consumed)
        evaluated = self.enum_value(_BOOLS, "evaluated")
        limitations = None
        if self.take_key("limitations", consumed):
            limitations, _ = self.string_value("limitations")
        text = self.opt_text(consumed)
        self.end_block(_ENTRY_KEYS, consumed)
        return model.CountermeasureEntry(kind, applicability, evaluated, limitations, text)

    def parse_warden(self) -> model.WardenProfile:
        consumed: set[str] = set()
        self.require_key("placement", _WARDEN_KEYS, consumed)
        placement = self.enum_value(_LOCATIONS, "placement")
        self.require_key("state", _WARDEN_KEYS, consumed)
        state = self.enum_value(_WARDEN_STATES, "state")
        self.require_key("activity", _WARDEN_KEYS, consumed)
        activity = self.enum_value(_WARDEN_ACTIVITIES, "activity")
        self.end_block(_WARDEN_KEYS, consumed)
        return model.WardenProfile(placement, state, activity)

    # -- catalog grammar ----------------------------------------------------

    def parse_catalog_file(self) -> PatternCatalog:
        self._skip_version_header()
        if not self.at_keyword("catalog"):
            self.fail("E001", f"expected 'catalog', found {self.cur.describe()}")
        self.advance()
        label = None
        if self.cur.kind is TokenKind.STRING:
            label = str(self.advance().value)
        self.expect(TokenKind.LBRACE, "'{'")
        roots = self.parse_nodes(depth=1)
        self.expect(TokenKind.RBRACE, "'}'")
        self.expect(TokenKind.EOF, "end of input")
        return PatternCatalog(roots=roots, label=label)

    def parse_nodes(self, depth: int) -> tuple[PatternNode, ...]:
        if depth > _MAX_CATALOG_DEPTH:
            self.fail("E001", f"catalog nesting deeper than {_MAX_CATALOG_DEPTH}")
        nodes: list[PatternNode] = []
        seen: set[str] = set()
        while self.at_keyword("node"):
            self.advance()
            name, name_tok = self.string_value("node name")
            try:
                PatternNode(name)
            except InvalidNameError as exc:
                self.fail("E004", str(exc), name_tok)
            if name in seen:
                self.fail("E003", f"duplicate sibling node {name!r}", name_tok)
            seen.add(name)
            self.expect(TokenKind.LBRACE, "'{'")
            children = self.parse_nodes(depth + 1)
            self.expect(TokenKind.RBRACE, "'}'")
            nodes.append(PatternNode(name, children))
        return tuple(nodes)


def parse_description(
    text: str, file_name: str = "<input>"
) -> tuple[Document | None, list[Diagnostic]]:
    """Parse description text. Returns (document, []) or (None, diagnostics)."""
    try:
        return _Parser(text, file_name).parse_document(), []
    except _Fail as failure:
        return None, [failure.diagnostic]


def parse_catalog(
    text: str, file_name: str = "<input>"
) -> tuple[PatternCatalog | None, list[Diagnostic]]:
    """Parse catalog text. Returns (catalog, []) or (None, diagnostics)."""
    try:
        return _Parser(text, file_name).parse_catalog_file(), []
    except _Fail as failure:
        return None, [failure.diagnostic]


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


def _emit_metric(w: _Writer, name: str, metric: model.ChannelCharacteristic | None) -> None:
    if metric is None:
        raise ValueError(f"cannot serialize: metric block {name!r} is missing")
    w.open(name)
    w.line(f"status: {metric.presence.name.lower()}")
    if metric.value is not None:
        w.line(f"value: {_quote(metric.value)}")
    if metric.refers_to_countermeasures:
        w.line("ref: countermeasures")
    if metric.shared is not None:
        w.line(f"shared-with: {_quote(metric.shared.label)}")
    if metric.text is not None:
        w.line(f"text: {_quote(metric.text)}")
    w.close()


def _emit_method(w: _Writer, m: model.MethodDescription) -> None:
    w.open(f"method {_quote(m.name)}")
    if m.source is not None:
        w.line(f"source: {_quote(m.source)}")
    if m.year is not None:
        w.line(f"year: {m.year}")

    w.open("general")
    w.open("pattern")
    if m.pattern.path.unassigned:
        w.line("path: unassigned")
    else:
        w.line(f"path: {_quote(m.pattern.path.text)}")
    for j in m.pattern.justifications:
        w.line(f"justify {_quote(j.element)}: {_quote(j.rationale)}")
    w.close()
    if m.scenario is not None:
        w.open("application-scenario")
        w.line(f"status: {m.scenario.presence.name.lower()}")
        if m.scenario.purpose is not None:
            w.line(f"purpose: {m.scenario.purpose.value}")
        if m.scenario.shared is not None:
            w.line(f"shared-with: {_quote(m.scenario.shared.label)}")
        if m.scenario.text is not None:
            w.line(f"text: {_quote(m.scenario.text)}")
        w.close()
    w.open("carrier-requirements")
    w.line(f"status: {m.carrier.presence.name.lower()}")
    binding = m.carrier.binding
    if binding.kind is not model.BindingKind.UNSPECIFIED:
        if binding.kind is model.BindingKind.GENERIC:
            w.line("binding: generic")
        else:
            names = ", ".join(_quote(n) for n in binding.names)
            w.line(f"binding: {binding.kind.value}({names})")
    for condition in m.carrier.conditions:
        w.line(f"condition: {_quote(condition)}")
    if m.carrier.shared is not None:
        w.line(f"shared-with: {_quote(m.carrier.shared.label)}")
    if m.carrier.text is not None:
        w.line(f"text: {_quote(m.carrier.text)}")
    w.close()
    w.close()  # general

    w.open("process")
    w.open("sender")
    w.line(f"relation: {m.sender.relation.value}")
    w.line(f"location: {m.sender.location.value}")
    w.line(f"data-location: {m.sender.data_location.value}")
    w.line(f"generates-cover: {m.sender.generates_cover.value}")
    if m.sender.text is not None:
        w.line(f"text: {_quote(m.sender.text)}")
    w.close()
    w.open("receiver")
    w.line(f"location: {m.receiver.location.value}")
    if m.receiver.text is not None:
        w.line(f"text: {_quote(m.receiver.text)}")
    w.close()
    w.open("channel")
    names = [s.value for s in model.ChannelScenario if s in m.channel.scenarios]
    w.line(f"scenario: [{', '.join(names)}]")
    directness = m.channel.directness
    if directness.kind is model.DirectnessKind.INDIRECT:
        w.line(f"directness: indirect({_quote(directness.requirements)})")
    else:
        w.line(f"directness: {directness.kind.value}")
    _emit_metric(w, "bandwidth", m.channel.bandwidth)
    _emit_metric(w, "undetectability", m.channel.undetectability)
    _emit_metric(w, "robustness", m.channel.robustness)
    _emit_metric(w, "cost", m.channel.cost)
    w.close()
    if m.control_protocol is not None:
        w.open("control-protocol")
        w.line(f"status: {m.control_protocol.presence.name.lower()}")
        for feature in model.ControlFeature:
            if feature in m.control_protocol.features:
                w.line(f"feature: {feature.value}")
        if m.control_protocol.text is not None:
            w.line(f"text: {_quote(m.control_protocol.text)}")
        w.close()
    w.close()  # process

    w.open("countermeasures")
    for entry in m.countermeasures:
        w.open("entry")
        w.line(f"type: {entry.kind.value}")
        w.line(f"applicability: {entry.applicability.value}")
        w.line(f"evaluated: {'true' if entry.evaluated else 'false'}")
        if entry.limitations is not None:
            w.line(f"limitations: {_quote(entry.limitations)}")
        if entry.text is not None:
            w.line(f"text: {_quote(entry.text)}")
        w.close()
    if m.warden is not None:
        w.open("warden")
        w.line(f"placement: {m.warden.placement.value}")
        w.line(f"state: {m.warden.state.value}")
        w.line(f"activity: {m.warden.activity.value}")
        w.close()
    w.close()  # countermeasures

    w.close()  # method


def serialize(doc: Document) -> str:
    """Canonical text for a document; the empty document serializes to ""."""
    if not doc.methods:
        return ""
    w = _Writer()
    for i, method in enumerate(doc.methods):
        if i:
            w.line("")
        _emit_method(w, model.normalize(method))
    return "\n".join(w.lines) + "\n"


def serialize_catalog(catalog: PatternCatalog) -> str:
    """Canonical text for a catalog file."""
    header = "catalog" if catalog.label is None else f"catalog {_quote(catalog.label)}"
    if catalog.is_empty:
        return header + " {}\n"
    w = _Writer()
    w.open(header)

    def emit(node: PatternNode) -> None:
        if node.is_leaf:
            w.line(f"node {_quote(node.name)} {{}}")
            return
        w.open(f"node {_quote(node.name)}")
        for child in node.children:
            emit(child)
        w.close()

    for root in catalog.roots:
        emit(root)
    w.close()
    return "\n".join(w.lines) + "\n"
