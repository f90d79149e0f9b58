"""Lexing, parsing, diagnostics and the canonical serializer."""

import hashlib
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nihdl import dsl, model
from nihdl.diagnostics import Severity
from nihdl.taxonomy import (
    PatternCatalog,
    PatternNode,
    PatternPath,
    ResolutionKind,
    list_leaves,
    resolve_path,
    seed_catalog,
)

from conftest import CATALOG_FILE, DHCP_FILE, GAP_FILE, GOLDEN, JOINT_FILE, SYNTHETIC_DIR
from randgen import document


def codes(diags):
    return [d.code for d in diags]


class TestParseDescription:
    def test_gap_fixture(self):
        doc, diags = dsl.parse_description(GAP_FILE.read_text(), str(GAP_FILE))
        assert diags == []
        assert len(doc.methods) == 1
        assert doc.methods[0].name == "Model-based inter-packet gap channel"

    def test_empty_input(self):
        doc, diags = dsl.parse_description("", "empty")
        assert diags == []
        assert doc.methods == ()

    def test_comment_only_input(self):
        doc, diags = dsl.parse_description("# nothing here\n", "c")
        assert doc.methods == ()

    def test_version_header_accepted(self):
        doc, diags = dsl.parse_description('nihdl-version 1\n', "v")
        assert diags == [] and doc.methods == ()

    def test_unexpected_end_of_input(self):
        doc, diags = dsl.parse_description('method "x" {', "t")
        assert doc is None
        assert codes(diags) == ["E001"]
        assert "end of input" in diags[0].message
        # Position points at the end of the single-line input.
        assert diags[0].location.line == 1
        assert diags[0].location.column == len('method "x" {') + 1

    def test_unknown_relation_token(self):
        text = GAP_FILE.read_text().replace("relation: 1:1", "relation: 2:2")
        doc, diags = dsl.parse_description(text, "t")
        assert doc is None
        assert codes(diags) == ["E004"]

    def test_unterminated_string(self):
        doc, diags = dsl.parse_description('method "x\n', "t")
        assert codes(diags) == ["E002"]

    def test_duplicate_key(self):
        text = GAP_FILE.read_text().replace(
            'source: "gianvecchio2008"',
            'source: "gianvecchio2008"\n  source: "again"',
        )
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E003"]

    def test_missing_required_key(self):
        text = GAP_FILE.read_text().replace("      relation: 1:1\n", "")
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E005"]
        assert "relation" in diags[0].message

    def test_missing_metric_block(self):
        text = GAP_FILE.read_text()
        start = text.index("      robustness {")
        end = text.index("      cost {")
        doc, diags = dsl.parse_description(text[:start] + text[end:], "t")
        assert codes(diags) == ["E005"]
        assert "robustness" in diags[0].message

    def test_key_before_a_due_required_key_is_out_of_order(self):
        text = GAP_FILE.read_text().replace(
            '  source: "gianvecchio2008"\n  year: 2008\n',
            '  year: 2008\n  source: "gianvecchio2008"\n',
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:3:3: E001 error key 'source' out of canonical order"
        ]

    def test_repeated_key_after_a_later_key_is_out_of_order(self):
        """A repeated key may appear any number of times, so it is never a
        duplicate; after a later key of its block it is out of order."""
        lines = GAP_FILE.read_text().splitlines(keepends=True)
        assert lines[19].lstrip().startswith("text:")  # after the last condition
        lines[18:20] = lines[19], lines[18]
        text = "".join(lines)
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:20:7: E001 error key 'condition' out of canonical order"
        ]

    def test_unknown_enum_value(self):
        text = GAP_FILE.read_text().replace("status: full", "status: yes", 1)
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E004"]

    @pytest.mark.parametrize("old, new, message", [
        ('method "Model-based inter-packet gap channel"', '"method" "m"',
         "t:1:1: E001 error expected 'method', found '\"method\"'"),
        ("year: 2008", 'year: "2008"', "t:3:9: E001 error expected year, found '\"2008\"'"),
        ("status: full", 'status: "full"',
         "t:11:15: E004 error unknown enumeration token '\"full\"' for status"),
    ], ids=["keyword", "integer", "enumeration"])
    def test_a_string_token_is_named_with_its_quotes(self, old, new, message):
        doc, diags = dsl.parse_description(GAP_FILE.read_text().replace(old, new, 1), "t")
        assert [d.render() for d in diags] == [message]

    def test_year_out_of_range(self):
        text = GAP_FILE.read_text().replace("year: 2008", "year: 1492")
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:3:9: E004 error year out of range 1980-2100: 1492"
        ]

    def test_justify_must_match_path(self):
        text = GAP_FILE.read_text().replace(
            'justify "Inter-arrival Time Pattern"', 'justify "Bogus Element"'
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:8:15: E004 error justify names 'Bogus Element', which is not on the path"
        ]

    def test_ref_only_on_undetectability(self):
        """The channel refuses the ref of its bandwidth metric, so the fault
        is reported at the `channel` key."""
        text = GAP_FILE.read_text().replace(
            'value: "5-20 bits per second"',
            'value: "5-20 bits per second"\n        ref: countermeasures',
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:35:5: E005 error ref: countermeasures is only allowed on the "
            "undetectability metric"
        ]

    def test_empty_shared_label(self):
        text = JOINT_FILE.read_text().replace(
            'shared-with: "pervasive-eval"', 'shared-with: ""', 1
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:9:20: E004 error shared-with label must be non-empty"
        ]

    def test_empty_method_name(self):
        """The method is built, and its name refused, once its block closes,
        so a fault inside the block is reported first."""
        text = GAP_FILE.read_text().replace(
            'method "Model-based inter-packet gap channel"', 'method ""'
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:1:8: E004 error method name must be non-empty"
        ]
        text = text.replace("year: 2008", "year: 1492")
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:3:9: E004 error year out of range 1980-2100: 1492"
        ]

    def test_absent_control_protocol_rejects_features(self):
        """The absent-protocol check comes before the colon is expected."""
        for line in ("feature: reliability", "feature reliability", "feature"):
            text = GAP_FILE.read_text().replace(
                "status: absent\n      text: \"Only the encoding",
                f"status: absent\n      {line}\n      text: \"Only the encoding",
            )
            doc, diags = dsl.parse_description(text, "t")
            assert [d.render() for d in diags] == [
                "t:59:7: E001 error an absent control protocol cannot list features"
            ], line

    def test_duplicate_scenario_entry(self):
        text = GAP_FILE.read_text().replace(
            "[end-to-end, mitm, hybrid]", "[end-to-end, end-to-end]"
        )
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E003"]

    def test_protocol_set_needs_two_names(self):
        text = DHCP_FILE.read_text().replace(
            'binding: single-protocol("DHCP")', 'binding: protocol-set("DHCP")'
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:19:35: E005 error protocol-set requires at least two protocols"
        ]

    def test_single_protocol_takes_one_name(self):
        text = DHCP_FILE.read_text().replace(
            'binding: single-protocol("DHCP")', 'binding: single-protocol("a", "b")'
        )
        doc, diags = dsl.parse_description(text, "t")
        assert [d.render() for d in diags] == [
            "t:19:40: E005 error single-protocol takes exactly one protocol"
        ]

    def test_crlf_input_accepted(self):
        text = GAP_FILE.read_text().replace("\n", "\r\n")
        doc, diags = dsl.parse_description(text, "t")
        assert diags == [] and len(doc.methods) == 1

    def test_leading_bom_accepted(self):
        doc, diags = dsl.parse_description("﻿" + GAP_FILE.read_text(), "t")
        assert diags == [] and len(doc.methods) == 1

    def test_duplicate_method_names_parse(self):
        # Duplicate names are a validation finding (E150), not a parse error.
        body = GAP_FILE.read_text()
        doc, diags = dsl.parse_description(body + "\n" + body, "t")
        assert diags == []
        assert len(doc.methods) == 2

    def test_escapes_decoded(self):
        text = GAP_FILE.read_text().replace(
            'source: "gianvecchio2008"', r'source: "a \"quoted\" \\ name"'
        )
        doc, diags = dsl.parse_description(text, "t")
        assert diags == []
        assert doc.methods[0].source == 'a "quoted" \\ name'


_BAD_AT = "unexpected character '@'"
_HUGE = "9" * 5000  # more digits than int() reads


@pytest.mark.parametrize("text, code, message, line, column", [
    ("\t@", "E001", _BAD_AT, 1, 2),
    ("# note @ here\n  @", "E001", _BAD_AT, 2, 3),
    ("nihdl-version 1\r\n# comment\r\n\r\n   @", "E001", _BAD_AT, 4, 4),
    ("\ufeffmethod @", "E001", _BAD_AT, 1, 8),
    ('method "abc\n" {', "E002", "unterminated string", 1, 8),
    ('\n  method "abc', "E002", "unterminated string", 2, 10),
    ('method "abc\\"', "E002", "unterminated string", 1, 8),
    ('method "a\rb" {', "E002", "unterminated string", 1, 8),
    ('method "a\\\rb" {', "E002", "unterminated string", 1, 8),
    ('method "x" {\n  source: "s"', "E001", "unexpected end of input", 2, 14),
    ('method "x" {\n  source: "s"\n', "E001", "unexpected end of input", 3, 1),
    (f'method "x" {{ year: {_HUGE} }}', "E004",
     f"year out of range 1980-2100: {_HUGE}", 1, 20),
    (f"\n {_HUGE}", "E001", f"expected 'method', found '{_HUGE}'", 2, 2),
    ('method "x" { bogus: 1 } @', "E001", _BAD_AT, 1, 25),
    ('method "x" {\n  bogus: 1\n}\n"abc', "E002", "unterminated string", 4, 1),
], ids=[
    "after-tab", "after-comment", "after-crlf-lines", "after-bom",
    "string-cut-by-newline", "string-cut-by-end", "string-cut-after-escaped-quote",
    "string-cut-by-lone-cr", "string-cut-by-cr-after-backslash",
    "end-of-input", "end-of-input-after-newline", "huge-year", "huge-stray-integer",
    "bad-character-after-unknown-key", "string-cut-by-end-after-unknown-key",
])
def test_lexer_diagnostic_location(text, code, message, line, column):
    doc, diags = dsl.parse_description(text, "t")
    assert doc is None
    assert [(d.code, d.message, d.location.line, d.location.column) for d in diags] == [
        (code, message, line, column)
    ]


_KIND_NAMES = {"{": "LBRACE", "}": "RBRACE", "[": "LBRACKET", "]": "RBRACKET",
               "(": "LPAREN", ")": "RPAREN", ":": "COLON", ",": "COMMA",
               "string": "STRING", "integer": "INT", "keyword": "KEYWORD",
               "relation": "RELATION", "end of input": "EOF"}


def _token_rows(parser):
    """(kind, text, offset) of each token through end of input, a string's
    text decoded, from the raw texts and ``offset`` of ``parser``."""
    rows = []
    for at, raw in enumerate(parser.texts):
        kind = dsl._kind(raw)
        rows.append((kind, dsl._unquote(raw) if kind == "string" else raw, parser.offset(at)))
        if kind == dsl._END:
            return rows


@pytest.mark.parametrize("text, tokens", [
    ("\r1\r", [("INT", "1", 1, 2, 1), ("EOF", "", 1, 4, None)]),
    ("1:1", [("RELATION", "1:1", 1, 1, None), ("EOF", "", 1, 4, None)]),
    ("1:1x", [("INT", "1", 1, 1, 1), ("COLON", ":", 1, 2, None),
              ("INT", "1", 1, 3, 1), ("KEYWORD", "x", 1, 4, None),
              ("EOF", "", 1, 5, None)]),
    ("12abc", [("INT", "12", 1, 1, 12), ("KEYWORD", "abc", 1, 3, None),
               ("EOF", "", 1, 6, None)]),
    (r'"a\"b" "c\\d"', [("STRING", 'a"b', 1, 1, 'a"b'),
                        ("STRING", "c\\d", 1, 8, "c\\d"), ("EOF", "", 1, 14, None)]),
    (r'"\q\\\n\x" x', [("STRING", "\\q\\\\n\\x", 1, 1, "\\q\\\\n\\x"),
                       ("KEYWORD", "x", 1, 12, None), ("EOF", "", 1, 13, None)]),
    ("status:", [("KEYWORD", "status", 1, 1, None), ("COLON", ":", 1, 7, None),
                 ("EOF", "", 1, 8, None)]),
    ("general \t{", [("KEYWORD", "general", 1, 1, None), ("LBRACE", "{", 1, 10, None),
                     ("EOF", "", 1, 11, None)]),
    ("key # c\n:", [("KEYWORD", "key", 1, 1, None), ("COLON", ":", 2, 1, None),
                    ("EOF", "", 2, 2, None)]),
    ("key\n{", [("KEYWORD", "key", 1, 1, None), ("LBRACE", "{", 2, 1, None),
                ("EOF", "", 2, 2, None)]),
    ("n :1", [("KEYWORD", "n", 1, 1, None), ("COLON", ":", 1, 3, None),
              ("INT", "1", 1, 4, 1), ("EOF", "", 1, 5, None)]),
    ("n:x", [("KEYWORD", "n", 1, 1, None), ("COLON", ":", 1, 2, None),
             ("KEYWORD", "x", 1, 3, None), ("EOF", "", 1, 4, None)]),
    ("1:1:", [("INT", "1", 1, 1, 1), ("COLON", ":", 1, 2, None),
              ("INT", "1", 1, 3, 1), ("COLON", ":", 1, 4, None), ("EOF", "", 1, 5, None)]),
    ("catalog {", [("KEYWORD", "catalog", 1, 1, None), ("LBRACE", "{", 1, 9, None),
                   ("EOF", "", 1, 10, None)]),
    (r'"a\"b":', [("STRING", 'a"b', 1, 1, 'a"b'), ("COLON", ":", 1, 7, None),
                  ("EOF", "", 1, 8, None)]),
    # Keywords not starting with `n` are tried before relations, the rest after.
    ("n:m", [("RELATION", "n:m", 1, 1, None), ("EOF", "", 1, 4, None)]),
    ("n:1", [("RELATION", "n:1", 1, 1, None), ("EOF", "", 1, 4, None)]),
    ("n:mx", [("KEYWORD", "n", 1, 1, None), ("COLON", ":", 1, 2, None),
              ("KEYWORD", "mx", 1, 3, None), ("EOF", "", 1, 5, None)]),
    ("nm:1", [("KEYWORD", "nm", 1, 1, None), ("COLON", ":", 1, 3, None),
              ("INT", "1", 1, 4, 1), ("EOF", "", 1, 5, None)]),
    ("node not-applicable", [("KEYWORD", "node", 1, 1, None),
                             ("KEYWORD", "not-applicable", 1, 6, None),
                             ("EOF", "", 1, 20, None)]),
    ("N:1", [("KEYWORD", "N", 1, 1, None), ("COLON", ":", 1, 2, None),
             ("INT", "1", 1, 3, 1), ("EOF", "", 1, 4, None)]),
    ("m:1", [("KEYWORD", "m", 1, 1, None), ("COLON", ":", 1, 2, None),
             ("INT", "1", 1, 3, 1), ("EOF", "", 1, 4, None)]),
], ids=["lone-cr-is-blank", "relation", "relation-prefix-then-word",
        "int-then-keyword", "escapes", "backslash-before-other-is-literal",
        "key-then-colon", "key-then-blanks-then-brace", "comment-between-key-and-colon",
        "newline-between-key-and-brace", "relation-cut-by-blank", "relation-cut-by-word",
        "relation-then-colon", "catalog-brace", "string-then-colon",
        "n-relation", "n-one-relation", "n-relation-prefix-then-word",
        "n-word-then-colon", "n-keywords", "capital-n-is-a-keyword", "m-is-a-keyword"])
def test_lexer_tokens(text, tokens):
    parser = dsl._Parser(text, "t")
    rows = []
    for kind, word, offset in _token_rows(parser):
        loc = parser.locate(offset)
        value = int(word) if kind == "integer" else word if kind == "string" else None
        rows.append((_KIND_NAMES[kind], word, loc.line, loc.column, value))
    assert rows == tokens


def test_token_offsets_do_not_depend_on_the_order_asked():
    """Offsets are summed on from the last token asked for: asked in
    reverse and in shuffled order, each token's is the one asked in order,
    and the text holds the raw token there."""
    rng = random.Random(27)
    for path in sorted(SYNTHETIC_DIR.rglob("*.nih[dc]")):
        parser = dsl._Parser(path.read_text(encoding="utf-8"), path.name)
        count = parser.texts.index("") + 1
        in_order = [parser.offset(at) for at in range(count)]
        shuffled = list(range(count))
        rng.shuffle(shuffled)
        for order in (range(count - 1, -1, -1), shuffled):
            assert {at: parser.offset(at) for at in order} == dict(enumerate(in_order))
        assert all(parser.source.startswith(parser.texts[at], offset)
                   for at, offset in enumerate(in_order))
        assert in_order[-1] == len(parser.source)


# Pieces of random lexer input: every character the token rules treat
# apart, and keys of both grammars, so a key often meets its opener. Odd
# pieces end the lexing, so they are drawn one time in twenty.
_EDGE_PIECES = [" ", "\t", "\n", "\r", "\r\n", "# c\n", ":", "{", "}", "[", "]", "(", ")",
                ",", '"a"', '"\\""', "0", "1", "n", "m", "x", "-", "method", "status",
                "general", "pattern", "path", "justify", "feature", "full", "catalog", "node"]
_ODD_PIECES = ['"', "\\", "_", "\xe9", "#"]
_EDGE_PREFIXES = ["", 'method "m" {\n', 'method "m" {\n general {\n  pattern {\n   path: "A / B"\n']


def test_token_stream_of_random_edge_strings_is_pinned():
    """4,000 seeded strings of edge pieces, most inside a method block: a
    digest over each one's token lists, or its lexical diagnostic, and the
    first diagnostic of parsing it as a description."""
    rng = random.Random(1212)
    digest = hashlib.sha256()
    for i in range(4000):
        text = _EDGE_PREFIXES[i % 3] + "".join(
            rng.choice(_EDGE_PIECES if rng.random() < 0.95 else _ODD_PIECES)
            for _ in range(rng.randint(1, 16)))
        try:
            parser = dsl._Parser(text, "r")
            tokens = repr(tuple(map(list, zip(*_token_rows(parser)))))
        except dsl._Fail as failure:
            tokens = failure.diagnostic.render()
        _, diags = dsl.parse_description(text, "r")
        digest.update(f"{tokens}\n{diags[0].render() if diags else 'parses'}\n".encode())
    assert digest.hexdigest() == (
        "08951655c515811b135fa287b5de1159ae8950696214f896ab94b236bf54f7a9")


def _chain_catalog(levels):
    """A catalog of one chain of nodes named "a", one line per node."""
    return "catalog {\n" + 'node "a" {\n' * levels + "}\n" * levels + "}\n"


class TestParseCatalog:
    def test_seed_catalog_file(self):
        catalog, diags = dsl.parse_catalog(CATALOG_FILE.read_text(), str(CATALOG_FILE))
        assert diags == []
        for leaf in list_leaves(seed_catalog()):
            assert resolve_path(catalog, leaf).kind is ResolutionKind.LEAF

    def test_empty_catalog_parses(self):
        catalog, diags = dsl.parse_catalog("catalog { }", "t")
        assert diags == []
        assert catalog.is_empty

    def test_duplicate_sibling(self):
        catalog, diags = dsl.parse_catalog(
            'catalog { node "A" {} node "A" {} }', "t"
        )
        assert catalog is None
        assert codes(diags) == ["E003"]

    def test_huge_version_number_is_skipped(self):
        catalog, diags = dsl.parse_catalog(f"nihdl-version {_HUGE} catalog {{}}", "t")
        assert diags == [] and catalog.is_empty

    def test_label(self):
        catalog, _ = dsl.parse_catalog('catalog "mine" { node "A" {} }', "t")
        assert catalog.label == "mine"

    def test_sixty_four_levels_parse(self):
        catalog, diags = dsl.parse_catalog(_chain_catalog(64), "t")
        assert diags == []
        assert resolve_path(catalog, PatternPath(("a",) * 64)).kind is ResolutionKind.LEAF

    def test_sixty_fifth_level_fails_at_its_node(self):
        catalog, diags = dsl.parse_catalog(_chain_catalog(65), "t")
        assert catalog is None
        assert [d.render() for d in diags] == [
            "t:66:1: E001 error catalog nesting deeper than 64"
        ]

    def test_nesting_cap(self):
        text = "catalog { " + 'node "a" { ' * 80 + "} " * 80 + " }"
        catalog, diags = dsl.parse_catalog(text, "t")
        assert catalog is None
        assert codes(diags) == ["E001"]

    def test_description_fed_to_catalog_parser(self):
        catalog, diags = dsl.parse_catalog(GAP_FILE.read_text(), "t")
        assert catalog is None and codes(diags) == ["E001"]


class TestSerialize:
    def test_empty_document(self):
        assert dsl.serialize(dsl.Document()) == ""

    def test_fixture_files_are_canonical(self):
        for path in (GAP_FILE, DHCP_FILE):
            text = path.read_text()
            doc, _ = dsl.parse_description(text, str(path))
            assert dsl.serialize(doc) == text

    def test_dhcp_golden(self, dhcp_doc):
        golden = (GOLDEN / "dhcp_options.canonical.nihd").read_text()
        assert dsl.serialize(dhcp_doc) == golden

    def test_canonical_idempotence(self, gap_doc):
        once = dsl.serialize(gap_doc)
        doc2, _ = dsl.parse_description(once, "t")
        assert dsl.serialize(doc2) == once

    def test_strings_must_be_single_line(self, gap_doc):
        import dataclasses
        bad = dataclasses.replace(gap_doc.methods[0], source="two\nlines")
        with pytest.raises(ValueError):
            dsl.serialize(dsl.Document(methods=(bad,)))

    def test_missing_metric_block_is_refused(self, gap_doc):
        import dataclasses
        method = gap_doc.methods[0]
        bad = dataclasses.replace(
            method, channel=dataclasses.replace(method.channel, bandwidth=None))
        with pytest.raises(ValueError,
                           match="^cannot serialize: block 'bandwidth' is missing$"):
            dsl.serialize(dsl.Document(methods=(bad,)))

    def test_serialized_bytes_are_pinned(self):
        """A digest over the text of 500 seeded random documents, which
        reach wardens, every binding and directness form, `ref` and
        `shared-with`, then of three catalogs: unlabelled and empty,
        labelled and empty, and one quoting its label with a leaf root and
        a chain."""
        rng = random.Random(2020)
        digest = hashlib.sha256()
        for _ in range(500):
            digest.update(dsl.serialize(document(rng)).encode())
        chain = PatternNode("B", (PatternNode("C", (PatternNode("D"),)),))
        for catalog in (PatternCatalog(), PatternCatalog(label="x"),
                        PatternCatalog(roots=(PatternNode("A"), chain), label='q"\\')):
            digest.update(dsl.serialize_catalog(catalog).encode())
        assert digest.hexdigest() == (
            "63bca70b5c1c68bcba5d16cd6d3eb58cd76fa226dce1072cfc4195d4d9837661")

    def test_catalog_round_trip(self):
        text = dsl.serialize_catalog(seed_catalog())
        catalog, diags = dsl.parse_catalog(text, "t")
        assert diags == []
        assert catalog == seed_catalog()

    def test_synthetic_corpus_regenerates(self, tmp_path):
        tool = Path(__file__).parent.parent / "tools" / "make_synthetic_corpus.py"
        subprocess.run([sys.executable, str(tool), "--root", str(tmp_path)],
                       check=True, capture_output=True)

        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        assert files(tmp_path) == files(SYNTHETIC_DIR)


def _sequencing_mutants():
    """Every line of each description fixture deleted, duplicated, and
    swapped with the next line, each yielded with a label."""
    for path in (GAP_FILE, DHCP_FILE, JOINT_FILE):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i in range(len(lines)):
            where = f"{path.name}:{i + 1}"
            yield f"{where} delete", lines[:i] + lines[i + 1:]
            yield f"{where} duplicate", lines[:i + 1] + lines[i:]
            if i + 1 < len(lines):
                yield f"{where} swap", lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]


def test_key_sequencing_golden():
    """Whole-line mutants pin the E001/E003/E005 choice for keys that are
    missing, repeated or out of order; whatever parses round-trips."""
    rendered = []
    for label, lines in _sequencing_mutants():
        doc, diags = dsl.parse_description("".join(lines), "m")
        if doc is None:
            rendered.extend(f"{label}: {d.render()}" for d in diags)
            continue
        rendered.append(f"{label}: parses")
        again, diags = dsl.parse_description(dsl.serialize(doc), "again")
        assert diags == [] and again == dsl.Document(tuple(map(model.normalize, doc.methods))), label
    golden = (GOLDEN / "sequencing.txt").read_text(encoding="utf-8")
    assert "\n".join(rendered) + "\n" == golden


def _plain_value_mutants():
    """Each `key: value` line whose key the block table reads as a plain
    enumeration or string, in both fixtures, with its value replaced by a
    foreign keyword, by a token of the wrong kind and by `}`, and the text
    cut off right after the colon; each yielded with a label."""
    for path in (GAP_FILE, GOLDEN / "dhcp_options.canonical.nihd"):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        blocks = []  # the blocks open at the line
        for i, line in enumerate(lines):
            words = line.split()
            if words[0] == "method":
                blocks.append(dsl._METHOD)
                continue
            if words == ["}"]:
                blocks.pop()
                continue
            key = next(k for k in blocks[-1].keys if k.name == words[0].rstrip(":"))
            if words[-1] == "{":
                blocks.append(key.kind)
                continue
            if type(key.kind) not in (dsl._Enum, dsl._String):
                continue
            head = line[:line.index(":") + 1]
            wrong = "7" if type(key.kind) is dsl._String else f'"{words[1]}"'
            where = f"{path.name}:{i + 1} {key.name}"
            before, after = "".join(lines[:i]), "".join(lines[i + 1:])
            for case, value in (("foreign", "method"), ("kind", wrong), ("brace", "}")):
                yield f"{where} {case}", f"{before}{head} {value}\n{after}"
            yield f"{where} cut", before + head


def test_plain_value_diagnostics_golden():
    """The diagnostic at every plain enumeration or string value, pinned
    for values of a foreign keyword, of the wrong kind, a closing brace, or
    an end of input."""
    rendered = []
    for label, text in _plain_value_mutants():
        doc, diags = dsl.parse_description(text, "m")
        assert doc is None, label
        rendered.extend(f"{label}: {d.render()}" for d in diags)
    golden = (GOLDEN / "plain_values.txt").read_text(encoding="utf-8")
    assert "\n".join(rendered) + "\n" == golden


class TestRoundTripProperty:
    def test_random_documents(self):
        rng = random.Random(2024)
        for _ in range(150):
            doc = document(rng)
            text = dsl.serialize(doc)
            parsed, diags = dsl.parse_description(text, "gen")
            assert parsed is not None, [d.render() for d in diags]
            assert parsed == dsl.Document(tuple(map(model.normalize, doc.methods)))
            assert dsl.serialize(parsed) == text


class TestParserTotality:
    def test_mutated_fixtures_never_crash(self):
        rng = random.Random(99)
        base = GAP_FILE.read_text().encode()
        for _ in range(400):
            data = bytearray(base)
            for _ in range(rng.randint(1, 8)):
                op = rng.randrange(3)
                pos = rng.randrange(len(data))
                if op == 0:
                    data[pos] = rng.randrange(256)
                elif op == 1:
                    del data[pos]
                else:
                    data.insert(pos, rng.randrange(256))
            text = data.decode("utf-8", errors="replace")
            doc, diags = dsl.parse_description(text, "fuzz")
            assert (doc is None) == bool(diags)

    def test_diagnostics_within_input_bounds(self):
        rng = random.Random(100)
        base = DHCP_FILE.read_text()
        for _ in range(200):
            pos = rng.randrange(len(base))
            text = base[:pos] + rng.choice("}{[]():,\"#xyz@") + base[pos:]
            doc, diags = dsl.parse_description(text, "fuzz")
            lines = text.replace("\r\n", "\n").split("\n")
            for diag in diags:
                assert diag.severity is Severity.ERROR
                loc = diag.location
                assert loc is not None
                assert 1 <= loc.line <= len(lines)
                assert 1 <= loc.column <= len(lines[loc.line - 1]) + 1


# Inputs whose parse time could turn super-linear: (parse, head, unit,
# tail), the unit repeated to fill the size.
_GROWING_SHAPES = {
    "a run of {": (dsl.parse_description, "", "{", ""),
    "an unterminated string of \\a escapes": (dsl.parse_description, 'method "', "\\a", ""),
    "repeated source keys": (dsl.parse_description, 'method "m" {\n', 'source: "s"\n', "}\n"),
    "a huge year": (dsl.parse_description, 'method "m" {\n  year: ', "9", "\n}\n"),
    "nested catalog nodes": (dsl.parse_catalog, 'catalog "c" {\n', 'node "a" {\n', ""),
    "a long method name": (dsl.parse_description, 'method "', "a", '" {\n}\n'),
    "comment lines": (dsl.parse_description, "", "# a comment line\n", ""),
    "a long method body ending in a bad character": (
        dsl.parse_description,
        'method "m" {\n  general {\n    pattern {\n      path: "A / B"\n    }\n'
        '    carrier-requirements {\n      status: full\n',
        '      condition: "a condition"\n', "@"),
    "trailing blanks": (dsl.parse_description, 'method "m" {\n', " ", ""),
    "many countermeasure entries": (
        dsl.parse_description, GAP_FILE.read_text(encoding="utf-8").split("    entry {")[0],
        "    entry {\n      type: detection\n      applicability: applicable\n"
        "      evaluated: true\n    }\n", "  }\n}\n"),
}


def test_parse_time_is_linear_in_the_input():
    """Each shape parsed at 32k and 256k characters, min of 3: linear time
    gives a ratio of 8, quadratic 64."""
    def seconds(parse, head, unit, tail, size):
        text = head + unit * ((size - len(head) - len(tail)) // len(unit)) + tail
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse(text, "t")
            times.append(time.perf_counter() - start)
        return min(times)

    ratios = {name: seconds(*shape, 256_000) / seconds(*shape, 32_000)
              for name, shape in _GROWING_SHAPES.items()}
    assert max(ratios.values()) < 32, ratios
