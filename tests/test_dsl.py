"""Lexing, parsing, diagnostics and the canonical serializer."""

import random

import pytest

from nihdl import dsl
from nihdl.diagnostics import Severity
from nihdl.taxonomy import ResolutionKind, list_leaves, resolve_path, seed_catalog

from conftest import CATALOG_FILE, DHCP_FILE, GAP_FILE, GOLDEN
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

    def test_unknown_enum_value(self):
        text = GAP_FILE.read_text().replace("status: full", "status: yes", 1)
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E004"]

    def test_year_out_of_range(self):
        text = GAP_FILE.read_text().replace("year: 2008", "year: 1492")
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E004"]

    def test_justify_must_match_path(self):
        text = GAP_FILE.read_text().replace(
            'justify "Inter-arrival Time Pattern"', 'justify "Bogus Element"'
        )
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E004"]

    def test_ref_only_on_undetectability(self):
        text = GAP_FILE.read_text().replace(
            'value: "5-20 bits per second"',
            'value: "5-20 bits per second"\n        ref: countermeasures',
        )
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E005"]

    def test_absent_control_protocol_rejects_features(self):
        text = GAP_FILE.read_text().replace(
            "status: absent\n      text: \"Only the encoding",
            "status: absent\n      feature: reliability\n      text: \"Only the encoding",
        )
        doc, diags = dsl.parse_description(text, "t")
        assert codes(diags) == ["E001"]

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
        assert codes(diags) == ["E005"]

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
], ids=[
    "after-tab", "after-comment", "after-crlf-lines", "after-bom",
    "string-cut-by-newline", "string-cut-by-end", "string-cut-after-escaped-quote",
    "string-cut-by-lone-cr", "string-cut-by-cr-after-backslash",
    "end-of-input", "end-of-input-after-newline",
])
def test_lexer_diagnostic_location(text, code, message, line, column):
    doc, diags = dsl.parse_description(text, "t")
    assert doc is None
    assert [(d.code, d.message, d.location.line, d.location.column) for d in diags] == [
        (code, message, line, column)
    ]


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
], ids=["lone-cr-is-blank", "relation", "relation-prefix-then-word",
        "int-then-keyword", "escapes", "backslash-before-other-is-literal"])
def test_lexer_tokens(text, tokens):
    parser = dsl._Parser(text, "t")
    located = [(t, parser.locate(t.offset)) for t in parser.tokens]
    assert [(t.kind.name, t.text, loc.line, loc.column, t.value)
            for t, loc in located] == tokens


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

    def test_label(self):
        catalog, _ = dsl.parse_catalog('catalog "mine" { node "A" {} }', "t")
        assert catalog.label == "mine"

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

    def test_catalog_round_trip(self):
        text = dsl.serialize_catalog(seed_catalog())
        catalog, diags = dsl.parse_catalog(text, "t")
        assert diags == []
        assert catalog == seed_catalog()


class TestRoundTripProperty:
    def test_random_documents(self):
        rng = random.Random(2024)
        for _ in range(150):
            doc = document(rng)
            text = dsl.serialize(doc)
            parsed, diags = dsl.parse_description(text, "gen")
            assert parsed is not None, [d.render() for d in diags]
            assert parsed == dsl.normalize_document(doc)
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
