"""The validation rule table, mode behaviour and ordering guarantees."""

import dataclasses
import random
import re

import pytest

from nihdl import dsl, model
from nihdl.analyze import pattern_histogram
from nihdl.diagnostics import Diagnostic, Severity, SourceLocation
from nihdl.taxonomy import PatternCatalog, PatternPath, UNASSIGNED
from nihdl.validate import ValidationMode, validate, validate_document

from conftest import DHCP_FILE, GAP_FILE
from randgen import description
from nihdl.taxonomy import list_leaves

SURVEY = ValidationMode.SURVEY
STRICT = ValidationMode.STRICT


def codes(diags):
    return [d.code for d in diags]


def error_codes(diags):
    return sorted({d.code for d in diags if d.severity is Severity.ERROR})


def with_pattern(m, path, justify_all=True):
    justifications = tuple(
        model.Justification(e, f"because {e}") for e in path.elements
    ) if justify_all and not path.unassigned else ()
    return dataclasses.replace(
        m, pattern=model.PatternAssignment(path=path, justifications=justifications)
    )


def with_channel(m, **kw):
    return dataclasses.replace(m, channel=dataclasses.replace(m.channel, **kw))


class TestCleanFixtures:
    def test_gap_fixture_survey_clean(self, gap_doc, catalog):
        assert validate_document(gap_doc, catalog, SURVEY) == []

    def test_dhcp_fixture_survey_clean(self, dhcp_doc, catalog):
        assert validate_document(dhcp_doc, catalog, SURVEY) == []

    def test_dhcp_has_all_three_countermeasure_kinds(self, dhcp_method, catalog):
        diags = validate(dhcp_method, catalog, SURVEY)
        assert "E140" not in codes(diags)
        assert "E141" not in codes(diags)


class TestPatternRules:
    def test_e110_unknown_path(self, gap_method, catalog):
        bad = with_pattern(gap_method, PatternPath((
            "Network Covert Storage Channels", "Inter-arrival Time Pattern")))
        assert error_codes(validate(bad, catalog)) == ["E110"]

    def test_e111_internal_path(self, gap_method, catalog):
        bad = with_pattern(gap_method, PatternPath.from_text("Network Covert Storage Channels"))
        assert error_codes(validate(bad, catalog)) == ["E111"]

    def test_e110_e111_worded_as_in_the_histogram(self, gap_method, catalog):
        unknown = PatternPath(("Network Covert Storage Channels", "Nope"))
        internal = PatternPath.from_text("Network Covert Storage Channels")
        doc = dsl.Document(methods=(
            dataclasses.replace(with_pattern(gap_method, unknown), name="a"),
            dataclasses.replace(with_pattern(gap_method, internal), name="b"),
        ))
        found = [(d.code, d.message) for d in validate_document(doc, catalog)
                 if d.code in ("E110", "E111")]
        assert found == [
            ("E110", "pattern path not found in catalog: Network Covert Storage Channels / Nope"),
            ("E111", "pattern path is not a leaf: Network Covert Storage Channels"),
        ]
        _, _, histogram_diags = pattern_histogram(list(doc.methods), catalog)
        assert [(d.code, d.message) for d in histogram_diags] == found

    def test_e112_unassigned_without_justification(self, gap_method, catalog):
        bad = dataclasses.replace(
            gap_method, pattern=model.PatternAssignment(path=UNASSIGNED)
        )
        assert error_codes(validate(bad, catalog)) == ["E112"]

    def test_unassigned_with_justification_is_fine(self, gap_method, catalog):
        ok = dataclasses.replace(
            gap_method,
            pattern=model.PatternAssignment(
                path=UNASSIGNED,
                justifications=(model.Justification("scope", "fits no pattern"),),
            ),
        )
        assert "E112" not in codes(validate(ok, catalog))

    def test_w200_per_unjustified_element(self, gap_method, catalog):
        one_missing = dataclasses.replace(
            gap_method,
            pattern=dataclasses.replace(
                gap_method.pattern,
                justifications=gap_method.pattern.justifications[:1],
            ),
        )
        diags = validate(one_missing, catalog)
        assert codes(diags) == ["W200"]
        assert "Inter-arrival Time Pattern" in diags[0].message


class TestChannelRules:
    def test_e120_indirect_without_requirements(self, gap_method, catalog):
        bad = with_channel(gap_method,
                           directness=model.Directness(model.DirectnessKind.INDIRECT, ""))
        assert error_codes(validate(bad, catalog)) == ["E120"]

    def test_indirect_with_requirements_is_fine(self, gap_method, catalog):
        ok = with_channel(gap_method,
                          directness=model.Directness(model.DirectnessKind.INDIRECT,
                                                      "a bounce host"))
        assert "E120" not in codes(validate(ok, catalog))

    def test_e130_missing_metric_block(self, gap_method, catalog):
        bad = with_channel(gap_method, bandwidth=None)
        assert error_codes(validate(bad, catalog)) == ["E130"]

    def test_w203_absent_undetectability_without_detection_entry(
        self, gap_method, catalog
    ):
        bad = with_channel(
            gap_method,
            undetectability=model.ChannelCharacteristic(model.Presence.ABSENT),
        )
        bad = dataclasses.replace(bad, countermeasures=gap_method.countermeasures[:2])
        diags = validate(bad, catalog)
        assert "W203" in codes(diags)
        assert "E140" in codes(diags)  # no detection entry at all

    def test_i300_bandwidth_value_without_robustness(self, gap_method, catalog):
        nudged = with_channel(
            gap_method,
            robustness=model.ChannelCharacteristic(model.Presence.ABSENT),
        )
        diags = validate(nudged, catalog)
        assert codes(diags) == ["I300"]
        assert diags[0].severity is Severity.INFO


class TestCountermeasureRules:
    def test_e140_for_each_missing_kind(self, gap_method, catalog):
        limitation_only = dataclasses.replace(
            gap_method, countermeasures=(gap_method.countermeasures[1],)
        )
        diags = validate(limitation_only, catalog)
        assert codes(diags) == ["E140", "E140"]

    def test_e141_no_limitation_and_no_applicable_elimination(self, gap_method, catalog):
        elimination = dataclasses.replace(
            gap_method.countermeasures[0],
            applicability=model.Applicability.NOT_APPLICABLE,
            text="cannot be eliminated, only perturbed",
        )
        detection = gap_method.countermeasures[2]
        bad = dataclasses.replace(gap_method, countermeasures=(elimination, detection))
        assert error_codes(validate(bad, catalog)) == ["E141"]

    def test_applicable_elimination_waives_limitation(self, gap_method, catalog):
        # Elimination applicable, limitation entry dropped: no E141.
        kept = (gap_method.countermeasures[0], gap_method.countermeasures[2])
        ok = dataclasses.replace(gap_method, countermeasures=kept)
        assert "E141" not in codes(validate(ok, catalog))

    def test_e142_not_applicable_without_justification(self, gap_method, catalog):
        entry = dataclasses.replace(
            gap_method.countermeasures[0],
            applicability=model.Applicability.NOT_APPLICABLE,
            text=None,
        )
        bad = dataclasses.replace(
            gap_method, countermeasures=(entry,) + gap_method.countermeasures[1:]
        )
        assert error_codes(validate(bad, catalog)) == ["E142"]

    def test_w202_evaluated_without_limitations_note(self, gap_method, catalog):
        entry = dataclasses.replace(gap_method.countermeasures[1], limitations=None)
        bad = dataclasses.replace(
            gap_method,
            countermeasures=(gap_method.countermeasures[0], entry,
                             gap_method.countermeasures[2]),
        )
        assert codes(validate(bad, catalog)) == ["W202"]

    def test_adding_applicable_elimination_never_adds_errors(self, catalog):
        rng = random.Random(5)
        paths = list_leaves(catalog)
        extra = model.CountermeasureEntry(
            kind=model.CountermeasureKind.ELIMINATION,
            applicability=model.Applicability.APPLICABLE,
            evaluated=False,
            text="normalizer",
        )
        for _ in range(40):
            d = description(rng, paths)
            before = {c for c in codes(validate(d, catalog)) if c.startswith("E")}
            grown = dataclasses.replace(
                d, countermeasures=d.countermeasures + (extra,)
            )
            after = {c for c in codes(validate(grown, catalog)) if c.startswith("E")}
            assert after <= before


class TestScenarioRules:
    def test_w201_special_purpose_without_text(self, dhcp_method, catalog):
        bare = dataclasses.replace(
            dhcp_method,
            scenario=dataclasses.replace(dhcp_method.scenario, text=None),
        )
        assert codes(validate(bare, catalog)) == ["W201"]

    def test_general_purpose_needs_no_text(self, gap_method, catalog):
        bare = dataclasses.replace(
            gap_method, scenario=dataclasses.replace(gap_method.scenario, text=None)
        )
        assert "W201" not in codes(validate(bare, catalog))

    def test_e211_strict_requires_scenario_block(self, gap_method, catalog):
        without = dataclasses.replace(gap_method, scenario=None)
        assert "E211" in codes(validate(without, catalog, STRICT))
        assert codes(validate(without, catalog, SURVEY)) == []


class TestUnspecifiedValues:
    def test_w210_in_survey_mode(self, gap_method, catalog):
        vague = dataclasses.replace(
            gap_method,
            sender=dataclasses.replace(gap_method.sender,
                                       relation=model.Relation.UNSPECIFIED),
        )
        diags = validate(vague, catalog, SURVEY)
        assert codes(diags) == ["W210"]
        assert "sender.relation" in diags[0].message

    def test_escalates_to_e210_in_strict_mode(self, gap_method, catalog):
        vague = dataclasses.replace(
            gap_method,
            sender=dataclasses.replace(gap_method.sender,
                                       relation=model.Relation.UNSPECIFIED),
        )
        assert error_codes(validate(vague, catalog, STRICT)) == ["E210"]

    def test_warden_fields_are_swept(self, gap_method, catalog):
        with_warden = dataclasses.replace(gap_method, warden=model.WardenProfile())
        diags = validate(with_warden, catalog, SURVEY)
        assert codes(diags) == ["W210", "W210", "W210"]


def test_diagnostic_values_refuse_a_bad_location_or_code():
    with pytest.raises(ValueError, match="^line and column are 1-based$"):
        SourceLocation("f", 0, 1)
    with pytest.raises(ValueError, match="^malformed diagnostic code 'X1'$"):
        Diagnostic("X1", "m")
    # A code is a letter and three ASCII digits, with nothing after them.
    for code in ("E001\n", "E\u0661\u0662\u0663"):
        with pytest.raises(ValueError, match=re.escape(f"malformed diagnostic code {code!r}")):
            Diagnostic(code, "m")


class TestDocumentLevel:
    def test_e150_duplicate_names(self, gap_method, catalog):
        doc = dsl.Document(methods=(gap_method, gap_method))
        diags = validate_document(doc, catalog)
        assert codes(diags) == ["E150"]
        # Parsed, the finding sits at the first method of that name.
        text = DHCP_FILE.read_text() + GAP_FILE.read_text() * 2
        doc, parse_diags = dsl.parse_description(text, "dup.nihd")
        assert not parse_diags
        [diag] = validate_document(doc, catalog)
        assert diag.render() == (
            "dup.nihd:85:1: E150 error [Model-based inter-packet gap channel] method name "
            "'Model-based inter-packet gap channel' appears 2 times in the document"
        )

    def test_empty_document(self, catalog):
        assert validate_document(dsl.Document(), catalog) == []

    def test_union_of_per_method_results(self, gap_doc, dhcp_doc, catalog):
        both = dsl.Document(methods=gap_doc.methods + dhcp_doc.methods)
        merged = validate_document(both, catalog)
        per_method = validate(gap_doc.methods[0], catalog) + validate(
            dhcp_doc.methods[0], catalog
        )
        assert sorted(codes(merged)) == sorted(codes(per_method))

    def test_empty_catalog_yields_e006(self, gap_doc):
        diags = validate_document(gap_doc, PatternCatalog())
        assert codes(diags) == ["E006"]

    def test_validate_requires_nonempty_catalog(self, gap_method):
        with pytest.raises(ValueError):
            validate(gap_method, PatternCatalog())


class TestProperties:
    def test_determinism(self, catalog):
        rng = random.Random(17)
        paths = list_leaves(catalog)
        for _ in range(30):
            d = description(rng, paths)
            assert validate(d, catalog) == validate(d, catalog)

    def test_sorted_by_code_then_location(self, catalog):
        rng = random.Random(18)
        paths = list_leaves(catalog)
        for _ in range(30):
            d = description(rng, paths)
            result = codes(validate(d, catalog))
            assert result == sorted(result)

    def test_canonical_stability(self, catalog):
        # validate(parse(serialize(d))) produces the same findings as
        # validate(normalize(d)); locations differ, codes and methods match.
        rng = random.Random(19)
        paths = list_leaves(catalog)
        for _ in range(30):
            d = description(rng, paths)
            doc = dsl.Document(methods=(d,))
            reparsed, diags = dsl.parse_description(dsl.serialize(doc), "t")
            assert reparsed is not None, [x.render() for x in diags]
            left = [(x.code, x.method_name) for x in
                    validate(reparsed.methods[0], catalog)]
            right = [(x.code, x.method_name) for x in validate(d, catalog)]
            assert left == right

    def test_mode_monotonicity(self, catalog):
        rng = random.Random(20)
        paths = list_leaves(catalog)
        for _ in range(40):
            d = description(rng, paths)
            survey_errors = {c for c in codes(validate(d, catalog, SURVEY))
                             if c.startswith("E")}
            strict_errors = {c for c in codes(validate(d, catalog, STRICT))
                             if c.startswith("E")}
            assert survey_errors <= strict_errors


def test_package_attribute_is_the_validate_module():
    # The package re-exports validate_document, not the function that
    # shares the submodule's name, so the submodule stays reachable.
    import nihdl
    import nihdl.validate as V

    assert V.validate_document is validate_document is nihdl.validate_document
    assert V.ValidationMode is nihdl.ValidationMode
