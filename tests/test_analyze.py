"""Coverage analytics, histograms, reports and the comparison matrix."""

import dataclasses
import random
from fractions import Fraction

import pytest

from nihdl import analyze, dsl, model
from nihdl.analyze import (
    UnknownAttributeError,
    combined_groups,
    comparison_matrix,
    completeness,
    corpus_stats,
    format_percent,
    inconsistency_report,
    pattern_histogram,
    stats_by_year,
)
from nihdl.model import Presence, TrackedAttribute
from nihdl.taxonomy import list_leaves

from conftest import GAP_FILE
from randgen import description


def all_presence(method, presence):
    """Force every tracked attribute of a description to one presence."""
    scenario = model.ApplicationScenario(presence=presence) \
        if presence is not Presence.ABSENT else None
    if presence is Presence.FULL:
        entries = (model.CountermeasureEntry(
            model.CountermeasureKind.DETECTION,
            model.Applicability.APPLICABLE, evaluated=True),)
    elif presence is Presence.PARTIAL:
        entries = (model.CountermeasureEntry(
            model.CountermeasureKind.DETECTION,
            model.Applicability.APPLICABLE, evaluated=False),)
    else:
        entries = ()
    control = model.ControlProtocol(presence=presence) \
        if presence is not Presence.ABSENT else None
    return dataclasses.replace(
        method,
        scenario=scenario,
        carrier=dataclasses.replace(method.carrier, presence=presence),
        countermeasures=entries,
        control_protocol=control,
        channel=dataclasses.replace(
            method.channel,
            bandwidth=model.ChannelCharacteristic(presence),
            robustness=model.ChannelCharacteristic(presence),
        ),
    )


class TestCompleteness:
    def test_all_full_aggregates_to_one(self, gap_method):
        assert completeness(all_presence(gap_method, Presence.FULL)).aggregate == 1

    def test_all_absent_aggregates_to_zero(self, gap_method):
        assert completeness(all_presence(gap_method, Presence.ABSENT)).aggregate == 0

    def test_gap_fixture_five_sixths(self, gap_method):
        # Everything full except the explicitly absent control protocol.
        vector = completeness(gap_method)
        assert vector.aggregate == Fraction(5, 6)

    def test_aggregate_monotonicity(self, gap_method):
        base = all_presence(gap_method, Presence.ABSENT)
        score = completeness(base).aggregate
        raised = dataclasses.replace(
            base, carrier=dataclasses.replace(base.carrier, presence=Presence.PARTIAL)
        )
        assert completeness(raised).aggregate > score
        raised_full = dataclasses.replace(
            base, carrier=dataclasses.replace(base.carrier, presence=Presence.FULL)
        )
        assert completeness(raised_full).aggregate > completeness(raised).aggregate


class TestFormatPercent:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (104, 131, "79.4"),
            (88, 131, "67.2"),
            (68, 131, "51.9"),
            (69, 131, "52.7"),
            (29, 131, "22.1"),
            (7, 131, "5.3"),
            (1, 1, "100.0"),
            (0, 5, "0.0"),
            (1, 3, "33.3"),
        ],
    )
    def test_exact_rendering(self, num, den, expected):
        assert format_percent(num, den) == expected

    def test_undefined(self):
        assert format_percent(0, 0) == "n/a"


class TestCorpusStats:
    def test_empty_corpus(self, catalog):
        stats = corpus_stats([], catalog)
        assert stats.total == 0
        for counts in stats.attributes.values():
            assert counts.covered_percent() == "n/a"
            assert counts.covered_ratio is None

    def test_count_conservation(self, catalog):
        rng = random.Random(3)
        paths = list_leaves(catalog)
        methods = [description(rng, paths) for _ in range(60)]
        stats = corpus_stats(methods, catalog)
        for counts in stats.attributes.values():
            assert counts.full + counts.partial + counts.absent == stats.total

    def test_histogram_conservation(self, catalog):
        rng = random.Random(4)
        paths = list_leaves(catalog)
        methods = [description(rng, paths) for _ in range(80)]
        stats = corpus_stats(methods, catalog)
        assert sum(stats.histogram.values()) + stats.unassigned == stats.total


class TestStatsByYear:
    def test_single_method_single_row(self, gap_method):
        table = stats_by_year([gap_method])
        assert list(table) == [2008]
        counts = table[2008].attributes[TrackedAttribute.BANDWIDTH]
        assert (counts.full, counts.partial, counts.absent) == (1, 0, 0)

    def test_two_years_two_rows(self, gap_method):
        early = dataclasses.replace(gap_method, name="early", year=1987)
        late = dataclasses.replace(gap_method, name="late", year=2015)
        assert list(stats_by_year([early, late])) == [1987, 2015]

    def test_unknown_year_grouped_last(self, gap_method, dhcp_method):
        table = stats_by_year([gap_method, dhcp_method])  # dhcp has no year
        assert list(table) == [2008, None]

    def test_later_years_can_dominate_coverage(self, gap_method):
        # Constructed corpus: bandwidth described only in recent methods.
        old = [
            dataclasses.replace(
                all_presence(gap_method, Presence.ABSENT), name=f"o{i}", year=1990
            )
            for i in range(4)
        ]
        new = [
            dataclasses.replace(
                all_presence(gap_method, Presence.FULL), name=f"n{i}", year=2012
            )
            for i in range(4)
        ]
        table = stats_by_year(old + new)
        bw = TrackedAttribute.BANDWIDTH
        early_ratio = table[1990].attributes[bw].covered_ratio
        late_ratio = table[2012].attributes[bw].covered_ratio
        assert late_ratio > early_ratio


class TestPatternHistogram:
    def test_two_fixture_methods(self, gap_method, dhcp_method, catalog):
        counts, unassigned, diags = pattern_histogram([gap_method, dhcp_method], catalog)
        assert unassigned == 0
        assert diags == []
        assert sorted(counts.values()) == [1, 1]
        assert gap_method.pattern.path in counts
        assert dhcp_method.pattern.path in counts

    def test_empty_corpus(self, catalog):
        counts, unassigned, diags = pattern_histogram([], catalog)
        assert counts == {} and unassigned == 0 and diags == []

    def test_unresolvable_path_reported(self, gap_method, catalog):
        from nihdl.taxonomy import PatternPath

        stray = dataclasses.replace(
            gap_method,
            pattern=model.PatternAssignment(path=PatternPath.of("Made Up")),
        )
        counts, unassigned, diags = pattern_histogram([stray], catalog)
        assert [d.code for d in diags] == ["E110"]
        assert sum(counts.values()) + unassigned == 1

    def test_unresolvable_path_located_at_first_method(self, catalog):
        gap = GAP_FILE.read_text(encoding="utf-8").replace(
            "Network Covert Timing Channels / Inter-arrival Time Pattern",
            "Network Covert Timing Channels / Nope",
        ).replace('"Inter-arrival Time Pattern": ', '"Nope": ')
        second = gap.replace("Model-based inter-packet gap channel", "Second gap channel")
        doc, parse_diags = dsl.parse_description(gap + "\n" + second, "corpus/stray.nihd")
        assert parse_diags == []
        stats = corpus_stats(list(doc.methods), catalog)
        second_line = gap.count("\n") + 2
        assert doc.methods[1].location.line == second_line
        assert [d.render() for d in stats.diagnostics] == [
            "corpus/stray.nihd:1:1: E110 error [Model-based inter-packet gap channel] "
            "pattern path not found in catalog: Network Covert Timing Channels / Nope"
        ]


class TestCombinedGroups:
    def test_sdp_style_pair(self, joint_methods):
        rows = combined_groups(joint_methods)
        sdp = next(r for r in rows if r.label == "sdp-eval")
        assert sdp.members == ("SDP o-tag", "SDP a-tag")
        assert TrackedAttribute.BANDWIDTH in sdp.attributes
        assert TrackedAttribute.ROBUSTNESS in sdp.attributes
        assert not sdp.flagged

    def test_no_shared_labels(self, gap_method, dhcp_method):
        assert combined_groups([gap_method, dhcp_method]) == []

    def test_single_method_label_flagged(self, gap_method):
        tagged = dataclasses.replace(
            gap_method,
            scenario=dataclasses.replace(
                gap_method.scenario, shared=model.SharedGroup("solo")
            ),
        )
        rows = combined_groups([tagged])
        assert len(rows) == 1 and rows[0].flagged


class TestInconsistencyReport:
    def test_pervasive_pair(self, joint_methods):
        rows = inconsistency_report(joint_methods)
        pervasive = [r for r in rows if r.source == "pervasive-cc"]
        assert {r.attribute for r in pervasive} == {
            TrackedAttribute.COUNTERMEASURES, TrackedAttribute.BANDWIDTH,
        }

    def test_identical_vectors_no_rows(self, joint_methods):
        assert [r for r in inconsistency_report(joint_methods)
                if r.source == "sip-sdp-cc"] == []

    def test_single_method_source_no_rows(self, gap_method):
        assert inconsistency_report([gap_method]) == []


JOINT_COLUMNS = [
    "application-scenario", "carrier-requirements", "countermeasures",
    "relation", "directness", "robustness", "bandwidth",
]


class TestComparisonMatrix:
    def test_link_quality_row(self, joint_methods):
        matrix = comparison_matrix(joint_methods, JOINT_COLUMNS)
        assert matrix[0] == ["Yes,combined", "Par", "Yes", "No", "No", "Yes", "Yes"]

    def test_sdp_o_tag_row_combined_cells(self, joint_methods):
        matrix = comparison_matrix(joint_methods, JOINT_COLUMNS)
        assert matrix[2] == [
            "Yes,combined", "Par,combined", "No", "No", "No",
            "Par,combined", "Par,combined",
        ]

    def test_all_absent_row(self, gap_method):
        blank = all_presence(gap_method, Presence.ABSENT)
        matrix = comparison_matrix([blank], [a.key for a in TrackedAttribute])
        assert matrix == [["No"] * 6]

    def test_one_by_one(self, gap_method):
        assert comparison_matrix([gap_method], ["bandwidth"]) == [["Yes"]]

    def test_unknown_attribute(self, gap_method):
        with pytest.raises(UnknownAttributeError):
            comparison_matrix([gap_method], ["bandwith"])

    def test_cells_follow_attribute_presence(self, catalog):
        rng = random.Random(8)
        paths = list_leaves(catalog)
        cell_for = {Presence.FULL: "Yes", Presence.PARTIAL: "Par",
                    Presence.ABSENT: "No"}
        for _ in range(25):
            d = description(rng, paths)
            row = comparison_matrix([d], [a.key for a in TrackedAttribute])[0]
            for cell, attr in zip(row, TrackedAttribute):
                presence, shared = model.attribute_presence(d, attr)
                expected = cell_for[presence]
                if shared is not None:
                    expected += ",combined"
                assert cell == expected


def test_stats_to_dict_shape(gap_method, dhcp_method, catalog):
    stats = corpus_stats([gap_method, dhcp_method], catalog)
    payload = analyze.stats_to_dict(stats)
    assert payload["total"] == 2
    assert set(payload) == {"total", "attributes", "by_year", "histogram", "unassigned"}
    assert payload["attributes"]["bandwidth"]["covered_pct"] == "100.0"
    assert payload["unassigned"] == 0
    assert "unknown" in payload["by_year"]
