"""Coverage analytics, histograms, reports and the comparison matrix."""

import dataclasses
import hashlib
import json
import random
import shutil
from fractions import Fraction

import pytest

from nihdl import dsl, model
from nihdl.analyze import (
    MATRIX_COLUMNS,
    UnknownAttributeError,
    combined_groups,
    comparison_matrix,
    completeness,
    corpus_stats,
    format_percent,
    inconsistency_report,
    pattern_histogram,
)
from nihdl.cli import main
from nihdl.diagnostics import SourceLocation
from nihdl.model import Presence, TrackedAttribute, coverage
from nihdl.taxonomy import list_leaves, seed_catalog

from conftest import CATALOG_FILE, DHCP_FILE, GAP_FILE, SYNTHETIC_DIR
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

    def test_presence_weights(self, gap_method):
        # FULL counts 1, PARTIAL 1/2 and ABSENT 0, averaged over the six.
        base = all_presence(gap_method, Presence.ABSENT)
        partial = dataclasses.replace(
            base, carrier=dataclasses.replace(base.carrier, presence=Presence.PARTIAL))
        full = dataclasses.replace(
            partial, channel=dataclasses.replace(
                partial.channel, bandwidth=model.ChannelCharacteristic(Presence.FULL)))
        assert completeness(partial).aggregate == Fraction(1, 12)
        assert completeness(full).aggregate == Fraction(3, 12)
        assert str(completeness(full).aggregate) == "1/4"

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
    def test_single_method_single_row(self, gap_method, catalog):
        table = corpus_stats([gap_method], catalog).by_year
        assert list(table) == [2008]
        counts = table[2008].attributes[TrackedAttribute.BANDWIDTH]
        assert (counts.full, counts.partial, counts.absent) == (1, 0, 0)

    def test_two_years_two_rows(self, gap_method, catalog):
        early = dataclasses.replace(gap_method, name="early", year=1987)
        late = dataclasses.replace(gap_method, name="late", year=2015)
        assert list(corpus_stats([early, late], catalog).by_year) == [1987, 2015]

    def test_unknown_year_grouped_last(self, gap_method, dhcp_method, catalog):
        table = corpus_stats([gap_method, dhcp_method], catalog).by_year  # dhcp has no year
        assert list(table) == [2008, None]

    def test_later_years_can_dominate_coverage(self, gap_method, catalog):
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
        table = corpus_stats(old + new, catalog).by_year
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
            pattern=model.PatternAssignment(path=PatternPath.from_text("Made Up")),
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

    def test_one_name_in_two_files_shares_no_attribute(self, joint_methods):
        # A label carried by one method name is described by no two methods,
        # even when that method is listed twice.
        rows = combined_groups([joint_methods[0], joint_methods[0]])
        assert [(r.members, r.attributes, r.flagged) for r in rows] == [
            (("Link quality",), (), True)
        ]


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
            # Both the row and coverage(d) follow TrackedAttribute order.
            for cell, (presence, shared) in zip(row, coverage(d), strict=True):
                expected = cell_for[presence]
                if shared is not None:
                    expected += ",combined"
                assert cell == expected


def test_stats_to_dict_shape(capsys, tmp_path):
    (tmp_path / "descriptions").mkdir()
    shutil.copy(CATALOG_FILE, tmp_path / "catalog.nihc")
    shutil.copy(GAP_FILE, tmp_path / "descriptions")
    shutil.copy(DHCP_FILE, tmp_path / "descriptions")
    assert main(["stats", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 2
    assert set(payload) == {"total", "attributes", "by_year", "histogram", "unassigned"}
    assert payload["attributes"]["bandwidth"]["covered_pct"] == "100.0"
    assert payload["unassigned"] == 0
    assert "unknown" in payload["by_year"]


def _survey_corpus(seed: int = 13, size: int = 300) -> list[model.MethodDescription]:
    """Randgen methods regrouped as a survey would see them: about five
    methods per source, shared labels drawn from three names, repeated
    method names, unknown years and unresolvable paths (randgen's own)."""
    rng = random.Random(seed)
    paths = list_leaves(seed_catalog())
    sources = [None, *(f"pub-{k}" for k in range(60))]
    labels = [model.SharedGroup(f"eval-{k}") for k in range(3)]

    def relabel(part):
        if part is None or part.shared is None:
            return part
        return dataclasses.replace(part, shared=rng.choice(labels))

    methods = []
    for i in range(size):
        m = description(rng, paths, method_name=f"m{i % 250}")
        methods.append(dataclasses.replace(
            m,
            source=rng.choice(sources),
            scenario=relabel(m.scenario),
            carrier=relabel(m.carrier),
            channel=dataclasses.replace(m.channel, bandwidth=relabel(m.channel.bandwidth),
                                        robustness=relabel(m.channel.robustness)),
            location=SourceLocation(f"r{i // 3}.nihd", 1 + 40 * (i % 3), 1),
        ))
    return methods


def _synthetic_corpus():
    catalog, _ = dsl.parse_catalog(
        (SYNTHETIC_DIR / "catalog.nihc").read_text(encoding="utf-8"), "catalog.nihc")
    methods = []
    for path in sorted((SYNTHETIC_DIR / "descriptions").glob("*.nihd")):
        doc, _ = dsl.parse_description(path.read_text(encoding="utf-8"), path.name)
        methods.extend(doc.methods)
    return methods, catalog


def _analytics_digest(methods, catalog) -> str:
    """SHA-256 of the repr of every analytics result over one corpus."""
    stats = corpus_stats(methods, catalog)
    report = (
        stats,
        stats.diagnostics,
        combined_groups(methods),
        inconsistency_report(methods),
        comparison_matrix(methods, list(MATRIX_COLUMNS)),
        [completeness(m) for m in methods],
    )
    return hashlib.sha256(repr(report).encode("utf-8")).hexdigest()


def test_analytics_outputs_are_pinned():
    # Pinned before the coverage row was cached on the method; any change
    # to how analytics folds the rows must leave every value as it was.
    survey = _survey_corpus()
    synthetic, synthetic_catalog = _synthetic_corpus()
    assert len(survey) == 300 and len(synthetic) == 131
    stats = corpus_stats(survey, seed_catalog())
    # The corpus reaches every branch: E110/E111 diagnostics, inconsistent
    # sources, and labels both shared and flagged.
    assert len(stats.diagnostics) == 45 and len(inconsistency_report(survey)) == 316
    groups = combined_groups(survey)
    assert any(g.attributes for g in groups) and any(g.flagged for g in groups)
    digests = {
        "survey": _analytics_digest(survey, seed_catalog()),
        "synthetic": _analytics_digest(synthetic, synthetic_catalog),
        "empty": _analytics_digest([], seed_catalog()),
    }
    assert digests == {
        "survey": "a9ee362d14c874479f88c342c8182ec6bd68774c6c28f22ba68d14296f8dac46",
        "synthetic": "936af56d4e447ed3e9c4043f3bb64d7dcf4cf1304bb1c1489b1e0cf102ac0f13",
        "empty": "e1262b3cacf197f77697579123fb29ebbe54e08fd0fbabeb7c1586b4767088b8",
    }
