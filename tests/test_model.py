"""Domain type invariants, attribute presence and normalization."""

import copy
import dataclasses
import pickle
import random
from pathlib import Path

import pytest

from nihdl import dsl, model
from nihdl.model import (
    Applicability,
    CountermeasureEntry,
    CountermeasureKind,
    Presence,
    TrackedAttribute,
    coverage,
    normalize,
)
from nihdl.taxonomy import PatternPath, list_leaves, seed_catalog

from conftest import SYNTHETIC_DIR, parse_fixture
from randgen import description


def test_presence_is_totally_ordered():
    assert Presence.ABSENT < Presence.PARTIAL < Presence.FULL


def _reference_presence(d, attribute):
    """The per-attribute rule as one if-chain: the reference for coverage()."""
    if attribute is TrackedAttribute.APPLICATION_SCENARIO:
        if d.scenario is None:
            return Presence.ABSENT, None
        return d.scenario.presence, d.scenario.shared
    if attribute is TrackedAttribute.CARRIER_REQUIREMENTS:
        return d.carrier.presence, d.carrier.shared
    if attribute is TrackedAttribute.COUNTERMEASURES:
        if not d.countermeasures:
            return Presence.ABSENT, None
        if any(entry.evaluated for entry in d.countermeasures):
            return Presence.FULL, None
        return Presence.PARTIAL, None
    if attribute is TrackedAttribute.BANDWIDTH:
        metric = d.channel.bandwidth
    elif attribute is TrackedAttribute.ROBUSTNESS:
        metric = d.channel.robustness
    elif attribute is TrackedAttribute.CONTROL_PROTOCOL:
        if d.control_protocol is None:
            return Presence.ABSENT, None
        return d.control_protocol.presence, None
    else:
        raise ValueError(f"unknown attribute {attribute!r}")
    if metric is None:
        return Presence.ABSENT, None
    return metric.presence, metric.shared


def _reference_methods():
    for path in sorted((SYNTHETIC_DIR / "descriptions").glob("*.nihd")):
        yield from parse_fixture(path).methods
    rng = random.Random(20151)
    paths = list_leaves(seed_catalog())
    for _ in range(400):
        yield description(rng, paths)


def test_coverage_matches_reference_rule():
    checked = 0
    for d in _reference_methods():
        expected = tuple(_reference_presence(d, attr) for attr in TrackedAttribute)
        assert coverage(d) == expected, d.name
        checked += 1
    assert checked == 131 + 400


def _fresh_row(d):
    return tuple(_reference_presence(d, attr) for attr in TrackedAttribute)


def test_coverage_row_follows_every_way_of_making_a_value():
    # The row is computed once, when a description is built; every way of
    # making another description must give that one its own, current row.
    rng = random.Random(20152)
    paths = list_leaves(seed_catalog())
    for _ in range(60):
        d = description(rng, paths)
        absent = model.ChannelCharacteristic(Presence.ABSENT)
        lowered = dataclasses.replace(
            d, scenario=None, control_protocol=None, countermeasures=(),
            carrier=dataclasses.replace(d.carrier, presence=Presence.ABSENT, shared=None),
            channel=dataclasses.replace(d.channel, bandwidth=absent, robustness=absent))
        assert coverage(lowered) == ((Presence.ABSENT, None),) * 6
        for other in (lowered, normalize(d), pickle.loads(pickle.dumps(d)),
                      copy.deepcopy(d), copy.copy(d)):
            assert coverage(other) == _fresh_row(other), d.name


def test_coverage_row_is_not_a_field():
    # perfbench's canonical() and dataclasses.asdict walk these fields.
    assert [f.name for f in dataclasses.fields(model.MethodDescription)] == [
        "name", "pattern", "carrier", "sender", "receiver", "channel", "source",
        "year", "scenario", "control_protocol", "countermeasures", "warden",
        "location"]
    rng = random.Random(20153)
    paths = list_leaves(seed_catalog())
    for _ in range(20):
        d = description(rng, paths)
        twin = copy.copy(d)
        # A row no description can have: only the cached value differs.
        object.__setattr__(twin, "_coverage", ())
        assert twin == d and hash(twin) == hash(d)
        assert repr(twin) == repr(d)
        assert dataclasses.asdict(twin) == dataclasses.asdict(d)


def _by_attribute(d):
    """``coverage(d)`` keyed by TrackedAttribute, the order its pairs follow."""
    return dict(zip(TrackedAttribute, coverage(d), strict=True))


class TestAttributePresence:
    def test_gap_bandwidth_full(self, gap_method):
        assert _by_attribute(gap_method)[TrackedAttribute.BANDWIDTH] == (
            Presence.FULL, None,
        )

    def test_gap_control_protocol_absent(self, gap_method):
        # The block is present but explicitly absent.
        assert _by_attribute(gap_method)[TrackedAttribute.CONTROL_PROTOCOL] == (
            Presence.ABSENT, None,
        )

    def test_gap_countermeasures_full(self, gap_method):
        assert _by_attribute(gap_method)[TrackedAttribute.COUNTERMEASURES] == (
            Presence.FULL, None,
        )

    def test_missing_scenario_block_is_absent(self, gap_method):
        stripped = dataclasses.replace(gap_method, scenario=None)
        assert _by_attribute(stripped)[TrackedAttribute.APPLICATION_SCENARIO] == (
            Presence.ABSENT, None,
        )

    def test_entries_without_evaluation_are_partial(self, gap_method):
        entries = tuple(
            dataclasses.replace(e, evaluated=False) for e in gap_method.countermeasures[:2]
        )
        d = dataclasses.replace(gap_method, countermeasures=entries)
        assert _by_attribute(d)[TrackedAttribute.COUNTERMEASURES][0] is Presence.PARTIAL

    def test_no_entries_is_absent(self, gap_method):
        d = dataclasses.replace(gap_method, countermeasures=())
        assert _by_attribute(d)[TrackedAttribute.COUNTERMEASURES][0] is Presence.ABSENT

    def test_adding_evaluated_entry_never_lowers_presence(self, gap_method):
        # Monotonicity of the countermeasures coding rule.
        extra = CountermeasureEntry(
            kind=CountermeasureKind.PROTOCOL_REVISION,
            applicability=Applicability.APPLICABLE,
            evaluated=True,
        )
        for base_entries in ((), gap_method.countermeasures[:1], gap_method.countermeasures):
            d = dataclasses.replace(gap_method, countermeasures=tuple(base_entries))
            before = _by_attribute(d)[TrackedAttribute.COUNTERMEASURES][0]
            grown = dataclasses.replace(
                d, countermeasures=tuple(base_entries) + (extra,)
            )
            after = _by_attribute(grown)[TrackedAttribute.COUNTERMEASURES][0]
            assert after >= before


class TestNormalize:
    def test_entry_order(self, gap_method):
        detection = gap_method.countermeasures[2]
        elimination = gap_method.countermeasures[0]
        shuffled = dataclasses.replace(
            gap_method, countermeasures=(detection, elimination)
        )
        ordered = normalize(shuffled).countermeasures
        assert [e.kind for e in ordered] == [
            CountermeasureKind.ELIMINATION, CountermeasureKind.DETECTION,
        ]

    def test_dhcp_fixture_is_already_canonical(self, dhcp_method):
        assert normalize(dhcp_method) == dhcp_method

    def test_idempotent(self, gap_method, dhcp_method):
        for m in (gap_method, dhcp_method):
            assert normalize(normalize(m)) == normalize(m)

    def test_idempotent_on_random_descriptions(self):
        from randgen import description
        from nihdl.taxonomy import list_leaves, seed_catalog

        rng = random.Random(11)
        paths = list_leaves(seed_catalog())
        for _ in range(50):
            d = description(rng, paths)
            assert normalize(normalize(d)) == normalize(d)

    def test_justifications_follow_path_order(self, dhcp_method):
        reversed_justifications = tuple(reversed(dhcp_method.pattern.justifications))
        shuffled = dataclasses.replace(
            dhcp_method,
            pattern=dataclasses.replace(
                dhcp_method.pattern, justifications=reversed_justifications
            ),
        )
        assert normalize(shuffled).pattern == dhcp_method.pattern

    def test_stable_within_kind(self):
        a = CountermeasureEntry(CountermeasureKind.DETECTION,
                                Applicability.APPLICABLE, text="first")
        b = CountermeasureEntry(CountermeasureKind.DETECTION,
                                Applicability.APPLICABLE, text="second")
        base = _minimal(countermeasures=(a, b))
        assert normalize(base).countermeasures == (a, b)


def _channel(scenarios=frozenset({model.ChannelScenario.END_TO_END}), **metrics):
    fields = {name: model.ChannelCharacteristic(Presence.ABSENT)
              for name in ("bandwidth", "undetectability", "robustness", "cost")}
    fields.update(metrics)
    return model.ChannelProperties(scenarios=scenarios,
                                   directness=model.Directness(model.DirectnessKind.DIRECT),
                                   **fields)


def _minimal(**overrides):
    fields = dict(
        name="m",
        pattern=model.PatternAssignment(path=PatternPath.from_text("X")),
        carrier=model.CarrierRequirements(presence=Presence.ABSENT),
        sender=model.SenderProcess(),
        receiver=model.ReceiverProcess(),
        channel=_channel(),
    )
    fields.update(overrides)
    return model.MethodDescription(**fields)


class TestConstructorInvariants:
    def test_year_bounds(self):
        with pytest.raises(ValueError, match="^year out of range 1980-2100: 1849$"):
            _minimal(year=1849)
        with pytest.raises(ValueError, match="^year out of range 1980-2100: 2101$"):
            _minimal(year=2101)
        assert _minimal(year=1980).year == 1980

    def test_empty_name(self):
        with pytest.raises(ValueError, match="^method name must be non-empty$"):
            _minimal(name="")

    def test_protocol_set_needs_two(self):
        with pytest.raises(ValueError,
                           match="^protocol-set requires at least two protocols$"):
            model.CarrierBinding(model.BindingKind.PROTOCOL_SET, ("TCP",))
        pair = model.CarrierBinding(model.BindingKind.PROTOCOL_SET, ("TCP", "UDP"))
        assert len(pair.names) == 2

    def test_single_protocol_takes_one(self):
        with pytest.raises(ValueError, match="^single-protocol takes exactly one protocol$"):
            model.CarrierBinding(model.BindingKind.SINGLE_PROTOCOL, ("TCP", "UDP"))

    def test_generic_takes_no_names(self):
        with pytest.raises(ValueError, match="^generic binding carries no names$"):
            model.CarrierBinding(model.BindingKind.GENERIC, ("x",))

    def test_feature_based_needs_one(self):
        with pytest.raises(ValueError):
            model.CarrierBinding(model.BindingKind.FEATURE_BASED)

    def test_refers_flag_restricted_to_undetectability(self):
        bad = model.ChannelCharacteristic(Presence.FULL, refers_to_countermeasures=True)
        with pytest.raises(ValueError, match="^ref: countermeasures is only allowed on "
                                             "the undetectability metric$"):
            _channel(bandwidth=bad)

    def test_scenarios_must_be_non_empty(self):
        with pytest.raises(ValueError,
                           match="^at least one communication scenario is required$"):
            _channel(scenarios=frozenset())

    def test_absent_control_protocol_has_no_features(self):
        with pytest.raises(ValueError,
                           match="^an absent control protocol cannot list features$"):
            model.ControlProtocol(
                presence=Presence.ABSENT,
                features=frozenset({model.ControlFeature.RELIABILITY}),
            )

    def test_scenarios_and_features_are_held_once_in_vocabulary_order(self):
        end_to_end, hybrid = model.ChannelScenario.END_TO_END, model.ChannelScenario.HYBRID
        reliability, app_layer = model.ControlFeature.RELIABILITY, model.ControlFeature.APP_LAYER
        made = [
            _minimal(channel=_channel(scenarios),
                     control_protocol=model.ControlProtocol(Presence.FULL, features))
            for scenarios, features in (
                ([hybrid, end_to_end, hybrid], [app_layer, reliability, app_layer]),
                (frozenset({hybrid, end_to_end}), frozenset({app_layer, reliability})),
                ((hybrid, end_to_end), (app_layer, reliability)),
            )
        ]
        for method in made:
            assert method == made[0] and hash(method) == hash(made[0])
            assert method.channel.scenarios == (end_to_end, hybrid)
            assert method.control_protocol.features == (reliability, app_layer)
            doc, diags = dsl.parse_description(dsl.serialize(dsl.Document((method,))))
            assert diags == [] and doc.methods == (normalize(method),)

    def test_a_string_is_not_a_member(self):
        with pytest.raises(ValueError, match="^'mitm' is not a ChannelScenario$"):
            _channel(scenarios=frozenset({"mitm"}))
        with pytest.raises(ValueError, match="^'reliability' is not a ControlFeature$"):
            model.ControlProtocol(Presence.FULL, ["reliability"])

    def test_justification_must_name_a_path_element(self):
        with pytest.raises(ValueError,
                           match="^justify names 'C', which is not on the path$"):
            model.PatternAssignment(
                path=PatternPath(("A", "B")),
                justifications=(model.Justification("C", "why"),),
            )

    def test_shared_group_label_non_empty(self):
        with pytest.raises(ValueError, match="^shared-with label must be non-empty$"):
            model.SharedGroup("")

    def test_directness_requirements_only_for_indirect(self):
        with pytest.raises(ValueError):
            model.Directness(model.DirectnessKind.DIRECT, "something")


# The message text of each value rule that a description file can break, as
# the source writes it. The model words each rule once; the parser reports
# the model's refusal rather than a copy of the rule.
_RULE_TEXTS = {
    "shared label": ("shared-with label must be non-empty",),
    "justify element": ("which is not on the path",),
    "binding name counts": ("takes exactly one protocol", "requires at least two protocols"),
    "absent protocol": ("an absent control protocol cannot list features",),
    "ref": ("ref: countermeasures is only allowed on the undetectability metric",),
    "name and year": ("method name must be non-empty", "year out of range {YEAR_MIN}"),
    "scenario": ("at least one communication scenario is required",),
}


@pytest.mark.parametrize("rule", _RULE_TEXTS)
def test_value_rule_worded_once_in_the_package(rule):
    package = Path(model.__file__).parent
    source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
    for text in _RULE_TEXTS[rule]:
        assert source.count(text) == 1, text
