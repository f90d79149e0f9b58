#!/usr/bin/env python3
"""Regenerate the committed synthetic corpus at tests/fixtures/synthetic/.

The corpus holds 131 method descriptions whose per-attribute coverage
marginals equal the published literature-survey counts this toolkit's
statistics are checked against:

    application scenario   74 full / 30 partial
    carrier requirements   74 full / 14 partial
    countermeasures        55 full / 13 partial
    bandwidth              56 full / 13 partial
    robustness             19 full / 10 partial
    control protocol        4 full /  3 partial

Exactly one method is unassigned (a key-exchange scheme that fits no
single pattern); the other 130 spread over the three seed-catalog leaves.
Years run 1987-2015 and bandwidth coverage is concentrated on the later
years. The generator is deterministic: rerunning it reproduces the
corpus byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nihdl import dsl, model, seed_catalog  # noqa: E402
from nihdl.taxonomy import UNASSIGNED, PatternPath, list_leaves  # noqa: E402

TOTAL = 131
BATCH_SIZE = 10

# (full count, partial count); the rest of the 131 are absent.
MARGINALS = {
    "scenario": (74, 30),
    "carrier": (74, 14),
    "countermeasures": (55, 13),
    "bandwidth": (56, 13),
    "robustness": (19, 10),
    "control": (4, 3),
}


def presence_from_start(i: int, full: int, partial: int) -> model.Presence:
    if i < full:
        return model.Presence.FULL
    if i < full + partial:
        return model.Presence.PARTIAL
    return model.Presence.ABSENT


def presence_from_end(i: int, full: int, partial: int) -> model.Presence:
    if i >= TOTAL - full:
        return model.Presence.FULL
    if i >= TOTAL - full - partial:
        return model.Presence.PARTIAL
    return model.Presence.ABSENT


def build_method(i: int, leaves: list[PatternPath]) -> model.MethodDescription:
    unassigned = i == TOTAL - 1
    if unassigned:
        pattern = model.PatternAssignment(
            path=UNASSIGNED,
            justifications=(
                model.Justification(
                    "scope",
                    "A steganographic key exchange applies to many hiding methods "
                    "and therefore does not map to a single pattern.",
                ),
            ),
        )
        year = None
    else:
        pattern = model.PatternAssignment(path=leaves[i % len(leaves)])
        year = 1987 + (i * 29) // (TOTAL - 1)

    scenario_presence = presence_from_start(i, *MARGINALS["scenario"])
    scenario = None
    if scenario_presence is not model.Presence.ABSENT:
        scenario = model.ApplicationScenario(
            presence=scenario_presence, purpose=model.Purpose.GENERAL_PURPOSE
        )

    carrier_presence = presence_from_start(i, *MARGINALS["carrier"])
    carrier = model.CarrierRequirements(
        presence=carrier_presence,
        binding=model.CarrierBinding(
            model.BindingKind.GENERIC
            if carrier_presence is model.Presence.FULL
            else model.BindingKind.UNSPECIFIED
        ),
    )

    cm_presence = presence_from_start(i, *MARGINALS["countermeasures"])
    countermeasures: tuple[model.CountermeasureEntry, ...] = ()
    if cm_presence is not model.Presence.ABSENT:
        countermeasures = (
            model.CountermeasureEntry(
                kind=model.CountermeasureKind.DETECTION,
                applicability=model.Applicability.APPLICABLE,
                evaluated=cm_presence is model.Presence.FULL,
            ),
        )

    control_presence = presence_from_start(i, *MARGINALS["control"])
    control = None
    if control_presence is not model.Presence.ABSENT:
        control = model.ControlProtocol(
            presence=control_presence,
            features=frozenset({model.ControlFeature.RELIABILITY}),
        )

    channel = model.ChannelProperties(
        scenarios=frozenset({model.ChannelScenario.END_TO_END}),
        directness=model.Directness(model.DirectnessKind.DIRECT),
        bandwidth=model.ChannelCharacteristic(
            presence=presence_from_end(i, *MARGINALS["bandwidth"])
        ),
        undetectability=model.ChannelCharacteristic(presence=model.Presence.ABSENT),
        robustness=model.ChannelCharacteristic(
            presence=presence_from_start(i, *MARGINALS["robustness"])
        ),
        cost=model.ChannelCharacteristic(presence=model.Presence.ABSENT),
    )

    return model.MethodDescription(
        name=f"synthetic-{i:03d}",
        source=f"pub-{i * 74 // TOTAL:03d}",
        year=year,
        pattern=pattern,
        scenario=scenario,
        carrier=carrier,
        sender=model.SenderProcess(
            relation=model.Relation.ONE_TO_ONE,
            location=model.Location.CENTRALIZED,
            data_location=model.Location.CENTRALIZED,
            generates_cover=model.Tristate.UNSPECIFIED,
        ),
        receiver=model.ReceiverProcess(location=model.Location.CENTRALIZED),
        channel=channel,
        control_protocol=control,
        countermeasures=countermeasures,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent
                    / "tests" / "fixtures" / "synthetic"),
    )
    args = parser.parse_args()

    root = Path(args.root)
    descriptions = root / "descriptions"
    descriptions.mkdir(parents=True, exist_ok=True)

    catalog = seed_catalog()
    leaves = list_leaves(catalog)
    (root / "catalog.nihc").write_text(dsl.serialize_catalog(catalog), encoding="utf-8")

    methods = [build_method(i, leaves) for i in range(TOTAL)]
    for batch_start in range(0, TOTAL, BATCH_SIZE):
        batch = methods[batch_start:batch_start + BATCH_SIZE]
        doc = dsl.Document(methods=tuple(batch))
        path = descriptions / f"batch_{batch_start // BATCH_SIZE:02d}.nihd"
        path.write_text(dsl.serialize(doc), encoding="utf-8")
    print(f"wrote {TOTAL} methods under {root}")


if __name__ == "__main__":
    main()
