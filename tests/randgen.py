"""Deterministic random generators for valid descriptions.

Used by the round-trip and property tests: given a seeded random.Random,
every generated document is valid for serialization (all four metric
blocks present, single-line strings, well-formed names), while covering
awkward content such as quotes, backslashes, comment characters and
non-ASCII text.
"""

from __future__ import annotations

import random

from nihdl import dsl, model
from nihdl.taxonomy import UNASSIGNED, PatternPath, list_leaves, seed_catalog

TEXT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    ' .,:;!?#"\\(){}[]/-_<>=+*%éßλπ'
)
NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,()-"


def text(rng: random.Random, lo: int = 1, hi: int = 40) -> str:
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(lo, hi)))


def name(rng: random.Random, lo: int = 1, hi: int = 24) -> str:
    # Pattern-name rules: non-empty, no "/", no surrounding whitespace.
    while True:
        candidate = "".join(rng.choice(NAME_ALPHABET) for _ in range(rng.randint(lo, hi)))
        candidate = candidate.strip()
        if candidate:
            return candidate


def maybe(rng: random.Random, p: float, make):
    return make() if rng.random() < p else None


def shared(rng: random.Random) -> model.SharedGroup | None:
    return maybe(rng, 0.25, lambda: model.SharedGroup(text(rng, 1, 12)))


def metric(rng: random.Random, undetectability: bool = False) -> model.ChannelCharacteristic:
    return model.ChannelCharacteristic(
        presence=rng.choice(list(model.Presence)),
        value=maybe(rng, 0.4, lambda: text(rng)),
        refers_to_countermeasures=undetectability and rng.random() < 0.3,
        shared=shared(rng),
        text=maybe(rng, 0.5, lambda: text(rng)),
    )


def pattern(rng: random.Random, paths: list[PatternPath]) -> model.PatternAssignment:
    roll = rng.random()
    if roll < 0.1:
        return model.PatternAssignment(
            path=UNASSIGNED,
            justifications=tuple(
                model.Justification(name(rng), text(rng))
                for _ in range(rng.randint(0, 2))
            ),
        )
    if roll < 0.25:
        # A made-up path that will not resolve against the seed catalog.
        path = PatternPath(elements=tuple(name(rng) for _ in range(rng.randint(1, 4))))
    else:
        path = rng.choice(paths)
    elements = list(path.elements)
    rng.shuffle(elements)
    count = rng.randint(0, len(elements))
    justifications = tuple(
        model.Justification(element, text(rng)) for element in elements[:count]
    )
    return model.PatternAssignment(path=path, justifications=justifications)


def binding(rng: random.Random) -> model.CarrierBinding:
    kind = rng.choice(list(model.BindingKind))
    if kind is model.BindingKind.SINGLE_PROTOCOL:
        return model.CarrierBinding(kind, (text(rng, 2, 10),))
    if kind is model.BindingKind.PROTOCOL_SET:
        return model.CarrierBinding(
            kind, tuple(text(rng, 2, 10) for _ in range(rng.randint(2, 4)))
        )
    if kind is model.BindingKind.FEATURE_BASED:
        return model.CarrierBinding(
            kind, tuple(text(rng, 2, 10) for _ in range(rng.randint(1, 3)))
        )
    return model.CarrierBinding(kind)


def directness(rng: random.Random) -> model.Directness:
    kind = rng.choice(list(model.DirectnessKind))
    if kind is model.DirectnessKind.INDIRECT:
        return model.Directness(kind, text(rng))
    return model.Directness(kind)


def countermeasure(rng: random.Random) -> model.CountermeasureEntry:
    return model.CountermeasureEntry(
        kind=rng.choice(list(model.CountermeasureKind)),
        applicability=rng.choice(list(model.Applicability)),
        evaluated=rng.random() < 0.4,
        limitations=maybe(rng, 0.3, lambda: text(rng)),
        text=maybe(rng, 0.7, lambda: text(rng)),
    )


def description(rng: random.Random, paths: list[PatternPath],
                method_name: str | None = None) -> model.MethodDescription:
    scenarios = rng.sample(list(model.ChannelScenario),
                           rng.randint(1, len(model.ChannelScenario)))
    control_presence = rng.choice(list(model.Presence))
    features = frozenset(
        rng.sample(list(model.ControlFeature),
                   rng.randint(0, len(model.ControlFeature)))
    ) if control_presence is not model.Presence.ABSENT else frozenset()
    return model.MethodDescription(
        name=method_name or text(rng, 1, 30),
        source=maybe(rng, 0.7, lambda: text(rng, 1, 15)),
        year=maybe(rng, 0.7, lambda: rng.randint(1980, 2100)),
        pattern=pattern(rng, paths),
        scenario=maybe(rng, 0.8, lambda: model.ApplicationScenario(
            presence=rng.choice(list(model.Presence)),
            purpose=maybe(rng, 0.8, lambda: rng.choice(list(model.Purpose))),
            shared=shared(rng),
            text=maybe(rng, 0.6, lambda: text(rng)),
        )),
        carrier=model.CarrierRequirements(
            presence=rng.choice(list(model.Presence)),
            binding=binding(rng),
            conditions=tuple(text(rng) for _ in range(rng.randint(0, 3))),
            shared=shared(rng),
            text=maybe(rng, 0.5, lambda: text(rng)),
        ),
        sender=model.SenderProcess(
            relation=rng.choice(list(model.Relation)),
            location=rng.choice(list(model.Location)),
            data_location=rng.choice(list(model.Location)),
            generates_cover=rng.choice(list(model.Tristate)),
            text=maybe(rng, 0.5, lambda: text(rng)),
        ),
        receiver=model.ReceiverProcess(
            location=rng.choice(list(model.Location)),
            text=maybe(rng, 0.5, lambda: text(rng)),
        ),
        channel=model.ChannelProperties(
            scenarios=frozenset(scenarios),
            directness=directness(rng),
            bandwidth=metric(rng),
            undetectability=metric(rng, undetectability=True),
            robustness=metric(rng),
            cost=metric(rng),
        ),
        control_protocol=maybe(rng, 0.5, lambda: model.ControlProtocol(
            presence=control_presence,
            features=features,
            text=maybe(rng, 0.5, lambda: text(rng)),
        )),
        countermeasures=tuple(countermeasure(rng)
                              for _ in range(rng.randint(0, 5))),
        warden=maybe(rng, 0.4, lambda: model.WardenProfile(
            placement=rng.choice(list(model.Location)),
            state=rng.choice(list(model.WardenState)),
            activity=rng.choice(list(model.WardenActivity)),
        )),
    )


def document(rng: random.Random, paths: list[PatternPath] | None = None) -> dsl.Document:
    if paths is None:
        paths = list_leaves(seed_catalog())
    count = rng.randint(1, 3)
    methods = tuple(
        description(rng, paths, method_name=f"method-{i}-{text(rng, 1, 12)}")
        for i in range(count)
    )
    return dsl.Document(methods=methods)
