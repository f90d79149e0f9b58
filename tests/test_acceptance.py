"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria:
  1  byte-exact chain rendering for the three reference pattern paths
  2  clean fixtures + one mutation per validation rule, exact codes
  3  1,000-document serialize/parse round-trip, idempotent serializer
  4  parser totality over 10,000 byte-level fixture mutations, and
     closure: each mutant that parses serializes and parses back
  5  coverage ratios of the 131-method synthetic corpus, one-decimal exact
  6  histogram conservation (130 assigned + 1 unassigned)
  7  comparison-matrix reproduction of the four jointly-described methods
  8  review-workflow model check (optimization step reachability)
  9  catalog-extension fixpoint over 100 random accepted proposals
 10  byte-identical reruns of stats and index building
"""

import dataclasses
import hashlib
import itertools
import random
import shutil
import time
from collections import Counter
from fractions import Fraction

import pytest

from nihdl import analyze, dsl, model, novelty, store
from nihdl.diagnostics import Severity
from nihdl.taxonomy import (
    PatternPath,
    UNASSIGNED,
    list_leaves,
    render_chain,
    resolve_path,
    ResolutionKind,
    seed_catalog,
)
from nihdl.validate import ValidationMode, validate, validate_document

from conftest import (
    CATALOG_FILE,
    DHCP_FILE,
    GAP_FILE,
    SYNTHETIC_DIR,
    JOINT_FILE,
    parse_fixture,
)
from randgen import description, document

LSB_PATH = PatternPath((
    "Network Covert Storage Channels",
    "Modification of Non-Payload",
    "Structure Preserving",
    "Modification of an Attribute",
    "Value Modulation",
    "Least Significant Bit (LSB)",
))
TIMING_PATH = PatternPath((
    "Network Covert Timing Channels", "Inter-arrival Time Pattern"
))
DHCP_PATH = PatternPath((
    "Network Covert Storage Channels",
    "Modification of Non-Payload",
    "Structure Modifying",
    "Sequence Pattern",
    "Number of Elements Pattern",
))

LSB_BLOCK = """\
Network Covert Storage Channels
`-- Modification of Non-Payload
    `-- Structure Preserving
        `-- Modification of an Attribute
            `-- Value Modulation
                `-- Least Significant Bit (LSB)"""

TIMING_BLOCK = """\
Network Covert Timing Channels
`-- Inter-arrival Time Pattern"""

DHCP_BLOCK = """\
Network Covert Storage Channels
`-- Modification of Non-Payload
    `-- Structure Modifying
        `-- Sequence Pattern
            `-- Number of Elements Pattern"""


def test_c01_golden_chain_rendering():
    started = time.perf_counter()
    assert render_chain(LSB_PATH) == LSB_BLOCK
    assert len(LSB_BLOCK.split("\n")) == 6
    assert LSB_BLOCK.split("\n")[-1].startswith(" " * 16 + "`-- ")
    assert render_chain(TIMING_PATH) == TIMING_BLOCK
    assert len(TIMING_BLOCK.split("\n")) == 2
    assert render_chain(DHCP_PATH) == DHCP_BLOCK
    assert len(DHCP_BLOCK.split("\n")) == 5
    assert time.perf_counter() - started < 1.0
    print("PASS criterion 1: golden chain rendering (byte-exact)")


def _error_codes(diags):
    return sorted(d.code for d in diags if d.severity is Severity.ERROR)


def _mutations(gap, dhcp):
    """(rule, mutated description or document, exact expected codes)."""
    def pattern_with(path, justify_all=True):
        justifications = tuple(
            model.Justification(e, f"because {e}") for e in path.elements
        ) if justify_all else ()
        return model.PatternAssignment(path=path, justifications=justifications)

    def chan(m, **kw):
        return dataclasses.replace(m, channel=dataclasses.replace(m.channel, **kw))

    elimination, limitation, detection = gap.countermeasures
    yield "E110", dataclasses.replace(gap, pattern=pattern_with(
        PatternPath(("Network Covert Storage Channels",
                     "Inter-arrival Time Pattern"))))
    yield "E111", dataclasses.replace(gap, pattern=pattern_with(
        PatternPath.from_text("Network Covert Storage Channels")))
    yield "E112", dataclasses.replace(
        gap, pattern=model.PatternAssignment(path=UNASSIGNED))
    yield "E120", chan(gap, directness=model.Directness(model.DirectnessKind.INDIRECT, ""))
    yield "E130", chan(gap, bandwidth=None)
    yield "E140", dataclasses.replace(
        gap, countermeasures=(elimination, limitation))
    yield "E141", dataclasses.replace(gap, countermeasures=(
        dataclasses.replace(elimination,
                            applicability=model.Applicability.NOT_APPLICABLE,
                            text="cannot be removed, only perturbed"),
        detection,
    ))
    yield "E142", dataclasses.replace(gap, countermeasures=(
        dataclasses.replace(elimination,
                            applicability=model.Applicability.NOT_APPLICABLE,
                            text=None),
        limitation, detection,
    ))
    yield "E150", dsl.Document(methods=(gap, gap))
    yield "W200", dataclasses.replace(gap, pattern=dataclasses.replace(
        gap.pattern, justifications=gap.pattern.justifications[:1]))
    yield "W201", dataclasses.replace(dhcp, scenario=dataclasses.replace(
        dhcp.scenario, text=None))
    yield "W202", dataclasses.replace(gap, countermeasures=(
        elimination, dataclasses.replace(limitation, limitations=None), detection))
    yield "W203", dataclasses.replace(
        chan(gap, undetectability=model.ChannelCharacteristic(model.Presence.ABSENT)),
        countermeasures=(elimination, limitation))
    yield "W210", dataclasses.replace(gap, sender=dataclasses.replace(
        gap.sender, relation=model.Relation.UNSPECIFIED))
    yield "E210", dataclasses.replace(gap, sender=dataclasses.replace(
        gap.sender, relation=model.Relation.UNSPECIFIED))
    yield "E211", dataclasses.replace(gap, scenario=None)
    yield "I300", chan(gap, robustness=model.ChannelCharacteristic(
        model.Presence.ABSENT))


def test_c02_fixture_validation_and_rule_codes():
    started = time.perf_counter()
    catalog = seed_catalog()
    gap_doc = parse_fixture(GAP_FILE)
    dhcp_doc = parse_fixture(DHCP_FILE)
    for doc in (gap_doc, dhcp_doc):
        diags = validate_document(doc, catalog, ValidationMode.SURVEY)
        assert _error_codes(diags) == [], [d.render() for d in diags]

    gap, dhcp = gap_doc.methods[0], dhcp_doc.methods[0]
    checked = 0
    for rule, mutated in _mutations(gap, dhcp):
        mode = ValidationMode.STRICT if rule in ("E210", "E211") else \
            ValidationMode.SURVEY
        if isinstance(mutated, dsl.Document):
            diags = validate_document(mutated, catalog, mode)
        else:
            diags = validate(mutated, catalog, mode)
        codes = [d.code for d in diags]
        assert rule in codes, (rule, codes)
        if rule.startswith("E"):
            # The single-field mutation triggers exactly its own rule,
            # except W203's companion: absent detection always implies E140.
            assert _error_codes(diags) == [rule], (rule, codes)
        checked += 1
    assert checked >= 12
    assert time.perf_counter() - started < 1.0
    print(f"PASS criterion 2: clean fixtures + {checked} rule mutations, exact codes")


def test_c03_round_trip_1000_documents():
    started = time.perf_counter()
    rng = random.Random(20160131)
    descriptions = 0
    documents = 0
    while descriptions < 1000:
        doc = document(rng)
        text = dsl.serialize(doc)
        parsed, diags = dsl.parse_description(text, "generated")
        assert parsed is not None, [d.render() for d in diags]
        assert parsed == dsl.Document(tuple(map(model.normalize, doc.methods)))
        assert dsl.serialize(parsed) == text
        descriptions += len(doc.methods)
        documents += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS criterion 3: {descriptions} descriptions round-tripped in "
          f"{documents} documents ({elapsed:.1f}s)")


def _c04_mutants():
    """The c04 stream: 10,000 byte-level mutations of the fixtures (seed
    424242), each yielded as (text, parse function)."""
    rng = random.Random(424242)
    corpora = [
        (GAP_FILE.read_bytes(), dsl.parse_description),
        (DHCP_FILE.read_bytes(), dsl.parse_description),
        (JOINT_FILE.read_bytes(), dsl.parse_description),
        (CATALOG_FILE.read_bytes(), dsl.parse_catalog),
    ]
    for i in range(10_000):
        base, parse = corpora[i % len(corpora)]
        data = bytearray(base)
        for _ in range(rng.randint(1, 12)):
            op = rng.randrange(4)
            pos = rng.randrange(len(data) + 1)
            if op == 0 and pos < len(data):
                data[pos] = rng.randrange(256)
            elif op == 1 and pos < len(data):
                del data[pos]
            elif op == 2:
                data.insert(pos, rng.randrange(256))
            else:
                cut = rng.randrange(1, 32)
                data[pos:pos + cut] = data[pos:pos + cut] * 2
        yield bytes(data).decode("utf-8", errors="replace"), parse


@pytest.fixture(scope="module")
def c04_stream():
    """The c04 stream walked once for its three tests: per mutant, the
    parse time, whether it parsed, its diagnostics, and its text if it
    parsed but did not serialize and parse back to its normalized value."""
    walked = []
    for text, parse in _c04_mutants():
        t0 = time.perf_counter()
        value, diags = parse(text, "mutant")
        dt = time.perf_counter() - t0
        broken = None
        if value is not None:
            if parse is dsl.parse_catalog:
                again, again_diags = dsl.parse_catalog(dsl.serialize_catalog(value), "again")
            else:
                again, again_diags = dsl.parse_description(dsl.serialize(value), "again")
                value = dsl.Document(tuple(map(model.normalize, value.methods)))
            if again_diags or again != value:
                broken = text
        walked.append((dt, value is not None, diags, broken))
    return walked


def test_c04_parser_totality_10000_mutations(c04_stream):
    worst = 0.0
    for dt, parsed, diags, _ in c04_stream:
        worst = max(worst, dt)
        assert dt < 0.1, f"slow parse: {dt * 1000:.1f} ms"
        assert parsed != bool(diags)
        for diag in diags:
            assert diag.location is not None
    assert len(c04_stream) == 10_000
    print(f"PASS criterion 4: 10,000 mutations parsed, worst case "
          f"{worst * 1000:.1f} ms")


def test_c04_closure_of_parsed_mutants(c04_stream):
    """Whatever parses serializes and parses back to its normalized value."""
    parsed = 0
    for _, did_parse, _, broken in c04_stream:
        if did_parse:
            parsed += 1
            assert broken is None, broken
    # The count pins the stream: a shrunk or re-seeded stream fails here.
    assert parsed == 1176
    print(f"PASS criterion 4 closure: {parsed} parsed mutants round-tripped")


def test_c04_diagnostics_of_mutants_are_pinned(c04_stream):
    """The diagnostics of the c04 stream, byte for byte: a digest over every
    rendered diagnostic and the count per code. A parser rewrite that keeps
    behaviour keeps both."""
    digest = hashlib.sha256()
    per_code: Counter[str] = Counter()
    for _, _, diags, _ in c04_stream:
        for diag in diags:
            digest.update((diag.render() + "\n").encode())
            per_code[diag.code] += 1
    assert per_code == {"E001": 6759, "E002": 1388, "E003": 23, "E004": 603, "E005": 51}
    assert digest.hexdigest() == (
        "6af8081c3940892b6c5bc1f3c948e524be778737a747faeaebebf39e4c4be8e7")


def _synthetic_methods():
    corpus = store.open_corpus(SYNTHETIC_DIR)
    documents, diags = store.load_all(corpus)
    assert diags == [], [d.render() for d in diags]
    return [m for doc in documents for m in doc.methods]


def test_c05_synthetic_corpus_coverage_ratios():
    started = time.perf_counter()
    methods = _synthetic_methods()
    assert len(methods) == 131
    stats = analyze.corpus_stats(methods, seed_catalog())

    expected = {
        # Exact rationals from the coded marginals. Coarser roundings of
        # the scenario and countermeasure ratios (78%, 58%) circulate in
        # summary write-ups; the counts are authoritative and render as
        # 79.4 and 51.9 at one decimal.
        model.TrackedAttribute.APPLICATION_SCENARIO: (74, 30, Fraction(104, 131), "79.4"),
        model.TrackedAttribute.CARRIER_REQUIREMENTS: (74, 14, Fraction(88, 131), "67.2"),
        model.TrackedAttribute.COUNTERMEASURES: (55, 13, Fraction(68, 131), "51.9"),
        model.TrackedAttribute.BANDWIDTH: (56, 13, Fraction(69, 131), "52.7"),
        model.TrackedAttribute.ROBUSTNESS: (19, 10, Fraction(29, 131), "22.1"),
        model.TrackedAttribute.CONTROL_PROTOCOL: (4, 3, Fraction(7, 131), "5.3"),
    }
    for attr, (full, partial, ratio, pct) in expected.items():
        counts = stats.attributes[attr]
        assert (counts.full, counts.partial) == (full, partial), attr
        assert counts.covered_ratio == ratio, attr
        assert counts.covered_percent() == pct, attr
    assert time.perf_counter() - started < 5.0
    print("PASS criterion 5: synthetic-corpus ratios 79.4 / 67.2 / 51.9 / "
          "52.7 / 22.1 / 5.3")


def test_c06_histogram_conservation():
    methods = _synthetic_methods()
    stats = analyze.corpus_stats(methods, seed_catalog())
    assert sum(stats.histogram.values()) == 130
    assert stats.unassigned == 1
    assert sum(stats.histogram.values()) + stats.unassigned == stats.total
    print("PASS criterion 6: histogram conservation (130 assigned + 1 unassigned)")


JOINT_COLUMNS = [
    "application-scenario", "carrier-requirements", "countermeasures",
    "relation", "directness", "robustness", "bandwidth",
]

# Published table cells per method; empty table cells denote a combined
# span and repeat the shared value here, one row per method.
JOINT_EXPECTED = [
    ["Yes,combined", "Par", "Yes", "No", "No", "Yes", "Yes"],
    ["Yes,combined", "Par", "Par", "Yes", "Par", "Yes", "Par"],
    ["Yes,combined", "Par,combined", "No", "No", "No", "Par,combined", "Par,combined"],
    ["Yes,combined", "Par,combined", "No", "No", "No", "Par,combined", "Par,combined"],
]


def test_c07_comparison_matrix_reproduction():
    methods = list(parse_fixture(JOINT_FILE).methods)
    assert [m.name for m in methods] == [
        "Link quality", "Sensor data", "SDP o-tag", "SDP a-tag",
    ]
    matrix = analyze.comparison_matrix(methods, JOINT_COLUMNS)
    assert matrix == JOINT_EXPECTED
    print("PASS criterion 7: 4x7 comparison matrix cells exact")


def test_c08_workflow_model_check():
    big = novelty.WorkflowState(novelty.WorkflowStage.PUBLISHED,
                                novelty.ContributionKind.BIG_C)
    small = novelty.WorkflowState(novelty.WorkflowStage.PUBLISHED,
                                  novelty.ContributionKind.SMALL_C)
    states = [
        novelty.WorkflowState(stage)
        for stage in novelty.WorkflowStage
        if stage is not novelty.WorkflowStage.PUBLISHED
    ] + [big, small]

    edges = {}
    for state, event in itertools.product(states, novelty.WorkflowEvent):
        try:
            edges[(state, event)] = novelty.advance(state, event)
        except novelty.UndefinedTransitionError:
            pass

    predecessors_of_big = {s for (s, _), t in edges.items() if t == big}
    predecessors_of_small = {s for (s, _), t in edges.items() if t == small}
    optimization = novelty.WorkflowState(novelty.WorkflowStage.PATTERN_OPTIMIZATION)
    # Big-C publication is reachable only through pattern optimization,
    # whose only continuation is that publication.
    assert predecessors_of_big == {optimization}
    successors_of_optimization = {t for (s, _), t in edges.items() if s == optimization}
    assert successors_of_optimization == {big}
    # Small-c publication comes straight from review and can never have
    # passed optimization (optimization cannot reach review again).
    assert predecessors_of_small == {
        novelty.WorkflowState(novelty.WorkflowStage.UNDER_REVIEW)
    }
    assert all(t == big for (s, _), t in edges.items() if s == optimization)
    # Published states are terminal.
    for terminal in (big, small):
        assert not any(s == terminal for (s, _) in edges)
    # Exhaustive path enumeration from the initial state over simple paths
    # confirms the traversal property end to end.
    initial = novelty.WorkflowState(novelty.WorkflowStage.PATTERN_DATABASE_READY)
    stack = [(initial, (initial,))]
    paths_to_big = paths_to_small = 0
    while stack:
        state, path = stack.pop()
        for event in novelty.WorkflowEvent:
            target = edges.get((state, event))
            if target is None:
                continue
            if target in path:  # cycle (review rejection); already covered
                continue
            new_path = path + (target,)
            if target == big:
                paths_to_big += 1
                assert optimization in new_path
            elif target == small:
                paths_to_small += 1
                assert optimization not in new_path
            else:
                stack.append((target, new_path))
    assert paths_to_big >= 1 and paths_to_small >= 1
    print(f"PASS criterion 8: workflow model check "
          f"({len(edges)} defined transitions, {paths_to_big} Big-C and "
          f"{paths_to_small} small-c simple paths)")


def _node_paths(catalog):
    """Every root-to-node path, depth-first: the prefixes of the leaf
    paths in first-seen order."""
    return list(dict.fromkeys(
        PatternPath(leaf.elements[:i])
        for leaf in list_leaves(catalog)
        for i in range(1, len(leaf.elements) + 1)
    ))


def test_c09_catalog_extension_fixpoint():
    rng = random.Random(1309)
    catalog = seed_catalog()
    original_leaves = list_leaves(catalog)
    base = parse_fixture(GAP_FILE).methods[0]
    for i in range(100):
        parent = rng.choice(_node_paths(catalog))
        name = f"Proposed Pattern {i:03d}"
        path = PatternPath(elements=parent.elements + (name,))
        draft = dataclasses.replace(
            base,
            pattern=model.PatternAssignment(
                path=path,
                justifications=tuple(
                    model.Justification(e, f"matches {e}") for e in path.elements
                ),
            ),
        )
        verdict = novelty.assess(draft, catalog)
        assert isinstance(verdict, novelty.BigCCandidate), verdict
        assert verdict.proposed_name == name
        before = {p: resolve_path(catalog, p).kind for p in _node_paths(catalog)}
        catalog = novelty.accept_big_c(catalog, verdict)
        reassessed = novelty.assess(draft, catalog)
        assert isinstance(reassessed, novelty.SmallC)
        # Previously resolvable paths still resolve to the same nodes;
        # only the accepted parent may change from leaf to internal
        # (extending under a leaf deepens the hierarchy there).
        for node_path, prior_kind in before.items():
            resolution = resolve_path(catalog, node_path)
            assert resolution.kind is not ResolutionKind.NOT_FOUND
            assert resolution.node.name == node_path.elements[-1]
            if node_path != parent:
                assert resolution.kind is prior_kind
            elif prior_kind is ResolutionKind.LEAF:
                assert resolution.kind is ResolutionKind.INTERNAL
    for leaf in original_leaves:
        assert resolve_path(catalog, leaf).kind is not ResolutionKind.NOT_FOUND
    print("PASS criterion 9: 100 accepted proposals, reassessment small-c, "
          "prior resolutions stable")


def test_c10_determinism(tmp_path, capsys):
    from nihdl.cli import main

    corpus_root = tmp_path / "corpus"
    shutil.copytree(SYNTHETIC_DIR, corpus_root)

    outputs = []
    for _ in range(2):
        code = main(["stats", str(corpus_root), "--by-year", "--patterns"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]

    corpus = store.open_corpus(corpus_root)
    catalog = seed_catalog()
    store.build_index(corpus, catalog)
    first = (corpus_root / "index.tsv").read_bytes()
    store.build_index(corpus, catalog)
    second = (corpus_root / "index.tsv").read_bytes()
    assert first == second
    print("PASS criterion 10: stats and index reruns byte-identical")
