"""Seeded inputs for the benchmark: catalogs, description files and the
values the workloads check against.

    python3 perfbench/generate.py --workload survey --seed 1 --size 86 --out DIR

writes the inputs of one workload under DIR and, in ``DIR/expected.json``,
their digest and what the checks need: counts, tallies and a fingerprint
of the model value each file must parse to. The benchmark runs this in a
child process, so the process it measures holds none of the generator's
data.

Text is written by this module's own emitter, never by nihdl's
serializer, so both commits of a comparison read the same bytes. A
method is first drawn as a plain dict of file tokens (a "spec"); the
emitter turns specs into description text in one of several layouts,
and ``build_method`` turns a spec into the ``nihdl.model`` value the
parser must produce. While drawing, ``Tally`` keeps the counts the
workloads check the program against.

Where the published survey gives a share, the generator deals it from a
deck: presence of the six tracked attributes, the unassigned share,
methods per publication and per file (see ``MARGINALS`` and the decks
below). Shares the survey does not give are assumptions, named where
they are set.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

TRACKED = (
    "application-scenario",
    "carrier-requirements",
    "countermeasures",
    "bandwidth",
    "robustness",
    "control-protocol",
)
PRESENCES = ("full", "partial", "absent")
SCORE = {"full": Fraction(1), "partial": Fraction(1, 2), "absent": Fraction(0)}

PURPOSES = ("general-purpose", "anonymization-breaking", "port-knocking",
            "traceback-watermarking", "game-cheating", "malware-c2-exfiltration", "other")
RELATIONS = ("1:1", "1:m", "n:1", "n:m", "unspecified")
LOCATIONS = ("centralized", "distributed", "unspecified")
TRISTATES = ("true", "false", "unspecified")
SCENARIOS = ("end-to-end", "mitm", "hybrid")
FEATURES = ("reliability", "peer-discovery", "dynamic-routing", "session-management",
            "adaptiveness", "app-layer")
CM_KINDS = ("elimination", "limitation", "detection", "protocol-revision")
WARDEN_STATES = ("stateful", "stateless", "unspecified")
WARDEN_ACTIVITIES = ("active", "passive", "unspecified")
METRICS = ("bandwidth", "undetectability", "robustness", "cost")
PROTOCOLS = ("IPv4", "IPv6", "TCP", "UDP", "DNS", "HTTP", "DHCP", "ICMP", "RTP", "TLS")

WORDS = (
    "packet", "timing", "header", "field", "covert", "sender", "receiver", "warden",
    "noise", "jitter", "TTL", "identifier", "checksum", "payload", "cover", "traffic",
    "inter-arrival", "gap", "order", "sequence", "option", "flag", "reserved", "bit",
    "retransmission", "loss", "rate", "normalizer", "middlebox", "firewall", "proxy",
    "Größe", "naïve", "µs", "—", "é", "λ", "x/y", "#hash", "{brace}", "[list]",
    '"quoted"', "back\\slash", "a:b", "1:1", "50%", "(note)", "...",
)

ROOTS = (
    ("Network Covert Storage Channels", "Storage Pattern "),
    ("Network Covert Timing Channels", "Timing Pattern "),
    ("Network Covert Hybrid Channels", "Hybrid Pattern "),
)


def phrase(rng: random.Random, lo: int = 3, hi: int = 14) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def maybe(rng: random.Random, p: float, make):
    return make() if rng.random() < p else None


def digest(files: list[tuple[str, bytes]]) -> str:
    """SHA-256 over (relative path, bytes) pairs in the given order."""
    h = hashlib.sha256()
    for rel, data in files:
        h.update(rel.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

class Catalog:
    """A drawn pattern tree: ``tree`` is a tuple of (name, children) pairs."""

    def __init__(self, rng: random.Random, label: str) -> None:
        self.label = label
        self.tree = tuple(self._grow(rng, root, prefix, 0) for root, prefix in ROOTS)
        self.leaves: list[tuple[str, ...]] = []
        self.internals: list[tuple[str, ...]] = []
        self._walk(self.tree, ())

    def _grow(self, rng, name, prefix, depth):
        if depth >= 3 or (depth >= 2 and rng.random() < 0.35):
            return (name, ())
        names = [f"{prefix}{i + 1}" for i in range(rng.randint(2, 3))]
        return (name, tuple(self._grow(rng, n, n + ".", depth + 1) for n in names))

    def _walk(self, nodes, prefix):
        for name, children in nodes:
            chain = prefix + (name,)
            if children:
                self.internals.append(chain)
                self._walk(children, chain)
            else:
                self.leaves.append(chain)

    def text(self, rng: random.Random) -> str:
        indent = rng.choice(("  ", "    ", "\t"))
        lines = [f"# generated pattern catalog {self.label}", f"catalog {q(self.label)} {{"]

        def emit(nodes, depth):
            for name, children in nodes:
                pad = indent * depth
                if children:
                    lines.append(f"{pad}node {q(name)} {{")
                    emit(children, depth + 1)
                    lines.append(pad + "}")
                else:
                    lines.append(f"{pad}node {q(name)} {{}}")

        emit(self.tree, 1)
        lines.append("}")
        return "\n".join(lines) + "\n"


def path_text(path: tuple[str, ...] | None) -> str:
    return "unassigned" if path is None else " / ".join(path)


# ---------------------------------------------------------------------------
# Drawing method specs
# ---------------------------------------------------------------------------

def draw_method(rng: random.Random, name: str, source, year, path, labels,
                status: dict[str, str]) -> dict:
    """One method as file tokens. ``path`` is a tuple of elements or None
    (unassigned); ``labels`` is the publication's shared-label pool;
    ``status`` is the presence dealt to each tracked attribute. Everything
    else is drawn uniformly or with an assumed share: the survey counts
    none of it."""
    if path is None:
        justify = [("scope", phrase(rng))] if rng.random() < 0.9 else []
    else:
        justify = [(e, phrase(rng)) for e in path if rng.random() < 0.5]
        rng.shuffle(justify)

    def shared():
        return rng.choice(labels) if labels and rng.random() < 0.35 else None

    scenario = None
    if status["application-scenario"] != "absent" or rng.random() < 0.2:
        scenario = {
            "status": status["application-scenario"],
            "purpose": maybe(rng, 0.8, lambda: rng.choice(PURPOSES)),
            "shared": shared(),
            "text": maybe(rng, 0.5, lambda: phrase(rng)),
        }
    binding_kind = rng.choice(("unspecified", "generic", "single-protocol",
                               "protocol-set", "feature-based"))
    names = {
        "single-protocol": lambda: [rng.choice(PROTOCOLS)],
        "protocol-set": lambda: rng.sample(PROTOCOLS, rng.randint(2, 3)),
        "feature-based": lambda: [phrase(rng, 1, 3) for _ in range(rng.randint(1, 2))],
    }.get(binding_kind, lambda: [])()
    carrier = {
        "status": status["carrier-requirements"],
        "binding": (binding_kind, names),
        "conditions": [phrase(rng) for _ in range(rng.randint(0, 2))],
        "shared": shared(),
        "text": maybe(rng, 0.4, lambda: phrase(rng)),
    }
    sender = {
        "relation": rng.choice(RELATIONS),
        "location": rng.choice(LOCATIONS),
        "data-location": rng.choice(LOCATIONS),
        "generates-cover": rng.choice(TRISTATES),
        "text": maybe(rng, 0.5, lambda: phrase(rng)),
    }
    receiver = {"location": rng.choice(LOCATIONS), "text": maybe(rng, 0.4, lambda: phrase(rng))}
    directness = rng.choice(("direct", "direct", "indirect", "unspecified"))
    requirements = ""
    if directness == "indirect" and rng.random() < 0.8:
        requirements = phrase(rng)
    metrics = {}
    for metric in METRICS:
        metrics[metric] = {
            "status": status.get(metric) or rng.choice(PRESENCES),
            "value": maybe(rng, 0.6 if metric == "bandwidth" else 0.2,
                           lambda: f"{rng.randint(1, 900)} bits per second"),
            "ref": metric == "undetectability" and rng.random() < 0.3,
            "shared": shared() if metric in ("bandwidth", "robustness") else None,
            "text": maybe(rng, 0.3, lambda: phrase(rng)),
        }
    control = None
    presence = status["control-protocol"]
    if presence != "absent" or rng.random() < 0.05:
        control = {
            "status": presence,
            "features": [] if presence == "absent" else rng.sample(FEATURES, rng.randint(0, 3)),
            "text": maybe(rng, 0.3, lambda: phrase(rng)),
        }
    # Countermeasures are full when an entry was evaluated, partial when
    # entries exist but none was, absent without entries.
    presence = status["countermeasures"]
    entries = [
        {
            "type": rng.choice(CM_KINDS),
            "applicability": rng.choice(("applicable", "applicable", "not-applicable")),
            "evaluated": presence == "full" and rng.random() < 0.5,
            "limitations": maybe(rng, 0.5, lambda: phrase(rng)),
            "text": maybe(rng, 0.6, lambda: phrase(rng)),
        }
        for _ in range(0 if presence == "absent" else rng.randint(1, 4))
    ]
    if presence == "full" and not any(e["evaluated"] for e in entries):
        rng.choice(entries)["evaluated"] = True
    warden = None
    if rng.random() < 0.3:
        warden = (rng.choice(LOCATIONS), rng.choice(WARDEN_STATES), rng.choice(WARDEN_ACTIVITIES))
    return {
        "name": name, "source": source, "year": year, "path": path, "justify": justify,
        "scenario": scenario, "carrier": carrier, "sender": sender, "receiver": receiver,
        "scenarios": rng.sample(SCENARIOS, rng.randint(1, 3)),
        "directness": (directness, requirements), "metrics": metrics,
        "control": control, "entries": entries, "warden": warden,
    }


def presences(spec: dict) -> dict[str, tuple[str, str | None]]:
    """Tracked attribute -> (presence, shared label), as nihdl defines them."""
    scenario = spec["scenario"]
    entries = spec["entries"]
    if not entries:
        cm = "absent"
    elif any(e["evaluated"] for e in entries):
        cm = "full"
    else:
        cm = "partial"
    metrics = spec["metrics"]
    control = spec["control"]
    return {
        "application-scenario": ("absent", None) if scenario is None
        else (scenario["status"], scenario["shared"]),
        "carrier-requirements": (spec["carrier"]["status"], spec["carrier"]["shared"]),
        "countermeasures": (cm, None),
        "bandwidth": (metrics["bandwidth"]["status"], metrics["bandwidth"]["shared"]),
        "robustness": (metrics["robustness"]["status"], metrics["robustness"]["shared"]),
        "control-protocol": ("absent" if control is None else control["status"], None),
    }


def directness_cell(spec: dict) -> str:
    kind, requirements = spec["directness"]
    if kind == "unspecified":
        return "No"
    return "Par" if kind == "indirect" and not requirements.strip() else "Yes"


# ---------------------------------------------------------------------------
# Emitting description text
# ---------------------------------------------------------------------------

def q(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def method_block(spec: dict) -> tuple[str, list]:
    """The method as nested (head, items) blocks; items are strings or blocks.
    Countermeasure entries and justifications go out in canonical order."""
    path = spec["path"]
    pattern = ["path: unassigned" if path is None else f"path: {q(path_text(path))}"]
    justify = spec["justify"]
    if path is not None:
        justify = sorted(justify, key=lambda j: path.index(j[0]))
    pattern += [f"justify {q(e)}: {q(r)}" for e, r in justify]
    general = [("pattern", pattern)]
    scenario = spec["scenario"]
    if scenario is not None:
        items = [f"status: {scenario['status']}"]
        if scenario["purpose"]:
            items.append(f"purpose: {scenario['purpose']}")
        items += _shared_text(scenario)
        general.append(("application-scenario", items))
    carrier = spec["carrier"]
    items = [f"status: {carrier['status']}"]
    kind, names = carrier["binding"]
    if kind in ("generic", "unspecified"):
        items.append(f"binding: {kind}")
    else:
        items.append(f"binding: {kind}({', '.join(q(n) for n in names)})")
    items += [f"condition: {q(c)}" for c in carrier["conditions"]]
    items += _shared_text(carrier)
    general.append(("carrier-requirements", items))

    sender = spec["sender"]
    process = [
        ("sender", [f"{k}: {sender[k]}" for k in
                    ("relation", "location", "data-location", "generates-cover")]
         + _text(sender)),
        ("receiver", [f"location: {spec['receiver']['location']}"] + _text(spec["receiver"])),
    ]
    kind, requirements = spec["directness"]
    channel = [
        f"scenario: [{', '.join(spec['scenarios'])}]",
        f"directness: indirect({q(requirements)})" if kind == "indirect"
        else f"directness: {kind}",
    ]
    for metric in METRICS:
        m = spec["metrics"][metric]
        items = [f"status: {m['status']}"]
        if m["value"] is not None:
            items.append(f"value: {q(m['value'])}")
        if m["ref"]:
            items.append("ref: countermeasures")
        items += _shared_text(m)
        channel.append((metric, items))
    process.append(("channel", channel))
    control = spec["control"]
    if control is not None:
        process.append(("control-protocol", [f"status: {control['status']}"]
                        + [f"feature: {f}" for f in control["features"]]
                        + _text(control)))
    counter = []
    for e in sorted(spec["entries"], key=lambda e: CM_KINDS.index(e["type"])):
        items = [f"type: {e['type']}", f"applicability: {e['applicability']}",
                 f"evaluated: {'true' if e['evaluated'] else 'false'}"]
        if e["limitations"] is not None:
            items.append(f"limitations: {q(e['limitations'])}")
        items += _text(e)
        counter.append(("entry", items))
    if spec["warden"] is not None:
        placement, state, activity = spec["warden"]
        counter.append(("warden", [f"placement: {placement}", f"state: {state}",
                                   f"activity: {activity}"]))
    body = []
    if spec["source"] is not None:
        body.append(f"source: {q(spec['source'])}")
    if spec["year"] is not None:
        body.append(f"year: {spec['year']}")
    body += [("general", general), ("process", process), ("countermeasures", counter)]
    return (f"method {q(spec['name'])}", body)


def _text(part: dict) -> list[str]:
    return [] if part["text"] is None else [f"text: {q(part['text'])}"]


def _shared_text(part: dict) -> list[str]:
    shared = [] if part["shared"] is None else [f"shared-with: {q(part['shared'])}"]
    return shared + _text(part)


def emit_file(rng: random.Random, specs: list[dict]) -> bytes:
    """Description text in a drawn layout: indentation, compact one-line
    blocks, comments, blank lines, a version header and CRLF endings vary
    from file to file."""
    indent = rng.choice(("  ", "  ", "    ", "\t"))
    compact = rng.random() < 0.4
    comments = rng.random() < 0.3
    lines: list[str] = []
    if rng.random() < 0.3:
        lines += ["# nihdl description file", "nihdl-version 1", ""]

    def emit(block, depth):
        head, items = block
        pad = indent * depth
        if compact and all(isinstance(i, str) for i in items):
            lines.append(f"{pad}{head} {{ {' '.join(items)} }}" if items else f"{pad}{head} {{}}")
            return
        lines.append(f"{pad}{head} {{")
        for item in items:
            if comments and rng.random() < 0.05:
                lines.append(f"{pad}{indent}# {phrase(rng, 1, 4)}")
            if isinstance(item, str):
                lines.append(pad + indent + item)
            else:
                emit(item, depth + 1)
        lines.append(pad + "}")

    for i, spec in enumerate(specs):
        if i:
            lines.append("")
        emit(method_block(spec), 0)
    newline = "\r\n" if rng.random() < 0.1 else "\n"
    return (newline.join(lines) + newline).encode("utf-8")


# ---------------------------------------------------------------------------
# Tallies
# ---------------------------------------------------------------------------

class Tally:
    """What the generator drew, counted the way the checks need it."""

    def __init__(self, catalog: Catalog) -> None:
        self.leaves = {path_text(p) for p in catalog.leaves}
        self.internals = {path_text(p) for p in catalog.internals}
        self.files = 0
        self.methods = 0
        self.presence = {a: dict.fromkeys(PRESENCES, 0) for a in TRACKED}
        self.combined = dict.fromkeys(TRACKED, 0)
        self.years: dict = {}
        self.histogram: dict[str, int] = {}
        self.unassigned = 0
        self.unknown_methods: set[str] = set()
        self.internal_methods: set[str] = set()
        self.no_scenario: set[str] = set()
        self.unjustified_unassigned: set[str] = set()
        self.labels: dict = {}
        self.sources: dict = {}
        self.relation_yes = 0
        self.directness: dict[str, int] = {}
        self.completeness: dict[str, Fraction] = {}

    def add(self, spec: dict) -> None:
        name = spec["name"]
        self.methods += 1
        p = presences(spec)
        year = self.years.setdefault(
            spec["year"], {"total": 0, **{a: dict.fromkeys(PRESENCES, 0) for a in TRACKED}})
        year["total"] += 1
        for attr, (presence, label) in p.items():
            self.presence[attr][presence] += 1
            year[attr][presence] += 1
            if label is not None:
                self.combined[attr] += 1
                group = self.labels.setdefault((spec["source"], label),
                                               {"members": [], "attrs": {}})
                if name not in group["members"]:
                    group["members"].append(name)
                group["attrs"][attr] = group["attrs"].get(attr, 0) + 1
        if spec["source"] is not None:
            src = self.sources.setdefault(spec["source"], {"count": 0, "attrs": {}})
            src["count"] += 1
            for attr, (presence, _) in p.items():
                src["attrs"].setdefault(attr, set()).add(presence)
        self.completeness[name] = sum((SCORE[v] for v, _ in p.values()),
                                      Fraction(0)) / len(TRACKED)
        path = spec["path"]
        if path is None:
            self.unassigned += 1
            if not any(r.strip() for _, r in spec["justify"]):
                self.unjustified_unassigned.add(name)
        else:
            text = path_text(path)
            self.histogram[text] = self.histogram.get(text, 0) + 1
            if text in self.internals:
                self.internal_methods.add(name)
            elif text not in self.leaves:
                self.unknown_methods.add(name)
        if spec["scenario"] is None:
            self.no_scenario.add(name)
        if spec["sender"]["relation"] != "unspecified":
            self.relation_yes += 1
        cell = directness_cell(spec)
        self.directness[cell] = self.directness.get(cell, 0) + 1

    @property
    def unknown_paths(self) -> set[str]:
        return {p for p in self.histogram if p not in self.leaves and p not in self.internals}

    def expected_groups(self) -> dict:
        """(source, label) -> (members, attributes shared by two or more, flagged)."""
        return {
            key: (tuple(g["members"]),
                  tuple(a for a in TRACKED if g["attrs"].get(a, 0) >= 2),
                  len(g["members"]) < 2)
            for key, g in self.labels.items()
        }

    def expected_inconsistencies(self) -> set[tuple[str, str]]:
        return {
            (source, attr)
            for source, s in self.sources.items() if s["count"] >= 2
            for attr, seen in s["attrs"].items() if len(seen) > 1
        }


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def deck(n: int, shares: dict, rng: random.Random) -> list:
    """``n`` values in the proportions of ``shares``, shuffled; the first
    value takes what rounding leaves. Drawing from a deck instead of
    independently keeps the make-up of every seed's input the same, so the
    seed moves content, not the amount of work."""
    total = sum(shares.values())
    values = [v for v, share in shares.items() for _ in range(int(n * share // total))]
    values += [next(iter(shares))] * (n - len(values))
    rng.shuffle(values)
    return values


# The published survey counts, as tools/make_synthetic_corpus.py builds
# the committed 131-method corpus to them: (full, partial) per tracked
# attribute, the rest absent; one method in 131 is unassigned and one has
# no year.
SURVEY_METHODS = 131
MARGINALS = {
    "application-scenario": (74, 30),
    "carrier-requirements": (74, 14),
    "countermeasures": (55, 13),
    "bandwidth": (56, 13),
    "robustness": (19, 10),
    "control-protocol": (4, 3),
}
UNASSIGNED_SHARE = Fraction(1, SURVEY_METHODS)
NO_YEAR_SHARE = Fraction(1, SURVEY_METHODS)
# Methods per publication and per file, as in that corpus: 74 sources over
# 131 methods (57 with two methods, 17 with one), written as 13 files of
# ten methods and one of one.
PUBLICATION_SIZES = {2: 57, 1: 17}
FILE_SIZES = {10: 13, 1: 1}
# Assumed: 8% of paths end in an element the catalog lacks (E110). The
# survey has none; the share gives the E110 check about 60 methods.
UNKNOWN_SHARE = Fraction(8, 100)
# Assumed: a submission holds one to three methods.
SUBMISSION_SIZES = {1: 40, 2: 40, 3: 20}


def presence_decks(n: int, rng: random.Random) -> list[dict[str, str]]:
    """The tracked attributes' presences for ``n`` methods, in the
    published proportions."""
    columns = {
        attr: deck(n, {"full": full, "partial": partial,
                       "absent": SURVEY_METHODS - full - partial}, rng)
        for attr, (full, partial) in MARGINALS.items()
    }
    return [{attr: column[i] for attr, column in columns.items()} for i in range(n)]


def path_kinds(n: int, unknown: Fraction, rng: random.Random) -> list[str]:
    return deck(n, {"leaf": 1 - unknown - UNASSIGNED_SHARE, "unknown": unknown,
                    "unassigned": UNASSIGNED_SHARE}, rng)


class Corpus:
    """A drawn corpus: catalog text, description files and their tallies."""

    def __init__(self, seed: int, stream: str, files: int, unknown: Fraction) -> None:
        rng = random.Random(f"nihdl-perfbench:{stream}:{seed}")
        self.catalog = Catalog(random.Random("nihdl-perfbench:catalog"),
                               f"perfbench-{stream}-{seed}")
        self.catalog_text = self.catalog.text(rng)
        self.tally = Tally(self.catalog)
        sizes = deck(files, FILE_SIZES, rng)
        methods = sum(sizes)
        kinds = path_kinds(methods, unknown, rng)
        status = presence_decks(methods, rng)
        mean = Fraction(sum(k * v for k, v in PUBLICATION_SIZES.items()),
                        sum(PUBLICATION_SIZES.values()))
        publications = deck(max(1, round(methods / mean)), PUBLICATION_SIZES, rng)
        specs: list[dict] = []
        pub = 0
        while len(specs) < methods:
            pub += 1
            source = f"pub-{seed}-{pub:04d}"
            year = None if rng.random() < NO_YEAR_SHARE else rng.randint(1987, 2015)
            # Assumed: a publication shares up to two labels among its methods.
            labels = [f"joint {pub}-{c}" for c in "ab"[: rng.randint(0, 2)]]
            for _ in range(min(publications[(pub - 1) % len(publications)],
                               methods - len(specs))):
                kind = kinds[len(specs)]
                if kind == "unassigned":
                    path = None
                elif kind == "unknown":
                    prefix = rng.choice(self.catalog.internals)
                    path = prefix + (f"Unlisted Pattern {rng.randint(1, 40)}",)
                else:
                    path = rng.choice(self.catalog.leaves)
                name = f"method {len(specs):04d} {rng.choice(WORDS)}"
                spec = draw_method(rng, name, source, year, path, labels, status[len(specs)])
                self.tally.add(spec)
                specs.append(spec)
        self.files: list[tuple[str, bytes]] = []
        self.specs: list[list[dict]] = []
        for size in sizes:
            batch, specs = specs[:size], specs[size:]
            self.files.append((f"descriptions/d{len(self.files):04d}.nihd", emit_file(rng, batch)))
            self.specs.append(batch)
        self.tally.files = len(self.files)
        self.digest = digest([("catalog.nihc", self.catalog_text.encode("utf-8"))] + self.files)

    def write(self, root: Path) -> None:
        (root / "descriptions").mkdir(parents=True, exist_ok=True)
        (root / "catalog.nihc").write_bytes(self.catalog_text.encode("utf-8"))
        for rel, data in self.files:
            (root / rel).write_bytes(data)


class Submissions:
    """Documents submitted for review, each method built for a known verdict.

    Big-C proposals add one new element under an internal catalog node, so
    accepting one changes no other submission's verdict within a pass.
    """

    # Assumed: the mix of verdicts, chosen so every verdict path of
    # novelty.assess is taken in each round.
    VERDICTS = {"small-c": 4, "big-c": 3, "unjustified": 1, "internal": 1,
                "unknown-root": 1, "unassigned": 1}

    def __init__(self, seed: int, documents: int) -> None:
        rng = random.Random(f"nihdl-perfbench:authoring:{seed}")
        self.catalog = Catalog(random.Random("nihdl-perfbench:catalog"),
                               f"perfbench-authoring-{seed}")
        self.catalog_text = self.catalog.text(rng)
        self.tally = Tally(self.catalog)
        sizes = deck(documents, SUBMISSION_SIZES, rng)
        kinds = iter(deck(sum(sizes), self.VERDICTS, rng))
        status = iter(presence_decks(sum(sizes), rng))
        self.docs: list[tuple[str, bytes]] = []
        self.specs: list[list[dict]] = []
        self.verdicts: dict[str, tuple] = {}
        for d, size in enumerate(sizes):
            source = f"sub-{seed}-{d:04d}"
            labels = [f"joint {d}"]
            specs = []
            for k in range(size):
                name = f"submission {d:04d}.{k} {rng.choice(WORDS)}"
                path, verdict = self._draw_path(rng, next(kinds), d, k)
                spec = draw_method(rng, name, source, rng.randint(2016, 2026), path, labels,
                                   next(status))
                if verdict[0] == "big-c":
                    justified = dict(spec["justify"])
                    justified[path[-1]] = f"New signaling idea: {phrase(rng)}"
                    spec["justify"] = list(justified.items())
                elif verdict[0] == "rejected" and path is not None and \
                        path[-1].startswith("Unexplained"):
                    spec["justify"] = [j for j in spec["justify"] if j[0] != path[-1]]
                elif verdict[0] == "rejected" and path is None:
                    spec["justify"] = []
                self.tally.add(spec)
                self.verdicts[name] = verdict
                specs.append(spec)
            self.docs.append((f"submission-{d:04d}.nihd", emit_file(rng, specs)))
            self.specs.append(specs)
        self.tally.files = len(self.docs)
        self.digest = digest([("catalog.nihc", self.catalog_text.encode("utf-8"))] + self.docs)

    def _draw_path(self, rng, kind, d, k):
        if kind == "small-c":
            path = rng.choice(self.catalog.leaves)
            return path, ("small-c", path_text(path))
        if kind == "big-c":
            parent = rng.choice(self.catalog.internals)
            name = f"Proposed Pattern {d}.{k}"
            return parent + (name,), ("big-c", path_text(parent), name)
        if kind == "unjustified":
            return rng.choice(self.catalog.internals) + (f"Unexplained Pattern {d}.{k}",), \
                ("rejected",)
        if kind == "internal":
            return rng.choice(self.catalog.internals), ("rejected",)
        if kind == "unknown-root":
            return ("Network Covert Quantum Channels", f"Quantum Pattern {k}"), ("rejected",)
        return None, ("rejected",)


# ---------------------------------------------------------------------------
# Expected model values
# ---------------------------------------------------------------------------

def build_method(model, taxonomy, spec: dict):
    """The nihdl.model value a spec stands for, in the order it was drawn."""
    P = {"full": model.Presence.FULL, "partial": model.Presence.PARTIAL,
         "absent": model.Presence.ABSENT}

    def shared(label):
        return None if label is None else model.SharedGroup(label)

    path = spec["path"]
    pattern = model.PatternAssignment(
        path=taxonomy.UNASSIGNED if path is None else taxonomy.PatternPath(elements=path),
        justifications=tuple(model.Justification(e, r) for e, r in spec["justify"]),
    )
    s = spec["scenario"]
    scenario = None if s is None else model.ApplicationScenario(
        P[s["status"]], None if s["purpose"] is None else model.Purpose(s["purpose"]),
        shared(s["shared"]), s["text"])
    c = spec["carrier"]
    kind, names = c["binding"]
    carrier = model.CarrierRequirements(
        P[c["status"]], model.CarrierBinding(model.BindingKind(kind), tuple(names)),
        tuple(c["conditions"]), shared(c["shared"]), c["text"])
    snd = spec["sender"]
    sender = model.SenderProcess(
        model.Relation(snd["relation"]), model.Location(snd["location"]),
        model.Location(snd["data-location"]), model.Tristate(snd["generates-cover"]),
        snd["text"])
    receiver = model.ReceiverProcess(model.Location(spec["receiver"]["location"]),
                                     spec["receiver"]["text"])
    kind, requirements = spec["directness"]
    metrics = {
        name: model.ChannelCharacteristic(P[m["status"]], m["value"], m["ref"],
                                          shared(m["shared"]), m["text"])
        for name, m in spec["metrics"].items()
    }
    channel = model.ChannelProperties(
        scenarios=frozenset(model.ChannelScenario(v) for v in spec["scenarios"]),
        directness=model.Directness(model.DirectnessKind(kind), requirements),
        **metrics,
    )
    ctl = spec["control"]
    control = None if ctl is None else model.ControlProtocol(
        P[ctl["status"]], frozenset(model.ControlFeature(f) for f in ctl["features"]),
        ctl["text"])
    entries = tuple(
        model.CountermeasureEntry(model.CountermeasureKind(e["type"]),
                                  model.Applicability(e["applicability"]),
                                  e["evaluated"], e["limitations"], e["text"])
        for e in spec["entries"]
    )
    w = spec["warden"]
    warden = None if w is None else model.WardenProfile(
        model.Location(w[0]), model.WardenState(w[1]), model.WardenActivity(w[2]))
    return model.MethodDescription(
        name=spec["name"], pattern=pattern, carrier=carrier, sender=sender,
        receiver=receiver, channel=channel, source=spec["source"], year=spec["year"],
        scenario=scenario, control_protocol=control, countermeasures=entries,
        warden=warden)


# ---------------------------------------------------------------------------
# What the checks compare against
# ---------------------------------------------------------------------------

INDEX_HEADER = "file\tmethod\tsource\tyear\tpattern\tscore"


def canonical(value) -> str:
    """A rendering of a nihdl model value that two values share exactly
    when they are equal: the dataclass fields that take part in equality,
    in order, with set members sorted."""
    if dataclasses.is_dataclass(value):
        fields = ",".join(canonical(getattr(value, f.name))
                          for f in dataclasses.fields(value) if f.compare)
        return f"{type(value).__name__}({fields})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    return repr(value)


def fingerprint(methods) -> str:
    """SHA-256 of the canonical rendering of a sequence of methods."""
    return hashlib.sha256("\n".join(canonical(m) for m in methods).encode("utf-8")).hexdigest()


def expected_fingerprint(model, taxonomy, specs: list[dict]) -> str:
    return fingerprint(model.normalize(build_method(model, taxonomy, s)) for s in specs)


def presence_counts(counts: dict) -> list[int]:
    return [counts[p] for p in PRESENCES]


def survey_expected(corpus: Corpus, model, taxonomy) -> dict:
    tally = corpus.tally
    rows = [
        "\t".join((rel, s["name"], s["source"] or "-",
                   "-" if s["year"] is None else str(s["year"]),
                   path_text(s["path"]), f"{float(tally.completeness[s['name']]):.3f}"))
        for (rel, _), specs in zip(corpus.files, corpus.specs) for s in specs
    ]
    index = "\n".join([INDEX_HEADER] + rows) + "\n"
    return {
        "methods": tally.methods,
        "files": [[rel, expected_fingerprint(model, taxonomy, specs),
                   sorted({s["name"] for s in specs} & tally.unknown_methods)]
                  for (rel, _), specs in zip(corpus.files, corpus.specs)],
        "unknown_paths": sorted(tally.unknown_paths),
        "index_sha256": hashlib.sha256(index.encode("utf-8")).hexdigest(),
    }


def analytics_expected(corpus: Corpus, model, taxonomy) -> dict:
    tally = corpus.tally
    specs = [s for batch in corpus.specs for s in batch]
    return {
        "methods": tally.methods,
        "fingerprint": expected_fingerprint(model, taxonomy, specs),
        "presence": {a: presence_counts(tally.presence[a]) for a in TRACKED},
        "combined": tally.combined,
        "years": {"unknown" if year is None else str(year):
                  [counts["total"], {a: presence_counts(counts[a]) for a in TRACKED}]
                  for year, counts in tally.years.items()},
        "histogram": tally.histogram,
        "unassigned": tally.unassigned,
        "leaves": sorted(tally.leaves),
        "groups": [[source, label, *group] for (source, label), group
                   in tally.expected_groups().items()],
        "inconsistencies": sorted(tally.expected_inconsistencies()),
        "relation_yes": tally.relation_yes,
        "directness": tally.directness,
        "scores": [str(tally.completeness[s["name"]]) for s in specs],
    }


def authoring_expected(subs: Submissions, model, taxonomy) -> dict:
    tally = subs.tally
    docs = []
    for (rel, _), specs in zip(subs.docs, subs.specs):
        codes = sorted(
            [s["name"], code] for s in specs
            for code, names in (("E110", tally.unknown_methods),
                                ("E111", tally.internal_methods),
                                ("E112", tally.unjustified_unassigned),
                                ("E211", tally.no_scenario))
            if s["name"] in names)
        docs.append([rel, expected_fingerprint(model, taxonomy, specs), codes])
    return {"methods": tally.methods, "docs": docs, "verdicts": subs.verdicts}


def draw(workload: str, seed: int, size: int):
    """The drawn inputs of a workload, not yet written."""
    if workload == "authoring":
        return Submissions(seed, size)
    return Corpus(seed, workload, size, UNKNOWN_SHARE if workload == "survey" else Fraction(0))


def write(workload: str, seed: int, size: int, out: Path) -> None:
    """Write the inputs under ``out`` and the checks' values to
    ``out/expected.json``."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    model = importlib.import_module("nihdl.model")
    taxonomy = importlib.import_module("nihdl.taxonomy")
    drawn = draw(workload, seed, size)
    if workload == "authoring":
        out.mkdir(parents=True, exist_ok=True)
        (out / "catalog.nihc").write_bytes(drawn.catalog_text.encode("utf-8"))
        for rel, data in drawn.docs:
            (out / rel).write_bytes(data)
        expected = authoring_expected(drawn, model, taxonomy)
    else:
        drawn.write(out)
        make = survey_expected if workload == "survey" else analytics_expected
        expected = make(drawn, model, taxonomy)
    expected["digest"] = drawn.digest
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("survey", "analytics", "authoring"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True,
                        help="description files (survey, analytics) or submissions")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
