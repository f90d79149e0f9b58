#!/usr/bin/env python3
"""Fast self-check of the benchmark itself, separate from nihdl's tests.

    python3 perfbench/selfcheck.py            # a few seconds
    python3 perfbench/selfcheck.py --record   # rewrite digests.json, print the README table

1. Every workload runs one untraced and one traced round on a small input.
   Each must pass all of its checks and report exactly the metrics that
   BENCHMARK.json names for its mode.
2. Every workload runs again with one expectation falsified at a time; its
   checks must catch each one, so a check that can no longer fail shows.
3. digests.json matches the table in README.md, and the recorded inputs
   of seed 1 and of the cli fixture are still what the generator makes.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import generate
import run
import spans
import workloads

SMALL = {"survey": 3, "analytics": 3, "authoring": 8, "cli": None}
RECORDED_SEEDS = range(21)


def benchmark_metrics() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def make(name: str, work: Path, size=None):
    workload = workloads.WORKLOADS[name](run.ROOT, work / name, 1, size)
    workload.generate()
    return workload


def falsifications(name: str) -> list:
    """(what, mutate) pairs applied after ``prepare``; each must fail a check."""
    def item(rows, index, value):
        rows[index] = value

    if name == "survey":
        return [
            ("parsed value", lambda w: item(w.fingerprints, 0, w.fingerprints[1])),
            ("E110 set", lambda w: w.unknown[0].add("no such method")),
            ("index bytes", lambda w: w.expected.update(index_sha256="0" * 64)),
            ("unknown paths", lambda w: w.unknown_paths.add("X / Y")),
        ]
    if name == "analytics":
        return [
            ("presence counts", lambda w: w.presence.update(bandwidth=(0, 0, 0))),
            ("per-year table", lambda w: w.years.update({"1900": (1, {})})),
            ("shared labels", lambda w: w.groups.update({("x", "y"): ((), (), True)})),
            ("inconsistencies", lambda w: w.inconsistencies.add(("x", "bandwidth"))),
            ("completeness", lambda w: item(w.expected["scores"], 0, "7")),
        ]
    if name == "authoring":
        first = lambda w: next(iter(w.verdicts))  # noqa: E731
        return [
            ("parsed value", lambda w: item(w.fingerprints, 0, w.fingerprints[1])),
            ("strict findings",
             lambda w: w.codes[0].symmetric_difference_update({(first(w), "E111")})),
            ("verdict", lambda w: w.verdicts.update({first(w): ("small-c", "X / Y")})),
        ]
    return [
        ("stdout", lambda w: w.reference.update(
            stats=w.reference["stats"][:1] + (b"{}",) + w.reference["stats"][2:])),
        ("exit status", lambda w: w.reference.update(
            validate=(0,) + w.reference["validate"][1:])),
    ]


def check_workload(name: str, work: Path, e2e: dict, layers: dict) -> list[str]:
    problems = []
    for runner, wanted in ((run.measure, e2e), (run.measure_traced, layers)):
        workload = make(name, work, SMALL[name])
        try:
            metrics, rec = runner(workload, 0)
        except workloads.CheckFailed as exc:
            problems.append(f"{name}: {runner.__name__} failed a check: {exc}")
            continue
        got = {k: unit for k, (_, unit) in metrics.items()}
        if got != wanted:
            problems.append(f"{name}: {runner.__name__} reports {sorted(got)} "
                            f"with units that differ from BENCHMARK.json")
        if rec.failed or not rec.attempted:
            problems.append(f"{name}: {rec.failed} of {rec.attempted} operations failed")
    for what, mutate in falsifications(name):
        workload = make(name, work, SMALL[name])
        tracer = spans.Tracer(False)
        run.setup(workload, tracer)
        workload.prepare()
        mutate(workload)
        try:
            workload.round(workloads.Recorder(tracer), tracer)
        except workloads.CheckFailed:
            continue
        problems.append(f"{name}: a falsified {what} went unnoticed")
    return problems


def current_digests(work: Path, seeds) -> dict:
    table = {}
    for name in ("survey", "analytics", "authoring"):
        size = workloads.WORKLOADS[name].default_size
        table[name] = {str(seed): generate.draw(name, seed, size).digest for seed in seeds}
    table["cli"] = {"fixture": make("cli", work).generate()}
    return table


def readme_table(table: dict) -> str:
    lines = ["| workload | seed | SHA-256 of the generated files |", "|---|---|---|"]
    for name, entries in table.items():
        lines += [f"| {name} | {seed} | `{digest}` |" for seed, digest in entries.items()]
    return "\n".join(lines)


def check_digests(work: Path) -> list[str]:
    recorded = json.loads((run.HERE / "digests.json").read_text(encoding="utf-8"))
    readme = (run.HERE / "README.md").read_text(encoding="utf-8")
    problems = []
    rows = dict(((m[1], m[2]), m[3]) for m in
                re.finditer(r"^\| (\w+) \| (\w+) \| `([0-9a-f]{64})` \|$", readme, re.M))
    flat = {(name, seed): d for name, entries in recorded.items() for seed, d in entries.items()}
    if rows != flat:
        problems.append("the digest table in README.md differs from digests.json")
    for name, entries in current_digests(work, [1]).items():
        for seed, digest in entries.items():
            if recorded.get(name, {}).get(seed) != digest:
                problems.append(f"{name} seed {seed}: inputs now hash to {digest}")
    return problems


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    (run.HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.HERE / ".work"))
    try:
        if argv == ["--record"]:
            table = current_digests(work, RECORDED_SEEDS)
            (run.HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n",
                                                   encoding="utf-8")
            print(readme_table(table))
            return 0
        e2e, layers = benchmark_metrics()
        problems = []
        for name in workloads.WORKLOADS:
            found = check_workload(name, work, e2e, layers)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems += found
        problems += check_digests(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
