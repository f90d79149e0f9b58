#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE PR

Exports both commits with ``git archive`` into a temporary directory and
runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) in each: for
every workload the file names, ten pairs on seeds 11 to 20, each run
``run_seconds`` long, untraced, then ten more pairs on the same seeds traced
(``--trace 1``), since only a traced run reports per-layer metrics. The
side that runs first alternates from pair to pair. Writes
``BENCH_<PR>.json`` in the repository root. Per workload, one summary (see
``compare``) for every end-to-end metric over the untraced pairs, under
``metrics``, and for every per-layer metric over the traced pairs, under
``layers``: the pairs run, the pairs the change won, both sides' medians
and quartiles and the verdicts ``gain``, ``loss`` and, for a metric with a
bound, ``within_bound``. Under ``operations``, per side, the ``attempted``
and ``failed`` operations summed over the untraced runs and the number of
``incorrect_runs``, so a growing share of failed operations shows without
reading every run. Then each run's ``correct``, ``attempted``, ``failed``
and metrics, with the last 2,000 characters of its standard error when it
failed, the Python version, the machine's CPU count (``cpu_count``) and
architecture (``machine``), and both commit ids. Progress goes to standard
error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(11, 21)
SIDES = ("parent", "change")
STDERR_TAIL = 2000


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(commit: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")


def run(command: list[str], checkout: Path, workload: str, seed: int,
        seconds: float, trace: int = 0) -> dict:
    """One benchmark run; a run without a result line counts as incorrect. A
    run that exits non-zero or is not correct keeps the end of its stderr."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"exit": done.returncode, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    if (done.returncode or not result["correct"]) and done.stderr:
        record["stderr_tail"] = done.stderr[-STDERR_TAIL:]
    return record


def compare(metric: dict, pairs: list[dict]) -> dict:
    """One metric over pairs of runs. Only a correct run has a value, and a
    pair in which either side has none counts against the change: the parent
    wins it. ``change_wins``: the pairs the change won, a tie counting for
    neither side. ``parent`` and ``change``: each side's median and quartiles
    over its values, given at least two. ``gain``: the change wins at least
    nine tenths of the pairs run, and its median is better than the parent's
    by more than the parent's q3 - q1; ``loss``: the same with the sides
    swapped. For a metric with a ``bound``, ``within_bound``: the change's
    median is worse than the parent's by no more than ``bound``, a share of
    the parent's median. Without both sides' quartiles every verdict is
    false."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    values = {side: [p[side]["metrics"].get(name) if p[side]["correct"] else None
                     for p in pairs] for side in SIDES}
    diffs = [sign * (new - old) for old, new in zip(values["parent"], values["change"])
             if old is not None and new is not None]
    change_wins = sum(d > 0 for d in diffs)
    parent_wins = len(pairs) - len(diffs) + sum(d < 0 for d in diffs)
    summary = {"unit": metric["unit"], "better": metric["better"], "pairs": len(pairs),
               "change_wins": change_wins}
    for side in SIDES:
        present = [v for v in values[side] if v is not None]
        if len(present) > 1:
            q1, median, q3 = statistics.quantiles(present, n=4, method="inclusive")
            summary[side] = {"median": median, "q1": q1, "q3": q3}
    gain = loss = within_bound = False
    if "parent" in summary and "change" in summary:
        parent = summary["parent"]
        spread = parent["q3"] - parent["q1"]
        better_by = sign * (summary["change"]["median"] - parent["median"])
        gain = change_wins >= 0.9 * len(pairs) and better_by > spread
        loss = parent_wins >= 0.9 * len(pairs) and -better_by > spread
        within_bound = "bound" in metric and -better_by <= metric["bound"] * parent["median"]
    summary.update(gain=gain, loss=loss)
    if "bound" in metric:
        summary["within_bound"] = within_bound
    return summary


def operations(pairs: list[dict]) -> dict:
    """Per side, operations attempted and failed over all runs, and the runs
    that were not correct."""
    return {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                   "failed": sum(p[side]["failed"] for p in pairs),
                   "incorrect_runs": sum(not p[side]["correct"] for p in pairs)}
            for side in SIDES}


def run_pairs(command: list[str], checkouts: dict, workloads: list[str], seeds: range,
              seconds: float, trace: int) -> dict[str, list[dict]]:
    """Per workload, one pair of runs per seed; the first side alternates."""
    pairs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(command, checkouts[side], workload, seed, seconds, trace)
                print(f"{workload} seed {seed} trace {trace} {side}: {pair[side]}",
                      file=sys.stderr)
            pairs[workload].append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit to measure as the baseline")
    parser.add_argument("change", help="commit to measure against it")
    parser.add_argument("pr", help="number that names the output, BENCH_<PR>.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
               for side, ref in (("parent", args.parent), ("change", args.change))}
    workloads = [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, checkouts[side])
        pairs, traced = (run_pairs(bench["command"], checkouts, workloads, SEEDS,
                                   bench["run_seconds"], trace) for trace in (0, 1))
    report = {
        "parent": commits["parent"],
        "change": commits["change"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {w: {"metrics": {m["name"]: compare(m, pairs[w])
                                      for m in bench["end_to_end"]},
                          "operations": operations(pairs[w]),
                          "layers": {m["name"]: compare(m, traced[w])
                                     for m in bench["per_layer"]},
                          "runs": pairs[w],
                          "traced_runs": traced[w]}
                      for w in workloads},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
