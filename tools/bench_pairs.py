#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE PR

Exports both commits with ``git archive`` into a temporary directory and
runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) untraced in
each: for every workload the file names, ten pairs on seeds 11 to 20,
each run ``run_seconds`` long. Then it runs three traced pairs per
workload (``--trace 1``, seeds 11 to 13), since only a traced run reports
per-layer metrics. The side that runs first alternates from pair to pair.
Writes ``BENCH_<PR>.json`` in the repository root: per workload and
end-to-end metric, both sides' medians and quartiles and the number of
pairs the change won (a tie counts for neither side); under
``operations``, per side, the ``attempted`` and ``failed`` operations
summed over the untraced runs and the number of ``incorrect_runs``, so a
growing share of failed operations shows without reading every run;
under ``layers``, per per-layer metric, both sides' medians over the
traced pairs; each run's ``correct``, ``attempted``, ``failed`` and
metrics, the Python version and both commit ids. Progress goes to
standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(11, 21)
TRACED_SEEDS = range(11, 14)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(commit: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")


def run(command: list[str], checkout: Path, workload: str, seed: int,
        seconds: float, trace: int = 0) -> dict:
    """One benchmark run; a run without a result line counts as incorrect."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"exit": done.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric: dict, pairs: list[dict]) -> dict:
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
    summary = {"unit": metric["unit"], "better": metric["better"], "pairs": len(both),
               "change_wins": sum(sign * (new - old) > 0 for old, new in both)}
    if len(both) > 1:
        summary["parent"] = spread([old for old, _ in both])
        summary["change"] = spread([new for _, new in both])
    return summary


def operations(pairs: list[dict]) -> dict:
    """Per side, operations attempted and failed over all runs, and the runs
    that were not correct."""
    return {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                   "failed": sum(p[side]["failed"] for p in pairs),
                   "incorrect_runs": sum(not p[side]["correct"] for p in pairs)}
            for side in ("parent", "change")}


def layers(metrics: list[dict], pairs: list[dict]) -> dict:
    """Both sides' medians of each per-layer metric that both sides report."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name] for p in pairs
                         if name in p[side]["metrics"]] for side in ("parent", "change")}
        if values["parent"] and values["change"]:
            summary[name] = {"unit": metric["unit"], "better": metric["better"],
                             **{side: statistics.median(v) for side, v in values.items()}}
    return summary


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
        pairs = run_pairs(bench["command"], checkouts, workloads, SEEDS,
                          bench["run_seconds"], trace=0)
        traced = run_pairs(bench["command"], checkouts, workloads, TRACED_SEEDS,
                           bench["run_seconds"], trace=1)
    report = {
        "parent": commits["parent"],
        "change": commits["change"],
        "python": platform.python_version(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "traced_seeds": list(TRACED_SEEDS),
        "workloads": {w: {"metrics": {m["name"]: summarize(m, pairs[w])
                                      for m in bench["end_to_end"]},
                          "operations": operations(pairs[w]),
                          "layers": layers(bench["per_layer"], traced[w]),
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
