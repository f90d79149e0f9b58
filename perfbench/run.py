#!/usr/bin/env python3
"""Benchmark for nihdl: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 25 --trace 0

Run it from the root of a nihdl checkout. With ``--trace 0`` the result
holds the end-to-end metrics, measured untraced; with ``--trace 1`` it
holds the per-layer metrics of a traced run and the cost of tracing.
Times are scaled to a reference speed of the machine, measured beside
every operation (``calibrate.py``). The last line of standard output is
the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit status 0 means every check passed, 1 a wrong result, 2 a missing
program or bad arguments, 3 inputs whose digest differs from the one
recorded for the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# An untraced run sets up again between rounds, evenly over its length:
# about SETUP_SECONDS worth of set-ups, at least SETUP_MIN and at most
# SETUP_MAX. Each set-up is scaled to the reference speed by probes of
# SETUP_PROBE kernel calls just before and just after it, and setup_s is
# the median of the scaled set-ups.
SETUP_MIN = 5
SETUP_MAX = 45
SETUP_SECONDS = 2.0
SETUP_PROBE = 5

# Per-layer metrics: span names whose time, per round, makes up the metric.
LAYER_TIMES = {
    "dsl.parse_ms": ("dsl.parse",),
    "dsl.serialize_ms": ("dsl.serialize",),
    "dsl.catalog_ms": ("dsl.catalog",),
    "store.load_all_ms": ("store.load_all",),
    "store.build_index_ms": ("store.build_index",),
    "store.write_ms": ("store.write",),
    "validate.ms": ("validate",),
    "analyze.corpus_stats_ms": ("analyze.corpus_stats",),
    "analyze.combined_groups_ms": ("analyze.combined_groups",),
    "analyze.inconsistency_report_ms": ("analyze.inconsistency_report",),
    "analyze.comparison_matrix_ms": ("analyze.comparison_matrix",),
    "analyze.completeness_ms": ("analyze.completeness",),
    "novelty.assess_ms": ("novelty.assess",),
    "novelty.accept_big_c_ms": ("novelty.accept_big_c",),
    "model.normalize_ms": ("model.normalize",),
    "cli.main_ms": ("cli.main",),
    "cli.process_ms": ("cli.process",),
    "cli.build_report_ms": ("cli.build_report",),
}
# Counter sums per round: metric -> (span names, counter).
LAYER_COUNTS = {
    "dsl.parse_files": (("dsl.parse",), "files"),
    "dsl.parse_methods": (("dsl.parse",), "methods"),
    "store.files_written": (("store.write", "store.build_index"), "files"),
    "store.bytes_written": (("store.write", "store.build_index"), "bytes"),
    "validate.methods": (("validate",), "methods"),
    "validate.errors": (("validate",), "errors"),
    "validate.warnings": (("validate",), "warnings"),
    "validate.infos": (("validate",), "infos"),
    "novelty.small_c": (("novelty.assess",), "small_c"),
    "novelty.big_c": (("novelty.assess",), "big_c"),
    "novelty.rejected": (("novelty.assess",), "rejected"),
}
# Throughput over all spans of a name: metric -> span name (counter "bytes").
LAYER_RATES = {
    "dsl.parse_mb_per_s": "dsl.parse",
    "dsl.serialize_mb_per_s": "dsl.serialize",
}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_rounds(workload, recorders, seconds: float, between=None) -> None:
    """Whole rounds, one per recorder in turn, until ``seconds`` have
    passed; at least one each. ``between(share)`` runs after each round
    but the last, with the share of ``seconds`` that has passed."""
    start = perf_counter()
    while True:
        for rec in recorders:
            workload.round(rec, rec.tracer)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return
        if between is not None:
            between(elapsed / seconds)


def setup(workload, tracer) -> float:
    """Set the workload up afresh; its time at the reference speed."""
    workload.state = None
    gc.collect()
    before = calibrate.probe(SETUP_PROBE)
    start = perf_counter()
    workload.state = workload.setup(tracer)
    elapsed = perf_counter() - start
    after = calibrate.probe(SETUP_PROBE)
    return elapsed / calibrate.slowdown((before + after) / 2)


def measure(workload, seconds: float) -> tuple[dict, workloads.Recorder]:
    """End-to-end metrics of an untraced run, at the reference speed."""
    tracer = spans.Tracer(False)
    start = perf_counter()
    setup_times = [setup(workload, tracer)]
    repeats = min(SETUP_MAX, max(SETUP_MIN, math.ceil(SETUP_SECONDS / (perf_counter() - start))))

    def set_up_again(share: float) -> None:
        while len(setup_times) < repeats * share:
            setup_times.append(setup(workload, tracer))

    workload.prepare()
    gc.collect()
    rec = workloads.Recorder(tracer, workload.probe_calls)
    run_rounds(workload, [rec], seconds, set_up_again)
    while len(setup_times) < repeats:  # a run of only a few rounds
        setup_times.append(setup(workload, tracer))
    latencies = sorted(rec.latencies)
    tail = percentile(latencies, workload.tail_pct)
    beyond = sum(1 for v in latencies if v > tail)
    slowdowns = sorted(rec.slowdowns())
    unscaled = statistics.median(t for i in rec.sampled for _, t, _ in rec.samples[i])
    print(f"{workload.name}: {len(latencies)} latency samples, p{workload.tail_pct} tail "
          f"with {beyond} beyond it, {rec.rounds} rounds, {len(setup_times)} set-ups; "
          f"slowdown {slowdowns[0]:.3f} to {slowdowns[-1]:.3f}, "
          f"median {statistics.median(slowdowns):.3f}; "
          f"unscaled median latency {unscaled * 1e3:.4g} ms", file=sys.stderr)
    metrics = {
        "methods_per_s": (rec.methods * rec.rounds / sum(rec.round_times()), "methods/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    return metrics, rec


def measure_traced(workload, seconds: float) -> tuple[dict, workloads.Recorder]:
    """Per-layer metrics from spans, plus the cost of tracing: untraced and
    traced rounds alternate, so drift of the machine's speed affects both
    alike, and the cost compares the operations' median scaled times of the
    two. Layer times are scaled by the run's median slowdown."""
    tracer = spans.Tracer(True)
    setup(workload, tracer)
    workload.prepare()
    gc.collect()
    tracer.phase = "round"
    plain = workloads.Recorder(spans.Tracer(False), workload.probe_calls)
    rec = workloads.Recorder(tracer, workload.probe_calls)
    run_rounds(workload, [plain, rec], seconds)
    rounds = rec.rounds
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    slowdown = statistics.median(rec.slowdowns() + plain.slowdowns())

    def per_round(names, counter=None) -> float:
        total = 0.0
        for span in tracer.spans:
            if span.name in names:
                value = span.ms / slowdown if counter is None else span.counts.get(counter, 0)
                total += value if span.phase == "setup" else value / rounds
        return total

    def typical(recorder) -> float:
        return sum(statistics.median(times) for times in recorder.scaled)

    metrics = {name: (per_round(names), "ms") for name, names in LAYER_TIMES.items()}
    metrics.update({name: (per_round(names, counter), "count")
                    for name, (names, counter) in LAYER_COUNTS.items()})
    for name, span_name in LAYER_RATES.items():
        selected = tracer.select(span_name)
        busy = sum(s.ms for s in selected) / 1e3 / slowdown
        volume = sum(s.counts.get("bytes", 0) for s in selected) / 1e6
        metrics[name] = (volume / busy if busy else 0.0, "MB/s")
    metrics["cli.import_ms"] = (per_round(("cli.import",)) - per_round(("cli.bare",)), "ms")
    metrics["calibrate.kernel_ms"] = (slowdown * calibrate.KERNEL_MS, "ms")
    metrics["trace.cost_pct"] = ((typical(rec) / typical(plain) - 1) * 100, "%")
    metrics["trace.spans"] = (sum(s.phase == "round" for s in tracer.spans) / rounds, "count")
    return metrics, rec


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    entries = table.get(workload, {})
    return entries.get("fixture", entries.get(str(seed)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("survey", "analytics", "authoring", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nihdl" / "__init__.py").is_file():
        print(f"no nihdl sources under {ROOT / 'src'}; run from a nihdl checkout",
              file=sys.stderr)
        return 2
    # Imports are timed as users see them once bytecode caches exist,
    # whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    # One core for the benchmark and its children: the speed probes then
    # measure the core that the operation, or the nihdl child, runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        digest = workload.generate()
        recorded = recorded_digest(args.workload, args.seed)
        if recorded is not None and digest != recorded:
            print(f"input digest {digest} differs from the recorded {recorded}; "
                  "the generator or the fixture changed", file=sys.stderr)
            return 3
        correct = True
        runner = measure_traced if args.trace else measure
        try:
            metrics, rec = runner(workload, args.seconds)
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct, metrics, rec = False, {}, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": rec.attempted if rec else 1,
        "failed": rec.failed if rec else 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
