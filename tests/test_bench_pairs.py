"""tools/bench_pairs.py: the summary of a metric over pairs, checked also
against the committed BENCH_<pr>.json records, operation counts, running
pairs and reading one run's result line.

The benchmark itself is never run; each run is a small Python command that
prints what `perfbench/run.py` would.
"""

import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(*values):
    return [{"parent": {"correct": True, "metrics": {"m": old}},
             "change": {"correct": True, "metrics": {"m": new}}} for old, new in values]


def _keys(summary, *keys):
    return {key: summary[key] for key in keys}


@pytest.mark.parametrize("better, wins", [("lower", 1), ("higher", 2)])
def test_summarize_counts_wins_by_direction_and_a_tie_for_neither(better, wins):
    pairs = _pairs((5.0, 4.0), (5.0, 5.0), (5.0, 6.0), (5.0, 7.0))
    summary = bench_pairs.compare({"name": "m", "unit": "ms", "better": better}, pairs)
    assert _keys(summary, "unit", "better", "pairs", "change_wins", "parent", "change") == {
        "unit": "ms", "better": better, "pairs": 4, "change_wins": wins,
        "parent": {"median": 5.0, "q1": 5.0, "q3": 5.0},
        "change": {"median": 5.5, "q1": 4.75, "q3": 6.25},
    }


def test_summarize_skips_a_pair_that_lacks_the_metric():
    # The pair still counts as run, and against the change; one change value
    # gives no quartiles, so no verdict.
    pairs = _pairs((5.0, 4.0), (5.0, 4.0))
    del pairs[1]["change"]["metrics"]["m"]
    summary = bench_pairs.compare({"name": "m", "unit": "ms", "better": "lower"}, pairs)
    assert summary == {"unit": "ms", "better": "lower", "pairs": 2, "change_wins": 1,
                       "parent": {"median": 5.0, "q1": 5.0, "q3": 5.0},
                       "gain": False, "loss": False}


def test_operations_sum_each_side_and_count_its_incorrect_runs():
    pairs = [{"parent": {"correct": True, "attempted": 10, "failed": 0},
              "change": {"correct": True, "attempted": 12, "failed": 1}},
             {"parent": {"correct": False, "attempted": 0, "failed": 0},
              "change": {"correct": False, "attempted": 7, "failed": 2}}]
    assert bench_pairs.operations(pairs) == {
        "parent": {"attempted": 10, "failed": 0, "incorrect_runs": 1},
        "change": {"attempted": 19, "failed": 3, "incorrect_runs": 1},
    }


def test_layers_keeps_the_median_of_each_side_where_both_report_the_metric():
    # A per-layer metric has no bound, so no within_bound; "b", which only one
    # parent run reports, gets no quartiles and no verdict.
    pairs = [{"parent": {"metrics": {"a": 1.0, "b": 5.0}}, "change": {"metrics": {"a": 2.0}}},
             {"parent": {"metrics": {"a": 3.0}}, "change": {"metrics": {"a": 4.0}}},
             {"parent": {"metrics": {"a": 9.0}}, "change": {"metrics": {"a": 0.5}}}]
    for pair in pairs:
        pair["parent"]["correct"] = pair["change"]["correct"] = True
    metrics = [{"name": "a", "unit": "ms", "better": "lower"},
               {"name": "b", "unit": "MB/s", "better": "higher"}]
    assert {m["name"]: bench_pairs.compare(m, pairs) for m in metrics} == {
        "a": {"unit": "ms", "better": "lower", "pairs": 3, "change_wins": 1,
              "parent": {"median": 3.0, "q1": 2.0, "q3": 6.0},
              "change": {"median": 2.0, "q1": 1.25, "q3": 3.0},
              "gain": False, "loss": False},
        "b": {"unit": "MB/s", "better": "higher", "pairs": 3, "change_wins": 0,
              "gain": False, "loss": False}}


def _python(*lines):
    return [sys.executable, "-c", "\n".join(lines)]


@pytest.mark.parametrize("command, exit_code", [
    (_python("print('warming up')"), 0),
    (_python("pass"), 0),
    (_python("import sys", "print('{\"correct\": tr')", "sys.exit(3)"), 3),
])
def test_run_without_a_result_line_is_incorrect(tmp_path, command, exit_code):
    assert bench_pairs.run(command, tmp_path, "survey", 11, 0.5) == {
        "exit": exit_code, "correct": False, "attempted": 0, "failed": 0, "metrics": {},
    }


def test_run_passes_the_trace_setting(tmp_path):
    command = _python("import json, sys",
                      "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,",
                      "                  'metrics': {'argv': {'value': sys.argv[-1]}}}))")
    assert bench_pairs.run(command, tmp_path, "survey", 11, 0.5, trace=1)["metrics"] == {
        "argv": "1"}


def test_run_returns_the_metrics_of_the_last_line(tmp_path):
    result = {"correct": True, "attempted": 12, "failed": 1, "metrics": {
        "latency_p50_ms": {"value": 3.5, "unit": "ms"}}}
    command = _python(
        "import json, os, sys",
        "print('warming up')",
        f"result = json.loads({json.dumps(json.dumps(result))})",
        "result['metrics']['argv'] = {'value': sys.argv[1:]}",
        "result['metrics']['cwd'] = {'value': os.getcwd()}",
        "print(json.dumps(result))",
    )
    assert bench_pairs.run(command, tmp_path, "authoring", 13, 0.5) == {
        "exit": 0, "correct": True, "attempted": 12, "failed": 1, "metrics": {
            "latency_p50_ms": 3.5,
            "argv": ["--workload", "authoring", "--seed", "13", "--seconds", "0.5",
                     "--trace", "0"],
            "cwd": str(tmp_path),
        },
    }


def _runs(*values, better="lower"):
    """Pairs of correct runs; None leaves a side's run failed, without metrics."""
    def side(value):
        if value is None:
            return {"correct": False, "metrics": {}}
        return {"correct": True, "metrics": {"m": value}}
    return [{"parent": side(old), "change": side(new)} for old, new in values]


_METRIC = {"name": "m", "unit": "ms", "better": "lower", "bound": 0.25}


def _verdicts(metric, pairs):
    return _keys(bench_pairs.compare(metric, pairs), "gain", "within_bound")


def test_verdict_claims_a_gain_on_nine_of_ten_wins_beyond_the_parent_spread():
    pairs = _runs(*[(10.0 + i % 2, 8.0) for i in range(9)], (10.0, 12.0))
    assert _verdicts(_METRIC, pairs) == {"gain": True, "within_bound": True}


def test_verdict_counts_a_failed_change_run_against_the_change():
    # Eight wins of ten pairs run, though the change wins every pair it finished.
    pairs = _runs(*[(10.0 + i % 2, 8.0) for i in range(8)], (10.0, None), (11.0, 8.0))
    pairs[9]["change"]["correct"] = False
    assert bench_pairs.compare(_METRIC, pairs)["change_wins"] == 8
    assert _verdicts(_METRIC, pairs) == {"gain": False, "within_bound": True}
    pairs[9]["change"]["correct"] = True
    assert _verdicts(_METRIC, pairs) == {"gain": True, "within_bound": True}


def test_verdict_claims_no_gain_inside_the_parent_quartiles():
    # The change wins every pair, but by less than the parent's q3 - q1 (2.0).
    pairs = _runs(*[(9.0 + i % 4, 9.0 + i % 4 - 0.5) for i in range(10)])
    assert _verdicts(_METRIC, pairs) == {"gain": False, "within_bound": True}


def test_loss_is_a_gain_with_the_sides_swapped():
    pairs = _runs(*[(8.0, 10.0 + i % 2) for i in range(9)], (12.0, 10.0))
    summary = bench_pairs.compare(_METRIC, pairs)
    assert _keys(summary, "change_wins", "gain", "loss") == {
        "change_wins": 1, "gain": False, "loss": True}
    swapped = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
    assert _keys(bench_pairs.compare(_METRIC, swapped), "change_wins", "gain", "loss") == {
        "change_wins": 9, "gain": True, "loss": False}


def test_loss_counts_a_failed_change_run_as_a_parent_win():
    # The parent wins eight pairs outright and one that the change did not finish.
    pairs = _runs(*[(8.0, 10.0 + i % 2) for i in range(8)], (8.0, None), (12.0, 10.0))
    assert _keys(bench_pairs.compare(_METRIC, pairs), "change_wins", "loss") == {
        "change_wins": 1, "loss": True}
    pairs[8]["change"] = {"correct": True, "metrics": {"m": 7.0}}
    assert bench_pairs.compare(_METRIC, pairs)["loss"] is False


@pytest.mark.parametrize("better, new, within", [
    ("lower", 12.5, True), ("lower", 12.6, False),
    ("higher", 7.5, True), ("higher", 7.4, False), ("higher", 20.0, True),
])
def test_verdict_within_bound_is_a_share_of_the_parent_median(better, new, within):
    metric = dict(_METRIC, better=better)
    pairs = _runs(*[(10.0, new)] * 10)
    assert bench_pairs.compare(metric, pairs)["within_bound"] is within


def test_verdict_without_change_values_is_neither_gain_nor_within_bound():
    pairs = _runs(*[(10.0, None)] * 10)
    assert _verdicts(_METRIC, pairs) == {"gain": False, "within_bound": False}


def test_run_keeps_the_stderr_tail_of_a_failed_run(tmp_path):
    command = _python("import sys", "sys.stderr.write('x' * 3000 + 'Traceback: boom')",
                      "sys.exit(1)")
    result = bench_pairs.run(command, tmp_path, "cli", 11, 0.5)
    assert result["exit"] == 1 and not result["correct"]
    assert len(result["stderr_tail"]) == 2000
    assert result["stderr_tail"].endswith("x" * 1985 + "Traceback: boom")


def test_run_keeps_the_stderr_tail_of_an_incorrect_run_that_exits_zero(tmp_path):
    command = _python("import json, sys", "sys.stderr.write('digest differs')",
                      "print(json.dumps({'correct': False, 'attempted': 3, 'failed': 3,",
                      "                  'metrics': {}}))")
    assert bench_pairs.run(command, tmp_path, "cli", 11, 0.5)["stderr_tail"] == "digest differs"


def test_run_drops_the_stderr_of_a_correct_run(tmp_path):
    command = _python("import json, sys", "sys.stderr.write('progress')",
                      "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,",
                      "                  'metrics': {}}))")
    assert "stderr_tail" not in bench_pairs.run(command, tmp_path, "cli", 11, 0.5)


def test_run_pairs_alternates_the_first_side_and_runs_each_side_in_its_checkout(tmp_path):
    log = tmp_path / "order.log"
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        checkout.mkdir()
    command = _python("import json, os",
                      f"open({str(log)!r}, 'a').write(os.getcwd() + '\\n')",
                      "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0,",
                      "                  'metrics': {'checkout': {'value': os.getcwd()}}}))")
    workloads = ["survey", "cli"]
    pairs = bench_pairs.run_pairs(command, checkouts, workloads, range(11, 14), 0.5, trace=0)
    ran = iter(log.read_text().splitlines())
    for i, seed in enumerate(range(11, 14)):
        for workload in workloads:
            pair = pairs[workload][i]
            assert (pair["seed"], pair["first"]) == (seed, ("parent", "change", "parent")[i])
            for side in (pair["first"], *(set(bench_pairs.SIDES) - {pair["first"]})):
                assert pair[side]["metrics"]["checkout"] == next(ran) == str(checkouts[side])
    assert next(ran, None) is None


def test_main_records_the_machine_next_to_python(tmp_path, monkeypatch):
    """Pairs compare only on one machine, so the report says which it was."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"0" * 40 + b"\n")
    monkeypatch.setattr(bench_pairs, "export", lambda commit, into: None)
    monkeypatch.setattr(bench_pairs, "run_pairs",
                        lambda command, checkouts, workloads, *rest: {w: [] for w in workloads})
    assert bench_pairs.main(["a", "b", "99"]) == 0
    report = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert _keys(report, "python", "cpu_count", "machine") == {
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "machine": platform.machine()}


@pytest.mark.parametrize("pr", [12, 13, 14, 15])
def test_compare_reproduces_the_committed_summaries(pr):
    """Every run in these records is correct, so the one rule gives back each
    stored end-to-end summary, and each layer's median over the traced runs."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads((ROOT / f"BENCH_{pr}.json").read_text(encoding="utf-8"))
    for workload in record["workloads"].values():
        for metric in bench["end_to_end"]:
            stored = workload["metrics"][metric["name"]]
            assert _keys(bench_pairs.compare(metric, workload["runs"]), *stored) == stored
        for metric in bench["per_layer"]:
            stored = workload["layers"][metric["name"]]
            summary = bench_pairs.compare(metric, workload["traced_runs"])
            assert {side: summary[side]["median"] for side in bench_pairs.SIDES} == {
                side: stored[side] for side in bench_pairs.SIDES}
