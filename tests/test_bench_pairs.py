"""tools/bench_pairs.py: pair summaries, operation counts and reading one
run's result line.

The benchmark itself is never run; each run is a small Python command that
prints what `perfbench/run.py` would.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(*values):
    return [{"parent": {"metrics": {"m": old}}, "change": {"metrics": {"m": new}}}
            for old, new in values]


@pytest.mark.parametrize("better, wins", [("lower", 1), ("higher", 2)])
def test_summarize_counts_wins_by_direction_and_a_tie_for_neither(better, wins):
    pairs = _pairs((5.0, 4.0), (5.0, 5.0), (5.0, 6.0), (5.0, 7.0))
    summary = bench_pairs.summarize({"name": "m", "unit": "ms", "better": better}, pairs)
    assert summary == {
        "unit": "ms", "better": better, "pairs": 4, "change_wins": wins,
        "parent": {"median": 5.0, "q1": 5.0, "q3": 5.0},
        "change": {"median": 5.5, "q1": 4.75, "q3": 6.25},
    }


def test_summarize_skips_a_pair_that_lacks_the_metric():
    pairs = _pairs((5.0, 4.0), (5.0, 4.0))
    del pairs[1]["change"]["metrics"]["m"]
    summary = bench_pairs.summarize({"name": "m", "unit": "ms", "better": "lower"}, pairs)
    assert summary == {"unit": "ms", "better": "lower", "pairs": 1, "change_wins": 1}


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
    pairs = [{"parent": {"metrics": {"a": 1.0, "b": 5.0}}, "change": {"metrics": {"a": 2.0}}},
             {"parent": {"metrics": {"a": 3.0}}, "change": {"metrics": {"a": 4.0}}},
             {"parent": {"metrics": {"a": 9.0}}, "change": {"metrics": {"a": 0.5}}}]
    metrics = [{"name": "a", "unit": "ms", "better": "lower"},
               {"name": "b", "unit": "MB/s", "better": "higher"}]
    assert bench_pairs.layers(metrics, pairs) == {
        "a": {"unit": "ms", "better": "lower", "parent": 3.0, "change": 2.0}}


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
