"""scripts/bench_pairs.py: the summary of alternating parent/change runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _output(ops_per_s, p90, correct=True):
    result = {"correct": correct, "attempted": 120, "failed": 0,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "op/s"},
                          "op_p90_ms": {"value": p90, "unit": "ms"}}}
    return "workload canonicalize seed 1: 7 rounds\n" + json.dumps(result)


BETTER = {"ops_per_s": "higher", "op_p90_ms": "lower"}


def test_parse_run_output_reads_the_last_line():
    assert bench_pairs.parse_run_output(_output(10, 100))["metrics"][
        "ops_per_s"]["value"] == 10
    assert bench_pairs.parse_run_output("") is None
    assert bench_pairs.parse_run_output("Traceback ...\nKeyError\n") is None


def test_summary_of_canned_runs():
    parse = bench_pairs.parse_run_output
    pairs = [(parse(_output(p_ops, p_p90)), parse(_output(c_ops, c_p90)))
             for (p_ops, p_p90), (c_ops, c_p90) in [
                 ((10, 100), (12, 90)),    # change wins both
                 ((11, 120), (11, 130)),   # tie on ops, parent wins p90
                 ((13, 110), (12, 110)),   # parent wins ops, tie on p90
                 ((12, 105), (14, 95)),    # change wins both
                 ((9, 140), (10, 100))]]   # change wins both
    summary = bench_pairs.summarize(pairs, BETTER)
    ops, p90 = summary["ops_per_s"], summary["op_p90_ms"]
    assert (ops["change_wins"], ops["parent_wins"], ops["pairs"]) == (3, 1, 5)
    assert (p90["change_wins"], p90["parent_wins"]) == (3, 1)
    assert ops["parent"] == {"median": 11, "q1": 9.5, "q3": 12.5}
    assert ops["change"]["median"] == 12
    assert p90["parent"] == {"median": 110, "q1": 102.5, "q3": 130.0}
    assert (ops["better"], p90["better"]) == ("higher", "lower")


def test_summary_skips_a_run_without_output():
    parse = bench_pairs.parse_run_output
    pairs = [(parse(_output(10, 100)), None),
             (parse(_output(10, 100)), parse(_output(11, 90)))]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["ops_per_s"]["change_wins"] == 1
    assert summary["ops_per_s"]["parent_wins"] == 0
    assert summary["ops_per_s"]["change"] == {"median": 11, "q1": 11,
                                              "q3": 11}


@pytest.mark.parametrize("text,seeds", [("5", [5]), ("7-9", [7, 8, 9])])
def test_seed_ranges(text, seeds):
    assert bench_pairs._seeds(text) == seeds
