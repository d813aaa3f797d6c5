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
BOUNDS = {"ops_per_s": 0.25, "op_p90_ms": 0.25}


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
    summary = bench_pairs.summarize(pairs, BETTER, BOUNDS)
    ops, p90 = summary["ops_per_s"], summary["op_p90_ms"]
    assert (ops["change_wins"], ops["parent_wins"], ops["pairs"]) == (3, 1, 5)
    assert (p90["change_wins"], p90["parent_wins"]) == (3, 1)
    assert ops["parent"] == {"median": 11, "q1": 9.5, "q3": 12.5}
    assert ops["change"]["median"] == 12
    assert p90["parent"] == {"median": 110, "q1": 102.5, "q3": 130.0}
    assert (ops["better"], p90["better"]) == ("higher", "lower")
    # the parent's ops spread, 3 around a median of 11, exceeds 25%
    assert (ops["verdict"], p90["verdict"]) == ("unresolved", "flat")


def test_summary_skips_a_run_without_output():
    parse = bench_pairs.parse_run_output
    pairs = [(parse(_output(10, 100)), None),
             (parse(_output(10, 100)), parse(_output(11, 90)))]
    summary = bench_pairs.summarize(pairs, BETTER, BOUNDS)
    assert summary["ops_per_s"]["change_wins"] == 1
    assert summary["ops_per_s"]["parent_wins"] == 0
    assert summary["ops_per_s"]["change"] == {"median": 11, "q1": 11,
                                              "q3": 11}


# (parent runs, change runs) of ten pairs, run k of each side paired
@pytest.mark.parametrize("direction,parent,change,expected", [
    # tight parent, change ahead on every pair by more than the spread
    ("higher", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [110, 111, 109, 110, 112, 108, 110, 111, 109, 110], "better"),
    # ahead on eight pairs of ten only
    ("higher", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [110, 111, 109, 110, 112, 108, 110, 111, 90, 90], "flat"),
    # behind, but within the bound
    ("lower", [50, 51, 49, 50, 52, 48, 50, 51, 49, 50],
     [55, 56, 54, 55, 57, 53, 55, 56, 54, 55], "flat"),
    # behind by more than the bound
    ("lower", [50, 51, 49, 50, 52, 48, 50, 51, 49, 50],
     [70, 71, 69, 70, 72, 68, 70, 71, 69, 70], "worse"),
    # the parent spreads beyond the bound: even a large loss is unresolved
    ("lower", [0.05, 0.09, 0.05, 0.1, 0.05, 0.09, 0.05, 0.1, 0.06, 0.08],
     [0.07, 0.12, 0.07, 0.13, 0.07, 0.12, 0.07, 0.13, 0.08, 0.1],
     "unresolved"),
    # ... unless every run of the change beats every run of the parent
    ("lower", [0.05, 0.09, 0.05, 0.1, 0.05, 0.09, 0.05, 0.1, 0.06, 0.08],
     [0.02, 0.03, 0.02, 0.03, 0.02, 0.03, 0.02, 0.03, 0.02, 0.04],
     "better"),
    ("lower", [0.05, 0.09, 0.05, 0.1, 0.05, 0.09, 0.05, 0.1, 0.06, 0.08],
     [0.045, 0.048, 0.049, 0.04, 0.045, 0.048, 0.049, 0.04, 0.045, 0.048],
     "flat"),
])
def test_verdicts_of_canned_runs(direction, parent, change, expected):
    parse = bench_pairs.parse_run_output
    pairs = [(parse(_output(p, p)), parse(_output(c, c)))
             for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, {"ops_per_s": direction},
                                    {"ops_per_s": 0.25})
    assert summary["ops_per_s"]["verdict"] == expected


@pytest.mark.parametrize("text,seeds", [("5", [5]), ("7-9", [7, 8, 9])])
def test_seed_ranges(text, seeds):
    assert bench_pairs._seeds(text) == seeds
