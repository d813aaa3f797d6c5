#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised in JSON.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload canonicalize --seeds 61001-61010 --out pairs.json

Pair k runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, each in a fresh interpreter with the checkout as
its working directory; S is the k-th seed of the range and T the
``run_seconds`` of the change's ``BENCHMARK.json``.  The parent goes
first on even pairs and the change on odd ones, so that a drift of the
machine's speed falls on both sides alike.

The output file holds, per workload, every run's metrics with its
``correct``/``failed`` fields, and per end-to-end metric of
``BENCHMARK.json`` the median and quartiles of each side and the number
of pairs that the change won (a tie counts for neither side), with a
verdict against the metric's ``bound`` (see ``verdict``).  It also names
both commits, the CPU and its core count, and the Python and sympy
versions.  Running the script again with another workload adds that
workload to an existing file of the same two commits.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run_output(stdout: str):
    """The JSON object on the last line of bench/run.py's output."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent, change, wins, pairs, direction, bound):
    """"better", "flat", "worse" or "unresolved" for one metric.

    parent and change are the values of each side's runs, wins the
    pairs that the change won out of pairs, and bound the relative
    change that BENCHMARK.json allows.  The metric is unresolved when
    the parent's quartile spread exceeds bound times its median, unless
    every run of the change beats every run of the parent.  Otherwise it
    is better when the change wins nine pairs in ten and its median
    beats the parent's by more than that spread, worse when its median
    is behind by more than bound, and flat in between.
    """
    sign = 1 if direction == "higher" else -1
    p, c = _spread(parent), _spread(change)
    iqr, scale = p["q3"] - p["q1"], abs(p["median"])
    dominates = min(sign * v for v in change) > max(sign * v for v in parent)
    gain = sign * (c["median"] - p["median"])
    if iqr > bound * scale and not dominates:
        return "unresolved"
    if wins >= 0.9 * pairs and gain > iqr:
        return "better"
    return "worse" if -gain > bound * scale else "flat"


def summarize(pairs, better, bounds):
    """Per-metric spread of both sides, the change's wins and a verdict.

    pairs is a list of (parent result, change result), each the JSON
    object of one run or None when the run printed none; better maps a
    metric name to "higher" or "lower", and bounds maps it to its bound.
    """
    out = {}
    for name, direction in better.items():
        values = {"parent": [], "change": []}
        wins = losses = 0
        for parent, change in pairs:
            got = [None if r is None else
                   r["metrics"].get(name, {}).get("value")
                   for r in (parent, change)]
            for side, v in zip(values, got):
                if v is not None:
                    values[side].append(v)
            if None in got or got[0] == got[1]:
                continue
            if (got[1] > got[0]) == (direction == "higher"):
                wins += 1
            else:
                losses += 1
        if values["parent"] and values["change"]:
            out[name] = {"better": direction,
                         "parent": _spread(values["parent"]),
                         "change": _spread(values["change"]),
                         "change_wins": wins, "parent_wins": losses,
                         "pairs": len(pairs),
                         "verdict": verdict(values["parent"],
                                            values["change"], wins,
                                            len(pairs), direction,
                                            bounds[name])}
    return out


def _git(path, *args):
    try:
        return subprocess.run(["git", "-C", str(path), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _checkout(path):
    status = _git(path, "status", "--porcelain")
    return {"commit": _git(path, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def _machine():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import sympy
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "sympy": sympy.__version__}


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = parse_run_output(proc.stdout)
    return {"exit": proc.returncode,
            "correct": None if result is None else result["correct"],
            "attempted": None if result is None else result["attempted"],
            "failed": None if result is None else result["failed"],
            "metrics": None if result is None else
            {k: v["value"] for k, v in result["metrics"].items()}}, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a range such as 1-10")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"parent": _checkout(args.parent),
           "change": _checkout(args.change), "machine": _machine(),
           "command": f"bench/run.py --seconds {seconds} --trace 0",
           "workloads": {}}
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if (old["parent"]["commit"], old["change"]["commit"]) != \
                (doc["parent"]["commit"], doc["change"]["commit"]):
            p.error(f"{args.out} records other commits")
        doc["workloads"] = old["workloads"]

    runs, pairs = [], []
    for k, seed in enumerate(_seeds(args.seeds)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            record, results[side] = run_once(getattr(args, side),
                                             args.workload, seed, seconds)
            runs.append({"pair": k, "seed": seed, "side": side, **record})
            print(f"pair {k} seed {seed} {side}: exit {record['exit']} "
                  f"{record['metrics']}", file=sys.stderr)
        pairs.append((results["parent"], results["change"]))
    doc["workloads"][args.workload] = {
        "seeds": args.seeds, "summary": summarize(pairs, better, bounds),
        "runs": runs}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
