#!/usr/bin/env python3
"""Digest of the CLI's output bytes on the benchmark's operations.

    python3 scripts/cli_digest.py --workload canonicalize --seeds 71001-71002 \\
        --rounds 3

For each seed of the range and each round index below R, the operations
of ``bench/workloads.make_round`` run through ``sloccanon.cli.main`` in
this process, with this checkout's ``src`` and ``bench`` on the import
path.  A ``canonicalize`` operation runs twice, plain and with
``--json``.  The ``selftest`` workload has one operation per seed S,
``selftest --seed S --count 15 --report trials.jsonl``, whose report's
bytes join its call; it ignores the rounds.  The one JSON line printed
holds the number of operations,
the sha256 of every call's (exit code, stdout, stderr) in order, and a
short sha256 of each operation's calls.  The input files are written to a
temporary directory and named relative to it, so a message that quotes a
path reads the same in every run.  Two checkouts whose lines are equal
gave the same output bytes.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _call(main, argv):
    """(exit code, stdout, stderr) of one CLI call; a crash is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"crash: {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def _op_calls(main, workload, seed, rounds):
    """The calls of one seed's operations, one list of calls per op."""
    if workload == "selftest":
        report = Path("trials.jsonl")
        call = _call(main, ["selftest", "--seed", str(seed), "--count", "15",
                            "--report", report.name])
        yield [call + [report.read_text() if report.exists() else None]]
        report.unlink(missing_ok=True)
        return
    from workloads import make_round

    for index in range(rounds):
        for k, op in enumerate(make_round(workload, seed, index)):
            names = []
            for i, obj in enumerate(op["files"]):
                names.append(f"op{k}_{i}.json")
                Path(names[-1]).write_text(json.dumps(obj))
            variants = [op["args"]]
            if op["cmd"] == "canonicalize":
                plain = [a for a in op["args"] if a != "--json"]
                variants = [plain, plain + ["--json"]]
            yield [_call(main, [op["cmd"], *names, *a]) for a in variants]


def digest(workload, seeds, rounds):
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from sloccanon.cli import main

    total, per_op = hashlib.sha256(), []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for seed in seeds:
            for calls in _op_calls(main, workload, seed, rounds):
                calls = json.dumps(calls).encode()
                total.update(calls)
                per_op.append(hashlib.sha256(calls).hexdigest()[:16])
    return {"workload": workload, "seeds": [seeds[0], seeds[-1]],
            "rounds": rounds, "ops": len(per_op),
            "sha256": total.hexdigest(), "op_sha256": per_op}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["canonicalize", "symmetry-map", "equiv",
                            "selftest"])
    p.add_argument("--seeds", required=True, help="a range such as 1-2")
    p.add_argument("--rounds", type=int, default=1)
    args = p.parse_args(argv)
    print(json.dumps(digest(args.workload, _seeds(args.seeds), args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
