"""Benchmark of sloccanon's canonicalize, symmetry-map and equiv subcommands.

    python3 bench/run.py --workload canonicalize --seed 1 --seconds 30 \\
        --trace 0

Run from the repository root.  One client drives the subcommand through
``sloccanon.cli.main`` in this process, one operation after another
(a closed loop), on inputs generated from the seed.  Whole rounds of
operations are run until ``--seconds`` of wall time have passed and at
least 100 operations were made.  Each output is checked after its call,
outside the timed interval.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 100
# set-up is timed in this process and in fresh interpreters started after
# the timed loop; setup_s is the median of these cold set-ups
SETUP_SAMPLES = 5

# tiny fixed inputs for the untimed warm-up call of each subcommand
_CANON = {"blocks": [{"lambda": "1", "size": 2, "coeffs": ["2", "3"]},
                     {"lambda": "3", "size": 1, "coeffs": ["5"]}]}
WARMUP = {
    "canonicalize": ([{"L": 3, "N": 2, "gammas": [
        [["1", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]],
        [["2", "3"], ["0", "2"]]]}], ["--json"]),
    "symmetry-map": ([_CANON], ["--z1", "1/2", "--d2", "2"]),
    "equiv": ([_CANON, _CANON], ["--json"]),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WARMUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time and exit")
    return p.parse_args(argv)


class Client:
    """Calls the CLI in-process with files under a private directory."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.last_stderr = ""

    def write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def call(self, argv, tracer=None):
        """(exit code, stdout, elapsed ns) of one CLI invocation."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    with tracer.span("op"):
                        code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a wrong output
                code = f"crash: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - t0
        self.last_stderr = err.getvalue()
        return code, out.getvalue(), elapsed

    def recanon(self, state, hints):
        """The program's canonical form of an explicit state, or None."""
        from gen import form_from_json, state_to_json, to_literal
        path = self.write("recanon.json", state_to_json(state))
        code, out, _ = self.call([
            "canonicalize", path, "--json",
            "--hints=" + ",".join(map(to_literal, hints))])
        if code != 0:
            return None
        payload = json.loads(out)
        if payload.get("kind") != "canonical":
            return None
        return form_from_json(payload["canonical"])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sloccanon" / "cli.py").is_file():
        print(f"bench: no sloccanon sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # set-up: importing the CLI (and sympy with it) plus one warm-up call
    cli = importlib.import_module("sloccanon.cli")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(cli, workdir)
        files, extra = WARMUP[args.workload]
        paths = [client.write(f"warmup{i}.json", f)
                 for i, f in enumerate(files)]
        code, _, _ = client.call([args.workload, *paths, *extra])
        setup_s = time.perf_counter() - _T0
        if code != 0:
            print(f"bench: warm-up call exited {code}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(setup_s)
            return 0
        return run(args, client, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, client, setup_s) -> int:
    # imported only now: gen imports sympy, whose import belongs to the
    # program's set-up time
    from check import check
    from workloads import make_round
    import spans
    from sympy.core.cache import clear_cache

    pkg = sys.modules["sloccanon"]
    tracer = spans.Tracer(pkg) if args.trace else None
    patch = spans.Patch()
    digest = hashlib.sha256()
    times, traced_times, slowdowns = [], [], []
    by_class, wrong, notes = {}, [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        ops = make_round(args.workload, args.seed, index)
        for k, op in enumerate(ops):
            for f in op["files"]:
                digest.update(json.dumps(f, sort_keys=True).encode())
            digest.update(json.dumps(op["args"]).encode())
            paths = [client.write(f"op{k}_{i}.json", f)
                     for i, f in enumerate(op["files"])]
            argv = [op["cmd"], *paths, *op["args"]]
            # the traced run repeats each operation untraced, with the
            # wrappers taken out, so the overhead is measured on equal
            # inputs against the bare program.  sympy's cache is emptied
            # before both calls, or the second would find the first one's
            # results there; which goes first alternates all the same
            passes = [None] if tracer is None else \
                ([None, tracer] if (index + k) % 2 == 0 else [tracer, None])
            for tr in passes:
                if tracer is not None:
                    clear_cache()
                if tr is not None:
                    tr.install(patch)
                code, out, ns = client.call(argv, tr)
                patch.undo()
                (times if tr is None else traced_times).append(ns)
                if len(passes) == 2 and tr is passes[1]:
                    slowdowns.append(traced_times[-1] / times[-1] - 1)
                if tr is None:
                    by_class.setdefault(op["cls"], []).append(ns)
                attempted += 1
                verdict = check(op, code, out, client.recanon)
                if verdict == "failed":
                    failed += 1
                elif verdict != "ok":
                    wrong.append(f"round {index} op {k} ({op['cls']}): "
                                 f"{verdict}")
                if "note" in op:
                    notes[op["note"]] = notes.get(op["note"], 0) + 1
        index += 1
    print(f"workload {args.workload} seed {args.seed}: {index} rounds, "
          f"{len(times)} operations, inputs sha256 "
          f"{digest.hexdigest()[:16]}")
    for cls, ns in sorted(by_class.items()):
        print(f"  {cls}: {len(ns)} ops, median "
              f"{statistics.median(ns) / 1e6:.2f} ms, max "
              f"{max(ns) / 1e6:.2f} ms")
    for note, count in sorted(notes.items()):
        print(f"  {note}: {count}")
    for line in wrong[:20]:
        print(f"  WRONG {line}")
    if tracer is None:
        metrics = {
            "ops_per_s": (len(times) / (sum(times) / 1e9), "op/s"),
            "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
            "op_p90_ms": (statistics.quantiles(times, n=10)[8] / 1e6, "ms"),
            "setup_s": (statistics.median(
                [setup_s, *cold_setups(args.workload)]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
    else:
        values = tracer.summary(len(traced_times))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"  {len(tracer.spans)} spans written to "
              f"{trace_path.relative_to(ROOT)}")
        values.update(scalar_pass(client, args, pkg))
        values["trace.ops_per_s"] = \
            len(traced_times) / (sum(traced_times) / 1e9)
        # the median of the per-operation slowdowns: one slow operation
        # can take twice as long on one call as on the next, which swamps
        # a ratio of the sums
        values["trace.overhead"] = statistics.median(slowdowns)
        metrics = {k: (values.get(k), unit)
                   for k, (unit, _) in spans.METRICS.items()}
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    if failed:
        # every workload is built so that no operation is declined
        print(f"bench: {failed} operations declined", file=sys.stderr)
    return 0 if not (wrong or failed) else 1


def cold_setups(workload):
    """Set-up times of fresh interpreters, each timed from its own start."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", "0",
             "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def scalar_pass(client, args, pkg):
    """Scalar add/mul counts over round 0, then their cost per call."""
    import spans
    from workloads import make_round

    counter = spans.ScalarCounter(pkg.exactmat.Scalar)
    patch = spans.Patch()
    counter.install(patch)
    ops = make_round(args.workload, args.seed, 0)
    try:
        for k, op in enumerate(ops):
            paths = [client.write(f"op{k}_{i}.json", f)
                     for i, f in enumerate(op["files"])]
            client.call([op["cmd"], *paths, *op["args"]])
    finally:
        patch.undo()
    return {
        "exactmat.scalar_mul.calls": counter.calls["mul"] / len(ops),
        "exactmat.scalar_add.calls": counter.calls["add"] / len(ops),
        "exactmat.scalar_mul.ns": counter.ns_per_call("mul"),
        "exactmat.scalar_add.ns": counter.ns_per_call("add"),
    }


if __name__ == "__main__":
    sys.exit(main())
