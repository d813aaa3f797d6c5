"""Reproduce the program faults the benchmark keeps out of its workloads.

    python3 bench/probes.py

Each probe builds its input with the benchmark's own generator, runs it
through ``sloccanon.cli.main`` like the benchmark does, and prints what
happened.
"""

import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import sloccanon  # noqa: E402
import sloccanon.cli as cli  # noqa: E402

import spans  # noqa: E402
from gen import (ZERO, Degenerate, assemble, block_diag,  # noqa: E402
                 conjugate_state, form_to_json, gq, identity, image_form,
                 nonderogatory, rand_invertible, rand_nonderogatory,
                 rand_params, state_to_json, t_matrix, zeros)
from run import Client  # noqa: E402
from workloads import canonicalize_op  # noqa: E402


def zero_padded_state(client):
    """A full-rank 2 x 2 part direct-summed with a 1 x 1 zero block."""
    rng = random.Random(0)
    j, a = assemble(rand_nonderogatory(rng, (1, 1)))
    gammas = [block_diag([identity(2), zeros(1)]), block_diag([j, zeros(1)]),
              block_diag([a, zeros(1)])]
    state = conjugate_state(gammas, rand_invertible(rng, 3),
                            rand_invertible(rng, 3))
    path = client.write("padded.json", state_to_json(state))
    code, out, ns = client.call(["canonicalize", path, "--json"])
    print(f"zero-padded state: exit {code} after {ns / 1e9:.2f} s: "
          f"{client.last_stderr.strip()}")


def _equiv(client, first, second):
    paths = [client.write(f"pair{i}.json", form_to_json(f))
             for i, f in enumerate((first, second))]
    _, out, _ = client.call(["equiv", *paths, "--json"])
    return json.loads(out)["decision"]


def zero_constant_pairs(client):
    """equiv on equivalent (3,1) pairs with zeros among their constants."""
    # the size-1 block has lambda = a0 = 0, so every group element fixes
    # it and it pins no parameter
    first = nonderogatory([(gq(-2), [gq(Fraction(4, 3)), gq(4), gq(2)]),
                           (ZERO, [ZERO])])
    rng = random.Random(0)
    decisions = {}
    for _ in range(12):
        try:
            second = image_form(first, t_matrix(*rand_params(rng)))
        except Degenerate:
            continue
        decision = _equiv(client, first, second)
        decisions[decision] = decisions.get(decision, 0) + 1
    print(f"(3,1) pairs with a block fixed by the group: {decisions}")
    # a0 = 0 on the size-1 block, lambda = 0 on the size-3 one; the second
    # form is the image under z = (0, -3/2, 2), d2 = 3/2, d3 = -3
    first = nonderogatory([(gq(-2), [ZERO]),
                           (ZERO, [gq(4), gq(2), gq(-2)])])
    t = t_matrix(ZERO, gq(Fraction(-3, 2)), gq(2), gq(Fraction(3, 2)),
                 gq(-3))
    print("(3,1) pair with a0 = 0 on one block and lambda = 0 on the "
          f"other: {_equiv(client, first, image_form(first, t))}")


def rank_sweeps(client):
    """max_rank_combination calls per canonicalize, and ranks per call."""
    tracer = spans.Tracer(sloccanon)
    patch = spans.Patch()
    tracer.install(patch)
    try:
        for cls, shape in (("full", (2, 1, 1)), ("deficient", ((1, 1), "row"))):
            op = canonicalize_op(random.Random(0), cls, shape, False)
            path = client.write("sweep.json", op["files"][0])
            start = len(tracer.spans)
            t0 = time.perf_counter()
            client.call(["canonicalize", path, "--json"], tracer)
            elapsed = time.perf_counter() - t0
            new = tracer.spans[start:]
            sweeps = [i for i, s in enumerate(new, start)
                      if s[0] == "canon.max_rank_combination"]
            ranks = [sum(1 for s in tracer.spans[i:] if s[1] == i
                         and s[0] == "exactmat.rref") for i in sweeps]
            sweep_s = sum(tracer.spans[i][3] - tracer.spans[i][2]
                          for i in sweeps) / 1e9
            print(f"{cls} {shape}: {len(sweeps)} max_rank_combination calls, "
                  f"rank evaluations per call {ranks}, "
                  f"{sweep_s:.2f} s of {elapsed:.2f} s in the sweeps")
    finally:
        patch.undo()


def main():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        client = Client(cli, Path(tmp))
        zero_padded_state(client)
        zero_constant_pairs(client)
        rank_sweeps(client)


if __name__ == "__main__":
    main()
