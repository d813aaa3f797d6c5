"""The three workloads: seeded rounds of operations with their expectations.

A round is a fixed list of slots, each an operation class with a fixed
shape (block sizes, remainder type) and a fixed choice of whether the
input carries a complex eigenvalue; the seed only draws the values.
Every run attempts whole rounds, so the class mix is the same in every
run.  Each operation is a dict with the subcommand arguments, the input
files to write, and what the check needs to know about the planted
input; no input repeats within a run.
"""

from __future__ import annotations

import random

from gen import (Degenerate, ONE, apply_t, assemble, block_diag,
                 block_image, conjugate_state, diag_constants, form_to_json,
                 identity, image_form, key, merging_params,
                 predicted_constants, rand_derogatory, rand_invertible,
                 rand_nonderogatory, rand_params, state_to_json, t_matrix,
                 to_literal, zeros)


# ---------------------------------------------------------------------------
# canonicalize: scrambled full-rank and rank-deficient 3 x N x N states
# ---------------------------------------------------------------------------

# rank-deficient remainders (slot matrices, m, i): the combination
# t1*B1 + t2*B2 + t3*B3 has maximum rank m - i by construction
def _e(n, cells):
    m = zeros(n)
    for i, j in cells:
        m[i][j] = ONE
    return m


REMAINDERS = {
    # [[t1, t2], [0, 0]]: a 1 x 2 Kronecker block plus a zero row
    "row": ((_e(2, [(0, 0)]), _e(2, [(0, 1)]), zeros(2)), 2, 1),
    # [[t1, 0], [t3, 0]]: a 2 x 1 Kronecker block plus a zero column
    "col": ((_e(2, [(0, 0)]), zeros(2), _e(2, [(1, 0)])), 2, 1),
    # [[t1, t2, 0], [0, t1, t2], [0, 0, 0]]: a 2 x 3 block plus a zero row
    "chain": ((_e(3, [(0, 0), (1, 1)]), _e(3, [(0, 1), (1, 2)]), zeros(3)),
              3, 1),
}

# (class, shape, complex eigenvalue)
CANONICALIZE_ROUND = (
    ("full", (2, 1, 1), False),
    ("full", (1, 1, 1, 1), False),
    ("full", (3, 1), False),
    ("full", (2, 2), False),
    ("full", (2, 1, 1, 1), False),
    ("full", (2, 2, 1), False),
    ("full", (3, 1, 1), False),
    ("full", (3, 2, 1), False),
    ("full", (3, 2, 1, 1), False),
    ("full", (4, 2, 1, 1), False),
    ("full", (2, 1, 1), True),
    ("full", (3, 1), True),
    ("derogatory", ((2, 1), (1,)), False),
    ("derogatory", ((2, 2),), False),
    ("deficient", ((1, 1), "row"), False),
    ("deficient", ((1, 1), "col"), False),
    ("deficient", ((1,), "chain"), False),
)


def _state_op(rng, gammas, **expect):
    n = len(gammas[0])
    scrambled = conjugate_state(gammas, rand_invertible(rng, n),
                                rand_invertible(rng, n))
    return {"cmd": "canonicalize", "files": [state_to_json(scrambled)],
            "args": ["--json"], "state": scrambled, **expect}


def canonicalize_op(rng, cls, shape, complex_):
    if cls == "full":
        form = rand_nonderogatory(rng, shape, complex_)
    elif cls == "derogatory":
        form = rand_derogatory(rng, shape)
    else:
        sizes, rem = shape
        form = rand_nonderogatory(rng, sizes, complex_)
        j, a = assemble(form)
        (b1, b2, b3), m, i = REMAINDERS[rem]
        gammas = [block_diag([identity(len(j)), b1]),
                  block_diag([j, b2]), block_diag([a, b3])]
        return _state_op(rng, gammas, cls=cls, form=form,
                         partition=(len(j), m, i))
    j, a = assemble(form)
    return _state_op(rng, [identity(len(j)), j, a], cls=cls, form=form)


# ---------------------------------------------------------------------------
# symmetry-map: canonical forms with certified group parameters
# ---------------------------------------------------------------------------

SYMMETRY_ROUND = (
    ("closed", (2, 1), False),
    ("closed", (3, 1), False),
    ("closed", (2, 2), False),
    ("closed", (1, 1, 1), False),
    ("closed", (2, 1, 1), False),
    ("closed", (3, 2), False),
    ("closed", (4, 1), False),
    ("closed", (2, 1), True),
    ("closed", (1, 1, 1), True),
    ("closed", (3, 1, 1), False),
    ("merged", (2, 1, 1), False),
    ("derogatory", ((2, 1),), False),
    ("derogatory", ((2, 1),), False),
)


def _params_args(params):
    # "--z1=-1/2": a separate "-1/2" would read as an option
    return [f"--{name}={to_literal(v)}"
            for name, v in zip(("z1", "z2", "z3", "d2", "d3"), params)]


def _predictions(form, t):
    """[(lam', size, a0')] per block; raises Degenerate where undefined."""
    out = []
    for lam, n, a0 in diag_constants(form):
        lam2, a02 = predicted_constants(lam, a0, t)
        out.append((lam2, n, a02))
    return out


def symmetry_op(rng, cls, shape, complex_):
    while True:
        if cls == "derogatory":
            form = rand_derogatory(rng, shape)
            # coupled derogatory grids leave their Jordan stratum when the
            # third slot mixes into the others: z2 = z3 = 0
            params = rand_params(rng, z2z3=False)
        else:
            form = rand_nonderogatory(rng, shape, complex_)
        try:
            if cls == "merged":
                params = merging_params(rng, form)
            elif cls == "closed":
                params = rand_params(rng)
            t = t_matrix(*params)
            pred = _predictions(form, t)
            if cls != "derogatory":
                images = [block_image(lam, grid[0][0], t)
                          for lam, _, grid in form]
                distinct = len({key(lam) for lam, _ in images})
                if (distinct < len(images)) != (cls == "merged"):
                    continue
        except Degenerate:
            continue
        j, a = assemble(form)
        image_state = apply_t(t, [identity(len(j)), j, a])
        return {"cmd": "symmetry-map", "files": [form_to_json(form)],
                "args": _params_args(params), "cls": cls, "form": form,
                "pred": pred, "image_state": image_state}


# ---------------------------------------------------------------------------
# equiv: equivalent pairs and certified-inequivalent pairs
# ---------------------------------------------------------------------------

EQUIV_ROUND = (
    ("equivalent", (1, 1, 1), False),
    ("equivalent", (1, 1, 1), False),
    ("equivalent", (2, 1, 1), False),
    ("equivalent", (2, 1, 1), False),
    ("equivalent", (2, 2, 1), False),
    ("equivalent", (3, 1, 1), False),
    ("equivalent", (3, 2, 1), False),
    ("equivalent", (2, 1, 1), True),
    ("equivalent", (1, 1, 1), True),
    ("equivalent", (2, 2, 1), True),
    ("inequivalent", (1, 1, 1), False),
    ("inequivalent", (2, 1, 1), False),
    ("inequivalent", (2, 2, 1), False),
    ("inequivalent", (3, 1, 1), False),
    ("equivalent", (1, 1, 1, 1), False),
    ("equivalent", (2, 1), False),
    ("equivalent", (2, 1), False),
    ("equivalent", (2, 2), False),
    ("equivalent", (2, 2), False),
    ("equivalent", (3, 1), False),
)


def equiv_op(rng, cls, sizes, complex_):
    while True:
        if cls == "inequivalent":
            # a0 = 0 on a block is kept by the group (a0' = t33 a0 / den),
            # so a form with such a block and one without are inequivalent
            first = rand_nonderogatory(rng, sizes, complex_, zero_a0=0)
            second = rand_nonderogatory(rng, sizes, complex_,
                                        nonzero_a0=True)
        else:
            first = rand_nonderogatory(rng, sizes, complex_)
            # with lambda = 0 or a0 = 0 on a block, equiv can end undecided
            # on an equivalent pair (bench/probes.py), so such pairs are
            # kept out
            if any(not lam or not a0 for lam, _, a0 in
                   diag_constants(first)):
                continue
            params = rand_params(rng)
            try:
                second = image_form(first, t_matrix(*params))
            except Degenerate:
                continue
            if second == first:
                continue
        j, a = assemble(first)
        return {"cmd": "equiv", "cls": cls,
                "files": [form_to_json(first), form_to_json(second)],
                "args": ["--json"], "first": first, "second": second,
                "first_state": [identity(len(j)), j, a]}


WORKLOADS = {
    "canonicalize": (CANONICALIZE_ROUND, canonicalize_op),
    "symmetry-map": (SYMMETRY_ROUND, symmetry_op),
    "equiv": (EQUIV_ROUND, equiv_op),
}


def make_round(workload: str, seed: int, index: int):
    """The index-th round of a workload's seeded input stream."""
    slots, build = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    return [build(rng, *slot) for slot in slots]
