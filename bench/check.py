"""Checks of each operation's output against computations made apart.

A check returns "ok", "failed" (equiv declined: exit 2, undecided) or a
string starting with "wrong" that says what is wrong.
The canonicalize and equiv replays go through the program's own
``canonicalize``, called by the runner through ``recanon``; everything
else is computed here with the benchmark's own arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import (ONE, ZERO, add_scaled, apply_t, assemble, block_list,
                 charpoly, dm, form_from_json, from_json, gq, key, normalize,
                 rank, t_matrix)

# s values of the pencil J + s A whose characteristic polynomials are
# compared; a necessary condition for simultaneous similarity
PENCIL_S = tuple(gq(v) for v in (0, 1, -2, Fraction(1, 3), Fraction(5, 2)))


def pencil_polys(j, a):
    return [charpoly(add_scaled([(ONE, j), (s, a)])) for s in PENCIL_S]


def _payload(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _blocks(pairs):
    return sorted(((key(lam), int(size)) for lam, size in pairs),
                  key=lambda b: (b[0], -b[1]))


def check_canonicalize(op, code: int, out: str, recanon) -> str:
    if code != 0:
        return f"wrong: exit {code}"
    p = _payload(out)
    if p is None:
        return "wrong: output is not JSON"
    state = op["state"]
    n = len(state[0])
    coeffs = [from_json(c) for c in p["max_rank"]["coefficients"]]
    r = p["max_rank"]["rank"]
    if rank(add_scaled(list(zip(coeffs, state)))) != r:
        return "wrong: max-rank certificate does not hold"
    form = op["form"]
    if op["cls"] == "deficient":
        nn, m, i = op["partition"]
        part = p.get("partition", {})
        if p["kind"] != "partitioned" or r != n - i:
            return f"wrong: rank {r}, expected {n - i}"
        if (part["n"], part["m"], part["i"]) != (nn, m, i):
            return "wrong: (n, m, i) differs from the planted split"
        if p["beta_rank_condition"] is not True:
            return "wrong: remainder rank condition differs"
        g2, g3 = ([[from_json(v) for v in row] for row in g]
                  for g in part["gamma_part"])
        if pencil_polys(g2, g3) != pencil_polys(*assemble(form)):
            return "wrong: full-rank part is not similar to the planted one"
        return "ok"
    if p["kind"] != "canonical" or r != n:
        return f"wrong: rank {r}, expected {n}"
    got = form_from_json(p["canonical"])
    if op["cls"] == "full":
        return "ok" if got == normalize(form) else \
            "wrong: canonical form differs from the planted form"
    # derogatory: the grid is basis-dependent; compare what is invariant
    op["note"] = "derogatory outputs " + (
        "equal to" if got == normalize(form) else "differing from") + \
        " the planted form"
    if _blocks((from_json(lam), s) for lam, s in p["jordan"]) != \
            _blocks(block_list(form)) or \
            _blocks(block_list(got)) != _blocks(block_list(form)):
        return "wrong: Jordan blocks differ from the planted ones"
    if pencil_polys(*assemble(got)) != pencil_polys(*assemble(form)):
        return "wrong: pencil characteristic polynomials differ"
    return "ok"


def _poly_from_roots(roots):
    out = [ONE]
    for r in roots:
        out = [a - r * b for a, b in zip(out + [ZERO], [ZERO] + out)]
    return out


def check_symmetry(op, code: int, out: str, recanon) -> str:
    # the parameters are certified non-degenerate, so exit 2 (degenerate,
    # or an argument the CLI could not parse) is a wrong output
    if code != 0:
        return f"wrong: exit {code}"
    p = _payload(out)
    if p is None:
        return "wrong: output is not JSON"
    got = form_from_json(p)
    pred = op["pred"]
    if _blocks(block_list(got)) != _blocks((lam, n) for lam, n, _ in pred):
        return "wrong: (lambda', size) differ from the predicted ones"
    if op["cls"] == "closed":
        # the closed form against the Jordan decomposition of the
        # explicitly transformed state
        ref = recanon(op["image_state"], [lam for lam, _, _ in pred])
        return "ok" if ref is not None and got == ref else \
            "wrong: differs from canonicalize on the transformed state"
    j_out, a_out = assemble(got)
    if charpoly(a_out) != _poly_from_roots(
            [a0 for _, n, a0 in pred for _ in range(n)]):
        return "wrong: A's eigenvalues differ from the predicted a0'"
    g1, g2, g3 = (dm(g) for g in op["image_state"])
    inv = g1.inv()
    m2, m3 = (inv * g2).to_list(), (inv * g3).to_list()
    if pencil_polys(j_out, a_out) != pencil_polys(m2, m3):
        return "wrong: pencil characteristic polynomials differ"
    return "ok"


def check_equiv(op, code: int, out: str, recanon) -> str:
    p = _payload(out)
    if p is None:
        return "wrong: output is not JSON"
    decision = p.get("decision")
    if decision == "undecided" and code == 2:
        return "failed"
    if op["cls"] == "inequivalent":
        return "ok" if (code, decision) == (1, "inequivalent") else \
            f"wrong: {decision} (exit {code}) on an inequivalent pair"
    if (code, decision) != (0, "equivalent"):
        return f"wrong: {decision} (exit {code}) on an equivalent pair"
    w = {k: from_json(v) for k, v in p["witness"].items()}
    t = t_matrix(w["z1"], w["z2"], w["z3"], w["d2"], w["d3"])
    if not (w["d2"] and w["d3"]):
        return "wrong: witness has a zero scale"
    image = apply_t(t, op["first_state"])
    ref = recanon(image, [lam for lam, _, _ in op["second"]])
    return "ok" if ref is not None and ref == op["second"] else \
        "wrong: witness does not replay to the second form"


def check(op, code: int, out: str, recanon) -> str:
    checker = {"canonicalize": check_canonicalize,
               "symmetry-map": check_symmetry,
               "equiv": check_equiv}[op["cmd"]]
    try:
        return checker(op, code, out, recanon)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"wrong: malformed output ({type(exc).__name__}: {exc})"
