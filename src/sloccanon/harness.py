"""Randomized generators and the brute-force matrix oracle.

Everything the symmetry engine claims is checked here by the defining
computation: assemble the canonical triple as explicit matrices, mix
its slots by T entry by entry, and re-canonicalize from scratch.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .errors import DegenerateParameter, PatternViolation
from .exactmat import Matrix, Scalar, ZERO, ONE, _coerce
from .canon import (AClassRun, CanonicalForm, ILOTriple, TensorState, _mix,
                    commuting_pair_canonical, full_rank_reduce)
from .nilpoly import (TruncPoly, compose, grid_support, mul, reciprocal,
                      shifted_reversion)
from .symmetry import SymmetryParams, apply_all, matrix_of_params, mobius_2nn


# random fractions have numerators in [-BOUND, BOUND] and denominators in
# [1, BOUND]; a random scalar is complex with probability IMAGINARY_RATE
BOUND = 9
IMAGINARY_RATE = 0.2
# parameter draws a trial makes before it reports "degenerate"
MAX_REDRAWS = 20


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))


def _rand_scalar(rng: random.Random, allow_zero: bool = True) -> Scalar:
    while True:
        re = _rand_fraction(rng)
        im = _rand_fraction(rng) if rng.random() < IMAGINARY_RATE \
            else Fraction(0)
        s = Scalar(re, im)
        if allow_zero or not s.is_zero():
            return s


def gen_canonical(seed: int, profile) -> CanonicalForm:
    """Random canonical form honoring the profile's (lambda, size) blocks.

    Same seed and profile, same form; its dimension is the sum of the
    sizes.
    """
    if any(size < 1 for _, size in profile):
        raise PatternViolation("block sizes must be positive")
    rng = random.Random(seed)
    by_lam = {}
    for lam, size in profile:
        lam = _coerce(lam)
        by_lam.setdefault(lam.sort_key(), (lam, []))[1].append(size)
    runs = []
    for key in sorted(by_lam):
        lam, sizes = by_lam[key]
        sizes.sort(reverse=True)
        n1 = sizes[0]
        grid = []
        for i, ni in enumerate(sizes):
            row = []
            for j, nj in enumerate(sizes):
                coeffs = [ZERO] * n1
                for k in grid_support(ni, nj):
                    # degree-0 coupling between equal-size blocks makes
                    # the third slot's spectrum leave the field; keep the
                    # planted spectrum at the diagonal constants
                    if k == 0 and i != j and ni == nj:
                        continue
                    coeffs[k] = _rand_scalar(rng)
                row.append(TruncPoly(n1, tuple(coeffs)))
            grid.append(tuple(row))
        runs.append(AClassRun(lam, tuple(sizes), tuple(grid)))
    return CanonicalForm(tuple(runs))


def gen_params(rng: random.Random) -> SymmetryParams:
    return SymmetryParams(
        _rand_scalar(rng), _rand_scalar(rng), _rand_scalar(rng),
        _rand_scalar(rng, allow_zero=False),
        _rand_scalar(rng, allow_zero=False))


def _rand_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = Matrix.from_rows([[_rand_scalar(rng) for _ in range(n)]
                              for _ in range(n)])
        if m.rank() == n:
            return m


def gen_ilo(seed: int, n: int) -> ILOTriple:
    """Random invertible triple on three slots of n x n matrices.

    T is upper triangular with t[0, 0] = 1 and a nonzero diagonal.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(3):
        row = [ZERO] * 3
        row[i] = ONE if i == 0 else _rand_scalar(rng, allow_zero=False)
        for j in range(i + 1, 3):
            row[j] = _rand_scalar(rng)
        rows.append(row)
    p = _rand_invertible(rng, n)
    q = _rand_invertible(rng, n)
    return ILOTriple(Matrix.from_rows(rows), p, q)


def oracle_recanonicalize(cf: CanonicalForm, t: Matrix,
                          hints=None) -> CanonicalForm:
    """Mix the assembled slots by T and canonicalize from scratch.

    T must be invertible.  Hints are optional eigenvalue candidates;
    they are verified by exact substitution before use, so they only
    speed up the factorization.
    """
    state = TensorState(3, cf.dim, _mix(t, cf.assemble_state().gammas))
    reduced = full_rank_reduce(state)
    out, _ = commuting_pair_canonical(reduced.gammas[1], reduced.gammas[2],
                                      hints=hints)
    return out


# ---------------------------------------------------------------------------
# Trial runner
# ---------------------------------------------------------------------------

# size patterns up to N = 6; None groups blocks under one shared eigenvalue
SIZE_PATTERNS = (
    ((1,),), ((2,),), ((3,),), ((4,),),
    ((1,), (1,)), ((2,), (1,)), ((3,), (2,)), ((2,), (2,), (1,)),
    ((2, 1),), ((2, 2),), ((3, 2),), ((1, 1),), ((3, 2, 1),),
    ((2, 2), (1,)), ((2, 1), (2, 1)),
)


def _random_form(rng: random.Random):
    """(profile, form): a size pattern, distinct eigenvalues for its runs,
    then a random canonical form with those blocks."""
    pattern = SIZE_PATTERNS[rng.randrange(len(SIZE_PATTERNS))]
    lams = []
    while len(lams) < len(pattern):
        lam = _rand_scalar(rng)
        if lam not in lams:
            lams.append(lam)
    profile = tuple((lam, size) for lam, run in zip(lams, pattern)
                    for size in run)
    return profile, gen_canonical(rng.randrange(2 ** 30), profile)


def _record(seed: int, profile, verdict: str, redraws: int = 0) -> dict:
    """One trial's report line."""
    return {"seed": seed,
            "profile": [[str(lam), size] for lam, size in profile],
            "verdict": verdict, "redraws": redraws}


def symmetry_trial(seed: int) -> dict:
    """One oracle-equivalence trial: apply_all vs explicit matrices."""
    rng = random.Random(seed)
    profile, cf = _random_form(rng)
    redraws = 0
    while True:
        sp = gen_params(rng)
        if cf.is_derogatory() and redraws >= 5:
            # coupled derogatory grids generically change Jordan stratum
            # whenever the third slot mixes into the others; keep sampling
            # inside the stratum's stabilizer subgroup
            sp = SymmetryParams(sp.z1, ZERO, ZERO, sp.d2, sp.d3)
        try:
            expected = apply_all(cf, sp)
            break
        except DegenerateParameter:
            redraws += 1
            if redraws > MAX_REDRAWS:
                return _record(seed, profile, "degenerate", redraws)
    actual = oracle_recanonicalize(cf, matrix_of_params(sp),
                                   hints=[run.lam for run in expected.runs])
    return _record(seed, profile, "pass" if actual == expected else "fail",
                   redraws)


def mobius_trial(seed: int) -> dict:
    """2 x N x N law: upper-triangular T acts on eigenvalues as a Mobius map."""
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    lams, sizes = [], []
    while len(lams) < k:
        lam = _rand_scalar(rng)
        if lam not in lams:
            lams.append(lam)
            sizes.append(rng.randint(1, 4))
    n = sum(sizes)
    profile = tuple(zip(lams, sizes))
    cf = gen_canonical(rng.randrange(2 ** 30), profile)
    j = cf.assemble()[0]
    redraws = 0
    while True:
        t11 = _rand_scalar(rng, allow_zero=False)
        t12 = _rand_scalar(rng)
        t22 = _rand_scalar(rng, allow_zero=False)
        if all(not (t11 + t12 * lam).is_zero() for lam in lams):
            break
        redraws += 1
        if redraws > MAX_REDRAWS:
            return _record(seed, profile, "degenerate", redraws)
    e = Matrix.identity(n)
    state = TensorState(2, n, (e.scale(t11) + j.scale(t12), j.scale(t22)))
    reduced = full_rank_reduce(state)
    expected = sorted(
        ((mobius_2nn(lam, t11, t12, t22), size) for lam, size in profile),
        key=lambda b: (b[0].sort_key(), -b[1]))
    # the predicted eigenvalues are hints only; they are verified by exact
    # substitution before being trusted, so the comparison stays sound
    out, _ = commuting_pair_canonical(reduced.gammas[1], Matrix.zero(n, n),
                                      hints=[lam for lam, _ in expected])
    return _record(seed, profile,
                   "pass" if list(out.blocks) == expected else "fail",
                   redraws)


def nilpoly_trial(seed: int) -> dict:
    """Reciprocal and reversion round trips on a random polynomial."""
    rng = random.Random(seed)
    order = rng.randint(2, 6)
    coeffs = [_rand_scalar(rng, allow_zero=False)] + \
             [_rand_scalar(rng, allow_zero=False)] + \
             [_rand_scalar(rng) for _ in range(order - 2)]
    f = TruncPoly(order, tuple(coeffs))
    one = TruncPoly.constant(1, order)
    ok = mul(f, reciprocal(f)) == one
    f0 = f - TruncPoly.constant(f.coeffs[0], order)
    rev = shifted_reversion(f)
    ok = ok and compose(rev, f0) == TruncPoly.variable(order)
    ok = ok and compose(f0, rev) == TruncPoly.variable(order)
    return _record(seed, [("order", order)], "pass" if ok else "fail")


def roundtrip_trial(seed: int) -> dict:
    """The identity T must re-canonicalize to the very same form."""
    profile, cf = _random_form(random.Random(seed))
    ok = oracle_recanonicalize(cf, Matrix.identity(3)) == cf
    return _record(seed, profile, "pass" if ok else "fail")


TRIAL_SUITES = {
    "oracle": symmetry_trial,
    "2nn": mobius_trial,
    "nilpoly": nilpoly_trial,
    "roundtrip": roundtrip_trial,
}


def run_trials(count: int, seed: int = 0, trial=symmetry_trial):
    """Records of count trials in seed order."""
    return [trial(seed * 1_000_003 + i) for i in range(count)]


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
