"""Randomized generators and the brute-force matrix oracle.

Everything the symmetry engine claims is checked here by the defining
computation: assemble the canonical triple as explicit matrices, apply
the local operators entry by entry, and re-canonicalize from scratch.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadProfile, DegenerateParameter
from .exactmat import Matrix, Scalar, ZERO, ONE, _coerce
from .canon import (AClassRun, CanonicalForm, ILOTriple, TensorState,
                    apply_ilo, commuting_pair_canonical, full_rank_reduce)
from .nilpoly import (TruncPoly, compose, grid_support, mul, reciprocal,
                      shifted_reversion)
from .symmetry import SymmetryParams, apply_all, matrix_of_params, mobius_2nn


# random fractions have numerators in [-BOUND, BOUND] and denominators in
# [1, BOUND]; a random scalar is complex with probability IMAGINARY_RATE
BOUND = 9
IMAGINARY_RATE = 0.2
# parameter draws a trial makes before it reports "degenerate"
MAX_REDRAWS = 20


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generation parameters; same seed, same artifacts."""

    seed: int
    N: int
    block_profile: tuple = ()

    def __post_init__(self):
        profile = tuple((_coerce(lam), int(size))
                        for lam, size in self.block_profile)
        object.__setattr__(self, "block_profile", profile)


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


def gen_canonical(cfg: GenConfig) -> CanonicalForm:
    """Random canonical form honoring the profile's (lambda, size) blocks."""
    if sum(size for _, size in cfg.block_profile) != cfg.N:
        raise BadProfile("profile sizes must sum to N")
    if any(size < 1 for _, size in cfg.block_profile):
        raise BadProfile("block sizes must be positive")
    rng = random.Random(cfg.seed)
    by_lam = {}
    for lam, size in cfg.block_profile:
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


def gen_ilo(cfg: GenConfig, family: str = "general") -> ILOTriple:
    """Random invertible triple on three slots; T may be constrained."""
    rng = random.Random(cfg.seed)
    if family == "general":
        t = _rand_invertible(rng, 3)
    elif family == "upper_unitriangular_T":
        rows = []
        for i in range(3):
            row = [ZERO] * 3
            row[i] = ONE if i == 0 else _rand_scalar(rng, allow_zero=False)
            for j in range(i + 1, 3):
                row[j] = _rand_scalar(rng)
            rows.append(row)
        t = Matrix.from_rows(rows)
    else:
        raise BadProfile(f"unknown ILO family: {family}")
    p = _rand_invertible(rng, cfg.N)
    q = _rand_invertible(rng, cfg.N)
    return ILOTriple(t, p, q)


def oracle_recanonicalize(cf: CanonicalForm, ops: ILOTriple,
                          hints=None) -> CanonicalForm:
    """Transform the assembled matrices and canonicalize from scratch.

    Hints are optional eigenvalue candidates; they are verified by exact
    substitution before use, so they only speed up the factorization.
    """
    state = apply_ilo(cf.assemble_state(), ops)
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


def _profile_for(rng: random.Random, pattern):
    """Assign distinct eigenvalues to the pattern's runs."""
    lams = []
    while len(lams) < len(pattern):
        lam = _rand_scalar(rng)
        if lam not in lams:
            lams.append(lam)
    return tuple((lam, size) for lam, run in zip(lams, pattern)
                 for size in run)


def symmetry_trial(seed: int) -> dict:
    """One oracle-equivalence trial: apply_all vs explicit matrices."""
    rng = random.Random(seed)
    pattern = SIZE_PATTERNS[rng.randrange(len(SIZE_PATTERNS))]
    profile = _profile_for(rng, pattern)
    n = sum(size for _, size in profile)
    cf = gen_canonical(GenConfig(seed=rng.randrange(2 ** 30), N=n,
                                 block_profile=profile))
    redraws = 0
    record = {"seed": seed, "profile": [[str(lam), size]
                                        for lam, size in profile]}
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
                record.update(verdict="degenerate", redraws=redraws)
                return record
    ops = ILOTriple(matrix_of_params(sp), Matrix.identity(n),
                    Matrix.identity(n))
    actual = oracle_recanonicalize(cf, ops,
                                   hints=[run.lam for run in expected.runs])
    record.update(verdict="pass" if actual == expected else "fail",
                  redraws=redraws)
    return record


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
    cf = gen_canonical(GenConfig(seed=rng.randrange(2 ** 30), N=n,
                                 block_profile=profile))
    j = cf.assemble()[0]
    record = {"seed": seed, "profile": [[str(lam), size]
                                        for lam, size in profile]}
    redraws = 0
    while True:
        t11 = _rand_scalar(rng, allow_zero=False)
        t12 = _rand_scalar(rng)
        t22 = _rand_scalar(rng, allow_zero=False)
        if all(not (t11 + t12 * lam).is_zero() for lam in lams):
            break
        redraws += 1
        if redraws > MAX_REDRAWS:
            record.update(verdict="degenerate", redraws=redraws)
            return record
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
    record.update(
        verdict="pass" if list(out.blocks) == expected else "fail",
        redraws=redraws)
    return record


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
    return {"seed": seed, "profile": [["order", order]],
            "verdict": "pass" if ok else "fail", "redraws": 0}


def roundtrip_trial(seed: int) -> dict:
    """Identity operators must re-canonicalize to the very same form."""
    rng = random.Random(seed)
    pattern = SIZE_PATTERNS[rng.randrange(len(SIZE_PATTERNS))]
    profile = _profile_for(rng, pattern)
    n = sum(size for _, size in profile)
    cf = gen_canonical(GenConfig(seed=rng.randrange(2 ** 30), N=n,
                                 block_profile=profile))
    ok = oracle_recanonicalize(cf, ILOTriple.identity(3, n)) == cf
    return {"seed": seed, "profile": [[str(lam), size]
                                      for lam, size in profile],
            "verdict": "pass" if ok else "fail", "redraws": 0}


TRIAL_SUITES = {
    "oracle": symmetry_trial,
    "2nn": mobius_trial,
    "nilpoly": nilpoly_trial,
    "roundtrip": roundtrip_trial,
}


def run_trials(count: int, seed: int = 0, jobs: int = 1,
               trial=symmetry_trial):
    """Records of count trials in seed order.

    At most min(jobs, count, CPU count) worker processes are started.
    """
    seeds = [seed * 1_000_003 + i for i in range(count)]
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(trial, seeds))
    return [trial(s) for s in seeds]


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
