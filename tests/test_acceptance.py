"""Acceptance suite: one test per top-level criterion, exact equality only.

Each test carries its own time budget; elapsed time is asserted so that a
performance regression shows up as a plain test failure.
"""

import io
import contextlib
import itertools
import json
import random
import time
from fractions import Fraction

from sloccanon.canon import CanonicalForm, ILOTriple, apply_ilo, \
    beta_canonical_check, commuting_pair_canonical, full_rank_reduce, \
    PartitionedForm
from sloccanon.cli import canon_to_json, main, scalar_from_json
from sloccanon.errors import DegenerateParameter
from sloccanon.exactmat import (Matrix, Scalar, commutant_basis,
                                jordan_matrix)
from sloccanon.harness import (_rand_scalar, gen_canonical, gen_params,
                               mobius_trial, run_trials, symmetry_trial)
from sloccanon.nilpoly import TruncPoly, compose, mul, reciprocal, \
    shifted_reversion
from sloccanon.symmetry import SymmetryParams, apply_all, matrix_of_params


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def single_block(lam, *coeffs):
    return CanonicalForm.from_blocks([(lam, len(coeffs), tuple(coeffs))])


def block_tuple(cf):
    (lam, _, coeffs), = cf.block_data()
    return (lam,) + tuple(coeffs)


def _rand_nonzero(rng):
    return _rand_scalar(rng, allow_zero=False)


# -- criterion 1: golden third-slot shear on (1, 0, 2, 3) --------------------

def test_criterion_1_ja_golden_map():
    # For the block (lam, a0, a1, a2) = (1, 0, 2, 3) the z3 shear keeps
    # lam and a0 and divides a1 by c = 1 + a1*z3 and a2 by c**3.  The
    # expected tuple is cross-checked against the explicit matrix action
    # below, so the closed form is not self-certifying.
    cf = single_block(sc(1), sc(0), sc(2), sc(3))
    zs = [sc(Fraction(p, q)) for p, q in
          ((1, 1), (-1, 1), (2, 1), (1, 3), (-1, 3), (5, 7), (-3, 4))]
    start = time.perf_counter()
    outs = [apply_all(cf, SymmetryParams(0, 0, z, 1, 1)) for z in zs]
    elapsed = time.perf_counter() - start
    for z, out in zip(zs, outs):
        c = sc(1) + sc(2) * z
        assert block_tuple(out) == (sc(1), sc(0), sc(2) / c, sc(3) / c ** 3)
    # matrix oracle for one sample point
    z = sc(Fraction(1, 3))
    sp = SymmetryParams(sc(0), sc(0), z, sc(1), sc(1))
    ops = ILOTriple(matrix_of_params(sp), Matrix.identity(3),
                    Matrix.identity(3))
    reduced = full_rank_reduce(apply_ilo(cf.assemble_state(), ops))
    oracle, _ = commuting_pair_canonical(reduced.gammas[1],
                                         reduced.gammas[2])
    assert oracle == apply_all(cf, sp)
    assert elapsed / len(zs) < 0.001


# -- criterion 2: first-slot shears match their closed forms -----------------

def test_criterion_2_ej_ea_closed_forms():
    rng = random.Random(2024)
    start = time.perf_counter()
    done = 0
    while done < 50:
        lam = _rand_scalar(rng)
        a0, a1, a2 = (_rand_scalar(rng) for _ in range(3))
        z = _rand_nonzero(rng)
        cf = single_block(lam, a0, a1, a2)
        c1 = sc(1) + z * lam
        c2 = sc(1) + z * a0
        d2 = sc(1) + z * (a0 - a1 * lam)
        if c1.is_zero() or c2.is_zero() or d2.is_zero():
            continue
        assert block_tuple(apply_all(cf, SymmetryParams(z, 0, 0, 1, 1))) == \
            (lam / c1, a0 / c1, a1 - a0 * z + a1 * z * lam, a2 * c1 ** 3)
        assert block_tuple(apply_all(cf, SymmetryParams(0, z, 0, 1, 1))) == \
            (lam / c2, a0 / c2, a1 / d2, a2 * c2 ** 3 / d2 ** 3)
        done += 1
    assert time.perf_counter() - start < 1.0


# -- criterion 3: two-slot eigenvalue transformation law ---------------------

def test_criterion_3_mobius_law():
    start = time.perf_counter()
    records = run_trials(100, seed=3, trial=mobius_trial)
    elapsed = time.perf_counter() - start
    assert [r["verdict"] for r in records] == ["pass"] * 100
    assert elapsed < 5.0


# -- criterion 4: symmetry engine equals the matrix oracle -------------------

def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    records = run_trials(300, seed=5, trial=symmetry_trial)
    elapsed = time.perf_counter() - start
    assert [r["verdict"] for r in records] == ["pass"] * 300
    # the sampled profiles must include derogatory repeats
    assert any(len({tuple(b) for b in r["profile"]}) < len(r["profile"])
               or any(lam == lam2 for (lam, _), (lam2, _) in
                      itertools.combinations(map(tuple, r["profile"]), 2))
               for r in records)
    assert elapsed < 60.0


# -- criterion 5: orbit decisions through the command line -------------------

def test_criterion_5_orbit_decision_soundness(tmp_path):
    rng = random.Random(99)
    profile_sizes = [(2, 1), (3, 1), (2, 2), (1, 1, 1), (2, 2, 1),
                     (3, 2, 1)]
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    start = time.perf_counter()
    forms = []
    for _ in range(100):
        sizes = profile_sizes[rng.randrange(len(profile_sizes))]
        lams = []
        while len(lams) < len(sizes):
            lam = _rand_scalar(rng)
            if lam not in lams:
                lams.append(lam)
        cf = gen_canonical(rng.randrange(2 ** 30), tuple(zip(lams, sizes)))
        while True:
            try:
                cf2 = apply_all(cf, gen_params(rng))
                break
            except DegenerateParameter:
                continue
        a_path.write_text(json.dumps(canon_to_json(cf)))
        b_path.write_text(json.dumps(canon_to_json(cf2)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["equiv", str(a_path), str(b_path), "--json"])
        assert code == 0
        payload = json.loads(buf.getvalue())
        assert payload["decision"] == "equivalent"
        witness = SymmetryParams(*(scalar_from_json(payload["witness"][k], k)
                                   for k in ("z1", "z2", "z3", "d2", "d3")))
        assert apply_all(cf, witness) == cf2
        forms.append(cf)
    # different block-size multisets must come back inequivalent
    for cf1, cf2 in zip(forms, forms[1:]):
        if sorted(s for _, s in cf1.blocks) == \
                sorted(s for _, s in cf2.blocks):
            continue
        a_path.write_text(json.dumps(canon_to_json(cf1)))
        b_path.write_text(json.dumps(canon_to_json(cf2)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["equiv", str(a_path), str(b_path)]) == 1
    assert time.perf_counter() - start < 60.0


# -- criterion 6: commutant dimension theorem --------------------------------

def _sparse_rank(rows):
    """Rank of a sparse rational matrix given as dicts column -> value."""
    rank = 0
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                factor = row.pop(c)
                for cc, v in pivots[c].items():
                    nv = row.get(cc, Fraction(0)) - factor * v
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                inv = 1 / row[c]
                pivots[c] = {cc: v * inv for cc, v in row.items() if cc != c}
                rank += 1
                break
    return rank


def _kron_nullity(j):
    """dim ker(M -> M J - J M) by an independent sparse linear solve."""
    n = j.rows
    rows = []
    for a in range(n):
        for b in range(n):
            row = {}
            for k in range(n):
                if not j[k, b].is_zero():
                    row[a * n + k] = row.get(a * n + k,
                                             Fraction(0)) + j[k, b].re
                if not j[a, k].is_zero():
                    row[k * n + b] = row.get(k * n + b,
                                             Fraction(0)) - j[a, k].re
            rows.append({c: v for c, v in row.items() if v})
    return n * n - _sparse_rank(rows)


def _set_partitions(k):
    def rec(prefix, mx):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))
    return rec([], -1)


def test_criterion_6_commutant_dimension():
    lams = (sc(0), sc(1), sc(5))  # rational, so the solve stays rational
    specs = set()
    for k in (1, 2, 3):
        for sizes in itertools.product((1, 2, 3, 4), repeat=k):
            for part in _set_partitions(k):
                specs.add(tuple(sorted(
                    ((lams[part[i]], sizes[i]) for i in range(k)),
                    key=lambda b: (b[0].sort_key(), -b[1]))))
    start = time.perf_counter()
    for spec in sorted(specs, key=lambda s: (sum(n for _, n in s), str(s))):
        expected = sum(min(ni, nj)
                       for li, ni in spec
                       for lj, nj in spec if li == lj)
        basis = commutant_basis(spec)
        assert len(basis) == expected
        j = jordan_matrix(spec)
        for b in basis:
            assert (b @ j - j @ b).is_zero()
        assert _kron_nullity(j) == expected
    assert time.perf_counter() - start < 10.0


# -- criterion 7: truncated-series identities --------------------------------

def test_criterion_7_nilpoly_round_trips():
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(200):
        order = rng.randint(2, 6)
        coeffs = [_rand_nonzero(rng), _rand_nonzero(rng)] + \
                 [_rand_scalar(rng) for _ in range(order - 2)]
        f = TruncPoly(order, tuple(coeffs))
        assert mul(f, reciprocal(f)) == TruncPoly.constant(1, order)
        shifted = f - TruncPoly.constant(f.coeffs[0], order)
        g = shifted_reversion(f)
        x = TruncPoly.variable(order)
        assert compose(g, shifted) == x
        assert compose(shifted, g) == x
    # the worked reversion: f = lam/c + x/c**2 - z1*x**2/c**3 with
    # c = 1 + z1*lam inverts to c**2 * u + z1 * c**3 * u**2
    for lam, z1 in ((sc(1), sc(1)), (sc(2), sc(Fraction(1, 3))),
                    (sc(Fraction(-1, 2)), sc(4))):
        c = sc(1) + z1 * lam
        f = TruncPoly(3, (lam / c, c.inv() ** 2, -z1 * c.inv() ** 3))
        assert shifted_reversion(f) == \
            TruncPoly(3, (sc(0), c ** 2, z1 * c ** 3))
    assert time.perf_counter() - start < 5.0


# -- criterion 8: remainder rank predicate -----------------------------------

def test_criterion_8_beta_rank_condition():
    start = time.perf_counter()
    nilpotent = Matrix.from_rows([[0, 1], [0, 0]])
    pf_true = PartitionedForm(0, 2, 1, (Matrix.identity(0),), (nilpotent,),
                              Matrix.diagonal([1, 0]))
    assert beta_canonical_check(pf_true) is True
    pf_false = PartitionedForm(0, 2, 1, (Matrix.identity(0),),
                               (Matrix.diagonal([0, 1]),),
                               Matrix.diagonal([1, 0]))
    assert beta_canonical_check(pf_false) is False
    assert time.perf_counter() - start < 1.0
