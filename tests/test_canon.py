"""Canonicalization pipeline: rank reduction, commuting-pair forms, splits."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import QQ_I
from sympy.polys.rings import ring
from sympy.polys.matrices import DomainMatrix

from sloccanon import canon
from sloccanon.canon import (CanonicalForm, ILOTriple, PartitionedForm,
                             TensorState, _apply_projector,
                             _centre_mod_radical, _coefficient_sweep,
                             _completion_matrix, _endomorphism_basis,
                             _fitting_projector, _mix, _split_by_spectrum,
                             _split_piece, _trace_form_rank, apply_ilo,
                             beta_canonical_check, commuting_pair_canonical,
                             full_rank_reduce,
                             max_rank_combination, nonfull_rank_split,
                             rank_normal_form)
from sloccanon.errors import (CheckFailed, DimensionMismatch, NoSplitFound,
                              NotCommuting, NotFullRank, NotInField,
                              PatternViolation)
from sloccanon.exactmat import (Matrix, Scalar,
                                combination_ranks, eigenvalues_in_field,
                                jordan_block, jordan_matrix)


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def M(rows):
    return Matrix.from_rows(rows)


def state(*gammas):
    return TensorState(len(gammas), gammas[0].rows, tuple(gammas))


small_ints = st.integers(-3, 3)


# -- apply_ilo --------------------------------------------------------------

def test_apply_ilo_identity():
    psi = state(Matrix.identity(2), jordan_block(sc(0), 2))
    out = apply_ilo(psi, ILOTriple.identity(2, 2))
    assert out.gammas == psi.gammas


def test_apply_ilo_swap_and_shear():
    e, j = Matrix.identity(2), jordan_block(sc(0), 2)
    swap = ILOTriple(M([[0, 1], [1, 0]]), Matrix.identity(2),
                     Matrix.identity(2))
    assert apply_ilo(state(e, j), swap).gammas == (j, e)
    shear = ILOTriple(M([[1, 1], [0, 1]]), Matrix.identity(2),
                      Matrix.identity(2))
    assert apply_ilo(state(e, j), shear).gammas == (e + j, j)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_ints, min_size=8, max_size=8),
       st.lists(small_ints, min_size=12, max_size=12))
def test_apply_ilo_composition(gvals, ovals):
    if all(v == 0 for v in gvals):
        return
    psi = TensorState(2, 2, (Matrix(2, 2, [sc(v) for v in gvals[:4]]),
                             Matrix(2, 2, [sc(v) for v in gvals[4:]])))
    mats = [Matrix(2, 2, [sc(v) for v in ovals[k:k + 4]])
            for k in (0, 4, 8)]
    if any(m.rank() < 2 for m in mats):
        return
    o1 = ILOTriple(mats[0], mats[1], mats[2])
    o2 = ILOTriple(mats[2], mats[0], mats[1])
    combined = ILOTriple(o2.t @ o1.t, o2.p @ o1.p, o1.q @ o2.q)
    assert apply_ilo(apply_ilo(psi, o1), o2).gammas == \
        apply_ilo(psi, combined).gammas


# -- max rank combination ---------------------------------------------------

def test_max_rank_examples():
    t, r = max_rank_combination(state(Matrix.identity(2), Matrix.zero(2, 2)))
    assert (t, r) == ((sc(1), sc(0)), 2)
    t, r = max_rank_combination(state(Matrix.diagonal([1, 0]),
                                      Matrix.diagonal([0, 1])))
    assert (t, r) == ((sc(1), sc(1)), 2)
    j = jordan_block(sc(0), 2)
    t, r = max_rank_combination(state(j, j.transpose()))
    assert (t, r) == ((sc(1), sc(1)), 2)


def test_max_rank_deficient_case():
    psi = state(Matrix.diagonal([1, 0]), Matrix.diagonal([2, 0]))
    _, r = max_rank_combination(psi)
    assert r == 1


def test_max_rank_certified_beyond_five_values():
    # entry k of t1*G1 + t2*G2 is t1*v_k - t2*u_k, zero on the direction
    # (u_k, v_k): one entry per direction of {0, +-1, +-2}^2, plus a zero,
    # so every tuple of that grid has rank <= 7 but the generic rank is 8
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (2, 1),
            (2, -1)]
    psi = state(Matrix.diagonal([v for _, v in dirs] + [0]),
                Matrix.diagonal([-u for u, _ in dirs] + [0]))
    assert max_rank_combination(psi) == ((sc(1), sc(3)), 8)
    assert _generic_rank(psi.gammas) == 8


# -- planted direct sums ----------------------------------------------------
# A summand is (slot matrices, kind).  Regular Jordan blocks (I, J, a + N)
# and the nilpotent pencil blocks (N, I, c) are full rank at a generic
# combination; L_k = ([I_k | 0], [0 | I_k]) and its transpose are not:
# L_k^T and so(3) each fall one short of full rank.

def _shift(k, cols=None):
    cols = k if cols is None else cols
    return Matrix(k, cols, [sc(1) if j == i + 1 else sc(0)
                            for i in range(k) for j in range(cols)])


def _regular(L, k, lam, a):
    n = _shift(k)
    return [Matrix.identity(k), jordan_block(sc(lam), k),
            Matrix.identity(k).scale(sc(a)) + n][:L], "full"


def _nilpotent_pencil(L, k, c):
    return [_shift(k), Matrix.identity(k),
            Matrix.identity(k).scale(sc(c))][:L], "full"


def _kronecker(L, k, c, transpose=False):
    e = Matrix(k, k + 1, [sc(1) if i == j else sc(0)
                          for i in range(k) for j in range(k + 1)])
    mats = [e, _shift(k, k + 1), e.scale(sc(c))][:L]
    if transpose:
        return [m.transpose() if k else Matrix(1, 0, ()) for m in mats], "LT"
    return mats, "L"


SO3 = ([M([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
        M([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
        M([[0, -1, 0], [1, 0, 0], [0, 0, 0]])], "so3")


def _direct_sum(summands):
    rows = sum(mats[0].rows for mats, _ in summands)
    cols = sum(mats[0].cols for mats, _ in summands)
    out = []
    for slot in range(len(summands[0][0])):
        entries = [[sc(0)] * cols for _ in range(rows)]
        r0 = c0 = 0
        for mats, _ in summands:
            m = mats[slot]
            for i in range(m.rows):
                for j in range(m.cols):
                    entries[r0 + i][c0 + j] = m[i, j]
            r0, c0 = r0 + m.rows, c0 + m.cols
        out.append(Matrix(rows, cols, [e for row in entries for e in row]))
    return out


def _unit_triangular(n, vals, lower):
    vals = iter(vals)
    return Matrix(n, n, [sc(1) if i == j else
                         sc(next(vals)) if (i > j) == lower else sc(0)
                         for i in range(n) for j in range(n)])


def _scrambled(summands, vals):
    """The direct sum under P = L1 U1 and Q = U2 L2, unit triangular."""
    gammas = _direct_sum(summands)
    n = gammas[0].rows
    k = n * (n - 1) // 2
    vals = list(vals) * (4 * k // max(len(vals), 1) + 1)
    p = _unit_triangular(n, vals[:k], True) @ \
        _unit_triangular(n, vals[k:2 * k], False)
    q = _unit_triangular(n, vals[2 * k:3 * k], False) @ \
        _unit_triangular(n, vals[3 * k:4 * k], True)
    return state(*[p @ g @ q for g in gammas])


def _sweep_state():
    # N = 8, L = 3, generic rank 6: two regular blocks, L_1 + L_1^T and
    # L_0 + L_1^T
    return _scrambled([_regular(3, 2, 1, 2), _regular(3, 1, -1, 2),
                       _kronecker(3, 1, 1), _kronecker(3, 1, 0, True),
                       _kronecker(3, 0, 0), _kronecker(3, 1, -1, True)],
                      [1, 0, -1, 1, 1, 0])


def test_max_rank_sweep_stops_at_certified_rank(monkeypatch):
    psi = _sweep_state()
    sweep = list(_coefficient_sweep(3, 9))
    ranks = [r for _, r in combination_ranks(psi.gammas, sweep)]
    first = ranks.index(max(ranks))
    ranked = []

    def counting(mats, tuples, base=None):
        for t, r in combination_ranks(mats, tuples, base):
            ranked.append(t)
            yield t, r

    monkeypatch.setattr(canon, "combination_ranks", counting)
    t, r = max_rank_combination(psi)
    assert (len(sweep), max(ranks)) == (728, 6)
    assert (t, r) == (tuple(sc(c) for c in sweep[first]), 6)
    assert len(ranked) == len(set(ranked)) <= 81 + first


def _scalar_max_rank(psi):
    """The sweep evaluated on Scalar matrices, tuple by tuple."""
    best_t, best_r = None, -1
    for t in _coefficient_sweep(psi.L, psi.N + 1):
        acc = Matrix.zero(psi.N, psi.N)
        for c, g in zip(t, psi.gammas):
            acc = acc + g.scale(c)
        r = acc.rank()
        if r > best_r:
            best_t, best_r = t, r
            if r == psi.N:
                break
    return tuple(sc(c) for c in best_t), best_r


def _scalar_beta_check(pf):
    target, best = pf.m - pf.i, -1
    for alphas in _coefficient_sweep(len(pf.beta_part), target + 2):
        acc = pf.lambda_prime
        for a, b in zip(alphas, pf.beta_part):
            acc = acc + b.scale(a)
        best = max(best, acc.rank())
        if best > target:
            return False
    return best == target


def _generic_rank(mats, base=None):
    """Rank of base + sum_j t_j mats[j] over the field Q(i)(t_1, ...).

    Fraction-free elimination over the integral domain Q(i)[t_1, ...]
    finds the pivots that elimination over its fraction field finds,
    with no gcd taken to keep fractions in lowest terms.
    """
    k, *ts = ring(",".join(f"t{j}" for j in range(len(mats))), QQ_I)

    def lift(s):
        return k(QQ_I(s.re, s.im))
    n = mats[0].rows
    rows = [[lift(base[a, b]) if base is not None else k.zero
             for b in range(n)] for a in range(n)]
    for t, m in zip(ts, mats):
        for a in range(n):
            for b in range(n):
                rows[a][b] += t * lift(m[a, b])
    _, _, pivots = DomainMatrix(rows, (n, n), k.to_domain()).rref_den(
        method="FF")
    return len(pivots)


sweep_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def sweep_matrices(draw, count, n, zero_last=0):
    """count n x n matrices, real or complex, of three drawn kinds:
    random; each multiplied by one fixed singular matrix on the left or
    the right, so that no combination has rank n; or, when zero_last is
    set, with their last zero_last rows (left) or columns (right) zero."""
    imag = st.just(Fraction(0)) if draw(st.booleans()) else sweep_fractions

    def matrix():
        return Matrix(n, n, [Scalar(draw(sweep_fractions), draw(imag))
                             for _ in range(n * n)])
    side = draw(st.sampled_from([None, "left", "right"]))
    mats = [matrix() for _ in range(count)]
    if side and zero_last:
        keep = n - zero_last
        mats = [Matrix(n, n, [
            sc(0) if (i if side == "left" else j) >= keep else m[i, j]
            for i in range(n) for j in range(n)])
            for m in mats]
    elif side:
        k = matrix().to_rows()
        k[-1] = [a + b for a, b in zip(k[0], k[-2])] if n > 1 \
            else [sc(0)]
        k = Matrix.from_rows(k)
        mats = [k @ m if side == "left" else m @ k for m in mats]
    return mats


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda L: st.tuples(st.just(L), st.integers(1, 4))).flatmap(
    lambda ln: sweep_matrices(*ln)))
def test_max_rank_matches_scalar_sweep(gammas):
    assume(not all(g.is_zero() for g in gammas))
    psi = state(*gammas)
    t, r = max_rank_combination(psi)
    assert (t, r) == _scalar_max_rank(psi)
    assert r == _generic_rank(gammas)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.integers(1, m - 1).flatmap(
    lambda i: st.tuples(st.just(m), st.just(i), st.integers(1, 2).flatmap(
        lambda k: sweep_matrices(k, m, zero_last=i))))))
def test_beta_check_matches_scalar_sweep(args):
    m, i, betas = args
    assume(not all(b.is_zero() for b in betas))
    lam = Matrix.diagonal([1] * (m - i) + [0] * i)
    pf = PartitionedForm(0, m, i, (Matrix.identity(0),) * len(betas),
                         tuple(betas), lam)
    verdict = beta_canonical_check(pf)
    assert verdict == _scalar_beta_check(pf)
    assert verdict == (_generic_rank(betas, lam) == m - i)


# -- full rank reduce and eigen shift ---------------------------------------

def test_full_rank_reduce_examples():
    m = M([[1, 2], [3, 4]])
    out = full_rank_reduce(state(Matrix.diagonal([2, 3]), m))
    assert out.gammas[0] == Matrix.identity(2)
    assert out.gammas[1] == Matrix.diagonal([Fraction(1, 2),
                                             Fraction(1, 3)]) @ m
    out = full_rank_reduce(state(Matrix.identity(2), m))
    assert out.gammas == (Matrix.identity(2), m)
    out = full_rank_reduce(state(Matrix.diagonal([1, 0]),
                                 Matrix.diagonal([0, 1])))
    assert out.gammas[0] == Matrix.identity(2)


@pytest.mark.parametrize("seed", range(12))
def test_mix_is_apply_ilo_with_identity_sides(seed):
    rng = random.Random(seed)
    L, n = rng.choice([2, 3]), rng.randint(1, 4)

    def entry():
        return sc(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                  rng.choice([0, 0, rng.randint(-3, 3)]))
    while True:
        t = Matrix(L, L, [entry() for _ in range(L * L)])
        if t.rank() == L:
            break
    gammas = [Matrix(n, n, [entry() for _ in range(n * n)])
              for _ in range(L)]
    if all(g.is_zero() for g in gammas):
        gammas[0] = Matrix.identity(n)
    psi = TensorState(L, n, tuple(gammas))
    ident = Matrix.identity(n)
    assert _mix(t, psi.gammas) == \
        apply_ilo(psi, ILOTriple(t, ident, ident)).gammas


def test_canonical_form_keeps_runs_in_normal_order():
    cf = CanonicalForm.from_blocks([
        (sc(0, 1), 2, (sc(1), sc(3))), (sc(-1), 1, (sc(2),)),
        (sc(0), 1, (sc(4),)), (sc(0), 2, (sc(5), sc(6)))])
    assert [r.lam for r in cf.runs] == [sc(-1), sc(0), sc(0, 1)]
    assert cf.runs[1].sizes == (2, 1)
    assert CanonicalForm(tuple(reversed(cf.runs))) == cf
    assert cf.blocks == ((sc(-1), 1), (sc(0), 2), (sc(0), 1),
                         (sc(0, 1), 2))


def test_canonical_form_refuses_two_runs_with_one_eigenvalue():
    run = CanonicalForm.from_blocks([(sc(5), 1, (sc(2),))]).runs[0]
    with pytest.raises(PatternViolation):
        CanonicalForm((run, run))


def test_full_rank_reduce_rejects_deficient():
    with pytest.raises(NotFullRank):
        full_rank_reduce(state(Matrix.diagonal([1, 0]),
                               Matrix.diagonal([2, 0])))


# -- commuting pair canonical form ------------------------------------------

def test_commuting_pair_diagonal():
    cf, s = commuting_pair_canonical(Matrix.diagonal([1, 2]),
                                     Matrix.diagonal([5, 7]))
    assert cf.blocks == ((sc(1), 1), (sc(2), 1))
    assert [b[2] for b in cf.block_data()] == [(sc(5),), (sc(7),)]
    assert s == Matrix.identity(2)


def test_commuting_pair_single_block():
    cf, s = commuting_pair_canonical(M([[1, 1], [0, 1]]),
                                     M([[2, 3], [0, 2]]))
    assert cf.blocks == ((sc(1), 2),)
    assert cf.block_data() == [(sc(1), 2, (sc(2), sc(3)))]
    j, a = cf.assemble()
    assert s.inverse() @ M([[2, 3], [0, 2]]) @ s == a


def test_commuting_pair_polynomial_in_block():
    lam, a0, a1, a2 = sc(4), sc(-1), sc(Fraction(2, 3)), sc(5)
    j = jordan_block(lam, 3)
    n = jordan_block(sc(0), 3)
    a = Matrix.identity(3).scale(a0) + n.scale(a1) + (n @ n).scale(a2)
    cf, _ = commuting_pair_canonical(j, a)
    assert cf.blocks == ((lam, 3),)
    assert cf.block_data() == [(lam, 3, (a0, a1, a2))]


def test_commuting_pair_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_pair_canonical(jordan_block(sc(0), 2),
                                 jordan_block(sc(0), 2).transpose())


def test_commuting_pair_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        commuting_pair_canonical(Matrix.identity(2), Matrix.identity(3))


def test_commuting_pair_idempotent_on_canonical_input():
    cf = CanonicalForm.from_blocks([
        (sc(1), 2, (sc(0), sc(2))),
        (sc(3), 1, (sc(5),)),
    ])
    j, a = cf.assemble()
    out, s = commuting_pair_canonical(j, a)
    assert out == cf
    assert s == Matrix.identity(3)


@settings(max_examples=20, deadline=None)
@given(st.lists(small_ints, min_size=9, max_size=9))
def test_commuting_pair_conjugation_invariance(vals):
    c = Matrix(3, 3, [sc(v) for v in vals])
    if c.rank() < 3:
        return
    cf = CanonicalForm.from_blocks([
        (sc(2), 2, (sc(1), sc(7))),
        (sc(-1), 1, (sc(0),)),
    ])
    j, a = cf.assemble()
    out, s = commuting_pair_canonical(c @ j @ c.inverse(),
                                      c @ a @ c.inverse(),
                                      hints=[sc(2), sc(-1)])
    assert out == cf
    assert s.inverse() @ (c @ j @ c.inverse()) @ s == j


def test_derogatory_assembly_roundtrip():
    # two size-2 blocks at one eigenvalue with an off-diagonal coupling
    j = jordan_matrix(((sc(0), 2), (sc(0), 2)))
    a = M([[1, 2, 0, 3],
           [0, 1, 0, 0],
           [0, 5, 4, 6],
           [0, 0, 0, 4]])
    assert (j @ a - a @ j).is_zero()
    cf, s = commuting_pair_canonical(j, a)
    assert cf.is_derogatory()
    jj, aa = cf.assemble()
    assert (jj, aa) == (j, a) and s == Matrix.identity(4)


# -- rank normal form -------------------------------------------------------

@settings(max_examples=40)
@given(st.lists(small_ints, min_size=6, max_size=6))
def test_rank_normal_form(vals):
    m = Matrix(2, 3, [sc(v) for v in vals])
    p, q, r = rank_normal_form(m)
    assert r == m.rank()
    out = p @ m @ q
    for i in range(2):
        for j in range(3):
            assert out[i, j] == (sc(1) if i == j and i < r else sc(0))


def test_rank_normal_form_check_raises_domain_error(monkeypatch):
    real_rref = Matrix.rref

    def skewed(self):
        red, pivots = real_rref(self)
        # the first row doubled
        double = Matrix.diagonal([2] + [1] * (red.rows - 1))
        return double @ red, pivots

    monkeypatch.setattr(Matrix, "rref", skewed)
    with pytest.raises(CheckFailed):
        rank_normal_form(M([[1, 2, 3], [0, 1, 1]]))


# -- non-full-rank split ----------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)),
                min_size=1, max_size=3),
       st.lists(small_ints, min_size=36, max_size=36))
def test_fitting_projector_on_conjugated_jordan_matrices(blocks, svals):
    n = sum(size for _, size in blocks)
    s = Matrix(n, n, [sc(v) for v in svals[:n * n]])
    assume(s.rank() == n)
    m = s @ jordan_matrix([(sc(lam), size) for lam, size in blocks]) \
        @ s.inverse()
    for lam in {lam for lam, _ in blocks} | {3}:
        p = _fitting_projector(m, sc(lam))
        assert p @ p == p
        assert p @ m == m @ p
        shifted = m - Matrix.identity(n).scale(sc(lam))
        power = Matrix.identity(n)
        for _ in range(n):
            power = power @ shifted
        assert (power @ p).is_zero()
        assert p.rank() == sum(size for mu, size in blocks if mu == lam)


def _piece_of_strings(rows_by_slot):
    return [M([[Fraction(x) for x in row] for row in rows])
            for rows in rows_by_slot]


# the 6 x 6 piece that SO3_SQUARED in test_cli.py leaves after the split
# of its 1 x 1 block: so(3) + so(3) in another basis, with endomorphism
# algebra M_2(Q(i)) and a basis whose every element has an irreducible
# quadratic spectrum
SO3_SQUARED_PIECE = [
    [["1", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "-1", "0"],
     ["0", "0", "1", "0", "0", "0"], ["0", "0", "0", "1", "1", "0"],
     ["0", "0", "0", "0", "0", "0"], ["0", "0", "0", "0", "0", "0"]],
    [["-1", "1/2", "1/2", "-9/2", "-1", "-4"],
     ["0", "1/2", "1/2", "-3/2", "-1", "1"],
     ["1/2", "-1/4", "1/4", "5/4", "0", "5/2"],
     ["1/2", "1/4", "-5/4", "15/4", "1", "3/2"],
     ["1", "3/2", "-1/2", "5/2", "1", "0"], ["0", "2", "-2", "2", "0", "0"]],
    [["-1", "-1/2", "1", "-2", "-1/2", "1"], ["0", "-1/2", "0", "0", "1/2", "0"],
     ["1/2", "-1/4", "-1/2", "1", "-1/4", "5/2"],
     ["1/2", "1/4", "-1/2", "2", "-3/4", "3/2"],
     ["1", "3/2", "-1", "1", "-1/2", "0"], ["0", "2", "0", "0", "-2", "0"]]]


def test_split_piece_local_piece_computes_no_spectrum(monkeypatch):
    # (I, J_2(3)): endomorphisms are the polynomials in J, a local algebra
    # with two basis elements and trace-form rank 1
    calls = []

    def counting(m, hints=None):
        calls.append(m)
        return eigenvalues_in_field(m, hints)

    monkeypatch.setattr(canon, "eigenvalues_in_field", counting)
    assert _split_piece([Matrix.identity(2), jordan_block(sc(3), 2)]) is None
    assert calls == []


@pytest.mark.parametrize("mats,shapes", [
    ([M([[1, 0]]), M([[0, 1]])], None),                       # L_1
    (SO3[0], None),                                           # so(3)
    ([Matrix.identity(2), jordan_block(sc(0), 2)], None),     # Jordan block
    ([Matrix.identity(2), Matrix.diagonal([1, 2])], [(1, 1), (1, 1)]),
    ([Matrix.identity(2), Matrix.diagonal([3, 3])], [(1, 1), (1, 1)]),
], ids=["L1", "so3", "jordan", "distinct", "equal"])
def test_split_piece_on_known_pieces(mats, shapes):
    result = _split_piece(mats)
    if shapes is None:
        assert result is None
    else:
        assert [(pc[0].rows, pc[0].cols) for pc in result] == shapes


# L_1 + L_1 in another basis, the piece a scrambled L_1 + L_1 + L_0^T +
# L_0^T + so(3) leaves: endomorphism algebra M_2(Q(i)) again, and every
# basis element but the identity has an irreducible quadratic spectrum
L1_SQUARED_PIECE = [
    [["1", "0", "5/76", "-29/228"], ["0", "1", "81/38", "-181/114"]],
    [["-7/114", "371/228", "-157/228", "85/228"],
     ["31/57", "295/114", "-119/114", "-181/114"]],
    [["1", "0", "5/76", "-29/228"], ["0", "1", "81/38", "-181/114"]]]


def _centre_dim(piece):
    """dim Z(E/rad E) of the piece's endomorphism algebra E."""
    basis = _endomorphism_basis(piece)
    radical = len(basis) - _trace_form_rank(basis)
    return len(_centre_mod_radical(basis)) - radical


def test_split_piece_so3_squared_stays_whole():
    # homogeneous: a one-dimensional centre of E/rad E certifies it
    piece = _piece_of_strings(SO3_SQUARED_PIECE)
    assert _centre_dim(piece) == 1
    assert _split_piece(piece) is None


def test_split_piece_l1_squared_stays_whole():
    piece = _piece_of_strings(L1_SQUARED_PIECE)
    with pytest.raises(NotInField):
        eigenvalues_in_field(_endomorphism_basis(piece)[0][0])
    assert _centre_dim(piece) == 1
    assert _split_piece(piece) is None


def test_split_piece_irrational_centre_gives_up():
    # (I, C) with C^2 = 2: E = Q(i)[C] is a field of dimension 2, its own
    # centre, and no element has a spectrum in Q(i)
    piece = [Matrix.identity(2), M([[0, 2], [1, 0]])]
    assert _centre_dim(piece) == 2
    with pytest.raises(NoSplitFound):
        _split_piece(piece)


def test_central_elements_split_two_isotypic_factors():
    # so(3)^2 + L_1^2: E/rad E is M_2(Q(i)) x M_2(Q(i)), whose centre
    # Q(i) x Q(i) holds an element with two eigenvalues on a side
    piece = [Matrix.block_diag([a, b]) for a, b in
             zip(_piece_of_strings(SO3_SQUARED_PIECE),
                 _piece_of_strings(L1_SQUARED_PIECE))]
    assert _centre_dim(piece) == 2
    parts, unknown = _split_by_spectrum(
        piece, _centre_mod_radical(_endomorphism_basis(piece)))
    assert sorted((pc[0].rows, pc[0].cols) for pc in parts) == \
        [(2, 4), (6, 6)]


@pytest.mark.parametrize("p_r,p_c", [
    (Matrix.identity(2).scale(sc(2)), Matrix.identity(2)),   # not idempotent
    (Matrix.zero(2, 2), Matrix.zero(2, 2)),                  # trivial
    (Matrix.identity(2), Matrix.identity(2)),                # trivial
    (Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1])),      # not a module map
], ids=["not-idempotent", "zero", "identity", "off-diagonal"])
def test_apply_projector_refuses_unusable_pairs(p_r, p_c):
    piece = [Matrix.identity(2), Matrix.diagonal([1, 2])]
    with pytest.raises(CheckFailed):
        _apply_projector(piece, p_r, p_c)


def _pencil_polys(gammas):
    """Characteristic polynomials of gamma_2 + s * gamma_3 (or of gamma_2)."""
    if len(gammas) == 1:
        return [gammas[0].char_poly()]
    return [(gammas[0] + gammas[1].scale(sc(s))).char_poly()
            for s in (0, 1, -2, Fraction(1, 3))]


_full_rank_summand = st.one_of(
    st.builds(_regular, st.just(3), st.integers(1, 2), st.integers(-2, 2),
              st.integers(-2, 2)),
    st.builds(_nilpotent_pencil, st.just(3), st.integers(1, 2),
              st.integers(-1, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.lists(_full_rank_summand, max_size=2),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-1, 1)), min_size=1, max_size=2),
       st.booleans(), st.randoms(use_true_random=False),
       st.lists(st.integers(-1, 1), min_size=1, max_size=60))
def test_nonfull_rank_split_recovers_planted_summands(L, full, pairs, so3,
                                                      rnd, vals):
    # the full-rank summands are drawn with three slots
    summands = [(mats[:L], kind) for mats, kind in full]
    for k, kt, c in pairs:
        summands += [_kronecker(L, k, c), _kronecker(L, kt, c, True)]
    if so3 and L == 3:
        summands.append(SO3)
    assume(any(k or kt for k, kt, _ in pairs) or (so3 and L == 3))
    rnd.shuffle(summands)
    psi = _scrambled(summands, vals)
    assume(psi.N <= 8)
    planted = [(mats, kind) for mats, kind in summands if kind == "full"]
    n = sum(mats[0].rows for mats, _ in planted)
    i = sum(kind in ("LT", "so3") for _, kind in summands)
    t, r = max_rank_combination(psi)
    pf = nonfull_rank_split(psi, sweep=(t, r))
    assert (pf.n, pf.m, pf.i) == (n, psi.N - n, i)
    if planted:
        # the full-rank part is similar to the planted one mixed by the
        # same T: gamma_j = S_1^-1 S_(j+1) with S_k = sum_l T_kl Gamma_l
        tmat = _completion_matrix(t)
        slots = _direct_sum(planted)
        mixed = [Matrix.zero(n, n)] * L
        for k in range(L):
            for j in range(L):
                mixed[k] = mixed[k] + slots[j].scale(tmat[k, j])
        expected = [mixed[0].inverse() @ s for s in mixed[1:]]
        assert _pencil_polys(pf.gamma_part) == _pencil_polys(expected)


def test_split_already_partitioned():
    lam = Matrix.diagonal([1, 1, 0])
    g2 = Matrix.block_diag([M([[5]]), M([[0, 1], [0, 0]])])
    pf = nonfull_rank_split(state(lam, g2))
    assert (pf.n, pf.m, pf.i) == (1, 2, 1)
    assert pf.lambda_prime == Matrix.diagonal([1, 0])


def test_split_whole_state_is_remainder():
    pf = nonfull_rank_split(state(Matrix.diagonal([1, 0]),
                                  M([[0, 1], [0, 0]])))
    assert (pf.n, pf.m, pf.i) == (0, 2, 1)
    assert pf.gamma_part[0] == Matrix.identity(0)


def test_split_conjugation_stability():
    lam = Matrix.diagonal([1, 1, 0])
    g2 = Matrix.block_diag([M([[5]]), M([[0, 1], [0, 0]])])
    # a stabilizer of lam: upper block-triangular p, lower block-triangular q
    p = M([[1, 0, 2], [0, 1, -1], [0, 0, 3]])
    q = M([[1, 0, 0], [0, 1, 0], [4, 5, 7]])
    assert p @ lam @ q == lam
    pf = nonfull_rank_split(state(lam, p @ g2 @ q))
    assert (pf.n, pf.m, pf.i) == (1, 2, 1)


def test_split_rejects_full_rank():
    with pytest.raises(NotFullRank):
        nonfull_rank_split(state(Matrix.identity(2), Matrix.zero(2, 2)))


# -- beta rank condition ----------------------------------------------------

def _partitioned(beta):
    return PartitionedForm(0, 2, 1, (Matrix.identity(0),), (beta,),
                           Matrix.diagonal([1, 0]))


def test_beta_check_true_case():
    assert beta_canonical_check(_partitioned(M([[0, 1], [0, 0]]))) is True


def test_beta_check_false_case():
    assert beta_canonical_check(_partitioned(Matrix.diagonal([0, 1]))) \
        is False


def test_beta_check_certified_beyond_five_values():
    # det(lambda' + a*beta) = a(a^2 - 1)(a^2 - 4): rank m - i = 4 on every
    # a in {0, +-1, +-2}, but rank 5 at a = 3, so the condition fails
    beta = Matrix.diagonal([-1, 1, Fraction(-1, 2), Fraction(1, 2), 1])
    pf = PartitionedForm(0, 5, 1, (Matrix.identity(0),), (beta,),
                         Matrix.diagonal([1, 1, 1, 1, 0]))
    assert beta_canonical_check(pf) is False
