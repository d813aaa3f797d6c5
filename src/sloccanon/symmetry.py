"""Parametric symmetry maps on canonical forms and orbit decisions.

The residual action of the first-subsystem operator T on a canonical
triple (E, J, A) factors into three elementary superposition maps plus a
diagonal rescale.  On a single Jordan block every map is truncated
polynomial functional calculus; derogatory spectra and eigenvalue
collisions fall back to explicit matrix re-canonicalization, which is
the defining computation anyway.

The orbit decision solves for a witness T.  The per-block constants give
linear equations on T's entries; the entries left free span an affine
family.  The higher coefficients then give polynomial equations on that
family.  Their numerators come from ``_block_transform`` itself, run over
a field of rational functions in the family's parameters, so the
symbolic search and the numeric maps share one series implementation
(``nilpoly``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegenerateParameter, NotInField, NotInvertible,
                     NotReversible, SingularMatrix, ZeroScale)
from .exactmat import (Matrix, Scalar, ZERO, ONE, _coerce, _kernel,
                       scalar_from_expr, scalar_to_qqi)
from .canon import CanonicalForm, commuting_pair_canonical
from .nilpoly import TruncPoly, compose, mul, reciprocal, shifted_reversion


@dataclass(frozen=True)
class SymmetryParams:
    """The five-parameter group element: z entries of U, diagonal of D."""

    z1: Scalar
    z2: Scalar
    z3: Scalar
    d2: Scalar
    d3: Scalar

    def __post_init__(self):
        for name in ("z1", "z2", "z3", "d2", "d3"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))
        if self.d2.is_zero() or self.d3.is_zero():
            raise ZeroScale("diagonal scales must be nonzero")

    @staticmethod
    def identity() -> "SymmetryParams":
        return SymmetryParams(ZERO, ZERO, ZERO, ONE, ONE)


def matrix_of_params(sp: SymmetryParams) -> Matrix:
    """The upper-triangular T realizing (rescale, JA, EA, EJ) in order."""
    return Matrix.from_rows([
        [ONE, sp.z1 * sp.d2, (sp.z2 + sp.z1 * sp.z3) * sp.d3],
        [ZERO, sp.d2, sp.z3 * sp.d3],
        [ZERO, ZERO, sp.d3],
    ])


# ---------------------------------------------------------------------------
# Single-block functional calculus
# ---------------------------------------------------------------------------

def _block_transform(lam, f: TruncPoly, trow):
    """Map one block (lam, f) under T; returns (lam', f').

    The transformed pair is (g1^-1 * jn, g1^-1 * an); re-Jordanizing the
    first factor is a compositional reversion applied to the second.
    lam, f and the entries of trow lie in one of nilpoly's coefficient
    fields: Scalars for the maps, rational functions for the witness
    equations.
    """
    (t11, t12, t13), (t22, t23), t33 = trow
    n = f.order
    p = TruncPoly.variable(n, lam)
    g1 = TruncPoly.constant(t11, n) + p.scale(t12) + f.scale(t13)
    try:
        r1 = reciprocal(g1)
    except NotInvertible:
        raise DegenerateParameter(
            f"first slot loses rank on the block at {lam}")
    hj = mul(p.scale(t22) + f.scale(t23), r1)
    ha = mul(f.scale(t33), r1)
    lam2 = hj.coeffs[0]
    try:
        rev = shifted_reversion(hj)
    except NotReversible:
        raise DegenerateParameter(
            f"Jordan structure degenerates on the block at {lam}")
    return lam2, compose(ha, rev)


def _matrix_route(cf: CanonicalForm, trow, hints=None) -> CanonicalForm:
    (t11, t12, t13), (t22, t23), t33 = trow
    n = cf.dim
    e = Matrix.identity(n)
    j, a = cf.assemble()
    g1 = e.scale(t11) + j.scale(t12) + a.scale(t13)
    try:
        p = g1.inverse()
    except SingularMatrix:
        raise DegenerateParameter("first slot loses rank")
    pair_j = p @ (j.scale(t22) + a.scale(t23))
    pair_a = p @ a.scale(t33)
    out, _ = commuting_pair_canonical(pair_j, pair_a, hints=hints)
    if sorted(s for _, s in out.blocks) != sorted(s for _, s in cf.blocks):
        raise DegenerateParameter("Jordan block structure changed")
    return out


# ---------------------------------------------------------------------------
# Public maps
# ---------------------------------------------------------------------------

def apply_all(cf: CanonicalForm, sp: SymmetryParams) -> CanonicalForm:
    """The group element's map: the single factored T of the group.

    A one-parameter map is the element whose other parameters are the
    identity's, as in SymmetryParams(z1, 0, 0, 1, 1) for the E-J shear.
    """
    t = matrix_of_params(sp)
    trow = ((t[0, 0], t[0, 1], t[0, 2]), (t[1, 1], t[1, 2]), t[2, 2])
    if cf.is_derogatory():
        return _matrix_route(cf, trow)
    blocks = cf.block_data()
    new_blocks = []
    for lam, size, coeffs in blocks:
        lam2, f2 = _block_transform(lam, TruncPoly(size, coeffs), trow)
        new_blocks.append((lam2, size, f2.coeffs))
    distinct_in = len(set(b[0].sort_key() for b in blocks))
    distinct_out = len(set(b[0].sort_key() for b in new_blocks))
    if distinct_out < distinct_in:
        # collision of output eigenvalues: gauge fixing needs the
        # deterministic matrix pipeline
        return _matrix_route(cf, trow, hints=[b[0] for b in new_blocks])
    return CanonicalForm.from_blocks(new_blocks)


def mobius_2nn(lam, t11, t12, t22) -> Scalar:
    """The 2 x N x N eigenvalue law lam' = t22*lam / (t11 + t12*lam)."""
    lam, t11, t12, t22 = map(_coerce, (lam, t11, t12, t22))
    if (t11 * t22).is_zero():
        raise DegenerateParameter("diagonal of T must be nonzero")
    den = t11 + t12 * lam
    if den.is_zero():
        raise DegenerateParameter("first slot loses rank at this eigenvalue")
    return t22 * lam / den


# ---------------------------------------------------------------------------
# Orbit decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitDecision:
    status: str  # "equivalent" | "inequivalent" | "undecided"
    witness: SymmetryParams = None
    permutation: tuple = None

    @property
    def equivalent(self):
        return self.status == "equivalent"


_PIN_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
               Fraction(1, 2), Fraction(-2))
# pins tried per free family: all of them for up to four free parameters
_MAX_PINS = len(_PIN_VALUES) ** 4


def _params_from_entries(entries):
    """(u2, u3, v2, v3, w3) -> SymmetryParams, or None if outside the group."""
    u2, u3, v2, v3, w3 = entries
    if v2.is_zero() or w3.is_zero():
        return None
    z3 = v3 / w3
    z1 = u2 / v2
    z2 = u3 / w3 - z1 * z3
    return SymmetryParams(z1, z2, z3, v2, w3)


def _constant_system(blocks1, blocks2):
    """Linear equations on T entries from the per-block constants."""
    rows, rhs = [], []
    for (lam, _, cs), (lam2, _, cs2) in zip(blocks1, blocks2):
        a0, a02 = cs[0], cs2[0]
        rows.append([lam2 * lam, lam2 * a0, -lam, -a0, ZERO])
        rhs.append(-lam2)
        rows.append([a02 * lam, a02 * a0, ZERO, ZERO, -a0])
        rhs.append(-a02)
    return Matrix.from_rows(rows), Matrix(len(rhs), 1, rhs)


def _solve_affine(a: Matrix, rhs: Matrix):
    """(particular, nullspace basis) of a x = rhs, or None if infeasible.

    Both are matrices with a.cols rows: the particular solution is one
    column, and the basis has one column per free parameter.
    """
    red, pivots = a.augment(rhs).rref()
    if a.cols in pivots:
        return None
    # rhs's column is the last free one, and its kernel column is (-x, 1)
    # for the solution x that vanishes on a's free columns; the others
    # are a's nullspace basis with a 0 below
    kernel = _kernel(red, pivots, a.cols + 1)
    rows, k = range(a.cols), kernel.cols - 1
    return -kernel.submatrix(rows, [k]), kernel.submatrix(rows, range(k))


def _field_element(k, s: Scalar):
    """The Gaussian rational s as a constant of the function field k."""
    return k(scalar_to_qqi(s))


def _residual_equations(blocks1, blocks2, entries):
    """Numerators of the higher-coefficient matching conditions.

    entries are (u2, u3, v2, v3, w3), elements of one rational-function
    field; each block of blocks1 is mapped by _block_transform under the
    T row they make, and its coefficients of degree >= 1 must equal those
    of the matched block of blocks2.
    """
    u2, u3, v2, v3, w3 = entries
    k = u2.field
    trow = ((k.one, u2, u3), (v2, v3), w3)
    eqs = []
    for (lam, n, cs), (_, _, cs2) in zip(blocks1, blocks2):
        if n < 2:
            continue
        f = TruncPoly(n, tuple(_field_element(k, c) for c in cs))
        _, f2 = _block_transform(_field_element(k, lam), f, trow)
        for i in range(1, n):
            num = (f2.coeffs[i] - _field_element(k, cs2[i])).numer
            if num:
                eqs.append(num.as_expr())
    return eqs


def _witness_candidates(blocks1, blocks2):
    """(candidate params list, open_family flag) for one block matching."""
    a, rhs = _constant_system(blocks1, blocks2)
    sol = _solve_affine(a, rhs)
    if sol is None:
        return [], False
    particular, basis = sol
    if not basis.cols:
        sp = _params_from_entries(particular.entries)
        return ([sp] if sp else []), False
    import sympy
    from sympy.polys.domains import QQ_I
    from sympy.polys.fields import field

    syms = sympy.symbols(f"s0:{basis.cols}")
    k, *gens = field(syms, QQ_I)
    entries = []
    for i in range(5):
        e = _field_element(k, particular[i, 0])
        for j, s in enumerate(gens):
            e = e + s * _field_element(k, basis[i, j])
        entries.append(e)
    try:
        eqs = _residual_equations(blocks1, blocks2, entries)
    except DegenerateParameter:
        # a block's first slot, or the linear term of its Jordan part,
        # vanishes on the whole family.  The first forces v2 = 0 or
        # w3 = 0 through the constant equations; the second splits the
        # block into smaller ones.  So no member of the family is a
        # witness.
        return [], False
    exprs = [e.as_expr() for e in entries]
    candidates, open_family = [], False
    # with no equation the whole family is one solution, all of it free
    sols = [{}]
    if eqs:
        try:
            sols = sympy.solve(eqs, list(syms), dict=True)
        except Exception:
            return [], True
    assignments = []
    for s in sols:
        frees = set()
        for v in s.values():
            frees |= v.free_symbols
        frees |= set(syms) - set(s.keys())
        frees = sorted(frees, key=str)
        if not frees:
            assignments.append(s)
            continue
        open_family = True
        for pins in itertools.islice(
                itertools.product(_PIN_VALUES, repeat=len(frees)),
                _MAX_PINS):
            pinned = dict(zip(frees, pins))
            full = {k: v.subs(pinned) for k, v in s.items()}
            full.update(pinned)
            assignments.append(full)
    for assign in assignments:
        try:
            vals = [scalar_from_expr(e.subs(assign)) for e in exprs]
        except NotInField:
            open_family = True
            continue
        sp = _params_from_entries(vals)
        if sp is not None:
            candidates.append(sp)
    return candidates, open_family


def _size_matchings(blocks1, blocks2):
    k = len(blocks1)
    sizes1 = [b[1] for b in blocks1]
    sizes2 = [b[1] for b in blocks2]
    seen = set()
    for perm in itertools.permutations(range(k)):
        if any(sizes1[i] != sizes2[perm[i]] for i in range(k)):
            continue
        key = tuple(blocks2[perm[i]] for i in range(k))
        if key in seen:
            continue
        seen.add(key)
        yield perm


def orbit_equivalent(cf1: CanonicalForm, cf2: CanonicalForm) -> OrbitDecision:
    """Decide whether two canonical forms are parametric-symmetry related.

    Equivalent comes with a verified witness (re-applying it reproduces
    cf2 exactly).  Inequivalent means no witness exists under the
    generated group.  Undecided covers degenerate parameter values,
    derogatory gauge freedom, and unresolved witness families.
    """
    if sorted(s for _, s in cf1.blocks) != sorted(s for _, s in cf2.blocks):
        return OrbitDecision("inequivalent")
    if cf1 == cf2:
        return OrbitDecision("equivalent", SymmetryParams.identity(),
                             tuple(range(len(cf1.block_data()))))
    blocks1 = cf1.block_data()
    blocks2 = cf2.block_data()
    derogatory = cf1.is_derogatory() or cf2.is_derogatory()
    degenerate_seen = False
    family_open = False
    for perm in _size_matchings(blocks1, blocks2):
        target = [blocks2[perm[i]] for i in range(len(perm))]
        candidates, open_flag = _witness_candidates(blocks1, target)
        family_open = family_open or open_flag
        for sp in candidates:
            try:
                if apply_all(cf1, sp) == cf2:
                    return OrbitDecision("equivalent", sp, perm)
            except DegenerateParameter:
                degenerate_seen = True
    if derogatory or degenerate_seen or family_open:
        return OrbitDecision("undecided")
    return OrbitDecision("inequivalent")
