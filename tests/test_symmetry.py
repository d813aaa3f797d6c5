"""Residual symmetry group action on canonical forms and orbit decisions."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sloccanon.canon import CanonicalForm, ILOTriple, apply_ilo, \
    commuting_pair_canonical, full_rank_reduce
from sloccanon.cli import main
from sloccanon.errors import DegenerateParameter, ZeroScale
from sloccanon.exactmat import Matrix, Scalar
from sloccanon.nilpoly import TruncPoly
from sloccanon.symmetry import (OrbitDecision, SymmetryParams,
                                _block_transform, apply_all, matrix_of_params,
                                mobius_2nn, orbit_equivalent)
from test_nilpoly import K, T, at_point, in_field


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def single_block(lam, *coeffs):
    return CanonicalForm.from_blocks([(sc(lam), len(coeffs),
                                       tuple(sc(c) for c in coeffs))])


def tuple_of(cf):
    (lam, _, coeffs), = cf.block_data()
    return (lam,) + tuple(coeffs)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_fractions = small_fractions.filter(lambda f: f != 0)


# -- elementary map golden values -------------------------------------------

def test_ej_golden():
    # (lam, a0, a1, a2) with z1: lam and a0 divide by 1 + z1*lam,
    # a1 picks up the shear term, a2 scales by the cube
    cf = single_block(1, 2, 3, 4)
    out = apply_all(cf, SymmetryParams(1, 0, 0, 1, 1))
    assert tuple_of(out) == (sc(Fraction(1, 2)), sc(1), sc(4), sc(32))


def test_ea_golden():
    cf = single_block(1, 2, 1, 4)
    out = apply_all(cf, SymmetryParams(0, 1, 0, 1, 1))
    # lam and a0 divide by 1 + z2*a0 = 3; a1 by 1 + z2*(a0 - a1*lam) = 2;
    # a2 scales by 3**3 / 2**3
    assert tuple_of(out) == (sc(Fraction(1, 3)), sc(Fraction(2, 3)),
                             sc(Fraction(1, 2)), sc(Fraction(27, 2)))


def test_ja_golden():
    # the worked 1x3-parameter example: (1, 0, 2, 3) under z3
    cf = single_block(1, 0, 2, 3)
    z3 = sc(1)
    out = apply_all(cf, SymmetryParams(0, 0, z3, 1, 1))
    c = sc(1) + sc(2) * z3
    assert tuple_of(out) == (sc(1), sc(0), sc(2) / c, sc(3) / c ** 3)


def test_rescale_golden():
    cf = single_block(1, 2, 3, 4)
    out = apply_all(cf, SymmetryParams(0, 0, 0, 5, 7))
    assert tuple_of(out) == (sc(5), sc(14), sc(Fraction(21, 5)),
                             sc(Fraction(28, 25)))


def test_rescale_rejects_zero():
    with pytest.raises(ZeroScale):
        apply_all(single_block(1, 2), SymmetryParams(0, 0, 0, sc(0), 1))


def test_ej_degenerate_parameter():
    with pytest.raises(DegenerateParameter):
        # 1 + z1*lam = 0
        apply_all(single_block(1, 0, 2), SymmetryParams(-1, 0, 0, 1, 1))


# -- group structure --------------------------------------------------------

@given(small_fractions, small_fractions)
def test_ej_inverse(lam, z):
    cf = single_block(lam, 3, 1, 2)
    if (sc(1) + sc(z) * sc(lam)).is_zero():
        return
    out = apply_all(cf, SymmetryParams(z, 0, 0, 1, 1))
    lam2 = out.block_data()[0][0]
    if (sc(1) - sc(z) * lam2).is_zero():
        return
    assert apply_all(out, SymmetryParams(-z, 0, 0, 1, 1)) == cf


@given(small_fractions, small_fractions)
def test_ja_inverse(lam, z):
    cf = single_block(lam, 0, 2, 5)
    try:
        out = apply_all(cf, SymmetryParams(0, 0, z, 1, 1))
        back = apply_all(out, SymmetryParams(0, 0, -z, 1, 1))
    except DegenerateParameter:
        return
    assert back == cf


@given(nonzero_fractions, nonzero_fractions)
def test_rescale_inverse(d2, d3):
    cf = single_block(2, 3, 1, 7)
    out = apply_all(cf, SymmetryParams(0, 0, 0, d2, d3))
    assert apply_all(out, SymmetryParams(0, 0, 0, 1 / d2, 1 / d3)) == cf


@settings(max_examples=30, deadline=None)
@given(small_fractions, small_fractions, small_fractions,
       nonzero_fractions, nonzero_fractions)
def test_composite_matches_elementary_chain(z1, z2, z3, d2, d3):
    cf = single_block(1, 0, 2, 3)
    sp = SymmetryParams(sc(z1), sc(z2), sc(z3), sc(d2), sc(d3))
    try:
        staged = apply_all(cf, SymmetryParams(0, 0, 0, sp.d2, sp.d3))
        for elementary in (SymmetryParams(0, 0, sp.z3, 1, 1),
                           SymmetryParams(0, sp.z2, 0, 1, 1),
                           SymmetryParams(sp.z1, 0, 0, 1, 1)):
            staged = apply_all(staged, elementary)
    except DegenerateParameter:
        return
    assert apply_all(cf, sp) == staged


def test_composite_matches_matrix_oracle():
    cf = single_block(1, 0, 2, 3)
    sp = SymmetryParams(sc(Fraction(1, 2)), sc(-1), sc(2), sc(3),
                        sc(Fraction(2, 3)))
    out = apply_all(cf, sp)
    # oracle: act with T on the assembled state and recanonicalize
    psi = cf.assemble_state()
    ops = ILOTriple(matrix_of_params(sp), Matrix.identity(cf.dim),
                    Matrix.identity(cf.dim))
    reduced = full_rank_reduce(apply_ilo(psi, ops))
    oracle, _ = commuting_pair_canonical(reduced.gammas[1],
                                         reduced.gammas[2])
    assert out == oracle


def test_apply_all_on_derogatory_form():
    from sloccanon.exactmat import jordan_matrix
    j = jordan_matrix(((sc(1), 2), (sc(1), 2)))
    a = Matrix.from_rows([[2, 1, 0, 3],
                          [0, 2, 0, 0],
                          [0, 5, 2, 4],
                          [0, 0, 0, 2]])
    cf, _ = commuting_pair_canonical(j, a)
    sp = SymmetryParams(sc(1), sc(0), sc(-1), sc(2), sc(1))
    out = apply_all(cf, sp)
    psi = cf.assemble_state()
    ops = ILOTriple(matrix_of_params(sp), Matrix.identity(4),
                    Matrix.identity(4))
    reduced = full_rank_reduce(apply_ilo(psi, ops))
    oracle, _ = commuting_pair_canonical(reduced.gammas[1],
                                         reduced.gammas[2])
    assert out == oracle


# -- the block map over a rational-function field ---------------------------

scalars = st.builds(Scalar, small_fractions, small_fractions)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), scalars, st.data(),
       st.lists(st.tuples(scalars, scalars), min_size=5, max_size=5),
       scalars)
def test_block_transform_over_function_field(n, lam, data, entries, p):
    # trow entries a + b*t: the witness search's symbolic T row, here in
    # one parameter; at t = p it must give the Scalar map at that row
    coeffs = data.draw(st.lists(scalars, min_size=n, max_size=n))
    u2, u3, v2, v3, w3 = entries
    at_p = [a + b * p for a, b in entries]
    try:
        lam2, f2 = _block_transform(
            lam, TruncPoly(n, tuple(coeffs)),
            ((sc(1), at_p[0], at_p[1]), (at_p[2], at_p[3]), at_p[4]))
    except DegenerateParameter:
        assume(False)
    sym = [in_field(a) + in_field(b) * T for a, b in entries]
    slam2, sf2 = _block_transform(
        in_field(lam), TruncPoly(n, tuple(in_field(c) for c in coeffs)),
        ((K.one, sym[0], sym[1]), (sym[2], sym[3]), sym[4]))
    assert at_point(slam2, p) == lam2
    assert tuple(at_point(c, p) for c in sf2.coeffs) == f2.coeffs


def test_block_transform_over_function_field_degenerates():
    # on the block (1; 2, 3): t12 = t, t13 = -(1 + t)/2 make the first
    # slot 1 + t12*lam + t13*a0 vanish for every t, and t22 = t23 = 0
    # leave no Jordan part to revert
    f = TruncPoly(2, (in_field(sc(2)), in_field(sc(3))))
    with pytest.raises(DegenerateParameter):
        _block_transform(in_field(sc(1)), f,
                         ((K.one, T, -(K.one + T) / 2), (K.one, K.zero),
                          K.one))
    with pytest.raises(DegenerateParameter):
        _block_transform(in_field(sc(1)), f,
                         ((K.one, T, K.zero), (K.zero, K.zero), K.one))


# -- the 2 x N x N eigenvalue law -------------------------------------------

def test_mobius_golden():
    assert mobius_2nn(sc(2), sc(1), sc(0), sc(3)) == sc(6)
    assert mobius_2nn(sc(2), sc(1), sc(1), sc(1)) == sc(Fraction(2, 3))
    assert mobius_2nn(sc(0), sc(5), sc(7), sc(9)) == sc(0)


def test_mobius_degenerate():
    with pytest.raises(DegenerateParameter):
        mobius_2nn(sc(1), sc(1), sc(-1), sc(1))
    with pytest.raises(DegenerateParameter):
        mobius_2nn(sc(1), sc(0), sc(1), sc(1))


@given(small_fractions, nonzero_fractions, small_fractions,
       nonzero_fractions, small_fractions, nonzero_fractions)
def test_mobius_composition_law(lam, a11, a12, a22, b12, b22):
    # acting twice equals acting with the matrix product
    a = Matrix.from_rows([[a11, a12], [0, a22]])
    b = Matrix.from_rows([[1, b12], [0, b22]])
    c = b @ a
    try:
        once = mobius_2nn(sc(lam), a[0, 0], a[0, 1], a[1, 1])
        twice = mobius_2nn(once, b[0, 0], b[0, 1], b[1, 1])
        direct = mobius_2nn(sc(lam), c[0, 0], c[0, 1], c[1, 1])
    except DegenerateParameter:
        return
    assert twice == direct


# -- orbit decision ---------------------------------------------------------

def test_orbit_worked_example():
    cf1 = single_block(1, 0, 2, 3)
    cf2 = single_block(1, 0, Fraction(1, 3), Fraction(1, 9))
    dec = orbit_equivalent(cf1, cf2)
    assert dec.equivalent
    assert apply_all(cf1, dec.witness) == cf2


def test_orbit_reflexive_and_symmetric():
    cf1 = single_block(2, 1, 5, -3)
    cf2 = apply_all(cf1, SymmetryParams(sc(1), sc(-1), sc(2),
                                        sc(3), sc(Fraction(1, 2))))
    assert orbit_equivalent(cf1, cf1).equivalent
    fwd = orbit_equivalent(cf1, cf2)
    bwd = orbit_equivalent(cf2, cf1)
    assert fwd.equivalent and bwd.equivalent
    assert apply_all(cf1, fwd.witness) == cf2
    assert apply_all(cf2, bwd.witness) == cf1


def test_orbit_size_multiset_obstruction():
    cf1 = single_block(1, 0, 2, 3)
    cf2 = CanonicalForm.from_blocks([(sc(1), 2, (sc(0), sc(2))),
                                     (sc(1), 1, (sc(0),))])
    assert orbit_equivalent(cf1, cf2).status == "inequivalent"


def test_orbit_multi_block_equivalence():
    cf1 = CanonicalForm.from_blocks([
        (sc(0), 2, (sc(1), sc(2))),
        (sc(1), 2, (sc(3), sc(-1))),
        (sc(2), 1, (sc(5),)),
    ])
    sp = SymmetryParams(sc(Fraction(1, 3)), sc(1), sc(-1), sc(2), sc(3))
    cf2 = apply_all(cf1, sp)
    dec = orbit_equivalent(cf1, cf2)
    assert dec.equivalent
    assert apply_all(cf1, dec.witness) == cf2


def test_orbit_multi_block_inequivalence():
    cf1 = CanonicalForm.from_blocks([
        (sc(0), 2, (sc(1), sc(2))),
        (sc(1), 2, (sc(3), sc(-1))),
        (sc(2), 1, (sc(5),)),
    ])
    cf2 = CanonicalForm.from_blocks([
        (sc(0), 2, (sc(1), sc(2))),
        (sc(1), 2, (sc(3), sc(-1))),
        (sc(2), 1, (sc(6),)),
    ])
    dec = orbit_equivalent(cf1, cf2)
    assert dec.status == "inequivalent"


# The witness search's solve path on a (3,1) and a (2,2) pair, each the
# image of its first form under one group element: the exact bytes of
# `equiv --json`, witness and permutation included.
EQUIV_GOLDEN = [
    ({"blocks": [{"lambda": "1", "size": 3, "coeffs": ["2", "-1", "3"]},
                 {"lambda": "2", "size": 1, "coeffs": ["-1"]}]},
     {"blocks": [{"lambda": "7/6", "size": 1, "coeffs": ["-1/6"]},
                 {"lambda": "34/15", "size": 3,
                  "coeffs": ["8/15", "11/13", "-10125/8788"]}]}),
    ({"blocks": [{"lambda": "-1", "size": 2, "coeffs": ["1", "2"]},
                 {"lambda": "3", "size": 2,
                  "coeffs": [{"re": "2", "im": "1"}, "-1"]}]},
     {"blocks": [{"lambda": {"re": "70/33", "im": "8/33"}, "size": 2,
                  "coeffs": [{"re": "8/33", "im": "4/33"},
                             {"re": "443/661", "im": "-27/661"}]},
                 {"lambda": "10/3", "size": 2, "coeffs": ["-4/3", "5"]}]}),
]
EQUIV_GOLDEN_OUT = """{
  "decision": "equivalent",
  "witness": {
    "z1": "1/2",
    "z2": "-1",
    "z3": "2",
    "d2": "3",
    "d3": "2/3"
  },
  "permutation": [
    1,
    0
  ]
}
"""


@pytest.mark.parametrize("first,second", EQUIV_GOLDEN, ids=["3,1", "2,2"])
def test_equiv_golden_bytes(tmp_path, capsys, first, second):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    assert main(["equiv", str(a), str(b), "--json"]) == 0
    assert capsys.readouterr().out == EQUIV_GOLDEN_OUT


def test_orbit_zero_constant_against_nonzero_is_inequivalent():
    # a0 = 0 is kept by the group (a0' = t33 a0 / den), so these forms are
    # inequivalent; the constant equations then make the first slot of
    # the size-3 block vanish on the whole parameter family
    cf1 = CanonicalForm.from_blocks([(sc(1), 3, (sc(0), sc(1), sc(2))),
                                     (sc(2), 2, (sc(3), sc(1)))])
    cf2 = CanonicalForm.from_blocks([(sc(5), 3, (sc(1), sc(1), sc(4))),
                                     (sc(7), 2, (sc(2), sc(3)))])
    assert orbit_equivalent(cf1, cf2).status == "inequivalent"


def test_orbit_derogatory_is_conservative():
    cf = CanonicalForm.from_blocks([(sc(1), 2, (sc(0), sc(2))),
                                    (sc(1), 1, (sc(3),))])
    dec = orbit_equivalent(cf, cf)
    assert dec.status in ("equivalent", "undecided")
    assert dec.status != "inequivalent"
