"""Truncated polynomial algebra used for the block-level coefficient maps."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import QQ_I
from sympy.polys.fields import field

from sloccanon.errors import NotInvertible, NotReversible, OrderMismatch
from sloccanon.exactmat import Matrix, Scalar, jordan_block
from sloccanon.nilpoly import (TruncPoly, compose, eval_at_jordan, grid_entry_ok,
                               grid_support, mul, reciprocal,
                               shifted_reversion)


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def tp(*coeffs):
    return TruncPoly(len(coeffs), tuple(sc(c) for c in coeffs))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
scalars = st.builds(Scalar, small_fractions, small_fractions)


def polys(order, first=scalars):
    return st.builds(
        lambda c0, rest: TruncPoly(order, (c0,) + tuple(rest)),
        first, st.lists(scalars, min_size=order - 1, max_size=order - 1))


# -- multiplication ---------------------------------------------------------

def test_mul_example():
    assert mul(tp(1, 1, 0), tp(1, -1, 0)) == tp(1, 0, -1)


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatch):
        mul(tp(1, 0), tp(1, 0, 0))


@given(polys(4), polys(4), polys(4))
def test_mul_is_commutative_and_associative(f, g, h):
    assert mul(f, g) == mul(g, f)
    assert mul(mul(f, g), h) == mul(f, mul(g, h))


# -- reciprocal -------------------------------------------------------------

def test_reciprocal_example():
    assert reciprocal(tp(1, 2, 1)) == tp(1, -2, 3)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(NotInvertible):
        reciprocal(tp(0, 1, 0))


@given(polys(5, first=scalars.filter(lambda s: not s.is_zero())))
def test_reciprocal_roundtrip(f):
    one = TruncPoly(5, (sc(1),) + (sc(0),) * 4)
    assert mul(f, reciprocal(f)) == one


# -- composition and reversion ----------------------------------------------

def test_compose_example():
    # f(x) = 1 + x, g(x) = 2x + x^2, f(g(x)) = 1 + 2x + x^2
    assert compose(tp(1, 1, 0), tp(0, 2, 1)) == tp(1, 2, 1)


def test_shifted_reversion_example():
    # g(x) = x + x^2 has compositional inverse u - u^2 (mod u^3)
    assert shifted_reversion(tp(0, 1, 1)) == tp(0, 1, -1)


def test_shifted_reversion_strips_constant():
    assert shifted_reversion(tp(5, 1, 1)) == tp(0, 1, -1)


def test_shifted_reversion_rejects_zero_linear_term():
    with pytest.raises(NotReversible):
        shifted_reversion(tp(0, 0, 1))


@given(polys(5))
def test_reversion_roundtrip(g):
    if g.coeffs[1].is_zero():
        return
    shifted = TruncPoly(5, (sc(0),) + g.coeffs[1:])
    inv = shifted_reversion(g)
    x = TruncPoly(5, (sc(0), sc(1), sc(0), sc(0), sc(0)))
    assert compose(shifted, inv) == x
    assert compose(inv, shifted) == x


# -- the same series over a rational-function field ------------------------

# Q(i)(t): a coefficient a + b*t of a field polynomial takes the value
# a + b*p at the point t = p, which is then a Gaussian rational.  The
# symmetry tests use these helpers too.
K, T = field(sympy.symbols("t"), QQ_I)


def in_field(s):
    return K(QQ_I(s.re, s.im))


def at_point(c, p):
    """The field element c at t = p, as a Scalar."""
    q = QQ_I(p.re, p.im)
    v = c.numer(q) / c.denom(q)
    return Scalar(Fraction(int(v.x.numerator), int(v.x.denominator)),
                  Fraction(int(v.y.numerator), int(v.y.denominator)))


def symbolic_polys(order):
    """Pairs (a, b) of Scalar polys, standing for the field poly a + b*t."""
    return st.tuples(polys(order), polys(order))


def pair_to_field(pair):
    a, b = pair
    return TruncPoly(a.order, tuple(in_field(x) + in_field(y) * T
                                    for x, y in zip(a.coeffs, b.coeffs)))


def pair_at(pair, p):
    a, b = pair
    return TruncPoly(a.order, tuple(x + y * p
                                    for x, y in zip(a.coeffs, b.coeffs)))


def series_at_point(op, pairs, p):
    """op over the field, then at t = p; and op over Scalars at p.

    Returns None when the Scalar call divides by zero at p: a factor
    that the field result cancels may vanish there.
    """
    try:
        expect = op(*(pair_at(pr, p) for pr in pairs))
    except (NotInvertible, NotReversible):
        return None
    got = op(*(pair_to_field(pr) for pr in pairs))
    return TruncPoly(got.order, tuple(at_point(c, p) for c in got.coeffs)), \
        expect


@pytest.mark.parametrize("op,arity", [
    (mul, 2), (reciprocal, 1), (compose, 2), (shifted_reversion, 1)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_over_function_field_match_scalars_at_a_point(op, arity, data):
    order = data.draw(st.integers(1, 4))
    pairs = [data.draw(symbolic_polys(order)) for _ in range(arity)]
    p = data.draw(scalars)
    both = series_at_point(op, pairs, p)
    assume(both is not None)
    got, expect = both
    assert got == expect


def test_series_over_function_field_examples():
    # 1/(1 + t x) = 1 - t x + t^2 x^2, and (x + t x^2) reverts to
    # x - t x^2 + 2 t^2 x^3
    one, zero = in_field(sc(1)), in_field(sc(0))
    assert reciprocal(TruncPoly(3, (one, T, zero))) == \
        TruncPoly(3, (one, -T, T * T))
    assert shifted_reversion(TruncPoly(4, (zero, one, T, zero))) == \
        TruncPoly(4, (zero, one, -T, 2 * T * T))
    with pytest.raises(NotInvertible):
        reciprocal(TruncPoly(2, (T - T, one)))
    with pytest.raises(NotReversible):
        shifted_reversion(TruncPoly(3, (T, zero, one)))


def test_coefficients_are_coerced_or_rejected():
    assert TruncPoly(2, (1, Fraction(1, 2))) == tp(1, Fraction(1, 2))
    assert TruncPoly(1, (T,)).coeffs == (T,)
    with pytest.raises(TypeError):
        TruncPoly(2, (1.0, 0))
    with pytest.raises(TypeError):
        TruncPoly(1, (sympy.Integer(1),))


# -- evaluation at a jordan block -------------------------------------------

def test_eval_at_jordan_example():
    # f(x) = 2 + 3x at J_2(0) is the upper triangular Toeplitz [[2,3],[0,2]]
    out = eval_at_jordan(tp(2, 3), 0)
    assert out == Matrix.from_rows([[2, 3], [0, 2]])


def test_eval_at_jordan_at_shifted_block():
    # f(x) = x at J_2(5) is the block itself
    assert eval_at_jordan(tp(0, 1), 5) == jordan_block(sc(5), 2)


@given(polys(3), polys(3))
def test_eval_at_jordan_is_a_ring_map(f, g):
    assert eval_at_jordan(mul(f, g), 0) == \
        eval_at_jordan(f, 0) @ eval_at_jordan(g, 0)


# -- commutant grid support -------------------------------------------------

@pytest.mark.parametrize("ni,nj,expected", [
    (3, 3, [0, 1, 2]),
    (3, 2, [0, 1]),
    (2, 3, [1, 2]),
    (1, 4, [3]),
    (4, 1, [0]),
])
def test_grid_support(ni, nj, expected):
    assert list(grid_support(ni, nj)) == expected


def test_grid_entry_ok():
    # a short-to-tall coupling must vanish below degree nj - ni
    assert grid_entry_ok(tp(0, 1, 1), 2, 3)
    assert not grid_entry_ok(tp(1, 1, 1), 2, 3)
    # an admissible entry intertwines the two nilpotent blocks
    j = jordan_block(sc(0), 3)
    f = eval_at_jordan(tp(0, 1, 1), 0).submatrix(range(2), range(3))
    assert (f @ j - jordan_block(sc(0), 2) @ f).is_zero()
