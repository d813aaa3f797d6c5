"""Exact scalar and matrix algebra over the Gaussian rationals."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sloccanon import exactmat
from sloccanon.errors import CheckFailed, NotInField, SingularMatrix
from sloccanon.exactmat import (Matrix, Scalar, combination_ranks,
                                commutant_basis, eigenvalues_in_field,
                                jordan_block, jordan_decompose, jordan_matrix,
                                poly_eval)


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def M(rows):
    return Matrix.from_rows(rows)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
scalars = st.builds(Scalar, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())
# Components are zero about half the time, so real, imaginary and zero
# operands are all common.
sparse_fractions = st.one_of(st.just(Fraction(0)), small_fractions)
sparse_scalars = st.builds(Scalar, sparse_fractions, sparse_fractions)


# -- scalar field axioms ----------------------------------------------------

@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(sparse_scalars, sparse_scalars)
def test_scalar_shortcuts_match_component_formulas(a, b):
    p, s = a * b, a + b
    assert p.re == a.re * b.re - a.im * b.im
    assert p.im == a.re * b.im + a.im * b.re
    assert s.re == a.re + b.re
    assert s.im == a.im + b.im
    assert all(type(v) is Fraction for v in (p.re, p.im, s.re, s.im))


@given(nonzero_scalars)
def test_scalar_inverse(a):
    assert a * a.inv() == sc(1)
    assert a / a == sc(1)


def test_scalar_complex_arithmetic():
    i = sc(0, 1)
    assert i * i == sc(-1)
    assert (sc(1) + i) * (sc(1) - i) == sc(2)
    assert sc(1, 1).inv() == sc(Fraction(1, 2), Fraction(-1, 2))


def test_scalar_total_order_is_lexicographic():
    assert sc(0, 5).sort_key() < sc(1, -5).sort_key()
    assert sc(1, -1).sort_key() < sc(1, 0).sort_key()


# -- rank / inverse / det ---------------------------------------------------

def test_rank_examples():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zero(2, 2).rank() == 0
    assert M([[1, 2], [2, 4]]).rank() == 1


def test_inverse_examples():
    assert Matrix.identity(2).inverse() == Matrix.identity(2)
    assert M([[2, 0], [0, 4]]).inverse() == \
        M([[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
    assert M([[1, 1], [0, 1]]).inverse() == M([[1, -1], [0, 1]])


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        M([[1, 2], [2, 4]]).inverse()


def _det3(m):
    # cofactor oracle, first row
    if m.rows == 1:
        return m[0, 0]
    acc = sc(0)
    sign = sc(1)
    for j in range(m.cols):
        minor = m.submatrix(range(1, m.rows),
                            [c for c in range(m.cols) if c != j])
        acc = acc + sign * m[0, j] * _det3(minor)
        sign = -sign
    return acc


@settings(max_examples=60)
@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
def test_det_matches_cofactor_oracle(vals):
    m = Matrix(3, 3, [sc(v) for v in vals])
    assert m.det() == _det3(m)
    assert (m.rank() == 3) == (not m.det().is_zero())


# -- elimination against a Fraction-pair reference -------------------------

def _reference_rref(m):
    """Gauss-Jordan elimination on (re, im) Fraction pairs."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def inv(a):
        n = a[0] * a[0] + a[1] * a[1]
        return (a[0] / n, -a[1] / n)

    rows = [[(e.re, e.im) for e in m.row(i)] for i in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        pr = next((i for i in range(r, m.rows) if any(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        f = inv(rows[r][c])
        rows[r] = [mul(f, e) for e in rows[r]]
        for i in range(m.rows):
            if i != r and any(rows[i][c]):
                g = rows[i][c]
                rows[i] = [(a[0] - p[0], a[1] - p[1]) for a, p in
                           zip(rows[i], (mul(g, b) for b in rows[r]))]
        pivots.append(c)
    return [[Scalar(*e) for e in row] for row in rows], pivots


wide_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=12))


@st.composite
def matrices(draw, max_rows=7, max_cols=9, square=False, rows=None):
    """Real or complex matrices from 0 x 0 to 7 x 9, some rows linear
    combinations of earlier ones, some rows and columns zero; rows fixes
    the number of rows."""
    n_rows = draw(st.integers(0, max_rows)) if rows is None else rows
    n_cols = n_rows if square else draw(st.integers(0, max_cols))
    real = draw(st.booleans())
    imag = st.just(Fraction(0)) if real else wide_fractions
    rows = [[Scalar(draw(wide_fractions), draw(imag)) for _ in range(n_cols)]
            for _ in range(n_rows)]
    coeffs = st.builds(Scalar, small_fractions,
                       st.just(Fraction(0)) if real else small_fractions)
    for i in range(1, n_rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            ca, cb = draw(coeffs), draw(coeffs)
            rows[i] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    zero_rows = draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(n_cols - 1, 0)), max_size=2))
    return Matrix(n_rows, n_cols, [
        Scalar.of(0) if i in zero_rows or j in zero_cols else rows[i][j]
        for i in range(n_rows) for j in range(n_cols)])


def _reference_matmul(a, b):
    """Entry (i, j) as a plain Scalar dot product of row i and column j."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Scalar.of(0))
             for j in range(b.cols)] for i in range(a.rows)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_matches_scalar_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.to_rows() == _reference_matmul(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_equality_is_canonical(data):
    a = data.draw(matrices(max_rows=5, square=True))
    b = data.draw(matrices(square=True, rows=a.rows))
    n = a.rows

    def same(x, y):
        assert x == y and hash(x) == hash(y)

    same(M([[Fraction(2, 4), 3]]), M([[Fraction(1, 2), Fraction(6, 2)]]))
    same(M([[1, -2], [0, 5]]),
         M([[Fraction(1), Fraction(-2)], [Fraction(0), Fraction(5)]]))
    same((a + b) - b, a)
    same(a.transpose().transpose(), a)
    same(a.scale(2).scale(Fraction(1, 2)), a)
    if a.rank() == n:
        same(a @ a.inverse(), Matrix.identity(n))
    zero = a - a
    same(zero, Matrix.zero(n, n))
    assert zero.den == 1 and M([[Fraction(0, 5)]]).den == 1
    product = a @ b
    assert isinstance(product.entries, tuple)
    assert all(type(e) is Scalar for e in product.entries)
    for name in ("rows", "den", "re", "im", "entries"):
        with pytest.raises(AttributeError):
            setattr(product, name, None)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_fraction_reference(m):
    assert m.rref() == _reference_rref(m)


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=6, square=True))
def test_inverse_and_det_match_rank(m):
    n = m.rows
    if m.rank() == n:
        assert m @ m.inverse() == Matrix.identity(n)
        assert m.inverse() @ m == Matrix.identity(n)
        assert m.det() == Scalar.of(1) / m.inverse().det()
    else:
        with pytest.raises(SingularMatrix):
            m.inverse()
        assert m.det().is_zero()
    if n <= 5:
        assert m.det() == (_det3(m) if n else Scalar.of(1))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_nullspace_is_kernel_of_right_dimension(m):
    basis = m.nullspace()
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert (m @ Matrix(m.cols, 1, v)).is_zero()


# Few distinct values, so that combinations often cancel and the rank
# drops; the denominators differ from entry to entry.
cancelling_scalars = st.sampled_from(
    [sc(0), sc(1), sc(-1), sc(Fraction(1, 2)), sc(Fraction(-2, 3)),
     sc(0, Fraction(1, 2)), sc(1, -1)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(cancelling_scalars, min_size=n * n, max_size=n * n)
             .map(lambda vals: Matrix(n, n, vals)), min_size=2, max_size=3),
    st.one_of(st.none(), st.lists(cancelling_scalars, min_size=n * n,
                                  max_size=n * n)
              .map(lambda vals: Matrix(n, n, vals))))))
def test_combination_ranks_match_scalar_combinations(args):
    mats, base = args
    tuples = list(itertools.product((0, 1, -1, 2, -3), repeat=len(mats)))
    expected = []
    for t in tuples:
        acc = base if base is not None else Matrix.zero(mats[0].rows,
                                                        mats[0].cols)
        for c, m in zip(t, mats):
            acc = acc + m.scale(c)
        expected.append((t, acc.rank()))
    assert list(combination_ranks(mats, tuples, base=base)) == expected


# -- characteristic polynomial ---------------------------------------------

def test_char_poly_examples():
    assert Matrix.diagonal([1, 2]).char_poly() == (sc(2), sc(-3), sc(1))
    assert Matrix.zero(2, 2).char_poly() == (sc(0), sc(0), sc(1))
    lam = sc(Fraction(5, 3))
    assert jordan_block(lam, 2).char_poly() == \
        (lam * lam, sc(-2) * lam, sc(1))


@settings(max_examples=40)
@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_cayley_hamilton(vals):
    m = Matrix(3, 3, [sc(v) for v in vals])
    acc = Matrix.zero(3, 3)
    for c in reversed(m.char_poly()):
        acc = acc @ m + Matrix.identity(3).scale(c)
    assert acc.is_zero()


@settings(max_examples=40, deadline=None)
@example(M([[sc(Fraction(1, 2), 3), sc(0, Fraction(-2, 7)), sc(5)],
            [sc(Fraction(4, 9)), sc(-1, Fraction(1, 6)), sc(0)],
            [sc(0, 1), sc(Fraction(-3, 4)), sc(Fraction(2, 5), -1)]]))
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(sparse_scalars, min_size=n * n, max_size=n * n)
    .map(lambda vals: Matrix(n, n, vals))))
def test_char_poly_matches_determinant(m):
    n = m.rows
    coeffs = m.char_poly()
    assert len(coeffs) == n + 1 and coeffs[-1] == sc(1)
    # both sides are monic of degree n, so agreeing at n distinct points
    # makes them equal
    points = [sc(0), sc(1), sc(-2, 1), sc(Fraction(1, 3), Fraction(-1, 2))]
    points += [sc(k, k) for k in range(2, n - 2)]
    for x in points:
        assert poly_eval(coeffs, x) == \
            (Matrix.identity(n).scale(x) - m).det()


# -- eigenvalues in field ---------------------------------------------------

def test_eigenvalues_examples():
    assert eigenvalues_in_field(Matrix.diagonal([1, 2, 2])) == \
        [sc(1), sc(2), sc(2)]
    assert eigenvalues_in_field(M([[0, 1], [1, 0]])) == [sc(-1), sc(1)]
    assert eigenvalues_in_field(M([[0, -1], [1, 0]])) == \
        [sc(0, -1), sc(0, 1)]


def test_eigenvalues_hints_are_verified():
    m = Matrix.diagonal([Fraction(1, 7), Fraction(2, 7)])
    assert eigenvalues_in_field(m, hints=[sc(Fraction(1, 7)), sc(9)]) == \
        [sc(Fraction(1, 7)), sc(Fraction(2, 7))]


def test_eigenvalues_not_in_field_reports_residual():
    with pytest.raises(NotInField) as exc:
        eigenvalues_in_field(M([[0, -2], [1, 0]]))  # x^2 + 2
    assert exc.value.residual is not None
    assert len(exc.value.residual) == 3


# Planted roots: real, pure imaginary and complex, with denominators up
# to 5, and 0 and +-i by name.
root_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
planted_roots = st.one_of(
    st.sampled_from([sc(0), sc(0, 1), sc(0, -1)]),
    st.builds(sc, root_fractions),
    st.builds(lambda b: sc(0, b), root_fractions),
    st.builds(Scalar, root_fractions, root_fractions))
# irreducible over Q(i), constant first: x^2 - 2, x^2 + ix + 1, x^2 - i,
# x^3 - 3
IRREDUCIBLE = [(sc(-2), sc(0), sc(1)), (sc(1), sc(0, 1), sc(1)),
               (sc(0, -1), sc(0), sc(1)), (sc(-3), sc(0), sc(0), sc(1))]


def _poly_mul(f, g):
    out = [sc(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def _first_nonlinear_factor(coeffs):
    """The reference residual: sympy's factor list over QQ_I, in full."""
    import sympy
    from sympy.polys.domains import QQ_I

    poly = sympy.Poly([QQ_I(c.re, c.im) for c in reversed(coeffs)],
                      sympy.Symbol("x"), domain=QQ_I)
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() > 1:
            return tuple(exactmat.scalar_from_qqi(c)
                         for c in reversed(factor.rep.to_list()))
    return None


@settings(max_examples=40, deadline=None)
@given(st.lists(planted_roots, min_size=1, max_size=4), st.booleans(),
       st.integers(0, 2), st.lists(st.sampled_from(IRREDUCIBLE), max_size=2),
       st.sampled_from([sc(1), sc(-3), sc(Fraction(2, 5)), sc(1, -2)]))
def test_field_roots_recover_planted_roots(roots, conjugates, repeats,
                                           extras, lead):
    if conjugates:
        roots = roots + [sc(r.re, -r.im) for r in roots]
    roots = roots + roots[:repeats]
    poly = [lead]
    for r in roots:
        poly = _poly_mul(poly, [-r, sc(1)])
    for f in extras:
        poly = _poly_mul(poly, list(f))
    found, residual = exactmat._field_roots(poly)
    assert sorted(found, key=Scalar.sort_key) == \
        sorted(roots, key=Scalar.sort_key)
    # without extras the product splits, and the reference is not needed
    assert residual == (_first_nonlinear_factor(poly) if extras else None)


# -- jordan decomposition ---------------------------------------------------

def test_jordan_examples():
    s, blocks = jordan_decompose(Matrix.diagonal([3, 3]))
    assert blocks == ((sc(3), 1), (sc(3), 1))
    assert s == Matrix.identity(2)
    _, blocks = jordan_decompose(M([[1, 1], [0, 1]]))
    assert blocks == ((sc(1), 2),)
    _, blocks = jordan_decompose(M([[5, 4], [-4, -3]]))
    assert blocks == ((sc(1), 2),)


def test_jordan_fixed_point_on_normalized_input():
    blocks = ((sc(1), 3), (sc(1), 1), (sc(2), 2))
    s, out = jordan_decompose(jordan_matrix(blocks))
    assert out == blocks and s == Matrix.identity(6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=9, max_size=9),
       st.sampled_from([((0, 3),), ((1, 2), (1, 1)), ((2, 2), (5, 1)),
                        ((0, 1), (1, 1), (2, 1))]))
def test_jordan_witness_roundtrip(vals, blocks):
    blocks = tuple((sc(l), n) for l, n in blocks)
    j = jordan_matrix(blocks)
    c = Matrix(3, 3, [sc(v) for v in vals])
    if c.rank() < 3:
        return
    m = c @ j @ c.inverse()
    s, out = jordan_decompose(m, hints=[lam for lam, _ in blocks])
    assert out == tuple(sorted(blocks,
                               key=lambda b: (b[0].sort_key(), -b[1])))
    assert s.inverse() @ m @ s == jordan_matrix(out)
    assert s @ jordan_matrix(out) @ s.inverse() == m


def test_jordan_checks_raise_domain_errors(monkeypatch):
    m = M([[5, 4], [-4, -3]])
    real_jordan_matrix = jordan_matrix
    monkeypatch.setattr(exactmat, "jordan_matrix",
                        lambda spec: real_jordan_matrix(spec).scale(2))
    with pytest.raises(CheckFailed):
        jordan_decompose(m)
    monkeypatch.undo()
    # eigenvalues handed over in descending order build the blocks out
    # of the normal order, which the Jordan basis check would pass
    real_eigenvalues = exactmat.eigenvalues_in_field
    monkeypatch.setattr(exactmat, "eigenvalues_in_field",
                        lambda m, hints: real_eigenvalues(m, hints)[::-1])
    with pytest.raises(CheckFailed, match="normal order"):
        jordan_decompose(M([[2, 0], [0, 3]]))
    monkeypatch.undo()
    # a singular s passes m @ s == s @ J (s = 0 does); the rank check
    # must reject it.  diag(2, 3) builds only its final s from two columns
    real_from_columns = Matrix.from_columns
    monkeypatch.setattr(Matrix, "from_columns", staticmethod(
        lambda cols: Matrix.zero(2, 2) if len(cols) == 2
        else real_from_columns(cols)))
    with pytest.raises(CheckFailed):
        jordan_decompose(M([[2, 0], [0, 3]]))


# -- commutant basis --------------------------------------------------------

def test_commutant_basis_examples():
    assert commutant_basis(((sc(7), 1),)) == [Matrix.identity(1)]
    basis = commutant_basis(((sc(7), 3),))
    assert basis == [Matrix.identity(3), jordan_block(sc(0), 3),
                     jordan_block(sc(0), 3) @ jordan_block(sc(0), 3)]


@pytest.mark.parametrize("blocks,expected", [
    (((0, 3), (0, 2)), 9),              # 3+2+2+2
    (((1, 2), (1, 2)), 8),
    (((1, 2), (2, 2)), 4),              # distinct eigenvalues decouple
    (((0, 4), (0, 2), (0, 1)), 15),
])
def test_commutant_basis_count_and_commutation(blocks, expected):
    blocks = tuple((sc(l), n) for l, n in blocks)
    basis = commutant_basis(blocks)
    assert len(basis) == expected
    j = jordan_matrix(blocks)
    for b in basis:
        assert (b @ j - j @ b).is_zero()
