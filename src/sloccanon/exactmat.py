"""Exact dense linear algebra over Gaussian rationals.

Scalars are complex numbers with Fraction real and imaginary parts; they
are the entries that the rest of the program reads.  A Matrix holds its
entries in one integer representation: a positive int denominator den
and two flat int tuples, the real and imaginary numerators, with
gcd(den, every numerator) = 1.  Every operation here (products, rank,
inverse, characteristic polynomial, Jordan decomposition, commutant
bases) runs exactly on those ints, and a real matrix skips the
imaginary half.  Nothing in this module ever touches floating point.
The characteristic polynomial comes from Berkowitz's division-free
algorithm, run over the Gaussian integers on the numerators.

All elimination (rref, rank, nullspace, inverse, det and the rank
sweeps of ``combination_ranks``) runs through one kernel, ``_eliminate``,
on the numerators, whose row space is that of the matrix: fraction-free
Gauss-Jordan elimination over the Gaussian integers, which brings every
row to the current pivot and divides exactly by the previous one
(Bareiss, Math. Comp. 22, 1968; the Gauss-Jordan form is that of Nakos,
Turner and Williams, 1997).  The result is the reduced row echelon form
times one common denominator.  Because the reduced row echelon form of a
matrix is unique, rref and everything built on it return exactly what
Gauss-Jordan elimination in Fractions returns.

Eigenvalues come from the characteristic polynomial F.  Hints are
tested by exact substitution; the rest of F is searched for roots in
Q(i) through its norm over Q, A^2 + B^2 for F = A + iB, which sympy
factors over the rationals (see _field_roots).  Every candidate root is
checked by exact substitution and division.  sympy factors over the
Gaussian rationals only when a factor of F has no root in Q(i), to name
that factor in the NotInField error.  sympy is imported inside the
functions that use it, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .errors import (CheckFailed, DimensionMismatch, NotInField,
                     SingularMatrix)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scalar:
    """A Gaussian rational re + im*i with exact Fraction components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "Scalar":
        return Scalar(Fraction(re), Fraction(im))

    # Most entries in practice are real or zero (identity and Jordan
    # matrices, mostly-real random data), so add and mul take exact
    # shortcuts for those operands; the values are the same as the full
    # complex formulas give, only fewer Fraction operations are spent.

    def __add__(self, other):
        other = _coerce(other)
        if not (other.re or other.im):
            return self
        if not (self.re or self.im):
            return other
        if not (self.im or other.im):
            return Scalar(self.re + other.re, self.im)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not a:
                return self
            if not d:
                return Scalar(a * c, b) if c else other
            return Scalar(a * c, a * d)
        if not d:
            if not c:
                return other
            return Scalar(a * c, b * c)
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * _coerce(other).inv()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inv()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = Scalar(Fraction(1), Fraction(0))
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def sort_key(self):
        """Lexicographic (re, im) total order used for normalization."""
        return (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    __repr__ = __str__


ZERO = Scalar.of(0)
ONE = Scalar.of(1)


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        # the series code takes its zero and one as c * 0 and 1 + zero
        if x == 0:
            return ZERO
        return ONE if x == 1 else Scalar(Fraction(x), Fraction(0))
    raise TypeError(f"cannot coerce {x!r} to Scalar")




# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

_F0 = Fraction(0)


def _quotient(p: int, q: int, dr: int, di: int = 0) -> Scalar:
    """The Scalar (p + q*i) / (dr + di*i) for ints p, q, dr, di."""
    if not (p or q):
        return ZERO
    if di:
        p, q, dr = p * dr + q * di, q * dr - p * di, dr * dr + di * di
    return Scalar(Fraction(p, dr), Fraction(q, dr) if q else _F0)


def _init(m, rows, cols, den, re, im, entries=None):
    """Set the slots of m, already reduced; returns m."""
    setattr_ = object.__setattr__
    setattr_(m, "rows", rows)
    setattr_(m, "cols", cols)
    setattr_(m, "den", den)
    setattr_(m, "re", re)
    setattr_(m, "im", im)
    setattr_(m, "_entries", entries)
    return m


def _new(rows, cols, den, re, im, entries=None) -> "Matrix":
    """A Matrix from tuples already reduced."""
    return _init(object.__new__(Matrix), rows, cols, den, re, im, entries)


def _make(rows, cols, den, re, im) -> "Matrix":
    """The Matrix of entries (re[k] + im[k]*i) / den, den > 0, reduced."""
    re, im = tuple(re), tuple(im)
    g = math.gcd(den, *re, *im)
    if g != 1:
        den //= g
        re = tuple(x // g for x in re)
        im = tuple(x // g for x in im)
    return _new(rows, cols, den, re, im)


def _concat(mats):
    """(den, re, im): the numerators of mats one after another, brought
    to their least common denominator, which keeps them reduced."""
    den = math.lcm(*(m.den for m in mats))
    return (den, tuple(x * (den // m.den) for m in mats for x in m.re),
            tuple(x * (den // m.den) for m in mats for x in m.im))


def _lin(a, fa, b, fb):
    """fa * a + fb * b for int sequences a and b."""
    return [x * fa + y * fb for x, y in zip(a, b)]


def _products(a, b, n, k, m):
    """The flat n x m int product of the flat n x k and k x m a and b."""
    a_rows = [a[i * k:(i + 1) * k] for i in range(n)]
    b_cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, r, c)) for r in a_rows for c in b_cols]


class Matrix:
    """Immutable dense matrix over the Gaussian rationals, row-major.

    Entry k is (re[k] + im[k]*i) / den, with den a positive int and re,
    im flat tuples of ints.  gcd(den, every numerator) is 1, and den is 1
    for the zero matrix, so each matrix has one representation, which ==
    and hash compare.  The arithmetic runs on these ints, and a real
    matrix (im all zero) skips the imaginary half.  The Scalar entries
    are built once, on the first read.
    """

    __slots__ = ("rows", "cols", "den", "re", "im", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(_coerce(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(entries)}")
        # lcm of reduced denominators: no prime of it divides every
        # numerator, so the representation is already reduced
        den = math.lcm(*(x.re.denominator for x in entries),
                       *(x.im.denominator for x in entries))
        _init(self, rows, cols, den,
              tuple(x.re.numerator * (den // x.re.denominator)
                    for x in entries),
              tuple(x.im.numerator * (den // x.im.denominator)
                    for x in entries),
              entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            return Matrix(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return Matrix(len(rows), ncols, [e for r in rows for e in r])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _new(n, n, 1, tuple(int(i == j) for i in range(n)
                                   for j in range(n)), (0,) * (n * n))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return _new(rows, cols, 1, (0,) * (rows * cols), (0,) * (rows * cols))

    @staticmethod
    def diagonal(diag) -> "Matrix":
        d = Matrix.from_rows([diag])
        n = d.cols
        re, im = [0] * (n * n), [0] * (n * n)
        re[::n + 1], im[::n + 1] = d.re, d.im
        return _new(n, n, d.den, tuple(re), tuple(im))

    @staticmethod
    def block_diag(blocks) -> "Matrix":
        blocks = list(blocks)
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        den, flat_re, flat_im = _concat(blocks)
        re, im = [0] * (rows * cols), [0] * (rows * cols)
        k = r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                start = (r0 + i) * cols + c0
                re[start:start + b.cols] = flat_re[k:k + b.cols]
                im[start:start + b.cols] = flat_im[k:k + b.cols]
                k += b.cols
            r0 += b.rows
            c0 += b.cols
        return _new(rows, cols, den, tuple(re), tuple(im))

    @staticmethod
    def from_columns(cols) -> "Matrix":
        return Matrix.from_rows(cols).transpose()

    # -- access -------------------------------------------------------------

    @property
    def entries(self):
        """The entries as a row-major tuple of Scalars."""
        if self._entries is None:
            den = self.den
            object.__setattr__(self, "_entries", tuple(
                _quotient(p, q, den) for p, q in zip(self.re, self.im)))
        return self._entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j):
        return list(self.entries[j::self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        idx = [i * self.cols + j for i in row_idx for j in col_idx]
        return _make(len(row_idx), len(col_idx), self.den,
                     [self.re[k] for k in idx], [self.im[k] for k in idx])

    def augment(self, other: "Matrix") -> "Matrix":
        """The matrix [self | other] of the columns of both."""
        if self.rows != other.rows:
            raise DimensionMismatch("augment: row counts differ")
        return _new(self.cols + other.cols, self.rows, *_concat(
            [self.transpose(), other.transpose()])).transpose()

    # -- algebra ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.re, self.im))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shape mismatch")
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        im = (_lin(self.im, fa, other.im, fb)
              if any(self.im) or any(other.im) else self.im)
        return _make(self.rows, self.cols, den,
                     _lin(self.re, fa, other.re, fb), im)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _new(self.rows, self.cols, self.den,
                    tuple(-x for x in self.re), tuple(-x for x in self.im))

    def scale(self, s) -> "Matrix":
        s = _coerce(s)
        sd = math.lcm(s.re.denominator, s.im.denominator)
        sr = s.re.numerator * (sd // s.re.denominator)
        si = s.im.numerator * (sd // s.im.denominator)
        re, im = self.re, self.im
        if not si:
            return _make(self.rows, self.cols, self.den * sd,
                         [x * sr for x in re], [y * sr for y in im])
        return _make(self.rows, self.cols, self.den * sd,
                     _lin(re, sr, im, -si), _lin(re, si, im, sr))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        shape = self.rows, self.cols, other.cols
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        re = _products(ar, br, *shape)
        if any(bi):
            im = _products(ar, bi, *shape)
            if any(ai):
                re = map(sub, re, _products(ai, bi, *shape))
                im = map(add, im, _products(ai, br, *shape))
        elif any(ai):
            im = _products(ai, br, *shape)
        else:
            im = (0,) * (self.rows * other.cols)
        return _make(self.rows, other.cols, self.den * other.den, re, im)

    def transpose(self) -> "Matrix":
        c, entries = self.cols, self._entries
        return _new(c, self.rows, self.den,
                    tuple(x for j in range(c) for x in self.re[j::c]),
                    tuple(x for j in range(c) for x in self.im[j::c]),
                    entries and tuple(x for j in range(c)
                                      for x in entries[j::c]))

    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def __repr__(self):
        rows = ["[" + ", ".join(str(e) for e in self.row(i)) + "]"
                for i in range(self.rows)]
        return "Matrix[" + "; ".join(rows) + "]"

    # -- elimination-based operations --------------------------------------

    def _rows(self):
        """(re, im, content): the numerator rows, each divided by the gcd
        of its entries, and the product of those gcds; im is None for a
        real matrix.  Smaller rows keep the minors of the elimination
        small, and scaling a row leaves the row space as it is."""
        c, content = self.cols, 1
        re, im = [], []
        for i in range(self.rows):
            rr, ri = self.re[i * c:(i + 1) * c], self.im[i * c:(i + 1) * c]
            g = math.gcd(*rr, *ri)
            if g > 1:
                rr, ri = [x // g for x in rr], [x // g for x in ri]
                content *= g
            re.append(rr)
            im.append(ri)
        return re, im if any(self.im) else None, content

    def _reduce(self):
        """(re, im, den, pivots) of _eliminate on the rows of _rows."""
        re, im, _ = self._rows()
        den, pivots = _eliminate(re, im, self.cols)
        return re, im, den, pivots

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        re, im, (dr, di), pivots = self._reduce()
        if im is None:
            return [[_quotient(p, 0, dr) for p in rr] for rr in re], pivots
        return ([[_quotient(p, q, dr, di) for p, q in zip(rr, ri)]
                 for rr, ri in zip(re, im)], pivots)

    def rank(self) -> int:
        return len(self._reduce()[3])

    def nullspace(self):
        """Deterministic basis of the right nullspace (list of columns)."""
        re, im, (dr, di), pivots = self._reduce()
        # _kernel reads only the free columns of the pivot rows
        free = [c for c in range(self.cols) if c not in pivots]
        rows = [{c: _quotient(re[r][c], 0 if im is None else im[r][c],
                              dr, di) for c in free}
                for r in range(len(pivots))]
        return _kernel(rows, pivots, self.cols)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrix("inverse of non-square matrix")
        n = self.rows
        # [m | I] reduces to d [I | m^-1], d the Gaussian integer den
        re, im, (dr, di), pivots = \
            self.augment(Matrix.identity(n))._reduce()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return _make(n, n, 1, [x for r in re for x in r[n:]],
                     (0,) * (n * n) if im is None else
                     [x for r in im for x in r[n:]]).scale(
                         _quotient(1, 0, dr, di))

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise DimensionMismatch("det of non-square matrix")
        re, im, content = self._rows()
        (dr, di), pivots = _eliminate(re, im, self.cols)
        if len(pivots) < self.rows:
            return ZERO
        # the kernel's den is the determinant of the rows it was given
        dr, di, scale = dr * content, di * content, self.den ** self.rows
        return Scalar(Fraction(dr, scale), Fraction(di, scale))

    def char_poly(self):
        """Monic characteristic polynomial, constant term first.

        Berkowitz's algorithm (Inf. Proc. Lett. 18, 1984): division-free,
        exact over any commutative ring, no pivoting choices.  The
        polynomial of each leading principal k x k submatrix is the
        product of a lower-triangular Toeplitz matrix, built from the new
        row, column and corner entry, with that of the (k-1) x (k-1) one.
        It runs over Z[i] on the numerators N = den * m; the coefficient
        of x^k in det(x - N) is den^(n-k) times that in det(x - m).
        """
        if self.rows != self.cols:
            raise DimensionMismatch("char_poly of non-square matrix")
        n = self.rows
        re = [self.re[i * n:(i + 1) * n] for i in range(n)]
        im = [self.im[i * n:(i + 1) * n] for i in range(n)]
        real = not any(self.im)

        def dot(xr, xi, yr, yi):
            s = sum(map(mul, xr, yr))
            if real:
                return s, 0
            return (s - sum(map(mul, xi, yi)),
                    sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)))

        pr, pi = [1], [0]  # highest degree first
        for k in range(n):
            rr, ri = re[k][:k], im[k][:k]
            tr, ti = [1, -re[k][k]], [0, -im[k][k]]
            vr = [re[i][k] for i in range(k)]
            vi = [im[i][k] for i in range(k)]
            for step in range(k):
                x, y = dot(rr, ri, vr, vi)
                tr.append(-x)
                ti.append(-y)
                if step < k - 1:
                    v = [dot(re[i][:k], im[i][:k], vr, vi) for i in range(k)]
                    vr, vi = [x for x, _ in v], [y for _, y in v]
            p = [dot(tr[i::-1], ti[i::-1], pr[:i + 1], pi[:i + 1])
                 for i in range(k + 2)]
            pr, pi = [x for x, _ in p], [y for _, y in p]
        return tuple(_quotient(pr[j], pi[j], self.den ** j)
                     for j in range(n, -1, -1))


def vec_rows(groups) -> Matrix:
    """The matrix whose row k is vec of each matrix of groups[k] in turn.

    vec lists a matrix's entries row by row; every group must hold as
    many entries in all.
    """
    groups = [tuple(g) for g in groups]
    width = sum(m.rows * m.cols for m in groups[0]) if groups else 0
    if any(sum(m.rows * m.cols for m in g) != width for g in groups):
        raise DimensionMismatch("vec_rows: groups differ in size")
    return _new(len(groups), width, *_concat([m for g in groups for m in g]))


# ---------------------------------------------------------------------------
# Fraction-free elimination over the Gaussian integers
# ---------------------------------------------------------------------------

def _eliminate(re, im, cols):
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    Row k of the input is re[k] + i*im[k], with int entries; im is None
    for a real input, and the imaginary half is then skipped.  Pivots
    are sought in the first cols columns.  Returns (den, pivots), den a
    Gaussian integer (re, im): afterwards row k divided by den is row k
    of the reduced row echelon form, and the rows from len(pivots) on
    are zero.  Each step brings every other row to the new pivot a and
    divides exactly by the previous pivot d, so the entries stay minors
    of the input.  A row swap negates the row it displaces, so for a
    square invertible input den is its determinant.
    """
    nrows = len(re)
    real = im is None
    pivots = []
    dr, di = 1, 0
    for c in range(cols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((k for k in range(r, nrows)
                  if re[k][c] or not real and im[k][c]), None)
        if p is None:
            continue
        if p != r:
            re[r], re[p] = re[p], [-x for x in re[r]]
            if not real:
                im[r], im[p] = im[p], [-x for x in im[r]]
        yr = re[r]
        ar = yr[c]
        if real:
            for k in range(nrows):
                xr = re[k]
                fr = xr[c]
                if k == r or not fr and ar == dr:
                    continue
                sr = [ar * u - fr * s for u, s in zip(xr, yr)]
                re[k] = [u // dr for u in sr] if dr != 1 else sr
            pivots.append(c)
            dr = ar
            continue
        yi = im[r]
        ai = yi[c]
        n = dr * dr + di * di
        for k in range(nrows):
            xr, xi = re[k], im[k]
            fr, fi = xr[c], xi[c]
            if k == r or not (fr or fi) and ar == dr and ai == di:
                continue
            # a*x - f*y, then an exact division by d
            sr = [ar * u - ai * v - fr * s + fi * t
                  for u, v, s, t in zip(xr, xi, yr, yi)]
            si = [ar * v + ai * u - fr * t - fi * s
                  for u, v, s, t in zip(xr, xi, yr, yi)]
            if di:
                re[k] = [(u * dr + v * di) // n for u, v in zip(sr, si)]
                im[k] = [(v * dr - u * di) // n for u, v in zip(sr, si)]
            elif dr != 1:
                re[k] = [u // dr for u in sr]
                im[k] = [v // dr for v in si]
            else:
                re[k], im[k] = sr, si
        pivots.append(c)
        dr, di = ar, ai
    return (dr, di), pivots


def _kernel(rows, pivots, cols):
    """Right nullspace basis of a matrix from its reduced echelon form.

    rows are the reduced rows, possibly with more columns after the
    first cols, and pivots the pivot columns below cols.  One vector per
    free column, in column order.
    """
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def combination_ranks(mats, tuples, base=None):
    """Yield (t, rank(base + sum_j t[j] * mats[j])) for each int tuple t.

    The numerators are brought to one common denominator D once; since
    rank(D * M) = rank(M), each combination is formed in Gaussian
    integers and ranked by the elimination kernel, with no Scalar built
    per tuple.  base defaults to the zero matrix.
    """
    terms = list(mats) if base is None else [base, *mats]
    rows, cols = terms[0].rows, terms[0].cols
    den = math.lcm(*(m.den for m in terms))
    real = not any(any(m.im) for m in terms)
    flat = [([x * (den // m.den) for x in m.re],
             None if real else [x * (den // m.den) for x in m.im])
            for m in terms]
    zero = [0] * (rows * cols)
    start = (zero, None if real else zero) if base is None else flat.pop(0)
    for t in tuples:
        acc_re, acc_im = start
        for c, (mr, mi) in zip(t, flat):
            if c:
                acc_re = [a + c * b for a, b in zip(acc_re, mr)]
                if not real:
                    acc_im = [a + c * b for a, b in zip(acc_im, mi)]
        _, pivots = _eliminate(
            [acc_re[k * cols:(k + 1) * cols] for k in range(rows)],
            None if real else
            [acc_im[k * cols:(k + 1) * cols] for k in range(rows)], cols)
        yield t, len(pivots)


def poly_eval(coeffs, x: Scalar) -> Scalar:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs, root: Scalar):
    """Divide by (x - root); constant-first coeffs.

    root must be an exact root; CheckFailed otherwise.
    """
    n = len(coeffs) - 1
    out = [ZERO] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    if not acc.is_zero():
        raise CheckFailed(f"{root} is not a root")
    return out


# ---------------------------------------------------------------------------
# Jordan structure
# ---------------------------------------------------------------------------

def jordan_block(lam: Scalar, n: int) -> Matrix:
    return Matrix.from_rows(
        [[lam if i == j else (ONE if j == i + 1 else ZERO)
          for j in range(n)] for i in range(n)])


def jordan_matrix(blocks) -> Matrix:
    """The direct sum of the Jordan blocks J_size(lam) of [(lam, size)]."""
    return Matrix.block_diag([jordan_block(lam, n) for lam, n in blocks])


def eigenvalues_in_field(m: Matrix, hints=None):
    """All eigenvalues of m as Gaussian rationals, with multiplicity.

    Hints are candidate eigenvalues verified by exact substitution and
    deflation.  The roots of the rest come from _field_roots; any
    irreducible factor of degree > 1 over the Gaussian rationals aborts
    with NotInField.  Result is sorted ascending in the Scalar total
    order.
    """
    coeffs = list(m.char_poly())
    roots = []
    for h in dict.fromkeys(hints or []):
        h = _coerce(h)
        while len(coeffs) > 1 and poly_eval(coeffs, h).is_zero():
            coeffs = poly_deflate(coeffs, h)
            roots.append(h)
    if len(coeffs) > 1:
        found, residual = _field_roots(coeffs)
        if residual is not None:
            raise NotInField(
                "characteristic polynomial has an irreducible factor of "
                f"degree {len(residual) - 1} over the Gaussian rationals",
                residual=residual)
        roots.extend(found)
    return sorted(roots, key=Scalar.sort_key)


def _field_roots(coeffs):
    """Roots in Q(i) of an exact polynomial F, read from its norm over Q.

    Returns (roots, residual); residual is None when F splits completely,
    else the first irreducible non-linear factor of what is left after
    the roots are divided out, as sympy orders the factors over QQ_I.

    Write F = A + iB with A, B in Q[x].  Its norm N is A when B = 0 and
    A^2 + B^2 = F * conj(F) otherwise; either way N lies in Q[x] and is
    factored over Q (Trager, SYMSAC 1976).  Every root of F in Q(i) is a
    candidate read from that factorisation: a root r = a + bi of F makes
    conj(r) a root of conj(F), so (x - r)(x - conj(r)) divides N.  For
    b = 0 that is (x - a)^2, and x - a is a linear factor of N; for
    b != 0 it is x^2 - 2ax + a^2 + b^2, irreducible over Q, so up to a
    constant it is a quadratic factor c2 x^2 + c1 x + c0 of N, and
    q = 4 c2 c0 - c1^2 = 4 c2^2 b^2 is a positive rational square, which
    gives back a +- bi = (-c1 +- i sqrt(q)) / (2 c2).  No candidate is
    trusted: each is tested by exact substitution and divided out as
    often as it is a root.  Whatever is left has no root in Q(i), and
    only then is it factored over QQ_I, to name the residual factor; a
    linear factor there is a root the candidates missed, CheckFailed.
    """
    rem = list(coeffs)
    roots = []
    for r in _norm_candidates(coeffs):
        while len(rem) > 1 and poly_eval(rem, r).is_zero():
            rem = poly_deflate(rem, r)
            roots.append(r)
    if len(rem) == 1:
        return roots, None
    import sympy
    from sympy.polys.domains import QQ_I

    poly = sympy.Poly([scalar_to_qqi(c) for c in reversed(rem)],
                      sympy.Symbol("x"), domain=QQ_I)
    # sympy lists the factors by degree, so a linear one comes first
    first = poly.factor_list()[1][0][0].rep.to_list()
    if len(first) == 2:
        raise CheckFailed(
            f"{scalar_from_qqi(-first[1] / first[0])} is a root in Q(i) "
            "that the norm over Q did not give")
    return roots, tuple(scalar_from_qqi(c) for c in reversed(first))


def _norm_candidates(coeffs):
    """The candidate roots in Q(i) of F from its norm N (see _field_roots).

    A linear factor of N gives its root; a quadratic c2 x^2 + c1 x + c0
    with q = 4 c2 c0 - c1^2 a positive rational square gives the pair
    (-c1 +- i sqrt(q)) / (2 c2); other factors give none.
    """
    import sympy
    from sympy.polys.domains import QQ

    def part(values):
        return sympy.Poly([QQ(v.numerator, v.denominator)
                           for v in reversed(values)],
                          sympy.Symbol("x"), domain=QQ)

    norm = part([c.re for c in coeffs])
    if any(c.im for c in coeffs):
        norm = norm ** 2 + part([c.im for c in coeffs]) ** 2
    out = []
    for factor, _ in norm.factor_list()[1]:
        cs = [Fraction(int(c.numerator), int(c.denominator))
              for c in factor.rep.to_list()]
        if len(cs) == 2:
            out.append(Scalar(-cs[1] / cs[0], Fraction(0)))
        elif len(cs) == 3:
            c2, c1, c0 = cs
            q = 4 * c2 * c0 - c1 * c1
            if q <= 0:
                continue
            num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if num * num == q.numerator and den * den == q.denominator:
                re, im = -c1 / (2 * c2), Fraction(num, den) / (2 * c2)
                out.extend([Scalar(re, im), Scalar(re, -im)])
    return out


def scalar_to_qqi(s: Scalar):
    """s as an element of sympy's domain QQ_I."""
    from sympy.polys.domains import QQ_I

    return QQ_I(s.re, s.im)


def scalar_from_qqi(g) -> Scalar:
    """The Scalar of an element of sympy's domain QQ_I."""
    return Scalar(Fraction(int(g.x.numerator), int(g.x.denominator)),
                  Fraction(int(g.y.numerator), int(g.y.denominator)))


def scalar_from_expr(expr) -> Scalar:
    """The Gaussian rational value of a sympy expression.

    NotInField unless its real and imaginary parts are Rational once it
    is cancelled and expanded.
    """
    import sympy

    re, im = sympy.expand(sympy.cancel(expr)).as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise NotInField(f"not a Gaussian rational: {expr}")
    return Scalar(Fraction(int(re.p), int(re.q)),
                  Fraction(int(im.p), int(im.q)))


def jordan_decompose(m: Matrix, hints=None):
    """Exact Jordan decomposition with similarity witness.

    Returns (s, blocks) with s invertible and s^-1 @ m @ s equal to
    jordan_matrix(blocks) exactly.  blocks is a tuple of (eigenvalue,
    size) pairs in the normal order: eigenvalues ascending in the Scalar
    total order, and the blocks of one eigenvalue largest first.  Chain
    vectors are chosen by lowest-index pivots so the output is
    deterministic.
    The chain tops of height k are the kernel vectors of (m - lam)^k that
    are pivot columns after the kernel of (m - lam)^(k-1) and the images
    of the longer chains, so each one lies outside the span of all the
    vectors before it.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("jordan_decompose of non-square matrix")
    n = m.rows
    eigs = eigenvalues_in_field(m, hints)
    mults = []
    for lam in eigs:
        if mults and mults[-1][0] == lam:
            mults[-1][1] += 1
        else:
            mults.append([lam, 1])
    columns = []
    blocks = []
    for lam, mult in mults:
        e = Matrix.identity(n)
        b = m - e.scale(lam)
        powers = [e, b]
        nulls = [[], _kernel_columns(b)]
        while len(nulls[-1]) < mult:
            powers.append(b @ powers[-1])
            nulls.append(_kernel_columns(powers[-1]))
        top = len(nulls) - 1
        chains = []  # (top vector, height), heights non-increasing
        for k in range(top, 0, -1):
            known = nulls[k - 1] + [powers[h - k] @ v for v, h in chains]
            _, pivots = _beside(known + nulls[k]).rref()
            chains.extend((nulls[k][p - len(known)], k)
                          for p in pivots if p >= len(known))
        for v, h in chains:
            for j in range(h - 1, -1, -1):
                columns.append(powers[j] @ v)
            blocks.append((lam, h))
    s = Matrix.from_columns([c.entries for c in columns])
    if blocks != sorted(blocks, key=lambda b: (b[0].sort_key(), -b[1])):
        raise CheckFailed(f"Jordan blocks out of the normal order: {blocks}")
    if s.rank() != n or m @ s != s @ jordan_matrix(blocks):
        raise CheckFailed("s is not a Jordan basis of m")
    return s, tuple(blocks)


def _kernel_columns(m: Matrix):
    """The nullspace basis of m as n x 1 matrices."""
    return [Matrix(m.cols, 1, v) for v in m.nullspace()]


def _beside(columns) -> Matrix:
    """The matrix whose columns are the n x 1 matrices of columns."""
    return vec_rows([c] for c in columns).transpose()


def commutant_basis(blocks):
    """Explicit basis of {M : [M, J] = 0} for J = jordan_matrix(blocks).

    One Toeplitz band family per ordered pair of blocks with equal
    eigenvalue: for an n_i x n_j intertwining block the allowed diagonal
    offsets are max(0, n_j - n_i) .. n_j - 1, giving min(n_i, n_j) basis
    elements; nothing couples distinct eigenvalues.
    """
    sizes = [size for _, size in blocks]
    offsets = [sum(sizes[:k]) for k in range(len(sizes))]
    dim = sum(sizes)
    basis = []
    for bi, (lam_i, ni) in enumerate(blocks):
        for bj, (lam_j, nj) in enumerate(blocks):
            if lam_i != lam_j:
                continue
            for d in range(max(0, nj - ni), nj):
                rows = [[ZERO] * dim for _ in range(dim)]
                for r in range(ni):
                    c = r + d
                    if c < nj:
                        rows[offsets[bi] + r][offsets[bj] + c] = ONE
                basis.append(Matrix.from_rows(rows))
    return basis
