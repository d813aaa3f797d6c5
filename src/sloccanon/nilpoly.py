"""Truncated polynomial algebra in a nilpotent variable.

All arithmetic is modulo x**order, where x stands for the n x n shift
matrix J_n(0).  This is the computational engine behind the parametric
symmetry maps: reciprocals, composition, and shifted compositional
inversion are all exact triangular solves.

The series operations (mul, reciprocal, compose, shifted_reversion) are
generic over the coefficient field, which is one of two:

- the Gaussian rationals, as ``exactmat.Scalar``, for the numeric maps;
- a field of rational functions over them, as elements of
  ``sympy.polys.fields.field(symbols, QQ_I)``, for the symbolic witness
  search in ``symmetry``.

The code tests zero as ``not c``, inverts as ``1 / c`` and takes its zero
and one from the coefficients, so a polynomial over one field stays in
it.  int and Fraction coefficients become Scalars; anything else is a
TypeError.  Field elements are kept in lowest terms, so every division
cancels as it goes, as Scalar arithmetic does.  The matrix helpers below
the series operations work over the Gaussian rationals only.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import (NotInvertible, NotReversible, OrderMismatch,
                     PatternViolation)
from .exactmat import Matrix, Scalar, ZERO, _coerce, jordan_block


def _coefficient(c):
    """c in one of the supported fields; int and Fraction become Scalars.

    A rational-function field element can exist only once sympy's
    ``polys.fields`` is loaded, so it is looked up there and never
    imported here.
    """
    if isinstance(c, Scalar):
        return c
    fields = sys.modules.get("sympy.polys.fields")
    if fields is not None and isinstance(c, fields.FracElement):
        return c
    return _coerce(c)


def _zero(c):
    """The zero of the field that the coefficient c lies in.

    Its one is ``1 + zero``: sympy's ``zero + 1`` returns the int 1, but
    the reflected sum stays in the field.
    """
    return c * 0


@dataclass(frozen=True)
class TruncPoly:
    """Coefficients of x**0 .. x**(order-1); x**order == 0."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(_coefficient(c) for c in self.coeffs)
        if len(coeffs) != self.order or self.order < 1:
            raise OrderMismatch(
                f"need {self.order} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def constant(c, order: int) -> "TruncPoly":
        c = _coefficient(c)
        return TruncPoly(order, (c,) + (_zero(c),) * (order - 1))

    @staticmethod
    def variable(order: int, at=0) -> "TruncPoly":
        """at + x, in the field of at (the Gaussian rationals by default)."""
        at = _coefficient(at)
        if order < 2:
            return TruncPoly.constant(at, order)
        zero = _zero(at)
        return TruncPoly(order, (at, 1 + zero) + (zero,) * (order - 2))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        _check(self, other)
        return TruncPoly(self.order, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        _check(self, other)
        return TruncPoly(self.order, tuple(
            a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncPoly(self.order, tuple(-c for c in self.coeffs))

    def scale(self, s) -> "TruncPoly":
        s = _coefficient(s)
        return TruncPoly(self.order, tuple(s * c for c in self.coeffs))

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})" + ("" if k == 0 else f"*x^{k}"))
        return " + ".join(terms) if terms else "0"


def _check(f: TruncPoly, g: TruncPoly):
    if f.order != g.order:
        raise OrderMismatch(f"orders differ: {f.order} vs {g.order}")


def mul(f: TruncPoly, g: TruncPoly) -> TruncPoly:
    """Cauchy product truncated at the common order."""
    _check(f, g)
    n = f.order
    out = [_zero(f.coeffs[0])] * n
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j in range(n - i):
            b = g.coeffs[j]
            if b:
                out[i + j] = out[i + j] + a * b
    return TruncPoly(n, tuple(out))


def reciprocal(f: TruncPoly) -> TruncPoly:
    """g with mul(f, g) == 1; exact triangular back-substitution."""
    c = f.coeffs
    if not c[0]:
        raise NotInvertible("constant term is zero")
    inv0 = 1 / c[0]
    out = [inv0]
    for m in range(1, f.order):
        acc = c[1] * out[m - 1]
        for k in range(2, m + 1):
            acc = acc + c[k] * out[m - k]
        out.append(-inv0 * acc)
    return TruncPoly(f.order, tuple(out))


def compose(f: TruncPoly, g: TruncPoly) -> TruncPoly:
    """f(g(x)) truncated, by Horner's rule; g may have a nonzero constant."""
    _check(f, g)
    acc = TruncPoly.constant(f.coeffs[-1], f.order)
    for c in reversed(f.coeffs[:-1]):
        acc = mul(acc, g)
        acc = TruncPoly(f.order, (acc.coeffs[0] + c,) + acc.coeffs[1:])
    return acc


def shifted_reversion(f: TruncPoly) -> TruncPoly:
    """Compositional inverse of f around its basepoint.

    Returns g (zero constant term) with compose(g, f - f(0)) == x, i.e.
    g inverts the nilpotent part of f.  Undetermined coefficients, solved
    triangularly: b_k is fixed by the x**k coefficient.
    """
    n = f.order
    zero = _zero(f.coeffs[0])
    h = TruncPoly(n, (zero,) + f.coeffs[1:])
    if n > 1 and not h.coeffs[1]:
        raise NotReversible("linear coefficient is zero")
    out = [zero] * n
    residual = TruncPoly.variable(n, zero)
    hpow = TruncPoly.constant(1 + zero, n)
    for k in range(1, n):
        hpow = mul(hpow, h)
        bk = residual.coeffs[k] / hpow.coeffs[k]
        out[k] = bk
        residual = residual - hpow.scale(bk)
    return TruncPoly(n, tuple(out))


def eval_at_jordan(f: TruncPoly, lam) -> Matrix:
    """f evaluated at the Jordan block J_order(lam).

    For lam == 0 this is the upper-triangular Toeplitz matrix whose first
    row is the coefficient vector.
    """
    lam = _coerce(lam)
    j = jordan_block(lam, f.order)
    acc = Matrix.zero(f.order, f.order)
    for c in reversed(f.coeffs):
        acc = acc @ j + Matrix.identity(f.order).scale(c)
    return acc


def grid_support(ni: int, nj: int):
    """Allowed coefficient degrees of the (i, j) commutant grid entry."""
    return range(max(0, nj - ni), nj)


def grid_entry_ok(f: TruncPoly, ni: int, nj: int) -> bool:
    allowed = set(grid_support(ni, nj))
    return all(c.is_zero() for k, c in enumerate(f.coeffs)
               if k not in allowed)


def check_commutant_grid(entries, sizes):
    """Raise unless entries is a commutant grid over the block sizes.

    sizes must be positive and non-increasing, the grid square over the
    blocks, every entry of order sizes[0] and within its band support.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or sizes[-1] < 1:
        raise PatternViolation("block sizes must be positive")
    if sorted(sizes, reverse=True) != sizes:
        raise PatternViolation("block sizes must be non-increasing")
    l = len(sizes)
    if len(entries) != l or any(len(row) != l for row in entries):
        raise PatternViolation("grid is not square over the blocks")
    for i in range(l):
        for j in range(l):
            f = entries[i][j]
            if f.order != sizes[0]:
                raise OrderMismatch("grid entry order must equal max size")
            if not grid_entry_ok(f, sizes[i], sizes[j]):
                raise PatternViolation(
                    f"grid entry ({i},{j}) violates the band support rule")


def poly_matrix_to_commutant(entries, sizes) -> Matrix:
    """Assemble the commutant matrix from a grid of polynomials.

    The grid must pass check_commutant_grid.  Entry (i, j) is realized as
    f(J_{n1}(0)) keeping the first n_i rows and n_j columns, which forces
    the Toeplitz band pattern and, for n_i < n_j, a minimum degree of
    n_j - n_i.
    """
    check_commutant_grid(entries, sizes)
    sizes = [int(s) for s in sizes]
    n1 = sizes[0]
    l = len(sizes)
    dim = sum(sizes)
    offsets = [sum(sizes[:k]) for k in range(l)]
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(l):
        for j in range(l):
            f = entries[i][j]
            for r in range(sizes[i]):
                for c in range(sizes[j]):
                    k = c - r
                    if 0 <= k < n1:
                        rows[offsets[i] + r][offsets[j] + c] = f.coeffs[k]
    return Matrix.from_rows(rows)
