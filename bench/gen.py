"""The benchmark's own exact arithmetic and seeded input generators.

Scalars are sympy Gaussian rationals (``QQ_I`` elements) drawn from
``fractions.Fraction`` values; matrices are lists of rows, handed to
sympy's ``DomainMatrix`` for products, ranks, inverses and
characteristic polynomials.  Truncated power series (the closed-form
action of the symmetry group on one Jordan block) are plain lists.

Nothing here imports ``sloccanon``: what is generated, and the values
the checks compare against, cannot move with a change to the program.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

ZERO = QQ_I.zero
ONE = QQ_I.one


class Degenerate(Exception):
    """A drawn group element is not admissible for the form it acts on."""


# ---------------------------------------------------------------------------
# Scalars and their JSON encoding
# ---------------------------------------------------------------------------

def gq(re, im=0):
    return QQ_I(QQ(Fraction(re)), QQ(Fraction(im)))


def _frac(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def parts(s):
    return _frac(s.x), _frac(s.y)


def key(s):
    """The (re, im) total order the file formats sort eigenvalues by."""
    return parts(s)


def to_json(s):
    re, im = parts(s)
    return str(re) if im == 0 else {"re": str(re), "im": str(im)}


def to_literal(s) -> str:
    """The command-line form: "-1/2", "1/2+3i", "0-1i"."""
    re, im = parts(s)
    return str(re) if im == 0 else f"{re}{'' if im < 0 else '+'}{im}i"


def from_json(v):
    if isinstance(v, dict):
        if set(v) - {"re", "im"}:
            raise ValueError(f"bad scalar {v!r}")
        return gq(Fraction(v.get("re", "0")), Fraction(v.get("im", "0")))
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ValueError(f"bad scalar {v!r}")
    return gq(Fraction(v))


def rand_scalar(rng: random.Random, num=5, den=3, imag=False,
                nonzero=False):
    """A small rational; with imag, a nonzero imaginary part as well.

    Whether a value is complex is fixed by the caller, not drawn: one
    complex entry makes the program's whole computation complex and
    several times slower, so a drawn share would make a run's timing
    depend on how many came up.
    """
    while True:
        re = Fraction(rng.randint(-num, num), rng.randint(1, den))
        im = Fraction(rng.choice([-1, 1]) * rng.randint(1, num),
                      rng.randint(1, den)) if imag else 0
        s = gq(re, im)
        if s or not nonzero:
            return s


def distinct_scalars(rng: random.Random, count: int, n_complex=0):
    out = []
    while len(out) < count:
        s = rand_scalar(rng, num=6, den=2, imag=len(out) < n_complex)
        if s not in out:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def dm(rows) -> DomainMatrix:
    n = len(rows)
    return DomainMatrix([list(r) for r in rows],
                        (n, len(rows[0]) if n else 0), QQ_I)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(n):
    return [[ZERO] * n for _ in range(n)]


def add_scaled(terms):
    """sum of c * M over (c, M) pairs of equal-sized matrices."""
    n = len(terms[0][1])
    out = zeros(n)
    for c, m in terms:
        if c:
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * m[i][j]
    return out


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = zeros(n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def rank(rows) -> int:
    return dm(rows).rank() if rows else 0


def charpoly(rows):
    return dm(rows).charpoly() if rows else [ONE]


def rand_invertible(rng: random.Random, n: int):
    """An invertible integer matrix with entries in [-2, 2]."""
    while True:
        m = [[gq(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
        if rank(m) == n:
            return m


def conjugate_state(gammas, p, q):
    """(P G Q for each slot) with P, Q invertible."""
    pd, qd = dm(p), dm(q)
    return [(pd * dm(g) * qd).to_list() for g in gammas]


def apply_t(t, gammas):
    """Slot mixing G'_i = sum_j t[i][j] G_j."""
    return [add_scaled([(t[i][j], gammas[j]) for j in range(len(gammas))])
            for i in range(len(t))]


# ---------------------------------------------------------------------------
# Canonical forms: runs of (lam, sizes, grid), grid[i][j] a coefficient
# list of length sizes[0] obeying the band support rule
# ---------------------------------------------------------------------------

def support(ni, nj):
    return range(max(0, nj - ni), nj)


def nonderogatory(blocks):
    """Form from [(lam, coeffs)], one block per eigenvalue."""
    return normalize([(lam, (len(cs),), ((tuple(cs),),))
                      for lam, cs in blocks])


def normalize(form):
    return sorted(((lam, tuple(sizes), tuple(tuple(tuple(e) for e in row)
                                               for row in grid))
                   for lam, sizes, grid in form), key=lambda r: key(r[0]))


def block_list(form):
    """[(lam, size)] in the order the program prints Jordan blocks."""
    return [(lam, s) for lam, sizes, _ in normalize(form) for s in sizes]


def diag_constants(form):
    """[(lam, size, a0)] per Jordan block, a0 the constant of A there."""
    return [(lam, s, grid[i][i][0]) for lam, sizes, grid in form
            for i, s in enumerate(sizes)]


def assemble(form):
    """Explicit (J, A) of a form."""
    jb, ab = [], []
    for lam, sizes, grid in form:
        dim = sum(sizes)
        offs = [sum(sizes[:k]) for k in range(len(sizes))]
        j, a = zeros(dim), zeros(dim)
        for bi, ni in enumerate(sizes):
            for r in range(ni):
                j[offs[bi] + r][offs[bi] + r] = lam
                if r + 1 < ni:
                    j[offs[bi] + r][offs[bi] + r + 1] = ONE
            for bj, nj in enumerate(sizes):
                coeffs = grid[bi][bj]
                for r in range(ni):
                    for c in range(nj):
                        if c >= r:
                            a[offs[bi] + r][offs[bj] + c] = coeffs[c - r]
        jb.append(j)
        ab.append(a)
    return block_diag(jb), block_diag(ab)


def form_to_json(form):
    blocks = []
    for lam, sizes, grid in form:
        if len(sizes) == 1:
            blocks.append({"lambda": to_json(lam), "size": sizes[0],
                           "coeffs": [to_json(c) for c in grid[0][0]]})
        else:
            blocks.append({"lambda": to_json(lam), "sizes": list(sizes),
                           "grid": [[[to_json(c) for c in e] for e in row]
                                    for row in grid]})
    return {"blocks": blocks}


def form_from_json(obj):
    form = []
    for blk in obj["blocks"]:
        lam = from_json(blk["lambda"])
        if "coeffs" in blk:
            form.append((lam, (int(blk["size"]),),
                         (([from_json(c) for c in blk["coeffs"]],),)))
        else:
            form.append((lam, tuple(int(s) for s in blk["sizes"]),
                         [[[from_json(c) for c in e] for e in row]
                          for row in blk["grid"]]))
    return normalize(form)


def state_to_json(gammas):
    n = len(gammas[0])
    return {"L": len(gammas), "N": n,
            "gammas": [[[to_json(v) for v in row] for row in g]
                       for g in gammas]}


# ---------------------------------------------------------------------------
# Truncated power series modulo x**n and the block action of the group
# ---------------------------------------------------------------------------

def s_mul(f, g):
    n = len(f)
    out = [ZERO] * n
    for i, a in enumerate(f):
        if a:
            for j in range(n - i):
                out[i + j] += a * g[j]
    return out


def s_recip(f):
    if not f[0]:
        raise Degenerate("constant term vanishes")
    n = len(f)
    inv0 = ONE / f[0]
    out = [inv0] + [ZERO] * (n - 1)
    for m in range(1, n):
        acc = ZERO
        for k in range(1, m + 1):
            acc += f[k] * out[m - k]
        out[m] = -inv0 * acc
    return out


def s_compose(f, g):
    """f(g(x)); g has zero constant term."""
    acc = [ZERO] * len(f)
    for c in reversed(f):
        acc = s_mul(acc, g)
        acc[0] += c
    return acc


def s_inverse(h):
    """r with h(r(x)) = x for h = h1 x + h2 x**2 + ..., h1 != 0.

    Fixed-point iteration r <- r - (h(r) - x) / h1, exact after n steps
    since each step fixes one more coefficient.
    """
    n = len(h)
    if n == 1:
        return [ZERO]
    if not h[1]:
        raise Degenerate("linear coefficient vanishes")
    inv1 = ONE / h[1]
    r = [ZERO] * n
    r[1] = inv1
    for _ in range(n - 2):
        hr = s_compose(h, r)
        hr[1] -= ONE
        r = [a - inv1 * b for a, b in zip(r, hr)]
    return r


def t_matrix(z1, z2, z3, d2, d3):
    return [[ONE, z1 * d2, (z2 + z1 * z3) * d3],
            [ZERO, d2, z3 * d3],
            [ZERO, ZERO, d3]]


def block_image(lam, f, t):
    """Image (lam', f') of one Jordan block (lam, f) under T."""
    n = len(f)
    p = [lam] + [ONE if k == 1 else ZERO for k in range(1, n)]
    g1 = [t[0][1] * p[k] + t[0][2] * f[k] for k in range(n)]
    g1[0] += t[0][0]
    r1 = s_recip(g1)
    hj = s_mul([t[1][1] * p[k] + t[1][2] * f[k] for k in range(n)], r1)
    ha = s_mul([t[2][2] * c for c in f], r1)
    rev = s_inverse([ZERO] + hj[1:])
    return hj[0], s_compose(ha, rev)


def predicted_constants(lam, a0, t):
    """(lam', a0') of a block: the closed form's constant terms."""
    den = t[0][0] + t[0][1] * lam + t[0][2] * a0
    if not den:
        raise Degenerate("first slot loses rank")
    return (t[1][1] * lam + t[1][2] * a0) / den, t[2][2] * a0 / den


def image_form(form, t):
    """Image of a nonderogatory form whose eigenvalues stay distinct."""
    out = [block_image(lam, grid[0][0], t) for lam, _, grid in form]
    if len({key(lam) for lam, _ in out}) < len(out):
        raise Degenerate("eigenvalues merge")
    return nonderogatory(out)


# ---------------------------------------------------------------------------
# Random canonical forms
# ---------------------------------------------------------------------------

def rand_nonderogatory(rng, sizes, complex_=False, zero_a0=None,
                       nonzero_a0=False):
    """Distinct eigenvalues, the first one complex when complex_ is set;
    block zero_a0 (an index) gets a0 = 0, and nonzero_a0 keeps the other
    blocks' a0 away from 0."""
    lams = distinct_scalars(rng, len(sizes), n_complex=int(complex_))
    blocks = []
    for k, (lam, n) in enumerate(zip(lams, sizes)):
        cs = [rand_scalar(rng, nonzero=nonzero_a0 and i == 0)
              for i in range(n)]
        if k == zero_a0:
            cs[0] = ZERO
        blocks.append((lam, cs))
    return nonderogatory(blocks)


def rand_derogatory(rng, pattern):
    """pattern: tuple of runs, each a non-increasing tuple of sizes.

    Off-diagonal grid entries are drawn nonzero on their band support,
    except degree-0 couplings between equal-size blocks, which would
    take A's spectrum out of the Gaussian rationals.
    """
    lams = distinct_scalars(rng, len(pattern))
    form = []
    for lam, sizes in zip(lams, pattern):
        n1 = sizes[0]
        grid = []
        for i, ni in enumerate(sizes):
            row = []
            for j, nj in enumerate(sizes):
                cs = [ZERO] * n1
                for k in support(ni, nj):
                    if not (k == 0 and i != j and ni == nj):
                        cs[k] = rand_scalar(rng, nonzero=i != j)
                row.append(cs)
            grid.append(row)
        form.append((lam, tuple(sizes), grid))
    return normalize(form)


def rand_params(rng, z2z3=True):
    """(z1, z2, z3, d2, d3), all real."""
    vals = [rand_scalar(rng, num=3, den=2) for _ in range(3)]
    if not z2z3:
        vals[1] = vals[2] = ZERO
    d2 = rand_scalar(rng, num=3, den=2, nonzero=True)
    d3 = rand_scalar(rng, num=3, den=2, nonzero=True)
    return tuple(vals) + (d2, d3)


def merging_params(rng, form):
    """Parameters under which the first two blocks' eigenvalues merge.

    With z1, z3, d2, d3 drawn, the merge condition is linear in
    c = t13 = (z2 + z1 z3) d3, which is solved for and turned into z2.
    """
    (l1, _, g1), (l2, _, g2) = form[0], form[1]
    a1, a2 = g1[0][0][0], g2[0][0][0]
    for _ in range(20):
        z1, _, z3, d2, d3 = rand_params(rng)
        t12, t23 = z1 * d2, z3 * d3
        n1, n2 = d2 * l1 + t23 * a1, d2 * l2 + t23 * a2
        den = n1 * a2 - n2 * a1
        if not den:
            continue
        c = (n2 * (ONE + t12 * l1) - n1 * (ONE + t12 * l2)) / den
        return (z1, c / d3 - z1 * z3, z3, d2, d3)
    # with a0 = 0 on both blocks no group element merges them
    raise Degenerate("the blocks cannot merge")
