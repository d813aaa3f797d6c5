"""Canonicalization of L x N x N tensor states under local operations.

A state is a tuple of L square matrices acted on by an invertible triple
(T, P, Q).  The full-rank pipeline reduces the first slot to the
identity and turns the rest into a simultaneous-similarity problem whose
canonical data is a Jordan spectrum plus commutant polynomial classes.
The non-full-rank pipeline splits the state into a full-rank part and an
indecomposable remainder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (CheckFailed, DimensionMismatch, NoSplitFound,
                     NotCommuting, NotFullRank, NotInField, PatternViolation)
from .exactmat import (Matrix, Scalar, ZERO, ONE, _coerce, _kernel,
                       combination_ranks, eigenvalues_in_field,
                       jordan_matrix, jordan_decompose, vec_rows)
from .nilpoly import (TruncPoly, check_commutant_grid,
                      poly_matrix_to_commutant)

# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorState:
    """A tuple of L complex N x N matrices."""

    L: int
    N: int
    gammas: tuple

    def __post_init__(self):
        gammas = tuple(self.gammas)
        if len(gammas) != self.L:
            raise DimensionMismatch("wrong number of slots")
        for g in gammas:
            if (g.rows, g.cols) != (self.N, self.N):
                raise DimensionMismatch("slot is not N x N")
        if all(g.is_zero() for g in gammas):
            raise DimensionMismatch("all slots are zero")
        object.__setattr__(self, "gammas", gammas)


@dataclass(frozen=True)
class ILOTriple:
    """Invertible local operators (T on slots, P and Q on the sides)."""

    t: Matrix
    p: Matrix
    q: Matrix

    def __post_init__(self):
        for name, m in (("t", self.t), ("p", self.p), ("q", self.q)):
            if m.rows != m.cols or m.rank() != m.rows:
                raise DimensionMismatch(f"{name} is not invertible")

    @staticmethod
    def identity(L: int, N: int) -> "ILOTriple":
        return ILOTriple(Matrix.identity(L), Matrix.identity(N),
                         Matrix.identity(N))


@dataclass(frozen=True)
class AClassRun:
    """Commutant data for one equal-eigenvalue run of Jordan blocks.

    grid[i][j] is the polynomial class of the (i, j) intertwining block;
    all entries have order sizes[0] and obey the band support rule
    (checked by check_commutant_grid).
    """

    lam: Scalar
    sizes: tuple
    grid: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "grid",
                           tuple(tuple(row) for row in self.grid))
        check_commutant_grid(self.grid, self.sizes)


@dataclass(frozen=True)
class CanonicalForm:
    """The (E, J, A) canonical triple; E is implicit.

    runs carry J's blocks and the polynomial classes of A, one run per
    eigenvalue.  They are kept in the normal order, eigenvalues ascending
    in the Scalar total order, whatever order they are given in.
    """

    runs: tuple

    def __post_init__(self):
        runs = tuple(sorted(self.runs, key=lambda r: r.lam.sort_key()))
        for first, second in zip(runs, runs[1:]):
            if first.lam == second.lam:
                raise PatternViolation(
                    f"two runs share the eigenvalue {first.lam}")
        object.__setattr__(self, "runs", runs)

    @property
    def blocks(self) -> tuple:
        """J's (eigenvalue, size) blocks in the normal order."""
        return tuple((r.lam, size) for r in self.runs for size in r.sizes)

    @property
    def dim(self) -> int:
        return sum(sum(r.sizes) for r in self.runs)

    def is_derogatory(self) -> bool:
        return any(len(r.sizes) > 1 for r in self.runs)

    def assemble(self):
        """Explicit (J, A) matrices."""
        j = jordan_matrix(self.blocks)
        a = Matrix.block_diag([
            poly_matrix_to_commutant(r.grid, r.sizes) for r in self.runs])
        return j, a

    def assemble_state(self) -> TensorState:
        j, a = self.assemble()
        return TensorState(3, self.dim, (Matrix.identity(self.dim), j, a))

    def block_data(self):
        """Per-block diagonal data [(lam, size, coeffs)] in block order."""
        out = []
        for run in self.runs:
            for i, size in enumerate(run.sizes):
                out.append((run.lam, size, run.grid[i][i].coeffs[:size]))
        return out

    @staticmethod
    def from_blocks(blocks) -> "CanonicalForm":
        """Build a nonderogatory-style form from [(lam, size, coeffs)].

        Blocks sharing an eigenvalue are merged into one run, largest
        first, with zero off-diagonal classes.  Input need not be sorted.
        """
        groups = {}
        for lam, size, cs in blocks:
            lam = _coerce(lam)
            groups.setdefault(lam, []).append(
                (int(size), tuple(map(_coerce, cs))))
        runs = []
        for lam, group in groups.items():
            group.sort(key=lambda b: -b[0])
            n1 = group[0][0]
            grid = [tuple(TruncPoly(n1, cs + (ZERO,) * (n1 - len(cs)))
                          if i == j else TruncPoly.constant(0, n1)
                          for j in range(len(group)))
                    for i, (_, cs) in enumerate(group)]
            runs.append(AClassRun(lam, tuple(size for size, _ in group),
                                  tuple(grid)))
        return CanonicalForm(tuple(runs))


@dataclass(frozen=True)
class PartitionedForm:
    """Non-full-rank decomposition into a full-rank part and a remainder.

    gamma_part are the n x n full-rank-side matrices, beta_part the
    m x m remainder, lambda_prime the diag(I_{m-i}, 0_i) projector left
    in the remainder's first slot.
    """

    n: int
    m: int
    i: int
    gamma_part: tuple
    beta_part: tuple
    lambda_prime: Matrix

    def __post_init__(self):
        if self.m <= self.i:
            raise PatternViolation("remainder size must exceed deficiency")
        if all(b.is_zero() for b in self.beta_part):
            raise PatternViolation("remainder slots are all zero")
        object.__setattr__(self, "gamma_part", tuple(self.gamma_part))
        object.__setattr__(self, "beta_part", tuple(self.beta_part))


# ---------------------------------------------------------------------------
# ILO action and rank search
# ---------------------------------------------------------------------------

def apply_ilo(psi: TensorState, ops: ILOTriple) -> TensorState:
    if ops.t.rows != psi.L or ops.p.rows != psi.N or ops.q.rows != psi.N:
        raise DimensionMismatch("operator dimensions do not match the state")
    return TensorState(psi.L, psi.N,
                       _mix(ops.t, [ops.p @ g @ ops.q for g in psi.gammas]))


def _mix(t: Matrix, gammas):
    """The slots mixed by T: slot i is sum_j t[i, j] * gammas[j]."""
    out = []
    for i in range(t.rows):
        acc = Matrix.zero(gammas[0].rows, gammas[0].cols)
        for j, g in enumerate(gammas):
            tij = t[i, j]
            if not tij.is_zero():
                acc = acc + g.scale(tij)
        out.append(acc)
    return tuple(out)


def _coefficient_sweep(L: int, size: int):
    """(1, 0, ..., 0), then the grid S^L in product order.

    S is the first max(5, size) of 0, 1, -1, 2, -2, ...; the zero tuple
    and a repeat of the first are skipped.  The grid certifies a rank:
    each (r+1)-minor of base + sum t_j M_j has degree <= r + 1 in each
    t_j, so if it vanishes on S^L with |S| >= r + 2 it vanishes
    identically (Alon's Combinatorial Nullstellensatz).
    """
    first = (1,) + (0,) * (L - 1)
    yield first
    values = [(k + 1) // 2 * (1 if k % 2 else -1)
              for k in range(max(5, size))]
    for t in itertools.product(values, repeat=L):
        if any(t) and t != first:
            yield t


def max_rank_combination(psi: TensorState):
    """Coefficients t with rank(sum t_j Gamma_j) maximal, certified.

    The maximum r* is taken over {1} x S^(L-1) first.  Rank is invariant
    under scaling t, so the generic rank is that of the tuples with
    t_1 = 1, whose (r+1)-minors still have degree <= r + 1 in each other
    t_j; for r* < N the grid, of size N + 1 >= r* + 2, certifies it (see
    _coefficient_sweep).  The result is the first tuple of the sweep to
    reach r*, i.e. the sweep's first maximiser; no tuple is ranked twice.
    """
    sweep = list(_coefficient_sweep(psi.L, psi.N + 1))
    known = {}
    for t, r in combination_ranks(psi.gammas,
                                  (t for t in sweep if t[0] == 1)):
        known[t] = r
        if r == psi.N:
            break
    target = max(known.values())
    fresh = combination_ranks(psi.gammas,
                              (t for t in sweep if t not in known))
    for t in sweep:
        r = known[t] if t in known else next(fresh)[1]
        if r == target:
            return tuple(_coerce(c) for c in t), r


def _completion_matrix(t):
    """Invertible matrix with first row t (t nonzero); checked exactly."""
    L = len(t)
    t = [_coerce(c) for c in t]
    pivot = next(i for i, c in enumerate(t) if not c.is_zero())
    rows = [t]
    for k in range(L):
        if k != pivot:
            rows.append([ONE if j == k else ZERO for j in range(L)])
    tmat = Matrix.from_rows(rows)
    if tmat.rank() != L:
        raise CheckFailed("slot-mixing matrix is singular")
    return tmat


def full_rank_reduce(psi: TensorState, *, sweep=None) -> TensorState:
    """Bring the first slot to the exact identity.

    T mixes a maximum-rank combination into slot one, then P is its
    inverse and Q stays the identity; the remaining slots are multiplied
    by that inverse on the left.  sweep is the (t, r) that
    max_rank_combination(psi) returns, computed here when not given.
    """
    t, r = sweep or max_rank_combination(psi)
    if r < psi.N:
        raise NotFullRank(f"maximum attained rank {r} < {psi.N}")
    mixed = _mix(_completion_matrix(t), psi.gammas)
    p = mixed[0].inverse()
    # p is mixed[0]'s exact inverse, so p @ mixed[0] is the identity
    return TensorState(psi.L, psi.N, (Matrix.identity(psi.N),)
                       + tuple(p @ g for g in mixed[1:]))


# ---------------------------------------------------------------------------
# Commuting-pair canonical form
# ---------------------------------------------------------------------------

def commuting_pair_canonical(a2: Matrix, a3: Matrix, hints=None):
    """Simultaneous canonical form (J, A) of a commuting pair.

    Returns (cf, witness) with witness^-1 @ a2 @ witness the Jordan
    matrix and witness^-1 @ a3 @ witness the assembled commutant matrix,
    both exact.
    """
    if a2.rows != a2.cols or (a2.rows, a2.cols) != (a3.rows, a3.cols):
        raise DimensionMismatch("pair must be square and equally sized")
    if not (a2 @ a3 - a3 @ a2).is_zero():
        raise NotCommuting("slots two and three do not commute")
    s, blocks = jordan_decompose(a2, hints)
    b = s.inverse() @ a3 @ s
    runs, offset = [], 0
    for lam, run in itertools.groupby(blocks, key=lambda blk: blk[0]):
        sizes = tuple(size for _, size in run)
        # block (i, j) of the run starts at row starts[i], column starts[j]
        starts = [offset + sum(sizes[:k]) for k in range(len(sizes))]
        grid = [[TruncPoly(sizes[0], tuple(
                    b[si, sj + k] if k < nj else ZERO
                    for k in range(sizes[0])))
                 for sj, nj in zip(starts, sizes)] for si in starts]
        runs.append(AClassRun(lam, sizes, grid))
        offset += sum(sizes)
    cf = CanonicalForm(tuple(runs))
    _, a_check = cf.assemble()
    if a_check != b:
        raise PatternViolation(
            "conjugated third slot does not match the commutant pattern")
    return cf, s


# ---------------------------------------------------------------------------
# Non-full-rank splitting
# ---------------------------------------------------------------------------

def rank_normal_form(m: Matrix):
    """(p, q, r) invertible with p @ m @ q == diag(I_r, 0)."""
    n_rows, n_cols = m.rows, m.cols
    red, aug_pivots = m.augment(Matrix.identity(n_rows)).rref()
    p = Matrix.from_rows([r[n_cols:] for r in red])
    # x = p @ m, the first n_cols columns of red, is the reduced echelon
    # form of m: its pivots are those of [m | I] that fall in m's columns
    pivots = [c for c in aug_pivots if c < n_cols]
    r = len(pivots)
    # x takes the unit vector at its k-th pivot to e_k and its nullspace
    # to zero, so x @ q = diag(I_r, 0)
    q = Matrix.from_columns(
        [[ONE if i == c else ZERO for i in range(n_cols)] for c in pivots]
        + _kernel(red, pivots, n_cols))
    expected = Matrix.from_rows([[ONE if (i == j and i < r) else ZERO
                                  for j in range(n_cols)]
                                 for i in range(n_rows)])
    if p @ m @ q != expected:
        raise CheckFailed("p m q differs from diag(I_r, 0)")
    return p, q, r


def _endomorphism_basis(mats):
    """Basis of pairs (R, C) with R @ M == M @ C for every M."""
    r_dim, c_dim = mats[0].rows, mats[0].cols
    nr, nc = r_dim * r_dim, c_dim * c_dim
    rows = []
    for m in mats:
        for a in range(r_dim):
            for b in range(c_dim):
                row = [ZERO] * (nr + nc)
                for k in range(r_dim):
                    row[a * r_dim + k] = row[a * r_dim + k] + m[k, b]
                for k in range(c_dim):
                    row[nr + k * c_dim + b] = row[nr + k * c_dim + b] - m[a, k]
                rows.append(row)
    null = Matrix.from_rows(rows).nullspace() if rows else []
    basis = []
    for v in null:
        rmat = Matrix.from_rows([[v[i * r_dim + k] for k in range(r_dim)]
                                 for i in range(r_dim)])
        cmat = Matrix.from_rows([[v[nr + i * c_dim + k] for k in range(c_dim)]
                                 for i in range(c_dim)])
        basis.append((rmat, cmat))
    return basis


def _column_space(m: Matrix):
    """Deterministic basis (list of column vectors) of the column space."""
    _, pivots = m.rref()
    return [m.column(j) for j in pivots]


def _trace_pairing(basis, others) -> Matrix:
    """G_ab = tr(R_a R'_b) + tr(C_a C'_b); tr(XY) = vec(X).vec(Y^T)."""
    right = vec_rows([(r.transpose(), c.transpose()) for r, c in others])
    return vec_rows(basis) @ right.transpose()


def _trace_form_rank(basis) -> int:
    """Rank of the trace form of the basis with itself."""
    return _trace_pairing(basis, basis).rank()


def _split_piece(piece):
    """Split a piece (its list of matrices) into two, or return None.

    In characteristic 0 the radical of the endomorphism algebra E is the
    kernel of its trace form G (Dickson), so rank G = dim E/rad E; at
    most 1 means E is local and the piece indecomposable.  Otherwise the
    basis is tried in order: at the smallest eigenvalue of the first
    side with two distinct eigenvalues in Q(i), the Fitting pair is an
    idempotent endomorphism, nontrivial on that side, so it splits.  If
    no element has such a side, one whose two sides have different
    eigenvalues has Fitting pair (I, 0), so every matrix is zero; else
    each element x has one eigenvalue, tr_j(x)/k_j on every simple factor
    M_{k_j} of E/rad E, which a central idempotent rules out for two
    factors: the piece is homogeneous, S^k.  In both cases its summands
    are all full-rank squares or none are, so leaving it whole keeps
    (n, m, i).  A side whose spectrum leaves Q(i) is skipped.  If that
    leaves no split, the centre of E/rad E decides: one-dimensional, the
    piece is homogeneous and stays whole; else the central elements are
    tried the same way, and NoSplitFound is raised if they find no split
    while a spectrum of theirs leaves Q(i).
    """
    basis = _endomorphism_basis(piece)
    if len(basis) <= 1:
        return None
    rank = _trace_form_rank(basis)
    if rank <= 1:
        return None
    parts, unknown = _split_by_spectrum(piece, basis)
    if parts is None and unknown:
        centre = _centre_mod_radical(basis)
        if len(centre) - (len(basis) - rank) <= 1:
            return None
        parts, unknown = _split_by_spectrum(piece, centre)
        if parts is None and unknown:
            raise NoSplitFound(
                "endomorphism spectrum leaves the Gaussian rationals")
    return parts


def _split_by_spectrum(piece, elements):
    """(parts, unknown): the split at the first element with a side of
    two distinct eigenvalues in Q(i), or None; unknown is whether a
    side's spectrum left Q(i) before that."""
    unknown = False
    for rmat, cmat in elements:
        for source in (rmat, cmat):
            if source.rows < 2:
                continue
            try:
                eigs = eigenvalues_in_field(source)
            except NotInField:
                unknown = True
                continue
            if eigs[0] != eigs[-1]:
                parts = _apply_projector(piece,
                                         _fitting_projector(rmat, eigs[0]),
                                         _fitting_projector(cmat, eigs[0]))
                return parts, unknown
    return None, unknown


def _centre_mod_radical(basis):
    """Elements of E spanning rad E plus the centre of E/rad E.

    z is central modulo rad E, the kernel of the trace form, iff
    tr(z [b, y]) = tr([z, b] y) vanishes for all basis pairs b, y; so
    the span has dimension dim rad E + dim Z(E/rad E).
    """
    commutators = [(ra @ rb - rb @ ra, ca @ cb - cb @ ca)
                   for (ra, ca), (rb, cb) in itertools.combinations(basis, 2)]
    if not commutators:
        return list(basis)
    coeffs = Matrix.from_rows(
        _trace_pairing(basis, commutators).transpose().nullspace())
    return list(zip(_mix(coeffs, [r for r, _ in basis]),
                    _mix(coeffs, [c for _, c in basis])))


def _fitting_projector(m: Matrix, lam: Scalar) -> Matrix:
    """Projector onto lam's generalized eigenspace of m along the others.

    With K = (m - lam)^p for any p >= n, the space is ker K + im K
    (Fitting's lemma), both m-invariant; in the basis U = [ker K | im K]
    the projector is diag(I, 0).  It is zero when lam is not an
    eigenvalue of m.
    """
    n = m.rows
    k, power = m - Matrix.identity(n).scale(lam), 1
    while power < n:
        k, power = k @ k, 2 * power
    red, pivots = k.rref()
    kernel = _kernel(red, pivots, n)
    if not kernel:
        return Matrix.zero(n, n)
    u = Matrix.from_columns(kernel + [k.column(j) for j in pivots])
    d = Matrix.diagonal([1] * len(kernel) + [0] * (n - len(kernel)))
    return u @ d @ u.inverse()


def _apply_projector(piece, p_r: Matrix, p_c: Matrix):
    """Split along an idempotent endomorphism pair, nontrivial on a side.

    Its image and kernel are joint submodules, so every matrix is block
    diagonal in the bases [im P | im (I - P)]; CheckFailed otherwise.
    """
    rows, cols = piece[0].rows, piece[0].cols
    im_r, im_c = _column_space(p_r), _column_space(p_c)
    ra, ca = len(im_r), len(im_c)
    if not (p_r @ p_r == p_r and p_c @ p_c == p_c) or \
            (ra, ca) in ((0, 0), (rows, cols)):
        raise CheckFailed("projector pair is not a nontrivial idempotent")
    u_inv = Matrix.from_columns(
        im_r + _column_space(Matrix.identity(rows) - p_r)).inverse()
    v = Matrix.from_columns(im_c + _column_space(Matrix.identity(cols) - p_c))
    blocks = [u_inv @ m @ v for m in piece]
    if not all(w.submatrix(range(ra), range(ca, cols)).is_zero() and
               w.submatrix(range(ra, rows), range(ca)).is_zero()
               for w in blocks):
        raise CheckFailed("projector pair does not split the piece")
    return ([w.submatrix(range(ra), range(ca)) for w in blocks],
            [w.submatrix(range(ra, rows), range(ca, cols)) for w in blocks])


def _decompose_fully(mats):
    pending, done = [mats], []
    while pending:
        piece = pending.pop(0)
        parts = _split_piece(piece)
        if parts is None:
            done.append(piece)
        else:
            pending.extend(parts)
    return done


def nonfull_rank_split(psi: TensorState, *, sweep=None) -> PartitionedForm:
    """Split a rank-deficient state per the stabilizer direct-sum form.

    The first slot is reduced to diag(I_{N-i}, 0); joint summands are
    found via idempotents of the endomorphism algebra; summands whose
    first-slot restriction is square and invertible form the full-rank
    part, everything else the remainder.  sweep is as for
    full_rank_reduce.
    """
    t, r = sweep or max_rank_combination(psi)
    deficiency = psi.N - r
    if deficiency == 0:
        raise NotFullRank("state has full rank; use the full-rank pipeline")
    mixed = _mix(_completion_matrix(t), psi.gammas)
    p, q, _ = rank_normal_form(mixed[0])
    mats = [p @ g @ q for g in mixed]
    pieces = _decompose_fully(mats)
    gamma_pieces, beta_pieces = [], []
    for piece in pieces:
        lam_part = piece[0]
        if (lam_part.rows == lam_part.cols > 0
                and lam_part.rank() == lam_part.rows):
            gamma_pieces.append(piece)
        else:
            beta_pieces.append(piece)
    n = sum(pc[0].rows for pc in gamma_pieces)
    gamma_part = [Matrix.block_diag([pc[0].inverse() @ pc[j]
                                     for pc in gamma_pieces])
                  for j in range(1, psi.L)]
    lam_beta = Matrix.block_diag([pc[0] for pc in beta_pieces])
    pb, qb, _ = rank_normal_form(lam_beta)
    lambda_prime = pb @ lam_beta @ qb
    beta_part = [pb @ Matrix.block_diag([pc[j] for pc in beta_pieces])
                 @ qb for j in range(1, psi.L)]
    return PartitionedForm(n, psi.N - n, deficiency, tuple(gamma_part),
                           tuple(beta_part), lambda_prime)


def beta_canonical_check(pf: PartitionedForm) -> bool:
    """Rank condition for the remainder's canonical form, certified.

    True iff the maximum rank of lambda_prime + sum alpha_j beta_j over
    all coefficient tuples equals m - i, which is the rank of
    lambda_prime (alpha = 0, the tuple the sweep skips).  A grid of size
    m - i + 2 decides it (see _coefficient_sweep).
    """
    target = pf.m - pf.i
    best = -1
    for _, r in combination_ranks(
            pf.beta_part, _coefficient_sweep(len(pf.beta_part), target + 2),
            base=pf.lambda_prime):
        best = max(best, r)
        if best > target:
            return False
    return best == target
