"""Low eigenpairs of the lattice Hamiltonians and the Riesz spectral projector.

The eigensolver is ARPACK in shift-invert mode with a sparse LU, on every grid:
`_arpack` is the one path to it, on an LU that has counted the levels below
its shift (`_lowest_near`, `_solved_below`).  Every lattice matrix is
complex128, even at b = 0, and scipy's `eigsh` hands a complex matrix to
`eigs`, so each pass is ARPACK's Arnoldi iteration (znaupd), not Lanczos, with
scipy's default ncv = max(2k + 1, 20) basis vectors.  Operators that commute
with the grid reflection x -> -x split into half-size even and odd blocks
(`parity_defect`, `parity_blocks`, `unfold_parity`).  The Riesz projector
(`riesz_project`) is the trapezoid quadrature of (1/2pi i) * contour
integral of the resolvent, with one complex sparse LU per contour node (each
factorization serves a conjugate pair of nodes), and its rank is proven
before the sweep by two inertia counts (`count_below`).

Every sparse LU is SuperLU with the minimum-degree ordering of A^T + A.  The
lattice operators are structurally symmetric 5-point matrices, where that
ordering gives about half the fill of SuperLU's default, COLAMD (a contour LU
at N = 18 496: 0.76M instead of 1.50M nonzeros), so factorizations and solves
take less time and memory at the same residual.  There are two LU modes:

- `_factor`, with partial pivoting, for the complex non-Hermitian z - H of
  the contour nodes;
- `_factor_hermitian`, with diagonal pivots only (SymmetricMode), for the
  Hermitian M - sigma I of a real shift.  That LU is an LDL* factorization:
  by Sylvester's law of inertia the number of negative pivots is the number
  of eigenvalues of M below sigma (`count_below`; spectrum slicing, Parlett,
  The Symmetric Eigenvalue Problem, ch. 3).  Where levels are solved, the
  count is taken on the LU that is then handed to ARPACK as `OPinv`
  (ARPACK's own LU uses COLAMD); a count at a cut (`count_below`) makes an
  LU of its own.  At or below the Gershgorin bound the count is skipped: the
  bound already proves it, and reading U's diagonal copies all of U.

A count is itself a certificate.  When exactly k levels of a block lie below
sigma, they are the k most negative eigenvalues of (M - sigma I)^{-1}, so
ARPACK on that same LU with which="SA" returns them, proven the lowest by
the count in hand (the shift-invert spectral transformation, Ericsson and
Ruhe, Math. Comp. 35, 1980).  `_certified_levels`, the one routine behind
every certified level, tries the caller's candidate shift this way, and
only when it does not count the wanted levels does it search: a start is
lowered until its count is 0 (`_lowest_near`), the levels nearest that
shift are the lowest, and counts at the caller's cut certify them.

A projection is one sweep over the m/2 conjugate node pairs, factorizing
each node and dropping its LU before the next, so one contour LU is alive at
a time (the m/2 factors, about 15 MB each at N = 18 496, are never held
together).  The sweep returns Pi_m v and Pi_m^2 v together.  With
Pi_m = sum_j w_j R_j, w_j = (radius/m) xi_j and R_j = (z_j - H)^{-1}, the
resolvent identity R_j R_k = (R_j - R_k) / (z_k - z_j) turns the double sum
of Pi_m^2 into a single one,

    Pi_m^2 v = sum_j [ w_j^2 R_j (R_j v) + 2 w_j c_j R_j v ],
    c_j = sum_{k != j} w_k / (z_k - z_j),

exactly, so each node costs one more solve on the LU in hand and nothing
per node is stored, and the idempotence check ||Pi_m^2 f - Pi_m f|| needs
no second sweep.  The rank needs none either: a circle with a real centre c
and radius r encloses exactly count_below(c + r) - count_below(c - r)
levels (`riesz_project`), so a wrong contour is refused after two LUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid_model import Field, SparseHermitianOp, field_from_flat


class EigensolverError(RuntimeError):
    """A failed eigen-solve: ARPACK did not converge, a symmetric LU could
    not count, or the counts do not prove the computed levels the lowest."""


@dataclass
class SpectralResult:
    eigenvalues: List[float]
    eigenvectors: List[Field]
    residuals: List[float]
    orthogonality_defect: float
    # the shift of each block LU behind the values (a block is a parity
    # block or the whole matrix), and beside it that block's count of levels
    # below the shift, by the negative pivots of the LU or, as 0, by the
    # Gershgorin bound at or above it: 0 where the values were searched from
    # below, the number of its values where the LU counted and solved them
    shifts: List[float] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)


def _gershgorin_bound(M) -> float:
    """min_i (Re M_ii - sum_{j != i} |M_ij|), read from the matrix: no
    eigenvalue of the Hermitian M lies below it (Gershgorin)."""
    diag = M.diagonal()
    radius = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag.real - radius))


def _factor(A):
    """Sparse LU of A with partial pivoting, ordered by minimum degree on
    A^T + A (see the module docstring).  It calls the `spla.splu` attribute,
    so that a wrapper set there sees every factorization maglab makes."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _factor_hermitian(A):
    """Sparse LU of the Hermitian A with diagonal pivots only, ordered like
    `_factor`: P A P^T = L U with U = D L*, an LDL* factorization.

    Raises EigensolverError when SuperLU pivoted off the diagonal anyway
    (perm_r != perm_c, e.g. at an exactly zero pivot): the pivots then do not
    give the inertia of A.
    """
    lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError(
            "the symmetric LU pivoted off the diagonal (perm_r != perm_c), "
            "so its pivots do not count eigenvalues")
    return lu


def _negative_pivots(lu) -> int:
    """The number of negative eigenvalues of the factorized A (Sylvester's
    law of inertia on A = L D L*; U's diagonal is D, real up to rounding)."""
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _shifted(M, sigma: float):
    return M - sigma * sp.identity(M.shape[0], dtype=M.dtype, format="csr")


def count_below(M, sigma: float) -> int:
    """The number of eigenvalues of the Hermitian matrix M below sigma: the
    negative pivots of the `_factor_hermitian` LU of M - sigma I."""
    return _negative_pivots(_factor_hermitian(_shifted(M, sigma)))


def _factor_below(M, sigma: float, bound: float):
    """(LU of M - sigma I, eigenvalues of M below sigma); the count is
    skipped, as 0, when sigma lies at or below the Gershgorin bound."""
    lu = _factor_hermitian(_shifted(M, sigma))
    return lu, (0 if sigma <= bound else _negative_pivots(lu))


def _arpack(M, k: int, sigma: float, lu, seed: int, which: str = "LM"):
    """(vals, vecs): k eigenpairs of M, ascending, by ARPACK in shift-invert
    mode on the given LU of M - sigma I: with which="LM" the k nearest
    sigma, with which="SA" the k nearest below it (when k or more lie
    below it)."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(M.shape[0])
    v0 /= np.linalg.norm(v0)
    OPinv = spla.LinearOperator(M.shape, matvec=lu.solve, dtype=M.dtype)
    try:
        vals, vecs = spla.eigsh(M, k=k, sigma=sigma, which=which, v0=v0,
                                OPinv=OPinv)
    except spla.ArpackNoConvergence as err:
        got = getattr(err, "eigenvalues", None)
        raise EigensolverError(
            "eigensolver did not converge (%d of %d values found)"
            % (0 if got is None else len(got), k)) from err
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _lowest_near(M, k: int, start: float, seed: int):
    """(vals, vecs, sigma): the k lowest eigenpairs of the Hermitian M by
    one shift-invert pass at the first of sigma = start, start - s,
    start - 3s, start - 7s, ... (s = 1/64 of start's height above the
    Gershgorin bound, and never below the bound minus 1) with no eigenvalue
    below it; each shift tried costs one LU, and the last one serves ARPACK.
    """
    bound = _gershgorin_bound(M)
    sigma, step = start, (start - bound) / 64.0
    lu, below = _factor_below(M, sigma, bound)
    while below:
        lu = None                    # freed before the next one is made
        sigma = max(sigma - step, bound - 1.0)
        step *= 2.0
        lu, below = _factor_below(M, sigma, bound)
    vals, vecs = _arpack(M, k, sigma, lu, seed)
    return vals, vecs, sigma


def _verified_result(op: SparseHermitianOp, vals, vecs,
                     shifts: Sequence[float] = (),
                     counts: Sequence[int] = ()) -> SpectralResult:
    """L2(grid)-normalized eigenpairs with their residuals ||H v - E v|| / ||v||
    against the full operator and their orthogonality defect; shifts are the
    shifts of the block LUs behind vals, counts each block's levels below
    its shift (`SpectralResult`).

    Nearly degenerate Ritz vectors can come out slightly non-orthogonal; they
    are then re-orthonormalized within the computed subspace.
    """
    M = op.matrix
    k = len(vals)
    h2 = op.grid.spacing ** 2
    fields, residuals = [], []
    for j in range(k):
        v = vecs[:, j]
        v = v / np.sqrt(np.vdot(v, v).real * h2)     # L2(grid) normalization
        r = M @ v - vals[j] * v
        residuals.append(float(np.linalg.norm(r) / np.linalg.norm(v)))
        fields.append(field_from_flat(op.grid, v))

    G = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            G[i, j] = fields[i].inner(fields[j])
    off = np.abs(G - np.diag(np.diag(G)))
    defect = float(np.max(off)) if k > 1 else 0.0
    if defect > 1e-8:
        w, U = np.linalg.eigh(G)
        coeff = U @ np.diag(1.0 / np.sqrt(w)) @ U.conj().T
        vecsn = np.stack([f.flat() for f in fields], axis=1) @ coeff
        fields = [field_from_flat(op.grid, vecsn[:, j]) for j in range(k)]
        residuals = []
        for j in range(k):
            v = fields[j].flat()
            r = M @ v - vals[j] * v
            residuals.append(float(np.linalg.norm(r) / np.linalg.norm(v)))
        defect = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                defect = max(defect, abs(fields[i].inner(fields[j])))

    return SpectralResult(eigenvalues=[float(v) for v in vals],
                          eigenvectors=fields,
                          residuals=residuals,
                          orthogonality_defect=defect,
                          shifts=[float(x) for x in shifts],
                          counts=[int(c) for c in counts])


def lowest_eigs(op: SparseHermitianOp, k: int, seed: int = 0,
                start: float = None) -> SpectralResult:
    """k smallest eigenvalues with residual-verified eigenvectors, by one
    shift-invert pass (`_lowest_near`).

    Deterministic for a given seed (the seed fixes ARPACK's starting vector;
    the iteration is Arnoldi on the complex lattice matrices, see the module
    docstring).  The shift search begins at start, by default one below the
    Gershgorin bound of the matrix, which needs no count.  A start inside the
    spectrum is lowered until the inertia count on the LU that serves the solve
    (`count_below`) puts no eigenvalue below it, so the k values nearest the
    shift are the k lowest.  A shift close to the low cluster greatly reduces
    the absolute eigenvalue error (~eps * |E - sigma|), which matters when the
    quantity of interest is a tiny eigenvalue difference.
    """
    M = op.matrix
    if k >= M.shape[0]:
        raise ValueError("k must be much smaller than the dimension")
    if start is None:
        start = _gershgorin_bound(M) - 1.0
    vals, vecs, sigma = _lowest_near(M, k, start, seed)
    return _verified_result(op, vals, vecs, shifts=[sigma], counts=[0])


# ---------------------------------------------------------------------------
# parity sectors of operators symmetric under x -> -x


def _reflect(M) -> sp.csr_matrix:
    """P M P for the grid reflection P: k -> N-1-k on the flat index, which
    is (i, j) -> (n-1-i, n-1-j), i.e. x -> -x on the symmetric vertex grid."""
    coo = M.tocoo()
    N = M.shape[0]
    return sp.csr_matrix((coo.data, (N - 1 - coo.row, N - 1 - coo.col)),
                         shape=M.shape)


def parity_defect(M) -> float:
    """||M - P M P||_max: zero (up to rounding of the grid coordinates) when
    the operator commutes with x -> -x."""
    d = (M - _reflect(M)).tocsr()
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0


def parity_blocks(M):
    """(H_even, H_odd): the half-size blocks of S = (M + P M P) / 2 on the
    even and odd fields, H_+- = S[:m, :m] +- S[:m, m:] J with m = N/2 and J
    the reversal of m indices.

    An even (odd) field is v = [u; +-J u] / sqrt(2), see `unfold_parity`.
    Since S is the symmetrised operator, the antisymmetric part dropped with
    it moves the eigenvalues of M only at second order.
    """
    N = M.shape[0]
    m = N // 2
    S = (0.5 * (M + _reflect(M))).tocsr()
    A = S[:m, :m]
    B = S[:m, m:].tocoo()
    BJ = sp.csr_matrix((B.data, (B.row, m - 1 - B.col)), shape=(m, m))
    return (A + BJ).tocsr(), (A - BJ).tocsr()


def unfold_parity(u: np.ndarray, sign: int) -> np.ndarray:
    """Full-size fields [u; sign * J u] / sqrt(2) from the columns of a
    parity-block eigenvector array u (sign +1 even, -1 odd)."""
    return np.concatenate([u, sign * u[::-1]], axis=0) / np.sqrt(2.0)


# symmetry test of the parity-block solves, relative to max|H|: rounding of
# the grid coordinates leaves defects of ~1e-15 relative, a shifted gauge
# origin or unequal wells O(1)
PARITY_RTOL = 1e-13
# a computed ground level E found by the search is certified by the counts at
# E + CUT_RTOL * max(|E|, 1): above its rounding error (~1e-12 absolute at
# lam <= 45), below the next level, O(1) away
CUT_RTOL = 1e-8


def _parity_sectors(M):
    """(the even and odd blocks of M (`parity_blocks`), or None when M does
    not commute with x -> -x up to rounding; ||M - PMP||_max)."""
    defect = parity_defect(M)
    if defect > PARITY_RTOL * np.max(np.abs(M.data)):
        return None, defect
    return parity_blocks(M), defect


# a block none of whose levels are wanted
_NONE_SOLVED = (np.empty(0), None)


def _solved_below(blocks, ks: Sequence[int], sigma: float, seed: int):
    """[(vals, vecs)] per block: the ks[b] levels of block b below sigma,
    solved (ARPACK, which="SA") on the LU that counts exactly ks[b] of them
    there; None at the first block whose count is not ks[b].

    One block LU is alive at a time: each is dropped before the next block
    is factorized.
    """
    solved = []
    for B, k in zip(blocks, ks):
        lu, below = _factor_below(B, sigma, _gershgorin_bound(B))
        if below != k:
            return None
        vals, vecs = (_arpack(B, k, sigma, lu, seed, which="SA") if k else
                      _NONE_SOLVED)
        lu = None
        if np.any(vals >= sigma):
            raise EigensolverError(
                "ARPACK returned levels %s, not all below the shift %.17g "
                "that counts %d" % (vals, sigma, k))
        solved.append((vals, vecs))
    return solved


def _certified_levels(op: SparseHermitianOp, blocks, ks: Sequence[int],
                      keep: int, shift: Optional[float],
                      start: Optional[float], seed: int, cut):
    """(SpectralResult, (at, counts), certified): the lowest levels of op,
    proven by inertia counts (spectrum slicing, Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).

    blocks are the even and odd parity blocks of op.matrix
    (`parity_blocks`), or (op.matrix,), and ks[b] levels of block b are
    wanted.  In order:
    1. at the candidate shift, unless it is None, each block's LU counts its
       levels below the shift and, when the count is ks[b], solves them
       (`_solved_below`).  When every block counts ks[b], the counts are the
       certificate: (at, counts) is (shift, ks), certified is True, and no
       cut is counted;
    2. otherwise the search: the ks[b] lowest levels of block b by one
       shift-invert pass (`_lowest_near`) each, the first from start (by
       default one below the first block's Gershgorin bound) and each next
       from the previous block's shift, so that both sectors are normally
       solved at one shift: their rounding errors are then correlated and
       cancel in E1 - E0 (at lam = 45, b = 0.05, n = 320, Delta0 moved by
       8e-9 relative between two ARPACK seeds with the odd shift at the even
       ground, and by 3e-10 with one common shift).  The counts of the
       blocks (`count_below`) at = cut(levels), the ascending solved levels,
       are returned with it, and certified is True when they are the number
       of solved levels of each block below it: then no level below the cut
       was missed;
    3. the lowest keep of all solved levels, ascending, as full-size fields
       (`unfold_parity`) verified against op (`_verified_result`), with the
       shift and count of each block LU behind them.
    """
    if shift is not None:
        solved = _solved_below(blocks, ks, shift, seed)
        if solved is not None:
            res, _ = _block_result(op, blocks, solved, keep,
                                   [shift] * len(blocks), ks)
            return res, (shift, tuple(ks)), True
    sigma = _gershgorin_bound(blocks[0]) - 1.0 if start is None else start
    solved, shifts = [], []
    for B, k in zip(blocks, ks):
        if k == 0:
            solved.append(_NONE_SOLVED)
            continue
        vals, vecs, sigma = _lowest_near(B, k, sigma, seed)
        solved.append((vals, vecs))
        shifts.append(sigma)
    res, levels = _block_result(op, blocks, solved, keep, shifts,
                                [0] * len(shifts))
    at = cut(np.array([e for e, _, _ in levels]))
    below = tuple(count_below(B, at) for B in blocks)
    solved_below = tuple(sum(1 for e, o, _ in levels if o == b and e < at)
                         for b in range(len(blocks)))
    return res, (at, below), below == solved_below


def _block_result(op: SparseHermitianOp, blocks, solved, keep: int,
                  shifts: Sequence[float], counts: Sequence[int]):
    """(SpectralResult, levels): the lowest keep of the solved levels of the
    blocks, ascending, as full-size fields (`unfold_parity`) verified
    against op (`_verified_result`); levels are all solved (value, block,
    block vector), ascending."""
    levels = sorted(((vals[j], b, vecs[:, j])
                     for b, (vals, vecs) in enumerate(solved)
                     for j in range(len(vals))), key=lambda lv: lv[0])
    fields = [v if len(blocks) == 1 else unfold_parity(v, (1, -1)[b])
              for _, b, v in levels[:keep]]
    res = _verified_result(op, [e for e, _, _ in levels[:keep]],
                           np.stack(fields, axis=1), shifts=shifts,
                           counts=counts)
    return res, levels


def certified_ground(op: SparseHermitianOp, shift: float,
                     start: Optional[float], seed: int) -> SpectralResult:
    """The ground level of op, which must commute with x -> -x, proven the
    lowest by inertia counts: the even block's lowest level
    (`_certified_levels` with one even and no odd level wanted), counted and
    solved on the LUs at shift when one even and no odd level lies below it,
    else searched from start and certified by the counts at
    E0 + CUT_RTOL * max(|E0|, 1).

    Raises ValueError when op does not commute with x -> -x, and
    EigensolverError, naming both counts, when the search's counts do not
    put the even level lowest.
    """
    blocks, defect = _parity_sectors(op.matrix)
    if blocks is None:
        raise ValueError("the operator does not commute with x -> -x "
                         "(||H - PHP||_max = %.3g)" % defect)
    res, (cut, (even, odd)), certified = _certified_levels(
        op, blocks, (1, 0), 1, shift, start, seed,
        lambda e: e[0] + CUT_RTOL * max(abs(e[0]), 1.0))
    if not certified:
        raise EigensolverError(
            "even ground level %.17g is not the lowest: %d even and %d odd "
            "level(s) lie below %.17g, where it puts 1 and 0"
            % (res.eigenvalues[0], even, odd, cut))
    return res


@dataclass
class Contour:
    """Circle z(theta) = center + radius * exp(i theta), trapezoid nodes.
    The centre must be real: `_sweep` pairs each node with its conjugate,
    and `riesz_project` counts the levels on the diameter it spans."""

    center: complex
    radius: float
    quadrature_nodes: int = 32

    def __post_init__(self):
        if complex(self.center).imag != 0:
            raise ValueError("contour centre %s is not real" % self.center)

    def nodes(self, m: int = None):
        m = m or self.quadrature_nodes
        theta = 2 * np.pi * (np.arange(m) + 0.5) / m
        xi = np.exp(1j * theta)
        return self.center + self.radius * xi, xi


class ContourSolveError(RuntimeError):
    def __init__(self, node, message):
        super().__init__("linear solve failed at contour node z=%s: %s"
                         % (node, message))
        self.node = node


def _sweep(op: SparseHermitianOp, contour: Contour, vecs: np.ndarray,
           m: int):
    """(Pi_m vecs, Pi_m^2 vecs): one sweep over the m/2 conjugate node pairs.

    Pi_m = sum_j w_j R_j with w_j = (radius/m) xi_j, R_j = (z_j - H)^{-1},
    and Pi_m^2 = sum_j [w_j^2 R_j^2 + 2 w_j c_j R_j] with
    c_j = sum_{k != j} w_k / (z_k - z_j) (module docstring).  One LU
    factorization at z also serves the node conj(z) via a transposed solve,
    since H is Hermitian; each node solves twice on it, for R v and R (R v).
    Each LU is dropped before the next node is factorized, so one is alive
    at a time.
    """
    M = op.matrix
    N = M.shape[0]
    zs, xis = contour.nodes(m)
    half = m // 2
    # the nodes summed: z_j, then conj(z_j) (index m-1-j of a real-centred
    # circle), j < m/2
    z = np.concatenate([zs[:half], np.conj(zs[:half])])
    w = (contour.radius / m) * np.concatenate([xis[:half],
                                               np.conj(xis[:half])])
    gap = z[None, :] - z[:, None]                       # gap[j, k] = z_k - z_j
    np.fill_diagonal(gap, np.inf)
    c = np.sum(w[None, :] / gap, axis=1)
    eye = sp.identity(N, dtype=complex, format="csc")
    acc1 = np.zeros_like(vecs)
    acc2 = np.zeros_like(vecs)
    for j in range(half):
        try:
            lu = _factor(z[j] * eye - M)
        except RuntimeError as exc:  # singular factorization
            raise ContourSolveError(z[j], str(exc)) from exc
        r1 = lu.solve(vecs)
        _add_node(acc1, acc2, xis[j], w[j], c[j], r1, lu.solve(r1))
        # conjugate node: (conj(z) - H)^{-1} f = conj((z - H)^{-T} conj(f))
        r1 = lu.solve(np.conj(vecs), trans="T")
        r2 = lu.solve(r1, trans="T")
        _add_node(acc1, acc2, np.conj(xis[j]), w[half + j], c[half + j],
                  np.conj(r1, out=r1), np.conj(r2, out=r2))
        del lu, r1, r2
    return (contour.radius / m) * acc1, (contour.radius / m) * acc2


def _add_node(acc1, acc2, xi, w, c, r1, r2):
    """acc1 += xi r1 and acc2 += xi (w r2 + 2 c r1), for r1 = R v and
    r2 = R (R v) at one node; r1 and r2 are overwritten."""
    acc1 += xi * r1
    r2 *= w
    r1 *= 2.0 * c
    r2 += r1
    r2 *= xi
    acc2 += r2


class ClusterError(RuntimeError):
    """The contour does not enclose a spectral cluster of the expected rank."""


# the projection is accepted at the first node count m whose idempotence
# defect ||Pi_m^2 f - Pi_m f|| / ||f|| is at most IDEMPOTENCE_TOL, after at
# most MAX_DOUBLINGS doublings of m
IDEMPOTENCE_TOL = 1e-8
MAX_DOUBLINGS = 4


def riesz_project(op: SparseHermitianOp, contour: Contour,
                  fields: Sequence[Field], rank: int):
    """(projected fields, enclosed levels, nodes, idempotence defect): the
    Riesz projector Pi applied to a list of Fields.

    rank is the number of levels the caller means the contour to enclose (2
    for the double-well pair in `tunneling.quasimodes`).  The circle about
    the real centre c with radius r encloses exactly
    count_below(c + r) - count_below(c - r) levels, two inertia counts on
    full-size LUs; a ClusterError is raised when that is not rank, before
    any contour LU is made.  The fields are then projected by one sweep at
    m = contour.quadrature_nodes nodes, doubled, one more sweep each time,
    until the idempotence defect ||Pi_m^2 f - Pi_m f|| / ||f|| is at most
    IDEMPOTENCE_TOL for every field; nodes is the m used and the defect the
    largest over the fields at that m.
    """
    c, r = contour.center.real, contour.radius
    enclosed = count_below(op.matrix, c + r) - count_below(op.matrix, c - r)
    if enclosed != rank:
        raise ClusterError("the contour (centre %s, radius %g) encloses %d "
                           "levels, not %d" % (contour.center, r, enclosed,
                                               rank))
    vecs = np.stack([f.flat() for f in fields], axis=1)
    norms = np.linalg.norm(vecs, axis=0)
    for doubling in range(MAX_DOUBLINGS + 1):
        m = contour.quadrature_nodes * 2 ** doubling
        p1, p2 = _sweep(op, contour, vecs, m)
        defect = float(np.max(np.linalg.norm(p2 - p1, axis=0) / norms))
        if defect <= IDEMPOTENCE_TOL:
            return ([field_from_flat(op.grid, p1[:, j])
                     for j in range(p1.shape[1])], enclosed, m, defect)
    raise RuntimeError("projector idempotence defect %.3g > %.3g even at "
                       "m=%d nodes" % (defect, IDEMPOTENCE_TOL, m))
