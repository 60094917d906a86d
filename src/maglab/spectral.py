"""Low eigenpairs of the lattice Hamiltonians and the Riesz spectral projector.

The eigensolver is ARPACK in shift-invert mode with a sparse LU, on every grid:
`_arpack` is the one path to it, on an LU that has counted the levels below
its shift (`_lowest_levels`).  Every lattice matrix is
complex128, even at b = 0, and scipy's `eigsh` hands a complex matrix to
`eigs`, so each pass is ARPACK's Arnoldi iteration (znaupd), not Lanczos, with
scipy's default ncv = max(2k + 1, 20) basis vectors.  Operators that commute
with the grid reflection x -> -x split into half-size even and odd blocks
(`parity_defect`, `parity_blocks`, `unfold_parity`).  The Riesz projector
(`riesz_project`) is the trapezoid quadrature of (1/2pi i) * contour
integral of the resolvent; its rank is proven by two inertia counts
(`count_below`), and every contour node solves on the LU of the second.

Every sparse LU is SuperLU with the minimum-degree ordering of A^T + A.  The
lattice operators are structurally symmetric 5-point matrices, where that
ordering gives about half the fill of SuperLU's default, COLAMD (an LU at
N = 18 496: 0.76M instead of 1.50M nonzeros), so factorizations and solves
take less time and memory at the same residual.  Every LU is made by
`_factor_hermitian`, with diagonal pivots only (SymmetricMode), for the
Hermitian M - sigma I of a real shift.  That LU is an LDL* factorization:
by Sylvester's law of inertia the number of negative pivots is the number of
eigenvalues of M below sigma (`count_below`; spectrum slicing, Parlett, The
Symmetric Eigenvalue Problem, ch. 3).  Where levels are solved, the count is
taken on the LU that is then handed to ARPACK as `OPinv` (ARPACK's own LU
uses COLAMD); a count at a cut (`count_below`) makes an LU of its own.  At
or below the Gershgorin bound the count is skipped: the bound already proves
it, and reading U's diagonal copies all of U.

A count is itself a certificate.  When exactly k levels of a block lie below
sigma, they are the k most negative eigenvalues of (M - sigma I)^{-1}, so
ARPACK on that same LU with which="SA" returns them, proven the lowest by
the count in hand (the shift-invert spectral transformation, Ericsson and
Ruhe, Math. Comp. 35, 1980); when none lies below sigma, the k levels
nearest it are the lowest.  One loop (`_lowest_levels`) serves every solve:
it lowers the caller's shift until the count is exactly k or 0 and solves
on that LU.  `_certified_levels`, the routine behind every certified level,
runs it per block; when every block counts its wanted levels at one shift,
those counts are the certificate, and otherwise counts at the caller's cut
are.

A projection needs two LUs.  A circle with a real centre c and radius r
encloses exactly count_below(c + r) - count_below(c - r) levels, so a wrong
contour is refused after the two counts, and the LU at sigma = c - r, where
the circle meets the real axis on the left, is kept.  For Hermitian H the
resolvents R_j = (z_j - H)^{-1} of all nodes share the Krylov spaces of
K = (H - sigma)^{-1}: with mu_j = z_j - sigma,
R_j = -K (I - mu_j K)^{-1}, a shifted system in K (the shifted-systems idea
of Krylov solvers for contour-integral eigensolvers: Sakurai and Sugiura,
J. Comput. Appl. Math. 159, 2003; Simoncini and Szyld, Numer. Linear
Algebra Appl. 14, 2007, sec. 14).  So one block Krylov basis V of K, started
at the fields and grown one multi-column solve on that LU at a time with
Gram-Schmidt run twice (`_ShiftedKrylov`), solves every node: the block
Arnoldi relation K V_p = V_k T gives each node's solution and its residual,
which lies in the newest block, for the cost of a small dense solve.  The
basis grows until that estimate of every node's normwise backward error is
at most KRYLOV_TOL, and each node's backward error is then computed on the
grid once and must be at most BACKWARD_TOL (else ContourSolveError).

It converges fast because the nodes' poles stay away from K's spectrum.
The map t = 1/(z - sigma) takes the circle to the line Re t = 1/(2r), where
the nodes' poles lie, and a level E to 1/(E - sigma): the enclosed levels
to t > 1/(2r), a level c + d above the circle to 1/(d + r) and a level
c - d below it to -1/(d - r).  A projection that passes the idempotence test
at m nodes has every outside level at least (1e8)^(1/m) r from c (1.78 r at
m = 32), so the outside spectrum of K lies in [-1.28/r, 0.36/r], at least
0.14/r from the line, and the enclosed levels are isolated outliers of K
that the basis captures in a few blocks.  At the benchmark's point
(N = 18 496) 38 columns reach a backward error of 5e-16.

With Pi_m = sum_j w_j R_j, w_j = (radius/m) xi_j, the resolvent identity
R_j R_k = (R_j - R_k) / (z_k - z_j) turns the double sum of Pi_m^2 into a
single one,

    Pi_m^2 v = sum_j [ w_j^2 R_j (R_j v) + 2 w_j c_j R_j v ],
    c_j = sum_{k != j} w_k / (z_k - z_j),

exactly, so each node solves once more on the same basis and the
idempotence check ||Pi_m^2 f - Pi_m f|| needs no second projection; a
doubling of m reuses the basis and the LU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

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
    # Gershgorin bound at or above it: the number of its values where they
    # lie below the shift, 0 where they lie above it (a block with no value
    # wanted is listed when it was counted, at the shift of the blocks
    # before it)
    shifts: List[float] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)


def _gershgorin_bound(M) -> float:
    """min_i (Re M_ii - sum_{j != i} |M_ij|), read from the matrix: no
    eigenvalue of the Hermitian M lies below it (Gershgorin)."""
    diag = M.diagonal()
    radius = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag.real - radius))


def _factor_hermitian(A):
    """Sparse LU of the Hermitian A with diagonal pivots only, ordered by
    minimum degree on A^T + A (see the module docstring): P A P^T = L U with
    U = D L*, an LDL* factorization.  It calls the `spla.splu` attribute, so
    that a wrapper set there sees every factorization maglab makes.

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


def _arpack(M, k: int, sigma: float, lu, seed: int, which: str):
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


def _lowest_levels(M, k: int, sigma: float, seed: int):
    """(vals, vecs, sigma, below): the k lowest eigenpairs of the Hermitian
    M, ascending, by one shift-invert pass at the first of sigma, sigma - s,
    sigma - 3s, sigma - 7s, ... (s = 1/64 of sigma's height above the
    Gershgorin bound, and never below the bound minus 1) whose LU counts
    exactly k or no eigenvalues below it (below).  At k the pass takes the
    k levels below the shift (which="SA"), at 0 the k nearest it; either
    way the count proves them the lowest.  Each shift tried costs one LU,
    and the last one serves ARPACK.
    """
    bound = _gershgorin_bound(M)
    step = (sigma - bound) / 64.0
    while True:
        lu = _factor_hermitian(_shifted(M, sigma))
        below = 0 if sigma <= bound else _negative_pivots(lu)
        if below in (0, k):
            break
        lu = None                    # freed before the next one is made
        sigma = max(sigma - step, bound - 1.0)
        step *= 2.0
    vals, vecs = _arpack(M, k, sigma, lu, seed, "SA" if below else "LM")
    if below and np.any(vals >= sigma):
        raise EigensolverError(
            "ARPACK returned levels %s, not all below the shift %.17g "
            "that counts %d" % (vals, sigma, k))
    return vals, vecs, sigma, below


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
    shift-invert pass (`_lowest_levels`).

    Deterministic for a given seed (the seed fixes ARPACK's starting vector;
    the iteration is Arnoldi on the complex lattice matrices, see the module
    docstring).  The shift search begins at start, by default one below the
    Gershgorin bound of the matrix, which needs no count.  A start inside the
    spectrum is lowered until the inertia count on the LU that serves the
    solve (`count_below`) puts exactly k or no eigenvalues below it, so the k
    values below or nearest the shift are the k lowest.  A shift close to the
    low cluster greatly reduces the absolute eigenvalue error
    (~eps * |E - sigma|), which matters when the quantity of interest is a
    tiny eigenvalue difference.
    """
    M = op.matrix
    if k >= M.shape[0]:
        raise ValueError("k must be much smaller than the dimension")
    if start is None:
        start = _gershgorin_bound(M) - 1.0
    vals, vecs, sigma, below = _lowest_levels(M, k, start, seed)
    return _verified_result(op, vals, vecs, shifts=[sigma], counts=[below])


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
# a computed ground level E that no shift counts alone is certified by the
# counts at E + CUT_RTOL * max(|E|, 1): above its rounding error (~1e-12
# absolute at lam <= 45), below the next level, O(1) away
CUT_RTOL = 1e-8


def _parity_sectors(M):
    """(the even and odd blocks of M (`parity_blocks`), or None when M does
    not commute with x -> -x up to rounding; ||M - PMP||_max)."""
    defect = parity_defect(M)
    if defect > PARITY_RTOL * np.max(np.abs(M.data)):
        return None, defect
    return parity_blocks(M), defect


def _certified_levels(op: SparseHermitianOp, blocks, ks: Sequence[int],
                      keep: int, shift: float, seed: int, cut):
    """(SpectralResult, (at, counts), certified): the lowest levels of op,
    proven by inertia counts (spectrum slicing, Parlett, The Symmetric
    Eigenvalue Problem, ch. 3).

    blocks are the even and odd parity blocks of op.matrix
    (`parity_blocks`), or (op.matrix,), and ks[b] levels of block b are
    wanted.  In order:
    1. the ks[b] lowest levels of block b by one shift-invert pass
       (`_lowest_levels`) each, at the first shift that counts exactly ks[b]
       or no levels of the block below it, the first block's search from
       shift and each next from the previous block's shift, so that both
       sectors are normally solved at one shift: their rounding errors are
       then correlated and cancel in E1 - E0 (at lam = 45, b = 0.05,
       n = 320, Delta0 moved by 8e-9 relative between two ARPACK seeds with
       the odd shift at the even ground, and by 3e-10 with one common
       shift).  A block with no wanted level is only counted, at that shift,
       while every block before it counts its ks[b] there;
    2. when every block ends at one shift with counts ks, those counts are
       the certificate: (at, counts) is (that shift, ks), and no cut is
       counted.
       Otherwise the counts of the blocks (`count_below`) at
       at = cut(levels), the ascending solved levels, are.  certified is
       True when the counts are the number of solved levels of each block
       below at: then no level below it was missed;
    3. the lowest keep of all solved levels, ascending, as full-size fields
       (`unfold_parity`) verified against op (`_verified_result`), with the
       shift and count of each block's last LU behind them.
    """
    sigma, levels, shifts, counts = shift, [], [], []
    for b, (B, k) in enumerate(zip(blocks, ks)):
        if k:
            vals, vecs, sigma, below = _lowest_levels(B, k, sigma, seed)
            levels += [(vals[j], b, vecs[:, j]) for j in range(k)]
        elif counts == list(ks[:b]) and set(shifts) == {sigma}:
            below = count_below(B, sigma)
        else:
            continue
        shifts.append(sigma)
        counts.append(below)
    levels.sort(key=lambda lv: lv[0])
    if counts == list(ks) and set(shifts) == {sigma}:
        at, below = sigma, tuple(ks)
    else:
        at = cut(np.array([e for e, _, _ in levels]))
        below = tuple(count_below(B, at) for B in blocks)
    solved_below = tuple(sum(1 for e, o, _ in levels if o == b and e < at)
                         for b in range(len(blocks)))
    fields = [v if len(blocks) == 1 else unfold_parity(v, (1, -1)[b])
              for _, b, v in levels[:keep]]
    res = _verified_result(op, [e for e, _, _ in levels[:keep]],
                           np.stack(fields, axis=1), shifts=shifts,
                           counts=counts)
    return res, (at, below), below == solved_below


def certified_ground(op: SparseHermitianOp, shift: float,
                     seed: int) -> SpectralResult:
    """The ground level of op, which must commute with x -> -x, proven the
    lowest by inertia counts: the even block's lowest level
    (`_certified_levels` with one even and no odd level wanted), searched
    from shift.  When the even block's LU counts one level and the odd
    block's none at one shift, those counts prove it; otherwise the counts
    at E0 + CUT_RTOL * max(|E0|, 1) do.

    Raises ValueError when op does not commute with x -> -x, and
    EigensolverError, naming both counts, when the counts do not put the
    even level lowest.
    """
    blocks, defect = _parity_sectors(op.matrix)
    if blocks is None:
        raise ValueError("the operator does not commute with x -> -x "
                         "(||H - PHP||_max = %.3g)" % defect)
    res, (cut, (even, odd)), certified = _certified_levels(
        op, blocks, (1, 0), 1, shift, seed,
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
    The centre must be real: `riesz_project` counts the levels on the
    diameter it spans and solves every node on the LU at its left end."""

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


class ClusterError(RuntimeError):
    """The contour does not enclose a spectral cluster of the expected rank,
    or the projector it gives is not idempotent."""


# the projection is accepted at the first node count m whose idempotence
# defect ||Pi_m^2 f - Pi_m f|| / ||f|| is at most IDEMPOTENCE_TOL, after at
# most MAX_DOUBLINGS doublings of m
IDEMPOTENCE_TOL = 1e-8
MAX_DOUBLINGS = 4
# the shifted Krylov basis grows until the Arnoldi relation puts the normwise
# backward error of both solves at every node at most KRYLOV_TOL (a few
# units of rounding: the computed one levels off at 3e-16 to 1e-15 on the
# acceptance grids), and to at most MAX_BASIS_COLUMNS columns (200 columns
# of N = 57 600 are 184 MB); each node's backward error, computed on the
# grid, must then be at most BACKWARD_TOL
KRYLOV_TOL = 1e-15
BACKWARD_TOL = 1e-13
MAX_BASIS_COLUMNS = 200


class _ShiftedKrylov:
    """Orthonormal block Krylov basis V of K = (H - sigma)^{-1} started at
    the columns of vecs, on the LU of H - sigma I, with the block Arnoldi
    relation K V[:, :p] = V[:, :k] T[:k, :p]: V[:, p:k] is the next block,
    and T holds the Gram-Schmidt coefficients.  Every contour node z solves
    on it (module docstring)."""

    def __init__(self, M, lu, sigma: float, vecs: np.ndarray):
        N, q = vecs.shape
        self.M, self.lu, self.sigma, self.vecs = M, lu, sigma, vecs
        self.norm_h = float(abs(M).sum(axis=1).max())           # ||H||_inf
        self.V = np.empty((N, MAX_BASIS_COLUMNS), dtype=complex, order="F")
        self.T = np.zeros((MAX_BASIS_COLUMNS, MAX_BASIS_COLUMNS),
                          dtype=complex)
        self.V[:, :q], self.R = np.linalg.qr(vecs)     # vecs = V[:, :q] R
        self.p, self.k = 0, q

    def grow(self):
        """One more block: K applied to the last block by one multi-column
        solve on the LU, orthogonalized against V by Gram-Schmidt run twice.
        False, adding nothing, when it would pass MAX_BASIS_COLUMNS."""
        p, k = self.p, self.k
        q = k - p
        if k + q > MAX_BASIS_COLUMNS:
            return False
        V = self.V[:, :k]
        W = self.lu.solve(self.V[:, p:k])
        for _ in range(2):
            h = (W.conj().T @ V).conj().T        # V* W, conjugating W only
            W -= V @ h
            self.T[:k, p:k] += h
        self.V[:, k:k + q], self.T[k:k + q, p:k] = np.linalg.qr(W)
        self.p, self.k = k, k + q
        return True

    def _coefficients(self, z):
        """(x, y, eta): the coefficients in V[:, :k] of x = (z - H)^{-1} f
        and y = (z - H)^{-1} x at every node z[j], shape (m, k, q) each, and
        the largest Arnoldi-relation estimate of their normwise backward
        errors at each node.

        With mu = z - sigma, (z - H)^{-1} = -K (I - mu K)^{-1}, and
        (I - mu T) u = [R; 0] gives x = -K V u = -V T u, whose residual
        f - (z - H) x = mu V[:, p:k] T[p:k] u lies in the next block
        (full orthogonalization method for shifted systems).  y is the same
        solve for the part of x in V[:, :p], with residual
        x - (z - H) y = V[:, p:k] T[p:k] (mu u2 - u)."""
        p, k = self.p, self.k
        T = self.T[:k, :p]
        mu = (z - self.sigma)[:, None, None]
        A = np.eye(p) - mu * T[None, :p]
        rhs = np.zeros((p, self.R.shape[1]), dtype=complex)
        rhs[:self.R.shape[0]] = self.R
        u = np.linalg.solve(A, rhs)
        x = -T @ u
        u2 = np.linalg.solve(A, x[:, :p])
        y = -T @ u2
        scale = self.norm_h + np.abs(z)[:, None]
        norm = lambda a: np.linalg.norm(a, axis=1)
        eta1 = (norm(mu * (T[p:] @ u))
                / (scale * norm(x) + norm(rhs[None])))
        eta2 = (norm(T[p:] @ (mu * u2 - u))
                / (scale * norm(y) + norm(x)))
        return x, y, np.maximum(eta1, eta2).max(axis=1)

    def project(self, contour: Contour, m: int):
        """(Pi_m vecs, Pi_m^2 vecs, the largest backward error): the m-node
        trapezoid rule for Pi = sum_j w_j R_j, w_j = (radius/m) xi_j and
        R_j = (z_j - H)^{-1}, and Pi_m^2 = sum_j [w_j^2 R_j^2 + 2 w_j c_j R_j]
        with c_j = sum_{k != j} w_k / (z_k - z_j) (module docstring), from
        the node solves on V, grown until every node's estimate is at most
        KRYLOV_TOL.  Each node's backward error is then computed explicitly,
        and ContourSolveError raised when it exceeds BACKWARD_TOL."""
        z, xi = contour.nodes(m)
        w = (contour.radius / m) * xi
        gap = z[None, :] - z[:, None]                   # gap[j, k] = z_k - z_j
        np.fill_diagonal(gap, np.inf)
        c = np.sum(w[None, :] / gap, axis=1)
        eta = np.full(m, np.inf)          # no estimate before the first solve
        while True:
            if self.p:
                x, y, eta = self._coefficients(z)
                if eta.max() <= KRYLOV_TOL:
                    break
            if not self.grow():
                j = int(np.argmax(eta))
                raise ContourSolveError(
                    z[j], "a basis of %d columns leaves a backward error "
                    "estimate %.3g > %.3g" % (self.k, eta[j], KRYLOV_TOL))
        backward = self._backward_error(z, x, y)
        V = self.V[:, :self.k]
        p1 = V @ np.einsum("j,jkq->kq", w, x)
        p2 = V @ (np.einsum("j,jkq->kq", w * w, y)
                  + np.einsum("j,jkq->kq", 2.0 * w * c, x))
        return p1, p2, backward

    def _backward_error(self, z, x, y):
        """The largest ||b - (z - H) s|| / ((||H||_inf + |z|) ||s|| + ||b||)
        over the solves s = x for b = f and s = y for b = x at every node,
        computed on the grid; raises ContourSolveError above BACKWARD_TOL."""
        V = self.V[:, :self.k]
        # two nodes at a time: with 8, the grid-sized temporaries raised the
        # tunneling benchmark's peak RSS from 139 to 152 MB over six rounds
        q, chunk = self.vecs.shape[1], 2
        f = np.tile(self.vecs, chunk)
        norm = lambda a: np.linalg.norm(a, axis=0)
        worst = 0.0
        for j in range(0, len(z), chunk):
            zs = np.repeat(z[j:j + chunk], q)
            n = len(zs)
            xv, yv = (V @ a[j:j + chunk].transpose(1, 0, 2).reshape(
                self.k, n) for a in (x, y))
            for s, b in ((xv, f[:, :n]), (yv, xv)):
                r = b - zs * s + self.M @ s
                eta = norm(r) / ((self.norm_h + np.abs(zs)) * norm(s)
                                 + norm(b))
                if eta.max() > BACKWARD_TOL:
                    i = int(np.argmax(eta))
                    raise ContourSolveError(
                        zs[i], "backward error %.3g > %.3g"
                        % (eta[i], BACKWARD_TOL))
                worst = max(worst, float(eta.max()))
        return worst


def riesz_project(op: SparseHermitianOp, contour: Contour,
                  fields: Sequence[Field], rank: int):
    """(projected fields, enclosed levels, nodes, idempotence defect,
    backward error, basis columns): the Riesz projector Pi applied to a list
    of Fields.

    rank is the number of levels the caller means the contour to enclose (2
    for the double-well pair in `tunneling.quasimodes`).  The circle about
    the real centre c with radius r encloses exactly
    count_below(c + r) - count_below(c - r) levels, two inertia counts on
    full-size LUs, the one at c + r freed before the one at c - r is made;
    a ClusterError is raised when that is not rank.  The LU at c - r is
    kept: every node solves on one shifted block Krylov basis of
    (H - (c - r))^{-1} (`_ShiftedKrylov`), at m = contour.quadrature_nodes
    nodes, doubled on the same basis and LU until the idempotence defect
    ||Pi_m^2 f - Pi_m f|| / ||f|| is at most IDEMPOTENCE_TOL for every
    field, or a ClusterError naming the defect and m.  nodes is the m used;
    the defect is the largest over the fields at that m, the backward error
    the largest over its node solves, and basis columns the size of the
    basis.
    """
    M = op.matrix
    # the fields returned are allocated before the LUs and the basis, and
    # these are freed before the fields are filled: a long-lived result
    # allocated above the heap space they take keeps the heap from
    # shrinking (the tunneling benchmark's peak RSS rose from 142 to 168 MB)
    out = np.empty((len(fields), M.shape[0]), dtype=complex)
    c, r = contour.center.real, contour.radius
    above = count_below(M, c + r)
    lu = _factor_hermitian(_shifted(M, c - r))
    enclosed = above - _negative_pivots(lu)
    if enclosed != rank:
        raise ClusterError("the contour (centre %s, radius %g) encloses %d "
                           "levels, not %d" % (contour.center, r, enclosed,
                                               rank))
    vecs = np.stack([f.flat() for f in fields], axis=1)
    norms = np.linalg.norm(vecs, axis=0)
    basis = _ShiftedKrylov(M, lu, c - r, vecs)
    for doubling in range(MAX_DOUBLINGS + 1):
        m = contour.quadrature_nodes * 2 ** doubling
        p1, p2, backward = basis.project(contour, m)
        defect = float(np.max(np.linalg.norm(p2 - p1, axis=0) / norms))
        if defect <= IDEMPOTENCE_TOL:
            break
    else:
        raise ClusterError("projector idempotence defect %.3g > %.3g even "
                           "at m=%d nodes" % (defect, IDEMPOTENCE_TOL, m))
    columns = basis.k
    del basis, lu
    out[:] = p1.T
    return ([field_from_flat(op.grid, v) for v in out],
            enclosed, m, defect, backward, columns)
