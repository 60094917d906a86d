"""Low eigenpairs of the lattice Hamiltonians and the Riesz spectral projector.

The eigensolver is ARPACK in shift-invert mode with a sparse LU, on every grid:
`_lowest_near` is the one path to it.  Every lattice matrix is complex128, even
at b = 0, and scipy's `eigsh` hands a complex matrix to `eigs`, so each pass is
ARPACK's Arnoldi iteration (znaupd), not Lanczos, with scipy's default
ncv = max(2k + 1, 20) basis vectors.  Operators that commute with the grid
reflection x -> -x split into half-size even and odd blocks (`parity_defect`,
`parity_blocks`, `unfold_parity`).  The Riesz projector (`riesz_project`)
is the trapezoid quadrature of (1/2pi i) * contour integral of the
resolvent, with one complex sparse LU per contour node (each factorization
serves a conjugate pair of nodes), and its rank is checked by a Hutch++
trace estimate in the same sweep.

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
  The Symmetric Eigenvalue Problem, ch. 3).  `_lowest_near` counts on the LU
  it hands to ARPACK as `OPinv` (ARPACK's own LU uses COLAMD), and lowers a
  start inside the spectrum until its count is 0, so the values nearest the
  shift are the lowest.  At or below the Gershgorin bound the count is
  skipped: the bound already proves it, and reading U's diagonal copies all
  of U.

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
per node is stored.  The idempotence check ||Pi_m^2 f - Pi_m f|| and the
rank check then need no second sweep: `riesz_project`, the one projection
routine, projects the rank probes Z together with the fields f, and the
Hutch++ range term takes Pi Q for Q = orth(Pi Z) from W = Pi^2 Z.  Q is cut
from the SVD Pi Z = U S V* (Q = U_k, Pi Q = W V_k S_k^{-1}, directions with
s_i below RANGE_CUTOFF * s_1 dropped), not from a QR: Pi Z has singular
values of 1e-10 to 1e-16 beyond the enclosed levels, and dividing by them
amplifies rounding (a QR route gave rank estimates of 3.19 and 2.0037 for a
rank-2 projector).  The deflated Hutchinson term needs Pi applied to
Z - Q Q* Z, which the linear trapezoid sum gives as Pi Z - (Pi Q) Q* Z.
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
    # the shift of each shift-invert pass behind the values; no eigenvalue
    # lies below any of them, by the count on its LU or by the Gershgorin
    # bound at or above it
    shifts: List[float] = field(default_factory=list)


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


def _arpack(M, k: int, sigma: float, lu, seed: int):
    """(vals, vecs): the k eigenpairs of M nearest sigma, ascending, by
    ARPACK in shift-invert mode on the given LU of M - sigma I."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(M.shape[0])
    v0 /= np.linalg.norm(v0)
    OPinv = spla.LinearOperator(M.shape, matvec=lu.solve, dtype=M.dtype)
    try:
        vals, vecs = spla.eigsh(M, k=k, sigma=sigma, which="LM", v0=v0,
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
                     shifts: Sequence[float] = ()) -> SpectralResult:
    """L2(grid)-normalized eigenpairs with their residuals ||H v - E v|| / ||v||
    against the full operator and their orthogonality defect; shifts are the
    shift-invert shifts behind vals, each with no eigenvalue below it.

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
                          shifts=[float(x) for x in shifts])


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
    return _verified_result(op, vals, vecs, shifts=[sigma])


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


@dataclass
class Contour:
    """Circle z(theta) = center + radius * exp(i theta), trapezoid nodes.
    The centre must be real: `_sweep` pairs each node with its conjugate."""

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


def _rank_probes(N: int, probes: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=(N, probes)).astype(complex)


# The range Q of Y = Pi Z in the Hutch++ estimate keeps the singular
# directions of Y with s_i > RANGE_CUTOFF * s_1.  Pi Q is W V_k / S_k with
# W = Pi^2 Z, so a kept direction divides by s_i; the dropped ones are the
# quadrature leakage outside the enclosed levels (s_i ~ 1e-10 to 1e-16),
# where that division would amplify rounding into the trace.
RANGE_CUTOFF = 1e-6


def _deflated_trace(Z: np.ndarray, Y: np.ndarray, W: np.ndarray) -> float:
    """Hutch++ trace of Pi from Y = Pi Z and W = Pi^2 Z.

    Q = U_k and Pi Q = W V_k S_k^{-1} from the SVD Y = U S V* cut at
    RANGE_CUTOFF.  The range term tr(Q* Pi Q) carries the whole trace of a
    projector of rank <= probes; the Hutchinson term on the deflated probes
    G = Z - Q (Q* Z) only corrects quadrature leakage.  Pi G is
    Y - (Pi Q)(Q* Z): the trapezoid Pi_m is linear, so no sweep over G or Q
    is needed.
    """
    U, s, Vh = np.linalg.svd(Y, full_matrices=False)
    k = int(np.count_nonzero(s > RANGE_CUTOFF * s[0]))
    Q = U[:, :k]
    PQ = W @ (Vh[:k].conj().T / s[:k])
    C = Q.conj().T @ Z
    G = Z - Q @ C
    PG = Y - PQ @ C
    t_range = float(np.trace(Q.conj().T @ PQ).real)
    t_resid = float(np.mean(np.sum(np.conj(G) * PG, axis=0).real))
    return t_range + t_resid


class ClusterError(RuntimeError):
    """The contour does not enclose a spectral cluster of the expected rank."""


# the largest |rank estimate - rank| that `riesz_project` accepts
RANK_TOL = 0.1

# the projection is accepted at the first node count m whose idempotence
# defect ||Pi_m^2 f - Pi_m f|| / ||f|| is at most IDEMPOTENCE_TOL, after at
# most MAX_DOUBLINGS doublings of m
IDEMPOTENCE_TOL = 1e-8
MAX_DOUBLINGS = 4


def riesz_project(op: SparseHermitianOp, contour: Contour,
                  fields: Sequence[Field], rank: int, probes: int = 8,
                  seed: int = 0):
    """(projected fields, rank estimate, nodes, idempotence defect): the
    Riesz projector Pi applied to a list of Fields, and the Hutch++ trace of
    Pi from `probes` random probes Z, in one sweep over the nodes that
    projects [Z | f] and gives Pi^2 of both.

    rank is the number of levels the caller means the contour to enclose (2
    for the double-well pair in `tunneling.quasimodes`).  A ClusterError is
    raised when the estimate is farther than RANK_TOL from rank, before any
    doubling, so that a wrong contour fails before more sweeps are spent on
    it.  The node count starts at contour.quadrature_nodes and is doubled,
    one more sweep over the fields alone each time, until the idempotence
    defect ||Pi_m^2 f - Pi_m f|| / ||f|| is at most IDEMPOTENCE_TOL for every
    field; nodes is the m used and the defect the largest over the fields at
    that m.
    """
    vecs = np.stack([f.flat() for f in fields], axis=1)
    m = contour.quadrature_nodes
    Z = _rank_probes(vecs.shape[0], probes, seed)
    P1, P2 = _sweep(op, contour, np.hstack([Z, vecs]), m)
    estimate = _deflated_trace(Z, P1[:, :probes], P2[:, :probes])
    if abs(estimate - rank) > RANK_TOL:
        raise ClusterError("projector rank estimate %.3f is not %d "
                           "(contour center %s radius %g)"
                           % (estimate, rank, contour.center, contour.radius))
    p1, p2 = P1[:, probes:], P2[:, probes:]
    norms = np.linalg.norm(vecs, axis=0)
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            m *= 2
            p1, p2 = _sweep(op, contour, vecs, m)
        defect = float(np.max(np.linalg.norm(p2 - p1, axis=0) / norms))
        if defect <= IDEMPOTENCE_TOL:
            return ([field_from_flat(op.grid, p1[:, j])
                     for j in range(p1.shape[1])], estimate, m, defect)
    raise RuntimeError("projector idempotence defect %.3g > %.3g even at "
                       "m=%d nodes" % (defect, IDEMPOTENCE_TOL, m))
