"""Physical parameters, sampling grids, well potentials, and the gauge-covariant
lattice discretization of 2D magnetic Schrodinger operators.

The continuum operators are

    h = (P - (b*lam/2) X_perp)^2 + lam^2 v(X)          (single well)
    H = (P - (b*lam/2) X_perp)^2 + lam^2 [v(X-d) + v(X+d)]   (double well)

in the symmetric gauge A(x) = (b*lam/2) x_perp, x_perp = (-x2, x1).  On the
lattice we use a 5-point stencil with Peierls link phases exp(i * int A . dl)
evaluated by the midpoint rule, which keeps the operator exactly Hermitian and
gives a uniform flux of -b*lam*h^2 per plaquette.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

# two wells at +-d1 of radius a must satisfy 2 d1 > SEPARATION_CONSTANT * a
SEPARATION_CONSTANT = 2.0


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration shared by all solvers: coupling lam (real),
    field b, well centres at +-(d1, 0) and well radius a.  The well's shape
    and curvature live in its WellSpec."""

    lam: float
    b: float
    d1: float
    a: float

    def __post_init__(self):
        lam = complex(self.lam)
        if lam.imag != 0:
            raise ValueError("lam must be real, got %s" % (self.lam,))
        object.__setattr__(self, "lam", lam.real)
        if self.a <= 0:
            raise ValueError("well radius a must be positive")
        if self.d1 < 0:
            raise ValueError("d1 must be nonnegative")
        if self.b < 0:
            raise ValueError("b must be nonnegative")

    def separation_ok(self) -> bool:
        return 2 * self.d1 > SEPARATION_CONSTANT * self.a


# `Grid2D.commensurate` accepts offsets within this many grid steps of a
# whole number
COMMENSURATE_TOL = 1e-9


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on [-L, L]^2 with n points per axis (n even)."""

    half_extent: float
    n: int

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError("n must be an even positive integer")
        if self.half_extent <= 0:
            raise ValueError("half_extent must be positive")

    @property
    def spacing(self) -> float:
        return 2 * self.half_extent / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_extent, self.half_extent, self.n)

    def meshes(self):
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def commensurate(self, z) -> bool:
        """Whether every entry of z is a whole number of grid steps, to
        COMMENSURATE_TOL steps."""
        z = np.asarray(z, dtype=float)
        steps = z / self.spacing
        return bool(np.all(np.abs(steps - np.round(steps)) < COMMENSURATE_TOL))

    def snap(self, z) -> np.ndarray:
        """Round a 2-vector to the nearest grid-commensurate displacement."""
        z = np.asarray(z, dtype=float)
        return np.round(z / self.spacing) * self.spacing


def choose_grid(params: ModelParams, n: int, double_well: bool = True,
                pad: float = 0.0) -> Grid2D:
    """Grid on [-L, L]^2 with the decay rule L = d1 + a + 6/sqrt(lam) + pad
    (d1 = 0 for a single well).  This is the one formula for the margin
    6/sqrt(lam) past the wells, and `build_operator` checks double-well
    grids against it.  The margin does not depend on the well's curvature,
    whose one source is `WellSpec.hessian_at_origin`."""
    L = (params.d1 if double_well else 0.0) + params.a \
        + 6.0 / np.sqrt(params.lam) + pad
    return Grid2D(half_extent=L, n=n)


@dataclass
class Field:
    """Complex samples on a Grid2D, shaped (n, n), index [i, j] = (x1_i, x2_j)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError("values shape %s does not match grid n=%d"
                             % (v.shape, self.grid.n))
        self.values = v.astype(complex) if not np.iscomplexobj(v) else v

    @property
    def h(self) -> float:
        return self.grid.spacing

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.h ** 2))

    def inner(self, other: "Field") -> complex:
        # <self, other>, antilinear in the first slot
        return complex(np.sum(np.conj(self.values) * other.values) * self.h ** 2)

    def normalized(self) -> "Field":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero field")
        return Field(self.grid, self.values / n)

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def field_from_flat(grid: Grid2D, vec: np.ndarray) -> Field:
    return Field(grid, np.asarray(vec).reshape(grid.n, grid.n))


# ---------------------------------------------------------------------------
# wells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellSpec:
    """Compactly supported single-well profile v(x) = -(1 - <x,Sx>)^p on
    <x,Sx> < 1, zero outside.  Range [-1, 0], v(0) = -1, Hessian(0) = 2pS."""

    exponent: int = 4
    shape: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        if self.exponent < 4:
            raise ValueError("well exponent must be >= 4 for C^3 regularity")
        S = np.asarray(self.shape, dtype=float)
        if S.shape != (2, 2) or not np.allclose(S, S.T, atol=1e-12):
            raise ValueError("shape matrix must be symmetric 2x2")
        if np.any(np.linalg.eigvalsh(S) <= 0):
            raise ValueError("shape matrix must be positive definite")
        object.__setattr__(self, "shape", S)

    @staticmethod
    def radial(a: float, p: int = 4) -> "WellSpec":
        return WellSpec(exponent=p, shape=np.eye(2) / a ** 2)

    @property
    def support_radius(self) -> float:
        # v vanishes outside <x,Sx> >= 1, i.e. outside the ellipse; the
        # enclosing ball has radius 1/sqrt(min eig S)
        return 1.0 / np.sqrt(float(np.linalg.eigvalsh(self.shape)[0]))

    def hessian_at_origin(self) -> np.ndarray:
        return 2.0 * self.exponent * self.shape


def well_values(spec: WellSpec, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Sample v at the given coordinate arrays (well centered at the origin)."""
    S = spec.shape
    u = S[0, 0] * X1 ** 2 + 2 * S[0, 1] * X1 * X2 + S[1, 1] * X2 ** 2
    inside = u < 1.0
    v = np.zeros_like(u)
    v[inside] = -((1.0 - u[inside]) ** spec.exponent)
    return v


def build_well(spec: WellSpec, params: ModelParams, grid: Grid2D,
               center=(0.0, 0.0)) -> Field:
    """Sampled v(x - center) on the grid. The grid must cover the support ball."""
    center = np.asarray(center, dtype=float)
    r = spec.support_radius
    if np.max(np.abs(center)) + r > grid.half_extent + 1e-12:
        raise ValueError(
            "grid [-%g, %g]^2 does not cover the well support ball of radius %g "
            "around %s" % (grid.half_extent, grid.half_extent, r, center))
    X1, X2 = grid.meshes()
    return Field(grid, well_values(spec, X1 - center[0], X2 - center[1]))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass
class SparseHermitianOp:
    """Peierls-discretized magnetic Schrodinger operator (CSR, exactly Hermitian)."""

    matrix: sp.csr_matrix
    grid: Grid2D
    params: ModelParams
    n_wells: int = 0

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: Field) -> Field:
        return field_from_flat(self.grid, self.matrix @ f.flat())

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.conj().T
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def max_nnz_per_row(self) -> int:
        return int(np.max(np.diff(self.matrix.indptr)))


FLUX_PER_PLAQUETTE_BOUND = 0.5


def build_operator(params: ModelParams, grid: Grid2D,
                   wells: Sequence[tuple] = (),
                   gauge_origin=(0.0, 0.0)) -> SparseHermitianOp:
    """Assemble the lattice Hamiltonian.

    wells: list of (WellSpec, center) pairs; length 0 (Landau), 1, or 2.
    Two wells must be separated (`ModelParams.separation_ok`) and the grid
    must reach the extent `choose_grid` gives them.  Dirichlet walls at +-L.
    Link phase on the bond x -> x + h e_j is
    exp(i h A_j(midpoint)) with A = (b lam / 2) (x - gauge_origin)_perp.
    h * lam must not exceed FLUX_PER_PLAQUETTE_BOUND.
    """
    lam = params.lam
    if len(wells) > 2:
        raise ValueError("at most two wells")
    h = grid.spacing
    if h * lam > FLUX_PER_PLAQUETTE_BOUND + 1e-12:
        raise ValueError("h*lam = %.3g exceeds the flux-per-plaquette bound "
                         "%.3g; refine the grid"
                         % (h * lam, FLUX_PER_PLAQUETTE_BOUND))
    if len(wells) == 2:
        if not params.separation_ok():
            raise ValueError("well separation 2*d1 = %g does not exceed C*a = %g"
                             % (2 * params.d1, SEPARATION_CONSTANT * params.a))
        Lmin = choose_grid(params, grid.n).half_extent
        if grid.half_extent < Lmin - 1e-12:
            raise ValueError("grid half extent %g below the decay rule minimum %g"
                             % (grid.half_extent, Lmin))

    X1, X2 = grid.meshes()
    n = grid.n
    N = n * n

    vtot = np.zeros((n, n))
    for spec, center in wells:
        center = np.asarray(center, dtype=float)
        if not grid.commensurate(center):
            raise ValueError("well center %s is not grid-commensurate (h=%g)"
                             % (center, h))
        vtot += build_well(spec, params, grid, center).values.real

    blam = params.b * lam
    o1, o2 = float(gauge_origin[0]), float(gauge_origin[1])

    # the outermost ring of nodes (at +-L) are wall nodes: pinned to zero and
    # decoupled, so the hard wall sits exactly at +-L and the 1D Dirichlet
    # slice has the exact discrete spectrum (2/h^2)(1 - cos(pi j h / 2L))
    interior = np.zeros((n, n), dtype=bool)
    interior[1:-1, 1:-1] = True

    diag = 4.0 / h ** 2 + lam ** 2 * np.where(interior, vtot, 0.0).ravel()
    idx = np.arange(N).reshape(n, n)

    # covariant difference: hopping phase on the bond x -> x + h e_j is
    # exp(-i h A_j(midpoint)) with A = (blam/2) (x - o)_perp, i.e.
    # A1 = -(blam/2)(x2 - o2), A2 = +(blam/2)(x1 - o1)
    ph1 = np.exp(1j * h * ((blam / 2) * (X2[:-1, :] - o2)))
    ph2 = np.exp(-1j * h * ((blam / 2) * (X1[:, :-1] - o1)))

    keep1 = (interior[:-1, :] & interior[1:, :]).ravel()
    keep2 = (interior[:, :-1] & interior[:, 1:]).ravel()
    rows = np.concatenate([idx[:-1, :].ravel()[keep1], idx[:, :-1].ravel()[keep2]])
    cols = np.concatenate([idx[1:, :].ravel()[keep1], idx[:, 1:].ravel()[keep2]])
    vals = np.concatenate([(-1.0 / h ** 2) * ph1.ravel()[keep1],
                           (-1.0 / h ** 2) * ph2.ravel()[keep2]])

    A = sp.coo_matrix((vals, (rows, cols)), shape=(N, N))
    A = A + A.conj().T                      # exact Hermiticity by construction
    A = A + sp.diags(diag.astype(complex))
    return SparseHermitianOp(matrix=A.tocsr(), grid=grid, params=params,
                             n_wells=len(wells))


def plaquette_phases(op: SparseHermitianOp, count: int = 100,
                     seed: int = 0) -> np.ndarray:
    """Product of link phases around `count` random plaquettes (counterclockwise
    from the lower-left corner).  Should equal exp(-i*b*lam*h^2) uniformly."""
    n = op.grid.n
    M = op.matrix.tocsr()
    idx = np.arange(n * n).reshape(n, n)
    h2 = op.grid.spacing ** (-2)
    rng = np.random.default_rng(seed)
    # sample plaquettes whose four links all lie in the interior (the wall ring
    # at +-L carries no links)
    ii = rng.integers(1, n - 2, size=count)
    jj = rng.integers(1, n - 2, size=count)

    def link(i, j):
        # hopping phase on the directed bond i -> j (stored value is -phase/h^2)
        return -M[i, j] / h2

    out = np.empty(count, dtype=complex)
    for k, (i, j) in enumerate(zip(ii, jj)):
        a, b_, c, d = idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1]
        out[k] = link(a, b_) * link(b_, c) * link(c, d) * link(d, a)
    return out


def magnetic_translate(f: Field, z, blambda: float) -> Field:
    """Zak magnetic translation (R^z f)(x) = exp(i(blambda/2) x.z_perp) f(x-z).

    x.z_perp = x2*z1 - x1*z2.  z must be grid-commensurate; values shifted past
    the boundary are dropped (zero fill).
    """
    grid = f.grid
    z = np.asarray(z, dtype=float)
    if not grid.commensurate(z):
        raise ValueError("translation %s is not grid-commensurate (h=%g)"
                         % (z, grid.spacing))
    s1, s2 = (int(round(c / grid.spacing)) for c in z)
    out = np.zeros_like(f.values)
    n = grid.n
    src1 = slice(max(0, -s1), min(n, n - s1))
    dst1 = slice(max(0, s1), min(n, n + s1))
    src2 = slice(max(0, -s2), min(n, n - s2))
    dst2 = slice(max(0, s2), min(n, n + s2))
    out[dst1, dst2] = f.values[src1, src2]
    X1, X2 = grid.meshes()
    phase = np.exp(1j * (blambda / 2) * (X2 * z[0] - X1 * z[1]))
    return Field(grid, phase * out)
