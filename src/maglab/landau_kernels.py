"""Closed-form Landau kernels and the compact-support resolvent application.

The Landau Hamiltonian (P - (B/2) x_perp)^2 with uniform field B has heat
kernel

    q_B(x, y, t) = B / (4 pi sinh(Bt))
                   * exp( -(B/4) coth(Bt) |x-y|^2 - i (B/2) x^y )

(x^y = x1 y2 - x2 y1) and spectrum B(2N+1).  Its resolvent kernel is, for
spectral parameter z off the pole lattice,

    K_B(z; x, y) = (1/4pi) Gamma(A) U(A, 1, w)
                   * exp( -i (B/2) x^y - (B/4) |x-y|^2 ),

with A = 1/2 - z/(2B) and w = B |x-y|^2 / 2, where U is Tricomi's confluent
hypergeometric function evaluated through its Laplace-type integral
representation.  The product Gamma(A) * U(A,1,w) is always computed as the
raw (un-normalized) integral, which is positive for real arguments and free
of the overflow/cancellation of forming Gamma and U separately: a tanh-sinh
head on [0, 1] (Takahasi and Mori, Publ. RIMS 9, 1974), refined by nested
levels that each evaluate only the new odd-indexed nodes, plus geometric
Gauss-Legendre panels on [1, inf) that every argument leaves by its own stop
rule.  The arithmetic is real when A and every w are real (B and z real),
complex otherwise.

On a grid with axis a and spacing h the kernel factorizes as

    K_B(z; x_ij, x_i0j0) = F(i - i0, j - j0) E1[i, j0] E2[j, i0],

a radial factor F times E1[i, j0] = exp(-i (B/2) a_i a_j0) and
E2[j, i0] = exp(+i (B/2) a_j a_i0), so applying the resolvent to a compactly
supported field is a twisted convolution (Folland, Harmonic Analysis in
Phase Space, 1989, ch. 1).  apply_landau_resolvent evaluates it as one dense
product per row offset i - i0 (BLAS), with F tabulated over a window of the
offsets the support reaches: at most (2n - 1)^2 entries, 11.5 MB at n = 600,
real when B and z are real (complex, twice the memory, otherwise).  Each
call builds its own window; nothing is cached between calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.special as spec

from .grid_model import Field
from .mho_kernels import _GL_W, _GL_X, SignedLog, _ts_nodes

# spectral parameters closer than POLE_GUARD to the pole lattice (in the
# rescaled distance of `pole_distance`) are refused
POLE_GUARD = 1e-6
# the relative tolerance of the kernel tables of `apply_landau_resolvent`
# (`_radial_table`, `_diagonal_cell`)
TABLE_REL_TOL = 1e-9


class PoleProximityError(ValueError):
    """Spectral parameter too close to the Landau pole lattice."""

    def __init__(self, distance, guard):
        super().__init__("spectral parameter within %g of the pole lattice "
                         "(guard %g)" % (distance, guard))
        self.distance = distance


class DomainError(ValueError):
    """Arguments outside the integral-representation domain."""


class SupportError(ValueError):
    """Input support touches the grid boundary."""


# ---------------------------------------------------------------------------
# heat kernel


def _wedge(x, y):
    return x[0] * y[1] - x[1] * y[0]


def log_landau_heat_kernel(B, x, y, t):
    """log of the Landau heat kernel; B may be 0 or complex, t > 0 scalar or
    array."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    B = complex(B)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    d2 = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2

    bt = B * t
    if abs(B) * np.max(t) < 1e-4:
        # series of Bt/sinh(Bt) and Bt*coth(Bt) about Bt = 0
        ratio = 1 - bt ** 2 / 6 + 7 * bt ** 4 / 360          # Bt/sinh(Bt)
        btcoth = 1 + bt ** 2 / 3 - bt ** 4 / 45              # Bt*coth(Bt)
        log_pref = np.log(ratio / (4 * np.pi * t))
        expo = -btcoth / (4 * t) * d2
    else:
        # log(B/sinh(Bt)) via the scaled form sinh(z) e^{-z} = (1-e^{-2z})/2
        # for Re z >= 0; for Re(Bt) < 0 use sinh(-z) = -sinh(z)
        btp = np.where(np.real(bt) >= 0, bt, -bt)
        sb = -np.expm1(-2 * btp) / 2                         # sinh(btp) e^{-btp}
        log_sinh = btp + np.log(sb + 0j)
        flip = np.where(np.real(bt) >= 0, 1.0, -1.0)
        log_pref = np.log(flip * B / (4 * np.pi)) - log_sinh
        coth = flip * (1 + np.exp(-2 * btp)) / (2 * sb)      # coth(bt)
        expo = -(B / 4) * coth * d2
    return log_pref + expo - 1j * (B / 2) * _wedge(x, y)


def landau_heat_kernel(B, x, y, t):
    """Landau heat kernel; returns a SignedLog carrier on overflow."""
    lq = log_landau_heat_kernel(B, x, y, t)
    if np.any(np.real(lq) > 700):
        return SignedLog(log_value=lq)
    out = np.exp(lq)
    return complex(out) if np.ndim(out) == 0 else out


def landau_semigroup_defect(B, s: float, s_prime: float) -> float:
    """Relative defect of int q(x,z,s) q(z,y,s') dz = q(x,y,s+s') at two
    fixed points, the z-integral a Riemann sum on [-6, 6]^2, n = 480."""
    L, n = 6.0, 480
    z = np.linspace(-L, L, n)
    h = z[1] - z[0]
    Z1, Z2 = np.meshgrid(z, z, indexing="ij")
    x, y = (0.4, -0.1), (-0.3, 0.2)
    Kx = landau_heat_kernel(B, x, (Z1, Z2), s)
    Ky = landau_heat_kernel(B, (Z1, Z2), y, s_prime)
    lhs = landau_heat_kernel(B, x, y, s + s_prime)
    rhs = np.sum(Kx * Ky) * h * h
    return abs(rhs - lhs) / abs(lhs)


# ---------------------------------------------------------------------------
# Tricomi U via the Laplace-type integral


def _integrand(a, z, t, dt):
    """sum over nodes t (weights dt) of e^{-tz} exp(a (log t - log1p t))
    (z + a/(1+t)) for each entry of the 1-D array z, as two matrix-vector
    products.  Both exponentials have modulus <= 1 for Re a > 0 and
    Re z > 0, and the second does not depend on z."""
    w = np.exp(a * (np.log(t) - np.log1p(t))) * dt
    e = np.exp(-np.multiply.outer(z, t))
    return z * (e @ w) + e @ (w * a / (1 + t))


def _tail(a, z, head):
    """The [1, inf) part of `gamma_tricomi_u`'s integral for the 1-D array
    z: geometric Gauss-Legendre panels [lo, 2 lo].  An argument stops
    taking panels once its panel falls below 1e-17 of |head + tail| and
    lo Re z >= 1, where the panel weight lo e^{-lo Re z} is past its peak,
    so later panels only shrink; a slower argument in the same call does
    not hold it.  The tail does not depend on the head's quadrature
    level."""
    tail = np.zeros_like(head)
    live = np.arange(len(z))
    lo = 1.0
    for _ in range(300):   # reaches t ~ 2^300: covers Re z down to ~1e-88
        hi = 2 * lo
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        piece = rad * _integrand(a, z[live], mid + rad * _GL_X, _GL_W)
        tail[live] += piece
        ref = np.maximum(np.abs(head[live] + tail[live]), 1e-300)
        done = (np.abs(piece) < 1e-17 * ref) & (lo * z[live].real >= 1)
        live = live[~done]
        if not len(live):
            return tail
        lo = hi
    raise DomainError("tail of the U integral did not converge "
                      "(Re z too small?)")


def gamma_tricomi_u(a, z, rel_tol: float = 1e-10):
    """Gamma(a) * U(a, 1, z) as one un-normalized Laplace integral,

        int_0^inf e^{-tz} t^{a-1} (1+t)^{-a} dt
          = (1/a) int_0^inf t^a (1+t)^{-a} e^{-tz} (z + a/(1+t)) dt

    after one integration by parts, which removes the t^{a-1} endpoint
    singularity exactly (for small Re a the mass of the original integrand
    sits at t ~ e^{-1/a}, far below any floating-point node; the 1/a pole is
    carried analytically instead).

    Requires finite a and z with Re a > 0 and Re z > 0.  z may be an array;
    the result is complex with z's shape.  The arithmetic is real when
    Im a = 0 and every z is real, complex otherwise.  The [1, inf) tail is
    computed once, each argument taking panels until its own stop rule
    holds (`_tail`).  The [0, 1] head is tanh-sinh from level 4, refined
    until two successive levels agree to rel_tol; the level-L nodes are the
    even-indexed level-(L+1) nodes, so each refinement halves the previous
    head and adds the odd nodes only.
    """
    a = complex(a)
    zarr = np.asarray(z, dtype=complex)
    if not np.isfinite(a):
        raise DomainError("a = %s is not finite" % a)
    if not np.all(np.isfinite(zarr)):
        raise DomainError("z = %s is not finite"
                          % complex(zarr[~np.isfinite(zarr)][0]))
    if a.real <= 0:
        raise DomainError("integral representation needs Re a > 0")
    if np.any(np.real(zarr) <= 0):
        raise DomainError("integral representation needs Re z > 0")
    zf = zarr.ravel()
    if a.imag == 0 and not np.any(zf.imag):
        a, zf = a.real, zf.real
    head = _integrand(a, zf, *_ts_nodes(4))
    tail = _tail(a, zf, head)
    prev = (head + tail) / a
    for level in (5, 6, 7):
        t, dt = _ts_nodes(level)
        head = head / 2 + _integrand(a, zf, t[1::2], dt[1::2])
        cur = (head + tail) / a
        if np.all(np.abs(cur - prev) <= rel_tol * np.abs(cur)):
            cur = cur.reshape(zarr.shape).astype(complex)
            return cur if np.ndim(z) else complex(cur)
        prev = cur
    raise DomainError("U quadrature failed to reach the relative tolerance")


def tricomi_u(a, z):
    """Tricomi's confluent hypergeometric U(a, 1, z), Re a > 0, Re z > 0, to
    `gamma_tricomi_u`'s default relative tolerance."""
    return gamma_tricomi_u(a, z) / spec.gamma(complex(a))


# ---------------------------------------------------------------------------
# resolvent kernel


def pole_distance(B, z) -> float:
    """Distance of A = 1/2 - z/(2B) from the nonpositive integers, i.e. the
    (rescaled) distance of z from the Landau levels B(2N+1)."""
    if not (np.isfinite(B) and np.isfinite(z)):
        raise DomainError("B = %s and z = %s must be finite" % (B, z))
    A = 0.5 - complex(z) / (2 * complex(B))
    n = max(0, round(-A.real))
    return min(abs(A + n), abs(A + n + 1), abs(A + max(n - 1, 0)))


def landau_resolvent_kernel(B, z, x, y):
    """Landau resolvent kernel (H_B - z)^{-1}(x, y) for x != y, with
    `gamma_tricomi_u`'s default relative tolerance; z within POLE_GUARD of
    the pole lattice is refused."""
    B, z = complex(B), complex(z)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2 = float(np.sum((x - y) ** 2))
    if d2 == 0:
        raise DomainError("resolvent kernel is log-singular at x = y")
    dist = pole_distance(B, z)
    if dist < POLE_GUARD:
        raise PoleProximityError(dist, POLE_GUARD)
    A = 0.5 - z / (2 * B)
    w = B * d2 / 2
    if w.real <= 0:
        raise DomainError("Re(B|x-y|^2/2) must be positive")
    core = gamma_tricomi_u(A, w) / (4 * np.pi)
    phase = np.exp(-1j * (B / 2) * _wedge(x, y) - (B / 4) * d2)
    return complex(core * phase)


# ---------------------------------------------------------------------------
# resolvent application on a grid


def _radial_table(B, z, r2_int, h):
    """F(d) = (1/4pi) Gamma(A) U(A,1,B d^2/2) e^{-B d^2/4} for the unique
    lattice distances d^2 = h^2 * r2_int (r2_int an integer array > 0)."""
    A = 0.5 - complex(z) / (2 * complex(B))
    d2 = (h ** 2) * r2_int.astype(float)
    w = complex(B) * d2 / 2
    out = np.empty(len(d2), dtype=complex)
    chunk = 4096
    for i in range(0, len(d2), chunk):
        out[i:i + chunk] = gamma_tricomi_u(A, w[i:i + chunk], TABLE_REL_TOL)
    return out / (4 * np.pi) * np.exp(-complex(B) * d2 / 4)


def _diagonal_cell(B, z, h):
    """int_{|u| < rho} F(|u|) du over the equal-area disk of one grid cell,
    by radial tanh-sinh quadrature (the integrand is r * log(r)-like)."""
    A = 0.5 - complex(z) / (2 * complex(B))
    rho = h / np.sqrt(np.pi)
    t, dt = _ts_nodes(6)
    keep = t > 1e-10           # r log(r) integrand: smaller radii contribute
    t, dt = t[keep], dt[keep]  # below double precision
    r = rho * t
    w = complex(B) * r ** 2 / 2
    vals = gamma_tricomi_u(A, w, TABLE_REL_TOL) / (4 * np.pi) \
        * np.exp(-complex(B) * r ** 2 / 4)
    return complex(2 * np.pi * rho * np.sum(vals * r * dt))


def _radial_window(B, z, h, half_rows, half_cols):
    """The kernel's radial factor on the offsets |di| <= half_rows,
    |dj| <= half_cols, as a (2 half_rows + 1, 2 half_cols + 1) array with
    offset (0, 0) at its centre, where it is 0 (the diagonal cell is
    integrated separately).  gamma_tricomi_u runs once per distinct
    di^2 + dj^2; the window is real when B and z are."""
    di2 = np.arange(half_rows + 1) ** 2
    dj2 = np.arange(half_cols + 1) ** 2
    r2, inverse = np.unique((di2[:, None] + dj2[None, :]).ravel(),
                            return_inverse=True)
    values = np.zeros(len(r2), dtype=complex)
    values[1:] = _radial_table(B, z, r2[1:], h)   # r2[0] == 0, the diagonal
    if complex(B).imag == 0 and complex(z).imag == 0:
        values = values.real
    quadrant = values[inverse].reshape(len(di2), len(dj2))
    rows = np.abs(np.arange(-half_rows, half_rows + 1))
    cols = np.abs(np.arange(-half_cols, half_cols + 1))
    return quadrant[rows[:, None], cols[None, :]]


def apply_landau_resolvent(B, z, f: Field) -> Field:
    """(H_B - z)^{-1} f by product-grid quadrature of the kernel integral.

    f must be compactly supported strictly inside the grid (one empty node
    ring).  The log-singular diagonal cell is integrated by local polar
    refinement; every other cell uses the midpoint product rule,

        g[i, j] = h^2 sum_{(i0, j0)} F[i - i0, j - j0] E1[i, j0] E2[j, i0]
                  f[i0, j0],

    with F the radial factor of the kernel, E1[i, j0] = exp(-i(B/2) a_i
    a_j0) and E2[j, i0] = exp(+i(B/2) a_j a_i0) for the grid axis a: the
    twisted convolution of f with F (Folland, Harmonic Analysis in Phase
    Space, 1989, ch. 1).  The magnetic phase does not let an FFT
    diagonalize it, but it splits by row offset di = i - i0.  For each di
    one dense product takes the Toeplitz block T[j, c] = F[di, j - j0_c]
    (n x C) times the support matrix E1[i0 + di, j0] f[i0, j0] (C x P),
    for the support's P rows i0 and C columns j0; the result, multiplied
    by E2[j, i0], goes into rows i0 + di.

    F is tabulated as a window over the offsets the support reaches,
    |di| <= max(i0_max, n - 1 - i0_min) and the same for the columns: at
    most (2n - 1)^2 entries, 11.5 MB at n = 600, twice that when B or z is
    complex.  gamma_tricomi_u runs once per distinct lattice distance in
    that window.  When B and z are real the window is real and each
    product is one real GEMM on the interleaved real and imaginary parts
    of the support matrix.  Nothing is kept between calls.
    """
    B, z = complex(B), complex(z)
    dist = pole_distance(B, z)
    if dist < POLE_GUARD:
        raise PoleProximityError(dist, POLE_GUARD)
    grid = f.grid
    n, h = grid.n, grid.spacing
    vals = f.values
    sup = np.abs(vals) > 0
    if not sup.any():
        return Field(grid, np.zeros_like(vals, dtype=complex))
    si, sj = np.nonzero(sup)
    if si.min() == 0 or sj.min() == 0 or si.max() == n - 1 or sj.max() == n - 1:
        raise SupportError("input support touches the grid boundary")

    rows, cols = np.unique(si), np.unique(sj)
    half_rows = max(rows[-1], n - 1 - rows[0])
    half_cols = max(cols[-1], n - 1 - cols[0])
    window = _radial_window(B, z, h, half_rows, half_cols)
    real = not np.iscomplexobj(window)

    axis = grid.axis()
    # E1 over (support column, any row), E2 over (any column, support row)
    e1 = np.exp(-1j * (B / 2) * axis[cols][:, None] * axis[None, :])
    e2 = np.exp(1j * (B / 2) * axis[:, None] * axis[rows][None, :])
    support_t = vals[np.ix_(rows, cols)].T                  # (C, P)
    # toeplitz[j, c] indexes the window row at column offset j - j0_c
    toeplitz = np.arange(n)[:, None] - cols[None, :] + half_cols
    out_t = np.zeros((n, n), dtype=complex)                 # out_t[j, i]
    for di in range(-half_rows, half_rows + 1):
        lo = np.searchsorted(rows, -di)
        hi = np.searchsorted(rows, n - 1 - di, side="right")
        if lo == hi:
            continue
        target = rows[lo:hi] + di
        modulated = np.multiply(e1[:, target], support_t[:, lo:hi],
                                order="C")                  # (C, P')
        block = window[di + half_rows][toeplitz]            # (n, C)
        if real:
            # real (n, C) times complex (C, P') as one real GEMM on the
            # interleaved (C, 2P') view
            prod = (block @ modulated.view(float)).view(complex)
        else:
            prod = block @ modulated
        out_t[:, target] += prod * e2[:, lo:hi]
    out = out_t.T.copy()                                    # C order
    out *= h * h
    out[si, sj] += vals[si, sj] * _diagonal_cell(B, z, h)
    return Field(grid, out)


def resolvent_norm_envelope(lam, b, diameter) -> float:
    """Frozen-constant envelope for ||R f|| / ||f|| with complex coupling:
    C * |lam|^sharp * exp( (b |Im lam| diameter / 2)^2 / (b Re lam) ), with
    C and sharp from `load_landau_constants`."""
    constants = load_landau_constants()
    lam = complex(lam)
    C = constants["norm_C"]
    sharp = constants["norm_sharp"]
    growth = (0.5 * b * abs(lam.imag) * diameter) ** 2 / (b * lam.real)
    return C * abs(lam) ** sharp * np.exp(growth)


def load_landau_constants() -> dict:
    with resources.files("maglab.data").joinpath(
            "landau_constants.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# off-diagonal decay


@dataclass
class DecayFit:
    rate: float
    band: float                      # 1-sigma confidence band of the slope
    distances: np.ndarray
    log_norms: np.ndarray
    low_dynamic_range: bool

    def dynamic_range_decades(self) -> float:
        return float((self.log_norms.max() - self.log_norms.min())
                     / np.log(10.0))


def _support_distance(axis, sup):
    """Euclidean distance of every node from the nearest node of the support
    mask sup (0 on the support).

    Only boundary nodes of the support, those with a 4-neighbour outside it
    (or off the grid), are searched: from an interior node a step toward any
    node off the support reaches another support node strictly nearer to
    it, so the nearest support node always lies on the boundary.  They are
    taken a row at a time: the nearest boundary node of row r to node
    (i, j) is the one of the nearest column, so
    d(i, j) = min_r hypot(a_i - a_r, min_c |a_j - a_c|) over the boundary
    rows r and their boundary columns c, one full-grid hypot per row
    instead of one per node.  hypot grows with |y|, so this is the minimum
    of hypot over the boundary nodes to the last bit.
    """
    padded = np.pad(sup, 1)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    bi, bj = np.nonzero(sup & ~interior)
    d = np.full(sup.shape, np.inf)
    for r in np.unique(bi):
        dy = np.min(np.abs(axis[:, None] - axis[bj[bi == r]]), axis=1)
        np.minimum(d, np.hypot((axis - axis[r])[:, None], dy[None, :]),
                   out=d)
    d[sup] = 0.0
    return d


def offdiag_decay_rate(B, z, f: Field, ring_radii) -> DecayFit:
    """Fitted exponential decay rate of ||chi_S R chi_K f|| with distance.

    f defines the compact source K (its support); ring_radii are the inner
    radii of annuli (width = one radius step) measured from the support hull.
    """
    g = apply_landau_resolvent(B, z, f)
    grid = f.grid
    d = _support_distance(grid.axis(), np.abs(f.values) > 0)

    radii = np.asarray(sorted(ring_radii), dtype=float)
    widths = np.diff(radii)
    widths = np.append(widths, widths[-1] if len(widths) else radii[-1])
    dists, norms = [], []
    h = grid.spacing
    for r, wdt in zip(radii, widths):
        mask = (d >= r) & (d < r + wdt)
        if not mask.any():
            continue
        nrm = np.sqrt(np.sum(np.abs(g.values[mask]) ** 2) * h * h)
        if nrm == 0:
            continue
        dists.append(r)
        norms.append(np.log(nrm))
    dists = np.asarray(dists)
    lognorms = np.asarray(norms)
    if len(dists) < 3:
        raise ValueError("need at least three resolved rings")
    M = np.stack([dists, np.ones_like(dists)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(M, lognorms, rcond=None)
    slope = coef[0]
    dof = max(len(dists) - 2, 1)
    sigma2 = (res[0] / dof) if len(res) else 0.0
    band = float(np.sqrt(sigma2 / np.sum((dists - dists.mean()) ** 2)))
    span = (lognorms.max() - lognorms.min()) / np.log(10.0)
    return DecayFit(rate=float(-slope), band=band, distances=dists,
                    log_norms=lognorms, low_dynamic_range=bool(span < 4.0))

