"""Closed forms for the anisotropic magnetic harmonic oscillator (MHO).

The operator is

    H = (1/2) [ -Lap + 2 i lam B (x2 d1 - x1 d2)
                + lam^2 (k1^2 + B^2) x1^2 + lam^2 (k2^2 + B^2) x2^2 ]

acting on L^2(R^2), with k1, k2 > 0 and uniform field parameter B.  This module
evaluates its heat kernel q(x, y, s) = lam * P(s) * exp(-phi) (which has unit
delta mass: q -> delta(x-y) as s -> 0+ and satisfies the plain semigroup law
int q(x,z,s) q(z,y,s') dz = q(x,y,s+s')), the ground state psi0 with energy
E0 = lam * f_plus / 2, and the modified Green's function

    G~(x, y, mu) = int_0^inf (e^{mu s} / lam) [ q(x,y,s)
                   - e^{-(f_plus/2) s} psi0(x) psi0~(y) ] ds,

where psi0~ is the dual (analytically continued conjugate) ground state.

All kernel assembly works in log-magnitude + phase form: the hyperbolic
coefficient functions are evaluated in exponentially scaled form (every
sinh/cosh carries its own e^{-arg} factor) so nothing overflows for any s > 0,
and the small-s cancellations are removed by exact product/series
rearrangements.  The crossover between the two regimes is automatic.

`discretize_mho` puts H on the Peierls lattice of `grid_model.build_operator`,
the one lattice builder of the package, for checks against the closed forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.sparse as sp

from .grid_model import Grid2D, ModelParams, SparseHermitianOp, build_operator

class ParameterError(ValueError):
    """Invalid or out-of-wedge MHO parameters."""


class SingularityError(ValueError):
    """Evaluation requested at a point where the quantity is singular."""


class DivergenceError(ValueError):
    """The defining integral does not converge for the requested arguments."""


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class MHOParams:
    """Oscillator strengths k1, k2, field B, and the semiclassical lam."""

    k1: float
    k2: float
    B: complex
    lam: complex

    @property
    def f_plus(self) -> complex:
        return np.sqrt((self.k1 + self.k2) ** 2 + 4 * self.B ** 2 + 0j)

    @property
    def f_minus(self) -> complex:
        return np.sqrt((self.k1 - self.k2) ** 2 + 4 * self.B ** 2 + 0j)

    @property
    def eta(self) -> complex:
        return self.f_plus * self.k1 / (self.k1 + self.k2)

    @property
    def zeta(self) -> complex:
        return self.f_plus * self.k2 / (self.k1 + self.k2)

    @property
    def xi(self) -> complex:
        return 2 * self.B * (self.k1 - self.k2) / (self.k1 + self.k2)

    @property
    def E0(self) -> complex:
        return self.lam * self.f_plus / 2

    @property
    def is_real(self) -> bool:
        return (np.imag(self.lam) == 0 and np.imag(self.B) == 0)


WEDGE_LAMBDA = 1.0   # |Im lam| <= WEDGE_LAMBDA * Re lam
WEDGE_B = 0.2        # |Im B|  <= WEDGE_B


def mho_params(k1, k2, B, lam) -> MHOParams:
    """Validated parameter pack.

    Rejects the degenerate case k1 == k2 with B == 0 (there f_minus = 0 and
    several factored closed forms become indeterminate), and complex inputs
    outside the analyticity wedge |Im lam| <= Re lam, |Im B| <= 0.2.
    """
    k1, k2 = float(k1), float(k2)
    B, lam = complex(B), complex(lam)
    if not (k1 > 0 and k2 > 0):
        raise ParameterError("k1 and k2 must be positive")
    if lam.real <= 0 or abs(lam.imag) > WEDGE_LAMBDA * lam.real:
        raise ParameterError("lam = %s outside the wedge |Im lam| <= %g Re lam"
                             % (lam, WEDGE_LAMBDA))
    if abs(B.imag) > WEDGE_B:
        raise ParameterError("|Im B| = %g exceeds the wedge bound %g"
                             % (abs(B.imag), WEDGE_B))
    p = MHOParams(k1=k1, k2=k2, B=B, lam=lam)
    if abs(p.f_minus) < 1e-12 * abs(p.f_plus):
        raise ParameterError("degenerate input: k1 == k2 with B == 0 "
                             "(f_minus = 0) is rejected")
    return p


# ---------------------------------------------------------------------------
# exponentially scaled hyperbolics


def _sinh_scaled(x):
    """sinh(x) * exp(-x), stable for all Re x >= 0 (uses expm1 near 0)."""
    return -np.expm1(-2 * np.asarray(x)) / 2


def _cosh_scaled(x):
    """cosh(x) * exp(-x)."""
    return (1 + np.exp(-2 * np.asarray(x))) / 2


def _d_series(p: MHOParams, s):
    """f_plus*sinh(f_minus s/2) - f_minus*sinh(f_plus s/2) by its Taylor
    series (the leading terms cancel exactly); valid for |f_plus s/2| < ~1."""
    fp, fm = p.f_plus, p.f_minus
    half = np.asarray(s, dtype=complex) / 2
    acc = np.zeros_like(half)
    term_p, term_m = fp ** 2, fm ** 2   # f^{2n} at n = 1
    pw = half ** 3
    fact = 6.0                          # (2n+1)! at n = 1
    for n in range(1, 16):
        acc = acc + pw * (term_m - term_p) / fact
        term_p, term_m = term_p * fp ** 2, term_m * fm ** 2
        pw = pw * half ** 2
        fact *= (2 * n + 2) * (2 * n + 3)
    return fp * fm * acc


def _phi_coefficients(p: MHOParams, s):
    """Scaled coefficient functions of the heat-kernel exponent.

    Returns (cw1, cw2, cw3, cw4, c14, c23, logK) such that, with
    w1 = x1-y1, w2 = x2-y2, w3 = x1+y1, w4 = x2+y2,

        phi(x, y, s) = lam * ( cw1 w1^2 + cw2 w2^2 + cw3 w3^2 + cw4 w4^2
                               + c14 w1 w4 + c23 w2 w3 )

    and K(s) = exp(logK).  Everything is evaluated with exponentially scaled
    hyperbolics so that the common factor e^{f_plus s} cancels in each ratio;
    no overflow occurs for any s > 0.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    k1, k2 = p.k1, p.k2
    fp, fm = p.f_plus, p.f_minus
    u = fp * s / 2
    v = fm * s / 2

    su, sv = _sinh_scaled(u), _sinh_scaled(v)
    cu, cv = _cosh_scaled(u), _cosh_scaled(v)
    r = np.exp(v - u)                       # |r| <= 1 in the wedge

    Q = fm * (k1 + k2)
    P = fp * (k1 - k2)
    t1, t2 = Q * su, P * sv * r
    Ksc = 2 * (t1 - t2) * (t1 + t2)         # K(s) * e^{-f_plus s}
    if np.any(np.abs(Ksc) == 0):
        raise ZeroDivisionError("K(s) vanished; parameters outside the "
                                "admissible wedge")

    csum = cu + cv * r                      # (cosh(u)+cosh(v)) e^{-u}
    cdiff = 2 * _sinh_scaled((u + v) / 2) * _sinh_scaled((u - v) / 2)

    e1 = Q * su + fp * (k2 - k1) * sv * r   # bracket with (k_j - k_i), i=1
    e2 = Q * su + fp * (k1 - k2) * sv * r   # bracket with (k_j - k_i), i=2
    a12, a21 = k1 * csum * e1, k2 * csum * e2
    b12, b21 = k1 * cdiff * e2, k2 * cdiff * e1

    # D = f_plus sinh(v) - f_minus sinh(u), scaled by e^{-u}; series for
    # small arguments where the direct difference cancels catastrophically
    small = np.abs(u) < 0.5
    s_safe = np.where(small, s, 0.5 / max(abs(fp), 1e-300))
    Dsc = np.where(small,
                   _d_series(p, s_safe) * np.exp(-u * small),
                   fp * sv * r - fm * su)
    g1 = 2 * (k1 ** 2 - k2 ** 2) * Dsc * (fp * sv * r + fm * su)
    g2 = 8 * fp * fm * k1 * k2 * su * sv * r

    pref = fp * fm / (2 * Ksc)
    cw1, cw2 = pref * a12, pref * a21
    cw3, cw4 = pref * b12, pref * b21
    c14 = 1j * p.B * (g1 - g2) / (2 * Ksc)
    c23 = 1j * p.B * (g1 + g2) / (2 * Ksc)
    logK = 2 * u + np.log(Ksc + 0j)
    return cw1, cw2, cw3, cw4, c14, c23, logK


def _log_kernel_ratio(p: MHOParams, x, y, s):
    """log q(x,y,s) - log counterterm(x,y,s), evaluated without cancellation.

    The naive difference of the two logs loses all precision once the kernel
    has collapsed onto the ground-state product (both logs agree to ~16
    digits while the true difference is exponentially small), so every
    coefficient of the difference is rearranged into exactly-cancelled form:
    each term carries an explicit factor e^{-2u} or r = e^{v-u}, the true
    decay scales of the first excited level.
    """
    s = np.asarray(s, dtype=float)
    k1, k2 = p.k1, p.k2
    fp, fm = p.f_plus, p.f_minus
    u, v = fp * s / 2, fm * s / 2
    su, sv = _sinh_scaled(u), _sinh_scaled(v)
    cu, cv = _cosh_scaled(u), _cosh_scaled(v)
    r = np.exp(v - u)
    eu2 = np.exp(-2 * u)

    Q = fm * (k1 + k2)
    P = fp * (k1 - k2)
    t1, t2 = Q * su, P * sv * r
    Ksc = 2 * (t1 - t2) * (t1 + t2)

    # prefactor ratio: log(P(s) e^{f_plus s/2} / C_P) = -(1/2) log(2 Ksc/Q^2)
    two_ksc_minus = Q ** 2 * eu2 * (eu2 - 2) - 4 * P ** 2 * (sv * r) ** 2
    small_u = np.real(u) < 5
    ksc_safe = np.where(np.abs(Ksc) > 0, Ksc, 1.0)
    ratio_safe = np.where(small_u, 0.0, two_ksc_minus / Q ** 2)
    pre = np.where(small_u,
                   0.5 * np.log(Q ** 2 / (2 * ksc_safe) + 0j),
                   -0.5 * np.log1p(ratio_safe))

    # exponent difference phi_inf - phi, coefficient by coefficient
    e1 = Q * su + fp * (k2 - k1) * sv * r
    e2 = Q * su + fp * (k1 - k2) * sv * r
    brA = (fm ** 2 * (k1 + k2) * su * eu2
           + fm * fp * (k2 - k1) * sv * r * cu
           + fm * Q * su * cv * r
           + fm * fp * (k2 - k1) * sv * cv * r ** 2
           + fp ** 2 * (k1 - k2) ** 2 * (sv * r) ** 2 / (k1 + k2))
    brB = (fm ** 2 * (k1 + k2) * su * eu2
           + fm * fp * (k1 - k2) * sv * r * cu
           + fm * Q * su * cv * r
           + fm * fp * (k1 - k2) * sv * cv * r ** 2
           + fp ** 2 * (k1 - k2) ** 2 * (sv * r) ** 2 / (k1 + k2))
    d1 = fp * k1 * brA                       # 2Ksc (cw1 - eta/4)
    d2 = fp * k2 * brB                       # 2Ksc (cw2 - zeta/4)
    d3 = fp * k1 * (brB - 2 * fm * cv * r * e2)   # 2Ksc (cw3 - eta/4)
    d4 = fp * k2 * (brA - 2 * fm * cv * r * e1)   # 2Ksc (cw4 - zeta/4)
    nc14 = 8 * fp * k1 * k2 * sv * r * (fp * (k1 - k2) * sv * r / (k1 + k2)
                                        - fm * su)
    nc23 = 8 * fp * k1 * k2 * sv * r * (fp * (k1 - k2) * sv * r / (k1 + k2)
                                        + fm * su)

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    w1, w2 = x[0] - y[0], x[1] - y[1]
    w3, w4 = x[0] + y[0], x[1] + y[1]
    dphi = -(p.lam / (2 * Ksc)) * (d1 * w1 ** 2 + d2 * w2 ** 2
                                   + d3 * w3 ** 2 + d4 * w4 ** 2
                                   + 1j * p.B * (nc14 * w1 * w4
                                                 + nc23 * w2 * w3))
    return pre + dphi


def _phi(p: MHOParams, x, y, s):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    w1, w2 = x[0] - y[0], x[1] - y[1]
    w3, w4 = x[0] + y[0], x[1] + y[1]
    cw1, cw2, cw3, cw4, c14, c23, logK = _phi_coefficients(p, s)
    phi = p.lam * (cw1 * w1 ** 2 + cw2 * w2 ** 2 + cw3 * w3 ** 2
                   + cw4 * w4 ** 2 + c14 * w1 * w4 + c23 * w2 * w3)
    return phi, logK


# ---------------------------------------------------------------------------
# heat kernel


@dataclass
class SignedLog:
    """q = exp(log_value); returned when the plain value would overflow."""

    log_value: np.ndarray

    @property
    def value(self):
        return np.exp(self.log_value)


def log_heat_kernel(p: MHOParams, x, y, s):
    """log q(x, y, s); s may be a scalar or an array."""
    phi, logK = _phi(p, x, y, s)
    log_pref = (np.log(p.lam) + np.log(p.f_plus * p.f_minus / (2 * np.pi))
                + 0.5 * np.log(2 * p.k1 * p.k2) - 0.5 * logK)
    return log_pref - phi


def heat_kernel(p: MHOParams, x, y, s):
    """Heat kernel q(x, y, s); q -> delta(x - y) as s -> 0+.

    Returns complex values; if |log q| exceeds 700 anywhere (overflow of the
    plain exponential) a SignedLog carrier is returned instead.
    """
    lq = log_heat_kernel(p, x, y, s)
    if np.any(np.real(lq) > 700):
        return SignedLog(log_value=lq)
    out = np.exp(lq)
    return complex(out) if np.ndim(out) == 0 else out


def heat_kernel_direct(p: MHOParams, x, y, s):
    """Reference evaluation by the unfactored hyperbolic formulas.

    Valid only for moderate s (overflows near f_plus*s ~ 1400); kept as an
    independent cross-check of the scaled evaluation path.
    """
    k1, k2 = p.k1, p.k2
    fp, fm = p.f_plus, p.f_minus
    s = float(s)
    Sp, Sm = np.sinh(fp * s / 2), np.sinh(fm * s / 2)
    Cp, Cm = np.cosh(fp * s / 2), np.cosh(fm * s / 2)
    K = (2 * fm ** 2 * (k1 + k2) ** 2 * Sp ** 2
         - 2 * fp ** 2 * (k1 - k2) ** 2 * Sm ** 2)

    def alpha(ki, kj):
        return ki * (fm * (k1 + k2) * np.sinh(fp * s)
                     + fp * (kj - ki) * np.sinh(fm * s))

    def beta(ki, kj):
        A = fp * (ki - kj) + fm * (k1 + k2)
        Bb = fp * (ki - kj) - fm * (k1 + k2)
        return ki * (A * np.sinh((fm - fp) * s / 2)
                     + Bb * np.sinh((fm + fp) * s / 2))

    g1 = (k1 ** 2 - k2 ** 2) * (fp ** 2 * (np.cosh(fm * s) - 1)
                                - fm ** 2 * (np.cosh(fp * s) - 1))
    g2 = 8 * fp * fm * k1 * k2 * Sp * Sm

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    phi = p.lam * (
        fp * fm * alpha(k1, k2) / (2 * K) * (x[0] ** 2 + y[0] ** 2)
        + fp * fm * beta(k1, k2) / K * x[0] * y[0]
        + fp * fm * alpha(k2, k1) / (2 * K) * (x[1] ** 2 + y[1] ** 2)
        + fp * fm * beta(k2, k1) / K * x[1] * y[1]
        + 1j * p.B * g1 / K * (x[0] * x[1] - y[0] * y[1])
        - 1j * p.B * g2 / K * (x[0] * y[1] - x[1] * y[0]))
    pref = p.lam * (fp * fm / (2 * np.pi)) * np.sqrt(2 * k1 * k2 / K)
    return complex(pref * np.exp(-phi))


# ---------------------------------------------------------------------------
# ground state


def ground_state(p: MHOParams, x):
    """psi0(x) = (lam^2 eta zeta / pi^2)^{1/4}
                 * exp(-(lam/2)(eta x1^2 + zeta x2^2 - i xi x1 x2))."""
    x = np.asarray(x, dtype=complex)
    log_amp = 0.5 * np.log(p.lam) + 0.25 * np.log(p.eta * p.zeta / np.pi ** 2)
    expo = -(p.lam / 2) * (p.eta * x[0] ** 2 + p.zeta * x[1] ** 2
                           - 1j * p.xi * x[0] * x[1])
    return np.exp(log_amp + expo)


def dual_ground_state(p: MHOParams, y):
    """Analytic continuation of conj(psi0(y)) off real parameters.

    For real lam and B this is exactly conj(ground_state(p, y)); as a function
    of complex (lam, B) it stays analytic, which is what the modified Green's
    function counterterm requires.
    """
    y = np.asarray(y, dtype=complex)
    log_amp = 0.5 * np.log(p.lam) + 0.25 * np.log(p.eta * p.zeta / np.pi ** 2)
    expo = -(p.lam / 2) * (p.eta * y[0] ** 2 + p.zeta * y[1] ** 2
                           + 1j * p.xi * y[0] * y[1])
    return np.exp(log_amp + expo)


def ground_state_energy(p: MHOParams) -> complex:
    return p.E0


def _log_counterterm(p: MHOParams, x, y, s):
    """log of e^{-(f_plus/2) s} psi0(x) psi0~(y); s may be an array."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    log_amp = np.log(p.lam) + 0.5 * np.log(p.eta * p.zeta / np.pi ** 2)
    expo = -(p.lam / 2) * (p.eta * (x[0] ** 2 + y[0] ** 2)
                           + p.zeta * (x[1] ** 2 + y[1] ** 2)
                           - 1j * p.xi * (x[0] * x[1] - y[0] * y[1]))
    return log_amp + expo - (p.f_plus / 2) * np.asarray(s, dtype=float)


# ---------------------------------------------------------------------------
# modified Green's function


@dataclass(frozen=True)
class RegionBounds:
    """Quadrature-region thresholds and the envelope-bound constants.

    d_bound evaluates D(s) = C log(C/s) on 0 < s < 1 and C' e^{-c s} on
    s >= 1; continuity at s = 1 requires C' e^{-c} = C log C.
    """

    c1: float = 0.1
    C1: float = 10.0
    C: float = math.e          # C log C = e by default
    C_prime: float = math.e ** 2
    c: float = 1.0

    def __post_init__(self):
        if not (0 < self.c1 < 1 < self.C1):
            raise ValueError("need 0 < c1 < 1 < C1")
        if self.C <= 1:
            raise ValueError("need C > 1 so that C log C > 0")
        if self.continuity_defect() > 1e-8 * abs(self.C_prime):
            raise ValueError("D(s) discontinuous at s=1: C' e^{-c} != C log C")

    def continuity_defect(self) -> float:
        return abs(self.C_prime * math.exp(-self.c) - self.C * math.log(self.C))

    @classmethod
    def from_decay(cls, C_prime: float, c: float, **kw) -> "RegionBounds":
        """Solve C log C = C' e^{-c} for C (bisection; C log C is increasing
        on C > 1)."""
        target = C_prime * math.exp(-c)
        if target <= 0:
            raise ValueError("C' e^{-c} must be positive")
        lo, hi = 1.0 + 1e-12, 2.0
        while hi * math.log(hi) < target:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * math.log(mid) < target:
                lo = mid
            else:
                hi = mid
        return cls(C=0.5 * (lo + hi), C_prime=C_prime, c=c, **kw)


def default_region_bounds() -> RegionBounds:
    return RegionBounds()


def d_bound(s, rb: RegionBounds):
    """Envelope function D(s): C log(C/s) below s=1, C' e^{-c s} above."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("s must be positive")
    out = np.where(s < 1.0,
                   rb.C * np.log(rb.C / np.maximum(s, 1e-300)),
                   rb.C_prime * np.exp(-rb.c * np.minimum(s, 1e300)))
    return out if out.ndim else float(out)


def mu_threshold(p: MHOParams, safety: float = 0.9) -> float:
    """Largest admissible Re mu: the integrand of the modified Green's
    function decays like e^{(Re mu - Re(f_plus - f_minus/2)) s}."""
    fp, fm = np.real(p.f_plus), np.real(p.f_minus)
    return fp / 2 + safety * (fp - fm) / 2


@dataclass
class GreenResult:
    value: complex
    abs_error: float

    def __complex__(self):
        return complex(self.value)


def _ts_nodes(level):
    """Tanh-sinh nodes/weights for integrals over (0, 1), step h = 2^-level
    in tau.  The level-L nodes are the even-indexed level-(L+1) nodes with
    twice the weight, so a refinement evaluates only the odd nodes."""
    h = 0.5 ** level
    tau = np.arange(-3.6, 3.6 + h / 2, h)
    # t = (1 + tanh((pi/2) sinh tau))/2 in the cancellation-free sigmoid
    # form, so nodes near 0 keep full relative precision (needed for the
    # t^{a-1} endpoint singularity of the Tricomi integral)
    e = np.pi * np.sinh(tau)
    t = 1.0 / (1.0 + np.exp(-e))
    one_minus_t = 1.0 / (1.0 + np.exp(e))
    dt = h * np.pi * np.cosh(tau) * t * one_minus_t
    keep = (t > 0) & (t < 1)
    return t[keep], dt[keep]


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_X_LO, _GL_W_LO = np.polynomial.legendre.leggauss(12)


def _green_integrand(p: MHOParams, x, y, mu, s):
    """(e^{mu s}/lam) [q - counterterm], stable in both regimes.

    For large s the two terms agree to leading order (and may individually
    grow when Re mu > Re f_plus/2), so the difference is formed as
    counterterm * expm1(log q - log counterterm); for small s, where q
    dominates by many orders, the plain difference is used.
    """
    s = np.asarray(s, dtype=float)
    lc = _log_counterterm(p, x, y, s)
    shift = mu * s - np.log(p.lam)
    d = _log_kernel_ratio(p, x, y, s)
    lq = lc + d
    out = np.empty(np.broadcast(lq, lc).shape, dtype=complex)
    near = np.real(d) < 20
    with np.errstate(divide="ignore"):
        # fully in log form: counterterm growth and difference decay combine
        # in the exponent before exponentiation, so neither can overflow alone
        out[near] = np.exp(lc[near] + shift[near]
                           + np.log(np.expm1(d[near].astype(complex))))
    far = ~near
    out[far] = np.exp(lq[far] + shift[far]) - np.exp(lc[far] + shift[far])
    return out


def _panel(p, x, y, mu, a, b, nodes, weights):
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    ss = mid + rad * nodes
    return rad * np.sum(weights * _green_integrand(p, x, y, mu, ss))


# the head of `modified_green` is refined through level HEAD_MAX_LEVEL of
# `_ts_nodes` until two successive levels differ by less than
# HEAD_TOL * max(1, |value|)
HEAD_TOL = 1e-12
HEAD_MAX_LEVEL = 11


def _head(p, x, y, mu, b):
    """(value, |difference of the last two levels|): tanh-sinh quadrature of
    the integrand on (0, b), on the `_ts_nodes` of (0, 1) scaled by b, from
    level 1, each level halving the previous sum and adding its odd nodes."""
    t, dt = _ts_nodes(1)
    val = b * np.sum(_green_integrand(p, x, y, mu, b * t) * dt)
    for level in range(2, HEAD_MAX_LEVEL + 1):
        t, dt = _ts_nodes(level)
        new = val / 2 + b * np.sum(
            _green_integrand(p, x, y, mu, b * t[1::2]) * dt[1::2])
        err, val = abs(new - val), new
        if err < HEAD_TOL * max(1.0, abs(val)):
            break
    return val, err


def modified_green(p: MHOParams, x, y, mu) -> GreenResult:
    """G~(x, y, mu) = int_0^inf (e^{mu s}/lam) [q - counterterm] ds.

    Adaptive quadrature split at the thresholds of the default RegionBounds:
    tanh-sinh on (0, c1] (`_head`), dyadic Gauss-Legendre panels on
    [c1, C1], exponentially growing panels beyond C1, truncated when a
    panel's contribution falls below 1e-16 of the running total.  Returns
    the value with an absolute error estimate.
    """
    rb = default_region_bounds()
    mu = complex(mu)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.allclose(x, y, atol=0.0):
        raise SingularityError("modified Green's function is logarithmically "
                               "singular on the diagonal x = y")
    if mu.real >= mu_threshold(p):
        raise DivergenceError("Re mu = %g at or beyond the convergence "
                              "threshold %g" % (mu.real, mu_threshold(p)))

    total, err = _head(p, x, y, mu, rb.c1)

    # dyadic Gauss-Legendre panels on [c1, C1]
    a = rb.c1
    while a < rb.C1:
        b = min(2 * a, rb.C1)
        hi = _panel(p, x, y, mu, a, b, _GL_X, _GL_W)
        lo = _panel(p, x, y, mu, a, b, _GL_X_LO, _GL_W_LO)
        total += hi
        err += abs(hi - lo)
        a = b

    # exponential tail: growing panels, truncated on the envelope test
    decay = np.real(p.f_plus - p.f_minus / 2) - mu.real
    width = max(1.0, 1.0 / decay)
    a = rb.C1
    for _ in range(400):
        b = a + width
        hi = _panel(p, x, y, mu, a, b, _GL_X, _GL_W)
        lo = _panel(p, x, y, mu, a, b, _GL_X_LO, _GL_W_LO)
        total += hi
        err += abs(hi - lo)
        if abs(hi) < 1e-16 * max(abs(total), 1e-300):
            break
        a = b
        width *= 1.5
    else:
        raise DivergenceError("tail quadrature did not converge")

    return GreenResult(value=complex(total), abs_error=float(err))


def load_green_bound_constants() -> dict:
    """Frozen calibration constants for |G~| <= C * D(c |lam| |x-y| (|x|+|y|))."""
    with resources.files("maglab.data").joinpath(
            "d_bound_constants.json").open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# semigroup check and lattice discretization


def mho_semigroup_defect(p: MHOParams, s: float, s_prime: float) -> float:
    """Relative defect of int q(x,z,s) q(z,y,s') dz = q(x,y,s+s') at two
    fixed points, the z-integral a Riemann sum on [-2.5, 2.5]^2, n = 400."""
    L, n = 2.5, 400
    z = np.linspace(-L, L, n)
    h = z[1] - z[0]
    Z1, Z2 = np.meshgrid(z, z, indexing="ij")
    x, y = (0.31, -0.22), (-0.14, 0.37)
    Kx = heat_kernel(p, x, (Z1, Z2), s)
    Ky = heat_kernel(p, (Z1, Z2), y, s_prime)
    lhs = heat_kernel(p, x, y, s + s_prime)
    rhs = np.sum(Kx * Ky) * h * h
    return abs(rhs - lhs) / abs(lhs)


def discretize_mho(p: MHOParams, grid: Grid2D) -> SparseHermitianOp:
    """H on the grid, as the Peierls lattice operator of
    `grid_model.build_operator` (Dirichlet walls at the outermost node ring)
    plus the oscillator potential, halved.  Requires real parameters, and
    inherits the builder's check h*lam <= 0.5.

    H = (1/2)[(P - A)^2 + lam^2 (k1^2 x1^2 + k2^2 x2^2)] with
    A = -lam B x_perp.  The builder's field (b lam/2) x_perp with b = 2|B|
    is this A for B < 0 and its negative for B > 0, where the complex
    conjugate of its matrix is taken.
    """
    if not p.is_real:
        raise ParameterError("grid discretization requires real lam and B")
    lam = float(np.real(p.lam))
    Bf = float(np.real(p.B))
    params = ModelParams(lam=lam, b=2 * abs(Bf), d1=0.0,
                         a=grid.half_extent / 2)
    M = build_operator(params, grid).matrix
    if Bf > 0:
        M = M.conj()
    X1, X2 = grid.meshes()
    pot = lam ** 2 * (p.k1 ** 2 * X1 ** 2 + p.k2 ** 2 * X2 ** 2)
    pot[[0, -1], :] = 0.0                   # wall nodes carry no potential
    pot[:, [0, -1]] = 0.0
    H = 0.5 * (M + sp.diags(pot.ravel()))
    return SparseHermitianOp(matrix=H.tocsr(), grid=grid, params=params,
                             n_wells=0)
