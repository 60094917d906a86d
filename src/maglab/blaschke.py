"""Half-plane Blaschke products, positive-harmonic (Herglotz) bounds, wedge
pullback, and lower-bound certificates.

The objects live on the right half-plane H = {Re z > 0}.  A Blaschke factor
B_a(z) = (z - a)/(z + conj(a)) maps H to the unit disc and vanishes at a;
normalizing phases make each factor positive at z = 1.  For |F| <= 1 with
|F(1)| >= e^{-beta}, the dyadic-block average of -log|F| over [delta, 2delta]
is bounded by (18 + log 2 + (3/2) delta^2) beta / delta, and on a wedge of
half-angle alpha*pi/2 the corresponding bound at scale R is
80 alpha 2^{1/alpha} beta R^{1/alpha} (plus an envelope term when |F| <= |U|
instead of |F| <= 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class DomainError(ValueError):
    """Argument outside the right half-plane (or alpha outside (0, 1])."""


class PhaseError(ValueError):
    """Normalizing phase undefined (zero at the reference point)."""


class DivergenceError(RuntimeError):
    """-log|F| is non-integrable on the requested block (F vanishes on a set
    of positive measure as far as sampling can tell)."""


class CertificateError(RuntimeError):
    """A theorem hypothesis failed; the message names the violated
    inequality."""


# ---------------------------------------------------------------------------
# factors and products


def factor(a: complex, z):
    """Single Blaschke factor B_a(z) = (z - a)/(z + conj(a)) on Re z > 0."""
    a = complex(a)
    if a.real <= 0:
        raise DomainError("zero a = %s must have Re a > 0" % a)
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= 0):
        raise DomainError("evaluation point must have Re z > 0")
    out = (z - a) / (z + np.conj(a))
    return complex(out) if out.ndim == 0 else out


def normalizing_phase(a: complex) -> float:
    """theta with e^{i theta} (1 - a)/(1 + conj(a)) real positive."""
    a = complex(a)
    if a.real <= 0:
        raise DomainError("zero a = %s must have Re a > 0" % a)
    w = (1 - a) / (1 + np.conj(a))
    if w == 0:
        raise PhaseError("normalizing phase undefined at a = 1")
    return float(-np.angle(w))


REAL_ZERO_TOL = 1e-14


@dataclass
class BlaschkeZeroSet:
    """Finite zero list with normalizing phases and a budget beta at z = 1."""

    zeros: List[complex]
    phases: List[float]
    beta: float

    @classmethod
    def from_zeros(cls, zeros: Sequence[complex],
                   beta: Optional[float] = None) -> "BlaschkeZeroSet":
        zeros = [complex(a) for a in zeros]
        phases = [normalizing_phase(a) for a in zeros]
        zs = cls(zeros=zeros, phases=phases, beta=0.0)
        if beta is not None:
            zs.beta = float(beta)
        else:
            # smallest budget satisfying every hypothesis of the product
            # estimate theorem
            zs.beta = max(zs.neg_log_at_one(), zs.budget_small(),
                          zs.budget_big())
        return zs

    def neg_log_at_one(self) -> float:
        return float(sum(-math.log(abs(factor(a, 1.0))) for a in self.zeros))

    def budget_small(self) -> float:
        return float(sum(a.real for a in self.zeros if abs(a) < 1))

    def budget_big(self) -> float:
        return float(sum((1 / a).real for a in self.zeros if abs(a) >= 1))

    def violated_hypotheses(self) -> List[str]:
        out = []
        tol = 1e-12
        if self.neg_log_at_one() > self.beta + tol:
            out.append("-log|B(1)| = %.6g > beta = %.6g"
                       % (self.neg_log_at_one(), self.beta))
        if self.budget_small() > self.beta + tol:
            out.append("sum_{|a|<1} Re a = %.6g > beta = %.6g"
                       % (self.budget_small(), self.beta))
        if self.budget_big() > self.beta + tol:
            out.append("sum_{|a|>=1} Re(1/a) = %.6g > beta = %.6g"
                       % (self.budget_big(), self.beta))
        return out

    def real_zeros_in(self, lo: float, hi: float) -> List[float]:
        """The zeros in (lo, hi) whose |Im a| is at most REAL_ZERO_TOL, as
        sorted reals."""
        return sorted(a.real for a in self.zeros
                      if abs(a.imag) <= REAL_ZERO_TOL and lo < a.real < hi)


def product(zs: BlaschkeZeroSet, z):
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for a, th in zip(zs.zeros, zs.phases):
        out = out * (np.exp(1j * th) * factor(a, z))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# mfun averaging


def mfun(x):
    """min(x, 1/x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("mfun requires x > 0")
    out = np.minimum(x, 1.0 / x)
    return float(out) if out.ndim == 0 else out


def avg_mfun(alpha: float, delta: float) -> float:
    """(1/delta) * integral_{delta}^{2 delta} mfun(t/alpha) dt, closed form."""
    if alpha <= 0 or delta <= 0:
        raise DomainError("avg_mfun requires positive alpha and delta")
    if alpha < delta:
        return math.log(2.0) * alpha / delta
    if alpha > 2 * delta:
        return 1.5 * delta / alpha
    return ((alpha ** 2 - delta ** 2) / (2 * delta * alpha)
            + (alpha / delta) * math.log(2 * delta / alpha))


# ---------------------------------------------------------------------------
# block averages of -log|F|


def _on_nodes(F: Callable, t: np.ndarray) -> np.ndarray:
    """F evaluated on the node array t in one call; a scalar result (a
    constant callable) is broadcast to the shape of t."""
    return np.broadcast_to(np.asarray(F(t), dtype=complex), t.shape)


# `_gl_panel_sum` grades PANEL_LEVELS geometric panels toward each end of
# a sub-interval, each with a PANEL_ORDER-point Gauss-Legendre rule
PANEL_LEVELS = 42
PANEL_ORDER = 8


def _gl_panel_sum(F: Callable, lo: float, hi: float) -> Tuple[float, int]:
    """(integral_{lo}^{hi} -log|F| dt, number of nodes F was evaluated at)
    with geometric panel grading toward both endpoints (where integrable log
    singularities may sit).  F is called once, on the nodes of every panel."""
    gx, gw = np.polynomial.legendre.leggauss(PANEL_ORDER)
    mid = 0.5 * (lo + hi)
    panels = []
    for (a0, b0) in ((lo, mid), (hi, mid)):     # grade from each endpoint
        sgn = 1.0 if b0 > a0 else -1.0
        length = abs(b0 - a0)
        edges = [a0 + sgn * length * 2.0 ** (-k)
                 for k in range(PANEL_LEVELS, -1, -1)]
        edges = [a0] + edges
        for p, q in zip(edges[:-1], edges[1:]):
            lo_p, hi_p = (p, q) if q > p else (q, p)
            if hi_p > lo_p:
                panels.append((lo_p, hi_p))
    lo_p, hi_p = (np.array(e)[:, None] for e in zip(*panels))
    t = lo_p + (gx + 1) * (hi_p - lo_p) / 2
    w = gw * (hi_p - lo_p) / 2
    vals = np.abs(_on_nodes(F, t.ravel())).reshape(t.shape)
    hit = np.flatnonzero(np.any(vals == 0, axis=1))
    if hit.size:
        raise DivergenceError("F vanishes at a quadrature node in [%g, %g]"
                              % panels[hit[0]])
    # panel sums added one after another, in panel order
    return float(np.cumsum(np.sum(-np.log(vals) * w, axis=1))[-1]), t.size


def _block_average(F: Callable, delta: float,
                   zeros: Sequence[float] = ()) -> Tuple[float, int]:
    """(avg_neg_log(F, delta, zeros), number of nodes F was evaluated at)."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    pts = [delta] + sorted(z for z in zeros if delta < z < 2 * delta) \
        + [2 * delta]
    total, nodes = 0.0, 0
    for p, q in zip(pts[:-1], pts[1:]):
        if q > p:
            integral, k = _gl_panel_sum(F, p, q)
            total += integral
            nodes += k
    return total / delta, nodes


def avg_neg_log(F: Callable, delta: float,
                zeros: Sequence[float] = ()) -> float:
    """(1/delta) * integral_{delta}^{2 delta} -log|F(t)| dt.

    F takes an array of points and returns F at each (or one scalar for a
    constant F).  zeros: known real zeros of F inside the block; the
    quadrature subdivides there so each log singularity sits at a panel
    endpoint.
    """
    return _block_average(F, delta, zeros)[0]


# ---------------------------------------------------------------------------
# Herglotz measures


@dataclass
class HerglotzMeasure:
    """Purely atomic positive measure plus a linear coefficient A >= 0."""

    atoms: List[Tuple[float, float]] = field(default_factory=list)
    linear_coefficient: float = 0.0

    def __post_init__(self):
        if self.linear_coefficient < 0:
            raise DomainError("linear coefficient A must be >= 0")
        for psi, m in self.atoms:
            if m < 0:
                raise DomainError("atom masses must be >= 0")

    @property
    def beta_measure(self) -> float:
        return float(sum(m / (1 + psi ** 2) for psi, m in self.atoms))

    def mass_at_zero(self) -> float:
        return float(sum(m for psi, m in self.atoms if psi == 0.0))

    def avg_on_block(self, delta: float) -> float:
        """(1/delta) * integral_{delta}^{2 delta} [A t + u(t)] dt, closed form:
        each atom contributes (m/2) log((psi^2+4 delta^2)/(psi^2+delta^2))."""
        total = self.linear_coefficient * 1.5 * delta ** 2
        for psi, m in self.atoms:
            total += 0.5 * m * math.log((psi ** 2 + 4 * delta ** 2)
                                        / (psi ** 2 + delta ** 2))
        return total / delta


def herglotz_eval(m: HerglotzMeasure, w):
    """u(w) = A Re w + sum_i m_i Re w / ((Im w - psi_i)^2 + (Re w)^2), at a
    point or elementwise on an array of points."""
    w = np.asarray(w, dtype=complex)
    x, y = w.real, w.imag
    if np.any(x <= 0):
        raise DomainError("herglotz_eval requires Re w > 0")
    u = m.linear_coefficient * x
    for psi, mass in m.atoms:
        u = u + mass * x / ((y - psi) ** 2 + x ** 2)
    return float(u) if u.ndim == 0 else u


# ---------------------------------------------------------------------------
# wedge pullback


def wedge_pullback(F: Callable, alpha: float) -> Callable:
    """F-tilde(z) = F(z^{-alpha}) on the half-plane (principal branch);
    maps t in [delta, 2 delta] to s in [(2 delta)^{-alpha}, delta^{-alpha}].
    The pullback takes a point or an array of points, as F must."""
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")

    def pulled(z):
        z = np.asarray(z, dtype=complex)
        if np.any(z.real <= 0):
            raise DomainError("pullback argument must have Re z > 0")
        return F(np.exp(-alpha * np.log(z)))

    return pulled


# ---------------------------------------------------------------------------
# certificates


HALF_PLANE_CONSTANT = 18.0           # dyadic-average Blaschke bound
WEDGE_CONSTANT = 80.0                # wedge-average bound prefactor


@dataclass
class LowerBoundCertificate:
    mode: str                         # "half-plane" | "wedge"
    delta_or_R: float
    measured_avg: float
    theorem_bound: float
    margin: float
    mu0_estimate: float
    beta: float
    hypotheses: dict
    quadrature_nodes: int             # F evaluations behind measured_avg

    def to_json(self, path=None):
        payload = {
            "mode": self.mode,
            "delta_or_R": self.delta_or_R,
            "measured_avg": self.measured_avg,
            "theorem_bound": self.theorem_bound,
            "margin": self.margin,
            "mu0_estimate": self.mu0_estimate,
            "beta": self.beta,
            "hypotheses": self.hypotheses,
            "quadrature_nodes": self.quadrature_nodes,
        }
        if path is None:
            return json.dumps(payload, indent=1)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def half_plane_bound(beta: float, delta: float) -> float:
    return (HALF_PLANE_CONSTANT + math.log(2.0) + 1.5 * delta ** 2) \
        * beta / delta


def wedge_bound(beta_eff: float, R: float, alpha: float) -> float:
    return WEDGE_CONSTANT * alpha * 2.0 ** (1.0 / alpha) * beta_eff \
        * R ** (1.0 / alpha)


def synthetic_f(zero_set: BlaschkeZeroSet,
                measure: Optional[HerglotzMeasure] = None) -> Callable:
    """|F(t)| = |B(t)| e^{-A t - u(t)} for the certificate's model data, at a
    point or on an array of points."""
    def F(t):
        val = product(zero_set, t)
        if measure is not None:
            val = val * np.exp(-herglotz_eval(measure, t))
        return val
    return F


# `estimate_mu0` samples MU0_SAMPLES interior points of its block;
# `certify_lower_bound` checks |F| <= |U| at DOMINATION_SAMPLES points
MU0_SAMPLES = 33
DOMINATION_SAMPLES = 64


def estimate_mu0(F: Callable, delta: float) -> float:
    """Median of t * (-log|F(t)|) over MU0_SAMPLES interior points of the
    block [delta, 2 delta], F evaluated on all of them in one call; samples
    where F vanishes are left out."""
    ts = np.linspace(delta, 2 * delta, MU0_SAMPLES + 2)[1:-1]
    m = np.abs(_on_nodes(F, ts))
    keep = m != 0
    if not keep.any():
        raise DivergenceError("F vanished at every sample point")
    return float(max(np.median(ts[keep] * -np.log(m[keep])), 0.0))


def certify_lower_bound(zero_set: Optional[BlaschkeZeroSet] = None,
                        measure: Optional[HerglotzMeasure] = None,
                        delta: Optional[float] = None,
                        R: Optional[float] = None,
                        alpha: Optional[float] = None,
                        F: Optional[Callable] = None,
                        envelope: Optional[Callable] = None,
                        beta: Optional[float] = None) -> LowerBoundCertificate:
    """Lower-bound certificate in either half-plane or wedge mode.

    Half-plane (delta given): data are a zero set plus an optional Herglotz
    measure; measured is the block average of -log|F| for the synthetic
    F = B e^{-G}; the bound is (18 + log 2 + (3/2) delta^2) beta / delta.

    Wedge ((R, alpha) given): F is a callable on the wedge, optionally
    dominated by a nowhere-zero envelope U; the bound is
    80 alpha 2^{1/alpha} (beta + log|U(1)|) R^{1/alpha} plus the envelope's
    own block average.

    Every callable is evaluated on arrays of points; a scalar result (a
    constant callable) is broadcast.
    """
    if delta is not None:
        if zero_set is None:
            raise ValueError("half-plane certificates need a zero set")
        if not (0 < delta < 0.25):
            raise CertificateError("hypothesis violated: delta = %g not in "
                                   "(0, 1/4)" % delta)
        beta_used = zero_set.beta if beta is None else float(beta)
        neg_log_b1 = zero_set.neg_log_at_one()
        gr1 = 0.0
        if measure is not None:
            gr1 = measure.linear_coefficient + measure.beta_measure
        total1 = neg_log_b1 + gr1
        if total1 > beta_used + 1e-12:
            raise CertificateError(
                "hypothesis violated: -log|F(1)| = %.6g > beta = %.6g"
                % (total1, beta_used))
        bad = zero_set.violated_hypotheses()
        if bad:
            raise CertificateError("hypothesis violated: " + "; ".join(bad))

        Fm = synthetic_f(zero_set, measure)
        zs_real = zero_set.real_zeros_in(delta, 2 * delta)
        measured, nodes = _block_average(lambda t: product(zero_set, t),
                                         delta, zeros=zs_real)
        if measure is not None:
            measured += measure.avg_on_block(delta)
        bound = half_plane_bound(beta_used, delta)
        mu0 = estimate_mu0(Fm, delta)
        return LowerBoundCertificate(
            mode="half-plane", delta_or_R=delta, measured_avg=measured,
            theorem_bound=bound, margin=bound - measured, mu0_estimate=mu0,
            beta=beta_used,
            hypotheses={"neg_log_F_at_1": total1,
                        "budget_small": zero_set.budget_small(),
                        "budget_big": zero_set.budget_big()},
            quadrature_nodes=nodes)

    if R is None or alpha is None:
        raise ValueError("pass delta (half-plane) or both R and alpha (wedge)")
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    if not R > 2 ** alpha:
        raise CertificateError("hypothesis violated: R = %g <= 2^alpha = %g"
                               % (R, 2 ** alpha))
    if F is None:
        raise ValueError("wedge certificates need the callable F")
    if beta is None:
        beta = zero_set.beta if zero_set is not None else None
    if beta is None:
        raise ValueError("wedge certificates need beta")

    U = envelope if envelope is not None else (lambda t: 1.0 + 0.0j)
    f1, u1 = abs(F(1.0)), abs(U(1.0))
    if u1 == 0:
        raise CertificateError("hypothesis violated: envelope U(1) = 0")
    if -math.log(max(f1, 1e-300)) > beta + 1e-12:
        raise CertificateError("hypothesis violated: -log|F(1)| = %.6g > "
                               "beta = %.6g" % (-math.log(f1), beta))
    ts = np.linspace(min(1.0, R), 2 * R, DOMINATION_SAMPLES)
    f, u = np.abs(_on_nodes(F, ts)), np.abs(_on_nodes(U, ts))
    over = np.flatnonzero(f > u * (1 + 1e-10))
    if over.size:
        i = over[0]
        raise CertificateError("hypothesis violated: |F(%g)| = %.6g > "
                               "|U(%g)| = %.6g" % (ts[i], f[i], ts[i], u[i]))
    measured, nodes = _block_average(F, R)
    env_avg = avg_neg_log(U, R)
    bound = wedge_bound(beta + math.log(u1), R, alpha) + env_avg
    # mu0 trend: -log|F(t)| + log|U(t)| ~ mu0 * t^{1/alpha}
    tsamp = np.linspace(R, 2 * R, 33)
    f, u = np.abs(_on_nodes(F, tsamp)), np.abs(_on_nodes(U, tsamp))
    keep = f > 0
    zero_u = np.flatnonzero(keep & (u == 0))
    if zero_u.size:
        raise CertificateError("hypothesis violated: envelope U(%g) = 0"
                               % tsamp[zero_u[0]])
    vals = (-np.log(f[keep]) + np.log(u[keep])) / tsamp[keep] ** (1.0 / alpha)
    mu0 = float(max(np.median(vals), 0.0)) if vals.size else 0.0
    return LowerBoundCertificate(
        mode="wedge", delta_or_R=R, measured_avg=measured,
        theorem_bound=bound, margin=bound - measured, mu0_estimate=mu0,
        beta=float(beta),
        hypotheses={"alpha": alpha, "envelope_at_1": u1,
                    "neg_log_F_at_1": -math.log(max(f1, 1e-300))},
        quadrature_nodes=nodes)
