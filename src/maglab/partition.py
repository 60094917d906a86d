"""Dyadic annular partition of unity on R^2.

chi_0 = theta(r/delta), chi_nu = theta(r/2^nu delta) - theta(r/2^{nu-1} delta)
for 1 <= nu <= N-1, chi_N = 1 - theta(r/2^{N-1} delta) with
N = ceil(log2(R/delta)); theta is a nonincreasing smoothed step (1 on [0,1],
0 beyond 2).  The sum telescopes to 1 exactly.  Companions psi_nu (sigma
profiles) are 1 on supp chi_nu, and at any point at most four psi_nu are
nonzero.  Derivatives scale like ||d^k chi_nu|| <= C_k (2^nu delta)^{-k}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np
from numpy.polynomial import polynomial as P


class PartitionError(ValueError):
    pass


def smoothstep_coeffs(order: int) -> np.ndarray:
    """Polynomial coefficients (ascending) of the C^order monotone step on
    [0, 1]: the normalized integral of t^order (1-t)^order."""
    if order < 1:
        raise PartitionError("smoothness order must be >= 1")
    # coefficients of t^m (1-t)^m
    m = order
    base = P.polypow(np.array([0.0, 1.0]), m)
    base = P.polymul(base, P.polypow(np.array([1.0, -1.0]), m))
    integ = P.polyint(base)
    norm = P.polyval(1.0, integ)
    return integ / norm


def smoothstep(t, coeffs: np.ndarray):
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = P.polyval(t, coeffs)
    return float(out) if out.ndim == 0 else out


def _theta(s, coeffs):
    """Nonincreasing C^order profile: 1 on [0,1], 0 on [2,inf)."""
    s = np.asarray(s, dtype=float)
    out = 1.0 - smoothstep(s - 1.0, coeffs)
    return float(out) if np.ndim(out) == 0 else out


def _ramp(s, lo, hi, coeffs):
    """0 below lo, 1 above hi, smooth in between."""
    s = np.asarray(s, dtype=float)
    return smoothstep((s - lo) / (hi - lo), coeffs)


@dataclass
class DyadicPartition:
    delta: float
    R: float
    N: int
    order: int
    chi: List[Callable] = field(default_factory=list)     # radial samplers
    psi: List[Callable] = field(default_factory=list)

    def scale(self, nu: int) -> float:
        """delta_nu = 2^nu * delta."""
        return (2.0 ** nu) * self.delta

    def chi_at(self, nu: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return self.chi[nu](r)

    def psi_at(self, nu: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return self.psi[nu](r)

    def sum_at_radius(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return sum(c(r) for c in self.chi)

    def overlap_count(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return sum((p(r) != 0).astype(int) for p in self.psi)


# smoothness order of the step profiles of `build_partition`
SMOOTHNESS_ORDER = 4
FD_SAMPLES = 2000


def build_partition(delta: float, R: float) -> DyadicPartition:
    """Dyadic partition with N = ceil(log2(R/delta)) annular pieces, whose
    profiles are C^SMOOTHNESS_ORDER.

    Requires R > 8 delta so that the annular (non-edge) indices exist and the
    companion supports stay nested.
    """
    if delta <= 0 or R <= 0:
        raise PartitionError("delta and R must be positive")
    if not R > 8 * delta:
        raise PartitionError("need R > 8*delta (got R = %g, 8*delta = %g)"
                             % (R, 8 * delta))
    N = int(math.ceil(math.log2(R / delta)))
    coeffs = smoothstep_coeffs(SMOOTHNESS_ORDER)

    def theta_scaled(scale):
        return lambda r: _theta(np.asarray(r, dtype=float) / scale, coeffs)

    chi, psi = [], []
    for nu in range(N + 1):
        d_nu = (2.0 ** nu) * delta
        if nu == 0:
            chi.append(theta_scaled(delta))
            psi.append(lambda r, d=delta: 1.0 - _ramp(
                np.asarray(r, dtype=float) / d, 2.0, 3.0, coeffs))
        elif nu < N:
            def chi_nu(r, d=d_nu):
                r = np.asarray(r, dtype=float)
                return _theta(r / d, coeffs) - _theta(2 * r / d, coeffs)
            chi.append(chi_nu)

            def psi_nu(r, d=d_nu):
                s = np.asarray(r, dtype=float) / d
                return _ramp(s, 1.0 / 3.0, 0.5, coeffs) \
                    * (1.0 - _ramp(s, 2.0, 3.0, coeffs))
            psi.append(psi_nu)
        else:
            chi.append(lambda r, d=d_nu: 1.0 - _theta(
                2 * np.asarray(r, dtype=float) / d, coeffs))
            # ramp up on [d_nu/4, d_nu/2] so that at most three annular
            # companions can coexist with psi_N (keeps the overlap at four)
            psi.append(lambda r, d=d_nu: _ramp(
                2 * np.asarray(r, dtype=float) / d, 0.5, 1.0, coeffs))
    return DyadicPartition(delta=delta, R=R, N=N, order=SMOOTHNESS_ORDER,
                           chi=chi, psi=psi)


def _radial_derivative_max(f: Callable, lo: float, hi: float,
                           order: int) -> float:
    """max |d^order f / dr^order| on [lo, hi] by central finite differences.

    Radial profiles: the partial x1-derivative along the x1 axis equals the
    radial derivative, so this is the directional derivative bound.
    """
    r = np.linspace(lo, hi, FD_SAMPLES)
    step = max((hi - lo) * 2e-4, 1e-12)
    if order == 0:
        return float(np.max(np.abs(f(r))))
    if order == 1:
        d = (f(r + step) - f(r - step)) / (2 * step)
    elif order == 2:
        d = (f(r + step) - 2 * f(r) + f(r - step)) / step ** 2
    elif order == 3:
        d = (f(r + 2 * step) - 2 * f(r + step) + 2 * f(r - step)
             - f(r - 2 * step)) / (2 * step ** 3)
    else:
        raise PartitionError("finite-difference orders 0..3 only")
    return float(np.max(np.abs(d)))


@dataclass
class PartitionReport:
    order: int
    scales: np.ndarray
    maxima: np.ndarray
    exponent: float
    exponent_error: float

    def to_json(self, path=None):
        payload = {"order": self.order,
                   "scales": list(map(float, self.scales)),
                   "maxima": list(map(float, self.maxima)),
                   "exponent": self.exponent,
                   "exponent_error": self.exponent_error}
        if path is None:
            return json.dumps(payload, indent=1)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def verify_partition(p: DyadicPartition, order: int) -> PartitionReport:
    """Derivative maxima of the annular chi_nu versus their scale delta_nu,
    and the fitted scaling exponent (expected: -order)."""
    if not 0 <= order <= 3:
        raise PartitionError("verification supports derivative orders 0..3")
    scales, maxima = [], []
    for nu in range(1, p.N):
        d_nu = p.scale(nu)
        lo, hi = d_nu / 4, 4 * d_nu        # covers the support with margin
        m = _radial_derivative_max(p.chi[nu], lo, hi, order)
        scales.append(d_nu)
        maxima.append(m)
    scales = np.asarray(scales)
    maxima = np.asarray(maxima)
    if order == 0:
        return PartitionReport(order=order, scales=scales, maxima=maxima,
                               exponent=0.0, exponent_error=0.0)
    A = np.stack([np.log(scales), np.ones_like(scales)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, np.log(maxima), rcond=None)
    dof = max(len(scales) - 2, 1)
    sig = math.sqrt(float(res[0]) / dof / np.sum(
        (np.log(scales) - np.log(scales).mean()) ** 2)) if len(res) else 0.0
    return PartitionReport(order=order, scales=scales, maxima=maxima,
                           exponent=float(coef[0]), exponent_error=sig)
