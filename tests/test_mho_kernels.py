"""Magnetic harmonic oscillator kernels: Mehler product oracle at zero field,
scaled vs direct evaluation, delta-family normalization, the envelope D(s),
and analyticity probes of the modified Green's function."""

import math

import numpy as np
import pytest

from maglab.grid_model import Field, Grid2D
from maglab.mho_kernels import (
    GreenResult,
    MHOParams,
    ParameterError,
    RegionBounds,
    SignedLog,
    d_bound,
    default_region_bounds,
    discretize_mho,
    dual_ground_state,
    ground_state,
    ground_state_energy,
    heat_kernel,
    heat_kernel_direct,
    log_heat_kernel,
    mho_params,
    modified_green,
    mu_threshold,
)
from maglab.spectral import lowest_eigs


def mehler_1d(omega, x, y, t):
    """Heat kernel of (1/2)(-d^2/dx^2 + omega^2 x^2)."""
    s, c = math.sinh(omega * t), math.cosh(omega * t)
    return math.sqrt(omega / (2 * math.pi * s)) * math.exp(
        -(omega / 2) * ((x ** 2 + y ** 2) * c - 2 * x * y) / s)


def test_zero_field_kernel_is_mehler_product():
    # at B = 0 the operator separates; the kernel is a product of 1D Mehler
    # kernels with frequencies lam*k1 and lam*k2.  Time is measured in units
    # of 1/lam (the semigroup is generated by H/lam, so the ground level
    # decays at rate f_plus/2 = (k1+k2)/2, not lam(k1+k2)/2).
    lam, k1, k2 = 7.0, 1.0, 2.0
    p = mho_params(k1, k2, 0.0, lam)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 2)
        y = rng.uniform(-0.8, 0.8, 2)
        s = rng.uniform(0.05, 3.0)
        got = heat_kernel(p, x, y, s)
        oracle = (mehler_1d(lam * k1, x[0], y[0], s / lam)
                  * mehler_1d(lam * k2, x[1], y[1], s / lam))
        assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_scaled_evaluation_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(30):
        k1, k2 = rng.uniform(0.5, 2.5, 2)
        B = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.15, 0.15))
        lam = complex(rng.uniform(2.0, 10.0), 0.0)
        lam += 1j * rng.uniform(-0.5, 0.5) * lam.real
        p = mho_params(k1, k2, B, lam)
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        s = rng.uniform(0.05, 2.0)
        got = heat_kernel(p, x, y, s)
        ref = heat_kernel_direct(p, x, y, s)
        assert abs(got - ref) <= 1e-9 * abs(ref)


def test_kernel_stable_at_huge_times():
    # the scaled path must survive times where every hyperbolic overflows;
    # there the kernel collapses onto e^{-E0 s} psi0(x) psi0~(y)
    p = mho_params(1.0, 2.0, 0.5, 5.0)
    x = np.array([0.3, -0.2])
    y = np.array([-0.1, 0.4])
    for s in (50.0, 200.0, 1000.0):
        lq = log_heat_kernel(p, x, y, s)
        expected = (np.log(ground_state(p, x))
                    + np.log(dual_ground_state(p, y))
                    - (p.f_plus / 2) * s)
        assert abs(lq - expected) < 1e-8 * max(1.0, abs(expected))


def test_delta_family_unit_mass():
    # integral of q(x, ., s) -> 1 as s -> 0+
    p = mho_params(1.0, 2.0, 0.5, 3.0)
    x = (0.05, -0.1)
    L, n = 1.2, 600
    z = np.linspace(-L, L, n)
    h = z[1] - z[0]
    Z1, Z2 = np.meshgrid(z, z, indexing="ij")
    for s, tol in ((0.01, 0.05), (0.001, 0.005)):
        total = np.sum(heat_kernel(p, x, (Z1, Z2), s)) * h * h
        assert abs(total - 1.0) < tol


def test_ground_state_is_normalized_and_reproduced_by_kernel():
    p = mho_params(1.0, 2.0, 0.5, 6.0)
    L, n = 2.0, 400
    z = np.linspace(-L, L, n)
    h = z[1] - z[0]
    Z1, Z2 = np.meshgrid(z, z, indexing="ij")
    psi = ground_state(p, (Z1, Z2))
    mass = np.sum(np.abs(psi) ** 2) * h * h
    assert abs(mass - 1.0) < 1e-8
    # the semigroup reproduces its ground state: decay rate f_plus/2
    s = 0.4
    x = (0.22, -0.31)
    K = heat_kernel(p, x, (Z1, Z2), s)
    lhs = np.sum(K * psi) * h * h
    rhs = np.exp(-(p.f_plus / 2) * s) * ground_state(p, x)
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


def test_dual_ground_state_is_conjugate_for_real_parameters():
    p = mho_params(1.3, 0.8, -0.4, 5.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = rng.uniform(-1, 1, 2)
        assert abs(dual_ground_state(p, y)
                   - np.conj(ground_state(p, y))) < 1e-14


def test_params_identities():
    p = mho_params(1.0, 2.0, 0.5, 10.0)
    # f_pm = sqrt((k1 +- k2)^2 + 4 B_M^2) with B_M = -B/2... the closed forms
    # must satisfy eta + zeta = f_plus and E0 = lam f_plus / 2
    assert abs(p.eta + p.zeta - p.f_plus) < 1e-14
    assert abs(p.E0 - p.lam * p.f_plus / 2) < 1e-12
    assert abs(p.f_plus ** 2 - p.f_minus ** 2
               - 4 * p.k1 * p.k2) < 1e-12


def test_params_validation():
    with pytest.raises(ParameterError):
        mho_params(1.0, 1.0, 0.0, 5.0)       # degenerate f_minus = 0
    with pytest.raises(ParameterError):
        mho_params(1.0, 2.0, 0.5, -3.0)      # Re lam <= 0
    with pytest.raises(ParameterError):
        mho_params(1.0, 2.0, 0.5, 1.0 + 2.0j)  # outside the wedge
    with pytest.raises(ParameterError):
        mho_params(1.0, 2.0, 0.5j, 5.0)      # |Im B| too large
    with pytest.raises(ParameterError):
        mho_params(-1.0, 2.0, 0.5, 5.0)


def test_d_bound_shape_and_continuity():
    rb = default_region_bounds()
    assert rb.continuity_defect() < 1e-12
    # log region below s = 1, exponential decay above
    assert d_bound(0.01, rb) > d_bound(0.5, rb) > d_bound(1.5, rb) \
        > d_bound(5.0, rb)
    assert abs(d_bound(1.0 - 1e-10, rb) - d_bound(1.0 + 1e-10, rb)) < 1e-7
    assert abs(d_bound(2.0, rb) - rb.C_prime * math.exp(-2 * rb.c)) < 1e-14
    assert abs(d_bound(0.5, rb) - rb.C * math.log(rb.C / 0.5)) < 1e-14
    with pytest.raises(ValueError):
        d_bound(0.0, rb)


def test_region_bounds_from_decay_solves_continuity():
    rb = RegionBounds.from_decay(C_prime=5.0, c=0.7)
    assert rb.continuity_defect() < 1e-8
    with pytest.raises(ValueError):
        RegionBounds(C=2.0, C_prime=100.0, c=1.0)   # discontinuous at s=1


def test_mu_threshold_formula():
    p = mho_params(1.0, 2.0, 0.5, 10.0)
    fp, fm = np.real(p.f_plus), np.real(p.f_minus)
    assert abs(mu_threshold(p) - (fp / 2 + 0.9 * (fp - fm) / 2)) < 1e-14
    assert abs(mu_threshold(p, safety=0.5)
               - (fp / 2 + 0.5 * (fp - fm) / 2)) < 1e-14


def test_modified_green_reports_error_and_is_analytic():
    p = mho_params(1.0, 2.0, 0.5, 6.0)
    x = np.array([0.3, -0.1])
    y = np.array([-0.2, 0.25])
    mu = 0.4 * mu_threshold(p) + 0.2j
    g = modified_green(p, x, y, mu)
    assert isinstance(g, GreenResult)
    assert g.abs_error < 1e-6 * abs(g.value)
    # Cauchy-Riemann probe in mu: the Green's function is holomorphic there
    eps = 1e-5
    dre = (modified_green(p, x, y, mu + eps).value
           - modified_green(p, x, y, mu - eps).value) / (2 * eps)
    dim = (modified_green(p, x, y, mu + 1j * eps).value
           - modified_green(p, x, y, mu - 1j * eps).value) / (2j * eps)
    assert abs(dre - dim) < 1e-5 * abs(dre)


def test_modified_green_log_singularity_at_short_distance():
    # |G~| grows like the log region of D(s) as y -> x
    p = mho_params(1.0, 2.0, 0.5, 6.0)
    x = np.array([0.1, 0.05])
    mu = 0.2 * mu_threshold(p)
    r1, r2 = 1e-3, 1e-5
    res1 = modified_green(p, x, x + np.array([r1, 0.0]), mu)
    res2 = modified_green(p, x, x + np.array([r2, 0.0]), mu)
    # at 1e-5 the (0, c1] head stops at its level cap, its last two levels
    # 6e-10 apart against the 3e-12 it asks, and says so
    assert res1.converged and not res2.converged
    g1, g2 = abs(res1.value), abs(res2.value)
    slope = (g2 - g1) / (math.log(1 / r2) - math.log(1 / r1))
    # short-distance law of the 2D resolvent of H/lam: G ~ (1/pi) log(1/r)
    assert abs(slope - 1.0 / math.pi) < 0.05 * abs(slope)


def test_signed_log_carrier():
    lv = SignedLog(log_value=np.array(2.0 + 0.5j))
    assert abs(lv.value - np.exp(2.0 + 0.5j)) < 1e-14


@pytest.mark.parametrize("B", [0.5, -0.5])
def test_discretize_mho_ground_state_for_either_field_sign(B):
    # k1 != k2, so the ground state carries the phase xi x1 x2 with
    # xi ~ B: the lattice field must have the right orientation for both
    # signs of B (the opposite one leaves 1 - overlap ~ 6e-3)
    p = mho_params(1.0, 2.0, B, 10.0)
    grid = Grid2D(half_extent=1.5, n=64)             # h*lam = 0.476
    res = lowest_eigs(discretize_mho(p, grid), k=1, seed=0)
    psi = Field(grid, ground_state(p, grid.meshes())).normalized()
    overlap = abs(psi.inner(res.eigenvectors[0].normalized()))
    assert overlap >= 1.0 - 1e-3
    with pytest.raises(ValueError, match="flux-per-plaquette"):
        discretize_mho(p, Grid2D(half_extent=1.5, n=56))   # h*lam = 0.545
