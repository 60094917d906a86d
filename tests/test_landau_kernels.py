"""Landau (pure magnetic) kernels: heat kernel against the free kernel and an
mpmath Tricomi-U oracle, Laplace-transform consistency of the resolvent
kernel, gauge structure, the pole diagnostics, and the grid application of
the resolvent against the direct per-point sum."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from maglab import landau_kernels as lk
from maglab.grid_model import Field, Grid2D
from maglab.landau_kernels import (
    DecayFit,
    DomainError,
    PoleProximityError,
    SupportError,
    apply_landau_resolvent,
    gamma_tricomi_u,
    landau_heat_kernel,
    landau_resolvent_kernel,
    load_landau_constants,
    log_landau_heat_kernel,
    pole_distance,
    resolvent_norm_envelope,
    tricomi_u,
)


def test_small_field_limit_is_free_heat_kernel():
    # B -> 0: K_t(x, y) -> (1/4 pi t) exp(-|x-y|^2 / 4t)
    x = np.array([0.4, -0.3])
    y = np.array([-0.2, 0.1])
    for t in (0.1, 0.7, 2.5):
        got = landau_heat_kernel(1e-10, x, y, t)
        free = (1 / (4 * math.pi * t)
                * math.exp(-np.sum((x - y) ** 2) / (4 * t)))
        assert abs(got - free) < 1e-8 * free


def test_heat_kernel_gauge_phase_and_modulus():
    # K_t(x,y) e^{+i(B/2) x^y} depends only on |x - y|
    B, t = 1.3, 0.6
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        wedge = x[0] * y[1] - x[1] * y[0]
        base = landau_heat_kernel(B, x, y, t) * np.exp(0.5j * B * wedge)
        th = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        xr, yr = R @ x, R @ y
        wr = xr[0] * yr[1] - xr[1] * yr[0]
        rot = landau_heat_kernel(B, xr, yr, t) * np.exp(0.5j * B * wr)
        assert abs(base - rot) < 1e-12 * abs(base)


def test_heat_kernel_hermitian_symmetry():
    B, t = 0.9, 0.8
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        assert abs(landau_heat_kernel(B, x, y, t)
                   - np.conj(landau_heat_kernel(B, y, x, t))) < 1e-14


def test_tricomi_u_matches_mpmath():
    # includes large |a|, where naive evaluations lose all digits
    cases = [(0.3, 0.8), (1.0, 1.0), (2.7, 0.4), (15.0, 1.3),
             (80.0, 0.6), (350.0, 2.0)]
    for a, z in cases:
        got = tricomi_u(a, z)
        ref = complex(mpmath.hyperu(a, 1, z))
        assert abs(got - ref) <= 1e-8 * abs(ref), (a, z)
    # U(350, 1, 2) = 2.8e-761 underflows, so the last case compares 0 with
    # 0; Gamma(350) U(350, 1, 2) = 1.0019e-23 is representable
    got = gamma_tricomi_u(350.0, 2.0)
    ref = complex(mpmath.gamma(350) * mpmath.hyperu(350, 1, 2))
    assert abs(got - ref) <= 1e-8 * abs(ref)


def test_gamma_tricomi_u_at_small_a():
    # Gamma(a) U(a,1,z) ~ 1/a as a -> 0 (simple pole of Gamma, U(0,1,z)=1)
    z = 0.5
    for a in (1e-4, 1e-6):
        got = gamma_tricomi_u(a, z)
        assert abs(got * a - 1.0) < 5e-3


@pytest.mark.parametrize("level", range(1, 11))
def test_tanh_sinh_levels_nest(level):
    # the level-L rule is the even-indexed half of level L + 1, weights x 2,
    # so a refinement only evaluates the odd nodes; levels 1-11 are the
    # ones modified_green's head reaches, 4-7 gamma_tricomi_u's
    t, dt = lk._ts_nodes(level)
    t_fine, dt_fine = lk._ts_nodes(level + 1)
    assert np.array_equal(t_fine[::2], t)
    assert np.array_equal(dt_fine[::2] * 2, dt)


def test_gamma_tricomi_u_batch_matches_scalar_calls():
    # each argument stops its own tail, so its neighbours in a batch (here
    # w ~ 1e-26, which takes ~90 panels) do not change its value
    a = 0.5 - 0.35 / 2
    z = np.array([1e-26, 1e-12, 1e-5, 0.3, 5.0, 80.0, 400.0])
    batch = gamma_tricomi_u(a, z)
    single = np.array([gamma_tricomi_u(a, x) for x in z])
    assert np.all(np.abs(batch - single) <= 1e-15 * np.abs(single))


def test_gamma_tricomi_u_complex_arguments_match_mpmath():
    a = 0.325 + 0.4j
    z = np.array([0.3 + 0.2j, 2.0 - 1.0j, 1e-3 + 1e-3j, 7.0 + 0.5j])
    got = gamma_tricomi_u(a, z)
    for g, x in zip(got, z):
        ref = complex(mpmath.gamma(a) * mpmath.hyperu(a, 1, x))
        assert abs(g - ref) <= 1e-8 * abs(ref), x


def test_gamma_tricomi_u_shape_and_dtype():
    z = np.array([[0.1, 0.7, 3.0], [1e-4, 12.0, 40.0]])
    got = gamma_tricomi_u(0.8, z)
    assert got.shape == z.shape and got.dtype == complex
    # a complex-typed input with zero imaginary part takes the same path
    assert np.array_equal(gamma_tricomi_u(0.8 + 0j, z.astype(complex)), got)
    assert isinstance(gamma_tricomi_u(0.8, 0.7), complex)


@pytest.mark.parametrize("a, z, named", [
    (0.5, np.nan, "z = (nan"), (0.5, np.inf, "z = (inf"),
    (0.5, [0.3, np.nan, 2.0], "z = (nan"), (np.nan, 0.5, "a = (nan"),
    (complex(0.5, np.inf), 0.5, "a = "), (0.5, complex(1.0, np.nan), "z = ")])
def test_gamma_tricomi_u_rejects_non_finite_input(a, z, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no quadrature runs
        with pytest.raises(DomainError, match="not finite") as err:
            gamma_tricomi_u(a, z)
    assert named in str(err.value)


def test_u111_equals_e_times_e1():
    # independent oracle: E1(1) by the alternating series
    s = -np.euler_gamma
    term = 1.0
    for k in range(1, 60):
        term *= -1.0 / k
        s -= term / k
    got = tricomi_u(1.0, 1.0)
    assert abs(got - math.e * s) <= 1e-8 * abs(got)


def test_resolvent_is_laplace_transform_of_heat_kernel():
    # R_z(x,y) = integral_0^inf e^{zt} K_t(x,y) dt for Re z below the
    # bottom Landau level B
    B, z = 1.0, 0.3
    x = np.array([0.5, -0.2])
    y = np.array([-0.3, 0.4])
    got = landau_resolvent_kernel(B, z, x, y)

    def integrand_re(t):
        return (math.exp(z * t) * landau_heat_kernel(B, x, y, t)).real

    def integrand_im(t):
        return (math.exp(z * t) * landau_heat_kernel(B, x, y, t)).imag

    re, ere = quad(integrand_re, 0, 60, limit=400)
    im, eim = quad(integrand_im, 0, 60, limit=400)
    oracle = complex(re, im)
    assert abs(got - oracle) <= 1e-6 * abs(oracle) + 10 * (ere + eim)


def test_resolvent_gauge_phase_is_radial():
    B, z = 0.8, 0.35 * 0.8
    rng = np.random.default_rng(2)
    for _ in range(8):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        if np.linalg.norm(x - y) < 0.05:
            continue
        wedge = x[0] * y[1] - x[1] * y[0]
        base = landau_resolvent_kernel(B, z, x, y) * np.exp(0.5j * B * wedge)
        assert abs(base.imag) < 1e-10 * abs(base)
        # radial dependence only: translate-free comparison at equal distance
        d = np.linalg.norm(x - y)
        x2 = np.array([d / 2, 0.0])
        y2 = np.array([-d / 2, 0.0])
        w2 = x2[0] * y2[1] - x2[1] * y2[0]
        ref = landau_resolvent_kernel(B, z, x2, y2) * np.exp(0.5j * B * w2)
        assert abs(base - ref) < 1e-8 * abs(ref)


def test_resolvent_hermitian_symmetry_below_spectrum():
    B, z = 0.8, 0.2
    x = np.array([0.3, 0.1])
    y = np.array([-0.2, 0.5])
    k1 = landau_resolvent_kernel(B, z, x, y)
    k2 = landau_resolvent_kernel(B, z, y, x)
    assert abs(k1 - np.conj(k2)) < 1e-10 * abs(k1)


def test_pole_guard_and_domain_errors():
    B = 0.5
    # Landau levels at z = B(2n+1): exactly on the lowest level
    assert pole_distance(B, B) < 1e-12
    with pytest.raises(PoleProximityError):
        landau_resolvent_kernel(B, B, np.array([0.1, 0.0]),
                                np.array([-0.1, 0.0]))
    with pytest.raises(DomainError):
        landau_resolvent_kernel(B, 0.3 * B, np.array([0.1, 0.2]),
                                np.array([0.1, 0.2]))


def test_norm_envelope_and_constants():
    consts = load_landau_constants()
    assert "norm_C" in consts
    v1 = resolvent_norm_envelope(40.0, 0.2, 0.3)
    v2 = resolvent_norm_envelope(40.0 + 8.0j, 0.2, 0.3)
    assert np.isfinite(v1) and np.isfinite(v2)
    assert v2 >= v1    # imaginary part of lam can only inflate the envelope


def test_decay_fit_dataclass():
    fit = DecayFit(rate=2.0, band=0.1, distances=np.array([0.1, 0.2]),
                   log_norms=np.array([-1.0, -3.0]), low_dynamic_range=False)
    assert abs(fit.dynamic_range_decades() - 2.0 / np.log(10.0)) < 1e-12


# -- the resolvent application on a grid --------------------------------------


def _reference_apply(B, z, f):
    """The per-point sum: every support node adds h^2 F(|x - y|) times its
    magnetic phase to every cell, plus the diagonal cell at its own node."""
    B, z = complex(B), complex(z)
    grid, vals = f.grid, f.values
    n, h, axis = grid.n, grid.spacing, grid.axis()
    idx = np.arange(n)
    r2 = (idx[:, None] ** 2 + idx[None, :] ** 2).ravel()
    table = np.zeros(r2.max() + 1, dtype=complex)
    r2_pos = np.unique(r2[r2 > 0])
    table[r2_pos] = lk._radial_table(B, z, r2_pos, h)
    diag_cell = lk._diagonal_cell(B, z, h)
    out = np.zeros((n, n), dtype=complex)
    for i0, j0 in zip(*np.nonzero(vals)):
        F = table[(idx[:, None] - i0) ** 2 + (idx[None, :] - j0) ** 2]
        ph1 = np.exp(-1j * (B / 2) * axis * axis[j0])
        ph2 = np.exp(1j * (B / 2) * axis * axis[i0])
        out += (h * h * vals[i0, j0]) * F * ph1[:, None] * ph2[None, :]
        out[i0, j0] += vals[i0, j0] * diag_cell
    return out


def _crescent_source(n=40):
    # off-centre and non-convex: a disk with a bite taken out, a gap column and
    # one isolated node
    grid = Grid2D(half_extent=1.0, n=n)
    X1, X2 = grid.meshes()
    inside = ((X1 - 0.3) ** 2 + (X2 + 0.2) ** 2 < 0.35 ** 2) \
        & ((X1 - 0.45) ** 2 + (X2 - 0.05) ** 2 > 0.2 ** 2)
    inside[:, n // 2 - 6] = False
    inside[8, 30] = True
    rng = np.random.default_rng(11)
    vals = np.where(inside, rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)), 0.0)
    return Field(grid, vals)


@pytest.mark.parametrize("z_over_B", [0.35, 0.35 + 0.3j])
def test_apply_landau_resolvent_matches_per_point_sum(z_over_B):
    # real z takes the real-window branch, complex z the complex one
    B = 8.0
    f = _crescent_source()
    got = apply_landau_resolvent(B, z_over_B * B, f).values
    ref = _reference_apply(B, z_over_B * B, f)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_apply_landau_resolvent_guards():
    B = 8.0
    grid = Grid2D(half_extent=1.0, n=40)
    empty = apply_landau_resolvent(B, 0.35 * B, Field(grid, np.zeros((40, 40))))
    assert not np.any(empty.values)
    edge = np.zeros((40, 40))
    edge[0, 17] = 1.0
    with pytest.raises(SupportError):
        apply_landau_resolvent(B, 0.35 * B, Field(grid, edge))
    with pytest.raises(PoleProximityError):
        apply_landau_resolvent(B, B, _crescent_source())


def test_apply_landau_resolvent_rejects_non_finite_z():
    with pytest.raises(DomainError, match=r"z = \(nan"):
        apply_landau_resolvent(8.0, np.nan, _crescent_source())


def test_support_distance_searches_boundary_nodes_only():
    # the old route: the minimum over every support node, on the meshes
    rng = np.random.default_rng(3)
    grid = Grid2D(half_extent=1.0, n=48)
    X1, X2 = grid.meshes()
    for _ in range(6):
        sup = rng.random((48, 48)) < 0.15                # isolated nodes
        blob = (X1 - rng.uniform(-0.5, 0.5)) ** 2 \
            + (X2 - rng.uniform(-0.5, 0.5)) ** 2 < rng.uniform(0.1, 0.3)
        sup |= blob & (rng.random((48, 48)) < 0.9)       # holes in a blob
        ref = np.full(sup.shape, np.inf)
        for p1, p2 in zip(X1[sup], X2[sup]):
            ref = np.minimum(ref, np.hypot(X1 - p1, X2 - p2))
        assert np.array_equal(lk._support_distance(grid.axis(), sup), ref)


def test_decay_fit_matches_the_per_point_route(monkeypatch):
    # the _04 decay configuration (bump of radius 0.12, rings from 0.15 in
    # steps of 0.1, z = 0.35 B) on a coarser grid
    B = 0.2 * 40.0
    grid = Grid2D(half_extent=1.4, n=100)
    X1, X2 = grid.meshes()
    r2 = (X1 ** 2 + X2 ** 2) / 0.12 ** 2
    f = Field(grid, np.where(r2 < 1, np.exp(-1 / np.maximum(1 - r2, 1e-300)),
                             0.0))
    radii = np.arange(0.15, 0.95, 0.1)
    fit = lk.offdiag_decay_rate(B, 0.35 * B, f, radii)

    def all_node_distance(axis, sup):
        P1, P2 = np.meshgrid(axis, axis, indexing="ij")
        d = np.full(sup.shape, np.inf)
        for p1, p2 in zip(P1[sup], P2[sup]):
            d = np.minimum(d, np.hypot(P1 - p1, P2 - p2))
        return d

    monkeypatch.setattr(lk, "apply_landau_resolvent",
                        lambda B, z, f: Field(f.grid, _reference_apply(B, z, f)))
    monkeypatch.setattr(lk, "_support_distance", all_node_distance)
    old = lk.offdiag_decay_rate(B, 0.35 * B, f, radii)
    assert abs(fit.rate - old.rate) <= 1e-12 * abs(old.rate)
    assert abs(fit.band - old.band) <= 1e-12 * abs(old.band)
    assert np.array_equal(fit.distances, old.distances)
    assert np.allclose(fit.log_norms, old.log_norms, rtol=1e-13, atol=0)
    assert fit.low_dynamic_range == old.low_dynamic_range
