"""End-to-end acceptance criteria.

Each test pins one headline guarantee of the package with frozen parameters,
seeds, and tolerances.  The full file takes about 35 s on a 2-vCPU Xeon VM
with BLAS threads not pinned; the heavy items are the splitting-vs-hopping
ratio sweep (test 6, about 19 s), the 2x2 splitting identity (test 5, about
10 s) and the fine-lattice resolvent residual (test 4, about 5 s).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la

from maglab import blaschke
from maglab.blaschke import BlaschkeZeroSet, HerglotzMeasure, herglotz_eval
from maglab.cli import blaschke_check_suite
from maglab.grid_model import (
    Field,
    Grid2D,
    ModelParams,
    WellSpec,
    build_operator,
    choose_grid,
)
from maglab.landau_kernels import (
    gamma_tricomi_u,
    offdiag_decay_rate,
    tricomi_u,
)
from maglab.landau_kernels import \
    landau_semigroup_defect as _landau_semigroup_defect
from maglab.mho_kernels import (
    d_bound,
    default_region_bounds,
    discretize_mho,
    dual_ground_state,
    ground_state,
    mho_params,
    modified_green,
    mu_threshold,
)
from maglab.mho_kernels import mho_semigroup_defect as _mho_semigroup_defect
from maglab.partition import build_partition, verify_partition
from maglab.spectral import Contour, lowest_eigs
from maglab.tunneling import (
    gram_and_m,
    quasimodes,
    ratio_point,
    reduction_from_matrices,
    splitting_direct,
)


def bump(X1, X2, center, rad):
    r2 = ((X1 - center[0]) ** 2 + (X2 - center[1]) ** 2) / rad ** 2
    return np.where(r2 < 1, np.exp(-1 / np.maximum(1 - r2, 1e-300)), 0.0)


# -- 1 ----------------------------------------------------------------------


def test_acceptance_01_mho_closed_form_vs_grid():
    p = mho_params(1.0, 2.0, 0.5, 30.0)
    # the decay rule's extent a + 6/sqrt(lam min_j Hess_jj), with the well
    # curvature Hess_jj = 2 k_j^2 = (2, 8) and a = 0.3
    grid = Grid2D(half_extent=0.3 + 6.0 / math.sqrt(30.0 * 2.0), n=200)
    op = discretize_mho(p, grid)
    res = lowest_eigs(op, k=1, seed=0)
    e_exact = 30.0 * math.sqrt(10.0) / 2.0
    assert abs(res.eigenvalues[0] - e_exact) / e_exact <= 5e-3
    psi = Field(grid, ground_state(p, grid.meshes()))
    overlap = abs(psi.normalized().inner(res.eigenvectors[0].normalized()))
    assert abs(1.0 - overlap) <= 1e-3


# -- 2 ----------------------------------------------------------------------


def test_acceptance_02_semigroup_property():
    p = mho_params(1.0, 2.0, 0.5, 30.0)
    assert _mho_semigroup_defect(p, 0.3, 0.5) <= 1e-6
    assert _landau_semigroup_defect(0.8, 0.3, 0.5) <= 1e-6


# -- 3 ----------------------------------------------------------------------


def test_acceptance_03_tricomi_u_oracle_and_pole():
    # independent series oracle for E1(1)
    s = -np.euler_gamma
    term = 1.0
    for k in range(1, 60):
        term *= -1.0 / k
        s -= term / k
    u = tricomi_u(1.0, 1.0)
    assert abs(u - math.e * s) / abs(u) <= 1e-8
    # divergence slope -1 approaching the lowest Landau level: with
    # a = eps/(2B), Gamma(a) U(a, 1, w) ~ 1/a
    B = 0.7
    eps = [1e-3, 1e-4]
    vals = [abs(gamma_tricomi_u(e / (2 * B), 0.3)) for e in eps]
    slope = (math.log(vals[1]) - math.log(vals[0])) \
        / (math.log(eps[1]) - math.log(eps[0]))
    assert abs(slope + 1.0) <= 0.05


# -- 4 ----------------------------------------------------------------------


def test_acceptance_04_landau_resolvent_residual():
    # fixed source-quadrature rule: the same grid sum defines both the
    # kernel application and the discrete residual, so the quadrature error
    # cancels and the residual sees only the O(h^2) stencil error
    lam, b = 40.0, 0.2
    B = b * lam
    z = 0.35 * B
    grid = Grid2D(half_extent=0.6, n=600)
    params = ModelParams(lam=lam, b=b, d1=0.39, a=0.13)
    op = build_operator(params, grid, wells=())
    X1, X2 = grid.meshes()
    n = grid.n
    mask = np.zeros((n, n), dtype=bool)
    mask[2:-2, 2:-2] = True                  # exclude wall-polluted rings

    from maglab.landau_kernels import apply_landau_resolvent
    rng = np.random.default_rng(20260823)
    for _ in range(5):
        c = rng.uniform(-0.12, 0.12, 2)
        rad = rng.uniform(0.10, 0.14)
        amp = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.5, 2.0)
        f = Field(grid, amp * bump(X1, X2, c, rad))
        g = apply_landau_resolvent(B, z, f)
        resid = (op.matrix @ g.flat() - z * g.flat() - f.flat()).reshape(n, n)
        rel = np.linalg.norm(resid[mask]) / np.linalg.norm(f.flat())
        assert rel <= 1e-3, rel


def test_acceptance_04_decay_rate_monotone_in_lambda():
    b = 0.2
    rates = []
    for lam in (20.0, 40.0, 80.0):
        B = b * lam
        grid = Grid2D(half_extent=1.4, n=280)
        X1, X2 = grid.meshes()
        f = Field(grid, bump(X1, X2, (0.0, 0.0), 0.12).astype(complex))
        fit = offdiag_decay_rate(B, 0.35 * B, f,
                                 ring_radii=np.arange(0.15, 0.95, 0.1))
        rates.append(fit.rate)
    assert all(r > 0 for r in rates)
    assert rates[0] < rates[1] < rates[2]


# -- 5 ----------------------------------------------------------------------


def test_acceptance_05_two_by_two_splitting_identity():
    a = 0.13
    params = ModelParams(lam=20.0, b=0.05, d1=3 * a, a=a)
    spec = WellSpec.radial(a)
    grid = choose_grid(params, 240, double_well=True, pad=0.0)
    d1s = float(grid.snap([params.d1, 0.0])[0])
    params = replace(params, d1=d1s)
    op = build_operator(params, grid,
                        wells=[(spec, (-d1s, 0.0)), (spec, (d1s, 0.0))])
    sd = splitting_direct(op, seed=0)
    e0, e1, e2 = sd.energies
    center = (e0 + e1) / 2
    contour = Contour(center=complex(center),
                      radius=float(0.5 * (e2 - center)),
                      quadrature_nodes=32)
    qm = quasimodes(params, op, spec=spec, contour=contour, seed=0)
    assert abs(qm.rank_estimate - 2.0) <= 0.1
    red = gram_and_m(qm.psi_minus, qm.psi_plus, op)
    assert abs(red.splitting - sd.delta) <= 1e-6 * sd.delta


def test_acceptance_05_generalized_eigenvalue_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        G = X @ X.conj().T + 0.5 * np.eye(2)
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M = 0.5 * (Y + Y.conj().T)
        red = reduction_from_matrices(G, M)
        mu = la.eigh(M, G, eigvals_only=True)
        gap = mu[1] - mu[0]
        assert abs(red.splitting - gap) <= 1e-12 * max(1.0, gap)


# -- 6 ----------------------------------------------------------------------


def test_acceptance_06_splitting_vs_hopping_ratio():
    # barrier geometry chosen so that the physical O(1/lam) deviation of the
    # ratio dominates every numerical noise floor at all three couplings
    a, n, seed = 0.10, 320, 1
    for b in (0.0, 0.05):
        devs = []
        for lam in (20.0, 30.0, 45.0):
            params = ModelParams(lam=lam, b=b, d1=3 * a, a=a)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # lam=20 cluster-gap warning
                row = ratio_point(params, n, seed=seed)
            assert 0.8 <= row.ratio <= 1.2, (b, lam, row.ratio)
            devs.append(abs(row.ratio - 1.0))
        assert devs[0] >= devs[1] >= devs[2], (b, devs)


# -- 7 ----------------------------------------------------------------------


def test_acceptance_07_blaschke_suite():
    rows = blaschke_check_suite(seed=0)
    bad = [(label, detail) for label, ok, detail in rows if not ok]
    assert not bad, bad


# -- 8 ----------------------------------------------------------------------


def test_acceptance_08_herglotz_bounds():
    rng = np.random.default_rng(8)
    ts = (1e-3, 1e-2, 0.1, 0.25, 0.5)
    for _ in range(100):
        k = rng.integers(1, 5)
        atoms = [(float(rng.uniform(-2, 2)), float(rng.uniform(0, 1.5)))
                 for _ in range(k)]
        if rng.uniform() < 0.3:
            atoms.append((0.0, float(rng.uniform(0, 1.0))))
        m = HerglotzMeasure(atoms=atoms,
                            linear_coefficient=float(rng.uniform(0, 0.5)))
        beta = herglotz_eval(m, 1.0)
        for t in ts:
            assert herglotz_eval(m, t) <= beta / t + 1e-12
        # refined bound: t u(t) decreases to the mass of the atom at zero
        gaps = [t * herglotz_eval(m, t) - m.mass_at_zero()
                for t in (0.25, 0.1, 1e-2, 1e-3, 1e-5)]
        assert all(g >= -1e-12 for g in gaps)
        assert all(g1 <= g0 + 1e-12 for g0, g1 in zip(gaps, gaps[1:]))


# -- 9 ----------------------------------------------------------------------


def test_acceptance_09_partition_of_unity():
    p = build_partition(0.01, 1.0)
    rng = np.random.default_rng(9)
    r = np.concatenate([rng.uniform(0, 2.0, 10000),
                        rng.uniform(0, 0.1, 10000)])
    assert np.max(np.abs(p.sum_at_radius(r) - 1)) <= 1e-12
    assert int(p.overlap_count(r).max()) <= 4
    for order in (1, 2, 3):
        rep = verify_partition(p, order)
        assert abs(rep.exponent + order) <= 0.1, (order, rep.exponent)


# -- 10 ---------------------------------------------------------------------


def test_acceptance_10_green_function_envelope():
    # frozen calibration: |G~| <= C_cal * D(c_cal |lam| |x-y| (|x|+|y|))
    from maglab.mho_kernels import load_green_bound_constants
    consts = load_green_bound_constants()
    C_cal, c_cal = consts["C_cal"], consts["c_cal"]
    rb = default_region_bounds()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        k1, k2 = rng.uniform(0.5, 2.5, 2)
        B = rng.uniform(-1.5, 1.5)
        lam = rng.uniform(2, 40)
        p = mho_params(k1, k2, B, lam)
        scale = 1 / np.sqrt(lam * np.real(p.f_plus))
        x = rng.uniform(-1, 1, 2) * 4 * scale
        y = rng.uniform(-1, 1, 2) * 4 * scale
        if np.linalg.norm(x - y) < 1e-3 * scale:
            continue
        mu = rng.uniform(-1, 0.9) * mu_threshold(p) + 1j * rng.uniform(-1, 1)
        g = modified_green(p, x, y, mu)
        arg = (abs(lam) * np.linalg.norm(x - y)
               * (np.linalg.norm(x) + np.linalg.norm(y)))
        if arg <= 0:
            continue
        assert abs(g.value) <= C_cal * d_bound(c_cal * arg, rb)
        checked += 1


def test_acceptance_10_resolvent_property_residual():
    # (H - mu lam) G~(., y) = delta_y - psi0 psi0~(y), probed pointwise with
    # a 5-point finite-difference stencil away from the diagonal
    p = mho_params(1.0, 2.0, 0.5, 6.0)
    lam, B = 6.0, 0.5
    mu = 1.0 + 0.3j
    y = np.array([-0.2, 0.25])

    def H_fd(f, x, h):
        c = f(x)
        fp1, fm1 = f(x + [h, 0]), f(x - [h, 0])
        fp2, fm2 = f(x + [0, h]), f(x - [0, h])
        lap = (fp1 + fm1 + fp2 + fm2 - 4 * c) / h ** 2
        d1, d2 = (fp1 - fm1) / (2 * h), (fp2 - fm2) / (2 * h)
        return 0.5 * (-lap + 2j * lam * B * (x[1] * d1 - x[0] * d2)
                      + lam ** 2 * ((1 + B ** 2) * x[0] ** 2
                                    + (4 + B ** 2) * x[1] ** 2) * c)

    def G(x):
        return modified_green(p, np.asarray(x, float), y, mu).value

    def rhs(x):
        return -ground_state(p, np.asarray(x, float)) * dual_ground_state(p, y)

    rng = np.random.default_rng(0)
    h = 0.01
    worst = 0.0
    for _ in range(8):
        x = rng.uniform(-0.8, 0.8, 2)
        while np.linalg.norm(x - y) < 0.3:
            x = rng.uniform(-0.8, 0.8, 2)
        r = abs(H_fd(G, x, h) - mu * lam * G(x) - rhs(x))
        worst = max(worst, r)
    assert worst <= 1e-3, worst
