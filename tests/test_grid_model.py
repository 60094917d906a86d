"""Lattice builder tests: exact Dirichlet spectra, Peierls flux, gauge
covariance, and the validation errors of the model dataclasses."""

import numpy as np
import pytest
import scipy.linalg as la

from maglab.grid_model import (
    Field,
    Grid2D,
    ModelParams,
    WellSpec,
    build_operator,
    build_well,
    choose_grid,
    field_from_flat,
    magnetic_translate,
    plaquette_phases,
    well_values,
)


def small_operator(n=32, L=1.0, lam=2.0, b=0.1, gauge_origin=(0.0, 0.0)):
    params = ModelParams(lam=lam, b=b, d1=0.4, a=0.15)
    grid = Grid2D(half_extent=L, n=n)
    return build_operator(params, grid, wells=(), gauge_origin=gauge_origin)


def double_well_operator(n=42, L=5.0, lam=2.0, b=0.1):
    # L respects the decay-rule minimum d1 + a + 6/sqrt(lam) at lam = 2
    params = ModelParams(lam=lam, b=b, d1=0.4, a=0.15)
    grid = Grid2D(half_extent=L, n=n)
    d1s = float(grid.snap([params.d1, 0.0])[0])
    from dataclasses import replace
    params = replace(params, d1=d1s)
    spec = WellSpec.radial(params.a)
    return build_operator(params, grid,
                          wells=[(spec, (-d1s, 0.0)), (spec, (d1s, 0.0))])


def test_dirichlet_spectrum_matches_1d_oracle():
    # zero field, no wells: the operator is the 5-point Laplacian with hard
    # walls exactly at +-L, whose spectrum is the sum of two 1D chains with
    # eigenvalues (2/h^2)(1 - cos(pi j h / 2L))
    n, L = 24, 1.0
    params = ModelParams(lam=0.2, b=0.0, d1=0.4, a=0.15)
    grid = Grid2D(half_extent=L, n=n)
    op = build_operator(params, grid, wells=())
    h = grid.spacing
    m = n - 2
    oned = (2.0 / h ** 2) * (1 - np.cos(np.pi * np.arange(1, m + 1) * h
                                        / (2 * L)))
    sums = np.sort((oned[:, None] + oned[None, :]).ravel())
    w = np.sort(la.eigvalsh(op.matrix.toarray()))
    np.testing.assert_allclose(w[:10], sums[:10], rtol=1e-10)


def test_hermiticity_is_exact():
    op = small_operator()
    assert op.hermiticity_defect() == 0.0


def test_plaquette_flux_is_uniform():
    op = small_operator(b=0.25, lam=2.0)
    h = op.grid.spacing
    expected = np.exp(-1j * 0.25 * 2.0 * h ** 2)
    ph = plaquette_phases(op, count=200, seed=3)
    np.testing.assert_allclose(ph, expected, atol=1e-13)


def test_gauge_origin_covariance():
    # moving the gauge origin is a unitary change of gauge: same spectrum
    w0 = np.sort(la.eigvalsh(small_operator(n=20).matrix.toarray()))
    w1 = np.sort(la.eigvalsh(
        small_operator(n=20, gauge_origin=(0.3, -0.2)).matrix.toarray()))
    np.testing.assert_allclose(w0[:20], w1[:20], rtol=1e-9, atol=1e-9)


def test_flux_bound_rejected():
    params = ModelParams(lam=20.0, b=0.1, d1=0.4, a=0.15)
    grid = Grid2D(half_extent=1.0, n=32)   # h*lam = 1.29 > 0.5
    with pytest.raises(ValueError, match="flux-per-plaquette"):
        build_operator(params, grid, wells=())


def test_non_commensurate_well_center_rejected():
    params = ModelParams(lam=2.0, b=0.0, d1=0.4, a=0.15)
    grid = Grid2D(half_extent=1.0, n=32)
    spec = WellSpec.radial(0.15)
    with pytest.raises(ValueError, match="commensurate"):
        build_operator(params, grid, wells=[(spec, (0.1234567, 0.0))])


def test_separation_violation_rejected():
    params = ModelParams(lam=2.0, b=0.0, d1=0.1, a=0.15)  # 2 d1 < 2 a
    grid = Grid2D(half_extent=1.0, n=32)
    spec = WellSpec.radial(0.15)
    d1s = float(grid.snap([params.d1, 0.0])[0])
    from dataclasses import replace
    params = replace(params, d1=d1s)
    with pytest.raises(ValueError, match="separation"):
        build_operator(params, grid,
                       wells=[(spec, (-d1s, 0.0)), (spec, (d1s, 0.0))])


def test_model_params_lam_is_real():
    with pytest.raises(ValueError, match="lam must be real"):
        ModelParams(lam=20 + 1j, b=0.05, d1=0.3, a=0.1)
    params = ModelParams(lam=20 + 0j, b=0.05, d1=0.3, a=0.1)
    assert params.lam == 20.0 and isinstance(params.lam, float)


def test_well_shape_and_range():
    spec = WellSpec.radial(0.2, p=4)
    x = np.linspace(-0.5, 0.5, 101)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    v = well_values(spec, X1, X2)
    assert np.all(v <= 0.0) and np.all(v >= -1.0)
    assert v[50, 50] == -1.0                      # bottom of the well
    out = X1 ** 2 + X2 ** 2 >= spec.support_radius ** 2
    assert np.all(v[out] == 0.0)
    np.testing.assert_allclose(spec.hessian_at_origin(),
                               2 * 4 * np.eye(2) / 0.2 ** 2)


def test_well_spec_validation():
    with pytest.raises(ValueError):
        WellSpec.radial(0.2, p=3)                 # exponent must be >= 4
    with pytest.raises(ValueError):
        WellSpec(exponent=4,
                 shape=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not SPD


def test_build_well_needs_covering_grid():
    spec = WellSpec.radial(0.5)
    params = ModelParams(lam=2.0, b=0.0, d1=0.4, a=0.5)
    grid = Grid2D(half_extent=0.3, n=16)          # support ball sticks out
    with pytest.raises(ValueError):
        build_well(spec, params, grid, (0.0, 0.0))


def test_choose_grid_decay_rule():
    params = ModelParams(lam=30.0, b=0.0, d1=0.4, a=0.15)
    g = choose_grid(params, 64, double_well=True, pad=0.05)
    expected = 0.4 + 0.15 + 6.0 / np.sqrt(30.0) + 0.05
    assert abs(g.half_extent - expected) < 1e-12
    g1 = choose_grid(params, 64, double_well=False, pad=0.0)
    assert abs(g1.half_extent - (0.15 + 6.0 / np.sqrt(30.0))) < 1e-12


def test_grid_requires_even_n():
    with pytest.raises(ValueError):
        Grid2D(half_extent=1.0, n=33)


def test_grid_snap_and_commensurate():
    grid = Grid2D(half_extent=1.0, n=32)
    z = grid.snap([0.123, -0.456])
    assert grid.commensurate(z)
    assert not grid.commensurate([0.1234567, 0.0])


def test_field_inner_antilinear_first_slot():
    grid = Grid2D(half_extent=1.0, n=16)
    rng = np.random.default_rng(0)
    f = Field(grid, rng.standard_normal((16, 16))
              + 1j * rng.standard_normal((16, 16)))
    g = Field(grid, rng.standard_normal((16, 16))
              + 1j * rng.standard_normal((16, 16)))
    assert abs(f.inner(g) - np.conj(g.inner(f))) < 1e-12
    ig = Field(grid, 1j * g.values)
    jf = Field(grid, 1j * f.values)
    assert abs(f.inner(ig) - 1j * f.inner(g)) < 1e-12
    assert abs(jf.inner(g) + 1j * f.inner(g)) < 1e-12
    assert abs(f.norm() ** 2 - f.inner(f).real) < 1e-10
    h = grid.spacing
    assert abs(f.norm() - h * np.linalg.norm(f.values)) < 1e-12


def test_field_flat_roundtrip():
    grid = Grid2D(half_extent=1.0, n=16)
    rng = np.random.default_rng(1)
    f = Field(grid, rng.standard_normal((16, 16)).astype(complex))
    g = field_from_flat(grid, f.flat())
    np.testing.assert_array_equal(f.values, g.values)


def test_magnetic_translate_is_unitary_and_reduces_to_shift():
    grid = Grid2D(half_extent=1.0, n=32)
    h = grid.spacing
    X1, X2 = grid.meshes()
    # bump supported well inside so the zero-filled shift loses nothing
    vals = np.exp(-((X1 - 0.1) ** 2 + X2 ** 2) / 0.01).astype(complex)
    f = Field(grid, vals)
    z = (4 * h, -6 * h)
    g = magnetic_translate(f, z, blambda=0.7)
    assert abs(g.norm() - f.norm()) < 1e-12
    g0 = magnetic_translate(f, z, blambda=0.0)
    # zero-field translation must agree with direct resampling
    X1s, X2s = X1 - z[0], X2 - z[1]
    inside = (np.abs(X1s) <= 1.0 + 1e-12) & (np.abs(X2s) <= 1.0 + 1e-12)
    expected = np.where(inside,
                        np.exp(-((X1s - 0.1) ** 2 + X2s ** 2) / 0.01), 0.0)
    np.testing.assert_allclose(g0.values, expected, atol=1e-12)


def test_magnetic_translate_zak_composition():
    # R^z1 R^z2 = exp(i(blam/2) z1 ^ z2) R^(z1+z2) on fields away from the edge
    grid = Grid2D(half_extent=1.0, n=64)
    h = grid.spacing
    X1, X2 = grid.meshes()
    f = Field(grid, np.exp(-(X1 ** 2 + X2 ** 2) / 0.02).astype(complex))
    blam = 0.9
    z1, z2 = (3 * h, 2 * h), (-5 * h, 4 * h)
    lhs = magnetic_translate(magnetic_translate(f, z2, blam), z1, blam)
    ztot = (z1[0] + z2[0], z1[1] + z2[1])
    cocycle = np.exp(1j * (blam / 2) * (z1[0] * z2[1] - z1[1] * z2[0]))
    rhs = magnetic_translate(f, ztot, blam)
    diff = lhs.values - cocycle * rhs.values
    assert np.max(np.abs(diff)) < 1e-12


def test_max_nnz_per_row_is_five_point():
    op = small_operator()
    assert op.max_nnz_per_row() <= 5


def test_double_well_build_and_hermiticity():
    op = double_well_operator()
    assert op.n_wells == 2
    assert op.hermiticity_defect() == 0.0
    assert op.max_nnz_per_row() <= 5
