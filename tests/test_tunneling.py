"""Hopping coefficient and 2x2 reduction: gauge/phase invariances of |rho0|,
the generalized-eigenvalue oracle for the splitting formula, the parity-sector
splitting solve against the full-operator one, and the ratio CSV plumbing."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from maglab.grid_model import (
    Grid2D,
    ModelParams,
    SparseHermitianOp,
    WellSpec,
    build_operator,
    choose_grid,
)
from maglab import spectral, tunneling
from maglab.spectral import (PARITY_RTOL, Contour, EigensolverError,
                             _gershgorin_bound, count_below, lowest_eigs,
                             parity_blocks)
from maglab.tunneling import (
    DegenerateQuasimodeError,
    GroundStateError,
    RATIO_CSV_COLUMNS,
    RatioRow,
    _oscillator_level,
    cutoff_field,
    gram_and_m,
    hopping_coefficient,
    mho_ground_field,
    mho_reference,
    quasimodes,
    ratio_point,
    read_ratio_csv,
    reduction_from_matrices,
    single_well_ground,
    splitting_direct,
    write_ratio_csv,
)

LAM, B_FIELD, A_WELL = 20.0, 0.05, 0.13
D1 = 3 * A_WELL
GRID_N = 208


@pytest.fixture(scope="module")
def ground_b():
    params = ModelParams(lam=LAM, b=B_FIELD, d1=D1, a=A_WELL)
    res, op = single_well_ground(params, GRID_N, seed=0)
    return params, res, op


@pytest.fixture(scope="module")
def ground_b0():
    params = ModelParams(lam=LAM, b=0.0, d1=D1, a=A_WELL)
    res, op = single_well_ground(params, GRID_N, seed=0)
    return params, res, op


def random_spd(rng):
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return X @ X.conj().T + 0.5 * np.eye(2)


def random_hermitian(rng):
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return 0.5 * (X + X.conj().T)


def test_reduction_matches_generalized_eig_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        G = random_spd(rng)
        M = random_hermitian(rng)
        red = reduction_from_matrices(G, M)
        mu = la.eigh(M, G, eigvals_only=True)
        assert abs(red.splitting - (mu[1] - mu[0])) <= 1e-12 * max(
            1.0, abs(mu[1] - mu[0]))


def test_reduction_basis_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        G = random_spd(rng)
        M = random_hermitian(rng)
        T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        T /= np.sqrt(np.abs(np.linalg.det(T)))      # |det T| = 1
        red = reduction_from_matrices(G, M)
        red_t = reduction_from_matrices(T.conj().T @ G @ T,
                                        T.conj().T @ M @ T)
        assert abs(red.splitting - red_t.splitting) \
            <= 1e-9 * max(1.0, red.splitting)


def test_reduction_sigma_real_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        red = reduction_from_matrices(random_spd(rng), random_hermitian(rng))
        assert red.sigma.imag <= 1e-10 * abs(red.sigma)
        assert red.sigma.real >= -1e-10 * abs(red.sigma)


def test_reduction_rejects_singular_gramian():
    v = np.array([[1.0], [0.5 + 0.2j]])
    G = v @ v.conj().T                              # rank one
    M = np.eye(2)
    with pytest.raises(DegenerateQuasimodeError):
        reduction_from_matrices(G, M)


def test_mho_reference_frequencies():
    params = ModelParams(lam=LAM, b=B_FIELD, d1=D1, a=A_WELL)
    p = mho_reference(params)
    # radial quartic well: Hess = 2 p S = 8/a^2 I, so k = 2/a
    assert p.k1 == pytest.approx(2.0 / A_WELL)
    assert p.k2 == pytest.approx(2.0 / A_WELL)
    assert p.B == pytest.approx(-B_FIELD / 2.0)


def test_cutoff_field_profile():
    grid = Grid2D(half_extent=1.0, n=64)
    chi = cutoff_field(grid, 0.4)
    X1, X2 = grid.meshes()
    r = np.hypot(X1, X2)
    assert np.all(chi.values[r <= 0.2] == 1.0)
    assert np.all(chi.values[r >= 0.3] == 0.0)
    assert np.all((chi.values >= 0.0) & (chi.values <= 1.0))


def test_hopping_requires_verified_ground_state(ground_b):
    params, res, _ = ground_b
    phi0 = res.eigenvectors[0]
    with pytest.raises(GroundStateError):
        hopping_coefficient(params, phi0)
    with pytest.raises(GroundStateError):
        hopping_coefficient(params, phi0, residual=1.0)


def test_hopping_phase_convention_invariance(ground_b):
    params, res, _ = ground_b
    phi0 = res.eigenvectors[0]
    r = res.residuals[0]
    base = hopping_coefficient(params, phi0, residual=r)
    from maglab.grid_model import Field
    rotated = Field(phi0.grid, np.exp(0.77j) * phi0.values)
    rot = hopping_coefficient(params, rotated, residual=r)
    # |rho0| is convention-free; the regauging even fixes rho itself
    assert abs(rot.abs_rho - base.abs_rho) <= 1e-12 * base.abs_rho
    assert abs(rot.rho - base.rho) <= 1e-10 * base.abs_rho
    assert base.quadrature_error <= 1e-3 * base.abs_rho


def test_hopping_gauge_origin_invariance(ground_b):
    params, res, op = ground_b
    base = hopping_coefficient(params, res.eigenvectors[0],
                               residual=res.residuals[0])
    # recompute the ground state in a different gauge: |rho0| must agree
    spec = WellSpec.radial(params.a)
    grid = op.grid
    op2 = build_operator(params, grid, wells=[(spec, (0.0, 0.0))],
                         gauge_origin=(0.25, -0.15))
    res2 = lowest_eigs(op2, k=1, seed=0)
    other = hopping_coefficient(params, res2.eigenvectors[0],
                                residual=res2.residuals[0])
    assert abs(other.abs_rho - base.abs_rho) <= 1e-8 * base.abs_rho


def test_hopping_zero_field_is_real_negative(ground_b0):
    params, res, _ = ground_b0
    out = hopping_coefficient(params, res.eigenvectors[0],
                              residual=res.residuals[0])
    assert abs(out.rho.imag) <= 1e-10 * abs(out.rho)
    assert out.rho.real < 0


def test_ground_state_close_to_oscillator_gaussian(ground_b):
    params, res, op = ground_b
    pref = mho_reference(params)
    gauss = mho_ground_field(pref, op.grid)
    overlap = abs(gauss.normalized().inner(res.eigenvectors[0].normalized()))
    # at lam = 20 the quartic well is still far from its harmonic limit, so
    # the overlap is dominant but not close to 1; the hopping phase
    # convention only needs it to stay safely away from zero
    assert overlap > 0.5


def small_double_well(b, gauge_origin=(0.0, 0.0)):
    """Symmetric double well on an n = 50 grid (h*lam = 0.41; at this size
    it is a weakly perturbed box)."""
    params = ModelParams(lam=2.0, b=b, d1=0.35, a=0.3)
    grid = choose_grid(params, 50, double_well=True, pad=0.1)
    d1s = float(grid.snap([params.d1, 0.0])[0])
    spec = WellSpec.radial(params.a)
    return build_operator(replace(params, d1=d1s), grid,
                          wells=[(spec, (-d1s, 0.0)), (spec, (d1s, 0.0))],
                          gauge_origin=gauge_origin)


def full_operator_levels(op):
    """E0..E2 of H itself, solved as the full path of `splitting_direct`
    solves them."""
    return lowest_eigs(op, 3, seed=0, start=_oscillator_level(op.params))


def assert_levels_match(sd, ref):
    """sd: SplittingResult, ref: SpectralResult of the full-operator path."""
    ref_delta = ref.eigenvalues[1] - ref.eigenvalues[0]
    assert abs(sd.delta - ref_delta) <= 1e-10 * ref_delta
    for e, e_ref in zip(sd.energies, ref.eigenvalues):
        assert abs(e - e_ref) <= 1e-9 * max(1.0, abs(e_ref))


def full_residuals(op, spectral):
    """||H v - E v|| / ||v|| of each returned pair, against the full H."""
    out = []
    for e, f in zip(spectral.eigenvalues, spectral.eigenvectors):
        v = f.flat()
        out.append(np.linalg.norm(op.matrix @ v - e * v) / np.linalg.norm(v))
    return out


@pytest.mark.parametrize("b", [0.05, 0.0])
def test_splitting_parity_path_matches_full_operator(b):
    op = small_double_well(b)
    # at this size E2 crowds the pair: it must stay flagged not separated
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    assert sd.path == "parity"
    assert sd.parity_defect <= PARITY_RTOL * np.max(np.abs(op.matrix.data))
    assert_levels_match(sd, full_operator_levels(op))
    assert max(full_residuals(op, sd.spectral)) <= 1e-8
    assert sd.spectral.orthogonality_defect <= 1e-8
    # E0 and E1 are one even and one odd field under x -> -x
    parities = sorted(
        round(float(np.vdot(v, v[::-1]).real / np.vdot(v, v).real))
        for v in (f.flat() for f in sd.spectral.eigenvectors[:2]))
    assert parities == [-1, 1]


def test_splitting_asymmetric_gauge_takes_full_path():
    op = small_double_well(0.05, gauge_origin=(0.25, -0.15))
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    assert sd.path == "full"
    assert sd.parity_defect > 0.1
    ref = full_operator_levels(op)
    assert sd.energies == ref.eigenvalues
    assert sd.delta == ref.eigenvalues[1] - ref.eigenvalues[0]
    assert max(full_residuals(op, sd.spectral)) <= 1e-8
    # a gauge transform leaves the spectrum alone: the symmetric-gauge
    # operator, solved by parity sectors, has the same levels
    sym = splitting_direct(small_double_well(0.05), seed=0)
    assert not sym.cluster_separated
    assert_levels_match(sym, ref)


def pair_in_one_sector():
    """small_double_well(0.05) with two even two-site wells -depth * e e^T,
    e = (delta_k + delta_{N-1-k}) / sqrt(2): both lowest levels lie in the
    even sector while P still commutes with H; shallow enough that every
    level stays above the lattice's Gershgorin shift."""
    op = small_double_well(0.05)
    N = op.dimension
    H = op.matrix.tolil()
    for k, depth in ((N // 3, 60.0), (N // 5, 50.0)):
        for i in (k, N - 1 - k):
            for j in (k, N - 1 - k):
                H[i, j] -= depth / 2
    return SparseHermitianOp(matrix=H.tocsr(), grid=op.grid,
                             params=op.params, n_wells=op.n_wells)


def test_splitting_pair_within_one_sector_takes_full_path():
    op = pair_in_one_sector()
    sd = splitting_direct(op, seed=0)
    assert sd.parity_defect <= PARITY_RTOL * np.max(np.abs(op.matrix.data))
    assert sd.path == "full"
    assert_levels_match(sd, full_operator_levels(op))
    assert max(full_residuals(op, sd.spectral)) <= 1e-8


def test_splitting_below_a_coupling_beyond_the_stencil():
    # a two-site well -200 e e^T, e = (delta_k + delta_{N-1-k}) / sqrt(2),
    # couples its two sites by -100: the rows hold more than the 5-point
    # stencil's off-diagonal sum 4/h^2, and the deep level lies below
    # min(diag) - 4/h^2 - 1, so the lower bound must come from the matrix
    op = small_double_well(0.05)
    N = op.dimension
    H = op.matrix.tolil()
    k = N // 3
    for i in (k, N - 1 - k):
        for j in (k, N - 1 - k):
            H[i, j] -= 100.0
    op = SparseHermitianOp(matrix=H.tocsr(), grid=op.grid, params=op.params,
                           n_wells=op.n_wells)
    w = la.eigvalsh(op.matrix.toarray(), subset_by_index=[0, 2])
    h = op.grid.spacing
    assert w[0] < np.min(op.matrix.diagonal().real) - 4.0 / h ** 2 - 1.0
    assert _gershgorin_bound(op.matrix) - 1.0 < w[0]
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    assert sd.parity_defect <= PARITY_RTOL * np.max(np.abs(op.matrix.data))
    np.testing.assert_allclose(sd.energies, w, rtol=1e-9)
    assert max(full_residuals(op, sd.spectral)) <= 1e-8


def test_ratio_csv_roundtrip(tmp_path):
    row = RatioRow(lam=20.0, b=0.05, d1=0.39, E0=-25.2, E1=-23.7,
                   delta=1.46, abs_rho=0.7, ratio=1.04, quad_err=1e-8,
                   grid_n=208, grid_L=2.25, separated=False)
    rows = [row, replace(row, lam=30.0, separated=True)]
    path = tmp_path / "ratio.csv"
    write_ratio_csv(path, rows)
    back = read_ratio_csv(path)
    assert len(back) == 2
    for r, r0 in zip(back, rows):
        assert r.as_list()[:-1] == pytest.approx(r0.as_list()[:-1])
        assert r.separated is r0.separated
    header = path.read_text().splitlines()[0]
    assert header.split(",") == RATIO_CSV_COLUMNS
    # the flag is read as written, not as any truthy text
    path.write_text(path.read_text().replace(",True", ",yes"))
    with pytest.raises(ValueError, match="separated = 'yes'"):
        read_ratio_csv(path)


@pytest.fixture(scope="module")
def dense_b005():
    """(small_double_well(0.05), its four lowest levels by a dense
    eigvalsh)."""
    op = small_double_well(0.05)
    return op, la.eigvalsh(op.matrix.toarray(), subset_by_index=[0, 3])


def test_splitting_carries_count_certificate(dense_b005):
    op, w = dense_b005
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    assert sd.path == "parity"
    np.testing.assert_allclose(sd.energies, w[:3], rtol=1e-9)
    # one shift per sector, no level of its sector below it (E0 is even,
    # E1 odd), and two levels below (E1 + E2)/2
    assert len(sd.spectral.shifts) == 2
    assert sd.spectral.shifts[0] < w[0] and sd.spectral.shifts[1] < w[1]
    assert sd.pair_count == 2
    assert [count_below(B, s) for B, s in
            zip(parity_blocks(op.matrix), sd.spectral.shifts)] == [0, 0]


def test_splitting_raises_when_a_count_disagrees(monkeypatch):
    # 5 is neither 0 nor the wanted 2 per sector or 3 of H, so every shift
    # is lowered to the Gershgorin bound, and the counts at the cut decide
    op = small_double_well(0.05)
    monkeypatch.setattr(spectral, "_negative_pivots", lambda lu: 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigensolverError,
                           match=r"5 level\(s\) lie below .* put 2"):
            splitting_direct(op, seed=0)


def test_splitting_falls_back_when_only_the_sector_counts_disagree(
        monkeypatch):
    # the sector counts are off by one, H's own count is right: the parity
    # path is not certified, and the full path's count decides
    op = small_double_well(0.05)
    count = spectral._negative_pivots

    def wrong_on_blocks(lu):
        return count(lu) + (lu.shape[0] < op.dimension)

    monkeypatch.setattr(spectral, "_negative_pivots", wrong_on_blocks)
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    assert sd.path == "full" and sd.pair_counts == (2,)
    ref = full_operator_levels(op)
    assert sd.energies == ref.eigenvalues
    assert sd.spectral.shifts == ref.shifts


def test_certified_levels_count_once_at_the_cut(monkeypatch):
    # at this size E2 crowds the pair: E1 + 1e-8 has one level per sector
    # below it and certifies the pair, E1 + 2 Delta0 has two and does not;
    # either cut costs one count per block
    op = small_double_well(0.05)
    blocks = parity_blocks(op.matrix)
    counted = []
    count = spectral.count_below

    def counting(M, sigma):
        counted.append(sigma)
        return count(M, sigma)

    monkeypatch.setattr(spectral, "count_below", counting)
    for cut, counts, certified in (
            (lambda e: e[1] + 1e-8, (1, 1), True),
            (lambda e: e[1] + 2 * (e[1] - e[0]), (2, 2), False)):
        counted.clear()
        res, (at, below), ok = spectral._certified_levels(
            op, blocks, (1, 1), 2, _gershgorin_bound(blocks[0]) - 1.0, 0,
            cut)
        assert (below, ok) == (counts, certified)
        assert counted == [at, at]
        assert at == cut(np.array(res.eigenvalues))
        assert len(res.eigenvalues) == 2 and len(res.shifts) == 2


def test_single_well_refuses_an_odd_ground_level(monkeypatch):
    # an odd two-site well -depth * o o^T, o = (delta_k - delta_{N-1-k}) /
    # sqrt(2), added to the single-well lattice keeps H commuting with
    # x -> -x but makes its lowest level odd
    built = []
    build = tunneling.build_operator

    def with_odd_well(*args, **kwargs):
        op = build(*args, **kwargs)
        N = op.dimension
        H = op.matrix.tolil()
        k = N // 3
        for i, j, sign in ((k, k, 1), (N - 1 - k, N - 1 - k, 1),
                           (k, N - 1 - k, -1), (N - 1 - k, k, -1)):
            H[i, j] -= sign * 100.0
        built.append(SparseHermitianOp(matrix=H.tocsr(), grid=op.grid,
                                       params=op.params, n_wells=op.n_wells))
        return built[-1]

    monkeypatch.setattr(tunneling, "build_operator", with_odd_well)
    params = ModelParams(lam=2.0, b=0.05, d1=0.35, a=0.3)
    try:
        res, _ = single_well_ground(params, 50, seed=0)
    except EigensolverError as err:
        assert "1 even and 1 odd" in str(err)
        res = None
    (op,) = built
    w, V = la.eigh(op.matrix.toarray(), subset_by_index=[0, 1])
    assert np.vdot(V[:, 0], V[::-1, 0]).real < -0.99       # odd ground
    if res is not None:
        assert abs(res.eigenvalues[0] - w[0]) <= 1e-9 * abs(w[0])


def test_parity_path_makes_one_near_eigsh_call_per_sector(monkeypatch):
    calls = []
    eigsh = spla.eigsh

    def counting_eigsh(A, *args, **kwargs):
        calls.append((A.shape[0], kwargs["k"], kwargs["sigma"],
                      _gershgorin_bound(A)))
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting_eigsh)
    op = small_double_well(0.05)
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    assert sd.path == "parity"
    assert [(n, k) for n, k, _, _ in calls] == [(op.dimension // 2, 2)] * 2
    # neither pass runs at the Gershgorin bound
    assert all(sigma > bound for _, _, sigma, bound in calls)

    calls.clear()
    params = ModelParams(lam=2.0, b=0.05, d1=0.35, a=0.3)
    res, sw = single_well_ground(params, 50, seed=0)
    assert [(n, k) for n, k, _, _ in calls] == [(sw.dimension // 2, 1)]
    assert calls[0][2] > calls[0][3]
    assert res.shifts == [calls[0][2]]


def test_pair_only_splitting_matches_the_default():
    op = small_double_well(0.05)
    ref = splitting_direct(op, seed=0)
    sd = splitting_direct(op, seed=0, with_e2=False)
    assert not ref.cluster_separated and not sd.cluster_separated
    assert sd.path == "parity"
    assert len(sd.energies) == 2
    np.testing.assert_allclose(sd.energies, ref.energies[:2], rtol=1e-12)
    assert abs(sd.delta - ref.delta) <= 1e-12 * ref.delta
    assert max(full_residuals(op, sd.spectral)) <= 1e-8


def test_pair_only_path_makes_one_k1_eigsh_call_per_sector(monkeypatch):
    calls = []
    eigsh = spla.eigsh

    def counting_eigsh(A, *args, **kwargs):
        calls.append((A.shape[0], kwargs["k"]))
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting_eigsh)
    op = small_double_well(0.05)
    sd = splitting_direct(op, seed=0, with_e2=False)
    assert not sd.cluster_separated
    assert sd.path == "parity"
    assert calls == [(op.dimension // 2, 1)] * 2


def test_pair_only_splitting_within_one_sector_takes_full_path():
    # the k = 1 sector solves give the even and the odd ground level, and the
    # count at E1 finds both lowest levels even
    op = pair_in_one_sector()
    sd = splitting_direct(op, seed=0, with_e2=False)
    assert not sd.cluster_separated
    assert sd.path == "full" and len(sd.energies) == 2
    assert sd.pair_counts == (2,) and sd.separation_counts != (2,)
    assert_levels_match(sd, full_operator_levels(op))
    assert max(full_residuals(op, sd.spectral)) <= 1e-8


def test_pair_only_splitting_raises_when_a_count_disagrees(monkeypatch):
    # the parity path's counts disagree, so the full path is tried, and its
    # count is final
    op = small_double_well(0.05)
    monkeypatch.setattr(spectral, "_negative_pivots", lambda lu: 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigensolverError,
                           match=r"3 level\(s\) lie below E1 .* put 2"):
            splitting_direct(op, seed=0, with_e2=False)


def test_pair_only_splitting_certifies_a_pair_it_cannot_separate(dense_b005):
    # at this size E2 crowds the pair: the counts at E1 + 2 Delta0 find a
    # second level per sector, and the pair is certified at E1 alone
    op, w = dense_b005
    assert w[2] - w[1] <= tunneling.SEPARATION_FACTOR * (w[1] - w[0])
    sd = splitting_direct(op, seed=0, with_e2=False)
    assert not sd.cluster_separated
    assert sd.pair_counts == (1, 1) and sd.pair_count == 2
    assert sd.separation_counts == (2, 2)
    np.testing.assert_allclose(sd.energies, w[:2], rtol=1e-9)


def test_pair_only_splitting_separates_an_isolated_pair():
    # an even and an odd two-site well on the same sites, -depth * e e^T
    # with e = (delta_k +- delta_{N-1-k}) / sqrt(2) and depths 1e-3 apart,
    # make the pair one even and one odd level with E2 far above it
    op = small_double_well(0.05)
    N = op.dimension
    H = op.matrix.tolil()
    k = N // 3
    for sign, depth in ((1, 60.0), (-1, 60.0 - 1e-3)):
        for i, j, s in ((k, k, 1), (N - 1 - k, N - 1 - k, 1),
                        (k, N - 1 - k, sign), (N - 1 - k, k, sign)):
            H[i, j] -= s * depth / 2
    op = SparseHermitianOp(matrix=H.tocsr(), grid=op.grid, params=op.params,
                           n_wells=op.n_wells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sd = splitting_direct(op, seed=0, with_e2=False)
    assert sd.path == "parity" and sd.cluster_separated
    assert sd.separation_counts == sd.pair_counts == (1, 1)
    ref = full_operator_levels(op)
    e0, e1, e2 = ref.eigenvalues
    assert e2 - e1 > tunneling.SEPARATION_FACTOR * (e1 - e0)
    assert_levels_match(sd, ref)


def test_ratio_point_gives_the_default_splitting():
    # the sweep point's pair-only solve from the single well's level gives
    # the Delta0 of the default solve on the same double well (the
    # geometry of test_cli's test_splitting_matches_the_sweep_point)
    params = ModelParams(lam=8.0, b=0.05, d1=0.45, a=0.2)
    row = ratio_point(params, 96)
    grid, params = tunneling.lattice_grid(params, 96)
    spec = WellSpec.radial(params.a)
    op = build_operator(params, grid, wells=[(spec, (-params.d1, 0.0)),
                                             (spec, (params.d1, 0.0))])
    sd = splitting_direct(op)
    assert abs(row.delta - sd.delta) <= 1e-12 * sd.delta
    assert row.E0 == pytest.approx(sd.energies[0], rel=1e-12)
    assert row.E1 == pytest.approx(sd.energies[1], rel=1e-12)


class _TrackedLU:
    """SuperLU proxy that counts the factorizations alive."""
    alive = 0

    def __init__(self, lu):
        self._lu = lu
        _TrackedLU.alive += 1

    def __del__(self):
        _TrackedLU.alive -= 1

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.mark.parametrize("lam, separation", [(20.0, (7, 7)), (22.0, (1, 1))])
def test_ratio_point_solves_on_the_lus_that_count(monkeypatch, lam,
                                                  separation):
    # the benchmark's sweep points: the single well counts (1, 0) at the
    # top of its well and the pair (1, 1) at E0 of the single well plus
    # 2|rho0|, so each block is solved on the LU that counts it; two more
    # LUs count at E1 + 2 Delta0, which separates the pair at lam = 22 only
    lus, splits, solves = [], [], []
    splu, eigsh = spla.splu, spla.eigsh

    def tracked_splu(A, *args, **kwargs):
        lus.append((A.shape[0], _TrackedLU.alive))
        return _TrackedLU(splu(A, *args, **kwargs))

    def recording_eigsh(A, *args, **kwargs):
        solves.append((kwargs["k"], kwargs["which"], kwargs["sigma"]))
        return eigsh(A, *args, **kwargs)

    split = tunneling.splitting_direct

    def recording(op, **kwargs):
        splits.append((len(lus), kwargs["start"], split(op, **kwargs)))
        return splits[-1][2]

    monkeypatch.setattr(spla, "splu", tracked_splu)
    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    monkeypatch.setattr(tunneling, "splitting_direct", recording)
    row = ratio_point(ModelParams(lam=lam, b=0.05, d1=0.3, a=0.1), 184)
    (before, start, sd), = splits
    half = row.grid_n ** 2 // 2
    assert lus == [(half, 0)] * 6          # one LU alive at a time
    assert before == 2
    assert solves == [(1, "SA", 0.0)] + [(1, "SA", start)] * 2
    assert sd.path == "parity" and sd.pair_counts == (1, 1)
    assert sd.spectral.shifts == [start] * 2
    assert sd.spectral.counts == [1, 1]
    assert sd.separation_counts == separation
    assert row.separated == sd.cluster_separated == (separation == (1, 1))


def test_a_candidate_shift_that_miscounts_falls_back_to_the_search(
        dense_b005, monkeypatch):
    # between E1 and E2 the sectors count (1, 1) and the pair is solved
    # there; below E0 they count (0, 0), and the search gives the same pair;
    # above E3 they count (2, 2), and each block's shift is lowered to its
    # first one that counts one level, the odd block's from the even
    # block's, where the pair is solved
    op, w = dense_b005
    blocks = parity_blocks(op.matrix)
    at, above = 0.5 * (w[1] + w[2]), w[3] + 0.1
    assert [count_below(B, at) for B in blocks] == [1, 1]
    assert [count_below(B, above) for B in blocks] == [2, 2]
    counted = splitting_direct(op, seed=0, start=at, with_e2=False)
    assert counted.spectral.shifts == [at, at]
    assert counted.spectral.counts == [1, 1]
    searched = splitting_direct(op, seed=0, start=w[0] - 1.0, with_e2=False)
    assert all(s < w[0] for s in searched.spectral.shifts)
    assert searched.spectral.counts == [0, 0]
    factorized = []
    shifted = spectral._shifted

    def recording(M, sigma):
        factorized.append((id(M), sigma))
        return shifted(M, sigma)

    monkeypatch.setattr(spectral, "_shifted", recording)
    lowered = splitting_direct(op, seed=0, start=above, with_e2=False)
    monkeypatch.undo()
    even, odd = lowered.spectral.shifts         # E0, E3 even; E1, E2 odd
    assert w[1] < odd < w[2] and odd <= even < w[3]
    assert lowered.spectral.counts == [1, 1]
    assert len(set(factorized)) == len(factorized)
    for sd in (counted, searched, lowered):
        assert sd.path == "parity" and sd.pair_counts == (1, 1)
        assert sd.separation_counts == (2, 2) and not sd.cluster_separated
        np.testing.assert_allclose(sd.energies, w[:2], rtol=1e-9)
        assert max(full_residuals(op, sd.spectral)) <= 1e-8
    np.testing.assert_allclose(counted.energies, searched.energies,
                               rtol=1e-12)
    assert abs(counted.delta - searched.delta) <= 1e-10 * searched.delta

    # the sweep point of test_cli's test_sweep_cache_and_plot_roundtrip, 9
    # LUs: the single well's ground lies above 0, where the even block
    # counts no level and is solved, and two counts at E0 + 1e-8 certify
    # it; the pair's shift counts (1, 0), where both sectors are solved,
    # and two counts at E1 + 1e-8 certify them; two more count at
    # E1 + 2 Delta0
    lus = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        lus.append(args[0].shape[0])
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    row = ratio_point(ModelParams(lam=8.0, b=0.0, d1=0.45, a=0.2), 96)
    assert len(lus) == 9 and not row.separated

    # the single well: no level below a shift under its ground, where the
    # even block counts 0, not 1, and the pass nearest that shift gives the
    # ground level of the shift at the top of the well
    params = ModelParams(lam=20.0, b=0.05, d1=0.3, a=0.1)
    res, sw = single_well_ground(params, 184, seed=0)
    assert res.shifts == [0.0, 0.0] and res.counts == [1, 0]
    low = spectral.certified_ground(sw, res.eigenvalues[0] - 1.0, 0)
    assert low.counts == [0] and low.shifts[0] < res.eigenvalues[0]
    assert abs(low.eigenvalues[0] - res.eigenvalues[0]) \
        <= 1e-12 * abs(res.eigenvalues[0])


def test_deep_single_well_is_solved_at_its_oscillator_rayleigh_quotient():
    # at lam = 45 the well's one bound level lies far below 0, and the
    # oscillator ground state's Rayleigh quotient R, an upper bound of E0,
    # lies below 0: the level is counted and solved at R
    params = ModelParams(lam=45.0, b=0.05, d1=0.3, a=0.1)
    res, sw = single_well_ground(params, 184, seed=0)
    psi = mho_ground_field(mho_reference(sw.params), sw.grid).flat()
    rq = np.vdot(psi, sw.matrix @ psi).real / np.vdot(psi, psi).real
    assert res.eigenvalues[0] < rq < 0.0
    assert res.shifts == [rq, rq] and res.counts == [1, 0]
    low = spectral.certified_ground(sw, res.eigenvalues[0] - 1.0, 0)
    assert low.counts == [0]
    assert abs(low.eigenvalues[0] - res.eigenvalues[0]) \
        <= 1e-12 * abs(res.eigenvalues[0])


def test_quasimodes_count_the_pair_at_the_benchmark_geometry(monkeypatch):
    # the 2x2 identity at lam = 16 on n = 136, the benchmark's point: the
    # two inertia counts put exactly the pair inside the contour, and the
    # Gramian defect lies within its budget 5 / sqrt(lam)
    a = 0.13
    params = ModelParams(lam=16.0, b=0.05, d1=3 * a, a=a)
    spec = WellSpec.radial(a)
    grid = choose_grid(params, 136, double_well=True, pad=0.0)
    params = replace(params, d1=float(grid.snap([params.d1, 0.0])[0]))
    op = build_operator(params, grid, wells=[(spec, (-params.d1, 0.0)),
                                             (spec, (params.d1, 0.0))])
    sd = splitting_direct(op, seed=0)
    e0, e1, e2 = sd.energies
    center = (e0 + e1) / 2
    contour = Contour(center=complex(center),
                      radius=float(0.5 * (e2 - center)), quadrature_nodes=32)
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    qm = quasimodes(params, op, spec=spec, contour=contour)
    # two LUs, the counts at c + r and c - r, and every node's two solves
    # on the second within 1e-13 normwise backward error
    assert len(calls) == 2
    assert qm.rank_estimate == 2.0
    assert qm.backward_error <= 1e-13
    red = gram_and_m(qm.psi_minus, qm.psi_plus, op)
    assert red.gram_defect <= red.gram_budget
    assert abs(red.splitting - sd.delta) <= 1e-6 * sd.delta
