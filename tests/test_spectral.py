"""Eigensolver and Riesz projector tests on small grids where a dense
eigendecomposition provides an exact oracle."""

import importlib

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

from maglab.grid_model import Field, Grid2D, ModelParams, build_operator
from maglab import spectral
from maglab.spectral import (
    ClusterError,
    Contour,
    ContourSolveError,
    EigensolverError,
    _factor_hermitian,
    _gershgorin_bound,
    _shifted,
    _ShiftedKrylov,
    _verified_result,
    count_below,
    lowest_eigs,
    riesz_project,
)
from maglab.tunneling import quasimodes


def make_op(n=20, b=0.2, lam=2.0):
    params = ModelParams(lam=lam, b=b, d1=0.4, a=0.15)
    grid = Grid2D(half_extent=1.0, n=n)
    return build_operator(params, grid, wells=())


def dense_eigs(op):
    return la.eigh(op.matrix.toarray())


def cluster_contour(w, k, m=32):
    """Circle enclosing exactly the lowest k dense eigenvalues."""
    center = 0.5 * (w[0] + w[k - 1])
    radius = 0.5 * ((w[k - 1] - center) + (w[k] - center))
    return Contour(center=complex(center), radius=float(radius),
                   quadrature_nodes=m)


def test_lowest_eigs_matches_dense_oracle():
    op = make_op()
    res = lowest_eigs(op, k=4)
    w, _ = dense_eigs(op)
    np.testing.assert_allclose(res.eigenvalues, w[:4], rtol=1e-10)
    assert res.eigenvalues == sorted(res.eigenvalues)
    assert all(r < 1e-8 * abs(res.eigenvalues[0]) for r in res.residuals)
    assert res.orthogonality_defect <= 1e-8
    # eigenvectors are L2(grid)-normalized
    for f in res.eigenvectors:
        assert abs(f.norm() - 1.0) < 1e-10


def test_lowest_eigs_rejects_large_k():
    op = make_op(n=20)
    with pytest.raises(ValueError):
        lowest_eigs(op, k=400)


@pytest.fixture(scope="module")
def op56():
    """(op, its five lowest levels by a dense eigvalsh) on the n = 56 grid."""
    op = make_op(n=56)
    return op, la.eigvalsh(op.matrix.toarray(), subset_by_index=[0, 4])


def test_lowest_eigs_lowers_a_start_inside_the_spectrum(op56, monkeypatch):
    op, w = op56
    # below the spectrum the solve runs at the start itself ...
    res = lowest_eigs(op, k=2, start=w[0] - 1.0)
    np.testing.assert_allclose(res.eigenvalues, w[:2], rtol=1e-10)
    assert res.shifts == [w[0] - 1.0]
    # ... between E0 and E1 the count finds E0 below it, and the shift is
    # lowered under E0 before the solve, which then gives E0 and E1 ...
    res = lowest_eigs(op, k=2, start=0.5 * (w[0] + w[1]))
    np.testing.assert_allclose(res.eigenvalues, w[:2], rtol=1e-10)
    assert res.shifts[0] < w[0] and res.counts == [0]
    # ... and between E1 and E2 the count is exactly k = 2: the two levels
    # below the start are solved there (which="SA")
    start = 0.5 * (w[1] + w[2])
    whiches = []
    eigsh = spla.eigsh

    def recording_eigsh(A, *args, **kwargs):
        whiches.append(kwargs["which"])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recording_eigsh)
    res = lowest_eigs(op, k=2, start=start)
    np.testing.assert_allclose(res.eigenvalues, w[:2], rtol=1e-10)
    assert res.shifts == [start] and res.counts == [2]
    assert whiches == ["SA"]


def test_shift_invert_hands_one_minimum_degree_lu_to_arpack(monkeypatch):
    op = make_op(n=20)
    w = la.eigvalsh(op.matrix.toarray(), subset_by_index=[0, 2])
    orderings = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        orderings.append(kwargs.get("permc_spec"))
        return splu(A, *args, **kwargs)

    def forbidden_splu(*args, **kwargs):
        raise AssertionError("ARPACK factorized M - sigma I itself")

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(
        importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack"),
        "splu", forbidden_splu)
    res = lowest_eigs(op, k=2)
    np.testing.assert_allclose(res.eigenvalues, w[:2], rtol=1e-10)
    assert orderings == ["MMD_AT_PLUS_A"]
    assert res.shifts == [_gershgorin_bound(op.matrix) - 1.0]


def test_verified_result_reorthonormalizes_skewed_vectors():
    op = make_op()
    w, V = dense_eigs(op)
    vecs = V[:, :2].copy()
    vecs[:, 1] += 1e-5 * vecs[:, 0]           # overlap ~1e-5 > 1e-8
    res = _verified_result(op, w[:2], vecs)
    G = np.array([[f.inner(g) for g in res.eigenvectors]
                  for f in res.eigenvectors])
    np.testing.assert_allclose(G, np.eye(2), atol=1e-12)
    assert res.orthogonality_defect <= 1e-12


def test_riesz_projector_matches_dense_projector():
    op = make_op()
    w, V = dense_eigs(op)
    contour = cluster_contour(w, 2)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(op.dimension) \
        + 1j * rng.standard_normal(op.dimension)
    f = Field(op.grid, vec.reshape(op.grid.n, op.grid.n))
    (pf,), *_ = riesz_project(op, contour, [f], rank=2)
    exact = V[:, :2] @ (V[:, :2].conj().T @ vec)
    assert np.linalg.norm(pf.flat() - exact) <= 1e-8 * np.linalg.norm(vec)


def test_riesz_projector_idempotent_and_commutes():
    op = make_op(b=0.3)
    w, _ = dense_eigs(op)
    contour = cluster_contour(w, 2)
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(op.dimension).astype(complex)
    f = Field(op.grid, vec.reshape(op.grid.n, op.grid.n))
    (pf,), *_ = riesz_project(op, contour, [f], rank=2)
    (ppf,), *_ = riesz_project(op, contour, [pf], rank=2)
    assert np.linalg.norm(ppf.flat() - pf.flat()) \
        <= 1e-7 * np.linalg.norm(vec)
    # commutation with the Hamiltonian
    hp = op.apply(pf)
    (ph,), *_ = riesz_project(op, contour, [op.apply(f)], rank=2)
    assert np.linalg.norm(hp.flat() - ph.flat()) \
        <= 1e-6 * np.linalg.norm(op.apply(f).flat())


def test_riesz_projector_accepts_field_lists():
    op = make_op()
    w, _ = dense_eigs(op)
    contour = cluster_contour(w, 2)
    rng = np.random.default_rng(2)
    fs = [Field(op.grid, rng.standard_normal((op.grid.n, op.grid.n))
                .astype(complex)) for _ in range(3)]
    out, *_ = riesz_project(op, contour, fs, rank=2)
    assert isinstance(out, list) and len(out) == 3


@pytest.mark.parametrize("enclosed", [1, 2, 3])
def test_projector_rank_estimate_counts_enclosed_levels(enclosed):
    op = make_op(b=0.25)
    w, _ = dense_eigs(op)
    contour = cluster_contour(w, enclosed, m=48)
    f = Field(op.grid, np.ones((op.grid.n, op.grid.n), dtype=complex))
    _, est, *_ = riesz_project(op, contour, [f], rank=enclosed)
    assert est == enclosed


def pair_op():
    """Strong field on the box: the two lowest levels lie far enough below
    the third for a 32-node trapezoid rule (see `pair_contour`)."""
    return make_op(b=4.0, lam=3.0)


def pair_contour(w, m=32):
    """Circle around w[0], w[1] through the geometric mean of their and
    w[2]'s distances from the centre: the trapezoid error falls like
    rho^m, rho = sqrt((w1 - c) / (w2 - c)) = 0.41 for `pair_op`."""
    center = 0.5 * (w[0] + w[1])
    radius = np.sqrt((w[1] - center) * (w[2] - center))
    return Contour(center=complex(center), radius=float(radius),
                   quadrature_nodes=m)


def test_node_solves_square_the_projector_by_the_resolvent_identity():
    # Pi^2 f from the node solves of one basis (second solves on the same
    # basis, summed by the resolvent identity) against Pi(Pi f), a second
    # projection from a basis started at Pi f, on the same LU
    op = pair_op()
    w, _ = dense_eigs(op)
    contour = pair_contour(w)
    rng = np.random.default_rng(6)
    f = (rng.standard_normal((op.dimension, 2))
         + 1j * rng.standard_normal((op.dimension, 2)))
    sigma = contour.center.real - contour.radius
    lu = _factor_hermitian(_shifted(op.matrix, sigma))
    p1, p2, backward = _ShiftedKrylov(op.matrix, lu, sigma, f).project(
        contour, 32)
    explicit = _ShiftedKrylov(op.matrix, lu, sigma, p1).project(contour,
                                                                32)[0]
    assert np.linalg.norm(p2 - explicit) <= 1e-12 * np.linalg.norm(explicit)
    assert backward <= spectral.BACKWARD_TOL


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


def track_lus(monkeypatch):
    """Route every sparse LU through `_TrackedLU`; the returned list gets,
    per factorization, whether it pivots on the diagonal only (the
    `_factor_hermitian` LU) and the LUs alive when it was made."""
    calls = []
    splu = spla.splu

    def tracked_splu(A, *args, **kwargs):
        calls.append((kwargs.get("diag_pivot_thresh") == 0, _TrackedLU.alive))
        return _TrackedLU(splu(A, *args, **kwargs))

    monkeypatch.setattr(spla, "splu", tracked_splu)
    return calls


@pytest.mark.parametrize("m", [16, 32])
def test_projection_makes_two_lus_with_or_without_doubling(monkeypatch, m):
    op = pair_op()
    w, V = dense_eigs(op)
    contour = pair_contour(w, m=m)          # defect ~ rho^16 > 1e-8 at m = 16
    calls = track_lus(monkeypatch)
    f = Field(op.grid, np.ones((op.grid.n, op.grid.n), dtype=complex))
    (pf,), est, nodes, defect, backward, columns = riesz_project(
        op, contour, [f], rank=2)
    assert nodes == 32 and defect <= 1e-8 and est == 2
    # the counts at c + r and c - r, the second LU serving every node of
    # both node counts, made after the first is freed
    assert calls == [(True, 0), (True, 0)] and _TrackedLU.alive == 0
    assert backward <= spectral.BACKWARD_TOL
    assert 2 <= columns <= spectral.MAX_BASIS_COLUMNS
    vec = f.flat()
    exact = V[:, :2] @ (V[:, :2].conj().T @ vec)
    assert np.linalg.norm(pf.flat() - exact) <= 1e-8 * np.linalg.norm(vec)


def test_idempotence_failure_is_a_cluster_error(monkeypatch):
    op = pair_op()
    w, _ = dense_eigs(op)
    monkeypatch.setattr(spectral, "MAX_DOUBLINGS", 0)
    f = Field(op.grid, np.ones((op.grid.n, op.grid.n), dtype=complex))
    with pytest.raises(ClusterError, match="idempotence defect .* at m=16"):
        riesz_project(op, pair_contour(w, m=16), [f], rank=2)


def test_basis_cap_of_one_block_raises_contour_solve_error(monkeypatch):
    op = pair_op()
    w, _ = dense_eigs(op)
    monkeypatch.setattr(spectral, "MAX_BASIS_COLUMNS", 2)
    rng = np.random.default_rng(7)
    fs = [Field(op.grid, rng.standard_normal((op.grid.n, op.grid.n))
                .astype(complex)) for _ in range(2)]
    with pytest.raises(ContourSolveError, match="basis of 2 columns"):
        riesz_project(op, pair_contour(w), fs, rank=2)


def test_outside_level_at_1_8_radii_matches_dense_projector():
    # the third level at 1.8 r from the centre, just beyond the 1.78 r that
    # an idempotence defect of 1e-8 at m = 32 implies: its pole in the
    # shift-inverted variable lies closest to the nodes
    op = pair_op()
    w, V = dense_eigs(op)
    center = 0.5 * (w[0] + w[1])
    radius = (w[2] - center) / 1.8
    assert w[1] - center < radius
    contour = Contour(center=complex(center), radius=float(radius),
                      quadrature_nodes=32)
    rng = np.random.default_rng(8)
    vec = rng.standard_normal(op.dimension) \
        + 1j * rng.standard_normal(op.dimension)
    f = Field(op.grid, vec.reshape(op.grid.n, op.grid.n))
    (pf,), est, nodes, _, backward, _ = riesz_project(op, contour, [f], rank=2)
    assert est == 2 and nodes == 32 and backward <= spectral.BACKWARD_TOL
    exact = V[:, :2] @ (V[:, :2].conj().T @ vec)
    assert np.linalg.norm(pf.flat() - exact) <= 1e-8 * np.linalg.norm(vec)


def test_fused_sweeps_reject_wrong_rank_before_doubling(monkeypatch):
    op = pair_op()
    w, _ = dense_eigs(op)
    contour = cluster_contour(w, 3)
    calls = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        calls.append("count" if "diag_pivot_thresh" in kwargs else "node")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    f = Field(op.grid, np.ones((op.grid.n, op.grid.n), dtype=complex))
    with pytest.raises(ClusterError, match="encloses 3 levels, not 2"):
        riesz_project(op, contour, [f], rank=2)
    assert calls == ["count", "count"]      # no contour LU


def test_quasimodes_makes_two_lus(monkeypatch):
    op = pair_op()
    w, _ = dense_eigs(op)
    calls = track_lus(monkeypatch)
    qm = quasimodes(op.params, op, contour=pair_contour(w, m=32),
                    rank_probes=6, seed=0)
    # the two counts, one alive at a time; every node of the pair solves
    # on the second
    assert calls == [(True, 0), (True, 0)] and _TrackedLU.alive == 0
    assert qm.rank_estimate == 2.0
    assert qm.nodes == 32
    assert 0.0 <= qm.idempotence_defect <= 1e-8
    assert 0.0 < qm.backward_error <= spectral.BACKWARD_TOL
    assert qm.basis_columns % 2 == 0


def test_count_below_matches_dense_eigvalsh(op56):
    op, w = op56
    points = ([w[0] - 1.0, w[0] - 1e-6]                      # below
              + [w[0] + 1e-6]                                # just above E0
              + [0.5 * (w[j] + w[j + 1]) for j in range(3)]  # mid-gaps
              + [0.5 * (w[3] + w[4])])                       # above E3
    assert ([count_below(op.matrix, s) for s in points]
            == [0, 0, 1, 1, 2, 3, 4])


def test_count_below_rejects_off_diagonal_pivots(monkeypatch):
    op = make_op(n=30)
    splu = spla.splu

    class Pivoted:
        def __init__(self, lu):
            self._lu = lu
            self.perm_r = lu.perm_r[::-1]

        def __getattr__(self, name):
            return getattr(self._lu, name)

    monkeypatch.setattr(spla, "splu",
                        lambda *args, **kwargs: Pivoted(splu(*args, **kwargs)))
    with pytest.raises(EigensolverError, match="perm_r != perm_c"):
        count_below(op.matrix, 0.0)
    with pytest.raises(EigensolverError, match="perm_r != perm_c"):
        lowest_eigs(make_op(n=56), k=1)


def test_contour_rejects_a_centre_off_the_real_axis():
    # the counts span the circle's diameter and every node solves on the
    # LU at its left end, both on the real axis only when the centre is
    # real; the pair circle moved up by 0.2i * radius still encloses the
    # same two levels, and is refused before any LU is made
    w, _ = dense_eigs(pair_op())
    c = pair_contour(w)
    with pytest.raises(ValueError, match="not real"):
        Contour(center=c.center + 0.2j * c.radius, radius=c.radius,
                quadrature_nodes=32)
    assert Contour(center=np.float64(c.center.real), radius=1.0).center \
        == c.center.real
