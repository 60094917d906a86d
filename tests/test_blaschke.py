"""Blaschke/Herglotz toolkit: single-factor inequalities, averaged m-function
closed forms against quadrature oracles, Poisson-kernel bounds, and the
lower-bound certificates with their hypothesis checks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from maglab import blaschke
from maglab.blaschke import (
    BlaschkeZeroSet,
    CertificateError,
    DomainError,
    HerglotzMeasure,
    LowerBoundCertificate,
    avg_mfun,
    avg_neg_log,
    certify_lower_bound,
    estimate_mu0,
    factor,
    half_plane_bound,
    herglotz_eval,
    mfun,
    normalizing_phase,
    product,
    synthetic_f,
    wedge_pullback,
)

zeros_strategy = st.tuples(st.floats(0.05, 5.0), st.floats(-5.0, 5.0)).map(
    lambda ab: complex(ab[0], ab[1]))


def test_factor_domain_checks():
    with pytest.raises(DomainError):
        factor(-0.1 + 1j, 1.0)
    with pytest.raises(DomainError):
        factor(1.0 + 1j, -0.5)


def test_factor_unimodular_on_imaginary_axis_limit():
    # |B_a(x + iy)| -> 1 as x -> 0+: the boundary values are unimodular
    a = 0.7 + 0.3j
    for y in (-2.0, 0.5, 3.0):
        v = abs(factor(a, 1e-12 + 1j * y))
        assert abs(v - 1.0) < 1e-9


def test_normalizing_phase_value_and_property():
    # e^{i theta} (1 - a)/(1 + conj a) must be real positive
    for a in (1.0 + 1.0j, 0.3 - 2.0j, 2.5 + 0.0j):
        th = normalizing_phase(a)
        w = np.exp(1j * th) * (1 - a) / (1 + np.conj(a))
        assert abs(w.imag) < 1e-14 and w.real > 0
    # frozen spot value
    assert abs(normalizing_phase(1 + 1j) - 1.1071487177940904) < 1e-12


@settings(max_examples=300, deadline=None)
@given(a=zeros_strategy, t=st.floats(0.01, 5.0))
def test_single_factor_real_part_domination(a, t):
    # -log|B_a(t)| <= -log|B_{Re a}(t)| on the positive real axis
    mod_mid = abs(factor(complex(a.real), t))
    if mod_mid == 0.0:
        return                              # both sides are +infinity
    lhs = -math.log(abs(factor(a, t)))
    mid = -math.log(mod_mid)
    assert lhs <= mid + 1e-12


@settings(max_examples=300, deadline=None)
@given(a=zeros_strategy, t=st.floats(0.01, 5.0))
def test_single_factor_mfun_bound(a, t):
    # off x = Re a / t in [1/2, 2]: -log|B_a(t)| <= 4 m(x)
    x = a.real / t
    if 0.5 <= x <= 2.0:
        return
    lhs = -math.log(abs(factor(a, t)))
    assert lhs <= 4.0 * mfun(x) + 1e-12


def test_mfun_basics():
    assert mfun(0.5) == 0.5
    assert mfun(4.0) == 0.25
    assert mfun(1.0) == 1.0
    with pytest.raises(DomainError):
        mfun(0.0)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1e-3, 10.0), delta=st.floats(1e-3, 0.5))
def test_avg_mfun_matches_quadrature(alpha, delta):
    oracle, err = quad(lambda t: mfun(t / alpha), delta, 2 * delta,
                       points=[alpha] if delta < alpha < 2 * delta else None)
    got = avg_mfun(alpha, delta)
    assert abs(got - oracle / delta) <= 1e-9 + 10 * err / delta


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(1e-3, 10.0), delta=st.floats(1e-3, 0.5))
def test_avg_mfun_three_halves_bound(alpha, delta):
    assert avg_mfun(alpha, delta) <= 1.5 * mfun(delta / alpha) + 1e-12


def test_avg_neg_log_matches_mpmath_oracle():
    zs = BlaschkeZeroSet.from_zeros([0.15 + 0.2j, 1.3 - 0.4j])
    delta = 0.1

    def F(t):
        return product(zs, t)

    got = avg_neg_log(F, delta, zeros=zs.real_zeros_in(delta, 2 * delta))
    oracle = mpmath.quad(lambda t: -mpmath.log(abs(F(float(t)))),
                         [delta, 2 * delta]) / delta
    assert abs(got - float(oracle)) < 1e-9


def test_avg_neg_log_handles_block_interior_zero():
    # a real zero inside [delta, 2 delta] is an integrable log singularity
    a = 0.15
    zs = BlaschkeZeroSet.from_zeros([a])
    delta = 0.1
    got = avg_neg_log(lambda t: product(zs, t), delta, zeros=[a])

    # exact antiderivatives: -log|B_a(t)| = -log|t - a| + log(t + a)
    def int_log_abs(t):                     # integral of log|t - a|
        return (t - a) * math.log(abs(t - a)) - (t - a) if t != a else 0.0

    def int_log_sum(t):                     # integral of log(t + a)
        return (t + a) * math.log(t + a) - (t + a)

    oracle = (-(int_log_abs(2 * delta) - int_log_abs(delta))
              + int_log_sum(2 * delta) - int_log_sum(delta)) / delta
    assert abs(got - oracle) < 1e-8
    assert np.isfinite(got)


def test_zero_set_budgets():
    zs = BlaschkeZeroSet.from_zeros([0.2 + 0.1j, 3.0 - 1.0j])
    assert abs(zs.budget_small() - 0.2) < 1e-15
    assert abs(zs.budget_big() - (1 / (3.0 - 1.0j)).real) < 1e-15
    assert zs.beta >= zs.neg_log_at_one() - 1e-15
    assert zs.violated_hypotheses() == []
    bad = BlaschkeZeroSet.from_zeros([0.2 + 0.1j], beta=1e-6)
    assert len(bad.violated_hypotheses()) >= 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2.0)),
                min_size=1, max_size=5),
       st.floats(0.0, 0.5))
@example(atoms=[(0.0, 1.0), (0.0, 1.5641415311431892),
                (0.0, 0.9212501383996579)], linear=0.0)
def test_herglotz_u_bounded_by_beta_over_t(atoms, linear):
    # u(t) <= beta / t on 0 < t <= 1 with beta = u(1); with every atom at 0
    # and no linear term u(t) = beta / t exactly, and the two sides round
    # apart by a few ulp of beta / t
    m = HerglotzMeasure(atoms=list(atoms), linear_coefficient=linear)
    beta = herglotz_eval(m, 1.0)
    for t in (1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0):
        assert herglotz_eval(m, t) \
            <= beta / t * (1 + 8 * np.finfo(float).eps) + 1e-12


positions = st.one_of(st.just(0.0), st.floats(0.01, 2.0),
                      st.floats(-2.0, -0.01))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(positions, st.floats(0.0, 2.0)),
                min_size=1, max_size=4))
def test_herglotz_refined_limit_recovers_atom_at_zero(atoms):
    # t * u(t) - mu({0}) decreases monotonically to 0 as t -> 0+
    m = HerglotzMeasure(atoms=list(atoms))
    mass0 = m.mass_at_zero()
    ts = [2.0 ** -k for k in range(2, 20)]
    gaps = [t * herglotz_eval(m, t) - mass0 for t in ts]
    assert all(g >= -1e-12 for g in gaps)
    assert gaps[-1] <= 1e-6 * max(1.0, sum(mm for _, mm in atoms))
    assert all(g1 <= g0 + 1e-12 for g0, g1 in zip(gaps, gaps[1:]))


def test_herglotz_avg_on_block_matches_quadrature():
    m = HerglotzMeasure(atoms=[(0.3, 0.5), (-1.2, 0.8), (0.0, 0.2)],
                        linear_coefficient=0.4)
    delta = 0.07
    # u(t) = herglotz_eval already contains the linear term A t
    oracle, err = quad(lambda t: herglotz_eval(m, t), delta, 2 * delta)
    assert abs(m.avg_on_block(delta) - oracle / delta) < 1e-10 + err


def test_herglotz_validation():
    with pytest.raises(DomainError):
        HerglotzMeasure(atoms=[(0.0, -0.1)])
    with pytest.raises(DomainError):
        HerglotzMeasure(linear_coefficient=-1.0)
    with pytest.raises(DomainError):
        herglotz_eval(HerglotzMeasure(), -1.0)


def test_block_average_vanishing_rate():
    # delta * avg(-log|F|) must tend to mu({0}) = 0 for a pure Blaschke
    # product: the tail sequence over dyadic deltas is strictly decreasing
    zs = BlaschkeZeroSet.from_zeros([0.5 + 0.7j, 1.1 - 0.2j, 2.3 + 1.5j])
    vals = []
    for k in range(3, 11):
        delta = 2.0 ** -k
        vals.append(delta * avg_neg_log(lambda t: product(zs, t), delta))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05 * vals[0]


def test_mu0_recovery_for_atomic_measure():
    mass = 0.37
    meas = HerglotzMeasure(atoms=[(0.0, mass)])
    F = synthetic_f(BlaschkeZeroSet.from_zeros([]), meas)
    est = estimate_mu0(F, 0.01)
    assert abs(est - mass) / mass <= 0.10


def test_half_plane_certificate_roundtrip():
    zs = BlaschkeZeroSet.from_zeros([0.4 + 0.3j, 1.5 - 1.0j])
    meas = HerglotzMeasure(atoms=[(0.2, 0.15)], linear_coefficient=0.05)
    beta = max(zs.neg_log_at_one() + herglotz_eval(meas, 1.0),
               zs.budget_small(), zs.budget_big())
    cert = certify_lower_bound(zero_set=zs, measure=meas, delta=0.1,
                               beta=beta)
    assert isinstance(cert, LowerBoundCertificate)
    assert cert.mode == "half-plane"
    assert cert.margin >= 0
    assert cert.theorem_bound == pytest.approx(half_plane_bound(beta, 0.1))
    payload = cert.to_json()
    assert '"margin"' in payload


def test_half_plane_certificate_hypothesis_failures():
    zs = BlaschkeZeroSet.from_zeros([0.4 + 0.3j])
    with pytest.raises(CertificateError, match="delta"):
        certify_lower_bound(zero_set=zs, delta=0.3)
    meas = HerglotzMeasure(atoms=[(0.0, 5.0)])
    with pytest.raises(CertificateError, match="beta"):
        # beta from the zero set alone cannot absorb the measure at z=1
        certify_lower_bound(zero_set=zs, measure=meas, delta=0.1)


def test_wedge_certificate_and_pullback():
    zs = BlaschkeZeroSet.from_zeros([0.8 + 0.5j])
    F = synthetic_f(zs)
    alpha = 0.5
    cert = certify_lower_bound(F=F, R=3.0, alpha=alpha, beta=zs.beta)
    assert cert.mode == "wedge"
    assert cert.margin >= 0
    pulled = wedge_pullback(lambda z: z, alpha)
    assert abs(pulled(4.0) - 4.0 ** -alpha) < 1e-14
    with pytest.raises(CertificateError, match="R"):
        certify_lower_bound(F=F, R=1.0, alpha=alpha, beta=zs.beta)
    with pytest.raises(CertificateError, match="U"):
        certify_lower_bound(F=lambda t: 10.0, R=3.0, alpha=alpha,
                            beta=5.0, envelope=lambda t: 1.0)


# ---------------------------------------------------------------------------
# the quadrature on node arrays


def _per_node_panel_sum(F, lo, hi, levels=42, order=8):
    """Reference: the panel quadrature calling F once per node."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (lo + hi)
    total = 0.0
    for (a0, b0) in ((lo, mid), (hi, mid)):
        sgn = 1.0 if b0 > a0 else -1.0
        length = abs(b0 - a0)
        edges = [a0] + [a0 + sgn * length * 2.0 ** (-k)
                        for k in range(levels, -1, -1)]
        for p, q in zip(edges[:-1], edges[1:]):
            lo_p, hi_p = (p, q) if q > p else (q, p)
            if hi_p <= lo_p:
                continue
            t = lo_p + (gx + 1) * (hi_p - lo_p) / 2
            w = gw * (hi_p - lo_p) / 2
            vals = np.abs(np.asarray([F(tt) for tt in t], dtype=complex))
            total += float(np.sum(-np.log(vals) * w))
    return total


def _per_node_avg(F, delta, zeros):
    pts = [delta] + sorted(z for z in zeros if delta < z < 2 * delta) \
        + [2 * delta]
    return sum(_per_node_panel_sum(F, p, q)
               for p, q in zip(pts[:-1], pts[1:])) / delta


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_quadrature_matches_per_node_loop(seed):
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.02, 0.24)
    zeros = [complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
             for _ in range(rng.integers(1, 6))]
    # one real zero inside the block, a log singularity at a panel end
    zeros.append(complex(rng.uniform(1.1, 1.9) * delta))
    zs = BlaschkeZeroSet.from_zeros(zeros)

    def F(t):
        return product(zs, t)

    inside = zs.real_zeros_in(delta, 2 * delta)
    assert len(inside) == 1
    ref = _per_node_avg(F, delta, inside)
    got = avg_neg_log(F, delta, zeros=inside)
    assert abs(got - ref) <= 1e-14 * abs(ref)
    ref_plain = _per_node_avg(F, delta, ())
    assert abs(avg_neg_log(F, delta) - ref_plain) <= 1e-14 * abs(ref_plain)


def test_panel_sum_calls_F_once_on_every_node():
    zs = BlaschkeZeroSet.from_zeros([0.3 + 0.4j, 1.2 - 0.7j])
    shapes = []

    def F(t):
        shapes.append(np.shape(t))
        return product(zs, t)

    integral, nodes = blaschke._gl_panel_sum(F, 0.1, 0.2)
    assert shapes == [(688,)] and nodes == 688      # 2 x 43 panels x 8
    assert integral == pytest.approx(_per_node_panel_sum(F, 0.1, 0.2),
                                     rel=1e-14)


def test_panel_sum_names_the_first_panel_where_F_vanishes():
    # on [1, 2] the panels next to the midpoint are [1.25, 1.5], graded from
    # 1, and [1.5, 1.75], graded from 2; F vanishes inside both
    def F(t):
        return np.where((t > 1.25) & (t < 1.75), 0.0, 1.0) + 0j

    with pytest.raises(blaschke.DivergenceError,
                       match=r"node in \[1\.25, 1\.5\]"):
        blaschke._gl_panel_sum(F, 1.0, 2.0)
    with pytest.raises(blaschke.DivergenceError):
        avg_neg_log(lambda t: np.zeros_like(t), 0.1)


def test_wedge_certificate_with_constant_and_vanishing_envelopes():
    zs = BlaschkeZeroSet.from_zeros([0.8 + 0.5j])
    F = synthetic_f(zs)
    alpha, R = 0.5, 3.0
    plain = certify_lower_bound(F=F, R=R, alpha=alpha, beta=zs.beta)
    cert = certify_lower_bound(F=F, R=R, alpha=alpha, beta=zs.beta,
                               envelope=lambda t: 2.0)
    assert cert.measured_avg == plain.measured_avg
    assert cert.quadrature_nodes == plain.quadrature_nodes == 688
    # -log|U| = -log 2 on the whole block
    assert cert.theorem_bound == pytest.approx(
        blaschke.wedge_bound(zs.beta + math.log(2.0), R, alpha)
        - math.log(2.0), rel=1e-14)
    assert cert.mu0_estimate >= plain.mu0_estimate
    # an envelope vanishing at one mu0-trend sample (t = 3.09375) breaks the
    # nowhere-zero hypothesis there
    with pytest.raises(CertificateError, match=r"envelope U\(3\.09375\) = 0"):
        certify_lower_bound(F=F, R=R, alpha=alpha, beta=zs.beta,
                            envelope=lambda t: np.where(t == 3.09375, 0, 1.0))


def test_certificate_counts_its_quadrature_nodes():
    delta = 0.1
    zs = BlaschkeZeroSet.from_zeros([0.4 + 0.3j, 0.15])   # 0.15 in the block
    cert = certify_lower_bound(zero_set=zs, delta=delta)
    assert cert.quadrature_nodes == 2 * 688
    assert '"quadrature_nodes": 1376' in cert.to_json()
    far = certify_lower_bound(zero_set=BlaschkeZeroSet.from_zeros(
        [0.4 + 0.3j]), delta=delta)
    assert far.quadrature_nodes == 688


def test_library_callables_take_arrays():
    m = HerglotzMeasure(atoms=[(0.3, 0.5), (-1.2, 0.8), (0.0, 0.2)],
                        linear_coefficient=0.4)
    w = np.array([0.05, 0.3 + 0.2j, 1.0, 2.5 - 1.0j])
    assert isinstance(herglotz_eval(m, 0.3), float)
    assert np.array_equal(herglotz_eval(m, w),
                          [herglotz_eval(m, x) for x in w])
    with pytest.raises(DomainError):
        herglotz_eval(m, np.array([0.5, -0.1]))

    for F in (lambda s: s, lambda s: herglotz_eval(m, s)):
        pulled = wedge_pullback(F, 0.5)
        assert np.array_equal(pulled(w), [pulled(x) for x in w])
        assert np.ndim(pulled(4.0)) == 0
    with pytest.raises(DomainError):
        pulled(np.array([1.0, -2.0]))

    # numpy divides complex arrays and complex scalars by different
    # formulas, so the Blaschke factors agree to rounding only
    F = synthetic_f(BlaschkeZeroSet.from_zeros([0.8 + 0.5j, 0.3 - 0.2j]), m)
    t = np.linspace(0.1, 0.2, 7)
    assert np.allclose(F(t), [F(x) for x in t], rtol=1e-15, atol=0)
