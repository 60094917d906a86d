"""Hopping coefficient rho0, tunneling splitting Delta0, and the 2x2
quasimode reduction connecting them.

rho0 = lam^2 * integral of conj(phi0(x+d)) v(x+d) e^{i b lam d1 x2} phi0(x-d),
with d = (d1, 0) and phi0 the single-well ground state (well at the origin),
regauged so its overlap with the closed-form oscillator ground state is
positive.  Delta0 = E1 - E0 of the double-well operator; when the operator
commutes with x -> -x (symmetric wells, symmetric gauge) E0 and E1 are the
ground levels of its even and odd parts, and `splitting_direct` solves the two
half-size parity blocks instead of the full lattice.  Every level reported is
solved and proven by one routine, `spectral._certified_levels`: at a candidate
shift where each block's inertia count is the number of wanted levels, those
levels are solved on the LUs that count them; otherwise one shift-invert pass
per block at a near shift under which a count finds no level, then counts per
block at the caller's cut.  A sweep point (`ratio_point`) solves for E0, E1
alone, each block at the single well's ground plus the hopping estimate
2|rho0| of the splitting, and counts prove the pair isolated and tell whether
it is separated without computing E2.  The quasimodes are Riesz
projections of magnetically translated, cut-off oscillator ground states; their
2x2 Gramian G and energy matrix M reproduce the splitting through
sqrt(sigma)/|det G| with sigma = tr(adj(G) M)^2 - 4 det(G) det(M).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .grid_model import (Field, Grid2D, ModelParams, SparseHermitianOp,
                         WellSpec, build_operator, choose_grid,
                         magnetic_translate, well_values)
from .mho_kernels import MHOParams, ground_state
from .spectral import (CUT_RTOL, Contour, EigensolverError, SpectralResult,
                       _certified_levels, _parity_sectors, certified_ground,
                       count_below, riesz_project)


class GroundStateError(ValueError):
    """The supplied single-well ground state is missing residual verification."""


class DegenerateQuasimodeError(RuntimeError):
    """The quasimode Gramian is numerically singular."""


# ---------------------------------------------------------------------------
# oscillator reference data


def mho_reference(params: ModelParams, spec: Optional[WellSpec] = None) -> MHOParams:
    """Quadratic-approximation oscillator parameters for one well.

    Matching (P - (b lam/2) X_perp)^2 + lam^2 v(X) near the well bottom against
    the closed-form oscillator Hamiltonian gives k_j = sqrt(Hess_jj(v)/2) and
    reference field -b/2.  Only the ground-state Gaussian (eta, zeta, xi) is
    consumed here, which stays regular in the isotropic zero-field case, so
    MHOParams is built directly instead of through the kernel-validating
    factory.
    """
    spec = spec if spec is not None else WellSpec.radial(params.a)
    Hw = spec.hessian_at_origin()
    if abs(Hw[0, 1]) > 1e-12 * max(Hw[0, 0], Hw[1, 1]):
        raise ValueError("well hessian must be axis-aligned for the "
                         "oscillator reference (got %s)" % (Hw,))
    k1 = float(np.sqrt(Hw[0, 0] / 2.0))
    k2 = float(np.sqrt(Hw[1, 1] / 2.0))
    return MHOParams(k1=k1, k2=k2, B=-params.b / 2.0, lam=params.lam)


def _c4_step(t: np.ndarray) -> np.ndarray:
    """C^4 monotone step: 0 for t<=0, 1 for t>=1."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 5 * (126 + t * (-420 + t * (540 + t * (-315 + t * 70))))


def cutoff_field(grid: Grid2D, a: float) -> Field:
    """Radial cutoff chi: 1 on the ball of radius a/2, 0 outside radius 3a/4."""
    X1, X2 = grid.meshes()
    r = np.hypot(X1, X2)
    t = (r - a / 2) / (a / 4)
    return Field(grid, 1.0 - _c4_step(t))


def mho_ground_field(p: MHOParams, grid: Grid2D) -> Field:
    """The oscillator ground state centred at the origin, on the grid."""
    return Field(grid, ground_state(p, grid.meshes()))


# ---------------------------------------------------------------------------
# the grid, the single well and the hopping coefficient


def lattice_grid(params: ModelParams, n: int):
    """(grid, params with d1 snapped to it): the grid policy of every single-
    and double-well lattice.

    The extent is the decay rule of `choose_grid` padded by d1, so that the
    shifted samples phi0(x -+ d) of the hopping integral stay inside the
    domain.  n is raised where needed so that h*lam <= 0.45, with headroom
    below the builder's bound 0.5; then d1 is rounded to a multiple of h.
    """
    grid = choose_grid(params, n, double_well=True, pad=params.d1)
    if grid.spacing * params.lam > 0.45:
        n = int(np.ceil(2 * grid.half_extent * params.lam / 0.45)) + 1
        n += n % 2
        grid = choose_grid(params, n, double_well=True, pad=params.d1)
    d1s = float(grid.snap([params.d1, 0.0])[0])
    return grid, replace(params, d1=d1s)


def _oscillator_level(params: ModelParams,
                     spec: Optional[WellSpec] = None) -> float:
    """-lam^2 + Re E0 of `mho_reference`: the ground level of the well's
    quadratic approximation, where the shift search of the eigen-solves
    starts when no candidate shift counts the wanted levels.  It is only a
    hint (at lam = 20, a = 0.1 it lies above E0 and E1 of the double well,
    at lam = 45 far below them): the inertia count lowers a start inside the
    spectrum until none lies below it."""
    return -params.lam ** 2 + float(np.real(mho_reference(params, spec).E0))


def single_well_ground(params: ModelParams, n: int,
                       spec: Optional[WellSpec] = None, seed: int = 0):
    """(SpectralResult, op) for the well at the origin, on the grid of
    `lattice_grid`; op.params carries the snapped d1.

    The operator commutes with x -> -x, and its ground level is the even
    block's lowest (`spectral.certified_ground`), counted and solved at the
    shift min(0, R) when one even and no odd level lies below it there,
    else searched from the oscillator level.  0 is the top of the well
    (v in [-1, 0]), and R the Rayleigh quotient of the oscillator ground
    state (`mho_ground_field`), at or above E0 by the variational principle.
    So min(0, R) counts what 0 counts whenever E0 < 0 and no other level
    lies below 0, and it is nearer E0 when the oscillator is a good trial
    field.  The shift-invert pass converges at the rate
    (E_a - sigma) / (sigma - E0), with E_a the next level above sigma: at
    lam = 45, n = 320 the well's one bound level E0 = -595 lies far below
    0 and E_a = 3.8, and R = -476 takes that pass from about 200 solves at
    0 to about 20.  At lam <= 30 R lies above 0.
    """
    spec = spec if spec is not None else WellSpec.radial(params.a)
    grid, params = lattice_grid(params, n)
    op = build_operator(params, grid, wells=[(spec, (0.0, 0.0))])
    psi = mho_ground_field(mho_reference(params, spec), grid).flat()
    rayleigh = float(np.vdot(psi, op.matrix @ psi).real
                     / np.vdot(psi, psi).real)
    return (certified_ground(op, min(0.0, rayleigh),
                             _oscillator_level(params, spec), seed),
            op)


@dataclass
class HoppingResult:
    rho: complex
    abs_rho: float
    quadrature_error: float


def _shift_rows(arr: np.ndarray, s: int) -> np.ndarray:
    """out[i, :] = arr[i + s, :], zero-filled past the edges."""
    out = np.zeros_like(arr)
    m = arr.shape[0]
    if s >= 0:
        out[:m - s, :] = arr[s:, :]
    else:
        out[-s:, :] = arr[:m + s, :]
    return out


# the largest eigen-residual of phi0 that `hopping_coefficient` accepts
GROUND_RESIDUAL_TOL = 1e-5


def hopping_coefficient(params: ModelParams, phi0: Field,
                        spec: Optional[WellSpec] = None,
                        residual: Optional[float] = None) -> HoppingResult:
    """rho0 as a grid sum over the support of v(. + d).

    phi0 must come with its eigen-residual (from SpectralResult.residuals);
    an absent residual or one above GROUND_RESIDUAL_TOL is a precondition
    failure.  Before the sum, phi0 is regauged so that its overlap with the
    oscillator ground state is real positive; only |rho0| is
    convention-free.
    """
    if residual is None:
        raise GroundStateError("pass residual=<eigen-residual of phi0>; "
                               "an unverified ground state is rejected")
    if residual > GROUND_RESIDUAL_TOL:
        raise GroundStateError("ground-state residual %.3g exceeds %.3g"
                               % (residual, GROUND_RESIDUAL_TOL))
    spec = spec if spec is not None else WellSpec.radial(params.a)
    grid = phi0.grid
    h = grid.spacing
    d1s = float(grid.snap([params.d1, 0.0])[0])
    steps = int(round(d1s / h))
    if steps == 0:
        raise ValueError("d1 = %g is below one grid spacing" % params.d1)

    blam = params.b * params.lam
    X1, X2 = grid.meshes()

    # phase convention: <psi0_mho, phi0> real positive
    pref = mho_reference(params, spec)
    psi = ground_state(pref, (X1, X2))
    ov = np.sum(np.conj(psi) * phi0.values) * h * h
    u = phi0.values * np.exp(-1j * np.angle(ov))

    vp = well_values(spec, X1 + d1s, X2)          # v(x + d), support near -d
    pp = _shift_rows(u, steps)                     # phi0(x + d)
    pm = _shift_rows(u, -steps)                    # phi0(x - d)
    phase = np.exp(1j * blam * d1s * X2)
    integrand = np.conj(pp) * vp * phase * pm

    def quad(stride: int) -> complex:
        sub = integrand[::stride, ::stride]
        return complex(params.lam ** 2 * (h * stride) ** 2 * np.sum(sub))

    rho = quad(1)
    rho_coarse = quad(2)
    quad_err = abs(rho - rho_coarse) / 3.0        # second-order extrapolation
    return HoppingResult(rho=rho, abs_rho=abs(rho),
                         quadrature_error=float(quad_err))


# ---------------------------------------------------------------------------
# quasimodes and the 2x2 reduction


@dataclass
class QuasimodePair:
    psi_minus: Field
    psi_plus: Field
    contour: Contour
    rank_estimate: float         # the levels the contour encloses, counted
    nodes: int                   # quadrature nodes m used, after any doubling
    idempotence_defect: float    # max over the pair of ||Pi^2 f - Pi f||/||f||


def quasimodes(params: ModelParams, op: SparseHermitianOp, contour: Contour,
               spec: Optional[WellSpec] = None, rank_probes: int = 6,
               seed: int = 0) -> QuasimodePair:
    """psi_{+-d} = Riesz projection of the translated, cut-off oscillator
    ground state R^{+-d} chi(X) psi0_mho, each normalized before projection.

    The contour must enclose the tunneling pair E0, E1 and no other level,
    e.g. the circle about (E0 + E1)/2 reaching half way to E2, from
    `splitting_direct`.

    `spectral.riesz_project` counts the levels inside the contour by two
    inertia counts and raises spectral.ClusterError unless they are 2,
    before any contour LU; then one sweep over the m/2 contour nodes
    projects the pair (m/2 LUs, one alive at a time), and a failed
    idempotence check doubles m.  rank_estimate is that count, exactly 2.0.
    rank_probes and seed are not used, and no result depends on them; they
    are kept only for the callers that pass them.
    """
    spec = spec if spec is not None else WellSpec.radial(params.a)
    grid = op.grid
    pref = mho_reference(params, spec)

    blam = params.b * params.lam
    d1s = float(grid.snap([params.d1, 0.0])[0])
    chi = cutoff_field(grid, params.a)
    base = Field(grid, chi.values * mho_ground_field(pref, grid).values)
    base = base.normalized()
    phi_plus = magnetic_translate(base, (+d1s, 0.0), blam)
    phi_minus = magnetic_translate(base, (-d1s, 0.0), blam)

    (psi_minus, psi_plus), rank, nodes, defect = riesz_project(
        op, contour, [phi_minus, phi_plus], rank=2)
    return QuasimodePair(psi_minus=psi_minus, psi_plus=psi_plus,
                         contour=contour, rank_estimate=float(rank),
                         nodes=nodes, idempotence_defect=defect)


@dataclass
class TwoByTwoReduction:
    G: np.ndarray
    M: np.ndarray
    gamma: complex
    sigma: complex
    gram_defect: float
    gram_budget: float

    @property
    def splitting(self) -> float:
        """sqrt(sigma)/|gamma|; for real parameters sigma is real >= 0."""
        s = self.sigma
        if abs(s.imag) <= 1e-8 * max(abs(s), 1e-300):
            s = s.real
        return float(np.sqrt(abs(s)) / abs(self.gamma))


def reduction_from_matrices(G: np.ndarray, M: np.ndarray,
                            gram_budget: float = np.inf) -> TwoByTwoReduction:
    G = np.asarray(G, dtype=complex)
    M = np.asarray(M, dtype=complex)
    gamma = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    if abs(gamma) < 1e-12 * np.linalg.norm(G) ** 2:
        raise DegenerateQuasimodeError("Gramian is numerically singular "
                                       "(det G = %s)" % gamma)
    adjG = np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]], dtype=complex)
    tr = np.trace(adjG @ M)
    detM = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    sigma = tr ** 2 - 4.0 * gamma * detM
    defect = float(np.linalg.norm(G - np.eye(2), 2))
    return TwoByTwoReduction(G=G, M=M, gamma=complex(gamma),
                             sigma=complex(sigma), gram_defect=defect,
                             gram_budget=float(gram_budget))


# the Gramian defect ||G - I||_2 is expected within
# GRAM_BUDGET_CONSTANT / sqrt(lam), the gram_budget of `gram_and_m`
GRAM_BUDGET_CONSTANT = 5.0


def gram_and_m(psi_minus: Field, psi_plus: Field,
               op: SparseHermitianOp) -> TwoByTwoReduction:
    """G_ab = <psi_a, psi_b>, M_ab = <psi_a, H psi_b> for a,b in {-d, +d};
    the reduction carries the Gramian defect ||G - I||_2 and its budget
    GRAM_BUDGET_CONSTANT / sqrt(lam) for the caller to compare."""
    pair = [psi_minus, psi_plus]
    images = [op.apply(p) for p in pair]
    G = np.empty((2, 2), dtype=complex)
    M = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            G[i, j] = pair[i].inner(pair[j])
            M[i, j] = pair[i].inner(images[j])
    return reduction_from_matrices(
        G, M, gram_budget=GRAM_BUDGET_CONSTANT / np.sqrt(op.params.lam))


# ---------------------------------------------------------------------------
# direct splitting and the ratio report


# `splitting_direct` calls the pair separated when E2 - E1 exceeds
# SEPARATION_FACTOR * Delta0
SEPARATION_FACTOR = 2.0


@dataclass
class SplittingResult:
    delta: float
    energies: List[float]   # E0, E1, E2; E0, E1 when E2 is not wanted
    spectral: SpectralResult
    cluster_separated: bool
    path: str               # "parity" (even/odd sector solve) or "full"
    parity_defect: float    # ||H - PHP||_max, P: x -> -x
    # the certificate by inertia counts, one per block (even and odd sector,
    # or H itself): pair_counts levels, one per sector or two of H, lie
    # below the shift or cut that proves E0, E1 the two lowest levels
    # (`splitting_direct`; spectral.shifts and spectral.counts give each
    # block's count at its shift); separation_counts are the counts at
    # E1 + SEPARATION_FACTOR * Delta0 (None when E2 is computed)
    pair_counts: Tuple[int, ...]
    separation_counts: Optional[Tuple[int, ...]] = None

    @property
    def pair_count(self) -> int:
        """The number of levels below the certifying cut: 2."""
        return sum(self.pair_counts)


def splitting_direct(op: SparseHermitianOp, seed: int = 0,
                     start: Optional[float] = None,
                     with_e2: bool = True) -> SplittingResult:
    """Delta0 = E1 - E0, with the pair's isolation from the rest of the
    spectrum checked; cluster_separated is False when the 2-cluster is not
    cleanly separated (E2 - E1 <= SEPARATION_FACTOR * Delta0), and without
    E2 separation_counts then differ from pair_counts.

    The levels are solved and proven by `spectral._certified_levels`: k = 2
    per parity sector with E2 (the smaller second in-sector level), k = 1
    without.
    - With E2, the shift search starts from start, by default the
      oscillator level, and the counts at the cut (E1 + E2)/2 prove E0, E1
      the two lowest levels and no other level below the cut; a level in
      [(E1 + E2)/2, E2) would escape them, so E2 is the third level only if
      none lies there.
    - Without E2, start is first tried as the shift that counts the pair:
      when one level per sector (two of H) lies below it, they are solved
      on the LUs that count them, and those counts are the certificate.
      `ratio_point` passes the single well's ground plus its hopping
      estimate 2|rho0| of the splitting, which lies between E1 and E2 at
      the sweep points.  Otherwise the search lowers start, and the counts
      at E1 + CUT_RTOL * max(|E1|, 1) certify the pair.  Either way the
      counts at E1 + SEPARATION_FACTOR * Delta0 (separation_counts) tell
      whether the pair is separated, with no third solve.

    One rule picks the path.  The "parity" path stands when H commutes with
    the grid reflection P (x -> -x), which holds for the symmetric double
    well in the symmetric gauge, and the certificate counts one level per
    sector: E0 and E1 are then the ground levels of the even and odd blocks.
    Otherwise (a shifted gauge origin, unequal or off-axis wells, a pair
    within one sector, a count that disagrees) the "full" path solves the
    k + 1 lowest levels of H itself, and a count that disagrees there
    raises EigensolverError.

    The near shifts keep the absolute eigenvalue error ~eps * |E - sigma|
    small against the splitting, which can be many orders smaller than E0.
    """
    M = op.matrix
    start = _oscillator_level(op.params) if start is None else start
    k = 2 if with_e2 else 1
    shift = None if with_e2 else start

    def cut(e):
        if with_e2:
            return 0.5 * (e[1] + e[2])
        return e[1] + CUT_RTOL * max(abs(e[1]), 1.0)

    blocks, defect = _parity_sectors(M)
    path, certified = "parity", False
    if blocks is not None:
        res, (at, counts), certified = _certified_levels(
            op, blocks, (k, k), k + 1, shift, start, seed, cut)
        certified = certified and counts == (1, 1)
    if not certified:
        path, blocks = "full", (M,)
        res, (at, counts), certified = _certified_levels(
            op, blocks, (k + 1,), k + 1, shift, start, seed, cut)
    e = res.eigenvalues
    delta = e[1] - e[0]
    if not certified:
        raise EigensolverError(
            "%d level(s) lie below %s = %.17g, where the computed levels "
            "%s = %s put 2"
            % (sum(counts), "(E1 + E2)/2" if with_e2 else
               "E1 + %g * max(|E1|, 1)" % CUT_RTOL, at,
               ", ".join("E%d" % j for j in range(len(e))),
               ", ".join("%.17g" % x for x in e)))
    if with_e2:
        separation = None
        separated = (e[2] - e[1]) > SEPARATION_FACTOR * max(delta, 1e-300)
    else:
        separation = tuple(
            count_below(B, e[1] + SEPARATION_FACTOR * max(delta, 1e-300))
            for B in blocks)
        separated = separation == counts
    return SplittingResult(delta=float(delta), energies=list(e),
                           spectral=res, cluster_separated=separated,
                           path=path, parity_defect=defect,
                           pair_counts=counts, separation_counts=separation)


RATIO_CSV_COLUMNS = ["lambda", "b", "d1", "E0", "E1", "Delta", "abs_rho",
                     "ratio", "quad_err", "grid_n", "grid_L", "separated"]


@dataclass
class RatioRow:
    lam: float
    b: float
    d1: float
    E0: float
    E1: float
    delta: float
    abs_rho: float
    ratio: float
    quad_err: float
    grid_n: int
    grid_L: float
    # E2 - E1 > SEPARATION_FACTOR * Delta0, proven by the inertia counts
    # at E1 + SEPARATION_FACTOR * Delta0 (`SplittingResult.cluster_separated`)
    separated: bool

    def as_list(self):
        return [self.lam, self.b, self.d1, self.E0, self.E1, self.delta,
                self.abs_rho, self.ratio, self.quad_err, self.grid_n,
                self.grid_L, self.separated]


def ratio_point(params: ModelParams, n: int,
                spec: Optional[WellSpec] = None, seed: int = 0) -> RatioRow:
    """One sweep point: Delta0 from the double well, rho0 from the single
    well on the same grid (`lattice_grid`), and their ratio
    Delta0 / (2 |rho0|).

    The double well is solved for its pair alone (`splitting_direct`
    without E2), at the shift E0 of the single well plus 2|rho0|, its
    hopping estimate of the splitting: the inertia counts there certify the
    pair, and the counts at E1 + SEPARATION_FACTOR * Delta0 decide
    `separated`, instead of a computed E2."""
    spec = spec if spec is not None else WellSpec.radial(params.a)
    res1, sw = single_well_ground(params, n, spec=spec, seed=seed)
    grid, params_s = sw.grid, sw.params
    d1s = params_s.d1
    hop = hopping_coefficient(params_s, res1.eigenvectors[0], spec=spec,
                              residual=res1.residuals[0])

    dw = build_operator(params_s, grid,
                        wells=[(spec, (-d1s, 0.0)), (spec, (+d1s, 0.0))])
    split = splitting_direct(dw, seed=seed,
                             start=res1.eigenvalues[0] + 2.0 * hop.abs_rho,
                             with_e2=False)

    ratio = split.delta / (2.0 * hop.abs_rho)
    return RatioRow(lam=params.lam, b=params.b, d1=d1s,
                    E0=split.energies[0], E1=split.energies[1],
                    delta=split.delta, abs_rho=hop.abs_rho, ratio=ratio,
                    quad_err=hop.quadrature_error, grid_n=grid.n,
                    grid_L=grid.half_extent,
                    separated=split.cluster_separated)


# the `separated` column of ratio.csv
_FLAGS = {"True": True, "False": False}


def write_ratio_csv(path, rows: Sequence[RatioRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RATIO_CSV_COLUMNS)
        for r in rows:
            w.writerow(["%.17g" % v if isinstance(v, float) else str(v)
                        for v in r.as_list()])


def read_ratio_csv(path) -> List[RatioRow]:
    rows = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        if header != RATIO_CSV_COLUMNS:
            missing = [c for c in RATIO_CSV_COLUMNS if c not in header]
            raise ValueError("ratio CSV schema error: columns %s, expected %s "
                             "(missing column(s): %s)"
                             % (header, RATIO_CSV_COLUMNS,
                                ", ".join(missing) or "none"))
        for rec in rd:
            if len(rec) != len(RATIO_CSV_COLUMNS):
                raise ValueError("ratio CSV: line %d has %d field(s), "
                                 "expected %d" % (rd.line_num, len(rec),
                                                  len(RATIO_CSV_COLUMNS)))
            vals = [float(v) for v in rec[:-1]]
            if rec[-1] not in _FLAGS:
                raise ValueError("ratio CSV: separated = %r is neither %s"
                                 % (rec[-1], " nor ".join(_FLAGS)))
            rows.append(RatioRow(lam=vals[0], b=vals[1], d1=vals[2],
                                 E0=vals[3], E1=vals[4], delta=vals[5],
                                 abs_rho=vals[6], ratio=vals[7],
                                 quad_err=vals[8], grid_n=int(vals[9]),
                                 grid_L=vals[10], separated=_FLAGS[rec[-1]]))
    return rows
