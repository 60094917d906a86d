"""Command-line experiment runner.

Subcommands: spectrum, hopping, splitting, mho-check, landau-check,
blaschke-check, partition-check, sweep, plot.  Exit codes: 0 success,
2 config error, 3 numerical failure.

Configuration is a single INI file (stdlib configparser) with the sections
[model], [grid], [sweep] and [output]; any other section, or an unknown key
in any of them, is a config error.  Command-line flags override.  Every
`*-check` command runs its suite unconditionally.
Sweeps write a manifest keyed by the config hash and a hash of the maglab
sources, and skip completed points on a rerun with both unchanged.  The
manifest also records the BLAS thread settings seen at sweep start, which
move the CPU time and the last digits of Delta0 but not the cache key.  Plots
are emitted as self-contained SVG plus a full-precision plot-data JSON, so
no runtime plotting dependency is needed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import hashlib
import json
import math
import os
import pathlib
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import blaschke
from .grid_model import (Field, Grid2D, ModelParams, SparseHermitianOp,
                         WellSpec, build_operator)
from .landau_kernels import (gamma_tricomi_u, landau_semigroup_defect,
                             load_landau_constants, tricomi_u)
from .mho_kernels import (discretize_mho, ground_state, mho_params,
                          mho_semigroup_defect)
from .partition import build_partition, verify_partition
from .spectral import certified_ground, lowest_eigs
from .tunneling import (RATIO_CSV_COLUMNS, RatioRow, _oscillator_level,
                        hopping_coefficient, lattice_grid, ratio_point,
                        read_ratio_csv, single_well_ground, splitting_direct,
                        write_ratio_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    model: dict
    grid: dict
    sweep: dict
    output: dict
    raw_text: str = ""

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


DEFAULT_MODEL = {"lam": 30.0, "b": 0.0, "d1": 0.3, "a": 0.1, "exponent": 4}
DEFAULT_GRID = {"n": 240}


def _floats(text: str) -> List[float]:
    vals = [t for t in text.replace(",", " ").split() if t]
    try:
        return [float(v) for v in vals]
    except ValueError as exc:
        raise ConfigError("expected a list of numbers, got %r" % text) from exc


def _number(section: str, key: str, text: str, kind):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError("[%s] %s = %r is not a valid %s"
                          % (section, key, text, kind.__name__)) from exc


def _checked_grid_n(n: int) -> int:
    if n <= 0 or n % 2:
        raise ConfigError("grid n must be an even positive integer, got %d"
                          % n)
    return n


def load_config(path: Optional[str]) -> RunConfig:
    cp = configparser.ConfigParser()
    raw = ""
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError("config file not found: %s" % path)
        with open(path) as fh:
            raw = fh.read()
        try:
            cp.read_string(raw)
        except configparser.Error as exc:
            raise ConfigError("config parse error: %s" % exc) from exc
    for section in cp.sections():
        if section not in ("model", "grid", "sweep", "output"):
            raise ConfigError("unknown config section: [%s]" % section)

    model = dict(DEFAULT_MODEL)
    if cp.has_section("model"):
        for key in cp.options("model"):
            if key not in model:
                raise ConfigError("unknown [model] key: %s" % key)
            model[key] = _number("model", key, cp.get("model", key),
                                 int if key == "exponent" else float)

    grid = dict(DEFAULT_GRID)
    if cp.has_section("grid"):
        for key in cp.options("grid"):
            if key not in grid:
                raise ConfigError("unknown [grid] key: %s" % key)
            grid[key] = _number("grid", key, cp.get("grid", key), int)
    grid["n"] = _checked_grid_n(grid["n"])

    sweep = {"lam": [model["lam"]], "b": [model["b"]], "d1": [model["d1"]]}
    if cp.has_section("sweep"):
        for key in cp.options("sweep"):
            if key not in sweep:
                raise ConfigError("unknown [sweep] key: %s" % key)
            sweep[key] = _floats(cp.get("sweep", key))
    for key, vals in sweep.items():
        if not vals:
            raise ConfigError("sweep list %r is empty" % key)

    output = {"dir": "results"}
    if cp.has_section("output"):
        for key in cp.options("output"):
            if key not in output:
                raise ConfigError("unknown [output] key: %s" % key)
            output[key] = cp.get("output", key)

    return RunConfig(model=model, grid=grid, sweep=sweep, output=output,
                     raw_text=raw)


def _model_params(cfg: RunConfig, args) -> ModelParams:
    m = dict(cfg.model)
    for key in ("lam", "b", "d1", "a"):
        override = getattr(args, key, None)
        if override is not None:
            m[key] = override
    try:
        return ModelParams(lam=m["lam"], b=m["b"], d1=m["d1"], a=m["a"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _well_spec(cfg: RunConfig, params: ModelParams) -> WellSpec:
    return WellSpec.radial(params.a, p=cfg.model["exponent"])


def _grid_n(cfg: RunConfig, args) -> int:
    if args.grid_n is None:
        return cfg.grid["n"]
    return _checked_grid_n(args.grid_n)


def _results_dir(cfg: RunConfig, args) -> str:
    """Where a command reads and writes its results: --out, else the
    config's [output] dir."""
    return args.out or cfg.output["dir"]


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _code_version() -> str:
    """Hash of the maglab sources (*.py) and data tables (data/*.json), so
    that cached sweep rows go stale when the code that made them changes."""
    root = pathlib.Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")) + sorted(root.glob("data/*.json")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# single-shot computations


def _double_well(cfg: RunConfig, args) -> SparseHermitianOp:
    """The double-well lattice at the resolved parameters, on the grid of
    `lattice_grid` (the one `ratio_point` uses); op.params has the snapped
    d1."""
    params = _model_params(cfg, args)
    spec = _well_spec(cfg, params)
    grid, params = lattice_grid(params, _grid_n(cfg, args))
    d1 = params.d1
    return build_operator(params, grid,
                          wells=[(spec, (-d1, 0.0)), (spec, (d1, 0.0))])


def cmd_spectrum(cfg: RunConfig, args) -> int:
    op = _double_well(cfg, args)
    res = lowest_eigs(op, k=args.k, seed=args.seed,
                      start=_oscillator_level(op.params))
    for j, ev in enumerate(res.eigenvalues):
        print("E%d = %.12e   (residual %.2e)" % (j, ev, res.residuals[j]))
    params, grid = op.params, op.grid
    out = _results_dir(cfg, args)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "spectrum.json")
    bundle = {"eigenvalues": res.eigenvalues, "residuals": res.residuals,
              "orthogonality_defect": float(res.orthogonality_defect),
              "metadata": {"lam": params.lam, "b": params.b,
                           "d1": params.d1, "a": params.a, "grid_n": grid.n,
                           "grid_L": grid.half_extent}}
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=1)
    print("bundle: %s" % path)
    return EXIT_OK


def cmd_hopping(cfg: RunConfig, args) -> int:
    params = _model_params(cfg, args)
    spec = _well_spec(cfg, params)
    res, op = single_well_ground(params, _grid_n(cfg, args), spec=spec,
                                 seed=args.seed)
    hop = hopping_coefficient(op.params, res.eigenvectors[0], spec=spec,
                              residual=res.residuals[0])
    print("rho0      = %.12e %+.12ei" % (hop.rho.real, hop.rho.imag))
    print("|rho0|    = %.12e" % hop.abs_rho)
    print("quad err  = %.2e" % hop.quadrature_error)
    return EXIT_OK


def cmd_splitting(cfg: RunConfig, args) -> int:
    res = splitting_direct(_double_well(cfg, args), seed=args.seed)
    print("E0     = %.12e" % res.energies[0])
    print("E1     = %.12e" % res.energies[1])
    print("Delta0 = %.12e" % res.delta)
    print("path   = %s (parity defect %.2e)" % (res.path, res.parity_defect))
    print("counts = %s below shifts %s; %d below (E1+E2)/2 = %.12e"
          % (", ".join("%d" % c for c in res.spectral.counts),
             ", ".join("%.12e" % s for s in res.spectral.shifts),
             res.pair_count,
             0.5 * (res.energies[1] + res.energies[2])))
    if not res.cluster_separated:
        print("warning: two-level cluster poorly separated from E2",
              file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check suites (each returns a list of (name, passed, detail) rows)


def mho_check_suite(seed: int = 0) -> List[Tuple[str, bool, str]]:
    rows = []
    p = mho_params(1.0, 2.0, 0.5, 30.0)

    # closed-form ground state against the discretized operator, on the
    # decay rule's extent a + 6/sqrt(lam min_j Hess_jj) with Hess_jj =
    # 2 k_j^2 = (2, 8) and a = 0.3
    grid = Grid2D(half_extent=0.3 + 6.0 / math.sqrt(30.0 * 2.0), n=200)
    op = discretize_mho(p, grid)
    # the ground level is even under x -> -x and the next one, at
    # E0 + lam (f_plus - f_minus) / 2, odd: the midpoint between them counts
    # one even and no odd level of the parity blocks
    res = certified_ground(
        op, float(np.real(p.E0 + p.lam * (p.f_plus - p.f_minus) / 4.0)),
        seed)
    e_exact = 30.0 * math.sqrt(10.0) / 2.0
    rel = abs(res.eigenvalues[0] - e_exact) / e_exact
    rows.append(("ground energy vs closed form", rel <= 5e-3,
                 "rel err %.2e" % rel))
    psi = ground_state(p, grid.meshes())
    f = Field(grid, psi)
    ov = abs(f.normalized().inner(res.eigenvectors[0].normalized()))
    rows.append(("ground state overlap", abs(1 - ov) <= 1e-3,
                 "|1-|<psi,phi>|| = %.2e" % abs(1 - ov)))

    # semigroup property at (s, s') = (0.3, 0.5)
    defect = mho_semigroup_defect(p, 0.3, 0.5)
    rows.append(("semigroup defect (0.3, 0.5)", defect <= 1e-6,
                 "rel defect %.2e" % defect))
    return rows


E1_TERMS = 60


def _e1_series(x: float) -> float:
    """Exponential integral E1 by the alternating series
    E1(x) = -gamma - log x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!)."""
    s = -np.euler_gamma - math.log(x)
    term = 1.0
    for k in range(1, E1_TERMS + 1):
        term *= -x / k
        s -= term / k
    return s


def landau_check_suite(seed: int = 0) -> List[Tuple[str, bool, str]]:
    rows = []
    u = tricomi_u(1.0, 1.0)
    ref = math.e * _e1_series(1.0)
    rel = abs(u - ref) / abs(u)
    rows.append(("U(1,1,1) vs e*E1(1)", rel <= 1e-8, "rel err %.2e" % rel))

    # divergence ~ 1/(z - B) approaching the lowest level: with
    # a = (B - z)/(2B), Gamma(a) U(a, 1, w) blows up like 1/a
    B = 0.7
    eps = np.array([1e-3, 1e-4])
    vals = [abs(gamma_tricomi_u(e / (2 * B), 0.3)) for e in eps]
    slope = (math.log(vals[1]) - math.log(vals[0])) / \
        (math.log(eps[1]) - math.log(eps[0]))
    rows.append(("pole divergence slope", abs(slope + 1) <= 0.05,
                 "slope %.4f" % slope))

    defect = landau_semigroup_defect(0.8, 0.3, 0.5)
    rows.append(("semigroup defect (0.3, 0.5)", defect <= 1e-6,
                 "rel defect %.2e" % defect))

    consts = load_landau_constants()
    rows.append(("calibration constants load", "norm_C" in consts,
                 "norm_C=%g" % consts.get("norm_C", float("nan"))))
    return rows


def blaschke_check_suite(seed: int = 0) -> List[Tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    rows = []

    # pointwise single-factor inequalities
    worst1 = worst2 = -np.inf
    for _ in range(1000):
        a = complex(rng.uniform(0.01, 5.0), rng.uniform(-5.0, 5.0))
        t = rng.uniform(0.01, 5.0)
        lhs = -math.log(abs(blaschke.factor(a, t)))
        mid = -math.log(abs(blaschke.factor(a.real, t)))
        worst1 = max(worst1, lhs - mid - 1e-12)
        x = a.real / t
        if not (0.5 <= x <= 2.0):
            worst2 = max(worst2, lhs - 4.0 * blaschke.mfun(x) - 1e-12)
    rows.append(("single-factor: real-part domination", worst1 <= 0,
                 "max excess %.2e" % worst1))
    rows.append(("single-factor: 4*m bound off [1/2,2]", worst2 <= 0,
                 "max excess %.2e" % worst2))

    # averaged m-function bound
    worst = -np.inf
    for _ in range(1000):
        alpha = rng.uniform(1e-3, 10.0)
        delta = rng.uniform(1e-3, 0.5)
        worst = max(worst, blaschke.avg_mfun(alpha, delta)
                    - 1.5 * blaschke.mfun(delta / alpha))
    rows.append(("avg_mfun <= 1.5*mfun", worst <= 1e-12,
                 "max excess %.2e" % worst))

    # certificate margins on synthetic instances
    neg = 0
    for _ in range(50):
        k = rng.integers(1, 6)
        zeros = [complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0))
                 for _ in range(k)]
        zs = blaschke.BlaschkeZeroSet.from_zeros(zeros)
        meas = blaschke.HerglotzMeasure(
            atoms=[(rng.uniform(-1, 1), rng.uniform(0.01, 0.3))],
            linear_coefficient=rng.uniform(0.0, 0.2))
        beta = max(zs.neg_log_at_one() + blaschke.herglotz_eval(meas, 1.0),
                   zs.budget_small(), zs.budget_big())
        cert = blaschke.certify_lower_bound(
            zero_set=zs, measure=meas, delta=rng.uniform(0.02, 0.24),
            beta=beta)
        if cert.margin < 0:
            neg += 1
    rows.append(("certificate margins >= 0 (50 runs)", neg == 0,
                 "%d negative" % neg))

    # mu0 atom recovery
    mass = 0.37
    meas = blaschke.HerglotzMeasure(atoms=[(0.0, mass)])
    F = blaschke.synthetic_f(blaschke.BlaschkeZeroSet.from_zeros([]), meas)
    est = blaschke.estimate_mu0(F, 0.01)
    rel = abs(est - mass) / mass
    rows.append(("mu0 atom recovery (10%)", rel <= 0.10, "rel err %.2e" % rel))
    return rows


def partition_check_suite(seed: int = 0) -> List[Tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    p = build_partition(0.01, 1.0)
    r = np.concatenate([rng.uniform(0, 2.0, 10000),
                        rng.uniform(0, 0.1, 10000)])
    rows = []
    err = float(np.max(np.abs(p.sum_at_radius(r) - 1)))
    rows.append(("sum to one", err <= 1e-12, "max err %.2e" % err))
    ov = int(p.overlap_count(r).max())
    rows.append(("companion overlap <= 4", ov <= 4, "max %d" % ov))
    for order in (1, 2, 3):
        rep = verify_partition(p, order)
        ok = abs(rep.exponent + order) <= 0.1
        rows.append(("derivative scaling order %d" % order, ok,
                     "exponent %.4f" % rep.exponent))
    return rows


CHECK_SUITES = {
    "mho": mho_check_suite,
    "landau": landau_check_suite,
    "blaschke": blaschke_check_suite,
    "partition": partition_check_suite,
}


def _run_suite(name: str, seed: int) -> int:
    rows = CHECK_SUITES[name](seed=seed)
    width = max(len(r[0]) for r in rows)
    failures = 0
    for label, ok, detail in rows:
        print("%-*s  %s  %s" % (width, label, "PASS" if ok else "FAIL",
                                detail))
        failures += not ok
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# sweep


# environment variables that set the BLAS thread count, recorded in the
# sweep manifest
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _point_key(point: dict) -> str:
    blob = json.dumps(point, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _sweep_worker(job):
    point, n, seed = job
    params = ModelParams(lam=point["lam"], b=point["b"], d1=point["d1"],
                         a=point["a"])
    spec = WellSpec.radial(point["a"], p=point["exponent"])
    row = ratio_point(params, n, spec=spec, seed=seed)
    return asdict(row)


def cmd_sweep(cfg: RunConfig, args) -> int:
    out = _results_dir(cfg, args)
    os.makedirs(os.path.join(out, "points"), exist_ok=True)
    n = _grid_n(cfg, args)
    seed = args.seed

    points = []
    for lam in cfg.sweep["lam"]:
        for b in cfg.sweep["b"]:
            for d1 in cfg.sweep["d1"]:
                points.append({"lam": lam, "b": b, "d1": d1,
                               "a": cfg.model["a"],
                               "exponent": cfg.model["exponent"],
                               "n": n, "seed": seed})

    manifest_path = os.path.join(out, "manifest.json")
    manifest = {"config_hash": cfg.config_hash, "code_version": _code_version(),
                "blas_threads": {v: os.environ.get(v)
                                 for v in BLAS_THREAD_VARS},
                "columns": RATIO_CSV_COLUMNS, "points": {}}
    if os.path.isfile(manifest_path):
        with open(manifest_path) as fh:
            prev = json.load(fh)
        if all(prev.get(key) == manifest[key]
               for key in ("config_hash", "code_version")):
            manifest["points"] = prev.get("points", {})

    todo = []
    for point in points:
        key = _point_key(point)
        entry = manifest["points"].get(key)
        if entry is not None and entry.get("status") == "ok":
            print("cache hit: %s" % _point_label(point))
            continue
        todo.append((key, point))

    results: Dict[str, dict] = {}
    jobs = [(point, n, seed) for _, point in todo]
    if args.threads > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(args.threads) as pool:
            for (key, point), res in zip(
                    todo, pool.map(_try_worker, jobs)):
                results[key] = res
    else:
        for (key, point), job in zip(todo, jobs):
            results[key] = _try_worker(job)

    failures = 0
    for key, point in todo:
        res = results[key]
        if "error" in res:
            failures += 1
            manifest["points"][key] = {"status": "failed", "point": point,
                                       **res}
            print("FAILED %s: %s" % (_point_label(point), res["error"]),
                  file=sys.stderr)
        else:
            manifest["points"][key] = {"status": "ok", "point": point,
                                       "row": res}
            _atomic_write(os.path.join(out, "points", key + ".json"),
                          json.dumps({"point": point, "row": res}, indent=1))
            print("done %s: ratio=%.9f separated=%s"
                  % (_point_label(point), res["ratio"], res["separated"]))

    _atomic_write(manifest_path, json.dumps(manifest, indent=1))

    rows = [RatioRow(**e["row"]) for e in manifest["points"].values()
            if e["status"] == "ok"]
    rows.sort(key=lambda r: (r.b, r.d1, r.lam))
    write_ratio_csv(os.path.join(out, "ratio.csv"), rows)
    print("wrote %s (%d rows)" % (os.path.join(out, "ratio.csv"), len(rows)))
    return EXIT_NUMERICAL if failures else EXIT_OK


def _try_worker(job):
    """The point's row, or its numerical failure (the exceptions `main`
    reports) with traceback and CPU seconds; programming errors propagate."""
    start = time.process_time()
    try:
        return _sweep_worker(job)
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc),
                "traceback": traceback.format_exc(),
                "cpu_s": time.process_time() - start}


def _point_label(point: dict) -> str:
    return "lam=%g b=%g d1=%g" % (point["lam"], point["b"], point["d1"])


# ---------------------------------------------------------------------------
# plots: hand-rolled SVG line plots


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_line_plot(path: str, series, title: str, xlabel: str, ylabel: str,
                   logy: bool = False) -> None:
    """series: list of (label, xs, ys).  Writes an SVG and a sidecar
    full-precision plot-data JSON next to it."""
    W, H, ML, MR, MT, MB = 640, 440, 70, 20, 40, 50
    pw, ph = W - ML - MR, H - MT - MB

    data = {"title": title, "xlabel": xlabel, "ylabel": ylabel, "logy": logy,
            "series": [{"label": lab, "x": list(map(float, xs)),
                        "y": list(map(float, ys))} for lab, xs, ys in series]}
    _atomic_write(os.path.splitext(path)[0] + ".data.json",
                  json.dumps(data, indent=1))

    def ty(v):
        return math.log10(v) if logy else v

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [ty(y) for _, _, ys in series for y in ys
              if (y > 0 or not logy)]
    if not xs_all or not ys_all:
        raise ConfigError("no plottable data for %s" % title)
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1

    def px(x):
        return ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return MT + (y1 - ty(y)) / (y1 - y0) * ph

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'font-family="sans-serif" font-size="12">' % (W, H),
             '<rect width="%d" height="%d" fill="white"/>' % (W, H),
             '<text x="%d" y="24" text-anchor="middle" font-size="15">%s'
             '</text>' % (W // 2, title)]
    # axes
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="black"/>' % (ML, MT, pw, ph))
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        gx = px(fx)
        parts.append('<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" '
                     'stroke="black"/>' % (gx, MT + ph, gx, MT + ph + 4))
        parts.append('<text x="%.1f" y="%d" text-anchor="middle">%.4g</text>'
                     % (gx, MT + ph + 18, fx))
        fy = y0 + (y1 - y0) * i / 4
        gy = MT + ph - ph * i / 4
        label = 10 ** fy if logy else fy
        parts.append('<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" '
                     'stroke="black"/>' % (ML - 4, gy, ML, gy))
        parts.append('<text x="%d" y="%.1f" text-anchor="end">%.3g</text>'
                     % (ML - 7, gy + 4, label))
    parts.append('<text x="%d" y="%d" text-anchor="middle">%s</text>'
                 % (ML + pw // 2, H - 12, xlabel))
    parts.append('<text x="16" y="%d" text-anchor="middle" transform='
                 '"rotate(-90 16 %d)">%s</text>'
                 % (MT + ph // 2, MT + ph // 2, ylabel))
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join("%.2f,%.2f" % (px(x), py(y))
                       for x, y in zip(xs, ys) if (y > 0 or not logy))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, color))
        for x, y in zip(xs, ys):
            if y > 0 or not logy:
                parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                             % (px(x), py(y), color))
        parts.append('<rect x="%d" y="%d" width="12" height="12" fill="%s"/>'
                     % (ML + 10, MT + 10 + 18 * idx, color))
        parts.append('<text x="%d" y="%d">%s</text>'
                     % (ML + 27, MT + 20 + 18 * idx, label))
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts))


def cmd_plot(cfg: RunConfig, args) -> int:
    results = _results_dir(cfg, args)
    ratio_csv = os.path.join(results, "ratio.csv")
    if not os.path.isfile(ratio_csv):
        print("warning: no plottable results found in %s" % results,
              file=sys.stderr)
        return EXIT_OK
    try:
        rows = read_ratio_csv(ratio_csv)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    groups: Dict[Tuple[float, float], List[RatioRow]] = {}
    for r in rows:
        groups.setdefault((r.b, r.d1), []).append(r)
    series_split, series_ratio = [], []
    for (b, d1), grp in sorted(groups.items()):
        grp.sort(key=lambda r: r.lam)
        lams = [r.lam for r in grp]
        series_split.append(("Delta, b=%g" % b, lams,
                             [r.delta for r in grp]))
        series_split.append(("2|rho|, b=%g" % b, lams,
                             [2 * r.abs_rho for r in grp]))
        series_ratio.append(("b=%g d1=%g" % (b, d1), lams,
                             [r.ratio for r in grp]))
    p1 = os.path.join(results, "splitting_vs_lambda.svg")
    _svg_line_plot(p1, series_split, "Splitting and hopping vs lambda",
                   "lambda", "energy (log)", logy=True)
    p2 = os.path.join(results, "ratio_vs_lambda.svg")
    _svg_line_plot(p2, series_ratio, "Delta / (2|rho|) vs lambda",
                   "lambda", "ratio")
    for path in (p1, p2):
        print("wrote %s" % path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# the subcommands: `<suite>-check` runs CHECK_SUITES[suite], and every other
# name runs the module's cmd_<name>
COMMANDS = (("spectrum", "hopping", "splitting")
            + tuple(suite + "-check" for suite in CHECK_SUITES)
            + ("sweep", "plot"))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="maglab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, metavar="PATH")
        p.add_argument("--out", default=None, metavar="DIR")
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1, metavar="N")
        if name == "spectrum":
            p.add_argument("--k", type=int, default=3)
        if name in ("spectrum", "hopping", "splitting"):
            p.add_argument("--lam", type=float, default=None)
            p.add_argument("--b", type=float, default=None)
            p.add_argument("--d1", type=float, default=None)
            p.add_argument("--a", type=float, default=None)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cmd = args.command
        if cmd.endswith("-check"):
            return _run_suite(cmd[:-len("-check")], args.seed)
        # looked up at call time, so that a replaced cmd_<name> is called
        return globals()["cmd_" + cmd](cfg, args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    # numerical failures only (EigensolverError, ClusterError, LinAlgError,
    # ARPACK errors, domain errors); programming errors keep their traceback
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        print("numerical failure: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
