"""Command-line interface: config validation and exit codes, sweep manifest
caching, CSV/plot round-trips, and the cheap check suites."""

import csv
import json
import os
import shutil

import numpy as np
import pytest

from maglab import cli
from maglab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    load_config,
)
from maglab.grid_model import ModelParams, choose_grid
from maglab.spectral import EigensolverError
from maglab.tunneling import lattice_grid, ratio_point, splitting_direct

SWEEP_INI = """\
[model]
lam = 8.0
b = 0.0
d1 = 0.45
a = 0.2

[sweep]
lam = 8.0

[grid]
n = 96

[output]
dir = {out}
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.model["lam"] == 30.0
    assert cfg.grid["n"] == 240
    assert cfg.sweep["lam"] == [30.0]


def test_load_config_rejects_unknown_keys(tmp_path):
    p = write(tmp_path / "bad.ini", "[model]\nlambda_typo = 3\n")
    with pytest.raises(ConfigError, match="unknown"):
        load_config(p)
    p2 = write(tmp_path / "bad2.ini", "[grid]\nresolution = 100\n")
    with pytest.raises(ConfigError, match="unknown"):
        load_config(p2)


def test_load_config_rejects_empty_sweep(tmp_path):
    p = write(tmp_path / "bad.ini", "[sweep]\nlam =\n")
    with pytest.raises(ConfigError, match="empty"):
        load_config(p)


def test_load_config_rejects_a_checks_section(tmp_path):
    # every *-check command runs its suite, so a suite list selects nothing
    p = write(tmp_path / "bad.ini", "[checks]\nsuites = mho\n")
    with pytest.raises(ConfigError, match=r"\[checks\]"):
        load_config(p)


def test_misspelt_section_exits_config_code(tmp_path, capsys):
    p = write(tmp_path / "typo.ini", "[sweeps]\nlam = 8.0 9.0\n")
    assert cli.main(["partition-check", "--config", p]) == EXIT_CONFIG
    assert "[sweeps]" in capsys.readouterr().err


def test_unknown_output_key_exits_config_code(tmp_path, capsys):
    # a sweep would otherwise write to results/, not to the intended dir
    p = write(tmp_path / "typo.ini", "[output]\ndirectory = elsewhere\n")
    with pytest.raises(ConfigError, match="directory"):
        load_config(p)
    assert cli.main(["partition-check", "--config", p]) == EXIT_CONFIG
    assert "[output] key: directory" in capsys.readouterr().err


def test_missing_config_file_exits_config_code(capsys):
    rc = cli.main(["spectrum", "--config", "/nonexistent/path.ini"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_model_exits_config_code(capsys):
    rc = cli.main(["splitting", "--a", "-0.3"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("section, line", [
    ("model", "lam = abc"), ("model", "exponent = 4.5"),
    ("grid", "n = 9.5"), ("grid", "n = 95"), ("grid", "n = 0")])
def test_bad_config_values_exit_config_code(tmp_path, capsys, section, line):
    ini = tmp_path / "bad.ini"
    ini.write_text("[%s]\n%s\n" % (section, line))
    rc = cli.main(["splitting", "--config", str(ini)])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["95", "-4"])
def test_bad_grid_n_flag_exits_config_code(capsys, n):
    rc = cli.main(["splitting", "--grid-n", n])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_splitting_reports_solver_path(capsys):
    rc = cli.main(["splitting", "--lam", "2", "--a", "0.3", "--d1", "0.35",
                   "--grid-n", "50"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "Delta0 = " in out
    assert "path   = parity (parity defect " in out


def test_spectrum_writes_its_bundle(tmp_path, capsys):
    rc = cli.main(["spectrum", "--lam", "2", "--a", "0.3", "--d1", "0.35",
                   "--grid-n", "50", "--k", "3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "spectrum.json") as fh:
        bundle = json.load(fh)
    assert set(bundle) == {"eigenvalues", "residuals",
                           "orthogonality_defect", "metadata"}
    assert set(bundle["metadata"]) == {"lam", "b", "d1", "a", "grid_n",
                                       "grid_L"}
    assert bundle["metadata"]["lam"] == 2.0
    assert bundle["metadata"]["grid_n"] == 50
    energies = [float(ln.split()[2]) for ln in
                capsys.readouterr().out.splitlines() if ln.startswith("E")]
    assert bundle["eigenvalues"] == pytest.approx(energies, rel=1e-11)
    assert len(bundle["residuals"]) == 3
    assert bundle["orthogonality_defect"] <= 1e-8


def test_spectrum_levels_match_the_splitting_levels(tmp_path, monkeypatch):
    # `maglab spectrum` starts its shift search where `splitting_direct`
    # does, at the oscillator level, and gives its E0, E1, E2
    built = []
    double_well = cli._double_well

    def recording(cfg, args):
        built.append(double_well(cfg, args))
        return built[-1]

    monkeypatch.setattr(cli, "_double_well", recording)
    rc = cli.main(["spectrum", "--lam", "2", "--a", "0.3", "--d1", "0.35",
                   "--grid-n", "50", "--k", "3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "spectrum.json") as fh:
        levels = json.load(fh)["eigenvalues"]
    (op,) = built
    sd = splitting_direct(op, seed=0)
    assert not sd.cluster_separated
    np.testing.assert_allclose(levels, sd.energies, rtol=1e-11)


def test_spectrum_writes_to_the_configured_output_dir(tmp_path,
                                                      monkeypatch):
    out = tmp_path / "configured"
    cfg = write(tmp_path / "c.ini", "[output]\ndir = %s\n" % out)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["spectrum", "--config", cfg, "--lam", "2", "--a", "0.3",
                   "--d1", "0.35", "--grid-n", "50", "--k", "1"])
    assert rc == EXIT_OK
    assert (out / "spectrum.json").is_file()
    assert not (tmp_path / "results").exists()


def test_splitting_prints_its_count_certificate(capsys):
    rc = cli.main(["splitting", "--lam", "2", "--a", "0.3", "--d1", "0.35",
                   "--grid-n", "50"])
    assert rc == EXIT_OK
    line, = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("counts = ")]
    assert line.startswith("counts = 0, 0 below shifts ")
    assert "; 2 below (E1+E2)/2 = " in line


def test_partition_check_suite_passes(capsys):
    rc = cli.main(["partition-check"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_suites_registry():
    assert set(cli.CHECK_SUITES) == {"mho", "landau", "blaschke", "partition"}


def test_every_command_has_its_handler():
    for name in cli.COMMANDS:
        if name.endswith("-check"):
            assert name[:-len("-check")] in cli.CHECK_SUITES
        else:
            assert callable(getattr(cli, "cmd_" + name))
    assert len(set(cli.COMMANDS)) == len(cli.COMMANDS) == 9


def test_sweep_cache_and_plot_roundtrip(tmp_path, capsys, monkeypatch):
    out = tmp_path / "results"
    config = write(tmp_path / "sweep.ini", SWEEP_INI.format(out=out))

    rc = cli.main(["sweep", "--config", config])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert "cache hit" not in captured.out

    manifest = json.loads((out / "manifest.json").read_text())
    # the BLAS thread settings seen at sweep start, unset ones as null
    assert manifest["blas_threads"] == {
        v: os.environ.get(v)
        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")}
    assert len(manifest["points"]) == 1
    (key, entry), = manifest["points"].items()
    assert entry["status"] == "ok"
    assert (out / "points" / (key + ".json")).is_file()

    with open(out / "ratio.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.RATIO_CSV_COLUMNS
    assert len(rows) == 2
    ratio = float(rows[1][rows[0].index("ratio")])
    assert 0.5 < ratio < 2.0

    # second run: all points served from the manifest cache, which the
    # thread settings stay out of
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    rc = cli.main(["sweep", "--config", config])
    assert rc == EXIT_OK
    assert "cache hit" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())[
        "blas_threads"]["MKL_NUM_THREADS"] == "3"

    # rows made by other code are stale: the point is computed again
    manifest["code_version"] = "0" * 16
    (out / "manifest.json").write_text(json.dumps(manifest))
    rc = cli.main(["sweep", "--config", config])
    assert rc == EXIT_OK
    assert "cache hit" not in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["code_version"] == cli._code_version()
    assert len(manifest["points"]) == 1

    # plots plus full-precision sidecar data
    rc = cli.main(["plot", "--config", config])
    assert rc == EXIT_OK
    svg = out / "ratio_vs_lambda.svg"
    sidecar = out / "ratio_vs_lambda.data.json"
    assert svg.is_file() and sidecar.is_file()
    data = json.loads(sidecar.read_text())
    ys = [y for s in data["series"] for y in s["y"]]
    assert ratio in ys                      # bit-exact round trip

    # a changed config invalidates the cache
    config2 = write(tmp_path / "sweep2.ini",
                    SWEEP_INI.format(out=out) + "\n# comment\n")
    cfg2 = load_config(config2)
    assert cfg2.config_hash != load_config(config).config_hash


def test_code_version_hashes_sources_and_data(tmp_path, monkeypatch):
    pkg = tmp_path / "maglab"
    shutil.copytree(os.path.dirname(cli.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "__file__", str(pkg / "cli.py"))
    base = cli._code_version()
    assert base == cli._code_version()
    seen = {base}
    for name in ("spectral.py", "data/landau_constants.json"):
        path = pkg / name
        text = path.read_bytes()
        path.write_bytes(text + b"\n")
        seen.add(cli._code_version())
        path.write_bytes(text)
        assert cli._code_version() == base
    assert len(seen) == 3


def test_plot_without_results_warns(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[output]\ndir = %s\n" % (tmp_path / "x"))
    os.makedirs(tmp_path / "x")
    rc = cli.main(["plot", "--config", cfg])
    assert rc == EXIT_OK
    assert "no plottable results" in capsys.readouterr().err


def test_plot_rejects_broken_csv_schema(tmp_path, capsys):
    out = tmp_path / "res"
    os.makedirs(out)
    (out / "ratio.csv").write_text("lambda,b\n1.0,0.0\n")
    cfg = write(tmp_path / "c.ini", "[output]\ndir = %s\n" % out)
    rc = cli.main(["plot", "--config", cfg])
    assert rc == EXIT_CONFIG
    assert "missing column" in capsys.readouterr().err


def test_flux_refinement_helper():
    params = ModelParams(lam=40.0, b=0.1, d1=0.4, a=0.15)
    fine, _ = lattice_grid(params, 32)
    assert fine.spacing * 40.0 <= 0.45 + 1e-12
    assert fine.n % 2 == 0
    ok, _ = lattice_grid(params, 400)
    assert ok == choose_grid(params, 400, double_well=True, pad=params.d1)


def test_splitting_matches_the_sweep_point(capsys):
    # spectrum/hopping/splitting build the lattice of ratio_point, and their
    # wells from the --a given on the command line
    rc = cli.main(["splitting", "--lam", "8", "--b", "0.05", "--d1", "0.45",
                   "--a", "0.2", "--grid-n", "96"])
    assert rc == EXIT_OK
    row = ratio_point(ModelParams(lam=8.0, b=0.05, d1=0.45, a=0.2), 96)
    assert "Delta0 = %.12e\n" % row.delta in capsys.readouterr().out


def test_programming_errors_keep_their_traceback(monkeypatch):
    def broken(cfg, args):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "cmd_splitting", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        cli.main(["splitting"])


def test_sweep_records_a_failed_point(tmp_path, capsys, monkeypatch):
    def fails(job):
        raise EigensolverError("no convergence at the test point")
    monkeypatch.setattr(cli, "_sweep_worker", fails)
    out = tmp_path / "results"
    config = write(tmp_path / "sweep.ini", SWEEP_INI.format(out=out))
    assert cli.main(["sweep", "--config", config]) == EXIT_NUMERICAL
    assert "FAILED" in capsys.readouterr().err
    (entry,) = json.loads((out / "manifest.json").read_text())[
        "points"].values()
    assert entry["status"] == "failed"
    assert entry["error"] == ("EigensolverError: no convergence at the "
                              "test point")
    assert "in fails" in entry["traceback"]
    assert entry["traceback"].rstrip().endswith(entry["error"])
    assert isinstance(entry["cpu_s"], float) and entry["cpu_s"] >= 0


def test_sweep_propagates_programming_errors(tmp_path, monkeypatch):
    def broken(job):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "_sweep_worker", broken)
    config = write(tmp_path / "sweep.ini",
                   SWEEP_INI.format(out=tmp_path / "results"))
    with pytest.raises(TypeError, match="unsupported operand"):
        cli.main(["sweep", "--config", config])
