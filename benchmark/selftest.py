"""Self-test of the benchmark harness.

    python3 benchmark/selftest.py

1. Runs one round of every workload at its small size, requires the
   checks to pass on the real outputs, then feeds each check deliberately
   corrupted outputs and requires it to fail.
2. Runs the command path (`run.main`) untraced and traced on the cheapest
   workload and validates the printed JSON against BENCHMARK.json.
3. Runs the command in a directory holding only BENCHMARK.json and the
   benchmark, where it must exit non-zero without printing a result.

Exits 0 when every expectation holds, 1 otherwise.
"""

import run  # first: pins the BLAS/OpenMP threads before numpy loads

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import numpy as np

FAILURES = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def clean_round(workloads, name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(1, "small")
    out, nfail, _ = workloads.run_round(wl, inputs)
    expect(nfail == 0, "%s: small round runs (%s)"
           % (name, out.get("error", "no error")))
    if nfail:
        return wl, inputs, None
    problems = wl.check(inputs, out)
    expect(not problems, "%s: checks pass on the real outputs %s"
           % (name, problems))
    return wl, inputs, out


def corrupt(wl, inputs, out, label, mutate):
    bad = copy.deepcopy(out)
    mutate(bad)
    expect(bool(wl.check(inputs, bad)), "%s: check rejects %s"
           % (wl.name, label))


def test_checks(workloads):
    wl, inp, out = clean_round(workloads, "tunneling")
    if out is not None:
        rr0, _ = workloads.ratio_rr_bounds(inp["ratio_params"][0],
                                           out["rows"][0])

        def excited(o):  # an excited level returned as the lowest
            o["rows"][0].E0 = rr0 + 1.0
            o["rows"][0].delta = o["rows"][0].E1 - o["rows"][0].E0

        def ratio_delta(o):
            o["rows"][0].delta *= 1.001

        def ratio(o):
            o["rows"][0].ratio = 1.3

        def flat(o):  # the same |ratio - 1| at a second, larger lam
            o["rows"].append(copy.deepcopy(o["rows"][0]))

        def swap(o):
            e = o["split"].energies
            e[0], e[2] = e[2], e[0]

        def split_delta(o):
            o["split"].delta *= 1 + 1e-5

        def rank(o):
            o["qm"].rank_estimate = 1.6

        corrupt(wl, inp, out, "E0 above the Rayleigh-Ritz bound", excited)
        corrupt(wl, inp, out, "a perturbed ratio_point Delta0", ratio_delta)
        corrupt(wl, inp, out, "a ratio outside the window", ratio)
        corrupt(wl, dict(inp, ratio_params=inp["ratio_params"] * 2), out,
                "a ratio that does not approach 1", flat)
        corrupt(wl, inp, out, "swapped E0/E2", swap)
        corrupt(wl, inp, out, "a perturbed splitting_direct Delta0",
                split_delta)
        corrupt(wl, inp, out, "a rank estimate of 1.6", rank)

    wl, inp, out = clean_round(workloads, "kernels")
    if out is not None:
        def zero(o):
            o["g"].values[:] = 0

        def scaled(o):
            o["g"].values *= 1.01

        def row(o):
            label, _, detail = o["suites"]["partition"][0]
            o["suites"]["partition"][0] = (label, False, detail)

        def rates(o):
            o["rates"].reverse()

        def tricomi(o):
            a, z, u = o["tricomi"][0]
            o["tricomi"][0] = (a, z, u * (1 + 1e-6))

        def mho(o):
            o["mho_e0"] *= 1.01

        corrupt(wl, inp, out, "a zeroed resolvent output", zero)
        corrupt(wl, inp, out, "a resolvent output off by 1%", scaled)
        corrupt(wl, inp, out, "a failing suite row", row)
        corrupt(wl, inp, out, "decay rates falling with lam", rates)
        corrupt(wl, inp, out, "a perturbed Tricomi U value", tricomi)
        corrupt(wl, inp, out, "an MHO ground level 1% off", mho)


def test_command():
    spec = run.load_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "kernels", "--seed", "3",
                             "--seconds", "0", "--trace", str(trace),
                             "--size", "small"])
        result = json.loads(buf.getvalue().strip().splitlines()[-1])
        expect(code == 0, "trace %d: exit code 0" % trace)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               "trace %d: result keys" % trace)
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1,
               "trace %d: correct, nothing failed" % trace)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, "trace %d: metric names and units match %s"
               % (trace, section))
        expect(all(np.isfinite(v["value"])
                   for v in result["metrics"].values()),
               "trace %d: finite metric values" % trace)


def test_bare_directory():
    """Without src/ the command must fail without printing a result."""
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "benchmark", bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "tunneling",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "bare directory: exit %d, no result" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workloads = run.import_workloads()
    test_checks(workloads)
    test_command()
    test_bare_directory()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
