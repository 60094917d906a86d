"""Run one maglab benchmark workload in this process and print its metrics.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are BENCHMARK.json's `end_to_end` ones, with
`--trace 1` its `per_layer` ones.  A traced run also writes its spans to
`.bench_out/`.  See benchmark/README.md.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy is first imported: with threaded
# OpenBLAS the ARPACK path burns twice the CPU for no wall-time gain and its
# wall time spreads much more from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXIT_USAGE = 2


def process_age_s() -> float:
    """Seconds since this process started (Linux /proc), else since this
    module started running."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_workloads():
    """Put the checkout's src/ first on the import path (maglab is not
    installed) and import the workloads; refuses any other maglab."""
    if not (SRC / "maglab" / "__init__.py").is_file():
        raise ImportError("no maglab sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import maglab
    if Path(maglab.__file__).resolve().parent != SRC / "maglab":
        raise ImportError("imported maglab from %s, not %s"
                          % (maglab.__file__, SRC))
    import workloads
    return workloads


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and its waited-for
    children.  Unlike wall time it leaves out the time the process waits
    for a core, including time the host steals from the virtual CPU."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def measure(workloads, wl, inputs, seconds, tracer=None):
    """Whole rounds, as many as fit in `seconds` of wall time (at least
    one): a run stops when another round, of the median length so far,
    would end past `seconds`.  Returns per-round CPU and wall times,
    per-round tracer metrics, attempted, failed and the check failures of
    the rounds that completed."""
    cpu, wall, layer, problems = [], [], [], []
    attempted = failed = 0
    reported = set()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        c0, t0 = cpu_s(), time.perf_counter()
        out, nfail, seen = workloads.run_round(wl, inputs)
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_s() - c0)
        if tracer is not None:
            tracer.active = False
            layer.append(tracer.metrics())
        attempted += len(wl.steps(inputs))
        failed += nfail
        for note in ["warning: %s" % w.message for w in seen] + (
                ["failed: %s" % out["error"]] if nfail else []):
            if note not in reported:
                reported.add(note)
                print(note, file=sys.stderr)
        if not nfail:
            problems += wl.check(inputs, out)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(wall) > seconds:
            return cpu, wall, layer, attempted, failed, problems


def metric_block(names_units, values):
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise KeyError("metrics not measured: %s" % missing)
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in names_units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs for the self-test")
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        workloads = import_workloads()
    except (OSError, ValueError, ImportError) as exc:
        print("benchmark: cannot start: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.workload not in workloads.WORKLOADS:
        print("benchmark: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return EXIT_USAGE
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.size)
    setup_s = process_age_s()

    if not args.trace:
        cpu, _, _, attempted, failed, problems = measure(
            workloads, wl, inputs, args.seconds)
        values = {"setup_s": setup_s,
                  "round_cpu_s": statistics.median(cpu),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = metric_block(spec["end_to_end"], values)
    else:
        import tracer as tracing
        # one untraced round as the reference for the tracing overhead
        ref, _, _, att0, fail0, prob0 = measure(workloads, wl, inputs, 0.0)
        tracer = tracing.Tracer()
        tracer.install()
        cpu, wall, layer, attempted, failed, problems = measure(
            workloads, wl, inputs, args.seconds, tracer)
        attempted, failed, problems = (attempted + att0, failed + fail0,
                                       problems + prob0)
        values = {k: statistics.median(m[k] for m in layer)
                  for k in layer[0]}
        values["round.wall_s"] = statistics.median(wall)
        values["trace.overhead_s"] = statistics.median(cpu) - ref[0]
        metrics = metric_block(spec["per_layer"], values)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / ("%s-seed%d.spans.json"
                             % (args.workload, args.seed)), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "round_cpu_s": cpu, "round_wall_s": wall,
                       "metrics": values,
                       "spans": tracer.span_records()}, fh)
        tracer.uninstall()

    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
