"""Spans and counters recorded from outside maglab.

`Tracer.install` replaces every public maglab function, in every maglab
module namespace that holds it, with a wrapper that records a span named
`<defining module>.<function>`.  It also wraps scipy's `splu` twice: in the
`scipy.sparse.linalg` namespace, which is where maglab's contour projector
looks it up (`spectral.contour.*`), and in ARPACK's own module namespace,
which is what shift-invert `eigsh` calls (`spectral.arpack.*`).  The
factorizations returned are proxies that count right-hand-side columns
solved.  Spans are timed in CPU seconds of this process, like the rounds
they make up, are kept in memory, and `metrics` folds them into the
per-layer figures named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

MAGLAB_MODULES = ("grid_model", "spectral", "mho_kernels", "landau_kernels",
                  "tunneling", "blaschke", "partition", "cli")

ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"

# per-layer metrics reported from spans: self time of these functions
SELF_TIME_SPANS = (
    "spectral.lowest_eigs", "spectral.riesz_project",
    "spectral.projector_rank_estimate",
    "tunneling.splitting_direct", "tunneling.ratio_point",
    "tunneling.hopping_coefficient", "tunneling.quasimodes",
    "tunneling.gram_and_m",
    "landau_kernels.apply_landau_resolvent", "landau_kernels.gamma_tricomi_u",
    "landau_kernels.offdiag_decay_rate",
    "grid_model.build_operator", "grid_model.magnetic_translate",
    "mho_kernels.heat_kernel", "mho_kernels.discretize_mho",
    "blaschke.certify_lower_bound", "blaschke.estimate_mu0",
    "partition.build_partition", "partition.verify_partition",
    "cli.mho_check_suite", "cli.landau_check_suite",
    "cli.blaschke_check_suite", "cli.partition_check_suite",
)
CALL_COUNTS = ("spectral.lowest_eigs", "grid_model.build_operator")
LU_SOURCES = ("spectral.arpack", "spectral.contour")


class _Span:
    __slots__ = ("name", "start", "end", "parent", "children_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.children_s = 0.0


class _CountingLU:
    """SuperLU stand-in that counts the columns it solves."""

    def __init__(self, lu, tracer, source):
        self._lu = lu
        self._tracer = tracer
        self._source = source

    def solve(self, rhs, *args, **kwargs):
        cols = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        self._tracer.count(self._source + ".solves", cols)
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Nested timed spans plus counters, recorded only while `active`."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._shifts = set()
        self._restore = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._shifts = set()

    def count(self, name, k=1):
        if self.active:
            self.counters[name] += k

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, time.process_time(), parent)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.process_time()
            self._stack.pop()
            if parent is not None:
                parent.children_s += span.end - span.start
            self.spans.append(span)
            self.counters[name + ".calls"] += 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap maglab's public functions and scipy's splu; `uninstall`
        puts the originals back."""
        wrappers = {}
        for short in MAGLAB_MODULES:
            mod = importlib.import_module("maglab." + short)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("maglab.")):
                    continue
                if obj not in wrappers:
                    name = "%s.%s" % (obj.__module__.split(".")[-1], attr)
                    wrappers[obj] = self._wrap(name, obj)
                self._patch(mod, attr, wrappers[obj])
        self._patch(spla, "splu", self._wrap_splu("spectral.contour",
                                                  spla.splu))
        arpack = importlib.import_module(ARPACK_MODULE)
        self._patch(arpack, "splu", self._wrap_splu("spectral.arpack",
                                                    arpack.splu))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []

    def _patch(self, mod, attr, new):
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _wrap(self, name, fn):
        hook = _COUNT_HOOKS.get(name)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if hook is not None and tracer.active:
                hook(tracer, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _wrap_splu(self, source, splu):
        tracer = self

        def counted_splu(A, *args, **kwargs):
            lu = tracer.call(source + ".lu", splu, (A,) + args, kwargs)
            if not tracer.active:
                return lu
            tracer.counters["spectral.lu_fill_nnz"] = max(
                tracer.counters["spectral.lu_fill_nnz"], lu.nnz)
            if source == "spectral.contour":
                tracer._shifts.add(hashlib.sha1(
                    np.ascontiguousarray(A.data).tobytes()).hexdigest())
            return _CountingLU(lu, tracer, source)

        return counted_splu

    # -- reduction ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of the spans and counters recorded since the
        last `reset`: `<span>.s` is the self time (duration minus the time
        its child spans cover), summed over calls."""
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for sp in self.spans:
            dur = sp.end - sp.start
            total_s[sp.name] += dur
            self_s[sp.name] += dur - sp.children_s
        c = self.counters
        out = {name + ".s": self_s[name] for name in SELF_TIME_SPANS}
        for name in CALL_COUNTS:
            out[name + ".calls"] = c[name + ".calls"]
        for src in LU_SOURCES:
            out[src + ".lu_count"] = c[src + ".lu.calls"]
            out[src + ".lu_s"] = total_s[src + ".lu"]
            out[src + ".solves"] = c[src + ".solves"]
        out["spectral.contour.distinct_shifts"] = len(self._shifts)
        for name in ("spectral.lu_fill_nnz", "grid_model.operator_nnz",
                     "landau_kernels.support_points",
                     "landau_kernels.cells_touched",
                     "landau_kernels.gamma_tricomi_u.args"):
            out[name] = c[name]
        return out

    def span_records(self) -> list:
        """Spans as plain records (name, start, end, parent index)."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        return [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": index.get(id(sp.parent))} for sp in self.spans]


# counters read from a call's arguments and result: (tracer, args, result)

def _count_landau_support(tracer, args, result):
    f = args["f"]
    support = int(np.count_nonzero(f.values))
    tracer.count("landau_kernels.support_points", support)
    tracer.count("landau_kernels.cells_touched", support * f.grid.n ** 2)


def _count_tricomi_args(tracer, args, result):
    tracer.count("landau_kernels.gamma_tricomi_u.args", int(np.size(args["z"])))


def _count_operator_nnz(tracer, args, result):
    tracer.count("grid_model.operator_nnz", result.matrix.nnz)


_COUNT_HOOKS = {
    "landau_kernels.apply_landau_resolvent": _count_landau_support,
    "landau_kernels.gamma_tricomi_u": _count_tricomi_args,
    "grid_model.build_operator": _count_operator_nnz,
}
