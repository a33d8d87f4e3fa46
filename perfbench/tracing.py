"""Span tracing for the traced perfbench run, installed from outside the package.

``Tracer.install`` replaces every public function of every ``zeno_ent``
module in each module namespace that holds it, so calls through module
globals (``scenarios`` calling ``solve_discretized_bath``, ``model`` calling
``survival_amplitude``) are caught as well as calls through the package.
One wrapper exists per function; ``uninstall`` puts the originals back.
Class methods are not wrapped: their cost is self time of the caller.

Spans (function, start, end, parent span, job id) are kept in flat arrays
in memory and written out by ``save`` when the run ends.  Work counters
(points, steps, cells, bytes) are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("model", "solvers", "zeno", "search", "scenarios", "cli")
LAYERS = MODULES + ("bench",)

# span name of the objective closures that find_optimum hands to search;
# the closures live in scenarios, so their own cost belongs to that layer
OBJECTIVE = "scenarios.objective"
JOB = "bench.job"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _solver_counter(label):
    def count(counts, args, kwargs, out):
        steps = out.tau.size - 1
        counts[f"solvers.{label}.steps"] += steps
        if label == "bath":
            counts["solvers.bath.mode_steps"] += steps * (out.meta["n_modes"] + 2)
            norm = out.meta["norm_total"]
            drift = float(np.max(np.abs(norm - norm[0])))
            counts["solvers.bath.norm_drift_max"] = max(
                counts["solvers.bath.norm_drift_max"], drift)
    return count


def _points(key, pos, name):
    def count(counts, args, kwargs, out):
        counts[key] += np.size(_arg(args, kwargs, pos, name))
    return count


def _cells(key):
    def count(counts, args, kwargs, out):
        result = _arg(args, kwargs, 0, "result")
        counts[key] += len(result.rows) * len(result.columns)
    return count


def _written(counts, args, kwargs, out):
    if _arg(args, kwargs, 1, "out_path") is not None:
        counts["scenarios.write.bytes"] += len(out.encode("utf-8"))


# work counters, keyed by span name; each runs after its span has closed
COUNTERS = {
    "model.survival_amplitude": _points("model.survival_amplitude.points", 2, "t"),
    "zeno.stroboscopic_amplitudes": _points("zeno.stroboscopic_amplitudes.points", 4, "tau"),
    "solvers.solve_volterra": _solver_counter("volterra"),
    "solvers.solve_aux_ode": _solver_counter("ode"),
    "solvers.solve_discretized_bath": _solver_counter("bath"),
    "scenarios.render_csv": _cells("scenarios.render_csv.cells"),
    "scenarios.render_json": _cells("scenarios.render_json.cells"),
    "scenarios.write_result": _written,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.on = False
        self.job_id = -1
        self._stack = [-1]
        self._search_depth = 0
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.fn.append(fid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so that each call while ``on`` records a span."""
        fid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(fid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())
            if counter is not None:
                counter(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    def _search_span(self, name: str, fn):
        """Span for a search entry point; the outermost one also wraps the
        objective it is given, so each objective call is a counted span."""
        inner = self.span(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if tracer.on and tracer._search_depth == 0:
                f = tracer.span(OBJECTIVE, f)
            tracer._search_depth += 1
            try:
                return inner(f, *args, **kwargs)
            finally:
                tracer._search_depth -= 1

        return wrapper

    def install(self):
        import zeno_ent

        modules = [zeno_ent] + [importlib.import_module(f"zeno_ent.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("zeno_ent.")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    if name.startswith("search."):
                        wrappers[obj] = self._search_span(name, obj)
                    else:
                        wrappers[obj] = self.span(name, obj, COUNTERS.get(name))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; calls inside it are traced and carry ``job_id``."""
        self.job_id = job_id
        idx = self._open(self._id(JOB))
        self.on = True
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.on = False
            self._close(idx, t0, t1)

    def arrays(self):
        names = np.array(self.names)
        fn = np.frombuffer(self.fn, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)
        return names, fn, dur, dur - child

    def save(self, path: str):
        np.savez(path, names=np.array(self.names),
                 fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    Self time is a span's duration minus its children's; the benchmark's own share
    is the traced wall time not covered by any layer's self time, so the
    layer self times and ``bench.self_s`` add up to ``trace.wall_s``.
    Metrics of a layer the workload never reached read 0.
    """
    names, fn, dur, self_t = tracer.arrays()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for i, name in enumerate(names):
        mask = fn == i
        total[name] = float(dur[mask].sum())
        own[name] = float(self_t[mask].sum())
        calls[name] = int(mask.sum())
    layer_self = defaultdict(float)
    for name, value in own.items():
        layer_self[name.split(".", 1)[0]] += value
    c = tracer.counts

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for label, fname in (("bath", "solve_discretized_bath"), ("volterra", "solve_volterra"),
                         ("ode", "solve_aux_ode")):
        t, n = total[f"solvers.{fname}"], calls[f"solvers.{fname}"]
        work = c["solvers.bath.mode_steps"] if label == "bath" else c[f"solvers.{label}.steps"]
        key = "ns_per_mode_step" if label == "bath" else "ns_per_step"
        m[f"solvers.{label}.{key}"] = ratio(t, work, 1e9)
        m[f"solvers.{label}.s_per_run"] = ratio(t, n)
        m[f"solvers.{label}.runs"] = n
    m["solvers.bath.norm_drift_max"] = c["solvers.bath.norm_drift_max"]
    for fmt in ("csv", "json"):
        m[f"scenarios.render_{fmt}.ns_per_cell"] = ratio(
            total[f"scenarios.render_{fmt}"], c[f"scenarios.render_{fmt}.cells"], 1e9)
    m["scenarios.write.s"] = own["scenarios.write_result"]
    m["scenarios.write.bytes"] = c["scenarios.write.bytes"]
    m["scenarios.run.self_s"] = own["scenarios.run_scenario"]
    sa = "model.survival_amplitude"
    m[f"{sa}.ns_per_point"] = ratio(total[sa], c[f"{sa}.points"], 1e9)
    m[f"{sa}.points"] = c[f"{sa}.points"]
    m[f"{sa}.calls"] = calls[sa]
    for name in ("stationary_concurrence", "amplitudes_at", "concurrence_wootters"):
        m[f"model.{name}.us_per_call"] = ratio(total[f"model.{name}"], calls[f"model.{name}"], 1e6)
    m["model.stationary_concurrence.calls"] = calls["model.stationary_concurrence"]
    m["search.evals"] = calls[OBJECTIVE]
    sp = "zeno.stroboscopic_amplitudes"
    m[f"{sp}.ns_per_point"] = ratio(total[sp], c[f"{sp}.points"], 1e9)
    m["zeno.concurrence_measured.us_per_call"] = ratio(
        total["zeno.concurrence_measured"], calls["zeno.concurrence_measured"], 1e6)
    m["zeno.zeno_rate.calls"] = calls["zeno.zeno_rate"]
    m["zeno.simulate_stroboscopic.s"] = total["zeno.simulate_stroboscopic"]
    covered = 0.0
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_self[layer]
        covered += layer_self[layer]
    m["bench.self_s"] = wall - covered
    m["trace.wall_s"] = wall
    return m
