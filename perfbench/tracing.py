"""Span tracing of the exptwolevel layers from outside the package.

`Tracer.install()` replaces each public function named in LAYERS with a
wrapper that records a span.  Modules import functions by name (`analytic`
holds its own `kummer_m`, `sweep` its own `populations`), so the wrapper is
set on every exptwolevel module attribute bound to the original function.
`Tracer.uninstall()` puts every original back.  Nothing in the package is
edited.

Spans stay in memory (name, start, end, parent, thread id, run id) until the
caller takes them with `Tracer.take()`.

Self time is a span's inclusive time minus the inclusive time of its direct
children.  A span in the thread that opened the run measures wall time.  A
span in another thread (the sweep's worker pool) measures that thread's CPU
time, so a worker waiting for the interpreter lock is billed to the span that
waits for the pool (`sweep.run_sweep`), not to the layer it would run.

The wrappers cost time of their own.  `calibrate()` times a wrapped empty
function, once in the run's thread and once in another thread, and splits
the cost of one call into the part inside its span and the part outside it
(billed to the parent).  `aggregate()` takes both off the self times, so the
corrected self times of a traced pass plus its calibrated overhead add up to
its wall time, and should come close to the wall time of an untraced pass.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

LAYERS = {
    "model": ("detuning", "coupling", "hamiltonian", "x_of_t", "t_of_x",
              "derived_params", "omega_integral"),
    "specfun": ("kummer_m", "tricomi_u", "kummer_m_derivative", "tricomi_u_derivative",
                "wronskian_residual", "ln_gamma_complex"),
    "analytic": ("basis_solutions", "gauge_factor", "transition_parameter_omega12",
                 "amplitudes", "propagator", "populations"),
    "oracle": ("integrate_tdse", "integrate_tdse_batch", "constant_h_propagator",
               "transformed_ode_check"),
    "spectrum": ("eigenvalues_direct", "eigenvalues_closed_form", "energy_decomposition",
                 "energy_map"),
    "rabi": ("rabi_survival_closed_form", "rabi_survival_oracle", "interferogram",
             "rabi_limit_convergence"),
    "sweep": ("run_sweep", "emit"),
}

ROOT_SPAN = "bench.pass"
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


def _trajectory_steps(result, args, kwargs):
    return {"steps_accepted": result.accepted, "steps_rejected": result.rejected}


def _emitted_bytes(result, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs.get("path")
    if isinstance(path, (str, os.PathLike)):
        return {"bytes": os.path.getsize(path)}
    return {}


def _sweep_rows(result, args, kwargs):
    return {"rows": len(result.rows)}


# counters read from a function's result after its span has closed
HOOKS = {
    "oracle.integrate_tdse": _trajectory_steps,
    "sweep.emit": _emitted_bytes,
    "sweep.run_sweep": _sweep_rows,
}


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "run", "start", "end",
                 "cpu_start", "cpu_end", "error", "extra")

    def __init__(self, name, layer, parent, thread, run):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.run = run
        self.cpu_start = self.cpu_end = None
        self.error = False
        self.extra = None

    @property
    def inclusive(self) -> float:
        if self.cpu_start is not None:
            return self.cpu_end - self.cpu_start
        return self.end - self.start


class Tracer:
    """Records a span around every call of a wrapped function while installed."""

    def __init__(self):
        self._spans = []
        self._local = threading.local()
        self._owner = None
        self._owner_stack = None
        self._run = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        perf_counter, thread_time = time.perf_counter, time.thread_time
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = get_ident()
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # first span in a pool thread: child of whatever the run waits in
                parent = self._owner_stack[-1] if self._owner_stack else None
            span = Span(name, layer, parent, thread, self._run)
            stack.append(span)
            owner = thread == self._owner
            span.start = perf_counter()
            if not owner:
                span.cpu_start = thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                if not owner:
                    span.cpu_end = thread_time()
                span.end = perf_counter()
                stack.pop()
                self._spans.append(span)
            if hook is not None:
                span.extra = hook(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap the LAYERS functions in every loaded exptwolevel module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"exptwolevel.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "exptwolevel" and not modname.startswith("exptwolevel."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def run(self, run_id: int, fn, *args):
        """Call fn(*args) inside a root span for one run; return (result, wall)."""
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()
        self._run = run_id
        root = Span(ROOT_SPAN, "bench", None, self._owner, run_id)
        self._owner_stack.append(root)
        root.start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            root.end = time.perf_counter()
            self._owner_stack.pop()
            self._spans.append(root)
        return result, root.end - root.start

    def take(self) -> list:
        spans, self._spans = self._spans, []
        return spans


def _noop():
    return None


def _loop(fn, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - start


def _loop_in_thread(fn, n: int) -> float:
    box = []
    thread = threading.Thread(target=lambda: box.append(_loop(fn, n)))
    thread.start()
    thread.join()
    return box[0]


def calibrate() -> dict:
    """Seconds per wrapped call, (inside its span, outside it), keyed by whether
    the span runs in another thread than the run's; medians over repeats."""
    tracer = Tracer()
    traced = tracer._wrap("calibrate.noop", _noop)
    cost = {}
    for in_worker, loop in ((False, _loop), (True, _loop_in_thread)):
        inside, outside = [], []
        for _ in range(CALIBRATION_REPEATS):
            raw = loop(_noop, CALIBRATION_CALLS) / CALIBRATION_CALLS
            total, _ = tracer.run(0, loop, traced, CALIBRATION_CALLS)
            spans = [sp.inclusive for sp in tracer.take() if sp.name == "calibrate.noop"]
            c_in = max(0.0, statistics.median(spans) - raw)
            inside.append(c_in)
            outside.append(max(0.0, total / CALIBRATION_CALLS - raw - c_in))
        cost[in_worker] = (statistics.median(inside), statistics.median(outside))
    return cost


NO_COST = {False: (0.0, 0.0), True: (0.0, 0.0)}


def wrapper_time(spans: list, cost: dict):
    """Calibrated wrapper time per span (by id): (within its inclusive time,
    within its self time)."""
    within, own = {}, {}
    for sp in spans:  # completion order puts every child before its parent
        c_in, c_out = (0.0, 0.0) if sp.name == ROOT_SPAN else cost[sp.cpu_start is not None]
        key = id(sp)
        within[key] = within.get(key, 0.0) + c_in
        own[key] = own.get(key, 0.0) + c_in
        if sp.parent is not None:
            parent = id(sp.parent)
            within[parent] = within.get(parent, 0.0) + c_out + within[key]
            own[parent] = own.get(parent, 0.0) + c_out
    return within, own


class Agg:
    """Totals for one span name, or one layer, over a set of spans."""

    __slots__ = ("calls", "s", "self_s", "errors", "ms", "extra", "overhead")

    def __init__(self):
        self.calls = 0
        self.s = 0.0  # inclusive time of calls entered from outside the layer
        self.self_s = 0.0
        self.errors = 0  # exceptions that left the layer
        self.ms = []
        self.extra = {}
        self.overhead = 0.0  # calibrated wrapper time inside calls entered from outside


def aggregate(spans: list, cost: dict = NO_COST) -> dict:
    """Per-name totals, plus per-layer totals under the layer's own name, with
    the calibrated wrapper time taken off every time."""
    within, own = wrapper_time(spans, cost)
    child_time = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[id(sp.parent)] = child_time.get(id(sp.parent), 0.0) + sp.inclusive
    out = {}
    for sp in spans:
        incl = sp.inclusive - within[id(sp)]
        self_s = sp.inclusive - child_time.get(id(sp), 0.0) - own[id(sp)]
        entered = sp.parent is None or sp.parent.layer != sp.layer
        for key in (sp.name, sp.layer):
            agg = out.get(key)
            if agg is None:
                agg = out[key] = Agg()
            agg.calls += 1
            agg.self_s += self_s
            if entered:
                agg.s += incl
                agg.errors += sp.error
                agg.overhead += within[id(sp)]
        out[sp.name].ms.append(1e3 * incl)
        if sp.extra:
            extra = out[sp.name].extra
            for k, v in sp.extra.items():
                extra[k] = extra.get(k, 0) + v
    return out


_SPECFUN = "wall_s on fig-populations, t-scan, random-box; not spectral-maps"
_CLOSED_FORM = "wall_s on fig-populations, t-scan, random-box"
_BASIS = "wall_s on fig-populations, t-scan"
_BATCH = "wall_s on fig-populations, random-box"
_TSCAN = "wall_s on t-scan"
_MAPS = "wall_s on spectral-maps"

# name, unit, better, the end-to-end metric and workloads it should move
PER_LAYER = [
    ("specfun.kummer_m.calls", "count", "lower", _SPECFUN),
    ("specfun.kummer_m.self_s", "s", "lower", _SPECFUN),
    ("specfun.tricomi_u.calls", "count", "lower", _SPECFUN),
    ("specfun.tricomi_u.self_s", "s", "lower", _SPECFUN),
    ("specfun.errors", "count", "lower", "pass_share on random-box"),
    ("analytic.basis_solutions.calls", "count", "lower", _BASIS),
    ("analytic.basis_solutions.self_s", "s", "lower", _BASIS),
    ("analytic.propagator.calls", "count", "lower", _BATCH),
    ("analytic.propagator.self_s", "s", "lower", _BATCH),
    ("analytic.propagator.ms_p50", "ms", "lower", _BATCH),
    ("analytic.propagator.ms_p95", "ms", "lower", _BATCH),
    ("analytic.amplitudes.calls", "count", "lower", _TSCAN),
    ("analytic.amplitudes.self_s", "s", "lower", _TSCAN),
    ("analytic.specfun_calls_per_row", "calls/row", "lower", _CLOSED_FORM),
    ("analytic.errors", "count", "lower", "pass_share and honest_share on random-box"),
    ("oracle.integrate_tdse_batch.calls", "count", "lower", _BATCH),
    ("oracle.integrate_tdse_batch.s", "s", "lower", _BATCH),
    ("oracle.integrate_tdse.calls", "count", "lower", _TSCAN),
    ("oracle.integrate_tdse.s", "s", "lower", _TSCAN),
    ("oracle.integrate_tdse.steps_accepted", "count", "lower", _TSCAN),
    ("oracle.integrate_tdse.steps_rejected", "count", "lower", _TSCAN),
    ("oracle.constant_h_propagator.calls", "count", "lower", _MAPS),
    ("oracle.constant_h_propagator.self_s", "s", "lower", _MAPS),
    ("oracle.share_of_wall", "ratio", "lower", "wall_s on every workload that runs the oracle"),
    ("spectrum.energy_decomposition.calls", "count", "lower", _MAPS),
    ("spectrum.energy_decomposition.self_s", "s", "lower", _MAPS),
    ("rabi.rabi_survival_closed_form.calls", "count", "lower", _MAPS),
    ("rabi.rabi_survival_closed_form.self_s", "s", "lower", _MAPS),
    ("rabi.rabi_survival_oracle.calls", "count", "lower", _MAPS),
    ("rabi.rabi_survival_oracle.self_s", "s", "lower", _MAPS),
    ("rabi.interferogram.calls", "count", "lower", _MAPS),
    ("rabi.interferogram.self_s", "s", "lower", _MAPS),
    ("sweep.run_sweep.self_s", "s", "lower", _MAPS),
    ("sweep.emit.s", "s", "lower", _MAPS),
    ("sweep.emit.bytes", "bytes", "lower", "wall_s and peak_rss_mb on spectral-maps"),
    ("sweep.rows", "count", "higher", "wall_s and peak_rss_mb on spectral-maps"),
    ("model.self_s", "s", "lower", _MAPS),
    ("specfun.self_s", "s", "lower", _CLOSED_FORM),
    ("analytic.self_s", "s", "lower", _CLOSED_FORM),
    ("oracle.self_s", "s", "lower", _CLOSED_FORM),
    ("spectrum.self_s", "s", "lower", _MAPS),
    ("rabi.self_s", "s", "lower", _MAPS),
    ("sweep.self_s", "s", "lower", "wall_s on fig-populations, spectral-maps, t-scan"),
    ("bench.self_s", "s", "lower", "none: the benchmark's own code between layer calls"),
    ("trace.wall_s", "s", "lower", "none: wall_s of a traced pass"),
    ("trace.overhead_s", "s", "lower", "none: calibrated wrapper time of a traced pass"),
    ("trace.residual_share", "ratio", "lower",
     "none: |traced wall_s - overhead - untraced wall_s| / untraced wall_s"),
]

_TIMED = ("specfun.kummer_m", "specfun.tricomi_u", "analytic.basis_solutions",
          "analytic.propagator", "analytic.amplitudes", "oracle.constant_h_propagator",
          "spectrum.energy_decomposition", "rabi.rabi_survival_closed_form",
          "rabi.rabi_survival_oracle", "rabi.interferogram")


def _percentile(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(spans: list, rows: int, cost: dict = NO_COST) -> dict:
    """Per-layer metrics of one traced pass (its spans, root span included)."""
    agg = aggregate(spans, cost)
    empty = Agg()

    def get(name):
        return agg.get(name, empty)

    overhead = get("bench").overhead
    wall = get("bench").s + overhead  # as measured, wrappers included
    m = {}
    for name in _TIMED:
        m[f"{name}.calls"] = get(name).calls
        m[f"{name}.self_s"] = get(name).self_s
    m["specfun.errors"] = get("specfun").errors
    m["analytic.errors"] = get("analytic").errors
    ms = get("analytic.propagator").ms
    m["analytic.propagator.ms_p50"] = _percentile(ms, 50)
    m["analytic.propagator.ms_p95"] = _percentile(ms, 95)
    specfun_calls = get("specfun.kummer_m").calls + get("specfun.tricomi_u").calls
    m["analytic.specfun_calls_per_row"] = specfun_calls / rows if rows else 0.0
    for name in ("oracle.integrate_tdse_batch", "oracle.integrate_tdse"):
        m[f"{name}.calls"] = get(name).calls
        m[f"{name}.s"] = get(name).s
    steps = get("oracle.integrate_tdse").extra
    m["oracle.integrate_tdse.steps_accepted"] = steps.get("steps_accepted", 0)
    m["oracle.integrate_tdse.steps_rejected"] = steps.get("steps_rejected", 0)
    m["oracle.share_of_wall"] = get("oracle").s / (wall - overhead) if wall else 0.0
    m["sweep.run_sweep.self_s"] = get("sweep.run_sweep").self_s
    m["sweep.emit.s"] = get("sweep.emit").s
    m["sweep.emit.bytes"] = get("sweep.emit").extra.get("bytes", 0)
    m["sweep.rows"] = get("sweep.run_sweep").extra.get("rows", 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = get(layer).self_s
    m["bench.self_s"] = get("bench").self_s
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = overhead
    return m


def summarize(per_pass: list, untraced_walls: list) -> dict:
    """Median of each per-layer metric over traced passes; untraced_walls[i] is
    the wall time of the untraced pass paired with traced pass i."""
    out = {}
    for name in per_pass[0]:
        out[name] = statistics.median(p[name] for p in per_pass)
    residual = statistics.median(p["trace.wall_s"] - p["trace.overhead_s"] - u
                                 for p, u in zip(per_pass, untraced_walls))
    out["trace.residual_share"] = abs(residual) / statistics.median(untraced_walls)
    return out
