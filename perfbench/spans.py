"""Span tracing for the benchmark's traced run, from outside the program.

`install` rebinds mplab's public functions in the namespaces that call
them (module globals, class attributes, the harness runner table) with
wrappers that record one span per call: name, start, end, parent span,
process and run id, plus a few computed work counts. Nothing under src/
changes. Spans stay in memory; the run process writes them once when the
run ends, and every pool worker writes its own once when it exits (the
recorder re-arms itself in each forked worker).

`layer_metrics` turns the spans of one traced run into the per-layer
metrics listed in BENCHMARK.json. A span's self time is its duration minus
the durations of its child spans in the same process. Worker spans run
concurrently in other processes, so they are not subtracted from the pool
map that caused them; in the run process, layer self times plus the
unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import statistics
import time
from multiprocessing import util as mp_util
from pathlib import Path

# 9 n^3 flops: the textbook count for a dense symmetric eigendecomposition
# with eigenvectors (Golub & Van Loan, symmetric QR). LAPACK's
# divide-and-conquer usually needs fewer, so this is a computed work index,
# not a measured rate.
EIGH_FLOPS_PER_DIM3 = 9.0

# span name -> per-layer metric that receives its self time
SELF_METRIC = {
    "run": "trace.unattributed_s",
    "harness.validate": "harness.validate_s",
    "harness.runner": "harness.reduce_s",
    "harness.map": "harness.pool_wait_s",
    "harness.unit": "harness.unit_self_s",
    "harness.emit": "harness.emit_s",
    "configspace.index_of": "configspace.index_of.self_s",
    "disorder.sample": "disorder.sample.self_s",
    "operator.template": "operator.template.self_s",
    "operator.hamiltonian": "operator.hamiltonian.self_s",
    "spectral.eigh": "spectral.eigh.self_s",
    "spectral.correlator": "spectral.correlator.self_s",
    "spectral.composite_check": "spectral.composite_check.self_s",
    "spectral.lu": "spectral.lu.self_s",
    "diagnostics.probe_samples": "diagnostics.probe_samples.self_s",
    "diagnostics.monitor_plan": "diagnostics.monitor_plan.self_s",
    "diagnostics.monitor_seed_rows": "diagnostics.monitor_seed_rows.self_s",
}

CALL_METRIC = {
    "configspace.index_of": "configspace.index_of.calls",
    "disorder.sample": "disorder.sample.calls",
    "operator.template": "operator.template.builds",
    "operator.hamiltonian": "operator.hamiltonian.calls",
    "spectral.eigh": "spectral.eigh.calls",
    "spectral.correlator": "spectral.correlator.calls",
    "spectral.composite_check": "spectral.composite_check.calls",
    "spectral.lu": "spectral.lu.factorizations",
}

# harness functions that run one unit of work (a realization or instance)
_UNIT_FUNCTIONS = ("_probe_unit", "_monitor_unit", "_composite_unit")


class Recorder:
    """In-memory spans of one process; re-armed in each forked worker."""

    def __init__(self, run_id: str, worker_dir: Path):
        self.run_id = run_id
        self.worker_dir = Path(worker_dir)
        self._reset(parent=None)
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _reset(self, parent):
        self.pid = os.getpid()
        self.spans = []
        self.stack = [parent]
        self.count = 0
        self.nudges = 0
        self.template_specs = set()

    def _after_fork(self):
        # the open span at fork time (the pool map) parents the worker's spans
        self._reset(parent=self.stack[-1])
        mp_util.Finalize(self, self.write, exitpriority=10)

    def call(self, name, fn, args, kwargs, attrs=None):
        self.count += 1
        sid = f"{self.pid}-{self.count}"
        parent = self.stack[-1]
        self.stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            extra = attrs(self, args, result) if attrs is not None else None
            self.spans.append(
                (sid, parent, name, start, end, self.pid, self.run_id, extra)
            )

    def dump(self) -> dict:
        return {"pid": self.pid, "nudges": self.nudges, "spans": self.spans}

    def write(self):
        """A pool worker's spans, written when the worker exits."""
        with open(self.worker_dir / f"worker-{self.pid}.json", "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def _traced(rec: Recorder, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, attrs)

    return wrapper


class _NudgeCounter(logging.Handler):
    """Counts the eigenvalue-hit nudges and singular-solve retries that
    mplab.diagnostics logs as warnings."""

    def __init__(self, rec: Recorder):
        super().__init__(logging.WARNING)
        self.rec = rec

    def emit(self, record):
        self.rec.nudges += 1


class _SplaProxy:
    """scipy.sparse.linalg as mplab.spectral sees it, with splu traced."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


def _template_attrs(rec, args, result):
    spec = args[1]
    seen = spec in rec.template_specs
    rec.template_specs.add(spec)
    return {"redundant": int(seen)}


def _emit_attrs(rec, args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result or ())}


def _map_attrs(rec, args, result):
    units = len(args[1])
    workers = args[2] if args[2] is not None else (os.cpu_count() or 1)
    workers = max(1, int(workers))
    return {"workers": 1 if workers == 1 or units <= 1 else workers}


def _tile_attrs(rec, args, result):
    plan = args[0]
    nodes = len(plan.regions) * (len(plan.tile_edges) - 1) * plan.quad_points
    return {"tile_nodes": nodes}


def install(run_id: str, worker_dir) -> Recorder:
    """Rebind mplab's layer entry points to traced wrappers; returns the
    recorder. Call after `import mplab` and before `harness.run`."""
    from mplab import configspace, diagnostics, harness, operator, spectral

    rec = Recorder(run_id, worker_dir)
    t = functools.partial(_traced, rec)

    configspace.ConfigIndex.index_of = t(
        "configspace.index_of", configspace.ConfigIndex.index_of
    )
    traced_sample = t(
        "disorder.sample",
        diagnostics.sample,
        lambda r, a, res: {"sites": a[0].volume},
    )
    diagnostics.sample = harness.sample = traced_sample
    operator.OperatorTemplate.__init__ = t(
        "operator.template", operator.OperatorTemplate.__init__, _template_attrs
    )
    operator.OperatorTemplate.hamiltonian = t(
        "operator.hamiltonian", operator.OperatorTemplate.hamiltonian
    )
    traced_eigh = t(
        "spectral.eigh", spectral.spectral_data, lambda r, a, res: {"dim": a[0].dim}
    )
    diagnostics.spectral_data = harness.spectral_data = traced_eigh
    diagnostics.correlator = t("spectral.correlator", diagnostics.correlator)
    harness.composite_green_check = t(
        "spectral.composite_check", harness.composite_green_check
    )
    spectral.spla = _SplaProxy(spectral.spla, t("spectral.lu", spectral.spla.splu))
    harness.probe_samples = t("diagnostics.probe_samples", harness.probe_samples)
    harness.monitor_plan = t("diagnostics.monitor_plan", harness.monitor_plan)
    harness.monitor_seed_rows = t(
        "diagnostics.monitor_seed_rows", harness.monitor_seed_rows, _tile_attrs
    )
    harness.validate = t("harness.validate", harness.validate)
    harness.emit = t("harness.emit", harness.emit, _emit_attrs)
    harness._chunked_map = t("harness.map", harness._chunked_map, _map_attrs)
    for kind, runner in list(harness._RUNNERS.items()):
        harness._RUNNERS[kind] = t("harness.runner", runner)
    # wraps() keeps each unit's module and name, so the pool pickles the
    # wrapper by reference and forked workers resolve it to the same object
    for name in _UNIT_FUNCTIONS:
        setattr(harness, name, t("harness.unit", getattr(harness, name)))

    logging.getLogger("mplab.diagnostics").addHandler(_NudgeCounter(rec))
    return rec


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def layer_metrics(dumps) -> tuple[dict, dict]:
    """(per-layer metrics, accounting) from the dumps of one traced run.

    dumps[0] is the run process; the rest are pool workers.
    """
    spans = [s for d in dumps for s in d["spans"]]
    run_pid = dumps[0]["pid"]
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, _, start, end, pid, _, _ in spans:
        if parent is not None and by_id[parent][5] == pid:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    m = {name: 0.0 for name in SELF_METRIC.values()}
    m.update({name: 0 for name in CALL_METRIC.values()})
    run_self = 0.0
    units, map_s, busy, workers = [], 0.0, 0.0, 1
    sites = dim_max = tile_nodes = redundant = emit_bytes = 0
    flops = 0.0
    wall = 0.0
    for sid, parent, name, start, end, pid, _, attrs in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0.0)
        m[SELF_METRIC[name]] += own
        if pid == run_pid:
            run_self += own
        if name in CALL_METRIC:
            m[CALL_METRIC[name]] += 1
        attrs = attrs or {}
        if name == "run":
            wall = dur
        elif name == "harness.unit":
            units.append(dur)
            busy += dur
        elif name == "harness.map":
            map_s += dur
            workers = max(workers, attrs["workers"])
        elif name == "disorder.sample":
            sites += attrs["sites"]
        elif name == "spectral.eigh":
            dim_max = max(dim_max, attrs["dim"])
            flops += EIGH_FLOPS_PER_DIM3 * float(attrs["dim"]) ** 3
        elif name == "diagnostics.monitor_seed_rows":
            tile_nodes += attrs["tile_nodes"]
        elif name == "operator.template":
            redundant += attrs["redundant"]
        elif name == "harness.emit":
            emit_bytes += attrs["bytes"]

    units.sort()
    n_units = len(units)
    # the highest percentile with at least ten samples above it; below 20
    # units none reaches past the median, so the median stands in
    top = max(50.0, math.floor(100.0 * (n_units - 10) / n_units)) if n_units else 50.0
    m.update(
        {
            "disorder.sites": sites,
            "disorder.us_per_site": (
                1e6 * m["disorder.sample.self_s"] / sites if sites else 0.0
            ),
            "operator.template.redundant": redundant,
            "spectral.eigh.dim_max": dim_max,
            "spectral.eigh.gflop_computed": flops / 1e9,
            "diagnostics.tile_nodes": tile_nodes,
            "diagnostics.unit_p50_s": statistics.median(units) if units else 0.0,
            "diagnostics.unit_ptop_s": _percentile(units, top) if units else 0.0,
            "diagnostics.nudges": sum(d["nudges"] for d in dumps),
            "harness.emit_bytes": emit_bytes,
            "harness.map_s": map_s,
            "harness.worker_busy_s": busy,
            "harness.pool_efficiency": busy / (workers * map_s) if map_s else 0.0,
        }
    )
    accounting = {
        "traced_wall_s": wall,
        "run_process_self_s": run_self,
        "unattributed_s": m["trace.unattributed_s"],
        "worker_processes": len(dumps) - 1,
        "spans": len(spans),
        "units": n_units,
        "unit_ptop_pct": top,
    }
    return m, accounting
