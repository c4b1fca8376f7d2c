"""mplab benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload probe --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run it from anywhere inside a checkout that has src/mplab. Each repetition
is one fresh interpreter (child.py) that sets up and runs the workload's
config; repetitions continue until --seconds have passed (at least
MIN_REPS). Every repetition's table is checked (workloads.check_output);
a repetition that crashes or fails a check counts as failed.

--trace 0 reports the medians of setup_s, wall_s, cpu_s and peak_rss_mb
over the repetitions, and ok_share (1 - failed_share). --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics (medians over traced repetitions), the import profile, and the
tracing overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the program is missing.

The benchmark sets no BLAS or OpenMP thread variable and pins nothing: it
measures the program as a user runs it. README.md says what each metric
means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_REPS = 3
# wall-clock ceiling of one invocation; children still running past it are killed
RUN_BUDGET_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

IMPORT_MODULES = {
    "cli.import_s": ("mplab", "mplab.cli"),
    "configspace.import_s": ("mplab.configspace",),
    "disorder.import_s": ("mplab.disorder",),
}

PER_LAYER = {
    "cli.import_s": "s",
    "configspace.import_s": "s",
    "disorder.import_s": "s",
    "configspace.index_of.calls": "count",
    "configspace.index_of.self_s": "s",
    "disorder.sample.calls": "count",
    "disorder.sample.self_s": "s",
    "disorder.sites": "count",
    "disorder.us_per_site": "us",
    "operator.template.builds": "count",
    "operator.template.redundant": "count",
    "operator.template.self_s": "s",
    "operator.hamiltonian.calls": "count",
    "operator.hamiltonian.self_s": "s",
    "spectral.eigh.calls": "count",
    "spectral.eigh.self_s": "s",
    "spectral.eigh.dim_max": "count",
    "spectral.eigh.gflop_computed": "Gflop",
    "spectral.correlator.calls": "count",
    "spectral.correlator.self_s": "s",
    "spectral.composite_check.calls": "count",
    "spectral.composite_check.self_s": "s",
    "spectral.lu.factorizations": "count",
    "spectral.lu.self_s": "s",
    "diagnostics.probe_samples.self_s": "s",
    "diagnostics.monitor_plan.self_s": "s",
    "diagnostics.monitor_seed_rows.self_s": "s",
    "diagnostics.tile_nodes": "count",
    "diagnostics.unit_p50_s": "s",
    "diagnostics.unit_ptop_s": "s",
    "diagnostics.nudges": "count",
    "harness.validate_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "B",
    "harness.reduce_s": "s",
    "harness.unit_self_s": "s",
    "harness.map_s": "s",
    "harness.worker_busy_s": "s",
    "harness.pool_wait_s": "s",
    "harness.pool_efficiency": "share",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Budget:
    """Wall-clock limit shared by every child process of one invocation."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def _spawn(argv, env, budget: Budget):
    """Run a child in its own process group; (exit code, stdout, stderr).
    On timeout the whole group (the child and its pool) is killed."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(budget.left(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + "\ntimed out"
    return proc.returncode, out, err


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Session:
    """One workload at one seed: its config file, output directory and the
    repetitions made so far."""

    def __init__(self, workload, seed: int, work: Path, budget: Budget):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.budget = budget
        self.env = _child_env()
        self.out_dir = work / "out"
        self.config_path = work / "config.json"
        raw = workloads.config_for(workload, seed, self.out_dir)
        self.kind = raw["kind"]
        self.config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.workers = min(workload.workers, len(os.sched_getaffinity(0)))
        self.attempted = 0
        self.failed = 0
        self.first_csv = None
        self.control_csv = None
        self.versions = None

    def rep(self, workers: int, spans_path: Path = None):
        """One checked repetition; the child's measurements, or None."""
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [sys.executable, str(HERE / "child.py"), str(self.config_path), str(workers)]
        if spans_path is not None:
            argv.append(str(spans_path))
        code, out, err = _spawn(argv, self.env, self.budget)
        if code != 0:
            return self._fail(f"child exited with {code}: {err.strip()[-2000:]}")
        try:
            result = json.loads(out.strip().splitlines()[-1])
            csv_bytes = (self.out_dir / f"{self.kind}.csv").read_bytes()
            with open(self.out_dir / f"{self.kind}.meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            problems = workloads.check_output(self.workload, self.seed, csv_bytes, meta)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
            return self._fail(f"unreadable output: {err!r}")
        if self.control_csv is not None and csv_bytes != self.control_csv:
            problems.append("CSV bytes differ from the workers=1 run (criterion 09)")
        if self.first_csv is not None and csv_bytes != self.first_csv:
            problems.append("CSV bytes differ from this run's first repetition")
        if problems:
            return self._fail("; ".join(problems[:10]))
        if self.first_csv is None:
            self.first_csv = csv_bytes
        self.versions = result["versions"]
        return result

    def _fail(self, message: str):
        self.failed += 1
        print(f"FAILED {self.workload.name} seed {self.seed}: {message}", file=sys.stderr)
        return None

    def serial_control(self):
        if self.workload.serial_control and self.rep(1) is not None:
            self.control_csv, self.first_csv = self.first_csv, None

    def warm_up(self):
        """Import once untimed, so byte-compiling a fresh checkout's sources
        does not land in the first repetition's setup time."""
        _spawn([sys.executable, "-c", "import mplab"], self.env, self.budget)

    def more(self, reps: int, start: float, seconds: float, last_s: float) -> bool:
        if self.budget.left() < 2.0 * last_s + 5.0:
            return False
        return reps < MIN_REPS or time.monotonic() - start < seconds


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics: medians over untraced repetitions."""
    session.warm_up()
    session.serial_control()
    samples = {name: [] for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    start, last_s, reps = time.monotonic(), 0.0, 0
    while session.more(reps, start, seconds, last_s):
        t0 = time.monotonic()
        result = session.rep(session.workers)
        last_s, reps = time.monotonic() - t0, reps + 1
        if result is not None:
            for name, values in samples.items():
                values.append(result[name])
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["ok_share"] = 1.0 - session.failed / max(session.attempted, 1)
    metrics["_reps"] = len(samples["wall_s"])
    metrics["_samples"] = samples
    return metrics


def import_profile(env, budget: Budget) -> dict:
    """Cumulative import seconds from `python -X importtime`."""
    code, _, err = _spawn(
        [sys.executable, "-X", "importtime", "-c", "import mplab, mplab.cli"],
        env,
        budget,
    )
    if code != 0:
        raise RuntimeError(f"import profile failed: {err.strip()[-2000:]}")
    cumulative = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if cum.strip().isdigit():
            cumulative[name.strip()] = int(cum) * 1e-6
    return {
        metric: sum(cumulative.get(mod, 0.0) for mod in modules)
        for metric, modules in IMPORT_MODULES.items()
    }


def trace(session: Session, seconds: float) -> dict:
    """Per-layer metrics: medians over traced repetitions, each paired with
    an untraced one (the pair's order alternates) to measure the tracing
    overhead."""
    session.warm_up()
    session.serial_control()
    imports = [import_profile(session.env, session.budget) for _ in range(3)]
    untraced, traced, accounting = [], [], None
    start, last_s, reps = time.monotonic(), 0.0, 0
    while session.more(reps, start, seconds, last_s):
        t0 = time.monotonic()
        spans_path = session.work / f"{session.workload.name}-{session.seed}-{reps}.json"
        if reps % 2:
            result = session.rep(session.workers, spans_path)
            plain = session.rep(session.workers)
        else:
            plain = session.rep(session.workers)
            result = session.rep(session.workers, spans_path)
        last_s, reps = (time.monotonic() - t0) / 2.0, reps + 1
        if plain is not None:
            untraced.append(plain["wall_s"])
        if result is not None:
            with open(spans_path, encoding="utf-8") as fh:
                layers, accounting = spans.layer_metrics(json.load(fh))
            layers["trace.wall_s"] = accounting["traced_wall_s"]
            traced.append(layers)
    metrics = {
        name: _median([imp[name] for imp in imports]) for name in IMPORT_MODULES
    }
    metrics["trace.untraced_wall_s"] = _median(untraced)
    for name in PER_LAYER:
        if name not in metrics and name != "trace.overhead_s":
            metrics[name] = _median([layers[name] for layers in traced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["_accounting"] = accounting
    metrics["_reps"] = len(traced)
    return metrics


def environment(session: Session) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        **(session.versions or {}),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "workers": session.workers,
        "commit": commit,
    }


def _report(session: Session, metrics: dict, units: dict, traced: bool) -> dict:
    wl = session.workload
    print(
        f"workload {wl.name} seed {session.seed}: {metrics['_reps']} "
        f"{'traced ' if traced else ''}repetitions, {session.attempted} runs "
        f"attempted, {session.failed} failed"
    )
    print(f"  why: {wl.why}")
    samples = metrics.get("_samples", {})
    for name, unit in units.items():
        spread = ""
        if samples.get(name):
            values = sorted(samples[name])
            spread = f"   (median of {len(values)}; min {values[0]:.6g}, max {values[-1]:.6g})"
        print(f"  {name:38s} {metrics[name]:.6g} {unit}{spread}")
    if traced:
        acc = metrics["_accounting"]
        if acc is not None:
            layer_s = acc["run_process_self_s"] - acc["unattributed_s"]
            print(
                f"  accounting (last traced repetition): layer self times in the "
                f"run process {layer_s:.6f} s + unattributed "
                f"{acc['unattributed_s']:.6f} s = {acc['run_process_self_s']:.6f} s; "
                f"traced wall {acc['traced_wall_s']:.6f} s; "
                f"{acc['worker_processes']} pool worker(s) traced, {acc['spans']} spans"
            )
            print(
                f"  unit durations: {acc['units']} units; diagnostics.unit_ptop_s is "
                f"their p{acc['unit_ptop_pct']:g}, the highest percentile with ten "
                f"units above it (the median when there are fewer than 20)"
            )
    else:
        print(f"  {'failed_share':38s} {1.0 - metrics['ok_share']:.6g} share")
    print("  env " + json.dumps(environment(session), sort_keys=True))
    # a metric without a single good repetition has no value (null)
    return {
        name: {"value": None if math.isnan(metrics[name]) else metrics[name], "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "mplab" / "__init__.py").is_file():
        print(f"error: no mplab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        if args.workload is None:
            parser.error("--workload is required")
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
                session = Session(
                    workloads.WORKLOADS[name], args.seed, Path(tmp), Budget(RUN_BUDGET_S)
                )
                if args.trace:
                    metrics = trace(session, args.seconds)
                    reported = _report(session, metrics, PER_LAYER, traced=True)
                else:
                    metrics = measure(session, args.seconds)
                    reported = _report(session, metrics, END_TO_END, traced=False)
            prefix = "" if len(names) == 1 else f"{name}."
            result["metrics"].update({prefix + k: v for k, v in reported.items()})
            result["attempted"] += session.attempted
            result["failed"] += session.failed
            result["correct"] = result["correct"] and session.failed == 0
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
