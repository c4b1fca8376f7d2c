"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py CONFIG_JSON WORKERS [SPANS_JSON]

Times the set-up every `mplab` call pays (import mplab, load the config,
validate it), then `harness.run(config, workers)` up to the written
outputs, and prints one JSON line with setup_s, wall_s, cpu_s (user plus
system seconds of this process and its reaped pool workers), peak_rss_mb
(the largest resident set among them) and library versions. With
SPANS_JSON the run is traced (see spans.py) and the spans are written
there. The mplab package must be importable (run.py puts src/ on
PYTHONPATH).
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv) -> int:
    config_path, workers = argv[1], int(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None

    from mplab import harness

    config = harness.load_config(config_path)
    violations = harness.validate(config)
    setup_s = time.perf_counter() - _START
    if violations:
        print("invalid config: " + "; ".join(violations), file=sys.stderr)
        return 2

    rec = None
    if spans_path is not None:
        import spans

        worker_dir = spans_path.with_suffix(".workers")
        worker_dir.mkdir()
        rec = spans.install(spans_path.stem, worker_dir)

    cpu0 = _cpu_s()
    start = time.perf_counter()
    if rec is None:
        harness.run(config, workers=workers)
    else:
        rec.call("run", harness.run, (config,), {"workers": workers})
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux

    if rec is not None:
        dumps = [rec.dump()]
        for path in sorted(worker_dir.glob("worker-*.json")):
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dumps, fh)

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": peak_rss_mb,
                "versions": _versions(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
