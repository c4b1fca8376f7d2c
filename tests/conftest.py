"""Report header: the library and BLAS settings that produced this run's
bytes, and what `import mplab` loads: its scipy subpackages and whether
numpy's random subpackage comes with it (mplab draws from its own streams,
so it should not). The golden pins hold for one BLAS build and thread
count, so a pin that fails on another host can be read against these
lines."""

import os
import sys


def _loaded_by_mplab() -> set:
    """Modules that importing mplab and its CLI added to sys.modules."""
    before = set(sys.modules)
    import mplab  # noqa: F401
    import mplab.cli  # noqa: F401

    return set(sys.modules) - before


def _numpy_random_state(added: set) -> str:
    if "numpy.random" in added:
        return "loaded"
    if "numpy.random" in sys.modules:
        return "loaded before mplab was imported"
    return "not loaded"


def pytest_report_header(config):
    added = _loaded_by_mplab()
    # scipy subpackages, two dotted levels
    loaded = sorted(
        {
            ".".join(name.split(".")[:2])
            for name in added
            if name == "scipy" or name.startswith("scipy.")
        }
    )
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}"
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    affinity = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return [
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}",
        f"{threads}, cpu affinity {affinity}",
        f"scipy modules loaded by import mplab: {', '.join(loaded) or 'none'}; "
        f"numpy.random {_numpy_random_state(added)}",
    ]
