"""Report header: the library and BLAS settings that produced this run's
bytes, and the scipy subpackages that `import mplab` loads. The golden pins
hold for one BLAS build and thread count, so a pin that fails on another
host can be read against these lines."""

import os
import sys


def _scipy_loaded_by_mplab() -> list:
    """scipy subpackages (two dotted levels) that importing mplab and its
    CLI added to sys.modules."""
    before = set(sys.modules)
    import mplab  # noqa: F401
    import mplab.cli  # noqa: F401

    return sorted(
        {
            ".".join(name.split(".")[:2])
            for name in set(sys.modules) - before
            if name == "scipy" or name.startswith("scipy.")
        }
    )


def pytest_report_header(config):
    loaded = _scipy_loaded_by_mplab()
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
        f"scipy modules loaded by import mplab: {', '.join(loaded) or 'none'}",
    ]
