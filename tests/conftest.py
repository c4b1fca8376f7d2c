"""Report header: the library and BLAS settings that produced this run's
bytes, and what `import mplab` loads: its scipy subpackages and whether
numpy's random subpackage comes with it (mplab draws from its own streams,
so it should not). The golden pins hold for one BLAS build, kernel and
thread count, so a pin that fails on another host can be read against
these lines."""

import ctypes
import os
import sys
from pathlib import Path


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


def _openblas_settings(numpy) -> list:
    """The kernel and the thread count of the OpenBLAS bundled in
    numpy.libs, each "unknown" when the library or its symbol is missing."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    path = next(libs.glob("libscipy_openblas*"), None)
    lib = ctypes.CDLL(str(path)) if path else None
    out = []
    for symbol, restype in (
        ("scipy_openblas_get_corename64_", ctypes.c_char_p),
        ("scipy_openblas_get_num_threads64_", ctypes.c_int),
    ):
        call = getattr(lib, symbol, None)
        if call is None:
            out.append("unknown")
            continue
        call.argtypes, call.restype = [], restype
        value = call()
        out.append(value.decode() if isinstance(value, bytes) else str(value))
    return out


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
        "bundled openblas kernel {}, threads {}".format(*_openblas_settings(numpy)),
        f"{threads}, cpu affinity {affinity}",
        f"scipy modules loaded by import mplab: {', '.join(loaded) or 'none'}; "
        f"numpy.random {_numpy_random_state(added)}",
    ]
