"""Report header: the library and BLAS settings that produced this run's
bytes. The golden pins hold for one BLAS build and thread count, so a pin
that fails on another host can be read against these lines."""

import os


def pytest_report_header(config):
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
    ]
