"""The benchmark's own correctness check, run at seed 0 in the test suite.

perfbench/run.py rejects a repetition whose table fails
`workloads.check_output` (the criterion checks and the seed-0 reference
tables in perfbench/reference). These tests run the same configs and the
same check serially, so a change that breaks a workload's output fails
here before it reaches the benchmark.

Like the golden pins, the reference tables were recorded under two
OpenBLAS threads: under OPENBLAS_NUM_THREADS=1 the eigen-sum round-off
moves printed digits, and the probe and doubling tests fail there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mplab import harness

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", ["probe", "doubling", "contour"])
def test_workload_output_passes_the_benchmark_check(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    config = workloads.config_for(workload, seed, tmp_path)
    harness.run(config, workers=1)
    kind = config["kind"]
    csv_bytes = (tmp_path / f"{kind}.csv").read_bytes()
    meta = json.loads((tmp_path / f"{kind}.meta.json").read_text(encoding="utf-8"))
    assert workloads.check_output(workload, seed, csv_bytes, meta) == []
