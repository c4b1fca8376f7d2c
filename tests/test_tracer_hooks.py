"""The benchmark tracer (perfbench/spans.py) rebinds mplab names by string.

A refactor that renames or drops one of them breaks the traced benchmark
run without failing any library test; this test installs the tracer in a
fresh interpreter, runs three small experiments and one sparse solve
through it, and checks that every layer recorded its spans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import spans
from mplab import harness

work = sys.argv[1]
rec = spans.install("tracer-hooks", work)
out = {"directory": work, "formats": ["csv"]}
harness.run({"kind": "decay_probe", "model": {"L": 8, "lambda": 5.0},
             "ensemble": {"count": 2}, "output": out}, workers=1)
harness.run({"kind": "rescaling", "model": {"L": 4, "lambda": 5.0},
             "ensemble": {"count": 2}, "output": out}, workers=1)
harness.run({"kind": "composite_check", "model": {"L": 4, "lambda": 1.0},
             "params": {"instances": 1, "quadrature_points": 16},
             "output": out}, workers=1)
# composite_check solves densely, and so does green up to dim 256, so one
# sparse (SuperLU) solve at dim 300 feeds spectral.lu
from mplab import UNIFORM_HALF, Box, Configuration, OperatorSpec, assemble, green, sample
spec = OperatorSpec(box=Box(d=1, side=300), n=1)
H = assemble(spec, sample(spec.box, UNIFORM_HALF, 0))
green(H, Configuration(sites=((0,),)), Configuration(sites=((2,),)), 0.3 + 0.1j)
metrics, accounting = spans.layer_metrics([rec.dump()])
print(json.dumps({"metrics": metrics, "units": accounting["units"]}))
"""


def test_tracer_installs_and_records_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    m = result["metrics"]
    # probe units: 2 seeds; monitor units: 2 sides x 2 seeds; 1 composite
    assert result["units"] == 7
    # one template per probe spec and per monitor side, none rebuilt
    assert m["operator.template.redundant"] == 0
    # one call per composite instance evaluates both quadrature counts
    assert m["spectral.composite_check.calls"] == 1
    for name in (
        "configspace.index_of.calls",
        "disorder.sample.calls",
        "operator.template.builds",
        "operator.hamiltonian.calls",
        "spectral.eigh.calls",
        "spectral.correlator.calls",
        "spectral.lu.factorizations",
        "harness.emit_bytes",
        "diagnostics.tile_nodes",
    ):
        assert m[name] > 0, name
    for name in (
        "harness.validate_s",
        "harness.reduce_s",
        "harness.emit_s",
        "diagnostics.probe_samples.self_s",
        "diagnostics.monitor_plan.self_s",
        "diagnostics.monitor_seed_rows.self_s",
    ):
        assert m[name] > 0.0, name
