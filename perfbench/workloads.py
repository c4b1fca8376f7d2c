"""The benchmark's workloads: the config each one generates from a seed, and
the checks its output table must pass.

The seed given to the benchmark becomes `ensemble.base_seed`; nothing else
in a config depends on it. The program receives only the generated config.
Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Float cells match the reference when |got - ref| <= REL_TOL * |ref|.
# The contour gaps are round-off measurements (about 1e-17), for which a
# relative tolerance means nothing; they match within ABS_TOL instead and
# are bounded by the criterion-04 oracle on every seed. Every other column
# (ints, bools, strings such as `scale` and `seeds`) must match exactly.
REL_TOL = 1e-9
ABS_TOL = {"gap": 1e-12, "gap_2x": 1e-12}

# Criterion 04: the composite contour identity holds to this gap.
CONTOUR_GAP_MAX = 1e-8

_PAIR_NN = {"builtin": "pair_nn", "coupling": 0.2, "range": 1}


def _probe_config(seed: int) -> dict:
    return {
        "kind": "decay_probe",
        "model": {
            "d": 1,
            "L": 20,
            "n": 2,
            "sector": "distinguishable",
            "lambda": 15.0,
            "interaction": _PAIR_NN,
            "density": {"kind": "truncated_gaussian", "params": [0.5, 1.0]},
        },
        "ensemble": {"base_seed": seed, "count": 24},
        "params": {"max_points": 6},
    }


def _doubling_config(seed: int) -> dict:
    return {
        "kind": "rescaling",
        "model": {"d": 1, "L": 16, "n": 2, "lambda": 15.0, "interaction": _PAIR_NN},
        "ensemble": {"base_seed": seed, "count": 4},
    }


def _contour_config(seed: int) -> dict:
    return {
        "kind": "composite_check",
        "model": {"d": 1, "L": 6, "n": 2, "lambda": 5.0, "interaction": _PAIR_NN},
        "ensemble": {"base_seed": seed},
        "params": {"instances": 2, "dim_cap": 10, "quadrature_points": 512},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # seed -> raw config dict without `output`
    workers: int
    reference: str  # basename of the seed-0 reference table
    serial_control: bool = False  # CSV must equal the workers=1 run's bytes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "probe",
            "decay_probe with a truncated-Gaussian density: the only workload "
            "where disorder sampling and the per-pair correlator loop do real "
            "work, beside eigh at dim 400",
            _probe_config,
            1,
            "probe",
        ),
        Workload(
            "probe_w2",
            "the probe inputs at 2 workers: the only workload that runs the "
            "harness process pool with BLAS threads inside the workers",
            _probe_config,
            2,
            "probe",
            serial_control=True,
        ),
        Workload(
            "doubling",
            "rescaling at sides 16 and 32: eigh at dim 1024 and the monitor "
            "tile contraction, with disorder and the correlator idle",
            _doubling_config,
            1,
            "doubling",
        ),
        Workload(
            "contour",
            "composite_check: thousands of sparse LU solves on blocks of dim "
            "at most 10 and one-shot template builds, with no dense eigh",
            _contour_config,
            1,
            "contour",
        ),
    )
}


def config_for(workload: Workload, seed: int, out_dir) -> dict:
    raw = workload.build(int(seed))
    raw["output"] = {"directory": str(out_dir), "formats": ["csv"]}
    return raw


def parse_table(csv_bytes: bytes, dtypes) -> tuple:
    """(header, rows) with cells converted by the sidecar's dtypes."""
    reader = csv.reader(io.StringIO(csv_bytes.decode("utf-8"), newline=""))
    header = next(reader)
    convert = {"int": int, "float": float, "bool": lambda t: t == "true"}
    rows = [
        [convert.get(dt, str)(cell) for cell, dt in zip(row, dtypes)]
        for row in reader
    ]
    return header, rows


def _compare_reference(header, rows, dtypes, ref_bytes: bytes) -> list:
    ref_header, ref_rows = parse_table(ref_bytes, dtypes)
    if header != ref_header:
        return [f"columns {header} differ from the reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, the reference has {len(ref_rows)}"]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, dt, got, want in zip(header, dtypes, row, ref):
            if dt == "float":
                tol = ABS_TOL.get(name, REL_TOL * abs(want))
                ok = abs(got - want) <= tol or (
                    math.isnan(got) and math.isnan(want)
                )
            else:
                ok = got == want
            if not ok:
                problems.append(f"row {r} {name}: {got!r} vs reference {want!r}")
    return problems


def check_output(workload: Workload, seed: int, csv_bytes: bytes, meta: dict) -> list:
    """Every problem found in one run's table; empty when it is correct."""
    dtypes = meta["dtypes"]
    header, rows = parse_table(csv_bytes, dtypes)
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    problems = []
    if not rows:
        problems.append("empty table")
    for name, dt in zip(header, dtypes):
        if dt == "float" and not all(math.isfinite(v) for v in col[name]):
            problems.append(f"non-finite value in column {name}")

    if workload.reference == "probe":
        # a correlator sums |<x, P_g y>| over groups, so 0 <= Q <= 1
        if not all(0.0 <= q <= 1.0 for q in col.get("EQ_mean", [])):
            problems.append("EQ_mean outside [0, 1]")
        if not all(m > 0.0 for m in col.get("moment_mean", [])):
            problems.append("moment_mean not positive")
    elif workload.reference == "doubling":
        if not all(v >= 0.0 for v in col.get("value", [])):
            problems.append("negative monitor value")
        if seed == DEFAULT_SEED:
            report = meta["metadata"]["report"]
            for key in ("satisfied", "contraction_observed"):
                if report.get(key) is not True:
                    problems.append(f"criterion 08: report.{key} is {report.get(key)}")
    elif workload.reference == "contour":
        gap = meta["metadata"].get("max_gap")
        if not isinstance(gap, float) or not gap <= CONTOUR_GAP_MAX:
            problems.append(f"criterion 04: max_gap {gap} above {CONTOUR_GAP_MAX}")

    if seed == DEFAULT_SEED:
        ref = REFERENCE_DIR / f"{workload.reference}.csv"
        problems += _compare_reference(header, rows, dtypes, ref.read_bytes())
    return problems
