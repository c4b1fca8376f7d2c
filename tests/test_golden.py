"""Golden outputs: CSV bytes of small frozen configs, pinned across versions.

The determinism tests elsewhere compare two runs of one version; these pin
the bytes themselves, so a change that moves any number shows up here. The
hashes were recorded with numpy 2.4 on OpenBLAS 0.3.31; another LAPACK
build may legitimately change the last bits of an eigendecomposition, and
with them these hashes.
"""

import csv
import hashlib
import io
import json

import pytest

from mplab.harness import run

GOLDEN_SHA256 = {
    "decay_probe": "78ce224a37f87827b9b42c6fae4eea890ab07bcb3f2e6857e383f85b5113b8b0",
    "rescaling": "9e4b1e0fb80fcc971c0d142c9c97a96e0cbf2f60f1f19669813f97e0de6e5cd7",
    "equivalence": "46aac196f85df537692ceca605560b85533391c0fe057a55b969d92a02df32b8",
    "wegner": "45b649b1e910e54239db0a2134107b783735ff2afd060e5c01a8374601c7ac2c",
    "b_monitor": "6f06348a63f6ccbb169dd856eb3f036fe145cef2b9e81800400168e8b4d45311",
    "region_scan": "7cb88df257129253875918561f88310586bdf2c23d69d55944b0bd2ad352ef4c",
    "subadditivity": "be0b666a0a8ce33cb3deff02da20de0003f3de39f73aa11b6e4044181f8769c4",
}

# composite_check gap columns are round-off sized and depend on the
# evaluation path, so only the instance draws are pinned
COMPOSITE_DRAWS = [
    ["instance", "seed_left", "seed_right", "dim_left", "dim_right", "z_re", "z_im"],
    ["0", "1698440020", "1822812075", "3", "2", "6.42867285253259", "2.625"],
    ["1", "1184611395", "1698231420", "8", "4", "0.62627757148068319", "3.875"],
    ["2", "211226549", "366881919", "3", "5", "7.012371695399656", "3.875"],
]


# sha256 of each kind's JSON mirror and of its meta.json without the
# run-specific entries (wall time, config echo and its hash); for
# composite_check the round-off gap columns and max_gap are left out too
MIRROR_META_SHA256 = {
    "b_monitor": (
        "ca0dda0785e2e8ff9d01588a1ec2b219ff0a2c788ed713244f365b2054cef735",
        "fb1a1a6f81e8e7caffc08ba0238179474647c5f68a4468a437420b9c40515716",
    ),
    "composite_check": (
        "a393c629eff620d0720ce556f3fc657f60fea5d649b19d7ed92feddaddb3df5d",
        "cc5487cd715ac6f6fc5ea86227e86f26f437ee004ce9f58cdf279cde0441c5cf",
    ),
    "decay_probe": (
        "a78b70e87c99f9afff7668a5ffd5ca972a06ec5662bf27d8fa5de9f734928ccc",
        "1e019b67159c0c5b152107aa9f6ca632454d8f47df3303f41f91a0789251fd8a",
    ),
    "equivalence": (
        "31bda2830a62e68bb9aaf9dda0f50f8e9d2ec03e5c9a59f248b5809a70e5e468",
        "8246b4c7793822ee66439ee2ce553b6c9d2a8b220673ad59c1eace6a7648479b",
    ),
    "region_scan": (
        "592c6b45ab8da428db2da64a3759cdd7fe2395efa28fd05124f5449068df41e6",
        "d64016acd3ec32382deb4618ed7a5d07c487c8c22ec599117fef9eb25fe48770",
    ),
    "rescaling": (
        "ee071c94be28d6d3f03a64f5609663aa4edda9069b58d8db7b645e62e0cee068",
        "7955ae7390df7ad3860595910d84eedc007df93d90f67268847deab4ba18b08d",
    ),
    "subadditivity": (
        "74592e366f6fac026f9e6751c2cb00e7fdf890574b66f3e851bff2206e386643",
        "1f6ad5ee9db3d30105d0c47d0d138178e4fc301f98d0f8af2e3ff2de9dc5b761",
    ),
    "wegner": (
        "236a952d5119859dd8ff1ea5f749e08675cb2f196de7d4ee8354152d3dfac8cd",
        "6bd177fed1c1962c097eee2b42dda2c89642a464f822eb9ad57d6f2d967bba57",
    ),
}


# one small config per kind; sectors and interactions vary so that every
# construction path (builtin pair_nn/onsite, boson/fermion) is pinned
_CONFIGS = {
    "decay_probe": {
        "model": {"L": 12, "lambda": 8.0},
        "ensemble": {"base_seed": 0, "count": 4},
    },
    "rescaling": {
        "model": {"L": 8, "lambda": 20.0},
        "ensemble": {"base_seed": 0, "count": 4},
    },
    "equivalence": {
        "model": {
            "L": 8, "n": 2, "sector": "fermion", "lambda": 6.0,
            "interaction": {"builtin": "pair_nn", "coupling": 0.5, "range": 1},
        },
        "ensemble": {"base_seed": 0, "count": 3},
        "params": {"max_points": 3},
    },
    "wegner": {
        "model": {
            "L": 6, "n": 2, "lambda": 4.0,
            "interaction": {"builtin": "onsite", "coupling": 0.7},
        },
        "ensemble": {"base_seed": 3, "count": 4},
        "params": {"z_count": 4, "z_im": 0.05},
    },
    "b_monitor": {
        "model": {"L": 8, "n": 2, "sector": "boson", "lambda": 10.0},
        "ensemble": {"base_seed": 0, "count": 3},
        "params": {"omega_samples": 2},
    },
    "region_scan": {
        "model": {"L": 8, "n": 2, "lambda": 10.0},
        "ensemble": {"base_seed": 0, "count": 3},
        "params": {"alphas": [0.0, 0.5]},
    },
    "composite_check": {
        "model": {"d": 1, "L": 8, "n": 1, "lambda": 1.0},
        "ensemble": {"base_seed": 0, "count": 2},
        "params": {"instances": 3, "dim_cap": 10, "quadrature_points": 16},
    },
    "subadditivity": {
        "model": {
            "d": 1, "L": 6, "n": 2, "lambda": 2.0,
            "interaction": {"builtin": "pair_nn", "coupling": 0.4, "range": 1},
        },
        "ensemble": {"base_seed": 0, "count": 1},
        "params": {"instances": 5, "dim_cap": 12},
    },
}


def _config(kind, tmp_path):
    out = {"directory": str(tmp_path), "formats": ["csv"]}
    return {"kind": kind, **_CONFIGS[kind], "output": out}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_csv_bytes_match_golden(tmp_path, kind):
    run(_config(kind, tmp_path), workers=1)
    raw = (tmp_path / f"{kind}.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256[kind]


def test_composite_draws_match_golden(tmp_path):
    run(_config("composite_check", tmp_path), workers=1)
    text = (tmp_path / "composite_check.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [row[:7] for row in rows] == COMPOSITE_DRAWS
    assert rows[0][7:9] == ["gap", "gap_2x"]


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(MIRROR_META_SHA256))
def test_json_mirror_and_metadata_match_golden(tmp_path, kind):
    out = {"directory": str(tmp_path), "formats": ["csv", "json"]}
    run({"kind": kind, **_CONFIGS[kind], "output": out}, workers=1)
    mirror = json.loads((tmp_path / f"{kind}.json").read_text(encoding="utf-8"))
    meta = json.loads((tmp_path / f"{kind}.meta.json").read_text(encoding="utf-8"))
    for key in ("wall_time_s", "config", "config_sha256"):
        del meta["metadata"][key]
    if kind == "composite_check":
        mirror["rows"] = [row[:7] for row in mirror["rows"]]
        del meta["metadata"]["max_gap"]
    assert (_sha256_json(mirror), _sha256_json(meta)) == MIRROR_META_SHA256[kind]


# configs that reach what the per-kind configs above do not: the two
# non-uniform densities (the piecewise one through wegner's conditional
# redraws), degenerate eigenvalue groups of three or more (free fermions
# on a d=2 box, whose composites have groups of up to 232 eigenvalues), and
# a monitor at dim 1024, above OpenBLAS's blocking sizes, where the tile
# products take the blocked BLAS paths, and a region_scan with every knob
# off its default; each pins the CSV, the JSON mirror and meta.json as above
_EXTRA_CONFIGS = {
    "decay_probe_truncated_gaussian": {
        "kind": "decay_probe",
        "model": {
            "L": 12, "lambda": 8.0,
            "density": {"kind": "truncated_gaussian", "params": [0.5, 1.0]},
        },
        "ensemble": {"base_seed": 0, "count": 4},
    },
    "wegner_piecewise": {
        "kind": "wegner",
        "model": {
            "L": 6, "n": 2, "lambda": 4.0,
            "interaction": {"builtin": "onsite", "coupling": 0.7},
            "density": {
                "kind": "piecewise",
                "params": [[-1.0, -0.5, 0.0, 0.5, 1.0], [0.5, 0.0, 1.0, 0.5]],
            },
        },
        "ensemble": {"base_seed": 3, "count": 4},
        "params": {"z_count": 4, "z_im": 0.05},
    },
    "subadditivity_free_fermions_2d": {
        "kind": "subadditivity",
        "model": {"d": 2, "L": 6, "n": 2, "sector": "fermion", "lambda": 0.0},
        "ensemble": {"base_seed": 0, "count": 1},
        "params": {"instances": 4, "dim_cap": 40},
    },
    "rescaling_dim1024": {
        "kind": "rescaling",
        "model": {
            "d": 1, "L": 16, "n": 2, "lambda": 15.0,
            "interaction": {"builtin": "pair_nn", "coupling": 0.2, "range": 1},
        },
        "ensemble": {"base_seed": 0, "count": 2},
    },
    # every numerics and params knob of region_scan away from its default
    "region_scan_knobs": {
        "kind": "region_scan",
        "model": {
            "L": 8, "n": 2, "lambda": 10.0, "sector": "boson",
            "interaction": {"builtin": "pair_nn", "coupling": 0.3, "range": 2},
            "density": {"kind": "truncated_gaussian", "params": [0.5, 1.0]},
        },
        "ensemble": {"base_seed": 5, "count": 3},
        "numerics": {"s": 0.4, "eta": 1e-4, "quad_points": 6},
        "params": {
            "lambdas": [6.0, 18.0], "alphas": [0.0, 0.7], "omega_samples": 1,
            "monitor_eta": 0.05, "r2_threshold": 0.8, "xi_max": 3.0,
        },
    },
}

EXTRA_SHA256 = {
    "decay_probe_truncated_gaussian": (
        "90965b1d22c62845fcf0d13cc0e8eb18258f338e465f3ef09af13bb77dda4d7d",
        "a2783414f501cc7c18924b76563b46219b665e975ee4b462fa2fbabed548b6b2",
        "78936d841196a555d53d518196ba5564b64950b838beee5a81ad6fc8c851c090",
    ),
    "wegner_piecewise": (
        "6349baa2b2af645bc137d5e6091a439eba41d2c07241d2a1756d3ad4d6f59588",
        "f346f794ed605a71395e0d3c896f243fb76f330a6996643f3e0826203f1cc03a",
        "5207b68c3f7832e4ae306719190b2b6eb14ce4f082c6afd79f4fdc6bcb98b0df",
    ),
    "subadditivity_free_fermions_2d": (
        "e35f073e06b5e83b5836c02f9870a6e24ecb5240c8bd95322d2e92ecb0d56050",
        "72e421ff2e601b77d582cc0b4dee1937b2970711cb26d80e0034191d081031d0",
        "6832ad77725d8494a932545253b2265d3205e121607e871ee279a84f974c665f",
    ),
    "rescaling_dim1024": (
        "6aba384c7836d794a218e2fa554a1109567d4dbff8c7a17df6f1fed7043bc360",
        "15968af831bd4bb0e0af0b7a2b5efcda891b0fb1332666c31a62eb68a20cd266",
        "9b18eda47d98dd934e28d160dbf1fbe1d6c240445e6bc86bb1a417e24543d45c",
    ),
    "region_scan_knobs": (
        "8120cecf07b526fe9e8d6fbfb85a4838ea7472ea2c5853a346ca187fd8d9112a",
        "21758955e32dc4c3205b0d3bcca99a3b6e8e95e3e04a57d3191951fd0ff315b5",
        "c8e4bf2174430e591ab8b0a91743da546ec10dde78c0d70efb3a9101fbb61d1c",
    ),
}


@pytest.mark.parametrize("name", sorted(EXTRA_SHA256))
def test_density_and_group_outputs_match_golden(tmp_path, name):
    config = _EXTRA_CONFIGS[name]
    out = {"directory": str(tmp_path), "formats": ["csv", "json"]}
    run({**config, "output": out}, workers=1)
    kind = config["kind"]
    raw = (tmp_path / f"{kind}.csv").read_bytes()
    mirror = json.loads((tmp_path / f"{kind}.json").read_text(encoding="utf-8"))
    meta = json.loads((tmp_path / f"{kind}.meta.json").read_text(encoding="utf-8"))
    for key in ("wall_time_s", "config", "config_sha256"):
        del meta["metadata"][key]
    hashes = (hashlib.sha256(raw).hexdigest(), _sha256_json(mirror), _sha256_json(meta))
    assert hashes == EXTRA_SHA256[name]
