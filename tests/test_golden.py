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

from mplab import harness
from mplab.harness import run

GOLDEN_SHA256 = {
    "decay_probe": "823a9f4cc99725cee940922e21df9a55da65732627461115a31f868eca8b208d",
    "rescaling": "9e4b1e0fb80fcc971c0d142c9c97a96e0cbf2f60f1f19669813f97e0de6e5cd7",
    "equivalence": "76cf6c8c611855413d891c72ca698e63651a26772947938629caaf7800a47977",
    "wegner": "3f9732b01562f5889216e84ba331dd8d850f36b81ee2e1ea4958b459410dc335",
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


# sha256 of each config's JSON mirror and of its meta.json without the
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
        "792f4086e1c6082303ab569c68db615008d634988685a9743f09c87a93ece2ff",
        "9b23208fcfcba3ca2af031bac17c1bb5012701fec793c97f076210fedf316c00",
    ),
    "equivalence": (
        "c295622454c37a30728cbc3ffaffe6a92954fb6c0b15e3089aafcb6b8af40f2a",
        "e8553ee95324d8b78dc1a746ab52e916a29cafc313118d29e52c5057ff284830",
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
        "bd4a4bc83be882698f378c6a6297f6b4c75530a21dde63c737c09563c25792b4",
        "8028606d3fa0bde9b697c808e5a8d8f5c015253b19452c82ec0fae94fd947986",
    ),
}


# one small config per kind, keyed by the kind it runs unless it names one;
# sectors and interactions vary so that every construction path (builtin
# pair_nn/onsite, boson/fermion) is pinned. The fermion probe keeps the id
# "equivalence", the name of a deleted alias of decay_probe that it ran
# under when its pins were recorded
_CONFIGS = {
    "decay_probe": {
        "model": {"L": 12, "lambda": 8.0},
        "ensemble": {"base_seed": 0, "count": 4},
    },
    "equivalence": {
        "kind": "decay_probe",
        "model": {
            "L": 8, "n": 2, "sector": "fermion", "lambda": 6.0,
            "interaction": {"builtin": "pair_nn", "coupling": 0.5, "range": 1},
        },
        "ensemble": {"base_seed": 0, "count": 3},
        "params": {"max_points": 3},
    },
    "rescaling": {
        "model": {"L": 8, "lambda": 20.0},
        "ensemble": {"base_seed": 0, "count": 4},
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


def _kind(name):
    return _CONFIGS[name].get("kind", name)


def test_every_kind_has_one_name_and_a_pin():
    records = [id(harness._KINDS[kind]) for kind in harness.KINDS]
    assert len(set(records)) == len(records)
    assert {_kind(name) for name in MIRROR_META_SHA256} == set(harness.KINDS)


def _config(name, tmp_path, formats=("csv",)):
    out = {"directory": str(tmp_path), "formats": list(formats)}
    return {"kind": name, **_CONFIGS[name], "output": out}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_csv_bytes_match_golden(tmp_path, name):
    run(_config(name, tmp_path), workers=1)
    raw = (tmp_path / f"{_kind(name)}.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256[name]


def test_composite_draws_match_golden(tmp_path):
    run(_config("composite_check", tmp_path), workers=1)
    text = (tmp_path / "composite_check.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [row[:7] for row in rows] == COMPOSITE_DRAWS
    assert rows[0][7:9] == ["gap", "gap_2x"]


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MIRROR_META_SHA256))
def test_json_mirror_and_metadata_match_golden(tmp_path, name):
    run(_config(name, tmp_path, formats=("csv", "json")), workers=1)
    kind = _kind(name)
    mirror = json.loads((tmp_path / f"{kind}.json").read_text(encoding="utf-8"))
    meta = json.loads((tmp_path / f"{kind}.meta.json").read_text(encoding="utf-8"))
    for key in ("wall_time_s", "config", "config_sha256"):
        del meta["metadata"][key]
    if kind == "composite_check":
        mirror["rows"] = [row[:7] for row in mirror["rows"]]
        del meta["metadata"]["max_gap"]
    assert (_sha256_json(mirror), _sha256_json(meta)) == MIRROR_META_SHA256[name]


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
        "5b9d58debc52601799c9b53842cdda18a630f1fa6b8a135588059d1b815a8c20",
        "8cd2b91a391f009a8550e7f9f5fbd4750960430024f83fa6a51c40eee4dbea43",
        "6fd6f6d281d845db34eb789edfd9289e9737866ba104dbef82ce1d15e09bc78c",
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
