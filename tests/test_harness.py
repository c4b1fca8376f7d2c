"""Config validation, deterministic execution, persistence, CLI exit codes."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mplab import cli, diagnostics, harness
from mplab.disorder import DensitySpec
from mplab.errors import BudgetError
from mplab.operator import INTERACTION_FIELDS, InteractionSpec
from mplab.harness import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit,
    run,
    validate,
)

ROOT = Path(__file__).resolve().parents[1]


def probe_config(tmp, **model):
    base = {"L": 12, "lambda": 8.0}
    base.update(model)
    return {
        "kind": "decay_probe",
        "model": base,
        "ensemble": {"base_seed": 0, "count": 4},
        "output": {"directory": str(tmp)},
    }


# ------------------------------------------------------------------ validate


def test_valid_config_passes(tmp_path):
    assert validate(probe_config(tmp_path)) == []


def test_s_out_of_range(tmp_path):
    cfg = probe_config(tmp_path)
    cfg["numerics"] = {"s": 1.5}
    (violation,) = validate(cfg)
    assert "s must lie in (0,1)" in violation


def test_zero_side_box(tmp_path):
    cfg = probe_config(tmp_path, L=0)
    assert any("model.L" in v for v in validate(cfg))


def test_interaction_range_must_fit(tmp_path):
    cfg = probe_config(
        tmp_path, interaction={"builtin": "pair_nn", "coupling": 0.5, "range": 12}
    )
    assert any("range" in v for v in validate(cfg))


def test_dense_diag_budget_flagged(tmp_path):
    cfg = probe_config(tmp_path, d=2, L=10, n=3)
    violations = validate(cfg)
    assert violations and all(v.startswith("budget:") for v in violations)
    assert "1000000" in violations[0] and "20000" in violations[0]


def test_unknown_fields_reported(tmp_path):
    cfg = probe_config(tmp_path)
    cfg["model"]["volume"] = 3
    cfg["simulation"] = {}
    msgs = validate(cfg)
    assert any("volume" in v for v in msgs)
    assert any("simulation" in v for v in msgs)


@pytest.mark.parametrize(
    "inter, field",
    [
        # an old-style coupling vector once ran silently with coupling 0
        ({"builtin": "pair_nn", "alpha": [0.0, 0.5]}, "alpha"),
        ({"builtin": "pair_nn", "coupling": 0.3, "rnage": 2}, "rnage"),
    ],
)
def test_unknown_interaction_fields_reported(tmp_path, inter, field):
    msgs = validate(probe_config(tmp_path, interaction=inter))
    assert msgs == [f"unknown model.interaction field {field!r}"]
    with pytest.raises(ConfigError):
        run(probe_config(tmp_path, interaction=inter), workers=1)


def test_interaction_to_dict_is_a_config_interaction(tmp_path):
    for inter in (
        InteractionSpec.none(),
        InteractionSpec.pair_nn(0.3, range=2),
        InteractionSpec.onsite(0.7),
    ):
        cfg = probe_config(tmp_path, interaction=inter.to_dict())
        assert validate(cfg) == []
        assert ExperimentConfig.from_dict(cfg).interaction_spec() == inter


def test_unknown_kind(tmp_path):
    cfg = probe_config(tmp_path)
    cfg["kind"] = "spectral_gap"
    assert any("kind" in v for v in validate(cfg))


def test_wegner_needs_disorder(tmp_path):
    cfg = probe_config(tmp_path, L=4)
    cfg["kind"] = "wegner"
    cfg["model"]["lambda"] = 0.0
    assert any("lambda" in v for v in validate(cfg))


def test_monitor_needs_side_multiple_of_four(tmp_path):
    cfg = probe_config(tmp_path, L=10)
    cfg["kind"] = "b_monitor"
    assert any("divisible by 4" in v for v in validate(cfg))


def test_pair_particle_count_checked(tmp_path):
    cfg = probe_config(tmp_path, n=2)
    cfg["params"] = {"pairs": [[[[0]], [[3]]]]}  # single-particle configs
    assert any("particles" in v for v in validate(cfg))


def _cfg(kind, model=None, ensemble=None, params=None, **sections):
    raw = {
        "kind": kind,
        "model": {"L": 8, "lambda": 4.0, **(model or {})},
        "ensemble": {"base_seed": 0, "count": 2, **(ensemble or {})},
        "output": {"directory": "out"},
    }
    if params is not None:
        raw["params"] = params
    raw.update(sections)
    return raw


# Site coordinates must be JSON integers, and a configuration is a list of
# sites, in the model's sector. Without these rules each config below
# validates and then runs on truncated coordinates or crashes, or it makes
# validate raise.
_SITE_CORPUS = [
    pytest.param(
        _cfg(
            "decay_probe", {"L": 12, "lambda": 8.0},
            params={"pairs": [[[[-2.9]], [[1]]], [[[0]], [[2]]], [[[0]], [[4]]]]},
        ),
        [
            'params.pairs: site coordinates must be integers, got [-2.9]',
        ],
        id="pair_site_float",
    ),
    pytest.param(
        _cfg("decay_probe", params={"pairs": [[[[True]], [[3]]]]}),
        [
            'params.pairs: site coordinates must be integers, got [True]',
        ],
        id="pair_site_bool",
    ),
    pytest.param(
        _cfg("decay_probe", params={"pairs": [[[["2"]], [[0]]]]}),
        [
            "params.pairs: site coordinates must be integers, got ['2']",
        ],
        id="pair_site_string",
    ),
    pytest.param(
        _cfg("decay_probe", params={"pairs": [[[[math.inf]], [[0]]]]}),
        [
            'params.pairs: cannot convert float infinity to integer',
        ],
        id="pair_site_infinite",
    ),
    pytest.param(
        _cfg("wegner", params={"x": [[math.inf]]}),
        [
            'params: cannot convert float infinity to integer',
        ],
        id="wegner_x_infinite",
    ),
    pytest.param(
        _cfg("wegner", params={"u1": [math.inf]}),
        [
            'params: cannot convert float infinity to integer',
        ],
        id="wegner_u1_infinite",
    ),
    pytest.param(
        _cfg("wegner", params={"z_count": math.inf}),
        [
            'params.z_count must be a positive integer, got inf',
        ],
        id="wegner_z_count_infinite",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            params={"pairs": [[{"sites": [[-4]], "sector": "boson"}, [[0]]]]},
        ),
        [
            "params.pairs: a configuration is a list of sites, got "
            "{'sites': [[-4]], 'sector': 'boson'}",
        ],
        id="pair_sector",
    ),
]

# Exact validate output, in order: every check of the section block and of
# each kind's params check, plus one runnable config per kind. A set-valued
# check (unknown fields) gets one unknown key per config so its order is fixed.
_VALIDATE_CORPUS = [
    # one runnable config per kind
    pytest.param(
        _cfg("decay_probe", {"L": 12, "lambda": 8.0}),
        [],
        id="valid_decay_probe",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            {"n": 2, "sector": "fermion", "interaction": {"builtin": "pair_nn", "coupling": 0.5}},
            params={"max_points": 3},
        ),
        [],
        id="valid_decay_probe_fermion",
    ),
    pytest.param(
        _cfg(
            "wegner", {"L": 6, "d": 2, "interaction": {"builtin": "onsite", "coupling": 0.7}},
            {"count": 3}, {"z_grid": [[2.0, 0.0], [2.5, 0.01]]},
        ),
        [],
        id="valid_wegner",
    ),
    pytest.param(
        _cfg("b_monitor", {"n": 2, "sector": "boson"}, params={"omega_samples": 1}),
        [],
        id="valid_b_monitor",
    ),
    pytest.param(
        _cfg("rescaling", {"L": 4}, params={"a": 2.0, "A": 0.5}),
        [],
        id="valid_rescaling",
    ),
    pytest.param(
        _cfg("region_scan", {"n": 1}, params={"lambdas": [15.0], "alphas": [0.0, 0.2]}),
        [],
        id="valid_region_scan",
    ),
    pytest.param(
        _cfg(
            "composite_check", {"L": 4, "n": 2}, {"count": 1},
            {"instances": 1, "dim_cap": 8, "quadrature_points": 8},
        ),
        [],
        id="valid_composite_check",
    ),
    pytest.param(
        _cfg("subadditivity", {"L": 4, "n": 2}, {"count": 1}, {"dim_cap": 8}),
        [],
        id="valid_subadditivity",
    ),
    # section block
    pytest.param(
        _cfg("spectral"),
        [
            "kind must be one of decay_probe, wegner, b_monitor, rescaling, region_scan, composite_check, subadditivity, got 'spectral'",
        ],
        id="bad_kind",
    ),
    # each config input has one spelling: the probe is decay_probe, a
    # configuration a list of sites, a z_grid entry a [re, im] pair
    pytest.param(
        _cfg("equivalence"),
        [
            "kind must be one of decay_probe, wegner, b_monitor, rescaling, region_scan, composite_check, subadditivity, got 'equivalence'",
        ],
        id="kind_equivalence",
    ),
    pytest.param(
        _cfg("wegner", params={"x": {"sites": [[0]]}}),
        [
            "params: a configuration is a list of sites, got {'sites': [[0]]}",
        ],
        id="wegner_x_sites_object",
    ),
    pytest.param(
        _cfg("wegner", params={"z_grid": [[2.5, 0.01], 2.0]}),
        [
            "params.z_grid entries must be [re, im] pairs of finite numbers, "
            "got [[2.5, 0.01], 2.0]",
        ],
        id="z_grid_bare_number",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            {"d": 4, "L": 0, "n": 0, "sector": "anyons", "lambda": -1.0, "norm": "l2",
             "colour": "red", "interaction": "strong"},
            mystery=1,
        ),
        [
            "unknown config section 'mystery'",
            "unknown model field 'colour'",
            'model.d must be an integer in [1, 3], got 4',
            'model.L must be a positive integer, got 0',
            'model.n must be a positive integer, got 0',
            "model.sector must be one of ('distinguishable', 'boson', 'fermion', 'hardcore'), got 'anyons'",
            'model.lambda must be a finite number >= 0, got -1.0',
            "model.norm must be 'l1' or 'linf', got 'l2'",
            'model.interaction must be an object',
        ],
        id="model_fields",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            {"interaction": {"builtin": "cubic", "coupling": "x", "range": 0, "alpha": 1}},
        ),
        [
            "unknown model.interaction field 'alpha'",
            "model.interaction.builtin must be one of ('none', 'pair_nn', 'onsite'), got 'cubic'",
            "model.interaction.coupling must be a finite number, got 'x'",
            'model.interaction.range must be a positive integer, got 0',
        ],
        id="interaction_fields",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            {"density": {"kind": "uniform", "params": [1.0, -1.0]}},
            {"base_seed": -1, "count": 1, "size": 3},
        ),
        [
            'model.density: uniform needs a < b, got (1.0, -1.0)',
            "unknown ensemble field 'size'",
            'ensemble.base_seed must be a nonnegative integer, got -1',
            'ensemble.count must be an integer >= 2 for kind decay_probe, got 1',
        ],
        id="density_and_ensemble",
    ),
    pytest.param(
        _cfg("composite_check", {"L": 4}, {"count": 0}),
        [
            'ensemble.count must be an integer >= 1 for kind composite_check, got 0',
        ],
        id="block_kind_count",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            numerics={"s": 1.0, "eta": -1, "quad_points": 0, "tol": 1e-8},
        ),
        [
            "unknown numerics field 'tol'",
            'numerics.s must lie in (0,1), got 1.0',
            'numerics.eta must be null or positive, got -1',
            'numerics.quad_points must be null or a positive integer, got 0',
        ],
        id="numerics_fields",
    ),
    pytest.param(
        _cfg(
            "decay_probe", output={"directory": "", "formats": ["xml"], "compress": True}
        ),
        [
            "unknown output field 'compress'",
            "output.directory must be a nonempty string, got ''",
            "output.formats must be a nonempty subset of [csv, json], got ['xml']",
        ],
        id="output_fields",
    ),
    pytest.param(
        _cfg(
            "decay_probe", {"interaction": {"builtin": "pair_nn", "coupling": 0.5, "range": 8}}
        ),
        [
            'model: interaction range 8 >= box side 8; patterns would wrap the whole box',
        ],
        id="model_spec_error",
    ),
    # decay_probe params
    pytest.param(
        _cfg(
            "decay_probe", params={"max_points": 2, "interval": [0.0, 0.5], "colour": 1}
        ),
        [
            "unknown params field 'colour' for kind decay_probe",
            'params.max_points must be an integer >= 3, got 2',
            'params.interval must have length >= 1, got 0.5',
        ],
        id="probe_params",
    ),
    pytest.param(
        _cfg(
            "decay_probe", params={"pairs": [[[[0]], [[0], [1]]]], "interval": "wide"}
        ),
        [
            'params.pairs: configuration has 2 particles, model has 1',
            "params.interval must be null or [lo, hi], got 'wide'",
        ],
        id="probe_pairs_and_interval",
    ),
    # a length that overflows to inf once passed "length >= 1"
    pytest.param(
        _cfg("decay_probe", params={"interval": [-1e308, 1e308]}),
        [
            'params.interval must have a finite length, got inf',
        ],
        id="probe_interval_length_overflows",
    ),
    pytest.param(
        _cfg("decay_probe", {"L": 40, "n": 3}),
        [
            'budget: configuration space dimension 64000 at box side 40 exceeds the dense-diagonalization cap 20000',
        ],
        id="probe_budget",
    ),
    # wegner params
    pytest.param(
        _cfg(
            "wegner", {"lambda": 0.0}, params={"z_count": 0, "z_im": "x"}
        ),
        [
            'model.lambda: the conditional check needs lambda != 0',
            'params.z_count must be a positive integer, got 0',
            "params.z_im must be a finite number, got 'x'",
        ],
        id="wegner_grid_knobs",
    ),
    pytest.param(
        _cfg("wegner", params={"x": [[0], [1]]}),
        [
            'params: configuration has 2 particles, model has 1',
        ],
        id="wegner_bad_x",
    ),
    pytest.param(
        _cfg("wegner", params={"z_count": -1, "x": [[0], [1]]}),
        [
            'params.z_count must be a positive integer, got -1',
            'params: configuration has 2 particles, model has 1',
        ],
        id="wegner_z_count_before_x",
    ),
    pytest.param(
        _cfg(
            "wegner", params={"u1": [3], "u2": [2], "z_grid": []}
        ),
        [
            'params.z_grid must not be empty',
            'params.u1: x has no particle at (3,)',
            'params.u2: y has no particle at (2,)',
        ],
        id="wegner_marks_and_empty_grid",
    ),
    # the default x is a block of n consecutive sites along the first axis
    pytest.param(
        _cfg("wegner", {"L": 2, "n": 3, "sector": "boson"}, params={"z_count": 1}),
        [
            'params: box side 2 too small for the default x, a block of 3 sites',
        ],
        id="wegner_default_x_outside_box",
    ),
    pytest.param(
        _cfg("wegner", ensemble={"count": 1}),
        [
            'ensemble.count must be an integer >= 2 for kind wegner, got 1',
        ],
        id="wegner_count_one",
    ),
    # a JSON integer past the float range is not a finite number; one of
    # more than 20 digits is spelled ~10^k, since str() refuses 4300
    pytest.param(
        _cfg("decay_probe", {"lambda": 10**400}),
        [
            'model.lambda must be a finite number >= 0, got ~10^400',
        ],
        id="lambda_past_float_range",
    ),
    pytest.param(
        _cfg("decay_probe", {"interaction": {"builtin": "pair_nn", "coupling": 10**400}}),
        [
            'model.interaction.coupling must be a finite number, got ~10^400',
        ],
        id="coupling_past_float_range",
    ),
    pytest.param(
        _cfg("decay_probe", numerics={"eta": 10**400}),
        [
            'numerics.eta must be null or positive, got ~10^400',
        ],
        id="eta_past_float_range",
    ),
    pytest.param(
        _cfg("wegner", params={"z_grid": [0.5, 10**400]}),
        [
            'params.z_grid entries must be [re, im] pairs of finite numbers, '
            'got [0.5, ~10^400]',
        ],
        id="z_grid_entry_past_float_range",
    ),
    pytest.param(
        _cfg("wegner", {"lambda": 10**5000}, params={"z_grid": [[0.5, -10**5000]]}),
        [
            'model.lambda must be a finite number >= 0, got ~10^5000',
        ],
        id="lambda_of_5000_digits",
    ),
    pytest.param(
        _cfg("wegner", params={"z_grid": [[0.5, -10**5000]]}),
        [
            'params.z_grid entries must be [re, im] pairs of finite numbers, '
            'got [[0.5, -~10^5000]]',
        ],
        id="z_grid_pair_of_5000_digits",
    ),
    pytest.param(
        _cfg("decay_probe", params={"interval": {"lo": -10**5000}}),
        [
            "params.interval must be null or [lo, hi], got {'lo': -~10^5000}",
        ],
        id="interval_object_of_5000_digits",
    ),
    pytest.param(
        _cfg("wegner", {"L": 40, "n": 3}, params={"z_grid": [[0.5, 0.0]]}),
        [
            'budget: configuration space dimension 64000 at box side 40 exceeds the dense-diagonalization cap 20000',
        ],
        id="wegner_budget",
    ),
    # a node grid held against the dimension may hold no more entries than
    # a dense matrix at the cap: these validated and then crashed the run
    pytest.param(
        _cfg("decay_probe", numerics={"quad_points": 10**30}),
        [
            'budget: numerics.quad_points ~10^30 times dimension 8 exceeds 20000^2 '
            'entries, the largest dense matrix under the dense-diagonalization cap',
        ],
        id="probe_quad_points_of_31_digits",
    ),
    pytest.param(
        _cfg("b_monitor", numerics={"quad_points": 50_000_001}),
        [
            'budget: numerics.quad_points 50000001 times dimension 8 exceeds 20000^2 '
            'entries, the largest dense matrix under the dense-diagonalization cap',
        ],
        id="monitor_quad_points_one_past_the_budget",
    ),
    pytest.param(
        _cfg("wegner", {"L": 4}, params={"z_count": 10**30}),
        [
            'budget: params.z_count ~10^30 times dimension 4 exceeds 20000^2 '
            'entries, the largest dense matrix under the dense-diagonalization cap',
        ],
        id="wegner_z_count_of_31_digits",
    ),
    pytest.param(
        _cfg("composite_check", params={"quadrature_points": 10**30}),
        [
            'budget: params.quadrature_points ~10^30 times dimension 10 exceeds '
            '20000^2 entries, the largest dense matrix under the '
            'dense-diagonalization cap',
        ],
        id="composite_quadrature_points_of_31_digits",
    ),
    # a run builds one unit per seed, block-pair instance or region sample:
    # these validated and then hung or allocated without end
    pytest.param(
        _cfg("composite_check", params={"instances": 10**30}),
        ['budget: params.instances ~10^30 exceeds the unit cap 100000'],
        id="composite_instances_of_31_digits",
    ),
    pytest.param(
        _cfg("b_monitor", params={"omega_samples": 10**30}),
        ['budget: params.omega_samples ~10^30 exceeds the unit cap 100000'],
        id="monitor_omega_samples_of_31_digits",
    ),
    pytest.param(
        _cfg("decay_probe", ensemble={"count": 2**63}),
        ['budget: ensemble.count 9223372036854775808 exceeds the unit cap 100000'],
        id="probe_count_of_2_to_the_63",
    ),
    pytest.param(
        _cfg("decay_probe", ensemble={"count": 100_000}), [], id="probe_count_at_the_cap"
    ),
    pytest.param(
        _cfg("region_scan", params={"omega_samples": 100_001}),
        ['budget: params.omega_samples 100001 exceeds the unit cap 100000'],
        id="scan_omega_samples_one_past_the_cap",
    ),
    # site coordinates lie in int64, the range the stream keys pack, and
    # every other integer of 5000 digits is spelled ~10^k in its message
    pytest.param(
        _cfg("wegner", params={"u1": [10**5000]}),
        [
            'params: site coordinates must lie in [-2^63, 2^63), got [~10^5000]',
        ],
        id="wegner_u1_of_5000_digits",
    ),
    pytest.param(
        _cfg("wegner", params={"u2": [10**5000]}),
        [
            'params: site coordinates must lie in [-2^63, 2^63), got [~10^5000]',
        ],
        id="wegner_u2_of_5000_digits",
    ),
    pytest.param(
        _cfg("wegner", params={"x": [[-(10**5000)]]}),
        [
            'params: site coordinates must lie in [-2^63, 2^63), got [-~10^5000]',
        ],
        id="wegner_x_of_5000_digits",
    ),
    pytest.param(
        _cfg("decay_probe", {"L": 12, "lambda": 8.0},
             params={"pairs": [[[[10**5000]], [[0]]]]}),
        [
            'params.pairs: site coordinates must lie in [-2^63, 2^63), got [~10^5000]',
        ],
        id="pair_site_of_5000_digits",
    ),
    pytest.param(
        _cfg("decay_probe", {"L": 12, "lambda": 8.0},
             params={"pairs": [[[[2**63]], [[0]]], [[[0]], [[2]]], [[[0]], [[4]]]]}),
        [
            'params.pairs: site coordinates must lie in [-2^63, 2^63), got '
            '[9223372036854775808]',
        ],
        id="pair_site_past_int64",
    ),
    pytest.param(
        _cfg(
            "decay_probe",
            {"interaction": {"builtin": "pair_nn", "coupling": 0.5, "range": 10**5000}},
        ),
        [
            'model: interaction range ~10^5000 >= box side 8; patterns would wrap the whole box',
        ],
        id="interaction_range_of_5000_digits",
    ),
    pytest.param(
        _cfg("decay_probe", {"n": 10**5000, "sector": "fermion"}),
        [
            'model: cannot place ~10^5000 mutually excluding particles on 8 sites',
        ],
        id="fermion_n_of_5000_digits",
    ),
    pytest.param(
        _cfg("decay_probe", {"L": 10**5000}),
        [
            'budget: configuration space dimension ~10^5000 at box side ~10^5000 exceeds the dense-diagonalization cap 20000',
        ],
        id="side_of_5000_digits",
    ),
    pytest.param(
        _cfg("rescaling", {"L": 4 * 10**5000, "n": 2, "sector": "boson"}),
        [
            'budget: configuration space dimension ~10^10001 at box side ~10^5000 exceeds the dense-diagonalization cap 20000',
        ],
        id="boson_side_of_5000_digits",
    ),
    pytest.param(
        _cfg("b_monitor", {"n": 10**8}),
        [
            'budget: configuration space dimension ~10^90308998 at box side 8 exceeds the dense-diagonalization cap 20000',
        ],
        id="dimension_of_90_million_digits",
    ),
    # the seeds base_seed .. base_seed + count - 1 are Philox keys of 64 bits
    pytest.param(
        _cfg("decay_probe", {"L": 12, "lambda": 8.0}, {"base_seed": 2**64, "count": 2}),
        [
            'ensemble.base_seed + ensemble.count - 1, the last seed, must be below '
            '2^64, got 18446744073709551617',
        ],
        id="base_seed_past_64_bits",
    ),
    pytest.param(
        _cfg("decay_probe", {"L": 12, "lambda": 8.0}, {"base_seed": 2**64 - 2, "count": 3}),
        [
            'ensemble.base_seed + ensemble.count - 1, the last seed, must be below '
            '2^64, got 18446744073709551616',
        ],
        id="last_seed_past_64_bits",
    ),
    pytest.param(
        _cfg("composite_check", {"L": 4}, {"base_seed": 10**5000, "count": 1}),
        [
            'ensemble.base_seed + ensemble.count - 1, the last seed, must be below '
            '2^64, got ~10^5000',
        ],
        id="base_seed_of_5000_digits",
    ),
    # monitor kinds
    pytest.param(
        _cfg("b_monitor", {"L": 6}, params={"omega_samples": -1}),
        [
            'params.omega_samples must be a nonnegative integer, got -1',
            'model.L: monitor boxes need a side divisible by 4, got 6',
        ],
        id="b_monitor_side_and_omega",
    ),
    pytest.param(
        _cfg("b_monitor", {"L": 4, "n": 2, "sector": "fermion"}),
        [
            'model.L: side 4 leaves no cluster of 2 distinct particles with diameter under 1.0',
        ],
        id="b_monitor_distinct_sites",
    ),
    pytest.param(
        _cfg("b_monitor", {"L": 4 * 10**5000 + 2}),
        [
            'model.L: monitor boxes need a side divisible by 4, got ~10^5000',
            'budget: configuration space dimension ~10^5000 at box side ~10^5000 exceeds the dense-diagonalization cap 20000',
        ],
        id="b_monitor_side_of_5000_digits",
    ),
    pytest.param(
        _cfg("b_monitor", {"L": 4 * 10**5000, "n": 10**5000 + 2, "sector": "fermion"}),
        [
            'model.L: side ~10^5000 leaves no cluster of ~10^5000 distinct particles '
            'with diameter under ~10^5000',
            'budget: configuration space dimension ~10^inf at box side ~10^5000 exceeds the dense-diagonalization cap 20000',
        ],
        id="b_monitor_fermions_of_5000_digits",
    ),
    pytest.param(
        _cfg("b_monitor", {"L": 40, "n": 3}),
        [
            'budget: configuration space dimension 64000 at box side 40 exceeds the dense-diagonalization cap 20000',
        ],
        id="b_monitor_budget",
    ),
    pytest.param(
        _cfg(
            "rescaling", {"L": 6}, params={"a": 0.0, "A": -1.0, "nu": "x", "p": None}
        ),
        [
            'params.A must be a finite number >= 0, got -1.0',
            "params.nu must be a finite number >= 0, got 'x'",
            'params.p must be a finite number >= 0, got None',
            'params.a must be positive',
            'model.L: monitor boxes need a side divisible by 4, got 6',
        ],
        id="rescaling_constants",
    ),
    pytest.param(
        _cfg("rescaling", {"L": 8}, params={"omega_samples": -2, "A": -1.0}),
        [
            'params.omega_samples must be a nonnegative integer, got -2',
            'params.A must be a finite number >= 0, got -1.0',
        ],
        id="rescaling_omega_before_constants",
    ),
    pytest.param(
        _cfg("rescaling", {"L": 16, "n": 3}),
        [
            'budget: configuration space dimension 32768 at box side 32 exceeds the dense-diagonalization cap 20000',
        ],
        id="rescaling_budget",
    ),
    pytest.param(
        _cfg(
            "region_scan",
            {"L": 6, "interaction": {"builtin": "onsite", "coupling": 0.5}},
            params={"lambdas": [], "alphas": "x", "r2_threshold": 0, "xi_max": -1.0,
                    "monitor_eta": 0.0},
        ),
        [
            'params.lambdas must be a nonempty list of numbers >= 0, got []',
            "params.alphas must be a nonempty list of numbers, got 'x'",
            'params.r2_threshold must lie in (0, 1], got 0',
            'params.xi_max must be null or positive, got -1.0',
            'params.monitor_eta must be null or positive, got 0.0',
            'model.interaction: region_scan sweeps pair couplings; onsite is not supported here',
            'model.L: monitor boxes need a side divisible by 4, got 6',
        ],
        id="region_scan_params",
    ),
    pytest.param(
        _cfg(
            "region_scan", {"L": 8, "n": 1},
            params={"omega_samples": 1.5, "lambdas": [-2.0]},
        ),
        [
            'params.omega_samples must be a nonnegative integer, got 1.5',
            'params.lambdas must be a nonempty list of numbers >= 0, got [-2.0]',
        ],
        id="region_scan_omega_before_lambdas",
    ),
    pytest.param(
        _cfg(
            "region_scan",
            {"L": 12, "n": 1, "interaction": {"builtin": "pair_nn", "range": 12}},
            params={"alphas": [0.5], "lambdas": [-1.0]},
        ),
        [
            'params.lambdas must be a nonempty list of numbers >= 0, got [-1.0]',
            'model.interaction.range 12 must be smaller than the monitor box side 12 when the scan sweeps nonzero couplings',
        ],
        id="region_scan_range",
    ),
    pytest.param(
        _cfg("region_scan", {"L": 4, "n": 3}),
        [
            'model.L: box side 8 too small for a 3-particle decay probe',
        ],
        id="region_scan_probe_box",
    ),
    pytest.param(
        _cfg("region_scan", {"L": 16, "n": 3}),
        [
            'budget: configuration space dimension 32768 at box side 32 exceeds the dense-diagonalization cap 20000',
        ],
        id="region_scan_budget",
    ),
    # block kinds
    pytest.param(
        _cfg(
            "composite_check", {"L": 4}, {"count": 1},
            {"instances": 0, "dim_cap": 200, "quadrature_points": 4},
        ),
        [
            'params.instances must be a positive integer, got 0',
            'budget: composite dimension up to 40000 exceeds the dense-diagonalization cap 20000',
            'params.quadrature_points must be an integer >= 8, got 4',
        ],
        id="composite_params",
    ),
    pytest.param(
        _cfg(
            "subadditivity", {"L": 4}, {"count": 1}, {"instances": "x", "dim_cap": 0}
        ),
        [
            "params.instances must be a positive integer, got 'x'",
            'params.dim_cap must be a positive integer, got 0',
        ],
        id="subadditivity_params",
    ),
    pytest.param(
        _cfg(
            "subadditivity", {"L": 4, "n": 2}, {"count": 1}, {"dim_cap": 1}
        ),
        [
            'params.dim_cap 1 admits no block on boxes up to side 4',
        ],
        id="subadditivity_no_block",
    ),
    *_SITE_CORPUS,
]


@pytest.mark.parametrize("cfg, expected", _VALIDATE_CORPUS)
def test_validate_output_pinned(cfg, expected):
    assert validate(cfg) == expected


@pytest.mark.parametrize("cfg, expected", _SITE_CORPUS)
def test_cli_reports_bad_site_coordinates(tmp_path, capsys, cfg, expected):
    assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert all(f"invalid: {v}" in err for v in expected)


# JSON text, as a config file would carry it
@pytest.mark.parametrize(
    "density",
    [
        '{"kind": "uniform", "params": [-Infinity, 0]}',
        '{"kind": "uniform", "params": [0, Infinity]}',
        '{"kind": "uniform", "params": [-1e308, 1e308]}',
        '{"kind": "truncated_gaussian", "params": [1, Infinity]}',
        '{"kind": "truncated_gaussian", "params": [Infinity, 1]}',
        '{"kind": "piecewise", "params": [[0, Infinity], [0]]}',
        '{"kind": "piecewise", "params": [[0, 1, 2], [1, NaN]]}',
    ],
)
def test_non_finite_density_parameters_rejected(density):
    obj = json.loads(density)
    with pytest.raises(ValueError):
        DensitySpec.from_dict(obj)
    (violation,) = validate(_cfg("decay_probe", {"density": obj}))
    assert violation.startswith("model.density: ")


def test_interaction_schema_lists_the_operator_fields():
    defaults, _ = harness._SECTIONS["model"]["interaction"]
    assert tuple(defaults) == INTERACTION_FIELDS


# integers stay small, so that the seeded shape draws below do not move;
# test_validate_never_raises_on_large_integers takes the large ones
_MALFORMED = [
    None, True, False, "", "x", "2", [], [1, "a"], {}, {"a": 1},
    math.nan, math.inf, -math.inf, 1e308, -0.0, 0, 1, 2, 3, 64, -1, -64,
]
# shapes that carry a value down to a site coordinate or a density parameter
_SHAPES = [
    lambda v: v,
    lambda v: [v],
    lambda v: [[v]],
    lambda v: [[[[v]], [[0]]]],
    lambda v: [[{"sites": [[v]]}, {"sites": [[0]], "sector": v}]],
    lambda v: [v, 1.0],
]


def test_validate_never_raises_on_malformed_values():
    """A malformed JSON value in any section, field or params field gives
    violations as nonempty strings, never an exception."""
    rng = np.random.default_rng(20261019)
    bases = [p.values[0] for p in _VALIDATE_CORPUS if p.id.startswith("valid_")]
    assert sorted({base["kind"] for base in bases}) == sorted(KINDS)
    for base in bases:
        full = ExperimentConfig.from_dict(base).to_dict()
        sections = ("model", "ensemble", "numerics", "output", "params")
        paths = [(name,) for name in sections]
        paths += [(name, key) for name in sections for key in full[name]]
        paths += [("model", sub, key) for sub in ("interaction", "density")
                  for key in full["model"][sub]]
        for path in paths:
            for value in _MALFORMED:
                shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
                cfg = copy.deepcopy(full)
                node = cfg
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = shape(value)
                violations = validate(cfg)
                assert isinstance(violations, list), (path, cfg)
                assert all(isinstance(v, str) and v for v in violations), (path, cfg)


def _int_paths(node, path=()):
    """Paths of the integer (not bool) fields of a config, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_paths(value, (*path, key))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def test_validate_never_raises_on_large_integers():
    """5000 or 10**5 in any integer field gives violations, never an
    exception: a budget dimension past the 4300 digits str() converts is
    spelled compactly, and the block search stops far short of model.L."""
    bases = [p.values[0] for p in _VALIDATE_CORPUS if p.id.startswith("valid_")]
    for base in bases:
        full = ExperimentConfig.from_dict(base).to_dict()
        paths = list(_int_paths(full))
        assert paths, base
        for path in paths:
            for value in (5000, 10**5):
                cfg = copy.deepcopy(full)
                node = cfg
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                violations = validate(cfg)
                assert isinstance(violations, list), (path, value)
                assert all(isinstance(v, str) and v for v in violations), (path, value)


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion"])
def test_block_candidates_do_not_walk_every_particle_number(monkeypatch, sector):
    """The run-time candidate list at model.n 6000 builds a few operator
    specs per side, not one per particle number, and keeps its order."""
    config = ExperimentConfig.from_dict(
        _cfg("composite_check", {"L": 4, "n": 6000, "sector": sector},
             params={"dim_cap": 8})
    )
    calls = []
    build = ExperimentConfig.operator_spec
    monkeypatch.setattr(
        ExperimentConfig, "operator_spec",
        lambda self, *args: calls.append(args) or build(self, *args),
    )
    got = tuple(harness._block_candidates(config))
    expected = {
        "distinguishable": ((2, 1), (2, 2), (2, 3), (3, 1), (4, 1)),
        "boson": ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                  (3, 1), (3, 2), (4, 1)),
        "fermion": ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                    (4, 3), (4, 4)),
    }[sector]
    assert got == expected
    assert len(calls) <= 20


# JSON text, as a config file would carry it; json reads NaN and Infinity
@pytest.mark.parametrize(
    "z_grid", ["[NaN]", "[[1.0, Infinity]]", '["1.5"]', "[true]", "[[1.0]]", '"0.5"']
)
def test_wegner_z_grid_entries_must_be_finite(z_grid):
    cfg = _cfg("wegner", params={"z_grid": json.loads(z_grid)})
    (violation,) = validate(cfg)
    assert violation.startswith("params.z_grid entries must be [re, im] pairs")


def test_wegner_validate_builds_no_template_over_budget():
    # the default z grid spans the spectral enclosure, whose bound needs the
    # operator template; validate leaves that grid to the run
    from mplab import operator

    cfg = _cfg("wegner", {"d": 1, "L": 60, "n": 3})  # dim 216000
    before = operator._template_for.cache_info()
    (violation,) = validate(cfg)
    assert violation.startswith("budget: configuration space dimension 216000")
    after = operator._template_for.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


@pytest.mark.parametrize("time_grid", [None, [0.0, 1.0]])
def test_time_grid_is_not_a_numerics_field(time_grid):
    cfg = _cfg("decay_probe", numerics={"time_grid": time_grid})
    assert validate(cfg) == ["unknown numerics field 'time_grid'"]
    assert "time_grid" not in ExperimentConfig.from_dict(_cfg("decay_probe")).numerics


@pytest.mark.parametrize(
    "section, value, expected",
    [
        ("ensemble", [], "ensemble must be an object"),
        ("params", 5, "params must be an object"),
        ("model", None, "model must be an object"),
        ("numerics", "fast", "numerics must be an object"),
        ("output", ["csv"], "output must be an object"),
        ("kind", ["decay_probe"], f"kind must be one of {', '.join(KINDS)}, "
                                  "got ['decay_probe']"),
    ],
    ids=["ensemble", "params", "model", "numerics", "output", "kind"],
)
def test_malformed_sections_reported(tmp_path, capsys, section, value, expected):
    cfg = _cfg("decay_probe")
    cfg[section] = value
    assert validate(cfg) == [expected]
    assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("formats", [[["csv"]], [{"csv": 1}, "json"]])
def test_unhashable_output_formats_reported(tmp_path, capsys, formats):
    cfg = _cfg("decay_probe", output={"directory": "out", "formats": formats})
    expected = f"output.formats must be a nonempty subset of [csv, json], got {formats!r}"
    assert validate(cfg) == [expected]
    assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == 2
    assert expected in capsys.readouterr().err


_HASH_SEED_SCRIPT = """
import json
from mplab.harness import validate
cfg = {"kind": "decay_probe", "model": {"L": 8, "colour": 1, "shape": 2, "spin": 3},
       "ensemble": {"size": 1, "tries": 2, "rounds": 3},
       "numerics": {"tol": 1, "maxiter": 2, "order": 3},
       "output": {"compress": 1, "append": 2, "mode": 3}}
print(json.dumps(validate(cfg)))
"""


def test_unknown_fields_do_not_depend_on_hash_seed():
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(proc.stdout)
    (only,) = outputs
    assert json.loads(only)[:3] == [
        "unknown model field 'colour'",
        "unknown model field 'shape'",
        "unknown model field 'spin'",
    ]


_SLOW_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.io")


def test_import_leaves_slow_scipy_modules_unloaded():
    """`import mplab` loads none of scipy.stats, scipy.optimize and scipy.io:
    mplab uses scipy.optimize only in the symmetrized distance, and never
    imports the other two."""
    script = (
        "import json, sys, mplab, mplab.cli; "
        f"print(json.dumps([m for m in {_SLOW_SCIPY!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == []


def test_truncated_gaussian_run_loads_no_scipy_stats(tmp_path):
    """`import mplab` leaves scipy.special unloaded; validating and running a
    truncated-Gaussian decay_probe loads it, but never scipy.stats."""
    cfg = probe_config(tmp_path, density={"kind": "truncated_gaussian", "params": [0.5, 1.0]})
    cfg["ensemble"]["count"] = 2
    script = (
        "import json, sys, mplab, mplab.cli\n"
        "loaded = ['scipy.special' in sys.modules]\n"
        f"cfg = json.loads({json.dumps(cfg)!r})\n"
        "assert mplab.validate(cfg) == []\n"
        "mplab.run(cfg, workers=1)\n"
        "loaded += ['scipy.special' in sys.modules, 'scipy.stats' in sys.modules]\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == [False, True, False]


def _loaded_scipy(script: str) -> dict:
    """Run a script in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_and_dense_runs_load_no_scipy(tmp_path):
    """`import mplab, mplab.cli` loads no scipy module, and neither does
    validating and running a uniform-density rescaling and a
    composite_check: Hamiltonians are numpy arrays, and the composite's
    direct solve is a dense LU at the default dim_cap."""
    rescaling = {
        "kind": "rescaling", "model": {"L": 4, "lambda": 5.0},
        "ensemble": {"count": 2}, "output": {"directory": str(tmp_path / "r")},
    }
    composite = {
        "kind": "composite_check", "model": {"L": 4, "lambda": 1.0},
        "params": {"instances": 1, "quadrature_points": 16},
        "output": {"directory": str(tmp_path / "c")},
    }
    script = (
        "import json, sys, mplab, mplab.cli\n"
        f"out = {{'import': {_SCIPY_LOADED}}}\n"
        f"for cfg in json.loads({json.dumps([rescaling, composite])!r}):\n"
        "    assert mplab.validate(cfg) == []\n"
        "    mplab.run(cfg, workers=1)\n"
        f"out['runs'] = {_SCIPY_LOADED}\n"
        "print(json.dumps(out))\n"
    )
    assert _loaded_scipy(script) == {"import": [], "runs": []}


def test_serial_run_loads_no_process_pool(tmp_path):
    """A workers=1 run maps its units in its own process, so it never
    imports the process pool or multiprocessing."""
    composite = {
        "kind": "composite_check", "model": {"L": 4, "lambda": 1.0},
        "params": {"instances": 1, "quadrature_points": 16},
        "output": {"directory": str(tmp_path)},
    }
    script = (
        "import json, sys, mplab\n"
        f"mplab.run(json.loads({json.dumps(composite)!r}), workers=1)\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "print(json.dumps([m for m in pool if m in sys.modules]))\n"
    )
    assert _loaded_scipy(script) == []


def test_scipy_loads_only_for_special_functions_and_sparse_solves(tmp_path):
    """A truncated-Gaussian decay_probe loads scipy.special but not
    scipy.sparse; a sparse Green solve loads scipy.sparse.linalg, with the
    value it gave when scipy.sparse was imported with mplab."""
    cfg = probe_config(tmp_path, density={"kind": "truncated_gaussian", "params": [0.5, 1.0]})
    cfg["ensemble"]["count"] = 2
    script = (
        "import json, sys, mplab\n"
        "from mplab import Box, Configuration, InteractionSpec, OperatorSpec\n"
        f"cfg = json.loads({json.dumps(cfg)!r})\n"
        "assert mplab.validate(cfg) == []\n"
        "mplab.run(cfg, workers=1)\n"
        "out = {'probe': [m in sys.modules for m in ('scipy.special', 'scipy.sparse')]}\n"
        "spec = OperatorSpec(box=Box(d=1, side=6), n=2, sector='boson', lam=3.0,\n"
        "                    interaction=InteractionSpec.pair_nn(0.3))\n"
        "H = mplab.assemble(spec, mplab.sample(spec.box, mplab.UNIFORM_HALF, 4))\n"
        "x = Configuration(sites=((0,), (1,)), sector='boson')\n"
        "y = Configuration(sites=((2,), (4,)), sector='boson')\n"
        "g = mplab.green(H, x, y, 0.7 + 0.05j)\n"
        "out['green'] = ['scipy.sparse.linalg' in sys.modules, g.real.hex(), g.imag.hex()]\n"
        "print(json.dumps(out))\n"
    )
    got = _loaded_scipy(script)
    assert got["probe"] == [True, False]
    assert got["green"] == [
        True, (0.009631568287593251).hex(), (0.0012096828892811248).hex()
    ]


def test_density_to_dict_is_a_config_density(tmp_path):
    table = DensitySpec.piecewise((-1.0, 0.0, 1.0), (0.3, 0.7))
    as_dict = probe_config(tmp_path / "a", density=table.to_dict())
    as_params = probe_config(
        tmp_path / "b", density={"kind": "piecewise", "params": [[-1, 0, 1], [0.3, 0.7]]}
    )
    for cfg in (as_dict, as_params):
        assert validate(cfg) == []
        assert ExperimentConfig.from_dict(cfg).density_spec() == table
    assert run(as_dict, workers=1).rows == run(as_params, workers=1).rows


@pytest.mark.parametrize(
    "density, expected",
    [
        (
            {"kind": "uniform", "params": [-1.0, 1.0], "pramas": [0.0, 1.0]},
            "model.density: unknown density field(s) ['pramas']",
        ),
        (
            {"kind": "piecewise", "breaks": [-1.0, 1.0], "densities": [0.5]},
            "model.density: unknown density field(s) ['breaks', 'densities']",
        ),
    ],
)
def test_unknown_density_fields_reported(tmp_path, density, expected):
    assert validate(probe_config(tmp_path, density=density)) == [expected]


def test_run_raises_on_invalid():
    with pytest.raises(ConfigError):
        run({"kind": "decay_probe", "model": {"L": 0}}, workers=1)


def test_run_raises_budget_error(tmp_path):
    cfg = probe_config(tmp_path, d=2, L=10, n=3)
    with pytest.raises(BudgetError):
        run(cfg, workers=1)


# ---------------------------------------------------------------------- emit


def _csv_cells(path) -> list:
    """The rows of an emitted CSV file, header first, as lists of cells."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _csv_rows(path, table) -> list:
    """The rows below an emitted CSV's header, each cell read by its dtype
    in `table`; the header must be the table's columns."""
    read = {"int": int, "float": float, "str": str,
            "bool": {"true": True, "false": False}.__getitem__}
    header, *rows = _csv_cells(path)
    assert tuple(header) == table.columns
    return [tuple(read[dt](c) for c, dt in zip(row, table.dtypes)) for row in rows]


def _sidecar(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def test_seventeen_digit_floats(tmp_path):
    table = ResultTable(
        columns=("x", "tag"),
        dtypes=("float", "str"),
        rows=((1.0 / 3.0, "third"), (float("inf"), "edge")),
        metadata={"note": "synthetic"},
    )
    emit(table, tmp_path, "fmt")
    text = (tmp_path / "fmt.csv").read_text()
    assert "0.33333333333333331" in text
    # float() of a 17-digit cell is the same double
    assert _csv_rows(tmp_path / "fmt.csv", table) == list(table.rows)
    assert _sidecar(tmp_path / "fmt.meta.json") == {
        "columns": ["x", "tag"], "dtypes": ["float", "str"],
        "metadata": {"note": "synthetic"},
    }


def test_empty_table_header_only(tmp_path):
    table = ResultTable(
        columns=("a", "b"), dtypes=("int", "float"), rows=(), metadata={}
    )
    emit(table, tmp_path, "empty")
    lines = (tmp_path / "empty.csv").read_text().splitlines()
    assert lines == ["a,b"]
    assert _csv_rows(tmp_path / "empty.csv", table) == []
    assert _sidecar(tmp_path / "empty.meta.json") == {
        "columns": ["a", "b"], "dtypes": ["int", "float"], "metadata": {},
    }


def test_quoting_survives_round_trip(tmp_path):
    table = ResultTable(
        columns=("seeds", "label"),
        dtypes=("str", "str"),
        rows=(("5,3", 'say "hi"'),),
        metadata={},
    )
    emit(table, tmp_path, "quoted")
    raw = (tmp_path / "quoted.csv").read_text()
    assert '"5,3"' in raw
    assert _csv_rows(tmp_path / "quoted.csv", table) == list(table.rows)


def _one_row(metadata):
    return ResultTable(columns=("a",), dtypes=("int",), rows=((1,),), metadata=metadata)


def test_emit_returns_the_written_paths_in_order(tmp_path):
    assert emit(_one_row({}), tmp_path, "t", ("json", "csv")) == [
        str(tmp_path / name) for name in ("t.csv", "t.json", "t.meta.json")
    ]
    assert emit(_one_row({}), tmp_path, "u", ("json",)) == [
        str(tmp_path / name) for name in ("u.json", "u.meta.json")
    ]


def test_emit_reports_an_output_directory_it_cannot_create(tmp_path):
    (tmp_path / "taken").write_text("")
    with pytest.raises(OSError, match="cannot create output directory .*taken"):
        emit(_one_row({}), tmp_path / "taken", "t")


def test_emit_reports_a_file_it_cannot_write(tmp_path):
    (tmp_path / "t.csv").mkdir()
    with pytest.raises(OSError, match=r"cannot write .*t\.csv"):
        emit(_one_row({}), tmp_path, "t")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_emit_renders_every_file_before_writing_any(tmp_path):
    """Metadata that is not JSON raises before any file exists: the CSV and
    the JSON mirror were once written, and the sidecar left empty."""
    with pytest.raises(TypeError, match="not JSON-serializable"):
        emit(_one_row({"when": object()}), tmp_path / "out", "t")
    assert list(tmp_path.iterdir()) == []


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_json_is_strict_and_non_finite_round_trips(tmp_path):
    inf, nan = float("inf"), float("nan")
    table = ResultTable(
        columns=("x", "y"),
        dtypes=("float", "float"),
        rows=((inf, -inf), (nan, 0.5)),
        metadata={"xi": inf, "fits": [{"slope": -inf}, nan], "label": "info"},
    )
    emit(table, tmp_path, "edge")
    mirror = _strict_loads((tmp_path / "edge.json").read_text())
    assert mirror["rows"] == [["inf", "-inf"], ["nan", 0.5]]
    meta = _strict_loads((tmp_path / "edge.meta.json").read_text())
    assert meta["metadata"] == {
        "xi": "inf", "fits": [{"slope": "-inf"}, "nan"], "label": "info"
    }
    # the CSV spells them alike, and float() reads each back
    assert _csv_cells(tmp_path / "edge.csv")[1:] == [["inf", "-inf"], ["nan", "0.5"]]
    rows = _csv_rows(tmp_path / "edge.csv", table)
    assert rows[0] == (inf, -inf)
    assert math.isnan(rows[1][0]) and rows[1][1] == 0.5


def test_region_scan_without_disorder_writes_strict_json(tmp_path):
    raw = {
        "kind": "region_scan",
        "model": {"L": 8, "n": 1},
        "ensemble": {"base_seed": 0, "count": 4},
        "params": {"lambdas": [0.0], "alphas": [0.0]},
        "output": {"directory": str(tmp_path)},
    }
    t = run(raw, workers=1)
    xi = t.columns.index("xi")
    assert t.rows[0][xi] == float("inf")
    mirror = _strict_loads((tmp_path / "region_scan.json").read_text())
    assert mirror["rows"][0][xi] == "inf"
    _strict_loads((tmp_path / "region_scan.meta.json").read_text())
    assert _csv_cells(tmp_path / "region_scan.csv")[1][xi] == "inf"
    assert _csv_rows(tmp_path / "region_scan.csv", t) == list(t.rows)


def test_region_scan_realizes_each_seed_once_per_side(tmp_path, monkeypatch):
    """Each region_scan point diagonalizes a seed once at side L and once at
    side 2L, where the probe reads the monitor's full-box spectrum: on the
    golden config (3 seeds, 2 points, no sub-boxes) that is 6 spectra at
    each side."""
    dims = []
    eigen = diagnostics.spectral_data

    def counted(H):
        dims.append(H.dim)
        return eigen(H)

    monkeypatch.setattr(diagnostics, "spectral_data", counted)
    raw = {
        "kind": "region_scan",
        "model": {"L": 8, "n": 2, "lambda": 10.0},
        "ensemble": {"base_seed": 0, "count": 3},
        "params": {"alphas": [0.0, 0.5]},
        "output": {"directory": str(tmp_path), "formats": ["csv"]},
    }
    run(raw, workers=1)
    assert sorted(dims) == [64] * 6 + [256] * 6


def test_bool_column_round_trips(tmp_path):
    raw = {
        "kind": "subadditivity",
        "model": {"L": 4, "n": 2, "lambda": 2.0,
                  "interaction": {"builtin": "pair_nn", "coupling": 0.2}},
        "ensemble": {"count": 1},
        "params": {"instances": 6, "dim_cap": 6},
        "output": {"directory": str(tmp_path)},
    }
    t = run(raw, workers=1)
    meta = _sidecar(tmp_path / "subadditivity.meta.json")
    assert meta["dtypes"][t.columns.index("satisfied")] == "bool"
    assert _csv_rows(tmp_path / "subadditivity.csv", t) == list(t.rows)
    # every instance above satisfies the bound, so write a false one too
    flags = ResultTable(columns=("ok",), dtypes=("bool",), rows=((True,), (False,)),
                        metadata={})
    emit(flags, tmp_path, "flags")
    assert _csv_cells(tmp_path / "flags.csv") == [["ok"], ["true"], ["false"]]
    assert _csv_rows(tmp_path / "flags.csv", flags) == list(flags.rows)


def test_json_mirror_matches(tmp_path):
    t = run(probe_config(tmp_path), workers=1)
    mirror = json.loads((tmp_path / "decay_probe.json").read_text())
    assert mirror["columns"] == list(t.columns)
    assert len(mirror["rows"]) == len(t.rows)
    assert mirror["rows"][0][1] == t.rows[0][1]


def test_sidecar_holds_config_for_reruns(tmp_path):
    cfg = probe_config(tmp_path)
    run(cfg, workers=1)
    meta = json.loads((tmp_path / "decay_probe.meta.json").read_text())
    echoed = meta["metadata"]["config"]
    assert echoed["model"]["lambda"] == 8.0
    assert "config_sha256" in meta["metadata"]
    assert "version" in meta["metadata"]
    assert "wall_time_s" in meta["metadata"]
    # the echoed config re-runs to the same bytes
    echoed = copy.deepcopy(echoed)
    echoed["output"]["directory"] = str(tmp_path / "again")
    run(echoed, workers=1)
    first = (tmp_path / "decay_probe.csv").read_bytes()
    assert (tmp_path / "again" / "decay_probe.csv").read_bytes() == first


# -------------------------------------------------------------- determinism


def test_same_config_same_bytes(tmp_path):
    cfg1 = probe_config(tmp_path / "a")
    cfg2 = probe_config(tmp_path / "b")
    run(cfg1, workers=1)
    run(cfg2, workers=1)
    csv_a = (tmp_path / "a" / "decay_probe.csv").read_bytes()
    csv_b = (tmp_path / "b" / "decay_probe.csv").read_bytes()
    assert csv_a == csv_b


@pytest.mark.parametrize(
    "kind",
    ["decay_probe", "wegner", "b_monitor", "rescaling", "region_scan",
     "composite_check", "subadditivity"],
)
def test_worker_count_irrelevant(tmp_path, kind):
    def cfg(tag):
        raw = {
            "kind": kind,
            "model": {"L": 8, "lambda": 9.0},
            "ensemble": {"base_seed": 3, "count": 4},
            "params": {},
            "output": {"directory": str(tmp_path / tag)},
        }
        if kind == "subadditivity":
            raw["params"] = {"instances": 4, "dim_cap": 8}
        if kind == "composite_check":
            raw["params"] = {"instances": 4, "quadrature_points": 16}
        if kind == "region_scan":
            # two grid points, so the pool has two units to share
            raw["params"] = {"alphas": [0.0, 0.5]}
        if kind == "wegner":
            # two chunks of subseeds, so the pool has two units to share
            raw["ensemble"]["count"] = 40
        return raw

    run(cfg("serial"), workers=1)
    run(cfg("pool"), workers=3)
    a = (tmp_path / "serial" / f"{kind}.csv").read_bytes()
    b = (tmp_path / "pool" / f"{kind}.csv").read_bytes()
    assert a == b


def _recording_pool(monkeypatch) -> list:
    """Replace the pool that the harness imports when it opens one by a
    pool that records its max_workers."""
    import concurrent.futures

    opened = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return opened


def test_pool_is_clamped_to_the_units(tmp_path, monkeypatch):
    opened = _recording_pool(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    for tag, workers in (("serial", 1), ("pool", 8)):
        cfg = probe_config(tmp_path / tag)
        cfg["ensemble"]["count"] = 2
        run(cfg, workers=workers)
    assert opened == [2]
    a = (tmp_path / "serial" / "decay_probe.csv").read_bytes()
    b = (tmp_path / "pool" / "decay_probe.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("workers", [0, -3])
def test_run_rejects_workers_below_one(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run(probe_config(tmp_path / "out"), workers=workers)
    assert not (tmp_path / "out").exists()


def test_pool_is_clamped_to_the_cpus(monkeypatch):
    import mplab.harness as harness

    opened = _recording_pool(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._chunked_map(abs, [-1, -2, -3, -4, -5], 8) == [1, 2, 3, 4, 5]
    assert harness._chunked_map(abs, [-1, -2], None) == [1, 2]
    assert opened == [3, 2]


def test_region_scan_monitors_match_rescaling(tmp_path):
    """A scan point's monitor columns are the rescaling kind's rows for the
    model at that point."""
    scan = run(
        {
            "kind": "region_scan",
            "model": {"L": 8, "n": 2},
            "ensemble": {"base_seed": 0, "count": 4},
            "params": {"lambdas": [20.0], "alphas": [0.3]},
            "output": {"directory": str(tmp_path / "scan")},
        },
        workers=1,
    )
    doubling = run(
        {
            "kind": "rescaling",
            "model": {
                "L": 8, "n": 2, "lambda": 20.0,
                "interaction": {"builtin": "pair_nn", "coupling": 0.3, "range": 1},
            },
            "ensemble": {"base_seed": 0, "count": 4},
            "output": {"directory": str(tmp_path / "doubling")},
        },
        workers=1,
    )
    (row,) = scan.rows
    small, large = doubling.rows
    col = doubling.columns.index
    assert row[2:6] == (
        small[col("value")], small[col("full_stderr")],
        large[col("value")], large[col("full_stderr")],
    )


def test_seeds_column_everywhere(tmp_path):
    cases = [
        probe_config(tmp_path / "p"),
        {
            "kind": "composite_check",
            "model": {"L": 4, "lambda": 2.0},
            "ensemble": {"count": 1},
            "params": {"instances": 2, "quadrature_points": 16},
            "output": {"directory": str(tmp_path / "c")},
        },
    ]
    for raw in cases:
        t = run(raw, workers=1)
        assert "seeds" in t.columns
        col = t.columns.index("seeds")
        assert all(r[col] for r in t.rows)


# ---------------------------------------------------------------------- CLI


def write_cfg(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, probe_config(tmp_path / "out"))
    assert cli.main(["run", path, "--workers", "1"]) == 0
    assert (tmp_path / "out" / "decay_probe.csv").exists()
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    path = write_cfg(tmp_path, probe_config(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--workers", workers])
    assert exc.value.code == 2
    assert "error: argument --workers: must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_validate_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, probe_config(tmp_path))
    assert cli.main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validation_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, probe_config(tmp_path))
    assert cli.main(["validate", path, "--set", "numerics.s=1.5"]) == 2
    assert "s must lie in (0,1)" in capsys.readouterr().err


def test_cli_budget_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, probe_config(tmp_path, d=2, L=10, n=3))
    assert cli.main(["run", path]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_run_exit_code_for_a_huge_node_grid(tmp_path, capsys):
    """Such a grid validated and then crashed the run with exit 1."""
    cfg = {"kind": "decay_probe", "numerics": {"quad_points": 10**30},
           "output": {"directory": str(tmp_path)}}
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--workers", "1"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "invalid: budget: numerics.quad_points ~10^30 times dimension 8 exceeds "
        "20000^2 entries, the largest dense matrix under the dense-diagonalization cap"
    ]


def test_cli_run_exit_code_for_a_budget_error_in_the_run(tmp_path, capsys, monkeypatch):
    """validate passes; the monitor plan then counts more boundary pairs
    than the budget admits."""
    monkeypatch.setattr(diagnostics, "B_PAIR_BUDGET", 1)
    cfg = {"kind": "b_monitor", "model": {"L": 4}, "ensemble": {"count": 2},
           "output": {"directory": str(tmp_path)}}
    assert cli.main(["run", write_cfg(tmp_path, cfg), "--workers", "1"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("budget failure: boundary pair count ")


def test_cli_budget_exit_code_for_a_huge_dimension(tmp_path, capsys):
    # the dimension 8^5000 has 4516 digits, more than str() converts
    path = write_cfg(tmp_path, {"kind": "b_monitor", "model": {"L": 8, "n": 5000}})
    assert cli.main(["validate", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "invalid: budget: configuration space dimension ~10^4515 at box side 8 "
        "exceeds the dense-diagonalization cap 20000"
    ]


def test_validate_does_not_build_a_huge_dimension():
    """The budget of 8^(10^8) is decided from its logarithm; the integer
    itself would take 37 MB."""
    tracemalloc.start()
    try:
        (violation,) = validate({"kind": "b_monitor", "model": {"L": 8, "n": 10**8}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "dimension ~10^90308998 at box side 8" in violation
    assert peak < 10 * 2**20


def test_seeds_past_64_bits_are_rejected(tmp_path):
    """base_seed 2^64 once ran as base_seed 0, since Philox reduced its key
    modulo 2^64, while the seeds column named the seeds unreduced."""
    cfg = probe_config(tmp_path / "out")
    cfg["ensemble"] = {"base_seed": 2**64, "count": 2}
    with pytest.raises(ConfigError, match=r"must be below 2\^64"):
        run(cfg, workers=1)
    assert not (tmp_path / "out").exists()


def test_cli_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_load_config_is_the_one_file_loader(tmp_path, capsys):
    """load_config sets dotted overrides, making missing objects, and the
    CLI reads its config through it."""
    path = write_cfg(tmp_path, probe_config(tmp_path / "a"))
    config = harness.load_config(path, [("model.lambda", 15), ("params.pairs", None)])
    assert config.model["lambda"] == 15 and config.params["pairs"] is None
    assert harness.load_config(path).model["lambda"] == 8.0
    path = write_cfg(tmp_path, [probe_config(tmp_path / "a")])
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        harness.load_config(path)
    assert cli.main(["validate", path, "--set", "model.lambda=15"]) == 2
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_cli_set_overrides_apply(tmp_path):
    path = write_cfg(tmp_path, probe_config(tmp_path / "a"))
    out = tmp_path / "b"
    rc = cli.main(
        [
            "run", path,
            "--workers", "1",
            "--set", f"output.directory={out}",
            "--set", "model.lambda=15",
            "--set", "ensemble.count=3",
        ]
    )
    assert rc == 0
    meta = json.loads((out / "decay_probe.meta.json").read_text())
    assert meta["metadata"]["config"]["model"]["lambda"] == 15
    assert meta["metadata"]["config"]["ensemble"]["count"] == 3
    assert _csv_cells(out / "decay_probe.csv")[1][5] == "0..2"


def test_cli_env_seed_override(tmp_path, monkeypatch):
    """MPLAB_SEED once replaced ensemble.base_seed; the seeds are now the
    config's own."""
    path = write_cfg(tmp_path, probe_config(tmp_path / "env"))
    monkeypatch.setenv("MPLAB_SEED", "50")
    assert cli.main(["run", path, "--workers", "1"]) == 0
    rows = _csv_cells(tmp_path / "env" / "decay_probe.csv")[1:]
    assert rows and {row[5] for row in rows} == {"0..3"}


def test_cli_explicit_set_beats_env(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, probe_config(tmp_path / "env2"))
    monkeypatch.setenv("MPLAB_SEED", "50")
    rc = cli.main(["run", path, "--workers", "1", "--set", "ensemble.base_seed=7"])
    assert rc == 0
    rows = _csv_cells(tmp_path / "env2" / "decay_probe.csv")[1:]
    assert rows and {row[5] for row in rows} == {"7..10"}


def test_cli_has_no_out_flag(tmp_path, capsys):
    """The output directory is set by --set output.directory=DIR."""
    path = write_cfg(tmp_path, probe_config(tmp_path / "a"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--out", str(tmp_path / "b")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "section, field, value",
    [("params", "instances", 10**30), ("params", "omega_samples", 10**30),
     ("ensemble", "count", 2**63)],
    ids=["instances", "omega_samples", "count"],
)
def test_cli_budget_exit_code_for_a_huge_unit_count(
    tmp_path, capsys, command, section, field, value
):
    """Each validated, and a run then hung or allocated without end."""
    kind = {"instances": "composite_check", "omega_samples": "b_monitor",
            "count": "decay_probe"}[field]
    cfg = {"kind": kind, section: {field: value},
           "output": {"directory": str(tmp_path / "out")}}
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"invalid: budget: {section}.{field} ")
    assert line.endswith(f"exceeds the unit cap {harness.UNIT_CAP}")
    assert not (tmp_path / "out").exists()


def test_cli_bad_override_syntax(tmp_path, capsys):
    path = write_cfg(tmp_path, probe_config(tmp_path))
    assert cli.main(["validate", path, "--set", "nonsense"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_cli_warns_when_coupling_is_ignored(tmp_path, capsys):
    cfg = probe_config(tmp_path / "out", interaction={"builtin": "none", "coupling": 0.5})
    cfg["ensemble"]["count"] = 2
    path = write_cfg(tmp_path, cfg)
    assert validate(cfg) == []
    line = "warning: model.interaction.coupling 0.5 is ignored with builtin 'none'"
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().err.splitlines() == [line]
    assert cli.main(["run", path, "--workers", "1"]) == 0
    assert capsys.readouterr().err.splitlines() == [line]
    # a coupling of zero, or one a built-in uses, draws no warning
    for interaction in ({"builtin": "none", "coupling": 0}, {"builtin": "onsite", "coupling": 0.5}):
        cfg["model"]["interaction"] = interaction
        assert cli.main(["validate", write_cfg(tmp_path, cfg)]) == 0
        assert capsys.readouterr().err == ""


def test_run_records_config_warnings_in_metadata(tmp_path):
    cfg = probe_config(tmp_path / "warn", interaction={"builtin": "none", "coupling": 0.5})
    cfg["ensemble"]["count"] = 2
    table = run(cfg, workers=1)
    line = "model.interaction.coupling 0.5 is ignored with builtin 'none'"
    assert table.metadata["warnings"] == [line]
    meta = json.loads((tmp_path / "warn" / "decay_probe.meta.json").read_text())
    assert meta["metadata"]["warnings"] == [line]
    # no warning, no key: the metadata of other configs is unchanged
    cfg["model"]["interaction"] = {"builtin": "none", "coupling": 0.0}
    assert "warnings" not in run(cfg, workers=1).metadata
    meta = json.loads((tmp_path / "warn" / "decay_probe.meta.json").read_text())
    assert "warnings" not in meta["metadata"]


# ---------------------------------------------------------------------- fuzz


def _random_config(rng, tmp) -> dict:
    kind = rng.choice(
        [
            "decay_probe", "wegner", "b_monitor",
            "rescaling", "region_scan", "composite_check", "subadditivity",
        ],
        p=[0.3, 0.15, 0.15, 0.1, 0.05, 0.1, 0.15],
    )
    sector = rng.choice(["distinguishable", "boson", "fermion", "hardcore"])
    n = int(rng.integers(1, 3))
    cfg = {
        "kind": str(kind),
        "model": {
            "d": 1,
            "L": int(rng.choice([4, 5, 6, 8])),
            "n": n,
            "sector": str(sector),
            "lambda": float(rng.choice([0.0, 1.0, 4.0, 12.0])),
            "interaction": {
                "builtin": str(rng.choice(["none", "pair_nn", "onsite"])),
                "coupling": float(rng.choice([0.0, 0.3])),
                "range": 1,
            },
            "norm": str(rng.choice(["l1", "linf"])),
        },
        "ensemble": {"base_seed": int(rng.integers(0, 50)), "count": 2},
        "numerics": {"s": float(rng.choice([0.3, 0.5, 0.8]))},
        "output": {"directory": str(tmp)},
        "params": {},
    }
    if kind == "decay_probe":
        cfg["params"] = {"max_points": 3}
    elif kind == "wegner":
        cfg["params"] = {"z_count": 2, "z_im": float(rng.choice([0.0, 0.01]))}
        cfg["ensemble"]["count"] = 3
    elif kind in ("b_monitor", "rescaling"):
        cfg["model"]["L"] = int(rng.choice([4, 8]))
        cfg["params"] = {"omega_samples": int(rng.integers(0, 2))}
        if kind == "rescaling":
            cfg["params"].update({"a": 1.0, "A": 0.0, "nu": 0.0, "p": 0.0})
    elif kind == "region_scan":
        cfg["model"]["L"] = 8
        cfg["model"]["n"] = 1
        cfg["params"] = {
            "lambdas": [float(rng.choice([0.0, 15.0]))],
            "alphas": [float(rng.choice([0.0, 0.2]))],
        }
    elif kind == "composite_check":
        cfg["params"] = {"instances": 1, "dim_cap": 8, "quadrature_points": 8}
    elif kind == "subadditivity":
        cfg["params"] = {"instances": 1, "dim_cap": 8}

    # sprinkle corruption on a third of the configs
    roll = rng.random()
    if roll < 0.08:
        cfg["numerics"]["s"] = float(rng.choice([0.0, 1.0, 1.5, -0.2]))
    elif roll < 0.14:
        cfg["model"]["L"] = int(rng.choice([0, -3]))
    elif roll < 0.18:
        cfg["model"]["sector"] = "anyons"
    elif roll < 0.22:
        cfg["model"]["lambda"] = -1.0
    elif roll < 0.26:
        cfg["model"]["interaction"]["range"] = int(cfg["model"]["L"]) + 2
        cfg["model"]["interaction"]["builtin"] = "pair_nn"
        cfg["model"]["interaction"]["coupling"] = 0.5
    elif roll < 0.30:
        cfg["model"]["density"] = {"kind": "uniform", "params": [1.0, -1.0]}
    elif roll < 0.33:
        cfg["mystery"] = 1
    return cfg


def test_fuzz_valid_configs_run(tmp_path):
    """Any config that passes validation must execute without crashing."""
    rng = np.random.default_rng(20240817)
    attempted = ran = 0
    for _ in range(1000):
        cfg = _random_config(rng, tmp_path / "fuzz")
        attempted += 1
        violations = validate(cfg)
        if violations:
            assert all(isinstance(v, str) and v for v in violations)
            continue
        table = run(cfg, workers=1)
        assert "seeds" in table.columns
        assert table.metadata["config_sha256"]
        ran += 1
    # the generator is corruption-light by design; most configs should run
    assert attempted == 1000
    assert ran >= 400, f"only {ran} fuzz configs were runnable"
