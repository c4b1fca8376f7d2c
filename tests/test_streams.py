"""mplab's own random streams against numpy's, bit for bit.

numpy's Philox and default_rng are the oracles here; mplab itself never
imports numpy's random subpackage, which the subprocess test checks.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mplab.streams import Stream, philox_u01

_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]


def _numpy_u01(seed: int, key: int, tag: int) -> float:
    bg = np.random.Philox(
        key=np.array([seed, key], dtype=np.uint64),
        counter=np.array([tag, 0, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bg).random()


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_philox_equals_numpy_on_edges_and_random_words():
    """Seeds, keys and tags at the 64-bit edges (the tag 2^64 - 1 carries
    into counter word 1) and at random words, drawn two ways: broadcast
    keys x tags in one call, and one row per tag."""
    rng = np.random.default_rng(2024)
    words = _EDGES + [int(w) for w in rng.integers(0, 2**64, 8, dtype=np.uint64)]
    keys = np.array(words, dtype=np.uint64)
    for seed in _EDGES[::2] + words[-3:]:
        ref = [[_numpy_u01(seed, key, tag) for key in words] for tag in words]
        grid = philox_u01(seed, keys[None, :], keys[:, None])
        assert grid.shape == (len(words), len(words))
        assert (_bits(grid) == _bits(ref)).all()
        rows = [philox_u01(seed, keys, tag) for tag in words]
        assert (_bits(rows) == _bits(ref)).all()


def test_philox_takes_scalars_and_empty_arrays():
    assert _bits(philox_u01(5, 7, 2**64 - 1)) == _bits(_numpy_u01(5, 7, 2**64 - 1))
    assert philox_u01(5, np.zeros(0, dtype=np.uint64), 0).shape == (0,)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
@pytest.mark.parametrize("count", [1, 40])
def test_philox_rejects_seeds_outside_64_bits(seed, count):
    """A seed was once reduced modulo 2^64, so 2^64 drew what 0 draws."""
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        philox_u01(seed, np.arange(count, dtype=np.uint64), 0)


def _entropies(rng):
    """Entropy of one to six words, some past 2^32, 2^64 and up to 2^100,
    and plain integers."""
    out = [0, 1, 2**32, 2**64, 2**100 - 1, [0], [0, 0, 0, 0, 0], [2**64 + 5, 3]]
    for _ in range(60):
        bits = int(rng.integers(1, 101))
        words = [int(rng.integers(0, 2**62)) << max(bits - 62, 0)
                 for _ in range(int(rng.integers(1, 7)))]
        out.append(words if rng.random() < 0.8 else words[0])
    return out


# (low, high) pairs below the 2^32 range cap: widths 1, 2, 3, 6, 2000,
# 2^31 and 2^32 - 1, with negative lows and both int64 ends
_RANGES = [
    (0, 1), (-5, -4), (0, 2**31), (0, 2**32 - 1), (-7, 2**32 - 8),
    (-(2**31), 2**31 - 1), (-(2**40), -(2**40) + 2**31), (-(2**63), -(2**63) + 2),
    (2**63 - 6, 2**63), (0, 3), (-1000, 1000), (5, 11),
]

# widths of 2^32 and more, which no run draws: rejected, not drawn
_WIDE = [
    (0, 2**32), (-(2**31), 2**31), (-7, 2**32 + 1), (0, 2**40), (-(2**40), 3),
    (0, 2**63), (-(2**63), 0), (-(2**63), 2**63), (0, 2**63 + 1),
    (-(2**63) - 1, 0),
]


def test_stream_equals_default_rng():
    """integers over every range above, integers(high) and uniform, drawn
    in a seeded random order, so the buffered 32-bit half is crossed with
    every other draw."""
    rng = np.random.default_rng(7)
    for entropy in _entropies(rng):
        ours, ref = Stream(entropy), np.random.default_rng(entropy)
        for _ in range(40):
            pick = int(rng.integers(3))
            if pick == 0:
                low, high = _RANGES[int(rng.integers(len(_RANGES)))]
                assert ours.integers(low, high) == int(ref.integers(low, high))
            elif pick == 1:
                high = int(rng.integers(1, 2**32))
                assert ours.integers(high) == int(ref.integers(high))
            else:
                lo = float(rng.normal(0.0, 10.0))
                hi = lo + float(rng.exponential(5.0))
                assert _bits(ours.uniform(lo, hi)) == _bits(ref.uniform(lo, hi))


def test_stream_draw_types_and_rejections():
    s = Stream([3, 0xC0, 1])
    assert type(s.integers(10)) is int and type(s.uniform(0.0, 1.0)) is float
    # a range of one value draws nothing: the next draw is unchanged
    a, b = Stream(9), Stream(9)
    assert a.integers(4, 5) == 4
    assert a.integers(2**31) == b.integers(2**31)
    for low, high in [(0, 0), (3, 2), *_WIDE]:
        with pytest.raises(ValueError, match=r"0 < high - low < 2\^32"):
            s.integers(low, high)
    for high in (0, -1, 2**32, 2**40):
        with pytest.raises(ValueError):
            s.integers(high)
    # a rejected range draws nothing either
    c, d = Stream(9), Stream(9)
    with pytest.raises(ValueError):
        c.integers(0, 2**40)
    assert c.integers(2**31) == d.integers(2**31)
    with pytest.raises(ValueError):
        Stream(-1)
    with pytest.raises(OverflowError):
        s.uniform(-1e308, 1e308)


# ------------------------------------------- no run loads numpy's random

_RUNS = textwrap.dedent(
    """
    import json, sys
    import mplab, mplab.cli
    from mplab.harness import run, validate

    configs = json.loads(sys.argv[1])
    loaded = []
    for cfg in configs:
        assert validate(cfg) == [], (cfg["kind"], validate(cfg))
        run(cfg, workers=1)
        loaded.append(
            sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])
        )
    print(json.dumps(loaded))
    """
)


def _light_configs(out_dir):
    out = {"directory": str(out_dir), "formats": ["csv"]}
    pair_nn = {"builtin": "pair_nn", "coupling": 0.2, "range": 1}
    configs = [
        {"kind": "rescaling", "model": {"L": 4, "lambda": 10.0},
         "ensemble": {"count": 2}, "params": {"omega_samples": 2}},
        {"kind": "composite_check",
         "model": {"L": 4, "n": 2, "lambda": 5.0, "interaction": pair_nn},
         "params": {"instances": 2, "dim_cap": 6, "quadrature_points": 16}},
        {"kind": "subadditivity",
         "model": {"L": 4, "n": 2, "lambda": 2.0, "interaction": pair_nn},
         "ensemble": {"count": 1}, "params": {"instances": 2, "dim_cap": 6}},
        {"kind": "wegner", "model": {"L": 4, "n": 2, "lambda": 4.0},
         "ensemble": {"count": 3}, "params": {"z_count": 2}},
        {"kind": "decay_probe", "model": {"L": 8, "lambda": 8.0},
         "ensemble": {"count": 2}},
    ]
    return [{**cfg, "output": out} for cfg in configs]


def test_no_run_imports_numpy_random(tmp_path):
    """Validating and running uniform-density configs of five kinds, after
    importing mplab and its CLI, leaves numpy's random subpackage unloaded.
    (A truncated-Gaussian density loads scipy.special, which imports it.)"""
    configs = _light_configs(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _RUNS, json.dumps(configs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    kinds = [cfg["kind"] for cfg in configs]
    assert loaded == [[]] * len(configs), list(zip(kinds, loaded))
