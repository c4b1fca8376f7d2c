import itertools

import numpy as np
import pytest
from scipy import stats

from mplab.configspace import Box
from mplab.disorder import (
    UNIFORM_HALF,
    DensitySpec,
    resample_batch,
    sample,
    site_keys,
)
from mplab.harness import validate


# ---------------------------------------------------------------- densities


def test_uniform_support_and_ppf():
    d = DensitySpec.uniform(-0.5, 0.5)
    assert d.support == (-0.5, 0.5)
    assert d.ppf(0.0) == -0.5 and d.ppf(1.0) == 0.5
    assert d.ppf(0.5) == 0.0
    assert d.ppf(0.25) == -0.25


def test_truncated_gaussian_properties():
    d = DensitySpec.truncated_gaussian(sigma=1.0, cutoff=2.0)
    assert d.support == (-2.0, 2.0)
    assert d.ppf(0.0) == -2.0 and d.ppf(1.0) == 2.0
    assert d.ppf(0.5) == pytest.approx(0.0, abs=1e-12)
    # the density is even, so the quantile is odd about u = 1/2
    for u in (0.1, 0.25, 0.4):
        assert d.ppf(1.0 - u) == pytest.approx(-d.ppf(u), abs=1e-12)


def test_piecewise_table():
    d = DensitySpec.piecewise(breaks=(-1, 0, 1), densities=(1, 3))
    assert d.params == ((-1.0, 0.0, 1.0), (0.25, 0.75))
    assert d.ppf(0.25) == pytest.approx(0.0)
    assert d.ppf(0.125) == pytest.approx(-0.5)
    assert d.ppf(0.625) == pytest.approx(0.5)
    assert d.ppf(1.0) == 1.0


# the bins [-1, 0], [0, 1], [1, 2] with one zero-density bin, and the
# quantiles at u = 0, just past 0, 0.5 (the inner cumulative edge), just
# past 0.5, and 1
_ZERO_BIN_TABLES = {
    "leading": ((0, 1, 1), [0.0, 1e-323, 1.0, 1.0 + 2.0**-52, 2.0]),
    "inner": ((1, 0, 1), [-1.0, -1.0, 0.0, 1.0 + 2.0**-52, 2.0]),
    "trailing": ((1, 1, 0), [-1.0, -1.0, 0.0, 2.0**-52, 1.0]),
}


@pytest.mark.parametrize("where", sorted(_ZERO_BIN_TABLES))
def test_piecewise_ppf_skips_zero_density_bins(where):
    """No quantile falls inside a zero-density bin: u = 0 maps to the left
    end of the first bin with mass, u at a cumulative edge to the right end
    of the bin below it, and u just past an edge into the next bin with
    mass."""
    dens, expect = _ZERO_BIN_TABLES[where]
    d = DensitySpec.piecewise((-1, 0, 1, 2), dens)
    u = [0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(0.5, 1.0), 1.0]
    assert d.ppf(np.array(u)).tolist() == expect
    assert [d.ppf(x) for x in u] == expect


@pytest.mark.parametrize(
    "make",
    [
        lambda: DensitySpec.uniform(0.5, -0.5),
        lambda: DensitySpec.truncated_gaussian(sigma=-1, cutoff=1),
        lambda: DensitySpec.truncated_gaussian(sigma=1, cutoff=0),
        lambda: DensitySpec.piecewise(breaks=(0, 1), densities=(1, 1)),
        lambda: DensitySpec.piecewise(breaks=(1, 0), densities=(1,)),
        lambda: DensitySpec.piecewise(breaks=(0, 1), densities=(-1,)),
        lambda: DensitySpec.piecewise(breaks=(0, 1, 2), densities=(0, 0)),
    ],
)
def test_bad_densities_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_truncated_gaussian_without_mass_rejected():
    # cutoff/sigma = 1e-17: the mass inside underflows to 0, so the log mass
    # is -inf and every quantile would be 0.0
    with pytest.raises(ValueError, match="cannot be normalized"):
        DensitySpec.truncated_gaussian(sigma=1.0, cutoff=1e-17)
    cfg = {
        "kind": "decay_probe",
        "model": {"density": {"kind": "truncated_gaussian", "params": [1.0, 1e-17]}},
    }
    violations = validate(cfg)
    assert len(violations) == 1
    assert violations[0].startswith("model.density: truncated gaussian")
    # a small but representable mass still validates
    cfg["model"]["density"]["params"] = [1.0, 1e-8]
    assert validate(cfg) == []
    # cutoff/sigma underflows to 0: the mass is exactly 0, not a round-off
    # log mass that would let quantiles fall outside the support +-1e-320
    with pytest.raises(ValueError, match="cannot be normalized"):
        DensitySpec.truncated_gaussian(sigma=1e10, cutoff=1e-320)
    cfg["model"]["density"]["params"] = [1e10, 1e-320]
    violations = validate(cfg)
    assert len(violations) == 1
    assert violations[0].startswith("model.density: truncated gaussian")
    # an infinite sigma is reported as such, before the mass
    with pytest.raises(ValueError, match="needs finite sigma, cutoff"):
        DensitySpec.truncated_gaussian(sigma=float("inf"), cutoff=1.0)


def test_unnormalized_table_rejected_by_raw_constructor():
    # factory normalizes, raw constructor validates
    with pytest.raises(ValueError, match="integrates"):
        DensitySpec(kind="piecewise", params=((0.0, 1.0), (2.0,)))


# ----------------------------------------------------------------- sampling


def test_sampling_is_deterministic_and_in_support():
    box = Box(d=2, side=6)
    r1 = sample(box, UNIFORM_HALF, seed=3)
    r2 = sample(box, UNIFORM_HALF, seed=3)
    assert np.array_equal(r1.values, r2.values)
    assert r1.values.min() >= -0.5 and r1.values.max() <= 0.5
    r3 = sample(box, UNIFORM_HALF, seed=4)
    assert not np.array_equal(r1.values, r3.values)


def test_sample_mean_satisfies_clt_envelope():
    # 1e5 iid uniform(-1/2,1/2) values: |mean| <= 3*sd/sqrt(N), sd^2 = 1/12
    box = Box(d=1, side=100_000)
    r = sample(box, UNIFORM_HALF, seed=11)
    assert abs(r.values.mean()) <= 3.0 / np.sqrt(12.0 * box.volume)


def test_sample_uniformity_ks():
    box = Box(d=1, side=20_000)
    r = sample(box, UNIFORM_HALF, seed=5)
    stat = stats.kstest(r.values, stats.uniform(loc=-0.5, scale=1).cdf).statistic
    assert stat < 0.02


def test_truncated_gaussian_sampling_moments():
    box = Box(d=1, side=20_000)
    d = DensitySpec.truncated_gaussian(sigma=1.0, cutoff=2.0)
    r = sample(box, d, seed=9)
    assert abs(r.values.mean()) < 0.02
    var = stats.truncnorm(-2, 2).var()
    assert r.values.var() == pytest.approx(var, rel=0.05)


def test_subbox_values_match_parent():
    # box enlargement keeps shared sites bit-identical: substreams are keyed
    # by absolute coordinates, not box-local ranks
    parent = Box(d=2, side=8, origin=(-4, -4))
    child = Box(d=2, side=3, origin=(-1, 0))
    rp = sample(parent, UNIFORM_HALF, seed=21)
    rc = sample(child, UNIFORM_HALF, seed=21)
    for s in child.sites():
        assert rc.values[child.encode(s)] == rp.values[parent.encode(s)]


def test_independence_across_sites():
    # correlation of neighbouring site values across many seeds stays small
    box = Box(d=1, side=2)
    a = np.empty(10_000)
    b = np.empty(10_000)
    for seed in range(10_000):
        r = sample(box, UNIFORM_HALF, seed=seed)
        a[seed], b[seed] = r.values
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.03


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        sample(Box(d=1, side=2), UNIFORM_HALF, seed=-1)


# --------------------------------------------------------------- resampling


def test_resample_touches_only_marked_sites():
    box = Box(d=1, side=12)
    base = sample(box, UNIFORM_HALF, seed=2)
    marked = [(3,), (7,)]
    r, again, r1 = resample_batch(base, marked, [0, 0, 1])
    changed = set(np.nonzero(r.values != base.values)[0].tolist())
    assert changed == {3, 7}
    # same subseed reproduces, different subseed differs
    assert np.array_equal(again.values, r.values)
    assert r1.values[3] != r.values[3]


def test_resample_subseed_zero_differs_from_base():
    # base draw is tag 0, subseed k is tag k+1, so no subseed replays the base
    box = Box(d=1, side=4)
    base = sample(box, UNIFORM_HALF, seed=13)
    (r,) = resample_batch(base, [(1,)], [0])
    assert r.values[1] != base.values[1]


def test_resample_rejects_the_subseed_whose_tag_wraps_to_the_base():
    # subseed 2^64 - 1 would draw at tag 2^64, which once wrapped to 0
    base = sample(Box(d=1, side=4), UNIFORM_HALF, seed=13)
    with pytest.raises(ValueError, match=r"subseed must lie in \[0, 2\^64 - 1\)"):
        list(resample_batch(base, [(1,)], [2**64 - 1]))
    (last,) = resample_batch(base, [(1,)], [2**64 - 2])
    assert last.values[1] != base.values[1]


def test_resampled_values_follow_density():
    box = Box(d=1, side=2)
    base = sample(box, UNIFORM_HALF, seed=1)
    draws = np.array([r.values[0] for r in resample_batch(base, [(0,)], range(10_000))])
    assert stats.kstest(draws, stats.uniform(loc=-0.5, scale=1).cdf).statistic < 0.02


def test_resample_pair_joint_independence():
    box = Box(d=1, side=3)
    base = sample(box, UNIFORM_HALF, seed=6)
    pairs = np.array(
        [r.values[[0, 2]] for r in resample_batch(base, [(0,), (2,)], range(10_000))]
    )
    u, v = pairs.T
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.03
    # and independent of the untouched middle value
    assert np.all(base.values[1] == base.values[1])


def test_resample_argument_validation():
    box = Box(d=1, side=4)
    base = sample(box, UNIFORM_HALF, seed=0)
    with pytest.raises(ValueError):
        list(resample_batch(base, [], [0]))
    with pytest.raises(ValueError):
        list(resample_batch(base, [(0,)], [-2]))
    with pytest.raises(ValueError):
        list(resample_batch(base, [(99,)], [0]))


def test_realization_values_are_readonly():
    r = sample(Box(d=1, side=3), UNIFORM_HALF, seed=0)
    with pytest.raises(ValueError):
        r.values[0] = 0.0


# ------------------------------------------------------------------- keys


def test_site_keys_injective_for_small_dims():
    sites = list(itertools.product(range(-20, 21), repeat=2))
    keys = site_keys(sites)
    assert keys.shape == (len(sites),)
    assert len(set(keys.tolist())) == len(sites)


def test_site_key_range_check():
    with pytest.raises(ValueError):
        site_keys([(1 << 40, 0)])  # too wide for the 2d packing


def test_site_keys_reject_more_than_four_coordinates():
    with pytest.raises(ValueError, match="at most 4 coordinates, got d=5"):
        site_keys(np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ValueError, match="at most 4 coordinates, got d=5"):
        sample(Box(d=5, side=2), UNIFORM_HALF, 0)


# ------------------------------------------- batched draw vs per-site path

_DENSITY_KINDS = {
    "uniform": DensitySpec.uniform(-1.0, 2.0),
    "truncated_gaussian": DensitySpec.truncated_gaussian(0.5, 1.0),
    "piecewise": DensitySpec.piecewise([-1.0, -0.5, 0.0, 0.5, 1.0], [1, 0, 2, 1]),
}


def _u01(seed: int, site, tag: int) -> float:
    """The first uniform of numpy's own Philox stream of one site."""
    bg = np.random.Philox(
        key=np.array([seed, site_keys([site])[0]], dtype=np.uint64),
        counter=np.array([tag, 0, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bg).random()


@pytest.mark.parametrize("kind", sorted(_DENSITY_KINDS))
@pytest.mark.parametrize("d, side", [(1, 17), (2, 6)])
def test_draws_equal_per_site_quantiles(kind, d, side):
    """sample and resample_batch give, bit for bit, one density.ppf call per
    site on that site's own uniform."""
    density = _DENSITY_KINDS[kind]
    box = Box(d=d, side=side, origin=(-3,) * d)
    real = sample(box, density, seed=11)
    ref = [density.ppf(_u01(11, box.decode(k), tag=0)) for k in range(box.volume)]
    assert real.values.tobytes() == np.array(ref).tobytes()

    marked = [box.decode(k) for k in (0, 5, box.volume - 1, 5)]
    (redrawn,) = resample_batch(real, marked, [3])
    ref = np.array(real.values)
    for s in marked:
        ref[box.encode(s)] = density.ppf(_u01(11, s, tag=4))
    assert redrawn.values.tobytes() == ref.tobytes()


# ------------------------------------- truncated Gaussian against scipy.stats


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "sigma, cutoff", [(0.5, 1.0), (1.0, 3.0), (0.3, 0.1), (1.0, 8.0), (2.0, 0.7)]
)
def test_truncated_gaussian_matches_scipy_stats(sigma, cutoff):
    """ppf and the log mass within the cutoff equal scipy.stats.truncnorm's
    bit for bit: the quantile on random points, in both tails, at 0 and 1
    and at NaN; the log mass through truncnorm's density at 0."""
    d = DensitySpec.truncated_gaussian(sigma, cutoff)
    ref = stats.truncnorm(-cutoff / sigma, cutoff / sigma, loc=0.0, scale=sigma)
    rng = np.random.default_rng(17)

    tails = 10.0 ** -np.arange(1.0, 300.0, 7.0)
    u = np.concatenate([
        rng.random(20_000),
        tails,
        1.0 - tails,
        [0.0, 1.0, 1e-300, 1.0 - 2.0**-53, 0.5, 2.0**-1074, np.nan],
    ])
    np.testing.assert_array_equal(_bits(d.ppf(u)), _bits(ref.ppf(u)))

    # scalar calls take the same path
    for q in (0.0, 1.0, 1e-300, 1.0 - 2.0**-53, 0.25, np.nan):
        assert _bits(d.ppf(q)) == _bits(ref.ppf(q))

    # truncnorm's density at 0 is exp(-log sqrt(2 pi) - log mass) / sigma
    peak = np.exp(-np.log(np.sqrt(2 * np.pi)) - d._gauss.log_mass) / sigma
    assert _bits(peak) == _bits(ref.pdf(0.0))


@pytest.mark.parametrize("kind", sorted(_DENSITY_KINDS))
def test_resample_batch_equals_one_subseed_batches(kind):
    """One batched redraw gives, row for row, the realization of a
    one-subseed batch; the tag 2^64 - 1 of the last
    subseed carries."""
    box = Box(d=2, side=5)
    base = sample(box, _DENSITY_KINDS[kind], seed=4)
    marked = [box.decode(k) for k in (3, 0, 24, 3)]
    subseeds = [0, 7, 1, 2**64 - 2]
    batch = list(resample_batch(base, marked, subseeds))
    assert len(batch) == len(subseeds)
    for k, real in zip(subseeds, batch):
        (ref,) = resample_batch(base, marked, [k])
        assert real.values.tobytes() == ref.values.tobytes()
    u = _u01(4, marked[0], tag=2**64 - 1)
    got = batch[-1].values[box.encode(marked[0])]
    assert got.tobytes() == _DENSITY_KINDS[kind].ppf(np.array([u])).tobytes()
