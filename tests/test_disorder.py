import numpy as np
import pytest
from scipy import stats

from mplab.configspace import Box
from mplab.disorder import (
    UNIFORM_HALF,
    DensitySpec,
    _u01,
    resample_at,
    sample,
    site_key,
)
from mplab.harness import validate


# ---------------------------------------------------------------- densities


def test_uniform_pdf_cdf_ppf():
    d = DensitySpec.uniform(-0.5, 0.5)
    assert d.support == (-0.5, 0.5)
    assert d.bound == 1.0
    assert d.pdf(0.0) == 1.0
    assert d.pdf(0.7) == 0.0
    assert d.cdf(-0.5) == 0.0
    assert d.cdf(0.0) == 0.5
    assert d.ppf(0.25) == -0.25


def test_truncated_gaussian_properties():
    d = DensitySpec.truncated_gaussian(sigma=1.0, cutoff=2.0)
    assert d.support == (-2.0, 2.0)
    assert d.cdf(2.0) == pytest.approx(1.0, abs=1e-12)
    assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert d.pdf(0.0) == pytest.approx(d.bound)
    assert d.pdf(3.0) == 0.0
    # quantile inverts the cdf
    for u in (0.1, 0.5, 0.9):
        assert d.cdf(d.ppf(u)) == pytest.approx(u, abs=1e-9)


def test_piecewise_table():
    d = DensitySpec.piecewise(breaks=(-1, 0, 1), densities=(1, 3))
    assert d.cdf(0.0) == pytest.approx(0.25)
    assert d.ppf(0.25) == pytest.approx(0.0)
    assert d.ppf(0.125) == pytest.approx(-0.5)
    assert d.pdf(0.5) == pytest.approx(0.75)
    assert d.bound == pytest.approx(0.75)


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
    assert DensitySpec.truncated_gaussian(sigma=1.0, cutoff=1e-8).bound > 0


def test_unnormalized_table_rejected_by_raw_constructor():
    # factory normalizes, raw constructor validates
    with pytest.raises(ValueError, match="integrates"):
        DensitySpec(kind="piecewise", params=((0.0, 1.0), (2.0,)))


def test_density_dict_roundtrip():
    for d in (
        UNIFORM_HALF,
        DensitySpec.truncated_gaussian(1.0, 2.0),
        DensitySpec.piecewise((-1, 0, 2), (0.5, 0.25)),
    ):
        assert DensitySpec.from_dict(d.to_dict()) == d


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
    stat = stats.kstest(r.values, UNIFORM_HALF.cdf).statistic
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
        assert rc.value_at(s) == rp.value_at(s)


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
    r = resample_at(base, marked, subseed=0)
    changed = set(np.nonzero(r.values != base.values)[0].tolist())
    assert changed == {3, 7}
    assert r.history == (((3, 7), 0),)
    # same subseed reproduces, different subseed differs
    assert np.array_equal(resample_at(base, marked, subseed=0).values, r.values)
    r1 = resample_at(base, marked, subseed=1)
    assert r1.values[3] != r.values[3]


def test_resample_subseed_zero_differs_from_base():
    # base draw is tag 0, subseed k is tag k+1, so no subseed replays the base
    box = Box(d=1, side=4)
    base = sample(box, UNIFORM_HALF, seed=13)
    r = resample_at(base, [(1,)], subseed=0)
    assert r.values[1] != base.values[1]


def test_resampled_values_follow_density():
    box = Box(d=1, side=2)
    base = sample(box, UNIFORM_HALF, seed=1)
    draws = np.array(
        [resample_at(base, [(0,)], subseed=k).values[0] for k in range(10_000)]
    )
    assert stats.kstest(draws, UNIFORM_HALF.cdf).statistic < 0.02


def test_resample_pair_joint_independence():
    box = Box(d=1, side=3)
    base = sample(box, UNIFORM_HALF, seed=6)
    u = np.empty(10_000)
    v = np.empty(10_000)
    for k in range(10_000):
        r = resample_at(base, [(0,), (2,)], subseed=k)
        u[k], v[k] = r.values[0], r.values[2]
    assert abs(np.corrcoef(u, v)[0, 1]) < 0.03
    # and independent of the untouched middle value
    assert np.all(base.values[1] == base.values[1])


def test_resample_argument_validation():
    box = Box(d=1, side=4)
    base = sample(box, UNIFORM_HALF, seed=0)
    with pytest.raises(ValueError):
        resample_at(base, [], subseed=0)
    with pytest.raises(ValueError):
        resample_at(base, [(0,)], subseed=-2)
    with pytest.raises(ValueError):
        resample_at(base, [(99,)], subseed=0)


def test_realization_values_are_readonly():
    r = sample(Box(d=1, side=3), UNIFORM_HALF, seed=0)
    with pytest.raises(ValueError):
        r.values[0] = 0.0


# ------------------------------------------------------------------- keys


def test_site_keys_injective_for_small_dims():
    keys = set()
    count = 0
    for a in range(-20, 21):
        for b in range(-20, 21):
            keys.add(site_key((a, b)))
            count += 1
    assert len(keys) == count


def test_site_key_range_check():
    with pytest.raises(ValueError):
        site_key((1 << 40, 0))  # too wide for the 2d packing


# ------------------------------------------- batched draw vs per-site path

_DENSITY_KINDS = {
    "uniform": DensitySpec.uniform(-1.0, 2.0),
    "truncated_gaussian": DensitySpec.truncated_gaussian(0.5, 1.0),
    "piecewise": DensitySpec.piecewise([-1.0, -0.5, 0.0, 0.5, 1.0], [1, 0, 2, 1]),
}


@pytest.mark.parametrize("kind", sorted(_DENSITY_KINDS))
@pytest.mark.parametrize("d, side", [(1, 17), (2, 6)])
def test_draws_equal_per_site_quantiles(kind, d, side):
    """sample and resample_at give, bit for bit, one density.ppf call per
    site on that site's own uniform."""
    density = _DENSITY_KINDS[kind]
    box = Box(d=d, side=side, origin=(-3,) * d)
    real = sample(box, density, seed=11)
    ref = [density.ppf(_u01(11, site_key(box.decode(k)), tag=0)) for k in range(box.volume)]
    assert real.values.tobytes() == np.array(ref).tobytes()

    marked = [box.decode(k) for k in (0, 5, box.volume - 1, 5)]
    redrawn = resample_at(real, marked, subseed=3)
    ref = np.array(real.values)
    for s in marked:
        ref[box.encode(s)] = density.ppf(_u01(11, site_key(s), tag=4))
    assert redrawn.values.tobytes() == ref.tobytes()


# ------------------------------------- truncated Gaussian against scipy.stats


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "sigma, cutoff", [(0.5, 1.0), (1.0, 3.0), (0.3, 0.1), (1.0, 8.0), (2.0, 0.7)]
)
def test_truncated_gaussian_matches_scipy_stats(sigma, cutoff):
    """pdf, cdf, ppf and bound equal scipy.stats.truncnorm bit for bit, on
    random points, in both tails, at the support edges and at inf and NaN."""
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

    edges = []
    for c in (-cutoff, cutoff):
        edges += [c, np.nextafter(c, 0.0), np.nextafter(c, 2.0 * c)]
    x = np.concatenate([
        rng.uniform(-1.2 * cutoff, 1.2 * cutoff, 20_000),
        rng.uniform(-cutoff, cutoff, 20_000) * 1e-6,
        edges,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324],
    ])
    np.testing.assert_array_equal(_bits(d.pdf(x)), _bits(ref.pdf(x)))
    np.testing.assert_array_equal(_bits(d.cdf(x)), _bits(ref.cdf(x)))

    # scalar calls take the same path
    for v in np.concatenate([edges, [0.0, np.inf, -np.inf, np.nan]]):
        assert _bits(d.pdf(float(v))) == _bits(ref.pdf(v))
        assert _bits(d.cdf(float(v))) == _bits(ref.cdf(v))
    for q in (0.0, 1.0, 1e-300, 1.0 - 2.0**-53, 0.25, np.nan):
        assert _bits(d.ppf(q)) == _bits(ref.ppf(q))
    assert _bits(d.bound) == _bits(ref.pdf(0.0))
