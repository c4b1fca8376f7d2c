import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mplab.configspace import (
    Box,
    ConfigIndex,
    Configuration,
    diameter,
    hausdorff_dist,
    occupation,
    site_dist,
    symmetrized_dist,
)


# ---------------------------------------------------------------- oracles


def brute_diameter(sites, norm):
    return max(
        (site_dist(p, q, norm) for p, q in itertools.combinations(sites, 2)),
        default=0,
    )


def brute_hausdorff(xs, ys, norm):
    xs, ys = set(xs), set(ys)
    a = max(min(site_dist(p, q, norm) for q in ys) for p in xs)
    b = max(min(site_dist(q, p, norm) for p in xs) for q in ys)
    return max(a, b)


def brute_symmetrized(xs, ys, norm):
    return min(
        sum(site_dist(p, q, norm) for p, q in zip(xs, perm))
        for perm in itertools.permutations(ys)
    )


# ----------------------------------------------------------------- boxes


def test_box_encode_decode_roundtrip():
    box = Box(d=2, side=4, origin=(-1, 3))
    seen = set()
    for k in range(box.volume):
        s = box.decode(k)
        assert box.contains(s)
        assert box.encode(s) == k
        seen.add(s)
    assert len(seen) == 16


def test_centered_box_contains_origin():
    for side in (2, 3, 8, 9):
        box = Box.centered(d=2, side=side)
        assert box.contains((0, 0))
    assert Box.centered(d=1, side=8).origin == (-4,)


def test_boundary_sites_1d_are_endpoints():
    box = Box(d=1, side=5)
    assert set(box.boundary_sites()) == {(0,), (4,)}


def test_boundary_sites_2d_count():
    box = Box(d=2, side=4)
    # perimeter of a 4x4 grid
    assert len(box.boundary_sites()) == 16 - 4


def test_box_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Box(d=0, side=3)
    with pytest.raises(ValueError):
        Box(d=1, side=0)
    with pytest.raises(ValueError):
        Box(d=2, side=3).encode((5, 5))


# -------------------------------------------------------------- geometry


def test_occupation_counts_multiplicity():
    c = Configuration(sites=((0,), (0,), (1,)))
    assert occupation(c, (0,)) == 2
    assert occupation(c, (1,)) == 1
    assert occupation(c, (7,)) == 0


def test_diameter_examples():
    c = Configuration(sites=((0, 0), (2, 3)))
    assert diameter(c) == 5
    assert diameter(c, norm="linf") == 3
    assert diameter(Configuration(sites=((4, 4),))) == 0


def test_hausdorff_translated_pair():
    a = Configuration(sites=((0,), (1,)))
    b = Configuration(sites=((10,), (11,)))
    assert hausdorff_dist(a, b) == 10


def test_hausdorff_blind_to_multiplicity():
    # same supports, different occupations: Hausdorff 0, symmetrized 1
    p = Configuration(sites=((0,), (0,), (1,)))
    q = Configuration(sites=((0,), (1,), (1,)))
    assert hausdorff_dist(p, q) == 0
    assert symmetrized_dist(p, q) == 1


def test_symmetrized_is_order_insensitive():
    a = Configuration(sites=((0,), (5,)))
    b = Configuration(sites=((5,), (0,)))
    assert symmetrized_dist(a, b) == 0


def test_symmetrized_particle_cap():
    sites = tuple((j,) for j in range(9))
    a = Configuration(sites=sites)
    with pytest.raises(ValueError, match="capped"):
        symmetrized_dist(a, a)


def test_norm_argument_rejected_if_unknown():
    a = Configuration(sites=((0,), (1,)))
    with pytest.raises(ValueError):
        hausdorff_dist(a, a, norm="l2")


sites_strategy = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=4
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(sites_strategy, st.sampled_from(["l1", "linf"]))
def test_diameter_matches_brute(sites, norm):
    c = Configuration(sites=sites)
    assert diameter(c, norm) == brute_diameter(sites, norm)


@settings(max_examples=200, deadline=None)
@given(sites_strategy, sites_strategy, st.sampled_from(["l1", "linf"]))
def test_hausdorff_matches_brute_and_is_symmetric(xs, ys, norm):
    x, y = Configuration(sites=xs), Configuration(sites=ys)
    d = hausdorff_dist(x, y, norm)
    assert d == brute_hausdorff(xs, ys, norm)
    assert d == hausdorff_dist(y, x, norm)
    assert d >= 0
    assert (d == 0) == (set(xs) == set(ys))


@settings(max_examples=150, deadline=None)
@given(sites_strategy, sites_strategy, sites_strategy, st.sampled_from(["l1", "linf"]))
def test_hausdorff_triangle_inequality(xs, ys, zs, norm):
    x, y, z = (Configuration(sites=s) for s in (xs, ys, zs))
    assert hausdorff_dist(x, z, norm) <= hausdorff_dist(x, y, norm) + hausdorff_dist(
        y, z, norm
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.tuples(st.integers(-5, 5)), min_size=n, max_size=n
            ).map(tuple),
            st.lists(
                st.tuples(st.integers(-5, 5)), min_size=n, max_size=n
            ).map(tuple),
        )
    ),
    st.sampled_from(["l1", "linf"]),
)
def test_symmetrized_matches_brute_assignment(pair, norm):
    xs, ys = pair
    x, y = Configuration(sites=xs), Configuration(sites=ys)
    d = symmetrized_dist(x, y, norm)
    assert d == brute_symmetrized(xs, ys, norm)
    assert d == symmetrized_dist(y, x, norm)
    # Hausdorff on supports never exceeds the transport cost
    assert hausdorff_dist(x, y, norm) <= d


# ---------------------------------------------------------------- sectors


def test_sector_order_validation():
    Configuration(sites=((0,), (0,), (1,)), sector="boson")
    with pytest.raises(ValueError):
        Configuration(sites=((1,), (0,)), sector="boson")
    Configuration(sites=((0,), (2,)), sector="fermion")
    with pytest.raises(ValueError):
        Configuration(sites=((0,), (0,)), sector="fermion")
    with pytest.raises(ValueError):
        Configuration(sites=((3,), (3,)), sector="hardcore")
    # hardcore tolerates any order of distinct sites
    Configuration(sites=((5,), (1,)), sector="hardcore")


def test_configuration_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        Configuration(sites=((0,), (0, 1)))


def test_boson_enumeration_side2():
    ix = ConfigIndex(Box(d=1, side=2), n=2, sector="boson")
    assert ix.size == 3
    got = [c.sites for c in ix.enumerate()]
    assert got == [((0,), (0,)), ((0,), (1,)), ((1,), (1,))]


@pytest.mark.parametrize(
    "sector,expected",
    [
        ("distinguishable", lambda V, n: V**n),
        ("boson", lambda V, n: math.comb(V + n - 1, n)),
        ("fermion", lambda V, n: math.comb(V, n)),
        ("hardcore", lambda V, n: math.comb(V, n)),
    ],
)
@pytest.mark.parametrize("d,side,n", [(1, 5, 2), (1, 4, 3), (2, 3, 2), (2, 2, 3)])
def test_sector_sizes(sector, expected, d, side, n):
    box = Box(d=d, side=side)
    ix = ConfigIndex(box, n=n, sector=sector)
    assert ix.size == expected(box.volume, n)


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
@pytest.mark.parametrize("d,side,n", [(1, 4, 2), (1, 3, 3), (2, 3, 2)])
def test_index_bijection_exhaustive(sector, d, side, n):
    ix = ConfigIndex(Box(d=d, side=side), n=n, sector=sector)
    seen = set()
    for k, cfg in enumerate(ix.enumerate()):
        assert cfg.sector == sector
        assert ix.index_of(cfg) == k
        assert cfg.sites not in seen
        seen.add(cfg.sites)
    assert len(seen) == ix.size


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
@pytest.mark.parametrize(
    "box,n",
    [(Box(d=1, side=6, origin=(-3,)), 3), (Box(d=2, side=3, origin=(2, -5)), 2)],
)
def test_rank_forms_agree_on_shifted_boxes(sector, box, n):
    ix = ConfigIndex(box, n=n, sector=sector)
    assert ix.index_of_ranks(ix.site_ranks).tolist() == list(range(ix.size))
    assert list(ix.enumerate()) == [ix.config_at(k) for k in range(ix.size)]


@pytest.mark.parametrize("sector", ["fermion", "boson", "distinguishable"])
def test_rank_refuses_spaces_beyond_int64(sector):
    # d=3, side 100, n=4: sizes 4.2e22 (fermion, boson) and 1e24 exceed
    # int64, so ranks cannot be intp; both directions raise, not wrap
    ix = ConfigIndex(Box(d=3, side=100), n=4, sector=sector)
    assert ix.size > 2**63
    for k in (0, ix.size // 3, ix.size - 1):
        with pytest.raises(OverflowError):
            ix.config_at(k)
    top = Configuration(sites=[(99, 99, z) for z in (96, 97, 98, 99)], sector=sector)
    with pytest.raises(OverflowError):
        ix.index_of(top)
    with pytest.raises(ValueError, match="out of range"):
        ix.config_at(ix.size)


def test_fermion_exhaustive_against_combinations():
    box = Box(d=1, side=6)
    ix = ConfigIndex(box, n=3, sector="fermion")
    expect = [
        tuple((v,) for v in combo)
        for combo in itertools.combinations(range(6), 3)
    ]
    assert [c.sites for c in ix.enumerate()] == expect


def test_boson_exhaustive_against_multisets():
    box = Box(d=1, side=4)
    ix = ConfigIndex(box, n=2, sector="boson")
    expect = [
        tuple((v,) for v in combo)
        for combo in itertools.combinations_with_replacement(range(4), 2)
    ]
    assert [c.sites for c in ix.enumerate()] == expect


def test_hardcore_index_ignores_order():
    ix = ConfigIndex(Box(d=2, side=3), n=3, sector="hardcore")
    cfg = ix.config_at(17)
    shuffled = Configuration(
        sites=(cfg.sites[1], cfg.sites[2], cfg.sites[0]), sector="hardcore"
    )
    assert ix.index_of(shuffled) == 17


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
@pytest.mark.parametrize(
    "d,side,n",
    [(1, 1, 1), (1, 4, 4), (1, 8, 3), (2, 9, 40), (3, 100, 4), (1, 8, 5000),
     (1, 1000, 400), (1, 10**40, 3), (1, 10**40, 150), (1, 2**1100, 120)],
    ids=lambda v: f"~10^{int(math.log10(v))}" if v > 10**6 else None,
)
def test_log10_size_matches_the_exact_size(sector, d, side, n):
    if sector in ("fermion", "hardcore") and n > side**d:
        return
    ix = ConfigIndex(Box(d=d, side=side), n=n, sector=sector)
    assert math.isclose(ix.log10_size(), math.log10(ix.size), rel_tol=1e-12, abs_tol=1e-8)


def test_log10_size_past_the_float_range_is_inf():
    assert ConfigIndex(Box(d=1, side=1), n=10**400).log10_size() == 0.0
    assert ConfigIndex(Box(d=1, side=8), n=10**400).log10_size() == math.inf


def test_too_many_excluding_particles_rejected():
    with pytest.raises(ValueError):
        ConfigIndex(Box(d=1, side=3), n=4, sector="fermion")


def test_index_rejects_sector_mismatch():
    ix = ConfigIndex(Box(d=1, side=4), n=2, sector="boson")
    with pytest.raises(ValueError):
        ix.index_of(Configuration(sites=((0,), (1,))))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["distinguishable", "boson", "fermion", "hardcore"]),
    st.integers(2, 5),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_index_roundtrip_random(sector, side, n, k):
    box = Box(d=1, side=side, origin=(-2,))
    if sector in ("fermion", "hardcore") and n > box.volume:
        return
    ix = ConfigIndex(box, n=n, sector=sector)
    k = k % ix.size
    assert ix.index_of(ix.config_at(k)) == k
