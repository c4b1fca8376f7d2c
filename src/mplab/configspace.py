"""Finite boxes in Z^d and n-particle configurations on them.

A configuration is an ordered tuple of n lattice sites inside a box. Four
exchange sectors are supported: distinguishable particles (all tuples),
bosons (canonically non-decreasing tuples), fermions (strictly increasing
tuples), and hardcore particles (distinct sites, order irrelevant). Each
sector carries an explicit ranking bijection onto 0..size-1 so that sparse
operators can be indexed without dictionaries.

Distances between configurations come in two flavours: the symmetrized
(optimal-transport) distance, a true metric on unordered configurations, and
the Hausdorff pseudo-distance between occupied site sets, which is the
quantity the localization bounds are actually expressed in. The two are
deliberately kept distinct; collapsing them loses the physics of clustered
configurations (two configurations can share supports, hence Hausdorff
distance zero, while no particle relabeling maps one to the other).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import magnitude

SECTORS = ("distinguishable", "boson", "fermion", "hardcore")

# Beyond this particle count the n! assignment problem stops being a desk-side
# computation; the cap is explicit rather than silent.
SYMMETRIZED_MAX_PARTICLES = 8

Site = tuple[int, ...]


def site_dist(p: Site, q: Site, norm: str = "l1") -> int:
    """Distance between two sites, l1 (default) or l-infinity."""
    if len(p) != len(q):
        raise ValueError(f"site dimension mismatch: {len(p)} vs {len(q)}")
    diffs = [abs(a - b) for a, b in zip(p, q)]
    if norm == "l1":
        return sum(diffs)
    if norm == "linf":
        return max(diffs)
    raise ValueError(f"unknown norm {norm!r} (expected 'l1' or 'linf')")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of side `side` in Z^d, anchored at `origin`.

    Sites are the integer points origin + [0, side)^d. Single-site encoding
    is row-major in the coordinate offsets.
    """

    d: int
    side: int
    origin: Site = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.side < 1:
            raise ValueError(f"side must be positive, got {self.side}")
        if self.origin is None:
            object.__setattr__(self, "origin", (0,) * self.d)
        else:
            object.__setattr__(self, "origin", tuple(int(c) for c in self.origin))
        if len(self.origin) != self.d:
            raise ValueError(
                f"origin has {len(self.origin)} coordinates, expected {self.d}"
            )

    @classmethod
    def centered(cls, d: int, side: int) -> "Box":
        """Box containing the origin, anchored at -side//2 in every axis."""
        return cls(d=d, side=side, origin=(-(side // 2),) * d)

    @property
    def volume(self) -> int:
        return self.side**self.d

    def contains(self, site: Site) -> bool:
        return len(site) == self.d and all(
            o <= c < o + self.side for c, o in zip(site, self.origin)
        )

    def encode(self, site: Site) -> int:
        """Row-major rank of a site; inverse of decode."""
        if not self.contains(site):
            raise ValueError(f"site {site} outside box {self}")
        k = 0
        for c, o in zip(site, self.origin):
            k = k * self.side + (c - o)
        return k

    def decode(self, k: int) -> Site:
        if not 0 <= k < self.volume:
            raise ValueError(f"site rank {k} out of range for volume {self.volume}")
        return tuple(self.coords(k).tolist())

    def coords(self, ranks) -> np.ndarray:
        """Sites of an integer array of ranks, shape ranks.shape + (d,);
        decode applied elementwise."""
        offsets = np.unravel_index(np.asarray(ranks), (self.side,) * self.d)
        return np.stack(offsets, axis=-1) + np.asarray(self.origin)

    def sites(self):
        """All sites in encoding order."""
        return map(tuple, self.coords(np.arange(self.volume)).tolist())

    def boundary_sites(self) -> tuple[Site, ...]:
        """Sites with at least one coordinate on a face of the box."""
        sites = self.coords(np.arange(self.volume))
        lo = np.asarray(self.origin)
        on_face = ((sites == lo) | (sites == lo + self.side - 1)).any(axis=1)
        return tuple(map(tuple, sites[on_face].tolist()))


def _validate_sector_order(sites: tuple[Site, ...], sector: str) -> None:
    if sector == "fermion":
        for a, b in zip(sites, sites[1:]):
            if a >= b:
                raise ValueError(
                    "fermion configuration must be strictly increasing in "
                    f"lexicographic site order, got {sites}"
                )
    elif sector == "boson":
        for a, b in zip(sites, sites[1:]):
            if a > b:
                raise ValueError(
                    "boson configuration must be non-decreasing in "
                    f"lexicographic site order, got {sites}"
                )
    elif sector == "hardcore":
        if len(set(sites)) != len(sites):
            raise ValueError(f"hardcore configuration has a repeated site: {sites}")


@dataclass(frozen=True)
class Configuration:
    """Ordered n-tuple of sites tagged with its exchange sector."""

    sites: tuple[Site, ...]
    sector: str = "distinguishable"

    def __post_init__(self):
        sites = tuple(tuple(int(c) for c in s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if not sites:
            raise ValueError("configuration needs at least one particle")
        d = len(sites[0])
        if any(len(s) != d for s in sites):
            raise ValueError(f"inconsistent site dimensions in {sites}")
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        _validate_sector_order(sites, self.sector)

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return len(self.sites[0])

    def support(self) -> frozenset[Site]:
        return frozenset(self.sites)


def occupation(config: Configuration, u: Site) -> int:
    """Number of particles of `config` sitting on site `u`."""
    u = tuple(u)
    return sum(1 for s in config.sites if s == u)


def diameter(config: Configuration, norm: str = "l1") -> int:
    """Max pairwise site distance; 0 for a single particle."""
    return max(
        (site_dist(p, q, norm) for p, q in itertools.combinations(config.sites, 2)),
        default=0,
    )


def hausdorff_dist(x: Configuration, y: Configuration, norm: str = "l1") -> int:
    """Hausdorff distance between the occupied site sets.

    A pseudo-metric on configurations: zero iff supports coincide, so
    occupation multiplicities are invisible to it. This is intentional; the
    decay bounds are stated in terms of it.
    """
    xs, ys = x.support(), y.support()
    d_xy = max(min(site_dist(p, q, norm) for q in ys) for p in xs)
    d_yx = max(min(site_dist(q, p, norm) for p in xs) for q in ys)
    return max(d_xy, d_yx)


def symmetrized_dist(x: Configuration, y: Configuration, norm: str = "l1") -> int:
    """Minimal total displacement over particle relabelings.

    min over permutations pi of sum_j dist(x_j, y_pi(j)); a true metric on
    unordered configurations. Solved as an assignment problem; refuses
    n > SYMMETRIZED_MAX_PARTICLES since the instance is dense in n.
    """
    if x.n != y.n:
        raise ValueError(f"particle number mismatch: {x.n} vs {y.n}")
    if x.n > SYMMETRIZED_MAX_PARTICLES:
        raise ValueError(
            f"symmetrized distance capped at n <= {SYMMETRIZED_MAX_PARTICLES}, "
            f"got n = {x.n}"
        )
    from scipy.optimize import linear_sum_assignment  # slow to import, rarely used

    cost = [
        [site_dist(p, q, norm) for q in y.sites] for p in x.sites
    ]
    rows, cols = linear_sum_assignment(cost)
    return int(sum(cost[r][c] for r, c in zip(rows, cols)))


@dataclass(frozen=True)
class ConfigIndex:
    """Ranking bijection between a sector's configurations and 0..size-1.

    Distinguishable: mixed-radix over single-site ranks. Fermion/hardcore:
    lexicographic combination rank of the strictly increasing site ranks
    (hardcore inputs are canonicalized by sorting). Boson: non-decreasing
    tuples mapped to combinations by the staircase shift b_j -> b_j + j.
    index_of_ranks and index_of read one cached weight table, config_at
    and enumerate the cached site_ranks table.
    """

    box: Box
    n: int
    sector: str = "distinguishable"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"particle number must be positive, got {self.n}")
        if self.sector not in SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}")
        if self.sector in ("fermion", "hardcore") and self.n > self.box.volume:
            raise ValueError(
                f"cannot place {magnitude(self.n)} mutually excluding particles "
                f"on {magnitude(self.box.volume)} sites"
            )

    @cached_property
    def size(self) -> int:
        """The number of configurations: V^n, C(V + n - 1, n) for bosons,
        C(V, n) for fermions and hardcore particles."""
        V, n = self.box.volume, self.n
        if self.sector == "distinguishable":
            return V**n
        return math.comb(V + n - 1 if self.sector == "boson" else V, n)

    def log10_size(self) -> float:
        """log10(size) in floats, without building size (V^n at V = 8 and
        n = 10^8 alone takes 37 MB); inf once it passes the float range."""
        V, n = self.box.volume, self.n
        k = V + n - 1 if self.sector == "boson" else V  # the exchange C(k, n)
        m = min(n, k - n)  # C(k, n) = C(k, m)
        try:
            if self.sector == "distinguishable":
                return n * math.log10(V) if V > 1 else 0.0
            if m < 100:  # a product of fewer than 100 factors: exact
                return math.log10(math.comb(k, m))
            # ln k! - ln (k-m)! by Stirling's series to its 1/(12x) terms,
            # with the large terms cancelled in closed form (r = m/k), so
            # that it stays accurate however far k lies above m
            r = m / k
            ratio = -math.log1p(-r) / r if r else 1.0
            ln = m * (math.log(k) - 1 + (1 - r + 1 / (2 * k)) * ratio)
            ln -= m / (12 * k * (k - m))
            return (ln - math.lgamma(m + 1)) / math.log(10)
        except OverflowError:
            return math.inf

    @cached_property
    def site_ranks(self) -> np.ndarray:
        """(size, n) read-only array: row k holds the site ranks of
        config_at(k), in its site order."""
        V, n = self.box.volume, self.n
        if self.sector == "distinguishable":
            rows = itertools.product(range(V), repeat=n)
        elif self.sector == "boson":
            rows = itertools.combinations_with_replacement(range(V), n)
        else:
            rows = itertools.combinations(range(V), n)
        out = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.intp, count=self.size * n
        ).reshape(self.size, n)
        out.setflags(write=False)
        return out

    @cached_property
    def _rank_table(self) -> np.ndarray:
        # The weights every rank operation reads. Distinguishable: the place
        # values V^(n-1-j), so a rank is ranks @ table. Exchange sectors:
        # table[j, c] = C(U-1-c, n-j) over the universe U (V, or V+n-1 for
        # the staircase-shifted bosons), so a rank is the combinatorial
        # number system read from the top, C(U, n) - 1 - sum_j table[j, c_j].
        # Entries with c < j are never read by an increasing tuple and stay
        # 0; every entry read is at most size, so intp is exact while size
        # fits, and a larger space is refused rather than wrapped.
        V, n = self.box.volume, self.n
        if self.size > np.iinfo(np.intp).max:
            raise OverflowError(
                f"{magnitude(self.size)} configurations overflow the intp ranks"
            )
        if self.sector == "distinguishable":
            return np.array([V ** (n - 1 - j) for j in range(n)], dtype=np.intp)
        U = V + n - 1 if self.sector == "boson" else V
        return np.array(
            [
                [math.comb(U - 1 - c, n - j) if c >= j else 0 for c in range(U)]
                for j in range(n)
            ],
            dtype=np.intp,
        )

    def index_of_ranks(self, ranks) -> np.ndarray:
        """index_of for every row of an (m, n) array of site ranks.

        Rows of the exchange sectors may come in any order; they are sorted
        here. Rows are not validated: a fermion row with a repeated site
        gets a meaningless rank.
        """
        ranks = np.asarray(ranks, dtype=np.intp)
        table = self._rank_table
        if self.sector == "distinguishable":
            return ranks @ table
        combos = np.sort(ranks, axis=1)
        if self.sector == "boson":
            combos = combos + np.arange(self.n)
        return self.size - 1 - table[np.arange(self.n), combos].sum(axis=1)

    def index_of(self, config: Configuration) -> int:
        """Rank of a configuration. Hardcore accepts any site order."""
        if config.sector != self.sector:
            raise ValueError(
                f"sector mismatch: index is {self.sector!r}, "
                f"configuration is {config.sector!r}"
            )
        if config.n != self.n:
            raise ValueError(f"particle number mismatch: {config.n} vs {self.n}")
        ranks = [self.box.encode(s) for s in config.sites]
        return int(self.index_of_ranks([ranks])[0])

    def config_at(self, k: int) -> Configuration:
        """Configuration of rank k: row k of site_ranks."""
        if not 0 <= k < self.size:
            raise ValueError(f"index {k} out of range for size {self.size}")
        sites = self.box.coords(self.site_ranks[k]).tolist()
        return Configuration(sites=sites, sector=self.sector)

    def enumerate(self):
        """All configurations in rank order."""
        for sites in self.box.coords(self.site_ranks).tolist():
            yield Configuration(sites=sites, sector=self.sector)
