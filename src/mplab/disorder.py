"""Site disorder: single-site densities and per-site random fields on boxes.

Every site of a box gets its own counter-based substream (Philox keyed by
(ensemble seed, site key), the key an exact packing of the site's at most
4 coordinates), so realizations are reproducible site by site,
independent across sites, and stable under box enlargement: sampling a
sub-box reproduces exactly the values the parent box assigns to the shared
sites. Conditional resampling redraws marked sites from fresh counter tags
while leaving every other value bit-identical, which is what the
conditional-expectation arguments in the diagnostics need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import Box
from .streams import philox_u01


def site_keys(coords) -> np.ndarray:
    """Deterministic 64-bit stream keys of sites in absolute coordinates,
    given as an integer array of shape (..., d); the keys have shape (...).

    The packing is exact and injective for d <= 4: each signed coordinate
    takes 64//d bits of the key. A larger d raises ValueError.
    """
    coords = np.asarray(coords, dtype=np.int64)
    d = coords.shape[-1]
    if d > 4:
        raise ValueError(f"site keys pack at most 4 coordinates, got d={d}")
    bits = 64 // d
    offset = 1 << (bits - 1)
    outside = (coords < -offset) | (coords >= offset)
    if outside.any():
        c = coords[outside].flat[0]
        raise ValueError(
            f"coordinate {c} exceeds the +-{offset} packing range for d={d}"
        )
    # c + offset, modulo 2^64, is the coordinate's unsigned lane value
    lanes = coords.astype(np.uint64) + np.uint64(offset)
    keys = lanes[..., 0]
    for j in range(1, d):
        keys = (keys << np.uint64(bits)) | lanes[..., j]
    return keys


# The truncated Gaussian is scipy's truncnorm(-c/sigma, c/sigma, loc=0,
# scale=sigma), written with scipy.special alone: importing scipy's stats
# subpackage costs about a second and 33 MB per process. The code repeats
# scipy 1.17's operations in the same order (rv_continuous.ppf,
# truncnorm_gen, and the central case of truncnorm's log mass, the only
# case a cut at +-cutoff reaches: a < 0 < b), so every value agrees with
# scipy's bit for bit. scipy.special is imported on first use, so
# `import mplab` stays light.


class _TruncatedGaussian:
    """Quantile of N(0, sigma^2) cut to [-cutoff, cutoff], and the log of
    the mass it keeps; a and b are the cut points in units of sigma."""

    def __init__(self, sigma: float, cutoff: float):
        import scipy.special as sc

        self.sigma = sigma
        self.a, self.b = -cutoff / sigma, cutoff / sigma
        # -inf when cutoff/sigma underflows to 0: such a density is rejected
        self.log_mass = sc.log1p(-sc.ndtr(self.a) - sc.ndtr(-self.b))

    def ppf(self, u: np.ndarray) -> np.ndarray:
        import scipy.special as sc

        # `+ 0.0` as in scipy: a quantile of -0.0 comes out as +0.0
        out = np.full(u.shape, np.nan)
        out[u == 0] = self.a * self.sigma + 0.0
        out[u == 1] = self.b * self.sigma + 0.0
        inside = (0 < u) & (u < 1)
        q = u[inside]
        if q.size:
            log_phi = sc.logsumexp(
                [sc.log_ndtr(np.full_like(q, self.a)), np.log(q) + self.log_mass],
                axis=0,
            )
            out[inside] = sc.ndtri_exp(log_phi) * self.sigma + 0.0
        return out


@dataclass(frozen=True)
class DensitySpec:
    """Bounded compactly supported single-site density.

    Kinds: "uniform" on [a, b]; "truncated_gaussian" with scale sigma cut at
    +-cutoff; "piecewise" constant on a break table. Construction validates
    that the parameters and the uniform width are finite, that a piecewise
    table integrates to 1 within 1e-10 and that a truncated Gaussian keeps a
    representable mass within its cutoff.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if self.kind == "uniform":
            a, b = self.params
            if not a < b:
                raise ValueError(f"uniform needs a < b, got ({a}, {b})")
            if not math.isfinite(b - a):
                raise ValueError(f"uniform needs a finite width b - a, got ({a}, {b})")
        elif self.kind == "truncated_gaussian":
            sigma, cutoff = self.params
            if sigma <= 0 or cutoff <= 0:
                raise ValueError(
                    f"truncated gaussian needs sigma, cutoff > 0, got {self.params}"
                )
            if not (math.isfinite(sigma) and math.isfinite(cutoff)):
                raise ValueError(
                    f"truncated gaussian needs finite sigma, cutoff, got {self.params}"
                )
            gauss = _TruncatedGaussian(sigma, cutoff)
            if not np.isfinite(gauss.log_mass):
                raise ValueError(
                    f"truncated gaussian {self.params} cannot be normalized: "
                    f"the mass within +-cutoff has log {gauss.log_mass}"
                )
            object.__setattr__(self, "_gauss", gauss)
        elif self.kind == "piecewise":
            breaks, dens = self.params
            breaks = tuple(float(x) for x in breaks)
            dens = tuple(float(x) for x in dens)
            object.__setattr__(self, "params", (breaks, dens))
            if len(breaks) != len(dens) + 1:
                raise ValueError("piecewise needs len(breaks) == len(densities) + 1")
            if any(x >= y for x, y in zip(breaks, breaks[1:])):
                raise ValueError(f"piecewise breaks must increase: {breaks}")
            if any(v < 0 for v in dens):
                raise ValueError(f"piecewise densities must be nonnegative: {dens}")
            total = sum(v * (hi - lo) for v, lo, hi in zip(dens, breaks, breaks[1:]))
            # written so that a NaN total, from a non-finite entry, fails too
            if not abs(total - 1.0) <= 1e-10:
                raise ValueError(
                    f"density integrates to {total!r}, expected 1 +- 1e-10"
                )
        else:
            raise ValueError(f"unknown density kind {self.kind!r}")

    # ---------------------------------------------------------- factories

    @classmethod
    def uniform(cls, a: float = -0.5, b: float = 0.5) -> "DensitySpec":
        return cls(kind="uniform", params=(float(a), float(b)))

    @classmethod
    def truncated_gaussian(cls, sigma: float, cutoff: float) -> "DensitySpec":
        return cls(kind="truncated_gaussian", params=(float(sigma), float(cutoff)))

    @classmethod
    def piecewise(cls, breaks, densities) -> "DensitySpec":
        breaks = tuple(float(x) for x in breaks)
        dens = tuple(float(x) for x in densities)
        mass = sum(
            v * (hi - lo) for v, lo, hi in zip(dens, breaks, breaks[1:])
        )
        if mass <= 0:
            raise ValueError("piecewise table carries no mass")
        dens = tuple(v / mass for v in dens)  # normalize exactly
        return cls(kind="piecewise", params=(breaks, dens))

    # -------------------------------------------------------- evaluation

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return self.params
        if self.kind == "truncated_gaussian":
            sigma, cutoff = self.params
            return (-cutoff, cutoff)
        breaks, _ = self.params
        return (breaks[0], breaks[-1])

    def ppf(self, u):
        """Quantile function on [0, 1], elementwise over an array."""
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u > 1.0)):
            raise ValueError("quantile argument outside [0, 1]")
        if self.kind == "uniform":
            a, b = self.params
            out = a + u * (b - a)
        elif self.kind == "truncated_gaussian":
            out = self._gauss.ppf(u)
        else:
            breaks, dens = self.params
            lo = np.asarray(breaks[:-1])
            rho = np.asarray(dens)
            mass = rho * (np.asarray(breaks[1:]) - lo)
            cum = np.concatenate(([0.0], np.cumsum(mass)))
            cum[-1] = 1.0  # absorb rounding in the last bin
            # leftmost bin whose cumulative mass reaches u, skipping zero bins
            idx = np.clip(np.searchsorted(cum, u, side="left") - 1, 0, len(rho) - 1)
            idx = np.where(u <= 0.0, np.argmax(rho > 0), idx)
            safe_rho = np.where(rho[idx] > 0, rho[idx], 1.0)
            out = lo[idx] + (u - cum[idx]) / safe_rho
        return out


UNIFORM_HALF = DensitySpec.uniform(-0.5, 0.5)


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One draw of the site field on a box, values indexed by site rank."""

    box: Box
    density: DensitySpec
    seed: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _draw(density: DensitySpec, seed: int, coords, tags) -> np.ndarray:
    """One value per site and tag, each from that site's own substream at
    that counter tag; coords (sites, d) against tags (rows, 1) give rows of
    sites.

    The uniforms come from one Philox pass over all (site, tag) pairs, as
    the (seed, site) contract needs; the quantile map then runs once over
    the whole array.
    """
    u = philox_u01(seed, site_keys(coords), tags)
    return density.ppf(u.ravel()).reshape(u.shape)


def sample(box: Box, density: DensitySpec, seed: int) -> DisorderRealization:
    """Draw the base field: one independent substream per site, tag 0.

    Site k takes density.ppf of the first uniform of the Philox stream keyed
    by (seed, site_keys(site k)); the quantile is evaluated for all sites in
    one call, which gives the same values as one call per site.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    vals = _draw(density, seed, box.coords(np.arange(box.volume)), 0)
    return DisorderRealization(box=box, density=density, seed=seed, values=vals)


def resample_batch(real: DisorderRealization, sites, subseeds):
    """Redraw the marked sites once per subseed, in order; subseed k draws
    from substream tag k + 1 and leaves every other site untouched.

    Tag 0 is the base draw, so subseed 0 already yields fresh values. A
    subseed lies in [0, 2^64 - 1), so that its tag fits in 64 bits.
    Different subseeds give independent redraws of the same sites. The
    marked sites of every subseed are drawn in one Philox pass and one
    quantile call, and each row is written over a copy of the frozen base.
    """
    subseeds = [int(k) for k in subseeds]
    # subseed k draws at counter tag k + 1, and tags end at 2^64 - 1
    if not all(0 <= k < 2**64 - 1 for k in subseeds):
        raise ValueError("subseed must lie in [0, 2^64 - 1)")
    marked = tuple(tuple(s) for s in sites)
    if not marked:
        raise ValueError("no sites marked for resampling")
    ranks = [real.box.encode(s) for s in marked]
    tags = np.array([k + 1 for k in subseeds], dtype=np.uint64)
    rows = _draw(real.density, real.seed, real.box.coords(ranks), tags[:, None])
    for row in rows:
        vals = np.array(real.values)
        vals[ranks] = row
        yield DisorderRealization(
            box=real.box,
            density=real.density,
            seed=real.seed,
            values=vals,
        )

