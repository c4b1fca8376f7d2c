"""Ensemble diagnostics for multi-particle localization.

Monte-Carlo estimates of fractional resolvent moments, conditional
single-site boundedness checks, two-sided decay probes comparing
interval-averaged moments against eigenfunction correlators, a finite-volume
boundary-flux monitor, the doubling check on top of it, and the verdict
rule of one region-scan point (the harness composes the monitor and probe
runs of a scan).

Estimates carry (mean, stderr, count, seeds) and are reproducible: the same
seed set yields bit-identical results. Sup-type quantities (sup over z, sup
over energy intervals, sup over sub-regions) are evaluated on deterministic
finite grids and tile families, so reported values are grid suprema, lower
bounds of the mathematical sup; results flag this explicitly.

Fractional moments with s in (0, 1) have heavy-tailed integrands near the
spectrum (already infinite variance at s = 1/2 for on-axis z), so stderr
values are honest sample statistics, not tail-risk certificates; the
conditional check exists precisely to monitor those means directly.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .configspace import (
    Box,
    ConfigIndex,
    Configuration,
    hausdorff_dist,
    occupation,
)
from .disorder import UNIFORM_HALF, DensitySpec, resample_at, sample
from .errors import BudgetError, SingularityError
from .operator import OperatorSpec, _template_for, gershgorin_interval
from .spectral import (
    DENSE_DIAG_CAP,
    EnergyInterval,
    _green_column,
    correlator,
    green_block,
    green_entries,
    resolvent_weights,
    spectral_data,
)

logger = logging.getLogger("mplab.diagnostics")

DEFAULT_ETA = 1e-6
DEFAULT_QUAD_POINTS = 16
B_MONITOR_QUAD_POINTS = 8
B_PAIR_BUDGET = 1_000_000
# largest pair factor or Green block one monitor product may hold
_BLOCK_BYTES = 32 * 2**20

_NUDGE = 1e-10


def _check_s(s: float) -> float:
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent must lie in (0, 1), got {s}")
    return float(s)


def seed_descriptor(seeds) -> str:
    seeds = [int(v) for v in seeds]
    if not seeds:
        return "none"
    lo, hi = min(seeds), max(seeds)
    if sorted(seeds) == list(range(lo, hi + 1)):
        return f"{lo}..{hi}"
    if len(seeds) <= 8:
        return ",".join(str(v) for v in seeds)
    return f"{len(seeds)} seeds in [{lo}, {hi}]"


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and provenance."""

    mean: float
    stderr: float
    count: int
    seeds: str

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("an ensemble estimate needs at least 2 samples")

    @classmethod
    def from_samples(cls, samples, seeds) -> "Estimate":
        arr = np.asarray(samples, dtype=float)
        if arr.size < 2:
            raise ValueError("an ensemble estimate needs at least 2 samples")
        return cls(
            mean=float(arr.mean()),
            stderr=float(arr.std(ddof=1) / math.sqrt(arr.size)),
            count=int(arr.size),
            seeds=seed_descriptor(seeds),
        )


# ----------------------------------------------------------- shared plumbing


def ensemble_spectra(spec: OperatorSpec, seeds, density: DensitySpec):
    """Yield (seed, SpectralData) per realization, one template for all."""
    if spec.dim > DENSE_DIAG_CAP:
        raise BudgetError(
            f"ensemble eigendecomposition at dimension {spec.dim} exceeds "
            f"cap {DENSE_DIAG_CAP}; fractional_moment solves sparsely above it",
            count=spec.dim,
            limit=DENSE_DIAG_CAP,
        )
    template = _template_for(spec)
    for seed in seeds:
        real = sample(spec.box, density, int(seed))
        yield int(seed), spectral_data(template.hamiltonian(real))


def _nudged(S, zs) -> np.ndarray:
    """zs plus 1e-10i wherever a real z is exactly an eigenvalue of S; one
    warning per call that nudges."""
    zs = np.array(zs, dtype=complex)
    hits = (zs.imag == 0.0) & np.isin(zs.real, S.energies)
    if hits.any():
        logger.warning("z = %s hit an eigenvalue; nudging by +1e-10i", zs[hits])
        zs[hits] += 1j * _NUDGE
    return zs


# --------------------------------------------------------- fractional moment


def fractional_moment(
    seeds,
    spec: OperatorSpec,
    x: Configuration,
    y: Configuration,
    z: complex,
    s: float,
    density: DensitySpec = UNIFORM_HALF,
) -> Estimate:
    """Monte-Carlo estimate of E |G(x, y; z)|^s over the disorder ensemble.

    Up to DENSE_DIAG_CAP configurations the Green entry comes from the
    eigendecomposition, above it from a sparse solve. A solve that lands
    exactly on an eigenvalue (possible for real z) is retried once at
    z + 1e-10i and the nudge is logged; the eigen path applies the same
    nudge on an exact eigenvalue hit.
    """
    s = _check_s(s)
    z = complex(z)
    seeds = [int(v) for v in seeds]
    eigen = spec.dim <= DENSE_DIAG_CAP
    template = _template_for(spec)
    ix, iy = spec.config_index.index_of(x), spec.config_index.index_of(y)
    samples = np.empty(len(seeds))
    for j, seed in enumerate(seeds):
        H = template.hamiltonian(sample(spec.box, density, seed))
        if eigen:
            S = spectral_data(H)
            g = np.abs(green_entries(S, ix, iy, _nudged(S, [z])))[0]
        else:
            try:
                g = abs(_green_column(H.matrix, iy, z)[ix])
            except SingularityError:
                logger.warning(
                    "singular solve at z = %s (seed %d); retrying at +1e-10i",
                    z,
                    seed,
                )
                g = abs(_green_column(H.matrix, iy, z + 1j * _NUDGE)[ix])
        samples[j] = g**s
    return Estimate.from_samples(samples, seeds)


# --------------------------------------------------------- conditional check


@dataclass(frozen=True)
class WegnerReport:
    """Conditional fractional-moment scan over a z grid.

    estimates[k] is the conditional Monte-Carlo mean of |G(x, y; z_k)|^s
    with only the two marked sites resampled; worst is the estimate at the
    worst grid point and c_emp = lambda^s * worst.mean the empirical
    constant that the single-site bound predicts to be O(1) uniformly in z
    and lambda.
    """

    z_grid: tuple
    estimates: tuple
    worst: Estimate
    c_emp: float
    marked: tuple
    s: float


def wegner_samples(
    spec: OperatorSpec,
    base_seed: int,
    x: Configuration,
    y: Configuration,
    marked,
    z_grid,
    s: float,
    subseeds,
    density: DensitySpec = UNIFORM_HALF,
) -> np.ndarray:
    """Conditional sample rows |G(x, y; z)|^s for a block of subseeds.

    Row k depends only on subseeds[k] (frozen background plus one resample
    draw), so a parallel caller may split the subseed range into chunks and
    stack the chunks in order with results identical to one serial pass.
    """
    s = _check_s(s)
    zs = np.asarray([complex(z) for z in z_grid])
    subseeds = [int(k) for k in subseeds]
    template = _template_for(spec)
    base = sample(spec.box, density, int(base_seed))
    ix, iy = spec.config_index.index_of(x), spec.config_index.index_of(y)
    values = np.empty((len(subseeds), zs.size))
    for row, k in enumerate(subseeds):
        real = resample_at(base, marked, subseed=k)
        S = spectral_data(template.hamiltonian(real))
        values[row, :] = np.abs(green_entries(S, ix, iy, _nudged(S, zs))) ** s
    return values


def marked_sites(u1, u2) -> tuple:
    """The sites a conditional check resamples: u1, and u2 if it differs."""
    return (u1,) if u1 == u2 else (u1, u2)


def wegner_check(
    spec: OperatorSpec,
    base_seed: int,
    x: Configuration,
    y: Configuration,
    u1,
    u2,
    z_grid,
    s: float,
    subsamples: int,
    density: DensitySpec = UNIFORM_HALF,
) -> WegnerReport:
    """Resample only the sites u1, u2 on top of a frozen background field.

    Requires a particle of x at u1 and a particle of y at u2 (the bound's
    hypothesis) and lambda != 0. All other site values stay bit-identical
    across the subsample ensemble, so the estimates are genuine conditional
    expectations. The z grid may approach the real spectrum freely; exact
    eigenvalue hits are nudged as in fractional_moment.
    """
    s = _check_s(s)
    u1, u2 = tuple(u1), tuple(u2)
    if occupation(x, u1) < 1:
        raise ValueError(f"x has no particle at the marked site {u1}")
    if occupation(y, u2) < 1:
        raise ValueError(f"y has no particle at the marked site {u2}")
    if spec.lam == 0:
        raise ValueError("conditional bound needs lambda != 0")
    if subsamples < 2:
        raise ValueError(f"need at least 2 subsamples, got {subsamples}")
    if spec.dim > DENSE_DIAG_CAP:
        raise BudgetError(
            f"conditional check needs dense spectra; dimension {spec.dim} "
            f"exceeds {DENSE_DIAG_CAP}",
            count=spec.dim,
            limit=DENSE_DIAG_CAP,
        )
    marked = marked_sites(u1, u2)
    zs = np.asarray([complex(z) for z in z_grid])
    values = wegner_samples(
        spec, base_seed, x, y, marked, zs, s, range(subsamples), density
    )
    return wegner_reduce(spec, zs, values, marked, s, range(subsamples))


def wegner_reduce(
    spec: OperatorSpec, zs, values: np.ndarray, marked, s: float, sub_ids
) -> WegnerReport:
    """Fold conditional sample rows (in subseed order) into the report."""
    zs = np.asarray([complex(z) for z in zs])
    estimates = tuple(
        Estimate.from_samples(values[:, j], sub_ids) for j in range(zs.size)
    )
    worst = max(estimates, key=lambda e: e.mean)
    return WegnerReport(
        z_grid=tuple(zs.tolist()),
        estimates=estimates,
        worst=worst,
        c_emp=float(abs(spec.lam) ** s * worst.mean),
        marked=tuple(marked),
        s=s,
    )


# ---------------------------------------------------------- equivalence probe


@dataclass(frozen=True)
class ProbeRow:
    """One configuration pair: distance, averaged moment, mean correlator."""

    x: Configuration
    y: Configuration
    dist: int
    moment: Estimate
    q: Estimate


def default_probe_interval(
    spec: OperatorSpec, density: DensitySpec = UNIFORM_HALF
) -> EnergyInterval:
    """Unit interval centered in the operator's spectral enclosure."""
    lo, hi = gershgorin_interval(spec, density)
    return EnergyInterval.unit((lo + hi) / 2.0)


def _interval_nodes(interval: EnergyInterval, quad_points: int) -> np.ndarray:
    if not np.isfinite(interval.length):
        raise ValueError("energy averaging needs a finite interval")
    if interval.length < 1.0 - 1e-12:
        raise ValueError(
            f"averaging interval must have length >= 1, got {interval.length}"
        )
    step = interval.length / quad_points
    return interval.lo + step * (np.arange(quad_points) + 0.5)


def corner_block(spec: OperatorSpec, shift: int = 0) -> Configuration:
    """n consecutive sites along the first axis, `shift` sites from the corner."""
    corner = spec.box.origin
    return Configuration(
        sites=tuple(
            (corner[0] + shift + k,) + tuple(corner[1:]) for k in range(spec.n)
        ),
        sector=spec.sector,
    )


def probe_pairs(spec: OperatorSpec, max_points: int = 6):
    """Corner-anchored block pairs at even separations along the first axis.

    Blocks of n consecutive sites are valid in every sector; shifting a
    block by r along one axis moves its Hausdorff distance to exactly r in
    both supported norms.
    """
    box, n = spec.box, spec.n
    x = corner_block(spec)
    out = []
    r = 2
    while r + n - 1 < box.side and len(out) < max_points:
        out.append((x, corner_block(spec, r)))
        r += 2
    if len(out) < 3:
        raise ValueError(
            f"box side {box.side} too small for a {n}-particle decay probe"
        )
    return out


def probe_samples(
    spec: OperatorSpec,
    seed: int,
    pairs,
    interval: EnergyInterval,
    s: float = 0.5,
    eta: float = DEFAULT_ETA,
    quad_points: int = DEFAULT_QUAD_POINTS,
    density: DensitySpec = UNIFORM_HALF,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (moment, correlator) samples for a single realization.

    One eigendecomposition serves every pair and both columns. The output
    depends only on this seed, so averaging these rows over a seed list in
    order reproduces equivalence_probe exactly regardless of how the list
    was partitioned among workers.
    """
    s = _check_s(s)
    pairs = [(px, py) for px, py in pairs]
    nodes = _interval_nodes(interval, quad_points)
    index = spec.config_index
    ranks = [(index.index_of(px), index.index_of(py)) for px, py in pairs]
    full = EnergyInterval.full_line()
    moments = np.empty(len(pairs))
    qvals = np.empty(len(pairs))
    _, S = next(ensemble_spectra(spec, [int(seed)], density))
    for p, ((px, py), (ix, iy)) in enumerate(zip(pairs, ranks)):
        moments[p] = np.mean(np.abs(green_entries(S, ix, iy, nodes + 1j * eta)) ** s)
        qvals[p] = correlator(S, px, py, full)
    return moments, qvals


def equivalence_probe(
    seeds,
    spec: OperatorSpec,
    pairs,
    interval: EnergyInterval = None,
    s: float = 0.5,
    eta: float = DEFAULT_ETA,
    quad_points: int = DEFAULT_QUAD_POINTS,
    density: DensitySpec = UNIFORM_HALF,
) -> tuple[ProbeRow, ...]:
    """Side-by-side decay data: averaged moments vs mean correlators.

    The moment column averages over `interval` (default: the unit interval
    centered in the uniform spectral enclosure); the correlator column uses
    the whole line, the monotone envelope of the interval correlators.
    Distances are Hausdorff in spec.norm. One eigendecomposition per
    realization serves every pair and both columns.
    """
    s = _check_s(s)
    seeds = [int(v) for v in seeds]
    pairs = [(px, py) for px, py in pairs]
    if interval is None:
        interval = default_probe_interval(spec, density)
    samples = [
        probe_samples(spec, seed, pairs, interval, s, eta, quad_points, density)
        for seed in seeds
    ]
    return probe_reduce(spec, pairs, seeds, samples)


def probe_reduce(
    spec: OperatorSpec, pairs, seeds, samples_by_seed
) -> tuple[ProbeRow, ...]:
    """Fold per-seed probe_samples output (in seed order) into one ProbeRow
    per pair."""
    seeds = [int(v) for v in seeds]
    moments = np.stack([m for m, _ in samples_by_seed])
    qvals = np.stack([q for _, q in samples_by_seed])
    return tuple(
        ProbeRow(
            x=px,
            y=py,
            dist=hausdorff_dist(px, py, spec.norm),
            moment=Estimate.from_samples(moments[:, p], seeds),
            q=Estimate.from_samples(qvals[:, p], seeds),
        )
        for p, (px, py) in enumerate(pairs)
    )


# ------------------------------------------------------------------ decay fit


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit v ~ A exp(-r / xi) on log values.

    `pairs` holds the points that entered the fit (positive values only);
    xi is +inf with verdict "no_decay" when the fitted slope is nonnegative.
    """

    xi: float
    A: float
    r2: float
    pairs: tuple
    dropped_zeros: int
    verdict: str


def decay_fit(pairs) -> DecayFit:
    """Fit (distance, value) pairs; zero values are dropped, negatives rejected."""
    pts = [(float(r), float(v)) for r, v in pairs]
    if any(v < 0 for _, v in pts):
        raise ValueError("values must be nonnegative")
    kept = [(r, v) for r, v in pts if v > 0]
    dropped = len(pts) - len(kept)
    if len(kept) < 3:
        raise ValueError(
            f"need at least 3 positive values for a decay fit, have {len(kept)}"
        )
    r = np.array([p[0] for p in kept])
    v = np.array([p[1] for p in kept])
    if np.ptp(r) == 0:
        raise ValueError("distances are all equal; nothing to fit")
    logv = np.log(v)
    slope, intercept = np.polyfit(r, logv, 1)
    resid = logv - (slope * r + intercept)
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        xi=float(-1.0 / slope) if slope < 0 else float("inf"),
        A=float(np.exp(intercept)),
        r2=r2,
        pairs=tuple(kept),
        dropped_zeros=dropped,
        verdict="decay" if slope < 0 else "no_decay",
    )


# ------------------------------------------------------------------ B monitor


@dataclass(frozen=True)
class BMonitorResult:
    """Boundary-flux monitor value for one box size.

    value is the maximum over the evaluated region family (the full box plus
    any sampled sub-boxes) of the worst-tile ensemble mean. A finite tile
    grid and a sampled region family both truncate suprema, so value is a
    lower bound of the mathematical quantity, as note spells out.
    """

    value: float
    full: Estimate
    full_interval: EnergyInterval
    tiles: tuple
    subbox_values: tuple
    pair_count: int
    boundary_count: int
    note: str = (
        "grid supremum: max over finite tile family and sampled regions; "
        "under-estimates the true sup"
    )


def _clustered_ranks(
    index: ConfigIndex, anchor, max_diam: float, norm: str
) -> np.ndarray:
    """Ranks of the configurations with a particle on `anchor` and diameter
    under max_diam, ascending."""
    anchor = tuple(anchor)
    if not index.box.contains(anchor):
        return np.zeros(0, dtype=int)
    ranks = index.site_ranks
    coords = index.box.coords(ranks)
    steps = np.abs(coords[:, :, None, :] - coords[:, None, :, :])
    dists = steps.sum(axis=-1) if norm == "l1" else steps.max(axis=-1)
    diams = dists.reshape(len(ranks), -1).max(axis=1)
    on_anchor = (ranks == index.box.encode(anchor)).any(axis=1)
    return np.flatnonzero(on_anchor & (diams < max_diam))


@dataclass(frozen=True)
class RegionTask:
    """One region of the monitor's family with its admissible pair geometry.

    Ranks index configurations of the operator restricted to `box`; anchors
    group the boundary-cluster ranks per boundary site. The boundary
    prefactor always refers to the full box, no matter the region.
    """

    box: Box
    x_ranks: tuple
    anchors: tuple
    pair_count: int


@dataclass(frozen=True)
class MonitorPlan:
    """Deterministic evaluation plan for the boundary-flux monitor.

    regions[0] is the full box; any further entries are the sampled
    sub-boxes, drawn at plan time so every worker sees the same family.
    All fields are plain data, safe to ship to worker processes.
    """

    spec: OperatorSpec
    regions: tuple
    tile_edges: tuple
    s: float
    eta: float
    quad_points: int
    density: DensitySpec
    boundary_count: int


def _region_task(
    spec: OperatorSpec,
    region: Box,
    boundary_sites,
    half_width: float,
) -> RegionTask | None:
    """Pair geometry on one region, or None without admissible pairs."""
    rspec = dataclasses.replace(spec, box=region)
    index = rspec.config_index
    x_ranks = _clustered_ranks(index, (0,) * region.d, half_width, spec.norm)
    anchors = [
        _clustered_ranks(index, y, half_width, spec.norm)
        for y in boundary_sites
        if region.contains(y)
    ]
    anchors = [rr for rr in anchors if rr.size]
    if x_ranks.size == 0 or not anchors:
        return None
    pair_count = int(x_ranks.size) * sum(int(rr.size) for rr in anchors)
    if pair_count > B_PAIR_BUDGET:
        raise BudgetError(
            f"boundary pair count {pair_count} exceeds budget {B_PAIR_BUDGET}",
            count=pair_count,
            limit=B_PAIR_BUDGET,
        )
    return RegionTask(
        box=region,
        x_ranks=tuple(int(k) for k in x_ranks),
        anchors=tuple(tuple(int(k) for k in rr) for rr in anchors),
        pair_count=pair_count,
    )


def check_monitor_box(spec: OperatorSpec) -> None:
    """Raise ValueError unless the box side suits the boundary monitor: a
    multiple of 4 (the box spans radius L = side/2, clusters have diameter
    under L/2), and for distinct-site sectors above 4(n - 1)."""
    side, n = spec.box.side, spec.n
    if side % 4 != 0:
        raise ValueError(f"monitor boxes need a side divisible by 4, got {side}")
    if spec.sector in ("fermion", "hardcore") and side <= 4 * (n - 1):
        raise ValueError(
            f"side {side} leaves no cluster of {n} distinct particles with "
            f"diameter under {side / 4}"
        )


def monitor_plan(
    spec: OperatorSpec,
    seeds,
    s: float = 0.5,
    omega_samples: int = 0,
    eta: float = None,
    quad_points: int = B_MONITOR_QUAD_POINTS,
    density: DensitySpec = UNIFORM_HALF,
) -> MonitorPlan:
    """Validate the monitor call and freeze its region family and grids."""
    s = _check_s(s)
    if eta is None:
        eta = 0.5 / quad_points
    check_monitor_box(spec)
    box = spec.box
    if box != Box.centered(box.d, box.side):
        raise ValueError("monitor expects the centered box (origin at -side//2)")
    seeds = [int(v) for v in seeds]
    if len(seeds) < 2:
        raise ValueError("monitor needs an ensemble of at least 2 seeds")
    half_width = box.side / 4.0
    boundary = box.boundary_sites()
    lo, hi = gershgorin_interval(spec, density)
    tile_edges = np.arange(math.floor(lo - 1.0), math.ceil(hi + 1.0) + 1, 1.0)

    full_task = _region_task(spec, box, boundary, half_width)
    if full_task is None:
        raise ValueError("no admissible boundary pairs on the full box")
    regions = [full_task]
    if omega_samples:
        rng = np.random.default_rng([int(seeds[0]), 0x0B, int(omega_samples)])
        for _ in range(omega_samples):
            side = int(rng.integers(box.side // 2 + 1, box.side))
            lo_org = max(-(box.side // 2), 1 - side)
            hi_org = min(0, box.side // 2 - side)
            org = int(rng.integers(lo_org, hi_org + 1))
            region = Box(d=box.d, side=side, origin=(org,) * box.d)
            task = _region_task(spec, region, boundary, half_width)
            if task is not None:
                regions.append(task)
    return MonitorPlan(
        spec=spec,
        regions=tuple(regions),
        tile_edges=tuple(float(e) for e in tile_edges),
        s=s,
        eta=eta,
        quad_points=quad_points,
        density=density,
        boundary_count=len(boundary),
    )


def monitor_seed_rows(plan: MonitorPlan, seed: int) -> tuple:
    """Tile-resolved boundary sums of one realization, one row per region.

    A region forms D = 1/(E - z) at the nodes of all tiles once and
    evaluates the Green entries of its center clusters against all anchor
    configurations in green_block products with it, over chunks of the
    center ranks sized by dim, the node count and the anchor count so that
    no product exceeds _BLOCK_BYTES, and folds the sum of |G|^s per tile.
    Rows depend only on this seed and the plan, so an ensemble may be split
    across workers and the rows reassembled in seed order with results
    identical to a serial sweep.
    """
    tile_edges = np.asarray(plan.tile_edges)
    tiles, q = tile_edges.size - 1, plan.quad_points
    # tiles have width 1
    offsets = (np.arange(q) + 0.5) / q
    zs = (tile_edges[:-1, None] + offsets).ravel() + 1j * plan.eta
    prefactor = float(plan.boundary_count)
    rows = []
    for task in plan.regions:
        rspec = dataclasses.replace(plan.spec, box=task.box)
        _, S = next(ensemble_spectra(rspec, [int(seed)], plan.density))
        x_ranks = np.asarray(task.x_ranks)
        y_ranks = np.concatenate(task.anchors)
        step = max(1, _BLOCK_BYTES // (8 * y_ranks.size * max(S.dim, 2 * zs.size)))
        d = resolvent_weights(S, zs)
        row = np.zeros(tiles)
        for lo in range(0, x_ranks.size, step):
            G = green_block(S, x_ranks[lo : lo + step], y_ranks, d)
            terms = (np.abs(G) ** plan.s).reshape(tiles, q, -1)
            row += prefactor * np.sum(terms, axis=(1, 2)) / q
        rows.append(row)
    return tuple(rows)


def monitor_reduce(plan: MonitorPlan, seeds, rows_by_seed) -> BMonitorResult:
    """Fold per-seed rows (in seed order) into the monitor result."""
    seeds = [int(v) for v in seeds]
    tile_edges = np.asarray(plan.tile_edges)
    samples = np.stack([rows[0] for rows in rows_by_seed])
    means = samples.mean(axis=0)
    t_best = int(np.argmax(means))
    full_est = Estimate.from_samples(samples[:, t_best], seeds)
    tiles = tuple(
        (
            float(tile_edges[t]),
            float(samples[:, t].mean()),
            float(samples[:, t].std(ddof=1) / math.sqrt(len(seeds))),
        )
        for t in range(means.size)
    )
    sub_values = []
    for r in range(1, len(plan.regions)):
        sub_samples = np.stack([rows[r] for rows in rows_by_seed])
        sub_values.append(float(sub_samples.mean(axis=0).max()))
    return BMonitorResult(
        value=float(max([full_est.mean, *sub_values])),
        full=full_est,
        full_interval=EnergyInterval(
            float(tile_edges[t_best]), float(tile_edges[t_best + 1])
        ),
        tiles=tiles,
        subbox_values=tuple(sub_values),
        pair_count=plan.regions[0].pair_count,
        boundary_count=plan.boundary_count,
    )


def b_monitor(
    spec: OperatorSpec,
    seeds,
    s: float = 0.5,
    omega_samples: int = 0,
    eta: float = None,
    quad_points: int = B_MONITOR_QUAD_POINTS,
    density: DensitySpec = UNIFORM_HALF,
) -> BMonitorResult:
    """Boundary-flux localization monitor; the size parameter is side/2.

    Sums interval-averaged |G|^s over pairs (clustered configuration at the
    box center, clustered configuration at a boundary site), weighted by the
    boundary size and maximized over unit energy tiles covering the uniform
    spectral enclosure. Clustered means diameter under a quarter of the box
    side with at least one particle on the anchor: for a monitor at length
    scale L the box spans radius L around the center and clusters have
    diameter under L/2, less than half the center-to-boundary separation.
    That keeps the two clusters of every pair spatially disjoint, which is
    what makes the quantity a transport monitor: every term needs tunneling
    across the gap, and nothing sits on a shared diagonal. `omega_samples`
    extra sub-boxes probe the sup over regions; their values are reported
    separately and folded into `value`.

    Requires the centered box with side a multiple of 4 (even length
    parameter), so the thresholds stay aligned across a doubling family.

    eta defaults to half the quadrature node spacing, 1/(2*quad_points).
    The tile average approximates an integral of |G|^s whose singularities
    at eigenvalues are integrable, but a midpoint sample taken much closer
    to an eigenvalue than the node spacing overshoots the integral by
    (spacing/eta)^s; matching eta to the resolution keeps every sample the
    size of its tile contribution and the ensemble variance finite. Pass an
    explicit eta to override.
    """
    plan = monitor_plan(spec, seeds, s, omega_samples, eta, quad_points, density)
    seeds = [int(v) for v in seeds]
    rows_by_seed = [monitor_seed_rows(plan, seed) for seed in seeds]
    return monitor_reduce(plan, seeds, rows_by_seed)


# ------------------------------------------------------------------ rescaling


@dataclass(frozen=True)
class RescalingReport:
    """Doubling inequality and its contraction corollary for one B pair.

    satisfied checks b_large <= (a/|lambda|^s) b_small^2 + A L^(2p) e^(-2 nu L)
    at the supplied constants. The corollary: condition_value =
    (a/|lambda|^s) b_small under 1/2 predicts contraction; `consistent`
    records whether the observation matches whenever the prediction fires.
    """

    satisfied: bool
    inequality_margin: float
    condition_value: float
    margin: float
    contraction_predicted: bool
    contraction_observed: bool
    consistent: bool
    b_small: float
    b_large: float


def rescaling_check(
    b_small,
    b_large,
    lam: float,
    s: float,
    L: int,
    a: float = 1.0,
    A: float = 0.0,
    nu: float = 0.0,
    p: float = 0.0,
) -> RescalingReport:
    """Check the doubling inequality between monitor values at L and 2L.

    Accepts plain values or BMonitorResult. lambda = 0 makes the coupling
    factor infinite: nothing is predicted and only the observed comparison
    is reported.
    """
    s = _check_s(s)
    if L < 1:
        raise ValueError(f"box side must be positive, got {L}")
    bs = float(getattr(b_small, "value", b_small))
    bl = float(getattr(b_large, "value", b_large))
    if bs < 0 or bl < 0:
        raise ValueError("monitor values are nonnegative by construction")
    factor = a / abs(lam) ** s if lam != 0 else math.inf
    tail = A * float(L) ** (2.0 * p) * math.exp(-2.0 * nu * L)
    rhs = tail if bs == 0.0 else factor * bs**2 + tail
    condition = factor * bs if bs > 0 else (math.inf if lam == 0 else 0.0)
    # strict contraction b_large < b_small is vacuous at b_small = 0
    predicted = condition < 0.5 and bs > 0
    observed = bl < bs
    return RescalingReport(
        satisfied=bool(bl <= rhs),
        inequality_margin=float(rhs - bl),
        condition_value=float(condition),
        margin=float(0.5 - condition),
        contraction_predicted=predicted,
        contraction_observed=observed,
        consistent=(not predicted) or observed,
        b_small=bs,
        b_large=bl,
    )


def scan_verdict(b_small, b_large, fit: DecayFit, r2_threshold: float, xi_max: float):
    """(gap, noise, verdict) of one region-scan point.

    gap = b_small - b_large and noise their combined full-box stderr. The
    verdict is "inconclusive" when the monitor difference is dominated by
    the noise; "contracting" requires both the observed monitor drop and a
    convincing exponential correlator fit (r2 at least r2_threshold, xi at
    most xi_max); anything else is "non-contracting".
    """
    gap = b_small.value - b_large.value
    noise = math.hypot(b_small.full.stderr, b_large.full.stderr)
    if abs(gap) <= noise:
        verdict = "inconclusive"
    elif gap > 0 and fit.r2 >= r2_threshold and fit.xi <= xi_max:
        verdict = "contracting"
    else:
        verdict = "non-contracting"
    return gap, noise, verdict
