"""Ensemble diagnostics for multi-particle localization.

Per-seed units for three quantities: conditional single-site (Wegner-type)
moments (`wegner_samples`), two-sided decay probes comparing
interval-averaged moments against eigenfunction correlators
(`probe_samples`), and the finite-volume boundary-flux monitor, whose plan
freezes its inputs and whose fold builds the result that the doubling check
and the scan verdict read (`monitor_plan`, `monitor_seed_rows`,
`monitor_reduce`). The harness maps the units and folds each column of
their per-seed samples with `Estimate.from_samples`; it is the one pipeline
of every kind. Beside them: the serial Monte-Carlo estimate
`fractional_moment`, one `spectral.green` solve per seed and no
eigendecomposition, the decay fit, the doubling check on two monitor
values, and the verdict rule of one region-scan point.

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

from .configspace import Box, ConfigIndex, Configuration
from .disorder import UNIFORM_HALF, DensitySpec, resample_batch, sample
from .errors import BudgetError, SingularityError, magnitude
from .operator import OperatorSpec, assemble, gershgorin_interval
from .spectral import (
    DENSE_DIAG_CAP,
    EnergyInterval,
    SpectralData,
    correlator,
    green,
    green_block,
    spectral_data,
)
from .streams import Stream

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


def realization_spectrum(spec: OperatorSpec, seed: int, density: DensitySpec):
    """SpectralData of the realization at `seed`, on the spec's one template."""
    if spec.dim > DENSE_DIAG_CAP:
        raise BudgetError(
            f"ensemble eigendecomposition at dimension {spec.dim} exceeds "
            f"cap {DENSE_DIAG_CAP}; fractional_moment needs no eigendecomposition",
            count=spec.dim,
            limit=DENSE_DIAG_CAP,
        )
    return spectral_data(assemble(spec, sample(spec.box, density, int(seed))))


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

    Each seed's Green entry is one LU solve, spectral.green. A solve that
    lands exactly on an eigenvalue (possible for real z) is retried once at
    z + 1e-10i and the retry is logged.
    """
    s = _check_s(s)
    z = complex(z)
    seeds = [int(v) for v in seeds]
    samples = np.empty(len(seeds))
    for j, seed in enumerate(seeds):
        H = assemble(spec, sample(spec.box, density, seed))
        try:
            g = abs(green(H, x, y, z))
        except SingularityError:
            logger.warning(
                "singular solve at z = %s (seed %d); retrying at +1e-10i", z, seed
            )
            g = abs(green(H, x, y, z + 1j * _NUDGE))
        samples[j] = g**s
    return Estimate.from_samples(samples, seeds)


# --------------------------------------------------------- conditional check


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

    Only the marked sites are resampled on top of the frozen background at
    base_seed, so the row means are genuine conditional expectations. The
    bound's hypotheses (a particle of x at u1, one of y at u2, lambda != 0)
    are the caller's to check. The z grid may approach the real spectrum
    freely; an exact eigenvalue hit is nudged by +1e-10i, the shift at
    which fractional_moment retries a singular solve.

    Row k depends only on subseeds[k] (frozen background plus one resample
    draw), so a parallel caller may split the subseed range into chunks and
    stack the chunks in order with results identical to one serial pass.
    """
    s = _check_s(s)
    zs = np.asarray([complex(z) for z in z_grid])
    subseeds = [int(k) for k in subseeds]
    base = sample(spec.box, density, int(base_seed))
    ix, iy = spec.config_index.index_of(x), spec.config_index.index_of(y)
    values = np.empty((len(subseeds), zs.size))
    for row, real in enumerate(resample_batch(base, marked, subseeds)):
        S = spectral_data(assemble(spec, real))
        values[row] = np.abs(green_block(S, [ix], [iy], _nudged(S, zs))[:, 0, 0]) ** s
    return values


# ---------------------------------------------------------------- decay probe


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
    S: SpectralData,
    pairs,
    interval: EnergyInterval,
    s: float = 0.5,
    eta: float = DEFAULT_ETA,
    quad_points: int = DEFAULT_QUAD_POINTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (moment, correlator) samples of one realization's spectrum S.

    The moment column averages |G|^s over quad_points midpoint nodes of
    `interval` at height eta; the correlator column uses the whole line, the
    monotone envelope of the interval correlators. S serves every pair and
    both columns. The output depends only on the realization, so the
    per-seed outputs of a seed list, folded in order, give the same rows
    however the list was partitioned among workers.
    """
    s = _check_s(s)
    pairs = [(px, py) for px, py in pairs]
    zs = _interval_nodes(interval, quad_points) + 1j * eta
    full = EnergyInterval.full_line()
    moments = np.empty(len(pairs))
    qvals = np.empty(len(pairs))
    for p, (px, py) in enumerate(pairs):
        ix, iy = S.rank_of(px), S.rank_of(py)
        moments[p] = np.mean(np.abs(green_block(S, [ix], [iy], zs)[:, 0, 0]) ** s)
        qvals[p] = correlator(S, px, py, full)
    return moments, qvals


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
    """One region of the monitor's family: the operator restricted to it and
    the ranks of its center clusters (x_ranks) and of the boundary clusters
    of its boundary sites, site after site (y_ranks). The boundary
    prefactor always refers to the full box, no matter the region.
    """

    spec: OperatorSpec
    x_ranks: tuple
    y_ranks: tuple
    pair_count: int


@dataclass(frozen=True)
class MonitorPlan:
    """Deterministic evaluation plan for the boundary-flux monitor.

    regions[0] is the full box; any further entries are the sampled
    sub-boxes, drawn at plan time so every worker sees the same family.
    All fields are plain data, safe to ship to worker processes.
    """

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
    # a boundary site outside the region anchors no cluster
    y_ranks = tuple(
        int(k)
        for y in boundary_sites
        for k in _clustered_ranks(index, y, half_width, spec.norm)
    )
    if x_ranks.size == 0 or not y_ranks:
        return None
    pair_count = int(x_ranks.size) * len(y_ranks)
    if pair_count > B_PAIR_BUDGET:
        raise BudgetError(
            f"boundary pair count {pair_count} exceeds budget {B_PAIR_BUDGET}",
            count=pair_count,
            limit=B_PAIR_BUDGET,
        )
    return RegionTask(
        spec=rspec,
        x_ranks=tuple(int(k) for k in x_ranks),
        y_ranks=y_ranks,
        pair_count=pair_count,
    )


def check_monitor_box(spec: OperatorSpec) -> None:
    """Raise ValueError unless the box side suits the boundary monitor: a
    multiple of 4 (the box spans radius L = side/2, clusters have diameter
    under L/2), and for distinct-site sectors above 4(n - 1)."""
    side, n = spec.box.side, spec.n
    if side % 4 != 0:
        raise ValueError(
            f"monitor boxes need a side divisible by 4, got {magnitude(side)}"
        )
    if spec.sector in ("fermion", "hardcore") and side <= 4 * (n - 1):
        # a float quarter overflows past 10^308; past 10^20 it is spelled ~10^k
        quarter = side / 4 if side < 10**20 else magnitude(side // 4)
        raise ValueError(
            f"side {magnitude(side)} leaves no cluster of {magnitude(n)} distinct "
            f"particles with diameter under {quarter}"
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
    """Validate the monitor call and freeze its region family and grids.

    The monitor sums interval-averaged |G|^s over pairs of clusters (a
    particle on the anchor, diameter under side/4) anchored at the box
    center and at a boundary site, so every term needs tunneling across
    the gap; `omega_samples` extra sub-boxes probe the sup over regions.

    eta defaults to half the quadrature node spacing, 1/(2*quad_points).
    The tile average approximates an integral of |G|^s whose singularities
    at eigenvalues are integrable, but a midpoint sample taken much closer
    to an eigenvalue than the node spacing overshoots the integral by
    (spacing/eta)^s; matching eta to the resolution keeps every sample the
    size of its tile contribution and the ensemble variance finite.
    """
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
        rng = Stream([int(seeds[0]), 0x0B, int(omega_samples)])
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
        regions=tuple(regions),
        tile_edges=tuple(float(e) for e in tile_edges),
        s=s,
        eta=eta,
        quad_points=quad_points,
        density=density,
        boundary_count=len(boundary),
    )


def monitor_spectra(plan: MonitorPlan, seed: int):
    """Each region's SpectralData at `seed`, in plan order; lazy, so that a
    consumer holds one region's at a time."""
    for task in plan.regions:
        yield realization_spectrum(task.spec, seed, plan.density)


def monitor_seed_rows(plan: MonitorPlan, spectra) -> tuple:
    """Tile-resolved boundary sums of one realization, one row per region,
    from the region spectra in plan order (`monitor_spectra`).

    A region evaluates the Green entries of its center clusters against all
    anchor configurations at the nodes of all tiles in green_block products,
    over chunks of the center ranks sized by dim, the node count and the
    anchor count so that no product exceeds _BLOCK_BYTES, and folds the sum
    of |G|^s per tile. Rows depend only on the realization and the plan, so
    an ensemble may be split across workers and the rows reassembled in
    seed order with results identical to a serial sweep.
    """
    tile_edges = np.asarray(plan.tile_edges)
    tiles, q = tile_edges.size - 1, plan.quad_points
    # tiles have width 1
    offsets = (np.arange(q) + 0.5) / q
    zs = (tile_edges[:-1, None] + offsets).ravel() + 1j * plan.eta
    prefactor = float(plan.boundary_count)
    rows = []
    for task, S in zip(plan.regions, spectra, strict=True):
        x_ranks = np.asarray(task.x_ranks)
        y_ranks = np.asarray(task.y_ranks)
        step = max(1, _BLOCK_BYTES // (8 * y_ranks.size * max(S.dim, 2 * zs.size)))
        row = np.zeros(tiles)
        for lo in range(0, x_ranks.size, step):
            G = green_block(S, x_ranks[lo : lo + step], y_ranks, zs)
            terms = (np.abs(G) ** plan.s).reshape(tiles, q, -1)
            row += prefactor * np.sum(terms, axis=(1, 2)) / q
        rows.append(row)
    return tuple(rows)


def monitor_reduce(plan: MonitorPlan, seeds, rows_by_seed) -> BMonitorResult:
    """Fold per-seed rows (in seed order) into the monitor result."""
    tile_edges = np.asarray(plan.tile_edges)
    samples = np.stack([rows[0] for rows in rows_by_seed])
    columns = [Estimate.from_samples(col, seeds) for col in samples.T]
    t_best = int(np.argmax(samples.mean(axis=0)))
    full_est = columns[t_best]
    tiles = tuple(
        (float(lo), est.mean, est.stderr) for lo, est in zip(tile_edges, columns)
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


def _tail(A: float, L: int, nu: float, p: float) -> float:
    """The tail A L^(2p) e^(-2 nu L): 0 when A is 0, the direct product
    when it is finite, else in logarithms (infinite if that overflows)."""
    if A == 0:
        return 0.0
    try:
        tail = A * float(L) ** (2.0 * p) * math.exp(-2.0 * nu * L)
    except OverflowError:
        tail = math.inf
    if math.isfinite(tail):
        return tail
    log_tail = math.log(abs(A)) + 2.0 * p * math.log(L) - 2.0 * nu * L
    try:
        return math.copysign(math.exp(log_tail), A)
    except OverflowError:
        return math.copysign(math.inf, A)


def rescaling_check(
    b_small: float,
    b_large: float,
    lam: float,
    s: float,
    L: int,
    a: float = 1.0,
    A: float = 0.0,
    nu: float = 0.0,
    p: float = 0.0,
) -> RescalingReport:
    """Check the doubling inequality between monitor values at L and 2L.

    b_small and b_large are the monitor values. lambda = 0 makes the
    coupling factor infinite: nothing is predicted and only the observed
    comparison is reported.
    """
    s = _check_s(s)
    if L < 1:
        raise ValueError(f"box side must be positive, got {L}")
    bs, bl = float(b_small), float(b_large)
    if bs < 0 or bl < 0:
        raise ValueError("monitor values are nonnegative by construction")
    factor = a / abs(lam) ** s if lam != 0 else math.inf
    tail = _tail(A, L, nu, p)
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
