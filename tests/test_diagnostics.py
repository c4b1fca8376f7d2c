import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mplab import diagnostics as diag
from mplab.configspace import (
    Box,
    Configuration,
    diameter,
    hausdorff_dist,
    symmetrized_dist,
)
from mplab.disorder import UNIFORM_HALF, resample_batch, sample
from mplab.errors import BudgetError
from mplab.operator import InteractionSpec, OperatorSpec, OperatorTemplate, assemble
from mplab.spectral import (
    EnergyInterval,
    _green_column,
    green,
    green_block,
    spectral_data,
)
from mplab.diagnostics import (
    DEFAULT_ETA,
    BMonitorResult,
    DecayFit,
    Estimate,
    decay_fit,
    fractional_moment,
    monitor_plan,
    probe_samples,
    rescaling_check,
    scan_verdict,
    seed_descriptor,
    wegner_samples,
)
from mplab.harness import run, validate


def spec1d(side, n=1, lam=2.0, alpha=0.0, sector="distinguishable"):
    inter = InteractionSpec.pair_nn(alpha) if alpha else InteractionSpec.none()
    return OperatorSpec(
        box=Box.centered(1, side), n=n, sector=sector, lam=lam, interaction=inter
    )


def c1(*coords, sector="distinguishable"):
    return Configuration(sites=tuple((c,) for c in coords), sector=sector)


def sites(*coords):
    """The site list of c1(*coords), as a config gives it."""
    return [[c] for c in coords]


def kind_run(tmp_path, kind, model, count, base_seed=0, params=None, numerics=None):
    """A harness run of `kind` on the d = 1 model; the result table."""
    return run(
        {
            "kind": kind,
            "model": model,
            "ensemble": {"base_seed": base_seed, "count": count},
            "numerics": numerics or {},
            "params": params or {},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        },
        workers=1,
    )


def columns(table, *names):
    """The named columns of a result table, one list each."""
    return [[row[table.columns.index(name)] for row in table.rows] for name in names]


SCALAR_SPEC = OperatorSpec(
    box=Box(d=1, side=1, origin=(0,)),
    n=1,
    sector="distinguishable",
    lam=4.0,
    interaction=InteractionSpec.none(),
)


# --------------------------------------------------------------- estimates


def test_estimate_requires_two_samples():
    with pytest.raises(ValueError):
        Estimate(mean=1.0, stderr=0.0, count=1, seeds="0")
    with pytest.raises(ValueError):
        Estimate.from_samples([1.0], [0])


def test_estimate_from_samples_matches_numpy():
    samples = [0.5, 1.5, 2.5, 3.5]
    est = Estimate.from_samples(samples, range(4))
    assert est.mean == pytest.approx(2.0)
    assert est.stderr == pytest.approx(np.std(samples, ddof=1) / 2.0)
    assert est.count == 4
    assert est.seeds == "0..3"


def test_seed_descriptor_forms():
    assert seed_descriptor([]) == "none"
    assert seed_descriptor(range(10)) == "0..9"
    assert seed_descriptor([5, 3]) == "5,3"
    assert seed_descriptor([0, 2, 4, 6, 8, 10, 12, 14, 16]) == "9 seeds in [0, 16]"


# ------------------------------------------------------- fractional moment


def test_fractional_moment_free_system_deterministic():
    # lam = 0: every realization gives the same H, so the spread across
    # seeds is at most one rounding ulp from the mean reduction
    est = fractional_moment(range(10), spec1d(8, lam=0.0), c1(0), c1(0), 1j, 0.5)
    assert est.stderr <= 1e-14
    assert est.count == 10


def test_fractional_moment_scalar_closed_form():
    # E|2 + lam*V - 2|^(-s) with V uniform on [-1/2, 1/2] integrates to
    # 2^s lam^(-s) / (1 - s); at s = 1/2, lam = 4 that is sqrt(2)
    est = fractional_moment(range(500), SCALAR_SPEC, c1(0), c1(0), 2.0 + 0j, 0.5)
    assert abs(est.mean - math.sqrt(2.0)) <= 3.0 * est.stderr


def test_fractional_moment_far_field():
    est = fractional_moment(range(50), SCALAR_SPEC, c1(0), c1(0), 1e6 + 0j, 0.5)
    assert est.mean * 1e3 == pytest.approx(1.0, abs=1e-3)


def _moment_samples(sp, seeds, green_of, s):
    """|G(x, y; z)|^s per seed, G read by green_of(H) from each realization."""
    return [
        abs(green_of(assemble(sp, sample(sp.box, UNIFORM_HALF, seed)))) ** s
        for seed in seeds
    ]


def test_fractional_moment_backends_agree():
    # on a near pair the eigen sum is accurate, and the solve agrees with it
    sp, x, y, z = spec1d(12, lam=3.0), c1(-2), c1(3), 2.0 + 0.5j
    ix, iy = sp.config_index.index_of(x), sp.config_index.index_of(y)

    def eigen_sum(H):
        return green_block(spectral_data(H), [ix], [iy], [z])[0, 0, 0]

    est = fractional_moment(range(6), sp, x, y, z, 0.5)
    eigen = _moment_samples(sp, range(6), eigen_sum, 0.5)
    assert est.mean == pytest.approx(np.mean(eigen), rel=1e-10)


def test_fractional_moment_far_pair_matches_a_dense_solve():
    # the doubling model's box (dim 1024): a pair 26 sites apart, where
    # |G| is 1e-24 to 5e-18, below the round-off floor of an eigen sum
    sp = spec1d(32, n=2, lam=15.0, alpha=0.2)
    x, y, z = c1(-16, -15), c1(10, 11), 2.0 + 0.05j
    ix, iy = sp.config_index.index_of(x), sp.config_index.index_of(y)
    est = fractional_moment(range(4), sp, x, y, z, 0.5)
    dense = _moment_samples(
        sp, range(4), lambda H: _green_column(H.dense(), iy, z)[ix], 0.5
    )
    assert est.mean == pytest.approx(np.mean(dense), rel=1e-10)


def test_fractional_moment_reproducible():
    sp = spec1d(10, lam=5.0)
    a = fractional_moment(range(8), sp, c1(0), c1(2), 1.0 + 0.1j, 0.4)
    b = fractional_moment(range(8), sp, c1(0), c1(2), 1.0 + 0.1j, 0.4)
    assert a == b


def test_fractional_moment_rejects_bad_s():
    for s in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            fractional_moment(range(2), SCALAR_SPEC, c1(0), c1(0), 1j, s)


# --------------------------------------------------------- conditional check


def _nudge_records(caplog):
    return [r for r in caplog.records if "nudging" in r.getMessage()]


def test_singular_solve_is_retried_in_fractional_moment(caplog):
    # z is exactly an eigenvalue of seed 4 and of no other seed: seed 4's
    # LU factorization is exactly singular, and its solve is retried once
    # above the real axis
    sp, x, y, s = spec1d(5, lam=3.0), c1(0), c1(1), 0.5
    H4, H5 = (assemble(sp, sample(sp.box, UNIFORM_HALF, seed)) for seed in (4, 5))
    z = complex(spectral_data(H4).energies[2])
    with caplog.at_level(logging.WARNING, logger="mplab.diagnostics"):
        est = fractional_moment([4, 5], sp, x, y, z, s)
    retries = [r for r in caplog.records if "retrying at +1e-10i" in r.getMessage()]
    assert len(retries) == 1
    assert "seed 4" in retries[0].getMessage()
    expected = [abs(green(H4, x, y, z + 1e-10j)) ** s, abs(green(H5, x, y, z)) ** s]
    assert math.isfinite(est.mean)
    assert est == Estimate.from_samples(expected, [4, 5])


def test_eigenvalue_hit_is_nudged_in_wegner_samples(caplog):
    # the first grid point is exactly an eigenvalue of subseed 1 only
    sp, x, s = spec1d(5, lam=3.0), c1(0), 0.5
    marked = ((0,),)
    ix = sp.config_index.index_of(x)
    base = sample(sp.box, UNIFORM_HALF, 7)
    (re,) = resample_batch(base, marked, [1])
    S1 = spectral_data(assemble(sp, re))
    zs = np.array([complex(S1.energies[1]), 0.5 + 0.2j])
    with caplog.at_level(logging.WARNING, logger="mplab.diagnostics"):
        values = wegner_samples(sp, 7, x, x, marked, zs, s, [0, 1, 2])
    assert len(_nudge_records(caplog)) == 1
    assert np.all(np.isfinite(values))
    nudged = zs + np.array([1e-10j, 0.0])
    expected = np.abs(green_block(S1, [ix], [ix], nudged)[:, 0, 0]) ** s
    assert values[1].tolist() == expected.tolist()


def wegner_run(tmp_path, lam, base_seed, count, z_grid, L=4, n=2):
    """A wegner run at x = y the corner block, marks its first two sites
    (one site for n = 1), z_grid given as [re, im] pairs."""
    params = {"z_grid": [[float(z.real), float(z.imag)] for z in map(complex, z_grid)]}
    if n == 2:
        params.update(x=sites(0, 1), u1=[0], u2=[1])
    model = {"L": L, "n": n, "lambda": lam}
    return kind_run(tmp_path, "wegner", model, count, base_seed, params)


def test_wegner_scalar_closed_form_bound(tmp_path):
    # 1x1: conditional = unconditional, so C_emp should reproduce the
    # closed-form constant 2^s/(1-s) = 2 sqrt(2) up to Monte-Carlo noise
    t = wegner_run(tmp_path, 4.0, 7, 3000, [2.0], L=1, n=1)
    bound = 2.0 * math.sqrt(2.0) + 3.0 * 4.0**0.5 * t.metadata["worst_stderr"]
    assert t.metadata["c_emp"] <= bound
    assert columns(t, "count") == [[3000]]
    assert t.metadata["marked"] == [[0]]


def test_wegner_far_grid_point_trivial_bound(tmp_path):
    sp = spec1d(4, n=2, lam=10.0)
    lo, _ = OperatorTemplate(sp).gershgorin_interval(UNIFORM_HALF)
    t = wegner_run(tmp_path, 10.0, 3, 50, [lo - 5.0])
    assert t.metadata["worst_mean"] <= 5.0**-0.5 * (1.0 + 1e-9)


def test_wegner_bounded_as_grid_approaches_spectrum(tmp_path):
    # worst conditional mean must plateau, not diverge, as the grid's
    # imaginary offset drops through six decades
    worsts = []
    for eta in (1e-4, 1e-6, 1e-8):
        grid = [e + 1j * eta for e in np.linspace(-3.0, 11.0, 15)]
        t = wegner_run(tmp_path / str(eta), 10.0, 11, 300, grid)
        worsts.append(t.metadata["worst_mean"])
    assert max(worsts) / min(worsts) <= 1.02


def test_wegner_lambda_uniformity_smoke(tmp_path):
    # calibrated drift 1.14 at 600 subsamples; the full-protocol version
    # (2000 subsamples, 200 z-points) lives in the acceptance suite
    c_emp = {}
    for lam in (5.0, 20.0):
        sp = spec1d(4, n=2, lam=lam)
        lo, hi = OperatorTemplate(sp).gershgorin_interval(UNIFORM_HALF)
        es = np.linspace(lo, hi, 10)
        grid = [e + 1j * eta for eta in np.geomspace(1.0, 1e-6, 4) for e in es]
        c_emp[lam] = wegner_run(tmp_path / str(lam), lam, 23, 600, grid).metadata["c_emp"]
    assert max(c_emp.values()) / min(c_emp.values()) < 1.25


def _wegner_violations(model=None, **params):
    raw = {
        "kind": "wegner",
        "model": {"L": 4, "n": 2, "lambda": 5.0, **(model or {})},
        "params": {"x": sites(0, 1), "z_grid": [[0.0, 1.0]], **params},
    }
    return validate(raw)


def test_wegner_requires_marked_particles():
    assert _wegner_violations(u1=[-2]) == ["params.u1: x has no particle at [-2]"]
    assert _wegner_violations(u2=[-2]) == ["params.u2: y has no particle at [-2]"]


def test_wegner_rejects_free_system_and_tiny_ensemble():
    assert _wegner_violations({"lambda": 0.0}) == [
        "model.lambda: the conditional check needs lambda != 0"
    ]
    raw = {"kind": "wegner", "model": {"L": 4, "n": 2}, "ensemble": {"count": 1}}
    assert validate(raw) == ["ensemble.count must be an integer >= 2 for kind wegner, got 1"]


# ----------------------------------------------------------- two-sided probe


def probe_run(tmp_path, L, lam, count, pairs, interval=None, numerics=None, **model):
    """A decay_probe run with explicit pairs of site lists."""
    params = {"pairs": pairs, "interval": interval}
    model = {"L": L, "lambda": lam, **model}
    return kind_run(tmp_path, "decay_probe", model, count, 0, params, numerics)


def test_averaged_moment_needs_unit_interval():
    S = diag.realization_spectrum(spec1d(6, lam=5.0), 0, UNIFORM_HALF)
    with pytest.raises(ValueError):
        probe_samples(S, [(c1(0), c1(1))], EnergyInterval(0.0, 0.5))
    with pytest.raises(ValueError):
        probe_samples(S, [(c1(0), c1(1))], EnergyInterval.full_line())


def test_averaged_moment_disjoint_interval_bound(tmp_path):
    # interval at distance >= 2 above the spectral enclosure: |G| <= 1/2
    sp = spec1d(16, lam=15.0)
    _, hi = OperatorTemplate(sp).gershgorin_interval(UNIFORM_HALF)
    t = probe_run(tmp_path, 16, 15.0, 20, [[sites(0), sites(0)]], [hi + 2.0, hi + 3.0])
    ((moment,),) = columns(t, "moment_mean")
    assert moment <= 2.0**-0.5


def test_averaged_moment_quadrature_and_eta_stability(tmp_path):
    sp = spec1d(16, lam=15.0)
    lo, hi = OperatorTemplate(sp).gershgorin_interval(UNIFORM_HALF)
    interval = EnergyInterval.unit((lo + hi) / 2.0)
    pair = [[sites(0), sites(3)]]

    def moment(tag, numerics):
        t = probe_run(
            tmp_path / tag, 16, 15.0, 100, pair, [interval.lo, interval.hi], numerics
        )
        ((mean,), (stderr,), seeds) = columns(t, "moment_mean", "moment_stderr", "seeds")
        assert seeds == ["0..99"]
        return mean, stderr

    m16, e16 = moment("16", {"quad_points": 16})
    m64, _ = moment("64", {"quad_points": 64})
    m16_2eta, _ = moment("2eta", {"eta": 2 * DEFAULT_ETA, "quad_points": 16})
    assert abs(m16 - m64) < 2.0 * e16
    # both runs share every disorder sample, so the shift between them is
    # pure regularization sensitivity
    assert abs(m16 - m16_2eta) / abs(m16) < 0.05


def test_probe_diagonal_row(tmp_path):
    t = probe_run(tmp_path, 16, 15.0, 10, [[sites(0), sites(0)]])
    ((dist,), (q,), (moment,)) = columns(t, "dist_H", "EQ_mean", "moment_mean")
    assert dist == 0
    assert q == pytest.approx(1.0, abs=1e-12)  # completeness
    assert moment > 0.1


def test_probe_strong_disorder_two_sided_decay(tmp_path):
    # both columns strictly decreasing over r in {2,...,16}, and the two
    # fitted decay lengths agree within the factor-3 monitoring threshold
    pairs = [[sites(-12), sites(-12 + r)] for r in range(2, 17, 2)]
    t = probe_run(tmp_path, 24, 15.0, 400, pairs)
    m, q = columns(t, "moment_mean", "EQ_mean")
    assert all(a > b for a, b in zip(m, m[1:]))
    assert all(a > b for a, b in zip(q, q[1:]))
    fit_m, fit_q = t.metadata["fit_moment"], t.metadata["fit_q"]
    assert fit_m["r2"] >= 0.9 and fit_q["r2"] >= 0.9
    assert 1.0 / 3.0 <= fit_m["xi"] / fit_q["xi"] <= 3.0


def test_probe_free_control_no_decay(tmp_path):
    # lam = 0 is deterministic, so two seeds already give the exact table
    pairs = [[sites(-12), sites(-12 + r)] for r in range(2, 17, 2)]
    t = probe_run(tmp_path, 24, 0.0, 2, pairs)
    assert t.metadata["fit_moment"]["r2"] < 0.5
    assert t.metadata["fit_q"]["r2"] < 0.5


def test_probe_default_interval_is_centered_unit(tmp_path):
    sp = spec1d(8, lam=3.0)
    lo, hi = OperatorTemplate(sp).gershgorin_interval(UNIFORM_HALF)
    explicit = EnergyInterval.unit((lo + hi) / 2.0)
    pair = [[sites(0), sites(2)]]
    a = probe_run(tmp_path / "a", 8, 3.0, 3, pair)
    b = probe_run(tmp_path / "b", 8, 3.0, 3, pair, [explicit.lo, explicit.hi])
    assert a.metadata["interval"] == [explicit.lo, explicit.hi]
    assert columns(a, "moment_mean", "moment_stderr") == columns(
        b, "moment_mean", "moment_stderr"
    )


def bos3(*sites):
    return Configuration(sites=tuple((v,) for v in sorted(sites)), sector="boson")


def test_clustered_transfer_contrast(tmp_path):
    # Three bosons, pairs of two kinds: rigid-stack separations (both
    # distances grow together) and excess-charge transfers (a,a,b)->(a,b,b)
    # with equal supports, where the Hausdorff distance stays 0 while the
    # transport distance grows. The transfer correlators stay O(1), so the
    # transport-distance fit carries visibly more scatter: the Hausdorff
    # axis is the one the decay law actually follows on this family.
    c = -2
    stacks = [(bos3(c, c, c), bos3(c + r, c + r, c + r)) for r in (1, 2, 3, 4)]
    transfers = [(bos3(c, c, c + r), bos3(c, c + r, c + r)) for r in (1, 2, 3)]
    for r, (x, y) in zip((1, 2, 3), transfers):
        assert hausdorff_dist(x, y) == 0
        assert symmetrized_dist(x, y) == r
    pairs = [[[list(u) for u in x.sites], [list(u) for u in y.sites]]
             for x, y in stacks + transfers]
    inter = {"builtin": "pair_nn", "coupling": 0.2}
    t = probe_run(tmp_path, 14, 4.0, 120, pairs, n=3, sector="boson", interaction=inter)
    (q,) = columns(t, "EQ_mean")
    pts = [
        (hausdorff_dist(x, y), symmetrized_dist(x, y), v)
        for (x, y), v in zip(stacks + transfers, q)
    ]
    fit_h = decay_fit([(dh, v) for dh, _, v in pts])
    fit_s = decay_fit([(ds, v) for _, ds, v in pts])
    assert fit_h.r2 > fit_s.r2 + 0.02
    transfer_q = [v for _, _, v in pts[4:]]
    assert min(transfer_q) >= 0.5
    # at equal transport distance 3, the equal-support pair outweighs the
    # separated stack by a clear factor
    assert pts[6][2] > 1.2 * pts[0][2]


# ------------------------------------------------------------------ decay fit


def test_decay_fit_exact_exponential():
    rs = np.arange(1, 7, dtype=float)
    fit = decay_fit([(r, 2.0 * math.exp(-r / 3.0)) for r in rs])
    assert fit.xi == pytest.approx(3.0, abs=1e-10)
    assert fit.A == pytest.approx(2.0, abs=1e-10)
    assert fit.r2 >= 1.0 - 1e-10
    assert fit.verdict == "decay"


def test_decay_fit_constant_input_flags_no_decay():
    fit = decay_fit([(1.0, 0.7), (2.0, 0.7), (3.0, 0.7)])
    assert fit.verdict == "no_decay"
    assert fit.xi == math.inf


def test_decay_fit_noise_study():
    # +-10% multiplicative noise on 8 points: the fitted length stays
    # within 20% of truth (median over 100 trials; calibrated median 0.02)
    rng = np.random.default_rng(42)
    xi_true = 2.5
    errors = []
    for _ in range(100):
        rs = np.arange(1, 9, dtype=float)
        vals = 1.7 * np.exp(-rs / xi_true) * (1 + 0.1 * (2 * rng.random(8) - 1))
        errors.append(abs(decay_fit(list(zip(rs, vals))).xi - xi_true) / xi_true)
    assert np.median(errors) < 0.2


def test_decay_fit_drops_zeros_and_validates():
    fit = decay_fit([(1.0, 1.0), (2.0, 0.5), (3.0, 0.0), (4.0, 0.25)])
    assert fit.dropped_zeros == 1
    assert len(fit.pairs) == 3
    with pytest.raises(ValueError):
        decay_fit([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])
    with pytest.raises(ValueError):
        decay_fit([(1.0, 1.0), (2.0, 0.0), (3.0, 0.0)])
    with pytest.raises(ValueError):
        decay_fit([(2.0, 1.0), (2.0, 0.5), (2.0, 0.2)])


# ------------------------------------------------------------------ B monitor


def monitor_run(tmp_path, L, lam, count, params=None, numerics=None, **model):
    """A b_monitor run on the d = 1 model; the result table."""
    model = {"L": L, "lambda": lam, **model}
    return kind_run(tmp_path, "b_monitor", model, count, 0, params, numerics)


@pytest.fixture(scope="module")
def monitor_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("monitor_runs")
    return {
        (lam, L): monitor_run(out / f"{lam}_{L}", L, lam, 20)
        for lam, L in ((20.0, 8), (20.0, 16), (8.0, 8))
    }


@pytest.mark.parametrize(
    "d,side,n,norm",
    [(1, 8, 1, "l1"), (1, 8, 2, "l1"), (1, 8, 3, "linf"), (2, 4, 2, "l1"),
     (2, 4, 2, "linf"), (2, 4, 3, "l1")],
)
@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
def test_clustered_ranks_match_per_configuration_loop(sector, d, side, n, norm):
    box = Box.centered(d, side)
    index = OperatorSpec(box=box, n=n, sector=sector).config_index
    cfgs = list(index.enumerate())
    diams = [diameter(cfg, norm) for cfg in cfgs]
    outside = tuple(c - 1 for c in box.origin)
    for anchor in ((0,) * d, *box.boundary_sites(), outside):
        for max_diam in (side / 4.0, 1.5, 0.5):
            want = [
                k
                for k, cfg in enumerate(cfgs)
                if anchor in cfg.sites and diams[k] < max_diam
            ]
            got = diag._clustered_ranks(index, anchor, max_diam, norm)
            assert got.tolist() == want, (anchor, max_diam)


def _per_anchor_rows(plan, seed):
    """monitor_seed_rows by one (psi_x D) psi_y product per tile, the
    association the monitor used before the pairs-by-nodes product."""
    tile_edges = np.asarray(plan.tile_edges)
    offsets = (np.arange(plan.quad_points) + 0.5) / plan.quad_points
    rows = []
    for task in plan.regions:
        S = diag.realization_spectrum(task.spec, seed, plan.density)
        Wx = S.vectors[np.asarray(task.x_ranks), :]
        WyT = S.vectors[np.asarray(task.y_ranks), :].T
        row = np.zeros(tile_edges.size - 1)
        for t in range(row.size):
            nodes = tile_edges[t] + offsets
            D = 1.0 / (S.energies[None, :] - (nodes[:, None] + 1j * plan.eta))
            G = (Wx[None, :, :] * D[:, None, :]) @ WyT
            row[t] += (
                float(plan.boundary_count)
                * float(np.sum(np.abs(G) ** plan.s))
                / plan.quad_points
            )
        rows.append(row)
    return rows


def _lu_rows(plan, seed):
    """monitor_seed_rows longhand: every Green entry of every tile node from
    a sparse LU solve of its anchor column."""
    tile_edges = np.asarray(plan.tile_edges)
    offsets = (np.arange(plan.quad_points) + 0.5) / plan.quad_points
    rows = []
    for task in plan.regions:
        H = assemble(task.spec, sample(task.spec.box, plan.density, seed))
        x_ranks = np.asarray(task.x_ranks)
        row = np.zeros(tile_edges.size - 1)
        for t in range(row.size):
            for z in tile_edges[t] + offsets + 1j * plan.eta:
                for iy in task.y_ranks:
                    G = _green_column(H.matrix, iy, z)[x_ranks]
                    row[t] += float(np.sum(np.abs(G) ** plan.s))
        rows.append(float(plan.boundary_count) * row / plan.quad_points)
    return rows


_FOLD_CASES = [
    # (d, side, n, sector, omega_samples, s)
    (1, 12, 2, "boson", 2, 0.3),
    (1, 12, 2, "hardcore", 3, 0.4),
    (1, 8, 2, "fermion", 2, 0.7),
    (1, 8, 1, "distinguishable", 2, 0.6),
    (2, 4, 2, "boson", 0, 0.3),
]


def _fold_plan(d, side, n, sector, omega, s):
    spec = OperatorSpec(
        box=Box.centered(d, side), n=n, sector=sector, lam=6.0,
        interaction=InteractionSpec.pair_nn(0.3) if n > 1 else InteractionSpec.none(),
    )
    return diag.monitor_plan(spec, [4, 5], s=s, omega_samples=omega)


def test_monitor_rows_match_lu_oracle_as_closely_as_per_anchor_products():
    # the pairs-by-nodes product and the per-anchor (psi_x D) psi_y products
    # round differently; both sit on the eigen basis' round-off floor, which
    # the sparse LU solve does not share, and agree on the highest tile
    for case in _FOLD_CASES:
        plan = _fold_plan(*case)
        got = diag.monitor_seed_rows(plan, diag.monitor_spectra(plan, 5))
        old = _per_anchor_rows(plan, 5)
        exact = _lu_rows(plan, 5)
        for new_row, old_row, lu_row in zip(got, old, exact):
            new_err = float(np.max(np.abs(new_row - lu_row) / np.abs(lu_row)))
            old_err = float(np.max(np.abs(old_row - lu_row) / np.abs(lu_row)))
            assert new_err <= 2.0 * old_err + 1e-13, (case, new_err, old_err)
            assert abs(new_row.max() - old_row.max()) <= 1e-12 * old_row.max(), case


_CHUNK_CASES = [
    # (d, side, n, sector, omega_samples, s)
    (1, 16, 2, "distinguishable", 2, 0.5),
    (1, 12, 2, "boson", 2, 0.3),
    (1, 20, 2, "hardcore", 0, 0.4),
    (2, 8, 2, "fermion", 0, 0.5),
]


def _chunked_distance(d, side, n, sector, omega, s):
    """Worst relative distance of the monitor rows with the center ranks
    split into chunks of two from the unchunked rows, and the number of
    green_block calls without and with the split."""
    plan = _fold_plan(d, side, n, sector, omega, s)
    calls = []
    evaluate, budget = diag.green_block, diag._BLOCK_BYTES

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    nodes = (len(plan.tile_edges) - 1) * plan.quad_points
    anchored = len(plan.regions[0].y_ranks)
    diag.green_block = counted
    try:
        whole = diag.monitor_seed_rows(plan, diag.monitor_spectra(plan, 5))
        whole_calls = len(calls)
        diag._BLOCK_BYTES = 2 * 8 * anchored * max(plan.regions[0].spec.dim, 2 * nodes)
        split = diag.monitor_seed_rows(plan, diag.monitor_spectra(plan, 5))
    finally:
        diag.green_block, diag._BLOCK_BYTES = evaluate, budget
    worst = max(
        float(np.max(np.abs(a - b) / np.abs(b))) for a, b in zip(split, whole)
    )
    return worst, whole_calls, len(calls) - whole_calls


_CHUNK_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_diagnostics as t
print(json.dumps([t._chunked_distance(*case) for case in t._CHUNK_CASES]))
"""


def test_monitor_rows_do_not_depend_on_the_chunking():
    # with one BLAS thread a gemm entry does not depend on the rows of its
    # call, so splitting the center ranks moves only the order in which the
    # |G|^s terms are added
    tests = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=str(tests.parent / "src"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHUNK_SCRIPT, str(tests)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    for case, (worst, whole_calls, split_calls) in zip(_CHUNK_CASES, results):
        assert split_calls > whole_calls, case
        assert worst <= 1e-13, (case, worst)


def test_b_monitor_n1_matches_direct_sum(tmp_path):
    # independent evaluation: raw eigh per seed, tile scan and boundary sum
    # written out longhand
    from mplab.disorder import sample
    from mplab.operator import assemble

    sp = spec1d(8, lam=10.0)
    seeds = range(20)
    res = monitor_run(tmp_path, 8, 10.0, 20).metadata
    lo, hi = OperatorTemplate(sp).gershgorin_interval(UNIFORM_HALF)
    edges = np.arange(math.floor(lo - 1.0), math.ceil(hi + 1.0) + 1, 1.0)
    eta = 0.5 / 8
    nodes = (np.arange(8) + 0.5) / 8
    boundary = [(-4,), (3,)]
    i0 = sp.config_index.index_of(c1(0))
    iys = [sp.config_index.index_of(c1(y[0])) for y in boundary]
    acc = np.zeros((20, edges.size - 1))
    for j, seed in enumerate(seeds):
        H = assemble(sp, sample(sp.box, UNIFORM_HALF, seed)).matrix.toarray()
        evals, evecs = np.linalg.eigh(H)
        for t in range(edges.size - 1):
            zs = edges[t] + nodes + 1j * eta
            for iy in iys:
                g = np.abs(
                    np.sum(
                        (evecs[i0, :] * evecs[iy, :])[None, :]
                        / (evals[None, :] - zs[:, None]),
                        axis=1,
                    )
                )
                acc[j, t] += 2.0 * float(np.mean(g**0.5))
    assert res["value"] == pytest.approx(float(acc.mean(axis=0).max()), abs=1e-12)
    assert res["pair_count"] == 2
    assert res["boundary_count"] == 2


def test_b_monitor_contraction_strong_disorder(monitor_runs):
    b8 = monitor_runs[(20.0, 8)].metadata
    b16 = monitor_runs[(20.0, 16)].metadata
    assert b16["value"] < 0.5 * b8["value"]


def test_b_monitor_lambda_monotone(monitor_runs):
    value = {key: t.metadata["value"] for key, t in monitor_runs.items()}
    assert value[(8.0, 8)] > value[(20.0, 8)]


def test_b_monitor_value_is_worst_tile_mean(monitor_runs):
    t = monitor_runs[(20.0, 8)]
    res = t.metadata
    (means,) = columns(t, "mean")
    assert res["value"] == pytest.approx(max(means))
    assert res["full_mean"] == pytest.approx(res["value"])
    lo, hi = res["full_interval"]
    assert hi - lo == pytest.approx(1.0)
    assert "under-estimates" in res["note"]


def test_b_monitor_eta_default_matches_explicit(tmp_path):
    a = monitor_run(tmp_path / "a", 8, 12.0, 4)
    b = monitor_run(tmp_path / "b", 8, 12.0, 4, numerics={"eta": 0.5 / 8})
    assert a.metadata["eta"] == b.metadata["eta"]
    assert a.metadata["value"] == b.metadata["value"]
    assert a.rows == b.rows


def test_b_monitor_omega_samples_fold_into_value(tmp_path):
    inter = {"builtin": "pair_nn", "coupling": 0.1}
    runs = [
        monitor_run(tmp_path / tag, 8, 8.0, 6, {"omega_samples": 4}, n=2, interaction=inter)
        for tag in "ab"
    ]
    a = runs[0].metadata
    assert len(a["subbox_values"]) <= 4
    assert a["value"] == pytest.approx(max([a["full_mean"], *a["subbox_values"]]))
    # sub-box sampling is seeded
    assert runs[0].rows == runs[1].rows
    assert a["subbox_values"] == runs[1].metadata["subbox_values"]


def test_b_monitor_validations():
    with pytest.raises(ValueError):
        monitor_plan(spec1d(10, lam=5.0), range(4))  # side not a multiple of 4
    off = OperatorSpec(
        box=Box(d=1, side=8, origin=(0,)),
        n=1,
        sector="distinguishable",
        lam=5.0,
        interaction=InteractionSpec.none(),
    )
    with pytest.raises(ValueError):
        monitor_plan(off, range(4))
    with pytest.raises(ValueError):
        monitor_plan(spec1d(8, lam=5.0), [0])


def test_b_monitor_pair_budget(monkeypatch):
    monkeypatch.setattr(diag, "B_PAIR_BUDGET", 1)
    with pytest.raises(BudgetError) as exc:
        monitor_plan(spec1d(8, lam=5.0), range(2))
    assert exc.value.count == 2
    assert exc.value.limit == 1


def test_ensemble_dimension_budget():
    sp = spec1d(12, n=4, lam=5.0)  # dim 20736 over the dense cap
    with pytest.raises(BudgetError) as exc:
        diag.realization_spectrum(sp, 0, UNIFORM_HALF)
    assert exc.value.count == 20736


# ------------------------------------------------------------------ rescaling


def test_rescaling_zero_monitor_is_trivially_satisfied():
    rep = rescaling_check(0.0, 0.0, 10.0, 0.5, 8)
    assert rep.satisfied
    assert not rep.contraction_predicted
    assert rep.consistent


def test_rescaling_strong_disorder_report():
    # values from the side-16/32 strong-disorder run at lam = 20
    rep = rescaling_check(0.3066, 0.0166, 20.0, 0.5, 16)
    assert rep.condition_value == pytest.approx(0.3066 / 20.0**0.5)
    assert rep.contraction_predicted and rep.contraction_observed
    assert rep.consistent and rep.satisfied


def test_rescaling_free_control_flags_non_contracting():
    rep = rescaling_check(151.6, 513.6, 0.0, 0.5, 8)
    assert not rep.contraction_predicted  # coupling factor is infinite
    assert not rep.contraction_observed
    assert rep.consistent


def test_rescaling_detects_broken_prediction():
    rep = rescaling_check(0.1, 0.2, 100.0, 0.5, 8)
    assert rep.contraction_predicted
    assert not rep.contraction_observed
    assert not rep.consistent
    assert not rep.satisfied


def test_rescaling_tail_term():
    # pure tail comparison: A L^(2p) e^(-2 nu L) with b_small = 0
    rep = rescaling_check(0.0, 0.3, 10.0, 0.5, 4, A=2.0, nu=0.25, p=0.5)
    assert rep.inequality_margin == pytest.approx(2.0 * 4.0 * math.exp(-2.0) - 0.3)


def test_rescaling_tail_never_overflows():
    # the direct product keeps its bits whenever it is finite
    rep = rescaling_check(0.0, 0.3, 10.0, 0.5, 4, A=2.0, nu=0.25, p=0.5)
    assert rep.inequality_margin == 2.0 * 4.0**1.0 * math.exp(-2.0) - 0.3
    # A = 0 is no tail, whatever L^(2p) would be
    rep = rescaling_check(0.1, 0.3, 10.0, 0.5, 4, A=0.0, p=1000.0)
    assert rep.inequality_margin == 1.0 / 10.0**0.5 * 0.1**2 - 0.3
    # L^(2p) overflows, e^(-2 nu L) brings the tail back: logarithms
    rep = rescaling_check(0.0, 0.3, 10.0, 0.5, 10, A=1.0, nu=200.0, p=1000.0)
    expect = math.exp(2000.0 * math.log(10.0) - 4000.0)
    assert rep.inequality_margin == pytest.approx(expect, rel=1e-12)
    # both overflow: an infinite tail, which any b_large satisfies
    rep = rescaling_check(1.0, 0.3, 20.0, 0.5, 4, A=1.0, p=1000.0)
    assert rep.inequality_margin == math.inf and rep.satisfied


def test_rescaling_validations():
    with pytest.raises(ValueError):
        rescaling_check(-0.1, 0.0, 5.0, 0.5, 8)
    with pytest.raises(ValueError):
        rescaling_check(0.1, 0.1, 5.0, 0.5, 0)
    with pytest.raises(ValueError):
        rescaling_check(0.1, 0.1, 5.0, 1.5, 8)


# ---------------------------------------------------------------- region scan


def _monitor_value(value, stderr):
    est = Estimate(mean=value, stderr=stderr, count=2, seeds="0..1")
    return BMonitorResult(
        value=value, full=est, full_interval=EnergyInterval(0.0, 1.0),
        tiles=(), subbox_values=(), pair_count=1, boundary_count=2,
    )


def _fit(xi, r2):
    return DecayFit(xi=xi, A=1.0, r2=r2, pairs=(), dropped_zeros=0, verdict="decay")


def test_scan_verdict_rule():
    # combined stderr hypot(3, 4) = 5 exactly
    def verdict(b_small, b_large, xi=2.0, r2=0.95):
        small, large = _monitor_value(b_small, 3.0), _monitor_value(b_large, 4.0)
        return scan_verdict(small, large, _fit(xi, r2), 0.9, 4.0)

    assert verdict(20.0, 10.0) == (10.0, 5.0, "contracting")
    # a drop without a convincing decay fit, and a rise
    assert verdict(20.0, 10.0, r2=0.5)[2] == "non-contracting"
    assert verdict(20.0, 10.0, xi=5.0)[2] == "non-contracting"
    assert verdict(10.0, 20.0)[2] == "non-contracting"
    # |gap| == noise counts as dominated by the noise, either sign
    assert verdict(15.0, 10.0) == (5.0, 5.0, "inconclusive")
    assert verdict(10.0, 15.0) == (-5.0, 5.0, "inconclusive")


def _scan(tmp_path, n, count, lambdas, alphas):
    """region_scan rows on monitor boxes of sides 8 and 16."""
    table = run(
        {
            "kind": "region_scan",
            "model": {"d": 1, "L": 8, "n": n},
            "ensemble": {"base_seed": 0, "count": count},
            "params": {"lambdas": lambdas, "alphas": alphas},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        },
        workers=1,
    )
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_scan_three_verdicts(tmp_path):
    rows = _scan(tmp_path, 2, 40, [20.0, 4.0, 10.0], [0.1])
    assert [r["verdict"] for r in rows] == [
        "contracting",
        "non-contracting",
        "inconclusive",
    ]
    strong = rows[0]
    assert strong["b_large"] < strong["b_small"]
    assert strong["r2"] >= 0.9


def test_scan_alpha_zero_column_matches_single_particle(tmp_path):
    (v2,) = _scan(tmp_path / "n2", 2, 40, [20.0], [0.0])
    (v1,) = _scan(tmp_path / "n1", 1, 40, [20.0], [0.0])
    assert v1["verdict"] == v2["verdict"] == "contracting"


def test_scan_free_point_non_contracting(tmp_path):
    (v,) = _scan(tmp_path, 1, 4, [0.0], [0.0])
    assert v["verdict"] == "non-contracting"
    assert v["r2"] < 0.9
