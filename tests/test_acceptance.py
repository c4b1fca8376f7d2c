"""Go/no-go acceptance checks for the assembled pipeline.

Each test covers one numbered criterion and ends in a single verdict line,
so a verbose run reads as a checklist. Thresholds are frozen against the
calibration runs; tolerances are stated inline next to each assertion.
"""

import math

import numpy as np
import pytest

from mplab.configspace import (
    Box,
    ConfigIndex,
    Configuration,
    hausdorff_dist,
    symmetrized_dist,
)
from mplab.diagnostics import fractional_moment
from mplab.disorder import UNIFORM_HALF, sample
from mplab.harness import ExperimentConfig, run
from mplab.operator import (
    InteractionSpec,
    OperatorSpec,
    assemble,
    gershgorin_interval,
)
from mplab.spectral import (
    EnergyInterval,
    correlator,
    dynamical_kernel,
    green,
    green_block,
    spectral_data,
)


def _verdict(num, label, ok, detail):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


# ------------------------------------------------------ random instances


def _instance_pool():
    """(d, side, n, sector) combos whose sector dimension is 2..200."""
    pool = []
    for d, sides in ((1, range(2, 15)), (2, range(2, 5))):
        for side in sides:
            V = side**d
            for n in (1, 2, 3):
                for sector in ("distinguishable", "boson", "fermion", "hardcore"):
                    if sector in ("fermion", "hardcore") and n > V:
                        continue
                    if sector == "distinguishable":
                        dim = V**n
                    elif sector == "boson":
                        dim = math.comb(V + n - 1, n)
                    else:
                        dim = math.comb(V, n)
                    if 2 <= dim <= 200:
                        pool.append((d, side, n, sector))
    return pool


def _draw_instance(rng, pool):
    d, side, n, sector = pool[int(rng.integers(len(pool)))]
    alpha = float(rng.uniform(0.1, 1.0)) * (1.0 if rng.integers(2) else -1.0)
    spec = OperatorSpec(
        box=Box.centered(d, side),
        n=n,
        sector=sector,
        lam=float(rng.uniform(0.5, 4.0)),
        interaction=InteractionSpec.pair_nn(alpha),
    )
    seed = int(rng.integers(2**31))
    H = assemble(spec, sample(spec.box, UNIFORM_HALF, seed))
    return H, spectral_data(H)


def _brute_correlator(S, ix, iy, interval):
    # Independent projector sum: cluster sorted eigenvalues by gap, then
    # accumulate |<x, P_g y>| for clusters whose mean energy lands inside.
    E = S.energies
    tol = 1e-9 * max(float(np.abs(E).max()), 1.0)
    cuts = np.nonzero(np.diff(E) > tol)[0] + 1
    edges = [0, *cuts.tolist(), E.size]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if interval.contains(float(E[a:b].mean())):
            total += abs(float(S.vectors[ix, a:b] @ S.vectors[iy, a:b]))
    return total


# --------------------------------------------------------- shared ensembles


def _strong_config(out_dir):
    return ExperimentConfig.from_dict(
        {
            "kind": "decay_probe",
            "model": {
                "d": 1,
                "L": 20,
                "n": 2,
                "sector": "distinguishable",
                "lambda": 15.0,
                "interaction": {"builtin": "pair_nn", "coupling": 0.2, "range": 1},
            },
            "ensemble": {"base_seed": 0, "count": 400},
            "params": {"max_points": 6},
            "output": {"directory": str(out_dir), "formats": ["csv", "json"]},
        }
    )


@pytest.fixture(scope="session")
def strong_decay_runs(tmp_path_factory):
    """The strong-disorder decay ensemble, once at 8 workers and once serial."""
    out8 = tmp_path_factory.mktemp("decay-w8")
    out1 = tmp_path_factory.mktemp("decay-w1")
    t8 = run(_strong_config(out8), workers=8)
    t1 = run(_strong_config(out1), workers=1)
    return t8, t1, out8, out1


# ---------------------------------------------------------------- criteria


def test_criterion_01_resolvent_and_projector_oracles():
    rng = np.random.default_rng(101)
    pool = _instance_pool()
    worst_rel, worst_dq = 0.0, 0.0
    for _ in range(50):
        H, S = _draw_instance(rng, pool)
        ix, iy = (int(rng.integers(S.dim)) for _ in range(2))
        x, y = H.index.config_at(ix), H.index.config_at(iy)
        energy = float(rng.uniform(S.energies[0], S.energies[-1]))
        z = complex(energy, float(rng.uniform(0.3, 1.5)))
        g_solve = green(H, x, y, z)
        g_eig = green_block(S, [ix], [iy], [z])[0, 0, 0]
        worst_rel = max(worst_rel, abs(g_solve - g_eig) / max(abs(g_eig), 1e-12))
        interval = (
            EnergyInterval.full_line()
            if rng.integers(2)
            else EnergyInterval.unit(energy)
        )
        q = correlator(S, x, y, interval)
        worst_dq = max(worst_dq, abs(q - _brute_correlator(S, ix, iy, interval)))
    ok = worst_rel <= 1e-8 and worst_dq <= 1e-9
    _verdict(
        1,
        "resolvent and projector oracles",
        ok,
        f"max rel dG {worst_rel:.2e} vs 1e-08, max |dQ| {worst_dq:.2e} vs 1e-09",
    )


def test_criterion_02_kernel_bounded_by_correlator():
    rng = np.random.default_rng(202)
    pool = _instance_pool()
    violations, worst_excess = 0, -np.inf
    for _ in range(200):
        H, S = _draw_instance(rng, pool)
        ix, iy = (int(rng.integers(S.dim)) for _ in range(2))
        x, y = H.index.config_at(ix), H.index.config_at(iy)
        if rng.integers(2):
            interval = EnergyInterval.full_line()
        else:
            interval = EnergyInterval.unit(
                float(rng.uniform(S.energies[0], S.energies[-1]))
            )
        q = correlator(S, x, y, interval)
        amp = np.sqrt(dynamical_kernel(S, x, y, interval).samples)
        excess = float(amp.max() - q) if amp.size else -q
        worst_excess = max(worst_excess, excess)
        violations += int(excess > 1e-9)
    ok = violations == 0
    _verdict(
        2,
        "time-sampled amplitude under correlator",
        ok,
        f"{violations} violations over 200 instances, worst excess {worst_excess:.2e}",
    )


def test_criterion_03_subadditivity_ensemble(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "kind": "subadditivity",
            "model": {
                "d": 1,
                "L": 8,
                "n": 2,
                "lambda": 1.5,
                "interaction": {"builtin": "pair_nn", "coupling": 0.4, "range": 1},
            },
            "ensemble": {"base_seed": 0, "count": 2},
            "params": {"instances": 500, "dim_cap": 12},
            "output": {"directory": str(tmp_path), "formats": ["csv"]},
        }
    )
    table = run(config, workers=8)
    ci = table.columns.index
    gaps = [r[ci("lhs")] - r[ci("rhs")] for r in table.rows]
    ok = (
        len(table.rows) == 500
        and max(gaps) <= 1e-9
        and table.metadata["violations"] == 0
    )
    _verdict(
        3,
        "correlator subadditivity across splits",
        ok,
        f"{table.metadata['violations']} violations over {len(table.rows)}, "
        f"max lhs-rhs {max(gaps):.2e}",
    )


def test_criterion_04_composite_contour_identity(tmp_path):
    base = {
        "kind": "composite_check",
        "model": {"d": 1, "L": 8, "n": 1, "lambda": 1.0},
        "ensemble": {"base_seed": 0, "count": 2},
        "params": {"instances": 20, "dim_cap": 10, "quadrature_points": 512},
        "output": {"directory": str(tmp_path / "fine"), "formats": ["csv"]},
    }
    fine = run(ExperimentConfig.from_dict(base), workers=8)
    ci = fine.columns.index
    max_fine = max(max(r[ci("gap")], r[ci("gap_2x")]) for r in fine.rows)

    # At 512 points the gaps sit on the floating-point floor, so the
    # doubling decrease is checked where discretization error dominates.
    base["params"] = dict(base["params"], quadrature_points=8)
    base["output"] = {"directory": str(tmp_path / "coarse"), "formats": ["csv"]}
    coarse = run(ExperimentConfig.from_dict(base), workers=8)
    ci = coarse.columns.index
    improved = [
        r[ci("gap_2x")] < r[ci("gap")] or r[ci("gap")] < 1e-12 for r in coarse.rows
    ]
    ok = max_fine <= 1e-8 and all(improved)
    _verdict(
        4,
        "block-pair contour identity",
        ok,
        f"max gap {max_fine:.2e} vs 1e-08 at 512 points, "
        f"{sum(improved)}/20 decrease on doubling at 8 points",
    )


def test_criterion_05_conditional_moment_bound(tmp_path):
    c_emp, plateau = {}, {}
    for lam in (5.0, 10.0, 20.0):
        spec = OperatorSpec(
            box=Box.centered(1, 4),
            n=2,
            sector="distinguishable",
            lam=lam,
            interaction=InteractionSpec.none(),
        )
        lo, hi = gershgorin_interval(spec, UNIFORM_HALF)
        z_grid = [  # 20 energies x 10 resolutions, 200 points per lambda

            [float(e), float(h)]
            for e in np.linspace(lo, hi, 20)
            for h in np.geomspace(1.0, 1e-6, 10)
        ]
        table = run(
            {
                "kind": "wegner",
                "model": {"d": 1, "L": 4, "n": 2, "lambda": lam},
                "ensemble": {"base_seed": 23, "count": 2000},
                "params": {
                    "x": [[0], [1]],
                    "u1": [0],
                    "u2": [1],
                    "z_grid": z_grid,
                },
                "output": {"directory": str(tmp_path / str(lam)), "formats": ["csv"]},
            },
            workers=1,
        )
        ci = table.columns.index
        means = np.array([r[ci("mean")] for r in table.rows]).reshape(20, 10)
        assert np.all(np.isfinite(means))
        tier_max = means.max(axis=0)
        # Bounded approach to the axis: the deepest resolution tiers plateau.
        plateau[lam] = float(tier_max[-1] / tier_max[-3])
        c_emp[lam] = table.metadata["c_emp"]
    drift = max(c_emp.values()) / min(c_emp.values())

    scalar = OperatorSpec(
        box=Box.centered(1, 1),
        n=1,
        sector="distinguishable",
        lam=4.0,
        interaction=InteractionSpec.none(),
    )
    site = Configuration(sites=((0,),), sector="distinguishable")
    est = fractional_moment(range(4000), scalar, site, site, complex(2.0, 0.0), 0.5)
    target = 2.0**0.5 * 4.0**-0.5 / 0.5  # closed form at s=1/2, lam=4, z=2d
    t_stat = abs(est.mean - target) / est.stderr

    ok = drift < 1.25 and max(plateau.values()) <= 1.05 and t_stat <= 3.0
    _verdict(
        5,
        "conditional moment bound",
        ok,
        f"lam-scaled drift {drift:.4f} vs 1.25, plateau ratio "
        f"{max(plateau.values()):.4f} vs 1.05, closed form t={t_stat:.2f} vs 3",
    )


def test_criterion_06_localization_decay(strong_decay_runs, tmp_path):
    table = strong_decay_runs[0]
    ci = table.columns.index
    eq = {int(r[ci("dist_H")]): r[ci("EQ_mean")] for r in table.rows}
    fit = table.metadata["fit_q"]
    ratio = eq[4] / eq[12]

    free = run(
        ExperimentConfig.from_dict(
            {
                "kind": "decay_probe",
                "model": {"d": 1, "L": 20, "n": 2, "lambda": 0.0},
                "ensemble": {"base_seed": 0, "count": 8},
                "params": {"max_points": 6},
                "output": {"directory": str(tmp_path), "formats": ["csv"]},
            }
        ),
        workers=8,
    )
    free_r2 = free.metadata["fit_q"]["r2"]

    ok = fit["r2"] >= 0.9 and ratio >= 5.0 and free_r2 < 0.5
    _verdict(
        6,
        "correlator decay in strong disorder",
        ok,
        f"r2 {fit['r2']:.4f} vs 0.9, EQ(4)/EQ(12) {ratio:.0f} vs 5, "
        f"free control r2 {free_r2:.4f} vs 0.5",
    )


def test_criterion_07_decay_length_agreement(strong_decay_runs):
    table = strong_decay_runs[0]
    xi_q = table.metadata["fit_q"]["xi"]
    xi_m = table.metadata["fit_moment"]["xi"]
    ratio = xi_m / xi_q
    # Factor-3 window is a monitoring threshold chosen for this probe size.
    ok = 1.0 / 3.0 <= ratio <= 3.0
    _verdict(
        7,
        "correlator vs moment decay lengths",
        ok,
        f"xi_q {xi_q:.3f}, xi_moment {xi_m:.3f}, ratio {ratio:.3f} in [1/3, 3]",
    )


def test_criterion_08_rescaling_contraction(tmp_path):
    def rescaling(lam, coupling, count, sub):
        model = {"d": 1, "L": 16, "n": 2, "lambda": lam}
        if coupling:
            model["interaction"] = {
                "builtin": "pair_nn",
                "coupling": coupling,
                "range": 1,
            }
        table = run(
            ExperimentConfig.from_dict(
                {
                    "kind": "rescaling",
                    "model": model,
                    "ensemble": {"base_seed": 0, "count": count},
                    "output": {"directory": str(tmp_path / sub), "formats": ["csv"]},
                }
            ),
            workers=8,
        )
        return table.metadata["report"]

    strong = rescaling(15.0, 0.2, 12, "strong")
    deep = rescaling(20.0, 0.2, 12, "deep")
    free = rescaling(0.0, 0.0, 2, "free")

    ok = (
        strong["contraction_observed"]
        and strong["satisfied"]
        and deep["contraction_predicted"]
        and deep["contraction_observed"]
        and deep["consistent"]
        and not free["contraction_observed"]
        and free["consistent"]
    )
    _verdict(
        8,
        "monitor contraction under doubling",
        ok,
        f"strong {strong['b_small']:.3f}->{strong['b_large']:.3f}, deep condition "
        f"{deep['condition_value']:.3f} vs 0.5 observed {deep['contraction_observed']}, "
        f"free {free['b_small']:.1f}->{free['b_large']:.1f}",
    )


def test_criterion_09_worker_count_invariance(strong_decay_runs):
    t8, t1, out8, out1 = strong_decay_runs
    rows_equal = t8.rows == t1.rows
    bytes_equal = (out8 / "decay_probe.csv").read_bytes() == (
        out1 / "decay_probe.csv"
    ).read_bytes()
    ok = rows_equal and bytes_equal
    _verdict(
        9,
        "worker-count invariance",
        ok,
        f"rows identical {rows_equal}, csv bytes identical {bytes_equal}",
    )


def test_criterion_10_pseudometric_suite():
    rng = np.random.default_rng(1010)
    indexes = []
    for d, side in ((1, 4), (1, 7), (2, 3), (2, 4), (3, 2)):
        for n in (1, 2, 3, 4):
            for sector in ("distinguishable", "boson", "fermion", "hardcore"):
                if sector in ("fermion", "hardcore") and n > side**d:
                    continue
                idx = ConfigIndex(box=Box.centered(d, side), n=n, sector=sector)
                if idx.size >= 2:
                    indexes.append(idx)
    bad_sym = bad_tri = bad_zero = bad_dom = 0
    for _ in range(10_000):
        idx = indexes[int(rng.integers(len(indexes)))]
        norm = "l1" if rng.integers(2) else "linf"
        x, y, w = (
            idx.config_at(int(rng.integers(idx.size))) for _ in range(3)
        )
        hxy = hausdorff_dist(x, y, norm)
        bad_sym += int(hxy != hausdorff_dist(y, x, norm))
        bad_tri += int(
            hausdorff_dist(x, w, norm) > hxy + hausdorff_dist(y, w, norm)
        )
        bad_zero += int((hxy == 0) != (set(x.sites) == set(y.sites)))
        bad_dom += int(symmetrized_dist(x, y, norm) < hxy)
    ok = bad_sym == bad_tri == bad_zero == bad_dom == 0
    _verdict(
        10,
        "pseudo-metric suite",
        ok,
        f"10000 triples: {bad_sym} symmetry, {bad_tri} triangle, "
        f"{bad_zero} zero-iff-support, {bad_dom} dominance failures",
    )
