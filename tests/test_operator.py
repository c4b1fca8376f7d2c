import io
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from mplab.configspace import Box, ConfigIndex, Configuration, site_dist
from mplab.disorder import UNIFORM_HALF, DensitySpec, resample_batch, sample
from mplab.diagnostics import (
    default_probe_interval,
    monitor_plan,
    monitor_seed_rows,
    monitor_spectra,
    probe_pairs,
    probe_samples,
    realization_spectrum,
)
from mplab.operator import (
    InteractionSpec,
    OperatorSpec,
    OperatorTemplate,
    _template_for,
    assemble,
    gershgorin_interval,
    interaction_energy,
)


def dense(spec, seed=0, density=UNIFORM_HALF):
    real = sample(spec.box, density, seed)
    return assemble(spec, real).matrix.toarray(), real


def symmetrization_isometry(ix_dist, ix_sector, sector):
    """Columns: normalized (anti)symmetrized basis states in the full space."""
    S = np.zeros((ix_dist.size, ix_sector.size))
    for k, cfg in enumerate(ix_sector.enumerate()):
        for perm in set(itertools.permutations(cfg.sites)):
            amp = 1.0
            if sector == "fermion":
                order = [cfg.sites.index(s) for s in perm]
                inv = sum(
                    1
                    for i in range(len(order))
                    for j in range(i + 1, len(order))
                    if order[i] > order[j]
                )
                amp = (-1.0) ** inv
            S[ix_dist.index_of(Configuration(sites=perm)), k] = amp
        S[:, k] /= np.linalg.norm(S[:, k])
    return S


# ------------------------------------------------------------ interactions


def test_pair_nn_energy_examples():
    inter = InteractionSpec.pair_nn(1.0)
    assert interaction_energy(
        Configuration(sites=((0,), (0,), (1,))), inter
    ) == pytest.approx(2.0)
    assert interaction_energy(Configuration(sites=((0,), (2,))), inter) == 0.0
    assert interaction_energy(Configuration(sites=((3,),)), inter) == 0.0


def test_pair_nn_scales_with_coupling():
    c = Configuration(sites=((0, 0), (0, 1)))
    assert interaction_energy(c, InteractionSpec.pair_nn(0.25)) == pytest.approx(0.25)


def test_onsite_counts_pairs():
    inter = InteractionSpec.onsite(2.0)
    c = Configuration(sites=((0,), (0,), (0,)))
    assert interaction_energy(c, inter) == pytest.approx(2.0 * 3)


def test_interaction_translation_invariance():
    inter = InteractionSpec.pair_nn(0.7)
    base = Configuration(sites=((0, 0), (1, 0), (1, 1)))
    shifted = Configuration(sites=((5, -3), (6, -3), (6, -2)))
    assert interaction_energy(base, inter) == pytest.approx(
        interaction_energy(shifted, inter)
    )


def _ball(center, radius, norm):
    d = len(center)
    for offset in itertools.product(range(-radius, radius + 1), repeat=d):
        if site_dist(offset, (0,) * d, norm) <= radius:
            yield tuple(c + o for c, o in zip(center, offset))


def _enumerated_pair_terms(config, irange, norm):
    """The pair_nn pattern sum, term by term: every lexicographic pair of
    sites within `irange` of the occupied support, of diameter at most
    `irange` in `norm`, that meets the support, gives m_u * m_v if its
    sites are l1 neighbours and 0.0 otherwise."""
    occs = Counter(config.sites)
    support = set(occs)
    candidates = set()
    for u in support:
        candidates.update(_ball(u, irange, norm))
    terms = []
    for u, v in itertools.combinations(sorted(candidates), 2):
        if not support.intersection((u, v)) or site_dist(u, v, norm) > irange:
            continue
        terms.append(float(occs[u] * occs[v]) if site_dist(u, v, "l1") == 1 else 0.0)
    return terms


def test_interaction_energy_matches_pattern_enumeration():
    """The closed forms equal, bit for bit, the sums over lattice patterns
    in either norm, on seeded random configurations with clustered sites
    (repeats and neighbours are common) and couplings of either sign."""
    rng = np.random.default_rng(22)
    couplings = (0.3, -1.7, 1 / 3, 1e-17, -1e-17)
    cases = 0
    for d, n, irange, norm in itertools.product(
        (1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 3), ("l1", "linf")
    ):
        # the linf ball at d = 3 and range 3 holds 343 sites; fewer draws
        draws = 1 if d == 3 and irange == 3 else 4
        for _ in range(draws):
            sites = tuple(
                tuple(int(x) for x in rng.integers(-2, 2, size=d)) for _ in range(n)
            )
            config = Configuration(sites=sites)
            occs = [m for _, m in sorted(Counter(sites).items())]
            terms = _enumerated_pair_terms(config, irange, norm)
            for coupling in (*couplings, float(rng.normal())):
                pair = 0.0
                for term in terms:
                    pair += coupling * term
                onsite = 0.0 + coupling * sum(0.5 * m * (m - 1) for m in occs)
                got = interaction_energy(
                    config, InteractionSpec.pair_nn(coupling, range=irange)
                )
                assert got.hex() == pair.hex(), (sites, coupling, irange, norm)
                got = interaction_energy(config, InteractionSpec.onsite(coupling))
                assert got.hex() == onsite.hex(), (sites, coupling)
                cases += 1
    assert cases > 1000


def test_interaction_spec_validation():
    with pytest.raises(ValueError, match="built-in interaction 'yukawa'"):
        InteractionSpec("yukawa", 1.0, 1)
    with pytest.raises(ValueError, match="range must be >= 0"):
        InteractionSpec.pair_nn(1.0, range=-1)


# ----------------------------------------------------------- single particle


def test_free_path_graph_spectrum():
    # 1d Dirichlet restriction, diagonal 2 everywhere: 2 - 2 cos(k pi / (L+1))
    box = Box(d=1, side=3)
    spec = OperatorSpec(box=box, n=1, lam=0.0)
    H, _ = dense(spec)
    ev = np.linalg.eigvalsh(H)
    expect = sorted(2.0 - 2.0 * math.cos(k * math.pi / 4.0) for k in (1, 2, 3))
    assert np.allclose(ev, expect, atol=1e-12)


def test_wall_sites_keep_full_diagonal():
    # the classic off-by-2d convention mismatch: walls keep 2*d*n
    box = Box(d=2, side=3)
    spec = OperatorSpec(box=box, n=1, lam=0.0)
    H, _ = dense(spec)
    assert np.allclose(np.diag(H), 4.0)


def test_single_site_operator_is_scalar():
    box = Box(d=1, side=1)
    spec = OperatorSpec(box=box, n=1, lam=4.0)
    real = sample(box, UNIFORM_HALF, 3)
    H = assemble(spec, real).matrix.toarray()
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(2.0 + 4.0 * real.values[0])


def test_diagonal_entry_formula():
    # diagonal = 2dn + lam * sum_j V(x_j) + interaction
    box = Box(d=1, side=4)
    spec = OperatorSpec(
        box=box, n=2, lam=1.0, interaction=InteractionSpec.pair_nn(0.5)
    )
    real = sample(box, UNIFORM_HALF, 1)
    H = assemble(spec, real)
    cfg = Configuration(sites=((1,), (2,)))
    k = H.rank_of(cfg)
    v = real.values
    expect = 4.0 + v[box.encode((1,))] + v[box.encode((2,))] + 0.5
    assert H.matrix[k, k] == pytest.approx(expect)


# ------------------------------------------------------------------ sectors


@pytest.mark.parametrize("sector", ["boson", "fermion"])
@pytest.mark.parametrize("d,side,n", [(1, 4, 2), (1, 5, 3), (2, 3, 2)])
def test_sector_blocks_match_symmetrized_restriction(sector, d, side, n):
    box = Box(d=d, side=side)
    inter = InteractionSpec.pair_nn(0.7)
    real = sample(box, UNIFORM_HALF, seed=5)
    spec_d = OperatorSpec(box=box, n=n, lam=1.3, interaction=inter)
    spec_s = OperatorSpec(box=box, n=n, sector=sector, lam=1.3, interaction=inter)
    HD = assemble(spec_d, real).matrix.toarray()
    HS = assemble(spec_s, real).matrix.toarray()
    S = symmetrization_isometry(spec_d.config_index, spec_s.config_index, sector)
    assert np.abs(S.T @ HD @ S - HS).max() < 1e-12
    # columns are orthonormal and H-invariant, so the sector spectrum is a
    # subset of the distinguishable one
    evD = np.linalg.eigvalsh(HD)
    for e in np.linalg.eigvalsh(HS):
        assert np.min(np.abs(evD - e)) < 1e-9


def test_hardcore_is_projection_not_restriction():
    # d >= 2 is essential: in 1d hardcore particles are unitarily equivalent
    # to fermions and the projected spectrum happens to embed
    box = Box(d=2, side=3)
    real = sample(box, UNIFORM_HALF, seed=5)
    spec_d = OperatorSpec(box=box, n=2, lam=1.3)
    spec_h = OperatorSpec(box=box, n=2, sector="hardcore", lam=1.3)
    HD = assemble(spec_d, real).matrix.toarray()
    HH = assemble(spec_h, real).matrix.toarray()
    ix_d, ix_h = spec_d.config_index, spec_h.config_index
    P = np.zeros((ix_d.size, ix_h.size))
    for k, cfg in enumerate(ix_h.enumerate()):
        for perm in itertools.permutations(cfg.sites):
            P[ix_d.index_of(Configuration(sites=perm)), k] = 1.0
        P[:, k] /= np.linalg.norm(P[:, k])
    assert np.abs(P.T @ HD @ P - HH).max() < 1e-12
    # projected spectrum is NOT a subset of the distinguishable spectrum
    evD = np.linalg.eigvalsh(HD)
    gaps = [np.min(np.abs(evD - e)) for e in np.linalg.eigvalsh(HH)]
    assert max(gaps) > 1e-6


def test_fermion_1d_spinless_equals_hardcore_spectrum():
    # in one dimension nearest-neighbour spinless fermions and hardcore
    # particles are unitarily equivalent
    box = Box(d=1, side=5)
    real = sample(box, UNIFORM_HALF, seed=2)
    evs = {}
    for sector in ("fermion", "hardcore"):
        spec = OperatorSpec(box=box, n=2, sector=sector, lam=0.9)
        evs[sector] = np.linalg.eigvalsh(assemble(spec, real).matrix.toarray())
    assert np.allclose(evs["fermion"], evs["hardcore"], atol=1e-12)


def test_boson_double_occupancy_amplitude():
    # two bosons on two sites: <11|H|02> = -sqrt(2)
    box = Box(d=1, side=2)
    spec = OperatorSpec(box=box, n=2, sector="boson", lam=0.0)
    H = assemble(spec, sample(box, UNIFORM_HALF, 0))
    ix = spec.config_index
    k00 = ix.index_of(Configuration(sites=((0,), (0,)), sector="boson"))
    k01 = ix.index_of(Configuration(sites=((0,), (1,)), sector="boson"))
    assert H.matrix[k00, k01] == pytest.approx(-math.sqrt(2.0))
    assert H.matrix[k01, k00] == pytest.approx(-math.sqrt(2.0))


def test_free_two_particle_spectrum_is_pairwise_sums():
    box = Box(d=1, side=4)
    spec1 = OperatorSpec(box=box, n=1, lam=0.0)
    spec2 = OperatorSpec(box=box, n=2, lam=0.0)
    e1 = np.linalg.eigvalsh(dense(spec1)[0])
    e2 = np.linalg.eigvalsh(dense(spec2)[0])
    sums = np.sort(np.add.outer(e1, e1).ravel())
    assert np.allclose(e2, sums, atol=1e-10)


# ----------------------------------------------------------------- assembly


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
def test_assembled_matrix_is_symmetric(sector):
    box = Box(d=2, side=3)
    spec = OperatorSpec(
        box=box, n=2, sector=sector, lam=2.0, interaction=InteractionSpec.pair_nn(0.3)
    )
    H = assemble(spec, sample(box, UNIFORM_HALF, 7)).matrix
    assert abs(H - H.T).max() == 0.0


def test_row_sparsity_bound_distinguishable():
    # at most 2dn hops plus the diagonal in any row
    box = Box(d=2, side=3)
    spec = OperatorSpec(box=box, n=2, lam=1.0)
    H = assemble(spec, sample(box, UNIFORM_HALF, 0)).matrix
    row_counts = np.diff(H.indptr)
    assert row_counts.max() <= 2 * 2 * 2 + 1


def test_template_matches_oneshot_assembly():
    box = Box(d=1, side=6)
    spec = OperatorSpec(
        box=box, n=2, sector="boson", lam=3.0, interaction=InteractionSpec.pair_nn(0.2)
    )
    tmpl = OperatorTemplate(spec)
    for seed in (0, 1, 2):
        real = sample(box, UNIFORM_HALF, seed)
        assert (
            abs(tmpl.hamiltonian(real).matrix - assemble(spec, real).matrix).max()
            == 0.0
        )


def _reference_hops(sites, sector, box):
    # the per-configuration hop enumeration, kept here as the definition the
    # template's rank arithmetic must reproduce
    unit = [tuple(1 if a == ax else 0 for a in range(box.d)) for ax in range(box.d)]
    if sector == "distinguishable":
        for j, u in enumerate(sites):
            for e in unit:
                for sgn in (1, -1):
                    t = tuple(c + sgn * o for c, o in zip(u, e))
                    if box.contains(t):
                        yield sites[:j] + (t,) + sites[j + 1 :], -1.0
        return
    occ = Counter(sites)
    for u in sorted(occ):
        for e in unit:
            for sgn in (1, -1):
                t = tuple(c + sgn * o for c, o in zip(u, e))
                if not box.contains(t):
                    continue
                m_t = occ.get(t, 0)
                if sector == "boson":
                    amp = -math.sqrt(occ[u] * (m_t + 1))
                elif m_t:
                    continue
                elif sector == "fermion":
                    lo, hi = min(u, t), max(u, t)
                    crossings = sum(1 for w in occ if lo < w < hi)
                    amp = -1.0 * (1 if crossings % 2 == 0 else -1)
                else:
                    amp = -1.0
                target = list(sites)
                target.remove(u)
                target.append(t)
                yield tuple(sorted(target)), amp


def _reference_template(spec):
    """(kinetic, occupation, interaction diagonal) by one loop over the
    configurations, one index_of per hop."""
    index, box = spec.config_index, spec.box
    rows, cols, vals, occ_rows, occ_cols, occ_vals = [], [], [], [], [], []
    inter = np.zeros(index.size)
    for k, cfg in enumerate(index.enumerate()):
        for site, m in Counter(cfg.sites).items():
            occ_rows.append(k)
            occ_cols.append(box.encode(site))
            occ_vals.append(float(m))
        if not spec.interaction.is_trivial:
            inter[k] = interaction_energy(cfg, spec.interaction)
        for target, amp in _reference_hops(cfg.sites, spec.sector, box):
            rows.append(k)
            cols.append(index.index_of(Configuration(sites=target, sector=spec.sector)))
            vals.append(amp)
    dim = index.size
    kinetic = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=float)
    kinetic += sp.diags(np.full(dim, 2.0 * box.d * spec.n), format="csr", dtype=float)
    occupation = sp.csr_matrix(
        (occ_vals, (occ_rows, occ_cols)), shape=(dim, box.volume), dtype=float
    )
    return kinetic, occupation, inter


_TEMPLATE_INTERACTIONS = {
    "none": InteractionSpec.none(),
    "pair_nn": InteractionSpec.pair_nn(0.3),
    "onsite": InteractionSpec.onsite(0.7),
    # pair_nn at a custom range, the widest that the side-3 boxes admit
    "custom": InteractionSpec.pair_nn(0.45, range=2),
}


@pytest.mark.parametrize("inter", sorted(_TEMPLATE_INTERACTIONS))
@pytest.mark.parametrize(
    "d,side,n,norm",
    [(1, 5, 1, "l1"), (1, 5, 2, "l1"), (1, 5, 3, "linf"), (2, 3, 2, "linf"),
     (2, 3, 3, "l1")],
)
@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
def test_template_arrays_match_per_configuration_loop(sector, d, side, n, norm, inter):
    spec = OperatorSpec(
        box=Box.centered(d, side), n=n, sector=sector, lam=1.5,
        interaction=_TEMPLATE_INTERACTIONS[inter], norm=norm,
    )
    tmpl = OperatorTemplate(spec)
    kinetic, occupation, inter_diag = _reference_template(spec)
    # the hops are the loop's off-diagonal kinetic entries in (row, col) order
    ref = kinetic.tocoo()
    off = ref.row != ref.col
    rows, cols, vals = tmpl.hops
    assert rows.tolist() == ref.row[off].tolist()
    assert cols.tolist() == ref.col[off].tolist()
    assert vals.tobytes() == ref.data[off].tobytes()
    assert (kinetic.diagonal() == tmpl.kinetic_diag).all()
    # the occupations, as a CSR matrix of the first-column multiplicities
    first = tmpl.occ_mult > 0
    got = sp.csr_matrix(
        (tmpl.occ_mult[first], (np.nonzero(first)[0], tmpl.occ_ranks[first])),
        shape=occupation.shape,
    )
    assert (tmpl.occ_mult[~first] == 0).all()
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(occupation, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    assert tmpl.interaction_diag.tobytes() == inter_diag.tobytes()


def _reference_gershgorin(kinetic, inter_diag, spec, density):
    # the sparse Gershgorin bound, kept as the definition the hop arrays
    # must reproduce float for float
    lam, n = spec.lam, spec.n
    v_lo, v_hi = density.support
    pot = (lam * n * v_lo, lam * n * v_hi)
    kin_diag = 2.0 * spec.box.d * n
    offdiag = np.abs(kinetic - sp.diags(kinetic.diagonal())).sum(axis=1)
    r = float(offdiag.max()) if offdiag.size else 0.0
    lo = kin_diag + inter_diag.min() + min(pot) - r
    hi = kin_diag + inter_diag.max() + max(pot) + r
    return (float(lo), float(hi))


def _assert_forms_match(H, kinetic, diag):
    """dense() is, byte for byte, the sparse sum kinetic + diag(diag), and
    the lazy CSR form holds that sum's arrays."""
    want = (kinetic + sp.diags(diag, format="csr")).tocsr()
    got = H.dense()
    assert got.flags.c_contiguous and got.dtype == want.dtype
    assert got.tobytes() == want.toarray().tobytes()
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(H.matrix, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


@pytest.mark.parametrize("inter", sorted(_TEMPLATE_INTERACTIONS))
@pytest.mark.parametrize(
    "d,side,n,norm",
    [(1, 5, 1, "l1"), (1, 5, 2, "l1"), (1, 5, 3, "linf"), (2, 3, 2, "linf"),
     (2, 3, 3, "l1")],
)
@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
def test_dense_matches_per_configuration_loop(sector, d, side, n, norm, inter):
    """dense() equals, byte for byte, the sparse sum kinetic + diag(interaction
    + lam * occupation @ v) of the loop's matrices; the lazy CSR form equals
    dense(); the Gershgorin interval is the sparse formula's."""
    spec = OperatorSpec(
        box=Box.centered(d, side), n=n, sector=sector, lam=1.5,
        interaction=_TEMPLATE_INTERACTIONS[inter], norm=norm,
    )
    tmpl = OperatorTemplate(spec)
    kinetic, occupation, inter_diag = _reference_template(spec)
    for seed in (0, 5):
        real = sample(spec.box, UNIFORM_HALF, seed)
        diag = inter_diag + spec.lam * (occupation @ real.values)
        _assert_forms_match(tmpl.hamiltonian(real), kinetic, diag)
    gauss = DensitySpec.truncated_gaussian(0.5, 1.0)
    for density in (UNIFORM_HALF, gauss):
        assert tmpl.gershgorin_interval(density) == _reference_gershgorin(
            kinetic, inter_diag, spec, density
        )


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
@pytest.mark.parametrize("d", [1, 2])
def test_csr_form_stores_no_cancelled_diagonal(sector, d):
    """At lam = 0 with a nearest-neighbour pair energy of -2*d*n, an adjacent
    pair's diagonal entry is exactly 0.0; the CSR form leaves it out, as the
    sparse sum kinetic + diag does."""
    spec = OperatorSpec(
        box=Box.centered(d, 3), n=2, sector=sector, lam=0.0,
        interaction=InteractionSpec.pair_nn(-4.0 * d),
    )
    H = OperatorTemplate(spec).hamiltonian(sample(spec.box, UNIFORM_HALF, 0))
    kinetic, _, inter_diag = _reference_template(spec)
    assert (H.diagonal == 0.0).any()
    _assert_forms_match(H, kinetic, inter_diag)


def test_template_rejects_foreign_box():
    spec = OperatorSpec(box=Box(d=1, side=4), n=1)
    tmpl = OperatorTemplate(spec)
    with pytest.raises(ValueError):
        tmpl.hamiltonian(sample(Box(d=1, side=5), UNIFORM_HALF, 0))


# ----------------------------------------------------------- template cache


def _pair_spec(side, n, alpha):
    return OperatorSpec(
        box=Box.centered(1, side),
        n=n,
        lam=2.0,
        interaction=InteractionSpec.pair_nn(alpha),
    )


def test_template_cache_shares_equal_builtin_specs():
    a = _pair_spec(6, n=2, alpha=0.3)
    b = _pair_spec(6, n=2, alpha=0.3)
    assert a is not b
    assert _template_for(a) is _template_for(b)


def test_one_template_per_spec(monkeypatch):
    # the monitor's energy tiles, its ensemble, the probe's default
    # interval and its ensemble all share the one cached template
    built = []
    init = OperatorTemplate.__init__

    def counting_init(self, spec):
        built.append(spec)
        init(self, spec)

    monkeypatch.setattr(OperatorTemplate, "__init__", counting_init)
    _template_for.cache_clear()
    spec = _pair_spec(8, n=2, alpha=0.2)
    plan = monitor_plan(spec, range(2))
    monitor_seed_rows(plan, monitor_spectra(plan, 0))
    S = realization_spectrum(spec, 0, UNIFORM_HALF)
    probe_samples(S, probe_pairs(spec, 3), default_probe_interval(spec))
    gershgorin_interval(spec, UNIFORM_HALF)
    assemble(spec, sample(spec.box, UNIFORM_HALF, 0))
    assert built == [spec]


def test_resample_decomposition_identity():
    # H(resampled) - H(base) = lam * (dv) * N_u, exactly
    box = Box(d=1, side=5)
    lam = 2.5
    spec = OperatorSpec(box=box, n=2, lam=lam)
    base = sample(box, UNIFORM_HALF, 3)
    (re,) = resample_batch(base, [(2,)], [4])
    H0 = assemble(spec, base).matrix
    H1 = assemble(spec, re).matrix
    u = box.encode((2,))
    dv = re.values[u] - base.values[u]
    # N_u counts, per configuration, the particles on site u
    occ = (spec.config_index.site_ranks == u).sum(axis=1)
    Nu = sp.diags(occ, format="csr", dtype=float)
    assert abs((H1 - H0) - lam * dv * Nu).max() < 1e-13


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion", "hardcore"])
def test_number_operator_counts_occupation_and_vanishes_off_box(sector):
    # N_u read from site_ranks, as in the redraw identity above, counts the
    # particles on u in every sector; no configuration occupies a site off
    # the box, so there N_u = 0
    ix = ConfigIndex(Box(d=2, side=3, origin=(1, -1)), n=2, sector=sector)
    cfgs = list(ix.enumerate())
    for u in ((1, -1), (2, 0), (3, 1)):
        expect = [sum(s == u for s in c.sites) for c in cfgs]
        assert (ix.site_ranks == ix.box.encode(u)).sum(axis=1).tolist() == expect
    for u in ((0, 0), (4, 0), (1, 2), (2, -2)):
        assert not ix.box.contains(u)
        assert all(u not in c.sites for c in cfgs)


def test_operator_spec_validation():
    box = Box(d=1, side=3)
    with pytest.raises(ValueError):
        OperatorSpec(box=box, n=1, lam=-1.0)
    with pytest.raises(ValueError, match="range"):
        OperatorSpec(box=box, n=2, interaction=InteractionSpec.pair_nn(1.0, range=3))
    with pytest.raises(ValueError):
        OperatorSpec(box=box, n=4, sector="fermion")


def test_gershgorin_encloses_ensemble_spectra():
    box = Box(d=1, side=5)
    spec = OperatorSpec(
        box=box, n=2, sector="boson", lam=4.0, interaction=InteractionSpec.pair_nn(0.5)
    )
    lo, hi = gershgorin_interval(spec, UNIFORM_HALF)
    for seed in range(20):
        ev = np.linalg.eigvalsh(
            assemble(spec, sample(box, UNIFORM_HALF, seed)).matrix.toarray()
        )
        assert lo <= ev.min() and ev.max() <= hi
