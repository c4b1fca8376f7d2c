import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from mplab.configspace import Box, Configuration
from mplab.disorder import UNIFORM_HALF, DensitySpec, sample
from mplab.errors import BudgetError, ContourGeometryError, SingularityError
from mplab import spectral
from mplab.operator import InteractionSpec, OperatorSpec, assemble, kron_sum
from mplab.spectral import (
    DEFAULT_TIME_GRID,
    GROUPING_RTOL,
    EnergyInterval,
    composite_green_check,
    correlator,
    dynamical_kernel,
    _green_column,
    green,
    green_block,
    group_weights,
    spectral_data,
    subadditivity_check,
)


def build(d=1, side=8, n=1, lam=2.0, seed=0, sector="distinguishable", alpha=0.0):
    box = Box(d=d, side=side)
    inter = InteractionSpec.pair_nn(alpha) if alpha else InteractionSpec.none()
    spec = OperatorSpec(box=box, n=n, sector=sector, lam=lam, interaction=inter)
    return assemble(spec, sample(box, UNIFORM_HALF, seed))


def c1(*coords):
    return Configuration(sites=tuple((c,) for c in coords))


# ------------------------------------------------------------------- green


def test_green_scalar_block_closed_form():
    box = Box(d=1, side=1)
    spec = OperatorSpec(box=box, n=1, lam=4.0)
    real = sample(box, UNIFORM_HALF, 3)
    H = assemble(spec, real)
    z = 1.0 + 0.5j
    expect = 1.0 / (2.0 + 4.0 * real.values[0] - z)
    assert green(H, c1(0), c1(0), z) == pytest.approx(expect, rel=1e-14)


def test_green_matches_eigensum():
    H = build(side=30, lam=2.0, seed=7)
    S = spectral_data(H)
    x, y = c1(3), c1(20)
    for z in (2.0 + 1e-3j, -1.0 + 0.1j, 5.0 + 1e-6j):
        g_solve = green(H, x, y, z)
        g_eig = green_block(S, [S.rank_of(x)], [S.rank_of(y)], [z])[0, 0, 0]
        assert abs(g_solve - g_eig) <= 1e-8 * abs(g_eig)


def test_green_symmetry_in_arguments():
    H = build(side=12, lam=3.0, seed=1)
    z = 1.5 + 0.2j
    assert green(H, c1(2), c1(9), z) == pytest.approx(green(H, c1(9), c1(2), z))


def test_green_imaginary_part_bound():
    # ||(H - z)^(-1)|| <= 1/|Im z|
    H = build(side=10, lam=5.0, seed=2)
    eta = 1e-4
    g = green(H, c1(0), c1(9), 3.0 + 1j * eta)
    assert abs(g) <= 1.0 / eta + 1e-6


def test_green_singularity_raises():
    # free 1d path: 2 is an exact eigenvalue (side odd)
    H = build(side=3, lam=0.0)
    with pytest.raises(SingularityError):
        green(H, c1(0), c1(0), 2.0)


@pytest.mark.parametrize(
    "side,n,sector,alpha", [(1, 1, "distinguishable", 0.0), (7, 2, "boson", 0.3)]
)
def test_green_column_dense_and_sparse_agree(side, n, sector, alpha):
    """The LAPACK (dense array) and SuperLU (scipy matrix) branches of the
    solve primitive agree, and both reject an exact eigenvalue."""
    H = build(side=side, n=n, sector=sector, lam=3.0, seed=2, alpha=alpha)
    for z in (0.4 + 0.05j, 2.5 + 1e-6j):
        for iy in (0, H.dim - 1):
            dense = _green_column(H.dense(), iy, z)
            sparse = _green_column(H.matrix, iy, z)
            assert np.allclose(dense, sparse, rtol=1e-10, atol=1e-14)
    free = build(side=3, lam=0.0)
    for matrix in (free.dense(), free.matrix):
        with pytest.raises(SingularityError):
            _green_column(matrix, 0, 2.0)


def test_green_far_field_decay():
    # strong disorder: |G(0, r)| decays with r at fixed off-spectrum z
    H = build(side=24, lam=15.0, seed=5)
    z = 2.0 + 1e-2j
    vals = [abs(green(H, c1(0), c1(r), z)) for r in (2, 8, 20)]
    assert vals[0] > vals[1] > vals[2]


# Near-real points (Im z down to 1e-8) are included: the eigen sum and the
# LU solve must agree there too, where |G| is large and ill-conditioned.
_NEAR_REAL_IMS = (1e-8, 1e-6, 1e-3, 0.3, 1.5)


@pytest.mark.parametrize(
    "d, side, n, sector",
    [
        (1, 9, 2, "distinguishable"),
        (1, 10, 2, "fermion"),
        (2, 3, 2, "distinguishable"),
        (2, 4, 2, "fermion"),
    ],
)
def test_green_block_matches_sparse_solve(d, side, n, sector):
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(3):
        spec = OperatorSpec(
            box=Box.centered(d, side),
            n=n,
            sector=sector,
            lam=float(rng.uniform(0.5, 4.0)),
            interaction=InteractionSpec.pair_nn(float(rng.uniform(-1.0, 1.0))),
        )
        H = assemble(spec, sample(spec.box, UNIFORM_HALF, int(rng.integers(2**31))))
        S = spectral_data(H)
        ix, iy = (int(rng.integers(S.dim)) for _ in range(2))
        re = rng.uniform(S.energies[0] - 1.0, S.energies[-1] + 1.0, 15)
        zs = re + 1j * np.resize(_NEAR_REAL_IMS, re.size)
        got = green_block(S, [ix], [iy], zs)[:, 0, 0]
        want = np.array([_green_column(H.matrix, iy, z)[ix] for z in zs])
        assert got.shape == zs.shape and got.dtype == complex
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-10


@pytest.mark.parametrize("nx,ny", [(3, 4), (1, 5), (4, 1), (1, 1)])
def test_green_block_matches_term_sum(nx, ny):
    H = build(d=2, side=4, n=2, lam=3.0, seed=5, sector="boson", alpha=0.4)
    S = spectral_data(H)
    rng = np.random.default_rng(8)
    ix, iy = rng.choice(S.dim, nx, replace=False), rng.choice(S.dim, ny, replace=False)
    zs = rng.uniform(S.energies[0], S.energies[-1], 6) + 1j * np.array(
        [1e-3, 0.06, 0.5, 1e-3, 0.06, 0.5]
    )
    block = green_block(S, ix, iy, zs)
    assert block.shape == (zs.size, nx, ny) and block.dtype == complex

    def term_sum(x, y, z):
        """sum_k psi_k(x) psi_k(y) / (E_k - z), one term at a time."""
        return np.sum(S.vectors[x, :] * S.vectors[y, :] / (S.energies - z))

    want = np.array([[[term_sum(x, y, z) for y in iy] for x in ix] for z in zs])
    assert np.allclose(block, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())


def test_green_paths_match_a_40_digit_solve():
    """green_block and both LU solves against mpmath's LU at 40 digits, on
    the side-6, n = 2 pair_nn model at lambda 15 (dim 36). Each entry lies
    within dim * floor, where floor = eps (||H|| + |z|) ||G e_x|| ||G e_y||
    is the backward-error floor both paths share: a backward-stable solver
    returns the Green function of H + dH with ||dH|| ~ eps ||H||, and
    dG(x, y) = -(G dH G)(x, y). Neither a relative tolerance (entries far
    from the diagonal sit at the floor) nor the term floor
    eps * sum_k |psi_k(x) psi_k(y)| / |E_k - z| is a bound: 1e-6 from an
    eigenvalue, the eigen sum exceeds the latter by 4e5 * dim here."""
    box = Box.centered(1, 6)
    pair_nn = InteractionSpec.pair_nn(0.2)
    spec = OperatorSpec(box=box, n=2, lam=15.0, interaction=pair_nn)
    H = assemble(spec, sample(box, UNIFORM_HALF, 0))
    S, dense, mp = spectral_data(H), H.dense(), mpmath.mp
    iy = [0, S.dim // 2]
    e = S.energies[S.dim // 3]
    # the probe's height, next to an eigenvalue and off it, and the monitor's
    zs = [e + 1e-6j, e + 1e-3 + 1e-6j, 0.3 + 1j / 16]
    worst = 0.0
    with mpmath.workdps(40):
        for z in zs:
            shifted = mp.matrix(dense.tolist()) - mp.mpc(z) * mp.eye(S.dim)
            LU, perm = mp.LU_decomp(shifted)
            # ||G e_x|| for every x
            norms = np.sqrt(S.vectors**2 @ np.abs(S.energies - z) ** -2)
            eig = green_block(S, np.arange(S.dim), iy, [z])[0]
            for j, y in enumerate(iy):
                b = mp.matrix(S.dim, 1)
                b[y] = 1
                exact = mp.U_solve(LU, mp.L_solve(LU, b, perm))
                exact = np.array([complex(v) for v in exact])
                floor = np.finfo(float).eps * (S.hnorm + abs(z)) * norms * norms[y]
                for got in (
                    eig[:, j], _green_column(H.matrix, y, z), _green_column(dense, y, z)
                ):
                    worst = max(worst, float(np.max(np.abs(got - exact) / floor)))
    assert worst <= S.dim


# -------------------------------------------------------------- correlator


def test_correlator_completeness_on_diagonal():
    H = build(side=14, lam=1.0, seed=3)
    S = spectral_data(H)
    assert correlator(S, c1(4), c1(4), EnergyInterval.full_line()) == pytest.approx(
        1.0
    )


def test_correlator_free_two_site():
    H = build(side=2, lam=0.0)
    S = spectral_data(H)
    assert correlator(S, c1(0), c1(1), EnergyInterval.full_line()) == pytest.approx(
        1.0
    )


def test_correlator_empty_interval():
    H = build(side=6, lam=1.0, seed=4)
    S = spectral_data(H)
    assert correlator(S, c1(0), c1(3), EnergyInterval(100.0, 200.0)) == 0.0


def test_correlator_symmetric_and_monotone():
    H = build(side=10, lam=2.0, seed=6)
    S = spectral_data(H)
    x, y = c1(1), c1(7)
    small = EnergyInterval(1.0, 2.0)
    big = EnergyInterval(0.0, 4.0)
    q_small = correlator(S, x, y, small)
    q_big = correlator(S, x, y, big)
    assert q_small == pytest.approx(correlator(S, y, x, small))
    assert q_small <= q_big + 1e-12
    assert q_big <= 1.0 + 1e-12


def test_correlator_grouping_handles_exact_degeneracy():
    # free n=2 distinguishable: exchange-degenerate pairs E_i + E_j; the
    # grouped correlator must not depend on the arbitrary rotation eigh
    # picks inside each degenerate 2-space. Reference: group projections
    # built from the exact tensor-product eigenbasis.
    box = Box(d=1, side=5)
    spec = OperatorSpec(box=box, n=2, lam=0.0)
    H = assemble(spec, sample(box, UNIFORM_HALF, 0))
    S = spectral_data(H)
    e1, v1 = np.linalg.eigh(
        assemble(
            OperatorSpec(box=box, n=1, lam=0.0), sample(box, UNIFORM_HALF, 0)
        ).matrix.toarray()
    )
    # tensor eigenbasis, energies e_i + e_j
    dim = box.volume**2
    energies = np.add.outer(e1, e1).ravel()
    vectors = np.einsum("ai,bj->abij", v1, v1).reshape(dim, dim)
    order = np.argsort(energies, kind="stable")
    energies, vectors = energies[order], vectors[:, order]

    x = Configuration(sites=((0,), (1,)))
    y = Configuration(sites=((3,), (2,)))
    ix, iy = S.rank_of(x), S.rank_of(y)
    interval = EnergyInterval(2.0, 6.0)
    # reference: sum over distinct energies of |<x P_E y>|
    tol = 1e-9 * max(abs(energies).max(), 1.0)
    ref = 0.0
    start = 0
    for k in range(1, dim + 1):
        if k == dim or energies[k] - energies[k - 1] > tol:
            e_mean = energies[start:k].mean()
            if interval.contains(e_mean):
                block = vectors[:, start:k]
                ref += abs(float(block[ix, :] @ block[iy, :]))
            start = k
    assert correlator(S, x, y, interval) == pytest.approx(ref, abs=1e-9)


def _group_weights_by_slices(S, ix, iy):
    """The slice-loop definition group_weights must reproduce bit for bit."""
    tol = GROUPING_RTOL * max(S.hnorm, 1.0)
    cuts = np.nonzero(np.diff(S.energies) > tol)[0] + 1
    edges = [0, *cuts.tolist(), S.dim]
    slices = [slice(a, b) for a, b in zip(edges, edges[1:])]
    prod = S.vectors[ix, :] * S.vectors[iy, :]
    energies = np.array([S.energies[sl].mean() for sl in slices])
    weights = np.array([prod[sl].sum() for sl in slices])
    return energies, weights


# free bosons and free d=2 fermions have groups of three and more
# eigenvalues; the probe model (lambda 15, truncated Gaussian) has none
_GROUP_MODELS = {
    "bosons_d1": (Box(d=1, side=12), 3, "boson", 0.0, InteractionSpec.none(),
                  UNIFORM_HALF, 3),
    "fermions_d2": (Box(d=2, side=6), 2, "fermion", 0.0, InteractionSpec.none(),
                    UNIFORM_HALF, 3),
    "probe": (Box(d=1, side=20), 2, "distinguishable", 15.0, InteractionSpec.pair_nn(0.2),
              DensitySpec.truncated_gaussian(0.5, 1.0), 1),
}


@pytest.mark.parametrize("model", sorted(_GROUP_MODELS))
def test_group_weights_equal_slice_fold(model):
    box, n, sector, lam, inter, density, least_largest = _GROUP_MODELS[model]
    spec = OperatorSpec(box=box, n=n, sector=sector, lam=lam, interaction=inter)
    S = spectral_data(assemble(spec, sample(box, density, 0)))
    _, counts = S.groups
    assert counts.max() >= least_largest and counts.sum() == S.dim
    rng = np.random.default_rng(5)
    pairs = [(k, k) for k in range(0, S.dim, 7)]
    pairs += [tuple(p) for p in rng.integers(0, S.dim, size=(300, 2))]
    for ix, iy in pairs:
        got = group_weights(S, ix, iy)
        ref = _group_weights_by_slices(S, ix, iy)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def _random_pairs(index, count, seed):
    rng = np.random.default_rng(seed)
    for i, j in rng.integers(0, index.size, size=(count, 2)):
        yield index.config_at(int(i)), index.config_at(int(j))


@pytest.mark.parametrize("sector", ["distinguishable", "boson", "fermion"])
def test_correlator_windows_partition_the_line(sector):
    """Windows that partition the line, with edges between group means,
    hold every group exactly once, so their correlators sum to the
    full-line Q up to summation order."""
    box = Box(d=1, side=12)
    spec = OperatorSpec(box=box, n=2, sector=sector, lam=3.0,
                        interaction=InteractionSpec.pair_nn(0.5))
    for seed in range(4):
        S = spectral_data(assemble(spec, sample(box, UNIFORM_HALF, seed)))
        means, _ = group_weights(S, 0, 0)
        cut = np.linspace(1, means.size - 1, 9).astype(int)
        edges = [-np.inf, *(means[cut - 1] + means[cut]) / 2, np.inf]
        assert not np.isin(edges, means).any()
        windows = [EnergyInterval(lo, hi) for lo, hi in zip(edges, edges[1:])]
        for x, y in _random_pairs(spec.config_index, 50, seed):
            full = correlator(S, x, y, EnergyInterval.full_line())
            parts = sum(correlator(S, x, y, w) for w in windows)
            assert parts == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("sector", ["boson", "distinguishable"])
def test_correlator_of_a_free_pair_from_one_particle_states(sector):
    """At U = 0 the pair eigenstates are products of one-particle states
    phi_k at the same seed, so Q(x, y) on the whole line is
    sum_(k <= l) |Phi_kl(x) Phi_kl(y)|. Bosons: Phi_kl is the normalized
    symmetrized product, and no two pair energies coincide. Distinguishable
    particles: (k, l) and (l, k) are one exactly degenerate group, so their
    terms add before the absolute value."""
    L = 10
    box = Box(d=1, side=L)
    spec = OperatorSpec(box=box, n=2, sector=sector, lam=3.0)
    upper = np.triu(np.ones((L, L), dtype=bool))
    # symmetrized-product norms: sqrt(2) off the diagonal, 2 on it
    norm = np.where(np.eye(L, dtype=bool), 2.0, np.sqrt(2.0))

    def amplitudes(V, config):
        """[k, l] -> Phi_kl(config), for the sector's pair states."""
        (a,), (b,) = config.sites
        if sector == "distinguishable":
            return np.outer(V[a], V[b])
        sym = np.outer(V[a], V[b]) + np.outer(V[b], V[a])
        return 2.0 * sym / norm / norm[a, b]

    for seed in range(6):
        real = sample(box, UNIFORM_HALF, seed)
        S = spectral_data(assemble(spec, real))
        one = assemble(OperatorSpec(box=box, n=1, lam=3.0), real)
        _, V = np.linalg.eigh(one.matrix.toarray())
        _, counts = S.groups
        if sector == "boson":
            assert counts.max() == 1
        else:
            assert np.bincount(counts).tolist() == [0, L, L * (L - 1) // 2]
        for x, y in _random_pairs(spec.config_index, 200, seed):
            terms = amplitudes(V, x) * amplitudes(V, y)
            if sector == "distinguishable":
                terms = terms + terms.T - np.diag(np.diag(terms))
            want = np.abs(terms[upper]).sum()
            got = correlator(S, x, y, EnergyInterval.full_line())
            assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------- dynamics


def test_kernel_two_level_rabi():
    # free 2-site hop: |<0|e^(-itH)|1>|^2 = sin^2 t
    H = build(side=2, lam=0.0)
    S = spectral_data(H)
    times = np.array([0.0, np.pi / 4, np.pi / 2, np.pi])
    kr = dynamical_kernel(S, c1(0), c1(1), EnergyInterval.full_line(), times)
    assert np.allclose(kr.samples, np.sin(times) ** 2, atol=1e-12)
    assert kr.sup_upper == pytest.approx(1.0)
    assert kr.sup_lower == pytest.approx(1.0)


def test_kernel_t0_matches_projected_overlap():
    H = build(side=9, lam=2.0, seed=8)
    S = spectral_data(H)
    x = c1(4)
    kr = dynamical_kernel(
        S, x, x, EnergyInterval.full_line(), times=np.array([0.0])
    )
    assert kr.samples[0] == pytest.approx(1.0)


def test_kernel_bounded_by_squared_correlator():
    for seed in range(6):
        H = build(side=10, lam=1.5, seed=seed, n=2, alpha=0.3)
        S = spectral_data(H)
        x = Configuration(sites=((1,), (2,)))
        y = Configuration(sites=((5,), (8,)))
        interval = EnergyInterval(1.0, 6.0)
        kr = dynamical_kernel(S, x, y, interval)
        q = correlator(S, x, y, interval)
        assert kr.sup_lower <= q * q + 1e-9
        assert kr.sup_upper == pytest.approx(q * q)
        assert np.all(kr.samples <= q * q + 1e-9)


def test_kernel_empty_interval_is_zero():
    H = build(side=6, lam=1.0, seed=9)
    S = spectral_data(H)
    kr = dynamical_kernel(S, c1(0), c1(5), EnergyInterval(50.0, 60.0))
    assert kr.sup_lower == 0.0 and kr.sup_upper == 0.0
    assert np.all(kr.samples == 0.0)


def test_default_time_grid_shape():
    assert DEFAULT_TIME_GRID[0] == pytest.approx(0.1)
    assert DEFAULT_TIME_GRID[-1] == pytest.approx(1.0e4)
    assert DEFAULT_TIME_GRID.size == 256
    assert np.all(np.diff(DEFAULT_TIME_GRID) > 0)


# --------------------------------------------------------------- composites


def test_composite_scalar_blocks_closed_form():
    box = Box(d=1, side=1)
    HJ = assemble(OperatorSpec(box=box, n=1, lam=3.0), sample(box, UNIFORM_HALF, 1))
    HK = assemble(OperatorSpec(box=box, n=1, lam=3.0), sample(box, UNIFORM_HALF, 2))
    a = HJ.matrix[0, 0]
    b = HK.matrix[0, 0]
    z = a + b + 2.0j
    x = (c1(0), c1(0))
    (res,) = composite_green_check(HJ, HK, x, x, z, quadrature_points=(128,))
    expect = 1.0 / (a + b - z)
    assert res.direct == pytest.approx(expect, rel=1e-12)
    assert res.gap < 1e-12


def test_composite_gap_small_and_quadrature_monotone():
    HJ = build(side=6, lam=2.0, seed=4)
    HK = build(side=6, lam=2.0, seed=5)
    eJ = np.linalg.eigvalsh(HJ.matrix.toarray())
    eK = np.linalg.eigvalsh(HK.matrix.toarray())
    center = (eK.min() + eK.max()) / 2.0
    radius = max(1.25 * (eK.max() - eK.min()) / 2.0, 1.0)
    z = complex(np.median(eJ) + center, 1.05 * radius)
    x = (c1(0), c1(0))
    y = (c1(4), c1(1))
    (r256,) = composite_green_check(HJ, HK, x, y, z, quadrature_points=(256,))
    (r512,) = composite_green_check(HJ, HK, x, y, z, quadrature_points=(512,))
    assert r512.gap <= 1e-8
    assert r512.gap < r256.gap


def test_composite_check_shares_work_across_node_counts(monkeypatch):
    HJ = build(side=4, lam=2.0, seed=6)
    HK = build(side=3, lam=2.0, seed=7)
    x = (c1(0), c1(2))
    y = (c1(3), c1(1))
    z = complex(4.0, 6.0)
    one = [composite_green_check(HJ, HK, x, y, z, (n,))[0] for n in (16, 32)]
    calls = {"spectral_data": 0, "_green_column": 0}
    for name in calls:
        fn = getattr(spectral, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(spectral, name, counted)
    both = composite_green_check(HJ, HK, x, y, z, (16, 32))
    # one eigendecomposition per block and one direct solve for both counts
    assert calls == {"spectral_data": 2, "_green_column": 1}
    assert both == tuple(one)


def test_composite_direct_matches_eigensum_reference():
    HJ = build(side=5, lam=1.0, seed=2)
    HK = build(side=4, lam=2.0, seed=3)
    S = spectral_data(kron_sum(HJ, HK))
    x = (c1(1), c1(0))
    y = (c1(3), c1(2))
    # Im z > radius keeps every pole strictly outside the contour
    eK = np.linalg.eigvalsh(HK.matrix.toarray())
    radius = max(1.25 * (eK.max() - eK.min()) / 2.0, 1.0)
    z = complex(3.7, 1.3 * radius)
    (res,) = composite_green_check(HJ, HK, x, y, z, quadrature_points=(256,))
    ref = green_block(S, [S.rank_of(x)], [S.rank_of(y)], [z])[0, 0, 0]
    assert res.direct == pytest.approx(ref, rel=1e-9)
    assert res.contour == pytest.approx(ref, rel=1e-6)


def test_composite_direct_solve_is_dense_up_to_the_cap(monkeypatch):
    """The direct side factors a dense array up to _DENSE_SOLVE_CAP and a
    scipy sparse matrix above it; both sides give the eigen-sum value."""
    kinds = []
    solve = spectral._green_column

    def recorded(matrix, iy, z):
        kinds.append(type(matrix).__module__.split(".")[0])
        return solve(matrix, iy, z)

    monkeypatch.setattr(spectral, "_green_column", recorded)
    x = (c1(1), c1(0))
    y = (c1(9), c1(12))
    HJ = build(side=16, lam=1.0, seed=2)
    for side in (16, 17):  # composite dimension 256, then 272
        HK = build(side=side, lam=2.0, seed=3)
        eK = np.linalg.eigvalsh(HK.dense())
        z = complex(3.7, 1.3 * max(1.25 * (eK.max() - eK.min()) / 2.0, 1.0))
        S = spectral_data(kron_sum(HJ, HK))
        ref = green_block(S, [S.rank_of(x)], [S.rank_of(y)], [z])[0, 0, 0]
        (res,) = composite_green_check(HJ, HK, x, y, z, quadrature_points=(256,))
        assert res.direct == pytest.approx(ref, rel=1e-9)
    assert spectral._DENSE_SOLVE_CAP == 256
    assert kinds == ["numpy", "scipy"]


def test_composite_check_needs_node_counts():
    box = Box(d=1, side=1)
    HJ = assemble(OperatorSpec(box=box, n=1, lam=3.0), sample(box, UNIFORM_HALF, 1))
    HK = assemble(OperatorSpec(box=box, n=1, lam=3.0), sample(box, UNIFORM_HALF, 2))
    x = (c1(0), c1(0))
    z = HJ.matrix[0, 0] + HK.matrix[0, 0] + 2.0j
    for counts in ((), (8, 1)):
        with pytest.raises(ValueError, match="quadrature_points"):
            composite_green_check(HJ, HK, x, x, z, counts)


def test_composite_geometry_error_near_spectrum():
    HJ = build(side=6, lam=2.0, seed=4)
    HK = build(side=6, lam=2.0, seed=5)
    eJ = np.linalg.eigvalsh(HJ.matrix.toarray())
    eK = np.linalg.eigvalsh(HK.matrix.toarray())
    z = complex(np.median(eJ) + (eK.min() + eK.max()) / 2.0, 0.05)
    x = (c1(0), c1(0))
    with pytest.raises(ContourGeometryError):
        composite_green_check(HJ, HK, x, x, z)


@pytest.mark.parametrize("d, side, n", [(1, 4, 2), (2, 3, 1)])
def test_composite_identity_on_free_blocks(d, side, n):
    # lambda = 0: free blocks with degenerate spectra, identical for J and
    # K, so the poles of both factors coincide
    HJ = build(d=d, side=side, n=n, lam=0.0, seed=0)
    HK = build(d=d, side=side, n=n, lam=0.0, seed=1)
    eK = np.linalg.eigvalsh(HK.matrix.toarray())
    assert np.min(np.diff(eK)) < 1e-9  # the spectrum is degenerate
    radius = max(1.25 * (eK.max() - eK.min()) / 2.0, 1.0)
    z = complex(eK.min() + eK.max(), radius + 0.75)
    origin = (0,) * d
    far = (side - 1,) * d
    x = (Configuration(sites=(origin,) * n),) * 2
    y = (Configuration(sites=(far,) + (origin,) * (n - 1)), x[1])
    S = spectral_data(kron_sum(HJ, HK))
    ref = green_block(S, [S.rank_of(x)], [S.rank_of(y)], [z])[0, 0, 0]
    (res,) = composite_green_check(HJ, HK, x, y, z, quadrature_points=(512,))
    assert res.gap <= 1e-8
    assert res.contour == pytest.approx(ref, rel=1e-8)
    assert res.direct == pytest.approx(ref, rel=1e-9)


def test_kron_sum_is_the_scipy_kronecker_sum():
    """Both forms of kron_sum are the scipy Kronecker sum, bit for bit:
    signs of zeros, CSR structure and stored doubles included."""
    pairs = [
        (build(side=3, lam=1.0, seed=0), build(side=2, lam=1.0, seed=1)),
        (
            build(d=2, side=3, lam=1.0, seed=0),
            build(side=4, n=2, sector="boson", alpha=0.5, lam=1.0, seed=1),
        ),
    ]
    for HJ, HK in pairs:
        H = kron_sum(HJ, HK)
        assert H.dim == HJ.dim * HK.dim
        eye_j, eye_k = sp.identity(HJ.dim), sp.identity(HK.dim)
        # without format="csr", sp.kron returns BSR
        expect = sp.kron(HJ.matrix, eye_k, format="csr") + sp.kron(
            eye_j, HK.matrix, format="csr"
        )
        assert H.dense().tobytes() == expect.toarray().tobytes()
        for name in ("indptr", "indices", "data"):
            assert getattr(H.matrix, name).tobytes() == getattr(expect, name).tobytes()
        x = (HJ.index.config_at(HJ.dim - 1), HK.index.config_at(1))
        assert H.rank_of(x) == (HJ.dim - 1) * HK.dim + 1


# ------------------------------------------------------------ subadditivity


def test_subadditivity_sweep_no_violations():
    rng = np.random.default_rng(0)
    for seed in range(40):
        HJ = build(side=5, lam=1.0 + (seed % 3), seed=seed)
        HK = build(side=4, lam=2.0, seed=seed + 100)
        SJ, SK = spectral_data(HJ), spectral_data(HK)
        SJK = spectral_data(kron_sum(HJ, HK))
        xs = rng.integers(0, 5), rng.integers(0, 4)
        ys = rng.integers(0, 5), rng.integers(0, 4)
        x = (c1(int(xs[0])), c1(int(xs[1])))
        y = (c1(int(ys[0])), c1(int(ys[1])))
        lo = float(rng.uniform(-2, 4))
        res = subadditivity_check(
            SJ, SK, SJK, x, y, EnergyInterval(lo, lo + float(rng.uniform(0, 6)))
        )
        assert res.lhs <= res.rhs + 1e-9


def test_subadditivity_diagonal_equality_case():
    # x = y and I = R: lhs = 1 and rhs = 1 exactly
    HJ = build(side=4, lam=2.0, seed=11)
    HK = build(side=3, lam=2.0, seed=12)
    SJ, SK = spectral_data(HJ), spectral_data(HK)
    SJK = spectral_data(kron_sum(HJ, HK))
    x = (c1(2), c1(1))
    res = subadditivity_check(SJ, SK, SJK, x, x, EnergyInterval.full_line())
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0)


def test_subadditivity_requires_composite_data():
    H = build(side=4, lam=1.0, seed=0, n=2)
    S = spectral_data(H)
    x = Configuration(sites=((0,), (1,)))
    with pytest.raises(ValueError):
        subadditivity_check(S, S, S, x, x, EnergyInterval.full_line())


# ------------------------------------------------------- eigendecomposition


_EIGH_CASES = {
    "dim1": lambda: build(side=1, lam=3.0, seed=1),
    "dim2": lambda: build(side=2, lam=3.0, seed=2),
    "dim3": lambda: build(side=3, lam=3.0, seed=3),
    "dim10": lambda: build(side=10, lam=2.0, seed=4),
    "dim64_d2": lambda: build(d=2, side=8, lam=2.0, seed=5),
    "dim400_pair": lambda: build(side=20, n=2, lam=4.0, seed=6, alpha=0.3),
    # exchange-degenerate pairs E_i + E_j, equal to the last bit
    "free_distinguishable_pair": lambda: build(side=5, n=2, lam=0.0),
    "kron_sum": lambda: kron_sum(
        build(side=4, n=2, sector="boson", seed=7), build(side=5, seed=8)
    ),
}


@pytest.mark.parametrize("case", sorted(_EIGH_CASES))
def test_spectral_data_has_the_bits_of_numpy_eigh(case, monkeypatch):
    H = _EIGH_CASES[case]()
    energies, vectors = np.linalg.eigh(H.dense())
    S = spectral_data(H)
    assert S.energies.tobytes() == energies.tobytes()
    assert np.ascontiguousarray(S.vectors).tobytes() == vectors.tobytes()
    assert not (S.energies.flags.writeable or S.vectors.flags.writeable)
    # without numpy's LAPACK symbol, spectral_data calls np.linalg.eigh
    monkeypatch.setattr(spectral, "_DSYEVD", None)
    fallback = spectral_data(H)
    assert fallback.energies.tobytes() == energies.tobytes()
    assert fallback.vectors.tobytes() == vectors.tobytes()


def test_spectral_data_leaves_the_operator_as_it_was():
    H = build(side=12, n=2, lam=3.0, seed=9)
    hops = [a.copy() for a in H.hops]
    diagonal = H.diagonal.copy()
    first, second = spectral_data(H), spectral_data(H)
    assert first.energies.tobytes() == second.energies.tobytes()
    assert np.array_equal(first.vectors, second.vectors)
    assert all(np.array_equal(a, b) for a, b in zip(H.hops, hops))
    assert np.array_equal(H.diagonal, diagonal)


@pytest.mark.skipif(spectral._DSYEVD is None, reason="numpy has no scipy_dsyevd_64_")
@pytest.mark.parametrize(
    "info, error", [(1, np.linalg.LinAlgError), (-4, ValueError)]
)
def test_spectral_data_raises_on_lapack_info(info, error, monkeypatch):
    def dsyevd(*args):
        args[-1].value = info

    monkeypatch.setattr(spectral, "_DSYEVD", dsyevd)
    with pytest.raises(error):
        spectral_data(build(side=4))


# ------------------------------------------------------------------ budget


def test_dense_cap_budget_error(monkeypatch):
    H = build(side=30, lam=1.0, seed=0)
    monkeypatch.setattr(spectral, "DENSE_DIAG_CAP", 10)
    with pytest.raises(BudgetError) as exc:
        spectral_data(H)
    assert exc.value.count == 30
    assert exc.value.limit == 10


def test_interval_validation():
    with pytest.raises(ValueError):
        EnergyInterval(2.0, 1.0)
    assert EnergyInterval.unit(3.0).length == pytest.approx(1.0)
    assert EnergyInterval.full_line().contains(1e12)
