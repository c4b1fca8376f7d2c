import numpy as np
import pytest
import scipy.sparse as sp

from mplab.configspace import Box, Configuration
from mplab.disorder import UNIFORM_HALF, DensitySpec, sample
from mplab.errors import BudgetError, ContourGeometryError, SingularityError
from mplab import spectral
from mplab.operator import InteractionSpec, OperatorSpec, assemble
from mplab.spectral import (
    DEFAULT_TIME_GRID,
    GROUPING_RTOL,
    EnergyInterval,
    composite_green_check,
    composite_matrix,
    composite_spectral_data,
    correlator,
    dynamical_kernel,
    _green_column,
    eig_green,
    green,
    green_block,
    green_entries,
    group_weights,
    resolvent_weights,
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
        g_eig = eig_green(S, S.rank_of(x), S.rank_of(y), z)
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
def test_green_entries_matches_sparse_solve(d, side, n, sector):
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
        got = green_entries(S, ix, iy, zs)
        want = np.array([_green_column(H.matrix, iy, z)[ix] for z in zs])
        assert got.shape == zs.shape and got.dtype == complex
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert worst <= 1e-10


@pytest.mark.parametrize("nx,ny", [(3, 4), (1, 5), (4, 1), (1, 1)])
def test_green_block_matches_green_entries(nx, ny):
    H = build(d=2, side=4, n=2, lam=3.0, seed=5, sector="boson", alpha=0.4)
    S = spectral_data(H)
    rng = np.random.default_rng(8)
    ix, iy = rng.choice(S.dim, nx, replace=False), rng.choice(S.dim, ny, replace=False)
    zs = rng.uniform(S.energies[0], S.energies[-1], 6) + 1j * np.array(
        [1e-3, 0.06, 0.5, 1e-3, 0.06, 0.5]
    )
    block = green_block(S, ix, iy, resolvent_weights(S, zs))
    assert block.shape == (zs.size, nx, ny) and block.dtype == complex
    want = np.array(
        [[green_entries(S, x, y, zs) for y in iy] for x in ix]
    ).transpose(2, 0, 1)
    assert np.allclose(block, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())
    # the nodes themselves are not the weights
    with pytest.raises(ValueError):
        green_block(S, ix, iy, zs)


def test_eig_green_is_green_entries_at_one_point():
    H = build(side=10, lam=2.0, seed=3)
    S = spectral_data(H)
    zs = np.array([1.0 + 0.2j, 4.0 + 1e-6j])
    many = green_entries(S, 2, 7, zs)
    assert [eig_green(S, 2, 7, z) for z in zs] == many.tolist()


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
    x = Configuration(sites=((0,), (0,)))
    res = composite_green_check(HJ, HK, x, x, z, quadrature_points=128)
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
    x = Configuration(sites=((0,), (0,)))
    y = Configuration(sites=((4,), (1,)))
    r256 = composite_green_check(HJ, HK, x, y, z, quadrature_points=256)
    r512 = composite_green_check(HJ, HK, x, y, z, quadrature_points=512)
    assert r512.gap <= 1e-8
    assert r512.gap < r256.gap


def test_composite_check_shares_work_across_node_counts(monkeypatch):
    HJ = build(side=4, lam=2.0, seed=6)
    HK = build(side=3, lam=2.0, seed=7)
    x = Configuration(sites=((0,), (2,)))
    y = Configuration(sites=((3,), (1,)))
    z = complex(4.0, 6.0)
    one = [composite_green_check(HJ, HK, x, y, z, n) for n in (16, 32)]
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
    S = composite_spectral_data(HJ, HK)
    x = Configuration(sites=((1,), (0,)))
    y = Configuration(sites=((3,), (2,)))
    # Im z > radius keeps every pole strictly outside the contour
    eK = np.linalg.eigvalsh(HK.matrix.toarray())
    radius = max(1.25 * (eK.max() - eK.min()) / 2.0, 1.0)
    z = complex(3.7, 1.3 * radius)
    res = composite_green_check(HJ, HK, x, y, z, quadrature_points=256)
    ref = eig_green(S, S.rank_of(x), S.rank_of(y), z)
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
    x = Configuration(sites=((1,), (0,)))
    y = Configuration(sites=((9,), (12,)))
    HJ = build(side=16, lam=1.0, seed=2)
    for side in (16, 17):  # composite dimension 256, then 272
        HK = build(side=side, lam=2.0, seed=3)
        eK = np.linalg.eigvalsh(HK.dense())
        z = complex(3.7, 1.3 * max(1.25 * (eK.max() - eK.min()) / 2.0, 1.0))
        S = composite_spectral_data(HJ, HK)
        ref = eig_green(S, S.rank_of(x), S.rank_of(y), z)
        res = composite_green_check(HJ, HK, x, y, z, quadrature_points=256)
        assert res.direct == pytest.approx(ref, rel=1e-9)
    assert spectral._DENSE_SOLVE_CAP == 256
    assert kinds == ["numpy", "scipy"]


def test_composite_geometry_error_near_spectrum():
    HJ = build(side=6, lam=2.0, seed=4)
    HK = build(side=6, lam=2.0, seed=5)
    eJ = np.linalg.eigvalsh(HJ.matrix.toarray())
    eK = np.linalg.eigvalsh(HK.matrix.toarray())
    z = complex(np.median(eJ) + (eK.min() + eK.max()) / 2.0, 0.05)
    x = Configuration(sites=((0,), (0,)))
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
    x = Configuration(sites=(origin,) * 2 * n)
    y = Configuration(sites=(far,) + (origin,) * (2 * n - 1))
    S = composite_spectral_data(HJ, HK)
    ref = eig_green(S, S.rank_of(x), S.rank_of(y), z)
    res = composite_green_check(HJ, HK, x, y, z, quadrature_points=512)
    assert res.gap <= 1e-8
    assert res.contour == pytest.approx(ref, rel=1e-8)
    assert res.direct == pytest.approx(ref, rel=1e-9)


def test_composite_matrix_is_kron_sum():
    HJ = build(side=3, lam=1.0, seed=0)
    HK = build(side=2, lam=1.0, seed=1)
    M, basis = composite_matrix(HJ, HK)
    A = HJ.dense()
    B = HK.dense()
    expect = np.kron(A, np.eye(2)) + np.kron(np.eye(3), B)
    assert np.allclose(M, expect, atol=0.0)
    assert basis.size == 6
    # entry for entry, signs of zeros included, the sparse Kronecker sum
    kron_sum = sp.kron(HJ.matrix, sp.identity(2)) + sp.kron(sp.identity(3), HK.matrix)
    assert M.tobytes() == kron_sum.toarray().tobytes()


def test_product_basis_split_rejects_bad_parts():
    HJ = build(side=3, lam=1.0, seed=0, n=1, sector="fermion")
    HK = build(side=3, lam=1.0, seed=1, n=2, sector="fermion")
    _, basis = composite_matrix(HJ, HK)
    good = Configuration(sites=((0,), (0,), (2,)), sector="distinguishable")
    # right part ((0,), (2,)) is canonical for fermions, so this splits
    cl, cr = basis.split(good)
    assert cl.sites == ((0,),) and cr.sites == ((0,), (2,))
    with pytest.raises(ValueError):
        basis.split(Configuration(sites=((0,), (2,), (0,))))


# ------------------------------------------------------------ subadditivity


def test_subadditivity_sweep_no_violations():
    rng = np.random.default_rng(0)
    for seed in range(40):
        HJ = build(side=5, lam=1.0 + (seed % 3), seed=seed)
        HK = build(side=4, lam=2.0, seed=seed + 100)
        SJ, SK = spectral_data(HJ), spectral_data(HK)
        SJK = composite_spectral_data(HJ, HK)
        xs = rng.integers(0, 5), rng.integers(0, 4)
        ys = rng.integers(0, 5), rng.integers(0, 4)
        x = Configuration(sites=((int(xs[0]),), (int(xs[1]),)))
        y = Configuration(sites=((int(ys[0]),), (int(ys[1]),)))
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
    SJK = composite_spectral_data(HJ, HK)
    x = Configuration(sites=((2,), (1,)))
    res = subadditivity_check(SJ, SK, SJK, x, x, EnergyInterval.full_line())
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0)


def test_subadditivity_requires_composite_data():
    H = build(side=4, lam=1.0, seed=0, n=2)
    S = spectral_data(H)
    x = Configuration(sites=((0,), (1,)))
    with pytest.raises(ValueError):
        subadditivity_check(S, S, S, x, x, EnergyInterval.full_line())


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
