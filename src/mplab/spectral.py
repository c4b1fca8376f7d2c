"""Exact spectral quantities of assembled operators.

Green functions G(x, y; z) = <delta_x, (H - z)^(-1) delta_y> via shifted
LU solves (sparse SuperLU on a scipy matrix, LAPACK on a dense array) or,
for whole arrays of z at once, via a dense eigendecomposition
(green_entries); eigenfunction correlators and
dynamical kernels via the same eigendecomposition; a contour-convolution
identity for non-interacting composites, and the correlator subadditivity
check that rests on it.

Eigenvalues closer than GROUPING_RTOL * ||H|| are treated as one degenerate
group throughout: correlators sum |<x, P_g y>| per group, and time evolution
phases each group coherently at its mean energy. This keeps every reported
quantity invariant under the arbitrary basis rotations a dense solver is
free to make inside (near-)degenerate eigenspaces, and it makes the bound
|kernel(t)| <= correlator^2 structural rather than generic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configspace import ConfigIndex, Configuration
from .errors import BudgetError, ContourGeometryError, SingularityError
from .operator import SparseHamiltonian

# Dense eigendecomposition ceiling; ensembles above this must use solves.
DENSE_DIAG_CAP = 20_000

# Relative gap under which adjacent eigenvalues count as one group.
GROUPING_RTOL = 1e-9

# Default time grid for dynamical kernels: geometric sweep over the window
# where transport, if any, would show.
DEFAULT_TIME_GRID = np.geomspace(0.1, 1.0e4, 256)

_RESIDUAL_RTOL = 1e-10
_SINGULARITY_FACTOR = 1e3

# composite_green_check's direct solve is dense (LAPACK) up to this
# composite dimension and sparse (SuperLU) above it: the two cost the same
# near 256 on Kronecker sums of 1-d and 2-d blocks, and a dense complex
# matrix grows as 16 N^2 bytes (5 GB at N = 18496, dim_cap 136).
_DENSE_SOLVE_CAP = 256


def __getattr__(name):
    # scipy.sparse.linalg (`spla`) loads on first use: only sparse solves
    # need it, and importing it costs a quarter of a second
    if name == "spla":
        import scipy.sparse.linalg as spla

        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class EnergyInterval:
    """Closed interval on the energy axis; endpoints may be infinite."""

    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def full_line(cls) -> "EnergyInterval":
        return cls(-np.inf, np.inf)

    @classmethod
    def unit(cls, center: float) -> "EnergyInterval":
        return cls(center - 0.5, center + 0.5)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, energy):
        return (energy >= self.lo) & (energy <= self.hi)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Full eigendecomposition of a finite block, plus its basis index.

    The degenerate groups (`groups`) are found once per eigendecomposition
    and shared by every group_weights call on it.
    """

    energies: np.ndarray  # ascending
    vectors: np.ndarray  # columns matching energies
    index: object  # ConfigIndex or ProductBasis

    def __post_init__(self):
        self.energies.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def hnorm(self) -> float:
        """Spectral norm, the scale for degeneracy thresholds."""
        return float(np.abs(self.energies).max()) if self.dim else 0.0

    def rank_of(self, config) -> int:
        return self.index.index_of(config)

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, counts) of the maximal runs of eigenvalues whose
        consecutive gaps are under the threshold, in ascending order."""
        tol = GROUPING_RTOL * max(self.hnorm, 1.0)
        cuts = np.nonzero(np.diff(self.energies) > tol)[0] + 1
        starts = np.concatenate(([0], cuts))
        counts = np.diff(np.append(starts, self.dim))
        for a in (starts, counts):
            a.setflags(write=False)
        return starts, counts


def spectral_data(H: SparseHamiltonian) -> SpectralData:
    """Dense eigendecomposition of an assembled operator."""
    if H.dim > DENSE_DIAG_CAP:
        raise BudgetError(
            f"dense eigendecomposition of dimension {H.dim} exceeds cap "
            f"{DENSE_DIAG_CAP}",
            count=H.dim,
            limit=DENSE_DIAG_CAP,
        )
    energies, vectors = np.linalg.eigh(H.dense())
    return SpectralData(energies=energies, vectors=vectors, index=H.index)


# ------------------------------------------------------------------ green


def _green_column(matrix, iy: int, z: complex) -> np.ndarray:
    """Solve (H - z) w = delta_y with an LU factorization, all rows at once.

    A dense array is factored by LAPACK (numpy.linalg.solve), a scipy
    sparse matrix by SuperLU (`spla.splu`, looked up on this module at call
    time). Residual acceptance is the mixed backward-error criterion
    ||r|| <= rtol * (||b|| + ||H - z|| * ||w||), which keeps legitimately
    near-singular solves (where ||w|| is honestly huge) while still
    rejecting a broken factorization.
    """
    dim = matrix.shape[0]
    b = np.zeros(dim, dtype=complex)
    b[iy] = 1.0
    if isinstance(matrix, np.ndarray):
        shifted = matrix.astype(complex)
        shifted.flat[:: dim + 1] -= z
        scale = float(np.abs(shifted).sum(axis=0).max())
        solve, singular = np.linalg.solve, np.linalg.LinAlgError
    else:
        import scipy.sparse as sp

        spla = sys.modules[__name__].spla
        shifted = (matrix - z * sp.identity(dim, format="csr", dtype=complex)).tocsc()
        scale = spla.norm(shifted, 1) if dim > 1 else abs(shifted[0, 0])
        solve, singular = (lambda a, rhs: spla.splu(a).solve(rhs)), RuntimeError
    try:
        w = solve(shifted, b)
    except singular as exc:  # exactly singular factorization
        raise SingularityError(
            f"resolvent at z = {z} hit an eigenvalue exactly: {exc}",
            distance=0.0,
        ) from None
    wnorm = float(np.linalg.norm(w))
    dist_bound = 1.0 / wnorm if wnorm > 0 else np.inf
    eps = np.finfo(float).eps
    if dist_bound <= _SINGULARITY_FACTOR * eps * max(scale, 1.0):
        raise SingularityError(
            f"z = {z} is within {dist_bound:.3e} of the spectrum "
            "(numerically singular solve)",
            distance=dist_bound,
        )
    resid = float(np.linalg.norm(shifted @ w - b))
    if resid > _RESIDUAL_RTOL * (1.0 + scale * wnorm):
        raise ArithmeticError(
            f"LU solve residual {resid:.3e} fails the backward-error "
            f"criterion at z = {z}"
        )
    return w


def green(
    H: SparseHamiltonian, x: Configuration, y: Configuration, z: complex
) -> complex:
    """Green function entry <delta_x, (H - z)^(-1) delta_y>."""
    return complex(_green_column(H.matrix, H.rank_of(y), complex(z))[H.rank_of(x)])


def green_entries(S: SpectralData, ix: int, iy: int, zs: np.ndarray) -> np.ndarray:
    """G(x, y; z) for every z in an array through the eigendecomposition.

    One broadcast sum_k psi_k(x) psi_k(y) / (E_k - z) over all z, reduced
    along the eigenvalue axis; memory is O(zs.size * dim).
    """
    w = S.vectors[ix, :] * S.vectors[iy, :]
    return np.sum(w[None, :] / (S.energies[None, :] - zs[:, None]), axis=1)


def resolvent_weights(S: SpectralData, zs: np.ndarray) -> np.ndarray:
    """D = 1/(E - z), dim by zs.size complex: the factor green_block
    multiplies by, formed once for any number of blocks at the same nodes."""
    zs = np.asarray(zs, dtype=complex)
    return 1.0 / (S.energies[:, None] - zs[None, :])


def green_block(S: SpectralData, ix, iy, d: np.ndarray) -> np.ndarray:
    """G(x, y; z) for every node z, x in ix and y in iy through the
    eigendecomposition, given d = resolvent_weights(S, zs); shape
    (zs.size, len(ix), len(iy)).

    Evaluated as P D: the real pair factor P = psi_x * psi_y (one row per
    (x, y) pair, x major) times D (dim by zs.size, complex) read as a real
    matrix of twice the columns, in one real BLAS gemm.
    """
    if d.ndim != 2 or d.shape[0] != S.dim or d.dtype != complex:
        raise ValueError(
            f"d must be resolvent_weights(S, zs), complex ({S.dim}, zs.size); "
            f"got {d.dtype} {d.shape}"
        )
    wx, wy = S.vectors[np.asarray(ix), :], S.vectors[np.asarray(iy), :]
    pairs = (wx[:, None, :] * wy[None, :, :]).reshape(-1, S.dim)
    out = (pairs @ d.view(float)).view(complex)
    return out.reshape(len(wx), len(wy), d.shape[1]).transpose(2, 0, 1)


def eig_green(S: SpectralData, ix: int, iy: int, z: complex) -> complex:
    """Same entry as green, through the eigendecomposition."""
    return complex(green_entries(S, ix, iy, np.array([complex(z)]))[0])


# ------------------------------------------------------------- correlator


def group_weights(S: SpectralData, ix: int, iy: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-degenerate-group mean energies and matrix elements <x, P_g y>.

    Each group's value is its slice's .mean() of the energies and .sum() of
    psi_k(x) psi_k(y). Groups of one or two eigenvalues are folded at once
    by np.add.reduceat, which gives the same bits there once 0.0 is added
    (ndarray.sum starts from +0.0, so a lone -0.0 sums to +0.0). For three
    or more terms reduceat and ndarray.sum associate differently and the
    last bit can move, so longer groups keep the slice fold.
    """
    prod = S.vectors[ix, :] * S.vectors[iy, :]
    starts, counts = S.groups
    energies = (np.add.reduceat(S.energies, starts) + 0.0) / counts
    weights = np.add.reduceat(prod, starts) + 0.0
    for g in np.flatnonzero(counts > 2):
        sl = slice(starts[g], starts[g] + counts[g])
        energies[g] = S.energies[sl].mean()
        weights[g] = prod[sl].sum()
    return energies, weights


def correlator(
    S: SpectralData, x: Configuration, y: Configuration, interval: EnergyInterval
) -> float:
    """Eigenfunction correlator Q(x, y; I) = sum_(groups in I) |<x, P_g y>|.

    Group membership is decided by the group-mean energy. Q is symmetric in
    (x, y), bounded by 1, and monotone in the interval.
    """
    energies, weights = group_weights(S, S.rank_of(x), S.rank_of(y))
    mask = interval.contains(energies)
    return float(np.abs(weights[mask]).sum())


@dataclass(frozen=True, eq=False)
class KernelResult:
    """Time-sampled spectrally filtered evolution amplitude, squared.

    The true sup over all times lies in [sup_lower, sup_upper]: the grid max
    is a lower bound, the squared correlator a rigorous upper bound.
    """

    times: np.ndarray
    samples: np.ndarray
    sup_lower: float
    sup_upper: float


def dynamical_kernel(
    S: SpectralData,
    x: Configuration,
    y: Configuration,
    interval: EnergyInterval,
    times: np.ndarray = None,
) -> KernelResult:
    """|<delta_x, e^(-itH) P_I delta_y>|^2 on a time grid.

    Degenerate groups evolve coherently at their mean energy, so each sample
    is bounded by correlator(x, y; I)^2 exactly (triangle inequality).
    """
    if times is None:
        times = DEFAULT_TIME_GRID
    times = np.asarray(times, dtype=float)
    energies, weights = group_weights(S, S.rank_of(x), S.rank_of(y))
    mask = interval.contains(energies)
    energies, weights = energies[mask], weights[mask]
    if energies.size == 0:
        samples = np.zeros_like(times)
    else:
        phases = np.exp(-1j * times[:, None] * energies[None, :])
        samples = np.abs(phases @ weights) ** 2
    q = float(np.abs(weights).sum())
    return KernelResult(
        times=times,
        samples=samples,
        sup_lower=float(samples.max()) if samples.size else 0.0,
        sup_upper=q * q,
    )


# -------------------------------------------------------------- composites


@dataclass(frozen=True)
class ProductBasis:
    """Index for the tensor product of two blocks, left factor major."""

    left: ConfigIndex
    right: ConfigIndex

    @property
    def size(self) -> int:
        return self.left.size * self.right.size

    def __len__(self) -> int:
        return self.size

    def split(self, config) -> tuple[Configuration, Configuration]:
        """Split a composite configuration into its block parts.

        Accepts either an explicit (left, right) pair of Configurations or a
        single Configuration whose first left.n sites belong to the left
        block (each part must be canonical for its block's sector).
        """
        if isinstance(config, tuple) and len(config) == 2:
            return config
        nl = self.left.n
        return (
            Configuration(sites=config.sites[:nl], sector=self.left.sector),
            Configuration(sites=config.sites[nl:], sector=self.right.sector),
        )

    def index_of(self, config) -> int:
        cl, cr = self.split(config)
        return self.left.index_of(cl) * self.right.size + self.right.index_of(cr)


def composite_matrix(
    H_J: SparseHamiltonian, H_K: SparseHamiltonian
) -> tuple[np.ndarray, ProductBasis]:
    """Non-interacting composite H_J (x) 1 + 1 (x) H_K on the product basis,
    as a dense array.

    Entries are written, not multiplied out, so every entry is the same
    double as in the sparse Kronecker sum: A[i, j] where a == b, B[a, b]
    where i == j, and A[i, i] + B[a, a] on the diagonal. (np.kron would
    turn a negative entry times an identity zero into -0.0.)
    """
    A, B = H_J.dense(), H_K.dense()
    nj, nk = H_J.dim, H_K.dim
    out = np.zeros((nj, nk, nj, nk))
    out[:, np.arange(nk), :, np.arange(nk)] = A
    out[np.arange(nj), :, np.arange(nj), :] += B
    basis = ProductBasis(left=H_J.index, right=H_K.index)
    return out.reshape(nj * nk, nj * nk), basis


def _composite_csr(H_J: SparseHamiltonian, H_K: SparseHamiltonian):
    """composite_matrix's operator as a scipy CSR matrix (imports
    scipy.sparse), for composites too large to solve densely."""
    import scipy.sparse as sp

    eye_j = sp.identity(H_J.dim, format="csr")
    eye_k = sp.identity(H_K.dim, format="csr")
    return sp.kron(H_J.matrix, eye_k, format="csr") + sp.kron(
        eye_j, H_K.matrix, format="csr"
    )


def composite_spectral_data(
    H_J: SparseHamiltonian, H_K: SparseHamiltonian
) -> SpectralData:
    """Eigendecomposition of the assembled composite (no structure shortcuts,
    so it can serve as an independent reference for the block identities)."""
    dim = H_J.dim * H_K.dim
    if dim > DENSE_DIAG_CAP:
        raise BudgetError(
            f"composite dimension {dim} exceeds cap {DENSE_DIAG_CAP}",
            count=dim,
            limit=DENSE_DIAG_CAP,
        )
    matrix, basis = composite_matrix(H_J, H_K)
    energies, vectors = np.linalg.eigh(matrix)
    return SpectralData(energies=energies, vectors=vectors, index=basis)


@dataclass(frozen=True)
class CompositeCheck:
    direct: complex
    contour: complex
    gap: float
    center: float
    radius: float
    quadrature_points: int


def composite_green_check(
    H_J: SparseHamiltonian,
    H_K: SparseHamiltonian,
    x,
    y,
    z: complex,
    quadrature_points=512,
):
    """Contour-convolution identity for the composite Green function.

    G_JK(x, y; z) = -(r/N) sum_m e^(i theta_m) G_J(x_J, y_J; z - E_m)
    G_K(x_K, y_K; E_m), nodes E_m on the circle around the spectrum of H_K.
    The identity needs every pole of G_J(z - .) strictly outside the circle;
    a violation raises ContourGeometryError instead of returning garbage.
    The contour side evaluates G_J and G_K at all nodes in one pass each
    through the block eigendecompositions (green_entries). The direct side
    is an independent LU solve on the assembled composite, dense (LAPACK)
    up to dimension _DENSE_SOLVE_CAP and sparse (SuperLU) above it, so the
    returned gap measures the identity, not a shared code path.

    quadrature_points may also be a sequence of node counts: then one
    CompositeCheck per count comes back, in order, and the block
    eigendecompositions, the composite assembly and the direct solve are
    shared between them.
    """
    z = complex(z)
    basis = ProductBasis(left=H_J.index, right=H_K.index)
    xj, xk = basis.split(x)
    yj, yk = basis.split(y)

    S_J, S_K = spectral_data(H_J), spectral_data(H_K)
    e_j, e_k = S_J.energies, S_K.energies
    center = float((e_k.min() + e_k.max()) / 2.0)
    radius = max(1.25 * float(e_k.max() - e_k.min()) / 2.0, 1.0)
    # poles of E -> G_J(z - E) sit at E = z - sigma(H_J)
    pole_dist = np.abs((z - e_j) - center)
    if pole_dist.min() <= radius * (1.0 + 1e-9):
        raise ContourGeometryError(
            f"pole at distance {pole_dist.min():.6g} from contour center, "
            f"radius {radius:.6g}: move z away from sigma(H_J) + sigma(H_K)"
        )
    counts = [int(n) for n in np.atleast_1d(quadrature_points)]
    if min(counts) < 2:
        raise ValueError(f"need at least 2 quadrature points, got {min(counts)}")

    if H_J.dim * H_K.dim <= _DENSE_SOLVE_CAP:
        matrix, _ = composite_matrix(H_J, H_K)
    else:
        matrix = _composite_csr(H_J, H_K)
    iy = basis.index_of((yj, yk))
    ix = basis.index_of((xj, xk))
    direct = complex(_green_column(matrix, iy, z)[ix])
    checks = []
    for n in counts:
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = center + radius * np.exp(1j * theta)
        gj = green_entries(S_J, S_J.rank_of(xj), S_J.rank_of(yj), z - nodes)
        gk = green_entries(S_K, S_K.rank_of(xk), S_K.rank_of(yk), nodes)
        contour = complex(-(radius / n) * np.sum(np.exp(1j * theta) * gj * gk))
        checks.append(
            CompositeCheck(
                direct=direct,
                contour=contour,
                gap=abs(direct - contour),
                center=center,
                radius=radius,
                quadrature_points=n,
            )
        )
    return checks[0] if np.ndim(quadrature_points) == 0 else tuple(checks)


@dataclass(frozen=True)
class SubadditivityResult:
    lhs: float
    rhs: float
    q_left: float
    q_right: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


def subadditivity_check(
    S_J: SpectralData,
    S_K: SpectralData,
    S_JK: SpectralData,
    x,
    y,
    interval: EnergyInterval,
) -> SubadditivityResult:
    """Correlator factorization bound for non-interacting composites:

    Q_JK(x, y; I) <= Q_J(x_J, y_J; R) * Q_K(x_K, y_K; R).

    The right side deliberately uses the whole line on each block; the
    inequality is deterministic (holds per realization, not just on
    average).
    """
    basis = S_JK.index
    if not isinstance(basis, ProductBasis):
        raise ValueError("S_JK must come from composite_spectral_data")
    xj, xk = basis.split(x)
    yj, yk = basis.split(y)
    full = EnergyInterval.full_line()
    q_left = correlator(S_J, xj, yj, full)
    q_right = correlator(S_K, xk, yk, full)
    lhs = correlator(S_JK, (xj, xk), (yj, yk), interval)
    return SubadditivityResult(
        lhs=lhs, rhs=q_left * q_right, q_left=q_left, q_right=q_right
    )
