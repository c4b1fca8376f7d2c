"""Assembly of n-particle lattice Hamiltonians with disorder and interaction.

H = (hopping) + lambda * (site disorder summed over particles) + (nearest-
neighbour or same-site pair interaction), acting on the chosen exchange
sector over a finite box.

Boundary convention (easy to get subtly wrong, so stated loudly): the box
restriction is the Dirichlet restriction of the full-lattice operator. Hops
that would leave the box are dropped, but the kinetic diagonal stays 2*d*n
everywhere, including at the walls. Wall sites do NOT get a reduced diagonal.

Sector hop amplitudes, with occupations read from the source configuration:
distinguishable moves one labelled particle with amplitude -1; bosons move
one particle u -> t with amplitude -sqrt(m_u * (m_t + 1)); fermions carry
-(-1)^(number of occupied sites strictly between u and t in site-rank
order); hardcore particles hop with amplitude -1 and hops into occupied
sites are dropped. Interactions are diagonal in every sector. All of this
is cross-checked in the tests against explicit symmetrization isometries
applied to the distinguishable operator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .configspace import (
    Box,
    ConfigIndex,
    Configuration,
    site_dist,
)
from .disorder import DensitySpec, DisorderRealization
from .errors import magnitude


@dataclass(frozen=True)
class InteractionSpec:
    """One of the config's built-in interactions, as plain data.

    `builtin` is "none", "pair_nn" (coupling * m_u * m_v for each pair of
    occupied sites at l1 distance 1) or "onsite" (coupling * m(m-1)/2 per
    site). `range` is the pattern diameter of pair_nn, which only limits the
    boxes it fits in: pair_nn couples nearest neighbours, so any range of at
    least 1 gives the same energy. none and onsite carry range 0.
    """

    builtin: str
    coupling: float = 0.0
    range: int = 0

    def __post_init__(self):
        if self.builtin not in BUILTIN_INTERACTIONS:
            raise ValueError(f"unknown built-in interaction {self.builtin!r}")
        if self.range < 0:
            raise ValueError(f"interaction range must be >= 0, got {self.range}")

    @property
    def is_trivial(self) -> bool:
        return self.builtin == "none" or self.coupling == 0.0

    # ---------------------------------------------------------- factories

    @classmethod
    def none(cls) -> "InteractionSpec":
        return cls("none")

    @classmethod
    def pair_nn(cls, coupling: float, range: int = 1) -> "InteractionSpec":
        """Nearest-neighbour density-density pair interaction."""
        return cls("pair_nn", float(coupling), range)

    @classmethod
    def onsite(cls, coupling: float) -> "InteractionSpec":
        """Same-site pair counting, coupling * m(m-1)/2 per site."""
        return cls("onsite", float(coupling))


BUILTIN_INTERACTIONS = ("none", "pair_nn", "onsite")


def interaction_energy(config: Configuration, inter: InteractionSpec) -> float:
    """Total interaction energy of a configuration.

    The sums run in a fixed order: onsite over the occupied sites in sorted
    order, pair_nn over the pairs u < v of occupied sites in lexicographic
    order, each adjacent pair added to a running total from 0.0.
    """
    if inter.is_trivial:
        return 0.0
    occs = sorted(Counter(config.sites).items())
    if inter.builtin == "onsite":
        return 0.0 + inter.coupling * sum(0.5 * m * (m - 1) for _, m in occs)
    total = 0.0
    if inter.range == 0:
        # no two distinct sites fit in a pattern of diameter 0
        return total
    for i, (u, m_u) in enumerate(occs):
        for v, m_v in occs[i + 1 :]:
            if site_dist(u, v, "l1") == 1:
                total += inter.coupling * float(m_u * m_v)
    return total


@dataclass(frozen=True)
class OperatorSpec:
    """Everything that defines the model apart from the disorder draw."""

    box: Box
    n: int
    sector: str = "distinguishable"
    lam: float = 1.0
    interaction: InteractionSpec = field(default_factory=InteractionSpec.none)
    norm: str = "l1"

    def __post_init__(self):
        if self.norm not in ("l1", "linf"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.lam < 0:
            raise ValueError(f"disorder strength must be >= 0, got {self.lam}")
        if not self.interaction.is_trivial and self.interaction.range >= self.box.side:
            raise ValueError(
                f"interaction range {magnitude(self.interaction.range)} >= box "
                f"side {magnitude(self.box.side)}; patterns would wrap the whole box"
            )
        # instantiating the index validates n against the sector
        ConfigIndex(self.box, self.n, self.sector)

    @cached_property
    def config_index(self) -> ConfigIndex:
        return ConfigIndex(self.box, self.n, self.sector)

    @property
    def dim(self) -> int:
        return self.config_index.size


def _kinetic_hops(index: ConfigIndex):
    """(rows, cols, amplitudes) of the off-diagonal kinetic entries.

    Every source configuration moves one particle, read from one column of
    index.site_ranks, by one lattice step; all configurations take each
    (column, axis, direction) move in one array pass. Distinguishable
    particles all move. In the exchange sectors (rows sorted by site rank)
    only the first column of each occupied site moves, so that a site hops
    once with its occupation m_u.
    """
    box, sector = index.box, index.sector
    ranks = index.site_ranks
    dim, n = ranks.shape
    coords = box.coords(ranks)
    source = np.arange(dim)
    rows, cols, vals = [], [], []
    for j in range(n):
        u = ranks[:, j]
        moves = np.ones(dim, dtype=bool)
        if sector != "distinguishable" and j > 0:
            moves = u != ranks[:, j - 1]
        m_u = (ranks == u[:, None]).sum(axis=1)
        for axis in range(box.d):
            stride = box.side ** (box.d - 1 - axis)
            offset = coords[:, j, axis] - box.origin[axis]
            for sgn in (1, -1):
                ok = moves & (0 <= offset + sgn) & (offset + sgn < box.side)
                t = u + sgn * stride
                m_t = (ranks == t[:, None]).sum(axis=1)
                if sector == "boson":
                    amp = -np.sqrt(m_u * (m_t + 1.0))
                elif sector == "fermion":
                    lo, hi = np.minimum(u, t)[:, None], np.maximum(u, t)[:, None]
                    crossings = ((ranks > lo) & (ranks < hi)).sum(axis=1)
                    amp = np.where(crossings % 2 == 0, -1.0, 1.0)
                else:
                    amp = np.full(dim, -1.0)
                if sector in ("fermion", "hardcore"):
                    ok &= m_t == 0
                target = ranks[ok].copy()
                target[:, j] = t[ok]
                rows.append(source[ok])
                cols.append(index.index_of_ranks(target))
                vals.append(amp[ok])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


class OperatorTemplate:
    """Realization-independent parts of the Hamiltonian, assembled once.

    Holds, as numpy arrays, the off-diagonal kinetic hops (rows, cols,
    amplitudes) sorted by (row, col), the constant 2*d*n kinetic diagonal,
    the interaction diagonal, and the occupations: each configuration's
    site ranks in ascending order, with the multiplicity of a site on its
    first column and 0 on its repeats. A realization v enters only through
    lam * (occupation @ v), summed from zero in ascending site order, which
    is the order of a CSR occupation matrix. Ensembles reuse one template
    across every seed.
    """

    def __init__(self, spec: OperatorSpec):
        self.spec = spec
        self.index = spec.config_index
        box = spec.box
        dim = self.index.size
        ranks = self.index.site_ranks

        occ = self.occ_ranks = np.sort(ranks, axis=1)
        leading = np.ones(occ.shape, dtype=bool)
        leading[:, 1:] = occ[:, 1:] != occ[:, :-1]
        counts = (occ[:, :, None] == occ[:, None, :]).sum(axis=2)
        self.occ_mult = np.where(leading, counts, 0).astype(float)
        rows, cols, vals = _kinetic_hops(self.index)
        order = np.lexsort((cols, rows))
        self.hops = (rows[order], cols[order], vals[order])
        self.kinetic_diag = 2.0 * box.d * spec.n
        self.interaction_diag = np.zeros(dim)
        if not spec.interaction.is_trivial:
            # the energy depends on the occupation multiset up to translation,
            # which keeps the sorted site order and so the sums
            sites = box.coords(occ)
            shapes = (sites - sites.min(axis=1, keepdims=True)).reshape(dim, -1)
            _, first, which = np.unique(
                shapes, axis=0, return_index=True, return_inverse=True
            )
            energies = [
                interaction_energy(
                    Configuration(sites=tuple(map(tuple, sites[k]))),
                    spec.interaction,
                )
                for k in first
            ]
            self.interaction_diag = np.array(energies)[which.ravel()]

    @property
    def dim(self) -> int:
        return self.index.size

    def hamiltonian(self, real: DisorderRealization) -> "SparseHamiltonian":
        if real.box != self.spec.box:
            raise ValueError(
                f"realization drawn on {real.box}, template expects {self.spec.box}"
            )
        # occupation @ v: m_u * v_u summed from zero in ascending site order
        pot = np.zeros(self.dim)
        for j in range(self.spec.n):
            pot += self.occ_mult[:, j] * real.values[self.occ_ranks[:, j]]
        diag = self.interaction_diag + self.spec.lam * pot
        return SparseHamiltonian(
            hops=self.hops, diagonal=self.kinetic_diag + diag, index=self.index
        )

    def gershgorin_interval(self, density: DensitySpec) -> tuple[float, float]:
        """Interval containing every eigenvalue of every realization.

        Gershgorin row bounds with the potential replaced by its support
        envelope; valid uniformly over the ensemble drawn from `density`.
        """
        lam, n = self.spec.lam, self.spec.n
        v_lo, v_hi = density.support
        pot = (lam * n * v_lo, lam * n * v_hi)
        rows, _, vals = self.hops
        # row sums of |hops| in column order, as np.add.reduceat over each row
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        r = float(np.add.reduceat(np.abs(vals), starts).max()) if rows.size else 0.0
        lo = self.kinetic_diag + self.interaction_diag.min() + min(pot) - r
        hi = self.kinetic_diag + self.interaction_diag.max() + max(pot) + r
        return (float(lo), float(hi))


@dataclass(frozen=True)
class ProductBasis:
    """Index for the tensor product of two blocks, left factor major."""

    left: ConfigIndex
    right: ConfigIndex

    def index_of(self, config) -> int:
        """Rank of a (left, right) pair of block configurations."""
        cl, cr = config
        return self.left.index_of(cl) * self.right.size + self.right.index_of(cr)


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """Assembled operator together with its basis index.

    The operator is held as numpy arrays: the off-diagonal hops (an
    assembled operator shares its template's) and the full diagonal.
    dense() fills the dense matrix from them; `matrix`, the scipy CSR form
    that sparse solves need, is built from the same arrays on first use.
    """

    hops: tuple  # (rows, cols, amplitudes), off-diagonal
    diagonal: np.ndarray
    index: ConfigIndex | ProductBasis

    @property
    def dim(self) -> int:
        return self.diagonal.size

    def dense(self) -> np.ndarray:
        """The matrix as a C-ordered float array, entry for entry the CSR
        form's toarray()."""
        rows, cols, vals = self.hops
        out = np.zeros((self.dim, self.dim))
        out[rows, cols] = vals
        out.flat[:: self.dim + 1] = self.diagonal
        return out

    @cached_property
    def matrix(self):
        """The matrix in scipy CSR form (imports scipy.sparse). A diagonal
        entry that is exactly 0.0 is not stored, as in the CSR sum kinetic
        + diag that SuperLU's ordering sees."""
        import scipy.sparse as sp

        rows, cols, vals = self.hops
        diag = np.arange(self.dim)
        out = sp.csr_matrix(
            (
                np.concatenate((vals, self.diagonal)),
                (np.concatenate((rows, diag)), np.concatenate((cols, diag))),
            ),
            shape=(self.dim, self.dim),
        )
        out.eliminate_zeros()
        return out

    def rank_of(self, config: Configuration) -> int:
        return self.index.index_of(config)


@lru_cache(maxsize=32)
def _template_for(spec: OperatorSpec) -> OperatorTemplate:
    """The shared template of a spec; mplab builds templates only here."""
    # templates are immutable after assembly; equal specs can share one
    return OperatorTemplate(spec)


def assemble(spec: OperatorSpec, real: DisorderRealization) -> SparseHamiltonian:
    """Hamiltonian of one realization; calls on one spec share one cached
    template, so an ensemble assembles its fixed parts once."""
    return _template_for(spec).hamiltonian(real)


def kron_sum(H_J: SparseHamiltonian, H_K: SparseHamiltonian) -> SparseHamiltonian:
    """The non-interacting composite H_J (x) 1 + 1 (x) H_K on the product
    basis of the two blocks.

    Each block's hops are lifted to the product basis, and the diagonal is
    H_J's plus H_K's, so dense() and `matrix` hold the Kronecker sum's
    doubles entry for entry (np.kron would turn a negative entry times an
    identity zero into -0.0).
    """
    nj, nk = H_J.dim, H_K.dim
    (rj, cj, vj), (rk, ck, vk) = H_J.hops, H_K.hops
    left, right = np.arange(nj)[:, None] * nk, np.arange(nk)
    return SparseHamiltonian(
        hops=(
            np.concatenate(((rj[:, None] * nk + right).ravel(), (left + rk).ravel())),
            np.concatenate(((cj[:, None] * nk + right).ravel(), (left + ck).ravel())),
            np.concatenate((np.repeat(vj, nk), np.tile(vk, nj))),
        ),
        diagonal=(H_J.diagonal[:, None] + H_K.diagonal).ravel(),
        index=ProductBasis(left=H_J.index, right=H_K.index),
    )


def gershgorin_interval(
    spec: OperatorSpec, density: DensitySpec
) -> tuple[float, float]:
    return _template_for(spec).gershgorin_interval(density)
