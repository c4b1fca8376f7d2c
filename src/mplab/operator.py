"""Assembly of n-particle lattice Hamiltonians with disorder and interaction.

H = (hopping) + lambda * (site disorder summed over particles) + (short-range
k-body interaction), acting on the chosen exchange sector over a finite box.

Boundary convention (easy to get subtly wrong, so stated loudly): the box
restriction is the Dirichlet restriction of the full-lattice operator. Hops
that would leave the box are dropped, but the kinetic diagonal stays 2*d*n
everywhere, including at the walls. Wall sites do NOT get a reduced diagonal.

Sector hop amplitudes, with occupations read from the source configuration:
distinguishable moves one labelled particle with amplitude -1; bosons move
one particle u -> t with amplitude -sqrt(m_u * (m_t + 1)); fermions carry
-(-1)^(number of occupied sites strictly between u and t in site-rank
order); hardcore particles hop with amplitude -1 and hops into occupied
sites are dropped. Interactions and number operators are diagonal in every
sector. All of this is cross-checked in the tests against explicit
symmetrization isometries applied to the distinguishable operator.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .configspace import (
    Box,
    ConfigIndex,
    Configuration,
    Site,
    site_dist,
)
from .disorder import DensitySpec, DisorderRealization


def _pair_nn_term(pattern, occs):
    # nearest-neighbour density-density; adjacency is graph adjacency
    # (l1 distance 1) regardless of the diameter norm in force
    (u, v) = pattern
    if site_dist(u, v, "l1") != 1:
        return 0.0
    return float(occs[0] * occs[1])


def _onsite_pairs_term(pattern, occs):
    m = occs[0]
    return 0.5 * m * (m - 1)


@dataclass(frozen=True)
class InteractionSpec:
    """Translation-invariant finite-range k-body interaction, k <= p.

    The energy of a configuration is sum_k alpha[k-1] * sum_A U_k(A, occs)
    over site patterns A with |A| = k and diameter <= range. Patterns with
    all occupations zero contribute nothing by convention, so the sums are
    finite. `terms` maps k to a callable (pattern_sites, occupations) ->
    float; patterns arrive lexicographically sorted. Equality compares the
    declared (p, alpha, range, label) only, never the callables, which is
    exact for the built-ins and approximate for custom terms.
    """

    p: int
    alpha: tuple[float, ...]
    range: int
    label: str = "custom"
    terms: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if self.terms is None:
            object.__setattr__(self, "terms", {})
        if self.p < 0:
            raise ValueError(f"pattern size bound must be >= 0, got {self.p}")
        if len(self.alpha) != self.p:
            raise ValueError(
                f"need one coupling per pattern size: got {len(self.alpha)} "
                f"couplings for p = {self.p}"
            )
        if self.range < 0:
            raise ValueError(f"interaction range must be >= 0, got {self.range}")
        for k in self.terms:
            if not 1 <= k <= self.p:
                raise ValueError(f"term for pattern size {k} outside 1..{self.p}")
        for k, a in enumerate(self.alpha, start=1):
            if a != 0.0 and k not in self.terms:
                raise ValueError(
                    f"coupling alpha_{k} = {a} is nonzero but no size-{k} term "
                    "was provided"
                )

    @property
    def is_trivial(self) -> bool:
        return all(a == 0.0 for a in self.alpha)

    # ---------------------------------------------------------- factories

    @classmethod
    def none(cls) -> "InteractionSpec":
        return cls(p=0, alpha=(), range=0, label="none")

    @classmethod
    def pair_nn(cls, coupling: float, range: int = 1) -> "InteractionSpec":
        """Nearest-neighbour density-density pair interaction."""
        return cls(
            p=2,
            alpha=(0.0, float(coupling)),
            range=range,
            label="pair_nn",
            terms={2: _pair_nn_term},
        )

    @classmethod
    def onsite(cls, coupling: float) -> "InteractionSpec":
        """Same-site pair counting, alpha * m(m-1)/2 per site."""
        return cls(
            p=1,
            alpha=(float(coupling),),
            range=0,
            label="onsite",
            terms={1: _onsite_pairs_term},
        )

    # ------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """The `model.interaction` config object; "range" only for pair_nn."""
        if self.label not in BUILTIN_INTERACTIONS:
            raise ValueError(
                f"only built-in interactions serialize; label {self.label!r}"
            )
        out = {"builtin": self.label, "coupling": self.alpha[-1] if self.alpha else 0.0}
        if self.label == "pair_nn":
            out["range"] = self.range
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "InteractionSpec":
        """Inverse of to_dict. Missing keys default to builtin "none",
        coupling 0.0 and range 1; unknown keys are rejected."""
        unknown = sorted(set(obj) - set(INTERACTION_FIELDS))
        if unknown:
            raise ValueError(f"unknown interaction field(s) {unknown}")
        name = obj.get("builtin", "none")
        coupling = float(obj.get("coupling", 0.0))
        if name == "none":
            return cls.none()
        if name == "pair_nn":
            return cls.pair_nn(coupling, range=int(obj.get("range", 1)))
        if name == "onsite":
            return cls.onsite(coupling)
        raise ValueError(f"unknown built-in interaction {name!r}")


BUILTIN_INTERACTIONS = ("none", "pair_nn", "onsite")
INTERACTION_FIELDS = ("builtin", "coupling", "range")


def _ball(center: Site, radius: int, norm: str):
    d = len(center)
    for offset in itertools.product(range(-radius, radius + 1), repeat=d):
        if site_dist(offset, (0,) * d, norm) <= radius:
            yield tuple(c + o for c, o in zip(center, offset))


def interaction_energy(
    config: Configuration, inter: InteractionSpec, norm: str = "l1"
) -> float:
    """Total interaction energy of a configuration.

    Patterns range over the infinite lattice; only patterns meeting the
    occupied support can contribute, which keeps the sum finite.
    """
    if inter.is_trivial:
        return 0.0
    occs = Counter(config.sites)
    support = set(occs)
    total = 0.0
    for k, a in enumerate(inter.alpha, start=1):
        if a == 0.0 or k not in inter.terms:
            continue
        f = inter.terms[k]
        if k == 1:
            total += a * sum(f((u,), (occs[u],)) for u in sorted(support))
            continue
        candidates = set()
        for u in support:
            candidates.update(_ball(u, inter.range, norm))
        for pattern in itertools.combinations(sorted(candidates), k):
            if not support.intersection(pattern):
                continue
            if max(
                site_dist(pp, qq, norm)
                for pp, qq in itertools.combinations(pattern, 2)
            ) > inter.range:
                continue
            total += a * f(pattern, tuple(occs[u] for u in pattern))
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
                f"interaction range {self.interaction.range} >= box side "
                f"{self.box.side}; patterns would wrap the whole box"
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
            # which keeps the lexicographic pattern order and so the sums
            sites = box.coords(occ)
            shapes = (sites - sites.min(axis=1, keepdims=True)).reshape(dim, -1)
            _, first, which = np.unique(
                shapes, axis=0, return_index=True, return_inverse=True
            )
            energies = [
                interaction_energy(
                    Configuration(sites=tuple(map(tuple, sites[k]))),
                    spec.interaction,
                    spec.norm,
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
            hops=self.hops,
            diagonal=self.kinetic_diag + diag,
            spec=self.spec,
            index=self.index,
            realization=real,
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


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """Assembled operator together with its provenance.

    The operator is held as numpy arrays: the off-diagonal hops (shared with
    its template, sorted by (row, col)) and the full diagonal. dense() fills
    the dense matrix from them; `matrix`, the scipy CSR form that sparse
    solves need, is built from the same arrays on first use.
    """

    hops: tuple  # (rows, cols, amplitudes), off-diagonal
    diagonal: np.ndarray
    spec: OperatorSpec
    index: ConfigIndex
    realization: DisorderRealization

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
        + diag that SuperLU's ordering and the MatrixMarket export see."""
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

    def to_matrix_market(self, path) -> None:
        """Write the matrix in MatrixMarket coordinate format."""
        import scipy.io  # slow to import, used only here

        s = self.spec
        comment = (
            f"n={s.n} sector={s.sector} d={s.box.d} side={s.box.side} "
            f"lambda={s.lam} interaction={s.interaction.label} seed="
            f"{self.realization.seed}"
        )
        scipy.io.mmwrite(path, self.matrix.tocoo(), comment=comment)


def _template_for(spec: OperatorSpec) -> OperatorTemplate:
    """The shared template of a spec; mplab builds templates only here."""
    # OperatorSpec equality ignores interaction callables, so the term
    # functions themselves join the key (built-ins are module-level, so
    # equal built-in specs still share one template)
    return _cached_template(spec, tuple(sorted(spec.interaction.terms.items())))


@lru_cache(maxsize=32)
def _cached_template(spec: OperatorSpec, terms: tuple) -> OperatorTemplate:
    # templates are immutable after assembly; equal keys can share one
    return OperatorTemplate(spec)


def assemble(spec: OperatorSpec, real: DisorderRealization) -> SparseHamiltonian:
    """Hamiltonian of one realization; calls on one spec share one cached
    template, so an ensemble assembles its fixed parts once."""
    return _template_for(spec).hamiltonian(real)


def number_operator(index: ConfigIndex, u: Site):
    """Diagonal operator counting the particles on site u, as a scipy CSR
    matrix; zero for a site outside the box."""
    import scipy.sparse as sp

    u = tuple(u)
    diag = np.zeros(index.size)
    if index.box.contains(u):
        diag += (index.site_ranks == index.box.encode(u)).sum(axis=1)
    return sp.diags(diag, format="csr")


def gershgorin_interval(
    spec: OperatorSpec, density: DensitySpec
) -> tuple[float, float]:
    return _template_for(spec).gershgorin_interval(density)
