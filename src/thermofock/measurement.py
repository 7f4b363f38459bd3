"""Entangling measurements, decoherence as block projection, and sectors.

A measurement couples object and apparatus into Σ_k c_k |k⟩|A_k⟩ with
orthonormal pointer states; for two or more nonzero branches no product
form exists (Schmidt rank ≥ 2).  Tracing out the object leaves the
apparatus in the diagonal mixture Σ |c_k|² |A_k⟩⟨A_k| — the Born
weights appear as relative frequencies under repeated sampling.

Decoherence is modeled as the exact projection onto the block diagonal
of a sector partition: trace preserved, purity never increased,
idempotent; a validated matrix is read-only, and each block of the
projection is a principal submatrix of it, so positivity carries over
without an ``eigvalsh`` (Cauchy interlacing), and the symmetric block
mask cannot raise the Hermitian defect, so that check is not repeated
either.  ``random_density`` mirrors its real-arithmetic Wishart Gram,
so it too is Hermitian by construction.  A charge operator
S = Σ_i s_i Π_i built from the sectors commutes with every
block-diagonal ("physical") operator, and no operator with vanishing
cross-sector matrix elements connects distinct sectors — the
superselection rule at the level where it is exact.
A 2π rotation multiplies half-integer-spin components by −1 and leaves
integer-spin components alone: pure sectors stay on their ray, mixed
superpositions move to a different ray, which is why such mixtures are
forbidden observables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _indices, require

__all__ = [
    "DensityMatrix",
    "SectorStructure",
    "BipartiteState",
    "OutcomeFrequencies",
    "entangle",
    "reduced_density",
    "decohere",
    "purity",
    "sample_outcomes",
    "sector_defect",
    "charge_commutator_norm",
    "rotation_2pi",
    "random_density",
]

_HERM_TOL = 1e-12
_EIG_TOL = 1e-12
_TRACE_TOL = 1e-12
_BLOCK_ELEMENTS = 2 ** 16   # entries per row block of the Hermiticity check
_TILE = 256                 # rows and columns per tile of the Gram mirror


def _hermitian_defect(m: np.ndarray) -> float:
    """max |m − m^H|, one block of rows at a time so that no temporary
    holds more than about 2^16 entries; NaN propagates."""
    d = m.shape[0]
    b = max(1, _BLOCK_ELEMENTS // d)
    return float(np.max([np.max(np.abs(m[i:i + b] - m[:, i:i + b].conj().T))
                         for i in range(0, d, b)]))


def _mirror(re: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(re + reᵀ)/2 + i(g − gᵀ), exactly Hermitian, one square tile at a
    time so that the transposed reads stay in cache."""
    d = re.shape[0]
    out = np.empty((d, d), dtype=complex)
    for i in range(0, d, _TILE):
        for j in range(0, d, _TILE):
            rows, cols = slice(i, i + _TILE), slice(j, j + _TILE)
            tile = out[rows, cols]
            np.add(re[rows, cols], re[cols, rows].T, out=tile.real)
            np.subtract(g[rows, cols], g[cols, rows].T, out=tile.imag)
    out.real *= 0.5
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace d×d matrix, kept as
    a read-only copy of the input."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        require(m.ndim == 2 and m.shape[0] == m.shape[1] and m.shape[0] > 0,
                "density matrix must be square and nonempty")
        require(_hermitian_defect(m) <= _HERM_TOL,
                "matrix is not Hermitian within 1e-12")
        require(float(np.min(np.linalg.eigvalsh(m))) >= -_EIG_TOL,
                "matrix has an eigenvalue below -1e-12")
        self._store(m)

    @classmethod
    def _known_positive(cls, matrix: np.ndarray) -> "DensityMatrix":
        """A fresh square matrix, Hermitian and positive by construction:
        skip the Hermiticity check and the eigvalsh."""
        rho = object.__new__(cls)
        rho._store(matrix)
        return rho

    def _store(self, m: np.ndarray) -> None:
        require(abs(float(np.trace(m).real) - 1.0) <= _TRACE_TOL,
                "trace differs from 1 by more than 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def diagonal_part(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def off_diagonal_max(self) -> float:
        m = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.max(np.abs(m)))


@dataclass(frozen=True)
class SectorStructure:
    """Partition of basis indices 0..d−1 into labeled charge sectors."""

    sectors: dict
    charges: dict

    def __post_init__(self):
        sectors = {label: _indices(idx, "sector indices must be integers")
                   for label, idx in self.sectors.items()}
        object.__setattr__(self, "sectors", sectors)
        charges = {label: float(v) for label, v in self.charges.items()}
        object.__setattr__(self, "charges", charges)
        require(np.all(np.isfinite(list(charges.values()))),
                "sector charges must be finite")
        require(set(charges) == set(sectors),
                "sector labels and charge labels differ")
        seen = [i for idx in sectors.values() for i in idx]
        require(seen and sorted(seen) == list(range(len(seen))),
                "sectors must partition 0..d-1 exactly once")
        # owner[i]: position in `sectors` of the sector holding index i
        owner = np.empty(len(seen), dtype=np.intp)
        for k, idx in enumerate(sectors.values()):
            owner[list(idx)] = k
        object.__setattr__(self, "_owner", owner)

    @property
    def d(self) -> int:
        return self._owner.size

    @classmethod
    def singletons(cls, d: int) -> "SectorStructure":
        """One sector per basis index, charged with the index."""
        return cls({i: (i,) for i in range(d)}, {i: i for i in range(d)})

    def block_mask(self) -> np.ndarray:
        """Boolean d×d mask, True where row and column share a sector."""
        return self._owner[:, None] == self._owner[None, :]

    def charge_operator(self) -> np.ndarray:
        """S = Σ_i s_i Π_i as a diagonal matrix."""
        by_owner = np.array([self.charges[label] for label in self.sectors])
        return np.diag(by_owner[self._owner])


@dataclass(frozen=True)
class BipartiteState:
    """Object ⊗ apparatus pure state as a d_o × d_A amplitude table."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", a)
        require(a.ndim == 2 and min(a.shape) > 0,
                "amplitude table must be a nonempty 2-d array")
        require(abs(float(np.sum(np.abs(a) ** 2)) - 1.0) <= 1e-12,
                "state is not normalized within 1e-12")


def entangle(c, d_object: int | None = None,
             d_apparatus: int | None = None) -> BipartiteState:
    """Measurement transition target Σ_k c_k |k⟩|A_k⟩.

    Pointer states |A_k⟩ are orthonormal basis vectors, so the branch
    amplitudes sit on the table diagonal; the Schmidt rank equals the
    number of nonzero branches, and any two-or-more-branch state has no
    product representation.
    """
    c = np.asarray(c, dtype=complex)
    require(c.ndim == 1 and c.size > 0, "need a nonempty 1-d amplitude list")
    k = c.size
    require(abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= 1e-12,
            "branch amplitudes must satisfy sum |c_k|^2 = 1")
    d_object, d_apparatus = _indices(
        (k if d is None else d for d in (d_object, d_apparatus)),
        "subsystem dimensions must be integers")
    require(d_object >= k and d_apparatus >= k,
            "subsystem dimensions must be at least len(c)")
    table = np.zeros((d_object, d_apparatus), dtype=complex)
    table[np.arange(k), np.arange(k)] = c
    return BipartiteState(table)


def reduced_density(state: BipartiteState, subsystem: str) -> DensityMatrix:
    """Partial trace onto "object" or "apparatus".

    For the measurement state with orthonormal pointers, the apparatus
    reduction is exactly diagonal with entries |c_k|².
    """
    m = state.amplitudes
    if subsystem == "object":
        rho = m @ m.conj().T
    elif subsystem == "apparatus":
        rho = m.T @ m.conj()
    else:
        raise ValueError("subsystem must be 'object' or 'apparatus'")
    return DensityMatrix(rho)


def decohere(rho: DensityMatrix, sectors: SectorStructure) -> DensityMatrix:
    """Project onto the sector block diagonal (zero cross-sector entries).

    Exactly trace preserving and idempotent; purity never increases.
    With singleton sectors this is full diagonalization in the pointer
    basis: the branch weights |c_k|² become classical frequencies.
    """
    require(sectors.d == rho.d,
            "sector partition size does not match the matrix")
    # Each block is a copied principal submatrix of ρ: by Cauchy
    # interlacing its lowest eigenvalue is at least ρ's, so ≥ −1e-12.
    # The mask is symmetric, so an entry and its mirror are both kept or
    # both zeroed: the Hermitian defect cannot exceed ρ's.
    projected = np.where(sectors.block_mask(), rho.matrix, 0.0)
    return DensityMatrix._known_positive(projected)


def purity(rho: DensityMatrix) -> float:
    """Tr ρ², between 1/d (maximally mixed) and 1 (pure)."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


@dataclass(frozen=True)
class OutcomeFrequencies:
    """Empirical outcome table from repeated diagonal-state sampling."""

    counts: np.ndarray
    n: int
    probabilities: np.ndarray

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n

    def standard_errors(self) -> np.ndarray:
        p = self.probabilities
        return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / self.n)

    def within_3_sigma(self) -> np.ndarray:
        """Per-outcome check |freq − p| ≤ 3 binomial standard errors."""
        return np.abs(self.frequencies - self.probabilities) \
            <= 3.0 * self.standard_errors()


def sample_outcomes(rho: DensityMatrix, n: int, seed: int) -> OutcomeFrequencies:
    """Draw n outcomes with Born weights p_k = ρ_kk (diagonal ρ only)."""
    require(n >= 1, "need at least one draw")
    require(rho.off_diagonal_max() <= 1e-12,
            "matrix has coherences; decohere before sampling")
    p = rho.diagonal_part()
    p = np.maximum(p, 0.0)
    p = p / np.sum(p)
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(rho.d, size=n, p=p)
    counts = np.bincount(outcomes, minlength=rho.d)
    return OutcomeFrequencies(counts=counts, n=n, probabilities=p)


def sector_defect(op: np.ndarray, sectors: SectorStructure) -> float:
    """Largest cross-sector element |⟨ψ_j|F|ψ_i⟩| of a finite operator.

    Zero defect certifies F as physical under the superselection rule:
    F is block diagonal, so [S, F]_ij = (s_i − s_j) F_ij is exactly 0.
    """
    op = np.asarray(op, dtype=complex)
    require(op.shape == (sectors.d, sectors.d),
            "operator shape does not match the sector space")
    require(np.all(np.isfinite(op)), "operator entries must be finite")
    return float(np.max(np.abs(np.where(sectors.block_mask(), 0.0, op))))


def charge_commutator_norm(op: np.ndarray, sectors: SectorStructure) -> float:
    """max |[S, F]_ij| = max |s_i F_ij − F_ij s_j| for S = Σ_i s_i Π_i."""
    op = np.asarray(op, dtype=complex)
    s = np.diag(sectors.charge_operator())
    return float(np.max(np.abs(s[:, None] * op - op * s)))


def rotation_2pi(state, spins) -> np.ndarray:
    """Full-turn rotation: −1 on half-integer-spin components, +1 on
    integer-spin components.

    Pure-sector states return to the same ray (global ±1); a mixture of
    both spin classes returns on a different ray, so no observable
    state can superpose them.
    """
    state = np.asarray(state, dtype=complex)
    spins = np.asarray(spins, dtype=float)
    require(state.ndim == 1 and spins.shape == state.shape,
            "need one spin label per component")
    doubled = 2.0 * spins
    require(np.all(np.abs(doubled - np.round(doubled)) <= 1e-12),
            "spin labels must be integer or half-integer")
    half = np.abs(doubled.astype(int)) % 2 == 1
    return np.where(half, -state, state)


def random_density(d: int, rng: np.random.Generator,
                   rank: int | None = None) -> DensityMatrix:
    """Random density matrix: normalized Wishart A A† with A = X + iY of
    shape (d, rank), positive by construction.

    The Gram is formed in real arithmetic at half the flops of the
    complex product: Re = X Xᵀ + Y Yᵀ, mirrored as (Re + Reᵀ)/2, and
    Im = G − Gᵀ with G = Y Xᵀ, so the result is exactly Hermitian.
    Before the scaling by 1/trace an entry of Re carries at most
    rank + 2 roundings and one of Im rank + 1, so their errors are
    bounded entrywise by γ_{rank+2} times |X||X|ᵀ + |Y||Y|ᵀ and
    |Y||X|ᵀ + |X||Y|ᵀ (Higham, §3.5), each of 2-norm at most tr A A†.
    With the scaling, the normalized spectrum moves by at most
    2γ_{rank+3} ≈ 2·rank·u (Weyl), so the ``eigvalsh`` runs only when
    that exceeds 1e-12, at rank above 4500."""
    rank = d if rank is None else rank
    require(d >= 1 and rank >= 1,
            f"need d >= 1 and rank >= 1, got d={d}, rank={rank}")
    xy = np.empty((2, d, rank))
    rng.standard_normal(out=xy)   # X, then Y: the stream of two draws
    x, y = xy
    gram = np.empty((2, d, d))
    re, g = gram
    np.matmul(x, x.T, out=re)
    np.matmul(y, y.T, out=g)
    re += g
    np.matmul(y, x.T, out=g)
    del xy, x, y                  # free the draws before the output
    m = _mirror(re, g)
    m *= 1.0 / np.trace(m).real
    if (rank + 3) * np.finfo(float).eps <= _EIG_TOL:    # 2γ_{rank+3}
        return DensityMatrix._known_positive(m)
    return DensityMatrix(m)
