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
either.  ``random_density`` draws the complex Wishart law through its
Bartlett factor L (Bartlett 1933; Goodman 1963 for the complex case)
and forms L L† one block row at a time in L's own buffer, mirroring
each tile, so it too is Hermitian by construction; its rounding bound
2γ_{k+3}, k = min(d, rank), stands in for the ``eigvalsh`` up to
k = 4500.  A charge operator
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

from .errors import _indices, _row_blocks, require

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
_GRAM_ROWS = 64   # Bartlett rows per block, not entries: sized on ladder RSS
_MAX_DRAWS = 2 ** 63 - 1    # largest count numpy's multinomial takes


def _hermitian_defect(m: np.ndarray) -> float:
    """max |m − m^H|, one row block at a time so that no temporary
    outgrows a block; NaN propagates."""
    return float(np.max([np.max(np.abs(m[rows] - m[:, rows].conj().T))
                         for rows in _row_blocks(*m.shape)]))


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
    """Outcome counts of n draws with Born weights p_k = ρ_kk (diagonal ρ
    only).

    Only the counts are kept, and they follow Multinomial(n, p) exactly,
    so they are drawn as one multinomial (sequential binomials): O(d)
    time and memory, whatever n.  n is at most 2^63 − 1, numpy's count
    type.  Outcomes of zero weight stay out of the draw: numpy hands its
    last outcome what the binomials before it leave, which rounding
    makes a stray count now and then at n ~ 1e15.
    """
    require(1 <= n <= _MAX_DRAWS,
            f"need between 1 and 2**63 - 1 draws, got {n}")
    require(rho.off_diagonal_max() <= 1e-12,
            "matrix has coherences; decohere before sampling")
    p = rho.diagonal_part()
    p = np.maximum(p, 0.0)
    p = p / np.sum(p)
    support = p > 0.0
    counts = np.zeros(rho.d, dtype=np.int64)
    counts[support] = np.random.default_rng(seed).multinomial(n, p[support])
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
    """max |[S, F]_ij| = max |s_i F_ij − F_ij s_j| for S = Σ_i s_i Π_i.

    S is diagonal, so it is never formed: s_i is the charge of the
    sector that holds basis index i."""
    op = np.asarray(op, dtype=complex)
    by_owner = np.array([sectors.charges[label] for label in sectors.sectors])
    s = by_owner[sectors._owner]
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
    """Random density matrix: the normalized complex Wishart A A† of
    A = X + iY with standard normal X, Y of shape (d, rank), positive
    by construction.

    A A† has the law of L L†, where L is the d×k Bartlett factor,
    k = min(d, rank) (Bartlett 1933; Goodman 1963, Ann. Math. Stat. 34,
    for the complex case): its entries left of the diagonal, and every
    entry of the rows i ≥ k, are complex normals X + iY like A's, and
    its diagonal is L_ii = √χ²_{2(rank−i)}.  At rank = d the draw takes
    about half the normals of A, and the Gram about half the real
    multiply-adds of A A† formed as X Xᵀ + Y Yᵀ and Y Xᵀ.  The normals
    are drawn one block of rows at a time, in row-major order of the
    entries they fill, then the diagonal in one call.

    Block row I of the upper triangle is L_I L[i1:, :e]† with
    e = min(i1, k), one BLAS product that skips L's zero triangle; when
    k = d it is written over L's own buffer, whose rows in I are not
    read again, so the draw and the Gram share one d×d buffer.  Each
    diagonal tile t becomes (t + t†)/2 and each tile below the diagonal
    the conjugate transpose of its mirror, so the result is exactly
    Hermitian.  Entry (i, j) sums min(i, j) + 1 ≤ k complex products,
    so before the scaling by 1/trace its error is bounded entrywise by
    γ_{k+2} |L||L|ᵀ (Higham §3.6), γ_{k+3} with the tile average, and
    |L||L|ᵀ has 2-norm at most ‖L‖²_F = tr L L†.  With the scaling, the
    normalized spectrum moves by at most 2γ_{k+3} ≈ 2·k·u (Weyl), so
    the ``eigvalsh`` runs only when that exceeds 1e-12, at k above
    4500."""
    rank = d if rank is None else rank
    require(d >= 1 and rank >= 1,
            f"need d >= 1 and rank >= 1, got d={d}, rank={rank}")
    k = min(d, rank)
    f = np.zeros((d, k), dtype=complex)
    # one block of rows of L at a time: the normals, then the conjugate
    rowbuf = np.empty(min(_GRAM_ROWS, d) * k, dtype=complex)
    blocks = [(i0, min(i0 + _GRAM_ROWS, d)) for i0 in range(0, d, _GRAM_ROWS)]
    for i0, i1 in blocks:
        e = min(i1, k)
        below = np.tri(i1 - i0, e, i0 - 1, dtype=bool)   # column < row
        z = rowbuf[:np.count_nonzero(below)]
        rng.standard_normal(out=z.view(float))
        f[i0:i1, :e][below] = z
    diag = np.arange(k)
    f[diag, diag] = np.sqrt(rng.chisquare(2 * (rank - diag)))
    m = f if k == d else np.empty((d, d), dtype=complex)
    for i0, i1 in blocks:
        e = min(i1, k)
        rows = f[i0:i1, :e]
        c = np.conjugate(rows, out=rowbuf[:rows.size].reshape(rows.shape))
        right = m[i0:i1, i1:]       # L_I L[i1:]† = conj(conj(L_I) L[i1:]ᵀ)
        np.matmul(c, f[i1:, :e].T, out=right)
        np.conjugate(right, out=right)
        t = rows @ c.T
        tile = m[i0:i1, i0:i1]
        np.conjugate(t.T, out=tile)
        tile += t
        tile *= 0.5
        for j0, j1 in blocks[:i0 // _GRAM_ROWS]:
            np.conjugate(m[j0:j1, i0:i1].T, out=m[i0:i1, j0:j1])
    m *= 1.0 / np.trace(m).real
    if (k + 3) * np.finfo(float).eps <= _EIG_TOL:       # 2γ_{k+3}
        return DensityMatrix._known_positive(m)
    return DensityMatrix(m)
