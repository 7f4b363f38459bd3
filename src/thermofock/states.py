"""Uncertainty widths, circle eigenstates, and multi-particle field states.

Fourier analysis fixes the root-mean-square width product of any
normalized packet at Δx·Δk ≥ ½, saturated by Gaussians and equal to
n + ½ for the n-th Hermite function.  On the circle the momentum
eigenstates e^{imφ} have uniform modulus, so Δp_φ = 0 while the angle
is spread over the full support 2π (RMS value 2π/sqrt(12)).

On a finite mode set, creating one quantum with a split profile
f = f1 + f2 of disjoint supports yields an exact one-quantum
eigenstate of the total number operator — a single particle whose
excitation density |f1|² + |f2|² lives in two separated regions —
while creating two quanta with the same profiles doubles the number
eigenvalue and is orthogonal to the split one-quantum state.

For two fermions in an antisymmetrized spatial wave function with
disjoint orbitals, the single-position marginal is
½(|f1(x)|² + |f2(x)|²): the orbital that vanishes in a region still
claims half the probability mass elsewhere, so the mass found in the
first orbital's home region is exactly ½.  The x2 integral reduces
exactly to three 1-D trapezoid sums, so the marginal costs O(N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import DensityGrid, GridWaveFunction
from .chain import MultiModeFockVector, mm_raised
from .errors import guard, require

__all__ = [
    "ModeProfile",
    "CircleUncertainty",
    "rms_widths",
    "circle_uncertainty",
    "exotic_state",
    "two_particle_state",
    "number_expectation",
    "number_variance",
    "occupation_density",
    "singlet_marginal",
]

_SUPPORT_TOL = 1e-14
_TAIL_TOL = 1e-8     # mass allowed in the outer 2% of either grid


@dataclass(frozen=True)
class ModeProfile:
    """Complex coefficients over a finite mode/site set.  The support is
    the set of modes with a nonzero coefficient, so disjointness is
    exact."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        require(values.ndim == 1 and values.size > 0,
                "profile values must form a nonempty 1-d array")
        total = float(np.sum(np.abs(values) ** 2))
        require(0 < total < np.inf, "profile must be nonzero and finite")

    @classmethod
    def from_values(cls, values) -> "ModeProfile":
        return cls(values)

    @property
    def n_modes(self) -> int:
        return self.values.size

    @property
    def support(self) -> frozenset:
        return frozenset(np.flatnonzero(self.values).tolist())

    def overlaps(self, other: "ModeProfile") -> bool:
        """True iff the supports intersect."""
        return bool(self.support & other.support)


def _check_disjoint_profiles(f1: ModeProfile, f2: ModeProfile) -> int:
    require(f1.n_modes == f2.n_modes, "profiles live on different mode sets")
    require(not f1.overlaps(f2),
            f"supports intersect at modes {sorted(f1.support & f2.support)}")
    return f1.n_modes


# ---------------------------------------------------------------------------
# Width products
# ---------------------------------------------------------------------------

def _rms_width(weights: np.ndarray, grid: np.ndarray, step: float) -> float:
    mass = float(np.sum(weights) * step)
    mean = float(np.sum(grid * weights) * step / mass)
    return math.sqrt(float(np.sum((grid - mean) ** 2 * weights) * step / mass))


def rms_widths(psi: GridWaveFunction):
    """Root-mean-square widths (Δx, Δk) of a normalized packet.

    Position moments come straight from |ψ|²; wavenumber moments from
    the squared modulus of the discrete Fourier transform (continuum
    normalization).  Mass in the outer 2% of either grid above 1e−8
    trips the guard — the moments would then be grid-artifact
    dominated.  The product obeys Δx·Δk ≥ ½ − 1e−9; a coarse spacing, or
    a span that cuts tails too light for the tail guards, breaks it.
    """
    require(psi.is_normalized, "packet must be normalized")
    n = psi.n
    edge = max(2, n // 50)

    weights_x = np.abs(psi.values) ** 2
    tail_x = float((np.sum(weights_x[:edge]) + np.sum(weights_x[-edge:]))
                   * psi.dx)
    guard("position tail mass", tail_x, _TAIL_TOL, "enlarge the grid span")

    spectrum = np.fft.fftshift(np.fft.fft(psi.values)) * psi.dx / math.sqrt(
        2.0 * math.pi)
    k = np.fft.fftshift(2.0 * math.pi * np.fft.fftfreq(n, d=psi.dx))
    dk = k[1] - k[0]
    weights_k = np.abs(spectrum) ** 2
    tail_k = float((np.sum(weights_k[:edge]) + np.sum(weights_k[-edge:])) * dk)
    guard("spectral tail mass", tail_k, _TAIL_TOL, "refine the grid spacing")

    width_x = _rms_width(weights_x, psi.x, psi.dx)
    width_k = _rms_width(weights_k, k, dk)
    guard("width product deficit below 1/2", 0.5 - width_x * width_k, 1e-9,
          "the grid spacing under-resolves the packet or its span cuts "
          "the tails; refine the spacing or widen the span")
    return width_x, width_k


@dataclass(frozen=True)
class CircleUncertainty:
    """Width data of a circle momentum eigenstate: the momentum width,
    the RMS angle deviation of the uniform density, and the full
    support width of the angle."""

    delta_p: float
    delta_phi_rms: float
    delta_phi_support: float


def circle_uncertainty(momentum_index: int) -> CircleUncertainty:
    """Widths for e^{imφ}/sqrt(2π) on the circle.

    The modulus is uniform regardless of m: the momentum is sharp
    (Δp_φ = 0) while the angle fills its entire range, with support
    width 2π and RMS deviation 2π/sqrt(12).  Both angle measures are
    reported; they answer different questions about "Δφ".
    """
    require(momentum_index == int(momentum_index),
            "momentum index must be an integer")
    return CircleUncertainty(
        delta_p=0.0,
        delta_phi_rms=2.0 * math.pi / math.sqrt(12.0),
        delta_phi_support=2.0 * math.pi,
    )


# ---------------------------------------------------------------------------
# One- and two-quantum states over a mode set
# ---------------------------------------------------------------------------

def _create_particle(phi: MultiModeFockVector,
                     profile: ModeProfile) -> MultiModeFockVector:
    """Apply Σ_j f_j â_j⁺ (support sites only) to a multimode vector."""
    result = None
    for j in sorted(profile.support):
        term = mm_raised(phi, j).scaled(profile.values[j])
        result = term if result is None else result.add_scaled(term)
    return result


def exotic_state(f1: ModeProfile, f2: ModeProfile) -> MultiModeFockVector:
    """One quantum created with the split profile f1 + f2 (disjoint
    supports): Σ_j (f1 + f2)_j â_j⁺ |0⟩ at unit ladder scale.

    An exact eigenstate of the total number operator with eigenvalue 1
    whose excitation density is |f1|² + |f2|² — one particle living in
    two separated regions.  Norm² = ‖f1‖² + ‖f2‖².
    """
    n_modes = _check_disjoint_profiles(f1, f2)
    vacuum = MultiModeFockVector.vacuum(n_modes, cutoff=2, hbar=1.0)
    return _create_particle(vacuum, f1).add_scaled(
        _create_particle(vacuum, f2))


def two_particle_state(f1: ModeProfile, f2: ModeProfile) -> MultiModeFockVector:
    """Two quanta, one per profile: A⁺(f1) A⁺(f2) |0⟩ at unit ladder
    scale.  Number eigenvalue 2, excited in the same regions as the
    split one-quantum state yet orthogonal to it; for disjoint supports
    the norm is ‖f1‖·‖f2‖."""
    n_modes = _check_disjoint_profiles(f1, f2)
    vacuum = MultiModeFockVector.vacuum(n_modes, cutoff=2, hbar=1.0)
    return _create_particle(_create_particle(vacuum, f2), f1)


def number_expectation(phi: MultiModeFockVector) -> float:
    """⟨N̂⟩ = Σ_occ |c|² (Σ_k n_k) / ‖Φ‖²."""
    norm2 = phi.norm_squared()
    require(norm2 > 0.0, "zero vector has no number expectation")
    return sum(abs(c) ** 2 * sum(occ) for occ, c in phi.coeffs.items()) / norm2


def number_variance(phi: MultiModeFockVector) -> float:
    """Var(N̂) = ⟨N̂²⟩ − ⟨N̂⟩² over the occupation distribution."""
    norm2 = phi.norm_squared()
    require(norm2 > 0.0, "zero vector has no number variance")
    mean = number_expectation(phi)
    second = sum(abs(c) ** 2 * sum(occ) ** 2
                 for occ, c in phi.coeffs.items()) / norm2
    return second - mean ** 2


def occupation_density(phi: MultiModeFockVector) -> np.ndarray:
    """Per-mode occupation expectations ⟨n̂_j⟩ (unnormalized vector OK)."""
    norm2 = phi.norm_squared()
    require(norm2 > 0.0, "zero vector has no occupation density")
    density = np.zeros(phi.modes)
    for occ, c in phi.coeffs.items():
        density += (abs(c) ** 2 / norm2) * np.asarray(occ, dtype=float)
    return density


# ---------------------------------------------------------------------------
# Antisymmetrized two-electron marginal
# ---------------------------------------------------------------------------

def _grid_support_overlap(f1: GridWaveFunction, f2: GridWaveFunction) -> float:
    w1 = np.abs(f1.values) ** 2
    w2 = np.abs(f2.values) ** 2
    return float(np.sum(w1[w2 > 0]) * f1.dx + np.sum(w2[w1 > 0]) * f1.dx)


def _singlet_reduction(a1, a2, dx: float) -> np.ndarray:
    """Trapezoid sum over x2 of |Ψ(x1, x2)|² for any two orbitals: the
    sum T is linear, so m = ½[|a1|² T(|a2|²) + |a2|² T(|a1|²)
    − 2 Re(a1 ā2 T(a2 ā1))], the one-body density of a two-orbital
    determinant (Löwdin 1955)."""
    w1, w2 = np.abs(a1) ** 2, np.abs(a2) ** 2
    cross = np.trapezoid(a2 * a1.conj(), dx=dx)
    return 0.5 * (w1 * np.trapezoid(w2, dx=dx) + w2 * np.trapezoid(w1, dx=dx)
                  - 2.0 * (a1 * a2.conj() * cross).real)


def singlet_marginal(f1: GridWaveFunction, f2: GridWaveFunction,
                     region: tuple[float, float] | None = None):
    """Single-position marginal of the antisymmetrized two-orbital state.

    Ψ(x1, x2) = [f1(x1) f2(x2) − f2(x1) f1(x2)] / sqrt(2) is integrated
    over x2 by the trapezoid rule, in O(N) (``_singlet_reduction``).
    For normalized orbitals with disjoint supports the marginal is
    ½(|f1(x1)|² + |f2(x1)|²), and the mass inside any region containing
    one orbital's support — and none of the other's — is exactly ½.

    Returns (marginal DensityGrid, mass in ``region``); ``region`` is an
    (xmin, xmax) interval, defaulting to the full grid line.
    """
    require(f1.n == f2.n and f1.x0 == f2.x0 and f1.dx == f2.dx,
            "orbitals must share one grid")
    require(f1.is_normalized and f2.is_normalized,
            "orbitals must be normalized")
    overlap = _grid_support_overlap(f1, f2)
    require(overlap <= _SUPPORT_TOL,
            f"orbital supports overlap with mass {overlap:.3e}")

    density = DensityGrid(f1.x0, f1.dx,
                          _singlet_reduction(f1.values, f2.values, f1.dx))

    if region is None:
        mass = density.total_mass()
    else:
        lo, hi = region
        require(hi > lo, "region must satisfy xmax > xmin")
        masked = np.where((density.x >= lo) & (density.x <= hi),
                          density.values, 0.0)
        mass = float(np.trapezoid(masked, dx=f1.dx))
    return density, mass
