"""Holomorphic-representation oscillator calculus with an explicit scale ħ.

States are finite coefficient vectors in the orthonormal basis
Z_n(z) = z^n / sqrt(n! ħ^n) of entire functions square-integrable
against the normalized Gaussian measure

    dμ = (1/(π ħ)) e^{-|z|^2/ħ} d(Re z) d(Im z).

The raising operator is multiplication by z, the lowering operator is
ħ d/dz, and their commutator is ħ exactly on every interior slot of the
truncation.  A quadrature inner product over the Gaussian measure serves
as an independent oracle for the analytic coefficient formula.  It is
exact for truncations up to 12: at unit scale Z_m conj(Z_n) is
u^{(m+n)/2} e^{i(m-n)φ} / sqrt(m! n!) with u = |z|^2; 80 equal angles
sum e^{ikφ} to zero for 0 < |k| < 80, which removes every pair with
m + n odd (m - n is then odd, so not zero); and 48 Gauss–Laguerre nodes
integrate u^j e^{-u} exactly for j <= 95.  The kernel
U(z, q) = Σ Z_n(z) Ψ_n(q) intertwines the holomorphic and position
representations (Ψ_n the Hermite functions) and is evaluated in closed
form (Bargmann 1961), so no truncation enters it; the classical trajectory
z(t) = z0 e^{-iωt} closes the correspondence with the coherent-amplitude
phase evolved by the Hamiltonian ω a⁺a + ωħ/2.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charfn import GridWaveFunction, _trapezoid_weights
from .errors import _mass, guard, require

__all__ = [
    "FockVector",
    "inner_product",
    "quadrature_inner_product",
    "raised",
    "lowered",
    "commutator_defect",
    "hamiltonian_apply",
    "evolved",
    "rescale_lambda",
    "hermite_function",
    "bargmann_kernel",
    "to_position",
    "from_position",
    "classical_trajectory",
]

_HERMITE_N_MAX = 200
_LOG_PI = math.log(math.pi)
_LOG_MAX = math.log(sys.float_info.max)   # exp of it is still finite
# Polar quadrature of the Gaussian measure: (radial, angular) node counts
# of the oracle, exact on every basis pair up to _QUAD_N_MAX.
_QUAD_NODES = (48, 80)
_QUAD_N_MAX = 12     # highest truncation the oracle accepts
_TAIL_TOL = 1e-8     # ||psi||^2 a projection onto the modes may miss


@dataclass(frozen=True)
class FockVector:
    """Coefficients c_0..c_{N_max} in the basis Z_n, at a fixed scale ħ."""

    coeffs: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", coeffs)
        require(coeffs.ndim == 1 and coeffs.size > 0,
                "coefficients must form a nonempty 1-d vector")
        guard("non-finite coefficients",
              np.count_nonzero(~np.isfinite(coeffs)), 0,
              "the coefficients overflowed or hold NaN")
        require(0 < self.hbar < math.inf,
                f"hbar must be positive and finite, got {self.hbar}")

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def basis_state(cls, n: int, n_max: int,
                    hbar: float = 1.0) -> "FockVector":
        """The basis vector Z_n, truncated at n_max."""
        require(0 <= n <= n_max, f"basis index {n} outside 0..{n_max}")
        c = np.zeros(n_max + 1, dtype=complex)
        c[n] = 1.0
        return cls(c, hbar)

    @classmethod
    def coherent_like(cls, alpha: complex, n_max: int,
                      hbar: float = 1.0) -> "FockVector":
        """Normalized vector with c_n ∝ alpha^n / sqrt(n! ħ^n)."""
        n = np.arange(n_max + 1)
        log_mag = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * (
            np.array([math.lgamma(k + 1.0) for k in n]) + n * np.log(hbar))
        phase = np.exp(1j * n * np.angle(alpha))
        c = np.exp(log_mag - log_mag.max()) * phase
        c /= np.linalg.norm(c)
        return cls(c, hbar)


def _basis_rows(z, n_max: int) -> np.ndarray:
    """Rows Z_0..Z_{n_max} at ħ = 1 at the points of the 1-d array z, by
    the ratio recurrence Z_n = Z_{n-1} z / sqrt(n), Z_0 = 1."""
    rows = np.empty((n_max + 1, z.size), dtype=complex)
    rows[0] = 1.0
    for n in range(1, n_max + 1):
        rows[n] = rows[n - 1] * z / np.sqrt(n)
    return rows


def _check_compatible(f: FockVector, g: FockVector):
    require(abs(f.hbar - g.hbar) <= 1e-15 * max(f.hbar, g.hbar),
            f"mismatched scales hbar={f.hbar} vs {g.hbar}")


def inner_product(f: FockVector, g: FockVector) -> complex:
    """(f, g) = Σ c_n(f) conj(c_n(g)).

    Analytic evaluation of the Gaussian-measure integral in the
    orthonormal basis; truncations may differ (short vector zero-padded).
    """
    _check_compatible(f, g)
    n = max(f.coeffs.size, g.coeffs.size)
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[:f.coeffs.size] = f.coeffs
    b[:g.coeffs.size] = g.coeffs
    return complex(np.sum(a * np.conj(b)))


@lru_cache(maxsize=1)
def _quadrature_gram() -> np.ndarray:
    """G[m, n] = Σ_j w_j Z_m(z_j) conj(Z_n(z_j)), m, n <= _QUAD_N_MAX, over
    the nodes z = sqrt(u) e^{iφ} at unit scale; read-only.  Row m is
    summed as a basis pair's integrand would be, so a basis pair reads
    the per-node value exactly."""
    radial, angular = _QUAD_NODES
    u, wu = np.polynomial.laguerre.laggauss(radial)
    phi = 2.0 * np.pi * np.arange(angular) / angular
    z = np.outer(np.sqrt(u), np.exp(1j * phi)).ravel()
    w = np.outer(wu, np.full(angular, 1.0 / angular)).ravel()
    rows = _basis_rows(z, _QUAD_N_MAX)
    conj_rows = np.conj(rows)
    gram = np.array([np.sum(w * row * conj_rows, axis=1) for row in rows])
    gram.setflags(write=False)
    return gram


def quadrature_inner_product(f: FockVector, g: FockVector) -> complex:
    """∫ dμ f(z) conj(g(z)) by polar quadrature over the Gaussian weight.

    An independent oracle for :func:`inner_product`: Gauss–Laguerre in
    u = |z|^2/ħ on 48 nodes times 80 equal angles, exact on every basis
    pair up to the truncation limit 12 (module docstring), so its error is
    rounding alone.  ħ does not enter: z = sqrt(ħ) ζ maps dμ and Z_n(z; ħ)
    onto dμ and Z_n(ζ; 1), and the integral is f · G · conj(g) with the
    unit-scale quadrature Gram G of the basis rows, formed once.
    """
    _check_compatible(f, g)
    require(f.n_max <= _QUAD_N_MAX and g.n_max <= _QUAD_N_MAX,
            f"quadrature oracle limited to truncations <= {_QUAD_N_MAX}")
    gram = _quadrature_gram()[:f.coeffs.size, :g.coeffs.size]
    return complex(np.einsum("m,mn,n->", f.coeffs, gram, np.conj(g.coeffs)))


def raised(f: FockVector, grow: bool = False) -> FockVector:
    """Apply the raising operator (multiplication by z).

    c_n contributes sqrt((n+1) ħ) c_n to slot n+1.  The top slot must be
    empty unless ``grow`` extends the truncation by one.
    """
    c = f.coeffs
    require(grow or c[-1] == 0.0, "raising would overflow the truncation "
            f"(top coefficient {c[-1]!r}); pass grow=True to extend it")
    out = np.zeros(c.size + 1, dtype=complex)
    n = np.arange(c.size)
    out[1:] = np.sqrt((n + 1) * f.hbar) * c
    if not grow:
        out = out[:c.size]
    return FockVector(out, f.hbar)


def lowered(f: FockVector) -> FockVector:
    """Apply the lowering operator ħ d/dz: c_n contributes sqrt(n ħ) c_n
    to slot n-1; the vacuum maps to the zero vector."""
    c = f.coeffs
    out = np.zeros(c.size, dtype=complex)
    n = np.arange(1, c.size)
    out[:-1] = np.sqrt(n * f.hbar) * c[1:]
    return FockVector(out, f.hbar)


def commutator_defect(n_max: int, hbar: float = 1.0,
                      include_edge: bool = False) -> float:
    """max_n ||([a, a⁺] - ħ) Z_n|| over basis slots.

    Interior slots n <= n_max - 1 give exact cancellation up to floating
    rounding.  ``include_edge`` adds the top slot using silently
    truncating raising, which manufactures a defect of magnitude
    ħ (n_max + 1) — the reason the edge is excluded by default.  It is
    ħ times the unit-scale defect, and is computed so.
    """
    require(n_max >= 2, "need n_max >= 2")
    require(0 < hbar < math.inf,
            f"hbar must be positive and finite, got {hbar}")
    worst = 0.0
    top = n_max if include_edge else n_max - 1
    for n in range(top + 1):
        z_n = FockVector.basis_state(n, n_max)
        if n < n_max:
            a_adag = lowered(raised(z_n))
        else:   # raise past the top slot, then drop it
            a_adag = lowered(FockVector(raised(z_n, grow=True).coeffs[:-1]))
        adag_a = raised(lowered(z_n))
        defect = a_adag.coeffs - adag_a.coeffs - z_n.coeffs
        # The defect lies on slot n alone: its largest modulus is its norm.
        worst = max(worst, float(np.max(np.abs(defect))))
    return hbar * worst


def hamiltonian_apply(f: FockVector, omega: float,
                      lam: float = 1.0) -> FockVector:
    """Apply H = ω λ a⁺a + ω λ ħ / 2 through the ladder operators.

    In the unrescaled representation (λ=1) the basis vector Z_n is an
    eigenvector with eigenvalue ω ħ (n + 1/2).  For a vector produced by
    :func:`rescale_lambda` pass the same λ: the spectrum then matches
    the unrescaled one exactly (λ ħ_rescaled recovers the original ħ).
    H is ω λ ħ times a⁺a + 1/2 at unit scale, and is applied so.
    """
    number_part = raised(lowered(FockVector(f.coeffs)))
    scale = omega * lam * f.hbar
    guard("|omega * lambda * hbar|", abs(scale), sys.float_info.max,
          "the energy scale lies beyond the double range")
    with np.errstate(over="ignore"):   # an overflow trips FockVector's guard
        c = scale * (number_part.coeffs + 0.5 * f.coeffs)
    return FockVector(c, f.hbar)


def evolved(f: FockVector, omega: float, t: float) -> FockVector:
    """Evolve by the phase factors e^{-i E_n t / ħ}, E_n = ω ħ (n + 1/2)."""
    n = np.arange(f.coeffs.size)
    phases = np.exp(-1j * omega * (n + 0.5) * t)
    return FockVector(f.coeffs * phases, f.hbar)


def rescale_lambda(f: FockVector, lam: float) -> FockVector:
    """Non-canonical rescaling a -> a/sqrt(λ): same coefficients, scale
    ħ/λ, so the ladder commutator becomes ħ/λ while the spectrum of
    ω λ a⁺a + ω λ ħ'/2 is unchanged."""
    require(0 < lam < math.inf,
            f"lambda must be positive and finite, got {lam}")
    return FockVector(f.coeffs.copy(), f.hbar / lam)


# ---------------------------------------------------------------------------
# Position representation
# ---------------------------------------------------------------------------

def hermite_function(n: int, q) -> np.ndarray:
    """Orthonormal Hermite function Ψ_n(q) (unit scale).

    Row n of the unit-scale ``_hermite_table``: the pre-weighted stable
    recurrence Ψ_n = q sqrt(2/n) Ψ_{n-1} - sqrt((n-1)/n) Ψ_{n-2},
    Ψ_0 = π^{-1/4} e^{-q²/2}; accurate for n <= 200.
    """
    q = np.asarray(q, dtype=float)
    return _hermite_table(n, q.ravel(), 1.0)[n].reshape(q.shape)


def _hermite_table(n_max: int, q, hbar: float) -> np.ndarray:
    """Rows Ψ_0..Ψ_{n_max} of width-sqrt(ħ) Hermite functions on q."""
    require(0 <= n_max <= _HERMITE_N_MAX, f"order {n_max} outside 0.."
            f"{_HERMITE_N_MAX}, whose top is the recurrence accuracy bound")
    q = np.asarray(q, dtype=float)
    s = q / np.sqrt(hbar)
    table = np.empty((n_max + 1, q.size), dtype=float)
    with np.errstate(over="ignore"):   # s² = inf only where e^{-s²/2} is 0
        table[0] = np.pi ** -0.25 * np.exp(-0.5 * s * s)
    if n_max >= 1:
        table[1] = np.sqrt(2.0) * s * table[0]
    for m in range(2, n_max + 1):
        table[m] = (s * np.sqrt(2.0 / m) * table[m - 1]
                    - np.sqrt((m - 1) / m) * table[m - 2])
    return hbar ** -0.25 * table


def bargmann_kernel(z: complex, q, hbar: float = 1.0) -> np.ndarray:
    """U(z, q) = Σ_n Z_n(z) Ψ_n(q), the intertwining kernel, in closed form:
    (πħ)^{-1/4} exp(-q²/2ħ + √2 zq/ħ - z²/2ħ) (Bargmann 1961, Comm. Pure
    Appl. Math. 14, 187).  With w = z/√ħ = a + ib and s = q/√ħ its modulus
    (πħ)^{-1/4} e^{|w|²/2 - (s - √2a)²/2} is one exponential, below its
    peak at s = √2a, and its phase is b(√2 s - a); where the modulus
    underflows U is 0.  A z whose peak lies beyond the double range is
    refused, as are a non-finite q and a non-positive or non-finite ħ.
    Satisfies ∫ dq U(z, q) conj(U(z', q)) = e^{z conj(z')/ħ}.
    """
    require(0 < hbar < math.inf,
            f"hbar must be positive and finite, got {hbar}")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    require(bool(np.all(np.isfinite(q))), "q must be finite")
    z, root = complex(z), math.sqrt(hbar)
    a, b = z.real / root, z.imag / root
    log_peak = 0.5 * (a * a + b * b) - 0.25 * (_LOG_PI + math.log(hbar))
    require(log_peak <= _LOG_MAX, f"the kernel modulus at z = {z}, "
            f"hbar = {hbar} lies beyond the double range")
    with np.errstate(over="ignore"):   # s, s² are inf only where U is 0
        s = q / root
        modulus = np.exp(log_peak - 0.5 * np.square(s - 2 ** 0.5 * a))
    s = np.where(modulus > 0.0, s, 0.0)   # a finite phase where U is 0
    return modulus * np.exp(1j * b * (2 ** 0.5 * s - a))


def to_position(f: FockVector, grid) -> GridWaveFunction:
    """ψ(q) = Σ c_n Ψ_n(q) on a uniform grid of q values."""
    q = np.asarray(grid, dtype=float)
    require(q.ndim == 1 and q.size >= 2,
            "grid must be a 1-d array of at least 2 points")
    dq = q[1] - q[0]
    require(np.allclose(np.diff(q), dq, rtol=0,
                        atol=1e-12 * max(1.0, abs(dq))),
            "grid must be uniformly spaced")
    table = _hermite_table(f.n_max, q, f.hbar)
    values = np.einsum("m,mj->j", f.coeffs, table)
    return GridWaveFunction(float(q[0]), float(dq), values)


def from_position(psi: GridWaveFunction, n_max: int,
                  hbar: float = 1.0) -> FockVector:
    """Project grid samples onto the first n_max+1 oscillator modes.

    c_n = ∫ ψ(q) Ψ_n(q) dq by trapezoidal quadrature.  The captured
    coefficient mass must reach ||ψ||² within a relative 1e-8 at any scale
    of ψ (this guards both a too-narrow grid and a too-small truncation);
    otherwise NumericalGuardError is raised.  A pass vouches for the c_n
    within 1e-4 ||ψ|| in norm of ψ's exact coefficients over the line where
    the grid's trapezoid rule integrates ψ Ψ_n and Ψ_m Ψ_n exactly (it
    resolves them and holds ψ's mass; the guard cannot see mass off the
    grid): the residual ψ - Σ c_n Ψ_n, of squared norm ||ψ||² - Σ |c_n|²,
    is the exact residual plus the coefficient error, which are orthogonal.
    """
    _, mass, e = _mass(psi.values, "cannot project a zero-norm sample list")
    wv = psi.values * _trapezoid_weights(psi.n) * psi.dx
    projection = FockVector(
        np.einsum("mj,j->m", _hermite_table(n_max, psi.x, hbar), wv), hbar)
    _, captured, e_c = _mass(projection.coeffs, "the projection is zero")
    guard("projection mass shortfall",
          1.0 - math.ldexp(captured / mass, 2 * (e_c - e)) / psi.dx,
          _TAIL_TOL, f"widen the grid or increase n_max beyond {n_max}")
    return projection


def classical_trajectory(z0: complex, omega: float, t: float) -> complex:
    """z(t) = z0 e^{-iωt}, the solution of dz/dt = -iωz."""
    return z0 * cmath.exp(-1j * omega * t)
