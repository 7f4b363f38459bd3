"""Characteristic functions of |amplitude|^2 densities, two ways.

A complex amplitude sampled on a uniform grid yields a probability
density p = |psi|^2.  Its characteristic function can be computed two
ways:

* directly, f(t) = integral of exp(itx) p(x) dx;
* through the Fourier transform g(xi) = (2*pi)^(-1/2) * integral of
  psi(x) exp(i*xi*x) dx, as the autocorrelation
  f(t) = integral of g(t+xi) * conj(g(xi)) dxi.

The equality of the two routes characterizes which functions are
characteristic functions of absolutely continuous distributions, and is
exercised here as an executable identity: on a uniform grid, with the
xi-integration covering one full Nyquist period (2*pi/dx) with at least
N points, the discrete routes agree to machine precision for arbitrary
square-summable samples.

All transforms use the convention g(xi) = (2*pi)^(-1/2) * S psi(x)
exp(i*xi*x) dx; quadrature is trapezoidal on uniform grids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError

__all__ = [
    "GridWaveFunction",
    "DensityGrid",
    "CharacteristicSamples",
    "density_from_amplitude",
    "characteristic_function",
    "autocorrelation_charfn",
    "fourier_amplitude",
    "verify_theorem",
]

_NORM_TOL = 1e-9


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class GridWaveFunction:
    """Complex samples psi_i on the uniform grid x_i = x0 + i*dx."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if values.ndim != 1 or values.size < 2:
            raise ValueError("need a 1-d sample list of length >= 2")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm_squared() - 1.0) <= _NORM_TOL

    def normalized(self) -> "GridWaveFunction":
        nrm2 = self.norm_squared()
        if nrm2 <= 0 or not np.isfinite(nrm2):
            raise ValueError("cannot normalize a zero-norm sample list")
        return GridWaveFunction(self.x0, self.dx,
                                self.values / np.sqrt(nrm2))

    @classmethod
    def sampled(cls, func, x0: float, dx: float, n: int,
                normalize: bool = True) -> "GridWaveFunction":
        x = x0 + dx * np.arange(n)
        psi = cls(x0, dx, np.asarray(func(x), dtype=complex))
        return psi.normalized() if normalize else psi


@dataclass(frozen=True)
class DensityGrid:
    """Nonnegative real samples p_i on the uniform grid x_i = x0 + i*dx."""

    x0: float
    dx: float
    values: np.ndarray
    renormalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if np.any(values < -1e-15):
            raise ValueError("density samples must be nonnegative")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def total_mass(self) -> float:
        return float(np.sum(self.values) * self.dx)

    @property
    def is_normalized(self) -> bool:
        return abs(self.total_mass() - 1.0) <= _NORM_TOL

    def mean(self) -> float:
        return float(np.sum(self.x * self.values) * self.dx)

    def variance(self) -> float:
        mu = self.mean()
        return float(np.sum((self.x - mu) ** 2 * self.values) * self.dx)


@dataclass(frozen=True)
class CharacteristicSamples:
    """Values f(t_j) of a characteristic function on a grid of t points."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=complex))
        if self.t.shape != self.values.shape:
            raise ValueError("t grid and values must have matching shapes")

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values)))


def density_from_amplitude(psi: GridWaveFunction) -> DensityGrid:
    """p_i = |psi_i|^2, normalized to unit total mass.

    A sample list whose norm differs from 1 is normalized on the fly and
    the result flagged ``renormalized``; zero norm raises ValueError.
    """
    nrm2 = psi.norm_squared()
    if nrm2 <= 0 or not np.isfinite(nrm2):
        raise ValueError("zero-norm amplitude has no density")
    p = np.abs(psi.values) ** 2 / nrm2
    return DensityGrid(psi.x0, psi.dx, p,
                       renormalized=abs(nrm2 - 1.0) > _NORM_TOL)


def _dense_fourier(x: np.ndarray, weights: np.ndarray,
                   freqs: np.ndarray) -> np.ndarray:
    """Σ_i exp(i·f·x_i) weights_i for every f, chunked over f to bound
    the phase-matrix size."""
    out = np.empty(freqs.size, dtype=complex)
    step = max(1, int(2e6 / max(1, x.size)))
    for i in range(0, freqs.size, step):
        block = freqs[i:i + step]
        out[i:i + step] = np.exp(1j * np.outer(block, x)) @ weights
    return out


def characteristic_function(p: DensityGrid, t_grid) -> CharacteristicSamples:
    """f(t) = integral of exp(itx) p(x) dx by trapezoidal quadrature."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    w = _trapezoid_weights(p.n) * p.values * p.dx
    return CharacteristicSamples(t, _dense_fourier(p.x, w, t))


def fourier_amplitude(psi: GridWaveFunction, xi) -> np.ndarray:
    """g(xi) = (2*pi)^(-1/2) * integral of psi(x) exp(i*xi*x) dx.

    Direct trapezoidal quadrature, evaluated at arbitrary xi points.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    w = _trapezoid_weights(psi.n) * psi.values * psi.dx
    return _dense_fourier(psi.x, w, xi) / np.sqrt(2.0 * np.pi)


def _default_xi_grid(psi: GridWaveFunction, xi_points: int | None,
                     xi_span: float | None):
    """Uniform xi lattice; by default one full Nyquist period 2*pi/dx."""
    period = 2.0 * np.pi / psi.dx
    span = period if xi_span is None else float(xi_span)
    m = max(psi.n, 4 * psi.n if xi_points is None else int(xi_points))
    dxi = span / m
    xi = -span / 2.0 + dxi * np.arange(m)
    return xi, dxi, span, period


def autocorrelation_charfn(psi: GridWaveFunction, t_grid,
                           xi_points: int | None = None,
                           xi_span: float | None = None,
                           tail_tol: float = 1e-8) -> CharacteristicSamples:
    """f(t) = integral of g(t+xi) conj(g(xi)) dxi, g the Fourier amplitude.

    The xi integration runs over a uniform lattice covering ``xi_span``
    (default: one full Nyquist period 2*pi/dx, on which the discrete
    Parseval identity is exact).  Captured spectral mass below
    (1 - tail_tol) * ||psi||^2 raises NumericalGuardError naming the
    required extension.

    For t values on the xi lattice the shifted samples are reused
    (g is periodic over the Nyquist period); off-lattice t values are
    evaluated by direct quadrature.
    """
    if not psi.is_normalized:
        psi = psi.normalized()
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    xi, dxi, span, period = _default_xi_grid(psi, xi_points, xi_span)
    g = fourier_amplitude(psi, xi)
    mass = float(np.sum(np.abs(g) ** 2) * dxi)
    target = psi.norm_squared()
    if mass < (1.0 - tail_tol) * target:
        raise NumericalGuardError(
            f"xi grid of span {span:.6g} captures only {mass:.12g} of the "
            f"spectral mass {target:.12g}; extend the span toward the full "
            f"Nyquist period {period:.6g}")
    gbar_w = np.conj(g) * dxi
    values = np.empty(t.size, dtype=complex)
    on_lattice = np.abs(np.round(t / dxi) - t / dxi) < 1e-9
    full_period = abs(span - period) < 1e-9 * period
    # over one full period g(xi + period) = wrap_phase * g(xi)
    wrap_phase = np.exp(2j * np.pi * psi.x0 / psi.dx)
    m = xi.size
    for i, ti in enumerate(t):
        shift = int(np.round(ti / dxi))
        if on_lattice[i] and full_period and abs(shift) < m:
            shifted = np.roll(g, -shift)
            if shift > 0:
                shifted[m - shift:] *= wrap_phase
            elif shift < 0:
                shifted[:-shift] *= np.conj(wrap_phase)
            values[i] = shifted @ gbar_w
        else:
            values[i] = fourier_amplitude(psi, ti + xi) @ gbar_w
    return CharacteristicSamples(t, values)


def default_t_grid(psi: GridWaveFunction, span: float = 6.0,
                   npts: int = 61) -> np.ndarray:
    """t grid snapped onto the xi lattice so both routes share points."""
    _, dxi, _, _ = _default_xi_grid(psi, None, None)
    raw = np.linspace(-span, span, npts)
    return np.round(raw / dxi) * dxi


def verify_theorem(psi: GridWaveFunction, t_grid=None) -> float:
    """Max modulus gap between the direct and autocorrelation routes.

    Returns max over the t grid of |f_direct(t) - f_autocorr(t)| for the
    density p = |psi|^2; the defining identity of characteristic
    functions of absolutely continuous distributions.
    """
    if not psi.is_normalized:
        psi = psi.normalized()
    if t_grid is None:
        t_grid = default_t_grid(psi)
    direct = characteristic_function(density_from_amplitude(psi), t_grid)
    auto = autocorrelation_charfn(psi, t_grid)
    return float(np.max(np.abs(direct.values - auto.values)))
