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
exercised here as an executable identity.  The direct route is a dense
quadrature sum; the autocorrelation runs its xi-integration over one
full Nyquist period (2*pi/dx) with M = 4N points.  A shift of g by whole
lattice steps is an index shift, so the route takes one zero-padded FFT
per distinct off-lattice remainder of the t values: one for a grid on
the lattice.  That lag sum is exactly
dx * sum_i w_i^2 |psi_i|^2 exp(i t x_i) (discrete Parseval) where the
direct route weighs with w_i, so the route gap measures only the
end-point weights (w against w^2) and FFT rounding.

All transforms use the convention g(xi) = (2*pi)^(-1/2) * S psi(x)
exp(i*xi*x) dx; quadrature is trapezoidal on uniform grids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _row_blocks, guard, require

__all__ = [
    "GridWaveFunction",
    "DensityGrid",
    "CharacteristicSamples",
    "density_from_amplitude",
    "characteristic_function",
    "autocorrelation_charfn",
    "default_t_grid",
    "verify_theorem",
]

_NORM_TOL = 1e-9
_TAIL_TOL = 1e-8     # relative spectral mass the autocorrelation may miss
_T_SPAN = 6.0        # the default t grid covers [-_T_SPAN, _T_SPAN]
_T_POINTS = 61


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
        require(0 < self.dx < np.inf,
                f"dx must be positive and finite, got {self.dx}")
        require(abs(self.x0) < np.inf, f"x0 must be finite, got {self.x0}")
        require(values.ndim == 1 and values.size >= 2,
                "need a 1-d sample list of length >= 2")
        guard("non-finite samples", np.count_nonzero(~np.isfinite(values)), 0,
              "the samples overflowed or hold NaN")

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
        require(0 < nrm2 < np.inf, "cannot normalize a zero-norm sample list")
        return GridWaveFunction(self.x0, self.dx,
                                self.values / np.sqrt(nrm2))

    @classmethod
    def sampled(cls, func, x0: float, dx: float, n: int) -> "GridWaveFunction":
        """func sampled at x0 + i*dx, normalized to unit norm."""
        x = x0 + dx * np.arange(n)
        return cls(x0, dx, np.asarray(func(x), dtype=complex)).normalized()


@dataclass(frozen=True)
class DensityGrid:
    """Nonnegative real samples p_i on the uniform grid x_i = x0 + i*dx."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        require(0 < self.dx < np.inf,
                f"dx must be positive and finite, got {self.dx}")
        require(abs(self.x0) < np.inf, f"x0 must be finite, got {self.x0}")
        require(np.all((values >= -1e-15) & (values < np.inf)),
                "density samples must be nonnegative finite numbers")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def total_mass(self) -> float:
        return float(np.sum(self.values) * self.dx)


@dataclass(frozen=True)
class CharacteristicSamples:
    """Values f(t_j) of a characteristic function on the caller's grid
    of t points, one complex value per point."""

    values: np.ndarray


def density_from_amplitude(psi: GridWaveFunction) -> DensityGrid:
    """p_i = |psi_i|^2, normalized to unit total mass.

    A sample list whose norm differs from 1 is normalized on the fly;
    zero norm raises ValueError.
    """
    nrm2 = psi.norm_squared()
    require(0 < nrm2 < np.inf, "zero-norm amplitude has no density")
    return DensityGrid(psi.x0, psi.dx, np.abs(psi.values) ** 2 / nrm2)


def characteristic_function(p: DensityGrid, t_grid) -> CharacteristicSamples:
    """f(t) = integral of exp(itx) p(x) dx by trapezoidal quadrature.

    The phases exp(i t x) are formed one row block of t values at a
    time, so no temporary outgrows a block.  The sums run in numpy's own
    loops, not BLAS, so they do not depend on the BLAS thread count."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    require(np.all(np.isfinite(t)), "t values must be finite")
    x = p.x
    w = _trapezoid_weights(p.n) * p.values * p.dx
    values = np.empty(t.size, dtype=complex)
    for rows in _row_blocks(t.size, p.n):
        values[rows] = np.einsum("fj,j->f", np.exp(1j * np.outer(t[rows], x)),
                                 w)
    return CharacteristicSamples(values)


def _xi_lattice(psi: GridWaveFunction) -> tuple[int, float]:
    """Point count M = 4N and spacing of the xi lattice that covers one
    Nyquist period 2*pi/dx."""
    m = 4 * psi.n
    return m, (2.0 * np.pi / psi.dx) / m


def autocorrelation_charfn(psi: GridWaveFunction,
                           t_grid) -> CharacteristicSamples:
    """f(t) = integral of g(t+xi) conj(g(xi)) dxi, g the Fourier amplitude.

    The xi integration runs over the lattice xi_j = -pi/dx + j*dxi of
    one Nyquist period with M = 4N points.  Since
    (xi_j + t) x_i = (xi_j + t) x0 + (t dx - pi) i + 2 pi j i / M,
    g(xi_j + t) = exp(i (xi_j + t) x0) h_t[j], where h_t is one
    zero-padded inverse FFT of a_i exp(i t dx i), a_i = w_i psi_i (-1)^i
    with trapezoid weights w.  This holds for every real t, and the x0
    phases leave only exp(i t x0) in the integrand.  With t = s dxi + r,
    s = round(t / dxi), the factor exp(i s dxi dx i) = exp(2 pi i s i / M)
    shifts the index: h_t[j] = h_r[(j + s) mod M].  So there is one FFT per
    distinct remainder r, and each lag sum is two slice dot products.

    Discrete Parseval is exact on a full period: for normalized psi and
    every real t the lag sum is dx * sum_i w_i^2 |psi_i|^2 exp(i t x_i),
    so its gap to the direct route is the two end-point terms (w - w^2
    = 1/4 there) plus FFT rounding.  At t = 0 it is the captured spectral
    mass; a relative shortfall above 1e-8 (samples that do not vanish at
    the grid ends) raises NumericalGuardError.  ``psi`` must be
    normalized (``GridWaveFunction.sampled`` or ``normalized()``).
    """
    require(psi.is_normalized, "packet must be normalized")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    require(np.all(np.isfinite(t)), "t values must be finite")
    m, dxi = _xi_lattice(psi)
    require(m * psi.dx * m * psi.dx < np.inf,
            f"the lattice weight (4 N dx)^2 overflows at dx = {psi.dx}")
    i = np.arange(psi.n)
    a = _trapezoid_weights(psi.n) * psi.values * np.where(i % 2, -1.0, 1.0)
    h0 = np.fft.ifft(a, m)
    weight = dxi * (m * psi.dx) ** 2 / (2.0 * np.pi)
    mass = float(np.sum(np.abs(h0) ** 2) * weight)
    guard("relative spectral mass shortfall", 1.0 - mass / psi.norm_squared(),
          _TAIL_TOL,
          "the samples do not vanish at the grid ends; widen the grid")
    h0bar_w = np.conj(h0) * weight
    steps = np.round(t / dxi)
    rest = t - steps * dxi
    shift = np.mod(steps, m).astype(np.intp)
    values = np.empty(t.size, dtype=complex)
    r = np.nan
    for k in np.argsort(rest):   # equal remainders share one transform
        if rest[k] != r:
            r = rest[k]
            h = np.fft.ifft(a * np.exp(1j * r * psi.dx * i), m)
        s = shift[k]
        values[k] = np.exp(1j * t[k] * psi.x0) * (
            np.einsum("j,j->", h[s:], h0bar_w[:m - s])
            + np.einsum("j,j->", h[:s], h0bar_w[m - s:]))
    return CharacteristicSamples(values)


def default_t_grid(psi: GridWaveFunction) -> np.ndarray:
    """61 points over [-6, 6], snapped onto the xi lattice.

    The autocorrelation route takes any real t; the snap only keeps the
    points of the published tables."""
    _, dxi = _xi_lattice(psi)
    raw = np.linspace(-_T_SPAN, _T_SPAN, _T_POINTS)
    return np.round(raw / dxi) * dxi


def verify_theorem(psi: GridWaveFunction) -> float:
    """Max modulus gap between the direct and autocorrelation routes.

    Returns max over :func:`default_t_grid` of |f_direct(t) - f_autocorr(t)|
    for the density p = |psi|^2; the defining identity of characteristic
    functions of absolutely continuous distributions.  ``psi`` must be
    normalized, as for :func:`autocorrelation_charfn`.
    """
    require(psi.is_normalized, "packet must be normalized")
    t_grid = default_t_grid(psi)
    direct = characteristic_function(density_from_amplitude(psi), t_grid)
    auto = autocorrelation_charfn(psi, t_grid)
    return float(np.max(np.abs(direct.values - auto.values)))
