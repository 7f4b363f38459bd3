"""Tests for characteristic functions computed along two independent routes.

The pinned values come from closed-form Gaussian integrals and from the
route-equivalence oracle: the direct transform of the density must match
the spectral autocorrelation of the amplitude wherever both are defined.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermofock.charfn import (
    CharacteristicSamples,
    DensityGrid,
    GridWaveFunction,
    autocorrelation_charfn,
    characteristic_function,
    default_t_grid,
    density_from_amplitude,
    verify_theorem,
)
from thermofock.errors import NumericalGuardError
from thermofock.fock import hermite_function


def gaussian_packet(s=1.0, n=2048, span=40.0):
    return GridWaveFunction.sampled(
        lambda x: np.exp(-x * x / (4.0 * s * s)), -span / 2.0, span / n, n)


def bump(center, halfwidth):
    def values(x):
        u = (x - center) / halfwidth
        out = np.zeros_like(x)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out
    return values


def random_smooth_packet(rng, n=1024, span=30.0):
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    width = rng.uniform(0.8, 2.0)
    center = rng.uniform(-2.0, 2.0)
    boost = rng.uniform(-1.5, 1.5)

    def values(x):
        u = x - center
        poly = c[0] + c[1] * u + c[2] * u * u
        return poly * np.exp(-u * u / (2.0 * width ** 2) + 1j * boost * x)

    return GridWaveFunction.sampled(values, -span / 2.0, span / n, n)


def fourier_amplitude(psi, xi):
    """Dense oracle for the FFT route: g(xi) = (2*pi)^(-1/2) times the
    trapezoid sum of psi(x) exp(i*xi*x) dx, one row of phases per xi
    point, 256 rows at a time."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    w = np.full(psi.n, psi.dx)
    w[[0, -1]] *= 0.5
    a = w * psi.values
    g = [np.exp(1j * np.outer(xi[i:i + 256], psi.x)) @ a
         for i in range(0, xi.size, 256)]
    return np.concatenate(g) / np.sqrt(2.0 * np.pi)


def count_ifft(monkeypatch):
    """Route np.fft.ifft through a recorder; returns the list of the
    transform lengths it was called with."""
    lengths = []
    ifft = np.fft.ifft

    def recorded(a, n=None, *args, **kwargs):
        lengths.append(n)
        return ifft(a, n, *args, **kwargs)
    monkeypatch.setattr(np.fft, "ifft", recorded)
    return lengths


class TestDensityFromAmplitude:
    """Squared-modulus densities and their grid bookkeeping."""

    def test_gaussian_amplitude_halves_the_variance_parameter(self):
        # |psi| ~ exp(-x^2/(4 s^2)) has variance parameter 2 s^2; the
        # density |psi|^2 ~ exp(-x^2/(2 s^2)) must show variance s^2.
        for s in (0.7, 1.0, 1.6):
            psi = gaussian_packet(s=s)
            p = density_from_amplitude(psi)
            assert p.is_normalized
            np.testing.assert_allclose(p.variance(), s * s, atol=1e-9)

    def test_disjoint_two_bump_density_is_the_sum_of_bump_densities(self):
        n, span = 2048, 20.0
        x0, dx = -span / 2.0, span / n
        x = x0 + dx * np.arange(n)
        f1 = GridWaveFunction(x0, dx, bump(-4.0, 2.0)(x))
        f2 = GridWaveFunction(x0, dx, bump(4.0, 2.0)(x))
        combined = GridWaveFunction(x0, dx, f1.values + f2.values)
        p = density_from_amplitude(combined)
        expected = (np.abs(f1.values) ** 2 + np.abs(f2.values) ** 2)
        expected /= np.sum(expected) * dx
        np.testing.assert_allclose(p.values, expected, atol=1e-15)
        np.testing.assert_allclose(p.total_mass(), 1.0, atol=1e-12)

    def test_phase_invariance(self):
        rng = np.random.default_rng(42)
        psi = random_smooth_packet(rng)
        base = density_from_amplitude(psi)
        for alpha in (0.3, 1.1, -2.7):
            rotated = GridWaveFunction(psi.x0, psi.dx,
                                       np.exp(1j * alpha) * psi.values)
            p = density_from_amplitude(rotated)
            np.testing.assert_allclose(p.values, base.values,
                                       rtol=1e-13, atol=1e-300)

    def test_zero_norm_rejected(self):
        psi = GridWaveFunction(0.0, 0.1, np.zeros(16))
        with pytest.raises(ValueError):
            density_from_amplitude(psi)

    def test_unnormalized_amplitude_has_unit_mass_density(self):
        psi = GridWaveFunction.sampled(lambda x: np.exp(-x * x), -10.0,
                                       20.0 / 512, 512)
        scaled = GridWaveFunction(psi.x0, psi.dx, 2.0 * psi.values)
        assert not scaled.is_normalized
        assert density_from_amplitude(scaled).is_normalized


class TestDirectRoute:
    """The density-side transform against closed forms."""

    def test_standard_gaussian_density(self):
        n = 2001
        x = np.linspace(-10.0, 10.0, n)
        p = DensityGrid(x[0], x[1] - x[0],
                        np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi))
        t = np.linspace(-5.0, 5.0, 41)
        f = characteristic_function(p, t)
        np.testing.assert_allclose(f.values, np.exp(-0.5 * t * t),
                                   atol=1e-6)

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            psi = random_smooth_packet(rng)
            p = density_from_amplitude(psi)
            t = np.linspace(-20.0, 20.0, 201)
            f = characteristic_function(p, t)
            assert f.max_modulus() <= 1.0 + 1e-9

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(44)
        psi = random_smooth_packet(rng)
        p = density_from_amplitude(psi)
        t = np.linspace(0.0, 8.0, 33)
        plus = characteristic_function(p, t)
        minus = characteristic_function(p, -t)
        np.testing.assert_allclose(minus.values, np.conj(plus.values),
                                   atol=1e-14)

    def test_value_at_zero_is_total_mass(self):
        psi = gaussian_packet()
        p = density_from_amplitude(psi)
        f = characteristic_function(p, [0.0])
        np.testing.assert_allclose(f.values[0], 1.0, atol=1e-12)


class TestRouteEquivalence:
    """Direct density transform vs spectral autocorrelation."""

    def test_gaussian(self):
        assert verify_theorem(gaussian_packet()) < 1e-6

    def test_hermite_one(self):
        psi = GridWaveFunction.sampled(lambda x: hermite_function(1, x),
                                       -20.0, 40.0 / 2048, 2048)
        assert verify_theorem(psi) < 1e-6

    def test_box_support(self):
        def box(x):
            return np.where(np.abs(x) <= 1.0, 1.0, 0.0)
        psi = GridWaveFunction.sampled(box, -8.0, 16.0 / 1024, 1024)
        assert verify_theorem(psi) < 1e-5

    def test_random_smooth_packets(self):
        rng = np.random.default_rng(45)
        for _ in range(8):
            psi = random_smooth_packet(rng)
            assert verify_theorem(psi) < 1e-5

    def test_off_lattice_evaluation_points(self):
        # t values that do not sit on the spectral lattice.
        psi = gaussian_packet(n=512, span=30.0)
        t = np.array([0.123456, -1.87654, 2.71828])
        direct = characteristic_function(density_from_amplitude(psi), t)
        auto = autocorrelation_charfn(psi, t)
        np.testing.assert_allclose(auto.values, direct.values, atol=1e-6)

    def test_default_t_grid_sits_on_the_spectral_lattice(self):
        psi = gaussian_packet(n=512, span=30.0)
        t = default_t_grid(psi)
        period = 2.0 * np.pi / psi.dx
        dxi = period / max(psi.n, 4 * psi.n)
        np.testing.assert_allclose(np.round(t / dxi) * dxi, t, atol=1e-12)


class TestSpectralSide:
    """Fourier amplitudes and the spectral-mass guard."""

    def test_gaussian_fourier_amplitude_closed_form(self):
        # psi ~ exp(-x^2/2) maps to g(xi) ~ exp(-xi^2/2) under the
        # unitary convention with the +i xi x phase.
        psi = GridWaveFunction.sampled(lambda x: np.exp(-0.5 * x * x),
                                       -15.0, 30.0 / 2048, 2048)
        xi = np.linspace(-4.0, 4.0, 33)
        g = fourier_amplitude(psi, xi)
        expected = np.pi ** -0.25 * np.exp(-0.5 * xi * xi)
        np.testing.assert_allclose(g, expected, atol=1e-10)

    def test_parseval_mass(self):
        rng = np.random.default_rng(46)
        psi = random_smooth_packet(rng)
        period = 2.0 * np.pi / psi.dx
        m = 4 * psi.n
        xi = -period / 2.0 + (period / m) * np.arange(m)
        g = fourier_amplitude(psi, xi)
        mass = np.sum(np.abs(g) ** 2) * (period / m)
        np.testing.assert_allclose(mass, 1.0, atol=1e-9)

    @settings(max_examples=60)
    @given(n=st.integers(2, 64), per_sample=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1),
           dx=st.floats(0.05, 2.0), x0=st.floats(-20.0, 20.0),
           offset=st.floats(-1.0, 1.0))
    def test_parseval_holds_for_any_samples_and_period(
            self, n, per_sample, seed, dx, x0, offset):
        # Discrete Parseval on any full Nyquist period of M >= N points:
        # the squared amplitude sums to dx Σ |w_i psi_i|² (trapezoid
        # weights w), whatever the samples, grid origin and lattice
        # offset.
        rng = np.random.default_rng(seed)
        psi = GridWaveFunction(x0, dx, rng.standard_normal(n)
                               + 1j * rng.standard_normal(n))
        period = 2.0 * np.pi / dx
        m = per_sample * n
        xi = period * (offset + np.arange(m) / m)
        g = fourier_amplitude(psi, xi)
        weighted = psi.values.copy()
        weighted[[0, -1]] *= 0.5
        mass = np.sum(np.abs(g) ** 2) * (period / m)
        np.testing.assert_allclose(
            mass, dx * np.sum(np.abs(weighted) ** 2), rtol=1e-10)

    def test_packet_cut_off_at_the_grid_end_trips_the_guard(self):
        # exp(-x^2) on [0, 8) is largest at the first sample, so the
        # end-point trapezoid weight drops spectral mass well above 1e-8.
        psi = GridWaveFunction.sampled(lambda x: np.exp(-x * x),
                                       0.0, 8.0 / 512, 512)
        with pytest.raises(NumericalGuardError):
            autocorrelation_charfn(psi, [0.5])


def dense_autocorrelation(psi, t):
    """Σ_j g(t + xi_j) conj(g(xi_j)) dxi over one Nyquist period of
    M = 4N points, g by direct quadrature."""
    psi = psi.normalized()
    m = 4 * psi.n
    dxi = (2.0 * np.pi / psi.dx) / m
    xi = -np.pi / psi.dx + dxi * np.arange(m)
    gbar = np.conj(fourier_amplitude(psi, xi)) * dxi
    return np.array([fourier_amplitude(psi, ti + xi) @ gbar for ti in t])


class TestAutocorrelationProperty:
    """The FFT autocorrelation equals its dense definition for every t."""

    @settings(max_examples=25)
    @given(n=st.integers(64, 512), seed=st.integers(0, 2 ** 32 - 1),
           lattice=st.lists(st.integers(-4096, 4096), min_size=1,
                            max_size=4),
           fraction=st.floats(0.01, 0.99), periods=st.floats(-3.0, 3.0))
    def test_matches_the_dense_definition(self, n, seed, lattice, fraction,
                                          periods):
        psi = random_smooth_packet(np.random.default_rng(seed), n=n)
        period = 2.0 * np.pi / psi.dx
        dxi = period / (4 * n)
        on = dxi * np.asarray(lattice, dtype=float)
        t = np.concatenate([on, on + fraction * dxi,
                            [periods * period, (1.0 + fraction) * period,
                             -(1.0 + fraction) * period]])
        auto = autocorrelation_charfn(psi, t)
        np.testing.assert_allclose(auto.values, dense_autocorrelation(psi, t),
                                   rtol=0.0, atol=1e-11)
        # Discrete Parseval on the full period: the lag sum is the
        # density transform with squared trapezoid weights, for any t.
        # The phases t*x reach about 3e3 here, so they round near 1e-12.
        w = np.ones(n)
        w[[0, -1]] = 0.5
        closed = psi.dx * np.exp(1j * np.outer(t, psi.x)) @ (
            w * w * np.abs(psi.values) ** 2)
        np.testing.assert_allclose(auto.values, closed, rtol=0.0,
                                   atol=4e-12)


class TestLatticeShifts:
    """A lattice step of t is an index shift, not another FFT."""

    def test_default_grid_costs_one_on_lattice_point(self, monkeypatch):
        psi = gaussian_packet(n=512)
        grid = default_t_grid(psi)
        calls = count_ifft(monkeypatch)
        autocorrelation_charfn(psi, grid[7:8])
        one_point = len(calls)
        autocorrelation_charfn(psi, grid)
        assert len(calls) == 2 * one_point

    def test_one_fft_per_distinct_remainder(self, monkeypatch):
        psi = gaussian_packet(n=512)
        dxi = 2.0 * np.pi / psi.dx / (4 * psi.n)
        t = dxi * np.array([3.0, 3.25, -40.25, 3.5, 0.0])
        calls = count_ifft(monkeypatch)
        auto = autocorrelation_charfn(psi, t)
        # the mass transform, then remainders 0, dxi/4, -dxi/4 and dxi/2
        assert calls == [4 * psi.n] * 5
        np.testing.assert_allclose(auto.values, dense_autocorrelation(psi, t),
                                   rtol=0.0, atol=1e-11)


class TestContainers:
    """Constructor validation of the grid containers."""

    def test_wavefunction_needs_positive_spacing(self):
        with pytest.raises(ValueError):
            GridWaveFunction(0.0, -0.1, np.ones(8))

    def test_wavefunction_needs_at_least_two_samples(self):
        with pytest.raises(ValueError):
            GridWaveFunction(0.0, 0.1, np.ones(1))

    def test_density_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            DensityGrid(0.0, 0.1, np.array([0.5, -0.2, 0.1]))

    @pytest.mark.parametrize("dx", [float("nan"), math.inf])
    def test_wavefunction_rejects_non_finite_spacing(self, dx):
        with pytest.raises(ValueError):
            GridWaveFunction(0.0, dx, np.ones(4))

    @pytest.mark.parametrize("x0", [float("nan"), math.inf, -math.inf])
    def test_wavefunction_rejects_non_finite_origin(self, x0):
        with pytest.raises(ValueError):
            GridWaveFunction(x0, 0.1, np.ones(4))

    def test_density_rejects_nan_samples(self):
        with pytest.raises(ValueError):
            DensityGrid(0.0, 0.1, np.array([float("nan"), 1.0]))

    def test_characteristic_samples_shape_check(self):
        with pytest.raises(ValueError):
            CharacteristicSamples(np.zeros(3), np.zeros(4, dtype=complex))

    def test_sampled_normalizes(self):
        psi = GridWaveFunction.sampled(lambda x: np.exp(-x * x), -8.0,
                                       16.0 / 256, 256)
        assert psi.is_normalized
