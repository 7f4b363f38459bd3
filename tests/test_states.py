"""Tests for width products, circle eigenstates, split one-quantum
states, and the antisymmetrized two-orbital marginal.

Oracles: the closed-form Hermite width product n + 1/2, the Gaussian
saturation of the lower bound, exact occupation-number bookkeeping on
sparse multimode vectors, the pointwise half-sum formula for the
marginal of an antisymmetrized pair of disjoint orbitals, and the
blocked 2-D trapezoid integral of |Ψ|² for any pair of orbitals.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermofock import states
from thermofock.chain import fock_inner
from thermofock.charfn import GridWaveFunction
from thermofock.errors import NumericalGuardError
from thermofock.fock import hermite_function
from thermofock.states import (
    ModeProfile,
    circle_uncertainty,
    exotic_state,
    number_expectation,
    number_variance,
    occupation_density,
    rms_widths,
    singlet_marginal,
    two_particle_state,
)


def hermite_packet(n, span=30.0, points=1500):
    dx = span / points
    x0 = -span / 2.0
    return GridWaveFunction.sampled(lambda x: hermite_function(n, x),
                                    x0, dx, points)


def windowed_gaussian(center, sigma, window, x):
    """Gaussian hard-truncated to [center - window, center + window]."""
    values = np.exp(-0.5 * ((x - center) / sigma) ** 2)
    values[np.abs(x - center) > window] = 0.0
    return values


class TestWidthProducts:
    """Fourier width products of grid packets."""

    def test_hermite_width_products(self):
        # The n-th Hermite function has position and wavenumber
        # variances both n/2 + 1/4, so the width product is n + 1/2.
        for n in range(7):
            wx, wk = rms_widths(hermite_packet(n))
            np.testing.assert_allclose(wx * wk, n + 0.5, atol=1e-6)

    def test_first_excited_product_is_three_halves(self):
        wx, wk = rms_widths(hermite_packet(1))
        np.testing.assert_allclose(wx * wk, 1.5, atol=1e-6)

    def test_gaussian_saturates_the_bound(self):
        psi = GridWaveFunction.sampled(
            lambda x: np.exp(-0.5 * x ** 2), -15.0, 0.025, 1200)
        wx, wk = rms_widths(psi)
        np.testing.assert_allclose(wx * wk, 0.5, atol=1e-9)

    def test_random_packets_respect_the_lower_bound(self):
        rng = np.random.default_rng(20240610)
        for _ in range(200):
            sigma = rng.uniform(0.5, 3.0)
            center = rng.uniform(-3.0, 3.0)
            boost = rng.uniform(-2.0, 2.0)
            a, b = rng.standard_normal(2) * 0.3

            def packet(x):
                envelope = np.exp(-0.25 * ((x - center) / sigma) ** 2)
                return ((1.0 + a * x + b * x * x)
                        * envelope * np.exp(1j * boost * x))

            psi = GridWaveFunction.sampled(packet, -30.0, 0.05, 1200)
            wx, wk = rms_widths(psi)
            assert wx * wk >= 0.5 - 1e-9

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=7, max_size=7))
    def test_hermite_mixtures_match_the_ladder_moments(self, pairs):
        """Δx·Δk ≥ ½ − 1e−9 for ψ = Σ c_n ψ_n, n ≤ 6, and both widths
        agree with the moments of x = (a + a†)/√2 and k = i(a† − a)/√2.

        ``rms_widths`` trips its guards when more than τ = 1e−8 of the
        mass lies in the outer 2% of the position grid or of the
        wavenumber grid, the cut-off and aliased parts of the packet.
        Moving a mass m within a grid of span S moves a second central
        moment by at most m·S², so with both edges of a grid admitted
        the grid variances agree with the ladder variances to 2τS²:
        S = 40 for x and S = 2π/dx for k."""
        c = np.array([complex(re, im) for re, im in pairs])
        assume(np.linalg.norm(c) > 0.1)
        c /= np.linalg.norm(c)
        dx = 40.0 / 1024
        psi = GridWaveFunction.sampled(
            lambda x: sum(cn * hermite_function(n, x)
                          for n, cn in enumerate(c)), -20.0, dx, 1024)
        wx, wk = rms_widths(psi)
        assert wx * wk >= 0.5 - 1e-9

        lower = np.diag(np.sqrt(np.arange(1.0, 8.0)), k=1)   # a on n <= 7
        cc = np.append(c, 0.0)
        for op, width, span in (
                ((lower + lower.T) / math.sqrt(2.0), wx, 40.0),
                (1j * (lower.T - lower) / math.sqrt(2.0), wk,
                 2.0 * math.pi / dx)):
            moved = op @ cc
            mean = np.vdot(cc, moved).real
            variance = np.vdot(moved, moved).real - mean * mean
            assert abs(width ** 2 - variance) <= 2e-8 * span ** 2

    def test_unnormalized_packet_rejected(self):
        x = -15.0 + 0.025 * np.arange(1200)
        psi = GridWaveFunction(-15.0, 0.025, np.exp(-0.5 * x ** 2))
        with pytest.raises(ValueError):
            rms_widths(psi)

    def test_position_tail_guard(self):
        psi = GridWaveFunction.sampled(
            lambda x: np.exp(-0.5 * x ** 2), -2.0, 0.04, 100)
        with pytest.raises(NumericalGuardError):
            rms_widths(psi)

    def test_spectral_tail_guard(self):
        # A very narrow packet on a coarse grid aliases its spectrum.
        psi = GridWaveFunction.sampled(
            lambda x: np.exp(-0.5 * (x / 0.05) ** 2), -20.0, 0.4, 100)
        with pytest.raises(NumericalGuardError):
            rms_widths(psi)


class TestCircleStates:
    """Momentum eigenstates on the circle."""

    def test_width_triple(self):
        for m in (-3, 0, 5):
            widths = circle_uncertainty(m)
            assert widths.delta_p == 0.0
            np.testing.assert_allclose(widths.delta_phi_rms,
                                       2.0 * math.pi / math.sqrt(12.0),
                                       atol=1e-12)
            np.testing.assert_allclose(widths.delta_phi_support,
                                       2.0 * math.pi, atol=1e-15)

    def test_rms_angle_oracle(self):
        # RMS deviation of the uniform angle density, by quadrature.
        phi = np.linspace(0.0, 2.0 * math.pi, 20001)
        density = np.full_like(phi, 1.0 / (2.0 * math.pi))
        mean = np.trapezoid(phi * density, phi)
        var = np.trapezoid((phi - mean) ** 2 * density, phi)
        np.testing.assert_allclose(math.sqrt(var),
                                   circle_uncertainty(0).delta_phi_rms,
                                   atol=1e-8)

    def test_noninteger_index_rejected(self):
        with pytest.raises(ValueError):
            circle_uncertainty(0.5)


class TestSplitQuantum:
    """One quantum spread over two disjoint regions of a mode set."""

    def make_profiles(self, rng, n_modes=6):
        v1 = np.zeros(n_modes, dtype=complex)
        v2 = np.zeros(n_modes, dtype=complex)
        v1[[0, 1]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v2[[3, 4]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return ModeProfile.from_values(v1), ModeProfile.from_values(v2)

    def test_number_dichotomy_is_exact(self):
        rng = np.random.default_rng(20240611)
        for _ in range(10):
            f1, f2 = self.make_profiles(rng)
            one = exotic_state(f1, f2)
            two = two_particle_state(f1, f2)
            assert number_expectation(one) == 1.0
            assert number_variance(one) == 0.0
            assert number_expectation(two) == 2.0
            assert number_variance(two) == 0.0
            assert fock_inner(one, two) == 0.0

    def test_norms(self):
        rng = np.random.default_rng(20240612)
        f1, f2 = self.make_profiles(rng)
        one = exotic_state(f1, f2)
        two = two_particle_state(f1, f2)
        n1, n2 = (np.sum(np.abs(f.values) ** 2) for f in (f1, f2))
        np.testing.assert_allclose(one.norm_squared(), n1 + n2, atol=1e-12)
        np.testing.assert_allclose(two.norm_squared(), n1 * n2, atol=1e-12)

    def test_occupation_density_has_no_cross_term(self):
        rng = np.random.default_rng(20240613)
        f1, f2 = self.make_profiles(rng)
        one = exotic_state(f1, f2)
        expected = (np.abs(f1.values) ** 2 + np.abs(f2.values) ** 2)
        expected /= np.sum(expected)
        np.testing.assert_allclose(occupation_density(one), expected,
                                   atol=1e-12)

    def test_overlapping_supports_rejected(self):
        v1 = np.array([1.0, 1.0, 0.0, 0.0])
        v2 = np.array([0.0, 1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            exotic_state(ModeProfile.from_values(v1),
                         ModeProfile.from_values(v2))

    def test_mode_count_mismatch_rejected(self):
        f1 = ModeProfile.from_values([1.0, 0.0])
        f2 = ModeProfile.from_values([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            two_particle_state(f1, f2)

    def test_profile_validation(self):
        # the support is the set of nonzero entries, however small
        assert ModeProfile([0.0, 1e-300j, 0.0, 2.0]).support == {1, 3}
        with pytest.raises(ValueError):
            ModeProfile(np.zeros(3))
        with pytest.raises(ValueError):
            ModeProfile(np.zeros((0,)))


def blocked_singlet_marginal(a1, a2, dx, block=256):
    """Named oracle: the trapezoid integral over x2 of |Ψ(x1, x2)|² on
    the full 2-D grid, 256 x1 rows at a time (1001 rows leave a short
    last block)."""
    marginal = np.empty(a1.size)
    for start in range(0, a1.size, block):
        rows = slice(start, start + block)
        psi_sq = 0.5 * np.abs(np.outer(a1[rows], a2)
                              - np.outer(a2[rows], a1)) ** 2
        marginal[rows] = np.trapezoid(psi_sq, dx=dx, axis=1)
    return marginal


class TestSingletMarginal:
    """Antisymmetrized two-orbital position marginal."""

    def make_orbitals(self, points=1601):
        x0, dx = -8.0, 16.0 / (points - 1)
        x = x0 + dx * np.arange(points)
        left = windowed_gaussian(-3.0, 0.5, 2.5, x)
        right = windowed_gaussian(3.0, 0.5, 2.5, x)
        f1 = GridWaveFunction(x0, dx, left).normalized()
        f2 = GridWaveFunction(x0, dx, right).normalized()
        return f1, f2

    def test_total_mass_is_one(self):
        f1, f2 = self.make_orbitals()
        density, mass = singlet_marginal(f1, f2)
        np.testing.assert_allclose(mass, 1.0, atol=1e-12)
        np.testing.assert_allclose(density.total_mass(), 1.0, atol=1e-12)

    def test_marginal_is_the_half_sum_of_orbital_densities(self):
        f1, f2 = self.make_orbitals()
        density, _ = singlet_marginal(f1, f2)
        expected = 0.5 * (np.abs(f1.values) ** 2 + np.abs(f2.values) ** 2)
        np.testing.assert_allclose(density.values, expected, atol=1e-12)

    def test_mass_in_one_home_region_is_exactly_half(self):
        f1, f2 = self.make_orbitals()
        _, mass = singlet_marginal(f1, f2, region=(-8.0, 0.0))
        np.testing.assert_allclose(mass, 0.5, atol=1e-10)
        _, mass2 = singlet_marginal(f1, f2, region=(0.0, 8.0))
        np.testing.assert_allclose(mass2, 0.5, atol=1e-10)

    def test_closed_form_equals_the_blocked_2d_oracle(self):
        # Disjoint orbitals through the public call; overlapping complex
        # ones through the reduction, where the cross term is nonzero.
        f1, f2 = self.make_orbitals(points=1001)
        density, _ = singlet_marginal(f1, f2)
        np.testing.assert_allclose(
            density.values, blocked_singlet_marginal(f1.values, f2.values,
                                                     f1.dx),
            rtol=0.0, atol=1e-14)
        x = f1.x
        a1 = windowed_gaussian(-0.5, 0.7, 3.0, x) * np.exp(1.3j * x)
        a2 = windowed_gaussian(0.8, 0.5, 3.0, x) * np.exp(-0.4j * x)
        a1, a2 = (a / math.sqrt(np.trapezoid(np.abs(a) ** 2, dx=f1.dx))
                  for a in (a1, a2))
        assert abs(np.trapezoid(a2 * a1.conj(), dx=f1.dx)) > 0.1
        np.testing.assert_allclose(
            states._singlet_reduction(a1, a2, f1.dx),
            blocked_singlet_marginal(a1, a2, f1.dx), rtol=0.0, atol=1e-14)

    def test_overlapping_orbitals_rejected(self):
        points = 1601
        x0, dx = -8.0, 16.0 / (points - 1)
        x = x0 + dx * np.arange(points)
        f1 = GridWaveFunction(x0, dx,
                              windowed_gaussian(-1.0, 0.5, 2.5, x)).normalized()
        f2 = GridWaveFunction(x0, dx,
                              windowed_gaussian(1.0, 0.5, 2.5, x)).normalized()
        with pytest.raises(ValueError):
            singlet_marginal(f1, f2)

    def test_grid_mismatch_rejected(self):
        f1, f2 = self.make_orbitals()
        shifted = GridWaveFunction(f2.x0 + 0.5, f2.dx, f2.values)
        with pytest.raises(ValueError):
            singlet_marginal(f1, shifted)

    def test_unnormalized_orbital_rejected(self):
        f1, f2 = self.make_orbitals()
        doubled = GridWaveFunction(f2.x0, f2.dx, 2.0 * f2.values)
        with pytest.raises(ValueError):
            singlet_marginal(f1, doubled)

    def test_empty_region_rejected(self):
        f1, f2 = self.make_orbitals()
        with pytest.raises(ValueError):
            singlet_marginal(f1, f2, region=(1.0, 1.0))
