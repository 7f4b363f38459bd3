"""Tests for the sphere-to-phase-plane dictionary and thermal measures.

Closed forms used as oracles: the cap-area fraction sin^2(theta/2),
the exponential-law disk mass 1 - e^{-beta r^2 / 2} of the phase plane
r = |q + ip| (so the median radius is sqrt(2 ln 2 / beta)), the
quadrature mass ``region_probability`` of the exact map's image disk,
the Gibbs mean energy
1/beta, the Planck density over its Wien and Rayleigh-Jeans limits, and
the two endmember ratios of the blackbody density evaluated with
mpmath-free stdlib arithmetic and frozen below.  ``scipy.stats.kstest``
is the oracle for the sorted-ECDF Kolmogorov–Smirnov statistic, and
``scipy.integrate.dblquad`` (adaptive, with exact region boundaries)
and an erf/Simpson disk integral are the oracles for the Gauss–Legendre
region probabilities.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from thermofock import sphere as sphere_mod
from thermofock.errors import NumericalGuardError
from thermofock.sphere import (
    FULL_PLANE,
    Disk,
    PlanckConstants,
    Rectangle,
    SphereGeometry,
    SpherePoint,
    ThermalOscillator,
    cap_area_fraction,
    classical_limit_table,
    gibbs_median_radius,
    gibbs_normalization_check,
    limit_ratios,
    mean_energy,
    pushforward_ks_statistic,
    pushforward_radii,
    region_probability,
    thermal_map_exact,
    thermal_map_paper,
    uniform_sphere_samples,
)

# 1/(1 - e^{-10}) and 0.01/(e^{0.01} - 1), frozen from an independent
# high-precision evaluation.
WIEN_RATIO_AT_10 = 1.0000454019910097
RAYLEIGH_RATIO_AT_001 = 0.99500833331944438

# Gibbs mass of Disk(200, 200, 0) at beta=1, omega=0.5, mass=0.3, frozen
# from a 30-digit evaluation of the erf/angle integral that
# erf_simpson_disk_probability approximates; it lies 8.2e-5 below 1/2
# because the disk's edge curves away from the half plane q > 0.
OFFSET_DISK_MASS = 0.4999180584154

# 10^e for e uniform over the double range; 10.0 ** -324 is 0.
LOG_FLOATS = st.floats(-324.0, 308.25).map(lambda e: 10.0 ** e)

OSCILLATORS = st.builds(ThermalOscillator, beta=st.floats(0.1, 10.0),
                        omega=st.floats(0.5, 2.0), mass=st.floats(0.3, 3.0))


def gibbs_widths(osc):
    """Standard deviations (sigma_q, sigma_p) of the Gibbs density."""
    return (1.0 / (osc.omega * math.sqrt(osc.beta * osc.mass)),
            math.sqrt(osc.mass / osc.beta))


@st.composite
def oscillator_and_disk(draw, radius, centre):
    """A disk of radius <= radius * max width, centred within centre
    widths of the origin on each axis."""
    osc = draw(OSCILLATORS)
    sigma_q, sigma_p = gibbs_widths(osc)
    return osc, Disk(draw(st.floats(0.01, radius)) * max(sigma_q, sigma_p),
                     draw(st.floats(-centre, centre)) * sigma_q,
                     draw(st.floats(-centre, centre)) * sigma_p)


@st.composite
def oscillator_and_rectangle(draw):
    """A rectangle whose edges lie within 4 widths, or at infinity."""
    osc = draw(OSCILLATORS)
    edge = st.one_of(st.floats(-4.0, 4.0),
                     st.sampled_from([-math.inf, math.inf]))
    edges = []
    for sigma in gibbs_widths(osc):
        edges += sorted(draw(edge) * sigma for _ in range(2))
    return osc, Rectangle(*edges)


def dblquad_probability(region, osc):
    """The adaptive oracle: scipy dblquad with exact region boundaries."""
    def integrand(p, q):
        energy = (p * p / (2.0 * osc.mass)
                  + 0.5 * osc.mass * osc.omega ** 2 * q * q)
        return math.exp(-osc.beta * energy) / osc.h

    if isinstance(region, Rectangle):
        val, _ = integrate.dblquad(integrand, region.qmin, region.qmax,
                                   region.pmin, region.pmax,
                                   epsabs=1e-12, epsrel=1e-12)
        return val
    r, q0, p0 = region.radius, region.q0, region.p0

    def half_chord(q):
        return math.sqrt(max(r * r - (q - q0) ** 2, 0.0))

    val, _ = integrate.dblquad(integrand, q0 - r, q0 + r,
                               lambda q: p0 - half_chord(q),
                               lambda q: p0 + half_chord(q),
                               epsabs=1e-12, epsrel=1e-12)
    return val


def erf_simpson_disk_probability(disk, osc, panels=40000):
    """Disk mass with the inner Gaussian integral in closed form (erf)
    along p and a composite Simpson rule over the full angle range θ,
    q = q0 + r sin θ; no clipping and no Gauss nodes."""
    sigma_q, sigma_p = gibbs_widths(osc)
    r = disk.radius
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
    chord = r * np.cos(theta)
    q = disk.q0 + r * np.sin(theta)
    scale = math.sqrt(2.0) * sigma_p
    inner = [math.erf((disk.p0 + c) / scale) - math.erf((disk.p0 - c) / scale)
             for c in chord]
    f = chord * np.exp(-0.5 * (q / sigma_q) ** 2) * np.array(inner)
    simpson = (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
               + 2.0 * f[2:-1:2].sum()) * (theta[1] - theta[0]) / 3.0
    return simpson * sigma_p * math.sqrt(0.5 * math.pi) / osc.h


def log_paper_modulus(theta, radius, beta):
    """log of |z| = R sqrt(3 ln 2) sin(theta/2) / sqrt(beta), theta > 0."""
    log_half_sine = (math.log(theta) - math.log(2.0) if theta < 1e-8
                     else math.log(math.sin(theta / 2.0)))
    return (math.log(radius) + 0.5 * math.log(3.0 * math.log(2.0))
            + log_half_sine - 0.5 * math.log(beta))


class TestGeometry:
    """The two thermal maps and area bookkeeping."""

    def test_radius_whose_area_overflows_is_refused(self):
        assert SphereGeometry(3.7e153).area < math.inf
        for radius in (1e154, 3.6e167):
            with pytest.raises(ValueError, match="beyond the double range"):
                SphereGeometry(radius)

    def test_sphere_area(self):
        np.testing.assert_allclose(SphereGeometry(2.0).area,
                                   16.0 * math.pi, atol=1e-12)
        np.testing.assert_allclose(SphereGeometry(2.0).area,
                                   50.26548245743669, atol=1e-12)

    def test_cap_area_fraction(self):
        np.testing.assert_allclose(cap_area_fraction(math.pi), 1.0,
                                   atol=1e-15)
        np.testing.assert_allclose(cap_area_fraction(math.pi / 2), 0.5,
                                   atol=1e-15)

    def test_equator_values_of_the_two_thermal_maps(self):
        # Exact map: |q + ip|^2 = 2 ln 2 / beta at the equator, the
        # median radius of the Gibbs plane.  The quoted variant with the
        # 3 R^2 sin^2 factor is kept verbatim for comparison and differs
        # there.
        point = SpherePoint(math.pi / 2, 0.0)
        for beta in (0.5, 1.0, 2.0):
            z = thermal_map_exact(point, beta)
            np.testing.assert_allclose(abs(z) ** 2,
                                       2.0 * math.log(2.0) / beta,
                                       atol=1e-12)
        z_quoted = thermal_map_paper(point, radius=1.0, beta=1.0)
        np.testing.assert_allclose(abs(z_quoted) ** 2,
                                   1.5 * math.log(2.0), atol=1e-12)

    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 6.28),
           radius=LOG_FLOATS, beta=LOG_FLOATS)
    # an infinite radius and beta = 1e-320: the parent returned inf+nanj
    @example(theta=1.0, phi=0.0, radius=math.inf, beta=1.0)
    @example(theta=1.0, phi=0.0, radius=1.0, beta=1e-320)
    # R^2 overflows: the parent raised OverflowError
    @example(theta=1.0, phi=0.0, radius=1e200, beta=1.0)
    # theta/2 of the least subnormal rounds to 0: the parent returned 0
    @example(theta=5e-324, phi=0.0, radius=1e150, beta=1.0)
    def test_paper_map_is_its_closed_form_or_refused(self, theta, phi,
                                                     radius, beta):
        # log |z| = log R + log sqrt(3 ln 2) + log sin(theta/2)
        # - log sqrt(beta), with sin x = x below 1e-8: the modulus
        # wherever it is finite, and beyond the double range a refusal.
        try:
            z = thermal_map_paper(SpherePoint(theta, phi), radius, beta)
        except ValueError:
            assert not (0 < radius < math.inf and 0 < beta < math.inf) or (
                log_paper_modulus(theta, radius, beta)
                > math.log(sys.float_info.max) - 1e-12)
            return
        if theta == 0.0:
            assert z == 0.0
            return
        expected = math.exp(log_paper_modulus(theta, radius, beta))
        assert math.isclose(abs(z), expected, rel_tol=1e-12, abs_tol=1e-300)
        if abs(z) > 1e-300:
            assert math.isclose(math.atan2(z.imag, z.real) % (2 * math.pi),
                                phi, rel_tol=1e-12, abs_tol=1e-12)

    def test_exact_map_rejects_the_south_pole(self):
        with pytest.raises(ValueError, match="singular pole"):
            thermal_map_exact(SpherePoint(math.pi, 0.0), 1.0)

    @pytest.mark.parametrize("gap", [1e-3, 1e-8, 3e-8, 4.4e-16])
    def test_exact_map_is_finite_next_to_the_south_pole(self, gap):
        # r^2 = -4 ln cos(theta/2) = -4 ln sin(delta/2) with
        # delta = pi - theta; math.sin(math.pi) is the part of pi that
        # the double math.pi drops, so delta is exact to rounding.
        theta = math.pi - gap
        delta = (math.pi - theta) + math.sin(math.pi)
        expected = math.sqrt(-4.0 * math.log(math.sin(delta / 2.0)))
        radius = abs(thermal_map_exact(SpherePoint(theta), 1.0))
        assert abs(radius - expected) <= 4 * math.ulp(expected)

    def test_exact_map_keeps_small_angles_accurate(self):
        # r^2 = -2 log1p(-sin^2(theta/2)) = theta^2/2 to first order
        theta = 1e-9
        radius = abs(thermal_map_exact(SpherePoint(theta), 1.0))
        expected = theta / math.sqrt(2.0)
        assert abs(radius - expected) <= 4 * math.ulp(expected)


class TestPushforward:
    """Area measure on the sphere maps to the Gibbs law on the plane."""

    def test_cap_mass_equals_disk_mass(self):
        # The cap below colatitude theta and its image disk carry the
        # same mass: sin^2(theta/2) = 1 - e^{-beta r(theta)^2 / 2}.
        beta = 0.8
        for theta in np.linspace(0.05, 3.0, 40):
            z = thermal_map_exact(SpherePoint(theta, 0.0), beta)
            disk_mass = -math.expm1(-beta * abs(z) ** 2 / 2.0)
            assert abs(disk_mass - cap_area_fraction(theta)) < 1e-10

    @settings(max_examples=60)
    @given(theta=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           beta=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
    def test_cap_fraction_is_the_gibbs_mass_of_the_image_disk(
            self, theta, beta):
        # The map's plane is the one region_probability weighs: the
        # image disk's quadrature mass is the cap's area fraction,
        # within the quadrature's 1e-7 self-estimate bound.
        cap = cap_area_fraction(theta)
        radius = abs(thermal_map_exact(SpherePoint(theta), beta))
        # below theta ~ 3e-162 the radius underflows to the empty disk
        mass = (region_probability(Disk(radius), ThermalOscillator(beta))
                if radius > 0.0 else 0.0)
        assert abs(mass - cap) <= 1e-7

    def test_ks_statistic_of_the_sampled_pushforward(self):
        assert pushforward_ks_statistic(1.0, 100000, seed=7) < 0.01

    @pytest.mark.parametrize("beta", [0.25, 1.0, 3.5])
    @pytest.mark.parametrize("n,seed", [(1, 0), (17, 4), (1000, 7),
                                        (20000, 12345)])
    def test_ks_statistic_matches_the_scipy_oracle(self, beta, n, seed):
        # The statistic is taken on the unit radius sqrt(beta) r, whose law
        # is 1 - e^{-r^2/2}; it agrees with the oracle there bit for bit,
        # and with the oracle in the plane of beta to rounding.
        theta, _ = uniform_sphere_samples(n, seed)
        unit = stats.kstest(pushforward_radii(theta, 1.0),
                            lambda r: -np.expm1(-r * r / 2.0))
        plane = stats.kstest(pushforward_radii(theta, beta),
                             lambda r: -np.expm1(-beta * r * r / 2.0))
        statistic = pushforward_ks_statistic(beta, n, seed)
        assert statistic == unit.statistic
        assert abs(statistic - plane.statistic) <= 1e-15

    def test_uniform_samples_are_on_the_sphere(self):
        theta, phi = uniform_sphere_samples(10000, seed=3)
        assert np.all((theta >= 0.0) & (theta <= math.pi))
        assert np.all((phi >= 0.0) & (phi < 2.0 * math.pi))
        # for the area measure cos(theta) is uniform on [-1, 1]:
        # mean 0 with standard error 1/sqrt(3 n)
        assert abs(np.mean(np.cos(theta))) < 3.0 / math.sqrt(3.0 * 10000)


class TestGibbsMeasure:
    """Normalization, mean energy, and region probabilities."""

    def test_normalization_with_the_consistent_scale(self):
        osc = ThermalOscillator(beta=1.0 / 3.0, omega=3.0)
        assert osc.beta * osc.omega * osc.hbar == 1.0
        np.testing.assert_allclose(gibbs_normalization_check(osc), 1.0,
                                   atol=1e-8)

    def test_normalization_exposes_an_inconsistent_scale(self):
        osc = ThermalOscillator(beta=1.0, omega=1.0, hbar=2.0)
        assert osc.beta * osc.omega * osc.hbar == 2.0
        np.testing.assert_allclose(gibbs_normalization_check(osc), 0.5,
                                   atol=1e-8)

    def test_clip_tail_is_refused_under_its_own_name(self):
        # The Gibbs mass 2 pi/(beta omega h) is 1e300, so its share
        # beyond the ±12-width clip, 7.1e-33 of it, is far above 1e-7,
        # although the 48- and 64-node rules agree on the rectangle.
        osc = ThermalOscillator(beta=1e-300, mass=1e-20, hbar=1.0)
        with pytest.raises(NumericalGuardError,
                           match=r"^region clip tail is 7\.1.*beyond the "
                                 "±12-width clip"):
            region_probability(Rectangle(-1.0, 1.0, -1.0, 1.0), osc)

    @settings(max_examples=100)
    @given(logs=st.tuples(*[st.floats(-12.0, 12.0)] * 4))
    def test_normalization_is_within_1e9_or_refused(self, logs):
        # The self-estimate of region_probability alone bounds the gap
        # to the analytic mass 2 pi / (beta omega h), with hbar
        # overridden, over 1e-12..1e12 in each parameter.
        beta, omega, mass, hbar = (10.0 ** x for x in logs)
        osc = ThermalOscillator(beta, omega, mass, hbar)
        try:
            value = gibbs_normalization_check(osc)
        except NumericalGuardError:
            return
        assert abs(value - 2.0 * math.pi / (beta * omega * osc.h)) <= 1e-9

    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200)
    @given(logs=st.tuples(*[st.floats(-320.0, 308.0)] * 3),
           hbar_log=st.none() | st.floats(-320.0, 308.0),
           region=st.sampled_from([FULL_PLANE, Disk(1.0),
                                   Rectangle(-1.0, 1.0, -1.0, 1.0)]))
    @example(logs=(-300.0, -300.0, 0.0), hbar_log=-300.0, region=FULL_PLANE)
    @example(logs=(-200.0, -200.0, 0.0), hbar_log=None, region=FULL_PLANE)
    @example(logs=(300.0, 0.0, -300.0), hbar_log=None, region=FULL_PLANE)
    def test_a_number_or_a_refusal_over_the_double_range(self, logs,
                                                          hbar_log, region):
        # beta, omega, mass and hbar log-uniform over the whole double
        # range, subnormals included: region_probability returns a
        # finite mass or raises ValueError, never another exception
        # (ZeroDivisionError) and never a numpy warning.
        beta, omega, mass = (10.0 ** x for x in logs)
        hbar = None if hbar_log is None else 10.0 ** hbar_log
        try:
            value = region_probability(
                region, ThermalOscillator(beta, omega, mass, hbar))
        except ValueError:
            return
        assert math.isfinite(value) and value >= 0.0

    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(beta=LOG_FLOATS, omega=LOG_FLOATS, mass=LOG_FLOATS)
    # β m or m/β subnormal: the parent read 1.0059877069510121,
    # 1.000005566455138 and 0.9940479323041651
    @example(beta=1e-300, omega=1.0, mass=1e-23)
    @example(beta=1e-300, omega=1.0, mass=1e-20)
    @example(beta=1e8, omega=1.0, mass=1e-314)
    # m/β underflows to 0, but the momentum width 1e-300 is normal: the
    # parent refused it
    @example(beta=1e300, omega=1.0, mass=1e-300)
    def test_full_plane_mass_is_one_over_beta_omega_hbar_or_refused(
            self, beta, omega, mass):
        # beta, omega and mass log-uniform over the whole double range,
        # subnormals included, hbar = 1/(beta omega): the full-plane mass
        # is the analytic 1/(beta omega hbar) within the 1e-7
        # self-estimate, or the oscillator is refused.
        try:
            osc = ThermalOscillator(beta, omega, mass)
            value = gibbs_normalization_check(osc)
        except ValueError:
            return
        assert abs(value - 1.0 / (osc.beta * osc.omega * osc.hbar)) <= 1e-7

    def test_consistency_triangle(self):
        # beta, omega, hbar with hbar = 1/(beta omega): the three
        # quantities close the identity 1/beta = hbar omega exactly.
        for beta in (0.25, 1.0, 7.0):
            for omega in (0.5, 1.0, 4.0):
                osc = ThermalOscillator(beta=beta, omega=omega)
                assert abs(1.0 / beta - osc.hbar * osc.omega) < 1e-14

    def test_mean_energy_monte_carlo_brackets_the_analytic_value(self):
        osc = ThermalOscillator(beta=1.0)
        value, stderr = mean_energy(osc, n=200000, seed=11)
        assert stderr > 0.0
        assert abs(value - 1.0) < 3.0 * stderr

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_mean_energy_is_the_sorted_fsum_estimate(self, seed):
        # fsum is correctly rounded in any order, so the unsorted sums
        # equal the sorted ones, kept here as the oracle.
        osc = ThermalOscillator(beta=0.7)
        n = 20000
        q, p = np.random.default_rng(seed).standard_normal((2, n))
        energies = np.sort(0.5 * (q * q + p * p))
        mean = math.fsum(energies) / n
        var = math.fsum((energies - mean) ** 2) / (n - 1)
        assert mean_energy(osc, n, seed) == (
            mean / osc.beta, math.sqrt(var / n) / osc.beta)

    def test_monte_carlo_sample_floor(self):
        osc = ThermalOscillator(beta=1.0)
        for n in (10, 999):
            with pytest.raises(ValueError,
                               match=f"needs n >= 1000 samples, got {n}"):
                mean_energy(osc, n=n, seed=0)
        value, stderr = mean_energy(osc, n=1000, seed=0)
        assert stderr > 0.0 and abs(value - 1.0) < 6.0 * stderr

    def test_full_plane_probability_is_one(self):
        osc = ThermalOscillator(beta=1.3)
        np.testing.assert_allclose(region_probability(FULL_PLANE, osc),
                                   1.0, atol=1e-8)

    def test_median_disk_carries_half_the_mass(self):
        osc = ThermalOscillator(beta=0.7)
        disk = Disk(gibbs_median_radius(osc))
        np.testing.assert_allclose(region_probability(disk, osc), 0.5,
                                   atol=1e-6)

    def test_median_radius_closed_form(self):
        osc = ThermalOscillator(beta=0.7)
        np.testing.assert_allclose(gibbs_median_radius(osc),
                                   math.sqrt(2.0 * math.log(2.0) / 0.7),
                                   atol=1e-12)

    def test_median_radius_requires_canonical_coordinates(self):
        with pytest.raises(ValueError):
            gibbs_median_radius(ThermalOscillator(beta=1.0, omega=2.0))

    def test_region_probabilities_are_monotone_under_nesting(self):
        osc = ThermalOscillator(beta=1.0)
        radii = [0.5, 1.0, 2.0, 4.0]
        probs = [region_probability(Disk(r), osc) for r in radii]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 1.0

    def test_rectangle_probability(self):
        osc = ThermalOscillator(beta=1.0)
        half = Rectangle(0.0, math.inf, -math.inf, math.inf)
        np.testing.assert_allclose(region_probability(half, osc), 0.5,
                                   atol=1e-8)

    @settings(max_examples=40)
    @given(case=st.one_of(oscillator_and_rectangle(),
                          oscillator_and_disk(radius=10.0, centre=5.0)))
    def test_region_probability_matches_dblquad(self, case):
        osc, region = case
        assert abs(region_probability(region, osc)
                   - dblquad_probability(region, osc)) <= 1e-10

    def test_offset_disk_is_not_missed(self):
        # dblquad's own error estimate passed a value 8e-5 too high here.
        osc = ThermalOscillator(beta=1.0, omega=0.5, mass=0.3)
        assert abs(region_probability(Disk(200.0, 200.0, 0.0), osc)
                   - OFFSET_DISK_MASS) <= 1e-7

    @settings(max_examples=40)
    @given(case=oscillator_and_disk(radius=50.0, centre=50.0))
    # An edge crossing the Gibbs bulk steeply in the angle: one unpaneled
    # outer rule had 48 and 64 nodes agree on a value 1.3e-7 off here.
    @example(case=(ThermalOscillator(beta=1.0, omega=0.5, mass=0.3),
                   Disk(60.0, 40.0, 20.0)))
    # Beyond the rules' resolution: the 64-node value misses the mass
    # 0.501 by 1e-5, so the guard must refuse it (dblquad gave 2e-14).
    @example(case=(ThermalOscillator(beta=1.0, omega=0.5, mass=0.3),
                   Disk(1000.0, 990.0, 141.0)))
    def test_wide_disks_are_accurate_or_refused(self, case):
        osc, disk = case
        try:
            value = region_probability(disk, osc)
        except NumericalGuardError:
            return
        assert abs(value - erf_simpson_disk_probability(disk, osc)) <= 1e-7

    def test_cached_legendre_rules_are_read_only(self):
        for rule in sphere_mod._legendre_rules(64):
            with pytest.raises(ValueError):
                rule[0] = 0.0

    def test_region_probabilities_build_two_legendre_rules(self):
        sphere_mod._legendre_rules.cache_clear()
        osc = ThermalOscillator(beta=1.0)
        for r in (0.5, 1.0, 2.0):
            region_probability(Disk(r), osc)
            region_probability(Rectangle(-r, r, 0.0, math.inf), osc)
        info = sphere_mod._legendre_rules.cache_info()
        assert (info.misses, info.hits) == (2, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalOscillator(beta=0.0)
        with pytest.raises(ValueError):
            ThermalOscillator(beta=1.0, omega=-1.0)
        with pytest.raises(ValueError):
            Disk(-1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0, 0.0, 1.0)


class TestBlackbody:
    """Planck density and its two classical endmembers."""

    def test_frozen_endmember_ratios(self):
        wien, rayleigh = limit_ratios(10.0, 1.0, PlanckConstants())
        np.testing.assert_allclose(wien, WIEN_RATIO_AT_10, rtol=1e-12)
        wien2, rayleigh2 = limit_ratios(0.01, 1.0, PlanckConstants())
        np.testing.assert_allclose(rayleigh2, RAYLEIGH_RATIO_AT_001,
                                   rtol=1e-12)

    def test_ratios_are_monotone_in_frequency(self):
        consts = PlanckConstants()
        x = np.geomspace(0.01, 20.0, 30)
        wien = np.array([limit_ratios(v, 1.0, consts)[0] for v in x])
        rayleigh = np.array([limit_ratios(v, 1.0, consts)[1] for v in x])
        # Planck/Wien falls toward 1 as x grows; Planck/Rayleigh-Jeans
        # falls toward 0.
        assert np.all(np.diff(wien) < 0.0)
        assert np.all(wien > 1.0)
        assert np.all(np.diff(rayleigh) < 0.0)
        assert np.all(rayleigh < 1.0)

    def test_density_formula(self):
        # u = 8 pi h nu^3 / c^3 / (e^x - 1) against its two limits, the
        # Wien law 8 pi h nu^3 e^{-x} / c^3 and the Rayleigh-Jeans law
        # 8 pi nu^2 kT / c^3
        consts, c = PlanckConstants(h=2.0, k=1.5), 3.0
        nu, temp = 1.2, 0.9
        x = consts.h * nu / (consts.k * temp)
        cubic = 8.0 * math.pi * consts.h * nu ** 3 / c ** 3
        u = cubic / math.expm1(x)
        wien = cubic * math.exp(-x)
        rj = 8.0 * math.pi * nu ** 2 * consts.k * temp / c ** 3
        np.testing.assert_allclose(limit_ratios(nu, temp, consts),
                                   (u / wien, u / rj), rtol=1e-14)

    def test_density_positivity(self):
        for nu in np.geomspace(1e-3, 1e3, 20):
            assert min(limit_ratios(nu, 2.0)) > 0.0

    def test_density_is_zero_where_the_exponential_overflows(self):
        # u/RJ = x/(e^x - 1) is 0 once e^x leaves the double range.
        assert limit_ratios(1e103, 1.0) == (1.0, 0.0)
        assert limit_ratios(1e3, 1.0) == (1.0, 0.0)

    @pytest.mark.parametrize("nu, temperature", [
        (1e-300, 1e300),   # x underflows to 0
        (1e-320, 1.0),     # subnormal x: u/Wien ~ 1/x overflows
        (1e-309, 1.0),
    ])
    def test_wien_ratio_beyond_the_double_range_is_refused(self, nu,
                                                            temperature):
        with pytest.raises(ValueError, match="u/Wien"):
            limit_ratios(nu, temperature)

    def test_smallest_x_with_a_finite_wien_ratio(self):
        wien, rayleigh = limit_ratios(1e-300, 1.0)
        np.testing.assert_allclose(wien, 1e300, rtol=1e-15)
        assert rayleigh == 1.0

    @pytest.mark.parametrize("h, k", [(1.0, 0.0), (0.0, 1.0), (-1.0, 1.0),
                                      (1.0, math.inf), (math.nan, 1.0)])
    def test_constants_must_be_positive_and_finite(self, h, k):
        with pytest.raises(ValueError, match="h and k must be positive"):
            PlanckConstants(h=h, k=k)

    @settings(max_examples=300)
    @given(nu=LOG_FLOATS, temperature=LOG_FLOATS, h=LOG_FLOATS, k=LOG_FLOATS)
    # x = hv/kT overflows; the parent returned (1.0, nan)
    @example(nu=1.0, temperature=1.0, h=1e300, k=1e-300)
    # k = 0; the parent raised ZeroDivisionError
    @example(nu=1.0, temperature=1.0, h=1.0, k=0.0)
    # hv and kT underflow to 0, x = 1
    @example(nu=1e-200, temperature=1e-200, h=1e-200, k=1e-200)
    # hv and kT overflow, x = 1
    @example(nu=1e200, temperature=1e200, h=1e200, k=1e200)
    def test_a_number_or_a_refusal_over_the_double_range(self, nu,
                                                          temperature, h, k):
        # nu, T, h and k log-uniform over the whole double range, 0 and
        # subnormals included: limit_ratios returns the two ratios at the
        # exact x = hv/kT, or refuses an input whose x or u/Wien ~ 1/x
        # leaves the double range.
        top = Fraction(h) * Fraction(nu)
        bottom = Fraction(k) * Fraction(temperature)
        try:
            wien, rayleigh = limit_ratios(nu, temperature,
                                          PlanckConstants(h=h, k=k))
        except ValueError:
            # x is 0 or undefined, above the largest double, or below its
            # reciprocal, within a relative 1e-12
            big = Fraction(sys.float_info.max)
            slack = 1 - Fraction(1, 10 ** 12)
            assert (top == 0 or bottom == 0 or top > big * bottom * slack
                    or top * big * slack < bottom)
            return
        x = float(top / bottom)
        assert wien == pytest.approx(1.0 / -math.expm1(-x), rel=1e-14)
        rj = 0.0 if x > 709.0 else x / math.expm1(x)
        assert math.isclose(rayleigh, rj, rel_tol=1e-12, abs_tol=1e-300)

    @pytest.mark.parametrize("beta", [2.6e-299, 1e300])
    def test_extreme_beta_mean_energy_is_the_unit_estimate_over_beta(
            self, beta):
        # The moments are taken on beta E, so the estimate, its stderr and
        # their ratio do not depend on beta, however near the double range
        # 1/beta lies.
        unit_mean, unit_stderr = mean_energy(ThermalOscillator(1.0), 20000, 7)
        value, stderr = mean_energy(ThermalOscillator(beta=beta), 20000, 7)
        assert value == unit_mean / beta and stderr == unit_stderr / beta
        assert stderr > 0.0
        assert (abs(value - 1.0 / beta) / stderr
                == pytest.approx(abs(unit_mean - 1.0) / unit_stderr,
                                 rel=1e-12))

    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(hbar=LOG_FLOATS, omega=LOG_FLOATS)
    # T = hbar omega overflows: the parent returned T = inf
    @example(hbar=1e300, omega=1e10)
    # hbar/2 subnormal loses the last bit of 3 * 2**-1074
    @example(hbar=1.5e-323, omega=1.0)
    def test_classical_scales_are_their_closed_forms_or_refused(self, hbar,
                                                                omega):
        # T = hbar omega, correctly rounded, and R = sqrt(hbar/2) within
        # a relative 1e-15, computed in Fraction; a T beyond the double
        # range is refused.
        exact_t = Fraction(hbar) * Fraction(omega)
        try:
            ((h, t, r),) = classical_limit_table([hbar], omega)
        except ValueError:
            assert omega == 0.0 or exact_t >= Fraction(sys.float_info.max)
            return
        assert (h, t) == (hbar, float(exact_t))
        if hbar == 0.0:
            assert r == 0.0
        else:
            assert abs(2 * Fraction(r) ** 2 / Fraction(hbar) - 1) <= 1e-15

    def test_classical_limit_table(self):
        rows = classical_limit_table([1.0, 0.5, 0.25], omega=2.0)
        assert len(rows) == 3
        hbars, gaps, widths = zip(*rows)
        np.testing.assert_allclose(gaps, [2.0, 1.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(
            widths, [math.sqrt(0.5), 0.5, math.sqrt(0.125)], atol=1e-15)
        assert all(a > b for a, b in zip(hbars, hbars[1:]))
