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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

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
        return math.exp(-osc.beta * float(osc.energy(q, p))) / osc.h

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

    def test_exact_map_rejects_the_south_pole(self):
        with pytest.raises(ValueError):
            thermal_map_exact(SpherePoint(math.pi, 0.0), 1.0)


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
        try:
            radius = abs(thermal_map_exact(SpherePoint(theta), beta))
        except ValueError:
            # sin^2(theta/2) rounds to 1 within about 2e-8 of the pole
            assert cap == 1.0
            return
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
        assert osc.is_consistent
        np.testing.assert_allclose(gibbs_normalization_check(osc), 1.0,
                                   atol=1e-8)

    def test_normalization_exposes_an_inconsistent_scale(self):
        osc = ThermalOscillator(beta=1.0, omega=1.0, hbar=2.0)
        assert not osc.is_consistent
        np.testing.assert_allclose(gibbs_normalization_check(osc), 0.5,
                                   atol=1e-8)

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

    def test_monte_carlo_sample_floor(self):
        with pytest.raises(ValueError):
            mean_energy(ThermalOscillator(beta=1.0), n=10, seed=0)

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

    def test_energy_evaluation(self):
        osc = ThermalOscillator(beta=1.0, omega=2.0, hbar=1.0, mass=3.0)
        np.testing.assert_allclose(osc.energy(1.0, 2.0),
                                   0.5 * (4.0 / 3.0 + 3.0 * 4.0 * 1.0),
                                   atol=1e-12)

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
        consts = PlanckConstants(h=2.0, c=3.0, k=1.5)
        nu, temp = 1.2, 0.9
        x = consts.h * nu / (consts.k * temp)
        cubic = 8.0 * math.pi * consts.h * nu ** 3 / consts.c ** 3
        u = cubic / math.expm1(x)
        wien = cubic * math.exp(-x)
        rj = 8.0 * math.pi * nu ** 2 * consts.k * temp / consts.c ** 3
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

    def test_classical_limit_table(self):
        rows = classical_limit_table([1.0, 0.5, 0.25], omega=2.0)
        assert len(rows) == 3
        hbars, gaps, widths = zip(*rows)
        np.testing.assert_allclose(gaps, [2.0, 1.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(
            widths, [math.sqrt(0.5), 0.5, math.sqrt(0.125)], atol=1e-15)
        assert all(a > b for a, b in zip(hbars, hbars[1:]))
