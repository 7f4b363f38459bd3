"""Tests for the exterior-algebra probability extraction layer.

Every expected value is pinned against an independent oracle computed in
the test itself: direct products for the bilinear pairing, a hand-coded
symbolic expansion for the graded product, closed-form plane-wave
substitution for the current density, and Grassmann arithmetic for the
fermionic pairing.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermofock.exterior import (
    _AXIOM_TOL,
    AmplitudeEventSpace,
    ExteriorElement,
    GrassmannElement,
    bilinear_density,
    boson_density,
    check_axioms,
    complex_pair_density,
    fermion_density,
)


# 10^e for e uniform over the double range; 10.0 ** -324 is 0.
LOG_WEIGHTS = st.floats(-324.0, 308.25).map(lambda e: 10.0 ** e)


def wedge_oracle(a, b):
    """Symbolic expansion of the graded product on the basis
    (1, e1, e2, e1^e2): grade-1 factors anticommute, e_i^e_i = 0."""
    a0, a1, a2, a12 = a
    b0, b1, b2, b12 = b
    return (
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a2 * b0,
        a0 * b12 + a12 * b0 + a1 * b2 - a2 * b1,
    )


class TestGradedProduct:
    """The 4-coefficient algebra against the symbolic expansion."""

    def test_random_pairs_match_symbolic_expansion(self):
        rng = np.random.default_rng(20240311)
        for _ in range(200):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            product = ExteriorElement(*a).wedge(ExteriorElement(*b))
            expected = wedge_oracle(a, b)
            np.testing.assert_allclose(
                product.coefficients(), expected, atol=1e-12)

    def test_vector_wedge_is_antisymmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c, d = rng.standard_normal(4)
            v = ExteriorElement.vector(a, b)
            w = ExteriorElement.vector(c, d)
            left = v.wedge(w)
            right = w.wedge(v)
            np.testing.assert_allclose(
                left.coefficients(),
                [-x for x in right.coefficients()], atol=1e-14)
            assert v.wedge(v).coefficients() == (0, 0, 0, 0)

    def test_grassmann_generators_are_nilpotent(self):
        theta = GrassmannElement.theta()
        theta_bar = GrassmannElement.theta_bar()
        assert theta.wedge(theta).coefficients() == (0, 0, 0, 0)
        assert theta_bar.wedge(theta_bar).coefficients() == (0, 0, 0, 0)

    def test_theta_pair_top_coefficient(self):
        top = GrassmannElement.theta().wedge(GrassmannElement.theta_bar())
        assert top.c12 == -2j


class TestBilinearDensity:
    """Probability of factorized configurations as a bivector coefficient."""

    def test_matches_direct_product_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            w1, w2 = rng.uniform(0.0, 5.0, size=2)
            assert abs(bilinear_density(w1, w2) - w1 * w2) < 1e-14

    @settings(max_examples=300)
    @given(w1=LOG_WEIGHTS, w2=LOG_WEIGHTS)
    @example(w1=1e154, w2=1e154)           # 1e308: 2*w1*w2 overflows
    @example(w1=1e155, w2=1e154)           # the product itself overflows
    @example(w1=1e300, w2=5e-324)          # a subnormal weight
    @example(w1=1.0000000000000002, w2=2.2250738585072014e-308)
    def test_product_over_the_double_range(self, w1, w2):
        # Log-uniform weights, subnormals and 0 included: the density is
        # the rounded product w1*w2 to the last bit wherever that is
        # finite (the last example is a normal product whose half is
        # subnormal), and a refusal where it overflows.
        product = w1 * w2
        if math.isfinite(product):
            assert bilinear_density(w1, w2) == product
        else:
            with pytest.raises(ValueError, match="overflows"):
                bilinear_density(w1, w2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            bilinear_density(-0.1, 1.0)
        with pytest.raises(ValueError):
            bilinear_density(1.0, -2.0)


class TestComplexPairDensity:
    """The oriented-bivector coefficient of a complex coordinate pair."""

    def test_real_and_matches_closed_form(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            zq = complex(rng.standard_normal(), rng.standard_normal())
            zp = complex(rng.standard_normal(), rng.standard_normal())
            value = complex_pair_density(zq, zp)
            expected = -2.0 * np.imag(np.conj(zq) * zp)
            assert isinstance(value, float)
            np.testing.assert_allclose(value, expected, atol=1e-12)

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            zq = complex(rng.standard_normal(), rng.standard_normal())
            zp = complex(rng.standard_normal(), rng.standard_normal())
            np.testing.assert_allclose(complex_pair_density(zq, zp),
                                       -complex_pair_density(zp, zq),
                                       atol=1e-12)


class TestFermionDensity:
    """One-mode fermionic amplitude pairing through the Grassmann wedge."""

    def test_unit_amplitude(self):
        assert abs(fermion_density(1.0) - 1.0) < 1e-14

    def test_equals_squared_modulus(self):
        rng = np.random.default_rng(105)
        for _ in range(1000):
            q = complex(rng.standard_normal(), rng.standard_normal())
            np.testing.assert_allclose(fermion_density(q), abs(q) ** 2,
                                       atol=1e-12, rtol=1e-12)


class TestBosonDensity:
    """Plane-wave current density rho = -2 Im(conj(phi) d_t phi)."""

    def test_positive_energy_wave_is_plus_one(self):
        x = np.linspace(-5.0, 5.0, 41)
        t = np.linspace(0.0, 4.0, 17)[:, None]
        rho = boson_density(1.0, 1.0 / np.sqrt(2.0), x, t)
        np.testing.assert_allclose(rho, 1.0, atol=1e-12)

    def test_negative_energy_wave_is_minus_one(self):
        x = np.linspace(-5.0, 5.0, 41)
        t = np.linspace(0.0, 4.0, 17)[:, None]
        rho = boson_density(-1.0, 1.0 / np.sqrt(2.0), x, t)
        np.testing.assert_allclose(rho, -1.0, atol=1e-12)

    def test_unequal_energy_superposition_attains_both_signs(self):
        # Two positive-energy waves with (|A1|-|A2|)(E1|A1|-E2|A2|) < 0:
        # the grid sweep oracle must see strictly negative and strictly
        # positive samples.  Closed form: rho ranges over
        # 2[E1 a^2 + E2 b^2 +- (E1+E2) a b] = [-0.4, 7.28] here.
        x = np.linspace(0.0, 2.0 * np.pi, 201)
        t = np.linspace(0.0, 2.0 * np.pi, 201)[:, None]
        rho = boson_density([3.0, 1.0], [0.6, 0.8], x, t, k=[1.0, -1.0])
        assert rho.min() < -0.3
        assert rho.max() > 7.0
        np.testing.assert_allclose(rho.min(), -0.4, atol=5e-3)
        np.testing.assert_allclose(rho.max(), 7.28, atol=5e-3)

    def test_opposite_energy_equal_weight_is_identically_zero(self):
        # E2 = -E1 makes the cross term exactly real, so the density is
        # the constant 2(|A1|^2 - |A2|^2) — zero at equal weights.
        x = np.linspace(-3.0, 3.0, 61)
        t = np.linspace(0.0, 5.0, 61)[:, None]
        rho = boson_density([1.0, -1.0],
                            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                            x, t, k=[0.7, -0.4])
        np.testing.assert_allclose(rho, 0.0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            boson_density([1.0, 2.0], [1.0], 0.0, 0.0)


class TestAxioms:
    """Finite amplitude-measure spaces and the axiom checker."""

    def test_one_element_space_any_phase(self):
        for alpha in (0.0, 0.3, 1.9, -2.4):
            space = AmplitudeEventSpace((np.exp(1j * alpha),),
                                        (np.exp(-1j * alpha),))
            report = check_axioms(space)
            assert report.passed and bool(report)
            np.testing.assert_allclose(report.probabilities, [1.0],
                                       atol=1e-14)

    def test_nonrelativistic_probabilities_are_squared_moduli(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            space = AmplitudeEventSpace(tuple(psi), tuple(np.conj(psi)))
            report = check_axioms(space)
            assert report.passed
            np.testing.assert_allclose(report.probabilities,
                                       np.abs(psi) ** 2, atol=1e-12)
            assert abs(sum(report.probabilities) - 1.0) < 1e-12

    def test_fermionic_unit_mode(self):
        space = AmplitudeEventSpace((1.0,), (1.0,))
        report = check_axioms(space, mode="fermionic")
        assert report.passed
        np.testing.assert_allclose(report.probabilities, [1.0], atol=1e-14)

    def test_densities_that_miss_unit_sum_fail(self):
        # Q4 holds (0.5 * 1 + (-0.5j) * 1j = 1), but the fermionic rule
        # reads amp_e alone: its densities |1|^2 and |1j|^2 sum to 2.
        space = AmplitudeEventSpace((1.0, 1j), (0.5, -0.5j))
        assert check_axioms(space).passed
        report = check_axioms(space, mode="fermionic")
        assert not report.passed
        np.testing.assert_allclose(report.probabilities, [1.0, 1.0],
                                   atol=1e-14)
        assert len(report.violations) == 1
        assert report.violations[0].startswith(
            "sum: fermionic densities sum to 1.99")
        assert check_axioms(space, mode="fermionic", skip={"Q4"}).passed

    def test_additivity_violation_is_caught(self):
        space = AmplitudeEventSpace(
            (0.5, 0.5, np.sqrt(0.5)),
            (0.5, 0.5, np.sqrt(0.5)),
            subset_overrides={frozenset({0, 1}): 0.9})
        report = check_axioms(space)
        assert not report.passed and not bool(report)
        assert any("Q3" in v for v in report.violations)

    def test_dropping_additivity_admits_the_rejected_space(self):
        # Axiom-independence smoke test: the same space passes once the
        # additivity requirement is excluded from checking.
        space = AmplitudeEventSpace(
            (0.5, 0.5, np.sqrt(0.5)),
            (0.5, 0.5, np.sqrt(0.5)),
            subset_overrides={frozenset({0, 1}): 0.9})
        assert not check_axioms(space).passed
        relaxed = check_axioms(space, skip={"Q3"})
        assert relaxed.passed
        np.testing.assert_allclose(relaxed.probabilities, [0.25, 0.25, 0.5],
                                   atol=1e-14)

    @pytest.mark.parametrize("amp_e, amp_ebar", [
        ((1.0, 0.5), (1.0,)), ((1.0,), (1.0, 0.5))])
    def test_mismatched_sides_fail_q1(self, amp_e, amp_ebar):
        report = check_axioms(AmplitudeEventSpace(amp_e, amp_ebar))
        assert not report.passed
        assert any(v.startswith("Q1:") for v in report.violations)

    def test_unnormalized_total_fails_q4(self):
        space = AmplitudeEventSpace((1.0, 1.0), (1.0, 1.0))
        report = check_axioms(space)
        assert not report.passed
        assert any("Q4" in v for v in report.violations)

    def test_negative_density_flagged(self):
        # Conjugate-side mismatch producing a negative diagonal weight.
        space = AmplitudeEventSpace((1.0, 1.0), (-0.5, 1.5))
        report = check_axioms(space)
        assert not report.passed
        assert any("positivity" in v for v in report.violations)

    def test_unknown_mode_rejected(self):
        space = AmplitudeEventSpace((1.0,), (1.0,))
        with pytest.raises(ValueError):
            check_axioms(space, mode="thermal")

    def test_override_off_the_checked_splits_fails_q3(self):
        # Five events of amplitude 0.2: {0, 1, 2} sums to 0.6, not 0.9.
        root = np.sqrt(0.2)
        space = AmplitudeEventSpace(
            (root,) * 5, (root,) * 5,
            subset_overrides={frozenset({0, 1, 2}): 0.9})
        report = check_axioms(space)
        assert [v for v in report.violations if v.startswith("Q3")] == [
            "Q3: additivity fails on override [0, 1, 2] (gap 3.000e-01)"]

    def test_override_naming_a_non_event_fails_q3(self):
        root = np.sqrt(0.2)
        space = AmplitudeEventSpace(
            (root,) * 5, (root,) * 5,
            subset_overrides={frozenset({0, 1, 7}): 0.4})
        report = check_axioms(space)
        assert report.violations == [
            "Q3: override [0, 1, 7] names an index that is not one of "
            "the 5 events"]

    def test_large_amplitudes_without_overrides_are_additive(self):
        # Additive by construction: the old pair and complement splits
        # read rounding gaps of about 1e-8 here as Q3 failures.
        rng = np.random.default_rng(3000)
        psi = np.sqrt(3e3) * (rng.standard_normal(6)
                              + 1j * rng.standard_normal(6))
        space = AmplitudeEventSpace(tuple(psi), tuple(np.conj(psi)))
        assert not check_axioms(space).passed       # Q4: far from 1
        report = check_axioms(space, skip={"Q4"})
        assert report.passed, report.violations
        np.testing.assert_allclose(report.probabilities, np.abs(psi) ** 2,
                                   rtol=1e-14)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_q3_agrees_with_the_subset_oracle(self, data):
        n = data.draw(st.integers(1, 8))
        weights = st.floats(-3.0, 3.0, allow_nan=False)
        amp_e = data.draw(st.lists(weights, min_size=n, max_size=n))
        amp_ebar = data.draw(st.lists(weights, min_size=n, max_size=n))
        bare = AmplitudeEventSpace(tuple(amp_e), tuple(amp_ebar))
        keys = st.frozensets(st.integers(-1, n + 1), max_size=n + 1)
        shifts = st.one_of(
            st.just(0.0),
            st.floats(1e-9, 1.0).flatmap(
                lambda x: st.sampled_from([x, -x, 1j * x])))
        overrides = {}
        for key in data.draw(st.lists(keys, max_size=4)):
            exact = sum((bare.event_amplitude(j) for j in key
                         if 0 <= j < n), 0j)
            overrides[key] = exact + data.draw(shifts)
        space = AmplitudeEventSpace(tuple(amp_e), tuple(amp_ebar),
                                    subset_overrides=overrides)
        report = check_axioms(space)

        non_event = any(not 0 <= j < n for key in overrides for j in key)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1))
        gap = max(abs(space.subset_amplitude(s) - sum(
            (space.event_amplitude(j) for j in frozenset(s)), 0j))
                  for s in subsets)
        assert any(v.startswith("Q3") for v in report.violations) == (
            non_event or gap > _AXIOM_TOL)

    def test_tuple_keyed_override_is_read_and_checked(self):
        root = np.sqrt(0.5)
        space = AmplitudeEventSpace((root, root), (root, root),
                                    subset_overrides={(0, 1): 0.9})
        assert space.subset_amplitude({0, 1}) == 0.9
        report = check_axioms(space, skip={"Q4"})
        assert [v for v in report.violations if v.startswith("Q3")] == [
            "Q3: additivity fails on override [0, 1] (gap 1.000e-01)"]

    @pytest.mark.parametrize("overrides", [
        {(0, 1): 0.5, frozenset({1, 0}): 0.5},   # one subset named twice
        {0: 0.5},                                 # not a collection
        {(0.5,): 0.5},                            # not an index
        {"01": 0.5},                              # characters, not indices
    ])
    def test_bad_override_keys_rejected(self, overrides):
        with pytest.raises(ValueError):
            AmplitudeEventSpace((1.0, 1.0), (0.5, 0.5),
                                subset_overrides=overrides)

    def test_skip_label_outside_the_axioms_rejected(self):
        space = AmplitudeEventSpace((float("nan"), 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="Q9"):
            check_axioms(space, skip={"Q9"})

    def test_non_finite_amplitude_fails_q2(self):
        space = AmplitudeEventSpace((float("nan"), 1.0), (1.0, 1.0))
        report = check_axioms(space)
        assert "Q2: event 0 has non-finite amplitude" in report.violations

    def test_imaginary_density_flagged(self):
        space = AmplitudeEventSpace((1.0,), (1j,))
        report = check_axioms(space, skip={"Q4"})
        assert report.violations == ["positivity: event 0 density 1j is "
                                     "not real"]
