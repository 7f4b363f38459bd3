"""Tests for the holomorphic ladder calculus and its position picture.

Expected values are pinned by independent oracles: exact ladder
arithmetic for commutators and eigenvalues, Gauss-Laguerre/angular
quadrature over the Gaussian measure for inner products and the
completeness kernel, and closed-form Hermite/Gaussian integrals for the
position-side checks.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import roots_laguerre

from thermofock import fock as fock_mod
from thermofock.charfn import GridWaveFunction
from thermofock.errors import NumericalGuardError
from thermofock.fock import (
    FockVector,
    bargmann_kernel,
    classical_trajectory,
    commutator_defect,
    evolved,
    from_position,
    hamiltonian_apply,
    hermite_function,
    inner_product,
    lowered,
    quadrature_inner_product,
    raised,
    rescale_lambda,
    to_position,
)


def random_vector(rng, n_max, hbar=1.0, interior=False):
    c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    if interior:
        c[-1] = 0.0
    c /= np.linalg.norm(c)
    return FockVector(c, hbar)


def quadrature_nodes(radial, angular):
    """Polar nodes and weights of the Gaussian measure at unit scale:
    Gauss-Laguerre in u = |z|^2 on ``radial`` nodes times ``angular``
    equal angles."""
    u, wu = np.polynomial.laguerre.laggauss(radial)
    phi = 2.0 * np.pi * np.arange(angular) / angular
    z = np.outer(np.sqrt(u), np.exp(1j * phi)).ravel()
    w = np.outer(wu, np.full(angular, 1.0 / angular)).ravel()
    return z, w


def per_node_quadrature(f, g):
    """The quadrature oracle evaluated node by node: each vector summed
    through its own Z_n recurrence at freshly built 48 x 80 nodes, at
    unit scale, where Z_n(sqrt(hbar) z; hbar) = Z_n(z; 1) puts the
    integral at any hbar."""
    def series(vec, z):
        basis = np.ones(z.shape, dtype=complex)
        total = vec.coeffs[0] * basis
        for n in range(1, vec.coeffs.size):
            basis = basis * z / np.sqrt(n)
            total = total + vec.coeffs[n] * basis
        return total

    z, w = quadrature_nodes(48, 80)
    return complex(np.sum(w * series(f, z) * np.conj(series(g, z))))


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


# Roundings in one term w Z_m(z) conj(Z_n(z)) of a quadrature sum, n, m
# <= 12, with a wide margin: the two Z recurrences (12 steps each of a
# complex product, a square root and a division: 118 u), the node's root
# and angle carried through the powers (z^n, e^{i(m-n)phi}: about 200 u),
# the Laguerre nodes and weights (a few u each, times n) and the product.
TERM_ROUNDINGS = 512


def gram_rounding_bound(radial, angular):
    """Bound on |G - I| for an exact polar rule: each term errs by at most
    gamma_{TERM_ROUNDINGS} relative and the sum of N terms adds N - 1
    roundings, against sum_j w_j |Z_m||Z_n| <= 1 (Cauchy-Schwarz on the
    exact diagonal), so gamma_{N + TERM_ROUNDINGS} bounds every entry."""
    return gamma(radial * angular + TERM_ROUNDINGS)


def scaled_vector(n_max, decade, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return FockVector(10.0 ** decade * c)


# Vectors up to the oracle's truncation limit, scaled log-uniform over
# 1e-150..1e150.
SCALED_VECTORS = st.builds(scaled_vector, st.integers(0, 12),
                           st.floats(-150.0, 150.0),
                           st.integers(0, 2 ** 32 - 1))


class TestInnerProduct:
    """Coefficient pairing against the Gaussian-measure quadrature."""

    def test_basis_pairings(self):
        z2 = FockVector.basis_state(2, 3)
        z1 = FockVector.basis_state(1, 3)
        z3 = FockVector.basis_state(3, 3)
        assert inner_product(z2, z2) == 1.0 + 0.0j
        assert inner_product(z1, z3) == 0.0 + 0.0j

    def test_quadrature_orthonormality_to_order_eight(self):
        worst = 0.0
        for n in range(9):
            zn = FockVector.basis_state(n, 8)
            for m in range(9):
                zm = FockVector.basis_state(m, 8)
                value = quadrature_inner_product(zn, zm)
                worst = max(worst, abs(value - (1.0 if n == m else 0.0)))
        assert worst < 1e-9

    def test_quadrature_matches_pairing_on_random_vectors(self):
        rng = np.random.default_rng(20240601)
        for _ in range(10):
            f = random_vector(rng, 8)
            gap = abs(quadrature_inner_product(f, f) - inner_product(f, f))
            assert gap < 1e-8

    @settings(max_examples=60)
    @given(n_f=st.integers(0, 12), n_g=st.integers(0, 12),
           hbar=st.floats(0.25, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_quadrature_matches_pairing_on_cross_pairs(self, n_f, n_g, hbar,
                                                       seed):
        rng = np.random.default_rng(seed)
        f = random_vector(rng, n_f, hbar)
        g = random_vector(rng, n_g, hbar)
        assert abs(quadrature_inner_product(f, g)
                   - inner_product(f, g)) <= 1e-8

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_quadrature_equals_the_per_node_oracle_on_the_basis(self, hbar):
        basis = [FockVector.basis_state(n, 12, hbar) for n in range(13)]
        for zn in basis:
            for zm in basis:
                assert (quadrature_inner_product(zn, zm)
                        == per_node_quadrature(zn, zm))

    def test_quadrature_matches_the_per_node_oracle_on_random_pairs(self):
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            n_f, n_g = rng.integers(0, 13, size=2)
            hbar = float(rng.choice([0.5, 1.0, 2.0]))
            f = random_vector(rng, n_f, hbar)
            g = random_vector(rng, n_g, hbar)
            assert abs(quadrature_inner_product(f, g)
                       - per_node_quadrature(f, g)) <= 1e-14

    @pytest.mark.parametrize("nodes", [(40, 64), (48, 80)])
    def test_polar_rules_are_exact_to_rounding(self, nodes):
        # Both rules integrate every basis pair up to n = 12 exactly, so
        # the Gram of Z_0..Z_12 is the identity up to rounding.
        z, w = quadrature_nodes(*nodes)
        rows = [np.ones(z.shape, dtype=complex)]
        for n in range(1, 13):
            rows.append(rows[-1] * z / np.sqrt(n))
        rows = np.array(rows)
        gram = np.einsum("j,mj,nj->mn", w, rows, np.conj(rows))
        assert (np.max(np.abs(gram - np.eye(13)))
                <= gram_rounding_bound(*nodes))

    @settings(max_examples=200)
    @given(f=SCALED_VECTORS, g=SCALED_VECTORS)
    # a valid input refused by the former self-estimate guard, whose
    # absolute bound 1e-8 met a rounding gap of 2.4e-6 at norm² 1.3e7
    @example(f=FockVector(1e3 * np.ones(13)), g=FockVector(1e3 * np.ones(13)))
    def test_quadrature_matches_pairing_relative_to_the_norms(self, f, g):
        # |f G conj(g) - f conj(g)| <= ||G - I||_2 ||f|| ||g|| plus the
        # rounding of both sums: ||G - I||_2 <= 13 max|G - I| (the bound
        # above at 48 x 80), the 169-term bilinear form errs by at most
        # gamma_200 sum |f_m| |G_mn| |g_n| <= gamma_200 (1 + 13 max|G - I|)
        # ||f|| ||g||, and the 13-term pairing by gamma_14 ||f|| ||g||.
        gram_gap = 13.0 * gram_rounding_bound(48, 80)
        relative = gram_gap + gamma(200) * (1.0 + gram_gap) + gamma(14)
        norms = np.linalg.norm(f.coeffs) * np.linalg.norm(g.coeffs)
        assert (abs(quadrature_inner_product(f, g) - inner_product(f, g))
                <= relative * norms)

    def test_cached_quadrature_gram_is_read_only(self):
        gram = fock_mod._quadrature_gram()
        with pytest.raises(ValueError):
            gram[0, 0] = 0.0

    def test_quadrature_respects_scale(self):
        for hbar in (0.5, 2.0):
            z2 = FockVector.basis_state(2, 4, hbar)
            np.testing.assert_allclose(quadrature_inner_product(z2, z2),
                                       1.0, atol=1e-9)

    def test_quadrature_guard_on_a_nan_coefficient(self):
        # The vector itself trips the guard, before any quadrature runs.
        with pytest.raises(NumericalGuardError):
            f = FockVector([1.0, np.nan, 0.0])
            quadrature_inner_product(f, f)

    def test_quadrature_truncation_limit(self):
        f = FockVector.basis_state(13, 13)
        with pytest.raises(ValueError):
            quadrature_inner_product(f, f)

    def test_mismatched_scales_rejected(self):
        with pytest.raises(ValueError):
            inner_product(FockVector.basis_state(0, 2, 1.0),
                          FockVector.basis_state(0, 2, 2.0))


class TestBasisRows:
    """The rows Z_n(z) the quadrature Gram reads, at ħ = 1."""

    def test_basis_rows_match_the_explicit_series(self):
        rng = np.random.default_rng(7)
        z = 2.0 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        explicit = np.array([z ** n / math.sqrt(math.factorial(n))
                             for n in range(21)])
        rows = fock_mod._basis_rows(z, 20)
        assert np.all(np.abs(rows - explicit) <= 1e-12 * np.abs(explicit))


class TestLadders:
    """Raising, lowering, commutators, adjointness."""

    def test_raising_z2_gives_sqrt3_z3(self):
        out = raised(FockVector.basis_state(2, 3))
        np.testing.assert_allclose(
            out.coeffs, [0.0, 0.0, 0.0, np.sqrt(3.0)], atol=1e-15)

    def test_commutator_is_hbar_on_interior_vectors(self):
        rng = np.random.default_rng(20240602)
        for hbar in (0.5, 1.0, 2.0):
            for _ in range(20):
                f = random_vector(rng, 12, hbar, interior=True)
                lhs = lowered(raised(f)).coeffs - raised(lowered(f)).coeffs
                np.testing.assert_allclose(lhs, hbar * f.coeffs, atol=1e-12)

    def test_commutator_defect_interior(self):
        assert commutator_defect(10, 1.0) < 1e-12
        assert commutator_defect(10, 0.5) < 1e-12

    def test_commutator_defect_at_the_edge_is_the_truncation_artifact(self):
        # Silently truncated raising manufactures a defect of exactly
        # hbar*(n_max + 1) on the top slot.
        np.testing.assert_allclose(
            commutator_defect(6, 1.0, include_edge=True), 7.0, atol=1e-12)
        np.testing.assert_allclose(
            commutator_defect(6, 2.0, include_edge=True), 14.0, atol=1e-12)

    @settings(max_examples=60)
    @given(n_max=st.integers(2, 60),
           hbar=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_commutator_defect_over_random_truncations_and_scales(
            self, n_max, hbar):
        # Interior slots cancel to rounding; the silently truncated top
        # slot leaves exactly hbar*(n_max + 1).
        tol = 1e-12 * hbar * (n_max + 1)
        assert commutator_defect(n_max, hbar) <= tol
        assert abs(commutator_defect(n_max, hbar, include_edge=True)
                   - hbar * (n_max + 1)) <= tol

    def test_adjointness_of_raising_and_lowering(self):
        rng = np.random.default_rng(20240603)
        for _ in range(50):
            f = random_vector(rng, 10, interior=True)
            g = random_vector(rng, 10, interior=True)
            lhs = inner_product(raised(f), g)
            rhs = inner_product(f, lowered(g))
            assert abs(lhs - rhs) < 1e-10

    def test_raising_overflow_guard(self):
        top = FockVector.basis_state(3, 3)
        with pytest.raises(ValueError):
            raised(top)
        grown = raised(top, grow=True)
        assert grown.n_max == 4
        np.testing.assert_allclose(grown.coeffs[4], 2.0, atol=1e-15)

    def test_lowering_annihilates_the_vacuum(self):
        out = lowered(FockVector.basis_state(0, 3))
        np.testing.assert_allclose(out.coeffs, np.zeros(4), atol=0.0)


class TestHamiltonian:
    """Eigenvalues, rescaling invariance, and phase evolution."""

    def test_z3_eigenvalue(self):
        out = hamiltonian_apply(FockVector.basis_state(3, 4), omega=2.0)
        np.testing.assert_allclose(
            out.coeffs, 7.0 * FockVector.basis_state(3, 4).coeffs,
            atol=1e-12)

    def test_spectrum_invariant_under_rescaling(self):
        for lam in (2.0, 3.0):
            for n in range(6):
                zn = FockVector.basis_state(n, 8)
                plain = hamiltonian_apply(zn, omega=1.3)
                scaled = hamiltonian_apply(rescale_lambda(zn, lam),
                                           omega=1.3, lam=lam)
                np.testing.assert_allclose(scaled.coeffs, plain.coeffs,
                                           atol=1e-12)

    @pytest.mark.parametrize("f, omega, name", [
        # ω λ ħ = 1e400 is refused before it multiplies the vector
        (FockVector.basis_state(1, 3, 1e200), 1e200, "omega * lambda * hbar"),
        # a finite scale whose product overflows a coefficient
        (FockVector(np.array([1e300, 0.0])), 1e10, "non-finite coefficients"),
    ])
    def test_overflow_trips_the_guard_not_a_warning(self, f, omega, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalGuardError) as raised_error:
                hamiltonian_apply(f, omega)
        assert name in str(raised_error.value)

    def test_rescaled_commutator_is_hbar_over_lambda(self):
        rng = np.random.default_rng(20240604)
        f = rescale_lambda(random_vector(rng, 10, interior=True), 2.0)
        lhs = lowered(raised(f)).coeffs - raised(lowered(f)).coeffs
        np.testing.assert_allclose(lhs, 0.5 * f.coeffs, atol=1e-12)

    def test_rescaling_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            rescale_lambda(FockVector.basis_state(0, 2), 0.0)

    def test_evolution_preserves_the_norm(self):
        rng = np.random.default_rng(20240605)
        f = random_vector(rng, 12)
        g = evolved(f, omega=0.9, t=3.7)
        np.testing.assert_allclose(np.sum(np.abs(g.coeffs) ** 2), 1.0,
                                   atol=1e-13)

    def test_classical_and_quantum_phase_advance_agree(self):
        # The ladder expectation of an evolved coherent-like vector must
        # rotate exactly like the classical solution z0 e^{-i omega t}.
        for hbar in (0.5, 1.0):
            f = FockVector.coherent_like(0.6 + 0.3j, 40, hbar)
            z0 = inner_product(lowered(f), f)
            for t in (0.0, 0.4, 1.7, 6.1):
                ft = evolved(f, omega=1.2, t=t)
                zt = inner_product(lowered(ft), ft)
                np.testing.assert_allclose(
                    zt, classical_trajectory(z0, 1.2, t), atol=1e-9)


class TestPositionPicture:
    """Hermite functions, the intertwining kernel, and round trips."""

    def test_ground_state_value_at_the_origin(self):
        np.testing.assert_allclose(hermite_function(0, 0.0),
                                   np.pi ** -0.25, atol=1e-15)

    def test_grid_orthonormality_to_order_twelve(self):
        q = np.linspace(-12.0, 12.0, 2401)
        table = np.stack([hermite_function(n, q) for n in range(13)])
        gram = np.trapezoid(table[:, None, :] * table[None, :, :], q, axis=2)
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-9)

    def test_recurrence_order_guard(self):
        with pytest.raises(ValueError):
            hermite_function(201, 0.0)

    def test_kernel_pair_integral_reproduces_the_exponential(self):
        q = np.linspace(-12.0, 12.0, 2401)
        points = (0.0 + 0.0j, 0.7 - 0.3j, 1.2 + 0.8j, -1.5j, 2.0 + 0.0j)
        kernels = [bargmann_kernel(z, q) for z in points]
        for i, z in enumerate(points):
            for j, zp in enumerate(points):
                integral = np.trapezoid(kernels[i] * np.conj(kernels[j]), q)
                assert abs(integral - np.exp(z * np.conj(zp))) < 1e-8

    def test_kernel_tail_guard(self):
        with pytest.raises(NumericalGuardError):
            bargmann_kernel(5.0 + 0.0j, np.linspace(-5, 5, 11), n_max=10)

    def test_measure_integral_of_the_kernel_smears_to_the_identity(self):
        # Second completeness identity: integrating U(z,q) conj(U(z,q'))
        # over the Gaussian measure gives a delta kernel in (q, q'),
        # verified by smearing against smooth test functions.  The
        # z-integral uses Gauss-Laguerre radial nodes (exact for the
        # polynomial integrands appearing up to the truncation) and a
        # uniform angular grid fine enough to kill every aliased pair.
        n_kernel = 40
        q = np.linspace(-9.0, 9.0, 901)
        dq = q[1] - q[0]
        u, wu = roots_laguerre(60)
        n_angle = 128
        phi = 2.0 * np.pi * np.arange(n_angle) / n_angle
        z = np.outer(np.sqrt(u), np.exp(1j * phi)).ravel()
        w = np.repeat(wu / n_angle, n_angle)

        basis = np.empty((z.size, n_kernel + 1), dtype=complex)
        basis[:, 0] = 1.0
        for n in range(1, n_kernel + 1):
            basis[:, n] = basis[:, n - 1] * z / np.sqrt(n)
        table = np.stack([hermite_function(n, q)
                          for n in range(n_kernel + 1)])
        u_matrix = basis @ table

        # the factored evaluation must agree with the public kernel
        small = np.nonzero(np.abs(z) < 2.0)[0][:5]
        for i in small:
            np.testing.assert_allclose(
                u_matrix[i], bargmann_kernel(z[i], q, n_max=n_kernel),
                atol=1e-10)

        trap = np.ones(q.size)
        trap[0] = trap[-1] = 0.5
        rng = np.random.default_rng(20240606)
        for _ in range(3):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c /= np.linalg.norm(c)
            f = to_position(FockVector(c, 1.0), q).values
            projected = u_matrix.conj() @ (trap * f * dq)
            smeared = u_matrix.T @ (w * projected)
            np.testing.assert_allclose(smeared, f, atol=1e-8)

    def test_round_trip_recovers_the_coefficients(self):
        rng = np.random.default_rng(20240607)
        q = np.linspace(-10.0, 10.0, 1001)
        for _ in range(5):
            c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            c /= np.linalg.norm(c)
            f = FockVector(c, 1.0)
            back = from_position(to_position(f, q), n_max=10)
            np.testing.assert_allclose(back.coeffs, c, atol=1e-8)

    def test_projection_of_a_pure_hermite_sample(self):
        q = np.linspace(-10.0, 10.0, 1001)
        psi = GridWaveFunction(q[0], q[1] - q[0], hermite_function(2, q))
        f = from_position(psi, n_max=6)
        expected = np.zeros(7, dtype=complex)
        expected[2] = 1.0
        np.testing.assert_allclose(f.coeffs, expected, atol=1e-10)

    def test_projection_guard_on_nan_samples(self):
        q = np.linspace(-10.0, 10.0, 1001)
        values = hermite_function(2, q)
        values[500] = np.nan
        with pytest.raises(NumericalGuardError):
            from_position(GridWaveFunction(q[0], q[1] - q[0], values),
                          n_max=6)

    def test_projection_guard_on_a_narrow_grid(self):
        q = np.linspace(-1.0, 1.0, 101)
        psi = GridWaveFunction(q[0], q[1] - q[0], hermite_function(4, q))
        with pytest.raises(NumericalGuardError):
            from_position(psi, n_max=4)

    # The shortfall 1 - sum |c_n|^2 / ||psi||^2 is relative, so its
    # verdict does not depend on the scale of the samples: an absolute
    # one passed the n = 20 packet at 2^-14 and refused the Gaussian at
    # 2^20 (shortfall 0.0012).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-14, 0])
    def test_projection_of_a_scaled_high_order_packet_is_refused(self, k):
        psi = GridWaveFunction.sampled(lambda x: hermite_function(20, x),
                                       -20.0, 40.0 / 2048, 2048)
        with pytest.raises(NumericalGuardError,
                           match="projection mass shortfall is 1,"):
            from_position(GridWaveFunction(psi.x0, psi.dx,
                                           math.ldexp(1.0, k) * psi.values),
                          n_max=12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-600, -14, 0, 20, 600])
    def test_projection_of_a_scaled_gaussian_passes(self, k):
        psi = GridWaveFunction.sampled(lambda x: hermite_function(0, x),
                                       -20.0, 40.0 / 2048, 2048)
        scale = math.ldexp(1.0, k)
        unit = from_position(psi, n_max=12).coeffs
        scaled = from_position(GridWaveFunction(psi.x0, psi.dx,
                                                scale * psi.values),
                               n_max=12).coeffs
        np.testing.assert_allclose(scaled / scale, unit, rtol=0, atol=1e-15)

    def test_position_scale_follows_hbar(self):
        # At scale hbar the ground-state density variance is hbar/2.
        q = np.linspace(-10.0, 10.0, 2001)
        for hbar in (0.5, 1.0, 2.0):
            psi = to_position(FockVector.basis_state(0, 0, hbar), q)
            density = np.abs(psi.values) ** 2
            var = np.trapezoid(q * q * density, q)
            np.testing.assert_allclose(var, hbar / 2.0, atol=1e-9)


class TestValidation:
    """Constructor and argument guards."""

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            FockVector(np.zeros((0,)), 1.0)

    def test_nonpositive_hbar_rejected(self):
        with pytest.raises(ValueError):
            FockVector([1.0], 0.0)

    def test_basis_index_above_truncation_rejected(self):
        with pytest.raises(ValueError):
            FockVector.basis_state(5, 3)

    def test_negative_hermite_order_rejected(self):
        with pytest.raises(ValueError):
            hermite_function(-1, 0.0)
