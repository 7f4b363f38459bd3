"""Tests for the two-site triple of dynamics and the Markov-competitor
feasibility search.

Oracles: direct matrix arithmetic for the step maps, hand-solved linear
systems for the forced-column cases, and the closed two-step walk of
the equal-weight involution (returns to the start exactly) against the
forced competitor frozen at the flat distribution.  Multi-step
requirements generated by a known matrix (``matrix_power``) must always
come back feasible.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermofock.toy as toy_module
from thermofock.toy import (
    Constraint,
    StochasticMatrix,
    ToyUnitary,
    interference_demo,
    markov_feasibility,
    markov_step,
    total_variation,
)


class TestStepMaps:
    """The stochastic and unitary dynamics on the two-site space; the
    unitary step is ``ToyUnitary.entries @ psi``, the product the
    interference table runs."""

    def test_classical_identity_and_swap(self):
        # a deterministic site map is a 0/1 stochastic matrix
        for site in (0, 1):
            p = np.eye(2)[site]
            np.testing.assert_array_equal(
                markov_step(p, StochasticMatrix(np.eye(2))), p)
            np.testing.assert_array_equal(
                markov_step(p, StochasticMatrix(np.eye(2)[::-1])), p[::-1])

    def test_markov_identity_fixes_every_distribution(self):
        rng = np.random.default_rng(20240630)
        for _ in range(20):
            p0 = rng.uniform(0.0, 1.0)
            p = np.array([p0, 1.0 - p0])
            np.testing.assert_allclose(
                markov_step(p, StochasticMatrix(np.eye(2))), p, atol=0.0)

    def test_markov_preserves_the_simplex(self):
        rng = np.random.default_rng(20240631)
        for _ in range(50):
            w = StochasticMatrix.from_params(rng.uniform(), rng.uniform())
            p0 = rng.uniform()
            out = markov_step([p0, 1.0 - p0], w)
            assert np.all(out >= -1e-12)
            np.testing.assert_allclose(np.sum(out), 1.0, atol=1e-12)

    def test_quantum_preserves_the_sphere(self):
        rng = np.random.default_rng(20240632)
        s = ToyUnitary.hadamard()
        for _ in range(50):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            out = s.entries @ psi
            np.testing.assert_allclose(np.sum(np.abs(out) ** 2), 1.0,
                                       atol=1e-12)

    def test_equal_weight_step_from_a_basis_state(self):
        out = ToyUnitary.hadamard().entries @ np.array([1.0, 0.0])
        np.testing.assert_allclose(np.abs(out) ** 2, [0.5, 0.5],
                                   atol=1e-15)

    def test_total_variation(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
        np.testing.assert_allclose(
            total_variation([1.0, 0.0], [0.5, 0.5]), 0.5, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.5, 0.7], [0.6, 0.3]]))
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[1.2, 0.0], [-0.2, 1.0]]))
        with pytest.raises(ValueError):
            ToyUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # an entry of modulus above 1 is refused before S^H S overflows
        with pytest.raises(ValueError, match="modulus above 1"):
            ToyUnitary(np.full((2, 2), 1e300))
        with pytest.raises(ValueError):
            markov_step([0.7, 0.7], StochasticMatrix(np.eye(2)))
        with pytest.raises(ValueError):
            Constraint((1.0, 0.0), (1.0, 0.0), steps=0)


class TestFeasibilitySearch:
    """Witnesses and certificates over the stochastic family."""

    def test_single_swap_requirement_is_feasible(self):
        result = markov_feasibility([Constraint((1.0, 0.0), (0.0, 1.0))])
        assert result.feasible
        assert result.residual <= 1e-6
        # the requirement pins only the first column
        np.testing.assert_allclose(result.w.entries[:, 0], [0.0, 1.0],
                                   atol=1e-6)
        # bare (input, output[, steps]) tuples are not constraints
        for bare in (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 1.0), 1)):
            with pytest.raises(ValueError, match="list of Constraint"):
                markov_feasibility([bare])

    def test_swap_itself_satisfies_its_own_two_step_law(self):
        constraints = [
            Constraint((1.0, 0.0), (0.0, 1.0), steps=1),
            Constraint((0.0, 1.0), (1.0, 0.0), steps=1),
            Constraint((1.0, 0.0), (1.0, 0.0), steps=2),
        ]
        result = markov_feasibility(constraints)
        assert result.feasible
        np.testing.assert_allclose(result.w.entries, [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-6)

    def test_recovering_a_known_matrix_from_its_one_step_law(self):
        target = StochasticMatrix.from_params(0.3, 0.7)
        constraints = [
            Constraint((1.0, 0.0), (0.3, 0.7), steps=1),
            Constraint((0.0, 1.0), (0.7, 0.3), steps=1),
        ]
        result = markov_feasibility(constraints)
        assert result.feasible
        np.testing.assert_allclose(result.w.entries, target.entries,
                                   atol=1e-6)

    def test_returned_witness_satisfies_multi_step_requirements(self):
        # Requirements generated by an actual matrix must be feasible,
        # and the witness must reproduce them.
        rng = np.random.default_rng(20240633)
        for _ in range(5):
            w = StochasticMatrix.from_params(rng.uniform(), rng.uniform())
            p = np.array([0.8, 0.2])
            constraints = []
            state = p.copy()
            for steps in (1, 2, 3):
                state = w.entries @ state
                constraints.append(Constraint(tuple(p), tuple(state),
                                              steps=steps))
            result = markov_feasibility(constraints)
            assert result.feasible
            for c in constraints:
                out = np.array(c.p_in)
                for _ in range(c.steps):
                    out = result.w.entries @ out
                np.testing.assert_allclose(out, c.p_out, atol=1e-5)

    def test_interference_requirements_are_infeasible_with_certificate(self):
        # The equal-weight involution's one-step law forces both columns
        # to (1/2, 1/2); its two-step return to (1, 0) is then
        # unreachable.  This is the exact-forcing certificate branch.
        constraints = [
            Constraint((1.0, 0.0), (0.5, 0.5), steps=1),
            Constraint((0.0, 1.0), (0.5, 0.5), steps=1),
            Constraint((1.0, 0.0), (1.0, 0.0), steps=2),
            Constraint((0.0, 1.0), (0.0, 1.0), steps=2),
        ]
        result = markov_feasibility(constraints)
        assert not result.feasible
        assert result.w is None
        assert result.residual == pytest.approx(0.5, abs=1e-12)
        assert "force both columns" in result.certificate
        assert "instead of" in result.certificate

    def test_mutually_inconsistent_one_step_requirements(self):
        constraints = [
            Constraint((1.0, 0.0), (0.9, 0.1), steps=1),
            Constraint((1.0, 0.0), (0.1, 0.9), steps=1),
        ]
        result = markov_feasibility(constraints)
        assert not result.feasible
        assert "mutually inconsistent" in result.certificate

    def test_forced_columns_outside_the_unit_interval(self):
        # (0.5, 0.5) -> (0.95, 0.05) needs a + b = 1.9 and
        # (0.9, 0.1) -> (0.8, 0.2) needs 0.9a + 0.1b = 0.8; together
        # they force a = 0.7625, b = 1.1375 — outside the family.
        constraints = [
            Constraint((0.5, 0.5), (0.95, 0.05), steps=1),
            Constraint((0.9, 0.1), (0.8, 0.2), steps=1),
        ]
        result = markov_feasibility(constraints)
        assert not result.feasible
        assert "outside [0, 1]" in result.certificate

    def test_grid_certificate_for_a_pure_multi_step_contradiction(self):
        # With no one-step requirements the exact-forcing path is
        # unavailable; the spectral test must close the case.  Any
        # n-step map is affine on the simplex, so the flat pair must go
        # to the average of the images of the two basis states, (0, 1),
        # not to (1, 0): violated by every matrix in the family.
        constraints = [
            Constraint((1.0, 0.0), (0.0, 1.0), steps=2),
            Constraint((0.0, 1.0), (0.0, 1.0), steps=2),
            Constraint((0.5, 0.5), (1.0, 0.0), steps=2),
        ]
        result = markov_feasibility(constraints)
        assert not result.feasible
        assert result.w is None
        assert result.certificate.startswith("infeasible:")
        assert result.residual > 1e-6

    def test_empty_requirements_rejected(self):
        with pytest.raises(ValueError):
            markov_feasibility([])


_PARAM = st.one_of(st.sampled_from([0.0, 1.0]),
                   st.floats(0.0, 1.0, allow_nan=False))
_REQUIREMENT = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
              st.floats(0.0, 1.0, allow_nan=False)),
    st.integers(2, 8))


class TestSpectralSearch:
    """Multi-step requirements generated by an actual matrix."""

    @settings(max_examples=80)
    @given(a=_PARAM, b=_PARAM,
           requirements=st.lists(_REQUIREMENT, min_size=1, max_size=4))
    @example(a=1.0, b=0.0, requirements=[(0.3, 2), (1.0, 7)])  # λ = 1
    @example(a=0.0, b=1.0, requirements=[(0.3, 2), (1.0, 7)])  # λ = −1
    @example(a=0.0, b=1.0, requirements=[(1.0, 3), (0.25, 8)])
    @example(a=1.0, b=1.0, requirements=[(0.0, 4), (0.6, 5)])
    @example(a=0.0, b=0.0, requirements=[(0.9, 2), (0.5, 3)])
    @example(a=0.6, b=0.0, requirements=[(0.8, 2), (0.8, 3), (0.2, 8)])
    # off-lattice cases a grid-plus-local-refinement search missed
    @example(a=0.11040001757950324, b=0.2592105953590712,
             requirements=[(0.5, 4), (0.5, 2), (0.5, 5), (0.0, 7)])
    @example(a=0.7780073936150816, b=0.7345368403244252,
             requirements=[(1.0, 6), (0.0, 2), (0.5, 3), (0.5, 4)])
    def test_generated_requirements_are_feasible_with_a_witness(
            self, a, b, requirements):
        w = StochasticMatrix.from_params(a, b)
        constraints = [
            Constraint((p0, 1.0 - p0),
                       tuple(np.linalg.matrix_power(w.entries, steps)
                             @ [p0, 1.0 - p0]), steps=steps)
            for p0, steps in requirements]
        result = markov_feasibility(constraints)
        assert result.feasible, result.certificate
        for c in constraints:
            out = np.linalg.matrix_power(result.w.entries, c.steps) @ c.p_in
            np.testing.assert_allclose(out, c.p_out, rtol=0.0, atol=1e-9)


class TestInterferenceTable:
    """The two-step walk against its forced competitor."""

    def test_default_table(self):
        rows = interference_demo(steps=2)
        assert [r.step for r in rows] == [0, 1, 2]

        np.testing.assert_allclose(rows[0].quantum, (1.0, 0.0), atol=0.0)
        np.testing.assert_allclose(rows[0].markov, (1.0, 0.0), atol=0.0)
        assert rows[0].gap == 0.0

        np.testing.assert_allclose(rows[1].quantum, (0.5, 0.5), atol=1e-15)
        np.testing.assert_allclose(rows[1].markov, (0.5, 0.5), atol=1e-15)
        assert rows[1].gap < 1e-15

        np.testing.assert_allclose(rows[2].quantum, (1.0, 0.0), atol=1e-15)
        np.testing.assert_allclose(rows[2].markov, (0.5, 0.5), atol=1e-15)
        np.testing.assert_allclose(rows[2].gap, 0.5, atol=1e-15)

    def test_identity_unitary_never_separates(self):
        rows = interference_demo(steps=4, unitary=ToyUnitary(np.eye(2)))
        for row in rows:
            assert row.gap == 0.0

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            interference_demo(steps=-1)


class TestNoScaleConstant:
    """The toy rules are structurally free of any scale constant."""

    def test_no_hbar_parameter_anywhere_in_the_public_api(self):
        for name in toy_module.__all__:
            obj = getattr(toy_module, name)
            if inspect.isclass(obj):
                fields = getattr(obj, "__dataclass_fields__", {})
                assert "hbar" not in fields, name
                members = [m for m, _ in inspect.getmembers(obj)]
                assert "hbar" not in members, name
                for member_name, member in inspect.getmembers(obj):
                    if callable(member) and not member_name.startswith("_"):
                        try:
                            params = inspect.signature(member).parameters
                        except (TypeError, ValueError):
                            continue
                        assert "hbar" not in params, (name, member_name)
            elif callable(obj):
                params = inspect.signature(obj).parameters
                assert "hbar" not in params, name

    def test_module_source_never_names_the_quantum_of_action(self):
        source = inspect.getsource(toy_module)
        assert "hbar" not in source
        assert "planck" not in source.lower()
