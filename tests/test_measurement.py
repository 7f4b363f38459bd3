"""Tests for entangling measurements, decoherence as block projection,
Born sampling, superselection sectors, and full-turn rotations.

Oracles: Schmidt values from an SVD of hand-built amplitude tables,
exact partial-trace algebra for two-branch states, binomial standard
errors for the sampled frequencies, the outcome-by-outcome sampler
``choice_counts`` for the law of the counts, and elementary matrix arithmetic
for sector defects and charge commutators.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermofock import measurement
from thermofock.errors import NumericalGuardError
from thermofock.measurement import (
    _hermitian_defect,
    BipartiteState,
    DensityMatrix,
    SectorStructure,
    charge_commutator_norm,
    decohere,
    entangle,
    purity,
    random_density,
    reduced_density,
    rotation_2pi,
    sample_outcomes,
    sector_defect,
)


def schmidt_values(state):
    """Singular values of the amplitude table, descending."""
    return np.linalg.svd(state.amplitudes, compute_uv=False)


def schmidt_rank(state):
    return int(np.sum(schmidt_values(state) > 1e-12))


def count_eigvalsh(monkeypatch):
    """Route np.linalg.eigvalsh through a recorder; returns the list of
    the sizes it was called on."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sizes


class TestDensityMatrix:
    """Constructor invariants and convenience constructors."""

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(0.5 * np.eye(3))

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("m", [np.ones(3) / 3.0, np.eye(2, 3) / 2.0,
                                   np.zeros((0, 0))],
                             ids=["vector", "2x3", "empty"])
    def test_non_square_rejected(self, m):
        with pytest.raises(ValueError, match="square and nonempty"):
            DensityMatrix(m)

    @settings(max_examples=25)
    @given(d=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
           hermitian=st.booleans())
    @example(d=1, seed=0, hermitian=False)
    @example(d=300, seed=1, hermitian=True)   # 54-row blocks and one of 30
    @example(d=300, seed=2, hermitian=False)
    def test_blocked_hermitian_defect_is_the_dense_one(self, d, seed,
                                                       hermitian):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if hermitian:
            m = m + m.conj().T
        assert _hermitian_defect(m) == float(np.max(np.abs(m - m.conj().T)))

    def test_hermitian_defect_propagates_nan(self):
        m = np.eye(300, dtype=complex) / 300
        m[299, 7] = np.nan
        assert np.isnan(_hermitian_defect(m))

    def test_pure_projector(self):
        v = np.array([0.6, 0.8j])
        rho = DensityMatrix(np.outer(v, v.conj()))
        np.testing.assert_allclose(purity(rho), 1.0, atol=1e-12)

    def test_maximally_mixed_purity(self):
        np.testing.assert_allclose(purity(DensityMatrix(np.eye(4) / 4.0)),
                                   0.25, atol=1e-15)

    def test_validated_matrix_is_read_only(self):
        rng = np.random.default_rng(20240628)
        rho = DensityMatrix(np.eye(2) / 2.0)
        made = {
            "constructor": rho,
            "decohere": decohere(rho, SectorStructure.singletons(2)),
            "random_density": random_density(3, rng),
            "random_density(rank=10_000)": random_density(2, rng,
                                                          rank=10_000),
        }
        for name, out in made.items():
            before = out.matrix.copy()
            with pytest.raises(ValueError, match="read-only"):
                out.matrix[0, 0] = -5
            assert np.array_equal(out.matrix, before), name

    def test_constructor_copies_its_input(self):
        m = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        rho = DensityMatrix(m)
        m[0, 0] = -5.0
        assert rho.matrix[0, 0] == 0.5
        assert purity(rho) == pytest.approx(0.625, abs=1e-15)


class TestEntangling:
    """Branch amplitudes, Schmidt structure, and reductions."""

    def test_schmidt_values_are_the_branch_moduli(self):
        rng = np.random.default_rng(20240620)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c /= np.linalg.norm(c)
        state = entangle(c)
        np.testing.assert_allclose(schmidt_values(state),
                                   np.sort(np.abs(c))[::-1], atol=1e-12)

    def test_single_branch_is_a_product(self):
        state = entangle([1.0], d_object=3, d_apparatus=2)
        assert schmidt_rank(state) == 1

    def test_two_or_more_branches_are_never_products(self):
        for k in (2, 3, 5):
            c = np.full(k, 1.0 / math.sqrt(k))
            state = entangle(c)
            assert schmidt_rank(state) == k

    def test_equal_branch_reduction_is_the_flat_mixture(self):
        state = entangle([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
        rho = reduced_density(state, "apparatus")
        np.testing.assert_allclose(rho.matrix, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(purity(rho), 0.5, atol=1e-12)

    def test_both_reductions_share_the_branch_spectrum(self):
        c = np.array([0.3, math.sqrt(0.91)])
        state = entangle(c, d_object=4, d_apparatus=3)
        rho_o = reduced_density(state, "object")
        rho_a = reduced_density(state, "apparatus")
        expected = sorted([0.09, 0.91])
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rho_o.matrix))[-2:], expected,
            atol=1e-12)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rho_a.matrix))[-2:], expected,
            atol=1e-12)

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            entangle([1.0, 1.0])

    def test_too_small_subsystem_rejected(self):
        with pytest.raises(ValueError):
            entangle([0.6, 0.8], d_object=1)

    def test_unknown_subsystem_rejected(self):
        state = entangle([0.6, 0.8])
        with pytest.raises(ValueError):
            reduced_density(state, "environment")

    def test_bipartite_normalization_guard(self):
        with pytest.raises(ValueError):
            BipartiteState(np.ones((2, 2)))

    @pytest.mark.parametrize("table", [np.array([0.6, 0.8]),
                                       np.zeros((0, 2))],
                             ids=["vector", "empty"])
    def test_bipartite_shape_guard(self, table):
        with pytest.raises(ValueError, match="nonempty 2-d array"):
            BipartiteState(table)

    @pytest.mark.parametrize("c", [1.0, [[0.6, 0.8]], []],
                             ids=["scalar", "2-d", "empty"])
    def test_amplitudes_must_be_a_nonempty_list(self, c):
        # A 1x2 table has unit norm, so only this check refuses it.
        with pytest.raises(ValueError, match="nonempty 1-d amplitude"):
            entangle(c)


class TestDecoherence:
    """Block projection: trace, idempotence, purity."""

    def test_equal_superposition_decoheres_to_the_flat_mixture(self):
        rho = DensityMatrix(np.full((2, 2), 0.5))
        sectors = SectorStructure.singletons(2)
        out = decohere(rho, sectors)
        np.testing.assert_allclose(out.matrix, 0.5 * np.eye(2), atol=1e-15)

    def test_trace_is_preserved_exactly(self):
        rng = np.random.default_rng(20240621)
        sectors = SectorStructure({"a": (0, 1), "b": (2, 3)},
                                  {"a": 0.0, "b": 1.0})
        for _ in range(20):
            rho = random_density(4, rng)
            out = decohere(rho, sectors)
            assert float(np.trace(out.matrix).real) == pytest.approx(
                1.0, abs=1e-14)

    def test_idempotence(self):
        rng = np.random.default_rng(20240622)
        sectors = SectorStructure({"a": (0, 2), "b": (1,)},
                                  {"a": -1.0, "b": 2.0})
        rho = random_density(3, rng)
        once = decohere(rho, sectors)
        twice = decohere(once, sectors)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=0.0)

    def test_purity_never_increases(self):
        rng = np.random.default_rng(20240623)
        sectors = SectorStructure({"a": (0, 1), "b": (2, 3, 4)},
                                  {"a": 0.0, "b": 1.0})
        for _ in range(100):
            rho = random_density(5, rng)
            assert purity(decohere(rho, sectors)) <= purity(rho) + 1e-12

    def test_pure_block_state_survives_unchanged(self):
        sectors = SectorStructure({"a": (0, 1), "b": (2,)},
                                  {"a": 0.0, "b": 1.0})
        v = np.array([0.6, 0.8, 0.0])
        rho = DensityMatrix(np.outer(v, v))
        out = decohere(rho, sectors)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=0.0)
        np.testing.assert_allclose(purity(out), 1.0, atol=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decohere(DensityMatrix(np.eye(3) / 3.0),
                     SectorStructure.singletons(2))

    def test_decohere_calls_no_eigvalsh(self, monkeypatch):
        # Positivity of a pinching follows from Cauchy interlacing.
        rho = random_density(8, np.random.default_rng(20240624))
        sectors = SectorStructure(
            {"a": (0, 3, 5), "b": (1, 2), "c": (4,), "d": (6,), "e": (7,)},
            {"a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0, "e": 1.0})
        calls = count_eigvalsh(monkeypatch)
        out = decohere(rho, sectors)
        assert calls == []
        mask = sectors.block_mask()
        assert np.array_equal(out.matrix, np.where(mask, rho.matrix, 0.0))


def choice_counts(rho, n, seed):
    """Oracle: the counts of n outcomes drawn one by one with Born
    weights and tallied, the sampler before the multinomial draw."""
    p = np.maximum(rho.diagonal_part(), 0.0)
    p = p / np.sum(p)
    outcomes = np.random.default_rng(seed).choice(rho.d, size=n, p=p)
    return np.bincount(outcomes, minlength=rho.d)


class TestBornSampling:
    """Branch weights become classical frequencies."""

    @settings(max_examples=200)
    @given(weights=st.lists(st.just(0.0) | st.floats(1e-3, 1.0),
                            min_size=1, max_size=8)
           .filter(lambda w: sum(w) > 0.0),
           n=st.integers(1, 2 ** 63 - 1), seed=st.integers(0, 2 ** 32))
    @example(weights=[1.0], n=2 ** 63 - 1, seed=0)
    @example(weights=[0.0, 0.5, 0.0, 0.5], n=1, seed=1)
    # numpy's multinomial gives the zero-weight last outcome 1 count here
    @example(weights=[1.0, 0.8233874127355948, 0.0], n=4099336588578296,
             seed=2)
    def test_counts_are_a_composition_of_n(self, weights, n, seed):
        p = np.array(weights) / math.fsum(weights)
        table = sample_outcomes(DensityMatrix(np.diag(p)), n, seed)
        assert np.all(table.counts >= 0)
        assert int(np.sum(table.counts)) == n
        assert np.all(table.counts[p == 0.0] == 0)

    @pytest.mark.parametrize("p", [[0.3, 0.7], [0.2, 0.0, 0.8],
                                   [0.05, 0.1, 0.15, 0.2, 0.25, 0.15, 0.1]])
    def test_mean_counts_agree_with_the_drawn_outcomes(self, p):
        # Counts over 2,000 seeds, against the counts of the outcomes
        # drawn one by one: every mean within 6 standard errors of the
        # difference.
        rho, n, seeds = DensityMatrix(np.diag(p)), 1000, range(2000)
        drawn = np.array([sample_outcomes(rho, n, s).counts for s in seeds])
        oracle = np.array([choice_counts(rho, n, 10 ** 6 + s)
                           for s in seeds])
        error = np.sqrt((drawn.var(axis=0, ddof=1)
                         + oracle.var(axis=0, ddof=1)) / len(seeds))
        gap = np.abs(drawn.mean(axis=0) - oracle.mean(axis=0))
        assert np.all(gap <= 6.0 * error)

    def test_a_diagonal_at_the_tolerance_edges_is_renormalised(self):
        # A diagonal entry of -0.9e-12 and a trace of 1 + 0.9e-12 pass
        # the constructor; clipped, the weights sum to 1 + 1.8e-12, and
        # only after dividing by that do they make a distribution.
        rho = DensityMatrix(np.diag([0.5 + 0.9e-12, 0.5 + 0.9e-12,
                                     -0.9e-12]))
        table = sample_outcomes(rho, 1000, seed=6)
        assert abs(math.fsum(table.probabilities) - 1.0) <= 1e-15
        assert table.counts[2] == 0 and int(np.sum(table.counts)) == 1000

    def test_a_billion_draws_allocate_no_array_of_draws(self):
        # The counts are one multinomial draw: O(d) memory whatever n,
        # where the draws one by one held 8 bytes each.
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        sample_outcomes(rho, 10 ** 9, seed=7)   # warm numpy's set-up
        tracemalloc.start()
        try:
            table = sample_outcomes(rho, 10 ** 9, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert table.within_3_sigma().all()

    def test_deterministic_outcome(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        freqs = sample_outcomes(rho, 1000, seed=1)
        assert freqs.counts[0] == 1000
        assert freqs.counts[1] == 0

    def test_measurement_chain_reproduces_born_weights_exactly(self):
        c = np.array([0.3, math.sqrt(0.91)])
        rho = reduced_density(entangle(c), "apparatus")
        diag = decohere(rho, SectorStructure.singletons(2))
        np.testing.assert_allclose(diag.diagonal_part(), [0.09, 0.91],
                                   atol=1e-15)
        assert diag.off_diagonal_max() == 0.0

    def test_flat_mixture_frequencies_within_three_sigma(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        freqs = sample_outcomes(rho, 100000, seed=2)
        assert freqs.within_3_sigma().all()

    def test_skewed_mixture_frequencies_within_three_sigma(self):
        rho = DensityMatrix(np.diag([0.09, 0.91]))
        freqs = sample_outcomes(rho, 100000, seed=3)
        assert freqs.within_3_sigma().all()
        np.testing.assert_allclose(freqs.probabilities, [0.09, 0.91],
                                   atol=1e-15)

    def test_coherent_state_cannot_be_sampled(self):
        rho = DensityMatrix(np.outer([0.6, 0.8], [0.6, 0.8]))
        with pytest.raises(ValueError):
            sample_outcomes(rho, 10, seed=4)

    def test_at_least_one_draw(self):
        with pytest.raises(ValueError):
            sample_outcomes(DensityMatrix(np.diag([1.0])), 0, seed=5)


class TestSectors:
    """Superselection defects and the charge commutator."""

    def make_sectors(self):
        return SectorStructure({"boson": (0, 1), "fermion": (2, 3)},
                               {"boson": 0.0, "fermion": 1.0})

    def test_elementary_cross_operator_defect(self):
        sectors = self.make_sectors()
        op = np.zeros((4, 4))
        op[0, 2] = 0.7
        np.testing.assert_allclose(sector_defect(op, sectors), 0.7,
                                   atol=0.0)

    def test_block_diagonal_operator_has_zero_defect_and_commutes(self):
        sectors = self.make_sectors()
        rng = np.random.default_rng(20240624)
        blocks = np.zeros((4, 4), dtype=complex)
        blocks[:2, :2] = rng.standard_normal((2, 2))
        blocks[2:, 2:] = rng.standard_normal((2, 2))
        assert sector_defect(blocks, sectors) == 0.0
        assert charge_commutator_norm(blocks, sectors) == 0.0

    def test_commutator_norm_of_a_cross_operator(self):
        # [S, F]_ij = (s_i - s_j) F_ij, so a unit cross element between
        # charges 0 and 1 gives norm exactly 1.
        sectors = self.make_sectors()
        op = np.zeros((4, 4))
        op[0, 2] = 1.0
        np.testing.assert_allclose(charge_commutator_norm(op, sectors),
                                   1.0, atol=0.0)

    def test_defect_commutes_iff_block_diagonal(self):
        sectors = self.make_sectors()
        rng = np.random.default_rng(20240625)
        for _ in range(20):
            op = rng.standard_normal((4, 4)) \
                + 1j * rng.standard_normal((4, 4))
            defect = sector_defect(op, sectors)
            comm = charge_commutator_norm(op, sectors)
            assert (defect == 0.0) == (comm == 0.0)
            # the commutator entries are (s_i - s_j) F_ij; with unit
            # charge gap its norm equals the defect
            np.testing.assert_allclose(comm, defect, atol=1e-15)

    @pytest.mark.parametrize("d", [3, 8, 50])
    def test_commutator_matches_the_dense_products(self, d):
        # The per-index form s_i F_ij - F_ij s_j against S F - F S from
        # two dense products: equal bit for bit on finite input.
        rng = np.random.default_rng(d)
        groups = np.split(rng.permutation(d), [1, d // 2])
        sectors = SectorStructure(
            {k: tuple(g) for k, g in enumerate(groups)},
            {k: float(q) for k, q in enumerate(rng.standard_normal(3))})
        owner = {int(i): k for k, g in enumerate(groups) for i in g}
        s = np.diag([sectors.charges[owner[i]] for i in range(d)])
        for _ in range(10):
            op = rng.standard_normal((d, d)) \
                + 1j * rng.standard_normal((d, d))
            assert charge_commutator_norm(op, sectors) \
                == float(np.max(np.abs(s @ op - op @ s)))

    def test_operator_shape_guard(self):
        with pytest.raises(ValueError):
            sector_defect(np.eye(3), self.make_sectors())

    def test_mask_and_charges_match_the_pairwise_definition(self):
        rng = np.random.default_rng(20240624)
        order = rng.permutation(9)
        labels = [("x", 1), 2.5, "z", frozenset({4})]
        cuts = np.split(order, [2, 5, 6])
        sectors = SectorStructure(
            {lab: tuple(idx) for lab, idx in zip(labels, cuts)},
            {lab: q for lab, q in zip(labels, (-1.5, 0.25, 3.0, 0.1))})
        owner = {int(i): lab for lab, idx in sectors.sectors.items()
                 for i in idx}
        mask = np.array([[owner[i] == owner[j] for j in range(9)]
                         for i in range(9)])
        charge = np.diag([sectors.charges[owner[i]] for i in range(9)])
        assert sectors.d == 9
        assert np.array_equal(sectors.block_mask(), mask)
        op = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert charge_commutator_norm(op, sectors) \
            == float(np.max(np.abs(charge @ op - op @ charge)))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            SectorStructure({"a": (0, 1), "b": (1, 2)},
                            {"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError):
            SectorStructure({"a": (0, 2)}, {"a": 0.0})
        with pytest.raises(ValueError):
            SectorStructure({"a": (0,)}, {"b": 0.0})


class TestRotation:
    """Full-turn rotations and the spin-statistics sector rule."""

    def test_integer_spins_are_untouched(self):
        state = np.array([0.6, 0.8j])
        out = rotation_2pi(state, [0.0, 1.0])
        np.testing.assert_allclose(out, state, atol=0.0)

    def test_half_integer_spins_flip_sign(self):
        state = np.array([1.0, -2.0j])
        out = rotation_2pi(state, [0.5, 1.5])
        np.testing.assert_allclose(out, -state, atol=0.0)

    def test_mixed_superposition_leaves_its_ray(self):
        # (boson + fermion)/sqrt 2 -> (boson - fermion)/sqrt 2, which is
        # orthogonal to the original: overlap exactly zero.
        state = np.array([1.0, 1.0]) / math.sqrt(2.0)
        out = rotation_2pi(state, [0.0, 0.5])
        np.testing.assert_allclose(out,
                                   np.array([1.0, -1.0]) / math.sqrt(2.0),
                                   atol=1e-15)
        assert abs(np.vdot(state, out)) < 1e-15

    def test_involution_up_to_a_global_sign(self):
        rng = np.random.default_rng(20240626)
        state = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        spins = np.array([0.0, 0.5, 1.0, 1.5])
        twice = rotation_2pi(rotation_2pi(state, spins), spins)
        np.testing.assert_allclose(twice, state, atol=0.0)

    def test_bad_spin_labels_rejected(self):
        with pytest.raises(ValueError):
            rotation_2pi(np.array([1.0]), [0.3])
        with pytest.raises(ValueError):
            rotation_2pi(np.array([1.0, 0.0]), [0.5])


def complex_wishart(d, rank, seed):
    """Oracle: L L†/tr L L† as one complex product, with the d×k
    Bartlett factor L (k = min(d, rank)) redrawn from the seed: complex
    normals X + iY below the diagonal, drawn as one (count, 2) block in
    row-major order, then L_ii = √χ²_{2(rank−i)}; also the row norms of
    L and the trace."""
    rng = np.random.default_rng(seed)
    k = min(d, rank)
    below = np.tril(np.ones((d, k), dtype=bool), -1)
    z = rng.standard_normal((np.count_nonzero(below), 2))
    f = np.zeros((d, k), dtype=complex)
    f[below] = z[:, 0] + 1j * z[:, 1]
    f[np.arange(k), np.arange(k)] = np.sqrt(
        rng.chisquare(2 * (rank - np.arange(k))))
    gram = f @ f.conj().T
    trace = np.trace(gram).real
    return gram / trace, np.linalg.norm(f, axis=1), trace


def direct_wishart_purities(d, rank, n, rng):
    """Oracle: purities Σ|ρ_ij|² of n normalized A A† with A = X + iY of
    shape (d, rank) drawn directly, the sampler before the Bartlett
    factor."""
    a = rng.standard_normal((n, d, rank)) + 1j * rng.standard_normal(
        (n, d, rank))
    gram = a @ a.conj().transpose(0, 2, 1)
    rho = gram / np.trace(gram, axis1=1, axis2=2).real[:, None, None]
    return np.sum(np.abs(rho) ** 2, axis=(1, 2))


class TestRandomDensity:
    def test_gram_bound_replaces_eigvalsh(self, monkeypatch):
        # The Gram rounding bound 2γ_{k+3}, k = min(d, rank), is within
        # 1e-12 up to k = 4500, so neither call runs an eigvalsh.
        rng = np.random.default_rng(20240629)
        calls = count_eigvalsh(monkeypatch)
        random_density(64, rng)
        random_density(2, rng, rank=10_000)
        assert calls == []
        # Past the bound the constructor's checks run once: at 1e-14,
        # 2γ_{67} ≈ 1.5e-14 crosses it for d = 64.
        monkeypatch.setattr(measurement, "_EIG_TOL", 1e-14)
        rho = random_density(64, rng)
        assert calls == [64]
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 0] = -5
        assert float(np.trace(rho.matrix).real) == pytest.approx(1.0,
                                                                 abs=1e-12)

    @settings(max_examples=40)
    @given(d=st.integers(1, 40), rank=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(d=5, rank=1, seed=0)
    @example(d=3, rank=50, seed=1)
    @example(d=300, rank=7, seed=2)     # five row blocks, a d×d output
    @example(d=260, rank=300, seed=3)   # five row blocks, in L's buffer
    def test_exactly_hermitian_and_the_complex_formula(self, d, rank, seed):
        m = random_density(d, np.random.default_rng(seed), rank).matrix
        assert np.array_equal(m, m.conj().T)
        want, norms, trace = complex_wishart(d, rank, seed)
        # Entry (i, j) before normalization: both Grams sum
        # min(i, j) + 1 ≤ k complex products, so each is off by
        # γ_{k+2}(|L||L|ᵀ)_ij (Higham §3.6), and the tile average adds
        # one rounding here: γ_{k+3}.  Each trace sums d diagonal
        # entries, each within that relative bound of ‖l_i‖²: relative
        # error γ_{k+d+2}, and dividing by it costs as much to first
        # order.  The scaling adds two roundings here (1/trace, then the
        # product) and one in the oracle (the division).  Relative to
        # (|L||L|ᵀ)_ij/tr ≤ ‖l_i‖‖l_j‖/tr that is (2k + d + 7)·u and
        # (2k + d + 4)·u; 3u more covers the second-order terms.
        k = min(d, rank)
        n = 4 * k + 2 * d + 14
        u = np.finfo(float).eps / 2
        bound = n * u / (1 - n * u) * np.outer(norms, norms) / trace
        assert np.all(np.abs(m - want) <= bound)

    @pytest.mark.parametrize("d, rank", [(4, 4), (3, 7), (6, 2)])
    def test_purity_law_matches_the_direct_sampler(self, d, rank):
        # E Tr ρ² = (d + r)/(dr + 1) for the normalized A A† (Życzkowski
        # and Sommers): the mean purity of the Bartlett draw and of the
        # direct A A† sampler each lie within 6 standard errors of it.
        n = 20_000
        rng = np.random.default_rng([20240701, d, rank])
        expected = (d + rank) / (d * rank + 1)
        drawn = np.array([purity(random_density(d, rng, rank))
                          for _ in range(n)])
        direct = direct_wishart_purities(d, rank, n, rng)
        for sample in (drawn, direct):
            error = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - expected) <= 6.0 * error

    def test_peak_allocation_is_two_buffers(self):
        # The ceiling of the direct A A† sampler, which held its draws
        # and its Gram as two (2, d, d) real buffers of 16·d² bytes
        # each: the Bartlett draw, counted cold with numpy's set-up,
        # stays within it at full rank.
        d = 512
        rng = np.random.default_rng(20240630)
        tracemalloc.start()
        try:
            random_density(d, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * d * d + 2 ** 20

    def test_peak_allocation_is_one_buffer(self):
        # rank ≥ d: L, the d×d Gram and the output share one buffer of
        # 16·d² bytes; the block temporaries are one buffer of
        # b = _GRAM_ROWS rows of L (the normals, then conj(L_I)), 16·b·d
        # bytes.  The slack holds the b×b tile products, the row masks
        # and numpy's ufunc buffers for the transposed tiles (about
        # 0.35 MiB); a second such buffer, 0.5 MiB at d = 512, exceeds
        # it.  rank < d: the d×k factor L and a separate d×d output.
        d, k, b = 512, 64, measurement._GRAM_ROWS
        rng = np.random.default_rng(20240630)
        random_density(8, rng)   # numpy's one-time set-up is not counted
        for rank, plan in ((d, 16 * d * d + 16 * b * d),
                           (k, 16 * d * d + 16 * d * k + 16 * b * k)):
            tracemalloc.start()
            try:
                random_density(d, rng, rank)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= plan + 3 * 2 ** 18, rank

    def test_rank_control(self):
        rng = np.random.default_rng(20240627)
        rho = random_density(5, rng, rank=2)
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.all(evals[:3] < 1e-12)
        assert np.all(evals[3:] > 1e-12)


@st.composite
def sector_partitions(draw):
    """A labeled partition of 0..d-1 (d <= 10) with shuffled indices and
    possibly repeated charges, as a plain dict and as a SectorStructure."""
    d = draw(st.integers(1, 10))
    owners = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    order = draw(st.permutations(range(d)))
    groups = {}
    for index, owner in zip(order, owners):
        groups.setdefault(owner, []).append(index)
    charges = {k: float(draw(st.integers(-2, 2))) for k in groups}
    return groups, SectorStructure(groups, charges)


def same_sector(groups, d):
    """Pairwise oracle for the block mask: True where i and j share a
    group."""
    owner = {i: k for k, idx in groups.items() for i in idx}
    return np.array([[owner[i] == owner[j] for j in range(d)]
                     for i in range(d)])


class TestSectorProperties:
    """Decoherence and sector algebra over generated partitions."""

    @settings(max_examples=60)
    @given(partition=sector_partitions(), seed=st.integers(0, 2 ** 32 - 1))
    def test_decohere_is_an_exact_pinching(self, partition, seed):
        groups, sectors = partition
        rho = random_density(sectors.d, np.random.default_rng(seed))
        once = decohere(rho, sectors)
        assert np.array_equal(decohere(once, sectors).matrix, once.matrix)
        assert np.trace(once.matrix) == np.trace(rho.matrix)
        assert purity(once) <= purity(rho) + 1e-12
        cross = ~same_sector(groups, sectors.d)
        assert np.all(once.matrix[cross] == 0.0)
        assert np.array_equal(once.matrix[~cross], rho.matrix[~cross])

    @settings(max_examples=60)
    @given(partition=sector_partitions(), seed=st.integers(0, 2 ** 32 - 1))
    def test_block_diagonal_operators_are_physical(self, partition, seed):
        groups, sectors = partition
        d = sectors.d
        rng = np.random.default_rng(seed)
        op = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) \
            * same_sector(groups, d)
        assert sector_defect(op, sectors) == 0.0
        assert charge_commutator_norm(op, sectors) == 0.0
        cross = np.argwhere(~same_sector(groups, d))
        if cross.size:
            i, j = cross[rng.integers(len(cross))]
            op[i, j] = 0.25 - 0.5j
            assert sector_defect(op, sectors) == abs(0.25 - 0.5j)

    @settings(max_examples=60)
    @given(partition=sector_partitions(), seed=st.integers(0, 2 ** 32 - 1),
           defect=st.floats(1e-15, 0.9e-12))
    def test_decohere_never_raises_the_hermitian_defect(self, partition,
                                                        seed, defect):
        # decohere skips the Hermiticity check: its symmetric mask keeps
        # or zeroes an entry together with its mirror.
        _, sectors = partition
        d = sectors.d
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        noise[np.diag_indices(d)] = 1j * np.diag(noise).imag   # trace kept
        noise *= defect / _hermitian_defect(noise)
        rho = DensityMatrix(0.5 * random_density(d, rng).matrix
                            + 0.5 * np.eye(d) / d + noise)
        before = _hermitian_defect(rho.matrix)
        assert 0.0 < before <= 1e-12
        assert _hermitian_defect(decohere(rho, sectors).matrix) <= before

    @settings(max_examples=120)
    @given(partition=sector_partitions(), seed=st.integers(0, 2 ** 32 - 1),
           lowest=st.sampled_from([None, 0.0, -0.5e-12, -0.99e-12,
                                   -1.01e-12, -1.5e-12, -1e-3]),
           where=st.integers(0, 9), aligned=st.booleans())
    @example(partition=({"a": [0, 1, 2], "b": [3]},
                        SectorStructure({"a": (0, 1, 2), "b": (3,)},
                                        {"a": 1.0, "b": 1.0})),
             seed=7, lowest=-0.99e-12, where=1, aligned=True)
    def test_decohere_of_a_valid_rho_passes_the_dense_check(
            self, partition, seed, lowest, where, aligned):
        # Unit-trace matrices whose lowest eigenvalue sits at a chosen
        # index, on either side of -1e-12, with eigenvectors spread over
        # all indices or kept inside the sectors (then the pinching is ρ
        # itself).  The constructor's eigvalsh rejects the invalid ones;
        # by Cauchy interlacing the pinching of a valid one passes the
        # dense eigvalsh that decohere skips.
        groups, sectors = partition
        d = sectors.d
        rng = np.random.default_rng(seed)
        eigs = rng.uniform(0.1, 1.0, d)
        if lowest is not None and d > 1:
            eigs[where % d] = lowest
            rest = np.arange(d) != where % d
            eigs[rest] *= (1.0 - lowest) / np.sum(eigs[rest])
        else:
            eigs /= np.sum(eigs)
        q = np.zeros((d, d), dtype=complex)
        for idx in (groups.values() if aligned else [list(range(d))]):
            k = len(idx)
            q[np.ix_(idx, idx)], _ = np.linalg.qr(
                rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        m = (q * eigs) @ q.conj().T
        if lowest is not None and d > 1 and lowest < -1e-12:
            with pytest.raises(ValueError, match="eigenvalue below"):
                DensityMatrix(m)
            return
        rho = DensityMatrix(m)
        out = decohere(rho, sectors)
        if aligned:
            assert np.array_equal(out.matrix, rho.matrix)
        assert float(np.min(np.linalg.eigvalsh(out.matrix))) >= -1e-12
        DensityMatrix(out.matrix)
