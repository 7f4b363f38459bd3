"""Tests for the periodic oscillator chain: normal modes, symplectic
dynamics, Gibbs sampling, multimode ladder algebra, and the continuum
and nonrelativistic limits.

Oracles: dense eigendecomposition of an independently assembled
coupling matrix for the dispersion law, the orthonormal inverse DFT
(``inverse_transform``) for the mode transform, the kick–drift–kick
stepping loop for the closed-form leapfrog map, direct Hamiltonian
evaluation for energy bookkeeping, a windowed and zero-padded FFT of a
single-mode trajectory for the oscillation frequency, and closed-form
lattice/continuum frequencies for the limit studies.
"""

import contextlib
import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermofock import chain as chain_mod
from thermofock import errors as errors_mod
from thermofock.chain import (
    ChainSpec,
    ChainState,
    MultiModeFockVector,
    continuum_limit_error,
    evolve,
    fock_inner,
    gibbs_sample,
    hamiltonian,
    hamiltonian_operator_apply,
    mm_lowered,
    mm_raised,
    mode_energies,
    mode_transform,
    nonrelativistic_overlap,
    normal_modes,
    rescaled_modes,
    standard_packet,
    total_energies,
)
from thermofock.cli import main
from thermofock.errors import NumericalGuardError

# log-uniform over the whole double range, 0 and subnormals included
LOG_FLOATS = st.floats(-324.0, 308.25).map(lambda e: 10.0 ** e)


def dense_coupling(spec):
    """Independently assembled q-coupling matrix for the eigh oracle."""
    n = spec.n_sites
    gamma_eff = spec.gamma / spec.spacing ** 2
    mat = np.zeros((n, n))
    for j in range(n):
        mat[j, j] = spec.mass ** 2 + 2.0 * gamma_eff
        mat[j, (j + 1) % n] -= gamma_eff
        mat[j, (j - 1) % n] -= gamma_eff
    return mat


def inverse_transform(modes, spec):
    """Named oracle of ``mode_transform``: the orthonormal inverse DFT,
    q_n = N^{-1/2} sum_k u(k) e^{i k a n} (same for p), complex-valued
    so that a round trip shows any imaginary residue."""
    root_n = math.sqrt(spec.n_sites)
    return np.fft.ifft(modes.u) * root_n, np.fft.ifft(modes.p) * root_n


def one_shot_gibbs(spec, beta, n, seed):
    """Named oracle of ``gibbs_sample``: the whole (n, N) noise ξ in one
    draw, q = irfft(rfft(ξ)/sqrt(β ω²)), then p as the generator's next
    (n, N) draw over √β."""
    omega2 = spec.dispersion(spec.k_grid()[: spec.n_sites // 2 + 1]) ** 2
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n, spec.n_sites))
    q = np.fft.irfft(np.fft.rfft(xi, axis=1) / np.sqrt(beta * omega2),
                     n=spec.n_sites, axis=1)
    p = rng.standard_normal((n, spec.n_sites)) / math.sqrt(beta)
    return q, p


def _force(q, spec):
    lap = np.roll(q, -1) - 2.0 * q + np.roll(q, 1)
    return -spec.mass ** 2 * q + spec.spring * lap


def leapfrog_loop(state, spec, dt, steps):
    """Oracle: the kick–drift–kick stepping loop, stacked (q, p) rows.

    The closing kick's force opens the next step, so the loop evaluates
    the force steps + 1 times."""
    q, p = state.q.copy(), state.p.copy()
    qs = np.empty((steps + 1, q.size))
    ps = np.empty((steps + 1, q.size))
    qs[0], ps[0] = q, p
    force = _force(q, spec)
    for i in range(1, steps + 1):
        p = p + 0.5 * dt * force
        q = q + dt * p
        force = _force(q, spec)
        p = p + 0.5 * dt * force
        qs[i], ps[i] = q, p
    return qs, ps


def random_state(rng, n):
    return ChainState(rng.standard_normal(n), rng.standard_normal(n))


def occupation_state(spec, occ, hbar=1.0, cutoff=None):
    cutoff = max(occ) + 2 if cutoff is None else cutoff
    return MultiModeFockVector(spec.n_sites, cutoff, {tuple(occ): 1.0},
                               hbar)


class TestNormalModes:
    """Dispersion law against a dense eigensolver."""

    @pytest.mark.parametrize("n_sites", [8, 64])
    def test_dispersion_matches_eigendecomposition(self, n_sites):
        spec = ChainSpec(n_sites=n_sites, spacing=0.9, mass=0.7, gamma=1.3)
        modes = normal_modes(spec)
        expected = np.sort(np.sqrt(np.linalg.eigvalsh(dense_coupling(spec))))
        np.testing.assert_allclose(np.sort(modes.omega), expected,
                                   atol=1e-10)

    def test_closed_form_frequencies(self):
        spec = ChainSpec(n_sites=6, spacing=1.0, mass=0.5, gamma=2.0)
        modes = normal_modes(spec)
        for k, omega in zip(modes.k, modes.omega):
            omega_sq = 0.25 + 8.0 * math.sin(k / 2.0) ** 2
            np.testing.assert_allclose(omega ** 2, omega_sq, atol=1e-12)

    def test_transform_is_unitary(self):
        spec = ChainSpec(n_sites=16)
        rng = np.random.default_rng(5)
        state = random_state(rng, 16)
        modes = mode_transform(state, spec)
        np.testing.assert_allclose(np.sum(np.abs(modes.u) ** 2),
                                   np.sum(state.q ** 2), atol=1e-10)
        q, p = inverse_transform(modes, spec)
        np.testing.assert_allclose(q, state.q, atol=1e-12)
        np.testing.assert_allclose(p, state.p, atol=1e-12)


class TestEnergyBookkeeping:
    """The Hamiltonian splits exactly over the modes."""

    def test_mode_energies_sum_to_the_hamiltonian(self):
        spec = ChainSpec(n_sites=12, spacing=0.6, mass=0.8, gamma=1.7)
        rng = np.random.default_rng(6)
        for _ in range(20):
            state = random_state(rng, 12)
            modes = mode_transform(state, spec)
            np.testing.assert_allclose(np.sum(mode_energies(modes)),
                                       hamiltonian(state, spec), atol=1e-10)

    def test_rescaled_amplitudes_reproduce_the_hamiltonian(self):
        # H = omega_bar * sum_k |a_k|^2 with the reference frequency
        # omega_bar = sqrt(m^2 + gamma/a^2) of the rescaling.
        spec = ChainSpec(n_sites=10, spacing=1.0, mass=1.1, gamma=0.9)
        rng = np.random.default_rng(7)
        state = random_state(rng, 10)
        modes = mode_transform(state, spec)
        np.testing.assert_allclose(
            spec.omega_ref * np.sum(np.abs(rescaled_modes(modes, spec)) ** 2),
            hamiltonian(state, spec), atol=1e-10)
        np.testing.assert_allclose(spec.omega_ref,
                                   math.sqrt(1.1 ** 2 + 0.9), atol=1e-14)
        # plain amplitudes weight each mode by its own frequency
        np.testing.assert_allclose(
            np.sum(modes.omega * np.abs(chain_mod._amplitudes(modes)) ** 2),
            hamiltonian(state, spec), atol=1e-10)

    def test_batched_energies(self):
        spec = ChainSpec(n_sites=8)
        rng = np.random.default_rng(8)
        q = rng.standard_normal((5, 8))
        p = rng.standard_normal((5, 8))
        batch = total_energies(q, p, spec)
        singles = [hamiltonian(ChainState(q[i], p[i]), spec)
                   for i in range(5)]
        np.testing.assert_allclose(batch, singles, atol=1e-10)


class TestDynamics:
    """Symplectic integration: conservation, spectra, reversal."""

    def test_energy_conservation_at_small_step(self):
        spec = ChainSpec(n_sites=16)
        rng = np.random.default_rng(9)
        state = random_state(rng, 16)
        traj = evolve(state, spec, dt=5e-6, steps=2000)
        energies = traj.energies(spec)
        drift = np.max(np.abs(energies - energies[0])) / energies[0]
        assert drift < 1e-10

    def test_energy_oscillation_is_bounded_without_secular_drift(self):
        spec = ChainSpec(n_sites=16)
        rng = np.random.default_rng(19)
        state = random_state(rng, 16)
        traj = evolve(state, spec, dt=0.05, steps=10000)
        dev = np.abs(traj.energies(spec) - hamiltonian(state, spec))
        dev /= hamiltonian(state, spec)
        assert dev.max() < 2e-3
        quarter = dev.size // 4
        assert dev[-quarter:].max() < 1.5 * dev[:quarter].max()

    def test_zero_state_stays_zero(self):
        spec = ChainSpec(n_sites=8)
        traj = evolve(ChainState(np.zeros(8), np.zeros(8)), spec, dt=0.05, steps=100)
        np.testing.assert_allclose(traj.q[-1], np.zeros(8), atol=0.0)
        np.testing.assert_allclose(traj.p[-1], np.zeros(8), atol=0.0)

    def test_mode_oscillates_at_its_dispersion_frequency(self):
        # Excite one traveling normal mode, evolve ~100 periods, and
        # read the frequency off the Hann-windowed, zero-padded FFT of
        # the complex normal coordinate with parabolic interpolation.
        # The symplectic phase shift (omega dt)^2/24 ~ 7e-6 and the
        # interpolation bias are both far below the 1e-4 target.
        spec = ChainSpec(n_sites=16)
        modes = normal_modes(spec)
        idx = 3
        omega = modes.omega[idx]
        sites = np.arange(16) * spec.spacing
        state = ChainState(np.cos(modes.k[idx] * sites),
                           omega * np.sin(modes.k[idx] * sites))
        omega_max = modes.omega.max()
        dt = 0.02 / omega_max
        steps = int(round(100.0 * 2.0 * math.pi / (omega * dt)))
        traj = evolve(state, spec, dt=dt, steps=steps)
        series = np.fft.fft(traj.q, axis=1)[:, idx] / 4.0
        window = np.hanning(series.size)
        nfft = 8 * series.size
        spectrum = np.abs(np.fft.fft(series * window, n=nfft))
        freqs = 2.0 * math.pi * np.fft.fftfreq(nfft, d=dt)
        peak = int(np.argmax(spectrum))
        left = spectrum[(peak - 1) % nfft]
        mid = spectrum[peak]
        right = spectrum[(peak + 1) % nfft]
        shift = 0.5 * (left - right) / (left - 2.0 * mid + right)
        df = freqs[1] - freqs[0]
        measured = abs(freqs[peak] + shift * df)
        assert abs(measured - omega) / omega < 1e-4

    def test_time_reversal(self):
        spec = ChainSpec(n_sites=12, spacing=0.8, mass=0.9, gamma=1.2)
        rng = np.random.default_rng(10)
        state = random_state(rng, 12)
        fwd = evolve(state, spec, dt=0.02, steps=500)
        back = evolve(ChainState(fwd.q[-1], -fwd.p[-1]), spec, dt=0.02,
                      steps=500)
        np.testing.assert_allclose(back.q[-1], state.q, atol=1e-8)
        np.testing.assert_allclose(-back.p[-1], state.p, atol=1e-8)

    def test_one_force_evaluation_per_step(self, monkeypatch):
        # The oracle loop reuses the closing kick's force to open the
        # next step: steps + 1 evaluations, bit for bit the textbook
        # two-force kick-drift-kick loop.
        spec = ChainSpec(n_sites=16, spacing=0.9, mass=0.7, gamma=1.3)
        state = random_state(np.random.default_rng(23), 16)
        dt, steps = 0.03, 400
        q, p = state.q.copy(), state.p.copy()
        for _ in range(steps):
            p = p + 0.5 * dt * _force(q, spec)
            q = q + dt * p
            p = p + 0.5 * dt * _force(q, spec)
        calls = []

        def counted(q_, spec_, force=_force):
            calls.append(1)
            return force(q_, spec_)
        monkeypatch.setitem(globals(), "_force", counted)
        qs, ps = leapfrog_loop(state, spec, dt, steps)
        assert len(calls) == steps + 1
        assert np.array_equal(qs[-1], q)
        assert np.array_equal(ps[-1], p)

    @pytest.mark.parametrize("n_sites, params, dt_over, steps, mean_p", [
        (16, {}, 0.1, 2000, 0.0),
        (16, {}, 1e-5, 2000, 0.0),
        (17, dict(spacing=0.7, mass=0.3, gamma=1.9), 0.5, 3000, 0.0),
        (33, dict(mass=0.0), 0.1, 2000, 0.4),
        (32, dict(mass=0.0, spacing=1.3, gamma=0.6), 0.3, 2000, -0.7),
        (16, {}, 1.999, 3000, 0.0),
        (15, dict(spacing=0.5, gamma=2.5), 1.999, 3000, 0.0),
        (64, {}, 0.1, 20_000, 0.0),
    ])
    def test_closed_form_matches_the_stepping_loop(self, n_sites, params,
                                                   dt_over, steps, mean_p):
        # Every row of q and p, relative to the largest |q|, |p|; the
        # m = 0 cases drift the uniform mode (Ω = 0, sin(nθ)/Ω = n dt),
        # and at dt = 1e-5/ω_max θ = arccos(c) would lose half its digits.
        spec = ChainSpec(n_sites=n_sites, **params)
        rng = np.random.default_rng(n_sites + steps)
        state = ChainState(rng.standard_normal(n_sites),
                           rng.standard_normal(n_sites) + mean_p)
        dt = dt_over / normal_modes(spec).omega.max()
        traj = evolve(state, spec, dt=dt, steps=steps)
        qs, ps = leapfrog_loop(state, spec, dt, steps)
        scale = max(np.max(np.abs(qs)), np.max(np.abs(ps)))
        np.testing.assert_allclose(np.asarray(traj.q), qs, rtol=0.0,
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(np.asarray(traj.p), ps, rtol=0.0,
                                   atol=1e-10 * scale)
        np.testing.assert_array_equal(traj.times, dt * np.arange(steps + 1))

    @pytest.mark.parametrize("stride", [1, 3, 7, 200])
    def test_row_views_agree_with_the_materialised_array(self, stride):
        spec = ChainSpec(n_sites=12, spacing=0.8, mass=0.9, gamma=1.2)
        state = random_state(np.random.default_rng(31), 12)
        steps = 100
        traj = evolve(state, spec, dt=0.05, steps=steps)
        for rows in (traj.q, traj.p):
            full = np.asarray(rows)
            scale = np.max(np.abs(full))
            assert rows.shape == full.shape == (steps + 1, 12)
            assert rows[-1].shape == (12,)
            strided = rows[::stride]
            assert strided.shape == (-(-(steps + 1) // stride), 12)
            np.testing.assert_allclose(rows[-1], full[-1], rtol=0.0,
                                       atol=1e-14 * scale)
            np.testing.assert_allclose(rows[7], full[7], rtol=0.0,
                                       atol=1e-14 * scale)
            np.testing.assert_allclose(strided, full[::stride], rtol=0.0,
                                       atol=1e-14 * scale)
        np.testing.assert_allclose(traj.q[0], state.q, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(traj.p[0], state.p, rtol=0.0, atol=1e-14)

    def test_evolve_stores_no_history(self):
        # 4001 rows of q and p at N = 512 would take 33 MB; the closed
        # form keeps the initial modes and the per-mode rotation only.
        spec = ChainSpec(n_sites=512)
        state = random_state(np.random.default_rng(37), 512)
        tracemalloc.start()
        try:
            traj = evolve(state, spec, steps=4000)
            last = traj.q[-1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert last.shape == (512,)
        assert peak < 1e6

    @pytest.mark.parametrize("steps", [-1, -5])
    def test_negative_step_count_is_rejected(self, steps):
        with pytest.raises(ValueError):
            evolve(ChainState(np.zeros(8), np.zeros(8)), ChainSpec(n_sites=8), steps=steps)

    def test_stability_limit_is_enforced(self):
        spec = ChainSpec(n_sites=8)
        omega_max = normal_modes(spec).omega.max()
        with pytest.raises(ValueError):
            evolve(ChainState(np.zeros(8), np.zeros(8)), spec, dt=2.0 / omega_max, steps=1)


class TestGibbsSampling:
    """Thermal equilibrium statistics of the sampled ensemble."""

    def test_equipartition_per_mode(self):
        spec = ChainSpec(n_sites=8)
        beta = 1.0
        n = 100000
        q, p = gibbs_sample(spec, beta, n, seed=12)
        omega = normal_modes(spec).omega
        u = np.fft.fft(q, axis=1) / math.sqrt(8)
        v = np.fft.fft(p, axis=1) / math.sqrt(8)
        energies = 0.5 * (np.abs(v) ** 2 + omega ** 2 * np.abs(u) ** 2)
        for k in range(8):
            mean = energies[:, k].mean()
            stderr = energies[:, k].std(ddof=1) / math.sqrt(n)
            assert abs(mean - 1.0 / beta) < 3.0 * stderr

    def test_total_energy_matches_the_equipartition_sum(self):
        spec = ChainSpec(n_sites=8)
        beta = 2.0
        n = 100000
        q, p = gibbs_sample(spec, beta, n, seed=13)
        values = total_energies(q, p, spec)
        stderr = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - 8.0 / beta) < 3.0 * stderr

    def test_sample_shapes_and_dtypes(self):
        spec = ChainSpec(n_sites=6)
        q, p = gibbs_sample(spec, 1.0, 100, seed=14)
        assert q.dtype == np.float64 and p.dtype == np.float64
        assert q.shape == (100, 6) and p.shape == (100, 6)

    def test_massless_chain_is_rejected(self):
        spec = ChainSpec(n_sites=6, mass=0.0)
        with pytest.raises(NumericalGuardError):
            gibbs_sample(spec, 1.0, 10, seed=15)

    @pytest.mark.parametrize("n_sites, spacing, mass, gamma, beta", [
        (5, 0.7, 0.2, 1.3, 1.0),
        (8, 1.0, 1.0, 1.0, 2.0),
        (33, 0.25, 0.5, 2.0, 0.5),
        (64, 2.0, 3.0, 0.4, 1.7),
    ])
    def test_positions_are_the_symmetric_square_root_of_the_covariance(
            self, n_sites, spacing, mass, gamma, beta):
        # Oracle: q = ξ S with S = V diag(1/sqrt(β λ)) Vᵀ = (β M)^{-1/2}
        # from the dense eigendecomposition of the coupling matrix, for
        # the same white noise ξ; momenta are the generator's next draw.
        spec = ChainSpec(n_sites, spacing, mass, gamma)
        n, seed = 50, 31
        q, p = gibbs_sample(spec, beta, n, seed)
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((n, n_sites))
        evals, evecs = np.linalg.eigh(spec.coupling_matrix())
        root = (evecs / np.sqrt(beta * evals)) @ evecs.T
        expected = xi @ root
        assert np.max(np.abs(q - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(
            p, rng.standard_normal((n, n_sites)) / math.sqrt(beta))

    @pytest.mark.parametrize("n_sites", [5, 64, 2048])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1),
                                                (3, 5)],
                             ids=["b-1", "b", "b+1", "3b+5"])
    def test_row_blocks_give_the_one_shot_sample_bit_for_bit(
            self, n_sites, blocks, extra):
        rows = max(1, errors_mod._BLOCK_ELEMENTS // n_sites)
        n = blocks * rows + extra
        spec = ChainSpec(n_sites, 0.8, 0.6, 1.2)
        q, p = gibbs_sample(spec, 2.0, n, seed=21)
        expected_q, expected_p = one_shot_gibbs(spec, 2.0, n, seed=21)
        assert q.shape == p.shape == (n, n_sites)
        assert np.array_equal(q, expected_q)
        assert np.array_equal(p, expected_p)

    def test_equipartition_table_is_that_of_the_one_shot_sample(
            self, monkeypatch):
        # The table of the whole-array form: the one-shot sample, and
        # the mode energies of all 2000 x 64 entries in one block.
        argv = ["chain", "--experiment", "equipartition", "--samples",
                "2000", "--seed", "5"]

        def table():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            return out.getvalue()

        blocked = table()
        monkeypatch.setattr(chain_mod, "gibbs_sample", one_shot_gibbs)
        monkeypatch.setattr(errors_mod, "_BLOCK_ELEMENTS", 2000 * 64)
        assert blocked == table()

    def test_massless_amplitudes_are_rejected(self):
        spec = ChainSpec(n_sites=6, mass=0.0)
        rng = np.random.default_rng(20)
        modes = mode_transform(random_state(rng, 6), spec)
        with pytest.raises(NumericalGuardError):
            rescaled_modes(modes, spec)


class TestMultiModeLadders:
    """Occupation-number algebra over several modes."""

    def test_commutators_between_distinct_modes_vanish(self):
        spec = ChainSpec(n_sites=4)
        rng = np.random.default_rng(16)
        coeffs = {}
        for occ in [(0, 0, 0, 0), (1, 0, 2, 0), (0, 1, 1, 1), (2, 2, 0, 1)]:
            coeffs[occ] = complex(*rng.standard_normal(2))
        state = MultiModeFockVector(4, 4, coeffs, hbar=1.0)
        lower_then_raise = mm_raised(mm_lowered(state, 1), 2)
        raise_then_lower = mm_lowered(mm_raised(state, 2), 1)
        gap = lower_then_raise.add_scaled(raise_then_lower.scaled(-1.0))
        assert math.sqrt(gap.norm_squared()) < 1e-12

    def test_same_mode_commutator_is_hbar(self):
        spec = ChainSpec(n_sites=3)
        rng = np.random.default_rng(17)
        for hbar in (0.5, 1.0):
            coeffs = {(0, 0, 0): complex(*rng.standard_normal(2)),
                      (1, 1, 0): complex(*rng.standard_normal(2)),
                      (0, 2, 1): complex(*rng.standard_normal(2))}
            state = MultiModeFockVector(3, 5, coeffs, hbar=hbar)
            for mode in range(3):
                down_up = mm_lowered(mm_raised(state, mode), mode)
                up_down = mm_raised(mm_lowered(state, mode), mode)
                defect = down_up.add_scaled(up_down.scaled(-1.0)).add_scaled(
                    state.scaled(-hbar))
                assert math.sqrt(defect.norm_squared()) < 1e-12

    def test_occupation_basis_is_orthonormal(self):
        spec = ChainSpec(n_sites=3)
        occs = [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 1)]
        states = [occupation_state(spec, occ) for occ in occs]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(fock_inner(si, sj) - expected) < 1e-12

    def test_hamiltonian_eigenvalues_are_additive(self):
        # E(n_1..n_M) = sum_k omega_k hbar (n_k + 1/2), and raising
        # mode k adds exactly hbar*omega_k.
        spec = ChainSpec(n_sites=4, gamma=2.0)
        omega = normal_modes(spec).omega
        hbar = 0.5
        occ = (1, 0, 2, 0)
        state = occupation_state(spec, occ, hbar=hbar, cutoff=5)
        out = hamiltonian_operator_apply(state, spec)
        expected = sum(w * hbar * (n + 0.5) for w, n in zip(omega, occ))
        assert set(out.coeffs) == {occ}
        np.testing.assert_allclose(out.coeffs[occ], expected, atol=1e-12)

        bumped = mm_raised(state, 1)
        out2 = hamiltonian_operator_apply(bumped, spec)
        ratio = fock_inner(out2, bumped) / bumped.norm_squared()
        np.testing.assert_allclose(ratio, expected + hbar * omega[1],
                                   atol=1e-12)

    def test_truncation_edge_raises(self):
        spec = ChainSpec(n_sites=3)
        state = occupation_state(spec, (2, 0, 0), cutoff=2)
        with pytest.raises(ValueError, match="overflows the truncation"):
            mm_raised(state, 0)
        with pytest.raises(ValueError):
            hamiltonian_operator_apply(state, spec)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_fock_inner_is_hermitian_and_matches_the_dense_pairing(self,
                                                                   data):
        modes = data.draw(st.integers(1, 3))
        cutoff = data.draw(st.integers(1, 3))
        sizes = data.draw(st.lists(st.integers(0, 6), min_size=2,
                                   max_size=2, unique=True))
        occupations = st.tuples(*[st.integers(0, cutoff)] * modes)
        coefficients = st.builds(lambda r, phase: r * np.exp(1j * phase),
                                 st.floats(0.1, 2.0),
                                 st.floats(-math.pi, math.pi))
        a, b = (MultiModeFockVector(modes, cutoff, data.draw(
            st.dictionaries(occupations, coefficients, min_size=size,
                            max_size=size)))
            for size in sizes)
        assert len(a.coeffs) != len(b.coeffs)

        def dense(v):
            out = np.zeros((cutoff + 1,) * modes, dtype=complex)
            for occ, c in v.coeffs.items():
                out[occ] = c
            return out

        oracle = np.vdot(dense(b), dense(a))   # Σ c_a conj(c_b)
        tol = 1e-14 * math.sqrt(a.norm_squared() * b.norm_squared())
        assert abs(fock_inner(a, b) - oracle) <= tol
        assert abs(fock_inner(b, a) - np.conj(oracle)) <= tol
        assert abs(fock_inner(a, b) - np.conj(fock_inner(b, a))) <= tol

    def test_vacuum_and_validation(self):
        vac = MultiModeFockVector.vacuum(3, 2)
        assert vac.norm_squared() == 1.0
        assert mm_lowered(vac, 0).norm_squared() == 0.0
        with pytest.raises(ValueError):
            MultiModeFockVector(2, 1, {(0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            MultiModeFockVector(2, 1, {(2, 0): 1.0})
        with pytest.raises(ValueError):
            fock_inner(MultiModeFockVector.vacuum(2, 1),
                       MultiModeFockVector.vacuum(3, 1))


class TestContinuumLimit:
    """Lattice dispersion converges quadratically in the spacing."""

    def test_error_ratios_under_halving(self):
        results = continuum_limit_error(m=1.0, k_window=1.0,
                                        a_list=[0.4, 0.2, 0.1, 0.05])
        spacings = [a for a, _ in results]
        errors = [err for _, err in results]
        assert spacings == [0.4, 0.2, 0.1, 0.05]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.6 < coarse / fine < 4.4

    def test_error_grows_with_wavenumber(self):
        # At fixed spacing the dispersion gap grows monotonically in |k|.
        a = 0.3
        ks = np.linspace(0.1, 1.0, 10)
        lattice = np.sqrt(1.0 + (4.0 / a ** 2) * np.sin(ks * a / 2.0) ** 2)
        continuum = np.sqrt(1.0 + ks ** 2)
        gaps = np.abs(lattice - continuum)
        assert np.all(np.diff(gaps) > 0.0)

    @pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300)
    @given(m=LOG_FLOATS, k_window=LOG_FLOATS, a=LOG_FLOATS)
    # k^2 overflows: the parent emitted numpy's overflow RuntimeWarning
    @example(m=1.0, k_window=1e200, a=1e-201)
    # m² and sin²(k a/2) underflow: the chain frequency read 0 and the
    # error the whole continuum frequency, 1.000000000000005e-155
    @example(m=1e-162, k_window=1e-155, a=1e-7)
    # m² alone underflows to 0: the chain frequency at k = 0 read 0 and
    # the error |m|, 1e-162, against a true error near 1e-352
    @example(m=1e-162, k_window=1e-150, a=1e50)
    def test_a_number_or_a_refusal_over_the_double_range(self, m, k_window,
                                                          a):
        # m, k_window and a log-uniform over the whole double range, 0
        # and subnormals included: a ValueError, or an error within the
        # closed form.  Since sin x >= x - x³/6, (2/a) sin(k a/2) falls
        # short of k by at most k³a²/24, and so does the chain frequency
        # of the continuum one.  The grid's |k| passes k_window by at
        # most 2u.  Rounding: the chain frequency errs by at most 8.5u
        # relative (x = k a/2, sin within 4 ulp, its square, 1/a², the
        # product, m², the sum, the root), hypot by 2u, the difference by
        # u, and an underflow the function accepts by at most
        # u·hypot(m, k_window): under 16u = 8 eps of hypot(m, k_window).
        try:
            ((spacing, err),) = continuum_limit_error(m, k_window, [a])
        except ValueError:
            return
        assert spacing == a
        eps = sys.float_info.epsilon
        closed_form = k_window * (k_window * a) ** 2 / 24.0
        assert 0.0 <= err <= (closed_form * (1.0 + 8.0 * eps)
                              + 8.0 * eps * math.hypot(m, k_window))

    def test_window_must_fit_the_brillouin_zone(self):
        with pytest.raises(ValueError):
            continuum_limit_error(m=1.0, k_window=10.0, a_list=[1.0])


class TestNonrelativisticLimit:
    """Heavy slow packets follow the quadratic-dispersion evolution."""

    def test_heavy_packet_overlap_near_unity(self):
        packet = standard_packet()
        value = nonrelativistic_overlap(packet, m=100.0, t=1.0)
        assert value >= 0.999

    def test_frozen_heavy_value(self):
        packet = standard_packet()
        value = nonrelativistic_overlap(packet, m=100.0, t=1.0)
        np.testing.assert_allclose(value, 0.99999999999995315, rtol=1e-9)

    def test_momentum_tail_guard(self):
        packet = standard_packet()
        with pytest.raises(NumericalGuardError):
            nonrelativistic_overlap(packet, m=1.0, t=1.0)

    def test_overlap_at_time_zero_is_exactly_one(self):
        packet = standard_packet()
        value = nonrelativistic_overlap(packet, m=100.0, t=0.0)
        np.testing.assert_allclose(value, 1.0, atol=1e-12)


class TestValidation:
    def test_chain_spec_guards(self):
        with pytest.raises(ValueError):
            ChainSpec(n_sites=1)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=8, mass=-1.0)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=8, gamma=0.0)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=8, spacing=0.0)

    def test_chain_spec_rejects_nan_mass(self):
        with pytest.raises(ValueError):
            ChainSpec(n_sites=8, mass=float("nan"))

    @pytest.mark.parametrize("field", ["spacing", "mass", "gamma"])
    def test_chain_spec_rejects_infinite_parameters(self, field):
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(n_sites=8, **{field: math.inf})

    def test_state_shape_guards(self):
        with pytest.raises(ValueError):
            ChainState(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            hamiltonian(ChainState(np.zeros(4), np.zeros(4)), ChainSpec(n_sites=8))
