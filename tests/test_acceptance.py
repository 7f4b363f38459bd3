"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming the check,
the measured figure, the tolerance it was held to, and the elapsed
time (run with ``pytest -s`` to see the lines as they appear).  The
assertions use exactly the tolerances printed — nothing is loosened
for convenience.
"""

import math
import time

import numpy as np

from thermofock.chain import (
    ChainSpec,
    continuum_limit_error,
    nonrelativistic_overlap,
    normal_modes,
    standard_packet,
)
from thermofock.charfn import GridWaveFunction, verify_theorem
from thermofock.fock import (
    FockVector,
    bargmann_kernel,
    commutator_defect,
    lowered,
    quadrature_inner_product,
    raised,
)
from thermofock.measurement import (
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
from thermofock.sphere import (
    ThermalOscillator,
    gibbs_normalization_check,
    limit_ratios,
    mean_energy,
    pushforward_ks_statistic,
)
from thermofock.states import (
    ModeProfile,
    exotic_state,
    number_expectation,
    number_variance,
    singlet_marginal,
)
from thermofock.toy import Constraint, interference_demo, markov_feasibility


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"[{status}] {criterion}: {detail} "
            f"({elapsed:.2f}s of {budget:g}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


class TestAcceptance:
    def test_c01_orthonormality_by_quadrature(self):
        start = time.perf_counter()
        vectors = [FockVector.basis_state(n, 12) for n in range(13)]
        worst = 0.0
        for n, f in enumerate(vectors):
            for m, g in enumerate(vectors[n:], start=n):
                target = 1.0 if n == m else 0.0
                value = quadrature_inner_product(f, g)
                worst = max(worst, abs(value - target))
        elapsed = time.perf_counter() - start
        report("basis orthonormality, quadrature, degrees 0..12",
               worst < 1e-9, f"max defect {worst:.3e} < 1e-9",
               elapsed, 5.0)

    def test_c02_ladder_commutator(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for hbar in (0.5, 1.0, 2.0):
            for _ in range(20):
                coeffs = (rng.standard_normal(21)
                          + 1j * rng.standard_normal(21))
                coeffs[20] = 0.0
                v = FockVector(coeffs, hbar=hbar)
                left = lowered(raised(v))
                right = raised(lowered(v), grow=True)
                residual = (left.coeffs[:21] - right.coeffs[:21]
                            - hbar * v.coeffs)
                worst = max(worst, float(np.linalg.norm(residual)))
            worst = max(worst, commutator_defect(20, hbar))
        elapsed = time.perf_counter() - start
        report("ladder commutator equals the scale constant "
               "(interior slots, truncation 20, three scales)",
               worst < 1e-12, f"max residual {worst:.3e} < 1e-12",
               elapsed, 5.0)

    def test_c03_reproducing_kernel(self):
        start = time.perf_counter()
        q = np.linspace(-12.0, 12.0, 2401)
        dq = q[1] - q[0]
        weights = np.full(q.size, dq)
        weights[0] = weights[-1] = dq / 2.0
        points = [0.0 + 0.0j, 0.7 - 0.3j, 1.2 + 0.8j, -1.5j, 2.0 + 0.0j]
        kernels = [bargmann_kernel(z, q) for z in points]
        worst = 0.0
        for i, z in enumerate(points):
            for j, w in enumerate(points):
                overlap = np.sum(weights * kernels[i]
                                 * np.conj(kernels[j]))
                exact = np.exp(z * np.conj(w))
                worst = max(worst, abs(overlap - exact))
        elapsed = time.perf_counter() - start
        report("reproducing kernel identity on a 5x5 grid, |z| <= 2",
               worst < 1e-8, f"max defect {worst:.3e} < 1e-8",
               elapsed, 10.0)

    def test_c04_thermal_normalization_and_mean_energy(self):
        start = time.perf_counter()
        osc = ThermalOscillator(beta=2.0)
        mass = gibbs_normalization_check(osc)
        norm_defect = abs(mass - 1.0)
        estimate, stderr = mean_energy(osc, n=10**6, seed=11)
        gap_sigmas = abs(estimate - 1.0 / osc.beta) / stderr
        ok = norm_defect < 1e-8 and gap_sigmas < 3.0
        elapsed = time.perf_counter() - start
        report("thermal-state normalization and mean energy",
               ok,
               f"quadrature mass defect {norm_defect:.3e} < 1e-8, "
               f"Monte Carlo mean {gap_sigmas:.2f} standard errors "
               f"from target at n=1e6",
               elapsed, 30.0)

    def test_c05_sphere_pushforward(self):
        start = time.perf_counter()
        statistic = pushforward_ks_statistic(beta=1.0, n=10**5, seed=7)
        elapsed = time.perf_counter() - start
        report("uniform-sphere pushforward matches the radial thermal law",
               statistic < 0.01,
               f"KS statistic {statistic:.5f} < 0.01 at n=1e5, fixed seed",
               elapsed, 10.0)

    def test_c06_radiation_law_limits(self):
        start = time.perf_counter()
        wien_ratio, _ = limit_ratios(10.0, 1.0)
        _, rj_ratio = limit_ratios(0.01, 1.0)
        wien_gap = abs(wien_ratio - 1.0000454)
        rj_gap = abs(rj_ratio - 0.99502)
        ok = wien_gap < 1e-6 and rj_gap < 1e-4
        elapsed = time.perf_counter() - start
        report("spectral-density limits at high and low frequency",
               ok,
               f"high-frequency ratio off by {wien_gap:.2e} < 1e-6, "
               f"low-frequency ratio off by {rj_gap:.2e} < 1e-4",
               elapsed, 5.0)

    def test_c07_chain_dispersion_and_continuum(self):
        start = time.perf_counter()
        spec = ChainSpec(n_sites=64)
        modes = normal_modes(spec)
        coupling = np.zeros((64, 64))
        stiffness = spec.spring
        for i in range(64):
            coupling[i, i] = spec.mass**2 + 2.0 * stiffness
            coupling[i, (i + 1) % 64] -= stiffness
            coupling[i, (i - 1) % 64] -= stiffness
        oracle = np.sqrt(np.linalg.eigvalsh(coupling))
        dispersion_defect = float(np.max(np.abs(np.sort(modes.omega)
                                                - np.sort(oracle))))
        table = continuum_limit_error(1.0, 1.0, [0.4, 0.2, 0.1, 0.05])
        errors = [err for _, err in table]
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        ok = dispersion_defect < 1e-10 and all(3.6 < r < 4.4
                                               for r in ratios)
        elapsed = time.perf_counter() - start
        report("chain dispersion against a dense eigenvalue oracle, "
               "plus quadratic continuum convergence",
               ok,
               f"dispersion defect {dispersion_defect:.3e} < 1e-10 at "
               f"64 sites; spacing-halving ratios "
               f"{[round(r, 2) for r in ratios]} within [3.6, 4.4]",
               elapsed, 60.0)

    def test_c08_heavy_mass_packet_overlap(self):
        start = time.perf_counter()
        overlap = nonrelativistic_overlap(standard_packet(), 100.0, 1.0)
        elapsed = time.perf_counter() - start
        report("relativistic and diffusive packet evolutions agree "
               "at heavy mass",
               overlap >= 0.999,
               f"overlap {overlap:.12f} >= 0.999 at mass 100, time 1",
               elapsed, 10.0)

    def test_c09_characteristic_function_routes(self):
        start = time.perf_counter()
        x0, dx, n = -20.0, 40.0 / 512, 512
        gaussian = GridWaveFunction.sampled(
            lambda x: np.exp(-x * x / 2.0), x0, dx, n)
        excited = GridWaveFunction.sampled(
            lambda x: x * np.exp(-x * x / 2.0), x0, dx, n)
        gaps = [verify_theorem(gaussian), verify_theorem(excited)]
        worst = max(gaps)
        elapsed = time.perf_counter() - start
        report("characteristic function via the density and via "
               "amplitude autocorrelation",
               worst < 1e-6,
               f"max route difference {worst:.3e} < 1e-6 for Gaussian "
               f"and first-excited amplitudes",
               elapsed, 5.0)

    def test_c10_split_state_and_antisymmetric_pair(self):
        start = time.perf_counter()
        rng = np.random.default_rng(31)
        values1 = np.zeros(6, dtype=complex)
        values2 = np.zeros(6, dtype=complex)
        values1[[0, 1]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        values2[[3, 4]] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = exotic_state(ModeProfile.from_values(values1),
                           ModeProfile.from_values(values2))
        count_ok = (number_expectation(phi) == 1.0
                    and number_variance(phi) == 0.0)

        x0, dx, pts = -8.0, 0.01, 1601

        def orbital(center):
            return GridWaveFunction.sampled(
                lambda x: np.where(np.abs(x - center) <= 2.5,
                                   np.exp(-(x - center)**2 / 0.5), 0.0),
                x0, dx, pts)

        _, mass = singlet_marginal(orbital(-3.0), orbital(3.0),
                                   region=(-8.0, 0.0))
        mass_defect = abs(mass - 0.5)
        ok = count_ok and mass_defect < 1e-10
        elapsed = time.perf_counter() - start
        report("split one-particle state counts exactly one quantum; "
               "antisymmetric pair puts half its mass in one region",
               ok,
               f"count mean/variance exact, region-mass defect "
               f"{mass_defect:.3e} < 1e-10",
               elapsed, 5.0)

    def test_c11_measurement_chain(self):
        start = time.perf_counter()
        c = np.array([0.6, 0.8])
        rho = reduced_density(entangle(c), "apparatus")
        diagonal = decohere(rho, SectorStructure.singletons(2))
        weights_exact = bool(
            np.all(np.diag(diagonal.matrix) == np.abs(c)**2)
            and diagonal.off_diagonal_max() == 0.0)
        table = sample_outcomes(diagonal, 10**5, seed=5)
        sampling_ok = bool(np.all(table.within_3_sigma()))
        sectors = SectorStructure(
            sectors={"a": (0, 1), "b": (2, 3, 4)},
            charges={"a": 0.0, "b": 1.0})
        rng = np.random.default_rng(99)
        purity_ok = all(
            purity(decohere(state, sectors)) <= purity(state) + 1e-12
            for state in (random_density(5, rng) for _ in range(100)))
        ok = weights_exact and sampling_ok and purity_ok
        elapsed = time.perf_counter() - start
        report("entangle-reduce-decohere-sample chain",
               ok,
               "decohered diagonal equals branch weights exactly, "
               "sampled frequencies within 3 sigma at n=1e5, purity "
               "never increased over 100 random states",
               elapsed, 10.0)

    def test_c12_sector_structure(self):
        start = time.perf_counter()
        sectors = SectorStructure(
            sectors={"plus": (0, 1), "minus": (2, 3)},
            charges={"plus": 0.0, "minus": 1.0})
        rng = np.random.default_rng(17)
        worst_defect = 0.0
        worst_comm = 0.0
        for _ in range(100):
            op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal(
                (4, 4))
            op[np.ix_((0, 1), (2, 3))] = 0.0
            op[np.ix_((2, 3), (0, 1))] = 0.0
            worst_defect = max(worst_defect, sector_defect(op, sectors))
            worst_comm = max(worst_comm,
                             charge_commutator_norm(op, sectors))
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rotated = rotation_2pi(psi, (0.0, 0.5))
        overlap = abs(sum(complex(a).conjugate() * complex(b)
                          for a, b in zip(psi, rotated)))
        ok = worst_defect == 0.0 and worst_comm == 0.0 and overlap == 0.0
        elapsed = time.perf_counter() - start
        report("sector-preserving operators have exactly zero "
               "cross-sector elements; a full turn flips the mixed ray",
               ok,
               f"max cross-sector defect {worst_defect:g}, max charge "
               f"commutator {worst_comm:g}, equal-weight overlap after "
               f"rotation {overlap:g} (all exactly 0)",
               elapsed, 5.0)

    def test_c13_two_state_walk_not_markov(self):
        start = time.perf_counter()
        requirements = [
            Constraint((1.0, 0.0), (0.5, 0.5), steps=1),
            Constraint((0.0, 1.0), (0.5, 0.5), steps=1),
            Constraint((1.0, 0.0), (1.0, 0.0), steps=2),
            Constraint((0.0, 1.0), (0.0, 1.0), steps=2),
        ]
        result = markov_feasibility(requirements)
        certificate_ok = (not result.feasible
                          and "force both columns" in result.certificate)
        rows = interference_demo(steps=2)
        gap = rows[2].gap
        gap_ok = abs(gap - 0.5) < 1e-15
        ok = certificate_ok and gap_ok
        elapsed = time.perf_counter() - start
        report("two-state walk statistics admit no stochastic matrix",
               ok,
               f"infeasibility certificate is exact (forced columns), "
               f"step-2 total-variation gap {gap:.17g} = 0.5 to 1e-15",
               elapsed, 5.0)
