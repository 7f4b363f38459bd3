"""The one guard policy: NaN and infinite input raise, and only
``errors.py`` raises NumericalGuardError.

Each case below was accepted without complaint before every guard went
through ``errors.guard`` and ``errors.require``, which are written as
the passing condition, so that a comparison with NaN fails them.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from thermofock import (chain, charfn, errors, exterior, fock, measurement,
                        sphere, states, toy)

NAN = math.nan
INF = math.inf


def _nan_packet():
    return charfn.GridWaveFunction(-20.0, 0.02, np.full(2000, NAN))


def _gaussian_samples():
    x = np.linspace(-10.0, 10.0, 201)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


NON_FINITE_CALLS = {
    "chain.nonrelativistic_overlap(nan packet)":
        lambda: chain.nonrelativistic_overlap(_nan_packet(), 100.0, 1.0),
    "chain.continuum_limit_error(a=nan)":
        lambda: chain.continuum_limit_error(1.0, 1.0, [NAN]),
    "chain.gibbs_sample(beta=inf)":
        lambda: chain.gibbs_sample(chain.ChainSpec(8), INF, 4, seed=0),
    "toy.StochasticMatrix(nan)":
        lambda: toy.StochasticMatrix(np.full((2, 2), NAN)),
    "toy.ToyUnitary(nan)":
        lambda: toy.ToyUnitary(np.full((2, 2), NAN)),
    "toy.Constraint((nan, nan))":
        lambda: toy.Constraint((NAN, NAN), (0.5, 0.5)),
    "toy.markov_step([nan, nan])":
        lambda: toy.markov_step([NAN, NAN], toy.StochasticMatrix(np.eye(2))),
    "toy.ToyUnitary(inf)":
        lambda: toy.ToyUnitary(np.full((2, 2), INF)),
    "measurement.BipartiteState([[nan]])":
        lambda: measurement.BipartiteState([[NAN]]),
    "measurement.entangle([nan])":
        lambda: measurement.entangle([NAN]),
    "measurement.SectorStructure(nan charge)":
        lambda: measurement.SectorStructure({0: (0,), 1: (1,)},
                                            {0: NAN, 1: 1.0}),
    "measurement.sector_defect(nan cross entry)":
        lambda: measurement.sector_defect(np.array([[1.0, NAN], [0.0, 1.0]]),
                                          measurement.SectorStructure
                                          .singletons(2)),
    "measurement.rotation_2pi(nan spin)":
        lambda: measurement.rotation_2pi([1.0, 0.0], [0.5, NAN]),
    "exterior.bilinear_density(nan, 1)":
        lambda: exterior.bilinear_density(NAN, 1.0),
    "sphere.ThermalOscillator(beta=inf)":
        lambda: sphere.ThermalOscillator(beta=INF),
    "sphere.mean_energy(beta=inf)":
        lambda: sphere.mean_energy(sphere.ThermalOscillator(beta=INF), 1000,
                                   0),
    "sphere.Disk(1, q0=nan)":
        lambda: sphere.Disk(1.0, NAN, 0.0),
    "sphere.SphereGeometry(inf)":
        lambda: sphere.SphereGeometry(INF),
    "sphere.limit_ratios(inf, 1)":
        lambda: sphere.limit_ratios(INF, 1.0),
    "states.ModeProfile([nan, 1])":
        lambda: states.ModeProfile([NAN, 1.0]),
    "fock.FockVector([nan])":
        lambda: fock.FockVector([NAN]),
    "fock.FockVector(hbar=inf)":
        lambda: fock.FockVector([1.0], hbar=INF),
    "charfn.GridWaveFunction(nan samples)":
        lambda: charfn.GridWaveFunction(0.0, 0.1, [1.0, NAN, 1.0]),
    "charfn.DensityGrid([inf, 1])":
        lambda: charfn.DensityGrid(0.0, 0.1, [INF, 1.0]),
    "charfn.characteristic_function(t=nan)":
        lambda: charfn.characteristic_function(
            charfn.DensityGrid(-10.0, 0.1, _gaussian_samples()), [0.0, NAN]),
    "charfn.autocorrelation_charfn(t=nan)":
        lambda: charfn.autocorrelation_charfn(charfn.GridWaveFunction(
            -10.0, 0.1, _gaussian_samples()).normalized(), [NAN]),
    "chain.ChainState([nan, 0])":
        lambda: chain.ChainState([NAN, 0.0], [0.0, 0.0]),
}

# The sphere maps take beta from the caller with no oscillator in between.
SPHERE_BETA_CALLS = {
    "sphere.thermal_map_paper":
        lambda beta: sphere.thermal_map_paper(sphere.SpherePoint(1.0), 1.0,
                                              beta),
    "sphere.thermal_map_exact":
        lambda beta: sphere.thermal_map_exact(sphere.SpherePoint(1.0), beta),
    "sphere.pushforward_radii":
        lambda beta: sphere.pushforward_radii(np.array([1.0]), beta),
    "sphere.pushforward_ks_statistic":
        lambda beta: sphere.pushforward_ks_statistic(beta, 100, 0),
}
NON_FINITE_CALLS.update(
    (f"{name}(beta={beta})", lambda call=call, beta=beta: call(beta))
    for name, call in SPHERE_BETA_CALLS.items() for beta in (NAN, 0.0, INF))


@pytest.mark.parametrize("call", list(NON_FINITE_CALLS.values()),
                         ids=list(NON_FINITE_CALLS))
def test_nan_and_infinite_input_raise(call):
    with pytest.raises(ValueError):
        call()


# A count below one is refused by name, before numpy turns it into an
# empty array, a "negative dimensions" error or a zero trace.
BAD_COUNT_CALLS = {
    "chain.gibbs_sample(n=0)":
        (lambda: chain.gibbs_sample(chain.ChainSpec(8), 1.0, 0, seed=0),
         "at least one sample"),
    "chain.gibbs_sample(n=-1)":
        (lambda: chain.gibbs_sample(chain.ChainSpec(8), 1.0, -1, seed=0),
         "at least one sample"),
    "sphere.uniform_sphere_samples(0)":
        (lambda: sphere.uniform_sphere_samples(0, 0), "at least one sample"),
    "sphere.uniform_sphere_samples(-1)":
        (lambda: sphere.uniform_sphere_samples(-1, 0), "at least one sample"),
    "measurement.random_density(4, rank=0)":
        (lambda: measurement.random_density(4, np.random.default_rng(0),
                                            rank=0), "rank >= 1"),
    "measurement.random_density(0)":
        (lambda: measurement.random_density(0, np.random.default_rng(0)),
         "d >= 1"),
}


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", list(BAD_COUNT_CALLS.values()),
                         ids=list(BAD_COUNT_CALLS))
def test_counts_below_one_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# An index is an integer in its range: a float is refused, not
# truncated, and a negative index is refused, not wrapped.
BAD_INDEX_CALLS = {
    "chain.MultiModeFockVector({(0.7, 1.9): 1})":
        (lambda: chain.MultiModeFockVector(2, 3, {(0.7, 1.9): 1.0,
                                                  (0, 1): 2.0}),
         "occupations must be tuples of integers"),
    "measurement.SectorStructure({0: (0.5,)})":
        (lambda: measurement.SectorStructure({0: (0.5,), 1: (1,)},
                                             {0: 0.0, 1: 1.0}),
         "sector indices must be integers"),
    "measurement.entangle(d_object=2.5)":
        (lambda: measurement.entangle([0.6, 0.8], d_object=2.5),
         "subsystem dimensions must be integers"),
    "chain.evolve(steps=2.5)":
        (lambda: chain.evolve(chain.ChainState(np.zeros(8), np.zeros(8)), chain.ChainSpec(8),
                              steps=2.5),
         "steps must be an integer"),
    "fock.FockVector.basis_state(-1, 3)":
        (lambda: fock.FockVector.basis_state(-1, 3),
         "outside 0..3"),
    "fock.from_position(n_max=-1)":
        (lambda: fock.from_position(charfn.GridWaveFunction(
            -10.0, 0.1, _gaussian_samples()), -1),
         "order -1 outside 0..200"),
}


@pytest.mark.parametrize("call, message", list(BAD_INDEX_CALLS.values()),
                         ids=list(BAD_INDEX_CALLS))
def test_bad_indices_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Refusals that no other test trips (an overflow, a non-finite input,
# missing state or a value outside the call's domain), each tripped
# through its public function and matched by its message, with no
# warning on the way.
REFUSAL_CALLS = {
    "exterior.bilinear_density(1e155, 1e154)":
        (lambda: exterior.bilinear_density(1e155, 1e154),
         r"wedge of weights \(1e\+155, 1e\+154\) overflows"),
    "exterior.complex_pair_density(nan, 1)":
        (lambda: exterior.complex_pair_density(NAN, 1.0),
         r"amplitudes must be finite, got \(nan, 1.0\)"),
    "exterior.complex_pair_density(1e200+1e200j, 1e200)":
        (lambda: exterior.complex_pair_density(1e200 + 1e200j, 1e200),
         r"wedge of \(\(1e\+200\+1e\+200j\), 1e\+200\) overflows"),
    "exterior.fermion_density(nan)":
        (lambda: exterior.fermion_density(NAN),
         "amplitude must be finite, got nan"),
    "exterior.fermion_density(1e200)":
        (lambda: exterior.fermion_density(1e200),
         r"fermionic pairing of q = 1e\+200 overflows"),
    "chain.mode_energies(normal_modes)":
        (lambda: chain.mode_energies(chain.normal_modes(chain.ChainSpec(8))),
         "mode data carries no state content"),
    "chain.rescaled_modes(normal_modes)":
        (lambda: chain.rescaled_modes(chain.normal_modes(chain.ChainSpec(8)),
                                      chain.ChainSpec(8)),
         "mode data carries no state content"),
    "charfn.GridWaveFunction(dx=0)":
        (lambda: charfn.GridWaveFunction(0.0, 0.0, [1, 1]),
         "dx must be positive and finite, got 0.0"),
    "charfn.GridWaveFunction(x0=inf)":
        (lambda: charfn.GridWaveFunction(INF, 1.0, [1, 1]),
         "x0 must be finite, got inf"),
    "charfn.GridWaveFunction([0, 0]).normalized()":
        (lambda: charfn.GridWaveFunction(0.0, 1.0, [0, 0]).normalized(),
         "cannot normalize a zero-norm sample list"),
    "charfn.DensityGrid(dx=0)":
        (lambda: charfn.DensityGrid(0.0, 0.0, [1, 1]),
         "dx must be positive and finite, got 0.0"),
    "charfn.DensityGrid(x0=inf)":
        (lambda: charfn.DensityGrid(INF, 1.0, [1, 1]),
         "x0 must be finite, got inf"),
    "charfn.autocorrelation_charfn(dx=1e152)":
        (lambda: charfn.autocorrelation_charfn(charfn.GridWaveFunction(
            -10.0, 1e152, _gaussian_samples()).normalized(), [0.0]),
         r"the lattice weight \(4 N dx\)\^2 overflows at dx = 1e\+152"),
    # the Gaussian samples have norm squared 1/(2 sqrt(pi)), not 1
    "charfn.autocorrelation_charfn(unnormalized)":
        (lambda: charfn.autocorrelation_charfn(
            charfn.GridWaveFunction(-10.0, 0.1, _gaussian_samples()), [0.0]),
         "packet must be normalized"),
    "charfn.verify_theorem(unnormalized)":
        (lambda: charfn.verify_theorem(
            charfn.GridWaveFunction(-10.0, 0.1, _gaussian_samples())),
         "packet must be normalized"),
    "sphere.SpherePoint(theta=4)":
        (lambda: sphere.SpherePoint(4.0),
         r"theta must lie in \[0, pi\], got 4.0"),
    "sphere.SpherePoint(phi=2 pi)":
        (lambda: sphere.SpherePoint(1.0, 2.0 * math.pi),
         r"phi must lie in \[0, 2\*pi\), got 6.28"),
    "sphere.region_probability(SpherePoint)":
        (lambda: sphere.region_probability(sphere.SpherePoint(1.0),
                                           sphere.ThermalOscillator(1.0)),
         "unsupported region type SpherePoint"),
    "sphere.classical_limit_table(omega=0)":
        (lambda: sphere.classical_limit_table([1.0], 0.0),
         "omega must be positive and finite"),
    "sphere.classical_limit_table(hbar=-1)":
        (lambda: sphere.classical_limit_table([1.0, -1.0], 1.0),
         "hbar must be nonnegative and finite, got -1.0"),
    # an explicit hbar, so the hbar check cannot refuse them first
    "sphere.ThermalOscillator(omega=inf, hbar=1)":
        (lambda: sphere.ThermalOscillator(beta=1.0, omega=INF, hbar=1.0),
         "beta, omega, mass must all be positive and finite"),
    "sphere.ThermalOscillator(mass=inf, hbar=1)":
        (lambda: sphere.ThermalOscillator(beta=1.0, mass=INF, hbar=1.0),
         "beta, omega, mass must all be positive and finite"),
    "sphere.ThermalOscillator(beta=1e-200, omega=1e-200)":
        (lambda: sphere.ThermalOscillator(beta=1e-200, omega=1e-200),
         r"beta \* omega underflows to 0 \(beta=1e-200, omega=1e-200\)"),
    "sphere.region_probability(beta=omega=hbar=1e-300)":
        (lambda: sphere.region_probability(
            sphere.FULL_PLANE,
            sphere.ThermalOscillator(beta=1e-300, omega=1e-300, hbar=1e-300)),
         "the position width inf leaves the normal range"),
    "sphere.region_probability(beta=1e308, mass=5e-324)":
        (lambda: sphere.region_probability(
            sphere.FULL_PLANE,
            sphere.ThermalOscillator(beta=1e308, mass=5e-324)),
         "the momentum width 2.22e-316 leaves the normal range"),
    "sphere.region_probability(beta=omega=1e-200, hbar=1)":
        (lambda: sphere.region_probability(
            sphere.FULL_PLANE,
            sphere.ThermalOscillator(beta=1e-200, omega=1e-200, hbar=1.0)),
         r"beta \* omega \* min\(h, 1\) = 0 underflows"),
    "sphere.limit_ratios(h=1e300, k=1e-300)":
        (lambda: sphere.limit_ratios(
            1.0, 1.0, sphere.PlanckConstants(h=1e300, k=1e-300)),
         "x = hv/kT overflows the double range"),
    "sphere.thermal_map_paper(radius=0)":
        (lambda: sphere.thermal_map_paper(sphere.SpherePoint(1.0), 0.0, 1.0),
         "radius must be positive and finite, got 0.0"),
    "sphere.thermal_map_paper(radius=1e308, beta=1e-300)":
        (lambda: sphere.thermal_map_paper(sphere.SpherePoint(1.0), 1e308,
                                          1e-300),
         r"\|z\| = R sqrt\(3 ln 2 / beta\) sin\(theta/2\) overflows at "
         r"R = 1e\+308, beta = 1e-300"),
    "sphere.classical_limit_table(hbar=1e300, omega=1e10)":
        (lambda: sphere.classical_limit_table([1e300], 1e10),
         r"T = hbar \* omega overflows at hbar = 1e\+300, omega = 1e\+10"),
    "chain.mode_transform(4 values on 8 sites)":
        (lambda: chain.mode_transform(
            chain.ChainState(np.zeros(4), np.zeros(4)), chain.ChainSpec(8)),
         "state length does not match the chain"),
    "chain.evolve(4 values on 8 sites)":
        (lambda: chain.evolve(chain.ChainState(np.zeros(4), np.zeros(4)),
                              chain.ChainSpec(8), steps=1),
         "state length does not match the chain"),
    "chain.mm_raised(mode=2 of 2)":
        (lambda: chain.mm_raised(chain.MultiModeFockVector.vacuum(2, 1), 2),
         r"mode 2 outside 0\.\.1"),
    "chain.mm_lowered(mode=-1)":
        (lambda: chain.mm_lowered(chain.MultiModeFockVector.vacuum(2, 1), -1),
         r"mode -1 outside 0\.\.1"),
    "chain.hamiltonian_operator_apply(3 modes, 8 sites)":
        (lambda: chain.hamiltonian_operator_apply(
            chain.MultiModeFockVector.vacuum(3, 2), chain.ChainSpec(8)),
         "mode count does not match the chain"),
    "chain.continuum_limit_error(m=inf)":
        (lambda: chain.continuum_limit_error(INF, 1.0, [0.5]),
         "m must be finite, got inf"),
    "chain.continuum_limit_error(k_window=0)":
        (lambda: chain.continuum_limit_error(1.0, 0.0, [0.5]),
         "k_window must be positive and finite, got 0.0"),
    "chain.continuum_limit_error(no spacings)":
        (lambda: chain.continuum_limit_error(1.0, 1.0, []),
         "need at least one spacing"),
    # m² and sin²(k a/2) underflow; the chain frequency read 0
    "chain.continuum_limit_error(m=1e-162, k_window=1e-155, a=1e-7)":
        (lambda: chain.continuum_limit_error(1e-162, 1e-155, [1e-7]),
         r"at a=1e-07, m=1e-162, k_window=1e-155 the dispersion's squares "
         r"m² and sin²\(k a/2\) underflow"),
    "chain.nonrelativistic_overlap(t=inf)":
        (lambda: chain.nonrelativistic_overlap(chain.standard_packet(), 100.0,
                                               INF),
         "time must be finite, got inf"),
    "chain.nonrelativistic_overlap(zero packet)":
        (lambda: chain.nonrelativistic_overlap(
            charfn.GridWaveFunction(-1.0, 0.5, np.zeros(4)), 100.0, 1.0),
         "packet norm must be positive and finite"),
    "chain.MultiModeFockVector(modes=0)":
        (lambda: chain.MultiModeFockVector(0, 1, {}),
         "need modes >= 1 and cutoff >= 0"),
    "chain.MultiModeFockVector(hbar=0)":
        (lambda: chain.MultiModeFockVector(2, 1, {}, 0.0),
         "hbar must be positive and finite, got 0.0"),
    "chain.MultiModeFockVector.add_scaled(2 modes + 3 modes)":
        (lambda: chain.MultiModeFockVector.vacuum(2, 1).add_scaled(
            chain.MultiModeFockVector.vacuum(3, 1)),
         "mode structure / scale mismatch"),
    "fock.commutator_defect(n_max=1)":
        (lambda: fock.commutator_defect(1), "need n_max >= 2"),
    "fock.commutator_defect(hbar=0)":
        (lambda: fock.commutator_defect(4, 0.0),
         "hbar must be positive and finite, got 0.0"),
    "fock.to_position(one point)":
        (lambda: fock.to_position(fock.FockVector([1.0]), [0.0]),
         "grid must be a 1-d array of at least 2 points"),
    "fock.to_position(uneven grid)":
        (lambda: fock.to_position(fock.FockVector([1.0]), [0.0, 1.0, 3.0]),
         "grid must be uniformly spaced"),
    "states.number_expectation(zero vector)":
        (lambda: states.number_expectation(chain.MultiModeFockVector(2, 1, {})),
         "zero vector has no number expectation"),
    "states.number_variance(zero vector)":
        (lambda: states.number_variance(chain.MultiModeFockVector(2, 1, {})),
         "zero vector has no number variance"),
    "states.occupation_density(zero vector)":
        (lambda: states.occupation_density(
            chain.MultiModeFockVector(2, 1, {})),
         "zero vector has no occupation density"),
    # a unit Gaussian cut off at ±6 widths: the outer 2% of each grid
    # holds under 1e-8, but the cut lowers the position width
    "states.rms_widths(unit Gaussian on [-6, 6])":
        (lambda: states.rms_widths(charfn.GridWaveFunction.sampled(
            lambda x: np.exp(-x * x / 4.0), -6.0, 12.0 / 4096, 4096)),
         r"width product deficit below 1/2 is 3\.6\d*e-08, not within its "
         r"bound 1e-09; .*or its span cuts the tails; .*widen the span"),
    "measurement.sample_outcomes(n=2**63)":
        (lambda: measurement.sample_outcomes(
            measurement.DensityMatrix(np.diag([0.5, 0.5])), 2 ** 63, 0),
         r"need between 1 and 2\*\*63 - 1 draws, got 9223372036854775808"),
    "toy.markov_step(three entries)":
        (lambda: toy.markov_step([0.5, 0.25, 0.25],
                                 toy.StochasticMatrix(np.eye(2))),
         "need a probability pair"),
    "toy.StochasticMatrix(3x3)":
        (lambda: toy.StochasticMatrix(np.eye(3)), "need a 2x2 matrix"),
    "toy.ToyUnitary(3x3)":
        (lambda: toy.ToyUnitary(np.eye(3)), "need a 2x2 matrix"),
}


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", list(REFUSAL_CALLS.values()),
                         ids=list(REFUSAL_CALLS))
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_guard_reports_its_triple_and_trips_on_nan():
    errors.guard("tail mass", 1e-9, 1e-8, "unused")
    with pytest.raises(errors.NumericalGuardError,
                       match=r"tail mass is 0\.1, not within its bound 0\.01"):
        errors.guard("tail mass", 0.1, 0.01, "widen the grid")
    with pytest.raises(errors.NumericalGuardError, match="nan"):
        errors.guard("tail mass", NAN, 0.01, "widen the grid")


def test_only_errors_py_raises_the_guard_error():
    package = Path(errors.__file__).parent
    raising = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "errors.py"
               and re.search(r"raise\s+NumericalGuardError",
                             path.read_text(encoding="utf-8"))]
    assert raising == []
