"""The one guard policy: NaN and infinite input raise, and only
``errors.py`` raises NumericalGuardError.

Each case below was accepted without complaint before every guard went
through ``errors.guard`` and ``errors.require``, which are written as
the passing condition, so that a comparison with NaN fails them.
An AST check holds every refusal site of the package to an entry here
that trips it, and one property holds every mass the package divides
by or refuses on to the answer of its input at unit scale.
"""

import ast
import math
import re
import traceback
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermofock import (chain, charfn, cli, errors, exterior, fock,
                        measurement, sphere, states, toy)

NAN = math.nan
INF = math.inf


def _nan_packet():
    return charfn.GridWaveFunction(-20.0, 0.02, np.full(2000, NAN))


def _gaussian_samples():
    x = np.linspace(-10.0, 10.0, 201)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _unit_gaussian():
    return charfn.GridWaveFunction(-10.0, 0.1,
                                   _gaussian_samples()).normalized()


def _disjoint_orbitals():
    x = np.linspace(-10.0, 10.0, 201)
    left = np.where(x < 0, np.exp(-(x + 5.0) ** 2), 0.0)
    grid = (x[0], x[1] - x[0])
    return (charfn.GridWaveFunction(*grid, left).normalized(),
            charfn.GridWaveFunction(*grid, left[::-1]).normalized())


def _cli(argv: str):
    """One CLI table run past main's error handling, so that a refusal
    keeps its traceback."""
    args = vars(cli._build_parser().parse_args(argv.split()))
    args.pop("config")
    return cli.run(cli.config_precedence(args.pop("subcommand"), args, {}))


def _shifted_dispersion_table():
    """The massless dispersion table with every coupling matrix lowered
    by 1e-6, so that its smallest eigenvalue is negative."""
    shifted = chain.ChainSpec.coupling_matrix
    with mock.patch.object(chain.ChainSpec, "coupling_matrix",
                           lambda spec: shifted(spec)
                           - 1e-6 * np.eye(spec.n_sites)):
        return _cli("chain --experiment dispersion --sites 8 --mass 0")


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


# Refusals (an overflow, a non-finite input, missing state or a value
# outside the call's domain), each tripped through its public function
# and matched by its message, with no warning on the way.  With the
# tables above they trip every refusal site of the package
# (test_every_refusal_site_has_an_entry_that_trips_it).
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
         "zero-norm sample list has no normalization"),
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
    # --- one entry for each site that the entries above do not trip ---
    "chain.ChainSpec(1 site)":
        (lambda: chain.ChainSpec(1), "need at least 2 sites"),
    "chain.ChainSpec(spacing=0)":
        (lambda: chain.ChainSpec(8, spacing=0.0),
         "spacing must be positive and finite, got 0.0"),
    "chain.ChainSpec(mass=-1)":
        (lambda: chain.ChainSpec(8, mass=-1.0),
         "mass must be nonnegative and finite, got -1.0"),
    "chain.ChainSpec(gamma=0)":
        (lambda: chain.ChainSpec(8, gamma=0.0),
         "gamma must be positive and finite, got 0.0"),
    "chain.ChainSpec(spacing=1e-200)":
        (lambda: chain.ChainSpec(8, spacing=1e-200),
         r"a\^2, gamma/a\^2 or m\^2 \+ 4 gamma/a\^2 overflows or vanishes"),
    "chain.ChainState(1 and 2 values)":
        (lambda: chain.ChainState([0.0], [0.0, 0.0]),
         "q and p must be 1-d arrays of equal length"),
    "chain.hamiltonian(4 values on 8 sites)":
        (lambda: chain.hamiltonian(chain.ChainState(np.zeros(4), np.zeros(4)),
                                   chain.ChainSpec(8)),
         "state length does not match the chain"),
    "chain.rescaled_modes(m=0)":
        (lambda: chain.rescaled_modes(
            chain.mode_transform(chain.ChainState(np.ones(8), np.zeros(8)),
                                 chain.ChainSpec(8, mass=0.0)),
            chain.ChainSpec(8, mass=0.0)),
         "modes of zero frequency is 1,"),
    "chain.evolve(steps=-1)":
        (lambda: chain.evolve(chain.ChainState(np.zeros(8), np.zeros(8)),
                              chain.ChainSpec(8), steps=-1),
         "steps must be nonnegative, got -1"),
    "chain.evolve(dt=10)":
        (lambda: chain.evolve(chain.ChainState(np.zeros(8), np.zeros(8)),
                              chain.ChainSpec(8), 10.0, steps=1),
         r"dt=10.0 outside the stability interval \(0, 0.89"),
    "chain.gibbs_sample(m=0)":
        (lambda: chain.gibbs_sample(chain.ChainSpec(8, mass=0.0), 1.0, 4,
                                    seed=0),
         r"modes with omega\^2 <= 1e-12 max omega\^2 is 1,"),
    "chain.gibbs_sample(beta=1e308)":
        (lambda: chain.gibbs_sample(chain.ChainSpec(8), 1e308, 4, seed=0),
         r"beta \* omega\^2 leaves the double range: beta = 1e\+308"),
    "chain.MultiModeFockVector({(0, 2): 1}, cutoff 1)":
        (lambda: chain.MultiModeFockVector(2, 1, {(0, 2): 1.0}),
         r"occupations \[\(0, 2\)\] outside 2 modes, cutoff 1"),
    "chain.fock_inner(2 modes, 3 modes)":
        (lambda: chain.fock_inner(chain.MultiModeFockVector.vacuum(2, 1),
                                  chain.MultiModeFockVector.vacuum(3, 1)),
         "mode structure / scale mismatch"),
    "chain.mm_raised(at the cutoff)":
        (lambda: chain.mm_raised(chain.MultiModeFockVector(2, 1,
                                                           {(1, 0): 1.0}), 0),
         r"raising mode 0 overflows the truncation at \(1, 0\)"),
    "chain.nonrelativistic_overlap(m=0)":
        (lambda: chain.nonrelativistic_overlap(chain.standard_packet(), 0.0,
                                               1.0),
         r"need 0 < m with finite m\^2, got 0.0"),
    "chain.nonrelativistic_overlap(m=1)":
        (lambda: chain.nonrelativistic_overlap(chain.standard_packet(), 1.0,
                                               1.0),
         r"spectral mass above \|k\| = m/10 is 0\.911377,"),
    "charfn.GridWaveFunction(one sample)":
        (lambda: charfn.GridWaveFunction(0.0, 1.0, [1.0]),
         "need a 1-d sample list of length >= 2"),
    # the density 1/(|psi|^2 dx) overflows; the packet itself is finite
    "charfn.density_from_amplitude(dx=5e-324)":
        (lambda: charfn.density_from_amplitude(
            charfn.GridWaveFunction(0.0, 5e-324, [1.0, 1.0])),
         "the density is not representable at dx = 5e-324"),
    "charfn.GridWaveFunction(dx=1e308, 8 samples).normalized()":
        (lambda: charfn.GridWaveFunction(0.0, 1e308, np.ones(8)).normalized(),
         r"the normalization is not representable at dx = 1e\+308"),
    # flat samples do not vanish at the grid ends
    "charfn.autocorrelation_charfn(flat packet)":
        (lambda: charfn.autocorrelation_charfn(charfn.GridWaveFunction.sampled(
            np.ones_like, 0.0, 0.1, 100), [0.0]),
         r"relative spectral mass shortfall is 0\.015,"),
    "cli: chain --experiment continuum --mass 1e10":
        (lambda: _cli("chain --experiment continuum --mass 1e10"),
         "halving steps with zero error is 4,"),
    "cli: chain --experiment dispersion, shifted coupling":
        (_shifted_dispersion_table, "negative coupling eigenvalue is"),
    "cli: chain --experiment equipartition --samples 1":
        (lambda: _cli("chain --experiment equipartition --samples 1"),
         "equipartition needs at least 2 samples for its standard errors, "
         "got 1"),
    "cli: chain --experiment warp":
        (lambda: _cli("chain --experiment warp"),
         "experiment must be one of continuum, dispersion, equipartition, "
         "nonrel"),
    "cli: measure --sectors 0;;1":
        (lambda: _cli("measure --sectors 0;;1"), "empty sector group in"),
    "cli: measure --amps ,":
        (lambda: _cli("measure --amps ,"),
         "need at least one branch amplitude"),
    "cli: measure --amps 0,0":
        (lambda: _cli("measure --amps 0,0"),
         "branch amplitudes must be finite and not all zero"),
    "cli: charfn --points 0":
        (lambda: _cli("charfn --points 0"),
         "need at least 2 grid points, got 0"),
    "cli: charfn --packet foo":
        (lambda: _cli("charfn --packet foo"),
         "packet must be gaussian or hermite1"),
    "cli: charfn --span 400":
        (lambda: _cli("charfn --span 400"),
         "span and points do not resolve the unit-width packet"),
    "cli: fock --nmax -1":
        (lambda: _cli("fock --nmax -1"), "nmax must be nonnegative, got -1"),
    "cli: fock --nmax 13":
        (lambda: _cli("fock --nmax 13"), "nmax must be at most 12"),
    "cli: states --experiment uncertainty --nmax -1":
        (lambda: _cli("states --experiment uncertainty --nmax -1"),
         "nmax must be nonnegative, got -1"),
    "cli: spectrum --tmin 5 --tmax 1":
        (lambda: _cli("spectrum --tmin 5 --tmax 1"),
         "need 0 < tmin < tmax < inf"),
    "cli: spectrum --points 1":
        (lambda: _cli("spectrum --points 1"), "need at least 2 points"),
    "cli: toy --matrix 1,2,3":
        (lambda: _cli("toy --matrix 1,2,3"),
         "matrix must be 'hadamard' or four comma-separated numbers"),
    "cli: sphere --beta 2e305":
        (lambda: _cli("sphere --beta 2e305"),
         "non-finite or subnormal table cells is 1,"),
    "cli: chain --experiment dispersion --sites 100000":
        (lambda: _cli("chain --experiment dispersion --sites 100000"),
         "chain would need about 152588 MB of arrays, above the 1024 MB "
         "budget"),
    "exterior.AmplitudeEventSpace({(0,): 1, (0, 0): 1})":
        (lambda: exterior.AmplitudeEventSpace(
            (1.0,), (1.0,), {(0,): 1.0, (0, 0): 1.0}),
         "two override keys name one subset"),
    "exterior.AmplitudeEventSpace({(0.5,): 1})":
        (lambda: exterior.AmplitudeEventSpace((1.0,), (1.0,), {(0.5,): 1.0}),
         "override keys must hold event indices"),
    "exterior.boson_density(2 energies, 1 amplitude)":
        (lambda: exterior.boson_density([1.0, 2.0], [1.0], 0.0, 0.0),
         "E and A must have matching lengths"),
    "exterior.check_axioms(mode='bivector')":
        (lambda: exterior.check_axioms(
            exterior.AmplitudeEventSpace((1.0,), (1.0,)), "bivector"),
         "unknown mode 'bivector'"),
    "exterior.check_axioms(skip={'Q5'})":
        (lambda: exterior.check_axioms(
            exterior.AmplitudeEventSpace((1.0,), (1.0,)), skip={"Q5"}),
         "skip names labels that are no axiom: {'Q5'}"),
    "fock.FockVector([])":
        (lambda: fock.FockVector([]),
         "coefficients must form a nonempty 1-d vector"),
    "fock.inner_product(hbar 1 and 2)":
        (lambda: fock.inner_product(fock.FockVector([1.0]),
                                    fock.FockVector([1.0], 2.0)),
         "mismatched scales hbar=1.0 vs 2.0"),
    "fock.quadrature_inner_product(n_max=13)":
        (lambda: fock.quadrature_inner_product(fock.FockVector(np.ones(14)),
                                               fock.FockVector([1.0])),
         "quadrature oracle limited to truncations <= 12"),
    "fock.raised(full top slot)":
        (lambda: fock.raised(fock.FockVector([0.0, 1.0])),
         r"raising would overflow the truncation \(top coefficient"),
    "fock.hamiltonian_apply(omega = hbar = 1e200)":
        (lambda: fock.hamiltonian_apply(
            fock.FockVector.basis_state(1, 3, 1e200), 1e200),
         r"\|omega \* lambda \* hbar\| is inf,"),
    "fock.rescale_lambda(0)":
        (lambda: fock.rescale_lambda(fock.FockVector([1.0]), 0.0),
         "lambda must be positive and finite, got 0.0"),
    "fock.bargmann_kernel(hbar=0)":
        (lambda: fock.bargmann_kernel(1.0, [0.0], 0.0),
         "hbar must be positive and finite, got 0.0"),
    "fock.bargmann_kernel(q=nan)":
        (lambda: fock.bargmann_kernel(1.0, [0.0, NAN]), "q must be finite"),
    # the peak modulus pi^{-1/4} e^{|z|^2/2} passes DBL_MAX at |z| = 37.7
    "fock.bargmann_kernel(z=40)":
        (lambda: fock.bargmann_kernel(40.0, [0.0]),
         r"the kernel modulus at z = \(40\+0j\), hbar = 1\.0 lies beyond "
         "the double range"),
    "fock.from_position(zero packet)":
        (lambda: fock.from_position(
            charfn.GridWaveFunction(-10.0, 0.1, np.zeros(201)), 4),
         "cannot project a zero-norm sample list"),
    # every Hermite row underflows to 0 at q >= 100
    "fock.from_position(packet at q = 100)":
        (lambda: fock.from_position(
            charfn.GridWaveFunction(100.0, 0.1, _gaussian_samples()), 4),
         "the projection is zero"),
    "fock.from_position(n=4 on [-1, 1])":
        (lambda: fock.from_position(charfn.GridWaveFunction(
            -1.0, 0.02, fock.hermite_function(4, np.linspace(-1, 1, 101))), 4),
         "projection mass shortfall is 0.610717,"),
    "measurement.DensityMatrix(2x3)":
        (lambda: measurement.DensityMatrix(np.ones((2, 3))),
         "density matrix must be square and nonempty"),
    "measurement.DensityMatrix(upper triangle)":
        (lambda: measurement.DensityMatrix([[0.5, 1.0], [0.0, 0.5]]),
         "matrix is not Hermitian within 1e-12"),
    "measurement.DensityMatrix(diag(1.5, -0.5))":
        (lambda: measurement.DensityMatrix(np.diag([1.5, -0.5])),
         "matrix has an eigenvalue below -1e-12"),
    "measurement.DensityMatrix(identity 2)":
        (lambda: measurement.DensityMatrix(np.eye(2)),
         "trace differs from 1 by more than 1e-12"),
    "measurement.SectorStructure(labels 0, charges 1)":
        (lambda: measurement.SectorStructure({0: (0,)}, {1: 0.0}),
         "sector labels and charge labels differ"),
    "measurement.SectorStructure({0: (0, 2)})":
        (lambda: measurement.SectorStructure({0: (0, 2)}, {0: 0.0}),
         r"sectors must partition 0\.\.d-1 exactly once"),
    "measurement.BipartiteState([1])":
        (lambda: measurement.BipartiteState([1.0]),
         "amplitude table must be a nonempty 2-d array"),
    # the one normalization check of entangle is BipartiteState's
    "measurement.entangle([1, 1])":
        (lambda: measurement.entangle([1.0, 1.0]),
         "state is not normalized within 1e-12"),
    "measurement.entangle([])":
        (lambda: measurement.entangle([]),
         "need a nonempty 1-d amplitude list"),
    "measurement.entangle(d_object=1)":
        (lambda: measurement.entangle([0.6, 0.8], d_object=1),
         r"subsystem dimensions must be at least len\(c\)"),
    "measurement.decohere(d=2, 3 sectors)":
        (lambda: measurement.decohere(
            measurement.DensityMatrix(np.diag([0.5, 0.5])),
            measurement.SectorStructure.singletons(3)),
         "sector partition size does not match the matrix"),
    "measurement.sample_outcomes(coherent)":
        (lambda: measurement.sample_outcomes(
            measurement.DensityMatrix(np.full((2, 2), 0.5)), 10, 0),
         "matrix has coherences; decohere before sampling"),
    "measurement.sector_defect(3x3, d=2)":
        (lambda: measurement.sector_defect(
            np.eye(3), measurement.SectorStructure.singletons(2)),
         "operator shape does not match the sector space"),
    "measurement.rotation_2pi(2 components, 1 spin)":
        (lambda: measurement.rotation_2pi([1.0, 0.0], [0.5]),
         "need one spin label per component"),
    "sphere.SphereGeometry(1e-200)":
        (lambda: sphere.SphereGeometry(1e-200),
         r"the area 4 pi R\^2 of radius 1e-200 lies beyond the double range"),
    "sphere.ThermalOscillator(hbar=0)":
        (lambda: sphere.ThermalOscillator(beta=1.0, hbar=0.0),
         "hbar must be positive with a finite cell 2 pi hbar, got 0.0"),
    "sphere.Rectangle(qmin > qmax)":
        (lambda: sphere.Rectangle(1.0, 0.0, 0.0, 1.0),
         "rectangle bounds must be ordered"),
    "sphere.Disk(0)":
        (lambda: sphere.Disk(0.0), "radius must be positive and finite, "
                                   "got 0.0"),
    "sphere.PlanckConstants(h=0)":
        (lambda: sphere.PlanckConstants(h=0.0, k=1.0),
         r"h and k must be positive and finite, got \(0.0, 1.0\)"),
    "sphere.gibbs_median_radius(omega=2)":
        (lambda: sphere.gibbs_median_radius(
            sphere.ThermalOscillator(beta=1.0, omega=2.0)),
         r"median disk radius requires an isotropic oscillator"),
    "sphere.limit_ratios(nu=1e-320)":
        (lambda: sphere.limit_ratios(1e-320, 1.0),
         "u/Wien at x = hv/kT = .* lies beyond the double range"),
    "sphere.mean_energy(n=10)":
        (lambda: sphere.mean_energy(sphere.ThermalOscillator(1.0), 10, 0),
         "mean_energy needs n >= 1000 samples, got 10"),
    "sphere.pushforward_ks_statistic(n=0)":
        (lambda: sphere.pushforward_ks_statistic(1.0, 0, 0),
         "the KS statistic needs at least 1 sample, got 0"),
    "sphere.pushforward_radii(theta=pi)":
        (lambda: sphere.pushforward_radii(np.array([math.pi]), 1.0),
         "theta must lie below pi"),
    "sphere.region_probability(beta=1e-300, mass=1e-20, hbar=1)":
        (lambda: sphere.region_probability(
            sphere.Rectangle(-1.0, 1.0, -1.0, 1.0),
            sphere.ThermalOscillator(beta=1e-300, mass=1e-20, hbar=1.0)),
         "region clip tail is"),
    # a disk edge far out in the wide momentum direction
    "sphere.region_probability(Disk(275, -218, 17), beta=0.1, mass=0.01)":
        (lambda: sphere.region_probability(
            sphere.Disk(275.0, -218.0, 17.0),
            sphere.ThermalOscillator(beta=0.1, mass=0.01, hbar=1.0)),
         "region quadrature self-estimate is"),
    "states.ModeProfile([])":
        (lambda: states.ModeProfile([]),
         "profile values must form a nonempty 1-d array"),
    "states.exotic_state(2 modes, 3 modes)":
        (lambda: states.exotic_state(states.ModeProfile([1.0, 0.0]),
                                     states.ModeProfile([0.0, 0.0, 1.0])),
         "profiles live on different mode sets"),
    "states.exotic_state(intersecting)":
        (lambda: states.exotic_state(states.ModeProfile([1.0, 0.0]),
                                     states.ModeProfile([1.0, 1.0])),
         r"supports intersect at modes \[0\]"),
    "states.circle_uncertainty(0.5)":
        (lambda: states.circle_uncertainty(0.5),
         "momentum index must be an integer"),
    "states.rms_widths(unnormalized)":
        (lambda: states.rms_widths(
            charfn.GridWaveFunction(-10.0, 0.1, _gaussian_samples())),
         "packet must be normalized"),
    "states.rms_widths(flat packet)":
        (lambda: states.rms_widths(charfn.GridWaveFunction.sampled(
            np.ones_like, 0.0, 0.1, 100)),
         "position tail mass is 0.04"),
    # a width-0.1 Gaussian at spacing 0.1: its spectrum reaches Nyquist
    "states.rms_widths(under-resolved Gaussian)":
        (lambda: states.rms_widths(charfn.GridWaveFunction.sampled(
            lambda x: np.exp(-50.0 * x * x), -10.0, 0.1, 201)),
         "spectral tail mass is"),
    "states.singlet_marginal(two grids)":
        (lambda: states.singlet_marginal(
            _unit_gaussian(), charfn.GridWaveFunction.sampled(
                np.exp, -1.0, 0.1, 21)),
         "orbitals must share one grid"),
    "states.singlet_marginal(unnormalized)":
        (lambda: states.singlet_marginal(
            charfn.GridWaveFunction(-10.0, 0.1, _gaussian_samples()),
            charfn.GridWaveFunction(-10.0, 0.1, _gaussian_samples())),
         "orbitals must be normalized"),
    "states.singlet_marginal(one orbital twice)":
        (lambda: states.singlet_marginal(_unit_gaussian(), _unit_gaussian()),
         "orbital supports overlap with mass 2"),
    "states.singlet_marginal(region (1, 0))":
        (lambda: states.singlet_marginal(
            *_disjoint_orbitals(), region=(1.0, 0.0)),
         "region must satisfy xmax > xmin"),
    "toy.StochasticMatrix(columns 0.9, 1)":
        (lambda: toy.StochasticMatrix([[0.5, 0.5], [0.4, 0.5]]),
         "columns must sum to 1, got"),
    "toy.ToyUnitary(shear)":
        (lambda: toy.ToyUnitary([[1.0, 1.0], [0.0, 1.0]]),
         r"matrix is not unitary \(defect"),
    "toy.Constraint(steps=0)":
        (lambda: toy.Constraint((1.0, 0.0), (1.0, 0.0), 0),
         "steps must be >= 1"),
    "toy.markov_feasibility([])":
        (lambda: toy.markov_feasibility([]),
         "need a nonempty list of Constraint"),
    "toy.interference_demo(-1)":
        (lambda: toy.interference_demo(-1), "steps must be >= 0"),
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


# Every call of a refusing function in the package, keyed by module,
# enclosing function and message (for guard, its name), not by line.
# _mass and _indices take the message of their caller's refusal, so
# their call sites are the sites and their own checks in errors.py are
# not.  Comprehensions are no scope here: Python 3.12 inlines them.
_REFUSING = {"require": 1, "guard": 0, "_mass": 1, "_indices": 1}
PACKAGE = Path(errors.__file__).parent
_COMPREHENSION = re.compile(
    r"\.<locals>\.<(listcomp|dictcomp|setcomp|genexpr)>")


def _message_pattern(node) -> str:
    """A regex for the text of a message expression: literal parts
    escaped, every formatted or computed part free."""
    if isinstance(node, ast.Constant):
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_message_pattern(part)
                       if isinstance(part, ast.Constant) else ".*"
                       for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _message_pattern(node.left) + _message_pattern(node.right)
    return ".*"


def _refusal_sites() -> set:
    """(module, qualified function, refusing call, message pattern) of
    every refusing call in ``src/thermofock`` outside ``errors.py``."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.FunctionDef):   # as in __qualname__
                visit(child, module, scope + [child.name, "<locals>"])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in _REFUSING):
                message = child.args[_REFUSING[child.func.id]]
                sites.add((module, ".".join(scope[:-1]), child.func.id,
                           _message_pattern(message)))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "errors.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return sites


def _tripped_sites(call, sites) -> set:
    """The sites whose refusal ``call`` raises: the innermost package
    frame outside errors.py names module and function, the message
    picks the site within it."""
    try:
        call()
    except ValueError as exc:
        frames = [frame for frame, _ in traceback.walk_tb(exc.__traceback__)
                  if Path(frame.f_code.co_filename).parent == PACKAGE]
        if not frames or Path(frames[-1].f_code.co_filename).name != (
                "errors.py"):
            return set()   # raised outside the guard policy
        caller = [frame.f_code for frame in frames
                  if Path(frame.f_code.co_filename).name != "errors.py"][-1]
        module = Path(caller.co_filename).stem
        name = _COMPREHENSION.sub(
            "", getattr(caller, "co_qualname", caller.co_name))
        return {site for site in sites
                if site[0] == module
                and (site[1] == name or site[1].endswith("." + name))
                and re.fullmatch(site[3] + (" is .*" if site[2] == "guard"
                                            else ""), str(exc), re.DOTALL)}
    return set()


ENTRY_CALLS = (list(NON_FINITE_CALLS.values())
               + [call for table in (BAD_COUNT_CALLS, BAD_INDEX_CALLS,
                                     REFUSAL_CALLS)
                  for call, _ in table.values()])


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
def test_every_refusal_site_has_an_entry_that_trips_it():
    sites = _refusal_sites()
    assert len(sites) > 150   # the walk found the package's sites
    tripped = set().union(*(_tripped_sites(call, sites)
                            for call in ENTRY_CALLS))
    untripped = sorted(f"{module}:{name}: {kind}({pattern})"
                       for module, name, kind, pattern in sites - tripped)
    assert untripped == []


# Every mass the package divides by or refuses on is formed at a
# power-of-two scale (errors._mass), so an input multiplied by 2^k
# gives the answer of the input itself, bit for bit, over the whole
# double range, or a refusal that names the real cause.  Each site:
# (the input built from a short list of entries, the answer, the
# refusal an exactly scaled input may meet, or None).
_PACKET_GRID = (-20.0, 40.0 / 2048)
_PACKET_X = _PACKET_GRID[0] + _PACKET_GRID[1] * np.arange(2048)


def _hermite_packet(entries):
    """Σ_j entries_j Ψ_2j on the standard packet's grid: orders up to 16,
    past the 12 of the projection below."""
    return sum(c * fock.hermite_function(2 * j, _PACKET_X)
               for j, c in enumerate(entries))


def _occupied(values):
    """Value i on the occupation tuple (i mod 3, i div 3), one mode for
    up to three values and two beyond."""
    modes = 1 if len(values) <= 3 else 2
    return chain.MultiModeFockVector(modes, 2, {
        (i % 3, i // 3)[:modes]: c for i, c in enumerate(values)})


MASS_SITES = {
    "states.ModeProfile":
        (np.asarray, lambda v: sorted(states.ModeProfile(v).support), None),
    "charfn.GridWaveFunction.normalized":
        (np.asarray,
         lambda v: charfn.GridWaveFunction(0.0, 1.0, v).normalized().values,
         None),
    "charfn.density_from_amplitude":
        (np.asarray, lambda v: charfn.density_from_amplitude(
            charfn.GridWaveFunction(0.0, 1.0, v)).values, None),
    "states.number_expectation":
        (np.asarray, lambda v: states.number_expectation(_occupied(v)), None),
    "states.number_variance":
        (np.asarray, lambda v: states.number_variance(_occupied(v)), None),
    "states.occupation_density":
        (np.asarray, lambda v: states.occupation_density(_occupied(v)), None),
    "chain.nonrelativistic_overlap":
        (_hermite_packet, lambda v: chain.nonrelativistic_overlap(
            charfn.GridWaveFunction(*_PACKET_GRID, v), 100.0, 1.0), None),
    # the verdict; ||psi|| * 2^k itself can overflow near the top
    "fock.from_position":
        (_hermite_packet, lambda v: fock.from_position(
            charfn.GridWaveFunction(*_PACKET_GRID, v), 12) and "projected",
         "non-finite coefficients is"),
}

_PART = st.just(0.0) | st.builds(
    math.ldexp, st.floats(0.5, 1.0) | st.floats(-1.0, -0.5),
    st.integers(-40, 40))


def _outcome(answer, values):
    """The answer's bytes, or the text of its refusal."""
    try:
        return np.asarray(answer(values)).tobytes()
    except ValueError as exc:   # NumericalGuardError included
        return str(exc)


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@settings(max_examples=400)
@given(site=st.sampled_from(sorted(MASS_SITES)),
       entries=st.lists(st.builds(complex, _PART, _PART), min_size=2,
                        max_size=9),
       k=st.integers(-1100, 1100))
@example(site="states.ModeProfile", entries=[1e-170, 0.0], k=0)
@example(site="states.ModeProfile", entries=[1e160, 0.0], k=0)
@example(site="charfn.GridWaveFunction.normalized",
         entries=[1e-170, 1e-170], k=0)
@example(site="charfn.GridWaveFunction.normalized",
         entries=[1e160, 1e160], k=0)
@example(site="states.number_expectation", entries=[0.0, 1e-170], k=0)
@example(site="states.number_expectation", entries=[0.0, 1e160], k=0)
@example(site="states.number_variance", entries=[0.0, 1e-170], k=0)
@example(site="states.number_variance", entries=[0.0, 1e160], k=0)
@example(site="states.occupation_density", entries=[0.0, 1e-170], k=0)
@example(site="states.occupation_density", entries=[0.0, 1e160], k=0)
def test_every_mass_is_scale_free(site, entries, k):
    build, answer, scale_refusal = MASS_SITES[site]
    values = np.asarray(build(entries), dtype=complex)
    parts = values.view(float)
    exponents = np.frexp(parts[parts != 0.0])[1]
    top = int(exponents.max(initial=0))
    # k keeps every nonzero part a finite normal double
    k = min(max(k, -1021 - int(exponents.min(initial=0))), 1024 - top)
    expected = _outcome(answer, np.ldexp(parts, -top).view(complex))
    got = _outcome(answer, np.ldexp(parts, k).view(complex))
    assert got == expected or (
        scale_refusal is not None and got.startswith(scale_refusal))


# Each check that an input is already normalized forms its mass with
# errors._sum_squares, so an input whose exact mass is not 1 is refused
# with the check's message at every scale, never with an overflow
# warning.  Each site: (the call on a short list of entries, its refusal).
def _packet(values):
    return charfn.GridWaveFunction(0.0, 1.0, values)


NORMALIZED_SITES = {
    "states.rms_widths":
        (lambda v: states.rms_widths(_packet(v)), "packet must be normalized"),
    "charfn.autocorrelation_charfn":
        (lambda v: charfn.autocorrelation_charfn(_packet(v), np.zeros(1)),
         "packet must be normalized"),
    "charfn.verify_theorem":
        (lambda v: charfn.verify_theorem(_packet(v)),
         "packet must be normalized"),
    "states.singlet_marginal":
        (lambda v: states.singlet_marginal(_packet(v), _packet(v)),
         "orbitals must be normalized"),
    "measurement.entangle":
        (measurement.entangle, "state is not normalized within 1e-12"),
}


@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(site=st.sampled_from(sorted(NORMALIZED_SITES)),
       entries=st.lists(st.builds(complex, _PART, _PART), min_size=2,
                        max_size=9),
       k=st.integers(-1100, 1100))
@example(site="states.rms_widths", entries=[1e160, 1e160], k=0)
@example(site="charfn.autocorrelation_charfn", entries=[1e160, 1e160], k=0)
@example(site="charfn.verify_theorem", entries=[1e160, 1e160], k=0)
@example(site="states.singlet_marginal", entries=[1e160, 1e160], k=0)
@example(site="measurement.entangle", entries=[1e200], k=0)
def test_an_unnormalized_input_is_refused_at_every_scale(site, entries, k):
    call, message = NORMALIZED_SITES[site]
    parts = np.asarray(entries, dtype=complex).view(float)
    top = int(np.frexp(parts[parts != 0.0])[1].max(initial=0))
    values = np.ldexp(parts, min(k, 1024 - top)).view(complex)  # finite
    mass = sum(Fraction(x) ** 2 for x in values.view(float).tolist())
    assume(abs(mass - 1) > Fraction(1, 10 ** 6))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(values)
