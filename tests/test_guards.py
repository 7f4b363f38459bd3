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
        lambda: toy.markov_step([NAN, NAN], toy.StochasticMatrix.identity()),
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
        lambda: states.ModeProfile([NAN, 1.0], {0, 1}),
    "fock.FockVector([nan])":
        lambda: fock.FockVector([NAN]),
    "fock.FockVector(hbar=inf)":
        lambda: fock.FockVector([1.0], hbar=INF),
    "fock.GaussianMeasure(inf)":
        lambda: fock.GaussianMeasure(INF),
    "charfn.GridWaveFunction(nan samples)":
        lambda: charfn.GridWaveFunction(0.0, 0.1, [1.0, NAN, 1.0]),
    "charfn.DensityGrid([inf, 1])":
        lambda: charfn.DensityGrid(0.0, 0.1, [INF, 1.0]),
    "charfn.characteristic_function(t=nan)":
        lambda: charfn.characteristic_function(
            charfn.DensityGrid(-10.0, 0.1, _gaussian_samples()), [0.0, NAN]),
    "charfn.autocorrelation_charfn(t=nan)":
        lambda: charfn.autocorrelation_charfn(
            charfn.GridWaveFunction(-10.0, 0.1, _gaussian_samples()), [NAN]),
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
    "states.ModeProfile(support=[0.9])":
        (lambda: states.ModeProfile([1.0, 0.0, 0.0], [0.9]),
         "support must be integers"),
    "measurement.entangle(d_object=2.5)":
        (lambda: measurement.entangle([0.6, 0.8], d_object=2.5),
         "subsystem dimensions must be integers"),
    "chain.evolve(steps=2.5)":
        (lambda: chain.evolve(chain.ChainState.zero(8), chain.ChainSpec(8),
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
