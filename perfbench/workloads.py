"""The in-process workloads, `ladder` and `oracles`.

`ladder` runs the dense spectral kernels on a size ladder: the top rung
dominates its time, and the rungs give the fitted log-log slopes.
`oracles` runs the same layers on small inputs with many calls: the
dense oracles and interpreter-bound loops, where a change that wins at
large size (FFT, vectorisation, lazy import) can lose.

Every op draws its inputs from ``default_rng([seed, op index])`` and
returns (metric, value, bound) checks; an op is correct when each
value <= bound.  Modules are reached through their module objects at
call time, so the span wrappers installed by the traced run see every
call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from thermofock import (chain, charfn, exterior, fock, measurement, sphere,
                        states, toy)
from tables import SIGMAS

EVOLVE_DRIFT = 2e-3   # bounded leapfrog energy oscillation (test_chain)


@dataclass(frozen=True)
class Op:
    layer: str
    name: str
    size: int         # the size the timed pass uses
    warm_size: int    # the size the warm-up uses
    run: object       # run(rng, size) -> [(metric, value, bound)]


# -- input builders ---------------------------------------------------------

def _packet(rng, n: int, kind: str):
    center, width = rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.25)

    def values(x):
        u = (x - center) / width
        return (u if kind == "hermite1" else 1.0) * np.exp(-0.5 * u * u)
    return charfn.GridWaveFunction.sampled(values, -20.0, 40.0 / n, n)


def _bump(center: float, halfwidth: float):
    def values(x):
        u = (x - center) / halfwidth
        out = np.zeros_like(x)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out
    return values


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


# -- charfn -----------------------------------------------------------------

def verify_theorem(kind):
    def run(rng, n):
        return [("charfn.route_gap",
                 charfn.verify_theorem(_packet(rng, n, kind)), 1e-6)]
    return run


def autocorrelation_off_lattice(rng, n):
    psi = _packet(rng, n, "gaussian")
    dxi = (2.0 * math.pi / psi.dx) / (4 * n)
    t = charfn.default_t_grid(psi) + rng.uniform(0.25, 0.75) * dxi
    direct = charfn.characteristic_function(
        charfn.density_from_amplitude(psi), t)
    auto = charfn.autocorrelation_charfn(psi, t)
    gap = float(np.max(np.abs(direct.values - auto.values)))
    return [("charfn.route_gap", gap, 1e-6)]


# -- chain ------------------------------------------------------------------

def gibbs_sample(samples=None, sites=None):
    """Gibbs sampling whose size is the sample count or the site count,
    whichever is not fixed here."""
    def run(rng, size):
        n, samples_ = sites or size, samples or size
        spec = chain.ChainSpec(n)
        beta = rng.uniform(0.5, 2.0)
        q, p = chain.gibbs_sample(spec, beta, samples_, _seed(rng))
        omega = chain.normal_modes(spec).omega
        u = np.fft.fft(q, axis=1) / math.sqrt(n)
        v = np.fft.fft(p, axis=1) / math.sqrt(n)
        per_sample = np.mean(0.5 * (np.abs(v) ** 2
                                    + omega ** 2 * np.abs(u) ** 2), axis=1)
        stderr = np.std(per_sample, ddof=1) / math.sqrt(samples_)
        return [(None, abs(np.mean(per_sample) - 1.0 / beta) / stderr,
                 SIGMAS)]
    return run


def evolve(steps=None, sites=None):
    """Leapfrog evolution whose size is the step count or the site
    count, whichever is not fixed here."""
    def run(rng, size):
        n, steps_ = sites or size, steps or size
        spec = chain.ChainSpec(n)
        state = chain.ChainState(0.1 * rng.standard_normal(n),
                                 0.1 * rng.standard_normal(n))
        traj = chain.evolve(state, spec, steps=steps_)
        stride = max(1, steps_ // 200)
        energies = chain.total_energies(traj.q[::stride], traj.p[::stride],
                                        spec)
        drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
        return [("chain.energy_drift", drift, EVOLVE_DRIFT)]
    return run


def hamiltonian_operator(rng, modes):
    spec = chain.ChainSpec(modes)
    occ = tuple(int(k) for k in rng.integers(0, 2, size=modes))
    state = chain.MultiModeFockVector(modes, 2, {occ: 1.0})
    out = chain.hamiltonian_operator_apply(state, spec)
    omega = spec.dispersion(spec.k_grid())
    expected = float(sum(w * (k + 0.5) for w, k in zip(omega, occ)))
    stray = sum(abs(c) for key, c in out.coeffs.items() if key != occ)
    return [(None, abs(out.coeffs.get(occ, 0.0) - expected), 1e-12),
            (None, stray, 0.0)]


# -- states -----------------------------------------------------------------

def singlet_marginal(rng, n):
    x0, dx = -10.0, 20.0 / n
    f1 = charfn.GridWaveFunction.sampled(
        _bump(-4.0 + rng.uniform(-0.5, 0.5), 2.0), x0, dx, n)
    f2 = charfn.GridWaveFunction.sampled(
        _bump(4.0 + rng.uniform(-0.5, 0.5), 2.0), x0, dx, n)
    density, full = states.singlet_marginal(f1, f2)
    closed = 0.5 * (np.abs(f1.values) ** 2 + np.abs(f2.values) ** 2)
    gap = float(np.max(np.abs(density.values - closed)))
    return [(None, abs(full - 1.0), 1e-10),
            ("states.singlet_gap", gap, 1e-10)]


def hermite_widths(rng, nmax):
    worst = 0.0
    for n in range(nmax + 1):
        psi = charfn.GridWaveFunction.sampled(
            lambda x, n=n: fock.hermite_function(n, x), -20.0, 40.0 / 1024,
            1024)
        wx, wk = states.rms_widths(psi)
        worst = max(worst, abs(wx * wk - (n + 0.5)))
    return [(None, worst, 1e-9)]


def split_states(rng, modes):
    values1 = np.zeros(modes, dtype=complex)
    values2 = np.zeros(modes, dtype=complex)
    half = modes // 2
    values1[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    values2[half:] = (rng.standard_normal(modes - half)
                      + 1j * rng.standard_normal(modes - half))
    f1 = states.ModeProfile.from_values(values1)
    f2 = states.ModeProfile.from_values(values2)
    one = states.exotic_state(f1, f2)
    two = states.two_particle_state(f1, f2)
    return [(None, abs(states.number_expectation(one) - 1.0), 0.0),
            (None, states.number_variance(one), 0.0),
            (None, abs(states.number_expectation(two) - 2.0), 1e-12),
            (None, abs(chain.fock_inner(one, two)), 1e-12)]


# -- measurement ------------------------------------------------------------

def decohere_two_sectors(rng, d):
    rho = measurement.random_density(d, rng)
    perm = rng.permutation(d)
    cut = int(rng.integers(d // 4, 3 * d // 4))
    sectors = measurement.SectorStructure(
        {0: tuple(sorted(perm[:cut])), 1: tuple(sorted(perm[cut:]))},
        {0: 0.0, 1: 1.0})
    out = measurement.decohere(rho, sectors).matrix
    label = np.zeros(d, dtype=int)
    label[perm[cut:]] = 1
    same = label[:, None] == label[None, :]
    return [(None, float(np.max(np.abs(out[~same]))), 0.0),
            (None, float(np.max(np.abs(out[same] - rho.matrix[same]))), 0.0),
            ("measurement.trace_defect", abs(np.trace(out).real - 1.0),
             1e-12)]


def decohere_singletons(rng, d):
    rho = measurement.random_density(d, rng)
    out = measurement.decohere(rho, measurement.SectorStructure.singletons(d))
    diag_gap = float(np.max(np.abs(np.diag(out.matrix)
                                   - np.diag(rho.matrix))))
    return [(None, out.off_diagonal_max(), 0.0), (None, diag_gap, 0.0),
            ("measurement.trace_defect", abs(np.trace(out.matrix).real - 1.0),
             1e-12)]


def measurement_chain(rng, samples):
    amps = rng.uniform(0.2, 1.0, size=3)
    amps = amps / np.linalg.norm(amps)
    rho = measurement.reduced_density(measurement.entangle(amps), "apparatus")
    rho = measurement.decohere(rho, measurement.SectorStructure.singletons(3))
    table = measurement.sample_outcomes(rho, samples, _seed(rng))
    sigmas = np.abs(table.frequencies - table.probabilities) \
        / table.standard_errors()
    return [(None, float(np.max(sigmas)), SIGMAS),
            (None, float(np.max(np.abs(table.probabilities - amps ** 2))),
             1e-12),
            ("measurement.trace_defect", abs(np.trace(rho.matrix).real - 1.0),
             1e-12)]


# -- fock -------------------------------------------------------------------

def quadrature_gram(rng, nmax):
    basis = [fock.FockVector.basis_state(n, nmax) for n in range(nmax + 1)]
    worst = 0.0
    for n, zn in enumerate(basis):
        for m, zm in enumerate(basis):
            value = fock.quadrature_inner_product(zn, zm)
            worst = max(worst, abs(value - (1.0 if n == m else 0.0)))
    return [("fock.gram_defect", worst, 1e-9)]


def kernel_table(rng, points):
    z = rng.uniform(0.0, 2.0, points) * np.exp(2j * np.pi
                                                * rng.uniform(size=points))
    q = np.linspace(-12.0, 12.0, 2401)
    kernels = [fock.bargmann_kernel(complex(zi), q) for zi in z]
    worst = 0.0
    for i in range(points):
        for j in range(points):
            integral = np.trapezoid(kernels[i] * np.conj(kernels[j]), q)
            worst = max(worst, abs(integral - np.exp(z[i] * np.conj(z[j]))))
    return [("fock.kernel_defect", worst, 1e-8)]


def position_round_trip(rng, nmax):
    coeffs = rng.standard_normal(nmax + 1) + 1j * rng.standard_normal(nmax + 1)
    f = fock.FockVector(coeffs / np.linalg.norm(coeffs))
    psi = fock.to_position(f, np.linspace(-12.0, 12.0, 2401))
    back = fock.from_position(psi, nmax)
    return [(None, float(np.max(np.abs(back.coeffs - f.coeffs))), 1e-8)]


# -- sphere -----------------------------------------------------------------

def sphere_masses(rng, count):
    checks = []
    for beta in (0.5, 1.0, 2.0)[:count]:
        osc = sphere.ThermalOscillator(beta=beta)
        checks.append(("sphere.mass_defect",
                       abs(sphere.gibbs_normalization_check(osc) - 1.0),
                       1e-8))
        r = rng.uniform(0.5, 2.0) / math.sqrt(beta)
        disk = sphere.region_probability(sphere.Disk(r), osc)
        checks.append((None, abs(disk + math.expm1(-0.5 * beta * r * r)),
                       1e-7))
        q0 = rng.uniform(-1.0, 1.0) / math.sqrt(beta)
        half = sphere.region_probability(
            sphere.Rectangle(q0, math.inf, -math.inf, math.inf), osc)
        checks.append((None, abs(half - 0.5 * math.erfc(
            q0 * math.sqrt(0.5 * beta))), 1e-7))
    return checks


def pushforward_ks(rng, n):
    beta = float(rng.choice([0.5, 1.0, 2.0]))
    return [("sphere.ks_statistic",
             sphere.pushforward_ks_statistic(beta, n, _seed(rng)), 0.01)]


# -- toy --------------------------------------------------------------------

def feasibility(rng, _):
    walk = [toy.Constraint((1.0, 0.0), (0.5, 0.5), 1),
            toy.Constraint((0.0, 1.0), (0.5, 0.5), 1),
            toy.Constraint((1.0, 0.0), (1.0, 0.0), 2),
            toy.Constraint((0.0, 1.0), (0.0, 1.0), 2)]
    forced = toy.markov_feasibility(walk)
    w = toy.StochasticMatrix.from_params(rng.uniform(), rng.uniform())
    p = np.array([0.8, 0.2])
    state, generated = p.copy(), []
    for steps in (1, 2, 3):
        state = w.entries @ state
        generated.append(toy.Constraint(tuple(p), tuple(state), steps))
    feasible = toy.markov_feasibility(generated)
    contradiction = toy.markov_feasibility([
        toy.Constraint((1.0, 0.0), (0.0, 1.0), 2),
        toy.Constraint((0.0, 1.0), (0.0, 1.0), 2),
        toy.Constraint((0.5, 0.5), (1.0, 0.0), 2)])
    verdicts = [
        not forced.feasible and "force both columns" in forced.certificate,
        feasible.feasible,
        not contradiction.feasible and "infeasible" in (
            contradiction.certificate or ""),
    ]
    return [("toy.verdicts_ok", 0.0 if ok else 1.0, 0.0) for ok in verdicts]


# -- exterior ---------------------------------------------------------------

def axioms(rng, spaces):
    failures = 0
    for _ in range(spaces):
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi = psi / np.linalg.norm(psi)
        space = exterior.AmplitudeEventSpace(tuple(psi), tuple(np.conj(psi)))
        failures += not exterior.check_axioms(space).passed
    return [(None, failures, 0)]


LADDER = (
    [Op("charfn", f"verify_theorem.{kind}", n, 1024, verify_theorem(kind))
     for n in (1024, 2048, 4096) for kind in ("gaussian", "hermite1")]
    + [Op("chain", "gibbs_sample", n, 512, gibbs_sample(samples=256))
       for n in (512, 1024, 2048)]
    + [Op("chain", "evolve", n, 1024, evolve(steps=4000)) for n in (1024, 4096)]
    + [Op("states", "singlet_marginal", n, 1001, singlet_marginal)
       for n in (1001, 2001, 4001)]
    + [Op("measurement", "decohere", d, 256, decohere_two_sectors)
       for d in (256, 512, 1024)]
)

ORACLES = [
    Op("fock", "quadrature_gram", 12, 2, quadrature_gram),
    Op("fock", "bargmann_kernel", 5, 2, kernel_table),
    Op("fock", "position_round_trip", 10, 4, position_round_trip),
    Op("sphere", "gibbs_and_regions", 3, 1, sphere_masses),
    Op("sphere", "pushforward_ks", 100_000, 10_000, pushforward_ks),
    Op("charfn", "autocorrelation_off_lattice", 256, 64,
       autocorrelation_off_lattice),
    Op("charfn", "verify_theorem.gaussian", 128, 128,
       verify_theorem("gaussian")),
    Op("charfn", "verify_theorem.gaussian", 256, 128,
       verify_theorem("gaussian")),
    Op("charfn", "verify_theorem.gaussian", 512, 128,
       verify_theorem("gaussian")),
    Op("chain", "gibbs_sample.samples", 20_000, 500,
       gibbs_sample(sites=64)),
    Op("chain", "evolve.steps", 20_000, 500, evolve(sites=64)),
    Op("chain", "hamiltonian_operator_apply", 16, 4, hamiltonian_operator),
    Op("toy", "markov_feasibility", 3, 3, feasibility),
    Op("measurement", "decohere.singletons", 8, 4, decohere_singletons),
    Op("measurement", "sample_outcomes", 1_000_000, 10_000,
       measurement_chain),
    Op("states", "rms_widths", 6, 1, hermite_widths),
    Op("states", "split_states", 8, 4, split_states),
    Op("exterior", "check_axioms", 200, 5, axioms),
]

WORKLOADS = {"ladder": LADDER, "oracles": ORACLES}


def warm_ops(ops):
    """One warm-up op per distinct (layer, name), at its warm-up size."""
    seen, out = set(), []
    for op in ops:
        if (op.layer, op.name) not in seen:
            seen.add((op.layer, op.name))
            out.append(op)
    return out
