"""A ring of coupled oscillators, from lattice to continuum.

The chain is the workhorse: exact normal modes, a symplectic
integrator, thermal sampling, and two limits (vanishing spacing,
heavy mass).  This script runs each piece:

- the dispersion relation against a dense matrix diagonalization;
- energy bookkeeping across the site and mode pictures;
- leapfrog evolution holding the energy to integrator accuracy;
- thermal samples showing equipartition mode by mode;
- the spacing-halving convergence of the lattice dispersion to its
  continuum form;
- the heavy-mass packet overlap between the second-order and the
  diffusive first-order evolutions;
- the rescaled amplitudes a_k = sqrt(omega_k/omega_ref) a(k), which
  write the energy with one reference frequency for every mode.
"""

import sys

import numpy as np

from thermofock.chain import (
    ChainSpec,
    ChainState,
    continuum_limit_error,
    evolve,
    gibbs_sample,
    hamiltonian,
    mode_energies,
    mode_transform,
    nonrelativistic_overlap,
    normal_modes,
    rescaled_modes,
    standard_packet,
)

print("=" * 70)
print("1. Dispersion against a dense oracle (16 sites)")
print("=" * 70)
spec = ChainSpec(n_sites=16, mass=1.0, gamma=1.0)
modes = normal_modes(spec)
coupling = spec.coupling_matrix()
oracle = np.sqrt(np.linalg.eigvalsh(coupling))
defect = np.max(np.abs(np.sort(modes.omega) - oracle))
for k, omega in list(zip(modes.k, modes.omega))[:5]:
    print(f"  k = {k:+.4f}:  omega = {omega:.10f}")
print(f"  ... max |mode - oracle| over all 16: {defect:.2e}")

print()
print("=" * 70)
print("2. Energy is the same in both pictures")
print("=" * 70)
rng = np.random.default_rng(5)
state = ChainState(rng.standard_normal(16), rng.standard_normal(16))
site_energy = hamiltonian(state, spec)
mode_energy = np.sum(mode_energies(mode_transform(state, spec)))
print(f"  site picture: {site_energy:.12f}")
print(f"  mode picture: {mode_energy:.12f}")

print()
print("=" * 70)
print("3. Leapfrog holds the energy")
print("=" * 70)
trajectory = evolve(state, spec, dt=0.01, steps=5000)
energies = trajectory.energies(spec)
drift = np.max(np.abs(energies - energies[0])) / energies[0]
print(f"  5000 steps at dt = 0.01: relative energy excursion {drift:.2e}")

print()
print("=" * 70)
print("4. Equipartition in thermal samples")
print("=" * 70)
beta = 2.0
q, p = gibbs_sample(spec, beta=beta, n=20000, seed=11)
print(f"  beta = {beta}: every mode should average {1.0 / beta} per mode")
u = np.fft.fft(q, axis=1) / np.sqrt(spec.n_sites)
v = np.fft.fft(p, axis=1) / np.sqrt(spec.n_sites)
mode_e = 0.5 * (np.abs(v) ** 2 + modes.omega**2 * np.abs(u) ** 2)
means = mode_e.mean(axis=0)
print(f"  smallest mode average: {means.min():.4f}")
print(f"  largest mode average:  {means.max():.4f}")
totals = mode_e.sum(axis=1)
print(f"  total average energy:  {totals.mean():.4f}  "
      f"(target {spec.n_sites / beta})")
# the sample mean of the total energy lies within 3 standard errors of N/beta
total_stderr = totals.std(ddof=1) / np.sqrt(totals.size)
if abs(totals.mean() - spec.n_sites / beta) > 3.0 * total_stderr:
    sys.exit(f"total average energy {totals.mean():.6f} is more than 3 "
             f"standard errors ({total_stderr:.6f}) from "
             f"{spec.n_sites / beta}")

print()
print("=" * 70)
print("5. Halving the spacing quarters the dispersion error")
print("=" * 70)
table = continuum_limit_error(1.0, 1.0, [0.4, 0.2, 0.1, 0.05])
previous = None
for a, err in table:
    ratio = "" if previous is None else f"  ratio {previous / err:.2f}"
    print(f"  spacing {a:5.2f}:  max error {err:.3e}{ratio}")
    previous = err

print()
print("=" * 70)
print("6. Heavy packets forget relativity")
print("=" * 70)
packet = standard_packet()
for m in (25.0, 50.0, 100.0):
    overlap = nonrelativistic_overlap(packet, m, 1.0)
    print(f"  mass {m:6.0f}:  1 - overlap at t = 1: {1.0 - overlap:.3e}")
print("  1 - overlap falls as m^-6, the square of the k^4 t / 8m^3 phase;")
print("  (at m = 200 it reaches the double rounding of the overlap)")

print()
print("=" * 70)
print("7. One frequency for every mode")
print("=" * 70)
rescaled = rescaled_modes(mode_transform(state, spec), spec)
print(f"  omega_ref * sum |a_k|^2: "
      f"{spec.omega_ref * np.sum(np.abs(rescaled) ** 2):.12f}")
print(f"  H of the section 2 state: {site_energy:.12f}")
