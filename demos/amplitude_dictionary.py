"""Amplitudes as square roots of probability, tested three ways.

Any probability density with a characteristic function can be written
as the autocorrelation of a complex amplitude; widths of the amplitude
and its Fourier partner obey the uncertainty floor; and occupation
amplitudes let a single quantum live in two places while still
counting as exactly one.  This script exercises each claim:

- the characteristic function computed from the density matches the
  amplitude autocorrelation route;
- random wave packets never beat the width floor, Gaussians saturate
  it, and a momentum state on a circle shows the floor is not
  universal;
- a one-particle state split across disjoint mode groups has mean
  count one with zero variance;
- an antisymmetric two-particle state puts exactly half its marginal
  mass on each side;
- the amplitude-measure axioms Q1–Q4 hold for a two-event space in
  both density modes and catch densities that do not sum to 1 and a
  broken additivity; a weight pair's bivector coefficient is the
  product of its weights, while a complex coordinate pair's density
  changes sign under a swap and a two-wave bosonic current takes both
  signs.
"""

import numpy as np

from thermofock.charfn import (
    GridWaveFunction,
    autocorrelation_charfn,
    characteristic_function,
    default_t_grid,
    density_from_amplitude,
    verify_theorem,
)
from thermofock.exterior import (
    AmplitudeEventSpace,
    bilinear_density,
    boson_density,
    check_axioms,
    complex_pair_density,
)
from thermofock.states import (
    ModeProfile,
    circle_uncertainty,
    exotic_state,
    number_expectation,
    number_variance,
    occupation_density,
    rms_widths,
    singlet_marginal,
)

print("=" * 70)
print("1. Two routes to the characteristic function")
print("=" * 70)
psi = GridWaveFunction.sampled(lambda x: np.exp(-x * x / 2.0),
                               -20.0, 40.0 / 512, 512)
t_grid = default_t_grid(psi)
direct = characteristic_function(density_from_amplitude(psi), t_grid)
auto = autocorrelation_charfn(psi, t_grid)
gap = np.max(np.abs(direct.values - auto.values))
print(f"  Gaussian amplitude, {t_grid.size} frequencies: "
      f"max route difference {gap:.2e}")
print(f"  one-call check: {verify_theorem(psi):.2e}")

print()
print("=" * 70)
print("2. The width floor")
print("=" * 70)
dx, dk = rms_widths(psi)
print(f"  Gaussian:     width product {dx * dk:.9f}  (floor 0.5)")
rng = np.random.default_rng(12)
worst = np.inf
for _ in range(50):
    sigma = rng.uniform(0.7, 2.5)
    center = rng.uniform(-2.0, 2.0)
    boost = rng.uniform(-1.5, 1.5)
    packet = GridWaveFunction.sampled(
        lambda x: np.exp(-(x - center) ** 2 / (2 * sigma**2)
                         + 1j * boost * x),
        -30.0, 0.05, 1200)
    dx, dk = rms_widths(packet)
    worst = min(worst, dx * dk)
print(f"  50 random packets: smallest product {worst:.9f}")
triple = circle_uncertainty(3)
print(f"  momentum state on a circle: momentum width {triple.delta_p}, "
      f"angle width {triple.delta_phi_rms:.6f}")
print("  zero times finite undercuts any universal product floor;")
print("  the floor is a statement about the line, not about quantum")
print("  kinematics in general.")

print()
print("=" * 70)
print("3. One quantum, two places")
print("=" * 70)
values1 = np.zeros(6, dtype=complex)
values2 = np.zeros(6, dtype=complex)
values1[[0, 1]] = [0.8, 0.6j]
values2[[3, 4]] = [0.6, -0.8]
phi = exotic_state(ModeProfile.from_values(values1),
                   ModeProfile.from_values(values2))
print(f"  mean count:     {number_expectation(phi)}")
print(f"  count variance: {number_variance(phi)}")
print(f"  occupation by mode: "
      f"{np.round(occupation_density(phi), 4)}")

print()
print("=" * 70)
print("4. The antisymmetric pair splits its mass")
print("=" * 70)


def orbital(center):
    return GridWaveFunction.sampled(
        lambda x: np.where(np.abs(x - center) <= 2.5,
                           np.exp(-(x - center) ** 2 / 0.5), 0.0),
        -8.0, 0.01, 1601)


marginal, left_mass = singlet_marginal(orbital(-3.0), orbital(3.0),
                                       region=(-8.0, 0.0))
print(f"  total marginal mass: {marginal.total_mass():.12f}")
print(f"  mass left of the origin: {left_mass:.12f}")

print()
print("=" * 70)
print("5. The axioms, and densities that are not probabilities")
print("=" * 70)
space = AmplitudeEventSpace(amp_e=(0.6, 0.8j), amp_ebar=(0.6, -0.8j))
for mode in ("nonrelativistic", "fermionic"):
    report = check_axioms(space, mode)
    probabilities = ", ".join(f"{p:.2f}" for p in report.probabilities)
    print(f"  {mode:22s} axioms {'hold' if report else 'fail'}, "
          f"event probabilities {probabilities}")
print("  sides (1, i) and (0.5, -0.5i) have total amplitude 1, but the "
      "fermionic")
print("  densities read one side only:")
unpaired = AmplitudeEventSpace(amp_e=(1.0, 1j), amp_ebar=(0.5, -0.5j))
for violation in check_axioms(unpaired, "fermionic").violations:
    print(f"    {violation}")
print("  an override of 0.9 on the pair of events breaks two axioms:")
broken = AmplitudeEventSpace((0.6, 0.8j), (0.6, -0.8j), {(0, 1): 0.9})
for violation in check_axioms(broken).violations:
    print(f"    {violation}")
print(f"  bivector coefficient of the weights (0.3, 0.5): "
      f"{bilinear_density(0.3, 0.5):.6f} = 0.3 * 0.5")
zq, zp = 1.0 + 0.5j, 0.3 - 0.8j
print(f"  complex pair density {complex_pair_density(zq, zp):+.6f}, "
      f"swapped {complex_pair_density(zp, zq):+.6f}")
x = np.linspace(0.0, 2.0 * np.pi, 201)
t = np.linspace(0.0, 2.0 * np.pi, 201)[:, None]
rho = boson_density([3.0, 1.0], [0.6, 0.8], x, t, k=[1.0, -1.0])
print(f"  two-wave bosonic current ranges over [{rho.min():+.4f}, "
      f"{rho.max():+.4f}] (closed form [-0.4, +7.28]):")
print("  a conserved current, not a probability.")
