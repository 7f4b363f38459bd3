"""From a uniform sphere to a thermal plane, and out to radiation laws.

A sphere of area h carries exactly one cell of phase space, so "pick a
point uniformly" is a legitimate probability rule.  Mapping the sphere
onto the plane with a measure-preserving stereographic-style map turns
that uniform rule into the thermal weight of a harmonic degree of
freedom.  This script shows the pipeline end to end:

- cap areas match disk masses exactly under the measure-preserving map;
- sampled radii pass a Kolmogorov–Smirnov test against the radial law;
- the thermal normalization integrates to one, and the mean energy
  lands on the classical value;
- summing independent modes gives a spectral density with the right
  high- and low-frequency limits;
- shrinking the area quantum freezes the thermal motion;
- the paper's own map, with its 3R² factor, misses the exact map at
  the equator, and the miss is a number, not a hidden assumption.
"""

import math
import sys

import numpy as np

from thermofock.sphere import (
    Disk,
    SpherePoint,
    ThermalOscillator,
    cap_area_fraction,
    classical_limit_table,
    gibbs_median_radius,
    gibbs_normalization_check,
    limit_ratios,
    mean_energy,
    pushforward_ks_statistic,
    region_probability,
    thermal_map_exact,
    thermal_map_paper,
)

BETA = 1.0

print("=" * 70)
print("1. Caps map to disks of equal mass")
print("=" * 70)
osc = ThermalOscillator(beta=BETA)
for theta in (0.5, 1.0, 2.0):
    z = thermal_map_exact(SpherePoint(theta, 0.3), beta=BETA)
    cap = cap_area_fraction(theta)
    disk = region_probability(Disk(abs(z)), osc)
    print(f"  polar angle {theta:.1f}:  cap fraction {cap:.10f},  "
          f"disk mass {disk:.10f}")
    # region_probability vouches for its mass to its 1e-7 self-estimate
    if abs(cap - disk) > 1e-7:
        sys.exit(f"polar angle {theta}: cap fraction {cap!r} is not the "
                 f"disk mass {disk!r}")

print()
print("=" * 70)
print("2. Sampled radii against the radial law")
print("=" * 70)
ks = pushforward_ks_statistic(beta=BETA, n=100000, seed=7)
print(f"  KS statistic at n = 1e5: {ks:.5f}  (threshold 0.01)")

print()
print("=" * 70)
print("3. Normalization and mean energy")
print("=" * 70)
mass = gibbs_normalization_check(osc)
print(f"  quadrature mass: {mass:.12f}  (analytic 1)")
mc, stderr = mean_energy(osc, n=200000, seed=3)
print(f"  Monte Carlo mean energy: {mc:.6f} +- {stderr:.6f}  "
      f"(target {1.0 / BETA})")
median = gibbs_median_radius(osc)
half = region_probability(Disk(median), osc)
print(f"  median-radius disk holds {half:.10f} of the mass")

print()
print("=" * 70)
print("4. Spectral density limits")
print("=" * 70)
print("  x = (energy gap)/(temperature); ratios of the full density")
print(f"  {'x':>8s} {'vs high-freq law':>18s} {'vs low-freq law':>18s}")
for x in (0.01, 0.1, 1.0, 10.0):
    wien, rj = limit_ratios(x, 1.0)
    print(f"  {x:8.2f} {wien:18.10f} {rj:18.10f}")
print("  -> 1 on the right end at high x, 1 on the left end at low x.")

print()
print("=" * 70)
print("5. Shrinking the area quantum freezes the motion")
print("=" * 70)
print(f"  {'area quantum/2pi':>18s} {'temperature':>14s} "
      f"{'sphere radius R = sqrt(hbar/2)':>31s}")
for hbar, temp, radius in classical_limit_table([1.0, 0.1, 0.01], 1.0):
    print(f"  {hbar:18.3g} {temp:14.3g} {radius:31.4f}")
print("  Thermal spread vanishes with the quantum: the classical limit")
print("  is a frozen point, not a recovered classical ensemble.")

print()
print("=" * 70)
print("6. The paper's map against the exact map at the equator")
print("=" * 70)
# A sphere of area h = 2 pi / beta has 4 pi R^2 = 2 pi at beta = 1.
R = 1.0 / math.sqrt(2.0)
equator = SpherePoint(math.pi / 2)
print("  sphere of area h at beta = 1: R = 1/sqrt(2)")
print(f"  the cap down to the equator holds "
      f"{cap_area_fraction(math.pi / 2):.10f} of the sphere")
print("  plane of the paper's map: z = (q + ip)/sqrt(2), where a disk")
print("  |z| < rho holds Gibbs mass 1 - exp(-beta rho^2) and ln 2 / beta")
print("  is the median |z|^2; the exact map's point q + ip lies at")
print("  |z|^2 = (q^2 + p^2)/2")
exact = abs(thermal_map_exact(equator, BETA)) ** 2 / 2.0
paper = abs(thermal_map_paper(equator, R, BETA)) ** 2
for name, z2 in (("exact", exact), ("paper", paper)):
    print(f"  {name} map:  |z|^2 = {z2:.10f},  "
          f"disk mass 1 - exp(-beta |z|^2) = {-math.expm1(-BETA * z2):.10f}")
print(f"  miss in that plane: |z|^2 {paper - exact:+.10f}, disk mass "
      f"{math.expm1(-BETA * exact) - math.expm1(-BETA * paper):+.10f}")
print(f"  ln 2 = {math.log(2.0):.10f}, "
      f"0.75 ln 2 = {0.75 * math.log(2.0):.10f}:")
print("  the paper's 3R^2 factor moves the equator off the half-mass disk.")
