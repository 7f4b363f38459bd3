"""A tour of the truncated oscillator space and its two faces.

The same state can be written as a polynomial in a complex variable
(square-integrable against a Gaussian weight) or as a wave function on
the line.  This script walks through the checks that make the
dictionary trustworthy:

- basis vectors are orthonormal under the Gaussian-weighted pairing,
  and an independent quadrature agrees;
- the ladder maps satisfy the canonical commutation rule on interior
  slots, and the defect explodes at the truncation edge exactly as
  bookkeeping predicts;
- a coherent-like vector's lowering expectation circles the origin in
  lockstep with the classical trajectory;
- the intertwining kernel reproduces the exponential pairing when
  integrated over the line;
- the non-canonical rescaling a -> a/sqrt(lambda) turns the commutator
  into hbar/lambda and leaves the spectrum of the rescaled Hamiltonian
  unchanged: the scale constant is a convention of the representation.
"""

import sys

import numpy as np

from thermofock.fock import (
    FockVector,
    bargmann_kernel,
    classical_trajectory,
    commutator_defect,
    evolved,
    hamiltonian_apply,
    inner_product,
    lowered,
    quadrature_inner_product,
    raised,
    rescale_lambda,
)

print("=" * 70)
print("1. Orthonormality, twice")
print("=" * 70)
for n, m in [(2, 2), (1, 3), (0, 4)]:
    f = FockVector.basis_state(n, 6)
    g = FockVector.basis_state(m, 6)
    exact = inner_product(f, g)
    quad = quadrature_inner_product(f, g)
    print(f"  (Z_{n}, Z_{m}):  coefficient pairing = {exact.real:+.12f}, "
          f"quadrature = {quad.real:+.12f}")

print()
print("=" * 70)
print("2. The ladder commutator, interior versus edge")
print("=" * 70)
for hbar in (0.5, 1.0, 2.0):
    interior = commutator_defect(10, hbar)
    edge = commutator_defect(10, hbar, include_edge=True)
    print(f"  scale {hbar}:  interior defect {interior:.2e},  "
          f"edge defect {edge:.3f}  (predicted {hbar * 11:.3f})")
print("  The edge defect is the truncation talking, not the algebra.")

print()
print("=" * 70)
print("3. A coherent-like vector follows the classical circle")
print("=" * 70)
z0 = 0.8 + 0.4j
omega = 1.3
f0 = FockVector.coherent_like(z0, 40)
print(f"  start z0 = {z0},  frequency {omega}")
for t in (0.0, 1.0, 2.5, 5.0):
    ft = evolved(f0, omega, t)
    quantum = inner_product(lowered(ft), ft) / inner_product(ft, ft)
    classical = classical_trajectory(z0, omega, t)
    print(f"  t = {t:4.1f}:  <a> = {quantum:+.9f},  "
          f"classical = {classical:+.9f},  "
          f"gap {abs(quantum - classical):.2e}")

print()
print("=" * 70)
print("4. The kernel reproduces the exponential pairing")
print("=" * 70)
q = np.linspace(-12.0, 12.0, 2401)
dq = q[1] - q[0]
for z, w in [(0.5 + 0.5j, 1.0 - 0.2j), (1.5, -1.0j)]:
    overlap = np.trapezoid(bargmann_kernel(z, q)
                           * np.conj(bargmann_kernel(w, q)), dx=dq)
    target = np.exp(z * np.conj(w))
    print(f"  z = {z}, z' = {w}:  integral {overlap:+.10f}")
    print(f"  {'':24s}exact    {target:+.10f}   "
          f"(defect {abs(overlap - target):.2e})")
    # the acceptance gate holds the kernel pairing to 1e-8
    if abs(overlap - target) > 1e-8:
        sys.exit(f"z = {z}, z' = {w}: kernel pairing {complex(overlap)} "
                 f"is not e^(z conj z') = {complex(target)} within 1e-8")

print()
print("=" * 70)
print("5. Rescaling the ladder moves the commutator, not the spectrum")
print("=" * 70)
print("  unit frequency; levels are the eigenvalues of Z_0..Z_3")
for lam in (1.0, 2.0, 4.0):
    z2 = rescale_lambda(FockVector.basis_state(2, 8), lam)
    bracket = lowered(raised(z2)).coeffs[2] - raised(lowered(z2)).coeffs[2]
    levels = [hamiltonian_apply(rescale_lambda(FockVector.basis_state(n, 8),
                                               lam), 1.0, lam).coeffs[n]
              for n in range(4)]
    print(f"  lambda {lam}:  [a, a+] = {bracket.real:.4f} (hbar/lambda),  "
          f"levels " + ", ".join(f"{e.real:.4f}" for e in levels))
