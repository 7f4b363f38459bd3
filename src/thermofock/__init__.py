"""thermofock: a numerical laboratory for amplitude-valued probability,
Gaussian-measure ladder calculus, thermal phase-space maps, oscillator
chains, measurement decoherence, and a two-site quantum/Markov contrast.

Submodules
----------
exterior
    Graded 2-coefficient exterior/Grassmann algebras and the bivector,
    fermionic, and current probability densities, with axiom checks.
charfn
    Grid wave functions, probability densities, and the two-route
    characteristic function (direct Fourier vs amplitude
    autocorrelation).
fock
    Entire-function basis against a Gaussian measure: ladder operators,
    commutator and orthonormality checks, the position-representation
    kernel, and oscillator evolution.
sphere
    Thermal maps from a sphere of area h onto the oscillator phase
    plane, Gibbs normalization and mean energy, blackbody asymptotes.
chain
    Periodic oscillator chain: dispersion, normal modes, symplectic
    evolution, exact thermal sampling, multimode occupation algebra,
    continuum and heavy-mass limits.
states
    Width products, circle eigenstates, split-profile one-quantum
    states, two-quantum states, and the antisymmetrized marginal.
measurement
    Entangling measurements, partial traces, block-diagonal
    decoherence, Born-frequency sampling, superselection sectors.
toy
    Two-site classical/stochastic/unitary triple and the
    Markov-feasibility contrast.
cli
    Command-line tables for every headline experiment.
errors
    NumericalGuardError and the guard policy every module follows.

Each submodule's ``__all__`` is its public API; import from it, as in
``from thermofock.fock import FockVector``.  ``import thermofock`` by
itself loads no submodule.
"""
__version__ = "0.1.0"
