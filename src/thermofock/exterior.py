"""Probabilities as coefficients of graded-algebra products.

Two fixed 4-coefficient graded algebras over a pair of generators:

* :class:`ExteriorElement` — antisymmetric ("vector") generators e1, e2,
  basis {1, e1, e2, e1^e2};
* :class:`GrassmannElement` — anticommuting generators th1, th2,
  basis {1, th1, th2, th1*th2}.

Probability densities for bilinear, complex-pair, fermionic and bosonic
amplitude configurations are extracted as coefficients of a fixed unit
(bi)vector in products of such elements.  An executable checker for the
amplitude-measure axioms (bijectivity, additivity, normalization,
positivity of the extracted density) operates on finite event spaces.

Two generators suffice for every construction here; no general
n-generator engine is provided.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import _indices, require

__all__ = [
    "ExteriorElement",
    "GrassmannElement",
    "AmplitudeEventSpace",
    "AxiomReport",
    "bilinear_density",
    "complex_pair_density",
    "fermion_density",
    "boson_density",
    "check_axioms",
]


class _Graded2:
    """A 4-coefficient element c0 + c1*g1 + c2*g2 + c12*g1g2 over two
    anticommuting generators g1, g2 (g1*g1 = g2*g2 = 0, g1*g2 = -g2*g1).

    Coefficients may be complex scalars or, for nested constructions,
    other graded elements (the two factors are then treated as mutually
    commuting, i.e. a tensor product of algebras).
    """

    __slots__ = ("c0", "c1", "c2", "c12")

    def __init__(self, c0=0, c1=0, c2=0, c12=0):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.c12 = c12

    def coefficients(self):
        return (self.c0, self.c1, self.c2, self.c12)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.c0 + other.c0, self.c1 + other.c1,
                          self.c2 + other.c2, self.c12 + other.c12)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        """Graded (wedge) product; scalars multiply coefficient-wise."""
        if not isinstance(other, _Graded2):
            return type(self)(self.c0 * other, self.c1 * other,
                              self.c2 * other, self.c12 * other)
        if type(other) is not type(self):
            return NotImplemented
        a0, a1, a2, a12 = self.coefficients()
        b0, b1, b2, b12 = other.coefficients()
        return type(self)(
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a2 * b0,
            a0 * b12 + a12 * b0 + a1 * b2 - a2 * b1,
        )

    def __rmul__(self, other):
        # scalar * element (coefficient multiplication is commutative)
        return self * other

    def wedge(self, other):
        return self * other


class ExteriorElement(_Graded2):
    """Element of the exterior algebra over two vector generators e1, e2.

    Basis order of the stored coefficients: (1, e1, e2, e1^e2).
    """

    @classmethod
    def vector(cls, a, b):
        """a*e1 + b*e2."""
        return cls(0, a, b, 0)


class GrassmannElement(_Graded2):
    """Element of the Grassmann algebra over real generators th1, th2.

    Basis order of the stored coefficients: (1, th1, th2, th1*th2).
    ``theta()`` and ``theta_bar()`` build the complex combinations
    th1 + i*th2 and th1 - i*th2.
    """

    @classmethod
    def theta(cls):
        return cls(0, 1.0, 1.0j, 0)

    @classmethod
    def theta_bar(cls):
        return cls(0, 1.0, -1.0j, 0)


# ---------------------------------------------------------------------------
# Probability densities as coefficient extractions
# ---------------------------------------------------------------------------

_HALF_EARLY = 2.0 ** 511   # a larger weight takes the measure's 1/2 early

@np.errstate(over="ignore", invalid="ignore")
def bilinear_density(w1: float, w2: float) -> float:
    """Probability of a two-component configuration with weights (w1, w2).

    Builds w = w1*e1 + i*w2*e2 and its metric conjugate
    wbar = w1*e1 - i*w2*e2 (sign flip on the second slot), wedges them,
    and extracts the coefficient of the oriented unit bivector
    i*(e1^e2) from (1/2) wbar^w.  The result equals w1*w2 exactly.

    Negative or infinite weights lie outside the physical region and
    raise ValueError, and so do weights whose product w1*w2 overflows.
    """
    require(0 <= w1 < np.inf and 0 <= w2 < np.inf,
            f"weights must be nonnegative and finite, got ({w1}, {w2})")
    # The 1/2 scales e1^e2, so it may go on one slot of both vectors
    # before the wedge.  On the slot of a weight above 2**511 it is
    # exact, and the wedge forms w1*w2 where 2*w1*w2 would overflow;
    # below that 2*w1*w2 is finite, and the 1/2 stays after the wedge,
    # where halving a subnormal product loses no bit.
    early = max(w1, w2) > _HALF_EARLY
    h1 = 0.5 if early and w1 >= w2 else 1.0
    h2 = 0.5 if early and w2 > w1 else 1.0
    w = ExteriorElement.vector(h1 * w1, 1j * (h2 * w2))
    wbar = ExteriorElement.vector(h1 * w1, -1j * (h2 * w2))
    paired = wbar.wedge(w)
    coeff = (1.0 if early else 0.5) * paired.c12    # equals i*w1*w2
    value = coeff / 1j                # measure against the unit i*(e1^e2)
    require(np.isfinite(value)
            and abs(value.imag) <= 1e-12 * max(1.0, abs(value.real)),
            f"the wedge of weights ({w1}, {w2}) overflows the double range")
    return float(value.real)


@np.errstate(over="ignore", invalid="ignore")
def complex_pair_density(z_q: complex, z_p: complex) -> float:
    """Coefficient of the unit bivector in i*zbar^z for z = z_q*e1 + z_p*e2.

    Expands to i*(conj(z_q)*z_p - conj(z_p)*z_q), which is real for all
    finite inputs and changes sign under z_q <-> z_p.  A non-finite
    amplitude, or one whose wedge overflows, raises ValueError.
    """
    require(np.isfinite(z_q) and np.isfinite(z_p),
            f"amplitudes must be finite, got ({z_q}, {z_p})")
    z = ExteriorElement.vector(z_q, z_p)
    zbar = ExteriorElement.vector(np.conj(z_q), np.conj(z_p))
    coeff = 1j * zbar.wedge(z).c12
    require(np.isfinite(coeff)
            and abs(coeff.imag) <= 1e-12 * max(1.0, abs(coeff.real)),
            f"the wedge of ({z_q}, {z_p}) overflows the double range")
    return float(coeff.real)


def _fermion_pair(q: complex):
    """Grassmann amplitude pair psi = q*theta/sqrt(2), psi+ = conj(q)*theta_bar/sqrt(2)."""
    root2 = np.sqrt(2.0)
    psi = GrassmannElement.theta() * (q / root2)
    psi_plus = GrassmannElement.theta_bar() * (np.conj(q) / root2)
    return psi, psi_plus


@np.errstate(over="ignore", invalid="ignore")
def fermion_density(q: complex) -> float:
    """Probability |q|^2 of a one-mode fermionic amplitude q.

    Builds z = psi*e_q + psi+*e_p with psi = q*theta/sqrt(2) and
    psi+ = conj(q)*theta_bar/sqrt(2), wedges the pair, and extracts the
    coefficient of the fermionic probability unit theta*theta_bar*(e_q^e_p).
    All anticommutation is exact in the 4-coefficient algebra; only the
    orientation of the unit is a fixed convention, chosen so the physical
    region gives nonnegative values.  A non-finite q, or one whose
    pairing overflows, raises ValueError.
    """
    require(np.isfinite(q), f"amplitude must be finite, got {q}")
    psi, psi_plus = _fermion_pair(q)
    z = ExteriorElement(GrassmannElement(), psi, psi_plus, GrassmannElement())
    paired = z.wedge(z)
    top = paired.c12                  # GrassmannElement on e_q^e_p
    # unit: theta*theta_bar on e_q^e_p; its th1*th2 coefficient is -2i
    unit_top = (GrassmannElement.theta() * GrassmannElement.theta_bar()).c12
    value = top.c12 / unit_top
    residual = max(abs(top.c0), abs(top.c1), abs(top.c2))
    require(np.isfinite(value) and residual <= 1e-12
            and abs(value.imag) <= 1e-12 * max(1.0, abs(value.real)),
            f"the fermionic pairing of q = {q} overflows the double range")
    return float(value.real)


def boson_density(E, A, x, t, k=0.0):
    """Conserved-current density rho = i(conj(phi) d_t phi - d_t conj(phi) phi).

    ``E``, ``A``, ``k`` describe one plane wave phi = A*exp(i(k*x - E*t))
    or, given equal-length sequences, a finite superposition of them.
    For a single wave rho = 2*E*|A|^2, independent of (x, t).  For a
    two-wave superposition rho = 2[E1|A1|^2 + E2|A2|^2
    + (E1+E2)|A1 A2| cos(theta)] with a traveling phase theta, so the
    density is indefinite whenever (|A1|-|A2|)(E1|A1|-E2|A2|) < 0 —
    e.g. E=(3,1), |A|=(0.6,0.8) sweeps through both signs on a grid.
    Degenerate exception: for E2 = -E1 the cross term is exactly real
    and rho is constant, vanishing identically at equal weights.

    ``x`` and ``t`` are broadcastable arrays; the returned density is an
    array of their broadcast shape.
    """
    E = np.atleast_1d(np.asarray(E, dtype=float))
    A = np.atleast_1d(np.asarray(A, dtype=complex))
    k = np.broadcast_to(np.asarray(k, dtype=float), E.shape)
    require(A.shape == E.shape, "E and A must have matching lengths")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # phase[j, ...] = k_j*x - E_j*t on the broadcast (x, t) grid
    grid_shape = np.broadcast(x, t).shape
    phi = np.zeros(grid_shape, dtype=complex)
    dphi = np.zeros(grid_shape, dtype=complex)
    for Ej, Aj, kj in zip(E, A, k):
        wave = Aj * np.exp(1j * (kj * x - Ej * t))
        phi = phi + wave
        dphi = dphi + (-1j * Ej) * wave
    return -2.0 * np.imag(np.conj(phi) * dphi)


# ---------------------------------------------------------------------------
# Amplitude-measure axioms on finite event spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeEventSpace:
    """Finite event space with an amplitude two-sided assignment.

    ``amp_e[j]`` and ``amp_ebar[j]`` are the two one-sided amplitudes of
    the j-th elementary event; the event's amplitude is their product
    amp_ebar[j] * amp_e[j] (the two sides are paired diagonally), and a
    subset's amplitude is the sum over its elements unless an explicit
    override is supplied.  Overrides exist so that additivity violations
    are constructible and detectable; only an override can break
    additivity.  Override keys are collections of event indices.
    """

    amp_e: tuple
    amp_ebar: tuple
    subset_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "amp_e", tuple(complex(a) for a in self.amp_e))
        object.__setattr__(self, "amp_ebar",
                           tuple(complex(a) for a in self.amp_ebar))
        keys = [frozenset(_indices(k, "override keys must hold event indices"))
                for k in self.subset_overrides]
        require(len(set(keys)) == len(keys),
                "two override keys name one subset")
        object.__setattr__(self, "subset_overrides",
                           dict(zip(keys, self.subset_overrides.values())))

    @property
    def n_events(self) -> int:
        """Events that both sides define (Q1 asks the sides to agree)."""
        return min(len(self.amp_e), len(self.amp_ebar))

    def event_amplitude(self, j: int) -> complex:
        return self.amp_ebar[j] * self.amp_e[j]

    def subset_amplitude(self, indices) -> complex:
        key = frozenset(indices)
        if key in self.subset_overrides:
            return complex(self.subset_overrides[key])
        return sum((self.event_amplitude(j) for j in key), 0j)


@dataclass
class AxiomReport:
    """Outcome of check_axioms: per-axiom violations and the extracted
    per-event probabilities (None when an axiom failure blocks them)."""

    passed: bool
    violations: list
    probabilities: list | None

    def __bool__(self):
        return self.passed


_MODES = ("nonrelativistic", "fermionic")
_AXIOM_TOL = 1e-12   # additivity gap and imaginary/negative density allowed
_TOTAL_TOL = 1e-9    # Q4: gap of the full-space amplitude and density sum


def check_axioms(space: AmplitudeEventSpace, mode: str = "nonrelativistic",
                 skip=()) -> AxiomReport:
    """Verify the amplitude-measure axioms on a finite event space.

    Checks, in order:

    * Q1 — the two amplitude sides are in bijection with the events
      (equal finite lengths);
    * Q2 — every event carries a finite amplitude on both sides;
    * Q3 — subset amplitudes are additive on disjoint unions; a subset
      without an override is the sum of its events by definition, so
      each override is compared with the sum of its events' amplitudes,
      and an override naming an index outside 0..n-1 fails;
    * Q4 — the full space has amplitude 1, and the per-event densities
      extracted for ``mode`` sum to 1 (a "sum" violation);
    * positivity — each of those densities is real and nonnegative.

    ``mode`` selects the density rule: "nonrelativistic" pairs each
    amplitude with its conjugate side (P_j = amp_ebar_j * amp_e_j, which
    equals |amp_e_j|^2 when the sides are conjugate); "fermionic" routes
    each amplitude through the Grassmann pairing of
    :func:`fermion_density`, which reads amp_e alone, so its densities
    sum to 1 only when the sides are conjugate.

    ``skip`` names axiom labels among Q1..Q4 (e.g. {"Q3"}) excluded from
    checking — used by the axiom-independence smoke test.
    """
    require(mode in _MODES, f"unknown mode {mode!r}; expected one of {_MODES}")
    skip = set(skip)
    unknown = skip - {"Q1", "Q2", "Q3", "Q4"}
    require(not unknown, f"skip names labels that are no axiom: {unknown}")
    violations = []

    if "Q1" not in skip:
        if len(space.amp_e) != len(space.amp_ebar):
            violations.append(
                f"Q1: amplitude sides have different sizes "
                f"({len(space.amp_e)} vs {len(space.amp_ebar)})")

    if "Q2" not in skip:
        for j, (a, b) in enumerate(zip(space.amp_e, space.amp_ebar)):
            if not (np.isfinite(a) and np.isfinite(b)):
                violations.append(f"Q2: event {j} has non-finite amplitude")

    n = space.n_events
    if "Q3" not in skip:
        events = frozenset(range(n))
        for key in space.subset_overrides:
            if not events.issuperset(key):
                violations.append(f"Q3: override {sorted(key)} names an "
                                  f"index that is not one of the {n} events")
                continue
            gap = abs(space.subset_amplitude(key) - sum(
                (space.event_amplitude(j) for j in key), 0j))
            if not (gap <= _AXIOM_TOL):
                violations.append(f"Q3: additivity fails on override "
                                  f"{sorted(key)} (gap {gap:.3e})")

    if "Q4" not in skip:
        total = space.subset_amplitude(range(n))
        if not (abs(total - 1.0) <= _TOTAL_TOL):
            violations.append(
                f"Q4: full-space amplitude {total!r} differs from 1")

    probabilities = None
    if not violations or skip:
        probabilities = []
        for j in range(n):
            p = complex(space.event_amplitude(j) if mode == "nonrelativistic"
                        else fermion_density(space.amp_e[j]))
            if not (abs(p.imag) <= _AXIOM_TOL * max(1.0, abs(p.real))):
                violations.append(
                    f"positivity: event {j} density {p!r} is not real")
            elif not (p.real >= -_AXIOM_TOL):
                violations.append(
                    f"positivity: event {j} density {p.real:.3e} is negative")
            probabilities.append(p.real)
        density_sum = sum(probabilities)
        if "Q4" not in skip and not (abs(density_sum - 1.0) <= _TOTAL_TOL):
            violations.append(
                f"sum: {mode} densities sum to {density_sum!r}, not 1")

    return AxiomReport(passed=not violations, violations=violations,
                       probabilities=probabilities)
