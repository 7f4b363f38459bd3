"""Two-site, discrete-time triple: deterministic, Markov, unitary.

The same two-point configuration space supports three dynamics:
a deterministic site map (a 0/1 stochastic matrix, ``identity`` or
``swap``), a column-stochastic transition matrix acting on probability
pairs, and a unitary 2×2 matrix acting on amplitude pairs with outcome
probabilities |ψ_i|².  No scale constant appears anywhere in these
rules.

The unitary theory is not a disguised Markov chain: with the
equal-weight orthogonal involution S = (1/√2)[[1, 1], [1, −1]], both
basis states map to outcome distribution (½, ½) after one step, which
forces any single time-homogeneous stochastic matrix reproducing the
one-step law to have both columns (½, ½); but then two Markov steps
still give (½, ½), while two unitary steps return (1, 0) exactly —
interference with total-variation gap ½.  The feasibility test
returns either a stochastic matrix satisfying all requested
(input, output, steps) constraints to 1e−6, or an infeasibility
certificate: exact column forcing plus a violated constraint, an
inconsistent linear system, or the exact spectral test, which reduces
multi-step requirements to real polynomial roots in the eigenvalue
λ = a − b of w = [[a, b], [1−a, 1−b]].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require

__all__ = [
    "StochasticMatrix",
    "ToyUnitary",
    "Constraint",
    "FeasibilityResult",
    "InterferenceRow",
    "markov_step",
    "markov_feasibility",
    "interference_demo",
    "total_variation",
]

_COLUMN_TOL = 1e-12
_WITNESS_TOL = 1e-6    # largest residual a feasibility witness may leave


@dataclass(frozen=True)
class StochasticMatrix:
    """2×2 column-stochastic matrix: w_ij ≥ 0, each column summing to 1.

    Acts as p(t+1) = w p(t) (column convention: entry w_ij is the
    transition weight j → i)."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", w)
        require(w.shape == (2, 2), "need a 2x2 matrix")
        require(np.all((w >= -_COLUMN_TOL) & (w <= 1.0 + _COLUMN_TOL)),
                "entries must lie in [0, 1]")
        sums = np.sum(w, axis=0)
        require(np.all(np.abs(sums - 1.0) <= _COLUMN_TOL),
                f"columns must sum to 1, got {sums.tolist()}")

    @classmethod
    def identity(cls) -> "StochasticMatrix":
        return cls(np.eye(2))

    @classmethod
    def swap(cls) -> "StochasticMatrix":
        return cls(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @classmethod
    def from_params(cls, a: float, b: float) -> "StochasticMatrix":
        """The full 2-parameter family [[a, b], [1−a, 1−b]], a, b ∈ [0,1]."""
        return cls(np.array([[a, b], [1.0 - a, 1.0 - b]]))

    @property
    def params(self) -> tuple[float, float]:
        return float(self.entries[0, 0]), float(self.entries[0, 1])


@dataclass(frozen=True)
class ToyUnitary:
    """2×2 unitary acting on amplitude pairs: ψ(t+1) = S ψ(t)."""

    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", s)
        require(s.shape == (2, 2), "need a 2x2 matrix")
        # A unitary's entries have modulus at most 1; larger ones (and
        # NaN) are refused before S†S can overflow.
        require(np.all(np.abs(s) <= 1.0 + 1e-12),
                "matrix is not unitary (an entry has modulus above 1)")
        defect = float(np.max(np.abs(s.conj().T @ s - np.eye(2))))
        require(defect <= 1e-12,
                f"matrix is not unitary (defect {defect:.3e})")

    @classmethod
    def hadamard(cls) -> "ToyUnitary":
        """Equal-weight orthogonal involution (1/√2)[[1, 1], [1, −1]]."""
        r = 1.0 / math.sqrt(2.0)
        return cls(np.array([[r, r], [r, -r]]))


def _check_probability_pair(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    require(p.shape == (2,), "need a probability pair")
    require(np.all(p >= -_COLUMN_TOL)
            and abs(float(np.sum(p)) - 1.0) <= _COLUMN_TOL,
            f"not a normalized probability pair: {p.tolist()}")
    return p


def markov_step(p, w: StochasticMatrix) -> np.ndarray:
    """One stochastic step p ↦ w p; stays on the probability simplex."""
    p = _check_probability_pair(p)
    return w.entries @ p


def total_variation(p, q) -> float:
    """Total-variation distance ½ Σ |p_i − q_i| of two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.sum(np.abs(p - q)))


# ---------------------------------------------------------------------------
# Feasibility of a single time-homogeneous Markov competitor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """One requirement: after ``steps`` applications of the unknown w,
    the input pair must map to the output pair."""

    p_in: tuple[float, float]
    p_out: tuple[float, float]
    steps: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p_in", tuple(
            float(v) for v in _check_probability_pair(self.p_in)))
        object.__setattr__(self, "p_out", tuple(
            float(v) for v in _check_probability_pair(self.p_out)))
        require(self.steps >= 1, "steps must be >= 1")


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the search: a witness matrix or a certificate string."""

    feasible: bool
    w: StochasticMatrix | None
    residual: float
    certificate: str | None

    def __bool__(self) -> bool:
        return self.feasible


def _stepped(w: np.ndarray, c: Constraint) -> np.ndarray:
    """The input of ``c`` after ``c.steps`` applications of w."""
    p = np.array(c.p_in)
    for _ in range(c.steps):
        p = w @ p
    return p


def _residual(a: float, b: float, constraints) -> float:
    w = np.array([[a, b], [1.0 - a, 1.0 - b]])
    worst = 0.0
    for c in constraints:
        p = _stepped(w, c)
        worst = max(worst, float(np.max(np.abs(p - np.array(c.p_out)))))
    return worst


def _forced_columns(constraints):
    """Solve the 1-step constraints for (a, b) when they pin a unique
    point: each gives the line a p_in[0] + b p_in[1] = p_out[0]."""
    rows, rhs = [], []
    for c in constraints:
        if c.steps == 1:
            rows.append([c.p_in[0], c.p_in[1]])
            rhs.append(c.p_out[0])
    if not rows:
        return None, None
    mat = np.array(rows)
    vec = np.array(rhs)
    sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
    gap = float(np.max(np.abs(mat @ sol - vec)))
    if gap > 1e-12:
        return None, ("the one-step requirements alone are mutually "
                      "inconsistent as linear conditions on the columns")
    if np.linalg.matrix_rank(mat, tol=1e-12) < 2:
        return None, None  # consistent but underdetermined
    return (float(sol[0]), float(sol[1])), None


def _spectral_search(constraints) -> FeasibilityResult:
    """Each requirement reads Sₙ(λ)·b = p_out[0] − λⁿp₀ in λ = a − b, so
    whether some b in the box max(0, −λ) ≤ b ≤ min(1, 1 − λ) meets them
    all can change only at real roots of the pairwise consistency, the
    box-edge and the Sₙ polynomials: those knots, {−1, 0, 1} and the
    midpoints between them decide the whole family."""
    lam = np.polynomial.Polynomial([0.0, 1.0])
    lines = [(np.polynomial.Polynomial(np.ones(c.steps)),
              c.p_out[0] - c.p_in[0] * lam ** c.steps) for c in constraints]
    polys = [p for s, d in lines for p in (s, d, d - s, d + lam * s,
                                           d - (1.0 - lam) * s)]
    polys += [d1 * s2 - d2 * s1 for i, (s1, d1) in enumerate(lines)
              for s2, d2 in lines[i + 1:]]
    # negligible leading coefficients only carry roots far outside [−1, 1];
    # a double root may surface as a conjugate pair split by ~1e-8
    roots = np.concatenate([p.trim(1e-14 * np.max(np.abs(p.coef))).roots()
                            for p in polys] + [[-1.0, 0.0, 1.0]])
    roots = roots.real[(np.abs(roots.imag) <= 1e-6)
                       & (np.abs(roots.real) <= 1.0)]
    knots = np.unique(roots)
    best = (math.inf, 0.0, 0.0)
    for x in np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1])]):
        s = np.array([sp(x) for sp, _ in lines])
        d = np.array([dp(x) for _, dp in lines])
        scale = float(s @ s)
        b = float(s @ d) / scale if scale > 0.0 else 0.0
        b = min(max(b, max(0.0, -x)), min(1.0, 1.0 - x))
        a = min(max(x + b, 0.0), 1.0)
        best = min(best, (_residual(a, b, constraints), a, b))
    residual, a, b = best
    if residual <= _WITNESS_TOL:
        return FeasibilityResult(True, StochasticMatrix.from_params(a, b),
                                 residual, None)
    return FeasibilityResult(
        False, None, residual,
        "infeasible: every requirement is linear in b with coefficients "
        "polynomial in λ = a − b, so feasibility is constant between the "
        f"{knots.size} knots in [−1, 1] (−1, 0, 1 and the real roots of the "
        "consistency, box-edge and step-sum polynomials); at the knots and "
        f"the midpoints between them the smallest residual is {residual:.6g}"
        f" > {_WITNESS_TOL:.1g}")


def markov_feasibility(constraints) -> FeasibilityResult:
    """Decide whether some 2×2 column-stochastic matrix satisfies every
    :class:`Constraint` in a nonempty list.

    The family is two-dimensional: w = [[a, b], [1−a, 1−b]].  One-step
    requirements are linear in (a, b); when they pin a unique point,
    the remaining requirements are checked there directly, producing an
    exact forcing certificate on failure.  Otherwise the exact spectral
    form of w (λ = a − b, n steps send p₀ to λⁿp₀ + b·Sₙ(λ)) reduces
    the question to real polynomial roots in λ ∈ [−1, 1]; every call
    returns either a witness with residual ≤ 1e-6 or a certificate
    starting with ``infeasible:``.
    """
    require(constraints and all(isinstance(c, Constraint)
                                for c in constraints),
            "need a nonempty list of Constraint")

    forced, inconsistency = _forced_columns(constraints)
    if inconsistency is not None:
        return FeasibilityResult(False, None, math.inf,
                                 "infeasible: " + inconsistency)
    if forced is not None:
        a, b = forced
        if not (-_COLUMN_TOL <= a <= 1 + _COLUMN_TOL
                and -_COLUMN_TOL <= b <= 1 + _COLUMN_TOL):
            return FeasibilityResult(
                False, None, math.inf,
                f"infeasible: the one-step requirements force columns "
                f"({a:.6g}, {1 - a:.6g}) and ({b:.6g}, {1 - b:.6g}), "
                "outside [0, 1]")
        a, b = min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)
        residual = _residual(a, b, constraints)
        if residual <= _WITNESS_TOL:
            return FeasibilityResult(True, StochasticMatrix.from_params(a, b),
                                     residual, None)
        bad = max(constraints,
                  key=lambda c: _residual(a, b, [c]))
        w = np.array([[a, b], [1.0 - a, 1.0 - b]])
        p = _stepped(w, bad)
        return FeasibilityResult(
            False, None, residual,
            "infeasible: the one-step requirements force both columns — "
            f"w = [[{a:.6g}, {b:.6g}], [{1 - a:.6g}, {1 - b:.6g}]] — and "
            f"then {bad.steps} step(s) send {bad.p_in} to "
            f"({p[0]:.6g}, {p[1]:.6g}) instead of {bad.p_out}")

    return _spectral_search(constraints)


# ---------------------------------------------------------------------------
# Interference table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterferenceRow:
    """One comparison row: unitary-theory outcome probabilities versus
    the matched Markov competitor, and their total-variation gap."""

    step: int
    quantum: tuple[float, float]
    markov: tuple[float, float]
    gap: float


def interference_demo(steps: int,
                      unitary: ToyUnitary | None = None) -> list:
    """Track (1, 0) under the unitary theory against the one Markov
    chain that reproduces its single-step law.

    The competitor's columns are the unitary's one-step outcome
    distributions of the two basis states — the only time-homogeneous
    stochastic matrix matching the theory (not just one trajectory) for
    one step.  For the equal-weight involution the quantum walk returns
    to (1, 0) at step 2 while the forced competitor stays at (½, ½):
    total-variation gap ½.
    """
    require(steps >= 0, "steps must be >= 0")
    s = ToyUnitary.hadamard() if unitary is None else unitary
    w = StochasticMatrix(np.abs(s.entries) ** 2)

    psi = np.array([1.0 + 0j, 0.0 + 0j])
    p = np.array([1.0, 0.0])
    rows = []
    for step in range(steps + 1):
        quantum = tuple(float(v) for v in np.abs(psi) ** 2)
        markov = tuple(float(v) for v in p)
        rows.append(InterferenceRow(step, quantum, markov,
                                    total_variation(quantum, markov)))
        psi = s.entries @ psi
        p = w.entries @ p
    return rows
