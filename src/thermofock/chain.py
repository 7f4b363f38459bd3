"""Periodic chain of coupled oscillators as a one-dimensional lattice field.

The chain of N sites with spacing a, mass m and coupling γ carries the
Hamiltonian

    H = Σ_n [ p_n²/2 + m² q_n²/2 + (γ/a²)(q_{n+1} − q_n)²/2 ],

periodic indexing.  Its normal modes live on the discrete Brillouin
grid k_j ∈ (−π/a, π/a] with dispersion ω_k² = m² + 4(γ/a²) sin²(k a/2);
the orthonormal plane-wave transform diagonalizes H into
Σ_k (|p(k)|² + ω_k² |u(k)|²)/2.  Complex normal amplitudes a(k) make
the mode energies ω_k |a(k)|², and the non-canonical rescaling
a_k = sqrt(λ_k) a(k) with λ_k = ω_k/ω̄, ω̄ = sqrt(m² + γ/a²), turns the
total into ω̄ Σ_k |a_k|².

Dynamics follow the exact leapfrog map in normal coordinates, and
thermal states are sampled exactly in them.  A sparse multimode
occupation algebra provides the quantum counterpart with per-mode ladder
commutator ħ δ_kk' (the discrete stand-in for a continuum δ(k−k')) and
the mode-sum Hamiltonian with eigenvalues Σ_k ω_k ħ (n_k + ½).

With the effective spring fixed at γ/a² = 1/a², the dispersion
converges to sqrt(m² + k²) at second order in a (the relativistic
scalar-field limit); in the heavy-mass regime the stripped positive-
frequency evolution approaches the free-particle phase e^{−ik²t/2m}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .charfn import GridWaveFunction
from .errors import _indices, _mass, _row_blocks, guard, require
from .fock import hermite_function

__all__ = [
    "ChainSpec",
    "ChainState",
    "ModeData",
    "Trajectory",
    "MultiModeFockVector",
    "hamiltonian",
    "total_energies",
    "normal_modes",
    "mode_transform",
    "mode_energies",
    "rescaled_modes",
    "evolve",
    "gibbs_sample",
    "fock_inner",
    "mm_raised",
    "mm_lowered",
    "hamiltonian_operator_apply",
    "continuum_limit_error",
    "nonrelativistic_overlap",
    "standard_packet",
]

_CONTINUUM_K_POINTS = 257   # wavenumbers sampled over the continuum window


@dataclass(frozen=True)
class ChainSpec:
    """Periodic chain: N sites, spacing a, mass m >= 0, coupling γ > 0."""

    n_sites: int
    spacing: float = 1.0
    mass: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        require(self.n_sites >= 2, "need at least 2 sites")
        require(0 < self.spacing < math.inf,
                f"spacing must be positive and finite, got {self.spacing}")
        require(0 <= self.mass < math.inf,
                f"mass must be nonnegative and finite, got {self.mass}")
        require(0 < self.gamma < math.inf,
                f"gamma must be positive and finite, got {self.gamma}")
        require(0 < self.spacing * self.spacing < math.inf and 0 < self.spring
                and self.mass * self.mass + 4.0 * self.spring < math.inf,
                "a^2, gamma/a^2 or m^2 + 4 gamma/a^2 overflows or vanishes")

    @property
    def spring(self) -> float:
        """Effective spring constant γ/a² multiplying (q_{n+1}−q_n)²/2."""
        return self.gamma / self.spacing ** 2

    @property
    def omega_ref(self) -> float:
        """Reference frequency ω̄ = sqrt(m² + γ/a²) for mode rescaling."""
        return math.sqrt(self.mass ** 2 + self.spring)

    def dispersion(self, k) -> np.ndarray:
        """ω_k = sqrt(m² + 4(γ/a²) sin²(k a / 2))."""
        k = np.asarray(k, dtype=float)
        return np.sqrt(self.mass ** 2
                       + 4.0 * self.spring * np.sin(0.5 * k * self.spacing) ** 2)

    def k_grid(self) -> np.ndarray:
        """Discrete Brillouin wavenumbers in FFT order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_sites, d=self.spacing)

    def coupling_matrix(self) -> np.ndarray:
        """Dense quadratic-form matrix M with V(q) = q·M·q/2."""
        n = self.n_sites
        mat = np.zeros((n, n))
        idx = np.arange(n)
        mat[idx, idx] = self.mass ** 2 + 2.0 * self.spring
        mat[idx, (idx + 1) % n] -= self.spring
        mat[idx, (idx - 1) % n] -= self.spring
        return mat


@dataclass(frozen=True)
class ChainState:
    """Phase-space configuration (q_n, p_n) of the chain."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        require(q.shape == p.shape and q.ndim == 1,
                "q and p must be 1-d arrays of equal length")
        require(np.all(np.isfinite(q)) and np.all(np.isfinite(p)),
                "q and p must be finite")


@dataclass(frozen=True)
class ModeData:
    """Normal-mode content of a chain state on the discrete k grid.

    ``u`` and ``p`` are the complex normal coordinates.  Frequency
    entries satisfy the dispersion law of the generating ChainSpec.
    """

    k: np.ndarray
    omega: np.ndarray
    u: np.ndarray | None = None
    p: np.ndarray | None = None


def hamiltonian(state: ChainState, spec: ChainSpec) -> float:
    """H = Σ_n [p² + m² q² + (γ/a²)(q_{n+1} − q_n)²] / 2, periodic."""
    require(state.q.size == spec.n_sites,
            "state length does not match the chain")
    return float(total_energies(state.q, state.p, spec))


def total_energies(q: np.ndarray, p: np.ndarray, spec: ChainSpec) -> np.ndarray:
    """Row-wise H for sample batches q, p of shape (n_samples, N)."""
    dq = np.roll(q, -1, axis=-1) - q
    return 0.5 * (np.sum(p * p, axis=-1) + spec.mass ** 2 * np.sum(q * q, axis=-1)
                  + spec.spring * np.sum(dq * dq, axis=-1))


def normal_modes(spec: ChainSpec) -> ModeData:
    """Mode grid and dispersion frequencies (no state content)."""
    k = spec.k_grid()
    return ModeData(k=k, omega=spec.dispersion(k))


def mode_transform(state: ChainState, spec: ChainSpec) -> ModeData:
    """Orthonormal discrete plane-wave analysis of a chain state.

    u(k_j) = N^{-1/2} Σ_n q_n e^{−i k_j a n} (same for p); the basis
    functions φ_n(k) = e^{i k a n}/sqrt(N) satisfy
    Σ_k φ_n(k) conj(φ_{n'}(k)) = δ_{nn'}.
    """
    require(state.q.size == spec.n_sites,
            "state length does not match the chain")
    root_n = math.sqrt(spec.n_sites)
    return replace(normal_modes(spec), u=np.fft.fft(state.q) / root_n,
                   p=np.fft.fft(state.p) / root_n)


def mode_energies(modes: ModeData) -> np.ndarray:
    """E_k = (|p(k)|² + ω_k² |u(k)|²)/2 per mode; sums to H."""
    require(modes.u is not None and modes.p is not None,
            "mode data carries no state content")
    return 0.5 * (np.abs(modes.p) ** 2 + modes.omega ** 2 * np.abs(modes.u) ** 2)


def _amplitudes(modes: ModeData) -> np.ndarray:
    """a(k) = sqrt(ω_k/2) conj(u(k)) + i conj(p(k))/sqrt(2 ω_k).

    The inverse of the substitution u(k) = (a*(k) + a(−k))/sqrt(2ω_k),
    p(k) = i (a*(k) − a(−k)) sqrt(ω_k/2) for real chain fields; the
    mode energies become ω_k |a(k)|².
    """
    require(modes.u is not None and modes.p is not None,
            "mode data carries no state content")
    guard("modes of zero frequency", np.count_nonzero(~(modes.omega > 0.0)),
          0, "amplitudes are undefined for the massless zero mode")
    return (np.sqrt(modes.omega / 2.0) * np.conj(modes.u)
            + 1j * np.conj(modes.p) / np.sqrt(2.0 * modes.omega))


def rescaled_modes(modes: ModeData, spec: ChainSpec) -> np.ndarray:
    """The rescaled amplitudes a_k = sqrt(λ_k) a(k) per mode, with
    λ_k = ω_k/ω̄, for which H = ω̄ Σ_k conj(a_k) a_k."""
    lam = modes.omega / spec.omega_ref
    return np.sqrt(lam) * _amplitudes(modes)


# ---------------------------------------------------------------------------
# Dynamics and thermal sampling
# ---------------------------------------------------------------------------

class _Rows:
    """Row view of a (steps+1)×N trajectory array that computes only the
    rows it is indexed with; ``np.asarray`` materialises every row."""

    def __init__(self, rows, shape):
        self._rows = rows       # step numbers (1-d int array) -> rows
        self.shape = shape

    def __getitem__(self, key) -> np.ndarray:
        steps = np.arange(self.shape[0])[key]
        out = self._rows(np.atleast_1d(steps))
        return out[0] if steps.ndim == 0 else out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


@dataclass(frozen=True)
class Trajectory:
    """Leapfrog trajectory in closed form.

    Stores the rfft modes ``u0``, ``p0`` of the initial state, the
    rotation angle ``theta`` (θ_k per step) and the modified frequency
    ``omega_mod`` (Ω_k) of each mode, and the step dt.  ``q`` and ``p``
    are row views: ``q[i]`` and ``q[::stride]`` cost one irfft over the
    indexed rows, and ``np.asarray(q)`` builds the full (steps+1)×N
    array.
    """

    times: np.ndarray
    u0: np.ndarray
    p0: np.ndarray
    theta: np.ndarray
    omega_mod: np.ndarray
    dt: float
    n_sites: int

    @property
    def q(self) -> _Rows:
        return _Rows(lambda n: self._rows(n, momentum=False),
                     (self.times.size, self.n_sites))

    @property
    def p(self) -> _Rows:
        return _Rows(lambda n: self._rows(n, momentum=True),
                     (self.times.size, self.n_sites))

    def _rows(self, steps: np.ndarray, momentum: bool) -> np.ndarray:
        """u_n = cos(nθ) u_0 + sin(nθ)/Ω p_0 and
        p_n = cos(nθ) p_0 − Ω sin(nθ) u_0 at the given step numbers.
        On the massless uniform mode (Ω = θ = 0) sin(nθ)/Ω is n·dt."""
        n = steps[:, None]
        phase = n * self.theta
        cos, sin = np.cos(phase), np.sin(phase)
        if momentum:
            modes = cos * self.p0 - self.omega_mod * sin * self.u0
        else:
            moving = self.omega_mod > 0.0
            ratio = np.where(moving,
                             sin / np.where(moving, self.omega_mod, 1.0),
                             n * self.dt)
            modes = cos * self.u0 + ratio * self.p0
        return np.fft.irfft(modes, n=self.n_sites, axis=1)

    def energies(self, spec: ChainSpec) -> np.ndarray:
        return total_energies(np.asarray(self.q), np.asarray(self.p), spec)


def evolve(state: ChainState, spec: ChainSpec, dt: float | None = None, *,
           steps: int) -> Trajectory:
    """Exact leapfrog map in normal coordinates.

    Kick–drift–kick with step h = dt acts on each rfft mode as the 2×2
    matrix L_k = [[c, h], [−hω²(1 − h²ω²/4), c]], c = cos θ_k,
    θ_k = 2 arcsin(hω_k/2), det L_k = 1; its n-th power is a rotation
    by nθ_k with modified frequency Ω_k = ω_k sqrt(1 − h²ω_k²/4).  So
    the trajectory is stored as its initial modes and any step costs
    one irfft, with no loop over steps (Hairer–Lubich–Wanner, Geometric
    Numerical Integration, Störmer–Verlet on the harmonic oscillator).
    The tests check it against the stepping loop.

    Default step dt = 0.1/ω_max; steps above the stability bound
    2/ω_max (|c| ≥ 1) are rejected.  Exactly time reversible, bounded
    energy oscillation with no secular drift.
    """
    (steps,) = _indices((steps,), "steps must be an integer")
    require(steps >= 0, f"steps must be nonnegative, got {steps}")
    require(state.q.size == spec.n_sites,
            "state length does not match the chain")
    omega = spec.dispersion(spec.k_grid()[: spec.n_sites // 2 + 1])
    omega_max = float(np.max(omega))
    if dt is None:
        dt = 0.1 / omega_max
    require(0.0 < dt < 2.0 / omega_max,
            f"dt={dt} outside the stability interval (0, {2.0 / omega_max:.6g})")
    half = 0.5 * dt * omega
    return Trajectory(dt * np.arange(steps + 1),
                      np.fft.rfft(state.q), np.fft.rfft(state.p),
                      2.0 * np.arcsin(half), omega * np.sqrt(1.0 - half * half),
                      dt, spec.n_sites)


def gibbs_sample(spec: ChainSpec, beta: float, n: int,
                 seed: int | np.random.Generator):
    """Exact thermal sampling in FFT normal coordinates.

    Returns (q, p) arrays of shape (n, N).  Positions are
    q = (β M)^{-1/2} ξ for white noise ξ: the symmetric square root of
    the circulant coupling matrix M, applied by dividing each rfft mode
    of ξ by sqrt(β ω_k²), so q ~ N(0, (β M)^{-1}) exactly at
    O(n N log N) cost; the tests check it against the dense ``eigh``
    of M.  Momenta are i.i.d. N(0, 1/β); each mode energy averages 1/β.

    Row i is drawn as one (2, N) block z_i of standard normals, in row
    order: ξ_i = z_i[0] and p_i = z_i[1]/sqrt(β), so the sample is that
    of one (n, 2, N) draw.  The noise is drawn and transformed one block
    of rows at a time, so no temporary outgrows a block, and no row
    depends on the block it falls in.  ``seed`` may be a Generator
    (``default_rng`` returns it unchanged): a call continues its stream,
    so calls of n1 and then n2 rows give the rows of one call of n1 + n2.
    A zero-frequency mode (m = 0 with the uniform mode) is rejected, and
    so is a β ω_k² beyond the double range.
    """
    require(0 < beta < math.inf,
            f"beta must be positive and finite, got {beta}")
    require(n >= 1, f"need at least one sample, got n={n}")
    omega2 = spec.dispersion(spec.k_grid()[: spec.n_sites // 2 + 1]) ** 2
    guard("modes with omega^2 <= 1e-12 max omega^2",
          np.count_nonzero(~(omega2 > 1e-12 * np.max(omega2))), 0,
          "the massless uniform mode has no normalizable thermal distribution")
    lo, hi = float(np.min(omega2)), float(np.max(omega2))
    require(0.0 < beta * lo and beta * hi < math.inf,
            f"beta * omega^2 leaves the double range: beta = {beta:.3g}, "
            f"omega^2 in [{lo:.3g}, {hi:.3g}]")
    rng = np.random.default_rng(seed)
    root = np.sqrt(beta * omega2)
    q = np.empty((n, spec.n_sites))
    p = np.empty((n, spec.n_sites))
    for rows in _row_blocks(n, 2 * spec.n_sites):
        z = rng.standard_normal((len(q[rows]), 2, spec.n_sites))
        modes = np.fft.rfft(z[:, 0], axis=1)
        modes /= root
        np.fft.irfft(modes, n=spec.n_sites, axis=1, out=q[rows])
        np.divide(z[:, 1], math.sqrt(beta), out=p[rows])
    return q, p


# ---------------------------------------------------------------------------
# Multimode occupation algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiModeFockVector:
    """Sparse vector over occupation tuples (n_1..n_M), orthonormal basis.

    ``cutoff`` bounds each n_k.  Ladder factors carry the scale:
    sqrt((n_k+1) ħ) up, sqrt(n_k ħ) down.
    """

    modes: int
    cutoff: int
    coeffs: dict
    hbar: float = 1.0

    def __post_init__(self):
        require(self.modes >= 1 and self.cutoff >= 0,
                "need modes >= 1 and cutoff >= 0")
        require(0 < self.hbar < math.inf,
                f"hbar must be positive and finite, got {self.hbar}")
        coeffs = {_indices(occ, "occupations must be tuples of integers"):
                  complex(c) for occ, c in self.coeffs.items()}
        bad = [occ for occ in coeffs if not (
            len(occ) == self.modes and 0 <= min(occ)
            and max(occ) <= self.cutoff)]
        require(not bad, f"occupations {bad} outside {self.modes} modes, "
                f"cutoff {self.cutoff}")
        object.__setattr__(self, "coeffs",
                           {occ: c for occ, c in coeffs.items() if c != 0})

    @classmethod
    def vacuum(cls, modes: int, cutoff: int,
               hbar: float = 1.0) -> "MultiModeFockVector":
        return cls(modes, cutoff, {(0,) * modes: 1.0}, hbar)

    def norm_squared(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def _same_structure(self, other: "MultiModeFockVector") -> bool:
        return (self.modes == other.modes
                and abs(self.hbar - other.hbar) <= 1e-15 * max(self.hbar,
                                                               other.hbar))

    def add_scaled(self,
                   other: "MultiModeFockVector") -> "MultiModeFockVector":
        require(self._same_structure(other), "mode structure / scale mismatch")
        out = dict(self.coeffs)
        for occ, c in other.coeffs.items():
            out[occ] = out.get(occ, 0j) + c
        cutoff = max(self.cutoff, other.cutoff)
        return MultiModeFockVector(self.modes, cutoff, out, self.hbar)

    def scaled(self, factor: complex) -> "MultiModeFockVector":
        return MultiModeFockVector(
            self.modes, self.cutoff,
            {occ: factor * c for occ, c in self.coeffs.items()}, self.hbar)


def fock_inner(phi1: MultiModeFockVector,
               phi2: MultiModeFockVector) -> complex:
    """(Φ1, Φ2) = Σ over occupation tuples of c1 conj(c2).

    The factorized Gaussian measure makes the occupation basis
    orthonormal, so the inner product is the coefficient pairing.
    """
    require(phi1._same_structure(phi2), "mode structure / scale mismatch")
    other = phi2.coeffs
    return complex(sum(c * np.conj(other[occ])
                       for occ, c in phi1.coeffs.items() if occ in other))


def mm_raised(phi: MultiModeFockVector, mode: int) -> MultiModeFockVector:
    """Apply the raising operator of one mode: sqrt((n_k+1) ħ) factors."""
    require(0 <= mode < phi.modes, f"mode {mode} outside 0..{phi.modes - 1}")
    out = {}
    for occ, c in phi.coeffs.items():
        n = occ[mode]
        require(n < phi.cutoff,
                f"raising mode {mode} overflows the truncation at {occ}")
        new = occ[:mode] + (n + 1,) + occ[mode + 1:]
        out[new] = out.get(new, 0j) + math.sqrt((n + 1) * phi.hbar) * c
    return MultiModeFockVector(phi.modes, phi.cutoff, out, phi.hbar)


def mm_lowered(phi: MultiModeFockVector, mode: int) -> MultiModeFockVector:
    """Apply the lowering operator of one mode: sqrt(n_k ħ) factors."""
    require(0 <= mode < phi.modes, f"mode {mode} outside 0..{phi.modes - 1}")
    out = {}
    for occ, c in phi.coeffs.items():
        n = occ[mode]
        if n == 0:
            continue
        new = occ[:mode] + (n - 1,) + occ[mode + 1:]
        out[new] = out.get(new, 0j) + math.sqrt(n * phi.hbar) * c
    return MultiModeFockVector(phi.modes, phi.cutoff, out, phi.hbar)


def hamiltonian_operator_apply(phi: MultiModeFockVector,
                               spec: ChainSpec) -> MultiModeFockVector:
    """Apply H = Σ_k (ω_k/2)(â_k⁺ â_k + â_k â_k⁺) through the ladders.

    Occupation states are eigenvectors with eigenvalue
    Σ_k ω_k ħ (n_k + ½); applying â â⁺ needs one slot of headroom, so a
    state touching the truncation edge raises.
    """
    require(phi.modes == spec.n_sites, "mode count does not match the chain")
    omegas = spec.dispersion(spec.k_grid())
    result = None
    for mode, omega_k in enumerate(omegas):
        up_down = mm_raised(mm_lowered(phi, mode), mode)
        down_up = mm_lowered(mm_raised(phi, mode), mode)
        term = up_down.add_scaled(down_up).scaled(0.5 * omega_k)
        result = term if result is None else result.add_scaled(term)
    return result


# ---------------------------------------------------------------------------
# Continuum and nonrelativistic limits
# ---------------------------------------------------------------------------

def continuum_limit_error(m: float, k_window: float, a_list):
    """Max dispersion error vs sqrt(m² + k²) over |k| <= k_window.

    The effective spring is fixed at 1/a² (the continuum scaling), so
    ω_chain(k) = sqrt(m² + (4/a²) sin²(k a/2)).  Returns a list of
    (a, max_error) pairs; the error decreases at second order in a.
    The window must sit inside the Brillouin zone of every a.

    The error is at most k_window³ a²/24 (sin x >= x - x³/6) plus a
    rounding of a few u·hypot(m, k_window), unless a term of ω² falls
    below the normal range.  At k = 0, ω = |m| then errs by at most
    min(|m|, 2**-537).  Elsewhere each term errs by up to 2**-1074, and
    sin²(k a/2) does so before it is scaled by 4/a², so ω² errs by at
    most (4/a² + 4)·2**-1074, and ω by that over ω.  Away from k = 0, ω
    is at least |m|, and at least 2/π times the least nonzero |k| of the
    grid, 2 k_window/256, since sin x >= 2x/π on [0, π/2].  An a for
    which either underflow error passes u·hypot(m, k_window) is refused.
    """
    require(abs(m) < math.inf, f"m must be finite, got {m}")
    require(0 < k_window < math.inf,
            f"k_window must be positive and finite, got {k_window}")
    scale = math.hypot(m, k_window)
    # u·scale over 2**-1074 (u = 2**-53) times the least ω away from
    # k = 0, each factor scaled by a power of two to stay in range
    resolved = (2.0 ** 511 * scale) * max(
        2.0 ** 510 * abs(m),
        2.0 ** 512 * k_window / (math.pi * (_CONTINUUM_K_POINTS - 1)))
    specs = []
    for a in a_list:
        require(0 < a < math.pi / k_window,
                f"a={a} must lie in (0, pi/k_window): the window {k_window} "
                "must sit inside the Brillouin zone")
        spec = ChainSpec(2, spacing=a, mass=abs(m))
        require(min(abs(m) * 2.0 ** 53, 2.0 ** -484) <= scale
                and 4.0 * spec.spring + 4.0 <= resolved,
                f"at a={a}, m={m}, k_window={k_window} the dispersion's "
                "squares m² and sin²(k a/2) underflow by more than the "
                "rounding of hypot(m, k_window)")
        specs.append(spec)
    require(specs, "need at least one spacing")
    # A chain bounds m² and 4/a², and so the window, below the double
    # range; hypot keeps k² from overflowing where the target does not.
    k = np.linspace(-k_window, k_window, _CONTINUUM_K_POINTS)
    target = np.hypot(m, k)
    return [(float(spec.spacing),
             float(np.max(np.abs(spec.dispersion(k) - target))))
            for spec in specs]


def standard_packet() -> GridWaveFunction:
    """Normalized unit-width Gaussian packet centered at the origin."""
    return GridWaveFunction.sampled(lambda x: hermite_function(0, x),
                                    -20.0, 40.0 / 2048, 2048)


def nonrelativistic_overlap(packet: GridWaveFunction, m: float,
                            t: float) -> float:
    """|overlap| between stripped relativistic and free-particle evolution.

    The packet's spectral weights evolve under the positive-frequency
    dispersion e^{−i sqrt(m²+k²) t}; after removing the rest phase
    e^{−imt} the result is compared with e^{−i k² t/2m}.  Returns the
    modulus of the normalized overlap.

    The spectral mass above |k| = m/10 must be at most 1e-3, else
    NumericalGuardError reports the tail mass (the heavy-mass regime is
    where the two evolutions agree).
    """
    require(0 < m and m * m < math.inf, f"need 0 < m with finite m^2, got {m}")
    require(abs(t) < math.inf, f"time must be finite, got {t}")
    k = 2.0 * math.pi * np.fft.fftfreq(packet.n, d=packet.dx)
    u, _, _ = _mass(packet.values, "packet norm must be positive and finite")
    # the transform of u cannot overflow; its mass is the same refusal
    spectrum, total, _ = _mass(np.fft.fft(u), "packet norm must be positive "
                               "and finite")
    weights = np.abs(spectrum) ** 2 / total
    guard("spectral mass above |k| = m/10",
          float(np.sum(weights[np.abs(k) > m / 10.0])), 1e-3,
          "the packet is not in the heavy-mass regime")
    phase_gap = (np.sqrt(m * m + k * k) - m - k * k / (2.0 * m)) * t
    return float(np.abs(np.sum(weights * np.exp(-1j * phase_gap))))
