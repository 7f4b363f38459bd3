"""Compact spherical phase space and its thermal image on the plane.

A sphere of radius R carries the uniform (area) measure, total area
h = 4πR².  Identifying normalized area with probability and mapping the
sphere onto the complex plane produces the Gibbs weight of a harmonic
oscillator; matching the total phase-space volume 2π/(βω) to h ties the
temperature scale to the area quantum through βω = 1/ħ, h = 2πħ.

Two maps are provided: ``thermal_map_paper`` (|z|² = (ln2/β)·3R²·
sin²(θ/2), kept verbatim for fidelity) and ``thermal_map_exact``, which
returns the point q + ip of the phase plane that ``region_probability``
weighs with e^{−βH}, H = (q² + p²)/2 (the ``ThermalOscillator`` with
m = ω = 1), at r² = q² + p² = −2 ln(1−sin²(θ/2))/β.  It pushes the
uniform sphere measure forward to that plane's Gibbs radial law
1−e^{−βr²/2} exactly: polar-cap area fraction and image-disk Gibbs mass
agree identically.  The two maps differ; both are exposed so the
discrepancy is measurable rather than hidden.

Gibbs masses of phase-plane regions (rectangles and disks, the full
plane included) come from iterated Gauss–Legendre rules, whose 48- and
64-node values give a self-estimated error that a guard bounds.
The ratios of the blackbody spectral density u(ν, T) =
(8πhν³/c³)/(e^{hν/kT} − 1) to its Wien and Rayleigh–Jeans limits,
mean-energy checks, and the freezing of the temperature/radius scales
as the area quantum vanishes round out the module.  Orientation
convention: arg z = φ, chosen so the induced bracket on the image plane
is {q, p} = 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _row_blocks, guard, require

__all__ = [
    "SphereGeometry",
    "SpherePoint",
    "ThermalOscillator",
    "PlanckConstants",
    "Rectangle",
    "Disk",
    "FULL_PLANE",
    "thermal_map_paper",
    "thermal_map_exact",
    "cap_area_fraction",
    "pushforward_radii",
    "pushforward_ks_statistic",
    "gibbs_normalization_check",
    "mean_energy",
    "gibbs_median_radius",
    "region_probability",
    "limit_ratios",
    "classical_limit_table",
]

_CLIP = 12.0   # Gibbs widths kept on each axis by the quadrature
_PANELS = 8    # equal panels of the outer Gauss–Legendre rule
# Gibbs mass outside the clipped square, as a fraction of the full plane
_CLIP_TAIL = 2.0 * math.erfc(_CLIP / math.sqrt(2.0))
_ROOT_3_LN2 = math.sqrt(3.0 * math.log(2.0))   # the paper's map: |z| ∝ R


@dataclass(frozen=True)
class SphereGeometry:
    """Sphere of radius R; its surface area 4πR² is the phase-space volume."""

    radius: float

    def __post_init__(self):
        require(0 < self.radius < math.inf,
                f"radius must be positive and finite, got {self.radius}")
        require(sys.float_info.min <= self.radius * self.radius
                and self.area < math.inf, f"the area 4 pi R^2 of radius "
                f"{self.radius:.3g} lies beyond the double range")

    @property
    def area(self) -> float:
        return 4.0 * math.pi * (self.radius * self.radius)


@dataclass(frozen=True)
class SpherePoint:
    """Polar angle θ in [0, π] (0 at the projection pole), azimuth φ."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        require(0.0 <= self.theta <= math.pi,
                f"theta must lie in [0, pi], got {self.theta}")
        require(0.0 <= self.phi < 2.0 * math.pi,
                f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class ThermalOscillator:
    """Oscillator H = p²/2m + mω²q²/2 in a Gibbs state at inverse
    temperature β, with the scale ħ tied to it by βω = 1/ħ.

    ``hbar`` may be overridden to represent a deliberately inconsistent
    configuration, one with βωħ ≠ 1.
    """

    beta: float
    omega: float = 1.0
    mass: float = 1.0
    hbar: float | None = None

    def __post_init__(self):
        require(0 < self.beta < math.inf and 0 < self.omega < math.inf
                and 0 < self.mass < math.inf,
                "beta, omega, mass must all be positive and finite")
        if self.hbar is None:
            require(self.beta * self.omega > 0.0,
                    f"beta * omega underflows to 0 (beta={self.beta}, "
                    f"omega={self.omega}), so hbar = 1/(beta omega) leaves "
                    "the double range")
            object.__setattr__(self, "hbar", 1.0 / (self.beta * self.omega))
        require(0 < self.hbar and self.h < math.inf, "hbar must be positive "
                f"with a finite cell 2 pi hbar, got {self.hbar}")

    @property
    def h(self) -> float:
        """Phase-space cell 2πħ."""
        return 2.0 * math.pi * self.hbar


# ---------------------------------------------------------------------------
# Maps from the sphere to the plane
# ---------------------------------------------------------------------------

def thermal_map_paper(point: SpherePoint, radius: float,
                      beta: float) -> complex:
    """|z|² = (ln2/β)·3R²·sin²(θ/2), arg z = φ — kept verbatim.

    This scaling does not push the uniform sphere measure exactly onto
    the Gibbs weight; see thermal_map_exact for the measure-preserving
    completion.  |z| = R·√(3 ln 2)·sin(θ/2)/√β is formed from the
    mantissas and exponents of R, 2 sin(θ/2) = sin θ/cos(θ/2) and √β, so
    no intermediate leaves the double range or halves a subnormal θ; a
    |z| beyond the largest double raises ValueError.
    """
    require(0 < beta < math.inf,
            f"beta must be positive and finite, got {beta}")
    require(0 < radius < math.inf,
            f"radius must be positive and finite, got {radius}")
    (mr, er), (ms, es), (mb, eb) = map(math.frexp, (
        radius, math.sin(point.theta) / math.cos(point.theta / 2.0),
        math.sqrt(beta)))
    try:
        modulus = math.ldexp(_ROOT_3_LN2 * mr * ms / mb, er + es - 1 - eb)
    except OverflowError:
        modulus = math.inf
    require(modulus < math.inf, f"|z| = R sqrt(3 ln 2 / beta) sin(theta/2) "
            f"overflows at R = {radius:.3g}, beta = {beta:.3g}")
    return modulus * complex(math.cos(point.phi), math.sin(point.phi))


def thermal_map_exact(point: SpherePoint, beta: float) -> complex:
    """The phase point q + ip of the plane of ``ThermalOscillator(beta)``:
    r² = |q + ip|² = −2 ln(1 − sin²(θ/2))/β and arg = φ.

    Exactly measure-preserving: the polar cap of area fraction
    sin²(θ/2) maps onto the disk whose Gibbs mass under
    ``region_probability`` is 1−e^{−βr²/2}, and the two fractions agree
    identically.  The far pole θ = π is logarithmically singular and
    raises ValueError.  r is :func:`pushforward_radii`.
    """
    radius = float(pushforward_radii(np.array([point.theta]), beta)[0])
    return radius * complex(math.cos(point.phi), math.sin(point.phi))


def cap_area_fraction(theta: float) -> float:
    """Normalized area of the polar cap {θ' <= θ}: sin²(θ/2)."""
    return math.sin(theta / 2.0) ** 2


def pushforward_radii(theta: np.ndarray, beta: float) -> np.ndarray:
    """r = |q + ip| for uniform-sphere angles θ under the exact thermal
    map, in the phase plane of ``ThermalOscillator(beta)``."""
    require(0 < beta < math.inf,
            f"beta must be positive and finite, got {beta}")
    half = np.asarray(theta, dtype=float) / 2.0
    require(np.all(half < math.pi / 2.0),
            "theta must lie below pi, the singular pole of the exact map")
    # ln cos²(θ/2): log1p(−sin²) is accurate near θ = 0, cos near θ = π
    far = half > math.pi / 4.0
    log_cos2 = np.empty_like(half)
    log_cos2[~far] = np.log1p(-np.sin(half[~far]) ** 2)
    log_cos2[far] = 2.0 * np.log(np.cos(half[far]))
    # Rooted apart, so a tiny beta cannot overflow the quotient.
    return np.sqrt(-2.0 * log_cos2) / math.sqrt(beta)


def pushforward_ks_statistic(beta: float, n: int, seed: int) -> float:
    """Kolmogorov–Smirnov distance between mapped uniform-sphere radii
    r = |q + ip| and the Gibbs radial law 1 − e^{−βr²/2} of their plane.

    The polar angles are uniform in area (cos θ uniform on [−1, 1]),
    drawn one row block at a time from one generator, so they are those
    of one draw of n.  D does not depend on β: it is taken on the unit
    radius r̃ = sqrt(β) r, whose law is 1 − e^{−r̃²/2}.  D = max(D⁺, D⁻)
    over the sorted empirical CDF, arranged as in ``scipy.stats.kstest``
    (the test oracle) so the two agree bit for bit; the ranks of each
    block are whole-number floats, exact whatever the block.  Only the n
    radii are held whole.
    """
    require(0 < beta < math.inf,
            f"beta must be positive and finite, got {beta}")
    require(n >= 1, f"the KS statistic needs at least 1 sample, got {n}")
    rng = np.random.default_rng(seed)
    radii = np.empty(n)
    for rows in _row_blocks(n, 1):
        block = radii[rows]
        block[:] = pushforward_radii(
            np.arccos(rng.uniform(-1.0, 1.0, size=block.size)), 1.0)
    radii.sort()
    d = 0.0
    for rows in _row_blocks(n, 1):
        r = radii[rows]
        cdf = -np.expm1(-r * r / 2.0)
        ranks = np.arange(rows.start, rows.start + r.size, dtype=float)
        d = max(d, np.max((ranks + 1.0) / n - cdf), np.max(cdf - ranks / n))
    return float(d)


# ---------------------------------------------------------------------------
# Gibbs-state checks on the plane
# ---------------------------------------------------------------------------

def gibbs_normalization_check(osc: ThermalOscillator) -> float:
    """h^{−1} ∫∫ e^{−βH} dq dp, the region probability of the full plane.

    The analytic value is 2π/(βω h), which equals 1 exactly when
    βω = 1/ħ; a configuration with an overridden ħ returns the off-1
    value so the inconsistency is visible.  On the full plane the
    64-node value misses the analytic one by under 1/100 of its gap to
    the 48-node value, so wherever the 1e−7 self-estimate of
    ``region_probability`` passes, the value is within 1e−9 of 2π/(βω h).
    """
    return region_probability(FULL_PLANE, osc)


def mean_energy(osc: ThermalOscillator, n: int, seed: int):
    """(mean, stderr) of the Gibbs energy from n >= 1000 Gaussian
    phase-space samples (the exact mean is 1/β); ``math.fsum`` rounds
    correctly in any order, so the estimate does not depend on the order
    of the samples.  It computes in units of 1/β: βE = (q̃² + p̃²)/2 for
    unit normals q̃, p̃ whatever ω and m are, and the mean and stderr of
    βE are divided by β once.  The n energies are formed in one buffer,
    with p̃ drawn one row block at a time after q̃, so the samples are
    those of one (2, n) draw."""
    require(n >= 1000, f"mean_energy needs n >= 1000 samples, got {n}")
    rng = np.random.default_rng(seed)
    energies = rng.standard_normal(n)
    energies *= energies
    for rows in _row_blocks(n, 1):
        block = energies[rows]
        p = rng.standard_normal(block.size)
        p *= p
        block += p
        block *= 0.5
    mean = math.fsum(energies) / n
    energies -= mean
    energies *= energies
    var = math.fsum(energies) / (n - 1)
    return mean / osc.beta, math.sqrt(var / n) / osc.beta


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned region [qmin, qmax] × [pmin, pmax]; infinities allowed."""

    qmin: float
    qmax: float
    pmin: float
    pmax: float

    def __post_init__(self):
        require(self.qmin <= self.qmax and self.pmin <= self.pmax,
                "rectangle bounds must be ordered")


@dataclass(frozen=True)
class Disk:
    """Disk of given radius centered at (q0, p0) in the phase plane."""

    radius: float
    q0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        require(0 < self.radius < math.inf,
                f"radius must be positive and finite, got {self.radius}")
        require(abs(self.q0) < math.inf and abs(self.p0) < math.inf,
                f"center must be finite, got ({self.q0}, {self.p0})")


FULL_PLANE = Rectangle(-math.inf, math.inf, -math.inf, math.inf)


def gibbs_median_radius(osc: ThermalOscillator) -> float:
    """Radius of the centered disk holding half the Gibbs mass.

    Defined for isotropic oscillators (mω = 1, circular level sets),
    where the radial mass law is 1 − e^{−βr²/2}: r = sqrt(2 ln2 / β).
    """
    require(abs(osc.mass * osc.omega - 1.0) <= 1e-12,
            "median disk radius requires an isotropic oscillator (m*omega=1)")
    return math.sqrt(2.0 * math.log(2.0) / osc.beta)


@lru_cache(maxsize=2)
def _legendre_rules(n: int):
    """The n-point Gauss–Legendre rule (x, w) on [0, 1] and its copy
    (t, w_t) on each of the 8 equal panels of [0, 1]; read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    t = ((np.arange(_PANELS)[:, None] + x) / _PANELS).ravel()
    w_t = np.tile(w / _PANELS, _PANELS)
    for rule in (x, w, t, w_t):
        rule.setflags(write=False)
    return x, w, t, w_t


def _gibbs_mass(region, sigma_q: float, sigma_p: float, n: int) -> float:
    """∫_A e^{−βH} dq dp by iterated Gauss–Legendre rules, for the Gibbs
    widths σ_q and σ_p of the position and momentum axes.

    The outer rule runs along the axis u of the wider Gibbs width, with
    n nodes on each of 8 equal panels of its range; the inner rule runs
    along the other axis v, with n nodes between the region's edges at
    each outer node.  A disk takes the angle θ as its outer variable,
    u = u0 + r sin θ, so its edges v0 ± r cos θ carry no square root.
    Every edge is clipped to ±12 widths of its axis.  The panels resolve
    a disk edge that crosses the Gibbs bulk steeply in θ, where 48 and
    64 nodes on one unpaneled range could agree on a value 1e−7 off.
    The rules come from a cache of the two node counts in use, and the
    inner sums run in numpy's own loops, so the mass does not depend on
    the BLAS thread count.
    """
    x, w, t, w_t = _legendre_rules(n)
    swap = sigma_p > sigma_q
    sigma_u, sigma_v = (sigma_p, sigma_q) if swap else (sigma_q, sigma_p)
    cut_u, cut_v = _CLIP * sigma_u, _CLIP * sigma_v
    if isinstance(region, Disk):
        r = region.radius
        u0, v0 = (region.p0, region.q0) if swap else (region.q0, region.p0)
        lo, hi = np.arcsin(np.clip((np.array([-cut_u, cut_u]) - u0) / r,
                                   -1.0, 1.0))
        theta = lo + (hi - lo) * t
        u = u0 + r * np.sin(theta)
        w_u = (hi - lo) * w_t * r * np.cos(theta)
        v_lo, v_hi = v0 - r * np.cos(theta), v0 + r * np.cos(theta)
    else:
        (u_lo, u_hi), (v_lo, v_hi) = (
            ((region.pmin, region.pmax), (region.qmin, region.qmax)) if swap
            else ((region.qmin, region.qmax), (region.pmin, region.pmax)))
        u_lo, u_hi = np.clip([u_lo, u_hi], -cut_u, cut_u)
        u = u_lo + (u_hi - u_lo) * t
        w_u = (u_hi - u_lo) * w_t
    v_lo = np.clip(v_lo, -cut_v, cut_v)
    width_v = np.clip(v_hi, -cut_v, cut_v) - v_lo
    v = v_lo[..., None] + width_v[..., None] * x
    inner = width_v * np.einsum("...j,j->...",
                                np.exp(-0.5 * (v / sigma_v) ** 2), w)
    return float(np.sum(w_u * np.exp(-0.5 * (u / sigma_u) ** 2) * inner))


def region_probability(region, osc: ThermalOscillator) -> float:
    """P(A) = ∫_A e^{−βH} dq dp / h for a Rectangle or Disk region.

    Iterated Gauss–Legendre rules with 48 and 64 nodes per axis and
    panel; the 64-node value is returned.  The Gibbs mass beyond the
    ±12-width clip, alone and then plus the gap of the two values, is
    the self-estimated error, and above 1e−7 either raises
    NumericalGuardError under its own name.  An oscillator whose Gibbs
    widths are not normal doubles, or whose clips or mass leave the double
    range, raises ValueError.
    """
    require(isinstance(region, (Rectangle, Disk)),
            f"unsupported region type {type(region).__name__}")
    # Each Gibbs width is a product of roots, since a product such as β m
    # can be subnormal and keep only a few digits; it must be normal, with
    # a finite ±12-width clip.
    root_beta, root_mass = math.sqrt(osc.beta), math.sqrt(osc.mass)
    q_scale = osc.omega * root_beta * root_mass
    sigma_q = 1.0 / q_scale if q_scale > 0.0 else math.inf
    sigma_p = root_mass / root_beta
    for name, sigma in (("position", sigma_q), ("momentum", sigma_p)):
        require(sys.float_info.min <= sigma and _CLIP * sigma < math.inf,
                f"the {name} width {sigma:.3g} leaves the normal range")
    # The clipped integral is at most (24 σ_q)(24 σ_p) = 576/(βω), and
    # the mass is the integral over h.
    m_scale = osc.beta * osc.omega * min(osc.h, 1.0)
    require(m_scale > 0.0 and (2.0 * _CLIP) ** 2 / m_scale < math.inf,
            f"beta * omega * min(h, 1) = {m_scale:.3g} underflows: the Gibbs "
            "mass 2 pi/(beta omega h) leaves the double range")
    tail = _CLIP_TAIL * 2.0 * math.pi / (osc.beta * osc.omega * osc.h)
    guard("region clip tail", tail, 1e-7,
          "the Gibbs mass 2 pi/(beta omega h) is so large that its share "
          "beyond the ±12-width clip exceeds the bound")
    coarse, fine = (_gibbs_mass(region, sigma_q, sigma_p, n) / osc.h
                    for n in (48, 64))
    guard("region quadrature self-estimate", abs(coarse - fine) + tail, 1e-7,
          "the region's edges are too sharp for the Gauss–Legendre rules")
    return fine


# ---------------------------------------------------------------------------
# Blackbody spectrum and classical limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanckConstants:
    """Caller-supplied h and k (c cancels out of every ratio of u)."""

    h: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        require(0 < self.h < math.inf and 0 < self.k < math.inf,
                f"h and k must be positive and finite, got ({self.h}, "
                f"{self.k})")


def _expm1(x: float) -> float:
    """e^x − 1, and inf where e^x lies beyond the double range."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def limit_ratios(nu: float, temperature: float,
                 constants: PlanckConstants = PlanckConstants()):
    """(u/Wien, u/Rayleigh–Jeans) at x = hν/kT.

    u/Wien = 1/(1 − e^{−x}) → 1 as x → ∞, and about 1/x as x → 0: where
    it leaves the double range it raises ValueError, and so does an x
    that overflows; u/RJ = x/(e^x − 1) → 1 as x → 0, and is 0 once e^x
    overflows.  x is formed from the mantissas and exponents of h, ν, k
    and T, so hν or kT leaving the double range does not lose it, and
    wherever both are normal it is hν/(kT) to the last bit.
    """
    require(0 < nu < math.inf and 0 < temperature < math.inf,
            "nu and temperature must be positive and finite")
    (mh, eh), (mn, en), (mk, ek), (mt, et) = map(
        math.frexp, (constants.h, nu, constants.k, temperature))
    try:
        x = math.ldexp(mh * mn / (mk * mt), eh + en - ek - et)
    except OverflowError:
        x = math.inf
    require(x < math.inf, "x = hv/kT overflows the double range")
    wien = 1.0 / (-math.expm1(-x)) if x > 0.0 else math.inf
    require(wien < math.inf,
            f"u/Wien at x = hv/kT = {x:.3g} lies beyond the double range")
    return wien, x / _expm1(x)


def classical_limit_table(hbar_values, omega: float):
    """Rows (ħ, T, R): T = ħω (k_B = 1) and R = sqrt(h/4π) = sqrt(ħ/2).

    Both scales vanish with the area quantum — the freezing regime.  R
    is √ħ/√2, never a subnormal ħ/2; T beyond the double range raises.
    """
    require(0 < omega < math.inf, "omega must be positive and finite")
    rows = []
    for hbar in map(float, hbar_values):
        require(0 <= hbar < math.inf,
                f"hbar must be nonnegative and finite, got {hbar}")
        require(hbar * omega < math.inf, f"T = hbar * omega overflows at "
                f"hbar = {hbar:.3g}, omega = {omega:.3g}")
        rows.append((hbar, hbar * omega, math.sqrt(hbar) / math.sqrt(2.0)))
    return rows
