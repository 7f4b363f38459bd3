"""Command-line entry point: every headline experiment as a data table.

Each subcommand reruns one family of checks and writes a deterministic
table — CSV with '#'-prefixed comment lines (17-significant-digit
floats, '.' decimal point) or an equivalent JSON document.  The first
comment line names the check performed; the second echoes the fully
resolved configuration.  Exit status: 0 success, 2 usage or invalid
value, 3 tripped numerical guard or a float cell that is not finite.

Configuration precedence: command-line flags override --config file
entries (``key = value`` lines), which override built-in defaults.
The environment variable THERMOFOCK_SEED replaces the built-in default
seed only; any explicit seed wins over it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, guard, require

__all__ = ["ConfigError", "RunConfig", "main", "run", "config_precedence"]

_BUILTIN_SEED = 12345


def _default_seed() -> int:
    env = os.environ.get("THERMOFOCK_SEED")
    if env is None:
        return _BUILTIN_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"THERMOFOCK_SEED must be an integer, got {env!r}"
                          ) from exc


class ConfigError(ValueError):
    """Malformed configuration file or unknown configuration key."""


# Parameter tables: name -> (type, default, help).  The parser appends
# "(default: X)" to each help text whose default is not None or empty.
_COMMON = {
    "seed": (int, None, "master RNG seed (default: THERMOFOCK_SEED or "
                        f"{_BUILTIN_SEED})"),
    "out": (str, None, "output path (default: stdout)"),
    "format": (str, "csv", "output format: csv or json"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run: subcommand, parameters, seed, output target."""

    subcommand: str
    params: dict
    seed: int
    out: str | None
    format: str

    def echo(self) -> str:
        pieces = [f"subcommand={self.subcommand}"]
        pieces += [f"{k}={self.params[k]}" for k in sorted(self.params)]
        pieces.append(f"seed={self.seed}")
        pieces.append(f"format={self.format}")
        return " ".join(pieces)


def _parse_config_file(path: str) -> dict:
    entries = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not (sep and key and value):
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            entries[key] = value
    return entries


def config_precedence(subcommand: str, flag_values: dict,
                      file_values: dict) -> RunConfig:
    """Resolve one run: flags over file entries over built-in defaults.

    Raises ConfigError for an unknown key, an unreadable value or a
    format other than csv and json."""
    table = _TABLES[subcommand].params
    for key in file_values:
        if key not in table:
            raise ConfigError(f"unknown configuration key {key!r} for "
                              f"subcommand {subcommand!r}")

    def resolve(key, kind, default):
        if flag_values.get(key) is not None:
            return flag_values[key]
        if key in file_values:
            try:
                return kind(file_values[key])
            except ValueError as exc:
                raise ConfigError(
                    f"configuration key {key!r}: cannot read "
                    f"{file_values[key]!r} as {kind.__name__}") from exc
        return default

    params = {key: resolve(key, kind, default)
              for key, (kind, default, _) in table.items()}
    seed, out, fmt = (params.pop(key) for key in ("seed", "out", "format"))
    if seed is None:
        seed = _default_seed()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(subcommand, params, int(seed), out, fmt)


# ---------------------------------------------------------------------------
# Subcommand runners: each returns (description, columns, rows, comments)
# and imports the modules it calls, so a table loads only those.
# ---------------------------------------------------------------------------

# A table's runner, its footprint (estimated peak bytes, from the resolved
# parameters) and, for a subcommand, its flags.
_Table = namedtuple("_Table", "runner footprint params", defaults=(None,))
_TABLES = {}   # subcommand -> _Table, in declaration (and --help) order
_CHAIN = {}    # chain experiment -> _Table; the first is the default
_STATES = {}   # states experiment -> _Table; the first is the default


def _table(registry: dict, name: str, params=None, *, footprint):
    """Declare the decorated runner as ``registry[name]`` with its
    footprint; a subcommand also declares its flags (common ones appended)."""
    def declare(runner):
        registry[name] = _Table(runner, footprint, None if params is None
                                else {**params, **_COMMON})
        return runner
    return declare


def _experiment_flag(experiments: dict):
    """The ``experiment`` flag: a declared experiment, the first by default."""
    *head, last = experiments
    return (str, next(iter(experiments)), f"{', '.join(head)} or {last}")


def _experiment(params: dict, experiments: dict) -> _Table:
    """The record of the experiment the ``experiment`` parameter names."""
    experiment = params["experiment"]
    require(experiment in experiments,
            "experiment must be one of " + ", ".join(sorted(experiments)))
    return experiments[experiment]


_KERNEL_POINTS = (0.0 + 0.0j, 0.7 - 0.3j, 1.2 + 0.8j, -1.5j, 2.0 + 0.0j)
_KERNEL_GRID = 2401   # q points of the kernel rows, on [-12, 12]
# Rounding floor of the dense coupling spectrum, relative to its largest
# eigenvalue: a massless chain's zero mode comes out near -1e-16.
_EIGVAL_FLOOR = 1e-12
# ChainSpec's fields: only the dispersion and equipartition tables build it
_SPEC_FLAGS = ("sites", "spacing", "mass", "gamma")


# nmax is at most 12: the kernel's 65-row Hermite table and the scaled copy
# that _hermite_table returns
@_table(_TABLES, "fock", {
    "nmax": (int, 12, "orthonormality truncation, at most 12"),
    "hbar": (float, 1.0, "ladder scale constant"),
    "omega": (float, 1.0, "oscillator frequency for the eigenvalue check"),
}, footprint=lambda p: 2 * 8 * 65 * _KERNEL_GRID)
def _run_fock(cfg: RunConfig):
    from . import fock as fock_mod
    nmax = cfg.params["nmax"]
    require(nmax >= 0, f"nmax must be nonnegative, got {nmax}")
    limit = fock_mod._QUAD_N_MAX
    require(nmax <= limit, f"nmax must be at most {limit}, the quadrature "
            f"oracle's limit, got {nmax}")
    hbar, omega = cfg.params["hbar"], cfg.params["omega"]
    rows = []
    for n in range(nmax + 1):
        zn = fock_mod.FockVector.basis_state(n, nmax, hbar)
        for m in range(nmax + 1):
            zm = fock_mod.FockVector.basis_state(m, nmax, hbar)
            value = fock_mod.quadrature_inner_product(zn, zm)
            defect = abs(value - (1.0 if n == m else 0.0))
            rows.append(("orthonormality", float(n), float(m), defect))
    rows.append(("commutator", hbar, float(max(nmax, 2)),
                 fock_mod.commutator_defect(max(nmax, 2), hbar)))
    for n in range(nmax):
        # at unit scale, on its one nonzero slot, times |ω| ħ at the end
        zn = fock_mod.FockVector.basis_state(n, nmax)
        hzn = fock_mod.hamiltonian_apply(zn, 1.0)
        defect = float(np.max(np.abs(hzn.coeffs - (n + 0.5) * zn.coeffs)))
        rows.append(("hamiltonian", float(n), omega,
                     abs(omega) * hbar * defect))
    if abs(hbar - 1.0) <= 1e-15:
        q = np.linspace(-12.0, 12.0, _KERNEL_GRID)
        kernels = [fock_mod.bargmann_kernel(z, q) for z in _KERNEL_POINTS]
        for i, z in enumerate(_KERNEL_POINTS):
            for j, zp in enumerate(_KERNEL_POINTS):
                integral = np.trapezoid(kernels[i] * np.conj(kernels[j]), q)
                defect = abs(integral - np.exp(z * np.conj(zp)))
                rows.append(("kernel", float(i), float(j), defect))
    comments = ["kernel rows index the fixed evaluation points "
                + " ".join(f"z{i}={z}" for i, z in enumerate(_KERNEL_POINTS))]
    return ("Gaussian-measure basis orthonormality by independent "
            "quadrature, ladder commutator defect on interior slots, "
            "oscillator eigenvalue defects, and the position-kernel "
            "reproducing identity",
            ("check", "a", "b", "defect"), rows, comments)


# angles, radii, CDF, energies
@_table(_TABLES, "sphere", {
    "beta": (float, 1.0, "inverse temperature"),
    "radius": (float, 1.0, "sphere radius"),
    "samples": (int, 100000, "sample count for the pushforward and "
                             "Monte Carlo checks"),
}, footprint=lambda p: 12 * 8 * p["samples"])
def _run_sphere(cfg: RunConfig):
    from . import sphere as sphere_mod
    beta = cfg.params["beta"]
    n = cfg.params["samples"]
    geometry = sphere_mod.SphereGeometry(cfg.params["radius"])
    osc = sphere_mod.ThermalOscillator(beta=beta)
    ks = sphere_mod.pushforward_ks_statistic(beta, n, cfg.seed)
    quad = sphere_mod.gibbs_normalization_check(osc)
    mc, stderr = sphere_mod.mean_energy(osc, n, cfg.seed)
    analytic = 1.0 / osc.beta
    gap_sigmas = abs(mc - analytic) / stderr
    rows = [
        ("sphere_area", geometry.area),
        ("ks_statistic", ks),
        ("gibbs_quadrature_mass", quad),
        ("mean_energy_monte_carlo", mc),
        ("mean_energy_stderr", stderr),
        ("mean_energy_analytic", analytic),
        ("mean_energy_gap_sigmas", gap_sigmas),
    ]
    # near the top of the double range the stderr, then 1/beta, is subnormal
    guard("subnormal table cells",
          sum(0.0 < abs(v) < sys.float_info.min for _, v in rows), 0,
          "a result lies below the smallest normal double and has fewer "
          "than 17 significant digits; lower beta")
    return ("uniform-sphere-to-Gibbs pushforward distance, phase-space "
            "normalization by quadrature, and Monte Carlo mean energy",
            ("quantity", "value"), rows, [])


# one row of Python floats and its text
@_table(_TABLES, "spectrum", {
    "tmin": (float, 0.01, "smallest hv/kT"),
    "tmax": (float, 10.0, "largest hv/kT"),
    "points": (int, 25, "number of log-spaced points"),
}, footprint=lambda p: 512 * p["points"])
def _run_spectrum(cfg: RunConfig):
    from . import sphere as sphere_mod
    tmin, tmax = cfg.params["tmin"], cfg.params["tmax"]
    points = cfg.params["points"]
    require(0 < tmin < tmax < math.inf, "need 0 < tmin < tmax < inf")
    require(points >= 2, "need at least 2 points")
    # geomspace pins its ends, after 10^log10(tmax) may have overflowed
    with np.errstate(over="ignore"):
        xs = np.geomspace(tmin, tmax, points)
    rows = []
    for x in xs:
        # x = hv/kT with h = k = T = 1 reference values.
        wien, rj = sphere_mod.limit_ratios(x, 1.0)
        rows.append((float(x), wien, rj))
    return ("blackbody spectral density against its exponential and "
            "low-frequency asymptotes across hv/kT",
            ("x", "u_over_wien", "u_over_rayleigh_jeans"), rows, [])


# the coupling matrix and its eigvalsh copy
@_table(_CHAIN, "dispersion", footprint=lambda p: 2 * 8 * p["sites"] ** 2)
def _chain_dispersion(cfg: RunConfig):
    from . import chain as chain_mod
    spec = chain_mod.ChainSpec(*map(cfg.params.get, _SPEC_FLAGS))
    modes = chain_mod.normal_modes(spec)
    order = np.argsort(modes.omega)
    lam = np.linalg.eigvalsh(spec.coupling_matrix())
    guard("negative coupling eigenvalue", -lam[0], _EIGVAL_FLOOR * lam[-1],
          "the coupling matrix is not positive semidefinite")
    oracle = np.sqrt(np.maximum(lam, 0.0))
    rows = []
    for idx, pos in enumerate(order):
        rows.append((float(modes.k[pos]), float(modes.omega[pos]),
                     abs(float(modes.omega[pos] - oracle[idx]))))
    worst = max(r[2] for r in rows)
    comments = [f"max dispersion defect vs dense eigenvalue oracle: "
                f"{worst:.17g}"]
    return ("lattice dispersion law against the dense coupling-matrix "
            "eigenvalue oracle", ("k", "omega", "oracle_error"), rows,
            comments)


# q and p, then the mode energies over q; the spectra of one row block,
# under 1 MB while a block holds several rows (up to 2**14 sites) and
# under 100 B per site once it is one row; the table rows, under 1 KB per
# site in JSON.  The 128 doubles per site cover the last two.
@_table(_CHAIN, "equipartition",
        footprint=lambda p: 8 * p["sites"] * (2 * p["samples"] + 128)
        + (1 << 20))
def _chain_equipartition(cfg: RunConfig):
    from . import chain as chain_mod
    beta = cfg.params["beta"]
    n = cfg.params["samples"]
    require(n >= 2, "equipartition needs at least 2 samples for its "
            f"standard errors, got {n}")
    spec = chain_mod.ChainSpec(*map(cfg.params.get, _SPEC_FLAGS))
    q, p = chain_mod.gibbs_sample(spec, beta, n, cfg.seed)
    modes = chain_mod.normal_modes(spec)
    with np.errstate(over="ignore", invalid="ignore"):   # checked by run
        energies = chain_mod._mode_energies_over(q, p, modes)
        del q, p
        means = np.mean(energies, axis=0)
        stderrs = np.std(energies, axis=0, ddof=1) / math.sqrt(n)
    rows = []
    for j in range(spec.n_sites):
        rows.append((float(modes.k[j]), float(modes.omega[j]),
                     float(means[j]), 1.0 / beta, float(stderrs[j])))
    return ("per-mode thermal energies of exact Gibbs samples against "
            "the equipartition value",
            ("k", "omega", "mean_mode_energy", "expected", "stderr"),
            rows, [])


# the continuum and chain laws on the fixed 257-point k window
@_table(_CHAIN, "continuum", footprint=lambda p: 8 * 8 * 257)
def _chain_continuum(cfg: RunConfig):
    from . import chain as chain_mod
    a_list = [cfg.params["spacing"] * 0.5 ** i for i in range(5)]
    pairs = chain_mod.continuum_limit_error(cfg.params["mass"], 1.0, a_list)
    errs = [err for _, err in pairs]
    guard("halving steps with zero error", errs[1:].count(0.0), 0,
          "the error is below rounding; raise the spacing or lower the mass")
    ratios = [None] + [prev / err for prev, err in zip(errs, errs[1:])]
    rows = [(a, err, ratio) for (a, err), ratio in zip(pairs, ratios)]
    return ("lattice dispersion error against the continuum law under "
            "spacing halving", ("a", "max_error", "halving_ratio"), rows, [])


# the fixed 2048-point packet, its spectrum, weights and phases
@_table(_CHAIN, "nonrel", footprint=lambda p: 12 * 16 * 2048)
def _chain_nonrel(cfg: RunConfig):
    from . import chain as chain_mod
    t = cfg.params["dt"] * cfg.params["steps"]
    packet = chain_mod.standard_packet()
    overlap = chain_mod.nonrelativistic_overlap(packet, cfg.params["mass"], t)
    rows = [("mass", cfg.params["mass"]), ("time", t), ("overlap", overlap)]
    return ("heavy-mass stripped relativistic evolution against the "
            "free-particle law", ("quantity", "value"), rows, [])


@_table(_TABLES, "chain", {
    "experiment": _experiment_flag(_CHAIN),
    "sites": (int, 64, "number of sites"),
    "mass": (float, 1.0, "site mass term"),
    "gamma": (float, 1.0, "coupling strength"),
    "spacing": (float, 1.0, "lattice spacing; continuum runs halve it "
                            "repeatedly"),
    "beta": (float, 1.0, "inverse temperature for equipartition"),
    "dt": (float, 0.01, "time step; the nonrel run evolves for dt*steps"),
    "steps": (int, 100, "step count; the nonrel run evolves for dt*steps"),
    "samples": (int, 20000, "thermal sample count for equipartition"),
}, footprint=lambda p: _experiment(p, _CHAIN).footprint(p))
def _run_chain(cfg: RunConfig):
    return _experiment(cfg.params, _CHAIN).runner(cfg)


# the direct route's 61 × N phase block and its exponential, plus the
# autocorrelation's 4N-point FFT buffers
@_table(_TABLES, "charfn", {
    "packet": (str, "gaussian", "test amplitude: gaussian or hermite1"),
    "span": (float, 40.0, "grid span"),
    "points": (int, 512, "grid points"),
}, footprint=lambda p: 16 * (2 * 61 + 16) * p["points"])
def _run_charfn(cfg: RunConfig):
    from . import charfn as charfn_mod
    from . import fock as fock_mod
    which = cfg.params["packet"]
    span, points = cfg.params["span"], cfg.params["points"]
    require(points >= 2, f"need at least 2 grid points, got {points}")
    x0, dx = -span / 2.0, span / points
    orders = {"gaussian": 0, "hermite1": 1}
    require(which in orders, "packet must be gaussian or hermite1")
    # The packet has unit norm, so its samples must sum to it before
    # normalisation; a grid too coarse or too short for it does not.
    raw = charfn_mod.GridWaveFunction(x0, dx, fock_mod.hermite_function(
        orders[which], x0 + dx * np.arange(points)))
    require(raw.is_normalized, "span and points do not resolve the "
            "unit-width packet: its sampled norm misses 1 by "
            f"{abs(raw.norm_squared() - 1.0):.3g}")
    psi = raw.normalized()
    t_grid = charfn_mod.default_t_grid(psi)
    direct = charfn_mod.characteristic_function(
        charfn_mod.density_from_amplitude(psi), t_grid)
    auto = charfn_mod.autocorrelation_charfn(psi, t_grid)
    rows = []
    for i, t in enumerate(t_grid):
        gap = abs(direct.values[i] - auto.values[i])
        rows.append((float(t), direct.values[i].real, direct.values[i].imag,
                     auto.values[i].real, auto.values[i].imag, gap))
    worst = max(r[5] for r in rows)
    return ("probability characteristic function computed directly and as "
            "the amplitude autocorrelation — route difference",
            ("t", "direct_re", "direct_im", "autocorr_re", "autocorr_im",
             "gap"), rows, [f"max route difference: {worst:.17g}"])


# the 1024-point Hermite table to order nmax (at most 200) and its copy
@_table(_STATES, "uncertainty",
        footprint=lambda p: 2 * 8 * 1024 * (min(p["nmax"], 200) + 1))
def _states_uncertainty(cfg: RunConfig):
    from . import charfn as charfn_mod
    from . import fock as fock_mod
    from . import states as states_mod
    nmax = cfg.params["nmax"]
    require(nmax >= 0, f"nmax must be nonnegative, got {nmax}")
    rows = []
    for n in range(nmax + 1):
        psi = charfn_mod.GridWaveFunction.sampled(
            lambda x, n=n: fock_mod.hermite_function(n, x),
            -20.0, 40.0 / 1024, 1024)
        wx, wk = states_mod.rms_widths(psi)
        rows.append((float(n), wx, wk, wx * wk))
    return ("root-mean-square width products of Hermite packets",
            ("n", "width_x", "width_k", "product"), rows, [])


# sparse vectors over eight modes with at most two quanta: no array
@_table(_STATES, "exotic", footprint=lambda p: 0)
def _states_exotic(cfg: RunConfig):
    from . import chain as chain_mod
    from . import states as states_mod
    f1 = states_mod.ModeProfile.from_values(
        [0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    f2 = states_mod.ModeProfile.from_values(
        [0.0, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0])
    one = states_mod.exotic_state(f1, f2)
    two = states_mod.two_particle_state(f1, f2)
    rows = [
        ("number_mean", states_mod.number_expectation(one)),
        ("number_variance", states_mod.number_variance(one)),
        ("norm_squared", one.norm_squared()),
        ("two_particle_number_mean", states_mod.number_expectation(two)),
        ("overlap_with_two_particle", abs(chain_mod.fock_inner(one, two))),
    ]
    return ("split-profile one-quantum state: number statistics and "
            "orthogonality to the two-quantum state",
            ("quantity", "value"), rows, [])


def _bump(center: float, halfwidth: float):
    def values(x):
        u = (x - center) / halfwidth
        out = np.zeros_like(x)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out
    return values


# orbitals, marginal and temporaries: a dozen 4001-point complex arrays
@_table(_STATES, "singlet", footprint=lambda p: 12 * 16 * 4001)
def _states_singlet(cfg: RunConfig):
    from . import charfn as charfn_mod
    from . import states as states_mod
    n = 4001
    x0, dx = -10.0, 20.0 / n
    f1 = charfn_mod.GridWaveFunction.sampled(_bump(-4.0, 2.0), x0, dx, n)
    f2 = charfn_mod.GridWaveFunction.sampled(_bump(4.0, 2.0), x0, dx, n)
    density, full = states_mod.singlet_marginal(f1, f2)
    _, region = states_mod.singlet_marginal(f1, f2, region=(-8.0, 0.0))
    closed = 0.5 * (np.abs(f1.values) ** 2 + np.abs(f2.values) ** 2)
    gap = float(np.max(np.abs(density.values - closed)))
    rows = [
        ("full_line_mass", full),
        ("first_orbital_region_mass", region),
        ("closed_form_gap", gap),
    ]
    return ("antisymmetrized two-orbital marginal: total and restricted "
            "masses, quadrature vs closed form",
            ("quantity", "value"), rows, [])


# closed forms: no array
@_table(_STATES, "circle", footprint=lambda p: 0)
def _states_circle(cfg: RunConfig):
    from . import states as states_mod
    widths = states_mod.circle_uncertainty(1)
    rows = [
        ("delta_p", widths.delta_p),
        ("delta_phi_rms", widths.delta_phi_rms),
        ("delta_phi_support", widths.delta_phi_support),
    ]
    return ("width measures of a sharp-momentum state on the circle",
            ("quantity", "value"), rows, [])


@_table(_TABLES, "states", {
    "experiment": _experiment_flag(_STATES),
    "nmax": (int, 6, "highest Hermite order for the uncertainty table"),
}, footprint=lambda p: _experiment(p, _STATES).footprint(p))
def _run_states(cfg: RunConfig):
    return _experiment(cfg.params, _STATES).runner(cfg)


def _parse_sectors(text: str, d: int):
    from . import measurement as measure_mod
    if not text:
        return measure_mod.SectorStructure.singletons(d)
    sectors, charges = {}, {}
    for label, group in enumerate(text.split(";")):
        idx = tuple(int(tok) for tok in group.split(",") if tok.strip())
        require(idx, f"empty sector group in {text!r}")
        sectors[label] = idx
        charges[label] = float(label)
    return measure_mod.SectorStructure(sectors, charges)


# d amplitudes make d×d complex matrices; three arrays of samples
@_table(_TABLES, "measure", {
    "amps": (str, "0.6,0.8", "comma list of branch amplitudes"),
    "samples": (int, 100000, "number of sampled outcomes"),
    "sectors": (str, "", "sector partition like '0,1;2'; empty means "
                         "one sector per outcome"),
}, footprint=lambda p: 8 * 16 * (p["amps"].count(",") + 1) ** 2
   + 3 * 8 * p["samples"])
def _run_measure(cfg: RunConfig):
    from . import measurement as measure_mod
    amps = np.array([float(tok) for tok in cfg.params["amps"].split(",")
                     if tok.strip()])
    require(amps.size > 0, "need at least one branch amplitude")
    # Scaled by the largest modulus first, the norm cannot overflow.
    scale = float(np.max(np.abs(amps)))
    require(0 < scale < math.inf,
            "branch amplitudes must be finite and not all zero")
    amps = amps / (scale * np.linalg.norm(amps / scale))
    state = measure_mod.entangle(amps)
    rho = measure_mod.reduced_density(state, "apparatus")
    sectors = _parse_sectors(cfg.params["sectors"], rho.d)
    before = measure_mod.purity(rho)
    rho_dec = measure_mod.decohere(rho, sectors)
    after = measure_mod.purity(rho_dec)
    table = measure_mod.sample_outcomes(rho_dec, cfg.params["samples"],
                                        cfg.seed)
    stderrs = table.standard_errors()
    within = table.within_3_sigma()
    rows = []
    for k in range(rho.d):
        rows.append((float(k), float(np.abs(amps[k]) ** 2),
                     float(table.frequencies[k]), float(stderrs[k]),
                     1.0 if bool(within[k]) else 0.0))
    comments = [f"purity_before={before:.17g}",
                f"purity_after={after:.17g}"]
    return ("measurement branch weights against sampled outcome "
            "frequencies after decoherence",
            ("outcome", "probability", "frequency", "stderr",
             "within_3_sigma"), rows, comments)


# one interference row and its text
@_table(_TABLES, "toy", {
    "steps": (int, 2, "number of steps in the interference table"),
    "matrix": (str, "hadamard", "'hadamard' or four comma-separated "
                                "reals a,b,c,d"),
}, footprint=lambda p: 1024 * p["steps"])
def _run_toy(cfg: RunConfig):
    from . import toy as toy_mod
    text = cfg.params["matrix"]
    if text == "hadamard":
        unitary = toy_mod.ToyUnitary.hadamard()
    else:
        vals = [float(tok) for tok in text.split(",")]
        require(len(vals) == 4, "matrix must be 'hadamard' or four "
                "comma-separated numbers a,b,c,d")
        unitary = toy_mod.ToyUnitary(np.array(vals).reshape(2, 2))
    rows_out = []
    for row in toy_mod.interference_demo(cfg.params["steps"], unitary):
        rows_out.append((float(row.step), row.quantum[0], row.quantum[1],
                         row.markov[0], row.markov[1], row.gap))
    comments = []
    if text == "hadamard" and cfg.params["steps"] >= 2:
        one_step = np.abs(unitary.entries) ** 2
        verdict = toy_mod.markov_feasibility([
            toy_mod.Constraint((1.0, 0.0), tuple(one_step[:, 0]), 1),
            toy_mod.Constraint((0.0, 1.0), tuple(one_step[:, 1]), 1),
            toy_mod.Constraint((1.0, 0.0), (1.0, 0.0), 2),
            toy_mod.Constraint((0.0, 1.0), (0.0, 1.0), 2),
        ])
        comments.append(f"two_step_feasibility: {verdict.certificate}")
    return ("two-site unitary walk against the matched time-homogeneous "
            "stochastic competitor",
            ("step", "quantum_p0", "quantum_p1", "markov_p0", "markov_p1",
             "gap"), rows_out, comments)


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:   # a cell the runner declares undefined
        return "nan"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    """JSON has no NaN or infinity: such a float is written as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render(cfg: RunConfig, description, columns, rows, comments) -> str:
    if cfg.format == "csv":
        lines = [f"# check: {description}", f"# config: {cfg.echo()}"]
        lines += [f"# {comment}" for comment in comments]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    document = {
        "check": description,
        "config": {"subcommand": cfg.subcommand, "seed": cfg.seed,
                   **{k: _json_value(v) for k, v in cfg.params.items()}},
        "comments": list(comments),
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    return json.dumps(document, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# Memory budget of one table: a request whose size flags would need more
# bytes exits with code 2 before anything is allocated.
_BUDGET_BYTES = 1 << 30


def _footprint(cfg: RunConfig) -> int:
    """Estimated peak bytes one table allocates, from its size flags."""
    return _TABLES[cfg.subcommand].footprint(cfg.params)


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration and write its table."""
    need = _footprint(cfg)
    require(need <= _BUDGET_BYTES,
            f"{cfg.subcommand} would need about {need / 2 ** 20:.0f} MB of "
            f"arrays, above the {_BUDGET_BYTES // 2 ** 20} MB budget; lower "
            "its size flags")
    description, columns, rows, comments = _TABLES[cfg.subcommand].runner(cfg)
    guard("non-finite table cells", sum(
        isinstance(v, float) and not math.isfinite(v) for row in rows
        for v in row), 0, "a result lies beyond the double range")
    text = _render(cfg, description, columns, rows, comments)
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(cfg.out, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermofock",
        description="Numerical laboratory tables: thermal phase-space maps, "
                    "ladder calculus, oscillator chains, amplitude "
                    "probability.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, table in _TABLES.items():
        p = sub.add_parser(name, help=f"run the {name} experiment table")
        for key, (kind, default, help_text) in table.params.items():
            if default not in (None, ""):
                help_text += f" (default: {default})"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                           default=None, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="key = value file; flags override it")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    subcommand = args.pop("subcommand")
    config_path = args.pop("config")
    try:
        file_values = (_parse_config_file(config_path)
                       if config_path is not None else {})
        cfg = config_precedence(subcommand, args, file_values)
        return run(cfg)
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
