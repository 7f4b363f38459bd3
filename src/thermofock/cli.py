"""Command-line entry point: every headline experiment as a data table.

Each subcommand reruns one family of checks and writes a deterministic
table — CSV with '#'-prefixed comment lines (17-significant-digit
floats, '.' decimal point) or an equivalent JSON document.  The first
comment line names the check performed; the second echoes the fully
resolved configuration.  Exit status: 0 success, 2 usage or invalid
value, 3 tripped numerical guard.

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
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from . import charfn as charfn_mod
from . import fock as fock_mod
from . import measurement as measure_mod
from . import sphere as sphere_mod
from . import states as states_mod
from . import toy as toy_mod
from .errors import NumericalGuardError, require

__all__ = ["RunConfig", "main", "run", "config_precedence"]

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


# Per-subcommand parameter tables: name -> (type, default, help).
_COMMON = {
    "seed": (int, None, "master RNG seed (default: THERMOFOCK_SEED or "
                        f"{_BUILTIN_SEED})"),
    "out": (str, None, "output path (default: stdout)"),
    "format": (str, "csv", "output format: csv or json (default: csv)"),
}

_PARAMS = {
    "fock": {
        "nmax": (int, 12, "orthonormality truncation, at most 12 "
                          "(default: 12)"),
        "hbar": (float, 1.0, "ladder scale constant (default: 1.0)"),
        "omega": (float, 1.0, "oscillator frequency for the eigenvalue "
                              "check (default: 1.0)"),
    },
    "sphere": {
        "beta": (float, 1.0, "inverse temperature (default: 1.0)"),
        "radius": (float, 1.0, "sphere radius (default: 1.0)"),
        "samples": (int, 100000, "sample count for the pushforward and "
                                 "Monte Carlo checks (default: 100000)"),
    },
    "spectrum": {
        "tmin": (float, 0.01, "smallest hv/kT (default: 0.01)"),
        "tmax": (float, 10.0, "largest hv/kT (default: 10.0)"),
        "points": (int, 25, "number of log-spaced points (default: 25)"),
    },
    "chain": {
        "experiment": (str, "dispersion",
                       "dispersion, equipartition, continuum or nonrel "
                       "(default: dispersion)"),
        "sites": (int, 64, "number of sites (default: 64)"),
        "mass": (float, 1.0, "site mass term (default: 1.0)"),
        "gamma": (float, 1.0, "coupling strength (default: 1.0)"),
        "spacing": (float, 1.0, "lattice spacing; continuum runs halve it "
                                "repeatedly (default: 1.0)"),
        "beta": (float, 1.0, "inverse temperature for equipartition "
                             "(default: 1.0)"),
        "dt": (float, 0.01, "time step; the nonrel run evolves for "
                            "dt*steps (default: 0.01)"),
        "steps": (int, 100, "step count; the nonrel run evolves for "
                            "dt*steps (default: 100)"),
        "samples": (int, 20000, "thermal sample count for equipartition "
                                "(default: 20000)"),
    },
    "charfn": {
        "packet": (str, "gaussian", "test amplitude: gaussian or hermite1 "
                                    "(default: gaussian)"),
        "span": (float, 40.0, "grid span (default: 40.0)"),
        "points": (int, 512, "grid points (default: 512)"),
    },
    "states": {
        "experiment": (str, "uncertainty", "uncertainty, exotic, singlet or "
                                           "circle (default: uncertainty)"),
        "nmax": (int, 6, "highest Hermite order for the uncertainty table "
                         "(default: 6)"),
    },
    "measure": {
        "amps": (str, "0.6,0.8", "comma list of branch amplitudes "
                                 "(default: 0.6,0.8)"),
        "samples": (int, 100000, "number of sampled outcomes "
                                 "(default: 100000)"),
        "sectors": (str, "", "sector partition like '0,1;2' "
                             "(default: one sector per outcome)"),
    },
    "toy": {
        "steps": (int, 2, "number of steps in the interference table "
                          "(default: 2)"),
        "matrix": (str, "hadamard", "'hadamard' or four comma-separated "
                                    "reals a,b,c,d (default: hadamard)"),
    },
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
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            entries[key] = value
    return entries


def config_precedence(subcommand: str, flag_values: dict,
                      file_values: dict) -> RunConfig:
    """Resolve one run: flags over file entries over built-in defaults."""
    table = dict(_PARAMS[subcommand])
    known = set(table) | set(_COMMON)
    for key in file_values:
        if key not in known:
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
    seed = resolve("seed", int, None)
    if seed is None:
        seed = _default_seed()
    out = resolve("out", str, None)
    fmt = resolve("format", str, "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(subcommand, params, int(seed), out, fmt)


# ---------------------------------------------------------------------------
# Subcommand runners: each returns (description, columns, rows, comments)
# ---------------------------------------------------------------------------

_KERNEL_POINTS = (0.0 + 0.0j, 0.7 - 0.3j, 1.2 + 0.8j, -1.5j, 2.0 + 0.0j)


def _run_fock(cfg: RunConfig):
    nmax = cfg.params["nmax"]
    hbar = cfg.params["hbar"]
    omega = cfg.params["omega"]
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
        zn = fock_mod.FockVector.basis_state(n, nmax, hbar)
        hzn = fock_mod.hamiltonian_apply(zn, omega)
        defect = float(np.linalg.norm(
            hzn.coeffs - omega * hbar * (n + 0.5) * zn.coeffs))
        rows.append(("hamiltonian", float(n), omega, defect))
    if abs(hbar - 1.0) <= 1e-15:
        q = np.linspace(-12.0, 12.0, 2401)
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


def _run_sphere(cfg: RunConfig):
    beta = cfg.params["beta"]
    radius = cfg.params["radius"]
    n = cfg.params["samples"]
    geometry = sphere_mod.SphereGeometry(radius)
    osc = sphere_mod.ThermalOscillator(beta=beta)
    ks = sphere_mod.pushforward_ks_statistic(beta, n, cfg.seed)
    quad = sphere_mod.gibbs_normalization_check(osc)
    mc, stderr = sphere_mod.mean_energy(osc, method="monte_carlo", n=n,
                                        seed=cfg.seed)
    analytic, _ = sphere_mod.mean_energy(osc, method="analytic")
    gap_sigmas = abs(mc - analytic) / stderr if stderr > 0 else 0.0
    rows = [
        ("sphere_area", geometry.area),
        ("ks_statistic", ks),
        ("gibbs_quadrature_mass", quad),
        ("mean_energy_monte_carlo", mc),
        ("mean_energy_stderr", stderr),
        ("mean_energy_analytic", analytic),
        ("mean_energy_gap_sigmas", gap_sigmas),
    ]
    return ("uniform-sphere-to-Gibbs pushforward distance, phase-space "
            "normalization by quadrature, and Monte Carlo mean energy",
            ("quantity", "value"), rows, [])


def _run_spectrum(cfg: RunConfig):
    tmin, tmax = cfg.params["tmin"], cfg.params["tmax"]
    points = cfg.params["points"]
    require(0 < tmin < tmax < math.inf, "need 0 < tmin < tmax < inf")
    require(points >= 2, "need at least 2 points")
    xs = np.geomspace(tmin, tmax, points)
    rows = []
    for x in xs:
        # x = hv/kT with h = k = T = 1 reference values.
        wien, rj = sphere_mod.limit_ratios(x, 1.0)
        rows.append((float(x), wien, rj))
    return ("blackbody spectral density against its exponential and "
            "low-frequency asymptotes across hv/kT",
            ("x", "u_over_wien", "u_over_rayleigh_jeans"), rows, [])


def _chain_dispersion(cfg: RunConfig, spec):
    modes = chain_mod.normal_modes(spec)
    order = np.argsort(modes.omega)
    oracle = np.sqrt(np.linalg.eigvalsh(spec.coupling_matrix()))
    dispersion_sorted = modes.omega[order]
    rows = []
    for idx, pos in enumerate(order):
        rows.append((float(modes.k[pos]), float(modes.omega[pos]),
                     abs(float(dispersion_sorted[idx] - oracle[idx]))))
    worst = max(r[2] for r in rows)
    comments = [f"max dispersion defect vs dense eigenvalue oracle: "
                f"{worst:.17g}"]
    return ("lattice dispersion law against the dense coupling-matrix "
            "eigenvalue oracle", ("k", "omega", "oracle_error"), rows,
            comments)


def _chain_equipartition(cfg: RunConfig, spec):
    beta = cfg.params["beta"]
    n = cfg.params["samples"]
    q, p = chain_mod.gibbs_sample(spec, beta, n, cfg.seed)
    modes = chain_mod.normal_modes(spec)
    u = np.fft.fft(q, axis=1) / math.sqrt(spec.n_sites)
    v = np.fft.fft(p, axis=1) / math.sqrt(spec.n_sites)
    energies = 0.5 * (np.abs(v) ** 2 + modes.omega ** 2 * np.abs(u) ** 2)
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


def _chain_continuum(cfg: RunConfig, spec):
    a_list = [cfg.params["spacing"] * 0.5 ** i for i in range(5)]
    pairs = chain_mod.continuum_limit_error(cfg.params["mass"], 1.0, a_list)
    rows = []
    prev = None
    for a, err in pairs:
        ratio = prev / err if prev is not None else math.nan
        rows.append((a, err, ratio))
        prev = err
    return ("lattice dispersion error against the continuum law under "
            "spacing halving", ("a", "max_error", "halving_ratio"), rows, [])


def _chain_nonrel(cfg: RunConfig, spec):
    t = cfg.params["dt"] * cfg.params["steps"]
    packet = chain_mod.standard_packet()
    overlap = chain_mod.nonrelativistic_overlap(packet, cfg.params["mass"], t)
    rows = [("mass", cfg.params["mass"]), ("time", t), ("overlap", overlap)]
    return ("heavy-mass stripped relativistic evolution against the "
            "free-particle law", ("quantity", "value"), rows, [])


def _run_chain(cfg: RunConfig):
    spec = chain_mod.ChainSpec(cfg.params["sites"], cfg.params["spacing"],
                               cfg.params["mass"], cfg.params["gamma"])
    runners = {
        "dispersion": _chain_dispersion,
        "equipartition": _chain_equipartition,
        "continuum": _chain_continuum,
        "nonrel": _chain_nonrel,
    }
    experiment = cfg.params["experiment"]
    require(experiment in runners,
            "experiment must be one of " + ", ".join(sorted(runners)))
    return runners[experiment](cfg, spec)


def _run_charfn(cfg: RunConfig):
    which = cfg.params["packet"]
    span, points = cfg.params["span"], cfg.params["points"]
    x0, dx = -span / 2.0, span / points
    if which == "gaussian":
        psi = charfn_mod.GridWaveFunction.sampled(
            lambda x: np.pi ** -0.25 * np.exp(-0.5 * x * x), x0, dx, points)
    elif which == "hermite1":
        psi = charfn_mod.GridWaveFunction.sampled(
            lambda x: fock_mod.hermite_function(1, x), x0, dx, points)
    else:
        raise ValueError("packet must be gaussian or hermite1")
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


def _states_uncertainty(cfg: RunConfig):
    rows = []
    for n in range(cfg.params["nmax"] + 1):
        psi = charfn_mod.GridWaveFunction.sampled(
            lambda x, n=n: fock_mod.hermite_function(n, x),
            -20.0, 40.0 / 1024, 1024)
        wx, wk = states_mod.rms_widths(psi)
        rows.append((float(n), wx, wk, wx * wk))
    return ("root-mean-square width products of Hermite packets",
            ("n", "width_x", "width_k", "product"), rows, [])


def _states_exotic(cfg: RunConfig):
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


def _states_singlet(cfg: RunConfig):
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


def _states_circle(cfg: RunConfig):
    widths = states_mod.circle_uncertainty(1)
    rows = [
        ("delta_p", widths.delta_p),
        ("delta_phi_rms", widths.delta_phi_rms),
        ("delta_phi_support", widths.delta_phi_support),
    ]
    return ("width measures of a sharp-momentum state on the circle",
            ("quantity", "value"), rows, [])


def _run_states(cfg: RunConfig):
    experiment = cfg.params["experiment"]
    runners = {
        "uncertainty": _states_uncertainty,
        "exotic": _states_exotic,
        "singlet": _states_singlet,
        "circle": _states_circle,
    }
    require(experiment in runners,
            "experiment must be one of " + ", ".join(sorted(runners)))
    return runners[experiment](cfg)


def _parse_sectors(text: str, d: int) -> measure_mod.SectorStructure:
    if not text:
        return measure_mod.SectorStructure.singletons(d)
    sectors, charges = {}, {}
    for label, group in enumerate(text.split(";")):
        idx = tuple(int(tok) for tok in group.split(",") if tok.strip())
        require(idx, f"empty sector group in {text!r}")
        sectors[label] = idx
        charges[label] = float(label)
    return measure_mod.SectorStructure(sectors, charges)


def _run_measure(cfg: RunConfig):
    amps = np.array([float(tok) for tok in cfg.params["amps"].split(",")
                     if tok.strip()], dtype=complex)
    require(amps.size > 0, "need at least one branch amplitude")
    norm = np.linalg.norm(amps)
    require(0 < norm < math.inf,
            "branch amplitudes must be finite and not all zero")
    amps = amps / norm
    state = measure_mod.entangle(amps)
    rho = measure_mod.reduced_density(state, "apparatus")
    sectors = _parse_sectors(cfg.params["sectors"], rho.d)
    before = measure_mod.purity(rho)
    rho_dec = measure_mod.decohere(rho, sectors)
    after = measure_mod.purity(rho_dec)
    table = measure_mod.sample_outcomes(rho_dec, cfg.params["samples"],
                                        cfg.seed)
    rows = []
    for k in range(rho.d):
        rows.append((float(k), float(np.abs(amps[k]) ** 2 if k < amps.size
                                     else 0.0),
                     float(table.frequencies[k]),
                     float(table.standard_errors()[k]),
                     1.0 if bool(table.within_3_sigma()[k]) else 0.0))
    comments = [f"purity_before={before:.17g}",
                f"purity_after={after:.17g}"]
    return ("measurement branch weights against sampled outcome "
            "frequencies after decoherence",
            ("outcome", "probability", "frequency", "stderr",
             "within_3_sigma"), rows, comments)


def _run_toy(cfg: RunConfig):
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
        h = toy_mod.ToyUnitary.hadamard().entries
        one = np.abs(h @ np.array([1.0, 0.0])) ** 2
        other = np.abs(h @ np.array([0.0, 1.0])) ** 2
        verdict = toy_mod.markov_feasibility([
            toy_mod.Constraint((1.0, 0.0), tuple(one), 1),
            toy_mod.Constraint((0.0, 1.0), tuple(other), 1),
            toy_mod.Constraint((1.0, 0.0), (1.0, 0.0), 2),
            toy_mod.Constraint((0.0, 1.0), (0.0, 1.0), 2),
        ])
        comments.append(f"two_step_feasibility: {verdict.certificate}")
    return ("two-site unitary walk against the matched time-homogeneous "
            "stochastic competitor",
            ("step", "quantum_p0", "quantum_p1", "markov_p0", "markov_p1",
             "gap"), rows_out, comments)


_RUNNERS = {
    "fock": _run_fock,
    "sphere": _run_sphere,
    "spectrum": _run_spectrum,
    "chain": _run_chain,
    "charfn": _run_charfn,
    "states": _run_states,
    "measure": _run_measure,
    "toy": _run_toy,
}


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value):
    """JSON has no NaN or infinity: such a float is written as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _render(description, cfg: RunConfig, columns, rows, comments) -> str:
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
        "rows": [[_json_value(v) for v in row] for row in rows],
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
    p = cfg.params
    if cfg.subcommand == "fock":
        return 2 * 17 * (p["nmax"] + 1)   # a basis pair and its NaN masks
    if cfg.subcommand == "spectrum":
        return 512 * p["points"]   # one row of Python floats and its text
    if cfg.subcommand == "toy":
        return 1024 * p["steps"]   # one interference row and its text
    if cfg.subcommand == "chain":
        sizes = {"dispersion": 2 * 8 * p["sites"] ** 2,  # M, eigvalsh copy
                 # noise, q, p, their spectra and the mode energies
                 "equipartition": 12 * 8 * p["samples"] * p["sites"]}
        return sizes.get(p["experiment"], 0)
    if cfg.subcommand == "charfn":
        # the direct route's 61 × N phase block and its exponential, plus
        # the autocorrelation's 4N-point FFT buffers
        return 16 * (2 * 61 + 16) * p["points"]
    if cfg.subcommand == "sphere":
        return 12 * 8 * p["samples"]   # angles, radii, CDF, energies
    if cfg.subcommand == "measure":
        d = p["amps"].count(",") + 1   # d amplitudes make d×d matrices
        return 8 * 16 * d * d + 3 * 8 * p["samples"]
    return 0


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration and write its table."""
    need = _footprint(cfg)
    require(need <= _BUDGET_BYTES,
            f"{cfg.subcommand} would need about {need / 2 ** 20:.0f} MB of "
            f"arrays, above the {_BUDGET_BYTES // 2 ** 20} MB budget; lower "
            "its size flags")
    description, columns, rows, comments = _RUNNERS[cfg.subcommand](cfg)
    text = _render(description, cfg, columns, rows, comments)
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
    for name, table in _PARAMS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment table")
        for key, (kind, default, help_text) in table.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                           default=None, help=help_text)
        p.add_argument("--seed", type=int, default=None,
                       help=_COMMON["seed"][2])
        p.add_argument("--out", type=str, default=None,
                       help=_COMMON["out"][2])
        p.add_argument("--format", type=str, default=None,
                       choices=("csv", "json"), help=_COMMON["format"][2])
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
