"""The `tables` workload: every headline table as a cold CLI process.

The ops are the README "Command line" examples plus the remaining
experiments of `charfn` and `states`, and the nonrel table at the
default mass 1, which the CLI must refuse with exit code 3.  The JSON
form of the continuum table is a probe (see PROBES).

Each check returns (metric, value, bound) triples; the op is correct
when every value <= bound (a NaN value fails).  Tolerances are the ones
the repository advertises; sampled columns use bounds stated in
standard errors, which hold for any seed.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys

from formats import FormatError, parse_table

REFERENCE_SEED = 12345
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
SIGMAS = 6.0   # statistical bound for sampled columns, in standard errors


def _rows(table, check):
    return [row for row in table.rows if row["check"] == check]


def _max(values):
    # max() that lets a NaN through instead of dropping it
    out = -math.inf
    for v in values:
        if not (v <= out):
            out = v
    return out


def check_fock(t):
    ortho = _max(r["defect"] for r in _rows(t, "orthonormality"))
    return [("fock.gram_defect", ortho, 1e-9),
            (None, _max(r["defect"] for r in _rows(t, "commutator")), 1e-12),
            (None, _max(r["defect"] for r in _rows(t, "hamiltonian")), 1e-12),
            ("fock.kernel_defect",
             _max(r["defect"] for r in _rows(t, "kernel")), 1e-8),
            (None, abs(len(_rows(t, "orthonormality")) - 169), 0)]


def check_sphere(t):
    return [("sphere.ks_statistic", t.value("ks_statistic"), 0.01),
            ("sphere.mass_defect",
             abs(t.value("gibbs_quadrature_mass") - 1.0), 1e-8),
            (None, t.value("mean_energy_gap_sigmas"), SIGMAS),
            (None, abs(t.value("sphere_area") - 4.0 * math.pi), 1e-12)]


def check_spectrum(t):
    gaps = []
    for row in t.rows:
        x = row["x"]
        gaps.append(abs(row["u_over_wien"] * -math.expm1(-x) - 1.0))
        gaps.append(abs(row["u_over_rayleigh_jeans"] - x / math.expm1(x)))
    return [(None, _max(gaps), 1e-6), (None, abs(len(t.rows) - 25), 0)]


def check_dispersion(t):
    return [(None, _max(t.column("oracle_error")), 1e-10),
            (None, abs(len(t.rows) - 64), 0)]


def check_equipartition(t):
    sig = [abs(r["mean_mode_energy"] - r["expected"]) / r["stderr"]
           for r in t.rows]
    return [(None, _max(sig), SIGMAS),
            (None, _max(abs(r["expected"] - 0.5) for r in t.rows), 0.0)]


def check_continuum(t):
    ratios = t.column("halving_ratio")[1:]
    return [(None, _max(abs(r - 4.0) for r in ratios), 0.4),
            (None, abs(len(t.rows) - 5), 0)]


def check_nonrel(t):
    return [(None, 1.0 - t.value("overlap"), 1e-3)]


def check_charfn(t):
    at_zero = [r for r in t.rows if r["t"] == 0.0]
    norm = _max(abs(r["direct_re"] - 1.0) + abs(r["direct_im"])
                for r in at_zero) if at_zero else math.inf
    return [("charfn.route_gap", _max(t.column("gap")), 1e-6),
            (None, norm, 1e-9), (None, abs(len(t.rows) - 61), 0)]


def check_singlet(t):
    return [(None, abs(t.value("full_line_mass") - 1.0), 1e-10),
            (None, abs(t.value("first_orbital_region_mass") - 0.5), 1e-10),
            ("states.singlet_gap", t.value("closed_form_gap"), 1e-10)]


def check_measure(t):
    sig = [abs(r["frequency"] - r["probability"]) / r["stderr"]
           for r in t.rows]
    probs = [abs(r["probability"] - p) for r, p in zip(t.rows, (0.36, 0.64))]
    return [(None, _max(sig), SIGMAS), (None, _max(probs), 1e-12),
            (None, abs(len(t.rows) - 2), 0)]


def check_toy(t):
    verdict = [c for c in t.comments if c.startswith("two_step_feasibility")]
    forced = bool(verdict) and "infeasible" in verdict[0] \
        and "force both columns" in verdict[0]
    return [("toy.verdicts_ok", 0.0 if forced else 1.0, 0.0),
            (None, abs(t.rows[2]["gap"] - 0.5), 1e-15)]


def check_uncertainty(t):
    return [(None, _max(abs(r["product"] - (r["n"] + 0.5)) for r in t.rows),
             1e-9), (None, abs(len(t.rows) - 7), 0)]


def check_exotic(t):
    return [(None, abs(t.value("number_mean") - 1.0), 0.0),
            (None, t.value("number_variance"), 0.0),
            (None, abs(t.value("norm_squared") - 1.0), 1e-12),
            (None, abs(t.value("two_particle_number_mean") - 2.0), 0.0),
            (None, t.value("overlap_with_two_particle"), 0.0)]


def check_circle(t):
    return [(None, t.value("delta_p"), 0.0),
            (None, abs(t.value("delta_phi_rms") - math.pi / math.sqrt(3.0)),
             1e-12),
            (None, abs(t.value("delta_phi_support") - 2.0 * math.pi),
             1e-12)]


# (name, argv, expected exit code, format, check)
OPS = [
    ("fock", "fock --nmax 12", 0, "csv", check_fock),
    ("sphere", "sphere --beta 1.0", 0, "csv", check_sphere),
    ("spectrum", "spectrum --tmin 0.01 --tmax 10", 0, "csv", check_spectrum),
    ("chain-dispersion", "chain --experiment dispersion --sites 64", 0, "csv",
     check_dispersion),
    ("chain-equipartition", "chain --experiment equipartition --beta 2.0", 0,
     "csv", check_equipartition),
    ("chain-continuum", "chain --experiment continuum", 0, "csv",
     check_continuum),
    ("chain-nonrel-heavy", "chain --experiment nonrel --mass 100", 0, "csv",
     check_nonrel),
    ("charfn-hermite1", "charfn --packet hermite1", 0, "csv", check_charfn),
    ("states-singlet", "states --experiment singlet", 0, "csv",
     check_singlet),
    ("measure", "measure --amps 0.6,0.8 --samples 100000", 0, "csv",
     check_measure),
    ("toy", "toy --steps 2", 0, "csv", check_toy),
    ("charfn-gaussian", "charfn --packet gaussian", 0, "csv", check_charfn),
    ("states-uncertainty", "states --experiment uncertainty", 0, "csv",
     check_uncertainty),
    ("states-exotic", "states --experiment exotic", 0, "csv", check_exotic),
    ("states-circle", "states --experiment circle", 0, "csv", check_circle),
    ("chain-nonrel-refused", "chain --experiment nonrel", 3, None, None),
]

# Tables that fail their checks at the commit that added the benchmark.
# Each runs once per run, untimed and after the timed passes, under the
# same strict checks as OPS.  A failure is printed and counted in
# cli.strict_json_failures rather than among the workload's failed ops,
# so that the timed workload is one on which no op fails while the
# defect still shows in every run.  Today: the JSON continuum table
# writes a bare NaN, which a strict JSON parser rejects.
PROBES = [
    ("chain-continuum-json", "chain --experiment continuum --format json", 0,
     "json", check_continuum),
]


def argv_for(op, seed: int) -> list:
    return op[1].split() + ["--seed", str(seed)]


def judge(op, returncode: int, stdout: str):
    """Judge one op's result: (failure reason or None, checks).

    Checks are (metric, value, bound) triples; a returned reason that
    starts with "tolerance" means a checked quantity missed its bound.
    """
    _, _, expected, fmt, check = op
    if returncode != expected:
        return f"exit code {returncode}, expected {expected}", []
    if check is None:
        return (None if stdout == "" else "refusal wrote a table"), []
    try:
        checks = check(parse_table(stdout, fmt))
    except (FormatError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        return f"format: {type(exc).__name__}: {exc}", []
    missed = [(metric, value, bound) for metric, value, bound in checks
              if not (value <= bound)]
    if missed:
        return f"tolerance: {missed}", checks
    return None, checks


def reference_path(op) -> str:
    return os.path.join(REFERENCE_DIR, op[0] + ".out")


def read_reference(op) -> bytes | None:
    try:
        with open(reference_path(op), "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def write_references(root: str) -> None:
    """Write each op's stdout at the reference seed into reference/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for op in OPS + PROBES:
        proc = subprocess.run(
            [sys.executable, "-m", "thermofock.cli",
             *argv_for(op, REFERENCE_SEED)],
            cwd=root, env=env, capture_output=True, check=False)
        with open(reference_path(op), "wb") as handle:
            handle.write(proc.stdout)


if __name__ == "__main__":
    # Regenerate the reference tables from the checkout in the current
    # directory: python3 perfbench/tables.py
    write_references(os.getcwd())
