"""End-to-end tests of the command-line tables: determinism,
configuration precedence, output formats, and exit codes.

Every invocation goes through ``main(argv)`` exactly as the installed
entry point would.
"""

import contextlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermofock
from thermofock import chain as chain_mod
from thermofock import charfn as charfn_mod
from thermofock import cli as cli_mod
from thermofock import fock as fock_mod
from thermofock import measurement as measure_mod
from thermofock import sphere as sphere_mod
from thermofock import toy as toy_mod
from thermofock.cli import main

WIEN_RATIO_AT_10 = "1.0000454019910097"
RAYLEIGH_RATIO_AT_001 = "0.99500833331944438"


def run_to_file(tmp_path, argv, name="out.csv"):
    target = tmp_path / name
    code = main(argv + ["--out", str(target)])
    assert code == 0
    return target.read_text(encoding="utf-8")


def parse_csv(text):
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    rows = [line.split(",") for line in data[1:]]
    return comments, header, rows


def child_env(**extra):
    """The environment of a child interpreter that sees only this
    checkout's package, with ``extra`` variables set."""
    src = str(Path(thermofock.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src, **extra)


def config_echo(text):
    for line in text.splitlines():
        if line.startswith("# config: "):
            return dict(pair.split("=", 1)
                        for pair in line[len("# config: "):].split(" "))
    raise AssertionError("no config echo line found")


class TestOutputShape:
    """Comment header, column row, atomic file writes."""

    def test_leading_comment_names_the_check(self, tmp_path):
        text = run_to_file(tmp_path, ["toy"])
        lines = text.splitlines()
        assert lines[0].startswith("# check: ")
        assert lines[1].startswith("# config: ")

    def test_no_temporary_files_left_behind(self, tmp_path):
        run_to_file(tmp_path, ["spectrum", "--points", "5"])
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_out_naming_a_directory_exits_2_without_leftovers(self,
                                                              tmp_path):
        target = tmp_path / "table"
        target.mkdir()
        assert main(["toy", "--out", str(target)]) == 2
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_stdout_when_no_out_given(self, capsys):
        code = main(["states", "--experiment", "circle"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# check: ")
        assert "delta_phi_rms" in captured

    def test_floats_carry_seventeen_significant_digits(self, tmp_path):
        text = run_to_file(tmp_path, ["spectrum", "--tmin", "0.01",
                                      "--tmax", "10.0"])
        assert WIEN_RATIO_AT_10 in text
        assert RAYLEIGH_RATIO_AT_001 in text


class TestDeterminism:
    """Same seed, same bytes."""

    def test_sampled_table_is_byte_identical(self, tmp_path):
        argv = ["measure", "--samples", "5000", "--seed", "4242"]
        first = run_to_file(tmp_path, argv, "a.csv")
        second = run_to_file(tmp_path, argv, "b.csv")
        assert first == second

    def test_json_output_is_byte_identical(self, tmp_path):
        argv = ["sphere", "--samples", "2000", "--seed", "7",
                "--format", "json"]
        first = run_to_file(tmp_path, argv, "a.json")
        second = run_to_file(tmp_path, argv, "b.json")
        assert first == second

    def test_fock_table_does_not_depend_on_the_blas_thread_count(self):
        tables = set()
        for threads in ("1", "2", "4"):
            done = subprocess.run(
                [sys.executable, "-m", "thermofock.cli", "fock",
                 "--seed", "12345"],
                env=child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, timeout=120, check=True)
            tables.add(done.stdout)
        assert len(tables) == 1

    def test_different_seeds_differ(self, tmp_path):
        base = ["measure", "--samples", "5000"]
        first = run_to_file(tmp_path, base + ["--seed", "1"], "a.csv")
        second = run_to_file(tmp_path, base + ["--seed", "2"], "b.csv")
        assert first != second


class TestConfigPrecedence:
    """Flags over file entries over defaults; seed environment fallback."""

    def test_file_value_overrides_the_default(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\n\ntmax = 5.0\n", encoding="utf-8")
        text = run_to_file(tmp_path, ["spectrum", "--config", str(config)])
        assert config_echo(text)["tmax"] == "5.0"

    def test_flag_overrides_the_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("tmax = 5.0\n", encoding="utf-8")
        text = run_to_file(tmp_path, ["spectrum", "--config", str(config),
                                      "--tmax", "7.0"])
        assert config_echo(text)["tmax"] == "7.0"

    def test_default_applies_when_nothing_overrides(self, tmp_path):
        text = run_to_file(tmp_path, ["spectrum"])
        assert config_echo(text)["tmax"] == "10.0"

    def test_environment_seed_replaces_the_builtin(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("THERMOFOCK_SEED", "999")
        text = run_to_file(tmp_path, ["toy"])
        assert config_echo(text)["seed"] == "999"

    def test_explicit_seed_beats_the_environment(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("THERMOFOCK_SEED", "999")
        text = run_to_file(tmp_path, ["toy", "--seed", "7"])
        assert config_echo(text)["seed"] == "7"

    def test_builtin_seed_when_nothing_set(self, tmp_path, monkeypatch):
        monkeypatch.delenv("THERMOFOCK_SEED", raising=False)
        text = run_to_file(tmp_path, ["toy"])
        assert config_echo(text)["seed"] == "12345"

    def test_file_seed_is_accepted(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 31\n", encoding="utf-8")
        text = run_to_file(tmp_path, ["toy", "--config", str(config)])
        assert config_echo(text)["seed"] == "31"


# Argv lists once probed one at a time; each runs as its own case and as an
# explicit example of the whole-range property below.
EXTREME_FLOAT_ARGV = [
    ["spectrum", "--tmax", "800"],
    ["chain", "--mass", "1e300"],
    ["chain", "--spacing", "1e300"],
    ["chain", "--spacing", "1e-300"],
    ["chain", "--experiment", "continuum", "--mass", "1e10"],
    ["charfn", "--span", "1e300"],
    ["chain", "--experiment", "equipartition", "--beta", "1e-300"],
    ["chain", "--experiment", "nonrel", "--mass", "1e300"],
    ["spectrum", "--tmin", "1e-320", "--tmax", "1", "--points", "3"],
    ["sphere", "--radius", "3.6e167"],
    ["sphere", "--radius", "1e154"],
    ["sphere", "--beta", "2.6e-299"],
    ["sphere", "--beta", "1e-308"],
    ["sphere", "--radius", "1e-170"],
    ["fock", "--hbar", "2e251", "--omega", "2e-48"],
    # geomspace's 10^log10(tmax) overflowed before it pinned the end
    ["spectrum", "--tmax", "1.7976931348623157e308", "--points", "2"],
]
# The fock family where hbar * u or omega * hbar passes the double range.
FOCK_OVERFLOW_ARGV = [
    ["fock", "--nmax", "3", "--hbar=1e308"],
    ["fock", "--nmax", "3", "--omega=1e308"],
    ["fock", "--nmax", "3", "--hbar=1e200", "--omega=1e200"],
    ["fock", "--nmax", "3", "--hbar=5.8e229", "--omega=5.2e219"],
]

# Log-uniform magnitude over the whole double range, either sign, and its
# edges: 0, the smallest subnormal and normal, and the largest double.
ANY_DOUBLE = st.builds(
    operator.mul, st.sampled_from([1.0, -1.0]),
    st.one_of(st.sampled_from([0.0, 5e-324, sys.float_info.min,
                               sys.float_info.max]),
              st.floats(-324.0, 308.25).map(lambda decade: 10.0 ** decade)))
# Size and choice flags stay small; the rest keep their defaults.
SMALL_FLAGS = {
    "nmax": st.integers(0, 3),
    "samples": st.sampled_from([2, 1000]),
    "points": st.integers(2, 64),
    "sites": st.integers(1, 8),
    "steps": st.integers(0, 5),
    "experiment": st.sampled_from(list(cli_mod._CHAIN)),
    "packet": st.sampled_from(["gaussian", "hermite1"]),
}
FLOAT_TABLES = [name for name, table in cli_mod._TABLES.items()
                if any(kind is float for kind, _, _ in table.params.values())]


@st.composite
def float_flag_argv(draw):
    """A subcommand with float flags: each float flag is left out or set
    to any double, each size flag is small, written ``--flag=value`` so a
    negative value is not read as a flag."""
    name = draw(st.sampled_from(FLOAT_TABLES))
    argv = [name]
    for key, (kind, _, _) in cli_mod._TABLES[name].params.items():
        strategy = (st.one_of(st.none(), ANY_DOUBLE) if kind is float
                    else SMALL_FLAGS.get(key, st.none()))
        value = draw(strategy)
        if value is not None:
            argv.append(f"--{key}={value!r}" if kind is float
                        else f"--{key}={value}")
    return argv


def with_examples(argvs):
    """Each argv list as an explicit hypothesis example."""
    def attach(test):
        for argv in argvs:
            test = example(argv=argv)(test)
        return test
    return attach


def assert_finite_cells_or_refusal(argv):
    """Exit 0 with every float cell finite, or exit 2 or 3 with no table
    and the refusal on stderr; an escaping exception (a leaked
    RuntimeWarning among them) fails.  The continuum table's first
    halving ratio is the one cell declared undefined."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        _, header, rows = parse_csv(out.getvalue())
        for i, row in enumerate(rows):
            for column, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:   # a label
                    continue
                if (i, column) != (0, "halving_ratio"):
                    assert math.isfinite(value), (argv, column, cell)
    else:
        assert code in (2, 3) and out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "numerical guard: "))


class TestExitCodes:
    """0 success, 2 configuration problems, 3 numerical guards."""

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("betta = 3.0\n", encoding="utf-8")
        assert main(["sphere", "--config", str(config)]) == 2
        assert "betta" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        for line in ("beta\n", "tmax =\n"):
            config.write_text(line, encoding="utf-8")
            assert main(["sphere", "--config", str(config)]) == 2
            assert "expected 'key = value'" in capsys.readouterr().err

    def test_unreadable_config_value(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("points = many\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(config)]) == 2

    def test_bad_environment_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THERMOFOCK_SEED", "not-a-number")
        assert main(["toy"]) == 2

    def test_unknown_experiment_name(self, capsys):
        assert main(["chain", "--experiment", "warp"]) == 2

    @pytest.mark.parametrize("subcommand, experiments", [
        ("chain", cli_mod._CHAIN), ("states", cli_mod._STATES)])
    def test_help_and_refusal_name_exactly_the_declared_experiments(
            self, subcommand, experiments, capsys):
        keys = list(experiments)
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = text.split("--experiment EXPERIMENT ")[1].split(" (default: ")
        assert listed[0].replace(" or ", ", ").split(", ") == keys
        assert listed[1].startswith(f"{keys[0]})")
        assert main([subcommand, "--experiment", "warp"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: experiment must be one of "
                       + ", ".join(sorted(keys)) + "\n")

    def test_bad_parameter_value(self, capsys):
        for argv, message in [
            (["spectrum", "--tmin", "5.0", "--tmax", "1.0"], "tmin < tmax"),
            (["fock", "--nmax", "-1"], "nmax must be nonnegative"),
            (["states", "--experiment", "uncertainty", "--nmax", "-1"],
             "nmax must be nonnegative"),
            (["charfn", "--points", "0"], "at least 2 grid points"),
            (["sphere", "--samples", "0"], "at least 1 sample"),
            (["sphere", "--samples", "-3"], "at least 1 sample"),
            # one sample has no standard error, zero samples no mean
            (["chain", "--experiment", "equipartition", "--samples", "1"],
             "at least 2 samples"),
            (["chain", "--experiment", "equipartition", "--samples", "0"],
             "at least 2 samples"),
            # beta * omega^2 overflows in gibbs_sample: the RuntimeWarning
            # it leaked is an error under the suite's warning filter
            (["chain", "--experiment", "equipartition", "--mass", "2.4e137",
              "--spacing", "4.5e-118", "--beta", "2.9e200"],
             "beta * omega^2 leaves the double range"),
            # the continuum table builds no ChainSpec; its law refuses m
            (["chain", "--experiment", "continuum", "--mass", "1e155"],
             "m^2 + 4 gamma/a^2 overflows"),
            (["measure", "--sectors", "0;;1"], "empty sector group"),
            (["measure", "--sectors", "0,5"],
             "sectors must partition 0..d-1 exactly once"),
            (["toy", "--matrix", "1,2,3"],
             "matrix must be 'hadamard' or four comma-separated numbers"),
            # refused before S^H S can overflow
            (["toy", "--matrix", "1e300,1e300,1e300,1e300"],
             "matrix is not unitary"),
            # one sample carries the packet; t = 6 is past Nyquist
            (["charfn", "--span", "1e30"], "do not resolve the unit-width"),
            (["charfn", "--span", "400"], "do not resolve the unit-width"),
            (["charfn", "--packet", "hermite1", "--span", "400"],
             "do not resolve the unit-width"),
        ]:
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err

    def test_numerical_guard_maps_to_exit_3(self, capsys):
        # A mass-1 packet fails the heavy-mass spectral-tail guard.
        assert main(["chain", "--experiment", "nonrel", "--mass", "1.0",
                     "--dt", "0.1", "--steps", "10"]) == 3
        assert "numerical guard" in capsys.readouterr().err

    @pytest.mark.parametrize("beta, cells", [("1.7e308", 3), ("4.5e307", 3),
                                             ("2e305", 1)])
    def test_subnormal_sphere_cells_trip_the_guard(self, beta, cells, capsys):
        # The stderr, and from 1/float_info.min on 1/β and the mean, is
        # below the smallest normal double; printed, such a cell has
        # fewer than 17 significant digits.
        assert main(["sphere", "--beta", beta]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"numerical guard: subnormal table cells is {cells},")

    def test_negative_coupling_eigenvalue_trips_the_guard(
            self, monkeypatch, capsys):
        shifted = chain_mod.ChainSpec.coupling_matrix
        monkeypatch.setattr(
            chain_mod.ChainSpec, "coupling_matrix",
            lambda spec: shifted(spec) - 1e-6 * np.eye(spec.n_sites))
        assert main(["chain", "--experiment", "dispersion", "--sites", "8",
                     "--mass", "0"]) == 3
        assert "negative coupling eigenvalue" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", EXTREME_FLOAT_ARGV, ids=" ".join)
    def test_extreme_float_flag_prints_finite_cells_or_refuses(self, argv):
        assert_finite_cells_or_refusal(argv)

    @with_examples(EXTREME_FLOAT_ARGV + FOCK_OVERFLOW_ARGV)
    @settings(max_examples=200)
    @given(argv=float_flag_argv())
    def test_any_float_flag_prints_finite_cells_or_refuses(self, argv):
        assert_finite_cells_or_refusal(argv)

    @pytest.mark.parametrize("argv", [
        ["chain", "--experiment", "continuum", "--sites", "1"],
        ["chain", "--experiment", "nonrel", "--mass", "100", "--gamma", "0"],
    ], ids=" ".join)
    def test_chain_tables_ignore_the_flags_they_do_not_read(self, argv,
                                                            capsys):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_missing_config_file(self, capsys):
        assert main(["toy", "--config", "/nonexistent/path.cfg"]) == 2

    def test_bad_format_flag(self, capsys):
        # The flag is checked where a --config entry is, not by argparse.
        assert main(["toy", "--format", "xml"]) == 2
        assert "format must be csv or json" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, sites, samples", [
        ("dispersion", 1_000_000, 20000),
        ("equipartition", 64, 1_000_000_000),
        ("equipartition", 30_000_000, 2),   # wide rows, few samples
    ])
    def test_oversized_chain_request_exits_before_allocating(
            self, experiment, sites, samples, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the chain table allocated its arrays")

        monkeypatch.setattr(chain_mod.ChainSpec, "coupling_matrix", refuse)
        monkeypatch.setattr(chain_mod, "gibbs_sample", refuse)
        monkeypatch.setattr(chain_mod, "normal_modes", refuse)
        assert_refused_by_the_budget(
            ["chain", "--experiment", experiment, "--sites", str(sites),
             "--samples", str(samples)], capsys)

    @pytest.mark.parametrize("argv, allocators", [
        (["spectrum", "--points", "1000000000"], [(np, "geomspace")]),
        (["toy", "--steps", "1000000000"], [(toy_mod, "interference_demo")]),
        (["charfn", "--points", "1000000000"],
         [(charfn_mod.GridWaveFunction, "sampled")]),
        (["sphere", "--samples", "10000000000"],
         [(sphere_mod, "pushforward_ks_statistic"),
          (sphere_mod, "mean_energy")]),
        (["measure", "--samples", "10000000000"],
         [(measure_mod, "entangle"), (measure_mod, "sample_outcomes")]),
        (["measure", "--amps", ",".join(["0.1"] * 5000)],
         [(measure_mod, "entangle"), (measure_mod, "sample_outcomes")]),
    ], ids=["spectrum-points", "toy-steps", "charfn-points",
            "sphere-samples", "measure-samples", "measure-amps"])
    def test_oversized_request_exits_before_allocating(
            self, argv, allocators, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the table allocated its arrays")

        for owner, name in allocators:
            monkeypatch.setattr(owner, name, refuse)
        assert_refused_by_the_budget(argv, capsys)

    @pytest.mark.parametrize("nmax", [13, 3_000_000, 1_000_000_000])
    def test_fock_nmax_above_12_exits_before_allocating(
            self, nmax, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the fock table built a basis state")

        monkeypatch.setattr(fock_mod.FockVector, "basis_state", refuse)
        assert main(["fock", "--nmax", str(nmax)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at most 12" in err


def assert_refused_by_the_budget(argv, capsys):
    """The estimated footprint of argv is above the budget, and main
    refuses it with exit code 2 at once."""
    args = vars(cli_mod._build_parser().parse_args(argv))
    args.pop("config")
    cfg = cli_mod.config_precedence(args.pop("subcommand"), args, {})
    assert cli_mod._footprint(cfg) > cli_mod._BUDGET_BYTES
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err


# Allocations of a table that do not grow with its size flags: parsing,
# the rendered text, the fixed grids of its oracles.
FIXED_ALLOWANCE = 1 << 20


def _amps(d):
    return ",".join(["0.1"] * d)


# Each size-flagged table at a small and a larger size.
SIZED_TABLES = {
    "fock 6": "fock --nmax 6",
    "fock 12": "fock --nmax 12",
    "sphere 20000": "sphere --samples 20000",
    "sphere 100000": "sphere --samples 100000",
    "spectrum 1000": "spectrum --points 1000",
    "spectrum 5000": "spectrum --points 5000",
    "toy 1000": "toy --steps 1000",
    "toy 5000": "toy --steps 5000",
    "dispersion 64": "chain --experiment dispersion --sites 64",
    "dispersion 512": "chain --experiment dispersion --sites 512",
    "equipartition 64x2000":
        "chain --experiment equipartition --sites 64 --samples 2000",
    "equipartition 256x2000":
        "chain --experiment equipartition --sites 256 --samples 2000",
    "equipartition 64x20000": "chain --experiment equipartition",
    # wider than a block (2**14 entries): one row per block, and a JSON
    # row per site
    "equipartition 2x20000 json": "chain --experiment equipartition "
                                  "--sites 20000 --samples 2 --format json",
    "charfn 1024": "charfn --points 1024",
    "charfn 8192": "charfn --points 8192",
    "measure d=100": f"measure --amps {_amps(100)}",
    "measure d=400": f"measure --amps {_amps(400)}",
}


class TestMemoryBudget:
    """The 1 GiB refusal rests on ``_footprint``: what a table allocates
    must stay within it."""

    @pytest.mark.parametrize("argv", SIZED_TABLES.values(),
                             ids=SIZED_TABLES.keys())
    def test_peak_allocation_stays_within_the_footprint(self, argv, capsys):
        argv = argv.split()
        args = vars(cli_mod._build_parser().parse_args(argv))
        args.pop("config")
        cfg = cli_mod.config_precedence(args.pop("subcommand"), args, {})
        assert main(argv) == 0   # a warm run: caches and imports are made
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= cli_mod._footprint(cfg) + FIXED_ALLOWANCE


class TestJsonMirror:
    """The JSON document carries the same table as the CSV."""

    def test_rows_match_across_formats(self, tmp_path):
        argv = ["spectrum", "--points", "7", "--seed", "3"]
        csv_text = run_to_file(tmp_path, argv + ["--format", "csv"], "t.csv")
        json_text = run_to_file(tmp_path, argv + ["--format", "json"],
                                "t.json")
        document = json.loads(json_text)
        assert set(document) == {"check", "config", "comments", "columns",
                                 "rows"}
        assert document["config"]["seed"] == 3
        assert document["config"]["points"] == 7
        _, header, rows = parse_csv(csv_text)
        assert header == document["columns"]
        assert len(rows) == len(document["rows"])
        for csv_row, json_row in zip(rows, document["rows"]):
            np.testing.assert_allclose([float(v) for v in csv_row],
                                       json_row, rtol=0.0, atol=0.0)

    def test_non_finite_cells_are_written_as_null(self, tmp_path):
        # The continuum table's first halving ratio is undefined; strict
        # JSON has no NaN token, so the cell must read null.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")
        text = run_to_file(tmp_path, ["chain", "--experiment", "continuum",
                                      "--format", "json"], "c.json")
        document = json.loads(text, parse_constant=reject)
        assert document["rows"][0][document["columns"].index(
            "halving_ratio")] is None


class TestTableContents:
    """Spot checks of the numbers the tables report."""

    def test_fock_orthonormality_defects(self, tmp_path):
        text = run_to_file(tmp_path, ["fock", "--nmax", "4"])
        _, header, rows = parse_csv(text)
        assert header == ["check", "a", "b", "defect"]
        ortho = [row for row in rows if row[0] == "orthonormality"]
        assert len(ortho) == 25
        assert all(float(row[3]) < 1e-9 for row in ortho)
        kernel = [row for row in rows if row[0] == "kernel"]
        assert len(kernel) == 25
        assert all(float(row[3]) < 1e-8 for row in kernel)
        commutator = [row for row in rows if row[0] == "commutator"]
        assert len(commutator) == 1
        assert float(commutator[0][3]) < 1e-12

    def test_fock_kernel_rows_only_at_unit_scale(self, tmp_path):
        text = run_to_file(tmp_path, ["fock", "--nmax", "4",
                                      "--hbar", "0.5"])
        _, _, rows = parse_csv(text)
        assert not any(row[0] == "kernel" for row in rows)

    def test_toy_two_step_gap(self, tmp_path):
        text = run_to_file(tmp_path, ["toy", "--steps", "2"])
        comments, header, rows = parse_csv(text)
        assert header[-1] == "gap"
        gaps = {float(row[0]): float(row[-1]) for row in rows}
        assert gaps[0.0] == 0.0
        assert gaps[1.0] < 1e-15
        np.testing.assert_allclose(gaps[2.0], 0.5, atol=1e-15)
        certificate = [c for c in comments
                       if "two_step_feasibility" in c]
        assert len(certificate) == 1
        assert "force both columns" in certificate[0]

    def test_toy_permutation_matrix_never_separates(self, tmp_path):
        # A permutation unitary is its own stochastic competitor.
        text = run_to_file(tmp_path, ["toy", "--matrix", "0,1,1,0",
                                      "--steps", "3"])
        _, _, rows = parse_csv(text)
        assert [float(row[0]) for row in rows] == [0.0, 1.0, 2.0, 3.0]
        assert all(float(row[-1]) == 0.0 for row in rows)

    def test_measure_with_explicit_sectors(self, tmp_path):
        text = run_to_file(tmp_path, ["measure", "--amps", "0.6,0.48,0.64",
                                      "--sectors", "0,1;2"])
        comments, _, rows = parse_csv(text)
        assert len(rows) == 3
        purity = dict(c[2:].split("=") for c in comments
                      if c.startswith("# purity_"))
        assert (float(purity["purity_after"])
                <= float(purity["purity_before"]))

    def test_measure_probabilities_and_purity(self, tmp_path):
        text = run_to_file(tmp_path, ["measure", "--amps", "0.6,0.8",
                                      "--samples", "20000"])
        comments, _, rows = parse_csv(text)
        probs = [float(row[1]) for row in rows]
        np.testing.assert_allclose(probs, [0.36, 0.64], atol=1e-15)
        assert all(float(row[4]) == 1.0 for row in rows)
        before = [float(c.split("=")[1]) for c in comments
                  if "purity_before" in c]
        after = [float(c.split("=")[1]) for c in comments
                 if "purity_after" in c]
        np.testing.assert_allclose(before, [0.36 ** 2 + 0.64 ** 2],
                                   atol=1e-12)
        assert after[0] <= before[0] + 1e-12

    @pytest.mark.parametrize("amps, probs", [
        ("1e200", [1.0]),
        ("1e308,-1e308", [0.5, 0.5]),
        ("3e-320,4e-320", [0.36, 0.64]),
    ])
    def test_measure_scales_extreme_amplitudes(self, tmp_path, amps, probs):
        text = run_to_file(tmp_path, ["measure", "--amps", amps,
                                      "--samples", "1000"])
        _, _, rows = parse_csv(text)
        np.testing.assert_allclose([float(row[1]) for row in rows], probs,
                                   rtol=1e-15)

    def test_chain_continuum_ratios(self, tmp_path):
        text = run_to_file(tmp_path, ["chain", "--experiment", "continuum",
                                      "--spacing", "0.4"])
        _, header, rows = parse_csv(text)
        assert header == ["a", "max_error", "halving_ratio"]
        ratios = [float(row[2]) for row in rows[1:]]
        assert all(3.6 < r < 4.4 for r in ratios)

    def test_massless_dispersion_is_finite(self, tmp_path):
        # The zero mode's dense eigenvalue rounds to about -1e-16.
        text = run_to_file(tmp_path, ["chain", "--experiment", "dispersion",
                                      "--sites", "8", "--mass", "0"])
        comments, header, rows = parse_csv(text)
        worst = float(comments[-1].rsplit(": ", 1)[1])
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert math.isfinite(worst) and worst < 1e-12
        k0 = [row for row in rows if float(row[header.index("k")]) == 0.0]
        assert float(k0[0][header.index("oracle_error")]) == 0.0

    def test_chain_equipartition_table(self, tmp_path):
        text = run_to_file(tmp_path, ["chain", "--experiment",
                                      "equipartition", "--sites", "8",
                                      "--samples", "20000"])
        _, header, rows = parse_csv(text)
        assert header == ["k", "omega", "mean_mode_energy", "expected",
                          "stderr"]
        assert len(rows) == 8
        for row in rows:
            mean, expected, stderr = (float(row[2]), float(row[3]),
                                      float(row[4]))
            assert abs(mean - expected) < 5.0 * stderr

    def test_charfn_route_difference(self, tmp_path):
        for packet in ("gaussian", "hermite1"):
            text = run_to_file(tmp_path, ["charfn", "--packet", packet])
            comments, _, rows = parse_csv(text)
            gap_comment = [c for c in comments
                           if "max route difference" in c]
            assert len(gap_comment) == 1
            assert float(gap_comment[0].split(":")[1]) < 1e-6
            assert all(float(row[5]) < 1e-6 for row in rows)

    def test_states_circle_widths(self, tmp_path):
        text = run_to_file(tmp_path, ["states", "--experiment", "circle"])
        _, _, rows = parse_csv(text)
        values = {row[0]: float(row[1]) for row in rows}
        assert values["delta_p"] == 0.0
        np.testing.assert_allclose(values["delta_phi_rms"],
                                   2.0 * math.pi / math.sqrt(12.0),
                                   atol=1e-12)

    def test_states_uncertainty_products(self, tmp_path):
        text = run_to_file(tmp_path, ["states", "--experiment",
                                      "uncertainty"])
        _, header, rows = parse_csv(text)
        assert header == ["n", "width_x", "width_k", "product"]
        assert len(rows) == 7
        for row in rows:
            assert abs(float(row[3]) - (float(row[0]) + 0.5)) <= 1e-9

    def test_states_exotic_number_statistics(self, tmp_path):
        text = run_to_file(tmp_path, ["states", "--experiment", "exotic"])
        _, _, rows = parse_csv(text)
        values = {row[0]: float(row[1]) for row in rows}
        assert values["number_mean"] == 1.0
        assert values["number_variance"] == 0.0
        assert values["overlap_with_two_particle"] == 0.0

    def test_chain_nonrel_heavy_mass_overlap(self, tmp_path):
        text = run_to_file(tmp_path, ["chain", "--experiment", "nonrel",
                                      "--mass", "100"])
        _, _, rows = parse_csv(text)
        values = {row[0]: float(row[1]) for row in rows}
        assert 1.0 - values["overlap"] <= 1e-3

    def test_states_singlet_masses(self, tmp_path):
        text = run_to_file(tmp_path, ["states", "--experiment", "singlet"])
        _, _, rows = parse_csv(text)
        values = {row[0]: float(row[1]) for row in rows}
        np.testing.assert_allclose(values["full_line_mass"], 1.0,
                                   atol=1e-10)
        np.testing.assert_allclose(values["first_orbital_region_mass"],
                                   0.5, atol=1e-10)
        assert values["closed_form_gap"] < 1e-10

    def test_fock_orthonormality_rows_do_not_depend_on_hbar(self, tmp_path):
        # Z_n(sqrt(hbar) z; hbar) = Z_n(z; 1): the oracle runs at unit scale
        def orthonormality(*flags):
            text = run_to_file(tmp_path, ["fock", "--nmax", "12", *flags])
            return [row for row in parse_csv(text)[2]
                    if row[0] == "orthonormality"]

        unit = orthonormality()
        assert len(unit) == 169
        for hbar in ("1e-300", "0.37", "1e300"):
            assert orthonormality("--hbar", hbar) == unit, hbar

    @pytest.mark.parametrize("beta", ["2.6e-299", "1e300"])
    def test_sphere_gap_in_sigmas_does_not_depend_on_beta(self, tmp_path,
                                                          beta):
        # The moments are taken on beta E, so neither the stderr underflows
        # nor the energy sums overflow near the ends of the double range.
        def values(argv):
            _, _, rows = parse_csv(run_to_file(tmp_path, argv))
            return {row[0]: float(row[1]) for row in rows}

        unit = values(["sphere"])
        scaled = values(["sphere", "--beta", beta])
        assert scaled["mean_energy_stderr"] > 0.0
        assert scaled["mean_energy_gap_sigmas"] == pytest.approx(
            unit["mean_energy_gap_sigmas"], rel=1e-12)

    def test_sphere_summary_table(self, tmp_path):
        text = run_to_file(tmp_path, ["sphere", "--samples", "20000",
                                      "--radius", "2.0"])
        _, _, rows = parse_csv(text)
        values = {row[0]: float(row[1]) for row in rows}
        np.testing.assert_allclose(values["sphere_area"], 16.0 * math.pi,
                                   atol=1e-10)
        assert values["ks_statistic"] < 0.02
        np.testing.assert_allclose(values["gibbs_quadrature_mass"], 1.0,
                                   atol=1e-8)
        assert values["mean_energy_gap_sigmas"] < 4.0


def _modules_after(script):
    """Sorted sys.modules names after running ``script`` in a fresh
    interpreter that sees only this checkout's package."""
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout)


# Each table and the thermofock modules besides cli and errors that it
# loads: chain imports charfn and fock, and states imports chain.
CHAIN_MODULES = {"charfn", "fock", "chain"}
STATES_MODULES = CHAIN_MODULES | {"states"}
FOOTPRINTS = [
    ("toy", {"toy"}),
    ("measure --samples 1000", {"measurement"}),
    ("sphere --samples 2000", {"sphere"}),
    ("spectrum", {"sphere"}),
    ("fock --nmax 4", {"charfn", "fock"}),
    ("charfn", {"charfn", "fock"}),
    ("chain --experiment dispersion --sites 8", CHAIN_MODULES),
    ("chain --experiment equipartition --sites 8 --samples 100",
     CHAIN_MODULES),
    ("chain --experiment continuum", CHAIN_MODULES),
    ("chain --experiment nonrel --mass 100", CHAIN_MODULES),
    ("states --experiment uncertainty --nmax 1", STATES_MODULES),
    ("states --experiment exotic", STATES_MODULES),
    ("states --experiment singlet", STATES_MODULES),
    ("states --experiment circle", STATES_MODULES),
]


class TestImportFootprint:
    """No table loads scipy: it is a test-only oracle.  Importing the
    package loads nothing else; importing a module, or running a table,
    loads only what it uses."""

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        loaded = _modules_after("import thermofock")
        assert [m for m in loaded if m.startswith("thermofock.")] == []
        assert "numpy" not in loaded

    def test_toy_loads_no_unrelated_module(self):
        loaded = _modules_after("import thermofock.toy")
        assert "thermofock.toy" in loaded
        for name in ("chain", "fock", "sphere"):
            assert f"thermofock.{name}" not in loaded

    @pytest.mark.parametrize("argv, modules", FOOTPRINTS,
                             ids=[argv for argv, _ in FOOTPRINTS])
    def test_table_loads_only_the_modules_it_runs(self, argv, modules):
        loaded = _modules_after(
            "import contextlib, io\n"
            "from thermofock.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv.split()!r})\n"
            "if code:\n"
            "    raise SystemExit(code)\n")
        assert {m.split(".", 1)[1] for m in loaded
                if m.startswith("thermofock.")} == {"cli", "errors"} | modules

    def test_no_scipy_after_import_or_default_tables(self):
        script = (
            "import contextlib, io, json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'scipy')\n"
            "import thermofock\n"
            "from thermofock.cli import main\n"
            "seen = [scipy_modules()]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['toy']), main(['fock', '--nmax', '4']),\n"
            "             main(['sphere', '--samples', '2000'])]\n"
            "seen.append(scipy_modules())\n"
            "print(json.dumps({'codes': codes, 'seen': seen}))\n")
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=120,
                              check=True)
        report = json.loads(done.stdout)
        assert report["codes"] == [0, 0, 0]
        assert report["seen"] == [[], []]
