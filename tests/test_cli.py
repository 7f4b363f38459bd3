"""End-to-end tests of the command-line tables: determinism,
configuration precedence, output formats, and exit codes.

Every invocation goes through ``main(argv)`` exactly as the installed
entry point would.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

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


class TestExitCodes:
    """0 success, 2 configuration problems, 3 numerical guards."""

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("betta = 3.0\n", encoding="utf-8")
        assert main(["sphere", "--config", str(config)]) == 2
        assert "betta" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("beta\n", encoding="utf-8")
        assert main(["sphere", "--config", str(config)]) == 2

    def test_unreadable_config_value(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("points = many\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(config)]) == 2

    def test_bad_environment_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THERMOFOCK_SEED", "not-a-number")
        assert main(["toy"]) == 2

    def test_unknown_experiment_name(self, capsys):
        assert main(["chain", "--experiment", "warp"]) == 2

    def test_bad_parameter_value(self, capsys):
        assert main(["spectrum", "--tmin", "5.0", "--tmax", "1.0"]) == 2

    def test_numerical_guard_maps_to_exit_3(self, capsys):
        # A mass-1 packet fails the heavy-mass spectral-tail guard.
        assert main(["chain", "--experiment", "nonrel", "--mass", "1.0",
                     "--dt", "0.1", "--steps", "10"]) == 3
        assert "numerical guard" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["toy", "--config", "/nonexistent/path.cfg"]) == 2

    @pytest.mark.parametrize("experiment, sites, samples", [
        ("dispersion", 1_000_000, 20000),
        ("equipartition", 64, 1_000_000_000),
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
        (["fock", "--nmax", "1000000000"],
         [(fock_mod.FockVector, "basis_state")]),
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
    ], ids=["fock-nmax", "spectrum-points", "toy-steps", "charfn-points",
            "sphere-samples", "measure-samples", "measure-amps"])
    def test_oversized_request_exits_before_allocating(
            self, argv, allocators, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the table allocated its arrays")

        for owner, name in allocators:
            monkeypatch.setattr(owner, name, refuse)
        assert_refused_by_the_budget(argv, capsys)


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

    def test_chain_continuum_ratios(self, tmp_path):
        text = run_to_file(tmp_path, ["chain", "--experiment", "continuum",
                                      "--spacing", "0.4"])
        _, header, rows = parse_csv(text)
        assert header == ["a", "max_error", "halving_ratio"]
        ratios = [float(row[2]) for row in rows[1:]]
        assert all(3.6 < r < 4.4 for r in ratios)

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

    def test_states_singlet_masses(self, tmp_path):
        text = run_to_file(tmp_path, ["states", "--experiment", "singlet"])
        _, _, rows = parse_csv(text)
        values = {row[0]: float(row[1]) for row in rows}
        np.testing.assert_allclose(values["full_line_mass"], 1.0,
                                   atol=1e-10)
        np.testing.assert_allclose(values["first_orbital_region_mass"],
                                   0.5, atol=1e-10)
        assert values["closed_form_gap"] < 1e-10

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


class TestImportFootprint:
    """scipy is loaded only by the sphere quadrature oracles."""

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
            "    codes = [main(['toy']), main(['fock', '--nmax', '4'])]\n"
            "seen.append(scipy_modules())\n"
            "print(json.dumps({'codes': codes, 'seen': seen}))\n")
        src = str(Path(thermofock.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        report = json.loads(done.stdout)
        assert report["codes"] == [0, 0]
        assert report["seen"] == [[], []]
