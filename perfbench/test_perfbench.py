"""Tests of the benchmark's own logic (not of thermofock, and untimed).

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""
import math
import os
import sys
import tracemalloc
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import formats  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tables  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Each read advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Guard(Exception):
    pass


def _module(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_self_time_over_nested_spans():
    tracer = spans.Tracer(clock=FakeClock())

    def leaf():
        return 1

    def middle():
        return tracer.span("b", "leaf", leaf) + tracer.span("b", "leaf", leaf)

    def outer():
        return tracer.span("b", "middle", middle) + tracer.span("a", "x", leaf)

    assert tracer.span("a", "outer", outer) == 3
    layers, top, by_name = spans.summarize(tracer.spans)
    durations = {s.name: s.end - s.start for s in tracer.spans}
    # Every clock read is one unit: a leaf lasts 1, middle wraps two
    # leaves and their bookkeeping reads, outer wraps everything.
    assert durations["leaf"] == 1.0
    assert durations["middle"] == 5.0
    assert durations["outer"] == 9.0
    assert top == 9.0
    assert layers["b"].calls == 3
    assert layers["b"].self_s == (5.0 - 2.0) + 2.0
    assert layers["a"].self_s == (9.0 - 5.0 - 1.0) + 1.0
    # self times of all layers add up to the top-level duration
    assert sum(t.self_s for t in layers.values()) == top
    assert by_name["b.leaf"] == 2.0


def test_layer_self_times_and_driver_time_add_up_to_the_pass():
    tracer = spans.Tracer(clock=FakeClock())
    tracer.span("cli", "main", lambda: tracer.span("chain", "evolve", int))
    tracer.span("fock", "raised", int)
    traced = run.TracedPass(wall=10.0, spans=[tracer.spans, []])
    trace_run = run.TraceRun(untraced=[8.0], traced=[traced])
    lines = {f"{layer}.src_lines": 1 for layer in run.LAYERS}
    out, missing = run.per_layer(trace_run, run.Ledger(), {}, lines)
    layer_self = sum(out[f"{layer}.self_s"] for layer in run.LAYERS)
    assert (out["cli.calls"], out["chain.evolve_s"]) == (1, 1.0)
    assert out["driver.self_s"] == 10.0 - 4.0
    assert layer_self + out["driver.self_s"] == traced.wall
    assert out["trace.overhead_s"] == 2.0
    assert "charfn.slope" in missing


def test_peak_alloc_of_a_span_covers_its_children():
    tracer = spans.Tracer(memory=True)

    def outer():
        data = tracer.span("b", "inner", bytearray, 8 << 20)
        del data
        return len(bytearray(1 << 20))

    tracemalloc.start()
    try:
        tracer.span("a", "outer", outer)
    finally:
        tracemalloc.stop()
    layers, _, _ = spans.summarize(tracer.spans)
    assert layers["b"].peak_alloc >= 8 << 20
    assert layers["a"].peak_alloc >= layers["b"].peak_alloc


def test_error_counted_once_at_raising_span():
    tracer = spans.Tracer(guard_error=Guard, clock=FakeClock())

    def fail():
        raise Guard("tripped")

    def outer():
        return tracer.span("b", "fail", fail)

    with pytest.raises(Guard):
        tracer.span("a", "outer", outer)
    layers, _, _ = spans.summarize(tracer.spans)
    assert (layers["b"].errors, layers["b"].guard_trips) == (1, 1)
    assert (layers["a"].errors, layers["a"].guard_trips) == (0, 0)


def test_install_wraps_by_setattr_and_reports_escaped_bindings():
    lib = _module("fake.lib", """
def helper(x):
    return x + 1

def public(x):
    return helper(x) * 2

class Thing:
    def method(self):
        return helper(1)

    @classmethod
    def make(cls):
        return cls()
""")
    user = _module("fake.user", "")
    user.helper = lib.helper          # as `from .lib import helper` binds it
    user.call = lambda: user.helper(0)
    thing_class = lib.Thing
    tracer = spans.Tracer(clock=FakeClock())
    tracer.install({"lib": lib, "user": user})
    assert lib.Thing is thing_class
    assert lib.public(1) == 4
    assert lib.Thing.make().method() == 2
    names = [s.name for s in tracer.spans]
    assert names == ["public", "helper", "Thing.make", "Thing.method",
                     "helper"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert user.call() == 1           # the escaped binding is not traced
    assert len(tracer.spans) == 5
    assert tracer.escaped == ["user.helper -> lib.helper"]


def test_strict_json_rejects_nan_and_infinity():
    good = ('{"check": "c", "config": {}, "comments": [], '
            '"columns": ["a", "b"], "rows": [[1, 2.5]]}')
    assert formats.parse_json_table(good).rows == ({"a": 1, "b": 2.5},)
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(formats.FormatError):
            formats.parse_json_table(good.replace("2.5", token))
    with pytest.raises(formats.FormatError):
        formats.parse_json_table(good.replace('"rows"', '"row"'))


def test_csv_cells_must_parse():
    text = "# check: c\n# config: x\nquantity,value\nmass,1.5\nratio,nan\n"
    table = formats.parse_csv_table(text)
    assert table.value("mass") == 1.5 and math.isnan(table.value("ratio"))
    assert table.comments == ("check: c", "config: x")
    for bad in ("mass,1.5.2\n", "mass,\n", "mass,1,2\n", "mass,0x10\n"):
        with pytest.raises(formats.FormatError):
            formats.parse_csv_table("quantity,value\n" + bad)


def _op(name):
    return next(op for op in tables.OPS + tables.PROBES if op[0] == name)


def test_refusal_op_fails_on_exit_zero():
    refused = _op("chain-nonrel-refused")
    assert tables.judge(refused, 3, "")[0] is None
    assert tables.judge(refused, 0, "quantity,value\n")[0] is not None
    assert tables.judge(refused, 2, "")[0] is not None


def test_bare_nan_in_json_table_is_a_failed_op():
    with open(tables.reference_path(_op("chain-continuum")),
              encoding="utf-8") as handle:
        csv_text = handle.read()
    assert tables.judge(_op("chain-continuum"), 0, csv_text)[0] is None
    doc = ('{"check": "c", "config": {}, "comments": [], '
           '"columns": ["a", "max_error", "halving_ratio"], '
           '"rows": [[1, 0.03, NaN], [0.5, 0.0075, 4.0]]}')
    reason, _ = tables.judge(_op("chain-continuum-json"), 0, doc)
    assert reason.startswith("format")


def test_failed_probe_is_a_defect_not_a_failed_op(monkeypatch):
    doc = ('{"check": "c", "config": {}, "comments": [], '
           '"columns": ["a", "max_error", "halving_ratio"], '
           '"rows": [[1, 0.03, NaN], [0.5, 0.0075, 4.0]]}').encode()
    monkeypatch.setattr(run, "run_child", lambda *a: run.Child(
        0, doc, b"", 1.0, 1.0, 50.0))
    ledger = run.Ledger()
    failing, differs = run.run_probes(1, ".", {}, ledger)
    assert (failing, differs) == (len(tables.PROBES), len(tables.PROBES))
    assert (ledger.attempted, ledger.failed) == (0, 0)
    assert ledger.defects[0].startswith("chain-continuum-json: format")
    assert not any(op[0] == "chain-continuum-json" for op in tables.OPS)


def test_missed_tolerance_is_reported_as_incorrect():
    text = ("quantity,value\nfull_line_mass,1\n"
            "first_orbital_region_mass,0.5001\nclosed_form_gap,0\n")
    reason, checks = tables.judge(_op("states-singlet"), 0, text)
    assert reason.startswith("tolerance")
    ledger = run.Ledger()
    ledger.record("states-singlet", reason, checks)
    ledger.record("fock", None, [("fock.gram_defect", 1e-13, 1e-9)])
    ledger.record("json", "format: NaN", [])
    assert (ledger.attempted, ledger.failed, ledger.incorrect) == (3, 2, 1)
    assert ledger.margins == {"states.singlet_gap": 0.0,
                              "fock.gram_defect": 1e-13}


def test_margins_keep_nan():
    ledger = run.Ledger()
    ledger.record("a", None, [("charfn.route_gap", 1e-12, 1e-6)])
    ledger.record("b", "tolerance", [("charfn.route_gap", math.nan, 1e-6)])
    ledger.record("c", None, [("charfn.route_gap", 1e-9, 1e-6)])
    assert math.isnan(ledger.margins["charfn.route_gap"])
    assert run.judge_checks([("m", math.nan, 1.0)], None) is not None
    assert run.judge_checks([], "ValueError: x").startswith("error")


def test_seed_reaches_every_op():
    for op in tables.OPS:
        argv = tables.argv_for(op, 77)
        assert argv[-2:] == ["--seed", "77"]
    first = workloads._packet(np.random.default_rng([5, 0]), 64, "gaussian")
    again = workloads._packet(np.random.default_rng([5, 0]), 64, "gaussian")
    other = workloads._packet(np.random.default_rng([6, 0]), 64, "gaussian")
    assert np.array_equal(first.values, again.values)
    assert not np.array_equal(first.values, other.values)


def test_parse_importtime_sums_self_times_by_package():
    text = """import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:      2000 |       2000 |     numpy.core
import time:       500 |       2500 |   numpy
import time:      3000 |       3000 |     scipy.stats
import time:        40 |       5540 | thermofock
"""
    got = run.parse_importtime(text)
    assert got == pytest.approx({"import.total_s": 5640e-6,
                                 "import.numpy_s": 2500e-6,
                                 "import.scipy_s": 3000e-6,
                                 "import.thermofock_s": 40e-6})


def test_statistics_helpers():
    assert run.slope([(10, 3.0 * 10 ** 2), (20, 3.0 * 20 ** 2),
                      (40, 3.0 * 40 ** 2)]) == pytest.approx(2.0)
    assert run.slope([(10, 1.0)]) is None
    assert run.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
    assert run.median_index([5.0, 1.0, 3.0, 2.0]) == 3


def test_pass_estimate_sums_per_op_medians():
    per_op = {"a": [[1.0, 0.5, 10.0], [3.0, 0.7, 12.0], [2.0, 0.6, 11.0]],
              "b": [[10.0, 9.0, 100.0]]}
    metrics = run.pass_estimate([0.9, 1.1, 1.0], per_op)
    assert metrics["wall_s"][0][1] == 12.0
    assert metrics["cpu_s"][0][1] == pytest.approx(9.6)
    assert metrics["peak_rss_mb"][0][1] == 100.0
    assert metrics["setup_s"] == ((0.9, 1.0, 1.1), 3)
    assert metrics["wall_s"][1] == 1


def test_driver_refuses_a_directory_without_the_package(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tables", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
