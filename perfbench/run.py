#!/usr/bin/env python3
"""thermofock benchmark driver.

    python3 perfbench/run.py --workload {tables,ladder,oracles} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is not installed, so every
child runs with PYTHONPATH=<checkout>/src.  The driver runs one child at
a time (closed loop, one client) and reads each child's CPU time and
peak RSS with os.wait4.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, cpu_s and
peak_rss_mb, each a median with its sample count and quartiles, plus
the op failure ratio.  --trace 1 alternates untraced and traced passes
and prints the per-layer metrics of the traced pass with the median
wall time; trace.overhead_s is the difference of the two medians.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A run record (machine, BLAS,
versions, source digest, seed and raw samples) is printed before it and
written to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import tables  # noqa: E402

WORKLOADS = ("tables", "ladder", "oracles")
LAYERS = ("cli", "charfn", "chain", "fock", "sphere", "states",
          "measurement", "toy", "exterior")
IMPORT_SAMPLES = 5      # fresh-interpreter imports timed for tables setup_s
IMPORTTIME_SAMPLES = 3  # `-X importtime` runs parsed for import.*
CHILDREN_PER_RUN = 3    # untraced `ladder`/`oracles` children, each set up
CHILD_TIMEOUT_S = 170.0
MIB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    maxrss_mb: float


def run_child(argv, root: str, env: dict) -> Child:
    """Run one child to completion; CPU time and peak RSS are this
    child's own, read with os.wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    try:
        reader = threading.Thread(target=lambda: err.append(
            proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return Child(proc.returncode, out, err[0] if err else b"", wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def worker(*args) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def slope(points) -> float | None:
    """Least-squares exponent b of time = a * size**b."""
    points = [(s, t) for s, t in points if s > 0 and t > 0]
    if len({s for s, _ in points}) < 2:
        return None
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)


def median_index(values) -> int:
    """Index of the lower median of values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


# ---------------------------------------------------------------------------
# Op accounting
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed ops, the checked margins, and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: list[str] = []
        self.margins: dict[str, float] = {}
        self.defects: list[str] = []   # failed probes, not counted above

    def record(self, label: str, reason: str | None, checks) -> None:
        self.attempted += 1
        for metric, value, _ in checks:
            if metric is not None and not metric.endswith("verdicts_ok"):
                old = self.margins.get(metric, -math.inf)
                # the worst value wins, and a NaN is the worst of all
                self.margins[metric] = old if math.isnan(old) \
                    or value <= old else value
        if reason is not None:
            self.failed += 1
            self.incorrect += reason.startswith("tolerance")
            if len(self.failures) < 50:
                self.failures.append(f"{label}: {reason}")


def judge_checks(checks, error):
    if error is not None:
        return f"error: {error}"
    missed = [c for c in checks if not (c[1] <= c[2])]
    return f"tolerance: {missed}" if missed else None


def verdicts_ok(checks) -> int:
    return sum(1 for metric, value, bound in checks
               if metric == "toy.verdicts_ok" and value <= bound)


# ---------------------------------------------------------------------------
# Import breakdown and source size, measured from outside
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text: str) -> dict:
    """Sum `-X importtime` self times (microseconds) by top package."""
    totals = {"total": 0, "scipy": 0, "numpy": 0, "thermofock": 0}
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        self_us, name = int(match.group(1)), match.group(4)
        totals["total"] += self_us
        top = name.split(".", 1)[0]
        if top in totals:
            totals[top] += self_us
    return {f"import.{key}_s": value * 1e-6 for key, value in totals.items()}


def import_breakdown(root: str, env: dict) -> dict:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        child = run_child([sys.executable, "-X", "importtime", "-c",
                           "import thermofock"], root, env)
        samples.append(parse_importtime(child.stderr.decode()))
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def source_lines(root: str) -> dict:
    out = {}
    for layer in LAYERS:
        with open(os.path.join(root, "src", "thermofock", f"{layer}.py"),
                  "rb") as handle:
            out[f"{layer}.src_lines"] = handle.read().count(b"\n")
    return out


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "thermofock")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            with open(os.path.join(base, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def commit_of(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class TracedPass:
    wall: float = 0.0
    spans: list = field(default_factory=list)   # one span list per process
    out_bytes: int = 0
    verdicts: int = 0
    escaped: list = field(default_factory=list)


@dataclass
class TraceRun:
    untraced: list = field(default_factory=list)   # untraced pass walls
    traced: list = field(default_factory=list)     # TracedPass, timing
    memory: TracedPass | None = None               # tracemalloc peaks only
    op_walls: dict = field(default_factory=dict)   # untraced, per op
    tables_changed: int = 0
    strict_json_failures: int | None = None        # probes; tables only


def _spans_of(doc) -> list:
    return [spans.Span.from_list(s) for s in doc["spans"]]


def table_op(op, seed, root, env, ledger, mode=None):
    """One CLI table: the CLI itself (mode None) or, with mode "trace"
    or "memory", cli.main under the span wrappers in a worker."""
    argv = tables.argv_for(op, seed)
    found, escaped = [], []
    if mode is None:
        child = run_child([sys.executable, "-m", "thermofock.cli", *argv],
                          root, env)
        rc, stdout = child.returncode, child.stdout
    else:
        child = run_child(worker("cli", *(["--memory"] if mode == "memory"
                                          else []), *argv), root, env)
        try:
            doc = json.loads(child.stdout)
            rc, stdout = doc["rc"], doc["stdout"].encode()
            found, escaped = _spans_of(doc), doc["escaped"]
        except (ValueError, KeyError):
            rc, stdout = child.returncode, b""
    reason, checks = judge_bytes(op, rc, stdout)
    ledger.record(op[0], reason, checks)
    return child, stdout, found, escaped, checks


def judge_bytes(op, returncode: int, stdout: bytes):
    try:
        return tables.judge(op, returncode, stdout.decode())
    except UnicodeDecodeError as exc:
        return f"format: {exc}", []


def run_probes(seed, root, env, ledger) -> tuple[int, int]:
    """Each known-defect probe once, untimed: how many fail their checks
    and how many differ from the reference bytes.  Failures go to
    ledger.defects, not to the failed ops."""
    failing = differs = 0
    for op in tables.PROBES:
        child = run_child([sys.executable, "-m", "thermofock.cli",
                           *tables.argv_for(op, seed)], root, env)
        reason, _ = judge_bytes(op, child.returncode, child.stdout)
        if reason is not None:
            failing += 1
            ledger.defects.append(f"{op[0]}: {reason}")
        differs += child.stdout != tables.read_reference(op)
    return failing, differs


def tables_pass(seed, root, env, ledger, mode=None):
    """Every table once; returns the pass and how many tables differ
    from the reference bytes."""
    result, differs = TracedPass(), 0
    for op in tables.OPS:
        child, stdout, found, escaped, checks = table_op(op, seed, root, env,
                                                         ledger, mode)
        result.wall += child.wall
        result.spans.append(found)
        result.out_bytes += len(stdout)
        result.verdicts += verdicts_ok(checks)
        result.escaped = escaped or result.escaped
        differs += stdout != tables.read_reference(op)
    return result, differs


def run_tables(root, env, seed, seconds, trace, ledger):
    run_child([sys.executable, "-c", "import thermofock"], root, env)
    setup = [run_child([sys.executable, "-c", "import thermofock"], root,
                       env).wall for _ in range(IMPORT_SAMPLES)]
    raw = {"setup_s": setup}
    start = time.perf_counter()
    if not trace:
        per_op = {op[0]: [] for op in tables.OPS}
        count = 0
        while count < len(tables.OPS) or \
                time.perf_counter() - start < seconds:
            op = tables.OPS[count % len(tables.OPS)]
            child = table_op(op, seed, root, env, ledger)[0]
            per_op[op[0]].append([child.wall, child.cpu, child.maxrss_mb])
            count += 1
        raw["ops"] = per_op
        return pass_estimate(setup, per_op), raw, None

    # Untraced passes run at the reference seed so that their bytes can
    # be compared with the reference tables.
    run, changed = TraceRun(), []
    while not run.traced or time.perf_counter() - start < seconds:
        untraced, differs = tables_pass(tables.REFERENCE_SEED, root, env,
                                        ledger)
        run.untraced.append(untraced.wall)
        changed.append(differs)
        run.traced.append(tables_pass(seed, root, env, ledger, "trace")[0])
    run.memory = tables_pass(seed, root, env, ledger, "memory")[0]
    run.tables_changed = max(changed)
    raw.update(untraced_pass_s=run.untraced,
               traced_pass_s=[p.wall for p in run.traced],
               tables_changed=changed)
    return None, raw, run


def pass_estimate(setup, per_op) -> dict:
    """A pass is every op once: its estimate sums per-op statistics.
    per_op maps an op to its samples [wall, cpu, peak RSS of the process
    that ran it]."""
    def summed(column):
        stats = [quartiles(row[column] for row in samples)
                 for samples in per_op.values()]
        return tuple(sum(s[i] for s in stats) for i in range(3))
    n = min(len(samples) for samples in per_op.values())
    rss = [quartiles(row[2] for row in samples) for samples in per_op.values()]
    return {
        "setup_s": (quartiles(setup), len(setup)),
        "wall_s": (summed(0), n),
        "cpu_s": (summed(1), n),
        "peak_rss_mb": (max(rss, key=lambda s: s[1]), n),
    }


def pass_child(workload, seed, root, env, ledger, mode=None):
    """`ladder` or `oracles` passes in a fresh worker process: one traced
    pass (mode "trace" or "memory"), one untraced pass (mode None) or
    untraced passes for a budget of mode seconds (a number)."""
    flag = [] if mode is None else [f"--{mode}"] if isinstance(mode, str) \
        else [f"{mode:.3f}"]
    child = run_child(worker("pass", workload, seed, *flag), root, env)
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        doc = None
    if doc is None or child.returncode != 0:
        reason = (f"worker exit {child.returncode}: "
                  f"{child.stderr.decode(errors='replace')[-300:]}")
        ledger.record(f"{workload} pass", reason, [])
        return child, None
    for rec in doc["ops"]:
        checks = [tuple(c) for c in rec["checks"]]
        ledger.record(f"{rec['name']}[{rec['size']}]",
                      judge_checks(checks, rec["error"]), checks)
    return child, doc


def traced_pass(doc) -> TracedPass:
    return TracedPass(doc["pass_walls"][0], [_spans_of(doc)], 0,
                      sum(verdicts_ok(r["checks"]) for r in doc["ops"]),
                      doc["escaped"])


def run_passes(workload, root, env, seed, seconds, trace, ledger):
    """`ladder` and `oracles`: fresh worker children, set-up in each.

    Untraced, each child runs passes for about a third of the run's
    seconds, and the pass estimate sums each op's median over every pass
    of every child.  Traced, each round is one untraced and one traced
    pass, each in its own child."""
    setup, per_op, run = [], {}, TraceRun()
    budget = 0.0 if trace else seconds / CHILDREN_PER_RUN
    start, took = time.perf_counter(), []
    # A child starts only if half of one more of median length still ends
    # within the run's seconds: a run ends within half a child of them.
    while not took or time.perf_counter() - start \
            + statistics.median(took) / 2 <= seconds:
        began = time.perf_counter()
        child, doc = pass_child(workload, seed, root, env, ledger,
                                budget or None)
        if doc is not None:
            setup.append(doc["setup_s"])
            run.untraced.extend(doc["pass_walls"])
            for rec in doc["ops"]:
                key = (rec["layer"], rec["name"], rec["size"])
                per_op.setdefault(key, []).append(
                    [rec["wall"], rec["cpu"], child.maxrss_mb])
                run.op_walls.setdefault(key, []).append(rec["wall"])
        if trace:
            doc = pass_child(workload, seed, root, env, ledger, "trace")[1]
            if doc is not None:
                run.traced.append(traced_pass(doc))
        took.append(time.perf_counter() - began)
    raw = {"setup_s": setup, "untraced_pass_s": run.untraced,
           "ops": {f"{k[0]}.{k[1]}[{k[2]}]": v for k, v in per_op.items()}}
    if trace:
        doc = pass_child(workload, seed, root, env, ledger, "memory")[1]
        run.memory = traced_pass(doc) if doc is not None else None
        raw["traced_pass_s"] = [p.wall for p in run.traced]
        return None, raw, run
    if not setup:
        return None, raw, None
    return pass_estimate(setup, per_op), raw, None


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# slope metric -> (layer, op names whose per-size times are summed)
SLOPES = {
    "charfn.slope": ("charfn", ("verify_theorem.gaussian",
                                "verify_theorem.hermite1")),
    "chain.gibbs_slope": ("chain", ("gibbs_sample",)),
    "chain.evolve_slope": ("chain", ("evolve",)),
    "states.slope": ("states", ("singlet_marginal",)),
    "measurement.slope": ("measurement", ("decohere",)),
}
MARGINS = ("charfn.route_gap", "chain.energy_drift", "fock.gram_defect",
           "fock.kernel_defect", "sphere.ks_statistic", "sphere.mass_defect",
           "states.singlet_gap", "measurement.trace_defect")
PEAK_LAYERS = ("charfn", "chain", "states", "measurement")


def layer_totals(traced: TracedPass):
    """Per-layer totals over the pass's processes, the summed duration of
    top-level spans, and the total duration per (layer, function)."""
    totals, top, by_name = {}, 0.0, {}
    for process in traced.spans:
        layers, process_top, names = spans.summarize(process)
        top += process_top
        for layer, t in layers.items():
            acc = totals.setdefault(layer, spans.LayerTotals())
            acc.calls += t.calls
            acc.self_s += t.self_s
            acc.peak_alloc = max(acc.peak_alloc, t.peak_alloc)
            acc.errors += t.errors
            acc.guard_trips += t.guard_trips
        for key, value in names.items():
            by_name[key] = by_name.get(key, 0.0) + value
    return totals, top, by_name


def per_layer(run: TraceRun, ledger, imports, lines):
    """Metrics of the traced pass with the median wall time; allocation
    peaks come from the separate tracemalloc pass."""
    if not run.traced:
        return {}, []
    chosen = run.traced[median_index([p.wall for p in run.traced])]
    totals, top, by_name = layer_totals(chosen)
    peaks = layer_totals(run.memory)[0] if run.memory else {}
    out, missing = dict(imports), []
    for layer in LAYERS:
        t = totals.get(layer, spans.LayerTotals())
        if layer not in totals:
            missing.append(f"{layer}.*")
        out.update({f"{layer}.calls": t.calls, f"{layer}.self_s": t.self_s,
                    f"{layer}.errors": t.errors,
                    f"{layer}.guard_trips": t.guard_trips,
                    f"{layer}.src_lines": lines[f"{layer}.src_lines"]})
        if layer in PEAK_LAYERS:
            peak = peaks.get(layer, spans.LayerTotals()).peak_alloc
            out[f"{layer}.peak_alloc_mb"] = peak / MIB
    out["chain.gibbs_s"] = by_name.get("chain.gibbs_sample", 0.0)
    out["chain.evolve_s"] = by_name.get("chain.evolve", 0.0)
    out["cli.out_bytes"] = chosen.out_bytes
    out["cli.tables_changed"] = run.tables_changed
    if run.strict_json_failures is None:
        missing.append("cli.strict_json_failures")
    out["cli.strict_json_failures"] = run.strict_json_failures or 0
    out["toy.verdicts_ok"] = chosen.verdicts
    for metric, (layer, names) in SLOPES.items():
        per_size = {}
        for (op_layer, name, size), walls in run.op_walls.items():
            if op_layer == layer and name in names:
                per_size[size] = per_size.get(size, 0.0) \
                    + statistics.median(walls)
        value = slope(per_size.items())
        if value is None:
            missing.append(metric)
        out[metric] = 0.0 if value is None else value
    for metric in MARGINS:
        if metric not in ledger.margins:
            missing.append(metric)
        out[metric] = ledger.margins.get(metric, 0.0)
    out["trace.overhead_s"] = statistics.median(p.wall for p in run.traced) \
        - statistics.median(run.untraced)
    out["driver.self_s"] = chosen.wall - top
    return out, missing


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def load_contract() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermofock", "cli.py")):
        print("perfbench: no src/thermofock in the current directory; run "
              "from the root of a thermofock checkout", file=sys.stderr)
        return 2
    # On SIGTERM unwind through run_child, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    contract = load_contract()
    env = child_env(root)
    trace = bool(args.trace)
    ledger = Ledger()
    described = run_child(worker("describe"), root, env)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit_of(root),
        "src_sha256": source_digest(root), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), **json.loads(described.stdout),
    }

    if args.workload == "tables":
        end_to_end, raw, traced = run_tables(root, env, args.seed,
                                             args.seconds, trace, ledger)
        # A traced run compares bytes at the reference seed, as its
        # untraced passes do.
        failing, differs = run_probes(
            tables.REFERENCE_SEED if trace else args.seed, root, env, ledger)
        if traced is not None:
            traced.tables_changed += differs
            traced.strict_json_failures = failing
    else:
        end_to_end, raw, traced = run_passes(args.workload, root, env,
                                             args.seed, args.seconds, trace,
                                             ledger)
    record["samples"] = raw

    lines = [f"thermofock benchmark: workload={args.workload} "
             f"seed={args.seed} trace={args.trace} nproc={record['nproc']} "
             f"blas_threads={record['blas']['threads']}"]
    metrics = {}
    if trace:
        names = contract["per_layer"]
        imports = import_breakdown(root, env)
        values, missing = per_layer(traced, ledger, imports,
                                    source_lines(root))
        record["not_exercised"] = missing
        record["escaped_bindings"] = traced.traced[0].escaped \
            if traced.traced else []
        for spec in names:
            if spec["name"] in values:
                metrics[spec["name"]] = {"value": values[spec["name"]],
                                         "unit": spec["unit"]}
                lines.append(f"  {spec['name']:28s} "
                             f"{values[spec['name']]:14.6g} {spec['unit']}")
        if missing:
            lines.append("  not exercised by this workload (reported as 0): "
                         + ", ".join(missing))
        lines.append("  untraced bindings (time counts as the caller's): "
                     + (", ".join(record["escaped_bindings"]) or "none"))
    elif end_to_end is not None:
        units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"]}
        lines.append(f"  {'metric':12s} {'median':>12s} {'unit':6s} "
                     f"{'n':>4s} {'q1':>12s} {'q3':>12s}")
        for name, ((q1, med, q3), n) in end_to_end.items():
            metrics[name] = {"value": med, "unit": units[name]}
            lines.append(f"  {name:12s} {med:12.6g} {units[name]:6s} {n:4d} "
                         f"{q1:12.6g} {q3:12.6g}")
    ratio = ledger.failed / max(ledger.attempted, 1)
    lines.append(f"  {'fail_ratio':12s} {ratio:12.6g} {'-':6s} "
                 f"attempted={ledger.attempted} failed={ledger.failed}")
    lines += [f"  failed op {f}" for f in ledger.failures]
    lines += [f"  known defect, probe not counted in failed: {d}"
              for d in ledger.defects]
    record["fail_ratio"] = ratio
    record["failures"] = ledger.failures
    record["known_defects"] = ledger.defects

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("\n".join(lines))
    print("run record: " + json.dumps(record))
    result = {"correct": ledger.incorrect == 0 and bool(metrics),
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
