"""Child process of the benchmark driver; prints one JSON object.

    python3 perfbench/worker.py describe
        versions, BLAS vendor and thread count
    python3 perfbench/worker.py pass WORKLOAD SEED [--trace|--memory|BUDGET]
        set-up (import plus a warm-up on the smallest inputs), then one
        timed pass of the `ladder` or `oracles` workload; given BUDGET
        seconds, more passes while one more of median length still ends
        within BUDGET of the process start
    python3 perfbench/worker.py cli [--memory] ARG...
        one table as ``thermofock.cli.main(argv)`` with span wrappers

--trace records spans; --memory records spans and their tracemalloc
peaks.  tracemalloc slows allocation-heavy loops several fold, so the
driver takes self times from --trace passes and only the allocation
peaks from a --memory pass.

Run with PYTHONPATH naming the checkout's ``src`` directory.
"""
import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

LAYERS = ("cli", "charfn", "chain", "fock", "sphere", "states",
          "measurement", "toy", "exterior")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _install_tracer(memory: bool):
    import importlib

    from thermofock.errors import NumericalGuardError

    from spans import Tracer
    tracer = Tracer(NumericalGuardError, memory=memory)
    modules = {layer: importlib.import_module(f"thermofock.{layer}")
               for layer in LAYERS}
    wrappers = tracer.install(modules)
    return tracer, wrappers


def _blas() -> dict:
    """OpenBLAS as loaded by numpy: configuration and thread count."""
    import ctypes

    info = {"vendor": None, "config": None, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    if not paths:
        return info
    lib = ctypes.CDLL(paths[0])
    info["vendor"] = paths[0].rsplit("/", 1)[-1]
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                info["threads"] = threads()
                info["config"] = config().decode()
                return info
    return info


def describe() -> dict:
    import platform

    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas()}


def run_pass(workload: str, seed: int, mode: str | None) -> dict:
    import numpy as np

    budget = 0.0
    if mode is not None and not mode.startswith("--"):
        budget, mode = float(mode), None
    trace = mode is not None
    tracer, wrappers = _install_tracer(mode == "--memory") if trace \
        else (None, 0)
    import workloads
    ops = workloads.WORKLOADS[workload]
    for op in workloads.warm_ops(ops):
        op.run(np.random.default_rng([seed, ops.index(op)]), op.warm_size)
    setup_s = time.perf_counter() - START

    records = []
    if trace:
        tracer.spans.clear()
    if mode == "--memory":
        tracemalloc.start()
    walls = []
    while not walls or time.perf_counter() - START \
            + sorted(walls)[(len(walls) - 1) // 2] <= budget:
        wall0 = time.perf_counter()
        for index, op in enumerate(ops):
            if trace:
                tracer.op = index
            t0, c0 = time.perf_counter(), _cpu_seconds()
            try:
                checks, error = op.run(np.random.default_rng([seed, index]),
                                       op.size), None
            except Exception as exc:  # an op that raises is a failed op
                checks, error = [], f"{type(exc).__name__}: {exc}"
            records.append({"layer": op.layer, "name": op.name,
                            "size": op.size, "round": len(walls),
                            "wall": time.perf_counter() - t0,
                            "cpu": _cpu_seconds() - c0, "error": error,
                            "checks": [[m, float(v), float(b)]
                                       for m, v, b in checks]})
        walls.append(time.perf_counter() - wall0)
    out = {"setup_s": setup_s, "pass_walls": walls, "ops": records}
    if trace:
        tracemalloc.stop()   # no-op when it was not started
        out.update(spans=[s.as_list() for s in tracer.spans],
                   escaped=tracer.escaped, wrappers=wrappers)
    return out


def run_cli(argv: list) -> dict:
    memory = argv[:1] == ["--memory"]
    argv = argv[1:] if memory else argv
    tracer, wrappers = _install_tracer(memory)
    from thermofock import cli
    if memory:
        tracemalloc.start()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported like an uncaught error of the CLI
            traceback.print_exc()
            rc = 1
    tracemalloc.stop()
    return {"rc": rc, "stdout": buffer.getvalue(),
            "spans": [s.as_list() for s in tracer.spans],
            "escaped": tracer.escaped, "wrappers": wrappers}


def main(argv) -> int:
    command = argv[0]
    if command == "describe":
        result = describe()
    elif command == "pass":
        result = run_pass(argv[1], int(argv[2]), (argv[3:] or [None])[0])
    elif command == "cli":
        result = run_cli(argv[1:])
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
