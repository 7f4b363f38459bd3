"""Each module's ``__all__`` is the one declaration of its public API.

The package ``__init__`` re-exports nothing, so this is the check that
every public name is listed and that every listed name exists.  Three
more checks keep code from outliving its last caller.  Two read names:
a private function, class or constant must be named elsewhere in the
package, and each public name must be named by the package, a demo or
the benchmark, not by the tests alone.  The third runs the callers:
every function, method, dunder and lambda in the package must receive a
call, and every field of its dataclasses and namedtuples must be read,
when the benchmark's tables and warm-ups and the demos run.  Neither a
profiler nor a field log can see a constant or a class that is never
called, so the name checks stay for those.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thermofock"
# Where a public name finds its callers; tests/ is not among them.
CALLERS = (SRC, ROOT / "demos", ROOT / "perfbench")
MODULES = ("errors", "exterior", "charfn", "fock", "sphere", "chain",
           "states", "measurement", "toy", "cli")


def defined_public_names(module) -> set:
    """Classes, functions and upper-case constants the module's own
    top level defines (imported names excluded)."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets
                         if isinstance(t, ast.Name) and t.id.isupper())
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"thermofock.{name}")
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"thermofock.{name} has no __all__"
    assert len(set(exported)) == len(exported)
    assert set(exported) == defined_public_names(module)
    for entry in exported:
        assert hasattr(module, entry), f"thermofock.{name}.{entry}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _references(tree) -> Counter:
    """Names a syntax tree reads: loaded names, attributes, imports."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _registered(node) -> bool:
    """Whether a definition is passed to a private registering decorator
    such as ``@_table(...)``, which stores it: that is its reference."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and _is_private(d.func.id) for d in node.decorator_list)


def test_every_private_definition_has_a_reference():
    """Each private function, class or constant (``_x``, not a dunder)
    defined in the package is named somewhere in it besides its own
    definition, or registered by a private decorator; a helper that only
    calls itself counts as unreferenced."""
    defined, referenced = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced += _references(tree)
        scopes = [tree] + [node for node in ast.walk(tree)
                           if isinstance(node, ast.ClassDef)]
        for node in (n for scope in scopes for n in scope.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(path.name, t.id, 0) for t in targets
                            if isinstance(t, ast.Name) and _is_private(t.id)]
        defined += [(path.name, node.name, _references(node)[node.name])
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _is_private(node.name) and not _registered(node)]
    assert defined, "no private definitions found"
    unreferenced = [f"{module}: {name}" for module, name, own in defined
                    if referenced[name] <= own]
    assert unreferenced == []


def _caller_references() -> Counter:
    referenced = Counter()
    for path in sorted(p for d in CALLERS for p in d.glob("*.py")):
        referenced += _references(ast.parse(path.read_text(encoding="utf-8")))
    return referenced


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each ``__all__`` name is named in ``src/thermofock/``, ``demos/``
    or ``perfbench/`` besides its own definition, so the public API is
    exactly what something runs."""
    referenced = _caller_references()
    uncalled = []
    for name in MODULES:
        module = importlib.import_module(f"thermofock.{name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        own = {node.name: _references(node)[node.name] for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        uncalled += [f"{name}.{entry}" for entry in module.__all__
                     if referenced[entry] <= own.get(entry, 0)]
    assert uncalled == []


# The callers' run, in a fresh interpreter whose profiler is set before
# thermofock is imported, so that import-time calls count: every
# perfbench table op and probe through cli.main, one more table that
# reads --config, writes --out and takes its seed from THERMOFOCK_SEED,
# one warm-up of each ladder and oracles op, and every demo.  Each
# dataclass and namedtuple of the package logs the reads of its fields,
# except those from a method that ``dataclass`` generated (code file
# ``<string>``), from the ``dataclasses`` module (``replace`` reads every
# field) and from the class's own ``__post_init__``.  The run prints the
# exit codes that differ from the ops', the (file, first line) of each
# code object in the package that received a call, and the
# ``module:Class.field`` of each field that nothing read.
_CALLERS_RUN = r"""
import sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)

import contextlib
import dataclasses
import importlib
import io
import json
import os
import runpy
from pathlib import Path

from thermofock import cli

unread = set()


def log_reads(cls, fields):
    module = cls.__module__.rpartition(".")[2]
    labels = {name: f"{module}:{cls.__qualname__}.{name}" for name in fields}
    unread.update(labels.values())
    skip = {dataclasses.__file__, "<string>"}
    post_init = getattr(getattr(cls, "__post_init__", None), "__code__", None)
    read = cls.__getattribute__

    def __getattribute__(self, name):
        if name in labels:
            code = sys._getframe(1).f_code
            if code.co_filename not in skip and code is not post_init:
                unread.discard(labels[name])
        return read(self, name)

    cls.__getattribute__ = __getattribute__


for name in sys.argv[3:]:
    for cls in vars(importlib.import_module(f"thermofock.{name}")).values():
        if isinstance(cls, type) and cls.__module__ == f"thermofock.{name}":
            if dataclasses.is_dataclass(cls):
                log_reads(cls, {f.name for f in dataclasses.fields(cls)})
            elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                log_reads(cls, set(cls._fields))

root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import numpy as np
import tables
import workloads

config = tmp / "toy.cfg"
config.write_text("steps = 3\n", encoding="utf-8")
wrong = []
with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    for op in tables.OPS + tables.PROBES:
        code = cli.main(tables.argv_for(op, tables.REFERENCE_SEED))
        if code != op[2]:
            wrong.append([op[0], code])
    os.environ["THERMOFOCK_SEED"] = "7"
    try:
        code = cli.main(["toy", "--config", str(config),
                         "--out", str(tmp / "toy.csv")])
    finally:
        del os.environ["THERMOFOCK_SEED"]
    if code != 0:
        wrong.append(["toy --config --out", code])
    ops = workloads.LADDER + workloads.ORACLES
    for op in workloads.warm_ops(ops):
        op.run(np.random.default_rng([tables.REFERENCE_SEED, ops.index(op)]),
               op.warm_size)
    for demo in sorted((root / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
sys.setprofile(None)
package = os.path.dirname(cli.__file__)
print(json.dumps({"wrong": wrong, "unread": sorted(unread), "called": sorted(
    (os.path.basename(code.co_filename), code.co_firstlineno)
    for code in called if os.path.dirname(code.co_filename) == package)}))
"""


def _definitions(nodes, prefix=""):
    """(first line, qualified name) of each function, method and lambda
    among ``nodes``.  The first line is the code object's: a decorated
    definition starts at its first decorator."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = set(map(id, body))
            # decorators, bases and defaults run in the enclosing scope
            yield from _definitions([child for child in
                                     ast.iter_child_nodes(node)
                                     if id(child) not in inner], prefix)
            name = prefix + getattr(node, "name", "<lambda>")
            if isinstance(node, ast.ClassDef):
                yield from _definitions(body, name + ".")
                continue
            yield min(n.lineno for n in [node, *getattr(
                node, "decorator_list", ())]), name
            yield from _definitions(body, name + ".<locals>.")
        else:
            yield from _definitions(ast.iter_child_nodes(node), prefix)


def test_every_definition_runs_outside_the_tests(tmp_path):
    """Each function, method, dunder and lambda defined in the package
    receives a call, and each field of its dataclasses and namedtuples
    is read, in one run of the benchmark's tables and warm-ups and of
    the demos; unlike a check by name, a definition is not covered by
    another one of the same name."""
    env = {key: value for key, value in os.environ.items()
           if key != "THERMOFOCK_SEED"}
    env["PYTHONPATH"] = str(SRC.parent)
    done = subprocess.run(
        [sys.executable, "-c", _CALLERS_RUN, str(ROOT), str(tmp_path),
         *MODULES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["wrong"] == [], "exit codes differ from the ops'"
    called = {tuple(site) for site in result["called"]}
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uncalled += [f"{path.stem}:{name}"
                     for line, name in _definitions([tree])
                     if (path.name, line) not in called]
    assert not uncalled, "no call: " + ", ".join(uncalled)
    assert not result["unread"], "no read: " + ", ".join(result["unread"])
