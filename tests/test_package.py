"""Each module's ``__all__`` is the one declaration of its public API.

The package ``__init__`` re-exports nothing, so this is the check that
every public name is listed and that every listed name exists.  Three
more checks keep names from outliving their last caller: a private
helper must be named elsewhere in the package, and each public name and
each public method, property, classmethod or staticmethod of a class in
the package must be run by the package, a demo or the benchmark, not by
the tests alone.
"""

import ast
import importlib
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


def test_every_public_member_has_a_caller_outside_the_tests():
    """Each public method, property, classmethod or staticmethod (not
    ``_x``, not a dunder) of every class in the package, private classes
    included, is named in ``src/thermofock/``, ``demos/`` or
    ``perfbench/`` besides its own definition.  The check reads names
    only, so a member sharing its name with another reference (such as
    ``ndarray.mean``) passes it without a caller of its own."""
    members, own = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    members.append((cls.name, node.name))
                    own[node.name] += _references(node)[node.name]
    assert members, "no public class members found"
    referenced = _caller_references()
    uncalled = [f"{cls}.{name}" for cls, name in members
                if referenced[name] <= own[name]]
    assert uncalled == []
