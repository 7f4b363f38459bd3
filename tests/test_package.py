"""Each module's ``__all__`` is the one declaration of its public API.

The package ``__init__`` re-exports nothing, so this is the check that
every public name is listed and that every listed name exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
