"""Every module's ``__all__`` names exactly what it defines publicly, and
every public name that the benchmark wraps exists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mspde
from mspde.solver import SlabSolution

MODULES = sorted(info.name for info in pkgutil.iter_modules(mspde.__path__, "mspde."))
REPEAT = Path(__file__).resolve().parents[1] / "perfbench" / "repeat.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(name)
    exported = set(module.__all__)
    assert sorted(n for n in exported if not hasattr(module, n)) == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name}
    assert sorted(defined - exported) == []


def benchmark_hooks() -> dict[str, list]:
    """``SET_UP`` and ``LAYERS`` of the benchmark's repeat script, read from
    its source: importing it would pin the BLAS threads of this process."""
    hooks = {}
    for node in ast.parse(REPEAT.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SET_UP", "LAYERS"):
                hooks[name] = ast.literal_eval(node.value)
    return hooks


def test_benchmark_wraps_existing_names():
    # The benchmark wraps these (module, class or None, attribute, span)
    # targets and reports a missing one, and it reads a slab solve's Newton
    # iterations from index 2 of the returned SlabSolution.
    hooks = benchmark_hooks()
    assert sorted(hooks) == ["LAYERS", "SET_UP"]
    missing = []
    for module_name, class_name, attr, span in hooks["SET_UP"] + hooks["LAYERS"]:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if getattr(owner, attr, None) is None:
            missing.append(span)
    assert missing == []
    assert SlabSolution._fields[2] == "iterations"
