import ast
from pathlib import Path

import pytest

import goodfun

MODULES = sorted(Path(goodfun.__file__).parent.glob("*.py"))

# (module, name) pairs imported on purpose without a use: the benchmark
# tracer wraps zeros.eval_H by name, and its install check fails without it
KEPT = {("zeros", "eval_H")}


def _unused_imports(tree: ast.Module) -> set:
    """Names an import binds that the module never reads, nor lists in __all__."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:  # computed, as __init__'s over dir(): every public name
                used.update(name for name in bound if not name.startswith("_"))
    return bound - used


def test_the_package_has_modules():
    assert {"good", "anger", "zeros", "__init__"} <= {m.stem for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused - {name for module, name in KEPT if module == path.stem} == set()


def test_a_dead_import_is_seen():
    tree = ast.parse("import numpy as np\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert _unused_imports(tree) == {"np", "pi"}
    tree = ast.parse("from math import pi, tau as _tau\n__all__ = [n for n in dir()]\n")
    assert _unused_imports(tree) == {"_tau"}
