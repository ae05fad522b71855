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


def _private_names(tree: ast.Module) -> set:
    """Private names a module binds at its top level: defs, classes and assignments."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def _reads(stem: str, tree: ast.Module) -> set:
    """(module, name) pairs that module ``stem`` reads.

    A name it reads bare is its own (or one it imported); ``from .m import
    name`` and ``m.name`` read module m's.
    """
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add((stem, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            read.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            read.update((node.module.split(".")[-1], alias.name) for alias in node.names)
    return read


def _unread(trees: dict) -> set:
    """(module, name) of each private top-level name that no module of ``trees`` reads."""
    read = set().union(*(_reads(stem, tree) for stem, tree in trees.items()))
    return {(stem, name) for stem, tree in trees.items() for name in _private_names(tree)} - read


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


def test_every_private_name_is_read_by_some_module():
    assert _unread({path.stem: ast.parse(path.read_text(), filename=str(path))
                    for path in MODULES}) == set()


def test_an_unread_private_name_is_seen():
    tree = ast.parse("_A = 1\n_B, C = 2, _A\n_T: int = 0\n__all__ = []\n"
                     "def _f(): return _g\ndef _g(): pass\nclass _K: pass\n")
    assert _unread({"m": tree}) == {("m", "_B"), ("m", "_T"), ("m", "_f"), ("m", "_K")}
    # another module reads _f by importing it and _K as an attribute; its own
    # _B, read there, is not m's
    other = ast.parse("from .m import _f\nfrom . import m\n_B = m._K\n_B\n")
    assert _unread({"m": tree, "n": other}) == {("m", "_B"), ("m", "_T")}
