"""Module boundaries: no module of the package uses another's private
names; runtime guards are real exceptions, not asserts."""

import ast
import pathlib

import hybridrt

PACKAGE = pathlib.Path(hybridrt.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(path):
    """(module, name) of every private name the file imports from, or reads
    off, another module of the package."""
    tree = ast.parse(path.read_text())
    aliases = {}  # local name -> sibling module it is bound to
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("hybridrt")):
            module = (node.module or "").removeprefix("hybridrt").lstrip(".")
            for a in node.names:
                if not module:
                    aliases[a.asname or a.name] = a.name
                elif _private(a.name):
                    uses.add((module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            uses.add((aliases[node.value.id], node.attr))
    return uses


def test_no_module_uses_another_modules_private_names():
    found = {(path.stem, module, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for module, name in private_uses(path)
             if module != path.stem}
    assert found == set()


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a guard written as one vanishes.
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_calls_np_cross():
    # core.cross3 is bitwise equal to np.cross without its axis handling,
    # which costs more than the arithmetic on the renderer's small batches.
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "cross"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert found == []


def test_no_module_imports_scipy_spatial():
    # The bake's nearest-vertex reach is numpy; importing scipy.spatial
    # would cost a one-shot bake about half a second and 35 MB.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n.split(".")[:2] == ["scipy", "spatial"] for n in names):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []
