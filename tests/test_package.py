"""Module boundaries: no module of the package uses another's private
names; runtime guards are real exceptions, not asserts; the package
needs numpy only."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_no_module_imports_scipy():
    # The package needs numpy only: the bake's reach and the density SDF's
    # distance transform are numpy, and importing scipy would cost a
    # one-shot bake or simulate about half a second and 20-35 MB.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_field_hit_world_loads_no_scipy(field_hit_dir):
    # A fresh interpreter, so that no module a test imported first can
    # hide an import that building a dynamic field's world makes.
    code = ("import sys\n"
            "from hybridrt import scene, sim\n"
            f"sim.build_world(scene.load_scene({str(field_hit_dir / 'field_hit.json')!r}))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_only_the_package_root_and_cli():
    # The package root re-exports nothing, so importing the CLI loads no
    # other module of the package until a command runs. A fresh
    # interpreter, so that no module a test imported first shows up.
    code = ("import sys\n"
            "import hybridrt.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hybridrt'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert out.stdout.strip() == "['hybridrt', 'hybridrt.cli']"
