"""Static checks on the imports and definitions of ``src/rsekit``, read
from the source.

Each module other than ``__init__`` uses every name it imports, and imports
only the package modules in layers below its own in ``LAYERS``, so no
module reaches up or sideways. ``cli`` and ``lab`` import no solver at
module level, so a command loads only the solvers it runs. Each name a
module defines for others to call is read somewhere in ``src``, ``tests``
or ``perfbench``, so no dead definition is left behind. The checks parse
the ASTs and import nothing from the package.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rsekit"
# Lowest layer first; the modules of one layer import none of each other.
LAYERS = (("errors",), ("lp", "game"), ("baseline",), ("exact",), ("approx",),
          ("lab",), ("learning",), ("cli",))
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _imports(name):
    """``(module, bound)`` for each name that module ``name`` imports:
    ``module`` is the package module it comes from, or None for one
    outside the package, and ``bound`` the name the import binds. Imports
    inside functions count too; ``from __future__`` binds nothing."""
    tree = ast.parse((SRC / f"{name}.py").read_text(), f"{name}.py")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(None, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                module = None
                if node.level:
                    module = node.module or a.name
                found.append((module, a.asname or a.name))
    return tree, found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree, found = _imports(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [bound for _, bound in found if bound not in used] == []


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_only_lower_layers(name):
    _, found = _imports(name)
    assert sorted({module for module, _ in found if module is not None
                   and RANK[module] >= RANK[name]}) == []


def _module_level_imports(name):
    """The package modules that module ``name`` imports when it is
    loaded, not inside its functions."""
    tree = ast.parse((SRC / f"{name}.py").read_text(), f"{name}.py")
    return sorted({node.module or a.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level
                   for a in node.names})


def test_cli_imports_only_errors_and_game_at_module_level():
    assert _module_level_imports("cli") == ["errors", "game"]


def test_lab_imports_nothing_above_game_at_module_level():
    assert [module for module in _module_level_imports("lab")
            if RANK[module] > RANK["game"]] == []


def _definitions(tree):
    """The names a module defines for code to read: its top-level
    functions, classes and upper-case constants, and each method of its
    classes, whose name does not start with ``__`` (Python itself reads
    a module's ``__getattr__`` and a class's ``__init__``)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__")):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, ast.FunctionDef)
                      and not f.name.startswith("__")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and t.id.isupper()]
    return names


@cache
def _read_names():
    """Every name ``src``, ``tests`` and ``perfbench`` read: as a ``Name``
    or an attribute that is not assigned to, or in an import."""
    names = set()
    for path in sorted(p for top in ("src", "tests", "perfbench")
                       for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(
                    node.ctx, ast.Store):
                names.add(getattr(node, "id", None) or node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                names.add(node.asname)
    return names


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_definition_is_read(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(), f"{name}.py")
    assert [d for d in _definitions(tree) if d not in _read_names()] == []
