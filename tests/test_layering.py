"""Static checks on the imports of ``src/rsekit``, read from the source.

Each module other than ``__init__`` uses every name it imports, and imports
only the package modules in layers below its own in ``LAYERS``, so no
module reaches up or sideways. The checks parse each module's AST and
import nothing from the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rsekit"
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
