"""Module boundaries of the package: no module reaches into another's
private (single-underscore) names, by import or by attribute."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qic"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _qic_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "qic"


def private_reaches(tree: ast.Module) -> list[str]:
    """Private names this module imports from, or reads off, another qic module."""
    found, module_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _qic_module(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                # a module, class or function owned by another qic module
                module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qic":
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_reaches(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .statevector import _apply_matrix\n",
        "from qic.classifier import RegisterLayout, _check_input\n",
        "from . import statevector\nstatevector._apply_matrix(1, 2, 3, 4)\n",
        "import qic.encoding as enc\nenc._FLOOR\n",
    ],
)
def test_checker_flags_private_reach(source):
    assert private_reaches(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "from . import __version__\n",
        "from .statevector import BRANCH_FLOOR\n",
        "import numpy as np\nnp._NoValue\n",
        "def _local():\n    pass\n_local()\n",
    ],
)
def test_checker_allows_public_and_own_names(source):
    assert private_reaches(ast.parse(source)) == []
