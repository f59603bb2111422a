"""Module boundaries of the package: no module reaches into another's
private (single-underscore) names, by import or by attribute, and every
public name has a caller outside the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qic"
MODULES = sorted(SRC.glob("*.py"))
# the benchmark harness, which calls the program from outside; its tests do not count
BENCH = sorted(p for p in (ROOT / "qicbench").glob("*.py") if not p.name.startswith("test_"))


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


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _mentioned(tree: ast.Module) -> set[str]:
    """Identifiers, attribute names and import aliases in this code."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
    return names


def _dotted_parts(tree: ast.Module) -> set[str]:
    """Parts of dotted strings such as 'encoding.Pipeline.fit_transform'."""
    return {
        part
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and DOTTED.fullmatch(node.value)
        for part in node.value.split(".")
    }


def _public_definitions(tree: ast.Module):
    """Public top-level functions and classes, and the public methods and
    properties of top-level classes, as qualified names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def unused_public_names(src: dict[str, str], bench: list[str]) -> list[str]:
    """Public definitions in the src modules (file name -> source) whose name
    nothing outside the tests mentions: no src module but __init__.py (which
    only re-exports), and no benchmark identifier or dotted string."""
    trees = {name: ast.parse(text) for name, text in src.items()}
    used = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            used |= _mentioned(tree)
    for text in bench:
        tree = ast.parse(text)
        used |= _mentioned(tree) | _dotted_parts(tree)
    return [
        f"{name[:-3]}.{qualified}"
        for name, tree in trees.items()
        for qualified in _public_definitions(tree)
        if qualified.split(".")[-1] not in used
    ]


def test_every_public_name_has_a_caller_outside_tests():
    src = {path.name: path.read_text() for path in MODULES}
    assert unused_public_names(src, [path.read_text() for path in BENCH]) == []


@pytest.mark.parametrize(
    "src, bench, unused",
    [
        ({"m.py": "def only_tested():\n    pass\n"}, [], ["m.only_tested"]),
        ({"m.py": "def traced():\n    pass\n"}, ['TRACED = {"m.traced": None}\n'], []),
        (
            {"m.py": "def exported():\n    pass\n", "__init__.py": "from .m import exported\n"},
            [],
            ["m.exported"],
        ),
        ({"m.py": "class Box:\n    def open(self):\n        pass\n\n\nBox().open()\n"}, [], []),
    ],
    ids=["test-only", "traced", "re-export", "own-module"],
)
def test_checker_flags_test_only_names(src, bench, unused):
    assert unused_public_names(src, bench) == unused
