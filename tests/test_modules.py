"""Module boundaries of the package: no module reaches into another's
private (single-underscore) names, by import or by attribute, every public
name has a caller outside the tests, and so does every defaulted parameter
of a public function or method, no two modules import each other, even
through others, the package root imports no module, importing qic.cli
binds every module the benchmark reads off the package, and every memo is a
functools cache, bounded by CACHE_SIZE when it takes a key."""

import ast
import math
import os
import re
import subprocess
import sys
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
        "from qic.classifier import PreparedState, _check_input\n",
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
    nothing outside the tests mentions: no src module but __init__.py (where
    a re-export would be no caller), and no benchmark identifier or dotted
    string."""
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


def _defaults(qualified: str, called: str, args: ast.arguments, skip: int):
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[skip:], start=skip):
        if i >= first:
            yield qualified, called, i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield qualified, called, None, arg.arg


def _defaulted_parameters(tree: ast.Module):
    """Each defaulted parameter of a public top-level function, or of a public
    method or __init__ of a top-level class, as (qualified name, the name a
    call uses, its position among a call's arguments or None if keyword-only,
    parameter). A method's self is no position; an __init__ is called by its
    class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaults(node.name, node.name, node.args, 0)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not item.name.startswith("_")
                ):
                    called = node.name if item.name == "__init__" else item.name
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from _defaults(f"{node.name}.{item.name}", called, item.args,
                                         0 if static else 1)


def _passed(trees) -> dict[str, tuple[float, set]]:
    """Per called name (a bare name or an attribute): the most positional
    arguments a call passes, and the keywords calls pass. A *args passes
    every position and a **kwargs every keyword (None)."""
    passed: dict[str, tuple[float, set]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, (ast.Name, ast.Attribute)):
                continue
            name = func.id if isinstance(func, ast.Name) else func.attr
            count = math.inf if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            most, keywords = passed.get(name, (0, set()))
            passed[name] = (max(most, count), keywords | {kw.arg for kw in node.keywords})
    return passed


def unpassed_parameters(src: dict[str, str], bench: list[str]) -> list[str]:
    """Defaulted parameters of the public src functions and methods (file name
    -> source) that no call in src or the benchmark passes, by keyword or by
    position. Calls are matched by name alone, so a same-named call of
    anything else counts as a caller."""
    trees = {name: ast.parse(text) for name, text in src.items()}
    passed = _passed([*trees.values(), *map(ast.parse, bench)])
    found = []
    for name, tree in trees.items():
        for qualified, called, position, parameter in _defaulted_parameters(tree):
            most, keywords = passed.get(called, (0, set()))
            if not ({parameter, None} & keywords
                    or position is not None and position < most):
                found.append(f"{name[:-3]}.{qualified}({parameter})")
    return found


def test_every_defaulted_parameter_has_a_caller_outside_tests():
    src = {path.name: path.read_text() for path in MODULES}
    assert unpassed_parameters(src, [path.read_text() for path in BENCH]) == []


def _module(body: str, call: str) -> dict[str, str]:
    return {"m.py": f"{body}\n\n{call}\n"}


FUNCTION = "def f(a, b=1, *, k=2):\n    pass"
METHODS = ("class C:\n    def __init__(self, a=1):\n        pass\n\n"
           "    def m(self, b=1):\n        pass\n\n"
           "    @staticmethod\n    def s(c=1):\n        pass")


@pytest.mark.parametrize(
    "src, bench, found",
    [
        (_module(FUNCTION, "f(0)"), [], ["m.f(b)", "m.f(k)"]),
        (_module(FUNCTION, "f(0, 1)"), [], ["m.f(k)"]),
        (_module(FUNCTION, "f(0, k=3)"), [], ["m.f(b)"]),
        (_module(FUNCTION, "f(0, b=1, k=3)"), [], []),
        (_module(FUNCTION, "f(*xs, k=3)"), [], []),
        (_module(FUNCTION, "f(0, **kw)"), [], []),
        (_module(FUNCTION, ""), ["from qic import m\nm.f(0, 1, k=3)\n"], []),
        (_module("def _f(a=1):\n    pass", ""), [], []),
        (_module(METHODS, "C().m()\nC.s()"),
         [], ["m.C.__init__(a)", "m.C.m(b)", "m.C.s(c)"]),
        (_module(METHODS, "C(0).m(0)\nC.s(0)"), [], []),
    ],
    ids=["one-position", "two-positions", "keyword", "all-keywords", "star-args",
         "star-star-kwargs", "bench-call", "private", "methods-unpassed", "methods-passed"],
)
def test_checker_flags_test_only_parameters(src, bench, found):
    assert unpassed_parameters(src, bench) == found


def import_cycle(src: dict[str, str]) -> list[str]:
    """A cycle among the src modules (file name -> source; __init__.py, the
    package root, skipped), each importing the next by `from .x import`
    or `from . import x` wherever the statement stands, TYPE_CHECKING
    blocks included; [] when there is none."""
    modules = {name[:-3] for name in src if name != "__init__.py"}
    imports = {}
    for name in modules:
        targets = set()
        for node in ast.walk(ast.parse(src[f"{name}.py"])):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module.split(".")[0]] if node.module
                               else (alias.name for alias in node.names))
        imports[name] = sorted(targets & modules)

    path, acyclic = [], set()

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in acyclic:
            return []
        path.append(module)
        for target in imports[module]:
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        acyclic.add(module)
        return []

    for module in sorted(modules):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_src_import_graph_is_acyclic():
    assert import_cycle({path.name: path.read_text() for path in MODULES}) == []


@pytest.mark.parametrize(
    "src, cycle",
    [
        ({"a.py": "from .b import f\n", "b.py": "from . import a\n"}, ["a", "b", "a"]),
        (
            {"a.py": "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
                     "    from .c import C\n",
             "b.py": "from .a import f\n", "c.py": "from .b import g\n"},
            ["a", "c", "b", "a"],
        ),
        ({"a.py": "from .b import f\n", "b.py": "from .c import g\n", "c.py": ""}, []),
        (
            {"__init__.py": "from .a import f\nfrom .b import g\n",
             "a.py": "from .b import g\n", "b.py": "from . import __version__\n"},
            [],
        ),
    ],
    ids=["two-modules", "type-checking", "chain", "package-init"],
)
def test_checker_flags_import_cycles(src, cycle):
    assert import_cycle(src) == cycle


def test_package_root_imports_no_module():
    # each public name is imported from its own module, so the root needs none
    code = ("import sys, qic; print(qic.__file__); print(qic.__version__); "
            "print(*sorted(m for m in sys.modules if m.startswith('qic.') or m == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    path, version, loaded = out.stdout.split("\n")[:3]
    assert Path(path) == SRC / "__init__.py"
    assert version
    assert loaded == ""


# the modules the benchmark reads as attributes of qic after it imports only
# qic and qic.cli: its workloads call them and its tracer rebinds their
# functions, so cli's top-level imports are what make them reachable
BENCH_MODULES = ("circuit", "classifier", "data", "encoding", "qasm", "stats", "statevector")


def test_cli_import_binds_every_module_the_benchmark_reads():
    code = f"import qic, qic.cli; print(*[m for m in {BENCH_MODULES!r} if not hasattr(qic, m)])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == ""


def _cache_kind(node: ast.expr) -> str | None:
    """"cache" or "lru_cache" for functools.cache or functools.lru_cache, or a
    call of either; None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    if (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools"):
        return node.attr
    return None


def _is_cache_size(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "CACHE_SIZE"
            or isinstance(node, ast.Attribute) and node.attr == "CACHE_SIZE")


def memo_faults(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The module's cached functions, and each fault of its memos: a
    functools.cache on a function that takes arguments or given any itself,
    an lru_cache keyed without maxsize=CACHE_SIZE, a cache used other than
    as a decorator, a cache imported by name, and any global statement."""
    cached, found, decorators = [], [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            keyed = any((node.args.posonlyargs, node.args.args, node.args.vararg,
                         node.args.kwonlyargs, node.args.kwarg))
            for dec in node.decorator_list:
                kind = _cache_kind(dec)
                if kind is None:
                    continue
                cached.append(node.name)
                decorators.update((id(dec), id(getattr(dec, "func", dec))))
                args = (dec.args, dec.keywords) if isinstance(dec, ast.Call) else ([], [])
                if kind == "cache" and (keyed or any(args)):
                    found.append(f"line {dec.lineno}: unbounded cache of {node.name}")
                if kind == "lru_cache" and not (
                        keyed and not args[0] and len(args[1]) == 1
                        and args[1][0].arg == "maxsize" and _is_cache_size(args[1][0].value)):
                    found.append(f"line {dec.lineno}: lru_cache of {node.name} "
                                 "is not keyed and bounded by CACHE_SIZE")
        elif isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if _cache_kind(node) and id(node) not in decorators:
            found.append(f"line {node.lineno}: cache used other than as a decorator")
    return cached, found


def test_every_memo_is_a_functools_cache_bounded_when_keyed():
    cached = {}
    for path in MODULES:
        names, found = memo_faults(ast.parse(path.read_text()))
        assert found == [], path.name
        cached.update(dict.fromkeys(names, path.stem))
    # both kinds are in use, so the rule is checked on real code
    assert {"_step_plan", "build_parser"} <= set(cached)


@pytest.mark.parametrize(
    "source",
    [
        "@functools.cache\ndef f(x):\n    pass\n",
        "@functools.cache\ndef f(*args):\n    pass\n",
        "class A:\n    @functools.cache\n    def f(self):\n        pass\n",
        "@functools.lru_cache\ndef f(x):\n    pass\n",
        "@functools.lru_cache(maxsize=None)\ndef f(x):\n    pass\n",
        "@functools.lru_cache(maxsize=64)\ndef f(x):\n    pass\n",
        "@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)\ndef f(x):\n    pass\n",
        "@functools.lru_cache(maxsize=CACHE_SIZE)\ndef f():\n    pass\n",
        "f = functools.lru_cache(maxsize=CACHE_SIZE)(g)\n",
        "f = functools.cache(g)\n",
        "from functools import cache\n",
        "_t = None\n\ndef f():\n    global _t\n",
    ],
    ids=["keyed-cache", "varargs-cache", "method-cache", "bare-lru", "unbounded-lru",
         "other-bound", "typed", "unkeyed-lru", "lru-call", "cache-call", "import", "global"],
)
def test_checker_flags_memos_out_of_rule(source):
    assert memo_faults(ast.parse(source))[1]


@pytest.mark.parametrize(
    "source",
    [
        "@functools.cache\ndef f():\n    pass\n",
        "@functools.lru_cache(maxsize=CACHE_SIZE)\ndef f(x, y=1):\n    pass\n",
        "@functools.lru_cache(maxsize=sv.CACHE_SIZE)\ndef f(x):\n    pass\n",
        "class A:\n    @functools.cached_property\n    def f(self):\n        pass\n",
    ],
)
def test_checker_allows_memos_in_rule(source):
    assert memo_faults(ast.parse(source))[1] == []
