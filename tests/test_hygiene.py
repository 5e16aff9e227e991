"""Static hygiene of the code: no unused imports in src/fraclap, tests and
scripts, no unused function parameters in src/fraclap, no module-level
private function of src/fraclap that nothing in src/fraclap calls, no
functools cache decorator in src/fraclap (module-level mutable state), and
no numpy.linalg or polyfit in src/fraclap outside `solvers.lu_factor`, found
by scanning the syntax tree of every module (the project runs no linter, so
this test is the check).  Tests and scripts get the import check only: a pytest
fixture can be a parameter that the test body never names.  Two checks import
the package: every name in a module's __all__ must exist on that module, or
`from module import *` fails, and every code name README.md or a docstring
or comment of src/fraclap cites in backticks must exist in some module
(ROADMAP.md is left out: it names deleted code on purpose).  README.md and
the docstrings and comments of src/fraclap carry no wall-time or memory
figures: those depend on the machine and the day, and their history belongs
in CHANGES.md.  README.md has at most 300 lines."""

import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

import fraclap

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fraclap"
MODULES = sorted(SRC.glob("*.py"))
OTHER = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _module_id(path: Path) -> str:
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set:
    """Names listed in a module-level __all__ (re-exports count as uses)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _loaded_names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _loaded_names(tree) | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unused_parameters(tree: ast.Module) -> list:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = set().union(*(_loaded_names(stmt) for stmt in body))
        name = getattr(node, "name", "<lambda>")
        out += [
            f"{name}({p.arg}) (line {node.lineno})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in used
        ]
    return sorted(out)


def _named(node: ast.AST) -> Counter:
    """How often each name is loaded or looked up as an attribute in node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def orphaned_private_functions(tree: ast.Module, trees: list) -> list:
    """Module-level private functions of tree that no module of trees names
    outside the function's own definition."""
    named = sum((_named(t) for t in trees), Counter())
    return sorted(
        f"{node.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and named[node.name] <= _named(node)[node.name]
    )


_CACHES = {"lru_cache", "cache"}


def cache_decorated_functions(tree: ast.Module) -> list:
    """Functions decorated with functools.lru_cache or functools.cache, under
    whatever name the module imports them or functools itself."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in _CACHES}

    def is_cache(dec):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            return target.id in names
        return (
            isinstance(target, ast.Attribute)
            and target.attr in _CACHES
            and isinstance(target.value, ast.Name)
            and target.value.id in modules
        )

    return sorted(
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(is_cache(dec) for dec in node.decorator_list)
    )


_LINALG = {"linalg", "polyfit"}


def linalg_uses(tree: ast.AST) -> list:
    """Attributes named linalg or polyfit (np.polyfit solves by lstsq), and
    imports that name either, in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _LINALG:
            out.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            hits = sorted({part for name in names for part in name.split(".")} & _LINALG)
            out += [f"import {hit} (line {node.lineno})" for hit in hits]
    return sorted(out)


_SPAN = re.compile(r"`([^`\n]+)`")
# ALL_CAPS constants, _private names and CamelCase classes, each with an
# optional .attribute, and fraclap.module paths; other lower-case dotted
# forms are instance attributes (grid.d) or foreign modules, and are skipped
_CITED = re.compile(r"(?:[A-Z][A-Z0-9_]+|_[a-z]\w*|[A-Z][a-z]\w*)(?:\.\w+)?|fraclap(?:\.\w+)+")


def _resolves(name: str, namespaces: list) -> bool:
    """Whether the dotted name is an attribute chain of some namespace's
    entry; a dataclass field without a default counts as an attribute."""
    head, *attrs = name.split(".")
    for obj in (ns[head] for ns in namespaces if head in ns):
        for attr in attrs:
            if not (hasattr(obj, attr) or attr in getattr(obj, "__dataclass_fields__", ())):
                break
            obj = getattr(obj, attr, None)
        else:
            return True
    return False


def stale_names(text: str, namespaces: list) -> list:
    """The code names cited in backticks in text (see _CITED) that no
    namespace defines."""
    return sorted(
        {s for s in _SPAN.findall(text) if _CITED.fullmatch(s) and not _resolves(s, namespaces)}
    )


# a number with a time or memory unit: seconds, milliseconds, megabytes or
# kibibytes; a power (pi^2 s) or a digit inside a name is no figure
_FIGURE = re.compile(r"(?<![\w^.])\d+(?:\.\d+)?\s?(?:s|ms|MB|KiB)\b")


def timing_figures(text: str) -> list:
    """The wall-time and memory figures in text, with their line numbers."""
    return [
        f"{m.group()} (line {text.count(chr(10), 0, m.start()) + 1})"
        for m in _FIGURE.finditer(text)
    ]


def docs_and_comments(source: str) -> str:
    """The docstrings and comments of a module's source on their own lines,
    every other line blank."""
    lines = source.splitlines()
    kept = [""] * len(lines)
    for node in ast.walk(ast.parse(source)):
        doc_owner = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, doc_owner) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            kept[doc.lineno - 1 : doc.end_lineno] = lines[doc.lineno - 1 : doc.end_lineno]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            kept[tok.start[0] - 1] = tok.string
    return "\n".join(kept)


@pytest.mark.parametrize("path", MODULES + OTHER, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_parameters(path):
    assert unused_parameters(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_orphaned_private_functions(path):
    assert orphaned_private_functions(_tree(path), [_tree(p) for p in MODULES]) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_cache_decorators(path):
    assert cache_decorated_functions(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_every_exported_name_resolves(path):
    name = "fraclap" if path.stem == "__init__" else f"fraclap.{path.stem}"
    module = importlib.import_module(name)
    assert sorted(n for n in _exported(_tree(path)) if not hasattr(module, n)) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_linalg_only_in_lu_factor(path):
    """LAPACK (numpy.linalg, and polyfit through lstsq) is reached only from
    solvers.lu_factor: every other path factors no matrix.  Static, so it
    covers paths the runtime guard in test_cli does not run."""
    tree = _tree(path)
    allowed = []
    if path.name == "solvers.py":
        (lu_factor,) = (n for n in tree.body if getattr(n, "name", None) == "lu_factor")
        allowed = linalg_uses(lu_factor)
    assert linalg_uses(tree) == allowed


def _namespaces() -> list:
    """The package and every module's globals, where a cited name resolves."""
    names = [f"fraclap.{p.stem}" for p in MODULES if p.stem != "__init__"]
    return [{"fraclap": fraclap}] + [vars(importlib.import_module(n)) for n in names]


def test_readme_names_resolve():
    assert stale_names((ROOT / "README.md").read_text(), _namespaces()) == []


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_docstring_names_resolve(path):
    """The code names that the docstrings and comments of src/fraclap cite
    in backticks exist, so deleting a name also updates its prose."""
    assert stale_names(docs_and_comments(path.read_text()), _namespaces()) == []


def test_readme_is_short():
    """README.md states contracts; the history it used to carry is in
    CHANGES.md."""
    assert len((ROOT / "README.md").read_text().splitlines()) <= 300


def test_no_timing_figures_in_docs():
    """README.md and the docstrings and comments of src/fraclap state no
    wall time or memory size; CHANGES.md records the measurements."""
    found = [f"README.md: {f}" for f in timing_figures((ROOT / "README.md").read_text())]
    for path in MODULES:
        found += [f"{path.name}: {f}" for f in timing_figures(docs_and_comments(path.read_text()))]
    assert found == []


def test_scanner_flags_what_it_should():
    tree = ast.parse(
        "import os\nfrom x import y as z, w\n__all__ = ['w']\n"
        "def f(self, a, b):\n    return a\n"
        "g = lambda u, v: u\n"
    )
    assert unused_imports(tree) == ["os (line 1)", "z (line 2)"]
    assert unused_parameters(tree) == ["<lambda>(v) (line 6)", "f(b) (line 4)"]
    tree = ast.parse(
        "def _used():\n    pass\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n"
        "def _orphan():\n    pass\n"
        "def __dunder__():\n    pass\n"
        "def public():\n    return _used()\n"
    )
    other = ast.parse("import m\nm._orphan\n")
    assert orphaned_private_functions(tree, [tree]) == ["_orphan (line 5)", "_recursive (line 3)"]
    assert orphaned_private_functions(tree, [tree, other]) == ["_recursive (line 3)"]
    tree = ast.parse(
        "import functools as ft\nfrom functools import lru_cache as _lc, cache, wraps\n"
        "@_lc(maxsize=None)\ndef a():\n    pass\n"
        "@cache\ndef b():\n    pass\n"
        "@ft.lru_cache\ndef c():\n    pass\n"
        "@wraps(a)\ndef d():\n    pass\n"
        "@other.cache\ndef e():\n    pass\n"
    )
    assert cache_decorated_functions(tree) == ["a (line 4)", "b (line 7)", "c (line 10)"]
    tree = ast.parse(
        "import numpy as np\nimport numpy.linalg\nfrom numpy import linalg as la, polyval\n"
        "np.linalg.solve(a, b)\nnp.polyfit(x, y, 1)\nla.inv(a)\nnp.polyval(c, x)\n"
    )
    assert linalg_uses(tree) == [
        "import linalg (line 2)", "import linalg (line 3)",
        "linalg (line 4)", "polyfit (line 5)",
    ]

    @dataclass
    class Stub:
        field: float  # no default: not a class attribute

    text = ("`LADDER_BLOCK` `_first_lambda` `Stub.field` `Stub.gone` `OLD_RUNG` "
            "`fraclap.grid` `fraclap.gone` `grid.d` `V` `c sub + λ V` `ast`")
    namespaces = [{"LADDER_BLOCK": 8, "Stub": Stub}, {"fraclap": SimpleNamespace(grid=0)}]
    assert stale_names(text, namespaces) == [
        "OLD_RUNG", "Stub.gone", "_first_lambda", "fraclap.gone",
    ]

    text = "(~15 s) 0.7 ms\n42.2 MB, 29868 KiB\npi^2 s, 2 sinh, n = 2001, x2 s, 13 msg, 1.5s"
    assert timing_figures(text) == [
        "15 s (line 1)", "0.7 ms (line 1)", "42.2 MB (line 2)", "29868 KiB (line 2)",
        "1.5s (line 3)",
    ]
    source = ('"""Module, 2 s."""\nx = "0.5 s"  # took 13 ms\n'
              'def f():\n    """Peak\n    9 MB."""\n    return "4 MB"\n')
    assert timing_figures(docs_and_comments(source)) == [
        "2 s (line 1)", "13 ms (line 2)", "9 MB (line 5)",
    ]
