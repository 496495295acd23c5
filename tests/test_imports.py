"""Stand-ins for a linter's unused-import and dead-code rules, built on the standard library's ``ast``."""

import ast
from pathlib import Path

import qmask
from helpers import library_tour

ROOT = Path(__file__).resolve().parents[1]
# public names that no pipeline, benchmark or README tour reads, each kept for a reason
UNREAD_PUBLIC_NAMES = {
    "build_distinct_spectrum": "the paper's fixed reducing family for a non-degenerate spectrum",
    "dual_bound": "re-checks any certificate from its dual point alone",
    "uniform_feasibility_boundary": "the closed-form feasibility limit of equal efficiencies",
}


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression in ``source`` reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def read_names(node: ast.AST) -> set[str]:
    """Names read anywhere under ``node``, bare or as an attribute."""
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
    }


def _definitions(node: ast.stmt) -> list[str]:
    """The ``_private`` function or class, or the UPPER_CASE constants, a statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        private = node.name.startswith("_") and not node.name.startswith("__")
        return [node.name] if private else []
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes and UPPER_CASE constants that
    no module in ``sources`` reads, by bare name or as an attribute, outside their
    own definition."""
    defined, read = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            names = _definitions(statement)
            defined.extend((module, name, statement.lineno) for name in names)
            read |= read_names(statement) - set(names)
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


def test_scanner_finds_unread_definitions():
    sources = {
        "a": ("LIMIT = 1\nUNUSED = 2\nSCALE: float = 3.0\n__all__ = ['run']\n"
              "def _helper():\n    return LIMIT\n"
              "def _orphan():\n    return _orphan()\n"
              "class _Unused:\n    pass\n"
              "def run():\n    return _helper()\n"),
        "b": "import a\nvalue = a.SCALE\n",
    }
    assert unread_definitions(sources) == [
        "a: UNUSED (line 2)", "a: _orphan (line 7)", "a: _Unused (line 9)"]


def test_no_private_helper_or_constant_goes_unread():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "qmask").glob("*.py"))}
    assert unread_definitions(sources) == []


def test_every_public_name_is_read_or_kept_for_a_reason():
    # the library itself (its re-exports aside), the benchmark's harness and the README tour
    paths = [*(ROOT / "src" / "qmask").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    sources = [path.read_text(encoding="utf-8") for path in paths if path.name != "__init__.py"]
    read = set().union(*(read_names(ast.parse(source)) for source in [*sources, library_tour()]))
    # equality also keeps the exceptions current: each must be public and unread
    assert {name for name in qmask.__all__ if name not in read} == set(UNREAD_PUBLIC_NAMES)


def test_scanner_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import importlib.util\nfrom json import dumps as encode, loads\n"
              "importlib.util.find_spec(encode(osp))\n")
    assert unused_imports(source) == ["os (line 2)", "loads (line 5)"]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names only to re-export them
    paths = [*(ROOT / "src" / "qmask").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    found = {
        str(path.relative_to(ROOT)): unused
        for path in sorted(paths)
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
