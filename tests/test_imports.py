"""A stand-in for a linter's unused-import rule, built on the standard library's ``ast``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
