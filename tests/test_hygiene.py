"""Source checks that no runtime test would catch."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qslate").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Private names that a module-level def, class or assignment binds and
    the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}" for name, line in bound.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os\n\nos.sep\n"
    assert unused_imports(source) == ["line 2: json"]


def test_check_sees_an_unused_private_name():
    source = (
        "__all__ = ['run']\n_Item = tuple[int, str]\n_LIMIT, _SPARE = 3, 4\n\n"
        "def _helper(x: int) -> int:\n    return x\n\n"
        "class _Dead:\n    pass\n\n"
        "def run(items: list[_Item]) -> int:\n    return _helper(_LIMIT)\n"
    )
    assert unused_private_names(source) == ["line 3: _SPARE", "line 8: _Dead"]
