"""Every name a ``vfkt`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import vfkt

MODULES = sorted(p for p in Path(vfkt.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports (``import a.b`` binds ``a``)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    nodes = list(ast.walk(tree))
    for node in nodes:
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            nodes += ast.walk(ast.parse(ann.value, mode="eval"))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(_imported(tree) - _used(tree))


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unused_imports(src) == ["a", "os"]
    assert unused_imports("from x import T\ndef f(y: 'T') -> 'list[T]': pass\n") == []
    assert unused_imports("from x import T\n'T'\n") == ["T"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
