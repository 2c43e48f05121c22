"""Every name a ``vfkt`` module imports is used in that module, each
module imports only the modules below it in ``LAYERS``, no module holds
mutable state at module level (a cache lives on the object it serves), and
every function reads each of its parameters."""

import ast
from pathlib import Path

import pytest

import vfkt

MODULES = sorted(p for p in Path(vfkt.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

# Lowest first: a module may import only the modules before it.
LAYERS = ("numerics", "data", "bus", "synthetic", "frl", "lkt", "downstream",
          "experiment", "cli")


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


def upward_imports(name: str, source: str) -> list[str]:
    """``name -> module`` for each package module that ``name`` imports and
    that is not below it in ``LAYERS``; imports under ``TYPE_CHECKING`` count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vfkt."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("vfkt."))
    rank = LAYERS.index(name)
    return sorted(f"{name} -> {m}" for m in found if LAYERS.index(m) >= rank)


def test_detects_an_upward_import():
    src = ("from typing import TYPE_CHECKING\nfrom . import lkt as m\n"
           "from .data import x\nif TYPE_CHECKING:\n    from .experiment import P\n")
    assert upward_imports("frl", src) == ["frl -> experiment", "frl -> lkt"]
    assert upward_imports("experiment", src) == ["experiment -> experiment"]
    assert upward_imports("cli", "import vfkt.cli\nfrom vfkt.data import a\n") == ["cli -> cli"]


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


def test_imports_follow_the_layer_order():
    assert [edge for p in MODULES
            for edge in upward_imports(p.stem, p.read_text(encoding="utf-8"))] == []


# Module-level mutable state: a display or comprehension of a dict, list or
# set, a call of one of these constructors, or a cache decorator.
MUTABLE_CALLS = ("dict", "list", "set", "defaultdict")
CACHES = ("lru_cache", "cache")


def _called_name(node) -> str | None:
    """``f`` for ``f``, ``m.f`` and calls of either (``lru_cache(maxsize=2)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def module_state(source: str) -> list[str]:
    """Names that a module binds, at module or class level, to mutable
    state; ``__all__`` is exempt. Function bodies are not searched."""
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []

    def visit(stmts, scope):
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(_called_name(d) in CACHES for d in node.decorator_list):
                    found.append(scope + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{scope}{node.name}.")
                continue
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and (
                    isinstance(value, mutable)
                    or isinstance(value, ast.Call) and _called_name(value) in MUTABLE_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.extend(scope + ast.unparse(t) for t in targets
                             if ast.unparse(t) != "__all__")
            # the bodies of module-level if, for, while, with and try blocks
            for name in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, name, []), scope)

    visit(ast.parse(source).body, "")
    return sorted(found)


def test_detects_module_state():
    src = ("import functools\nfrom collections import defaultdict\n"
           "__all__ = ['a']\nA = (1, 2)\nB = {}\nC: list = [x for x in A]\n"
           "D = dict(a=1)\nE = defaultdict(list)\nF = frozenset({1})\n"
           "if A:\n    G = set()\nelse:\n    H = {1}\n"
           "try:\n    pass\nexcept ImportError:\n    I = []\n"
           "@functools.lru_cache(maxsize=2)\ndef j(): pass\n"
           "@cache\ndef k(): pass\n"
           "def f():\n    local = {}\n    return local\n"
           "class K:\n    shared = {}\n    @functools.cache\n    def m(self): pass\n")
    assert module_state(src) == ["B", "C", "D", "E", "G", "H", "I", "K.m", "K.shared",
                                 "j", "k"]
    assert module_state("from dataclasses import field\nX = field(default_factory=dict)\n") == []


@pytest.mark.parametrize("path", sorted(Path(vfkt.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_state(path):
    assert module_state(path.read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a function, method or
    lambda that its body never reads; ``self`` and ``cls`` are exempt, and a
    read in a nested function counts for the function that encloses it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = scope + getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None and p.arg not in ("self", "cls")]
                read = {n.id for n in ast.walk(child)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}({p})" for p in params if p not in read)
                visit(child, name + ".")
            else:
                visit(child, scope + child.name + "." if isinstance(child, ast.ClassDef) else scope)

    visit(ast.parse(source), "")
    return found


def test_detects_an_unread_parameter():
    src = ("def f(a, b, *args, c=1, **kw):\n    d = 2\n    return a + d + c\n"
           "class K:\n    def m(self, x, y):\n        return [y for _ in ()]\n"
           "    @classmethod\n    def k(cls, z):\n        return lambda u, v: z(v)\n"
           "def outer(p, q):\n    def inner(r):\n        return p\n    return inner\n")
    assert unread_parameters(src) == ["f(b)", "f(args)", "f(kw)", "K.m(x)", "K.k.<lambda>(u)",
                                      "outer(q)", "outer.inner(r)"]
    assert unread_parameters("def f(self, cls):\n    pass\n") == []


@pytest.mark.parametrize("path", sorted(Path(vfkt.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
