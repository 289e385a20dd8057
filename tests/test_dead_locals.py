"""Lint-style check: no function in src/bateman stores a local it never reads.

A name counts as read when it is loaded anywhere in the function, nested
functions and comprehensions included, so a value read by a closure is
live.  Names starting with ``_`` are deliberate discards, and names declared
``global`` or ``nonlocal`` belong to another scope.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bateman"


def _own_stores(func: ast.AST) -> set[str]:
    """Names stored in func's own body, not in the functions nested in it."""
    stored: set[str] = set()
    declared: set[str] = set()
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return stored - declared


def dead_locals(source: str, filename: str) -> list[str]:
    """``file:function:name`` for every local stored and never loaded."""
    found = []
    for func in ast.walk(ast.parse(source, filename)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in sorted(_own_stores(func) - loaded):
            if not name.startswith("_"):
                found.append(f"{filename}:{func.name}:{name}")
    return found


def test_no_function_stores_a_local_it_never_reads():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += dead_locals(path.read_text(), path.name)
    assert found == []


def test_dead_local_check_sees_stores_but_not_closure_reads():
    source = (
        "def f(xs):\n"
        "    unused = 1\n"
        "    _ignored = 2\n"
        "    for i, x in enumerate(xs):\n"
        "        pass\n"
        "    seen = set()\n"
        "    def g():\n"
        "        return seen\n"
        "    return g\n"
    )
    assert dead_locals(source, "m.py") == ["m.py:f:i", "m.py:f:unused", "m.py:f:x"]
