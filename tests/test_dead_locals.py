"""Lint-style checks: no function in src/bateman stores a local it never reads,
and no private module-level name in src/bateman goes unread.

A local counts as read when it is loaded anywhere in the function, nested
functions and comprehensions included, so a value read by a closure is
live.  Names starting with ``_`` are deliberate discards, and names declared
``global`` or ``nonlocal`` belong to another scope.

A private module-level name (``_name``, not a dunder) counts as read when
some module of the package loads it as a name or reads it as an attribute;
importing it under an alias is not a read.
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


def _module_level_names(tree: ast.Module) -> list[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def orphan_helpers(sources: dict[str, str]) -> list[str]:
    """``file:name`` for every private module-level name no module reads."""
    trees = {filename: ast.parse(source, filename) for filename, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{filename}:{name}"
        for filename, tree in trees.items()
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_every_private_module_level_name_is_read():
    assert orphan_helpers({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}) == []


def test_orphan_check_counts_loads_and_attribute_reads_but_not_imports():
    sources = {
        "a.py": (
            "from b import _imported as _alias\n"
            "_TABLE = {}\n"
            "_left, _right = 1, 2\n"
            "def _used():\n"
            "    return _TABLE, _left\n"
            "def _orphan():\n"
            "    return _used()\n"
            "class _Kept:\n"
            "    pass\n"
            "__version__ = '1'\n"
        ),
        "b.py": "import a\n_imported = 1\nkept = a._Kept\n",
    }
    assert orphan_helpers(sources) == ["a.py:_right", "a.py:_orphan", "b.py:_imported"]
