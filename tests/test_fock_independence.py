"""Lint-style check: the floating-point Fock engine imports nothing from the
exact symbolic engine.

The Fock matrices and the exact operators are cross-checked against each
other, which proves something only while neither side is derived from the
other.  The Hermite map that joins them lives in ``tests/hermite.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bateman"
EXACT_MODULES = {"field", "operators", "vacuum", "series"}


def imported_modules(source: str) -> set[str]:
    """Names of the bateman modules a source file imports, however spelled."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            found.update(path[1] for path in paths if path[0] == "bateman" and len(path) > 1)
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["bateman"]:
                    continue
                path = path[1:]
            found.update(path[:1] or [alias.name for alias in node.names])
    return found


def test_fock_imports_nothing_from_the_exact_engine():
    assert imported_modules((SRC / "fock.py").read_text()) & EXACT_MODULES == set()


def test_import_check_sees_every_spelling():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from fractions import Fraction\n"
        "from .field import Coeff\n"
        "from . import operators\n"
        "from .radicals import SqrtRational\n"
        "import bateman.vacuum\n"
        "from bateman.series import raabe_test\n"
    )
    assert imported_modules(source) == {"field", "operators", "radicals", "vacuum", "series"}
