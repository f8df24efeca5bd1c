"""Floats stay in the witness search's nominations: the exact layers hold none.

And each module keeps its private names: no module imports a _name from another.
"""

import ast
from pathlib import Path

import pytest

import gaussbase

PACKAGE = Path(gaussbase.__file__).parent
EXACT_MODULES = ("gaussint.py", "numeration.py", "automata.py")


def float_uses(tree):
    """(line, what) for every float constant, true division, `float` name and math import but isqrt and gcd."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float constant {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, ast.Import) and any(alias.name == "math" for alias in node.names):
            yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in ("isqrt", "gcd"):
                    yield node.lineno, f"from math import {alias.name}"


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_use_no_float(name):
    path = PACKAGE / name
    assert list(float_uses(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_each_kind_of_float_use():
    source = "import math\nfrom math import isqrt, log2\nx = 1 / 2\nx /= 2\ny = float(3) * 0.5\n"
    assert sorted(float_uses(ast.parse(source))) == [
        (1, "import math"),
        (2, "from math import log2"),
        (3, "true division"),
        (4, "true division"),
        (5, "float constant 0.5"),
        (5, "the name float"),
    ]


def private_imports(tree):
    """(line, name) for every _name imported from a gaussbase module, relatively or by its full name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "gaussbase"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):  # dunders are public
                    yield alias.lineno, alias.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert list(private_imports(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_each_kind_of_private_import():
    source = (
        "from .numeration import _json_int, decode\n"
        "from . import _private\n"
        "from gaussbase.automata import _bfs\n"
        "from collections import _chain_map\n"
        "from .gaussint import __version__\n"
        "from .automata import (\n    Dfa,\n    _members,\n)\n"
    )
    assert list(private_imports(ast.parse(source))) == [(1, "_json_int"), (2, "_private"), (3, "_bfs"), (8, "_members")]
