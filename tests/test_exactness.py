"""Floats stay in the witness search's nominations: the exact layers hold none.

And each module keeps its private names: no module imports a _name from another.
And the library imports light: no module imports re, and `import gaussbase` loads
neither the regex engine nor the CLI's argparse and json.
"""

import ast
import subprocess
import sys
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


def regex_imports(tree):
    """Line of every import of re or a submodule of it, at module level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "re" or name.startswith("re.") for name in names):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_re(path):
    assert list(regex_imports(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_each_kind_of_regex_import():
    source = (
        "import re\n"
        "import os, re as _regex\n"
        "from re import compile\n"
        "from . import re_tools\n"
        "import regex\n"
        "def parse(text):\n    import re._parser\n"
        "class Literal:\n    from re import fullmatch\n"
    )
    assert list(regex_imports(ast.parse(source))) == [1, 2, 3, 7, 9]


def test_importing_the_library_leaves_the_regex_engine_and_the_cli_modules_unloaded():
    # -I -S: the interpreter and the package alone, as the benchmark measures the import
    code = "import sys; sys.path.insert(0, sys.argv[1]); import gaussbase; print(*sys.modules)"
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "gaussbase.automata" in loaded
    assert not loaded & {"re", "enum", "argparse", "json", "gettext", "contextlib"}
