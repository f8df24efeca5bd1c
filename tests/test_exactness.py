"""Floats stay in the witness search's nominations: the exact layers hold none.

And each module keeps its private names: no module imports a _name from another,
nor reads one as an attribute of another's objects.
And the library imports light: no module imports re, and `import gaussbase` loads
neither the regex engine nor json.  No CLI command line loads argparse, and a plain
one loads no json either, nor the re, enum and gettext they import, nor os: only a
DFA file loads json.  Neither
loads collections, functools or types, nor the keyword and reprlib they import:
the records, memos and cached properties come from gaussbase._records.  Nor
operator's and bisect's Python layers: operator's functions come from _operator.
Nor _collections_abc: its abstract classes appear in string annotations only.
And the CLI has one JSON writer: no module calls json's indenting encoder, whose
pure-Python path cli._render replaces.
And one owner lifts the int-to-str digit limit: only cli._text names
sys.set_int_max_str_digits, so every literal is read under the interpreter's limit.
And the verification suite checks digit sets without the library's digit lookups:
verification.py reads no .positions and no digit_of (the private-attribute guard
covers _loop and _fold), so its residue check does not lean on the code it verifies.
And each side of the digit limit is stated once: no library error is raised with an
f-string, % or .format message, so one that names a value past the limit is raised
and reads in full where the limit is lifted; and the only int() conversion of text is
gaussint.numerals', besides the float truncation in dependence._nominees.
Such an error always prints: under the limit, str() gives its template and a note.
And the paper's hypotheses are checked in one place: only gaussint.norm_at_least
refuses a base, generator or target for its type or norm, and every call that takes
one refuses a value that is no GaussInt, and one below its least norm, naming its
role.  So are the counts that size the harnesses: only gaussint.int_at_least refuses
an int parameter, and every call that takes a count refuses a float, a bool, None
and one below its least value, naming its role.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gaussbase
from gaussbase import (
    BudgetExceeded,
    Dfa,
    DigitSet,
    GaussInt,
    InvalidInput,
    LengthBound,
    NonTermination,
    canonical_digit_set,
    decode,
    dfa_oracle_disagreement,
    encode,
    group_witness,
    integers_dfa,
    is_power_of,
    length_bound,
    mult_dependent,
    power_digit_set,
    powers_dfa,
    powers_oracle,
    prefix_extension,
    real_power_exponent,
    recode,
    residual_signatures,
    run,
    zero_pump_probe,
)
from gaussbase.gaussint import LEAST_BASE_NORM, formatted
from gaussbase.numeration import LargeCanonicalDigitSet

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


NAMEDTUPLE_API = frozenset({"_replace", "_make", "_fields", "_asdict"})


def private_attribute_reads(tree):
    """(line, name) for every read of obj._name where _name is defined or assigned nowhere in the module.

    A read through self or cls, a dunder and namedtuple's _replace, _make,
    _fields and _asdict are the module's own.
    """
    own = set(NAMEDTUPLE_API)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    reads = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and node.attr not in own
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            reads.append((node.lineno, node.attr))
    return sorted(reads)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_a_private_attribute_of_another(path):
    assert private_attribute_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guard_sees_each_kind_of_private_attribute_read():
    source = (
        "from . import numeration\n"
        "class Box:\n"
        "    def __init__(self, b):\n"
        "        self._b, self._n = b, b.norm()\n"
        "    def lift(self):\n"
        "        return self._b, self._unset, cls._count\n"
        "def _helper(D, box, r):\n"
        "    return D._index, box._b, r._replace(re=1), r._fields, r._asdict(), type(r)._make(r)\n"
        "x = numeration._block_length(5) + numeration._helper(D).__len__()\n"
        "_limit = 3\n"
        "y = D.positions.__contains__, cli._limit, D._by_residue[0, 0]\n"
    )
    assert private_attribute_reads(ast.parse(source)) == [(8, "_index"), (9, "_block_length"), (11, "_by_residue")]


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


# the modules the package's records, memos and cached properties once came from, and those they load,
# the Python layers of operator and bisect, and _collections_abc: the package reads operator's C
# functions, only the verification suite imports bisect, and the abstract classes are string annotations
RECORD_MODULES = {"collections", "functools", "types", "keyword", "reprlib", "operator", "bisect", "_collections_abc"}


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
    assert not loaded & RECORD_MODULES


# main on each line, its report or help captured; then the exit codes and the loaded modules on stdout
CLI_CHILD = (
    "import io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from gaussbase.cli import main\n"
    "codes = []\n"
    "for line in sys.argv[2:]:\n"
    "    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
    "    try:\n"
    "        codes.append(main(line.split('\\t')))\n"
    "    except SystemExit as exc:  # help, or a usage error\n"
    "        codes.append(exc.code)\n"
    "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
    "print(*codes)\n"
    "print(*sys.modules)\n"
)
PLAIN_LINES = (
    ("deptest", "3+4i", "2+1i"),
    ("witness", "1+2i", "2+1i", "1", "--bound", "1/25", "--m-max", "64"),
    ("prefix", "1+2i", "2+1i", "1", "--n-min", "3", "--budget", "256"),
    ("encode", "-b", "2+1i", "--", "-3+2i"),
    ("digits", "-b", "2+1i"),
    ("pump", "-b", "2+1i", "--set", "integers", "--word", "1,0"),
)
# argparse and json, and the modules they import
ARGPARSE_AND_JSON = {"re", "enum", "argparse", "json", "gettext"}


def cli_child(*lines: tuple[str, ...]) -> tuple[list[int], set[str]]:
    """main's exit code on each line, and the modules loaded after them, in a -I -S interpreter."""
    argv = [sys.executable, "-I", "-S", "-c", CLI_CHILD, str(PACKAGE.parent), *map("\t".join, lines)]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    codes, modules = child.stdout.splitlines()
    return [int(code) for code in codes.split()], set(modules.split())


def test_plain_command_lines_load_neither_argparse_nor_json_nor_the_regex_engine():
    codes, loaded = cli_child(*PLAIN_LINES)
    assert codes == [0] * len(PLAIN_LINES)
    assert "gaussbase.cli" in loaded
    assert not loaded & ARGPARSE_AND_JSON
    assert not loaded & RECORD_MODULES
    # os, with the stat and posixpath it loads, only when stdout's reader closed the pipe
    assert not loaded & {"os", "stat", "posixpath"}


def test_no_line_loads_argparse_and_only_a_dfa_file_loads_json(tmp_path):
    # the other forms of an option, help and usage errors load no more than a plain line
    codes, loaded = cli_child(
        ("digits", "--base=2+1i"),
        ("residuals", "-k4", "1+2i", "2+1i"),
        ("witness", "-h"),
        ("dfa", "make", "--help"),
        ("-h",),
        ("witness", "--m-m", "5", "1+2i", "2+1i", "1"),
        ("deptest", "3+4i", "x"),
    )
    assert codes == [0, 0, 0, 0, 0, 1, 1]
    assert not loaded & (ARGPARSE_AND_JSON | RECORD_MODULES | {"os", "stat", "posixpath"})
    dfa = str(tmp_path / "powers.json")
    codes, loaded = cli_child(
        ("dfa", "make", "powers", "-b", "2+1i", "--dfa-out", dfa), ("dfa", "run", dfa, "--word", "0-1i,0+1i,-1,0")
    )
    assert codes == [0, 0]
    assert "json" in loaded and "argparse" not in loaded


def test_the_cli_encodes_strings_with_jsons_own_function():
    from json import encoder

    from gaussbase import cli

    assert cli.encode_basestring_ascii is encoder.encode_basestring_ascii


JSON_WRITERS = ("dump", "dumps", "JSONEncoder")


def indented_json_writes(tree):
    """Line of every call of json.dump, json.dumps or json.JSONEncoder, or of one of those names, that
    passes indent, or passes **options, which may hold it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in JSON_WRITERS and any(keyword.arg in ("indent", None) for keyword in node.keywords):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_writes_indented_json_but_through_the_cli_renderer(path):
    assert list(indented_json_writes(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_each_kind_of_indented_json_write():
    source = (
        "import json\n"
        "text = json.dumps(report, indent=2, sort_keys=True)\n"
        "json.dump(report, fh, indent=2)\n"
        "from json import dumps as dumps\n"
        "line = dumps(report, sort_keys=True, indent=None)\n"
        "json.dumps(value)\n"
        "json.dumps(report, **options)\n"
        "encoder = json.JSONEncoder(indent=2)\n"
        "print(json.dumps(report), indent)\n"
        "json.loads(text, indent=2)\n"
    )
    assert list(indented_json_writes(ast.parse(source))) == [2, 3, 5, 7, 8]


def digit_limit_writes(tree, function=None):
    """(line, enclosing function) of every name, attribute, import or getattr string set_int_max_str_digits."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if (
            (isinstance(node, ast.Name) and node.id == "set_int_max_str_digits")
            or (isinstance(node, ast.Attribute) and node.attr == "set_int_max_str_digits")
            or (isinstance(node, ast.alias) and node.name == "set_int_max_str_digits")
            or (isinstance(node, ast.Constant) and node.value == "set_int_max_str_digits")
        ):
            yield node.lineno, function
        yield from digit_limit_writes(node, inner)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_cli_report_text_lifts_the_digit_limit(path):
    functions = {function for _, function in digit_limit_writes(ast.parse(path.read_text(encoding="utf-8")))}
    assert functions == ({"_text"} if path.name == "cli.py" else set())


def test_the_guard_sees_each_kind_of_digit_limit_write():
    source = (
        "import sys\n"
        "sys.set_int_max_str_digits(0)\n"
        "from sys import set_int_max_str_digits\n"
        "def lift(limit):\n    set_int_max_str_digits(limit)\n"
        "class Report:\n    def render(self):\n        getattr(sys, 'set_int_max_str_digits')(0)\n"
        "limit = sys.get_int_max_str_digits()\n"
        "note = 'call set_int_max_str_digits'\n"
    )
    assert list(digit_limit_writes(ast.parse(source))) == [(2, None), (3, None), (5, "lift"), (8, "render")]


DIGIT_LOOKUPS = ("positions", "digit_of")


def digit_lookup_reads(tree):
    """(line, name) of every name, attribute, import or getattr string naming a digit lookup table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in DIGIT_LOOKUPS:
            yield node.lineno, name


def test_the_verification_suite_reads_no_digit_lookup_of_the_library():
    path = PACKAGE / "verification.py"
    assert list(digit_lookup_reads(ast.parse(path.read_text(encoding="utf-8")))) == []


def test_the_guard_sees_each_kind_of_digit_lookup_read():
    source = (
        "from .numeration import decode, digit_of\n"
        "index = D.positions\n"
        "d = numeration.digit_of(z, D)\n"
        "def first(z, D):\n    return digit_of(z, D)\n"
        "table = getattr(D, 'positions')\n"
        "note = 'the positions of the digits', D.position, digits_of\n"
    )
    assert sorted(digit_lookup_reads(ast.parse(source))) == [
        (1, "digit_of"),
        (2, "positions"),
        (3, "digit_of"),
        (5, "digit_of"),
        (6, "positions"),
    ]


PACKAGE_ERRORS = ("InvalidInput", "BudgetExceeded", "NonTermination")
LIBRARY_MODULES = ("gaussint.py", "numeration.py", "automata.py", "dependence.py")


def eager_messages(tree):
    """Line of every InvalidInput, BudgetExceeded or NonTermination call whose message is an f-string, a % or a
    .format call, which format the values they name when the error is raised."""
    for node in ast.walk(tree):
        name = getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None
        if name in PACKAGE_ERRORS and node.args:
            message = node.args[0]
            if (
                isinstance(message, ast.JoinedStr)
                or (isinstance(message, ast.BinOp) and isinstance(message.op, ast.Mod))
                or (isinstance(message, ast.Call) and getattr(message.func, "attr", None) == "format")
            ):
                yield node.lineno


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_library_errors_format_the_values_they_name_only_when_read(name):
    assert list(eager_messages(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))) == []


def test_the_guard_sees_each_kind_of_eager_message():
    source = (
        'raise InvalidInput(f"norm({a}) <= 1 cannot generate powers")\n'
        'raise BudgetExceeded("%d digit-steps" % steps)\n'
        'raise gaussint.NonTermination("digit loop for {}".format(z))\n'
        'raise InvalidInput("norm(%s) <= 1 cannot generate powers", a)\n'
        'raise TypeError(f"expected a list, got {name}")\n'
        "return InvalidInput(\n    f'{d} is not a digit'\n)\n"
        "raise BudgetExceeded(message, r2)\n"
    )
    assert list(eager_messages(ast.parse(source))) == [1, 2, 3, 6]


def _trap() -> DigitSet:
    """The base-3 digit set with -1 replaced by its residue-mate 2, on which -1's digit loop cycles."""
    base = GaussInt(3)
    return DigitSet(base, tuple(GaussInt(2) if d == GaussInt(-1) else d for d in canonical_digit_set(base).digits))


HUGE = 10**5000
D21 = canonical_digit_set(GaussInt(2, 1))
# library calls whose message names a value past the digit limit, and the end of that message
CALLS_PAST_THE_LIMIT = {
    "decode": (lambda: decode((GaussInt(HUGE),), D21), InvalidInput, " is not a digit of base 2+1i"),
    "recode": (lambda: recode((GaussInt(HUGE),), D21, 2), InvalidInput, " is not a digit of base 2+1i"),
    "run": (lambda: run(powers_dfa(GaussInt(2, 1)), (GaussInt(HUGE),)), InvalidInput, " is not in the DFA alphabet"),
    "dfa": (lambda: Dfa(D21, HUGE, ((0,) * 5,), ()), InvalidInput, "0 out of range"),
    "gauss_int": (lambda: GaussInt(HUGE, 2.5), InvalidInput, "0, 2.5) is not an integer"),
    "residual_signatures": (
        lambda: residual_signatures(powers_oracle(GaussInt(1, 2), D21), HUGE, 0),
        BudgetExceeded,
        "0 exceed the enumeration budget",
    ),
    "encode": (lambda: encode(GaussInt(-HUGE), _trap()), NonTermination, "0 over base 3 exceeded 22420 iterations"),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("call, error, ending", CALLS_PAST_THE_LIMIT.values(), ids=CALLS_PAST_THE_LIMIT)
def test_a_library_error_naming_a_value_past_the_digit_limit_reads_in_full(default_digit_limit, call, error, ending):
    """The package's error is raised, not the interpreter's digit-limit ValueError, and its message reads in full
    once the limit is lifted."""
    with pytest.raises(error) as exc:
        call()
    sys.set_int_max_str_digits(0)
    message = str(exc.value)
    assert str(HUGE) in message and message.endswith(ending)


def _is_int(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def int_conversions(tree, function=None):
    """(enclosing function, source) of every call of int, and of every call but isinstance that takes int as an
    argument, such as map(int, parts)."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if isinstance(node, ast.Call):
            arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
            if _is_int(node.func) or (getattr(node.func, "id", None) != "isinstance" and any(map(_is_int, arguments))):
                yield function, ast.unparse(node)
        yield from int_conversions(node, inner)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_numeral_routine_converts_text_to_int(path):
    """Every int the package reads from text comes from gaussint.numerals; the one other int() call
    truncates a float, the witness walk's rotation, in dependence._nominees."""
    conversions = list(int_conversions(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "gaussint.py":
        assert conversions and {function for function, _ in conversions} == {"numerals"}
    else:
        assert conversions == ([("_nominees", "int(alpha)")] if path.name == "dependence.py" else [])


def test_the_guard_sees_each_kind_of_int_conversion():
    source = (
        "def read(text):\n    return int(text)\n"
        "values = tuple(map(int, parts))\n"
        "data = json.loads(text, parse_int=int)\n"
        "ok = isinstance(x, int) and type(x) is int\n"
        "def render(value):\n    return int.__repr__(value), {int}\n"
    )
    assert list(int_conversions(ast.parse(source))) == [
        ("read", "int(text)"),
        (None, "map(int, parts)"),
        (None, "json.loads(text, parse_int=int)"),
    ]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("call, error, ending", CALLS_PAST_THE_LIMIT.values(), ids=CALLS_PAST_THE_LIMIT)
def test_a_library_error_naming_a_value_past_the_digit_limit_always_prints(default_digit_limit, call, error, ending):
    """Under the limit, str() gives the template and a note, and the strict formatted() raises the limit's
    ValueError, which the CLI reads under its report's limit."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == f"{exc.value.args[0]} (a value is past the interpreter's int-to-str digit limit)"
    with pytest.raises(ValueError):
        formatted(exc.value)


# the paper's hypotheses, |a|, |b| >= sqrt(5), as the library states them: one call of one value for each
# Gaussian parameter that is checked, with its role and least norm
A12, B21, U1 = GaussInt(1, 2), GaussInt(2, 1), GaussInt(1)
HYPOTHESES = {
    "DigitSet": (lambda z: DigitSet(z, D21.digits), "base", 5),
    "LargeCanonicalDigitSet": (LargeCanonicalDigitSet, "base", 5),
    "canonical_digit_set": (canonical_digit_set, "base", 5),
    "LengthBound": (lambda z: LengthBound(z, 1), "base", 5),
    "length_bound": (length_bound, "base", 5),
    "real_power_exponent": (real_power_exponent, "base", 5),
    "integers_dfa": (integers_dfa, "base", 5),
    "is_power_of": (lambda z: is_power_of(B21, z), "generator", 2),
    "powers_oracle": (lambda z: powers_oracle(z, D21), "generator", 2),
    "mult_dependent.a": (lambda z: mult_dependent(z, B21), "generator", 2),
    "mult_dependent.b": (lambda z: mult_dependent(A12, z), "generator", 2),
    "group_witness.a": (lambda z: group_witness(z, B21, U1, 1, 4, 8), "generator", 2),
    "group_witness.b": (lambda z: group_witness(A12, z, U1, 1, 4, 8), "generator", 2),
    "group_witness.u": (lambda z: group_witness(A12, B21, z, 1, 4, 8), "target", 1),
    "prefix_extension.a": (lambda z: prefix_extension(z, B21, U1, 0, 8), "generator", 5),
    "prefix_extension.b": (lambda z: prefix_extension(A12, z, U1, 0, 8), "base", 5),
    "prefix_extension.u": (lambda z: prefix_extension(A12, B21, z, 0, 8), "target", 1),
}
NOT_GAUSSIAN = {"tuple": (2, 1), "int": 5, "float": 2.5, "none": None}
TOO_SMALL = {"zero": GaussInt(0), "unit": GaussInt(0, 1), "norm2": GaussInt(1, 1), "norm4": GaussInt(2)}
REFUSALS = {
    f"{call_id}-{value_id}": (call, value, f"{role} {value!r} is not a GaussInt")
    for call_id, (call, role, _) in HYPOTHESES.items()
    for value_id, value in NOT_GAUSSIAN.items()
    if not (call_id == "integers_dfa" and value_id == "int")  # an int is a real base there: integers_dfa(5) is one
} | {
    f"{call_id}-{value_id}": (call, z, f"{role} norm({z}) = {z.norm()} < {least}")
    for call_id, (call, role, least) in HYPOTHESES.items()
    for value_id, z in TOO_SMALL.items()
    if z.norm() < least
}


@pytest.mark.parametrize("call, value, message", REFUSALS.values(), ids=REFUSALS)
def test_a_base_generator_or_target_off_the_hypotheses_is_refused_by_name(call, value, message):
    with pytest.raises(InvalidInput) as exc:
        call(value)
    assert str(exc.value) == message


def test_the_hypotheses_hold_at_their_least_norms():
    assert integers_dfa(5).alphabet.base == GaussInt(5)
    assert is_power_of(GaussInt(-4), GaussInt(1, 1)) == 4 and mult_dependent(GaussInt(1, 1), GaussInt(0, 2)).dependent
    assert group_witness(A12, GaussInt(1, 1), GaussInt(0, 1), 1, 4, 8) is not None
    assert DigitSet(B21, D21.digits) == D21 and LengthBound(B21, 1).base.norm() == LEAST_BASE_NORM


# the counts that size the finite harnesses: one call for each count parameter, with its role and least value
L21, W21 = powers_oracle(A12, D21), encode(GaussInt(7, 3), D21)
COUNTS = {
    "recode.j": (lambda j: recode(W21, D21, j), "power exponent", 1),
    "power_digit_set.j": (lambda j: power_digit_set(D21, j), "power exponent", 1),
    "residual_signatures.k": (lambda k: residual_signatures(L21, k, 1), "k", 0),
    "residual_signatures.e": (lambda e: residual_signatures(L21, 1, e), "e", 0),
    "zero_pump_probe.k": (lambda k: zero_pump_probe(L21, W21, k, 2), "k", 1),
    "zero_pump_probe.reps": (lambda reps: zero_pump_probe(L21, W21, 1, reps), "reps", 0),
    "dfa_oracle_disagreement.max_len": (lambda n: dfa_oracle_disagreement(powers_dfa(B21), L21, n), "max_len", 0),
    "LengthBound.m3": (lambda m3: LengthBound(B21, m3), "m3", 0),
    "group_witness.err_num": (lambda num: group_witness(A12, B21, U1, num, 4, 8), "err_num", 0),
    "group_witness.err_den": (lambda den: group_witness(A12, B21, U1, 1, den, 8), "err_den", 1),
    "group_witness.m_max": (lambda m_max: group_witness(A12, B21, U1, 1, 4, m_max), "m_max", 0),
    "prefix_extension.n_min": (lambda n_min: prefix_extension(A12, B21, U1, n_min, 8), "n_min", 0),
    "prefix_extension.budget": (lambda budget: prefix_extension(A12, B21, U1, 0, budget), "budget", 0),
}
COUNT_REFUSALS = {
    f"{call_id}-{value_id}": (call, value, f"{role} {value!r} is not an int")
    for call_id, (call, role, least) in COUNTS.items()
    for value_id, value in {"float": float(least), "bool": bool(least), "none": None}.items()
} | {
    f"{call_id}-below": (call, least - 1, f"{role} = {least - 1} < {least}")
    for call_id, (call, role, least) in COUNTS.items()
}


@pytest.mark.parametrize("call, value, message", COUNT_REFUSALS.values(), ids=COUNT_REFUSALS)
def test_a_count_that_is_no_int_or_below_its_least_is_refused_by_name(call, value, message):
    """A float or a bool equal to a valid count is refused too: a bool is no count, and a float would be used
    where an exact int is meant."""
    with pytest.raises(InvalidInput) as exc:
        call(value)
    assert str(exc.value) == message


@pytest.mark.parametrize("call, least", [(call, least) for call, _, least in COUNTS.values()], ids=COUNTS)
def test_every_count_is_taken_at_its_least_value(call, least):
    call(least)


def test_a_negative_length_or_repetition_count_is_refused_before_any_work():
    """dfa_oracle_disagreement(d, L, -1) divided by a zero charge per candidate, a bare ZeroDivisionError, and
    zero_pump_probe(L, w, 1, -1) returned ()."""
    with pytest.raises(InvalidInput, match=r"^max_len = -1 < 0$"):
        dfa_oracle_disagreement(powers_dfa(B21), L21, -1)
    with pytest.raises(InvalidInput, match=r"^reps = -1 < 0$"):
        zero_pump_probe(L21, W21, 1, -1)


def parameter_checks(tree, function=None, params=(), norms=()):
    """(enclosing function, line) of every if whose body raises or returns InvalidInput and whose test names
    GaussInt (a type check), reads a norm (a .norm() call, or a name the function binds to one) or tests a
    parameter annotated GaussInt or int itself, by its truth, a comparison or its type, rather than its parts
    .re and .im."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            notes = {a.arg: ast.unparse(a.annotation) for a in arguments if a.annotation}
            checked = {name for name, note in notes.items() if "GaussInt" in note or note == "int"}
            bound = {
                target.id
                for assign in ast.walk(node)
                if isinstance(assign, ast.Assign) and any(map(_is_norm_call, ast.walk(assign.value)))
                for target in ast.walk(assign.targets[0])
                if isinstance(target, ast.Name)
            }
            yield from parameter_checks(node, node.name, checked, bound)
            continue
        if isinstance(node, ast.If) and any(map(_refuses, node.body)) and _checks(node.test, params, norms):
            yield function, node.lineno
        yield from parameter_checks(node, function, params, norms)


def _is_norm_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "norm"


def _refuses(statement) -> bool:
    """Whether statement raises or returns an InvalidInput it builds."""
    if not isinstance(statement, (ast.Raise, ast.Return)):
        return False
    value = statement.exc if isinstance(statement, ast.Raise) else statement.value
    return getattr(getattr(value, "func", None), "id", None) == "InvalidInput"


def _checks(test, params, norms) -> bool:
    """Whether test names GaussInt or reads a norm, or tests a GaussInt or int parameter itself: as the whole
    test, as an operand of not, and, or, or a comparison, or as what type() or isinstance() reads."""
    if any(_is_norm_call(node) or getattr(node, "id", None) in {"GaussInt", *norms} for node in ast.walk(test)):
        return True
    operators = [node for node in ast.walk(test) if isinstance(node, (ast.UnaryOp, ast.BoolOp, ast.Compare))]
    typed = [
        node.args[0]
        for node in ast.walk(test)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"type", "isinstance"} and node.args
    ]
    operands = [test, *(child for node in operators for child in ast.iter_child_nodes(node)), *typed]
    return any(getattr(node, "id", None) in params for node in operands)


# element checks: a listed digit set's digits and a word's digits are values, not parameters of the hypotheses, and
# a GaussInt's components and the exponent of its ** are operands of the arithmetic, not counts that size a harness
ELEMENT_CHECKS = {"numeration.py": {"_validated", "_not_a_digit"}, "gaussint.py": {"__init__", "__pow__"}}
ROUTINES = {"norm_at_least", "int_at_least"}


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_only_the_one_routine_refuses_a_base_generator_or_target(name):
    """And only int_at_least refuses a count: recode's inline test of j calls it, and builds no refusal."""
    checks = {function for function, _ in parameter_checks(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))}
    assert checks == ELEMENT_CHECKS.get(name, set()) | (ROUTINES if name == "gaussint.py" else set())


def test_the_guard_sees_each_kind_of_parameter_check():
    source = (
        "def search(a: GaussInt, b: 'GaussInt | int', u: GaussInt, k: int):\n"
        "    na = a.norm()\n"
        "    if na <= 1:\n        raise InvalidInput('dependence needs norms > 1')\n"
        "    if b.norm() < 5:\n        raise InvalidInput('norm(%s) < 5', b)\n"
        "    if not u:\n        raise InvalidInput('a nonzero target')\n"
        "    if type(b) is not GaussInt:\n        raise InvalidInput('not a GaussInt')\n"
        "    if not isinstance(k, int) or k < 1:\n        raise InvalidInput('k must be an int')\n"
        "    if b.im != 0 or b.re < 3 or mult_dependent(a, b).dependent:\n        raise InvalidInput('not real')\n"
        "    if not u:\n        raise BudgetExceeded('not InvalidInput')\n"
        "def _bad(w):\n"
        "    for d in w:\n"
        "        if not isinstance(d, GaussInt):\n            return InvalidInput('%s is not a digit', d)\n"
        "def probe(w, j: int, reps: int, cap: 'int | None'):\n"
        "    if type(j) is not int or j < 1:\n        int_at_least(j, 1, 'power exponent')\n"
        "    if type(reps) is not int:\n        raise InvalidInput('%s %r is not an int', 'reps', reps)\n"
        "    if reps < 0:\n        raise InvalidInput('reps must be nonnegative')\n"
        "    if not w or cap is not None and cap < 0:\n        raise InvalidInput('a nonempty word')\n"
        "    for value in (j, reps):\n"
        "        if value > 10:\n            raise InvalidInput('too large')\n"
    )
    assert list(parameter_checks(ast.parse(source))) == [
        ("search", 3),
        ("search", 5),
        ("search", 7),
        ("search", 9),
        ("search", 11),
        ("_bad", 19),
        ("probe", 24),
        ("probe", 26),
    ]
