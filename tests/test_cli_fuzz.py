"""Fuzzed command lines and JSON files: every call ends in a report or a usage error.

A call that parses prints one JSON report whose status matches the exit
code (0 ok, 1 error, 2 not_found), as the text json.dumps(report,
indent=2, sort_keys=True) writes; one that does not parse is a usage
error with exit 1 and nothing on stdout.  Any other exception fails the
test.  The JSON loaders raise InvalidInput and nothing else.  And the
help pages and usage errors are pinned: cli_help.txt holds every help
page, and GOLDEN what the reader makes of each line of the lists that
once compared it with argparse.
"""

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gaussbase import InvalidInput, cli, verification
from gaussbase.automata import Dfa, dfa_to_json, digit_set_from_json, powers_dfa
from gaussbase.cli import COMMANDS, EXIT_ERROR, EXIT_OK, main
from gaussbase.gaussint import GaussInt
from gaussbase.numeration import DigitSet, canonical_digit_set

STATUS_OF_EXIT = {0: "ok", 1: "error", 2: "not_found"}

# zero, units, norms below 5, bases, huge components and garbage
literals = st.one_of(
    st.sampled_from(["0", "1", "-1", "0+1i", "0-1i", "1+1i", "-1-1i", "2", "0+2i"]),
    st.sampled_from(["2+1i", "1+2i", "-2+1i", "2-1i", "3", "-3", "1+3i", "3+1i", "0+3i", "2+3i"]),
    st.builds(lambda x, y: str(GaussInt(x, y)), st.integers(-12, 12), st.integers(-12, 12)),
    st.builds(lambda x, y: str(GaussInt(x, y)), st.integers(-(10**9), 10**9), st.integers(-3, 3)),
    st.text(alphabet="0123456789+-i., /e٣", max_size=8),
)
# small counts, and negative, non-integer and garbage ones
counts = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["0", "1", "2", "3"]),
    st.sampled_from(["-1", "-3", "1.5", "-0", "x", "", "1e3", "1/2", " 2"]),
)
words = st.one_of(
    st.lists(st.sampled_from(["1", "0", "-1", "0+1i", "0-1i"]), min_size=1, max_size=6).map(",".join),
    st.lists(literals, max_size=4).map(",".join),
    st.text(alphabet="01-+i,", max_size=10),
)
sets = st.one_of(st.just("integers"), literals.map("powers:{}".format), st.text(max_size=6))
bounds = st.one_of(
    st.builds("{}/{}".format, st.integers(-2, 10**6), st.integers(-2, 10**6)),
    st.text(alphabet="0123456789/-x", max_size=6),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
DFA_FIELDS = ("base", "digits", "states", "initial", "accepting", "transitions")


def _option(name, values):
    """--name=VALUE or -kVALUE, so that a value starting with '-' is not read as a flag."""
    flag = f"-{name}" if len(name) == 1 else f"--{name}="
    return values.map(lambda v: [flag + v])


def _positionals(*strategies):
    return st.tuples(*strategies).map(lambda vs: ["--", *vs])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [*name.split(), *(arg for part in ps for arg in part)])


def _maybe(strategy):
    return st.one_of(st.just([]), strategy)


@st.composite
def dfa_objects(draw):
    """A valid DFA's JSON with one field dropped, mistyped or out of range, or arbitrary JSON."""
    base = draw(st.sampled_from([GaussInt(2, 1), GaussInt(3), GaussInt(1, 2), GaussInt(-2, 1)]))
    D = canonical_digit_set(base)
    if draw(st.booleans()):  # another residue system: nonzero digits shifted by multiples of b
        D = DigitSet(base, tuple(d + base * GaussInt(draw(st.integers(-2, 2))) if d else d for d in D.digits))
    n = draw(st.integers(1, 4))
    rows = [[draw(st.integers(0, n - 1)) for _ in D.digits] for _ in range(n)]
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    obj = dfa_to_json(Dfa(D, draw(st.integers(0, n - 1)), rows, accepting))
    field = draw(st.sampled_from(DFA_FIELDS))
    how = draw(st.sampled_from(["keep", "drop", "mistype", "out_of_range", "arbitrary"]))
    if how == "drop":
        del obj[field]
    elif how == "mistype":
        obj[field] = draw(json_values)
    elif how == "out_of_range":
        bad = draw(st.sampled_from([-1, n, 10**30]))
        if field in ("states", "initial"):
            obj[field] = bad
        elif field == "accepting":
            obj[field] = [*obj[field], bad]
        elif field == "transitions":
            obj[field][draw(st.integers(0, n - 1))][0] = bad
        elif field == "digits":
            obj[field] = obj[field][:-1] + [str(GaussInt(bad))]
        else:
            obj[field] = str(GaussInt(bad, 1))
    elif how == "arbitrary":
        obj = draw(json_values)
    return obj


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One scratch path for a fuzzed DFA file and one holding a valid powers DFA."""
    root = tmp_path_factory.mktemp("fuzz")
    good = root / "powers.json"
    main(["dfa", "make", "powers", "-b", "2+1i", "--dfa-out", str(good)])
    return root / "fuzzed.json", good


def _argvs(fuzzed: str, good: str):
    dfa_file = st.sampled_from([fuzzed, good, fuzzed + ".missing"])
    return st.one_of(
        _command("digits", _option("base", literals)),
        _command("encode", _option("base", literals), _positionals(literals)),
        _command("decode", _option("base", literals), _positionals(words)),
        _command(
            "scan-bases",
            _maybe(_option("norm-min", st.integers(-5, 12).map(str))),
            _maybe(_option("norm-max", st.one_of(st.integers(-5, 16), st.integers(10**4, 10**30)).map(str))),
            _option("disc", st.one_of(counts, st.integers(0, 16).map(str), st.just(str(10**12)))),
            _maybe(_option("k-max", st.one_of(counts, st.just("100000000")))),
        ),
        _command("deptest", _positionals(literals, literals)),
        _command(
            "witness",
            _maybe(_option("bound", bounds)),
            _option("m-max", counts),
            _positionals(literals, literals, literals),
        ),
        _command(
            "prefix",
            _maybe(_option("n-min", counts)),
            _option("budget", counts),
            _maybe(_option("depth", counts)),
            _positionals(literals, literals, literals),
        ),
        _command("residuals", _option("k", counts), _option("e", counts), _positionals(literals, literals)),
        _command(
            "pump",
            _option("base", literals),
            _option("set", sets),
            _option("word", words),
            _maybe(_option("k", counts)),
            _option("reps", counts),
        ),
        _command("dfa make", _option("base", literals), _positionals(st.sampled_from(["powers", "integers", "other"]))),
        _command("dfa run", _option("word", words), _positionals(dfa_file)),
        _command("dfa min", _positionals(dfa_file)),
        _command("dfa equiv", _positionals(dfa_file, dfa_file)),
        _command("dfa falsify", _option("set", sets), _option("max-len", counts), _positionals(dfa_file)),
    )


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _json_dumps_text(stdout: str) -> str:
    """The text that json.dumps(indent=2, sort_keys=True) and print give the report stdout holds.

    The int-to-str digit limit is lifted while the report is read and
    written again, so that no int of the report is refused here.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        return json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"
    finally:
        set_limit(saved)


def _check_call(argv: list[str]) -> None:
    code, stdout = _run(argv)
    assert code in STATUS_OF_EXIT, (argv, code)
    if not stdout:  # the reader refused the command line
        assert code == EXIT_ERROR, argv
        return
    assert stdout == _json_dumps_text(stdout), argv
    report = json.loads(stdout)
    assert set(report) >= {"command", "inputs", "results", "status"}, argv
    assert report["status"] == STATUS_OF_EXIT[code], (argv, report)
    assert ("message" in report) == (report["status"] == "error"), (argv, report)


# no shrink phase: shrinking over whole CLI calls took more than 5 minutes on a renderer fault,
# which the README report test below reports as a minimal case in under a second
@settings(max_examples=300, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(data=st.data(), dfa_obj=dfa_objects())
def test_every_command_line_ends_in_a_report(files, data, dfa_obj):
    fuzzed, good = files
    fuzzed.write_text(json.dumps(dfa_obj))
    _check_call(data.draw(_argvs(str(fuzzed), str(good)), label="argv"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(dfa_objects(), st.fixed_dictionaries({}, optional={"base": json_values, "digits": json_values})))
def test_digit_set_loader_raises_only_invalid_input(obj):
    try:
        D = digit_set_from_json(obj)
    except InvalidInput:
        return
    assert len(D.digits) == D.base.norm()


def test_a_5000_digit_literal_is_a_usage_error():
    code, stdout = _run(["digits", "-b", "1" * 5000])
    assert (code, stdout) == (EXIT_ERROR, "")


# every help page, each under the command line that prints it
HELP_PAGES = Path(__file__).with_name("cli_help.txt")


def _pinned_pages() -> dict[str, str]:
    """PROG -> the help page that HELP_PAGES pins under `$ PROG -h` (or --help)."""
    blocks = HELP_PAGES.read_text(encoding="utf-8").split("$ ")[1:]
    return {line.rsplit(" ", 1)[0]: page for line, page in (block.split("\n", 1) for block in blocks)}


def _outcome(argv: list[str]):
    """What the reader makes of argv: the namespace it reads, its values as _echo renders them; `PROG: help`
    for a help page, which must be the pinned one; or the last line of a usage error, whose first line must
    be the usage line of PROG's pinned page, with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli._read_argv(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            return cli._echo(args, [name for name in vars(args) if name not in ("handler", "inputs")])
    pages = _pinned_pages()
    if code == EXIT_OK:
        assert err.getvalue() == "", argv
        return next((f"{prog}: help" for prog, page in pages.items() if page == out.getvalue()), "an unpinned page")
    assert (code, out.getvalue()) == (EXIT_ERROR, ""), argv
    usage, error = err.getvalue().splitlines()
    assert usage == pages[error.partition(": error: ")[0]].partition("\n")[0], argv
    return error


# each line of the lists below, and what the reader makes of it
GOLDEN = {
    "digits -h": "gaussbase digits: help",
    "encode -h": "gaussbase encode: help",
    "decode -h": "gaussbase decode: help",
    "scan-bases -h": "gaussbase scan-bases: help",
    "deptest -h": "gaussbase deptest: help",
    "witness -h": "gaussbase witness: help",
    "prefix -h": "gaussbase prefix: help",
    "residuals -h": "gaussbase residuals: help",
    "pump -h": "gaussbase pump: help",
    "dfa -h": "gaussbase dfa: help",
    "verify -h": "gaussbase verify: help",
    "dfa make --help": "gaussbase dfa make: help",
    "dfa run --help": "gaussbase dfa run: help",
    "dfa min --help": "gaussbase dfa min: help",
    "dfa equiv --help": "gaussbase dfa equiv: help",
    "dfa falsify --help": "gaussbase dfa falsify: help",
    "dfa --pretty make powers -b 2+1i": (
        "gaussbase dfa: error: argument command: invalid choice: '--pretty' (choose from 'make', 'run', 'min', "
        "'equiv', 'falsify')"
    ),
    "dfa -o report.json make powers -b 2+1i": (
        "gaussbase dfa: error: argument command: invalid choice: '-o' (choose from 'make', 'run', 'min', "
        "'equiv', 'falsify')"
    ),
    "dfa": "gaussbase dfa: error: the following arguments are required: command",
    "dfa make": "gaussbase dfa make: error: the following arguments are required: kind, -b/--base",
    "dfa mak powers -b 2+1i": (
        "gaussbase dfa: error: argument command: invalid choice: 'mak' (choose from 'make', 'run', 'min', "
        "'equiv', 'falsify')"
    ),
    "digits": "gaussbase digits: error: the following arguments are required: -b/--base",
    "digits --json --pretty -b 2+1i": "gaussbase digits: error: unrecognized arguments: --json",
    "deptest": "gaussbase deptest: error: the following arguments are required: a, b",
    "deptest 3+4i": "gaussbase deptest: error: the following arguments are required: b",
    "deptest 3+4i 2+1i extra": "gaussbase deptest: error: unrecognized arguments: extra",
    "deptest 3+4i 2+1i --bogus": "gaussbase deptest: error: unrecognized arguments: --bogus",
    "witness 1+2i 2+1i": "gaussbase witness: error: the following arguments are required: u",
    "prefix 1+2i 2+1i 1 --dept 1": "gaussbase prefix: error: unrecognized arguments: --dept 1",
    "verify now": "gaussbase verify: error: unrecognized arguments: now",
    "digits -b 2+1i extra more": "gaussbase digits: error: unrecognized arguments: extra more",
    "deptest -- 3+4i 2+1i extra": "gaussbase deptest: error: unrecognized arguments: extra",
    "deptest 3+4i 2+1i -- -x": "gaussbase deptest: error: unrecognized arguments: -x",
    "deptest 3+4i 2+1i -x": "gaussbase deptest: error: unrecognized arguments: -x",
    "verify -- now": "gaussbase verify: error: unrecognized arguments: now",
    "dfa run powers.json --word 1 extra": "gaussbase dfa run: error: unrecognized arguments: extra",
    "dfa run powers.json --word 1 -x": "gaussbase dfa run: error: unrecognized arguments: -x",
    "dfa min powers.json extra": "gaussbase dfa min: error: unrecognized arguments: extra",
    "dfa min powers.json -- -x y": "gaussbase dfa min: error: unrecognized arguments: -x y",
    "witness --m-m 5 1+2i 2+1i 1": "gaussbase witness: error: unrecognized arguments: --m-m 1",
    "witness --m-m=5 --b=1/2 1+2i 2+1i 1": "gaussbase witness: error: unrecognized arguments: --m-m=5 --b=1/2",
    "witness --m 5 1+2i 2+1i 1": "gaussbase witness: error: unrecognized arguments: --m 1",
    "scan-bases --norm 9": "gaussbase scan-bases: error: unrecognized arguments: --norm 9",
    "deptest --he": "gaussbase deptest: error: unrecognized arguments: --he",
    "deptest --help=x 3+4i 2+1i": "gaussbase deptest: error: unrecognized arguments: --help=x",
    "deptest --pretty=x 3+4i 2+1i": "gaussbase deptest: error: unrecognized arguments: --pretty=x",
    "prefix --depth=-1 1+2i 2+1i 1": (
        "gaussbase prefix: error: argument --depth: expected a non-negative integer, got '-1'"
    ),
    "prefix --n-min=2 --budget=7 -- 1+2i 2+1i 1": {
        "n_min": 2, "budget": 7, "a": "1+2i", "b": "2+1i", "u": "1", "pretty": False, "out": None,
        "depth": 0, "command": "prefix",
    },
    "dfa make powers --base=2+1i --dfa=x.json": "gaussbase dfa make: error: unrecognized arguments: --dfa=x.json",
    "deptest -h 3+4i 2+1i": "gaussbase deptest: help",
    "dfa make powers -b 2+1i --help": "gaussbase dfa make: help",
    "witness --m-max=5 1+2i 2+1i 1": {
        "m_max": 5, "a": "1+2i", "b": "2+1i", "u": "1", "pretty": False, "out": None,
        "bound": "1/25", "command": "witness",
    },
    "residuals -k4 1+2i 2+1i": {
        "k": 4, "a": "1+2i", "b": "2+1i", "pretty": False, "out": None, "e": 3,
        "command": "residuals",
    },
    "deptest -3 2+1i": {"a": "-3", "b": "2+1i", "pretty": False, "out": None, "command": "deptest"},
    "deptest -1+2i 2+1i": "gaussbase deptest: error: unrecognized arguments: -1+2i",
    "prefix --depth -1 1+2i 2+1i 1": (
        "gaussbase prefix: error: argument --depth: expected a non-negative integer, got '-1'"
    ),
    "witness 1+2i 2+1i 1 --m-max": "gaussbase witness: error: argument --m-max: expected one argument",
    "witness --m-max 5 --m-max 6 1+2i 2+1i 1": {
        "m_max": 6, "a": "1+2i", "b": "2+1i", "u": "1", "pretty": False, "out": None,
        "bound": "1/25", "command": "witness",
    },
    "deptest -o a.json --out b.json 3+4i 2+1i": {
        "out": "b.json", "a": "3+4i", "b": "2+1i", "pretty": False, "command": "deptest",
    },
    "deptest -- 3+4i -- 2+1i": "gaussbase deptest: error: unrecognized arguments: --",
    "deptest 3+4i 2+1i --": "gaussbase deptest: error: unrecognized arguments: --",
    "deptest -- 0 --": "gaussbase deptest: error: unrecognized arguments: --",
    "deptest --json --pretty 3+4i 2+1i": "gaussbase deptest: error: unrecognized arguments: --json",
    "pump -b 2+1i --set integers": "gaussbase pump: error: the following arguments are required: --word",
    "deptest 3+4i 2+1i 1": "gaussbase deptest: error: unrecognized arguments: 1",
    "dfa make other -b 2+1i": (
        "gaussbase dfa make: error: argument kind: invalid choice: 'other' (choose from 'powers', 'integers')"
    ),
    "deptest 3+4i x": "gaussbase deptest: error: argument b: not a Gaussian integer literal: 'x'",
    "witness --bound 1:2 1+2i 2+1i 1": "gaussbase witness: error: argument --bound: bound must be NUM/DEN, got '1:2'",
    "prefix --budget 1.5 1+2i 2+1i 1": (
        "gaussbase prefix: error: argument --budget: expected a non-negative integer, got '1.5'"
    ),
    "": "gaussbase: error: the following arguments are required: command",
    "bogus": (
        "gaussbase: error: argument command: invalid choice: 'bogus' (choose from 'digits', 'encode', "
        "'decode', 'scan-bases', 'deptest', 'witness', 'prefix', 'residuals', 'pump', 'dfa', 'verify')"
    ),
    "decode -b 1+2i -- --": "gaussbase decode: error: unrecognized arguments: --",
    "decode -b 0 -- --": "gaussbase decode: error: unrecognized arguments: --",
    "dfa equiv --  --": "gaussbase dfa equiv: error: unrecognized arguments: --",
    "-h": "gaussbase: help",
    "--help": "gaussbase: help",
    "Deptest 3+4i 2+1i": (
        "gaussbase: error: argument command: invalid choice: 'Deptest' (choose from 'digits', 'encode', "
        "'decode', 'scan-bases', 'deptest', 'witness', 'prefix', 'residuals', 'pump', 'dfa', 'verify')"
    ),
    "--pretty deptest 3+4i 2+1i": (
        "gaussbase: error: argument command: invalid choice: '--pretty' (choose from 'digits', 'encode', "
        "'decode', 'scan-bases', 'deptest', 'witness', 'prefix', 'residuals', 'pump', 'dfa', 'verify')"
    ),
    "witness 3+2i 2+1i 1 --": "gaussbase witness: error: unrecognized arguments: --",
    "deptest 3+4i 2+1i --json --": "gaussbase deptest: error: unrecognized arguments: --json --",
    "digits -b 2+1i --": "gaussbase digits: error: unrecognized arguments: --",
    "digits --base=--": "gaussbase digits: error: argument -b/--base: expected one argument",
    "dfa run powers.json --word=--": "gaussbase dfa run: error: argument --word: expected one argument",
    "digits -b " + "1" * 5000: (
        "gaussbase digits: error: argument -b/--base: a Gaussian integer literal with a part past"
        f" {sys.get_int_max_str_digits()} digits, the interpreter's limit: {'1' * 5000!r}"
    ),
}


@pytest.mark.parametrize(
    "argv", [["digits", "--base=--"], ["deptest", "--", "0", "--"], ["dfa", "run", "powers.json", "--word=--"]]
)
def test_a_dash_dash_taken_as_a_value_is_a_usage_error(argv):
    """-- is never a value, not even after =; after the separator, a second -- is left over."""
    assert _outcome(argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize(
    "argv",
    [
        ["deptest", "3+4i", "2+1i", "--"],
        ["witness", "3+2i", "2+1i", "1", "--"],
        ["deptest", "3+4i", "2+1i", "--json", "--"],
        ["digits", "-b", "2+1i", "--"],
    ],
    ids=" ".join,
)
def test_a_trailing_dash_dash_is_a_usage_error(argv):
    """A -- with nothing after it is left over, after an option, a positional or an unknown flag alike."""
    outcome = _outcome(argv)
    assert outcome == GOLDEN[" ".join(argv)] and outcome.endswith(" --")
    assert ": error: unrecognized arguments: " in outcome


HELP_ARGVS = [
    *([name, "-h"] for name in COMMANDS),
    *(["dfa", sub.name, "--help"] for sub in COMMANDS["dfa"].subcommands),
]
USAGE_ERRORS = [
    ["dfa", "--pretty", "make", "powers", "-b", "2+1i"],
    ["dfa", "-o", "report.json", "make", "powers", "-b", "2+1i"],
    ["dfa"],
    ["dfa", "make"],
    ["dfa", "mak", "powers", "-b", "2+1i"],
    ["digits"],
    ["digits", "--json", "--pretty", "-b", "2+1i"],
    ["deptest"],
    ["deptest", "3+4i"],
    ["deptest", "3+4i", "2+1i", "extra"],
    ["deptest", "3+4i", "2+1i", "--bogus"],
    ["witness", "1+2i", "2+1i"],
    ["prefix", "1+2i", "2+1i", "1", "--dept", "1"],
    ["verify", "now"],
    # leftovers
    ["digits", "-b", "2+1i", "extra", "more"],
    ["deptest", "--", "3+4i", "2+1i", "extra"],
    ["deptest", "3+4i", "2+1i", "--", "-x"],
    ["deptest", "3+4i", "2+1i", "-x"],
    ["verify", "--", "now"],
    ["dfa", "run", "powers.json", "--word", "1", "extra"],
    ["dfa", "run", "powers.json", "--word", "1", "-x"],
    ["dfa", "min", "powers.json", "extra"],
    ["dfa", "min", "powers.json", "--", "-x", "y"],
    # abbreviations, which are unknown flags, and --flag=value forms
    ["witness", "--m-m", "5", "1+2i", "2+1i", "1"],
    ["witness", "--m-m=5", "--b=1/2", "1+2i", "2+1i", "1"],
    ["witness", "--m", "5", "1+2i", "2+1i", "1"],
    ["scan-bases", "--norm", "9"],
    ["deptest", "--he"],
    ["deptest", "--help=x", "3+4i", "2+1i"],
    ["deptest", "--pretty=x", "3+4i", "2+1i"],
    ["prefix", "--depth=-1", "1+2i", "2+1i", "1"],
    ["prefix", "--n-min=2", "--budget=7", "--", "1+2i", "2+1i", "1"],
    ["dfa", "make", "powers", "--base=2+1i", "--dfa=x.json"],
]


def test_every_help_page_is_the_pinned_one():
    """The top level's page, each command's and each dfa subcommand's, as HELP_PAGES holds them."""
    pages = []
    for argv in [["-h"], *HELP_ARGVS]:
        code, stdout = _run(argv)
        assert code == EXIT_OK
        pages.append(f"$ gaussbase {' '.join(argv)}\n{stdout}")
    assert "".join(pages) == HELP_PAGES.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", HELP_ARGVS + USAGE_ERRORS, ids=" ".join)
def test_one_command_parser_gives_the_same_help_and_errors(argv):
    """The CLI's one command parser, _read_argv, prints the pinned help and usage errors."""
    assert _outcome(argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize(
    "argv", [[], ["-h"], ["--help"], ["bogus"], ["Deptest", "3+4i", "2+1i"], ["--pretty", "deptest", "3+4i", "2+1i"]]
)
def test_an_argv_without_a_leading_command_is_read_by_the_top_level(argv):
    """The top level reads such a line: its help, or a usage error that names the missing or unknown command."""
    assert _outcome(argv) == GOLDEN[" ".join(argv)]


# the text of each argument type in COMMANDS, one its type callable takes
TYPED_VALUES = {
    GaussInt.parse: st.builds(lambda x, y: str(GaussInt(x, y)), st.integers(-(10**6), 10**6), st.integers(-3, 3))
    | st.sampled_from(["-1+2i", "0-1i", "7"]),
    cli._count: st.integers(0, 10**6).map(str),
    cli._int: st.integers(-40, 40).map(str),
    cli._bound: st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(1, 10**6)),
    # never "--": placed after the separator, a second -- is refused
    None: st.text(alphabet="ab01,+-i:./ ", max_size=8).filter(lambda text: text != "--"),
}
GARBAGE = st.sampled_from(["", "x", "1.5", "1:2", "1e3", "٣", "1" * 5000])


@st.composite
def plain_argvs(draw):
    """(argv, namespace): a plain command line of a COMMANDS entry, and the namespace its table gives it,
    or None when a value may be garbage or outside the choices.

    Options, each as FLAG VALUE with any of its flags, and the output
    flags (--pretty, -o or --out) are shuffled among the
    positionals that precede --; the others, any of them starting with
    -, follow one --.  An option's value never starts with -.  The
    namespace holds each value as its type reads it, and each default.
    """
    command = COMMANDS[draw(st.sampled_from(list(COMMANDS)))]
    argv = [command.name]
    if command.subcommands:
        command = draw(st.sampled_from(command.subcommands))
        argv.append(command.name)
    valid = draw(st.integers(0, 3)) > 0
    namespace = {"command": " ".join(argv), "handler": command.handler, "inputs": command.inputs}

    def value(dest, options, option=False):
        typed = st.sampled_from(options["choices"]) if "choices" in options else TYPED_VALUES[options.get("type")]
        text = draw(typed if valid else typed | GARBAGE | st.just("other"))
        text = text.lstrip("-") if option else text
        namespace[dest] = options.get("type", str)(text) if valid else None
        return text

    mode = draw(st.sampled_from(["pretty", None]))
    chunks = [[f"--{mode}"] if mode else []]
    positionals = []
    for dest, flags, options in (*cli._OUTPUT, *command.args):
        namespace[dest] = options.get("default")
        if not flags[0].startswith("-"):
            positionals.append(value(dest, options))
        elif "action" not in options and (options.get("required") or draw(st.booleans())):
            chunks.append([draw(st.sampled_from(flags)), value(dest, options, option=True)])
    if mode:
        namespace[mode] = True
    lead = draw(st.integers(0, len(positionals)))
    lead = next((i for i, text in enumerate(positionals[:lead]) if text.startswith("-")), lead)
    order = draw(st.permutations([True] * lead + [False] * len(chunks)))
    chunks, leading = iter(draw(st.permutations(chunks))), iter(positionals[:lead])
    for is_positional in order:
        argv.extend([next(leading)] if is_positional else next(chunks))
    if lead < len(positionals):
        argv.extend(["--", *positionals[lead:]])
    return argv, namespace if valid else None


OUTPUT_DEFAULTS = {"pretty": False, "out": None}


@settings(max_examples=400, deadline=None)
@given(plain_argvs())
@example((
    ["decode", "-b", "2+1i", "--", ""],
    {**OUTPUT_DEFAULTS, "base": GaussInt(2, 1), "word": "", "command": "decode", "handler": cli.cmd_decode,
     "inputs": ("base", "word")},
))
@example((
    ["dfa", "make", "-o", "r.json", "integers", "--pretty", "--base", "2+1i"],
    {**OUTPUT_DEFAULTS, "out": "r.json", "pretty": True, "base": GaussInt(2, 1), "kind": "integers", "dfa_out": None,
     "command": "dfa make", "handler": cli.cmd_dfa_make, "inputs": ("kind", "base")},
))
@example((
    ["witness", "1+2i", "--m-max", "9", "--", "-2+1i", "-1+2i"],
    {**OUTPUT_DEFAULTS, "m_max": 9, "a": GaussInt(1, 2), "b": GaussInt(-2, 1), "u": GaussInt(-1, 2), "bound": (1, 25),
     "command": "witness", "handler": cli.cmd_witness, "inputs": ("a", "b", "u", "m_max", "bound")},
))
def test_the_reader_gives_the_tables_namespace_for_plain_command_lines(case):
    """A plain line reads as its table says, or, with a value that may be garbage, is a usage error."""
    argv, namespace = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            read = vars(cli._read_argv(argv))
        except SystemExit as exc:
            read = exc.code
    if namespace is None and read == EXIT_ERROR:
        assert out.getvalue() == "" and err.getvalue(), argv
    else:
        assert read == namespace or namespace is None, argv


# a second -- after the separator
SECOND_SEPARATORS = [["decode", "-b", "1+2i", "--", "--"], ["decode", "-b", "0", "--", "--"], ["dfa", "equiv", "--", "", "--"]]


@pytest.mark.parametrize("argv", SECOND_SEPARATORS, ids=" ".join)
def test_a_second_separator_is_left_over(argv):
    """The reader leaves a second -- over, a usage error."""
    assert _outcome(argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["deptest", "-1.5", "2+1i"], "gaussbase deptest: error: unrecognized arguments: -1.5"),
        (["prefix", "1+2i", "2+1i", "1", "--budget", "-1.5"], "gaussbase prefix: error: argument --budget: expected one argument"),
        (["deptest", "-٣", "2+1i"], "gaussbase deptest: error: unrecognized arguments: -٣"),
    ],
    ids=["positional", "option_value", "non_ascii_digit"],
)
def test_only_a_negative_numeral_may_start_with_a_dash(argv, error):
    """A token starting with - is a value exactly when it is a numeral (DECLINED reads -3): no command
    reads a float, so -1.5 reads as a flag, an unknown one or one where a value was expected, as does -٣."""
    assert _outcome(argv) == error


DECLINED = [
    ["deptest", "-h", "3+4i", "2+1i"],
    ["dfa", "make", "powers", "-b", "2+1i", "--help"],
    ["witness", "--m-m", "5", "1+2i", "2+1i", "1"],
    ["witness", "--m-max=5", "1+2i", "2+1i", "1"],
    ["residuals", "-k4", "1+2i", "2+1i"],
    ["deptest", "-3", "2+1i"],
    ["deptest", "-1+2i", "2+1i"],
    ["prefix", "--depth", "-1", "1+2i", "2+1i", "1"],
    ["witness", "1+2i", "2+1i", "1", "--m-max"],
    ["witness", "--m-max", "5", "--m-max", "6", "1+2i", "2+1i", "1"],
    ["deptest", "-o", "a.json", "--out", "b.json", "3+4i", "2+1i"],
    ["deptest", "--", "3+4i", "--", "2+1i"],
    ["deptest", "3+4i", "2+1i", "--"],
    ["deptest", "--", "0", "--"],
    ["deptest", "--json", "--pretty", "3+4i", "2+1i"],
    ["digits"],
    ["pump", "-b", "2+1i", "--set", "integers"],
    ["deptest", "3+4i"],
    ["deptest", "3+4i", "2+1i", "1"],
    ["dfa", "make", "other", "-b", "2+1i"],
    ["deptest", "3+4i", "x"],
    ["witness", "--bound", "1:2", "1+2i", "2+1i", "1"],
    ["prefix", "--budget", "1.5", "1+2i", "2+1i", "1"],
    ["digits", "-b", "1" * 5000],
    ["dfa"],
    ["dfa", "--pretty", "make", "powers", "-b", "2+1i"],
    [],
    ["bogus"],
]


@pytest.mark.parametrize("argv", DECLINED + HELP_ARGVS + USAGE_ERRORS, ids=lambda argv: " ".join(argv)[:60])
def test_the_reader_declines_what_argparse_must_read(argv, tmp_path, monkeypatch):
    """The lines the reader once declined to argparse (help, the other forms of an option, and every usage
    error) are the reader's own: main ends each in its pinned help or usage error, or in a report of the
    command and inputs it reads."""
    monkeypatch.chdir(tmp_path)  # an -o file lands here
    expected = GOLDEN[" ".join(argv)]
    if isinstance(expected, str):
        assert _outcome(argv) == expected
        return
    code, stdout = _run(argv)
    report = json.loads(stdout)
    assert report["status"] == STATUS_OF_EXIT[code] != "error", argv
    assert report["command"] == expected["command"]
    assert report["inputs"] == {name: expected[name] for name in report["inputs"]}


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_argvs() -> list[list[str]]:
    """The argv of every `gaussbase ...` line of the README."""
    lines = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()]
    # the loop variable of the residuals example stands for one of its values
    return [shlex.split(line.partition("#")[0].replace("$k", "4"))[1:] for line in lines if line.startswith("gaussbase ")]


def test_the_reader_reads_every_readme_command_line():
    argvs = _readme_argvs()
    assert len(argvs) >= 15
    for argv in argvs:
        assert isinstance(_outcome(argv), dict), argv


def test_every_readme_report_is_json_dumps_text_on_stdout_and_in_its_files(tmp_path, monkeypatch):
    """Each README line, with -o: stdout is the report as json.dumps writes it, the -o file is stdout,
    and the --dfa-out file is json.dumps of its DFA with no newline after it."""
    monkeypatch.chdir(tmp_path)  # dfa make writes powers.json, which dfa falsify reads
    # verify runs criteria 4-10 only, which take milliseconds; the acceptance tests run all ten
    monkeypatch.setattr(verification, "ALL_CHECKS", verification.ALL_CHECKS[3:])
    out = tmp_path / "report.json"
    commands = set()
    for argv in _readme_argvs():
        at = 2 if argv[0] == "dfa" else 1  # the output flags follow a group's subcommand
        code, stdout = _run([*argv[:at], "-o", str(out), *argv[at:]])
        assert json.loads(stdout)["status"] == STATUS_OF_EXIT[code] != "error", argv
        assert stdout == _json_dumps_text(stdout), argv
        assert out.read_text(encoding="utf-8") == stdout, argv
        commands.add(" ".join(argv[:at]))
    assert {"verify", "dfa make", "prefix", "scan-bases"} <= commands
    made = (tmp_path / "powers.json").read_text(encoding="utf-8")
    assert made == json.dumps(dfa_to_json(powers_dfa(GaussInt(2, 1))), indent=2, sort_keys=True)
