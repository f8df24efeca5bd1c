"""Command-line front end: JSON reports over the library operations.

Every command prints a report {command, inputs, results, status}; output
is JSON by default with an optional --pretty rendering.  Exit codes: 0
ok, 2 not found (exhausted searches), 1 error.

A report's JSON text, on stdout and in the -o file, is exactly
json.dumps(report, indent=2, sort_keys=True), and a --dfa-out file is
exactly that text of its DFA, with no newline after it.  _render lays it
out by hand because json only runs its C encoder when indent is None:
with an indent every call builds and runs json's pure-Python encoder,
which took 14-18 us of a 65-75 us witness query (2 vCPUs, Python
3.11.7).  _render walks the dicts and lists itself and leaves strings
and ints to C, and a list of plain ints to one join.

Gaussian integers use the literal grammar `a`, `a+bi`, `a-bi` (e.g. 5,
2+1i, -1+2i); words are comma-separated digit literals, msd-first, with
the empty string for the empty word.  Literals starting with `-` must
follow a `--` separator, as usual for argparse.

The commands are one table, COMMANDS.  A plain command line (exact
flags, each option's value the next token, positionals, and everything
after one --) is read straight off its command's entry by _read_argv,
which builds no parser and gives a types.SimpleNamespace with the
attributes argparse's namespace would have.  Every other line goes to
the one argparse parser, which build_parser makes of the whole table on
the first such line of a process: -h, abbreviations, --flag=value and
-kVALUE forms, and every error, so help, usage and every error are
argparse's own.  The report is written to -o FILE before it is
printed, and a FILE that cannot be written turns it into an error
report (exit 1).

One int-to-str digit limit reads and one writes.  Every literal, an
argument or one a handler reads (a powers: set, a word, a DFA file's
base, digits and ints), is read under the interpreter's own limit, and
a part past it is refused by name: GaussInt.parse names a Gaussian
integer literal, _int_literal an integer option or a DFA file's int.
_text renders a report's text, an error's message included, under a
limit of at least OUTPUT_DIGITS, lifted for that render only: a report
prints integers of up to OUTPUT_DIGITS decimal digits, or more when the
interpreter's own limit is higher, and past that it is an error report
that names the limit.

A plain line imports neither argparse nor json, nor the re, enum and
gettext they load.  Most of a one-shot call is interpreter start-up, and
those modules took 8 of the 16 ms of importing this module (-X
importtime, -I -S, 2 vCPUs, Python 3.11.7).  argparse is imported on the
lines the reader declines (by build_parser, and by _refusal and _gauss
for a refused value), json by the DFA-file commands and by
_render for a float, and os only when stdout's reader has closed the
pipe.  Nor does the package load collections, functools or types: the
_Command record, build_parser's memo and the reader's namespace come
from gaussbase._records, and build_parser imports functools for its
formatter only after argparse has loaded it.  Strings are encoded by
_json's C encode_basestring_ascii, the function json.encoder itself binds.
"""

from __future__ import annotations

import sys
from math import isqrt

try:  # the C function json.encoder binds, without importing json and the re it loads
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the _json accelerator
    from json.encoder import encode_basestring_ascii

from ._records import SimpleNamespace, memo, record
from .automata import (
    dfa_from_json,
    dfa_oracle_disagreement,
    dfa_to_json,
    digit_set_to_json,
    equivalent,
    integers_dfa,
    integers_oracle,
    minimize,
    powers_dfa,
    powers_oracle,
    residual_signatures,
    run as dfa_run,
    word_of,
    zero_pump_probe,
)
from .dependence import group_witness, mult_dependent, prefix_extension
from .gaussint import BudgetExceeded, GaussInt, InvalidInput, past_digit_limit
from .numeration import (
    canonical_digit_set,
    decode,
    encode,
    lattice_disc,
    length_bound,
    real_power_exponent,
    word_from_text,
    word_to_text,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2

SCAN_BUDGET = 10**6  # candidate bases x (probe points + digit-set candidates) in scan-bases

# Python refuses to convert an int of more than 4300 digits to or from text by default
# (sys.set_int_max_str_digits, the CVE-2020-10735 guard).  Every literal is read under that
# limit (GaussInt.parse and _int_literal refuse a part past it by name); _text raises it to
# at least OUTPUT_DIGITS while it renders a report's text, and nowhere else: str() of a
# 50,000-digit int takes 40-55 ms (2 vCPUs, Python 3.11.7), and the cost grows quadratically
# with the digit count.
OUTPUT_DIGITS = 50_000


def _text(value, render=str) -> str:
    """render(value) for a report, under an int-to-str digit limit of at least OUTPUT_DIGITS.

    The interpreter's limit is raised for the render only and restored
    after; a limit of 0 (none) or above OUTPUT_DIGITS is kept, and a
    Python without the limit is left alone.  An int past the limit in
    force is refused by name.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    limit = saved and max(saved, OUTPUT_DIGITS)
    if limit != saved:
        sys.set_int_max_str_digits(limit)
    try:
        return render(value)
    except ValueError:  # int -> str refuses more digits than the limit
        raise BudgetExceeded(
            f"a result has an integer past the report's digit limit ({limit} digits): the CLI prints"
            f" integers of up to OUTPUT_DIGITS = {OUTPUT_DIGITS} decimal digits, or up to the"
            " interpreter's own limit when that is higher"
        ) from None
    finally:
        if limit != saved:
            sys.set_int_max_str_digits(saved)


def _count(text: str) -> int:
    """argparse type for budgets, depths and lengths: a non-negative int."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise _refusal(f"expected a non-negative integer, got {text!r}", text)


def _int(text: str) -> int:
    """argparse type for the ends of scan-bases' norm range: any int."""
    try:
        return int(text)
    except ValueError:
        pass
    raise _refusal(f"expected an integer, got {text!r}", text)


def _bound(text: str) -> tuple[int, int]:
    try:
        num, den = text.split("/", 1)
        return int(num), int(den)
    except ValueError:
        pass
    raise _refusal(f"bound must be NUM/DEN, got {text!r}", *(text.split("/", 1) if "/" in text else ()))


def _int_literal(text: str) -> int:
    """int(text) for a decimal numeral, which int() refuses only past the digit limit: refused by name."""
    try:
        return int(text)
    except ValueError:
        raise past_digit_limit("an integer literal", text) from None


def _refusal(message: str, *parts: str):
    """argparse's error for a value int() refused: _int_literal's, naming the digit limit, when a
    part is a decimal numeral, which int() refuses only past that limit; else message."""
    import argparse  # only a refused value loads argparse, which prints the message

    try:
        for part in parts:
            if part.isascii() and (part[1:] if part[:1] in "+-" else part).isdigit():
                _int_literal(part)
    except InvalidInput as exc:
        message = str(exc)
    return argparse.ArgumentTypeError(message)


def _gauss(text: str) -> GaussInt:
    """argparse type for Gaussian integers: GaussInt.parse, its refusal kept as the usage error."""
    try:
        return GaussInt.parse(text)
    except InvalidInput as exc:
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


def _echo(args, names: tuple[str, ...]) -> dict:
    """The named arguments as a report's inputs: Gaussian integers as literals, a bound as NUM/DEN."""
    values = {name: getattr(args, name) for name in names}
    return {
        name: str(v) if isinstance(v, GaussInt) else "%d/%d" % v if isinstance(v, tuple) else v
        for name, v in values.items()
    }


def _oracle_for(selector: str, base: GaussInt):
    """Parse the oracle selector `powers:GAUSS` or `integers`."""
    D = canonical_digit_set(base)
    if selector == "integers":
        return integers_oracle(D)
    if selector.startswith("powers:"):
        return powers_oracle(GaussInt.parse(selector.removeprefix("powers:")), D)
    raise InvalidInput(f"unknown set selector {selector!r}; use powers:GAUSS or integers")


def cmd_digits(args) -> tuple[dict, str]:
    D = canonical_digit_set(args.base)
    return {"digit_set": digit_set_to_json(D)}, "ok"


def cmd_encode(args) -> tuple[dict, str]:
    D = canonical_digit_set(args.base)
    w = encode(args.value, D)
    return {"word": word_to_text(w), "length": len(w)}, "ok"


def cmd_decode(args) -> tuple[dict, str]:
    D = canonical_digit_set(args.base)
    w = word_from_text(args.word)
    value = decode(w, D)
    return {"value": _text(value), "norm": _text(value.norm())}, "ok"


def cmd_scan_bases(args) -> tuple[dict, str]:
    lo = max(5, args.norm_min)
    refused = BudgetExceeded(
        f"scanning the bases of norm <= {args.norm_max} over the probe disc norm <= {args.disc}"
        f" takes more than the scan budget of {SCAN_BUDGET} steps"
    )

    def square(r2: int) -> int:
        # the disc's inscribed square bounds its point count from below without walking it
        return (2 * isqrt(r2 // 2) + 1) ** 2 if r2 >= 0 else 0

    if square(args.norm_max) > SCAN_BUDGET:
        raise refused
    bases = sum(1 for b in lattice_disc(args.norm_max) if b.norm() >= lo)
    if not bases:
        raise InvalidInput(f"no base of norm >= 5 in the norm range [{args.norm_min}, {args.norm_max}]")
    # a base encodes the probe disc and builds its digit set from about 4*norm candidates
    if bases * (square(args.disc) + 4 * args.norm_max) > SCAN_BUDGET:
        raise refused
    probes = list(lattice_disc(args.disc))
    if bases * (len(probes) + 4 * args.norm_max) > SCAN_BUDGET:
        raise refused
    rows = []
    all_pass = True
    for b in lattice_disc(args.norm_max):
        n = b.norm()
        if n < lo:
            continue
        D = canonical_digit_set(b)
        digit_count_ok = len(D.digits) == n
        words = [(z, encode(z, D)) for z in probes]
        roundtrip_ok = all(decode(w, D) == z for z, w in words)
        lb = length_bound(b)
        # within_bound is monotone in k, so some k <= k_max admits z with a
        # word longer than k exactly when k = min(len(w) - 1, k_max) does
        length_ok = not any(w and lb.within_bound(z, min(len(w) - 1, args.k_max)) for z, w in words)
        ok = digit_count_ok and roundtrip_ok and length_ok
        all_pass = all_pass and ok
        rows.append(
            {
                "base": str(b),
                "norm": n,
                "m3": lb.m3,
                "real_power_exponent": real_power_exponent(b),
                "digit_count_ok": digit_count_ok,
                "roundtrip_ok": roundtrip_ok,
                "length_bound_ok": length_ok,
                "pass": ok,
            }
        )
    return {"bases": rows, "all_pass": all_pass}, "ok"


def cmd_deptest(args) -> tuple[dict, str]:
    verdict = mult_dependent(args.a, args.b)
    return {"dependent": verdict.dependent, "r": verdict.r, "s": verdict.s}, "ok"


def cmd_witness(args) -> tuple[dict, str]:
    w = group_witness(args.a, args.b, args.u, *args.bound, args.m_max)
    if w is None:
        return {"searched_m_max": args.m_max}, "not_found"
    results = {
        "m": w.m,
        "n": w.n,
        "u": str(w.u),
        "err_num": w.err_num,
        "err_den": w.err_den,
        "certified": w.verify(),
    }
    return results, "ok"


def _prefix_witness_json(w) -> dict:
    return {
        "m": w.m,
        "n": w.n,
        "z": _text(w.z),
        "word_am": word_to_text(w.word_am),
        "word_u": word_to_text(w.word_u),
        "certified": w.certified,
    }


def cmd_prefix(args) -> tuple[dict, str]:
    chain = []
    u = args.u
    status = "ok"
    for level in range(args.depth + 1):
        # each level after the first adds at least one digit
        n_min = args.n_min if level == 0 else max(args.n_min, 1)
        w = prefix_extension(args.a, args.b, u, n_min, args.budget)
        if w is None:
            status = "not_found"
            break
        chain.append(_prefix_witness_json(w))
        if level < args.depth:  # the next level extends this level's word
            u = args.a**w.m
    results: dict = {"witness": chain[0] if chain else None}
    if args.depth > 0 or status == "not_found":
        results["chain"] = chain
        results["chain_depth_reached"] = max(0, len(chain) - 1)
    return results, status


def cmd_residuals(args) -> tuple[dict, str]:
    D = canonical_digit_set(args.b)

    def side(generator: GaussInt) -> dict:
        report = residual_signatures(powers_oracle(generator, D), args.k, args.e)
        return {
            "generator": str(generator),
            "class_count": report.class_count,
            "representatives": [word_to_text(word_of(D, name)) for name in report.representatives[:12]],
        }

    return {"target": side(args.a), "control": side(args.b)}, "ok"


def cmd_pump(args) -> tuple[dict, str]:
    oracle = _oracle_for(args.set, args.base)
    w = word_from_text(args.word)
    probe = zero_pump_probe(oracle, w, args.k, args.reps)
    return {"memberships": list(probe), "all_members": all(probe)}, "ok"


def _save_dfa(d, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_render(dfa_to_json(d)))


def _load_dfa(path: str):
    import json  # only the DFA-file commands read JSON

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refused an int past the digit limit: read again, for _int_literal to name it
        obj = json.loads(text, parse_int=_int_literal)
    return dfa_from_json(obj)


def cmd_dfa_make(args) -> tuple[dict, str]:
    d = integers_dfa(args.base) if args.kind == "integers" else powers_dfa(args.base)
    _save_dfa(d, args.dfa_out)
    return {"dfa": dfa_to_json(d)}, "ok"


def cmd_dfa_run(args) -> tuple[dict, str]:
    d = _load_dfa(args.file)
    w = word_from_text(args.word)
    return {"accepts": dfa_run(d, w)}, "ok"


def cmd_dfa_min(args) -> tuple[dict, str]:
    d = _load_dfa(args.file)
    m = minimize(d)
    _save_dfa(m, args.dfa_out)
    return {"states_before": d.state_count, "dfa": dfa_to_json(m)}, "ok"


def cmd_dfa_equiv(args) -> tuple[dict, str]:
    d1, d2 = _load_dfa(args.file), _load_dfa(args.file2)
    return {"equivalent": equivalent(d1, d2)}, "ok"


def cmd_dfa_falsify(args) -> tuple[dict, str]:
    d = _load_dfa(args.file)
    oracle = _oracle_for(args.set, d.alphabet.base)
    word = dfa_oracle_disagreement(d, oracle, args.max_len)
    results = {
        "disagreement": None if word is None else word_to_text(word),
        "agrees_up_to": args.max_len if word is None else None,
    }
    return results, "ok"


def cmd_verify(args) -> tuple[dict, str]:
    from . import verification  # only this command needs it, and it imports random

    results = verification.run_all()
    criteria = [
        {
            "name": r.name,
            "passed": r.passed,
            "seconds": round(r.seconds, 3),
            "budget_seconds": r.budget_seconds,
            "details": r.details,
            "failures": r.failures,
        }
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    status = "ok" if all_passed else "error"
    return {"criteria": criteria, "all_passed": all_passed}, status


_PLAIN_INTS = {int}  # the element types of a list that one join renders; a bool is not a plain int


def _render(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), with each leaf encoded by C code.

    pad is a newline and the indent of value's own line.  A string is
    encoded by json's C encode_basestring_ascii, an int by int.__repr__
    (past the int-to-str digit limit it raises json's ValueError), a list
    of plain ints in one join, None and the bools by name, and a float or
    any other leaf by json.dumps itself.  Dict keys are strings, as in
    every report: another key raises TypeError, where json writes its
    JSON text.  A circular value recurses until RecursionError, where
    json raises ValueError.
    """
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(key) + ": " + _render(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        plain = {*map(type, value)} == _PLAIN_INTS
        rows = map(int.__repr__, value) if plain else [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(rows) + pad + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    import json  # only verify's report has floats, so no other plain line loads json

    return json.dumps(value)


def _render_pretty(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render(value)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}- {_render(value)}")
    else:
        lines.append(f"{pad}{_render(obj)}")
    return lines


class _Command(record("_Command", "name help handler args subcommands inputs", defaults=(None, (), (), ()))):
    """One subcommand: its name, its help line (None lists no line), its handler and arguments.

    Fields: name (str), help (str | None), handler (Callable | None, a
    cmd_* function), args (tuple), subcommands (tuple[_Command, ...]) and
    inputs (tuple[str, ...]).  args holds (flags, add_argument options)
    pairs.  inputs names the parsed arguments the report echoes, in its
    order, whether the handler returns or raises.  A group such as dfa
    has subcommands instead, each with its own handler, the output flags
    and its own args, so those flags follow the subcommand.
    """

    __slots__ = ()


def _arg(*flags: str, **options) -> tuple:
    return flags, options


_BASE = _arg("-b", "--base", type=_gauss, required=True)
_A, _B, _U = (_arg(name, type=_gauss) for name in "abu")
_FILE = _arg("file")
_SET = _arg("--set", required=True, help="powers:GAUSS or integers")
# every command's output flags; the two store_true flags exclude each other
_OUTPUT = (
    _arg("--json", action="store_true", help="JSON report (default)"),
    _arg("--pretty", action="store_true", help="human-readable rendering"),
    _arg("-o", "--out", metavar="FILE", help="also write the JSON report to FILE"),
)

# every command of the CLI, in the order its help lists them; build_parser and _read_argv read this table
COMMANDS = {
    command.name: command
    for command in (
        _Command("digits", "canonical digit set of a base", cmd_digits, (_BASE,), inputs=("base",)),
        _Command(
            "encode", "word of a Gaussian integer", cmd_encode, (_BASE, _arg("value", type=_gauss)),
            inputs=("base", "value"),
        ),
        _Command("decode", "value of an msd-first word", cmd_decode, (
            _BASE, _arg("word", help="comma-separated digits, empty string for the empty word"),
        ), inputs=("base", "word")),
        _Command("scan-bases", "digit/roundtrip/length checks over a norm range", cmd_scan_bases, (
            _arg("--norm-min", type=_int, default=5),
            _arg("--norm-max", type=_int, default=30),
            _arg("--disc", type=_count, default=100, help="squared radius of the probe disc"),
            _arg("--k-max", type=_count, default=8),
        ), inputs=("norm_min", "norm_max", "disc", "k_max")),
        _Command("deptest", "multiplicative dependence verdict", cmd_deptest, (_A, _B), inputs=("a", "b")),
        _Command("witness", "certified |a^m/b^n - u| bound search", cmd_witness, (
            _A, _B, _U,
            _arg("--bound", type=_bound, default=(1, 25), metavar="NUM/DEN"),
            _arg("--m-max", type=_count, default=256),
        ), inputs=("a", "b", "u", "m_max", "bound")),
        _Command("prefix", "prefix-extension witness (optionally chained)", cmd_prefix, (
            _A, _B, _U,
            _arg("--n-min", type=_count, default=0),
            _arg("--budget", type=_count, default=256, help="largest exponent m searched"),
            _arg("--depth", type=_count, default=0, help="extra chain levels beyond the first witness"),
        ), inputs=("a", "b", "u", "n_min", "budget", "depth")),
        _Command("residuals", "residual classes of powers of a over base b", cmd_residuals, (
            _A, _B,
            _arg("-k", type=_count, default=4, help="prefix depth"),
            _arg("-e", type=_count, default=3, help="extension depth"),
        ), inputs=("a", "b", "k", "e")),
        _Command("pump", "insert zero blocks behind the leading digit", cmd_pump, (
            _BASE, _SET,
            _arg("--word", required=True),
            _arg("-k", type=_count, default=1, help="zeros per pump block"),
            _arg("--reps", type=_count, default=8),
        ), inputs=("base", "set", "word", "k", "reps")),
        _Command("dfa", "DFA engine over JSON automata", subcommands=(
            _Command("make", None, cmd_dfa_make, (
                _arg("kind", choices=("powers", "integers")),
                _BASE,
                _arg("--dfa-out", metavar="FILE", help="write the DFA JSON to FILE"),
            ), inputs=("kind", "base")),
            _Command("run", None, cmd_dfa_run, (_FILE, _arg("--word", required=True)), inputs=("file", "word")),
            _Command("min", None, cmd_dfa_min, (
                _FILE, _arg("--dfa-out", metavar="FILE", help="write the minimized DFA JSON to FILE"),
            ), inputs=("file",)),
            _Command("equiv", None, cmd_dfa_equiv, (_FILE, _arg("file2")), inputs=("file", "file2")),
            _Command(
                "falsify", None, cmd_dfa_falsify, (_FILE, _SET, _arg("--max-len", type=_count, default=6)),
                inputs=("file", "set", "max_len"),
            ),
        )),
        _Command("verify", "run the full verification suite", cmd_verify),
    )
}


def _add_command(group, command: _Command) -> None:
    """Register one table entry in a subparsers group: its output flags or subcommands, arguments and handler."""
    p = group.add_parser(command.name, **({} if command.help is None else {"help": command.help}))
    if command.subcommands:
        sub = p.add_subparsers(dest=f"{command.name}_command", required=True)
        for subcommand in command.subcommands:
            _add_command(sub, subcommand)
    else:
        mode = p.add_mutually_exclusive_group()
        for flags, options in _OUTPUT:
            (mode if "action" in options else p).add_argument(*flags, **options)
    for flags, options in command.args:
        p.add_argument(*flags, **options)
    if command.handler is not None:
        p.set_defaults(handler=command.handler, inputs=command.inputs)


@memo(None)  # built on the first line the reader declines, and reused by every later one
def build_parser():
    """The CLI's one argparse parser, with a subparser per COMMANDS entry.

    A subparser's prog is `gaussbase NAME`, and the command's name is set
    as `command` (a group's subcommand as `GROUP_command`).  Building it
    imports argparse, which a plain line never needs, and the functools
    that argparse has already loaded.
    """
    import argparse
    import functools

    class _Parser(argparse.ArgumentParser):
        """argparse exits usage errors with code 2; keep 2 reserved for not_found.

        Help and usage are laid out 100 columns wide whatever the terminal, so
        they do not depend on COLUMNS and building the parser never asks for
        the terminal size.
        """

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, formatter_class=functools.partial(argparse.HelpFormatter, width=100), **kwargs)

        def error(self, message: str):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_ERROR)

        def parse_known_args(self, args=None, namespace=None):
            # Python 3.11's argparse leaves a last -- over after an option but reads it after a
            # positional; it is left over in both cases, so no line turns valid by where it ends
            namespace, extras = super().parse_known_args(args, namespace)
            if args and args[-1] == "--" and extras[-1:] != ["--"]:
                extras.append("--")
            return namespace, extras

        def _get_values(self, action, arg_strings):
            # Python 3.11's argparse drops a "--" that it took as an argument's one value
            # (--base=--, or a second --), and gives [] without calling the type
            values = super()._get_values(action, arg_strings)
            if action.nargs is None and values == []:
                raise argparse.ArgumentError(action, "expected one argument")
            return values

    parser = _Parser(prog="gaussbase", description="Numeration systems for the Gaussian integers in a complex base.")
    sub = parser.add_subparsers(dest="command", required=True)
    for entry in COMMANDS.values():
        _add_command(sub, entry)
    return parser


def _dest(flags: tuple[str, ...]) -> str:
    """argparse's dest of an argument: a positional's name, else its first long flag's or its first flag's."""
    for flag in flags:
        if flag.startswith("--"):
            return flag[2:].replace("-", "_")
    return flags[0].lstrip("-").replace("-", "_") if flags[0].startswith("-") else flags[0]


# (command, entry) -> _reader_table's table of that COMMANDS entry, built on its first plain line;
# a plain dict and no memo, since it is a constant of COMMANDS that no cache clearing
# should make the next line rebuild
_READER_TABLES: dict[tuple[str, str], tuple] = {}


def _reader_table(group: str, command: _Command) -> tuple:
    """(specs, options, dests) of one COMMANDS entry: (dest, flags, options) of each argument, output
    flags first; each flag's (dest, options); and the positionals' dests, in order."""
    table = _READER_TABLES.get((group, command.name))
    if table is None:
        specs = [(_dest(flags), flags, opts) for flags, opts in (*_OUTPUT, *command.args)]
        options = {flag: (dest, opts) for dest, flags, opts in specs for flag in flags if flag.startswith("-")}
        dests = [dest for dest, flags, _ in specs if not flags[0].startswith("-")]
        table = _READER_TABLES[group, command.name] = specs, options, dests
    return table


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain command line, read off its COMMANDS entry; else None.

    Plain is: a command name, for a group its subcommand's name next,
    then the entry's exact flags, each option's value the next token
    when that token does not start with -, positionals that do not start
    with -, and every token after one -- that is not the last.  None
    hands the line to argparse: -h, abbreviations, --flag=value and
    -kVALUE forms, any other token starting with - before --, a repeated
    argument, -o with --out, a second --, --json with --pretty, a missing
    option, too few or too many positionals, a bad choice and a value
    whose type callable raises.  Arguments are store actions with a
    type, default, choices or required, and the store_true output flags.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values, rest = {"command": command.name}, argv[1:]
    if command.subcommands:
        group, command = command.name, next((sub for sub in command.subcommands if rest[:1] == [sub.name]), None)
        if command is None:
            return None
        values[f"{group}_command"], rest = command.name, rest[1:]
    specs, options, dests = _reader_table(values["command"], command)
    given, positionals, tokens = {}, [], iter(rest)
    for token in tokens:
        if token == "--":
            after = list(tokens)
            if not after or token in after:  # a last -- is a usage error, and argparse reads a second apart
                return None
            positionals += after
            break
        if not token.startswith("-"):
            positionals.append(token)
            continue
        dest, opts = options.get(token, (None, None))
        if dest is None or dest in given:
            return None
        if "action" in opts:  # a store_true flag takes no value
            given[dest] = True
        elif (value := next(tokens, "-")).startswith("-"):  # a missing value declines too
            return None
        else:
            given[dest] = value
    if len(positionals) != len(dests) or (given.get("json") and given.get("pretty")):
        return None
    given.update(zip(dests, positionals))
    try:
        for dest, _, opts in specs:
            if dest not in given:
                if opts.get("required"):
                    return None
                values[dest] = opts.get("default", False if "action" in opts else None)
            elif "action" in opts:
                values[dest] = True
            else:
                values[dest] = value = opts.get("type", str)(given[dest])
                if "choices" in opts and value not in opts["choices"]:
                    return None
    except Exception:  # argparse reports a refused value, or propagates what it does not catch
        return None
    return SimpleNamespace(**values, handler=command.handler, inputs=command.inputs)


def _parse_argv(argv: list[str]):
    """argv's namespace: read off the table when plain, else by build_parser's parser."""
    args = _read_argv(argv)
    return args if args is not None else build_parser().parse_args(argv)


def _report(command: str, inputs: dict, results: dict, status: str, message: str | None) -> dict:
    report = {"command": command, "inputs": inputs, "results": results, "status": status}
    if message is not None:
        report["message"] = message
    return report


def _respond(args) -> int:
    """Run the parsed command, write and print its report, and return the exit code.

    Every report, an error report too, echoes the command's inputs.
    """
    command = args.command if args.command != "dfa" else f"dfa {args.dfa_command}"
    inputs = _echo(args, args.inputs)
    try:
        report = _report(command, inputs, *args.handler(args), None)
        # rendered inside the try: an int past the int-to-str digit limit is refused by name
        text = _text(report, _render)
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        try:  # a library Message names its ints only now, under the report's limit
            message = _text(exc)
        except BudgetExceeded as refused:
            message = str(refused)
        report = _report(command, inputs, {}, "error", message or type(exc).__name__)
        text = _render(report)
    if args.out:  # written before stdout, so that a closed pipe cannot lose it
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            report = _report(command, inputs, {}, "error", f"cannot write the report to {args.out}: {exc.strerror or exc}")
            text = _render(report)
    code = {"ok": EXIT_OK, "not_found": EXIT_NOT_FOUND}.get(report["status"], EXIT_ERROR)
    try:
        print(_text(report, lambda report: "\n".join(_render_pretty(report))) if args.pretty else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; send the unflushed rest to devnull so that
        # the interpreter's flush at exit does not raise again
        import os  # only here: importing it loads stat and posixpath too

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return _respond(_parse_argv(argv))


if __name__ == "__main__":
    sys.exit(main())
