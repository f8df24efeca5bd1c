"""Command-line front end: JSON reports over the library operations.

Every command prints a report {command, inputs, results, status}; output
is JSON, or with --pretty a human-readable rendering.  Exit codes: 0 ok,
2 not found (exhausted searches), 1 error.

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
the empty string for the empty word.  _read_argv reads every command
line off one table, COMMANDS: a command's name (for a group, its
subcommand's name next), then its flags, options and positionals in any
order, and every token after one -- as a positional.  An option's value
is the next token, or follows = (--m-max=64) or a one-letter flag (-k4);
only such a value, a token after --, or a negative numeral (-3) may start
with -: no command reads a float, so -1.5 reads as a flag.  The last of a
repeated option counts; flags have no abbreviations.  A usage error
prints the usage line and `PROG: error: MESSAGE` to stderr and exits 1.
The report is written to -o FILE before it is printed; a FILE that
cannot be written makes it an error report.

One numeral grammar, and one int-to-str digit limit reads and one
writes.  Every integer read from text, an integer option's value, a
bound's two parts, a DFA file's int or a Gaussian literal's part, is
gaussint.is_numeral's ASCII [+-]?[0-9]+ (so 1_000, ' 5' and a non-ASCII
digit are usage errors), converted by gaussint.numerals under the
interpreter's own limit once every part has that shape, and a part past
it is refused by name: an integer literal, or a Gaussian integer literal
with a part past the limit.  _text renders a report's text under a limit
of at least OUTPUT_DIGITS, lifted for that render only, and a library
error's message too, which formats the values it names only when read:
a report prints integers of up to OUTPUT_DIGITS decimal digits, or more
when the interpreter's own limit is higher, and past that it is an error
report that names the limit.

No line imports argparse, nor json but for a DFA file or a float, nor
the re, enum and gettext they load, which took 8 of the 16 ms of
importing this module (-X importtime, -I -S, 2 vCPUs, Python 3.11.7).
os is imported only when stdout's reader has closed the pipe, and
collections, functools and types not at all: the _Command record and
the namespace come from gaussbase._records.  Strings are encoded by
_json's C encode_basestring_ascii, the function json.encoder binds.
"""

from __future__ import annotations

import sys

try:  # the C function json.encoder binds, without importing json and the re it loads
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the _json accelerator
    from json.encoder import encode_basestring_ascii

from ._records import SimpleNamespace, record
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
from .gaussint import LEAST_BASE_NORM, BudgetExceeded, GaussInt, InvalidInput, formatted, is_numeral, numeral, numerals
from .numeration import (
    SCAN_BUDGET,
    canonical_digit_set,
    decode,
    encode,
    inscribed_square,
    lattice_disc,
    length_bound,
    real_power_exponent,
    word_from_text,
    word_to_text,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2

# Python refuses to convert an int of more than 4300 digits to or from text by default
# (sys.set_int_max_str_digits, the CVE-2020-10735 guard).  Every literal is read under that
# limit (gaussint.numerals refuses a part past it by name); _text raises it to at least
# OUTPUT_DIGITS while it renders a report's text, and nowhere else: str() of a 50,000-digit
# int takes 40-55 ms (2 vCPUs, Python 3.11.7), and the cost grows quadratically with the
# digit count.
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
    """Type of budgets, depths and lengths: a non-negative int."""
    value = numeral(text)
    if value is None or value < 0:
        raise InvalidInput(f"expected a non-negative integer, got {text!r}")
    return value


def _int(text: str) -> int:
    """Type of the ends of scan-bases' norm range: any int."""
    value = numeral(text)
    if value is None:
        raise InvalidInput(f"expected an integer, got {text!r}")
    return value


def _bound(text: str) -> tuple[int, int]:
    """Type of witness's --bound, NUM/DEN: both numerals (without a /, DEN is empty), read by numerals."""
    num, _, den = text.partition("/")
    bound = numerals((num, den))
    if bound is None:
        raise InvalidInput(f"bound must be NUM/DEN, got {text!r}")
    return tuple(bound)


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
    lo = max(LEAST_BASE_NORM, args.norm_min)
    refused = BudgetExceeded(
        f"scanning the bases of norm <= {args.norm_max} over the probe disc norm <= {args.disc}"
        f" takes more than the scan budget of {SCAN_BUDGET} steps"
    )

    # a disc's inscribed square bounds its point count from below without walking it
    if inscribed_square(args.norm_max) > SCAN_BUDGET:
        raise refused
    bases = sum(1 for b in lattice_disc(args.norm_max) if b.norm() >= lo)
    if not bases:
        raise InvalidInput(f"no base of norm >= {LEAST_BASE_NORM} in the norm range [{args.norm_min}, {args.norm_max}]")
    # a base encodes the probe disc and builds its digit set from about 4*norm candidates
    if bases * (inscribed_square(args.disc) + 4 * args.norm_max) > SCAN_BUDGET:
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
    return dfa_from_json(json.loads(text, parse_int=numeral))


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
    else:
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}- {_render(value)}")
    return lines


class _Command(record("_Command", "name help handler args subcommands inputs", defaults=(None, (), (), ()))):
    """One subcommand: its name, its help line, its handler and arguments.

    Fields: name (str), help (str | None), handler (Callable | None, a cmd_*
    function), args (tuple of _arg's triples), subcommands (tuple[_Command,
    ...]) and inputs (tuple[str, ...]), the arguments the report echoes, in
    its order, whether the handler returns or raises.  A group such as dfa
    has subcommands instead, each with its own handler, the output flags and
    its own args, so those flags follow the subcommand.
    """

    __slots__ = ()


def _arg(*flags: str, **options) -> tuple:
    """(dest, flags, options) of an option (flags start with -) or a required positional; dest is its last flag's
    (--m-max: m_max).  options may hold type (str by default; it raises InvalidInput), default, required,
    choices, metavar, help, and action: "help" or "store_true" for a flag without value."""
    if not flags[0].startswith("-"):
        options["required"] = True
    return flags[-1].lstrip("-").replace("-", "_"), flags, options


_HELP = _arg("-h", "--help", action="help", help="show this help message and exit")
_BASE = _arg("-b", "--base", type=GaussInt.parse, required=True)
_A, _B, _U = (_arg(name, type=GaussInt.parse) for name in "abu")
_FILE = _arg("file")
_SET = _arg("--set", required=True, help="powers:GAUSS or integers")
# every command's output flags
_OUTPUT = (
    _arg("--pretty", action="store_true", default=False, help="human-readable rendering"),
    _arg("-o", "--out", metavar="FILE", help="also write the JSON report to FILE"),
)

# every command of the CLI, as the top level's subcommands, in the order its help lists them
_TOP = _Command("gaussbase", "Numeration systems for the Gaussian integers in a complex base.", subcommands=(
    _Command("digits", "canonical digit set of a base", cmd_digits, (_BASE,), inputs=("base",)),
    _Command(
        "encode", "word of a Gaussian integer", cmd_encode, (_BASE, _arg("value", type=GaussInt.parse)),
        inputs=("base", "value"),
    ),
    _Command("decode", "value of an msd-first word", cmd_decode, (
        _BASE, _arg("word", help="comma-separated digits, empty string for the empty word"),
    ), inputs=("base", "word")),
    _Command("scan-bases", "digit/roundtrip/length checks over a norm range", cmd_scan_bases, (
        _arg("--norm-min", type=_int, default=LEAST_BASE_NORM),
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
))
COMMANDS = {command.name: command for command in _TOP.subcommands}
_READER_TABLES: dict[str, tuple] = {}


def _reader_table(prog: str, command: _Command) -> tuple:
    """prog's table, built on its first line and kept in _READER_TABLES, which no cache clearing empties: a group's
    positional naming its subcommand, its choices each subcommand by name; else a command's (options, positionals,
    defaults, required): each flag's argument, -h and --help too; its positionals; each default; required names."""
    table = _READER_TABLES.get(prog)
    if table is None and command.subcommands:
        table = _READER_TABLES[prog] = _arg("command", choices={sub.name: sub for sub in command.subcommands})
    elif table is None:
        specs = (*_OUTPUT, *command.args)
        options = {flag: spec for spec in (_HELP, *specs) for flag in spec[1] if flag[0] == "-"}
        defaults = {dest: opts.get("default") for dest, _, opts in specs}
        required = [(dest, "/".join(flags)) for dest, flags, opts in specs if opts.get("required")]
        table = _READER_TABLES[prog] = options, [spec for spec in specs if spec[1][0][0] != "-"], defaults, required
    return table


def _flag_like(text: str) -> bool:
    """Whether text reads as a flag: it starts with - and is no numeral (-3 is a value, -1.5 a flag).

    A numeral past the digit limit is a value, which its argument's type refuses by name.
    """
    return text[:1] == "-" and not is_numeral(text)


def _value(spec: tuple, text: str):
    """text read by the argument's type, str when it has none, and within its choices; else InvalidInput naming it."""
    _, flags, options = spec
    try:
        value = options.get("type", str)(text)
        if "choices" not in options or value in options["choices"]:
            return value
        message = f"invalid choice: {text!r} (choose from {', '.join(map(repr, options['choices']))})"
    except InvalidInput as exc:
        message = exc
    raise InvalidInput(f"argument {'/'.join(flags)}: {message}")


def _shown(spec: tuple, flags: tuple[str, ...]) -> str:
    """How usage and help show an argument: each of flags with its value's name, or a positional's name or {choices}."""
    dest, _, options = spec
    name = "{" + ",".join(options["choices"]) + "}" if "choices" in options else options.get("metavar", dest)
    if flags[0][0] != "-":
        return name
    return ", ".join(flag if "action" in options else f"{flag} {name.upper()}" for flag in flags)


def _usage(prog: str, command: _Command) -> str:
    """prog's usage line: -h, the options, then the positionals."""
    if command.subcommands:
        return f"usage: {prog} [-h] {_shown(_reader_table(prog, command), ('command',))} ..."
    specs = sorted((*_OUTPUT, *command.args), key=lambda spec: spec[1][0][0] != "-")  # options first
    shown = [(_shown(spec, spec[1][:1]), spec[2]) for spec in specs]
    parts = [text if options.get("required") else f"[{text}]" for text, options in shown]
    return f"usage: {prog} [-h] {' '.join(parts)}"


def _exit_with_help(prog: str, command: _Command):
    """Print prog's usage line, its entry's help line and a row per argument and subcommand, and exit 0."""
    specs = (_HELP, *_OUTPUT, *command.args) if command.handler else (_HELP,)
    rows = [(_shown(spec, spec[1]), spec[2].get("help", "")) for spec in specs]
    rows += [(sub.name, sub.help or "") for sub in command.subcommands]
    lines = "\n".join(f"  {shown:20}  {help}".rstrip() for shown, help in rows)
    sys.stdout.write("\n\n".join(filter(None, [_usage(prog, command), command.help, "arguments:\n" + lines])) + "\n")
    raise SystemExit(EXIT_OK)


def _read_argv(argv: list[str]) -> SimpleNamespace:
    """argv's namespace: each argument's dest, the command's name (`dfa make` for a group's subcommand) as
    `command`, its handler and inputs.  Help exits 0 and a usage error 1."""
    prog, command, values = "gaussbase", _TOP, {}
    try:
        while command.subcommands:  # the top level, then a group such as dfa: -h or a subcommand's name
            if not argv:
                raise InvalidInput("the following arguments are required: command")
            if argv[0] in ("-h", "--help"):
                _exit_with_help(prog, command)
            choice = _reader_table(prog, command)
            name = _value(choice, argv[0])
            command, argv, prog = choice[2]["choices"][name], argv[1:], f"{prog} {name}"
        options, positionals, defaults, required = _reader_table(prog, command)
        held, extras, tokens = [], [], iter(argv)
        for token in tokens:
            if token == "--":
                after = list(tokens)
                extras += ["--"] if not after or "--" in after else []  # nothing after it, or a second one
                held += [text for text in after if text != "--"]
                break
            spec, value = options.get(token), None
            if spec is None:
                if not _flag_like(token):
                    held.append(token)
                    continue
                flag, equals, value = token.partition("=")  # --flag=value, or -kVALUE
                spec = options.get(flag) if equals else None
                if spec is None and token[1:2] != "-":
                    spec, value = options.get(token[:2]), token[2:]
                if spec is None or "action" in spec[2]:  # unknown, or a flag without value given one
                    extras.append(token)
                    continue
            dest, flags, opts = spec
            if opts.get("action") == "help":
                _exit_with_help(prog, command)
            if "action" in opts:  # --pretty, a flag without value
                values[dest] = True
            elif (value is None and _flag_like(value := next(tokens, "-"))) or value == "--":  # -- is never a value
                raise InvalidInput(f"argument {'/'.join(flags)}: expected one argument")
            else:
                values[dest] = _value(spec, value)
        values.update((spec[0], _value(spec, text)) for spec, text in zip(positionals, held))
        extras += held[len(positionals) :]
        if extras:
            raise InvalidInput(f"unrecognized arguments: {' '.join(extras)}")
        if missing := [name for dest, name in required if dest not in values]:
            raise InvalidInput(f"the following arguments are required: {', '.join(missing)}")
    except InvalidInput as exc:
        print(_usage(prog, command), f"{prog}: error: {exc}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_ERROR) from None
    values = {**defaults, **values, "command": prog.partition(" ")[2]}
    return SimpleNamespace(**values, handler=command.handler, inputs=command.inputs)


def _report(command: str, inputs: dict, results: dict, status: str, message: str | None) -> dict:
    report = {"command": command, "inputs": inputs, "results": results, "status": status}
    if message is not None:
        report["message"] = message
    return report


def _respond(args) -> int:
    """Run the parsed command, write and print its report, and return the exit code.

    Every report, an error report too, echoes the command's inputs.
    """
    command = args.command
    inputs = _echo(args, args.inputs)
    try:
        report = _report(command, inputs, *args.handler(args), None)
        # rendered inside the try: an int past the int-to-str digit limit is refused by name
        text = _text(report, _render)
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        try:  # a library error formats the values its message names only now, under the report's limit
            message = _text(exc, formatted)
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
    return _respond(_read_argv(argv))


if __name__ == "__main__":
    sys.exit(main())
