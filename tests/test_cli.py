"""CLI commands are thin adapters: reports must match the library results."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussbase import cli, dependence, verification
from gaussbase.automata import dfa_to_json, minimize, powers_dfa
from gaussbase.cli import EXIT_ERROR, EXIT_NOT_FOUND, EXIT_OK, main
from gaussbase.dependence import group_witness, prefix_extension
from gaussbase.gaussint import ONE, GaussInt, InvalidInput
from gaussbase.numeration import (
    LengthBound,
    canonical_digit_set,
    encode,
    lattice_disc,
    length_bound,
    real_power_exponent,
    word_to_text,
)

g = GaussInt
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_digits(capsys):
    code, report = run_cli(capsys, "digits", "-b", "2+1i")
    assert code == EXIT_OK
    assert report["command"] == "digits"
    assert report["status"] == "ok"
    assert report["results"]["digit_set"]["digits"] == ["-1", "0-1i", "0", "0+1i", "1"]


def test_encode_zero_is_empty_word(capsys):
    code, report = run_cli(capsys, "encode", "-b", "2+1i", "0")
    assert code == EXIT_OK
    assert report["results"] == {"length": 0, "word": ""}


def test_encode_decode_roundtrip(capsys):
    code, report = run_cli(capsys, "encode", "-b", "2+1i", "5")
    assert code == EXIT_OK
    word = report["results"]["word"]
    assert word == "0-1i,0+1i,-1,0"
    code, report = run_cli(capsys, "decode", "-b", "2+1i", word)
    assert code == EXIT_OK
    assert report["results"]["value"] == "5"


def test_deptest(capsys):
    code, report = run_cli(capsys, "deptest", "3+4i", "2+1i")
    assert code == EXIT_OK
    assert report["results"] == {"dependent": True, "r": 1, "s": 2}
    code, report = run_cli(capsys, "deptest", "2+1i", "1+2i")
    assert report["results"]["dependent"] is False


def test_witness_found_matches_library(capsys):
    code, report = run_cli(
        capsys, "witness", "1+2i", "2+1i", "1", "--bound", "1/25", "--m-max", "64"
    )
    assert code == EXIT_OK
    lib = group_witness(g(1, 2), g(2, 1), ONE, 1, 25, 64)
    assert (report["results"]["m"], report["results"]["n"]) == (lib.m, lib.n)
    assert report["results"]["certified"] is True


def test_witness_not_found_exits_2(capsys):
    code, report = run_cli(
        capsys, "witness", "1+2i", "2+1i", "1", "--bound", "1/1000000", "--m-max", "5"
    )
    assert code == EXIT_NOT_FOUND
    assert report["status"] == "not_found"


def test_prefix_witness_json_fields(capsys):
    code, report = run_cli(
        capsys, "prefix", "1+2i", "2+1i", "1", "--n-min", "3", "--budget", "64"
    )
    assert code == EXIT_OK
    wit = report["results"]["witness"]
    lib = prefix_extension(g(1, 2), g(2, 1), ONE, 3, 64)
    assert wit["m"] == lib.m and wit["n"] == lib.n
    assert wit["z"] == str(lib.z)
    assert wit["certified"] is True
    D = canonical_digit_set(g(2, 1))
    assert wit["word_am"] == word_to_text(encode(g(1, 2) ** lib.m, D))
    assert wit["word_u"] == word_to_text(encode(ONE, D))


def test_prefix_report_encodes_each_word_once(capsys, monkeypatch):
    encoded = []

    def counting_encode(z, D):
        encoded.append(z)
        return encode(z, D)

    monkeypatch.setattr(dependence, "encode", counting_encode)
    monkeypatch.setattr(cli, "encode", counting_encode)
    a, b, u = g(-3, -3), g(-3), g(1, 1)
    code, report = run_cli(
        capsys, "prefix", "--n-min", "0", "--budget", "128", "--depth", "1", "--", str(a), str(b), str(u)
    )
    chain = report["results"]["chain"]
    assert code == EXIT_OK
    assert report["results"]["chain_depth_reached"] == 1
    # the second level adds digits even with n_min = 0
    assert [(w["m"], w["n"]) for w in chain] == [(1, 1), (93, 121)]
    # a^m is never encoded: each level encodes its u (the level before's a^m) and its z once
    targets = [u] + [a ** wit["m"] for wit in chain[:-1]]
    for wit, level_u in zip(chain, targets):
        a_m = a ** wit["m"]
        assert wit["certified"] is True
        assert encoded.count(level_u) == 1
        assert encoded.count(GaussInt.parse(wit["z"])) == 1
        assert wit["word_am"] == word_to_text(encode(a_m, canonical_digit_set(b)))
    assert a ** chain[1]["m"] not in encoded
    assert len(encoded) == 2 * len(chain)
    assert chain[1]["word_u"] == chain[0]["word_am"]


def _readme_cli_lines():
    """The `gaussbase ...` lines of the sh block under README's `## CLI` heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("gaussbase ")]


def test_readme_cli_commands_run_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # dfa make writes powers.json, which dfa falsify reads
    ran = []
    for line in _readme_cli_lines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] == "verify":  # the acceptance tests run its criteria
            continue
        ran.append(argv[0])
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert (code, report["status"]) == (EXIT_OK, "ok"), line
        if argv[0] == "encode":
            assert report["results"]["word"] == re.search(r'-> word "(.*)"', comment).group(1)
        if argv[0] == "deptest":
            verdict, r, s = re.search(r"-> (dependent|independent), r=(\d+), s=(\d+)", comment).groups()
            assert report["results"] == {"dependent": verdict == "dependent", "r": int(r), "s": int(s)}
    assert {"encode", "deptest", "prefix", "dfa"} <= set(ran)


def test_prefix_chain_levels_after_the_first_add_digits(capsys):
    code, report = run_cli(capsys, "prefix", "1+2i", "2+1i", "1", "--n-min", "0", "--depth", "3")
    assert code == EXIT_NOT_FOUND
    assert [(w["m"], w["n"]) for w in report["results"]["chain"]] == [(39, 39)]
    assert report["results"]["chain_depth_reached"] == 0


def test_residuals(capsys):
    code, report = run_cli(capsys, "residuals", "1+2i", "2+1i", "-k", "4", "-e", "3")
    assert code == EXIT_OK
    assert report["results"]["target"]["class_count"] == 15
    assert report["results"]["control"]["class_count"] == 3


def test_residuals_deep_prefixes_answer_fast(capsys):
    start = time.perf_counter()
    code, report = run_cli(capsys, "residuals", "1+2i", "2+1i", "-k", "40", "-e", "3")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert report["results"]["target"]["class_count"] == 68
    assert report["results"]["target"]["representatives"][:5] == ["", "-1", "0+1i", "1", "-1,0+1i"]
    assert report["results"]["control"]["class_count"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["pump", "-b", "2+1i", "--set", "integers", "--word", "1", "-k", "100000", "--reps", "100"],
        ["pump", "-b", "2+1i", "--set", "integers", "--word", "1", "-k", "10000", "--reps", "20"],
        ["pump", "-b", "2+1i", "--set", "integers", "--word", "1", "-k", "10000", "--reps", "140"],
        ["scan-bases", "--norm-min", "5", "--norm-max", "100000000000"],
        ["scan-bases", "--norm-max", "3200"],
        ["scan-bases", "--norm-max", "5", "--disc", "1000000000000"],
        ["scan-bases", "--norm-max", "1000", "--disc", "0"],
        ["scan-bases", "--norm-max", "5", "--disc", "39784"],  # its square's 80,089 points pass; its 124,985 do not
        ["digits", "-b", "100000"],
        ["residuals", "1+2i", "2+1i", "-k", "9000", "-e", "3"],
        ["residuals", "1+2i", "2+1i", "-k", "1500", "-e", "1500"],
    ],
    ids=[
        "pump_digits",
        "pump_quadratic_decode",
        "pump_under_1e8_digits",
        "scan_disc",
        "scan_disc_just_over",
        "scan_probe_disc",
        "scan_digit_sets",
        "scan_probe_count",
        "digits_huge_base",
        "residuals_deep",
        "residuals_deep_and_wide",
    ],
)
def test_work_past_the_budget_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, report = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert "budget" in report["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "-b", "100000", "--", "123456789012345678901234567890"],
        ["decode", "--base=-727-1i", "--", "5,-3+2i,0"],
        ["prefix", "1+2i", "100000", "1", "--budget", "64"],
    ],
    ids=["encode", "decode", "prefix"],
)
def test_bases_past_the_digit_budget_are_answered_at_once(capsys, argv):
    start = time.perf_counter()
    code, report = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert report["status"] in ("ok", "not_found")


def test_scan_k_max_costs_nothing(capsys):
    start = time.perf_counter()
    code, report = run_cli(capsys, "scan-bases", "--norm-max", "5", "--disc", "0", "--k-max", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert report["results"]["all_pass"] is True


@pytest.mark.parametrize("k_max", [0, 1, 2, 3, 8])
@pytest.mark.parametrize("slack", [0, 1, 2])
def test_scan_length_check_matches_every_k(capsys, monkeypatch, k_max, slack):
    # with m3 lowered by slack the bound can break; one check per word must agree with every k
    def loose(b):
        return LengthBound(b, max(length_bound(b).m3 - slack, 0))

    monkeypatch.setattr(cli, "length_bound", loose)
    code, report = run_cli(capsys, "scan-bases", "--norm-max", "13", "--disc", "50", "--k-max", str(k_max))
    oks = []
    for row in report["results"]["bases"]:
        b = GaussInt.parse(row["base"])
        D, lb = canonical_digit_set(b), loose(b)
        every_k = all(
            len(encode(z, D)) <= k
            for z in lattice_disc(50)
            for k in range(k_max + 1)
            if lb.within_bound(z, k)
        )
        assert row["length_bound_ok"] is every_k
        oks.append(every_k)
    if slack == 0:
        assert all(oks)
    if slack == 2 and k_max:
        assert not all(oks)  # the lowered bound breaks, so the comparison is not vacuous


def test_pump(capsys):
    code, report = run_cli(
        capsys,
        "pump",
        "-b",
        "2+1i",
        "--set",
        "integers",
        "--word",
        "0-1i,0+1i,-1,0",
        "-k",
        "1",
        "--reps",
        "6",
    )
    assert code == EXIT_OK
    members = report["results"]["memberships"]
    assert members[0] is True and False in members


def test_scan_bases(capsys):
    code, report = run_cli(
        capsys, "scan-bases", "--norm-min", "5", "--norm-max", "10", "--disc", "25"
    )
    assert code == EXIT_OK
    assert report["results"]["all_pass"] is True
    norms = {row["norm"] for row in report["results"]["bases"]}
    assert norms == {5, 8, 9, 10}


@pytest.mark.parametrize(
    "bounds",
    [
        ["--norm-max", "3"],
        ["--norm-min", "40", "--norm-max", "30"],
        ["--norm-max", "-5"],
        ["--norm-max", "-1", "--disc", "1000000000000"],
    ],
    ids=["max_below_5", "min_above_max", "negative_max", "negative_max_huge_disc"],
)
def test_scan_bases_empty_range_is_an_error(capsys, bounds):
    start = time.perf_counter()
    code, report = run_cli(capsys, "scan-bases", *bounds)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert "norm range" in report["message"]


def test_dfa_make_matches_library(tmp_path, capsys):
    path = tmp_path / "made.json"
    code, report = run_cli(
        capsys, "dfa", "make", "powers", "-b", "2+1i", "--dfa-out", str(path)
    )
    assert code == EXIT_OK
    assert report["results"]["dfa"] == dfa_to_json(powers_dfa(g(2, 1)))
    assert path.read_text() == json.dumps(dfa_to_json(powers_dfa(g(2, 1))), indent=2, sort_keys=True)


POWERS_2_1I = {
    "accepting": [1],
    "base": "2+1i",
    "digits": ["-1", "0-1i", "0", "0+1i", "1"],
    "initial": 0,
    "states": 3,
    "transitions": [[2, 2, 2, 2, 1], [2, 2, 1, 2, 2], [2, 2, 2, 2, 2]],
}
DIGITS_3 = ["-1-1i", "-1", "-1+1i", "0-1i", "0", "0+1i", "1-1i", "1", "1+1i"]


# the leaves json meets in a report, and the ones it encodes another way: floats, nan, the
# infinities and -0.0, text with non-ASCII, control characters, quotes and backslashes
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\té€\U0001d11e aZ', max_size=8),
)
int_rows = st.lists(st.integers(-(10**40), 10**40), max_size=6)
# a row of ints with one bool in it, which json writes as true or false, never as an int
rows_with_a_bool = st.builds(
    lambda row, flag, at: [*row[:at], flag, *row[at:]], int_rows, st.booleans(), st.integers(0, 6)
)
json_trees = st.recursive(
    json_leaves | int_rows | rows_with_a_bool | st.sampled_from([[], {}, ()]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)
PREFIX_DEPTH_1_REPORT = {
    "command": "prefix",
    "inputs": {"a": "2-2i", "b": "3+2i", "budget": 2048, "depth": 1, "n_min": 2, "u": "1"},
    "results": {
        "chain": [{"certified": True, "m": 5, "n": 4, "word_am": "1,0,0+1i,1,0+1i", "word_u": "1", "z": "-9+8i"}],
        "chain_depth_reached": 0,
        "witness": {"certified": True, "m": 5, "n": 4, "word_am": "1,0,0+1i,1,0+1i", "word_u": "1", "z": "-9+8i"},
    },
    "status": "not_found",
}


@settings(max_examples=400, deadline=None)
@given(json_trees)
@example(PREFIX_DEPTH_1_REPORT)
@example({"command": "dfa min", "results": {"dfa": POWERS_2_1I, "states_before": 3}})
@example([[1, True, 0], [False], (2, 3), {"": {"": []}}])
def test_render_is_json_dumps_with_indent_2_and_sorted_keys(value):
    assert cli._render(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_result_int_past_the_digit_limit_is_an_error_report_naming_output_digits(capsys, monkeypatch):
    """An int leaf of a report is refused by name when the report is rendered, as a decimal string is."""
    monkeypatch.setattr(cli, "mult_dependent", lambda a, b: dependence.DependenceVerdict(True, 10**50001, 1))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default, which main raises to OUTPUT_DIGITS
    try:
        code, report = run_cli(capsys, "deptest", "3+4i", "2+1i")
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, report["status"]) == (EXIT_ERROR, "error")
    assert report["inputs"] == {"a": "3+4i", "b": "2+1i"}
    assert report["message"] == (
        "a result has an integer past the report's digit limit (50000 digits): the CLI prints"
        " integers of up to OUTPUT_DIGITS = 50000 decimal digits, or up to the interpreter's own"
        " limit when that is higher"
    )


@pytest.mark.parametrize(
    "kind, base, dfa",
    [
        ("powers", "2+1i", POWERS_2_1I),
        ("powers", "1+2i", {**POWERS_2_1I, "base": "1+2i"}),
        (
            "powers",
            "3",
            {
                "accepting": [1],
                "base": "3",
                "digits": DIGITS_3,
                "initial": 0,
                "states": 3,
                "transitions": [[2] * 7 + [1, 2], [2] * 4 + [1] + [2] * 4, [2] * 9],
            },
        ),
        (
            "integers",
            "3",
            {
                "accepting": [0, 1],
                "base": "3",
                "digits": DIGITS_3,
                "initial": 0,
                "states": 3,
                "transitions": [
                    [2, 1, 2, 2, 2, 2, 2, 1, 2],
                    [2, 1, 2, 2, 1, 2, 2, 1, 2],
                    [2, 2, 2, 2, 2, 2, 2, 2, 2],
                ],
            },
        ),
    ],
)
def test_dfa_make_reports_are_pinned(capsys, kind, base, dfa):
    code, report = run_cli(capsys, "dfa", "make", kind, "-b", base)
    assert code == EXIT_OK
    assert report == {
        "command": "dfa make",
        "inputs": {"base": base, "kind": kind},
        "results": {"dfa": dfa},
        "status": "ok",
    }


def test_dfa_commands(tmp_path, capsys):
    d = powers_dfa(g(2, 1))
    path = tmp_path / "powers.json"
    path.write_text(json.dumps(dfa_to_json(d)))

    code, report = run_cli(capsys, "dfa", "run", str(path), "--word", "1,0")
    assert code == EXIT_OK and report["results"]["accepts"] is True

    out_path = tmp_path / "min.json"
    code, report = run_cli(capsys, "dfa", "min", str(path), "--dfa-out", str(out_path))
    assert code == EXIT_OK
    assert report["results"]["dfa"] == dfa_to_json(minimize(d))
    assert out_path.read_text() == json.dumps(dfa_to_json(minimize(d)), indent=2, sort_keys=True)

    code, report = run_cli(capsys, "dfa", "equiv", str(path), str(out_path))
    assert code == EXIT_OK and report["results"]["equivalent"] is True

    code, report = run_cli(
        capsys, "dfa", "falsify", str(path), "--set", "powers:1+2i", "--max-len", "4"
    )
    assert code == EXIT_OK
    assert report["results"]["disagreement"] == "1,0"

    code, report = run_cli(
        capsys, "dfa", "falsify", str(path), "--set", "powers:2+1i", "--max-len", "5"
    )
    assert code == EXIT_OK
    assert report["results"]["disagreement"] is None


def test_negative_literals_need_separator(capsys):
    code, report = run_cli(capsys, "deptest", "--", "-1+2i", "3")
    assert code == EXIT_OK
    assert report["results"]["dependent"] is False


def test_domain_error_reports_status_error(capsys):
    code, report = run_cli(capsys, "decode", "-b", "2+1i", "7")  # 7 is not a digit
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert "message" in report


def test_successive_calls_share_no_state(capsys):
    # each call starts from the defaults, whatever the calls before it read
    argv = ["prefix", "1+2i", "2+1i", "1", "--n-min", "3", "--budget", "64"]
    code, report = run_cli(capsys, *argv, "--depth", "1")
    assert report["inputs"]["depth"] == 1
    code, report = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert report["inputs"]["depth"] == 0
    with pytest.raises(SystemExit):
        main(["deptest", "3+4i"])
    capsys.readouterr()
    code, report = run_cli(capsys, "deptest", "3+4i", "2+1i")
    assert code == EXIT_OK
    assert report["status"] == "ok"


def test_usage_error_exits_1(capsys):
    for literal in ["not-a-literal", "5\n", "2+1i\n", "\uff15", "1+\u0663i"]:
        with pytest.raises(SystemExit) as exc:
            main(["digits", "-b", literal])
        assert exc.value.code == EXIT_ERROR


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["digits", "-b", "2+1i", "-o", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_unwritable_report_file_is_an_error_report(tmp_path, capsys, where):
    out = tmp_path / where
    code = main(["deptest", "3+4i", "2+1i", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    report = json.loads(captured.out)
    assert report["status"] == "error"
    assert str(out) in report["message"]
    assert report["inputs"] == {"a": "3+4i", "b": "2+1i"}
    assert captured.err == ""


@pytest.mark.parametrize(
    "ok_argv, error_argv",
    [
        (["residuals", "1+2i", "2+1i", "-k", "0", "-e", "1"], ["residuals", "1+2i", "2+1i", "-k", "0", "-e", "100000"]),
        (["decode", "-b", "2+1i", "1"], ["decode", "-b", "2+1i", "7"]),
        (["witness", "1+2i", "2+1i", "1", "--bound", "1/25"], ["witness", "1+2i", "0", "1", "--bound", "1/25"]),
        (["prefix", "1+2i", "2+1i", "1", "--n-min", "3"], ["prefix", "3+4i", "2+1i", "1", "--n-min", "3"]),
        (["scan-bases", "--norm-max", "6", "--disc", "4"], ["scan-bases", "--norm-max", "4"]),
        (["pump", "-b", "2+1i", "--set", "integers", "--word", "1"], ["pump", "-b", "2+1i", "--set", "nothing", "--word", "1"]),
    ],
    ids=lambda argv: argv[0],
)
def test_error_reports_echo_the_inputs_of_an_ok_report(capsys, ok_argv, error_argv):
    _, ok = run_cli(capsys, *ok_argv)
    code, error = run_cli(capsys, *error_argv)
    assert ok["status"] == "ok" and (code, error["status"]) == (EXIT_ERROR, "error")
    assert list(error["inputs"]) == list(ok["inputs"])  # --pretty prints them in this order
    assert main([*error_argv, "--pretty"]) == EXIT_ERROR
    assert capsys.readouterr().out.startswith(f'command: "{error_argv[0]}"\ninputs:\n')


def test_error_report_inputs_are_the_parsed_arguments(capsys):
    code, report = run_cli(capsys, "residuals", "1+2i", "2+1i", "-k", "0", "-e", "100000")
    assert code == EXIT_ERROR
    assert report["inputs"] == {"a": "1+2i", "b": "2+1i", "k": 0, "e": 100000}
    code, report = run_cli(capsys, "witness", "1+2i", "0", "1", "--bound", "01/25", "--m-max", "9")
    assert report["inputs"] == {"a": "1+2i", "b": "0", "u": "1", "m_max": 9, "bound": "1/25"}


def test_dfa_equiv_names_equivalence_in_its_alphabet_error(tmp_path, capsys):
    one, other = tmp_path / "b21.json", tmp_path / "b3.json"
    one.write_text(json.dumps(dfa_to_json(powers_dfa(g(2, 1)))))
    other.write_text(json.dumps(dfa_to_json(powers_dfa(g(3)))))
    code, report = run_cli(capsys, "dfa", "equiv", str(one), str(other))
    assert code == EXIT_ERROR
    assert report["message"] == "equivalence needs a shared alphabet"
    assert report["inputs"] == {"file": str(one), "file2": str(other)}


def test_pretty_rendering_is_not_json(capsys):
    code = main(["digits", "-b", "2+1i", "--pretty"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("command:")


def test_closed_pipe_ends_without_a_traceback(tmp_path):
    # the report (about 390 kB) outgrows the pipe, so the child is still writing when it closes
    out = tmp_path / "report.json"
    argv = ["digits", "-b", "150", "--pretty", "-o", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with subprocess.Popen(
        [sys.executable, "-m", "gaussbase.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        assert child.stdout.readline() == b'command: "digits"\n'
        child.stdout.close()
        stderr = child.stderr.read()
        code = child.wait(timeout=60)
    assert stderr == b""
    assert code == EXIT_ERROR
    assert json.loads(out.read_text())["status"] == "ok"


def _decode_in_child(base, word):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "gaussbase.cli", "decode", "-b", base, word],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert child.stderr == b""
    # this process keeps Python's default limit of 4300 digits, so the big ints stay text
    return child.returncode, json.loads(child.stdout, parse_int=str)


def test_an_unprintable_result_is_an_error_report():
    # (2+i)^9000 has a norm of 6291 digits, past Python's default int-to-str limit of
    # 4300 but within OUTPUT_DIGITS, so the report prints it
    code, report = _decode_in_child("2+1i", "1" + ",0" * 9000)
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert len(report["results"]["norm"]) == 6291
    # 10^25001 prints, but its norm 10^50002 has 50003 digits, past OUTPUT_DIGITS
    assert cli.OUTPUT_DIGITS == 50_000
    code, report = _decode_in_child("10", "1" + ",0" * 25001)
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["command"] == "decode"
    assert "(50000 digits)" in report["message"]  # the message names the limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_result_past_the_digit_limit_names_output_digits(capsys):
    """The error names the CLI's limit, not Python's advice to call sys.set_int_max_str_digits()."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default, which main raises to OUTPUT_DIGITS
    try:
        code, report = run_cli(capsys, "decode", "-b", "10", "1" + ",0" * 25001)  # a norm of 50,003 digits
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, report["status"]) == (EXIT_ERROR, "error")
    assert report["inputs"] == {"base": "10", "word": "1" + ",0" * 25001}
    assert report["message"] == (
        "a result has an integer past the report's digit limit (50000 digits): the CLI prints"
        " integers of up to OUTPUT_DIGITS = 50000 decimal digits, or up to the interpreter's own"
        " limit when that is higher"
    )


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_witness_past_the_default_digit_limit_prints_and_the_limit_is_restored(capsys):
    before = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, report = run_cli(capsys, "prefix", "1+2i", "2+1i", "1", "--n-min", "20000", "--budget", "60000")
    elapsed = time.perf_counter() - start
    assert sys.get_int_max_str_digits() == before
    assert code == EXIT_OK
    witness = report["results"]["witness"]
    assert (witness["m"], witness["n"], witness["certified"]) == (20026, 20026, True)
    assert len(witness["z"]) == 6999
    assert elapsed < 10  # 0.4 s on a 2-vCPU VM; the bound only catches a runaway
    # an input literal keeps the interpreter's limit: the reader refuses it as a usage error
    with pytest.raises(SystemExit):
        main(["deptest", "1" * (before + 1), "2+1i"])
    assert sys.get_int_max_str_digits() == before


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("limit", [0, 100_000])
def test_a_higher_digit_limit_is_kept_while_a_command_runs(capsys, limit):
    """No limit, or one above OUTPUT_DIGITS, is never lowered: a norm of 50,003 digits prints."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, report = run_cli(capsys, "decode", "-b", "10", "1" + ",0" * 25001)
        assert sys.get_int_max_str_digits() == limit
        assert report["results"]["norm"] == str(10**50002)
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, report["status"]) == (EXIT_OK, "ok")


def _dfa_file(tmp_path, field: str, part: str) -> str:
    """A file of POWERS_2_1I with one literal replaced by part: the base, the digit 1, or a transition target,
    the last written as a JSON int."""
    obj = json.loads(json.dumps(POWERS_2_1I))
    if field == "base":
        obj["base"] = part
    elif field == "digits":
        obj["digits"][-1] = part
    else:
        obj["transitions"][0][0] = "@"
    path = tmp_path / f"{field}.json"
    path.write_text(json.dumps(obj).replace('"@"', part), encoding="utf-8")
    return str(path)


# argv with one literal given as a part, for every place the CLI reads a literal
LITERAL_SITES = {
    "base": lambda part, tmp: ["encode", "-b", part, "0"],
    "positional": lambda part, tmp: ["deptest", part, "2+1i"],
    "negative_positional": lambda part, tmp: ["deptest", "-" + part, "2+1i"],  # a numeral, so no flag
    "m_max": lambda part, tmp: ["witness", "1+2i", "2+1i", "1", "--m-max", part],
    "norm_min": lambda part, tmp: ["scan-bases", "--norm-min", part],
    "norm_max": lambda part, tmp: ["scan-bases", "--norm-max", part],
    "bound": lambda part, tmp: ["witness", "1+2i", "2+1i", "1", "--bound", "1/" + part],
    "powers_set": lambda part, tmp: ["pump", "-b", "2+1i", "--set", "powers:" + part, "--word", "1", "-k", "1"],
    "pump_word": lambda part, tmp: ["pump", "-b", "2+1i", "--set", "integers", "--word", "1," + part],
    "decode_word": lambda part, tmp: ["decode", "-b", "2+1i", part],
    "dfa_run_word": lambda part, tmp: ["dfa", "run", _dfa_file(tmp, "base", "2+1i"), "--word", part],
    "dfa_base": lambda part, tmp: ["dfa", "run", _dfa_file(tmp, "base", part), "--word", "1"],
    "dfa_digit": lambda part, tmp: ["dfa", "min", _dfa_file(tmp, "digits", part)],
    "dfa_transition": lambda part, tmp: ["dfa", "falsify", _dfa_file(tmp, "transitions", part), "--set", "integers"],
}
INTEGER_SITES = {"m_max", "norm_min", "norm_max", "bound", "dfa_transition"}  # the sites that read a plain int


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("site", LITERAL_SITES)
def test_every_literal_is_read_under_the_interpreters_digit_limit(default_digit_limit, capsys, tmp_path, site):
    """A part of exactly the limit is not refused for its length; one digit more is, by name, exit 1.

    The refusal names an integer literal where the site reads a plain int, and a Gaussian one elsewhere."""
    refusal = "past 4300 digits, the interpreter's limit"
    literal = "an integer literal" if site in INTEGER_SITES else "a Gaussian integer literal with a part"
    for digits in (4300, 4301):
        try:
            code = main(LITERAL_SITES[site]("1" * digits, tmp_path))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (refusal in out + err) is (digits > 4300), (site, digits, code, out[-300:], err[-300:])
        assert (f"{literal} {refusal}" in out + err) is (digits > 4300), (site, out[-300:], err[-300:])
        assert code == EXIT_ERROR or digits == 4300
        assert "set_int_max_str_digits" not in out + err
        assert sys.get_int_max_str_digits() == 4300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["digits", "-b", "1" * 4300], r"base 1{4300} of norm (\d+) has more digits than the digit budget of 100000"),
        (
            ["pump", "-b", "2+1i", "--set", "integers", "--word", "1", "-k", "1" * 4300, "--reps", "1"],
            r"decoding 2 pumped words takes (\d+) digit-steps, past the enumeration budget",
        ),
        (["dfa", "min", "base"], r"5 digits for base 1{4300} of norm (\d+)"),
    ],
    ids=["digit_budget", "pump_budget", "dfa_digit_count"],
)
def test_a_message_naming_an_int_past_the_limit_prints_it(default_digit_limit, capsys, tmp_path, argv, message):
    """A library error that names an int computed from literals read under the limit prints it in full."""
    if argv[-1] == "base":
        argv = [*argv[:-1], _dfa_file(tmp_path, "base", "1" * 4300)]
    code, report = run_cli(capsys, *argv)
    assert (code, report["status"]) == (EXIT_ERROR, "error")
    match = re.fullmatch(message, report["message"])
    assert match and len(match[1]) > 4300
    assert sys.get_int_max_str_digits() == 4300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_message_naming_an_int_past_a_higher_limit_is_refused_by_name(capsys):
    """Under a limit above OUTPUT_DIGITS, a 40,000-digit base reads, and its 79,999-digit norm is refused by name."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(60_000)
    try:
        code, report = run_cli(capsys, "digits", "-b", "1" * 40_000)
        assert sys.get_int_max_str_digits() == 60_000
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, report["status"]) == (EXIT_ERROR, "error")
    assert report["message"] == (
        "a result has an integer past the report's digit limit (60000 digits): the CLI prints"
        " integers of up to OUTPUT_DIGITS = 50000 decimal digits, or up to the interpreter's own"
        " limit when that is higher"
    )


@pytest.mark.parametrize(
    "convert, text, message",
    [
        (cli._count, "1.5", "expected a non-negative integer, got '1.5'"),
        (cli._count, "-5", "expected a non-negative integer, got '-5'"),
        (cli._count, "+-5", "expected a non-negative integer, got '+-5'"),
        (cli._int, "1.5", "expected an integer, got '1.5'"),
        (cli._int, "+-5", "expected an integer, got '+-5'"),
        (cli._int, "1e3", "expected an integer, got '1e3'"),
        (cli._bound, "1:2", "bound must be NUM/DEN, got '1:2'"),
        (cli._bound, "1/x", "bound must be NUM/DEN, got '1/x'"),
        (cli._bound, "1" * 5000, f"bound must be NUM/DEN, got {'1' * 5000!r}"),  # no /, whatever its length
        # the forms int() accepts and a numeral does not: "_", spaces, a newline, non-ASCII digits
        (cli._count, "1_000", "expected a non-negative integer, got '1_000'"),
        (cli._count, " 5", "expected a non-negative integer, got ' 5'"),
        (cli._int, "5\n", "expected an integer, got '5\\n'"),
        (cli._count, "٣", "expected a non-negative integer, got '٣'"),
        (cli._bound, "1/ 3", "bound must be NUM/DEN, got '1/ 3'"),
        # both shapes are checked before either part is converted: a malformed bound is refused as one
        # whatever the length of its other part, and a well-formed one keeps the digit limit's message
        (cli._bound, "x/" + "1" * 5000, f"bound must be NUM/DEN, got {'x/' + '1' * 5000!r}"),
        (cli._bound, "1" * 5000 + "/x", f"bound must be NUM/DEN, got {'1' * 5000 + '/x'!r}"),
        (cli._bound, "1" * 5000 + "/", f"bound must be NUM/DEN, got {'1' * 5000 + '/'!r}"),
        *(
            (cli._bound, text, "an integer literal past 4300 digits, the interpreter's limit: " + repr(part))
            for text, part in [("1/" + "1" * 5000, "1" * 5000), ("2" * 5000 + "/1", "2" * 5000), ("2" * 5000 + "/" + "1" * 5000, "2" * 5000)]
        ),
    ],
)
def test_a_malformed_count_or_bound_keeps_its_message(default_digit_limit, convert, text, message):
    with pytest.raises(InvalidInput) as exc:
        convert(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv, error",
    [
        (["witness", "3+2i", "2+1i", "1", "--m-max", "1_0"], "argument --m-max: expected a non-negative integer, got '1_0'"),
        (["scan-bases", "--norm-max", " 30"], "argument --norm-max: expected an integer, got ' 30'"),
        (["witness", "3+2i", "2+1i", "1", "--bound", "1/١٠"], "argument --bound: bound must be NUM/DEN, got '1/١٠'"),
    ],
    ids=["count", "int", "bound"],
)
def test_an_integer_option_reads_a_numeral_only(capsys, argv, error):
    """Each kind of integer option reads the grammar of a Gaussian literal's part; int()'s other forms are usage errors."""
    with pytest.raises(SystemExit) as usage:
        main(argv)
    captured = capsys.readouterr()
    assert (usage.value.code, captured.out) == (EXIT_ERROR, "")
    assert captured.err.endswith(f": error: {error}\n")


def test_verify_prints_the_same_bytes_on_every_run(capsys, monkeypatch):
    # criteria 4-10 take milliseconds, and criterion 2, which times each base, runs on one base;
    # the acceptance tests run all ten.  A budget is a gate, so the report carries no run times.
    monkeypatch.setattr(verification, "ALL_CHECKS", (verification.check_uniqueness, *verification.ALL_CHECKS[3:]))
    monkeypatch.setattr(verification, "SCAN_BASES", verification.SCAN_BASES[:1])
    outs = []
    for _ in range(2):
        assert main(["verify"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    criteria = json.loads(outs[0])["results"]["criteria"]
    assert len(criteria) == 8 and all(c["passed"] and "seconds" not in c for c in criteria)
    assert criteria[0]["details"] == {"words_checked": 3125} and criteria[0]["budget_seconds"] is None


def test_importing_the_cli_leaves_verification_and_random_unloaded():
    # -S: site hooks may import random themselves
    code = "import sys; sys.path.insert(0, sys.argv[1]); import gaussbase.cli; print(*sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "gaussbase.cli" in loaded
    assert not loaded & {"gaussbase.verification", "random", "dataclasses", "inspect", "typing", "contextlib"}


def test_dfa_flags_follow_the_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in (["--pretty"], ["-o", str(out)]):
        with pytest.raises(SystemExit) as exc:
            main(["dfa", *argv, "make", "powers", "-b", "2+1i"])
        assert exc.value.code == EXIT_ERROR
        assert capsys.readouterr().out == ""
    assert not out.exists()
    assert main(["dfa", "make", "powers", "-b", "2+1i", "--pretty", "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("command:")
    assert json.loads(out.read_text())["results"]["dfa"] == POWERS_2_1I


def test_memory_error_ends_in_an_error_report(capsys, monkeypatch):
    def exhausted(base):
        raise MemoryError

    monkeypatch.setattr(cli, "canonical_digit_set", exhausted)
    code, report = run_cli(capsys, "digits", "-b", "2+1i")
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert report["message"] == "MemoryError"


def test_scan_bases_rows_carry_m3_and_real_power_exponent(capsys):
    code, report = run_cli(
        capsys, "scan-bases", "--norm-min", "9", "--norm-max", "10", "--disc", "9"
    )
    assert code == EXIT_OK
    for row in report["results"]["bases"]:
        b = GaussInt.parse(row["base"])
        assert row["m3"] == length_bound(b).m3
        assert row["real_power_exponent"] == real_power_exponent(b)


MALFORMED_DFAS = {
    "no_transitions": ({"base": "2+1i", "digits": ["-1", "0-1i", "0", "0+1i", "1"],
                        "states": 1, "initial": 0, "accepting": []}, "transitions"),
    "digits_not_a_list": ({"base": "2+1i", "digits": 5, "states": 1, "initial": 0,
                           "accepting": [], "transitions": [[0, 0, 0, 0, 0]]}, "digits"),
    "top_level_list": ([1, 2, 3], "JSON object"),
    "accepting_a_string": ({"base": "2+1i", "digits": ["-1", "0-1i", "0", "0+1i", "1"],
                            "states": 1, "initial": 0, "accepting": "0",
                            "transitions": [[0, 0, 0, 0, 0]]}, "accepting"),
    "initial_a_float": ({"base": "2+1i", "digits": ["-1", "0-1i", "0", "0+1i", "1"],
                         "states": 1, "initial": 0.5, "accepting": [],
                         "transitions": [[0, 0, 0, 0, 0]]}, "initial"),
}


@pytest.mark.parametrize("subcommand", ["run", "min", "equiv", "falsify"])
@pytest.mark.parametrize("case", sorted(MALFORMED_DFAS))
def test_malformed_dfa_file_is_a_structured_error(tmp_path, capsys, case, subcommand):
    obj, named = MALFORMED_DFAS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    extra = {
        "run": ["--word", "1"],
        "min": [],
        "equiv": [str(path)],
        "falsify": ["--set", "integers"],
    }[subcommand]
    code, report = run_cli(capsys, "dfa", subcommand, str(path), *extra)
    assert code == EXIT_ERROR
    assert report["status"] == "error"
    assert named in report["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["prefix", "1+2i", "2+1i", "1", "--depth", "-1"],
        ["dfa", "falsify", "powers.json", "--set", "integers", "--max-len", "-2"],
        ["pump", "-b", "2+1i", "--set", "integers", "--word", "1", "--reps", "-1"],
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["prefix", "--help"], ["dfa", "make", "--help"]])
def test_help_does_not_depend_on_columns(capsys, monkeypatch, argv):
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert "usage: gaussbase" in texts[0]
