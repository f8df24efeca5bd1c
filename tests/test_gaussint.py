"""Exact Z[i] arithmetic: parsing, ring operations, exact division, powers."""

import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gaussbase.cli import EXIT_ERROR, main
from gaussbase.gaussint import (
    ONE,
    ZERO,
    BudgetExceeded,
    DivisionByZero,
    GaussInt,
    InvalidInput,
    NonTermination,
    NotDivisible,
    divides,
    exact_div,
    is_power_of,
    numeral,
)

g = GaussInt

gauss_ints = st.builds(GaussInt, st.integers(-60, 60), st.integers(-60, 60))
nonzero_gauss = gauss_ints.filter(bool)


# ---- literals ----

@pytest.mark.parametrize(
    "text,value",
    [
        ("5", g(5)),
        ("-7", g(-7)),
        ("2+1i", g(2, 1)),
        ("-1+2i", g(-1, 2)),
        ("0-1i", g(0, -1)),
        ("+3-12i", g(3, -12)),
    ],
)
def test_parse(text, value):
    assert GaussInt.parse(text) == value


# a regex's $ would also match before a trailing newline, and int() takes spaces, "_" and any
# Unicode digit; a sign past the first character starts the imaginary part and nothing else
@pytest.mark.parametrize(
    "text",
    ["", "i", "2+i", "2 + 1i", "1.5", "2+1j", "2i", "5\n", "2+1i\n", "\uff15", "1+\u0663i", " 5", "1_0"]
    + ["+", "-", "+i", "1+i", "1++2i", "1+-2i", "--1", "-+1", "1-2+3i", "1+2-3i", "+1+1i+1i"],
)
def test_parse_rejects(text):
    with pytest.raises(InvalidInput, match="not a Gaussian integer literal"):
        GaussInt.parse(text)


_REFERENCE_LITERAL = re.compile(r"([+-]?\d+)(?:([+-]\d+)i)?", re.ASCII)


def _reference_parse(text):
    """The regular-expression parser GaussInt.parse replaced."""
    m = _REFERENCE_LITERAL.fullmatch(text)
    if m is None:
        raise InvalidInput(f"not a Gaussian integer literal: {text!r}")
    re_txt, im_txt = m.group(1), m.group(2)
    return GaussInt(int(re_txt), int(im_txt) if im_txt is not None else 0)


def _outcome(parse, text):
    try:
        return parse(text)
    except InvalidInput as exc:
        return str(exc)


@given(st.text(alphabet="+-0123456789i _.\n\uff15\u0663", max_size=10))
def test_parse_matches_the_reference(text):
    assert _outcome(GaussInt.parse, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("bad", [5, None, 1.5, True, ["5"], {}])
def test_parse_refuses_a_non_string_with_type_error(bad):
    # the JSON loaders turn TypeError and ValueError into InvalidInput naming the field
    with pytest.raises(TypeError, match=f"^expected string or bytes-like object, got '{type(bad).__name__}'$"):
        GaussInt.parse(bad)


def test_a_long_literal_is_checked_before_it_is_converted(default_digit_limit, capsys):
    # a malformed literal is refused as one whatever its length; a well-formed one past the
    # interpreter's int-to-str limit is refused by name, an InvalidInput and so still a ValueError,
    # without int()'s advice to raise the limit, which no option can
    # malformed in either part, the other part past the limit
    # a part past the limit: the real part, or the imaginary part alone
    malformed, longs = ["1" * 5000 + "+xi", "x+" + "1" * 5000 + "i"], ["1" * 5000, "1+" + "1" * 5000 + "i"]
    for text in malformed:
        with pytest.raises(InvalidInput, match="not a Gaussian integer literal"):
            GaussInt.parse(text)
    refused = {text: f"not a Gaussian integer literal: {text!r}" for text in malformed}
    if hasattr(sys, "set_int_max_str_digits"):
        digits = sys.get_int_max_str_digits()
        for long in longs:
            refused[long] = (
                f"a Gaussian integer literal with a part past {digits} digits, the interpreter's limit: {long!r}"
            )
            with pytest.raises(ValueError) as exc:
                GaussInt.parse(long)
            assert type(exc.value) is InvalidInput and str(exc.value) == refused[long]
    for text, message in refused.items():
        with pytest.raises(SystemExit) as usage:
            main(["encode", "-b", "2+1i", "--", text])
        assert usage.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument value: {message}\n")
        assert "set_int_max_str_digits" not in captured.err


_NUMERAL = re.compile(r"[+-]?[0-9]+")


@given(st.from_regex(_NUMERAL, fullmatch=True) | st.text() | st.text(alphabet="+-0123456789_ \n\uff15\u0663\u00b2"))
@example("1_000")
@example(" 5")
@example("5\n")
@example("\u0663")
@example("\u00b2")
@example("+")
@example("")
def test_numeral_reads_exactly_an_ascii_sign_and_digits(text):
    """numeral is int() on ASCII [+-]?[0-9]+, and None for any other text, where int() may accept it."""
    assert numeral(text) == (int(text) if _NUMERAL.fullmatch(text) else None)


@pytest.mark.parametrize(
    "case",
    [
        (["digits", "-b", "2+i"], "argument -b/--base: not a Gaussian integer literal: '2+i'"),
        (["deptest", "3+4j", "2+1i"], "argument a: not a Gaussian integer literal: '3+4j'"),
    ],
    ids=lambda case: " ".join(case[0]),
)
def test_a_malformed_literal_is_a_usage_error_that_names_it(case, capsys):
    argv, message = case
    with pytest.raises(SystemExit) as usage:
        main(argv)
    assert usage.value.code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"gaussbase {argv[0]}: error: {message}\n")


@given(gauss_ints)
def test_literal_roundtrip(z):
    assert GaussInt.parse(str(z)) == z


# ---- ring arithmetic ----

def test_basic_products():
    assert g(2, 1) * g(2, -1) == g(5)
    assert g(2, 1) ** 2 == g(3, 4)
    assert g(0, 1) ** 4 == ONE
    assert -g(1, -2) == g(-1, 2)
    with pytest.raises(TypeError):
        g(3, 4) - 3
    with pytest.raises(TypeError):
        g(3, 4) * 3
    with pytest.raises(TypeError):
        1 + g(0, 1)
    with pytest.raises(InvalidInput, match=r"^negative exponents leave Z\[i\]$"):
        g(2, 1) ** -1


def test_zero_divides_only_zero():
    assert divides(ZERO, ZERO)
    assert not divides(ZERO, g(3, 4))


# ---- the package's errors ----

@pytest.mark.parametrize("error", [InvalidInput, BudgetExceeded, NonTermination])
def test_an_error_formats_its_values_when_read_and_a_message_without_values_as_it_is(error):
    exc = error("%s is not a digit of base %s", g(7), g(2, 1))
    assert exc.args == ("%s is not a digit of base %s", g(7), g(2, 1))
    assert str(exc) == "7 is not a digit of base 2+1i"
    # a message without values may quote text with a % of its own
    assert str(error("not a Gaussian integer literal: '%d'")) == "not a Gaussian integer literal: '%d'"


# ---- components are ints, checked at construction ----

@pytest.mark.parametrize(
    "bad", [2.5, 3.0, "1", None, Fraction(1, 2), Fraction(4, 1), Decimal(2), True, False], ids=repr
)
def test_construction_rejects_non_int_components(bad):
    with pytest.raises(InvalidInput, match="real component"):
        g(bad, 0)
    with pytest.raises(InvalidInput, match="imaginary component"):
        g(0, bad)


def test_equal_only_to_gauss_ints():
    assert g(3) != 3
    assert 3 != g(3)
    assert g(3) == g(3, 0)


def test_float_components_are_refused_not_computed_with():
    # in floats (2+i)^60 is no longer a power of 2+i, and 3.0 has no bit_length
    z = g(2, 1) ** 60
    with pytest.raises(InvalidInput, match="real component"):
        g(float(z.re), float(z.im))
    with pytest.raises(InvalidInput, match="real component"):
        g(3.0, 4.0)


@given(gauss_ints, nonzero_gauss, st.integers(0, 6))
def test_operations_keep_int_components(z, w, n):
    values = [z + w, z - w, z * w, z**n, z.conj(), -z, exact_div(z * w, w)]
    for v in values:
        assert type(v.re) is int and type(v.im) is int
    back = (z + w) - w
    assert back == z and hash(back) == hash(z)


@given(gauss_ints, gauss_ints)
def test_norm_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(gauss_ints)
def test_norm_zero_iff_zero(z):
    assert z.norm() >= 0
    assert (z.norm() == 0) == (z == ZERO)


@given(gauss_ints, st.integers(0, 8))
def test_pow_matches_repeated_product(z, n):
    expected = ONE
    for _ in range(n):
        expected = expected * z
    assert z**n == expected


@given(gauss_ints)
def test_conj_involution(z):
    assert z.conj().conj() == z
    assert (z * z.conj()) == g(z.norm(), 0)


# ---- exact division ----

def test_exact_div_examples():
    assert g(2, 1) * g(2, -1) == g(5)  # the divisor pair multiplies back
    assert exact_div(g(5), g(2, 1)) == g(2, -1)
    assert exact_div(g(7, -9), ONE) == g(7, -9)
    assert g(2, 1) ** 2 == g(3, 4)
    assert exact_div(g(3, 4), g(2, 1)) == g(2, 1)


def test_exact_div_errors():
    with pytest.raises(NotDivisible):
        exact_div(ONE, g(2, 1))
    with pytest.raises(DivisionByZero):
        exact_div(g(5), ZERO)


@given(gauss_ints, nonzero_gauss)
def test_exact_div_inverts_product(z, w):
    assert exact_div(z * w, w) == z


def test_exact_div_message_names_no_operand(default_digit_limit):
    # parts of about 5000 digits, past the limit
    z, w = g(10**5000 + 1, 3**10480), g(10**4999 + 7, -(2**16600) - 1)
    with pytest.raises(NotDivisible, match=r"^inexact division in Z\[i\]$"):
        exact_div(z, w)


# ---- power membership ----

def test_is_power_of_examples():
    assert is_power_of(ONE, g(2, 1)) == 0
    assert is_power_of(g(3, 4), g(2, 1)) == 2
    assert is_power_of(g(2, 2), g(2, 1)) is None
    assert is_power_of(ZERO, g(2, 1)) is None
    with pytest.raises(InvalidInput, match=r"^generator norm\(0\+1i\) = 1 < 2$"):
        is_power_of(g(5), g(0, 1))
    with pytest.raises(InvalidInput, match=r"^generator norm\(0\) = 0 < 2$"):
        is_power_of(g(5), ZERO)


@given(
    st.builds(GaussInt, st.integers(-9, 9), st.integers(-9, 9)).filter(
        lambda z: z.norm() > 1
    ),
    st.integers(0, 10),
)
def test_is_power_of_recovers_exponent(a, n):
    assert is_power_of(a**n, a) == n


@given(
    st.builds(GaussInt, st.integers(-20, 20), st.integers(-20, 20)).filter(bool),
    st.builds(GaussInt, st.integers(-9, 9), st.integers(-9, 9)).filter(
        lambda z: z.norm() > 1
    ),
)
def test_is_power_of_sound(z, a):
    n = is_power_of(z, a)
    if n is not None:
        assert a**n == z


def reference_is_power_of(z, a):
    """is_power_of as it was: the norm test, then n exact divisions by a."""
    nz, na, n = z.norm(), a.norm(), 0
    if not z:
        return None
    while nz > 1:
        nz, r = divmod(nz, na)
        if r:
            return None
        n += 1
    try:
        for _ in range(n):
            z = exact_div(z, a)
    except NotDivisible:
        return None
    return n if z == ONE else None


@given(
    st.builds(GaussInt, st.integers(-9, 9), st.integers(-9, 9)).filter(lambda z: z.norm() > 1),
    st.integers(0, 12),
    st.sampled_from([ONE, g(0, 1), g(-1), g(0, -1), g(2), g(1, 1), g(3, -2)]),
    st.sampled_from([ONE, g(1, 1), g(2, -1), g(-1, 2)]),
)
def test_is_power_of_matches_the_division_descent(a, n, unit, factor):
    # unit multiples and same-norm conjugates of a^n pass the norm test but need not be powers
    for z in (a**n * unit, (a**n).conj() * unit, a**n * factor, ZERO):
        assert is_power_of(z, a) == reference_is_power_of(z, a)


def test_is_power_of_a_huge_non_power_is_none_under_the_default_limit(default_digit_limit):
    # equal norms, parts of about 4900 digits: a division message would not format them
    assert is_power_of(g(2, -1) ** 14000, g(2, 1)) is None
    assert is_power_of(g(2, 1) ** 14000, g(2, 1)) == 14000


def test_small_values_have_distinct_hashes():
    # CPython has hash(-1) == hash(-2), so a tuple hash of the components collides there
    values = [g(x, y) for x in range(-64, 65) for y in range(-64, 65)]
    assert len({hash(z) for z in values}) == len(values)
