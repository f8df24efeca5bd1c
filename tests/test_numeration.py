"""Digit sets, words, length bounds, linking, and base-power recoding."""

import itertools
import random
import time
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussbase import automata, numeration
from gaussbase.automata import digit_set_from_json, digit_set_to_json
from gaussbase.gaussint import ONE, ZERO, BudgetExceeded, GaussInt, InvalidInput, divides, exact_div
from gaussbase.numeration import (
    BLOCK_DIGITS,
    DIGIT_BUDGET,
    DigitSet,
    LargeCanonicalDigitSet,
    LengthBound,
    MEMO_SIZE,
    NonTermination,
    canonical_digit_set,
    check_linked,
    decode,
    digit_of,
    encode,
    encode_within,
    lattice_disc,
    length_bound,
    max_length_in_disc,
    power_digit_set,
    real_power_exponent,
    recode,
    terminates_on_disc,
    word_from_text,
    word_length,
    word_to_text,
)

g = GaussInt
B = g(2, 1)
SMALL_DIGITS = (g(-1), g(0, -1), g(0), g(0, 1), g(1))


@pytest.fixture(scope="module")
def D():
    return canonical_digit_set(B)


# ---- canonical digit sets ----

@pytest.mark.parametrize("base", [g(2, 1), g(-1, 2), g(-2, 1)])
def test_norm5_bases_share_unit_digits(base):
    assert canonical_digit_set(base).digits == SMALL_DIGITS


def test_base3_digits_are_the_square():
    got = canonical_digit_set(g(3)).digits
    want = tuple(
        sorted((g(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)), key=lambda d: (d.re, d.im))
    )
    assert got == want


@pytest.mark.parametrize("base", [g(2), g(-2), g(1, 1), g(1, -1), g(0, 2)])
def test_small_bases_rejected(base):
    with pytest.raises(InvalidInput, match=r"^base norm\(.*\) = \d < 5$"):
        canonical_digit_set(base)


@pytest.mark.parametrize("base", [g(3, 1), g(-2, 3), g(4, 0), g(0, 3), g(5, 5)])
def test_digit_sets_are_complete_residue_systems(base):
    D = canonical_digit_set(base)
    assert len(D.digits) == base.norm()
    assert ZERO in D.digits
    for d1, d2 in itertools.combinations(D.digits, 2):
        assert not divides(base, d1 - d2)


def test_digit_set_constructor_validates():
    with pytest.raises(InvalidInput, match="digit set must contain 0"):
        DigitSet(B, (g(1), g(-1), g(0, 1), g(0, -1), g(2)))  # no zero
    with pytest.raises(InvalidInput, match="digits are not pairwise incongruent mod base"):
        DigitSet(B, (g(0), g(1), g(-1), g(0, 1), g(1, -1)))  # 1-i = i mod (2+i)? no: count ok but congruent pair
    with pytest.raises(InvalidInput, match=r"4 digits for base 2\+1i of norm 5"):
        DigitSet(B, (g(0), g(1), g(-1), g(0, 1)))  # too few


# ---- digit_of ----

def test_digit_of_examples(D):
    assert digit_of(g(2), D) == g(0, -1)
    assert divides(B, g(2) - g(0, -1))
    assert digit_of(ZERO, D) == ZERO
    assert digit_of(g(5), D) == ZERO


@given(st.builds(GaussInt, st.integers(-40, 40), st.integers(-40, 40)))
def test_digit_of_is_the_residue(z):
    D = canonical_digit_set(B)
    d = digit_of(z, D)
    assert d in D.digits
    assert divides(B, z - d)


@pytest.mark.parametrize("z", [(2.5, 0), (1, 0.5), (3.0, 1)])
def test_non_integer_components_are_value_errors(z):
    re, im = z
    part = "real" if not isinstance(re, int) else "imaginary"
    with pytest.raises(InvalidInput, match=f"{part} component"):
        g(re, im)


def test_digit_of_non_canonical_set():
    base = g(-2, 1)
    alt = DigitSet(base, tuple(g(k) for k in range(5)))
    for z in lattice_disc(50):
        d = digit_of(z, alt)
        assert d in alt.digits
        assert divides(base, z - d)


# ---- encode / decode ----

def test_encode_examples(D):
    assert encode(ZERO, D) == ()
    assert encode(g(2), D) == (g(1), g(0, -1))
    assert encode(g(5), D) == (g(0, -1), g(0, 1), g(-1), g(0))


def test_decode_examples(D):
    assert decode((), D) == ZERO
    assert decode((g(1), g(0)), D) == B
    assert decode((g(0, -1), g(0, 1), g(-1), g(0)), D) == g(5)
    with pytest.raises(InvalidInput, match=r"2 is not a digit of base 2\+1i"):
        decode((g(2),), D)


def _all_valid_words(digits, max_len):
    yield ()
    for length in range(1, max_len + 1):
        for lead in digits:
            if lead == ZERO:
                continue
            for rest in itertools.product(digits, repeat=length - 1):
                yield (lead,) + rest


def test_words_enumerate_values_uniquely(D):
    """Independent oracle: Horner over all valid words of length <= 6.

    Every decoded value appears exactly once (uniqueness), and encode
    returns exactly the enumerated word for it.
    """
    seen = {}
    for w in _all_valid_words(D.digits, 6):
        re_acc, im_acc = 0, 0
        for d in w:  # local Horner, independent of decode()
            re_acc, im_acc = 2 * re_acc - im_acc + d.re, re_acc + 2 * im_acc + d.im
        value = (re_acc, im_acc)
        assert value not in seen, f"two words for {value}"
        seen[value] = w
    for (re_acc, im_acc), w in seen.items():
        z = g(re_acc, im_acc)
        assert encode(z, D) == w
        assert decode(w, D) == z


@given(st.builds(GaussInt, st.integers(-100, 100), st.integers(-100, 100)))
def test_roundtrip(z):
    D = canonical_digit_set(B)
    assert decode(encode(z, D), D) == z


@pytest.mark.parametrize("base", [g(-1, 2), g(3), g(1, 3), g(-3, -2)])
@given(z=st.builds(GaussInt, st.integers(-50, 50), st.integers(-50, 50)))
def test_roundtrip_other_bases(base, z):
    D = canonical_digit_set(base)
    assert decode(encode(z, D), D) == z


@given(st.builds(GaussInt, st.integers(-100, 100), st.integers(-100, 100)).filter(bool))
def test_leading_digit_nonzero(z):
    D = canonical_digit_set(B)
    assert encode(z, D)[0] != ZERO


def test_encode_non_terminating_set_raises():
    # replacing digit -1 by its residue-mate 2 makes -1 -> (-1-2)/3 = -1 cycle
    base = g(3)
    digits = tuple(d if d != g(-1) else g(2) for d in canonical_digit_set(base).digits)
    trap = DigitSet(base, digits)
    with pytest.raises(NonTermination, match=r"^digit loop for -1 over base 3 exceeded \d+ iterations$"):
        encode(g(-1), trap)
    assert not terminates_on_disc(trap)
    with pytest.raises(NonTermination, match="^digit set over 3 fails the termination probe$"):
        check_linked(trap, canonical_digit_set(base))
    assert encode_within(g(-1), trap, 50) is None  # the loop cycles, so no word at all
    # the cap reads only the value and the base, so values whose loop ends still encode
    assert encode(ZERO, trap) == ()
    assert encode(g(5), trap) == (g(1), g(2))
    # a long value runs the digits a block at a time, and its loop still cycles
    z = g(-(2**3000) + 1, 3**1000)
    cap = 2 * -(-(z.norm() + 1).bit_length() // 3) + 272  # bits(norm(3)) - 1 = 3
    assert reference_encode_within(z, trap, cap) is None
    with pytest.raises(NonTermination) as got:
        encode(z, trap)
    assert str(got.value) == f"digit loop for {z} over base 3 exceeded {cap} iterations"
    for max_len in (1, 100, 2000, 5000):
        assert encode_within(z, trap, max_len) is None


def test_per_base_memos_are_bounded():
    for b in [b for b in lattice_disc(100) if b.norm() >= 5][:200]:
        terminates_on_disc(canonical_digit_set(b))
        length_bound(b)
    for memo in (canonical_digit_set, length_bound, terminates_on_disc):
        assert memo.cache_info().currsize <= MEMO_SIZE


long_components = st.integers(-300, 300) | st.integers(-(2**3000), 2**3000)


@settings(max_examples=60, deadline=None)
@given(long_components, long_components)
@example(5**300, 0)  # a word of about 600 digits over 2+i, so every cut but len // 2 runs blocks
@example(5**300 - 1, 0)
def test_encode_within_cuts_at_the_word_length(D, x, y):
    word = encode(g(x, y), D)
    assert encode_within(g(x, y), D, len(word)) == word
    assert encode_within(g(x, y), D, len(word) + 3) == word
    if word:
        assert encode_within(g(x, y), D, len(word) - 1) is None
        assert encode_within(g(x, y), D, len(word) // 2) is None


# ---- lengths ----

def test_word_length_examples(D):
    assert word_length(ZERO, D) == 0
    assert word_length(g(5), D) == 4
    assert word_length(B, D) == 2
    assert word_length(g(3), D) == 3


def test_max_length_in_disc_examples(D):
    assert max_length_in_disc(0, D) == 0
    assert max_length_in_disc(1, D) == 1
    assert max_length_in_disc(9, D) == 3


def test_max_length_monotone(D):
    values = [max_length_in_disc(r2, D) for r2 in (0, 1, 2, 4, 9, 25, 100)]
    assert values == sorted(values)


def test_max_length_recursion_up_to_sixth_power(D):
    # shrinking the disc by one factor of the base costs at most one digit:
    # the max over norm <= 5^k stays within M(9) + k - 1
    m3 = max_length_in_disc(9, D)
    maxima = [0] * 7
    for z in lattice_disc(5**6):
        n2 = z.norm()
        ell = word_length(z, D)
        for k in range(1, 7):
            if n2 <= 5**k and ell > maxima[k]:
                maxima[k] = ell
    for k in range(1, 7):
        assert maxima[k] <= m3 + k - 1


def test_length_bound_predicate(D):
    lb = length_bound(B)
    assert lb.m3 == 3
    assert lb.within_bound(ZERO, 0)
    for k in range(9):
        assert not lb.within_bound(B**k, k)
    for z in lattice_disc(400):
        ell = word_length(z, D)
        for k in range(10):
            if lb.within_bound(z, k):
                assert ell <= k


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([B, g(-4, 7), g(0, 11), g(10**200, 1)]),
    st.integers(0, 6),
    st.integers(-3, 20),
    st.integers(-1, 1),
    st.integers(-1, 1),
)
@example(g(10**200, 1), 1, -1, 0, 0)
@example(g(10**200, 1), 1, -1, -1, 0)
@example(B, 3, 1, -1, 0)
def test_within_bound_is_the_exact_predicate_for_every_k(b, m3, k, dx, dy):
    # z is b^(k - m3), of norm exactly n^(k - m3), or one of its neighbours; 1 and its
    # neighbours, 0 among them, when k < m3.  For k < 0 the predicate's n^k is a Fraction.
    n = b.norm()
    z = b ** max(k - m3, 0) + g(dx, dy)
    assert LengthBound(b, m3).within_bound(z, k) == (z.norm() * Fraction(n) ** m3 <= Fraction(n) ** k)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LengthBound((2, 1), 2), r"base \(2, 1\) is not a GaussInt"),
        (lambda: LengthBound(5, 2), "base 5 is not a GaussInt"),
        (lambda: LengthBound(g(1), 2), r"norm\(1\) = 1 < 5"),
        (lambda: length_bound(B)._replace(base=ZERO), r"norm\(0\) = 0 < 5"),
        (lambda: length_bound(B)._replace(base=(2, 1)), r"base \(2, 1\) is not a GaussInt"),
        (lambda: real_power_exponent((2, 1)), r"base \(2, 1\) is not a GaussInt"),  # checked as the records check it
    ],
)
def test_a_length_bound_refuses_a_base_that_is_no_gaussint_of_norm_at_least_5(make, message):
    """A length bound checks its base when built, _replace included, as a digit set does
    (test_records), so within_bound never meets a unit or zero base."""
    with pytest.raises(InvalidInput, match=message):
        make()


# ---- base powers and recoding ----

def test_power_digit_set_sizes(D):
    assert power_digit_set(D, 1) == D
    assert len(power_digit_set(D, 2).digits) == 25
    with pytest.raises(InvalidInput, match="^power exponent = 0 < 1$"):
        power_digit_set(D, 0)


@pytest.mark.parametrize("j", [1.5, 2.0, True, "2", None])
def test_an_exponent_that_is_not_an_int_is_refused(D, j):
    """A float exponent once recoded a six-digit word to () and made power_digit_set raise a bare TypeError."""
    w = encode(g(37, -11), D)
    assert len(w) == 6
    for call in (lambda: recode(w, D, j), lambda: recode(w[:1], D, j), lambda: power_digit_set(D, j)):
        with pytest.raises(InvalidInput, match=r"^power exponent .* is not an int$"):
            call()


@pytest.mark.parametrize("j", [8, 10**12])
def test_power_digit_set_past_the_digit_budget_is_refused_at_once(D, j):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="digit budget"):
        power_digit_set(D, j)
    assert time.perf_counter() - start < 0.1


def test_recode_examples(D):
    assert recode((), D, 3) == ()
    assert recode((g(1), g(0, -1)), D, 2) == (g(2),)
    with pytest.raises(InvalidInput, match="^power exponent = 0 < 1$"):
        recode((g(1),), D, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.builds(GaussInt, st.integers(-50, 50), st.integers(-50, 50)),
    st.sampled_from([2, 3]),
)
def test_recode_matches_power_base_encode(z, j):
    D = canonical_digit_set(B)
    P = power_digit_set(D, j)
    w = recode(encode(z, D), D, j)
    assert decode(w, P) == z
    assert w == encode(z, P)


def test_recode_rejects_foreign_digits(D):
    with pytest.raises(InvalidInput, match=r"7 is not a digit of base 2\+1i"):
        recode((g(7),), D, 2)


# ---- linking ----

@pytest.mark.parametrize("base", [g(2, 1), g(-2, 1), g(3), g(1, 3)])
def test_check_linked_reflexive(base):
    D = canonical_digit_set(base)
    cert = check_linked(D, D)
    assert cert is not None
    assert ZERO in cert.envelope


def test_check_linked_alternative_digit_set():
    base = g(-2, 1)
    alt = DigitSet(base, tuple(g(k) for k in range(5)))
    assert terminates_on_disc(alt)
    cano = canonical_digit_set(base)
    cert = check_linked(alt, cano)
    assert cert is not None
    # re-verify the linking inclusion from scratch
    env = set(cert.envelope)
    for d in alt.digits:
        for e in cert.envelope:
            x = d + e
            d2 = digit_of(x, cano)
            q = x - d2
            t = q * base.conj()
            n = base.norm()
            assert t.re % n == 0 and t.im % n == 0
            assert g(t.re // n, t.im // n) in env


def test_check_linked_base_mismatch():
    with pytest.raises(InvalidInput, match=r"bases differ: 2\+1i vs 3"):
        check_linked(canonical_digit_set(g(2, 1)), canonical_digit_set(g(3)))


# ---- real power detection ----

@pytest.mark.parametrize(
    "base,expected",
    [
        (g(3), 1),
        (g(-3), 2),
        (g(2, 2), 8),
        (g(0, 3), 4),
        (g(2, 1), None),
        (g(1, 3), None),
    ],
)
def test_real_power_exponent(base, expected):
    assert real_power_exponent(base) == expected


def test_real_power_exponent_small_base():
    with pytest.raises(InvalidInput, match=r"^base norm\(2\) = 4 < 5$"):
        real_power_exponent(g(2))


# ---- serialization ----

def test_word_text_roundtrip(D):
    w = encode(g(5), D)
    assert word_to_text(w) == "0-1i,0+1i,-1,0"
    assert word_from_text("0-1i,0+1i,-1,0") == w
    assert word_to_text(()) == ""
    assert word_from_text("") == ()


digit_components = st.integers(-3, 3) | st.integers(-(10**30), 10**30)


@settings(max_examples=300, deadline=None)
@example(w=())
@example(w=(g(-1), g(0, -1), g(0), g(0, 1), g(-1), g(2, -3), g(0, -1)))
@given(w=st.lists(st.builds(GaussInt, digit_components, digit_components), max_size=40).map(tuple))
def test_word_to_text_formats_each_digit_as_str_does(w):
    # repeated digits, negative, zero-real and zero-imaginary ones all read as str() reads them
    assert word_to_text(w) == ",".join(str(d) for d in w)


@pytest.mark.parametrize(
    "text,bad", [("1,x,1,y", "x"), ("1,-1,0+1i,2 ,2 ,y", "2 "), ("0,,1", ""), ("1,0,1,1+\u0663i,x", "1+\u0663i")]
)
def test_word_from_text_refuses_its_first_malformed_literal(text, bad):
    with pytest.raises(InvalidInput) as exc:
        word_from_text(text)
    assert str(exc.value) == f"not a Gaussian integer literal: {bad!r}"


def test_digit_set_json_roundtrip(D):
    obj = digit_set_to_json(D)
    assert obj["base"] == "2+1i"
    assert obj["digits"] == ["-1", "0-1i", "0", "0+1i", "1"]
    assert digit_set_from_json(obj) == D


# ---- the tables a DigitSet owns ----

BASES_5_TO_100 = [b for b in lattice_disc(100) if b.norm() >= 5]


def test_canonical_digits_are_the_box_for_every_base_up_to_norm_100():
    for b in BASES_5_TO_100:
        assert canonical_digit_set(b).digits == reference_canonical_digits(b)


def test_length_bound_m3_is_max_length_in_disc_9_for_every_base_up_to_norm_100():
    for b in BASES_5_TO_100:
        D = canonical_digit_set(b)
        assert length_bound(b).m3 == max(len(reference_encode(z, D)) for z in lattice_disc(9))


def test_unlisted_canonical_digits_match_the_listed_ones_for_every_base_up_to_norm_100():
    for b in BASES_5_TO_100:
        listed, unlisted = canonical_digit_set(b), LargeCanonicalDigitSet(b)
        assert max_length_in_disc(9, unlisted) == max_length_in_disc(9, listed)
        for z in lattice_disc(b.norm()):
            pair = (z.re, z.im)
            assert (pair in unlisted.positions) == (pair in listed.positions) == in_canonical_box(z, b)
            assert digit_of(z, unlisted) == digit_of(z, listed)
            w = encode(z, unlisted)
            assert w == encode(z, listed)
            assert decode(w, unlisted) == z
            assert recode(w, unlisted, 2) == recode(w, listed, 2)
        with pytest.raises(BudgetExceeded, match="digit budget"):
            unlisted.digits


def test_a_base_past_the_digit_budget_still_encodes_and_decodes():
    b = g(1000, 1)
    assert b.norm() > DIGIT_BUDGET
    D = canonical_digit_set(b)
    for z in (g(10**40 + 7, -(3**80)), g(-500, 499), g(1000, 1)):
        w = encode(z, D)
        assert decode(w, D) == z
        assert all(abs(2 * (d * b.conj()).re) <= b.norm() for d in w)
    assert encode(b, D) == (ONE, ZERO)
    with pytest.raises(InvalidInput, match=r"501 is not a digit of base 1000\+1i"):
        decode((g(501), g(0)), D)
    with pytest.raises(BudgetExceeded, match="digit budget"):
        D.digits


def test_the_index_of_a_digit_past_the_digit_budget_is_refused_as_the_digits_are():
    """positions is the member test of an unlisted set; a digit's index in it is refused, as .digits is."""
    D = canonical_digit_set(g(400, 1))
    assert (0, 0) in D.positions and (400, 1) not in D.positions
    refusal = r"^base 400\+1i of norm 160001 has more digits than the digit budget of 100000$"
    for ask in (lambda: D.positions[0, 0], lambda: D.digits):
        with pytest.raises(BudgetExceeded, match=refusal):
            ask()


def test_digit_map_never_hashes_the_digit_set(monkeypatch):
    D = canonical_digit_set(g(3, 2))
    b3 = canonical_digit_set(g(3))
    length_bound(g(3, 2))  # warm the canonical_digit_set memo, keyed on the base
    oracle = automata.powers_oracle(g(3, 2), D)
    dfa = automata.powers_dfa(g(3, 2))

    def no_hash(self):
        raise AssertionError("DigitSet hashed on a per-call path")

    monkeypatch.setattr(DigitSet, "__hash__", no_hash)
    z = g(17, -5)
    w = encode(z, D)
    assert decode(w, D) == z
    assert decode(recode(w, D, 2), power_digit_set(D, 2)) == z
    assert word_length(z, D) == len(w)
    assert digit_of(z, D) == w[-1]
    assert length_bound(g(3, 2)).m3 == max_length_in_disc(9, D)
    assert automata.run(dfa, encode(g(3, 2) ** 3, D))
    assert automata.residual_signatures(oracle, 2, 1).class_count >= 1
    assert automata.dfa_oracle_disagreement(dfa, oracle, 2) is None
    assert encode(g(4), b3) == (g(1), g(1))


huge_components = st.one_of(st.integers(-50, 50), st.integers(-(2**2000), 2**2000))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(GaussInt, st.integers(-40, 40), st.integers(-40, 40)).filter(lambda b: b.norm() >= 5),
        st.sampled_from([g(400, 7), g(-1000, 999)]),  # past DIGIT_BUDGET
    ),
    st.builds(GaussInt, huge_components, huge_components),
)
@example(g(2, 1), g(2))  # norm(z) + 1 = 5 = norm(b)
@example(g(2, 1), ZERO)
def test_encode_cap_is_never_below_the_log_cap(b, z):
    """encode's cap, bounded from bit lengths, is at least 4*M(3) + 2*ceil(log_N(norm(z)+1)) + 16.

    The cap is read from the function encode forms it with, and names it when a trap set cycles
    (test_a_lazy_cap_refuses_as_an_eager_one_does)."""
    D = canonical_digit_set(b)
    m3 = length_bound(b).m3
    assert decode(encode(z, D), D) == z
    cap = numeration._encode_cap(z, D)
    k, power = 0, 1
    while power < z.norm() + 1:  # k = ceil(log_N(norm(z) + 1))
        power *= b.norm()
        k += 1
    assert cap >= 4 * m3 + 2 * k + 16


# ---- the plain-int loops against the GaussInt references they replaced ----

def in_canonical_box(d, b):
    """-n <= 2*Re(d*conj(b)) < n and -n <= 2*Im(d*conj(b)) < n for n = norm(b): d/b rounds to 0."""
    n, t = b.norm(), d * b.conj()
    return -n <= 2 * t.re < n and -n <= 2 * t.im < n


def is_digit(d, D):
    """Whether d is a GaussInt among D's listed digits, or in the box of a set that lists none."""
    if not isinstance(d, GaussInt):
        return False
    return in_canonical_box(d, D.base) if isinstance(D, LargeCanonicalDigitSet) else d in D.digits


def reference_canonical_digits(b):
    """The earlier canonical_digit_set: box-test every point of the square |re|, |im| <= isqrt(norm(b)).

    The points come in (re, im) order, the order of DigitSet.digits.
    """
    n = b.norm()
    r = isqrt(n)
    box = []
    for x, y in itertools.product(range(-r, r + 1), repeat=2):
        t = g(x, y) * b.conj()
        if -n <= 2 * t.re < n and -n <= 2 * t.im < n:
            box.append(g(x, y))
    return tuple(box)


def reference_encode_within(z, D, max_len):
    """The earlier encode_within: one digit step per digit on GaussInt values, at most max_len steps."""
    out = []
    while z:
        if len(out) >= max_len:
            return None
        d = digit_of(z, D)
        out.append(d)
        z = exact_div(z - d, D.base)
    return tuple(reversed(out))


def reference_encode(z, D):
    """The earlier encode: M(3) bootstrapped with the cap 64, then the cap 4*M(3) + 2*ceil(log_N(norm(z) + 1)) + 16.

    The log is bounded from bit lengths, as encode bounds it.
    """

    def capped(v, cap):
        w = reference_encode_within(v, D, cap)
        if w is None:
            raise NonTermination(f"digit loop for {v} over base {D.base} exceeded {cap} iterations")
        return w

    m3 = max(len(capped(v, 64)) for v in lattice_disc(9))
    return capped(z, 4 * m3 + 2 * -(-(z.norm() + 1).bit_length() // (D.base.norm().bit_length() - 1)) + 16)


def reference_decode(w, D):
    """The earlier decode: Horner on GaussInt values."""
    acc = ZERO
    for d in w:
        if not is_digit(d, D):
            raise InvalidInput(f"{d} is not a digit of base {D.base}")
        acc = acc * D.base + d
    return acc


def reference_recode(w, D, j):
    """The earlier recode: pad to a multiple of j, decode each block, strip leading zero digits."""
    padded = (ZERO,) * ((-len(w)) % j) + tuple(w)
    out = [reference_decode(padded[i : i + j], D) for i in range(0, len(padded), j)]
    head = 0
    while head < len(out) and out[head] == ZERO:
        head += 1
    return tuple(out[head:])


def bases(max_norm=2000):
    """Bases of norm 5..max_norm, of any signs, often with a zero component."""
    r = isqrt(max_norm)
    part = st.integers(-r, r)
    return st.one_of(
        st.builds(g, part, part), st.builds(g, part, st.just(0)), st.builds(g, st.just(0), part)
    ).filter(lambda b: 5 <= b.norm() <= max_norm)


LARGE_BASES = [g(400, -7), g(-317, 0)]  # norms 160049 and 100489, past DIGIT_BUDGET


def block_edges(b):
    """Word lengths at the edges of decode's blocks over b: the first block length, and
    k - 1, k, k + 1 and 2k + 1 digits past a length of BLOCK_DIGITS or more, for the
    block length k."""
    k = numeration._block_length(b.norm())
    whole = -(-BLOCK_DIGITS // k) * k
    return [BLOCK_DIGITS - 1, BLOCK_DIGITS, *(whole + extra for extra in (k - 1, k, k + 1, 2 * k + 1))]


ALT = DigitSet(g(-2, 1), tuple(g(k) for k in range(5)))  # a digit set that is not canonical


def digit_set_of(key):
    """ALT, or the canonical digit set of a base."""
    return key if key == ALT else canonical_digit_set(key)


@st.composite
def digit_words(draw):
    """(key, w): ALT or a base, with or without a listed digit set, and a word over its digits.

    The word often has leading zeros.  Most words are short; the rest have
    a length at a block edge or up to a few thousand digits, drawn from a
    seeded generator.  A base stands for its canonical digit set (see
    digit_set_of), as printing a LargeCanonicalDigitSet's fields would ask
    for its digits.
    """
    key = draw(bases() | st.sampled_from([*LARGE_BASES, ALT]))
    D = digit_set_of(key)
    values = st.builds(g, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
    lead = (ZERO,) * draw(st.integers(0, 4))
    if draw(st.integers(0, 2)):
        digits = st.lists(st.just(ZERO) | values.map(lambda z: digit_of(z, D)), max_size=14)
        return key, lead + tuple(draw(digits))
    length = draw(st.sampled_from(block_edges(D.base)) | st.integers(BLOCK_DIGITS, 3000))
    rng = draw(st.randoms(use_true_random=False))
    pool = [digit_of(g(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)), D) for _ in range(50)]
    return key, lead + tuple(rng.choice(pool) for _ in range(length))


# components of 0 to 6000 bits: words of every length up to a few thousand digits
sized_components = st.integers(0, 6000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(bases(400), st.sampled_from(LARGE_BASES)).map(canonical_digit_set) | st.just(ALT),
    st.builds(GaussInt, huge_components, huge_components) | st.builds(GaussInt, sized_components, sized_components),
)
@example(ALT, g(-3, 7))
@example(canonical_digit_set(g(20, 1)), ZERO)
def test_encode_equals_the_reference(D, z):
    assert encode(z, D) == reference_encode(z, D)


FAR = DigitSet(B, tuple(d if d == ZERO else d + g(10**40) * B for d in SMALL_DIGITS))  # digits far from 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 400), st.randoms(use_true_random=False))
def test_a_word_over_far_digits_encodes_back_to_itself(length, rng):
    """A word over FAR is the loop's word for its value.  A block's remainder, though small,
    has a long word over FAR, and a block still emits just the loop's first k digits of it."""
    w = (rng.choice(FAR.digits[1:]),) + tuple(rng.choice(FAR.digits) for _ in range(length - 1))
    z = decode(w, FAR)
    assert encode_within(z, FAR, length) == w == reference_encode_within(z, FAR, length)
    assert encode_within(z, FAR, 10**4) == w
    assert encode_within(z, FAR, length - 1) is None


@pytest.mark.parametrize("k", [2, 3, 7])
def test_the_block_length_changes_no_word_and_no_value(k):
    """The loop's state on w = q*b^k + r after k steps is its state on r plus q, for every k."""
    rng = random.Random(k)
    cases = []
    for D in (canonical_digit_set(g(3, -2)), ALT):
        for bits in (700, 2000, 6000):
            cases.append((D, g(rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits))))
    for length in (BLOCK_DIGITS, 400):
        far = (rng.choice(FAR.digits[1:]),) + tuple(rng.choice(FAR.digits) for _ in range(length - 1))
        cases.append((FAR, decode(far, FAR)))
    words = [encode_within(z, D, 10**4) for D, z in cases]
    assert all(len(w) >= BLOCK_DIGITS for w in words)
    with mock.patch.object(numeration, "_block_length", lambda n: k):
        for (D, z), w in zip(cases, words):
            assert encode_within(z, D, 10**4) == w
            assert encode_within(z, D, len(w) - 1) is None
            assert decode(w, D) == z


def test_a_block_that_reaches_the_end_of_the_word_strips_its_padding():
    """Over 2+i, with e = 2^31 and big = -1-i - e*b^k among the digits, the word of big is (big,),
    though it has 60 bits.  So in big*b^(20k) the block that splits off big reaches 0 inside
    itself: the word of its remainder -1-i is (e, 0, ..., 0, big), so its k steps emit big and
    k - 1 zeros, the state e they leave plus q = -e is 0, and those zeros must go."""
    k = numeration._block_length(B.norm())
    e = g(2**31)
    big = g(-1, -1) - e * B**k
    canonical = canonical_digit_set(B)
    swap = {digit_of(e, canonical): e, digit_of(big, canonical): big}
    D = DigitSet(B, tuple(swap.get(d, d) for d in canonical.digits))
    w = (big,) + (ZERO,) * (20 * k)
    z = decode(w, D)
    assert encode_within(z, D, 10**4) == w == reference_encode_within(z, D, 10**4)
    assert encode_within(z, D, len(w)) == w
    assert encode_within(z, D, len(w) - 1) is None


@settings(max_examples=150, deadline=None)
@given(bases())
@example(g(3, 0))
@example(g(0, -3))
@example(g(-44, 0))
@example(g(0, 44))
@example(g(-31, -31))
@example(g(2, -1))
def test_canonical_digit_set_is_the_box_filter(b):
    D = canonical_digit_set(b)
    assert D.digits == reference_canonical_digits(b)
    n = b.norm()
    for d in D.digits:
        t = d * b.conj()
        assert D._loop[3][t.re % n * n + t.im % n] == (d, t.re, t.im)


@settings(max_examples=200, deadline=None)
@given(digit_words(), st.sampled_from([1, 2, 3, 5]))
@example((B, ()), 3)
@example((B, (ZERO, ZERO)), 3)
@example((LARGE_BASES[0], ()), 2)
@example((ALT, (ZERO,) * 3 + (ONE,) * BLOCK_DIGITS), 2)
# long words over bases whose _block_length is 1 (norm 2^31) and 0 (norm 2^60): each is one block
@example((g(2**15, 2**15), (ZERO,) + tuple(g(k, 1 - k) for k in range(BLOCK_DIGITS))), 3)
@example((g(2**30, 0), tuple(g(-k, k % 7) for k in range(BLOCK_DIGITS + 1))), 2)
def test_decode_and_recode_equal_the_references(case, j):
    key, w = case
    D = digit_set_of(key)
    assert decode(w, D) == reference_decode(w, D)
    assert recode(w, D, j) == reference_recode(w, D, j)


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("base", [g(3, -2), g(0, 7), *LARGE_BASES])
def test_a_non_digit_anywhere_in_a_block_is_refused_as_decode_refuses_it(base, j):
    D = canonical_digit_set(base)
    word = tuple(digit_of(g(7919 * k, -104729 * k), D) for k in range(1, 2 * j + 2))
    for bad in (word[0] + base, (word[0].re, word[0].im)):  # d + b is never a canonical digit
        for pos in range(len(word)):
            w = word[:pos] + (bad,) + word[pos + 1 :]
            with pytest.raises(InvalidInput) as want:
                reference_decode(w, D)
            assert str(want.value) == f"{bad} is not a digit of base {base}"
            for call in (decode, lambda w, D: recode(w, D, j)):
                with pytest.raises(InvalidInput) as got:
                    call(w, D)
                assert str(got.value) == str(want.value)


@pytest.mark.parametrize("base", [B, g(3, -2), g(7, 5), *LARGE_BASES])
def test_a_non_digit_in_a_long_word_is_refused_as_decode_refuses_it(base):
    """A word of several blocks: a non-digit in its first block, its last, or both, as decode's first."""
    D = canonical_digit_set(base)
    word = tuple(digit_of(g(7919 * k, -104729 * k), D) for k in range(1, 3 * BLOCK_DIGITS))
    bad, worse = word[0] + base, (word[1].re, word[1].im)  # d + b is never a canonical digit
    k = numeration._block_length(base.norm())
    head = len(word) % k
    for places in ((0,), (head - 1,), (head,), (len(word) - k,), (len(word) - 1,), (len(word) - 2, 5), (3, 1)):
        w = list(word)
        for pos, digit in zip(places, (bad, worse)):
            w[pos] = digit
        w = tuple(w)
        with pytest.raises(InvalidInput) as want:
            reference_decode(w, D)
        for call in (decode, lambda w, D: recode(w, D, 2)):
            with pytest.raises(InvalidInput) as got:
                call(w, D)
            assert str(got.value) == str(want.value)


def test_a_word_of_75000_digits_encodes_and_decodes_in_blocks():
    """5^37500 - 1 over 2+i, a word of 75,002 digits: one big-int step per digit took about 6.5 s."""
    D = canonical_digit_set(B)
    z = g(5**37500 - 1)
    start = time.perf_counter()
    w = encode(z, D)
    assert decode(w, D) == z
    elapsed = time.perf_counter() - start
    assert 75000 <= len(w) <= 75000 + length_bound(B).m3
    assert elapsed < 2  # about 0.3 s on a 2-vCPU VM


# ---- the int-pair tables and the m3 shortcut against brute force ----

def reference_disc(r2):
    """The earlier lattice_disc: every point of the square |re|, |im| <= isqrt(r2), filtered by norm."""
    r = isqrt(r2) if r2 >= 0 else -1
    return tuple(g(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y <= r2)


def brute_max_length(r2, D):
    """The earlier max_length_in_disc: encode every point of the disc, in disc order."""
    return max((len(encode(z, D)) for z in reference_disc(r2)), default=0)


def horner(w, b):
    """The value of an msd-first word over base b, folded on GaussInt values with no digit check."""
    acc = ZERO
    for d in w:
        acc = acc * b + d
    return acc


def outcome(call, *args):
    """What call(*args) returns, or the type and text of the error it raises."""
    try:
        return call(*args)
    except (InvalidInput, NonTermination) as e:
        return type(e), str(e)


def test_lattice_disc_is_the_filtered_square():
    for r2 in range(-3, 401):
        assert tuple(lattice_disc(r2)) == reference_disc(r2)


def test_length_bound_m3_is_the_longest_encoded_word_for_every_base_of_norm_5_to_300():
    for b in (b for b in lattice_disc(300) if b.norm() >= 5):
        D = canonical_digit_set(b)
        assert length_bound(b).m3 == max(len(encode(z, D)) for z in lattice_disc(9))


@st.composite
def shifted_digit_sets(draw):
    """A complete residue system containing 0 that is often not canonical: each nonzero canonical
    digit d of a base of norm 5-80 becomes d + k*b for a small k.  Some of these loops cycle."""
    b = draw(bases(80))
    k = st.builds(g, st.integers(-2, 2), st.integers(-2, 2))
    digits = [d + draw(k) * b if d and draw(st.booleans()) else d for d in canonical_digit_set(b).digits]
    return DigitSet(b, tuple(digits))


TRAP = DigitSet(g(3), tuple(d if d != g(-1) else g(2) for d in canonical_digit_set(g(3)).digits))  # -1 cycles


@settings(max_examples=150, deadline=None)
@given(shifted_digit_sets() | st.sampled_from([ALT, TRAP]), st.integers(-2, 40))
@example(TRAP, 9)
@example(ALT, 9)
@example(canonical_digit_set(g(7, 1)), 0)
def test_max_length_in_disc_equals_encoding_every_point(D, r2):
    """Equal lengths, or NonTermination at the same first point with the same message."""
    assert outcome(max_length_in_disc, r2, D) == outcome(brute_max_length, r2, D)


def test_max_length_in_disc_names_the_first_cycling_point():
    """-3, the first point in disc order, goes to -1, which cycles; the digits before it are not encoded."""
    with pytest.raises(NonTermination, match=r"^digit loop for -3 over base 3 exceeded 276 iterations$"):
        max_length_in_disc(9, TRAP)
    assert max_length_in_disc(-1, TRAP) == max_length_in_disc(0, TRAP) == 0
    with pytest.raises(NonTermination, match=r"^digit loop for -1 over base 3 exceeded 274 iterations$"):
        max_length_in_disc(1, TRAP)


def brute_terminates(D):
    """The earlier terminates_on_disc: encode every point of lattice_disc(400), in disc order."""
    try:
        for z in lattice_disc(400):
            encode(z, D)
    except NonTermination:
        return False
    return True


# 11 = (11 + 22)/3 is a fixed point, and every point of norm <= 100 terminates
FAR_TRAP = DigitSet(g(3), tuple(d if d != g(-1) else g(-22) for d in canonical_digit_set(g(3)).digits))


@settings(max_examples=100, deadline=None)
@given(shifted_digit_sets() | st.sampled_from([ALT, TRAP, FAR_TRAP]))
@example(TRAP)
@example(FAR_TRAP)
@example(ALT)
def test_terminates_on_disc_equals_encoding_every_point(D):
    want = brute_terminates(D)
    terminates_on_disc.cache_clear()
    assert terminates_on_disc(D) == want


# values whose real part has 700-6000 bits: words of several hundred to a few thousand digits
long_values = st.integers(700, 6000).flatmap(
    lambda bits: st.builds(
        g,
        st.integers(2 ** (bits - 1), 2**bits - 1) | st.integers(1 - 2**bits, -(2 ** (bits - 1))),
        st.integers(-(2**bits), 2**bits),
    )
)


def cut(word, max_len):
    """reference_encode_within's answer at max_len, given its word at a larger max_len (or None)."""
    return word if word is not None and len(word) <= max_len else None


@settings(max_examples=150, deadline=None)
@given(
    shifted_digit_sets() | st.sampled_from([ALT, TRAP, FAR]) | st.sampled_from(LARGE_BASES).map(canonical_digit_set),
    long_values,
    st.integers(1, 64),
)
def test_the_block_path_equals_the_reference_at_the_max_len_edges(D, z, past):
    """Digit sets that may cycle or lie far from 0; max_len just past _BLOCK_STEPS, within 3 of the
    word's length, and 10^4."""
    word = reference_encode_within(z, D, 10**4)
    edges = range(len(word) - 3, len(word) + 4) if word is not None else ()
    for max_len in (numeration._BLOCK_STEPS + past, *edges, 10**4):
        assert encode_within(z, D, max_len) == cut(word, max_len)


def eager_cap(z, D):
    """encode's cap as encode formed it before every call: 2*ceil(bits(norm(z) + 1) / (bits(N) - 1)) + 272."""
    return 2 * -(-(z.norm() + 1).bit_length() // (D.base.norm().bit_length() - 1)) + 272


# digit 1 of 2+2i moved by 200*(2+2i): the word of 2^397*i has 273 digits, though it is too short for blocks
SLOW = DigitSet(g(2, 2), tuple(d + g(200) * g(2, 2) if d == ONE else d for d in canonical_digit_set(g(2, 2)).digits))


@settings(max_examples=150, deadline=None)
@given(
    shifted_digit_sets() | st.sampled_from([ALT, TRAP, FAR, FAR_TRAP, SLOW]),
    st.builds(g, st.integers(-300, 300), st.integers(-300, 300)) | long_values,
)
@example(TRAP, g(-1))  # cycles from the first step: the loop reaches 272 steps, then the cap, 274
@example(TRAP, g(-(3**150)))  # 150 zeros, then -1 cycles: a cap of 590, and too short for blocks
@example(TRAP, g(-(3**300)))  # the block path with a cap of 1174
@example(TRAP, g(3**300))  # a word of 301 digits, so the loop passes 272 steps and ends
@example(FAR, g(7**150, -(5**99)))
@example(SLOW, g(0, 2**397))  # the loop passes 272 steps, forms the cap, 802, and ends at 273
def test_a_lazy_cap_refuses_as_an_eager_one_does(D, z):
    """Without a max_len, encode_within gives the word or None that encode's cap, formed up front, gives;
    and encode raises NonTermination with the same cap in the same message."""
    cap = eager_cap(z, D)
    word = encode_within(z, D, cap)
    assert numeration._encode_cap(z, D) == cap
    assert encode_within(z, D) == word
    refusal = (NonTermination, f"digit loop for {z} over base {D.base} exceeded {cap} iterations")
    assert outcome(encode, z, D) == (refusal if word is None else word)


@settings(max_examples=100, deadline=None)
@given(bases())
@example(g(3))  # real
@example(g(-7))
@example(g(0, 5))  # pure imaginary
@example(g(0, -3))
@example(g(2, 2))  # not primitive
@example(g(6, -3))
def test_the_one_pass_canonical_set_equals_the_validated_reference(b):
    """canonical_digit_set builds its tables from its own row walk; DigitSet builds them from the
    reference's digits, in any order.  Fields, tables and loop constants agree, in order too."""
    D = canonical_digit_set(b)
    R = DigitSet(b, reversed(reference_canonical_digits(b)))
    assert type(D) is type(R) is DigitSet
    assert tuple(D) == tuple(R) == (b, reference_canonical_digits(b))
    assert list(D.positions.items()) == list(R.positions.items())
    assert list(D._loop[3].items()) == list(R._loop[3].items())
    assert D._loop == R._loop and D._fold == R._fold


class Lookalike:
    """An object with a digit's re and im that is no GaussInt."""

    def __init__(self, d):
        self.re, self.im = d.re, d.im

    def __str__(self):
        return f"lookalike of {self.re}, {self.im}"


def odd_parts(re):
    """A Lookalike of 0 whose re is re: no lookup of its (re, im) pair can be made."""
    stray = Lookalike(ZERO)
    stray.re = re
    return stray


@st.composite
def words_with_strays(draw):
    """(D, w, j): a canonical, shifted or large digit set, a word over it that may hold a stray, and a power j.

    A stray is d + b for a digit d, never a digit of a canonical set, a
    digit's bare (re, im) tuple, a Lookalike of a digit, or a Lookalike
    whose re is unhashable, a string or None (see odd_parts)."""
    D = draw(st.one_of(st.one_of(bases(400), st.sampled_from(LARGE_BASES)).map(canonical_digit_set), shifted_digit_sets()))
    values = st.builds(g, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
    digit = values.map(lambda z: digit_of(z, D))
    stray = st.one_of(
        digit.map(lambda d: d + D.base),
        digit.map(lambda d: (d.re, d.im)),
        digit.map(Lookalike),
        st.sampled_from([[1], "a", None]).map(odd_parts),
    )
    element = st.one_of(digit, st.just(ZERO), stray) if draw(st.booleans()) else digit | st.just(ZERO)
    return D, tuple(draw(st.lists(element, max_size=12))), draw(st.sampled_from([1, 2, 3, 5]))


@settings(max_examples=150, deadline=None)
@given(words_with_strays())
@example((canonical_digit_set(LARGE_BASES[0]), (ONE, ONE + LARGE_BASES[0], ZERO), 2))
@example((canonical_digit_set(LARGE_BASES[1]), (ONE, ZERO, (0, 1)), 3))
@example((ALT, (g(4), (4, 0), g(5)), 1))
@example((ALT, (g(4), Lookalike(ONE), g(3)), 2))
@example((canonical_digit_set(B), (ONE, odd_parts([1]), ZERO), 2))
@example((canonical_digit_set(LARGE_BASES[0]), (ONE, ZERO, odd_parts("a")), 3))
@example((canonical_digit_set(LARGE_BASES[0]), (odd_parts(None),), 1))
@example((canonical_digit_set(LARGE_BASES[1]), (ONE, odd_parts([1])), 2))
@example((canonical_digit_set(g(10**19, 1)), (ONE, odd_parts([1])), 2))  # [1] * 10**19 cannot be built
def test_decode_and_recode_check_digits_as_the_gauss_int_references_do(case):
    """Same value as the references and as a plain GaussInt fold, or the same error type and text."""
    D, w, j = case
    assert outcome(decode, w, D) == outcome(reference_decode, w, D)
    assert outcome(recode, w, D, j) == outcome(reference_recode, w, D, j)
    if all(is_digit(d, D) for d in w):
        assert decode(w, D) == horner(w, D.base) == horner(recode(w, D, j), D.base**j)


def test_digit_set_construction_and_the_per_digit_loops_hash_no_gauss_int(monkeypatch):
    b = g(3, 2)
    digits, m3 = canonical_digit_set(b).digits, length_bound(b).m3
    large = canonical_digit_set(LARGE_BASES[0])
    values = [*lattice_disc(25), g(7**200, 3)]  # the last one's word is decoded in blocks

    def no_hash(self):
        raise AssertionError("GaussInt hashed on a per-digit path")

    monkeypatch.setattr(GaussInt, "__hash__", no_hash)
    D = DigitSet(b, digits)
    assert max_length_in_disc(9, D) == m3
    for S in (D, large):
        for z in values:
            w = encode(z, S)
            assert decode(w, S) == z == horner(recode(w, S, 2), S.base**2)
    with pytest.raises(InvalidInput, match=r"^\(1, 0\) is not a digit of base 3\+2i$"):
        decode((ONE, (1, 0)), D)


# ---- the one-block recode, m3 off the norm, within_bound in ints, and the disc budget ----

def general_recode(w, D, j):
    """recode's general block loop on its own: a count of the digits in the current block and a
    list of the blocks, every digit checked in word order through _not_a_digit."""
    index, p, q = D._fold
    out = []
    x = y = 0
    filled = (-len(w)) % j
    try:
        for d in w:
            d_re, d_im = pair = d.re, d.im
            if pair not in index or not isinstance(d, GaussInt):
                raise numeration._not_a_digit(w, D)
            x, y = x * p - y * q + d_re, x * q + y * p + d_im
            filled += 1
            if filled == j:
                if x or y or out:
                    out.append(GaussInt(x, y))
                x = y = filled = 0
    except (AttributeError, TypeError):
        raise numeration._not_a_digit(w, D) from None
    return tuple(out)


def strays(D, d):
    """Elements that are no digit of D, each built from the digit d: d + b (never a canonical
    digit), d's bare (re, im) tuple, a Lookalike of d, an int, which has no re, and a Lookalike
    whose re is unhashable."""
    return [d + D.base, (d.re, d.im), Lookalike(d), 7, odd_parts([1])]


@st.composite
def short_words(draw):
    """(D, w, j): a canonical, shifted, large or alternative digit set, a word of up to 6 of its
    digits, often with leading zeros, and a j of at least the word's length."""
    D = draw(
        st.one_of(
            st.one_of(bases(400), st.sampled_from(LARGE_BASES)).map(canonical_digit_set),
            shifted_digit_sets(),
            st.sampled_from([ALT, FAR]),
        )
    )
    values = st.builds(g, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
    digit = st.just(ZERO) | values.map(lambda z: digit_of(z, D))
    w = tuple(draw(st.lists(digit, max_size=6)))
    return D, w, max(len(w), 1) + draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(short_words())
@example((canonical_digit_set(B), (), 1))
@example((canonical_digit_set(B), (ZERO, ZERO), 2))  # all zeros: no digit
@example((canonical_digit_set(B), (ZERO, ONE), 2))
@example((ALT, (g(4), g(3), g(2)), 3))
@example((canonical_digit_set(LARGE_BASES[0]), (ONE, ZERO, ONE), 5))
def test_a_word_of_at_most_j_digits_recodes_as_the_general_loop_does(case):
    """The one-block branch against the general loop: the same block, and the same error text with
    a stray at each position, or a second stray after the first."""
    D, w, j = case
    assert outcome(recode, w, D, j) == outcome(general_recode, w, D, j) == outcome(reference_recode, w, D, j)
    assert decode(w, D) == reference_decode(w, D)
    for pos in range(len(w)):
        for bad in strays(D, w[pos]):
            for bent in (w[:pos] + (bad,) + w[pos + 1 :], w[:pos] + (bad, odd_parts(None)) + w[pos + 2 :]):
                want = outcome(general_recode, bent, D, j)
                assert want == (InvalidInput, f"{bad} is not a digit of base {D.base}")
                assert outcome(recode, bent, D, j) == want
                assert outcome(decode, bent, D) == want


def test_m3_off_the_norm_is_the_disc_walk_for_every_base_of_norm_37_to_400():
    bases_37_to_400 = [b for b in lattice_disc(400) if b.norm() > 36]
    assert len(bases_37_to_400) > 1000
    for b in bases_37_to_400:
        assert length_bound(b).m3 == max_length_in_disc(9, canonical_digit_set(b)) == 1


def test_m3_of_a_base_past_the_digit_budget_is_1_with_no_digit_listed_and_no_walk():
    b = LARGE_BASES[0]
    length_bound.cache_clear()

    def no_walk(*args):
        raise AssertionError("length_bound walked a disc or built a digit set above norm 36")

    with mock.patch.object(numeration, "max_length_in_disc", no_walk), mock.patch.object(
        numeration, "canonical_digit_set", no_walk
    ):
        assert length_bound(b) == LengthBound(b, 1)
    D = canonical_digit_set(b)
    assert max_length_in_disc(9, D) == 1
    with pytest.raises(BudgetExceeded, match="digit budget"):
        D.digits


@pytest.mark.parametrize("b", [B, g(0, 11), g(2 ** (10**6), 1), g(-(2 ** (10**6 - 1)), 2 ** (10**6 - 1))])
@pytest.mark.parametrize("m3", [1, 2, 3])
def test_within_bound_below_m3_admits_only_zero_as_the_raw_predicate_does(b, m3):
    """For k < m3 the raw predicate norm(z)*N^m3 <= N^k holds for z = 0 alone, N^k a Fraction when k < 0;
    the base of 10^6 bits forms no float and no power of its norm."""
    n = b.norm()
    lb = LengthBound(b, m3)
    for k in range(-2, m3):
        for z in (ZERO, ONE, g(0, -1), g(3, 4), b):
            assert lb.within_bound(z, k) == (z.norm() * Fraction(n) ** m3 <= Fraction(n) ** k) == (not z)
    assert lb.within_bound(b**2, m3 + 2) and not lb.within_bound(b**2 + b**2, m3 + 2)


def test_the_disc_budget_admits_r2_499999_and_refuses_500000_before_the_walk():
    assert numeration.inscribed_square(499999) == 999**2 <= numeration.SCAN_BUDGET
    assert numeration.inscribed_square(500000) == 1001**2 > numeration.SCAN_BUDGET
    assert numeration.inscribed_square(-1) == 0 and numeration.inscribed_square(0) == 1
    for r2 in range(-3, 401):  # a lower bound on the disc's points
        assert numeration.inscribed_square(r2) <= len(reference_disc(r2))
    D = canonical_digit_set(B)
    for r2 in (500000, 10**6, 10**400):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"holds more than the scan budget of 1000000 points$"):
            max_length_in_disc(r2, D)
        assert time.perf_counter() - start < 1


# ---- per-value counts, within_bound by bit length, and recode's own-digit path ----

def test_a_per_value_count_takes_every_int_as_before():
    """k, max_len and r2 are refused only for their type (test_exactness): a negative one keeps its answer."""
    D, lb = canonical_digit_set(B), length_bound(B)
    z = g(37, -11)
    for k in range(-3, 0):
        assert lb.within_bound(ZERO, k) and not lb.within_bound(z, k)
        assert encode_within(z, D, k) is None and encode_within(ZERO, D, k) == ()
        assert max_length_in_disc(k, D) == 0
    assert encode_within(z, D, None) == encode(z, D)


def test_within_bound_of_a_huge_k_forms_no_power():
    """norm(b)^(k - m3) for k = 10^7 took 6.5 s: past the bit length of norm(z) the answer is True."""
    lb = length_bound(B)
    start = time.perf_counter()
    assert lb.within_bound(g(3), 10**7) and lb.within_bound(g(3**1000, 1), 10**6)
    assert time.perf_counter() - start < 1
    # norm(b^70) = 5^70 has 163 bits, so e = 69 and e = 70 take the power, which decides the edge exactly
    assert lb.within_bound(B**70, lb.m3 + 70) and not lb.within_bound(B**70, lb.m3 + 69)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([B, g(-4, 7), g(0, 11), g(3, 3)]),
    st.integers(0, 6),
    st.builds(g, st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30)),
    st.integers(-2, 3),
)
@example(B, 3, g(3), 1)  # norm 9 of 4 bits: e = 65 takes the bit-length answer, e = 64 the power
@example(B, 3, g(3), 0)
@example(B, 0, g(2**40), 1)  # norm 2^80 of 81 bits: e = 82 takes the bit-length answer, e = 81 the power
@example(B, 0, g(2**40), 0)
@example(B, 0, ZERO, 1)
def test_within_bound_by_bit_length_is_the_exact_predicate(b, m3, z, offset):
    """k puts e = k - m3 at the larger of 64 and the bit length of norm(z), plus offset, around the edge past
    which no power is formed."""
    n = b.norm()
    k = m3 + max(z.norm().bit_length(), 64) + offset
    assert LengthBound(b, m3).within_bound(z, k) == (z.norm() * Fraction(n) ** m3 <= Fraction(n) ** k)


@st.composite
def own_digit_words(draw):
    """(D, w, j): a canonical, shifted or large digit set, a word of the digit objects digit_of returns, which
    are D's own for a listed set, at times with leading zeros or repeated to BLOCK_DIGITS digits or more for
    decode's blocks, and j in 1..4."""
    D = draw(st.one_of(st.one_of(bases(400), st.sampled_from(LARGE_BASES)).map(canonical_digit_set), shifted_digit_sets()))
    values = st.builds(g, st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
    w = tuple(draw(st.lists(values.map(lambda z: digit_of(z, D)), max_size=12)))
    if w and draw(st.booleans()):
        w *= -(-BLOCK_DIGITS // len(w))
    return D, w, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(own_digit_words())
@example((canonical_digit_set(B), encode(g(7**200, 3), canonical_digit_set(B)), 4))
@example((ALT, tuple(ALT.digits[k] for k in (4, 0, 2)), 2))
def test_own_digits_recode_and_decode_as_fresh_equal_gauss_ints_do(case):
    """D's own digit objects pass recode's test by identity; fresh equal GaussInts, and every digit of a large
    set, take the (re, im) pair path.  Both give the same blocks and value, and refuse a word with a non-digit,
    a bare (re, im) tuple or a Lookalike at the same place with the same InvalidInput."""
    D, w, j = case
    fresh = tuple(g(d.re, d.im) for d in w)
    assert all(id(d) not in D._own for d in fresh)
    assert all(id(d) in D._own for d in w) or isinstance(D, LargeCanonicalDigitSet)
    assert recode(w, D, j) == recode(fresh, D, j) == reference_recode(fresh, D, j)
    assert decode(w, D) == decode(fresh, D) == reference_decode(fresh, D)
    for pos in {0, len(w) // 2, len(w) - 1} if w else ():
        d = w[pos]
        for bad in (d + D.base, (d.re, d.im), Lookalike(d)):  # d + b is congruent to d, so no digit
            want = (InvalidInput, f"{bad} is not a digit of base {D.base}")
            for word in (w, fresh):
                bent = word[:pos] + (bad,) + word[pos + 1 :]
                assert outcome(recode, bent, D, j) == outcome(decode, bent, D) == want


@settings(max_examples=150, deadline=None)
@given(own_digit_words())
def test_every_gauss_int_recode_and_decode_return_has_int_components(case):
    """The blocks and the value are built with no component test, from ints folded from ints."""
    D, w, j = case
    for z in (*recode(w, D, j), decode(w, D)):
        assert type(z) is GaussInt and type(z.re) is int and type(z.im) is int
