"""The verify criteria against their reference forms, and mutants each criterion must catch.

Criterion 1 keys each digit by its residue pair; the reference is the
pairwise divides test it replaced.  Criterion 3 tests each point at its
least admitting k; the reference is the walk over every k <= 12.  A
mutant digit set is built with tuple.__new__, as the DigitSet constructor
refuses it, and a mutant word_length adds digits at one point.
"""

from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbase import verification
from gaussbase.gaussint import ZERO, GaussInt, InvalidInput, divides
from gaussbase.numeration import DigitSet, canonical_digit_set, lattice_disc, length_bound, word_length

BASES = [b for b in lattice_disc(100) if b.norm() >= 5]


def congruent_pairs(D):
    """Every pair of digits, in digit order, whose difference the base divides: the old criterion 1."""
    digits = D.digits
    return [
        (digits[i], digits[j])
        for i in range(len(digits))
        for j in range(i + 1, len(digits))
        if divides(D.base, digits[i] - digits[j])
    ]


def congruence_failures(result):
    return [f for f in result.failures if f.startswith("congruent digits")]


def test_criterion_1_finds_the_congruent_pairs_that_pairwise_divides_finds():
    """On the canonical digit sets of all 304 bases of norm 5-100: none."""
    assert len(BASES) == 304
    expected = [
        f"congruent digits {d}, {e} mod {D.base}" for D in map(canonical_digit_set, BASES) for d, e in congruent_pairs(D)
    ]
    assert congruence_failures(verification.check_digit_sets()) == expected == []


@settings(max_examples=25, deadline=None)
@given(
    b=st.sampled_from(BASES),
    data=st.data(),
    w=st.builds(GaussInt, st.integers(-2, 2), st.integers(-2, 2)),
)
def test_criterion_1_names_an_injected_congruent_pair_or_duplicate_digit(b, data, w):
    """Digit j becomes digit i plus a multiple of b (w = 0: a duplicate of digit i); the check names that pair."""
    digits = list(canonical_digit_set(b).digits)
    i, j = data.draw(st.lists(st.integers(0, len(digits) - 1), min_size=2, max_size=2, unique=True))
    digits[j] = digits[i] + b * w if w else digits[i]
    with pytest.raises(InvalidInput):
        DigitSet(b, tuple(digits))
    mutant = tuple.__new__(DigitSet, (b, tuple(digits)))
    first, second = digits[min(i, j)], digits[max(i, j)]
    assert congruent_pairs(mutant) == [(first, second)]
    with mock.patch.object(
        verification, "canonical_digit_set", lambda base: mutant if base == b else canonical_digit_set(base)
    ):
        result = verification.check_digit_sets()
    assert not result.passed
    assert congruence_failures(result) == [f"congruent digits {first}, {second} mod {b}"]


def raw_bound_breaks(b, lengths):
    """(z, k) for every k <= 12 whose bound admits z of norm <= 10^4 and is passed by its length: the old loop."""
    n, m3 = b.norm(), length_bound(b).m3
    return [
        (z, k)
        for z, ell in lengths.items()
        if z.norm() <= 10**4
        for k in range(13)
        if z.norm() * n**m3 <= n**k and ell > k
    ]


def raw_maxima(b, lengths):
    """M(n^k) for k = 1..5, each the longest word over norm(z) <= n^k."""
    n = b.norm()
    return [max(ell for z, ell in lengths.items() if z.norm() <= n**k) for k in range(1, 6)]


def run_length_bound_with(b, point, extra):
    """Criterion 3 on base b alone, with word_length adding extra digits at point."""

    def mutant(z, D):
        return word_length(z, D) + (extra if z == point and D.base == b else 0)

    with mock.patch.object(verification, "SCAN_BASES", (b,)), mock.patch.object(verification, "word_length", mutant):
        return verification.check_length_bound()


NORM_5 = verification.SCAN_BASES[:3]


@pytest.mark.parametrize("b", NORM_5, ids=str)
def test_criterion_3_catches_a_digit_more_at_a_point_its_bound_holds_tight(b):
    """z = 0 is the one point of norm <= 10^4 whose word is as long as its least admitting k (0)."""
    D = canonical_digit_set(b)
    nk = [b.norm() ** k for k in range(13)]
    nm3 = b.norm() ** length_bound(b).m3
    tight = [z for z in lattice_disc(10**4) if bisect_left(nk, z.norm() * nm3) == word_length(z, D)]
    assert tight == [ZERO]
    result = run_length_bound_with(b, ZERO, 1)
    assert not result.passed
    assert result.failures == [f"bound broken: base {b}, z=0, k=0"]


@pytest.mark.parametrize("b", NORM_5, ids=str)
def test_criterion_3_catches_a_digit_more_at_a_point_of_a_recursion_maximum(b):
    """A point of norm n^(k-1) < norm(z) <= n^k whose word is as long as M(n^k) may be, m3 + k - 1."""
    D, n, m3 = canonical_digit_set(b), b.norm(), length_bound(b).m3
    nk = [n**j for j in range(6)]
    for z in lattice_disc(n**5):
        k = bisect_left(nk, z.norm())  # the least k with norm(z) <= n^k
        if k >= 1 and word_length(z, D) == m3 + k - 1:
            break
    result = run_length_bound_with(b, z, 1)
    assert not result.passed
    assert f"recursion broken for {b}: M(n^{k})={m3 + k} > {m3 + k - 1}" in result.failures


@settings(max_examples=30, deadline=None)
@given(
    z=st.sampled_from(list(lattice_disc(5**5))),
    extra=st.integers(1, 4),
)
def test_criterion_3_fails_where_the_walk_over_every_k_does(z, extra):
    """On 2+1i, a mutant word_length breaks the bound and the recursion exactly where the old loops say."""
    b = GaussInt(2, 1)
    D = canonical_digit_set(b)
    lengths = {p: word_length(p, D) + (extra if p == z else 0) for p in lattice_disc(5**5)}
    result = run_length_bound_with(b, z, extra)
    breaks = raw_bound_breaks(b, lengths)
    bound_failures = [f for f in result.failures if f.startswith("bound broken")]
    assert bool(bound_failures) == bool(breaks)
    if breaks:  # one failure, at the least breaking k
        assert bound_failures == [f"bound broken: base {b}, z={z}, k={min(k for _, k in breaks)}"]
    maxima = raw_maxima(b, lengths)
    assert result.details["per_base"] == {str(b): {"m3": 3, "max_at_nk": maxima}}
    recursion = [f"recursion broken for {b}: M(n^{k})={m} > {k + 2}" for k, m in enumerate(maxima, 1) if m > k + 2]
    assert [f for f in result.failures if f.startswith("recursion broken")] == recursion


def test_a_check_past_its_runtime_budget_fails_and_its_summary_line_names_the_budget():
    c = verification.CheckResult("0 budget", budget_seconds=0.0).finish()
    runtime = f"runtime {c.seconds:.2f}s exceeded 0s"
    assert not c.passed and c.failures == [runtime]
    assert c.summary_line() == f"FAIL  0 budget  ({c.seconds:.2f}s)  [{runtime}]"
