"""Dependence decision and the two certified witness searches."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbase.cli import EXIT_OK, main
from gaussbase.dependence import (
    NotIndependent,
    UnitOrZeroInput,
    group_witness,
    mult_dependent,
    prefix_extension,
)
from gaussbase.gaussint import ONE, UNITS, ZERO, GaussInt
from gaussbase.numeration import (
    BaseTooSmall,
    canonical_digit_set,
    encode,
    word_length,
)

g = GaussInt
A = g(1, 2)
B = g(2, 1)

small_nonunits = st.builds(GaussInt, st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda z: z.norm() > 1
)


# ---- dependence decision ----

def test_dependent_examples():
    v = mult_dependent(g(3, 4), B)
    assert (v.dependent, v.r, v.s) == (True, 1, 2)
    assert g(3, 4) ** 1 == B**2

    v = mult_dependent(g(2), g(4))
    assert (v.dependent, v.r, v.s) == (True, 2, 1)

    v = mult_dependent(B, A)
    assert not v.dependent and v.r is None and v.s is None


def test_unit_inputs_rejected():
    with pytest.raises(UnitOrZeroInput):
        mult_dependent(ONE, B)
    with pytest.raises(UnitOrZeroInput):
        mult_dependent(B, g(0, 1))


@given(small_nonunits, small_nonunits)
def test_dependence_symmetric(a, b):
    va, vb = mult_dependent(a, b), mult_dependent(b, a)
    assert va.dependent == vb.dependent
    if va.dependent:
        assert (va.r, va.s) == (vb.s, vb.r)


@given(small_nonunits, st.integers(1, 4))
def test_power_absorption(a, k):
    v = mult_dependent(a, a**k)
    assert (v.dependent, v.r, v.s) == (True, k, 1)


@given(small_nonunits, st.integers(1, 3), st.integers(1, 3))
def test_constructed_pairs_are_dependent(gamma, p, q):
    v = mult_dependent(gamma**p, gamma**q)
    assert v.dependent
    assert (gamma**p) ** v.r == (gamma**q) ** v.s


def test_unit_absorption_needs_multiplier():
    # exponent vectors of -2 and 2 agree, but units only align at t = 2
    v = mult_dependent(g(-2), g(2))
    assert (v.dependent, v.r, v.s) == (True, 2, 2)

    # -4 = (2i)^2 and -8i = (2i)^3: proportional vectors, units align at t = 1
    v = mult_dependent(g(-4), g(0, -8))
    assert v.dependent
    assert g(-4) ** v.r == g(0, -8) ** v.s


def _reference_verdict(a, b, bound=24):
    """The least r <= bound with a^r = b^s for some s <= bound, by plain powering."""
    b_powers = {}
    b_pow = ONE
    for s in range(1, bound + 1):
        b_pow = b_pow * b
        b_powers.setdefault(b_pow, s)
    a_pow = ONE
    for r in range(1, bound + 1):
        a_pow = a_pow * a
        if a_pow in b_powers:
            return (True, r, b_powers[a_pow])
    return (False, None, None)


# the minimal pair is (t*r0, t*s0) with t <= 4, where r0, s0 < 6 for norms
# <= 50 and r0, s0 <= 4 for the constructed pairs, so r, s <= 24 covers both
@given(small_nonunits, small_nonunits)
def test_matches_powering_reference_on_small_pairs(a, b):
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == _reference_verdict(a, b)


@given(
    small_nonunits,
    st.sampled_from(UNITS),
    st.sampled_from(UNITS),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_matches_powering_reference_on_constructed_pairs(gamma, u1, u2, p, q):
    a, b = u1 * gamma**p, u2 * gamma**q
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == _reference_verdict(a, b)


# norm 10^40 + 121 is a probable prime, so trial division would need 10^20 steps
HUGE = g(10**20, 11)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (HUGE, B, (False, None, None)),
        (HUGE, HUGE.conj(), (False, None, None)),
        (g(0, 1) * HUGE**3, HUGE**5, (True, 20, 12)),
        (HUGE**2, -(HUGE**2), (True, 2, 2)),
    ],
    ids=["vs_2+1i", "vs_conjugate", "unit_cube_vs_fifth", "square_vs_negated"],
)
def test_norms_near_ten_to_the_forty(a, b, expected):
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == expected


def test_deptest_cli_on_huge_norm(capsys):
    assert main(["deptest", str(HUGE), str(HUGE.conj())]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"] == {"dependent": False, "r": None, "s": None}


# ---- group witnesses ----

def test_group_witness_frozen_search():
    w = group_witness(A, B, ONE, 1, 25, 64)
    assert w is not None
    assert (w.m, w.n) == (10, 10)
    assert w.verify()
    # independent grid oracle: smallest m with any n satisfying the bound
    for m in range(1, 11):
        hits = [
            n
            for n in range(0, 40)
            if (A**m - B**n).norm() * 25 <= 5**n
        ]
        if m < 10:
            assert not hits
        else:
            assert 10 in hits


def test_group_witness_exact_hits():
    w = group_witness(A, B, A, 0, 1, 4)
    assert w is not None and (w.m, w.n) == (1, 0)
    assert (A**w.m - w.u * B**w.n).norm() == 0

    w = group_witness(g(3, 4), B, ONE, 1, 10**6, 8)
    assert w is not None and (w.m, w.n) == (1, 2)
    assert (g(3, 4) ** w.m - B**w.n).norm() == 0


def test_group_witness_discreteness_for_dependent_pairs():
    # a tiny bound on a dependent pair either hits the lattice exactly or fails
    w = group_witness(g(3, 4), B, ONE, 1, 10**6, 64)
    assert w is None or (g(3, 4) ** w.m - B**w.n).norm() == 0


def test_group_witness_not_found_is_none():
    assert group_witness(A, B, ONE, 1, 10**12, 8) is None


def test_group_witness_input_validation():
    with pytest.raises(UnitOrZeroInput):
        group_witness(ONE, B, ONE, 1, 4, 8)
    with pytest.raises(UnitOrZeroInput):
        group_witness(A, B, ZERO, 1, 4, 8)
    with pytest.raises(ValueError):
        group_witness(A, B, ONE, 1, 0, 8)


def test_group_witness_self_certifies():
    w = group_witness(A, B, g(-2, 1), 1, 5, 128)
    if w is not None:
        assert w.verify()
        assert (w.a**w.m - w.u * w.b**w.n).norm() * w.err_den <= w.err_num * w.b.norm() ** w.n


# ---- prefix extension ----

def test_prefix_witness_u_one():
    w = prefix_extension(A, B, ONE, n_min=3, budget=256)
    assert w is not None
    assert (w.m, w.n) == (39, 39)
    assert A**w.m == ONE * B**w.n + w.z
    D = canonical_digit_set(B)
    assert word_length(w.z, D) <= w.n
    word_am = encode(A**w.m, D)
    assert word_am[0] == ONE
    assert all(d == ZERO for d in word_am[1 : len(word_am) - word_length(w.z, D)])
    assert w.verify()


def test_prefix_witness_u_base():
    w = prefix_extension(A, B, B, n_min=3, budget=256)
    assert w is not None
    assert (w.m, w.n) == (39, 38)
    D = canonical_digit_set(B)
    word_am = encode(A**w.m, D)
    assert word_am[:2] == (ONE, ZERO)  # encode(b) = [1, 0] is a prefix
    assert w.verify()


def test_prefix_witness_trivial():
    w = prefix_extension(A, B, A, n_min=0, budget=4)
    assert w is not None
    assert (w.m, w.n, w.z) == (1, 0, ZERO)


def test_prefix_witness_respects_n_min():
    w = prefix_extension(A, B, ONE, n_min=5, budget=256)
    assert w is not None and w.n >= 5


def test_prefix_extension_validation():
    with pytest.raises(NotIndependent):
        prefix_extension(g(3, 4), B, ONE, 0, 16)
    with pytest.raises(UnitOrZeroInput):
        prefix_extension(A, B, ZERO, 0, 16)
    with pytest.raises(BaseTooSmall):
        prefix_extension(g(1, 1), B, ONE, 0, 16)


def test_prefix_extension_budget_exhaustion():
    assert prefix_extension(A, B, ONE, n_min=3, budget=10) is None
