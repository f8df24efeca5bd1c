"""Dependence decision and the two certified witness searches."""

import json
import math
import sys
import time
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaussbase import dependence
from gaussbase.cli import EXIT_NOT_FOUND, EXIT_OK, main
from gaussbase.dependence import (
    _PRIME,
    PrefixWitness,
    _approximations,
    _first_return,
    _log_polar,
    _nominees,
    _residue,
    _returns,
    group_witness,
    mult_dependent,
    prefix_extension,
)
from gaussbase.gaussint import ONE, UNITS, ZERO, BudgetExceeded, GaussInt, InvalidInput
from gaussbase.numeration import (
    canonical_digit_set,
    decode,
    encode,
    length_bound,
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
    with pytest.raises(InvalidInput, match=r"^generator norm\(1\) = 1 < 2$"):
        mult_dependent(ONE, B)
    with pytest.raises(InvalidInput, match=r"^generator norm\(0\+1i\) = 1 < 2$"):
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


def _common_root(x, y):
    """The c with x = c^p and y = c^q for coprime p, q >= 1, or None: Euclid on the exponents."""
    while x != y:
        if x < y:
            x, y = y, x
        x, rem = divmod(x, y)
        if rem:
            return None
    return x


def _exact_log(value, base):
    """The k with base^k = value, given that one exists."""
    k = 0
    while value > 1:
        value //= base
        k += 1
    return k


def reference_mult_dependent(a, b):
    """The earlier decision: the least norm relation (r0, s0) from the common root of
    the norms, then a^(t*r0) against b^(t*s0) for t = 1, 2, 3, 4."""
    na, nb = a.norm(), b.norm()
    c = _common_root(na, nb)
    if c is None:
        return (False, None, None)
    r0, s0 = _exact_log(nb, c), _exact_log(na, c)
    for t in (1, 2, 3, 4):
        if a ** (t * r0) == b ** (t * s0):
            return (True, t * r0, t * s0)
    return (False, None, None)


gammas_7 = st.builds(GaussInt, st.integers(-7, 7), st.integers(-7, 7)).filter(lambda z: z.norm() > 1)


# the benchmark's dependent pairs: a unit times g^20..60, far past _reference_verdict's bound of 24;
# a cofactor delta^k makes most of them independent, some with proportional norms
@settings(max_examples=150, deadline=None)
@given(
    gammas_7,
    st.sampled_from(UNITS),
    st.sampled_from(UNITS),
    st.integers(20, 60),
    st.integers(20, 60),
    st.sampled_from([ONE, g(-1), g(0, 1), B, A, g(1, 1), g(3, 4)]),
    st.integers(0, 2),
)
def test_matches_four_power_reference_on_bench_style_pairs(gamma, u1, u2, p, q, delta, k):
    a, b = u1 * gamma**p, u2 * gamma**q * delta**k
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == reference_mult_dependent(a, b)
    assert not v.dependent or a**v.r == b**v.s
    if delta.norm() == 1:
        assert v.dependent


# past the benchmark's exponents: the Euclid takes more and longer steps, and the
# reference's powers reach g^90000
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([B, g(1, 1), g(3, 3), g(-2, 3)]),
    st.sampled_from(UNITS),
    st.integers(60, 150),
    st.integers(60, 150),
    st.sampled_from([ONE, g(0, 1), B.conj(), g(1, 1)]),
)
def test_matches_four_power_reference_on_exponents_past_the_bench(gamma, u, p, q, delta):
    a, b = gamma**p, u * gamma**q * delta
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == reference_mult_dependent(a, b)
    if delta.norm() == 1:
        assert v.dependent


# 2 and 1+i are a unit times powers of the ramified prime 1+i, 3+3i carries the inert
# prime 3, and (1+i)*(2+i) two primes: units pile up differently in each
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([g(2), g(1, 1), g(3, 3), g(1, 1) * B]),
    st.sampled_from(UNITS),
    st.sampled_from(UNITS),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([ONE, g(1, 1), B, B.conj(), g(3)]),
)
def test_matches_four_power_reference_on_composite_and_ramified_roots(gamma, u1, u2, p, q, delta):
    a, b = u1 * gamma**p, u2 * gamma**q * delta
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == reference_mult_dependent(a, b)
    assert not v.dependent or a**v.r == b**v.s


@pytest.mark.parametrize(
    "a,b",
    [
        (B, B.conj()),
        (A, B),
        (g(3, 2), g(2, 3)),
        (B**3, B.conj() ** 3),
        (g(5), B**2),
        (g(5) * B, g(5) * B.conj()),
        (B, B.conj() ** 3),
    ],
)
def test_equal_and_proportional_norms_of_non_associates_are_independent(a, b):
    v = mult_dependent(a, b)
    assert (v.dependent, v.r, v.s) == (False, None, None) == reference_mult_dependent(a, b)


@given(small_nonunits, st.sampled_from(UNITS))
def test_associates_are_dependent_with_the_order_of_their_unit(b, u):
    order = {ONE: 1, g(0, 1): 4, g(-1): 2, g(0, -1): 4}[u]
    v = mult_dependent(u * b, b)
    assert (v.dependent, v.r, v.s) == (True, order, order) == reference_mult_dependent(u * b, b)


def test_far_apart_powers_decide_without_forming_a_power():
    """(1+2i)^997 against (1+2i)^1001: the four-power decision built g^997997 and took about 1 s."""
    a, b = A**997, A**1001
    start = time.perf_counter()
    v = mult_dependent(a, b)
    elapsed = time.perf_counter() - start
    assert (v.dependent, v.r, v.s) == (True, 1001, 997)
    assert elapsed < 0.1  # under 1 ms on a 2-vCPU VM


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_independent_pair_with_huge_unit_candidates_under_the_default_digit_limit():
    """Norms 5^113 and 5^127: a^127 and b^113 have parts of about 5000 digits, past
    Python's default int-to-str limit, and the decision must not format them."""
    a, b = g(2, 1) ** 113, g(2, -1) ** 127
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        v = mult_dependent(a, b)
    finally:
        sys.set_int_max_str_digits(before)
    assert (v.dependent, v.r, v.s) == (False, None, None) == reference_mult_dependent(a, b)


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
    with pytest.raises(InvalidInput, match=r"^generator norm\(1\) = 1 < 2$"):
        group_witness(ONE, B, ONE, 1, 4, 8)
    with pytest.raises(InvalidInput, match=r"^target norm\(0\) = 0 < 1$"):
        group_witness(A, B, ZERO, 1, 4, 8)
    with pytest.raises(InvalidInput, match="^err_den = 0 < 1$"):
        group_witness(A, B, ONE, 1, 0, 8)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: group_witness(A, B, ONE, 0.04, 1, m_max=64), "err_num"),
        (lambda: group_witness(A, B, ONE, True, 1), "err_num"),
        (lambda: group_witness(A, B, ONE, 1, 4.0), "err_den"),
        (lambda: group_witness(A, B, ONE, 1, 4, m_max=2.5), "m_max"),
        (lambda: group_witness(A, B, ONE, 1, 4, m_max=None), "m_max"),
        (lambda: prefix_extension(A, B, ONE, n_min=1.0), "n_min"),
        (lambda: prefix_extension(A, B, ONE, budget=2.5), "budget"),
        (lambda: prefix_extension(A, B, ONE, budget=False), "budget"),
    ],
)
def test_witness_searches_refuse_bounds_and_budgets_that_are_not_ints(call, name):
    """The bound is a rational of ints, so no inequality is decided against a float product."""
    with pytest.raises(InvalidInput, match=f"^{name} .* is not an int$"):
        call()


@pytest.mark.parametrize(
    "search, name",
    [(lambda m: group_witness(A, B, ONE, 1, 25, m), "m_max"), (lambda m: prefix_extension(A, B, ONE, 3, m), "budget")],
)
def test_an_exponent_budget_past_the_float_range_is_refused_before_any_float(monkeypatch, search, name):
    """_nominees converts m_max to a float, which from FLOAT_LIMIT on raised a bare OverflowError; every smaller
    budget is searched as given and finds the witness a budget of 64 finds."""
    limit = dependence.FLOAT_LIMIT
    assert float(limit - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(limit)
    found = search(64)
    assert found is not None and search(10**20) == search(limit - 1) == found

    def no_float_work(*args):
        raise AssertionError("a refused budget reached _nominees")

    monkeypatch.setattr(dependence, "_nominees", no_float_work)
    for value in (limit, limit + 1, 10**400):
        with pytest.raises(BudgetExceeded) as exc:
            search(value)
        assert str(exc.value) == f"{name} must be below 2^1024 - 2^970, the least int that converts to no float"


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
    with pytest.raises(InvalidInput, match=r"3\+4i and 2\+1i are multiplicatively dependent"):
        prefix_extension(g(3, 4), B, ONE, 0, 16)
    with pytest.raises(InvalidInput, match=r"^target norm\(0\) = 0 < 1$"):
        prefix_extension(A, B, ZERO, 0, 16)
    with pytest.raises(InvalidInput, match=r"^generator norm\(1\+1i\) = 2 < 5$"):
        prefix_extension(g(1, 1), B, ONE, 0, 16)


def test_prefix_witness_verify_rechecks_every_field():
    w = prefix_extension(A, B, ONE, n_min=3, budget=256)
    D = canonical_digit_set(B)
    assert w.verify() and w.word_am[:1] == (ONE,) and w.word_u == (ONE,)
    assert not w._replace(z=w.z + ONE).verify()  # identity
    assert not w._replace(n=w.n + 1).verify() and not w._replace(n=w.n - 1).verify()
    # a^m = (u*b^k) * b^(n-k) + z still holds, but z has more than n - k digits
    k = w.n - word_length(w.z, D) + 1
    assert not w._replace(u=w.u * B**k, n=w.n - k).verify()
    # u = 0 and z = a^m satisfy the identity and the length of z, but derive a word with leading zeros
    long_n = len(encode(A**w.m, D))
    assert not w._replace(u=ZERO, z=A**w.m, n=long_n).verify()
    # a forged word of z: a wrong last digit, a shifted word, a non-digit
    other = next(d for d in D.digits if d != w.word_z[-1])
    for forged_word in (w.word_z[:-1] + (other,), w.word_z[1:] + (ZERO,), (g(7, 7),) + w.word_z[1:]):
        forged = w._replace()
        vars(forged)["word_z"] = forged_word  # fills the cached_property
        assert not forged.verify()
    # a forged word of u: a wrong digit, a leading zero (same value), a non-digit
    other = next(d for d in D.digits if d not in (ZERO, w.word_u[0]))
    for forged_word in ((other,) + w.word_u[1:], (ZERO,) + w.word_u, (g(7, 7),) + w.word_u[1:]):
        forged = w._replace()
        vars(forged)["word_u"] = forged_word
        assert not forged.verify()


def test_certified_is_one_verify_shared_by_the_search_and_the_report(monkeypatch, capsys):
    """Each witness the search checks is verified once; the report prints that verdict."""
    calls = []
    verify = PrefixWitness.verify
    monkeypatch.setattr(PrefixWitness, "verify", lambda w: calls.append(w) or verify(w))
    # the first level's witness is the one exact hit; the second level finds none
    assert main(["prefix", "--n-min", "3", "--depth", "1", "--", "1+2i", "2+1i", "1"]) == EXIT_NOT_FOUND
    chain = json.loads(capsys.readouterr().out)["results"]["chain"]
    assert [entry["certified"] for entry in chain] == [True]
    assert [(w.m, w.n) for w in calls] == [(39, 39)]


def test_certified_rechecks_a_changed_or_forged_witness():
    w = prefix_extension(A, B, ONE, n_min=3, budget=256)
    assert w.certified and vars(w)["certified"] is True
    assert not w._replace(z=w.z + ONE).certified and not w._replace(n=w.n + 1).certified
    forged = w._replace()
    vars(forged)["word_z"] = w.word_z[1:] + (ZERO,)
    assert not forged.certified


def test_prefix_extension_budget_exhaustion():
    assert prefix_extension(A, B, ONE, n_min=3, budget=10) is None


# ---- float pruning against the unpruned search ----

def _reference_hits(a, b, u, n_min, m_max, num, den):
    """The unpruned candidate loop: floats only nominate the n near
    (m*log|a| - log|u|) / log|b|, and every nominated (m, n) is checked exactly."""
    log_a = math.log(a.norm()) / 2
    log_b = math.log(b.norm()) / 2
    log_u = math.log(u.norm()) / 2
    for m in range(1, m_max + 1):
        n_star = round((m * log_a - log_u) / log_b)
        for n in range(max(n_star - 1, n_min), n_star + 2):
            z = a**m - u * b**n
            if z.norm() * den <= num * b.norm() ** n:
                yield m, n, z


def reference_group_witness(a, b, u, num, den, m_max):
    return next(((m, n) for m, n, _ in _reference_hits(a, b, u, 0, m_max, num, den)), None)


def reference_prefix_extension(a, b, u, n_min, budget):
    tail = b.norm() ** length_bound(b).m3
    for m, n, z in _reference_hits(a, b, u, n_min, budget, 1, tail):
        if PrefixWitness(a=a, b=b, u=u, m=m, n=n, z=z).verify():
            return m, n, z
    return None


def _found(w):
    return None if w is None else (w.m, w.n)


components = st.integers(-9, 9)
nonunits_9 = st.builds(GaussInt, components, components).filter(lambda z: z.norm() > 1)
bases_9 = st.builds(GaussInt, components, components).filter(lambda z: z.norm() >= 5)
targets_9 = st.builds(GaussInt, components, components).filter(bool)


@st.composite
def error_bounds(draw):
    """num/den from 0/1 up to 4/1, with small numerators over large denominators."""
    den = draw(st.sampled_from([1, 3, 100, 10**6, 10**12]))
    num = draw(st.one_of(st.integers(0, 4), st.integers(0, 4 * den)))
    return num, den


@settings(max_examples=300, deadline=None)
@given(nonunits_9, nonunits_9, targets_9, error_bounds(), st.integers(1, 64))
def test_group_witness_matches_unpruned_search(a, b, u, bound, m_max):
    num, den = bound
    w = group_witness(a, b, u, num, den, m_max)
    assert _found(w) == reference_group_witness(a, b, u, num, den, m_max)
    assert w is None or w.verify()


@settings(max_examples=300, deadline=None)
@given(nonunits_9, nonunits_9, targets_9, st.integers(1, 64), st.integers(-1, 1))
def test_group_witness_matches_unpruned_search_at_exact_bounds(a, b, u, m0, dn):
    """The bound is met with equality by a nominated candidate (m0, n0), so a
    witness sits on the edge of the disc |r - 1| <= s that the pruning bounds."""
    log_a, log_b, log_u = (math.log(z.norm()) / 2 for z in (a, b, u))
    n0 = round((m0 * log_a - log_u) / log_b) + dn
    assume(n0 >= 0)
    num, den = (a**m0 - u * b**n0).norm(), b.norm() ** n0
    w = group_witness(a, b, u, num, den, m0)
    assert _found(w) == reference_group_witness(a, b, u, num, den, m0)
    assert w is not None and w.m <= m0


@settings(max_examples=200, deadline=None)
@given(bases_9, bases_9, targets_9, st.integers(0, 8), st.integers(1, 64))
def test_prefix_extension_matches_unpruned_search(a, b, u, n_min, budget):
    assume(not mult_dependent(a, b).dependent)
    w = prefix_extension(a, b, u, n_min, budget)
    expected = reference_prefix_extension(a, b, u, n_min, budget)
    assert (None if w is None else (w.m, w.n, w.z)) == expected


# the benchmark's search bases (norm 5-13) and targets (norm 1-10): a budget of 512 finds
# a first witness for about half of the independent pairs
components_3 = st.integers(-3, 3)
bases_13 = st.builds(GaussInt, components_3, components_3).filter(lambda z: 5 <= z.norm() <= 13)
targets_10 = st.builds(GaussInt, components_3, components_3).filter(lambda z: 1 <= z.norm() <= 10)


@settings(max_examples=200, deadline=None)
@given(bases_13, bases_13, targets_10, st.integers(0, 8), st.integers(0, 2))
def test_derived_word_of_a_to_the_m_is_its_encoding(a, b, u, n_min, depth):
    """Every found witness, also at chain levels past the first, derives the word encode gives a^m."""
    assume(not mult_dependent(a, b).dependent)
    D = canonical_digit_set(b)
    for level in range(depth + 1):
        w = prefix_extension(a, b, u, n_min if level == 0 else max(n_min, 1), 512)
        if w is None:
            return
        assert w.verify()
        assert w.word_am == encode(a**w.m, D)
        assert w.word_u == encode(u, D) == w.word_am[: len(w.word_u)]
        u = a**w.m


@settings(max_examples=200, deadline=None)
@given(bases_9, bases_9, st.integers(1, 80), st.data())
def test_every_split_of_a_word_derives_it(a, b, m, data):
    """Cut the word of a^m after any nonzero leading part u: a^m = u*b^n + z with z the
    last n digits, some of them leading zeros, and the witness derives the whole word."""
    D = canonical_digit_set(b)
    word = encode(a**m, D)
    n = data.draw(st.integers(0, len(word) - 1))
    u, z = decode(word[: len(word) - n], D), decode(word[len(word) - n :], D)
    w = PrefixWitness(a=a, b=b, u=u, m=m, n=n, z=z)
    assert w.verify()
    assert w.word_am == word


# ---- the sieve against the per-m float filter ----

def _reference_nominations(a, b, u, n_min, m_max, num, den):
    """The per-m float filter the search ran before it had a sieve, copied: every
    (m, n) it hands to the exact check."""
    log_a, arg_a = _log_polar(a)
    log_b, arg_b = _log_polar(b)
    log_u, arg_u = _log_polar(u)
    tol_fixed = 1e-9 + 1e-12 * (abs(log_u) + 4)
    tol_per_m, tol_per_n = 1e-12 * (abs(log_a) + 4), 1e-12 * (abs(log_b) + 4)
    lo, hi, angle = 0.0, 0.0, 0.0
    if num:
        ln_num, ln_den = math.log(num), math.log(den)
        log_s = (ln_num - ln_den) / 2 - log_u
        log_s += 1e-9 + 1e-12 * (abs(ln_num) + abs(ln_den) + 2 * abs(log_u) + 4)
        if log_s < 0:
            s = math.exp(log_s)
            lo, hi, angle = math.log1p(-s), math.log1p(s), math.asin(s)
        else:
            lo, hi, angle = -math.inf, log_s + math.log1p(math.exp(-log_s)), math.inf
    for m in range(1, m_max + 1):
        x0 = m * log_a - log_u
        n_star = round(x0 / log_b)
        n_lo, n_hi = max(n_star - 1, n_min), n_star + 1
        if n_lo > n_hi:
            continue
        tol = tol_fixed + m * tol_per_m + n_hi * tol_per_n
        t0 = m * arg_a - arg_u
        for n in range(n_lo, n_hi + 1):
            x = x0 - n * log_b
            if x < lo - tol or x > hi + tol:
                continue
            if abs(math.remainder(t0 - n * arg_b, math.tau)) > angle + tol:
                continue
            yield m, n


def _nominations(a, b, u, n_min, m_max, num, den):
    """The (m, n) that reach the search's exact check; its answers are exactly those that pass it."""
    out = list(_nominees(a, b, u, n_min, m_max, num, den))
    hits = [(m, n) for m, n, _ in _approximations(a, b, u, n_min, m_max, num, den)]
    assert hits == [(m, n) for m, n in out if (a**m - u * b**n).norm() * den <= num * b.norm() ** n]
    return out


EQUAL_NORM_PAIRS = [(A, B), (B, B.conj()), (g(3, 2), g(2, 3)), (g(-1, 3), g(3, 1))]


@st.composite
def sieve_cases(draw, m_max, n_min, wide=False):
    """Bench-style pairs (bases of norm 5-13, targets of norm 1-10), equal-norm pairs, and
    chain-level targets u = a^k (with n_min = 0 and the bound 0/1, the exact hit (k, 0)).
    Narrow bounds are 0/1, 1/10^15, the prefix tail 1/N^m3, and one met with equality by
    a candidate (m0, n0), on the edge of the sieve's window.  Wide ones put
    s^2 = num / (den*norm(u)) from 0.01 to 2.25, across the s where the window of ln|r|
    grows to one n wide and past s = 1, where it has no lower end."""
    a, b = draw(st.one_of(st.tuples(bases_13, bases_13), st.sampled_from(EQUAL_NORM_PAIRS)))
    u = draw(st.one_of(targets_10, st.integers(1, 40).map(lambda k: a**k)))
    m_max, n_min = draw(m_max), draw(n_min)
    if wide:
        k = draw(st.one_of(st.integers(1, 225), st.integers(99, 101)))
        return a, b, u, n_min, m_max, k * u.norm() + draw(st.integers(-1, 1)), 100
    bound = draw(st.sampled_from([(0, 1), (1, 10**15), (1, b.norm() ** length_bound(b).m3), None]))
    if bound is None:
        log_a, log_b, log_u = (math.log(z.norm()) / 2 for z in (a, b, u))
        m0 = draw(st.integers(1, m_max))
        n0 = round((m0 * log_a - log_u) / log_b) + draw(st.integers(-1, 1))
        assume(n0 >= 0)
        bound = (a**m0 - u * b**n0).norm(), b.norm() ** n0
    return (a, b, u, n_min, m_max, *bound)


# The m the sieve drops have no (m, n) that passes the float filter, and the m it
# keeps run that filter unchanged: so the two nominate the same (m, n), in order.

FIVE = g(5)  # norm 25 over norm 5: alpha = log|a|/log|b| is exactly 2.0
NEAR_THREE = B**3  # alpha is 3.0000000000000004, a rotation of 2^13 in 2^64


@settings(max_examples=200, deadline=None)
@given(sieve_cases(st.integers(1, 4096), st.one_of(st.just(0), st.integers(0, 900))))
@example((A, B, A**3, 0, 64, 0, 1))  # the exact hit (3, 0), where m*alpha - log|u|/log|b| rounds below 0
# an int alpha: the walk runs on the angle phase with n = alpha*m + c, or no m passes (u = 1+i)
@example((A, B, ONE, 0, 4096, 1, 10**15))
@example((A, B, g(1, 1), 0, 4096, 0, 1))
@example((B, B.conj(), A**7, 0, 4096, 1, B.norm() ** length_bound(B).m3))
@example((FIVE, B, ONE, 0, 4096, 1, 10**15))
@example((FIVE, B, FIVE**9, 30, 4096, 0, 1))  # the exact hit (9, 0) lies below n_min: none is nominated
@example((g(3, 4), B, g(2, -1), 0, 4096, 1, B.norm() ** length_bound(B).m3))
@example((NEAR_THREE, B, ONE, 0, 300, 1, 10**15))  # every m is a hit, a = b^3
def test_sieve_hands_the_exact_check_what_the_per_m_filter_does(case):
    assert _nominations(*case) == list(_reference_nominations(*case))


@settings(max_examples=150, deadline=None)
@given(sieve_cases(st.integers(1, 256), st.integers(0, 8), wide=True))
@example((A, B, ONE, 0, 256, 49, 100))
@example((FIVE, B, g(1, 1), 2, 256, 199, 100))
@example((FIVE, B, ONE, 0, 256, 225, 100))  # s = 1.5: ln|r| has no lower end
def test_sieve_keeps_every_m_whose_window_is_wide(case):
    assert _nominations(*case) == list(_reference_nominations(*case))


# ---- the walk over the returns of a rotation to a window ----

@st.composite
def rotations(draw, narrow=False):
    """(rot, start, modulus, window) on small moduli; narrow windows have 2*window < modulus."""
    modulus = draw(st.integers(1, 400))
    rot, start = draw(st.integers(0, modulus - 1)), draw(st.integers(0, modulus - 1))
    window = draw(st.integers(0, (modulus - 1) // 2 if narrow else modulus - 1))
    return rot, start, modulus, window


@settings(max_examples=500, deadline=None)
@given(rotations())
@example((0, 3, 10, 2))  # rotation 0, start outside the window: never
@example((0, 1, 10, 2))  # rotation 0, start inside: k = 0
@example((7, 5, 23, 0))  # window 0
@example((8, 1, 16, 0))  # every step is a multiple of 8 from 1: never
@example((97, 50, 101, 10))  # rot above modulus/2, mirrored
def test_first_return_is_the_least_hit(case):
    rot, start, modulus, window = case
    # (rot*k + start) % modulus repeats with a period of at most modulus
    hits = (k for k in range(modulus) if (rot * k + start) % modulus <= window)
    assert _first_return(rot, start, modulus, window) == next(hits, None)


@settings(max_examples=500, deadline=None)
@given(rotations(narrow=True), st.integers(0, 60), st.integers(0, 600))
@example((0, 3, 10, 2), 0, 50)  # rotation 0, start outside the window: no hit
@example((0, 1, 10, 2), 5, 20)  # rotation 0, start inside: every m
@example((7, 5, 23, 0), 0, 100)  # window 0
@example((5, 1, 40, 3), 0, 100)  # a start inside the window
@example((1, 30, 100, 4), 0, 60)  # the first hit, m = 70, lies past the range
@example((97, 50, 101, 10), 0, 300)  # a wrap at almost every step
@example((3, 0, 20, 3), 0, 100)  # the three gaps 1, 6 and 7
def test_the_returns_are_every_hit_in_order(case, first, span):
    rot, start, modulus, window = case
    expected = [m for m in range(first, first + span + 1) if (rot * m + start) % modulus <= window]
    assert list(_returns(rot, start, modulus, window, first, first + span)) == expected


def test_a_long_search_walks_only_the_returns():
    """witness 3+2i 2+1i 1 --bound 1/10^15 --m-max 10^7 tested every m: 1.8 s on a 2-vCPU VM."""
    start = time.perf_counter()
    assert group_witness(g(3, 2), B, ONE, 1, 10**15, 10**7) is None
    assert time.perf_counter() - start < 0.5  # about 4 ms on a 2-vCPU VM


gauss_ints = st.builds(GaussInt, st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200))


@given(gauss_ints, gauss_ints)
def test_the_residue_is_a_ring_homomorphism(x, y):
    assert _residue(x * y) == _residue(x) * _residue(y) % _PRIME
    assert _residue(x + y) == (_residue(x) + _residue(y)) % _PRIME
    assert _residue(g(0, 1)) ** 2 % _PRIME == _PRIME - 1


def test_an_exact_hit_search_refutes_a_far_nomination_by_its_residues(monkeypatch):
    """witness 1+2i 2+1i 1 --bound 0/1 --m-max 10^6 nominates only (561873, 561873);
    building both powers to reject it took about 0.5 s."""
    monkeypatch.setattr(dependence, "_nominees", lambda *args: iter([(561873, 561873)]))
    start = time.perf_counter()
    assert list(_approximations(A, B, ONE, 0, 10**6, 0, 1)) == []
    assert time.perf_counter() - start < 0.05  # about 10 us on a 2-vCPU VM


A9 = g(9, 9)  # |A9^300| > 1e308: the float of any component overflows


@pytest.mark.parametrize(
    "a,b,u,num,den,m_max,expected",
    [
        # num = 0 admits exact hits only: 2 = -i * (1+i)^2
        (g(2), g(1, 1), g(0, -1), 0, 1, 4, (1, 2)),
        (A9, B, A9**300, 0, 1, 320, (300, 0)),
        (A9, B, g(0, 1) * A9**300, 1, 25, 320, None),
        (A9, B, g(0, 1) * A9**300, (A9**300).norm(), 4, 400, (307, 22)),
        (g(2, -9), g(-5, 4), g(2), 1, 100, 64, (63, 75)),
        (g(-7, 8), g(-3, 6), g(1, -1), 1, 100, 64, (5, 6)),
    ],
    ids=["num_zero", "huge_u_exact", "huge_u_rotated", "huge_u_loose", "mixed_signs", "mixed_signs_2"],
)
def test_group_witness_pinned_cases(a, b, u, num, den, m_max, expected):
    assert _found(group_witness(a, b, u, num, den, m_max)) == expected
    assert reference_group_witness(a, b, u, num, den, m_max) == expected


@pytest.mark.parametrize(
    "a,b,u,n_min,budget,expected",
    [
        # a chain level: u = a^m from the level before, far past 1e308
        (A9, B, A9**300, 0, 320, (300, 0)),
        (A9, B, A9**300, 1, 320, None),
        (g(7, -6), g(6, -9), ONE, 3, 64, (30, 28)),
        (g(-8, 2), g(-7, 3), g(-4, 1), 3, 64, (18, 18)),
    ],
    ids=["huge_u_trivial", "huge_u_exhausts", "mixed_signs", "mixed_signs_2"],
)
def test_prefix_extension_pinned_cases(a, b, u, n_min, budget, expected):
    w = prefix_extension(a, b, u, n_min, budget)
    ref = reference_prefix_extension(a, b, u, n_min, budget)
    assert _found(w) == expected == (None if ref is None else ref[:2])
    assert w is None or w.z == ref[2]


# ---- the float error of the pruning ----

def _decimal_atan(x):
    """atan(x) for a Decimal x, by halving the argument and the Taylor series."""
    halvings = 0
    while abs(x) > Decimal("0.01"):
        x = x / (1 + (1 + x * x).sqrt())
        halvings += 1
    total, term, k = x, x, 1
    while True:
        term *= -x * x
        step = term / (2 * k + 1)
        if abs(step) < Decimal(10) ** -70:
            break
        total += step
        k += 1
    return total * 2**halvings


def _decimal_arg(z, pi):
    """arg z in (-pi, pi] for a nonzero Gaussian integer, in Decimal."""
    x, y = Decimal(z.re), Decimal(z.im)
    if abs(y) <= abs(x):
        t = _decimal_atan(y / x)
        if x > 0:
            return t
        return t + pi if y >= 0 else t - pi
    t = pi / 2 - _decimal_atan(x / y)
    return t if y > 0 else t - pi


@pytest.mark.parametrize(
    "a,b,u",
    [(A, B, ONE), (g(-7, 8), g(-3, 6), g(1, -1)), (g(2, -9), g(-5, 4), A9**300)],
    ids=["norm5_pair", "mixed_signs", "huge_u"],
)
@pytest.mark.parametrize("m", [1, 37, 1000, 10**5, 10**6])
def test_float_error_far_below_tolerance(a, b, u, m):
    """The float ln|r| and arg r of r = a^m / (u*b^n), evaluated as the search
    evaluates them, against 60-digit Decimal values: the error stays 1000x
    below the tolerance the search allows."""
    (log_a, arg_a), (log_b, arg_b), (log_u, arg_u) = map(_log_polar, (a, b, u))
    x0 = m * log_a - log_u
    n = max(round(x0 / log_b), 0)
    ln_r = x0 - n * log_b
    arg_r = math.remainder(m * arg_a - arg_u - n * arg_b, math.tau)
    tol = 1e-9 + 1e-12 * (m * (abs(log_a) + 4) + n * (abs(log_b) + 4) + abs(log_u) + 4)
    with localcontext() as ctx:
        ctx.prec = 60
        pi = 4 * _decimal_atan(Decimal(1))
        exact_ln = (m * Decimal(a.norm()).ln() - n * Decimal(b.norm()).ln() - Decimal(u.norm()).ln()) / 2
        exact_arg = m * _decimal_arg(a, pi) - n * _decimal_arg(b, pi) - _decimal_arg(u, pi)
        arg_error = Decimal(arg_r) - exact_arg  # up to a multiple of 2*pi
        arg_error -= 2 * pi * (arg_error / (2 * pi)).to_integral_value()
        assert abs(Decimal(ln_r) - exact_ln) * 1000 <= Decimal(tol)
        assert abs(arg_error) * 1000 <= Decimal(tol)


@pytest.mark.parametrize(
    "a,b,u",
    [(A, B, ONE), (g(-7, 8), g(-3, 6), g(1, -1)), (g(2, -9), g(-5, 4), A9**300)],
    ids=["norm5_pair", "mixed_signs", "huge_u"],
)
@pytest.mark.parametrize("num,den", [(0, 1), (1, 10**15)], ids=["exact", "tight"])
@pytest.mark.parametrize("m", [1, 37, 1000, 10**5, 10**6])
def test_sieve_phase_error_far_below_its_margin(a, b, u, num, den, m):
    """The sieve's modulus phase v and angle phase in turns, for m_max = m and
    evaluated as the search evaluates them, against 60-digit Decimal values:
    the error stays 1000x below T, in log|b| units of v and in radians."""
    (log_a, arg_a), (log_b, arg_b), (log_u, arg_u) = map(_log_polar, (a, b, u))
    tol_fixed = 1e-9 + 1e-12 * (abs(log_u) + 4)
    tol_per_m, tol_per_n = 1e-12 * (abs(log_a) + 4), 1e-12 * (abs(log_b) + 4)
    lo = angle = 0.0
    if num:
        ln_num, ln_den = math.log(num), math.log(den)
        log_s = (ln_num - ln_den) / 2 - log_u
        log_s += 1e-9 + 1e-12 * (abs(ln_num) + abs(ln_den) + 2 * abs(log_u) + 4)
        s = math.exp(log_s)
        lo, angle = math.log1p(-s), math.asin(s)
    alpha = log_a / log_b
    T = 2 * (tol_fixed + m * tol_per_m + (m * alpha + 2) * tol_per_n)
    beta, half = (log_u + lo - T) / log_b, (angle + T) / math.tau
    turn_a, turn_b, turn_u = arg_a / math.tau, arg_b / math.tau, arg_u / math.tau - half
    v = m * alpha - beta
    n = v - v % 1.0
    phase = (m * turn_a - n * turn_b - turn_u) % 1.0
    with localcontext() as ctx:
        ctx.prec = 60
        pi = 4 * _decimal_atan(Decimal(1))
        ln_a, ln_b, ln_u = (Decimal(z.norm()).ln() / 2 for z in (a, b, u))
        exact_v = (m * ln_a - ln_u - Decimal(lo) + Decimal(T)) / ln_b
        exact_phase = (m * _decimal_arg(a, pi) - int(n) * _decimal_arg(b, pi) - _decimal_arg(u, pi)) / (2 * pi)
        phase_error = Decimal(phase) - exact_phase - Decimal(half)  # up to an integer
        phase_error -= phase_error.to_integral_value()
        assert abs(Decimal(v) - exact_v) * ln_b * 1000 <= Decimal(T)
        assert abs(phase_error) * 2 * pi * 1000 <= Decimal(T)
