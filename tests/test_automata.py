"""DFA engine, oracle languages, and the finite-evidence harnesses."""

import random
import re
import time
import tracemalloc
from functools import cache, reduce
from itertools import product as words_of

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbase import automata
from gaussbase.automata import (
    BudgetExceeded,
    Dfa,
    _bfs,
    complement,
    dfa_from_json,
    dfa_oracle_disagreement,
    dfa_to_json,
    digit_set_from_json,
    equivalent,
    integers_dfa,
    integers_oracle,
    is_empty,
    minimize,
    powers_dfa,
    powers_oracle,
    product,
    residual_signatures,
    run,
    word_of,
    zero_pump_probe,
)
from gaussbase.gaussint import ONE, ZERO, GaussInt, InvalidInput
from gaussbase.numeration import canonical_digit_set, encode, lattice_disc

from test_numeration import Lookalike, outcome

g = GaussInt
B = g(2, 1)
D5 = canonical_digit_set(B)


@st.composite
def dfas(draw, alphabet=D5, max_states=5):
    n = draw(st.integers(1, max_states))
    width = len(alphabet.digits)
    rows = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(width)) for _ in range(n)
    )
    accepting = frozenset(s for s in range(n) if draw(st.booleans()))
    return Dfa(alphabet, 0, rows, accepting)


# ---- construction and runs ----

def test_dfa_validation():
    with pytest.raises(InvalidInput, match="initial state 3 out of range"):
        Dfa(D5, 3, ((0,) * 5,), frozenset())
    with pytest.raises(InvalidInput, match="transition row width differs from alphabet size"):
        Dfa(D5, 0, ((0, 0),), frozenset())
    with pytest.raises(InvalidInput, match="transition target 7 out of range"):
        Dfa(D5, 0, ((0, 0, 0, 0, 7),), frozenset())
    with pytest.raises(InvalidInput, match="accepting states out of range"):
        Dfa(D5, 0, ((0,) * 5,), frozenset({4}))


def test_dfa_validation_names_the_first_fault_in_row_order():
    with pytest.raises(InvalidInput, match="transition target 7 out of range"):
        Dfa(D5, 0, ((0, 0, 0, 0, 7), (0, 9, 0, 0, 0)), frozenset())
    with pytest.raises(InvalidInput, match="transition target -1 out of range"):
        Dfa(D5, 0, ((0, 0, -1, 0, 0),), frozenset())
    with pytest.raises(InvalidInput, match="transition row width differs from alphabet size"):
        Dfa(D5, 0, ((0,) * 5, (0,) * 4, (0,) * 5), frozenset())
    with pytest.raises(InvalidInput, match="transition target 5 out of range"):
        Dfa(D5, 0, ((0, 0, 0, 0, 5), (0,) * 6), frozenset())
    with pytest.raises(InvalidInput, match="transition row width differs from alphabet size"):
        Dfa(D5, 0, ((0,) * 6, (0, 0, 0, 0, 5)), frozenset())


def test_powers_dfa_runs():
    d = powers_dfa(B)
    assert run(d, (g(1),))
    assert run(d, (g(1), g(0)))
    assert run(d, (g(1), g(0), g(0)))
    assert not run(d, ())
    assert not run(d, (g(0, 1), g(0)))
    assert not run(d, (g(1), g(0, -1)))
    with pytest.raises(InvalidInput, match="7 is not in the DFA alphabet"):
        run(d, (g(7),))
    for stray, text in [((1, 0), "(1, 0)"), (Lookalike(ONE), "lookalike of 1, 0"), ([1, 0], "[1, 0]")]:
        with pytest.raises(InvalidInput, match=f"^{re.escape(text)} is not in the DFA alphabet$"):
            run(d, (ONE, stray))


def test_minimize_powers_dfa_has_three_states():
    assert minimize(powers_dfa(B)).state_count == 3


def test_integers_dfa_base3():
    d = integers_dfa(3)
    D9 = canonical_digit_set(g(3))
    for n in range(-100, 101):
        assert run(d, encode(g(n), D9))
    assert not run(d, encode(g(0, 1), D9))
    assert run(d, ())


@pytest.mark.parametrize("base", [4, 2, g(2, 1), g(-3, 0)])
def test_integers_dfa_rejects_bad_bases(base):
    with pytest.raises(InvalidInput, match="is not a real odd integer >= 3"):
        integers_dfa(base)


# ---- boolean algebra ----

@settings(max_examples=40, deadline=None)
@given(dfas(), dfas())
def test_de_morgan(d1, d2):
    lhs = complement(product(d1, d2, "and"))
    rhs = product(complement(d1), complement(d2), "or")
    assert equivalent(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_diff_with_self_is_empty(d):
    assert is_empty(product(d, d, "diff"))
    assert equivalent(d, d)


@settings(max_examples=40, deadline=None)
@given(dfas())
def test_minimize_preserves_language_and_is_idempotent(d):
    m = minimize(d)
    assert equivalent(d, m)
    assert minimize(m) == m
    assert m.state_count <= d.state_count


def reference_minimize(d: Dfa) -> Dfa:
    """The earlier minimize: Moore refinement, then a second BFS over the quotient."""
    # reachable part, BFS order
    order, rows = _bfs(d.initial, d.transitions.__getitem__)
    acc = {i for i, s in enumerate(order) if s in d.accepting}
    n = len(order)

    # Moore refinement to the coarsest fixpoint
    block = [1 if s in acc else 0 for s in range(n)]
    while True:
        keys: dict[tuple, int] = {}
        new = []
        for s in range(n):
            key = (block[s], tuple(block[t] for t in rows[s]))
            if key not in keys:
                keys[key] = len(keys)
            new.append(keys[key])
        if new == block:
            break
        block = new

    # quotient, renumbered by BFS from the initial block
    rep: dict[int, int] = {}
    for s in range(n):
        rep.setdefault(block[s], s)
    blocks, out_rows = _bfs(block[0], lambda blk: [block[t] for t in rows[rep[blk]]])
    out_acc = frozenset(i for i, blk in enumerate(blocks) if rep[blk] in acc)
    return Dfa(d.alphabet, 0, tuple(out_rows), out_acc)


def _random_dfa(draw_int, alphabet, n, accepting):
    width = len(alphabet.digits)
    rows = tuple(tuple(draw_int(0, n - 1) for _ in range(width)) for _ in range(n))
    return Dfa(alphabet, draw_int(0, n - 1), rows, accepting)


@st.composite
def any_dfas(draw, max_states=9, alphabets=(D5, canonical_digit_set(g(2, 2)), canonical_digit_set(g(3)))):
    """DFAs with any initial state, so often with unreachable states; all, none or some accept."""
    alphabet = draw(st.sampled_from(alphabets))
    n = draw(st.integers(1, max_states))
    accepting = draw(
        st.sampled_from([frozenset(), frozenset(range(n))]) | st.frozensets(st.integers(0, n - 1))
    )
    return _random_dfa(lambda lo, hi: draw(st.integers(lo, hi)), alphabet, n, accepting)


@settings(max_examples=200, deadline=None)
@given(any_dfas())
def test_minimize_equals_the_reference(d):
    assert minimize(d) == reference_minimize(d)


def test_minimize_equals_the_reference_on_random_dfas():
    rng = random.Random(8)
    alphabets = [canonical_digit_set(b) for b in lattice_disc(10) if 5 <= b.norm() <= 10]
    for _ in range(300):
        n = rng.randint(1, 40)
        share = rng.choice([0, 0.3, 0.5, 1])
        accepting = frozenset(s for s in range(n) if rng.random() < share)
        d = _random_dfa(rng.randint, rng.choice(alphabets), n, accepting)
        assert minimize(d) == reference_minimize(d)


def test_minimize_calls_bfs_once(monkeypatch):
    calls = []
    monkeypatch.setattr(automata, "_bfs", lambda *a: calls.append(a) or _bfs(*a))
    unreachable = Dfa(D5, 1, ((0,) * 5, (2,) * 5, (1,) * 5), frozenset({1}))
    assert minimize(unreachable).transitions == ((1,) * 5, (0,) * 5)
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(any_dfas(), any_dfas())
def test_derived_dfas_pass_validation_they_skip(d1, d2):
    derived = [minimize(d1), complement(d1)]
    if d1.alphabet == d2.alphabet:
        derived += [product(d1, d2, mode) for mode in ("and", "or", "diff")]
    for d in derived:
        assert Dfa(d.alphabet, d.initial, d.transitions, d.accepting) == d


def test_derived_dfas_are_not_revalidated(monkeypatch):
    d = powers_dfa(B)
    derived = (minimize(d), complement(d), product(d, d, "or"))

    def no_check(self):
        raise AssertionError("a DFA derived from a checked one was validated again")

    monkeypatch.setattr(Dfa, "__post_init__", no_check)
    assert (minimize(d), complement(d), product(d, d, "or")) == derived
    with pytest.raises(AssertionError, match="validated again"):
        Dfa(D5, 0, ((0,) * 5,), frozenset())
    with pytest.raises(AssertionError, match="validated again"):
        dfa_from_json(dfa_to_json(d))


def test_alphabet_mismatch():
    with pytest.raises(InvalidInput, match="product needs a shared alphabet"):
        product(powers_dfa(B), powers_dfa(g(3)), "and")


def test_equivalence_names_its_own_alphabet_mismatch():
    with pytest.raises(InvalidInput, match="equivalence needs a shared alphabet"):
        equivalent(powers_dfa(B), powers_dfa(g(3)))


# ---- equivalence: Hopcroft-Karp against the pair walk ----

def reference_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """The earlier equivalent: a BFS over every reachable state pair, then each pair's acceptance."""
    t1, t2 = d1.transitions, d2.transitions
    order, _ = _bfs((d1.initial, d2.initial), lambda pair: zip(t1[pair[0]], t2[pair[1]]))
    return all((s1 in d1.accepting) == (s2 in d2.accepting) for s1, s2 in order)


def _renamed(d: Dfa, perm: list[int]) -> Dfa:
    """d with state s renamed perm[s], which keeps its language."""
    rows = [()] * d.state_count
    for s, row in enumerate(d.transitions):
        rows[perm[s]] = tuple(perm[t] for t in row)
    return Dfa(d.alphabet, perm[d.initial], rows, frozenset(perm[s] for s in d.accepting))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equivalent_matches_the_pair_walk(data):
    d1 = data.draw(any_dfas())
    d2 = data.draw(any_dfas(alphabets=[d1.alphabet]))
    assert equivalent(d1, d2) == reference_equivalent(d1, d2)
    assert equivalent(d2, d1) == reference_equivalent(d1, d2)
    assert equivalent(d1, minimize(d1)) and equivalent(minimize(d1), d1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equivalent_on_renamed_copies_with_one_flipped_state(data):
    d = data.draw(any_dfas())
    copy = _renamed(d, data.draw(st.permutations(range(d.state_count))))
    assert equivalent(d, copy) and equivalent(copy, d)
    flipped = copy._replace(accepting=copy.accepting ^ {data.draw(st.integers(0, d.state_count - 1))})
    assert equivalent(d, flipped) == reference_equivalent(d, flipped)
    assert equivalent(flipped, d) == reference_equivalent(flipped, d)


def _cycle(n: int, accepting) -> Dfa:
    """n states in a cycle that the first digit advances and the others keep."""
    return Dfa(D5, 0, tuple(((s + 1) % n,) + (s,) * 4 for s in range(n)), accepting)


def test_equivalence_of_coprime_cycles_is_linear_in_the_states():
    # the pair walk reaches all 3000 * 2999 state pairs of these two
    d1, d2 = _cycle(3000, range(3000)), _cycle(2999, range(2999))
    start = time.perf_counter()
    assert equivalent(d1, d2)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        equivalent(d1, d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert not equivalent(_cycle(2000, {0}), _cycle(1999, {0}))


# ---- oracles ----

def test_powers_oracle_membership():
    L = powers_oracle(B, D5)
    assert L.membership((g(1),))
    assert L.membership((g(1), g(0)))
    assert not L.membership(())
    assert not L.membership((g(0), g(1)))  # invalid leading zero
    assert not L.membership((g(1), g(0, -1)))
    L2 = powers_oracle(g(1, 2), D5)
    assert L2.membership(encode(g(1, 2) ** 2, D5))


def test_integers_oracle_membership():
    L = integers_oracle(D5)
    assert L.membership(encode(g(5), D5))
    assert L.membership(())
    assert not L.membership(encode(g(0, 1), D5))


# ---- residual signatures ----

def test_residuals_depth_zero_is_one_class():
    L = powers_oracle(B, D5)
    report = residual_signatures(L, 0, 2)
    assert report.class_count == 1
    assert report.representatives == ((0, 0),)
    assert word_of(L.alphabet, (0, 0)) == ()


def test_residuals_control_stays_small():
    L = powers_oracle(B, D5)
    for k in (2, 4, 6):
        for e in (1, 3):
            assert residual_signatures(L, k, e).class_count <= 4


def test_residuals_grow_for_independent_pair():
    L = powers_oracle(g(1, 2), D5)
    counts = [residual_signatures(L, k, 3).class_count for k in (2, 4, 6)]
    assert counts == [8, 15, 19]  # strictly increasing evidence of non-regularity
    assert residual_signatures(L, 6, 3).class_count > residual_signatures(L, 4, 3).class_count


def test_residuals_monotone_in_depths():
    L = integers_oracle(D5)
    counts = {
        (k, e): residual_signatures(L, k, e).class_count
        for k in range(4)
        for e in range(4)
    }
    for k in range(3):
        for e in range(4):
            assert counts[(k, e)] <= counts[(k + 1, e)]
    for k in range(4):
        for e in range(3):
            assert counts[(k, e)] <= counts[(k, e + 1)]


def test_residuals_lower_bound_dfa_size():
    # powers_dfa agrees with its oracle everywhere, so class counts
    # can never exceed its 3 live states
    L = powers_oracle(B, D5)
    for k, e in ((2, 2), (4, 3), (6, 2)):
        assert residual_signatures(L, k, e).class_count <= minimize(powers_dfa(B)).state_count


def test_residuals_budget():
    # the real points of the disc times k + e pass the budget: refused before any digit step
    with pytest.raises(BudgetExceeded):
        residual_signatures(integers_oracle(D5), 20, 4)
    # 3.1e6 real points x 18 steps fit the budget, but not the members held in memory
    with pytest.raises(BudgetExceeded):
        residual_signatures(integers_oracle(D5), 16, 2)
    # an absurd depth is refused without forming norm(b)^(k + e)
    with pytest.raises(BudgetExceeded):
        residual_signatures(powers_oracle(B, D5), 10**12, 3)
    with pytest.raises(BudgetExceeded):
        residual_signatures(integers_oracle(D5), 3, 10**12)


def test_budget_counts_candidate_digit_steps(monkeypatch):
    # over 2+1i the largest digit norm is 1 and isqrt(5) - 1 = 1, so the
    # candidates of length <= L are the values of norm <= 5^L: the 2*isqrt(5^L) + 1
    # real points and the L + 1 powers b^0..b^L.  Each candidate costs L + 1
    # digit-steps, each charged the 64-bit words of 2^(1 + 3L), past the rim's norm 5^L
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 23 * 4)  # 23 one-word real points x 4 steps
    assert residual_signatures(integers_oracle(D5), 3, 0).class_count >= 1
    assert residual_signatures(integers_oracle(D5), 1, 2).class_count >= 1
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 23 * 4 - 1)
    with pytest.raises(BudgetExceeded):
        residual_signatures(integers_oracle(D5), 3, 0)
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 7 * 7)  # 7 one-word powers x 7 steps
    assert residual_signatures(powers_oracle(B, D5), 4, 2).class_count >= 1
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 7 * 7 - 1)
    with pytest.raises(BudgetExceeded):
        residual_signatures(powers_oracle(B, D5), 4, 2)
    # at L = 60 a step is charged the 3 words of 2^181
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 61 * 61 * 3)  # 61 powers x 61 steps x 3 words
    assert residual_signatures(powers_oracle(B, D5), 60, 0).class_count >= 1
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 61 * 61 * 3 - 1)
    with pytest.raises(BudgetExceeded):
        residual_signatures(powers_oracle(B, D5), 60, 0)
    # the disagreement search adds 3 states x 4 table cells and one non-member word per length
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 23 * 4 + 3 * 4 + 4)
    assert dfa_oracle_disagreement(powers_dfa(B), integers_oracle(D5), 3) == ()
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", 23 * 4 + 3 * 4 + 3)
    with pytest.raises(BudgetExceeded):
        dfa_oracle_disagreement(powers_dfa(B), integers_oracle(D5), 3)
    # and no walk holds more than MEMBER_BUDGET candidates
    monkeypatch.setattr(automata, "MEMBER_BUDGET", 23)
    assert residual_signatures(integers_oracle(D5), 1, 2).class_count >= 1
    monkeypatch.setattr(automata, "MEMBER_BUDGET", 22)
    with pytest.raises(BudgetExceeded):
        residual_signatures(integers_oracle(D5), 1, 2)


def test_residual_signatures_charge_the_split_integers_they_hold(monkeypatch):
    # a member of length n splits into u.v for |v| = max(0, n - k)..min(e, n), and
    # each split holds about the 64-bit words of the member's index
    L, k, e = powers_oracle(g(1, 2), D5), 40, 3
    held = 0
    for j in range(k + e + 1):
        w = encode(g(1, 2) ** j, D5)
        if len(w) <= k + e:
            index = reduce(lambda i, d: 5 * i + D5.digits.index(d), w, 0)
            held += (min(e, len(w)) - max(0, len(w) - k) + 1) * (index.bit_length() // 64 + 1)
    assert held == 220
    monkeypatch.setattr(automata, "MEMBER_BUDGET", held)
    assert residual_signatures(L, k, e).class_count == 68
    monkeypatch.setattr(automata, "MEMBER_BUDGET", held - 1)
    with pytest.raises(BudgetExceeded, match=f"depths {k} and {e} hold more words than the member budget"):
        residual_signatures(L, k, e)


# ---- zero pumping ----

def test_pump_powers_stay_members():
    L = powers_oracle(B, D5)
    assert zero_pump_probe(L, (g(1), g(0)), 3, 6) == (True,) * 7


def test_pump_base3_powers_are_integers():
    D9 = canonical_digit_set(g(3))
    L = integers_oracle(D9)
    probe = zero_pump_probe(L, encode(g(9), D9), 2, 5)
    assert probe == (True,) * 6


def test_pump_escapes_integers_over_complex_base():
    L = integers_oracle(D5)
    probe = zero_pump_probe(L, encode(g(5), D5), 1, 8)
    assert probe[0] is True
    assert False in probe


@pytest.mark.parametrize("k,reps", [(1, 8), (3, 5), (2, 0)])
def test_pump_budget_counts_squared_word_lengths(monkeypatch, k, reps):
    L, w = integers_oracle(D5), encode(g(5), D5)  # 4 digits
    steps = sum((len(w) + j * k) ** 2 for j in range(reps + 1))
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", steps)
    assert len(zero_pump_probe(L, w, k, reps)) == reps + 1
    monkeypatch.setattr(automata, "ENUMERATION_BUDGET", steps - 1)
    with pytest.raises(BudgetExceeded, match=f"takes {steps} digit-steps"):
        zero_pump_probe(L, w, k, reps)


def test_pump_argument_validation():
    L = integers_oracle(D5)
    with pytest.raises(InvalidInput, match="pumping needs a nonempty word"):
        zero_pump_probe(L, (), 1, 3)
    with pytest.raises(InvalidInput, match="pumping needs a nonzero leading digit"):
        zero_pump_probe(L, (ZERO, g(1)), 1, 3)


# ---- disagreement search ----

def test_disagreement_none_for_matching_pairs():
    assert dfa_oracle_disagreement(powers_dfa(B), powers_oracle(B, D5), 6) is None
    D9 = canonical_digit_set(g(3))
    assert dfa_oracle_disagreement(integers_dfa(3), integers_oracle(D9), 4) is None


def test_disagreement_finds_lex_least_witness():
    word = dfa_oracle_disagreement(powers_dfa(B), powers_oracle(g(1, 2), D5), 4)
    assert word == (g(1), g(0))  # b itself is not a power of 1+2i


def test_disagreement_budget_and_alphabets():
    with pytest.raises(BudgetExceeded):
        dfa_oracle_disagreement(powers_dfa(B), integers_oracle(D5), 24)
    with pytest.raises(BudgetExceeded):
        dfa_oracle_disagreement(powers_dfa(B), powers_oracle(B, D5), 10**12)
    big = Dfa(D5, 0, tuple(((s + 1) % 10**4,) * 5 for s in range(10**4)), frozenset())
    with pytest.raises(BudgetExceeded):  # 10^4 states x 10^4 + 1 table cells
        dfa_oracle_disagreement(big, powers_oracle(B, D5), 10**4)
    with pytest.raises(InvalidInput, match="DFA and oracle alphabets differ"):
        dfa_oracle_disagreement(powers_dfa(g(3)), powers_oracle(B, D5), 3)
    with pytest.raises(InvalidInput, match="DFA and oracle alphabets differ"):  # checked before the budget
        dfa_oracle_disagreement(powers_dfa(g(3)), powers_oracle(B, D5), 10**12)


def test_deep_residuals_and_falsification():
    L = powers_oracle(g(1, 2), D5)
    counts = [residual_signatures(L, k, 3).class_count for k in (2, 4, 6, 10, 20, 40)]
    assert counts == [8, 15, 19, 27, 48, 68]  # dense enumeration agrees up to k = 6
    assert residual_signatures(powers_oracle(B, D5), 40, 3).class_count == 3
    assert dfa_oracle_disagreement(powers_dfa(B), powers_oracle(B, D5), 200) is None
    # the base 2+1i itself is no power of its conjugate
    assert dfa_oracle_disagreement(powers_dfa(B), powers_oracle(g(2, -1), D5), 40) == (g(1), g(0))


# ---- serialization ----

def test_json_shape():
    obj = dfa_to_json(powers_dfa(B))
    assert obj["base"] == "2+1i"
    assert obj["digits"] == ["-1", "0-1i", "0", "0+1i", "1"]
    assert obj["states"] == 3
    assert obj["initial"] == 0
    assert obj["accepting"] == [1]
    assert len(obj["transitions"]) == 3


@settings(max_examples=50, deadline=None)
@given(dfas())
def test_json_roundtrip(d):
    assert dfa_from_json(dfa_to_json(d)) == d


@pytest.mark.parametrize(
    "rows, message",
    [
        ({1: [0, 0, True, 0, 0]}, "expected an integer, got bool"),
        ({1: [0, 0, 1.5, 0, 0]}, "expected an integer, got float"),
        ({1: [0, 0, "1", 0, 0]}, "expected an integer, got str"),
        ({1: [0, 0, [0], 0, 0]}, "expected an integer, got list"),
        ({1: "00000"}, "expected a list, got str"),
        ({1: {"0": 0}}, "expected a list, got dict"),
        ({0: [0, 1.5, 0, 0, 0], 2: "00000"}, "expected an integer, got float"),
        ({0: 7, 1: [True, 0, 0, 0, 0]}, "expected a list, got int"),
    ],
)
def test_json_transition_types_are_named_in_row_order(rows, message):
    obj = dfa_to_json(powers_dfa(B))
    for i, row in rows.items():
        obj["transitions"][i] = row
    with pytest.raises(InvalidInput, match=re.escape(f"malformed field 'transitions': {message}")):
        dfa_from_json(obj)


def test_json_state_count_validated():
    obj = dfa_to_json(powers_dfa(B))
    obj["states"] = 5
    with pytest.raises(InvalidInput, match="state count field disagrees with the transition table"):
        dfa_from_json(obj)


@settings(max_examples=60, deadline=None)
@given(dfas(max_states=6), dfas(max_states=6), st.booleans())
def test_equivalent_matches_both_difference_products(d1, d2, same_language):
    if same_language:
        d2 = minimize(d1)
    expected = is_empty(product(d1, d2, "diff")) and is_empty(product(d2, d1, "diff"))
    assert equivalent(d1, d2) == expected
    if same_language:
        assert expected


# ---- differential: level enumeration vs brute force over itertools.product ----

ALPHABETS = [canonical_digit_set(b) for b in lattice_disc(10) if 5 <= b.norm() <= 10]


@st.composite
def oracles(draw, alphabets=st.sampled_from(ALPHABETS)):
    D = draw(alphabets)
    if draw(st.booleans()):
        return integers_oracle(D)
    a = draw(
        st.sampled_from([D.base, D.base * D.base, g(2), g(0, -2), g(1, 1), g(1, 2), g(3)])
    )
    return powers_oracle(a, D)


def brute_residuals(L, k, e):
    member = cache(L.membership)
    digits = L.alphabet.digits
    first_seen = {}
    for n in range(k + 1):
        for u in words_of(digits, repeat=n):
            key = tuple(member(u + v) for lv in range(e + 1) for v in words_of(digits, repeat=lv))
            first_seen.setdefault(key, u)
    return len(first_seen), tuple(first_seen.values())


def brute_disagreement(d, L, max_len):
    for n in range(max_len + 1):
        for w in words_of(d.alphabet.digits, repeat=n):
            if run(d, w) != L.membership(w):
                return w
    return None


@settings(max_examples=40, deadline=None)
@given(oracles(), st.integers(0, 4), st.data())
def test_residuals_match_brute_force(L, depth, data):
    k = data.draw(st.integers(0, depth))
    e = depth - k
    report = residual_signatures(L, k, e)
    m = len(L.alphabet.digits)
    for name in report.representatives:
        assert type(name) is tuple and all(type(x) is int for x in name)
        length, index = name
        assert 0 <= index < m**length
    words = tuple(word_of(L.alphabet, name) for name in report.representatives)
    assert (report.class_count, words) == brute_residuals(L, k, e)


@settings(max_examples=60, deadline=None)
@given(oracles(), st.integers(0, 4), st.data())
def test_disagreement_matches_brute_force(L, max_len, data):
    D = L.alphabet
    d = data.draw(st.one_of(dfas(D), st.just(powers_dfa(D.base))))
    assert dfa_oracle_disagreement(d, L, max_len) == brute_disagreement(d, L, max_len)


@st.composite
def shifted_alphabets(draw):
    """A non-canonical complete residue system: canonical nonzero digits moved by multiples of b."""
    D = draw(st.sampled_from(ALPHABETS))
    shifts = st.sampled_from([g(0), g(1), g(-1), g(0, 1), g(0, -1), g(1, 1)])
    digits = [d if d == ZERO else d + D.base * draw(shifts) for d in D.digits]
    return digit_set_from_json({"base": str(D.base), "digits": [str(d) for d in digits]})


def reference_run(dfa, w):
    """run with each digit's position found by D.digits.index."""
    state = dfa.initial
    for d in w:
        try:
            i = dfa.alphabet.digits.index(d)
        except ValueError:
            raise InvalidInput(f"{d} is not in the DFA alphabet") from None
        state = dfa.transitions[state][i]
    return state in dfa.accepting


@st.composite
def runs_with_strays(draw):
    """A DFA over a canonical or shifted alphabet, and a word over it that may hold a stray.

    A stray is d + b, never a digit of a complete residue system that
    holds d, a digit's bare (re, im) tuple, a Lookalike of a digit, or a
    list of its parts."""
    alphabet = draw(st.sampled_from(ALPHABETS) | shifted_alphabets())
    dfa = draw(any_dfas(max_states=6, alphabets=(alphabet,)))
    digit = st.sampled_from(alphabet.digits)
    stray = st.one_of(
        digit.map(lambda d: d + alphabet.base),
        digit.map(lambda d: (d.re, d.im)),
        digit.map(Lookalike),
        digit.map(lambda d: [d.re, d.im]),
    )
    element = digit | stray if draw(st.booleans()) else digit
    return dfa, tuple(draw(st.lists(element, max_size=10)))


@settings(max_examples=200, deadline=None)
@given(runs_with_strays())
def test_run_finds_each_digit_as_digits_index_does(case):
    """The same verdict as the reference, or InvalidInput with the same text."""
    dfa, w = case
    assert outcome(run, dfa, w) == outcome(reference_run, dfa, w)


@settings(max_examples=40, deadline=None)
@given(oracles(shifted_alphabets()), st.integers(0, 3), st.data())
def test_non_canonical_digits_match_brute_force(L, depth, data):
    k = data.draw(st.integers(0, depth))
    report = residual_signatures(L, k, depth - k)
    words = tuple(word_of(L.alphabet, name) for name in report.representatives)
    assert (report.class_count, words) == brute_residuals(L, k, depth - k)
    d = data.draw(dfas(L.alphabet))
    assert dfa_oracle_disagreement(d, L, depth) == brute_disagreement(d, L, depth)
