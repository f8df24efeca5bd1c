"""DFAs over digit alphabets, oracle languages, and finite-evidence harnesses.

The harnesses replace infinite arguments with exhaustive finite checks:
residual (Myhill-Nerode) signatures lower-bound the states any recognizer
needs, zero-pumping probes test closure under inserting zero blocks, and
the disagreement search falsifies a claimed DFA against a ground-truth
membership oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, Literal, Optional

from .gaussint import ZERO, BaseIsUnitOrZero, GaussInt, is_power_of
from .numeration import (
    DigitSet,
    ForeignDigit,
    Word,
    _json_field,
    _json_int,
    _json_ints,
    _json_list,
    canonical_digit_set,
    decode,
    digit_set_from_json,
    word_values,
)

ENUMERATION_BUDGET = 10**8


class AlphabetMismatch(ValueError):
    """Binary DFA operations need a shared alphabet."""


class BaseNotRealOdd(ValueError):
    """The integer DFA exists only for real odd bases >= 3."""


class BudgetExceeded(RuntimeError):
    """Requested enumeration has more words than ENUMERATION_BUDGET."""


class EmptyWord(ValueError):
    """Pumping needs a nonempty word."""


@dataclass(frozen=True)
class Dfa:
    """Deterministic finite automaton with a total transition table.

    transitions[state][digit_index] is the successor state; digit indices
    follow the alphabet's canonical digit order.
    """

    alphabet: DigitSet
    initial: int
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "transitions", tuple(tuple(row) for row in self.transitions)
        )
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        n = len(self.transitions)
        if n == 0:
            raise ValueError("a DFA needs at least one state")
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        width = len(self.alphabet.digits)
        for row in self.transitions:
            if len(row) != width:
                raise ValueError("transition row width differs from alphabet size")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"transition target {t} out of range")
        if not self.accepting <= set(range(n)):
            raise ValueError("accepting states out of range")

    @property
    def state_count(self) -> int:
        return len(self.transitions)


def run(dfa: Dfa, w: Word) -> bool:
    """True iff the unique run over w ends in an accepting state."""
    index = dfa.alphabet.index
    state = dfa.initial
    for d in w:
        i = index.get(d)
        if i is None:
            raise ForeignDigit(f"{d} is not in the DFA alphabet")
        state = dfa.transitions[state][i]
    return state in dfa.accepting


def _bfs(
    start: Hashable, successors: Callable[[Hashable], Iterable[Hashable]]
) -> tuple[list, list[tuple[int, ...]]]:
    """Breadth-first numbering of everything reachable from start.

    successors(s) lists the targets of s in digit order.  Returns the
    reached items in BFS order (item i gets number i) and, for each, the
    row of its targets' numbers.
    """
    number = {start: 0}
    order = [start]
    rows: list[tuple[int, ...]] = []
    for s in order:  # order grows while it is walked
        row = []
        for t in successors(s):
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row.append(number[t])
        rows.append(tuple(row))
    return order, rows


def _pairs(d1: Dfa, d2: Dfa) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """_bfs over the state pairs of d1 x d2 reachable from the initial pair."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch("product needs a shared alphabet")
    t1, t2 = d1.transitions, d2.transitions
    return _bfs((d1.initial, d2.initial), lambda pair: zip(t1[pair[0]], t2[pair[1]]))


ProductMode = Literal["and", "or", "diff"]

_KEEP: dict[str, Callable[[bool, bool], bool]] = {
    "and": lambda a1, a2: a1 and a2,
    "or": lambda a1, a2: a1 or a2,
    "diff": lambda a1, a2: a1 and not a2,
}


def product(d1: Dfa, d2: Dfa, mode: ProductMode) -> Dfa:
    """Product DFA for the boolean combination of two languages."""
    if mode not in _KEEP:
        raise ValueError(f"unknown product mode {mode!r}")
    keep = _KEEP[mode]
    order, rows = _pairs(d1, d2)
    accepting = frozenset(
        i
        for i, (s1, s2) in enumerate(order)
        if keep(s1 in d1.accepting, s2 in d2.accepting)
    )
    return Dfa(d1.alphabet, 0, tuple(rows), accepting)


def complement(d: Dfa) -> Dfa:
    return Dfa(
        d.alphabet,
        d.initial,
        d.transitions,
        frozenset(range(d.state_count)) - d.accepting,
    )


def is_empty(d: Dfa) -> bool:
    """True iff no accepting state is reachable."""
    reached, _ = _bfs(d.initial, d.transitions.__getitem__)
    return d.accepting.isdisjoint(reached)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality: every reachable state pair agrees on acceptance."""
    order, _ = _pairs(d1, d2)
    return all((s1 in d1.accepting) == (s2 in d2.accepting) for s1, s2 in order)


def minimize(d: Dfa) -> Dfa:
    """The minimal DFA, with states renumbered canonically by BFS.

    Unreachable states are dropped, equivalent states merged by iterated
    partition refinement, and the quotient renumbered breadth-first from
    the initial state in digit order, so equal languages over equal
    alphabets yield structurally equal automata.
    """
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


def powers_dfa(b: GaussInt) -> Dfa:
    """Accepts exactly the words `1` followed by zeros, i.e. the powers of b."""
    D = canonical_digit_set(b)
    index = D.index
    width = len(D.digits)
    row_start = [2] * width
    row_start[index[GaussInt(1, 0)]] = 1
    row_live = [2] * width
    row_live[index[ZERO]] = 1
    dead = (2,) * width
    return Dfa(D, 0, (tuple(row_start), tuple(row_live), dead), frozenset({1}))


def integers_dfa(b: GaussInt | int) -> Dfa:
    """Accepts exactly the valid words with real digits only, for a real odd base.

    Over such a base those are precisely the representations of Z
    (including the empty word for 0).
    """
    if isinstance(b, int):
        b = GaussInt(b, 0)
    if b.im != 0 or b.re < 3 or b.re % 2 == 0:
        raise BaseNotRealOdd(f"{b} is not a real odd integer >= 3")
    D = canonical_digit_set(b)
    width = len(D.digits)
    row_start, row_live = [2] * width, [2] * width
    for i, d in enumerate(D.digits):
        if d.im == 0:
            if d != ZERO:
                row_start[i] = 1
            row_live[i] = 1
    dead = (2,) * width
    return Dfa(D, 0, (tuple(row_start), tuple(row_live), dead), frozenset({0, 1}))


@dataclass(frozen=True)
class LanguageOracle:
    """Ground-truth membership for a set of Gaussian integers, as a word language.

    Words with a zero leading digit are invalid and never members; the
    empty word is a member exactly when the set contains 0.  Other words
    are decided by value_test on their decoded value.
    """

    alphabet: DigitSet
    value_test: Callable[[GaussInt], bool]

    def membership(self, w: Word) -> bool:
        if w and w[0] == ZERO:
            return False
        return self.value_test(decode(w, self.alphabet))

    def levels(self, max_len: int) -> Iterator[bytes]:
        """Membership of every word of length n = 0..max_len, one level per n.

        Byte i of level n is 1 iff the i-th length-n word in lexicographic
        order is a member.  The words of length n >= 1 that lead with 0
        fill the index block [z0*m^(n-1), (z0+1)*m^(n-1)) and are never
        tested.  Raises BudgetExceeded, before the first level, when the
        levels would hold more than ENUMERATION_BUDGET words.
        """
        D = self.alphabet
        m = len(D.digits)
        words = 0
        for n in range(max_len + 1):  # stops early, so an absurd max_len costs nothing
            words += m**n
            if words > ENUMERATION_BUDGET:
                raise BudgetExceeded(
                    f"{m}^0 + ... + {m}^{max_len} words exceed the enumeration budget"
                )
        z0 = D.index[ZERO]
        vt = self.value_test
        for n in range(max_len + 1):
            values = word_values(D, n)
            block = m ** (n - 1) if n else 0
            head = bytes([vt(GaussInt(re, im)) for re, im in islice(values, z0 * block)])
            next(islice(values, block, block), None)  # skip the zero-led block
            tail = bytes([vt(GaussInt(re, im)) for re, im in values])
            yield head + bytes(block) + tail


def powers_oracle(a: GaussInt, D: DigitSet) -> LanguageOracle:
    """Oracle for {a^n : n >= 0} written over D."""
    if a.norm() <= 1:
        raise BaseIsUnitOrZero(f"norm({a}) <= 1 cannot generate powers")
    return LanguageOracle(D, lambda v: is_power_of(v, a) is not None)


def integers_oracle(D: DigitSet) -> LanguageOracle:
    """Oracle for Z inside Z[i], written over D."""
    return LanguageOracle(D, lambda v: v.im == 0)


@dataclass(frozen=True)
class ResidualReport:
    """Distinct extension-behaviors among bounded prefixes.

    class_count distinct signatures were observed over prefixes of length
    <= prefix_depth, where the signature of u is the membership vector of
    u.v over all extensions v of length <= extension_depth.  class_count
    lower-bounds the state count of any DFA that agrees with the language
    on all words of length <= prefix_depth + extension_depth.
    """

    prefix_depth: int
    extension_depth: int
    class_count: int
    representatives: tuple[Word, ...] = field(repr=False)


def _word_from_index(digits: tuple[GaussInt, ...], length: int, index: int) -> Word:
    out = []
    m = len(digits)
    for _ in range(length):
        index, r = divmod(index, m)
        out.append(digits[r])
    out.reverse()
    return tuple(out)


def residual_signatures(L: LanguageOracle, k: int, e: int) -> ResidualReport:
    """Group all words of length <= k by their behavior under extensions of length <= e.

    The length-lv extensions of the word at index i of level n are the
    slice [i*m^lv, (i+1)*m^lv) of level n+lv, so a signature is e+1 slices.
    """
    if k < 0 or e < 0:
        raise ValueError("depths must be nonnegative")
    levels = list(L.levels(k + e))
    digits = L.alphabet.digits
    m = len(digits)
    widths = [m**lv for lv in range(e + 1)]
    first_seen: dict[tuple[bytes, ...], tuple[int, int]] = {}
    for n in range(k + 1):
        slices = [
            [level[j : j + w] for j in range(0, m**n * w, w)]
            for level, w in zip(levels[n:], widths)
        ]
        for i, key in enumerate(zip(*slices)):
            first_seen.setdefault(key, (n, i))
    reps = tuple(_word_from_index(digits, n, i) for n, i in first_seen.values())
    return ResidualReport(
        prefix_depth=k,
        extension_depth=e,
        class_count=len(first_seen),
        representatives=reps,
    )


def zero_pump_probe(
    L: LanguageOracle, w: Word, k: int, reps: int
) -> tuple[bool, ...]:
    """Membership after inserting j*k zeros behind the leading digit, j = 0..reps."""
    if not w:
        raise EmptyWord("pumping needs a nonempty word")
    if w[0] == ZERO:
        raise ValueError("pumping needs a nonzero leading digit")
    if k < 1:
        raise ValueError("pump block size must be >= 1")
    head, tail = w[:1], w[1:]
    return tuple(
        L.membership(head + (ZERO,) * (j * k) + tail) for j in range(reps + 1)
    )


def dfa_oracle_disagreement(d: Dfa, L: LanguageOracle, max_len: int) -> Optional[Word]:
    """Shortest (then lexicographically least) word where DFA and oracle differ.

    Exhausts all words up to max_len; None means perfect agreement on
    that range.
    """
    if d.alphabet != L.alphabet:
        raise AlphabetMismatch("DFA and oracle alphabets differ")
    trans, acc = d.transitions, d.accepting
    states = [d.initial]
    for n, members in enumerate(L.levels(max_len)):
        if n:
            states = [t for s in states for t in trans[s]]
        accepted = bytes([s in acc for s in states])
        if accepted != members:
            i = next(i for i, (x, y) in enumerate(zip(accepted, members)) if x != y)
            return _word_from_index(d.alphabet.digits, n, i)
    return None


def dfa_to_json(d: Dfa) -> dict:
    return {
        "base": str(d.alphabet.base),
        "digits": [str(x) for x in d.alphabet.digits],
        "states": d.state_count,
        "initial": d.initial,
        "accepting": sorted(d.accepting),
        "transitions": [list(row) for row in d.transitions],
    }


def dfa_from_json(obj: dict) -> Dfa:
    """Inverse of dfa_to_json; a missing or mistyped field raises ValueError naming it."""
    d = Dfa(
        alphabet=digit_set_from_json(obj),
        initial=_json_field(obj, "initial", _json_int),
        transitions=_json_field(
            obj, "transitions", lambda rows: tuple(map(_json_ints, _json_list(rows)))
        ),
        accepting=_json_field(obj, "accepting", lambda states: frozenset(_json_ints(states))),
    )
    if d.state_count != _json_field(obj, "states", _json_int):
        raise ValueError("state count field disagrees with the transition table")
    return d
