"""DFAs over digit alphabets, oracle languages, and finite-evidence harnesses.

The harnesses replace infinite arguments with exhaustive finite checks:
residual (Myhill-Nerode) signatures lower-bound the states any recognizer
needs, zero-pumping probes test closure under inserting zero blocks, and
the disagreement search falsifies a claimed DFA against a ground-truth
membership oracle.  The oracle languages are sparse, so the two exhaustive
harnesses walk member words, not all m^0 + ... + m^L words: the set's
elements in the disc that holds every word of length <= L are the
candidates, and the forced digit loop, capped at L steps, gives each one
its word or shows that it has none that short.  ENUMERATION_BUDGET and
MEMBER_BUDGET cap that work before it starts.

The JSON formats live here too: a DFA's record embeds its alphabet's
digit-set record.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, islice, repeat, takewhile
from math import isqrt

try:  # operator's C functions, without the Python layer of operator
    from _operator import add, and_, attrgetter, floordiv, gt, itemgetter, mod, mul, ne, or_
except ImportError:
    from operator import add, and_, attrgetter, floordiv, gt, itemgetter, mod, mul, ne, or_

from ._records import defaultdict, record
from .gaussint import (
    LEAST_BASE_NORM, ONE, ZERO, BudgetExceeded, GaussInt, InvalidInput, int_at_least, is_power_of, norm_at_least
)
from .numeration import DigitSet, Word, canonical_digit_set, decode, encode_within

ENUMERATION_BUDGET = 10**8
MEMBER_BUDGET = 10**6  # candidate values in one walk, and 64-bit words of residual signatures held


class Dfa(record("Dfa", "alphabet initial transitions accepting")):
    """Deterministic finite automaton with a total transition table.

    Fields: alphabet (DigitSet), initial (int), transitions
    (tuple[tuple[int, ...], ...]) and accepting (frozenset[int]).
    transitions[state][digit_index] is the successor state; digit indices
    follow the alphabet's canonical digit order.  Construction turns the
    rows into tuples and accepting into a frozenset, then __post_init__
    checks that every state and target is in range: the row widths and
    the targets of the whole table at once, by C-level set operations,
    and row by row only when that fails, to name the first fault by the
    same membership test.
    """

    __slots__ = ()

    def __new__(
        cls, alphabet: DigitSet, initial: int, transitions: Iterable[Iterable[int]], accepting: Iterable[int]
    ) -> Dfa:
        rows = tuple(map(tuple, transitions))
        self = tuple.__new__(cls, (alphabet, initial, rows, frozenset(accepting)))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        rows = self.transitions
        n = len(rows)
        if n == 0:
            raise InvalidInput("a DFA needs at least one state")
        if self.initial not in range(n):
            raise InvalidInput("initial state %s out of range", self.initial)
        width = len(self.alphabet.digits)
        states = set(range(n))
        if set(map(len, rows)) != {width} or not states.issuperset(chain.from_iterable(rows)):
            for row in rows:
                if len(row) != width:
                    raise InvalidInput("transition row width differs from alphabet size")
                for t in row:
                    if t not in states:
                        raise InvalidInput("transition target %s out of range", t)
        if not self.accepting <= states:
            raise InvalidInput("accepting states out of range")

    @property
    def state_count(self) -> int:
        return len(self.transitions)


def _derived(
    alphabet: DigitSet, initial: int, transitions: tuple[tuple[int, ...], ...], accepting: frozenset[int]
) -> Dfa:
    """A Dfa built without __post_init__, for tables derived from DFAs that were validated.

    product, complement and minimize only renumber the states of checked
    DFAs, so their tables are in range by construction; the public
    constructor and dfa_from_json still validate.  transitions must be a
    tuple of tuples and accepting a frozenset, as the constructor makes them.
    """
    return tuple.__new__(Dfa, (alphabet, initial, transitions, accepting))


def run(dfa: Dfa, w: Word) -> bool:
    """True iff the unique run over w ends in an accepting state.

    A digit's index is the entry of its (re, im) pair in the alphabet's
    positions.  A pair says nothing of type, so an element that is no
    GaussInt is refused before its lookup.
    """
    positions = dfa.alphabet.positions
    state = dfa.initial
    for d in w:
        i = positions.get((d.re, d.im)) if isinstance(d, GaussInt) else None
        if i is None:
            raise InvalidInput("%s is not in the DFA alphabet", d)
        state = dfa.transitions[state][i]
    return state in dfa.accepting


def _bfs(
    start: Hashable, successors: Callable[[Hashable], Iterable[Hashable]]
) -> tuple[list, list[tuple[int, ...]]]:
    """Breadth-first numbering of everything reachable from start.

    successors(s) lists the targets of s in digit order, as many for
    every s.  Returns the reached items in BFS order (item i gets number
    i) and, for each, the row of its targets' numbers.  A lookup in
    number numbers a new item itself, so one BFS level is numbered by
    C-level maps over the targets of all its items, in order, and cut
    into rows; the items it numbered, the newest keys of number, are the
    next level.
    """
    number: defaultdict[Hashable, int] = defaultdict(count().__next__)
    number[start]
    rows = [tuple(map(number.__getitem__, successors(start)))]
    while len(rows) < len(number):
        # read from the end: skipping the numbered items from the front costs a long chain n^2 steps
        level = [*islice(reversed(number), len(number) - len(rows))][::-1]
        targets = map(number.__getitem__, chain.from_iterable(map(successors, level)))
        rows += zip(*[targets] * len(rows[0]))
    return list(number), rows


def _pairs(d1: Dfa, d2: Dfa) -> tuple[Iterator[int], Iterator[int], list[tuple[int, ...]]]:
    """_bfs over the state pairs of d1 x d2 reachable from the initial pair.

    The pair (s1, s2) is walked as the int s1 * n2 + s2, which hashes
    faster than the tuple.  Returns the d1 and the d2 state of each
    reached pair, in BFS order, and the rows.
    """
    if d1.alphabet != d2.alphabet:
        raise InvalidInput("product needs a shared alphabet")
    t1, t2 = d1.transitions, d2.transitions
    n2 = len(t2)
    scaled = [tuple(map(mul, row, repeat(n2))) for row in t1]  # the targets of d1, times n2
    order, rows = _bfs(d1.initial * n2 + d2.initial, lambda p: map(add, scaled[p // n2], t2[p % n2]))
    return map(floordiv, order, repeat(n2)), map(mod, order, repeat(n2)), rows


_KEEP: dict[str, Callable[[bool, bool], bool]] = {"and": and_, "or": or_, "diff": gt}  # on bools, a1 > a2 is a1 and not a2


def product(d1: Dfa, d2: Dfa, mode: str) -> Dfa:
    """Product DFA for the boolean combination of two languages; mode is "and", "or" or "diff"."""
    if mode not in _KEEP:
        raise InvalidInput("unknown product mode %r", mode)
    states1, states2, rows = _pairs(d1, d2)
    kept = map(_KEEP[mode], map(d1.accepting.__contains__, states1), map(d2.accepting.__contains__, states2))
    return _derived(d1.alphabet, 0, tuple(rows), frozenset(compress(count(), kept)))


def complement(d: Dfa) -> Dfa:
    return _derived(d.alphabet, d.initial, d.transitions, frozenset(range(d.state_count)) - d.accepting)


def is_empty(d: Dfa) -> bool:
    """True iff no accepting state is reachable."""
    reached, _ = _bfs(d.initial, d.transitions.__getitem__)
    return d.accepting.isdisjoint(reached)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, by Hopcroft and Karp's union-find test.

    A union-find over the disjoint union of both state sets (d2's state s
    is n1 + s), with union by size, merges the classes of the state pairs
    reached from the initial pair.  The languages differ exactly when a
    merge would join an accepting state to a rejecting one, and the walk
    stops there; so the work is near-linear in the states, never in their
    pairs.  Two targets with one parent are in one class already, and
    C-level maps skip them.  Independent of minimize, which the
    verification suite checks with it.
    """
    if d1.alphabet != d2.alphabet:
        raise InvalidInput("equivalence needs a shared alphabet")
    t1, t2, a1, a2 = d1.transitions, d2.transitions, d1.accepting, d2.accepting
    n1 = len(t1)
    parent = list(range(n1 + len(t2)))
    size = [1] * len(parent)

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]  # path halving
        return s

    rows1, rows2 = [(d1.initial,)], [(d2.initial,)]  # the target rows of the pairs merged last
    while rows1:
        r1, r2 = [*chain.from_iterable(rows1)], [*chain.from_iterable(rows2)]
        rows1, rows2 = [], []
        apart = map(ne, map(parent.__getitem__, r1), map(parent.__getitem__, map(add, r2, repeat(n1))))
        for s1, s2 in compress(zip(r1, r2), apart):
            c1, c2 = find(s1), find(n1 + s2)
            if c1 != c2:
                if (s1 in a1) != (s2 in a2):
                    return False
                if size[c1] < size[c2]:
                    c1, c2 = c2, c1
                parent[c2] = c1
                size[c1] += size[c2]
                rows1.append(t1[s1])
                rows2.append(t2[s2])
    return True


def minimize(d: Dfa) -> Dfa:
    """The minimal DFA, with states renumbered canonically by BFS.

    Unreachable states are dropped and equivalent states merged by
    iterated partition refinement, so equal languages over equal
    alphabets yield structurally equal automata.  _bfs numbers states in
    shortlex order of their least access words, and a block's least
    access word is its first state's; so numbering blocks by their first
    state, as each round does, is the quotient's own BFS numbering.
    When every block is a single state, that numbering is the BFS
    table's own, and the table is returned as it is.
    """
    order, rows = _bfs(d.initial, d.transitions.__getitem__)
    accepts = list(map(d.accepting.__contains__, order))

    # Moore refinement: a round only splits blocks, so an unchanged count is the fixpoint,
    # and so is a partition into singletons
    block = accepts
    blocks = len(set(block))
    signature = [itemgetter(s, *row) for s, row in enumerate(rows)]  # (block of s, blocks of its targets)
    while True:
        number: dict[tuple, int] = {}  # a new signature gets the next block number
        block = [number.setdefault(key_of(block), len(number)) for key_of in signature]
        if len(number) in (blocks, len(rows)):
            break
        blocks = len(number)
    acc = compress(count(), accepts)
    if len(number) == len(rows):
        return _derived(d.alphabet, 0, tuple(rows), frozenset(acc))
    firsts: dict[int, int] = {}  # the first state of each block, in block order
    for s, b in enumerate(block):
        firsts.setdefault(b, s)
    out_rows = tuple(tuple([block[t] for t in rows[s]]) for s in firsts.values())
    return _derived(d.alphabet, 0, out_rows, frozenset(map(block.__getitem__, acc)))


def _three_state(D: DigitSet, first: set, rest: set, accepting: frozenset[int]) -> Dfa:
    """Start state 0, live 1, dead 2: digits in first lead 0 to 1, rest keep 1, all else go to 2."""
    rows = tuple(tuple(1 if d in to_live else 2 for d in D.digits) for to_live in (first, rest, ()))
    return Dfa(D, 0, rows, accepting)


def powers_dfa(b: GaussInt) -> Dfa:
    """Accepts exactly the words `1` followed by zeros, i.e. the powers of b."""
    return _three_state(canonical_digit_set(b), {ONE}, {ZERO}, frozenset({1}))


def integers_dfa(b: GaussInt | int) -> Dfa:
    """Accepts exactly the valid words with real digits only, for a real odd base.

    Over such a base those are precisely the representations of Z
    (including the empty word for 0).  An int b is read as the real base
    b; the base is checked as every base is, by norm_at_least, before the
    real-odd test.
    """
    if isinstance(b, int):
        b = GaussInt(b, 0)
    norm_at_least(b, LEAST_BASE_NORM, "base")
    if b.im != 0 or b.re < 3 or b.re % 2 == 0:
        raise InvalidInput("%s is not a real odd integer >= 3", b)
    D = canonical_digit_set(b)
    real = {d for d in D.digits if d.im == 0}
    return _three_state(D, real - {ZERO}, real, frozenset({0, 1}))


class LanguageOracle(record("LanguageOracle", "alphabet value_test candidates")):
    """Ground-truth membership for a set of Gaussian integers, as a word language.

    Fields: alphabet (DigitSet), value_test (Callable[[GaussInt], bool])
    and candidates (Callable[[int, int], Iterable[GaussInt] | None]).
    Words with a zero leading digit are invalid and never members; the
    empty word is a member exactly when the set contains 0.  membership
    tests one word's decoded value with value_test.  The harnesses walk
    the members instead: candidates(max_norm, limit) lists the elements v
    of the set with norm(v) <= max_norm, a disc around 0, or gives None
    when there are more than limit of them.
    """

    __slots__ = ()

    def membership(self, w: Word) -> bool:
        if w and w[0] == ZERO:
            return False
        return self.value_test(decode(w, self.alphabet))


def powers_oracle(a: GaussInt, D: DigitSet) -> LanguageOracle:
    """Oracle for {a^n : n >= 0} written over D."""
    norm_at_least(a, 2, "generator")

    def candidates(max_norm: int, limit: int) -> list[GaussInt] | None:
        powers = accumulate(repeat(a), mul, initial=ONE)  # of increasing norm
        out = list(islice(takewhile(lambda v: v.norm() <= max_norm, powers), limit + 1))
        return out if len(out) <= limit else None

    return LanguageOracle(D, lambda v: is_power_of(v, a) is not None, candidates)


def integers_oracle(D: DigitSet) -> LanguageOracle:
    """Oracle for Z inside Z[i], written over D."""

    def candidates(max_norm: int, limit: int) -> Iterable[GaussInt] | None:
        x = isqrt(max_norm)  # the 2x + 1 integers of modulus <= x
        return map(GaussInt, range(-x, x + 1)) if 2 * x < limit else None

    return LanguageOracle(D, lambda v: v.im == 0, candidates)


def _members(L: LanguageOracle, max_len: int, reserved: int = 0) -> Iterator[tuple[int, int]]:
    """(length, index) of every member of length <= max_len, as a stream.

    The index of a word is its lexicographic rank among the words of its
    length.  A word of length <= max_len over base b of norm N has a value
    of modulus below Delta*|b|^max_len/(|b| - 1), with Delta^2 the largest
    digit norm and |b| >= isqrt(N); the candidates are the set's values
    of norm at most max_norm = Delta^2*N^max_len // (isqrt(N) - 1)^2, and
    L.candidates(max_norm, limit) lists them.  Each candidate's word
    comes from the forced digit loop, run for at most max_len steps, and
    is ranked by its digits' (re, im) pairs in D.positions.
    A candidate costs max_len + 1 digit-steps, the loop's and one to index
    its word, and a step is charged the 64-bit words of the largest norm
    it can meet: no value in the disc, nor any the loop makes from one,
    nor any index, reaches 2^above, so each step costs above // 64 + 1
    units.  Before the first step, raises BudgetExceeded when reserved
    units plus those of the candidates exceed ENUMERATION_BUDGET, or the
    candidates MEMBER_BUDGET: limit is the number of candidates the
    budgets admit, and N^max_len is formed only once they admit one.
    """
    D = L.alphabet
    m = len(D.digits)  # the norm N of the base
    delta2 = max(d.norm() for d in D.digits)
    above = delta2.bit_length() + max_len * m.bit_length()  # Delta^2*N^max_len < 2^above
    per_candidate = (max_len + 1) * (above // 64 + 1)
    limit = min(MEMBER_BUDGET, (ENUMERATION_BUDGET - reserved) // per_candidate)
    values = L.candidates(delta2 * m**max_len // (isqrt(m) - 1) ** 2, limit) if limit >= 1 else None
    if values is None:
        raise BudgetExceeded("words of length <= %s exceed the enumeration budget", max_len)
    index, re_im = D.positions, attrgetter("re", "im")

    def rank(w: Word) -> int:  # a digit's position from its (re, im) pair, which hashes in C
        i = 0
        for pair in map(re_im, w):
            i = i * m + index[pair]
        return i

    words = (encode_within(v, D, max_len) for v in values)
    return ((len(w), rank(w)) for w in words if w is not None)


class ResidualReport(
    record("ResidualReport", "prefix_depth extension_depth class_count representatives")
):
    """Distinct extension-behaviors among bounded prefixes.

    Fields: prefix_depth, extension_depth and class_count (ints), and
    representatives (tuple[tuple[int, int], ...]), the sorted
    (length, index) name of each class's first word, which the repr
    leaves out; word_of gives a name's word.  class_count distinct
    signatures were observed over prefixes of length <= prefix_depth,
    where the signature of u is the set of extensions v of length
    <= extension_depth with u.v a member; only the prefixes of members
    have nonempty ones.  class_count lower-bounds the state count of any
    DFA that agrees with the language on all words of length
    <= prefix_depth + extension_depth.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return (
            f"ResidualReport(prefix_depth={self.prefix_depth!r}, "
            f"extension_depth={self.extension_depth!r}, class_count={self.class_count!r})"
        )


def word_of(alphabet: DigitSet, name: tuple[int, int]) -> Word:
    """The word named (length, index): index is its lexicographic rank among the words of its length."""
    length, index = name
    digits, out = alphabet.digits, []
    for _ in range(length):
        index, r = divmod(index, len(digits))
        out.append(digits[r])
    return tuple(reversed(out))


def residual_signatures(L: LanguageOracle, k: int, e: int) -> ResidualReport:
    """Group all words of length <= k by their behavior under extensions of length <= e.

    Words are named by (length, index).  Splitting each member of length
    <= k + e into u.v with |u| <= k and |v| <= e adds (|v|, index(v)) to
    the signature of u; every other prefix has the empty signature.  A
    class is represented by its first (length, index), and classes are
    listed in that order.  _members charges the walk to the enumeration
    budget; the split integers are charged to MEMBER_BUDGET, i's 64-bit
    words per split, before a member's splits are made.
    """
    int_at_least(k, 0, "k")
    int_at_least(e, 0, "e")
    m = len(L.alphabet.digits)
    signatures: dict[tuple[int, int], list[int]] = {}
    held = 0
    for n, i in _members(L, k + e):
        splits = range(max(0, n - k), min(e, n) + 1)
        held += len(splits) * (i.bit_length() // 64 + 1)  # each split's two parts hold about i's words
        if held > MEMBER_BUDGET:
            raise BudgetExceeded("signatures of depths %s and %s hold more words than the member budget", k, e)
        for s in splits:
            width = m**s
            u, v = divmod(i, width)
            # v of length s as one int: the words shorter than s come first
            signatures.setdefault((n - s, u), []).append((width - 1) // (m - 1) + v)
    first_seen: dict[frozenset, tuple[int, int]] = {}
    gap = (0, 0)  # the first prefix of no member, which starts the empty class
    for prefix, signature in sorted(signatures.items()):
        first_seen.setdefault(frozenset(signature), prefix)
        if prefix == gap:
            n, i = gap
            gap = (n, i + 1) if i + 1 < m**n else (n + 1, 0)
    if gap[0] <= k:
        first_seen[frozenset()] = gap
    return ResidualReport(
        prefix_depth=k,
        extension_depth=e,
        class_count=len(first_seen),
        representatives=tuple(sorted(first_seen.values())),
    )


def zero_pump_probe(
    L: LanguageOracle, w: Word, k: int, reps: int
) -> tuple[bool, ...]:
    """Membership after inserting j*k zeros behind the leading digit, j = 0..reps.

    Horner evaluation of an n-digit word costs about n^2 digit-steps, as
    its value grows by one digit per step; so raises BudgetExceeded, before
    decoding anything, when the squared lengths of the pumped words sum to
    more than ENUMERATION_BUDGET.
    """
    if not w:
        raise InvalidInput("pumping needs a nonempty word")
    if w[0] == ZERO:
        raise InvalidInput("pumping needs a nonzero leading digit")
    int_at_least(k, 1, "k")
    int_at_least(reps, 0, "reps")
    n, s1, s2 = len(w), reps * (reps + 1) // 2, reps * (reps + 1) * (2 * reps + 1) // 6
    steps = (reps + 1) * n * n + 2 * n * k * s1 + k * k * s2  # sum of (n + j*k)^2, j = 0..reps
    if steps > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            "decoding %d pumped words takes %d digit-steps, past the enumeration budget", reps + 1, steps
        )
    head, tail = w[:1], w[1:]
    return tuple(
        L.membership(head + (ZERO,) * (j * k) + tail) for j in range(reps + 1)
    )


def _accepted(d: Dfa, reach: list[frozenset[int]], n: int) -> Iterator[int]:
    """Indices of the length-n words d accepts, in increasing order.

    A lexicographic depth-first walk that enters a state only if it
    accepts some word of exactly the letters left, so every branch ends in
    an accepted word.
    """
    m = len(d.alphabet.digits)
    stack = [(d.initial, 0, n)] if d.initial in reach[n] else []
    while stack:
        s, i, left = stack.pop()
        if not left:
            yield i
            continue
        live, row = reach[left - 1], d.transitions[s]
        # pushed last, popped first: the least digit
        stack.extend((row[x], i * m + x, left - 1) for x in reversed(range(m)) if row[x] in live)


def dfa_oracle_disagreement(d: Dfa, L: LanguageOracle, max_len: int) -> Word | None:
    """Shortest (then lexicographically least) word where DFA and oracle differ.

    None means perfect agreement on all words up to max_len.  Per length,
    the accepted words, walked in order, are merged with the members; the
    first mismatch is the answer.  The walk is pruned by the table of the
    states that accept some word of exactly r letters.  The budget counts
    the candidates as _members charges them, the states x (max_len + 1)
    table cells and one more word per length.
    """
    if d.alphabet != L.alphabet:
        raise InvalidInput("DFA and oracle alphabets differ")
    int_at_least(max_len, 0, "max_len")
    cells = d.state_count * (max_len + 1)
    levels: dict[int, list[int]] = {}
    for n, i in sorted(_members(L, max_len, cells + max_len + 1)):
        levels.setdefault(n, []).append(i)
    reach = [d.accepting]
    for _ in range(max_len):
        live = reach[-1]
        reach.append(frozenset(s for s, row in enumerate(d.transitions) if not live.isdisjoint(row)))
    for n in range(max_len + 1):
        accepted = _accepted(d, reach, n)
        for member in levels.get(n, []) + [None]:
            word = next(accepted, None)
            if word != member:
                i = min(x for x in (word, member) if x is not None)
                return word_of(d.alphabet, (n, i))
    return None


def digit_set_to_json(D: DigitSet) -> dict:
    return {"base": str(D.base), "digits": [str(d) for d in D.digits]}


def _json_field(obj: dict, key: str, convert: Callable):
    """convert(obj[key]); a non-object, a missing field or a mistyped one raises InvalidInput."""
    if not isinstance(obj, dict):
        raise InvalidInput("expected a JSON object, got %s", type(obj).__name__)
    if key not in obj:
        raise InvalidInput("missing field %r", key)
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise InvalidInput("malformed field %r: %s", key, exc) from exc


def _json_list(value) -> list:
    if not isinstance(value, list):  # a string would otherwise iterate as characters
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _json_int(value) -> int:
    if type(value) is not int:  # int() would truncate floats and accept strings and bools
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _json_ints(value) -> tuple[int, ...]:
    return tuple(map(_json_int, _json_list(value)))


def _json_table(value) -> tuple[tuple[int, ...], ...]:
    """A list of lists of ints as a tuple of tuples; the types of the whole table are checked at once."""
    rows = _json_list(value)
    if set(map(type, rows)) <= {list} and set(map(type, chain.from_iterable(rows))) <= {int}:
        return tuple(map(tuple, rows))
    return tuple(map(_json_ints, rows))  # raises, naming the first mistyped row or entry


def digit_set_from_json(obj: dict) -> DigitSet:
    """Inverse of digit_set_to_json; a missing or mistyped field raises InvalidInput naming it."""
    return DigitSet(
        base=_json_field(obj, "base", GaussInt.parse),
        digits=_json_field(
            obj, "digits", lambda ds: tuple(GaussInt.parse(d) for d in _json_list(ds))
        ),
    )


def dfa_to_json(d: Dfa) -> dict:
    return {
        **digit_set_to_json(d.alphabet),
        "states": d.state_count,
        "initial": d.initial,
        "accepting": sorted(d.accepting),
        "transitions": [list(row) for row in d.transitions],
    }


def dfa_from_json(obj: dict) -> Dfa:
    """Inverse of dfa_to_json; a missing or mistyped field raises InvalidInput naming it."""
    d = Dfa(
        alphabet=digit_set_from_json(obj),
        initial=_json_field(obj, "initial", _json_int),
        transitions=_json_field(obj, "transitions", _json_table),
        accepting=_json_field(obj, "accepting", lambda states: frozenset(_json_ints(states))),
    )
    if d.state_count != _json_field(obj, "states", _json_int):
        raise InvalidInput("state count field disagrees with the transition table")
    return d
