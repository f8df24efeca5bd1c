"""Digit sets and base-b representations of the Gaussian integers.

A digit set for a base b (norm(b) >= 5) is a complete residue system
containing 0; every Gaussian integer then has a unique msd-first word over
the digits.  This module builds the canonical digit set, encodes/decodes,
certifies word-length bounds, links digit sets over a shared base, and
recodes words between base b and base b^j.  encode gives up on a cycling
loop after a cap that reads only the value and the base, so a digit set
holds no length constant; length_bound computes m3 once per base.

All geometry is integer-exact: half-open box tests use 2*Re(d*conj(b))
against +-norm(b), and radii enter squared; canonical_digit_set solves
the two box tests for each row of the square instead of testing every
point.  The per-digit loops (the digit map, encode, decode, recode and
the residue table) run on plain int pairs and build a GaussInt only for
a value they return.  A digit set has one position table, positions,
keyed on each digit's (re, im) int pair, which hashes in C where a
GaussInt hashes through a Python-level __hash__: every layer looks a
digit up by its pair, so no per-digit loop, nor the construction of a
digit set, hashes a GaussInt.  m3 encodes
only the points of its disc that are not digits themselves.  A long
value or word (BLOCK_DIGITS digits or more) is encoded and decoded k
digits at a time, with norm(b)^k < 2^60: one big-int step per block
splits off or adds in a block, whose k digits the same loops handle as a
short value or word of ints of at most two machine words, so the cost is
no longer a big-int operation per digit.  No float enters this module:
logarithms are bounded from bit lengths.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import filterfalse, product, repeat, starmap
from math import isqrt
from operator import attrgetter

from .gaussint import ZERO, BudgetExceeded, GaussInt, InvalidInput, exact_div

Word = tuple[GaussInt, ...]
EMPTY_WORD: Word = ()

DIGIT_BUDGET = 10**5  # digits of the largest canonical digit set held in memory
BLOCK_DIGITS = 100  # words of this many digits or more are encoded and decoded in blocks
_BLOCK_STEPS = 2 * BLOCK_DIGITS + 272  # encode's cap for a value of about BLOCK_DIGITS digits
MEMO_SIZE = 64  # digit sets, length bounds and termination verdicts kept by the per-base memos

_RE_IM = attrgetter("re", "im")  # the (re, im) pair of a GaussInt, read in C


class NonTermination(RuntimeError):
    """The greedy digit loop for one value exceeded encode's cap (invalid digit set)."""


class DigitSet(namedtuple("DigitSet", "base digits")):
    """A base together with a complete residue system containing 0: the tuple (base, digits).

    Fields: base (GaussInt) and digits (tuple[GaussInt, ...]), normalized
    to (re, im) lexicographic order.  Construction validates the
    residue-system invariants and keeps, as plain attributes outside the
    tuple, the two lookup tables that every layer reads, both keyed on
    ints: positions (dict[tuple[int, int], int]) maps each digit's (re, im)
    pair to its index in digits and doubles as the member test, and
    _by_residue (dict[tuple[int, int], tuple[GaussInt, int, int]]) maps the
    residue (t.re % N, t.im % N) of t = d*conj(b), N = norm(b), to
    (d, t.re, t.im).  Two values are congruent mod b exactly when their
    residues agree.  A tuple of two ints hashes in C, where a GaussInt
    hashes through a Python-level __hash__, so neither construction nor a
    per-digit loop hashes a GaussInt.  A pair key says nothing of type, so
    a reader that looks up an element's pair also tests that it is a
    GaussInt.  _norm holds N, so that encode reads it once per word.
    Equality and hash read the two fields only.
    """

    def __new__(cls, base: GaussInt, digits: tuple[GaussInt, ...]) -> DigitSet:
        n = base.norm()
        if n < 5:
            raise InvalidInput(f"norm({base}) = {n} < 5")
        digits = tuple(sorted(digits, key=_RE_IM))
        pairs = list(map(_RE_IM, digits))
        positions = dict(zip(pairs, range(len(pairs))))
        if (0, 0) not in positions:
            raise InvalidInput("digit set must contain 0")
        if len(positions) != len(digits):
            raise InvalidInput("duplicate digits")
        if len(digits) != n:
            raise InvalidInput(f"{len(digits)} digits for base {base} of norm {n}")
        p, q = base.re, base.im
        by_residue = {}
        for d, (x, y) in zip(digits, pairs):  # t = d*conj(b) on ints
            t_re, t_im = x * p + y * q, y * p - x * q
            by_residue[t_re % n, t_im % n] = (d, t_re, t_im)
        if len(by_residue) != n:
            raise InvalidInput("digits are not pairwise incongruent mod base")
        self = tuple.__new__(cls, (base, digits))
        self.positions, self._by_residue, self._norm = positions, by_residue, n
        return self

    @classmethod
    def _make(cls, fields: Iterable) -> DigitSet:
        """The digit set of an iterable of the fields, validated; _replace builds through it."""
        return cls(*fields)


def _disc_pairs(r2: int) -> Iterator[tuple[int, int]]:
    """The (re, im) pairs of all z with norm(z) <= r2, in (re, im) order, a row of y at a time."""
    r = isqrt(r2) if r2 >= 0 else -1
    for x in range(-r, r + 1):
        s = isqrt(r2 - x * x)
        yield from zip(repeat(x), range(-s, s + 1))


def lattice_disc(r2: int) -> Iterator[GaussInt]:
    """All z in Z[i] with norm(z) <= r2, r2 given as a squared radius."""
    return starmap(GaussInt, _disc_pairs(r2))


def _in_box(x: int, y: int, b: GaussInt, n: int) -> bool:
    """Whether d = x + y*i is a canonical digit of b, n = norm(b).

    d/b rounds to 0 exactly when -n <= 2*t < n for both parts of t = d*conj(b).
    """
    return -n <= 2 * (x * b.re + y * b.im) < n and -n <= 2 * (y * b.re - x * b.im) < n


class _Box:
    """Both int-keyed tables of the canonical digits of b, one entry computed per lookup.

    `(x, y) in box` is the member test of the pair of d = x + y*i, the
    box inequality of _in_box.  A LargeCanonicalDigitSet's positions is
    the box, and no reader asks it for an index: a DFA's alphabet and a
    ranked word need the listed digits.  box[residue] is the
    residue-table entry: the residue (t.re % N, t.im % N) of
    t = w*conj(b) lifts to the t_d in [-N/2, N/2)^2 congruent to t, and
    the digit is d = t_d*b/N, an exact division because t_d = d*conj(b).
    """

    def __init__(self, b: GaussInt) -> None:
        self.b = b

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return _in_box(*pair, self.b, self.b.norm())

    def __getitem__(self, residue: tuple[int, int]) -> tuple[GaussInt, int, int]:
        bre, bim, n = self.b.re, self.b.im, self.b.norm()
        t_re, t_im = (r if 2 * r < n else r - n for r in residue)
        return GaussInt((t_re * bre - t_im * bim) // n, (t_re * bim + t_im * bre) // n), t_re, t_im


class LargeCanonicalDigitSet(DigitSet):
    """The canonical digit set of a base of norm above DIGIT_BUDGET, never listed.

    It is the tuple (base, None), so it equals the set of the same base
    only.  Its positions and its residue table are one _Box, box
    arithmetic on one pair or residue, so encode, decode, digit_of and
    length_bound work as for any digit set; positions is the member test
    alone, and asking for the digits themselves raises BudgetExceeded.
    The digits argument is ignored, so that cls(*fields) rebuilds one, as
    _replace, copy and pickle do.
    """

    def __new__(cls, base: GaussInt, digits: None = None) -> LargeCanonicalDigitSet:
        self = tuple.__new__(cls, (base, None))
        self.positions = self._by_residue = _Box(base)
        self._norm = base.norm()
        return self

    @property
    def digits(self) -> tuple[GaussInt, ...]:
        b = self.base
        raise BudgetExceeded(
            f"base {b} of norm {b.norm()} has more digits than the digit budget of {DIGIT_BUDGET}"
        )


def _narrow(c: int, low: int, high: int, first: int, last: int) -> tuple[int, int]:
    """Narrow the ints first..last to the y with low <= c*y < high, by floor division.

    A zero c leaves all of them when low <= 0 < high and none otherwise.
    """
    if c > 0:
        return max(first, -(-low // c)), min(last, (high - 1) // c)
    if c < 0:
        return max(first, high // c + 1), min(last, low // c)
    return (first, last) if low <= 0 < high else (1, 0)


@lru_cache(maxsize=MEMO_SIZE)
def canonical_digit_set(b: GaussInt) -> DigitSet:
    """The digits d with Re(d/b) and Im(d/b) in [-1/2, 1/2), all within |re|, |im| <= isqrt(norm(b)).

    The square is walked row by row: for d = x + y*i, the two tests of
    _in_box are linear in y, so each row's digits are one interval of y,
    solved exactly, and the digits come out in (re, im) order.  A base of
    norm above DIGIT_BUDGET gets a LargeCanonicalDigitSet, which does not
    list them.
    """
    n = b.norm()
    if n < 5:
        raise InvalidInput(f"norm({b}) = {n} < 5")
    if n > DIGIT_BUDGET:
        return LargeCanonicalDigitSet(b)
    r = isqrt(n)
    p2, q2 = 2 * b.re, 2 * b.im
    digits: list[GaussInt] = []
    for x in range(-r, r + 1):
        # -n <= 2*Re(d*conj(b)) < n and -n <= 2*Im(d*conj(b)) < n, each solved for y
        first, last = _narrow(q2, -n - x * p2, n - x * p2, -r, r)
        first, last = _narrow(p2, x * q2 - n, x * q2 + n, first, last)
        digits.extend(map(GaussInt, repeat(x), range(first, last + 1)))
    return DigitSet(b, tuple(digits))


def digit_of(z: GaussInt, D: DigitSet) -> GaussInt:
    """The unique d in D with b | (z - d)."""
    b = D.base
    n = b.norm()
    t_re, t_im = z.re * b.re + z.im * b.im, z.im * b.re - z.re * b.im  # t = z*conj(b)
    return D._by_residue[t_re % n, t_im % n][0]


def _block_length(n: int) -> int:
    """The largest k with n^k < 2^60: k digits of a base of norm n fit in one two-digit int."""
    k, power = 0, n
    while power < 1 << 60:
        k, power = k + 1, power * n
    return k


def _blocks(x: int, y: int, D: DigitSet, out: list[GaussInt], max_len: int) -> tuple[int, int]:
    """Append the low digits of w = x + y*i to out, lsd first, a block of k at a time; return the state left.

    k = _block_length(N).  Per block, one big-int pass: the quotient q of w
    by c = b^k, rounded, leaves r = w - q*c small, and as w - r is a
    multiple of c, the loop on w emits the digits the loop on r does for k
    steps and then stands at q + r_k.  The word of r, at most 2k digits,
    gives both: its low k digits, padded with zeros, and r_k, the value of
    the rest.  So the blocks reach exactly the loop's states.  They stop
    once both parts of w have no more bits than N^k, or out would pass
    max_len, or the word of r is longer (a digit set far from 0, or one
    whose loop cycles): the digit loop goes on from the state they leave.
    When the state reaches 0, the last block's padding is stripped, since
    a word from the loop has a nonzero leading digit.
    """
    n = D.base.norm()
    k = _block_length(n)
    c = D.base**k
    c_re, c_im, nk = c.re, c.im, n**k
    half, small = nk >> 1, nk.bit_length()
    while k > 1 and (x.bit_length() > small or y.bit_length() > small) and len(out) + k <= max_len:
        # q = round(w/c) on both parts of w*conj(c)/N^k, and s = r*conj(c)
        q_re, s_re = divmod(x * c_re + y * c_im + half, nk)
        q_im, s_im = divmod(y * c_re - x * c_im + half, nk)
        s_re, s_im = s_re - half, s_im - half
        r = GaussInt((s_re * c_re - s_im * c_im) // nk, (s_re * c_im + s_im * c_re) // nk)  # s*c/N^k
        word = encode_within(r, D, 2 * k)
        if word is None:
            break
        out.extend(word[: -k - 1 : -1])
        if len(word) > k:
            r_k = decode(word[:-k], D)
            q_re, q_im = q_re + r_k.re, q_im + r_k.im
        else:
            out.extend([ZERO] * (k - len(word)))
        x, y = q_re, q_im
    while not (x or y) and not out[-1]:
        out.pop()
    return x, y


def encode_within(z: GaussInt, D: DigitSet, max_len: int) -> Word | None:
    """The word of z if it has at most max_len digits, else None.

    Runs the forced digit loop for at most max_len steps, so the answer is
    exact for any complete residue system, whether or not its loop
    terminates everywhere.  A value of BLOCK_DIGITS digits or more first
    takes its low digits a block at a time (see _blocks), when max_len
    leaves room for more than 2*BLOCK_DIGITS + 272 steps, encode's cap
    for a value of about that many digits: so a call with a short value
    or a small max_len is told apart by one comparison.
    """
    n = D._norm
    b = D.base
    bre, bim = b.re, -b.im  # components of conj(b)
    table = D._by_residue
    out: list[GaussInt] = []
    x, y = z.re, z.im
    if max_len > _BLOCK_STEPS and x.bit_length() + y.bit_length() >= BLOCK_DIGITS * n.bit_length():
        x, y = _blocks(x, y, D, out, max_len)
    # on plain ints: with t = w*conj(b), the next value (w - d)/b is
    # (t - d*conj(b))/N, an exact division
    while x or y:
        if len(out) >= max_len:
            return None
        t_re = x * bre - y * bim
        t_im = x * bim + y * bre
        d, d_re, d_im = table[t_re % n, t_im % n]
        out.append(d)
        x, y = (t_re - d_re) // n, (t_im - d_im) // n
    out.reverse()
    return tuple(out)


def encode(z: GaussInt, D: DigitSet) -> Word:
    """The unique msd-first word for z over D; encode(0) is the empty word.

    Emits digit_of and replaces z by (z - d)/b until 0, a block of digits
    at a time for a long value (see encode_within).  For a collection
    that is not actually a digit set the loop can cycle, so it gives up
    after 2*ceil(log_N(norm(z) + 1)) + 272 steps, N = norm(b), and raises
    NonTermination naming z.  The cap reads only z and the base: a word
    over the canonical digits has at most ceil(log_N(norm(z))) + m3
    digits (see LengthBound), and the slack 272 = 4*64 + 16 covers
    4*m3 + 16 for every m3 up to 64.  The log is bounded from bit lengths:
    value < 2^bits(value) and N >= 2^(bits(N) - 1) give N^k >= value for
    k = ceil(bits(value) / (bits(N) - 1)).
    """
    x, y = z.re, z.im
    cap = 2 * -(-(x * x + y * y + 1).bit_length() // (D._norm.bit_length() - 1)) + 272
    w = encode_within(z, D, cap)
    if w is None:
        raise NonTermination(f"digit loop for {z} over base {D.base} exceeded {cap} iterations")
    return w


def decode(w: Word, D: DigitSet) -> GaussInt:
    """Horner evaluation of an msd-first word; decode of the empty word is 0.

    A word of BLOCK_DIGITS digits or more is decoded k digits at a time,
    k = _block_length(N): recode(w, D, k) folds the blocks, counted from
    the least significant end, on small ints, and the value takes one
    big-int step X*b^k + block per block.  Digits are checked in word
    order either way, by their (re, im) pairs (see _not_a_digit).
    """
    if len(w) >= BLOCK_DIGITS and (k := _block_length(D.base.norm())) > 1:
        c = D.base**k
        x = y = 0
        for block in recode(w, D, k):
            x, y = x * c.re - y * c.im + block.re, x * c.im + y * c.re + block.im
        return GaussInt(x, y)
    index = D.positions
    p, q = D.base.re, D.base.im
    x = y = 0
    try:
        for d in w:
            d_re, d_im = pair = d.re, d.im
            if pair not in index or not isinstance(d, GaussInt):
                raise _not_a_digit(w, D)
            x, y = x * p - y * q + d_re, x * q + y * p + d_im
    except AttributeError:  # an element with no re or im
        raise _not_a_digit(w, D) from None
    return GaussInt(x, y)


def _not_a_digit(w: Word, D: DigitSet) -> InvalidInput:
    """The error for the first element of w, in word order, that is not a digit of D.

    decode and recode test a digit by looking up its (re, im) pair in
    D.positions, which hashes in C, and by its type: the pair key says
    nothing of type, and an element that is no GaussInt, such as a bare
    (re, im) tuple, is no digit either, whatever its re and im.  Once a
    test fails, this walk names the element, as str prints it.
    """
    index = D.positions
    for d in w:
        if not (isinstance(d, GaussInt) and (d.re, d.im) in index):
            return InvalidInput(f"{d} is not a digit of base {D.base}")
    raise AssertionError("no element of the word is refused")


def word_length(z: GaussInt, D: DigitSet) -> int:
    """Word length of z over D; length 0 for z = 0."""
    return len(encode(z, D))


def max_length_in_disc(r2: int, D: DigitSet) -> int:
    """Maximum word length over all z with norm(z) <= r2.

    The disc is walked on int pairs.  A nonzero point that is a digit,
    its pair in D.positions, is its own residue-table entry, so its word
    is that one digit for any digit set: the loop stops after one step.
    Only the other points are encoded, in lattice_disc's order, so a loop
    that cycles raises NonTermination at the same point.  Every nonzero point
    has a word of at least one digit, and the disc holds one once r2 >= 1.
    Over the canonical digits of a base of norm n above 36, every point
    of norm at most 9 is a digit, as 2*|Re(z*conj(b))| <= 6*sqrt(n) < n,
    and none is encoded.
    """
    longest = 1 if r2 >= 1 else 0
    for pair in filterfalse(D.positions.__contains__, _disc_pairs(r2)):
        longest = max(longest, len(encode(GaussInt(*pair), D)))
    return longest


class LengthBound(namedtuple("LengthBound", "base m3")):
    """Certified length bound for a base: m3 = max length over norm(z) <= 9.

    Fields: base (GaussInt), m3 (int), the longest canonical word over the
    disc norm(z) <= 9; length_bound computes it, and no digit set stores
    it.  The predicate norm(z) * norm(b)^m3 <= norm(b)^k guarantees that
    the word of z has length at most k; the underlying real constant
    |b|^(-m3) is never materialized.
    """

    __slots__ = ()

    def within_bound(self, z: GaussInt, k: int) -> bool:
        n = self.base.norm()
        return z.norm() * n**self.m3 <= n**k


@lru_cache(maxsize=MEMO_SIZE)
def length_bound(b: GaussInt) -> LengthBound:
    """The certified LengthBound for the canonical digit set of b, m3 computed once per base."""
    return LengthBound(base=b, m3=max_length_in_disc(9, canonical_digit_set(b)))


def power_digit_set(D: DigitSet, j: int) -> DigitSet:
    """The digit set {d0 + b*d1 + ... + b^(j-1)*d_(j-1)} for base b^j: the length-j word values.

    Raises BudgetExceeded when its norm(b)^j digits are more than DIGIT_BUDGET;
    as norm(b) >= 5, every j past the budget's bit length is.
    """
    if j < 1:
        raise InvalidInput("power exponent must be >= 1")
    if j > DIGIT_BUDGET.bit_length() or D.base.norm() ** j > DIGIT_BUDGET:
        raise BudgetExceeded(f"base ({D.base})^{j} has more digits than the digit budget")
    return DigitSet(D.base**j, tuple(decode(w, D) for w in product(D.digits, repeat=j)))


def recode(w: Word, D: DigitSet, j: int) -> Word:
    """Regroup an msd-first base-b word into a base-b^j word, j digits at a time.

    Horner-folds each block of j digits, counted from the least significant
    end, into one digit of power_digit_set(D, j), and skips leading zero
    digits; the decoded value is unchanged.  One pass on ints: the first
    block starts its count at the number of leading zeros a pad to a
    multiple of j would add, and a digit is checked as decode checks it.
    """
    if j < 1:
        raise InvalidInput("power exponent must be >= 1")
    index = D.positions
    p, q = D.base.re, D.base.im
    out: list[GaussInt] = []
    x = y = 0
    filled = (-len(w)) % j
    try:
        for d in w:
            d_re, d_im = pair = d.re, d.im
            if pair not in index or not isinstance(d, GaussInt):
                raise _not_a_digit(w, D)
            x, y = x * p - y * q + d_re, x * q + y * p + d_im
            filled += 1
            if filled == j:
                if x or y or out:
                    out.append(GaussInt(x, y))
                x = y = filled = 0
    except AttributeError:  # an element with no re or im
        raise _not_a_digit(w, D) from None
    return tuple(out)


@lru_cache(maxsize=MEMO_SIZE)
def terminates_on_disc(D: DigitSet) -> bool:
    """Probe digit-set validity: does encode terminate for all norm(z) <= 400?

    max_length_in_disc encodes every point of that disc that is not a
    digit, in lattice_disc's order; a digit's word is itself.
    """
    try:
        max_length_in_disc(400, D)
    except NonTermination:
        return False
    return True


class LinkCertificate(namedtuple("LinkCertificate", "envelope")):
    """An envelope E (containing 0) witnessing D + E <= D' + b*E; envelope is a tuple[GaussInt, ...]."""

    __slots__ = ()


def _envelope(D: DigitSet, D2: DigitSet) -> tuple[GaussInt, ...]:
    """All e with norm(e) <= (Delta + Delta')^2, Delta = max digit modulus.

    (Delta + Delta')^2 = a2 + b2 + 2*sqrt(a2*b2), and an integer norm is at
    most that exactly when it is at most a2 + b2 + isqrt(4*a2*b2).
    """
    a2 = max(d.norm() for d in D.digits)
    b2 = max(d.norm() for d in D2.digits)
    return tuple(lattice_disc(a2 + b2 + isqrt(4 * a2 * b2)))


def check_linked(D: DigitSet, D2: DigitSet) -> LinkCertificate | None:
    """Certify that D and D2 (same base) are linked, or return None.

    Builds the envelope E of all Gaussian integers within the summed digit
    radii and verifies d + e = d' + b*e' with d' in D2, e' in E for every
    pair, by explicit membership rather than the triangle inequality.
    """
    if D.base != D2.base:
        raise InvalidInput(f"bases differ: {D.base} vs {D2.base}")
    for S in (D, D2):
        if not terminates_on_disc(S):
            raise NonTermination(f"digit set over {S.base} fails the termination probe")
    envelope = _envelope(D, D2)
    members = frozenset(envelope)
    for d in D.digits:
        for e in envelope:
            x = d + e
            if exact_div(x - digit_of(x, D2), D.base) not in members:
                return None
    return LinkCertificate(envelope=envelope)


def real_power_exponent(b: GaussInt) -> int | None:
    """Least j in 1..8 with b^j a positive rational integer, else None.

    A Gaussian integer whose argument is a rational multiple of pi has
    argument a multiple of pi/4, so eight powers decide the question.
    """
    if b.norm() < 5:
        raise InvalidInput(f"norm({b}) = {b.norm()} < 5")
    w = b
    for j in range(1, 9):
        if w.im == 0 and w.re > 0:
            return j
        w = w * b
    return None


def word_to_text(w: Word) -> str:
    """Comma-separated digit literals, msd-first; empty string for the empty word.

    Each distinct digit is formatted once: a word over norm(b) digits has
    at most that many texts, looked up by the int pair, which hashes in C.
    """
    texts: dict = {}
    parts = []
    for d in w:
        key = (d.re, d.im)
        text = texts.get(key)
        if text is None:
            text = texts[key] = str(d)
        parts.append(text)
    return ",".join(parts)


def word_from_text(text: str) -> Word:
    if not text:
        return EMPTY_WORD
    return tuple(GaussInt.parse(part) for part in text.split(","))
