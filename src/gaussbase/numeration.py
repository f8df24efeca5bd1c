"""Digit sets and base-b representations of the Gaussian integers.

A digit set for a base b (norm(b) >= 5, checked by gaussint.norm_at_least
wherever a base enters) is a complete residue system containing 0;
every Gaussian integer then has a unique msd-first word over the
digits.  This module builds the canonical digit set, encodes/decodes,
certifies word-length bounds, links digit sets over a shared base, and
recodes words between base b and base b^j.  encode gives up on a cycling
loop after a cap that reads only the value and the base, so a digit set
holds no length constant; length_bound computes m3 once per base.  The
cap is never below CAP_SLACK steps, so it is formed only for a loop that
reaches that many or a value long enough for blocks, never for the short
words most callers encode.

All geometry is integer-exact: half-open box tests use 2*Re(d*conj(b))
against +-norm(b), and radii enter squared; canonical_digit_set solves
the two box tests for each row of the square instead of testing every
point.  The per-digit loops (the digit map, encode, recode and the
residue table) run on plain ints and build a GaussInt only for a value
they return; recode builds its blocks, and decode its value, with no
component test, through object.__new__ and the two slots, as they are
ints folded from ints.  A digit set has one position table, positions,
keyed on each digit's (re, im) int pair, which hashes in C where a
GaussInt hashes through a Python-level __hash__: every layer looks a
digit up by its pair, so no per-digit loop, nor the construction of a
digit set, hashes a GaussInt; recode, the hottest loop, first asks
whether an element is one of the digit set's own digit objects, by its
id, as the words encode writes are made of them.  One routine,
DigitSet._validated, checks every listed digit set and builds its
tables; canonical_digit_set hands it the pairs of its own row walk,
already in order, so the canonical digits are neither sorted nor read
back.  The residue table is keyed by one int, so an encode step builds
and hashes no tuple at all.  A digit set also keeps the
constants of its two loops in two tuples, which digit_of, encode,
decode and recode each read in one step, since on the short words that
most callers pass the per-call set-up costs as much as the digits.  m3
encodes only the points of its disc that are not digits themselves, and
above norm 36 it is 1 with no walk: every nonzero point of norm at most
9 is then a canonical digit, as 2*|Re(z*conj(b))| <= 6*sqrt(N) < N, so
length_bound reads m3 off the base's norm.  within_bound decides
norm(z)*N^m3 <= N^k on the parts of z and b, in ints.  A disc walk whose
disc holds more than SCAN_BUDGET points is refused before it starts.  A long
value or word (BLOCK_DIGITS digits or more) is encoded and decoded k
digits at a time, with norm(b)^k < 2^60: one big-int step per block
splits off or adds in a block.  Encode runs the digit loop's own k steps
on the block's remainder, and recode folds each block for decode, both
on ints of at most two machine words, so the cost is no longer a big-int
operation per digit.  decode has no digit loop: a shorter word is one
block of recode, and recode folds a word of at most j digits as one
block, with the same digit check and no block count or list.  An
exponent j of recode or power_digit_set, and a LengthBound's m3, are
counts, checked by gaussint.int_at_least.
No float enters this module: logarithms are bounded from bit lengths.
"""

from __future__ import annotations

from itertools import filterfalse, product, repeat, starmap
from math import isqrt

try:  # operator's C attrgetter, without the Python layer of operator
    from _operator import attrgetter
except ImportError:
    from operator import attrgetter

from ._records import cached_property, memo, record
from .gaussint import (
    LEAST_BASE_NORM, ZERO, BudgetExceeded, GaussInt, InvalidInput, NonTermination, exact_div, int_at_least,
    norm_at_least
)

Word = tuple[GaussInt, ...]
EMPTY_WORD: Word = ()

DIGIT_BUDGET = 10**5  # digits of the largest canonical digit set held in memory
BLOCK_DIGITS = 100  # words of this many digits or more are encoded and decoded in blocks
CAP_SLACK = 272  # encode's cap is 2*ceil(log_N(norm(z) + 1)) + CAP_SLACK steps, so never below it
_BLOCK_STEPS = 2 * BLOCK_DIGITS + CAP_SLACK  # encode's cap for a value of about BLOCK_DIGITS digits
MEMO_SIZE = 64  # digit sets, length bounds and termination verdicts kept by the per-base memos
# points of a disc max_length_in_disc walks, and scan-bases' bases x (probe points + digit-set candidates)
SCAN_BUDGET = 10**6

_RE_IM = attrgetter("re", "im")  # the (re, im) pair of a GaussInt, read in C
_new = GaussInt.__new__  # object.__new__: a GaussInt built with no __init__, so with no component test


class DigitSet(record("DigitSet", "base digits")):
    """A base together with a complete residue system containing 0: the tuple (base, digits).

    Fields: base (GaussInt) and digits (tuple[GaussInt, ...]), normalized
    to (re, im) lexicographic order.  Construction validates the
    residue-system invariants and keeps, as plain attributes outside the
    tuple, the two lookup tables that every layer reads, both keyed on
    ints: positions (dict[tuple[int, int], int]) maps each digit's (re, im)
    pair to its index in digits and doubles as the member test, and the
    residue table (dict[int, tuple[GaussInt, int, int]]) maps the residue
    key t.re % N * N + t.im % N of t = d*conj(b), N = norm(b), to
    (d, t.re, t.im).  Two values are congruent mod b exactly when their
    keys agree.  An int or a tuple of two ints hashes in C, where a
    GaussInt hashes through a Python-level __hash__, so neither
    construction nor a per-digit loop hashes a GaussInt.  A pair key says
    nothing of type, so a reader that looks up an element's pair also
    tests that it is a GaussInt.  The constants of its two loops sit in
    two tuples, each read in one step per call: _loop is the digit loop's
    (N, Re conj(b), Im conj(b), residue table, N.bit_length() - 1,
    BLOCK_DIGITS * N.bit_length()), the last two encode's cap divisor and
    the bit count from which a value takes the block path, and _fold is
    the Horner fold's (positions, b.re, b.im).  _own is the frozenset of
    the ids of the digit objects themselves, those the residue table hands
    encode, formed on recode's first read, so a digit set over which no
    word is read, such as a Dfa's alphabet, never forms it; it is empty
    for a LargeCanonicalDigitSet, whose digits are built per lookup, and
    sits outside _fold, so equal digit sets of different objects have
    equal _fold.  The zero digit is gaussint's shared ZERO, so a word
    padded or pumped with ZERO is made of own digits too.  recode takes
    an element whose id is in _own as a digit with no further test.  That
    is sound as the digit set holds its digits, so no other live object
    has one of their ids, and as a GaussInt is immutable by convention,
    which positions assumes too.  Equality and hash read the two fields
    only, and every copy, pickle or _replace builds through the
    constructor (__reduce__ hands copy and pickle cls(*fields), with no
    state), so the tables, the tuples and _own always follow the fields
    and the digit objects of the set that holds them.
    """

    def __new__(cls, base: GaussInt, digits: tuple[GaussInt, ...]) -> DigitSet:
        return cls._validated(base, norm_at_least(base, LEAST_BASE_NORM, "base"), tuple(digits))

    @classmethod
    def _validated(cls, base: GaussInt, n: int, digits: tuple, pairs: list | None = None) -> DigitSet:
        """The digit set of base, n = norm(base), over the tuple digits, or InvalidInput.

        The one routine that checks a listed digit set: each digit is a
        GaussInt, 0 is one, none repeats, there are n of them, and no two
        are congruent mod base; it builds both tables on the way, with
        gaussint's ZERO as the zero digit.  Given
        pairs, the digits come in (re, im) order with those (re, im) int
        pairs, as canonical_digit_set's row walk makes them; without, the
        digits are sorted and their pairs read here.
        """
        if not {*map(type, digits)} <= {GaussInt}:
            bad = next(d for d in digits if type(d) is not GaussInt)
            raise InvalidInput("digit %r is not a GaussInt", bad)
        if pairs is None:
            digits = tuple(sorted(digits, key=_RE_IM))
            pairs = list(map(_RE_IM, digits))
        positions = dict(zip(pairs, range(len(pairs))))
        if (0, 0) not in positions:
            raise InvalidInput("digit set must contain 0")
        if len(positions) != len(digits):
            raise InvalidInput("duplicate digits")
        if len(digits) != n:
            raise InvalidInput("%d digits for base %s of norm %d", len(digits), base, n)
        if digits[at := positions[0, 0]] is not ZERO:  # the shared ZERO is the zero digit (see the class)
            digits = (*digits[:at], ZERO, *digits[at + 1 :])
        p, q = base.re, base.im
        by_residue = {}
        for d, (x, y) in zip(digits, pairs):  # t = d*conj(b) on ints
            t_re, t_im = x * p + y * q, y * p - x * q
            by_residue[t_re % n * n + t_im % n] = (d, t_re, t_im)
        if len(by_residue) != n:
            raise InvalidInput("digits are not pairwise incongruent mod base")
        self = tuple.__new__(cls, (base, digits))
        self._keep(positions, by_residue, n)
        return self

    def _keep(self, positions: dict | _Box, table: dict | _Box, n: int) -> None:
        """Keep the two tables, and the constants of the digit loop and of the Horner fold."""
        p, q = self.base.re, self.base.im
        self.positions = positions
        bits = n.bit_length()
        self._loop, self._fold = (n, p, -q, table, bits - 1, BLOCK_DIGITS * bits), (positions, p, q)

    @cached_property
    def _own(self) -> frozenset[int]:
        """The ids of the digit objects, formed on recode's first read (see the class)."""
        return frozenset(map(id, self.digits))

    def __reduce__(self) -> tuple[type, tuple]:
        """Copy and pickle as cls(*fields), so a clone forms its own tables and _own and carries none over."""
        return type(self), tuple(self)


def _disc_pairs(r2: int) -> Iterator[tuple[int, int]]:
    """The (re, im) pairs of all z with norm(z) <= r2, in (re, im) order, a row of y at a time."""
    r = isqrt(r2) if r2 >= 0 else -1
    for x in range(-r, r + 1):
        s = isqrt(r2 - x * x)
        yield from zip(repeat(x), range(-s, s + 1))


def lattice_disc(r2: int) -> Iterator[GaussInt]:
    """All z in Z[i] with norm(z) <= r2, r2 given as a squared radius."""
    return starmap(GaussInt, _disc_pairs(r2))


def inscribed_square(r2: int) -> int:
    """The points of the square |re|, |im| <= isqrt(r2 // 2) inside the disc norm(z) <= r2.

    A lower bound on the disc's point count, formed without walking it:
    x^2 + y^2 <= 2*(r2 // 2) <= r2 on the square.
    """
    return (2 * isqrt(r2 // 2) + 1) ** 2 if r2 >= 0 else 0


class _Box:
    """Both int-keyed tables of the canonical digits of b, one entry computed per lookup.

    `(x, y) in box` is the member test of the pair of d = x + y*i, the
    box inequality: d/b rounds to 0 exactly when -N <= 2*t < N for both
    parts of t = d*conj(b), N = norm(b); a pair whose parts are not
    both ints is no member.  box[key] is the residue-table entry: the
    one-int key t.re % N * N + t.im % N of t = w*conj(b) splits by
    divmod(key, N) into the residue pair, which lifts to the t_d in
    [-N/2, N/2)^2 congruent to t, and the digit is d = t_d*b/N, an exact
    division because t_d = d*conj(b).  N is computed once, with the box.
    """

    def __init__(self, b: GaussInt) -> None:
        self.b, self.n = b, norm_at_least(b, LEAST_BASE_NORM, "base")

    def __contains__(self, pair: tuple[int, int]) -> bool:
        (x, y), bre, bim, n = pair, self.b.re, self.b.im, self.n
        if not (isinstance(x, int) and isinstance(y, int)):  # tested first: b.re * [1] is a list, or an OverflowError
            return False
        return -n <= 2 * (x * bre + y * bim) < n and -n <= 2 * (y * bre - x * bim) < n

    def __getitem__(self, key: int) -> tuple[GaussInt, int, int]:
        bre, bim, n = self.b.re, self.b.im, self.n
        t_re, t_im = (r if 2 * r < n else r - n for r in divmod(key, n))
        return GaussInt((t_re * bre - t_im * bim) // n, (t_re * bim + t_im * bre) // n), t_re, t_im


class _BoxPositions(_Box):
    """A LargeCanonicalDigitSet's positions: the box's member test, and no digit's index.

    No reader needs the index of an unlisted digit: a DFA's alphabet and a
    ranked word need the listed digits, so the lookup raises
    BudgetExceeded, as asking for the digits themselves does.
    """

    def __getitem__(self, pair: tuple[int, int]) -> int:
        raise _past_digit_budget(self.b)


def _past_digit_budget(b: GaussInt) -> BudgetExceeded:
    """The refusal of the digits of a base of norm above DIGIT_BUDGET, or of a digit's index among them."""
    return BudgetExceeded("base %s of norm %d has more digits than the digit budget of %d", b, b.norm(), DIGIT_BUDGET)


class LargeCanonicalDigitSet(DigitSet):
    """The canonical digit set of a base of norm above DIGIT_BUDGET, never listed.

    It is the tuple (base, None), so it equals the set of the same base
    only.  Its positions and its residue table are box arithmetic on one
    pair or residue key (_BoxPositions and _Box), so encode, decode,
    recode, digit_of and length_bound work as for any digit set;
    positions is the member test alone, and asking for the digits
    themselves, or for a digit's index in positions, raises
    BudgetExceeded.  Its _loop and _fold hold the box where a listed set
    holds its tables, and the N the box computed.  The digits argument is ignored,
    so that cls(*fields) rebuilds one, as _replace, copy and pickle do.
    """

    _own = frozenset()  # its digits are built per lookup, so none is its own

    def __new__(cls, base: GaussInt, digits: None = None) -> LargeCanonicalDigitSet:
        self = tuple.__new__(cls, (base, None))
        box = _Box(base)
        self._keep(_BoxPositions(base), box, box.n)
        return self

    @property
    def digits(self) -> tuple[GaussInt, ...]:
        raise _past_digit_budget(self.base)


def _narrow(c: int, low: int, high: int, first: int, last: int) -> tuple[int, int]:
    """Narrow the ints first..last to the y with low <= c*y < high, by floor division.

    A zero c leaves all of them when low <= 0 < high and none otherwise.
    """
    if c > 0:
        return max(first, -(-low // c)), min(last, (high - 1) // c)
    if c < 0:
        return max(first, high // c + 1), min(last, low // c)
    return (first, last) if low <= 0 < high else (1, 0)


@memo(MEMO_SIZE)
def canonical_digit_set(b: GaussInt) -> DigitSet:
    """The digits d with Re(d/b) and Im(d/b) in [-1/2, 1/2), all within |re|, |im| <= isqrt(norm(b)).

    The square is walked row by row: for d = x + y*i, the two box tests
    (see _Box) are linear in y, so each row's digits are one interval of
    y, solved exactly, and the digits come out in (re, im) order.  The walk
    keeps their (re, im) int pairs, from which DigitSet._validated builds
    the position and residue tables after its checks, with no sort and no
    second read of the digits.  A base of norm above DIGIT_BUDGET gets a
    LargeCanonicalDigitSet, which does not list them.
    """
    n = norm_at_least(b, LEAST_BASE_NORM, "base")
    if n > DIGIT_BUDGET:
        return LargeCanonicalDigitSet(b)
    r = isqrt(n)
    p2, q2 = 2 * b.re, 2 * b.im
    pairs: list[tuple[int, int]] = []
    for x in range(-r, r + 1):
        # -n <= 2*Re(d*conj(b)) < n and -n <= 2*Im(d*conj(b)) < n, each solved for y
        first, last = _narrow(q2, -n - x * p2, n - x * p2, -r, r)
        first, last = _narrow(p2, x * q2 - n, x * q2 + n, first, last)
        pairs.extend(zip(repeat(x), range(first, last + 1)))
    return DigitSet._validated(b, n, tuple(starmap(GaussInt, pairs)), pairs)


def digit_of(z: GaussInt, D: DigitSet) -> GaussInt:
    """The unique d in D with b | (z - d)."""
    n, bre, bim, table, _, _ = D._loop  # bre + bim*i is conj(b)
    x, y = z.re, z.im
    t_re, t_im = x * bre - y * bim, x * bim + y * bre  # t = z*conj(b)
    return table[t_re % n * n + t_im % n][0]


def _block_length(n: int) -> int:
    """The largest k with n^k < 2^60: k digits of a base of norm n fit in one two-digit int."""
    k, power = 0, n
    while power < 1 << 60:
        k, power = k + 1, power * n
    return k


def encode_within(z: GaussInt, D: DigitSet, max_len: int | None = None) -> Word | None:
    """The word of z if it has at most max_len digits, else None; max_len None stands for encode's cap.

    Runs the forced digit loop for at most max_len steps, so the answer is
    exact for any complete residue system, whether or not its loop
    terminates everywhere.  encode's cap is never below CAP_SLACK, so
    without a max_len it is formed only when the loop reaches CAP_SLACK
    steps or the value takes the block path: a short word costs no cap.
    A value of BLOCK_DIGITS digits or more first runs the loop a block of
    k = _block_length(N) steps at a time, when max_len leaves room for
    more than 2*BLOCK_DIGITS + CAP_SLACK steps, encode's cap for a value
    of about that many digits, as encode's cap for such a value always
    does: so a call with a short value or a small max_len is told apart
    by one comparison.  A block takes one big-int pass, w = q*c + r with
    c = b^k and q the rounded quotient, so r is small.  As w - r is a
    multiple of b^k, the loop's first k digits of w are its first k
    digits of r, and its state on w after them is its state on r plus q:
    so a block runs the loop's step k times on r, zeros included where
    r's word is shorter, and adds q.  Blocks stop once both parts of w
    have no more bits than N^k, or out would pass max_len, and the loop
    goes on from the state they leave.  A block in which the state
    reaches 0 leaves zeros past the leading digit, which are stripped.
    A max_len that is neither None nor an int is refused by int_at_least;
    every int is taken, and a negative one leaves no room for a digit.
    """
    if max_len is not None and type(max_len) is not int:  # every int is a length: only the type can fail
        int_at_least(max_len, 0, "max_len")
    n, bre, bim, table, _, long_bits = D._loop  # bre + bim*i is conj(b)
    out: list[GaussInt] = []
    x, y = z.re, z.im
    if (max_len is None or max_len > _BLOCK_STEPS) and x.bit_length() + y.bit_length() >= long_bits:
        if max_len is None:  # at least 2*101 + CAP_SLACK: norm(z) has 100*bits(N) - 1 bits or more
            max_len = _encode_cap(z, D)
        k = _block_length(n)
        c = D.base**k
        c_re, c_im, nk = c.re, c.im, n**k
        half, small = nk >> 1, nk.bit_length()
        while k > 1 and (x.bit_length() > small or y.bit_length() > small) and len(out) + k <= max_len:
            # q = round(w/c) on both parts of w*conj(c)/N^k, s = r*conj(c), and r = s*c/N^k
            q_re, s_re = divmod(x * c_re + y * c_im + half, nk)
            q_im, s_im = divmod(y * c_re - x * c_im + half, nk)
            s_re, s_im = s_re - half, s_im - half
            x, y = (s_re * c_re - s_im * c_im) // nk, (s_re * c_im + s_im * c_re) // nk
            for _ in range(k):  # the digit loop's step, as below
                t_re = x * bre - y * bim
                t_im = x * bim + y * bre
                d, d_re, d_im = table[t_re % n * n + t_im % n]
                out.append(d)
                x, y = (t_re - d_re) // n, (t_im - d_im) // n
            x, y = x + q_re, y + q_im
        while not (x or y) and not out[-1]:
            out.pop()
    # on plain ints: with t = w*conj(b), the next value (w - d)/b is
    # (t - d*conj(b))/N, an exact division
    limit = CAP_SLACK if max_len is None else max_len
    while x or y:
        if len(out) >= limit:
            if max_len is None:  # encode's cap, formed when the loop first reaches its least value
                limit = max_len = _encode_cap(z, D)
            if len(out) >= limit:
                return None
        t_re = x * bre - y * bim
        t_im = x * bim + y * bre
        d, d_re, d_im = table[t_re % n * n + t_im % n]
        out.append(d)
        x, y = (t_re - d_re) // n, (t_im - d_im) // n
    out.reverse()
    return tuple(out)


def _encode_cap(z: GaussInt, D: DigitSet) -> int:
    """encode's cap on the steps of the digit loop for z over D (see encode)."""
    x, y = z.re, z.im
    return 2 * -(-(x * x + y * y + 1).bit_length() // D._loop[4]) + CAP_SLACK


def encode(z: GaussInt, D: DigitSet) -> Word:
    """The unique msd-first word for z over D; encode(0) is the empty word.

    Emits digit_of and replaces z by (z - d)/b until 0, a block of digits
    at a time for a long value (see encode_within).  For a collection
    that is not actually a digit set the loop can cycle, so it gives up
    after 2*ceil(log_N(norm(z) + 1)) + 272 steps, N = norm(b), and raises
    NonTermination naming z.  The cap reads only z and the base: a word
    over the canonical digits has at most ceil(log_N(norm(z))) + m3
    digits (see LengthBound), and the slack CAP_SLACK = 272 = 4*64 + 16
    covers 4*m3 + 16 for every m3 up to 64.  The log is bounded from bit
    lengths: value < 2^bits(value) and N >= 2^(bits(N) - 1) give
    N^k >= value for k = ceil(bits(value) / (bits(N) - 1)).  As the cap
    is never below CAP_SLACK, encode_within forms it only for a loop that
    reaches that many steps or a value long enough for blocks.
    """
    w = encode_within(z, D)
    if w is None:
        raise NonTermination("digit loop for %s over base %s exceeded %d iterations", z, D.base, _encode_cap(z, D))
    return w


def decode(w: Word, D: DigitSet) -> GaussInt:
    """Horner evaluation of an msd-first word; decode of the empty word is 0.

    recode checks each digit, in word order, and takes every Horner step.
    A word of fewer than BLOCK_DIGITS digits, or over a base with
    k = _block_length(N) below 2, is one block, its value recode's one
    digit (none for 0).  Any other word is folded k digits at a time: one
    big-int step X*b^k + block per block of recode(w, D, k), and the
    value, ints folded from ints, is built with no component test.
    """
    if len(w) < BLOCK_DIGITS or (k := _block_length(D._loop[0])) < 2:
        return (recode(w, D, len(w) or 1) or (ZERO,))[0]
    c = D.base**k
    x = y = 0
    for block in recode(w, D, k):
        x, y = x * c.re - y * c.im + block.re, x * c.im + y * c.re + block.im
    z = _new(GaussInt)
    z.re, z.im = x, y
    return z


def _not_a_digit(w: Word, D: DigitSet) -> InvalidInput:
    """The error for the first element of w, in word order, that is not a digit of D.

    recode takes one of D's own digit objects by its id, and tests any other
    element, for decode too, by looking up its (re, im) pair in
    D.positions, which hashes in C, and by its type: the pair key says
    nothing of type, and an element that is no GaussInt, such as a bare
    (re, im) tuple, is no digit either, whatever its re and im.  Once a
    test fails, or raises AttributeError or TypeError on an element with
    no re or im or with parts that do not hash or multiply, this walk
    names the element, as str prints it; it tests isinstance first, so it
    never looks such an element up.
    """
    index = D.positions
    for d in w:
        if not (isinstance(d, GaussInt) and (d.re, d.im) in index):
            return InvalidInput("%s is not a digit of base %s", d, D.base)
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
    and none is encoded.  A disc whose inscribed square alone holds more
    than SCAN_BUDGET points raises BudgetExceeded before the walk.  An r2
    that is no int is refused by int_at_least; a negative r2 is an empty
    disc.
    """
    if type(r2) is not int:  # every int is a squared radius: only the type can fail
        int_at_least(r2, 0, "r2")
    if inscribed_square(r2) > SCAN_BUDGET:
        raise BudgetExceeded("the disc norm(z) <= %d holds more than the scan budget of %d points", r2, SCAN_BUDGET)
    longest = 1 if r2 >= 1 else 0
    for pair in filterfalse(D.positions.__contains__, _disc_pairs(r2)):
        longest = max(longest, len(encode(GaussInt(*pair), D)))
    return longest


class LengthBound(record("LengthBound", "base m3")):
    """Certified length bound for a base: m3 = max length over norm(z) <= 9.

    Fields: base (GaussInt), m3 (int), the longest canonical word over the
    disc norm(z) <= 9; length_bound computes it, and no digit set stores
    it.  The predicate norm(z) * norm(b)^m3 <= norm(b)^k guarantees that
    the word of z has length at most k; the underlying real constant
    |b|^(-m3) is never materialized.  within_bound decides it in ints for
    every k with at most one power, both norms formed from the parts:
    norm(z) <= norm(b)^(k - m3) when k >= m3, and z = 0 otherwise, as
    norm(b)^(k - m3) < 1 then for norm(b) >= 5; a negative k forms no
    float, so a huge base cannot overflow.  An e = k - m3 above 64 and
    past the bit length of norm(z) answers True with no power, as
    norm(b)^e > 2^e > norm(z) for norm(b) >= 5, so a huge k costs no more
    than a small one.  Every int is a k, and one that is no int is refused
    by int_at_least.  Construction refuses a base that is no GaussInt, or
    of norm below 5, as DigitSet does, and an m3 that is no int or
    negative; _replace, copy and pickle build through the constructor.
    """

    __slots__ = ()

    def __new__(cls, base: GaussInt, m3: int) -> LengthBound:
        norm_at_least(base, LEAST_BASE_NORM, "base")
        return tuple.__new__(cls, (base, int_at_least(m3, 0, "m3")))

    def within_bound(self, z: GaussInt, k: int) -> bool:
        if type(k) is not int:  # every int is a length: only the type can fail
            int_at_least(k, 0, "k")
        b, m3 = self  # one unpack, cheaper than two field reads on this hot call
        e, x, y = k - m3, z.re, z.im
        if e < 0:
            return not (x or y)
        p, q, n = b.re, b.im, x * x + y * y
        if e > 64 and e > n.bit_length():  # a power of at most 64 factors costs less than this test
            return True
        return n <= (p * p + q * q) ** e


@memo(MEMO_SIZE)
def length_bound(b: GaussInt) -> LengthBound:
    """The certified LengthBound for the canonical digit set of b, m3 computed once per base.

    Above norm 36 every nonzero point of the disc norm(z) <= 9 is a
    canonical digit (see max_length_in_disc), so m3 = 1 with no walk;
    the norm is read off the base, so a base past DIGIT_BUDGET lists no
    digit.  Below that the disc is walked.
    """
    n = norm_at_least(b, LEAST_BASE_NORM, "base")
    return LengthBound(base=b, m3=1 if n > 36 else max_length_in_disc(9, canonical_digit_set(b)))


def power_digit_set(D: DigitSet, j: int) -> DigitSet:
    """The digit set {d0 + b*d1 + ... + b^(j-1)*d_(j-1)} for base b^j: the length-j word values.

    Raises BudgetExceeded when its norm(b)^j digits are more than DIGIT_BUDGET;
    as norm(b) >= 5, every j past the budget's bit length is.
    """
    int_at_least(j, 1, "power exponent")
    if j > DIGIT_BUDGET.bit_length() or D.base.norm() ** j > DIGIT_BUDGET:
        raise BudgetExceeded("base (%s)^%s has more digits than the digit budget", D.base, j)
    return DigitSet(D.base**j, tuple(decode(w, D) for w in product(D.digits, repeat=j)))


def recode(w: Word, D: DigitSet, j: int) -> Word:
    """Regroup an msd-first base-b word into a base-b^j word, j digits at a time.

    Horner-folds each block of j digits, counted from the least significant
    end, into one digit of power_digit_set(D, j), and skips leading zero
    digits; the decoded value is unchanged.  One pass on ints: the first
    block starts its count at the number of leading zeros a pad to a
    multiple of j would add, and digits are checked in word order (see
    _not_a_digit), for decode too: an element whose id is in D._own is
    one of D's digit objects, as encode's words are made of, and passes
    with no further test, and any other passes on its (re, im) pair and
    its type, so a refusal and its text are as without the identity test.
    Each block is built with no component test, as its parts are ints
    folded from a digit set's int parts.  A word of at most j digits, as
    decode passes, is one block: the same check and fold, with no count
    and no list of blocks.  A j that is no int, or below 1, is refused by
    int_at_least; the test is inline, as recode is the hot caller.
    """
    if type(j) is not int or j < 1:
        int_at_least(j, 1, "power exponent")
    index, p, q = D._fold
    own = D._own
    x = y = 0
    try:
        if len(w) <= j:  # one block, as decode passes
            for d in w:
                if id(d) not in own and ((d.re, d.im) not in index or not isinstance(d, GaussInt)):
                    raise _not_a_digit(w, D)
                x, y = x * p - y * q + d.re, x * q + y * p + d.im
            if not (x or y):
                return ()
            z = _new(GaussInt)
            z.re, z.im = x, y
            return (z,)
        out: list[GaussInt] = []
        filled = (-len(w)) % j
        for d in w:
            if id(d) not in own and ((d.re, d.im) not in index or not isinstance(d, GaussInt)):
                raise _not_a_digit(w, D)
            x, y = x * p - y * q + d.re, x * q + y * p + d.im
            filled += 1
            if filled == j:
                if x or y or out:
                    z = _new(GaussInt)
                    z.re, z.im = x, y
                    out.append(z)
                x = y = filled = 0
    except (AttributeError, TypeError):  # an element with no re or im, or parts no lookup takes
        raise _not_a_digit(w, D) from None
    return tuple(out)


@memo(MEMO_SIZE)
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


class LinkCertificate(record("LinkCertificate", "envelope")):
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
        raise InvalidInput("bases differ: %s vs %s", D.base, D2.base)
    for S in (D, D2):
        if not terminates_on_disc(S):
            raise NonTermination("digit set over %s fails the termination probe", S.base)
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
    argument a multiple of pi/4, so eight powers decide the question.  A
    base that is no GaussInt, or of norm below 5, raises InvalidInput naming it.
    """
    norm_at_least(b, LEAST_BASE_NORM, "base")
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
