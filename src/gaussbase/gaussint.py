"""Exact arithmetic on Gaussian integers.

Everything here stays inside Z[i]: components are arbitrary-precision
Python ints, checked when a value is built; absolute values are never
materialized (use norm(z) = |z|^2), and division is either exact or an
error.  Beyond ring arithmetic it offers divisibility, exact division and
power membership, and it defines the errors every layer raises for bad
input, refused work and a digit loop that does not end.

The paper's hypotheses, and the counts that size its finite harnesses,
are checked here once.  norm_at_least is the one routine that refuses a
base (norm at least LEAST_BASE_NORM, 5, as the paper asks |a|, |b| >=
sqrt(5)), a generator (norm at least 2) or a target (nonzero) that is no
GaussInt or too small; int_at_least is the one routine that refuses a
count (a depth, a length, an exponent, a bound's part or a budget) that
is no int, a bool included, or below its least value.  Each names its
role in both refusals, for every layer: `base (2, 1) is not a GaussInt`,
`base norm(2) = 4 < 5`, `k 1.5 is not an int`, `k = 0 < 1`.  Per-value
arguments, such as the value encode writes, the operands of divides or
the k of within_bound, carry no such rule.

Each side of the int-to-str digit limit (sys.get_int_max_str_digits())
is stated here once.  Reading: every integer the package reads from
text, a Gaussian literal's part, a CLI count or bound, a DFA file's int,
goes through numerals, which checks the shape of every part with
is_numeral, str methods rather than a regular expression (so importing
the package never loads `re`), before it converts any, so a malformed
text is refused as one whatever its length.  Writing: InvalidInput,
BudgetExceeded and NonTermination keep a message's template and values
apart, as their args, and format args[0] % args[1:] each time the
message is read, so raising one never converts an int to text: a value
past the limit is rendered where the message is read, as the CLI reads
it under its report's limit through formatted.  Reading one never
raises: str() under a limit that a value is past gives the template and
a note of the limit.
"""

from __future__ import annotations

import sys

LEAST_BASE_NORM = 5  # the paper's |b| >= sqrt(5): every base's norm is at least this


class NotDivisible(ArithmeticError):
    """Exact division requested but the divisor does not divide."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero Gaussian integer."""


class _Error(Exception):
    """The base of InvalidInput, BudgetExceeded and NonTermination: their message is formatted when read."""

    def __str__(self) -> str:
        """formatted(self); past the int-to-str digit limit, the template and a note, and no value as text."""
        try:
            return formatted(self)
        except ValueError:
            return f"{self.args[0]} (a value is past the interpreter's int-to-str digit limit)"


def formatted(error: BaseException) -> str:
    """The message of error, formatted now under the int-to-str digit limit in force, so a value past it raises.

    A package error's message is args[0] % args[1:], and a message without
    values is as it is: it may quote text with a % of its own, such as the
    CLI's usage errors.  Any other error's message is str(error).
    """
    if not isinstance(error, _Error):
        return str(error)
    return error.args[0] % error.args[1:] if len(error.args) > 1 else Exception.__str__(error)


class InvalidInput(_Error, ValueError):
    """An argument is malformed or outside the domain of the operation given it."""


class BudgetExceeded(_Error, RuntimeError):
    """Requested work exceeds a fixed budget such as ENUMERATION_BUDGET."""


class NonTermination(_Error, RuntimeError):
    """The greedy digit loop for one value exceeded encode's cap (invalid digit set)."""


def is_numeral(text: str) -> bool:
    """Whether text is a decimal numeral, ASCII [+-]?[0-9]+: int() accepts more (spaces, "_", non-ASCII digits)."""
    return text.isascii() and (text.isdigit() or text[1:].isdigit() and text[0] in "+-")


def numerals(parts: tuple[str, ...], literal: str | None = None) -> list[int] | None:
    """The ints of parts when every part is a numeral, and None when any is not.

    Every shape is checked before any part is converted, and int() then
    fails only past the interpreter's digit limit: the first part past it
    raises InvalidInput naming the limit, where int() would advise raising
    it, and naming the part as an integer literal or, given the Gaussian
    literal the parts were cut from, that literal.  The parts are few, so
    a loop calls int() on each: map(int, ...) costs more per part.
    """
    for part in parts:
        if not is_numeral(part):
            return None
    values = []
    try:
        for part in parts:
            values.append(int(part))
    except ValueError:
        name = "an integer literal" if literal is None else "a Gaussian integer literal with a part"
        limit = sys.get_int_max_str_digits()
        raise InvalidInput("%s past %d digits, the interpreter's limit: %r", name, limit, literal or part) from None
    return values


def numeral(text: str) -> int | None:
    """The int of a numeral, and None for any other text; one past the digit limit raises (see numerals)."""
    value = numerals((text,))
    return None if value is None else value[0]


class GaussInt:
    """A Gaussian integer re + im*i.

    Both components are ints, not bools, checked at construction, so every
    operation stays exact.  Values are immutable by convention and
    hashable.  The operators take only GaussInt operands, and a GaussInt
    equals only a GaussInt: GaussInt(3) != 3.
    """

    __slots__ = ("re", "im")

    re: int
    im: int

    def __init__(self, re: int = 0, im: int = 0) -> None:
        if not (type(re) is int and type(im) is int):
            name, part = ("imaginary", im) if type(re) is int else ("real", re)
            raise InvalidInput("%s component %r of GaussInt(%r, %r) is not an integer", name, part, re, im)
        self.re = re
        self.im = im

    @classmethod
    def parse(cls, text: str) -> "GaussInt":
        """Parse the literal grammar `a`, `a+bi`, `a-bi` (e.g. `5`, `-1+2i`, `0-1i`).

        Each part is a numeral, `[+-]?[0-9]+` in ASCII digits, and nothing
        else is allowed: no whitespace, underscores or trailing newline.  A
        malformed literal is refused as one whatever its length; a
        well-formed one with a part past the interpreter's int-to-str digit
        limit raises numerals' InvalidInput naming the limit and the literal.
        """
        if not isinstance(text, str):
            # re's wording, kept so the JSON loaders' report of a mistyped field reads as it did;
            # unlike re, bytes are refused too
            raise TypeError(f"expected string or bytes-like object, got {type(text).__name__!r}")
        real, imag = text, "+0"
        if text.endswith("i"):
            # the imaginary part starts at the one sign past the first character; with none,
            # imag is empty, and any other sign fails is_numeral
            cut = text.find("+", 1)
            if cut < 0:
                cut = text.find("-", 1)
            real, imag = text[:cut], text[cut:-1]
        parts = numerals((real, imag), text)
        if parts is None:
            raise InvalidInput("not a Gaussian integer literal: %r", text)
        return cls(*parts)

    def norm(self) -> int:
        """|z|^2 = re^2 + im^2, always a nonnegative int."""
        return self.re * self.re + self.im * self.im

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    # A non-GaussInt operand has no .re: returning NotImplemented makes Python raise TypeError.
    def __add__(self, other: "GaussInt") -> "GaussInt":
        try:
            return GaussInt(self.re + other.re, self.im + other.im)
        except AttributeError:
            return NotImplemented

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        try:
            return GaussInt(self.re - other.re, self.im - other.im)
        except AttributeError:
            return NotImplemented

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        try:
            return GaussInt(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        except AttributeError:
            return NotImplemented

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __pow__(self, exp: int) -> "GaussInt":
        if exp < 0:
            raise InvalidInput("negative exponents leave Z[i]")
        base = self
        out = ONE
        while exp:
            if exp & 1:
                out = out * base
            exp >>= 1
            if exp:
                base = base * base
        return out

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        # one int mixing both components, not a tuple: CPython has hash(-1) == hash(-2), so
        # (x, -1) and (x, -2) would share a tuple hash; the offset keeps the int positive
        # for components up to a few thousand in size
        return hash(self.re * 1000003 + self.im + (1 << 32))

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
I = GaussInt(0, 1)
UNITS = (ONE, I, GaussInt(-1, 0), GaussInt(0, -1))


def divides(w: GaussInt, z: GaussInt) -> bool:
    """True iff w | z in Z[i]; divides(0, z) only for z = 0."""
    if not w:
        return not z
    n = w.norm()
    t = z * w.conj()
    return t.re % n == 0 and t.im % n == 0


def exact_div(z: GaussInt, w: GaussInt) -> GaussInt:
    """Quotient q with q*w = z.  Raises NotDivisible if w does not divide z."""
    if not w:
        raise DivisionByZero("division by zero in Z[i]")
    n = w.norm()
    t = z * w.conj()
    q_re, r_re = divmod(t.re, n)
    q_im, r_im = divmod(t.im, n)
    if r_re or r_im:  # no operand in the message: formatting a huge one is slow or refused
        raise NotDivisible("inexact division in Z[i]")
    return GaussInt(q_re, q_im)


def norm_at_least(z: GaussInt, least: int, role: str) -> int:
    """norm(z) for a base, generator or target z; one that is no GaussInt, or of norm below least, raises
    InvalidInput naming its role: `base (2, 1) is not a GaussInt`, `base norm(2) = 4 < 5`."""
    if type(z) is not GaussInt:
        raise InvalidInput("%s %r is not a GaussInt", role, z)
    n = z.re * z.re + z.im * z.im
    if n < least:
        raise InvalidInput("%s norm(%s) = %d < %d", role, z, n, least)
    return n


def int_at_least(value: int, least: int, role: str) -> int:
    """value for a count, such as a depth, a length or a budget; one whose type is not exactly int (a bool
    included), or below least, raises InvalidInput naming its role: `k 1.5 is not an int`, `k = 0 < 1`."""
    if type(value) is not int:
        raise InvalidInput("%s %r is not an int", role, value)
    if value < least:
        raise InvalidInput("%s = %d < %d", role, value, least)
    return value


def is_power_of(z: GaussInt, a: GaussInt) -> int | None:
    """The n with a^n = z, if any (n = 0 for z = 1); None otherwise.  The generator a has norm >= 2 (norm_at_least)."""
    na = norm_at_least(a, 2, "generator")
    if not z:
        return None
    # norm(a)^n = norm(z) is necessary, so most non-powers are rejected here
    nz = z.norm()
    n = 0
    while nz > 1:
        nz, r = divmod(nz, na)
        if r:
            return None
        n += 1
    return n if a**n == z else None
