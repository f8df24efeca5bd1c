"""Exact arithmetic on Gaussian integers.

Everything here stays inside Z[i]: components are arbitrary-precision
Python ints, checked when a value is built; absolute values are never
materialized (use norm(z) = |z|^2), and division is either exact or an
error.  Beyond ring arithmetic it offers divisibility, exact division and
power membership, and it defines the errors every layer raises for bad
input and refused work.  Every integer the package reads from text, a
Gaussian literal's part, a CLI count or bound, a DFA file's int, is read
by numeral, which checks the shape with str methods rather than a
regular expression, so importing the package never loads `re`.
"""

from __future__ import annotations

import sys


class NotDivisible(ArithmeticError):
    """Exact division requested but the divisor does not divide."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero Gaussian integer."""


class InvalidInput(ValueError):
    """An argument is malformed or outside the domain of the operation given it."""


class BudgetExceeded(RuntimeError):
    """Requested work exceeds a fixed budget such as ENUMERATION_BUDGET."""


class Message:
    """An error's message, template % values, formatted each time it is read.

    A message that names an int computed from the inputs, such as a
    base's norm, can pass the int-to-str digit limit that the inputs were
    read under; formatted late, it is rendered where the CLI renders its
    report, under the report's limit.
    """

    __slots__ = ("template", "values")

    def __init__(self, template: str, *values) -> None:
        self.template = template
        self.values = values

    def __str__(self) -> str:
        return self.template % self.values


def numeral(part: str, literal: str | None = None) -> int | None:
    """The int of a decimal numeral, ASCII [+-]?[0-9]+, and None for any other text.

    The one reader of integers from text: int() accepts more (spaces, "_",
    non-ASCII digits), so the shape is checked first, and int() then fails
    only past the interpreter's int-to-str digit limit
    (sys.get_int_max_str_digits()).  Such a numeral raises InvalidInput
    naming the limit, where int() would advise raising it, and naming the
    part as an integer literal or, given the Gaussian literal it was cut
    from, that literal.
    """
    if part.isascii() and (part[1:] if part[:1] in "+-" else part).isdigit():
        try:
            return int(part)
        except ValueError:
            name = "an integer literal" if literal is None else "a Gaussian integer literal with a part"
            limit = sys.get_int_max_str_digits()
            raise InvalidInput(f"{name} past {limit} digits, the interpreter's limit: {literal or part!r}") from None
    return None


class GaussInt:
    """A Gaussian integer re + im*i.

    Both components are ints, checked at construction, so every operation
    stays exact.  Values are immutable by convention and hashable.  The
    operators take only GaussInt operands, and a GaussInt equals only a
    GaussInt: GaussInt(3) != 3.
    """

    __slots__ = ("re", "im")

    re: int
    im: int

    def __init__(self, re: int = 0, im: int = 0) -> None:
        if not (isinstance(re, int) and isinstance(im, int)):
            name, part = ("imaginary", im) if isinstance(re, int) else ("real", re)
            raise InvalidInput(
                f"{name} component {part!r} of GaussInt({re!r}, {im!r}) is not an integer"
            )
        self.re = re
        self.im = im

    @classmethod
    def parse(cls, text: str) -> "GaussInt":
        """Parse the literal grammar `a`, `a+bi`, `a-bi` (e.g. `5`, `-1+2i`, `0-1i`).

        Each part is a numeral, `[+-]?[0-9]+` in ASCII digits, and nothing
        else is allowed: no whitespace, underscores or trailing newline.  A
        malformed literal is refused as one whatever its length; a
        well-formed one with a part past the interpreter's int-to-str digit
        limit raises numeral's InvalidInput naming the limit and the literal.
        """
        if not isinstance(text, str):
            # re's wording, kept so the JSON loaders' report of a mistyped field reads as it did;
            # unlike re, bytes are refused too
            raise TypeError(f"expected string or bytes-like object, got {type(text).__name__!r}")
        real, imag = text, "+0"
        if text.endswith("i"):
            # the imaginary part starts at the one sign past the first character; with none,
            # imag is empty, and any other sign fails numeral's shape check
            cut = text.find("+", 1)
            if cut < 0:
                cut = text.find("-", 1)
            real, imag = text[:cut], text[cut:-1]
        # the imaginary part is read first, so a literal malformed there is refused as one whatever
        # the length of its real part; one past the digit limit waits for the real part's shape
        try:
            im = numeral(imag, text)
        except InvalidInput:
            if numeral(real, text) is not None:
                raise
            im = None
        if im is not None and (re := numeral(real, text)) is not None:
            return cls(re, im)
        raise InvalidInput(f"not a Gaussian integer literal: {text!r}")

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


def is_power_of(z: GaussInt, a: GaussInt) -> int | None:
    """The n with a^n = z, if any (n = 0 for z = 1); None otherwise."""
    na = a.norm()
    if na <= 1:
        raise InvalidInput(f"norm({a}) <= 1 cannot generate powers")
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
