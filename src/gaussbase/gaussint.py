"""Exact arithmetic on Gaussian integers.

Everything here stays inside Z[i]: components are arbitrary-precision
Python ints, absolute values are never materialized (use norm(z) = |z|^2),
and division is either exact or an error.  Includes gcd, canonical
associates, and factorization into Gaussian primes.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass
from typing import Optional, Union


class NotDivisible(ArithmeticError):
    """Exact division requested but the divisor does not divide."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero Gaussian integer."""


class BothZero(ValueError):
    """gcd(0, 0) is undefined."""


class ZeroInput(ValueError):
    """Zero has no factorization."""


class BaseIsUnitOrZero(ValueError):
    """Power queries need a base of norm > 1."""


_LITERAL = _regex.compile(r"^([+-]?\d+)(?:([+-]\d+)i)?$")


class GaussInt:
    """A Gaussian integer re + im*i.

    Values are immutable by convention and hashable; all operations are
    exact.  Plain ints are accepted on either side of arithmetic operators.
    """

    __slots__ = ("re", "im")

    re: int
    im: int

    def __init__(self, re: int = 0, im: int = 0) -> None:
        self.re = re
        self.im = im

    @classmethod
    def parse(cls, text: str) -> "GaussInt":
        """Parse the literal grammar `a`, `a+bi`, `a-bi` (e.g. `5`, `-1+2i`, `0-1i`)."""
        m = _LITERAL.match(text)
        if m is None:
            raise ValueError(f"not a Gaussian integer literal: {text!r}")
        re_txt, im_txt = m.group(1), m.group(2)
        return cls(int(re_txt), int(im_txt) if im_txt is not None else 0)

    def norm(self) -> int:
        """|z|^2 = re^2 + im^2, always a nonnegative int."""
        return self.re * self.re + self.im * self.im

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def __add__(self, other: Union["GaussInt", int]) -> "GaussInt":
        if isinstance(other, int):
            return GaussInt(self.re + other, self.im)
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: Union["GaussInt", int]) -> "GaussInt":
        if isinstance(other, int):
            return GaussInt(self.re - other, self.im)
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: int) -> "GaussInt":
        return GaussInt(other - self.re, -self.im)

    def __mul__(self, other: Union["GaussInt", int]) -> "GaussInt":
        if isinstance(other, int):
            return GaussInt(self.re * other, self.im * other)
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __pow__(self, exp: int) -> "GaussInt":
        if exp < 0:
            raise ValueError("negative exponents leave Z[i]")
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
        if isinstance(other, int):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self) -> int:
        # real values must hash like the equal int (eq admits int operands)
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

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


def canonical_associate(z: GaussInt) -> GaussInt:
    """The unique associate of z (among z, iz, -z, -iz) with re > 0 and im >= 0.

    canonical_associate(0) = 0.
    """
    if not z:
        return ZERO
    w = z
    while not (w.re > 0 and w.im >= 0):
        w = GaussInt(-w.im, w.re)  # multiply by i
    return w


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
    if r_re or r_im:
        raise NotDivisible(f"{w} does not divide {z}")
    return GaussInt(q_re, q_im)


def _nearest(t: int, n: int) -> int:
    """The integer nearest to t/n for n > 0, halves rounding up.

    It is 0 exactly when -n <= 2t < n, the half-open box of canonical digits.
    """
    return (2 * t + n) // (2 * n)


def _divmod_rounded(z: GaussInt, w: GaussInt) -> tuple[GaussInt, GaussInt]:
    """Nearest-quotient division: returns (q, r) with z = q*w + r, norm(r) <= norm(w)/2."""
    n = w.norm()
    t = z * w.conj()
    q = GaussInt(_nearest(t.re, n), _nearest(t.im, n))
    return q, z - q * w


def gauss_gcd(z: GaussInt, w: GaussInt) -> GaussInt:
    """Greatest common divisor in canonical-associate form (re > 0, im >= 0)."""
    if not z and not w:
        raise BothZero("gcd(0, 0) is undefined")
    while w:
        _, r = _divmod_rounded(z, w)
        z, w = w, r
    return canonical_associate(z)


@dataclass(frozen=True)
class GaussFactorization:
    """unit * prod(prime^exp) with canonical, pairwise non-associate primes.

    Primes satisfy re > 0, im >= 0 and are sorted by (norm, re, im); the
    unit is one of 1, i, -1, -i.
    """

    unit: GaussInt
    factors: tuple[tuple[GaussInt, int], ...]

    def value(self) -> GaussInt:
        """Recompose the factored value exactly."""
        out = self.unit
        for prime, exp in self.factors:
            out = out * prime**exp
        return out


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod p, for prime p = 1 (mod 4).

    Scans candidates c = 2, 3, ...; c^((p-1)/4) is a square root of -1
    exactly when c is a quadratic non-residue, so a few candidates suffice.
    """
    exp = (p - 1) // 4
    for c in range(2, p):
        x = pow(c, exp, p)
        if x * x % p == p - 1:
            return x
    raise ArithmeticError(f"no square root of -1 mod {p}; {p} is not a 1 mod 4 prime")


def _divide_out(z: GaussInt, p: GaussInt) -> tuple[GaussInt, int]:
    """Divide p out of z as often as possible; returns (cofactor, multiplicity)."""
    e = 0
    while divides(p, z):
        z = exact_div(z, p)
        e += 1
    return z, e


def factorize(z: GaussInt) -> GaussFactorization:
    """Factor z != 0 into canonical Gaussian primes.

    Rational primes p = 3 (mod 4) stay inert, p = 1 (mod 4) split into a
    conjugate pair found via gcd(p, x + i) with x^2 = -1 (mod p), and 2
    ramifies through 1 + i.
    """
    if not z:
        raise ZeroInput("zero has no factorization")
    factors: list[tuple[GaussInt, int]] = []
    rest = z
    for p in sorted(_factor_int(z.norm())):
        if p == 2:
            primes: tuple[GaussInt, ...] = (GaussInt(1, 1),)
        elif p % 4 == 3:
            primes = (GaussInt(p, 0),)
        else:
            g = gauss_gcd(GaussInt(p, 0), GaussInt(_sqrt_minus_one(p), 1))
            primes = (g, canonical_associate(g.conj()))
        for prime in primes:
            rest, e = _divide_out(rest, prime)
            if e:
                factors.append((prime, e))
    if rest.norm() != 1:
        raise ArithmeticError(f"factorization of {z} left non-unit cofactor {rest}")
    factors.sort(key=lambda pe: (pe[0].norm(), pe[0].re, pe[0].im))
    return GaussFactorization(unit=rest, factors=tuple(factors))


def is_power_of(z: GaussInt, a: GaussInt) -> Optional[int]:
    """The n with a^n = z, if any (n = 0 for z = 1); None otherwise."""
    na = a.norm()
    if na <= 1:
        raise BaseIsUnitOrZero(f"norm({a}) <= 1 cannot generate powers")
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
    # descend by exact division; n steps reach 1 exactly when z = a^n
    try:
        for _ in range(n):
            z = exact_div(z, a)
    except NotDivisible:
        return None
    return n if z == ONE else None
