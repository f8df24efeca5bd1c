"""Exact Gaussian-integer arithmetic on plain ``(re, im)`` int pairs.

The benchmark's correctness checks use these helpers instead of
``gaussbase`` so that a defect in the package cannot vouch for itself.
Nothing here is timed.
"""

from __future__ import annotations

import re

Pair = tuple[int, int]

_LITERAL = re.compile(r"^([+-]?\d+)(?:([+-]\d+)i)?$")


def mul(x: Pair, y: Pair) -> Pair:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


def norm(x: Pair) -> int:
    return x[0] * x[0] + x[1] * x[1]


def power(x: Pair, e: int) -> Pair:
    out = (1, 0)
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def horner(word, base: Pair) -> Pair:
    """Value of an msd-first word of digit pairs."""
    acc = (0, 0)
    for d in word:
        acc = add(mul(acc, base), d)
    return acc


def round_div(x: Pair, y: Pair) -> Pair:
    """The Gaussian integer nearest to x / y (ties rounded up)."""
    n = norm(y)
    t = mul(x, (y[0], -y[1]))
    return ((2 * t[0] + n) // (2 * n), (2 * t[1] + n) // (2 * n))


def parse(text: str) -> Pair:
    """Parse the literal grammar ``a``, ``a+bi``, ``a-bi``."""
    m = _LITERAL.match(text)
    if m is None:
        raise ValueError(f"not a Gaussian integer literal: {text!r}")
    return (int(m.group(1)), int(m.group(2)) if m.group(2) else 0)


def text(x: Pair) -> str:
    return str(x[0]) if x[1] == 0 else f"{x[0]}{x[1]:+d}i"


def parse_word(s: str) -> tuple[Pair, ...]:
    return tuple(parse(part) for part in s.split(",")) if s else ()


def canonical_digits(b: Pair) -> frozenset[Pair]:
    """Digits d with Re(d/b), Im(d/b) in [-1/2, 1/2), by brute force over a box."""
    n = norm(b)
    r = int(n**0.5) + 1
    out = set()
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            t = mul((x, y), (b[0], -b[1]))
            if -n <= 2 * t[0] < n and -n <= 2 * t[1] < n:
                out.add((x, y))
    return frozenset(out)


def encode(z: Pair, b: Pair, digits: frozenset[Pair]) -> list[Pair]:
    """Greedy msd-first word of z: the digit congruent to z mod b, then (z - d) / b."""
    n = norm(b)
    bc = (b[0], -b[1])
    residue = {}
    for d in digits:
        t = mul(d, bc)
        residue[(t[0] % n, t[1] % n)] = d
    out = []
    while z != (0, 0):
        if len(out) > 10_000:
            raise ArithmeticError(f"greedy digit loop did not terminate for {z}")
        t = mul(z, bc)
        d = residue[(t[0] % n, t[1] % n)]
        out.append(d)
        q = mul(sub(z, d), bc)
        z = (q[0] // n, q[1] // n)
    out.reverse()
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
