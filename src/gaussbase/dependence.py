"""Multiplicative dependence of Gaussian integers and witness searches.

a and b are multiplicatively dependent when a^r = b^s for positive r, s;
the decision takes the least relation between the two norms, found by
Euclid on their exponents rather than by factoring, and settles the unit
left over by exact powering.  The two searches certify approximation
facts about the group {a^m * b^n}: a group witness pins |a^m / b^n - u|
below a rational bound, and a prefix witness additionally forces the
word of a^m to extend the word of u in base b.

Searches use floating-point log estimates only to nominate candidate
exponents; every returned witness is verified in exact integer arithmetic
and re-checks from its stored fields alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .gaussint import ONE, GaussInt
from .numeration import BaseTooSmall, _ceil_log, canonical_digit_set, encode, length_bound


class UnitOrZeroInput(ValueError):
    """Dependence questions need inputs of norm > 1 (and nonzero targets)."""


class NotIndependent(ValueError):
    """Prefix extension is defined for multiplicatively independent pairs."""


@dataclass(frozen=True)
class DependenceVerdict:
    """Outcome of the dependence decision; (r, s) is the minimal positive pair."""

    dependent: bool
    r: Optional[int] = None
    s: Optional[int] = None


def _common_root(x: int, y: int) -> Optional[int]:
    """The c with x = c^p and y = c^q for coprime p, q >= 1, given x, y >= 2.

    Euclid on the exponents: if x = c^p and y = c^q with p > q, then
    x / y = c^(p - q), so dividing the larger by the smaller until the two
    agree ends at c.  None when a division leaves a remainder: then no
    positive r, s give x^r = y^s.
    """
    while x != y:
        if x < y:
            x, y = y, x
        x, rem = divmod(x, y)
        if rem:
            return None
    return x


def mult_dependent(a: GaussInt, b: GaussInt) -> DependenceVerdict:
    """Decide whether a^r = b^s has a solution in positive integers.

    a^r = b^s forces N(a)^r = N(b)^s, so (r, s) is a multiple of the
    least norm relation (r0, s0), read off the common root of the two
    norms without factoring them.  Then a^r0 / b^s0 has norm 1, so it is
    a root of unity, a power of i, exactly when a^(t*r0) = b^(t*s0) for
    some t <= 4, the order of the unit group of Z[i]; the least such t
    gives the minimal pair.  A dependent verdict is thus verified by
    exact powering before it is returned.
    """
    na, nb = a.norm(), b.norm()
    if na <= 1 or nb <= 1:
        raise UnitOrZeroInput("dependence needs norms > 1")
    c = _common_root(na, nb)
    if c is None:
        return DependenceVerdict(False)
    r0, s0 = _ceil_log(nb, c), _ceil_log(na, c)
    for t in (1, 2, 3, 4):
        if a ** (t * r0) == b ** (t * s0):
            return DependenceVerdict(True, t * r0, t * s0)
    return DependenceVerdict(False)


@dataclass(frozen=True)
class GroupWitness:
    """Exponents with norm(a^m - u*b^n) * err_den <= err_num * norm(b)^n.

    The inequality certifies |a^m / b^n - u| <= sqrt(err_num / err_den);
    verify() re-checks it from the stored fields in integer arithmetic.
    """

    a: GaussInt
    b: GaussInt
    u: GaussInt
    m: int
    n: int
    err_num: int
    err_den: int

    def verify(self) -> bool:
        z = self.a**self.m - self.u * self.b**self.n
        return z.norm() * self.err_den <= self.err_num * self.b.norm() ** self.n


def _approximations(
    a: GaussInt, b: GaussInt, u: GaussInt, n_min: int, m_max: int
) -> Iterator[tuple[int, int, GaussInt, int]]:
    """(m, n, a^m - u*b^n, norm(b)^n) for m = 1..m_max and the few n >= n_min near
    (m*log|a| - log|u|) / log|b|, where |a^m / b^n| comes closest to |u|.

    The float estimate only nominates n; the caller decides exactly.
    """
    log_a = math.log(a.norm()) / 2
    log_b = math.log(b.norm()) / 2
    log_u = math.log(u.norm()) / 2
    nb = b.norm()
    b_pows = [ONE]
    nb_pows = [1]
    a_pow = ONE
    for m in range(1, m_max + 1):
        a_pow = a_pow * a
        n_star = round((m * log_a - log_u) / log_b)
        for n in range(max(n_star - 1, n_min), n_star + 2):
            while n >= len(b_pows):
                b_pows.append(b_pows[-1] * b)
                nb_pows.append(nb_pows[-1] * nb)
            yield m, n, a_pow - u * b_pows[n], nb_pows[n]


def group_witness(
    a: GaussInt,
    b: GaussInt,
    u: GaussInt,
    err_num: int,
    err_den: int,
    m_max: int = 256,
) -> Optional[GroupWitness]:
    """Search m = 1..m_max for a certified witness; None when the budget runs out.

    For each m only the few n with norm(b)^n near norm(a^m)/norm(u) can
    qualify, so those are nominated by a float prefilter and checked
    exactly.  None is a normal outcome: existence is guaranteed only in
    the limit, with no effective bound.
    """
    if a.norm() <= 1 or b.norm() <= 1 or not u:
        raise UnitOrZeroInput("witness search needs norms > 1 and a nonzero target")
    if err_num < 0 or err_den <= 0:
        raise ValueError("error bound must be a nonnegative rational")
    for m, n, z, nb_n in _approximations(a, b, u, 0, m_max):
        if z.norm() * err_den <= err_num * nb_n:
            return GroupWitness(a=a, b=b, u=u, m=m, n=n, err_num=err_num, err_den=err_den)
    return None


@dataclass(frozen=True)
class PrefixWitness:
    """a^m = u*b^n + z with the word of z short enough not to disturb u's digits.

    Since word_length(z) <= n, the base-b word of a^m is the word of u
    followed by n more digits; in particular it has u's word as a prefix.
    """

    a: GaussInt
    b: GaussInt
    u: GaussInt
    m: int
    n: int
    z: GaussInt

    def verify(self) -> bool:
        if self.a**self.m != self.u * self.b**self.n + self.z:
            return False
        D = canonical_digit_set(self.b)
        if len(encode(self.z, D)) > self.n:
            return False
        word_u = encode(self.u, D)
        return encode(self.a**self.m, D)[: len(word_u)] == word_u


def prefix_extension(
    a: GaussInt,
    b: GaussInt,
    u: GaussInt,
    n_min: int = 0,
    budget: int = 256,
) -> Optional[PrefixWitness]:
    """Find m, n >= n_min with a^m = u*b^n + z and word_length(z) <= n.

    The acceptance threshold is the certified length bound of base b:
    norm(a^m - u*b^n) * norm(b)^m3 <= norm(b)^n.  All three postconditions
    (exact identity, word length, explicit word-prefix comparison) are
    re-verified before a witness is returned.  None means the search
    budget (max m) was exhausted.
    """
    if not u:
        raise UnitOrZeroInput("prefix extension needs a nonzero target")
    if a.norm() < 5 or b.norm() < 5:
        raise BaseTooSmall("prefix extension needs norms >= 5")
    if mult_dependent(a, b).dependent:
        raise NotIndependent(f"{a} and {b} are multiplicatively dependent")
    tail = b.norm() ** length_bound(b).m3
    for m, n, z, nb_n in _approximations(a, b, u, n_min, budget):
        if z.norm() * tail <= nb_n:
            witness = PrefixWitness(a=a, b=b, u=u, m=m, n=n, z=z)
            if witness.verify():
                return witness
    return None
