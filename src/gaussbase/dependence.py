"""Multiplicative dependence of Gaussian integers and witness searches.

a and b are multiplicatively dependent when a^r = b^s for positive r, s;
the decision runs Euclid on their exponents by exact division in Z[i],
without factoring and without forming a power, and reads the least
relation off the unit it ends at.  The two searches certify approximation
facts about the group {a^m * b^n}: a group witness pins |a^m / b^n - u|
below a rational bound, and a prefix witness additionally forces the
word of a^m to extend the word of u in base b.

In both searches floats nominate the exponents (m, n) and prune them by
the modulus and the angle of a^m / (u*b^n); a sieve of two float phase
tests first drops the m for which no n could pass.  The sieve never
sees most m: the m whose modulus phase can pass are the returns of a
rotation to a window, which an exact integer walk over 2^64 reaches in
O(log) Euclid-like steps to the first and one of three gaps (Slater
1967) to each next; where log|a|/log|b| is an int, as for equal norms,
the walk runs on the angle phase instead.  So a search costs little
per survivor and almost nothing per skipped m.  Exact integer
arithmetic decides every candidate the floats cannot rule out, and
every returned witness re-checks from its stored fields alone.
"""

from __future__ import annotations

import math

from ._records import cached_property, record
from .gaussint import (
    LEAST_BASE_NORM, ONE, UNITS, ZERO, BudgetExceeded, GaussInt, InvalidInput, int_at_least, norm_at_least
)
from .numeration import Word, canonical_digit_set, decode, encode, length_bound


class DependenceVerdict(record("DependenceVerdict", "dependent r s", defaults=(None, None))):
    """Outcome of the dependence decision; (r, s) is the minimal positive pair.

    Fields: dependent (bool), r and s (int | None, both None when independent).
    """

    __slots__ = ()


_UNIT_ORDER = dict(zip(UNITS, (1, 4, 2, 4)))  # 1, i, -1, -i and their orders


def mult_dependent(a: GaussInt, b: GaussInt) -> DependenceVerdict:
    """Decide whether a^r = b^s has a solution in positive integers.

    Euclid on the exponents, with exact division in Z[i]: x = a^xa * b^xb
    and y = a^ya * b^yb start as a and b, and each step divides the one of
    larger norm by the other and subtracts the exponents.  Z[i] has unique
    factorization, so a dependent pair is e*g^p and e'*g^q for units e, e':
    every x and y stays a unit times a power of g, and every division is
    exact.  A remainder therefore means independent.  Otherwise x ends as
    a unit; the exponent rows stay unimodular, so (xa, xb) is, up to sign,
    the least norm relation, and the unit's order t (1, 2 or 4) gives the
    minimal pair (t*|xa|, t*|xb|).  Nothing is raised to a power.
    """
    na, nb = norm_at_least(a, 2, "generator"), norm_at_least(b, 2, "generator")
    x, y = (a.re, a.im, na, 1, 0), (b.re, b.im, nb, 0, 1)  # (re, im, norm, xa, xb) of a^xa * b^xb
    while x[2] != 1:
        if x[2] < y[2]:
            x, y = y, x
        x_re, x_im, nx, xa, xb = x
        y_re, y_im, ny, ya, yb = y
        # x / y = x * conj(y) / norm(y)
        q_re, r_re = divmod(x_re * y_re + x_im * y_im, ny)
        q_im, r_im = divmod(x_im * y_re - x_re * y_im, ny)
        if r_re or r_im:
            return DependenceVerdict(False)
        x = (q_re, q_im, nx // ny, xa - ya, xb - yb)
    x_re, x_im, _, xa, xb = x
    t = _UNIT_ORDER[GaussInt(x_re, x_im)]
    return DependenceVerdict(True, t * abs(xa), t * abs(xb))


class GroupWitness(record("GroupWitness", "a b u m n err_num err_den")):
    """Exponents with norm(a^m - u*b^n) * err_den <= err_num * norm(b)^n.

    Fields: a, b and u (GaussInt), m, n, err_num and err_den (int).  The
    inequality certifies |a^m / b^n - u| <= sqrt(err_num / err_den);
    verify() re-checks it from the stored fields in integer arithmetic.
    """

    __slots__ = ()

    def verify(self) -> bool:
        z = self.a**self.m - self.u * self.b**self.n
        return z.norm() * self.err_den <= self.err_num * self.b.norm() ** self.n


def _log_polar(z: GaussInt) -> tuple[float, float]:
    """(log|z|, arg z) as floats, for components of any size.

    float() overflows past 1e308, so atan2 gets both components shifted
    right by the same amount, down to 64 significant bits.
    """
    shift = max(0, max(abs(z.re), abs(z.im)).bit_length() - 64)
    return math.log(z.norm()) / 2, math.atan2(z.im >> shift, z.re >> shift)


# a phase in turns, times _TURN and floored, is an int mod _TURN: the walks below are exact
_TURN = 2**64


def _first_return(rot: int, start: int, modulus: int, window: int) -> int | None:
    """The least k >= 0 with (rot*k + start) % modulus <= window; None when no k has it.

    Needs 0 <= rot, start, window < modulus.  Euclid-like: from start >
    window, start + rot*k climbs and can land in [0, window] only as it
    passes a multiple of modulus.  Its pass over (j+1)*modulus lands at
    (start - (j+1)*modulus) % rot, so the least j whose pass lands in the
    window is the same question on the modulus rot, and gives k.  A rot
    above modulus/2 is mirrored first, as (rot*k + start) % modulus <=
    window exactly when ((modulus - rot)*k + window - start) % modulus <=
    window, so the modulus at least halves at every level.
    """
    if start <= window:
        return 0
    if 2 * rot > modulus:
        rot, start = modulus - rot, modulus + window - start
    if not rot:
        return None
    k = -((start - modulus) // rot)  # the first pass over modulus
    if start + rot * k - modulus <= window:
        return k
    j = _first_return(-modulus % rot, (start - modulus) % rot, rot, window)
    return None if j is None else -((start - (j + 1) * modulus) // rot)


def _returns(rot: int, start: int, modulus: int, window: int, first: int, last: int) -> Iterator[int]:
    """The m in first..last with (rot*m + start) % modulus <= window, in order; needs 2*window < modulus.

    The first comes from _first_return, and each next one from the three
    gaps (Slater 1967).  Let a be the least k >= 1 with d1 = rot*k %
    modulus <= window, and b the least with d2 = -rot*k % modulus <=
    window.  Every k below both moves a point of [0, window] out of it,
    so from a hit at m with x = (rot*m + start) % modulus the next hit is
    m + a when x + d1 <= window, m + b when x >= d2 (the sooner when both
    hold), and otherwise m + a + b, at x + d1 - d2.
    """
    k = _first_return(rot, (rot * first + start) % modulus, modulus, window)
    if k is None or first + k > last:
        return
    m = first + k
    x = (rot * m + start) % modulus
    back = -rot % modulus
    a, b = 1 + _first_return(rot, rot, modulus, window), 1 + _first_return(back, back, modulus, window)
    d1, d2 = a * rot % modulus, b * back % modulus
    while m <= last:
        yield m
        if x + d1 <= window and (a < b or x < d2):
            m, x = m + a, x + d1
        elif x >= d2:
            m, x = m + b, x - d2
        else:
            m, x = m + a + b, x + d1 - d2


def _nominees(
    a: GaussInt, b: GaussInt, u: GaussInt, n_min: int, m_max: int, num: int, den: int
) -> Iterator[tuple[int, int]]:
    """The (m, n) that may meet norm(a^m - u*b^n) * den <= num * norm(b)^n, over
    m = 1..m_max and the few n >= n_min near (m*log|a| - log|u|) / log|b|,
    where |a^m / b^n| comes closest to |u|; _approximations decides them.

    The test reads |r - 1| <= s for r = a^m / (u*b^n) and
    s^2 = num / (den * norm(u)).  It forces ln|r| into [log1p(-s), log1p(s)]
    and, for s < 1, |arg r| <= asin(s): the ray at angle t meets the disc
    |r - 1| <= s only when sin|t| <= s.  Floats nominate n and skip every
    candidate whose ln|r| or arg r falls outside these bounds widened by a
    tolerance, and yield the rest.

    Float error budget, with unit roundoff 2^-53 ~ 1.1e-16: the log of an
    int (of any size), atan2 of components cut to 64 bits, each product
    and sum, and the reduction mod the float 2*pi (2.4e-16 off) each err by
    a few ulps of the magnitudes involved.  Summed, the error of the float
    ln|r| and arg r is below 1e-15 * (m*(|log a| + 4) + n*(|log b| + 4) +
    |log u| + 4), the 4 covering the angles (at most pi), and the error of
    log s below 1e-15 * (|ln num| + |ln den| + 2|log u| + 4).  Every
    tolerance is 1e-9 plus 1000 times its bound.

    Two float phase tests per m, the sieve, drop only the m for which no
    n could pass the tests above; the m they keep meet those tests
    unchanged.  Let T be twice the tolerance at m_max and n_max =
    m_max*log|a|/log|b| + 2, past the largest n in reach, and
    v = (m*log|a| - log|u| - lo + T) / log|b|.  Then ln|r| lies in
    [lo - T, hi + T] only for n = floor(v), and only if frac(v) <= w =
    (hi - lo + 2T) / log|b| < 1: the modulus test.  The angle test asks
    (m*arg a - n*arg b - arg u) / tau, for that n, to lie within
    (asin(s) + T) / tau of an integer.  Formed as m*alpha - beta and
    m*turn_a - n*turn_b - turn_u, with alpha = log|a|/log|b| and the
    angles in turns each rounded once and the mod 1 exact, both phases
    err by less than 1e-15 * (m*(|log a| + 4) + n*(|log b| + 4) + |log u|
    + |lo| + 4), in radians and in log|b| units of v; |lo| < log|b| when
    w < 1.  T exceeds each tolerance by the tolerance at (m_max, n_max),
    over 1000 times these errors and those of ln|r| and arg r, so every
    (m, n) that passes the tests above passes the sieve.  When w >= 1
    (lo = -inf, or s near 1) every m passes.

    The sieve runs only on the m that an exact integer walk reaches, and
    the walk reaches every m whose float modulus test passes.  The floats
    alpha and beta are exact reals.  Scaled by _TURN = 2^64 and floored
    they give the ints A and B, and m*A - B is off (m*alpha - beta)*_TURN
    by less than m + 1.  The float v and its frac err by at most
    2^-52*(m*alpha + |beta|) + 2^-53, within the allowance
    2^-50*(m_max*alpha + |beta| + 2).  Let D be that allowance times
    _TURN, plus m_max + 1, and W = floor(w*_TURN) + 2D.  Then every m
    whose float frac(v) <= w has X_m = (A*m + D - B) % _TURN <= W, and its
    n = floor(v) is the one j with A*m + D - B - j*_TURN in [0, W].  The m
    with X_m <= W are the returns of a rotation to a window: _returns
    reaches the first in O(log _TURN) steps and each next in O(1).

    An int alpha = k (equal norms give exactly 1.0) makes A = 0 mod
    _TURN, so X_m is constant.  Then no m passes the modulus test, or
    each m that passes has n = k*m + c with c = (D - B) // _TURN, and its
    angle phase m*(turn_a - k*turn_b) - c*turn_b - turn_u is linear in m.
    The same walk runs on that phase, its window arc widened the same
    way: the float phase errs by under 2^-50*(m_max*(k+1) + |c| + 2), and
    the floored turns by under m_max*(k+1) + |c| + 1 units.

    A window of half a turn or more, and w >= 1, visit every m.  Every
    walk starts at an m at or below the least m whose n_star + 1 reaches
    n_min, as no m before it has an n to try.

    m_max is below FLOAT_LIMIT = 2^1024 - 2^970, as the public searches
    check: m_max * tol_per_m is the one step that converts m_max to a
    float, and float() refuses every int from FLOAT_LIMIT on with an
    OverflowError.  Below it every float step is finite or, for a product
    past the largest float, inf: then w >= 1 and every m passes.
    """
    log_a, arg_a = _log_polar(a)
    log_b, arg_b = _log_polar(b)
    log_u, arg_u = _log_polar(u)
    tol_fixed = 1e-9 + 1e-12 * (abs(log_u) + 4)
    tol_per_m, tol_per_n = 1e-12 * (abs(log_a) + 4), 1e-12 * (abs(log_b) + 4)
    lo, hi, angle = 0.0, 0.0, 0.0  # num = 0: only exact hits, r = 1
    if num:
        ln_num, ln_den = math.log(num), math.log(den)
        # s widened by its own tolerance, so the bounds below are safe
        log_s = (ln_num - ln_den) / 2 - log_u
        log_s += 1e-9 + 1e-12 * (abs(ln_num) + abs(ln_den) + 2 * abs(log_u) + 4)
        if log_s < 0:
            s = math.exp(log_s)
            lo, hi, angle = math.log1p(-s), math.log1p(s), math.asin(s)
        else:
            lo, hi, angle = -math.inf, log_s + math.log1p(math.exp(-log_s)), math.inf
    alpha = log_a / log_b
    T = 2 * (tol_fixed + m_max * tol_per_m + (m_max * alpha + 2) * tol_per_n)
    beta, w, half = (log_u + lo - T) / log_b, (hi - lo + 2 * T) / log_b, (angle + T) / math.tau
    if not w < 1:  # every m passes both tests
        beta, w, half = 0.0, 1.0, 0.5
    # a phase within half of an integer is, plus half and mod 1, at most 2*half
    turn_a, turn_b, turn_u, arc = arg_a / math.tau, arg_b / math.tau, arg_u / math.tau - half, 2 * half
    # n_star + 1 >= n_min needs m*log|a| - log|u| >= (n_min - 1.5)*log|b|, up to the float error;
    # n_min is capped so that its float cannot overflow, and a lower cap only starts earlier
    n_reach = min(n_min, 2**53)
    reach = (n_reach - 2) * log_b + log_u - 1e-12 * (n_reach * log_b + abs(log_u) + 1)
    first = max(1, math.floor(reach / log_a))
    ms = range(first, m_max + 1)
    if w < 1:
        slack = math.ceil((m_max * alpha + abs(beta) + 2) * 2**14) + m_max + 1  # D, as 2^-50 * _TURN = 2^14
        rot, start = math.floor(alpha * _TURN) % _TURN, slack - math.floor(beta * _TURN)
        window = math.floor(w * _TURN) + 2 * slack
        if not rot and 2 * window < _TURN:  # alpha is an int k
            c, start = divmod(start, _TURN)
            if start > window:  # no m passes the modulus test
                return
            k, turn = int(alpha), math.floor(turn_b * _TURN)
            slack = math.ceil((m_max * (k + 1) + abs(c) + 2) * 2**14) + m_max * (k + 1) + abs(c) + 2
            rot = (math.floor(turn_a * _TURN) - k * turn) % _TURN
            start = slack - c * turn - math.floor(turn_u * _TURN)
            window = math.floor(arc * _TURN) + 2 * slack
        if 2 * window < _TURN:
            ms = _returns(rot, start % _TURN, _TURN, window, first, m_max)
    for m in ms:
        v = m * alpha - beta
        frac = v % 1.0  # the sieve, with n = v - frac
        if frac > w or (m * turn_a - (v - frac) * turn_b - turn_u) % 1.0 > arc:
            continue
        x0 = m * log_a - log_u
        n_star = round(x0 / log_b)
        n_lo, n_hi = max(n_star - 1, n_min), n_star + 1
        if n_lo > n_hi:
            continue
        tol = tol_fixed + m * tol_per_m + n_hi * tol_per_n
        t0 = m * arg_a - arg_u
        for n in range(n_lo, n_hi + 1):
            x = x0 - n * log_b
            if x < lo - tol or x > hi + tol:
                continue
            if abs(math.remainder(t0 - n * arg_b, math.tau)) > angle + tol:
                continue
            yield m, n


# the least int that float() refuses: the largest float is 2^1024 - 2^971, and an int halfway between it and
# 2^1024 rounds to the even 2^1024, past the range (see _nominees)
FLOAT_LIMIT = 2**1024 - 2**970


def _exponent_budget(value: int, role: str) -> None:
    """Check value, the largest m a search walks: a count (int_at_least, least 0) below FLOAT_LIMIT; one at or
    above it raises BudgetExceeded naming its role and the limit, before any float is formed."""
    int_at_least(value, 0, role)
    if value >= FLOAT_LIMIT:
        raise BudgetExceeded("%s must be below 2^1024 - 2^970, the least int that converts to no float", role)


# z -> (z.re + _ROOT*z.im) % _PRIME maps Z[i] onto the integers mod the prime
# 2^64 - 59, a ring homomorphism as _ROOT^2 = -1 there
_PRIME = 2**64 - 59
_ROOT = 2296021864060584341  # 2^((_PRIME - 1)/4); 2 is no square mod a prime = 5 mod 8


def _residue(z: GaussInt) -> int:
    return (z.re + _ROOT * z.im) % _PRIME


def _approximations(
    a: GaussInt, b: GaussInt, u: GaussInt, n_min: int, m_max: int, num: int, den: int
) -> Iterator[tuple[int, int, GaussInt]]:
    """(m, n, a^m - u*b^n) with norm(a^m - u*b^n) * den <= num * norm(b)^n, over the
    _nominees, decided in exact arithmetic, advancing a^m from one candidate to the next.

    Under num = 0 the test is a^m = u*b^n, which fails whenever the two
    sides differ in _residue: those candidates are dropped by a modular
    pow on word-size ints, and the powers are built only for the rest.
    """
    nb = b.norm()
    a_pow, m_at = ONE, 0
    res_a, res_b, res_u = _residue(a), _residue(b), _residue(u)
    for m, n in _nominees(a, b, u, n_min, m_max, num, den):
        if not num and pow(res_a, m, _PRIME) != res_u * pow(res_b, n, _PRIME) % _PRIME:
            continue
        if m != m_at:
            a_pow, m_at = a_pow * a ** (m - m_at), m
        z = a_pow - u * b**n
        if z.norm() * den <= num * nb**n:
            yield m, n, z


def group_witness(
    a: GaussInt,
    b: GaussInt,
    u: GaussInt,
    err_num: int,
    err_den: int,
    m_max: int = 256,
) -> GroupWitness | None:
    """Search m = 1..m_max for a certified witness; None when the budget runs out.

    For each m only the few n with norm(b)^n near norm(a^m)/norm(u) can
    qualify; floats nominate and prune those, and the survivors are checked
    exactly.  None is a normal outcome: existence is guaranteed only in
    the limit, with no effective bound.  err_num, err_den and m_max are
    ints (at least 0, 1 and 0, checked by int_at_least), so the inequality
    is decided on the rational the caller meant, and m_max is below
    FLOAT_LIMIT = 2^1024 - 2^970, where the floats overflow (BudgetExceeded).
    """
    norm_at_least(a, 2, "generator")
    norm_at_least(b, 2, "generator")
    norm_at_least(u, 1, "target")
    int_at_least(err_num, 0, "err_num")
    int_at_least(err_den, 1, "err_den")
    _exponent_budget(m_max, "m_max")
    for m, n, _ in _approximations(a, b, u, 0, m_max, err_num, err_den):
        return GroupWitness(a=a, b=b, u=u, m=m, n=n, err_num=err_num, err_den=err_den)
    return None


class PrefixWitness(record("PrefixWitness", "a b u m n z")):
    """a^m = u*b^n + z with the word of z short enough not to disturb u's digits.

    Fields: a, b and u (GaussInt), m and n (int), z (GaussInt).  With
    u != 0 and word_length(z) <= n, the word of u, then zeros, then the
    word of z, n digits after u's, is a word without leading zeros whose
    value is u*b^n + z = a^m: by uniqueness of representations it is the
    word of a^m, which thus extends the word of u.  So word_am is derived
    from word_u and word_z (each a Word over the canonical digits of b),
    which are encoded on first use and kept as plain attributes outside
    the tuple, and a^m is never encoded.  verify() re-checks the identity,
    u != 0, the length of z's word, both words' values and word_u's
    nonzero leading digit; certified is its verdict, taken once and kept
    beside the words, so the search and a report share one check.
    """

    @cached_property
    def word_u(self) -> Word:
        return encode(self.u, canonical_digit_set(self.b))

    @cached_property
    def word_z(self) -> Word:
        return encode(self.z, canonical_digit_set(self.b))

    @property
    def word_am(self) -> Word:
        return self.word_u + (ZERO,) * (self.n - len(self.word_z)) + self.word_z

    def verify(self) -> bool:
        identity = bool(self.u) and self.a**self.m == self.u * self.b**self.n + self.z
        if not identity or len(self.word_z) > self.n or self.word_u[:1] == (ZERO,):
            return False
        D = canonical_digit_set(self.b)
        try:  # a stored word with a non-digit fails too
            return decode(self.word_u, D) == self.u and decode(self.word_z, D) == self.z
        except InvalidInput:
            return False

    @cached_property
    def certified(self) -> bool:
        return self.verify()


def prefix_extension(
    a: GaussInt, b: GaussInt, u: GaussInt, n_min: int = 0, budget: int = 256
) -> PrefixWitness | None:
    """Find m, n >= n_min with a^m = u*b^n + z and word_length(z) <= n.

    The acceptance threshold is the certified length bound of base b:
    norm(a^m - u*b^n) * norm(b)^m3 <= norm(b)^n.  The witness re-verifies
    its identity and the word of z before it is returned, and keeps that
    verdict as certified; the word of a^m follows from them (see
    PrefixWitness).  None means the search budget (max m) was exhausted.
    a and b have norm >= 5, the paper's hypothesis, and n_min and budget are ints >= 0,
    budget below FLOAT_LIMIT = 2^1024 - 2^970, where the floats overflow (BudgetExceeded).
    """
    norm_at_least(u, 1, "target")
    norm_at_least(a, LEAST_BASE_NORM, "generator")
    norm_at_least(b, LEAST_BASE_NORM, "base")
    int_at_least(n_min, 0, "n_min")
    _exponent_budget(budget, "budget")
    if mult_dependent(a, b).dependent:
        raise InvalidInput("%s and %s are multiplicatively dependent", a, b)
    tail = b.norm() ** length_bound(b).m3
    for m, n, z in _approximations(a, b, u, n_min, budget, 1, tail):
        witness = PrefixWitness(a=a, b=b, u=u, m=m, n=n, z=z)
        if witness.certified:
            return witness
    return None
