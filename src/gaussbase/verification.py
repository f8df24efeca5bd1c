"""End-to-end verification suite: ten checks with frozen expectations.

Each check re-derives its expected values from independent enumeration
(lattice scans, exhaustive word enumeration, explicit re-verification of
witnesses) rather than trusting the operation under test, measures its
runtime against a fixed budget, and reports structured details.  The CLI
`verify` command and the test suite both run these.  As d*conj(b) is linear
in d, criterion 1 keys each digit by its residue pair mod norm(b); as the length
bound is monotone in k, criterion 3 tests each point at its least admitting k.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_left

from .automata import (
    Dfa,
    complement,
    dfa_from_json,
    dfa_oracle_disagreement,
    dfa_to_json,
    equivalent,
    integers_dfa,
    integers_oracle,
    minimize,
    powers_dfa,
    powers_oracle,
    product,
    residual_signatures,
    zero_pump_probe,
)
from .dependence import mult_dependent, prefix_extension
from .gaussint import ONE, ZERO, GaussInt
from .numeration import (
    DigitSet,
    canonical_digit_set,
    check_linked,
    decode,
    encode,
    lattice_disc,
    length_bound,
    max_length_in_disc,
    power_digit_set,
    recode,
    terminates_on_disc,
    word_length,
)

#: Bases exercised by the representation checks.
SCAN_BASES = (
    GaussInt(2, 1),
    GaussInt(-1, 2),
    GaussInt(-2, 1),
    GaussInt(3, 0),
    GaussInt(1, 3),
)

#: m3 of each scan base, the longest canonical word over the disc norm(z) <= 9.
_SCAN_M3 = dict(zip(SCAN_BASES, (3, 3, 3, 2, 2)))

_SMALL_DIGITS = (
    GaussInt(-1, 0),
    GaussInt(0, -1),
    GaussInt(0, 0),
    GaussInt(0, 1),
    GaussInt(1, 0),
)


class CheckResult:
    """One named check: collects failures and details while it runs, then finish() times it."""

    def __init__(self, name: str, budget_seconds: float | None) -> None:
        self.name = name
        self.budget_seconds = budget_seconds
        self.seconds = 0.0
        self.details: dict = {}
        self.failures: list[str] = []
        self.started = time.perf_counter()

    @property
    def passed(self) -> bool:
        return not self.failures

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def finish(self) -> CheckResult:
        self.seconds = time.perf_counter() - self.started
        if self.budget_seconds is not None and self.seconds >= self.budget_seconds:
            self.failures.append(f"runtime {self.seconds:.2f}s exceeded {self.budget_seconds:.0f}s")
        return self

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict}  {self.name}  ({self.seconds:.2f}s)"
        if self.failures:
            line += f"  [{self.failures[0]}]"
        return line


def check_digit_sets() -> CheckResult:
    """Canonical digit sets: the three norm-5 bases, and every base of norm 5..100.

    b | d - e exactly when both parts of (d - e)*conj(b) are 0 mod N = norm(b), so exactly when
    d*conj(b) and e*conj(b) have the same residue pair mod N; the check computes it, not a table."""
    c = CheckResult("1 digit sets", budget_seconds=5.0)
    for b in (GaussInt(2, 1), GaussInt(-1, 2), GaussInt(-2, 1)):
        got = canonical_digit_set(b).digits
        c.expect(got == _SMALL_DIGITS, f"canonical digits of {b}: {got}")
    bases = [b for b in lattice_disc(100) if b.norm() >= 5]
    for b in bases:
        n = b.norm()
        digits = canonical_digit_set(b).digits
        c.expect(len(digits) == n, f"|D| != norm for base {b}")
        first = {}  # residue pair of d*conj(b) mod n -> index of the first digit that has it
        for i, t in enumerate(d * b.conj() for d in digits):
            j = first.setdefault((t.re % n, t.im % n), i)
            if j != i:
                c.expect(False, f"congruent digits {digits[j]}, {digits[i]} mod {b}")
    c.details["bases_scanned"] = len(bases)
    return c.finish()


def check_uniqueness() -> CheckResult:
    """decode(encode(z)) = z on a disc per base; encode(decode(w)) = w for short words."""
    c = CheckResult("2 representation uniqueness", budget_seconds=None)
    for b in SCAN_BASES:
        D = canonical_digit_set(b)
        t0 = time.perf_counter()
        bad = sum(1 for z in lattice_disc(10**4) if decode(encode(z, D), D) != z)
        dt = time.perf_counter() - t0
        c.expect(bad == 0, f"{bad} roundtrip failures for base {b}")
        c.expect(dt < 10.0, f"base {b} disc took {dt:.2f}s (>= 10s)")
    D = canonical_digit_set(GaussInt(2, 1))
    words = [w for length in range(6) for w in itertools.product(D.digits, repeat=length) if w[:1] != (ZERO,)]
    bad_words = [w for w in words if encode(decode(w, D), D) != w]
    c.expect(not bad_words, f"{len(bad_words)} word roundtrip failures")
    c.details["words_checked"] = len(words)
    return c.finish()


def check_length_bound() -> CheckResult:
    """Certified word-length bound, plus the disc-shrinking recursion on maxima.

    The bound admits z at every k from the least k with norm(z)*n^m3 <= n^k on, so it breaks
    at some k <= 12 exactly when that k is at most 12 and the word of z is longer than k."""
    c = CheckResult("3 length bound", budget_seconds=None)
    detail = {}
    for b in SCAN_BASES:
        D = canonical_digit_set(b)
        n = b.norm()
        m3 = max_length_in_disc(9, D)
        lb = length_bound(b)
        c.expect(m3 == _SCAN_M3[b], f"m3 = {m3} for {b}, expected {_SCAN_M3[b]}")
        c.expect(lb.m3 == m3, f"length_bound(m3) mismatch for {b}")
        nm3 = n**m3
        nk = [n**k for k in range(13)]
        shell_max = [0] * 6  # longest word in shell j: n^(j-1) < norm(z) <= n^j, shell 0 norm(z) <= 1
        for z in lattice_disc(n**5):
            n2 = z.norm()
            ell = word_length(z, D)
            j = bisect_left(nk, n2, 0, 6)
            shell_max[j] = max(shell_max[j], ell)
            if n2 <= 10**4:
                k = bisect_left(nk, n2 * nm3)  # the least k whose bound admits z
                if k <= 12 and ell > k:
                    c.expect(False, f"bound broken: base {b}, z={z}, k={k}")
        max_at = list(itertools.accumulate(shell_max, max))  # max_at[k]: the longest word within norm <= n^k
        for k in range(1, 6):
            c.expect(
                max_at[k] <= m3 + k - 1,
                f"recursion broken for {b}: M(n^{k})={max_at[k]} > {m3 + k - 1}",
            )
        sample = GaussInt(7, -3)
        c.expect(
            lb.within_bound(sample, 12) == (sample.norm() * nm3 <= nk[12]),
            f"within_bound disagrees with raw predicate for {b}",
        )
        detail[str(b)] = {"m3": m3, "max_at_nk": max_at[1:]}
    c.details["per_base"] = detail
    return c.finish()


def check_linking() -> CheckResult:
    """Reflexive linking for the scan bases; the {0..4} digit set links to canonical."""
    c = CheckResult("4 digit-set linking", budget_seconds=30.0)
    for b in SCAN_BASES:
        D = canonical_digit_set(b)
        c.expect(check_linked(D, D) is not None, f"self-link failed for {b}")
    base = GaussInt(-2, 1)
    alt = DigitSet(base, tuple(GaussInt(k, 0) for k in range(5)))
    c.expect(terminates_on_disc(alt), "termination probe failed for {0..4}")
    cert = check_linked(alt, canonical_digit_set(base))
    c.expect(cert is not None, "linking {0..4} -> canonical failed")
    if cert is not None:
        c.details["envelope_size"] = len(cert.envelope)
    return c.finish()


def check_power_recoding() -> CheckResult:
    """Base b vs b^j: recoded words decode unchanged; power digit set size."""
    c = CheckResult("5 base-power recoding", budget_seconds=None)
    D = canonical_digit_set(GaussInt(2, 1))
    powers = {j: power_digit_set(D, j) for j in (2, 3)}
    c.expect(len(powers[2].digits) == 25, "|power digit set|^2 != 25")
    for j, P in powers.items():
        bad = sum(
            1 for z in lattice_disc(2500) if decode(recode(encode(z, D), D, j), P) != z
        )
        c.expect(bad == 0, f"{bad} recode roundtrip failures for j={j}")
    return c.finish()


def check_dependence() -> CheckResult:
    """Dependence verdicts on fixed pairs and 50 constructed dependent pairs."""
    c = CheckResult("6 multiplicative dependence", budget_seconds=5.0)
    v = mult_dependent(GaussInt(3, 4), GaussInt(2, 1))
    c.expect((v.dependent, v.r, v.s) == (True, 1, 2), f"(3+4i, 2+i) gave {v}")
    v = mult_dependent(GaussInt(2, 0), GaussInt(4, 0))
    c.expect((v.dependent, v.r, v.s) == (True, 2, 1), f"(2, 4) gave {v}")
    v = mult_dependent(GaussInt(2, 1), GaussInt(1, 2))
    c.expect(not v.dependent, f"(2+i, 1+2i) gave {v}")
    rng = random.Random(20260808)
    checked = 0
    while checked < 50:
        gamma = GaussInt(rng.randint(-6, 6), rng.randint(-6, 6))
        if gamma.norm() <= 1:
            continue
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        a, b = gamma**p, gamma**q
        verdict = mult_dependent(a, b)
        c.expect(verdict.dependent, f"({gamma}^{p}, {gamma}^{q}) judged independent")
        if verdict.dependent:
            c.expect(
                a**verdict.r == b**verdict.s,
                f"verdict ({verdict.r},{verdict.s}) fails re-verification for ({a},{b})",
            )
        checked += 1
    c.details["random_pairs"] = checked
    return c.finish()


def check_prefix_witnesses() -> CheckResult:
    """Prefix-extension witnesses for u = 1 and u = b, re-verified from scratch."""
    c = CheckResult("7 prefix extension", budget_seconds=60.0)
    a, b = GaussInt(1, 2), GaussInt(2, 1)
    D = canonical_digit_set(b)
    for u, want_prefix in ((ONE, (ONE,)), (b, (ONE, ZERO))):
        w = prefix_extension(a, b, u, n_min=3, budget=256)
        c.expect(w is not None, f"no witness for u={u} within budget")
        if w is None:
            continue
        c.expect(a**w.m == u * b**w.n + w.z, f"identity fails for u={u}")
        c.expect(word_length(w.z, D) <= w.n, f"word length of z exceeds n for u={u}")
        word_am = encode(a**w.m, D)
        word_u = encode(u, D)
        c.expect(word_am[: len(word_u)] == word_u, f"prefix property fails for u={u}")
        c.expect(
            word_am[: len(want_prefix)] == want_prefix,
            f"expected leading digits {want_prefix} for u={u}",
        )
        c.details[f"u={u}"] = {"m": w.m, "n": w.n, "z": str(w.z)}
    return c.finish()


def check_residual_evidence() -> CheckResult:
    """Residual-class growth separates independent pairs from dependent controls."""
    c = CheckResult("8 residual evidence", budget_seconds=120.0)
    b = GaussInt(2, 1)
    D = canonical_digit_set(b)
    target = powers_oracle(GaussInt(1, 2), D)
    control = powers_oracle(b, D)
    target_counts = [residual_signatures(target, k, 3).class_count for k in (2, 4, 6)]
    control_counts = [residual_signatures(control, k, 3).class_count for k in (2, 4, 6)]
    c.expect(
        target_counts[0] < target_counts[1] < target_counts[2],
        f"independent pair counts not strictly increasing: {target_counts}",
    )
    c.expect(
        all(n <= 4 for n in control_counts),
        f"dependent control counts exceed 4: {control_counts}",
    )
    c.expect(
        dfa_oracle_disagreement(powers_dfa(b), control, 8) is None,
        "powers DFA disagrees with its own oracle within length 8",
    )
    c.details["target_counts"] = target_counts
    c.details["control_counts"] = control_counts
    return c.finish()


def check_real_base() -> CheckResult:
    """Integer words over base 3 are regular; over base 2+i zero-pumping escapes Z."""
    c = CheckResult("9 real-base words", budget_seconds=30.0)
    c.expect(
        dfa_oracle_disagreement(integers_dfa(3), integers_oracle(canonical_digit_set(GaussInt(3, 0))), 5)
        is None,
        "integers DFA disagrees with the oracle within length 5",
    )
    D = canonical_digit_set(GaussInt(2, 1))
    probe = zero_pump_probe(integers_oracle(D), encode(GaussInt(5, 0), D), 1, 8)
    c.expect(probe[0], "unpumped word must be a member")
    c.expect(not all(probe), f"pump probe stayed all-true: {probe}")
    c.details["pump_probe"] = list(probe)
    return c.finish()


def random_dfa(alphabet: DigitSet, rng: random.Random) -> Dfa:
    """A random total DFA of 1-6 states over the given alphabet (deterministic per rng state)."""
    n = rng.randint(1, 6)
    width = len(alphabet.digits)
    rows = tuple(
        tuple(rng.randrange(n) for _ in range(width)) for _ in range(n)
    )
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return Dfa(alphabet, 0, rows, accepting)


def check_dfa_engine() -> CheckResult:
    """Minimization, De Morgan duality, and JSON round-trips on random DFAs."""
    c = CheckResult("10 DFA engine", budget_seconds=10.0)
    D = canonical_digit_set(GaussInt(2, 1))
    rng = random.Random(1905)
    dfas = [random_dfa(D, rng) for _ in range(100)]
    for i, d in enumerate(dfas):
        m = minimize(d)
        c.expect(equivalent(d, m), f"minimize changed the language of dfa #{i}")
        c.expect(minimize(m) == m, f"minimize not idempotent on dfa #{i}")
        c.expect(dfa_from_json(dfa_to_json(d)) == d, f"JSON roundtrip broke dfa #{i}")
    for i in range(0, 100, 2):
        d1, d2 = dfas[i], dfas[i + 1]
        lhs = complement(product(d1, d2, "and"))
        rhs = product(complement(d1), complement(d2), "or")
        c.expect(equivalent(lhs, rhs), f"De Morgan fails on pair #{i}")
    return c.finish()


ALL_CHECKS = (
    check_digit_sets,
    check_uniqueness,
    check_length_bound,
    check_linking,
    check_power_recoding,
    check_dependence,
    check_prefix_witnesses,
    check_residual_evidence,
    check_real_base,
    check_dfa_engine,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
