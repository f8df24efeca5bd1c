"""The three seeded workloads: query streams, query execution and checks.

Every input comes from the seed; the package only receives the generated
values.  Each workload repeats a fixed cycle of query kinds and draws the
values inside each kind from the seed, so the mix of work is the same on
every seed and only the operands change; a run makes LEAD opening queries
(run and checked once per run, but not timed) and then a whole number of
PERIODs of timed queries.  A run is made of PASSES fresh processes, each
running the queries ROUNDS times over, so that a query is timed PASSES x
ROUNDS times; workloads with cheap queries take more rounds, and the one
whose spread comes from its inputs takes more queries and fewer passes.
RATE sizes a run from its time budget S: a pass has S / PASSES x RATE /
ROUNDS queries, at least the runner's minimum, which fills about S
seconds of query time on a 2-vCPU 2.0 GHz Xeon VM.  ``execute`` is the
timed part; ``check`` runs after it, untimed, and re-derives the answer
with the independent arithmetic in ``exact`` wherever it can.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from itertools import count
from math import isqrt
from typing import Iterator, Optional

import exact
from exact import canonical_digits, horner, mul, norm, power, sub, text


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Outcome:
    ok: bool
    found: Optional[bool] = None  # set for witness/prefix searches only
    why: str = ""


OK = Outcome(True)


def _fail(why: str) -> Outcome:
    return Outcome(False, why=why)


def _disc(r2: int) -> list[tuple[int, int]]:
    r = isqrt(r2)
    return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y <= r2]


def _xy(g) -> tuple[int, int]:
    return (g.re, g.im)


def _word(w) -> list[tuple[int, int]]:
    return [(d.re, d.im) for d in w]


def _bases(norm_min: int, norm_max: int) -> list[tuple[int, int]]:
    return sorted((b for b in _disc(norm_max) if norm(b) >= norm_min), key=lambda b: (norm(b), b))


UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


# ---------------------------------------------------------------- lattice_scan


class LatticeScan:
    """Verify criteria 1-3 and 5 (and ``scan-bases``) over seeded bases.

    Each query draws a fresh base, builds its canonical digit set and
    certified length bound, then round-trips every point of a lattice disc
    (squared radius DISC around a seeded centre) through encode, decode,
    word_length and recoding to b^2 and b^3.  Query i draws its base from
    norm band i mod STRATA of the bases with norm <= NORM_MAX, so every run
    sees the same spread of norms.  The package's memo tables are emptied
    before each query, so each query pays its own per-base table fill.
    The disc is small, so that a query takes a few milliseconds and is
    timed ROUNDS x passes times.
    """

    name = "lattice_scan"
    layers = ("gaussint", "numeration")
    NORM_MAX = 128
    STRATA = 8
    DISC = 16
    CENTRE = 20
    PERIOD, LEAD = STRATA, 0
    PASSES, ROUNDS = 8, 4
    RATE = 130

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.offsets = _disc(self.DISC)

    def queries(self) -> Iterator[Query]:
        bases = _bases(5, self.NORM_MAX)
        size = -(-len(bases) // self.STRATA)
        strata = [bases[i : i + size] for i in range(0, len(bases), size)]
        c, rng = self.CENTRE, self.rng
        for i in count():
            b = rng.choice(strata[i % len(strata)])
            yield Query("scan", (b, (rng.randint(-c, c), rng.randint(-c, c))))

    def execute(self, api, q: Query):
        (bre, bim), (cre, cim) = q.args
        G = api.GaussInt
        D = api.canonical_digit_set(G(bre, bim))
        bound = api.length_bound(G(bre, bim))
        rows = []
        for x, y in self.offsets:
            z = G(cre + x, cim + y)
            w = api.encode(z, D)
            rows.append(
                (
                    z,
                    w,
                    api.decode(w, D),
                    api.word_length(z, D),
                    bool(w) and bound.within_bound(z, len(w) - 1),
                    api.recode(w, D, 2),
                    api.recode(w, D, 3),
                )
            )
        return D, bound, rows

    def check(self, q: Query, answer) -> Outcome:
        D, bound, rows = answer
        b = q.args[0]
        n = norm(b)
        digits = canonical_digits(b)
        if len(D.digits) != n or {_xy(d) for d in D.digits} != digits:
            return _fail(f"digit set of {b} is not the canonical box")
        m3 = max(len(exact.encode(z, b, digits)) for z in _disc(9))
        if bound.m3 != m3:
            return _fail(f"length bound m3={bound.m3} for {b}, expected {m3}")
        powers = {2: power(b, 2), 3: power(b, 3)}
        for z, w, v, ell, shorter, r2, r3 in rows:
            zp, wp = _xy(z), _word(w)
            if horner(wp, b) != zp or _xy(v) != zp:
                return _fail(f"round trip of {zp} over {b}")
            if any(d not in digits for d in wp) or (wp and wp[0] == (0, 0)) or ell != len(wp):
                return _fail(f"word of {zp} over {b} is not canonical")
            if wp and (shorter or norm(zp) * n**m3 <= n ** (len(wp) - 1)):
                return _fail(f"word of {zp} over {b} is longer than its certified bound")
            for j, r in ((2, r2), (3, r3)):
                rp = _word(r)
                if horner(rp, powers[j]) != zp or len(rp) != -(-len(wp) // j):
                    return _fail(f"recoding of {zp} to {b}^{j}")
        return OK


# --------------------------------------------------------- regularity_evidence


def _random_dfa(rng: random.Random, base, lo: int, hi: int) -> tuple:
    """A random DFA over the digits of base with lo..hi state-letters (states x digits)."""
    width = norm(base)
    n = max(1, rng.randint(lo, hi) // width)
    rows = tuple(tuple(rng.randrange(n) for _ in range(width)) for _ in range(n))
    return base, rows, frozenset(s for s in range(n) if rng.random() < 0.5)


def _same_language(rows1, acc1, rows2, acc2) -> bool:
    """Language equality of two DFAs (initial state 0) by BFS over state pairs."""
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        s1, s2 = todo.pop()
        if (s1 in acc1) != (s2 in acc2):
            return False
        for t in zip(rows1[s1], rows2[s2]):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return True


_KEEP = {
    "and": lambda x, y: x and y,
    "or": lambda x, y: x or y,
    "diff": lambda x, y: x and not y,
}


class RegularityEvidence:
    """Verify criteria 8-10 (and ``residuals``, ``dfa falsify/min/equiv``) on seeded pairs.

    Residual signatures run on norm-5 bases: growth pairs use generators
    of norm 4, whose class counts rise from k=4 to k=5 at e=2 over every
    norm-5 base (norm-2 and norm-5 generators plateau there on some
    bases); controls use a = b^j, whose counts stay within the j+2 states
    of the powers DFA.  Every run opens with one depth-8 census, whose
    level lists set the workload's peak memory; it is checked but not
    timed, as a single one-second query would set a tenth of the timed
    total.  Random DFAs stay within
    DFA_SIZE state-letters (states x digits), so no quadratic product
    dominates and their cost varies little from seed to seed.
    """

    name = "regularity_evidence"
    layers = ("gaussint", "numeration", "automata")
    NORM5 = tuple(b for b in _bases(5, 5))
    GENERATORS = ((2, 0), (-2, 0), (0, 2), (0, -2))
    ALPHABETS = tuple(_bases(5, 10))
    FALSIFY_WORDS = 25_000
    DFA_SIZE = (1350, 1650)
    # three minimize queries sit in the middle of the latency order, so
    # the median falls inside one kind; control and grow_hi set p90
    CYCLE = (
        "grow_lo",
        "grow_hi",
        "falsify",
        "minimize",
        "control",
        "product",
        "minimize",
        "falsify",
        "pump",
        "equivalent",
        "minimize",
    )
    # the census opens the run
    PERIOD, LEAD = len(CYCLE), 1
    PASSES, ROUNDS = 5, 1
    RATE = 35

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.grown: dict[int, int] = {}

    def queries(self) -> Iterator[Query]:
        rng = self.rng
        yield Query("residual", (rng.choice(self.NORM5), rng.choice(self.GENERATORS), 8, 0, "census", 0))
        falsify = count()
        pair = None
        for i in count():
            kind = self.CYCLE[i % len(self.CYCLE)]
            if kind == "grow_lo":
                pair = (rng.choice(self.NORM5), rng.choice(self.GENERATORS))
                yield Query("residual", (*pair, 4, 2, "grow_lo", i))
            elif kind == "grow_hi":
                yield Query("residual", (*pair, 5, 2, "grow_hi", i - 1))
            elif kind == "control":
                b, j = rng.choice(self.NORM5), rng.randint(1, 3)
                yield Query("residual", (b, power(b, j), 5, 2, "control", j))
            elif kind == "falsify":
                yield self._falsify(next(falsify) % 3)
            elif kind == "pump":
                yield self._pump()
            elif kind == "minimize":
                yield Query("minimize", (_random_dfa(rng, rng.choice(self.ALPHABETS), *self.DFA_SIZE),))
            elif kind == "product":
                b = rng.choice(self.ALPHABETS)
                big = _random_dfa(rng, b, *self.DFA_SIZE)
                small = _random_dfa(rng, b, 2 * norm(b), 12 * norm(b))
                yield Query("product", (big, small, rng.choice(sorted(_KEEP))))
            else:
                base, rows, acc = _random_dfa(rng, rng.choice(self.ALPHABETS), *self.DFA_SIZE)
                perm = list(range(1, len(rows)))
                rng.shuffle(perm)
                perm = [0] + perm
                moved = [None] * len(rows)
                for s, row in enumerate(rows):
                    moved[perm[s]] = tuple(perm[t] for t in row)
                moved_acc = {perm[s] for s in acc}
                if rng.random() < 0.5:  # flip one state: inequivalent unless it is unreachable or redundant
                    moved_acc ^= {rng.randrange(len(rows))}
                yield Query("equivalent", ((base, rows, acc), (base, tuple(moved), frozenset(moved_acc))))

    def _max_len(self, base) -> int:
        m, length = norm(base), 0
        while sum(m**i for i in range(length + 2)) <= self.FALSIFY_WORDS:
            length += 1
        return length

    def _falsify(self, variant: int) -> Query:
        if variant == 0:
            b = self.rng.choice(self.ALPHABETS)
            return Query("falsify", ("powers", b, b, self._max_len(b)))
        if variant == 1:
            r = self.rng.choice((3, 5))
            return Query("falsify", ("integers", (r, 0), None, self._max_len((r, 0))))
        b = self.rng.choice(self.ALPHABETS)
        return Query("falsify", ("powers", b, power(b, 2), self._max_len(b)))

    def _pump(self) -> Query:
        rng = self.rng
        b = rng.choice(self.ALPHABETS)
        if rng.random() < 0.5:
            value = (rng.choice((-1, 1)) * rng.randint(2, 10**6), 0)
            return Query("pump", (b, "integers", value, rng.randint(1, 3), 8))
        p = rng.randint(1, 12)
        return Query("pump", (b, "powers", power(b, p), rng.randint(1, 3), 8))

    def _dfa(self, api, spec):
        base, rows, acc = spec
        return api.Dfa(api.canonical_digit_set(api.GaussInt(*base)), 0, rows, acc)

    def execute(self, api, q: Query):
        G = api.GaussInt
        if q.kind == "residual":
            b, a, k, e = q.args[:4]
            D = api.canonical_digit_set(G(*b))
            return api.residual_signatures(api.powers_oracle(G(*a), D), k, e).class_count
        if q.kind == "falsify":
            kind, b, a, max_len = q.args
            if kind == "integers":
                dfa = api.integers_dfa(b[0])
                oracle = api.integers_oracle(dfa.alphabet)
            else:
                dfa = api.powers_dfa(G(*b))
                oracle = api.powers_oracle(G(*a), dfa.alphabet)
            return api.dfa_oracle_disagreement(dfa, oracle, max_len)
        if q.kind == "pump":
            b, which, value, k, reps = q.args
            D = api.canonical_digit_set(G(*b))
            oracle = api.integers_oracle(D) if which == "integers" else api.powers_oracle(G(*b), D)
            word = api.encode(G(*value), D)
            return word, api.zero_pump_probe(oracle, word, k, reps)
        if q.kind == "minimize":
            d = self._dfa(api, q.args[0])
            m = api.minimize(d)
            again = api.minimize(m)
            loaded = api.dfa_from_json(api.dfa_to_json(m))
            return d, m, again, loaded, api.equivalent(d, m)
        if q.kind == "product":
            spec1, spec2, mode = q.args
            return api.product(self._dfa(api, spec1), self._dfa(api, spec2), mode)
        return api.equivalent(self._dfa(api, q.args[0]), self._dfa(api, q.args[1]))

    def check(self, q: Query, answer) -> Outcome:
        if q.kind == "residual":
            role, key = q.args[4], q.args[5]
            if role == "census":
                return OK if answer == 2 else _fail(f"census found {answer} classes, expected 2")
            if role == "control":
                return OK if 1 <= answer <= key + 2 else _fail(f"control b^{key} has {answer} classes")
            if role == "grow_lo":
                self.grown[key] = answer
                return OK
            lo = self.grown.pop(key, None)
            if lo is not None and not lo < answer:
                return _fail(f"independent counts did not grow: {lo} -> {answer} for {q.args[:2]}")
            return OK
        if q.kind == "falsify":
            kind, b, a, _ = q.args
            expected = [(1, 0), (0, 0)] if kind == "powers" and a != b else None
            got = None if answer is None else _word(answer)
            return OK if got == expected else _fail(f"falsify {q.args}: {got}, expected {expected}")
        if q.kind == "pump":
            b, which, value, k, reps = q.args
            word, probe = answer
            wp = _word(word)
            if horner(wp, b) != value:
                return _fail(f"pump word of {value} over {b}")
            expected = []
            for j in range(reps + 1):
                v = horner(wp[:1] + [(0, 0)] * (j * k) + wp[1:], b)
                expected.append(v[1] == 0 if which == "integers" else True)
            return OK if list(probe) == expected else _fail(f"pump {q.args}: {probe}")
        if q.kind == "minimize":
            d, m, again, loaded, equal = answer
            if not (equal and again == m and loaded == m and m.state_count <= d.state_count):
                return _fail("minimize is not idempotent, round-trip stable and language-preserving")
            if not _same_language(d.transitions, d.accepting, m.transitions, m.accepting):
                return _fail("minimized DFA recognizes another language")
            return OK
        if q.kind == "product":
            (_, rows1, acc1), (_, rows2, acc2), mode = q.args
            keep = _KEEP[mode]
            rows, acc = answer.transitions, answer.accepting
            seen = {(0, 0): answer.initial}
            todo = [(0, 0)]
            while todo:
                s1, s2 = todo.pop()
                sp = seen[(s1, s2)]
                if (sp in acc) != keep(s1 in acc1, s2 in acc2):
                    return _fail(f"product state {sp} has the wrong acceptance")
                for t, tp in zip(zip(rows1[s1], rows2[s2]), rows[sp]):
                    if t not in seen:
                        seen[t] = tp
                        todo.append(t)
                    elif seen[t] != tp:
                        return _fail("product transitions disagree with the pair automaton")
            if not len(seen) == len(set(seen.values())) == answer.state_count:
                return _fail("product states are not the reachable state pairs")
            return OK
        (_, rows1, acc1), (_, rows2, acc2) = q.args
        expected = _same_language(rows1, acc1, rows2, acc2)
        return OK if answer == expected else _fail(f"equivalent returned {answer}, expected {expected}")


# -------------------------------------------------------------- witness_search


class WitnessSearch:
    """Verify criteria 6-7 (and ``deptest``, ``witness``, ``prefix --depth``) through the CLI.

    Each query runs ``gaussbase.cli.main`` in-process with stdout captured
    and checks the JSON report.  Searches use pairs with coprime norms,
    which are independent.  ``witness_found`` queries carry a target u
    and a bound built from a^m0 / b^n0, so a witness with m <= m0 exists
    and the search must find it; ``witness_exhaust`` queries use a bound
    no pair reaches.  Prefix queries either chain one level past a short
    witness (the second level exhausts the 2048 budget) or start at
    n >= PREFIX_N_MIN, which makes words of about 1000 digits.  Prime-norm
    deptests alternate between norms near 10^11 and 10^12, so trial
    division sets part of the tail.
    """

    name = "witness_search"
    layers = ("gaussint", "numeration", "automata", "dependence", "cli")
    SEARCH = tuple(_bases(5, 13))
    TARGETS = tuple(_bases(1, 10))
    PRIME_NORMS = (10**11, 10**12)
    BUDGET = 2048
    PREFIX_N_MIN = (700, 900)
    FOUND_M = (256, 384)
    EXHAUST_M = 512
    # Four cheap deptest/witness kinds, four witness_exhaust and four tail
    # kinds (prime-norm deptests, prefix searches) per cycle: the median
    # latency falls in the middle of one kind and p90 inside the tail.
    CYCLE = (
        "dependent",
        "independent",
        "witness_found",
        "independent",
        "witness_exhaust",
        "witness_exhaust",
        "witness_exhaust",
        "witness_exhaust",
        "prefix_long",
        "prefix_chain",
        "prime",
        "prime",
    )
    PERIOD, LEAD = len(CYCLE), 0
    PASSES, ROUNDS = 2, 1
    RATE = 34

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.primes = count()
        self.digits: dict = {}

    def _pair(self) -> tuple:
        while True:
            a, b = self.rng.choice(self.SEARCH), self.rng.choice(self.SEARCH)
            if math.gcd(norm(a), norm(b)) == 1:
                return a, b

    def queries(self) -> Iterator[Query]:
        make = {kind: getattr(self, "_" + kind) for kind in self.CYCLE}
        for i in count():
            yield make[self.CYCLE[i % len(self.CYCLE)]]()

    def _dependent(self) -> Query:
        rng = self.rng
        while True:
            g = (rng.randint(-7, 7), rng.randint(-7, 7))
            if norm(g) > 1:
                break
        a = mul(rng.choice(UNITS), power(g, rng.randint(20, 60)))
        b = mul(rng.choice(UNITS), power(g, rng.randint(20, 60)))
        return Query("deptest", (a, b, True))

    def _independent(self) -> Query:
        rng = self.rng
        if rng.random() < 0.5:
            a, b = self._pair()
            return Query("deptest", (a, b, False))
        # same prime support, exponent vectors not proportional
        g1, g2 = (2, 1), (1, 2)
        while True:
            x1, y1, x2, y2 = (rng.randint(1, 20) for _ in range(4))
            if x1 * y2 != x2 * y1:
                break
        a = mul(power(g1, x1), power(g2, y1))
        b = mul(rng.choice(UNITS), mul(power(g1, x2), power(g2, y2)))
        return Query("deptest", (a, b, False))

    def _prime(self) -> Query:
        rng = self.rng
        target = self.PRIME_NORMS[next(self.primes) % len(self.PRIME_NORMS)]
        # a norm within 0.1% above the target, so trial division costs the
        # same on every seed
        lo, hi = isqrt(target // 4), isqrt(target * 3 // 4)
        while True:
            x = rng.randint(lo, hi)
            a = (x, isqrt(target - x * x) + rng.randint(1, 100))
            if exact.is_prime(norm(a)):
                return Query("deptest", (a, rng.choice(self.SEARCH), False))

    def _witness_found(self) -> Query:
        rng = self.rng
        while True:
            a, b = self._pair()
            m0 = rng.randint(*self.FOUND_M)
            la, lb = math.log(norm(a)) / 2, math.log(norm(b)) / 2
            n0 = math.floor((m0 * la - math.log(2)) / lb)
            am, bn = power(a, m0), power(b, n0)
            u = exact.round_div(am, bn)
            if norm(u) >= 4:
                break
        den = 10**6
        num = -(-norm(sub(am, mul(u, bn))) * den // norm(bn))
        return Query("witness", (a, b, u, (num, den), m0, True))

    def _witness_exhaust(self) -> Query:
        rng = self.rng
        a, b = self._pair()
        return Query("witness", (a, b, rng.choice(self.TARGETS), (1, 10**15), self.EXHAUST_M, False))

    def _prefix_chain(self) -> Query:
        a, b = self._pair()
        return Query("prefix", (a, b, (1, 0), self.rng.randint(0, 8), self.BUDGET, 1))

    def _prefix_long(self) -> Query:
        rng = self.rng
        a, b = self._pair()
        la, lb = math.log(norm(a)), math.log(norm(b))
        # start the search well inside the budget so that it finds a witness
        n_min = min(rng.randint(*self.PREFIX_N_MIN), int(self.BUDGET * 0.6 * la / lb))
        return Query("prefix", (a, b, (1, 0), n_min, self.BUDGET, 0))

    @staticmethod
    def argv(q: Query) -> list[str]:
        if q.kind == "deptest":
            a, b, _ = q.args
            return ["deptest", "--", text(a), text(b)]
        if q.kind == "witness":
            a, b, u, (num, den), m_max, _ = q.args
            return ["witness", "--bound", f"{num}/{den}", "--m-max", str(m_max), "--", text(a), text(b), text(u)]
        a, b, u, n_min, budget, depth = q.args
        return [
            "prefix", "--n-min", str(n_min), "--budget", str(budget), "--depth", str(depth),
            "--", text(a), text(b), text(u),
        ]

    def execute(self, api, q: Query):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = api.main(self.argv(q))
        report = out.getvalue()
        api.note("cli.main", len(report.encode()))
        return code, report

    def _digits(self, b):
        if b not in self.digits:
            self.digits[b] = canonical_digits(b)
        return self.digits[b]

    def _prefix_ok(self, a, b, u, entry) -> bool:
        """Re-verify one prefix witness from its report fields alone."""
        m, n, z = entry["m"], entry["n"], exact.parse(entry["z"])
        am = power(a, m)
        if am != exact.add(mul(u, power(b, n)), z) or entry["certified"] is not True:
            return False
        word_am, word_u = exact.parse_word(entry["word_am"]), exact.parse_word(entry["word_u"])
        digits = self._digits(b)
        if any(d not in digits for d in word_am) or not word_am or word_am[0] == (0, 0):
            return False
        # word(a^m) = word(u) followed by an n-digit block whose value is z
        tail = word_am[len(word_u) :]
        return (
            word_am[: len(word_u)] == word_u
            and len(tail) == n
            and horner(word_u, b) == u
            and horner(tail, b) == z
        )

    def check(self, q: Query, answer) -> Outcome:
        code, report = answer
        report = json.loads(report)
        results = report["results"]
        if q.kind == "deptest":
            a, b, dependent = q.args
            if code != 0 or results["dependent"] is not dependent:
                return _fail(f"deptest {q.args}: {results}")
            if dependent:
                r, s = results["r"], results["s"]
                if not (r > 0 and s > 0 and power(a, r) == power(b, s)):
                    return _fail(f"deptest {q.args}: a^{r} != b^{s}")
            return OK
        if q.kind == "witness":
            a, b, u, (num, den), m_max, must_find = q.args
            if code == 2:
                ok = not must_find and results == {"searched_m_max": m_max}
                return Outcome(ok, False, "" if ok else f"witness {q.args}: {results}")
            m, n = results["m"], results["n"]
            z = sub(power(a, m), mul(u, power(b, n)))
            ok = (
                code == 0
                and results["certified"] is True
                and (results["err_num"], results["err_den"]) == (num, den)
                and exact.parse(results["u"]) == u
                and 1 <= m <= m_max
                and norm(z) * den <= num * norm(b) ** n
            )
            return Outcome(ok, True, "" if ok else f"witness {q.args}: {results}")
        a, b, u, n_min, budget, depth = q.args
        chain = results.get("chain", [results["witness"]] if results.get("witness") else [])
        if code not in (0, 2) or (code == 0) != (len(chain) == depth + 1):
            return _fail(f"prefix {q.args}: exit {code} with {len(chain)} witnesses")
        for entry in chain:
            if not (n_min <= entry["n"] and entry["m"] <= budget and self._prefix_ok(a, b, u, entry)):
                return _fail(f"prefix {q.args}: witness {entry['m']} fails re-verification")
            u = power(a, entry["m"])
        return Outcome(True, bool(chain))


WORKLOADS = {w.name: w for w in (LatticeScan, RegularityEvidence, WitnessSearch)}
