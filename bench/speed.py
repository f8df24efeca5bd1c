"""The machine's momentary speed, measured by a fixed calibration probe.

On a shared 2-vCPU VM, other tenants slow all Python code by a factor of
1.2 to 2.7 for seconds to minutes at a time, with no steal time and a
process CPU time equal to its wall time, and a whole run can fall inside
such a spell, so no best-of or median within one run removes it.  Each
timing is therefore scaled by the speed measured right next to it:
``probe()`` runs a fixed piece of pure Python work (arithmetic on small
two-slot objects and dict updates, like the package's inner loops), and a
time t taken while the probe reads p is reported as t x NOMINAL_S / p, the
time t would have taken at the speed where the probe reads NOMINAL_S (about
its fastest reading on a 2.0 GHz Xeon VM).  On that VM the scaled times of
one query stay within a few percent while the slowdown ranges from 1.2 to
2.7, against a spread of a factor two in the raw ones.  The probe is the
benchmark's own code, so a change to the package moves the scaled times
as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0004
# readings on each side of a timing that make up its local speed
SPAN = 2


class _Pair:
    """A Gaussian integer as the package's inner loops use one: a small object with two int slots."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        self.re = re
        self.im = im

    def __mul__(self, o: "_Pair") -> "_Pair":
        return _Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __add__(self, o: "_Pair") -> "_Pair":
        return _Pair(self.re + o.re, self.im + o.im)

    def __eq__(self, o: object) -> bool:
        return isinstance(o, _Pair) and self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))


_BASE = _Pair(2, 1)


def probe() -> float:
    """Seconds the calibration work takes now."""
    start = time.perf_counter()
    acc, seen = _Pair(0, 0), {}
    for i in range(300):
        acc = acc * _BASE + _Pair(i & 3, 1)
        acc = _Pair(acc.re % 10007, acc.im % 10007)
        seen[acc] = seen.get(acc, 0) + 1
    return time.perf_counter() - start


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to nominal speed by the median of the probe readings around it.

    probes[i] is the reading taken just before times[i]; the median of the
    readings SPAN either side keeps one disturbed reading from skewing a
    timing.
    """
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - SPAN) : i + SPAN + 1])
        out.append(t * NOMINAL_S / local)
    return out
