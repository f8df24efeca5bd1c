"""Spans around calls into the gaussbase layers, and the per-layer metrics.

The package is not changed.  ``library()`` hands the workloads the public
functions of the layers they use; with a ``Tracer`` it hands out wrappers
instead, and ``Tracer.install()`` also replaces every module-level name one
layer imports from another (``automata.is_power_of``,
``dependence.factorize``, ``dependence.encode``, the ``cli`` imports, ...)
and ``PrefixWitness.verify``.  Calls inside one module are not seen, so a
span's self time includes the private helpers it runs.

Each wrapped call inside a query is a span: name, start, end, parent and
query id.  The calls made once per enumerated word or lattice point
(``FOLDED``) would be millions of spans a run, so they only add to
per-name totals and to their parent's child time; every other span is kept
in memory and written out when the run ends.  A span's self time is its
duration minus its child spans.  The cost of one wrapper, calibrated on a
no-op, is taken out of the caller's self time and out of every enclosing
duration.

Per-layer self time comes from the ``Sampler`` instead: a CPU-time timer
samples the stack of the untraced runs, and each sample goes to the layer
of its innermost package frame.  So ``GaussInt`` arithmetic called from
``numeration`` or ``dependence`` counts as ``gaussint`` time, which
wrapping every operator method could not measure without a wrapper as
costly as the operation itself.

Work counts come from inputs and answers (word lengths, signature bits,
states x letters, the returned exponent or the budget), never from the
package's internal steps, so an implementation cannot lower a count by
doing less work.
"""

from __future__ import annotations

import dis
import functools
import importlib
import inspect
import json
import os
import resource
import signal
import statistics
import sys
import time
from types import SimpleNamespace

LAYERS = ("gaussint", "numeration", "automata", "dependence", "cli")

FOLDED = frozenset(
    {
        "gaussint.is_power_of",
        "numeration.encode",
        "numeration.decode",
        "numeration.word_length",
        "numeration.recode",
    }
)

# the span around one whole query; calls outside it are not recorded
QUERY = "bench.query"

# the only span whose growth of the process's peak memory is reported
RSS_SPAN = "automata.residual_signatures"


def _geometric(m: int, top: int) -> int:
    return sum(m**i for i in range(top + 1))


def _word_rank(word, alphabet) -> int:
    """Words enumerated by the shortest-then-lexicographic search up to and including word."""
    index = {d: i for i, d in enumerate(alphabet.digits)}
    m = len(index)
    rank = 0
    for d in word:
        rank = rank * m + index[d]
    return _geometric(m, len(word) - 1) + rank + 1 if word else 1


def _residual_bits(args, kwargs, result) -> int:
    oracle, k, e = args
    m = len(oracle.alphabet.digits)
    return _geometric(m, k) * _geometric(m, e)


def _disagreement_words(args, kwargs, result) -> int:
    dfa, _, max_len = args
    if result is None:
        return _geometric(len(dfa.alphabet.digits), max_len)
    return _word_rank(result, dfa.alphabet)


# name -> work units of one call, from its arguments and its answer
WORK = {
    "numeration.canonical_digit_set": lambda a, k, r: len(r.digits),
    "numeration.encode": lambda a, k, r: len(r),
    "numeration.decode": lambda a, k, r: len(a[0]),
    "numeration.recode": lambda a, k, r: len(a[0]),
    "automata.residual_signatures": _residual_bits,
    "automata.dfa_oracle_disagreement": _disagreement_words,
    "automata.minimize": lambda a, k, r: a[0].state_count * len(a[0].alphabet.digits),
    "automata.product": lambda a, k, r: r.state_count * len(r.alphabet.digits),
    "dependence.group_witness": lambda a, k, r: r.m if r is not None else a[5],
    "dependence.prefix_extension": lambda a, k, r: r.m if r is not None else a[4],
}


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self, wrapper_ns: tuple[int, int] | None = None) -> None:
        self.query = -1
        # (name, parent record index or -1, query id, start ns, end ns)
        self.records: list[tuple[str, int, int, int, int]] = []
        # name -> [calls, inclusive ns, self ns, work units, max-RSS growth kB,
        #          wrapper cost inside the inclusive ns, wrapper cost inside the self ns]
        self.stats: dict[str, list[int]] = {}
        # [record index, child ns, wrapper cost of the children, of all descendants]
        self._stack: list[list[int]] = []
        # (module or class, attribute, original, wrapper) for enable()
        self._patches: list[tuple] = []
        # the cost of one wrapper (folded, span), taken out of its caller's
        # self time and of every enclosing span's duration
        if wrapper_ns is None:
            wrapper_ns = (_wrapper_cost_ns("gaussint.is_power_of"), _wrapper_cost_ns("bench.probe"))
        self.wrapper_ns = wrapper_ns

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0] * 7)
        work = WORK.get(name)
        folded = name in FOLDED
        rss = name == RSS_SPAN
        # a cached function does its work only on a miss
        cache_info = getattr(fn, "cache_info", None)
        stack = self._stack
        records = self.records
        clock = time.perf_counter_ns
        own = self.wrapper_ns[0 if folded else 1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and name != QUERY:
                # outside a query: set-up or a correctness check
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [parent[0] if (folded and parent) else -1, 0, 0, 0]
            if not folded:
                frame[0] = len(records)
                records.append(None)
            if rss:
                rss0 = _max_rss_kb()
            if cache_info is not None:
                misses = cache_info().misses
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                    parent[2] += own
                    parent[3] += frame[3] + own
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                stats[5] += frame[3]
                stats[6] += frame[2]
                if rss:
                    stats[4] += _max_rss_kb() - rss0
                if not folded:
                    up = parent[0] if parent is not None else -1
                    records[frame[0]] = (name, up, self.query, start, end)
            if work is not None and (cache_info is None or cache_info().misses != misses):
                stats[3] += work(args, kwargs, result)
            return result

        return traced

    def note(self, name: str, units: int) -> None:
        """Add work units the caller measured itself (e.g. report bytes)."""
        self.stats.setdefault(name, [0] * 7)[3] += units

    def install(self) -> None:
        """Wrap every name a loaded layer imports from another layer."""

        def patch(owner, attr: str, name: str) -> None:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            self._patches.append((owner, attr, original, wrapper))
            setattr(owner, attr, wrapper)

        for consumer in LAYERS:
            module = sys.modules.get(f"gaussbase.{consumer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                source = _layer_of(obj)
                if source is not None and source != consumer:
                    patch(module, attr, f"{source}.{obj.__name__}")
        dependence = sys.modules.get("gaussbase.dependence")
        if dependence is not None:
            patch(dependence.PrefixWitness, "verify", "dependence.prefix_verify")

    def enable(self, on: bool) -> None:
        """Put the installed wrappers in place, or the original names back."""
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, query, start, end in self.records:
                fh.write(
                    json.dumps(
                        {"name": name, "parent": parent, "query": query, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )

    def metrics(self, samples: dict[str, int], untraced_s: float) -> dict[str, float]:
        """Per-layer metrics.

        Layer self times are the layers' shares of the ``Sampler`` samples
        of the untraced runs, times their summed query time ``untraced_s``.
        """

        def stat(name: str) -> list[int]:
            return self.stats.get(name, [0] * 7)

        def inclusive(name: str) -> float:
            s = stat(name)
            return s[1] - s[5]

        def own(name: str) -> float:
            s = stat(name)
            return s[2] - s[6]

        def per(name: str, units: int, ns: float | None = None) -> float:
            return (inclusive(name) if ns is None else ns) / units if units else 0.0

        out: dict[str, float] = {}
        for name in ("gaussint.is_power_of", "gaussint.factorize"):
            out[f"{name}.calls"] = stat(name)[0]
            out[f"{name}.ns_per_call"] = per(name, stat(name)[0])
        out["numeration.canonical_digit_set.ns_per_digit"] = per(
            "numeration.canonical_digit_set", stat("numeration.canonical_digit_set")[3]
        )
        out["numeration.length_bound.self_s"] = own("numeration.length_bound") / 1e9
        out["numeration.encode.digits"] = stat("numeration.encode")[3]
        for name in ("encode", "decode", "recode"):
            out[f"numeration.{name}.ns_per_digit"] = per(f"numeration.{name}", stat(f"numeration.{name}")[3])
        bits = stat("automata.residual_signatures")[3]
        out["automata.residual_signatures.signature_bits"] = bits
        out["automata.residual_signatures.ns_per_bit"] = per("automata.residual_signatures", bits)
        out["automata.residual_signatures.rss_growth_mb"] = stat("automata.residual_signatures")[4] / 1024
        words = stat("automata.dfa_oracle_disagreement")[3]
        out["automata.dfa_oracle_disagreement.words"] = words
        out["automata.dfa_oracle_disagreement.ns_per_word"] = per("automata.dfa_oracle_disagreement", words)
        for name in ("minimize", "product"):
            letters = stat(f"automata.{name}")[3]
            out[f"automata.{name}.state_letters"] = letters
            out[f"automata.{name}.ns_per_state_letter"] = per(f"automata.{name}", letters)
        out["dependence.mult_dependent.ns_per_call"] = per(
            "dependence.mult_dependent", stat("dependence.mult_dependent")[0]
        )
        for name in ("group_witness", "prefix_extension"):
            exponents = stat(f"dependence.{name}")[3]
            out[f"dependence.{name}.exponents"] = exponents
            out[f"dependence.{name}.ns_per_exponent"] = per(f"dependence.{name}", exponents)
        out["dependence.prefix_verify.self_s"] = own("dependence.prefix_verify") / 1e9
        calls, report_bytes = stat("cli.main")[0], stat("cli.main")[3]
        out["cli.main.calls"] = calls
        out["cli.main.self_s"] = own("cli.main") / 1e9
        out["cli.report_bytes"] = report_bytes
        out["cli.ns_per_report_byte"] = per("cli.main", report_bytes, own("cli.main"))
        total = sum(samples.values())
        for layer in LAYERS:
            share = samples.get(layer, 0) / total if total else 0.0
            out[f"{layer}.self_s"] = share * untraced_s
            out[f"{layer}.share"] = share
        out["trace.wrapper_ns"], out["trace.span_wrapper_ns"] = self.wrapper_ns
        out["trace.samples"] = total
        return out


def _wrapper_cost_ns(name: str, calls: int = 20_000, rounds: int = 5) -> int:
    """Time one wrapped call of the given name adds to its caller beyond the child span it records.

    Measured on a two-argument no-op, as the median of a few rounds.
    """
    probe = Tracer(wrapper_ns=(0, 0))
    noop = lambda x, y: None  # noqa: E731
    wrapped = probe.wrap(name, noop)
    outer = [-1, 0, 0, 0]
    probe._stack.append(outer)
    clock = time.perf_counter_ns
    costs = []
    for _ in range(rounds):
        outer[1] = 0
        probe.records.clear()
        start = clock()
        for _ in range(calls):
            wrapped(1, 2)
        traced = clock() - start
        start = clock()
        for _ in range(calls):
            noop(1, 2)
        plain = clock() - start
        costs.append((traced - outer[1] - plain) // calls)
    return max(0, int(statistics.median(costs)))


class Sampler:
    """Self time per layer, by sampling the Python stack on a CPU-time timer.

    Each sample goes to the layer of the innermost ``gaussbase`` frame, so
    ``GaussInt`` arithmetic counts as ``gaussint`` time wherever it is
    called from; samples with no package frame go to ``bench``.  The
    interpreter runs a signal handler at its next function entry or loop
    jump, so a frame that has not yet run past its entry instruction
    stands for time spent in its caller, and the sample goes to the
    caller.  Samples are taken only while ``active`` is set.
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        import gaussbase

        self.package = os.path.dirname(os.path.abspath(gaussbase.__file__)) + os.sep
        self.interval_s = interval_s
        self.active = False
        self.samples: dict[str, int] = {}
        self._entry: dict = {}

    def _entry_offset(self, code) -> int:
        offset = self._entry.get(code)
        if offset is None:
            offset = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), 0)
            self._entry[code] = offset
        return offset

    def _sample(self, signum, frame) -> None:
        if not self.active or frame is None:
            return
        if frame.f_back is not None and frame.f_lasti <= self._entry_offset(frame.f_code):
            frame = frame.f_back
        layer = "bench"
        while frame is not None:
            path = frame.f_code.co_filename
            if path.startswith(self.package):
                layer = os.path.splitext(path[len(self.package) :])[0]
                break
            frame = frame.f_back
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _layer_of(obj) -> str | None:
    """The layer that defines a public function, or None for anything else."""
    if isinstance(obj, type) or not callable(obj) or inspect.isgeneratorfunction(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    layer = module.removeprefix("gaussbase.")
    name = getattr(obj, "__name__", "_")
    if layer in LAYERS and module.startswith("gaussbase.") and not name.startswith("_"):
        return layer
    return None


def library(layers: tuple[str, ...], tracer: Tracer | None = None) -> SimpleNamespace:
    """The public functions and classes of the given layers, by bare name.

    With a tracer, functions come wrapped in spans and the tracer's
    cross-layer wrappers are installed; classes are passed through.
    ``clear_caches()`` empties every memo table of the loaded layers, so
    that each query pays for its own per-base tables.
    """
    names: dict = {}
    for layer in layers:
        importlib.import_module(f"gaussbase.{layer}")
    memos = {
        id(obj): obj
        for layer in LAYERS
        for obj in vars(sys.modules.get(f"gaussbase.{layer}", SimpleNamespace())).values()
        if hasattr(obj, "cache_clear")
    }
    names["clear_caches"] = lambda: [memo.cache_clear() for memo in memos.values()]
    for layer in layers:
        module = sys.modules[f"gaussbase.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _layer_of(obj) == layer and tracer is not None:
                obj = tracer.wrap(f"{layer}.{attr}", obj)
            names[attr] = obj
    if tracer is not None:
        tracer.install()
    names["note"] = tracer.note if tracer is not None else (lambda name, units: None)
    return SimpleNamespace(**names)
