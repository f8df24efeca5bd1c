"""Run one workload in this fresh, single-threaded process; print one JSON line.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE OPENING COUNT [SPANS_FILE]

A closed loop with one client over the first COUNT queries of the seed's
stream: the next query is sent only after the previous one returned.  The
stream is run the workload's ROUNDS times over; a speed probe runs just
before each timed query, each timing is scaled to nominal speed by the
probes around it (``speed.scaled``), and each query reports its scaled
timings.  The workload's first LEAD queries open the run: with
OPENING=1 they are run once and checked but not timed, with OPENING=0
they are skipped.  The package's memo tables are emptied before each
query and each answer is checked right after its query, both outside the
timed region; the time the checks take is reported as ``check_s``.

With TRACE=1 there is one round and no scaling, and each query runs
twice, traced and untraced, in alternating order; the spans of the
traced runs are recorded and written to SPANS_FILE, the untraced runs
are sampled, and the per-layer metrics are added to the output.  The
time the traced runs take beyond the untraced ones is the tracing
overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

def timed(execute, api, query):
    """(answer, traceback or None, seconds) of one query, the memo tables emptied first."""
    api.clear_caches()
    start = time.perf_counter()
    try:
        answer, raised = execute(api, query), None
    except Exception:  # a query that raises counts as failed
        answer, raised = None, traceback.format_exc(limit=3)
    return answer, raised, time.perf_counter() - start


def main(argv: list[str]) -> int:
    name, seed, trace, opening, count = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1", int(argv[4])
    workload = WORKLOADS[name](seed)
    api = tracing.library(workload.layers)
    if trace:
        tracer = tracing.Tracer()
        traced_api = tracing.library(workload.layers, tracer)
        traced_execute = tracer.wrap(tracing.QUERY, workload.execute)
        sampler = tracing.Sampler()
        sampler.start()

    # the stream is run ROUNDS times over; each query reports all its timings
    stream = list(zip(range(count), workload.queries()))
    timings: list[tuple[int, float]] = []
    probes: list[float] = []
    executed = failed = searches = found = 0
    first_failure = None
    elapsed = plain_elapsed = checking = 0.0
    for rnd in range(1 if trace else workload.ROUNDS):
        for qid, query in stream:
            timed_query = qid >= workload.LEAD
            if not (timed_query or (opening and rnd == 0)):
                continue
            executed += 1
            if not trace:
                if timed_query:
                    probes.append(speed.probe())
                answer, raised, took = timed(workload.execute, api, query)
            else:
                # the same query traced and untraced (and sampled), in alternating
                # order, so that both see the same drift of the machine's speed;
                # the first query runs traced first, so that its spans see the
                # growth of the process's peak memory
                tracer.query = qid
                for on in (True, False) if qid % 2 == 0 else (False, True):
                    tracer.enable(on)
                    if on:
                        answer, raised, took = timed(traced_execute, traced_api, query)
                    else:
                        sampler.active = timed_query
                        took_plain = timed(workload.execute, api, query)[2]
                        sampler.active = False
                if timed_query:
                    plain_elapsed += took_plain
            if timed_query:
                elapsed += took
                timings.append((qid, took))
            start = time.perf_counter()
            if raised is None:
                try:
                    outcome = workload.check(query, answer)
                except Exception:
                    outcome = Outcome(False, why=traceback.format_exc(limit=3))
            else:
                outcome = Outcome(False, why=raised)
            if not outcome.ok:
                failed += 1
                if first_failure is None:
                    first_failure = f"query {qid} {query.kind}: {outcome.why}"
            if outcome.found is not None:
                searches += 1
                found += outcome.found
            checking += time.perf_counter() - start
    times = [t for _, t in timings]
    if not trace:
        times = speed.scaled(times, probes)
    per_query: dict[int, list[float]] = {}
    for (qid, _), t in zip(timings, times):
        per_query.setdefault(qid, []).append(t)
    latencies = list(per_query.values())

    result = {
        "queries": len(latencies),
        "executed": executed,
        "failed": failed,
        "searches": searches,
        "found": found,
        "elapsed_s": elapsed,
        "check_s": checking,
        "latencies_s": latencies,
        "slowdown": statistics.median(probes) / speed.NOMINAL_S if probes else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if first_failure is not None:
        print(first_failure, file=sys.stderr)
    if trace:
        sampler.stop()
        if len(argv) > 5:
            tracer.write(argv[5])
        per_layer = tracer.metrics(sampler.samples, plain_elapsed)
        per_layer["trace.untraced_queries_per_s"] = len(latencies) / plain_elapsed
        per_layer["trace.traced_queries_per_s"] = len(latencies) / elapsed
        per_layer["trace.overhead_ratio"] = elapsed / plain_elapsed
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
