"""gaussbase benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``lattice_scan`` (numeration over many
small bases), ``regularity_evidence`` (automata enumeration and the powers
oracle), ``witness_search`` (dependence decisions and witness searches
through the JSON CLI, on big integers).  The same seed gives the same
inputs; pass a second seed to confirm a result on inputs not used while
writing a change.

``--trace 0`` runs the workload untraced in the workload's PASSES fresh
single-threaded processes, one after the other, over the same queries:
as many as the workload's nominal RATE makes in S / PASSES seconds when
each runs the workload's ROUNDS times (at least MIN_QUERIES), so that
the mix is the same on every run whatever the machine's speed; on a
machine much slower than nominal a run of more than MIN_PASSES passes
ends after fewer, at least MIN_PASSES. Only the first pass runs the
workload's untimed opening queries. The machine's speed drifts by a
factor of up to 2.7 when other work shares its cores, often for longer
than a run, so every time is scaled to the nominal speed of
``speed.probe``, read right next to it (see ``speed.py``); the env line
gives each pass's median slowdown against nominal, by which the scaled
times can be turned back into measured ones. A query's latency is the
median of its scaled timings in all rounds of all passes.
``queries_per_s`` is the number of queries over the sum of these
latencies. Set-up is measured by fresh interpreters that import the
package, SETUP_REPEATS before each pass and after the last; ``setup_s``
is the median of their scaled times.

``--trace 1`` runs the queries of S / 3 seconds once untraced and once
traced, in one fresh process, prints the per-layer metrics with the
tracing overhead (traced over untraced time of the same queries), and
writes the spans to ``bench/out/``.

Every metric is printed as ``name value unit``, followed by the
environment and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A query fails when
it raises or its answer fails the independent check, in any pass;
``failed_frac`` is printed with the metrics.  ``found_frac`` is the share
of witness and prefix searches that return a certified witness; workloads
without searches report 1.0, as none of their queries can end not_found.

Standard library only.  Exits non-zero without a result line when the
package source is missing or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# so that p90 has at least ten queries beyond it
MIN_QUERIES = 100
SETUP_REPEATS = 3
# speed readings before each set-up measurement
PROBES = 5
# on a machine much slower than nominal, passes after MIN_PASSES stop once
# WALL_BUDGET x S seconds of wall time are spent, so a run stays bounded
MIN_PASSES = 4
WALL_BUDGET = 1.25
WORKER_TIMEOUT_S = 80
# what a fresh process imports before its first query
SETUP_IMPORT = {"witness_search": "gaussbase.cli"}


def measure_setup(workload: str, repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported the package, scaled to nominal speed.

    The child prints the system-wide monotonic clock once the import is
    done, so neither interpreter exit nor the parent's polling for it is
    counted.  Isolated mode without ``site`` (-I -S) keeps the machine's
    site-packages hooks out of the figure; the package is found through
    sys.path.  Each time is scaled by the median of PROBES speed readings
    taken just before it.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {SRC!r}); "
        f"import {SETUP_IMPORT.get(workload, 'gaussbase')}; print(time.perf_counter())"
    )
    times = []
    for _ in range(repeats):
        readings = [speed.probe() for _ in range(PROBES)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code],
            check=True,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        times += speed.scaled([float(proc.stdout) - start], [statistics.median(readings)])
    return times


def query_count(workload: str, seconds: float, rounds: int) -> int:
    """Queries of one pass: the opening, then SECONDS of query time at the workload's nominal RATE in whole cycles.

    Each query runs ROUNDS times.  The count depends on SECONDS only,
    never on the speed of the run, so every run measures the same mix of
    query kinds.
    """
    w = WORKLOADS[workload]
    want = max(MIN_QUERIES, round(seconds * w.RATE / rounds))
    return w.LEAD + w.PERIOD * -(-want // w.PERIOD)


def run_worker(workload: str, seed: int, trace: bool, opening: bool, count: int, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(int(trace)), str(int(opening)), str(count)]
    if spans:
        cmd.append(spans)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict], setup_s: float) -> dict[str, float]:
    """Metrics over the passes of one run; each query counts with the median of its timings."""
    lat = [statistics.median([t for times in per_pass for t in times]) for per_pass in zip(*(r["latencies_s"] for r in runs))]
    searches = sum(r["searches"] for r in runs)
    return {
        "setup_s": setup_s,
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": statistics.median(lat) * 1e3,
        "query_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "found_frac": sum(r["found"] for r in runs) / searches if searches else 1.0,
    }


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gaussbase", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    try:
        if args.trace:
            # each query runs twice, and traced runs are slower
            count = query_count(args.workload, args.seconds / 3, 1)
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
            runs = [run_worker(args.workload, args.seed, True, True, count, spans)]
            metrics = runs[0]["per_layer"]
            declared = spec["per_layer"]
        else:
            w = WORKLOADS[args.workload]
            count = query_count(args.workload, args.seconds / w.PASSES, w.ROUNDS)
            # the first import also writes the bytecode caches and is dropped
            measure_setup(args.workload, 1)
            setup: list[float] = []
            runs = []
            started = time.perf_counter()
            for _ in range(w.PASSES):
                if len(runs) >= MIN_PASSES and time.perf_counter() - started > WALL_BUDGET * args.seconds:
                    break
                setup += measure_setup(args.workload, SETUP_REPEATS)
                # only the first pass runs the workload's untimed opening
                runs.append(run_worker(args.workload, args.seed, False, not runs, count))
            setup += measure_setup(args.workload, SETUP_REPEATS)
            metrics = end_to_end(runs, statistics.median(setup))
            declared = spec["end_to_end"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["executed"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "queries": [r["queries"] for r in runs],
        "passes": len(runs),
        "slowdown": [round(r["slowdown"], 3) for r in runs],
        "check_s": sum(r["check_s"] for r in runs),
        "setup_repeats": 0 if args.trace else len(setup),
    }
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
