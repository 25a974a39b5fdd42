"""Benchmark of dualis: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a dualis checkout; dualis is imported from ``src/``.
One single-threaded caller issues the workload's queries in a closed loop,
pass after pass, until ``--seconds`` have gone by and at least the
workload's ``min_passes`` whole passes are done.  A query's latency is the
mean of its samples over the passes: the speed of a shared host flips
between a fast and a slow state that lasts seconds, and a mean weighs both
states by their share of the run where a median of a few samples would snap
to one of them.  Every latency metric is taken over these means.  Every answer is checked against a reference that
dualis did not compute.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
traced pass instead, reports the per-layer metrics and writes every span to
``perfbench/out/``; ``check_trace.py`` compares traced runs and reports the
tracing overhead.  ``perfbench/layers.json`` describes the workloads, the
metrics and the layer each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "polar-oracle", "curve-analysis")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 5

#: percentile reported as query_tail_ms: the highest of p75, p90, p95, p99
#: that keeps at least ten samples beyond it in a run of the minimum passes
#: (two cases of five samples on corpus; three queries of three samples and
#: the two deadline misses on curve-analysis).  polar-oracle runs one pass
#: of 19 queries, too few for any percentile above p50, so it reports the
#: maximum.
TAIL_PERCENTILE = {"corpus": 90, "curve-analysis": 75, "polar-oracle": None}


class DeadlineExceeded(BaseException):
    """Raised in a query that outlives its deadline.

    A BaseException, so no ``except Exception`` in dualis can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualis" / "__init__.py").is_file():
        print(f"error: no dualis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    if args.setup_probe:
        _prepare(args)
        print("ready", flush=True)
        return 0
    if args.trace:
        return _traced(args)
    return _untraced(args)


def _prepare(args):
    import dualis  # noqa: F401  (the import is part of the set-up)
    from perfbench import workloads

    return workloads.prepare(args.workload, args.seed, ROOT)


def _setup_seconds(args) -> list:
    """Time from starting a fresh interpreter until it is ready to query."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(ready - start)
    return times


class Outcomes:
    """Latencies and verdicts of every query run."""

    def __init__(self):
        self.by_slot: dict = {}
        self.wrong: list = []
        self.missed: set = set()  # slots that missed their deadline

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.by_slot.values())

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.missed)

    def record(self, slot: str, seconds: float) -> None:
        self.by_slot.setdefault(slot, []).append(seconds)

    def means(self) -> dict:
        return {slot: statistics.fmean(times) for slot, times in self.by_slot.items()}


def _run_pass(queries, deadline_s, outcomes: Outcomes, tracer=None) -> float:
    start = time.perf_counter()
    for query in queries:
        # a query that hung once is not run again: its latency is its deadline
        if query.slot not in outcomes.missed:
            _run_query(query, deadline_s, outcomes, tracer)
    return time.perf_counter() - start


def _run_query(query, deadline_s, outcomes: Outcomes, tracer) -> None:
    snap = None
    if tracer is not None:
        if deadline_s:
            snap = tracer.snapshot()
        tracer.begin_query(query.label)
    start = time.perf_counter()
    try:
        try:
            if deadline_s:
                signal.setitimer(signal.ITIMER_REAL, deadline_s)
            result = query.run()
        finally:
            if deadline_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        outcomes.record(query.slot, time.perf_counter() - start)
        outcomes.missed.add(query.slot)
        if tracer is not None:
            tracer.rollback(snap)
            tracer.count("bench.deadline_misses")
        return
    except Exception as exc:  # a crash is a failed query, not a failed run
        result = exc
    outcomes.record(query.slot, time.perf_counter() - start)
    try:
        right = not isinstance(result, Exception) and query.check(result)
    except (KeyError, TypeError, ValueError):  # malformed output is a wrong answer
        right = False
    if not right:
        outcomes.wrong.append((query.label, repr(result)[:200]))


def _tail(outcomes: Outcomes, percentile):
    """The percentile of the queries' means by nearest rank, or their
    maximum (labelled as such) when fewer than ten samples lie beyond it."""
    ranked = sorted(outcomes.means().items(), key=lambda item: item[1])
    if percentile is not None:
        rank = -(-percentile * len(ranked) // 100)  # ceil(percentile/100 * n)
        beyond = sum(len(outcomes.by_slot[slot]) for slot, _ in ranked[rank:])
        if beyond >= 10:
            return ranked[rank - 1][1], f"p{percentile}"
    return ranked[-1][1], "max"


def _untraced(args) -> int:
    setup = _setup_seconds(args)
    work = _prepare(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = Outcomes()
    passes = 0
    start = time.perf_counter()
    while passes < work.min_passes or time.perf_counter() - start < args.seconds:
        _run_pass(work.passes[passes % len(work.passes)], work.deadline_s, outcomes)
        passes += 1
    means = outcomes.means()
    tail, label = _tail(outcomes, TAIL_PERCENTILE[work.name])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    queries = f"{len(means)} queries' means, {outcomes.attempted} samples in {passes} passes"
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters"),
        "wall_s": (sum(means.values()), "s", f"sum of the {queries}"),
        "query_p50_ms": (1000 * statistics.median(means.values()), "ms",
                         f"median of the {queries}"),
        "query_tail_ms": (1000 * tail, "ms", f"{label} of the {queries}"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "this process"),
    }
    print(f"workload {work.name}, seed {args.seed}: one caller, closed loop, "
          f"{passes} passes in {time.perf_counter() - start:.1f} s")
    for slot, seconds in means.items():
        print(f"  {1000 * seconds:10.1f} ms  {slot}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:14s} {value:12.4f} {unit:3s} ({note})")
    fail_ratio = outcomes.failed / outcomes.attempted
    print(f"{'fail_ratio':14s} {fail_ratio:12.4f} ratio ({outcomes.failed} of "
          f"{outcomes.attempted}: {len(outcomes.missed)} deadline misses, "
          f"{len(outcomes.wrong)} wrong or crashed)")
    _print_result(outcomes, {name: (value, unit) for name, (value, unit, _) in metrics.items()})
    return 0


def _traced(args) -> int:
    import dualis
    from perfbench import tracing

    tracer = tracing.Tracer()
    tracer.install(dualis)
    tracer.begin_query("setup")
    work = _prepare(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = Outcomes()
    traced_s = _run_pass(work.passes[0], work.deadline_s, outcomes, tracer)
    tracer.uninstall()
    out = ROOT / "perfbench" / "out" / f"trace-{work.name}-seed{args.seed}.json"
    tracer.write(out, {"workload": work.name, "seed": args.seed})
    values = tracer.metrics(traced_s)
    units = dict(tracing.per_layer_names())
    print(f"workload {work.name}, seed {args.seed}: one traced pass in {traced_s:.3f} s,"
          f" spans in {out.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:14.6g} {unit}")
    _print_result(outcomes, {name: (values[name], unit) for name, unit in units.items()})
    return 0


def _print_result(outcomes: Outcomes, metrics: dict) -> None:
    for label, detail in outcomes.wrong:
        print(f"FAILED {label}: {detail}", file=sys.stderr)
    result = {
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
