"""pgsolve benchmark: certified-solve throughput on one workload.

    python3 perfbench/run.py --workload short_random --seed 1 --seconds 20 --trace 0

One process, one thread, one closed-loop caller: an op (one game
solved, or one claim checked) starts only after the previous answer was
returned and checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every round twice, untraced and with every layer
traced, and reports per-layer metrics per traced op.  Human-readable
lines come first; the last line of stdout is one JSON object.  See
README.md for the workloads and what each metric should move.

Times are given at a fixed machine speed: the reference job runs
between every two timed spans, and each span's wall time is scaled by
REF_S over the mean of the reference times just before and just after
it.  The wall times themselves are printed beside the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check  # noqa: F401 - networkx loads before the set-up clock starts
import tracer
from speed import Speed, Stopwatch

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# Set-up repeats take at least this share of the measuring time.
SETUP_SHARE = 0.15
# Run in a fresh interpreter: prints how long importing pgsolve from the
# source directory given as the first argument takes, scaled to the
# reference speed with the module ``speed`` from the directory given as
# the second.  The reference job runs in the child, which may be on
# another core than this process.
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
clock = speed.Speed()
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import pgsolve
print(clock.scale(time.perf_counter() - start))
"""


def _timed(op, speed: Speed | None = None,
           span=contextlib.nullcontext()) -> tuple[float, str | None]:
    """Run one op inside ``span`` and give its time, scaled by ``speed``
    if given; the check runs after the clock stopped and the reference
    job ran."""
    scale = speed.scale if speed is not None else float
    start = perf_counter()
    try:
        with span:
            result = op.call()
    except Exception as exc:  # noqa: BLE001 - RecursionError included: a failed op
        return scale(perf_counter() - start), f"{type(exc).__name__}: {exc}"[:300]
    elapsed = scale(perf_counter() - start)
    try:
        return elapsed, op.check(result)
    except Exception as exc:  # noqa: BLE001 - output too malformed to check
        return elapsed, f"check raised {type(exc).__name__}: {exc}"[:300]


class Tally:
    """Durations of passed ops plus failure count and first reasons."""

    def __init__(self):
        self.passed: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, elapsed: float | None, reason: str | None) -> None:
        """Count an op; an untimed one (``elapsed`` None) adds no duration."""
        self.attempted += 1
        if elapsed is not None:
            self.timed_s += elapsed
        if reason is None:
            if elapsed is not None:
                self.passed.append(elapsed)
            return
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{label}: {reason}")


def run_round(feed, r: int, tally: Tally, speed: Speed,
              spans: tracer.Tracer | None = None) -> None:
    """Run round ``r`` op by op, each op inside a root span when tracing."""
    for op in feed.round(r):
        span = contextlib.nullcontext() if spans is None else spans.op(tally.attempted, op.label)
        elapsed, reason = _timed(op, speed, span)
        tally.add(op.label, elapsed, reason)


def tail(durations: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten ops beyond it, and that percentile.

    With fewer than eleven samples there is no such percentile; the
    maximum is reported as p100.
    """
    ordered = sorted(durations)
    if len(ordered) < 11:
        return ordered[-1], 100
    keep = len(ordered) - 10
    return ordered[keep - 1], math.floor(100 * keep / len(ordered))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def import_s(src: Path) -> float:
    """Median scaled time of SETUP_REPEATS imports of pgsolve, each in
    a fresh interpreter, so that every sample also loads the standard
    modules pgsolve needs that networkx has already loaded in this
    process."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(HERE)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def prepare(workloads, workload: str, seed: int, scale: str, workdir: Path,
            min_s: float, tally: Tally, speed: Speed):
    """Set up at least SETUP_REPEATS times and for at least ``min_s``
    seconds in all; the last feed is kept.

    Set-up is input generation plus one untimed, checked warm-up op.
    Returns the feed and the median set-up time.
    """
    times = []
    feed = None
    while len(times) < SETUP_REPEATS or sum(times) < min_s:
        if feed is not None:
            # Dropped before the next is made, so that set-up never holds
            # two feeds and its peak memory stays that of one.
            feed.close()
            feed = None
        watch = Stopwatch(speed)
        feed = workloads.make_feed(workload, seed, scale, workdir, watch.lap)
        op = feed.warm_up()
        _, reason = _timed(op)
        watch.lap()
        times.append(watch.scaled_s)
        tally.add(f"warm-up {op.label}", None, reason)
    return feed, statistics.median(times)


def end_to_end(tally: Tally, setup_s: float, setup_rss_mb: float,
               speed: Speed) -> tuple[dict, dict]:
    """The end-to-end metrics and the notes printed beside them."""
    ops_per_s = len(tally.passed) / tally.timed_s if tally.timed_s else 0.0
    p50 = statistics.median(tally.passed) if tally.passed else 0.0
    tail_s, tail_pct = tail(tally.passed) if tally.passed else (0.0, 0)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "op_s_p50": _metric(p50, "s"),
        "op_s_tail": _metric(tail_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    n = len(tally.passed)
    notes = {
        "op_s_p50": f"n={n}",
        "op_s_tail": f"p{tail_pct}, n={n}",
        "ops_per_s": f"{n} ops in {tally.timed_s:.3f} s timed, {tally.timed_s / speed.factor():.3f} s"
                     f" of wall time: the machine ran at {speed.factor():.3f} times the reference speed",
        "setup_s": f"{setup_s / speed.factor():.4g} s of wall time",
        "peak_rss_mb": f"{setup_rss_mb:.1f} MB before timing started",
    }
    return metrics, notes


def per_layer(spans: tracer.Tracer, untraced_s: float, traced_s: float, ops: int,
              speed: Speed) -> dict:
    """Per-op calls and self time per span name, plus the derived counts.

    Self times are scaled by the run's mean speed factor, not span by span.
    """
    calls = spans.calls()
    self_s = spans.self_times()
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(calls[name] / ops, "count/op")
        metrics[f"{name}.self_s"] = _metric(self_s.get(name, 0.0) * speed.factor() / ops, "s/op")
    counts = spans.counts
    for name in ("verification.verify_strategy.vertices", "verification.verify_strategy.refuted",
                 "transforms.closure.added"):
        metrics[name] = _metric(counts[name] / ops, "count/op")
    undecided = counts["transforms.closure.undecided"]
    metrics["transforms.closure.yield"] = _metric(
        counts["transforms.closure.added"] / undecided if undecided else 0.0, "ratio"
    )
    for name in tracer.DEPTH_TRACKED:
        metrics[f"{name}.depth_max"] = _metric(spans.depth_max[name], "count")
    rounds, hits = spans.fixpoint_rounds()
    metrics["solver_constructive.rounds"] = _metric(rounds / ops, "count/op")
    metrics["solver_constructive.memo_hit_ratio"] = _metric(hits / rounds if rounds else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = _metric(traced_s / untraced_s, "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", spans_out: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import workloads  # noqa: PLC0415 - raises ImportError without src/pgsolve

    warm_up, plain, traced = Tally(), Tally(), Tally()
    speed = Speed()
    workdir = HERE / "_work" / f"{workload}-{os.getpid()}"
    feed, setup_once = prepare(workloads, workload, seed, scale, workdir,
                               seconds * SETUP_SHARE, warm_up, speed)
    setup_rss_mb = peak_rss_mb()
    spans = tracer.Tracer()
    # The inputs built in set-up live for the whole run.  Frozen, they
    # are not scanned by the full collections that the library's own
    # allocations set off during an op, so an op's time does not depend
    # on how much the benchmark holds.
    gc.collect()
    gc.freeze()
    try:
        start = perf_counter()
        r = 0
        while r == 0 or perf_counter() - start < seconds:
            if not trace:
                run_round(feed, r, plain, speed)
            else:
                # Both passes solve the same games, regenerated from the
                # seed and round number, and take turns going first, so
                # neither gains from the other.
                for traced_pass in (r % 2 == 1, r % 2 == 0):
                    if traced_pass:
                        with spans:
                            run_round(feed, r, traced, speed, spans)
                    else:
                        run_round(feed, r, plain, speed)
            r += 1
    finally:
        gc.unfreeze()
        feed.close()
        for directory in (workdir, workdir.parent):
            with contextlib.suppress(OSError):
                directory.rmdir()
    if trace:
        metrics = per_layer(spans, plain.timed_s, traced.timed_s, traced.attempted, speed)
        notes = {"trace.overhead_ratio": f"{r} rounds, each untraced and traced"}
        if spans_out is not None:
            spans.write(spans_out)
    else:
        setup_s = import_s(workloads.SRC) + setup_once
        metrics, notes = end_to_end(plain, setup_s, setup_rss_mb, speed)
    tallies = (warm_up, plain, traced)
    failed = sum(t.failed for t in tallies)
    return {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "reasons": [reason for t in tallies for reason in t.reasons],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("short_random", "short_deep", "constructive", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spans_out = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              spans_out=spans_out if args.trace else None)
    except ImportError as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {fail_ratio:.6g}  ({result['failed']}/{result['attempted']})")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}", file=sys.stderr)
    if args.trace:
        print(f"  spans written to {spans_out.relative_to(HERE.parent)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
