#!/usr/bin/env python3
"""CI validator for Helix telemetry artifacts.

Checks that a workload_driver run's --metrics-out / --trace-out files are
well-formed and actually populated (a plausible-looking but empty snapshot
should fail the build), and optionally that benchmark summaries
(BENCH_<name>.json) were written.

Usage:
  check_telemetry.py --metrics=FILE --trace=FILE [--require-server]
                     [--bench-dir=DIR --expect-bench=name1,name2,...]

Exit code 0 on success; prints every failed expectation otherwise.
"""

import argparse
import json
import os
import sys

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        expect(False, "%s: cannot load %s: %s" % (what, path, e))
        return None


def gauge_high_water(gauges, name):
    """A gauge's lifetime max (entries serialize as {value, max})."""
    entry = gauges.get(name)
    if isinstance(entry, dict):
        return entry.get("max", 0)
    return entry if isinstance(entry, (int, float)) else 0


def check_metrics(path, require_server):
    doc = load_json(path, "metrics")
    if doc is None:
        return
    expect(doc.get("record") == "helix_metrics",
           "metrics: record != helix_metrics")
    counters = doc.get("counters", {})
    gauges = doc.get("gauges", {})
    histograms = doc.get("histograms", {})

    # The storage layer saw traffic: a census run must both miss (first
    # iteration) and hit or write the store.
    expect(counters.get("store.misses", 0) > 0,
           "metrics: store.misses not populated")
    expect(counters.get("store.hits", 0) > 0 or
           counters.get("store.bytes_written", 0) > 0,
           "metrics: store saw neither hits nor writes")
    expect("store.bytes" in gauges, "metrics: store.bytes gauge missing")
    # Store phase timings: a Get splits into backend read (with its one
    # checksum) and envelope decode, a Put into serialize and write.
    for phase in ("get.read", "get.decode", "put.serialize", "put.write"):
        expect("store.%s_micros" % phase in histograms,
               "metrics: store.%s_micros histogram missing" % phase)
    expect(histograms.get("store.put.write_micros", {}).get("count", 0) > 0
           or counters.get("store.bytes_written", 0) == 0,
           "metrics: store.put.write_micros not populated by the writes")

    # The executor ran iterations.
    expect(counters.get("executor.iterations", 0) > 0,
           "metrics: executor.iterations not populated")

    # The columnar kernels ran and reported which ISA path served them
    # (simd.<kernel>.<isa> counters, folded in at snapshot time). A census
    # run always filters/gathers, so at least one kernel must have fired.
    expect(any(name.startswith("simd.") and value > 0
               for name, value in counters.items()),
           "metrics: no simd.* kernel counters populated")
    # A census run trains logistic regression, whose L2 shrink resolves
    # the scale kernel once per training run: simd.scale.<isa> names the
    # path (scalar or avx2) that served the learner.
    expect(any(name.startswith("simd.scale.") and value > 0
               for name, value in counters.items()),
           "metrics: no simd.scale.<isa> counter populated (no LR trained?)")

    # Memory accounting: the executor publishes its planned peak and
    # recompute overhead every iteration (0 is fine — absence is not),
    # and the async writer reports the payload bytes its queue pins.
    expect("executor.peak_planned_bytes" in gauges,
           "metrics: executor.peak_planned_bytes gauge missing")
    expect(gauge_high_water(gauges, "executor.peak_planned_bytes") > 0,
           "metrics: executor.peak_planned_bytes never set")
    expect("executor.recompute_extra_micros" in gauges,
           "metrics: executor.recompute_extra_micros gauge missing")
    expect(gauge_high_water(gauges, "executor.peak_resident_bytes") > 0,
           "metrics: executor.peak_resident_bytes never set")
    expect("materializer.queue_bytes" in gauges,
           "metrics: materializer.queue_bytes gauge missing")
    # The write tail: how many writes a helping end-of-iteration drain
    # performed itself (0 is fine, absence is not), and how long each
    # materializing iteration waited in that drain.
    expect("materializer.writes_helped" in counters,
           "metrics: materializer.writes_helped counter missing")
    expect(histograms.get("materializer.drain_wait_micros", {})
           .get("count", 0) > 0,
           "metrics: materializer.drain_wait_micros not populated")

    # The pool queued work.
    wait = histograms.get("pool.task_wait_micros", {})
    expect(wait.get("count", 0) > 0,
           "metrics: pool.task_wait_micros not populated")
    expect("pool.queue_depth" in gauges,
           "metrics: pool.queue_depth gauge missing")

    for name, h in histograms.items():
        buckets = h.get("buckets", [])
        bucket_total = sum(c for _, c in buckets)
        expect(bucket_total == h.get("count", -1),
               "metrics: histogram %s bucket counts (%d) != count (%d)"
               % (name, bucket_total, h.get("count", -1)))

    if require_server:
        for phase in ("decode", "queue", "execute", "reply_write",
                      "reply_fingerprint"):
            h = histograms.get("server.%s_micros" % phase, {})
            expect(h.get("count", 0) > 0,
                   "metrics: server.%s_micros not populated" % phase)
        expect(counters.get("server.requests", 0) > 0,
               "metrics: server.requests not populated")
        expect(counters.get("server.frames_in", 0) > 0 and
               counters.get("server.bytes_in", 0) > 0,
               "metrics: server traffic counters not populated")
        # The backpressure / reply-classification counters are registered
        # unconditionally at server start, so they must be present (as
        # non-negative integers) even when a healthy run never bumps them.
        for name in ("server.requests_shed", "server.reply_drops",
                     "server.reply_timeouts"):
            value = counters.get(name)
            expect(isinstance(value, int) and value >= 0,
                   "metrics: %s missing or malformed (%r)" % (name, value))


def check_trace(path):
    doc = load_json(path, "trace")
    if doc is None:
        return
    expect(doc.get("displayTimeUnit") == "ms",
           "trace: displayTimeUnit != ms")
    events = doc.get("traceEvents", [])
    expect(len(events) > 0, "trace: no events")
    node_outcomes = {"computed": 0, "loaded": 0, "shared": 0, "pruned": 0,
                     "sliced": 0}
    iteration_totals = {"computed": 0, "loaded": 0, "shared": 0, "pruned": 0}
    for e in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            expect(key in e, "trace: event missing %s: %r" % (key, e))
        expect(e.get("ph") == "X", "trace: non-complete event %r" % e)
        args = e.get("args", {})
        if e.get("cat") == "node":
            outcome = args.get("outcome")
            expect(outcome in node_outcomes,
                   "trace: node span with bad outcome %r" % outcome)
            if outcome in node_outcomes:
                node_outcomes[outcome] += 1
        elif e.get("cat") == "iteration":
            for key in iteration_totals:
                iteration_totals[key] += args.get(key, 0)
            wait = args.get("write_wait_micros")
            expect(isinstance(wait, int) and wait >= 0,
                   "trace: iteration span write_wait_micros missing or "
                   "malformed (%r)" % wait)
    expect(sum(node_outcomes.values()) > 0, "trace: no node spans")

    # Self-consistency: per-node outcome tags must sum to the iteration
    # spans' counters. Only meaningful when the ring dropped nothing —
    # with drops the surviving node spans are a suffix of the timeline.
    if doc.get("droppedSpans", 0) == 0:
        # The report's "loaded" counts every kLoad node, shared waits
        # included; the span outcome splits those out as "shared".
        observed = {
            "computed": node_outcomes["computed"],
            "loaded": node_outcomes["loaded"] + node_outcomes["shared"],
            "shared": node_outcomes["shared"],
            "pruned": node_outcomes["pruned"] + node_outcomes["sliced"],
        }
        expect(observed == iteration_totals,
               "trace: node outcomes %r != iteration counters %r"
               % (observed, iteration_totals))
    else:
        print("trace: droppedSpans=%d, skipping sum check"
              % doc["droppedSpans"])


def check_bench_summaries(bench_dir, names):
    for name in names:
        path = os.path.join(bench_dir, "BENCH_%s.json" % name)
        if not os.path.exists(path):
            expect(False, "bench: %s missing" % path)
            continue
        doc = load_json(path, "bench %s" % name)
        if doc is None:
            continue
        expect(doc.get("bench") == name,
               "bench %s: name mismatch %r" % (name, doc.get("bench")))
        records = doc.get("records")
        expect(isinstance(records, list),
               "bench %s: records is not a list" % name)
        if name.startswith("trace_") and isinstance(records, list):
            # Per-scenario trace baselines must carry the two headline
            # numbers (throughput + store hit rate), actually measured.
            expect(len(records) > 0, "bench %s: no records" % name)
            for r in records:
                expect(r.get("throughput_iters_per_sec", 0) > 0,
                       "bench %s: throughput_iters_per_sec not populated"
                       % name)
                expect("hit_rate" in r,
                       "bench %s: hit_rate missing" % name)
                expect(r.get("events", 0) > 0,
                       "bench %s: events not populated" % name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--metrics")
    parser.add_argument("--trace")
    parser.add_argument("--require-server", action="store_true")
    parser.add_argument("--bench-dir")
    parser.add_argument("--expect-bench", default="")
    args = parser.parse_args()

    if args.metrics:
        check_metrics(args.metrics, args.require_server)
    if args.trace:
        check_trace(args.trace)
    if args.bench_dir and args.expect_bench:
        check_bench_summaries(args.bench_dir,
                              [n for n in args.expect_bench.split(",") if n])

    if FAILURES:
        for f in FAILURES:
            print("FAIL:", f, file=sys.stderr)
        return 1
    print("telemetry checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
