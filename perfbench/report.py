"""Turns the harness's raw output into the benchmark's result line.

The harness (harness/main.cc) prints one JSON object per run: raw samples
per series, scalar values, the outcome of every operation with the digest of
its answer, and the reference digest each answer is checked against. This
module holds the benchmark's own logic on top of that, pure and unit-tested
in test_report.py: metric names and units, medians, which tail percentile
may be reported, and the closed-loop accounting of failures.
"""

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Each workload's defining operation (its op_ms), and how its throughput is
# measured: from the median of a series of pass times, or as completed
# requests over the wall time of the closed loop.
WORKLOADS = {
    "deep_ibm": {"op": "query_ms", "rate_from": "query_mt_ms"},
    "wide_ibm": {"op": "query_ms", "rate_from": "query_mt_ms"},
    "daemon_mix": {"op": "mine_cold_ms", "rate_from": None},
    "stream_window": {"op": "tick_ms", "rate_from": None},
}

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

# Per-layer metrics of the traced run. Engine phases and counters, session,
# parse and render are medians per defining operation (a query pass, a cold
# MINE, a TICK); txn.* and handle.* medians per set-up; client.*,
# service.* and stream.*_ms medians per request or tick; self.* the span
# self time of each layer summed over the traced half; the rest whole-run
# values (ratios, STATS counters, tick counts). A layer a workload never
# enters reports 0.
PER_LAYER = [
    ("txn.load_ms", "ms"),
    ("txn.finalize_ms", "ms"),
    ("handle.create_ms", "ms"),
    ("query.parse_us", "us"),
    ("session.run_ms", "ms"),
    ("run.wall_ms", "ms"),
    ("phase.candidate_gen_ms", "ms"),
    ("phase.ct_build_ms", "ms"),
    ("phase.cache_ms", "ms"),
    ("phase.pair_stage_ms", "ms"),
    ("phase.judge_ms", "ms"),
    ("phase.constraint_check_ms", "ms"),
    ("ct.tables_built", "count"),
    ("ct.word_ops", "count"),
    ("ct.tables_per_s", "1/s"),
    ("ct.pair_stage_tables", "count"),
    ("ct_cache.lookups", "count"),
    ("ct_cache.hit_ratio", "ratio"),
    ("ct_cache.shared_hits", "count"),
    ("engine.candidates", "count"),
    ("engine.pruned_before_ct", "count"),
    ("executor.cpu_util", "ratio"),
    ("render_ms", "ms"),
    ("render.bytes", "bytes"),
    ("client.mine_cold_ms", "ms"),
    ("client.mine_memo_ms", "ms"),
    ("client.append_ms", "ms"),
    ("service.handle_line_ms", "ms"),
    ("socket.overhead_ms", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("memo.hit_session_runs", "count"),
    ("admission.queue_wait_ms", "ms"),
    ("admission.rejected", "count"),
    ("stream.append_ms", "ms"),
    ("stream.window_tick_ms", "ms"),
    ("stream.reeval_ms", "ms"),
    ("stream.delta_tables", "count"),
    ("stream.dirty_candidates", "count"),
    ("stream.full_remine", "count"),
    ("stream.delta_ticks", "count"),
    ("stream.full_ticks", "count"),
    ("self.txn_ms", "ms"),
    ("self.query_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.render_ms", "ms"),
    ("self.service_ms", "ms"),
    ("self.client_ms", "ms"),
    ("self.stream_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
    ("op.samples", "count"),
]

# Per-layer metrics read from a series other than their own name.
SERIES_ALIAS = {
    "client.mine_cold_ms": "mine_cold_ms",
    "client.mine_memo_ms": "mine_memo_ms",
    "client.append_ms": "append_ms",
}

TAIL_LADDER = (99, 95, 90, 75)


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def tail_percentile(count):
    """The highest percentile of TAIL_LADDER with at least ten of `count`
    samples beyond it, or None when even the lowest has fewer."""
    for p in TAIL_LADDER:
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def median(samples):
    return statistics.median(samples) if samples else 0.0


def tally(ops, refs):
    """Closed-loop accounting: (attempted, failed, wrong).

    Every operation counts as attempted. It failed when it was refused or
    errored, or when it names a reference its answer digest does not match
    (a missing reference counts as a mismatch: the answer went unchecked).
    `wrong` counts the mismatches alone.
    """
    attempted = failed = wrong = 0
    for _kind, status, key, digest in ops:
        attempted += 1
        mismatch = status == "ok" and key != "" and refs.get(key) != digest
        wrong += mismatch
        failed += status != "ok" or mismatch
    return attempted, failed, wrong


def end_to_end(workload, raw):
    spec = WORKLOADS[workload]
    series = raw["series"]
    if spec["rate_from"]:
        rate = 1e3 / median(series[spec["rate_from"]])
    else:
        rate = raw["rate"]["ops"] / raw["rate"]["seconds"]
    return {
        "setup_s": median(raw["setup_s"]),
        "op_ms": median(series[spec["op"]]),
        "ops_per_s": rate,
        "peak_rss_mb": raw["values"]["peak_rss_mb"],
    }


def per_layer(workload, raw):
    spec = WORKLOADS[workload]
    series = raw["series"]
    values = raw["values"]
    out = {}
    for name, _ in PER_LAYER:
        source = SERIES_ALIAS.get(name, name)
        if name in values:
            out[name] = values[name]
        elif series.get(source):
            out[name] = median(series[source])
        else:
            out[name] = 0.0
    op = series.get(spec["op"], [])
    untraced = series.get(spec["op"] + ".untraced", [])
    out["op.samples"] = len(op)
    if op and untraced:
        out["trace.overhead_ms"] = median(op) - median(untraced)
    return out


def latency_detail(raw):
    """Median, sample count and the reportable tail of every latency
    series (query_ms, mine_cold_ms, tick_ms, ...)."""
    detail = {}
    for name, samples in sorted(raw["series"].items()):
        if not samples or not name.endswith("_ms"):
            continue
        entry = {"median": median(samples), "n": len(samples)}
        p = tail_percentile(len(samples))
        if p is not None:
            entry["p%d" % p] = percentile(samples, p)
        detail[name] = entry
    return detail


def result(workload, raw, trace):
    attempted, failed, wrong = tally(raw["ops"], raw["refs"])
    errors = sum(1 for op in raw["ops"] if op[1] == "error")
    if trace:
        values, units = per_layer(workload, raw), dict(PER_LAYER)
    else:
        values, units = end_to_end(workload, raw), dict(END_TO_END)
    metrics = {}
    for name, value in values.items():
        if not valid_name(name) or not valid_unit(units[name]):
            raise ValueError("bad metric name or unit: %r" % name)
        metrics[name] = {"value": value, "unit": units[name]}
    return {
        "correct": wrong == 0 and errors == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
