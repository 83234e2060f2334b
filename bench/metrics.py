"""Turn one loop result into the end-to-end and per-layer metrics.

A workload cycles through a few argvs with very different costs (k=288
and k=720, or the three verify commands), so a pooled median would jump
between modes with the call count. Time-like metrics are therefore taken
per argv (median over its calls) and averaged over the argvs: the typical
cost of one call of the workload's mix. Ratios are formed from those
per-call figures, so a rate is total work over total time.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import self_times

# Span name -> per-layer metric holding that span's inclusive time.
SPAN_METRICS = {
    "manifest.load": "manifest.load_s",
    "pivot.cls_attention": "pivot.cls_attention_s",
    "pivot.select_pivot": "pivot.select_pivot_s",
    "kcenter.greedy": "kcenter.greedy_s",
    "tensors.normalize_rows": "tensors.normalize_rows_s",
    "kcenter.oracle_greedy": "kcenter.oracle_greedy_s",
    "theory.covariance": "theory.covariance_s",
    "relevance.decide": "relevance.decide_s",
    "relevance.decode_report": "relevance.decode_report_s",
    "report.build": "report.build_s",
    "report.emit": "report.emit_s",
    "costmodel.stage_ratio": "costmodel.stage_ratio_s",
}


def mix_mean(values_by_argv: dict[int, list[float]]) -> float:
    """Mean over argvs of the median of each argv's values."""
    return statistics.fmean(statistics.median(v) for v in values_by_argv.values() if v)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten calls
    beyond it, but never below the median: with fewer than twenty calls no
    tail is resolved and the median is reported as percentile 50."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = max(n - 10, math.ceil(n / 2))
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(result: dict) -> dict:
    """Figures from the untraced calls of the timed loop."""
    plain = [c for c in result["calls"] if not c["traced"]]
    by_argv: dict[int, list[float]] = defaultdict(list)
    for c in plain:
        by_argv[c["argv"]].append(c["seconds"])
    tail_s, tail_pct = tail([c["seconds"] for c in plain])
    return {
        "call_p50_s": mix_mean(by_argv),
        "call_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "calls": len(plain),
        "calls_per_s": len(plain) / result["loop_seconds"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def _figures(spans: list[dict], selfs: dict[int, float]) -> dict:
    """Raw figures of one call, summed over its spans."""
    f: dict = defaultdict(float)
    counts = defaultdict(list)
    for s in spans:
        f["self_sum"] += selfs[s["id"]]
        if s["parent"] is None:
            f["call_s"] += s["end"] - s["start"]
            f["cli.self_s"] += selfs[s["id"]]
        else:
            f[SPAN_METRICS[s["name"]]] += s["end"] - s["start"]
            counts[s["name"]].append(s["counts"])
    probed = [layer for c in counts["relevance.decide"] for layer in c["layers"]]
    for c in counts["manifest.load"]:
        f["loaded"] += c["base_bytes"] + sum(c["layer_bytes"].values()) + c["decode_bytes"]
        # Payload bytes the call goes on to read: stage-1 inputs, the probed
        # attention layers, and the decode rows if it reports on them.
        f["used"] += c["base_bytes"] + sum(c["layer_bytes"][str(x)] for x in probed)
        f["used"] += c["decode_bytes"] if counts["relevance.decode_report"] else 0
    for c in counts["pivot.cls_attention"]:
        f["pivot.flops"] += c["flops"]
    for c in counts["kcenter.greedy"]:
        f["kcenter.steps"] += c["steps"]
        f["kcenter.bytes_moved"] += c["bytes_moved"]
    for c in counts["theory.covariance"]:
        f["trials"] += c["trials"]
    for c in counts["relevance.decide"]:
        f["relevance.probes_evaluated"] += c["probes"]
        f["qualifying"] += c["qualifying"]
    for c in counts["report.emit"]:
        f["report.bytes"] += c["bytes"]
    return f


def _per_call(spans: list[dict]) -> dict[int, dict]:
    """Call id -> raw figures of that call."""
    selfs = self_times(spans)
    by_call: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_call[s["call"]].append(s)
    return {call: _figures(group, selfs) for call, group in by_call.items()}


def per_layer(result: dict, e2e_plain_p50: float) -> dict:
    """Per-layer metrics from the traced calls of a traced loop."""
    traced = [c for c in result["calls"] if c["traced"]]
    argv_of = {n: c["argv"] for n, c in enumerate(result["calls"])}
    calls = _per_call([s for s in result["spans"] if s["call"] >= 0])
    keys = sorted({k for f in calls.values() for k in f})
    by_key: dict[str, dict[int, list[float]]] = {k: defaultdict(list) for k in keys}
    for call_id, f in calls.items():
        for k in keys:
            by_key[k][argv_of[call_id]].append(f.get(k, 0.0))
    agg = {k: mix_mean(v) for k, v in by_key.items()}

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return agg.get(num, 0.0) / agg[den] * scale if agg.get(den) else 0.0

    metrics = {name: agg.get(name, 0.0) for name in SPAN_METRICS.values()}
    for name in ("pivot.flops", "kcenter.steps", "kcenter.bytes_moved",
                 "relevance.probes_evaluated", "report.bytes", "cli.self_s"):
        metrics[name] = agg.get(name, 0.0)
    metrics["manifest.bytes_read"] = agg.get("loaded", 0.0)
    metrics["manifest.read_gbps"] = ratio("loaded", "manifest.load_s", 1e-9)
    metrics["manifest.bytes_used_frac"] = ratio("used", "loaded")
    metrics["theory.trials_per_s"] = ratio("trials", "theory.covariance_s")
    metrics["relevance.probe_yield"] = ratio("qualifying", "relevance.probes_evaluated")
    by_argv: dict[int, list[float]] = defaultdict(list)
    for c in traced:
        by_argv[c["argv"]].append(c["seconds"])
    traced_p50 = mix_mean(by_argv)
    metrics["trace.overhead_frac"] = traced_p50 / e2e_plain_p50 - 1.0
    # The self times of a call's spans should add up to the call's wall time
    # as the loop measured it around the root span.
    gap = max(abs(f["self_sum"] - result["calls"][n]["seconds"]) for n, f in calls.items())
    return {"metrics": metrics, "traced_call_p50_s": traced_p50,
            "traced_span_call_s": agg["call_s"], "self_sum_gap_s": gap, "traced_calls": len(traced)}
