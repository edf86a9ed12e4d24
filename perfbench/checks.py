"""Output checks of the benchmark.

Each round check takes the driver's facts of one round, each run check the
whole report; both return a list of violation messages. The figures are recomputed apart from the
program (own cut-edge count, own BFS, own label counts, own reading of the
fabric counters) or rest on a property the method must have.
selftest.py feeds every check a report built to violate it.
"""

import math


def check_training(f):
    out = []
    losses = f["losses"]
    if not losses:
        return ["training ran no epoch"]
    final = losses[-1]
    if final is None or not math.isfinite(final):
        out.append("final loss %r is not finite" % final)
    elif not final < losses[0]:
        out.append("final loss %.6g is not below the first epoch's %.6g"
                   % (final, losses[0]))
    if not f["test_acc"] > f["majority_share"]:
        out.append("test accuracy %.4f does not beat the majority-class share %.4f"
                   % (f["test_acc"], f["majority_share"]))
    if f["stale_uses"] != 0:
        out.append("%d halo blocks were served stale" % f["stale_uses"])
    return out


def check_partition(f):
    out = []
    own = f["own_cut_edges"]
    if f["program_cut_edges"] != own:
        out.append("program reports %d cut edges, the adjacency has %d"
                   % (f["program_cut_edges"], own))
    # Every cut edge crosses once in each direction of the exchange plans.
    if f["program_cross_edges"] != 2 * own:
        out.append("program reports %d cross edges, expected 2 x %d"
                   % (f["program_cross_edges"], own))
    return out


def check_comm(r):
    if not r["comm_checked"]:
        return []
    if not r["comm_ms_rel_err"] <= 1e-9:
        return ["modelled comm time differs from alpha*messages + bytes/beta "
                "by a relative %.3g" % r["comm_ms_rel_err"]]
    return []


def check_sampling(f):
    out = []
    if f["sample_batches"] < 1 or f["sample_consumers"] < 1:
        out.append("no sampled batch was audited")
    if f["sample_over_fanout"]:
        out.append("%d consumers sampled more neighbours than their fanout"
                   % f["sample_over_fanout"])
    if f["sample_non_edges"]:
        out.append("%d sampled pairs are not edges of the graph"
                   % f["sample_non_edges"])
    return out


def check_serving(f):
    out = []
    floor = f["dispatch_overhead_ms"] + f["compute_ms_per_node"] * f["mean_ball"]
    for p in f["probes"]:
        tag = "at %g qps" % p["qps"]
        if not p["p50_ms"] <= p["p99_ms"] <= p["max_ms"]:
            out.append("%s: p50 %.4g, p99 %.4g, max %.4g are out of order"
                       % (tag, p["p50_ms"], p["p99_ms"], p["max_ms"]))
        if not p["p99_ms"] < f["hist_max_ms"]:
            out.append("%s: p99 %.4g ms is clamped at the histogram limit %.4g"
                       % (tag, p["p99_ms"], f["hist_max_ms"]))
        if not p["mean_ms"] >= floor * (1 - 1e-12):
            out.append("%s: mean latency %.4g ms is below dispatch + compute %.4g ms"
                       % (tag, p["mean_ms"], floor))
    if f["grid_low_fails"]:
        out.append("even the lowest grid rate misses the p99 limit")
    if f["grid_top_passes"]:
        out.append("every grid rate meets the p99 limit; the grid ends too low")
    if not f["grid_low_fails"] and not f["max_p99_ms"] <= f["p99_limit_ms"]:
        out.append("serve_max_qps %g has p99 %.4g above the limit %.4g"
                   % (f["max_qps"], f["max_p99_ms"], f["p99_limit_ms"]))
    if not f["grid_top_passes"] and not f["next_p99_ms"] > f["p99_limit_ms"]:
        out.append("the grid rate above serve_max_qps still meets the limit")
    return out


def check_metrics(r):
    out = []
    for key in ("end_to_end", "per_layer"):
        for name, v in r.get(key, {}).items():
            if v is None or not math.isfinite(v):
                out.append("metric %s is %r" % (name, v))
    return out


ROUND_CHECKS = [check_training, check_partition, check_serving]
RUN_CHECKS = [check_comm, check_metrics]


def run_all(report):
    out = []
    for check in RUN_CHECKS:
        out.extend(check(report))
    round_checks = ROUND_CHECKS + ([check_sampling] if report["samples_expected"] else [])
    for i, facts in enumerate(report["facts"]):
        for check in round_checks:
            out.extend("round %d: %s" % (i, v) for v in check(facts))
    return out
