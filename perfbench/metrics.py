"""Catalogue of the benchmark's workloads and metrics.

BENCHMARK.json at the checkout root lists the same names, units, directions
and bounds; selftest.py fails when the two disagree.
"""

WORKLOADS = ("train-full", "train-sampled", "serve-ladder")

# Bounds are shares of the parent's median; they come from steady.py runs
# (see README.md, "Reference figures").
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "comm_mb_per_epoch", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "comm_ms_per_epoch", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "final_loss", "unit": "nats", "better": "lower", "bound": 0.25},
    {"name": "test_acc", "unit": "fraction", "better": "higher", "bound": 0.05},
    {"name": "serve_sim_qps", "unit": "queries/s", "better": "higher", "bound": 0.25},
    {"name": "serve_p50_ms.light", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "serve_p99_ms.light", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "serve_p99_ms.heavy", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "serve_max_qps", "unit": "queries/s", "better": "higher", "bound": 0.25},
]

# Per-layer metrics: module, the end-to-end metric each should move, and
# the workload where it should move most ("heavy") or not at all ("flat").
PER_LAYER = [
    # name, unit, better, moves, heavy, flat
    # Whole-process wall times: measured wall time moved by 30-40% between
    # runs on the reference host, beyond any bound, so they stay here.
    ("run_wall_s", "s", "lower", "-", "train-full", "-"),
    ("epoch_wall_ms", "ms", "lower", "-", "train-full", "-"),
    ("graph.make_dataset_s", "s", "lower", "setup_s", "train-full", "train-sampled"),
    ("partition.make_partitioning_s", "s", "lower", "setup_s", "train-full", "serve-ladder"),
    ("partition.cut_edges", "count", "lower", "comm_mb_per_epoch", "train-full", "serve-ladder"),
    ("dist.context_build_s", "s", "lower", "setup_s", "train-full", "-"),
    ("dist.context_builds", "count", "lower", "run_wall_s", "train-full", "-"),
    ("core.grouping_setup_s", "s", "lower", "setup_s", "train-full", "train-sampled"),
    ("core.wire_rows", "count", "lower", "comm_mb_per_epoch", "train-full", "train-sampled"),
    ("core.compression_ratio", "ratio", "higher", "comm_mb_per_epoch", "train-full", "train-sampled"),
    ("core.post_train_s", "s", "lower", "run_wall_s", "train-full", "train-sampled"),
    ("tensor.spmm_ms", "ms", "lower", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("tensor.gemm_ms", "ms", "lower", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("gnn.eval_ms", "ms", "lower", "run_wall_s", "train-full", "serve-ladder"),
    ("gnn.first_epoch_ms", "ms", "lower", "run_wall_s", "train-full", "serve-ladder"),
    ("dist.compress_ms_per_epoch", "ms", "lower", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("dist.compress_calls_per_epoch", "count", "lower", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("dist.ef_recovered_mb_per_epoch", "MB", "lower", "comm_mb_per_epoch", "train-full", "serve-ladder"),
    ("dist.sample_batch_ms", "ms", "lower", "epoch_wall_ms", "train-sampled", "train-full"),
    ("dist.batches_per_epoch", "count", "lower", "epoch_wall_ms", "train-sampled", "train-full"),
    ("dist.mean_batch_nodes", "count", "lower", "epoch_wall_ms", "train-sampled", "train-full"),
    ("dist.requested_rows_per_epoch", "count", "lower", "comm_mb_per_epoch", "train-sampled", "train-full"),
    ("comm.messages_per_epoch", "count", "lower", "comm_ms_per_epoch", "train-full", "train-sampled"),
    ("comm.bytes_mb_per_epoch", "MB", "lower", "comm_mb_per_epoch", "train-full", "train-sampled"),
    ("comm.weight_sync_mb_per_epoch", "MB", "lower", "comm_mb_per_epoch", "train-full", "train-sampled"),
    ("runtime.migrated_mb", "MB", "lower", "comm_mb_per_epoch", "train-full", "train-sampled"),
    ("runtime.rebuild_ms", "ms", "lower", "comm_ms_per_epoch", "train-full", "train-sampled"),
    ("serve.server_setup_s", "s", "lower", "setup_s", "serve-ladder", "-"),
    ("serve.resolve_us_per_query", "us", "lower", "serve_sim_qps", "serve-ladder", "-"),
    ("serve.hit_rate", "fraction", "higher", "serve_p99_ms.heavy", "serve-ladder", "-"),
    ("serve.halo_mb", "MB", "lower", "serve_p99_ms.heavy", "serve-ladder", "-"),
    ("serve.mean_batch", "count", "higher", "serve_max_qps", "serve-ladder", "-"),
    ("serve.max_ms", "ms", "lower", "serve_p99_ms.heavy", "serve-ladder", "-"),
    ("common.pool_region_ms_per_epoch", "ms", "lower", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("common.pool_regions_per_epoch", "count", "lower", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("common.pool_cover_pct", "%", "higher", "epoch_wall_ms", "train-full", "serve-ladder"),
    ("obs.alloc_per_steady_epoch", "count", "lower", "epoch_wall_ms", "train-full", "-"),
    ("obs.report_kb", "KB", "lower", "-", "-", "-"),
    ("obs.trace_overhead_pct", "%", "lower", "-", "-", "-"),
    ("obs.untraced_pct", "%", "lower", "-", "-", "-"),
    ("obs.scenario_untraced_pct", "%", "lower", "-", "-", "-"),
]
PER_LAYER = [{"name": n, "unit": u, "better": b, "moves": mv, "heavy": h, "flat": f}
             for n, u, b, mv, h, f in PER_LAYER]


def by_module(values):
    """Group per-layer values by module prefix, in catalogue order."""
    groups = {}
    for m in PER_LAYER:
        module = m["name"].split(".", 1)[0]
        groups.setdefault(module, []).append((m["name"], values[m["name"]], m["unit"]))
    return list(groups.items())
