#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds every check in checks.py a report built to violate it and confirms
the check fails (and passes the unbroken report), runs the driver's own
self-tests (perfbench_driver --selftest: cut-edge count, BFS balls and the
sample audit against forged inputs), and confirms BENCHMARK.json lists the
metrics of metrics.py. Run it from the checkout root after one run.py
build. Exits 1 on any failure.
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics as catalogue  # noqa: E402


def good_report():
    """A report every check accepts: two rounds of plausible facts."""
    facts = {
        "losses": [1.9, 1.2, 0.8],
        "stale_uses": 0,
        "test_acc": 0.8,
        "majority_share": 0.3,
        "program_cut_edges": 100,
        "program_cross_edges": 200,
        "own_cut_edges": 100,
        "sample_batches": 4,
        "sample_consumers": 50,
        "sample_over_fanout": 0,
        "sample_non_edges": 0,
        "hist_max_ms": 50.0,
        "dispatch_overhead_ms": 0.05,
        "compute_ms_per_node": 0.0005,
        "mean_ball": 1000.0,
        "probes": [
            {"qps": 500, "p50_ms": 2.5, "p99_ms": 4.0, "max_ms": 5.0, "mean_ms": 2.6},
            {"qps": 2000, "p50_ms": 3.0, "p99_ms": 9.0, "max_ms": 11.0, "mean_ms": 3.4},
            {"qps": 4000, "p50_ms": 4.0, "p99_ms": 11.0, "max_ms": 13.0, "mean_ms": 4.5},
            {"qps": 3000, "p50_ms": 3.5, "p99_ms": 9.5, "max_ms": 12.0, "mean_ms": 3.9},
        ],
        "p99_limit_ms": 10.0,
        "max_qps": 3000,
        "max_p99_ms": 9.5,
        "next_p99_ms": 11.0,
        "grid_low_fails": False,
        "grid_top_passes": False,
    }
    return {
        "comm_checked": True,
        "comm_ms_rel_err": 1e-15,
        "samples_expected": True,
        "attempted": 100,
        "failed": 0,
        "end_to_end": {"setup_s": 1.0},
        "facts": [facts, copy.deepcopy(facts)],
    }


def breakers():
    """(what, mutation) pairs; each mutation breaks exactly one property."""
    def fact(key, value):
        def apply(r):
            r["facts"][1][key] = value
        return apply

    def probe(i, key, value):
        def apply(r):
            r["facts"][1]["probes"][i][key] = value
        return apply

    def top(key, value):
        def apply(r):
            r[key] = value
        return apply

    def clamp(r):
        p = r["facts"][1]["probes"][2]
        p["p99_ms"], p["max_ms"] = 50.0, 60.0

    return [
        ("final loss not finite", fact("losses", [1.9, 1.2, float("nan")])),
        ("final loss not below the first", fact("losses", [1.0, 1.2, 1.1])),
        ("accuracy at the majority share", fact("test_acc", 0.3)),
        ("stale halo used", fact("stale_uses", 3)),
        ("cut edges differ from own count", fact("program_cut_edges", 99)),
        ("cross edges not twice the cut", fact("program_cross_edges", 201)),
        ("comm time off the alpha-beta model", top("comm_ms_rel_err", 1e-3)),
        ("no batch audited", fact("sample_batches", 0)),
        ("sample over its fanout", fact("sample_over_fanout", 1)),
        ("sampled non-edge", fact("sample_non_edges", 2)),
        ("p50 above p99", probe(0, "p50_ms", 4.5)),
        ("p99 above max", probe(1, "max_ms", 8.0)),
        ("p99 clamped at the histogram limit", clamp),
        ("mean below dispatch + compute", probe(0, "mean_ms", 0.5)),
        ("lowest grid rate misses the limit", fact("grid_low_fails", True)),
        ("grid ends below capacity", fact("grid_top_passes", True)),
        ("max rate misses the limit", fact("max_p99_ms", 10.5)),
        ("next rate meets the limit", fact("next_p99_ms", 9.9)),
        ("metric not finite", top("end_to_end", {"setup_s": float("inf")})),
    ]


def test_checks():
    bad = 0
    base = good_report()
    clean = checks.run_all(base)
    print("%s unbroken report passes every check" % ("ok  " if not clean else "FAIL"))
    if clean:
        print("     " + "; ".join(clean))
        bad += 1
    for what, mutate in breakers():
        r = copy.deepcopy(base)
        mutate(r)
        caught = checks.run_all(r)
        print("%s %s -> %s" % ("ok  " if caught else "FAIL", what,
                               caught[0] if caught else "not caught"))
        bad += 0 if caught else 1
    # The sample audit only applies to the sampled workload.
    r = copy.deepcopy(base)
    r["samples_expected"] = False
    r["facts"][1]["sample_non_edges"] = 5
    skipped = not checks.run_all(r)
    print("%s sample audit skipped where no samples are drawn" % ("ok  " if skipped else "FAIL"))
    bad += 0 if skipped else 1
    return bad


def test_benchmark_json():
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        print("FAIL BENCHMARK.json not found (run from the checkout root)")
        return 1
    with open(path) as f:
        bench = json.load(f)
    bad = 0
    names = [w["name"] for w in bench["workloads"]]
    ok = tuple(names) == catalogue.WORKLOADS
    e2e = bench["end_to_end"] == catalogue.END_TO_END
    per = bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                 for m in catalogue.PER_LAYER]
    for good, what in ((ok, "workloads"), (e2e, "end-to-end metrics"),
                       (per, "per-layer metrics")):
        print("%s BENCHMARK.json %s match metrics.py" % ("ok  " if good else "FAIL", what))
        bad += 0 if good else 1
    return bad


def test_driver():
    driver = os.path.join(".bench_build", "perfbench", "perfbench_driver")
    if not os.path.exists(driver):
        print("FAIL %s not built (run perfbench/run.py once)" % driver)
        return 1
    out = subprocess.run([driver, "--selftest"], capture_output=True, text=True)
    sys.stdout.write(out.stdout)
    return 0 if out.returncode == 0 else 1


def main():
    bad = test_checks() + test_benchmark_json() + test_driver()
    print("selftest: %s" % ("all passed" if bad == 0 else "%d failure(s)" % bad))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
