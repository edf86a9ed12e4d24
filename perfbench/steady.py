#!/usr/bin/env python3
"""Steadiness of the benchmark: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]
                                [--out results.json]

Runs two interleaved sets of runs of every workload (set A with seeds
1..runs, set B with seeds 1001..1000+runs; each run has its own seed) and
prints, per workload and end-to-end metric, each set's median and
quartiles. A metric agrees when, in both sets, the quartile spread
(Q3 − Q1) / median stays within its bound (setup_s exempt) and set B's
median is not worse than set A's by more than the bound; the share of
failed operations must be the same in both sets. The bounds in
BENCHMARK.json are set from this output. Exits 1 when anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        print("# %s seed %d exited %d" % (workload, seed, out.returncode),
              file=sys.stderr, flush=True)
        return {"exit": out.returncode, "took_s": took}
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["took_s"] = took
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(a_med, b_med, better):
    """Share by which set B's median is worse than set A's."""
    if a_med == 0:
        return 0.0 if b_med == a_med else float("inf")
    d = (b_med - a_med) / abs(a_med)
    return d if better == "lower" else -d


def compare(results, bounds):
    """Print the agreement table; return the number of disagreements."""
    bad = 0
    for wl, sets in results.items():
        print("## %s" % wl)
        broken = [r for s in ("A", "B") for r in sets[s] if "exit" in r]
        if broken:
            print("  %d run(s) exited non-zero -> DISAGREE" % len(broken))
            bad += 1
            sets = {s: [r for r in sets[s] if "exit" not in r] for s in ("A", "B")}
        print("  %-20s %10s %-30s %-30s %8s %8s %8s %s" % (
            "metric", "bound", "set A median [Q1, Q3]", "set B median [Q1, Q3]",
            "spreadA", "spreadB", "worse", "verdict"))
        for m in catalogue.END_TO_END:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            w = worse_by(qa[1], qb[1], m["better"])
            bound = bounds[name]
            ok = w <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            third = ok and (name == "setup_s" or max(sa, sb) <= bound / 3)
            bad += 0 if ok else 1
            print("  %-20s %10.3f %-30s %-30s %8.3f %8.3f %8.3f %s" % (
                name, bound,
                "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]),
                sa, sb, w, "ok" if third else ("ok (> bound/3)" if ok else "DISAGREE")))
        shares = []
        for s in ("A", "B"):
            att = sum(r["attempted"] for r in sets[s])
            fail = sum(r["failed"] for r in sets[s])
            shares.append((fail, att))
        same = all(f * shares[0][1] == shares[0][0] * a for f, a in shares) \
            if shares[0][1] else False
        if not same:
            bad += 1
        took = [r["took_s"] for s in ("A", "B") for r in sets[s]]
        print("  failed/attempted: A %d/%d, B %d/%d -> %s;  run took %.1f-%.1f s" % (
            shares[0][0], shares[0][1], shares[1][0], shares[1][1],
            "same share" if same else "DIFFERENT SHARE", min(took), max(took)))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=",".join(catalogue.WORKLOADS))
    ap.add_argument("--out", default=None, help="write every run's result here")
    ap.add_argument("--load", default=None, help="compare saved results instead")
    args = ap.parse_args()

    bench = None
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in
              (bench["end_to_end"] if bench else catalogue.END_TO_END)}
    seconds = args.seconds or (bench["run_seconds"] if bench else 30)

    if args.load:
        with open(args.load) as f:
            results = json.load(f)
    else:
        wls = args.workloads.split(",")
        results = {wl: {"A": [], "B": []} for wl in wls}
        for i in range(args.runs):
            for s, base in (("A", 1), ("B", 1001)):
                for wl in wls:
                    seed = base + i
                    res = one_run(wl, seed, seconds)
                    res["seed"] = seed
                    results[wl][s].append(res)
                    if args.out:
                        with open(args.out, "w") as f:
                            json.dump(results, f, indent=1)
                    print("# run %d set %s %s seed %d: %.1f s" % (
                        i + 1, s, wl, seed, res["took_s"]), file=sys.stderr, flush=True)
    bad = compare(results, bounds)
    print("steady" if bad == 0 else "%d disagreement(s)" % bad)
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
