#!/usr/bin/env python3
"""Whole-process benchmark of the SC-GNN library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the driver (perfbench/CMakeLists.txt)
into .bench_build/ in a pinned Release configuration, runs one workload for
about --seconds, checks the program's outputs (checks.py) and prints the
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits non-zero when the
build fails or any output check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import metrics as catalogue  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
CTX_SYMBOL = re.compile(r"\b(_ZN5scgnn4dist11DistContextC1E\S*)$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd):
    """Run a build step, its output to stderr; raise on failure."""
    log("+ " + " ".join(cmd))
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def ctx_symbols():
    """DistContext constructor symbols defined in the built libraries."""
    syms = set()
    for root, _, files in os.walk(os.path.join(BUILD_DIR, "scgnn")):
        for f in files:
            if not f.endswith(".a"):
                continue
            out = subprocess.run(["nm", "--defined-only", os.path.join(root, f)],
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                m = CTX_SYMBOL.search(line)
                if m and " T " in line:
                    syms.add(m.group(1))
    return sorted(syms)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        sh(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # Second pass: wrap the DistContext constructors with the counting
    # trampoline once their symbols are known.
    syms = ctx_symbols()
    wanted = ";".join(syms)
    with open(cache) as f:
        have = re.search(r"^PERFBENCH_WRAP_SYMBOLS:STRING=(.*)$", f.read(), re.M)
    if syms and (have is None or have.group(1) != wanted):
        sh(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DPERFBENCH_WRAP_SYMBOLS=" + wanted])
        sh(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_driver(workload, seed, seconds, trace, threads):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError("driver exited with %d" % out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def print_table(title, rows):
    print("## " + title)
    for name, value, unit in rows:
        print("  %-36s %16.6g  %s" % (name, value, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=catalogue.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None,
                    help="pool width (default: min(4, nproc))")
    args = ap.parse_args(argv)
    threads = args.threads or min(4, os.cpu_count() or 1)

    try:
        build()
        res = run_driver(args.workload, args.seed, args.seconds, args.trace, threads)
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError) as e:
        log("benchmark failed: %s" % e)
        return 1

    print("# workload %s  seed %d  rounds %d  threads %d" % (
        res["workload"], args.seed, res["rounds"], res["threads"]))
    print("# build %s  flags '%s'  compiler %s  cpu %s  ctx_hook %s" % (
        res["build_type"], res["cxx_flags"].strip(), res["compiler"], res["cpu"],
        res["ctx_hook"]))

    violations = checks.run_all(res)
    for v in violations:
        log("CHECK FAILED: " + v)

    if args.trace:
        values = res["per_layer"]
        specs = catalogue.PER_LAYER
        for module, rows in catalogue.by_module(values):
            print_table(module, rows)
    else:
        values = res["end_to_end"]
        specs = catalogue.END_TO_END
        print_table("end to end", [(m["name"], values[m["name"]], m["unit"])
                                   for m in specs])
    print("# operations attempted %d, failed %d" % (res["attempted"], res["failed"]))

    result = {
        "correct": not violations,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
