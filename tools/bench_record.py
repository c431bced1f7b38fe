#!/usr/bin/env python3
"""Record the benchmark and the tier-1 wall time of this checkout.

    python3 tools/bench_record.py --tag T

Runs `perfbench/run.py --trace 0` for every workload in BENCHMARK.json at
seeds 1, 2 and 3, 15 s each, then one timed tier-1 pass (the pytest
command in ROADMAP.md), and writes BENCH_<T>.json at the root of the
checkout.  For each workload the file holds the median and the raw values
of `items_per_s`, `setup_s` and `peak_rss_mib`, and each run's `correct`
and `failed`; it also holds the tier-1 wall seconds and counts, the
number of usable CPUs, the Python version and the commit (with `dirty`
true when the working tree differs from it).  It takes about five
minutes; nothing in CI runs it.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
SECONDS = 15
METRICS = ("items_per_s", "setup_s", "peak_rss_mib")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _bench(workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"wall_s": round(wall, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "returncode": proc.returncode,
            "summary": summary}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            res = _bench(w, seed)
            runs[w].append(res)
            print("%s seed %d: %s" % (w, seed, json.dumps(res)), flush=True)
    report = {
        "tag": args.tag,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": {},
    }
    for w, rs in runs.items():
        entry = {}
        for m in METRICS:
            values = [r["metrics"][m]["value"] for r in rs]
            entry[m] = {"median": statistics.median(values), "values": values}
        entry["correct"] = [r["correct"] for r in rs]
        entry["failed"] = [r["failed"] for r in rs]
        report["workloads"][w] = entry
    report["tier1"] = _tier1()
    print("tier-1: %s" % (report["tier1"]["summary"],), flush=True)
    path = os.path.join(ROOT, "BENCH_%s.json" % (args.tag,))
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % (path,))


if __name__ == "__main__":
    main()
