#!/usr/bin/env python3
"""Record the benchmark and the tier-1 wall time of this checkout.

    python3 tools/bench_record.py --tag T

Runs `perfbench/run.py --trace 0` for every workload in BENCHMARK.json at
seeds 1, 2 and 3, 15 s each, and `perfbench/run.py --trace 1` for every
workload at seed 1, then one timed tier-1 pass (the pytest command in
ROADMAP.md), and writes BENCH_<T>.json at the root of the checkout.  For
each workload the file holds the median and the raw values of
`items_per_s`, `setup_s` and `peak_rss_mib`, and each run's `correct`
and `failed`; under `per_layer` it holds the traced run's metrics, whose
call counts repeat exactly from run to run (its seconds do not).  It
also holds the tier-1 wall seconds and counts, the
`call` seconds of each test in tests/test_acceptance.py (under
`tier1.criteria`, read from a JUnit XML report written to a temporary
file outside the checkout), the line counts of src/artifact/*.py and
tests/*.py (under `lines`, as `wc -l` counts them), the number of usable
CPUs, the Python version and the commit (with `dirty` true when the
working tree differs from it).  It takes about five minutes; nothing in
CI runs it.
"""

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
TRACE_SEED = 1
SECONDS = 15
METRICS = ("items_per_s", "setup_s", "peak_rss_mib")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _bench(workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    fd, junit = tempfile.mkstemp(prefix="tier1-", suffix=".xml")
    os.close(fd)
    try:
        t0 = time.perf_counter()
        proc = subprocess.run(TIER1 + ["--junitxml", junit, "-o", "junit_duration_report=call"],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        criteria = _criteria(junit)
    finally:
        os.unlink(junit)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"wall_s": round(wall, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "returncode": proc.returncode,
            "summary": summary, "criteria": criteria}


def _criteria(junit):
    """Test name -> `call` seconds for the tests of tests/test_acceptance.py
    in a JUnit XML report; {} when pytest wrote none."""
    if not os.path.getsize(junit):
        return {}
    return {case.get("name"): round(float(case.get("time")), 3)
            for case in ET.parse(junit).iter("testcase")
            if case.get("classname") == "tests.test_acceptance"}


def _lines():
    """{"src": N, "tests": M}: the newline counts of src/artifact/*.py and
    tests/*.py."""
    out = {}
    for key, pattern in (("src", "src/artifact/*.py"), ("tests", "tests/*.py")):
        out[key] = 0
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path, encoding="utf-8") as f:
                out[key] += f.read().count("\n")
    return out


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
        "lines": _lines(),
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
    report["per_layer"] = {}
    for w in workloads:
        traced = _bench(w, TRACE_SEED, trace=1)
        report["per_layer"][w] = {name: m["value"] for name, m in traced["metrics"].items()}
        print("%s traced at seed %d" % (w, TRACE_SEED), flush=True)
    report["tier1"] = _tier1()
    print("tier-1: %s" % (report["tier1"]["summary"],), flush=True)
    path = os.path.join(ROOT, "BENCH_%s.json" % (args.tag,))
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % (path,))


if __name__ == "__main__":
    main()
