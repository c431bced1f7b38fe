#!/usr/bin/env python3
"""Benchmark of the dm-lab exact-verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run measures whole rounds of the workload until S
seconds have passed and prints the end-to-end metrics.  With `--trace 1`
it runs the workload's fixed number of rounds twice in one process,
untraced and then traced, so that call counts repeat exactly, and prints
the per-layer metrics.  Either way the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
same object, and with `--trace 1` the spans, are written under
`perfbench/results/`.

Metric names and units come from BENCHMARK.json at the checkout root.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 7
CAL_ITERATIONS = 8_000
#: the calibration's time on an unloaded reference machine (see README)
CAL_NOMINAL_S = 0.008
CAL_SHARE = 0.05


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and set up, then print 'ready' (used to "
                         "time set-up in a fresh process)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup_seconds(workload, seed):
    """Median over fresh processes of the time from spawning the process
    to its end of set-up: interpreter start, import, building the inputs.
    Each time is rescaled by the calibration, as in `_timed_rounds`."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    cal = _calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed: %r" % (line,))
        after = _calibrate()
        times.append((t1 - t0) * CAL_NOMINAL_S / ((cal + after) / 2))
        cal = after
    return statistics.median(times)


def _calibrate(at_least=0.0):
    """Mean seconds for a fixed piece of interpreter work of the kind the
    workloads do (integer products and gcds, dict updates, a sort),
    repeated until `at_least` seconds have passed.  It allocates no
    objects the cyclic garbage collector tracks, so its time does not
    depend on how many objects the workload holds."""
    t0 = time.perf_counter()
    runs = 0
    while True:
        table = {}
        x = 1
        for i in range(CAL_ITERATIONS):
            x = x * 48271 % 2147483647
            key = (x % 977) << 4 | (i % 13)
            table[key] = gcd(x, i + 1) + table.get(key, 0)
        sorted(table)
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= at_least:
            return elapsed / runs


def _timed_rounds(wl, seconds):
    """Whole rounds until `seconds` have passed; the rate of each round.

    The machine's speed drifts with the load of whoever shares it, so a
    round's time is rescaled by CAL_NOMINAL_S over the median of the
    calibration times measured before the round and after each of its
    steps.  The calibration after a step runs for CAL_SHARE of the
    step's time, and at least once.
    """
    rates, records, attempted = [], [], 0
    start = time.perf_counter()
    cals = [_calibrate()]
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        items, busy = 0, 0.0
        for step in wl.steps(r):
            t0 = time.perf_counter()
            n, rec = step()
            dt = time.perf_counter() - t0
            cals.append(_calibrate(CAL_SHARE * dt))
            busy += dt
            items += n
            records.append(rec)
        rates.append(items / (busy * CAL_NOMINAL_S / statistics.median(cals)))
        cals = cals[-1:]
        attempted += items
        r += 1
    return rates, records, attempted


def _run_round(wl, r):
    done = [step() for step in wl.steps(r)]
    return sum(n for n, _ in done), [rec for _, rec in done]


def _layer_metrics(tracer, records, workload, untraced_s, traced_s):
    stats = tracer.stats()
    out = {}
    for name, (calls, self_s) in stats.items():
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s

    def ratio(a, b):
        return a / b if b else 0.0

    samples = 0
    if workload == "quotient_real":
        samples = sum(case[3] for case in records)
    calls = {name: c for name, (c, _) in stats.items()}
    out.update({
        "quotient.class_key.domain_excluded":
            tracer.errors[("quotient.class_key", "ChartDomainError")],
        "localmodels.transition.domain_misses":
            tracer.errors[("localmodels.transition", "TransitionDomainError")],
        "quotient.base_of.per_sample": ratio(calls["quotient.base_of"], samples),
        "curves.moduli_key.per_sample": ratio(calls["curves.moduli_key"], samples),
        "trees.path_vertices.per_cross_ratio_q":
            ratio(calls["trees.path_vertices"], calls["curves.cross_ratio_q"]),
        "trees.split_marks.per_stratum_edge":
            ratio(calls["trees.split_marks"], calls["strata.stratum_edge"]),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return out


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "artifact", "__init__.py")):
        sys.stderr.write("error: the program's sources are not at %s\n" % SRC)
        return 2
    os.environ.pop("DM_LAB_THREADS", None)
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("error: unknown workload %r (one of %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed)
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    if args.trace:
        import tracer as tracing

        wl = make(args.seed)
        t0 = time.perf_counter()
        for r in range(make.TRACE_ROUNDS):
            _run_round(wl, r)
        untraced_s = time.perf_counter() - t0
        tracer = tracing.Tracer()
        with tracer:
            wl = make(args.seed)
            t0 = time.perf_counter()
            done = [tracer.round(_run_round, wl, r) for r in range(make.TRACE_ROUNDS)]
            traced_s = time.perf_counter() - t0
        records = [rec for _, recs in done for rec in recs]
        attempted = sum(items for items, _ in done)
        values = _layer_metrics(tracer, records, args.workload, untraced_s, traced_s)
        specs = bench["per_layer"]
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        wl = make(args.seed)
        rates, records, attempted = _timed_rounds(wl, args.seconds)
        values = {
            "items_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        specs = bench["end_to_end"]

    failed, errors = wl.check(records)
    for e in errors[:20]:
        sys.stderr.write("check failed: %s\n" % e)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        tracer.dump(os.path.join(RESULTS, stem + "-spans.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": make.TRACE_ROUNDS})
    with open(os.path.join(RESULTS, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
