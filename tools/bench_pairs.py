#!/usr/bin/env python3
"""Compare this checkout with an earlier commit in alternating benchmark runs.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N --seeds A-B --tag T

Checks REV out with `git worktree` into a temporary directory outside the
checkout, and the head the same way: `git stash create` of the working
tree's changes to tracked files, or HEAD when there are none, so both
sides run from the same kind of location.  Untracked files are not in
the head; stage a new file with `git add` to take it along.  Both
worktrees are removed again on every exit path.  Then it runs
`perfbench/run.py --trace 0` on workload W in N pairs, one run of the
base and one of the head per pair, pair i at seed
A + i (so B - A + 1 must be N), each run as long as BENCHMARK.json's
`run_seconds`.  The base goes first in even pairs and the head in odd
ones, so drift over the session falls on both sides alike.

It writes BENCH_<T>-pairs.json at the root of the checkout, with each
pair's raw `items_per_s`, `setup_s` and `peak_rss_mib` and each run's
`correct` and `failed`; per metric the medians and quartiles of both
sides and the head's wins (pairs where the head is better, in the
metric's direction in BENCHMARK.json); both commits, `dirty` (the head's
tracked files differed from its commit when the runs began) and `stash`
(the commit the head ran from when they did, else null), the number of
usable CPUs and the Python version.  The gate on `items_per_s` is the one that speed
claims use: the head wins at least 9 of every 10 pairs, and its median
is better than the base's by more than the base's interquartile range.
It prints pass or fail, and exits 0 on pass and 1 on fail.  Nothing in
CI runs it.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("items_per_s", "setup_s", "peak_rss_mib")
GATED = "items_per_s"


def _git(root, *args):
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


@contextmanager
def worktree(root, rev):
    """A detached checkout of rev in a new temporary directory, removed
    with its worktree entry when the block exits, however it exits."""
    tmp = tempfile.mkdtemp(prefix="bench-base-")
    path = os.path.join(tmp, "base")
    try:
        _git(root, "worktree", "add", "--detach", path, rev)
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", path], cwd=root,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)


def head_stash(root):
    """`git stash create` of the working tree at root: a commit of its
    tracked files, staged or not, that leaves the tree and the stash list
    as they are; None when the tree matches HEAD."""
    return _git(root, "stash", "create") or None


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles
    computes them by default."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(base, head, better):
    """The pairs in which the head is strictly better."""
    if better == "higher":
        return sum(1 for b, h in zip(base, head) if h > b)
    return sum(1 for b, h in zip(base, head) if h < b)


def gate(base, head, better):
    """The gate on paired values: at least 9 head wins in every 10 pairs,
    and a median gap, in the better direction, larger than the base's
    interquartile range."""
    w = wins(base, head, better)
    q1, median, q3 = quartiles(base)
    gap = statistics.median(head) - median
    if better != "higher":
        gap = -gap
    return {"wins": w, "pairs": len(base), "median_gap": gap, "base_iqr": q3 - q1,
            "pass": 10 * w >= 9 * len(base) and gap > q3 - q1}


def _run(root, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    entry = {m: res["metrics"][m]["value"] for m in METRICS}
    entry.update(correct=res["correct"], failed=res["failed"])
    return entry


def _seeds(text, pairs):
    a, _dash, b = text.partition("-")
    seeds = list(range(int(a), int(b or a) + 1))
    if pairs < 2:
        raise SystemExit("--pairs must be 2 or more, for quartiles")
    if len(seeds) != pairs:
        raise SystemExit("--seeds %s names %d seeds for %d pairs" % (text, len(seeds), pairs))
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds, args.pairs)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit("unknown workload %r" % (args.workload,))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    # SIGTERM unwinds like Ctrl-C, so the worktrees go on that path too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pairs = []
    stash = head_stash(ROOT)
    # the commit the head runs: the stash's parent, or HEAD when the tree
    # is clean; read now, so a commit made during the runs is not named
    head_commit = _git(ROOT, "rev-parse", stash + "^" if stash else "HEAD")
    with worktree(ROOT, args.base) as base_root, \
            worktree(ROOT, stash or head_commit) as head_root:
        roots = {"base": base_root, "head": head_root}
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(roots[side], args.workload, seed, seconds)
            pairs.append(pair)
            print("pair %d seed %d: base %s head %s" % (
                i, seed, pair["base"][GATED], pair["head"][GATED]), flush=True)
        base_commit = _git(base_root, "rev-parse", "HEAD")
    summary = {}
    for m in METRICS:
        base = [p["base"][m] for p in pairs]
        head = [p["head"][m] for p in pairs]
        summary[m] = {"better": better[m], "head_wins": wins(base, head, better[m])}
        for side, values in (("base", base), ("head", head)):
            q1, median, q3 = quartiles(values)
            summary[m][side] = {"median": median, "q1": q1, "q3": q3}
    result = gate([p["base"][GATED] for p in pairs], [p["head"][GATED] for p in pairs],
                  better[GATED])
    report = {
        "tag": args.tag,
        "workload": args.workload,
        "seconds": seconds,
        "base": {"rev": args.base, "commit": base_commit},
        "head": {"commit": head_commit,
                 "dirty": stash is not None,
                 "stash": stash},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": pairs,
        "summary": summary,
        "gate": dict(result, metric=GATED),
    }
    path = os.path.join(ROOT, "BENCH_%s-pairs.json" % (args.tag,))
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % (path,))
    print("%s %s: head wins %d of %d, median gap %.4g, base IQR %.4g: %s" % (
        args.workload, GATED, result["wins"], result["pairs"], result["median_gap"],
        result["base_iqr"], "pass" if result["pass"] else "fail"))
    return 0 if result["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
