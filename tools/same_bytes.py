#!/usr/bin/env python3
"""Check that this checkout writes the same outputs as an earlier commit.

    python3 tools/same_bytes.py --base REV
    python3 tools/same_bytes.py --hash-seeds 1,2

With --base, it checks REV out with `git worktree` into a temporary directory outside the
checkout (tools/bench_pairs.worktree, which removes it again on every
exit path).  Then it runs one command list at REV and in this checkout
(the head), each command from the root of its checkout with that
checkout's `src` on PYTHONPATH and PYTHONHASHSEED=0: every `dm-lab`
command that CI runs and the three demos.  For each command it
compares the exit code and the sha256 of the standard output and of the
standard error.  A JSON report on standard output is hashed without its
`timestamp`, dumped as CI dumps it (indent 2, sorted keys); other
output is hashed as it is, with the checkout's path in standard error
written as <root>.  It prints pass, or each command that differs with
both sides, and exits 0 on pass and 1 otherwise.

With --hash-seeds, it runs the same command list in this checkout once
under each PYTHONHASHSEED given and compares each seed's results with
the first seed's, in the same way, so an output that depends on the hash
seed fails.  CI's hash-seed step runs it with --hash-seeds 1,2.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, worktree  # noqa: E402

DM_LAB = "import sys; from artifact.cli import main; main()"


def _dm_lab(*args):
    return ("dm-lab " + " ".join(args), ("-c", DM_LAB, *args))


# every dm-lab command of CI's installed-script step, the two refusals
# among them (exit 2), each once, then the demos
COMMANDS = (
    _dm_lab("all", "--seed", "0"),
    _dm_lab("verify-quotient", "--l", "2", "--real", "--samples", "10"),
    _dm_lab("verify-quotient", "--l", "3", "--real", "--samples", "10"),
    _dm_lab("verify-quotient", "--l", "5", "--samples", "5"),
    _dm_lab("verify-basis", "--l", "6", "--samples", "1"),
    _dm_lab("verify-basis", "--l", "4", "--real", "--samples", "2"),
    _dm_lab("verify-localmodels", "--samples", "50"),
    _dm_lab("verify-localmodels", "--samples", "500", "--bound", "2"),
    _dm_lab("verify-localmodels", "--samples", "300", "--seed", "5", "--bound", "3"),
    _dm_lab("verify-cr", "--samples", "200"),
    _dm_lab("strata", "--l", "6", "--real"),
    _dm_lab("strata", "--l", "6"),
    _dm_lab("schedule", "--l", "5", "--real"),
    _dm_lab("schedule", "--l", "6", "--real"),
    _dm_lab("schedule", "--l", "6"),
    _dm_lab("trees", "--l", "7"),
    _dm_lab("trees", "--l", "5", "--real"),
    _dm_lab("trees", "--l", "11"),
    _dm_lab("trees", "--l", "6", "--real"),
    ("demos/blowup_charts.py", ("demos/blowup_charts.py",)),
    ("demos/boundary_tour.py", ("demos/boundary_tour.py",)),
    ("demos/quotient_fibers.py", ("demos/quotient_fibers.py",)),
)


def digest(out: bytes) -> str:
    """The sha256 of a command's standard output: of a JSON report without
    its timestamp, dumped as CI dumps it, else of the bytes."""
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    if isinstance(report, dict):
        report.pop("timestamp", None)
        out = json.dumps(report, indent=2, sort_keys=True).encode()
    return hashlib.sha256(out).hexdigest()


def run_all(root, commands, hash_seed="0"):
    """{name: (exit code, stdout digest, stderr digest)} of each command
    run from root with root/src on PYTHONPATH, under hash_seed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=hash_seed)
    out = {}
    for name, args in commands:
        res = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True)
        err = res.stderr.replace(os.fsencode(root), b"<root>")
        out[name] = (res.returncode, digest(res.stdout), hashlib.sha256(err).hexdigest())
    return out


def differing(base, head):
    """The names whose results differ between the two runs, in order."""
    return [name for name in base if base[name] != head.get(name)]


def compare(root, rev, commands):
    """(differing names, base results, head results) of the commands at
    rev and in the checkout at root."""
    with worktree(root, rev) as base_root:
        base = run_all(base_root, commands)
    head = run_all(root, commands)
    return differing(base, head), base, head


def compare_seeds(root, seeds, commands):
    """(the first seed's results, [(seed, differing names, its results)]
    for each later seed) of the commands run in the checkout at root."""
    first = run_all(root, commands, seeds[0])
    out = []
    for seed in seeds[1:]:
        results = run_all(root, commands, seed)
        out.append((seed, differing(first, results), results))
    return first, out


def _seeds(text):
    seeds = text.split(",")
    if len(seeds) < 2 or not all(s.isdigit() and int(s) <= 4294967295 for s in seeds):
        raise SystemExit("--hash-seeds needs two or more seeds in 0..4294967295, got %r"
                         % (text,))
    return seeds


def _print_diff(name, a_side, a, b_side, b):
    print("differs: %s\n  %s: exit %d stdout %s stderr %s\n  %s: exit %d stdout %s stderr %s"
          % ((name, a_side) + a + (b_side,) + b))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--base")
    which.add_argument("--hash-seeds")
    args = ap.parse_args(argv)
    if args.hash_seeds is not None:
        seeds = _seeds(args.hash_seeds)
        first, runs = compare_seeds(ROOT, seeds, COMMANDS)
        failed = False
        for seed, diff, results in runs:
            for name in diff:
                _print_diff(name, "seed " + seeds[0], first[name], "seed " + seed, results[name])
            failed = failed or bool(diff)
        print("%d commands under hash seeds %s: %s" % (len(COMMANDS), ",".join(seeds),
                                                       "fail" if failed else "pass"))
        return 1 if failed else 0
    # SIGTERM unwinds like Ctrl-C, so the worktree goes on that path too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    diff, base, head = compare(ROOT, args.base, COMMANDS)
    for name in diff:
        _print_diff(name, "base", base[name], "head", head[name])
    print("%d commands against %s: %s" % (len(COMMANDS), args.base,
                                          "fail" if diff else "pass"))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
