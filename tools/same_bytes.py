#!/usr/bin/env python3
"""Check that this checkout writes the same outputs as an earlier commit.

    python3 tools/same_bytes.py --base REV
    python3 tools/same_bytes.py --hash-seeds 1,2

COMMANDS is the one list of the commands that CI checks, each with the
exit code it must give: every `dm-lab` command and the three demos.
With --base, it checks REV out with `git worktree` into a temporary
directory outside the checkout (tools/bench_pairs.worktree, which
removes it again on every exit path).  Then it runs the list at REV and
in this checkout (the head), each command from the root of its checkout
with that checkout's `src` on PYTHONPATH and PYTHONHASHSEED=0.  For each
command it compares the exit code and the sha256 of the standard output
and of the standard error.  A JSON report on standard output is hashed
without its `timestamp`, dumped as dm-lab dumps it (indent 2, sorted
keys); other output is hashed as it is, with the checkout's path in
standard error written as <root>.  A command fails when its results
differ or its exit code at the head is not the one it must give.  It
prints pass, or each failure with both sides or with the code got and
the one expected, and exits 0 on pass and 1 otherwise.

With --hash-seeds, it runs the same list in this checkout once under
each PYTHONHASHSEED given and compares each seed's results with the
first seed's, in the same way, so an output that depends on the hash
seed fails, and checks the exit codes under the first seed.  CI's
hash-seed step runs it with --hash-seeds 1,2.
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


def _dm_lab(*args, code=0):
    return ("dm-lab " + " ".join(args), ("-c", DM_LAB, *args), code)


# (name, arguments after the interpreter, the exit code it must give)
COMMANDS = (
    # every suite at its defaults, in one report; CI's installed-script
    # step also runs it through the console script
    _dm_lab("all", "--seed", "0"),
    _dm_lab("verify-quotient", "--l", "2", "--real", "--samples", "10"),
    # real l = 3, where the real, augmented and complex blowups all occur
    _dm_lab("verify-quotient", "--l", "3", "--real", "--samples", "10"),
    # complex l = 5: complex placements and forget
    _dm_lab("verify-quotient", "--l", "5", "--samples", "5"),
    # every complex l = 6 tree through the reconstruction table
    _dm_lab("verify-basis", "--l", "6", "--samples", "1"),
    # every real l = 4 tree through the same table
    _dm_lab("verify-basis", "--l", "4", "--real", "--samples", "2"),
    # the basis suite's two refusals: complex l = 3 has no 4-subset of
    # marks, and no sample compares nothing
    _dm_lab("verify-basis", "--l", "3", "--samples", "1", code=2),
    _dm_lab("verify-basis", "--l", "5", "--samples", "0", code=2),
    # every local-model preset through the chart algebra
    _dm_lab("verify-localmodels", "--samples", "50"),
    # at bound 2 sampled images repeat across charts, so the verifier
    # compares chart presentations as points
    _dm_lab("verify-localmodels", "--samples", "500", "--bound", "2"),
    # the same presets at seed 5 and bound 3
    _dm_lab("verify-localmodels", "--samples", "300", "--seed", "5", "--bound", "3"),
    # the cross-ratio check, the real and complex index sets and
    # schedules, and the complex tree list
    _dm_lab("verify-cr", "--samples", "200"),
    _dm_lab("strata", "--l", "6", "--real"),
    _dm_lab("strata", "--l", "6"),
    _dm_lab("schedule", "--l", "5", "--real"),
    _dm_lab("schedule", "--l", "6", "--real"),
    _dm_lab("schedule", "--l", "6"),
    _dm_lab("trees", "--l", "7"),
    # complex l = 8, 39,208 trees under MAX_TREES: the largest size CI
    # enumerates, where trees share the most of their size's kept tables
    _dm_lab("trees", "--l", "8"),
    # the real tree list, each tree built from its family of splits
    _dm_lab("trees", "--l", "5", "--real"),
    # l = 11 is over the size guardrail: a usage error
    _dm_lab("trees", "--l", "11", code=2),
    # real l = 6 would build 264,320 trees, over the work guard
    _dm_lab("trees", "--l", "6", "--real", code=2),
    ("demos/blowup_charts.py", ("demos/blowup_charts.py",), 0),
    ("demos/boundary_tour.py", ("demos/boundary_tour.py",), 0),
    ("demos/quotient_fibers.py", ("demos/quotient_fibers.py",), 0),
)


def digest(out: bytes) -> str:
    """The sha256 of a command's standard output: of a JSON report without
    its timestamp, dumped as dm-lab dumps it, else of the bytes."""
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
    for name, args, _code in commands:
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


def _print_wrong_codes(side, results):
    """Print each command of COMMANDS whose exit code in results is not
    the one it must give; True if there is one."""
    wrong = [(name, results[name][0], code) for name, _args, code in COMMANDS
             if results[name][0] != code]
    for name, got, code in wrong:
        print("wrong exit code: %s\n  %s: got %d, expected %d" % (name, side, got, code))
    return bool(wrong)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--base")
    which.add_argument("--hash-seeds")
    args = ap.parse_args(argv)
    if args.hash_seeds is not None:
        seeds = _seeds(args.hash_seeds)
        first, runs = compare_seeds(ROOT, seeds, COMMANDS)
        failed = _print_wrong_codes("seed " + seeds[0], first)
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
    failed = _print_wrong_codes("head", head) or bool(diff)
    for name in diff:
        _print_diff(name, "base", base[name], "head", head[name])
    print("%d commands against %s: %s" % (len(COMMANDS), args.base,
                                          "fail" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
