#!/usr/bin/env python3
"""Check the tracer's call counts against cProfile.

    python3 perfbench/check_tracer.py

Runs one small, seeded slice of every workload twice: under cProfile
with no tracer, then under the tracer.  For every span name the tracer's
`.calls` must equal the sum of cProfile's `ncalls` over the functions it
wraps; a wrapper that some caller bypasses shows up as a difference.
Prints one line per span name and exits 1 on any difference.
"""

import cProfile
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.pop("DM_LAB_THREADS", None)

import tracer as tracing  # noqa: E402
from artifact import cli, quotient, strata, trees  # noqa: E402


def small_run():
    cli.verify_basis_suite(5, samples=1, seed=3)
    real3 = trees.enumerate_trees(3, real=True)
    _, ordered = strata.build_a_ell_real(3)
    for i, j in ((0, 0), (7, 5), (20, 11), (35, 19)):
        cut = frozenset() if j == 0 else ordered[j - 1].rho_set
        quotient.verify_injectivity(real3[i], cut, n_samples=12, seed=("3", i),
                                    real=True, bound=40)
    trees.enumerate_trees(3, real=True)
    trees.enumerate_trees(6)
    strata.schedule(4, real=True)
    cli.verify_localmodels_suite(30, seed=3)


def main():
    prof = cProfile.Profile()
    prof.runcall(small_run)
    by_code = {}
    for (path, line, func), row in pstats.Stats(prof).stats.items():
        by_code[(path, line, func)] = row[1]   # ncalls, recursive calls included

    tracer = tracing.Tracer(max_spans=0)
    with tracer:
        small_run()

    bad = 0
    for name, (calls, _) in tracer.stats().items():
        want = 0
        for fn in tracing.original_functions(name):
            code = fn.__code__
            want += by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        same = calls == want
        bad += not same
        print("%-40s tracer %8d  cProfile %8d  %s" % (name, calls, want,
                                                       "ok" if same else "DIFFERENT"))
    print("%d of %d span names differ" % (bad, len(tracer.stats())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
