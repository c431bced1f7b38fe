"""The four workloads: set-up, one round of timed work, and the checks.

Building a workload object (`Workload(seed)`) is the benchmark's set-up:
the inputs the rounds and the checks need.  `steps(r)` gives round r as
a list of calls, each doing part of the round's work and returning
(items, record); every round does the same operations.  The records of
a run go to `check(records)`, which returns (failed, errors).
`failed` counts items whose result the program itself reports as wrong;
`errors` lists every disagreement with the reference computations in
`oracles`, which makes the run incorrect.

All four run in this process; none uses the `DM_LAB_THREADS` pool.
"""

import itertools
import random
from math import comb

import oracles
from artifact import charts, cli, curves, localmodels, quotient, strata, trees


def _homogeneous(p):
    """A ProjPoint as ((re a, im a), (re b, im b)) in Fractions."""
    a, b = p.a, p.b
    return (a.re, a.im), (b.re, b.im)


def _tree_splits(t, relabel=None):
    return oracles.split_system(t.vertex_count, t.edges, t.mu, relabel)


class Reconstruct:
    """Criterion 4's work: complex l = 6, one seeded curve per tree per
    round through `cli.verify_basis_suite`, table against direct cross
    ratio on all 15 quadruples.  An item is one curve."""

    L, BOUND = 6, 40
    TRACE_ROUNDS = 4

    def __init__(self, seed):
        self.seed = seed
        self.trees = trees.enumerate_trees(self.L)
        self.bases = [charts.gamma_basis(t) for t in self.trees]

    def round_seed(self, r):
        return self.seed * 100_000 + r

    def steps(self, r):
        return [lambda: self._suite(r)]

    def _suite(self, r):
        rep = cli.verify_basis_suite(self.L, samples=1, seed=self.round_seed(r),
                                     bound=self.BOUND)
        record = {
            "r": r,
            "trees": rep["trees"],
            "quadruples": rep["quadruples_per_curve"],
            "basis_sizes": sorted({c["basis_size"] for c in rep["cases"]}),
            "mismatched_curves": sum(1 for c in rep["cases"] if c["mismatches"]),
        }
        return rep["trees"], record

    def _curve(self, r, idx):
        return curves.sample_curve(self.trees[idx], self.BOUND,
                                   (str(self.round_seed(r)), "basis", idx, 0))

    def check(self, records):
        errors = []
        want_trees = oracles.stable_tree_count(self.L)
        for rec in records:
            if rec["trees"] != want_trees:
                errors.append("round %d: %d trees, A000311 gives %d"
                              % (rec["r"], rec["trees"], want_trees))
            if rec["quadruples"] != comb(self.L, 4):
                errors.append("round %d: %d quadruples per curve"
                              % (rec["r"], rec["quadruples"]))
            if rec["basis_sizes"] != [self.L - 3]:
                errors.append("round %d: basis sizes %r, want %d"
                              % (rec["r"], rec["basis_sizes"], self.L - 3))
        failed = sum(rec["mismatched_curves"] for rec in records)

        marks = trees.sort_marks(trees.complex_marks(self.L))
        quads = list(itertools.combinations(marks, 4))
        degenerate = []   # per tree: [(quad, expected value)]
        for t in self.trees:
            sides = oracles.edge_splits(t.vertex_count, t.edges, t.mu).values()
            degenerate.append([
                (q, oracles.degenerate_value(q, side))
                for q in quads for side in sides
                if sum(m in side for m in q) == 2
            ])
        # every curve of the first round and of one seeded round, and the
        # smooth curve of every round, is rebuilt and checked
        smooth = [i for i, t in enumerate(self.trees) if t.vertex_count == 1]
        rng = random.Random("reconstruct-check:%d" % self.seed)
        full = {records[0]["r"]}
        full.add(rng.choice(records)["r"])
        for rec in records:
            r = rec["r"]
            for idx in (range(len(self.trees)) if r in full else smooth):
                c = self._curve(r, idx)
                basis = self.bases[idx]
                table = charts.ReconstructionTable(
                    self.trees[idx], values=charts.basis_values(c, basis),
                    basis=basis)
                for q, want in degenerate[idx]:
                    if not oracles.same_point(want, *_homogeneous(table.value(q))):
                        errors.append("round %d tree %d: %r is not its 2|2 value"
                                      % (r, idx, q))
                if idx in smooth:
                    pos = {m: _homogeneous(c.coords[0][("m", m)]) for m in marks}
                    for q in quads:
                        want = oracles.cross_ratio_pair(*(pos[m] for m in q))
                        if not oracles.same_point(want, *_homogeneous(table.value(q))):
                            errors.append("round %d: smooth curve %r differs from "
                                          "the determinant formula" % (r, q))
        return failed, errors


class QuotientReal:
    """`quotient.verify_injectivity` on the real l = 3 space (36 trees, 20
    cut labels).  Every round runs the same 36 cases, tree i with cut
    label i mod 20, so each tree once and each cut label at least once;
    the seed and the round choose the sampled curves.  An item is one
    (tree, cut label) case."""

    L, SAMPLES, BOUND = 3, 40, 40
    TRACE_ROUNDS = 2
    CHECKED_CASES = 4    # cases whose samples are rebuilt and checked
    #: blowup types of the l = 3 real schedule
    SCHEDULE_TYPES = {"real": 3, "augmented(1)": 4, "complex": 12}

    def __init__(self, seed):
        self.seed = seed
        self.trees = trees.enumerate_trees(self.L, real=True)
        _, ordered = strata.build_a_ell_real(self.L)
        self.cuts = [frozenset()] + [lab.rho_set for lab in ordered]
        self.schedule = strata.schedule(self.L, real=True)
        self.cases = [(i, i % len(self.cuts)) for i in range(len(self.trees))]

    def case_seed(self, r, i):
        return (str(self.seed), r, i)

    def steps(self, r):
        return [lambda i=i, j=j: self._case(r, i, j) for i, j in self.cases]

    def _case(self, r, i, j):
        rep = quotient.verify_injectivity(
            self.trees[i], self.cuts[j], n_samples=self.SAMPLES,
            seed=self.case_seed(r, i), real=True, bound=self.BOUND)
        return 1, (r, i, j, rep["samples"], rep["in_domain"],
                   rep["key_collisions_across_classes"],
                   rep["intra_class_key_splits"])

    def _samples(self, t, seed):
        # the sampling loop of quotient.verify_injectivity, replayed
        rng = random.Random("%r:quotient" % (seed,))
        samples, base_idx = [], 0
        while len(samples) < self.SAMPLES:
            base = curves.sample_curve(t, self.BOUND, (str(seed), "base", base_idx))
            base_idx += 1
            samples.extend(quotient.fiber_samples(base, rng, per_site=2,
                                                  bound=self.BOUND))
        return samples

    def check(self, records):
        errors = []
        cases = records
        failed = sum(1 for c in cases if c[5] or c[6])
        if sum(c[4] for c in cases) == 0:
            errors.append("no sample was inside a chart domain")

        types = {}
        for step in self.schedule.steps:
            types[step.label.rho_set] = step.blowup_type
        counts = {k: list(types.values()).count(k) for k in set(types.values())}
        if counts != self.SCHEDULE_TYPES:
            errors.append("schedule blowup types %r, want %r"
                          % (counts, self.SCHEDULE_TYPES))
        ran = {types[self.cuts[j]] for _, _, j, *_ in cases if j}
        if ran != set(self.SCHEDULE_TYPES):
            errors.append("cut labels run cover only the types %r" % sorted(ran))

        rng = random.Random("quotient-check:%d" % self.seed)
        multi_member = 0
        for r, i, j, n_samples, *_ in rng.sample(cases, min(self.CHECKED_CASES, len(cases))):
            t, rho = self.trees[i], self.cuts[j]
            samples = self._samples(t, self.case_seed(r, i))
            if len(samples) != n_samples:
                errors.append("case %r: replayed %d samples, report has %d"
                              % ((r, i, j), len(samples), n_samples))
            want = _tree_splits(t)
            keep = trees.real_marks(self.L)
            for c in samples:
                if _tree_splits(curves.forget(c, keep).tree) != want:
                    errors.append("case %r: forgetting the extra mark leaves "
                                  "another tree" % ((r, i, j),))
                    break
            keys = []
            for c in samples:
                try:
                    keys.append(quotient.class_key(c, rho, real=True))
                except charts.ChartDomainError:
                    keys.append(None)
            for cls in quotient.relation_closure(samples, rho, real=True):
                if len(cls) >= 2 and all(keys[k] is not None for k in cls):
                    multi_member += 1
        if multi_member == 0:
            errors.append("no checked case has an in-domain class with two "
                          "or more members")
        return failed, errors


class Enumerate:
    """Real l = 4 trees, complex l = 7 trees, the real index set at l = 6
    and its schedule.  An item is one tree or label produced.

    A round takes about 0.7 s, two thirds of it building trees, so a run
    measures about twenty rounds.  The larger sizes (real l = 5, complex
    l = 8, index set at l = 8: 17 s a round) left one round per run, and
    its time spread by 16% between runs on a shared machine.
    """

    REAL_L, COMPLEX_L, INDEX_L = 4, 7, 6
    TRACE_ROUNDS = 3

    def __init__(self, seed):
        self.seed = seed
        self.last = {}   # the outputs of the latest round, by part

    def steps(self, r):
        return [
            lambda: self._part(r, "real", trees.enumerate_trees, self.REAL_L, real=True),
            lambda: self._part(r, "complex", trees.enumerate_trees, self.COMPLEX_L),
            lambda: self._part(r, "index_set", lambda l: strata.build_a_ell_real(l)[0],
                               self.INDEX_L),
            lambda: self._part(r, "schedule", lambda l: strata.schedule(l, real=True).steps,
                               self.INDEX_L),
        ]

    def _part(self, r, part, build, *args, **kwargs):
        self.last.pop(part, None)   # free the previous round's output first
        out = self.last[part] = build(*args, **kwargs)
        return len(out), (r, part, len(out))

    def check(self, records):
        errors = []
        counts = {}
        for _, part, n in records:
            counts.setdefault(part, set()).add(n)
        if any(len(ns) != 1 for ns in counts.values()):
            errors.append("rounds differ in their counts: %r" % counts)
        real, cplx = self.last["real"], self.last["complex"]
        index_set, sched = self.last["index_set"], self.last["schedule"]
        want = oracles.stable_tree_count(self.COMPLEX_L)
        if len(cplx) != want:
            errors.append("%d complex trees at l=%d, A000311 gives %d"
                          % (len(cplx), self.COMPLEX_L, want))
        for name, ts in (("real", real), ("complex", cplx)):
            if len(set(map(trees.canonical_form, ts))) != len(ts):
                errors.append("%s canonical forms are not pairwise distinct" % name)
        l = self.INDEX_L
        if len(index_set) != 2 ** (2 * l - 1) - 2 * l - 1:
            errors.append("index set has %d labels, want %d"
                          % (len(index_set), 2 ** (2 * l - 1) - 2 * l - 1))
        if not oracles.is_linear_extension([s.label.rho_set for s in sched],
                                           trees.real_marks(l)):
            errors.append("schedule is not a linear extension of inclusion")

        # l = 3: real trees are the conjugation-invariant complex trees on
        # the six marks 1+, 1-, 2+, 2-, 3+, 3-
        names = dict(zip(trees.complex_marks(6), trees.real_marks(3)))
        invariant = set()
        for t in trees.enumerate_trees(6):
            s = _tree_splits(t, names.get)
            if s == frozenset(frozenset(frozenset(map(oracles.conjugate, side))
                                        for side in split) for split in s):
                invariant.add(s)
        real3 = [_tree_splits(t) for t in trees.enumerate_trees(3, real=True)]
        if len(set(real3)) != len(real3) or set(real3) != invariant:
            errors.append("real l=3 trees are not the %d conjugation-invariant "
                          "complex trees" % len(invariant))
        return 0, errors


class BlowupCharts:
    """`localmodels.verify_model` on the real3, complex2 and aug31 presets
    through `cli.verify_localmodels_suite`.  An item is one sampled point
    with all of its relations, transitions and cocycles."""

    SAMPLES, BOUND = 500, 20
    TRACE_ROUNDS = 2
    CHECKED_POINTS = 40  # standard-chart points per preset and checked round

    def __init__(self, seed):
        self.seed = seed
        self.presets = sorted(localmodels.PRESETS)

    def round_seed(self, r):
        return self.seed * 100_000 + r

    def steps(self, r):
        return [lambda: self._suite(r)]

    def _suite(self, r):
        rep = cli.verify_localmodels_suite(self.SAMPLES, seed=self.round_seed(r),
                                           bound=self.BOUND)
        return self.SAMPLES * len(rep["presets"]), {"r": r, "report": rep}

    def check(self, records):
        errors, failed = [], 0
        for rec in records:
            presets = rec["report"]["presets"]
            if sorted(presets) != self.presets:
                errors.append("round %d ran presets %r" % (rec["r"], sorted(presets)))
            for name, rep in presets.items():
                totals = list(rep["relations"].values()) + [
                    rep["cocycle"], rep["negative_control"], rep["blowdown_invariance"]]
                bad = sum(x["total"] - x["pass"] for x in totals)
                bad += not rep["injective_off_exceptional"]
                failed += min(self.SAMPLES, bad)
                if any(x["total"] == 0 for x in totals):
                    errors.append("round %d %s: a relation was never checked"
                                  % (rec["r"], name))
        rng = random.Random("blowup-check:%d" % self.seed)
        for r in {records[0]["r"], rng.choice(records)["r"]}:
            for name in self.presets:
                model = localmodels.PRESETS[name]
                prng = random.Random("%s:%r" % (name, self.round_seed(r)))
                chart_ids = model.charts()
                points = [localmodels.sample_point(model, chart_ids[n % len(chart_ids)],
                                                   prng, bound=self.BOUND, avoid_zero=True)
                          for n in range(self.SAMPLES)]
                standard = [p for p in points if p.chart[0] == 1]
                for p in rng.sample(standard, min(self.CHECKED_POINTS, len(standard))):
                    coords = [(z.re, z.im) for z in p.coords]
                    want = oracles.standard_blowdown(coords, p.chart[1], model.c)
                    got = [(z.re, z.im) for z in localmodels.blowdown(p)]
                    if got != want:
                        errors.append("round %d %s: blowdown of %s differs from "
                                      "the chart formula" % (r, name, p.serialize()))
        return failed, errors


WORKLOADS = {
    "reconstruct": Reconstruct,
    "quotient_real": QuotientReal,
    "enumerate": Enumerate,
    "blowup_charts": BlowupCharts,
}
