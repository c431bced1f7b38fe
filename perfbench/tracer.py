"""Spans around calls into the layers of `artifact`, recorded from outside.

`Tracer.install()` replaces every target below by a timing wrapper: a
module-level function in each `artifact` module namespace that holds it
(so `from .trees import split_marks` in another module is covered too),
a method on its class.  `uninstall()` puts the originals back.  The
program's files are not changed.

Each wrapper call is one span with a name, start, end and the span that
was open when it started.  Self time is the span's duration minus the
durations of its child spans.  Counts and times are aggregated per name
as the spans close; the first `max_spans` spans are also kept in memory
and written out by `dump()`.
"""

import importlib
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "artifact"

_FUNCTIONS = {
    "exactfield": ["cross_ratio"],
    "trees": ["enumerate_trees", "direction", "path_vertices", "split_marks",
              "subtree_split", "canonical_vertex_order", "canonical_form"],
    "strata": ["stratum_edge", "classify_real", "build_a_ell_real", "schedule"],
    "curves": ["sample_curve", "cross_ratio_q", "forget", "moduli_key",
               "in_divisor", "in_D_tilde"],
    "charts": ["gamma_basis", "basis_values", "extended_basis", "a_gamma",
               "v_gamma"],
    "quotient": ["verify_injectivity", "fiber_samples", "relation_closure",
                 "class_key", "base_of"],
    "localmodels": ["verify_model", "transition", "cocycle_check", "blowdown",
                    "lemma_hypothesis_check"],
}

#: span name -> [(module, class or None, attribute)]
TARGETS = {
    "%s.%s" % (mod, fn): [(mod, None, fn)]
    for mod, fns in _FUNCTIONS.items() for fn in fns
}
TARGETS.update({
    # the orchestration of the dm-lab suites the workloads call
    "cli.suite": [("cli", None, "verify_basis_suite"),
                  ("cli", None, "verify_localmodels_suite")],
    "exactfield.ProjPoint": [("exactfield", "ProjPoint", "__init__")],
    "exactfield.ProjPoint.mul": [("exactfield", "ProjPoint", "mul")],
    "exactfield.GaussRat.arith": [
        ("exactfield", "GaussRat", op)
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__")],
    "trees.MarkedTree.has_edge": [("trees", "MarkedTree", "has_edge")],
    "curves.StableCurve.validate": [("curves", "StableCurve", "validate")],
    "charts.ReconstructionTable": [("charts", "ReconstructionTable", "__init__")],
    "charts.ReconstructionTable.value": [("charts", "ReconstructionTable", "value")],
})

#: span names that wrap a benchmark round rather than a program function
ROUND = "bench.round"


def original_functions(name):
    """The distinct function objects a span name stands for."""
    out = []
    for mod, cls, attr in TARGETS[name]:
        m = importlib.import_module("%s.%s" % (PACKAGE, mod))
        fn = getattr(m, attr) if cls is None else getattr(m, cls).__dict__[attr]
        if fn not in out:
            out.append(fn)
    return out


class Tracer:
    def __init__(self, max_spans=200_000):
        self.names = list(TARGETS) + [ROUND]
        self._nid = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.errors = Counter()          # (span name, exception class) -> count
        self.max_spans = max_spans
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [[0.0, -1]]        # open spans: [child seconds, span id]
        self._restore = []
        self.origin = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, places in TARGETS.items():
            nid = self._nid[name]
            for mod, cls, attr in places:
                owner = importlib.import_module("%s.%s" % (PACKAGE, mod))
                if cls is not None:
                    klass = getattr(owner, cls)
                    fn = klass.__dict__[attr]
                    setattr(klass, attr, self._wrap(nid, fn))
                    self._restore.append((klass, attr, fn))
                    continue
                fn = getattr(owner, attr)
                wrapped = self._wrap(nid, fn)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
                            self._restore.append((m, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def round(self, fn, *args):
        """Call fn(*args) inside one root span."""
        return self._wrap(self._nid[ROUND], fn)(*args)

    # -- recording ----------------------------------------------------------

    def _wrap(self, nid, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, errors = self.calls, self.self_s, self.errors
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        cap = self.max_spans
        span_name = self.names[nid]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(names)
            kept = sid < cap
            if kept:
                names.append(nid)
                parents.append(parent[1])
                starts.append(0.0)
                ends.append(0.0)
            frame = [0.0, sid if kept else -1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                errors[(span_name, type(e).__name__)] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                parent[0] += dt
                calls[nid] += 1
                self_s[nid] += dt - frame[0]
                if kept:
                    starts[sid] = t0
                    ends[sid] = t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------------

    def stats(self):
        """{span name: (calls, self seconds)} for the program's targets."""
        return {n: (self.calls[i], self.self_s[i])
                for i, n in enumerate(self.names) if n != ROUND}

    def dump(self, path, extra=None):
        kept = len(self._span_name)
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [[self._span_name[i], self._span_parent[i],
                       self._span_start[i] - self.origin,
                       self._span_end[i] - self.origin] for i in range(kept)],
            "spans_not_kept": sum(self.calls) - kept,
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "errors": {"%s:%s" % k: v for k, v in sorted(self.errors.items())},
        }
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f)
