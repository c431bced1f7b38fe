"""Batch front end: enumeration, schedules, verification suites.

Subcommands produce deterministic JSON reports (schema version 1).  All
sampling is driven by per-case seeds derived from the master ``--seed``
and the case id, so the same configuration always produces the same
report up to the ``timestamp`` field.  Exit codes: 0 on success, 1 on a
verification failure, 2 on usage errors (including guardrail breaches).
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import charts, curves, localmodels, quotient, strata, trees
from .exactfield import (
    PP_INF,
    ProjPoint,
    UnstableConfiguration,
    IndeterminateProduct,
    _point,
    cross_ratio,
    finite_point,
    randbelow,
)

MAX_L_ENUM = 10       # tree/stratum enumeration guardrail (complex)
MAX_L_ENUM_REAL = 6   # ... and with conjugate mark pairs
MAX_L_VERIFY = 6      # sampling-based verification guardrail
MAX_TREES = 50_000    # projected trees `trees` may build


class UsageError(Exception):
    pass


def _check_l(l: int, real: bool, verify: bool, override: Optional[int]) -> None:
    cap = MAX_L_VERIFY if verify else (MAX_L_ENUM_REAL if real else MAX_L_ENUM)
    if override is not None:
        cap = override
    if l > cap:
        raise UsageError(
            "l=%d exceeds the guardrail %d (use --max-l-override)" % (l, cap)
        )
    if l < 2 if real else l < 3:
        raise UsageError("l too small for this command")


def _write_report(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# enumeration commands
# ---------------------------------------------------------------------------


def cmd_trees(cfg) -> dict:
    if cfg.max_l_override is None:
        count = trees.real_tree_count if cfg.real else trees.stable_tree_count
        projected = count(cfg.l)
        if projected > MAX_TREES:
            raise UsageError(
                "l=%d would build %d trees, over the guardrail %d "
                "(use --max-l-override)" % (cfg.l, projected, MAX_TREES)
            )
    ts = trees.enumerate_trees(cfg.l, real=cfg.real)
    by_edges: Dict[int, int] = {}
    for t in ts:
        by_edges[len(t.edges)] = by_edges.get(len(t.edges), 0) + 1
    return {
        "l": cfg.l,
        "real": cfg.real,
        "count": len(ts),
        "by_edge_count": {str(k): by_edges[k] for k in sorted(by_edges)},
        "ok": True,
    }


def cmd_strata(cfg) -> dict:
    if cfg.real:
        labels, ordered = strata.build_a_ell_real(cfg.l)
        kinds = strata.kind_counts(ordered)
        return {
            "l": cfg.l,
            "real": True,
            "count": len(labels),
            "scheduled": len(ordered),
            "kind_counts": kinds,
            "distinct_divisors": strata.distinct_divisor_count(kinds),
            "formula": 2 ** (2 * cfg.l - 1) - 2 * cfg.l - 1,
            "ok": len(labels) == 2 ** (2 * cfg.l - 1) - 2 * cfg.l - 1,
        }
    labels = strata.build_a_ell(cfg.l)
    return {
        "l": cfg.l,
        "real": False,
        "count": len(labels),
        "formula": 2 ** (cfg.l - 1) - cfg.l - 1,
        "ok": len(labels) == 2 ** (cfg.l - 1) - cfg.l - 1,
    }


def cmd_schedule(cfg) -> dict:
    sched = strata.schedule(cfg.l, real=cfg.real)
    rep = sched.to_json()
    rep["ok"] = True
    return rep


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _rand_pp(rng: random.Random, bound: int) -> ProjPoint:
    """Infinity with probability 1/20, else (p/d) + (q/e)i for integers
    drawn in [-bound, bound] and [1, bound]."""
    if rng.random() < Fraction(1, 20):
        return PP_INF
    width = 2 * bound + 1
    p, d = randbelow(rng, width) - bound, randbelow(rng, bound) + 1
    q, e = randbelow(rng, width) - bound, randbelow(rng, bound) + 1
    return finite_point(p * e, q * d, d * e)


def verify_cr_suite(samples: int = 1000, seed: int = 0, bound: int = 50) -> dict:
    """Exact symmetry and cocycle relations of the cross ratio on random
    Gaussian-rational quintuples.  Raises UsageError for samples < 1,
    where no relation would be checked."""
    if samples < 1:
        raise UsageError("need samples >= 1, got %r" % (samples,))
    rng = random.Random("cr:%r" % (seed,))
    checked = failed = 0
    fail_cases: List[str] = []
    done = 0
    while done < samples:
        pts = [_rand_pp(rng, bound) for _ in range(5)]
        if len(set(pts)) < 5:
            continue
        done += 1
        zi, zj, zk, zm, zn = pts
        try:
            cr = cross_ratio(zi, zj, zk, zm)
            neg = cr.one_minus().inv().one_minus()  # -x/(1-x), exact at 0, 1 and inf
            rel = [
                cross_ratio(zk, zm, zi, zj) == cr,
                cross_ratio(zj, zi, zk, zm) == cr.inv(),
                cross_ratio(zi, zj, zm, zk) == cr.inv(),
                cross_ratio(zm, zj, zk, zi) == cr.one_minus(),
                cross_ratio(zi, zk, zj, zm) == cr.one_minus(),
                cross_ratio(zk, zj, zi, zm) == neg,
                cross_ratio(zi, zm, zk, zj) == neg,
            ]
            try:
                lhs = cross_ratio(zi, zj, zk, zn)
                rhs = cross_ratio(zi, zj, zk, zm).mul(cross_ratio(zi, zj, zm, zn))
                rel.append(lhs == rhs)
            except IndeterminateProduct:
                pass  # 0*inf products are outside the relation's domain
        except UnstableConfiguration:
            continue
        checked += len(rel)
        bad = len(rel) - sum(rel)
        failed += bad
        if bad and len(fail_cases) < 10:
            fail_cases.append(",".join(p.serialize() for p in pts))
    return {
        "samples": done,
        "relations_checked": checked,
        "relations_failed": failed,
        "failures": fail_cases,
        "ok": failed == 0,
    }


def verify_basis_suite(l: int, samples: int = 200, seed: int = 0,
                       bound: int = 40, real: bool = False) -> dict:
    """Per-tree comparison of the reconstruction recursion against the
    direct cross ratio, for every 4-subset of marks.

    Both sides are compared as point keys.  Every tree of the suite has
    the same mark bits, so each 4-subset's bit positions and table mask
    are resolved once per suite.  Per tree, one curves.quad_plan of the
    4-subsets and the basis quadruples reads the values of those that an
    edge splits 2|2; per curve, curves.quad_keys computes the others.
    That gives the basis values that the table is built from and the
    direct {mask: key} dict (_direct_keys).  Each curve's direct dict is
    compared with the table's own in one comparison; only when they
    differ is value_key(q) walked in quadruple order, which counts the
    mismatches and raises ChartDomainError for a value the table leaves
    undetermined.  A case with mismatches also gives its index, "case",
    and the "seed" of its first mismatching sample, which
    curves.sample_curve(t, bound, seed) replays.  Raises UsageError for
    samples < 1 or marks with no 4-subset, where no value would be
    compared.
    """
    if samples < 1:
        raise UsageError("need samples >= 1, got %r" % (samples,))
    marks = trees.sort_marks(trees.real_marks(l) if real else trees.complex_marks(l))
    if len(marks) < 4:
        raise UsageError("need 4 or more marks to compare a cross ratio, got %d"
                         % (len(marks),))
    ts = trees.enumerate_trees(l, real=real)
    bits = trees._mark_bits(frozenset(marks))  # the mark_bits() of every tree in ts
    quads = list(itertools.combinations(marks, 4))
    masks = [bits[i] | bits[j] | bits[k] | bits[m] for i, j, k, m in quads]
    positions = curves.quad_positions(bits, quads)
    n = len(quads)

    def case(idx, t):
        basis = charts.gamma_basis(t)
        basis_quads = basis.all_quadruples
        plan = curves.quad_plan(t, positions + curves.quad_positions(bits, basis_quads))
        mismatches = 0
        first = None
        for s in range(samples):
            case_seed = (str(seed), "basis", idx, s)
            keys = curves.quad_keys(plan, curves.sample_curve(t, bound, case_seed).points)
            vals = {q: _point(k) for q, k in zip(basis_quads, keys[n:])}
            table = charts.ReconstructionTable(t, values=vals, basis=basis)
            direct = _direct_keys(masks, keys)
            if direct == table.table:
                continue
            value_key = table.value_key
            bad = 0
            for q, mask in zip(quads, masks):
                if value_key(q) != direct[mask]:
                    bad += 1
            if bad and first is None:
                first = list(case_seed)
            mismatches += bad
        entry = {
            "tree": trees.canonical_form(t),
            "basis_size": len(basis_quads),
            "samples": samples,
            "mismatches": mismatches,
        }
        if mismatches:
            entry.update(case=idx, seed=first)
        return entry

    cases = [case(idx, t) for idx, t in enumerate(ts)]
    total = sum(c["mismatches"] for c in cases)
    return {
        "l": l,
        "real": real,
        "trees": len(ts),
        "quadruples_per_curve": len(quads),
        "mismatches": total,
        "cases": cases,
        "ok": total == 0,
    }


def _direct_keys(masks, keys) -> Dict:
    """The direct {mask: key} of a curve: the table mask of each 4-subset
    with its key among the quad_keys of the suite's plan."""
    return dict(zip(masks, keys))


def verify_quotient_suite(l: int, real: bool = False, samples: int = 60,
                          seed: int = 0, bound: int = 40) -> dict:
    """Injectivity of chart class keys on relation-closure classes, for
    every dual tree and every cut label (including the empty one).  A
    failing case also gives its index, "case", and its "seed", with which
    quotient.verify_injectivity replays it."""
    ts = trees.enumerate_trees(l, real=real)
    if real:
        _, ordered = strata.build_a_ell_real(l)
    else:
        ordered = strata.build_a_ell(l)
    rho_stars = [frozenset()] + [lab.rho_set for lab in ordered]

    reports = [
        quotient.verify_injectivity(
            t, rho_star, n_samples=samples, seed=(str(seed), idx),
            real=real, bound=bound,
        )
        for idx, (t, rho_star) in enumerate(itertools.product(ts, rho_stars))
    ]
    cases = [{k: r[k] for k in ("tree", "rho_star", "samples", "in_domain",
                                "classes", "classes_out_of_domain",
                                "key_collisions_across_classes",
                                "intra_class_key_splits")} for r in reports]
    for idx, r in enumerate(cases):
        if r["key_collisions_across_classes"] or r["intra_class_key_splits"] or not r["in_domain"]:
            r.update(case=idx, seed=[str(seed), idx])
    collisions = sum(r["key_collisions_across_classes"] for r in cases)
    splits = sum(r["intra_class_key_splits"] for r in cases)
    return {
        "l": l,
        "real": real,
        "trees": len(ts),
        "cut_labels": len(rho_stars),
        "samples_per_case": samples,
        "key_collisions_across_classes": collisions,
        "intra_class_key_splits": splits,
        "cases": cases,
        "ok": (collisions == 0 and splits == 0
               and all(r["in_domain"] > 0 for r in cases)),
    }


def verify_localmodels_suite(samples: int = 500, seed: int = 0,
                             bound: int = 20) -> dict:
    reports = [
        localmodels.verify_model(preset, n_samples=samples, seed=seed, bound=bound)
        for preset in sorted(localmodels.PRESETS)
    ]
    return {
        "presets": {r["preset"]: r for r in reports},
        "ok": all(r["ok"] for r in reports),
    }


def cmd_all(cfg) -> dict:
    parts = {
        "cr": verify_cr_suite(1000, cfg.seed),
        "basis": verify_basis_suite(5, 50, cfg.seed),
        "quotient": verify_quotient_suite(4, False, 60, cfg.seed),
        "quotient_real": verify_quotient_suite(2, True, 60, cfg.seed),
        "localmodels": verify_localmodels_suite(500, cfg.seed),
    }
    return {"suites": parts, "ok": all(p["ok"] for p in parts.values())}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "trees": cmd_trees,
    "strata": cmd_strata,
    "schedule": cmd_schedule,
    "verify-cr": lambda cfg: verify_cr_suite(cfg.samples, cfg.seed, cfg.bound),
    "verify-basis": lambda cfg: verify_basis_suite(
        cfg.l, cfg.samples, cfg.seed, cfg.bound, cfg.real),
    "verify-quotient": lambda cfg: verify_quotient_suite(
        cfg.l, cfg.real, cfg.samples, cfg.seed, cfg.bound),
    "verify-localmodels": lambda cfg: verify_localmodels_suite(cfg.samples, cfg.seed, cfg.bound),
    "all": cmd_all,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dm-lab",
        description="Exact verification suites for blowdown decompositions "
        "of moduli of rational marked curves.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, l_default=None, samples_default=200):
        if l_default is not None:
            p.add_argument("--l", type=int, default=l_default)
            p.add_argument("--real", action="store_true")
            p.add_argument("--max-l-override", type=int, default=None)
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--bound", type=int, default=40)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)

    for name in ("trees", "strata", "schedule"):
        p = sub.add_parser(name)
        p.add_argument("--l", type=int, required=True)
        p.add_argument("--real", action="store_true")
        p.add_argument("--max-l-override", type=int, default=None)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify-cr")
    common(p, samples_default=1000)

    p = sub.add_parser("verify-basis")
    common(p, l_default=5)

    p = sub.add_parser("verify-quotient")
    common(p, l_default=4, samples_default=60)

    p = sub.add_parser("verify-localmodels")
    common(p, samples_default=500)
    p.set_defaults(bound=20)

    p = sub.add_parser("all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    return ap


def run(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    try:
        cfg = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        # no sample, or too small a bound to place distinct points, would
        # make a vacuous pass or a traceback
        if getattr(cfg, "samples", 1) < 1:
            raise UsageError("--samples must be at least 1")
        if getattr(cfg, "bound", 2) < 2:
            raise UsageError("--bound must be at least 2")
        if hasattr(cfg, "l"):
            _check_l(cfg.l, cfg.real, verify=cfg.command.startswith("verify-"),
                     override=cfg.max_l_override)
        report = COMMANDS[cfg.command](cfg)
    except UsageError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return 2
    report.update(v=1, command=cfg.command,
                  timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat())
    try:
        _write_report(report, cfg.out)
    except OSError as e:
        sys.stderr.write("error: cannot write report: %s\n" % (e,))
        return 2
    return 0 if report.get("ok", True) else 1


def main() -> None:  # console-script entry
    sys.exit(run())


if __name__ == "__main__":
    main()
