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
    GaussRat,
    ProjPoint,
    UnstableConfiguration,
    IndeterminateProduct,
    cross_ratio,
)

MAX_L_ENUM = 10       # tree/stratum enumeration guardrail (complex)
MAX_L_ENUM_REAL = 6   # ... and with conjugate mark pairs
MAX_L_VERIFY = 6      # sampling-based verification guardrail


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


def _stamp(report: dict, command: str, cfg: argparse.Namespace) -> dict:
    report.update(
        {
            "v": 1,
            "command": command,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
    )
    return report


# ---------------------------------------------------------------------------
# enumeration commands
# ---------------------------------------------------------------------------


def cmd_trees(cfg) -> dict:
    _check_l(cfg.l, cfg.real, verify=False, override=cfg.max_l_override)
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
    _check_l(cfg.l, cfg.real, verify=False, override=cfg.max_l_override)
    if cfg.real:
        labels, ordered = strata.build_a_ell_real(cfg.l)
        kinds = strata.real_kind_counts(cfg.l)
        return {
            "l": cfg.l,
            "real": True,
            "count": len(labels),
            "scheduled": len(ordered),
            "kind_counts": kinds,
            "distinct_divisors": strata.distinct_real_divisors(cfg.l),
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
    _check_l(cfg.l, cfg.real, verify=False, override=cfg.max_l_override)
    sched = strata.schedule(cfg.l, real=cfg.real)
    rep = sched.to_json()
    rep["ok"] = True
    return rep


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _rand_pp(rng: random.Random, bound: int) -> ProjPoint:
    if rng.random() < Fraction(1, 20):
        return ProjPoint(GaussRat(1), GaussRat(0))
    def frac():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return ProjPoint(GaussRat(frac(), frac()))


def _neg_over_one_minus(x: ProjPoint) -> ProjPoint:
    # [a:b] -> -x/(1-x) = [-a : b-a]
    return ProjPoint(-x.a, x.b - x.a)


def verify_cr_suite(samples: int = 1000, seed: int = 0, bound: int = 50) -> dict:
    """Exact symmetry and cocycle relations of the cross ratio on random
    Gaussian-rational quintuples."""
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
            rel = [
                cross_ratio(zk, zm, zi, zj) == cr,
                cross_ratio(zj, zi, zk, zm) == cr.inv(),
                cross_ratio(zi, zj, zm, zk) == cr.inv(),
                cross_ratio(zm, zj, zk, zi) == cr.one_minus(),
                cross_ratio(zi, zk, zj, zm) == cr.one_minus(),
                cross_ratio(zk, zj, zi, zm) == _neg_over_one_minus(cr),
                cross_ratio(zi, zm, zk, zj) == _neg_over_one_minus(cr),
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
    direct cross ratio, for every 4-subset of marks."""
    ts = trees.enumerate_trees(l, real=real)
    marks = trees.sort_marks(trees.real_marks(l) if real else trees.complex_marks(l))
    quads = list(itertools.combinations(marks, 4))

    def case(idx, t):
        basis = charts.gamma_basis(t)
        mismatches = 0
        for s in range(samples):
            c = curves.sample_curve(t, bound, (str(seed), "basis", idx, s))
            vals = charts.basis_values(c, basis)
            table = charts.ReconstructionTable(t, values=vals, basis=basis)
            for q in quads:
                if table.value(q) != curves.cross_ratio_q(c, q):
                    mismatches += 1
        return {
            "tree": trees.canonical_form(t),
            "basis_size": len(basis.quadruples),
            "samples": samples,
            "mismatches": mismatches,
        }

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


def verify_quotient_suite(l: int, real: bool = False, samples: int = 60,
                          seed: int = 0, bound: int = 40) -> dict:
    """Injectivity of chart class keys on relation-closure classes, for
    every dual tree and every cut label (including the empty one)."""
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
    collisions = sum(r["key_collisions_across_classes"] for r in reports)
    splits = sum(r["intra_class_key_splits"] for r in reports)
    return {
        "l": l,
        "real": real,
        "trees": len(ts),
        "cut_labels": len(rho_stars),
        "samples_per_case": samples,
        "key_collisions_across_classes": collisions,
        "intra_class_key_splits": splits,
        "cases": [
            {k: r[k] for k in ("tree", "rho_star", "samples", "in_domain",
                               "classes", "classes_out_of_domain",
                               "key_collisions_across_classes",
                               "intra_class_key_splits")}
            for r in reports
        ],
        "ok": (collisions == 0 and splits == 0
               and all(r["in_domain"] > 0 for r in reports)),
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


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


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
        if cfg.command == "trees":
            report = cmd_trees(cfg)
        elif cfg.command == "strata":
            report = cmd_strata(cfg)
        elif cfg.command == "schedule":
            report = cmd_schedule(cfg)
        elif cfg.command == "verify-cr":
            report = verify_cr_suite(cfg.samples, cfg.seed, cfg.bound)
        elif cfg.command == "verify-basis":
            _check_l(cfg.l, cfg.real, verify=True, override=cfg.max_l_override)
            report = verify_basis_suite(
                cfg.l, cfg.samples, cfg.seed, cfg.bound, cfg.real
            )
        elif cfg.command == "verify-quotient":
            _check_l(cfg.l, cfg.real, verify=True, override=cfg.max_l_override)
            report = verify_quotient_suite(
                cfg.l, cfg.real, cfg.samples, cfg.seed, cfg.bound
            )
        elif cfg.command == "verify-localmodels":
            report = verify_localmodels_suite(cfg.samples, cfg.seed, cfg.bound)
        elif cfg.command == "all":
            parts = {
                "cr": verify_cr_suite(1000, cfg.seed),
                "basis": verify_basis_suite(5, 50, cfg.seed),
                "quotient": verify_quotient_suite(4, False, 60, cfg.seed),
                "quotient_real": verify_quotient_suite(2, True, 60, cfg.seed),
                "localmodels": verify_localmodels_suite(500, cfg.seed),
            }
            report = {"suites": parts, "ok": all(p["ok"] for p in parts.values())}
        else:  # pragma: no cover
            raise UsageError("unknown command %r" % (cfg.command,))
    except UsageError as e:
        sys.stderr.write("error: %s\n" % (e,))
        return 2
    _stamp(report, cfg.command, cfg)
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
