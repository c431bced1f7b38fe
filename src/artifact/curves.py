"""Exact stable nodal marked curves.

A curve is a tree of projective lines: each vertex of the dual graph
carries coordinates for its marks and for the node of every incident
edge.  A node is stored twice, once on each of the two components it
joins; no global coordinate exists on a nodal curve.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

from .exactfield import (GaussRat, ProjPoint, cross_ratio)
from .strata import classify_real, is_admissible, stratum_edge
from .trees import (MarkedTree, RealMarkedTree, bar_mark,
                    canonical_vertex_order, direction, mark_key, real_marks,
                    sort_marks, _phi_from_structure)


class CurveError(Exception):
    pass


Slot = Tuple  # ("m", mark) or ("e", (u, v)) with u < v


def _edge_slot(e) -> Slot:
    return ("e", tuple(sorted(e)))


class StableCurve:
    """tree + per-vertex dict {slot -> ProjPoint}."""

    def __init__(self, tree: MarkedTree, coords: Dict[int, Dict[Slot, ProjPoint]]):
        self.tree = tree
        self.coords = {v: dict(sl) for v, sl in coords.items()}

    @property
    def is_real(self) -> bool:
        return self.tree.is_real

    def expected_slots(self, v: int) -> List[Slot]:
        t = self.tree
        slots = [("m", m) for m in t.mu_inv(v)]
        slots += [_edge_slot((v, w)) for w in t.adjacency()[v]]
        return slots

    def validate(self) -> List[str]:
        bad = list(self.tree.validate())
        t = self.tree
        if set(self.coords.keys()) != set(range(t.vertex_count)):
            bad.append("coords must cover every vertex")
            return bad
        for v in range(t.vertex_count):
            want = set(self.expected_slots(v))
            have = set(self.coords[v].keys())
            if want != have:
                bad.append("vertex %d: slots %r != expected %r" % (v, have, want))
                continue
            vals = list(self.coords[v].values())
            if len(set(vals)) != len(vals):
                bad.append("vertex %d: special points not pairwise distinct" % v)
            if len(vals) < 3:
                bad.append("vertex %d: fewer than 3 special points" % v)
        if not bad and self.is_real:
            bad.extend(self._validate_real())
        return bad

    def _validate_real(self) -> List[str]:
        bad = []
        t = self.tree
        phi = t.phi
        for v in range(t.vertex_count):
            for slot, val in self.coords[v].items():
                pv, pslot = _partner(t, v, slot)
                if self.coords[pv][pslot] != val.conj():
                    bad.append("conjugation symmetry fails at vertex %d slot %r" % (v, slot))
        return bad

    def to_json(self) -> dict:
        d = self.tree.to_json()
        coords = {}
        for v in range(self.tree.vertex_count):
            cv = {}
            for slot, val in self.coords[v].items():
                if slot[0] == "m":
                    key = "mark:%s" % (slot[1],)
                else:
                    key = "edge:%d-%d" % slot[1]
                cv[key] = val.serialize()
            coords[str(v)] = cv
        d["coords"] = coords
        return d

    def __repr__(self):
        return "StableCurve(%s)" % (json.dumps(self.to_json(), sort_keys=True),)


def _partner(t: MarkedTree, v: int, slot: Slot) -> Tuple[int, Slot]:
    """Conjugate slot under the real structure."""
    phi = t.phi
    if slot[0] == "m":
        return t.mu[bar_mark(slot[1])], ("m", bar_mark(slot[1]))
    u, w = slot[1]
    return phi[v], _edge_slot((phi[u], phi[w]))


def curve_from_json(d: dict) -> StableCurve:
    from .trees import tree_from_json

    t = tree_from_json(d)
    coords: Dict[int, Dict[Slot, ProjPoint]] = {}
    for vs, cv in d["coords"].items():
        v = int(vs)
        coords[v] = {}
        for key, lit in cv.items():
            kind, rest = key.split(":", 1)
            if kind == "mark":
                slot = ("m", rest if t.is_real else int(rest))
            else:
                a, b = rest.split("-")
                slot = ("e", (int(a), int(b)))
            coords[v][slot] = ProjPoint.parse(lit)
    return StableCurve(t, coords)


# ---------------------------------------------------------------------------
# forgetful map with stabilization

def forget(c: StableCurve, keep) -> StableCurve:
    keep = set(keep)
    t = c.tree
    all_marks = set(t.mu.keys())
    if not keep <= all_marks:
        raise CurveError("keep contains unknown marks")
    if c.is_real:
        if {bar_mark(m) for m in keep} != keep:
            raise CurveError("real keep set must be conjugation-closed")
        if len(keep) < 4:
            raise CurveError("keep too small: need at least 2 conjugate pairs")
    elif len(keep) < 3:
        raise CurveError("keep too small: need at least 3 marks")

    # mutable working copy over the original vertex ids
    verts = set(range(t.vertex_count))
    edges = {tuple(sorted(e)) for e in t.edges}
    mu = {m: v for m, v in t.mu.items() if m in keep}
    coords = {
        v: {s: p for s, p in c.coords[v].items() if s[0] == "e" or s[1] in keep}
        for v in verts
    }

    def neighbors(v):
        return [e for e in edges if v in e]

    changed = True
    while changed:
        changed = False
        for v in sorted(verts):
            inc = neighbors(v)
            marks_here = [m for m, u in mu.items() if u == v]
            nspecial = len(inc) + len(marks_here)
            if nspecial >= 3 or (len(inc) == 0 and len(verts) == 1):
                continue
            changed = True
            if len(inc) == 2:
                (e1, e2) = sorted(inc)
                a = e1[0] if e1[1] == v else e1[1]
                b = e2[0] if e2[1] == v else e2[1]
                edges -= {e1, e2}
                newe = tuple(sorted((a, b)))
                edges.add(newe)
                coords[a][_edge_slot(newe)] = coords[a].pop(_edge_slot(e1))
                coords[b][_edge_slot(newe)] = coords[b].pop(_edge_slot(e2))
            elif len(inc) == 1:
                (e,) = inc
                a = e[0] if e[1] == v else e[1]
                edges.discard(e)
                node = coords[a].pop(_edge_slot(e))
                if marks_here:
                    # the remaining mark lands at the node position
                    m = marks_here[0]
                    mu[m] = a
                    coords[a][("m", m)] = node
            else:
                raise CurveError("keep too small for stability")
            verts.discard(v)
            coords.pop(v, None)
            break

    newid = {v: i for i, v in enumerate(sorted(verts))}
    new_edges = [tuple(sorted((newid[a], newid[b]))) for a, b in edges]
    new_mu = {m: newid[v] for m, v in mu.items()}
    new_coords: Dict[int, Dict[Slot, ProjPoint]] = {}
    for v in verts:
        cv = {}
        for slot, val in coords[v].items():
            if slot[0] == "e":
                a, b = slot[1]
                cv[_edge_slot((newid[a], newid[b]))] = val
            else:
                cv[slot] = val
        new_coords[newid[v]] = cv
    if c.is_real:
        phi = _phi_from_structure(len(verts), new_edges, new_mu)
        nt = RealMarkedTree(len(verts), new_edges, new_mu, phi)
    else:
        nt = MarkedTree(len(verts), new_edges, new_mu)
    out = StableCurve(nt, new_coords)
    bad = out.validate()
    if bad:
        raise CurveError("stabilization produced an invalid curve: %r" % (bad,))
    return out


# ---------------------------------------------------------------------------
# cross ratios on nodal curves

def cross_ratio_q(c: StableCurve, q) -> ProjPoint:
    """CR_q via projection to a component seeing >= 3 distinct directions.

    Agrees with the cross ratio of the 4-marked stabilization; exactly two
    coincident projections resolve by the degenerate 2|2 value table.
    """
    q = tuple(q)
    if len(set(q)) != 4:
        raise CurveError("cross ratio needs 4 distinct marks")
    t = c.tree
    for m in q:
        if m not in t.mu:
            raise CurveError("mark %r not on the curve" % (m,))
    for v in range(t.vertex_count):
        dirs = [direction(t, v, m) for m in q]
        if len(set(dirs)) >= 3:
            proj = []
            for d in dirs:
                if d[0] == "m":
                    proj.append(c.coords[v][("m", d[1])])
                else:
                    proj.append(c.coords[v][_edge_slot(d[1])])
            return cross_ratio(*proj)
    raise CurveError("no component separates three of the marks")  # unreachable


# ---------------------------------------------------------------------------
# divisor membership

def in_divisor(c: StableCurve, rho) -> bool:
    """True iff some node splits the marks exactly as rho | complement."""
    return stratum_edge(c.tree, rho) is not None


def in_D_tilde(c: StableCurve, rho, bullet: str) -> bool:
    """Membership in the pushed-forward boundary pieces over a real label.

    The curve carries the conjugate pairs of [ (l+1)^pm ]; rho is a label
    over [l^pm].  bullet is one of "+", "0", "-", "'", '"'.
    """
    if not c.is_real:
        raise CurveError("D-tilde membership is for real curves")
    l1 = c.tree.l
    l = l1 - 1
    lp, lm = "%d+" % l1, "%d-" % l1
    rho = frozenset(rho)
    if bullet == "'":
        return in_divisor(c, rho | {lp}) or in_divisor(c, rho | {lp, lm})
    if bullet == '"':
        return in_divisor(c, rho) or in_divisor(c, rho | {lm})
    universe = frozenset(real_marks(l))
    if is_admissible(rho, l, real=True):
        kind = classify_real(rho, l)
    elif len(rho) == 2 * l - 1 and rho < universe:
        kind = "i"  # rho = [l^pm] - {i}
    else:
        raise CurveError("label %r has no bullet table" % (sort_marks(rho),))
    if kind in ("E", "D1"):
        table = {"+": [rho | {lp}], "0": [rho], "-": [rho | {lm}]}
    elif kind == "H":
        table = {"+": [rho | {lp, lm}], "0": [rho], "-": [rho]}
    elif kind in ("D2", "D3"):
        table = {"+": [rho | {lp, lm}], "0": [rho | {lm}], "-": [rho | {lm}]}
    elif kind == "i":
        table = {"+": [], "0": [rho | {lm}], "-": [rho | {lm}]}
    else:
        raise CurveError("label %r is not classified" % (sort_marks(rho),))
    if bullet not in table:
        raise CurveError("unknown bullet %r" % (bullet,))
    return any(in_divisor(c, s) for s in table[bullet])


# ---------------------------------------------------------------------------
# sampling

def _rand_fraction(rng: random.Random, bound: int):
    from fractions import Fraction

    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_gauss(rng: random.Random, bound: int, real_only=False) -> GaussRat:
    re = _rand_fraction(rng, bound)
    im = 0 if real_only else _rand_fraction(rng, bound)
    return GaussRat(re, im)


def _rand_point(rng: random.Random, bound: int, real_only=False) -> ProjPoint:
    # infinity shows up with small probability so charts get exercised there
    if rng.randrange(12) == 0:
        return ProjPoint(GaussRat(1), GaussRat(0))
    return ProjPoint(_rand_gauss(rng, bound, real_only))


def sample_curve(t: MarkedTree, bound: int, seed) -> StableCurve:
    """Deterministic random curve with the given dual graph.

    Coordinate magnitudes are bounded by `bound`; real trees receive
    conjugation-symmetric coordinates by construction.
    """
    if bound < 2:
        raise CurveError("bound too small")
    rng = random.Random(repr(seed))
    for _attempt in range(200):
        coords: Dict[int, Dict[Slot, ProjPoint]] = {v: {} for v in range(t.vertex_count)}
        ok = True
        for v in range(t.vertex_count):
            slots = [("m", m) for m in t.mu_inv(v)]
            slots += [_edge_slot((v, w)) for w in t.adjacency()[v]]
            for slot in slots:
                if slot in coords[v]:
                    continue
                if t.is_real:
                    pv, pslot = _partner(t, v, slot)
                    if (pv, pslot) == (v, slot):
                        val = _rand_point(rng, bound, real_only=True)
                    else:
                        val = _rand_point(rng, bound)
                        coords[pv][pslot] = val.conj()
                else:
                    val = _rand_point(rng, bound)
                coords[v][slot] = val
        for v in range(t.vertex_count):
            vals = list(coords[v].values())
            if len(set(vals)) != len(vals):
                ok = False
                break
        if ok:
            c = StableCurve(t, coords)
            bad = c.validate()
            if bad:
                raise CurveError("sampled invalid curve: %r" % (bad,))
            return c
    raise CurveError("bound too small to fit distinct special points")


def conjugate_curve(c: StableCurve) -> StableCurve:
    """The anti-holomorphic involution: conjugate coordinates, swap i+ / i-."""
    t = c.tree
    if not all(isinstance(m, str) for m in t.mu):
        raise CurveError("conjugation needs conjugate-pair marks")
    new_mu = {m: t.mu[bar_mark(m)] for m in t.mu}
    if t.is_real:
        nt = RealMarkedTree(t.vertex_count, t.edges, new_mu, t.phi)
    else:
        nt = MarkedTree(t.vertex_count, t.edges, new_mu)
    coords: Dict[int, Dict[Slot, ProjPoint]] = {}
    for v in range(t.vertex_count):
        # marks of the new curve at v are bar of the old ones at v
        cv = {}
        for m, u in new_mu.items():
            if u == v:
                cv[("m", m)] = c.coords[v][("m", bar_mark(m))].conj()
        for slot, val in c.coords[v].items():
            if slot[0] == "e":
                cv[slot] = val.conj()
        coords[v] = cv
    return StableCurve(nt, coords)


# ---------------------------------------------------------------------------
# canonical key

def moduli_key(c: StableCurve) -> str:
    """Canonical serialization of the isomorphism class of the curve.

    Each component is normalized by the unique Mobius map sending its first
    three special points (in canonical slot order) to infinity, zero and
    one, so equal strings mean equal points of the moduli space.  In
    particular a component with exactly three special points contributes no
    coordinate data, as it has no moduli.
    """
    t = c.tree
    order = canonical_vertex_order(t)

    def slot_sort_key(v):
        def k(slot):
            if slot[0] == "m":
                return (0, mark_key(slot[1]))
            u, w = slot[1]
            other = w if u == v else u
            return (1, (order[other], 0))
        return k

    parts = []
    for v in sorted(order, key=order.get):
        slots = sorted(c.coords[v], key=slot_sort_key(v))
        refs = [c.coords[v][s] for s in slots[:3]]
        items = []
        for s in slots:
            z = c.coords[v][s]
            # frame (refs[0], refs[1], refs[2]) -> (inf, 0, 1)
            val = cross_ratio(z, refs[2], refs[1], refs[0])
            if s[0] == "m":
                items.append("m%s=%s" % (s[1], val.serialize()))
            else:
                a, b = sorted((order[s[1][0]], order[s[1][1]]))
                items.append("e%d-%d=%s" % (a, b, val.serialize()))
        parts.append("v%d{%s}" % (order[v], ";".join(items)))
    return "|".join(parts)


def curve_key(c: StableCurve) -> str:
    """Canonical serialization: equal strings iff the curves agree up to a
    relabeling of dual-graph vertices (coordinates compared literally)."""
    t = c.tree
    order = canonical_vertex_order(t)
    parts = []
    for v in sorted(order, key=order.get):
        items = []
        for slot in sorted(
            c.coords[v],
            key=lambda s: (0, mark_key(s[1]), 0) if s[0] == "m"
            else (1, (order[s[1][0]], order[s[1][1]]) if s[1][0] in order else s[1], 1),
        ):
            if slot[0] == "m":
                items.append("m%s=%s" % (slot[1], c.coords[v][slot].serialize()))
            else:
                a, b = sorted((order[slot[1][0]], order[slot[1][1]]))
                items.append("e%d-%d=%s" % (a, b, c.coords[v][slot].serialize()))
        parts.append("v%d{%s}" % (order[v], ";".join(items)))
    return "|".join(parts)
