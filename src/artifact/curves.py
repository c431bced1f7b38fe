"""Exact stable nodal marked curves.

A curve is a tree of projective lines: each vertex of the dual graph
carries coordinates for its marks and for the node of every incident
edge.  A node is stored twice, once on each of the two components it
joins; no global coordinate exists on a nodal curve.
"""

from __future__ import annotations

import json
import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from .exactfield import (PP_INF, PP_ONE, PP_ZERO, ProjPoint, UnstableConfiguration,
                         cross_ratio, finite_point, frame)
from .strata import classify_real, is_admissible, stratum_edge
from .trees import (MarkedTree, RealMarkedTree, bar_mark, canonical_form,
                    canonical_vertex_order, real_marks,
                    shared_tree, sort_marks, _mark_slot, _phi_from_structure,
                    _sorted_edge_slot)


class CurveError(Exception):
    pass


Slot = Tuple  # ("m", mark) or ("e", (u, v)) with u < v


def _edge_slot(e) -> Slot:
    u, v = e
    return _sorted_edge_slot(u, v) if u < v else _sorted_edge_slot(v, u)


class StableCurve:
    """tree + per-vertex dict {slot -> ProjPoint}.

    A curve is not mutated after construction (its tree and coordinates
    are fixed), so what is derived from it is kept on first use: its
    moduli_key string, and the stabilized base that quotient.base_of
    computes by forgetting the extra mark(s).  What depends only on the
    tree (the expected slots, their conjugate pairs, the moduli-key
    layout and the forget plans) is kept on the tree.
    """

    # filled on first use
    _moduli_key: Optional[str] = None
    _base: Optional["StableCurve"] = None

    def __init__(self, tree: MarkedTree, coords: Dict[int, Dict[Slot, ProjPoint]]):
        self.tree = tree
        self.coords = {v: dict(sl) for v, sl in coords.items()}

    @property
    def is_real(self) -> bool:
        return self.tree.is_real

    def validate(self) -> List[str]:
        bad = self.tree.validate()
        t = self.tree
        if set(self.coords.keys()) != set(range(t.vertex_count)):
            bad.append("coords must cover every vertex")
            return bad
        for v, (slots, want) in enumerate(_vertex_slots(t)):
            cv = self.coords[v]
            if cv.keys() != want:
                bad.append("vertex %d: slots %r != expected %r" % (v, set(cv), set(slots)))
                continue
            if len({z._k for z in cv.values()}) != len(cv):
                bad.append("vertex %d: special points not pairwise distinct" % v)
            if len(cv) < 3:
                bad.append("vertex %d: fewer than 3 special points" % v)
        if not bad and self.is_real:
            bad.extend(self._validate_real())
        return bad

    def _validate_real(self) -> List[str]:
        """Each conjugate pair is checked once, on the integer keys:
        conjugation maps (p, q, d) to (p, -q, d).  On a failure every slot
        whose partner is not its conjugate is reported, by vertex and then
        in the order of the vertex's coordinates."""
        coords = self.coords
        pairs = _conj_pairs(self.tree)
        for v, slot, pv, pslot in pairs:
            p, q, d = coords[v][slot]._k
            if coords[pv][pslot]._k != (p, -q, d):
                break
        else:
            return []
        partner = {}
        for v, slot, pv, pslot in pairs:
            partner[v, slot] = (pv, pslot)
            partner[pv, pslot] = (v, slot)
        bad = []
        for v in range(self.tree.vertex_count):
            for slot, val in coords[v].items():
                pv, pslot = partner[v, slot]
                p, q, d = val._k
                if coords[pv][pslot]._k != (p, -q, d):
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


def _vertex_slots(t: MarkedTree) -> Tuple[Tuple[Tuple[Slot, ...], FrozenSet[Slot]], ...]:
    """Per vertex, the slots of its special points, as a tuple (its marks
    in mu_inv order, then its edges by neighbour) and as a set; kept on
    the tree."""
    if t._vertex_slots is None:
        adj = t.adjacency()
        rows = []
        for v in range(t.vertex_count):
            slots = tuple([_mark_slot(m) for m in t.mu_inv(v)]
                          + [_edge_slot((v, w)) for w in adj[v]])
            rows.append((slots, frozenset(slots)))
        t._vertex_slots = tuple(rows)
    return t._vertex_slots


def _conj_pairs(t: MarkedTree) -> Tuple[Tuple[int, Slot, int, Slot], ...]:
    """Each conjugate pair of slots of a real tree once, as (v, slot, pv,
    pslot): the partner is the conjugate mark where it sits, or the image
    of the edge at phi(v); a self-conjugate slot is its own partner.
    Pairs come in the order sample_curve draws them, by first occurrence
    over v ascending and _vertex_slots order.  Kept on the tree."""
    if t._conj_pairs is None:
        phi = t.phi
        seen = set()
        pairs = []
        for v, (slots, _want) in enumerate(_vertex_slots(t)):
            for slot in slots:
                if (v, slot) in seen:
                    continue
                if slot[0] == "m":
                    mb = bar_mark(slot[1])
                    pv, pslot = t.mu[mb], _mark_slot(mb)
                else:
                    u, w = slot[1]
                    pv, pslot = phi[v], _edge_slot((phi[u], phi[w]))
                seen.add((pv, pslot))
                pairs.append((v, slot, pv, pslot))
        t._conj_pairs = tuple(pairs)
    return t._conj_pairs


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
    """Forget the marks outside keep and stabilize.

    The stabilization depends only on the tree and keep, so it is planned
    once per (tree, kept marks) and replayed here on the coordinates.
    """
    t = c.tree
    keep = frozenset(keep)
    plans = t._forget_plans
    if plans is None:
        plans = t._forget_plans = {}
    plan = plans.get(keep)
    if plan is None:
        plan = plans[keep] = _plan_forget(t, keep)
    nt, moves = plan
    coords = c.coords
    out = StableCurve(t if nt is None else nt,
                      {v: {slot: coords[u][old] for slot, u, old in mv}
                       for v, mv in enumerate(moves)})
    bad = out.validate()
    if bad:
        raise CurveError("stabilization produced an invalid curve: %r" % (bad,))
    return out


def _plan_forget(t: MarkedTree, keep: FrozenSet) -> Tuple[Optional[MarkedTree], Tuple]:
    """(output tree, moves) of forgetting all but keep on tree t.

    moves[i] lists, for output vertex i, (new slot, old vertex, old slot):
    where each coordinate of the stabilized curve comes from.  The output
    tree is None when it is t itself, so that no tree refers to itself.
    Raises CurveError for a bad keep set; errors are not kept.
    """
    if not keep <= t.mu.keys():
        raise CurveError("keep contains unknown marks")
    if t.is_real:
        if {bar_mark(m) for m in keep} != keep:
            raise CurveError("real keep set must be conjugation-closed")
        if len(keep) < 4:
            raise CurveError("keep too small: need at least 2 conjugate pairs")
    elif len(keep) < 3:
        raise CurveError("keep too small: need at least 3 marks")

    # working copy over the original vertex ids; inc[v] and at[v] are the
    # edges and the kept marks at v, src[v] maps each current slot at v to
    # the slot of v that holds its coordinate
    verts = set(range(t.vertex_count))
    edges = set(t.edges)
    inc = {v: {e for e in t.edges if v in e} for v in verts}
    mu = {m: v for m, v in t.mu.items() if m in keep}
    at = {v: [m for m in t.mu_inv(v) if m in keep] for v in verts}
    src = {v: {s: s for s in slots if s[0] == "e" or s[1] in keep}
           for v, (slots, _want) in enumerate(_vertex_slots(t))}

    changed = True
    while changed:
        changed = False
        for v in sorted(verts):
            iv, marks_here = inc[v], at[v]
            nspecial = len(iv) + len(marks_here)
            if nspecial >= 3 or (len(iv) == 0 and len(verts) == 1):
                continue
            changed = True
            if len(iv) == 2:
                (e1, e2) = sorted(iv)
                a = e1[0] if e1[1] == v else e1[1]
                b = e2[0] if e2[1] == v else e2[1]
                edges -= {e1, e2}
                newe = tuple(sorted((a, b)))
                edges.add(newe)
                inc[a].remove(e1)
                inc[a].add(newe)
                inc[b].remove(e2)
                inc[b].add(newe)
                src[a][_edge_slot(newe)] = src[a].pop(_edge_slot(e1))
                src[b][_edge_slot(newe)] = src[b].pop(_edge_slot(e2))
            elif len(iv) == 1:
                (e,) = iv
                a = e[0] if e[1] == v else e[1]
                edges.discard(e)
                inc[a].discard(e)
                node = src[a].pop(_edge_slot(e))
                if marks_here:
                    # the remaining mark lands at the node position
                    m = marks_here[0]
                    mu[m] = a
                    at[a].append(m)
                    src[a][_mark_slot(m)] = node
            else:
                raise CurveError("keep too small for stability")
            verts.discard(v)
            src.pop(v, None)
            break

    newid = {v: i for i, v in enumerate(sorted(verts))}
    new_edges = [tuple(sorted((newid[a], newid[b]))) for a, b in edges]
    new_mu = {m: newid[v] for m, v in mu.items()}
    moves = []
    for v in sorted(verts):
        mv = []
        for slot, old in src[v].items():
            if slot[0] == "e":
                a, b = slot[1]
                slot = _edge_slot((newid[a], newid[b]))
            mv.append((slot, v, old))
        moves.append(tuple(mv))
    phi = None
    if t.is_real:
        phi = _phi_from_structure(MarkedTree(len(verts), new_edges, new_mu))
    nt = shared_tree(len(verts), new_edges, new_mu, phi)
    return (None if nt is t else nt), tuple(moves)


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
    bits = t.mark_bits()
    for m in q:
        if m not in bits:
            raise CurveError("mark %r not on the curve" % (m,))
    i, j, k, n = [bits[m].bit_length() - 1 for m in q]
    for v, row in enumerate(t.slot_table()):
        slots = (row[i], row[j], row[k], row[n])
        if len(set(slots)) >= 3:
            cv = c.coords[v]
            return cross_ratio(cv[slots[0]], cv[slots[1]], cv[slots[2]], cv[slots[3]])
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

def _rand_point(rng: random.Random, bound: int, real_only=False) -> ProjPoint:
    # infinity shows up with small probability so charts get exercised there
    if rng.randrange(12) == 0:
        return PP_INF
    p, d = rng.randint(-bound, bound), rng.randint(1, bound)
    if real_only:
        return finite_point(p, 0, d)
    q, e = rng.randint(-bound, bound), rng.randint(1, bound)
    # p/d + (q/e)*i = (p*e + q*d*i) / (d*e)
    return finite_point(p * e, q * d, d * e)


def sample_curve(t: MarkedTree, bound: int, seed) -> StableCurve:
    """Deterministic random curve with the given dual graph.

    Coordinate magnitudes are bounded by `bound`; real trees receive
    conjugation-symmetric coordinates by construction.
    """
    if bound < 2:
        raise CurveError("bound too small")
    rng = random.Random(repr(seed))
    rows = _vertex_slots(t)
    pairs = _conj_pairs(t) if t.is_real else None
    for _attempt in range(200):
        coords: Dict[int, Dict[Slot, ProjPoint]] = {v: {} for v in range(t.vertex_count)}
        if pairs is None:
            for v, (slots, _want) in enumerate(rows):
                cv = coords[v]
                for slot in slots:
                    cv[slot] = _rand_point(rng, bound)
        else:
            for v, slot, pv, pslot in pairs:
                if pv == v and pslot == slot:
                    coords[v][slot] = _rand_point(rng, bound, real_only=True)
                else:
                    val = _rand_point(rng, bound)
                    coords[pv][pslot] = val.conj()
                    coords[v][slot] = val
        if all(len({z._k for z in cv.values()}) == len(cv) for cv in coords.values()):
            c = StableCurve(t, coords)
            bad = c.validate()
            if bad:
                raise CurveError("%s: sampled invalid curve: %r" % (_case(t, seed), bad))
            return c
    raise CurveError("%s: bound too small to fit distinct special points"
                     % (_case(t, seed),))


def _case(t: MarkedTree, seed) -> str:
    """The seed and the tree of a sampling failure, for its message: the
    tree by its canonical form, or by repr when it is not a valid tree."""
    return "seed %r, tree %s" % (seed, repr(t) if t.validate() else canonical_form(t))


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
    coordinate data, as it has no moduli.  Computed once per curve.
    """
    if c._moduli_key is None:
        c._moduli_key = _moduli_key(c)
    return c._moduli_key


def _moduli_key(c: StableCurve) -> str:
    parts = []
    for v, refs, head, rest in _key_layout(c.tree):
        cv = c.coords[v]
        r0, r1, r2 = cv[refs[0]], cv[refs[1]], cv[refs[2]]
        if r0._k == r1._k or r0._k == r2._k or r1._k == r2._k:
            raise UnstableConfiguration("three or more coincident points")
        if rest:
            # (r0, r1, r2) -> (inf, 0, 1); the head already holds their text
            to_frame = frame(r0, r1, r2)
            parts.append(head + ";".join([text + to_frame(cv[s]).serialize()
                                          for s, text in rest]) + "}")
        else:
            parts.append(head)
    return "|".join(parts)


# the text of inf, 0 and 1, where a component's frame sends its references
_REF_TEXTS = (PP_INF.serialize(), PP_ZERO.serialize(), PP_ONE.serialize())


def _key_layout(t: MarkedTree) -> Tuple:
    """What moduli_key reads off the tree, kept on it: per vertex, in
    canonical order, (vertex, its three reference slots, head, rest).
    Slots are in canonical order: marks first in mark_key order, then
    edges by the rank of the neighbour; each is written "m<mark>=" or
    "e<rank>-<rank>=" and its framed value.  The references frame to inf,
    0 and 1 whatever the coordinates, so the head is the finished text
    "v<rank>{<ref>=inf;<ref>=0;<ref>=1" of the vertex up to them, closed
    with "}" when it has no other slot; rest lists (slot, text) for the
    slots after the references."""
    if t._key_layout is None:
        order = canonical_vertex_order(t)
        bits = t.mark_bits()  # bit order is mark_key order
        rows = _vertex_slots(t)
        layout = []
        for v in sorted(order, key=order.get):
            def k(slot):
                if slot[0] == "m":
                    return (0, bits[slot[1]])
                u, w = slot[1]
                return (1, order[w if u == v else u])
            slots = sorted(rows[v][0], key=k)
            texts = []
            for s in slots:
                if s[0] == "m":
                    texts.append("m%s=" % (s[1],))
                else:
                    a, b = sorted((order[s[1][0]], order[s[1][1]]))
                    texts.append("e%d-%d=" % (a, b))
            head = "v%d{" % order[v] + ";".join(
                [text + ref for text, ref in zip(texts, _REF_TEXTS)])
            rest = tuple(zip(slots[3:], texts[3:]))
            layout.append((v, tuple(slots[:3]), head + (";" if rest else "}"), rest))
        t._key_layout = tuple(layout)
    return t._key_layout

