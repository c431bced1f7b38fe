"""Exact stable nodal marked curves.

A curve is a tree of projective lines: each vertex of the dual graph
carries coordinates for its marks and for the node of every incident
edge.  A node is stored twice, once on each of the two components it
joins; no global coordinate exists on a nodal curve.  A curve holds its
coordinates as one tuple, numbered by its tree's slot layout.
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
                    shared_tree, sort_marks, tree_from_json)


class CurveError(Exception):
    pass


Slot = Tuple  # ("m", mark) or ("e", (u, v)) with u < v

# one tuple per slot, so that the layouts kept on many trees share them
_SLOTS: Dict[Slot, Slot] = {}


def _edge_slot(e) -> Slot:
    u, v = e
    s = ("e", (u, v) if u < v else (v, u))
    return _SLOTS.setdefault(s, s)


def _mark_slot(m) -> Slot:
    s = ("m", m)
    return _SLOTS.setdefault(s, s)


class SlotLayout:
    """The one numbering of a tree's coordinate slots, kept on the tree.

    Slots go vertex by vertex: its marks in mu_inv order, then its edges
    by neighbour.  slots[i] is the slot with index i and vertex[i] its
    vertex; the slots of v are offsets[v]:offsets[v + 1].  On a valid
    tree, rows[v] lists in bit order the index through which v sees each
    mark (the mark's own slot at its vertex, else the edge into the
    mark's branch); on a valid real tree, partner[i] is the index of the
    conjugate of slot i (the conjugate mark where it sits, or the image
    of the edge at phi(v)), i itself for a self-conjugate slot.  A layout
    refers to no tree, and its slot tuples are shared between layouts,
    so a layout can be kept for a tree that is built again later.
    """

    rows: Optional[Tuple[Tuple[int, ...], ...]] = None
    partner: Optional[Tuple[int, ...]] = None

    def __init__(self, t: MarkedTree):
        adj = t.adjacency()
        slots: List[Slot] = []
        vertex: List[int] = []
        offsets = [0]
        for v in range(t.vertex_count):
            slots += [_mark_slot(m) for m in t.mu_inv(v)]
            slots += [_edge_slot((v, w)) for w in adj[v]]
            vertex += [v] * (len(slots) - offsets[-1])
            offsets.append(len(slots))
        self.slots, self.vertex, self.offsets = tuple(slots), tuple(vertex), tuple(offsets)
        if t.validate():
            return
        index = {vs: i for i, vs in enumerate(zip(vertex, slots))}
        bits, rows = t.mark_bits(), []
        for v, sides in enumerate(t.split_index()[0]):
            edge0 = offsets[v + 1] - len(sides)  # the edges are v's last slots
            rows.append(tuple([
                index[v, ("m", m)] if t.mu[m] == v
                else edge0 + next(j for j, side in enumerate(sides) if side & b)
                for m, b in bits.items()]))
        self.rows = tuple(rows)
        if t.is_real:
            phi = t.phi
            self.partner = tuple([
                index[t.mu[bar_mark(x)], ("m", bar_mark(x))] if kind == "m"
                else index[phi[v], _edge_slot((phi[x[0]], phi[x[1]]))]
                for v, (kind, x) in zip(vertex, slots)])


def slot_layout(t: MarkedTree) -> SlotLayout:
    if t._layout is None:
        t._layout = SlotLayout(t)
    return t._layout


class StableCurve:
    """tree + one tuple of points, numbered by the tree's slot layout.

    A curve is not mutated after construction (its tree and points are
    fixed), so what is derived from it is kept on first use: its
    moduli_key string, the stabilized base that quotient.base_of
    computes by forgetting the extra mark(s), and whether validate has
    passed.  What depends only on the tree (the slot layout, the
    moduli-key layout and the forget plans) is kept on the tree.
    """

    # filled on first use
    _moduli_key: Optional[str] = None
    _base: Optional["StableCurve"] = None
    # set once validate has found nothing wrong
    _valid = False
    # coordinates whose slots are not the tree's, kept for validate
    _raw: Optional[Dict[int, Dict[Slot, ProjPoint]]] = None

    def __init__(self, tree: MarkedTree, coords: Dict[int, Dict[Slot, ProjPoint]]):
        """The curve with coordinates {vertex: {slot: point}}.  When the
        slots are not exactly the tree's, points is None and validate
        reports what differs."""
        self.tree = tree
        lay = slot_layout(tree)
        try:
            points = tuple([coords[v][s] for v, s in zip(lay.vertex, lay.slots)])
        except KeyError:
            points = None
        if (points is None or coords.keys() != set(range(tree.vertex_count))
                or sum(map(len, coords.values())) != len(points)):
            self._raw = {v: dict(sl) for v, sl in coords.items()}
            points = None
        self.points: Optional[Tuple[ProjPoint, ...]] = points

    @classmethod
    def _of(cls, tree: MarkedTree, points: Tuple[ProjPoint, ...]) -> "StableCurve":
        """The curve with the given points, in the tree's slot order."""
        c = cls.__new__(cls)
        c.tree = tree
        c.points = points
        return c

    @property
    def coords(self) -> Dict[int, Dict[Slot, ProjPoint]]:
        """A fresh {vertex: {slot: point}} copy of the coordinates, each
        vertex's slots in layout order; changing it leaves the curve as
        it is."""
        if self.points is None:
            return {v: dict(sl) for v, sl in self._raw.items()}
        lay, pts = slot_layout(self.tree), self.points
        return {v: dict(zip(lay.slots[a:b], pts[a:b]))
                for v, (a, b) in enumerate(zip(lay.offsets, lay.offsets[1:]))}

    @property
    def is_real(self) -> bool:
        return self.tree.is_real

    def validate(self) -> List[str]:
        t = self.tree
        bad = t.validate()
        raw = self._raw
        if raw is not None and raw.keys() != set(range(t.vertex_count)):
            bad.append("coords must cover every vertex")
            return bad
        lay = slot_layout(t)
        off = lay.offsets
        for v in range(t.vertex_count):
            if raw is None:
                pts = self.points[off[v]:off[v + 1]]
            else:
                want = set(lay.slots[off[v]:off[v + 1]])
                if raw[v].keys() != want:
                    bad.append("vertex %d: slots %r != expected %r" % (v, set(raw[v]), want))
                    continue
                pts = list(raw[v].values())
            if len({z._k for z in pts}) != len(pts):
                bad.append("vertex %d: special points not pairwise distinct" % v)
            if len(pts) < 3:
                bad.append("vertex %d: fewer than 3 special points" % v)
        if not bad and self.is_real:
            bad.extend(self._validate_real())
        if not bad:
            self._valid = True
        return bad

    def _validate_real(self) -> List[str]:
        """Each conjugate pair is checked once, on the integer keys:
        conjugation maps (p, q, d) to (p, -q, d).  On a failure both slots
        of every failing pair are reported, in slot order."""
        pts = self.points
        fails = set()
        lay = slot_layout(self.tree)
        for i, j in enumerate(lay.partner):
            if j >= i:
                p, q, d = pts[i]._k
                if pts[j]._k != (p, -q, d):
                    fails.update((i, j))
        return ["conjugation symmetry fails at vertex %d slot %r" % (lay.vertex[i], lay.slots[i])
                for i in sorted(fails)]

    def to_json(self) -> dict:
        d = self.tree.to_json()
        d["coords"] = {
            str(v): {("mark:%s" % (s[1],) if s[0] == "m" else "edge:%d-%d" % s[1]):
                     z.serialize() for s, z in cv.items()}
            for v, cv in self.coords.items()}
        return d

    def __repr__(self):
        return "StableCurve(%s)" % (json.dumps(self.to_json(), sort_keys=True),)


def curve_from_json(d: dict) -> StableCurve:
    t = tree_from_json(d)
    try:
        coords = {int(vs): {_slot_of_key(key, t.is_real): ProjPoint.parse(lit)
                            for key, lit in cv.items()}
                  for vs, cv in d["coords"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CurveError("malformed curve JSON: %r" % (e,)) from e
    return StableCurve(t, coords)


def _slot_of_key(key: str, real: bool) -> Slot:
    """The slot of a coordinate key "mark:<mark>" or "edge:<u>-<v>"."""
    kind, _colon, rest = key.partition(":")
    try:
        if kind == "mark":
            return ("m", rest if real else int(rest))
        if kind == "edge":
            a, b = rest.split("-")
            return ("e", (int(a), int(b)))
    except ValueError:
        pass
    raise CurveError("bad coordinate key %r" % (key,))


# ---------------------------------------------------------------------------
# forgetful map with stabilization

def forget(c: StableCurve, keep) -> StableCurve:
    """Forget the marks outside keep and stabilize.

    The stabilization depends only on the tree and keep, so it is planned
    once per (tree, kept marks) and replayed here on the coordinates.
    """
    t, pts = c.tree, c.points
    if pts is None:
        raise CurveError("forget on an invalid curve: %r" % (c.validate(),))
    keep = frozenset(keep)
    plans = t._forget_plans
    if plans is None:
        plans = t._forget_plans = {}
    plan = plans.get(keep)
    if plan is None:
        plan = plans[keep] = _plan_forget(t, keep)
    nt, gather = plan
    out = StableCurve._of(t if nt is None else nt, tuple([pts[i] for i in gather]))
    bad = out.validate()
    if bad:
        raise CurveError("stabilization produced an invalid curve: %r" % (bad,))
    return out


def _plan_forget(t: MarkedTree, keep: FrozenSet) -> Tuple[Optional[MarkedTree], Tuple]:
    """(output tree, gather) of forgetting all but keep on tree t, read
    off the rows of t's slot layout.

    A vertex survives iff the kept marks lie in 3 or more of its slots.
    At a survivor, a slot that holds one kept mark becomes that mark, and
    a slot that holds more becomes the edge to the survivor whose slot
    holds the other kept marks; either way it keeps its point.  The
    survivors keep their order, and phi is read through them.  gather[i]
    is the index on t of the point that the stabilized curve takes for
    its slot i.  The output tree is None when it is t itself, so that no
    tree refers to itself.  Raises CurveError for a bad keep set or an
    invalid tree; errors are not kept.
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
    rows = slot_layout(t).rows
    if rows is None:
        raise CurveError("forget on an invalid tree: %r" % (t.validate(),))

    bits = t.mark_bits()
    kept = [(i, bits[m]) for i, m in enumerate(bits) if m in keep]
    mark_of = {bits[m]: m for m in keep}
    full = sum(mark_of)
    # held[v]: slot index at v -> mask of the kept marks it holds
    held = []
    for row in rows:
        h: Dict[int, int] = {}
        for i, b in kept:
            h[row[i]] = h.get(row[i], 0) | b
        held.append(h)
    survivors = [v for v, h in enumerate(held) if len(h) >= 3]
    newid = {v: i for i, v in enumerate(survivors)}
    # far[mask]: the new id of the one survivor with a slot that holds
    # the kept marks of mask, for masks of 2 or more marks
    far = {mask: newid[v] for v in survivors for mask in held[v].values()
           if mask & (mask - 1)}
    at, edges = {}, set()
    old = {}  # (output vertex, output slot) -> index on t of its point
    for v in survivors:
        u = newid[v]
        for i, mask in held[v].items():
            if mask & (mask - 1):
                slot = _edge_slot((u, far[full ^ mask]))
                edges.add(slot[1])
            else:
                slot = ("m", mark_of[mask])
                at[slot[1]] = u
            old[u, slot] = i
    mu = {m: at[m] for m in t.mu if m in keep}  # in t's order, as repr shows
    phi = [newid[t.phi[v]] for v in survivors] if t.is_real else None
    nt = shared_tree(len(survivors), edges, mu, phi)
    out = slot_layout(nt)
    return (None if nt is t else nt), tuple([old[vs] for vs in zip(out.vertex, out.slots)])


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
    pts, rows = c.points, slot_layout(t).rows
    if pts is None or rows is None:
        raise CurveError("cross ratio on an invalid curve: %r" % (c.validate(),))
    for row in rows:
        a, b, x, y = row[i], row[j], row[k], row[n]
        if len({a, b, x, y}) >= 3:
            return cross_ratio(pts[a], pts[b], pts[x], pts[y])
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
    lay = slot_layout(t)
    off = lay.offsets
    # each conjugate pair is drawn at its first slot; without partners
    # (a complex or an invalid tree) each slot is its own
    partner = lay.partner or range(off[-1])
    for _attempt in range(200):
        pts: List[ProjPoint] = [PP_INF] * len(partner)
        for i, j in enumerate(partner):
            if j == i:
                pts[i] = _rand_point(rng, bound, real_only=t.is_real)
            elif j > i:
                pts[i] = val = _rand_point(rng, bound)
                pts[j] = val.conj()
        if all(len({z._k for z in pts[a:b]}) == b - a for a, b in zip(off, off[1:])):
            c = StableCurve._of(t, tuple(pts))
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
    # marks of the new curve at v are bar of the old ones at v
    was, pts = slot_layout(t), c.points
    old = {vs: i for i, vs in enumerate(zip(was.vertex, was.slots))}
    lay = slot_layout(nt)
    return StableCurve._of(nt, tuple([
        pts[old[v, ("m", bar_mark(s[1])) if s[0] == "m" else s]].conj()
        for v, s in zip(lay.vertex, lay.slots)]))


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
        if c.points is None or slot_layout(c.tree).rows is None:
            raise CurveError("moduli key of an invalid curve: %r" % (c.validate(),))
        c._moduli_key = _moduli_key(c)
    return c._moduli_key


def _moduli_key(c: StableCurve) -> str:
    pts = c.points
    parts = []
    for (a, b, d), head, rest in _key_layout(c.tree):
        r0, r1, r2 = pts[a], pts[b], pts[d]
        if r0._k == r1._k or r0._k == r2._k or r1._k == r2._k:
            raise UnstableConfiguration("three or more coincident points")
        if rest:
            # (r0, r1, r2) -> (inf, 0, 1); the head already holds their text
            to_frame = frame(r0, r1, r2)
            parts.append(head + ";".join([text + to_frame(pts[i]).serialize()
                                          for i, text in rest]) + "}")
        else:
            parts.append(head)
    return "|".join(parts)


# the text of inf, 0 and 1, where a component's frame sends its references
_REF_TEXTS = (PP_INF.serialize(), PP_ZERO.serialize(), PP_ONE.serialize())


def _key_layout(t: MarkedTree) -> Tuple:
    """What moduli_key reads off the tree, kept on it: per vertex, in
    canonical order, (the indices of its three reference slots, head,
    rest).  Slots are in canonical order: marks first in mark_key order,
    then edges by the rank of the neighbour; each is written "m<mark>="
    or "e<rank>-<rank>=" and its framed value.  The references frame to
    inf, 0 and 1 whatever the coordinates, so the head is the finished
    text "v<rank>{<ref>=inf;<ref>=0;<ref>=1" of the vertex up to them,
    closed with "}" when it has no other slot; rest lists (index, text)
    for the slots after the references."""
    if t._key_layout is None:
        order = canonical_vertex_order(t)
        bits = t.mark_bits()  # bit order is mark_key order
        lay = slot_layout(t)
        layout = []
        for v in sorted(order, key=order.get):
            def k(i):
                kind, x = lay.slots[i]
                if kind == "m":
                    return (0, bits[x])
                return (1, order[x[1] if x[0] == v else x[0]])
            idx = sorted(range(lay.offsets[v], lay.offsets[v + 1]), key=k)
            texts = []
            for i in idx:
                kind, x = lay.slots[i]
                if kind == "m":
                    texts.append("m%s=" % (x,))
                else:
                    a, b = sorted((order[x[0]], order[x[1]]))
                    texts.append("e%d-%d=" % (a, b))
            head = "v%d{" % order[v] + ";".join(
                [text + ref for text, ref in zip(texts, _REF_TEXTS)])
            rest = tuple(zip(idx[3:], texts[3:]))
            layout.append((tuple(idx[:3]), head + (";" if rest else "}"), rest))
        t._key_layout = tuple(layout)
    return t._key_layout

