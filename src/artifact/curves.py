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
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

from .exactfield import (PP_INF, PP_ONE, PP_ZERO, ProjPoint, cross_ratio, finite_point,
                         frame, randbelow)
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
    mark's branch), built in one pass over v's branch masks: each bit of
    branch j maps to v's edge slot j, and v's own marks, the bits in no
    branch, are its first slots in bit order.  On a valid real tree,
    partner[i] is the index of the conjugate of slot i (the conjugate
    mark where it sits, or the image of the edge at phi(v)), i itself
    for a self-conjugate slot; only it needs a (vertex, slot) -> index
    dict.  A layout refers to no tree, and its slot tuples are shared
    between layouts, so a layout can be kept for a tree that is built
    again later.
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
        n = len(t.mark_bits())
        full = (1 << n) - 1
        rows = []
        for v, sides in enumerate(t.split_index()[0]):
            row = [0] * n
            own = full
            i = offsets[v + 1] - len(sides)  # the edges are v's last slots
            for side in sides:
                own ^= side
                while side:
                    low = side & -side
                    row[low.bit_length() - 1] = i
                    side ^= low
                i += 1
            i = offsets[v]  # v's own marks are its first slots, in bit order
            while own:
                low = own & -own
                row[low.bit_length() - 1] = i
                own ^= low
                i += 1
            rows.append(tuple(row))
        self.rows = tuple(rows)
        if t.is_real:
            index = {vs: i for i, vs in enumerate(zip(vertex, slots))}
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

    Every curve is a stable curve: each component has three or more
    pairwise distinct special points, its tree is valid and, on a real
    tree, the points are conjugation-symmetric.  The dict constructor
    checks this in full; the other builders keep it (sample_curve
    validates what it draws, _derive checks what it gathers and
    conjugate_curve maps a curve to a curve).

    A curve is not mutated after construction (its tree and points are
    fixed), so what is derived from it is kept on first use: its
    moduli_key string and the stabilized base that quotient.base_of
    computes by forgetting the extra mark(s).  What depends only on the
    tree (the slot layout, the moduli-key layout and the gather plans)
    is kept on the tree.
    """

    # filled on first use
    _moduli_key: Optional[str] = None
    _base: Optional["StableCurve"] = None

    def __init__(self, tree: MarkedTree, coords: Dict[int, Dict[Slot, ProjPoint]]):
        """The curve with coordinates {vertex: {slot: point}}, or
        CurveError("invalid curve: [...]") listing what validate reports,
        with a vertex whose slots are not the tree's named in place of
        the checks of its points: its slots and the expected ones as
        lists in layout order, any unknown slots last, sorted by repr,
        so that the text does not depend on the hash seed."""
        self.tree = tree
        lay = slot_layout(tree)
        off = lay.offsets
        bad = tree.validate()
        if coords.keys() != set(range(tree.vertex_count)):
            bad.append("coords must cover every vertex")
        else:
            for v, (a, b) in enumerate(zip(off, off[1:])):
                want = lay.slots[a:b]
                if coords[v].keys() != set(want):
                    got = ([s for s in want if s in coords[v]]
                           + sorted(coords[v].keys() - set(want), key=repr))
                    bad.append("vertex %d: slots %r != expected %r" % (v, got, list(want)))
                else:
                    bad += _vertex_problems(v, list(coords[v].values()))
        if not bad:
            self.points = tuple([coords[v][s] for v, s in zip(lay.vertex, lay.slots)])
            if tree.is_real:
                bad = self._validate_real()
        if bad:
            raise CurveError("invalid curve: %r" % (bad,))

    @classmethod
    def _of(cls, tree: MarkedTree, points: Tuple[ProjPoint, ...]) -> "StableCurve":
        """The curve with the given points, in the tree's slot order; the
        caller checks them."""
        c = cls.__new__(cls)
        c.tree = tree
        c.points = points
        return c

    @property
    def coords(self) -> Dict[int, Dict[Slot, ProjPoint]]:
        """A fresh {vertex: {slot: point}} copy of the coordinates, each
        vertex's slots in layout order; changing it leaves the curve as
        it is."""
        lay, pts = slot_layout(self.tree), self.points
        return {v: dict(zip(lay.slots[a:b], pts[a:b]))
                for v, (a, b) in enumerate(zip(lay.offsets, lay.offsets[1:]))}

    @property
    def is_real(self) -> bool:
        return self.tree.is_real

    def validate(self) -> List[str]:
        """What makes the tree and points no stable curve, [] for none."""
        t = self.tree
        off = slot_layout(t).offsets
        bad = t.validate()
        for v, (a, b) in enumerate(zip(off, off[1:])):
            bad += _vertex_problems(v, self.points[a:b])
        if not bad and t.is_real:
            bad = self._validate_real()
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


def _vertex_problems(v: int, pts) -> List[str]:
    """What is wrong with the points of component v."""
    bad = []
    if len({z._k for z in pts}) != len(pts):
        bad.append("vertex %d: special points not pairwise distinct" % v)
    if len(pts) < 3:
        bad.append("vertex %d: fewer than 3 special points" % v)
    return bad


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
# curves derived by a gather of points

class _Gather:
    """How to build a curve from the points of a curve on one tree (see
    _derive), made from the output tree's shared_tree arguments, a
    {(vertex, slot): index} map and the output vertices to check.

    gather[i] is the index, in the input points followed by the caller's
    extra points, of the point that the output takes for its slot i.
    ranges holds the slot ranges of the vertices to check, or None when
    the output tree is invalid.  The output tree is held only through a
    weakref, so that it goes with its last curve; tree() rebuilds it
    through shared_tree (mu in the plan's insertion order, which repr
    shows) and attaches the kept slot and moduli-key layouts, which
    refer to no tree.
    """

    __slots__ = ("ref", "args", "layout", "key_layout", "gather", "ranges")

    def __init__(self, vertex_count: int, edges, mu: Dict, phi, index: Dict, check=()):
        nt = shared_tree(vertex_count, edges, mu, phi)
        self.ref = weakref.ref(nt)
        self.args = (nt.vertex_count, nt.edges, mu, nt.phi)
        self.layout = lay = slot_layout(nt)
        self.gather = tuple([index[vs] for vs in zip(lay.vertex, lay.slots)])
        if nt.validate():
            self.key_layout = self.ranges = None
        else:
            self.key_layout = _key_layout(nt)
            self.ranges = tuple((lay.offsets[w], lay.offsets[w + 1]) for w in check)

    def tree(self) -> MarkedTree:
        nt = self.ref()
        if nt is None:
            nt = shared_tree(*self.args)
            if nt._layout is None:
                nt._layout = self.layout
            if nt._key_layout is None:
                nt._key_layout = self.key_layout
            self.ref = weakref.ref(nt)
        return nt


def _derive(c: StableCurve, key, plan_fn, extra: Tuple = ()) -> Tuple[StableCurve, List[str]]:
    """(the curve that the gather plan of c's tree at key builds from
    c's points followed by extra, what is wrong with it).

    plan_fn(tree, key) makes the plan on first use, kept in the tree's
    one dict of gather plans; errors are not kept.  c is a valid curve,
    so only the plan's ranges are checked, unless the output tree is
    invalid: then the output is validated in full."""
    t = c.tree
    plans = t._gathers
    if plans is None:
        plans = t._gathers = {}
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = plan_fn(t, key)
    pts = c.points + extra
    new = tuple([pts[i] for i in plan.gather])
    out = StableCurve._of(plan.tree(), new)
    if (plan.ranges is not None
            and all(len({z._k for z in new[a:b]}) == b - a for a, b in plan.ranges)):
        return out, []
    return out, out.validate()


# ---------------------------------------------------------------------------
# forgetful map with stabilization

def forget(c: StableCurve, keep) -> StableCurve:
    """Forget the marks outside keep and stabilize.

    The stabilization depends only on the tree and keep, so it is planned
    once per (tree, kept marks) and replayed by _derive.  It checks no
    points: a component that survives keeps some of the distinct points
    of one component.
    """
    out, bad = _derive(c, frozenset(keep), _plan_forget)
    if bad:
        raise CurveError("stabilization produced an invalid curve: %r" % (bad,))
    return out


def _plan_forget(t: MarkedTree, keep: FrozenSet) -> _Gather:
    """The gather plan of forgetting all but keep on tree t, read off the
    rows of t's slot layout.

    A vertex survives iff the kept marks lie in 3 or more of its slots.
    At a survivor, a slot that holds one kept mark becomes that mark, and
    a slot that holds more becomes the edge to the survivor whose slot
    holds the other kept marks; either way it keeps its point.  The
    survivors keep their order, and phi is read through them.  t is the
    tree of a curve, so it is valid and its layout has rows.  Raises
    CurveError for a bad keep set.
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
    return _Gather(len(survivors), edges, mu, phi, old)


# ---------------------------------------------------------------------------
# cross ratios on nodal curves

def cross_ratio_q(c: StableCurve, q) -> ProjPoint:
    """CR_q via projection to a component seeing >= 3 distinct directions.

    Agrees with the cross ratio of the 4-marked stabilization; exactly two
    coincident projections resolve by the degenerate 2|2 value table.
    """
    if type(q) is not tuple:
        q = tuple(q)
    t = c.tree
    bits = t._bits or t.mark_bits()
    try:
        a, b, x, y = q
        a, b, x, y = bits[a], bits[b], bits[x], bits[y]
    except (ValueError, KeyError, TypeError):
        a = b = x = y = 0
    if (a | b | x | y).bit_count() != 4:
        _bad_quadruple(q, bits)
    i, j = a.bit_length() - 1, b.bit_length() - 1
    k, n = x.bit_length() - 1, y.bit_length() - 1
    pts = c.points
    for row in (t._layout or slot_layout(t)).rows:
        a, b, x, y = row[i], row[j], row[k], row[n]
        if len({a, b, x, y}) >= 3:
            return cross_ratio(pts[a], pts[b], pts[x], pts[y])
    raise CurveError("no component separates three of the marks")  # unreachable


def _bad_quadruple(q: Tuple, bits: Dict) -> None:
    """Raise the error of a q that is not four distinct marks of the
    curve: the first of a repeat or a wrong length, a mark not on the
    curve, or (more than four entries) the unpacking's ValueError."""
    if len(set(q)) != 4:
        raise CurveError("cross ratio needs 4 distinct marks")
    for m in q:
        if m not in bits:
            raise CurveError("mark %r not on the curve" % (m,))
    _i, _j, _k, _n = [bits[m] for m in q]


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
    # infinity shows up with small probability so charts get exercised
    # there; p and q in [-bound, bound], d and e in [1, bound]
    if randbelow(rng, 12) == 0:
        return PP_INF
    width = 2 * bound + 1
    p, d = randbelow(rng, width) - bound, randbelow(rng, bound) + 1
    if real_only:
        return finite_point(p, 0, d)
    q, e = randbelow(rng, width) - bound, randbelow(rng, bound) + 1
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
        c._moduli_key = _moduli_key(c)
    return c._moduli_key


def _moduli_key(c: StableCurve) -> str:
    pts = c.points
    parts = []
    for (a, b, d), head, rest in _key_layout(c.tree):
        if rest:
            # the references -> (inf, 0, 1); the head already holds their text
            to_frame = frame(pts[a], pts[b], pts[d])
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

