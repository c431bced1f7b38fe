"""Exact stable nodal marked curves.

A curve is a tree of projective lines: each vertex of the dual graph
carries coordinates for its marks and for the node of every incident
edge.  A node is stored twice, once on each of the two components it
joins; no global coordinate exists on a nodal curve.  A curve holds its
coordinates as one tuple of point keys (p, q, d) (see exactfield),
numbered by its tree's slot layout; a ProjPoint is built only where a
point leaves the curve (coords, to_json, cross_ratio_q).
"""

from __future__ import annotations

import json
import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from .exactfield import (PP_INF, PP_ONE, PP_ZERO, ProjPoint, _cross, _frame, _point,
                         _reduced, point_text)
from .strata import classify_real, is_admissible, stratum_edge
from .trees import (MarkedTree, RealMarkedTree, bar_mark, canonical_form,
                    canonical_vertex_order, real_marks, sort_marks, tree_from_json)


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

    Slots go vertex by vertex: its own marks in bit order (mark_key
    order), then one edge slot per branch, by neighbour.  The layout is
    built from the branch mark masks of the tree's split-mask index
    alone: a vertex has popcount(own marks) + degree slots, its own marks
    being the bits in none of its branches, and the slots of v are
    offsets[v]:offsets[v + 1].  rows[v] lists in bit order the index
    through which v sees each mark (the mark's own slot at its vertex,
    else the edge into the mark's branch): each bit of branch j maps to
    v's edge slot j.  offsets and rows are all that sampling, validation
    and quad_plan read, and all that a layout builds at construction.

    slots[i], the name of slot i (("m", mark) or ("e", (u, v)), interned
    in _SLOTS so that the layouts of all trees share them), and
    vertex[i], its vertex, are built on first read, from the rows and
    the tree's adjacency, mu and mark bits, which the layout keeps in
    place of the tree.  On a real tree they are built at construction, since
    partner needs them: partner[i] is the index of the conjugate of slot
    i (the conjugate mark where it sits, or the image of the edge at
    phi(v)), i itself for a self-conjugate slot.

    The layout also keeps, each filled on first use, what is derived from
    its tree alone: key_layout (see _key_layout), the gather plans
    (gathers, see _derive) and the quotient's chart_plans, chart_slots,
    fiber_sites and labels (the relation labels whose loci hold a curve
    over the tree, per label table; see quotient.relation_closure).  A
    gather plan holds its output tree, so a tree keeps the trees derived
    from it (placed or stabilized) for as long as it lives; no layout
    refers to its own tree, so they all go with the last reference to it.
    """

    partner: Optional[Tuple[int, ...]] = None
    # filled on first use
    key_layout: Optional[Tuple] = None
    fiber_sites: Optional[Tuple] = None
    labels: Optional[Dict] = None

    def __init__(self, t: MarkedTree):
        self._adj, self._mu, self._bits = t.adjacency(), t.mu, t.mark_bits()
        n = len(self._bits)
        full = (1 << n) - 1
        offsets = [0]
        rows = []
        for sides in t.split_index()[0]:
            own = full
            for side in sides:
                own ^= side
            i = offsets[-1]
            edge = i + own.bit_count()  # v's edge slots follow its own marks
            offsets.append(edge + len(sides))
            row = [0] * n
            while own:
                low = own & -own
                row[low.bit_length() - 1] = i
                own ^= low
                i += 1
            for side in sides:
                while side:
                    low = side & -side
                    row[low.bit_length() - 1] = edge
                    side ^= low
                edge += 1
            rows.append(tuple(row))
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self.rows: Tuple[Tuple[int, ...], ...] = tuple(rows)
        self.gathers: Dict = {}
        self.chart_plans: Dict = {}
        self.chart_slots: Dict = {}
        if t.is_real:
            vertex, slots = self.vertex, self.slots  # partner needs the names
            index = {vs: i for i, vs in enumerate(zip(vertex, slots))}
            mu, phi = t.mu, t.phi
            self.partner = tuple([
                index[mu[bar_mark(x)], ("m", bar_mark(x))] if kind == "m"
                else index[phi[v], _edge_slot((phi[x[0]], phi[x[1]]))]
                for v, (kind, x) in zip(vertex, slots)])

    # filled on first read; properties, since writing a cached value into
    # the instance __dict__ makes every later attribute read slower
    _slots: Optional[Tuple[Slot, ...]] = None
    _vertex: Optional[Tuple[int, ...]] = None

    @property
    def slots(self) -> Tuple[Slot, ...]:
        """Each mark at its row entry on its own vertex, each edge after
        its vertex's marks, by neighbour."""
        if self._slots is None:
            off, rows, mu = self.offsets, self.rows, self._mu
            slots: List[Slot] = [None] * off[-1]
            for v, nbrs in enumerate(self._adj):
                slots[off[v + 1] - len(nbrs):off[v + 1]] = [_edge_slot((v, w)) for w in nbrs]
            for m, b in self._bits.items():
                slots[rows[mu[m]][b.bit_length() - 1]] = _mark_slot(m)
            self._slots = tuple(slots)
        return self._slots

    @property
    def vertex(self) -> Tuple[int, ...]:
        if self._vertex is None:
            off = self.offsets
            self._vertex = tuple([v for v in range(len(off) - 1)
                                  for _ in range(off[v + 1] - off[v])])
        return self._vertex


def slot_layout(t: MarkedTree) -> SlotLayout:
    if t._layout is None:
        t._layout = SlotLayout(t)
    return t._layout


class StableCurve:
    """tree + one tuple of point keys, numbered by the tree's slot layout.

    Every curve is a stable curve: each component has three or more
    pairwise distinct special points (every tree is valid, so each
    component has three or more slots) and, on a real tree, the points
    are conjugation-symmetric.  The dict constructor checks this in
    full; the other builders keep it (sample_curve checks what it
    draws, _derive checks what it gathers and conjugate_curve maps a
    curve to a curve).

    A curve is not mutated after construction (its tree and points are
    fixed), so what is derived from it is kept on first use: its
    moduli_tuple and its stabilized base (see quotient.base_of),
    which a curve built by placing the extra mark(s) on a base holds
    from the start and any other curve gets by forgetting them.  What
    depends only on the tree is kept on the tree: its edge table, and on
    its slot layout the moduli-key layout and the gather plans.
    """

    # filled on first use
    _moduli_key: Optional[Tuple] = None
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
        bad = []
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
                    bad += _vertex_problems(v, [z._k for z in coords[v].values()])
        if not bad:
            self.points = tuple([coords[v][s]._k for v, s in zip(lay.vertex, lay.slots)])
            if tree.is_real:
                bad = self._validate_real()
        if bad:
            raise CurveError("invalid curve: %r" % (bad,))

    @classmethod
    def _of(cls, tree: MarkedTree, points: Tuple[Tuple[int, int, int], ...]) -> "StableCurve":
        """The curve with the given point keys, in the tree's slot order;
        the caller checks them."""
        c = cls.__new__(cls)
        c.tree = tree
        c.points = points
        return c

    @property
    def coords(self) -> Dict[int, Dict[Slot, ProjPoint]]:
        """A fresh {vertex: {slot: ProjPoint}} copy of the coordinates,
        each vertex's slots in layout order; changing it leaves the curve
        as it is."""
        lay, pts = slot_layout(self.tree), self.points
        return {v: dict(zip(lay.slots[a:b], map(_point, pts[a:b])))
                for v, (a, b) in enumerate(zip(lay.offsets, lay.offsets[1:]))}

    @property
    def is_real(self) -> bool:
        return self.tree.is_real

    def validate(self) -> List[str]:
        """What makes the points no stable curve on the tree, [] for none."""
        t = self.tree
        off = slot_layout(t).offsets
        bad: List[str] = []
        for v, (a, b) in enumerate(zip(off, off[1:])):
            bad += _vertex_problems(v, self.points[a:b])
        if not bad and t.is_real:
            bad = self._validate_real()
        return bad

    def _validate_real(self) -> List[str]:
        """Each conjugate pair is checked once: conjugation maps the key
        (p, q, d) to (p, -q, d).  On a failure both slots of every failing
        pair are reported, in slot order."""
        pts = self.points
        fails = set()
        lay = slot_layout(self.tree)
        for i, j in enumerate(lay.partner):
            if j >= i:
                p, q, d = pts[i]
                if pts[j] != (p, -q, d):
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


def _vertex_problems(v: int, keys) -> List[str]:
    """What is wrong with the point keys of component v."""
    if len(set(keys)) != len(keys):
        return ["vertex %d: special points not pairwise distinct" % v]
    return []


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
    """How to build a curve from the point keys of a curve on one tree
    (see _derive), made from the output tree's vertex count, edges, mu
    and phi (None on a complex tree), a {(vertex, slot): index} map and
    the output vertices to check.

    tree is the output tree, built and checked once, when the plan is
    made (an invalid one raises its TreeError there); every curve of the
    plan shares it, and it lives as long as the plan, so its slot layout,
    moduli-key layout and edge table are computed once.  gather[i] is the
    index, in the input keys followed by the caller's extra keys, of the
    key that the output takes for its slot i.  ranges holds the
    slot ranges of the vertices to check.
    """

    __slots__ = ("tree", "gather", "ranges")

    def __init__(self, vertex_count: int, edges, mu: Dict, phi, index: Dict, check=()):
        if phi is None:
            self.tree = MarkedTree(vertex_count, edges, mu)
        else:
            self.tree = RealMarkedTree(vertex_count, edges, mu, phi)
        lay = slot_layout(self.tree)
        self.gather = tuple([index[vs] for vs in zip(lay.vertex, lay.slots)])
        self.ranges = tuple((lay.offsets[w], lay.offsets[w + 1]) for w in check)


def _derive(c: StableCurve, key, plan_fn, extra: Tuple = ()) -> Tuple[StableCurve, List[str]]:
    """(the curve that the gather plan of c's tree at key builds from
    c's point keys followed by the keys extra, what is wrong with it).

    plan_fn(tree, key) makes the plan on first use, kept in the gather
    plans of the tree's slot layout; errors are not kept.  c is a valid
    curve, so only the plan's ranges are checked; when one fails, the
    output is validated in full for the list."""
    t = c.tree
    plans = (t._layout or slot_layout(t)).gathers
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = plan_fn(t, key)
    pts = c.points + extra
    new = tuple([pts[i] for i in plan.gather])
    out = StableCurve._of(plan.tree, new)
    for a, b in plan.ranges:
        if len(set(new[a:b])) != b - a:
            return out, out.validate()
    return out, []


# ---------------------------------------------------------------------------
# forgetful map with stabilization

def forget(c: StableCurve, keep) -> StableCurve:
    """Forget the marks outside keep and stabilize.

    The stabilization depends only on the tree and keep, so it is planned
    once per (tree, kept marks) and replayed by _derive.  It checks no
    points: a component that survives keeps some of the distinct points
    of one component.
    """
    return _derive(c, frozenset(keep), _plan_forget)[0]


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

    Agrees with the cross ratio of the 4-marked stabilization: the one
    quadruple's case of quad_plan and quad_keys.  Raises CurveError for
    a q that is not four distinct marks of the curve.
    """
    if type(q) is not tuple:
        q = tuple(q)
    bits = c.tree.mark_bits()
    try:
        a, b, x, y = q
        a, b, x, y = bits[a], bits[b], bits[x], bits[y]
    except (ValueError, KeyError, TypeError):
        a = b = x = y = 0
    if (a | b | x | y).bit_count() != 4:
        _bad_quadruple(q, bits)
    return _point(quad_keys(quad_plan(c.tree, quad_positions(bits, [q])), c.points)[0])


_ZERO_K, _ONE_K, _INF_K = PP_ZERO._k, PP_ONE._k, PP_INF._k


def split_key(a: int, b: int, x: int, y: int):
    """The point key of CR_q at the slots (a, b, x, y) that quad_plan
    projects q to, when two of them coincide, else None: 1 if a = b or
    x = y, 0 if a = x or b = y, inf if a = y or b = x.

    The projection has three or more distinct slots, and two coincide
    exactly when an edge splits q 2|2, so this is the value that
    exactfield._cross computes from a curve's points there; it depends
    on the tree alone.
    """
    if a == b or x == y:
        return _ONE_K
    if a == x or b == y:
        return _ZERO_K
    if a == y or b == x:
        return _INF_K
    return None


def quad_positions(bits: Dict, quads) -> List[Tuple[int, ...]]:
    """The bit positions in bits (a tree's mark_bits()) of the marks of
    each quadruple, in order: the input of quad_plan."""
    return [tuple([bits[m].bit_length() - 1 for m in q]) for q in quads]


def quad_plan(t: MarkedTree, positions) -> Tuple[Tuple, Tuple]:
    """The plan (read, computed) of the cross ratios CR_q on curves over
    t, for each q given as the bit positions (quad_positions) of its four
    distinct marks.

    Each q projects to the slots through which the first component, in
    layout order, that separates three or more of its marks sees them.
    read holds, in q's order, the key that split_key reads off those
    slots (None where the four are distinct), and computed lists
    (index, a, b, x, y) for each q with four distinct slots a, b, x, y.
    One scan of the slot layout's rows per q; quad_keys evaluates the
    plan on a curve's points.
    """
    rows = slot_layout(t).rows
    read, computed = [], []
    for p, (i, j, k, n) in enumerate(positions):
        for row in rows:
            a, b, x, y = row[i], row[j], row[k], row[n]
            if len({a, b, x, y}) >= 3:
                break
        else:
            raise CurveError("no component separates three of the marks")  # unreachable
        key = split_key(a, b, x, y)
        read.append(key)
        if key is None:
            computed.append((p, a, b, x, y))
    return tuple(read), tuple(computed)


def quad_keys(plan: Tuple[Tuple, Tuple], pts) -> List[Tuple[int, int, int]]:
    """The point keys of the quadruples of a quad_plan on a curve with
    point keys pts (StableCurve.points), in the plan's order: the read
    keys, and exactfield._cross at the slots of the others."""
    read, computed = plan
    keys = list(read)
    for p, a, b, x, y in computed:
        keys[p] = _cross(pts[a], pts[b], pts[x], pts[y])
    return keys


def _bad_quadruple(q: Tuple, bits: Dict) -> None:
    """Raise the error of a q that is not four distinct marks of the
    curve: the first of a wrong length or a repeat, then a mark not on
    the curve."""
    if len(q) != 4 or len(set(q)) != 4:
        raise CurveError("cross ratio needs 4 distinct marks")
    for m in q:
        if m not in bits:
            raise CurveError("mark %r not on the curve" % (m,))


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

def _rand_point(rng: random.Random, bound: int, real_only=False) -> Tuple[int, int, int]:
    # the key of a point; infinity shows up with small probability so
    # charts get exercised there; p and q in [-bound, bound], d and e in
    # [1, bound], for bound >= 1.  Each draw is exactfield.randbelow's, made inline: the
    # same getrandbits calls in the same order, so the stream is the same
    bits = rng.getrandbits
    r = bits(4)
    while r >= 12:
        r = bits(4)
    if r == 0:
        return _INF_K
    width = 2 * bound + 1
    kw, kb = width.bit_length(), bound.bit_length()
    p = bits(kw)
    while p >= width:
        p = bits(kw)
    d = bits(kb)
    while d >= bound:
        d = bits(kb)
    if real_only:
        return _reduced(p - bound, 0, d + 1)
    q = bits(kw)
    while q >= width:
        q = bits(kw)
    e = bits(kb)
    while e >= bound:
        e = bits(kb)
    p, d, q, e = p - bound, d + 1, q - bound, e + 1
    # p/d + (q/e)*i = (p*e + q*d*i) / (d*e)
    return _reduced(p * e, q * d, d * e)


def sample_curve(t: MarkedTree, bound: int, seed) -> StableCurve:
    """Deterministic random curve with the given dual graph.

    Coordinate magnitudes are bounded by `bound`; real trees receive
    conjugation-symmetric coordinates by construction.  The points are
    redrawn, up to 200 times, until each component's are pairwise
    distinct; that check is the curve's validation, and a real curve is
    also checked for conjugation symmetry (_validate_real).  A list seed
    counts as a tuple, and so does every list in it, so a seed read back
    from a JSON report draws the curve that the report names.
    """
    if bound < 2:
        raise CurveError("bound too small")
    if type(seed) is list:
        seed = _tuples(seed)
    rng = random.Random(repr(seed))
    lay = slot_layout(t)
    off = lay.offsets
    n = off[-1]
    real = t.is_real
    for _attempt in range(200):
        if real:
            # each conjugate pair is drawn at its first slot
            pts: List[Tuple[int, int, int]] = [_INF_K] * n
            for i, j in enumerate(lay.partner):
                if j == i:
                    pts[i] = _rand_point(rng, bound, True)
                elif j > i:
                    p, q, d = pts[i] = _rand_point(rng, bound)
                    pts[j] = (p, -q, d)
        else:
            pts = [_rand_point(rng, bound) for _ in range(n)]
        # this check is the distinctness half of validate, so only a real
        # curve is validated further, for conjugation symmetry
        if all(len(set(pts[a:b])) == b - a for a, b in zip(off, off[1:])):
            c = StableCurve._of(t, tuple(pts))
            bad = c._validate_real() if real else []
            if bad:
                raise CurveError("%s: sampled invalid curve: %r" % (_case(t, seed), bad))
            return c
    raise CurveError("%s: bound too small to fit distinct special points"
                     % (_case(t, seed),))


def _tuples(seed):
    """seed with each list in it, at any depth, made a tuple."""
    if type(seed) is list or type(seed) is tuple:
        return tuple([_tuples(x) for x in seed])
    return seed


def _case(t: MarkedTree, seed) -> str:
    """The seed and the tree, by its canonical form, of a sampling
    failure, for its message."""
    return "seed %r, tree %s" % (seed, canonical_form(t))


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
    was, conj = slot_layout(t), [(p, -q, d) for p, q, d in c.points]
    old = {vs: i for i, vs in enumerate(zip(was.vertex, was.slots))}
    lay = slot_layout(nt)
    return StableCurve._of(nt, tuple([
        conj[old[v, ("m", bar_mark(s[1])) if s[0] == "m" else s]]
        for v, s in zip(lay.vertex, lay.slots)]))


# ---------------------------------------------------------------------------
# canonical key

def moduli_key(c: StableCurve) -> str:
    """Canonical serialization of the isomorphism class of the curve.

    Each component is normalized by the unique Mobius map sending its first
    three special points (in canonical slot order) to infinity, zero and
    one, so equal strings mean equal points of the moduli space.  In
    particular a component with exactly three special points contributes no
    coordinate data, as it has no moduli.  Rendered from moduli_tuple.
    """
    return key_text(moduli_tuple(c))


def moduli_tuple(c: StableCurve) -> Tuple:
    """The moduli key as (shape, key of each framed value), equal exactly
    when the moduli_key strings are; computed once per curve."""
    if c._moduli_key is None:
        pts, t = c.points, c.tree
        shape, frames = (t._layout or slot_layout(t)).key_layout or _key_layout(t)
        key = [shape]
        for (a, b, d), rest in frames:
            # the references -> (inf, 0, 1); the shape already holds their text
            to_frame = _frame(pts[a], pts[b], pts[d])
            key += [to_frame(pts[i]) for i in rest]
        c._moduli_key = tuple(key)
    return c._moduli_key


def key_text(key: Tuple) -> str:
    """The moduli_key string of a moduli_tuple: its shape with the text
    of each framed value written in."""
    return key[0] % tuple([point_text(k) for k in key[1:]])


# the text of inf, 0 and 1, where a component's frame sends its references
_REF_TEXTS = (PP_INF.serialize(), PP_ZERO.serialize(), PP_ONE.serialize())


def _key_layout(t: MarkedTree) -> Tuple:
    """What moduli_tuple reads off the tree, kept on its slot layout:
    (shape, frames).
    Vertices and their slots are in canonical order: marks first in
    mark_key order, then edges by the rank of the neighbour; each is
    written "m<mark>=" or "e<rank>-<rank>=" and its framed value.  The
    first three, the references, frame to inf, 0 and 1 whatever the
    coordinates, so the shape is the text "v<rank>{<ref>=inf;...}" of
    the vertices, joined by "|", with "%s" for each later slot's value;
    frames lists (reference indices, later slot indices) per vertex with
    later slots.  No mark's text holds a "%": mark_key rejects it."""
    lay = slot_layout(t)
    if lay.key_layout is None:
        order = canonical_vertex_order(t)
        bits = t.mark_bits()  # bit order is mark_key order
        parts, frames = [], []
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
            texts = [text + ref for text, ref in zip(texts, _REF_TEXTS)] + [
                text + "%s" for text in texts[3:]]
            parts.append("v%d{%s}" % (order[v], ";".join(texts)))
            if idx[3:]:
                frames.append((tuple(idx[:3]), tuple(idx[3:])))
        lay.key_layout = ("|".join(parts), tuple(frames))
    return lay.key_layout
