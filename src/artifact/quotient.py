"""Equivalence relations on curves carrying one extra marked point, class
keys built from chart cross-ratio tuples, and injectivity verification.

Quotient classes are handled through representatives: two curves are
related at a label rho when they are equal up to vertex relabeling, or
share the same stabilized base curve and both lie in the boundary locus
attached to rho.  The class key pairs the base curve's canonical
serialization with the exact chart values, including the extended
quadruple at a canonically chosen vertex; equal keys are expected to
characterize the closure classes inside the chart domain.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .charts import (ChartDomainError, a_gamma, extended_basis,
                     near_vertices)
from .curves import (StableCurve, _derive, _edge_slot, _Gather, cross_ratio_q,
                     forget, in_D_tilde, in_divisor, moduli_key, sample_curve,
                     slot_layout)
from .exactfield import PP_INF, PP_ZERO, GaussRat, ProjPoint, finite_point, randbelow
from .strata import (_labels, build_a_ell, build_a_ell_real, is_admissible,
                     order_key)
from .trees import (MarkedTree, TreeError, _mark_bits, _marks_of_mask, bar_mark,
                    canonical_form, canonical_vertex_order, mark_key, sort_marks)


class QuotientError(Exception):
    pass


# ---------------------------------------------------------------------------
# bases and relations

def extra_marks(t: MarkedTree) -> List:
    """The last mark (or conjugate pair) of a curve with one extra point."""
    if t.is_real:
        return ["%d+" % t.l, "%d-" % t.l]
    return [t.l]


def _next_marks(t: MarkedTree) -> List:
    """The mark (or conjugate pair) that a curve over t adds to t's marks."""
    l1 = t.l + 1
    return ["%d+" % l1, "%d-" % l1] if t.is_real else [l1]


def base_of(c: StableCurve) -> StableCurve:
    """Forget the extra mark(s) and stabilize; computed once per curve.

    A curve that _place built already holds its base, the curve it
    placed the mark(s) on; any other curve forgets on first use."""
    if c._base is None:
        drop = set(extra_marks(c.tree))
        c._base = forget(c, [m for m in c.tree.mu if m not in drop])
    return c._base


def equivalent(c1: StableCurve, c2: StableCurve, rho, real: bool = False) -> bool:
    """True iff the curves are identical (up to vertex relabeling), or their
    stabilized bases coincide and both curves lie in the boundary locus of
    rho (the plain divisor for complex labels, the double-primed pushed
    forward locus for conjugate-pair labels)."""
    if bool(c1.is_real) != bool(real) or bool(c2.is_real) != bool(real):
        raise QuotientError("real flag does not match the curves")
    l = c1.tree.l - 1
    if not is_admissible(rho, l, real):
        raise QuotientError("label %r is not in the index set" % (sort_marks(rho),))
    if moduli_key(c1) == moduli_key(c2):
        return True
    rho = frozenset(rho)
    if real:
        if not (in_D_tilde(c1, rho, '"') and in_D_tilde(c2, rho, '"')):
            return False
    else:
        if not (in_divisor(c1, rho) and in_divisor(c2, rho)):
            return False
    return moduli_key(base_of(c1)) == moduli_key(base_of(c2))


def relation_labels(l: int, rho_star=(), real: bool = False) -> List[FrozenSet]:
    """The labels rho > rho* whose relations are active in the quotient,
    in order_key order.

    The labels are read off strata's label masks, as build_a_ell and
    build_a_ell_real read them, and not through those two, which are
    called only to raise StrataError for too small an l: perfbench's
    tracer counts their calls and checks the counts against cProfile's
    over two runs in one process, which _label_table's kept result would
    make differ.
    """
    if l < (1 if real else 3):
        (build_a_ell_real if real else build_a_ell)(l)  # raises StrataError
    cut = order_key(rho_star)
    return [frozenset(rho) for _mask, rho in _labels(l, bool(real)) if order_key(rho) > cut]


def relation_closure(samples: Sequence[StableCurve], rho_star=(),
                     real: bool = False) -> List[List[int]]:
    """Partition of sample indices under the union of the relations above
    rho*; the union of these relations is itself an equivalence relation,
    realized here by union-find."""
    n = len(samples)
    if n == 0:
        return []
    l = samples[0].tree.l - 1
    bits = samples[0].tree.mark_bits()
    label_of = _label_table(frozenset(bits), l, tuple(sort_marks(rho_star)), bool(real))

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # each sample joins the first sample with its moduli key and, for
    # each label whose locus holds it, the first sample with its base key
    # there
    first: Dict = {}
    for i, c in enumerate(samples):
        if c.tree.mark_bits() != bits or bool(c.is_real) != bool(real):
            raise QuotientError("samples must share one mark set and the real flag")
        base = moduli_key(base_of(c))
        for key in [moduli_key(c)] + [(base, label_of[mask]) for mask in c.tree.edge_of_mask()
                                      if mask in label_of]:
            j = first.setdefault(key, i)
            if j != i:
                union(j, i)

    classes: Dict[int, List[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return [sorted(v) for _k, v in sorted(classes.items())]


@functools.lru_cache(maxsize=None)
def _label_table(marks: FrozenSet, l: int, rho_star: Tuple, real: bool) -> Dict[int, FrozenSet]:
    """{mask: label} over relation_labels(l, rho_star, real), for curves
    with the given marks; built once per cut, and callers must not modify
    it.  A sample is in a label's locus when its tree has an edge with one
    of the label's masks, and distinct labels' masks never coincide (only
    real second masks hold the (l+1)- bit)."""
    bits = _mark_bits(marks)
    return {mask: r for r in relation_labels(l, rho_star, real)
            for mask in _locus_masks(bits, r, real, l + 1)}


def _locus_masks(bits: Dict, rho, real: bool, l1: int) -> Tuple[int, ...]:
    """Tail-side mark masks of the edges that put a curve with mark bits
    ``bits`` in rho's relation locus: the divisor of rho, and for a real
    label also that of rho + {(l+1)-}, as in ``in_D_tilde(c, rho, '"')``."""
    if not rho <= bits.keys():
        return ()
    mask = sum(bits[m] for m in rho)
    if not real:
        return (mask,)
    return (mask, mask | bits["%d-" % l1])


# ---------------------------------------------------------------------------
# chart domain and class keys

def excluded_labels(t: MarkedTree, v_plus: int, rho_star=()) -> List[FrozenSet]:
    """Splits seen from v_plus's side of any node, minus the admissible
    splits realized above rho*.  The boundary loci over these labels are
    removed from the chart domain of (t, v_plus)."""
    return _excluded(t, v_plus, a_gamma(t, rho_star))


def _excluded(t: MarkedTree, v_plus: int, labels) -> List[FrozenSet]:
    """The tail-side mark masks of the edges whose tail side holds v_plus,
    minus those of the a_gamma labels, as labels sorted by order_key."""
    allowed = {t.side_masks(*e)[0] for _rho, e in labels}
    bits = t.mark_bits()
    out = {side
           for marks, verts in zip(*t.split_index())
           for side, near in zip(marks, verts)
           if near >> v_plus & 1 and side not in allowed}
    return sorted((frozenset(_marks_of_mask(bits, side)) for side in out),
                  key=order_key)


@dataclass(frozen=True)
class ClassKey:
    """Exact class invariant: base serialization + chart value tuple.

    The tree identifier and the canonical rank of the chosen vertex pin the
    chart; the chart tuple pairs each quadruple (as text) with the exact
    serialized value of its cross ratio.
    """

    base: str
    tree: str
    v_rank: int
    chart: Tuple[Tuple[str, str], ...]

    def to_json(self) -> dict:
        return {
            "v": 1,
            "base": self.base,
            "tree": self.tree,
            "v_rank": self.v_rank,
            "chart": [[q, val] for q, val in self.chart],
        }


@dataclass(frozen=True)
class ChartPlan:
    """The part of a class key fixed by the base tree, rho* and the rank
    choice: the chart vertex, the excluded labels (sorted by order_key),
    the tail-side mark masks of each excluded label's locus on a curve
    over the tree (see _locus_masks) and the extended-basis quadruples,
    sorted, with their text."""

    tree: str
    v_plus: int
    v_rank: int
    excluded: Tuple[FrozenSet, ...]
    excluded_masks: Tuple[Tuple[int, ...], ...]
    quads: Tuple[Tuple[str, Tuple], ...]


def chart_plan(t: MarkedTree, rho_star=(),
               v_plus_rank: Optional[int] = None) -> ChartPlan:
    """The chart plan of base tree t at cut rho*, computed once per tree
    and kept on it, so every base on t, the tree that a verifier case
    samples on, uses it.

    Without a rank, the chart vertex is the admissible vertex of least
    canonical rank, so equal bases yield the same choice regardless of
    vertex numbering.  Raises QuotientError when no admissible vertex has
    the given rank; errors are not kept.
    """
    plans = t._chart_plans
    if plans is None:
        plans = t._chart_plans = {}
    key = (frozenset(rho_star), v_plus_rank)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _make_plan(t, *key)
    return plan


def _make_plan(t: MarkedTree, rho_star: FrozenSet,
               v_plus_rank: Optional[int]) -> ChartPlan:
    order = canonical_vertex_order(t)
    labels = a_gamma(t, rho_star)
    cands = near_vertices(t, labels)
    if v_plus_rank is None:
        v_plus = min(cands, key=lambda v: order[v])
    else:
        match = [v for v in cands if order[v] == v_plus_rank]
        if not match:
            raise QuotientError(
                "no admissible chart vertex with rank %r" % (v_plus_rank,))
        v_plus = match[0]
    excluded = tuple(_excluded(t, v_plus, labels))
    # a curve over t has t's marks and the next mark(s)
    bits = _mark_bits(frozenset(t.mu) | frozenset(_next_marks(t)))
    masks = tuple(_locus_masks(bits, rho, t.is_real, t.l + 1) for rho in excluded)
    basis = extended_basis(t, v_plus, rho_star)
    quads = sorted(set(basis.all_quadruples),
                   key=lambda q: tuple(mark_key(m) for m in q))
    return ChartPlan(canonical_form(t), v_plus, order[v_plus], excluded, masks,
                     tuple((",".join(str(m) for m in q), q) for q in quads))


def class_key(c: StableCurve, rho_star=(), real: bool = False,
              v_plus_rank: Optional[int] = None) -> ClassKey:
    """The chart tuple of the curve's class, over the tree of its base.

    The chart vertex, excluded labels and quadruples come from the chart
    plan of the base tree (see chart_plan); only the membership tests
    and the cross ratios are evaluated on the curve.  Raises
    ChartDomainError when the curve lies on an excluded boundary locus.
    """
    if bool(c.is_real) != bool(real):
        raise QuotientError("real flag does not match the curve")
    b = base_of(c)
    plan = chart_plan(b.tree, rho_star, v_plus_rank)
    edges = c.tree.edge_of_mask()
    for rho, masks in zip(plan.excluded, plan.excluded_masks):
        if any(mask in edges for mask in masks):
            raise ChartDomainError(
                "curve lies on the excluded boundary locus of rho=%r"
                % (sort_marks(rho),))
    chart = tuple((text, cross_ratio_q(c, q).serialize())
                  for text, q in plan.quads)
    return ClassKey(moduli_key(b), plan.tree, plan.v_rank, chart)


def y_membership(c: StableCurve, rho, bullet: str) -> bool:
    """Membership of a representative in the boundary pieces over rho.

    Complex curves know the plain piece (bullet "0", the divisor of rho)
    and the raised piece (bullet "+", the divisor of rho plus the extra
    mark); conjugate-pair curves delegate to the full bullet tables.
    """
    rho = frozenset(rho)
    if c.is_real:
        return in_D_tilde(c, rho, bullet)
    if bullet == "0":
        return in_divisor(c, rho)
    if bullet == "+":
        return in_divisor(c, rho | {c.tree.l})
    raise QuotientError("complex boundary pieces use bullets '+' and '0' only")


# ---------------------------------------------------------------------------
# engineered placements of the extra mark over a fixed base

# the nodes of a middle component whose two sides conjugation swaps sit
# at i and -i
_I = ProjPoint(GaussRat(0, 1))
_I_BAR = _I.conj()


def _place(c: StableCurve, sites, point: ProjPoint) -> StableCurve:
    """c with the next mark placed at sites[0], and on a real curve its
    conjugate at sites[1], the conjugate site; the first mark is at
    `point`, the second at point.conj().

    A site (v, None) is a point of component v.  A site (v, slot) splits
    a new component off v's mark or edge slot: on it the node to v is at
    infinity and the old content of the slot at 0, and v keeps the old
    position for the node.  Both sites on one node put both marks on one
    new component; its nodes are at i and -i when phi swaps the node's
    sides.

    What goes where depends only on the base tree and the sites, so it
    is planned once per (tree, sites) (see _plan_place) and replayed by
    curves._derive, which checks only the components that receive a new
    mark.  Forgetting the new mark(s) contracts every new component and
    gives back c's tree and points, so c is the result's base (see
    base_of).  Raises QuotientError when the result is not a valid curve.
    """
    out, bad = _derive(c, tuple(sites), _plan_place,
                       (point, point.conj(), PP_INF, PP_ZERO, _I, _I_BAR))
    if bad:
        raise QuotientError("bad placement: %r" % (bad,))
    out._base = c
    return out


def _plan_place(t: MarkedTree, sites: Tuple) -> _Gather:
    """The gather plan of the placement at sites on tree t (see _place):
    the base's {(vertex, slot): index} is edited as the placement edits
    coordinates, with (point, point.conj(), inf, 0, i, -i) indexed after
    the base's points."""
    lay = slot_layout(t)
    n, size = t.vertex_count, lay.offsets[-1]
    point, conj, inf, zero, i, i_bar = range(size, size + 6)
    index = {vs: k for k, vs in enumerate(zip(lay.vertex, lay.slots))}
    mu, edges = dict(t.mu), set(t.edges)
    marks = _next_marks(t)
    new: Dict = {}  # split slot -> its new component
    at = []  # the component of each new mark
    for (v, slot), m, z in zip(sites, marks, (point, conj)):
        w = v if slot is None else new.get(slot)
        if w is None:
            w = new[slot] = n + len(new)
            node = _edge_slot((v, w))
            index[v, node] = index.pop((v, slot))
            edges.add(node[1])
            if slot[0] == "m":
                mu[slot[1]] = w
                index[w, node], index[w, slot] = inf, zero
            else:
                y = sum(slot[1]) - v
                far = _edge_slot((w, y))
                edges.remove(slot[1])
                edges.add(far[1])
                index[y, far] = index.pop((y, slot))
                swap = t.is_real and t.phi[v] == y
                index[w, node], index[w, far] = (i, i_bar) if swap else (inf, zero)
        mu[m] = w
        index[w, ("m", m)] = z
        at.append(w)
    phi = None
    if t.is_real:
        phi = list(t.phi) + [at[1 - at.index(w)] for w in range(n, n + len(new))]
    try:
        return _Gather(n + len(new), edges, mu, phi, index, sorted(set(at)))
    except TreeError as e:  # e.g. both marks on one component that phi moves
        raise QuotientError("bad placement: " + str(e)[len("invalid tree: "):]) from None


def add_mark(c: StableCurve, v: int, point: ProjPoint) -> StableCurve:
    """Attach the next mark at `point` on component v (with its conjugate
    at phi(v) for real curves)."""
    t = c.tree
    if v not in range(t.vertex_count):
        raise QuotientError("no vertex %r" % (v,))
    sites = [(v, None)]
    if t.is_real:
        sites.append((t.phi[v], None))
    return _place(c, sites, point)


def bubble_at_mark(c: StableCurve, m, point: ProjPoint) -> StableCurve:
    """Replace the marked point m by a bubble carrying m and the next mark.

    The bubble's node sits at the old position of m; on the bubble the node
    is at infinity, m at zero and the new mark at `point`.  Real curves get
    the conjugate bubble at the conjugate mark.
    """
    t = c.tree
    if m not in t.mu:
        raise QuotientError("no mark %r" % (m,))
    if point in (PP_ZERO, PP_INF):
        raise QuotientError("bubble position must avoid the node and m")
    sites = [(t.mu[m], ("m", m))]
    if t.is_real:
        sites.append((t.mu[bar_mark(m)], ("m", bar_mark(m))))
    return _place(c, sites, point)


def mark_at_node(c: StableCurve, e, point: ProjPoint) -> StableCurve:
    """Insert the next mark on a new component separating the two sides of
    the node e; `point` is its position on the middle component."""
    t = c.tree
    e = tuple(sorted(e))
    if e not in set(t.edges):
        raise QuotientError("no edge %r" % (e,))
    u, x = e
    sites = [(u, ("e", e))]
    if t.is_real:
        sites.append((t.phi[u], _edge_slot((t.phi[u], t.phi[x]))))
    return _place(c, sites, point)


def _rand_pos(rng: random.Random, bound: int) -> ProjPoint:
    # nonzero imaginary part keeps the position legal in every real
    # configuration (conjugate-distinct) and is harmless for complex ones;
    # a in [-bound, bound], b, c and d in [1, bound]
    a, b = randbelow(rng, 2 * bound + 1) - bound, randbelow(rng, bound) + 1
    c, d = randbelow(rng, bound) + 1, randbelow(rng, bound) + 1
    return finite_point(a * d, c * b, b * d)


def fiber_samples(base: StableCurve, rng: random.Random, per_site: int = 2,
                  bound: int = 40) -> List[StableCurve]:
    """Extra-mark placements over one fixed base: generic positions on each
    component, bubbles at each mark, and insertions at each node.  These
    exercise every boundary case of the injectivity arguments."""
    t = base.tree
    out: List[StableCurve] = []

    def attempt(build):
        for _try in range(40):
            try:
                out.append(build(_rand_pos(rng, bound)))
                return
            except QuotientError:
                continue

    for v in range(t.vertex_count):
        for _ in range(per_site):
            attempt(lambda p, v=v: add_mark(base, v, p))
    for m in sort_marks(t.mu.keys()):
        for _ in range(per_site):
            attempt(lambda p, m=m: bubble_at_mark(base, m, p))
    seen = set()
    for e in t.edges:
        if e in seen:
            continue
        if t.is_real:
            seen.add(tuple(sorted((t.phi[e[0]], t.phi[e[1]]))))
        for _ in range(per_site):
            attempt(lambda p, e=e: mark_at_node(base, e, p))
    return out


# ---------------------------------------------------------------------------
# injectivity verification

def verify_injectivity(t: MarkedTree, rho_star=(), v_plus: Optional[int] = None,
                       n_samples: int = 200, seed=0, real: bool = False,
                       bound: int = 40) -> dict:
    """Sample extra-mark curves over bases with dual tree t, close the
    relations above rho*, and compare closure classes against class keys.

    A closure class is compared only when every member passes the chart
    domain check; classes touching an excluded locus are counted and
    skipped, since the removed loci are saturated under the relations.
    A v_plus outside the admissible vertex set raises QuotientError,
    naming the seed, the tree and rho*, before any curve is sampled.
    """
    if bool(t.is_real) != bool(real):
        raise QuotientError("real flag does not match the tree")
    case = "seed %r, tree %s, rho_star %r" % (
        seed, canonical_form(t), [str(m) for m in sort_marks(rho_star)])
    try:
        v_rank = None
        if v_plus is not None:
            v_rank = canonical_vertex_order(t).get(v_plus)
            if v_rank is None:
                raise QuotientError("v_plus=%r is not a vertex" % (v_plus,))
        plan = chart_plan(t, rho_star, v_rank)
    except QuotientError as e:
        raise QuotientError("%s: %s" % (case, e)) from None
    rng = random.Random("%r:quotient" % (seed,))

    samples: List[StableCurve] = []
    base_idx = 0
    while len(samples) < n_samples:
        base = sample_curve(t, bound, (str(seed), "base", base_idx))
        base_idx += 1
        samples.extend(fiber_samples(base, rng, per_site=2, bound=bound))
        if base_idx > 200:
            raise QuotientError("%s: could not build enough samples" % (case,))

    classes = relation_closure(samples, rho_star, real=real)

    keys: List[Optional[ClassKey]] = []
    for c in samples:
        try:
            keys.append(class_key(c, rho_star, real=real, v_plus_rank=v_rank))
        except ChartDomainError:
            keys.append(None)

    cases: List[dict] = []
    in_classes: List[List[int]] = []
    skipped = 0
    for cls in classes:
        if all(keys[i] is not None for i in cls):
            in_classes.append(cls)
        else:
            skipped += 1

    intra = 0
    collisions = 0
    key_to_class: Dict[ClassKey, int] = {}
    for ci, cls in enumerate(in_classes):
        ks = {keys[i] for i in cls}
        if len(ks) > 1:
            intra += 1
            cases.append({
                "type": "intra_class_key_split",
                "members": cls[:6],
                "distinct_keys": len(ks),
            })
        for k in ks:
            if k in key_to_class and key_to_class[k] != ci:
                collisions += 1
                cases.append({
                    "type": "key_collision_across_classes",
                    "classes": [key_to_class[k], ci],
                })
            key_to_class.setdefault(k, ci)

    return {
        "v": 1,
        "l": t.l,
        "real": bool(real),
        "rho_star": [str(m) for m in sort_marks(rho_star)],
        "tree": plan.tree,
        "v_plus_rank": v_rank,
        "samples": len(samples),
        "in_domain": sum(1 for k in keys if k is not None),
        "classes": len(in_classes),
        "classes_out_of_domain": skipped,
        "key_collisions_across_classes": collisions,
        "intra_class_key_splits": intra,
        "cases": cases,
    }
