"""Coordinate bases attached to a marked tree and exact reconstruction of
all cross ratios from basis values.

A basis consists of one quadruple per extra unit of valence at each
vertex plus one quadruple per edge, l-3 in total.  It is read off the
tree's split-mask index under the systematic marking, which sends each
oriented edge to the least mark beyond it; there is no marking
parameter.  [Gamma]_v is the mask of v's own marks and the lowest bit of
each branch mask at v, and the quadruple (i, j, k, m) of an edge (u, w),
u < w, takes i and j as the least marks on the u and w sides, k as the
next [Gamma]_u mark on the u side and m as the next [Gamma]_w mark on the
w side.  Reconstruction seeds
each vertex with normalized local coordinates (first three basis marks at
infinity, 0, 1) and grows the set of known 4-point values by the cocycle
relation CR_{ijkn} = CR_{ijkm} * CR_{ijmn}, skipping routes whose two
factors are 0 and inf, an indeterminate product.  Failure to determine a
value signals a point outside the chart domain.

The table runs on point keys (p, q, d) through the exactfield kernel:
the vertex models are keys, their cross ratios are exactfield._cross,
the anharmonic maps take keys to keys and the closure multiplies with
exactfield._pmul.  A table takes ProjPoint basis values and builds a
ProjPoint only in value(q); value_key(q) reads the key itself.  The basis
values and the direct keys that the basis check (cli.verify_basis_suite)
compares with the table's come from curves.quad_plan and quad_keys: read
where an edge splits the quadruple 2|2, computed with exactfield._cross
elsewhere.

The routes depend on the number of marks alone: `_routes(n)` lists for
each 4-bit mask K its 6 * (n - 4) routes, one per unordered pair {i, j}
in K and mark m outside K, as the two factor masks and the anharmonic
maps between increasing bit order and the orderings the relation uses.
After the vertex seeds and the edge values, the closure passes over the
masks still unknown until a pass fills nothing.  A step whose two
factors are both 0, 1 or inf is read from the route's 3x3 step table
(`_step_table`, built from the route's own maps and shared per map
triple; `_steps(n)`, kept per n, pairs each route with its table, so
`_routes(n)` is built once per n), and any other step is computed: its
product is never 0 * inf, since the anharmonic maps keep 0, 1 and inf
among themselves.  Every filled value is the true cross ratio, and
whether a route applies depends only on its two factor values, so the
known masks are the least fixpoint of the routes: the fill order changes
no value and no known set.  At the verify guardrail, 12 marks (real
l = 6), the table has 495 masks and 23,760 routes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from .curves import quad_keys, quad_plan, quad_positions
from .exactfield import (PP_INF, PP_ONE, PP_ZERO, ProjPoint, UnstableConfiguration,
                         _cross, _normal, _one_minus, _pinv, _pmul, _point)
from .strata import _admissible, _universe, order_key
from .trees import (MarkedTree, _marks_of_mask, bar_mark, sort_marks,
                    split_marks)


class ChartError(Exception):
    pass


class ChartDomainError(ChartError):
    """The supplied values do not lie in the chart's domain."""


# ---------------------------------------------------------------------------
# bases

@dataclass
class ChartBasis:
    gamma_v: Dict[int, List]
    vertex_quads: Dict[int, List[Tuple]]
    edge_quads: Dict[Tuple[int, int], Tuple]
    extension: List[Tuple] = field(default_factory=list)

    @property
    def quadruples(self) -> List[Tuple]:
        out = []
        for v in sorted(self.vertex_quads):
            out.extend(self.vertex_quads[v])
        for e in sorted(self.edge_quads):
            out.append(self.edge_quads[e])
        return out

    @property
    def all_quadruples(self) -> List[Tuple]:
        return self.quadruples + list(self.extension)

    def to_json(self) -> dict:
        return {
            "v": 1,
            "vertex_quadruple_pattern": "i1,i2,i3,ir (degenerate printed form corrected)",
            "gamma_v": {str(v): [str(m) for m in ms] for v, ms in self.gamma_v.items()},
            "vertex_quads": {str(v): [[str(m) for m in q] for q in qs]
                             for v, qs in self.vertex_quads.items()},
            "edge_quads": {"%d-%d" % e: [str(m) for m in q]
                           for e, q in self.edge_quads.items()},
            "extension": [[str(m) for m in q] for q in self.extension],
        }


def gamma_basis(t: MarkedTree) -> ChartBasis:
    """The basis of cross-ratio coordinates attached to t under the
    systematic marking, which sends each oriented edge to the least mark
    beyond it: the lowest set bit of that branch's mark mask.  Each mark
    is read off t.marks() by its bit position."""
    marks = t.marks()  # marks[b] has bit 1 << b
    full = (1 << len(marks)) - 1
    index = t.split_index()[0]
    gamma: List[int] = []  # [Gamma]_v as a mark mask
    gamma_v: Dict[int, List] = {}
    vertex_quads: Dict[int, List[Tuple]] = {}
    for v, sides in enumerate(index):
        mask = full
        for side in sides:
            mask ^= side ^ (side & -side)  # keep only the branch's least mark
        gamma.append(mask)
        ms = gamma_v[v] = []
        while mask:
            low = mask & -mask
            ms.append(marks[low.bit_length() - 1])
            mask ^= low
        vertex_quads[v] = [(ms[0], ms[1], ms[2], ms[r]) for r in range(3, len(ms))]

    # each edge (u, w), u < w, oriented with the smaller index as the near
    # vertex: u's branch mask towards w is the far side.  Vertices ascending
    # and neighbours ascending give the edges in t.edges order.
    edge_quads: Dict[Tuple[int, int], Tuple] = {}
    for u, (nbrs, sides) in enumerate(zip(t.adjacency(), index)):
        for w, far in zip(nbrs, sides):
            if w < u:
                continue
            near = full ^ far
            i, j = near & -near, far & -far
            k, m = gamma[u] & near & ~i, gamma[w] & far & ~j
            if not k or not m:
                raise ChartError("cannot complete edge quadruple at %r" % ((u, w),))
            edge_quads[u, w] = (marks[i.bit_length() - 1], marks[j.bit_length() - 1],
                                marks[(k & -k).bit_length() - 1],
                                marks[(m & -m).bit_length() - 1])
    return ChartBasis(gamma_v, vertex_quads, edge_quads)


def basis_values(curve, basis: ChartBasis) -> Dict[Tuple, ProjPoint]:
    """Evaluate every basis quadruple on a curve, by one curves.quad_plan
    of them all on its tree."""
    quads = basis.all_quadruples
    plan = quad_plan(curve.tree, quad_positions(curve.tree.mark_bits(), quads))
    return {q: _point(k) for q, k in zip(quads, quad_keys(plan, curve.points))}


# ---------------------------------------------------------------------------
# reconstruction

# CR of ref reordered to (ref[s0], ref[s1], ref[s2], ref[s3]) as a function of
# x = CR_ref.  Orderings that start with ref[0] give the six anharmonic maps;
# the double transpositions of positions fix the cross ratio and carry each
# of the 24 orderings to one of these.  Each map is one integer formula from
# the key (p, q, d) of x = [p + q*i : d] to the key of its value (1/x and
# 1-x are exactfield._pinv and _one_minus); no pair below is [0 : 0], so
# each map is exact at 0, 1 and inf.


def _recip_one_minus(x):
    p, q, d = x
    return _normal(d, 0, d - p, -q)  # 1/(1-x) = [d : d-p-qi]


def _one_minus_recip(x):
    p, q, d = x
    return _normal(p - d, q, p, q)  # (x-1)/x = [p-d+qi : p+qi]


def _over_x_minus_one(x):
    p, q, d = x
    return _normal(p, q, p - d, q)  # x/(x-1) = [p+qi : p-d+qi]


_ANHARMONIC = {
    (0, 1, 2, 3): lambda x: x,
    (0, 1, 3, 2): _pinv,                        # 1/x = [d : p+qi]
    (0, 2, 1, 3): _one_minus,                   # 1-x = [d-p-qi : d]
    (0, 2, 3, 1): _recip_one_minus,             # 1/(1-x)
    (0, 3, 1, 2): _one_minus_recip,             # (x-1)/x
    (0, 3, 2, 1): _over_x_minus_one,            # x/(x-1)
}
_KLEIN = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_PERMUTED = {tuple(s[k] for k in v): f
             for s, f in _ANHARMONIC.items() for v in _KLEIN}


def _perm(ref: Tuple, q: Tuple):
    """The anharmonic map taking the key of CR_ref to the key of CR_q, for
    a reordering q of ref; exact on all of the projective line, including
    0, 1 and inf."""
    return _PERMUTED[tuple(ref.index(x) for x in q)]


def _routes(n: int) -> Tuple[Tuple[int, Tuple[Tuple, ...]], ...]:
    """The cocycle routes for n marks (bits 0..n-1), one row (K, routes) per
    4-bit mask K.

    A route (e1, f1, e2, f2, g) stands for one unordered pair {i, j} of K,
    with k < p the other two bits of K, and one bit m outside K:
    CR_{ijkp} = CR_{ijkm} * CR_{ijmp}, with e1 = {i, j, k, m} and
    e2 = {i, j, m, p}.  Values are kept in increasing bit order, so f1 and
    f2 carry the values of e1 and e2 to the orderings (i, j, k, m) and
    (i, j, m, p), and g carries CR_{ijkp} back to K's order.  Swapping i and
    j (or k and p) inverts all three cross ratios, so the other orderings
    give no further route.  There are 6 * (n - 4) routes per mask.
    """
    rows = []
    for quad in itertools.combinations(range(n), 4):
        routes = []
        for i, j in itertools.combinations(quad, 2):
            k, p = [b for b in quad if b not in (i, j)]
            g = _perm((i, j, k, p), quad)
            for m in range(n):
                if m in quad:
                    continue
                q1, q2 = (i, j, k, m), (i, j, m, p)
                routes.append((sum(1 << b for b in q1), _perm(sorted(q1), q1),
                               sum(1 << b for b in q2), _perm(sorted(q2), q2), g))
        rows.append((sum(1 << b for b in quad), tuple(routes)))
    return tuple(rows)


_INF, _ZERO, _ONE = PP_INF._k, PP_ZERO._k, PP_ONE._k
# the position of each of the constants 0, 1 and inf in a step table
_CONSTANT = {_ZERO: 0, _ONE: 1, _INF: 2}


@functools.lru_cache(maxsize=None)
def _step_table(f1, f2, g) -> Tuple[Tuple, ...]:
    """The closure step g(f1(x1) * f2(x2)) of a route with maps f1, f2
    and g, for x1 and x2 each 0, 1 or inf: table[i][j] for the constants
    at positions i and j of _CONSTANT, None where the product is 0 * inf.
    Kept per (f1, f2, g), so routes with the same maps share one."""
    out = []
    for x1 in _CONSTANT:
        row = []
        for x2 in _CONSTANT:
            y = _pmul(f1(x1), f2(x2))
            row.append(None if y is None else g(y))
        out.append(tuple(row))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _steps(n: int) -> Tuple[Tuple[int, Tuple[Tuple, ...]], ...]:
    """The rows of _routes(n), each route with its step table appended:
    (e1, f1, e2, f2, g, _step_table(f1, f2, g))."""
    return tuple((mask, tuple([(*r, _step_table(r[1], r[3], r[4])) for r in routes]))
                 for mask, routes in _routes(n))


class ReconstructionTable:
    """Known cross-ratio values, one per 4-subset of marks.

    The table is keyed by the OR of the four marks' bits (t.mark_bits()),
    so every key has exactly four bits set; each entry is the point key
    (p, q, d) of the cross ratio of the four marks in increasing bit
    order.  value(q) builds the ProjPoint of value_key(q).
    """

    def __init__(self, t: MarkedTree, values: Dict[Tuple, ProjPoint],
                 basis: Optional[ChartBasis] = None):
        self.tree = t
        self.basis = basis if basis is not None else gamma_basis(t)
        self.values = dict(values)
        self.bits = t.mark_bits()
        self.table: Dict[int, Tuple[int, int, int]] = {}
        self._build()

    def _mask(self, q: Tuple) -> int:
        """The table key of q; it has four bits set only if q is four
        distinct marks of the tree."""
        bits = self.bits
        try:
            i, j, k, m = q
            return bits[i] | bits[j] | bits[k] | bits[m]
        except (ValueError, KeyError):  # not four marks of the tree
            return 0

    def value(self, q) -> ProjPoint:
        return _point(self.value_key(q))

    def value_key(self, q) -> Tuple[int, int, int]:
        """The point key of CR_q, or ChartDomainError when the table does
        not know it."""
        q = tuple(q)
        bits = self.bits
        try:
            i, j, k, m = q
            bi, bj, bk, bm = bits[i], bits[j], bits[k], bits[m]
        except (ValueError, KeyError):  # not four marks of the tree
            raise ChartDomainError(self._diagnose(q)) from None
        key = bi | bj | bk | bm
        val = self.table.get(key)
        if val is None:
            raise ChartDomainError(self._diagnose(q))
        if bi < bj < bk < bm:
            return val
        # the rank of a mark's bit among the four is the position of the
        # mark in the stored ordering
        return _PERMUTED[(key & (bi - 1)).bit_count(), (key & (bj - 1)).bit_count(),
                         (key & (bk - 1)).bit_count(), (key & (bm - 1)).bit_count()](val)

    def _diagnose(self, q) -> str:
        msg = "reconstruction left %r undetermined" % (sort_marks(q),)
        t = self.tree
        bad = []
        for e, qe in self.basis.edge_quads.items():
            val = self.values.get(qe)
            if val is not None and val in (PP_ZERO, PP_ONE, PP_INF):
                rho = sort_marks(split_marks(t, e))
                bad.append("edge coordinate %r degenerates on the stratum of rho=%r"
                           % (qe, rho))
        if bad:
            msg += " (point outside the chart domain: %s)" % "; ".join(bad)
        return msg

    def _build(self) -> None:
        bits, table, values, basis = self.bits, self.table, self.values, self.basis
        rank = bits.__getitem__
        # each vertex in normalized local coordinates: its first three basis
        # marks at inf, 0 and 1, each further mark at its basis value
        for v, ms in basis.gamma_v.items():
            model = {ms[0]: _INF, ms[1]: _ZERO, ms[2]: _ONE}
            for q in basis.vertex_quads[v]:
                val = values.get(q)
                if val is not None:
                    model[q[3]] = val._k
            for a, b, c, d in itertools.combinations(sorted(model, key=rank), 4):
                key = bits[a] | bits[b] | bits[c] | bits[d]
                if key not in table:
                    try:
                        table[key] = _cross(model[a], model[b], model[c], model[d])
                    except UnstableConfiguration:
                        pass
        for qe in basis.edge_quads.values():
            val = values.get(qe)
            key = self._mask(qe)
            if val is not None and key not in table:
                table[key] = _perm(qe, sorted(qe, key=rank))(val._k)
        # the cocycle closure; any pass order reaches the same least fixpoint
        # (see the module docstring)
        pending = [row for row in _steps(len(bits)) if row[0] not in table]
        constant = _CONSTANT.get
        while pending:
            left = []
            for row in pending:
                for e1, f1, e2, f2, g, fixed in row[1]:
                    x1 = table.get(e1)
                    if x1 is None:
                        continue
                    x2 = table.get(e2)
                    if x2 is None:
                        continue
                    i = constant(x1)
                    j = None if i is None else constant(x2)
                    if j is None:
                        # the anharmonic maps keep 0, 1 and inf among
                        # themselves, so with a factor off them the
                        # product is no 0 * inf
                        table[row[0]] = g(_pmul(f1(x1), f2(x2)))
                        break
                    y = fixed[i][j]
                    if y is None:
                        continue  # 0 * inf
                    table[row[0]] = y
                    break
                else:
                    left.append(row)
            if len(left) == len(pending):
                break
            pending = left


# ---------------------------------------------------------------------------
# stratum-adapted vertex sets and extended bases

def a_gamma(t: MarkedTree, rho_star) -> List[Tuple[FrozenSet, Tuple[int, int]]]:
    """Labels rho > rho* realized by an edge of t, with their edges."""
    bits = t.mark_bits()
    # a split's mark mask is its label's mask only over [l] or [l^pm]
    if bits != _universe(t.l, t.is_real)[1]:
        raise ChartError("labels need a tree marked by [l] or [l^pm]")
    key0 = order_key(rho_star) if rho_star else None
    out = []
    for mask, e in t.edge_of_mask().items():
        if _admissible(mask, len(bits)):
            rho = frozenset(_marks_of_mask(bits, mask))
            if key0 is None or order_key(rho) > key0:
                out.append((rho, e))
    out.sort(key=lambda p: order_key(p[0]))
    return out


def v_gamma(t: MarkedTree, rho_star) -> List[int]:
    """Vertices common to the near sides of all stratum edges above rho*."""
    return near_vertices(t, a_gamma(t, rho_star))


def near_vertices(t: MarkedTree, labels) -> List[int]:
    """Vertices common to the near sides of the edges of a_gamma labels."""
    verts = (1 << t.vertex_count) - 1
    for _rho, e in labels:
        verts &= t.side_masks(*e)[1]
    if not verts:
        raise ChartError("empty vertex set; tree/label data inconsistent")
    return [v for v in range(t.vertex_count) if verts >> v & 1]


def extended_basis(t: MarkedTree, v_plus: int, rho_star) -> ChartBasis:
    """The basis of t extended by the quadruple (i, j, k, l+1) at v_plus
    (plus its conjugate in the real case)."""
    if v_plus not in v_gamma(t, rho_star):
        raise ChartError("v_plus is not in the admissible vertex set")
    basis = gamma_basis(t)
    i, j, k = basis.gamma_v[v_plus][:3]
    if t.is_real:
        ext = [(i, j, k, "%d+" % (t.l + 1)),
               (bar_mark(i), bar_mark(j), bar_mark(k), "%d-" % (t.l + 1))]
    else:
        ext = [(i, j, k, t.l + 1)]
    return replace(basis, extension=ext)


# ---------------------------------------------------------------------------
# real slice

def real_slice_check(values: Dict[Tuple, ProjPoint], t: MarkedTree) -> bool:
    """Fixed-locus equations: conj(CR_q) = CR_{q-bar} for every basis q."""
    if not t.is_real:
        raise ChartError("real slice check needs a real tree")
    table = ReconstructionTable(t, values)
    for q in table.basis.quadruples:
        qb = tuple(bar_mark(m) for m in q)
        if values[q].conj() != table.value(qb):
            return False
    return True
