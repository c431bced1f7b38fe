"""Coordinate bases attached to a marked tree and exact reconstruction of
all cross ratios from basis values.

A basis consists of one quadruple per extra unit of valence at each
vertex plus one quadruple per edge, l-3 in total.  Reconstruction seeds
each vertex with normalized local coordinates (first three basis marks at
infinity, 0, 1) and grows the set of known 4-point values by the cocycle
relation CR_{ijkn} = CR_{ijkm} * CR_{ijmn}, skipping routes that hit the
indeterminate product 0 * inf.  Failure to determine a value signals a
point outside the chart domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .exactfield import (IndeterminateProduct, PP_INF, PP_ONE, PP_ZERO,
                         ProjPoint, UnstableConfiguration, cross_ratio)
from .strata import is_admissible, order_key
from .trees import (MarkedTree, bar_mark, mark_key, sort_marks, split_marks,
                    subtree_split)


class ChartError(Exception):
    pass


class ChartDomainError(ChartError):
    """The supplied values do not lie in the chart's domain."""


# ---------------------------------------------------------------------------
# marking maps

def systematic_marking(t: MarkedTree) -> Dict[Tuple[int, int], object]:
    """eta(e~) = minimal mark on the far side of the oriented edge e~."""
    eta = {}
    for e in t.oriented_edges():
        u, v = e
        far = split_marks(t, (v, u))  # marks on the v side
        eta[e] = min(far, key=mark_key)
    return eta


def is_marking_map(t: MarkedTree, eta) -> bool:
    """eta assigns to each oriented edge a mark on its far side."""
    if set(eta.keys()) != set(t.oriented_edges()):
        return False
    for (u, v), m in eta.items():
        far_side, _ = subtree_split(t, (v, u))
        if t.mu[m] not in far_side:
            return False
    return True


def gamma_v_sets(t: MarkedTree, eta) -> Dict[int, List]:
    """[Gamma]_{eta;v}: own marks plus eta of each outgoing edge, sorted."""
    out = {}
    for v in range(t.vertex_count):
        ms = list(t.mu_inv(v))
        for w in t.adjacency()[v]:
            ms.append(eta[(v, w)])
        if len(set(ms)) != len(ms):
            raise ChartError("marking map not injective at vertex %d" % v)
        out[v] = sort_marks(ms)
    return out


def is_systematic(t: MarkedTree, eta) -> bool:
    gv = gamma_v_sets(t, eta)
    return all(eta[(u, v)] in gv[v] for (u, v) in t.oriented_edges())


# ---------------------------------------------------------------------------
# bases

@dataclass
class ChartBasis:
    tree: MarkedTree
    eta: Dict
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


def gamma_basis(t: MarkedTree, eta=None) -> ChartBasis:
    """The basis of cross-ratio coordinates attached to (t, eta)."""
    if eta is None:
        eta = systematic_marking(t)
    if not is_systematic(t, eta):
        raise ChartError("marking map is not systematic")
    gv = gamma_v_sets(t, eta)
    vertex_quads: Dict[int, List[Tuple]] = {}
    for v in range(t.vertex_count):
        ms = gv[v]
        vertex_quads[v] = [
            (ms[0], ms[1], ms[2], ms[r]) for r in range(3, len(ms))
        ]
    edge_quads: Dict[Tuple[int, int], Tuple] = {}
    for e in t.edges:
        u, w = e  # oriented with the smaller index as the near vertex
        near = split_marks(t, (u, w))
        i_e = eta[(w, u)]
        j_e = eta[(u, w)]
        k_cand = [m for m in gv[u] if m in near and m != i_e]
        m_cand = [m for m in gv[w] if m not in near and m != j_e]
        if not k_cand or not m_cand:
            raise ChartError("cannot complete edge quadruple at %r" % (e,))
        edge_quads[e] = (i_e, j_e, k_cand[0], m_cand[0])
    return ChartBasis(t, eta, gv, vertex_quads, edge_quads)


def basis_values(curve, basis: ChartBasis) -> Dict[Tuple, ProjPoint]:
    """Evaluate every basis quadruple on a curve (curves.cross_ratio_q)."""
    from .curves import cross_ratio_q

    return {q: cross_ratio_q(curve, q) for q in basis.all_quadruples}


# ---------------------------------------------------------------------------
# reconstruction

# CR of ref reordered to (ref[s0], ref[s1], ref[s2], ref[s3]) as a function of
# x = CR_ref.  Orderings that start with ref[0] give the six anharmonic maps;
# the double transpositions of positions fix the cross ratio and carry each
# of the 24 orderings to one of these.
_ANHARMONIC = {
    (0, 1, 2, 3): lambda x: x,
    (0, 1, 3, 2): lambda x: x.inv(),                        # 1/x
    (0, 2, 1, 3): lambda x: x.one_minus(),                  # 1-x
    (0, 2, 3, 1): lambda x: x.one_minus().inv(),            # 1/(1-x)
    (0, 3, 1, 2): lambda x: x.inv().one_minus(),            # (x-1)/x
    (0, 3, 2, 1): lambda x: x.inv().one_minus().inv(),      # x/(x-1)
}
_KLEIN = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_PERMUTED = {tuple(s[k] for k in v): f
             for s, f in _ANHARMONIC.items() for v in _KLEIN}


def _permuted_value(ref: Tuple, value: ProjPoint, q: Tuple) -> ProjPoint:
    """CR_q for a reordering q of ref, given value = CR_ref; exact on all of
    the projective line, including value in {0, 1, inf}."""
    return _PERMUTED[tuple(ref.index(m) for m in q)](value)


class ReconstructionTable:
    """Known cross-ratio values, one per 4-subset of marks."""

    def __init__(self, t: MarkedTree, eta=None,
                 values: Optional[Dict[Tuple, ProjPoint]] = None,
                 basis: Optional[ChartBasis] = None):
        self.tree = t
        self.basis = basis if basis is not None else gamma_basis(t, eta)
        if values is None:
            raise ChartError("basis values required")
        self.values = dict(values)
        self.table: Dict[FrozenSet, Tuple[Tuple, ProjPoint]] = {}
        self._build()

    def _store(self, q: Tuple, val: ProjPoint) -> None:
        self.table.setdefault(frozenset(q), (tuple(q), val))

    def known(self, q) -> bool:
        return frozenset(q) in self.table

    def value(self, q) -> ProjPoint:
        fs = frozenset(q)
        if fs not in self.table:
            raise ChartDomainError(self._diagnose(q))
        ref, val = self.table[fs]
        if tuple(q) == ref:
            return val
        return _permuted_value(ref, val, tuple(q))

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

    def _seed_vertex(self, v: int) -> List:
        ms = self.basis.gamma_v[v]
        model = {ms[0]: PP_INF, ms[1]: PP_ZERO, ms[2]: PP_ONE}
        for q in self.basis.vertex_quads[v]:
            val = self.values.get(q)
            if val is not None:
                model[q[3]] = val
        for combo in itertools.combinations(sort_marks(model), 4):
            if frozenset(combo) in self.table:
                continue
            try:
                self._store(combo, cross_ratio(*(model[m] for m in combo)))
            except UnstableConfiguration:
                pass
        return ms

    def _close(self, marks: Sequence) -> None:
        marks = sort_marks(marks)
        changed = True
        while changed:
            changed = False
            for combo in itertools.combinations(marks, 4):
                if frozenset(combo) in self.table:
                    continue
                if self._try_fill(combo, marks):
                    changed = True

    def _try_fill(self, combo: Tuple, marks: Sequence) -> bool:
        for i, j in itertools.permutations(combo, 2):
            k, n = [m for m in combo if m not in (i, j)]
            for m in marks:
                if m in combo:
                    continue
                f1, f2 = (i, j, k, m), (i, j, m, n)
                if self.known(f1) and self.known(f2):
                    try:
                        val = self.value(f1).mul(self.value(f2))
                    except (IndeterminateProduct, ChartDomainError):
                        continue
                    self._store((i, j, k, n), val)
                    return True
        return False

    def _build(self) -> None:
        t = self.tree
        for v in range(t.vertex_count):
            self._seed_vertex(v)
        for e, qe in self.basis.edge_quads.items():
            val = self.values.get(qe)
            if val is not None:
                self._store(qe, val)
        root = t.mu[min(t.mu.keys(), key=mark_key)]
        seen_marks = set(self.basis.gamma_v[root])
        visited = {root}
        queue = [root]
        order = []
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in t.adjacency()[v]:
                if w not in visited:
                    visited.add(w)
                    queue.append(w)
        for v in order[1:]:
            seen_marks |= set(self.basis.gamma_v[v])
            self._close(seen_marks)
        all_marks = set(t.mu.keys())
        if all_marks - seen_marks:
            seen_marks = all_marks
            self._close(seen_marks)


def reconstruct_cr(values: Dict[Tuple, ProjPoint], t: MarkedTree, eta, q) -> ProjPoint:
    """The value of CR_q determined by the basis values; exact."""
    table = ReconstructionTable(t, eta, values)
    return table.value(q)


# ---------------------------------------------------------------------------
# stratum-adapted vertex sets and extended bases

def a_gamma(t: MarkedTree, rho_star) -> List[Tuple[FrozenSet, Tuple[int, int]]]:
    """Labels rho > rho* realized by an edge of t, with their edges."""
    key0 = order_key(rho_star) if rho_star else None
    out = []
    seen = set()
    l = t.l
    for e in t.oriented_edges():
        rho = split_marks(t, e)
        if rho in seen:
            continue
        if not is_admissible(rho, l, real=t.is_real):
            continue
        if key0 is not None and order_key(rho) <= key0:
            continue
        seen.add(rho)
        out.append((rho, e))
    out.sort(key=lambda p: order_key(p[0]))
    return out


def v_gamma(t: MarkedTree, rho_star) -> List[int]:
    """Vertices common to the near sides of all stratum edges above rho*."""
    labels = a_gamma(t, rho_star)
    verts = set(range(t.vertex_count))
    for _rho, e in labels:
        near, _far = subtree_split(t, e)
        verts &= near
    if not verts:
        raise ChartError("empty vertex set; tree/label data inconsistent")
    return sorted(verts)


def extended_basis(t: MarkedTree, eta, v_plus: int, rho_star) -> ChartBasis:
    """Append the quadruple (i, j, k, l+1) at v_plus (plus its conjugate in
    the real case) to the basis of t."""
    if v_plus not in v_gamma(t, rho_star):
        raise ChartError("v_plus is not in the admissible vertex set")
    basis = gamma_basis(t, eta)
    i, j, k = basis.gamma_v[v_plus][:3]
    if t.is_real:
        lp = "%d+" % (t.l + 1)
        lm = "%d-" % (t.l + 1)
        basis.extension = [(i, j, k, lp),
                           (bar_mark(i), bar_mark(j), bar_mark(k), lm)]
    else:
        basis.extension = [(i, j, k, t.l + 1)]
    return basis


# ---------------------------------------------------------------------------
# real slice

def real_slice_check(values: Dict[Tuple, ProjPoint], t: MarkedTree, eta=None) -> bool:
    """Fixed-locus equations: conj(CR_q) = CR_{q-bar} for every basis q."""
    if not t.is_real:
        raise ChartError("real slice check needs a real tree")
    table = ReconstructionTable(t, eta, values)
    for q in table.basis.quadruples:
        qb = tuple(bar_mark(m) for m in q)
        if values[q].conj() != table.value(qb):
            return False
    return True
