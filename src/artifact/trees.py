"""Combinatorial marked trees, optionally with a real structure.

A tree records the combinatorial type of a stable rational marked curve:
vertices are components, edges are nodes, and the mark map mu places the
marked points.  Complex marks are integers 1..l; conjugate-pair marks are
the strings "1+", "1-", ..., ordered 1+ < 1- < 2+ < 2- < ...

Every tree here is trivalent: |mu^-1(v)| + deg(v) >= 3 at each vertex.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


class TreeError(Exception):
    pass


# ---------------------------------------------------------------------------
# marks

def mark_key(m) -> Tuple[int, int]:
    """Sort key realizing 1 < 2 < ... and 1+ < 1- < 2+ < 2- < ..."""
    if isinstance(m, int):
        return (m, 0)
    if isinstance(m, str) and len(m) >= 2 and m[-1] in "+-":
        try:
            return (int(m[:-1]), 0 if m[-1] == "+" else 1)
        except ValueError:
            pass
    raise TreeError("bad mark %r" % (m,))


def bar_mark(m):
    """Conjugate mark: i+ <-> i-.  Complex integer marks are fixed."""
    if isinstance(m, int):
        return m
    return m[:-1] + ("-" if m[-1] == "+" else "+")


def sort_marks(ms) -> List:
    return sorted(ms, key=mark_key)


@functools.lru_cache(maxsize=None)
def _mark_bits(marks: FrozenSet) -> Dict:
    """mark -> bit, in mark_key order: bit i stands for the i-th mark.
    Raises TreeError for a bad mark, and for a conjugate-pair mark not
    spelt str(int(stem)) + sign, such as "01+", which mark_key ties with
    "1+"; the least such spelling (in string order) is named."""
    order = sort_marks(marks)
    bad = [m for m in order if type(m) is str and "%d%s" % (int(m[:-1]), m[-1]) != m]
    if bad:
        raise TreeError("bad mark %r" % (min(bad),))
    return {m: 1 << i for i, m in enumerate(order)}


def _marks_of_mask(bits: Dict, mask: int) -> List:
    """The marks whose bits are set, in mark_key order."""
    return [m for m, b in bits.items() if mask & b]


def complex_marks(l: int) -> List[int]:
    return list(range(1, l + 1))


def real_marks(l: int) -> List[str]:
    out = []
    for i in range(1, l + 1):
        out += ["%d+" % i, "%d-" % i]
    return out


# ---------------------------------------------------------------------------
# trees

def _vertex_ok(v, n: int) -> bool:
    """v is a vertex of a tree with n vertices."""
    return type(v) is int and 0 <= v < n


class MarkedTree:
    """Tree (Ver, Edg, mu) with dense vertices 0..n-1 and sorted edges.

    MarkedTree(vertex_count, edges, mu) raises TreeError("invalid tree:
    [...]") listing the defects of anything but a stable tree.  A tree is
    not mutated after construction: its adjacency, mark bits, split-mask
    index, mask -> edge table and canonical form are computed on first use
    and kept on the object.  Other modules keep what they derive from a
    tree on its one slot layout (_layout, see curves.SlotLayout).
    """

    def __init__(self, vertex_count, edges, mu, *rest):
        try:
            edges = tuple(sorted(tuple(sorted(e)) for e in edges))
            if any(len(e) != 2 for e in edges):
                raise ValueError("an edge is not a pair")
            # not int(): it would take 2.9, "2" and True as vertex counts
            if type(vertex_count) is not int:
                raise TypeError("vertex count %r is not an int" % (vertex_count,))
            args = (vertex_count, edges, dict(mu))
        except (TypeError, ValueError, OverflowError) as e:
            raise TreeError("invalid tree: %r" % (["malformed arguments: %s" % (e,)],)) from e
        self._fill(*args, *rest)
        bad = self._defects()
        if bad:
            raise TreeError("invalid tree: %r" % (bad,))

    @classmethod
    def _of(cls, *args) -> "MarkedTree":
        """The tree of args, unchecked: the caller knows it is valid and
        passes the vertex count as an int, the edges as the tree keeps
        them (a tuple of (low, high) pairs in increasing order) and a mu
        dict that it gives up to the tree."""
        t = cls.__new__(cls)
        t._fill(*args)
        return t

    def _fill(self, vertex_count: int, edges: Tuple[Edge, ...], mu: Dict) -> None:
        self.vertex_count = vertex_count
        self.edges: Tuple[Edge, ...] = edges
        self.mu: Dict = mu
        self._adj: Optional[List[List[int]]] = None
        self._bits: Optional[Dict] = None
        self._index: Optional[Tuple] = None

    phi = None  # real subclass overrides
    # filled on first use; class defaults keep trees that never use them
    # as small as before
    _edge_of: Optional[Dict[int, Edge]] = None
    _canon: Optional[str] = None
    _layout = None  # set by curves.slot_layout

    @property
    def is_real(self) -> bool:
        return self.phi is not None

    def marks(self) -> List:
        return list(self.mark_bits())  # mark_key order

    @property
    def l(self) -> int:
        n = len(self.mu)
        return n // 2 if self.is_real else n

    def adjacency(self) -> List[List[int]]:
        if self._adj is None:
            adj: List[List[int]] = [[] for _ in range(self.vertex_count)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = [sorted(a) for a in adj]
        return self._adj

    def mu_inv(self, v: int) -> List:
        """The marks at v, in mark_key order."""
        mu = self.mu
        return [m for m in self.mark_bits() if mu[m] == v]

    def valence(self, v: int) -> int:
        return len(self.mu_inv(v)) + len(self.adjacency()[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.vertex_count and v in self.adjacency()[u]

    # -- split-mask index ---------------------------------------------------
    #
    # For each vertex v and each neighbour w = adjacency()[v][i], the index
    # holds two bitmasks of the branch at v through w, i.e. of the tail side
    # of the oriented edge (w, v): the marks on it (bits in mark_key order,
    # see mark_bits) and the vertices on it (bit w for vertex w).  Every
    # side, direction, path and canonical id of the tree is read from it.

    def mark_bits(self) -> Dict:
        if self._bits is None:
            self._bits = _mark_bits(frozenset(self.mu))
        return self._bits

    def split_index(self) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
        """(branch mark masks, branch vertex masks), per vertex, aligned
        with adjacency(); built once, in one traversal from vertex 0."""
        if self._index is None:
            n = self.vertex_count
            adj = self.adjacency()
            bits = self.mark_bits()
            down_m = [0] * n
            for m, v in self.mu.items():
                down_m[v] |= bits[m]
            down_v = [1 << v for v in range(n)]
            parent = [-1] * n
            order = [0]
            for v in order:
                for w in adj[v]:
                    if w != parent[v]:
                        parent[w] = v
                        order.append(w)
            for v in reversed(order[1:]):
                down_m[parent[v]] |= down_m[v]
                down_v[parent[v]] |= down_v[v]
            all_m, all_v = down_m[0], down_v[0]
            up_m = [all_m ^ m for m in down_m]
            up_v = [all_v ^ m for m in down_v]
            self._index = (
                tuple([tuple([down_m[w] if w != parent[v] else up_m[v] for w in adj[v]])
                       for v in range(n)]),
                tuple([tuple([down_v[w] if w != parent[v] else up_v[v] for w in adj[v]])
                       for v in range(n)]),
            )
        return self._index

    def edge_of_mask(self) -> Dict[int, Edge]:
        """Tail-side mark mask -> oriented edge (w, v); the first edge in
        the order vertex v ascending, then neighbour w, wins."""
        if self._edge_of is None:
            marks = self.split_index()[0]
            edge_of: Dict[int, Edge] = {}
            for v, nbrs in enumerate(self.adjacency()):
                for w, side in zip(nbrs, marks[v]):
                    edge_of.setdefault(side, (w, v))
            self._edge_of = edge_of
        return self._edge_of

    def side_masks(self, u: int, v: int) -> Tuple[int, int]:
        """(mark mask, vertex mask) of the tail side of the edge (u, v)."""
        if not self.has_edge(u, v):
            raise TreeError("edge (%r,%r) not in tree" % (u, v))
        i = self.adjacency()[v].index(u)
        marks, verts = self.split_index()
        return marks[v][i], verts[v][i]

    def _defects(self) -> List[str]:
        """What makes the structure no stable tree, [] for none."""
        n = self.vertex_count
        if n < 1:
            return ["no vertices"]
        bad = ["bad edge (%r,%r)" % (u, v) for u, v in self.edges
               if not (_vertex_ok(u, n) and _vertex_ok(v, n) and u != v)]
        ends_ok = not bad  # the connectivity walk indexes by edge ends
        # the edges are sorted, so equal ones are adjacent; an end need not
        # be hashable
        if any(e == f for e, f in zip(self.edges, self.edges[1:])):
            bad.append("duplicate edges")
        if len(self.edges) != n - 1:
            bad.append("edge count %d != %d (not a tree)" % (len(self.edges), n - 1))
        elif ends_ok:
            seen = {0}
            stack = [0]
            adj = self.adjacency()
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n:
                bad.append("not connected")
        # mark_bits is cached on the mark set, in which 0, 0.0 and False
        # are one key, so a mark of another type is refused first
        for m in self.mu:
            if type(m) is not int and type(m) is not str:
                raise TreeError("bad mark %r" % (m,))
        self.mark_bits()  # raises TreeError for a bad mark
        if len({isinstance(m, int) for m in self.mu}) > 1:  # mark_key ties 1 and "1+"
            bad.append("marks mix integers and conjugate pairs")
        for m, v in self.mu.items():
            if not _vertex_ok(v, n):
                bad.append("mark %r at bad vertex %r" % (m, v))
        if not bad:
            for v in range(n):
                if self.valence(v) < 3:
                    bad.append("vertex %d has valence %d < 3" % (v, self.valence(v)))
        if self.is_real:
            bad.extend(self._validate_real())
        return bad

    def _validate_real(self) -> List[str]:
        bad = []
        phi = self.phi
        n = self.vertex_count
        if len(phi) != n:
            return ["phi has wrong length"]
        if not all(_vertex_ok(x, n) for x in phi) or len(set(phi)) != n:
            return ["phi is not a permutation"]
        for v in range(n):
            if phi[phi[v]] != v:
                bad.append("phi not an involution at %d" % v)
        # an edge end or mark vertex that is no vertex is a defect of its
        # own (see _defects), and phi is not read there
        eset = set(self.edges)
        for u, v in self.edges:
            if not (_vertex_ok(u, n) and _vertex_ok(v, n)):
                continue
            if tuple(sorted((phi[u], phi[v]))) not in eset:
                bad.append("phi does not map edge (%d,%d) to an edge" % (u, v))
        for m, v in self.mu.items():
            mb = bar_mark(m)
            if mb == m or mb not in self.mu:
                bad.append("mark %r has no conjugate partner" % (m,))
            elif _vertex_ok(v, n) and self.mu[mb] != phi[v]:
                bad.append("phi(mu(%r)) != mu(%r)" % (m, mb))
        return bad

    # structural (labeled) equality; use canonical_form for isomorphism
    def _key(self):
        """(vertex count, edges, mu items in mark_key order, phi)."""
        return (self.vertex_count, self.edges,
                tuple([(m, self.mu[m]) for m in self.mark_bits()]), self.phi)

    def __eq__(self, other):
        if not isinstance(other, MarkedTree):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(n=%d, edges=%r, mu=%r%s)" % (
            type(self).__name__, self.vertex_count, list(self.edges), self.mu,
            ", phi=%r" % (list(self.phi),) if self.is_real else "",
        )

    def to_json(self) -> dict:
        return {
            "v": 1,
            "l": self.l,
            "real": self.is_real,
            "edges": [list(e) for e in self.edges],
            "mu": {str(m): v for m, v in sorted(self.mu.items(), key=lambda kv: mark_key(kv[0]))},
            "phi": list(self.phi) if self.is_real else None,
        }


class RealMarkedTree(MarkedTree):
    """Marked tree over [l^pm] with an involution phi on vertices.

    Without phi, the tree takes the unique involution compatible with
    mark conjugation, read off the split-mask index of its structure,
    which is checked as a complex tree first.
    """

    def __init__(self, vertex_count, edges, mu, phi: Optional[Sequence[int]] = None):
        if phi is None:
            phi = _phi_from_structure(MarkedTree(vertex_count, edges, mu))
        else:
            try:
                phi = tuple(phi)
            except TypeError as e:
                raise TreeError("invalid tree: %r" % (["phi is not a sequence"],)) from e
        super().__init__(vertex_count, edges, mu, phi)

    def _fill(self, vertex_count, edges, mu, phi: Sequence[int]) -> None:
        super()._fill(vertex_count, edges, mu)
        self.phi: Tuple[int, ...] = tuple(phi)


def tree_from_json(d: dict) -> MarkedTree:
    try:
        real = d["real"]
        mu = {k if real else int(k): v for k, v in d["mu"].items()}
        edges = [tuple(e) for e in d["edges"]]
        phi = d["phi"] if real else None
        ends = [x for e in edges for x in e]
        if any(len(e) != 2 for e in edges):
            raise ValueError("an edge is not a pair")
        # a phi that is not None must iterate: a falsy one such as 0 too
        if any(type(x) is not int for x in [*mu.values(), *ends,
                                             *(() if phi is None else phi)]):
            raise TypeError("a vertex, edge end or phi entry is not an integer")
        n = 1 + max([max(e) for e in edges], default=max(mu.values()))
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise TreeError("malformed tree JSON: %r" % (e,)) from e
    if real:
        return RealMarkedTree(n, edges, mu, phi)
    return MarkedTree(n, edges, mu)


# ---------------------------------------------------------------------------
# splits and directions

def subtree_split(t: MarkedTree, e: Edge) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Vertex sets (Ver_e~, Ver_e~^c) for the oriented edge e~ = (u, v).

    The tail u lies in Ver_e~ (the first component).
    """
    side = t.side_masks(*e)[1]
    near = frozenset(w for w in range(t.vertex_count) if side >> w & 1)
    return near, frozenset(range(t.vertex_count)) - near


def split_marks(t: MarkedTree, e: Edge) -> FrozenSet:
    """Marks carried by the tail side Ver_e~ of the oriented edge."""
    return frozenset(_marks_of_mask(t.mark_bits(), t.side_masks(*e)[0]))


def direction(t: MarkedTree, v: int, m) -> Tuple:
    """How mark m is seen from vertex v: the mark itself or an outgoing edge."""
    if t.mu[m] == v:
        return ("m", m)
    bit = t.mark_bits()[m]
    for w, side in zip(t.adjacency()[v], t.split_index()[0][v]):
        if side & bit:
            return ("e", (v, w))
    raise TreeError("mark %r not reachable from vertex %r" % (m, v))


def path_vertices(t: MarkedTree, a: int, b: int) -> List[int]:
    n = t.vertex_count
    if not (0 <= a < n and 0 <= b < n):
        raise TreeError("no path between %r and %r" % (a, b))
    adj, verts = t.adjacency(), t.split_index()[1]
    path = [a]
    while path[-1] != b:
        v = path[-1]
        path.append(next(w for w, side in zip(adj[v], verts[v]) if side >> b & 1))
    return path


# ---------------------------------------------------------------------------
# enumeration
#
# A split is the mark mask (bits in mark_key order) of the side of an edge
# that avoids the minimal mark, bit 0.  A tree is the laminar family of its
# splits, listed in (size, lexicographic) order.

def _laminar(a: int, b: int) -> bool:
    return a & b in (0, a, b)


def _conj_mask(mask: int, even: int) -> int:
    """bar_mark on a mark mask of a conjugation-closed mark set: i+ and i-
    hold the adjacent bits 2k and 2k+1, so conjugation swaps bits i and
    i^1.  `even` is the mask of the even bits, the + marks."""
    return (mask & even) << 1 | (mask >> 1) & even


def _phi_from_structure(t: MarkedTree) -> List[int]:
    """The unique involution of t's vertices compatible with mark
    conjugation, read off t's split-mask index.  Raises TreeError("invalid
    tree: [...]") listing, in mark_key order, the marks of t without a
    conjugate partner, if any, and else when the conjugates of t's splits
    are not all splits of t.

    Conjugating the mark mask of the branch at v through w (the tail side
    of the edge (w, v)) gives the tail side of the image edge, whose head
    is phi(v).
    """
    unpaired = ["mark %r has no conjugate partner" % (m,) for m in t.mark_bits()
                if bar_mark(m) == m or bar_mark(m) not in t.mu]
    if unpaired:
        raise TreeError("invalid tree: %r" % (unpaired,))
    n = t.vertex_count
    if n == 1:
        return [0]
    even = ((1 << len(t.mu)) - 1) // 3
    marks = t.split_index()[0]
    heads = {side: v for v in range(n) for side in marks[v]}
    phi = []
    for v in range(n):
        imgs = set()
        for side in marks[v]:
            conj = _conj_mask(side, even)
            if conj not in heads:
                raise TreeError("invalid tree: ['split system not conjugation-closed']")
            imgs.add(heads[conj])
        if len(imgs) != 1:
            raise TreeError("invalid tree: ['involution not determined']")
        phi.append(imgs.pop())
    return phi


def _a000311(n: int) -> List[int]:
    """A000311(0..n), n >= 1, by a(m + 1) = (m + 2) a(m)
    + 2 sum_{k=2}^{m-1} C(m, k) a(k) a(m - k + 1), a(1) = a(2) = 1."""
    a = [0, 1, 1]
    for m in range(2, n):
        a.append((m + 2) * a[m] + 2 * sum(math.comb(m, k) * a[k] * a[m - k + 1]
                                          for k in range(2, m)))
    return a[:n + 1]


def stable_tree_count(l: int) -> int:
    """len(enumerate_trees(l)) for l >= 3 complex marks, without building
    a tree: A000311(l - 1)."""
    if l < 3:
        raise TreeError("complex enumeration requires l >= 3")
    return _a000311(l - 1)[l - 1]


def _exp_series(s: List[Fraction]) -> List[Fraction]:
    """exp of the power series s, s[0] = 0, to the same degree: e' = s'e
    gives m e[m] = sum_{k=1}^{m} k s[k] e[m - k]."""
    e = [Fraction(1)]
    for m in range(1, len(s)):
        e.append(sum(k * s[k] * e[m - k] for k in range(1, m + 1)) / m)
    return e


def real_tree_count(l: int) -> int:
    """len(enumerate_trees(l, real=True)) for l >= 2 conjugate mark pairs,
    without building a tree.

    In exponential generating functions in the pairs, B = sum_k 2^(k-1)
    A000311(k) x^k / k! counts the swapped pairs of branches and F, the
    solution of F = exp(F + B) - 1 - F, the rooted branches that phi maps
    to themselves.  By the dissymmetry theorem the count is l! [x^l] of
    V - F^2/2 + (B - x): the phi-fixed vertices V = exp(F + B) - 1 - F
    - F^2/2 - B, less the phi-fixed edges, plus the trees whose phi
    reverses an edge.  As exp(F + B) - 1 - F = F, that is F - F^2 - x.
    """
    if l < 2:
        raise TreeError("real enumeration requires l >= 2")
    a = _a000311(l)
    b = [Fraction(0)] + [Fraction(2 ** (k - 1) * a[k], math.factorial(k))
                         for k in range(1, l + 1)]
    f = [Fraction(0)] * (l + 1)
    for _ in range(l):  # each pass fixes one more coefficient of F
        e = _exp_series([x + y for x, y in zip(f, b)])
        f = [Fraction(0)] + [e[m] - f[m] for m in range(1, l + 1)]
    f2 = sum(f[k] * f[l - k] for k in range(l + 1))
    return int((f[l] - f2) * math.factorial(l))


def enumerate_trees(l: int, real: bool = False) -> List[MarkedTree]:
    """One tree per label-preserving isomorphism class, deterministic order.

    A depth-first search over compatible families of splits adds one
    split (complex) or one conjugation orbit of splits (real) per step,
    and each stack entry carries the state of its family's tree, so a
    tree is never rebuilt from its family.  Vertex 0 is the side of bit
    0 and vertex i + 1 the side of the family's i-th split at its edge,
    in (size, lexicographic) order, so 1, ..., k, 0 lists each vertex
    after its children.  Per vertex v the state holds v's split, its
    parent (the side of the first later superset, else vertex 0), the
    mask of its own marks, the vertex count of its branch, and, with the
    tree rooted at vertex 0, the AHU string of its branch and the sorted
    strings of its children's branches; a real tree's state also holds
    v as the "/phi:" part writes it (_phi_id).  A step writes the strings
    of each added split once, and those of its parent and, where a real
    split lands inside an earlier one, that split's ancestors; the
    splits an added split swallows change only their parent.

    An emitted tree reads its edges, mu and phi off the state.  Its AHU
    string is written on the path from vertex 0 to a centroid, which
    flips, and at the second centroid's re-rooted edge, if any: every
    vertex off that path gives its carried string, which is the string
    _ahu writes for it.  So enumeration builds no adjacency or
    split-mask index: a tree builds them on first use.
    """
    if real:
        if l < 2:
            raise TreeError("real enumeration requires l >= 2")
        marks = real_marks(l)
    else:
        if l < 3:
            raise TreeError("complex enumeration requires l >= 3")
        marks = complex_marks(l)
    n = len(marks)
    mark_set = frozenset(marks)
    bits = _mark_bits(mark_set)
    head = "%s%d:" % ("RT" if real else "T", l)
    full = (1 << n) - 1
    even = full // 3  # the bits of the + marks, for _conj_mask
    # candidate splits: 2..n-2 of the bits 1..n-1; combinations come out
    # size by size in lexicographic order, the order of a family's vertices
    cands = [sum(1 << i for i in c) for r in range(2, n - 1)
             for c in itertools.combinations(range(1, n), r)]
    rank = {s: i for i, s in enumerate(cands)}
    if real:
        # a unit is a conjugation orbit of splits, as candidate ranks; an
        # orbit whose two splits cross can never appear.  image[s] is
        # (the split of the conjugate edge, whether that split is the
        # complement of s's conjugate, which then holds bit 0)
        units = []
        image = {}
        for i, s in enumerate(cands):
            sb = _conj_mask(s, even)
            j = rank[sb ^ full if sb & 1 else sb]
            image[s] = (cands[j], sb & 1)
            if j == i:
                units.append((i,))
            elif j > i and _laminar(s, cands[j]):
                units.append((i, j))
    else:
        units = [(i,) for i in range(len(cands))]
    rank[full] = -1  # vertex 0 comes first
    by_rank = rank.__getitem__
    # compat[u]: bitmask of the later units whose splits are all laminar
    # with those of unit u
    compat = []
    for u, unit in enumerate(units):
        mask = 0
        for w in range(u + 1, len(units)):
            if all(_laminar(cands[a], cands[b]) for a in unit for b in units[w]):
                mask |= 1 << w
        compat.append(mask)

    # a vertex's mark string, by the mask of its own marks, and a mark
    # set's "{...}"; filled on first use of each mask
    texts = _MaskTexts(bits)
    sets = _set_texts(mark_set)

    # depth-first over compatible families; an explicit stack, so no
    # closure holds the result list in a cycle.  An entry is (the units
    # still compatible, the parent family's state, the unit to add); a
    # child copies the state and adds its unit.  The state is (fam, par,
    # own, size, text, kids, ids, at), lists by vertex (see the
    # docstring; fam[0] is every bit, text[0] is not kept and ids is
    # empty on the complex side) but at: at[b] is the vertex of the mark
    # of bit b.  Units come out in increasing rank, so a complex family's
    # split is added last; a real unit's splits can rank before later
    # units' splits, and then renumber them
    results: List[MarkedTree] = []
    stack = [((1 << len(units)) - 1,
              ([full], [-1], [full], [1], [""], [[]],
               [_phi_id(texts[full], (), sets)] if real else [], [0] * n), ())]
    while stack:
        avail, state, unit = stack.pop()
        fam, par, own, size, text, kids, ids, at = state
        fam = fam[:]
        par = par[:]
        own = own[:]
        size = size[:]
        text = text[:]
        kids = kids[:]
        ids = ids[:]
        at = at[:]
        for r in unit:
            s = cands[r]
            v = bisect.bisect(fam, r, key=by_rank)
            if v < len(fam):
                par = [p + (p >= v) for p in par]
                at = [a + (a >= v) for a in at]
            fam.insert(v, s)
            par.insert(v, 0)
            own.insert(v, 0)
            size.insert(v, 1)
            text.insert(v, "")
            kids.insert(v, [])
            for p in range(v + 1, len(fam)):
                if fam[p] & s == s:
                    break
            else:
                p = 0
            par[v] = p
            # the children of p inside s become s's children; sides are
            # the mark masks of the branches at s
            ks = kids[v]
            sides = [full ^ s]
            for u in range(1, v):
                if par[u] == p and fam[u] & s == fam[u]:
                    par[u] = v
                    ks.append(text[u])
                    sides.append(fam[u])
                    size[v] += size[u]
            ks.sort()
            own[v] = mine = s & own[p]
            own[p] ^= mine
            text[v] = new = _node(texts[mine], ks)
            while mine:
                low = mine & -mine
                at[low.bit_length() - 1] = v
                mine ^= low
            if real:
                ids.insert(v, _phi_id(texts[own[v]], sides, sets))
                sides = [fam[u] for u in range(1, len(fam)) if par[u] == p]
                if p:
                    sides.append(full ^ fam[p])
                ids[p] = _phi_id(texts[own[p]], sides, sets)
            # p's children lose the swallowed strings and gain s's, and p
            # and its ancestors but vertex 0 have new strings
            gone = ks
            while True:
                pk = kids[p][:]
                for x in gone:
                    pk.remove(x)
                bisect.insort(pk, new)
                kids[p] = pk
                size[p] += 1
                if not p:
                    break
                gone = [text[p]]
                text[p] = new = _node(texts[own[p]], pk)
                p = par[p]
        state = (fam, par, own, size, text, kids, ids, at)
        k = len(fam) - 1
        # the canonical form: c, the last vertex with more than half of
        # the tree in its branch, is a centroid, and rooting at c flips
        # the path from vertex 0 to c; a second centroid is a child of c
        # with exactly half the tree in its branch
        for c in range(1, k + 1):
            if 2 * size[c] > k + 1:
                break
        else:
            c = 0
        path = [c]
        while path[-1]:
            path.append(par[path[-1]])
        up = None  # the string of the branch above the path vertex
        for i in range(len(path) - 1, -1, -1):
            pk = kids[path[i]][:]
            if i:
                pk.remove(text[path[i - 1]])
            if up is not None:
                bisect.insort(pk, up)
            up = _node(texts[own[path[i]]], pk)
        form = up
        if k & 1:  # an even vertex count
            for w in range(1, k + 1):
                if 2 * size[w] == k + 1:
                    rest = pk[:]
                    rest.remove(text[w])
                    wk = kids[w][:]
                    bisect.insort(wk, _node(texts[own[c]], rest))
                    form = min(form, _node(texts[own[w]], wk))
                    break
        form = head + form
        # par[v] is 0 or greater than v: the edges as the tree keeps them
        low = []
        high = []
        for v in range(1, k + 1):
            p = par[v]
            if p:
                high.append((v, p))
            else:
                low.append((0, v))
        edges = tuple(low + high)
        mu = dict(zip(marks, at))
        if real:
            # vertex 0 holds the mark 1+ (bit 0), so phi(0) holds 1- (bit
            # 1).  The image of vertex i + 1 is the side of the conjugate
            # split sb at its edge: vertex pos[sb] if sb avoids bit 0,
            # else the parent of the vertex of its complement
            pos = {s: v for v, s in enumerate(fam)}
            phi = [at[1]]
            for s in fam[1:]:
                sb, flip = image[s]
                phi.append(par[pos[sb]] if flip else pos[sb])
            form += _phi_orbits(ids, phi)
            t = RealMarkedTree._of(k + 1, edges, mu, phi)
        else:
            t = MarkedTree._of(k + 1, edges, mu)
        t._bits = bits
        t._canon = form
        results.append(t)
        while avail:
            low = avail & -avail
            avail ^= low
            u = low.bit_length() - 1
            stack.append((avail & compat[u], state, units[u]))
    results.sort(key=canonical_form)
    return results


# ---------------------------------------------------------------------------
# canonical form

def _node(here: str, kids: List[str]) -> str:
    """The AHU string of a vertex with mark string here and the sorted
    strings of its child branches."""
    return "(" + here + ("|" + ";".join(kids) if kids else "") + ")"


def _ahu(here: List[str], parent: List[int], order: Sequence[int]) -> str:
    """The AHU string of a tree rooted at a centroid (the smaller string,
    if there are two), vertex v written with its mark string here[v];
    canonical_form's builder.

    parent[v] is v's parent in some rooting of the tree (-1 at its root),
    and order lists every vertex after its children.  One integer pass
    over order gives every branch's size.  The vertices with more than
    half of the tree below them form a path down from the root, and the
    last of them, the first in order, is a centroid c; a second centroid
    is a child of c with exactly half below it.  Each string is then
    written once, rooted at c: a vertex off the path from c to the root
    keeps its children, and along that path each vertex's parent becomes
    its child.  Rooting at the second centroid re-roots only the edge it
    shares with c.  enumerate_trees writes the same strings from the
    state its search carries.
    """
    n = len(here)
    size = [1] * n
    for v in order:
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
    for c in order:
        if 2 * size[c] > n:
            break
    path = [c]  # c, parent[c], ..., the root
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    kids: List[List[str]] = [[] for _ in range(n)]
    for v in order:
        if v not in path:
            ks = kids[v]
            ks.sort()
            kids[parent[v]].append(_node(here[v], ks))
    up = None  # the string of v's branch away from c; at c, the tree's
    for v in reversed(path):
        ks = kids[v]
        if up is not None:
            ks.append(up)
        ks.sort()
        up = _node(here[v], ks)
    if n & 1:
        return up
    for w in order:
        if 2 * size[w] == n:
            break
    else:
        return up
    # w's children and c's branch away from w, c's children but w's
    ks = kids[w]
    rest = list(kids[c])
    rest.remove(_node(here[w], ks))
    ks.append(_node(here[c], rest))
    ks.sort()
    return min(up, _node(here[w], ks))


class _MaskTexts(dict):
    """mark mask -> its marks in mark_key order, joined by "," between
    the strings left and right; filled on first use of each mask."""

    def __init__(self, bits: Dict, left: str = "", right: str = ""):
        super().__init__()
        self.bits = bits
        self.left = left
        self.right = right

    def __missing__(self, mask: int) -> str:
        text = self[mask] = (self.left + ",".join(map(str, _marks_of_mask(self.bits, mask)))
                             + self.right)
        return text


@functools.lru_cache(maxsize=None)
def _set_texts(marks: FrozenSet) -> _MaskTexts:
    """mark mask -> "{m,...}", its marks in mark_key order, for one mark
    set."""
    return _MaskTexts(_mark_bits(marks), "{", "}")


def _phi_id(here: str, sides: Sequence[int], texts: Dict[int, str]) -> str:
    """A vertex as the "/phi:" part writes it: its mark string here and
    the mark sets of its branches, whose mark masks are sides, written
    by texts (_set_texts)."""
    parts = list(map(texts.__getitem__, sides))
    parts.append(here)
    parts.sort()
    return "[" + "|".join(parts) + "]"


def _phi_orbits(ids: Sequence[str], phi: Sequence[int]) -> str:
    """The "/phi:" part of a real tree's canonical form: the orbits of phi,
    vertex v written as ids[v] (_phi_id)."""
    orbits = []
    for v, w in enumerate(phi):
        if v <= w:
            a, b = ids[v], ids[w]
            orbits.append(a + "~" + b if a <= b else b + "~" + a)
    orbits.sort()
    return "/phi:" + ";".join(orbits)


def canonical_form(t: MarkedTree) -> str:
    """Equal strings iff label-preserving isomorphic; stable across runs.

    The AHU string of the tree rooted at a centroid (the smaller string,
    if there are two), each vertex written with its marks; a real tree adds
    the orbits of phi, each vertex written with its marks and the mark
    sets of its branches (_phi_id, _phi_orbits).  Computed once per tree
    and kept on it: here by _ahu from a traversal from vertex 0 and by
    _phi_id from the split-mask index, and for an enumerated tree by
    enumerate_trees, from the state its search carries.
    """
    if t._canon is not None:
        return t._canon
    n = t.vertex_count
    at: List[List[str]] = [[] for _ in range(n)]
    for m in t.mark_bits():  # mark_key order
        at[t.mu[m]].append(str(m))
    here = [",".join(a) for a in at]
    adj = t.adjacency()
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    out = "%s%d:%s" % ("RT" if t.is_real else "T", t.l, _ahu(here, parent, order[::-1]))
    if t.is_real:
        texts = _set_texts(frozenset(t.mu))
        out += _phi_orbits([_phi_id(h, sides, texts)
                            for h, sides in zip(here, t.split_index()[0])], t.phi)
    t._canon = out
    return out


def canonical_vertex_order(t: MarkedTree) -> Dict[int, int]:
    """Relabeling-invariant vertex ranks: BFS from the vertex of the minimal
    mark, children ordered by the minimal mark of their branch (the lowest
    bit of the branch's mark mask).

    Two trees that differ only by a vertex relabeling assign the same rank
    to corresponding vertices, so ranks identify vertices canonically.
    """
    root = t.mu[next(iter(t.mark_bits()))]
    adj, marks = t.adjacency(), t.split_index()[0]
    order = {root: 0}
    queue = [root]
    for v in queue:
        kids = sorted((side & -side, w) for w, side in zip(adj[v], marks[v])
                      if w not in order)
        for _low, w in kids:
            order[w] = len(order)
            queue.append(w)
    return order
