"""Combinatorial marked trees, optionally with a real structure.

A tree records the combinatorial type of a stable rational marked curve:
vertices are components, edges are nodes, and the mark map mu places the
marked points.  Complex marks are integers 1..l; conjugate-pair marks are
the strings "1+", "1-", ..., ordered 1+ < 1- < 2+ < 2- < ...

Every tree here is trivalent: |mu^-1(v)| + deg(v) >= 3 at each vertex.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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
        return (int(m[:-1]), 0 if m[-1] == "+" else 1)
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
    """mark -> bit, in mark_key order: bit i stands for the i-th mark."""
    return {m: 1 << i for i, m in enumerate(sort_marks(marks))}


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

class MarkedTree:
    """Tree (Ver, Edg, mu) with dense vertices 0..n-1 and sorted edges.

    A tree is not mutated after construction: its adjacency, split-mask
    index, mask -> edge table, canonical vertex ranks,
    canonical form, structural key and validation result are computed on
    first use and kept on the object, as are the tables and gather plans
    that curves on the tree share (see curves.py) and its chart plans
    (see quotient.py).
    """

    def __init__(self, vertex_count: int, edges: Iterable[Edge], mu: Dict):
        self.vertex_count = int(vertex_count)
        self.edges: Tuple[Edge, ...] = tuple(
            sorted(tuple(sorted(e)) for e in edges)
        )
        self.mu: Dict = dict(mu)
        self._adj: Optional[List[List[int]]] = None
        self._mu_inv: Optional[Dict[int, List]] = None
        self._bits: Optional[Dict] = None
        self._index: Optional[Tuple] = None

    phi = None  # real subclass overrides
    # filled on first use; class defaults keep trees that never use them
    # as small as before
    _edge_of: Optional[Dict[int, Edge]] = None
    _order: Optional[Dict[int, int]] = None
    _skey: Optional[Tuple] = None
    _canon: Optional[str] = None
    _bad: Optional[Tuple[str, ...]] = None
    # kept for the curves on the tree by curves.py: the slot layout, the
    # moduli-key layout and the gather plans of the curves derived from
    # them (curves._derive), keyed by the frozenset of kept marks for
    # forget and by the tuple of sites for quotient._place
    _layout = None
    _key_layout: Optional[Tuple] = None
    _gathers: Optional[Dict] = None
    # kept by quotient.chart_plan: (rho*, rank) -> chart plan
    _chart_plans: Optional[Dict] = None

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
        if self._mu_inv is None:
            inv: Dict[int, List] = {u: [] for u in range(self.vertex_count)}
            for m in self.mark_bits():  # mark_key order
                inv[self.mu[m]].append(m)
            self._mu_inv = inv
        return self._mu_inv[v]

    def valence(self, v: int) -> int:
        return len(self.mu_inv(v)) + len(self.adjacency()[v])

    def oriented_edges(self) -> List[Edge]:
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        return out

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

    def validate(self) -> List[str]:
        """The tree's defects, [] for a valid tree; checked once per tree."""
        if self._bad is None:
            self._bad = tuple(self._defects())
        return list(self._bad)

    def _defects(self) -> List[str]:
        bad = []
        n = self.vertex_count
        if n < 1:
            bad.append("no vertices")
            return bad
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n and u != v):
                bad.append("bad edge (%d,%d)" % (u, v))
        if len(set(self.edges)) != len(self.edges):
            bad.append("duplicate edges")
        if len(self.edges) != n - 1:
            bad.append("edge count %d != %d (not a tree)" % (len(self.edges), n - 1))
        else:
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
        self.mark_bits()  # raises TreeError for a bad mark
        for m, v in self.mu.items():
            if not (0 <= v < n):
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
        if sorted(phi) != list(range(n)):
            return ["phi is not a permutation"]
        for v in range(n):
            if phi[phi[v]] != v:
                bad.append("phi not an involution at %d" % v)
        eset = set(self.edges)
        for u, v in self.edges:
            if tuple(sorted((phi[u], phi[v]))) not in eset:
                bad.append("phi does not map edge (%d,%d) to an edge" % (u, v))
        for m, v in self.mu.items():
            mb = bar_mark(m)
            if mb == m or mb not in self.mu:
                bad.append("mark %r has no conjugate partner" % (m,))
            elif self.mu[mb] != phi[v]:
                bad.append("phi(mu(%r)) != mu(%r)" % (m, mb))
        return bad

    # structural (labeled) equality; use canonical_form for isomorphism
    def _key(self):
        if self._skey is None:
            self._skey = _structure_key(self.vertex_count, self.edges, self.mu, self.phi)
        return self._skey

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
    mark conjugation, read off its own split-mask index.
    """

    def __init__(self, vertex_count, edges, mu, phi: Optional[Sequence[int]] = None):
        super().__init__(vertex_count, edges, mu)
        if phi is None:
            phi = _phi_from_structure(self)
        self.phi: Tuple[int, ...] = tuple(phi)


def _structure_key(vertex_count: int, edges: Iterable[Edge], mu: Dict,
                   phi: Optional[Sequence[int]]) -> Tuple:
    """(vertex count, sorted edges, mu items in mark_key order, phi): the
    labelled structure that tree equality compares."""
    return (
        int(vertex_count),
        tuple(sorted(tuple(sorted(e)) for e in edges)),
        tuple([(m, mu[m]) for m in _mark_bits(frozenset(mu))]),
        None if phi is None else tuple(phi),
    )


# labelled structure -> the tree shared_tree returns for it, held only
# while some curve or tree still refers to it
_SHARED: "weakref.WeakValueDictionary[Tuple, MarkedTree]" = weakref.WeakValueDictionary()


def shared_tree(vertex_count: int, edges: Iterable[Edge], mu: Dict,
                phi: Optional[Sequence[int]] = None) -> MarkedTree:
    """The one tree object for a labelled structure; a RealMarkedTree when
    phi is given.

    Curves built from other curves (stabilized bases, added marks) get
    their trees here, so every curve on one labelled tree shares what is
    kept on the tree.  Trees do not refer to themselves, so a tree leaves
    the table as soon as its last curve is gone.
    """
    key = _structure_key(vertex_count, edges, mu, phi)
    t = _SHARED.get(key)
    if t is None:
        if phi is None:
            t = MarkedTree(key[0], key[1], mu)
        else:
            t = RealMarkedTree(key[0], key[1], mu, key[3])
        t._skey = key
        _SHARED[key] = t
    return t


def share(t: MarkedTree) -> MarkedTree:
    """Make t the tree shared_tree returns for its labelled structure,
    unless another tree already is; returns the shared tree."""
    return _SHARED.setdefault(t._key(), t)


def tree_from_json(d: dict) -> MarkedTree:
    try:
        real = d["real"]
        mu = {k if real else int(k): v for k, v in d["mu"].items()}
        edges = [tuple(e) for e in d["edges"]]
        n = 1 + max([max(e) for e in edges], default=max(mu.values()))
        phi = d["phi"] if real else None
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


def _tree_from_family(marks: List, family: Sequence[int]) -> Tuple[int, List[Edge], Dict]:
    """(vertex count, edges, mu) of the tree with the given splits, which
    are in (size, lexicographic) order.  Vertex i + 1 is the side of
    family[i] at its edge; its parent is the side of the first later
    superset, else vertex 0, and a mark sits at the first side that holds
    its bit, else at vertex 0."""
    k = len(family)
    edges = []
    at = [0] * len(marks)
    free = (1 << len(marks)) - 1  # the bits no earlier side holds
    for i, s in enumerate(family):
        parent = 0
        for j in range(i + 1, k):
            if family[j] & s == s:
                parent = j + 1
                break
        edges.append((parent, i + 1))
        new = s & free
        free ^= new
        while new:
            low = new & -new
            at[low.bit_length() - 1] = i + 1
            new ^= low
    return k + 1, edges, dict(zip(marks, at))


def _phi_from_structure(t: MarkedTree) -> List[int]:
    """The unique involution of t's vertices compatible with mark
    conjugation, read off t's split-mask index; the marks of t must be
    conjugation-closed.

    Conjugating the mark mask of the branch at v through w (the tail side
    of the edge (w, v)) gives the tail side of the image edge, whose head
    is phi(v).
    """
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
                raise TreeError("split system not conjugation-closed")
            imgs.add(heads[conj])
        if len(imgs) != 1:
            raise TreeError("involution not determined")
        phi.append(imgs.pop())
    return phi


def stable_tree_count(l: int) -> int:
    """len(enumerate_trees(l)) for l >= 3 complex marks, without building
    a tree: A000311(l - 1), by a(n + 1) = (n + 2) a(n)
    + 2 sum_{k=2}^{n-1} C(n, k) a(k) a(n - k + 1), a(1) = a(2) = 1."""
    if l < 3:
        raise TreeError("complex enumeration requires l >= 3")
    a = [0, 1, 1]
    for n in range(2, l - 1):
        a.append((n + 2) * a[n] + 2 * sum(math.comb(n, k) * a[k] * a[n - k + 1]
                                          for k in range(2, n)))
    return a[l - 1]


def enumerate_trees(l: int, real: bool = False) -> List[MarkedTree]:
    """One tree per label-preserving isomorphism class, deterministic order."""
    if real:
        if l < 2:
            raise TreeError("real enumeration requires l >= 2")
        marks = real_marks(l)
    else:
        if l < 3:
            raise TreeError("complex enumeration requires l >= 3")
        marks = complex_marks(l)
    n = len(marks)
    bits = _mark_bits(frozenset(marks))
    # candidate splits: 2..n-2 of the bits 1..n-1; combinations come out
    # size by size in lexicographic order, the order of _tree_from_family
    cands = [sum(1 << i for i in c) for r in range(2, n - 1)
             for c in itertools.combinations(range(1, n), r)]
    if real:
        # a unit is a conjugation orbit of splits, as candidate ranks; an
        # orbit whose two splits cross can never appear
        full = (1 << n) - 1
        rank = {s: i for i, s in enumerate(cands)}
        units = []
        for i, s in enumerate(cands):
            sb = _conj_mask(s, full // 3)
            j = rank[sb ^ full if sb & 1 else sb]
            if j == i:
                units.append((i,))
            elif j > i and _laminar(s, cands[j]):
                units.append((i, j))
    else:
        units = [(i,) for i in range(len(cands))]
    # compat[u]: bitmask of the later units whose splits are all laminar
    # with those of unit u
    compat = []
    for u, unit in enumerate(units):
        mask = 0
        for w in range(u + 1, len(units)):
            if all(_laminar(cands[a], cands[b]) for a in unit for b in units[w]):
                mask |= 1 << w
        compat.append(mask)

    # depth-first over compatible families; an explicit stack, so no
    # closure holds the result list in a cycle
    results: List[MarkedTree] = []
    stack: List[Tuple[int, Tuple[int, ...]]] = [((1 << len(units)) - 1, ())]
    while stack:
        avail, chosen = stack.pop()
        n_v, edges, mu = _tree_from_family(marks, [cands[i] for i in sorted(chosen)])
        t = RealMarkedTree(n_v, edges, mu) if real else MarkedTree(n_v, edges, mu)
        t._bits = bits
        results.append(t)
        while avail:
            low = avail & -avail
            avail ^= low
            u = low.bit_length() - 1
            stack.append((avail & compat[u], chosen + units[u]))
    results.sort(key=canonical_form)
    return results


# ---------------------------------------------------------------------------
# canonical form

def _node(here: str, kids: List[str]) -> str:
    """The AHU string of a vertex with mark string here and the sorted
    strings of its child branches."""
    return "(" + here + ("|" + ";".join(kids) if kids else "") + ")"


@functools.lru_cache(maxsize=None)
def _set_texts(marks: FrozenSet) -> Dict[int, str]:
    """mark mask -> "{m,...}", its marks in mark_key order, for one mark
    set; filled by canonical_form on first use of each mask."""
    return {}


def canonical_form(t: MarkedTree) -> str:
    """Equal strings iff label-preserving isomorphic; stable across runs.

    The AHU string of the tree rooted at a centroid (the smaller string,
    if there are two), each vertex written with its marks; a real tree adds
    the orbits of phi, each vertex written with its marks and the mark
    sets of its branches.  Computed once per tree.

    One traversal from vertex 0 gives every branch's size and, rooted at
    0, its string.  A centroid other than vertex 0 is re-rooted only
    along its path to vertex 0: each vertex on it swaps the string of the
    branch towards the centroid for the one towards vertex 0.
    """
    if t._canon is not None:
        return t._canon
    n = t.vertex_count
    bits = t.mark_bits()
    at: List[List[str]] = [[] for _ in range(n)]
    for m in bits:  # mark_key order
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
    size = [1] * n
    heavy = [0] * n  # the most vertices in a branch below v
    kids: List[List[str]] = [[] for _ in range(n)]
    down = [""] * n  # the string of v's branch away from vertex 0
    for v in reversed(order):
        kids[v].sort()
        down[v] = _node(here[v], kids[v])
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
            heavy[p] = max(heavy[p], size[v])
            kids[p].append(down[v])
    heavy = [max(h, n - s) for h, s in zip(heavy, size)]
    least = min(heavy)
    bodies = []
    for c in range(n):
        if heavy[c] != least:
            continue
        path = [c]  # c, parent[c], ..., 0
        while path[-1]:
            path.append(parent[path[-1]])
        up = None  # the string of the branch at path[j] away from path[j - 1]
        for j in range(len(path) - 1, 0, -1):
            ks = list(kids[path[j]])
            ks.remove(down[path[j - 1]])
            if up is not None:
                ks.append(up)
                ks.sort()
            up = _node(here[path[j]], ks)
        ks = kids[c] if up is None else sorted(kids[c] + [up])
        bodies.append(_node(here[c], ks))
    body = min(bodies)
    out = "%s%d:%s" % ("RT" if t.is_real else "T", t.l, body)
    if t.is_real:
        sides = t.split_index()[0]
        texts = _set_texts(frozenset(t.mu))
        ids = []
        for v in range(n):
            parts = [here[v]]
            for s in sides[v]:
                text = texts.get(s)
                if text is None:
                    text = texts[s] = "{" + ",".join(map(str, _marks_of_mask(bits, s))) + "}"
                parts.append(text)
            parts.sort()
            ids.append("[" + "|".join(parts) + "]")
        phi = t.phi
        out += "/phi:" + ";".join(sorted(
            "~".join(sorted((ids[v], ids[phi[v]]))) for v in range(n) if v <= phi[v]
        ))
    t._canon = out
    return out


def canonical_vertex_order(t: MarkedTree) -> Dict[int, int]:
    """Relabeling-invariant vertex ranks: BFS from the vertex of the minimal
    mark, children ordered by the minimal mark of their branch (the lowest
    bit of the branch's mark mask).

    Two trees that differ only by a vertex relabeling assign the same rank
    to corresponding vertices, so ranks identify vertices canonically.
    Computed once per tree; callers must not modify the returned dict.
    """
    if t._order is not None:
        return t._order
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
    t._order = order
    return order
