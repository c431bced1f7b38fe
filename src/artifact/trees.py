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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

Mark = object  # int for complex marks, str like "3+" for conjugate pairs
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
    """Tree (Ver, Edg, mu) with dense vertices 0..n-1 and sorted edges."""

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

    @property
    def is_real(self) -> bool:
        return self.phi is not None

    def marks(self) -> List:
        return sort_marks(self.mu.keys())

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
            for m, u in self.mu.items():
                inv[u].append(m)
            self._mu_inv = {u: sort_marks(ms) for u, ms in inv.items()}
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
            self._index = (
                tuple(tuple(down_m[w] if w != parent[v] else all_m ^ down_m[v]
                            for w in adj[v]) for v in range(n)),
                tuple(tuple(down_v[w] if w != parent[v] else all_v ^ down_v[v]
                            for w in adj[v]) for v in range(n)),
            )
        return self._index

    def side_masks(self, u: int, v: int) -> Tuple[int, int]:
        """(mark mask, vertex mask) of the tail side of the edge (u, v)."""
        if not self.has_edge(u, v):
            raise TreeError("edge (%r,%r) not in tree" % (u, v))
        i = self.adjacency()[v].index(u)
        marks, verts = self.split_index()
        return marks[v][i], verts[v][i]

    def validate(self) -> List[str]:
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
        for m, v in self.mu.items():
            mark_key(m)
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
        return (
            self.vertex_count,
            self.edges,
            tuple(sorted(self.mu.items(), key=lambda kv: mark_key(kv[0]))),
            self.phi,
        )

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
    """Marked tree over [l^pm] with an involution phi on vertices."""

    def __init__(self, vertex_count, edges, mu, phi: Sequence[int]):
        super().__init__(vertex_count, edges, mu)
        self.phi: Tuple[int, ...] = tuple(phi)


def tree_from_json(d: dict) -> MarkedTree:
    mu = {}
    for k, v in d["mu"].items():
        mu[k if d["real"] else int(k)] = v
    n = 1 + max([max(e) for e in d["edges"]], default=max(mu.values()))
    if d["real"]:
        return RealMarkedTree(n, [tuple(e) for e in d["edges"]], mu, d["phi"])
    return MarkedTree(n, [tuple(e) for e in d["edges"]], mu)


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


def independence(t: MarkedTree, v: int, i, j) -> bool:
    """Marks i, j reach component v through distinct special points."""
    if i == j:
        raise TreeError("marks must be distinct")
    return direction(t, v, i) != direction(t, v, j)


def pivot_vertex(t: MarkedTree, i, j, k) -> int:
    """The unique vertex at which i, j, k are pairwise independent."""
    if len({i, j, k}) != 3:
        raise TreeError("marks must be distinct")
    for v in path_vertices(t, t.mu[i], t.mu[j]):
        if (independence(t, v, i, j) and independence(t, v, i, k)
                and independence(t, v, j, k)):
            return v
    raise TreeError("no pivot vertex found")  # impossible on valid trees


# ---------------------------------------------------------------------------
# contractions

def contract_edges(t: MarkedTree, edges_to_collapse) -> Tuple[MarkedTree, Tuple[int, ...]]:
    """Collapse the given edges; returns (tree, kappa) with kappa old->new."""
    collapse = {tuple(sorted(e)) for e in edges_to_collapse}
    for e in collapse:
        if not t.has_edge(*e):
            raise TreeError("cannot collapse missing edge %r" % (e,))
    parent = list(range(t.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in collapse:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    reps = sorted({find(v) for v in range(t.vertex_count)})
    newid = {r: i for i, r in enumerate(reps)}
    kappa = tuple(newid[find(v)] for v in range(t.vertex_count))
    new_edges = [
        (kappa[u], kappa[v]) for u, v in t.edges if tuple(sorted((u, v))) not in collapse
    ]
    new_mu = {m: kappa[v] for m, v in t.mu.items()}
    if t.is_real:
        new_phi = [0] * len(reps)
        for v in range(t.vertex_count):
            new_phi[kappa[v]] = kappa[t.phi[v]]
        return RealMarkedTree(len(reps), new_edges, new_mu, new_phi), kappa
    return MarkedTree(len(reps), new_edges, new_mu), kappa


def contractions(t: MarkedTree) -> List[Tuple[MarkedTree, Tuple[int, ...]]]:
    """All contractions of t (the set T(Gamma)), including the identity.

    For real trees only phi-invariant edge sets are collapsed, so that the
    collapse map commutes with the involutions.
    """
    if t.is_real:
        orbits = []
        seen = set()
        for u, v in t.edges:
            e = (u, v)
            if e in seen:
                continue
            img = tuple(sorted((t.phi[u], t.phi[v])))
            seen.add(e)
            seen.add(img)
            orbits.append({e, img})
    else:
        orbits = [{e} for e in t.edges]
    out = []
    for r in range(len(orbits) + 1):
        for combo in itertools.combinations(range(len(orbits)), r):
            subset = set().union(*[orbits[i] for i in combo]) if combo else set()
            out.append(contract_edges(t, subset))
    return out


# ---------------------------------------------------------------------------
# enumeration

def _canonical_split_candidates(marks: List) -> List[FrozenSet]:
    """All canonical splits: subsets avoiding the minimal mark, sizes 2..n-2."""
    m0 = marks[0]
    rest = marks[1:]
    n = len(marks)
    out = []
    for r in range(2, n - 1):
        for combo in itertools.combinations(rest, r):
            out.append(frozenset(combo))
    out.sort(key=lambda s: (len(s), [mark_key(m) for m in sort_marks(s)]))
    return out


def _laminar(a: FrozenSet, b: FrozenSet) -> bool:
    return a <= b or b <= a or not (a & b)


def _tree_from_family(marks: List, family: Sequence[FrozenSet]) -> Tuple[int, List[Edge], Dict]:
    sets = sorted(family, key=lambda s: (len(s), [mark_key(m) for m in sort_marks(s)]))
    idx = {s: i + 1 for i, s in enumerate(sets)}
    edges = []
    for s in sets:
        sups = [u for u in sets if s < u]
        parent = idx[min(sups, key=len)] if sups else 0
        edges.append((parent, idx[s]))
    mu = {}
    for m in marks:
        holders = [s for s in sets if m in s]
        mu[m] = idx[min(holders, key=len)] if holders else 0
    return len(sets) + 1, edges, mu


def _phi_from_structure(n: int, edges: List[Edge], mu: Dict) -> List[int]:
    """The unique involution compatible with mark conjugation.

    Conjugating the mark mask of the branch at v through w (the tail side
    of the edge (w, v)) by the bit permutation of bar_mark gives the tail
    side of the image edge, whose head is phi(v).
    """
    if n == 1:
        return [0]
    t = MarkedTree(n, edges, mu)
    bits = t.mark_bits()
    bar_bits = [bits[bar_mark(m)] for m in bits]
    marks = t.split_index()[0]
    heads = {side: v for v in range(n) for side in marks[v]}
    phi = []
    for v in range(n):
        imgs = set()
        for side in marks[v]:
            conj = sum(b for i, b in enumerate(bar_bits) if side >> i & 1)
            if conj not in heads:
                raise TreeError("split system not conjugation-closed")
            imgs.add(heads[conj])
        if len(imgs) != 1:
            raise TreeError("involution not determined")
        phi.append(imgs.pop())
    return phi


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
    cands = _canonical_split_candidates(marks)
    if real:
        # group candidate splits into conjugation orbits
        m0 = marks[0]
        allset = frozenset(marks)

        def conj_split(s):
            sb = frozenset(bar_mark(m) for m in s)
            return sb if m0 not in sb else allset - sb

        pos = {s: i for i, s in enumerate(cands)}
        units: List[Tuple[FrozenSet, ...]] = []
        for i, s in enumerate(cands):
            sb = conj_split(s)
            if pos[sb] < i:
                continue
            if sb == s:
                units.append((s,))
            elif _laminar(s, sb):
                units.append((s, sb))
            # incompatible conjugate pair: orbit can never appear
    else:
        units = [(s,) for s in cands]

    results: List[MarkedTree] = []

    def dfs(start: int, chosen: List[FrozenSet]):
        n, edges, mu = _tree_from_family(marks, chosen)
        if real:
            phi = _phi_from_structure(n, edges, mu)
            results.append(RealMarkedTree(n, edges, mu, phi))
        else:
            results.append(MarkedTree(n, edges, mu))
        for i in range(start, len(units)):
            unit = units[i]
            if all(_laminar(a, b) for a in unit for b in chosen):
                dfs(i + 1, chosen + list(unit))

    dfs(0, [])
    results.sort(key=canonical_form)
    return results


# ---------------------------------------------------------------------------
# canonical form

def _centroids(t: MarkedTree) -> List[int]:
    n = t.vertex_count
    if n == 1:
        return [0]
    adj = t.adjacency()
    size = [1] * n
    order = []
    seen = [False] * n
    stack = [(0, -1)]
    while stack:
        v, p = stack.pop()
        seen[v] = True
        order.append((v, p))
        for w in adj[v]:
            if not seen[w]:
                stack.append((w, v))
    for v, p in reversed(order):
        if p >= 0:
            size[p] += size[v]
    best, cents = None, []
    parent = {v: p for v, p in order}
    for v in range(n):
        heavy = n - size[v]
        for w in adj[v]:
            if w != parent[v]:
                heavy = max(heavy, size[w])
        if best is None or heavy < best:
            best, cents = heavy, [v]
        elif heavy == best:
            cents.append(v)
    return cents


def _ahu(t: MarkedTree, v: int, p: int) -> str:
    marks = ",".join(str(m) for m in t.mu_inv(v))
    kids = sorted(_ahu(t, w, v) for w in t.adjacency()[v] if w != p)
    return "(" + marks + ("|" + ";".join(kids) if kids else "") + ")"


def canonical_form(t: MarkedTree) -> str:
    """Equal strings iff label-preserving isomorphic; stable across runs."""
    body = min(_ahu(t, c, -1) for c in _centroids(t))
    head = "RT" if t.is_real else "T"
    out = "%s%d:%s" % (head, t.l, body)
    if t.is_real:
        # orbit structure of the involution, in canonical vertex encodings
        ids = [_ahu_id(t, v) for v in range(t.vertex_count)]
        pairs = sorted(
            "~".join(sorted((ids[v], ids[t.phi[v]])))
            for v in range(t.vertex_count) if v <= t.phi[v]
        )
        out += "/phi:" + ";".join(pairs)
    return out


def _ahu_id(t: MarkedTree, v: int) -> str:
    """A canonical identifier for a vertex: its sorted branch mark-sets."""
    bits = t.mark_bits()
    parts = [",".join(str(m) for m in t.mu_inv(v))]
    for side in t.split_index()[0][v]:
        parts.append("{" + ",".join(str(m) for m in _marks_of_mask(bits, side)) + "}")
    return "[" + "|".join(sorted(parts)) + "]"


def canonical_vertex_order(t: MarkedTree) -> Dict[int, int]:
    """Relabeling-invariant vertex ranks: BFS from the vertex of the minimal
    mark, children ordered by the minimal mark of their branch (the lowest
    bit of the branch's mark mask).

    Two trees that differ only by a vertex relabeling assign the same rank
    to corresponding vertices, so ranks identify vertices canonically.
    """
    root = t.mu[min(t.mu.keys(), key=mark_key)]
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
