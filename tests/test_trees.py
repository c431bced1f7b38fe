"""Dual-graph trees: enumeration, canonical forms, splits, contractions."""

import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from artifact import strata, trees
from artifact.trees import (
    MarkedTree,
    bar_mark,
    canonical_form,
    canonical_vertex_order,
    complex_marks,
    contractions,
    direction,
    enumerate_trees,
    independence,
    mark_key,
    pivot_vertex,
    real_marks,
    sort_marks,
    split_marks,
    subtree_split,
    tree_from_json,
)


class TestMarks:
    def test_ordering(self):
        assert sort_marks(["2-", "1-", "2+", "1+"]) == ["1+", "1-", "2+", "2-"]
        assert sort_marks([3, 1, 2]) == [1, 2, 3]

    def test_bar(self):
        assert bar_mark("3+") == "3-" and bar_mark("3-") == "3+"
        assert bar_mark(5) == 5

    def test_universes(self):
        assert complex_marks(4) == [1, 2, 3, 4]
        assert real_marks(2) == ["1+", "1-", "2+", "2-"]


KNOWN_COUNTS = {4: 4, 5: 26, 6: 236, 7: 2752}


class TestEnumeration:
    @pytest.mark.parametrize("l,n", sorted(KNOWN_COUNTS.items()))
    def test_complex_counts(self, l, n):
        ts = enumerate_trees(l)
        assert len(ts) == n
        assert len({canonical_form(t) for t in ts}) == n

    def test_real_counts(self):
        assert len(enumerate_trees(2, real=True)) == 4
        assert len(enumerate_trees(3, real=True)) == 36

    def test_all_valid(self):
        for t in enumerate_trees(5) + enumerate_trees(2, real=True):
            assert t.validate() == []

    def test_brute_force_census_l4(self):
        # independent oracle: a 4-marked tree is either the single smooth
        # vertex or one two-vertex tree per 2|2 split; there are 3 splits
        ts = enumerate_trees(4)
        smooth = [t for t in ts if not t.edges]
        nodal = [t for t in ts if t.edges]
        assert len(smooth) == 1 and len(nodal) == 3
        splits = {frozenset(map(str, split_marks(t, t.oriented_edges()[0])))
                  for t in nodal}
        assert len(splits) == 3


def _relabel(t: MarkedTree, perm):
    d = t.to_json()
    d["edges"] = [[perm[u], perm[v]] for u, v in d["edges"]]
    d["mu"] = {m: perm[v] for m, v in d["mu"].items()}
    if "phi" in d and d["phi"] is not None:
        phi = d["phi"]
        new_phi = list(range(len(phi)))
        for v, w in enumerate(phi):
            new_phi[perm[v]] = perm[w]
        d["phi"] = new_phi
    return tree_from_json(d)


class TestCanonical:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 25), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, idx, rnd):
        t = enumerate_trees(5)[idx]
        n = len(t.adjacency())
        perm = list(range(n))
        rnd.shuffle(perm)
        t2 = _relabel(t, perm)
        assert canonical_form(t2) == canonical_form(t)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 25), st.randoms(use_true_random=False))
    def test_vertex_order_invariance(self, idx, rnd):
        t = enumerate_trees(5)[idx]
        n = len(t.adjacency())
        perm = list(range(n))
        rnd.shuffle(perm)
        t2 = _relabel(t, perm)
        o1 = canonical_vertex_order(t)
        o2 = canonical_vertex_order(t2)
        # ranks must transport along the relabeling
        assert all(o2[perm[v]] == o1[v] for v in o1)

    def test_distinct_trees_distinct_forms(self):
        forms = [canonical_form(t) for t in enumerate_trees(6)]
        assert len(set(forms)) == len(forms)


class TestSplitsAndContractions:
    def test_split_sides_partition(self):
        for t in enumerate_trees(5):
            marks = set(map(str, t.marks()))
            for e in t.oriented_edges():
                rho = set(map(str, split_marks(t, e)))
                co = set(map(str, split_marks(t, (e[1], e[0]))))
                assert rho | co == marks and not (rho & co)

    def test_contractions_are_valid_and_coarser(self):
        for t in enumerate_trees(5):
            got = contractions(t)
            # identity contraction included; the rest strictly coarser
            assert len(got) == 2 ** len(t.edges)
            for t2, _ in got:
                assert t2.validate() == []
                assert len(t2.edges) <= len(t.edges)

    def test_subtree_split_components(self):
        for t in enumerate_trees(5):
            for u, v in t.oriented_edges():
                near, far = subtree_split(t, (u, v))
                assert u in near and v in far
                assert not (near & far)


class TestGeometryHelpers:
    def test_pivot_and_direction(self):
        for t in enumerate_trees(5):
            # the pivot of three marks sees them in pairwise distinct
            # directions
            v = pivot_vertex(t, 1, 2, 3)
            dirs = {direction(t, v, m) for m in (1, 2, 3)}
            assert len(dirs) == 3
            assert independence(t, v, 1, 2)

    def test_real_structure(self):
        for t in enumerate_trees(3, real=True):
            phi = t.phi
            # the involution is a tree automorphism compatible with bars
            for m, v in t.mu.items():
                assert t.mu[bar_mark(m)] == phi[v]
            for u, v in t.edges:
                assert t.has_edge(phi[u], phi[v])


# brute-force references: plain graph searches over the edge list, with no
# use of the split-mask index

def _bfs_side(t, u, v):
    """Vertices reachable from u without crossing the edge (u, v)."""
    side, stack = {u}, [u]
    while stack:
        a = stack.pop()
        for x, y in t.edges:
            for b, c in ((x, y), (y, x)):
                if b == a and c not in side and (b, c) != (u, v):
                    side.add(c)
                    stack.append(c)
    return side


def _bfs_path(t, a, b):
    prev, queue = {a: None}, [a]
    for x in queue:
        for p, q in t.edges:
            for c, d in ((p, q), (q, p)):
                if c == x and d not in prev:
                    prev[d] = x
                    queue.append(d)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


@functools.lru_cache(maxsize=None)
def _index_cases():
    rnd = random.Random(3)
    out = []
    for l, real in ((3, False), (4, False), (5, False), (6, False),
                    (2, True), (3, True)):
        for idx, t in enumerate(enumerate_trees(l, real=real)):
            perm = list(range(t.vertex_count))
            rnd.shuffle(perm)
            out.append(("%s%d-%d" % ("r" if real else "c", l, idx), t))
            out.append(("%s%d-%d-relabeled" % ("r" if real else "c", l, idx),
                        _relabel(t, perm)))
    return tuple(out)


class TestSplitIndex:
    """Index-derived queries against the brute-force graph searches, on every
    complex l = 3..6 and real l = 2..3 tree and a relabeled copy of each."""

    def test_sides_and_marks(self):
        for name, t in _index_cases():
            n = t.vertex_count
            for u, v in t.oriented_edges():
                side = _bfs_side(t, u, v)
                assert subtree_split(t, (u, v)) == (
                    frozenset(side), frozenset(range(n)) - side), name
                assert split_marks(t, (u, v)) == frozenset(
                    m for m, w in t.mu.items() if w in side), name

    def test_missing_edge_rejected(self):
        for name, t in _index_cases():
            for u, v in itertools.permutations(range(t.vertex_count), 2):
                if not t.has_edge(u, v):
                    with pytest.raises(trees.TreeError):
                        split_marks(t, (u, v))

    def test_has_edge(self):
        for name, t in _index_cases():
            n = t.vertex_count
            for u, v in itertools.product(range(-1, n + 1), repeat=2):
                want = (min(u, v), max(u, v)) in t.edges
                assert t.has_edge(u, v) == want, (name, u, v)

    def test_paths_and_directions(self):
        for name, t in _index_cases():
            n = t.vertex_count
            for a, b in itertools.product(range(n), repeat=2):
                assert trees.path_vertices(t, a, b) == _bfs_path(t, a, b), name
            for v in range(n):
                for m, w in t.mu.items():
                    want = ("m", m) if w == v else ("e", (v, _bfs_path(t, v, w)[1]))
                    assert direction(t, v, m) == want, (name, v, m)

    def test_phi_from_splits(self):
        for name, t in _index_cases():
            if t.is_real:
                got = trees._phi_from_structure(t.vertex_count, t.edges, t.mu)
                assert tuple(got) == t.phi, name

    def test_stratum_edge(self):
        for name, t in _index_cases():
            splits = {}
            for u, v in t.oriented_edges():
                side = _bfs_side(t, u, v)
                splits[frozenset(m for m, w in t.mu.items() if w in side)] = (u, v)
            marks = t.marks()
            for r in range(len(marks) + 1):
                for rho in itertools.combinations(marks, r):
                    assert strata.stratum_edge(t, rho) == splits.get(
                        frozenset(rho)), (name, rho)
            assert strata.stratum_edge(t, [marks[0], "9+" if t.is_real else 99]) is None


# sha256 of the canonical forms and of the JSON of enumerate_trees(l, real),
# one line per tree; test seeds index trees by position, so these pin the
# enumeration order as well as the trees
ENUMERATION_DIGESTS = {
    (5, False): (
        "f7eedc93bd0f02b5f3ecc42f3ab081059fcede353b34ffc3dd5b0b79652a3f07",
        "aeddef21f3c9d6fb87488698945230978c95ad787e1ebbf8d11ddd72f9d65a01"),
    (6, False): (
        "35c951d223af95cf25476daa1f18e7b237ad612e0535670e2a8e85147f64c513",
        "a06a391dc97bd70aa247e6e318dc06dbcaffc06b75a342e36617ffef850b32fe"),
    (7, False): (
        "dc14edb5e8c2de1408d28c62c79432cdb9f1e99cfa14a1d281353e3353e82634",
        "38263d442db2bf318b1beecd3bba76c6b619627de6078af227e4fc366bbe17cf"),
    (3, True): (
        "50a708cddae9273c8dd37ffa4d2f57a72e771c5186514ac5b11fac322796ecdb",
        "a40e3246a80be8c0d63842ba5965ef3078a202ef4b967eea709cf480c21391eb"),
    (4, True): (
        "ec5f97875766f3efc96fbcff008725675c6c57a1bffe284a2941ceb2a819b374",
        "a1bded9ccb3cfe9af87acf03dc6baa552a234085752a92c83463381051e7aeff"),
}


@pytest.mark.parametrize("l,real", sorted(ENUMERATION_DIGESTS))
def test_enumeration_pinned(l, real):
    ts = enumerate_trees(l, real=real)
    forms = "\n".join(canonical_form(t) for t in ts)
    blobs = "\n".join(json.dumps(t.to_json(), sort_keys=True) for t in ts)
    assert (hashlib.sha256(forms.encode()).hexdigest(),
            hashlib.sha256(blobs.encode()).hexdigest()) == ENUMERATION_DIGESTS[(l, real)]


class TestSerialization:
    def test_json_round_trip(self):
        for t in enumerate_trees(5)[:10] + enumerate_trees(2, real=True):
            t2 = tree_from_json(t.to_json())
            assert canonical_form(t2) == canonical_form(t)
