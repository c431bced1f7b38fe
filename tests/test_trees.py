"""Dual-graph trees: enumeration, canonical forms, splits."""

import functools
import gc
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from artifact import curves, strata, trees
from artifact.trees import (
    MarkedTree,
    bar_mark,
    canonical_form,
    canonical_vertex_order,
    complex_marks,
    direction,
    enumerate_trees,
    mark_key,
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
        assert len(ts) == n == trees.stable_tree_count(l)
        assert len({canonical_form(t) for t in ts}) == n

    @pytest.mark.parametrize("l", [-1, 0, 1, 2])
    def test_count_below_three_marks_raises(self, l):
        with pytest.raises(trees.TreeError, match="requires l >= 3"):
            trees.stable_tree_count(l)

    def test_real_counts(self):
        for l, n in [(2, 4), (3, 36), (4, 520), (5, 10_368)]:
            assert len(enumerate_trees(l, real=True)) == n == trees.real_tree_count(l)

    @pytest.mark.parametrize("l", [-1, 0, 1])
    def test_real_count_below_two_pairs_raises(self, l):
        with pytest.raises(trees.TreeError, match="requires l >= 2"):
            trees.real_tree_count(l)

    def test_all_valid(self):
        # enumeration builds its trees unchecked
        for t in enumerate_trees(5) + enumerate_trees(2, real=True):
            assert t._defects() == []

    def test_brute_force_census_l4(self):
        # independent oracle: a 4-marked tree is either the single smooth
        # vertex or one two-vertex tree per 2|2 split; there are 3 splits
        ts = enumerate_trees(4)
        smooth = [t for t in ts if not t.edges]
        nodal = [t for t in ts if t.edges]
        assert len(smooth) == 1 and len(nodal) == 3
        splits = {frozenset(map(str, split_marks(t, t.edges[0])))
                  for t in nodal}
        assert len(splits) == 3

    @pytest.mark.parametrize("l,real", [(5, False), (3, True)])
    def test_no_reference_cycle(self, l, real):
        # the returned trees die with the caller's last reference, without
        # waiting for the cyclic garbage collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            ts = enumerate_trees(l, real=real)
            refs = [weakref.ref(ts[0]), weakref.ref(ts[-1])]
            del ts
            assert [r() for r in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


# the defects of a real tree without phi whose marks 1+, ..., 6+ have no
# conjugates
UNPAIRED = ["mark '%s' has no conjugate partner" % m
            for m in ("1+", "2+", "3+", "4+", "5+", "6+")]
# integer and conjugate-pair marks in one mark set
MIXED = {1: 0, "1+": 0, "2+": 0, 2: 1, "3+": 1, "3-": 1}


class TestMuInv:
    @pytest.mark.parametrize("l,real", [(3, False), (4, False), (5, False), (6, False),
                                        (2, True), (3, True), (4, True)])
    def test_marks_and_valence_at_each_vertex(self, l, real):
        for t in enumerate_trees(l, real=real):
            for v in range(t.vertex_count):
                marks = sort_marks([m for m, w in t.mu.items() if w == v])
                degree = sum(v in e for e in t.edges)
                assert t.mu_inv(v) == marks
                assert t.valence(v) == len(marks) + degree


class TestInvalidTrees:
    """The constructors raise TreeError listing the defects of anything
    but a stable tree."""

    @pytest.mark.parametrize("args,defects", [
        # an edge end out of range: no connectivity walk over it
        ((2, [(0, 5)], {1: 0, 2: 0, 3: 1, 4: 1}), ["bad edge (0,5)"]),
        ((0, [], {}), ["no vertices"]),
        ((3, [(0, 1)], {1: 0, 2: 0, 3: 1, 4: 1}), ["edge count 1 != 2 (not a tree)"]),
        ((3, [(0, 1), (0, 1)], {1: 0, 2: 0, 3: 1, 4: 1, 5: 2}),
         ["duplicate edges", "not connected"]),
        ((2, [(0, 1)], {1: 0, 2: 0, 3: 0, 4: 1}), ["vertex 1 has valence 2 < 3"]),
        # a vertex that is no integer: no connectivity walk, no valence
        ((2, [(0, 1.0)], {1: 0, 2: 0, 3: 1, 4: 1}), ["bad edge (0,1.0)"]),
        ((2, [(0, 1)], {1: 0, 2: 0, 3: 1.5, 4: 1}), ["mark 3 at bad vertex 1.5"]),
        # mark_key ties 1 with "1+", so the mark order would follow the
        # hash seed
        ((2, [(0, 1)], MIXED), ["marks mix integers and conjugate pairs"]),
    ], ids=["bad_edge", "no_vertices", "edge_count", "duplicate", "valence",
            "float_edge_end", "float_mark_vertex", "mixed_kinds"])
    def test_complex(self, args, defects):
        with pytest.raises(trees.TreeError) as err:
            MarkedTree(*args)
        assert str(err.value) == "invalid tree: %r" % (defects,)

    def test_real(self):
        mu = {"1+": 0, "1-": 1, "2+": 0, "2-": 1}
        trees.RealMarkedTree(2, [(0, 1)], mu, [1, 0])  # valid
        with pytest.raises(trees.TreeError) as err:
            trees.RealMarkedTree(2, [(0, 1)], mu, [0, 1])
        assert str(err.value) == "invalid tree: %r" % ([
            "phi(mu('1+')) != mu('1-')", "phi(mu('1-')) != mu('1+')",
            "phi(mu('2+')) != mu('2-')", "phi(mu('2-')) != mu('2+')"],)

    @pytest.mark.parametrize("args,defects", [
        ((2, [(0, 5)], {"1+": 0, "1-": 0, "2+": 1, "2-": 1}), ["bad edge (0,5)"]),
        ((3, [(0, 1)], {"1+": 0, "1-": 0, "2+": 1, "2-": 1, "3+": 2, "3-": 2}),
         ["edge count 1 != 2 (not a tree)"]),
        # valid complex trees whose splits conjugation does not map to splits
        ((2, [(0, 1)], {"1+": 0, "1-": 0, "2+": 0, "2-": 1, "3+": 1, "3-": 1}),
         ["split system not conjugation-closed"]),
        ((3, [(0, 1), (1, 2)], {"1+": 0, "1-": 0, "2+": 0, "2-": 0, "3+": 0,
                                "3-": 1, "4+": 2, "4-": 2}),
         ["split system not conjugation-closed"]),
        # mark sets that are not conjugation-closed: every unpaired mark,
        # wherever the marks sit
        ((2, [(0, 1)], {"1+": 0, "2+": 0, "3+": 0, "4+": 0, "5+": 1, "6+": 1}),
         UNPAIRED),
        ((2, [(0, 1)], {"1+": 0, "2+": 0, "3+": 0, "4+": 1, "5+": 0, "6+": 1}),
         UNPAIRED),
        ((2, [(0, 1)], MIXED), ["marks mix integers and conjugate pairs"]),
    ], ids=["bad_edge", "edge_count", "not_closed", "not_closed_path", "unpaired",
            "unpaired_split", "mixed_kinds"])
    def test_real_without_phi(self, args, defects):
        # phi is derived only from a structure that passes the complex check
        with pytest.raises(trees.TreeError) as err:
            trees.RealMarkedTree(*args)
        assert str(err.value) == "invalid tree: %r" % (defects,)

    def test_mixed_kinds_do_not_depend_on_the_hash_seed(self):
        # with phi, the real checks list the marks in mu's order
        code = ("from artifact import trees\n"
                "for args in ((2, [(0, 1)], %r), (2, [(0, 1)], %r, [1, 0])):\n"
                "    try:\n"
                "        trees.RealMarkedTree(*args)\n"
                "    except trees.TreeError as e:\n"
                "        print(e)\n" % (MIXED, MIXED))
        out = []
        for seed in ("1", "6"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
        assert out[0] == out[1]
        assert out[0].splitlines()[1].startswith(
            "invalid tree: ['marks mix integers and conjugate pairs', "
            "'mark 1 has no conjugate partner', ")

    @pytest.mark.parametrize("mark", ["a+", "+-", "1.0-"])
    def test_pair_mark_with_no_integer_stem(self, mark):
        with pytest.raises(trees.TreeError, match="^%s$" % re.escape("bad mark %r" % (mark,))):
            mark_key(mark)
        with pytest.raises(trees.TreeError, match="^%s$" % re.escape("bad mark %r" % (mark,))):
            MarkedTree(1, [], {mark: 0, "1+": 0, "2+": 0})

    @pytest.mark.parametrize("mark,twin", [("01+", "1+"), (" 1+", "1+"), ("1_0+", "10+"),
                                           ("+2-", "2-")])
    def test_pair_mark_spelt_another_way(self, mark, twin):
        # mark_key ties mark with twin; the mark set is rejected, so no
        # mark order follows the hash seed
        assert mark_key(mark) == mark_key(twin)
        for mu in ({mark: 0, twin: 0, "3+": 0}, {mark: 0, "3+": 0, "4+": 0}):
            with pytest.raises(trees.TreeError, match="^%s$" % re.escape("bad mark %r" % (mark,))):
                MarkedTree(1, [], mu)
        # of two bad marks, the first in string order is named
        first = min(mark, bar_mark(mark))
        with pytest.raises(trees.TreeError, match="^%s$" % re.escape("bad mark %r" % (first,))):
            trees.RealMarkedTree(1, [], {mark: 0, bar_mark(mark): 0, twin: 0,
                                         bar_mark(twin): 0})

    def test_spelt_marks_do_not_depend_on_the_hash_seed(self):
        code = ("from artifact import trees\n"
                "for mu in (%r, %r):\n"
                "    try:\n"
                "        print(trees.MarkedTree(1, [], mu).marks())\n"
                "    except trees.TreeError as e:\n"
                "        print(type(e).__name__, e)\n"
                % ({"1+": 0, "01+": 0, "2+": 0}, {"a+": 0, "1+": 0, "2+": 0}))
        out = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
        assert out == ["TreeError bad mark '01+'\nTreeError bad mark 'a+'\n"] * 3

    def test_from_json(self):
        d = {"v": 1, "l": 4, "real": False, "edges": [[0, 1]],
             "mu": {"1": 0, "2": 0, "3": 0, "4": 1}, "phi": None}
        with pytest.raises(trees.TreeError) as err:
            tree_from_json(d)
        assert str(err.value) == "invalid tree: ['vertex 1 has valence 2 < 3']"
        # a real tree without phi takes it from the structure
        d = {"v": 1, "l": 3, "real": True, "edges": [[0, 1]], "phi": None,
             "mu": {"1+": 0, "1-": 0, "2+": 0, "2-": 1, "3+": 1, "3-": 1}}
        with pytest.raises(trees.TreeError) as err:
            tree_from_json(d)
        assert str(err.value) == "invalid tree: ['split system not conjugation-closed']"
        # and lists the marks without a partner before deriving it
        d["mu"] = {"1+": 0, "2+": 0, "3+": 0, "4+": 1, "5+": 0, "6+": 1}
        with pytest.raises(trees.TreeError) as err:
            tree_from_json(d)
        assert str(err.value) == "invalid tree: %r" % (UNPAIRED,)


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


class TestSplits:
    def test_split_sides_partition(self):
        for t in enumerate_trees(5):
            marks = set(map(str, t.marks()))
            for a, b in t.edges:
                for e in ((a, b), (b, a)):
                    rho = set(map(str, split_marks(t, e)))
                    co = set(map(str, split_marks(t, (e[1], e[0]))))
                    assert rho | co == marks and not (rho & co)

    def test_subtree_split_components(self):
        for t in enumerate_trees(5):
            for a, b in t.edges:
                for u, v in ((a, b), (b, a)):
                    near, far = subtree_split(t, (u, v))
                    assert u in near and v in far
                    assert not (near & far)


class TestGeometryHelpers:
    def test_pivot_and_direction(self):
        for t in enumerate_trees(5):
            # exactly one vertex, the pivot of three marks, sees them in
            # pairwise distinct directions, and it lies on the path
            # between any two of them
            pivots = [v for v in range(t.vertex_count)
                      if len({direction(t, v, m) for m in (1, 2, 3)}) == 3]
            assert len(pivots) == 1
            assert pivots[0] in trees.path_vertices(t, t.mu[1], t.mu[2])

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
            for a, b in t.edges:
                for u, v in ((a, b), (b, a)):
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

    def test_slot_table(self):
        # the layout's row of vertex v, mapped back through its slots, has
        # as entry i ("m", m) at the mark's own vertex, else the sorted
        # edge to the next vertex on the path to it, for the mark m with
        # bit 1 << i; every entry is one of v's own slots
        for name, t in _index_cases():
            lay = curves.slot_layout(t)
            rows = lay.rows
            marks = t.marks()
            assert [t.mark_bits()[m] for m in marks] == [1 << i for i in range(len(marks))]
            assert len(rows) == t.vertex_count, name
            for v in range(t.vertex_count):
                assert len(rows[v]) == len(marks), (name, v)
                for i, m in enumerate(marks):
                    assert lay.vertex[rows[v][i]] == v, (name, v, m)
                    w = t.mu[m]
                    want = ("m", m) if w == v else curves._edge_slot(
                        (v, _bfs_path(t, v, w)[1]))
                    d = direction(t, v, m)
                    assert lay.slots[rows[v][i]] == want == (
                        d if d[0] == "m" else curves._edge_slot(d[1])), (name, v, m)

    def test_phi_from_splits(self):
        for name, t in _index_cases():
            if t.is_real:
                got = trees._phi_from_structure(
                    trees.MarkedTree(t.vertex_count, t.edges, t.mu))
                assert tuple(got) == t.phi, name

    def test_stratum_edge(self):
        for name, t in _index_cases():
            splits = {}
            for a, b in t.edges:
                for u, v in ((a, b), (b, a)):
                    side = _bfs_side(t, u, v)
                    splits[frozenset(m for m, w in t.mu.items() if w in side)] = (u, v)
            marks = t.marks()
            for r in range(len(marks) + 1):
                for rho in itertools.combinations(marks, r):
                    assert strata.stratum_edge(t, rho) == splits.get(
                        frozenset(rho)), (name, rho)
            assert strata.stratum_edge(t, [marks[0], "9+" if t.is_real else 99]) is None


# reference canonical form: the AHU string written at each centroid by a
# recursive walk, with no shared traversal and no text table

def _ref_centroids(adj):
    n = len(adj)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    heavy = [max([n - size[v]] + [size[w] for w in adj[v] if w != parent[v]])
             for v in range(n)]
    return [v for v in range(n) if heavy[v] == min(heavy)]


def _ref_ahu(adj, here, v, p):
    kids = sorted([_ref_ahu(adj, here, w, v) for w in adj[v] if w != p])
    return "(" + here[v] + ("|" + ";".join(kids) if kids else "") + ")"


def _ref_canonical_form(t):
    n = t.vertex_count
    bits = t.mark_bits()
    at = [[] for _ in range(n)]
    for m in bits:
        at[t.mu[m]].append(str(m))
    here = [",".join(a) for a in at]
    adj = t.adjacency()
    body = min(_ref_ahu(adj, here, c, -1) for c in _ref_centroids(adj))
    out = "%s%d:%s" % ("RT" if t.is_real else "T", t.l, body)
    if t.is_real:
        sides = t.split_index()[0]
        ids = ["[" + "|".join(sorted([here[v]] + [
                   "{" + ",".join(map(str, trees._marks_of_mask(bits, s))) + "}"
                   for s in sides[v]])) + "]"
               for v in range(n)]
        out += "/phi:" + ";".join(sorted(
            "~".join(sorted((ids[v], ids[t.phi[v]]))) for v in range(n) if v <= t.phi[v]))
    return out


class TestCanonicalReference:
    """canonical_form against the reference on every complex l = 4..7 and
    real l = 2..4 tree, and on randomly relabelled copies of each tree
    with two centroids, where the form takes the smaller of two strings
    and a centroid other than vertex 0 is re-rooted."""

    @pytest.mark.parametrize("l,real", [(4, False), (5, False), (6, False), (7, False),
                                        (2, True), (3, True), (4, True)])
    def test_matches_reference(self, l, real):
        rnd = random.Random("canonical:%d:%s" % (l, real))
        two = 0
        for t in enumerate_trees(l, real=real):
            want = _ref_canonical_form(t)
            assert canonical_form(t) == want
            if len(_ref_centroids(t.adjacency())) == 2:
                two += 1
                for _copy in range(3):
                    perm = list(range(t.vertex_count))
                    rnd.shuffle(perm)
                    t2 = _relabel(t, perm)
                    assert _ref_canonical_form(t2) == want
                    assert canonical_form(t2) == want
        assert two > 0


FAMILY_CASES = [(4, False), (5, False), (6, False), (7, False),
                (2, True), (3, True), (4, True), (5, True)]


class TestFromFamily:
    """enumerate_trees reads each tree's phi and canonical form off the
    state its search carries for the tree's family of splits; these must
    equal what the tree's own structure gives, and no enumerated tree may
    keep an adjacency or index, or any of the search's state."""

    @pytest.mark.parametrize("l,real", FAMILY_CASES)
    def test_no_adjacency_or_index_kept(self, l, real):
        for t in enumerate_trees(l, real=real):
            assert t._adj is None and t._index is None

    @pytest.mark.parametrize("l,real", FAMILY_CASES)
    def test_holds_only_its_own_attributes(self, l, real):
        want = {"vertex_count", "edges", "mu", "_adj", "_bits", "_index", "_canon"}
        if real:
            want.add("phi")
        for t in enumerate_trees(l, real=real):
            assert set(vars(t)) == want

    # complex l = 8 is the first size with six-vertex trees
    @pytest.mark.parametrize("l,real", FAMILY_CASES + [(8, False)])
    def test_form_equals_rebuilt_tree_form(self, l, real):
        for t in enumerate_trees(l, real=real):
            args = (t.vertex_count, t.edges, t.mu) + ((t.phi,) if real else ())
            t2 = type(t)(*args)  # checked constructor: canonical_form traverses
            assert t2._canon is None
            assert canonical_form(t2) == t._canon

    @pytest.mark.parametrize("l,real", FAMILY_CASES)
    def test_edges_kept_as_the_checked_tree_keeps_them(self, l, real):
        # enumeration hands MarkedTree._of its edges unnormalised
        for t in enumerate_trees(l, real=real):
            assert t.edges == tuple(sorted(tuple(sorted(e)) for e in t.edges))
            args = (t.vertex_count, t.edges, t.mu) + ((t.phi,) if real else ())
            assert type(t)(*args) == t

    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_phi_equals_phi_from_structure(self, l):
        for t in enumerate_trees(l, real=True):
            assert t.phi == tuple(trees._phi_from_structure(t))


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
    (8, False): (
        "d131ffcc2d1a2a7c4157052e3ddb78c3b5fce530e28553e9b8f4018b8d33a70e",
        "5145fe197363bb1d2cfdb6791e123d1f8c3bdd951a6899e4fd34195071e36690"),
    (3, True): (
        "50a708cddae9273c8dd37ffa4d2f57a72e771c5186514ac5b11fac322796ecdb",
        "a40e3246a80be8c0d63842ba5965ef3078a202ef4b967eea709cf480c21391eb"),
    (4, True): (
        "ec5f97875766f3efc96fbcff008725675c6c57a1bffe284a2941ceb2a819b374",
        "a1bded9ccb3cfe9af87acf03dc6baa552a234085752a92c83463381051e7aeff"),
    (5, True): (
        "1473acae98162bc10f95465408730d0c6b226fdd342ea82329e888e640330e66",
        "79f6d0c00ec0f24f78d060a9e4e83ecf9623daee8213c44a423e585fc37f6560"),
}


def _digests(ts):
    forms = "\n".join(canonical_form(t) for t in ts)
    blobs = "\n".join(json.dumps(t.to_json(), sort_keys=True) for t in ts)
    return (hashlib.sha256(forms.encode()).hexdigest(),
            hashlib.sha256(blobs.encode()).hexdigest())


@pytest.mark.parametrize("l,real", sorted(ENUMERATION_DIGESTS))
def test_enumeration_pinned(l, real):
    assert _digests(enumerate_trees(l, real=real)) == ENUMERATION_DIGESTS[(l, real)]


class TestKeptTables:
    """enumerate_trees keeps its search tables, text tables and edge sets
    per size; what it keeps must not leak from one call into another."""

    @pytest.mark.parametrize("l,real", [(7, False), (4, True)])
    def test_calls_return_equal_but_distinct_trees(self, l, real):
        a, b = enumerate_trees(l, real=real), enumerate_trees(l, real=real)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x is not y and x.mu is not y.mu
            assert (x.edges, x.mu, x.phi) == (y.edges, y.mu, y.phi)
            assert canonical_form(x) == canonical_form(y)

    @pytest.mark.parametrize("l,real", [(6, False), (3, True)])
    def test_lazy_tables_stay_on_their_tree(self, l, real):
        a, b = enumerate_trees(l, real=real), enumerate_trees(l, real=real)
        for x in a:
            x.split_index()
            curves.slot_layout(x)
        for x, y in zip(a, b):
            assert x._index is not None and x._layout is not None
            assert y._adj is None and y._index is None and y._layout is None

    def test_interleaved_sizes_match_the_pins(self):
        for l, real in [(7, False), (4, True), (7, False), (5, True)]:
            assert _digests(enumerate_trees(l, real=real)) == ENUMERATION_DIGESTS[(l, real)]

    @pytest.mark.parametrize("l,real", FAMILY_CASES)
    def test_edge_pairs_are_shared(self, l, real):
        ts = enumerate_trees(l, real=real)
        pairs = [e for t in ts for e in t.edges]
        # every tree is alive, so equal ids are one object
        assert len({id(e) for e in pairs}) == len(set(pairs))
        assert len({id(t.edges) for t in ts}) == len({t.edges for t in ts})


class TestSerialization:
    def test_json_round_trip(self):
        for t in enumerate_trees(5)[:10] + enumerate_trees(2, real=True):
            t2 = tree_from_json(t.to_json())
            assert canonical_form(t2) == canonical_form(t)
