"""Gluing relations, closure classes, chart class keys, boundary images."""

import hashlib
import json
import random
import re

import pytest

from artifact import charts, curves, quotient, strata, trees
from artifact.charts import ChartDomainError
from artifact.curves import (
    cross_ratio_q,
    in_D_tilde,
    in_divisor,
    moduli_key,
    sample_curve,
)
from artifact.exactfield import PP_INF, GaussRat, ProjPoint, pp
from artifact.quotient import (
    QuotientError,
    add_mark,
    base_of,
    bubble_at_mark,
    class_key,
    equivalent,
    excluded_labels,
    fiber_samples,
    mark_at_node,
    relation_closure,
    relation_labels,
    verify_injectivity,
    y_membership,
)


def tree_with_split(l, rho, real=False):
    rho = frozenset(rho)
    for t in trees.enumerate_trees(l, real=real):
        if len(t.edges) == 1 and strata.stratum_edge(t, rho) is not None:
            return t
    raise AssertionError("no such tree")


RHO = frozenset({1, 2})


@pytest.fixture(scope="module")
def boundary_base():
    t = tree_with_split(4, RHO)
    return sample_curve(t, 30, ("ybase",))


@pytest.fixture(scope="module")
def engineered_triple(boundary_base):
    c = boundary_base
    e = strata.stratum_edge(c.tree, RHO)
    node_v = [v for v in range(len(c.tree.adjacency()))
              if ("m", 3) in c.coords[v]][0]
    chain = mark_at_node(c, e, pp(7))
    generic = add_mark(c, node_v, pp(9))
    bubble = bubble_at_mark(c, 3, pp(5))
    return chain, generic, bubble


class TestBuilders:
    def test_all_valid_and_same_base(self, boundary_base, engineered_triple):
        for x in engineered_triple:
            assert x.validate() == []
            assert moduli_key(base_of(x)) == moduli_key(boundary_base)

    def test_memberships(self, engineered_triple):
        chain, generic, bubble = engineered_triple
        # chain: the new mark sits at the node, so both splits appear
        assert in_divisor(chain, RHO)
        assert in_divisor(chain, RHO | {5})
        # generic: only the original node
        assert in_divisor(generic, RHO)
        assert not in_divisor(generic, RHO | {5})
        # bubble at mark 3: original node plus the {3,5}-bubble
        assert in_divisor(bubble, RHO)
        assert in_divisor(bubble, frozenset({1, 2, 4}))
        assert not in_divisor(bubble, RHO | {5})


class TestYIdentities:
    def test_y_membership_flags(self, engineered_triple):
        chain, generic, bubble = engineered_triple
        assert y_membership(chain, RHO, "0") and y_membership(chain, RHO, "+")
        assert y_membership(generic, RHO, "0") and not y_membership(generic, RHO, "+")
        assert y_membership(bubble, RHO, "0") and not y_membership(bubble, RHO, "+")

    def test_intersection_characterization(self, engineered_triple):
        # a point of the boundary image lies in the deeper piece iff its
        # closure class contains both a node-chain and per-i bubble
        # representatives; here the three representatives are equivalent
        chain, generic, bubble = engineered_triple
        assert equivalent(chain, generic, RHO)
        assert equivalent(chain, bubble, RHO)
        assert equivalent(generic, bubble, RHO)
        # bubble at i=3 realizes membership in the i-slice divisor
        assert in_divisor(bubble, frozenset({1, 2, 4}))

    def test_class_keys_agree(self, engineered_triple):
        chain, generic, bubble = engineered_triple
        k = [class_key(x, ()) for x in engineered_triple]
        assert k[0] == k[1] == k[2]

    def test_deep_cut_excludes_fiber(self, engineered_triple):
        # at the deepest cut the fiber over this boundary base is excluded
        rho_max = max((lab.rho_set for lab in strata.build_a_ell(4)),
                      key=strata.order_key)
        for x in engineered_triple:
            with pytest.raises(ChartDomainError):
                class_key(x, rho_max)


class TestRelationClosure:
    def test_equivalence_needs_shared_base(self):
        t = tree_with_split(4, RHO)
        a = sample_curve(t, 30, ("cl", 0))
        b = sample_curve(t, 30, ("cl", 1))
        ea = strata.stratum_edge(a.tree, RHO)
        eb = strata.stratum_edge(b.tree, RHO)
        xa = mark_at_node(a, ea, pp(7))
        xb = mark_at_node(b, eb, pp(7))
        if moduli_key(base_of(xa)) != moduli_key(base_of(xb)):
            assert not equivalent(xa, xb, RHO)

    def test_closure_partitions(self, boundary_base):
        import random

        rng = random.Random("closure")
        samples = fiber_samples(boundary_base, rng)
        classes = relation_closure(samples, ())
        seen = sorted(i for cl in classes for i in cl)
        assert seen == list(range(len(samples)))

    def test_relation_labels_ordering(self):
        labs = relation_labels(4, RHO)
        key0 = strata.order_key(RHO)
        assert all(strata.order_key(r) > key0 for r in labs)


class TestInjectivity:
    def test_complex_l4_smooth_tree(self):
        t = [x for x in trees.enumerate_trees(4) if not x.edges][0]
        rep = verify_injectivity(t, (), n_samples=40, seed=11)
        assert rep["key_collisions_across_classes"] == 0
        assert rep["intra_class_key_splits"] == 0
        assert rep["samples"] >= 40

    def test_complex_l4_nodal_with_cut(self):
        t = tree_with_split(4, RHO)
        rep = verify_injectivity(t, RHO, n_samples=40, seed=12)
        assert rep["key_collisions_across_classes"] == 0
        assert rep["intra_class_key_splits"] == 0

    def test_real_l2(self):
        t = trees.enumerate_trees(2, real=True)[0]
        rep = verify_injectivity(t, (), n_samples=40, seed=13, real=True)
        assert rep["key_collisions_across_classes"] == 0
        assert rep["intra_class_key_splits"] == 0

    def test_real_flag_mismatch(self):
        t = trees.enumerate_trees(4)[0]
        with pytest.raises(QuotientError):
            verify_injectivity(t, (), real=True)


# sha256 over enumerate_trees(l, real) and every cut (the empty one and
# each scheduled label) of a_gamma, v_gamma and excluded_labels at each
# admissible vertex, one JSON line per (tree, cut); pinned while they were
# computed from split_marks and subtree_split
CHART_LABEL_DIGESTS = {
    (6, False): "f4a14f98c60f59a55ed50746c145ac8b8981f1740b95b0353e894abb39846615",
    (3, True): "b6c5837fe746706fbc34075f49e170fcf268abb38b82869e89bd86633dec9c20",
}


def _labels_text(labels):
    return [[str(m) for m in trees.sort_marks(rho)] for rho in labels]


class TestExcludedLabels:
    def test_worked_example(self):
        # on the {1,2}|{3,4} tree at the deepest cut, the label {1,2}
        # is excluded at the far-side vertex
        t = tree_with_split(4, RHO)
        rho_max = max((lab.rho_set for lab in strata.build_a_ell(4)),
                      key=strata.order_key)
        vp = charts.v_gamma(t, rho_max)[0]
        labels = excluded_labels(t, vp, rho_max)
        assert any(r in (RHO, frozenset({3, 4})) for r in labels)

    @pytest.mark.parametrize("l,real", sorted(CHART_LABEL_DIGESTS))
    def test_chart_labels_pinned(self, l, real):
        cuts = strata.build_a_ell_real(l)[1] if real else strata.build_a_ell(l)
        cuts = [frozenset()] + [s.rho_set for s in cuts]
        h = hashlib.sha256()
        for t in trees.enumerate_trees(l, real=real):
            for cut in cuts:
                labels = charts.a_gamma(t, cut)
                verts = charts.v_gamma(t, cut)
                line = json.dumps([
                    _labels_text(rho for rho, _e in labels),
                    [list(e) for _rho, e in labels],
                    verts,
                    [_labels_text(excluded_labels(t, v, cut)) for v in verts],
                ])
                h.update(line.encode() + b"\n")
        assert h.hexdigest() == CHART_LABEL_DIGESTS[(l, real)]


class TestRealDTilde:
    def test_double_prime_union(self):
        # membership in the double-prime locus is the union of the plain
        # and minus-mark-extended divisors
        for idx, t in enumerate(trees.enumerate_trees(3, real=True)):
            c = sample_curve(t, 30, ("dp", idx))
            for lab in strata.build_a_ell_real(2)[0]:
                rho = lab.rho_set
                lhs = in_D_tilde(c, rho, '"')
                rhs = in_divisor(c, rho) or in_divisor(c, rho | {"3-"})
                assert lhs == rhs


# ---------------------------------------------------------------------------
# memoised bases, moduli keys and chart plans

def _relabel_curve(c, perm):
    """The same curve with vertex v renamed perm[v]."""
    d = c.to_json()
    d["edges"] = [sorted((perm[u], perm[v])) for u, v in d["edges"]]
    d["mu"] = {m: perm[v] for m, v in d["mu"].items()}
    if d["phi"] is not None:
        phi = [0] * len(d["phi"])
        for v, w in enumerate(d["phi"]):
            phi[perm[v]] = perm[w]
        d["phi"] = phi
    coords = {}
    for vs, cv in d["coords"].items():
        out = {}
        for key, lit in cv.items():
            if key.startswith("edge:"):
                a, b = sorted(perm[int(x)] for x in key[5:].split("-"))
                key = "edge:%d-%d" % (a, b)
            out[key] = lit
        coords[str(perm[int(vs)])] = out
    d["coords"] = coords
    return curves.curve_from_json(d)


def _memo_cases():
    """Seeded (tree, cut, real, samples) cases: four real l=3 and three
    complex l=5 trees, with fiber samples over two bases each, so that
    samples of one case share their trees but not their bases."""
    real_ts = trees.enumerate_trees(3, real=True)
    real_cuts = [frozenset()] + [s.rho_set for s in strata.build_a_ell_real(3)[1]]
    cx_ts = trees.enumerate_trees(5)
    cx_cuts = [frozenset()] + [s.rho_set for s in strata.build_a_ell(5)]
    picks = [(real_ts[i], real_cuts[j], True) for i, j in
             ((0, 0), (7, 5), (20, 13), (35, 19))]
    picks += [(cx_ts[i], cx_cuts[j], False) for i, j in ((0, 3), (12, 7), (25, 10))]
    out = []
    for idx, (t, rho, real) in enumerate(picks):
        rng = random.Random("memo:%d" % idx)
        samples = []
        for k in range(2):
            base = sample_curve(t, 40, ("memo", idx, k))
            samples += fiber_samples(base, rng, per_site=1, bound=40)
        out.append((t, rho, real, samples))
    return out


def _key_text(c, rho, real, rank=None):
    try:
        k = class_key(c, rho, real=real, v_plus_rank=rank)
    except (ChartDomainError, QuotientError) as e:
        return type(e).__name__
    return json.dumps(k.to_json(), sort_keys=True)


def _sample_record(c, rho, real):
    return "\n".join([
        moduli_key(c),
        json.dumps(base_of(c).to_json(), sort_keys=True),
        moduli_key(base_of(c)),
        _key_text(c, rho, real),
    ])


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# computed with the code before bases, moduli keys and chart plans were
# memoised
MEMO_CASES_DIGEST = "62674c881be063b0d03e329797e06d3505d2b444258836d3d9b68a352d91d2e4"
RELABELLED_DIGEST = "8a75d43334d2866b9248e5ee2aaf7eac8ed4ded9553b4192f610080fca12cb0b"
FIBER_KEYS_DIGEST = "35305790c6b7afc307e897a0520008a4ba7fa913ec25978b6549531352aca1ea"


@pytest.fixture(scope="module")
def memo_cases():
    return _memo_cases()


class TestMemoEquivalence:
    def test_warm_equals_fresh(self, memo_cases):
        lines = []
        for _t, rho, real, samples in memo_cases:
            for c in samples:
                warm = [_sample_record(c, rho, real) for _ in range(2)]
                fresh = _sample_record(curves.curve_from_json(c.to_json()), rho, real)
                assert warm[0] == warm[1] == fresh
                assert base_of(c) is base_of(c)
                lines.append(fresh)
        assert _digest(lines) == MEMO_CASES_DIGEST

    def test_relabelled_base_tree(self, memo_cases):
        # a relabelled base has another labelled tree, so another plan;
        # the chart basis follows the vertex numbering, so the keys are
        # pinned rather than compared with the unrelabelled ones
        rnd = random.Random("memo-relabel")
        lines = []
        for _t, rho, real, samples in memo_cases:
            for c in samples[::3]:
                perm = list(range(c.tree.vertex_count))
                rnd.shuffle(perm)
                c2 = _relabel_curve(c, perm)
                assert c2.validate() == []
                assert moduli_key(c2) == moduli_key(c)
                lines.append(_sample_record(c2, rho, real))
        assert _digest(lines) == RELABELLED_DIGEST

    def test_closure_matches_pairwise_relations(self, memo_cases):
        # union-find over moduli_key equality and equivalent() at every
        # active label, pair by pair
        multi = 0
        for _t, rho, real, samples in memo_cases:
            labels = relation_labels(samples[0].tree.l - 1, rho, real)
            parent = list(range(len(samples)))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for j, cj in enumerate(samples):
                for i in range(j):
                    ci = samples[i]
                    if (moduli_key(ci) == moduli_key(cj)
                            or any(equivalent(ci, cj, r, real) for r in labels)):
                        parent[find(j)] = find(i)
            want = {}
            for i in range(len(samples)):
                want.setdefault(find(i), []).append(i)
            got = relation_closure(samples, rho, real=real)
            assert sorted(got) == sorted(want.values())
            multi += sum(1 for cls in got if len(cls) > 1)
        assert multi == 23

    def test_fiber_curves_over_another_base(self, engineered_triple):
        # verify a case first, so another tree already holds plans
        t = trees.enumerate_trees(4)[0]
        verify_injectivity(t, (), n_samples=10, seed=3)
        lines = []
        labels = [()] + [s.rho_set for s in strata.build_a_ell(4)]
        for c in engineered_triple:
            for rho in labels:
                for rank in (None, 0, 1, 2):
                    lines.append(_key_text(c, rho, False, rank))
        assert _digest(lines) == FIBER_KEYS_DIGEST

    def test_absent_rank_raises_every_time(self, engineered_triple):
        c = engineered_triple[0]
        for _ in range(3):
            with pytest.raises(QuotientError):
                class_key(c, (), v_plus_rank=99)
        assert class_key(c, (), v_plus_rank=0).v_rank == 0

    def test_plans_built_once_and_freed_with_the_tree(self, monkeypatch):
        import gc
        import weakref

        made = []
        make = quotient._make_plan

        def counting(t, *key):
            made.append((id(t), key))
            return make(t, *key)

        monkeypatch.setattr(quotient, "_make_plan", counting)
        cuts = [frozenset()] + [s.rho_set for s in strata.build_a_ell_real(3)[1][:2]]
        gc.collect()
        gc.disable()
        try:
            # a tree that no fixture of this module samples on
            ts = trees.enumerate_trees(3, real=True)
            t = ts[12]
            del ts
            for seed in range(2):
                for cut in cuts:
                    verify_injectivity(t, cut, n_samples=20, seed=seed, real=True)
            # one plan per cut, built on t, which the bases of every call share
            assert made == [(id(t), (cut, None)) for cut in cuts]
            refs = [weakref.ref(t)] + [weakref.ref(p) for p in t._chart_plans.values()]
            # the plans go with the last reference to the tree, with no
            # collection
            del t
            assert [r() for r in refs] == [None] * (len(cuts) + 1)
        finally:
            gc.enable()


class TestInadmissibleVPlus:
    # the {1,2,3}|{4,5} tree at the cut {1,2}: only vertex 0 is admissible
    T = trees.enumerate_trees(5)[1]
    CUT = frozenset({1, 2})

    def test_fails_before_sampling(self, monkeypatch):
        assert charts.v_gamma(self.T, self.CUT) == [0]

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking v_plus")

        monkeypatch.setattr(quotient, "sample_curve", no_sampling)
        for v in (1, 99):
            with pytest.raises(QuotientError) as err:
                verify_injectivity(self.T, self.CUT, v_plus=v, n_samples=40,
                                   seed=("s", 5))
            msg = str(err.value)
            assert repr(("s", 5)) in msg
            assert trees.canonical_form(self.T) in msg
            assert "['1', '2']" in msg

    def test_admissible_v_plus_runs(self):
        rep = verify_injectivity(self.T, self.CUT, v_plus=0, n_samples=40, seed=4)
        assert rep["v_plus_rank"] == trees.canonical_vertex_order(self.T)[0]
        assert rep["in_domain"] > 0
        assert rep["key_collisions_across_classes"] == 0
        assert rep["intra_class_key_splits"] == 0


class TestTooFewSamples:
    def test_names_the_case(self, monkeypatch):
        monkeypatch.setattr(quotient, "fiber_samples", lambda *args, **kwargs: [])
        t = trees.enumerate_trees(5)[1]
        with pytest.raises(QuotientError) as err:
            verify_injectivity(t, frozenset({1, 2}), n_samples=10, seed=("few", 3))
        assert str(err.value) == (
            "seed ('few', 3), tree %s, rho_star ['1', '2']: could not build"
            " enough samples" % (trees.canonical_form(t),))


class TestSharedTrees:
    def test_add_mark_curves_share_one_tree_and_leave_no_tree_behind(self):
        import gc
        import weakref

        t = [x for x in trees.enumerate_trees(3, real=True) if x.edges][0]
        gc.collect()
        gc.disable()
        try:
            before = len(trees._SHARED)
            base = sample_curve(t, 30, ("shared",))
            a = add_mark(base, 0, pp(GaussRat(1, 2)))
            b = add_mark(base, 0, pp(GaussRat(3, 1)))
            assert a.tree is b.tree
            # stabilizing, keying and validating keep tables on the trees
            assert moduli_key(base_of(a)) == moduli_key(base_of(b)) == moduli_key(base)
            assert a.validate() == [] == b.validate()
            # forgetting nothing plans a's own tree, which must not keep
            # itself alive
            assert curves.forget(a, a.tree.mu).tree is a.tree
            made = [weakref.ref(a.tree), weakref.ref(base_of(a).tree)]
            assert len(trees._SHARED) == before + 2
            del a, b, base
            assert [r() for r in made] == [None, None]
            assert len(trees._SHARED) == before
        finally:
            gc.enable()


class TestPlacementErrors:
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("v", [99, -1, "a"])
    def test_add_mark_at_no_vertex(self, real, v):
        t = trees.enumerate_trees(3, real=True)[-1] if real else trees.enumerate_trees(4)[-1]
        base = sample_curve(t, 30, ("no-vertex",))
        with pytest.raises(QuotientError, match=re.escape("no vertex %r" % (v,))):
            add_mark(base, v, pp(GaussRat(1, 2)))


# ---------------------------------------------------------------------------
# placements of the extra mark, pinned at every site

# positions of the extra mark; a real one collides with its conjugate on a
# fixed component, and 0, 1 and infinity with the framed points of a base
PLACE_POINTS = [pp(0), pp(1), PP_INF, pp(-1), pp(GaussRat(1, 2)),
                pp(GaussRat(0, 1)), pp(GaussRat(1, 1)), pp(GaussRat(-2, 3))]

# sha256 of test_placements_pinned's lines, taken before add_mark,
# bubble_at_mark and mark_at_node were built on one split-off routine
PLACEMENTS_DIGEST = "c783bba70a61618988775e5d140beb44c192fa76db216a5d927e830298a4c2d4"


class TestPlacementsPinned:
    def test_placements_pinned(self):
        # bases with coordinates bounded by 6 on every tree of complex l=4
        # and real l=2, 3; each placement writes its curve's JSON and its
        # tree's repr (mu in insertion order), or ERR
        h = hashlib.sha256()
        counts = {"ok": 0, "ERR": 0}
        for l, real in ((4, False), (2, True), (3, True)):
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
                for k in range(2):
                    base = sample_curve(t, 6, ("place", l, real, idx, k))
                    calls = [(add_mark, v) for v in range(t.vertex_count)]
                    calls += [(bubble_at_mark, m) for m in t.marks()]
                    calls += [(mark_at_node, e) for e in t.edges]
                    for place, site in calls:
                        for p in PLACE_POINTS:
                            try:
                                c = place(base, site, p)
                            except QuotientError:
                                line = "ERR"
                                counts["ERR"] += 1
                            else:
                                assert c.validate() == []
                                line = "%s %r" % (json.dumps(c.to_json(), sort_keys=True),
                                                  c.tree)
                                counts["ok"] += 1
                            h.update(("%s %r %s: %s\n" % (place.__name__, site, p, line))
                                     .encode())
        assert counts["ok"] > 0 and counts["ERR"] > 0
        assert h.hexdigest() == PLACEMENTS_DIGEST, counts


# ---------------------------------------------------------------------------
# placements against the dict-edit construction they replaced

_I = pp(GaussRat(0, 1))


def _reference_place(c, sites, point):
    """The placement built coordinate by coordinate: copy the coords view,
    edit it and build the curve through the dict constructor, which
    validates it in full."""
    t = c.tree
    n = t.vertex_count
    coords, mu, edges = c.coords, dict(t.mu), set(t.edges)
    l1 = t.l + 1
    marks = ["%d+" % l1, "%d-" % l1] if t.is_real else [l1]
    new = {}
    at = []
    for (v, slot), m, z in zip(sites, marks, (point, point.conj())):
        w = v if slot is None else new.get(slot)
        if w is None:
            w = new[slot] = n + len(new)
            node = curves._edge_slot((v, w))
            coords[v][node] = coords[v].pop(slot)
            edges.add(node[1])
            if slot[0] == "m":
                mu[slot[1]] = w
                coords[w] = {node: PP_INF, slot: pp(0)}
            else:
                y = sum(slot[1]) - v
                far = curves._edge_slot((w, y))
                edges.remove(slot[1])
                edges.add(far[1])
                coords[y][far] = coords[y].pop(slot)
                swap = t.is_real and t.phi[v] == y
                coords[w] = {node: _I, far: _I.conj()} if swap else {node: PP_INF, far: pp(0)}
        mu[m] = w
        coords[w][("m", m)] = z
        at.append(w)
    phi = None
    if t.is_real:
        phi = list(t.phi) + [at[1 - at.index(w)] for w in range(n, n + len(new))]
    try:
        return curves.StableCurve(trees.shared_tree(n + len(new), edges, mu, phi), coords)
    except curves.CurveError as e:
        # the same list of messages, under the placement's text
        text = str(e)
        assert text.startswith("invalid curve: [")
        raise QuotientError("bad placement: " + text[len("invalid curve: "):]) from None


def _place_sites(t):
    """The sites add_mark, bubble_at_mark and mark_at_node give _place on
    t, and on a real tree both new marks on each one component, which is
    not a real placement where phi moves the component."""
    out = []
    for v in range(t.vertex_count):
        out.append([(v, None)] + ([(t.phi[v], None)] if t.is_real else []))
        if t.is_real and t.phi[v] != v:
            out.append([(v, None), (v, None)])
    for m in t.marks():
        site = (t.mu[m], ("m", m))
        out.append([site] + ([(t.mu[trees.bar_mark(m)], ("m", trees.bar_mark(m)))]
                             if t.is_real else []))
    for u, x in t.edges:
        site = (u, ("e", (u, x)))
        out.append([site] + ([(t.phi[u], curves._edge_slot((t.phi[u], t.phi[x])))]
                             if t.is_real else []))
    return out


def _curve_text(c):
    """The curve's JSON and its tree's repr (mu in insertion order)."""
    return "%s %r" % (json.dumps(c.to_json(), sort_keys=True), c.tree)


def _placed(place, c, sites, point):
    try:
        out = place(c, sites, point)
    except QuotientError as e:
        return "ERR " + str(e)
    # a curve that _place checked only in part validates in full when
    # built fresh
    assert curves.StableCurve._of(out.tree, out.points).validate() == []
    assert out.validate() == []
    return _curve_text(out)


# positions on top of the fixed node positions 0, inf, i and -i, and of a
# base's framed points 0, 1 and inf
REFERENCE_POINTS = PLACE_POINTS + [pp(GaussRat(0, -1))]


class TestPlacementsAgainstReference:
    def test_every_site_and_point(self):
        counts = {"ok": 0, "ERR": 0}
        for l, real in ((4, False), (2, True), (3, True)):
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
                for k in range(2):
                    base = sample_curve(t, 6, ("reference", l, real, idx, k))
                    for sites in _place_sites(t):
                        for p in REFERENCE_POINTS:
                            # the reference first, so that its tree is
                            # built from its own mu, and gone before _place
                            want = _placed(_reference_place, base, sites, p)
                            got = _placed(quotient._place, base, sites, p)
                            assert got == want, (l, real, idx, sites, p)
                            counts["ERR" if got.startswith("ERR") else "ok"] += 1
        assert counts["ok"] > 0 and counts["ERR"] > 0

    def test_invalid_base_is_validated_in_full(self):
        # a base with two coincident points on a component that would get
        # no new mark, which the plan's own check cannot see: reading it
        # validates it in full and rejects it, so no placement starts there
        t = [x for x in trees.enumerate_trees(4) if x.edges][0]
        d = sample_curve(t, 30, ("invalid-base",)).to_json()
        cv = d["coords"]["0"]
        a, b = list(cv)[:2]
        cv[b] = cv[a]
        with pytest.raises(curves.CurveError, match=re.escape(
                "invalid curve: ['vertex 0: special points not pairwise distinct']")):
            curves.curve_from_json(d)

    def test_plan_replayed_after_its_tree_is_freed(self):
        import gc
        import weakref

        t = [x for x in trees.enumerate_trees(3, real=True) if len(x.edges) > 1][0]
        base = sample_curve(t, 30, ("replay",))
        gc.collect()
        gc.disable()
        try:
            for e in t.edges:
                a = mark_at_node(base, e, pp(GaussRat(2, 5)))
                want = _curve_text(a)
                layout, key_layout = a.tree._layout, a.tree._key_layout
                # the base tree holds the placed tree only weakly
                ref = weakref.ref(a.tree)
                del a
                assert ref() is None
                b = mark_at_node(base, e, pp(GaussRat(2, 5)))
                assert _curve_text(b) == want and b.validate() == []
                # the kept layouts go to the rebuilt tree
                assert b.tree._layout is layout and b.tree._key_layout is key_layout
                del b
        finally:
            gc.enable()
