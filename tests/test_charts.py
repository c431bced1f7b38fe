"""Coordinate bases, reconstruction recursion, real slice equations."""

import functools
import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from artifact import charts, curves, exactfield, trees
from artifact.charts import (
    ChartBasis,
    ReconstructionTable,
    a_gamma,
    basis_values,
    extended_basis,
    gamma_basis,
    real_slice_check,
    v_gamma,
)
from artifact.exactfield import (PP_INF, PP_ONE, PP_ZERO, GaussRat, ProjPoint, _pmul,
                                 cross_ratio, finite_point, pp)


class TestMarkingMaps:
    def test_gamma_v_partition_sizes(self):
        # the union of the per-vertex label sets has l - 3 surplus over
        # the tree structure: total basis size below checks this
        for t in trees.enumerate_trees(5):
            gv = gamma_basis(t).gamma_v
            assert set(gv) == set(range(len(t.adjacency())))


class TestBasisDimension:
    @pytest.mark.parametrize("l", range(3, 8))
    def test_dimension_is_l_minus_3(self, l):
        for t in trees.enumerate_trees(l):
            assert len(gamma_basis(t).quadruples) == l - 3

    def test_quadruples_are_independent_marks(self):
        for t in trees.enumerate_trees(5):
            for q in gamma_basis(t).quadruples:
                assert len(set(q)) == 4


def _branch(t, v, w):
    """The marks on the branch at v through its neighbour w, found by a
    search over the adjacency lists and mu."""
    adj = t.adjacency()
    seen, queue = {v, w}, [w]
    for x in queue:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    seen.discard(v)
    return {m for m, x in t.mu.items() if x in seen}


def reference_basis(t):
    """([Gamma]_v per vertex, edge quadruples) from the definition."""
    least = functools.partial(min, key=trees.mark_key)
    adj = t.adjacency()
    # own marks plus the least mark beyond each edge out of v
    gamma = {v: trees.sort_marks([m for m, x in t.mu.items() if x == v]
                                 + [least(_branch(t, v, w)) for w in adj[v]])
             for v in range(t.vertex_count)}
    quads = {}
    for u, w in t.edges:  # u < w: the smaller index is the near vertex
        near = _branch(t, w, u)  # the marks on the u side
        far = set(t.mu) - near
        i, j = least(near), least(far)
        k = least(m for m in gamma[u] if m in near and m != i)
        m = least(x for x in gamma[w] if x in far and x != j)
        quads[(u, w)] = (i, j, k, m)
    return gamma, quads


BASIS_CASES = [(l, False) for l in range(3, 8)] + [(l, True) for l in range(2, 5)]


class TestReferenceBasis:
    """[Gamma]_v and the edge quadruples from the definition, with the
    branch sides found by a search over the adjacency lists and mu."""

    @pytest.mark.parametrize("l,real", BASIS_CASES)
    def test_basis_matches_definition(self, l, real):
        for t in trees.enumerate_trees(l, real=real):
            gamma, quads = reference_basis(t)
            basis = gamma_basis(t)
            assert basis.gamma_v == gamma
            assert basis.edge_quads == quads
            assert all(len(set(q)) == 4 for q in quads.values())
            assert all(len(ms) >= 3 for ms in gamma.values())


def names_first_layout(t):
    """(offsets, rows, slots, vertex, partner) built as curves.SlotLayout
    built them before it read the mark masks alone: the slot names first,
    vertex by vertex (the marks at v in mu_inv order, then its edges by
    neighbour), the rows from the names' offsets and the branch masks,
    and partner through a (vertex, slot) -> index dict."""
    adj = t.adjacency()
    slots, vertex, offsets = [], [], [0]
    for v in range(t.vertex_count):
        slots += [("m", m) for m in t.mu_inv(v)]
        slots += [("e", (min(v, w), max(v, w))) for w in adj[v]]
        vertex += [v] * (len(slots) - offsets[-1])
        offsets.append(len(slots))
    n = len(t.mark_bits())
    full = (1 << n) - 1
    rows = []
    for v, sides in enumerate(t.split_index()[0]):
        row = [0] * n
        own = full
        i = offsets[v + 1] - len(sides)
        for side in sides:
            own ^= side
            while side:
                low = side & -side
                row[low.bit_length() - 1] = i
                side ^= low
            i += 1
        i = offsets[v]
        while own:
            low = own & -own
            row[low.bit_length() - 1] = i
            own ^= low
            i += 1
        rows.append(tuple(row))
    partner = None
    if t.is_real:
        index = {vs: i for i, vs in enumerate(zip(vertex, slots))}
        phi = t.phi
        partner = tuple([
            index[t.mu[trees.bar_mark(x)], ("m", trees.bar_mark(x))] if kind == "m"
            else index[phi[v], ("e", tuple(sorted((phi[x[0]], phi[x[1]]))))]
            for v, (kind, x) in zip(vertex, slots)])
    return tuple(offsets), tuple(rows), tuple(slots), tuple(vertex), partner


class TestLayoutAndBasisFromMasks:
    """The slot layout and the basis, both read off the branch mark masks,
    equal the names-first layout and the basis from the definition; a
    complex tree's layout builds its slot names only when they are read."""

    @pytest.mark.parametrize("l,real", BASIS_CASES)
    def test_equal_to_the_references(self, l, real):
        for t in trees.enumerate_trees(l, real=real):
            lay = curves.SlotLayout(t)
            got = (lay.offsets, lay.rows, lay.slots, lay.vertex, lay.partner)
            assert got == names_first_layout(t), t
            basis = gamma_basis(t)
            assert (basis.gamma_v, basis.edge_quads) == reference_basis(t), t
            assert basis.vertex_quads == {
                v: [tuple(ms[:3]) + (m,) for m in ms[3:]] for v, ms in basis.gamma_v.items()}

    def test_names_built_on_first_read(self):
        marks = trees.complex_marks(6)
        for i, t in enumerate(trees.enumerate_trees(6)):
            curves.sample_curve(t, 40, ("names", i))
            curves.quad_plan(t, curves.quad_positions(t.mark_bits(),
                                                      itertools.combinations(marks, 4)))
            lay = t._layout
            assert lay._slots is None and lay._vertex is None
            assert lay.slots == names_first_layout(t)[2]
            assert lay._slots is not None
        for t in trees.enumerate_trees(3, real=True):
            lay = curves.SlotLayout(t)
            assert lay._slots is not None and lay._vertex is not None


# sha256 of ChartBasis.to_json() (sorted-key JSON, one line per tree) over
# enumerate_trees(l, real), pinned before eta and the edge quadruples were
# read from the split-mask index
BASIS_DIGESTS = {
    (3, False): "02ae3ad7cfdee9064f18324aca478a5f7cb4021112d270c1800fcd7293ec207a",
    (4, False): "929953f3cd6fdb4bc81f8a3e61ae40517d1e42e4faaa03db565e145004f2aaa2",
    (5, False): "7e16bf0cd8a75c8243a9c674ddf04aa076a2a55cda30a8f51a17514770f5aa0f",
    (6, False): "430d92c2b4c8b0676a0285f5b2f375b4aa3a8e0d14a28fb47b77665073591144",
    (7, False): "dc78c58874ab7a528cce76a26f8422d9d3ae7e23c32cc5554dd85704e39deb4d",
    (2, True): "789f0b6d21d169df18f85c263bf05789c6fdb45715d1e0cd247fcba70270bb3f",
    (3, True): "54270217381cad695a7f990adc9e0312b52d7c26d80034e25a844a6d9bf42f71",
    (4, True): "4c713e42e1a5be5f34ed86fe4e35c4586ffe8f3284f6cb8e687388e6c3dc3998",
}


@pytest.mark.parametrize("l,real", sorted(BASIS_DIGESTS))
def test_bases_pinned(l, real):
    h = hashlib.sha256()
    for t in trees.enumerate_trees(l, real=real):
        h.update(json.dumps(gamma_basis(t).to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == BASIS_DIGESTS[(l, real)]


# sha256 of test_tables_pinned's lines over the 2,934 tables (20,088 of the
# lookups are undetermined), pinned before the closure read a route table
TABLES_DIGEST = "b96ab3b203438acedc311f699259598c9ec317af5d71cdfa3e5bddc45275ecbc"


class TestReconstruction:
    @pytest.mark.parametrize("l", (4, 5))
    def test_matches_direct_cross_ratio(self, l):
        marks = trees.complex_marks(l)
        for idx, t in enumerate(trees.enumerate_trees(l)):
            basis = gamma_basis(t)
            for s in range(3):
                c = curves.sample_curve(t, 30, ("rec", idx, s))
                vals = basis_values(c, basis)
                table = ReconstructionTable(t, values=vals, basis=basis)
                for q in itertools.combinations(marks, 4):
                    assert table.value(q) == curves.cross_ratio_q(c, q)

    def test_permutations_too(self):
        # all 24 orderings of every quadruple, on every l = 5 tree and every
        # real l = 2 tree
        for l, real in ((5, False), (2, True)):
            marks = trees.real_marks(l) if real else trees.complex_marks(l)
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
                c = curves.sample_curve(t, 30, ("perm", idx))
                basis = gamma_basis(t)
                table = ReconstructionTable(
                    t, values=basis_values(c, basis), basis=basis
                )
                for q4 in itertools.combinations(marks, 4):
                    for q in itertools.permutations(q4):
                        assert table.value(q) == curves.cross_ratio_q(c, q)

    def test_malformed_quadruples(self):
        # a repeated mark, a mark not on the tree or a wrong length is
        # never known and its value is a ChartDomainError
        for l, real in ((5, False), (2, True)):
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
                c = curves.sample_curve(t, 30, ("bad", idx))
                basis = gamma_basis(t)
                table = ReconstructionTable(
                    t, values=basis_values(c, basis), basis=basis
                )
                m1, m2, m3, m4 = t.marks()[:4]
                other = "9+" if real else 9
                table.value_key((m1, m2, m3, m4))
                for q in ((m1, m1, m2, m3), (m1, m2, m2, m2), (m1, m2, m3, other),
                          (other, m1, m2, m3), (m1, m2, m3),
                          # five entries on four marks (a frozenset key read it as
                          # known, and value raised KeyError)
                          (m1, m2, m3, m4, m1),
                          (m1, m2, m3, m4, other), (), [m1, m2, m3, m1]):
                    with pytest.raises(charts.ChartDomainError):
                        table.value_key(q)
                    with pytest.raises(charts.ChartDomainError):
                        table.value(q)
                table.value_key([m4, m3, m2, m1])
                assert table.value([m4, m3, m2, m1]) == table.value((m4, m3, m2, m1))

    @pytest.mark.parametrize("x", [
        PP_ZERO, PP_ONE, PP_INF, pp(GaussRat(3, -2)), pp(GaussRat(-7, 5) / 3),
        pp(2), pp(GaussRat(0, 1)),
    ], ids=ProjPoint.serialize)
    def test_permuted_value_matches_model_points(self, x):
        # model points (ref_i, ref_j, ref_k, ref_m) -> (x, 1, 0, inf) have
        # CR_ref = x; every reordering of ref must agree with their cross
        # ratio, as keys
        ref = (2, 5, 1, 4)
        model = {ref[0]: x, ref[1]: PP_ONE, ref[2]: PP_ZERO, ref[3]: PP_INF}
        orderings = list(itertools.permutations(ref))
        assert len(set(orderings)) == 24
        for q in orderings:
            assert charts._perm(ref, q)(x._k) == cross_ratio(*(model[m] for m in q))._k

    def test_build_makes_no_point(self, monkeypatch):
        # a table holds keys: building it from ProjPoint basis values makes
        # no ProjPoint, and value(q) makes one, the point of value_key(q)
        made = []
        honest_init, honest_point = ProjPoint.__init__, exactfield._point

        def init(self, *args):
            made.append("ProjPoint")
            honest_init(self, *args)

        def point(key):
            made.append("_point")
            return honest_point(key)

        monkeypatch.setattr(ProjPoint, "__init__", init)
        for name, module in list(sys.modules.items()):
            if name.startswith("artifact.") and getattr(module, "_point", None) is honest_point:
                monkeypatch.setattr(module, "_point", point)
        for l, real in ((5, False), (6, False), (3, True)):
            marks = trees.real_marks(l) if real else trees.complex_marks(l)
            quads = list(itertools.combinations(marks, 4))
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)[::7]):
                basis = gamma_basis(t)
                vals = basis_values(curves.sample_curve(t, 30, ("no-point", idx)), basis)
                del made[:]
                table = ReconstructionTable(t, values=vals, basis=basis)
                assert made == [], (l, real, idx)
                for q in quads[:6]:
                    for qq in (q, q[::-1]):
                        assert table.value(qq)._k == table.value_key(qq)
                        assert made == ["_point"]
                        del made[:]

    def test_tables_pinned(self):
        # every table of complex l = 4, 5, 6 and real l = 2, 3, built from the
        # sampled basis values and from each basis value replaced by 0, 1 and
        # inf, read at four orderings of every 4-subset: the values and the
        # ChartDomainError texts are pinned by one sha256
        h = hashlib.sha256()
        for l, real in ((4, False), (5, False), (6, False), (2, True), (3, True)):
            marks = trees.real_marks(l) if real else trees.complex_marks(l)
            quads = list(itertools.combinations(marks, 4))
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
                basis = gamma_basis(t)
                vals = basis_values(curves.sample_curve(t, 30, ("pin", idx)), basis)
                variants = [vals] + [{**vals, q: x} for q in basis.quadruples
                                     for x in (PP_ZERO, PP_ONE, PP_INF)]
                for values in variants:
                    table = ReconstructionTable(t, values=values, basis=basis)
                    for i, j, k, m in quads:
                        for q in ((i, j, k, m), (m, k, j, i), (j, i, k, m), (k, i, m, j)):
                            try:
                                text = table.value(q).serialize()
                            except charts.ChartDomainError as exc:
                                text = "error: %s" % exc
                            h.update(("%r %s\n" % (q, text)).encode())
        assert h.hexdigest() == TABLES_DIGEST

    def test_table_built_from_eta(self):
        # the table builds the basis of t under the systematic marking eta
        # when it is given no basis
        t = trees.enumerate_trees(4)[0]
        c = curves.sample_curve(t, 30, ("wrap",))
        basis = gamma_basis(t)
        vals = basis_values(c, basis)
        q = (1, 2, 3, 4)
        assert ReconstructionTable(t, vals).value(q) == curves.cross_ratio_q(c, q)


@st.composite
def model_points(draw):
    """5 to 8 distinct points of the projective line, 0, 1 and inf among
    them, in a random order."""
    n = draw(st.integers(5, 8))
    finite = st.builds(finite_point, st.integers(-9, 9), st.integers(-9, 9),
                       st.integers(1, 9))
    others = draw(st.lists(finite.filter(lambda z: z not in (PP_ZERO, PP_ONE)),
                           min_size=n - 3, max_size=n - 3, unique=True))
    return draw(st.permutations([PP_INF, PP_ZERO, PP_ONE] + others))


# the anharmonic maps as chains of inv and one_minus, one point per step
_CHAINS = {
    (0, 1, 2, 3): lambda x: x,
    (0, 1, 3, 2): lambda x: x.inv(),
    (0, 2, 1, 3): lambda x: x.one_minus(),
    (0, 2, 3, 1): lambda x: x.one_minus().inv(),
    (0, 3, 1, 2): lambda x: x.inv().one_minus(),
    (0, 3, 2, 1): lambda x: x.inv().one_minus().inv(),
}


def test_anharmonic_maps_match_chains():
    # each one-point map equals its chain on 0, 1, inf and 500 seeded
    # points (finite complex, finite real, and inf), as canonical keys
    rng = random.Random("anharmonic")
    xs = [PP_ZERO, PP_ONE, PP_INF]
    for _ in range(500):
        kind = rng.randrange(10)
        if kind == 0:
            xs.append(PP_INF)
        else:
            q = 0 if kind < 3 else rng.randint(-30, 30)
            xs.append(finite_point(rng.randint(-30, 30), q, rng.randint(1, 30)))
    assert sorted(charts._ANHARMONIC) == sorted(_CHAINS)
    for s, chain in _CHAINS.items():
        f = charts._ANHARMONIC[s]
        for x in xs:
            assert f(x._k) == chain(x)._k, (s, x)


class TestRouteTable:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_route_shape(self, n):
        # one row per 4-bit mask; 6 * (n - 4) distinct routes, each factor
        # mask four of the n bits, three of them in K
        rows = charts._routes(n)
        assert sorted(mask for mask, _ in rows) == [
            mask for mask in range(1 << n) if mask.bit_count() == 4]
        for mask, routes in rows:
            assert len(routes) == 6 * (n - 4)
            assert len({frozenset((e1, e2)) for e1, _, e2, _, _ in routes}) == len(routes)
            for e1, _f1, e2, _f2, _g in routes:
                for e in (e1, e2):
                    assert e >> n == 0 and e.bit_count() == 4
                    assert (e & mask).bit_count() == 3

    @settings(max_examples=30, deadline=None)
    @given(model_points())
    def test_routes_match_direct_cross_ratio(self, zs):
        # g(f1(CR_e1) * f2(CR_e2)) is CR_K, all in increasing bit order and
        # as keys; distinct points have no cross ratio 0 or inf, so every
        # product is determinate
        n = len(zs)
        direct = {mask: cross_ratio(*(z for b, z in enumerate(zs) if mask >> b & 1))._k
                  for mask in range(1 << n) if mask.bit_count() == 4}
        for mask, routes in charts._routes(n):
            for e1, f1, e2, f2, g in routes:
                assert g(_pmul(f1(direct[e1]), f2(direct[e2]))) == direct[mask]


class TestExtendedCharts:
    def test_extension_size(self):
        # one extra quadruple in the complex case, a conjugate pair in the
        # real case
        for t in trees.enumerate_trees(5):
            if not t.edges:
                continue
            e = t.edges[0]
            rho = trees.split_marks(t, e)
            vp = v_gamma(t, rho)[0]
            basis = extended_basis(t, vp, rho)
            assert len(basis.extension) == 1
            assert basis.extension[0][3] == t.l + 1
        for t in trees.enumerate_trees(2, real=True):
            if not t.edges:
                continue
            e = t.edges[0]
            rho = trees.split_marks(t, e)
            vp = v_gamma(t, rho)[0]
            basis = extended_basis(t, vp, rho)
            assert len(basis.extension) == 2

    def test_labels_need_the_marks_1_to_l(self):
        # split masks over {1, 2, 4, 5} are not label masks over [4]
        t = trees.MarkedTree(2, [(0, 1)], {1: 0, 2: 0, 4: 1, 5: 1})
        with pytest.raises(charts.ChartError):
            a_gamma(t, ())

    def test_v_gamma_nonempty_for_boundary(self):
        for t in trees.enumerate_trees(5):
            for a, b in t.edges:
                for e in ((a, b), (b, a)):
                    assert v_gamma(t, trees.split_marks(t, e))


class TestRealSlice:
    @pytest.mark.parametrize("l", (2, 3))
    def test_accepts_real_curves(self, l):
        for idx, t in enumerate(trees.enumerate_trees(l, real=True)):
            c = curves.sample_curve(t, 30, ("slice", idx))
            vals = basis_values(c, gamma_basis(t))
            assert real_slice_check(vals, t)

    @pytest.mark.parametrize("l", (2, 3))
    def test_rejects_perturbed_assignments(self, l):
        # The fixed-locus condition on each basis value is a circle or
        # line in the complex plane; a single perturbation can stay on
        # it, but no circle or line contains all three of z+1, z+3, z+i
        # (nor, from infinity, all of 0, 1, i).  At least one of the
        # three perturbed assignments must therefore be rejected.
        total = 0
        for idx, t in enumerate(trees.enumerate_trees(l, real=True)):
            c = curves.sample_curve(t, 30, ("slice2", idx))
            basis = gamma_basis(t)
            vals = basis_values(c, basis)
            for q in basis.quadruples:
                z = vals[q]
                if z == PP_INF:
                    perturbed = [ProjPoint(GaussRat(0)), ProjPoint(GaussRat(1)),
                                 ProjPoint(GaussRat(0, 1))]
                else:
                    perturbed = [ProjPoint(z.a + GaussRat(d, e), z.b)
                                 for d, e in ((1, 0), (3, 0), (0, 1))]
                results = []
                for p in perturbed:
                    bad = dict(vals)
                    bad[q] = p
                    try:
                        results.append(real_slice_check(bad, t))
                    except charts.ChartDomainError:
                        # off the chart domain: certainly not accepted
                        results.append(False)
                total += 1
                assert not all(results)
        assert total > 0
