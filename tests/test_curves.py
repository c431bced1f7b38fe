"""Stable curves: coordinates, degeneration values, membership, sampling."""

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from artifact import curves, strata, trees
from artifact.curves import (
    StableCurve,
    conjugate_curve,
    cross_ratio_q,
    curve_from_json,
    forget,
    in_D_tilde,
    in_divisor,
    moduli_key,
    sample_curve,
)
from artifact.exactfield import (PP_INF, PP_ONE, PP_ZERO, GaussRat, ParseError,
                                 UnstableConfiguration, cross_ratio,
                                 finite_point, frame, pp)
from artifact.quotient import fiber_samples


def tree_with_split(l, rho, real=False):
    rho = frozenset(rho)
    for t in trees.enumerate_trees(l, real=real):
        if len(t.edges) == 1 and strata.stratum_edge(t, rho) is not None:
            return t
    raise AssertionError("no tree with split %r" % (sorted(map(str, rho)),))


class TestSamplingAndValidation:
    def test_sampled_curves_valid(self):
        for l, real in ((4, False), (5, False), (2, True), (3, True)):
            for i, t in enumerate(trees.enumerate_trees(l, real=real)):
                c = sample_curve(t, 30, ("valid", i))
                assert c.validate() == []

    def test_deterministic(self):
        t = trees.enumerate_trees(5)[0]
        a = sample_curve(t, 30, ("seed", 1))
        b = sample_curve(t, 30, ("seed", 1))
        assert a.to_json() == b.to_json()

    def test_json_round_trip(self):
        for l, real in ((4, False), (2, True)):
            for i, t in enumerate(trees.enumerate_trees(l, real=real)):
                c = sample_curve(t, 30, ("json", i))
                c2 = curve_from_json(c.to_json())
                assert c2.to_json() == c.to_json()

    def test_real_curves_conjugation_symmetric(self):
        for i, t in enumerate(trees.enumerate_trees(3, real=True)):
            c = sample_curve(t, 30, ("conj", i))
            assert moduli_key(conjugate_curve(c)) == moduli_key(c)

    def test_conjugate_builds_through_the_constructor(self):
        # conjugate_curve checks nothing (it builds through _of): the dict
        # constructor, which validates in full, accepts what it returns
        count = 0
        for l in (2, 3, 4):
            for i, t in enumerate(trees.enumerate_trees(l, real=True)):
                o = conjugate_curve(sample_curve(t, 30, ("conjugate", l, i)))
                assert StableCurve(o.tree, o.coords).points == o.points
                count += 1
        assert count == 4 + 36 + 520


class TestJsonKeys:
    """A coordinate key that is neither "mark:<mark>" nor "edge:<u>-<v>"
    raises CurveError naming it."""

    @pytest.mark.parametrize("old,new", [
        ("edge:0-1", "node:0-1"),  # unknown kind
        ("edge:0-1", "edge:0"),    # one end
        ("mark:1", "mark:x"),      # a complex mark that is not an integer
    ])
    def test_bad_key(self, old, new):
        t = [x for x in trees.enumerate_trees(4) if x.edges][0]
        d = sample_curve(t, 30, ("keys",)).to_json()
        cv = next(cv for cv in d["coords"].values() if old in cv)
        cv[new] = cv.pop(old)
        with pytest.raises(curves.CurveError, match=re.escape(repr(new))):
            curve_from_json(d)


def test_zero_denominator_coordinate_raises_parse_error():
    # the literal passes the coordinate syntax, so the exact field's own
    # ParseError comes through curve_from_json, not ZeroDivisionError
    t = [x for x in trees.enumerate_trees(4) if x.edges][0]
    d = sample_curve(t, 30, ("zero-denominator",)).to_json()
    cv = d["coords"]["0"]
    cv[next(iter(cv))] = "[1/0:1]"
    with pytest.raises(ParseError, match=re.escape(repr("1/0"))):
        curve_from_json(d)


@pytest.mark.parametrize("lit", ["[0:0]", "[0/1:0/5]"])
def test_zero_pair_coordinate_raises_parse_error(lit):
    t = [x for x in trees.enumerate_trees(4) if x.edges][0]
    d = sample_curve(t, 30, ("zero-pair",)).to_json()
    cv = d["coords"]["0"]
    cv[next(iter(cv))] = lit
    with pytest.raises(ParseError, match=re.escape("bad ProjPoint literal: %r" % (lit,))):
        curve_from_json(d)


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


class TestMalformedJson:
    """Malformed tree or curve JSON raises TreeError or CurveError, not the
    KeyError, TypeError, ValueError or AttributeError of its parsing."""

    @pytest.mark.parametrize("real,edit,error", [
        (False, lambda d: {"edges": [], "mu": {}, "real": False}, trees.TreeError),
        (False, lambda d: {**d, "mu": {("x" if k == "1" else k): v
                                       for k, v in d["mu"].items()}}, trees.TreeError),
        (False, _drop("real"), trees.TreeError),
        (True, _drop("phi"), trees.TreeError),
        (False, lambda d: {**d, "edges": d["edges"] + [[0, "a"]]}, trees.TreeError),
        (False, _drop("coords"), curves.CurveError),
        (False, lambda d: {**d, "coords": {("a" if k == "0" else k): v
                                           for k, v in d["coords"].items()}},
         curves.CurveError),
        (False, lambda d: {**d, "coords": {**d["coords"], "0": []}}, curves.CurveError),
        (False, lambda d: {**d, "mu": {**d["mu"], "1": 1.5}}, trees.TreeError),
        (False, lambda d: {**d, "edges": [[0, 1.0]]}, trees.TreeError),
        (False, lambda d: {**d, "edges": [[0]]}, trees.TreeError),
        (True, lambda d: {**d, "phi": [1.0, 0]}, trees.TreeError),
    ], ids=["empty", "mark_key", "no_real", "no_phi", "edge_end", "no_coords",
            "vertex_key", "vertex_list", "float_vertex", "float_edge", "short_edge",
            "float_phi"])
    def test_typed_error(self, real, edit, error):
        t = [x for x in trees.enumerate_trees(3 if real else 4, real=real) if x.edges][0]
        d = edit(sample_curve(t, 30, ("malformed",)).to_json())
        with pytest.raises(error, match="malformed"):
            curve_from_json(d)


LAYOUT_CASES = [(5, False), (2, True), (3, True), (4, True)]


class TestSlotLayout:
    """A curve's points follow its tree's slot numbering, through the
    coords view, JSON and, on a real tree, the conjugate partners."""

    @pytest.mark.parametrize("l,real", LAYOUT_CASES)
    def test_points_round_trip(self, l, real):
        for i, t in enumerate(trees.enumerate_trees(l, real=real)):
            c = sample_curve(t, 30, ("layout", i))
            lay = curves.slot_layout(t)
            assert len(c.points) == len(lay.slots) == lay.offsets[-1]
            for v in range(t.vertex_count):
                assert set(lay.vertex[lay.offsets[v]:lay.offsets[v + 1]]) == {v}
            assert StableCurve(t, c.coords).points == c.points
            assert curve_from_json(c.to_json()).points == c.points

    @pytest.mark.parametrize("l", [l for l, real in LAYOUT_CASES if real])
    def test_partner_is_the_conjugate_slot(self, l):
        for t in trees.enumerate_trees(l, real=True):
            lay = curves.slot_layout(t)
            where = list(zip(lay.vertex, lay.slots))
            want = []
            for v, (kind, x) in where:
                if kind == "m":
                    image = (t.mu[trees.bar_mark(x)], ("m", trees.bar_mark(x)))
                else:
                    image = (t.phi[v], ("e", tuple(sorted(t.phi[u] for u in x))))
                want.append(where.index(image))
            partner = lay.partner
            assert list(partner) == want
            assert all(partner[j] == i for i, j in enumerate(partner))


# sha256 over enumerate_trees(l, real), bounds 1, 2, 5, 40 and three seeds
# of the sorted-key JSON of sample_curve (or its CurveError text), one line
# per call; pinned while coordinates were drawn through fractions.Fraction,
# so integer sampling must draw the same curves from the same seeds
SAMPLE_DIGESTS = {
    (5, False): "3188ccb619b78845d1207ab9352e43c3803cdc28993fda037d5028a58d9fb786",
    (6, False): "44470e08d8582844e60b1f20e32cb51ff142ed0e2cb824e6a1ec7f4af1640beb",
    (3, True): "06135981d17b5125a996b1734fb5b1c1655da8306531ea735cebc1d81d5f280f",
    (4, True): "f73515a0353e384222e2961e4d1844905d304393f19fef4c4cbb54d2827b6caa",
}


@pytest.mark.parametrize("l,real", sorted(SAMPLE_DIGESTS))
def test_sampling_pinned(l, real):
    h = hashlib.sha256()
    for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
        for bound in (1, 2, 5, 40):
            for s in range(3):
                try:
                    line = json.dumps(sample_curve(t, bound, ("pin", idx, s)).to_json(),
                                      sort_keys=True)
                except curves.CurveError as e:
                    line = "CurveError: %s" % e
                h.update(line.encode() + b"\n")
    assert h.hexdigest() == SAMPLE_DIGESTS[(l, real)]


def _smoothing_limit(split_pair, q):
    """Independent oracle: put the marks of one side of the split on a
    bubble of radius eps around 0, the others at fixed generic spots, and
    take the eps -> 0 limit of the cross ratio with sympy."""
    eps = sympy.symbols("eps", positive=True)
    inner, outer = split_pair
    spots = {}
    consts = [Fraction(3, 2), Fraction(-7, 3), Fraction(11, 5), Fraction(13, 7)]
    for n, m in enumerate(inner):
        spots[m] = consts[n] * eps
    for n, m in enumerate(outer):
        spots[m] = consts[len(inner) + n]
    z1, z2, z3, z4 = (spots[m] for m in q)
    expr = ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))
    return sympy.limit(expr, eps, 0)


class TestBoundaryValues:
    """The three nodal 4-marked types against the smoothing-family oracle."""

    CASES = [
        ({1, 2}, PP_ONE),
        ({1, 3}, PP_ZERO),
        ({1, 4}, PP_INF),
    ]

    @pytest.mark.parametrize("rho,expected", CASES)
    def test_nodal_value_matches_limit(self, rho, expected):
        q = (1, 2, 3, 4)
        t = tree_with_split(4, rho)
        c = sample_curve(t, 30, ("bdry", tuple(sorted(rho))))
        got = cross_ratio_q(c, q)
        assert got == expected
        inner = sorted(rho)
        outer = sorted(set(q) - rho)
        lim = _smoothing_limit((inner, outer), q)
        if lim == sympy.oo or lim == -sympy.oo or lim == sympy.zoo:
            assert got == PP_INF
        else:
            assert got == pp(Fraction(int(sympy.numer(lim)), int(sympy.denom(lim))))


class TestCrossRatioQ:
    def test_smooth_matches_direct(self):
        t = [x for x in trees.enumerate_trees(4) if not x.edges][0]
        c = sample_curve(t, 30, ("smooth",))
        pts = [c.coords[0][("m", m)] for m in (1, 2, 3, 4)]
        assert cross_ratio_q(c, (1, 2, 3, 4)) == cross_ratio(*pts)

    def test_invalid_curve(self):
        # vertex 1 has valence 2: the tree's constructor raises, so no
        # curve and no cross ratio exist on an invalid tree
        with pytest.raises(trees.TreeError, match=re.escape(
                "invalid tree: ['vertex 1 has valence 2 < 3']")):
            t = trees.MarkedTree(2, [(0, 1)], {1: 0, 2: 0, 3: 0, 4: 1})
            cross_ratio_q(StableCurve(t, {0: {("m", 1): PP_ZERO, ("m", 2): PP_ONE,
                                              ("m", 3): PP_INF, ("e", (0, 1)): pp(GaussRat(2))},
                                          1: {("m", 4): PP_ZERO, ("e", (0, 1)): PP_INF}}),
                          (1, 2, 3, 4))

    @pytest.mark.parametrize("q", [(), (1, 2, 3), (1, 2, 3, 4, 1), (1, 2, 3, 4, 5),
                                   (1, 2, 3, 99, 1), (1, 2, 3, 4, 5, 1)])
    def test_wrong_length_is_a_curve_error(self, q):
        c = sample_curve(trees.enumerate_trees(5)[0], 30, ("length",))
        with pytest.raises(curves.CurveError,
                           match=re.escape("cross ratio needs 4 distinct marks")):
            cross_ratio_q(c, q)

    def test_forget_compatible(self):
        # the cross ratio of four kept marks is stable under forgetting
        for i, t in enumerate(trees.enumerate_trees(5)):
            c = sample_curve(t, 30, ("fgt", i))
            base = forget(c, [1, 2, 3, 4])
            assert cross_ratio_q(base, (1, 2, 3, 4)) == cross_ratio_q(c, (1, 2, 3, 4))


class TestMembership:
    def test_in_divisor(self):
        t = tree_with_split(4, {1, 2})
        c = sample_curve(t, 30, ("mem",))
        assert in_divisor(c, frozenset({1, 2}))
        assert in_divisor(c, frozenset({3, 4}))
        assert not in_divisor(c, frozenset({1, 3}))

    def test_d_tilde_requires_real(self):
        t = trees.enumerate_trees(4)[0]
        c = sample_curve(t, 30, ("dt",))
        with pytest.raises(curves.CurveError):
            in_D_tilde(c, frozenset({1, 2}), "0")


class TestModuliKey:
    def test_finer_than_curve_key_is_not_needed(self):
        # literal equality implies moduli equality
        t = trees.enumerate_trees(5)[4]
        c = sample_curve(t, 30, ("mk", 0))
        assert moduli_key(c) == moduli_key(curve_from_json(c.to_json()))

    def test_mobius_invariance_on_smooth(self):
        from artifact.exactfield import mobius, GaussRat

        t = [x for x in trees.enumerate_trees(4) if not x.edges][0]
        c = sample_curve(t, 30, ("mob",))
        moved = StableCurve(
            t,
            {0: {s: mobius(z, GaussRat(2), GaussRat(1), GaussRat(1), GaussRat(1))
                 for s, z in c.coords[0].items()}},
        )
        assert moduli_key(moved) == moduli_key(c)

    def test_separates_moduli(self):
        # distinct cross ratios => distinct keys
        t = [x for x in trees.enumerate_trees(4) if not x.edges][0]
        a = sample_curve(t, 30, ("sep", 0))
        b = sample_curve(t, 30, ("sep", 1))
        if cross_ratio_q(a, (1, 2, 3, 4)) != cross_ratio_q(b, (1, 2, 3, 4)):
            assert moduli_key(a) != moduli_key(b)


def _reference_key(c):
    """moduli_key by its formula, framing every slot: per vertex in
    canonical order, "v<rank>{" and each slot's text and value under the
    Mobius map that sends the first three slots to inf, 0 and 1."""
    t = c.tree
    order = trees.canonical_vertex_order(t)
    bits = t.mark_bits()
    parts = []
    for v in sorted(order, key=order.get):
        cv = c.coords[v]
        slots = sorted(cv, key=lambda s: (0, bits[s[1]]) if s[0] == "m"
                       else (1, order[s[1][0] if s[1][1] == v else s[1][1]]))
        to_frame = frame(*(cv[s] for s in slots[:3]))
        texts = []
        for s in slots:
            if s[0] == "m":
                name = "m%s" % (s[1],)
            else:
                name = "e%d-%d" % tuple(sorted(order[u] for u in s[1]))
            texts.append("%s=%s" % (name, to_frame(cv[s]).serialize()))
        parts.append("v%d{%s}" % (order[v], ";".join(texts)))
    return "|".join(parts)


class TestModuliKeyReference:
    """moduli_key frames only the slots after the three references; the
    reference frames all of them."""

    @pytest.mark.parametrize("l,real", [(3, True), (5, False)])
    def test_equals_reference_on_samples_and_fibers(self, l, real):
        rng = random.Random("reference-key")
        count = 0
        for i, t in enumerate(trees.enumerate_trees(l, real=real)):
            base = sample_curve(t, 30, ("ref-key", i))
            for c in [base] + fiber_samples(base, rng, per_site=1, bound=30):
                assert moduli_key(c) == _reference_key(c)
                count += 1
        assert count > 10 * len(trees.enumerate_trees(l, real=real))

    @pytest.mark.parametrize("l", [3, 4])
    @pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 3)])
    def test_coincident_references_raise(self, l, a, b):
        # one smooth component with l marks and the references a and b
        # (marks are the first slots) at one point, which no frame sends to
        # two of inf, 0 and 1: the constructor raises, so moduli_key never
        # frames it
        t = trees.MarkedTree(1, [], {m: 0 for m in range(1, l + 1)})
        pts = [PP_INF, PP_ZERO, PP_ONE, pp(GaussRat(5, 3))][:l]
        pts[b - 1] = pts[a - 1]
        to_frame = frame(*pts[:3])
        with pytest.raises(UnstableConfiguration):
            [to_frame(z) for z in pts[:3]]
        with pytest.raises(curves.CurveError, match=re.escape(
                "invalid curve: ['vertex 0: special points not pairwise distinct']")):
            moduli_key(StableCurve(t, {0: {("m", m): z for m, z in zip(range(1, l + 1), pts)}}))


def _trees_of(t):
    """A fresh copy of t, with nothing kept on it yet, and t."""
    fresh = (trees.RealMarkedTree(t.vertex_count, t.edges, t.mu, t.phi) if t.is_real
             else trees.MarkedTree(t.vertex_count, t.edges, t.mu))
    return fresh, t


def _moved(c, v, change):
    """(c's tree, c's coordinates with change applied to those at v)."""
    coords = c.coords
    change(coords[v])
    return c.tree, coords


def _errors(t, coords):
    """The texts of the CurveErrors of building the curve from coords,
    twice on each tree of _trees_of(t)."""
    texts = set()
    for tree in _trees_of(t) * 2:
        with pytest.raises(curves.CurveError) as err:
            StableCurve(tree, coords)
        texts.add(str(err.value))
    return texts


class TestValidationFailures:
    """Each failure the dict constructor reports (the messages of
    StableCurve.validate, and the vertices whose slots are not the
    tree's), on a fresh copy of a tree and on the tree itself; and the
    invalid trees on which no curve exists, since their constructor
    raises."""

    @staticmethod
    def _reports(t, coords, text):
        texts = _errors(t, coords)
        assert len(texts) == 1 and text in next(iter(texts)), (text, texts)

    @pytest.fixture
    def cplx(self):
        t = [x for x in trees.enumerate_trees(5) if len(x.edges) == 2][0]
        return sample_curve(t, 30, ("fail", 0))

    @pytest.fixture
    def real(self):
        t = [x for x in trees.enumerate_trees(3, real=True) if x.edges][0]
        return sample_curve(t, 30, ("fail", 1))

    def test_valid_on_both(self, cplx, real):
        for c in (cplx, real):
            for t in _trees_of(c.tree):
                built = StableCurve(t, c.coords)
                assert built.points == c.points and built.validate() == []

    def test_missing_slot(self, cplx):
        slot = cplx.tree.edges[0]
        t, coords = _moved(cplx, slot[0], lambda cv: cv.pop(curves._edge_slot(slot)))
        self._reports(t, coords, "vertex %d: slots" % slot[0])

    def test_extra_slot(self, cplx):
        t, coords = _moved(cplx, 0, lambda cv: cv.__setitem__(("m", 99), PP_ONE))
        self._reports(t, coords, "vertex 0: slots")

    def test_coincident_points(self, cplx):
        def clash(cv):
            a, b = list(cv)[:2]
            cv[b] = cv[a]
        self._reports(*_moved(cplx, 1, clash),
                      "vertex 1: special points not pairwise distinct")

    def test_fewer_than_three_points(self):
        # a vertex of valence 2 would have two special points
        with pytest.raises(trees.TreeError, match=re.escape(
                "invalid tree: ['vertex 1 has valence 2 < 3']")):
            trees.MarkedTree(2, [(0, 1)], {1: 0, 2: 0, 3: 1})

    def test_conjugation_symmetry(self, real):
        v, slot = next((v, s) for v, cv in real.coords.items() for s, z in cv.items()
                       if z != z.conj() and s[0] == "m")
        # outside the sampling bound, so distinct from every other point
        t, coords = _moved(real, v, lambda cv: cv.__setitem__(slot, pp(GaussRat(1000, 999))))
        self._reports(t, coords, "conjugation symmetry fails at vertex %d slot %r" % (v, slot))

    @staticmethod
    def _reports_exactly(t, coords, expected):
        assert _errors(t, coords) == {"invalid curve: %r" % (expected,)}

    # a point outside the sampling bound, distinct from every other point
    FAR = pp(GaussRat(1000, 999))
    CONJ = "conjugation symmetry fails at vertex %d slot %r"

    def test_broken_mark_pair_lists_both_slots(self, real):
        # 1+ and 1- both sit at vertex 0, 1+ in the earlier slot, so its
        # message comes first
        assert list(real.coords[0])[:2] == [("m", "1+"), ("m", "1-")]
        t, coords = _moved(real, 0, lambda cv: cv.__setitem__(("m", "1+"), self.FAR))
        self._reports_exactly(t, coords, [self.CONJ % (0, ("m", "1+")),
                                          self.CONJ % (0, ("m", "1-"))])

    def test_self_conjugate_edge_made_non_real(self, real):
        # phi fixes both ends of the edge (0, 1): each of its slots is its
        # own partner
        assert real.tree.phi == (0, 1) and real.tree.edges == ((0, 1),)
        slot = ("e", (0, 1))
        t, coords = _moved(real, 0, lambda cv: cv.__setitem__(slot, self.FAR))
        self._reports_exactly(t, coords, [self.CONJ % (0, slot)])

    def test_broken_edge_pair_across_vertices(self):
        # phi swaps vertices 1 and 2, so the node of (0, 1) at vertex 1
        # pairs with the node of (0, 2) at vertex 2
        mu = {"1+": 0, "1-": 0, "2+": 1, "2-": 2, "3+": 1, "3-": 2}
        t = trees.RealMarkedTree(3, [(0, 1), (0, 2)], mu, [0, 2, 1])
        c = sample_curve(t, 30, ("fail", 2))
        t, coords = _moved(c, 1, lambda cv: cv.__setitem__(("e", (0, 1)), self.FAR))
        self._reports_exactly(t, coords, [self.CONJ % (1, ("e", (0, 1))),
                                          self.CONJ % (2, ("e", (0, 2)))])

    def test_invalid_tree(self):
        # phi swaps the two vertices, but each holds a conjugate pair
        mu = {"1+": 0, "1-": 0, "2+": 1, "2-": 1}
        with pytest.raises(trees.TreeError, match=re.escape("phi(mu('1+')) != mu('1-')")):
            trees.RealMarkedTree(2, [(0, 1)], mu, [1, 0])


class TestSamplingErrors:
    """A sampling failure names its seed and the tree's canonical form."""

    def test_no_room_for_distinct_points(self, monkeypatch):
        monkeypatch.setattr(curves, "_rand_point", lambda *args, **kwargs: PP_INF)
        t = trees.enumerate_trees(5)[3]
        with pytest.raises(curves.CurveError) as err:
            sample_curve(t, 30, ("crowded", 7))
        assert str(err.value) == (
            "seed ('crowded', 7), tree %s: bound too small to fit distinct"
            " special points" % (trees.canonical_form(t),))

    def test_sampled_invalid_curve(self, monkeypatch):
        # distinct points off the real line, also where a real one is
        # asked for: self-conjugate slots then break conjugation symmetry
        nums = itertools.count(1)
        monkeypatch.setattr(curves, "_rand_point",
                            lambda *args, **kwargs: finite_point(next(nums), 1, 1))
        t = [x for x in trees.enumerate_trees(3, real=True) if x.edges][0]
        with pytest.raises(curves.CurveError) as err:
            sample_curve(t, 30, ("non-real", 1))
        msg = str(err.value)
        prefix = "seed ('non-real', 1), tree %s: sampled invalid curve: " % (
            trees.canonical_form(t),)
        assert msg.startswith(prefix)
        assert "conjugation symmetry fails at vertex 0 slot ('e', (0, 1))" in msg


class TestForgetErrors:
    """A bad keep set raises on every call: its error is not kept as a
    plan."""

    @pytest.mark.parametrize("real,keep,text", [
        (False, [1, 2, 9], "unknown marks"),
        (False, [1, 2], "need at least 3 marks"),
        (True, ["1+", "1-", "2+"], "conjugation-closed"),
        (True, ["1+", "1-"], "need at least 2 conjugate pairs"),
    ])
    def test_raised_again_with_the_same_plan_key(self, real, keep, text):
        t = trees.enumerate_trees(3, real=real)[-1] if real else trees.enumerate_trees(5)[-1]
        c = sample_curve(t, 30, ("forget-err",))
        for _call in range(2):
            with pytest.raises(curves.CurveError, match=text):
                forget(c, keep)
        assert frozenset(keep) not in (t._gathers or {})

    def test_plan_shared_by_curves_on_one_tree(self):
        t = trees.enumerate_trees(3, real=True)[-1]
        keep = ["1+", "1-", "2+", "2-"]
        a, b = (forget(sample_curve(t, 30, ("plan", i)), keep) for i in range(2))
        assert a.tree is b.tree
        assert a.validate() == [] == b.validate()


class TestForgetPlan:
    def test_plan_replayed_after_its_tree_is_freed(self, monkeypatch):
        import gc
        import weakref

        t = trees.enumerate_trees(5)[-1]
        c = sample_curve(t, 30, ("forget-replay",))
        # a count of tree checks; holding the trees would keep them alive
        checks = []
        defects = trees.MarkedTree._defects
        monkeypatch.setattr(trees.MarkedTree, "_defects",
                            lambda self: checks.append(1) or defects(self))
        gc.collect()
        gc.disable()
        try:
            for keep in _keep_sets(t):
                a = forget(c, keep)
                if a.tree == t:
                    continue  # forgetting nothing gives the source tree
                want = "%s %r" % (json.dumps(a.to_json(), sort_keys=True), a.tree)
                layouts = (a.tree._layout, a.tree._key_layout)
                # the source tree holds the output tree only weakly
                ref = weakref.ref(a.tree)
                del a
                assert ref() is None
                checks.clear()
                b = forget(c, keep)
                # the plan checked the tree when it was made, so the
                # rebuild does not check it again
                assert checks == []
                assert "%s %r" % (json.dumps(b.to_json(), sort_keys=True), b.tree) == want
                assert b.validate() == []
                # the kept layouts go to the rebuilt tree
                assert b.tree._layout is layouts[0] and b.tree._key_layout is layouts[1]
                del b
        finally:
            gc.enable()


class TestInvalidCurveErrors:
    """Coordinates whose slots are not their tree's raise CurveError from
    the constructor, with what it reports, and an invalid tree raises
    TreeError from its own, before forget or moduli_key can see them."""

    @pytest.mark.parametrize("call", [lambda c: forget(c, c.tree.marks()[:4]).to_json(),
                                      moduli_key], ids=["forget", "moduli_key"])
    @pytest.mark.parametrize("real", [False, True])
    def test_slots_not_the_trees(self, call, real):
        t = trees.enumerate_trees(3, real=True)[-1] if real else trees.enumerate_trees(5)[-1]
        c = sample_curve(t, 30, ("unslotted",))
        fresh, coords = _trees_of(t)[0], c.coords
        coords[0][("m", 99)] = PP_ONE
        want = list(c.coords[0])  # layout order
        bad = ["vertex 0: slots %r != expected %r" % (want + [("m", 99)], want)]
        with pytest.raises(curves.CurveError, match=re.escape("invalid curve: %r" % (bad,))):
            call(StableCurve(fresh, coords))
        # the tree's own slots build a curve on the same tree
        assert call(StableCurve(fresh, c.coords)) == call(c)

    def test_slots_text_independent_of_hash_seed(self):
        # string marks hash differently under each PYTHONHASHSEED; the
        # text lists the slots in layout order, the unknown one last
        script = (
            "from artifact import curves, trees\n"
            "from artifact.exactfield import PP_ONE\n"
            "t = trees.enumerate_trees(3, real=True)[-1]\n"
            "coords = curves.sample_curve(t, 30, ('unslotted',)).coords\n"
            "coords[0][('m', '9+')] = PP_ONE\n"
            "try:\n"
            "    curves.StableCurve(t, coords)\n"
            "except curves.CurveError as e:\n"
            "    print(e)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        texts = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            texts.add(subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                                     capture_output=True, text=True, check=True).stdout)
        assert texts == {
            "invalid curve: [\"vertex 0: slots [('m', '1+'), ('m', '3-'), ('e', (0, 3)), "
            "('m', '9+')] != expected [('m', '1+'), ('m', '3-'), ('e', (0, 3))]\"]\n"}

    @pytest.mark.parametrize("call", [lambda c: forget(c, [1, 2, 3, 4]), moduli_key],
                             ids=["forget", "moduli_key"])
    def test_invalid_tree(self, call):
        # vertex 1 has valence 2: the tree's constructor raises, so no
        # curve on it reaches forget or moduli_key
        coords = {0: {("m", 1): PP_ZERO, ("m", 2): PP_ONE, ("m", 3): PP_INF,
                      ("e", (0, 1)): pp(GaussRat(2))},
                  1: {("m", 4): PP_ZERO, ("e", (0, 1)): PP_INF}}
        for _call in range(2):
            with pytest.raises(trees.TreeError, match=re.escape(
                    "invalid tree: ['vertex 1 has valence 2 < 3']")):
                call(StableCurve(trees.MarkedTree(2, [(0, 1)], {1: 0, 2: 0, 3: 0, 4: 1}),
                                 coords))


# sha256 of the sorted-key JSON of forget's output, one line per (tree,
# keep set) of TestForgetOracle, taken while forget stabilized by a
# contraction loop
FORGET_DIGEST = "ab3974d0ce5345169e3e12fae7d1cad21ae13f68bff7ec3b8d589838aca594e0"


def _keep_sets(t):
    """Every keep set forget allows on t: 3 or more marks, or 2 or more
    conjugate pairs on a real tree."""
    if not t.is_real:
        marks = t.marks()
        return [set(k) for r in range(3, len(marks) + 1)
                for k in itertools.combinations(marks, r)]
    pairs = [(m, trees.bar_mark(m)) for m in t.marks() if m.endswith("+")]
    return [{m for pair in k for m in pair} for r in range(2, len(pairs) + 1)
            for k in itertools.combinations(pairs, r)]


class TestForgetOracle:
    """forget against what a stabilization must keep, on every tree of
    complex l=4..6 and real l=2, 3 with every allowed keep set: the splits
    of the input with 2 or more kept marks on each side, the cross ratio
    of every kept quadruple and, on a real tree, the involution that the
    output's splits determine."""

    def test_every_keep_set(self):
        h = hashlib.sha256()
        count = 0
        for l, real in ((4, False), (5, False), (6, False), (2, True), (3, True)):
            for idx, t in enumerate(trees.enumerate_trees(l, real=real)):
                c = sample_curve(t, 30, ("forget-oracle", l, idx))
                for keep in _keep_sets(t):
                    out = forget(c, keep)
                    nt = out.tree
                    # forget checks no points of its output
                    assert StableCurve._of(nt, out.points).validate() == []
                    assert out.validate() == []
                    assert set(nt.mu) == keep
                    want = set()
                    for e in t.edges:
                        side = trees.split_marks(t, e) & keep
                        if len(side) >= 2 and len(keep - side) >= 2:
                            want.add(frozenset([side, frozenset(keep - side)]))
                    got = [frozenset([trees.split_marks(nt, e), frozenset(keep)
                                      - trees.split_marks(nt, e)]) for e in nt.edges]
                    assert len(got) == len(set(got)) and set(got) == want
                    for q in itertools.combinations(trees.sort_marks(keep), 4):
                        assert cross_ratio_q(out, q) == cross_ratio_q(c, q)
                    if real:
                        assert list(nt.phi) == trees._phi_from_structure(nt)
                    h.update(json.dumps(out.to_json(), sort_keys=True).encode() + b"\n")
                    count += 1
        assert count == 4 * 5 + 26 * 16 + 236 * 42 + 4 * 1 + 36 * 4
        assert h.hexdigest() == FORGET_DIGEST
