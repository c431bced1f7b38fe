"""Exact scalar and projective-line arithmetic."""

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from artifact.exactfield import (
    ONE,
    GaussRat,
    ProjPoint,
    PP_INF,
    PP_ONE,
    PP_ZERO,
    DivisionByZero,
    ExactFieldError,
    IndeterminateProduct,
    ParseError,
    UnstableConfiguration,
    cross_ratio,
    mobius,
    pp,
)

fractions = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 50)
)
gauss = st.builds(GaussRat, fractions, fractions)
nonzero_gauss = gauss.filter(lambda z: not z.is_zero())
points = st.one_of(
    st.builds(lambda z: ProjPoint(z), gauss),
    st.just(PP_INF),
)


class TestGaussRat:
    def test_reduced_components(self):
        z = GaussRat(Fraction(2, 4), Fraction(-3, 9))
        assert (z.re, z.im) == (Fraction(1, 2), Fraction(-1, 3))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GaussRat(1).re = 2

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            GaussRat(1) / GaussRat(0)

    def test_serialize_text(self):
        assert GaussRat(Fraction(2, 4), Fraction(-3, 9)).serialize() == "1/2-1/3*i"
        assert GaussRat(0, Fraction(-6, 4)).serialize() == "0/1-3/2*i"
        assert GaussRat(-5).serialize() == "-5/1+0/1*i"

    def test_equality_with_other_types(self):
        z = GaussRat(2)
        assert z == 2 and 2 == z and z != 3
        assert GaussRat(Fraction(1, 2)) == Fraction(1, 2) != GaussRat(Fraction(1, 3))
        assert GaussRat(1) != ProjPoint(GaussRat(1))
        assert GaussRat(1) != "1/1+0/1*i"
        assert GaussRat(1).__eq__(ProjPoint(GaussRat(1))) is NotImplemented
        assert GaussRat(1).__eq__("1") is NotImplemented
        assert z + 1 == 3 == 1 + z and z * Fraction(1, 2) == 1
        with pytest.raises(TypeError):
            z + "1"

    def test_parse_rejects_junk(self):
        for bad in ("", "i", "1..2", "1/0x", "one"):
            with pytest.raises(ParseError):
                GaussRat.parse(bad)

    @pytest.mark.parametrize("bad", ["1/0", "2+3/0*i", "0/0"])
    def test_parse_rejects_zero_denominator(self, bad):
        with pytest.raises(ParseError, match="zero denominator"):
            GaussRat.parse(bad)
        with pytest.raises(ParseError, match="zero denominator"):
            ProjPoint.parse("[%s:1]" % (bad,))

    @settings(max_examples=150, deadline=None)
    @given(gauss)
    def test_serialize_round_trip(self, z):
        assert GaussRat.parse(z.serialize()) == z

    @settings(max_examples=100, deadline=None)
    @given(gauss, gauss, gauss)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(nonzero_gauss)
    def test_field_inverse(self, z):
        assert z * (GaussRat(1) / z) == GaussRat(1)

    @settings(max_examples=100, deadline=None)
    @given(gauss, gauss)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


class TestProjPoint:
    def test_normal_form(self):
        p = ProjPoint(GaussRat(2), GaussRat(4))
        assert p.a == GaussRat(Fraction(1, 2)) and p.b == GaussRat(1)
        assert PP_INF.is_infinity()

    def test_serialize_text(self):
        # (1+2i)/(3-4i) = -1/5 + 2/5 i
        p = ProjPoint(GaussRat(1, 2), GaussRat(3, -4))
        assert p.serialize() == "[-1/5+2/5*i:1/1+0/1*i]"
        assert ProjPoint(GaussRat(7), GaussRat(0)).serialize() == "inf"

    def test_zero_zero_rejected(self):
        with pytest.raises(ExactFieldError):
            ProjPoint(GaussRat(0), GaussRat(0))

    def test_indeterminate_product(self):
        with pytest.raises(IndeterminateProduct):
            PP_ZERO.mul(PP_INF)

    def test_involutions(self):
        assert PP_INF.inv() == PP_ZERO
        assert PP_INF.one_minus() == PP_INF
        assert PP_ONE.one_minus() == PP_ZERO

    @settings(max_examples=150, deadline=None)
    @given(points)
    def test_serialize_round_trip(self, p):
        assert ProjPoint.parse(p.serialize()) == p

    @settings(max_examples=150, deadline=None)
    @given(gauss, st.one_of(gauss, st.builds(GaussRat, fractions)).filter(
        lambda b: not b.is_zero() and b != ONE))
    def test_homogeneous_pair_matches_quotient(self, a, b):
        # b ranges over non-real and real (also negative) scalars
        p = ProjPoint(a, b)
        assert p == ProjPoint(a / b)
        assert p.serialize() == ProjPoint(a / b).serialize()
        assert p.a == a / b and p.b == ONE

    @settings(max_examples=100, deadline=None)
    @given(points)
    def test_inv_involutive(self, p):
        assert p.inv().inv() == p
        assert p.one_minus().one_minus() == p


def _distinct(ps):
    return len(set(ps)) == len(ps)


quadruples = st.tuples(points, points, points, points).filter(_distinct)
quintuples = st.tuples(points, points, points, points, points).filter(_distinct)


class TestCrossRatio:
    def test_normalization(self):
        # the frame (z, 1, 0, inf) evaluates to z itself
        z = pp(Fraction(5, 7))
        assert cross_ratio(z, PP_ONE, PP_ZERO, PP_INF) == z

    def test_degenerate_two_two_patterns(self):
        a, b = pp(2), pp(3)
        assert cross_ratio(a, b, a, b) == PP_ZERO
        assert cross_ratio(a, b, b, a) == PP_INF
        assert cross_ratio(a, a, b, b) == PP_ONE

    def test_three_coincident_unstable(self):
        a, b = pp(2), pp(3)
        with pytest.raises(UnstableConfiguration):
            cross_ratio(a, a, a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.one_of(points, st.sampled_from([PP_ZERO, PP_ONE, PP_INF]))] * 4))
    def test_matches_determinant_formula(self, q):
        # (z1-z3)(z2-z4) : (z1-z4)(z2-z3) with zi-zj = ai*bj - aj*bi, in
        # GaussRat arithmetic on the public normal form; the small pool
        # {0, 1, inf} makes coincidences, and so the unstable case, common
        def det(z, w):
            return z.a * w.b - w.a * z.b

        z1, z2, z3, z4 = q
        num = det(z1, z3) * det(z2, z4)
        den = det(z1, z4) * det(z2, z3)
        if num.is_zero() and den.is_zero():
            with pytest.raises(UnstableConfiguration):
                cross_ratio(*q)
            return
        cr = cross_ratio(*q)
        if den.is_zero():
            assert cr.is_infinity() and cr == PP_INF
        else:
            assert cr.a == num / den and cr.b == ONE

    @settings(max_examples=150, deadline=None)
    @given(quadruples)
    def test_symmetry_relations(self, q):
        zi, zj, zk, zm = q
        cr = cross_ratio(zi, zj, zk, zm)
        assert cross_ratio(zk, zm, zi, zj) == cr
        assert cross_ratio(zj, zi, zk, zm) == cr.inv()
        assert cross_ratio(zi, zj, zm, zk) == cr.inv()
        assert cross_ratio(zm, zj, zk, zi) == cr.one_minus()
        assert cross_ratio(zi, zk, zj, zm) == cr.one_minus()

    @settings(max_examples=150, deadline=None)
    @given(quintuples)
    def test_cocycle(self, q):
        zi, zj, zk, zm, zn = q
        try:
            lhs = cross_ratio(zi, zj, zk, zn)
            rhs = cross_ratio(zi, zj, zk, zm).mul(cross_ratio(zi, zj, zm, zn))
        except IndeterminateProduct:
            return
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(quadruples, nonzero_gauss, gauss)
    def test_mobius_invariance(self, q, al, be):
        # z -> al*z + be is invertible for al != 0
        imgs = [mobius(z, al, be, GaussRat(0), GaussRat(1)) for z in q]
        assert cross_ratio(*imgs) == cross_ratio(*q)

    @settings(max_examples=100, deadline=None)
    @given(quadruples)
    def test_conjugation_equivariance(self, q):
        assert cross_ratio(*[z.conj() for z in q]) == cross_ratio(*q).conj()
