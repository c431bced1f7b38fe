"""Exact scalar and projective-line arithmetic."""

import itertools
import operator
import random
import re

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
    _add,
    _cross,
    _div,
    _frame,
    _mul,
    _sub,
    cross_ratio,
    frame,
    pp,
    randbelow,
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


def _seeded_scalars(seed, n=36):
    """Zero, negative, purely imaginary and mixed values, then seeded ones."""
    rng = random.Random(seed)
    zs = [GaussRat(0), GaussRat(-3), GaussRat(Fraction(-5, 4)), GaussRat(0, 1),
          GaussRat(0, Fraction(-2, 7)), GaussRat(Fraction(5, 6), Fraction(-1, 4))]
    while len(zs) < n:
        re_ = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        im = Fraction(rng.randint(-30, 30), rng.randint(1, 30)) if rng.random() < 0.7 else 0
        zs.append(GaussRat(re_, im))
    return zs


def _by_fractions(op, a, b):
    """a op b on (re, im) pairs of Fractions."""
    (ar, ai), (br, bi) = a, b
    if op == "+":
        return ar + br, ai + bi
    if op == "-":
        return ar - br, ai - bi
    if op == "*":
        return ar * br - ai * bi, ar * bi + ai * br
    n = br * br + bi * bi
    return (ar * br + ai * bi) / n, (ai * br - ar * bi) / n


# operator: (key op, Python operator, reflected dunder)
KERNEL = {"+": (_add, operator.add, "__radd__"), "-": (_sub, operator.sub, "__rsub__"),
          "*": (_mul, operator.mul, "__rmul__"), "/": (_div, operator.truediv, "__rtruediv__")}


def _cross_by_fractions(keys):
    """The cross ratio of four point keys by the determinant formula
    (z1-z3)(z2-z4) : (z1-z4)(z2-z3), zi-zj = ai*bj - aj*bi, on the
    homogeneous pairs [p + q*i : d] as (re, im) pairs of Fractions: the
    key of the value, or None for [0 : 0]."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def det(z, w):
        (ar, ai), (br, bi) = mul(z[0], w[1]), mul(w[0], z[1])
        return ar - br, ai - bi

    z1, z2, z3, z4 = [((Fraction(p), Fraction(q)), (Fraction(d), Fraction(0)))
                      for p, q, d in keys]
    num = mul(det(z1, z3), det(z2, z4))
    den = mul(det(z1, z4), det(z2, z3))
    if den == (0, 0):
        return None if num == (0, 0) else PP_INF._k
    return GaussRat(*_by_fractions("/", num, den))._k


class TestKernel:
    """GaussRat's operators are the key ops of the scalar kernel: on seeded
    values each equals the key op and Fraction arithmetic, reflected and
    with int and Fraction operands too.  cross_ratio is the point kernel's
    _cross on keys."""

    @pytest.mark.parametrize("op", sorted(KERNEL))
    def test_operators_match_key_ops_and_fractions(self, op):
        key_op, py_op, reflected = KERNEL[op]
        zs = _seeded_scalars("kernel:" + op)
        others = [3, -2, 0, Fraction(-7, 3), Fraction(0)]
        checked = 0
        for a, b in itertools.product(zs, zs + [GaussRat(x) for x in others]):
            if op == "/" and b.is_zero():
                continue
            want = _by_fractions(op, (a.re, a.im), (b.re, b.im))
            for got in (py_op(a, b), getattr(b, reflected)(a)):
                assert type(got) is GaussRat
                assert got._k == key_op(a._k, b._k) == GaussRat(*want)._k
                assert (got.re, got.im) == want
            checked += 1
        for a, x in itertools.product(zs, others):
            if op == "/" and x == 0:
                continue
            want = _by_fractions(op, (a.re, a.im), (Fraction(x), Fraction(0)))
            assert py_op(a, x)._k == key_op(a._k, GaussRat(x)._k) == GaussRat(*want)._k
            if a.is_zero() and op == "/":
                continue
            back = _by_fractions(op, (Fraction(x), Fraction(0)), (a.re, a.im))
            assert py_op(x, a)._k == key_op(GaussRat(x)._k, a._k) == GaussRat(*back)._k
            checked += 1
        assert checked > 1000

    def test_division_by_zero(self):
        for z in _seeded_scalars("kernel:zero")[:12]:
            for zero in (GaussRat(0), 0, Fraction(0)):
                with pytest.raises(DivisionByZero):
                    z / zero
            with pytest.raises(DivisionByZero):
                _div(z._k, (0, 0, 1))
            for x in (z, 1, Fraction(1, 2)):
                with pytest.raises(DivisionByZero):
                    x / GaussRat(0)

    def test_cross_matches_cross_ratio_and_fractions(self):
        # seeded quadruples from a pool of 0, 1, inf and twelve seeded
        # points, so that coincidences, and with them the 2|2 values and
        # the unstable case, are common
        rng = random.Random("kernel:cross")
        pool = [PP_ZERO, PP_ONE, PP_INF] + [
            ProjPoint(z) for z in _seeded_scalars("kernel:cross-points", 12)[3:]]
        seen = set()
        for _ in range(3000):
            q = [rng.choice(pool) for _ in range(4)]
            keys = [z._k for z in q]
            want = _cross_by_fractions(keys)
            if want is None:
                for f in (cross_ratio, lambda *zs: _cross(*(z._k for z in zs))):
                    with pytest.raises(UnstableConfiguration):
                        f(*q)
                seen.add("unstable")
                continue
            got = _cross(*keys)
            assert got == want == cross_ratio(*q)._k
            seen.add(len(set(keys)))
        assert seen == {"unstable", 2, 3, 4}

    def test_frame_matches_frame_and_cross(self):
        # seeded references and points from a pool of 0, 1, inf and nine
        # seeded points, so that inf is often a reference and coincident
        # inputs are common: the key map _frame equals frame() and the
        # cross ratio CR(z, r2, r1, r0), and raises where it is unstable
        rng = random.Random("kernel:frame-map")
        pool = [PP_ZERO, PP_ONE, PP_INF] + [
            ProjPoint(z) for z in _seeded_scalars("kernel:frame-points", 12)[3:]]
        seen = set()
        for _ in range(2000):
            refs = [rng.choice(pool) for _ in range(3)]
            z = rng.choice(pool)
            to_key, to_point = _frame(*(r._k for r in refs)), frame(*refs)
            want = _cross_by_fractions((z._k, refs[2]._k, refs[1]._k, refs[0]._k))
            if want is None:
                with pytest.raises(UnstableConfiguration):
                    to_key(z._k)
                with pytest.raises(UnstableConfiguration):
                    to_point(z)
                seen.add("unstable")
                continue
            got = to_point(z)
            assert type(got) is ProjPoint
            assert to_key(z._k) == got._k == want
            seen.add("inf reference" if PP_INF in refs else "finite references")
        assert seen == {"unstable", "inf reference", "finite references"}
        # the references themselves go to inf, 0 and 1
        refs = [PP_INF, pp(Fraction(-2, 3)), ProjPoint(GaussRat(1, 4))]
        to_key = _frame(*(r._k for r in refs))
        assert [to_key(r._k) for r in refs] == [PP_INF._k, PP_ZERO._k, PP_ONE._k]

    def test_cross_at_0_1_inf_and_the_2_2_patterns(self):
        # the frame (x, 1, 0, inf) gives x, at 0, 1 and inf too; the three
        # 2|2 coincidence patterns give 0, inf and 1; three coincident
        # points are unstable
        frame = (PP_ONE._k, PP_ZERO._k, PP_INF._k)
        for x in [PP_ZERO, PP_ONE, PP_INF] + [ProjPoint(z) for z in
                                             _seeded_scalars("kernel:frame", 9)[1:]]:
            assert _cross(x._k, *frame) == x._k
        for z in _seeded_scalars("kernel:two-two", 12):
            pairs = [(ProjPoint(z)._k, PP_INF._k), (PP_ZERO._k, ProjPoint(z + 1)._k)]
            for a, b in [(a, b) for a, b in pairs if a != b]:
                assert _cross(a, b, a, b) == PP_ZERO._k == _cross_by_fractions((a, b, a, b))
                assert _cross(a, b, b, a) == PP_INF._k == _cross_by_fractions((a, b, b, a))
                assert _cross(a, a, b, b) == PP_ONE._k == _cross_by_fractions((a, a, b, b))
                for keys in ((a, a, a, b), (b, a, b, b), (a, a, a, a)):
                    assert _cross_by_fractions(keys) is None
                    with pytest.raises(UnstableConfiguration):
                        _cross(*keys)


class TestProjPoint:
    def test_normal_form(self):
        p = ProjPoint(GaussRat(2), GaussRat(4))
        assert p.a == GaussRat(Fraction(1, 2)) and p.b == GaussRat(1)
        assert PP_INF.a == GaussRat(1) and PP_INF.b == GaussRat(0)

    def test_serialize_text(self):
        # (1+2i)/(3-4i) = -1/5 + 2/5 i
        p = ProjPoint(GaussRat(1, 2), GaussRat(3, -4))
        assert p.serialize() == "[-1/5+2/5*i:1/1+0/1*i]"
        assert ProjPoint(GaussRat(7), GaussRat(0)).serialize() == "inf"

    def test_zero_zero_rejected(self):
        with pytest.raises(ExactFieldError):
            ProjPoint(GaussRat(0), GaussRat(0))

    @pytest.mark.parametrize("bad", ["[0:0]", "[0/1:0/5]"])
    def test_parse_rejects_zero_pair(self, bad):
        # both coordinates zero: ParseError, not the constructor's error
        with pytest.raises(ParseError, match=re.escape("bad ProjPoint literal: %r" % (bad,))):
            ProjPoint.parse(bad)

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


class TestRandbelow:
    """randbelow makes the draws of random.Random's randrange, randint and
    choice: the same values from the same stream, leaving the generator in
    the same state."""

    def test_same_streams(self):
        import random
        for seed in range(40):
            a, b = random.Random(seed), random.Random(seed)
            for n in range(1, 201):
                assert a.randrange(n) == randbelow(b, n)
                lo = seed - n // 2
                assert a.randint(lo, lo + n - 1) == lo + randbelow(b, n)
                seq = list(range(n))
                assert a.choice(seq) == seq[randbelow(b, n)]
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_raises(self, n):
        # as randrange does; getrandbits(0) is 0, which is never below 0
        with pytest.raises(ValueError):
            random.Random(0).randrange(n)
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n)


def _distinct(ps):
    return len(set(ps)) == len(ps)


quadruples = st.tuples(points, points, points, points).filter(_distinct)
quintuples = st.tuples(points, points, points, points, points).filter(_distinct)


def _mobius(z, al, be, ga, de):
    """[a:b] -> [al*a + be*b : ga*a + de*b], for GaussRat coefficients with
    al*de - be*ga != 0."""
    return ProjPoint(al * z.a + be * z.b, ga * z.a + de * z.b)


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
            assert cr == PP_INF
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
        imgs = [_mobius(z, al, be, GaussRat(0), GaussRat(1)) for z in q]
        assert cross_ratio(*imgs) == cross_ratio(*q)

    @settings(max_examples=100, deadline=None)
    @given(quadruples)
    def test_conjugation_equivariance(self, q):
        assert cross_ratio(*[z.conj() for z in q]) == cross_ratio(*q).conj()
