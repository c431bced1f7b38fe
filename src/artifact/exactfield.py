"""Exact arithmetic over Gaussian rationals and the projective line.

Every value is held as integers.  A scalar of Q(i) is (p + q*i) / d with
d > 0 and gcd(p, q, d) = 1; a point of the projective line is the
Gaussian-integer pair [p + q*i : d] with d >= 0 and gcd(p, q, d) = 1, so a
finite point shares the integers of its affine value and infinity is
[1 : 0], never a special flag.  Arithmetic runs on integer products with
one gcd reduction per result.  The cross ratio is computed on homogeneous
pairs, so degenerate 2|2 coincidence patterns fall out of the algebra
instead of needing case analysis.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class ExactFieldError(Exception):
    """Base class for arithmetic errors in this module."""


class DivisionByZero(ExactFieldError):
    pass


class UnstableConfiguration(ExactFieldError):
    """Three or more coincident inputs to a cross ratio."""


class IndeterminateProduct(ExactFieldError):
    """A projective product of the form 0 * inf."""


class ParseError(ExactFieldError):
    pass


_FRAC_RE = r"[+-]?\d+(?:/\d+)?"
_GR_RE = re.compile(
    r"^\s*(?P<re>" + _FRAC_RE + r")\s*(?P<im>[+-]\s*" + _FRAC_RE.lstrip("[+-]?") + r")?\s*"
    r"(?(im)\*i)\s*$"
)


_new = object.__new__


def _reduced(p: int, q: int, d: int):
    """(p, q, d) divided by gcd(p, q, d), for d > 0."""
    g = gcd(p, q, d)
    if g != 1:
        return p // g, q // g, d // g
    return p, q, d


def _text(key) -> str:
    # canonical text form "a/b+c/d*i" of (p + q*i)/d, each part reduced
    p, q, d = key
    g, h = gcd(p, d), gcd(q, d)
    return "%d/%d%s%d/%d*i" % (p // g, d // g, "+" if q >= 0 else "-", abs(q) // h, d // h)


class GaussRat:
    """A Gaussian rational re + im*i, held as the reduced integer triple
    (p, q, d) with re = p/d, im = q/d and d > 0."""

    __slots__ = ("_k",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            key = (re, im, 1)
        else:
            re, im = Fraction(re), Fraction(im)
            d1, d2 = re.denominator, im.denominator
            d = d1 * d2 // gcd(d1, d2)
            # both parts reduced, so the common denominator leaves the triple reduced
            key = (re.numerator * (d // d1), im.numerator * (d // d2), d)
        _gauss_k(self, key)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._k[0], self._k[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._k[1], self._k[2])

    def __add__(self, other):
        p1, q1, d1 = self._k
        p2, q2, d2 = (other if type(other) is GaussRat else _coerce(other))._k
        p, q, d = p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2
        g = gcd(p, q, d)
        return _gauss((p, q, d) if g == 1 else (p // g, q // g, d // g))

    def __sub__(self, other):
        p1, q1, d1 = self._k
        p2, q2, d2 = (other if type(other) is GaussRat else _coerce(other))._k
        p, q, d = p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2
        g = gcd(p, q, d)
        return _gauss((p, q, d) if g == 1 else (p // g, q // g, d // g))

    def __mul__(self, other):
        p1, q1, d1 = self._k
        p2, q2, d2 = (other if type(other) is GaussRat else _coerce(other))._k
        p, q, d = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2
        g = gcd(p, q, d)
        return _gauss((p, q, d) if g == 1 else (p // g, q // g, d // g))

    def __truediv__(self, other):
        p1, q1, d1 = self._k
        p2, q2, d2 = (other if type(other) is GaussRat else _coerce(other))._k
        n = p2 * p2 + q2 * q2
        if n == 0:
            raise DivisionByZero("division by zero GaussRat")
        # (p1 + q1*i)/d1 * d2/(p2 + q2*i) = (p1 + q1*i)(p2 - q2*i) d2 / (d1 n)
        p, q, d = (p1 * p2 + q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * n
        g = gcd(p, q, d)
        return _gauss((p, q, d) if g == 1 else (p // g, q // g, d // g))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        p, q, d = self._k
        return _gauss((-p, -q, d))

    def conj(self):
        p, q, d = self._k
        return _gauss((p, -q, d))

    def is_zero(self):
        return self._k[0] == 0 and self._k[1] == 0

    def is_real(self):
        return self._k[1] == 0

    def __eq__(self, other):
        if type(other) is GaussRat:
            return self._k == other._k
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def __bool__(self):
        return not self.is_zero()

    def serialize(self) -> str:
        return _text(self._k)

    @staticmethod
    def parse(s: str) -> "GaussRat":
        m = _GR_RE.match(s)
        if m is None:
            raise ParseError("bad GaussRat literal: %r" % (s,))
        im_txt = m.group("im")
        try:
            re_part = Fraction(m.group("re"))
            im_part = Fraction(im_txt.replace(" ", "")) if im_txt else Fraction(0)
        except ZeroDivisionError:
            raise ParseError("zero denominator in GaussRat literal: %r" % (s,)) from None
        return GaussRat(re_part, im_part)

    def __repr__(self):
        return "GaussRat(%r)" % (self.serialize(),)


_gauss_k = GaussRat._k.__set__


def _gauss(key) -> GaussRat:
    """The GaussRat with an already reduced key: the one constructor that
    skips __init__, setting _k through the slot's descriptor."""
    z = _new(GaussRat)
    _gauss_k(z, key)
    return z


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError("cannot coerce %r to GaussRat" % (x,))


ZERO = GaussRat(0)
ONE = GaussRat(1)

_INF = (1, 0, 0)


def _normal(ar: int, ai: int, br: int, bi: int):
    """Key (p, q, d) of the point [ar + ai*i : br + bi*i] of Gaussian
    integers, which must not both be zero."""
    if bi == 0:
        if br == 0:
            return _INF
        if br < 0:
            ar, ai, br = -ar, -ai, -br
        return _reduced(ar, ai, br)
    # [a : b] = [a * conj(b) : |b|^2]
    return _reduced(ar * br + ai * bi, ai * br - ar * bi, br * br + bi * bi)


class ProjPoint:
    """A point [a : b] of the projective line over Q(i).

    Held as the Gaussian-integer pair [p + q*i : d] described in the module
    docstring.  Public normal form: b = 1 for finite points, [1 : 0] for
    infinity.
    """

    __slots__ = ("_k",)

    def __init__(self, a, b=ONE):
        pa, qa, da = _coerce(a)._k
        pb, qb, db = _coerce(b)._k
        if pa == 0 and qa == 0 and pb == 0 and qb == 0:
            raise ExactFieldError("[0:0] is not a projective point")
        # clear denominators: [a : b] = [(pa + qa*i) db : (pb + qb*i) da]
        _point_k(self, _normal(pa * db, qa * db, pb * da, qb * da))

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def a(self) -> GaussRat:
        return ONE if self._k[2] == 0 else _gauss(self._k)

    @property
    def b(self) -> GaussRat:
        return ZERO if self._k[2] == 0 else ONE

    def is_infinity(self):
        return self._k[2] == 0

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        # the stored pair is canonical, so equality is componentwise
        return self._k == other._k

    def __hash__(self):
        return hash(self._k)

    def conj(self):
        p, q, d = self._k
        return _point((p, -q, d))

    def mul(self, other: "ProjPoint") -> "ProjPoint":
        """Projective product [a:b]*[c:d] = [ac:bd]; 0*inf is an error."""
        p1, q1, d1 = self._k
        p2, q2, d2 = other._k
        ar, ai, br = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2
        if ar == 0 and ai == 0 and br == 0:
            raise IndeterminateProduct("0*inf product")
        return _point(_normal(ar, ai, br, 0))

    def inv(self) -> "ProjPoint":
        p, q, d = self._k
        return _point(_normal(d, 0, p, q))

    def one_minus(self) -> "ProjPoint":
        """1 - [a:b] = [b-a : b]; 1 - inf = inf."""
        p, q, d = self._k
        if d == 0:
            return self
        # gcd(d - p, q, d) = gcd(p, q, d) = 1: already canonical
        return _point((d - p, -q, d))

    def serialize(self) -> str:
        if self._k[2] == 0:
            return "inf"
        return "[%s:1/1+0/1*i]" % (_text(self._k),)

    @staticmethod
    def parse(s: str) -> "ProjPoint":
        s = s.strip()
        if s == "inf":
            return PP_INF
        if not (s.startswith("[") and s.endswith("]")) or ":" not in s:
            raise ParseError("bad ProjPoint literal: %r" % (s,))
        left, right = s[1:-1].split(":", 1)
        a, b = GaussRat.parse(left), GaussRat.parse(right)
        if not (a or b):
            raise ParseError("bad ProjPoint literal: %r (both coordinates zero)" % (s,))
        return ProjPoint(a, b)

    def __repr__(self):
        return "ProjPoint(%r)" % (self.serialize(),)


_point_k = ProjPoint._k.__set__


def _point(key) -> ProjPoint:
    """The ProjPoint with an already canonical key: the one constructor
    that skips __init__, setting _k through the slot's descriptor."""
    z = _new(ProjPoint)
    _point_k(z, key)
    return z


PP_INF = ProjPoint(ONE, ZERO)
PP_ZERO = ProjPoint(ZERO)
PP_ONE = ProjPoint(ONE)


def pp(x) -> ProjPoint:
    """Finite point shortcut."""
    return ProjPoint(_coerce(x))


def gauss_rat(p: int, q: int, d: int) -> GaussRat:
    """The scalar (p + q*i)/d for integers p, q and d > 0, reduced by one gcd."""
    return _gauss(_reduced(p, q, d))


def finite_point(p: int, q: int, d: int) -> ProjPoint:
    """The point (p + q*i)/d for integers p, q and d > 0, reduced by one gcd."""
    return _point(_reduced(p, q, d))


def randbelow(rng, n: int) -> int:
    """A uniform draw from range(n), n >= 1: getrandbits(n.bit_length())
    until below n.  It is the draw that random.Random's randrange, randint
    and choice make, so rng.randint(a, b) is a + randbelow(rng, b - a + 1)
    on the same stream, without their frames."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def cross_ratio(z1: ProjPoint, z2: ProjPoint, z3: ProjPoint, z4: ProjPoint) -> ProjPoint:
    """CR(z1,z2,z3,z4) = ((z1-z3)/(z1-z4)) : ((z2-z3)/(z2-z4)).

    Computed homogeneously as (z1-z3)(z2-z4) : (z1-z4)(z2-z3), where
    zi-zj is the determinant of the two pairs.  Any single coincidence
    pattern among the degenerate 2|2 splits {z1=z3,z2=z4} -> 0,
    {z1=z4,z2=z3} -> inf and {z1=z2,z3=z4} -> 1 comes out of the same
    formula; three or more coincident points give [0:0] and raise
    UnstableConfiguration.
    """
    p1, q1, d1 = z1._k
    p2, q2, d2 = z2._k
    p3, q3, d3 = z3._k
    p4, q4, d4 = z4._k
    r13, i13 = p1 * d3 - p3 * d1, q1 * d3 - q3 * d1
    r24, i24 = p2 * d4 - p4 * d2, q2 * d4 - q4 * d2
    r14, i14 = p1 * d4 - p4 * d1, q1 * d4 - q4 * d1
    r23, i23 = p2 * d3 - p3 * d2, q2 * d3 - q3 * d2
    nr, ni = r13 * r24 - i13 * i24, r13 * i24 + i13 * r24
    dr, di = r14 * r23 - i14 * i23, r14 * i23 + i14 * r23
    if nr == 0 and ni == 0 and dr == 0 and di == 0:
        raise UnstableConfiguration("three or more coincident points")
    return _point(_normal(nr, ni, dr, di))


def frame(r0: ProjPoint, r1: ProjPoint, r2: ProjPoint):
    """The Mobius map sending r0, r1, r2 to inf, 0, 1, as a function of z.

    Its value at z is cross_ratio(z, r2, r1, r0), by the same homogeneous
    formula with the two differences free of z computed once.
    """
    p0, q0, d0 = r0._k
    p1, q1, d1 = r1._k
    p2, q2, d2 = r2._k
    r20, i20 = p2 * d0 - p0 * d2, q2 * d0 - q0 * d2
    r21, i21 = p2 * d1 - p1 * d2, q2 * d1 - q1 * d2

    def apply(z: ProjPoint) -> ProjPoint:
        p, q, d = z._k
        rz1, iz1 = p * d1 - p1 * d, q * d1 - q1 * d
        rz0, iz0 = p * d0 - p0 * d, q * d0 - q0 * d
        nr, ni = rz1 * r20 - iz1 * i20, rz1 * i20 + iz1 * r20
        dr, di = rz0 * r21 - iz0 * i21, rz0 * i21 + iz0 * r21
        if nr == 0 and ni == 0 and dr == 0 and di == 0:
            raise UnstableConfiguration("three or more coincident points")
        return _point(_normal(nr, ni, dr, di))

    return apply


def mobius(z: ProjPoint, al, be, ga, de) -> ProjPoint:
    """[a:b] -> [al*a+be*b : ga*a+de*b]; requires al*de - be*ga != 0."""
    al, be, ga, de = map(_coerce, (al, be, ga, de))
    if (al * de - be * ga).is_zero():
        raise ExactFieldError("singular Mobius transformation")
    return ProjPoint(al * z.a + be * z.b, ga * z.a + de * z.b)
