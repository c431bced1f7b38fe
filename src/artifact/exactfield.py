"""Exact arithmetic over Gaussian rationals and the projective line.

Every value is held as integers.  A scalar of Q(i) is (p + q*i) / d with
d > 0 and gcd(p, q, d) = 1; a point of the projective line is the
Gaussian-integer pair [p + q*i : d] with d >= 0 and gcd(p, q, d) = 1, so a
finite point shares the integers of its affine value and infinity is
[1 : 0], never a special flag.  Arithmetic runs on integer products with
one gcd reduction per result.  The cross ratio is computed on homogeneous
pairs, so degenerate 2|2 coincidence patterns fall out of the algebra
instead of needing case analysis.

The reduced triple (p, q, d) is a scalar's key, and a point's key is
its triple with d >= 0.  One kernel maps keys to keys: ``_add``,
``_sub``, ``_mul`` and ``_div`` on scalars, and on points the cross ratio
``_cross``, the projective product ``_pmul`` (None for 0 * inf), the
reciprocal ``_pinv``, ``_one_minus`` and the framing map ``_frame``.
:class:`GaussRat` and :class:`ProjPoint` hold a key; their operators,
:func:`cross_ratio` and :func:`frame` wrap the kernel, building one object
for the result.  Code that chains many operations, such as the local-model
chart algebra, the reconstruction table and the curves, whose points are
keys, calls the kernel on keys and builds objects only at its boundary.
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


# The scalar kernel: sums, differences, products and quotients of keys,
# each reduced by one gcd.

def _add(a, b):
    p1, q1, d1 = a
    p2, q2, d2 = b
    p, q, d = p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2
    g = gcd(p, q, d)
    return (p, q, d) if g == 1 else (p // g, q // g, d // g)


def _sub(a, b):
    p1, q1, d1 = a
    p2, q2, d2 = b
    p, q, d = p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2
    g = gcd(p, q, d)
    return (p, q, d) if g == 1 else (p // g, q // g, d // g)


def _mul(a, b):
    p1, q1, d1 = a
    p2, q2, d2 = b
    p, q, d = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2
    g = gcd(p, q, d)
    return (p, q, d) if g == 1 else (p // g, q // g, d // g)


def _div(a, b):
    p1, q1, d1 = a
    p2, q2, d2 = b
    n = p2 * p2 + q2 * q2
    if n == 0:
        raise DivisionByZero("division by zero GaussRat")
    # (p1 + q1*i)/d1 * d2/(p2 + q2*i) = (p1 + q1*i)(p2 - q2*i) d2 / (d1 n)
    p, q, d = (p1 * p2 + q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * n
    g = gcd(p, q, d)
    return (p, q, d) if g == 1 else (p // g, q // g, d // g)


def _text(key) -> str:
    # canonical text form "a/b+c/d*i" of (p + q*i)/d, each part reduced
    p, q, d = key
    g, h = gcd(p, d), gcd(q, d)
    return "%d/%d%s%d/%d*i" % (p // g, d // g, "+" if q >= 0 else "-", abs(q) // h, d // h)


def point_text(key) -> str:
    """The text of the point with key (p, q, d), as ProjPoint.serialize writes it."""
    return "[%s:1/1+0/1*i]" % (_text(key),) if key[2] else "inf"


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
        return _gauss(_add(self._k, _key(other)))

    def __sub__(self, other):
        return _gauss(_sub(self._k, _key(other)))

    def __mul__(self, other):
        return _gauss(_mul(self._k, _key(other)))

    def __truediv__(self, other):
        return _gauss(_div(self._k, _key(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _gauss(_sub(_key(other), self._k))

    def __rtruediv__(self, other):
        return _gauss(_div(_key(other), self._k))

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


def _key(x):
    """The key of a GaussRat, int or Fraction operand."""
    return x._k if type(x) is GaussRat else _coerce(x)._k


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


# The point kernel: cross ratios, products, reciprocals, 1 - x and the
# framing map of point keys, each returning a canonical key.

def _cross(k1, k2, k3, k4):
    """The key of CR(z1, z2, z3, z4) for the points with keys k1..k4: see
    cross_ratio."""
    p1, q1, d1 = k1
    p2, q2, d2 = k2
    p3, q3, d3 = k3
    p4, q4, d4 = k4
    r13, i13 = p1 * d3 - p3 * d1, q1 * d3 - q3 * d1
    r24, i24 = p2 * d4 - p4 * d2, q2 * d4 - q4 * d2
    r14, i14 = p1 * d4 - p4 * d1, q1 * d4 - q4 * d1
    r23, i23 = p2 * d3 - p3 * d2, q2 * d3 - q3 * d2
    nr, ni = r13 * r24 - i13 * i24, r13 * i24 + i13 * r24
    dr, di = r14 * r23 - i14 * i23, r14 * i23 + i14 * r23
    if nr == 0 and ni == 0 and dr == 0 and di == 0:
        raise UnstableConfiguration("three or more coincident points")
    return _normal(nr, ni, dr, di)


def _pmul(a, b):
    """The key of the projective product [a:b]*[c:d] = [ac:bd], or None
    for 0*inf, the one indeterminate product."""
    p1, q1, d1 = a
    p2, q2, d2 = b
    ar, ai, br = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2
    if ar == 0 and ai == 0 and br == 0:
        return None
    return _normal(ar, ai, br, 0)


def _pinv(k):
    """The key of 1/x = [d : p+qi] for x = [p+qi : d]."""
    p, q, d = k
    return _normal(d, 0, p, q)


def _one_minus(k):
    """The key of 1 - x = [d-p-qi : d]; 1 - inf is inf, the key itself."""
    p, q, d = k
    if d == 0:
        return k
    # gcd(d - p, q, d) = gcd(p, q, d) = 1: already canonical
    return d - p, -q, d


def _frame(k0, k1, k2):
    """The Mobius map sending the points r0, r1, r2 with keys k0, k1, k2
    to inf, 0 and 1, as a map of keys: z's key to that of CR(z, r2, r1,
    r0), by _cross's formula with the two differences free of z computed
    once."""
    p0, q0, d0 = k0
    p1, q1, d1 = k1
    p2, q2, d2 = k2
    r20, i20 = p2 * d0 - p0 * d2, q2 * d0 - q0 * d2
    r21, i21 = p2 * d1 - p1 * d2, q2 * d1 - q1 * d2

    def apply(k):
        p, q, d = k
        rz1, iz1 = p * d1 - p1 * d, q * d1 - q1 * d
        rz0, iz0 = p * d0 - p0 * d, q * d0 - q0 * d
        nr, ni = rz1 * r20 - iz1 * i20, rz1 * i20 + iz1 * r20
        dr, di = rz0 * r21 - iz0 * i21, rz0 * i21 + iz0 * r21
        if nr == 0 and ni == 0 and dr == 0 and di == 0:
            raise UnstableConfiguration("three or more coincident points")
        return _normal(nr, ni, dr, di)

    return apply


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
        key = _pmul(self._k, other._k)
        if key is None:
            raise IndeterminateProduct("0*inf product")
        return _point(key)

    def inv(self) -> "ProjPoint":
        return _point(_pinv(self._k))

    def one_minus(self) -> "ProjPoint":
        """1 - [a:b] = [b-a : b]; 1 - inf = inf."""
        key = _one_minus(self._k)
        return self if key is self._k else _point(key)

    def serialize(self) -> str:
        return point_text(self._k)

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


def finite_point(p: int, q: int, d: int) -> ProjPoint:
    """The point (p + q*i)/d for integers p, q and d > 0, reduced by one gcd."""
    return _point(_reduced(p, q, d))


def randbelow(rng, n: int) -> int:
    """A uniform draw from range(n), n >= 1: getrandbits(n.bit_length())
    until below n.  It is the draw that random.Random's randrange, randint
    and choice make, so rng.randint(a, b) is a + randbelow(rng, b - a + 1)
    on the same stream, without their frames.  Like randrange, raises
    ValueError for an empty range (n < 1).  verify-cr's point draw calls
    it; the other samplers make this draw inline, and the draw tests
    compare them with it."""
    if n < 1:
        raise ValueError("empty range for randbelow(%r)" % (n,))
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
    return _point(_cross(z1._k, z2._k, z3._k, z4._k))


def frame(r0: ProjPoint, r1: ProjPoint, r2: ProjPoint):
    """The Mobius map sending r0, r1, r2 to inf, 0, 1, as a function of z
    (see _frame)."""
    apply = _frame(r0._k, r1._k, r2._k)
    return lambda z: _point(apply(z._k))
