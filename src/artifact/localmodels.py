"""Local models of real, complex and augmented blowups with exact charts.

The model space is R^c x R^m (or C^c x R^m), blown up along Y = 0 x R^m.
Three model families are provided:

* ``real``      -- the real blowup of R^c x R^m along 0 x R^m; charts
                   indexed by i in [c], chart i parametrized by the line
                   coordinates (r_j)_{j != i} (with r_i = 1 implicit) and
                   the fiber coordinate in slot i.
* ``complex``   -- the same chart combinatorics with Gaussian-rational
                   scalars in the first c slots.
* ``augmented`` -- the two-step model for a pair (c, c1): a first family
                   of charts (k=1, i in [c1]) that are the standard charts
                   restricted to the first block, and a second family
                   (k=2, i in {0} u [c1]) parametrizing a projective-space
                   bundle over RP^{c1}; the two families are glued where
                   the v-block is nonzero.

The chart algebra runs on keys: a scalar is the reduced integer triple
(p, q, d) of a :class:`~artifact.exactfield.GaussRat`, combined by the
scalar kernel of :mod:`~artifact.exactfield`, and a point is its chart and
its coordinates' keys, so equal points and images are equal integer
tuples.  The key functions form one layer.  :func:`_read` reads a chart
presentation once into its line data, its base keys and, on an augmented
model, the sum of squares of its fiber direction and its line data glued
to the other chart family.  Its image (:func:`_blowdown`), its locus tag
(:func:`_tag`) and its moves (:func:`_move`; :func:`_moves` into every
chart) are computed from that reading.  The public functions take and give
:class:`BlowupPoint` with ``GaussRat`` coordinates (real models enforce a
zero imaginary part), convert at the boundary and call the key functions,
as :func:`verify_model` does.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .exactfield import GaussRat, _add, _div, _gauss, _key, _mul, _reduced

Scalar = GaussRat
_set = object.__setattr__
ChartId = Tuple[int, int]
#: the key (p, q, d) of a scalar, and the keys of a point's coordinates
Key = Tuple[int, int, int]
Keys = Tuple[Key, ...]
#: the fiber part of line data: a scale, or a second-family direction
Fiber = Union[Key, List[Key]]
#: a point presentation read once (see _read): line, x, s2, glued, base
Reading = Tuple[List[Key], Fiber, Optional[Key], Optional[Tuple[List[Key], Fiber]], Keys]
_ZERO, _ONE = (0, 0, 1), (1, 0, 1)


class LocalModelError(Exception):
    """Base class for local-model errors."""


class TransitionDomainError(LocalModelError):
    """The point is outside the domain of the requested chart transition."""


@dataclass(frozen=True)
class Model:
    """A blowup model: kind in {"real", "complex", "augmented"}.

    ``c`` is the codimension of the center (number of blown-up slots),
    ``c1`` the size of the first block for augmented models (None
    otherwise) and ``m`` the number of untouched base slots.
    ``chart_ids`` holds the ids of :meth:`charts`, in that order, and
    ``relation_names`` the names of the blowup-recognition relations
    ("slot1", .., "base1", ..), which every chart checks in that order.
    """

    kind: str
    c: int
    m: int
    c1: Optional[int] = None
    chart_ids: Tuple[ChartId, ...] = field(init=False, repr=False, compare=False)
    relation_names: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("real", "complex", "augmented"):
            raise LocalModelError("unknown model kind %r" % (self.kind,))
        if self.c < 2 or self.m < 0:
            raise LocalModelError("need c >= 2 and m >= 0")
        if self.kind == "augmented":
            if self.c1 is None or not (1 <= self.c1 < self.c):
                raise LocalModelError("augmented model needs 1 <= c1 < c")
        elif self.c1 is not None:
            raise LocalModelError("c1 only applies to augmented models")
        if self.kind == "augmented":
            ids = [(1, i) for i in range(1, self.c1 + 1)]
            ids += [(2, i) for i in range(self.c1 + 1)]
        else:
            ids = [(1, i) for i in range(1, self.c + 1)]
        _set(self, "chart_ids", tuple(ids))
        _set(self, "relation_names",
             tuple(["slot%d" % j for j in range(1, self.c + 1)]
                   + ["base%d" % j for j in range(1, self.m + 1)]))

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex"

    def charts(self) -> List[ChartId]:
        """All chart ids: (1, i) for first-family, (2, i) for second."""
        return list(self.chart_ids)


#: first-class model instances used by the verification suites
PRESETS: Dict[str, Model] = {
    "real3": Model("real", c=3, m=1),
    "complex2": Model("complex", c=2, m=1),
    "aug31": Model("augmented", c=3, m=1, c1=1),
}


@dataclass(frozen=True)
class BlowupPoint:
    """A point of the blown-up model, expressed in one chart.

    ``coords`` has length c + m: the first c entries are the chart
    coordinates of the blown-up factor, the last m the base coordinates.
    """

    model: Model
    chart: ChartId
    coords: Tuple[Scalar, ...]

    def __post_init__(self):
        m = self.model
        if self.chart not in m.chart_ids:
            raise LocalModelError("chart %r not in model" % (self.chart,))
        if len(self.coords) != m.c + m.m:
            raise LocalModelError(
                "expected %d coordinates, got %d" % (m.c + m.m, len(self.coords))
            )
        real_from = m.c if m.is_complex else 0
        for k, z in enumerate(self.coords):
            if not isinstance(z, GaussRat):
                raise LocalModelError("coordinate %d is not exact" % (k,))
            if k >= real_from and not z.is_real():
                raise LocalModelError(
                    "coordinate %d must be real in this model" % (k,)
                )

    @classmethod
    def _of(cls, model: Model, chart: ChartId, coords: Tuple[Scalar, ...]) -> "BlowupPoint":
        """The point with the given fields, without the checks of
        __post_init__; the caller guarantees them."""
        p = object.__new__(cls)
        _set(p, "model", model)
        _set(p, "chart", chart)
        _set(p, "coords", coords)
        return p

    def serialize(self) -> str:
        return "%s;k%d;i%d;%s" % (
            self.model.kind,
            self.chart[0],
            self.chart[1],
            ",".join(z.serialize() for z in self.coords),
        )


def _keys(p: BlowupPoint) -> Keys:
    return tuple([z._k for z in p.coords])


def _scalars(u: Keys) -> Tuple[Scalar, ...]:
    return tuple(map(_gauss, u))


# ---------------------------------------------------------------------------
# readings of a chart presentation
# ---------------------------------------------------------------------------


def _read(m: Model, chart: ChartId, u: Keys) -> Reading:
    """The reading (line, x, s2, glued, base) of the point with coordinate
    keys ``u`` in ``chart``: its line data (line, x), on an augmented model
    the sum of squares s2 of its fiber direction and its line data glued
    to the other family (None elsewhere), and its base keys.

    Standard or first-family chart i: the line rho with rho_i = 1 and the
    fiber scale x = u_i, so model slot j carries x * rho_j.  Second-family
    chart i: the line r = (r_0, .., r_{c1}) with r_i = 1, whose other
    entries the chart lists in order, and x = lam, the v-row after them.

    Second-family (r, lam) glues, where the v-block is nonzero, to the
    first-family direction (r_j * |lam|^2)_{j in [c1]} followed by lam,
    with fiber scale r_0; s2 = |lam|^2.  The inverse needs a nonzero
    second-block direction lam = rho[c1:], with s2 = |lam|^2; it gives
    r = (x, rho_j / s2)_{j in [c1]}, and no glued data where s2 = 0.
    """
    k, i = chart
    base = u[m.c:]
    if k == 2:
        line, x = list(u[:i]) + [_ONE] + list(u[i: m.c1]), list(u[m.c1: m.c])
        s2 = _sum_sq(x)
        return line, x, s2, ([_mul(rj, s2) for rj in line[1:]] + x, line[0]), base
    line, x = list(u[: m.c]), u[i - 1]
    line[i - 1] = _ONE
    if m.kind != "augmented":
        return line, x, None, None, base
    lam = line[m.c1:]
    s2 = _sum_sq(lam)
    glued = None if s2 == _ZERO else ([x] + [_div(rj, s2) for rj in line[: m.c1]], lam)
    return line, x, s2, glued, base


def _sum_sq(vals: Sequence[Key]) -> Key:
    """The sum of the squares of the keys ``vals``, of which there is at
    least one."""
    it = iter(vals)
    z = next(it)
    acc = _mul(z, z)
    for z in it:
        acc = _add(acc, _mul(z, z))
    return acc


# ---------------------------------------------------------------------------
# blowdown maps
# ---------------------------------------------------------------------------


def blowdown(p: BlowupPoint) -> Tuple[Scalar, ...]:
    """Image of ``p`` in the model space R^c x R^m (or C^c x R^m).

    With the line data (line, x) of :func:`_read`, a standard or
    first-family chart maps slot j to x * rho_j.  A second-family chart
    maps the first block of slots to r_0 * r_j * |lam|^2 and the second
    block to r_0 * lam_{j-c1}, the first-family image of its glued line
    data, which this formula extends over the v-block zero locus.
    """
    return _scalars(_blowdown(p.chart, _read(p.model, p.chart, _keys(p))))


def _blowdown(chart: ChartId, read: Reading) -> Keys:
    """The image keys of the point with reading ``read`` in ``chart``."""
    line, x, _s2, glued, base = read
    if chart[0] == 2:
        line, x = glued
    return tuple([_mul(x, rj) for rj in line]) + base


# ---------------------------------------------------------------------------
# chart transitions
# ---------------------------------------------------------------------------


def _in_chart(target: ChartId, line: List[Key], x: Fiber, base: Keys) -> Keys:
    """The coordinate keys of the point with line data (line, x) in chart
    ``target``, where the target's line coordinate must not vanish.  The
    line need not be normalized: rescaling it (and x inversely) is the
    same point."""
    k, it = target
    slot = it - 1 if k == 1 else it
    ri = line[slot]
    if ri == _ZERO:
        raise TransitionDomainError("line coordinate %d vanishes; chart %r unreachable"
                                    % (it, target))
    out = [_div(rj, ri) for rj in line[:slot] + line[slot + 1:]]
    if k == 1:
        out.insert(slot, _mul(x, ri))
    else:
        out += [_mul(ri, lam) for lam in x]
    return tuple(out) + base


#: the domain error of a move out of chart family k into the other family
_UNGLUED = {
    2: "v-block vanishes; point not glued to first family",
    1: "second-block direction vanishes; point not glued to second family",
}


def _move(chart: ChartId, read: Reading, target: ChartId) -> Keys:
    """The point with reading ``read`` in ``chart`` written into
    ``target``, another chart of the model: through its glued line data
    when the two charts' families differ, which needs s2 != 0."""
    line, x, s2, glued, base = read
    if target[0] != chart[0]:
        if s2 == _ZERO:
            raise TransitionDomainError(_UNGLUED[chart[0]])
        line, x = glued
    return _in_chart(target, line, x, base)


def transition(p: BlowupPoint, target: ChartId) -> BlowupPoint:
    """Express ``p`` in another chart of the same model: read its line
    data, glue it to the other augmented family when the two charts'
    families differ, and write it into the target chart.

    Raises :class:`TransitionDomainError` when the point lies outside the
    target chart's domain (the relevant line coordinate vanishes, or a
    cross-family move needs a nonzero v-block / second-block direction).
    """
    m = p.model
    if target not in m.chart_ids:
        raise LocalModelError("chart %r not in model" % (target,))
    if target == p.chart:
        return p
    q = _move(p.chart, _read(m, p.chart, _keys(p)), target)
    return BlowupPoint._of(m, target, _scalars(q))


def chart_moves(p: BlowupPoint) -> Dict[ChartId, Optional[BlowupPoint]]:
    """``p`` moved into every chart of its model (``p`` itself in its own
    chart), or None where the point is outside that chart's domain."""
    m, u = p.model, _keys(p)
    moves = _moves(m, p.chart, u, _read(m, p.chart, u))[0]
    return {t: p if t == p.chart else None if q is None else BlowupPoint._of(m, t, _scalars(q))
            for t, q in moves.items()}


def _moves(m: Model, chart: ChartId, u: Keys, read: Reading
           ) -> Tuple[Dict[ChartId, Optional[Keys]], Dict[ChartId, Reading]]:
    """The keys ``u`` of a point of ``chart``, with reading ``read``, moved
    into every chart of the model (``u`` itself in ``chart``), or None
    where the point is outside that chart's domain; and the reading of
    each presentation that exists."""
    moves: Dict[ChartId, Optional[Keys]] = {}
    reads = {chart: read}
    for target in m.chart_ids:
        if target == chart:
            moves[target] = u
            continue
        try:
            q = _move(chart, read, target)
        except TransitionDomainError:
            moves[target] = None
            continue
        moves[target], reads[target] = q, _read(m, target, q)
    return moves, reads


def cocycle_check(
    moves: Dict[ChartId, Optional[BlowupPoint]], a: ChartId, a1: ChartId
) -> bool:
    """Exact cocycle identity for a point p in chart a2: moving
    p -> a2 -> a1 -> a equals p -> a2 -> a.

    ``moves`` is :func:`chart_moves` of p, so the direct route is the stored
    move into ``a`` and the other route moves the stored point in ``a1`` on
    to ``a``.  Raises :class:`TransitionDomainError` when p is outside the
    triple-overlap domain.
    """
    direct, q1 = moves[a], moves[a1]
    if direct is None or q1 is None:
        raise TransitionDomainError("point outside the overlap of charts %r and %r"
                                    % (a, a1))
    u1 = _keys(q1)
    return _keys(direct) == (u1 if a1 == a else _move(a1, _read(q1.model, a1, u1), a))


# ---------------------------------------------------------------------------
# exceptional locus
# ---------------------------------------------------------------------------

OFF = "off"
EXC = "E"
E_ZERO = "E0"
E_MINUS = "E-"
E_BOTH = "E0&E-"


def exceptional_classify(p: BlowupPoint) -> str:
    """Locus tag of ``p``, read off its line data (line, x).

    Standard models: "E" iff the fiber scale x vanishes, else "off".
    Augmented models: first-family charts only meet the lower stratum
    ("E-" iff x = 0); a second-family chart has "E0" iff the v-block x
    vanishes and "E-" iff the line coordinate r_0 vanishes (chart 0
    normalizes r_0 = 1 and misses E- entirely).
    """
    return _tag(p.model, p.chart, _read(p.model, p.chart, _keys(p)))


def _tag(m: Model, chart: ChartId, read: Reading) -> str:
    """The locus tag of the point with reading ``read`` in ``chart``."""
    line, x = read[:2]
    if chart[0] == 1:
        if x != _ZERO:
            return OFF
        return E_MINUS if m.kind == "augmented" else EXC
    e0 = all(v == _ZERO for v in x)
    em = line[0] == _ZERO
    return {(False, False): OFF, (True, False): E_ZERO,
            (False, True): E_MINUS, (True, True): E_BOTH}[e0, em]


# ---------------------------------------------------------------------------
# blowup-recognition relations
# ---------------------------------------------------------------------------


def lemma_hypothesis_check(
    p: BlowupPoint, image: Optional[Tuple[Scalar, ...]] = None
) -> Dict[str, object]:
    """Verify, exactly at ``p``, the relations that recognize a blowup.

    For a standard chart i the composite of the blowdown with the j-th
    model coordinate must equal u_j * u_i for j in [c]-{i} and u_j for
    j = i or j > c.  For a second-family augmented chart i the first
    block must carry the factor S = sum of squared v-block coordinates:

        slot j = S * u_j                 if i = 0, j <= c1
        slot j = S * u_1 * u_j           if 1 <= i < j <= c1
        slot j = S * u_1                 if i = j
        slot j = S * u_1 * u_{j+1}       if j < i
        slot j = u_j * (1 if i = 0 else u_1)   if c1 < j <= c

    ``image`` optionally supplies the claimed composite values (defaults
    to the honest blowdown of ``p``); passing the blowdown of a different
    chart presentation exposes a corrupted chart.  Returns a report dict
    with one boolean per relation and ``all_ok``.
    """
    m, chart, u = p.model, p.chart, _keys(p)
    img = _blowdown(chart, _read(m, chart, u)) if image is None else tuple(map(_key, image))
    report: Dict[str, object] = dict(_relations(m, chart, u, img))
    report["all_ok"] = all(report.values())
    return report


def _relations(m: Model, chart: ChartId, u: Keys, img: Keys) -> Iterator[Tuple[str, bool]]:
    """(name, holds) for each relation of lemma_hypothesis_check, in
    report order; each expected value is computed as it is reached, so a
    caller that stops at the first failure computes no more.  The sum of
    squares S is taken from ``u`` here, not from a reading, so that the
    relations check the blowdown's S independently."""
    k, i = chart
    names = m.relation_names
    if m.kind != "augmented" or k == 1:
        t = u[i - 1]
        for j in range(m.c):
            yield names[j], img[j] == (t if j == i - 1 else _mul(u[j], t))
    else:
        s2 = _sum_sq(u[m.c1: m.c])
        r0 = _ONE if i == 0 else u[0]
        for j in range(1, m.c1 + 1):
            if i == 0:
                expect = _mul(s2, u[j - 1])
            elif j == i:
                expect = _mul(s2, u[0])
            else:
                expect = _mul(_mul(s2, u[0]), u[j - 1] if j > i else u[j])
            yield names[j - 1], img[j - 1] == expect
        for j in range(m.c1, m.c):
            yield names[j], img[j] == _mul(r0, u[j])
    for j in range(m.c, m.c + m.m):
        yield names[j], img[j] == u[j]


def _control(m: Model, chart: ChartId, u: Keys, img: Keys) -> bool:
    """Negative control: a chart with two swapped coordinates must fail.

    Swaps the first two chart coordinates of ``u`` (perturbing one of them
    if they coincide) and checks that the corrupted chart no longer
    satisfies the blowup-recognition relations against the honest image
    ``img``.  Returns True iff the relations fail; the check stops at the
    first relation that does.
    """
    swapped = list(u)
    swapped[0], swapped[1] = u[1], u[0]
    if u[0] == u[1]:
        swapped[0] = _add(swapped[0], _ONE)
    return not all(ok for _name, ok in _relations(m, chart, tuple(swapped), img))


# ---------------------------------------------------------------------------
# exact sampling
# ---------------------------------------------------------------------------


def sample_point(
    model: Model, chart: ChartId, rng: random.Random, bound: int = 20,
    avoid_zero: bool = False,
) -> BlowupPoint:
    """A random exact point of ``chart``; ``avoid_zero`` makes every
    coordinate nonzero (convenient for overlap sampling).  Raises
    ValueError for ``bound`` < 1, where no coordinate can be drawn."""
    if bound < 1:
        raise ValueError("need bound >= 1, got %r" % (bound,))
    return BlowupPoint(model, chart, _scalars(_sample(model, rng, bound, avoid_zero)))


def _sample(model: Model, rng: random.Random, bound: int, avoid_zero: bool) -> Keys:
    # one fraction per real scalar and two (real and imaginary part) per
    # complex one: n in [-bound, bound] (a zero redrawn, under avoid_zero,
    # as a sign times [1, bound]) over a denominator in [1, bound].  Each
    # draw is exactfield.randbelow's, made inline as in curves._rand_point:
    # the same getrandbits calls in the same order, so the stream is the
    # same; the sign is randbelow(rng, 2), a getrandbits(2) below 2.
    # Callers keep bound >= 1: at bound 0 no draw is below the bound
    bits = rng.getrandbits
    width = 2 * bound + 1
    kw, kb = width.bit_length(), bound.bit_length()
    cplx = model.c if model.is_complex else 0
    fracs = []
    for _ in range(model.c + model.m + cplx):
        n = bits(kw)
        while n >= width:
            n = bits(kw)
        n -= bound
        if n == 0 and avoid_zero:
            sign = bits(2)
            while sign >= 2:
                sign = bits(2)
            n = bits(kb)
            while n >= bound:
                n = bits(kb)
            n = n + 1 if sign else -n - 1
        d = bits(kb)
        while d >= bound:
            d = bits(kb)
        fracs.append((n, d + 1))
    out = []
    for j in range(cplx):
        (p, d), (q, e) = fracs[2 * j], fracs[2 * j + 1]
        out.append(_reduced(p * e, q * d, d * e))
    for p, d in fracs[2 * cplx:]:
        out.append(_reduced(p, 0, d))
    return tuple(out)


def verify_model(
    preset: str, n_samples: int = 500, seed: int = 0, bound: int = 20
) -> Dict[str, object]:
    """Full exact verification run for one preset model.

    Checks, over ``n_samples`` random points: the blowup-recognition
    relations in every chart, blowdown invariance and the cocycle
    identity over all chart triples (on overlap points), and injectivity
    of the blowdown off the exceptional locus (by hashing images).
    The sampled point is moved into every chart by :func:`_moves`, which
    reads each presentation once (:func:`_read`).  That reading gives the
    presentation's image, and for a triple (a, a1) the route from the
    stored move into a1 on to a.  A triple with a1 the point's own chart,
    or with a = a1, has a stored move as its route and always passes:
    there are 2 * (P - 1) of them at a point with P presentations, counted
    without a loop; ``cocycle.routed`` counts the others, which are
    checked.  Each chart checks every relation, so a relation's total is
    the number of points sampled in its chart family, and only failures
    are counted.  Points and images are tuples of keys; a point becomes a
    :class:`BlowupPoint` only to be written into a failure.  Returns a
    JSON-ready report with per-relation pass counts.  Raises
    :class:`LocalModelError` for ``n_samples`` < 1, where no check would
    run, and for ``bound`` < 1, where no point can be drawn.
    """
    if n_samples < 1:
        raise LocalModelError("need n_samples >= 1, got %r" % (n_samples,))
    if bound < 1:
        raise LocalModelError("need bound >= 1, got %r" % (bound,))
    model = PRESETS[preset]
    rng = random.Random("%s:%r" % (preset, seed))
    charts = model.charts()
    # per sampled chart, the triples (a, a1) that need a route of their
    # own: a != a1 and a1 not the sampled chart, in product order
    routes = {chart: [(a, a1) for a, a1 in itertools.product(charts, repeat=2)
                      if a != a1 and a1 != chart]
              for chart in charts}
    # the points sampled per chart family; the n-th point is in chart
    # n mod len(charts)
    family_points = Counter(charts[n % len(charts)][0] for n in range(n_samples))
    relation_fail: Dict[Tuple[int, str], int] = {}
    cocycle_pass = cocycle_total = cocycle_routed = 0
    invariance_pass = invariance_total = 0
    control_pass = 0
    failures: List[str] = []
    image_index: Dict[Keys, Tuple[ChartId, Keys]] = {}
    injective = True

    def text(chart: ChartId, u: Keys) -> str:
        return BlowupPoint._of(model, chart, _scalars(u)).serialize()

    for n in range(n_samples):
        chart = charts[n % len(charts)]
        u = _sample(model, rng, bound, True)
        read = _read(model, chart, u)
        img = _blowdown(chart, read)
        for name, ok in _relations(model, chart, u, img):
            if not ok:
                key = chart[0], name
                relation_fail[key] = relation_fail.get(key, 0) + 1
                failures.append("relation %s at %s" % (name, text(chart, u)))
        if _control(model, chart, u, img):
            control_pass += 1
        else:
            failures.append("negative control passed at %s" % text(chart, u))
        moves, reads = _moves(model, chart, u, read)
        # reads holds the presentations that exist, the own chart first
        for target, r in reads.items():
            invariance_total += 1
            # the point in its own chart is u, whose image is img
            if target == chart or _blowdown(target, r) == img:
                invariance_pass += 1
            else:
                failures.append("blowdown not invariant %r -> %r" % (chart, target))
        # the triples whose route is a stored move: p -> a1 -> a with
        # a1 = chart (a another presentation) or a = a1 (a not chart)
        stored = 2 * (len(reads) - 1)
        cocycle_total += stored
        cocycle_pass += stored
        for a, a1 in routes[chart]:
            direct, r1 = moves[a], reads.get(a1)
            if direct is None or r1 is None:
                continue
            try:
                ok = _move(a1, r1, a) == direct
            except TransitionDomainError:
                continue
            cocycle_routed += 1
            cocycle_total += 1
            if ok:
                cocycle_pass += 1
            else:
                failures.append("cocycle %r,%r,%r at %s" % (a, a1, chart, text(chart, u)))
        if _tag(model, chart, read) == OFF:
            prev = image_index.get(img)
            if prev is None:
                image_index[img] = (chart, u)
            # distinct chart presentations of one point share the image;
            # that is not an injectivity failure, so compare as points
            elif not _same_point(model, *prev, chart, u):
                injective = False
                failures.append("blowdown collision %s vs %s"
                                % (text(*prev), text(chart, u)))

    relations = {"%s:k%d:%s" % (preset, k, name):
                 {"pass": points - relation_fail.get((k, name), 0), "total": points}
                 for k, points in family_points.items()
                 for name in model.relation_names}
    return {
        "v": 1,
        "preset": preset,
        "samples": n_samples,
        "seed": seed,
        "relations": dict(sorted(relations.items())),
        "cocycle": {"pass": cocycle_pass, "routed": cocycle_routed, "total": cocycle_total},
        "negative_control": {"pass": control_pass, "total": n_samples},
        "blowdown_invariance": {"pass": invariance_pass, "total": invariance_total},
        "injective_off_exceptional": injective,
        "failures": failures[:20],
        "ok": not failures,
    }


def _same_point(m: Model, c1: ChartId, u1: Keys, c2: ChartId, u2: Keys) -> bool:
    """Whether u1 in chart c1 and u2 in chart c2 are one blown-up point:
    False where u1 has no presentation in c2."""
    try:
        return _move(c1, _read(m, c1, u1), c2) == u2
    except TransitionDomainError:
        return False
