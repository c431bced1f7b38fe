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

All scalars are exact :class:`~artifact.exactfield.GaussRat`; real models
enforce a zero imaginary part.  Every operation is exact -- equality of
points and of blowdown images is literal equality of rationals.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .exactfield import GaussRat, ZERO, ONE, gauss_rat, randbelow

Scalar = GaussRat
_set = object.__setattr__
ChartId = Tuple[int, int]
#: the fiber part of line data: a scale, or a second-family direction
Fiber = Union[Scalar, List[Scalar]]


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
    ``chart_set`` holds the ids of :meth:`charts` for membership tests.
    """

    kind: str
    c: int
    m: int
    c1: Optional[int] = None
    chart_set: FrozenSet[ChartId] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "chart_set", frozenset(self.charts()))

    @property
    def c2(self) -> int:
        return self.c - self.c1 if self.c1 is not None else 0

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex"

    def charts(self) -> List[ChartId]:
        """All chart ids: (1, i) for first-family, (2, i) for second."""
        if self.kind == "augmented":
            first = [(1, i) for i in range(1, self.c1 + 1)]
            second = [(2, i) for i in range(0, self.c1 + 1)]
            return first + second
        return [(1, i) for i in range(1, self.c + 1)]


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
        if self.chart not in m.chart_set:
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

    def u(self, j: int) -> Scalar:
        """1-based access to the blown-up chart coordinates."""
        return self.coords[j - 1]

    @property
    def base(self) -> Tuple[Scalar, ...]:
        return self.coords[self.model.c:]

    def serialize(self) -> str:
        return "%s;k%d;i%d;%s" % (
            self.model.kind,
            self.chart[0],
            self.chart[1],
            ",".join(z.serialize() for z in self.coords),
        )


# ---------------------------------------------------------------------------
# blowdown maps
# ---------------------------------------------------------------------------


def blowdown(p: BlowupPoint) -> Tuple[Scalar, ...]:
    """Image of ``p`` in the model space R^c x R^m (or C^c x R^m).

    With the line data (line, x) of :func:`_line_data`, a standard or
    first-family chart maps slot j to x * rho_j.  A second-family chart
    maps the first block of slots to r_0 * r_j * |lam|^2 and the second
    block to r_0 * lam_{j-c1}, the first-family image of its glued line
    data, which this formula extends over the v-block zero locus.
    """
    line, x = _line_data(p)
    if p.chart[0] == 2:
        s2 = _sum_sq(x)
        line, x = [rj * s2 for rj in line[1:]] + x, line[0]
    return tuple(x * rj for rj in line) + p.base


def _sum_sq(vals: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for z in vals:
        acc = acc + z * z
    return acc


# ---------------------------------------------------------------------------
# chart transitions
# ---------------------------------------------------------------------------


def _line_data(p: BlowupPoint) -> Tuple[List[Scalar], Fiber]:
    """(line, x) of ``p``.

    Standard or first-family chart i: the line rho with rho_i = 1 and the
    fiber scale x = u_i, so model slot j carries x * rho_j.  Second-family
    chart i: the line r = (r_0, .., r_{c1}) with r_i = 1, whose other
    entries the chart lists in order, and x = lam, the v-row after them.
    """
    m = p.model
    k, i = p.chart
    if k == 1:
        line = list(p.coords[: m.c])
        line[i - 1] = ONE
        return line, p.u(i)
    return (list(p.coords[:i]) + [ONE] + list(p.coords[i: m.c1]),
            list(p.coords[m.c1: m.c]))


def _in_chart(model: Model, target: ChartId, line: List[Scalar], x: Fiber,
              base: Tuple[Scalar, ...]) -> BlowupPoint:
    """The point with line data (line, x) in chart ``target``, where the
    target's line coordinate must not vanish.  The line need not be
    normalized: rescaling it (and x inversely) is the same point."""
    k, it = target
    slot = it - 1 if k == 1 else it
    ri = line[slot]
    if ri.is_zero():
        raise TransitionDomainError(
            "line coordinate %d vanishes; chart %r unreachable" % (it, target)
        )
    out = [rj / ri for rj in line]
    if k == 1:
        out[slot] = x * ri
    else:
        del out[slot]
        out += [ri * lam for lam in x]
    # target is a chart of model, and the coordinates are GaussRats from
    # a valid point, real where it is
    return BlowupPoint._of(model, target, tuple(out) + base)


def _glued(model: Model, k: int, line: List[Scalar], x: Fiber
           ) -> Tuple[List[Scalar], Fiber]:
    """Line data of family ``k`` moved to the other augmented family.

    Second-family (r, lam) glues, where the v-block is nonzero, to the
    first-family direction (r_j * |lam|^2)_{j in [c1]} followed by lam,
    with fiber scale r_0.  The inverse needs a nonzero second-block
    direction lam = rho[c1:]; it gives r = (x, rho_j / |lam|^2)_{j in [c1]}.
    """
    if k == 2:
        s2 = _sum_sq(x)
        if s2.is_zero():
            raise TransitionDomainError("v-block vanishes; point not glued to first family")
        return [rj * s2 for rj in line[1:]] + x, line[0]
    lam = line[model.c1:]
    s2 = _sum_sq(lam)
    if s2.is_zero():
        raise TransitionDomainError(
            "second-block direction vanishes; point not glued to second family"
        )
    return [x] + [rj / s2 for rj in line[: model.c1]], lam


def transition(p: BlowupPoint, target: ChartId) -> BlowupPoint:
    """Express ``p`` in another chart of the same model: read its line
    data, glue it to the other augmented family when the two charts'
    families differ, and write it into the target chart.

    Raises :class:`TransitionDomainError` when the point lies outside the
    target chart's domain (the relevant line coordinate vanishes, or a
    cross-family move needs a nonzero v-block / second-block direction).
    """
    m = p.model
    if target not in m.chart_set:
        raise LocalModelError("chart %r not in model" % (target,))
    if target == p.chart:
        return p
    line, x = _line_data(p)
    if target[0] != p.chart[0]:
        line, x = _glued(m, p.chart[0], line, x)
    return _in_chart(m, target, line, x, p.base)


def chart_moves(p: BlowupPoint) -> Dict[ChartId, Optional[BlowupPoint]]:
    """``p`` moved into every chart of its model (``p`` itself in its own
    chart), or None where the point is outside that chart's domain."""
    moves: Dict[ChartId, Optional[BlowupPoint]] = {}
    for target in p.model.charts():
        try:
            moves[target] = transition(p, target)
        except TransitionDomainError:
            moves[target] = None
    return moves


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
        raise TransitionDomainError(
            "point outside the overlap of charts %r and %r" % (a, a1)
        )
    via = transition(q1, a)
    return direct.coords == via.coords and direct.chart == via.chart


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
    line, x = _line_data(p)
    if p.chart[0] == 1:
        if not x.is_zero():
            return OFF
        return E_MINUS if p.model.kind == "augmented" else EXC
    e0 = all(v.is_zero() for v in x)
    em = line[0].is_zero()
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
    m = p.model
    k, i = p.chart
    img = blowdown(p) if image is None else image
    checks: Dict[str, bool] = {}
    if m.kind != "augmented" or k == 1:
        t = p.u(i)
        for j in range(1, m.c + 1):
            expect = t if j == i else p.u(j) * t
            checks["slot%d" % j] = img[j - 1] == expect
    else:
        s2 = _sum_sq([p.u(m.c1 + jp) for jp in range(1, m.c2 + 1)])
        r0 = ONE if i == 0 else p.u(1)
        for j in range(1, m.c1 + 1):
            if i == 0:
                expect = s2 * p.u(j)
            elif j == i:
                expect = s2 * p.u(1)
            elif j > i:
                expect = s2 * p.u(1) * p.u(j)
            else:
                expect = s2 * p.u(1) * p.u(j + 1)
            checks["slot%d" % j] = img[j - 1] == expect
        for j in range(m.c1 + 1, m.c + 1):
            checks["slot%d" % j] = img[j - 1] == r0 * p.u(j)
    for j in range(m.c + 1, m.c + m.m + 1):
        checks["base%d" % (j - m.c)] = img[j - 1] == p.coords[j - 1]
    report = dict(checks)
    report["all_ok"] = all(checks.values())
    return report


def corrupted_chart_control(p: BlowupPoint,
                            image: Optional[Tuple[Scalar, ...]] = None) -> bool:
    """Negative control: a chart with two swapped coordinates must fail.

    Swaps the first two chart coordinates of ``p`` (perturbing one of
    them if they happen to coincide) and checks that the corrupted chart
    no longer satisfies the blowup-recognition relations against the
    honest blowdown image, ``image`` if given, else ``blowdown(p)``.
    Returns True iff the relations fail.
    """
    swapped = list(p.coords)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    if tuple(swapped) == p.coords:
        swapped[0] = swapped[0] + ONE
    q = BlowupPoint(p.model, p.chart, tuple(swapped))
    rep = lemma_hypothesis_check(q, image=blowdown(p) if image is None else image)
    return not rep["all_ok"]


# ---------------------------------------------------------------------------
# exact sampling
# ---------------------------------------------------------------------------


def sample_point(
    model: Model, chart: ChartId, rng: random.Random, bound: int = 20,
    avoid_zero: bool = False,
) -> BlowupPoint:
    """A random exact point of ``chart``; ``avoid_zero`` makes every
    coordinate nonzero (convenient for overlap sampling)."""

    def frac() -> Tuple[int, int]:
        # n in [-bound, bound] (a zero redrawn as a sign times [1, bound]),
        # the denominator in [1, bound]
        n = randbelow(rng, 2 * bound + 1) - bound
        if avoid_zero and n == 0:
            n = (-1, 1)[randbelow(rng, 2)] * (randbelow(rng, bound) + 1)
        return n, randbelow(rng, bound) + 1

    def scalar(cplx: bool) -> Scalar:
        p, d = frac()
        if not cplx:
            return gauss_rat(p, 0, d)
        q, e = frac()
        return gauss_rat(p * e, q * d, d * e)

    coords = tuple(
        scalar(model.is_complex and j < model.c)
        for j in range(model.c + model.m)
    )
    return BlowupPoint(model, chart, coords)


def verify_model(
    preset: str, n_samples: int = 500, seed: int = 0, bound: int = 20
) -> Dict[str, object]:
    """Full exact verification run for one preset model.

    Checks, over ``n_samples`` random points: the blowup-recognition
    relations in every chart, blowdown invariance and the cocycle
    identity over all chart triples (on overlap points), and injectivity
    of the blowdown off the exceptional locus (by hashing images).
    Each point is blown down once and moved into each chart once; the
    invariance and cocycle checks read those moves.  Returns a JSON-ready
    report with per-relation pass counts.
    """
    model = PRESETS[preset]
    rng = random.Random("%s:%r" % (preset, seed))
    charts = model.charts()
    relation_pass: Dict[str, int] = {}
    relation_total: Dict[str, int] = {}
    cocycle_pass = cocycle_total = 0
    invariance_pass = invariance_total = 0
    control_pass = control_total = 0
    failures: List[str] = []
    image_index: Dict[Tuple[Scalar, ...], BlowupPoint] = {}
    injective = True

    for n in range(n_samples):
        chart = charts[n % len(charts)]
        p = sample_point(model, chart, rng, bound=bound, avoid_zero=True)
        img = blowdown(p)
        rep = lemma_hypothesis_check(p, image=img)
        for name, ok in rep.items():
            if name == "all_ok":
                continue
            key = "%s:k%d:%s" % (preset, chart[0], name)
            relation_total[key] = relation_total.get(key, 0) + 1
            relation_pass[key] = relation_pass.get(key, 0) + bool(ok)
            if not ok:
                failures.append("relation %s at %s" % (name, p.serialize()))
        control_total += 1
        if corrupted_chart_control(p, img):
            control_pass += 1
        else:
            failures.append("negative control passed at %s" % p.serialize())
        moves = chart_moves(p)
        for target in charts:
            q = moves[target]
            if q is None:
                continue
            invariance_total += 1
            if blowdown(q) == img:
                invariance_pass += 1
            else:
                failures.append(
                    "blowdown not invariant %r -> %r" % (p.chart, target)
                )
        for a, a1 in itertools.product(charts, repeat=2):
            if a == a1 == p.chart:
                continue
            try:
                ok = cocycle_check(moves, a, a1)
            except TransitionDomainError:
                continue
            cocycle_total += 1
            cocycle_pass += bool(ok)
            if not ok:
                failures.append(
                    "cocycle %r,%r,%r at %s" % (a, a1, p.chart, p.serialize())
                )
        if exceptional_classify(p) == OFF:
            prev = image_index.get(img)
            if prev is None:
                image_index[img] = p
            # distinct chart presentations of one point share the image;
            # that is not an injectivity failure, so compare as points
            elif not _same_point(prev, p):
                injective = False
                failures.append("blowdown collision %s vs %s"
                                % (prev.serialize(), p.serialize()))

    return {
        "v": 1,
        "preset": preset,
        "samples": n_samples,
        "seed": seed,
        "relations": {
            k: {"pass": relation_pass[k], "total": relation_total[k]}
            for k in sorted(relation_total)
        },
        "cocycle": {"pass": cocycle_pass, "total": cocycle_total},
        "negative_control": {"pass": control_pass, "total": control_total},
        "blowdown_invariance": {"pass": invariance_pass, "total": invariance_total},
        "injective_off_exceptional": injective,
        "failures": failures[:20],
        "ok": not failures,
    }


def _same_point(p1: BlowupPoint, p2: BlowupPoint) -> bool:
    """Whether two points coincide in the blown-up space."""
    if p1.chart == p2.chart:
        return p1.coords == p2.coords
    try:
        return transition(p1, p2.chart).coords == p2.coords
    except TransitionDomainError:
        return False
