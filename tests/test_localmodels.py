"""Blowup local models: blowdowns, transitions, cocycles, exceptional loci."""

import hashlib
import itertools
import json
import random

import pytest

from artifact import cli, localmodels
from artifact.exactfield import ONE, GaussRat, _add, _reduced, randbelow
from artifact.localmodels import (
    PRESETS,
    BlowupPoint,
    LocalModelError,
    Model,
    TransitionDomainError,
    blowdown,
    chart_moves,
    cocycle_check,
    exceptional_classify,
    lemma_hypothesis_check,
    sample_point,
    transition,
    verify_model,
)

G = GaussRat


class TestModels:
    def test_presets(self):
        assert PRESETS["real3"].charts() == [(1, 1), (1, 2), (1, 3)]
        assert PRESETS["complex2"].charts() == [(1, 1), (1, 2)]
        assert PRESETS["aug31"].charts() == [(1, 1), (2, 0), (2, 1)]

    def test_validation(self):
        with pytest.raises(LocalModelError):
            Model("augmented", c=3, m=1)  # missing c1
        with pytest.raises(LocalModelError):
            Model("real", c=1, m=0)
        with pytest.raises(LocalModelError):
            # complex scalar in a real model
            BlowupPoint(PRESETS["real3"], (1, 1), (G(0, 1), G(1), G(1), G(1)))


class TestStandardBlowdown:
    def test_chart1_formula(self):
        t, a, b, s = G(2), G(3), G(5), G(7)
        p = BlowupPoint(PRESETS["real3"], (1, 1), (t, a, b, s))
        assert blowdown(p) == (t, a * t, b * t, s)

    def test_center_image(self):
        a, b, s = G(3), G(5), G(7)
        p = BlowupPoint(PRESETS["real3"], (1, 1), (G(0), a, b, s))
        assert blowdown(p) == (G(0), G(0), G(0), s)

    def test_transition_chart1_to_2(self):
        t, a, b, s = G(2), G(3), G(5), G(7)
        p = BlowupPoint(PRESETS["real3"], (1, 1), (t, a, b, s))
        q = transition(p, (1, 2))
        assert q.coords == (G(1) / a, a * t, b / a, s)

    def test_identity_transition(self):
        p = BlowupPoint(PRESETS["real3"], (1, 2), (G(1), G(2), G(3), G(4)))
        assert transition(p, (1, 2)) is p

    def test_out_of_domain(self):
        p = BlowupPoint(PRESETS["real3"], (1, 1), (G(2), G(0), G(5), G(7)))
        with pytest.raises(TransitionDomainError):
            transition(p, (1, 2))


class TestAugmentedBlowdown:
    def test_second_family_chart0_formula(self):
        r0, v1, v2, s = G(2), G(3), G(5), G(7)
        p = BlowupPoint(PRESETS["aug31"], (2, 0), (r0, v1, v2, s))
        assert blowdown(p) == ((v1 * v1 + v2 * v2) * r0, v1, v2, s)

    def test_gluing_preserves_blowdown(self):
        p = BlowupPoint(PRESETS["aug31"], (2, 0), (G(2), G(3), G(5), G(7)))
        q = transition(p, (1, 1))
        assert blowdown(q) == blowdown(p)
        assert transition(q, (2, 0)).coords == p.coords

    def test_gluing_needs_nonzero_v_block(self):
        p = BlowupPoint(PRESETS["aug31"], (2, 0), (G(2), G(0), G(0), G(7)))
        with pytest.raises(TransitionDomainError):
            transition(p, (1, 1))

    def test_all_chart_pairs_blowdown_invariant(self):
        rng = random.Random("aug-pairs")
        m = PRESETS["aug31"]
        for n in range(60):
            chart = m.charts()[n % 3]
            p = sample_point(m, chart, rng, avoid_zero=True)
            img = blowdown(p)
            for target in m.charts():
                try:
                    q = transition(p, target)
                except TransitionDomainError:
                    continue
                assert blowdown(q) == img


class TestCocycle:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_random_triples(self, preset):
        m = PRESETS[preset]
        rng = random.Random("cocycle:" + preset)
        checked = 0
        for n in range(40):
            p = sample_point(m, m.charts()[n % len(m.charts())], rng,
                             avoid_zero=True)
            moves = chart_moves(p)
            for a, a1 in itertools.product(m.charts(), repeat=2):
                try:
                    ok = cocycle_check(moves, a, a1)
                except TransitionDomainError:
                    continue
                checked += 1
                assert ok
        assert checked > 0


class TestTransitionOutput:
    """transition builds its output without __post_init__; every output
    must still pass the public constructor's checks, and that
    constructor must still reject bad input."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_outputs_pass_the_public_checks(self, preset):
        m = PRESETS[preset]
        rng = random.Random("transition-output:" + preset)
        moved = 0
        for n in range(60):
            p = sample_point(m, m.charts()[n % len(m.charts())], rng, bound=5)
            for q in chart_moves(p).values():
                if q is not None and q is not p:
                    moved += 1
                    assert type(q.coords) is tuple
                    assert BlowupPoint(q.model, q.chart, q.coords) == q
        assert moved > 0

    def test_public_constructor_still_checks(self):
        m = PRESETS["aug31"]
        with pytest.raises(LocalModelError, match="not in model"):
            BlowupPoint(m, (1, 2), (G(1),) * 4)
        with pytest.raises(LocalModelError, match="expected 4 coordinates"):
            BlowupPoint(m, (1, 1), (G(1),) * 3)
        with pytest.raises(LocalModelError, match="not exact"):
            BlowupPoint(m, (1, 1), (G(1), 1, G(1), G(1)))


class TestExceptional:
    def test_standard(self):
        m = PRESETS["real3"]
        assert exceptional_classify(
            BlowupPoint(m, (1, 2), (G(1), G(0), G(2), G(3)))) == "E"
        assert exceptional_classify(
            BlowupPoint(m, (1, 2), (G(1), G(5), G(2), G(3)))) == "off"

    def test_augmented(self):
        m = PRESETS["aug31"]
        mk = lambda ch, *cs: exceptional_classify(BlowupPoint(m, ch, tuple(cs)))
        assert mk((2, 0), G(2), G(0), G(0), G(1)) == "E0"
        assert mk((2, 1), G(0), G(0), G(0), G(1)) == "E0&E-"
        assert mk((2, 1), G(0), G(3), G(5), G(1)) == "E-"
        assert mk((1, 1), G(0), G(3), G(5), G(1)) == "E-"
        assert mk((2, 0), G(2), G(3), G(5), G(1)) == "off"

    def test_e_minus_off_e_zero_blows_down_into_center(self):
        # every E- point off E0 has blowdown image on the center 0 x R^m
        m = PRESETS["aug31"]
        rng = random.Random("eminus")
        for n in range(40):
            p0 = sample_point(m, (2, 1), rng, avoid_zero=True)
            coords = (GaussRat(0),) + p0.coords[1:]
            p = BlowupPoint(m, (2, 1), coords)
            assert exceptional_classify(p) == "E-"
            img = blowdown(p)
            assert all(z.is_zero() for z in img[: m.c])


class TestLemmaRelations:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_hold_on_samples(self, preset):
        m = PRESETS[preset]
        rng = random.Random("lemma:" + preset)
        for n in range(60):
            p = sample_point(m, m.charts()[n % len(m.charts())], rng)
            assert lemma_hypothesis_check(p)["all_ok"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_corrupted_chart_fails(self, preset):
        m = PRESETS[preset]
        rng = random.Random("corrupt:" + preset)
        for n in range(40):
            p = sample_point(m, m.charts()[n % len(m.charts())], rng,
                             avoid_zero=True)
            u = _keys(p)
            assert localmodels._control(m, p.chart, u, _image(m, p.chart, u))


class TestInjectivity:
    def test_distinct_off_exceptional_points_distinct_images(self):
        # within a single chart, the blowdown is injective off E
        m = PRESETS["real3"]
        rng = random.Random("inj")
        seen = {}
        for n in range(200):
            p = sample_point(m, (1, 1), rng, avoid_zero=True)
            img = tuple(z.serialize() for z in blowdown(p))
            key = tuple(z.serialize() for z in p.coords)
            if img in seen:
                assert seen[img] == key
            seen[img] = key


class TestVerifyModel:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_green(self, preset):
        rep = verify_model(preset, n_samples=60)
        assert rep["ok"]
        assert rep["injective_off_exceptional"]
        assert rep["negative_control"]["pass"] == rep["negative_control"]["total"]
        assert all(v["pass"] == v["total"] for v in rep["relations"].values())

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_raises(self, n_samples):
        # no check would run, so the report could not fail
        with pytest.raises(LocalModelError):
            verify_model("real3", n_samples=n_samples)
        with pytest.raises(LocalModelError):
            cli.verify_localmodels_suite(n_samples)

    @pytest.mark.parametrize("bound", [0, -3])
    def test_no_bound_below_1(self, bound):
        # no point can be drawn; the error comes before any draw
        text = r"^need bound >= 1, got %d$" % bound
        with pytest.raises(LocalModelError, match=text):
            verify_model("real3", 5, bound=bound)
        with pytest.raises(LocalModelError, match=text):
            cli.verify_localmodels_suite(5, bound=bound)


def _reference_sample(model, rng, bound, avoid_zero):
    """localmodels._sample as one randbelow call per draw."""
    def frac():
        n = randbelow(rng, 2 * bound + 1) - bound
        if avoid_zero and n == 0:
            n = (-1, 1)[randbelow(rng, 2)] * (randbelow(rng, bound) + 1)
        return n, randbelow(rng, bound) + 1

    keys = []
    for j in range(model.c + model.m):
        p, d = frac()
        if model.is_complex and j < model.c:
            q, e = frac()
            keys.append(_reduced(p * e, q * d, d * e))
        else:
            keys.append(_reduced(p, 0, d))
    return tuple(keys)


class TestInlineDraws:
    # bound 1, powers of two and bounds just past them, where getrandbits
    # draws past the range most often, and the verifier's default 20
    @pytest.mark.parametrize("avoid_zero", [False, True])
    @pytest.mark.parametrize("bound", [1, 2, 3, 7, 20, 40])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_sample_draws_as_randbelow(self, preset, bound, avoid_zero):
        # the same keys, and the generator left in the same state after
        # each point, so every later draw of a stream is the same too
        model = PRESETS[preset]
        for seed in range(20):
            a = random.Random("sample:%s:%d" % (preset, seed))
            b = random.Random("sample:%s:%d" % (preset, seed))
            for _ in range(20):
                assert localmodels._sample(model, a, bound, avoid_zero) == _reference_sample(
                    model, b, bound, avoid_zero)
                assert a.getstate() == b.getstate()


@pytest.mark.parametrize("avoid_zero", [False, True])
def test_sample_point_bound_0_raises(avoid_zero):
    # a denominator in [1, 0] is an empty draw
    m = PRESETS["real3"]
    with pytest.raises(ValueError):
        sample_point(m, (1, 1), random.Random(0), bound=0, avoid_zero=avoid_zero)


def _off_by_one(u):
    """Keys u with the last (base) coordinate plus one."""
    return u[:-1] + (_add(u[-1], ONE._k),)


class TestNonVacuity:
    """Planted faults in the key functions that verify_model calls: every
    move of a point out of its chart, into the sampled point's charts and
    along each cocycle route, is a _move call."""

    # one chart move per preset; its base coordinate is made off by one
    ROUTES = {
        "real3": ((1, 2), (1, 1)),
        "complex2": ((1, 2), (1, 1)),
        "aug31": ((2, 0), (1, 1)),
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_one_wrong_route_fails(self, preset, monkeypatch):
        honest_rep = verify_model(preset, n_samples=30)
        assert honest_rep["ok"]
        src, dst = self.ROUTES[preset]
        honest = localmodels._move

        def perturbed(chart, read, target):
            q = honest(chart, read, target)
            if chart == src and target == dst:
                q = _off_by_one(q)
            return q

        monkeypatch.setattr(localmodels, "_move", perturbed)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        for check in ("cocycle", "blowdown_invariance"):
            assert rep[check]["total"] == honest_rep[check]["total"]
            assert 0 < rep[check]["pass"] < rep[check]["total"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_wrong_transition_into_one_family_fails(self, preset, monkeypatch):
        # every move into the last chart family (the second family of
        # aug31) gets its base coordinate off by one
        family = PRESETS[preset].charts()[-1][0]
        assert verify_model(preset, n_samples=30)["ok"]
        honest = localmodels._move

        def wrong(chart, read, target):
            q = honest(chart, read, target)
            if target[0] == family:
                q = _off_by_one(q)
            return q

        monkeypatch.setattr(localmodels, "_move", wrong)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        for check in ("cocycle", "blowdown_invariance"):
            assert 0 < rep[check]["pass"] < rep[check]["total"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_wrong_blowdown_of_moved_points_fails(self, preset, monkeypatch):
        # the points _move writes into another chart blow down with the
        # base coordinate off by one; sampled points blow down honestly
        moved, moved_reads = {}, {}
        honest_move, honest_read = localmodels._move, localmodels._read
        honest_blowdown = localmodels._blowdown

        def recording(chart, read, target):
            q = honest_move(chart, read, target)
            moved[id(q)] = q  # kept, so that no id is reused
            return q

        def reading(m, chart, u):
            read = honest_read(m, chart, u)
            if id(u) in moved:
                moved_reads[id(read)] = read
            return read

        def wrong(chart, read):
            img = honest_blowdown(chart, read)
            return _off_by_one(img) if id(read) in moved_reads else img

        monkeypatch.setattr(localmodels, "_move", recording)
        monkeypatch.setattr(localmodels, "_read", reading)
        monkeypatch.setattr(localmodels, "_blowdown", wrong)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        # only the own-chart entries, one per sample, stay invariant
        inv = rep["blowdown_invariance"]
        assert inv["pass"] == 30 < inv["total"]
        assert rep["cocycle"]["pass"] == rep["cocycle"]["total"]

    def test_wrong_glued_fiber_scale_fails(self, monkeypatch):
        # aug31: the fiber scale r_0 of every second-family presentation
        # glued to the first family is off by one; the blowdown of a
        # second-family chart and every move out of it read that scale
        assert verify_model("aug31", n_samples=30)["ok"]
        honest = localmodels._read

        def wrong(m, chart, u):
            line, x, s2, glued, base = honest(m, chart, u)
            if chart[0] == 2:
                glued = glued[0], _add(glued[1], ONE._k)
            return line, x, s2, glued, base

        monkeypatch.setattr(localmodels, "_read", wrong)
        rep = verify_model("aug31", n_samples=30)
        assert rep["ok"] is False
        for check in ("cocycle", "blowdown_invariance"):
            assert 0 < rep[check]["pass"] < rep[check]["total"]


def _verifier_points(preset, n_samples, seed=0, bound=20):
    """The points that verify_model(preset, n_samples, seed, bound)
    samples, drawn again with the public sample_point."""
    model = PRESETS[preset]
    charts = model.charts()
    rng = random.Random("%s:%r" % (preset, seed))
    return [sample_point(model, charts[n % len(charts)], rng, bound=bound, avoid_zero=True)
            for n in range(n_samples)]


def _routed(p):
    """The triples (a, a1) of p that have a route of their own, in
    product order: a != a1, a1 not p's chart, and p in the domain of
    cocycle_check."""
    moves = chart_moves(p)
    out = []
    for a, a1 in itertools.product(p.model.charts(), repeat=2):
        if a == a1 or a1 == p.chart:
            continue
        try:
            cocycle_check(moves, a, a1)
        except TransitionDomainError:
            continue
        out.append((a, a1))
    return out


class TestStoredRoutes:
    """verify_model counts the cocycle triples whose route is a stored move
    (a1 the point's own chart, or a = a1) as 2 * (P - 1) per point, P its
    presentations, and loops only over the others."""

    @pytest.mark.parametrize("bound", [2, 20])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_closed_form_count(self, preset, bound):
        rep = verify_model(preset, n_samples=100, bound=bound)
        assert rep["ok"]
        points = _verifier_points(preset, 100, bound=bound)
        presentations = [sum(q is not None for q in chart_moves(p).values()) for p in points]
        cocycle = rep["cocycle"]
        assert cocycle["total"] - cocycle["routed"] == 2 * sum(n - 1 for n in presentations)
        assert cocycle["routed"] == sum(len(_routed(p)) for p in points)
        assert cocycle["pass"] == cocycle["total"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_wrong_routes_into_one_chart_fail_in_product_order(self, preset, monkeypatch):
        # every route into the model's first chart gets its base
        # coordinate off by one; the moves of _moves stay honest
        target = PRESETS[preset].charts()[0]
        honest_move, honest_moves = localmodels._move, localmodels._moves
        inside = []

        def moves(*args):
            inside.append(True)
            try:
                return honest_moves(*args)
            finally:
                inside.pop()

        def move(chart, read, to):
            q = honest_move(chart, read, to)
            return _off_by_one(q) if to == target and not inside else q

        honest = verify_model(preset, n_samples=30)
        monkeypatch.setattr(localmodels, "_moves", moves)
        monkeypatch.setattr(localmodels, "_move", move)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        want = ["cocycle %r,%r,%r at %s" % (a, a1, p.chart, p.serialize())
                for p in _verifier_points(preset, 30)
                for a, a1 in _routed(p) if a == target]
        assert rep["failures"] == want[:20]
        assert want
        assert rep["cocycle"]["pass"] == honest["cocycle"]["pass"] - len(want)
        assert rep["cocycle"]["total"] == honest["cocycle"]["total"]
        for check in ("relations", "negative_control", "blowdown_invariance"):
            assert rep[check] == honest[check]


def _first_sample(preset, seed=0, bound=20):
    """(chart, keys, text) of the first point that verify_model(preset,
    seed=seed, bound=bound) samples: its generator's first draw, in the
    model's first chart."""
    model = PRESETS[preset]
    chart = model.charts()[0]
    u = localmodels._sample(model, random.Random("%s:%r" % (preset, seed)), bound, True)
    return chart, u, _text(model, chart, u)


def _text(model, chart, u):
    return BlowupPoint._of(model, chart, localmodels._scalars(u)).serialize()


class TestFailureEntries:
    """Each failure entry of verify_model, written for a planted fault in
    a key function that it calls."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_failed_relation(self, preset, monkeypatch):
        # the first relation of every point fails
        model = PRESETS[preset]
        honest = localmodels._relations

        def first_fails(m, chart, u, img):
            for k, (name, ok) in enumerate(honest(m, chart, u, img)):
                yield name, ok and k > 0

        chart, u, text = _first_sample(preset)
        name = next(honest(model, chart, u, _image(model, chart, u)))[0]
        monkeypatch.setattr(localmodels, "_relations", first_fails)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        assert rep["failures"][0] == "relation %s at %s" % (name, text)
        rel = rep["relations"]["%s:k%d:%s" % (preset, chart[0], name)]
        assert rel["pass"] == 0 < rel["total"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_negative_control_passed(self, preset, monkeypatch):
        # the swapped point satisfies every relation
        monkeypatch.setattr(localmodels, "_control", lambda m, chart, u, img: False)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        assert rep["negative_control"] == {"pass": 0, "total": 30}
        assert rep["failures"][0] == "negative control passed at %s" % (_first_sample(preset)[2],)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_blowdown_collision(self, preset, monkeypatch):
        # at bound 1 samples repeat, so images repeat; honestly each repeat
        # is the same point, and with the point comparison broken each is
        # a collision
        model = PRESETS[preset]
        honest = localmodels._same_point
        seen = []

        def recording(*args):
            seen.append(args[1:])
            return honest(*args)

        monkeypatch.setattr(localmodels, "_same_point", recording)
        rep = verify_model(preset, n_samples=60, bound=1)
        assert rep["ok"] and rep["injective_off_exceptional"]
        assert seen
        pairs, seen[:] = seen[:], []

        def broken(*args):
            seen.append(args[1:])
            return False

        monkeypatch.setattr(localmodels, "_same_point", broken)
        rep = verify_model(preset, n_samples=60, bound=1)
        assert seen == pairs
        assert rep["ok"] is False and rep["injective_off_exceptional"] is False
        assert rep["failures"] == [
            "blowdown collision %s vs %s" % (_text(model, c1, u1), _text(model, c2, u2))
            for c1, u1, c2, u2 in pairs][:20]


class TestVerifierWork:
    """Key-function calls per 500 samples.  Each sampled point is moved
    into the other charts by one _moves call.  Each chart presentation of
    a point, the sampled one and its move into each other chart, is read
    once (and, on aug31, its sum of squares taken once) and is blown down
    once.  A point is written into each other chart once,
    and once more per cocycle triple (a, a1) with a1 neither its own chart
    nor a, from the reading of the stored move into a1; the triples
    through its own chart read the stored moves.  On aug31 the relations
    and the negative control of a second-family point each take the sum
    of squares of its coordinates for themselves (333 + 333 of the 2,166),
    so that they check the blowdown independently of its reading."""

    CALLS_AT_500 = {
        "real3": {"_in_chart": 3000, "_blowdown": 1500, "_read": 1500, "_moves": 500,
                  "_sum_sq": 0},
        "complex2": {"_in_chart": 1000, "_blowdown": 1000, "_read": 1000, "_moves": 500,
                     "_sum_sq": 0},
        "aug31": {"_in_chart": 3000, "_blowdown": 1500, "_read": 1500, "_moves": 500,
                  "_sum_sq": 2166},
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_calls_at_500_samples(self, preset, monkeypatch):
        counts = dict.fromkeys(self.CALLS_AT_500[preset], 0)
        for name in counts:
            def counting(*args, _honest=getattr(localmodels, name), _name=name):
                counts[_name] += 1
                return _honest(*args)

            monkeypatch.setattr(localmodels, name, counting)
        rep = verify_model(preset, n_samples=500)
        assert rep["ok"]
        assert counts == self.CALLS_AT_500[preset]
        # each routed cocycle triple writes one point beyond the sampled
        # point's moves into the other charts
        moves = 500 * (len(PRESETS[preset].charts()) - 1)
        assert rep["cocycle"]["routed"] == counts["_in_chart"] - moves > 0


# sha256 of the serialized sample_point output (50 points per preset, chart,
# bound and avoid_zero flag), pinned when sampling drew its scalars through
# Fraction, and of the sorted-key JSON of verify_localmodels_suite(300,
# seed=5, bound=3), pinned when the report gained cocycle.routed
SAMPLE_POINTS_SHA256 = (
    "03e310a69b5a7e759e88c5af4ba638b4b127b901e11700f52bc147ff616100ba")
SUITE_SHA256 = (
    "2fe464eb4f046f5a002efc6536e9c225a0871aa7141250abfdce4d96f8ed9f05")


class TestPinnedOutputs:
    def test_sample_points(self):
        h = hashlib.sha256()
        for name in sorted(PRESETS):
            m = PRESETS[name]
            for chart in m.charts():
                for bound in (1, 2, 20):
                    for avoid_zero in (False, True):
                        rng = random.Random(
                            "%s:%r:%d:%d" % (name, chart, bound, avoid_zero))
                        for _ in range(50):
                            p = sample_point(m, chart, rng, bound=bound,
                                             avoid_zero=avoid_zero)
                            h.update((p.serialize() + "\n").encode())
        assert h.hexdigest() == SAMPLE_POINTS_SHA256

    def test_suite_report(self):
        rep = cli.verify_localmodels_suite(300, seed=5, bound=3)
        text = json.dumps(rep, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SUITE_SHA256


def test_control_reads_the_given_image():
    for preset in sorted(PRESETS):
        m = PRESETS[preset]
        rng = random.Random("control-image:" + preset)
        p = sample_point(m, m.charts()[0], rng, avoid_zero=True)
        u = _keys(p)
        assert localmodels._control(m, p.chart, u, _image(m, p.chart, u))
        # a wrong image fails the honest chart too, so the control reads it
        wrong = tuple(z + 1 for z in blowdown(p))
        assert not lemma_hypothesis_check(p, image=wrong)["all_ok"]


# the presets plus two augmented models with c1 >= 2, where the second-family
# chart coordinates shift by more than one slot
CHART_ALGEBRA_MODELS = [PRESETS[name] for name in sorted(PRESETS)] + [
    Model("augmented", c=4, m=1, c1=2),
    Model("augmented", c=5, m=0, c1=3),
]
# sha256 over the lines below for every model, chart pair and point, pinned
# when each family pair had its own transition helper
CHART_ALGEBRA_SHA256 = (
    "086351709bf276d69144d8123d39f2b4d3a5ebd7f8a9419ca7f684ae41c54b21")


class TestChartAlgebraPinned:
    @staticmethod
    def _points(m, chart, rng):
        # seeded samples with and without avoid_zero, each also with one
        # blown-up coordinate zeroed in turn
        for bound in (1, 3):
            for avoid_zero in (False, True):
                for _ in range(3):
                    p = sample_point(m, chart, rng, bound=bound,
                                     avoid_zero=avoid_zero)
                    yield p
                    for j in range(m.c):
                        coords = list(p.coords)
                        coords[j] = GaussRat(0)
                        yield BlowupPoint(m, chart, tuple(coords))

    def test_chart_algebra(self):
        h = hashlib.sha256()
        errors, tags = set(), set()
        for m in CHART_ALGEBRA_MODELS:
            rng = random.Random("chart-algebra:%r" % (m,))
            for chart in m.charts():
                for p in self._points(m, chart, rng):
                    img = ",".join(z.serialize() for z in blowdown(p))
                    tag = exceptional_classify(p)
                    tags.add(tag)
                    lines = ["%s -> %s %s" % (p.serialize(), img, tag)]
                    for target in m.charts():
                        try:
                            lines.append(transition(p, target).serialize())
                        except TransitionDomainError as e:
                            lines.append("ERR %s" % (e,))
                            errors.add(str(e).split(";")[0].split(" ")[0])
                    h.update(("\n".join(lines) + "\n").encode())
        # every domain error and every locus tag is reached
        assert errors == {"line", "v-block", "second-block"}
        assert tags == {"off", "E", "E0", "E-", "E0&E-"}
        assert h.hexdigest() == CHART_ALGEBRA_SHA256


def _keys(p):
    return tuple(z._k for z in p.coords)


def _image(m, chart, u):
    """The image keys of the keys u in chart."""
    return localmodels._blowdown(chart, localmodels._read(m, chart, u))


def _key_cocycle(moves, reads, a, a1):
    """The cocycle identity on the key moves and readings of one point:
    the move into a against the move into a1 moved on to a."""
    direct, q1 = moves[a], moves[a1]
    if direct is None or q1 is None:
        raise TransitionDomainError("point outside the overlap of charts %r and %r"
                                    % (a, a1))
    return direct == (q1 if a == a1 else localmodels._move(a1, reads[a1], a))


def _outcome(f, *args):
    """f(*args), or the TransitionDomainError it raises."""
    try:
        return f(*args)
    except TransitionDomainError as e:
        return e


def _same_outcome(got, want):
    if isinstance(want, TransitionDomainError):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and got == want


def _corrupted(p):
    """``p`` with its first two coordinates swapped, the first one plus one
    if they are equal: the chart that the negative control checks."""
    coords = list(p.coords)
    coords[0], coords[1] = p.coords[1], p.coords[0]
    if p.coords[0] == p.coords[1]:
        coords[0] = coords[0] + 1
    return BlowupPoint(p.model, p.chart, tuple(coords))


class TestWrappersMatchKeyFunctions:
    """Each public function is its key function behind a conversion: the
    same values, and the same TransitionDomainError types and texts."""

    @pytest.mark.parametrize("m", CHART_ALGEBRA_MODELS, ids=repr)
    def test_every_chart(self, m):
        rng = random.Random("wrappers:%r" % (m,))
        charts = m.charts()
        errors = set()
        for chart in charts:
            for bound in (1, 3):
                for avoid_zero in (False, True):
                    state = rng.getstate()
                    p = sample_point(m, chart, rng, bound=bound, avoid_zero=avoid_zero)
                    rng.setstate(state)
                    assert _keys(p) == localmodels._sample(m, rng, bound, avoid_zero)
            for p in TestChartAlgebraPinned._points(m, chart, rng):
                u = _keys(p)
                read = localmodels._read(m, chart, u)
                img = localmodels._blowdown(chart, read)
                assert tuple(z._k for z in blowdown(p)) == img
                assert exceptional_classify(p) == localmodels._tag(m, chart, read)
                wrong = tuple(z + 1 for z in blowdown(p))
                corrupted = _corrupted(p)
                for image, keys in ((None, img), (wrong, tuple(z._k for z in wrong))):
                    rels = dict(localmodels._relations(m, chart, u, keys))
                    assert lemma_hypothesis_check(p, image) == dict(
                        rels, all_ok=all(rels.values()))
                    # the negative control fails exactly when the public
                    # check passes the corrupted chart against the image
                    assert localmodels._control(m, chart, u, keys) == (
                        not lemma_hypothesis_check(corrupted, image or blowdown(p))["all_ok"])
                moves = chart_moves(p)
                key_moves, reads = localmodels._moves(m, chart, u, read)
                assert list(moves) == list(key_moves) == charts
                assert reads == {t: localmodels._read(m, t, q)
                                 for t, q in key_moves.items() if q is not None}
                for t in charts:
                    want = u if t == chart else _outcome(localmodels._move, chart, read, t)
                    got = _outcome(transition, p, t)
                    if isinstance(want, TransitionDomainError):
                        errors.add(str(want).split(" ")[0])
                        assert _same_outcome(got, want)
                        assert moves[t] is None and key_moves[t] is None
                    else:
                        assert got.chart == t and _keys(got) == want
                        assert moves[t] == got and key_moves[t] == want
                for a, a1 in itertools.product(charts, repeat=2):
                    assert _same_outcome(_outcome(cocycle_check, moves, a, a1),
                                         _outcome(_key_cocycle, key_moves, reads, a, a1))
        # each model reaches a domain error of the transitions
        assert errors


class TestSamePoint:
    """_same_point, which verify_model calls on each repeated image off the
    exceptional locus, compares two chart presentations as points."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_moves_and_changed_copies(self, preset):
        m = PRESETS[preset]
        rng = random.Random("same-point:" + preset)
        same, undefined = localmodels._same_point, 0
        for chart in m.charts():
            for p in TestChartAlgebraPinned._points(m, chart, rng):
                u = _keys(p)
                moves = localmodels._moves(m, chart, u, localmodels._read(m, chart, u))[0]
                for t, q in moves.items():
                    if q is None:
                        # the point has no presentation in t
                        undefined += 1
                        assert same(m, chart, u, t, u) is False
                        continue
                    assert same(m, chart, u, t, q) is True
                    assert same(m, t, q, chart, u) is True
                    # a chart is a coordinate system, so a copy with one
                    # coordinate changed is another point
                    for j in range(len(q)):
                        changed = q[:j] + (_add(q[j], ONE._k),) + q[j + 1:]
                        assert same(m, chart, u, t, changed) is False
        assert undefined


class TestChartAlgebraSymbolic:
    """The chart algebra proved at the generic point of every chart: the
    shipped key functions run on sympy rational functions of the chart's
    coordinate symbols, through the kernel seam (_add, _mul, _div, _ONE
    and _ZERO), with no transcription of their formulas.

    A generic point meets no domain guard, so every move exists.  Over
    CHART_ALGEBRA_MODELS: blowdown invariance for each (chart, target)
    pair, the cocycle for each (start, a, a1) triple, every _relations
    entry at each chart's generic point, and each chart's _control,
    which must fail the relations."""

    def test_generic_points(self, monkeypatch):
        import time

        from sympy import Integer, cancel, symbols

        start = time.perf_counter()
        monkeypatch.setattr(localmodels, "_add", lambda a, b: cancel(a + b))
        monkeypatch.setattr(localmodels, "_mul", lambda a, b: cancel(a * b))
        monkeypatch.setattr(localmodels, "_div", lambda a, b: cancel(a / b))
        monkeypatch.setattr(localmodels, "_ONE", Integer(1))
        monkeypatch.setattr(localmodels, "_ZERO", Integer(0))
        identities = relations = controls = 0
        failed = []
        for m in CHART_ALGEBRA_MODELS:
            u = tuple(symbols("u0:%d" % (m.c + m.m)))
            charts = m.charts()
            for start_chart in charts:
                read = localmodels._read(m, start_chart, u)
                img = localmodels._blowdown(start_chart, read)
                moves, reads = localmodels._moves(m, start_chart, u, read)
                assert None not in moves.values()
                for target in charts:
                    identities += 1
                    if localmodels._blowdown(target, reads[target]) != img:
                        failed.append(("invariance", m, start_chart, target))
                for a, a1 in itertools.product(charts, repeat=2):
                    identities += 1
                    if not _key_cocycle(moves, reads, a, a1):
                        failed.append(("cocycle", m, start_chart, a, a1))
                for name, ok in localmodels._relations(m, start_chart, u, img):
                    relations += 1
                    if not ok:
                        failed.append(("relation", m, start_chart, name))
                controls += 1
                if not localmodels._control(m, start_chart, u, img):
                    failed.append(("control", m, start_chart))
        assert failed == []
        assert (identities, relations, controls) == (626, 90, 20)
        assert time.perf_counter() - start < 30
