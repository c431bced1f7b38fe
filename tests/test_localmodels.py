"""Blowup local models: blowdowns, transitions, cocycles, exceptional loci."""

import hashlib
import itertools
import json
import random

import pytest

from artifact import cli, localmodels
from artifact.exactfield import GaussRat
from artifact.localmodels import (
    PRESETS,
    BlowupPoint,
    LocalModelError,
    Model,
    TransitionDomainError,
    blowdown,
    chart_moves,
    cocycle_check,
    corrupted_chart_control,
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
            assert corrupted_chart_control(p)


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


class TestNonVacuity:
    # one chart move per preset; its base coordinate is made off by one
    ROUTES = {
        "real3": ((1, 2), (1, 1)),
        "complex2": ((1, 2), (1, 1)),
        "aug31": ((2, 0), (1, 1)),
    }

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_one_wrong_route_fails(self, preset, monkeypatch):
        honest_rep = verify_model(preset, n_samples=30)
        src, dst = self.ROUTES[preset]
        honest = localmodels.transition

        def perturbed(p, target):
            q = honest(p, target)
            if p.chart == src and target == dst:
                q = BlowupPoint(q.model, q.chart, q.coords[:-1] + (q.coords[-1] + 1,))
            return q

        monkeypatch.setattr(localmodels, "transition", perturbed)
        rep = verify_model(preset, n_samples=30)
        assert rep["ok"] is False
        for check in ("cocycle", "blowdown_invariance"):
            assert rep[check]["total"] == honest_rep[check]["total"]
            assert 0 < rep[check]["pass"] < rep[check]["total"]


# sha256 of the serialized sample_point output (50 points per preset, chart,
# bound and avoid_zero flag) and of the sorted-key JSON of
# verify_localmodels_suite(300, seed=5, bound=3), pinned when sampling drew
# its scalars through Fraction and the verifier moved each point per check
SAMPLE_POINTS_SHA256 = (
    "03e310a69b5a7e759e88c5af4ba638b4b127b901e11700f52bc147ff616100ba")
SUITE_SHA256 = (
    "e8e9d65a71dd774d852124bce5e6769b7e0794c162e401aa1db3d8dcc7bbdee4")


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
        assert corrupted_chart_control(p, blowdown(p))
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
