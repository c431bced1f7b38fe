"""Stable curves: coordinates, degeneration values, membership, sampling."""

import hashlib
import json
from fractions import Fraction

import pytest
import sympy

from artifact import curves, strata, trees
from artifact.curves import (
    StableCurve,
    conjugate_curve,
    cross_ratio_q,
    curve_from_json,
    curve_key,
    forget,
    in_D_tilde,
    in_divisor,
    moduli_key,
    sample_curve,
)
from artifact.exactfield import PP_INF, PP_ONE, PP_ZERO, cross_ratio, pp


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
        assert curve_key(a) == curve_key(b)

    def test_json_round_trip(self):
        for l, real in ((4, False), (2, True)):
            for i, t in enumerate(trees.enumerate_trees(l, real=real)):
                c = sample_curve(t, 30, ("json", i))
                c2 = curve_from_json(c.to_json())
                assert curve_key(c2) == curve_key(c)

    def test_real_curves_conjugation_symmetric(self):
        for i, t in enumerate(trees.enumerate_trees(3, real=True)):
            c = sample_curve(t, 30, ("conj", i))
            assert curve_key(conjugate_curve(c)) == curve_key(c)


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
