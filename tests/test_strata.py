"""Boundary stratum index sets, real classification, blowup schedules."""

import itertools

import pytest

from artifact import strata, trees
from artifact.strata import (
    BLOWUP_TYPE,
    build_a_ell,
    build_a_ell_real,
    classify_real,
    distinct_real_divisors,
    is_admissible,
    order_key,
    real_kind_counts,
    schedule,
    stratum_edge,
)
from artifact.trees import bar_mark, real_marks


class TestClosedForms:
    @pytest.mark.parametrize("l", range(3, 9))
    def test_complex_count(self, l):
        assert len(build_a_ell(l)) == 2 ** (l - 1) - l - 1

    @pytest.mark.parametrize("l", range(2, 9))
    def test_real_count(self, l):
        assert len(build_a_ell_real(l)[0]) == 2 ** (2 * l - 1) - 2 * l - 1

    def test_complex_brute_force_l5(self):
        # oracle: subsets of [5] meeting {1,2,3} in >= 2 marks, with
        # complement of size >= 2, one label per divisor
        marks = [1, 2, 3, 4, 5]
        labels = set()
        for r in range(2, 4):
            for rho in itertools.combinations(marks, r):
                if len(set(rho) & {1, 2, 3}) >= 2:
                    labels.add(frozenset(rho))
        got = {lab.rho_set for lab in build_a_ell(5)}
        assert got == labels


class TestRealClassification:
    def test_l2_kinds(self):
        counts = real_kind_counts(2)
        assert (counts["H"], counts["E"]) == (1, 2)
        assert counts["D1"] == counts["D2"] == counts["D3"] == 0

    def test_l3_kinds_and_divisors(self):
        counts = real_kind_counts(3)
        assert counts == {"H": 3, "E": 4, "D1": 2, "D2": 2, "D3": 8}
        assert distinct_real_divisors(3) == 6

    def test_every_label_classified(self):
        # labels with incomparable conjugate/complement get no type and
        # are skipped by the blowup schedule (None)
        for l, untyped in ((2, 0), (3, 6)):
            kinds = [classify_real(lab.rho_set, l) for lab in build_a_ell_real(l)[0]]
            assert all(k in ("H", "E", "D1", "D2", "D3", None) for k in kinds)
            assert kinds.count(None) == untyped

    @pytest.mark.parametrize("l", (2, 3))
    def test_pairing_identities(self, l):
        univ = frozenset(real_marks(l))

        def conj(rho):
            return frozenset(bar_mark(m) for m in rho)

        labels = {lab.rho_set for lab in build_a_ell_real(l)[0]}
        d = {k: [r for r in labels if classify_real(r, l) == k]
             for k in ("D1", "D2", "D3")}
        # D1 <-> D2: conjugate-complement is a bijection between the families
        assert sorted(map(order_key, d["D2"])) == sorted(
            order_key(conj(univ - rho)) for rho in d["D1"]
        )
        # D3: conjugation (composed with complement when needed to stay
        # admissible) is a fixed-point-free involution
        for rho in d["D3"]:
            p = conj(rho)
            if not is_admissible(p, l, real=True):
                p = univ - p
            assert p in d["D3"] and p != rho
            q = conj(p)
            if not is_admissible(q, l, real=True):
                q = univ - q
            assert q == rho


class TestSchedules:
    def test_l5_complex(self):
        sched = schedule(5)
        assert len(sched.steps) == 10
        assert all(s.blowup_type == "holomorphic" for s in sched.steps)

    def test_l2_real(self):
        counts = schedule(2, real=True).to_json()["counts"]
        assert counts == {"real": 1, "augmented(1)": 2}

    def test_l3_real(self):
        counts = schedule(3, real=True).to_json()["counts"]
        assert counts == {"real": 3, "augmented(1)": 4, "complex": 12}

    @pytest.mark.parametrize(
        "l,real", [(4, False), (5, False), (2, True), (3, True)]
    )
    def test_linear_extension(self, l, real):
        labels = [s.label.rho_set for s in schedule(l, real=real).steps]
        for i, j in itertools.combinations(range(len(labels)), 2):
            # a label strictly containing an earlier one may appear later,
            # but never the other way around
            assert not (labels[j] < labels[i])

    def test_types_follow_kind(self):
        for s in schedule(3, real=True).steps:
            assert s.blowup_type == BLOWUP_TYPE[s.label.kind]


class TestStratumEdge:
    def test_against_split_marks(self):
        for t in trees.enumerate_trees(5):
            for e in t.oriented_edges():
                rho = trees.split_marks(t, e)
                got = stratum_edge(t, rho)
                assert got is not None
                assert trees.split_marks(t, got) in (
                    rho, frozenset(t.marks()) - rho
                )

    def test_absent_for_smooth(self):
        t = [x for x in trees.enumerate_trees(4) if not x.edges][0]
        assert stratum_edge(t, frozenset({1, 2})) is None
