"""Boundary stratum index sets, real classification, blowup schedules."""

import hashlib
import itertools
import json

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
    StrataError,
    stratum_edge,
)
from artifact.trees import bar_mark, complex_marks, real_marks


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


class TestLabelOracle:
    """The label builders against every subset of the marks, filtered by
    the definition of an admissible label (two anchor marks in rho, two
    marks outside it) and sorted by order_key."""

    @staticmethod
    def _admissible(marks, anchor):
        labels = []
        for r in range(len(marks) + 1):
            for rho in itertools.combinations(marks, r):
                if len(anchor & set(rho)) >= 2 and len(marks) - len(rho) >= 2:
                    labels.append(rho)
        return sorted(labels, key=order_key)

    @pytest.mark.parametrize("l", range(3, 9))
    def test_complex(self, l):
        got = build_a_ell(l)
        assert [lab.rho for lab in got] == self._admissible(complex_marks(l), {1, 2, 3})
        assert all(lab.kind == "Complex" for lab in got)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_real(self, l):
        got = [lab.rho for lab in build_a_ell_real(l)[0]]
        assert got == self._admissible(real_marks(l), {"1+", "1-", "2+"})


def _split(side, univ):
    """The split of the marks univ into side and its complement."""
    return frozenset({frozenset(side), univ - frozenset(side)})


# per l: the labels of A_l^R of each kind, and the distinct divisors
KIND_TABLE = {
    2: ({"H": 1, "E": 2, "D1": 0, "D2": 0, "D3": 0}, 0),
    3: ({"H": 3, "E": 4, "D1": 2, "D2": 2, "D3": 8}, 6),
    4: ({"H": 7, "E": 8, "D1": 10, "D2": 10, "D3": 36}, 28),
    5: ({"H": 15, "E": 16, "D1": 38, "D2": 38, "D3": 124}, 100),
}


class TestKindsOnRealTrees:
    """Each real kind has its shape among the real trees of the same l:

    | kind   | one-edge tree, split rho | two-edge tree, splits rho, rho-bar | marks              |
    | H      | real, phi fixes both     | -                                  | rho-bar = rho      |
    | E      | real, phi swaps them     | -                                  | rho-bar = rho^c    |
    | D1     | not real                 | real                               | rho, rho-bar apart |
    | D2, D3 | not real                 | real                               | rho u rho-bar = all; D2 iff rho-bar^c is admissible |

    A label of no kind falls in no row.  The trees come from
    enumerate_trees and their phi, the kinds from strata, and the mark
    conditions are written on sets."""

    @pytest.mark.parametrize("l", sorted(KIND_TABLE))
    def test_each_label_in_exactly_its_row(self, l):
        univ = frozenset(real_marks(l))
        one_edge, two_edge = {}, set()  # split -> phi; pairs of splits
        for t in trees.enumerate_trees(l, real=True):
            if len(t.edges) == 1:
                one_edge[_split(trees.split_marks(t, t.edges[0]), univ)] = t.phi
            elif len(t.edges) == 2:
                two_edge.add(frozenset(_split(trees.split_marks(t, e), univ)
                                       for e in t.edges))

        def admissible(rho):
            return len(rho & {"1+", "1-", "2+"}) >= 2 and len(univ - rho) >= 2

        counts = dict.fromkeys(["H", "E", "D1", "D2", "D3"], 0)
        divisors = set()
        for lab in build_a_ell_real(l)[0]:
            rho = lab.rho_set
            bar = frozenset(map(bar_mark, rho))
            phi = one_edge.get(_split(rho, univ))
            pair = frozenset({_split(rho, univ), _split(bar, univ)})
            d = phi is None and pair in two_edge
            rows = {
                "H": phi == (0, 1) and bar == rho,
                "E": phi == (1, 0) and bar == univ - rho,
                "D1": d and not rho & bar,
                "D2": d and rho | bar == univ and admissible(univ - bar),
                "D3": d and rho | bar == univ and not admissible(univ - bar),
            }
            assert [k for k, hit in rows.items() if hit] == ([lab.kind] if lab.kind else [])
            if lab.kind:
                counts[lab.kind] += 1
            if d:
                divisors.add(pair)
        assert (counts, len(divisors)) == KIND_TABLE[l]
        assert len(divisors) == distinct_real_divisors(l)


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
            for a, b in t.edges:
                for e in ((a, b), (b, a)):
                    rho = trees.split_marks(t, e)
                    got = stratum_edge(t, rho)
                    assert got is not None
                    assert trees.split_marks(t, got) in (
                        rho, frozenset(t.marks()) - rho
                    )

    def test_absent_for_smooth(self):
        t = [x for x in trees.enumerate_trees(4) if not x.edges][0]
        assert stratum_edge(t, frozenset({1, 2})) is None


# sha256 of the outputs of the label builders, the schedules and
# classify_real, one JSON line per label (or per subset of marks); pinned
# before the builders moved onto mark bitmasks, so they pin the order of
# the labels as well as the labels and their kinds
def _label_lines(l, labels):
    return [json.dumps([l, list(s.rho), s.kind]) for s in labels]


def _strata_lines(name):
    if name == "build_a_ell":
        return [x for l in range(3, 9) for x in _label_lines(l, build_a_ell(l))]
    if name == "build_a_ell_real":
        return [x for l in range(1, 7) for part in build_a_ell_real(l)
                for x in _label_lines(l, part) + ["--"]]
    if name == "schedule":
        return [json.dumps(schedule(l, real=real).to_json(), sort_keys=True)
                for real, ls in ((False, range(3, 9)), (True, range(2, 7)))
                for l in ls]
    out = []  # classify_real on every subset of [l^pm], "-" if not a label
    for l in range(2, 6):
        marks = real_marks(l)
        for r in range(len(marks) + 1):
            for rho in itertools.combinations(marks, r):
                try:
                    kind = classify_real(rho, l)
                except StrataError:
                    kind = "-"
                out.append(json.dumps([l, list(rho), kind]))
    return out


STRATA_DIGESTS = {
    "build_a_ell":
        "ee4929bcdd91b462ac52874fbed14a6ce467f05fa71350046c4b5b2570f223da",
    "build_a_ell_real":
        "857579215ceca2653d8fcf2a2ddc8205bbbdf453d982a2152ade34abe56f0a4c",
    "schedule":
        "eeaef7321642a5b83a95c6e84ffd29a9e435843e940d4f70f64ffa3299e56f5b",
    "classify_real":
        "0f611e3b55b3c959ef2d0b30510b01596b4b1c4b9cdc110099a2fc4556aa64a5",
}


@pytest.mark.parametrize("name", sorted(STRATA_DIGESTS))
def test_strata_pinned(name):
    text = "\n".join(_strata_lines(name))
    assert hashlib.sha256(text.encode()).hexdigest() == STRATA_DIGESTS[name]
