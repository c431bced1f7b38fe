"""Boundary stratum index sets, their real classification, and blowup
schedules.

Complex labels are subsets rho of [l] with |rho n [3]| >= 2 and at least
two marks outside rho.  Conjugate-pair labels live in [l^pm] with the
anchor set {1+, 1-, 2+}.  Real labels are classified as H, E, D1, D2, D3;
the blowup type of a schedule step is determined by the class.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .trees import (MarkedTree, _conj_mask, _mark_bits, complex_marks, mark_key,
                    real_marks, sort_marks)


class StrataError(Exception):
    pass


def order_key(rho) -> Tuple:
    """(|rho|, lexicographic marks): the canonical strict order extending
    proper inclusion, with the zero label minimal."""
    ms = sort_marks(rho)
    return (len(ms), tuple(mark_key(m) for m in ms))


@dataclass(frozen=True)
class StratumLabel:
    rho: Tuple  # marks in mark_key order
    kind: Optional[str]  # "Complex", "H", "E", "D1", "D2", "D3", or None

    @property
    def rho_set(self) -> FrozenSet:
        return frozenset(self.rho)


# Labels as mark masks: bit i is the i-th mark of the universe [l] or
# [l^pm] in mark_key order, so the anchor {1, 2, 3} or {1+, 1-, 2+} is
# bits 0, 1, 2, and conjugation swaps bits i and i^1.

@functools.lru_cache(maxsize=None)
def _universe(l: int, real: bool) -> Tuple[Tuple, Dict]:
    """(the marks in mark_key order, mark -> bit); callers must not modify
    the dict."""
    marks = tuple(real_marks(l) if real else complex_marks(l))
    return marks, _mark_bits(frozenset(marks))


def _admissible(mask: int, n: int) -> bool:
    """At least two anchor marks in rho and at least two marks outside."""
    return (mask & 7).bit_count() >= 2 and mask.bit_count() <= n - 2


def _real_kind(mask: int, n: int) -> Optional[str]:
    """The class of an admissible conjugate-pair label over n marks."""
    full = (1 << n) - 1
    rb = _conj_mask(mask, full // 3)
    rc = full ^ mask
    if rb == mask:
        return "H"
    if rb == rc:
        return "E"
    if rb & rc == rb:
        return "D1"
    if rb & rc == rc:
        # D2 = image of D1 under rho -> complement of rho-bar
        return "D2" if _admissible(full ^ rb, n) else "D3"
    return None


def _labels(l: int, real: bool) -> Iterator[Tuple[int, Tuple]]:
    """(mask, rho) for each admissible label, in order_key order.

    Combinations of the sorted marks come out lexicographically, size by
    size, and within a size the admissible ones (two of the anchor bits
    0, 1, 2) are three runs: those that start 0, 1, then those that start
    0, 2 and avoid bit 1, then those that start 1, 2 and avoid bit 0.  A
    label of size r <= n - 2 leaves two marks outside."""
    marks, _ = _universe(l, real)
    n = len(marks)
    # (the run's anchor bits, their marks, the least bit that may follow)
    runs = [(3, marks[:2], 2), (5, marks[:1] + marks[2:3], 3), (6, marks[1:3], 3)]
    for r in range(2, n - 1):
        for head, rho, low in runs:
            for combo in itertools.combinations(range(low, n), r - 2):
                mask = head
                for i in combo:
                    mask |= 1 << i
                yield mask, rho + tuple([marks[i] for i in combo])


def _mask_of(rho, l: int, real: bool) -> Optional[int]:
    """The mark mask of rho, or None if rho has a mark outside the universe."""
    bits = _universe(l, real)[1]
    mask = 0
    for m in rho:
        b = bits.get(m)
        if b is None:
            return None
        mask |= b
    return mask


def is_admissible(rho, l: int, real: bool) -> bool:
    mask = _mask_of(rho, l, real)
    return mask is not None and _admissible(mask, len(_universe(l, real)[0]))


def build_a_ell(l: int) -> List[StratumLabel]:
    """The ordered complex index set A_l."""
    if l < 3:
        raise StrataError("complex index set requires l >= 3")
    return [StratumLabel(rho, "Complex") for _, rho in _labels(l, False)]


def classify_real(rho, l: int) -> Optional[str]:
    """Class of rho in A_l^pm: H/E/D1/D2/D3, or None when rho-bar and the
    complement of rho are incomparable (the label is skipped by the real
    quotient's blowup typing but still indexes an equivalence relation)."""
    mask = _mask_of(rho, l, True)
    if mask is None or not _admissible(mask, 2 * l):
        raise StrataError("label not in the conjugate-pair index set")
    return _real_kind(mask, 2 * l)


def build_a_ell_real(l: int) -> Tuple[List[StratumLabel], List[StratumLabel]]:
    """(A_l^pm, A_l^R): all conjugate-pair labels, and the classified real
    sublist; both sorted by order key."""
    if l < 1:
        raise StrataError("real index set requires l >= 1")
    allpm = [StratumLabel(rho, _real_kind(mask, 2 * l))
             for mask, rho in _labels(l, True)]
    return allpm, [lab for lab in allpm if lab.kind is not None]


def real_kind_counts(l: int) -> Dict[str, int]:
    return kind_counts(build_a_ell_real(l)[1])


def kind_counts(classified: Sequence[StratumLabel]) -> Dict[str, int]:
    """Labels per kind in the classified real labels A_l^R."""
    out = {"H": 0, "E": 0, "D1": 0, "D2": 0, "D3": 0}
    for s in classified:
        out[s.kind] += 1
    return out


def distinct_real_divisors(l: int) -> int:
    """distinct_divisor_count of A_l^R."""
    return distinct_divisor_count(real_kind_counts(l))


def distinct_divisor_count(kinds: Dict[str, int]) -> int:
    """Codimension-two boundary divisors up to coincidence: D1 + D3/2,
    from the kind counts of A_l^R.

    D_{l;rho} = D_{l;bar(rho)^c} identifies each D1 label with a D2 label,
    and D_{l;rho} = D_{l;bar(rho)} pairs up D3 labels.  H and E labels are
    the codimension-one hypersurfaces and are counted by kind instead.
    """
    return kinds["D1"] + kinds["D3"] // 2


BLOWUP_TYPE = {
    "Complex": "holomorphic",
    "H": "real",
    "E": "augmented(1)",
    "D1": "complex",
    "D2": "complex",
    "D3": "complex",
}


@dataclass(frozen=True)
class ScheduleStep:
    label: StratumLabel
    blowup_type: str


@dataclass(frozen=True)
class BlowupSchedule:
    l: int
    real: bool
    steps: Tuple[ScheduleStep, ...]

    def to_json(self) -> dict:
        counts: Dict[str, int] = {}
        for s in self.steps:
            counts[s.blowup_type] = counts.get(s.blowup_type, 0) + 1
        return {
            "v": 1,
            "l": self.l,
            "real": self.real,
            "counts": counts,
            "schedule": [
                {"rho": list(s.label.rho), "kind": s.label.kind,
                 "type": s.blowup_type}
                for s in self.steps
            ],
        }


def schedule(l: int, real: bool = False) -> BlowupSchedule:
    if real:
        if l < 2:
            raise StrataError("real schedule requires l >= 2")
        _, labels = build_a_ell_real(l)
    else:
        labels = build_a_ell(l)
    steps = tuple(ScheduleStep(lab, BLOWUP_TYPE[lab.kind]) for lab in labels)
    return BlowupSchedule(l, real, steps)


def stratum_edge(t: MarkedTree, rho) -> Optional[Tuple[int, int]]:
    """The oriented edge whose tail-side marks are exactly rho, if any
    (unique on a stable tree)."""
    bits = t.mark_bits()
    rho = frozenset(rho)
    if not rho <= bits.keys():
        return None
    return t.edge_of_mask().get(sum(bits[m] for m in rho))
