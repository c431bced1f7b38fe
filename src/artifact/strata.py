"""Boundary stratum index sets, their real classification, and blowup
schedules.

Complex labels are subsets rho of [l] with |rho n [3]| >= 2 and at least
two marks outside rho.  Conjugate-pair labels live in [l^pm] with the
anchor set {1+, 1-, 2+}.  Real labels are classified as H, E, D1, D2, D3;
the blowup type of a schedule step is determined by the class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .trees import (MarkedTree, bar_mark, complex_marks, mark_key, real_marks,
                    sort_marks)


class StrataError(Exception):
    pass


def order_key(rho) -> Tuple:
    """(|rho|, lexicographic marks): the canonical strict order extending
    proper inclusion, with the zero label minimal."""
    ms = sort_marks(rho)
    return (len(ms), tuple(mark_key(m) for m in ms))


def bar_set(rho) -> FrozenSet:
    return frozenset(bar_mark(m) for m in rho)


@dataclass(frozen=True)
class StratumLabel:
    rho: Tuple
    kind: Optional[str]  # "Complex", "H", "E", "D1", "D2", "D3", or None

    @staticmethod
    def make(rho, kind=None) -> "StratumLabel":
        return StratumLabel(tuple(sort_marks(rho)), kind)

    @property
    def rho_set(self) -> FrozenSet:
        return frozenset(self.rho)

    @property
    def order_key(self) -> Tuple:
        return order_key(self.rho)


def is_admissible(rho, l: int, real: bool) -> bool:
    rho = frozenset(rho)
    if real:
        universe = frozenset(real_marks(l))
        anchor = frozenset(["1+", "1-", "2+"])
    else:
        universe = frozenset(complex_marks(l))
        anchor = frozenset([1, 2, 3])
    return (rho <= universe and len(rho & anchor) >= 2
            and len(universe - rho) >= 2)


def build_a_ell(l: int) -> List[StratumLabel]:
    """The ordered complex index set A_l."""
    if l < 3:
        raise StrataError("complex index set requires l >= 3")
    marks = complex_marks(l)
    out = []
    for r in range(2, l - 1):
        for combo in itertools.combinations(marks, r):
            if is_admissible(combo, l, real=False):
                out.append(StratumLabel.make(combo, "Complex"))
    out.sort(key=lambda s: s.order_key)
    return out


def classify_real(rho, l: int) -> Optional[str]:
    """Class of rho in A_l^pm: H/E/D1/D2/D3, or None when rho-bar and the
    complement of rho are incomparable (the label is skipped by the real
    quotient's blowup typing but still indexes an equivalence relation)."""
    rho = frozenset(rho)
    if not is_admissible(rho, l, real=True):
        raise StrataError("label not in the conjugate-pair index set")
    universe = frozenset(real_marks(l))
    rb = bar_set(rho)
    rc = universe - rho
    if rb == rho:
        return "H"
    if rb == rc:
        return "E"
    if rb < rc:
        return "D1"
    if rb > rc:
        # D2 = image of D1 under rho -> complement of rho-bar
        pre = universe - rb
        if is_admissible(pre, l, real=True):
            return "D2"
        return "D3"
    return None


def build_a_ell_real(l: int) -> Tuple[List[StratumLabel], List[StratumLabel]]:
    """(A_l^pm, A_l^R): all conjugate-pair labels, and the classified real
    sublist; both sorted by order key."""
    if l < 1:
        raise StrataError("real index set requires l >= 1")
    marks = real_marks(l)
    allpm, realpart = [], []
    n = len(marks)
    for r in range(2, n - 1):
        for combo in itertools.combinations(marks, r):
            if not is_admissible(combo, l, real=True):
                continue
            kind = classify_real(combo, l)
            allpm.append(StratumLabel.make(combo, kind))
            if kind is not None:
                realpart.append(StratumLabel.make(combo, kind))
    allpm.sort(key=lambda s: s.order_key)
    realpart.sort(key=lambda s: s.order_key)
    return allpm, realpart


def real_kind_counts(l: int) -> Dict[str, int]:
    _, rl = build_a_ell_real(l)
    out = {"H": 0, "E": 0, "D1": 0, "D2": 0, "D3": 0}
    for s in rl:
        out[s.kind] += 1
    return out


def distinct_real_divisors(l: int) -> int:
    """Codimension-two boundary divisors up to coincidence: D1 + D3/2.

    D_{l;rho} = D_{l;bar(rho)^c} identifies each D1 label with a D2 label,
    and D_{l;rho} = D_{l;bar(rho)} pairs up D3 labels.  H and E labels are
    the codimension-one hypersurfaces and are counted by kind instead.
    """
    c = real_kind_counts(l)
    return c["D1"] + c["D3"] // 2


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
    mask = sum(bits[m] for m in rho)
    marks = t.split_index()[0]
    for v, nbrs in enumerate(t.adjacency()):
        for w, side in zip(nbrs, marks[v]):
            if side == mask:
                return (w, v)
    return None
