#!/usr/bin/env python3
"""Exact chart arithmetic in the blowup local models.

Walks a point of the augmented model (c, c1) = (3, 1) through both chart
families, checks blowdown invariance and the cocycle identity, and shows
the exceptional-locus tags.
"""

from artifact.exactfield import GaussRat as G
from artifact.localmodels import (
    PRESETS,
    BlowupPoint,
    blowdown,
    chart_moves,
    cocycle_check,
    exceptional_classify,
    transition,
)


def show(tag, p):
    print("%-14s chart %s coords (%s)  ->  image (%s)  [%s]" % (
        tag, p.chart,
        ", ".join(z.serialize() for z in p.coords),
        ", ".join(z.serialize() for z in blowdown(p)),
        exceptional_classify(p),
    ))


def main():
    m = PRESETS["aug31"]
    p = BlowupPoint(m, (2, 0), (G(2), G(3), G(5), G(7)))
    show("start", p)
    q = transition(p, (1, 1))
    show("glued", q)
    back = transition(q, (2, 0))
    show("round trip", back)
    print("round trip exact:", back.coords == p.coords)
    print("cocycle (1,1),(2,1),(2,0):",
          cocycle_check(chart_moves(p), (1, 1), (2, 1)))

    print("\nexceptional tags:")
    show("v-block zero", BlowupPoint(m, (2, 0), (G(2), G(0), G(0), G(7))))
    show("r0 zero", BlowupPoint(m, (2, 1), (G(0), G(3), G(5), G(7))))
    show("both zero", BlowupPoint(m, (2, 1), (G(0), G(0), G(0), G(7))))
    show("line point", BlowupPoint(m, (1, 1), (G(0), G(3), G(5), G(7))))


if __name__ == "__main__":
    main()
