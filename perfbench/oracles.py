"""Reference computations the benchmark checks the program against.

Nothing here calls into `artifact`: each function works on plain data
(mark labels, edge lists, `Fraction` pairs) read off the program's
outputs, so a check passes only when the program agrees with an
independent computation, not with itself.
"""

from fractions import Fraction
from math import factorial


# ---------------------------------------------------------------------------
# counts

def a000311(n):
    """Schroeder's fourth problem (OEIS A000311): total partitions of an
    n-set, from the exponential generating function A = x + e^A - 1 - A."""
    coeffs = [Fraction(0)] * (n + 1)
    if n >= 1:
        coeffs[1] = Fraction(1)
    for _ in range(n):
        # A_next = x + sum_{k >= 2} A^k / k!, truncated at degree n
        nxt = [Fraction(0)] * (n + 1)
        if n >= 1:
            nxt[1] = Fraction(1)
        power = coeffs[:]
        for k in range(2, n + 1):
            power = _series_mul(power, coeffs, n)
            for d in range(n + 1):
                nxt[d] += power[d] / factorial(k)
        coeffs = nxt
    return int(coeffs[n] * factorial(n))


def _series_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                out[i + j] += x * b[j]
    return out


def stable_tree_count(marks):
    """Stable trees with `marks` labelled leaves.  Rooted at one mark they
    are the total partitions of the other marks, so A000311(marks - 1)."""
    return a000311(marks - 1)


# ---------------------------------------------------------------------------
# trees as split systems

def edge_splits(vertex_count, edges, mu):
    """For each edge (u, v) in `edges`, the marks on u's side of it."""
    adj = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = {}
    for u, v in edges:
        side, stack = {u}, [u]
        while stack:
            w = stack.pop()
            for x in adj[w]:
                if x not in side and (w, x) != (u, v):
                    side.add(x)
                    stack.append(x)
        out[(u, v)] = frozenset(m for m, w in mu.items() if w in side)
    return out


def split_system(vertex_count, edges, mu, relabel=None):
    """The set of unordered splits {A, A^c}; it determines a stable tree up
    to label-preserving isomorphism."""
    relabel = relabel or (lambda m: m)
    marks = frozenset(relabel(m) for m in mu)
    out = set()
    for side in edge_splits(vertex_count, edges, mu).values():
        a = frozenset(relabel(m) for m in side)
        out.add(frozenset((a, marks - a)))
    return frozenset(out)


def conjugate(m):
    """i+ <-> i- on real mark labels."""
    return m[:-1] + ("-" if m[-1] == "+" else "+")


# ---------------------------------------------------------------------------
# cross ratios

def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _det(z, w):
    # [a : b], [c : d] -> a d - c b
    return _csub(_cmul(z[0], w[1]), _cmul(w[0], z[1]))


def cross_ratio_pair(z1, z2, z3, z4):
    """(z1 - z3)(z2 - z4) : (z1 - z4)(z2 - z3) for homogeneous points given
    as ((re_a, im_a), (re_b, im_b)) with Fraction parts."""
    return (_cmul(_det(z1, z3), _det(z2, z4)), _cmul(_det(z1, z4), _det(z2, z3)))


def same_point(num_den, a, b):
    """Whether [num : den] and [a : b] are the same projective point."""
    num, den = num_den
    return _cmul(num, b) == _cmul(den, a)


def degenerate_value(quad, side):
    """The 2|2 value of CR(q1, q2, q3, q4) when `side` holds exactly two of
    the marks: 1 if {q1, q2} collide, 0 if {q1, q3} do, infinity if {q1, q4}
    do, as homogeneous ((re, im), (re, im))."""
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    pair = {quad[0], next(m for m in quad[1:] if (m in side) == (quad[0] in side))}
    if pair == {quad[0], quad[1]}:
        return one, one
    if pair == {quad[0], quad[2]}:
        return zero, one
    return one, zero


# ---------------------------------------------------------------------------
# index sets and schedules

def is_linear_extension(sets, universe):
    """True iff no set in the sequence comes after a strict superset of it.

    f(S) is the latest position of a listed subset of S; a walk over all
    subsets of the universe in order of size computes it in
    O(2^n * n).
    """
    bit = {m: 1 << i for i, m in enumerate(universe)}
    pos = {}
    for i, s in enumerate(sets):
        pos[sum(bit[m] for m in s)] = i
    n = len(universe)
    latest = [-1] * (1 << n)
    for mask in sorted(range(1 << n), key=lambda x: bin(x).count("1")):
        below = -1
        m = mask
        while m:
            low = m & -m
            below = max(below, latest[mask ^ low])
            m ^= low
        here = pos.get(mask, -1)
        if here >= 0 and below > here:
            return False
        latest[mask] = max(below, here)
    return True


# ---------------------------------------------------------------------------
# blowdown in a standard chart

def standard_blowdown(coords, i, c):
    """Chart i of the blowup along the first c slots: slot j maps to
    u_j * u_i for j != i, slot i to u_i, the base slots stay."""
    ui = coords[i - 1]
    out = [_cmul(coords[j], ui) for j in range(c)]
    out[i - 1] = ui
    return out + list(coords[c:])
