"""Every failure at an input boundary is one of the package's typed errors.

Small valid inputs (trees, their JSON and the JSON of curves on them) are
mutated by hypothesis, derandomized so that each run draws the same
cases: a value anywhere in the input is replaced by a small JSON-like
value, an integer moved by a little, a list entry or dict key dropped or
a dict key renamed.  The checked MarkedTree and RealMarkedTree
constructors, trees.tree_from_json and curves.curve_from_json either
accept the result or raise a TreeError, CurveError or ExactFieldError.

The placement builders quotient.add_mark, bubble_at_mark and
mark_at_node take a site of a sampled curve, valid or drawn from the same
values, and a position drawn from those values, Gaussian rationals and
projective points: they place it or raise a QuotientError, and a site
that is not one of the curve's vertices, marks or nodes (1.0 is not
vertex 1), or a position that is not a ProjPoint, always raises.

Two more boundaries take text: the serialize() literals of GaussRat and
ProjPoint, with characters inserted, dropped or replaced, parse or raise
an ExactFieldError; and the argv of cheap dm-lab commands, with a flag
value made a non-integer or empty, a value dropped or an unknown flag
added, makes cli.run return 0, 1 or 2 and raise nothing.  No mutation
makes a valid integer, so no large --l or --samples is drawn.

enumerate_trees, stable_tree_count and real_tree_count refuse a size that
is not an int, also right after a call with that int.
"""

import pytest
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from artifact import cli, curves, exactfield, quotient, trees

TYPED = (trees.TreeError, curves.CurveError, exactfield.ExactFieldError)

ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8),
    st.floats(-4, 4, allow_nan=False), st.text(max_size=3),
    st.sampled_from(["1+", "2-", "3+", "01+", "1", "0", "mark:1", "mark:1+", "edge:0-1",
                     "edge:1", "1/2", "[1:0]", "[0:0]", "inf", "2+3i"]))
VALUES = st.recursive(
    ATOMS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "2+", "0", "mark:1", "x"]), kids, max_size=2),
    max_leaves=4)

# fuzzing budget per test; all seven run in a few seconds
FUZZ = settings(max_examples=250, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _mutate(data, x, depth=0):
    """x with one value in it changed, drawn from data."""
    how = data.draw(st.integers(0, 3)) if depth < 4 else 0
    if isinstance(x, dict) and x and how:
        y = dict(x)
        k = data.draw(st.sampled_from(sorted(x, key=repr)))
        if how == 1:
            del y[k]
        elif how == 2:
            y[k] = _mutate(data, x[k], depth + 1)
        else:
            y[data.draw(ATOMS)] = y.pop(k)
        return y
    if isinstance(x, (list, tuple)) and x and how:
        y = list(x)
        i = data.draw(st.integers(0, len(x) - 1))
        if how == 1:
            del y[i]
        else:
            y[i] = _mutate(data, x[i], depth + 1)
        return type(x)(y)
    if type(x) is int and how:
        return x + data.draw(st.integers(-2, 2))
    return data.draw(VALUES)


def _small_trees():
    return ([t for l in (3, 4, 5) for t in trees.enumerate_trees(l)][::3]
            + [t for l in (2, 3) for t in trees.enumerate_trees(l, real=True)][::2])


TREES = _small_trees()
TREE_ARGS = [[t.vertex_count, [list(e) for e in t.edges], dict(t.mu), t.phi and list(t.phi)]
             for t in TREES]
TREE_JSON = [t.to_json() for t in TREES]
CURVE_JSON = [curves.sample_curve(t, 5, ("fuzz", i)).to_json() for i, t in enumerate(TREES)]


def _typed_or_nothing(fn, *args):
    try:
        fn(*args)
    except TYPED:
        pass


@FUZZ
@given(st.data())
def test_marked_tree_constructor(data):
    args = _mutate(data, data.draw(st.sampled_from(TREE_ARGS)))
    if isinstance(args, list) and len(args) >= 3:
        _typed_or_nothing(trees.MarkedTree, *args[:3])


@FUZZ
@given(st.data())
def test_real_marked_tree_constructor(data):
    args = _mutate(data, data.draw(st.sampled_from([a for a in TREE_ARGS if a[3]])))
    if isinstance(args, list) and len(args) >= 3:
        _typed_or_nothing(trees.RealMarkedTree, *args[:4])


@FUZZ
@given(st.data())
def test_tree_from_json(data):
    _typed_or_nothing(trees.tree_from_json, _mutate(data, data.draw(st.sampled_from(TREE_JSON))))


@FUZZ
@given(st.data())
def test_curve_from_json(data):
    _typed_or_nothing(curves.curve_from_json,
                      _mutate(data, data.draw(st.sampled_from(CURVE_JSON))))


GR = exactfield.GaussRat
PP = exactfield.ProjPoint
BASES = [curves.curve_from_json(d) for d in CURVE_JSON]
POSITIONS = st.one_of(
    VALUES, st.builds(GR, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(lambda a, b: PP(GR(a, b)), st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from([exactfield.PP_INF, exactfield.PP_ZERO]))


@FUZZ
@given(st.data())
def test_placement_builders(data):
    c = data.draw(st.sampled_from(BASES))
    t = c.tree
    builds = [(quotient.add_mark, list(range(t.vertex_count))),
              (quotient.bubble_at_mark, trees.sort_marks(t.mu))]
    if t.edges:
        builds.append((quotient.mark_at_node, list(t.edges)))
    build, sites = data.draw(st.sampled_from(builds))
    site = data.draw(st.one_of(st.sampled_from(sites), VALUES,
                               st.sampled_from(sites).map(_mistyped)))
    point = data.draw(POSITIONS)
    try:
        out = build(c, site, point)
    except quotient.QuotientError:
        return
    assert isinstance(point, PP)
    assert curves.curve_from_json(out.to_json()).points == out.points


def _mistyped(site):
    """site with each int in it made a bool if it is 0 or 1, else a float:
    equal to the site, but no vertex, mark or node."""
    if isinstance(site, tuple):
        return tuple(_mistyped(x) for x in site)
    if type(site) is int:
        return bool(site) if site in (0, 1) else float(site)
    return site


LITERALS = ([GR(0).serialize(), GR(Fraction(-3, 4), 2).serialize(),
             GR(5, Fraction(-1, 6)).serialize()],
            [exactfield.PP_INF.serialize(), exactfield.PP_ZERO.serialize(),
             exactfield.ProjPoint(GR(Fraction(1, 2), -3), GR(2, 1)).serialize()])
CHARS = st.one_of(st.sampled_from("0123456789/+-*i:[] "), st.characters())


def _edit(data, text):
    """text with one to three characters inserted, dropped or replaced."""
    chars = list(text)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(chars)))
        how = data.draw(st.integers(0, 2)) if i < len(chars) else 0
        if how == 0:
            chars.insert(i, data.draw(CHARS))
        elif how == 1:
            del chars[i]
        else:
            chars[i] = data.draw(CHARS)
    return "".join(chars)


@FUZZ
@given(st.data())
def test_mutated_literals_parse_or_raise_exact_field_errors(data):
    kind = data.draw(st.integers(0, 1))
    parse = (GR.parse, exactfield.ProjPoint.parse)[kind]
    text = _edit(data, data.draw(st.sampled_from(LITERALS[kind])))
    try:
        parse(text)
    except exactfield.ExactFieldError:
        pass


# cheap commands: each runs in well under a second as given
ARGV = [["trees", "--l", "4"], ["strata", "--l", "4", "--real"], ["schedule", "--l", "5"],
        ["verify-cr", "--samples", "5", "--seed", "2"],
        ["verify-basis", "--l", "4", "--samples", "1"],
        ["verify-quotient", "--l", "3", "--samples", "2", "--bound", "10"],
        ["verify-localmodels", "--samples", "5"], ["all", "--seed", "1"]]


def _is_int(s):
    try:
        int(s)
    except ValueError:
        return False
    return True


NON_INTS = st.one_of(st.sampled_from(["", " ", "x", "1.5", "4x", "-", "--", "1e3", "None"]),
                     st.text(max_size=4).filter(lambda s: not _is_int(s)))
UNKNOWN_FLAGS = st.sampled_from(["--foo", "--samplez", "--l2", "-q", "--real=1", "--seed-x"])


VALUED = {"--l", "--samples", "--seed", "--bound"}


@settings(FUZZ, max_examples=120)
@given(data=st.data())
def test_mutated_argv_gives_an_exit_code(tmp_path_factory, data):
    argv = list(data.draw(st.sampled_from(ARGV)))
    for _ in range(data.draw(st.integers(1, 2))):
        values = [i for i in range(1, len(argv)) if argv[i - 1] in VALUED]
        how = data.draw(st.integers(0, 2)) if values else 2
        if how == 0:
            argv[data.draw(st.sampled_from(values))] = data.draw(NON_INTS)
        elif how == 1:
            del argv[data.draw(st.sampled_from(values))]
        else:
            argv.insert(data.draw(st.integers(1, len(argv))), data.draw(UNKNOWN_FLAGS))
    out = str(tmp_path_factory.mktemp("argv") / "r.json")
    assert cli.run(argv + ["--out", out]) in (0, 1, 2)


@pytest.mark.parametrize("phi", [["a", 0], 5, (0.0, 1.0)], ids=["str_entry", "int", "floats"])
def test_bad_phi_of_the_checked_real_constructor(phi):
    # each raised TypeError before: from sorting mixed entries, filling
    # the tree with a phi that does not iterate, and indexing by a float
    t = [x for x in trees.enumerate_trees(3, real=True) if x.vertex_count == 2][0]
    with pytest.raises(trees.TreeError, match=r"^invalid tree: \[.+\]$"):
        trees.RealMarkedTree(t.vertex_count, t.edges, t.mu, phi)


@pytest.mark.parametrize("count", [2.9, "2", 2.0, True], ids=["float", "str", "whole_float",
                                                              "bool"])
def test_vertex_count_that_is_no_int(count):
    # int() took each of these before, and 2.9 and "2" built a 2-vertex tree
    mu = {1: 0, 2: 0, 3: 1, 4: 1}
    assert trees.MarkedTree(2, [(0, 1)], mu).vertex_count == 2
    with pytest.raises(trees.TreeError, match=r"^invalid tree: \[.+\]$"):
        trees.MarkedTree(count, [(0, 1)], mu)


# each size function with a size it takes, small enough to enumerate
SIZES = {"enumerate": (trees.enumerate_trees, 7),
         "stable_count": (trees.stable_tree_count, 7),
         "real_count": (trees.real_tree_count, 7),
         "enumerate_real": (lambda l: trees.enumerate_trees(l, real=True), 4)}


@pytest.mark.parametrize("name", sorted(SIZES))
@pytest.mark.parametrize("bad", [float, bool, str, lambda l: None],
                         ids=["float", "bool", "str", "none"])
def test_size_that_is_no_int(name, bad):
    # l = 7.0 raised a bare TypeError before; enumeration keeps its tables
    # by size, under which 7.0 hashes as 7 and True as 1, so a warm call
    # with the int must not let the other value through
    count, l = SIZES[name]
    count(l)
    with pytest.raises(trees.TreeError, match=r"^l must be an int, not "):
        count(bad(l))
