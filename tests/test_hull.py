"""Tests for the exact convex-hull primitives."""

from math import factorial

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dflab.hull as hull
import dflab.intlinalg as intlinalg
import oracles
from dflab.errors import InvalidInput
from dflab.hull import (
    extreme_points,
    facets_of_points,
    lattice_volume,
    point_in_convex_hull,
    volume_of_points,
)
from dflab.intlinalg import dot

coord = st.integers(-3, 3)


@st.composite
def point_sets(draw):
    """(d, points): random integer points in R^d for d = 1..3, with
    repeats; in R^3 the set may lie on a plane or a line through p0,
    spanned by integer combinations of random directions."""
    d = draw(st.integers(1, 3))
    vec = st.tuples(*[coord] * d)
    span = draw(st.sampled_from([d, 2, 1])) if d == 3 else d
    if span == d:
        pts = draw(st.lists(vec, min_size=1, max_size=9))
    else:
        p0 = draw(vec)
        dirs = draw(st.lists(vec, min_size=span, max_size=span))
        steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * span),
                              min_size=1, max_size=9))
        pts = [tuple(x + sum(s * v[i] for s, v in zip(step, dirs))
                     for i, x in enumerate(p0))
               for step in steps]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return d, pts


@settings(max_examples=150, deadline=None)
@given(point_sets())
# a tilted plane holding an edge midpoint and an interior point
@example((3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 1, 0),
              (0, 1, 1), (1, 0, 1)]))
# a line with repeats
@example((3, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 1, 1), (3, 3, 3)]))
# simplices, full-dimensional and on a tilted plane: all points are vertices
@example((3, [(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3)]))
@example((3, [(1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 0, 0)]))
# in R^4 an edge can lie on four facets: the midpoint (1, 1, 1, 1) of the
# edge from the apex to the degree-4 vertex of a square-pyramid base
@example((4, [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (2, 2, 0, 0),
              (1, 1, 2, 0), (1, 1, 0, 2), (1, 1, 1, 1)]))
def test_extreme_points_match_caratheodory_reference(case):
    d, pts = case
    uniq = sorted(set(pts))
    expected = [p for i, p in enumerate(uniq)
                if not point_in_convex_hull(p, uniq[:i] + uniq[i + 1:])]
    verts = extreme_points(pts)
    assert verts == expected
    vol = volume_of_points(verts, d)
    assert type(vol) is Fraction
    assert volume_of_points(pts, d) == vol


@st.composite
def facet_inputs(draw):
    """(points, strictly_positive) in R^d, d = 1..5: random points; points
    of a small grid, many of them on one facet; points on an affine
    subspace of lower dimension; or any of these divided by 2, 3 or 6.
    With strictly_positive only the facets whose normals are strictly
    positive are compared, the ones newton_polyhedron keeps."""
    d = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["random", "grid", "flat"]))
    if shape == "random":
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=9))
    elif shape == "grid":
        pts = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d),
                            min_size=1, max_size=11))
    else:
        span = draw(st.integers(0, d - 1))
        p0 = draw(st.tuples(*[coord] * d))
        dirs = draw(st.lists(st.tuples(*[coord] * d),
                             min_size=span, max_size=span))
        steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * span),
                              min_size=1, max_size=9))
        pts = [tuple(x + sum(s * v[i] for s, v in zip(step, dirs))
                     for i, x in enumerate(p0))
               for step in steps]
    q = draw(st.sampled_from([1, 1, 2, 3, 6]))
    if q > 1:
        pts = [tuple(Fraction(x, q) for x in p) for p in pts]
    return pts, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(facet_inputs())
# the cube of side 2 with its face centres: six square facets of 5 points
@example(([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
          + [(1, 1, 0), (1, 1, 2), (1, 0, 1), (1, 2, 1), (0, 1, 1), (2, 1, 1)],
          False))
# a staircase plus orthant rays, as newton_polyhedron passes it
@example(([(0, 3), (1, 1), (3, 0), (0, 9), (9, 0), (9, 9), (1, 9), (9, 1)],
          True))
# a plane in R^3: both orientations support it
@example(([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)], False))
# a simplex in R^5 with an edge point and a 2-face point; the first three
# points are collinear
@example(([(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 2), (0, 0, 0, 2, 0),
           (0, 0, 2, 0, 0), (0, 2, 0, 0, 0), (2, 0, 0, 0, 0), (1, 1, 0, 0, 0)],
          False))
def test_facets_match_the_exhaustive_fraction_search(case):
    pts, strictly_positive = case
    got = [(f.normal, f.offset, f.points) for f in facets_of_points(pts)
           if not strictly_positive or min(f.normal) > 0]
    assert got == oracles.facets_of_points(pts, strictly_positive)


def test_subsets_on_a_dependent_prefix_get_no_normal(monkeypatch):
    # the first three points are collinear, so no 4-subset through them
    # spans a hyperplane, and the search drops the prefix before trying one
    tried = []
    normal = hull.hyperplane_normal

    def recorded(points, *args):
        tried.append(points)
        return normal(points, *args)

    monkeypatch.setattr(hull, "hyperplane_normal", recorded)
    pts = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 0),
           (0, 1, 0, 0), (1, 0, 0, 0)]
    got = [(f.normal, f.offset, f.points) for f in facets_of_points(pts)]
    assert got == oracles.facets_of_points(pts)
    assert tried
    for sub in tried:
        rows = [[x - y for x, y in zip(p, sub[0])] for p in sub[1:-1]]
        assert intlinalg.rank(rows) == 2


def test_facets_of_integer_points_build_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(intlinalg, "Fraction", no_fraction)
    monkeypatch.setattr(hull, "Fraction", no_fraction)
    octahedron = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                  (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
                  (0, 0, 0, 0)]
    assert len(facets_of_points(octahedron)) == 16
    assert lattice_volume([(0, 0, 2), (2, 0, 0), (0, 2, 0), (1, 1, 0)],
                          (1, 1, 1)) == 4
    assert extreme_points(octahedron) == sorted(octahedron[:-1])


# ---------------------------------------------------------------------------
# lattice-normalized volume on a hyperplane

def test_lattice_volume_divides_by_the_dropped_normal_entry():
    # x + 2y + 3z = 6: dropping z leaves a triangle of area 9, and the
    # plane's lattice maps onto a sublattice of index 3
    assert lattice_volume([(6, 0, 0), (0, 3, 0), (0, 0, 2)], (1, 2, 3)) == 6


def test_lattice_volume_recursion_stops_at_segments(monkeypatch):
    # a simplex's volume is read from its minors and a segment's from its
    # ends, so no hull is taken of d points in R^d or of points on a line,
    # and the facet sum recurses only until its facets are simplices
    seen = []
    facets = hull.facets_of_points

    def recorded(points, *args, **kwargs):
        seen.append(len(points[0]))
        return facets(points, *args, **kwargs)

    monkeypatch.setattr(hull, "facets_of_points", recorded)
    # the facet x_4 = 0 of the 4-simplex of side 2 is a tetrahedron of
    # normalized volume 2^3; the tilted segment has lattice length 2
    cube = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)]
    assert lattice_volume(cube, (0, 0, 0, 1)) == 8
    assert lattice_volume([(0, 0), (2, 4), (1, 2)], (2, -1)) == 2
    assert seen == []
    # the unit cube takes the hull of itself and of its 3 squares off the
    # origin, whose edges are segments
    cube = [(x, y, z, 0) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert lattice_volume(cube, (0, 0, 0, 1)) == 6
    assert seen == [3, 2, 2, 2]


def test_lattice_volume_skips_the_facets_through_its_apex(monkeypatch):
    # a facet through the apex has height 0 over it and adds nothing to
    # the facet sum, so its volume is not taken: the unit cube recurses
    # into its 3 squares off the origin, each into its 2 edges off its own
    # apex; the unit simplex is read from its minors, with no recursion
    calls = []
    volume = hull.lattice_volume

    def recorded(points, normal):
        calls.append(normal)
        return volume(points, normal)

    monkeypatch.setattr(hull, "lattice_volume", recorded)
    cube = [(x, y, z, 0) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert hull.lattice_volume(cube, (0, 0, 0, 1)) == 6
    assert len(calls) == 1 + 3 * (1 + 2)
    calls.clear()
    simplex = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    assert hull.lattice_volume(simplex, (0, 0, 0, 1)) == 1
    assert len(calls) == 1


def test_lattice_volume_rejects_points_off_the_hyperplane():
    with pytest.raises(InvalidInput):
        lattice_volume([(0, 0, 0), (1, 0, 0), (0, 1, 1)], (0, 0, 1))


@pytest.mark.parametrize("points, normal, volume", [
    # a segment of lattice length 2, which read as 1
    ([(0, 0), (2, 0)], (0, 2), 2),
    # a triangle of lattice volume 4, which read as 2 or failed an assert
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0)], (0, 0, 2), 4),
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0)], (0, 0, 3), 4),
])
def test_lattice_volume_rejects_a_normal_that_is_not_primitive(
        points, normal, volume):
    with pytest.raises(InvalidInput):
        lattice_volume(points, normal)
    primitive = tuple(x // max(normal) for x in normal)
    assert lattice_volume(points, primitive) == volume


@st.composite
def unimodular_moves(draw, d):
    """A random unimodular d x d integer matrix, as rows."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(2, 8))):
        i, j = draw(st.permutations(range(d)))[:2]
        k = draw(st.sampled_from([1, -1, 2, -2]))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        if draw(st.booleans()):
            rows[i], rows[j] = [-x for x in rows[j]], rows[i]
    return rows


@st.composite
def moved_hyperplanes(draw, simplex=False):
    """(points, normal, moved points, moved normal): lattice points on the
    hyperplane x_d = c of R^d, d = 2..4, and their image under a random
    unimodular map U, with normal e_d carried to e_d U^-1.  With simplex
    the points are exactly d distinct ones, and for d > 2 the last may be
    put on the line through the first two, so that they are affinely
    dependent."""
    d = draw(st.integers(2, 4))
    c = draw(st.integers(-2, 2))
    base = st.tuples(*[st.integers(-2, 2)] * (d - 1))
    if simplex:
        flat = draw(st.lists(base, min_size=d, max_size=d, unique=True))
        if d > 2 and draw(st.booleans()):
            k = draw(st.sampled_from([-1, 2]))
            flat[-1] = tuple(x + k * (y - x) for x, y in zip(*flat[:2]))
            assume(len(set(flat)) == d)
    else:
        flat = draw(st.lists(base, min_size=d, max_size=6))
    pts = [p + (c,) for p in flat]
    normal = tuple(int(i == d - 1) for i in range(d))
    u = draw(unimodular_moves(d))
    inv = oracles.inverse(u)
    moved = [tuple(dot(row, p) for row in u) for p in pts]
    moved_normal = tuple(int(dot(normal, col)) for col in zip(*inv))
    return pts, normal, moved, moved_normal


@settings(max_examples=100, deadline=None)
@given(moved_hyperplanes())
def test_lattice_volume_is_unimodular_invariant(case):
    pts, normal, moved, moved_normal = case
    assert lattice_volume(moved, moved_normal) == \
        lattice_volume(pts, normal) == \
        volume_of_points([p[:-1] for p in pts], len(normal) - 1) * \
        factorial(len(normal) - 1)


def _no_hull(*args):
    raise AssertionError("facets_of_points was called")


@settings(max_examples=100, deadline=None)
@given(moved_hyperplanes(simplex=True))
# three points on a line of the plane x_3 = 1, and a flat tetrahedron
@example(([(0, 0, 1), (1, 2, 1), (2, 4, 1)], (0, 0, 1),
          [(0, 0, 1), (1, 2, 1), (2, 4, 1)], (0, 0, 1)))
@example(([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],
          (0, 0, 0, 1),
          [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],
          (0, 0, 0, 1)))
def test_lattice_volume_reads_a_simplex_from_its_minors(case):
    pts, normal, moved, moved_normal = case
    d = len(normal)
    expected = volume_of_points([p[:-1] for p in pts], d - 1) * \
        factorial(d - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "facets_of_points", _no_hull)
        assert lattice_volume(moved, moved_normal) == \
            lattice_volume(pts, normal) == expected
