"""Tests for the exact convex-hull primitives."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dflab.hull import extreme_points, point_in_convex_hull, volume_of_points

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
    assert volume_of_points(pts, d) == volume_of_points(verts, d)
