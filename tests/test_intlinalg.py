"""Tests for the integer linear algebra behind the facet search, against
the Fraction row reduction it replaced (kept in tests/oracles.py)."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dflab.intlinalg import hyperplane_normal, pivot_columns, rank


def entries(draw):
    """Integer entries, or rational ones with small denominators."""
    if draw(st.booleans()):
        return st.integers(-3, 3)
    return st.fractions(-3, 3, max_denominator=4)


@st.composite
def point_tuples(draw):
    """(d points of R^d, dependent): d = 1..5; when dependent, the last
    point lies in the affine span of the others, so no hyperplane passes
    through the d points."""
    d = draw(st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[entries(draw)] * d),
                        min_size=d, max_size=d))
    dependent = d > 1 and draw(st.booleans())
    if dependent:
        p0 = pts[0]
        coeffs = draw(st.lists(st.sampled_from([-2, -1, Fraction(1, 2), 1, 2]),
                               min_size=d - 2, max_size=d - 2))
        pts[-1] = tuple(
            x + sum(a * (p[i] - x) for a, p in zip(coeffs, pts[1:-1]))
            for i, x in enumerate(p0))
    return pts, dependent


@settings(max_examples=200, deadline=None)
@given(point_tuples())
@example(([(1, 0), (0, 1)], False))
@example(([(0, 0, 1), (1, 0, 1), (0, 1, 1)], False))
@example(([(Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0),
           (0, 0, Fraction(1, 6))], False))
@example(([(0, 0, 0), (1, 1, 1), (2, 2, 2)], True))
def test_hyperplane_normal_matches_fraction_nullspace(case):
    pts, dependent = case
    normal = hyperplane_normal(pts)
    assert normal == oracles.hyperplane_normal(pts)
    if dependent:
        assert normal is None
    if normal is not None:
        assert all(type(x) is int for x in normal)


@st.composite
def matrices(draw):
    """0-5 rows of width 1-6, some of them combinations of earlier rows."""
    width = draw(st.integers(1, 6))
    entry = entries(draw)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum(a * r[j] for a, r in zip(coeffs, rows))
                         for j in range(width)])
        else:
            rows.append(draw(st.lists(entry, min_size=width,
                                      max_size=width)))
    return rows


@settings(max_examples=200, deadline=None)
@given(matrices())
@example([[0, 2, 4], [0, 1, 2], [1, 0, 0]])
@example([[Fraction(1, 3), Fraction(2, 3)], [1, 2]])
def test_pivot_columns_match_fraction_rref(rows):
    pivots = oracles.rref(rows)[1]
    assert pivot_columns(rows) == pivots
    assert rank(rows) == len(pivots)
