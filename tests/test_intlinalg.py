"""Tests for the cofactor minors behind every determinant, rank, pivot
set, solve and hyperplane normal, against the Fraction row reduction and
Gaussian determinant of tests/oracles.py."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dflab.intlinalg import (
    det, dot, extend_minors, hyperplane_normal, pivot_columns, rank,
    solve_unique)


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
    # scaled to integer points, whose first d - 2 difference rows are
    # expanded ahead, as the facet search passes them
    den = lcm(*(Fraction(x).denominator for p in pts for x in p))
    ints = [tuple(int(x * den) for x in p) for p in pts]
    minors = (1,)
    for k, p in enumerate(ints[1:-1], 1):
        minors = extend_minors(minors, [x - y for x, y in zip(p, ints[0])], k)
    normal = hyperplane_normal(ints, minors)
    assert normal == oracles.hyperplane_normal(pts)
    if dependent:
        assert normal is None
    if normal is not None:
        assert all(type(x) is int for x in normal)


@st.composite
def matrices(draw, square=False):
    """0-5 rows of width 1-6, some of them combinations of earlier rows;
    with square=True as many rows as the width."""
    width = draw(st.integers(1, 6))
    entry = entries(draw)
    rows = []
    for _ in range(width if square else draw(st.integers(0, 5))):
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
@example([[0, 0], [0, 0]])
def test_pivot_columns_match_fraction_rref(rows):
    pivots = oracles.rref(rows)[1]
    assert pivot_columns(rows) == pivots
    assert rank(rows) == len(pivots)


def _is_int_matrix(rows):
    return all(type(x) is int for row in rows for x in row)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
@example([])
@example([[0, 1], [1, 0]])
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 2]])
@example([[2, 4, 6], [1, 2, 3], [0, 0, 1]])
def test_det_matches_fraction_gaussian_elimination(rows):
    d = det(rows)
    assert d == oracles.det(rows)
    if _is_int_matrix(rows):
        assert type(d) is int


@st.composite
def systems(draw):
    """(columns, b) of A x = b, A having 1-5 rows and 1-4 columns: the
    last column is a combination of the others when dependent is drawn,
    and b is A x for a drawn x, plus an error vector when perturbed is
    drawn, so every kind of system turns up."""
    entry = entries(draw)
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows),
                         min_size=ncols, max_size=ncols))
    if ncols > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2),
                               min_size=ncols - 1, max_size=ncols - 1))
        cols[-1] = [dot(coeffs, row[:-1]) for row in zip(*cols)]
    x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    b = [dot(row, x) for row in zip(*cols)]
    if draw(st.booleans()):
        b = [y + draw(entry) for y in b]
    return cols, b


@settings(max_examples=200, deadline=None)
@given(systems())
# consistent, with one redundant equation
@example(([[1, 0, 1], [0, 2, 2]], [1, 4, 5]))
# inconsistent
@example(([[1, 0, 1], [0, 2, 2]], [1, 4, 6]))
# dependent columns
@example(([[1, 2], [2, 4]], [3, 6]))
# dependent columns, inconsistent: None comes before the ValueError
@example(([[1, 2], [2, 4]], [3, 7]))
# square, with Fraction entries
@example(([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(-3, 4)]],
          [Fraction(2, 3), 1]))
def test_solve_unique_matches_fraction_rref(system):
    cols, b = system
    ncols = len(cols)
    aug = [list(row) + [y] for row, y in zip(zip(*cols), b)]
    red, pivots = oracles.rref(aug)
    if ncols in pivots:
        assert solve_unique(cols, b) is None
    elif len(pivots) < ncols:
        with pytest.raises(ValueError):
            solve_unique(cols, b)
    else:
        x = solve_unique(cols, b)
        assert x == tuple(row[-1] for row in red[:ncols])
        assert all(type(y) is Fraction for y in x)
        if len(b) == ncols:
            assert list(x) == oracles.solve_linear(list(zip(*cols)), b)
