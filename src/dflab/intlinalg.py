"""Small exact linear-algebra kit over integers and rationals.

Everything works on plain ints and fractions.Fraction; no floats enter or
leave.  One engine computes every minor: Laplace expansion along the last
row, one row at a time (extend_minors), so the minors of k rows come from
those of the first k - 1.  Determinants, ranks, pivot columns and linear
solves read the minors of the rows that are independent of the rows
before them, rows with Fraction entries being scaled to integer ones
first, so the expansion builds no Fraction; solve_unique builds them only
for its solution, by Cramer's rule.  A hyperplane normal is the cofactor
vector of its difference rows, expanded from the minors of all but the
last, so hyperplanes through one prefix of points share its expansion.
No matrix is inverted: the chart frame at a smooth vertex is read off the
polytope's edges.  The expansion costs one term per column of each
subset of the columns, exponential in the width; the library's widths
are at most n + 1, so at most 5, and the tests draw widths up to 6: at
these sizes clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from operator import mul


def dot(a, b):
    return sum(map(mul, a, b))


def _int_rows(rows):
    """(rows scaled by den, den) for den the lcm of their denominators:
    integer rows with the same span, so the same pivot columns, solutions
    and hyperplane normal."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


@cache
def _laplace(width, k):
    """Laplace expansion of the k x k minors of k rows of the given width
    along their last row: for each k-subset S of the columns, in the order
    of combinations, the (column, index, sign) of its terms, index being
    that of S without the column among the (k - 1)-subsets.  Built once
    per (width, k) and process."""
    index = {s: i for i, s in enumerate(combinations(range(width), k - 1))}
    return tuple(
        tuple((c, index[s[:t] + s[t + 1:]], (-1) ** (k - 1 + t))
              for t, c in enumerate(s))
        for s in combinations(range(width), k))


@cache
def _cofactors(width):
    """The table of _laplace(width, width - 1) reordered and signed so
    that its entry i gives (-1)^i times the minor without column i, the
    (width - 1 - i)-th one in combinations order: hyperplane_normal reads
    the cofactor vector from it without reversing the minors."""
    return tuple(tuple((c, j, s if i % 2 == 0 else -s) for c, j, s in terms)
                 for i, terms in enumerate(
                     reversed(_laplace(width, width - 1))))


def extend_minors(minors, row, k):
    """The k x k minors of k rows, one per k-subset of the columns in the
    order of combinations, from the (k - 1) x (k - 1) minors of the first
    k - 1 rows and the last row.  The minors of no rows are (1,)."""
    return tuple([sum([s * row[c] * minors[j] for c, j, s in terms])
                  for terms in _laplace(len(row), k)])


def _independent(rows):
    """(kept, minors): the rows that are independent of the rows kept
    before them, in order, and the minors of the kept rows, one per subset
    of as many columns in the order of combinations.  A row is kept when
    some minor extended by it is not 0."""
    kept, minors = [], (1,)
    for row in rows:
        m = extend_minors(minors, row, len(kept) + 1)
        if any(m):
            kept.append(row)
            minors = m
    return kept, minors


def _pivots(kept, minors):
    """The first column subset, in the order of combinations, whose minor
    on the kept rows is not 0: the pivot columns of the rows they were
    kept from, since those are the greedy basis of the columns, which is
    the least basis in that order."""
    width = len(kept[0]) if kept else 0
    return next(s for s, m in zip(combinations(range(width), len(kept)),
                                  minors) if m)


def pivot_columns(rows):
    """Pivot columns of the row echelon form of rows."""
    return list(_pivots(*_independent(_int_rows(rows)[0])))


def rank(rows):
    return len(_independent(_int_rows(rows)[0])[0])


def det(rows):
    """Exact determinant: an int for integer rows, a Fraction otherwise."""
    m, den = _int_rows(rows)
    kept, minors = _independent(m)
    d = minors[0] if len(kept) == len(m) else 0
    return d if den == 1 else Fraction(d, den ** len(m))


def solve_unique(columns, b):
    """Solve A x = b where A is given by its columns.

    Returns a tuple of Fractions when the system is consistent, None when
    inconsistent.  Raises ValueError when the columns are linearly
    dependent (so a consistent system would not pin x down).  Otherwise
    the kept rows of [A | b] have the cofactor vector n as their null
    vector, and x = -n[:-1] / n[-1] by Cramer's rule.
    """
    ncols = len(columns)
    kept, minors = _independent(_int_rows(
        [[col[i] for col in columns] + [x] for i, x in enumerate(b)])[0])
    pivots = _pivots(kept, minors)
    if ncols in pivots:
        return None
    if len(pivots) != ncols:
        raise ValueError("columns are linearly dependent")
    n = [m if i % 2 == 0 else -m for i, m in enumerate(reversed(minors))]
    return tuple(Fraction(-y, n[-1]) for y in n[:-1])


def hyperplane_normal(points, minors):
    """Primitive normal of the affine hyperplane through d integer points
    of R^d, or None when they span no hyperplane.

    The normal is the cofactor vector of the d - 1 difference rows
    p - points[0] (entry i being (-1)^i times the minor without column i),
    divided by its gcd and signed so that its last nonzero entry is
    positive; the points span a hyperplane exactly when it is not zero.
    minors are the extend_minors of the first d - 2 rows, so only the last
    row is expanded.
    """
    p0 = points[0]
    d = len(p0)
    if d == 1:
        return (1,)
    last = [x - y for x, y in zip(points[-1], p0)]
    n = [sum([s * last[c] * minors[j] for c, j, s in terms])
         for terms in _cofactors(d)]
    g = gcd(*n)
    if not g:
        return None
    for x in reversed(n):
        if x:
            break
    if x < 0:
        g = -g
    return tuple([x // g for x in n])

