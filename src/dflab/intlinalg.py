"""Small exact linear-algebra kit over integers and rationals.

Everything works on plain ints and fractions.Fraction; no floats enter or
leave.  Determinants, ranks, pivot columns and linear solves read one
fraction-free (Bareiss) row echelon form of integer rows, rows with
Fraction entries being scaled to integer ones first.  Every entry of that
form is a minor of the input, so the loop builds no Fraction; solve_unique
builds them only for its solution.  A hyperplane normal is the cofactor
vector of its difference rows, built by Laplace expansion one row at a
time, so a caller that walks subsets sharing a prefix expands each prefix
row once.  Sizes are tiny (ambient dimension at most a handful), so
clarity wins over asymptotics throughout.
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


def _echelon(m):
    """Bareiss row echelon form of m, a list of integer rows, reduced in
    place: (rows, pivot columns, D), D being the last pivot times the sign
    of the row swaps (1 when there is no pivot).

    After the pivot p on row r each row below is replaced by
    (p * row - f * pivot row) / prev, f being the row's entry in the pivot
    column and prev the previous pivot.  By Sylvester's identity the
    division is exact and every entry is a minor of the swapped input: on
    the pivot rows so far and its own row, and the pivot columns so far
    and its own column.  So D is, up to sign, the minor on the pivot rows
    and columns, and the determinant of a square matrix of full rank.
    """
    pivots = []
    sign = prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        for pr in range(r, len(m)):
            if m[pr][c]:
                break
        else:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        piv = m[r]
        p = piv[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], piv)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, sign * prev


def _null_vector(rows, pivots, width, free, value):
    """The vector n of length width with n[free] = value, 0 on the other
    columns that are no pivots, and rows . n = 0, for rows in echelon form
    with the given pivot columns, by back-substitution; solve_unique reads
    its solution from it.  With value the D of _echelon every entry is an
    integer minor of the rows (Cramer's rule), so each division is
    exact."""
    n = [0] * width
    n[free] = value
    for k in reversed(range(len(pivots))):
        row, c = rows[k], pivots[k]
        n[c] = -dot(row[c + 1:], n[c + 1:]) // row[c]
    return n


def pivot_columns(rows):
    """Pivot columns of the row echelon form of rows."""
    return _echelon(_int_rows(rows)[0])[1]


def rank(rows):
    return len(pivot_columns(rows))


def det(rows):
    """Exact determinant: an int for integer rows, a Fraction otherwise."""
    m, den = _int_rows(rows)
    _, pivots, d = _echelon(m)
    if len(pivots) < len(m):
        d = 0
    return d if den == 1 else Fraction(d, den ** len(m))


def solve_unique(columns, b):
    """Solve A x = b where A is given by its columns.

    Returns a tuple of Fractions when the system is consistent, None when
    inconsistent.  Raises ValueError when the columns are linearly
    dependent (so a consistent system would not pin x down).  D x is the
    null vector of [A | b] that is -D on its last column.
    """
    ncols = len(columns)
    aug, _ = _int_rows([[col[i] for col in columns] + [x]
                        for i, x in enumerate(b)])
    red, pivots, d = _echelon(aug)
    if ncols in pivots:
        return None
    if len(pivots) != ncols:
        raise ValueError("columns are linearly dependent")
    x = _null_vector(red, pivots, ncols + 1, ncols, -d)
    return tuple(Fraction(y, d) for y in x[:ncols])


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


def hyperplane_normal(points, minors=None):
    """Primitive normal of the affine hyperplane through d points of R^d,
    or None when they span no hyperplane.

    The normal is the cofactor vector of the d - 1 difference rows
    p - points[0] (entry i being (-1)^i times the minor without column i),
    divided by its gcd and signed so that its last nonzero entry is
    positive; the points span a hyperplane exactly when it is not zero.
    minors, when given, are the extend_minors of the first d - 2 rows of
    integer points, so only the last row is expanded; otherwise every row
    is, rows with Fraction entries being scaled to integer ones first.
    """
    p0 = points[0]
    d = len(p0)
    if d == 1:
        return (1,)
    if minors is None:
        rows, _ = _int_rows([[x - y for x, y in zip(p, p0)]
                             for p in points[1:]])
        minors = (1,)
        for k, row in enumerate(rows[:-1], 1):
            minors = extend_minors(minors, row, k)
        last = rows[-1]
    else:
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


def integer_inverse(rows):
    """Inverse of an integer matrix with determinant +-1, as integer rows."""
    n = len(rows)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    out = []
    for i in range(n):
        e = [1 if k == i else 0 for k in range(n)]
        sol = solve_unique(cols, e)
        if sol is None:
            raise ValueError("matrix is singular")
        if any(x.denominator != 1 for x in sol):
            raise ValueError("matrix is not unimodular")
        out.append([int(x) for x in sol])
    # solving A x = e_i yields column i of the inverse
    return tuple(tuple(out[j][i] for j in range(n)) for i in range(n))
