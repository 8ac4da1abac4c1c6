"""Small exact linear-algebra kit over integers and rationals.

Everything works on plain ints and fractions.Fraction; no floats enter or
leave.  Hyperplane normals are integer cofactor vectors and pivot columns
come from integer elimination, rows with Fraction entries being scaled to
integer ones first, so the facet search builds no Fraction; Fraction row
reduction is left to solve_unique.  Sizes are tiny (ambient dimension at
most a handful), so clarity wins over asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def dot(a, b):
    return sum(map(mul, a, b))


def rref(rows, width=None):
    """Reduced row echelon form over Fraction: returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    cols = width if width is not None else (len(m[0]) if m else 0)
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _int_rows(rows):
    """rows scaled by the lcm of their denominators: integer rows with the
    same span, so the same pivot columns and hyperplane normal."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows]


def pivot_columns(rows):
    """Pivot columns of the row echelon form of rows, the same as rref's,
    by integer elimination: each row is cross-multiplied with the pivot
    row and divided by the gcd of its entries."""
    m = _int_rows(rows)
    pivots = []
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i, row in enumerate(m) if row[c]), None)
        if pr is None:
            continue
        piv = m.pop(pr)
        p = piv[c]
        for i, row in enumerate(m):
            f = row[c]
            if f:
                row = [p * a - f * b for a, b in zip(row, piv)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return pivots


def rank(rows):
    return len(pivot_columns(rows))


def det(rows):
    """Exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def solve_unique(columns, b):
    """Solve A x = b where A is given by its columns.

    Returns a tuple of Fractions when the system is consistent, None when
    inconsistent.  Raises ValueError when the columns are linearly
    dependent (so a consistent system would not pin x down).
    """
    ncols = len(columns)
    nrows = len(b)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(b[i])]
           for i in range(nrows)]
    red, pivots = rref(aug, width=ncols + 1)
    if ncols in pivots:
        return None
    if len(pivots) != ncols:
        raise ValueError("columns are linearly dependent")
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = red[r][-1]
    return tuple(sol)


def _det(rows):
    """Integer determinant by cofactor expansion along the first row; the
    matrices here are at most 4 x 4."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def hyperplane_normal(points):
    """Primitive normal of the affine hyperplane through d points of R^d,
    or None when they span no hyperplane.

    The normal is the cofactor vector of the d - 1 difference rows, the
    entry i being (-1)^i times the minor without column i, divided by its
    gcd and signed so that its last nonzero entry is positive.
    """
    p0 = points[0]
    rows = _int_rows([[x - y for x, y in zip(p, p0)] for p in points[1:]])
    n = [(-1) ** i * _det([r[:i] + r[i + 1:] for r in rows])
         for i in range(len(p0))]
    g = gcd(*n)
    if g == 0:
        return None
    if next(x for x in reversed(n) if x) < 0:
        g = -g
    return tuple(x // g for x in n)


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
