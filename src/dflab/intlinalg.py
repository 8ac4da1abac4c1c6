"""Small exact linear-algebra kit over integers and rationals.

Everything works on plain ints and fractions.Fraction; no floats enter or
leave.  Sizes are tiny (ambient dimension at most a handful), so clarity
wins over asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def primitive(v):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*map(int, v))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in v)


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


def rank(rows):
    rows = [row for row in rows if any(x != 0 for x in row)]
    if not rows:
        return 0
    return len(rref(rows)[1])


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


def nullspace_primitive(rows, dim):
    """Primitive integer generator of a one-dimensional rational nullspace.

    ``rows`` is a matrix with ``dim`` columns; returns None unless its rank
    is exactly dim - 1.
    """
    rows = [row for row in rows if any(x != 0 for x in row)]
    if not rows:
        if dim != 1:
            return None
        return (1,)
    red, pivots = rref(rows)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for r, c in enumerate(pivots):
        v[c] = -red[r][free]
    den = lcm(*(x.denominator for x in v))
    return primitive([int(x * den) for x in v])


def hyperplane_normal(points):
    """Primitive normal of the affine hyperplane through points, or None."""
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return nullspace_primitive(diffs, len(p0))


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
