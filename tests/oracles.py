"""Hand-rolled reference computations used to pin expected values.

Everything here works from first principles: powers of a flag ideal are
expanded literally into generator lists (dropping dominated ones), lattice points come from
explicit inequality scans written per polytope, and polynomial fits go
through a dense Vandermonde solve.  Nothing is imported from the package
under test; agreement between these functions and the pipelines is the
point of the comparisons, so the two sides must not share code.

Chart-coordinate conventions: every stock polytope used here has its
chart at the origin with the standard basis as edge frame, so the chart
coordinates of a lattice point are the point itself.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


# ---------------------------------------------------------------------------
# exact dense linear algebra, just enough for a Vandermonde solve

def solve_linear(matrix, rhs):
    """Solve a square system over Fraction by Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][-1] for i in range(n)]


def fit_poly(ks, values, degree):
    """Coefficients (lowest first) of the polynomial through the trailing
    degree+1 samples; every other trailing sample must agree."""
    if len(ks) < degree + 3:
        raise ValueError("need a couple of verification samples beyond the fit")
    nodes = list(ks[-(degree + 1):])
    vand = [[Fraction(k) ** j for j in range(degree + 1)] for k in nodes]
    coeffs = solve_linear(vand, [values[ks.index(k)] for k in nodes])
    for k, v in zip(ks, values):
        if k >= ks[-(degree + 3)] and eval_poly(coeffs, k) != v:
            raise ValueError("samples are not polynomial near the tail")
    return coeffs


def eval_poly(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Fraction row reduction and the exhaustive facet search over it

def rref(rows):
    """Reduced row echelon form over Fraction: (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
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


def nullspace_primitive(rows, dim):
    """Primitive integer generator of a one-dimensional nullspace, read off
    the reduced rows with the free entry 1; None unless rank is dim - 1."""
    rows = [row for row in rows if any(x != 0 for x in row)]
    if not rows:
        return (1,) if dim == 1 else None
    red, pivots = rref(rows)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for r, c in enumerate(pivots):
        v[c] = -red[r][free]
    den = lcm(*(x.denominator for x in v))
    w = [int(x * den) for x in v]
    g = gcd(*w)
    return tuple(x // g for x in w)


def hyperplane_normal(points):
    p0 = points[0]
    diffs = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return nullspace_primitive(diffs, len(p0))


def facets_of_points(points, strictly_positive=False):
    """(normal, offset, points on it) for each facet of conv(points): for
    d >= 2 every d-subset with a hyperplane is tried in both orientations,
    and a supporting one is kept if the points on it have affine rank
    d - 1."""
    points = sorted(set(tuple(p) for p in points))
    d = len(points[0])
    if d == 1:
        lo, hi = points[0][0], points[-1][0]
        out = [((1,), lo, ((lo,),))]
        return out if strictly_positive else out + [((-1,), -hi, ((hi,),))]
    seen = {}
    for sub in combinations(points, d):
        w0 = hyperplane_normal(sub)
        if w0 is None:
            continue
        c0 = sum(a * x for a, x in zip(w0, sub[0]))
        for w, c in ((w0, c0), (tuple(-x for x in w0), -c0)):
            vals = [sum(a * x for a, x in zip(w, p)) for p in points]
            if min(vals) < c or (strictly_positive and min(w) <= 0):
                continue
            on = tuple(p for p, v in zip(points, vals) if v == c)
            diffs = [[x - y for x, y in zip(p, on[0])] for p in on[1:]]
            if (w, c) not in seen and len(rref(diffs)[1]) == d - 1:
                seen[(w, c)] = (w, c, on)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# literal expansion of flag ideal powers

def power_gens(chain, big_n, k):
    """Generators of the k-th power of I_0 + I_1 t + ... + (t^big_n).

    chain lists the generator tuples of each I_j.  A generator of the
    power is a product of k block generators, multiplied in one factor at
    a time; the result is a set of (exponent, t-level) pairs.  After each
    factor a pair is dropped when another has no larger exponent and no
    higher level: it never sets a least level, and neither does any
    product it would go on to make.
    """
    blocks = [(tuple(g), j) for j, gens in enumerate(chain) for g in gens]
    nvars = len(blocks[0][0])
    blocks.append((tuple(0 for _ in range(nvars)), big_n))
    out = [(tuple(0 for _ in range(nvars)), 0)]
    for _ in range(k):
        prods = {(tuple(a + b for a, b in zip(e, g)), l + j)
                 for e, l in out for g, j in blocks}
        out = [p for p in prods
               if not any(q != p and q[1] <= p[1]
                          and all(x <= y for x, y in zip(q[0], p[0]))
                          for q in prods)]
    return sorted(out)


def level_chart(pgens, u):
    """Least t-level of a power generator dominating u, all variables live."""
    return min(l for e, l in pgens if all(a <= b for a, b in zip(e, u)))


def level_cox(pgens, exps, charts):
    """Cox-side level: on each chart only that chart's variables count;
    the section must land inside the power on every chart."""
    best = 0
    for chart in charts:
        lvl = min(l for e, l in pgens if all(e[i] <= exps[i] for i in chart))
        best = max(best, lvl)
    return best


# ---------------------------------------------------------------------------
# lattice point scans for the stock polytopes

def simplex_points(n, d, k):
    """Points of k * (d * standard simplex) in dimension n."""
    out = []

    def rec(prefix, left):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for x in range(left + 1):
            rec(prefix + [x], left - x)

    rec([], d * k)
    return out


def box_points(sides, k):
    out = [()]
    for s in sides:
        out = [p + (x,) for p in out for x in range(s * k + 1)]
    return out


def f1_points(k):
    """Dilates of the quadrilateral (0,0),(1,0),(3,2),(0,2)."""
    return [(x, y) for y in range(2 * k + 1) for x in range(y + k + 1)]


F1_FACETS = (((1, 0), 0), ((0, 1), 0), ((0, -1), -2), ((-1, 1), -1))

# facet indices through each vertex, same order as F1_FACETS
F1_CHARTS = ((0, 1), (1, 3), (2, 3), (0, 2))


def f1_cox_exponents(u, k):
    return tuple(a[0] * u[0] + a[1] * u[1] - k * c for a, c in F1_FACETS)


# ---------------------------------------------------------------------------
# weights and the invariant

def weight_chart(points_fn, chain, big_n, r, k):
    pgens = power_gens(chain, big_n, k)
    return -sum(level_chart(pgens, u) for u in points_fn(k * r))


def weight_f1_cox(chain, big_n, r, k):
    pgens = power_gens(chain, big_n, k)
    total = 0
    for u in f1_points(k * r):
        exps = f1_cox_exponents(u, k * r)
        total += level_cox(pgens, exps, F1_CHARTS)
    return -total


def df_value(n, ks, weights, counts):
    """A_{n+1} h_{n-1} - A_n h_n from raw sample lists."""
    a = fit_poly(ks, weights, n + 1)
    h = fit_poly(ks, counts, n)
    return a[n + 1] * h[n - 1] - a[n] * h[n]


def df_chart(points_fn, n, chain, big_n, r, kmax=None):
    ks = list(range(1, (kmax or n + 6) + 1))
    weights = [weight_chart(points_fn, chain, big_n, r, k) for k in ks]
    counts = [len(points_fn(k * r)) for k in ks]
    return df_value(n, ks, weights, counts)


def df_f1_cox(chain, big_n, r, kmax=8):
    ks = list(range(1, kmax + 1))
    weights = [weight_f1_cox(chain, big_n, r, k) for k in ks]
    counts = [len(f1_points(k * r)) for k in ks]
    return df_value(2, ks, weights, counts)
