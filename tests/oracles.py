"""Hand-rolled reference computations used to pin expected values.

Everything here works from first principles: powers of a flag ideal are
expanded literally into generator lists (dropping dominated ones), lattice points come from
explicit inequality scans written per polytope, and polynomial fits go
through a dense Vandermonde solve or Fraction Lagrange interpolation.
Nothing is imported from the package under test; agreement between these
functions and the pipelines is the point of the comparisons, so the two
sides must not share code.

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
# the eventual-polynomial fit by Fraction Lagrange interpolation

def _forward_diffs(values):
    return [b - a for a, b in zip(values, values[1:])]


def _poly_mul_linear(coeffs, c0):
    """Multiply the coefficient list by (x + c0)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, a in enumerate(coeffs):
        out[i] += a * c0
        out[i + 1] += a
    return out


def lagrange(nodes, values):
    """Coefficients (lowest first) of the Lagrange interpolant through
    (nodes[i], values[i]), over Fraction."""
    m = len(nodes)
    coeffs = [Fraction(0)] * m
    for i in range(m):
        # numerator polynomial prod_{j != i} (x - nodes[j])
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(m):
            if j == i:
                continue
            num = _poly_mul_linear(num, -Fraction(nodes[j]))
            den *= Fraction(nodes[i] - nodes[j])
        w = Fraction(values[i]) / den
        for p in range(len(num)):
            coeffs[p] += w * num[p]
    return coeffs


def quasi_period(samples, max_degree):
    """Least q in (2, 3, 4) such that each residue class of the sample
    index mod q follows its own polynomial of degree <= max_degree."""
    ks = sorted(samples)
    for q in (2, 3, 4):
        ok = True
        for r in range(q):
            sub = [samples[k] for k in ks if k % q == r]
            if len(sub) < max_degree + 3:
                ok = False
                break
            for _ in range(max_degree + 1):
                sub = _forward_diffs(sub)
            if any(d != 0 for d in sub):
                ok = False
                break
        if ok:
            return q
    return None


def fit_outcome(samples, max_degree, guard=2):
    """The eventual-polynomial fit over Fraction, as an outcome tuple:
    ("fit", coefficients lowest first without trailing zeros, k0) or
    ("not_stabilized", hint, quasi period).  Raises ValueError when the
    samples skip an integer.  The fit needs the (max_degree+1)-th forward
    differences to vanish on ``guard`` trailing windows, interpolates the
    last max_degree+1 samples and checks every sample from the first
    stabilized index; k0 then moves down while the samples still agree."""
    ks = sorted(samples)
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise ValueError("samples must cover consecutive integers")
    d = max_degree
    if len(ks) < d + 2 + guard:
        return ("not_stabilized", "extend_k_range", None)
    values = [Fraction(samples[k]) for k in ks]
    diffs = values
    for _ in range(d + 1):
        diffs = _forward_diffs(diffs)
    trailing = 0
    for x in reversed(diffs):
        if x != 0:
            break
        trailing += 1
    if trailing < guard:
        q = quasi_period(samples, d)
        if q is not None:
            return ("not_stabilized", "quasi_polynomial", q)
        return ("not_stabilized", "extend_k_range", None)
    k0 = ks[len(diffs) - trailing]
    coeffs = lagrange(ks[-(d + 1):], values[-(d + 1):])
    for k, v in zip(ks, values):
        if k >= k0 and eval_poly(coeffs, k) != v:
            return ("not_stabilized", "extend_k_range", None)
    while k0 > ks[0] and eval_poly(coeffs, k0 - 1) == samples[k0 - 1]:
        k0 -= 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ("fit", tuple(coeffs), k0)


# ---------------------------------------------------------------------------
# Fraction row reduction, determinant, and the exhaustive facet search

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


def det(rows):
    """Determinant of a square matrix by Fraction Gaussian elimination."""
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


def inverse(rows):
    """Inverse of a square matrix, as Fraction rows read off the reduced
    echelon form of [rows | I]; None when it is singular."""
    n = len(rows)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


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


def full_box_level_tables(charts, vertices, r, big_n, kmax):
    """Per-chart level tables of J^k for k = 0..kmax, each stepped from the
    one before on the full box of side k * e_i, e_i = max(r * w_i, D_i):
    w_i is the reach of the chart functional over the vertices, D_i the
    largest exponent on axis i of the chart's moves.  This is the level
    stepper as it was before it stepped on the box of side k * D_i alone.

    charts lists (funcs, offs, moves) per chart, moves the (g, j) pairs of
    projected generators and their levels.  Entry k of the result lists,
    per chart, (A, C, table): the row-major strides of the box folded into
    the functionals A and offsets C, and the row-major table of
    t_k(y) = min(t_(k-1)(y) + big_n, min over (g, j) of t_(k-1)(y - g) + j)
    with the old table padded by its last cell on each axis."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def strides(shape):
        out = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            out[i] = out[i + 1] * shape[i + 1]
        return out

    def pad(table, shape, new_shape):
        inner = 1
        for i in range(len(shape) - 1, -1, -1):
            chunk = shape[i] * inner
            extra = new_shape[i] - shape[i]
            out = []
            for start in range(0, len(table), chunk):
                out += table[start:start + chunk]
                out += table[start + chunk - inner:start + chunk] * extra
            table = out
            inner *= new_shape[i]
        return table

    result = [[] for _ in range(kmax + 1)]
    for funcs, offs, moves in charts:
        side = [max([r * max(dot(a, v) - c for v in vertices)]
                    + [g[i] for g, _ in moves])
                for i, (a, c) in enumerate(zip(funcs, offs))]
        shape, table = [1] * len(side), [0]
        for k in range(kmax + 1):
            if k:
                new_shape = [k * e + 1 for e in side]
                old = pad(table, shape, new_shape)
                shape, st = new_shape, strides(new_shape)
                table = [x + big_n for x in old]
                for g, j in moves:
                    off = dot(st, g)
                    rows = [0]
                    for x, m, stride in zip(g, shape[:-1], st):
                        rows = [row + stride * i for row in rows
                                for i in range(x, m)]
                    for row in rows:
                        for y in range(row + g[-1], row + shape[-1]):
                            table[y] = min(table[y], old[y - off] + j)
            st = strides(shape)
            result[k].append((tuple(dot(st, col) for col in zip(*funcs)),
                              dot(st, offs), table))
    return result


# ---------------------------------------------------------------------------
# lattice point scans for the stock polytopes

def prefix_walk_points(poly, k):
    """Lattice points of kP in lexicographic order, one prefix of the first
    n-1 coordinates at a time: each facet <a, u> >= k c bounds the last
    coordinate from below (a_n > 0) or above (a_n < 0), or keeps or drops
    the whole prefix (a_n = 0).  poly needs .dim, .vertices and .facets."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    lows = [min(v[i] for v in poly.vertices) * k for i in range(poly.dim)]
    highs = [max(v[i] for v in poly.vertices) * k for i in range(poly.dim)]
    prefixes = [()]
    for lo, hi in zip(lows[:-1], highs[:-1]):
        prefixes = [p + (x,) for p in prefixes for x in range(lo, hi + 1)]
    out = []
    for p in prefixes:
        lo, hi = lows[-1], highs[-1]
        for a, c in poly.facets:
            m = k * c - dot(a[:-1], p)
            if a[-1] > 0:
                lo = max(lo, -(-m // a[-1]))
            elif a[-1] < 0:
                hi = min(hi, m // a[-1])
            elif m > 0:
                hi = lo - 1
        out += [p + (x,) for x in range(lo, hi + 1)]
    return out


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
