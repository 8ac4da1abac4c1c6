"""Exact convex-hull primitives: planar rings and exhaustive subset search.

Point counts here are small (tens, not thousands).  In R^2 the facets are
the edges of the counterclockwise vertex ring, built by Andrew's monotone
chain with integer cross products.  In R^d for d >= 3 they are found by
trying every d-subset for a supporting hyperplane, depth-first in
lexicographic order: the subsets on one prefix share the minors of its
difference rows, each prefix row being expanded once (intlinalg's
extend_minors) and only when a subset through the prefix is tried, and a
prefix whose minors all vanish is dropped with every subset through it.
Normals are the integer cofactor vectors of intlinalg.hyperplane_normal,
so integer points build no Fraction; a subset inside a facet already found
is skipped, since it spans that facet's hyperplane or none, and the side
test of a normal stops at the first point found on each side.  Everything
else is read from those facets: a set of affine rank m is first projected
onto m coordinates on which that rank survives (an affine isomorphism on
its affine hull, integer points staying integer), its vertices are the
points whose facet normals have rank m.  The one volume the library
computes, the lattice volume of a set on a hyperplane, is the gcd of the
minors of the difference rows for a simplex, built by the same
extend_minors, the shoelace sum over the vertex ring for a polygon, and
otherwise a facet sum one dimension down that stops at simplices and
polygons; triangulations stay as the tests' reference.  All answers are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from operator import mul

from .errors import InvalidInput
from .intlinalg import (
    _int_rows, det, dot, extend_minors, hyperplane_normal, pivot_columns,
    rank, solve_unique)


@dataclass(frozen=True)
class Facet:
    normal: tuple        # primitive integer inner normal
    offset: int          # <normal, x> >= offset on the hull
    points: tuple        # input points lying on the facet, sorted


def _rank_coords(points):
    """Coordinates on which the affine rank of points survives; projecting
    onto them is an affine isomorphism on the affine hull of points."""
    p0 = points[0]
    return pivot_columns([[x - y for x, y in zip(p, p0)] for p in points[1:]])


def facets_of_points(points):
    """Facets of conv(points), sorted by (normal, offset).

    A set of affine rank d in R^d gets its facets.  A set of rank d - 1
    spans one hyperplane and gets it in both orientations, each holding
    every point; a set of lower rank spans no hyperplane and gets none.
    In R^1 the facets are the two ends, the lower one first.  In R^2 they
    are the edges of the counterclockwise vertex ring (_ring), each
    holding the points on its line.

    In R^d for d >= 3, the d-subsets are walked depth-first in
    lexicographic order.  The minors of a prefix's difference rows are
    extended from those of its own prefix by one row, once a subset
    through it is tried, so the subsets on one prefix share its
    expansion.  A prefix whose minors all vanish is dropped, since no
    subset through it spans a hyperplane.  A subset inside a facet found
    already spans its hyperplane or none and is skipped unexpanded; each
    other subset gets its normal from hyperplane_normal and is a facet
    when no point lies on one side.
    In any dimension, rational points are scaled once to integer ones
    with the same normals; offsets are read from the points as given.
    """
    points = sorted(set(tuple(p) for p in points))
    d = len(points[0])
    if d == 1:
        lo, hi = points[0][0], points[-1][0]
        return [Facet((1,), lo, ((lo,),)), Facet((-1,), -hi, ((hi,),))]
    ints = points if all(type(x) is int for p in points for x in p) \
        else _int_rows(points)[0]
    if d == 2:
        # the edge from u to v of the counterclockwise ring has inner
        # normal (u_y - v_y, v_x - u_x) over its content; a collinear
        # set's ring of two ends gives its line in both orientations
        ring = _ring(ints)
        out = []
        for u, v in zip(ring, ring[1:] + ring[:1]):
            a, b = u[1] - v[1], v[0] - u[0]
            g = gcd(a, b)
            a, b = a // g, b // g
            c = a * u[0] + b * u[1]
            held = tuple(p for p, q in zip(points, ints)
                         if a * q[0] + b * q[1] == c)
            out.append(Facet((a, b), dot((a, b), held[0]), held))
        return sorted(out, key=lambda f: f.normal)
    n = len(points)
    seen = {}
    done = set()

    def expand(pts, minors):
        """Minors of the difference rows of pts from those of all but the
        last row, or None when they all vanish."""
        if len(pts) == 1:
            return minors
        m = extend_minors(minors, [x - y for x, y in zip(pts[-1], pts[0])],
                          len(pts) - 1)
        return m if any(m) else None

    def walk(sub, pts, minors):
        """Try the d-subsets that extend sub, the indices of the integer
        points pts.  minors are those of the difference rows of pts but
        the last, which is expanded only once a subset through sub is
        tried: a prefix whose subsets all lie on facets found costs none."""
        k = len(sub)
        if k < d - 1:
            m = expand(pts, minors)
            if m is not None:
                for j in range(sub[-1] + 1, n - d + k + 1):
                    walk(sub + (j,), pts + (ints[j],), m)
            return
        m = None
        for j in range(sub[-1] + 1, n):
            full = sub + (j,)
            if full in done:
                continue
            if m is None:
                m = expand(pts, minors)
                if m is None:
                    return
            w = hyperplane_normal(pts + (ints[j],), m)
            if w is None:
                continue
            c = dot(w, pts[0])
            below = above = False
            on = []
            for i, q in enumerate(ints):
                v = sum(map(mul, w, q))     # dot, inlined in the hot loop
                if v == c:
                    on.append(i)
                elif v < c:
                    below = True
                    if above:
                        break
                else:
                    above = True
                    if below:
                        break
            else:
                held = tuple(points[i] for i in on)
                off = dot(w, points[sub[0]])
                if not below:
                    seen[w, off] = Facet(w, off, held)
                if not above:
                    neg = tuple(-x for x in w)
                    seen[neg, -off] = Facet(neg, -off, held)
                done.update(combinations(on, d))

    for i in range(n - d + 1):
        walk((i,), (ints[i],), (1,))
    return [seen[k] for k in sorted(seen)]


def _ring(pts):
    """Counterclockwise vertex ring of pts, sorted distinct integer points
    of Z^2, by Andrew's monotone chain: the lower chain left to right and
    the upper one back, each popping a point that does not make a left
    turn.  Points on an edge are dropped; a collinear set gives its two
    ends and a single point none."""
    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out[:-1]
    return chain(pts) + chain(reversed(pts))


def point_in_convex_hull(q, points):
    """Exact membership test via Caratheodory: q is in conv(points) iff it is
    a convex combination of some affinely independent subset.

    The library does not call it; it is the per-point reference that tests
    compare extreme_points against."""
    q = tuple(q)
    points = [tuple(p) for p in points]
    if q in points:
        return True
    d = len(q)
    for m in range(2, d + 2):
        for sub in combinations(points, m):
            p0 = sub[0]
            cols = [[x - y for x, y in zip(p, p0)] for p in sub[1:]]
            target = [x - y for x, y in zip(q, p0)]
            try:
                sol = solve_unique(cols, target)
            except ValueError:
                continue
            if sol is None:
                continue
            if all(x >= 0 for x in sol) and sum(sol) <= 1:
                return True
    return False


def extreme_points(points):
    """Vertices of conv(points), in sorted order.

    The points are projected onto coordinates on which their affine rank m
    survives, so the projected set is full-dimensional in R^m; a point is a
    vertex exactly when the normals of the projected facets through it
    have rank m.  point_in_convex_hull is the reference tests compare with.
    """
    points = sorted(set(tuple(p) for p in points))
    if len(points) < 2:
        return points
    coords = _rank_coords(points)
    if len(points) == len(coords) + 1:
        # m + 1 points of affine rank m are a simplex's vertices
        return points
    flat = [tuple(p[i] for i in coords) for p in points]
    return _vertices(points, flat, facets_of_points(flat))


def _vertices(points, flat, facets):
    """Points whose image in flat, a full-dimensional set with the given
    facets, lies on facets whose normals have full rank."""
    normals = {q: [] for q in flat}
    for f in facets:
        for q in f.points:
            normals[q].append(f.normal)
    m = len(flat[0])
    return [p for p, q in zip(points, flat)
            if len(normals[q]) >= m and rank(normals[q]) == m]


def simplex_volume(verts):
    """Euclidean volume of a simplex given by m+1 points in dimension m;
    a reference for tests, which the library does not call."""
    p0 = verts[0]
    m = len(verts) - 1
    if m == 0:
        return Fraction(1)
    rows = [[x - y for x, y in zip(p, p0)] for p in verts[1:]]
    return Fraction(abs(det(rows)), factorial(m))


def triangulate_points(points, dim):
    """Triangulation of conv(points) into simplices (tuples of dim+1 points).

    Cones from the lexicographically least point, always a vertex, over
    the triangulated facets not containing it, each facet flattened by a
    coordinate projection.  Recursion bottoms out in dimension one.  A
    reference for tests, which the library does not call.
    """
    points = sorted(set(tuple(p) for p in points))
    if len(_rank_coords(points)) < dim:
        return []
    if dim == 1:
        return [(points[0], points[-1])]
    apex = points[0]
    simplices = []
    for facet in facets_of_points(points):
        if dot(facet.normal, apex) == facet.offset:
            continue
        coords = _rank_coords(facet.points)
        back = {tuple(p[i] for i in coords): p for p in facet.points}
        for simp in triangulate_points(list(back), dim - 1):
            simplices.append((apex,) + tuple(back[s] for s in simp))
    return simplices


def volume_of_points(points, dim):
    """Exact Euclidean volume of conv(points) inside R^dim; a reference for
    tests, which the library does not call."""
    total = Fraction(0)
    for simp in triangulate_points(points, dim):
        total += simplex_volume(simp)
    return total


def lattice_volume(points, normal):
    """Lattice-normalized volume of conv(points), an integer, for lattice
    points on an affine hyperplane with primitive normal.

    The lattice of the hyperplane is the saturated sublattice of Z^d
    orthogonal to the normal.  For d distinct points, a simplex, the
    cofactor vector of their d - 1 difference rows is orthogonal to the
    hyperplane, so a multiple of the normal, and its content is the index
    of the lattice those rows span in the hyperplane's lattice, which is
    the simplex's normalized volume; so the volume is the gcd of the
    (d - 1) x (d - 1) minors of the rows, 0 when the points are affinely
    dependent.  The hull of points on a line is the segment between its
    ends, so in R^2 only the ends are read.

    Any other set drops coordinate i, the last nonzero entry of the
    normal, which maps the lattice of the hyperplane onto a sublattice of
    Z^(d-1) of index |normal[i]| (the normal is primitive), so the volume
    is the normalized volume of the projection Q over |normal[i]|.  In
    R^3, Q is a polygon, and its normalized area is the shoelace sum
    |sum of a x b| over the consecutive vertices a, b of its ring; a Q on
    a line has a ring of two ends and area 0.  In R^d for d >= 4, for Q
    full-dimensional and any point v of Q, coning Q from v over its
    facets G gives the facet sum

        normalized volume of Q = sum over G of (<a_G, v> - c_G) * vol(G)

    with a_G the primitive inner normal and c_G the offset of G, and
    vol(G) the lattice volume of G, read by this function in one dimension
    less, where it stops at the facets that are simplices or polygons.  A
    Q of lower dimension has no facets and volume 0.  A normal that is
    not primitive is rejected.
    """
    if gcd(*normal) != 1:
        raise InvalidInput("normal %r is not primitive" % (normal,))
    c = dot(normal, points[0])
    for p in points:
        if dot(normal, p) != c:
            raise InvalidInput(
                "point %r outside the lattice span of the hyperplane" % (p,))
    d = len(normal)
    pts = set(points)
    if d == 2:
        pts = (min(pts), max(pts))
    if len(pts) == d:
        p0, *rest = pts
        minors = (1,)
        for k, p in enumerate(rest, 1):
            minors = extend_minors(minors, [x - y for x, y in zip(p, p0)], k)
        vol = gcd(*minors)
        cofactors = [m if j % 2 == 0 else -m
                     for j, m in enumerate(reversed(minors))]
        assert cofactors in ([vol * a for a in normal],
                             [-vol * a for a in normal])
        return vol
    i = max(j for j in range(d) if normal[j] != 0)
    flat = sorted(set(p[:i] + p[i + 1:] for p in pts))
    if d == 3:
        ring = _ring(flat)
        norm = abs(sum(ax * by - ay * bx for (ax, ay), (bx, by)
                       in zip(ring, ring[1:] + ring[:1])))
    else:
        apex = flat[0]
        # a facet through the apex has height 0 and is not recursed into
        norm = sum(h * lattice_volume(g.points, g.normal)
                   for g in facets_of_points(flat)
                   if (h := dot(g.normal, apex) - g.offset))
    assert norm % normal[i] == 0
    return norm // abs(normal[i])
