"""Exact convex-hull primitives: planar rings and beneath-beyond.

Point counts here are small (tens, not thousands).  In R^2 the facets are
the edges of the counterclockwise vertex ring, built by Andrew's monotone
chain with integer cross products.  In R^d for d >= 3 they are built by
beneath-beyond (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996) in exact
integers: a seed simplex, whose d + 1 normals are the integer cofactor
vectors of intlinalg.hyperplane_normal, then one point at a time, the
faces it lies strictly below replaced by new faces through the ridges on
their horizon and the point.  A new face's normal and offset are a
combination of those of the two faces across its ridge, weighted by the
point's heights over them, so after the seed no minor is computed and
integer points build no Fraction.  Everything else is read from those
facets: a set of affine rank m is first projected onto m coordinates on
which that rank survives (an affine isomorphism on its affine hull,
integer points staying integer), its vertices are the points whose facet
normals have rank m.  The one volume the library computes, the lattice
volume of a set on a hyperplane, is the gcd of the minors of the
difference rows for a simplex, built by intlinalg's extend_minors, the
shoelace sum over the vertex ring for a polygon, and otherwise a facet
sum one dimension down that stops at simplices and polygons;
triangulations stay as the tests' reference.  All answers are exact.
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

    In R^d for d >= 3 they are built by beneath-beyond
    (_beneath_beyond): a seed simplex from the first affinely independent
    points in sorted order, then each other point in sorted order, its
    new faces turned about the ridges on its horizon.
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
    return _beneath_beyond(points, ints)


def _beneath_beyond(points, ints):
    """Facets of conv(points), sorted by (normal, offset), for sorted
    distinct points of R^d, d >= 3, with ints their integer images.

    The hull's boundary is kept as simplices: a face is a d-tuple of
    labels with its inner normal w and offset c, and each ridge, a face
    less one label, maps to the two faces through it.  The seed simplex
    is the first affinely independent points in sorted order, its faces'
    normals from hyperplane_normal.  Every other point p, labelled after
    all before it so that a face's labels stay sorted, sees the faces it
    lies strictly below; none when p is in the hull, which stays as it
    is.  A ridge of exactly one face G that p sees, across from a face F
    it does not, is on the horizon, and the new face through it and p is
    the member of the ridge's pencil through p: for the heights
    h_G < 0 <= h_F of p over G and F its normal is
    (-h_G) w_F + h_F w_G and its offset (-h_G) c_F + h_F c_G, over their
    gcd.  The seen faces go and the new ones come in; a ridge between two
    seen faces stays in the map unread, since each later face's ridges are
    a kept face's or hold its new label.  Faces on one
    hyperplane share its primitive normal, and each distinct normal is one
    facet holding every point on its hyperplane.
    """
    d = len(ints[0])
    p0 = ints[0]
    seed, minors = [0], (1,)
    for j in range(1, len(ints)):
        m = extend_minors(minors, [x - y for x, y in zip(ints[j], p0)],
                          len(seed))
        if any(m):
            seed.append(j)
            minors = m
            if len(seed) == d + 1:
                break
    if len(seed) < d:
        return []
    if len(seed) == d:
        # rank d - 1: the hyperplane in both orientations
        w = _normal([ints[i] for i in seed])
        off = dot(w, points[0])
        neg = tuple(-x for x in w)
        return sorted([Facet(w, off, tuple(points)),
                       Facet(neg, -off, tuple(points))],
                      key=lambda f: f.normal)
    order = seed + [j for j in range(len(ints)) if j not in seed]
    pts = [ints[j] for j in order]
    faces, ridges = {}, {}
    for k in range(d + 1):
        face = tuple(t for t in range(d + 1) if t != k)
        sub = [pts[t] for t in face]
        w = _normal(sub)
        c = dot(w, sub[0])
        if dot(w, pts[k]) < c:
            w, c = tuple(-x for x in w), -c
        faces[face] = w, c
        for t in range(d):
            ridges.setdefault(face[:t] + face[t + 1:], []).append(face)
    for label in range(d + 1, len(pts)):
        p = pts[label]
        height = {face: sum(map(mul, w, p)) - c      # dot, inlined
                  for face, (w, c) in faces.items()}
        seen = [face for face, h in height.items() if h < 0]
        new = []
        for g in seen:
            wg, cg = faces[g]
            hg = -height[g]
            for t in range(d):
                ridge = g[:t] + g[t + 1:]
                a, b = ridges[ridge]
                f = b if a == g else a
                hf = height[f]
                if hf < 0:
                    continue
                wf, cf = faces[f]
                w = [hg * x + hf * y for x, y in zip(wf, wg)]
                e = gcd(*w)
                face = ridge + (label,)
                new.append((face, tuple([x // e for x in w]),
                            (hg * cf + hf * cg) // e))
                ridges[ridge] = [f, face]
        for g in seen:
            del faces[g]
        for face, w, c in new:
            faces[face] = w, c
            for t in range(d - 1):
                ridges.setdefault(face[:t] + face[t + 1:], []).append(face)
    out = []
    for w, c in sorted(set(faces.values())):
        held = tuple(p for p, q in zip(points, ints)
                     if sum(map(mul, w, q)) == c)
        out.append(Facet(w, dot(w, held[0]), held))
    return out


def _normal(pts):
    """hyperplane_normal of d affinely independent integer points of R^d,
    the minors of their first d - 2 difference rows expanded here."""
    minors = (1,)
    for k in range(1, len(pts) - 1):
        minors = extend_minors(
            minors, [x - y for x, y in zip(pts[k], pts[0])], k)
    return hyperplane_normal(pts, minors)


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
