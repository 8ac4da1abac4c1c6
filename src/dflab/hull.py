"""Exact convex-hull primitives by exhaustive subset enumeration.

Point counts here are small (tens, not thousands), so facets are found by
testing every d-subset for a supporting hyperplane.  All answers are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .intlinalg import det, dot, hyperplane_normal, rank, solve_unique


@dataclass(frozen=True)
class Facet:
    normal: tuple        # primitive integer inner normal
    offset: int          # <normal, x> >= offset on the hull
    points: tuple        # input points lying on the facet, sorted


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return rank([[x - y for x, y in zip(p, p0)] for p in points[1:]])


def facets_of_points(points, strictly_positive=False):
    """Facets of conv(points), assumed full-dimensional in its ambient space.

    With strictly_positive=True only facets whose inner normal has all
    coordinates > 0 are returned; for a set of the form S + (orthant rays)
    these are exactly the compact faces of the lower hull.
    """
    points = sorted(set(tuple(p) for p in points))
    d = len(points[0])
    if d == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        out = [Facet((1,), lo, ((lo,),))]
        if not strictly_positive:
            out.append(Facet((-1,), -hi, ((hi,),)))
        return out
    seen = {}
    for sub in combinations(points, d):
        w0 = hyperplane_normal(sub)
        if w0 is None:
            continue
        c0 = dot(w0, sub[0])
        # try both orientations; if the points are not full-dimensional both
        # can support, and only the strictly positive one matters then
        for w, c in ((w0, c0), (tuple(-x for x in w0), -c0)):
            if not all(dot(w, p) >= c for p in points):
                continue
            if strictly_positive and not all(x > 0 for x in w):
                continue
            key = (w, c)
            if key in seen:
                continue
            on = tuple(p for p in points if dot(w, p) == c)
            if _affine_rank(on) == d - 1:
                seen[key] = Facet(w, c, on)
    return [seen[k] for k in sorted(seen)]


def point_in_convex_hull(q, points):
    """Exact membership test via Caratheodory: q is in conv(points) iff it is
    a convex combination of some affinely independent subset."""
    q = tuple(q)
    points = [tuple(p) for p in points]
    if q in points:
        return True
    d = len(q)
    for m in range(2, d + 2):
        for sub in combinations(points, m):
            p0 = sub[0]
            cols = [[x - y for x, y in zip(p, p0)] for p in sub[1:]]
            cols = [list(col) for col in cols]
            if rank(cols) != m - 1:
                continue
            target = [x - y for x, y in zip(q, p0)]
            try:
                sol = solve_unique([list(c) for c in cols], target)
            except ValueError:
                continue
            if sol is None:
                continue
            if all(x >= 0 for x in sol) and sum(sol) <= 1:
                return True
    return False


def extreme_points(points):
    """Vertices of conv(points): points not in the hull of the others."""
    points = sorted(set(tuple(p) for p in points))
    out = []
    for i, p in enumerate(points):
        rest = points[:i] + points[i + 1:]
        if not rest or not point_in_convex_hull(p, rest):
            out.append(p)
    return out


def simplex_volume(verts):
    """Euclidean volume of a simplex given by m+1 points in dimension m."""
    p0 = verts[0]
    m = len(verts) - 1
    if m == 0:
        return Fraction(1)
    rows = [[x - y for x, y in zip(p, p0)] for p in verts[1:]]
    d = det(rows)
    return abs(d) / factorial(m)


def _facet_coords(facet_points, all_on_points):
    """Coordinates of a facet's points in an affine frame of the facet.

    Returns (frame point, frame columns, coordinate map).  The frame columns
    are d-1 affinely independent difference vectors chosen from the facet.
    """
    p0 = facet_points[0]
    d = len(p0)
    diffs = [[x - y for x, y in zip(p, p0)] for p in facet_points[1:]]
    frame = []
    for v in diffs:
        if rank(frame + [v]) > len(frame):
            frame.append(v)
        if len(frame) == d - 1:
            break
    if len(frame) != d - 1:
        raise ValueError("facet is not (d-1)-dimensional")
    coords = {}
    for p in all_on_points:
        target = [x - y for x, y in zip(p, p0)]
        sol = solve_unique(frame, target)
        if sol is None:
            raise ValueError("point not in facet's affine span")
        coords[tuple(p)] = sol
    return p0, frame, coords


def triangulate_points(points, dim):
    """Triangulation of conv(points) into simplices (tuples of dim+1 points).

    Cones from a fixed vertex over triangulated facets not containing it.
    Recursion bottoms out in dimension one.
    """
    points = sorted(set(tuple(p) for p in points))
    verts = extreme_points(points)
    if _affine_rank(verts) < dim:
        return []
    if dim == 1:
        xs = sorted(verts)
        return [(xs[0], xs[-1])]
    apex = verts[0]
    simplices = []
    for facet in facets_of_points(verts):
        if dot(facet.normal, apex) == facet.offset:
            continue
        p0, frame, coords = _facet_coords(facet.points, facet.points)
        flat = [coords[p] for p in facet.points]
        back = {coords[p]: p for p in facet.points}
        for simp in triangulate_points(flat, dim - 1):
            simplices.append(tuple([apex] + [back[s] for s in simp]))
    return simplices


def volume_of_points(points, dim):
    """Exact Euclidean volume of conv(points) inside R^dim."""
    total = Fraction(0)
    for simp in triangulate_points(points, dim):
        total += simplex_volume(simp)
    return total
