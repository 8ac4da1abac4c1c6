"""Lattice polytopes and the polarized toric varieties they encode.

A full-dimensional lattice polytope P in Z^n stands for a projective toric
variety together with an ample line bundle; lattice points of kP enumerate
sections of the k-th power.  This module validates the input polytope,
fixes an affine chart at a smooth vertex, counts lattice points exactly,
and computes the two intersection numbers (L^n and L^(n-1).K) every later
computation is normalized against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from math import comb, gcd, prod

from .errors import (
    InconsistentVertices,
    InvalidInput,
    NonLatticeVertex,
    NonUnimodularChartVertex,
    NotFullDimensional,
    PointOutsidePolytope,
    as_integer,
)
from .hull import _vertices, facets_of_points, lattice_volume
from .intlinalg import det, dot, rank


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple   # sorted tuples of ints
    facets: tuple     # (primitive inner normal a, offset c) with <a,x> >= c
    incidence: tuple  # per vertex, the indices of the facets through it
    widths: tuple     # per facet, the largest <a,v> - c over the vertices v


@dataclass(frozen=True)
class PolarizedToricVariety:
    polytope: LatticePolytope
    chart_vertex: tuple
    edge_directions: tuple   # primitive generators of the cone at chart_vertex
    chart_facets: tuple      # tight facet indices, facet j dual to edge j
    smooth: bool             # every vertex cone unimodular
    numbers: tuple           # (L^n, L^(n-1).K), computed by make_variety

    @property
    def dim(self):
        return self.polytope.dim

    @cached_property
    def _fibre_store(self):
        """The fibre store: {k: Fibres of kP} for each scale k asked of
        dilate_fibres, built on first use and kept with the variety."""
        return {}

    def dilate_fibres(self, k):
        """fibres(self.polytope, k), enumerated on the first call for k and
        read from the fibre store after that.  The columns are shared by
        every caller and are not to be modified.

        The store holds only the scales asked for: a fit samples k r for
        k up to its cap, so a search over r_list keeps at most
        cap * max(r_list) scales, and every record and every r that meets
        the same scale reads one entry.  A search with workers > 1 pickles
        the variety into each task, so each task unpickles its own variety
        and store, and the sharing is per task.
        """
        store = self._fibre_store
        if k not in store:
            store[k] = fibres(self.polytope, k)
        return store[k]

    def lattice_points(self, k):
        """All lattice points of the dilate kP, in sorted (lexicographic)
        order, read off its fibres."""
        fib = self.dilate_fibres(k)
        prefixes = zip(*fib.axes) if fib.axes else [()] * len(fib.los)
        return [p + (x,) for p, lo, hi in zip(prefixes, fib.los, fib.his)
                for x in range(lo, hi + 1)]

    @cached_property
    def _ehrhart_differences(self):
        """The i-th forward differences at 0 of h(k) = #(kP), i = 0..n: h is
        a polynomial of degree n, fixed by the counts of 0P..nP."""
        h = [1] + [self.dilate_fibres(k).count for k in range(1, self.dim + 1)]
        return [sum((-1) ** (i - j) * comb(i, j) * h[j] for j in range(i + 1))
                for i in range(len(h))]

    def ehrhart_count(self, k):
        """#(kP) for k >= 0 from P's Ehrhart polynomial in Newton's form."""
        return sum(d * comb(k, i)
                   for i, d in enumerate(self._ehrhart_differences))

    def intersection_numbers(self):
        """(L^n, L^(n-1).K) for the polarization L and canonical divisor K."""
        return self.numbers

    def chart_coords(self, u, scale):
        """Coordinates of a lattice point of scale*P in the fixed chart.

        The chart identifies the cone at chart_vertex with the standard
        orthant; coordinate j of a point u of scale*P is its exponent
        <a, u> - scale * c >= 0 on (a, c), chart facet j.
        """
        facets = self.polytope.facets
        y = tuple(dot(a, u) - scale * c
                  for a, c in (facets[i] for i in self.chart_facets))
        if any(t < 0 for t in y):
            raise PointOutsidePolytope(
                "point %r is outside the chart cone of %r at scale %d"
                % (tuple(u), self.chart_vertex, scale))
        return y

    @cached_property
    def chart_inequalities(self):
        """P in chart coordinates (chart_coords): per facet (a, c), (b, d)
        with b_j = <a, e_j> on edge j and d = c - <a, v0>, so y is in sP iff
        <b, y> >= s * d on every facet; a chart facet has d = 0."""
        v0 = self.chart_vertex
        return tuple((tuple(dot(a, e) for e in self.edge_directions),
                      c - dot(a, v0)) for a, c in self.polytope.facets)

    def chart_box(self, r, side):
        """Q = {0 <= y <= side} meet rP in chart coordinates, for fibres:
        its vertices are the box's corners 0 and side, and its facets the
        (b, r * d) of chart_inequalities that cut the box, if any."""
        cut = tuple((b, r * d) for b, d in self.chart_inequalities
                    if sum(x * e for x, e in zip(b, side) if x < 0) < r * d)
        return LatticePolytope(self.dim, ((0,) * self.dim, tuple(side)),
                               cut, (), ())

    def point_from_chart(self, y, scale):
        """Inverse of chart_coords; accepts rational chart coordinates."""
        v0 = self.chart_vertex
        n = self.dim
        return tuple(
            scale * v0[i] + sum(self.edge_directions[j][i] * y[j] for j in range(n))
            for i in range(n))

    def maximal_charts(self):
        """For each vertex, the indices of facets through it (its chart)."""
        return self.polytope.incidence


@dataclass(frozen=True)
class Fibres:
    """The lattice points of a dilate kP as columns over its fibres: the
    points are p + (x,) for lo <= x <= hi, over the fibres' prefixes p of
    their first n-1 coordinates, in lexicographic order.  axes holds one
    column per prefix axis (none when n = 1, where the one fibre has the
    empty prefix), los and his the bounds, and count the number of points.
    """

    axes: tuple    # axes[i][f] is coordinate i of fibre f's prefix
    los: list
    his: list
    count: int


def fibres(poly, k):
    """The lattice points of kP as Fibres, with no empty fibre; P may be a
    chart box (PolarizedToricVariety.chart_box).

    The prefixes run through the box over the first n-1 coordinates in
    lexicographic order, and the bounds are columns over that grid.  For
    each facet <a, u> >= k c, the column of <a', p> - k c over the prefixes
    is built one axis at a time; the facet bounds the last coordinate by
    a_n u_n >= k c - <a', p>, from below when a_n > 0 and from above when
    a_n < 0, and passes or empties the fibre when a_n = 0.  The lo and hi
    columns fold these bounds by elementwise maximum and minimum, an
    emptied fibre getting a hi below every lo.  Empty fibres are left out
    of every column, so the fibres run through kP in lexicographic order.
    """
    lows = [min(v[i] for v in poly.vertices) * k for i in range(poly.dim)]
    highs = [max(v[i] for v in poly.vertices) * k for i in range(poly.dim)]
    axes = [range(lo, hi + 1) for lo, hi in zip(lows[:-1], highs[:-1])]
    size = prod(map(len, axes))
    los, his = [lows[-1]] * size, [highs[-1]] * size
    for a, c in poly.facets:
        col = [-k * c]
        for ai, axis in zip(a, axes):
            steps = [ai * x for x in axis]
            col = [v + s for v in col for s in steps]
        t = a[-1]
        # ceil(m / t) == -(-m // t) for t > 0; floor(m / t) == m // t,
        # here with m = -v
        if t > 0:
            los = [x if x >= (y := -(v // t)) else y
                   for x, v in zip(los, col)]
        elif t < 0:
            his = [x if x <= (y := -v // t) else y
                   for x, v in zip(his, col)]
        else:
            his = [x if v >= 0 else lows[-1] - 1 for x, v in zip(his, col)]
    keep = [lo <= hi for lo, hi in zip(los, his)]
    cols = tuple(list(compress(col, keep)) for col in zip(*product(*axes)))
    los, his = list(compress(los, keep)), list(compress(his, keep))
    return Fibres(cols, los, his, sum(his) - sum(los) + len(los))


def _intersection_numbers(poly):
    """(L^n, L^(n-1).K) as sums over the facets F of P.

    The boundary divisor of F meets L^(n-1) in lam_F, the lattice volume
    of F, and K is minus the sum of the boundary divisors.  L^n is the
    normalized volume of P, the facet sum of hull.lattice_volume over one
    vertex v: the sum of (<a_F, v> - c_F) * lam_F, with the vertices of F
    read from the incidence.
    """
    v = poly.vertices[0]
    terms = [(dot(a, v) - c,
              lattice_volume([u for u, on in zip(poly.vertices, poly.incidence)
                              if i in on], a))
             for i, (a, c) in enumerate(poly.facets)]
    return sum(h * lam for h, lam in terms), -sum(lam for _, lam in terms)


def _smooth(poly, on):
    """Whether a vertex on the facets indexed by on is smooth: they are n
    and their normals have determinant +-1."""
    return len(on) == poly.dim and \
        abs(det([poly.facets[i][0] for i in on])) == 1


def make_variety(vertices, chart_vertex=None):
    """Validate a vertex list and package it with a chart at one vertex.

    The vertex list must consist of lattice points, span the ambient space,
    and contain no point interior to the hull of the others.  The chart
    vertex (default: lexicographically smallest vertex) must be smooth,
    i.e. the primitive edge directions there must form a lattice basis.
    The polytope keeps the facets through each vertex, read from the
    facet search, and smoothness, the charts, the chart frame and the
    intersection numbers read that incidence, and each facet's width.
    """
    pts = []
    for v in vertices:
        t = tuple(v)
        try:
            p = tuple(int(x) for x in t)
        except (TypeError, ValueError, OverflowError):
            # JSON numbers are finite: NaN and Infinity are not numbers
            raise InvalidInput("vertex %r has a non-numeric entry" % (t,)) \
                from None
        if p != t or any(isinstance(x, bool) for x in t):
            raise NonLatticeVertex("vertex %r has a non-integer entry" % (t,))
        pts.append(p)
    if not pts or not pts[0]:
        raise InvalidInput("empty vertex list or vertex")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise InvalidInput("vertices of mixed dimension")
    uniq = sorted(set(pts))
    p0 = uniq[0]
    if len(uniq) < n + 1 or rank([[x - y for x, y in zip(p, p0)] for p in uniq[1:]]) < n:
        raise NotFullDimensional("vertices do not span dimension %d" % n)
    hull = facets_of_points(uniq)
    ext = _vertices(uniq, uniq, hull)
    if ext != uniq:
        raise InconsistentVertices(
            "points %r are not vertices of the hull" %
            (sorted(set(uniq) - set(ext)),))
    poly = LatticePolytope(
        dim=n, vertices=tuple(uniq),
        facets=tuple((f.normal, f.offset) for f in hull),
        incidence=tuple(tuple(i for i, f in enumerate(hull) if v in f.points)
                        for v in uniq),
        widths=tuple(max(dot(f.normal, v) for v in uniq) - f.offset
                     for f in hull))

    try:
        v0 = uniq[0] if chart_vertex is None else \
            tuple(as_integer(x, "chart vertex entry") for x in chart_vertex)
    except (TypeError, ValueError):
        raise InvalidInput(
            "chart vertex %r is not a vertex" % (chart_vertex,)) from None
    if v0 not in uniq:
        raise InvalidInput("chart vertex %r is not a vertex" % (v0,))
    tight = poly.incidence[uniq.index(v0)]
    if not _smooth(poly, tight):
        raise NonUnimodularChartVertex(
            "cone at %r is not a smooth chart" % (v0,))
    # the edge dual to tight facet i runs from v0 to the one other vertex
    # on every tight facet but i, and its primitive step is 1 on normal i
    # and 0 on the others; descending order makes the frame at the origin
    # of the stock polytopes the identity, and the chart facets are the
    # tight facets in the same order
    frame = []
    for i in tight:
        w = next(w for w, on in zip(uniq, poly.incidence)
                 if w != v0 and set(tight) - {i} <= set(on))
        step = [x - y for x, y in zip(w, v0)]
        g = gcd(*step)
        frame.append((tuple(x // g for x in step), i))
    edges, chart = zip(*sorted(frame, reverse=True))
    smooth = all(_smooth(poly, on) for on in poly.incidence)
    return PolarizedToricVariety(
        polytope=poly,
        chart_vertex=v0,
        edge_directions=edges,
        chart_facets=chart,
        smooth=smooth,
        numbers=_intersection_numbers(poly),
    )


# ---------------------------------------------------------------------------
# small library of stock polytopes

def projective_space(n, d=1):
    """d-fold dilated standard simplex: projective n-space with O(d)."""
    n, d = as_integer(n, "n"), as_integer(d, "d")
    if n < 1 or d < 1:
        raise InvalidInput("need n >= 1 and d >= 1")
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        verts.append(tuple(d if j == i else 0 for j in range(n)))
    return make_variety(verts, tuple(0 for _ in range(n)))


def box(sides):
    """Product of segments: (P^1)^n with the product polarization."""
    sides = tuple(as_integer(s, "side") for s in sides)
    if any(s < 1 for s in sides):
        raise InvalidInput("side lengths must be positive")
    n = len(sides)
    verts = []
    for mask in range(1 << n):
        verts.append(tuple(sides[i] if (mask >> i) & 1 else 0 for i in range(n)))
    return make_variety(verts, tuple(0 for _ in range(n)))


def hirzebruch_anticanonical():
    """First Hirzebruch surface with its anticanonical polarization."""
    return make_variety([(0, 0), (1, 0), (3, 2), (0, 2)], (0, 0))
