"""Closed intersection-number formula for the invariant.

The flag ideal's blow-up carries an exceptional divisor E; the invariant
splits into a canonical-divisor part and a discrepancy part, both of which
reduce to exact lattice data of the Newton polyhedron:

  T1 = -n * (L^(n-1).K)_r * (L_r(-E))^(n+1)
  T2 = 0                      (point-supported centers meet no boundary)
  T3 = (n+1) * (L^n)_r * sum over compact facets w of a(w) * facedeg(w)

  DF = (T1 + T2 + T3) / (2 n! (n+1)!)

with (L_r(-E))^(n+1) = -(n+1)! * integral of the support function over the
dilated chart polytope, a(w) = |w|_1 - 1 the discrepancy of the ray, and
facedeg(w) the lattice-normalized volume of the compact facet.  The value
agrees with the counting pipeline exactly when the flag ideal's powers are
integrally closed, and is a lower bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import ExponentTooSmall, UnsupportedMode
from .hull import lattice_volume, simplex_volume, triangulate_points
from .intlinalg import dot, solve_unique
from .monomial_algebra import newton_polyhedron


@dataclass(frozen=True)
class RayContribution:
    normal: tuple        # primitive facet normal (chart weights, t-weight)
    order: int           # vanishing order of the flag ideal along the ray
    discrepancy: int     # |normal|_1 - 1
    face_degree: int     # lattice-normalized volume of the compact facet

    def to_json_dict(self):
        return {
            "w": list(self.normal),
            "ord": self.order,
            "a": self.discrepancy,
            "face_degree": self.face_degree,
        }


@dataclass(frozen=True)
class DecompositionReport:
    t1: Fraction
    t2: Fraction
    t3: Fraction
    df: Fraction
    le_power: Fraction   # (L_r(-E))^(n+1), the top self-intersection upstairs
    rays: tuple
    r: int
    trivial: bool

    def to_json_dict(self):
        return {
            "T1": str(self.t1),
            "T2": str(self.t2),
            "T3": str(self.t3),
            "DF": str(self.df),
            "LE_power": str(self.le_power),
            "rays": [ray.to_json_dict() for ray in self.rays],
            "r": self.r,
        }


def lower_hull_integral(variety, flag, r):
    """Integral of the support function phi over the chart image of rP.

    phi vanishes off the projections of the compact facets of the Newton
    polyhedron, and over the projection of a facet F it is F's affine
    function.  F's normal has a positive t-entry, so dropping t maps F
    injectively, and phi takes the t-coordinate of each vertex of F at its
    image.  A simplex of the projected facet therefore contributes its
    volume times the mean t of its vertices.
    """
    np_ = newton_polyhedron(flag)
    if not np_.facets:
        return Fraction(0)
    n = variety.dim

    # exponent guard: the support of phi must fit inside the chart polytope
    for f in np_.facets:
        for p in f.vertices:
            proj = p[:-1]
            if not _inside_chart(variety, proj, r):
                raise ExponentTooSmall(
                    "newton polyhedron vertex %r leaves the chart polytope "
                    "at exponent r=%d" % (tuple(proj), r))

    total = Fraction(0)
    for f in np_.facets:
        height = {p[:-1]: p[-1] for p in f.vertices}
        for simp in triangulate_points(list(height), n):
            total += simplex_volume(simp) * Fraction(
                sum(height[y] for y in simp), n + 1)
    return total


def _inside_chart(variety, y, r):
    """Is the chart point y inside the chart image of rP (boundary allowed)?"""
    if any(t < 0 for t in y):
        return False
    u = variety.point_from_chart(y, r)
    return all(dot(a, u) >= r * c for a, c in variety.polytope.facets)


def _region_vertices(variety, np_, facet, r):
    """Vertices of the closed region of the chart polytope where the given
    facet's affine function realizes phi (None = the region where phi = 0).

    The region is an intersection of half-spaces: the chart polytope's own
    inequalities plus, for each other facet w', (value of this facet) >=
    (value of w'), plus value >= 0.  Vertices are enumerated exactly by
    intersecting n of the bounding hyperplanes at a time.

    The library does not call it: the regions are the half-space reference
    that tests integrate phi over to check lower_hull_integral.
    """
    n = variety.dim
    # half-spaces as (coeffs, const) meaning <coeffs, y> >= const
    halves = []
    for a, c in variety.polytope.facets:
        # y in chart, x = v0 r + D y, <a, x> >= r c
        coeffs = tuple(dot(a, d) for d in variety.edge_directions)
        const = r * c - r * dot(a, variety.chart_vertex)
        halves.append((coeffs, Fraction(const)))

    def value_fn(f):
        if f is None:
            return (tuple(Fraction(0) for _ in range(n)), Fraction(0))
        w = f.normal
        return (tuple(Fraction(-w[i], w[-1]) for i in range(n)),
                Fraction(f.order, w[-1]))

    base_lin, base_const = value_fn(facet)
    for other in list(np_.facets) + [None]:
        if other is facet:
            continue
        lin, const = value_fn(other)
        # base - other >= 0
        halves.append((tuple(a - b for a, b in zip(base_lin, lin)),
                       const - base_const))

    return _polyhedron_vertices(halves, n)


def _polyhedron_vertices(halves, n):
    """All vertices of {y : <a, y> >= c for (a, c) in halves}, assumed bounded.

    Only _region_vertices, the reference of the tests, calls it."""
    out = set()
    for sub in combinations(range(len(halves)), n):
        cols = [[Fraction(halves[i][0][j]) for i in sub] for j in range(n)]
        rhs = [halves[i][1] for i in sub]
        try:
            y = solve_unique(cols, rhs)
        except ValueError:
            continue
        if y is None:
            continue
        if all(dot(a, y) >= c for a, c in halves):
            out.add(tuple(y))
    return sorted(out)


def exceptional_data(flag):
    """Ray contributions of every compact facet of the Newton polyhedron."""
    np_ = newton_polyhedron(flag)
    rays = []
    for f in np_.facets:
        rays.append((f, f.normal, f.order, sum(f.normal) - 1))
    return np_, rays


def face_degree(flag, f):
    """Lattice-normalized volume of a compact facet of the Newton polyhedron.

    The facet spans an affine hyperplane with primitive normal f.normal,
    whose length is the dimension; the flag is not consulted.
    """
    return lattice_volume(f.vertices, f.normal)


def df_intersection(variety, flag, r):
    """Closed-formula pipeline; exact for integrally closed flag ideals."""
    n = variety.dim
    if flag.trivial:
        # no blow-up happens; the polarization is pulled back from the
        # product and its top self-intersection upstairs vanishes
        return DecompositionReport(
            t1=Fraction(0), t2=Fraction(0), t3=Fraction(0), df=Fraction(0),
            le_power=Fraction(0), rays=(), r=r, trivial=True)
    if flag.mode != "chart":
        raise UnsupportedMode(
            "the closed formula needs a chart-mode flag ideal")
    if flag.support != "point":
        raise UnsupportedMode(
            "the closed formula needs a point-supported flag ideal")
    ln, lk = variety.intersection_numbers()
    ln_r = ln * r ** n
    lk_r = lk * r ** (n - 1)
    integral = lower_hull_integral(variety, flag, r)
    fact_n = factorial(n)
    fact_np1 = factorial(n + 1)
    le_power = -fact_np1 * integral
    t1 = -n * lk_r * le_power
    t2 = Fraction(0)
    np_, raw = exceptional_data(flag)
    rays = []
    t3 = Fraction(0)
    for f, w, order, disc in raw:
        fd = face_degree(flag, f)
        rays.append(RayContribution(
            normal=w, order=order, discrepancy=disc, face_degree=fd))
        t3 += disc * fd
    t3 = (n + 1) * ln_r * t3
    df = Fraction(t1 + t2 + t3, 2 * fact_n * fact_np1)
    rays.sort(key=lambda ray: ray.normal)
    return DecompositionReport(
        t1=Fraction(t1), t2=t2, t3=Fraction(t3), df=df,
        le_power=le_power, rays=tuple(rays), r=r, trivial=False)
