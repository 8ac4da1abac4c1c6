"""Closed intersection-number formula for the invariant.

The flag ideal's blow-up carries an exceptional divisor E; the invariant
splits into a canonical-divisor part and a discrepancy part, both of which
reduce to exact lattice data of the Newton polyhedron:

  T1 = -n * (L^(n-1).K)_r * (L_r(-E))^(n+1)
  T2 = 0                      (point-supported centers meet no boundary)
  T3 = (n+1) * (L^n)_r * sum over compact facets w of a(w) * facedeg(w)

  DF = (T1 + T2 + T3) / (2 n! (n+1)!)

with (L_r(-E))^(n+1) = -(n+1)! * integral of the support function over the
dilated chart polytope = -sum over compact facets w of ord(w) * facedeg(w),
a(w) = |w|_1 - 1 the discrepancy of the ray, ord(w) the facet's lattice
height over the origin, and facedeg(w) the lattice-normalized volume of
the compact facet (hull.lattice_volume).  The value agrees with the
counting pipeline exactly when the flag ideal's powers are integrally
closed, and is a lower bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import ExponentTooSmall, UnsupportedMode
from .hull import lattice_volume
from .intlinalg import dot, solve_unique


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

    Once the exponent guard has put the support of phi inside the chart
    polytope, this is the volume of the region under phi in the orthant,
    the closure of the orthant minus the Newton polyhedron NP.  The region
    is star-shaped from 0 because NP + orthant = NP, so its volume is the
    sum over its boundary facets of the cones from 0.  The coordinate
    hyperplanes pass through 0, and so does every non-compact facet of NP,
    which has a zero normal entry while NP meets every axis (the flag is
    point-supported).  A compact facet F lies at lattice height order_F
    over 0, so

        integral of phi = sum over F of order_F * facedeg_F / (n+1)!
    """
    np_ = flag.polyhedron
    _check_exponent(variety, np_, r)
    return Fraction(sum(f.order * face_degree(f) for f in np_.facets),
                    factorial(variety.dim + 1))


def _check_exponent(variety, np_, r):
    """ExponentTooSmall unless every support point on the Newton
    polyhedron's compact facets projects into the chart image of rP
    (boundary allowed), where phi lives: <b, y> >= r * d on the facets of
    chart_inequalities off the chart (d != 0).  That image is convex, so
    this is the same verdict as for the facets' vertices alone.  A point
    on several facets is tested once, in the order of its first
    appearance, so the error names the first point in facet order that
    fails."""
    cuts = [(b, r * d) for b, d in variety.chart_inequalities if d]
    for p in dict.fromkeys(p for f in np_.facets for p in f.points):
        if any(dot(b, p) < rd for b, rd in cuts):
            raise ExponentTooSmall(
                "newton polyhedron support point %r leaves the chart "
                "polytope at exponent r=%d" % (tuple(p[:-1]), r))


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


def face_degree(f):
    """Lattice-normalized volume of a compact facet of the Newton polyhedron.

    The facet's support points span an affine hyperplane with primitive
    normal f.normal, whose length is the dimension; lattice_volume takes
    their hull, so points that are not vertices change nothing.
    """
    return lattice_volume(f.points, f.normal)


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
    np_ = flag.polyhedron
    _check_exponent(variety, np_, r)
    rays = sorted((RayContribution(normal=f.normal, order=f.order,
                                   discrepancy=sum(f.normal) - 1,
                                   face_degree=face_degree(f))
                   for f in np_.facets),
                  key=lambda ray: ray.normal)
    # the top power upstairs is the facet sum of lower_hull_integral
    # times -(n+1)!; T3 weighs the same face degrees by the discrepancy,
    # and only DF is not an integer
    le_power = -sum(ray.order * ray.face_degree for ray in rays)
    t1 = -n * lk * r ** (n - 1) * le_power
    t3 = (n + 1) * ln * r ** n * sum(ray.discrepancy * ray.face_degree
                                     for ray in rays)
    return DecompositionReport(
        t1=Fraction(t1), t2=Fraction(0), t3=Fraction(t3),
        df=Fraction(t1 + t3, 2 * factorial(n) * factorial(n + 1)),
        le_power=Fraction(le_power), rays=tuple(rays), r=r, trivial=False)
