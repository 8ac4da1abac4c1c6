"""Tests for the closed intersection-number pipeline."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dflab.intersection_engine as ie
from dflab.errors import ExponentTooSmall, UnsupportedMode
from dflab.hull import (
    extreme_points,
    simplex_volume,
    triangulate_points,
    volume_of_points,
)
from dflab.intersection_engine import (
    _region_vertices,
    df_intersection,
    face_degree,
    lower_hull_integral,
)
from dflab.lattice_geometry import (
    box,
    hirzebruch_anticanonical,
    make_variety,
    projective_space,
)
from dflab.monomial_algebra import (
    MonomialIdeal,
    newton_polyhedron,
    phi_value,
    validate_flag_ideal,
)


def flag_of(gens_per_level, nvars, mode="chart", variety=None):
    ideals = [MonomialIdeal.make(nvars, gens) for gens in gens_per_level]
    return validate_flag_ideal(ideals, mode=mode, variety=variety)


# ---------------------------------------------------------------------------
# support function integral

def test_hull_integral_on_the_line():
    v = projective_space(1, 2)
    assert lower_hull_integral(v, flag_of([[(2,)]], 1), 1) == 1


def test_hull_integral_on_the_plane():
    v = projective_space(2, 2)
    flag = flag_of([[(2, 0), (1, 1), (0, 2)]], 2)
    assert lower_hull_integral(v, flag, 1) == Fraction(2, 3)


def test_hull_integral_trivial_flag_vanishes():
    v = projective_space(2, 2)
    assert lower_hull_integral(v, flag_of([[(0, 0)]], 2), 1) == 0


def test_exponent_guard_fires_on_short_sections():
    v = projective_space(1, 1)
    flag = flag_of([[(2,)]], 1)
    with pytest.raises(ExponentTooSmall):
        lower_hull_integral(v, flag, 1)
    # the guard allows the boundary case
    assert lower_hull_integral(v, flag, 2) == 1


def test_exponent_guard_tests_each_support_point_once(monkeypatch):
    # (x^2, y^3, xy) on P^2(1): the compact facets hold (0, 0), (1, 1),
    # (2, 0) and (0, 0), (0, 3), (1, 1), so (0, 0) and (1, 1) lie on both.
    # Each point is tested once, in order of first appearance, against the
    # facets of P in chart coordinates: P^2 has one facet off the chart,
    # so one dot product per point.  The error names the first point in
    # facet order that leaves rP
    calls = []
    dot = ie.dot

    def recorded(b, p):
        calls.append(tuple(p[:-1]))
        return dot(b, p)

    monkeypatch.setattr(ie, "dot", recorded)
    v = projective_space(2, 1)
    flag = flag_of([[(2, 0), (0, 3), (1, 1)]], 2)
    assert [len(f.points) for f in flag.polyhedron.facets] == [3, 3]
    assert lower_hull_integral(v, flag, 3) == Fraction(5, 6)
    assert calls == [(0, 0), (1, 1), (2, 0), (0, 3)]
    for r, point, mapped in [(1, "(1, 1)", 2), (2, "(0, 3)", 4)]:
        calls.clear()
        with pytest.raises(ExponentTooSmall) as err:
            lower_hull_integral(v, flag, r)
        assert str(err.value) == (
            "newton polyhedron support point %s leaves the chart polytope "
            "at exponent r=%d" % (point, r))
        assert calls == [(0, 0), (1, 1), (2, 0), (0, 3)][:mapped]


# lower_hull_integral reads phi from the compact facets' projections; the
# reference integrates phi_value over every linearity region cut out by
# half-spaces (_region_vertices: one region per compact facet plus the
# zero region), and guards the exponent by lattice-point membership.

F1_VERTICES = hirzebruch_anticanonical().polytope.vertices
INTEGRAL_VARIETIES = [
    projective_space(1, 2),
    projective_space(2, 2),
    box((1, 2)),
    make_variety(F1_VERTICES, chart_vertex=(3, 2)),
    make_variety(F1_VERTICES, chart_vertex=(0, 2)),
    projective_space(3, 1),
]


def reference_integral(variety, flag, r):
    np_ = newton_polyhedron(flag)
    sections = set(variety.lattice_points(r))
    for p in {p for f in np_.facets for p in extreme_points(f.points)}:
        if variety.point_from_chart(p[:-1], r) not in sections:
            raise ExponentTooSmall(p)
    n = variety.dim
    total = Fraction(0)
    for f in list(np_.facets) + [None]:
        verts = _region_vertices(variety, np_, f, r)
        if len(verts) < n + 1:
            continue
        for simp in triangulate_points(verts, n):
            total += simplex_volume(simp) * \
                sum(phi_value(np_, y) for y in simp) / (n + 1)
    return total


@st.composite
def point_chains(draw):
    """(variety, flag, r): one- or two-step point-supported chains whose
    pure powers reach near the edge of the chart image of rP, and past it
    when over is drawn."""
    variety = draw(st.sampled_from(INTEGRAL_VARIETIES))
    r = draw(st.integers(1, 3))
    n = variety.dim
    sections = set(variety.lattice_points(r))
    axes = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    reach = [max(t for t in range(4 * r) if variety.point_from_chart(
        [t * x for x in e], r) in sections) for e in axes]
    # pure powers make every ideal of the chain point supported; low
    # monomials under powers of degree >= 2 break the hull into facets
    over = draw(st.booleans())
    gens = [tuple((draw(st.integers(max(2, m - 1), max(2, m))) + over) * x
                  for x in e) for e, m in zip(axes, reach)]
    low = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    levels = [gens + draw(st.lists(low, max_size=2))]
    if draw(st.booleans()):
        step = st.tuples(*[st.integers(0, 1)] * n)
        levels.append(levels[0] + draw(st.lists(step, min_size=1, max_size=2)))
    return variety, flag_of(levels, n), r


@settings(max_examples=150, deadline=None)
@given(point_chains())
# two facets over a chart whose matrix is not the identity
@example((INTEGRAL_VARIETIES[3],
          flag_of([[(3, 0), (0, 2)], [(1, 0), (0, 1)]], 2), 2))
# (x^4) + (x) t + t^2 breaks at (1, 1)
@example((INTEGRAL_VARIETIES[0], flag_of([[(4,)], [(1,)]], 1), 2))
# two facets on P^3: xy lies below the plane of the pure cubes
@example((INTEGRAL_VARIETIES[5],
          flag_of([[(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0)]], 3), 3))
def test_lower_hull_integral_matches_region_reference(case):
    variety, flag, r = case
    try:
        expected = reference_integral(variety, flag, r)
    except ExponentTooSmall:
        with pytest.raises(ExponentTooSmall):
            lower_hull_integral(variety, flag, r)
        return
    assert lower_hull_integral(variety, flag, r) == expected


# ---------------------------------------------------------------------------
# exceptional rays

def test_exceptional_data_two_facets():
    # (x^3) + (x) t + (t^2) has a broken lower hull with two facets
    flag = flag_of([[(3,)], [(1,)]], 1)
    facts = sorted((f.normal, f.order, sum(f.normal) - 1,
                    tuple(extreme_points(f.points)))
                   for f in newton_polyhedron(flag).facets)
    assert facts == [
        ((1, 1), 2, 1, ((0, 2), (1, 1))),
        ((1, 2), 3, 2, ((1, 1), (3, 0))),
    ]


def test_face_degree_pins():
    flag = flag_of([[(2,)]], 1)
    facets = newton_polyhedron(flag).facets
    assert [face_degree(f) for f in facets] == [1]

    flag = flag_of([[(2, 0), (1, 1), (0, 2)]], 2)
    facets = newton_polyhedron(flag).facets
    assert [face_degree(f) for f in facets] == [2]

    flag = flag_of([[(3,)], [(1,)]], 1)
    facets = newton_polyhedron(flag).facets
    degs = {f.normal: face_degree(f) for f in facets}
    assert degs == {(1, 1): 1, (1, 2): 1}


def test_simplex_sum_volume_square():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert volume_of_points(pts, 2) == 1


# ---------------------------------------------------------------------------
# full decompositions

def test_decomposition_line_degree_two():
    v = projective_space(1, 2)
    deco = df_intersection(v, flag_of([[(2,)]], 1), 1)
    assert (deco.t1, deco.t2, deco.t3) == (-4, 0, 8)
    assert deco.df == 1
    assert deco.le_power == -2
    assert len(deco.rays) == 1
    ray = deco.rays[0]
    assert (ray.normal, ray.order, ray.discrepancy, ray.face_degree) == \
        ((1, 2), 2, 2, 1)


def test_decomposition_plane_max_ideal_squared():
    v = projective_space(2, 2)
    deco = df_intersection(v, flag_of([[(2, 0), (1, 1), (0, 2)]], 2), 1)
    assert (deco.t1, deco.t2, deco.t3) == (-48, 0, 72)
    assert deco.df == 1
    assert deco.le_power == -4
    ray = deco.rays[0]
    assert (ray.normal, ray.order, ray.discrepancy, ray.face_degree) == \
        ((1, 1, 2), 2, 3, 2)


def test_decomposition_balanced_case_vanishes():
    v = projective_space(1, 1)
    deco = df_intersection(v, flag_of([[(1,)]], 1), 1)
    assert (deco.t1, deco.t2, deco.t3) == (-2, 0, 2)
    assert deco.df == 0


def test_decomposition_needs_larger_exponent():
    v = projective_space(2, 2)
    flag = flag_of([[(3, 0), (0, 3)]], 2)
    with pytest.raises(ExponentTooSmall):
        df_intersection(v, flag, 1)
    deco = df_intersection(v, flag, 2)
    assert deco.df == 15


def test_trivial_flag_decomposition_is_zero():
    deco = df_intersection(projective_space(2, 1), flag_of([[(0, 0)]], 2), 1)
    assert deco.trivial
    assert (deco.t1, deco.t2, deco.t3, deco.df, deco.le_power) == \
        (0, 0, 0, 0, 0)
    assert deco.rays == ()


def test_rays_are_sorted_by_normal():
    deco = df_intersection(projective_space(1, 3), flag_of([[(3,)], [(1,)]], 1), 1)
    normals = [ray.normal for ray in deco.rays]
    assert normals == sorted(normals)
    assert normals == [(1, 1), (1, 2)]


# ---------------------------------------------------------------------------
# the closed formula is a facet sum of lattice volumes, read from each
# compact facet's support points with no vertex enumeration

REFERENCE_ONLY = ("triangulate_points", "volume_of_points", "simplex_volume",
                  "det", "extreme_points")


def test_closed_formula_reaches_no_triangulation_or_determinant(monkeypatch):
    # varieties are made first: make_variety checks smoothness by det
    cases = [
        (projective_space(1, 2), flag_of([[(2,)]], 1), 1, 1),
        (projective_space(2, 2), flag_of([[(2, 0), (1, 1), (0, 2)]], 2), 1, 1),
        (projective_space(2, 2), flag_of([[(3, 0), (0, 3)]], 2), 2, 15),
        (projective_space(1, 3), flag_of([[(3,)], [(1,)]], 1), 1, None),
        (INTEGRAL_VARIETIES[3],
         flag_of([[(3, 0), (0, 2)], [(1, 0), (0, 1)]], 2), 2, None),
        (projective_space(3, 1),
         flag_of([[(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0)]], 3), 3, None),
    ]
    expected = [df_intersection(v, flag, r) for v, flag, r, _ in cases]
    numbers = [v.intersection_numbers() for v, *_ in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("reference volume reached")

    for name, mod in list(sys.modules.items()):
        if name == "dflab" or name.startswith("dflab."):
            for attr in REFERENCE_ONLY:
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, forbidden)
    calls = []
    monkeypatch.setattr(
        ie, "face_degree",
        lambda f: calls.append(f) or face_degree(f))
    for (v, flag, r, df), want, nums in zip(cases, expected, numbers):
        del calls[:]
        # a copy of the flag has no polyhedron yet and builds it here
        deco = df_intersection(v, replace(flag), r)
        assert deco == want
        assert df is None or deco.df == df
        # face_degree runs once per compact facet
        assert sorted(f.normal for f in calls) == \
            [ray.normal for ray in deco.rays]
        assert v.intersection_numbers() == nums


@settings(max_examples=60, deadline=None)
@given(point_chains())
def test_le_power_is_the_integral_facet_sum(case):
    # T1 reads the top power upstairs from the same face degrees as T3;
    # it must still be -(n+1)! times the integral of phi
    variety, flag, r = case
    try:
        integral = lower_hull_integral(variety, flag, r)
    except ExponentTooSmall:
        with pytest.raises(ExponentTooSmall):
            df_intersection(variety, flag, r)
        return
    n = variety.dim
    deco = df_intersection(variety, flag, r)
    assert deco.le_power == -integral * factorial(n + 1)
    assert deco.le_power == -sum(ray.order * ray.face_degree
                                 for ray in deco.rays)


# ---------------------------------------------------------------------------
# unsupported inputs

def test_cox_mode_is_rejected():
    v = hirzebruch_anticanonical()
    flag = flag_of([[(0, 0, 1, 0)]], 4, mode="cox", variety=v)
    with pytest.raises(UnsupportedMode):
        df_intersection(v, flag, 1)


def test_positive_dimensional_support_is_rejected():
    v = projective_space(2, 2)
    flag = flag_of([[(1, 0)]], 2)
    assert flag.support != "point"
    with pytest.raises(UnsupportedMode):
        df_intersection(v, flag, 1)


# ---------------------------------------------------------------------------
# structural positivity

def test_discrepancy_term_is_never_negative():
    rng = random.Random(7)
    varieties = [projective_space(1, 2), projective_space(2, 2), box((1, 2))]
    for _ in range(20):
        v = rng.choice(varieties)
        n = v.dim
        b = tuple(rng.randint(0, 2) for _ in range(n))
        if all(x == 0 for x in b):
            b = (1,) * n
        a = tuple(x + rng.randint(0, 1) for x in b)
        gens_b = [b] + [tuple(reversed(b))]
        gens_a = [a] + [tuple(reversed(a))]
        # top up with pure powers so the cosupport is a point
        d = max(sum(a), sum(b), 1)
        for i in range(n):
            axis = tuple(d if j == i else 0 for j in range(n))
            gens_a.append(axis)
            gens_b.append(axis)
        flag = flag_of([gens_a, gens_b], n)
        deco = df_intersection(v, flag, d)
        assert deco.t3 >= 0
        for ray in deco.rays:
            assert ray.discrepancy >= 1
            assert ray.face_degree >= 0
            assert ray.order >= 1


# ---------------------------------------------------------------------------
# serialization

def test_decomposition_json_shape():
    v = projective_space(1, 2)
    deco = df_intersection(v, flag_of([[(2,)]], 1), 1)
    doc = deco.to_json_dict()
    assert doc == {
        "T1": "-4",
        "T2": "0",
        "T3": "8",
        "DF": "1",
        "LE_power": "-2",
        "rays": [{"w": [1, 2], "ord": 2, "a": 2, "face_degree": 1}],
        "r": 1,
    }
