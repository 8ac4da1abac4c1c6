"""Polytope validation, lattice point counts, and intersection numbers."""

import gc
from math import factorial
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from dflab import (
    InconsistentVertices,
    InvalidInput,
    NonLatticeVertex,
    NonUnimodularChartVertex,
    NotFullDimensional,
    PointOutsidePolytope,
    box,
    hirzebruch_anticanonical,
    make_variety,
    projective_space,
)
from dflab.errors import as_integer
from dflab.hull import extreme_points, volume_of_points
from dflab.intlinalg import dot
from dflab.lattice_geometry import (
    Fibres,
    _intersection_numbers,
    fibres,
)


def test_segment_descriptor():
    v = projective_space(1, 3)
    assert v.polytope.vertices == ((0,), (3,))
    assert v.chart_vertex == (0,)
    assert v.smooth


def test_scaled_simplex_descriptor():
    v = make_variety([(0, 0), (2, 0), (0, 2)], (0, 0))
    assert v.polytope.dim == 2
    assert v.smooth
    assert set(v.polytope.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        make_variety([(0, 0), (1, 1), (2, 2)])


def test_non_lattice_vertex():
    from fractions import Fraction
    with pytest.raises(NonLatticeVertex):
        make_variety([(0, 0), (1, 0), (0, Fraction(1, 2))])


def test_point_on_edge_rejected():
    # (1,0) sits on the edge from (0,0) to (2,0)
    with pytest.raises(InconsistentVertices):
        make_variety([(0, 0), (2, 0), (1, 0), (0, 2)])


def test_singular_chart_rejected():
    with pytest.raises(NonUnimodularChartVertex):
        make_variety([(0, 0), (2, 1), (1, 2)])


def test_chart_vertex_must_be_vertex():
    with pytest.raises(InvalidInput):
        make_variety([(0, 0), (1, 0), (0, 1)], (5, 5))


def test_quadrilateral_with_singular_far_vertex():
    # all four points are extreme and the chart at the origin is smooth,
    # so the input is accepted; the vertex (2,2) is singular, so the
    # global smoothness flag must be off
    v = make_variety([(0, 0), (2, 0), (0, 1), (2, 2)])
    assert v.chart_vertex == (0, 0)
    assert not v.smooth


def test_square_pyramid_apex_lies_on_four_facets():
    # the base vertices are smooth, but the apex lies on four facets, so
    # no three of its facet normals frame it
    pyramid = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    v = make_variety(pyramid)
    assert v.chart_vertex == (0, 0, 0)
    assert v.smooth is False
    with pytest.raises(NonUnimodularChartVertex):
        make_variety(pyramid, (0, 0, 1))


def test_ehrhart_counts():
    assert projective_space(2, 2).ehrhart_count(1) == 6
    assert projective_space(1, 2).ehrhart_count(3) == 7
    assert projective_space(2, 1).ehrhart_count(0) == 1


@pytest.mark.parametrize("k", range(0, 5))
def test_ehrhart_matches_oracle_scan_simplex(k):
    v = projective_space(2, 2)
    assert v.ehrhart_count(k) == len(oracles.simplex_points(2, 2, k))
    assert sorted(v.lattice_points(k)) == sorted(oracles.simplex_points(2, 2, k))


@pytest.mark.parametrize("k", range(0, 5))
def test_ehrhart_matches_oracle_scan_box(k):
    v = box((1, 2))
    assert v.ehrhart_count(k) == len(oracles.box_points((1, 2), k))


@pytest.mark.parametrize("k", range(1, 5))
def test_ehrhart_matches_oracle_scan_f1(k):
    v = hirzebruch_anticanonical()
    assert sorted(v.lattice_points(k)) == sorted(oracles.f1_points(k))


# lattice_points walks the box over the first n-1 coordinates and reads
# each fibre's interval of the last coordinate off the facets; filtering the
# whole box through every facet is the reference, order included.

def box_filter(poly, k):
    axes = [range(min(v[i] for v in poly.vertices) * k,
                  max(v[i] for v in poly.vertices) * k + 1)
            for i in range(poly.dim)]
    return [u for u in product(*axes)
            if all(dot(a, u) >= k * c for a, c in poly.facets)]


def variety_of(points):
    """make_variety on the hull vertices of points, charted at the first
    vertex it accepts; None when it accepts none."""
    verts = extreme_points(sorted(set(points)))
    for chart in verts:
        try:
            return make_variety(verts, chart)
        except NonUnimodularChartVertex:
            continue
        except InvalidInput:
            return None
    return None


def polytope_of(points):
    v = variety_of(points)
    return None if v is None else v.polytope


# a facet with last normal entry 0 passes or empties a whole fibre
FLAT_FACETS = [
    [(0, 0), (2, 0), (0, 1), (2, 2)],
    [(0, 0), (1, 0), (3, 2), (0, 2)],
    [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 3), (2, 0, 3), (0, 1, 3)],
]


def point_sets(n):
    # in R^3 small coordinates keep some vertex smooth often enough
    coord = st.integers(0, 2) if n == 3 else st.integers(-3, 3)
    return st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(point_sets))
@example(FLAT_FACETS[0])
@example(FLAT_FACETS[1])
@example(FLAT_FACETS[2])
def test_lattice_points_match_box_filter(points):
    v = variety_of(points)
    assume(v is not None)
    for k in range(5):
        assert v.lattice_points(k) == box_filter(v.polytope, k)


def test_flat_facet_examples_have_a_flat_facet():
    for points in FLAT_FACETS:
        poly = polytope_of(points)
        assert any(a[-1] == 0 for a, c in poly.facets)


# fibres lists kP as columns of prefixes, lo and hi with no empty fibre;
# expanded, it must be the prefix walk of oracles.prefix_walk_points, order
# included.  The FLAT_FACETS have facets with last normal entry 0; the
# triangle has none, but bounds the last coordinate from below and from
# above and has no lattice point over the prefixes 0 and 1.
EMPTY_FIBRE = [(-2, 1), (-1, 1), (2, 0)]
# box (1, 1, 1, 1): its prefixes run over three axes
BOX_4 = list(product((0, 1), repeat=4))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(point_sets))
@example(FLAT_FACETS[0])
@example(FLAT_FACETS[1])
@example(FLAT_FACETS[2])
@example(EMPTY_FIBRE)
@example(BOX_4)
def test_fibres_match_the_prefix_walk(points):
    v = variety_of(points)
    assume(v is not None)
    for k in range(5):
        want = oracles.prefix_walk_points(v.polytope, k)
        fib = fibres(v.polytope, k)
        assert all(lo <= hi for lo, hi in zip(fib.los, fib.his))
        # lattice_points expands the fibres
        assert v.lattice_points(k) == want
        assert v.ehrhart_count(k) == len(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(point_sets))
@example(FLAT_FACETS[2])
def test_ehrhart_count_is_the_polynomial_of_the_counts(points):
    # ehrhart_count evaluates the polynomial through the counts of 0P..nP
    v = variety_of(points)
    assume(v is not None)
    for k in range(13):
        assert v.ehrhart_count(k) == v.dilate_fibres(k).count


def test_empty_fibre_example_skips_a_prefix():
    poly = polytope_of(EMPTY_FIBRE)
    signs = {(a[-1] > 0) - (a[-1] < 0) for a, c in poly.facets}
    assert signs == {-1, 1}
    # over x = 0 and x = 1 the triangle runs from y = (2 - x) / 4 to
    # (2 - x) / 3, past no integer
    assert fibres(poly, 1) == Fibres(([-2, -1, 2],), [1, 1, 0], [1, 1, 0], 3)


def test_lattice_points_leave_no_reference_cycles():
    # a cycle would keep the whole bounding box alive until the cyclic
    # collector happens to run
    v = hirzebruch_anticanonical()
    gc.collect()
    gc.disable()
    try:
        assert len(v.lattice_points(30)) == v.ehrhart_count(30)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_intersection_numbers():
    assert projective_space(2, 2).intersection_numbers() == (4, -6)
    assert projective_space(1, 1).intersection_numbers() == (1, -2)
    for d in (1, 2, 3):
        assert projective_space(1, d).intersection_numbers() == (d, -2)
    assert box((1, 1)).intersection_numbers() == (2, -4)
    assert hirzebruch_anticanonical().intersection_numbers() == (8, -8)
    assert projective_space(3, 1).intersection_numbers() == (1, -4)


def test_intersection_numbers_of_the_unit_5_cube():
    # the facets of 32 vertices in R^5, and the facet sum of lattice
    # volumes that recurses through R^4: L^5 = 5! and L^4.K = -2 * 5!
    assert box([1] * 5).numbers == (120, -240)


# the intersection numbers are facet sums of lattice volumes; the reference
# triangulates P for L^n and each facet's projection for its lattice volume

def reference_intersection_numbers(poly):
    n = poly.dim
    if n == 1:
        return poly.vertices[-1][0] - poly.vertices[0][0], -2
    boundary = 0
    for a, c in poly.facets:
        i = max(j for j in range(n) if a[j] != 0)
        flat = [v[:i] + v[i + 1:] for v in poly.vertices if dot(a, v) == c]
        boundary += volume_of_points(flat, n - 1) * factorial(n - 1) \
            / abs(a[i])
    return volume_of_points(list(poly.vertices), n) * factorial(n), -boundary


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(point_sets))
@example(FLAT_FACETS[2])
def test_intersection_numbers_match_triangulation(points):
    poly = polytope_of(points)
    assume(poly is not None)
    assert _intersection_numbers(poly) == reference_intersection_numbers(poly)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(point_sets))
def test_chart_normals_invert_the_edge_matrix(points):
    # the chart facets are read from the tight facets, not by inverting the
    # edge matrix; each one's normal must still be dual to one edge direction
    poly = polytope_of(points)
    assume(poly is not None)
    for v in poly.vertices:
        try:
            var = make_variety(poly.vertices, v)
        except NonUnimodularChartVertex:
            continue
        rows = [poly.facets[i][0] for i in var.chart_facets]
        assert [[dot(row, e) for e in var.edge_directions]
                for row in rows] == \
            [[int(i == j) for j in range(poly.dim)] for i in range(poly.dim)]
        assert all(row in [a for a, c in poly.facets if dot(a, v) == c]
                   for row in rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(point_sets))
@example(FLAT_FACETS[0])
@example(FLAT_FACETS[2])
def test_incidence_matches_a_scan_at_every_vertex(points):
    # smooth, maximal_charts() and the edge frame read the vertex-facet
    # incidence that make_variety keeps; the reference scans every vertex
    # against every facet and inverts the tight normals.  The same scan
    # gives each facet's width, the largest <a, v> - c over the vertices
    var = variety_of(points)
    assume(var is not None)
    poly = var.polytope
    scan = tuple(tuple(i for i, (a, c) in enumerate(poly.facets)
                       if dot(a, v) == c) for v in poly.vertices)
    assert var.maximal_charts() == scan
    assert poly.widths == tuple(max(dot(a, v) - c for v in poly.vertices)
                                for a, c in poly.facets)
    normals = [[poly.facets[i][0] for i in on] for on in scan]
    smooth = [len(t) == poly.dim and abs(oracles.det(t)) == 1
              for t in normals]
    assert var.smooth == all(smooth)
    for v, on, tight, ok in zip(poly.vertices, scan, normals, smooth):
        if not ok:
            with pytest.raises(NonUnimodularChartVertex):
                make_variety(poly.vertices, v)
            continue
        at = make_variety(poly.vertices, v)
        frame = sorted(zip(zip(*oracles.inverse(tight)), on), reverse=True)
        assert at.edge_directions == tuple(e for e, _ in frame)
        assert at.chart_facets == tuple(i for _, i in frame)


def test_edge_steps_are_divided_by_their_gcd():
    # every edge of P^2(3) runs 3 lattice steps to the next vertex, and
    # the frame holds its primitive generator
    v = projective_space(2, 3)
    assert v.edge_directions == ((1, 0), (0, 1))
    far = make_variety(v.polytope.vertices, (3, 0))
    assert far.edge_directions == ((-1, 1), (-1, 0))
    assert tuple(far.polytope.facets[i][0] for i in far.chart_facets) == \
        ((0, 1), (-1, -1))
    assert far.chart_coords((0, 3), 1) == (3, 0)


def test_mixed_dimension_vertices_rejected():
    with pytest.raises(InvalidInput, match="mixed dimension"):
        make_variety([(0, 0), (1, 0), (0, 1, 1)])


def test_chart_coords_identity_chart():
    v = projective_space(2, 2)
    assert v.chart_coords((1, 1), 1) == (1, 1)
    assert v.chart_coords((3, 1), 2) == (3, 1)


def test_chart_coords_opposite_chart():
    # chart at the far end of the segment [0,2]; the frame flips sign
    v = make_variety([(0,), (2,)], (2,))
    assert v.chart_coords((2,), 1) == (0,)
    assert v.chart_coords((0,), 1) == (2,)
    assert v.chart_coords((3,), 2) == (1,)


def test_chart_coords_outside_cone():
    v = projective_space(1, 2)
    with pytest.raises(PointOutsidePolytope):
        v.chart_coords((-1,), 1)


def test_point_from_chart_round_trip():
    v = hirzebruch_anticanonical()
    for k in (1, 2):
        for u in v.lattice_points(k):
            y = v.chart_coords(u, k)
            assert v.point_from_chart(y, k) == u


def test_cox_exponents_sign_detects_membership():
    v = hirzebruch_anticanonical()
    inside = set(v.lattice_points(1))
    for x in range(-1, 5):
        for y in range(-1, 4):
            # the per-facet exponents of the degree-1 monomial at (x, y)
            e = [dot(a, (x, y)) - c for a, c in v.polytope.facets]
            assert (min(e) >= 0) == ((x, y) in inside)


def test_maximal_charts_have_dim_many_facets_when_smooth():
    v = hirzebruch_anticanonical()
    for chart in v.maximal_charts():
        assert len(chart) == 2


def test_chart_facets_bijection():
    v = hirzebruch_anticanonical()
    idx = v.chart_facets
    assert len(set(idx)) == v.dim
    # each listed facet is tight at the chart vertex
    for i in idx:
        a, c = v.polytope.facets[i]
        assert sum(x * y for x, y in zip(a, v.chart_vertex)) == c


UNIMODULAR = [
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((2, 1), (1, 1)),
    ((1, 2), (1, 3)),
]


@pytest.mark.parametrize("mat", UNIMODULAR)
def test_lattice_transform_preserves_counts(mat):
    """A lattice symmetry changes coordinates, not section counts."""
    base = [(0, 0), (1, 0), (3, 2), (0, 2)]

    def apply(p):
        return (mat[0][0] * p[0] + mat[0][1] * p[1],
                mat[1][0] * p[0] + mat[1][1] * p[1])

    v1 = make_variety(base, (0, 0))
    v2 = make_variety([apply(p) for p in base], apply((0, 0)))
    for k in (1, 2, 3):
        assert v1.ehrhart_count(k) == v2.ehrhart_count(k)
    assert v1.intersection_numbers() == v2.intersection_numbers()
    # chart coordinates are intrinsic up to the permutation induced on
    # the edge frame by the transform
    perm = [v2.edge_directions.index(apply(d)) for d in v1.edge_directions]
    assert sorted(perm) == list(range(v1.dim))
    for k in (1, 2):
        for u in v1.lattice_points(k):
            y1 = v1.chart_coords(u, k)
            y2 = v2.chart_coords(apply(u), k)
            assert all(y2[perm[i]] == y1[i] for i in range(v1.dim))


def test_preset_input_validation():
    with pytest.raises(InvalidInput):
        projective_space(0, 1)
    with pytest.raises(InvalidInput):
        projective_space(1, 0)
    with pytest.raises(InvalidInput):
        box((1, 0))
    with pytest.raises(InvalidInput):
        box(())


@pytest.mark.parametrize("build", [
    lambda: as_integer(True, "r"),
    lambda: make_variety([(0, 0), (True, 0), (0, True)]),
    lambda: make_variety([(0, 0), (1, 0), (0, 1)], (False, 0)),
    lambda: make_variety([(0, 0), (1, 0), (0, 1)], (0.5, 0)),
    lambda: box([1.5, 1]),
    lambda: box([True, 1]),
    lambda: projective_space(True, 1),
    lambda: projective_space(2, 1.5),
], ids=["as_integer", "vertex", "chart_vertex", "chart_vertex_fraction",
        "box_fraction", "box_bool", "projective_space_bool",
        "projective_space_fraction"])
def test_booleans_and_fractions_are_not_integers(build):
    # True == 1 and int(1.5) == 1, so an int() round trip would let both
    # through as the unit they are mistaken for
    with pytest.raises(InvalidInput):
        build()
