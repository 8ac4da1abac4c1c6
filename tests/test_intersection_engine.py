"""Tests for the closed intersection-number pipeline."""

import random
from fractions import Fraction

import pytest

from dflab.errors import ExponentTooSmall, UnsupportedMode
from dflab.hull import volume_of_points
from dflab.intersection_engine import (
    df_intersection,
    exceptional_data,
    face_degree,
    lower_hull_integral,
)
from dflab.lattice_geometry import (
    box,
    hirzebruch_anticanonical,
    projective_space,
)
from dflab.monomial_algebra import MonomialIdeal, validate_flag_ideal


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


# ---------------------------------------------------------------------------
# exceptional rays

def test_exceptional_data_two_facets():
    # (x^3) + (x) t + (t^2) has a broken lower hull with two facets
    flag = flag_of([[(3,)], [(1,)]], 1)
    _, rays = exceptional_data(flag)
    facts = sorted((w, order, disc, tuple(sorted(f.vertices)))
                   for f, w, order, disc in rays)
    assert facts == [
        ((1, 1), 2, 1, ((0, 2), (1, 1))),
        ((1, 2), 3, 2, ((1, 1), (3, 0))),
    ]


def test_face_degree_pins():
    flag = flag_of([[(2,)]], 1)
    _, rays = exceptional_data(flag)
    assert [face_degree(flag, f) for f, *_ in rays] == [1]

    flag = flag_of([[(2, 0), (1, 1), (0, 2)]], 2)
    _, rays = exceptional_data(flag)
    assert [face_degree(flag, f) for f, *_ in rays] == [2]

    flag = flag_of([[(3,)], [(1,)]], 1)
    _, rays = exceptional_data(flag)
    degs = {f.normal: face_degree(flag, f) for f, *_ in rays}
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
