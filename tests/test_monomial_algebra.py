"""Ideal arithmetic, flag validation, level functions, Newton polyhedra."""

import importlib
import pkgutil
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import dflab
import dflab.monomial_algebra as ma
from dflab import (
    ChainViolation,
    FlagIdeal,
    InvalidInput,
    MonomialIdeal,
    NonPositiveExceptionalRay,
    PointOutsidePolytope,
    UnsupportedMode,
    box,
    cox_lift,
    hirzebruch_anticanonical,
    newton_polyhedron,
    projective_space,
    validate_flag_ideal,
)
from dflab.hull import extreme_points, facets_of_points, point_in_convex_hull
from dflab.monomial_algebra import minimalize, phi_value, t_degree


def ideal(nvars, *gens):
    return MonomialIdeal.make(nvars, gens)


def chart_flag(*ideals):
    return validate_flag_ideal(list(ideals))


# ---------------------------------------------------------------------------
# minimal generators

def test_minimalize_drops_dominated():
    assert minimalize([(2, 0), (2, 1), (0, 1)]) == ((0, 1), (2, 0))


def test_minimalize_keeps_unit_alone():
    assert minimalize([(0, 0), (1, 0), (3, 2)]) == ((0, 0),)


exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(st.lists(exponents, min_size=1, max_size=8))
def test_minimalize_is_an_antichain_and_idempotent(gens):
    out = minimalize(gens)
    assert minimalize(out) == out
    for a in out:
        for b in out:
            if a != b:
                assert not all(x >= y for x, y in zip(a, b))


@given(st.lists(exponents, min_size=1, max_size=8))
def test_minimalize_preserves_membership(gens):
    before = MonomialIdeal(2, tuple(sorted(set(gens))))
    after = MonomialIdeal(2, minimalize(gens))
    for x in range(6):
        for y in range(6):
            assert before.contains((x, y)) == after.contains((x, y))


# ---------------------------------------------------------------------------
# ideal arithmetic

def test_make_rejects_bad_generators():
    with pytest.raises(InvalidInput):
        MonomialIdeal.make(2, [(1,)])
    with pytest.raises(InvalidInput):
        MonomialIdeal.make(2, [(-1, 0)])
    with pytest.raises(InvalidInput, match="not a list"):
        MonomialIdeal.make(2, [5])


def test_zero_and_unit():
    z = MonomialIdeal.zero(2)
    u = MonomialIdeal.unit(2)
    assert z.is_zero and not z.is_unit
    assert u.is_unit and not u.is_zero
    assert u.includes(z) and u.includes(u)
    assert not z.includes(u)


def test_product_and_sum():
    a = ideal(2, (2, 0), (0, 2))
    b = ideal(2, (1, 0))
    assert a.product(b).gens == ((1, 2), (3, 0))
    assert a.sum(b).gens == ((1, 0), (0, 2))
    assert a.product(MonomialIdeal.zero(2)).is_zero


def test_contains_on_inverts_other_variables():
    a = ideal(3, (0, 2, 1))
    assert not a.contains((5, 1, 5))
    assert a.contains_on((5, 1, 5), (0, 2))  # variable 1 inverted away


# ---------------------------------------------------------------------------
# validation and normal form

def test_validate_strips_leading_zero_ideals():
    flag = validate_flag_ideal([MonomialIdeal.zero(1), ideal(1, (1,))])
    assert flag.t_power == 1
    assert flag.big_n == 1
    assert flag.chain[0].gens == ((1,),)


def test_validate_accepts_increasing_chain():
    flag = chart_flag(ideal(1, (2,)), ideal(1, (1,)))
    assert flag.big_n == 2
    assert flag.support == "point"


def test_validate_rejects_decreasing_chain():
    with pytest.raises(ChainViolation):
        chart_flag(ideal(1, (1,)), ideal(1, (2,)))


def test_validate_absorbs_trailing_units():
    flag = chart_flag(ideal(1, (2,)), MonomialIdeal.unit(1))
    assert flag.big_n == 1


def test_trivial_routes():
    # a pure power of t and an everywhere-unit chain are both trivial
    assert validate_flag_ideal([MonomialIdeal.zero(2)]).trivial
    assert validate_flag_ideal([MonomialIdeal.unit(2)]).trivial
    flag = validate_flag_ideal(
        [MonomialIdeal.zero(2), MonomialIdeal.zero(2), MonomialIdeal.unit(2)])
    assert flag.trivial and flag.t_power == 2


def test_validate_input_errors():
    with pytest.raises(InvalidInput):
        validate_flag_ideal([])
    with pytest.raises(InvalidInput):
        validate_flag_ideal([ideal(1, (1,)), ideal(2, (1, 0))])
    with pytest.raises(InvalidInput):
        validate_flag_ideal([ideal(2, (1, 0))], mode="cox")
    with pytest.raises(InvalidInput):
        validate_flag_ideal([ideal(1, (1,))], mode="nonsense")
    # F1 has four facets, so a cox chain needs four variables
    with pytest.raises(InvalidInput, match="one variable per facet"):
        validate_flag_ideal([ideal(3, (1, 0, 0))], mode="cox",
                            variety=hirzebruch_anticanonical())


def test_support_classification():
    assert chart_flag(ideal(2, (1, 0), (0, 1))).support == "point"
    assert chart_flag(ideal(2, (1, 0))).support == "general"


def test_cox_chain_check_is_per_chart():
    v = hirzebruch_anticanonical()
    nf = len(v.polytope.facets)
    exc = v.polytope.facets.index(((0, 1), 0))

    def covar(e, *pairs):
        g = [0] * nf
        for i, x in pairs:
            g[i] = x
        return tuple(g)

    small = MonomialIdeal.make(nf, [covar(0, (exc, 2))])
    large = MonomialIdeal.make(nf, [covar(0, (exc, 1))])
    flag = validate_flag_ideal([small, large], mode="cox", variety=v)
    # the curve is positive-dimensional, so the support stays general
    assert flag.big_n == 2 and flag.support == "general"
    with pytest.raises(ChainViolation):
        validate_flag_ideal([large, small], mode="cox", variety=v)


# ---------------------------------------------------------------------------
# levels

def test_t_degree_examples():
    v1 = projective_space(1, 1)
    f1 = chart_flag(ideal(1, (1,)))
    assert t_degree(v1, f1, 1, 3, (1,)) == 2

    v2 = projective_space(1, 2)
    f2 = chart_flag(ideal(1, (2,)))
    assert t_degree(v2, f2, 1, 2, (3,)) == 1


@pytest.mark.parametrize("gens,r", [
    ([[(2,)]], 1),
    ([[(2,)]], 2),
    ([[(3,)], [(1,)]], 1),
])
def test_t_degree_matches_expansion_oracle_dim1(gens, r):
    v = projective_space(1, 3)
    chain = [ideal(1, *g) for g in gens]
    flag = validate_flag_ideal(chain)
    for k in (1, 2, 3, 4):
        pg = oracles.power_gens([list(g) for g in gens], len(gens), k)
        for u in v.lattice_points(k * r):
            assert t_degree(v, flag, r, k, u) == oracles.level_chart(pg, u)


@pytest.mark.parametrize("gens", [
    [[(2, 0), (1, 1), (0, 2)]],
    [[(2, 0), (0, 1)]],
    [[(2, 0), (1, 1), (0, 2)], [(1, 0), (0, 1)]],
])
def test_t_degree_matches_expansion_oracle_dim2(gens):
    v = projective_space(2, 2)
    flag = validate_flag_ideal([ideal(2, *g) for g in gens])
    for k in (1, 2, 3):
        pg = oracles.power_gens([list(g) for g in gens], len(gens), k)
        for u in v.lattice_points(k):
            assert t_degree(v, flag, 1, k, u) == oracles.level_chart(pg, u)


def test_t_degree_cox_matches_oracle_on_f1():
    v = hirzebruch_anticanonical()
    nf = len(v.polytope.facets)
    exc = v.polytope.facets.index(((0, 1), 0))
    gen = tuple(1 if i == exc else 0 for i in range(nf))
    flag = validate_flag_ideal(
        [MonomialIdeal.make(nf, [gen])], mode="cox", variety=v)
    # oracle puts the same curve variable in its own facet order
    ogen = [0, 1, 0, 0]
    for k in (1, 2, 3):
        pg = oracles.power_gens([[ogen]], 1, k)
        for u in v.lattice_points(k):
            want = oracles.level_cox(
                pg, oracles.f1_cox_exponents(u, k), oracles.F1_CHARTS)
            assert t_degree(v, flag, 1, k, u) == want


def test_t_degree_unsupported_modes():
    v = projective_space(2, 1)
    general = chart_flag(ideal(2, (1, 0)))
    with pytest.raises(UnsupportedMode, match="chart-mode counting needs "
                       "ideals supported at the chart point"):
        t_degree(v, general, 1, 1, (0, 0))
    # cox counting needs global smoothness
    vq = __import__("dflab").make_variety([(0, 0), (2, 0), (0, 1), (2, 2)])
    nf = len(vq.polytope.facets)
    cflag = validate_flag_ideal(
        [MonomialIdeal.make(nf, [tuple(1 for _ in range(nf))])],
        mode="cox", variety=vq)
    with pytest.raises(UnsupportedMode,
                       match="cox-mode counting needs a smooth polytope"):
        t_degree(vq, cflag, 1, 1, (0, 0))


def test_trivial_t_degree_is_zero():
    v = projective_space(1, 1)
    t = validate_flag_ideal([MonomialIdeal.zero(1)])
    assert t_degree(v, t, 1, 4, (2,)) == 0


def test_t_degree_rejects_points_off_the_dilate():
    # (3, 0) is in the chart cone of P^2 but not in 2P, where the flat
    # level table has no cell for it
    v = projective_space(2, 1)
    flag = chart_flag(ideal(2, (1, 0), (0, 1)))
    assert [t_degree(v, flag, 1, 2, (x, 0)) for x in (0, 1, 2)] == [2, 1, 0]
    for u in ((3, 0), (-1, 0), (2, 1)):
        with pytest.raises(PointOutsidePolytope):
            t_degree(v, flag, 1, 2, u)
    with pytest.raises(PointOutsidePolytope):
        t_degree(v, validate_flag_ideal([MonomialIdeal.zero(2)]), 1, 2, (3, 0))
    f1 = hirzebruch_anticanonical()
    with pytest.raises(PointOutsidePolytope):
        t_degree(f1, cox_lift(f1, chart_flag(ideal(2, (1, 0), (0, 1)))),
                 1, 1, (3, 1))


# ---------------------------------------------------------------------------
# Newton polyhedron and its support function

def test_newton_polyhedron_principal_degree_two():
    np_ = newton_polyhedron(chart_flag(ideal(1, (2,))))
    assert len(np_.facets) == 1
    f = np_.facets[0]
    assert f.normal == (1, 2)
    assert f.order == 2
    assert set(extreme_points(f.points)) == {(2, 0), (0, 1)}


def test_newton_polyhedron_max_ideal_squared():
    np_ = newton_polyhedron(chart_flag(ideal(2, (2, 0), (1, 1), (0, 2))))
    assert len(np_.facets) == 1
    f = np_.facets[0]
    assert f.normal == (1, 1, 2)
    assert f.order == 2
    # xy lies on the facet without being one of its vertices
    assert f.points == ((0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))
    assert set(extreme_points(f.points)) == {(2, 0, 0), (0, 2, 0), (0, 0, 1)}


def test_newton_polyhedron_smooth_blowup():
    np_ = newton_polyhedron(chart_flag(ideal(1, (1,))))
    assert [(f.normal, f.order) for f in np_.facets] == [((1, 1), 1)]


def test_newton_polyhedron_two_facets():
    np_ = newton_polyhedron(chart_flag(ideal(1, (3,)), ideal(1, (1,))))
    data = sorted((f.normal, f.order, set(extreme_points(f.points)))
                  for f in np_.facets)
    assert data == [
        ((1, 1), 2, {(1, 1), (0, 2)}),
        ((1, 2), 3, {(3, 0), (1, 1)}),
    ]


def test_newton_polyhedron_mode_guards():
    v = hirzebruch_anticanonical()
    nf = len(v.polytope.facets)
    cflag = validate_flag_ideal(
        [MonomialIdeal.make(nf, [tuple(1 for _ in range(nf))])],
        mode="cox", variety=v)
    with pytest.raises(UnsupportedMode):
        newton_polyhedron(cflag)
    with pytest.raises(NonPositiveExceptionalRay):
        newton_polyhedron(chart_flag(ideal(2, (1, 0))))
    trivial = validate_flag_ideal([MonomialIdeal.zero(2)])
    assert newton_polyhedron(trivial).facets == ()


def test_flag_keeps_its_polyhedron(monkeypatch):
    calls = []
    build = ma.newton_polyhedron

    def counted(flag):
        calls.append(flag)
        return build(flag)

    monkeypatch.setattr(ma, "newton_polyhedron", counted)
    flag = chart_flag(ideal(2, (2, 0), (1, 1), (0, 2)))
    assert flag.polyhedron is flag.polyhedron
    assert flag.polyhedron == build(flag)
    # an equal flag is another object and builds its own
    assert chart_flag(ideal(2, (2, 0), (1, 1), (0, 2))).polyhedron.facets
    assert len(calls) == 2


def test_no_module_holds_mutable_state():
    # caches live on the objects they derive from, not in module globals
    for info in pkgutil.iter_modules(dflab.__path__):
        mod = importlib.import_module("dflab." + info.name)
        for name, value in vars(mod).items():
            if not (name.startswith("__") and name.endswith("__")):
                assert not isinstance(value, (dict, list, set)), \
                    "%s.%s" % (info.name, name)


def test_phi_values():
    np1 = newton_polyhedron(chart_flag(ideal(1, (2,))))
    assert phi_value(np1, (1,)) == Fraction(1, 2)
    assert phi_value(np1, (5,)) == 0
    np2 = newton_polyhedron(chart_flag(ideal(2, (2, 0), (1, 1), (0, 2))))
    assert phi_value(np2, (0, 0)) == 1
    with pytest.raises(InvalidInput):
        phi_value(np1, (-1,))


@given(st.tuples(st.fractions(0, 4), st.fractions(0, 4)),
       st.tuples(st.fractions(0, 4), st.fractions(0, 4)))
@settings(max_examples=60)
def test_phi_is_convex(x, y):
    np_ = newton_polyhedron(chart_flag(
        ideal(2, (3, 0), (1, 1), (0, 2)), ideal(2, (1, 0), (0, 1))))
    mid = tuple((a + b) / 2 for a, b in zip(x, y))
    assert phi_value(np_, mid) * 2 <= phi_value(np_, x) + phi_value(np_, y)


def test_newton_polyhedron_respects_symmetry():
    a = newton_polyhedron(chart_flag(ideal(2, (3, 0), (0, 2))))
    b = newton_polyhedron(chart_flag(ideal(2, (2, 0), (0, 3))))
    swap = sorted((f.normal[1], f.normal[0], f.normal[2]) for f in a.facets)
    assert swap == sorted(f.normal for f in b.facets)


# (x^3, xy^3, y^6) = (x, y^3)(x^2, y^3) inside (x^2, y^3): the support
# point (2, 0, 1) of x^2 t lies above the midpoint of x^3 and t^2
P2_PRODUCT_CHAIN = ((3, 0), (1, 3), (0, 6)), ((2, 0), (0, 3))


@st.composite
def point_flags(draw):
    """Chart flags in n = 1..3 variables, each ideal holding a pure power
    on every axis, so the flag is point-supported: one ideal B, a chain
    B inside B + (more generators), or a product chain A.B inside B, whose
    support has points above the lower hull; with pure powers alone the
    support spans a single hyperplane."""
    n = draw(st.integers(1, 3))

    def powers():
        return [tuple(draw(st.integers(1, 4)) * int(j == i)
                      for j in range(n)) for i in range(n)]

    low = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    chain = [powers() + draw(st.lists(low, max_size=3))]
    shape = draw(st.sampled_from(("one", "grown", "product")))
    if shape == "grown":
        chain.append(chain[0] + draw(st.lists(low, min_size=1, max_size=2)))
    ideals = [MonomialIdeal.make(n, gens) for gens in chain]
    if shape == "product":
        a = MonomialIdeal.make(n, powers() + draw(st.lists(low, max_size=1)))
        ideals.insert(0, a.product(ideals[0]))
    return chart_flag(*ideals)


@settings(max_examples=100, deadline=None)
@given(point_flags())
@example(chart_flag(*(ideal(2, *gens) for gens in P2_PRODUCT_CHAIN)))
def test_newton_polyhedron_keeps_the_strictly_positive_facets(flag):
    # the compact facets are the support's facets with a strictly positive
    # normal, holding the support points on them, and their vertices are
    # the points on them outside the hull of the others
    pts = {g + (j,) for j, i in enumerate(flag.chain) for g in i.gens}
    pts.add((0,) * flag.nvars + (flag.big_n,))
    want = oracles.facets_of_points(sorted(pts), True)
    got = newton_polyhedron(flag).facets
    assert [(f.normal, f.order) for f in got] == [(w, c) for w, c, _ in want]
    for f, (_, _, on) in zip(got, want):
        assert f.points == on
        assert extreme_points(f.points) == list(
            p for i, p in enumerate(on)
            if not point_in_convex_hull(p, on[:i] + on[i + 1:]))


def test_newton_polyhedron_searches_only_lower_points(monkeypatch):
    searched = []

    def recorded(points):
        searched.append(list(points))
        return facets_of_points(points)

    monkeypatch.setattr(ma, "facets_of_points", recorded)
    flag = chart_flag(*(ideal(2, *gens) for gens in P2_PRODUCT_CHAIN))
    facets = newton_polyhedron(flag).facets
    # of the 6 support points, (2, 0, 1) is left out: twice it is
    # (4, 0, 2) >= (3, 0, 0) + (0, 0, 2), so it is above every compact face
    assert searched == [[(0, 0, 2), (0, 3, 1), (0, 6, 0), (1, 3, 0),
                         (3, 0, 0)]]
    # (0, 3, 1) is kept: twice it is (0, 6, 0) + (0, 0, 2) exactly, and
    # it lies on the compact facet with normal (3, 1, 3)
    on = {f.normal: f.points for f in facets}
    assert (0, 3, 1) in on[(3, 1, 3)]


# ---------------------------------------------------------------------------
# level function properties

# the stock varieties below have the identity chart at the origin, so
# t_degree reads the level at chart exponents equal to the point

SQUARE_5 = box((5, 5))
SQUARE_6 = box((6, 6))

small_chain = st.builds(
    lambda a, b, extra: [ideal(2, (a, 0), (0, b), *extra)],
    st.integers(1, 3), st.integers(1, 3),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2))


@given(small_chain, st.integers(1, 3), st.integers(1, 3),
       st.tuples(st.integers(0, 5), st.integers(0, 5)),
       st.tuples(st.integers(0, 5), st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_level_is_subadditive(chain, k1, k2, u1, u2):
    # kP of the square of side 5 holds every drawn point and their sum
    flag = validate_flag_ideal(chain)
    g1 = t_degree(SQUARE_5, flag, 1, k1, u1)
    g2 = t_degree(SQUARE_5, flag, 1, k2, u2)
    u = tuple(a + b for a, b in zip(u1, u2))
    assert t_degree(SQUARE_5, flag, 1, k1 + k2, u) <= g1 + g2


@given(small_chain, st.integers(1, 4),
       st.tuples(st.integers(0, 6), st.integers(0, 6)))
@settings(max_examples=60, deadline=None)
def test_level_bounds(chain, k, u):
    flag = validate_flag_ideal(chain)
    g = t_degree(SQUARE_6, flag, 1, k, u)
    assert 0 <= g <= k * flag.big_n
    np_ = newton_polyhedron(flag)
    lower = phi_value(np_, tuple(Fraction(t, k) for t in u)) * k
    assert g >= ceil(lower)


@pytest.mark.parametrize("chain", [
    [[(2,)]],
    [[(3,)], [(1,)]],
])
def test_level_converges_to_support_function(chain):
    flag = validate_flag_ideal([ideal(1, *g) for g in chain])
    np_ = newton_polyhedron(flag)
    v = projective_space(1, 3)   # kP = [0, 3k] holds k * u
    for u in ((1,), (2,), (3,)):
        target = phi_value(np_, u)
        for k in (4, 6, 8, 10):
            g = t_degree(v, flag, 1, k, tuple(k * t for t in u))
            gap = Fraction(g, k) - target
            assert 0 <= gap <= Fraction(2 * flag.big_n, k)


# ---------------------------------------------------------------------------
# chart to cox lift

def test_cox_lift_weight_agreement_f1():
    v = hirzebruch_anticanonical()
    flag = chart_flag(ideal(2, (2, 0), (0, 1)))
    lifted = cox_lift(v, flag)
    assert lifted.mode == "cox" and lifted.support == "point"
    for k in (1, 2, 3):
        for u in v.lattice_points(k):
            assert t_degree(v, flag, 1, k, u) == t_degree(v, lifted, 1, k, u)


def test_cox_lift_weight_agreement_p2():
    v = projective_space(2, 2)
    flag = chart_flag(ideal(2, (2, 0), (1, 1), (0, 2)), ideal(2, (1, 0), (0, 1)))
    lifted = cox_lift(v, flag)
    for k in (1, 2):
        for u in v.lattice_points(k):
            assert t_degree(v, flag, 1, k, u) == t_degree(v, lifted, 1, k, u)


LIFT_VARIETIES = [
    projective_space(1, 2),
    projective_space(2, 1),
    box((1, 2)),
    hirzebruch_anticanonical(),
    projective_space(3, 1),
]


@st.composite
def point_supported_chart_flags(draw):
    """A smooth stock variety and a point-supported chart flag on it: the
    first ideal holds a pure power of each variable and no unit, and later
    ones add generators, which may make a trailing unit ideal."""
    v = draw(st.sampled_from(LIFT_VARIETIES))
    n = v.dim
    gens = [tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(n))
            for i in range(n)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                          max_size=2))
    chain = [gens]
    for _ in range(draw(st.integers(0, 2))):
        gens = gens + draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                                    min_size=1, max_size=2))
        chain.append(gens)
    return v, validate_flag_ideal([ideal(n, *g) for g in chain])


# a chain with an unstripped zero level, as criterion 3 builds it: the
# lift keeps the level, which shifts the weights
UNSTRIPPED = FlagIdeal(
    nvars=2, mode="chart",
    chain=(MonomialIdeal.zero(2), ideal(2, (2, 0), (1, 1), (0, 2))),
    support="point", t_power=0)


@given(point_supported_chart_flags())
@settings(max_examples=60, deadline=None)
@example((projective_space(2, 2), UNSTRIPPED))
def test_cox_lift_keeps_support_and_chain_length(case):
    # one chart in chart mode, every maximal chart after the lift: the
    # lifted ideals are units away from the chart vertex
    v, flag = case
    assert flag.support == "point"
    lifted = cox_lift(v, flag)
    assert lifted.support == flag.support
    assert lifted.big_n == flag.big_n
    assert lifted.t_power == flag.t_power
    assert [i.is_zero for i in lifted.chain] == \
        [i.is_zero for i in flag.chain]


def test_cox_lift_requires_point_support():
    v = projective_space(2, 1)
    with pytest.raises(UnsupportedMode):
        cox_lift(v, chart_flag(ideal(2, (1, 0))))
    with pytest.raises(InvalidInput):
        cox_lift(v, cox_lift(v, chart_flag(ideal(2, (1, 0), (0, 1)))))
