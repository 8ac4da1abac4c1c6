"""Tests for the weight counting pipeline: fitting, pins, identities."""

from dataclasses import replace
from fractions import Fraction
from math import ceil, prod

import pytest

import oracles
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dflab.errors import (
    ConsistencyError,
    ExponentTooSmall,
    InvalidInput,
    NotStabilized,
    UnsupportedMode,
)
from dflab.lattice_geometry import (
    box,
    fibres,
    hirzebruch_anticanonical,
    make_variety,
    projective_space,
)
from dflab.monomial_algebra import (
    FlagIdeal,
    LevelStepper,
    MonomialIdeal,
    cox_lift,
    newton_polyhedron,
    phi_value,
    t_degree,
    validate_flag_ideal,
)
import dflab.lattice_geometry as lg
import dflab.monomial_algebra as ma
import dflab.weight_engine as we
from dflab.weight_engine import (
    DFReport,
    ExactPolynomial,
    FitOptions,
    chow_number,
    closure_weight_at,
    df_counting,
    df_from_fits,
    evaluate,
    fit_polynomial,
    hilbert_at,
    hilbert_polynomial,
    mabuchi_check,
    riemann_roch_holds,
    weight_at,
    weight_sequence,
)


def flag_of(gens_per_level, nvars, mode="chart", variety=None):
    ideals = [MonomialIdeal.make(nvars, gens) for gens in gens_per_level]
    return validate_flag_ideal(ideals, mode=mode, variety=variety)


# ---------------------------------------------------------------------------
# ExactPolynomial

def test_polynomial_evaluation_and_coefficients():
    p = ExactPolynomial((Fraction(1), Fraction(-2), Fraction(3)), k0=1)
    assert p(0) == 1
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert p.degree == 2
    assert p.coefficient(1) == -2
    # out-of-range coefficients read as zero, no exceptions
    assert p.coefficient(7) == 0


def test_polynomial_json_shape():
    p = ExactPolynomial((Fraction(0), Fraction(-1, 3)), k0=2)
    assert p.to_json() == {"coefficients": ["0", "-1/3"], "valid_from": 2}


# ---------------------------------------------------------------------------
# fit_polynomial

def test_fit_recovers_cubic():
    poly = lambda k: 2 * k ** 3 - 5 * k + 7
    samples = {k: poly(k) for k in range(1, 9)}
    fit = fit_polynomial(samples, 3)
    assert fit.coeffs == (Fraction(7), Fraction(-5), Fraction(0), Fraction(2))
    assert fit.k0 == 1
    assert fit(11) == poly(11)


def test_fit_trims_trailing_zero_coefficients():
    samples = {k: 4 * k + 1 for k in range(0, 8)}
    fit = fit_polynomial(samples, 3)
    assert fit.coeffs == (Fraction(1), Fraction(4))
    assert fit.degree == 1


def test_fit_finds_stabilization_onset():
    # eventual polynomial: exact from k=3 onward only
    samples = {k: k * k for k in range(1, 10)}
    samples[1] = 100
    samples[2] = -4
    fit = fit_polynomial(samples, 2)
    assert fit.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert fit.k0 == 3


def test_fit_rejects_gaps():
    with pytest.raises(ValueError):
        fit_polynomial({1: 1, 2: 4, 4: 16, 5: 25, 6: 36, 7: 49}, 2)


def test_fit_needs_enough_samples():
    with pytest.raises(NotStabilized) as exc:
        fit_polynomial({1: 1, 2: 2, 3: 3}, 2)
    assert exc.value.hint == "extend_k_range"


def test_fit_of_no_samples_needs_more():
    with pytest.raises(NotStabilized, match="need at least 5 consecutive"):
        fit_polynomial({}, 1)


def test_fit_reports_unstabilized_growth():
    samples = {k: 2 ** k for k in range(1, 9)}
    with pytest.raises(NotStabilized) as exc:
        fit_polynomial(samples, 2)
    assert exc.value.hint == "extend_k_range"
    assert exc.value.quasi_period is None


# Weight counts of (x^2)+(t) on the degree-1 line: the section space is too
# short for the exceptional exponent, so the counts split by parity.  Values
# frozen from the closed form -sum_u max(0, k - floor(u/2)) over 0 <= u <= k.
PARITY_SPLIT_COUNTS = {
    1: -2, 2: -5, 3: -10, 4: -16, 5: -24, 6: -33,
    7: -44, 8: -56, 9: -70, 10: -85, 11: -102, 12: -120,
}


def test_fit_diagnoses_quasi_polynomial_period_two():
    with pytest.raises(NotStabilized) as exc:
        fit_polynomial(PARITY_SPLIT_COUNTS, 2)
    assert exc.value.hint == "quasi_polynomial"
    assert exc.value.quasi_period == 2


# fit_polynomial interpolates in integers over d!; the Fraction Lagrange fit
# of oracles.fit_outcome is the reference on every outcome: a fit with its
# coefficients and k0, or NotStabilized with its hint and period.

def library_fit_outcome(samples, max_degree, guard):
    try:
        fit = fit_polynomial(samples, max_degree, guard)
    except NotStabilized as exc:
        return ("not_stabilized", exc.hint, exc.quasi_period)
    assert all(type(c) is Fraction for c in fit.coeffs)
    return ("fit", fit.coeffs, fit.k0)


def eventually(draw, values):
    """values with a few leading samples replaced, so that the fit's k0
    lies past the start."""
    head = draw(st.lists(st.integers(-50, 50), max_size=3))
    return head + values[len(head):]


@st.composite
def fit_samples(draw):
    kind = draw(st.sampled_from(
        ["integer", "fraction", "quasi", "growing"]))
    start = draw(st.integers(-6, 6))
    # a period-q split shows only with d + 3 samples in each residue class
    size = draw(st.integers(12, 24) if kind == "quasi" else st.integers(1, 16))
    ks = range(start, start + size)
    if kind in ("integer", "fraction"):
        entry = st.integers(-9, 9)
        if kind == "fraction":
            entry = st.fractions(min_value=-9, max_value=9,
                                 max_denominator=12)
        coeffs = draw(st.lists(entry, min_size=1, max_size=6))
        values = [sum(c * k ** i for i, c in enumerate(coeffs)) for k in ks]
        values = eventually(draw, values)
    elif kind == "quasi":
        q = draw(st.integers(2, 4))
        polys = draw(st.lists(st.lists(st.integers(-5, 5), min_size=1,
                                       max_size=4), min_size=q, max_size=q))
        values = [sum(c * k ** i for i, c in enumerate(polys[k % q]))
                  for k in ks]
    else:
        values = [draw(st.integers(2, 3)) ** k if k >= 0 else 0 for k in ks]
    return dict(zip(ks, values))


@settings(max_examples=300, deadline=None)
@given(fit_samples(), st.integers(0, 5), st.integers(1, 3))
@example(PARITY_SPLIT_COUNTS, 2, 2)
@example({k: Fraction(k * k, 3) - k for k in range(-3, 7)}, 2, 2)
def test_integer_fit_matches_the_fraction_reference(samples, max_degree,
                                                    guard):
    assert library_fit_outcome(samples, max_degree, guard) == \
        oracles.fit_outcome(samples, max_degree, guard)


def test_quasi_sequence_matches_live_counts():
    v = projective_space(1, 1)
    flag = flag_of([[(2,)]], 1)
    seq = weight_sequence(v, flag, 1, range(1, 8))
    assert seq == {k: PARITY_SPLIT_COUNTS[k] for k in range(1, 8)}


def test_weight_sequence_steps_one_stepper(monkeypatch):
    # k = 1..8 read from one stepper take 8 table steps; a fresh stepper
    # per k would take 1 + 2 + ... + 8 = 36
    v = projective_space(2, 2)
    flag = flag_of([[(2, 0), (1, 1), (0, 2)]], 2)
    ks = [5, 1, 8, 3, 2, 7, 4, 6]
    expected = {k: weight_at(v, flag, 1, k) for k in ks}
    steps = []
    step = LevelStepper.step
    monkeypatch.setattr(LevelStepper, "step",
                        lambda self: steps.append(self.k) or step(self))
    assert weight_sequence(v, flag, 1, ks) == expected
    assert len(steps) == 8
    trivial = flag_of([[(0, 0)]], 2)
    assert weight_sequence(v, trivial, 1, ks) == {k: 0 for k in ks}
    assert len(steps) == 8


# ---------------------------------------------------------------------------
# weight and closure samples

def test_weight_pins_on_the_line():
    v2 = projective_space(1, 2)
    flag = flag_of([[(2,)]], 1)
    assert [weight_at(v2, flag, 1, k) for k in (1, 2, 3)] == [-2, -6, -12]

    v1 = projective_space(1, 1)
    assert weight_at(v1, flag_of([[(1,)]], 1), 1, 2) == -3


# weight_at reads levels from per-chart tables; the literal expansion of
# J^k in the oracle is the per-point reference.  Exponents up to 6 reach
# past the chart box at small k * r.

# each has its chart at the origin with the identity frame, so the chart
# exponents of a lattice point are the point itself.  P^1 x P^2 is not
# symmetric in its first two coordinates, so a level table offset that
# swaps the two prefix axes of its fibres changes its weight
CHART_VARIETIES = [
    projective_space(1, 1),
    projective_space(2, 2),
    box((1, 2)),
    projective_space(3, 1),
    make_variety([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                  (1, 0, 1)], (0, 0, 0)),
]
F1 = hirzebruch_anticanonical()
# cox exponents and maximal charts of F1, in dflab's facet order
F1_FACETS = F1.polytope.facets
F1_CHARTS = tuple(
    tuple(i for i, (a, c) in enumerate(F1_FACETS)
          if a[0] * v[0] + a[1] * v[1] == c)
    for v in F1.polytope.vertices)


def reference_weight(variety, flag, r, k):
    if flag.trivial:
        return 0
    pg = oracles.power_gens([i.gens for i in flag.chain], flag.big_n, k)
    s = k * r
    if flag.mode == "chart":
        return -sum(oracles.level_chart(pg, u)
                    for u in variety.lattice_points(s))
    return -sum(
        oracles.level_cox(
            pg, tuple(a[0] * u[0] + a[1] * u[1] - s * c for a, c in F1_FACETS),
            F1_CHARTS)
        for u in variety.lattice_points(s))


@st.composite
def increasing_chain(draw, first, nvars, hi):
    """Generator lists of an increasing chain that starts at first."""
    gens = list(first)
    levels = [gens]
    extra = st.tuples(*[st.integers(0, hi)] * nvars)
    for _ in range(draw(st.integers(0, 2))):
        gens = gens + draw(st.lists(extra, min_size=1, max_size=2))
        levels.append(gens)
    return levels


@st.composite
def chart_flags(draw):
    variety = draw(st.sampled_from(CHART_VARIETIES))
    n = variety.dim
    # pure powers make every ideal of the chain point supported
    powers = [tuple(draw(st.integers(1, 6)) if j == i else 0
                    for j in range(n)) for i in range(n)]
    mixed = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=2))
    levels = draw(increasing_chain(powers + mixed, n, 4))
    return variety, flag_of(levels, n)


@st.composite
def cox_flags(draw):
    first = draw(st.lists(st.tuples(*[st.integers(0, 6)] * 4),
                          min_size=1, max_size=2))
    levels = draw(increasing_chain(first, 4, 6))
    return flag_of(levels, 4, mode="cox", variety=F1)


@settings(max_examples=40, deadline=None)
@given(chart_flags(), st.integers(1, 2), st.integers(1, 2))
def test_weight_at_matches_t_degree_sum_chart(case, r, k):
    variety, flag = case
    assert weight_at(variety, flag, r, k) == \
        reference_weight(variety, flag, r, k)


@settings(max_examples=40, deadline=None)
@given(cox_flags(), st.integers(1, 2), st.integers(1, 3))
def test_weight_at_matches_t_degree_sum_cox(flag, r, k):
    assert weight_at(F1, flag, r, k) == reference_weight(F1, flag, r, k)


# df_counting keeps one LevelStepper and steps its tables from J^(k-1) to
# J^k; the oracle's level sum stays the reference at every k, also when the
# first k is above 1.  F1 has chart reaches w_i of 2 and 3, so cox exponents up to
# 6 mostly reach past the box side r * w_i that krP needs (D_i > r * w_i).

def rigid_curve_gen(e):
    """x^e for the cox variable of the rigid curve y = 0 of F1."""
    idx = F1.polytope.facets.index(((0, 1), 0))
    return tuple(e if i == idx else 0 for i in range(4))


# (x^4) + (x^2) t + (t^2) on the rigid curve: exponent 4 against w = 2
PAST_THE_BOX = flag_of([[rigid_curve_gen(4)], [rigid_curve_gen(2)]], 4,
                       mode="cox", variety=F1)


@settings(max_examples=30, deadline=None)
@given(st.one_of(chart_flags(), cox_flags().map(lambda flag: (F1, flag))),
       st.integers(1, 2), st.integers(1, 3))
@example((F1, PAST_THE_BOX), 1, 3)
def test_stepped_tables_match_t_degree_sum(case, r, start):
    variety, flag = case
    # a unit chain is trivial; weight_at reads 0 for it without tables
    assume(not flag.trivial)
    stepper = LevelStepper(variety, flag, r)
    for k in range(start, 7):
        tables = stepper.advance(k)
        assert stepper.k == k
        fib = fibres(variety.polytope, k * r)
        assert we._weight(tables, k * r, fib) \
            == reference_weight(variety, flag, r, k)


# LevelStepper steps J^k on the box of side k * D_i, D_i the largest move
# exponent on axis i, keeps only the charts that can hold a point's level,
# and advance pads each kept table to the box krP reads on its live axes
# (D_i > 0); at every point of krP each kept table reads its chart's level
# in the full-box stepping of tests/oracles.py, and the largest over the
# kept tables is the largest over every chart.

def chart_data(variety, flag):
    """(functionals, offsets, moves) per chart of _chart_functionals, a
    chart flag taken as its cox lift, which is how LevelStepper counts it."""
    if flag.mode == "chart":
        flag = cox_lift(variety, flag)
    return [(funcs, offs, ma._chart_moves(flag, idxs))
            for idxs, funcs, offs in ma._chart_functionals(variety, flag)]


def chart_levels(chart_table, scale, points):
    """A level table's entry at each point: table[<A, u> - scale * C]."""
    a, c, table = chart_table
    return [table[sum(x * y for x, y in zip(a, u)) - scale * c]
            for u in points]


def full_box_levels(variety, flag, r, k):
    """Per chart, in chart order: (functionals, the level of the full-box
    stepping at each point of krP), and the points."""
    data = chart_data(variety, flag)
    full = oracles.full_box_level_tables(
        data, variety.polytope.vertices, r, flag.big_n, k)[k]
    points = oracles.prefix_walk_points(variety.polytope, k * r)
    return ([(funcs, chart_levels(t, k * r, points))
             for (funcs, _, _), t in zip(data, full)], points)


def assert_kept_tables_read_the_full_box(variety, flag, r, k, stepper,
                                         tables):
    charts, points = full_box_levels(variety, flag, r, k)
    want = dict(charts)
    got = [chart_levels(t, k * r, points) for t in tables]
    assert got == [want[ch.funcs] for ch in stepper._charts]
    assert [max(col) for col in zip(*got)] == \
        [max(col) for col in zip(*(levels for _, levels in charts))]


# step makes one flat pass per move and puts back the cells that read
# across a row, those with y_i < g_i on an axis i >= 1: on a 3-fold the
# move xyz has a put-back on the middle axis as well as on the last, and
# on the 4-fold box on two middle axes
SQUARES_AND_XYZ = flag_of([[(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]], 3)
BOX_4 = box((1, 1, 1, 1))
SQUARES_AND_XYZW = flag_of(
    [[(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 1, 1)]],
    4)


@settings(max_examples=40, deadline=None)
@given(st.one_of(chart_flags(), cox_flags().map(lambda flag: (F1, flag)),
                 st.just((F1, PAST_THE_BOX))),
       st.integers(1, 2), st.integers(1, 3))
@example((F1, PAST_THE_BOX), 1, 3)
# P^1 x P^2
@example((CHART_VARIETIES[4], SQUARES_AND_XYZ), 1, 1)
def test_advance_matches_full_box_stepping(case, r, start):
    variety, flag = case
    assume(not flag.trivial)
    stepper = LevelStepper(variety, flag, r)
    for k in range(start, 7):
        assert_kept_tables_read_the_full_box(
            variety, flag, r, k, stepper, stepper.advance(k))


def test_advance_matches_full_box_stepping_on_a_4_fold():
    stepper = LevelStepper(BOX_4, SQUARES_AND_XYZW, 1)
    for k in range(1, 4):
        assert_kept_tables_read_the_full_box(
            BOX_4, SQUARES_AND_XYZW, 1, k, stepper, stepper.advance(k))


def test_stepped_tables_hold_the_moves_box():
    # PAST_THE_BOX lives on the rigid curve: one chart through it is kept,
    # stepped and padded along its one live axis
    cases = [(F1, PAST_THE_BOX, 1, [13]),
             (F1, PAST_THE_BOX, 2, [13]),
             (projective_space(2, 2), flag_of([[(2, 0), (1, 1), (0, 2)]], 2),
              3, [49])]
    for variety, flag, r, cells in cases:
        stepper = LevelStepper(variety, flag, r)
        tables = stepper.advance(3)
        sides = {funcs: [max((g[i] for g, _ in moves), default=0)
                         for i in range(len(funcs))]
                 for funcs, _, moves in chart_data(variety, flag)}
        assert [len(ch.table) for ch in stepper._charts] == [
            prod(3 * d + 1 for d in sides[ch.funcs])
            for ch in stepper._charts]
        assert sorted(len(ch.table) for ch in stepper._charts) == cells
        assert [len(t) for _, _, t in tables] == [
            prod(3 * e + 1 for d, e in zip(ch.side, ch.reach) if d)
            for ch in stepper._charts]
        assert_kept_tables_read_the_full_box(variety, flag, r, 3, stepper,
                                             tables)


def cox_monomial(*facets):
    """The product of the cox variables of the given facets of F1."""
    idxs = [F1.polytope.facets.index(f) for f in facets]
    return tuple(int(i in idxs) for i in range(4))


# x0 x1 x2 x3 has a move off 0 on every chart of F1, so every chart is
# kept and every table is padded to the box krP reads
EVERY_CHART = flag_of([[(1, 1, 1, 1)]], 4, mode="cox", variety=F1)
# x_F x_G on the rigid curve y = 0 and the adjacent facet x = 0: both
# variables are live only on the chart at the origin, which dominates the
# two charts that hold one of them
ADJACENT = flag_of([[cox_monomial(((0, 1), 0), ((1, 0), 0))]], 4,
                   mode="cox", variety=F1)
# the same at the corner (3, 2), on y = 2 and x - y = 1: its chart comes
# last in vertex order, so it is kept only because charts are visited by
# decreasing number of live variables
FAR_CORNER = flag_of([[cox_monomial(((0, -1), -2), ((-1, 1), -1))]], 4,
                     mode="cox", variety=F1)
# x_F x_G on the parallel facets y = 0 and y = 2: no chart holds both, so
# one chart through each is kept
PARALLEL = flag_of([[cox_monomial(((0, 1), 0), ((0, -1), -2))]], 4,
                   mode="cox", variety=F1)


@pytest.mark.parametrize("flag, kept", [
    (PAST_THE_BOX, 1), (EVERY_CHART, 4), (ADJACENT, 1), (FAR_CORNER, 1),
    (PARALLEL, 2)],
    ids=["past_the_box", "every_chart", "adjacent", "far_corner", "parallel"])
def test_f1_keeps_the_charts_that_can_hold_a_level(flag, kept):
    for r in (1, 2):
        stepper = LevelStepper(F1, flag, r)
        assert len(stepper._charts) == kept
        for k in (0, 1, 3):
            tables = stepper.advance(k)
            assert len(tables) == kept
            assert_kept_tables_read_the_full_box(F1, flag, r, k, stepper,
                                                 tables)


# A chart flag is counted as its cox lift, whose generators all lie on the
# chart vertex's facets: that vertex's chart is the one kept, its axes in
# facet order, and every other chart is dead, so P need not be smooth.  F1
# and Bl_p P^3 with 2H - E, charted away from the origin, have frames that
# are not the identity; the quadrilateral is not smooth at (2, 2).
BLOWUP = make_variety([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0),
                       (0, 2, 0), (0, 0, 2)], (1, 0, 0))
QUADRILATERAL = make_variety([(0, 0), (2, 0), (0, 1), (2, 2)])


def chart_reference_weight(variety, flag, r, k):
    """Minus the chart oracle's level sum over krP, read at the chart
    coordinates of each point."""
    pg = oracles.power_gens([i.gens for i in flag.chain], flag.big_n, k)
    s = k * r
    return -sum(oracles.level_chart(pg, variety.chart_coords(u, s))
                for u in variety.lattice_points(s))


@settings(max_examples=40, deadline=None)
@given(chart_flags(), st.integers(1, 2))
@example((make_variety(F1.polytope.vertices, chart_vertex=(3, 2)),
          flag_of([[(1, 0), (0, 1)]], 2)), 2)
@example((BLOWUP, flag_of([[(1, 0, 0), (0, 1, 0), (0, 0, 1)]], 3)), 2)
@example((QUADRILATERAL, flag_of([[(2, 0), (0, 1)], [(1, 0), (0, 1)]], 2)),
         1)
def test_a_chart_flag_keeps_the_chart_of_its_vertex(case, r):
    variety, flag = case
    assume(not flag.trivial)
    stepper = LevelStepper(variety, flag, r)
    assert [ch.idxs for ch in stepper._charts] == \
        [tuple(sorted(variety.chart_facets))]
    for k in (1, 2):
        assert we._weight(stepper.advance(k), k * r,
                          variety.dilate_fibres(k * r)) == \
            chart_reference_weight(variety, flag, r, k)


@settings(max_examples=40, deadline=None)
@given(chart_flags())
# a stripped zero level comes back as t_power
@example((projective_space(2, 2), flag_of([[], [(1, 0), (0, 1)]], 2)))
def test_cox_lift_is_the_validated_lifted_chain(case):
    # padding with zeros keeps each ideal minimal and the chain's support,
    # so the lift, which does not validate, agrees with validation
    variety, flag = case
    assume(not flag.trivial)
    nf = len(variety.polytope.facets)
    idx = variety.chart_facets

    def pad(g):
        e = [0] * nf
        for i, x in zip(idx, g):
            e[i] = x
        return e

    ideals = [MonomialIdeal.zero(nf)] * flag.t_power + [
        MonomialIdeal.make(nf, [pad(g) for g in i.gens]) for i in flag.chain]
    assert cox_lift(variety, flag) == \
        validate_flag_ideal(ideals, mode="cox", variety=variety)


def rigid_curve_flags():
    """Chains (x^e1) < (x^e2) < ... on the rigid curve of F1, e1 > e2."""
    return st.lists(st.integers(1, 6), min_size=1, max_size=3,
                    unique=True).map(lambda es: flag_of(
                        [[rigid_curve_gen(e)] for e in sorted(es)[::-1]], 4,
                        mode="cox", variety=F1))


@settings(max_examples=60, deadline=None)
@given(st.one_of(rigid_curve_flags(), cox_flags(),
                 st.sampled_from([ADJACENT, PARALLEL])),
       st.integers(1, 2), st.integers(0, 4))
@example(ADJACENT, 1, 3)
@example(PARALLEL, 2, 2)
def test_dropped_charts_read_at_most_the_kept_maximum(flag, r, k):
    # a chart whose live variables lie among a kept chart's variables
    # reads no level above that chart's, so none above the kept maximum
    assume(not flag.trivial)
    stepper = LevelStepper(F1, flag, r)
    charts, points = full_box_levels(F1, flag, r, k)
    kept = [chart_levels(t, k * r, points) for t in stepper.advance(k)]
    top = [max(col) for col in zip(*kept)]
    for funcs, levels in charts:
        if all(ch.funcs != funcs for ch in stepper._charts):
            assert all(x <= y for x, y in zip(levels, top))


# A one-cell table, read at A = 0 as one repeated cell, weighs as the same
# cell padded to the box krP reads: made-up cells stand in for constant
# charts, among them a cell of 0, and tables that are all constant.

def padded_to_read_box(stepper, tables, k):
    """tables with every one-cell table padded to the read box of side
    k * e_i of a chart of the stepper: its own, or the first chart's for
    a made-up cell."""
    out = []
    for i, (a, c, table) in enumerate(tables):
        if len(table) == 1:
            ch = stepper._charts[i if i < len(stepper._charts) else 0]
            shape = [k * e + 1 for e in ch.reach]
            strides = ma._strides(shape)
            a = tuple(sum(x * y for x, y in zip(strides, col))
                      for col in zip(*ch.funcs))
            c = sum(x * y for x, y in zip(strides, ch.offs))
            table = table * prod(shape)
        out.append((a, c, table))
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(rigid_curve_flags(), cox_flags()), st.integers(1, 2),
       st.integers(0, 4), st.lists(st.integers(0, 30), max_size=2),
       st.booleans())
# a made-up cell of 0
@example(PAST_THE_BOX, 1, 3, [0], False)
# only constant tables: W = -max cell * #krP
@example(PAST_THE_BOX, 2, 3, [7], True)
@example(PAST_THE_BOX, 1, 2, [], True)
def test_constant_tables_weigh_as_padded_ones(flag, r, k, cells, constant):
    assume(not flag.trivial)
    stepper = LevelStepper(F1, flag, r)
    tables = stepper.advance(k) + [((0, 0), 0, [c]) for c in cells]
    if constant:
        tables = [t for t in tables if len(t[2]) == 1]
    fib = fibres(F1.polytope, k * r)
    got = we._weight(tables, k * r, fib)
    assert got == we._weight(padded_to_read_box(stepper, tables, k), k * r,
                             fib)
    if constant:
        assert got == -max([0] + [t[0] for _, _, t in tables]) * fib.count


# the square of the cox variable of the facet x = 0: the kept chart's one
# live functional is (1, 0), so its flat index does not move along a fibre
LEFT_EDGE = flag_of([[tuple(2 * x for x in cox_monomial(((1, 0), 0)))]], 4,
                    mode="cox", variety=F1)


def test_f1_cox_tables_read_fibres_backwards():
    # the chart at (0, 2) has the cox variables of the facets y <= 2 and
    # x >= 0, so its flat index falls by the stride of the first axis as y
    # grows: _weight reads its table slices backwards.  PAST_THE_BOX keeps
    # one chart through the rigid curve y = 0, whose live functional is
    # (0, 1): it steps forwards.  LEFT_EDGE keeps one chart through x = 0,
    # whose live functional is (1, 0): one cell repeats along each fibre
    for r in (1, 2):
        for flag, signs in ((EVERY_CHART, [-1, 1, 1, 1]),
                            (PAST_THE_BOX, [1]), (LEFT_EDGE, [0])):
            stepper = LevelStepper(F1, flag, r)
            tables = stepper.advance(3)
            assert sorted((a[-1] > 0) - (a[-1] < 0) for a, c, t in tables) \
                == signs
            assert_kept_tables_read_the_full_box(F1, flag, r, 3, stepper,
                                                 tables)
            for k in (3, 4):
                fib = fibres(F1.polytope, k * r)
                assert we._weight(stepper.advance(k), k * r, fib) == \
                    reference_weight(F1, flag, r, k)


# _weight on made-up tables: every sign of the step a = A[-1] along the
# fibres, which on a level table comes only out of the chart geometry and
# its live axes, against the level sum over the prefix walk.

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHART_VARIETIES + [F1]), st.integers(1, 3), st.data())
def test_weight_reads_fibre_slices_of_every_step(variety, k, data):
    points = oracles.prefix_walk_points(variety.polytope, k)
    fib = fibres(variety.polytope, k)
    assert fib.count == len(points)
    tables = []
    for last in (-2, -1, 0, 1, 3):
        head = data.draw(st.lists(st.integers(-3, 3),
                                  min_size=variety.dim - 1,
                                  max_size=variety.dim - 1))
        a = tuple(head) + (last,)
        idx = [sum(x * y for x, y in zip(a, u)) for u in points]
        c = min(idx) // k
        size = max(idx) - k * c + 1
        table = data.draw(st.lists(st.integers(0, 9), min_size=size,
                                   max_size=size))
        tables.append((a, c, table))
        assert we._weight([tables[-1]], k, fib) == -sum(
            table[i - k * c] for i in idx)
    assert we._weight(tables, k, fib) == -sum(
        max(t[sum(x * y for x, y in zip(a, u)) - k * c] for a, c, t in tables)
        for u in points)


def test_weight_rejects_a_table_short_of_the_dilate():
    # the points 0..3 of 3P for P = [0, 1] sit at the table indices
    # a * x - 3 * c, which run over 0..3 * |a|
    fib = fibres(projective_space(1, 1).polytope, 3)
    assert fib.count == 4
    for a, c in ((1, 0), (-1, -1), (2, 0)):
        table = list(range(3 * abs(a) + 1))
        assert we._weight([((a,), c, table)], 3, fib) == \
            -sum(table[a * x - 3 * c] for x in range(4))
        with pytest.raises(ConsistencyError):
            we._weight([((a,), c, table[:-1])], 3, fib)


@pytest.mark.parametrize("off", [-1, 1])
def test_weight_rejects_a_count_off_by_one(off):
    # _weight reads #krP from the fibres' stored count instead of
    # recounting them, so a count that misses them by one fails the
    # coverage check of a table that covers krP exactly
    fib = fibres(F1.polytope, 3)
    tables = LevelStepper(F1, EVERY_CHART, 1).advance(3)
    assert we._weight(tables, 3, fib) == \
        reference_weight(F1, EVERY_CHART, 1, 3)
    with pytest.raises(ConsistencyError):
        we._weight(tables, 3, replace(fib, count=fib.count + off))


def test_df_counting_steps_each_k_once(monkeypatch):
    steps = []
    weights = {}
    step = LevelStepper.step
    weight = we._weight

    def counted_step(self):
        step(self)
        steps.append(self.k)

    def recorded_weight(tables, scale, fib):
        weights[scale] = weight(tables, scale, fib)
        return weights[scale]

    monkeypatch.setattr(LevelStepper, "step", counted_step)
    monkeypatch.setattr(we, "_weight", recorded_weight)
    report = df_counting(F1, PAST_THE_BOX, 1, FitOptions(window=(3, 9)))
    monkeypatch.undo()
    # the oracle numbers the facets of F1 in another order
    oidx = oracles.F1_FACETS.index(((0, 1), 0))
    ogen = lambda e: tuple(e if i == oidx else 0 for i in range(4))
    assert report.df == oracles.df_f1_cox([[ogen(4)], [ogen(2)]], 2, 1)
    # k = 1, 2 are stepped through but not sampled; then one step per k
    assert sorted(weights) == list(range(3, 10))
    assert steps == list(range(1, 10))
    for k, w in weights.items():
        assert w == reference_weight(F1, PAST_THE_BOX, 1, k)


def test_weight_of_no_tables_is_zero():
    # a trivial flag's Newton polyhedron has no compact facet, so its
    # closure count reads no table and weighs 0
    v = projective_space(2, 2)
    fib = fibres(v.polytope, 4)
    assert we._weight([], 4, fib) == 0
    trivial = flag_of([[(0, 0)]], 2)
    assert we._closure_facets(v, trivial, 2) == []
    assert we._closure_tables([], 2, 3) == []
    assert closure_weight_at(v, trivial, 2, 3) == 0


def test_df_counting_reads_the_closure_through_weight(monkeypatch):
    # a point-supported chart flag's closure count is a second _weight
    # call per sample, on the same fibres, those of the chart box k * Q at
    # scale k; (x^3, y^3) is not integrally closed, so the two calls at a
    # scale return different weights.  A cox flag counts no closure: one
    # call per sample, over krP at scale k * r.
    calls = []
    weight = we._weight

    def recorded_weight(tables, scale, fib):
        calls.append((scale, weight(tables, scale, fib)))
        return calls[-1][1]

    monkeypatch.setattr(we, "_weight", recorded_weight)
    v = projective_space(2, 2)
    flag = flag_of([[(3, 0), (0, 3)]], 2)
    report = df_counting(v, flag, 2)
    chart_calls = sorted(calls)
    calls.clear()
    df_counting(F1, PAST_THE_BOX, 1, FitOptions(window=(3, 9)))
    monkeypatch.undo()
    assert report.integrally_closed is False
    assert report.closure_df == 15
    ks = range(1, chart_calls[-1][0] + 1)
    assert chart_calls == sorted(
        [(k, weight_at(v, flag, 2, k)) for k in ks]
        + [(k, closure_weight_at(v, flag, 2, k)) for k in ks])
    assert [scale for scale, _ in calls] == list(range(3, 10))


def test_negative_k_is_invalid_input():
    # J^-1 is not a power of the flag: the error names k, for a trivial
    # flag too, and is not the stepper's step-back error
    v = projective_space(2, 1)
    for flag in (flag_of([[(1, 0), (0, 1)]], 2), flag_of([[(0, 0)]], 2)):
        for call in (lambda: weight_at(v, flag, 1, -1),
                     lambda: weight_sequence(v, flag, 1, [2, -1, 1]),
                     lambda: t_degree(v, flag, 1, -1, (0, 0)),
                     lambda: closure_weight_at(v, flag, 1, -1),
                     lambda: hilbert_at(v, 1, -1)):
            with pytest.raises(InvalidInput, match="k must be at least 0, "
                               "not -1"):
                call()


def test_level_stepper_does_not_step_back():
    stepper = LevelStepper(F1, PAST_THE_BOX, 1)
    stepper.advance(3)
    with pytest.raises(ValueError):
        stepper.advance(2)


def test_weight_at_unsupported_modes():
    general = flag_of([[(1, 0)]], 2)
    assert general.support == "general"
    with pytest.raises(UnsupportedMode, match="chart-mode counting needs "
                       "ideals supported at the chart point"):
        weight_at(projective_space(2, 1), general, 1, 1)
    # cox counting needs global smoothness
    vq = make_variety([(0, 0), (2, 0), (0, 1), (2, 2)])
    assert not vq.smooth
    nf = len(vq.polytope.facets)
    cflag = flag_of([[tuple(1 for _ in range(nf))]], nf,
                    mode="cox", variety=vq)
    with pytest.raises(UnsupportedMode,
                       match="cox-mode counting needs a smooth polytope"):
        weight_at(vq, cflag, 1, 1)


def test_closure_weight_agrees_on_integrally_closed_flag():
    v = projective_space(1, 1)
    flag = flag_of([[(1,)]], 1)
    for k in range(1, 5):
        assert closure_weight_at(v, flag, 1, k) == weight_at(v, flag, 1, k)


def test_closure_weight_detects_gap():
    # (x^2) + (x^2) t + (t^2): powers miss the odd half of the hull
    v = projective_space(1, 2)
    flag = flag_of([[(2,)], [(2,)]], 1)
    for k in range(1, 5):
        assert weight_at(v, flag, 1, k) == -2 * k * k - 2 * k
        assert closure_weight_at(v, flag, 1, k) == -2 * k * k - k


# closure_weight_at counts in integers through folded facet functionals;
# ceil(k * phi_value(np, y / k)) at the chart coordinates y is the
# per-point reference.  F1 charted at (3, 2) has the chart matrix
# ((-1, 1), (0, -1)), not the identity, so the folding is exercised.

CLOSURE_VARIETIES = [
    projective_space(1, 2),
    projective_space(2, 2),
    box((1, 2)),
    projective_space(3, 1),
    make_variety(F1.polytope.vertices, chart_vertex=(3, 2)),
]


def reference_closure_weight(variety, flag, r, k):
    np_ = newton_polyhedron(flag)
    total = 0
    for u in variety.lattice_points(k * r):
        y = variety.chart_coords(u, k * r)
        total += ceil(k * phi_value(np_, tuple(Fraction(t, k) for t in y)))
    return -total


@st.composite
def closure_flags(draw):
    variety = draw(st.sampled_from(CLOSURE_VARIETIES))
    n = variety.dim
    hi = 3 if n == 3 else 5
    powers = [tuple(draw(st.integers(1, hi)) if j == i else 0
                    for j in range(n)) for i in range(n)]
    mixed = draw(st.lists(st.tuples(*[st.integers(0, hi - 1)] * n),
                          max_size=2))
    levels = draw(increasing_chain(powers + mixed, n, hi - 1))
    return variety, flag_of(levels, n)


@settings(max_examples=50, deadline=None)
@given(closure_flags(), st.integers(1, 2), st.integers(1, 3))
# (x^3, y^3) is not integrally closed: its closure count is strictly above
# the count of its powers
@example((projective_space(2, 2), flag_of([[(3, 0), (0, 3)]], 2)), 2, 3)
# on F1 charted at (3, 2) the folded functional of (x, y) is constant along
# the fibres, that of (x^2, y) falls and that of (x, y^2) rises
@example((CLOSURE_VARIETIES[-1], flag_of([[(1, 0), (0, 1)]], 2)), 1, 3)
@example((CLOSURE_VARIETIES[-1], flag_of([[(2, 0), (0, 1)]], 2)), 2, 2)
@example((CLOSURE_VARIETIES[-1], flag_of([[(1, 0), (0, 2)]], 2)), 1, 3)
def test_closure_weight_matches_phi_reference(case, r, k):
    variety, flag = case
    assert closure_weight_at(variety, flag, r, k) == \
        reference_closure_weight(variety, flag, r, k)


# a chart flag is counted over the chart box k * Q: its W and closure
# weight must be those read over all of krP.  The reference for W is the
# stepper's tables padded to krP (advance) over the fibres of krP.
CUT_BOX = (projective_space(2, 2), flag_of([[(3, 0), (0, 3)]], 2))
INNER_BOX = (projective_space(2, 5), flag_of([[(2, 0), (0, 1)]], 2))


def test_chart_box_keeps_the_facets_of_rp_that_cut_it():
    # at r = 2 the box [0, 3]^2 leaves 2P = x + y <= 4 at its far corner;
    # at r = 3 the box [0, 2] x [0, 1] lies inside the triangle of side 15
    (v, flag), r = CUT_BOX, 2
    assert we._side(flag) == (3, 3)
    assert v.chart_box(r, (3, 3)).facets == (((-1, -1), -4),)
    (v, flag), r = INNER_BOX, 3
    assert we._side(flag) == (2, 1)
    assert v.chart_box(r, (2, 1)).facets == ()


@settings(max_examples=40, deadline=None)
@given(chart_flags(), st.integers(1, 2))
@example(CUT_BOX, 2)
@example(INNER_BOX, 3)
# F1 charted at (3, 2): the chart's variables are not in facet order, so
# the stepped table's strides are put in the variables' order
@example((CLOSURE_VARIETIES[-1], flag_of([[(3, 0), (0, 2)]], 2)), 1)
def test_chart_box_reads_match_the_dilate(case, r):
    variety, flag = case
    assume(not flag.trivial)
    sample = we._walk(variety, flag, r, closure=True)
    stepper = LevelStepper(variety, flag, r)
    for k in (1, 2, 3):
        fib = variety.dilate_fibres(k * r)
        assert sample(k) == (
            fib.count, we._weight(stepper.advance(k), k * r, fib),
            reference_closure_weight(variety, flag, r, k))


def test_df_counting_closure_samples_match_phi_reference(monkeypatch):
    # the walk builds each compact facet's closure data once and only the
    # tables at each k; on F1 charted at (3, 2), (x^3, y^2) has one compact
    # facet, of normal (2, 3, 6), so t_f = 6, and is not integrally
    # closed.  The window (1, 3) is extended, and every sample of it, past
    # the first window too, is the phi reference
    variety = CLOSURE_VARIETIES[-1]
    flag = flag_of([[(3, 0), (0, 2)]], 2)
    assert [f.normal for f in flag.polyhedron.facets] == [(2, 3, 6)]
    samples = {}
    built = []
    walk = we._walk
    closure_facets = we._closure_facets

    def recorded_walk(*args):
        sample = walk(*args)

        def recorded(k):
            samples[k] = sample(k)
            return samples[k]
        return recorded

    def counted_facets(*args):
        built.append(args)
        return closure_facets(*args)

    monkeypatch.setattr(we, "_walk", recorded_walk)
    monkeypatch.setattr(we, "_closure_facets", counted_facets)
    report = df_counting(variety, flag, 1, FitOptions(window=(1, 3)))
    monkeypatch.undo()
    assert (report.df, report.closure_df) == (8, 6)
    assert report.integrally_closed is False
    assert len(built) == 1
    assert sorted(samples) == list(range(1, max(samples) + 1))
    assert max(samples) > 3
    for k, (_, _, closure) in samples.items():
        assert closure == reference_closure_weight(variety, flag, 1, k)


def test_df_counting_enumerates_each_sample_once(monkeypatch):
    v = projective_space(2, 2)
    flag = flag_of([[(2, 0), (1, 1), (0, 2)]], 2)
    r = 3
    boxes = []
    dilates = []
    hilbert_ks = []
    enumerate_fibres = lg.fibres
    hilbert = we.hilbert_at

    def counted_fibres(poly, k):
        (dilates if poly is v.polytope else boxes).append((poly, k))
        return enumerate_fibres(poly, k)

    def counted_hilbert(variety, r_, k):
        hilbert_ks.append(k)
        return hilbert(variety, r_, k)

    # every enumeration goes through fibres: the walk's chart box from
    # the weight engine, and the dilates of P from the variety's fibre
    # store, which lattice_points and the Ehrhart polynomial read
    monkeypatch.setattr(lg, "fibres", counted_fibres)
    monkeypatch.setattr(we, "fibres", counted_fibres)
    monkeypatch.setattr(we, "hilbert_at", counted_hilbert)
    report = df_counting(v, flag, r)
    assert report.df == 21
    # one enumeration of the chart box Q per weight sample k, at scale k;
    # a chart flag enumerates no krP, only 1P..nP for h
    assert len({id(q) for q, _ in boxes}) == 1
    sampled = [k for _, k in boxes]
    assert sorted(sampled) == list(range(1, len(sampled) + 1))
    assert len(sampled) >= v.dim + 6
    assert [k for _, k in dilates] == [1, 2]
    assert v.ehrhart_count(r * sampled[-1]) == report.hilbert_poly(
        sampled[-1])
    # the Hilbert fit reads the counts of the sampled k, never hilbert_at
    assert hilbert_ks == []


# ---------------------------------------------------------------------------
# Hilbert fits

def test_hilbert_polynomial_pins():
    assert hilbert_polynomial(projective_space(2, 2), 1).coeffs == (
        Fraction(1), Fraction(3), Fraction(2))
    assert hilbert_polynomial(box((1, 1)), 1).coeffs == (
        Fraction(1), Fraction(2), Fraction(1))
    assert hilbert_polynomial(hirzebruch_anticanonical(), 1).coeffs == (
        Fraction(1), Fraction(4), Fraction(4))
    # r enters through the dilation factor
    assert hilbert_polynomial(projective_space(1, 3), 2).coeffs == (
        Fraction(1), Fraction(6))


def test_hilbert_at_is_a_plain_count():
    v = projective_space(2, 2)
    assert hilbert_at(v, 2, 1) == v.ehrhart_count(2)


# ---------------------------------------------------------------------------
# invariants from fits

def test_chow_number_pins():
    r0 = df_counting(projective_space(1, 1), flag_of([[(1,)]], 1), 1)
    assert r0.chow == 0
    r1 = df_counting(projective_space(1, 2), flag_of([[(2,)]], 1), 1)
    assert r1.chow == 1
    # same numbers by hand from the fitted data
    assert chow_number(r1.weight_poly, r1.hilbert_poly, 1) == (
        r1.hilbert_poly(1) * r1.weight_poly.coefficient(2)
        - r1.weight_poly(1) * r1.hilbert_poly.coefficient(1))


def test_df_matches_coefficient_formula():
    rep = df_counting(projective_space(2, 2), flag_of([[(2, 0), (0, 2)]], 2), 1)
    w, h = rep.weight_poly, rep.hilbert_poly
    assert rep.df == w.coefficient(3) * h.coefficient(1) - \
        w.coefficient(2) * h.coefficient(2)
    assert rep.df == df_from_fits(w, h, 2)
    assert rep.df == 2


# ---------------------------------------------------------------------------
# two-parameter identity

def test_mabuchi_identity_grid():
    rep = df_counting(projective_space(1, 2), flag_of([[(2,)]], 1), 1)
    for k in (2, 4, 6):
        for kp in (2, 3):
            assert mabuchi_check(rep.weight_poly, rep.hilbert_poly, 1, k, kp)


def test_mabuchi_identity_grid_r2():
    v = projective_space(2, 2)
    rep = df_counting(v, flag_of([[(3, 0), (0, 3)]], 2), 2)
    for k in (2, 4):
        for kp in (2, 3):
            assert mabuchi_check(rep.weight_poly, rep.hilbert_poly, 2, k, kp)


def test_mabuchi_requires_divisible_arguments():
    rep = df_counting(projective_space(1, 2), flag_of([[(2,)]], 1), 1)
    with pytest.raises(ValueError):
        mabuchi_check(rep.weight_poly, rep.hilbert_poly, 2, 3, 2)


def test_two_parameter_weight_leading_coefficient():
    # T(K) = A(K) r h(1) - A(1) r K h(K) has degree n+1 and its top
    # coefficient is r times the chow number
    cases = [
        (projective_space(1, 2), flag_of([[(2,)]], 1), 1),
        (projective_space(2, 2), flag_of([[(2, 0), (0, 2)]], 2), 1),
        (projective_space(2, 2), flag_of([[(3, 0), (0, 3)]], 2), 2),
    ]
    for v, flag, r in cases:
        n = v.dim
        rep = df_counting(v, flag, r)
        a = list(rep.weight_poly.coeffs) + [Fraction(0)] * 3
        h = list(rep.hilbert_poly.coeffs) + [Fraction(0)] * 3
        t = [rep.hilbert_poly(1) * r * a[i] for i in range(n + 3)]
        for i in range(n + 2):
            t[i + 1] -= rep.weight_poly(1) * r * h[i]
        assert t[n + 2] == 0
        assert t[n + 1] == r * rep.chow


# ---------------------------------------------------------------------------
# shift law

def test_global_t_power_shifts_weight_by_count():
    v = projective_space(1, 2)
    flag = flag_of([[(2,)]], 1)
    shifted = FlagIdeal(
        nvars=1, mode="chart",
        chain=(MonomialIdeal.zero(1), MonomialIdeal.make(1, [(2,)])),
        support="point", t_power=0)
    for k in range(1, 7):
        assert weight_at(v, shifted, 1, k) == \
            weight_at(v, flag, 1, k) - k * hilbert_at(v, 1, k)
    base = df_counting(v, flag, 1)
    moved = df_counting(v, shifted, 1)
    assert moved.df == base.df == 1
    assert moved.chow == base.chow


def test_check_battery_flags():
    rep = df_counting(projective_space(1, 2), flag_of([[(2,)]], 1), 1)
    assert rep.checks == {"weak_riemann_roch": True}


@pytest.mark.parametrize("variety", [
    projective_space(2, 2), box((1, 2)), hirzebruch_anticanonical()],
    ids=["P2(2)", "box(1,2)", "F1"])
@pytest.mark.parametrize("drop", [0, 1], ids=["h_n", "h_n-1"])
def test_riemann_roch_fails_on_an_off_coefficient(variety, drop):
    # the one report check reads the Hilbert fit: h_n or h_(n-1) off by one
    # no longer matches the intersection numbers
    hpoly = hilbert_polynomial(variety, 1)
    assert riemann_roch_holds(variety, 1, hpoly)
    coeffs = list(hpoly.coeffs)
    coeffs[variety.dim - drop] += 1
    assert not riemann_roch_holds(
        variety, 1, ExactPolynomial(tuple(coeffs), hpoly.k0))


# ---------------------------------------------------------------------------
# counting driver

def test_trivial_flag_reports_zero():
    rep = df_counting(projective_space(2, 1), flag_of([[(0, 0)]], 2), 1)
    assert rep.trivial
    assert rep.df == 0
    assert rep.chow == 0
    assert rep.weight_poly(7) == 0


def test_trivial_flag_window_is_decided_by_the_hilbert_fit():
    # the zero weight needs no samples: on a window of six samples, one
    # short of a degree-3 fit, h (degree 2) fits and DF is 0
    v = projective_space(2, 1)
    rep = df_counting(v, flag_of([[(0, 0)]], 2), 1,
                      FitOptions(window=(1, 6), cap=6))
    assert rep.df == 0
    assert rep.weight_poly.to_json() == {"coefficients": ["0"],
                                         "valid_from": 0}
    assert rep.hilbert_poly.to_json() == {
        "coefficients": ["1", "3/2", "1/2"], "valid_from": 1}


def test_hilbert_fit_shares_the_weight_window(monkeypatch):
    # the weight of m on P^2 needs more than the window (3, 4), so the
    # window is extended, and the walk samples its chart box past k = 4;
    # h fitted on the extended window is the same polynomial, valid from
    # the same k0, as hilbert_polynomial's fit
    v = projective_space(2, 1)
    options = FitOptions(window=(3, 4))
    scales = []
    enumerate_fibres = we.fibres
    monkeypatch.setattr(we, "fibres", lambda poly, k: scales.append(k)
                        or enumerate_fibres(poly, k))
    rep = df_counting(v, flag_of([[(1, 0), (0, 1)]], 2), 1, options)
    monkeypatch.undo()
    assert max(scales) > 4
    want = hilbert_polynomial(v, 1, options).to_json()
    assert rep.hilbert_poly.to_json() == want
    assert want["valid_from"] == 3


def test_counting_detects_quasi_regime():
    v = projective_space(1, 1)
    flag = flag_of([[(2,)]], 1)
    with pytest.raises(NotStabilized) as exc:
        df_counting(v, flag, 1)
    assert exc.value.hint == "quasi_polynomial"
    assert exc.value.quasi_period == 2
    # doubling r restores the polynomial regime
    rep = df_counting(v, flag, 2)
    assert rep.df == 1
    assert rep.notes == []
    assert rep.integrally_closed


def test_fit_window_cap_is_respected():
    v = projective_space(1, 1)
    flag = flag_of([[(1,)]], 1)
    with pytest.raises(NotStabilized):
        df_counting(v, flag, 1, FitOptions(window=(1, 4), cap=4))
    rep = df_counting(v, flag, 1, FitOptions(window=(1, 4), cap=12))
    assert rep.df == 0


def test_closure_fit_on_open_flag():
    v = projective_space(1, 2)
    rep = df_counting(v, flag_of([[(2,)], [(2,)]], 1), 1)
    assert rep.df == 2
    assert rep.integrally_closed is False
    assert rep.closure_df == 0


# ---------------------------------------------------------------------------
# merged evaluation

def test_evaluate_rejects_unknown_pipeline():
    v = projective_space(1, 2)
    with pytest.raises(InvalidInput):
        evaluate(v, flag_of([[(2,)]], 1), 1, pipeline="fast")


def test_evaluate_rejects_a_cap_below_the_window():
    # the default window on P^1 is (1, 7); the closed formula samples
    # nothing, but the options are checked for it too
    v = projective_space(1, 2)
    for pipeline in ("counting", "intersection", "both"):
        with pytest.raises(InvalidInput):
            evaluate(v, flag_of([[(2,)]], 1), 1, pipeline=pipeline,
                     options=FitOptions(cap=4))
    with pytest.raises(InvalidInput):
        FitOptions(window=(1, 8), cap=-5).window_for(1)
    assert FitOptions(window=(1, 8), cap=8).window_for(1) == (1, 8)


def test_evaluate_builds_the_polyhedron_once(monkeypatch):
    # the closure count and the closed formula read the same polyhedron,
    # kept on the flag, so no r builds it again
    calls = []
    build = ma.newton_polyhedron

    def counted(flag):
        calls.append(flag)
        return build(flag)

    monkeypatch.setattr(ma, "newton_polyhedron", counted)
    v = projective_space(2, 2)
    flag = flag_of([[(2, 0), (1, 1), (0, 2)]], 2)
    for r in (1, 2):
        rep = evaluate(v, flag, r, pipeline="both")
        assert rep.consistent is True
        assert rep.closure_df == rep.decomposition.df
    assert calls == [flag]


def test_evaluate_counting_diagnosis_takes_precedence():
    # at r=1 both pipelines fail; the quasi diagnosis must surface
    v = projective_space(1, 1)
    flag = flag_of([[(2,)]], 1)
    with pytest.raises(NotStabilized) as exc:
        evaluate(v, flag, 1, pipeline="both")
    assert exc.value.hint == "quasi_polynomial"
    with pytest.raises(ExponentTooSmall):
        evaluate(v, flag, 1, pipeline="intersection")
    rep = evaluate(v, flag, 2, pipeline="both")
    assert rep.df == 1
    assert rep.consistent is True


def test_evaluate_merges_pipelines():
    v = projective_space(2, 2)
    rep = evaluate(v, flag_of([[(2, 0), (0, 2), (1, 1)]], 2), 1)
    assert rep.pipeline == "both"
    assert rep.df == 1
    assert rep.consistent is True
    assert rep.integrally_closed is True
    assert rep.closure_df == 1
    assert rep.decomposition is not None
    assert rep.decomposition.df == rep.df


def test_evaluate_open_flag_keeps_both_values():
    v = projective_space(2, 2)
    rep = evaluate(v, flag_of([[(2, 0), (0, 2)]], 2), 1)
    assert rep.df == 2
    assert rep.decomposition.df == 1
    assert rep.closure_df == 1
    assert rep.integrally_closed is False
    assert rep.consistent is True


def test_evaluate_cox_flag_skips_intersection():
    v = hirzebruch_anticanonical()
    # variable 2 cuts out the rigid curve with selfintersection -1
    flag = flag_of([[(0, 0, 2, 0)], [(0, 0, 1, 0)]], 4,
                   mode="cox", variety=v)
    rep = evaluate(v, flag, 1, pipeline="both")
    assert rep.df == Fraction(-4, 3)
    assert rep.consistent is None
    assert any("intersection pipeline unavailable" in n for n in rep.notes)


def test_report_json_shape():
    v = projective_space(1, 2)
    rep = evaluate(v, flag_of([[(2,)]], 1), 1)
    doc = rep.to_json_dict()
    assert doc["DF"] == "1"
    assert doc["r"] == 1
    assert doc["pipeline"] == "both"
    assert doc["normalization"] == "A[n+1]*h[n-1] - A[n]*h[n]"
    assert doc["trivial"] is False
    assert doc["integrally_closed"] is True
    assert doc["consistent"] is True
    assert doc["closure_DF"] == "1"
    assert doc["weight_polynomial"]["coefficients"] == ["0", "-1", "-1"]
    assert doc["hilbert_polynomial"]["coefficients"] == ["1", "2"]
    assert doc["chow"] == "1"
    assert set(doc["checks"]) == {"weak_riemann_roch"}
    assert all(isinstance(x, bool) for x in doc["checks"].values())
    assert doc["decomposition"]["DF"] == "1"


def test_evaluate_raises_on_tampered_leading_term(monkeypatch):
    # corrupt the counting fit behind evaluate's back; the cross check
    # against the hull integral must catch it
    import dflab.weight_engine as we

    v = projective_space(1, 2)
    flag = flag_of([[(2,)]], 1)
    rep = df_counting(v, flag, 1)
    rep.weight_poly = ExactPolynomial(
        rep.weight_poly.coeffs[:-1] + (rep.weight_poly.coeffs[-1] + 1,),
        rep.weight_poly.k0)
    monkeypatch.setattr(we, "df_counting", lambda *a, **k: rep)
    with pytest.raises(ConsistencyError):
        evaluate(v, flag, 1, pipeline="both")


def test_evaluate_raises_when_counting_undershoots(monkeypatch):
    # a counting value below the closed formula violates the lower bound
    import dflab.weight_engine as we

    v = projective_space(1, 2)
    flag = flag_of([[(2,)]], 1)
    rep = df_counting(v, flag, 1)
    rep.df = rep.df - 1
    rep.integrally_closed = None
    rep.closure_df = None
    monkeypatch.setattr(we, "df_counting", lambda *a, **k: rep)
    with pytest.raises(ConsistencyError):
        evaluate(v, flag, 1, pipeline="both")


def test_evaluate_intersection_reports_the_closed_formula_alone():
    # m^2 on P^2(2) at r = 2 through the closed formula only: the report
    # holds its DF and decomposition, and nothing of the counting route
    v = projective_space(2, 2)
    rep = evaluate(v, flag_of([[(2, 0), (1, 1), (0, 2)]], 2), 2,
                   pipeline="intersection")
    assert rep.df == rep.decomposition.df == 8
    doc = rep.to_json_dict()
    assert set(doc) == {"DF", "decomposition", "normalization", "pipeline",
                        "r", "trivial"}
    assert (doc["DF"], doc["pipeline"], doc["r"]) == ("8", "intersection", 2)


def test_evaluate_raises_when_the_closed_formula_misses_the_closure_fit(
        monkeypatch):
    # (x^3, y^3) on P^2(2) at r = 2 is not integrally closed: DF is 27,
    # and the closure fit and the closed formula are both 15.  A closed
    # formula of 14 stays below the count but misses the closure fit
    v = projective_space(2, 2)
    flag = flag_of([[(3, 0), (0, 3)]], 2)
    rep = evaluate(v, flag, 2, pipeline="both")
    assert (rep.df, rep.closure_df, rep.decomposition.df) == (27, 15, 15)
    deco = replace(rep.decomposition, df=Fraction(14))
    monkeypatch.setattr(we, "df_intersection", lambda *a: deco)
    with pytest.raises(ConsistencyError, match="closure fit"):
        evaluate(v, flag, 2, pipeline="both")
