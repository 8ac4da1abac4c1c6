"""Monomial ideals, flag ideals, and the level functions of their powers.

A flag ideal J = I_0 + I_1 t + ... + I_{N-1} t^{N-1} + (t^N) packages an
increasing chain of monomial ideals into an ideal on the product with an
affine line.  The quantity everything downstream consumes is the level
function g_k(u): the least power of t that puts x^u t^j inside J^k.

Ideals come in two flavours.  "chart" ideals live in the coordinate ring
of the fixed affine chart; "cox" ideals live in the total coordinate ring
of a smooth variety, one variable per polytope facet, and membership is
tested chart by chart (invert the variables away from each vertex).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import add, le
from sys import maxsize

from .errors import (
    ChainViolation,
    InvalidInput,
    NonPositiveExceptionalRay,
    PointOutsidePolytope,
    UnsupportedMode,
    as_integer,
)
from .hull import facets_of_points
from .intlinalg import dot


def minimalize(gens):
    """Minimal generating set: drop exponents dominated coordinatewise."""
    gens = sorted(set(tuple(int(x) for x in g) for g in gens),
                  key=lambda g: (sum(g), g))
    out = []
    for g in gens:
        if not any(all(x >= y for x, y in zip(g, h)) for h in out):
            out.append(g)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    nvars: int
    gens: tuple   # minimal generators, sorted by (total degree, lex)

    @staticmethod
    def make(nvars, gens):
        ints = []
        for g in gens:
            try:
                g = tuple(as_integer(x, "generator entry") for x in g)
            except TypeError:
                raise InvalidInput(
                    "generator %r is not a list" % (g,)) from None
            if len(g) != nvars:
                raise InvalidInput("generator %r has wrong arity" % (g,))
            if any(x < 0 for x in g):
                raise InvalidInput("generator %r has a negative exponent" % (g,))
            ints.append(g)
        return MonomialIdeal(nvars, minimalize(ints))

    @staticmethod
    def zero(nvars):
        return MonomialIdeal(nvars, ())

    @staticmethod
    def unit(nvars):
        return MonomialIdeal(nvars, (tuple(0 for _ in range(nvars)),))

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return bool(self.gens) and all(x == 0 for x in self.gens[0])

    def contains(self, mono):
        return any(all(x >= y for x, y in zip(mono, g)) for g in self.gens)

    def contains_on(self, mono, idxs):
        """Containment after inverting all variables not listed in idxs."""
        return any(all(mono[i] >= g[i] for i in idxs) for g in self.gens)

    def includes(self, other):
        """True when self contains other as an ideal."""
        return all(self.contains(g) for g in other.gens)

    def includes_on(self, other, idxs):
        return all(self.contains_on(g, idxs) for g in other.gens)

    def product(self, other):
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.nvars)
        return MonomialIdeal(self.nvars, minimalize(
            tuple(x + y for x, y in zip(a, b))
            for a in self.gens for b in other.gens))

    def sum(self, other):
        return MonomialIdeal(self.nvars, minimalize(self.gens + other.gens))


@dataclass(frozen=True)
class FlagIdeal:
    nvars: int
    mode: str        # "chart" or "cox"
    chain: tuple     # (I_0, ..., I_{N-1}), increasing, I_0 nonzero, I_{N-1} non-unit
    support: str     # "point", "general", or "trivial"
    t_power: int     # number of leading zero ideals stripped off

    @property
    def big_n(self):
        return len(self.chain)

    @property
    def trivial(self):
        return not self.chain

    @cached_property
    def polyhedron(self):
        """The flag's newton_polyhedron, built on first use and kept with
        the flag: it does not depend on r or on the variety."""
        return newton_polyhedron(self)


def pure_powers(gens, idxs):
    """For each variable i in idxs, the least e with x_i^e among gens, or
    None when there is none; variables outside idxs count as invertible.

    For an ideal's minimal generators this is the least power of x_i in the
    ideal.  Along an increasing chain those powers can only drop, so the
    chain's last ideal holds the least of them over the whole chain.
    """
    return tuple(
        min((g[i] for g in gens
             if g[i] > 0 and all(g[j] == 0 for j in idxs if j != i)),
            default=None)
        for i in idxs)


def validate_flag_ideal(ideals, mode="chart", variety=None):
    """Normalize a chain of monomial ideals into a FlagIdeal.

    Leading zero ideals are stripped (their count is recorded as a power
    of t multiplying the whole ideal, which shifts weights but not the
    invariant).  Trailing entries equal to the unit ideal are absorbed
    into a shorter chain.  An empty or everywhere-unit result is the
    trivial configuration, reported as a flag rather than an error.

    Every test runs chart by chart: a chart-mode ideal lives on the one
    chart of all its variables, a cox-mode ideal on each maximal chart of
    the variety, with the variables away from the chart inverted.
    """
    if mode not in ("chart", "cox"):
        raise InvalidInput("unknown mode %r" % (mode,))
    if mode == "cox" and variety is None:
        raise InvalidInput("cox mode needs the variety for chart data")
    ideals = list(ideals)
    if not ideals:
        raise InvalidInput("empty ideal chain")
    nvars = ideals[0].nvars
    if any(i.nvars != nvars for i in ideals):
        raise InvalidInput("ideal chain has mixed variable counts")
    if mode == "cox" and nvars != len(variety.polytope.facets):
        raise InvalidInput("cox ideals need one variable per facet")
    charts = ((tuple(range(nvars)),) if mode == "chart"
              else variety.maximal_charts())
    unit = MonomialIdeal.unit(nvars)

    t_power = 0
    while ideals and ideals[0].is_zero:
        ideals.pop(0)
        t_power += 1
    if not ideals:
        return FlagIdeal(nvars, mode, (), "trivial", t_power)

    for prev, cur in zip(ideals, ideals[1:]):
        if not all(cur.includes_on(prev, c) for c in charts):
            raise ChainViolation("ideal chain is not increasing")

    while ideals and all(ideals[-1].includes_on(unit, c) for c in charts):
        ideals.pop()
    if not ideals:
        # unit chain: J is a pure power of t
        return FlagIdeal(nvars, mode, (), "trivial", t_power)

    chain = tuple(ideals)
    # on each chart every ideal is the unit or holds a power of each variable
    point = all(i.includes_on(unit, c) or None not in pure_powers(i.gens, c)
                for c in charts for i in chain)
    return FlagIdeal(nvars, mode, chain, "point" if point else "general",
                     t_power)


def _chart_functionals(variety, flag):
    """Per maximal chart: (facet indices, functionals, offsets), so that the
    chart exponents of a lattice point u of sP are <a, u> - s * c, leaving
    out each chart where a generator of I_0 projects to 0: every level is 0."""
    facets = variety.polytope.facets
    first = flag.chain[0].gens
    return [(chart, tuple(facets[i][0] for i in chart),
             tuple(facets[i][1] for i in chart))
            for chart in variety.maximal_charts()
            if all(any(g[i] for i in chart) for g in first)]


def _strides(shape):
    """Row-major strides of a box with the given side lengths."""
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


def _pad(table, shape, new_shape):
    """The row-major table on the box shape, extended to the box new_shape
    by repeating its last cell along every axis.  Only the axes whose side
    grows are rebuilt; when none does, the table itself is returned."""
    inner = 1
    for i in range(len(shape) - 1, -1, -1):
        chunk = shape[i] * inner
        extra = new_shape[i] - shape[i]
        if extra:
            out = []
            for start in range(0, len(table), chunk):
                out += table[start:start + chunk]
                out += table[start + chunk - inner:start + chunk] * extra
            table = out
        inner *= new_shape[i]
    return table


def _chart_moves(flag, idxs):
    """Pairs (g, j): a generator g of I_j projected onto the chart variables
    idxs, leaving out each pair that an earlier one reaches at a level no
    higher (the chain increases, so earlier means lower)."""
    moves = []
    for j, ideal in enumerate(flag.chain):
        for g in minimalize(tuple(g[i] for i in idxs) for g in ideal.gens):
            if not any(all(x >= y for x, y in zip(g, h)) for h, _ in moves):
                moves.append((g, j))
    return moves


@dataclass
class _ChartTable:
    idxs: tuple      # the chart's variables, as facet indices
    funcs: tuple     # exponent i of u in sP is <funcs[i], u> - s * offs[i]
    offs: tuple
    side: tuple      # D_i: J^k is stepped on the box of side k * D_i
    reach: tuple     # e_i: advance pads live axes to the box of side k * e_i
    moves: list      # _chart_moves on this chart
    shape: list
    table: list      # row-major levels over the box of side lengths shape


class LevelStepper:
    """Level tables of the non-trivial flag's powers J^k for k = 0, 1, 2,
    ..., on the charts that can hold a level, each built from the one before.

    A chart flag is counted as its cox_lift, so it needs ideals supported
    at the chart point; only the chart vertex's chart is kept (see below),
    so P need not be smooth, as it must be for a cox flag.

    Localization is a ring map, so on a chart the level function of J^k is
    the min-plus convolution of that of J^(k-1) with that of J.  Levels do
    not increase with the exponent, so the best split of y puts exactly a
    projected generator g of I_j (or nothing, at level N) on the J side:

        t_k(y) = min(t_(k-1)(y) + N, min over (g, j) of t_(k-1)(y - g) + j)

    with t_0 = 0, each generator term one shifted elementwise min over the
    whole flat table, with the cells it reads across a row put back (see
    step).  With D_i the largest projected generator exponent on axis i (0
    with no moves), every generator of J^k is at most k * D on the chart,
    so t_k is constant along axis i past k * D_i: J^k is stepped on the box
    of side k * D_i, padding J^(k-1)'s table by its last cell on each axis
    is exact, and advance pads J^k's table the same way to the
    box of side k * e_i that krP reads, e_i = max(D_i, r * w_i) with w_i
    the width over P of the chart's facet i (LatticePolytope.widths).

    Axis i is live when D_i > 0.  The moves are 0 on the other axes, so a
    chart's level is that of J^k with every variable but its live ones
    inverted, and inverting more can only lower a level: a chart whose
    live variables all lie in another chart never reads above it.  Visited
    by decreasing number of live variables, a chart is kept only when no
    chart kept before holds all its live variables.
    """

    def __init__(self, variety, flag, r):
        if flag.mode == "chart":
            if flag.support != "point":
                raise UnsupportedMode("chart-mode counting needs ideals "
                                      "supported at the chart point")
            self._frame = variety.chart_facets
            flag = cox_lift(variety, flag)
        elif not variety.smooth:
            raise UnsupportedMode("cox-mode counting needs a smooth polytope")
        self.k = 0
        self.big_n = flag.big_n
        widths = variety.polytope.widths
        charts = []
        for idxs, funcs, offs in _chart_functionals(variety, flag):
            moves = _chart_moves(flag, idxs)
            side = tuple(max([g[i] for g, _ in moves], default=0)
                         for i in range(len(idxs)))
            reach = tuple(max(d, r * widths[f]) for d, f in zip(side, idxs))
            charts.append(_ChartTable(
                idxs, funcs, offs, side, reach, moves, [1] * len(side), [0]))
        self._charts = []
        for ch in sorted(charts, key=lambda ch: -sum(map(bool, ch.side))):
            live = {f for f, d in zip(ch.idxs, ch.side) if d}
            if not any(live <= set(kept.idxs) for kept in self._charts):
                self._charts.append(ch)

    def step(self):
        """Advance every kept chart's table from J^k to J^(k+1)."""
        self.k += 1
        for ch in self._charts:
            shape = [self.k * e + 1 for e in ch.side]
            if prod(shape) > maxsize:
                raise InvalidInput("the level table of J^%d has %d cells, "
                                   "too many to index" % (self.k, prod(shape)))
            old = _pad(ch.table, ch.shape, shape)
            strides = _strides(shape)
            new = [x + self.big_n for x in old]
            for g, j in ch.moves:
                off = dot(strides, g)
                # a cell y >= g sits at p >= off, and p - off is the index
                # of y - g, so one pass over new[off:] against the start of
                # old (zip stops at its end) covers every such cell.  The
                # other cells at p >= off have y_i < g_i on some axis
                # i >= 1, where p mod strides[i - 1] < g_i * strides[i];
                # they are kept aside by slices of step strides[i - 1] and
                # put back after the pass
                kept = [(c, step, new[c::step])
                        for step, x, stride in zip(strides, g[1:], strides[1:])
                        for c in range(x * stride)]
                new[off:] = [x if x <= y + j else y + j
                             for x, y in zip(new[off:], old)]
                for c, step, cells in kept:
                    new[c::step] = cells
            ch.shape, ch.table = shape, new

    def advance(self, k):
        """Step up to J^k (k at least the current power) and return the
        level function of J^k on krP, one table per kept chart.

        Returns a list of (A, C, table) with
        g_k(u) = max over the list of table[<A, u> - k * r * C].  Each table
        is the stepped one padded to the box of side k * e_i on the live
        axes, which holds the chart exponents of krP, and of side 1 with
        stride 0 on the dead ones, along which it is constant.  A and C
        fold the chart functionals, their offsets and the strides into one
        dot product."""
        if k < self.k:
            raise ValueError("cannot step back from J^%d to J^%d" % (self.k, k))
        while self.k < k:
            self.step()
        out = []
        for ch in self._charts:
            shape = [k * e + 1 if d else 1 for d, e in zip(ch.side, ch.reach)]
            strides = [s if d else 0 for d, s in zip(ch.side, _strides(shape))]
            weights = tuple(dot(strides, col) for col in zip(*ch.funcs))
            out.append((weights, dot(strides, ch.offs),
                        _pad(ch.table, ch.shape, shape)))
        return out

    def chart_tables(self, k):
        """A chart flag's [(A, 0, table)] for J^k, g_k(y) = table[<A, y>] at
        chart coordinates 0 <= y <= k * side: its one kept table, stepped up
        to k and unpadded, A its strides in the order of the variables."""
        while self.k < k:
            self.step()
        ch, = self._charts
        strides = _strides(ch.shape)
        return [(tuple(strides[ch.idxs.index(f)] for f in self._frame), 0,
                 ch.table)]


def t_degree(variety, flag, r, k, u):
    """g_k(u): least t-power putting the section at lattice point u of krP
    inside J^k.  The stripped chain is used; callers add k * t_power for
    the unnormalized ideal.

    The level is read from the LevelStepper tables of J^k, the largest of
    the point's entries over the charts, as weight_at reads it for all of
    krP at once.  A point outside krP raises PointOutsidePolytope: its
    chart exponents would fall off the box the tables cover, and a
    negative k raises InvalidInput.
    """
    if k < 0:
        raise InvalidInput("k must be at least 0, not %d" % k)
    scale = k * r
    if any(dot(a, u) < scale * c for a, c in variety.polytope.facets):
        raise PointOutsidePolytope(
            "point %r is outside the dilate %dP" % (tuple(u), scale))
    if flag.trivial:
        return 0
    return max(table[dot(a, u) - scale * c]
               for a, c, table in LevelStepper(variety, flag, r).advance(k))


# ---------------------------------------------------------------------------
# Newton polyhedron of the flag ideal in chart coordinates

@dataclass(frozen=True)
class ExceptionalFacet:
    normal: tuple      # primitive, all entries positive; last entry is the t-weight
    order: int         # min of <normal, p> over the support; the facet's level
    points: tuple      # support points lying on the facet, sorted


@dataclass(frozen=True)
class NewtonPolyhedron:
    facets: tuple      # compact lower facets only


def phi_value(np_, x):
    """Support function of the lower hull: least s with (x, s) in the region.

    x may be rational; entries must be >= 0.  The value is max(0, ...) over
    the compact facets, exact as a Fraction.
    """
    if any(t < 0 for t in x):
        raise InvalidInput("phi is only defined on the nonnegative orthant")
    best = Fraction(0)
    for f in np_.facets:
        w = f.normal
        num = f.order - dot(w[:-1], x)
        if num > 0:
            val = Fraction(num, w[-1])
            if val > best:
                best = val
    return best


def _lower_points(pts):
    """The points of the sorted list pts that may lie on a compact face of
    conv(pts) + nonnegative orthant, in order.

    A point p is left out when 2p >= q1 + q2 in every coordinate and > in
    one, for some q1, q2 in pts (q1 = q2, or either one p, allowed).  A
    compact face has a strictly positive inner normal w and order c, the
    least <w, q> over pts, and <w, p> > <w, (q1 + q2) / 2> >= c, so p is
    on no compact face.  Every vertex of the polyhedron is a compact face,
    so the polyhedron without p is the same, and each compact facet keeps
    its normal, its order and the points on it.  Such a sum has total
    degree below 2|p|; the sums are scanned in order of total degree up to
    2|p|, which also keeps a p whose only such sum is 2p.  At most d + 1
    points in R^d are returned as given: the search tries at most d + 1
    subsets of them, which costs less than the sums.
    """
    if len(pts) <= len(pts[0]) + 1:
        return pts
    sums = sorted((tuple(map(add, q, r)) for i, q in enumerate(pts)
                   for r in pts[i:]), key=sum)
    degs = [sum(s) for s in sums]
    out = []
    for p in pts:
        two = [2 * x for x in p]
        if not any(all(map(le, s, two))
                   for s in sums[:bisect_left(degs, 2 * sum(p))]):
            out.append(p)
    return out


def newton_polyhedron(flag):
    """Compact lower facets of conv(support(J)) + nonnegative orthant.

    Defined for chart-mode, point-supported flags; the compact facets then
    cut out the region exactly, which is what the integral formulas need.
    The facet search runs over the support points that may lie on a
    compact face (_lower_points), and keeps the facets of their hull with
    a strictly positive normal.  Each call builds the polyhedron anew;
    flag.polyhedron keeps one.
    """
    if flag.trivial:
        return NewtonPolyhedron(facets=())
    if flag.mode != "chart":
        raise UnsupportedMode("newton polyhedron is chart-mode only")
    if flag.support != "point":
        raise NonPositiveExceptionalRay(
            "support is not the chart point; some exceptional rays would "
            "have a non-positive entry and the compact facets would not "
            "determine the region")
    pts = set()
    for j, ideal in enumerate(flag.chain):
        for g in ideal.gens:
            pts.add(g + (j,))
    pts.add(tuple(0 for _ in range(flag.nvars)) + (flag.big_n,))
    # a face of conv(S) + orthant is compact iff its inner normal is
    # strictly positive, and is then a face of conv(S); pure powers alone
    # span one hyperplane, found in both orientations, and one is kept
    facets = []
    for f in facets_of_points(_lower_points(sorted(pts))):
        if min(f.normal) > 0:
            assert f.offset > 0
            facets.append(ExceptionalFacet(
                normal=f.normal, order=int(f.offset), points=f.points))
    return NewtonPolyhedron(facets=tuple(facets))


def cox_lift(variety, flag):
    """Chart-mode flag rewritten in total-coordinate variables.

    Pads each chart generator with zeros on the facets away from the chart
    vertex; exact for point-supported chains, where the associated sheaf
    is co-supported at the chart point.  The chain, its support and t_power
    are kept as given: padding keeps each ideal's generators minimal.
    """
    if flag.mode != "chart":
        raise InvalidInput("cox_lift starts from a chart-mode flag")
    if flag.support != "point":
        raise UnsupportedMode("cox_lift needs a point-supported chain")
    nf = len(variety.polytope.facets)
    idx = variety.chart_facets
    lifted = []
    for ideal in flag.chain:
        gens = []
        for g in ideal.gens:
            e = [0] * nf
            for j, x in enumerate(g):
                e[idx[j]] = x
            gens.append(tuple(e))
        lifted.append(MonomialIdeal(nf, tuple(sorted(
            gens, key=lambda g: (sum(g), g)))))
    return FlagIdeal(nf, "cox", tuple(lifted), flag.support, flag.t_power)
