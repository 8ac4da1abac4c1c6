"""Weight counting pipeline and exact polynomial fits.

The total t-weight of the degeneration's central fibre sections is
W(K) = -sum over lattice points u of KrP of g_K(u), with g_K the level
function of the flag ideal's K-th power.  For K large this is a
polynomial of degree n+1; fitting it exactly and pairing it with the
Ehrhart polynomial of P yields the invariant

    DF = A_{n+1} h_{n-1} - A_n h_n

where A is the fitted weight polynomial and h(K) = #(KrP).  Everything
is integer or Fraction arithmetic; nothing is rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial

from .errors import (
    ConsistencyError,
    InvalidInput,
    NotStabilized,
    UnsupportedMode,
)
from .intersection_engine import df_intersection
from .intlinalg import dot
from .lattice_geometry import fibres
from .monomial_algebra import LevelStepper, pure_powers


@dataclass(frozen=True)
class ExactPolynomial:
    """Polynomial with Fraction coefficients, valid for arguments >= k0."""

    coeffs: tuple       # lowest degree first
    k0: int = 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def to_json(self):
        return {
            "coefficients": [str(c) for c in self.coeffs],
            "valid_from": self.k0,
        }


def _forward_diffs(values):
    return [b - a for a, b in zip(values, values[1:])]


def _quasi_period(samples, max_degree):
    """Detect a period q in (2, 3, 4) such that each residue class of the
    sample index follows its own polynomial of degree <= max_degree."""
    ks = sorted(samples)
    for q in (2, 3, 4):
        ok = True
        for r in range(q):
            sub = [samples[k] for k in ks if k % q == r]
            if len(sub) < max_degree + 3:
                ok = False
                break
            diffs = sub
            for _ in range(max_degree + 1):
                diffs = _forward_diffs(diffs)
            if any(d != 0 for d in diffs):
                ok = False
                break
        if ok:
            return q
    return None


def fit_polynomial(samples, max_degree, guard=2):
    """Fit the eventual polynomial of degree <= max_degree to samples.

    samples maps consecutive integers k to exact values.  The fit demands
    that the (max_degree+1)-th forward differences vanish on at least
    ``guard`` trailing windows; the polynomial is then interpolated from
    the last max_degree+1 samples and checked against every sample from
    the first stabilized index onward.

    The interpolant is Newton's forward form over the last d+1 samples,
    d = max_degree, times d!: with integer samples its coefficients are
    integer numerators over d!, samples v are checked by Horner evaluation
    of the numerators against v * d!, and Fractions are built only for the
    returned coefficients.  The Fraction Lagrange fit in tests/oracles.py
    is the reference.
    """
    ks = sorted(samples)
    if ks and ks != list(range(ks[0], ks[0] + len(ks))):
        raise ValueError("samples must cover consecutive integers")
    d = max_degree
    need = d + 2 + guard
    if len(ks) < need:
        raise NotStabilized(
            "need at least %d consecutive samples for degree %d" % (need, d))
    diffs = [samples[k] for k in ks]
    # the i-th differences at the first of the last d + 1 samples
    heads = []
    for _ in range(d + 1):
        heads.append(diffs[len(ks) - d - 1])
        diffs = _forward_diffs(diffs)
    trailing = 0
    for x in reversed(diffs):
        if x != 0:
            break
        trailing += 1
    if trailing < guard:
        q = _quasi_period(samples, d)
        if q is not None:
            raise NotStabilized(
                "samples follow a degree-%d quasi-polynomial of period %d, "
                "not a polynomial" % (d, q),
                hint="quasi_polynomial", quasi_period=q)
        raise NotStabilized(
            "high-order differences of the samples have not vanished yet",
            hint="extend_k_range")
    # first index from which the polynomial model holds; the window just
    # before it does not vanish, so the sample at k0 - 1 is off the model
    k0 = ks[len(diffs) - trailing]
    # d! times the Newton form: the sum over i of heads[i] * d!/i! times
    # (x - s)(x - s - 1)...(x - s - i + 1), s = ks[-(d + 1)], expanded
    # from the innermost term outward
    scale = factorial(d)
    nums = [heads[d]]
    for i in range(d - 1, -1, -1):
        m = ks[-(d + 1)] + i
        nums = [a - m * b for a, b in zip([0] + nums, nums + [0])]
        nums[0] += heads[i] * (scale // factorial(i))
    for k in range(k0, ks[-1] + 1):
        acc = 0
        for c in reversed(nums):
            acc = acc * k + c
        if acc != samples[k] * scale:
            raise NotStabilized(
                "interpolant disagrees with sample at k=%d" % k,
                hint="extend_k_range")
    coeffs = [Fraction(c, scale) for c in nums]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ExactPolynomial(tuple(coeffs), k0)


# ---------------------------------------------------------------------------
# sample generators

def weight_at(variety, flag, r, k):
    """W(k) for the stripped flag: minus the total level over krP.

    Levels come from LevelStepper tables of J^k, each read at an affine
    functional of a point, one stepped slice per fibre (see _weight), so
    no point is built.  A cox flag reads advance's tables over krP.  A
    chart flag's level is 0 where some chart coordinate y_i >= k * D_i
    (_side), so it reads chart_tables over the staircase box k * Q (see
    _walk) only.  The reference is the literal expansion of J^k in
    tests/oracles.py, which shares no code with this.
    """
    return weight_sequence(variety, flag, r, (k,))[k]


def _weight(tables, scale, fib):
    """Minus the total level over the Fibres fib of a dilate at scale (krP
    at k * r, or k * Q at k; see _walk), from level tables (A, C, table) of
    J^k or of _closure_tables; no table weighs 0, reading no fib.

    Over a fibre the flat index <A, u> - scale * C of a table is
    b + a * x for lo <= x <= hi, with a = A[-1] and b = <A', p> - scale *
    C, so the table's levels along the fibre are its slice with step a:
    read backwards and reversed when a < 0, one cell repeated when a = 0.
    Each table's offsets b are one column over the fibres, built from the
    prefix axis columns.  Each point's level is the largest over the
    tables.  A slice past the end of a table comes back short, so a table
    that does not cover the fib.count points of the dilate raises
    ConsistencyError."""
    levels = None
    for weights, c, table in tables:
        offsets = [-scale * c] * len(fib.los)
        for h, axis in zip(weights, fib.axes):
            if h:
                offsets = [b + h * x for b, x in zip(offsets, axis)]
        a = weights[-1]
        col = []
        for b, lo, hi in zip(offsets, fib.los, fib.his):
            if a > 0:
                col += table[b + a * lo:b + a * hi + 1:a]
            elif a < 0:
                col += table[b + a * hi:b + a * lo + 1:-a][::-1]
            else:
                col += [table[b]] * (hi - lo + 1)
        if len(col) != fib.count:
            raise ConsistencyError(
                "level table %r covers %d of the %d points of the dilate %d"
                % (weights, len(col), fib.count, scale))
        levels = col if levels is None else \
            [x if x >= y else y for x, y in zip(levels, col)]
    return -sum(levels) if levels else 0


def _check_k(k):
    if k < 0:
        raise InvalidInput("k must be at least 0, not %d" % k)


def weight_sequence(variety, flag, r, ks):
    """{k: weight_at(variety, flag, r, k)} over the ks, from one walk
    sampled across them in increasing order: the tables of J^k are built
    once up to the largest k, not once per k.  A negative k raises
    InvalidInput, for a trivial flag too."""
    ks = sorted(ks)
    if ks:
        _check_k(ks[0])
    sample = _walk(variety, flag, r, closure=False)
    return {k: sample(k)[1] for k in ks}


def _strip(flag):
    """(m, the flag less its first m ideals, all zero, as only a chain not
    from validate_flag_ideal has): each level of J^k is k * m over theirs."""
    m = next((j for j, i in enumerate(flag.chain) if not i.is_zero),
             len(flag.chain))
    return m, replace(flag, chain=flag.chain[m:]) if m else flag


def _side(flag):
    """D, the pure powers of I_0 of a point-supported chart flag: the table
    of J^k is stepped on the box of side k * D, and J^k and its closure
    hold x_i^(k D_i), so both levels are 0 where some y_i >= k * D_i."""
    return pure_powers(flag.chain[0].gens, range(flag.nvars))


def _walk(variety, flag, r, closure):
    """sample(k) -> (h(k), W(k), the closure weight or None), for k
    increasing across calls.

    W reads one LevelStepper, which steps J^k from J^(k-1); a trivial flag
    has none and weighs 0.  A cox flag reads krP from the variety's fibre
    store (dilate_fibres), h(k) being its count.  A chart flag reads the
    fibres of k * Q, Q = PolarizedToricVariety.chart_box(r, _side(flag))
    built once per walk, and h(k) is ehrhart_count(k * r), as for a
    trivial flag: no krP is enumerated.  The closure weight is counted only
    when closure is set, over the same fibres, from _closure_tables.
    """
    m, flag = _strip(flag)
    stepper = None if flag.trivial else LevelStepper(variety, flag, r)
    box = variety.chart_box(r, _side(flag)) \
        if stepper and flag.mode == "chart" else None
    facets = _closure_facets(variety, flag, r) if closure else None

    def sample(k):
        if stepper and box is None:
            fib = variety.dilate_fibres(k * r)
            h, tables, scale = fib.count, stepper.advance(k), k * r
        else:
            # the table first, so that one too large to index raises before
            # the box is enumerated; a trivial flag reads no table
            tables = stepper.chart_tables(k) if stepper else []
            fib = box and fibres(box, k)
            h, scale = variety.ehrhart_count(k * r), k
        return (h, _weight(tables, scale, fib) - k * m * h,
                _weight(_closure_tables(facets, r, k), scale, fib) - k * m * h
                if closure else None)

    return sample


def closure_weight_at(variety, flag, r, k):
    """Weight computed from the lower hull: levels ceil(k * phi(y / k)).

    Counting against the hull rather than the ideal powers gives the
    integral closure's weight; it never exceeds the true level count.
    The levels are read from _closure_tables over the chart box k * Q of
    _walk, outside which they are 0; ceil(k * phi_value(np, y / k)) at the
    chart coordinates y of krP is the per-point reference.  A negative k
    raises InvalidInput.
    """
    _check_k(k)
    m, flag = _strip(flag)
    facets = _closure_facets(variety, flag, r)
    shift = k * m * variety.ehrhart_count(k * r) if m else 0
    fib = facets and fibres(variety.chart_box(r, _side(flag)), k)
    return _weight(_closure_tables(facets, r, k), k, fib) - shift


def _closure_facets(variety, flag, r):
    """Per compact facet f of the Newton polyhedron, (w, 0, <w, D>, order,
    t): what _closure_tables needs of f at every k, built once per walk.

    At chart coordinates y, k * phi(y / k) = max(0, max_f (k * order_f -
    <w_f, y>) / t_f) over the compact facets f, whose normals (w_f, t_f)
    are strictly positive; on the box 0 <= y <= k * D, D = _side(flag),
    <w, y> runs over 0 .. k <w, D>.  The variety and r do not enter.
    """
    return [(f.normal[:-1], 0, dot(f.normal[:-1], _side(flag)), f.order,
             f.normal[-1]) for f in flag.polyhedron.facets]


def _closure_tables(facets, r, k):
    """The closure levels of k * Q as level tables (w, 0, table) for _weight,
    one per entry (w, 0, hi, order, t) of _closure_facets.

    The ceiling of a maximum is the maximum of the ceilings, so each facet
    gives one table of its levels max(0, ceil((k * order - s) / t)) at
    s = <w, y> = 0 .. k * hi.  r does not enter.
    """
    tables = []
    for w, c, hi, order, t in facets:
        # ceil(m / t) == (m + t - 1) // t for t > 0
        top = k * order + t - 1
        tables.append((w, c, [max(0, (top - s) // t)
                              for s in range(k * hi + 1)]))
    return tables


def hilbert_at(variety, r, k):
    """h(k) = #krP, P's Ehrhart polynomial at k r; k < 0 is InvalidInput."""
    _check_k(k)
    return variety.ehrhart_count(k * r)


# ---------------------------------------------------------------------------
# fitting driver

@dataclass(frozen=True)
class FitOptions:
    window: tuple = None   # inclusive (k_min, k_max); default (1, n + 6)
    guard: int = 2
    cap: int = 40

    def __post_init__(self):
        if self.window is not None:
            lo, hi = self.window
            if lo < 1 or hi < lo:
                raise InvalidInput(
                    "fit window %r must satisfy 1 <= k_min <= k_max"
                    % (tuple(self.window),))
        if self.guard < 1:
            # with no guard window the fit checks no sample past its nodes
            raise InvalidInput(
                "guard must be at least 1, not %r" % (self.guard,))

    def window_for(self, n):
        """The sample window used in dimension n; a cap below its top
        raises InvalidInput, since the window could never be extended."""
        lo, hi = self.window or (1, n + 6)
        if self.cap < hi:
            raise InvalidInput("fit cap %r is below the window top %d"
                               % (self.cap, hi))
        return lo, hi


@dataclass
class DFReport:
    df: Fraction
    r: int
    pipeline: str
    trivial: bool
    weight_poly: ExactPolynomial = None
    hilbert_poly: ExactPolynomial = None
    chow: Fraction = None
    checks: dict = field(default_factory=dict)
    integrally_closed: bool = None
    closure_df: Fraction = None
    decomposition: object = None
    consistent: bool = None
    notes: list = field(default_factory=list)

    def to_json_dict(self):
        out = {
            "DF": str(self.df),
            "r": self.r,
            "pipeline": self.pipeline,
            "normalization": "A[n+1]*h[n-1] - A[n]*h[n]",
            "trivial": self.trivial,
        }
        if self.weight_poly is not None:
            out["weight_polynomial"] = self.weight_poly.to_json()
        if self.hilbert_poly is not None:
            out["hilbert_polynomial"] = self.hilbert_poly.to_json()
        if self.chow is not None:
            out["chow"] = str(self.chow)
        if self.checks:
            out["checks"] = {k: bool(v) for k, v in sorted(self.checks.items())}
        if self.integrally_closed is not None:
            out["integrally_closed"] = self.integrally_closed
        if self.closure_df is not None:
            out["closure_DF"] = str(self.closure_df)
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.to_json_dict()
        if self.consistent is not None:
            out["consistent"] = self.consistent
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _fit_with_extension(sampler, fit, options, n):
    """(fit(samples), samples) over the window of options in dimension n,
    doubling its top up to options.cap while fit raises NotStabilized with
    a hint other than quasi_polynomial."""
    lo, hi = options.window_for(n)
    samples = {k: sampler(k) for k in range(lo, hi + 1)}
    while True:
        try:
            return fit(samples), samples
        except NotStabilized as exc:
            if exc.hint == "quasi_polynomial":
                raise
            new_hi = min(options.cap, hi * 2)
            if new_hi <= hi:
                raise
            for k in range(hi + 1, new_hi + 1):
                samples[k] = sampler(k)
            hi = new_hi


def hilbert_polynomial(variety, r, options=None):
    options = options or FitOptions()
    n = variety.dim
    poly, _ = _fit_with_extension(
        lambda k: hilbert_at(variety, r, k),
        lambda samples: fit_polynomial(samples, n, options.guard),
        options, n)
    return poly


def chow_number(weight_poly, hilbert_poly, n):
    """h(1) A_{n+1} - A(1) h_n: the leading obstruction to a product split."""
    return (hilbert_poly(1) * weight_poly.coefficient(n + 1)
            - weight_poly(1) * hilbert_poly.coefficient(n))


def df_from_fits(weight_poly, hilbert_poly, n):
    return (weight_poly.coefficient(n + 1) * hilbert_poly.coefficient(n - 1)
            - weight_poly.coefficient(n) * hilbert_poly.coefficient(n))


def mabuchi_check(weight_poly, hilbert_poly, r, k, kp):
    """Exact two-parameter consistency identity on the fitted polynomials.

    With w(x) = A(x / r) and P(x) = h(x / r) (so both take honest section
    counts at x divisible by r) and wtilde(a, b) = w(b) a P(a) - w(a) b P(b),
    the slope of the two-parameter weight satisfies

       wtilde(r, kkp) / (kkp P(kkp)) - wtilde(r, k) / (k P(k))
         = r P(r) wtilde(k, kkp) / (k^2 kp P(kkp) P(k)).

    Both sides are evaluated as exact fractions, but the equality is an
    algebraic identity: each side reduces to
    r P(r) (w(kkp) / (kkp P(kkp)) - w(k) / (k P(k))), so it holds for any
    polynomials w and P with P(k) and P(kkp) nonzero, and no slip in the
    fits can break it.
    """
    if k % r != 0 or (k * kp) % r != 0:
        raise ValueError("k and k*kp must be divisible by r")

    def w(x):
        return weight_poly(Fraction(x, r))

    def p(x):
        return hilbert_poly(Fraction(x, r))

    def wtilde(a, b):
        return w(b) * a * p(a) - w(a) * b * p(b)

    kk = k * kp
    lhs = wtilde(r, kk) / (kk * p(kk)) - wtilde(r, k) / (k * p(k))
    rhs = Fraction(r) * p(r) * wtilde(k, kk) / (Fraction(k) ** 2 * kp * p(kk) * p(k))
    return lhs == rhs


def riemann_roch_holds(variety, r, hilbert_poly):
    """Weak Riemann-Roch: the fitted Hilbert polynomial of rP reproduces
    the intersection numbers, n! h_n = L^n r^n and
    2 (n - 1)! h_(n-1) = -L^(n-1).K r^(n-1)."""
    n = variety.dim
    ln, lk = variety.intersection_numbers()
    fact_n = factorial(n)
    return (hilbert_poly.coefficient(n) * fact_n == ln * r ** n
            and hilbert_poly.coefficient(n - 1) * 2 * (fact_n // n)
            == -lk * r ** (n - 1))


def _column(samples, i):
    return {k: sample[i] for k, sample in samples.items()}


def df_counting(variety, flag, r, options=None):
    """Counting pipeline: fit W and the Hilbert function, read off DF.

    One walk samples h, W and, for point-supported chart flags, the
    closure weight at each k of one window.  The window grows until W
    fits, or for a trivial flag, whose weight is the zero polynomial,
    until h fits; h and the closure weight are fitted on that window.
    """
    options = options or FitOptions()
    n = variety.dim
    note = _semiample_precheck(variety, flag, r)
    closure = flag.mode == "chart" and flag.support == "point"
    sample = _walk(variety, flag, r, closure)

    def fit(samples):
        # h is an Ehrhart polynomial of degree n, exact from k = 0, so a
        # window on which the degree-(n+1) weight fits also fits h
        if flag.trivial:
            wpoly = ExactPolynomial((Fraction(0),), 0)
        else:
            wpoly = fit_polynomial(_column(samples, 1), n + 1, options.guard)
        return wpoly, fit_polynomial(_column(samples, 0), n, options.guard)

    (wpoly, hpoly), samples = _fit_with_extension(sample, fit, options, n)
    report = DFReport(df=df_from_fits(wpoly, hpoly, n), r=r,
                      pipeline="counting", trivial=flag.trivial,
                      weight_poly=wpoly, hilbert_poly=hpoly,
                      chow=chow_number(wpoly, hpoly, n))
    report.checks = {
        "weak_riemann_roch": riemann_roch_holds(variety, r, hpoly)}
    if note:
        report.notes.append(note)
    # closure comparison doubles as an integral-closedness detector
    if closure:
        closure_samples = _column(samples, 2)
        report.integrally_closed = closure_samples == _column(samples, 1)
        try:
            cpoly = fit_polynomial(closure_samples, n + 1, options.guard)
            report.closure_df = df_from_fits(cpoly, hpoly, n)
        except NotStabilized:
            pass
    return report


def _semiample_precheck(variety, flag, r):
    """Cheap early warning: if r is small against the generator degrees the
    fit usually lands in the quasi-polynomial regime."""
    if flag.mode != "chart" or flag.support != "point":
        return None
    # the chain increases, so its last ideal has the least pure powers
    axis = pure_powers(flag.chain[-1].gens, range(variety.dim))
    # chart axis j runs up to the width of chart facet j on P
    for e, f in zip(axis, variety.chart_facets):
        if e is not None and r * variety.polytope.widths[f] < e:
            return ("exceptional locus may be clipped at r=%d; expect a "
                    "quasi-polynomial or an exponent error" % r)
    return None


def evaluate(variety, flag, r, pipeline="both", options=None):
    """Run the requested pipelines and merge them into one report.

    pipeline is "counting", "intersection", or "both".  When both run,
    their invariants are compared exactly: the intersection value is a
    lower bound for the counting value and equals the closure fit where
    there is one; for an integrally closed flag that fit reads the weight
    samples themselves.  Disagreement outside those rules raises
    ConsistencyError.
    """
    options = options or FitOptions()
    if pipeline not in ("counting", "intersection", "both"):
        raise InvalidInput("unknown pipeline %r" % (pipeline,))
    # every pipeline rejects a cap below the window, used or not
    options.window_for(variety.dim)

    if pipeline == "intersection":
        deco = df_intersection(variety, flag, r)
        return DFReport(df=deco.df, r=r, pipeline="intersection",
                        trivial=flag.trivial, decomposition=deco)

    # counting runs first: when r is too small its quasi-polynomial
    # diagnosis is the primary error; the closed formula's exponent guard
    # still fires on inputs whose counts happen to stabilize anyway
    report = df_counting(variety, flag, r, options)
    if pipeline == "counting":
        return report

    report.pipeline = "both"
    try:
        deco = df_intersection(variety, flag, r)
    except UnsupportedMode as exc:
        report.notes.append("intersection pipeline unavailable: %s" % exc)
        report.consistent = None
        return report
    report.decomposition = deco
    n = variety.dim
    fact_np1 = factorial(n + 1)
    if report.weight_poly.coefficient(n + 1) * fact_np1 != deco.le_power:
        raise ConsistencyError(
            "leading weight coefficient %s disagrees with the hull integral"
            % (report.weight_poly.coefficient(n + 1),))
    if deco.df > report.df:
        raise ConsistencyError(
            "intersection value %s exceeds counting value %s"
            % (deco.df, report.df))
    if report.closure_df is not None and deco.df != report.closure_df:
        raise ConsistencyError(
            "intersection value %s does not match the closure fit %s"
            % (deco.df, report.closure_df))
    report.consistent = True
    return report
