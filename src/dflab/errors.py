"""Exception types shared across the package, and the integer-field rule
that raises InvalidInput."""


class InvalidInput(ValueError):
    """Malformed or inconsistent user input."""


def as_integer(value, what):
    """value as an int, or InvalidInput naming what it is; a bool, or a
    value int() changes or refuses (1.9, "2", Infinity), is not an integer."""
    try:
        out = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:
        raise InvalidInput("%s must be an integer, not %r" % (what, value))
    return out


class NotFullDimensional(InvalidInput):
    """Vertex set does not span the ambient space."""


class NonLatticeVertex(InvalidInput):
    """A vertex has a non-integer coordinate."""


class InconsistentVertices(InvalidInput):
    """Input points are not exactly the vertex set of their convex hull."""


class NonUnimodularChartVertex(InvalidInput):
    """The cone at the chart vertex is not smooth."""


class PointOutsidePolytope(InvalidInput):
    """Lattice point lies outside the stated dilate of the polytope."""


class ChainViolation(InvalidInput):
    """The ideal chain is not increasing."""


class UnsupportedMode(InvalidInput):
    """Operation not available for this ideal mode or support class."""


class NonPositiveExceptionalRay(InvalidInput):
    """Exceptional geometry is not point-supported; a compact-facet
    description of the lower hull would be incomplete, so the input is
    rejected instead of mis-handled."""


class NotStabilized(RuntimeError):
    """Weight samples did not settle on a polynomial.

    ``hint`` is ``"extend_k_range"`` or ``"quasi_polynomial"``; in the
    latter case ``quasi_period`` holds the detected period, which signals
    that the exponent r is too small for the degeneration to be
    relatively semiample.
    """

    def __init__(self, message, hint="extend_k_range", quasi_period=None):
        super().__init__(message)
        self.hint = hint
        self.quasi_period = quasi_period


class ExponentTooSmall(RuntimeError):
    """The exceptional locus is clipped by the polarization at this exponent."""


class ConsistencyError(RuntimeError):
    """An exact identity or cross-pipeline agreement failed."""
