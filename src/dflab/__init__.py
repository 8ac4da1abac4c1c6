"""Exact stability invariants of flag ideals on polarized toric varieties.

Two independent pipelines compute the same invariant: a weight-counting
fit over lattice points of dilated polytopes, and a closed formula from
the Newton polyhedron of the flag ideal.  All arithmetic is exact.
"""

from .errors import (
    ChainViolation,
    ConsistencyError,
    ExponentTooSmall,
    InconsistentVertices,
    InvalidInput,
    NonLatticeVertex,
    NonPositiveExceptionalRay,
    NonUnimodularChartVertex,
    NotFullDimensional,
    NotStabilized,
    PointOutsidePolytope,
    UnsupportedMode,
)
from .lattice_geometry import (
    LatticePolytope,
    PolarizedToricVariety,
    box,
    hirzebruch_anticanonical,
    make_variety,
    projective_space,
)
from .monomial_algebra import (
    FlagIdeal,
    MonomialIdeal,
    cox_lift,
    newton_polyhedron,
    validate_flag_ideal,
)
from .intersection_engine import (
    DecompositionReport,
    RayContribution,
    df_intersection,
)
from .weight_engine import (
    DFReport,
    ExactPolynomial,
    FitOptions,
    chow_number,
    closure_weight_at,
    df_counting,
    evaluate,
    fit_polynomial,
    hilbert_polynomial,
    mabuchi_check,
    weight_at,
)
from .stability_lab import (
    SearchBounds,
    SearchReport,
    candidate_ideals,
    enumerate_flag_ideals,
    preset_normal_cone,
    search_destabilizers,
)

__version__ = "0.1.0"

__all__ = [
    "ChainViolation",
    "ConsistencyError",
    "DecompositionReport",
    "DFReport",
    "ExactPolynomial",
    "ExponentTooSmall",
    "FitOptions",
    "FlagIdeal",
    "InconsistentVertices",
    "InvalidInput",
    "LatticePolytope",
    "MonomialIdeal",
    "NonLatticeVertex",
    "NonPositiveExceptionalRay",
    "NonUnimodularChartVertex",
    "NotFullDimensional",
    "NotStabilized",
    "PointOutsidePolytope",
    "PolarizedToricVariety",
    "RayContribution",
    "SearchBounds",
    "SearchReport",
    "UnsupportedMode",
    "box",
    "candidate_ideals",
    "chow_number",
    "closure_weight_at",
    "cox_lift",
    "df_counting",
    "df_intersection",
    "enumerate_flag_ideals",
    "evaluate",
    "fit_polynomial",
    "hilbert_polynomial",
    "hirzebruch_anticanonical",
    "mabuchi_check",
    "make_variety",
    "newton_polyhedron",
    "preset_normal_cone",
    "projective_space",
    "search_destabilizers",
    "validate_flag_ideal",
    "weight_at",
]
