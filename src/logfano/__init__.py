"""Exact delta invariants of log Fano pairs (P^2, lambda*C_d) for d <= 4.

The package computes, verifies, and tabulates local delta invariants of plane
pairs through exact rational arithmetic: Zariski decompositions of flag
divisor families, flag S-invariants, log discrepancies with differents, and
closed forms in lambda derived exactly, plus the derived K-stability bounds for
threefold pairs.
"""

from .catalog import CASES, CaseSpec, build_case, list_cases, validate_catalog
from .delta import (
    DeltaReport,
    a_divisor,
    a_flag_point,
    delta_closed_form,
    delta_point,
    s_curve_on_plane,
    s_divisor,
    s_flag_point,
)
from .exact import (
    PiecewisePoly,
    Poly,
    RationalFunction,
    fit_rational_function,
    integrate,
    integrate_piecewise,
    rat,
    rat_str,
    roots_in_interval,
)
from .surface import (
    DivisorExpr,
    SurfaceModel,
    ZariskiPieces,
    pair,
    pair_curve,
    volume_function,
    zariski_decompose,
)
from .threefold import (
    corollary_suite,
    delta_bound_blowup,
    delta_bound_quadric,
    delta_bound_smooth,
    s_blowup_flag,
    s_plane_flag,
    verify_threefold_volumes,
)
from .verify import verify_all

__version__ = "1.0.0"

__all__ = [
    "CASES",
    "CaseSpec",
    "DeltaReport",
    "DivisorExpr",
    "PiecewisePoly",
    "Poly",
    "RationalFunction",
    "SurfaceModel",
    "ZariskiPieces",
    "a_divisor",
    "a_flag_point",
    "build_case",
    "corollary_suite",
    "delta_bound_blowup",
    "delta_bound_quadric",
    "delta_bound_smooth",
    "delta_closed_form",
    "delta_point",
    "fit_rational_function",
    "integrate",
    "integrate_piecewise",
    "list_cases",
    "pair",
    "pair_curve",
    "rat",
    "rat_str",
    "roots_in_interval",
    "s_blowup_flag",
    "s_curve_on_plane",
    "s_divisor",
    "s_flag_point",
    "s_plane_flag",
    "validate_catalog",
    "verify_all",
    "verify_threefold_volumes",
    "volume_function",
    "zariski_decompose",
]
