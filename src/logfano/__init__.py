"""Exact delta invariants of log Fano pairs (P^2, lambda*C_d) for d <= 4.

The package computes, verifies, and tabulates local delta invariants of plane
pairs through exact rational arithmetic: Zariski decompositions of flag
divisor families, flag S-invariants, log discrepancies with differents, and
closed forms in lambda derived exactly, plus the derived K-stability bounds for
threefold pairs.  The rest of the API lives at its module path, such as
logfano.verify.verify_all, logfano.catalog.CASES and
logfano.threefold.corollary_suite.
"""

from . import catalog, delta, exact, surface, threefold, verify  # noqa: F401  (the engine modules; not the cli)
from .delta import delta_closed_form, delta_point, s_divisor

__version__ = "1.0.0"

__all__ = ["delta_closed_form", "delta_point", "s_divisor"]
