"""Reference computations for the tests, kept apart from the engine they check."""

from __future__ import annotations

from fractions import Fraction as F

from logfano.catalog import CaseSpec, build_case
from logfano.exact import PiecewisePoly
from logfano.surface import pair_curve, zariski_decompose


def flag_integrand(spec: CaseSpec, d: int, lam, point: str = "generic") -> PiecewisePoly:
    """h(v) of S(W;O) for a point label, from a decomposition made at this lambda.

    h is (P.E)^2/2 per piece, plus (P.E)*(N.E) at the point E.L of a model
    with a companion curve L: "EL", or a label first declared "on_L".  The engine instead scales one
    t = 1 decomposition by t and reads its ratio table.
    """
    model, factory, _ = build_case(spec.id, d, {spec.id: spec})
    lam = F(lam)
    t = 3 - d * lam
    pieces = zariski_decompose(model, factory(lam))
    assert pieces.tau == t * spec.tau_factor
    located: dict[str, str] = {}
    for var in spec.variants:
        for pt in var.points:
            located.setdefault(pt.label, pt.location)
    on_l = "L" in model.curves and (point == "EL" or located.get(point) == "on_L")
    integrands = []
    for p_expr, n_expr in zip(pieces.positives, pieces.negatives):
        pe = pair_curve(model, p_expr, "E")
        h = pe * pe * F(1, 2)
        integrands.append(h + pe * pair_curve(model, n_expr, "E") if on_l else h)
    return PiecewisePoly(pieces.breakpoints, tuple(integrands))
