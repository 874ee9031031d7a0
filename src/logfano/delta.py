"""Local delta invariants of pairs (P^2, lambda*C) via flag S-invariants.

For a catalog case the engine decomposes D(v) = (pullback of -K - lambda*C) - v*E
exactly, then assembles

    lower = min( A(E)/S(E),  min over marked points O of A(O)/S(W;O) )
    upper = min( A(E)/S(E),  ratios of the declared plane-curve upper bounds )

with S(E) the normalized volume integral and S(W;O) the normalized integral of
h(v) = (P.E) * (N.E at O) + (P.E)^2 / 2.  When the two sides agree the local
delta invariant is that common value; otherwise only the lower bound is
certified.

With t = 3 - d*lambda, D(v) = t*H - v*E is homogeneous of degree 1 in (t, v):
the decomposition at any lambda is the one at t = 1 with v scaled by t, and
S(E) and both S(W;O) are the t = 1 values times t.  The decomposition therefore
runs once per surface model, at t = 1, and every lambda only scales its
constants by t.  Likewise the stated closed form of a catalog row is built and
reduced once per row, and every lambda only evaluates it.  Every ratio is thus
a line in lambda over t, and delta_closed_form derives the closed form from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import Affine, CaseSpec, DegreeRow, Variant, build_case, check_lambda, flag_family, get_case
from .exact import (
    PiecewisePoly,
    Poly,
    RationalFunction,
    integrate_piecewise,
    rat,
)
from .surface import (
    DivisorExpr,
    SurfaceModel,
    ZariskiPieces,
    pair,
    volume_function,
    zariski_decompose,
)

F = Fraction
Line = tuple[str, Affine]  # a labelled ratio numerator a + b*lambda


class UnknownPoint(KeyError):
    """The requested point label is not declared for the case."""


class NotExactOnInterval(ValueError):
    """A closed form was requested where delta is only bounded."""


@dataclass(frozen=True)
class PointRow:
    """One line of the per-point table of a DeltaReport."""

    variant: str
    label: str
    a_value: Fraction
    s_value: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class DeltaReport:
    case_id: str
    d: int
    lam: Fraction
    a_e: Fraction
    s_e: Fraction
    rows: tuple[PointRow, ...]
    upper_bound: Fraction
    lower_bound: Fraction
    exact: bool
    minimizers: tuple[str, ...]
    validity_ok: bool
    expected: Fraction | None
    matches_expected: bool | None
    note: str

    @property
    def value(self) -> Fraction:
        """The certified value: delta itself when exact, else the lower bound."""
        return self.lower_bound


@dataclass(frozen=True)
class _Evaluation:
    """All exact per-(case, d, lambda) data shared by the delta operations."""

    spec: CaseSpec
    d: int
    lam: Fraction
    t: Fraction
    s_e: Fraction
    a_e: Fraction
    s_generic: Fraction
    s_on_l: Fraction | None


@dataclass(frozen=True)
class _UnitConstants:
    """Threshold and S-invariants of a surface model's family at t = 1."""

    tau: Fraction
    s_e: Fraction
    s_generic: Fraction
    s_on_l: Fraction | None


@lru_cache(maxsize=64)
def _unit_constants(model: SurfaceModel) -> _UnitConstants:
    """Decompose t*H - v*E at t = 1 once per model value.

    Keyed by value, so a model with a changed intersection entry gets its own
    decomposition; the bounded size keeps many such models from piling up.
    """
    pieces = zariski_decompose(model, flag_family(model, 1))
    return _UnitConstants(pieces.tau, *integrated_s_invariants(pieces, 1))


@lru_cache(maxsize=128)
def _stated_form(row: DegreeRow) -> RationalFunction:
    """The stated closed form of a catalog row, built and reduced once per row value.

    Keyed by value like _unit_constants, so a row with a changed coefficient
    gets its own entry; the bound is over twice the catalog's 54 rows.
    """
    return RationalFunction.from_coeffs(row.delta_num, row.delta_den)


def _checked_unit_constants(spec: CaseSpec, t: Fraction | int = 1) -> _UnitConstants:
    unit = _unit_constants(spec.model)
    if spec.tau_factor != unit.tau:
        raise ValueError(f"v_max {t * spec.tau_factor} != computed pseudo-effective threshold {t * unit.tau}")
    return unit


def _evaluate(case: str | CaseSpec, d: int, lam) -> _Evaluation:
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    _, _, spec = build_case(spec.id, d, {spec.id: spec})
    lam = check_lambda(d, lam)
    t = 3 - d * lam
    unit = _checked_unit_constants(spec, t)
    a_e = 1 + spec.k_E - lam * spec.m_C
    s_on_l = None if unit.s_on_l is None else t * unit.s_on_l
    return _Evaluation(spec, d, lam, t, t * unit.s_e, a_e, t * unit.s_generic, s_on_l)


def _flag_integrands(pieces: ZariskiPieces, on_l: bool) -> tuple[PiecewisePoly, PiecewisePoly | None]:
    """h(v) per piece at a generic point, (P.E)^2/2, and, when on_l, at the
    crossing point of E and the companion curve, (P.E)^2/2 + (P.E)*(N.E at O).

    (P.E) is paired once per piece and shared by both integrands.
    """
    model = pieces.model
    e_unit = DivisorExpr.build(model, Poly(), {"E": Poly.const(1)})
    generic, at_l = [], []
    for p_expr, n_expr in zip(pieces.positives, pieces.negatives):
        pe = pair(model, p_expr, e_unit)
        h = pe * pe * F(1, 2)
        generic.append(h)
        if on_l:
            at_l.append(h + pe * pair(model, n_expr, e_unit))
    on_l_integrand = PiecewisePoly(pieces.breakpoints, tuple(at_l)) if on_l else None
    return PiecewisePoly(pieces.breakpoints, tuple(generic)), on_l_integrand


def integrated_s_invariants(pieces: ZariskiPieces, t: Fraction | int) -> tuple[Fraction, Fraction, Fraction | None]:
    """(S(E), generic S(W;O), S(W;O) at the crossing with L) of a decomposition at t.

    The last entry is None when the model has no companion curve L.
    """
    generic, at_l = _flag_integrands(pieces, "L" in pieces.model.curves)
    s_on_l = None if at_l is None else 2 * integrate_piecewise(at_l) / t**2
    return integrate_piecewise(volume_function(pieces)) / t**2, 2 * integrate_piecewise(generic) / t**2, s_on_l


def flag_integrand(case: str | CaseSpec, d: int, lam, point: str = "generic") -> PiecewisePoly:
    """The exact integrand of S(W;O) for a point label; used by numeric oracles.

    It decomposes afresh at this lambda rather than scaling the t = 1 data, so
    it stays an independent check of the scaled S-invariants.
    """
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    model, factory, spec = build_case(spec.id, d, {spec.id: spec})
    lam = rat(lam)
    pieces = zariski_decompose(model, factory(lam), (3 - d * lam) * spec.tau_factor)
    generic, at_l = _flag_integrands(pieces, _point_is_on_l(spec, point))
    return generic if at_l is None else at_l


def _point_is_on_l(spec: CaseSpec, point: str) -> bool:
    if point == "generic":
        return False
    if point == "EL":
        return "L" in spec.model.curves
    for var in spec.variants:
        for pt in var.points:
            if pt.label == point:
                return pt.location == "on_L"
    raise UnknownPoint(f"case {spec.id} has no point {point!r}")


def _point_coeff(spec: CaseSpec, point: str, lam: Fraction) -> Fraction:
    if point == "generic":
        return F(0)
    if point == "EL":
        for var in spec.variants:
            for pt in var.points:
                if pt.location == "on_L":
                    a, b = pt.coeff
                    return a + b * lam
        return F(0)
    for var in spec.variants:
        for pt in var.points:
            if pt.label == point:
                a, b = pt.coeff
                return a + b * lam
    raise UnknownPoint(f"case {spec.id} has no point {point!r}")


def a_divisor(case: str | CaseSpec, lam) -> Fraction:
    """Log discrepancy of the flag divisor: 1 + k_E - lambda * m_C."""
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    return 1 + spec.k_E - rat(lam) * spec.m_C


def s_divisor(case: str | CaseSpec, d: int, lam) -> Fraction:
    """Expected vanishing order S(E): the normalized volume integral over [0, tau]."""
    return _evaluate(case, d, lam).s_e


def a_flag_point(case: str | CaseSpec, lam, point: str) -> Fraction:
    """1 minus the different coefficient at the point (1 at a generic point)."""
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    return 1 - _point_coeff(spec, point, rat(lam))


def s_flag_point(case: str | CaseSpec, d: int, lam, point: str) -> Fraction:
    """Normalized h(v)-integral of the point's flag on the exceptional curve."""
    ev = _evaluate(case, d, lam)
    if _point_is_on_l(ev.spec, point):
        assert ev.s_on_l is not None
        return ev.s_on_l
    return ev.s_generic


def s_curve_on_plane(d: int, lam, e: int, l) -> tuple[Fraction, Fraction]:
    """(S, A) of a degree-e plane curve class appearing with multiplicity l in C."""
    lam = rat(lam)
    if e < 1:
        raise ValueError("curve degree must be >= 1")
    s = (3 - d * lam) / (3 * e)
    a = 1 - rat(l) * lam
    return s, a


def _variant_rows(ev: _Evaluation, variant: Variant) -> list[PointRow]:
    rows = []
    for pt in variant.points:
        a, b = pt.coeff
        a_val = 1 - (a + b * ev.lam)
        s_val = ev.s_on_l if pt.location == "on_L" else ev.s_generic
        assert s_val is not None
        rows.append(PointRow(variant.name, pt.label, a_val, s_val, a_val / s_val))
    rows.append(PointRow(variant.name, "generic", F(1), ev.s_generic, 1 / ev.s_generic))
    return rows


def delta_point(case: str | CaseSpec, d: int, lam) -> DeltaReport:
    """Local delta report at rational lambda in [0, 3/d)."""
    ev = _evaluate(case, d, lam)
    spec = ev.spec
    ratio_e = ev.a_e / ev.s_e

    all_rows: list[PointRow] = []
    variant_lowers: list[Fraction] = []
    for variant in spec.variants:
        rows = _variant_rows(ev, variant)
        all_rows.extend(rows)
        variant_lowers.append(min([ratio_e] + [r.ratio for r in rows]))
    lower = min(variant_lowers)

    upper = ratio_e
    for cb in spec.extra_upper_bounds:
        s_b, a_b = s_curve_on_plane(d, ev.lam, cb.e, cb.l)
        upper = min(upper, a_b / s_b)

    if lower > upper:
        raise AssertionError(f"{spec.id}: lower bound {lower} exceeds upper bound {upper}")
    exact = lower == upper

    minimizers: list[str] = []
    if ratio_e == lower:
        minimizers.append("E")
    for row in all_rows:
        if row.ratio == lower and row.label not in minimizers and row.label != "generic":
            minimizers.append(row.label)
    if any(r.ratio == lower and r.label == "generic" for r in all_rows):
        minimizers.append("generic")

    row_spec = spec.row(d)
    validity_ok = row_spec.lo <= ev.lam <= row_spec.hi
    expected = None
    matches = None
    note = ""
    if validity_ok:
        expected = _stated_form(row_spec)(ev.lam)
        if exact:
            matches = upper == expected
            if not matches:
                note = f"computed {upper} differs from stated closed form {expected}"
        else:
            matches = False
            note = "not exact inside the stated validity interval"
    elif not exact:
        note = "lower bound only"

    return DeltaReport(
        case_id=spec.id,
        d=d,
        lam=ev.lam,
        a_e=ev.a_e,
        s_e=ev.s_e,
        rows=tuple(all_rows),
        upper_bound=upper,
        lower_bound=lower,
        exact=exact,
        minimizers=tuple(minimizers),
        validity_ok=validity_ok,
        expected=expected,
        matches_expected=matches,
        note=note,
    )


def interior_samples(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    """n rationals strictly inside (lo, hi), evenly spread."""
    return [lo + (hi - lo) * F(k, n + 1) for k in range(1, n + 1)]


def _ratio_lines(spec: CaseSpec) -> tuple[list[Line], list[Line]]:
    """Labelled numerators a + b*lambda over t of the ratios delta_point compares, as (lower, upper):
    lower for "E", "generic" and each point as "variant:label", upper for "E" and each curve bound.
    """
    unit = _checked_unit_constants(spec)
    e_line = ("E", ((1 + spec.k_E) / unit.s_e, -spec.m_C / unit.s_e))
    lower = [e_line, ("generic", (1 / unit.s_generic, F(0)))]
    for var in spec.variants:
        for pt in var.points:
            s = unit.s_on_l if pt.location == "on_L" else unit.s_generic
            a, b = pt.coeff
            lower.append((f"{var.name}:{pt.label}", ((1 - a) / s, -b / s)))
    upper = [e_line] + [(f"curve(e={cb.e},l={cb.l})", (F(3 * cb.e), -3 * cb.e * cb.l))
                        for cb in spec.extra_upper_bounds]
    return lower, upper


def _least_line(lines: list[Line], lo: Fraction, hi: Fraction) -> Affine | None:
    """The line least at both lo and hi, hence on all of [lo, hi]; None if there is none."""
    at_lo = min(a + b * lo for _, (a, b) in lines)
    at_hi = min(a + b * hi for _, (a, b) in lines)
    return next(((a, b) for _, (a, b) in lines if a + b * lo == at_lo and a + b * hi == at_hi), None)


def delta_closed_form(case: str | CaseSpec, d: int) -> RationalFunction:
    """delta(lambda) on the validity interval: the least lower line over t = 3 - d*lambda.

    NotExactOnInterval unless that line is least at both ends among the upper lines too.
    """
    spec = case if isinstance(case, CaseSpec) else get_case(case)
    row = spec.row(d)
    lower, upper = _ratio_lines(spec)
    line = _least_line(lower, row.lo, row.hi)
    if line is None or line != _least_line(upper, row.lo, row.hi):
        raise NotExactOnInterval(f"{spec.id} (d={d}): delta is not one certified ratio on [{row.lo}, {row.hi}]")
    return RationalFunction(Poly.affine(*line), Poly.affine(3, -d))


def expected_closed_form(spec: CaseSpec, d: int) -> RationalFunction:
    return _stated_form(spec.row(d))


def lower_bound_regime_value(d: int, lam) -> Fraction:
    """The certified lower bound 3/(2*(3 - d*lambda)) on the small-lambda regime."""
    return F(3, 2) / (3 - d * rat(lam))
