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
S(E) and both S(W;O) are the t = 1 values times t.  Every ratio above is thus
A/S with A = a + b*lambda a line and S = s*t a t = 1 constant times t.  A
case's ratio table lists them once (RatioTable, built on first use by each
CaseSpec instance, the decomposition running once per surface model), and
every operation reads it: delta_point evaluates it at one lambda, and
delta_closed_form takes the least line A/s over t on the validity interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .catalog import Affine, CaseSpec, check_lambda, flag_family, get_case
from .exact import (
    PiecewisePoly,
    Poly,
    RationalFunction,
    _integers,
    _reduced,
    integrate_piecewise,
    rat,
)
from .surface import (
    SurfaceModel,
    ZariskiPieces,
    pair_curve,
    volume_function,
    zariski_decompose,
)

F = Fraction


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
class _UnitConstants:
    """Threshold and S-invariants of a surface model's family at t = 1."""

    tau: Fraction
    s_e: Fraction
    s_generic: Fraction
    s_on_l: Fraction | None


@dataclass(frozen=True)
class Ratio:
    """One ratio A/S of a ratio table: A = a + b*lambda, S = s*t with t = 3 - d*lambda.

    label is "E", "generic", "EL", "<variant>:<point>" or "curve(e=..,l=..)".
    """

    label: str
    a: Fraction
    b: Fraction
    s: Fraction


@dataclass(frozen=True)
class Lines:
    """Ratio lines A/s = a + b*lambda (each ratio times t), by label.

    ints holds (label, a*den, b*den) with den the least common denominator of
    the set, so the lines compare at lambda = p/q as the integers a*q + b*p.
    """

    by_label: Mapping[str, Affine]
    ints: tuple[tuple[str, int, int], ...]


def _lines(ratios: Iterable[Ratio]) -> Lines:
    by_label = {r.label: (r.a / r.s, r.b / r.s) for r in ratios}
    ints, _ = _integers([x for line in by_label.values() for x in line])
    return Lines(MappingProxyType(by_label), tuple(zip(by_label, ints[::2], ints[1::2])))


@dataclass(frozen=True)
class RatioTable:
    """Every ratio delta compares for one case; lambda-free, built by ratio_table.

    Its lines are computed once, when the table is built: lower for "E", each
    "variant:point" and "generic", upper for "E" and each curve bound.  So is
    lct, the least positive zero of the A-lines of "E" and the points (None if
    none has one): past it A(E) or an A(O) is negative, the pair not lc.
    """

    tau: Fraction  # the model's pseudo-effective threshold at t = 1
    e: Ratio  # A(E)/S(E), in both envelopes
    rows: tuple[tuple[str, str, Ratio], ...]  # (variant, point, ratio): each variant's points, then "generic"
    curves: tuple[Ratio, ...]  # the plane-curve upper bounds
    points: Mapping[str, Ratio]  # by point label, "generic" and "EL" included; read-only, the table is shared
    lower: Lines = field(init=False, repr=False, compare=False)
    upper: Lines = field(init=False, repr=False, compare=False)
    lct: Fraction | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = (self.e, *(ratio for _, _, ratio in self.rows))
        zeros = [z for z in (-r.a / r.b for r in lower if r.b) if z > 0]
        object.__setattr__(self, "lower", _lines(lower))
        object.__setattr__(self, "upper", _lines((self.e, *self.curves)))
        object.__setattr__(self, "lct", min(zeros, default=None))


@lru_cache(maxsize=64)
def _unit_constants(model: SurfaceModel) -> _UnitConstants:
    """Decompose t*H - v*E at t = 1 once per model value.

    Keyed by value, not by instance, because callers rebuild equal models: the
    benchmark's verify workload builds its E.E- and E.L-faulted models as new
    objects every round (perfbench/load.py apply_fault), at most 29 model
    values with the catalog's 10, well within the bound.  A model with a
    changed intersection entry gets its own decomposition.
    """
    pieces = zariski_decompose(model, flag_family(model, 1))
    return _UnitConstants(pieces.tau, *integrated_s_invariants(pieces))


def _curve_ratio(e: int, l: Fraction) -> Ratio:
    """A degree-e plane curve class with multiplicity l in C: A = 1 - l*lambda, S = t/(3e)."""
    if e < 1:
        raise ValueError("curve degree must be >= 1")
    return Ratio(f"curve(e={e},l={l})", F(1), -l, F(1, 3 * e))


def ratio_table(spec: CaseSpec) -> RatioTable:
    """The ratio table of a case, read through the cached CaseSpec.ratio_table.

    It holds the model's threshold but does not compare it with the catalog's
    tau_factor: the readers that report a value (_checked_table) do.
    """
    unit = _unit_constants(spec.model)
    generic = Ratio("generic", F(1), F(0), unit.s_generic)
    rows, points, at_l = [], {}, None
    for var in spec.variants:
        for pt in var.points:
            a, b = pt.coeff
            on_l = pt.location == "on_L"
            ratio = Ratio(f"{var.name}:{pt.label}", 1 - a, -b, unit.s_on_l if on_l else unit.s_generic)
            rows.append((var.name, pt.label, ratio))
            points.setdefault(pt.label, ratio)
            if at_l is None and on_l:
                at_l = ratio
        rows.append((var.name, "generic", generic))
    points["generic"] = generic
    points["EL"] = at_l or Ratio("EL", F(1), F(0), unit.s_generic if unit.s_on_l is None else unit.s_on_l)
    return RatioTable(
        unit.tau,
        Ratio("E", 1 + spec.k_E, -spec.m_C, unit.s_e),
        tuple(rows),
        tuple(_curve_ratio(cb.e, cb.l) for cb in spec.extra_upper_bounds),
        MappingProxyType(points),
    )


def _spec(case: str | CaseSpec) -> CaseSpec:
    return case if isinstance(case, CaseSpec) else get_case(case)


def _checked_table(spec: CaseSpec, t: Fraction | int = 1) -> RatioTable:
    """The case's ratio table, once its stated threshold tau_factor is the model's."""
    table = spec.ratio_table
    if spec.tau_factor != table.tau:
        raise ValueError(f"stated tau {t * spec.tau_factor} != computed pseudo-effective threshold {t * table.tau}")
    return table


def _at(case: str | CaseSpec, d: int, lam) -> tuple[CaseSpec, RatioTable, Fraction, Fraction]:
    """(spec, checked ratio table, lambda, t) once d, lambda and tau pass their checks."""
    spec = _spec(case)
    spec.row(d)
    lam = check_lambda(d, lam)
    t = 3 - d * lam
    return spec, _checked_table(spec, t), lam, t


def integrated_s_invariants(pieces: ZariskiPieces) -> tuple[Fraction, Fraction, Fraction | None]:
    """(S(E), generic S(W;O), S(W;O) at the crossing with L) of a decomposition at t = 1.

    S(W;O) integrates h(v) per piece: (P.E)^2/2 at a generic point and, at the
    crossing point of E and the companion curve L, (P.E)^2/2 + (P.E)*(N.E at O);
    (P.E) is paired once per piece and shared by both.  The last entry is None
    when the model has no companion curve L.
    """
    model = pieces.model
    on_l = "L" in model.curves
    generic, at_l = [], []
    for p_expr, n_expr in zip(pieces.positives, pieces.negatives):
        pe = pair_curve(model, p_expr, "E")
        h = pe * pe * F(1, 2)
        generic.append(h)
        if on_l:
            at_l.append(h + pe * pair_curve(model, n_expr, "E"))
    s_on_l = 2 * integrate_piecewise(PiecewisePoly(pieces.breakpoints, tuple(at_l))) if on_l else None
    s_generic = 2 * integrate_piecewise(PiecewisePoly(pieces.breakpoints, tuple(generic)))
    return integrate_piecewise(volume_function(pieces)), s_generic, s_on_l


def _point_ratio(spec: CaseSpec, table: RatioTable, point: str) -> Ratio:
    try:
        return table.points[point]
    except KeyError:
        raise UnknownPoint(f"case {spec.id} has no point {point!r}") from None


def a_divisor(case: str | CaseSpec, lam) -> Fraction:
    """Log discrepancy of the flag divisor: 1 + k_E - lambda * m_C."""
    e = _spec(case).ratio_table.e
    return e.a + e.b * rat(lam)


def s_divisor(case: str | CaseSpec, d: int, lam) -> Fraction:
    """Expected vanishing order S(E): the normalized volume integral over [0, tau]."""
    _, table, _, t = _at(case, d, lam)
    return table.e.s * t


def a_flag_point(case: str | CaseSpec, lam, point: str) -> Fraction:
    """1 minus the different coefficient at the point (1 at a generic point)."""
    spec = _spec(case)
    ratio = _point_ratio(spec, spec.ratio_table, point)
    return ratio.a + ratio.b * rat(lam)


def s_flag_point(case: str | CaseSpec, d: int, lam, point: str) -> Fraction:
    """Normalized h(v)-integral of the point's flag on the exceptional curve."""
    spec, table, _, t = _at(case, d, lam)
    return _point_ratio(spec, table, point).s * t


def s_curve_on_plane(d: int, lam, e: int, l) -> tuple[Fraction, Fraction]:
    """(S, A) of a degree-e plane curve class appearing with multiplicity l in C."""
    lam = rat(lam)
    ratio = _curve_ratio(e, rat(l))
    return ratio.s * (3 - d * lam), ratio.a + ratio.b * lam


def _minimizer_names(labels: list[str]) -> tuple[str, ...]:
    """Minimizers as a DeltaReport names them: the point label of each table label, once, "generic" last."""
    names = dict.fromkeys(label.rpartition(":")[2] for label in labels)
    if "generic" in names:
        names["generic"] = names.pop("generic")
    return tuple(names)


def delta_point(case: str | CaseSpec, d: int, lam) -> DeltaReport:
    """Local delta report at rational lambda in [0, 3/d), refused past the case's lct: the ratio table at lambda."""
    spec, table, lam, t = _at(case, d, lam)
    if table.lct is not None and lam > table.lct:
        raise ValueError(f"lambda {lam} past the log canonical threshold {table.lct} of case {spec.id}")
    e = table.e
    a_e, s_e = e.a + e.b * lam, e.s * t
    ratio_e = a_e / s_e
    rows = []
    for variant, point, ratio in table.rows:
        a, s = ratio.a + ratio.b * lam, ratio.s * t
        rows.append(PointRow(variant, point, a, s, a / s))
    lower = min(ratio_e, *(row.ratio for row in rows))
    upper = min([ratio_e] + [(c.a + c.b * lam) / (c.s * t) for c in table.curves])
    if lower > upper:
        raise AssertionError(f"{spec.id}: lower bound {lower} exceeds upper bound {upper}")
    exact = lower == upper
    least = ["E"] if ratio_e == lower else []
    minimizers = _minimizer_names(least + [row.label for row in rows if row.ratio == lower])

    row_spec = spec.row(d)
    validity_ok = row_spec.lo <= lam <= row_spec.hi
    expected = None
    matches = None
    note = ""
    if validity_ok:
        expected = row_spec.stated_form(lam)
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
        lam=lam,
        a_e=a_e,
        s_e=s_e,
        rows=tuple(rows),
        upper_bound=upper,
        lower_bound=lower,
        exact=exact,
        minimizers=minimizers,
        validity_ok=validity_ok,
        expected=expected,
        matches_expected=matches,
        note=note,
    )


def interior_samples(lo: Fraction, hi: Fraction, n: int) -> list[Fraction]:
    """n rationals strictly inside (lo, hi), evenly spread."""
    return [lo + (hi - lo) * F(k, n + 1) for k in range(1, n + 1)]


def binding(table: RatioTable, lo: Fraction, hi: Fraction) -> tuple[Affine | None, Affine | None, tuple[str, ...]]:
    """(least lower line, least upper line, minimizer names) of a ratio table on [lo, hi]; no tau check.

    A line is least on [lo, hi] when it is least at both ends; None when no line
    is.  The minimizers name every least lower line.  The ends are compared on
    the table's integer lines, each value times its end's denominator.
    """

    def least(lines: Lines) -> list[str]:
        at_lo = [a * lo.denominator + b * lo.numerator for _, a, b in lines.ints]
        at_hi = [a * hi.denominator + b * hi.numerator for _, a, b in lines.ints]
        min_lo, min_hi = min(at_lo), min(at_hi)
        return [line[0] for line, x, y in zip(lines.ints, at_lo, at_hi) if x == min_lo and y == min_hi]

    low, up = least(table.lower), least(table.upper)
    lower, upper = table.lower.by_label, table.upper.by_label
    return lower[low[0]] if low else None, upper[up[0]] if up else None, _minimizer_names(low)


def delta_closed_form(case: str | CaseSpec, d: int) -> RationalFunction:
    """delta(lambda) on the validity interval: the least lower line over t = 3 - d*lambda.

    NotExactOnInterval unless that line is least at both ends among the upper lines too.
    """
    spec = _spec(case)
    row = spec.row(d)
    line, upper, _ = binding(_checked_table(spec), row.lo, row.hi)
    if line is None or line != upper:
        raise NotExactOnInterval(f"{spec.id} (d={d}): delta is not one certified ratio on [{row.lo}, {row.hi}]")
    return _over_t(line, d)


def _over_t(line: Affine, d: int) -> RationalFunction:
    """(a + b*lambda)/(3 - d*lambda) in lowest terms with a monic denominator.

    The two lines share a factor exactly when a*d + 3*b = 0, and the ratio is then the constant a/3.
    """
    a, b = line
    if a * d + 3 * b == 0:
        return _reduced(Poly.const(a / 3), Poly.const(1))
    return _reduced(Poly.affine(-a / d, -b / d), Poly.affine(F(-3, d), 1))
