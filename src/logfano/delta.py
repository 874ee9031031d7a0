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
every operation reads it.  The table holds each ratio's integers too, so
delta_point evaluates it at lambda = p/q on integers, with t = w/q and
w = 3q - d*p: each A, S, ratio and bound is one Fraction of integers, and the
lambda, lct and validity-interval tests, the bounds, exactness and
minimizers are decided on integers, with no Fraction operator; and
delta_closed_form takes the least line A/s over t on the validity interval, an
exact.LinearFractional of the table's integer line, in normal form by one gcd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .catalog import Affine, CaseSpec, DegreeRow, check_degree, check_lambda, get_case
from .exact import LinearFractional, _integral, _sum, rat
from .surface import SurfaceModel, ZariskiPieces, _dot, _pairings, flag_family, zariski_decompose

F = Fraction
_ZERO, _ONE = F(0), F(1)  # shared: a Fraction operator with an int operand converts it on every call


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

    label is "E", "generic", "<variant>:<point>" or "curve(e=..,l=..)".
    """

    label: str
    a: Fraction
    b: Fraction
    s: Fraction


@dataclass(frozen=True)
class Lines:
    """Ratio lines A/s = a + b*lambda (each ratio times t), by label.

    ints maps each label to (a*den, b*den), with den the least common
    denominator of the set, so the lines compare at lambda = p/q as the
    integers n = a*q + b*p, and the ratio there, the line over
    t = 3 - d*lambda, is n/(den*(3q - d*p)).  line gives one of them as a
    Fraction pair (a, b).
    """

    ints: Mapping[str, tuple[int, int]]
    den: int

    def line(self, label: str) -> Affine:
        """The line of label as a Fraction pair (a, b)."""
        a, b = self.ints[label]
        return F(a, self.den), F(b, self.den)


# A ratio's integers (a_n, b_n, a_den, s_n, s_d): A = (a_n + b_n*lambda)/a_den and S = (s_n/s_d)*t.
_Terms = tuple[int, int, int, int, int]


def _terms(r: Ratio) -> _Terms:
    (a_n, a_d), (b_n, b_d) = r.a.as_integer_ratio(), r.b.as_integer_ratio()
    a_den = a_d // gcd(a_d, b_d) * b_d
    return (a_n * (a_den // a_d), b_n * (a_den // b_d), a_den, *r.s.as_integer_ratio())


def _lines(ratios: Sequence[Ratio], terms: Sequence[_Terms]) -> Lines:
    """The Lines of ratios with the integers terms, on integers: each coefficient of A/s is
    a_n*s_d/(a_den*s_n), and the lines' den is the least common denominator of those in lowest terms."""
    coeffs = []  # per line: a*s_d, b*s_d over a_den*s_n, and that denominator in lowest terms for each
    for a_n, b_n, a_den, s_n, s_d in terms:
        a, b, q = a_n * s_d, b_n * s_d, a_den * s_n
        coeffs.append((a, b, q, q // gcd(a, q), q // gcd(b, q)))
    den = lcm(*[x for *_, qa, qb in coeffs for x in (qa, qb)])
    ints = {r.label: (a * den // q, b * den // q) for r, (a, b, q, *_) in zip(ratios, coeffs)}
    return Lines(MappingProxyType(ints), den)


@dataclass(frozen=True)
class RatioTable:
    """Every ratio delta compares for one case; lambda-free, built by ratio_table.

    Its lines are computed once, when the table is built: lower for "E", each
    "variant:point" and "generic", upper for "E" and each curve bound.  So are
    terms, the integers (_Terms) of "E" and then of each row's ratio, which
    delta_point evaluates, and lct, the least positive zero of the lower lines
    of "E" and the points (None if none has one): past it A(E) or an A(O) is
    negative, the pair not lc.
    """

    tau: Fraction  # the model's pseudo-effective threshold at t = 1
    e: Ratio  # A(E)/S(E), in both envelopes
    rows: tuple[tuple[str, str, Ratio], ...]  # (variant, point, ratio): each variant's points, then "generic"
    curves: tuple[Ratio, ...]  # the plane-curve upper bounds
    lower: Lines = field(init=False, repr=False, compare=False)
    upper: Lines = field(init=False, repr=False, compare=False)
    terms: tuple[_Terms, ...] = field(init=False, repr=False, compare=False)
    lct: Fraction | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lower = (self.e, *(ratio for _, _, ratio in self.rows))
        terms = tuple(map(_terms, lower))
        object.__setattr__(self, "lower", _lines(lower, terms))
        object.__setattr__(self, "upper", _lines((self.e, *self.curves), (terms[0], *map(_terms, self.curves))))
        object.__setattr__(self, "terms", terms)
        # the zero -a/b of each A-line a + b*lambda, the zero of its line A/s too; positive when a*b < 0;
        # the least as an integer pair (p, q), q > 0, then one Fraction
        lct = None
        for a_n, b_n, *_ in terms:
            if a_n * b_n < 0:
                zero = (-a_n, b_n) if b_n > 0 else (a_n, -b_n)
                if lct is None or zero[0] * lct[1] < lct[0] * zero[1]:
                    lct = zero
        object.__setattr__(self, "lct", None if lct is None else F(*lct))


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
    return Ratio(f"curve(e={e},l={l})", _ONE, -l, F(1, 3 * e))


def ratio_table(spec: CaseSpec) -> RatioTable:
    """The ratio table of a case, read through the cached CaseSpec.ratio_table.

    It holds the model's threshold but does not compare it with the catalog's
    tau_factor: the readers that report a value (_checked_table) do.
    """
    unit = _unit_constants(spec.model)
    generic = Ratio("generic", _ONE, _ZERO, unit.s_generic)
    rows = []
    for var in spec.variants:
        for pt in var.points:
            a, b = pt.coeff
            s = unit.s_on_l if pt.location == "on_L" else unit.s_generic
            rows.append((var.name, pt.label, Ratio(f"{var.name}:{pt.label}", _ONE - a, -b, s)))
        rows.append((var.name, "generic", generic))
    return RatioTable(
        unit.tau,
        Ratio("E", _ONE + spec.k_E, -spec.m_C, unit.s_e),
        tuple(rows),
        tuple(_curve_ratio(cb.e, cb.l) for cb in spec.extra_upper_bounds),
    )


def _spec(case: str | CaseSpec) -> CaseSpec:
    return case if isinstance(case, CaseSpec) else get_case(case)


def _checked_table(spec: CaseSpec, w: int = 1, q: int = 1) -> RatioTable:
    """The case's ratio table, once its stated threshold tau_factor is the model's; t = w/q names them."""
    table = spec.ratio_table
    if spec.tau_factor != table.tau:
        t = F(w, q)
        raise ValueError(f"stated tau {t * spec.tau_factor} != computed pseudo-effective threshold {t * table.tau}")
    return table


def _at(case: str | CaseSpec, d: int, lam) -> tuple[CaseSpec, DegreeRow, RatioTable, Fraction, int, int, int]:
    """(spec, row of degree d, checked ratio table, lambda = p/q, p, q, w = q*t) once d, lambda and tau pass."""
    spec = _spec(case)
    row = spec.row(d)
    lam = check_lambda(d, lam)
    p, q = lam.as_integer_ratio()
    w = 3 * q - d * p
    return spec, row, _checked_table(spec, w, q), lam, p, q, w


def integrated_s_invariants(pieces: ZariskiPieces) -> tuple[Fraction, Fraction, Fraction | None]:
    """(S(E), generic S(W;O), S(W;O) at the crossing with L) of a decomposition at t = 1.

    S(E) integrates the volume (P.P).  S(W;O) integrates 2*h(v) per piece:
    (P.E)^2 at a generic point and, at the crossing point of E and the
    companion curve L, (P.E)^2 + 2*(P.E)*(N.E at O).  The pieces' P and N are
    integer rows, so each integrand is an integer quadratic over one
    denominator, each piece's integral an integer ratio, and each invariant
    their sum over a common denominator, one Fraction at the end.  The last
    entry is None when the model has no companion curve L.
    """
    model = pieces.model
    table, den_t = model._integer_table
    e = model.index("E") + 1
    on_l = "L" in model.curves
    s_e, s_generic, s_on_l = [], [], []
    bps = [b.as_integer_ratio() for b in pieces.breakpoints]
    for lo, hi, p, n in zip(bps, bps[1:], pieces.positives, pieces.negatives):
        f0, f1, vol = _pairings(table, p)
        e0, e1, dp = f0[e], f1[e], p[2]  # (P.E) = (e0 + e1*v)/(den_t*dp)
        square = [e0 * e0, 2 * e0 * e1, e1 * e1]
        s_e.append(_integral(vol, den_t * dp * dp, lo, hi))
        s_generic.append(_integral(square, (den_t * dp) ** 2, lo, hi))
        if on_l:
            nc, ns, dn = n
            m0, m1 = _dot(table[e], nc), _dot(table[e], ns)  # (N.E) = (m0 + m1*v)/(den_t*dn)
            cross = [2 * e0 * m0, 2 * (e0 * m1 + e1 * m0), 2 * e1 * m1]
            at_l = [x * dn + y * dp for x, y in zip(square, cross)]
            s_on_l.append(_integral(at_l, den_t * den_t * dp * dp * dn, lo, hi))
    return _sum(s_e), _sum(s_generic), _sum(s_on_l) if on_l else None


def s_divisor(case: str | CaseSpec, d: int, lam) -> Fraction:
    """Expected vanishing order S(E): the normalized volume integral over [0, tau]."""
    _, _, table, _, _, q, w = _at(case, d, lam)
    *_, s_n, s_d = table.terms[0]
    return F(s_n * w, s_d * q)


def s_curve_on_plane(d: int, lam, e: int, l) -> tuple[Fraction, Fraction]:
    """(S, A) of a degree-e plane curve class appearing with multiplicity l >= 0 in C (l = 0: not in C),
    for a degree-d curve C at lambda in [0, 3/d); ValueError past its lct 1/l, where l*lambda > 1
    makes A negative (tested on integers).  A = 0 at lambda = 1/l is allowed."""
    lam = check_lambda(check_degree(d), lam)
    l = rat(l)
    if l < 0:
        raise ValueError(f"multiplicity l = {l} must be >= 0")
    ratio = _curve_ratio(check_degree(e, "curve degree e"), l)
    (l_p, l_q), (p, q) = l.as_integer_ratio(), lam.as_integer_ratio()
    if l_p * p > l_q * q:  # A = 1 - l*lambda < 0: the pair is not lc along the curve
        raise ValueError(f"lambda {lam} past the log canonical threshold {F(l_q, l_p)} of a curve of multiplicity {l}")
    return ratio.s * (3 - d * lam), ratio.a + ratio.b * lam


def _minimizer_names(labels: list[str]) -> tuple[str, ...]:
    """Minimizers as a DeltaReport names them: the point label of each table label, once, "generic" last."""
    names = dict.fromkeys(label.rpartition(":")[2] for label in labels)
    if "generic" in names:
        names["generic"] = names.pop("generic")
    return tuple(names)


def delta_point(case: str | CaseSpec, d: int, lam) -> DeltaReport:
    """Local delta report at rational lambda in [0, 3/d), refused past the case's lct: the ratio table at lambda.

    At lambda = p/q, with t = w/q and w = 3q - d*p, each value is one Fraction of the table's
    terms (a_n, b_n, a_den, s_n, s_d): with n = a_n*q + b_n*p, A = n/(a_den*q), S = s_n*w/(s_d*q)
    and the ratio A/S = n*s_d/(a_den*s_n*w).  The bounds are one Fraction each of the least integer
    line values x*q + y*p, which decide exactness and the minimizers; the lct and validity-interval
    tests compare cross-multiplied integers.
    """
    spec, row_spec, table, lam, p, q, w = _at(case, d, lam)
    lct = table.lct
    if lct is not None and p * lct.denominator > lct.numerator * q:
        raise ValueError(f"lambda {lam} past the log canonical threshold {lct} of case {spec.id}")
    (a_n, b_n, a_den, s_n, s_d), *terms = table.terms
    a_e, s_e = F(a_n * q + b_n * p, a_den * q), F(s_n * w, s_d * q)
    rows = []
    for (variant, point, _), (a_n, b_n, a_den, s_n, s_d) in zip(table.rows, terms):
        n = a_n * q + b_n * p
        rows.append(PointRow(variant, point, F(n, a_den * q), F(s_n * w, s_d * q), F(n * s_d, a_den * s_n * w)))
    at = {label: x * q + y * p for label, (x, y) in table.lower.ints.items()}
    least = min(at.values())
    least_up = min([x * q + y * p for x, y in table.upper.ints.values()])
    den, up_den = table.lower.den, table.upper.den
    lower, upper = F(least, den * w), F(least_up, up_den * w)
    if least * up_den > least_up * den:
        raise AssertionError(f"{spec.id}: lower bound {lower} exceeds upper bound {upper}")
    exact = least * up_den == least_up * den
    minimizers = _minimizer_names([label for label, n in at.items() if n == least])

    (lo_p, lo_q), (hi_p, hi_q) = row_spec.lo.as_integer_ratio(), row_spec.hi.as_integer_ratio()
    validity_ok = lo_p * q <= p * lo_q and p * hi_q <= hi_p * q
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


def _least(table: RatioTable, lo: Fraction, hi: Fraction) -> tuple[list[str], list[str]]:
    """The labels of the lower and of the upper lines of a table that are least at both ends of [lo, hi].

    The ends are compared on the table's integer lines, each value times its end's denominator.
    """
    (lo_p, lo_q), (hi_p, hi_q) = lo.as_integer_ratio(), hi.as_integer_ratio()
    out = []
    for lines in (table.lower, table.upper):
        at_lo = [a * lo_q + b * lo_p for a, b in lines.ints.values()]
        at_hi = [a * hi_q + b * hi_p for a, b in lines.ints.values()]
        min_lo, min_hi = min(at_lo), min(at_hi)
        out.append([label for label, x, y in zip(lines.ints, at_lo, at_hi) if x == min_lo and y == min_hi])
    return out[0], out[1]


def delta_closed_form(case: str | CaseSpec, d: int) -> LinearFractional:
    """delta(lambda) on the validity interval: the least lower line over t = 3 - d*lambda.

    NotExactOnInterval unless that line is least at both ends among the upper lines too.
    """
    spec = _spec(case)
    row = spec.row(d)
    return _closed_form(spec, row, _least(spec.ratio_table, row.lo, row.hi))


def _closed_form(spec: CaseSpec, row: DegreeRow, least: tuple[list[str], list[str]]) -> LinearFractional:
    """delta_closed_form from the least lines on the row's interval, as _least gives them: the tau
    check, then NotExactOnInterval, then the least lower line over t."""
    table = _checked_table(spec)
    low, up = least
    if low and up:
        (a, b), den = table.lower.ints[low[0]], table.lower.den
        (c, e), up_den = table.upper.ints[up[0]], table.upper.den
        if a * up_den == c * den and b * up_den == e * den:  # one line, over each set's den
            return _over_t((a, b), den, row.d)
    raise NotExactOnInterval(f"{spec.id} (d={row.d}): delta is not one certified ratio on [{row.lo}, {row.hi}]")


def _over_t(line: tuple[int, int], den: int, d: int) -> LinearFractional:
    """The integer line (a + b*lambda)/den over t = 3 - d*lambda, in normal form."""
    return LinearFractional(line[0], line[1], 3 * den, -d * den)
