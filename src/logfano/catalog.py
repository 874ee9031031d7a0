"""Catalog of local singularity configurations on plane curves of degree <= 4.

Each entry describes one plt-blowup flag used to bound the local delta
invariant of a pair (P^2, lambda*C): the intersection table of the exceptional
curve E (and its companion curve L when one exists) on the blown-up surface,
the multiplicities of E in the pullbacks of C and of the flag line, the
log-discrepancy offset of E, the boundary divisor induced on E (the
"different"), the extra upper-bound curve classes in the plane, the admissible
curve degrees with the lambda-interval on which the closed form is attained,
and the closed form itself.

Redundant printed data (the S(E) factor, the pseudo-effective threshold,
the interior Zariski breakpoints, and every per-point A/S ratio) is stored
alongside the defining data so that the verification pass cross-checks each
transcribed number against an independently computed value; a single corrupted
entry is then guaranteed to surface as a mismatch.

Conventions: the flag parameter interval scales with t = 3 - d*lambda, so
thresholds and breakpoints are stored as multiples of t; affine functions of
lambda are (a, b) pairs meaning a + b*lambda; per-point ratios are stored as
ratio = (a + b*lambda) / (den_factor * t).  The 19 entries
that declare alias_of are each built from its target, which comes earlier in the
catalog: only its id, label, order and degree rows are its own, so its local
data is the target's by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .exact import LinearFractional, _format, rat
from .surface import IntegerDivisor, SurfaceModel, flag_family

if TYPE_CHECKING:
    from .delta import RatioTable

F = Fraction


class UnknownCase(KeyError):
    """No catalog entry with the requested id."""

    def __str__(self) -> str:
        # the message, where str() of a KeyError is the repr of its key
        return Exception.__str__(self)


class DegreeNotAdmissible(ValueError):
    """The catalog entry does not cover the requested curve degree."""


Affine = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PointSpec:
    """A marked point of the exceptional curve E.

    ``coeff`` is the different coefficient at the point as an affine function
    of lambda; ``location`` is "on_L" for the point E . L (it picks up the
    negative-part contribution in flag integrals), "on_C" for branch points of
    the transformed curve, "isolated" otherwise.  ``ratio`` is the expected
    A/S value at the point: ratio_num(lambda) / (ratio_den * (3 - d*lambda)).
    ``orbifold_order`` is n for a quotient point of order n (its lambda-free
    different coefficient must equal 1 - 1/n).
    """

    label: str
    coeff: Affine
    location: str
    ratio_num: Affine
    ratio_den: Fraction = F(1)
    orbifold_order: int | None = None


@dataclass(frozen=True)
class Variant:
    """One boundary-divisor option for a case (most cases have exactly one)."""

    name: str
    points: tuple[PointSpec, ...]


class CurveBound(NamedTuple):
    """A plane curve class of degree e with multiplicity l inside C, used as
    an additional upper bound A/S = 3*e*(1 - l*lambda)/(3 - d*lambda)."""

    e: int
    l: Fraction


@dataclass(frozen=True)
class DegreeRow:
    """Validity interval and closed form for one admissible degree."""

    d: int
    lo: Fraction
    hi: Fraction
    delta_num: tuple[Fraction, ...]
    delta_den: tuple[Fraction, ...]

    @cached_property
    def stated_form(self) -> LinearFractional:
        """The stated closed form in normal form, built once per instance on first use;
        ValueError when a part has degree > 1 (validate_case reports it)."""
        return LinearFractional.from_coeffs(self.delta_num, self.delta_den)


@dataclass(frozen=True)
class CaseSpec:
    id: str
    label: str
    order: int
    model: SurfaceModel
    m_L: Fraction | None
    m_C: Fraction
    k_E: Fraction
    printed_A: Affine
    s_factor: Fraction
    tau_factor: Fraction
    break_factors: tuple[Fraction, ...]
    variants: tuple[Variant, ...]
    gen_ratio_num: Affine
    gen_ratio_den: Fraction
    extra_upper_bounds: tuple[CurveBound, ...]
    rows: tuple[DegreeRow, ...]
    minimizers: tuple[str, ...]
    lower_regime_hi: Fraction | None = None
    alias_of: str | None = None

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.d for row in self.rows)

    def row(self, d: int) -> DegreeRow:
        check_degree(d)
        for row in self.rows:
            if row.d == d:
                return row
        raise DegreeNotAdmissible(f"case {self.id} does not admit degree {d} (admissible: {self.degrees})")

    @cached_property
    def ratio_table(self) -> RatioTable:
        """The entry's ratio table (delta.ratio_table), built once per instance on first use."""
        from .delta import ratio_table  # delta imports this module

        return ratio_table(self)


def _single_model() -> SurfaceModel:
    return SurfaceModel(("E",), ((F(-1),),), F(1), (F(0),))

def _two_model(e2: Fraction, el: Fraction, l2: Fraction) -> SurfaceModel:
    return SurfaceModel(("E", "L"), ((e2, el), (el, l2)), F(1), (F(0), F(1)))


_SINGLE = _single_model()
_TANGENT2 = _two_model(F(-1, 2), F(1), F(-1))
_FLEX3 = _two_model(F(-1, 3), F(1), F(-2))
_HYPERFLEX4 = _two_model(F(-1, 4), F(1), F(-3))
_CUSP = _two_model(F(-1, 6), F(1, 2), F(-1, 2))
_A4_MODEL = _two_model(F(-1, 10), F(2, 5), F(-3, 5))
_A5_MODEL = _two_model(F(-1, 3), F(2, 3), F(-1, 3))
_A6_MODEL = _two_model(F(-1, 14), F(2, 7), F(-1, 7))
_A7_MODEL = _two_model(F(-1, 4), F(1, 2), F(0))
_E6_MODEL = _two_model(F(-1, 12), F(1, 3), F(-1, 3))


def _pt(label: str, a, b, location: str, rn_a, rn_b, rden=1, order: int | None = None) -> PointSpec:
    return PointSpec(label, (rat(a), rat(b)), location, (rat(rn_a), rat(rn_b)), rat(rden), order)


def _row(d: int, lo, hi, num: Iterable, den: Iterable) -> DegreeRow:
    return DegreeRow(d, rat(lo), rat(hi), tuple(rat(c) for c in num), tuple(rat(c) for c in den))


def _case(
    id: str,
    label: str,
    order: int,
    model: SurfaceModel,
    m_L,
    m_C,
    k_E,
    printed_A: tuple,
    s_factor,
    tau_factor,
    breaks: tuple,
    points,
    gen_num: tuple,
    gen_den,
    rows: tuple[DegreeRow, ...],
    minimizers: tuple[str, ...],
    extra: tuple[CurveBound, ...] = (),
    lower_regime_hi=None,
) -> CaseSpec:
    variants = points if points and isinstance(points[0], Variant) else (Variant("default", tuple(points)),)
    return CaseSpec(
        id=id,
        label=label,
        order=order,
        model=model,
        m_L=None if m_L is None else rat(m_L),
        m_C=rat(m_C),
        k_E=rat(k_E),
        printed_A=(rat(printed_A[0]), rat(printed_A[1])),
        s_factor=rat(s_factor),
        tau_factor=rat(tau_factor),
        break_factors=tuple(rat(b) for b in breaks),
        variants=tuple(variants),
        gen_ratio_num=(rat(gen_num[0]), rat(gen_num[1])),
        gen_ratio_den=rat(gen_den),
        extra_upper_bounds=extra,
        rows=rows,
        minimizers=minimizers,
        lower_regime_hi=None if lower_regime_hi is None else rat(lower_regime_hi),
    )


# an alias entry as (id, label, order, alias_of, rows): its target's entry with these five fields replaced
_Alias = tuple[str, str, int, str, tuple[DegreeRow, ...]]


def _alias(id: str, label: str, order: int, target: str, row: DegreeRow) -> _Alias:
    return id, label, order, target, (row,)


def _build(entries: Iterable[CaseSpec | _Alias]) -> dict[str, CaseSpec]:
    """The entries by id, in order; an alias's target comes before it."""
    cases: dict[str, CaseSpec] = {}
    for entry in entries:
        if not isinstance(entry, CaseSpec):
            id, label, order, target, rows = entry
            entry = replace(cases[target], id=id, label=label, order=order, rows=rows, alias_of=target)
        cases[entry.id] = entry
    return cases


_LINE_BOUND = CurveBound(1, F(1))
_DOUBLE_LINE_BOUND = CurveBound(1, F(2))
_TRIPLE_LINE_BOUND = CurveBound(1, F(3))
_QUADRUPLE_LINE_BOUND = CurveBound(1, F(4))


_RAW_CASES: tuple[CaseSpec | _Alias, ...] = (
    _case(
        "line_component_smooth_point",
        "smooth point on a line component",
        1,
        _SINGLE, None, 1, 1, (2, -1), F(2, 3), 1, (),
        (
            _pt("Q", 0, 1, "on_C", 3, -3),
        ),
        (3, 0), 1,
        (
            _row(1, 0, 1, (3, -3), (3, -1)),
            _row(2, 0, 1, (3, -3), (3, -2)),
            _row(3, 0, 1, (3, -3), (3, -3)),
            _row(4, 0, F(3, 4), (3, -3), (3, -4)),
        ),
        ("Q",),
        extra=(_LINE_BOUND,),
    ),
    _case(
        "smooth_conic",
        "smooth point of a conic, tangent flag",
        2,
        _TANGENT2, 2, 2, 2, (3, -2), 1, 2, (1,),
        (
            _pt("EL", 0, 0, "on_L", 3, 0),
            _pt("P1", F(1, 2), 0, "isolated", 3, 0, order=2),
            _pt("Q", 0, 1, "on_C", 6, -6),
        ),
        (6, 0), 1,
        (_row(2, 0, F(3, 4), (1,), (1,)),),
        ("E",),
    ),
    _alias("smooth_cubic_tangent2",
           "smooth point of a cubic, simple tangency",
           3, "smooth_conic", _row(3, 0, F(3, 4), (3, -2), (3, -3))),
    _case(
        "smooth_cubic_flex",
        "flex of a cubic, triple tangency",
        4,
        _FLEX3, 3, 3, 3, (4, -3), F(4, 3), 3, (1,),
        (
            _pt("EL", 0, 0, "on_L", 3, 0),
            _pt("P1", F(2, 3), 0, "isolated", 3, 0, order=3),
            _pt("Q", 0, 1, "on_C", 9, -9),
        ),
        (9, 0), 1,
        (_row(3, 0, F(8, 9), (4, -3), (4, -4)),),
        ("E",),
    ),
    _alias("smooth_quartic_tangent2",
           "smooth point of a quartic, simple tangency",
           5, "smooth_conic", _row(4, 0, F(3, 4), (3, -2), (3, -4))),
    _alias("smooth_quartic_flex",
           "flex of a quartic, triple tangency",
           6, "smooth_cubic_flex", _row(4, 0, F(3, 4), (12, -9), (12, -16))),
    _case(
        "smooth_quartic_hyperflex",
        "hyperflex of a quartic, quadruple tangency",
        7,
        _HYPERFLEX4, 4, 4, 4, (5, -4), F(5, 3), 4, (1,),
        (
            _pt("EL", 0, 0, "on_L", 3, 0),
            _pt("P1", F(3, 4), 0, "isolated", 3, 0, order=4),
            _pt("Q", 0, 1, "on_C", 12, -12),
        ),
        (12, 0), 1,
        (_row(4, 0, F(3, 4), (15, -12), (15, -20)),),
        ("E",),
    ),
    _case(
        "A1",
        "node (A1)",
        8,
        _SINGLE, None, 2, 1, (2, -2), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 1, "on_C", 3, -3),
            _pt("Q2", 0, 1, "on_C", 3, -3),
        ),
        (3, 0), 1,
        (
            _row(2, 0, 1, (3, -3), (3, -2)),
            _row(3, 0, 1, (3, -3), (3, -3)),
            _row(4, 0, F(3, 4), (3, -3), (3, -4)),
        ),
        ("E", "Q1", "Q2"),
    ),
    _case(
        "A2",
        "cusp (A2)",
        9,
        _CUSP, 3, 6, 4, (5, -6), F(5, 3), 3, (2,),
        (
            _pt("P1", F(2, 3), 0, "isolated", 3, 0, order=3),
            _pt("P2", F(1, 2), 0, "on_L", 3, 0, order=2),
            _pt("Q", 0, 1, "on_C", 9, -9),
        ),
        (9, 0), 1,
        (
            _row(3, 0, F(5, 6), (5, -6), (5, -5)),
            _row(4, 0, F(3, 4), (15, -18), (15, -20)),
        ),
        ("E",),
    ),
    _case(
        "A3",
        "tacnode (A3)",
        10,
        _TANGENT2, 2, 4, 2, (3, -4), 1, 2, (1,),
        (
            Variant(
                "tangent_not_component",
                (
                    _pt("EL", 0, 0, "on_L", 3, 0),
                    _pt("P1", F(1, 2), 0, "isolated", 3, 0, order=2),
                    _pt("Q1", 0, 1, "on_C", 6, -6),
                    _pt("Q2", 0, 1, "on_C", 6, -6),
                ),
            ),
            Variant(
                "tangent_component",
                (
                    _pt("EL", 0, 0, "on_L", 3, 0),
                    _pt("P1", F(1, 2), 0, "isolated", 3, 0, order=2),
                    _pt("Q1", 0, 1, "on_C", 6, -6),
                    _pt("Q2", 0, 1, "on_C", 6, -6),
                    _pt("QL", 0, 1, "on_C", 6, -6),
                ),
            ),
        ),
        (6, 0), 1,
        (
            _row(3, 0, F(3, 4), (3, -4), (3, -3)),
            _row(4, 0, F(3, 4), (3, -4), (3, -4)),
        ),
        ("E",),
    ),
    _case(
        "A4",
        "rhamphoid cusp (A4)",
        11,
        _A4_MODEL, 4, 10, 6, (7, -10), F(13, 6), 4, (F(5, 2),),
        (
            _pt("P12", F(4, 5), 0, "on_L", 3, 0, 2, order=5),
            _pt("P3", F(1, 2), 0, "isolated", 6, 0, order=2),
        ),
        (12, 0), 1,
        (_row(4, F(3, 8), F(7, 10), (42, -60), (39, -52)),),
        ("E",),
        lower_regime_hi=F(3, 8),
    ),
    _case(
        "A5",
        "oscnode (A5), tangent line not a component",
        12,
        _A5_MODEL, 2, 6, 3, (4, -6), F(7, 6), 2, (F(3, 2),),
        (
            _pt("P1", F(2, 3), 0, "on_L", 3, 0, 2, order=3),
            _pt("Q1", 0, 1, "on_C", 6, -6),
            _pt("Q2", 0, 1, "on_C", 6, -6),
        ),
        (6, 0), 1,
        (_row(4, F(3, 8), F(2, 3), (24, -36), (21, -28)),),
        ("E",),
        lower_regime_hi=F(3, 8),
    ),
    _case(
        "A5_line_in_C",
        "oscnode (A5), tangent line a component",
        13,
        _FLEX3, 3, 6, 3, (4, -6), F(4, 3), 3, (1,),
        (
            _pt("EL", 0, 0, "on_L", 3, 0),
            _pt("P1", F(2, 3), 0, "isolated", 3, 0, order=3),
            _pt("Q1", 0, 1, "on_C", 9, -9),
            _pt("Q2", 0, 1, "on_C", 9, -9),
            _pt("QL", 0, 1, "on_C", 9, -9),
        ),
        (9, 0), 1,
        (_row(4, 0, F(2, 3), (12, -18), (12, -16)),),
        ("E",),
    ),
    _case(
        "A6",
        "A6 singularity",
        14,
        _A6_MODEL, 4, 14, 8, (9, -14), F(5, 2), 4, (F(7, 2),),
        (
            _pt("P123", F(6, 7), 0, "on_L", 3, 0, 2, order=7),
            _pt("P4", F(1, 2), 0, "isolated", 6, 0, order=2),
        ),
        (12, 0), 1,
        (_row(4, F(3, 8), F(1, 2), (18, -28), (15, -20)),),
        ("E",),
        lower_regime_hi=F(3, 8),
    ),
    _case(
        "A7",
        "A7 singularity",
        15,
        _A7_MODEL, 2, 8, 4, (5, -8), F(4, 3), 2, (),
        (
            _pt("P1", F(3, 4), 0, "on_L", 3, 0, 2, order=4),
            _pt("Q1", 0, 1, "on_C", 6, -6),
            _pt("Q2", 0, 1, "on_C", 6, -6),
        ),
        (6, 0), 1,
        (_row(4, F(3, 8), F(5, 8), (15, -24), (12, -16)),),
        ("E",),
        lower_regime_hi=F(3, 8),
    ),
    _case(
        "D4",
        "ordinary triple point (D4)",
        16,
        _SINGLE, None, 3, 1, (2, -3), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 1, "on_C", 3, -3),
            _pt("Q2", 0, 1, "on_C", 3, -3),
            _pt("Q3", 0, 1, "on_C", 3, -3),
        ),
        (3, 0), 1,
        (
            _row(3, 0, F(2, 3), (2, -3), (2, -2)),
            _row(4, 0, F(2, 3), (6, -9), (6, -8)),
        ),
        ("E",),
    ),
    _case(
        "D5",
        "D5 singularity",
        17,
        _CUSP, 3, 8, 4, (5, -8), F(5, 3), 3, (2,),
        (
            _pt("P1", F(2, 3), F(1, 3), "isolated", 3, -3, order=3),
            _pt("P2", F(1, 2), 0, "on_L", 3, 0, order=2),
            _pt("Q", 0, 1, "on_C", 9, -9),
        ),
        (9, 0), 1,
        (_row(4, 0, F(5, 8), (15, -24), (15, -20)),),
        ("E",),
    ),
    _case(
        "D6",
        "D6 singularity, tangent line a component",
        18,
        _TANGENT2, 2, 5, 2, (3, -5), 1, 2, (1,),
        (
            _pt("P1", F(1, 2), F(1, 2), "isolated", 3, -3, order=2),
            _pt("QL", 0, 1, "on_L", 3, -3),
            _pt("Q", 0, 1, "on_C", 6, -6),
        ),
        (6, 0), 1,
        (_row(4, 0, F(3, 5), (3, -5), (3, -4)),),
        ("E",),
    ),
    _case(
        "E6",
        "E6 singularity",
        19,
        _E6_MODEL, 4, 12, 6, (7, -12), F(7, 3), 4, (3,),
        (
            _pt("P1", F(3, 4), 0, "isolated", 3, 0, order=4),
            _pt("P23", F(2, 3), 0, "on_L", 3, 0, order=3),
            _pt("Q", 0, 1, "on_C", 12, -12),
        ),
        (12, 0), 1,
        (_row(4, 0, F(7, 12), (21, -36), (21, -28)),),
        ("E",),
    ),
    _case(
        "E7",
        "E7 singularity",
        20,
        _CUSP, 3, 9, 4, (5, -9), F(5, 3), 3, (2,),
        (
            _pt("P1", F(2, 3), 0, "isolated", 3, 0, order=3),
            _pt("P2", F(1, 2), F(1, 2), "on_L", 3, -3, order=2),
            _pt("Q", 0, 1, "on_C", 9, -9),
        ),
        (9, 0), 1,
        (_row(4, 0, F(5, 9), (15, -27), (15, -20)),),
        ("E",),
    ),
    _case(
        "four_concurrent_lines",
        "four lines through one point",
        21,
        _SINGLE, None, 4, 1, (2, -4), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 1, "on_C", 3, -3),
            _pt("Q2", 0, 1, "on_C", 3, -3),
            _pt("Q3", 0, 1, "on_C", 3, -3),
            _pt("Q4", 0, 1, "on_C", 3, -3),
        ),
        (3, 0), 1,
        (_row(4, 0, F(1, 2), (3, -6), (3, -4)),),
        ("E",),
    ),
    _case(
        "double_line",
        "double line",
        22,
        _SINGLE, None, 2, 1, (2, -2), F(2, 3), 1, (),
        (
            _pt("Q", 0, 2, "on_C", 3, -6),
        ),
        (3, 0), 1,
        (_row(2, 0, F(1, 2), (3, -6), (3, -2)),),
        ("Q",),
        extra=(_DOUBLE_LINE_BOUND,),
    ),
    _alias("double_line_plus_line_smooth",
           "double line plus a line, smooth point on the simple line",
           23, "line_component_smooth_point", _row(3, 0, 1, (1,), (1,))),
    _alias("double_line_plus_line_point_on_double",
           "double line plus a line, smooth point on the double line",
           24, "double_line", _row(3, 0, F(1, 2), (3, -6), (3, -3))),
    _case(
        "double_line_plus_line_singular",
        "double line plus a line, crossing point",
        25,
        _SINGLE, None, 3, 1, (2, -3), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 1, "on_C", 3, -3),
            _pt("Q2", 0, 2, "on_C", 3, -6),
        ),
        (3, 0), 1,
        (_row(3, 0, F(1, 2), (3, -6), (3, -3)),),
        ("Q2",),
        extra=(_DOUBLE_LINE_BOUND,),
    ),
    _case(
        "triple_line",
        "triple line",
        26,
        _SINGLE, None, 3, 1, (2, -3), F(2, 3), 1, (),
        (
            _pt("Q", 0, 3, "on_C", 3, -9),
        ),
        (3, 0), 1,
        (_row(3, 0, F(1, 3), (3, -9), (3, -3)),),
        ("Q",),
        extra=(_TRIPLE_LINE_BOUND,),
    ),
    _case(
        "double_conic",
        "double conic, smooth point",
        27,
        _TANGENT2, 2, 4, 2, (3, -4), 1, 2, (1,),
        (
            _pt("EL", 0, 0, "on_L", 3, 0),
            _pt("P1", F(1, 2), 0, "isolated", 3, 0, order=2),
            _pt("Q", 0, 2, "on_C", 6, -12),
        ),
        (6, 0), 1,
        (_row(4, 0, F(3, 8), (1,), (1,)),),
        ("E",),
    ),
    _alias("conic_double_chord_on_conic",
           "conic plus double chord, smooth point on the conic",
           28, "smooth_quartic_tangent2", _row(4, 0, F(3, 4), (3, -2), (3, -4))),
    _alias("conic_double_chord_on_chord",
           "conic plus double chord, smooth point on the chord",
           29, "double_line", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _alias("conic_double_chord_node",
           "conic plus double chord, crossing point",
           30, "double_line_plus_line_singular", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _alias("conic_double_tangent_on_conic",
           "conic plus double tangent, smooth point on the conic",
           31, "smooth_quartic_tangent2", _row(4, 0, F(3, 4), (3, -2), (3, -4))),
    _alias("conic_double_tangent_on_line",
           "conic plus double tangent, smooth point on the tangent",
           32, "conic_double_chord_on_chord", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _case(
        "conic_double_tangent_tangency",
        "conic plus double tangent, tangency point",
        33,
        _TANGENT2, 2, 4, 2, (3, -4), 1, 2, (1,),
        (
            _pt("P1", F(1, 2), 0, "isolated", 3, 0, order=2),
            _pt("Q1", 0, 1, "on_C", 6, -6),
            _pt("Q2", 0, 2, "on_L", 3, -6),
        ),
        (6, 0), 1,
        (_row(4, 0, F(1, 2), (3, -6), (3, -4)),),
        ("Q2",),
        extra=(_DOUBLE_LINE_BOUND,),
    ),
    _alias("double_line_two_lines_general_smooth",
           "double line plus two general lines, smooth point on a simple line",
           34, "line_component_smooth_point", _row(4, 0, F(3, 4), (3, -3), (3, -4))),
    _alias("double_line_two_lines_general_node",
           "double line plus two general lines, node of the simple lines",
           35, "A1", _row(4, 0, F(3, 4), (3, -3), (3, -4))),
    _alias("double_line_two_lines_general_on_double",
           "double line plus two general lines, smooth point on the double line",
           36, "double_line", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _alias("double_line_two_lines_general_singular",
           "double line plus two general lines, crossing on the double line",
           37, "double_line_plus_line_singular", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _alias("double_line_two_lines_concurrent_smooth",
           "double line plus two concurrent lines, smooth point",
           38, "line_component_smooth_point", _row(4, 0, F(3, 4), (3, -3), (3, -4))),
    _alias("double_line_two_lines_concurrent_on_double",
           "double line plus two concurrent lines, smooth point on the double line",
           39, "double_line", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _case(
        "double_line_two_lines_concurrent_center",
        "double line plus two concurrent lines, common point",
        40,
        _SINGLE, None, 4, 1, (2, -4), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 1, "on_C", 3, -3),
            _pt("Q2", 0, 1, "on_C", 3, -3),
            _pt("Q3", 0, 2, "on_C", 3, -6),
        ),
        (3, 0), 1,
        (_row(4, 0, F(1, 2), (3, -6), (3, -4)),),
        ("E", "Q3"),
        extra=(_DOUBLE_LINE_BOUND,),
    ),
    _alias("two_double_lines_on_line",
           "two double lines, smooth point on one of them",
           41, "double_line", _row(4, 0, F(1, 2), (3, -6), (3, -4))),
    _case(
        "two_double_lines_node",
        "two double lines, crossing point",
        42,
        _SINGLE, None, 4, 1, (2, -4), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 2, "on_C", 3, -6),
            _pt("Q2", 0, 2, "on_C", 3, -6),
        ),
        (3, 0), 1,
        (_row(4, 0, F(1, 2), (3, -6), (3, -4)),),
        ("E", "Q1", "Q2"),
        extra=(_DOUBLE_LINE_BOUND,),
    ),
    _alias("triple_line_plus_line_smooth",
           "triple line plus a line, smooth point on the simple line",
           43, "line_component_smooth_point", _row(4, 0, F(3, 4), (3, -3), (3, -4))),
    _alias("triple_line_plus_line_on_triple",
           "triple line plus a line, smooth point on the triple line",
           44, "triple_line", _row(4, 0, F(1, 3), (3, -9), (3, -4))),
    _case(
        "triple_line_plus_line_singular",
        "triple line plus a line, crossing point",
        45,
        _SINGLE, None, 4, 1, (2, -4), F(2, 3), 1, (),
        (
            _pt("Q1", 0, 1, "on_C", 3, -3),
            _pt("Q2", 0, 3, "on_C", 3, -9),
        ),
        (3, 0), 1,
        (_row(4, 0, F(1, 3), (3, -9), (3, -4)),),
        ("Q2",),
        extra=(_TRIPLE_LINE_BOUND,),
    ),
    _case(
        "quadruple_line",
        "quadruple line",
        46,
        _SINGLE, None, 4, 1, (2, -4), F(2, 3), 1, (),
        (
            _pt("Q", 0, 4, "on_C", 3, -12),
        ),
        (3, 0), 1,
        (_row(4, 0, F(1, 4), (3, -12), (3, -4)),),
        ("Q",),
        extra=(_QUADRUPLE_LINE_BOUND,),
    ),
)


CASES: dict[str, CaseSpec] = _build(_RAW_CASES)


def get_case(case_id: str) -> CaseSpec:
    try:
        return CASES[case_id]
    except KeyError:
        raise UnknownCase(f"unknown case id {case_id!r}") from None


def list_cases() -> list[tuple[str, str, tuple[int, ...], tuple[tuple[int, Fraction, Fraction], ...]]]:
    """All entries in stable order: (id, label, degrees, per-degree validity)."""
    out = []
    for spec in sorted(CASES.values(), key=lambda s: s.order):
        out.append((spec.id, spec.label, spec.degrees, tuple((r.d, r.lo, r.hi) for r in spec.rows)))
    return out


def check_degree(value: int, name: str = "degree") -> int:
    """value, refused with TypeError unless an int: as rat refuses a float lambda, a float degree
    would put floats in the result path.  A bool, an int to Python, is refused too."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not an int")
    return value


def check_lambda(d: int, lam: Fraction | int | str) -> Fraction:
    """lambda as a Fraction; ValueError unless d >= 1 and lambda lies in [0, 3/d), tested on its integers p/q."""
    if d < 1:
        raise ValueError(f"curve degree d = {d} must be >= 1")
    lam = rat(lam)
    p, q = lam.as_integer_ratio()
    if p < 0 or p * d >= 3 * q:
        raise ValueError(f"lambda {lam} outside [0, 3/{d})")
    return lam


def build_case(case_id: str, d: int, catalog: dict[str, CaseSpec] | None = None):
    """Model, divisor-family factory, and spec for a case at curve degree d.

    The factory maps a rational lambda in [0, 3/d) to the integer row of
    D(v) = (pullback of the lambda-anticanonical class) - v*E, which is
    ``surface.flag_family(model, t)`` with t = 3 - d*lambda.
    """
    cat = CASES if catalog is None else catalog
    if case_id not in cat:
        raise UnknownCase(f"unknown case id {case_id!r}")
    spec = cat[case_id]
    spec.row(d)
    model = spec.model

    def factory(lam: Fraction | int | str) -> IntegerDivisor:
        return flag_family(model, 3 - d * check_lambda(d, lam))

    return model, factory, spec


def _affine_str(line: Affine | None) -> str:
    """The line a + b*lambda as text, e.g. "5-6l"; "none" for no line."""
    return "none" if line is None else _format(line, "l")


_ORDER, _ALIAS = attrgetter("order"), attrgetter("alias_of")


def _case_ids(catalog: Mapping[str, CaseSpec], case_ids: Iterable[str] | None) -> list[str] | None:
    """case_ids as a list without repeats, each a key of catalog; None stays None (every entry).

    A str is refused with TypeError, since it would name its characters, or, by a
    substring test, every id it contains; an id the mapping lacks with UnknownCase.
    """
    if case_ids is None:
        return None
    if isinstance(case_ids, str):
        raise TypeError(f"case_ids must be a collection of case ids, not the str {case_ids!r}")
    ids = list(dict.fromkeys(case_ids))
    for case_id in ids:
        if case_id not in catalog:
            raise UnknownCase(f"unknown case id {case_id!r}")
    return ids


def validate_catalog(catalog: dict[str, CaseSpec] | None = None, case_ids: list[str] | None = None) -> list[str]:
    """Structural consistency of the catalog; an empty list is the release gate.

    The order and alias checks span the whole mapping; the per-entry checks of
    validate_case run on the entries named in case_ids (all when None), which
    _case_ids refuses unless each is a key of the mapping.  Both catalog-wide
    checks are first made as set tests, and only when one fails, or with no
    case_ids, are all entries visited in order; the messages then come per
    entry in catalog order: a duplicate order, the entry's own, a missing alias
    target.  Violations are returned as data rather than raised so that a
    verification run can report all of them at once.
    """
    cat = CASES if catalog is None else catalog
    ids = _case_ids(cat, case_ids)
    specs = cat.values()
    if ids is not None:
        aliases = set(map(_ALIAS, specs))
        aliases.discard(None)
        if len(set(map(_ORDER, specs))) == len(specs) and aliases.issubset(cat):
            specs = [cat[case_id] for case_id in ids]  # nothing catalog-wide to report
    problems: list[str] = []
    orders_seen: set[int] = set()
    for spec in sorted(specs, key=_ORDER):
        if spec.order in orders_seen:
            problems.append(f"{spec.id}: duplicate order {spec.order}")
        orders_seen.add(spec.order)
        if ids is None or spec.id in ids:
            problems += validate_case(spec)
        if spec.alias_of is not None and spec.alias_of not in cat:
            problems.append(f"{spec.id}: alias target {spec.alias_of!r} missing")
    return problems


def _ratios(*values: Fraction) -> list[tuple[int, int]]:
    """Each value's integer ratio (numerator, denominator > 0)."""
    return [x.as_integer_ratio() for x in values]


def validate_case(spec: CaseSpec) -> list[str]:
    """Structural consistency of one entry on its own.

    Each test runs on integer ratios (numerator, denominator > 0), cross-multiplied;
    a Fraction is built only for a failing test's message.
    """
    pid = spec.id
    problems: list[str] = []
    model = spec.model  # SurfaceModel refuses an asymmetric gram
    has_e = "E" in model.curves
    if not has_e:
        problems.append(f"{pid}: model has no exceptional curve E")
    if "L" in model.curves:
        if spec.m_L is None:
            problems.append(f"{pid}: companion curve present but m_L missing")
        elif has_e:
            e2 = model.pairing("E", "E")
            el = model.pairing("E", "L")
            l2 = model.pairing("L", "L")
            (e2_p, e2_q), (el_p, el_q), (l2_p, l2_q), (m_p, m_q) = _ratios(e2, el, l2, spec.m_L)
            if el_p * m_q * e2_q + m_p * e2_p * el_q != 0:  # (L.E) + m_L*(E.E) != 0
                problems.append(f"{pid}: pullback identity (L.E) + m_L*(E.E) = {el + spec.m_L * e2} != 0")
            if l2_p * m_q * el_q + m_p * el_p * l2_q != l2_q * m_q * el_q:  # (L.L) + m_L*(L.E) != 1
                problems.append(f"{pid}: pullback identity (L.L) + m_L*(L.E) = {l2 + spec.m_L * el} != 1")
    else:
        if has_e and model.pairing("E", "E") != -1:
            problems.append(f"{pid}: single-blowup model must have E.E = -1")
        if spec.m_L is not None:
            problems.append(f"{pid}: m_L given but model has no companion curve")
    (k_p, k_q), (c_p, c_q), (a_p, a_q), (b_p, b_q) = _ratios(spec.k_E, spec.m_C, *spec.printed_A)
    if (k_q + k_p) * a_q != a_p * k_q or -c_p * b_q != b_p * c_q:  # (1 + k_E, -m_C) != printed_A
        derived_a = (1 + spec.k_E, -spec.m_C)
        problems.append(f"{pid}: A(l) mismatch: got {_affine_str(derived_a)}, stated {_affine_str(spec.printed_A)}")
    (s_p, _), (tau_p, tau_q) = _ratios(spec.s_factor, spec.tau_factor)
    if s_p <= 0 or tau_p <= 0:
        problems.append(f"{pid}: S/tau factors must be positive")
    prev_p, prev_q = 0, 1
    for b in spec.break_factors:
        b_p, b_q = b.as_integer_ratio()
        if not (prev_p * b_q < b_p * prev_q and b_p * tau_q < tau_p * b_q):  # not prev < b < tau
            problems.append(f"{pid}: breakpoint factor {b} out of order")
        prev_p, prev_q = b_p, b_q
    for row in spec.rows:
        (r_lo_p, r_lo_q), (r_hi_p, r_hi_q) = _ratios(row.lo, row.hi)
        if not (0 <= r_lo_p and r_lo_p * r_hi_q < r_hi_p * r_lo_q):
            problems.append(f"{pid}: empty validity interval for d={row.d}")
        if r_hi_p * row.d > 3 * r_hi_q:
            problems.append(f"{pid}: validity for d={row.d} exceeds 3/d")
        if not any(row.delta_den):
            problems.append(f"{pid}: zero denominator in closed form for d={row.d}")
        else:
            try:
                row.stated_form
            except ValueError as exc:
                problems.append(f"{pid}: closed form for d={row.d}: {exc}")
    if not spec.rows:  # the checks on the validity range are skipped
        problems.append(f"{pid}: no degree rows")
    else:
        (lo_p, lo_q), (hi_p, hi_q) = _ratios(min(row.lo for row in spec.rows), max(row.hi for row in spec.rows))
    for var in spec.variants:
        on_l = [pt for pt in var.points if pt.location == "on_L"]
        if len(on_l) > 1:
            problems.append(f"{pid}/{var.name}: more than one point at E.L")
        if on_l and "L" not in model.curves:
            problems.append(f"{pid}/{var.name}: on_L point but no companion curve")
        for pt in var.points:
            (a_n, a_d), (b_n, b_d) = _ratios(*pt.coeff)
            # a + b*x at x = p/q is (a_n*b_d*q + b_n*a_d*p)/(a_d*b_d*q), each denominator positive;
            # value 1 is tolerated at the upper validity endpoint only
            if spec.rows:
                v_lo, v_hi = a_n * b_d * lo_q + b_n * a_d * lo_p, a_n * b_d * hi_q + b_n * a_d * hi_p
                if v_lo < 0 or v_hi < 0 or v_lo >= a_d * b_d * lo_q or v_hi > a_d * b_d * hi_q:
                    problems.append(f"{pid}/{var.name}: different coefficient {_affine_str(pt.coeff)} out of [0,1) on validity")
            n = pt.orbifold_order
            if n is not None and a_n * n != (n - 1) * a_d:  # a != 1 - 1/n
                problems.append(f"{pid}/{var.name}: point {pt.label} coefficient {pt.coeff[0]} != 1 - 1/{n}")
            if pt.location not in ("on_L", "on_C", "isolated"):
                problems.append(f"{pid}/{var.name}: bad location {pt.location!r}")
            if pt.ratio_den.as_integer_ratio()[0] <= 0:
                problems.append(f"{pid}/{var.name}: nonpositive ratio denominator factor")
    labels = {pt.label for var in spec.variants for pt in var.points} | {"E"}
    for m in spec.minimizers:
        if m not in labels:
            problems.append(f"{pid}: minimizer {m!r} is not a declared point")
    if spec.lower_regime_hi is not None and spec.rows:
        reg_p, reg_q = spec.lower_regime_hi.as_integer_ratio()
        if reg_p * lo_q != lo_p * reg_q:
            problems.append(f"{pid}: lower-bound regime must end where validity starts")
    return problems
