"""S-invariants, log discrepancies, and the assembled local delta invariants."""

from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logfano.catalog import CASES
from logfano.delta import (
    NotExactOnInterval,
    PointRow,
    Ratio,
    RatioTable,
    _minimizer_names,
    _unit_constants,
    delta_closed_form,
    delta_point,
    interior_samples,
    s_curve_on_plane,
    s_divisor,
)
from logfano.exact import LinearFractional, fit_rational_function, integrate_piecewise
from logfano.surface import SurfaceModel, volume_function, zariski_decompose
from logfano.catalog import CurveBound, DegreeNotAdmissible, build_case

from conftest import gauss_piecewise, rel_err
from oracles import flag_integrand, fraction_delta_point, fraction_lines, least_lines

ROWS = [(spec.id, row.d) for spec in sorted(CASES.values(), key=lambda s: s.order) for row in spec.rows]


def _ends(case_id, d):
    """lambda = 0, the ends of the stated validity interval, the lct and 1/97 past it."""
    row, lct = CASES[case_id].row(d), CASES[case_id].ratio_table.lct
    return {F(0), row.lo, row.hi} | (set() if lct is None else {lct, lct + F(1, 97)})


# each of _ends wherever it lies in [0, 3/d)
END_EXAMPLES = [((case_id, d), lam) for case_id, d in ROWS for lam in sorted(_ends(case_id, d)) if lam * d < 3]


def _with_end_examples(test):
    for row_lam in END_EXAMPLES:
        test = example(row_lam=row_lam)(test)
    return test


def _fresh_s_invariants(spec, d, lam):
    """S(E) and every point's S(W;O), integrated from a decomposition made at this lambda."""
    model, factory, _ = build_case(spec.id, d, {spec.id: spec})
    t = 3 - d * lam
    pieces = zariski_decompose(model, factory(lam))
    assert pieces.tau == t * spec.tau_factor
    s_e = integrate_piecewise(volume_function(pieces)) / t**2
    labels = {pt.label for var in spec.variants for pt in var.points}
    points = {"generic", *(("EL",) if "L" in model.curves else ()), *labels}
    return s_e, {p: 2 * integrate_piecewise(flag_integrand(spec, d, lam, p)) / t**2 for p in points}


def _engine_s_points(spec, t):
    """The engine's S(W;O) at t per point label: each label's first ratio-table row, "generic", and
    "EL", the crossing of E and L, from the model's t = 1 constants where the model has L."""
    s_points = {}
    for _, point, ratio in spec.ratio_table.rows:
        s_points.setdefault(point, ratio.s * t)
    s_on_l = _unit_constants(spec.model).s_on_l
    if s_on_l is not None:
        s_points.setdefault("EL", s_on_l * t)
    return s_points


def _first_rows(rep):
    """A DeltaReport's rows by point label, the first row of each label."""
    rows = {}
    for row in rep.rows:
        rows.setdefault(row.label, row)
    return rows


def _reference_report(spec, d, lam):
    """(rows, lower, upper, exact, minimizers) of delta_point, rebuilt from a decomposition made at
    this lambda and the catalog's coefficients, without the engine's ratio table."""
    s_e, s_points = _fresh_s_invariants(spec, d, lam)
    t = 3 - d * lam
    ratio_e = (1 + spec.k_E - spec.m_C * lam) / s_e
    rows = []
    for var in spec.variants:
        for pt in var.points:
            a = 1 - (pt.coeff[0] + pt.coeff[1] * lam)
            s = s_points["EL" if pt.location == "on_L" else "generic"]
            rows.append(PointRow(var.name, pt.label, a, s, a / s))
        rows.append(PointRow(var.name, "generic", F(1), s_points["generic"], 1 / s_points["generic"]))
    lower = min([ratio_e] + [r.ratio for r in rows])
    upper = min([ratio_e] + [3 * cb.e * (1 - cb.l * lam) / t for cb in spec.extra_upper_bounds])
    names = ["E"] if ratio_e == lower else []
    for r in rows:
        if r.ratio == lower and r.label != "generic" and r.label not in names:
            names.append(r.label)
    names += ["generic"] if any(r.label == "generic" and r.ratio == lower for r in rows) else []
    return tuple(rows), lower, upper, lower == upper, tuple(names)


class TestSDivisor:
    def test_cusp(self):
        assert s_divisor("A2", 4, F(1, 2)) == F(5, 3)

    def test_node(self):
        assert s_divisor("A1", 4, F(0)) == 2

    def test_conic(self):
        assert s_divisor("smooth_conic", 2, F(0)) == 3

    @pytest.mark.parametrize(
        "case_id,factor",
        [("A1", F(2, 3)), ("A2", F(5, 3)), ("A4", F(13, 6)), ("A6", F(5, 2)), ("E6", F(7, 3))],
    )
    def test_spot_table(self, case_id, factor):
        spec = CASES[case_id]
        row = spec.row(4)
        for lam in interior_samples(row.lo, row.hi, 3):
            assert s_divisor(case_id, 4, lam) == factor * (3 - 4 * lam)


class TestADivisor:
    def test_cusp(self):
        assert delta_point("A2", 4, F(1, 2)).a_e == 2

    def test_lambda_zero(self):
        for case_id in ("A1", "A3", "E7", "double_conic"):
            spec = CASES[case_id]
            assert delta_point(case_id, spec.rows[0].d, 0).a_e == 1 + spec.k_E

    def test_e7(self):
        assert delta_point("E7", 4, F(1, 3)).a_e == 2


class TestFlagPoints:
    def test_cusp_generic(self):
        assert _first_rows(delta_point("A2", 4, F(1, 2)))["generic"].s_value == F(1, 9)

    def test_cusp_crossing(self):
        # t = 1 at lambda = 1/2: S at E.L is the model's t = 1 constant, which the point P2 on L reads
        assert _unit_constants(CASES["A2"].model).s_on_l == F(1, 6)
        assert _first_rows(delta_point("A2", 4, F(1, 2)))["P2"].s_value == F(1, 6)

    def test_node_generic(self):
        assert _first_rows(delta_point("A1", 4, F(0)))["generic"].s_value == 1

    def test_a_values(self):
        assert _first_rows(delta_point("A2", 4, F(1, 2)))["Q"].a_value == F(1, 2)
        assert _first_rows(delta_point("A2", 4, F(1, 7)))["P1"].a_value == F(1, 3)
        assert _first_rows(delta_point("D5", 4, F(1, 2)))["P1"].a_value == F(1, 6)
        assert _first_rows(delta_point("A7", 4, F(1, 2)))["generic"].a_value == 1

    def test_first_declaration_of_a_label_wins(self):
        spec = CASES["A3"]
        first, second = spec.variants
        assert "P1" in {pt.label for pt in first.points} & {pt.label for pt in second.points}
        points = tuple(dataclasses.replace(pt, coeff=(F(0), F(0))) if pt.label == "P1" else pt for pt in second.points)
        shadowed = dataclasses.replace(spec, variants=(first, dataclasses.replace(second, points=points)))
        rep = delta_point(shadowed, 4, F(1, 2))
        assert _first_rows(rep)["P1"].a_value == _first_rows(delta_point("A3", 4, F(1, 2)))["P1"].a_value != 1
        assert [r.a_value for r in rep.rows if (r.variant, r.label) == (second.name, "P1")] == [1]


def test_minimizer_names_drop_the_variant_once_and_put_generic_last():
    labels = ["E", "v1:P", "generic", "v2:P", "v2:Q", "generic"]
    assert _minimizer_names(labels) == ("E", "P", "Q", "generic")


class TestLeastLines:
    @staticmethod
    def _table(p2_b):
        # lines A/s: E = 3, generic = 2 - l, v1:P = 1, v2:P = 1 + p2_b*l; one curve bound 3e(1 - l) = 3 - 3l
        e, gen = Ratio("E", F(3), F(0), F(1)), Ratio("generic", F(2), F(-1), F(1))
        p1, p2 = Ratio("v1:P", F(1), F(0), F(1)), Ratio("v2:P", F(1), p2_b, F(1))
        rows = (("v1", "P", p1), ("v1", "generic", gen), ("v2", "P", p2), ("v2", "generic", gen))
        return RatioTable(F(1), e, rows, (Ratio("curve(e=1,l=1)", F(1), F(-1), F(1, 3)),))

    def test_shared_point_least_in_two_variants_is_named_once(self):
        assert least_lines(self._table(F(0)), F(0), F(1, 2)) == ((F(1), F(0)), (F(3), F(-3)), ("P",))

    def test_ties_at_one_end_and_no_line_least_at_both_ends(self):
        # on [0, 1/2] v2:P = 1 - l ties v1:P at 0 and alone is least at 1/2
        assert least_lines(self._table(F(-1)), F(0), F(1, 2)) == ((F(1), F(-1)), (F(3), F(-3)), ("P",))
        # on [-1/2, 1/2] v2:P = 1 + l is least at -1/2 only, v1:P at 1/2 only; E and the curve bound likewise
        assert least_lines(self._table(F(1)), F(-1, 2), F(1, 2)) == (None, None, ())

    def test_at_one_point_every_least_line_binds(self):
        assert least_lines(self._table(F(1)), F(0), F(0)) == ((F(1), F(0)), (F(3), F(0)), ("P",))

    def test_lct_is_the_least_positive_zero_of_the_lower_a_lines(self):
        # A-lines 1 - 3l (zero 1/3, over a negative s), l (zero 0), -1 - l (zero -1), 2 - 4l (zero 1/2)
        e = Ratio("E", F(2), F(-4), F(1))
        rows = (("v", "P", Ratio("v:P", F(1), F(-3), F(-2))), ("v", "Q", Ratio("v:Q", F(0), F(1), F(1))),
                ("v", "R", Ratio("v:R", F(-1), F(-1), F(1))))
        assert RatioTable(F(1), e, rows, ()).lct == F(1, 3)
        assert RatioTable(F(1), Ratio("E", F(3), F(0), F(1)), rows[1:], ()).lct is None
        # -1 + 5l rises through 0 at 1/5: a zero with b > 0 is compared with those with b < 0
        rising = ("v", "S", Ratio("v:S", F(-1), F(5), F(1)))
        assert RatioTable(F(1), e, (*rows, rising), ()).lct == F(1, 5)

    def test_lines_are_each_ratio_over_s_on_the_least_common_denominator(self):
        # the lines are built from integer ratios; the reference divides each ratio's Fractions by s
        for spec in CASES.values():
            table = spec.ratio_table
            lower = (table.e, *(ratio for _, _, ratio in table.rows))
            for lines, ratios in ((table.lower, lower), (table.upper, (table.e, *table.curves))):
                want = {r.label: (r.a / r.s, r.b / r.s) for r in ratios}
                assert fraction_lines(lines) == want, spec.id
                assert lines.den == math.lcm(*[x.denominator for line in want.values() for x in line]), spec.id


class TestPlaneCurveBounds:
    def test_line_in_reduced_curve(self):
        s, a = s_curve_on_plane(1, F(1, 2), 1, 1)
        assert a / s == F(3, 5)

    def test_double_line_in_quartic(self):
        s, a = s_curve_on_plane(4, F(1, 4), 1, 2)
        assert a / s == F(3, 4)

    def test_unit_normalization(self):
        for d in (1, 2, 3, 4):
            s, a = s_curve_on_plane(d, F(0), 1, 0)
            assert (s, a) == (1, 1)

    @pytest.mark.parametrize("args, message", [
        ((4, 1, 1, 2), r"^lambda 1 outside \[0, 3/4\)$"),  # returned (S, A) = (-1/3, -1)
        ((4, -1, 1, 2), r"^lambda -1 outside \[0, 3/4\)$"),
        ((0, F(1, 4), 1, 2), r"^curve degree d = 0 must be >= 1$"),
        ((4, F(1, 4), 1, -1), r"^multiplicity l = -1 must be >= 0$"),
    ], ids=["past-3/d", "negative-lambda", "degree-0", "negative-l"])
    def test_out_of_domain_is_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            s_curve_on_plane(*args)

    @pytest.mark.parametrize("d, lam, l", [
        (4, "1/2", 10**9),  # returned (1/3, -499999999)
        (4, F(1, 4), F(4) + F(1, 10**12)),  # l*lambda = 1 + 1/(4*10^12)
        (1, F(1, 2), 3),
        (2, F(2, 3) + F(1, 10**30), F(3, 2)),  # l*lambda just past 1, with a large denominator
    ], ids=["huge-l", "just-past-1/l", "line", "large-denominator"])
    def test_past_its_lct_is_refused_on_integers(self, d, lam, l):
        with pytest.raises(ValueError, match=r"past the log canonical threshold"):
            s_curve_on_plane(d, lam, 1, l)

    def test_at_its_lct_the_log_discrepancy_is_0(self):
        for d, lam, l in ((4, F(1, 4), 4), (2, F(2, 3), F(3, 2)), (4, F(1, 2), 2), (1, F(1), 1)):
            s, a = s_curve_on_plane(d, lam, 1, l)
            assert a == 0 and s == F(3 - d * F(lam), 3), (d, lam, l)

    def test_every_entry_with_a_multiple_line_has_lct_1_over_l(self):
        # so the cli's line clause, read at a reported lambda (at most the lct), is never refused
        bounds = [(spec, cb.l) for spec in CASES.values() for cb in spec.extra_upper_bounds if cb.e == 1 and cb.l >= 2]
        assert len(bounds) == 17
        for spec, l in bounds:
            assert spec.ratio_table.lct == 1 / l, spec.id
            for row in spec.rows:
                s, a = s_curve_on_plane(row.d, spec.ratio_table.lct, 1, l)
                assert a == 0 and s > 0, (spec.id, row.d)

    @pytest.mark.parametrize("e", [1.0, True], ids=["float", "bool"])
    def test_a_curve_degree_e_not_an_int_is_refused(self, e):
        # e = True returned (1/3, 1/2); e = 1.0 died inside Fraction
        with pytest.raises(TypeError, match=f"^curve degree e {e} is not an int$"):
            s_curve_on_plane(4, "1/2", e, 1)

    def test_a_curve_degree_e_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^curve degree must be >= 1$"):
            s_curve_on_plane(4, "1/2", 0, 1)


@pytest.mark.parametrize("call", [
    lambda: delta_point("A2", 4.0, "1/2"),  # reported delta = 1.2
    lambda: s_divisor("A2", 4.0, "1/2"),  # returned 1.666...
    lambda: delta_closed_form("A2", 4.0),  # died inside Fraction
    lambda: s_curve_on_plane(4.0, F(1, 4), 1, 2),
    lambda: CASES["A2"].row(4.0),
], ids=["delta_point", "s_divisor", "delta_closed_form", "s_curve_on_plane", "row"])
def test_a_float_degree_is_refused_as_a_float_lambda_is(call):
    with pytest.raises(TypeError, match=r"^degree 4\.0 is not an int$"):
        call()


def test_a_bool_degree_is_refused():
    # bool is an int to Python: this reported a DeltaReport with d = True and delta = 3/5
    with pytest.raises(TypeError, match=r"^degree True is not an int$"):
        delta_point("line_component_smooth_point", True, "1/2")


def _same_as_fraction_oracle(case, d, lam):
    """delta_point equals oracles.fraction_delta_point, field by field, or raises an exception of the
    same type with the same message; case is a catalog id or a CaseSpec."""
    try:
        want = fraction_delta_point(case, d, lam)
    except Exception as exc:
        with pytest.raises(Exception, match=f"^{re.escape(str(exc))}$") as got:
            delta_point(case, d, lam)
        assert got.type is type(exc), (case, d, lam)
    else:
        assert delta_point(case, d, lam) == want, (case, d, lam)


class TestIntegerEvaluation:
    """delta_point on integer lines against its Fraction-arithmetic oracle, on all 54 rows."""

    def test_at_zero_the_interval_ends_and_the_lct(self):
        for case_id, d in ROWS:
            for lam in sorted(_ends(case_id, d)):  # with lct + 1/97, refused past the lct or at 3/d
                _same_as_fraction_oracle(case_id, d, lam)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_at_drawn_lambda(self, data):
        for case_id, d in ROWS:
            lam = data.draw(st.fractions(min_value=0, max_value=F(3, d), max_denominator=500), label=f"{case_id}/d={d}")
            _same_as_fraction_oracle(case_id, d, lam)

    def test_at_a_negative_lambda(self):
        for case_id, d in ROWS:
            for lam in (F(-1, 97), -1):
                _same_as_fraction_oracle(case_id, d, lam)

    def test_lambda_as_an_int_and_as_a_string(self):
        for case_id, d in ROWS:
            row, lct = CASES[case_id].row(d), CASES[case_id].ratio_table.lct
            for lam in (0, 1, "0", "1/2", str(row.lo), str(row.hi), *(() if lct is None else (str(lct),))):
                _same_as_fraction_oracle(case_id, d, lam)

    def test_a_spec_whose_tau_does_not_match(self):
        for case_id, d in ROWS:
            spec = CASES[case_id]
            faulty = dataclasses.replace(spec, tau_factor=spec.tau_factor + F(1, 3))
            for lam in sorted(_ends(case_id, d)) + [F(-1, 5)]:
                _same_as_fraction_oracle(faulty, d, lam)


class TestDeltaPoint:
    def test_cusp_full_report(self):
        rep = delta_point("A2", 4, F(1, 2))
        assert rep.exact and rep.upper_bound == F(6, 5)
        assert rep.minimizers == ("E",)
        ratios = {r.label: r.ratio for r in rep.rows}
        assert ratios == {"P1": 3, "P2": 3, "Q": F(9, 2), "generic": 9}

    def test_rhamphoid_lower_regime(self):
        rep = delta_point("A4", 4, F(1, 4))
        assert not rep.exact
        assert rep.lower_bound == F(3, 4)
        assert rep.minimizers == ("P12",)

    def test_lambda_zero_normalization(self):
        for spec in CASES.values():
            for row in spec.rows:
                if row.lo == 0:
                    rep = delta_point(spec.id, row.d, F(0))
                    assert rep.exact and rep.upper_bound == 1, (spec.id, row.d)

    def test_sandwich_and_expected(self):
        for spec in CASES.values():
            for row in spec.rows:
                stated = row.stated_form
                for lam in interior_samples(row.lo, row.hi, 10):
                    rep = delta_point(spec.id, row.d, lam)
                    assert rep.lower_bound <= rep.upper_bound
                    assert rep.exact and rep.lower_bound == stated(lam), (spec.id, row.d, lam)

    def test_minimizer_stability(self):
        for spec in CASES.values():
            for row in spec.rows:
                for lam in interior_samples(row.lo, row.hi, 4):
                    rep = delta_point(spec.id, row.d, lam)
                    assert set(rep.minimizers) == set(spec.minimizers), (spec.id, row.d, lam)

    def test_positivity_inside_validity(self):
        for spec in CASES.values():
            for row in spec.rows:
                for lam in interior_samples(row.lo, row.hi, 3):
                    rep = delta_point(spec.id, row.d, lam)
                    assert rep.a_e > 0 and rep.s_e > 0

    def test_upper_bound_below_lower_bound_is_an_internal_error(self):
        # a tenfold line in C: its bound (1 - 10*lambda)/(t/3) falls below every lower ratio
        spec = dataclasses.replace(CASES["A2"], extra_upper_bounds=(CurveBound(1, F(10)),))
        with pytest.raises(AssertionError, match=r"^A2: lower bound 6/5 exceeds upper bound -12$"):
            delta_point(spec, 4, F(1, 2))

    def test_variant_reporting(self):
        rep = delta_point("A3", 4, F(1, 2))
        variants = {r.variant for r in rep.rows}
        assert variants == {"tangent_not_component", "tangent_component"}
        assert any(r.label == "QL" for r in rep.rows)

    @settings(max_examples=80, deadline=None)
    @given(case_id=st.sampled_from(sorted(CASES)), data=st.data())
    def test_sandwich_property(self, case_id, data):
        spec = CASES[case_id]
        row = data.draw(st.sampled_from(spec.rows))
        lam = data.draw(st.fractions(min_value=row.lo, max_value=row.hi, max_denominator=64))
        assume(row.lo < lam < row.hi)
        rep = delta_point(case_id, row.d, lam)
        assert rep.lower_bound <= rep.upper_bound
        assert rep.exact and rep.lower_bound == row.stated_form(lam)


class TestClosedForms:
    def test_cusp_quartic(self):
        assert delta_closed_form("A2", 4) == LinearFractional(15, -18, 15, -20)

    def test_triple_point_cubic(self):
        assert delta_closed_form("D4", 3) == LinearFractional(2, -3, 2, -2)

    def test_a7_derived(self):
        # freeze the evaluations first, then demand the derived form reproduces them
        spec = CASES["A7"]
        row = spec.row(4)
        samples = [(lam, delta_point("A7", 4, lam).upper_bound) for lam in interior_samples(row.lo, row.hi, 7)]
        rf = delta_closed_form("A7", 4)
        for lam, val in samples:
            assert rf(lam) == val
        assert rf == LinearFractional(15, -24, 12, -16)

    def test_every_case_matches_stated_form(self):
        for spec in CASES.values():
            for row in spec.rows:
                assert delta_closed_form(spec.id, row.d) == row.stated_form, (spec.id, row.d)

    def test_derived_equals_fit_through_samples(self):
        # reference: the (2,2) rational function through delta at 7 interior samples
        for case_id, d in ROWS:
            row = CASES[case_id].row(d)
            samples = [(lam, delta_point(case_id, d, lam).upper_bound) for lam in interior_samples(row.lo, row.hi, 7)]
            fit = fit_rational_function(samples, 2, 2)
            assert delta_closed_form(case_id, d) == LinearFractional.from_coeffs(fit.num.coeffs, fit.den.coeffs), (case_id, d)

    @pytest.mark.parametrize("case_id", ["A4", "A5", "A6", "A7"])
    def test_widened_to_lower_regime_not_exact(self, case_id):
        # below lower_regime_hi only the lower bound 3/(2t) is certified: on [0, lo] the
        # lower ratios change line, and on [0, lower_regime_hi] one lower line lies below the upper one
        spec = CASES[case_id]
        for widen in ({"lo": F(0)}, {"lo": F(0), "hi": spec.lower_regime_hi}):
            rows = tuple(dataclasses.replace(row, **widen) for row in spec.rows)
            widened = dataclasses.replace(spec, rows=rows)
            for row in rows:
                with pytest.raises(NotExactOnInterval):
                    delta_closed_form(widened, row.d)


class TestUnitDecompositionMemo:
    """The t = 1 decomposition, decomposed once per model and scaled by t, is exact."""

    @settings(max_examples=120, deadline=None)
    @given(
        row_lam=st.sampled_from(ROWS).flatmap(
            lambda row: st.tuples(
                st.just(row),
                st.fractions(min_value=0, max_value=F(3, row[1]), max_denominator=97).filter(lambda x: x * row[1] < 3),
            )
        )
    )
    @_with_end_examples
    def test_scaled_equals_fresh_decomposition(self, row_lam):
        (case_id, d), lam = row_lam
        s_e, s_points = _fresh_s_invariants(CASES[case_id], d, lam)
        assert s_divisor(case_id, d, lam) == s_e, (case_id, d, lam)
        assert _engine_s_points(CASES[case_id], 3 - d * lam) == s_points, (case_id, d, lam)

    @settings(max_examples=120, deadline=None)
    @given(
        row_lam=st.sampled_from(ROWS).flatmap(
            lambda row: st.tuples(
                st.just(row),
                st.fractions(min_value=0, max_value=F(3, row[1]), max_denominator=97).filter(lambda x: x * row[1] < 3),
            )
        )
    )
    @_with_end_examples
    def test_report_equals_fresh_reference(self, row_lam):
        # every lambda in [0, 3/d) is refused, exactly where a fresh decomposition gives a
        # negative lower bound (past the lct), or certified: 0 <= lower <= upper, lower = 0
        # only at the lct, exact iff the two are equal, and the report is the fresh one
        (case_id, d), lam = row_lam
        want = _reference_report(CASES[case_id], d, lam)
        if want[1] < 0:
            with pytest.raises(ValueError, match=f"^lambda {lam} past the log canonical threshold "):
                delta_point(case_id, d, lam)
            return
        rep = delta_point(case_id, d, lam)
        assert 0 <= rep.lower_bound <= rep.upper_bound and rep.exact == (rep.lower_bound == rep.upper_bound)
        assert (rep.lower_bound == 0) == (lam == CASES[case_id].ratio_table.lct), (case_id, d, lam)
        got = (rep.rows, rep.lower_bound, rep.upper_bound, rep.exact, rep.minimizers)
        assert got == want, (case_id, d, lam)

    def test_ratio_table_built_once_per_instance(self):
        spec = CASES["A2"]
        assert spec.ratio_table is spec.ratio_table
        replaced = dataclasses.replace(spec, k_E=spec.k_E + 1)
        assert replaced.ratio_table is not spec.ratio_table
        assert replaced.ratio_table.e.a == spec.ratio_table.e.a + 1
        assert delta_point(replaced, 4, F(1, 2)).a_e == delta_point(spec, 4, F(1, 2)).a_e + 1

    def test_perturbed_model_misses_memo(self):
        spec = CASES["A2"]
        lam = F(1, 2)
        report = delta_point("A2", 4, lam)
        gram = [list(r) for r in spec.model.gram]
        gram[0][0] -= F(1, 12)
        model = dataclasses.replace(spec.model, gram=tuple(tuple(r) for r in gram))
        # E.E = -1/4 moves the pseudo-effective threshold of t*H - v*E from 3t to 2t
        faulty = dataclasses.replace(spec, model=model, tau_factor=F(2))

        info = _unit_constants.cache_info()
        assert info.maxsize is not None
        s_faulty = s_divisor(faulty, 4, lam)
        assert _unit_constants.cache_info().misses == info.misses + 1
        assert s_faulty != report.s_e
        assert s_faulty == _fresh_s_invariants(faulty, 4, lam)[0]

        assert delta_point("A2", 4, lam) == report
        assert _unit_constants.cache_info().misses == info.misses + 1

    def test_a_model_hashes_once_by_value(self):
        m = CASES["A2"].model  # the same values again, as strings: coerced before they are hashed
        apart = SurfaceModel(m.curves, tuple(tuple(map(str, r)) for r in m.gram), str(m.ambient_self),
                             tuple(map(str, m.ambient_pairings)))
        assert apart == m and apart is not m
        assert hash(apart) == hash(m) == hash((m.curves, m.gram, m.ambient_self, m.ambient_pairings))
        with mock.patch.object(F, "__hash__", side_effect=AssertionError("a Fraction was hashed")):
            assert hash(apart) == hash(m)  # stored when built, not recomputed from its Fractions
        assert _unit_constants(apart) is _unit_constants(m)  # one cache entry for both
        gram = [list(r) for r in m.gram]
        gram[0][0] -= F(1, 12)  # E.E = -1/4: pseudo-effective threshold 2, not 3
        faulted = dataclasses.replace(m, gram=tuple(map(tuple, gram)))
        assert faulted != m
        assert _unit_constants(faulted) is not _unit_constants(m)
        assert _unit_constants(faulted) is _unit_constants(dataclasses.replace(faulted))

    def test_degree_checked_before_lambda(self):
        for call in (
            lambda: s_divisor("A2", 1, F(4)),
            lambda: delta_point("A2", 1, F(4)),
        ):
            with pytest.raises(DegreeNotAdmissible):
                call()

    def test_refused_past_the_lct_and_certified_at_it(self):
        # A4 (lct 7/10) at 18/25 reported delta = -10/13; the quadruple line (lct 1/4) at 1/2 reported -3
        for case_id, lct, past in (("A4", F(7, 10), F(18, 25)), ("quadruple_line", F(1, 4), F(1, 2))):
            assert CASES[case_id].ratio_table.lct == lct
            rep = delta_point(case_id, 4, lct)
            assert rep.exact and rep.value == 0, case_id
            with pytest.raises(ValueError, match=f"^lambda {past} past the log canonical threshold {lct} of case {case_id}$"):
                delta_point(case_id, 4, past)

    def test_a6_exact_beyond_its_stated_interval_up_to_the_lct(self):
        # A6 (d = 4) is stated on [3/8, 1/2]; its delta is the stated form up to lct(A6) = 9/14
        spec = CASES["A6"]
        row = spec.row(4)
        assert (row.lo, row.hi) == (F(3, 8), F(1, 2)) and spec.ratio_table.lct == F(9, 14)
        for lam in [*interior_samples(row.hi, F(9, 14), 5), F(9, 14)]:
            rep = delta_point("A6", 4, lam)
            assert rep.exact and rep.value == row.stated_form(lam) and not rep.validity_ok, lam
        assert delta_point("A6", 4, F(9, 14)).value == 0
        with pytest.raises(ValueError, match="past the log canonical threshold 9/14"):
            delta_point("A6", 4, F(9, 14) + F(1, 97))

    def test_lambda_domain_still_checked(self):
        for lam in (F(-1, 5), F(3, 4), F(1)):
            with pytest.raises(ValueError, match=r"outside \[0, 3/4\)"):
                delta_point("A2", 4, lam)

    def test_corrupted_tau_factor_still_raises(self):
        faulty = dataclasses.replace(CASES["A2"], tau_factor=F(5, 2))
        assert s_divisor("A2", 4, F(1, 2)) == F(5, 3)  # the model is now memoised: the check runs on a hit
        with pytest.raises(ValueError, match="pseudo-effective threshold"):
            delta_point(faulty, 4, F(1, 2))
        with pytest.raises(ValueError, match="pseudo-effective threshold"):
            delta_closed_form(faulty, 4)


@pytest.mark.slow
class TestNumericOracle:
    def test_s_invariants_against_quadrature(self):
        for spec in sorted(CASES.values(), key=lambda s: s.order):
            for row in spec.rows:
                model, factory, _ = build_case(spec.id, row.d)
                for lam in interior_samples(row.lo, row.hi, 3):
                    t = 3 - row.d * lam
                    pieces = zariski_decompose(model, factory(lam))
                    assert pieces.tau == t * spec.tau_factor, (spec.id, row.d, lam)
                    vol = volume_function(pieces)
                    s_exact = s_divisor(spec.id, row.d, lam)
                    s_quad = gauss_piecewise(vol) / float(t) ** 2
                    assert rel_err(s_exact, s_quad) < 1e-6, (spec.id, row.d, lam, "S(E)")
                    s_points = _engine_s_points(spec, t)
                    for point in ("generic", "EL"):
                        if point == "EL" and "L" not in model.curves:
                            continue
                        h = flag_integrand(spec, row.d, lam, point)
                        f_exact = s_points[point]
                        f_quad = 2 * gauss_piecewise(h) / float(t) ** 2
                        assert rel_err(f_exact, f_quad) < 1e-6, (spec.id, row.d, lam, point)
