"""Catalog integrity: transcription invariants and fault detection."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfano.catalog import (
    CASES,
    DegreeNotAdmissible,
    UnknownCase,
    build_case,
    list_cases,
    validate_case,
    validate_catalog,
)
from oracles import point_problems


class TestShippedCatalog:
    def test_clean(self):
        assert validate_catalog() == []

    def test_size_and_coverage(self):
        assert len(CASES) >= 30
        ids = set(CASES)
        for required in [
            "line_component_smooth_point", "smooth_conic", "smooth_cubic_tangent2",
            "smooth_cubic_flex", "smooth_quartic_flex", "smooth_quartic_hyperflex",
            "A1", "A2", "A3", "A4", "A5", "A5_line_in_C", "A6", "A7",
            "D4", "D5", "D6", "E6", "E7", "four_concurrent_lines",
            "double_line", "triple_line", "quadruple_line", "double_conic",
        ]:
            assert required in ids

    def test_listing(self):
        listing = {cid: (label, degrees, validity) for cid, label, degrees, validity in list_cases()}
        assert listing["A7"][2] == ((4, F(3, 8), F(5, 8)),)
        assert listing["quadruple_line"][2] == ((4, F(0), F(1, 4)),)
        assert listing["line_component_smooth_point"][1] == (1, 2, 3, 4)

    def test_stable_order(self):
        assert [cid for cid, *_ in list_cases()] == sorted(CASES, key=lambda cid: CASES[cid].order)

    def test_pullback_identities_all_cases(self):
        for spec in CASES.values():
            if "L" not in spec.model.curves:
                continue
            e2 = spec.model.pairing("E", "E")
            el = spec.model.pairing("E", "L")
            l2 = spec.model.pairing("L", "L")
            assert el + spec.m_L * e2 == 0, spec.id
            assert l2 + spec.m_L * el == 1, spec.id

    def test_log_discrepancy_identity_all_cases(self):
        for spec in CASES.values():
            assert (1 + spec.k_E, -spec.m_C) == spec.printed_A, spec.id

    def test_validity_inside_log_fano_range(self):
        for spec in CASES.values():
            for row in spec.rows:
                assert 0 <= row.lo < row.hi
                assert row.hi * row.d <= 3

    def test_aliases_resolve(self):
        for spec in CASES.values():
            if spec.alias_of is not None:
                assert spec.alias_of in CASES


# Classical log canonical thresholds of the ADE curve singularities (Kollar,
# "Singularities of pairs", 1997, section 8), from their closed formulas alone.
_ADE_LCT = {f"A{n}": min(F(1), F(1, 2) + F(1, n + 1)) for n in range(1, 8)}
_ADE_LCT.update({f"D{n}": F(n, 2 * n - 2) for n in (4, 5, 6)}, E6=F(7, 12), E7=F(5, 9), A5_line_in_C=_ADE_LCT["A5"])


def _least_log_discrepancy_zero(spec, d):
    """The case's lct, the least positive zero of its ratio table's A-lines, when it is below 3/d; else None."""
    lct = spec.ratio_table.lct
    return lct if lct is not None and lct < F(3, d) else None


class TestLogCanonicalThresholds:
    def test_ade_rows_vanish_at_the_classical_threshold(self):
        rows = [(spec, row.d) for spec in CASES.values() if spec.id in _ADE_LCT for row in spec.rows]
        assert len(rows) == 18
        for spec, d in rows:
            lct = _ADE_LCT[spec.id]
            zero = _least_log_discrepancy_zero(spec, d)
            if zero is None:
                assert lct >= F(3, d), (spec.id, d)
            else:
                assert zero == lct, (spec.id, d, zero)

    def test_every_row_ends_at_or_below_its_threshold(self):
        for spec in CASES.values():
            for row in spec.rows:
                zero = _least_log_discrepancy_zero(spec, row.d)
                assert row.hi <= (F(3, row.d) if zero is None else zero), (spec.id, row.d)


class TestBuildCase:
    def test_cusp_data(self):
        model, factory, spec = build_case("A2", 4)
        assert model.gram == ((F(-1, 6), F(1, 2)), (F(1, 2), F(-1, 2)))
        assert spec.k_E == 4 and spec.m_C == 6 and spec.m_L == 3
        assert spec.printed_A == (5, -6)

    def test_e6_data(self):
        model, factory, spec = build_case("E6", 4)
        assert model.gram == ((F(-1, 12), F(1, 3)), (F(1, 3), F(-1, 3)))
        assert spec.k_E == 6 and spec.m_C == 12
        assert spec.printed_A == (7, -12)

    def test_node_data(self):
        model, factory, spec = build_case("A1", 4)
        assert model.curves == ("E",)
        assert model.gram == ((F(-1),),)
        assert spec.k_E == 1 and spec.m_C == 2
        assert spec.printed_A == (2, -2)

    def test_factory_range(self):
        _, factory, _ = build_case("A2", 4)
        with pytest.raises(ValueError):
            factory(F(3, 4))
        with pytest.raises(ValueError):
            factory(F(-1, 8))

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            build_case("A99", 4)

    def test_degree_not_admissible(self):
        with pytest.raises(DegreeNotAdmissible):
            build_case("A2", 2)


def _mutated(spec, **changes):
    return {spec.id: dataclasses.replace(spec, **changes)}


class TestFaultDetection:
    def test_wrong_curve_multiplicity(self):
        spec = CASES["A2"]
        bad = _mutated(spec, m_C=F(5))
        msgs = validate_catalog(bad)
        assert any("A(l) mismatch" in m and "5-5l" in m and "5-6l" in m for m in msgs)

    def test_different_out_of_range(self):
        spec = CASES["A2"]
        var = spec.variants[0]
        pts = tuple(
            dataclasses.replace(pt, coeff=(F(3, 2), F(0)), orbifold_order=None) if pt.label == "P1" else pt
            for pt in var.points
        )
        bad = _mutated(spec, variants=(dataclasses.replace(var, points=pts),))
        msgs = validate_catalog(bad)
        assert any("out of [0,1)" in m for m in msgs)

    def test_asymmetric_gram_rejected_by_model(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                CASES["A2"].model,
                gram=((F(-1, 6), F(1, 2)), (F(1, 3), F(-1, 2))),
            )

    def test_broken_pullback_identity(self):
        spec = CASES["A2"]
        model = dataclasses.replace(spec.model, gram=((F(-1, 5), F(1, 2)), (F(1, 2), F(-1, 2))))
        msgs = validate_catalog(_mutated(spec, model=model))
        assert any("pullback identity" in m for m in msgs)

    def test_orbifold_coefficient_mismatch(self):
        spec = CASES["E6"]
        var = spec.variants[0]
        pts = tuple(
            dataclasses.replace(pt, coeff=(F(3, 5), F(0))) if pt.label == "P1" else pt
            for pt in var.points
        )
        msgs = validate_catalog(_mutated(spec, variants=(dataclasses.replace(var, points=pts),)))
        assert any("1 - 1/4" in m for m in msgs)


def _first_point(spec, label, **changes):
    var = spec.variants[0]
    points = tuple(dataclasses.replace(pt, **changes) if pt.label == label else pt for pt in var.points)
    return {"variants": (dataclasses.replace(var, points=points), *spec.variants[1:])}


def _row(spec, d, **changes):
    return {"rows": tuple(dataclasses.replace(row, **changes) if row.d == d else row for row in spec.rows)}


def _gram(spec, gram):
    return {"model": dataclasses.replace(spec.model, gram=gram)}


# one crafted entry per violation that the tests above do not produce; each yields that violation alone
CRAFTED_VIOLATIONS = [
    ("A2", lambda s: {"m_L": None}, "A2: companion curve present but m_L missing"),
    ("A2", lambda s: _gram(s, ((F(-1, 6), F(1, 2)), (F(1, 2), F(0)))),
     "A2: pullback identity (L.L) + m_L*(L.E) = 3/2 != 1"),
    ("A1", lambda s: _gram(s, ((F(-1, 2),),)), "A1: single-blowup model must have E.E = -1"),
    ("A1", lambda s: {"m_L": F(1)}, "A1: m_L given but model has no companion curve"),
    ("A2", lambda s: {"s_factor": F(0)}, "A2: S/tau factors must be positive"),
    ("A2", lambda s: {"break_factors": (F(3),)}, "A2: breakpoint factor 3 out of order"),
    ("A2", lambda s: {"break_factors": (F(0),)}, "A2: breakpoint factor 0 out of order"),  # not after 0
    ("A2", lambda s: _row(s, 3, lo=F(5, 6)), "A2: empty validity interval for d=3"),
    ("A2", lambda s: _row(s, 4, hi=F(1)), "A2: validity for d=4 exceeds 3/d"),
    ("A2", lambda s: _row(s, 3, delta_den=(F(0),)), "A2: zero denominator in closed form for d=3"),
    ("A2", lambda s: _row(s, 4, delta_num=(F(1), F(0), F(1))),
     "A2: closed form for d=4: degrees (2, 1) above 1: not a linear-fractional form"),
    ("A3", lambda s: _first_point(s, "P1", location="on_L"), "A3/tangent_not_component: more than one point at E.L"),
    ("A1", lambda s: _first_point(s, "Q1", location="on_L"), "A1/default: on_L point but no companion curve"),
    ("A2", lambda s: _first_point(s, "Q", location="elsewhere"), "A2/default: bad location 'elsewhere'"),
    ("A2", lambda s: _first_point(s, "P1", ratio_den=F(0)), "A2/default: nonpositive ratio denominator factor"),
    ("A2", lambda s: {"minimizers": ("E", "Z")}, "A2: minimizer 'Z' is not a declared point"),
    ("A4", lambda s: {"lower_regime_hi": F(1, 4)}, "A4: lower-bound regime must end where validity starts"),
]


@pytest.mark.parametrize("case_id, changes, message", CRAFTED_VIOLATIONS, ids=[m for _, _, m in CRAFTED_VIOLATIONS])
def test_each_violation_is_reported(case_id, changes, message):
    spec = CASES[case_id]
    assert validate_case(spec) == []
    assert validate_case(dataclasses.replace(spec, **changes(spec))) == [message]


def _point_messages(messages):
    return [m for m in messages if "different coefficient" in m or "!= 1 - 1/" in m]


small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=12)
orders = st.one_of(st.none(), st.integers(1, 6))


class TestIntegerPointTests:
    """validate_case tests each point's different coefficient on integer numerators; the Fraction
    tests of oracles.point_problems are the reference, on E6's three points (P1 of order 4) and
    one to three validity rows."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(small_rationals, small_rationals, orders), min_size=3, max_size=3),
           st.lists(st.tuples(small_rationals, small_rationals), min_size=1, max_size=3))
    @example([(F(0), F(1), None), (F(3, 4), F(0), 4), (F(1, 2), F(-1), 2)], [(F(0), F(1, 2))])  # 0 at lo, 0 at hi
    @example([(F(1), F(-1), None), (F(2, 3), F(0), 4), (F(1), F(0), None)], [(F(0), F(1, 2))])  # 1 at lo: out
    @example([(F(0), F(1), None), (F(1, 2), F(1), 2), (F(1, 4), F(1), None)], [(F(1, 4), F(1, 2)), (F(0), F(3, 4))])  # 1 at hi
    def test_point_messages_are_the_fraction_ones(self, points, intervals):
        spec = CASES["E6"]
        var = spec.variants[0]
        pts = tuple(dataclasses.replace(pt, coeff=(a, b), orbifold_order=n) for pt, (a, b, n) in zip(var.points, points))
        rows = tuple(dataclasses.replace(spec.rows[0], lo=lo, hi=hi) for lo, hi in intervals)
        faulty = dataclasses.replace(spec, variants=(dataclasses.replace(var, points=pts),), rows=rows)
        assert _point_messages(validate_case(faulty)) == point_problems(faulty)

    def test_shipped_points_pass_both(self):
        for spec in CASES.values():
            assert _point_messages(validate_case(spec)) == point_problems(spec) == []
