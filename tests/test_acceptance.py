"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Everything here is exact equality except the float quadrature
oracle, whose tolerance is 1e-6 relative error.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction as F

import pytest

from logfano.catalog import CASES, build_case
from logfano.delta import (
    _unit_constants,
    delta_closed_form,
    delta_point,
    interior_samples,
    s_divisor,
)
from logfano.exact import LinearFractional
from logfano.surface import invariant_violations, volume_function, zariski_decompose
from logfano.threefold import corollary_suite
from logfano.verify import verify_all, verify_threefold_section

from conftest import gauss_piecewise, rel_err
from oracles import flag_integrand


def _all_rows():
    for spec in sorted(CASES.values(), key=lambda s: s.order):
        for row in spec.rows:
            yield spec, row


def test_criterion_1_main_table_reproduction():
    assert len(CASES) >= 30
    start = time.perf_counter()
    checked = 0
    for spec, row in _all_rows():
        stated = row.stated_form
        for lam in interior_samples(row.lo, row.hi, 6):
            rep = delta_point(spec.id, row.d, lam)
            assert rep.exact, (spec.id, row.d, lam)
            assert rep.upper_bound == stated(lam), (spec.id, row.d, lam)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"reproduction took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: {checked} exact evaluations across {len(CASES)} cases in {elapsed:.2f}s")


def test_criterion_2_closed_form_reconstruction():
    for spec, row in _all_rows():
        assert delta_closed_form(spec.id, row.d) == row.stated_form, (spec.id, row.d)
    # spot values in the stated normal forms
    assert delta_closed_form("A2", 4) == LinearFractional(15, -18, 15, -20)
    assert delta_closed_form("E6", 4) == LinearFractional(21, -36, 21, -28)
    assert delta_closed_form("quadruple_line", 4) == LinearFractional(3, -12, 3, -4)
    print("\nACCEPTANCE 2 PASS: derived closed forms identical for all case/degree rows")


def test_criterion_3_lower_bound_regimes():
    for case_id in ("A4", "A5", "A6", "A7"):
        for lam in interior_samples(F(0), F(3, 8), 3):
            rep = delta_point(case_id, 4, lam)
            assert not rep.exact, (case_id, lam)
            assert rep.lower_bound == F(3, 2) / (3 - 4 * lam), (case_id, lam)
    print("\nACCEPTANCE 3 PASS: A4/A5/A6/A7 report the 3/(2(3-4λ)) lower bound below 3/8")


def test_criterion_4_s_invariant_spot_table():
    table = {"A1": F(2, 3), "A2": F(5, 3), "A4": F(13, 6), "A6": F(5, 2), "E6": F(7, 3)}
    for case_id, factor in table.items():
        row = CASES[case_id].row(4)
        for lam in interior_samples(row.lo, row.hi, 3):
            assert s_divisor(case_id, 4, lam) == factor * (3 - 4 * lam), (case_id, lam)
    print("\nACCEPTANCE 4 PASS: S(E) spot table exact at 3 samples per case")


def test_criterion_5_lambda_zero_normalization():
    count = 0
    for spec, row in _all_rows():
        if row.lo == 0:
            rep = delta_point(spec.id, row.d, F(0))
            assert rep.exact and rep.upper_bound == 1, (spec.id, row.d)
            count += 1
    assert count > 0
    print(f"\nACCEPTANCE 5 PASS: delta = 1 at λ = 0 for all {count} rows whose validity contains 0")


def test_criterion_6_zariski_property_suite():
    for spec, row in _all_rows():
        model, factory, _ = build_case(spec.id, row.d)
        for lam in interior_samples(row.lo, row.hi, 5):
            t = 3 - row.d * lam
            pieces = zariski_decompose(model, factory(lam))
            assert pieces.tau == t * spec.tau_factor, (spec.id, row.d, lam)
            declared = (F(0),) + tuple(b * t for b in spec.break_factors) + (pieces.tau,)
            assert pieces.breakpoints == declared, (spec.id, row.d, lam)
            assert invariant_violations(pieces) == [], (spec.id, row.d, lam)
    print("\nACCEPTANCE 6 PASS: decomposition invariants and declared thresholds hold everywhere")


@pytest.mark.slow
def test_criterion_7_numeric_quadrature_oracle():
    worst = 0.0
    for spec, row in _all_rows():
        model, factory, _ = build_case(spec.id, row.d)
        lam = row.lo + (row.hi - row.lo) * F(1, 2)
        t = 3 - row.d * lam
        pieces = zariski_decompose(model, factory(lam))
        assert pieces.tau == t * spec.tau_factor, (spec.id, row.d)
        err = rel_err(s_divisor(spec.id, row.d, lam), gauss_piecewise(volume_function(pieces)) / float(t) ** 2)
        worst = max(worst, err)
        assert err < 1e-6, (spec.id, row.d, "S(E)")
        s_points = {"generic": next(r.s_value for r in delta_point(spec.id, row.d, lam).rows if r.label == "generic")}
        if "L" in model.curves:  # S(W;O) at E.L, read from the model's t = 1 constant
            s_points["EL"] = _unit_constants(model).s_on_l * t
        for point, s in s_points.items():
            h = flag_integrand(spec, row.d, lam, point)
            err = rel_err(s, 2 * gauss_piecewise(h) / float(t) ** 2)
            worst = max(worst, err)
            assert err < 1e-6, (spec.id, row.d, point)
    print(f"\nACCEPTANCE 7 PASS: Gauss-Legendre quadrature agrees with exact S values (worst rel err {worst:.2e})")


def test_criterion_8_threefold_suite():
    volumes = verify_threefold_section()
    assert len(volumes) == 15 and all(c.ok for c in volumes)
    results = {r.config.name: r for r in corollary_suite()}
    assert results["quartic double solid, node"].bound == F(4, 3)
    assert results["quadric threefold section, node"].bound == F(20, 19)
    for r in results.values():
        assert r.bound >= 1, r.config.name
    triple = results["quartic double solid, ordinary triple point"]
    assert triple.bound == 1 and not triple.strict
    print("\nACCEPTANCE 8 PASS: threefold volumes exact; corollary bounds certify (4/3, 20/19, all >= 1)")


def fault_checks(faulty):
    """verify_all on one faulty entry inside the full catalog, so that an alias entry finds
    its target and fails verification only through its fault."""
    return verify_all(catalog={**CASES, faulty.id: faulty}, case_ids=[faulty.id])


def criterion_9_faults(spec):
    """(fault, changes) for each single-number fault of one catalog entry: the E.E and E.L
    intersection entries, m_C, k_E, m_L, both parts of each different coefficient of the first
    variant, and the constant terms of each row's stated closed form."""
    # intersection entry: bend the self-intersection of E (stays symmetric)
    gram = [list(r) for r in spec.model.gram]
    gram[0][0] += F(1, 7)
    yield "E.E", {"model": dataclasses.replace(spec.model, gram=tuple(tuple(r) for r in gram))}
    if "L" in spec.model.curves:
        gram = [list(r) for r in spec.model.gram]
        gram[0][1] += F(1, 9)
        gram[1][0] += F(1, 9)
        yield "E.L", {"model": dataclasses.replace(spec.model, gram=tuple(tuple(r) for r in gram))}
    # multiplicities
    yield "m_C", {"m_C": spec.m_C + 1}
    yield "k_E", {"k_E": spec.k_E + 1}
    if spec.m_L is not None:
        yield "m_L", {"m_L": spec.m_L + 1}
    # different coefficients: both the constant and the lambda part
    var = spec.variants[0]
    for idx, pt in enumerate(var.points):
        for part in (0, 1):
            coeff = list(pt.coeff)
            coeff[part] += F(1, 8)
            pts = list(var.points)
            pts[idx] = dataclasses.replace(pt, coeff=tuple(coeff))
            yield f"different at {pt.label}[{part}]", {"variants": (dataclasses.replace(var, points=tuple(pts)),) + spec.variants[1:]}
    # stated closed form: the constant term of the numerator, then of the denominator
    for k, row in enumerate(spec.rows):
        for field in ("delta_num", "delta_den"):
            coeffs = list(getattr(row, field))
            coeffs[0] += F(1, 11)
            rows = spec.rows[:k] + (dataclasses.replace(row, **{field: tuple(coeffs)}),) + spec.rows[k + 1 :]
            yield f"{field}[0] at d={row.d}", {"rows": rows}


def test_criterion_9_fault_injection():
    injected = 0
    for spec in CASES.values():
        for fault, changes in criterion_9_faults(spec):
            _, ok = fault_checks(dataclasses.replace(spec, **changes))
            assert not ok, f"{spec.id}: {fault} fault survived"
            injected += 1
        # a faulty entry and its rows are new objects with their own cached data: the genuine ones still match
        for row in spec.rows:
            mid = (row.lo + row.hi) / 2
            assert delta_point(spec, row.d, mid).matches_expected is True, (spec.id, row.d)
    assert injected == 494
    print(f"\nACCEPTANCE 9 PASS: all {injected} single-number catalog faults detected")
