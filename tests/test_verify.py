"""verify: the per-model reference decomposition shared by the rows of one
run, the identity checks, scoped structural validation and closed-form
failures that leave the later checks running."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest

import logfano.verify as verify
from logfano.catalog import CASES, UnknownCase, _affine_str, validate_catalog
from logfano.delta import Ratio, RatioTable
from logfano.exact import Poly
from logfano.surface import SurfaceModel, flag_family
from logfano.verify import verify_all, verify_case
from oracles import exprs, fault_checks, least_lines, report_lines, rows

def _named(checks, name):
    return [c for c in checks if c.name == name]


def _failing(checks):
    return [c for c in checks if not c.ok]


def _counted_decompositions(monkeypatch):
    """The (model, family) of every zariski_decompose call verify makes from now on."""
    calls = []
    real = verify.zariski_decompose

    def counted(model, family, *args):
        calls.append((model, family))
        return real(model, family, *args)

    monkeypatch.setattr(verify, "zariski_decompose", counted)
    return calls


# reports off the ratio lines at lambda_1, each given the least common denominator den of the lower lines:
# a row's ratio times den is its line's value with den dropped
REPORT_FAULTS = {
    "upper-plus-1": lambda rep, den: dataclasses.replace(rep, upper_bound=rep.upper_bound + 1),
    "ratio-times-den": lambda rep, den: dataclasses.replace(
        rep, rows=(dataclasses.replace(rep.rows[0], ratio=rep.rows[0].ratio * den), *rep.rows[1:])),
    "lower-plus-1-over-den": lambda rep, den: dataclasses.replace(rep, lower_bound=rep.lower_bound + F(1, den)),
}


class TestReferenceDecomposition:
    def test_perturbed_decomposition_at_lambda_1_fails_homogeneity_only(self, monkeypatch):
        spec, d = CASES["A2"], 4
        real = verify.zariski_decompose
        calls = []

        def perturb_second(model, family):
            pieces = real(model, family)
            calls.append(pieces)
            if len(calls) != 2:
                return pieces
            pieces = exprs(pieces)
            i = next(k for k, support in enumerate(pieces.supports) if support)
            n = pieces.negatives[i]
            name = pieces.supports[i][0]
            coeffs = list(n.coeffs)
            coeffs[n.model.index(name)] = n.coeff(name) + Poly.const(F(1, 13))
            negatives = list(pieces.negatives)
            negatives[i] = dataclasses.replace(n, coeffs=tuple(coeffs))
            return rows(dataclasses.replace(pieces, negatives=tuple(negatives)))

        monkeypatch.setattr(verify, "zariski_decompose", perturb_second)
        checks = verify_case(spec, d)
        assert len(calls) == 2
        lam1 = verify._probe_lambda(spec.row(d))
        (bad,) = _failing(checks)
        assert bad.name == f"homogeneity at l={lam1}"
        assert bad.detail == f"not the t=1 decomposition scaled by {3 - d * lam1}"

    def test_invariants_and_integrals_run_once_per_row(self, monkeypatch):
        counts = {"invariants": 0, "integrals": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(verify, "invariant_violations", counted("invariants", verify.invariant_violations))
        monkeypatch.setattr(verify, "integrated_s_invariants", counted("integrals", verify.integrated_s_invariants))
        checks = verify_case(CASES["E6"], 4)
        assert all(c.ok for c in checks)
        assert counts == {"invariants": 1, "integrals": 1}

    def test_reference_defect_is_reported_once(self, monkeypatch):
        monkeypatch.setattr(verify, "invariant_violations", lambda z: [f"tau {z.tau}"])
        spec = CASES["D5"]
        (bad,) = _failing(verify_case(spec, 4))
        assert bad.name == "decomposition invariants at t=1" and bad.detail == f"tau {spec.tau_factor}"

    def test_stale_cached_constants_fail_s_scaling_only(self, monkeypatch):
        real = verify._unit_constants
        monkeypatch.setattr(verify, "_unit_constants",
                            lambda model: dataclasses.replace(real(model), s_generic=real(model).s_generic + 1))
        (bad,) = _failing(verify_case(CASES["A2"], 4))
        assert bad.name == "S scaling"

    @pytest.mark.parametrize("case_id", ["E6", "A4"])  # lower lines over 7, and over 26 with upper lines over 13
    @pytest.mark.parametrize("fault", list(REPORT_FAULTS))
    def test_report_off_its_lines_fails_the_report_check_only(self, monkeypatch, fault, case_id):
        spec = CASES[case_id]
        d, table = spec.rows[0].d, spec.ratio_table
        assert table.lower.den > 1
        real = verify.delta_point
        lam1 = verify._probe_lambda(spec.row(d))
        faulty = []

        def off(case, degree, lam):
            rep = real(case, degree, lam)
            if lam == lam1:
                rep = REPORT_FAULTS[fault](rep, table.lower.den)
                faulty.append(rep)
            return rep

        monkeypatch.setattr(verify, "delta_point", off)
        (bad,) = _failing(verify_case(spec, d))
        got, want = report_lines(faulty[0], table, lam1, d)
        assert got != want
        assert bad.name == f"report at l={lam1}"
        assert bad.detail == f"reported {list(map(str, got))}, lines {list(map(str, want))}"

    def test_one_reference_per_model_and_one_fresh_decomposition_per_row(self, monkeypatch):
        calls = _counted_decompositions(monkeypatch)
        checks, ok = verify_all()
        n_rows = sum(len(spec.rows) for spec in CASES.values())
        models = {spec.model for spec in CASES.values()}
        assert ok and n_rows == 54 and len(models) == 10
        at_1 = [model for model, family in calls if family == flag_family(model, 1)]
        assert len(calls) - len(at_1) == n_rows
        assert len(at_1) == len(set(at_1)) == len(models)

    def test_one_delta_point_per_row(self, monkeypatch):
        calls = []
        real = verify.delta_point

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "delta_point", counted)
        _, ok = verify_all()
        assert ok and len(calls) == 54
        assert sorted((spec.id, d) for spec, d, _ in calls) == sorted(
            (spec.id, row.d) for spec in CASES.values() for row in spec.rows)

    def test_t_1_is_not_one_on_any_row(self):
        rows = [(spec, row) for spec in CASES.values() for row in spec.rows]
        assert len(rows) == 54
        for spec, row in rows:
            lam1 = verify._probe_lambda(row)
            assert row.lo < lam1 < row.hi and 3 - row.d * lam1 != 1, (spec.id, row.d)
            assert _named(verify_case(spec, row.d), f"homogeneity at l={lam1}"), (spec.id, row.d)


class TestSharedReference:
    """verify_all shares one t = 1 reference among the rows of a model; the records stay
    those of verify_case run on its own for each row."""

    def _rows_equal_standalone(self, catalog=None, case_ids=None):
        cat = CASES if catalog is None else catalog
        checks, _ = verify_all(catalog=catalog, case_ids=case_ids)
        specs = sorted(cat.values(), key=lambda s: s.order)
        specs = [s for s in specs if case_ids is None or s.id in case_ids]
        rows = [c for c in checks if c.scope not in ("catalog", "threefold")]
        assert rows == [c for spec in specs for d in spec.degrees for c in verify_case(spec, d)]
        return rows

    def test_every_row_matches_its_standalone_records(self):
        rows = self._rows_equal_standalone()
        assert len(rows) == 740 - 1 - 15 and all(c.ok for c in rows)  # less structural and threefold checks

    @pytest.mark.parametrize("stage,checks_before", [
        ("zariski_decompose", 0), ("invariant_violations", 1), ("integrated_s_invariants", 3),
    ])
    def test_a_raising_reference_replays_for_every_row(self, monkeypatch, stage, checks_before):
        real = getattr(verify, stage)
        raised = []

        def raising(first, *args):
            family = args[0] if args else None
            if family is None or family == flag_family(first, 1):  # only the t = 1 reference raises
                raised.append(first)
                raise ArithmeticError(f"{stage} refused")
            return real(first, *args)

        monkeypatch.setattr(verify, stage, raising)
        two_models = ["line_component_smooth_point", "A1", "D4", "A2", "D5", "E7"]  # the first three share one
        rows = self._rows_equal_standalone(case_ids=two_models)
        bad = [c for c in rows if c.name == "computation"]
        assert len(bad) == 4 + 3 + 2 + 2 + 1 + 1
        assert {c.detail for c in bad} == {f"ArithmeticError: {stage} refused"}
        for c in bad:  # where a fresh computation raises: before the breakpoints, invariants or S scaling check
            scoped = [r for r in rows if r.scope == c.scope]
            assert scoped[checks_before:] == [c] and all(r.ok for r in scoped[:checks_before])
        raised.clear()
        verify_all(case_ids=two_models)
        assert len(raised) == 2  # once per model

    def test_faulted_model_beside_its_healthy_model_gets_its_own_reference(self, monkeypatch):
        spec = CASES["A2"]
        gram = [list(row) for row in spec.model.gram]
        gram[0][0] += F(1, 7)
        bad_model = dataclasses.replace(spec.model, gram=tuple(map(tuple, gram)))
        catalog = dict(CASES, A2=dataclasses.replace(spec, model=bad_model))
        ids = ["A2", "D5", "E7"]
        assert CASES["D5"].model == CASES["E7"].model == spec.model != bad_model
        rows = self._rows_equal_standalone(catalog, ids)
        assert [c.name for c in rows if c.scope.startswith("A2/")] == ["computation"] * 2
        assert all(c.ok for c in rows if not c.scope.startswith("A2/"))
        calls = _counted_decompositions(monkeypatch)
        verify_all(catalog=catalog, case_ids=ids)
        at_1 = [model for model, family in calls if family == flag_family(model, 1)]
        assert at_1 == [bad_model, spec.model]  # in catalog order: A2, then D5 and E7 on one reference
        assert len(calls) - len(at_1) == 2  # the faulted rows stop at their reference

    def test_equal_models_built_apart_share_one_reference(self, monkeypatch):
        ids = ["A2", "D5", "E7"]
        catalog = dict(CASES, **{i: dataclasses.replace(CASES[i], model=dataclasses.replace(CASES[i].model))
                                 for i in ids})
        assert len({id(catalog[i].model) for i in ids}) == 3 and len({catalog[i].model for i in ids}) == 1
        self._rows_equal_standalone(catalog, ids)
        calls = _counted_decompositions(monkeypatch)
        verify_all(catalog=catalog, case_ids=ids)
        assert sum(family == flag_family(model, 1) for model, family in calls) == 1


def _printed_data_faults(spec):
    """(name, faulty entry) for every redundant printed datum: 1/13 added to S(E), tau, A(E)'s
    constant, each part of the generic and of every point's ratio, and 1/97 to the first breakpoint."""
    q = F(1, 13)
    yield "s_factor", dataclasses.replace(spec, s_factor=spec.s_factor + q)
    yield "tau_factor", dataclasses.replace(spec, tau_factor=spec.tau_factor + q)
    yield "printed_A[0]", dataclasses.replace(spec, printed_A=(spec.printed_A[0] + q, spec.printed_A[1]))
    for part in (0, 1):
        num = list(spec.gen_ratio_num)
        num[part] += q
        yield f"gen_ratio_num[{part}]", dataclasses.replace(spec, gen_ratio_num=tuple(num))
    yield "gen_ratio_den", dataclasses.replace(spec, gen_ratio_den=spec.gen_ratio_den + q)
    for v, var in enumerate(spec.variants):
        for i, pt in enumerate(var.points):
            for part in (0, 1):
                num = list(pt.ratio_num)
                num[part] += q
                points = var.points[:i] + (dataclasses.replace(pt, ratio_num=tuple(num)),) + var.points[i + 1 :]
                variants = spec.variants[:v] + (dataclasses.replace(var, points=points),) + spec.variants[v + 1 :]
                yield f"{var.name}:{pt.label} ratio_num[{part}]", dataclasses.replace(spec, variants=variants)
    if spec.break_factors:
        yield "break_factors[0]", dataclasses.replace(
            spec, break_factors=(spec.break_factors[0] + F(1, 97),) + spec.break_factors[1:]
        )


def test_every_printed_datum_fault_is_detected():
    injected = 0
    for spec in CASES.values():
        for name, bad in _printed_data_faults(spec):
            _, ok = fault_checks(bad)
            assert not ok, f"{spec.id}: {name} fault survived"
            injected += 1
    assert injected == 512


class TestRegimeAndNormalization:
    """The lower-bound regime and delta(0) = 1 as identities on the least lines of the case's ratio table."""

    REGIME = (F(3, 2), F(0))

    @staticmethod
    def _with_regime_lines(lower, upper):
        """The failing checks of A4 at d = 4 with lines added to its ratio table, each (a, b) with s = 1:
        lower ones as points of a variant "fault", upper ones as curve bounds.  Its row starts at 2/5, past
        the end 3/8 of its regime, so that a line least on [0, 3/8] can be above the closed form's on
        [2/5, 7/10]; with no line added, every check passes (verify_case makes no structural check)."""
        spec = CASES["A4"]
        (row,) = spec.rows
        spec = dataclasses.replace(spec, rows=(dataclasses.replace(row, lo=F(2, 5)),))
        real = spec.ratio_table
        rows = real.rows + tuple(("fault", f"X{k}", Ratio(f"fault:X{k}", a, b, F(1))) for k, (a, b) in enumerate(lower))
        curves = real.curves + tuple(Ratio(f"curve{k}", a, b, F(1)) for k, (a, b) in enumerate(upper))
        vars(spec)["ratio_table"] = RatioTable(real.tau, real.e, rows, curves)  # read by every check
        return _failing(verify_case(spec, 4))

    def test_stated_regimes_hold(self):
        for case_id in ("A4", "A5", "A6", "A7"):
            spec = CASES[case_id]
            low, up, _ = least_lines(spec.ratio_table, F(0), spec.lower_regime_hi)
            assert low == self.REGIME and up[0] > F(3, 2) and up[0] + up[1] * spec.lower_regime_hi >= F(3, 2)
            (regime,) = _named(verify_case(spec, 4), "lower-bound regime")
            assert regime.ok
        assert self._with_regime_lines((), ()) == []

    @pytest.mark.parametrize("lower,upper,low,up", [
        # the least lower line is not 3/2: 1197/800 + lambda/100, 3/2 at 3/8
        ([(F(1197, 800), F(1, 100))], [], (F(1197, 800), F(1, 100)), (F(42, 13), F(-60, 13))),
        ([], [(F(3, 2), F(0))], REGIME, (F(3, 2), F(0))),  # exact at 0: the upper line meets 3/2 there
        ([], [(F(299, 100), F(-4))], REGIME, (F(299, 100), F(-4))),  # the upper line is 149/100 at 3/8
        ([], [(F(3), F(0))], REGIME, None),  # least at 0 only, E least at 3/8: no single least upper line
        ([(F(373, 200), F(-1))], [], None, (F(42, 13), F(-60, 13))),  # least at 3/8 only: no single lower line
    ], ids=["lower_not_three_halves", "upper_meets_it_at_0", "upper_below_it_at_hi", "no_upper_line", "no_lower_line"])
    def test_regime_off_its_lines_fails_the_regime_check_only(self, lower, upper, low, up):
        (bad,) = self._with_regime_lines(lower, upper)
        assert bad.name == "lower-bound regime" and bad.detail.startswith("least lines on [0, 3/8]")
        assert f"lower {_affine_str(low)}, upper {_affine_str(up)}," in bad.detail

    def test_regime_stated_where_delta_is_exact_fails(self):
        # A3 is exact from 0 on: a stated regime ending at its lo = 0 has 3 as its least line
        spec = dataclasses.replace(CASES["A3"], lower_regime_hi=F(0))
        checks = verify_case(spec, 4)
        assert [c.name for c in _failing(checks)] == ["lower-bound regime"]

    def test_normalization_reads_the_lines_at_0(self):
        # A2 with A(E), A(P1) and A(P2) scaled by 4/3, and their stated ratios and closed form with them:
        # every line check holds, and only delta(0) = 1 sees that the least lines at 0 are 4
        spec = CASES["A2"]
        var = spec.variants[0]
        p1, p2, q = var.points
        points = (dataclasses.replace(p1, coeff=(F(5, 9), F(0)), ratio_num=(F(4), F(0))),
                  dataclasses.replace(p2, coeff=(F(1, 3), F(0)), ratio_num=(F(4), F(0))), q)
        rows = tuple(dataclasses.replace(r, delta_num=tuple(c * F(4, 3) for c in r.delta_num)) for r in spec.rows)
        scaled = dataclasses.replace(spec, k_E=F(17, 3), m_C=F(8), printed_A=(F(20, 3), F(-8)),
                                     variants=(dataclasses.replace(var, points=points),), rows=rows)
        (bad,) = _failing(verify_case(scaled, 4))
        assert bad.name == "normalization at l=0" and "lower 4-" in bad.detail


class TestScopedValidation:
    def test_structural_fault_reported_scoped_and_full(self):
        spec = CASES["A2"]
        bad = dict(CASES, A2=dataclasses.replace(spec, m_L=spec.m_L + 1))
        for kwargs in ({"case_ids": ["A2"]}, {}):
            checks, ok = verify_all(catalog=bad, **kwargs)
            (structural,) = _named(checks, "structural validation")
            assert not ok and not structural.ok, kwargs
            assert "A2: pullback identity (L.E) + m_L*(E.E)" in structural.detail

    def test_other_cases_are_not_validated(self):
        spec = CASES["A2"]
        bad = dict(CASES, A2=dataclasses.replace(spec, m_L=spec.m_L + 1))
        checks, ok = verify_all(catalog=bad, case_ids=["D5"])
        assert ok and _named(checks, "structural validation")[0].ok

    def test_catalog_wide_checks_span_the_mapping(self):
        bad = dict(CASES)
        bad["A3"] = dataclasses.replace(CASES["A3"], order=CASES["A2"].order)
        bad["D5"] = dataclasses.replace(CASES["D5"], alias_of="no_such_case")
        checks, ok = verify_all(catalog=bad, case_ids=["E6"])
        (structural,) = _named(checks, "structural validation")
        assert not ok and not structural.ok
        assert "duplicate order" in structural.detail
        assert "D5: alias target 'no_such_case' missing" in structural.detail

    @pytest.mark.parametrize("fault", ["order", "alias"])
    def test_each_catalog_wide_fault_alone_spans_the_mapping(self, fault):
        bad = dict(CASES)
        if fault == "order":
            bad["A3"] = dataclasses.replace(CASES["A3"], order=CASES["A2"].order)
        else:
            bad["D5"] = dataclasses.replace(CASES["D5"], alias_of="no_such_case")
        checks, ok = verify_all(catalog=bad, case_ids=["E6"])
        (structural,) = _named(checks, "structural validation")
        assert not ok and not structural.ok
        assert ("duplicate order" in structural.detail) == (fault == "order")
        assert ("D5: alias target 'no_such_case' missing" in structural.detail) == (fault == "alias")
        assert structural.detail.split("; ") == validate_catalog(bad)  # E6 itself is sound: the messages of a full run

    @pytest.mark.parametrize("case_ids", [["nope"], ["A2", "nope"], ["A2_line"]])
    def test_an_id_missing_from_the_mapping_is_refused(self, case_ids):
        # ["nope"] passed with one passing "structural validation" check and all_ok True
        with pytest.raises(UnknownCase, match=r"^unknown case id '(nope|A2_line)'$"):
            verify_all(case_ids=case_ids)
        with pytest.raises(UnknownCase):
            validate_catalog(case_ids=case_ids)

    def test_an_id_is_looked_up_in_the_mapping_in_use(self):
        # the benchmark's fault operation: a one-entry mapping, verified by its one id
        faulty = dataclasses.replace(CASES["A2"], k_E=CASES["A2"].k_E + 1)
        checks, ok = verify_all(catalog={"A2": faulty}, case_ids=["A2"])
        assert not ok and {c.scope for c in checks} == {"catalog", "A2/d=3", "A2/d=4"}
        with pytest.raises(UnknownCase, match=r"^unknown case id 'D5'$"):
            verify_all(catalog={"A2": faulty}, case_ids=["D5"])

    @pytest.mark.parametrize("case_ids", ["A2", "A2_line", ""])
    def test_a_str_is_refused(self, case_ids):
        # "A2_line" verified A2 by a substring test (29 checks) and returned True
        with pytest.raises(TypeError, match=r"^case_ids must be a collection of case ids, not the str "):
            verify_all(case_ids=case_ids)

    def test_ids_given_twice_or_out_of_order_verify_each_case_once_in_catalog_order(self):
        checks, ok = verify_all(case_ids=["D5", "A2", "D5"])
        once, _ = verify_all(case_ids=["A2", "D5"])
        assert ok and checks == once
        assert [c.scope for c in checks if c.scope != "catalog"] == sorted(
            (c.scope for c in checks if c.scope != "catalog"), key=lambda scope: CASES[scope.split("/")[0]].order)

    @pytest.mark.parametrize("case_id, changes, message", [
        ("A4", {"rows": ()}, "no degree rows"),  # died in min() of no rows
        ("A4", {"model": SurfaceModel(("F", "L"), ((F(-1, 3), F(1)), (F(1), F(-2))), 1, (0, 1))},
         "model has no exceptional curve E"),  # died in model.pairing("E", "E")
        ("triple_line", {"model": SurfaceModel(("F",), ((F(-1),),), 1, (0,))}, "model has no exceptional curve E"),
    ], ids=["no-rows", "no-E", "no-E-single-curve"])
    def test_malformed_entry_is_reported_not_raised(self, case_id, changes, message):
        spec = dataclasses.replace(CASES[case_id], id="malformed", order=10**6, **changes)
        checks, ok = verify_all(catalog={**CASES, "malformed": spec}, case_ids=["malformed"])
        (structural,) = _named(checks, "structural validation")
        assert not ok and not structural.ok
        assert f"malformed: {message}" in structural.detail.split("; ")


class TestClosedFormFailure:
    def test_not_exact_is_a_failing_check_and_later_checks_run(self):
        # A3:coeff0.0 of the benchmark: the fault moves delta only near an interval end
        spec = CASES["A3"]
        var = spec.variants[0]
        pt = var.points[0]
        points = (dataclasses.replace(pt, coeff=(pt.coeff[0] + F(1, 8), pt.coeff[1])),) + var.points[1:]
        bad = dataclasses.replace(spec, variants=(dataclasses.replace(var, points=points),) + spec.variants[1:])
        checks, ok = verify_all(catalog={"A3": bad}, case_ids=["A3"])
        assert not ok and not _named(checks, "computation")
        for d in spec.degrees:
            scoped = [c for c in checks if c.scope == f"A3/d={d}"]
            (closed,) = _named(scoped, "closed-form reconstruction")
            (normal,) = _named(scoped, "normalization at l=0")
            assert not closed.ok and "delta is not one certified ratio" in closed.detail
            assert not normal.ok


def test_each_row_interval_computes_its_least_lines_once(monkeypatch):
    # the closed form and the minimizers read one computation on [lo, hi]; the regime or lambda = 0 check
    # makes the row's other one (1620 for ten runs when the minimizers computed their own)
    import logfano.delta as delta

    calls = []
    real = delta._least

    def counted(table, lo, hi):
        calls.append((lo, hi))
        return real(table, lo, hi)

    monkeypatch.setattr(delta, "_least", counted)
    monkeypatch.setattr(verify, "_least", counted)
    _, ok = verify_all()
    rows = [(spec, row) for spec in CASES.values() for row in spec.rows]
    assert ok and len(calls) == 2 * len(rows) == 108
    assert sorted(calls) == sorted([(row.lo, row.hi) for _, row in rows] + [
        (F(0), spec.lower_regime_hi if spec.lower_regime_hi is not None else F(0)) for spec, _ in rows])


def test_stated_s_and_a_faults_fail_their_own_checks():
    spec = CASES["E6"]
    faults = {
        "S(E)": {"s_factor": spec.s_factor + F(1, 13)},
        "A(E)": {"printed_A": (spec.printed_A[0] + F(1, 13), spec.printed_A[1])},
    }
    for name, change in faults.items():
        checks, ok = verify_all(catalog={"E6": dataclasses.replace(spec, **change)}, case_ids=["E6"])
        (check,) = _named(checks, name)
        assert not ok and not check.ok, name


def test_a_stated_ratio_over_zero_stops_the_row_in_a_computation_check():
    # (0 + 0*lambda)/0 is no line, though 0 = 0*den holds on the integers: the row stops where dividing by
    # the stated 0 raises, and the checks before it stand
    spec = CASES["A2"]
    var = spec.variants[0]
    points = (dataclasses.replace(var.points[0], ratio_num=(F(0), F(0)), ratio_den=F(0)), *var.points[1:])
    faulty = dataclasses.replace(spec, variants=(dataclasses.replace(var, points=points), *spec.variants[1:]))
    checks = verify_case(faulty, 4)
    assert [c.name for c in checks[-2:]] == ["A(E)", "computation"]
    assert checks[-1].detail == "ZeroDivisionError: Fraction(0, 0)"


def test_stated_tau_fault_fails_the_closed_form_and_the_line_checks_still_run():
    spec = CASES["A2"]
    bad = dataclasses.replace(spec, tau_factor=spec.tau_factor + F(1, 13))
    checks, ok = verify_all(catalog={"A2": bad}, case_ids=["A2"])
    assert not ok and not _named(checks, "computation")
    for d in spec.degrees:
        scoped = {c.name: c for c in checks if c.scope == f"A2/d={d}"}
        assert not scoped["breakpoints at t=1"].ok
        ratios = [f"ratio default:{pt.label}" for pt in spec.variants[0].points] + ["ratio generic"]
        for name in ("S(E)", "A(E)", *ratios, "minimizer", "normalization at l=0"):
            assert scoped[name].ok, (d, name)
        report = scoped[f"report at l={verify._probe_lambda(spec.row(d))}"]
        for check in (scoped["closed-form reconstruction"], report):
            assert not check.ok and "pseudo-effective threshold" in check.detail
