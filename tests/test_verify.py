"""verify: the per-row reference decomposition, scoped structural validation and
closed-form failures that leave the later checks running."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import logfano.verify as verify
from logfano.catalog import CASES
from logfano.delta import interior_samples
from logfano.exact import Poly
from logfano.verify import verify_all, verify_case


def _named(checks, name):
    return [c for c in checks if c.name == name]


def _samples(spec, d, n=6):
    row = spec.row(d)
    return interior_samples(row.lo, row.hi, n, n + 1)


class TestReferenceSample:
    def test_perturbed_later_sample_fails_its_invariants_check(self, monkeypatch):
        spec, d = CASES["A2"], 4
        real = verify.zariski_decompose
        calls = []

        def perturb_third(model, family, v_max=None):
            pieces = real(model, family, v_max)
            calls.append(pieces)
            if len(calls) != 3:
                return pieces
            i = next(k for k, support in enumerate(pieces.supports) if support)
            n = pieces.negatives[i]
            name = pieces.supports[i][0]
            coeffs = list(n.coeffs)
            coeffs[n.model.index(name)] = n.coeff(name) + Poly.const(F(1, 13))
            negatives = list(pieces.negatives)
            negatives[i] = dataclasses.replace(n, coeffs=tuple(coeffs))
            return dataclasses.replace(pieces, negatives=tuple(negatives))

        monkeypatch.setattr(verify, "zariski_decompose", perturb_third)
        checks = verify_case(spec, d)
        lams = _samples(spec, d)
        assert len(calls) == len(lams)
        by_name = {c.name: c for c in checks}
        for k, lam in enumerate(lams):
            assert by_name[f"breakpoints at l={lam}"].ok
            assert by_name[f"decomposition invariants at l={lam}"].ok == (k != 2), lam
        bad = by_name[f"decomposition invariants at l={lams[2]}"]
        assert bad.detail == f"not the l={lams[0]} decomposition scaled by {(3 - d * lams[2]) / (3 - d * lams[0])}"

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

    def test_reference_defect_is_reported_at_every_sample(self, monkeypatch):
        # a defect keeps its verdict under scaling and names each sample's own values
        monkeypatch.setattr(verify, "invariant_violations", lambda z: [f"tau {z.tau}"])
        spec, d = CASES["D5"], 4
        checks = verify_case(spec, d)
        for lam in _samples(spec, d):
            (c,) = _named(checks, f"decomposition invariants at l={lam}")
            assert not c.ok and c.detail == f"tau {(3 - d * lam) * spec.tau_factor}"


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
