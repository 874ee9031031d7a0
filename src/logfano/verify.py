"""Full verification of the engine against the catalog's stated results.

Every transcribed number is cross-checked against an independently computed
value: breakpoints and thresholds against the support-growth decomposition,
S factors against exact integrals, the S-invariants that delta_point scales
from the t = 1 decomposition against the integrals of a fresh decomposition
at each sample, per-point ratios against the flag integrals, closed forms
against the form derived from the ratio lines, and the lower-bound regimes
against the assembled minimum.  A single corrupted catalog entry therefore
produces at least one failing check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import threefold
from .catalog import CASES, CaseSpec, build_case, validate_catalog
from .delta import (
    delta_closed_form,
    delta_point,
    expected_closed_form,
    integrated_s_invariants,
    interior_samples,
    lower_bound_regime_value,
)
from .surface import invariant_violations, zariski_decompose

F = Fraction


@dataclass(frozen=True)
class Check:
    scope: str
    name: str
    ok: bool
    detail: str = ""


def _check(scope: str, name: str, ok: bool, detail: str = "") -> Check:
    return Check(scope, name, bool(ok), detail if not ok else "")


def verify_case(spec: CaseSpec, d: int, n_samples: int = 6) -> list[Check]:
    """All per-sample checks and the closed-form check for one case at one degree."""
    scope = f"{spec.id}/d={d}"
    checks: list[Check] = []
    row = spec.row(d)
    catalog = {spec.id: spec}
    on_l_points = {(var.name, pt.label) for var in spec.variants for pt in var.points if pt.location == "on_L"}
    try:
        model, factory, _ = build_case(spec.id, d, catalog)
        samples = interior_samples(row.lo, row.hi, n_samples, n_samples + 1)
        for lam in samples:
            t = 3 - d * lam
            pieces = zariski_decompose(model, factory(lam), t * spec.tau_factor)
            expected_bps = (F(0),) + tuple(b * t for b in spec.break_factors) + (t * spec.tau_factor,)
            checks.append(
                _check(
                    scope,
                    f"breakpoints at l={lam}",
                    pieces.breakpoints == expected_bps,
                    f"computed {pieces.breakpoints}, stated {expected_bps}",
                )
            )
            defects = invariant_violations(pieces)
            checks.append(_check(scope, f"decomposition invariants at l={lam}", not defects, "; ".join(defects)))

            rep = delta_point(spec, d, lam)
            # delta_point scales the t = 1 decomposition; these integrals come from the fresh one at t
            s_e, s_generic, s_on_l = integrated_s_invariants(pieces, t)
            mismatched = [] if rep.s_e == s_e else [f"E: scaled {rep.s_e}, integrated {s_e}"]
            for prow in rep.rows:
                want = s_on_l if (prow.variant, prow.label) in on_l_points else s_generic
                if prow.s_value != want:
                    mismatched.append(f"{prow.variant}:{prow.label}: scaled {prow.s_value}, integrated {want}")
            checks.append(_check(scope, f"S scaling at l={lam}", not mismatched, "; ".join(mismatched)))
            checks.append(
                _check(
                    scope,
                    f"S(E) at l={lam}",
                    rep.s_e == spec.s_factor * t,
                    f"computed {rep.s_e}, stated {spec.s_factor * t}",
                )
            )
            a_expected = spec.printed_A[0] + spec.printed_A[1] * lam
            checks.append(
                _check(scope, f"A(E) at l={lam}", rep.a_e == a_expected, f"computed {rep.a_e}, stated {a_expected}")
            )
            for prow in rep.rows:
                if prow.label == "generic":
                    num = spec.gen_ratio_num
                    den = spec.gen_ratio_den
                else:
                    pt = next(p for p in spec.variant(prow.variant).points if p.label == prow.label)
                    num, den = pt.ratio_num, pt.ratio_den
                want = (num[0] + num[1] * lam) / (den * t)
                checks.append(
                    _check(
                        scope,
                        f"ratio {prow.variant}:{prow.label} at l={lam}",
                        prow.ratio == want,
                        f"computed {prow.ratio}, stated {want}",
                    )
                )
            checks.append(_check(scope, f"exact at l={lam}", rep.exact, f"lower {rep.lower_bound} < upper {rep.upper_bound}"))
            checks.append(
                _check(
                    scope,
                    f"value matches closed form at l={lam}",
                    rep.matches_expected is True,
                    f"computed {rep.upper_bound}, stated {rep.expected}",
                )
            )
            checks.append(
                _check(
                    scope,
                    f"minimizer at l={lam}",
                    set(rep.minimizers) == set(spec.minimizers),
                    f"computed {rep.minimizers}, stated {spec.minimizers}",
                )
            )

        derived = delta_closed_form(spec, d)
        stated = expected_closed_form(spec, d)
        checks.append(
            _check(
                scope,
                "closed-form reconstruction",
                derived == stated,
                f"derived {derived.format()}, stated {stated.format()}",
            )
        )

        if spec.lower_regime_hi is not None:
            for lam in interior_samples(F(0), spec.lower_regime_hi, 3, 4):
                rep = delta_point(spec, d, lam)
                want = lower_bound_regime_value(d, lam)
                checks.append(
                    _check(
                        scope,
                        f"lower-bound regime at l={lam}",
                        (not rep.exact) and rep.lower_bound == want,
                        f"exact={rep.exact}, computed {rep.lower_bound}, stated {want}",
                    )
                )

        if row.lo == 0:
            rep = delta_point(spec, d, F(0))
            checks.append(
                _check(
                    scope,
                    "normalization at l=0",
                    rep.exact and rep.upper_bound == 1,
                    f"computed {rep.lower_bound}..{rep.upper_bound}",
                )
            )
    except Exception as exc:  # surfaced as a failing check, not a crash
        checks.append(Check(scope, "computation", False, f"{type(exc).__name__}: {exc}"))
    return checks


def verify_threefold_section() -> list[Check]:
    checks = []
    for kind, params in (("plane", {"s": 4}), ("blowup", {"s": 4}), ("quadric", {})):
        for lam in interior_samples(F(0), F(3, 4), 5, 6):
            ok = threefold.verify_threefold_volumes(kind, params, lam)
            checks.append(_check("threefold", f"{kind} volume at l={lam}", ok, "integral differs from closed form"))
    return checks


def verify_all(
    catalog: dict[str, CaseSpec] | None = None,
    case_ids: list[str] | None = None,
    n_samples: int = 6,
) -> tuple[list[Check], bool]:
    """Run the whole verification; returns (checks in catalog order, all_ok)."""
    cat = CASES if catalog is None else catalog
    checks: list[Check] = [
        Check("catalog", "structural validation", not (viol := validate_catalog(cat)), "; ".join(viol))
    ]
    specs = sorted(cat.values(), key=lambda s: s.order)
    if case_ids is not None:
        wanted = set(case_ids)
        specs = [s for s in specs if s.id in wanted]
    for spec in specs:
        for d in spec.degrees:
            checks.extend(verify_case(spec, d, n_samples))
    if case_ids is None:
        checks.extend(verify_threefold_section())
    return checks, all(c.ok for c in checks)


def summarize(checks: list[Check]) -> list[str]:
    """One PASS/FAIL line per scope, details for every failing check."""
    lines = []
    scopes: dict[str, list[Check]] = {}
    for c in checks:
        scopes.setdefault(c.scope, []).append(c)
    for scope, cs in scopes.items():
        bad = [c for c in cs if not c.ok]
        if bad:
            lines.append(f"FAIL {scope} ({len(bad)}/{len(cs)} checks failed)")
            for c in bad:
                lines.append(f"     - {c.name}: {c.detail}")
        else:
            lines.append(f"PASS {scope} ({len(cs)} checks)")
    return lines
