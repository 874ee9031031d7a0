"""Full verification of the engine against the catalog's stated results.

Every transcribed number is cross-checked against an independently computed
value: breakpoints and thresholds against the support-growth decomposition,
S factors against exact integrals, the S-invariants that delta_point scales
from the t = 1 decomposition against the integrals of a fresh decomposition,
per-point ratios against the flag integrals, closed forms against the form
derived from the ratio lines, and the lower-bound regimes against the
assembled minimum.  A single corrupted catalog entry therefore produces at
least one failing check.

Each sample of a row is decomposed afresh.  D(v) = t*H - v*E is homogeneous,
so the first sample is the row's reference: its structural invariants and
integrals are computed in full, and every later sample at t must equal it
scaled by s = t/t_1 (breakpoints times s, each c_j*v^j of P and N becomes
c_j*s^(1-j)*v^j, supports unchanged).  Every invariant keeps its verdict under
that scaling and the S-invariants scale by s.  Structural validation covers
the cases being verified, plus the catalog-wide order and alias checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import threefold
from .catalog import CASES, CaseSpec, build_case, validate_catalog
from .delta import (
    NotExactOnInterval,
    delta_closed_form,
    delta_point,
    expected_closed_form,
    integrated_s_invariants,
    interior_samples,
    lower_bound_regime_value,
)
from .exact import Poly
from .surface import DivisorExpr, ZariskiPieces, invariant_violations, zariski_decompose

F = Fraction


@dataclass(frozen=True)
class Check:
    scope: str
    name: str
    ok: bool
    detail: str = ""


def _check(scope: str, name: str, ok: bool, detail: str = "") -> Check:
    return Check(scope, name, bool(ok), detail if not ok else "")


def _scaled(z: ZariskiPieces, s: Fraction) -> ZariskiPieces:
    """z with t and v scaled by s: breakpoints times s, c_j*v^j of P and N becomes c_j*s^(1-j)*v^j."""

    def expr(e: DivisorExpr) -> DivisorExpr:
        polys = [Poly(tuple(c * s ** (1 - j) for j, c in enumerate(p.coeffs))) for p in (e.ambient, *e.coeffs)]
        return DivisorExpr(e.model, polys[0], tuple(polys[1:]))

    scaled = (tuple(b * s for b in z.breakpoints), tuple(map(expr, z.positives)), tuple(map(expr, z.negatives)))
    return ZariskiPieces(z.model, *scaled, z.supports)


def verify_case(spec: CaseSpec, d: int, n_samples: int = 6) -> list[Check]:
    """All per-sample checks and the closed-form check for one case at one degree.

    Every sample is decomposed afresh and its breakpoints checked.  The first
    sample is the reference: its invariants and S-integrals are computed once.
    A later sample at t passes "decomposition invariants" only if it equals the
    reference scaled by t/t_1; it then has the reference's verdict, and its
    S-invariants are the reference's times t/t_1.  A closed form that is not
    exact on the interval fails its check, and the checks after it still run.
    """
    scope = f"{spec.id}/d={d}"
    checks: list[Check] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append(_check(scope, name, ok, detail))

    row = spec.row(d)
    on_l_points = {(var.name, pt.label) for var in spec.variants for pt in var.points if pt.location == "on_L"}
    try:
        model, factory, _ = build_case(spec.id, d, {spec.id: spec})
        samples = interior_samples(row.lo, row.hi, n_samples, n_samples + 1)
        ref = None
        for lam in samples:
            t = 3 - d * lam
            pieces = zariski_decompose(model, factory(lam), t * spec.tau_factor)
            expected_bps = (F(0),) + tuple(b * t for b in spec.break_factors) + (t * spec.tau_factor,)
            add(f"breakpoints at l={lam}", pieces.breakpoints == expected_bps,
                f"computed {pieces.breakpoints}, stated {expected_bps}")
            if ref is None:
                ref, t_ref, ref_defects = pieces, t, invariant_violations(pieces)
                ref_s, defects = integrated_s_invariants(pieces, t), ref_defects
            elif pieces == _scaled(ref, t / t_ref):
                # same verdict as the reference; a defect is recomputed so that it names this sample's values
                defects = ref_defects and invariant_violations(pieces)
            else:
                defects = [f"not the l={samples[0]} decomposition scaled by {t / t_ref}"]
            add(f"decomposition invariants at l={lam}", not defects, "; ".join(defects))

            rep = delta_point(spec, d, lam)
            # delta_point scales the memoised t = 1 decomposition; these come from this row's own reference
            s_e, s_generic, s_on_l = (None if x is None else x * t / t_ref for x in ref_s)
            mismatched = [] if rep.s_e == s_e else [f"E: scaled {rep.s_e}, integrated {s_e}"]
            for prow in rep.rows:
                want = s_on_l if (prow.variant, prow.label) in on_l_points else s_generic
                if prow.s_value != want:
                    mismatched.append(f"{prow.variant}:{prow.label}: scaled {prow.s_value}, integrated {want}")
            add(f"S scaling at l={lam}", not mismatched, "; ".join(mismatched))
            add(f"S(E) at l={lam}", rep.s_e == spec.s_factor * t, f"computed {rep.s_e}, stated {spec.s_factor * t}")
            a_expected = spec.printed_A[0] + spec.printed_A[1] * lam
            add(f"A(E) at l={lam}", rep.a_e == a_expected, f"computed {rep.a_e}, stated {a_expected}")
            for prow in rep.rows:
                if prow.label == "generic":
                    num, den = spec.gen_ratio_num, spec.gen_ratio_den
                else:
                    pt = next(p for p in spec.variant(prow.variant).points if p.label == prow.label)
                    num, den = pt.ratio_num, pt.ratio_den
                want = (num[0] + num[1] * lam) / (den * t)
                add(f"ratio {prow.variant}:{prow.label} at l={lam}", prow.ratio == want,
                    f"computed {prow.ratio}, stated {want}")
            add(f"exact at l={lam}", rep.exact, f"lower {rep.lower_bound} < upper {rep.upper_bound}")
            add(f"value matches closed form at l={lam}", rep.matches_expected is True,
                f"computed {rep.upper_bound}, stated {rep.expected}")
            add(f"minimizer at l={lam}", set(rep.minimizers) == set(spec.minimizers),
                f"computed {rep.minimizers}, stated {spec.minimizers}")

        stated = expected_closed_form(spec, d)
        try:
            derived = delta_closed_form(spec, d)
            cf_ok, cf_detail = derived == stated, f"derived {derived.format()}, stated {stated.format()}"
        except NotExactOnInterval as exc:  # a failing check; the checks after it still run
            cf_ok, cf_detail = False, str(exc)
        add("closed-form reconstruction", cf_ok, cf_detail)

        if spec.lower_regime_hi is not None:
            for lam in interior_samples(F(0), spec.lower_regime_hi, 3, 4):
                rep = delta_point(spec, d, lam)
                want = lower_bound_regime_value(d, lam)
                add(f"lower-bound regime at l={lam}", (not rep.exact) and rep.lower_bound == want,
                    f"exact={rep.exact}, computed {rep.lower_bound}, stated {want}")

        if row.lo == 0:
            rep = delta_point(spec, d, F(0))
            add("normalization at l=0", rep.exact and rep.upper_bound == 1,
                f"computed {rep.lower_bound}..{rep.upper_bound}")
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
    """Run the whole verification; returns (checks in catalog order, all_ok).

    With case_ids, only those cases are verified and structurally validated;
    the catalog-wide order and alias checks still cover the whole mapping.
    """
    cat = CASES if catalog is None else catalog
    viol = validate_catalog(cat, case_ids)
    checks = [Check("catalog", "structural validation", not viol, "; ".join(viol))]
    specs = sorted(cat.values(), key=lambda s: s.order)
    if case_ids is not None:
        specs = [s for s in specs if s.id in case_ids]
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
