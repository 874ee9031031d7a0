"""Full verification of the engine against the catalog's stated results.

Every transcribed number is cross-checked against an independently computed
value, so a single corrupted catalog entry produces at least one failing check.
Each case/degree row is checked once, as identities in lambda: with
t = 3 - d*lambda, D(v) = t*H - v*E is homogeneous, and A(E), S(E)*t, every
stated ratio and the closed form are lines a + b*lambda over t, equal for all
lambda exactly when their coefficients are; the minimizers, a lower-bound
regime and delta(0) = 1 are read off the least lines (delta.binding).  The
model's decomposition at t = 1 is the reference, its breakpoints, invariants
and S-integrals checked in full.  It depends on the model alone, so one
verify_all call computes it once per model (10 for the catalog's 54 rows) and
every row of that model reads it; nothing is kept between calls.  Each row
gets one fresh decomposition at lambda_1, which must equal the reference
scaled by t_1 (breakpoints times t_1, c_j*v^j of P and N becomes
c_j*t_1^(1-j)*v^j), so homogeneity is tested, not assumed.  Structural
validation covers the cases being verified, plus the catalog-wide order and
alias checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import threefold
from .catalog import CASES, CaseSpec, DegreeRow, _affine_str, flag_family, validate_catalog
from .delta import (
    _unit_constants,
    binding,
    delta_closed_form,
    delta_point,
    integrated_s_invariants,
)
from .exact import _canonical
from .surface import DivisorExpr, SurfaceModel, ZariskiPieces, invariant_violations, zariski_decompose

F = Fraction


@dataclass(frozen=True)
class Check:
    scope: str
    name: str
    ok: bool
    detail: str = ""


def _check(scope: str, name: str, ok: bool, detail: Callable[[], str]) -> Check:
    """A check whose detail text is built only when it fails."""
    return Check(scope, name, bool(ok), "" if ok else detail())


def _scaled(z: ZariskiPieces, s: Fraction) -> ZariskiPieces:
    """z with t and v scaled by s: breakpoints times s, c_j*v^j of P and N becomes c_j*s^(1-j)*v^j."""

    def expr(e: DivisorExpr) -> DivisorExpr:
        polys = [_canonical([c * s ** (1 - j) for j, c in enumerate(p.coeffs)]) for p in (e.ambient, *e.coeffs)]
        return DivisorExpr(e.model, polys[0], tuple(polys[1:]))

    scaled = (tuple(b * s for b in z.breakpoints), tuple(map(expr, z.positives)), tuple(map(expr, z.negatives)))
    return ZariskiPieces(z.model, *scaled, z.supports)


_Reference = tuple[list, Exception | None]


def _reference(model: SurfaceModel) -> _Reference:
    """The t = 1 reference of a model: its decomposition, that decomposition's
    invariant defects and its S-integrals, in this order and as far as they
    were computed, with the exception that stopped them (None if none did)."""
    done: list = []
    try:
        done.append(zariski_decompose(model, flag_family(model, 1)))
        done.append(invariant_violations(done[0]))
        done.append(integrated_s_invariants(done[0]))
    except Exception as exc:
        return done, exc
    return done, None


def _probe_lambda(row: DegreeRow) -> Fraction:
    """lo + (hi - lo)/7, where t_1 = 3 - d*lambda_1 is 1 on no row (at the midpoint A7/d=4 has t = 1)."""
    return row.lo + (row.hi - row.lo) / 7


def verify_case(spec: CaseSpec, d: int, reference: _Reference | None = None) -> list[Check]:
    """All checks of one case at one degree, each made once as an identity in lambda.

    Against the t = 1 reference of spec.model (computed here unless verify_all
    passes the one it shares among the cases of that model): the stated
    breakpoints, its invariants, the cached S-invariants that delta_point
    scales and a fresh decomposition at lambda_1.  Against the engine's ratio
    lines: the stated S(E), A(E) and ratios, the closed form, the minimizers,
    the lower-bound regime and delta(0) = 1; one delta_point at lambda_1 must
    report the lines' values over t_1.  A closed form that is not exact on the
    interval, or a stated tau_factor that is not the model's, fails the
    closed-form and the report check, and the checks after them still run.
    """
    scope = f"{spec.id}/d={d}"
    checks: list[Check] = []

    def add(name: str, ok: bool, detail: Callable[[], str]) -> None:
        checks.append(_check(scope, name, ok, detail))

    row = spec.row(d)
    model = spec.model
    done, error = _reference(model) if reference is None else reference

    def stage(i: int):  # value i, or the exception that stopped the reference: where a fresh computation raises it
        if i < len(done):
            return done[i]
        raise error

    try:
        ref = stage(0)
        stated_bps = (F(0), *spec.break_factors, spec.tau_factor)
        add("breakpoints at t=1", ref.breakpoints == stated_bps,
            lambda: f"computed {ref.breakpoints}, stated {stated_bps}")
        defects = stage(1)
        add("decomposition invariants at t=1", not defects, lambda: "; ".join(defects))
        lam1 = _probe_lambda(row)
        t1 = 3 - d * lam1
        add(f"homogeneity at l={lam1}", zariski_decompose(model, flag_family(model, t1)) == _scaled(ref, t1),
            lambda: f"not the t=1 decomposition scaled by {t1}")

        integrated = stage(2)
        unit = _unit_constants(model)
        cached = (unit.s_e, unit.s_generic, unit.s_on_l)
        add("S scaling", cached == integrated, lambda: f"cached {cached}, integrated {integrated}")
        add("S(E)", unit.s_e == spec.s_factor, lambda: f"computed {unit.s_e}, stated {spec.s_factor}")

        table = spec.ratio_table  # no tau gate: "breakpoints at t=1" compares tau
        lower, upper = table.lower.by_label, table.upper.by_label
        a_e = tuple(x / spec.s_factor for x in spec.printed_A)
        add("A(E)", lower["E"] == a_e, lambda: f"computed {_affine_str(lower['E'])}, stated {_affine_str(a_e)}")
        stated_ratios = [(f"{var.name}:{pt.label}", pt.ratio_num, pt.ratio_den)
                         for var in spec.variants for pt in var.points]
        for label, num, den in stated_ratios + [("generic", spec.gen_ratio_num, spec.gen_ratio_den)]:
            want = (num[0] / den, num[1] / den)
            add(f"ratio {label}", lower[label] == want,
                lambda: f"computed {_affine_str(lower[label])}, stated {_affine_str(want)}")

        stated = row.stated_form
        try:
            derived = delta_closed_form(spec, d)
        except ValueError as exc:  # NotExactOnInterval or a tau mismatch: a failing check, the checks after it run
            add("closed-form reconstruction", False, lambda: str(exc))
        else:
            add("closed-form reconstruction", derived == stated,
                lambda: f"derived {derived.format()}, stated {stated.format()}")
        _, _, minimizers = binding(table, row.lo, row.hi)
        add("minimizer", minimizers == spec.minimizers, lambda: f"computed {minimizers}, stated {spec.minimizers}")

        try:
            rep = delta_point(spec, d, lam1)
        except ValueError as exc:  # a tau mismatch, as for the closed form
            add(f"report at l={lam1}", False, lambda: str(exc))
        else:
            at = {label: (a + b * lam1) / t1 for label, (a, b) in lower.items()}
            got = [rep.a_e / rep.s_e, *(r.ratio for r in rep.rows), rep.lower_bound, rep.upper_bound]
            want = [at["E"], *(at[r.label if r.label == "generic" else f"{r.variant}:{r.label}"] for r in rep.rows)]
            want += [min(at.values()), min((a + b * lam1) / t1 for a, b in upper.values())]
            add(f"report at l={lam1}", got == want,
                lambda: f"reported {list(map(str, got))}, lines {list(map(str, want))}")

        if spec.lower_regime_hi is not None:
            # bound-only on [0, hi): the least lower line is 3/2 (delta >= 3/(2t)), and the least
            # upper line, concave minus it, lies above it at 0 and not below it at hi
            hi = spec.lower_regime_hi
            low, up, _ = binding(table, F(0), hi)
            above = up is not None and up[0] > F(3, 2) and up[0] + up[1] * hi >= F(3, 2)
            add("lower-bound regime", low == (F(3, 2), 0) and above,
                lambda: f"least lines on [0, {hi}]: lower {_affine_str(low)}, upper {_affine_str(up)}, stated lower 3/2")

        if row.lo == 0:
            low, up, _ = binding(table, F(0), F(0))
            add("normalization at l=0", low[0] == 3 and up[0] == 3,
                lambda: f"least lines at 0: lower {_affine_str(low)}, upper {_affine_str(up)}; delta(0) = 1 needs 3")
    except Exception as exc:  # surfaced as a failing check, not a crash
        checks.append(Check(scope, "computation", False, f"{type(exc).__name__}: {exc}"))
    return checks


def verify_threefold_section() -> list[Check]:
    """The volume identity of each flag of threefold.SECTION_FLAGS at each of threefold.SECTION_LAMBDAS."""
    return [
        _check("threefold", f"{kind} volume at l={lam}", threefold.verify_threefold_volumes(kind, params, lam),
               lambda: "integral differs from closed form")
        for kind, params in threefold.SECTION_FLAGS
        for lam in threefold.SECTION_LAMBDAS
    ]


def verify_all(
    catalog: dict[str, CaseSpec] | None = None,
    case_ids: list[str] | None = None,
) -> tuple[list[Check], bool]:
    """Run the whole verification; returns (checks in catalog order, all_ok).

    Each case/degree row is checked by verify_case, with one t = 1 reference
    per distinct model value, and a full run adds the threefold volume identities.

    With case_ids, only those cases are verified and structurally validated;
    the catalog-wide order and alias checks still cover the whole mapping.
    """
    cat = CASES if catalog is None else catalog
    viol = validate_catalog(cat, case_ids)
    checks = [Check("catalog", "structural validation", not viol, "; ".join(viol))]
    specs = sorted(cat.values(), key=lambda s: s.order)
    if case_ids is not None:
        specs = [s for s in specs if s.id in case_ids]
    references: dict[SurfaceModel, _Reference] = {}
    for spec in specs:
        ref = references.get(spec.model)
        if ref is None:
            ref = references[spec.model] = _reference(spec.model)
        for d in spec.degrees:
            checks.extend(verify_case(spec, d, ref))
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
