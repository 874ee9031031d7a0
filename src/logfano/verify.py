"""Full verification of the engine against the catalog's stated results.

Every transcribed number is cross-checked against an independently computed
value, so a single corrupted catalog entry produces at least one failing check.
Each case/degree row is checked once, as identities in lambda: with
t = 3 - d*lambda, D(v) = t*H - v*E is homogeneous, and A(E), S(E)*t, every
stated ratio and the closed form are lines a + b*lambda over t, equal for all
lambda exactly when their coefficients are; the closed form, the minimizers,
a lower-bound regime and delta(0) = 1 are read off the least lines, computed
once per interval (delta._least, directly or through delta.binding).  The
model's decomposition at t = 1 is the reference, its breakpoints, invariants
and S-integrals checked in full.  It depends on the model alone, so one
verify_all call computes it once per model (10 for the catalog's 54 rows) and
every row of that model reads it; nothing is kept between calls.  Each row
gets one fresh decomposition at lambda_1, which must be the reference scaled
by t_1 (_is_scaled, which compares the two on integer rows), so homogeneity
is tested, not assumed.  The stated A(E) and ratios and the report at
lambda_1 are compared with the integer lines of delta.Lines over their common
denominator, each stated or reported Fraction by cross-multiplication; a
Fraction of a line is built only for a failing check's detail.  Structural
validation covers the cases being verified, plus the catalog-wide order and
alias checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import threefold
from .catalog import CASES, Affine, CaseSpec, DegreeRow, _affine_str, validate_catalog
from .delta import (
    _closed_form,
    _least,
    _minimizer_names,
    _unit_constants,
    binding,
    delta_point,
    integrated_s_invariants,
)
from .surface import SurfaceModel, ZariskiPieces, flag_family, invariant_violations, zariski_decompose

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


def _is_scaled(fresh: ZariskiPieces, ref: ZariskiPieces, t: Fraction) -> bool:
    """Whether fresh is ref with t and v scaled by t: the same model and supports,
    breakpoints b*t, and each coefficient c_j of v^j in P and N becomes c_j*t^(1-j).

    Compared on integers, with no scaled copy built: for t = p/q, breakpoints
    b' and b agree when b'*q = b*p, and on the rows (c + s*v)/den of P and N,
    coefficient c_j of v^j over d0 in ref and c'_j over d1 in fresh agree when
    c'_j*d0*p^j*q = c_j*d1*p*q^j.
    """
    rows = fresh.positives + fresh.negatives, ref.positives + ref.negatives
    p, q = t.numerator, t.denominator
    if (fresh.model, fresh.supports, len(fresh.breakpoints), len(rows[0])) != (
            ref.model, ref.supports, len(ref.breakpoints), len(rows[1])) or any(
            b1.numerator * b0.denominator * q != b0.numerator * b1.denominator * p
            for b1, b0 in zip(fresh.breakpoints, ref.breakpoints)):
        return False
    for (c1, s1, d1), (c0, s0, d0) in zip(*rows):
        for got, want, x, y in ((c1, c0, q, p), (s1, s0, p * q, p * q)):  # j = 0, then j = 1
            if any(a * d0 * x != b * d1 * y for a, b in zip(got, want)):
                return False
    return True


def _is_line(line: tuple[int, int], den: int, num: Affine, s: Fraction) -> bool:
    """Whether the integer line (a, b)/den is the stated line num/s with s != 0, that is whether
    a*s = num_0*den and b*s = num_1*den, on integer ratios and without building num/s."""
    s_n, s_d = s.as_integer_ratio()
    return s_n != 0 and all(a * s_n * x.denominator == x.numerator * den * s_d for a, x in zip(line, num))


def _over(num: Affine, s: Fraction) -> Affine:
    """The stated line num/s, for a failing check's detail; for s = 0 its ZeroDivisionError becomes
    the row's "computation" check."""
    return num[0] / s, num[1] / s


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
        p, q = lam1.numerator, lam1.denominator
        w = 3 * q - d * p  # t_1 = w/q
        t1 = F(w, q)
        add(f"homogeneity at l={lam1}", _is_scaled(zariski_decompose(model, flag_family(model, t1)), ref, t1),
            lambda: f"not the t=1 decomposition scaled by {t1}")

        integrated = stage(2)
        unit = _unit_constants(model)
        cached = (unit.s_e, unit.s_generic, unit.s_on_l)
        add("S scaling", cached == integrated, lambda: f"cached {cached}, integrated {integrated}")
        add("S(E)", unit.s_e == spec.s_factor, lambda: f"computed {unit.s_e}, stated {spec.s_factor}")

        table = spec.ratio_table  # no tau gate: "breakpoints at t=1" compares tau
        lower, ints, den = table.lower.by_label, table.lower.ints, table.lower.den
        add("A(E)", _is_line(ints["E"], den, spec.printed_A, spec.s_factor),
            lambda: f"computed {_affine_str(lower['E'])}, stated {_affine_str(_over(spec.printed_A, spec.s_factor))}")
        stated_ratios = [(f"{var.name}:{pt.label}", pt.ratio_num, pt.ratio_den)
                         for var in spec.variants for pt in var.points]
        for label, num, s in stated_ratios + [("generic", spec.gen_ratio_num, spec.gen_ratio_den)]:
            add(f"ratio {label}", _is_line(ints[label], den, num, s),
                lambda: f"computed {_affine_str(lower[label])}, stated {_affine_str(_over(num, s))}")

        stated = row.stated_form
        least = _least(table, row.lo, row.hi)  # the closed form and the minimizers read the same least lines
        try:
            derived = _closed_form(spec, row, least)
        except ValueError as exc:  # NotExactOnInterval or a tau mismatch: a failing check, the checks after it run
            add("closed-form reconstruction", False, lambda: str(exc))
        else:
            add("closed-form reconstruction", derived == stated,
                lambda: f"derived {derived.format()}, stated {stated.format()}")
        minimizers = _minimizer_names(least[0])
        add("minimizer", minimizers == spec.minimizers, lambda: f"computed {minimizers}, stated {spec.minimizers}")

        try:
            rep = delta_point(spec, d, lam1)
        except ValueError as exc:  # a tau mismatch, as for the closed form
            add(f"report at l={lam1}", False, lambda: str(exc))
        else:
            # on the integer lines: at lambda_1 = p/q the line of integer value n is the ratio n/(den*w)
            at = {label: a * q + b * p for label, (a, b) in ints.items()}
            got = [rep.a_e / rep.s_e, *(r.ratio for r in rep.rows), rep.lower_bound, rep.upper_bound]
            want = [at["E"], *(at[r.label if r.label == "generic" else f"{r.variant}:{r.label}"] for r in rep.rows)]
            want += [min(at.values()), min(a * q + b * p for a, b in table.upper.ints.values())]
            dens = [den * w] * (len(want) - 1) + [table.upper.den * w]
            add(f"report at l={lam1}", all(x.numerator * m == n * x.denominator for x, n, m in zip(got, want, dens)),
                lambda: f"reported {list(map(str, got))}, lines {[str(F(n, m)) for n, m in zip(want, dens)]}")

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
