"""Full verification of the engine against the catalog's stated results.

Every transcribed number is cross-checked against an independently computed
value, so a single corrupted catalog entry produces at least one failing check.
Each case/degree row is checked once, as identities in lambda: with
t = 3 - d*lambda, D(v) = t*H - v*E is homogeneous, and A(E), S(E)*t, every
stated ratio and the closed form are lines a + b*lambda over t, equal for all
lambda exactly when their coefficients are; the closed form, the minimizers,
a lower-bound regime and delta(0) = 1 are read off the least lines, computed
once per interval (delta._least).  The model's decomposition at t = 1 is the
reference, its breakpoints, invariants and S-integrals checked in full.  It
depends on the model alone, so one verify_all call computes it once per model
(10 for the catalog's 54 rows) and every row of that model reads it; nothing
is kept between calls.  Each row gets one fresh decomposition at lambda_1,
which must be the reference scaled by t_1 (_is_scaled, which compares the two
on integer rows), so homogeneity is tested, not assumed.

Each row's checks run on integers: lambda_1 = (6*lo + hi)/7 is one Fraction
of the ends' integers, and the stated A(E) and ratios, the report at
lambda_1, the regime and the normalization are compared with the integer
lines of delta.Lines over their common denominator, each stated or reported
Fraction read as its integer ratio and cross-multiplied; a Fraction of a
line is built only for a failing check's detail.  Structural validation
covers the cases being verified, plus the catalog-wide order and alias
checks; verify_all verifies only ids of the mapping it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable

from . import threefold
from .catalog import _ORDER, CASES, Affine, CaseSpec, DegreeRow, _affine_str, _case_ids, validate_catalog
from .delta import (
    Lines,
    _closed_form,
    _least,
    _minimizer_names,
    _unit_constants,
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
    p, q = t.as_integer_ratio()
    if (fresh.model, fresh.supports, len(fresh.breakpoints), len(rows[0])) != (
            ref.model, ref.supports, len(ref.breakpoints), len(rows[1])):
        return False
    for b1, b0 in zip(fresh.breakpoints, ref.breakpoints):
        (n1, d1), (n0, d0) = b1.as_integer_ratio(), b0.as_integer_ratio()
        if n1 * d0 * q != n0 * d1 * p:
            return False
    for (c1, s1, d1), (c0, s0, d0) in zip(*rows):
        for got, want, x, y in ((c1, c0, q, p), (s1, s0, p * q, p * q)):  # j = 0, then j = 1
            if list(map((d0 * x).__mul__, got)) != list(map((d1 * y).__mul__, want)):
                return False
    return True


def _is_line(line: tuple[int, int], den: int, num: Affine, s: Fraction) -> bool:
    """Whether the integer line (a, b)/den is the stated line num/s with s != 0, that is whether
    a*s = num_0*den and b*s = num_1*den, on integer ratios and without building num/s."""
    s_n, s_d = s.as_integer_ratio()
    if s_n == 0:
        return False
    for a, x in zip(line, num):
        x_n, x_d = x.as_integer_ratio()
        if a * s_n * x_d != x_n * den * s_d:
            return False
    return True


def _over(num: Affine, s: Fraction) -> Affine:
    """The stated line num/s, for a failing check's detail; for s = 0 its ZeroDivisionError becomes
    the row's "computation" check."""
    return num[0] / s, num[1] / s


def _first(lines: Lines, labels: list[str]) -> Affine | None:
    """The line of the first of labels as Fractions, for a failing check's detail; None for no label."""
    return lines.line(labels[0]) if labels else None


_ZERO = F(0)
_OK = attrgetter("ok")
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
    """lo + (hi - lo)/7 = (6*lo + hi)/7, one Fraction of integers, where t_1 = 3 - d*lambda_1
    is 1 on no row (at the midpoint A7/d=4 has t = 1)."""
    (lo_p, lo_q), (hi_p, hi_q) = row.lo.as_integer_ratio(), row.hi.as_integer_ratio()
    return F(6 * lo_p * hi_q + hi_p * lo_q, 7 * lo_q * hi_q)


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

    def add(name: str, ok: bool, detail: Callable[[], str]) -> None:  # _check, inlined
        checks.append(Check(scope, name, True, "") if ok else Check(scope, name, False, detail()))

    row = spec.row(d)
    model = spec.model
    done, error = _reference(model) if reference is None else reference

    def stage(i: int):  # value i, or the exception that stopped the reference: where a fresh computation raises it
        if i < len(done):
            return done[i]
        raise error

    try:
        ref = stage(0)
        stated_bps = (_ZERO, *spec.break_factors, spec.tau_factor)
        add("breakpoints at t=1", ref.breakpoints == stated_bps,
            lambda: f"computed {ref.breakpoints}, stated {stated_bps}")
        defects = stage(1)
        add("decomposition invariants at t=1", not defects, lambda: "; ".join(defects))
        lam1 = _probe_lambda(row)
        p, q = lam1.as_integer_ratio()
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
        lower, upper = table.lower, table.upper  # their Fraction lines only for a failing check's detail
        ints, den, up_ints, up_den = lower.ints, lower.den, upper.ints, upper.den
        add("A(E)", _is_line(ints["E"], den, spec.printed_A, spec.s_factor),
            lambda: f"computed {_affine_str(_first(lower, ['E']))}, stated {_affine_str(_over(spec.printed_A, spec.s_factor))}")
        stated_ratios = [(f"{var.name}:{pt.label}", pt.ratio_num, pt.ratio_den)
                         for var in spec.variants for pt in var.points]
        for label, num, s in stated_ratios + [("generic", spec.gen_ratio_num, spec.gen_ratio_den)]:
            add(f"ratio {label}", _is_line(ints[label], den, num, s),
                lambda: f"computed {_affine_str(_first(lower, [label]))}, stated {_affine_str(_over(num, s))}")

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
            # on the integer lines: at lambda_1 = p/q the line of integer value n is the ratio n/(den*w);
            # each reported Fraction x/y is compared as x*den*w = n*y, A(E)/S(E) as a pair of them
            at = {label: a * q + b * p for label, (a, b) in ints.items()}
            (a_n, a_d), (s_n, s_d) = rep.a_e.as_integer_ratio(), rep.s_e.as_integer_ratio()
            got = [(a_n * s_d, a_d * s_n), *(r.ratio.as_integer_ratio() for r in rep.rows),
                   rep.lower_bound.as_integer_ratio(), rep.upper_bound.as_integer_ratio()]
            want = [at["E"], *(at[r.label if r.label == "generic" else f"{r.variant}:{r.label}"] for r in rep.rows)]
            want += [min(at.values()), min([a * q + b * p for a, b in up_ints.values()])]
            dens = [den * w] * (len(want) - 1) + [up_den * w]
            add(f"report at l={lam1}", all(x * m == n * y for (x, y), n, m in zip(got, want, dens)),
                lambda: f"reported {[str(F(x, y)) for x, y in got]}, lines {[str(F(n, m)) for n, m in zip(want, dens)]}")

        if spec.lower_regime_hi is not None:
            # bound-only on [0, hi): the least lower line is 3/2 (delta >= 3/(2t)), and the least
            # upper line, concave minus it, lies above it at 0 and not below it at hi; on the integer
            # lines, a line (a, b) over den is 3/2 at 0 when 2a = 3*den
            hi = spec.lower_regime_hi
            hi_p, hi_q = hi.as_integer_ratio()
            low, up = _least(table, _ZERO, hi)
            ok = bool(low and up)
            if ok:
                (a, b), (c, e) = ints[low[0]], up_ints[up[0]]
                ok = 2 * a == 3 * den and b == 0 and 2 * c > 3 * up_den and 2 * (c * hi_q + e * hi_p) >= 3 * up_den * hi_q
            add("lower-bound regime", ok,
                lambda: f"least lines on [0, {hi}]: lower {_affine_str(_first(lower, low))}, "
                        f"upper {_affine_str(_first(upper, up))}, stated lower 3/2")

        if row.lo == 0:
            low, up = _least(table, _ZERO, _ZERO)
            add("normalization at l=0", ints[low[0]][0] == 3 * den and up_ints[up[0]][0] == 3 * up_den,
                lambda: f"least lines at 0: lower {_affine_str(_first(lower, low))}, "
                        f"upper {_affine_str(_first(upper, up))}; delta(0) = 1 needs 3")
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
    Each id must be a key of the mapping in use: a str is refused with
    TypeError and a missing id with catalog.UnknownCase (catalog._case_ids),
    so no id passes unchecked.
    """
    cat = CASES if catalog is None else catalog
    ids = _case_ids(cat, case_ids)
    viol = validate_catalog(cat, ids)
    checks = [Check("catalog", "structural validation", not viol, "; ".join(viol))]
    specs = sorted(cat.values() if ids is None else [cat[case_id] for case_id in ids], key=_ORDER)
    references: dict[SurfaceModel, _Reference] = {}
    for spec in specs:
        ref = references.get(spec.model)
        if ref is None:
            ref = references[spec.model] = _reference(spec.model)
        for d in spec.degrees:
            checks.extend(verify_case(spec, d, ref))
    if case_ids is None:
        checks.extend(verify_threefold_section())
    return checks, all(map(_OK, checks))


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
