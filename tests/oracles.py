"""Reference computations for the tests, kept apart from the engine they check.

It imports nothing beyond logfano and the standard library, so that
``python tests/test_golden.py`` runs without the test extras.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

from logfano.catalog import CASES, CaseSpec, _affine_str, build_case, check_lambda
from logfano.delta import DeltaReport, Lines, PointRow, RatioTable, _least, _minimizer_names
from logfano.exact import PiecewisePoly, Poly, RationalFunction, integrate_piecewise, is_negative_definite
from logfano.surface import (
    DivisorExpr,
    SurfaceModel,
    ZariskiPieces,
    _integer_divisor,
    pair,
    pair_curve,
    zariski_decompose,
)
from logfano.verify import verify_all


def poly_family(model: SurfaceModel, t) -> DivisorExpr:
    """t*H - v*E as a DivisorExpr of Polys: the family that surface.flag_family gives as an integer row."""
    return DivisorExpr.build(model, Poly.const(t), {"E": Poly.affine(0, -1)})


def difference(a: DivisorExpr, b: DivisorExpr) -> DivisorExpr:
    """a - b, coefficient by coefficient."""
    assert a.model == b.model
    return DivisorExpr(a.model, a.ambient - b.ambient, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def divisor_expr(model: SurfaceModel, d) -> DivisorExpr:
    """The DivisorExpr (c + s*v)/den of an integer row (c, s, den): one Fraction per coefficient."""
    c, s, den = d
    polys = [Poly.affine(F(a, den), F(b, den)) for a, b in zip(c, s)]
    return DivisorExpr(model, polys[0], tuple(polys[1:]))


def exprs(z: ZariskiPieces) -> ZariskiPieces:
    """z with each P and N, an integer row of the engine, as a DivisorExpr of Polys over Fractions.

    Two such views are equal exactly when the pieces are equal as values, whatever
    the rows' denominators; the Poly oracles below read the pieces through it.
    """
    return dataclasses.replace(
        z,
        positives=tuple(divisor_expr(z.model, p) for p in z.positives),
        negatives=tuple(divisor_expr(z.model, n) for n in z.negatives),
    )


def rows(z: ZariskiPieces) -> ZariskiPieces:
    """The inverse view: pieces given as DivisorExprs (hand-built or changed through exprs) as integer
    rows, by surface._integer_divisor, which refuses a piece that is not affine in v."""
    return dataclasses.replace(
        z, positives=tuple(map(_integer_divisor, z.positives)), negatives=tuple(map(_integer_divisor, z.negatives))
    )


def flag_integrand(spec: CaseSpec, d: int, lam, point: str = "generic") -> PiecewisePoly:
    """h(v) of S(W;O) for a point label, from a decomposition made at this lambda.

    h is (P.E)^2/2 per piece, plus (P.E)*(N.E) at the point E.L of a model
    with a companion curve L: "EL", or a label first declared "on_L".  The engine instead scales one
    t = 1 decomposition by t and reads its ratio table.
    """
    model, factory, _ = build_case(spec.id, d, {spec.id: spec})
    lam = F(lam)
    t = 3 - d * lam
    pieces = exprs(zariski_decompose(model, factory(lam)))
    assert pieces.tau == t * spec.tau_factor
    located: dict[str, str] = {}
    for var in spec.variants:
        for pt in var.points:
            located.setdefault(pt.label, pt.location)
    on_l = "L" in model.curves and (point == "EL" or located.get(point) == "on_L")
    integrands = []
    for p_expr, n_expr in zip(pieces.positives, pieces.negatives):
        pe = pair_curve(model, p_expr, "E")
        h = pe * pe * F(1, 2)
        integrands.append(h + pe * pair_curve(model, n_expr, "E") if on_l else h)
    return PiecewisePoly(pieces.breakpoints, tuple(integrands))


# The Poly versions of the decomposition's checks, which surface.invariant_violations,
# delta.integrated_s_invariants and verify._is_scaled run on integer rows.  Each takes
# pieces whose P and N are DivisorExprs, as exprs(z) gives them.


def poly_volume(z: ZariskiPieces) -> PiecewisePoly:
    """surface.volume_function by pair: (P . P) per piece."""
    return PiecewisePoly(z.breakpoints, tuple(pair(z.model, p, p) for p in z.positives))


def poly_invariant_violations(z: ZariskiPieces) -> list[str]:
    """surface.invariant_violations with every pairing a Poly over Fractions, evaluated at the piece ends."""
    problems: list[str] = []
    model = z.model
    vol = poly_volume(z)
    for i, (p, n, support, volume) in enumerate(zip(z.positives, z.negatives, z.supports, vol.pieces)):
        lo, hi = z.breakpoints[i], z.breakpoints[i + 1]
        pairings = {name: pair_curve(model, p, name) for name in model.curves}
        for name in support:
            if not pairings[name].is_zero:
                problems.append(f"piece {i}: (P . {name}) not identically zero on support")
        for name, f in pairings.items():
            if f(lo) < 0 or f(hi) < 0:
                problems.append(f"piece {i}: (P . {name}) negative on [{lo}, {hi}]")
        for name in support:
            c = n.coeff(name)
            if c(lo) < 0 or c(hi) < 0:
                problems.append(f"piece {i}: negative-part coefficient of {name} below zero")
            if c(hi) < c(lo):
                problems.append(f"piece {i}: negative-part coefficient of {name} decreasing")
        if support:
            idx = [model.index(name) for name in support]
            if not is_negative_definite([[model.gram[a][b] for b in idx] for a in idx]):
                problems.append(f"piece {i}: support Gram not negative definite")
        slope = Poly.affine(volume.coeff(1), 2 * volume.coeff(2))
        if slope(lo) > 0 or slope(hi) > 0:
            problems.append(f"piece {i}: volume increasing on [{lo}, {hi}]")
    for i in range(1, len(z.breakpoints) - 1):
        b = z.breakpoints[i]
        if vol.pieces[i - 1](b) != vol.pieces[i](b):
            problems.append(f"volume discontinuous at {b}")
    if vol.pieces[-1](z.tau) != 0:
        problems.append("volume nonzero at tau")
    return problems


def poly_s_invariants(pieces: ZariskiPieces) -> tuple[F, F, F | None]:
    """delta.integrated_s_invariants from Poly integrands: the volume, and h(v) = (P.E)^2/2, plus
    (P.E)*(N.E) at the crossing with L, each integrated by integrate_piecewise."""
    model = pieces.model
    on_l = "L" in model.curves
    generic, at_l = [], []
    for p_expr, n_expr in zip(pieces.positives, pieces.negatives):
        pe = pair_curve(model, p_expr, "E")
        h = pe * pe * F(1, 2)
        generic.append(h)
        if on_l:
            at_l.append(h + pe * pair_curve(model, n_expr, "E"))
    s_on_l = 2 * integrate_piecewise(PiecewisePoly(pieces.breakpoints, tuple(at_l))) if on_l else None
    s_generic = 2 * integrate_piecewise(PiecewisePoly(pieces.breakpoints, tuple(generic)))
    return integrate_piecewise(poly_volume(pieces)), s_generic, s_on_l


def scaled(z: ZariskiPieces, s: F) -> ZariskiPieces:
    """z with t and v scaled by s: breakpoints times s, c_j*v^j of P and N becomes c_j*s^(1-j)*v^j."""

    def expr(e: DivisorExpr) -> DivisorExpr:
        polys = [Poly(tuple(c * s ** (1 - j) for j, c in enumerate(p.coeffs))) for p in (e.ambient, *e.coeffs)]
        return DivisorExpr(e.model, polys[0], tuple(polys[1:]))

    breakpoints = tuple(b * s for b in z.breakpoints)
    return ZariskiPieces(z.model, breakpoints, tuple(map(expr, z.positives)), tuple(map(expr, z.negatives)), z.supports)


# The Fraction versions of checks that catalog.validate_case and verify.verify_case make on integers.


def point_problems(spec: CaseSpec) -> list[str]:
    """catalog.validate_case's tests of each point's different coefficient a + b*lambda, in Fractions:
    0 <= value < 1 at the least row start and 0 <= value <= 1 at the greatest row end, and, for a
    quotient point of order n, a = 1 - 1/n."""
    lo = min(row.lo for row in spec.rows)
    hi = max(row.hi for row in spec.rows)
    problems = []
    for var in spec.variants:
        for pt in var.points:
            a, b = pt.coeff
            v_lo, v_hi = a + b * lo, a + b * hi
            if v_lo < 0 or v_hi < 0 or v_lo >= 1 or v_hi > 1:
                problems.append(f"{spec.id}/{var.name}: different coefficient {_affine_str(pt.coeff)} out of [0,1) on validity")
            if pt.orbifold_order is not None and a != 1 - F(1, pt.orbifold_order):
                problems.append(f"{spec.id}/{var.name}: point {pt.label} coefficient {a} != 1 - 1/{pt.orbifold_order}")
    return problems


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


def fraction_lines(lines: Lines) -> dict[str, tuple[F, F]]:
    """Each label's line as a Fraction pair (a, b), by Lines.line."""
    return {label: lines.line(label) for label in lines.ints}


def least_lines(table: RatioTable, lo, hi) -> tuple[tuple[F, F] | None, tuple[F, F] | None, tuple[str, ...]]:
    """(least lower line, least upper line, minimizer names) of a ratio table on [lo, hi], read from
    delta._least: a line is least when it is least at both ends, None when no line is; the minimizers
    name every least lower line."""
    low, up = _least(table, lo, hi)
    return table.lower.line(low[0]) if low else None, table.upper.line(up[0]) if up else None, _minimizer_names(low)


def report_lines(rep: DeltaReport, table: RatioTable, lam, d: int) -> tuple[list[F], list[F]]:
    """(reported, lines) of verify's report check, in Fractions: the report's A(E)/S(E), per-point
    ratios, lower and upper bound, and the values there of the ratio lines over t = 3 - d*lambda."""
    t = 3 - d * lam
    at = {label: (a + b * lam) / t for label, (a, b) in fraction_lines(table.lower).items()}
    got = [rep.a_e / rep.s_e, *(r.ratio for r in rep.rows), rep.lower_bound, rep.upper_bound]
    want = [at["E"], *(at[r.label if r.label == "generic" else f"{r.variant}:{r.label}"] for r in rep.rows)]
    want += [min(at.values()), min((a + b * lam) / t for a, b in fraction_lines(table.upper).values())]
    return got, want


def fraction_delta_point(case: str | CaseSpec, d: int, lam) -> DeltaReport:
    """delta.delta_point in Fraction arithmetic: each A = a + b*lambda, S = s*t and ratio A/S by
    Fraction operators, the bounds as minima of Fractions, and the stated closed form evaluated as a
    RationalFunction; the tau check, in Fractions too, comes between the lambda and the lct checks."""
    spec = case if isinstance(case, CaseSpec) else CASES[case]
    row_spec = spec.row(d)
    lam = check_lambda(d, lam)
    t = 3 - d * lam
    table = spec.ratio_table
    if spec.tau_factor != table.tau:
        raise ValueError(f"stated tau {t * spec.tau_factor} != computed pseudo-effective threshold {t * table.tau}")
    if table.lct is not None and lam > table.lct:
        raise ValueError(f"lambda {lam} past the log canonical threshold {table.lct} of case {spec.id}")
    e = table.e
    a_e, s_e = e.a + e.b * lam, e.s * t
    ratio_e = a_e / s_e
    rows = []
    for variant, point, ratio in table.rows:
        a, s = ratio.a + ratio.b * lam, ratio.s * t
        rows.append(PointRow(variant, point, a, s, a / s))
    lower = min(ratio_e, *(row.ratio for row in rows))
    upper = min([ratio_e] + [(c.a + c.b * lam) / (c.s * t) for c in table.curves])
    if lower > upper:
        raise AssertionError(f"{spec.id}: lower bound {lower} exceeds upper bound {upper}")
    exact = lower == upper
    least = ["E"] if ratio_e == lower else []
    minimizers = _minimizer_names(least + [row.label for row in rows if row.ratio == lower])

    validity_ok = row_spec.lo <= lam <= row_spec.hi
    expected = None
    matches = None
    note = ""
    if validity_ok:
        expected = RationalFunction.from_coeffs(row_spec.delta_num, row_spec.delta_den)(lam)
        if exact:
            matches = upper == expected
            if not matches:
                note = f"computed {upper} differs from stated closed form {expected}"
        else:
            matches = False
            note = "not exact inside the stated validity interval"
    elif not exact:
        note = "lower bound only"
    return DeltaReport(spec.id, d, lam, a_e, s_e, tuple(rows), upper, lower, exact, minimizers, validity_ok,
                       expected, matches, note)
