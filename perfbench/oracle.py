"""Independent output oracle for the logfano benchmark.

Everything here is plain ``fractions`` arithmetic over data transcribed from
the paper: the main table of closed forms with their validity intervals, the
certified lower bound 3/(2(3 - d*lambda)) on the small-lambda regimes, and the
corollary values of the threefold bounds.  No logfano code is imported and no
field the engine reports about itself (``matches_expected``, ``match``,
``k_stable_bound``) is trusted.  Each ``check_*`` function returns ``None``
for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

F = Fraction

# (case id, degree d, validity lo, validity hi, delta numerator, delta
# denominator, end of the lower-bound regime or None).  Polynomials in lambda
# are coefficient tuples, constant term first.
ROWS = (
    ('line_component_smooth_point', 1, '0', '1', (3, -3), (3, -1), None),
    ('line_component_smooth_point', 2, '0', '1', (3, -3), (3, -2), None),
    ('line_component_smooth_point', 3, '0', '1', (3, -3), (3, -3), None),
    ('line_component_smooth_point', 4, '0', '3/4', (3, -3), (3, -4), None),
    ('smooth_conic', 2, '0', '3/4', (1,), (1,), None),
    ('smooth_cubic_tangent2', 3, '0', '3/4', (3, -2), (3, -3), None),
    ('smooth_cubic_flex', 3, '0', '8/9', (4, -3), (4, -4), None),
    ('smooth_quartic_tangent2', 4, '0', '3/4', (3, -2), (3, -4), None),
    ('smooth_quartic_flex', 4, '0', '3/4', (12, -9), (12, -16), None),
    ('smooth_quartic_hyperflex', 4, '0', '3/4', (15, -12), (15, -20), None),
    ('A1', 2, '0', '1', (3, -3), (3, -2), None),
    ('A1', 3, '0', '1', (3, -3), (3, -3), None),
    ('A1', 4, '0', '3/4', (3, -3), (3, -4), None),
    ('A2', 3, '0', '5/6', (5, -6), (5, -5), None),
    ('A2', 4, '0', '3/4', (15, -18), (15, -20), None),
    ('A3', 3, '0', '3/4', (3, -4), (3, -3), None),
    ('A3', 4, '0', '3/4', (3, -4), (3, -4), None),
    ('A4', 4, '3/8', '7/10', (42, -60), (39, -52), '3/8'),
    ('A5', 4, '3/8', '2/3', (24, -36), (21, -28), '3/8'),
    ('A5_line_in_C', 4, '0', '2/3', (12, -18), (12, -16), None),
    ('A6', 4, '3/8', '1/2', (18, -28), (15, -20), '3/8'),
    ('A7', 4, '3/8', '5/8', (15, -24), (12, -16), '3/8'),
    ('D4', 3, '0', '2/3', (2, -3), (2, -2), None),
    ('D4', 4, '0', '2/3', (6, -9), (6, -8), None),
    ('D5', 4, '0', '5/8', (15, -24), (15, -20), None),
    ('D6', 4, '0', '3/5', (3, -5), (3, -4), None),
    ('E6', 4, '0', '7/12', (21, -36), (21, -28), None),
    ('E7', 4, '0', '5/9', (15, -27), (15, -20), None),
    ('four_concurrent_lines', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('double_line', 2, '0', '1/2', (3, -6), (3, -2), None),
    ('double_line_plus_line_smooth', 3, '0', '1', (1,), (1,), None),
    ('double_line_plus_line_point_on_double', 3, '0', '1/2', (3, -6), (3, -3), None),
    ('double_line_plus_line_singular', 3, '0', '1/2', (3, -6), (3, -3), None),
    ('triple_line', 3, '0', '1/3', (3, -9), (3, -3), None),
    ('double_conic', 4, '0', '3/8', (1,), (1,), None),
    ('conic_double_chord_on_conic', 4, '0', '3/4', (3, -2), (3, -4), None),
    ('conic_double_chord_on_chord', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('conic_double_chord_node', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('conic_double_tangent_on_conic', 4, '0', '3/4', (3, -2), (3, -4), None),
    ('conic_double_tangent_on_line', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('conic_double_tangent_tangency', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('double_line_two_lines_general_smooth', 4, '0', '3/4', (3, -3), (3, -4), None),
    ('double_line_two_lines_general_node', 4, '0', '3/4', (3, -3), (3, -4), None),
    ('double_line_two_lines_general_on_double', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('double_line_two_lines_general_singular', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('double_line_two_lines_concurrent_smooth', 4, '0', '3/4', (3, -3), (3, -4), None),
    ('double_line_two_lines_concurrent_on_double', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('double_line_two_lines_concurrent_center', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('two_double_lines_on_line', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('two_double_lines_node', 4, '0', '1/2', (3, -6), (3, -4), None),
    ('triple_line_plus_line_smooth', 4, '0', '3/4', (3, -3), (3, -4), None),
    ('triple_line_plus_line_on_triple', 4, '0', '1/3', (3, -9), (3, -4), None),
    ('triple_line_plus_line_singular', 4, '0', '1/3', (3, -9), (3, -4), None),
    ('quadruple_line', 4, '0', '1/4', (3, -12), (3, -4), None),
)

ROW = {(case, d): (F(lo), F(hi), num, den, None if low is None else F(low)) for case, d, lo, hi, num, den, low in ROWS}
CASE_IDS = tuple(dict.fromkeys(case for case, *_ in ROWS))

# The threefold corollaries: (name, kind, s, m, lambda, tangent-cone case,
# cone degree, stated bound or None).  Every bound certifies K-stability (>= 1).
COROLLARIES = (
    ("cubic surface, smooth point", "smooth", 3, None, F(2, 3), "smooth_cubic_tangent2", 3, None),
    ("cubic surface, node", "blowup", 3, 2, F(2, 3), "smooth_conic", 2, None),
    ("quartic double solid, smooth point", "smooth", 4, None, F(1, 2), "smooth_quartic_tangent2", 4, None),
    ("quartic double solid, node", "blowup", 4, 2, F(1, 2), "smooth_conic", 2, F(4, 3)),
    ("quartic double solid, A_n (n>=2) point", "blowup", 4, 2, F(1, 2), "A1", 2, None),
    ("quartic double solid, ordinary triple point", "blowup", 4, 3, F(1, 2), "smooth_cubic_flex", 3, None),
    ("quintic surface, node", "blowup", 5, 2, F(1, 2), "smooth_conic", 2, None),
    ("quintic surface, A_n (n>=2) point", "blowup", 5, 2, F(1, 2), "A1", 2, None),
    ("quintic surface, ordinary triple point", "blowup", 5, 3, F(1, 2), "smooth_cubic_flex", 3, None),
    ("sextic double solid, node", "blowup", 6, 2, F(1, 2), "smooth_conic", 2, None),
    ("sextic double solid, A_n (n>=2) point", "blowup", 6, 2, F(1, 2), "A1", 2, None),
    ("sextic double solid, ordinary triple point", "blowup", 6, 3, F(1, 2), "smooth_cubic_flex", 3, None),
    ("sextic double solid, ordinary quadruple point", "blowup", 6, 4, F(1, 2), "smooth_quartic_flex", 4, None),
    ("quadric threefold section, node", "quadric", None, 2, F(2, 3), "smooth_conic", 2, F(20, 19)),
)

THREEFOLD_SECTION_CHECKS = 15  # 3 volume identities at 5 sample values of lambda


def _poly(coeffs, x: Fraction) -> Fraction:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def certified_regions(case: str, d: int) -> list[tuple[Fraction, Fraction, bool]]:
    """Intervals (lo, hi, hi_included) of lambda on which delta is certified:
    the closed validity interval minus lambda = 3/d, and [0, lower regime end)."""
    lo, hi, _, _, low = ROW[case, d]
    regions = [(lo, hi, hi * d < 3)]
    if low is not None:
        regions.append((F(0), low, False))
    return regions


def expected_delta(case: str, d: int, lam: Fraction) -> tuple[Fraction, bool]:
    """(certified value, exact) at lambda; raises ValueError outside the certified regions."""
    lo, hi, num, den, low = ROW[case, d]
    if lo <= lam <= hi and lam * d < 3:
        return _poly(num, lam) / _poly(den, lam), True
    if low is not None and 0 <= lam < low:
        return F(3, 2) / (3 - d * lam), False
    raise ValueError(f"{case}/d={d}: lambda={lam} is outside the certified regions")


def _delta_mismatch(case, d, lam, value, exact) -> str | None:
    want, want_exact = expected_delta(case, d, lam)
    if exact != want_exact or value != want:
        return f"{case}/d={d} at {lam}: got {value} (exact={exact}), want {want} (exact={want_exact})"
    return None


def check_delta_report(op, rep) -> str | None:
    """``op`` = ("delta", case, d, lambda); ``rep`` a DeltaReport."""
    _, case, d, lam = op
    if rep.lam != lam or rep.d != d or rep.case_id != case:
        return f"report is for {rep.case_id}/d={rep.d} at {rep.lam}, asked {case}/d={d} at {lam}"
    if rep.exact and rep.upper_bound != rep.lower_bound:
        return f"{case}/d={d} at {lam}: exact report with lower {rep.lower_bound} != upper {rep.upper_bound}"
    return _delta_mismatch(case, d, lam, rep.lower_bound, rep.exact)


def check_threefold(op, delta2d, exact2d, bound) -> str | None:
    """``op`` = ("threefold", index into COROLLARIES)."""
    name, _, _, _, lam, cone, deg, stated = COROLLARIES[op[1]]
    bad = _delta_mismatch(cone, deg, lam, delta2d, exact2d)
    if bad:
        return f"{name}: tangent cone {bad}"
    if bound < 1:
        return f"{name}: bound {bound} < 1"
    if stated is not None and bound != stated:
        return f"{name}: bound {bound}, stated {stated}"
    return None


def check_corollary_suite(results) -> str | None:
    by_name = {r.config.name: r for r in results}
    if len(results) != len(COROLLARIES) or set(by_name) != {c[0] for c in COROLLARIES}:
        return f"corollary suite has {len(results)} configurations, want {len(COROLLARIES)}"
    for index, config in enumerate(COROLLARIES):
        r = by_name[config[0]]
        bad = check_threefold(("threefold", index), r.delta2d, r.delta2d_exact, r.bound)
        if bad:
            return bad
    return None


def check_verify(op, checks, ok) -> str | None:
    """A genuine case must pass every check; an injected fault must be caught."""
    if op[0] == "fault":
        return None if not ok else f"fault {op[1:]} went undetected ({len(checks)} checks passed)"
    bad = [c for c in checks if not c.ok]
    if not ok or bad:
        detail = f", first {bad[0].name}: {bad[0].detail}" if bad else ""
        return f"{op}: {len(bad)} of {len(checks)} checks failed{detail}"
    if op[0] == "threefold_section" and len(checks) != THREEFOLD_SECTION_CHECKS:
        return f"{op}: {len(checks)} checks ran, want {THREEFOLD_SECTION_CHECKS}"
    if op[0] == "case" and len(checks) < 2:
        return f"{op}: only {len(checks)} checks ran"
    return None


# ---------------------------------------------------------------------------
# Command-line records
# ---------------------------------------------------------------------------


def eval_formula(text: str, lam: Fraction) -> Fraction:
    """Evaluate a displayed closed form such as ``(15-18λ)/(15-20λ)`` at lambda.

    Grammar: sums of terms; a term is a product of factors joined by ``/`` or
    juxtaposition (``3λ``); a factor is an integer, ``λ`` with an optional
    ``^k``, or a parenthesised sum.
    """
    pos = 0

    def peek() -> str:
        return text[pos] if pos < len(text) else ""

    def number() -> Fraction:
        nonlocal pos
        start = pos
        while peek().isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"bad formula {text!r} at {pos}")
        return F(int(text[start:pos]))

    def factor() -> Fraction:
        nonlocal pos
        ch = peek()
        if ch == "(":
            pos += 1
            value = expr()
            if peek() != ")":
                raise ValueError(f"unbalanced formula {text!r}")
            pos += 1
            return value
        if ch == "λ":
            pos += 1
            if peek() == "^":
                pos += 1
                return lam ** int(number())
            return lam
        return number()

    def term() -> Fraction:
        nonlocal pos
        value = factor()
        while peek() in ("/", "λ", "("):
            if peek() == "/":
                pos += 1
                value /= factor()
            else:
                value *= factor()
        return value

    def expr() -> Fraction:
        nonlocal pos
        sign = 1
        if peek() == "-":
            pos += 1
            sign = -1
        value = sign * term()
        while peek() in ("+", "-"):
            sign = 1 if peek() == "+" else -1
            pos += 1
            value += sign * term()
        return value

    value = expr()
    if pos != len(text):
        raise ValueError(f"trailing text in formula {text!r}")
    return value


def _formula_mismatch(case, d, text) -> str | None:
    lo, hi, num, den, _ = ROW[case, d]
    for k in (1, 2, 3):
        lam = lo + (hi - lo) * F(k, 4)
        want = _poly(num, lam) / _poly(den, lam)
        if eval_formula(text, lam) != want:
            return f"{case}/d={d}: closed form {text!r} gives {eval_formula(text, lam)} at {lam}, want {want}"
    return None


def check_cli(op, code: int, stdout: str) -> str | None:
    """Exit code and parsed ``--format json`` records of one CLI process."""
    if code != 0:
        return f"{op}: exit code {code}"
    try:
        records = json.loads(stdout)["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"{op}: unparsable output ({exc})"
    kind = op[0]
    if kind == "delta":
        _, case, d, lam = op
        if len(records) != 1:
            return f"{op}: {len(records)} records"
        rec = records[0]
        if (rec["case"], rec["d"], F(rec["lambda"])) != (case, d, lam):
            return f"{op}: record is for {rec['case']}/d={rec['d']} at {rec['lambda']}"
        return _delta_mismatch(case, d, lam, F(rec["delta"]), rec["exact"])
    if kind == "scan":
        _, case, d, lo, hi, samples = op
        if len(records) != samples:
            return f"{op}: {len(records)} records, want {samples}"
        for k, rec in enumerate(records):
            lam = lo + (hi - lo) * F(k, samples - 1)
            if F(rec["lambda"]) != lam:
                return f"{op}: record {k} at lambda {rec['lambda']}, want {lam}"
            bad = _delta_mismatch(case, d, lam, F(rec["delta"]), rec["exact"])
            if bad:
                return bad
        return None
    if kind == "closed-form":
        _, case, d = op
        if len(records) != 1:
            return f"{op}: {len(records)} records"
        return _formula_mismatch(case, d, records[0]["delta"])
    if kind == "threefold":
        if len(records) != 1:
            return f"{op}: {len(records)} records"
        rec = records[0]
        lam = COROLLARIES[op[1]][4]
        if F(rec["lambda"]) != lam:
            return f"{op}: record at lambda {rec['lambda']}, want {lam}"
        exact2d = "lower bound" not in rec["note"]
        return check_threefold(op, F(rec["delta2d"]), exact2d, F(rec["bound"]))
    if kind == "table":
        if len(records) != len(ROWS):
            return f"table has {len(records)} rows, want {len(ROWS)}"
        for rec in records:
            key = (rec["case"], rec["d"])
            if key not in ROW:
                return f"table row {key} is not in the paper's table"
            lo, hi = ROW[key][:2]
            if not rec["validity"].startswith(f"[{lo},{hi}]"):
                return f"table row {key}: validity {rec['validity']!r}, want [{lo},{hi}]"
            bad = _formula_mismatch(*key, rec["delta"])
            if bad:
                return bad
        return None
    if kind == "list":
        if len(records) != len(CASE_IDS):
            return f"list has {len(records)} cases, want {len(CASE_IDS)}"
        for rec in records:
            for row in rec["rows"]:
                key = (rec["id"], row["d"])
                if key not in ROW:
                    return f"list row {key} is not in the paper's table"
                lo, hi, num, den, _ = ROW[key]
                got = (F(row["lo"]), F(row["hi"]), tuple(F(c) for c in row["delta_num"]), tuple(F(c) for c in row["delta_den"]))
                if got != (lo, hi, tuple(map(F, num)), tuple(map(F, den))):
                    return f"list row {key}: {got} differs from the paper's table"
        return None
    raise ValueError(f"unknown CLI operation {kind!r}")
