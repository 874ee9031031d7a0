"""Command-line interface.

Subcommands: list, delta, scan, closed-form, verify, table, threefold.
Rationals are read and written exclusively in the canonical "p/q" form; no
floating-point input path exists.  Exit codes: 0 success, 1 verification
mismatch, 2 invalid input, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import threefold, verify
from .catalog import (
    CASES,
    DegreeNotAdmissible,
    UnknownCase,
    get_case,
    list_cases,
)
from .delta import (
    DeltaReport,
    NotExactOnInterval,
    delta_closed_form,
    delta_point,
    s_curve_on_plane,
)
from .exact import rat_str

SCHEMA_VERSION = 1

# ASCII digits only: \d, int() and Fraction accept any Unicode digit, and int() also "_"
_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


class InputError(ValueError):
    """Invalid command-line input; reported on stderr with exit code 2."""


def parse_integer(text: str) -> int:
    """argparse type of the integer options; a refused value exits 2 with argparse's message."""
    if not _INTEGER_RE.match(text.strip()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text.strip()):
        raise InputError(f"expected an exact rational 'p/q', got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# Record rendering
# ---------------------------------------------------------------------------


# the formats _render writes; argparse refuses any other (exit 2)
_FORMATS = ["json", "csv", "md", "latex", "plain"]


def _render(records: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION, "records": records}
        json.dump(payload, out, indent=2)
        out.write("\n")
        return
    rows = [[str(rec.get(c, "")) for c in columns] for rec in records]
    if fmt == "csv":
        import csv as _csv

        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    elif fmt == "md":
        out.write("| " + " | ".join(columns) + " |\n")
        out.write("|" + "|".join(" --- " for _ in columns) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")
    elif fmt == "latex":
        out.write("\\begin{tabular}{" + "l" * len(columns) + "}\n\\hline\n")
        out.write(" & ".join(columns) + " \\\\\n\\hline\n")
        for row in rows:
            out.write(" & ".join(cell.replace("λ", "$\\lambda$") for cell in row) + " \\\\\n")
        out.write("\\hline\n\\end{tabular}\n")
    else:  # "plain"
        widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c) for i, c in enumerate(columns)]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _report_record(rep: DeltaReport) -> dict:
    # the multiplicity clause for an l-fold line component, reported alongside
    # the case-specific value whenever the configuration carries one
    spec = get_case(rep.case_id)
    clause = ""
    for cb in spec.extra_upper_bounds:
        if cb.e == 1 and cb.l >= 2:
            s_b, a_b = s_curve_on_plane(rep.d, rep.lam, cb.e, cb.l)
            clause = rat_str(a_b / s_b)
    return {
        "case": rep.case_id,
        "d": rep.d,
        "lambda": rat_str(rep.lam),
        "delta": rat_str(rep.value),
        "exact": rep.exact,
        "lower": rat_str(rep.lower_bound),
        "upper": rat_str(rep.upper_bound),
        "minimizer": ";".join(rep.minimizers),
        "validity": rep.validity_ok,
        "expected": "" if rep.expected is None else rat_str(rep.expected),
        "match": "" if rep.matches_expected is None else rep.matches_expected,
        "line_clause": clause,
        "note": rep.note,
    }


_REPORT_COLUMNS = [
    "case", "d", "lambda", "delta", "exact", "lower", "upper",
    "minimizer", "validity", "expected", "match", "line_clause", "note",
]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _case_payload(spec) -> dict:
    """Full JSON export of one catalog entry; rationals as canonical strings."""
    return {
        "id": spec.id,
        "label": spec.label,
        "order": spec.order,
        "degrees": list(spec.degrees),
        "curves": list(spec.model.curves),
        "gram": [[rat_str(x) for x in row] for row in spec.model.gram],
        "ambient_self": rat_str(spec.model.ambient_self),
        "ambient_pairings": [rat_str(x) for x in spec.model.ambient_pairings],
        "m_L": None if spec.m_L is None else rat_str(spec.m_L),
        "m_C": rat_str(spec.m_C),
        "k_E": rat_str(spec.k_E),
        "A": {"const": rat_str(spec.printed_A[0]), "lambda": rat_str(spec.printed_A[1])},
        "s_factor": rat_str(spec.s_factor),
        "tau_factor": rat_str(spec.tau_factor),
        "break_factors": [rat_str(b) for b in spec.break_factors],
        "variants": [
            {
                "name": var.name,
                "points": [
                    {
                        "label": pt.label,
                        "coeff": {"const": rat_str(pt.coeff[0]), "lambda": rat_str(pt.coeff[1])},
                        "location": pt.location,
                        "orbifold_order": pt.orbifold_order,
                    }
                    for pt in var.points
                ],
            }
            for var in spec.variants
        ],
        "extra_upper_bounds": [{"e": cb.e, "l": rat_str(cb.l)} for cb in spec.extra_upper_bounds],
        "rows": [
            {
                "d": row.d,
                "lo": rat_str(row.lo),
                "hi": rat_str(row.hi),
                "delta": row.stated_form.format("λ"),
                "delta_num": [rat_str(c) for c in row.delta_num],
                "delta_den": [rat_str(c) for c in row.delta_den],
            }
            for row in spec.rows
        ],
        "minimizers": list(spec.minimizers),
        "lower_regime_hi": None if spec.lower_regime_hi is None else rat_str(spec.lower_regime_hi),
        "alias_of": spec.alias_of,
    }


def cmd_list(args, out) -> int:
    if args.format == "json":
        specs = sorted(CASES.values(), key=lambda s: s.order)
        json.dump({"schema_version": SCHEMA_VERSION, "records": [_case_payload(s) for s in specs]}, out, indent=2)
        out.write("\n")
        return 0
    records = []
    for case_id, label, degrees, validity in list_cases():
        records.append(
            {
                "case": case_id,
                "label": label,
                "degrees": ";".join(str(d) for d in degrees),
                "validity": ";".join(f"d={d}:[{rat_str(lo)},{rat_str(hi)}]" for d, lo, hi in validity),
            }
        )
    _render(records, ["case", "label", "degrees", "validity"], args.format, out)
    return 0


def _resolve_case_degree(case_id: str, d: int):
    spec = get_case(case_id)
    spec.row(d)  # DegreeNotAdmissible names the admissible degrees
    return spec


def cmd_delta(args, out) -> int:
    spec = _resolve_case_degree(args.case, args.degree)
    lam = parse_rational(args.lam)
    rep = delta_point(spec, args.degree, lam)
    record = _report_record(rep)
    if args.format == "plain":
        out.write(f"case {rep.case_id} (d={rep.d}) at lambda={rat_str(rep.lam)}\n")
        out.write(f"  A(E) = {rat_str(rep.a_e)}   S(E) = {rat_str(rep.s_e)}   A/S = {rat_str(rep.a_e / rep.s_e)}\n")
        for row in rep.rows:
            tag = f"{row.variant}:{row.label}" if len(spec.variants) > 1 else row.label
            out.write(f"  point {tag:24s} A = {rat_str(row.a_value):8s} S = {rat_str(row.s_value):8s} A/S = {rat_str(row.ratio)}\n")
        if rep.exact:
            out.write(f"  delta = {rat_str(rep.upper_bound)} (exact), minimizer {record['minimizer']}\n")
        else:
            out.write(f"  delta >= {rat_str(rep.lower_bound)} (lower bound only; upper bound {rat_str(rep.upper_bound)})\n")
        if rep.expected is not None:
            out.write(f"  stated closed form value: {rat_str(rep.expected)} (match: {rep.matches_expected})\n")
        if rep.note:
            out.write(f"  note: {rep.note}\n")
    else:
        _render([record], _REPORT_COLUMNS, args.format, out)
    return 0


def cmd_scan(args, out) -> int:
    spec = _resolve_case_degree(args.case, args.degree)
    lo, hi = parse_rational(args.start), parse_rational(args.stop)
    if lo >= hi:
        raise InputError("scan range must satisfy start < stop")
    if args.samples < 2:
        raise InputError("need at least 2 samples")
    lct = spec.ratio_table.lct
    records = []
    for k in range(args.samples):
        lam = lo + (hi - lo) * Fraction(k, args.samples - 1)
        if lam * args.degree >= 3:  # a negative lambda goes on to the domain check of delta_point
            note = "outside the log Fano range [0, 3/d)"
        elif lct is not None and lam > lct:
            note = f"past the log canonical threshold {rat_str(lct)}"
        else:
            records.append(_report_record(delta_point(spec, args.degree, lam)))
            continue
        records.append({**dict.fromkeys(_REPORT_COLUMNS, ""), "case": spec.id, "d": args.degree,
                        "lambda": rat_str(lam), "validity": False, "note": note})
    _render(records, _REPORT_COLUMNS, args.format, out)
    return 0


def cmd_closed_form(args, out) -> int:
    spec = _resolve_case_degree(args.case, args.degree)
    try:
        rf = delta_closed_form(spec, args.degree)
    except NotExactOnInterval as exc:  # a ValueError, but a mismatch rather than bad input
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    if rf.num_degree > args.num_deg or rf.den_degree > args.den_deg:
        raise InputError(f"derived form {rf.format('λ')} exceeds the degree bounds ({args.num_deg},{args.den_deg})")
    row = spec.row(args.degree)
    stated = row.stated_form
    record = {
        "case": spec.id,
        "d": args.degree,
        "delta": rf.format("λ"),
        "stated": stated.format("λ"),
        "match": rf == stated,
        "validity": f"[{rat_str(row.lo)},{rat_str(row.hi)}]",
    }
    _render([record], ["case", "d", "delta", "stated", "match", "validity"], args.format, out)
    return 0 if rf == stated else 1


def cmd_table(args, out) -> int:
    records = []
    rows = []
    for spec in CASES.values():
        for row in spec.rows:
            rows.append((row.d, spec.order, spec, row))
    for d, _, spec, row in sorted(rows, key=lambda r: (r[0], r[1])):
        records.append(
            {
                "case": spec.id,
                "label": spec.label,
                "d": d,
                "delta": row.stated_form.format("λ"),
                "validity": f"[{rat_str(row.lo)},{rat_str(row.hi)}]"
                + ("" if spec.lower_regime_hi is None else f" (>=3/(2(3-{d}λ)) on [0,{rat_str(spec.lower_regime_hi)}])"),
            }
        )
    _render(records, ["case", "label", "d", "delta", "validity"], args.format, out)
    return 0


# one record per check; its elapsed time is left out, so the output is deterministic
_VERIFY_COLUMNS = ["scope", "name", "ok", "detail"]


def cmd_verify(args, out) -> int:
    ids = None if args.all else [args.case]
    if ids is not None:
        get_case(ids[0])
    checks, ok = verify.verify_all(case_ids=ids)
    if args.format == "plain":
        for line in verify.summarize(checks):
            out.write(line + "\n")
        total = len(checks)
        failed = sum(1 for c in checks if not c.ok)
        out.write(f"{'OK' if ok else 'MISMATCH'}: {total - failed}/{total} checks passed\n")
    else:
        records = [{col: getattr(c, col) for col in _VERIFY_COLUMNS} for c in checks]
        _render(records, _VERIFY_COLUMNS, args.format, out)
    return 0 if ok else 1


def cmd_threefold(args, out) -> int:
    lam = parse_rational(args.lam)
    cone = get_case(args.cone)
    # CorollaryConfig refuses a degree the kind does not take or a missing one (ValueError,
    # exit 2); evaluate_corollary reads the cone at its degree: CaseSpec.row checks it
    config = threefold.CorollaryConfig(args.kind, args.kind, args.s, args.m, lam, cone.id)
    result = threefold.evaluate_corollary(config)
    notes = ["bound not strict"] if result.certifies and not result.strict else []
    if not result.delta2d_exact:
        notes.append("plane delta used as a lower bound")
    record = {
        "kind": args.kind,
        "s": "" if args.s is None else args.s,
        "m": "" if args.m is None else args.m,
        "lambda": rat_str(lam),
        "cone": cone.id,
        "delta2d": rat_str(result.delta2d),
        "bound": rat_str(result.bound),
        "k_stable_bound": "yes" if result.certifies else "no",
        "note": "; ".join(notes),
    }
    _render([record], ["kind", "s", "m", "lambda", "cone", "delta2d", "bound", "k_stable_bound", "note"], args.format, out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # --format is accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="logfano",
        description="Exact delta invariants of log Fano pairs (P^2, lambda*C_d), d <= 4.",
    )
    parser.add_argument("--format", choices=_FORMATS, default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate catalog cases", parents=[common])

    p = sub.add_parser("delta", help="evaluate the local delta invariant at one lambda", parents=[common])
    p.add_argument("--case", required=True)
    p.add_argument("--degree", type=parse_integer, required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="P/Q")

    p = sub.add_parser("scan", help="evaluate delta on an even grid of rational lambdas", parents=[common])
    p.add_argument("--case", required=True)
    p.add_argument("--degree", type=parse_integer, required=True)
    p.add_argument("--from", dest="start", required=True, metavar="P/Q")
    p.add_argument("--to", dest="stop", required=True, metavar="P/Q")
    p.add_argument("--samples", type=parse_integer, default=9)

    p = sub.add_parser("closed-form", help="derive the closed form of delta(lambda)", parents=[common])
    p.add_argument("--case", required=True)
    p.add_argument("--degree", type=parse_integer, required=True)
    p.add_argument("--num-deg", type=parse_integer, default=2, help="largest numerator degree accepted (exit 2 above it)")
    p.add_argument("--den-deg", type=parse_integer, default=2, help="largest denominator degree accepted (exit 2 above it)")

    p = sub.add_parser("verify", help="verify the engine against every stated result", parents=[common])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--case")

    sub.add_parser("table", help="emit the full delta table, one row per case and degree", parents=[common])

    p = sub.add_parser("threefold", help="threefold delta lower bounds from plane data", parents=[common])
    p.add_argument("kind", choices=list(threefold.KIND_DEGREES))
    p.add_argument("--s", type=parse_integer, default=None, help="surface degree in P^3")
    p.add_argument("--m", type=parse_integer, default=None, help="point multiplicity")
    p.add_argument("--lambda", dest="lam", required=True, metavar="P/Q")
    p.add_argument("--cone", required=True, help="catalog id of the section / tangent-cone curve")

    return parser


_COMMANDS = {
    "list": cmd_list,
    "delta": cmd_delta,
    "scan": cmd_scan,
    "closed-form": cmd_closed_form,
    "verify": cmd_verify,
    "table": cmd_table,
    "threefold": cmd_threefold,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    # argparse takes a value such as -1/5 for an option: pass "--lambda -1/5" on as "--lambda=-1/5"
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i][:1] == "-" and argv[i][1:2].isdigit() and argv[i - 1][:2] == "--" and "=" not in argv[i - 1]:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, out)
        if out is sys.stdout:
            out.flush()
        return code
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        # the reader closed the pipe: the interpreter's exit flush of stdout would raise again,
        # so it writes to os.devnull; 141 = 128 + SIGPIPE, the status of a writer a closed pipe stops
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (InputError, UnknownCase, DegreeNotAdmissible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
