"""CLI surface: formats, exit codes, round trips, verification."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import logfano
from logfano.catalog import CASES
from logfano.cli import main, parse_rational
from logfano.delta import NotExactOnInterval
from logfano.verify import Check, verify_all


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestParsing:
    def test_rational_only(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("2") == F(2)
        for bad in ("0.5", "1e-3", "3/4/5", "x"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @pytest.mark.parametrize("argv", [
        ["delta", "--case", "A2", "--degree", "4", "--lambda", "1/0"],
        ["scan", "--case", "A2", "--degree", "4", "--from", "0", "--to", "1/0"],
        ["threefold", "smooth", "--s", "3", "--lambda", "1/0", "--cone", "smooth_cubic_tangent2"],
    ], ids=["delta", "scan", "threefold"])
    def test_zero_denominator_is_invalid_input(self, capsys, argv):
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize("argv", [["--format", "xml", "list"], ["list", "--format", "xml"]],
                             ids=["before", "after"])
    def test_unknown_format_is_refused_by_argparse(self, capsys, argv):
        buf = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            main(argv, out=buf)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and buf.getvalue() == "" and captured.out == ""
        assert "invalid choice: 'xml'" in captured.err


class TestList:
    def test_plain_table(self):
        code, out = run(["list"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 1 + len(CASES)
        rows = [re.split(r"\s{2,}", line) for line in lines]
        assert rows[0] == ["case", "label", "degrees", "validity"]
        assert [row[0] for row in rows[1:]] == sorted(CASES, key=lambda case_id: CASES[case_id].order)
        validity = "d=1:[0,1];d=2:[0,1];d=3:[0,1];d=4:[0,3/4]"
        assert rows[1][1:] == ["smooth point on a line component", "1;2;3;4", validity]
        assert ["A7", "A7 singularity", "4", "d=4:[3/8,5/8]"] in rows
        # each column is padded to its widest cell, two spaces apart
        width = max(map(len, CASES))
        assert all(line[width : width + 2] == "  " and line[width + 2] != " " for line in lines)

    def test_json_catalog(self):
        code, out = run(["list", "--format", "json"])
        payload = json.loads(out)
        records = {rec["id"]: rec for rec in payload["records"]}
        assert code == 0 and payload["schema_version"] == 1
        assert list(records) == sorted(CASES, key=lambda case_id: CASES[case_id].order)
        assert records["A2"] == {
            "id": "A2", "label": "cusp (A2)", "order": 9, "degrees": [3, 4], "curves": ["E", "L"],
            "gram": [["-1/6", "1/2"], ["1/2", "-1/2"]], "ambient_self": "1", "ambient_pairings": ["0", "1"],
            "m_L": "3", "m_C": "6", "k_E": "4", "A": {"const": "5", "lambda": "-6"},
            "s_factor": "5/3", "tau_factor": "3", "break_factors": ["2"],
            "variants": [{"name": "default", "points": [
                {"label": "P1", "coeff": {"const": "2/3", "lambda": "0"}, "location": "isolated", "orbifold_order": 3},
                {"label": "P2", "coeff": {"const": "1/2", "lambda": "0"}, "location": "on_L", "orbifold_order": 2},
                {"label": "Q", "coeff": {"const": "0", "lambda": "1"}, "location": "on_C", "orbifold_order": None},
            ]}],
            "extra_upper_bounds": [],
            "rows": [
                {"d": 3, "lo": "0", "hi": "5/6", "delta": "(5-6λ)/(5-5λ)",
                 "delta_num": ["5", "-6"], "delta_den": ["5", "-5"]},
                {"d": 4, "lo": "0", "hi": "3/4", "delta": "(15-18λ)/(15-20λ)",
                 "delta_num": ["15", "-18"], "delta_den": ["15", "-20"]},
            ],
            "minimizers": ["E"], "lower_regime_hi": None, "alias_of": None,
        }
        assert records["double_line_plus_line_smooth"]["alias_of"] == "line_component_smooth_point"


class TestDelta:
    def test_plain_report(self):
        code, out = run(["delta", "--case", "A2", "--degree", "4", "--lambda", "1/2"])
        assert code == 0 and out == (
            "case A2 (d=4) at lambda=1/2\n"
            "  A(E) = 2   S(E) = 5/3   A/S = 6/5\n"
            "  point P1                       A = 1/3      S = 1/9      A/S = 3\n"
            "  point P2                       A = 1/2      S = 1/6      A/S = 3\n"
            "  point Q                        A = 1/2      S = 1/9      A/S = 9/2\n"
            "  point generic                  A = 1        S = 1/9      A/S = 9\n"
            "  delta = 6/5 (exact), minimizer E\n"
            "  stated closed form value: 6/5 (match: True)\n"
        )

    def test_plain_report_of_a_lower_bound_with_variants(self):
        code, out = run(["delta", "--case", "A3", "--degree", "4", "--lambda", "1/4"])
        assert code == 0 and "  point tangent_component:QL     A = 3/4      S = 1/3      A/S = 9/4\n" in out
        code, out = run(["delta", "--case", "A4", "--degree", "4", "--lambda", "1/4"])
        assert code == 0 and out.endswith(
            "  point generic                  A = 1        S = 1/6      A/S = 6\n"
            "  delta >= 3/4 (lower bound only; upper bound 27/26)\n"
            "  note: lower bound only\n"
        )

    def test_json_record(self):
        code, out = run(["delta", "--case", "A2", "--degree", "4", "--lambda", "1/2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        rec = payload["records"][0]
        assert rec["delta"] == "6/5" and rec["exact"] is True
        assert rec["minimizer"] == "E"
        # rationals round-trip through parse and render
        assert str(F(rec["delta"])) == rec["delta"]

    def test_lower_bound_note(self):
        code, out = run(["delta", "--case", "A4", "--degree", "4", "--lambda", "1/4", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0
        assert rec["delta"] == "3/4" and rec["exact"] is False
        assert "lower bound" in rec["note"]

    def test_out_of_range_rejected(self):
        for lam in ("7/8", "3/4", "-1/5"):
            code, _ = run(["delta", "--case", "A2", "--degree", "4", f"--lambda={lam}"])
            assert code == 2, lam

    def test_negative_lambda_reaches_domain_check(self, capsys):
        code, out = run(["delta", "--case", "A2", "--degree", "4", "--lambda", "-1/5"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: lambda -1/5 outside [0, 3/4)\n"

    def test_past_the_lct_refused(self, capsys):
        # this printed "delta = -10/13 (exact)" with exit 0
        code, out = run(["delta", "--case", "A4", "--degree", "4", "--lambda", "18/25"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: lambda 18/25 past the log canonical threshold 7/10 of case A4\n"
        code, out = run(["delta", "--case", "A4", "--degree", "4", "--lambda", "7/10", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["delta"] == "0" and rec["exact"] is True

    def test_lambda_zero_accepted(self):
        code, out = run(["delta", "--case", "A2", "--degree", "4", "--lambda", "0", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["delta"] == "1" and rec["exact"] is True
        code, out = run(["delta", "--case", "A4", "--degree", "4", "--lambda", "0", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["delta"] == "1/2" and rec["exact"] is False

    def test_unknown_case(self):
        code, _ = run(["delta", "--case", "Z9", "--degree", "4", "--lambda", "1/2"])
        assert code == 2

    def test_bad_degree(self):
        code, _ = run(["delta", "--case", "A2", "--degree", "2", "--lambda", "1/2"])
        assert code == 2

    def test_float_lambda_rejected(self):
        code, _ = run(["delta", "--case", "A2", "--degree", "4", "--lambda", "0.5"])
        assert code == 2


class TestScan:
    def test_flags_lower_regime(self):
        code, out = run(["scan", "--case", "A7", "--degree", "4", "--from", "0", "--to", "5/8",
                         "--samples", "6", "--format", "json"])
        assert code == 0
        recs = json.loads(out)["records"]
        assert len(recs) == 6
        below = [r for r in recs if F(r["lambda"]) < F(3, 8)][1:]  # lambda = 0 is exact
        assert below and all(r["exact"] is False for r in below)
        inside = [r for r in recs if F(3, 8) <= F(r["lambda"]) <= F(5, 8)]
        assert inside and all(r["exact"] is True and r["validity"] is True for r in inside)

    def test_lambda_zero_normalization_row(self):
        code, out = run(["scan", "--case", "A2", "--degree", "4", "--from", "0", "--to", "3/4",
                         "--samples", "4", "--format", "json"])
        recs = json.loads(out)["records"]
        assert recs[0]["lambda"] == "0" and recs[0]["delta"] == "1"
        assert recs[-1]["note"].startswith("outside")

    def test_marks_lambda_past_the_lct(self):
        code, out = run(["scan", "--case", "quadruple_line", "--degree", "4", "--from", "0", "--to", "3/4",
                         "--samples", "4", "--format", "json"])
        recs = json.loads(out)["records"]
        assert code == 0 and [r["lambda"] for r in recs] == ["0", "1/4", "1/2", "3/4"]
        assert recs[1]["delta"] == "0" and recs[1]["exact"] is True
        assert recs[2] == {**dict.fromkeys(recs[2], ""), "case": "quadruple_line", "d": 4, "lambda": "1/2",
                           "validity": False, "note": "past the log canonical threshold 1/4"}
        assert recs[3]["note"] == "outside the log Fano range [0, 3/d)"

    def test_negative_start_reaches_domain_check(self, capsys):
        for start in (["--from", "-1/5"], ["--from=-1/5"]):
            code, out = run(["scan", "--case", "A2", "--degree", "4", *start, "--to", "1/2"])
            assert code == 2 and out == ""
            assert capsys.readouterr().err == "error: lambda -1/5 outside [0, 3/4)\n"

    def test_bad_range(self):
        code, _ = run(["scan", "--case", "A2", "--degree", "4", "--from", "1/2", "--to", "1/2"])
        assert code == 2

    def test_one_sample_is_refused(self, capsys):
        code, out = run(["scan", "--case", "A2", "--degree", "4", "--from", "0", "--to", "1/2", "--samples", "1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: need at least 2 samples\n"

    def test_plain_table(self):
        code, out = run(["scan", "--case", "A2", "--degree", "4", "--from", "0", "--to", "3/4", "--samples", "3"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 4
        assert lines[0].split() == ["case", "d", "lambda", "delta", "exact", "lower", "upper", "minimizer",
                                    "validity", "expected", "match", "line_clause", "note"]
        assert lines[2].split() == ["A2", "4", "3/8", "11/10", "True", "11/10", "11/10", "E", "True", "11/10", "True"]
        # an empty cell keeps its column's width, so the note of the last row starts under its header
        assert lines[3].index("outside") == lines[0].index("note")


class TestTable:
    def test_markdown_row(self):
        code, out = run(["table", "--format", "md"])
        assert code == 0
        assert "| A2 | cusp (A2) | 3 | (5-6λ)/(5-5λ) | [0,5/6] |" in out

    def test_latex_structure(self):
        code, out = run(["table", "--format", "latex"])
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert out.rstrip().endswith("\\end{tabular}")
        assert out.count("\\\\") >= len(CASES)

    def test_csv_round_trip(self):
        code, out = run(["table", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        rendered = io.StringIO()
        writer = csv.writer(rendered, lineterminator="\n")
        writer.writerows(rows)
        assert rendered.getvalue() == out

    def test_ordering(self):
        code, out = run(["table", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        keys = [(int(r["d"]), CASES[r["case"]].order) for r in rows]
        assert keys == sorted(keys)


class TestClosedFormCommand:
    def test_d5(self):
        code, out = run(["closed-form", "--case", "D5", "--degree", "4", "--format", "json"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["delta"] == "(15-24λ)/(15-20λ)" and rec["match"] is True

    def test_not_exact_is_a_mismatch(self, monkeypatch, capsys):
        def only_bounded(*args, **kwargs):
            raise NotExactOnInterval("D5 at lambda=1/2: only a lower bound is available")

        monkeypatch.setattr("logfano.cli.delta_closed_form", only_bounded)
        code, out = run(["closed-form", "--case", "D5", "--degree", "4", "--format", "json"])
        assert code == 1 and out == ""
        assert "only a lower bound" in capsys.readouterr().err

    def test_widened_row_is_a_mismatch(self, monkeypatch, capsys):
        spec = CASES["A4"]
        widened = dataclasses.replace(spec, rows=(dataclasses.replace(spec.row(4), lo=F(0)),))
        monkeypatch.setitem(CASES, "A4", widened)
        code, out = run(["closed-form", "--case", "A4", "--degree", "4", "--format", "json"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("mismatch: ")

    def test_degree_bounds(self, capsys):
        argv = ["closed-form", "--case", "A2", "--degree", "4", "--format", "json"]
        code, out = run(argv + ["--num-deg", "0", "--den-deg", "0"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: derived form (15-18λ)/(15-20λ) exceeds the degree bounds (0,0)\n"
        code, out = run(argv + ["--num-deg", "1", "--den-deg", "1"])
        assert code == 0 and (code, out) == run(argv)


class TestThreefoldCommand:
    def test_quartic_double_solid(self):
        code, out = run(["threefold", "blowup", "--s", "4", "--m", "2", "--lambda", "1/2",
                         "--cone", "smooth_conic", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["bound"] == "4/3" and rec["k_stable_bound"] == "yes"

    def test_quadric(self):
        code, out = run(["threefold", "quadric", "--m", "2", "--lambda", "2/3",
                         "--cone", "smooth_conic", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["bound"] == "20/19"

    def test_not_strict_flagged(self):
        code, out = run(["threefold", "blowup", "--s", "4", "--m", "3", "--lambda", "1/2",
                         "--cone", "smooth_cubic_flex", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["bound"] == "1" and "not strict" in rec["note"]

    def test_bounded_plane_delta_is_flagged(self):
        # A4 below 3/8 certifies only the lower bound 3/(2t) = 3/4
        code, out = run(["threefold", "blowup", "--s", "6", "--m", "4", "--lambda", "1/4",
                         "--cone", "A4", "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec["delta2d"] == "3/4" and rec["bound"] == "4/5" and rec["k_stable_bound"] == "no"
        assert rec["note"] == "plane delta used as a lower bound"

    def test_negative_lambda_reaches_domain_check(self, capsys):
        code, out = run(["threefold", "blowup", "--s", "4", "--m", "2", "--lambda", "-1/5", "--cone", "smooth_conic"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: lambda -1/5 outside [0, 3/2)\n"

    def test_cone_past_its_lct_refused(self, capsys):
        # this printed delta2d -3 and bound -4 with exit 0
        code, out = run(["threefold", "blowup", "--s", "6", "--m", "4", "--lambda", "1/2", "--cone", "quadruple_line"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: lambda 1/2 past the log canonical threshold 1/4 of case quadruple_line\n"

    @pytest.mark.parametrize("argv, message", [
        (["--s", "-3", "--m", "2", "--cone", "smooth_conic"], "need surface degree s >= 1"),
        (["--s", "0", "--m", "2", "--cone", "smooth_conic"], "need surface degree s >= 1"),
        (["--s", "2", "--m", "3", "--cone", "smooth_cubic_flex"],
         "need multiplicity m <= s: a point of a degree-s surface has multiplicity at most s"),
    ], ids=["s-negative", "s-zero", "m-above-s"])
    def test_degrees_no_surface_has_are_refused(self, capsys, argv, message):
        # these printed the bounds 16/33, 2/3 and 2/3 with exit 0
        code, out = run(["threefold", "blowup", *argv, "--lambda", "1/2"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_degree_mismatch(self):
        code, _ = run(["threefold", "blowup", "--s", "4", "--m", "3", "--lambda", "1/2",
                       "--cone", "smooth_conic"])
        assert code == 2

    @pytest.mark.parametrize("argv, option", [
        (["smooth", "--s", "3", "--m", "7", "--lambda", "2/3", "--cone", "smooth_cubic_tangent2"], "m"),
        (["quadric", "--m", "2", "--s", "9", "--lambda", "2/3", "--cone", "smooth_conic"], "s"),
    ])
    def test_option_the_bound_does_not_use_is_refused(self, capsys, argv, option):
        code, out = run(["threefold", *argv])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: kind {argv[0]!r} does not use --{option}\n"
        # without it the same command answers
        i = argv.index(f"--{option}")
        code, out = run(["threefold", *argv[:i], *argv[i + 2 :], "--format", "json"])
        rec = json.loads(out)["records"][0]
        assert code == 0 and rec[option] == ""


    @pytest.mark.parametrize("argv, option", [
        (["smooth", "--lambda", "2/3", "--cone", "smooth_cubic_tangent2"], "s"),
        (["blowup", "--m", "2", "--lambda", "1/2", "--cone", "smooth_conic"], "s"),
        (["blowup", "--s", "4", "--lambda", "1/2", "--cone", "smooth_conic"], "m"),
        (["quadric", "--lambda", "2/3", "--cone", "smooth_conic"], "m"),
    ])
    def test_missing_option_the_bound_needs_is_refused(self, capsys, argv, option):
        code, out = run(["threefold", *argv])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: kind {argv[0]!r} needs --{option}\n"


class TestVerifyCommand:
    def test_single_case(self):
        code, out = run(["verify", "--case", "D5"])
        assert code == 0
        assert "PASS D5/d=4" in out

    def test_serial_verification_loads_no_process_pool(self):
        # multiprocessing costs every run about 2 MB and 20 ms of import
        script = (
            "import sys, logfano.cli\n"
            "from logfano.verify import verify_all\n"
            "assert verify_all(case_ids=['A2'])[1]\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(logfano.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"

    def test_runtime_loads_only_the_standard_library(self):
        # -S keeps out the modules that site .pth files import
        script = (
            "import io, sys\n"
            "from logfano.cli import main\n"
            "assert main(['verify', '--all'], out=io.StringIO()) == 0\n"
            "argv = ['threefold', 'blowup', '--s', '4', '--m', '2', '--lambda', '1/2', '--cone', 'smooth_conic']\n"
            "assert main(argv, out=io.StringIO()) == 0\n"
            "print(sorted({name.partition('.')[0] for name in sys.modules} - set(sys.stdlib_module_names)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(logfano.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "['__main__', 'logfano']\n"  # __main__ is the script itself

    def test_json_one_record_per_check(self):
        code, out = run(["verify", "--case", "D5", "--format", "json"])
        checks, ok = verify_all(case_ids=["D5"])
        assert code == 0 and ok
        assert json.loads(out)["records"] == [
            {"scope": c.scope, "name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
        ]

    def test_formats_and_exit_code_on_mismatch(self, monkeypatch):
        checks = [Check("X/d=4", "a", True), Check("X/d=4", "b", False, "computed 1, stated 2")]
        monkeypatch.setattr("logfano.cli.verify.verify_all", lambda **kwargs: (checks, False))
        code, out = run(["verify", "--case", "D5", "--format", "csv"])
        assert code == 1
        assert list(csv.reader(io.StringIO(out))) == [
            ["scope", "name", "ok", "detail"],
            ["X/d=4", "a", "True", ""],
            ["X/d=4", "b", "False", "computed 1, stated 2"],
        ]
        for fmt in ("md", "latex"):
            code, out = run(["verify", "--case", "D5", "--format", fmt])
            assert code == 1 and "computed 1, stated 2" in out
        code, out = run(["verify", "--case", "D5"])
        assert code == 1
        assert out == "FAIL X/d=4 (1/2 checks failed)\n     - b: computed 1, stated 2\nMISMATCH: 1/2 checks passed\n"

    def test_fault_injection_fails_verification(self):
        spec = CASES["A2"]
        bad = dict(CASES)
        bad["A2"] = dataclasses.replace(spec, m_C=F(5))
        checks, ok = verify_all(catalog=bad, case_ids=["A2"])
        assert not ok
