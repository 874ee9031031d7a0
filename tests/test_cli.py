"""CLI surface: formats, exit codes, round trips, verification."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
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


class TestDelta:
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

    def test_negative_start_reaches_domain_check(self, capsys):
        for start in (["--from", "-1/5"], ["--from=-1/5"]):
            code, out = run(["scan", "--case", "A2", "--degree", "4", *start, "--to", "1/2"])
            assert code == 2 and out == ""
            assert capsys.readouterr().err == "error: lambda -1/5 outside [0, 3/4)\n"

    def test_bad_range(self):
        code, _ = run(["scan", "--case", "A2", "--degree", "4", "--from", "1/2", "--to", "1/2"])
        assert code == 2


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

    def test_negative_lambda_reaches_domain_check(self, capsys):
        code, out = run(["threefold", "blowup", "--s", "4", "--m", "2", "--lambda", "-1/5", "--cone", "smooth_conic"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: lambda -1/5 outside [0, 3/2)\n"

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
