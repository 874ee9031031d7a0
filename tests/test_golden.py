"""Golden outputs: sha256 of the JSON stdout and exit code of fixed CLI runs.

The digests pin every exact output, exit code and byte of formatting, so an
optimisation that changes one of them fails here.  A change that alters outputs
on purpose re-pins the digest and says so in CHANGES.md; ``python
tests/test_golden.py`` prints the current digests.  The delta digest was
re-pinned once, when ``delta --lambda 0`` stopped exiting 2: only the 54
lambda = 0 calls changed (exact delta = 1 on 50 rows, lower bound 1/2 on
A4-A7).  The verify digest was re-pinned when verify went from six sampled
lambda per row to one set of identity checks per row: only check names,
count and order changed, every verdict stayed a pass.  It was re-pinned again
when the lower-bound regime became one identity on the least lines: on
A4-A7 the three "lower-bound regime at l=..." checks became one "lower-bound
regime" check (748 -> 740 checks), every check still a pass.

The delta grid covers every case/degree at 0, the stated interval ends, the
midpoint, ``lower_regime_hi`` and every multiple of 1/24 in [0, 3/d); it
includes the exact-negative reports past the klt threshold and the exit-2
rejections of lambda = 3/d.

The faults digest pins the verdicts of fault injection: for each of the 494
single-number faults of acceptance criterion 9, in order, the fault and the
(scope, name, ok, detail) of every check of ``test_acceptance.fault_checks``,
which verifies the faulty entry inside the full catalog.  A change of the
engine that alters a fault's verdict or failure detail fails here, so equal
fault verdicts need no comparison by hand.  The digest was re-pinned when the
faulty entry moved from a one-entry catalog into the full one: only the
"structural validation" records of the 14 alias entries changed, which no
longer report their alias target missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from fractions import Fraction as F
from pathlib import Path

if __name__ == "__main__":  # run as a script from a checkout: import logfano from its src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logfano.catalog import CASES
from logfano.cli import main
from test_acceptance import criterion_9_faults, fault_checks

GOLDEN = {
    "delta": "cfca223e909d46694862909e27c43cb613a1ec2517cf3c4f4cf9a8f78cafff56",
    "closed-form": "d5ded809b41042eda6c47284f26b8ecc3c734cace12e3117608fdc1aa4d19f9f",
    "table": "32d4e8424fa2daf1d9b66045e7c3c5042f9d75e62c30427dbee75b55610c71c2",
    "verify": "42cdcbde79df1c7ee22662760797f75239068f249038dd52ea6f6a8f5309e016",
    "faults": "e9af09766441d4d47c41569f5f99bc900ac472c5dbbd34b49707e70300c2d3ac",
}


def _rows():
    for spec in sorted(CASES.values(), key=lambda s: s.order):
        for row in spec.rows:
            yield spec, row


def _delta_lambdas(spec, row) -> list[F]:
    lams = {F(0), row.lo, row.hi, (row.lo + row.hi) / 2}
    if spec.lower_regime_hi is not None:
        lams.add(spec.lower_regime_hi)
    lams.update(F(k, 24) for k in range(72) if F(k, 24) * row.d < 3)
    return sorted(lams)


def _argvs(command: str) -> list[list[str]]:
    fmt = ["--format", "json"]
    if command == "delta":
        return [
            ["delta", "--case", spec.id, "--degree", str(row.d), "--lambda", str(lam)] + fmt
            for spec, row in _rows()
            for lam in _delta_lambdas(spec, row)
        ]
    if command == "closed-form":
        return [["closed-form", "--case", spec.id, "--degree", str(row.d)] + fmt for spec, row in _rows()]
    if command == "verify":
        return [["verify", "--all"] + fmt]
    return [["table"] + fmt]


def digest(command: str) -> str:
    if command == "faults":
        return fault_digest()
    h = hashlib.sha256()
    for argv in _argvs(command):
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):  # exit-2 messages; stderr is not hashed
            code = main(argv, out=out)
        h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\n".encode())
    return h.hexdigest()


def fault_digest() -> str:
    h = hashlib.sha256()
    for spec in CASES.values():
        for fault, changes in criterion_9_faults(spec):
            checks, _ = fault_checks(dataclasses.replace(spec, **changes))
            records = [(c.scope, c.name, c.ok, c.detail) for c in checks]
            h.update(f"{spec.id} {fault}\n{records!r}\n".encode())
    return h.hexdigest()


def test_delta_golden():
    assert digest("delta") == GOLDEN["delta"]


def test_closed_form_golden():
    assert digest("closed-form") == GOLDEN["closed-form"]


def test_table_golden():
    assert digest("table") == GOLDEN["table"]


def test_verify_golden():
    assert digest("verify") == GOLDEN["verify"]


def test_fault_verdicts_golden():
    assert digest("faults") == GOLDEN["faults"]


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{digest(name)}",')
