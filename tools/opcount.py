#!/usr/bin/env python3
"""Deterministic work counts: the Python bytecodes five engine calls execute.

Usage, from anywhere inside the repository:

    python3 tools/opcount.py [--src DIR]

Each call runs once to warm the caches (the ratio tables, the stated closed
forms, the per-model decompositions), then once more under a ``sys.settrace``
function that sets ``frame.f_trace_opcodes`` on every frame and counts its
``"opcode"`` events.  The calls are:

- ``delta_point`` at lambda = lo + (hi - lo)/3 on each of the catalog's 54
  case/degree rows, the lambdas made inside the counted call;
- ``delta_closed_form`` on each of the 54 rows;
- one ``verify_all()``;
- ``verify_all(case_ids=[c])`` for each of the catalog's 46 cases, in catalog
  order: the shape of a ``verify`` benchmark operation, each call validating
  its case and computing its own t = 1 reference;
- ``tangent_cone_delta`` for each of the 14 threefold corollaries, at its
  cone case, cone degree and lambda: the delta a ``scan`` benchmark
  operation reads for a threefold bound.

A count is exact and repeats across runs, processes and hash seeds, but it sees
Python bytecode only: big-integer arithmetic, ``math.gcd`` and dict lookups
run in C and are not counted, and counts differ between Python versions, so
the version is printed with them.  ``--src`` imports ``logfano`` from another
checkout's ``src`` (default: this one's), so two trees can be compared.
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def count(fn: Callable[[], object]) -> int:
    """The opcodes fn() executes, counted after one warm-up call."""
    fn()
    n = 0

    def trace(frame, event, arg):
        nonlocal n
        frame.f_trace_opcodes = True
        if event == "opcode":
            n += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        # Python 3.12 delivers opcode events only after settrace runs again once a traced frame
        # has asked for them: without this, the first count there reads 0
        (lambda: None)()
        sys.settrace(trace)
        n = 0
        fn()
    finally:
        sys.settrace(previous)
    return n


def workloads() -> dict[str, Callable[[], object]]:
    """The five counted calls, by name; logfano must be importable."""
    from logfano.catalog import CASES
    from logfano.delta import delta_closed_form, delta_point
    from logfano.threefold import COROLLARY_CONFIGS, tangent_cone_delta
    from logfano.verify import verify_all

    n = sum(len(spec.rows) for spec in CASES.values())
    ids = sorted(CASES, key=lambda case_id: CASES[case_id].order)
    return {
        f"{n} x delta_point": lambda: [
            delta_point(c, r.d, r.lo + (r.hi - r.lo) / 3) for c, s in CASES.items() for r in s.rows
        ],
        f"{n} x delta_closed_form": lambda: [delta_closed_form(c, r.d) for c, s in CASES.items() for r in s.rows],
        "verify_all()": lambda: verify_all(),
        f"{len(ids)} x verify_all(case_ids=[c])": lambda: [verify_all(case_ids=[c]) for c in ids],
        f"{len(COROLLARY_CONFIGS)} x tangent_cone_delta": lambda: [
            tangent_cone_delta(c.cone_case, c.cone_degree, c.lam) for c in COROLLARY_CONFIGS
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds the logfano package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    print(f"Python {platform.python_version()}")
    for name, fn in workloads().items():
        print(f"{name}: {count(fn):,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
