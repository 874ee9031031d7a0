"""tools/opcount.py: bytecode counts of engine calls, exact and repeatable."""

from __future__ import annotations

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from logfano.delta import delta_point

_PATH = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"
_spec = importlib.util.spec_from_file_location("opcount", _PATH)
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


def test_one_call_counted_twice_gives_the_same_count():
    call = lambda: delta_point("A2", 4, F(1, 2))  # noqa: E731
    first = opcount.count(call)
    assert first > 0 and opcount.count(call) == first


def test_count_puts_the_previous_trace_function_back():
    import sys

    def outer(frame, event, arg):
        return None

    sys.settrace(outer)
    try:
        opcount.count(lambda: sum(range(3)))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(None)


def test_the_four_counted_calls_by_name():
    assert list(opcount.workloads()) == [
        "54 x delta_point", "54 x delta_closed_form", "verify_all()", "46 x verify_all(case_ids=[c])"]
