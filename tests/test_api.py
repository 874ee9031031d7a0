"""The documented library API: the README's example, the names `logfano` exports, and what importing it loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import logfano

README = Path(__file__).resolve().parents[1] / "README.md"

# the value each commented line of the README's example states
STATED = {
    "rep.upper_bound": Fraction(6, 5),
    'delta_closed_form("A2", 4).format()': "(15-18l)/(15-20l)",
    's_divisor("E6", 4, Fraction(1, 4))': Fraction(14, 3),
}


def library_example() -> str:
    """The python block of the README's "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_example_runs_and_states_its_values():
    code = library_example()
    namespace: dict = {}
    exec(code, namespace)
    checked = set()
    for line in code.splitlines():
        expr, _, comment = (part.strip() for part in line.partition("#"))
        if expr in STATED:
            assert eval(expr, namespace) == STATED[expr], expr
            assert comment.startswith(repr(STATED[expr])), (expr, comment)
            checked.add(expr)
    assert checked == set(STATED)


def test_all_is_the_readme_import():
    imports = [line for line in library_example().splitlines() if line.startswith("from logfano import ")]
    assert len(imports) == 1
    names = sorted(name.strip() for name in imports[0].removeprefix("from logfano import ").split(","))
    assert logfano.__all__ == names == ["delta_closed_form", "delta_point", "s_divisor"]
    for name in logfano.__all__:
        assert callable(getattr(logfano, name)), name


def test_import_loads_the_engine_modules_but_not_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(logfano.__file__).parents[1])}
    code = "import json, sys, logfano; print(json.dumps(sorted(m for m in sys.modules if m.startswith('logfano.'))))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    engine = ["catalog", "delta", "exact", "surface", "threefold", "verify"]
    assert json.loads(proc.stdout) == [f"logfano.{m}" for m in engine]
