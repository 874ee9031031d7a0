"""Every function the perfbench tracer wraps exists under its traced name.

A deleted or renamed target would otherwise surface only as a crash of
``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import logfano  # noqa: F401  (the tracer patches the modules this import loads)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for name, module_name, attr, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (name, module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (name, module_name, attr)
