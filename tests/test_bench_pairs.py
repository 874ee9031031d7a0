"""tools/bench_pairs.py: the per-metric summary of alternated benchmark pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "op_tail_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def _pairs(base, head, name):
    return [{"base": {"metrics": {name: b}}, "head": {"metrics": {name: h}}} for b, h in zip(base, head)]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    base, head = [2.0, 2.1, 2.2, 2.0, 1.9], [1.7, 2.1, 1.8, 2.3, 1.6]
    (tail,) = bench_pairs.summarize(_pairs(base, head, "op_tail_ms"), END_TO_END[:1]).values()
    assert tail["head_wins"] == 3 and tail["pairs"] == 5
    (rate,) = bench_pairs.summarize(_pairs(base, head, "ops_per_s"), END_TO_END[1:]).values()
    assert rate["head_wins"] == 1


def test_spread_and_the_gain_against_the_base_interquartile_range():
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    assert bench_pairs.spread(base) == {"median": 13.0, "q1": 11.0, "q3": 15.0}
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    for shift, exceeds in ((-5.0, True), (-4.0, False), (5.0, False)):
        head = [x + shift for x in base]
        (tail,) = bench_pairs.summarize(_pairs(base, head, "op_tail_ms"), END_TO_END[:1]).values()
        assert tail["median_gain"] == -shift and tail["base_iqr"] == 4.0
        assert tail["gain_exceeds_base_iqr"] is exceeds
        assert tail["median_change"] == pytest.approx(shift / 13.0)


def test_a_run_keeps_its_setup_runs_as_floats():
    out = "\n".join([
        "# workload: verify",
        "# load_digest: abc123",
        "# rounds: 12",
        "# setup_runs: [0.051234, 0.0497, 0.085, 0.05, 0.0502, 0.0511, 0.0499]",
        "# ops_per_s = 1800 1/s",
        '{"correct": true, "attempted": 1128, "failed": 0, "metrics": {"setup_s": {"value": 0.0511}}}',
    ])
    run = bench_pairs.parse_run(out)
    assert run["meta"] == {
        "load_digest": "abc123", "rounds": "12",
        "setup_runs": [0.051234, 0.0497, 0.085, 0.05, 0.0502, 0.0511, 0.0499],
    }
    assert all(type(x) is float for x in run["meta"]["setup_runs"])
    assert run["metrics"] == {"setup_s": 0.0511} and run["correct"] and run["attempted"] == 1128
