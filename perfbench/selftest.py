"""Self-tests of the benchmark's generator, oracle, failure accounting and
percentile rule.  They need no logfano code.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import itertools
import unittest
from fractions import Fraction as F
from types import SimpleNamespace

import load
import oracle
import run
from tracer import Tracer


def first(rounds, n=300):
    return list(itertools.islice(itertools.chain.from_iterable(rounds), n))


FAULTS = [("fault", case, family) for case in ("A2", "E6", "D4") for family in ("E.E", "m_C", "k_E")]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_load(self):
        for make in (load.scan_rounds, load.cli_rounds, lambda seed: load.verify_rounds(seed, FAULTS)):
            self.assertEqual(first(make(5)), first(make(5)))
            self.assertEqual(load.load_digest(make(5)), load.load_digest(make(5)))
            self.assertNotEqual(load.load_digest(make(5)), load.load_digest(make(6)))

    def test_lambda_stays_certified(self):
        for op in first(load.scan_rounds(3), 3000) + first(load.cli_rounds(3), 3000):
            if op[0] == "delta":
                oracle.expected_delta(op[1], op[2], op[3])  # raises outside the certified regions
            if op[0] == "scan":
                oracle.expected_delta(op[1], op[2], op[3])
                oracle.expected_delta(op[1], op[2], op[4])
        cli_lambdas = [op[3] for op in first(load.cli_rounds(3), 3000) if op[0] == "delta"]
        self.assertTrue(all(0 < lam for lam in cli_lambdas))

    def test_scan_round_covers_every_row(self):
        round_ops = next(load.scan_rounds(9))
        self.assertEqual(len(round_ops), len(oracle.ROWS) + load.THREEFOLD_PER_SCAN_ROUND)
        self.assertEqual({op[1:3] for op in round_ops if op[0] == "delta"}, set(oracle.ROW))

    def test_verify_round_injects_one_fault_per_case(self):
        round_ops = next(load.verify_rounds(4, FAULTS))
        self.assertEqual(sorted(op[1] for op in round_ops if op[0] == "fault"), ["A2", "D4", "E6"])
        self.assertEqual(sum(op[0] == "case" for op in round_ops), len(oracle.CASE_IDS))


class OracleTest(unittest.TestCase):
    def report(self, value, exact=True):
        return SimpleNamespace(case_id="A2", d=4, lam=F(1, 2), exact=exact, lower_bound=value, upper_bound=value)

    def test_flags_perturbed_delta(self):
        op = ("delta", "A2", 4, F(1, 2))  # (15 - 9) / (15 - 10) = 6/5
        self.assertIsNone(oracle.check_delta_report(op, self.report(F(6, 5))))
        self.assertIsNotNone(oracle.check_delta_report(op, self.report(F(6, 5) + F(1, 1000))))
        self.assertIsNotNone(oracle.check_delta_report(op, self.report(F(6, 5), exact=False)))

    def test_lower_bound_regime(self):
        self.assertEqual(oracle.expected_delta("A7", 4, F(1, 4)), (F(3, 4), False))
        with self.assertRaises(ValueError):
            oracle.expected_delta("A4", 4, F(18, 25))

    def test_flags_perturbed_cli_record(self):
        op = ("delta", "A2", 4, F(1, 2))
        good = '{"records": [{"case": "A2", "d": 4, "lambda": "1/2", "delta": "6/5", "exact": true}]}'
        self.assertIsNone(oracle.check_cli(op, 0, good))
        self.assertIsNotNone(oracle.check_cli(op, 0, good.replace("6/5", "7/5")))
        self.assertIsNotNone(oracle.check_cli(op, 1, good))

    def test_threefold_values(self):
        node = next(i for i, c in enumerate(oracle.COROLLARIES) if c[0] == "quartic double solid, node")
        self.assertIsNone(oracle.check_threefold(("threefold", node), F(1), True, F(4, 3)))
        self.assertIsNotNone(oracle.check_threefold(("threefold", node), F(1), True, F(5, 4)))

    def test_eval_formula(self):
        self.assertEqual(oracle.eval_formula("(15-18λ)/(15-20λ)", F(1, 2)), F(6, 5))
        self.assertEqual(oracle.eval_formula("3λ/2-λ^2", F(2)), F(-1))
        self.assertEqual(oracle.eval_formula("1", F(1, 3)), F(1))


class FailureAccountingTest(unittest.TestCase):
    def workload(self, outputs):
        outputs = iter(outputs)

        def execute(arg, tr):
            out = next(outputs)
            if isinstance(out, Exception):
                raise out
            return out

        return SimpleNamespace(prepare=lambda op: op, run=execute, observe=None,
                               check=lambda op, out: oracle.check_verify(op, *out))

    def test_undetected_fault_is_a_failure(self):
        ops = [("fault", "A2", "m_C"), ("fault", "A2", "k_E")]
        fail = SimpleNamespace(ok=False, name="S(E)", detail="")
        result = run.measure([ops], self.workload([([fail], False), ([], True)]))
        self.assertEqual((len(result.latencies), len(result.failures)), (2, 1))
        self.assertIn("undetected", result.failures[0])

    def test_raising_operation_is_a_failure_and_the_run_goes_on(self):
        ops = [("case", "A2"), ("case", "E6")]
        passed = SimpleNamespace(ok=True, name="x", detail="")
        result = run.measure([ops], self.workload([RuntimeError("boom"), ([passed, passed], True)]))
        self.assertEqual((len(result.latencies), len(result.failures)), (2, 1))


class TailRuleTest(unittest.TestCase):
    def test_rank(self):
        self.assertEqual(run.tail_rank(19), ("50", 9))  # too few samples: the median
        self.assertEqual(run.tail_rank(20), ("50", 9))
        self.assertEqual(run.tail_rank(99), ("50", 49))
        self.assertEqual(run.tail_rank(100), ("90", 89))
        self.assertEqual(run.tail_rank(999), ("90", 899))
        self.assertEqual(run.tail_rank(1000), ("99", 989))
        self.assertEqual(run.tail_rank(15000), ("99", 14849))
        for n in range(20, 3000):
            p, index = run.tail_rank(n)
            self.assertGreaterEqual(n - 1 - index, run.TAIL_BEYOND)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tr = Tracer()
        tr.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0], ["inner", 6.0, 7.0, 0, 0]]
        calls, own = tr.self_times()
        self.assertEqual(calls, {"outer": 1, "inner": 2})
        self.assertEqual(own, {"outer": 6.0, "inner": 4.0})


if __name__ == "__main__":
    unittest.main()
