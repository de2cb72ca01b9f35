"""Self-tests of the benchmark: the checker rejects tampered certificates,
inputs depend only on the seed, and the failure taxonomy holds.

    python3 bench/test_bench.py
"""

import copy
import json
import signal
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CTX = run.set_up("witt_panel")
ORACLE = CTX["fp_oracle"]


def report(op: dict) -> dict:
    rc, text = workloads.call_cli(CTX["cli"].main, workloads.cli_argv(op))
    assert rc == 0, text
    return json.loads(text)


def albert_op(cmd: str, params, gamma) -> dict:
    return {"cmd": cmd, "input": workloads._albert({"kind": "Q"}, params, gamma)}


def inputs(workload: str, seed: int) -> str:
    return json.dumps(run._jsonable(workloads.operations(workload, seed, 1)), sort_keys=True)


class CheckerTest(unittest.TestCase):
    def test_witt_basis_accepted_and_tampering_rejected(self):
        op = {"cmd": "witt", "input": {"field": {"kind": "Q"}, "coeffs": ["1", "-1", "2", "-3", "5"]}}
        good = report(op)
        self.assertTrue(checker.check_witt(op["input"], good))
        bad = copy.deepcopy(good)
        col = bad["witness"][0]
        col[0] = str(checker.Fraction(col[0]) + 1)
        with self.assertRaises(checker.WrongOutput):
            checker.check_witt(op["input"], bad)

    def test_fp_witt_index_against_enumeration(self):
        op = {"cmd": "witt", "input": {"field": {"kind": "Fp", "p": 7}, "coeffs": ["1", "3", "5", "6"]}}
        good = report(op)
        self.assertTrue(checker.check_witt(op["input"], good, ORACLE))
        bad = copy.deepcopy(good)
        bad["index"] -= 1
        bad["anisotropic"] += ["1", "1"]
        with self.assertRaises(checker.WrongOutput):
            checker.check_witt(op["input"], bad, ORACLE)

    def test_nilpotent_witness_coordinate_tampering_rejected(self):
        op = albert_op("classify", [-1, -2, -3], [1, -1, 1])
        good = report(op)
        self.assertTrue(checker.check_classify(op["input"], good))
        bad = copy.deepcopy(good)
        slot = next(c for c in bad["certificate"]["element"]["c"] if any(v != "0" for v in c))
        i = next(i for i, v in enumerate(slot) if v != "0")
        slot[i] = str(checker.Fraction(slot[i]) * 2)
        with self.assertRaises(checker.WrongOutput):
            checker.check_classify(op["input"], bad)

    def test_swapped_kernel_coefficient_rejected(self):
        op = albert_op("kernel", [-1, -2, -3], [1, -1, 1])
        good = report(op)
        self.assertTrue(checker.check_kernel(op["input"], good))
        bad = copy.deepcopy(good)
        coeffs = bad["form"]["coeffs"]
        i = next(i for i in range(1, len(coeffs)) if coeffs[i] != coeffs[0])
        coeffs[0], coeffs[i] = coeffs[i], coeffs[0]
        with self.assertRaises(checker.WrongOutput):
            checker.check_kernel(op["input"], bad)

    def test_rank_4_without_norm_witness_is_not_certified(self):
        op = albert_op("classify", [1, -2, -3], [1, -1, 1])
        good = report(op)
        self.assertEqual(good["rank"], 4)
        self.assertTrue(checker.check_classify(op["input"], good))
        bare = copy.deepcopy(good)
        del bare["certificate"]["norm_isotropy"]["witness"]
        self.assertFalse(checker.check_classify(op["input"], bare))
        with self.assertRaises(workloads.Failure) as caught:
            workloads.judge_cli(op, 0, json.dumps(bare), ORACLE)
        self.assertEqual(caught.exception.kind, "unsupported")

    def test_wrong_rank_rejected(self):
        op = albert_op("classify", [-1, -2, -3], [1, 1, 1])
        good = report(op)
        self.assertTrue(checker.check_classify(op["input"], good))
        bad = copy.deepcopy(good)
        bad["rank"] = 1
        with self.assertRaises(checker.WrongOutput):
            checker.check_classify(op["input"], bad)

    def test_excellence_descent_witness(self):
        op = albert_op("excellence", [-1, -2, -3], [1, -1, 1])
        op["ext"] = {"kind": "QSqrt", "d": 2}
        good = report(op)
        self.assertTrue(checker.check_excellence(op["input"], op["ext"], good))
        bad = copy.deepcopy(good)
        bad["descent_witness"]["form"]["coeffs"][0] = "-5"
        with self.assertRaises(checker.WrongOutput):
            checker.check_excellence(op["input"], op["ext"], bad)


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            a, b, c = inputs(workload, 7), inputs(workload, 7), inputs(workload, 8)
            self.assertEqual(a.encode(), b.encode())
            self.assertNotEqual(a, c)


class TaxonomyTest(unittest.TestCase):
    def setUp(self):
        self.old = signal.signal(signal.SIGALRM, run._on_alarm)

    def tearDown(self):
        signal.signal(signal.SIGALRM, self.old)

    def test_hang_is_a_timeout(self):
        op = {"cmd": "witt", "input": workloads.semiprime_form(workloads.random.Random(1))}
        deadline, run.DEADLINE_S = run.DEADLINE_S, 0.5
        try:
            status, latency, _ = run.execute(CTX, op)
        finally:
            run.DEADLINE_S = deadline
        self.assertEqual(status, "timeout")
        self.assertLess(latency, 2)

    def test_non_normalizable_kernel_is_unsupported(self):
        op = albert_op("kernel", [-1, -2, -3], [2, -1, 1])
        self.assertEqual(run.execute(CTX, op)[0], "unsupported")

    def test_certified(self):
        op = albert_op("kernel", [-1, -2, -5], [1, -1, 1])
        self.assertEqual(run.execute(CTX, op)[0], "certified")


if __name__ == "__main__":
    unittest.main()
