"""Self-tests of the benchmark: the reference, the checks and the seeding.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Untraced  # noqa: E402
from biqz import Biquaternion, parse  # noqa: E402

I_, J_, K_ = (ref.from_quaternion(*u) for u in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def _eq(m, n, tol=1e-12):
    return ref.dist(m, n) <= tol * max(1.0, ref.norm(n))


class ReferenceTest(unittest.TestCase):
    def test_hamilton_rules(self):
        minus_one = ref.scalar(-1)
        for u in (I_, J_, K_):
            self.assertTrue(_eq(ref.mul(u, u), minus_one))
        self.assertTrue(_eq(ref.mul(ref.mul(I_, J_), K_), minus_one))
        for a, b, c in ((I_, J_, K_), (J_, K_, I_), (K_, I_, J_)):
            self.assertTrue(_eq(ref.mul(a, b), c))
            self.assertTrue(_eq(ref.mul(b, a), ref.scale(c, -1)))

    def test_zero_divisor_powers_and_determinant(self):
        z = ref.from_quaternion(1, 0, 0, 1j)  # 1 + Ik
        self.assertEqual(ref.det(z), 0)
        for n in range(1, 21):
            self.assertTrue(_eq(ref.power(z, n), ref.scale(z, 2.0 ** (n - 1))))

    def test_norm_trace_and_roots(self):
        rng = random.Random(3)
        for _ in range(20):
            q = inputs.raw(rng)
            m = ref.from_quaternion(*q)
            w, x, y, z = q
            self.assertAlmostEqual(ref.det(m), w * w + x * x + y * y + z * z, delta=1e-12)
            self.assertAlmostEqual(ref.trace(m), 2 * w, delta=1e-12)
            for a, b in zip(ref.to_quaternion(m), q):
                self.assertAlmostEqual(a, b, delta=1e-12)
            size = Biquaternion(*q).component_norm()
            self.assertAlmostEqual(ref.norm(m), size, delta=1e-12 * size)

    def test_literals_round_trip(self):
        rng = random.Random(4)
        for _ in range(20):
            q = inputs.raw(rng)
            text = ref.literal(*q)
            self.assertEqual(ref.parse_literal(text), q)
            b = parse(text)
            self.assertEqual((b.w, b.x, b.y, b.z), q)
        for text in ("1-1i-1j", "1Ij", "2-2Ik", "(4+3I)", "1Ii+1I", "-0.5j", "k"):
            b = parse(text)
            self.assertEqual(ref.parse_literal(text), (b.w, b.x, b.y, b.z))


class CheckTest(unittest.TestCase):
    def _first(self, workload, kind):
        round_ops = inputs.make_round(workload, 5)
        with tempfile.TemporaryDirectory() as tmp:
            ops.prepare(round_ops, Path(tmp))
        state = {}
        for op in round_ops:
            outcome = ops.run_op(op, state, Untraced())
            if op["kind"] == kind:
                return op, outcome
        raise AssertionError(f"no {kind} operation")

    def test_perturbed_series_value_rejected(self):
        op, outcome = self._first("catalog-sweep", "point")
        self.assertEqual(ops.check(op, outcome, {}), [])
        value = outcome[0]
        nudged = value + Biquaternion(0, 1e-6 * max(1.0, value.component_norm()))
        self.assertNotEqual(ops.check(op, (nudged, *outcome[1:]), {}), [])

    def test_perturbed_deconvolution_rejected(self):
        op, outcome = self._first("recurrences", "deconvolve")
        self.assertEqual(ops.check(op, outcome, {}), [])
        solution = list(outcome[0])
        solution[7] = solution[7] * (1 + 1e-6)
        self.assertNotEqual(ops.check(op, (solution, outcome[1]), {}), [])

    def test_wrong_refusal_rejected(self):
        op, outcome = self._first("catalog-sweep", "refuse")
        self.assertEqual(outcome, ("refused",))
        self.assertNotEqual(ops.check(op, ("value", Biquaternion(1.0)), {}), [])


class CalibrationTest(unittest.TestCase):
    def test_each_time_scaled_by_its_bracketing_kernel_runs(self):
        cal = calibrate.Calibrator()
        kernel = iter([2e-3, 2e-3, 1e-3])  # seconds of each kernel run
        cal.kernel.extend([next(kernel)])
        cal.first_op.append(0)
        for n, wall in enumerate((0.1, 0.2, 0.3)):
            if n == 2:  # a kernel run between the second and third operation
                cal.kernel.append(next(kernel))
                cal.first_op.append(n)
            cal.after_op(wall)
        cal.kernel.append(next(kernel))
        cal.first_op.append(3)
        # 2 ms around the first two (half speed), 1.5 ms around the third
        got = cal.nominal([0.1, 0.2, 0.3])
        for a, b in zip(got, (0.05, 0.1, 0.3 * 2 / 3)):
            self.assertAlmostEqual(a, b, delta=1e-15)

    def test_kernel_runs_between_operations(self):
        cal = calibrate.Calibrator()
        walls = [0.03, 0.03, 0.03, 0.001]
        for wall in walls:
            cal.before_op()
            cal.after_op(wall)
        cal.finish()
        # a run before the first operation, one once 0.05 s have passed, one at the end
        self.assertEqual(list(cal.first_op), [0, 2, 4])
        self.assertEqual(len(cal.nominal(walls)), 4)
        with self.assertRaises(ValueError):
            cal.nominal(walls[:3])


class SeedTest(unittest.TestCase):
    def _dump(self, workload, seed, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        return subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed)],
                              env=env, capture_output=True, text=True, check=True).stdout

    def test_same_seed_same_inputs(self):
        for workload in inputs.WORKLOADS:
            first = self._dump(workload, 11, 1)
            self.assertEqual(first, self._dump(workload, 11, 2))
            self.assertNotEqual(first, self._dump(workload, 12, 1))


if __name__ == "__main__":
    unittest.main()
