"""Fast tests of the benchmark's own oracles and checks; they do not run mstl.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import math
import tempfile
import unittest
from unittest import mock
from pathlib import Path

import numpy as np

import oracles
import spans
import workloads


def write_potential(path, xs, q):
    m = q.shape[1]
    header = ["x"] + [f"{p}_Q_{j}{k}" for j in range(1, m + 1) for k in range(1, m + 1)
                      for p in ("Re", "Im")]
    rows = [",".join(["%.17g" % x] + ["%.17g" % v for z in qx.ravel() for v in (z.real, z.imag)])
            for x, qx in zip(xs, q)]
    Path(path).write_text("\n".join([",".join(header)] + rows) + "\n")


def write_trajectory(path, snapshots):
    lines = ["x,t,j,k,Re,Im"]
    for t, (xs, q) in snapshots.items():
        lines += ["%.17g,%.17g,1,1,%.17g,%.17g" % (x, t, z.real, z.imag) for x, z in zip(xs, q)]
    Path(path).write_text("\n".join(lines) + "\n")


class OracleTest(unittest.TestCase):
    def test_one_soliton_is_sech_squared(self):
        xs = np.linspace(-10, 10, 2001)
        for tau, c, t in [(1.0, 2.0, 0.0), (1.3, 0.4, 0.7), (2.0, 8.0, 1.0)]:
            x0 = math.log(c / (2 * tau)) / (2 * tau) + 4 * tau**2 * t
            exact = -2 * tau**2 / np.cosh(tau * (xs - x0)) ** 2
            q = oracles.reflectionless_scalar(xs, [tau], [c], t)
            self.assertLess(np.abs(q - exact).max(), 1e-12)

    def test_two_soliton_is_log_det_of_the_separable_system(self):
        # q = -2 (log det(I + G))'' with G_jk = sqrt(c_j c_k) e^{-(tau_j + tau_k) x} / (tau_j + tau_k)
        taus, cs = np.array([1.0, 2.0]), np.array([2.0, 8.0])
        h = 1e-3

        def log_det(x):
            g = np.sqrt(np.outer(cs, cs)) * np.exp(-np.add.outer(taus, taus) * x) / np.add.outer(taus, taus)
            return np.linalg.slogdet(np.eye(2) + g)[1]

        for x in np.linspace(-2, 3, 11):
            second = (log_det(x + h) - 2 * log_det(x) + log_det(x - h)) / h**2
            q = oracles.reflectionless_scalar([x], taus, cs)[0]
            self.assertAlmostEqual(q, -2 * second, delta=1e-5)


class SpansTest(unittest.TestCase):
    def test_self_time_excludes_child_spans(self):
        tracer = spans.Tracer()
        inner = tracer._wrap("glm.assemble_M", lambda: None, False)
        outer = tracer._wrap("glm.invert", lambda: (inner(), inner()), False)
        with mock.patch("time.perf_counter", side_effect=map(float, range(100))):
            outer()  # invert spans 0..5, assemble_M spans 1..2 and 3..4
        summary = tracer.pass_summary(8.0)
        self.assertEqual(summary["glm.invert.self_s"], 3.0)
        self.assertEqual(summary["glm.assemble_M.self_s"], 2.0)
        self.assertEqual((summary["glm.invert.calls"], summary["glm.assemble_M.calls"]), (1, 2))
        self.assertEqual(summary["untraced_s"], 3.0)
        self.assertEqual([s.parent for s in tracer.spans], [-1, 0, 0])


class CheckTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = Path(tmp.name)

    def test_perturbed_trajectory_is_counted_as_failed(self):
        taus, weights = (1.1, 1.9), (2.5, 7.0)
        xs = np.linspace(-8, 40, 241)
        snapshots = {t: (xs, oracles.reflectionless_scalar(xs, taus, weights, t).astype(complex))
                     for t in np.linspace(0, 1, workloads.KDV_SNAPSHOTS)}
        check = workloads.check_kdv(taus, weights)
        write_trajectory(self.dir / "trajectory.csv", snapshots)
        clean = check(0, self.dir)
        self.assertEqual(clean.faults, [])

        snapshots[1.0][1][100] += 1e-6
        write_trajectory(self.dir / "trajectory.csv", snapshots)
        outcomes = [("kdv", o) for o in (clean, check(0, self.dir), check(3, self.dir))]
        attempted, failed, unknown = workloads.tally(outcomes)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertEqual(len(unknown), 2)

    def test_known_soliton_faults_leave_the_run_correct(self):
        taus, weights, direction = workloads.TAUS, workloads.WEIGHTS, workloads.SOLITON_DIRECTION
        xs = np.linspace(-5, 5, 401)
        q = oracles.reflectionless_matrix(xs, taus, weights, direction)
        workloads.write_reflectionless_data(self.dir / "scattering_right.json", taus, weights, direction)
        check = workloads.check_soliton(taus, weights, direction)

        write_potential(self.dir / "potential.csv", xs, q)
        self.assertEqual(check(0, self.dir).faults, [])

        q[0] += 0.25  # the far-left corruption of the separable solve
        write_potential(self.dir / "potential.csv", xs, q)
        far = check(0, self.dir)
        q[200] += 1e-3  # an error where the closed form is well conditioned
        write_potential(self.dir / "potential.csv", xs, q)
        core = check(0, self.dir)

        attempted, failed, unknown = workloads.tally([("soliton", far), ("soliton", core)])
        self.assertEqual(far.faults, ["soliton.separable_inverse_roundoff"])
        self.assertEqual((attempted, failed, len(unknown)), (2, 2, 1))

    def test_forward_exit_2_is_known_only_for_kernel_tail_decay(self):
        taus, weights, direction = workloads.TAUS, workloads.WEIGHTS, workloads.SOLITON_DIRECTION
        workloads.write_reflectionless_data(self.dir / "scattering_right.json", taus, weights, direction)
        check = workloads.check_soliton_forward(taus, weights, direction)

        def report(*failing):
            items = [{"name": n, "passed": n not in failing, "tol": 1.0, "value": 0.0}
                     for n in ("reflection_symmetry", "kernel_tail_decay")]
            doc = {"condition_A_plus": {"items": items, "passed": not failing}}
            (self.dir / "report.json").write_text(json.dumps(doc))

        report("kernel_tail_decay")
        self.assertEqual(check(2, self.dir).faults, ["forward.kernel_tail_decay"])
        report("kernel_tail_decay", "reflection_symmetry")
        self.assertEqual(workloads.tally([("forward", check(2, self.dir))])[1:], (1, [
            "forward: admissibility items failed: ['kernel_tail_decay', 'reflection_symmetry']"]))
        self.assertEqual(check(0, self.dir).faults, [])


if __name__ == "__main__":
    unittest.main()
