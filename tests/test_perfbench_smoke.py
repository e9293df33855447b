"""One pass of every benchmark workload, with the benchmark's own checks.

A report item that is renamed or newly fails would make a benchmark run
incorrect; here it fails a test first.  The workloads are imported from
``perfbench/`` as they are, and the benchmark's own unit tests run too.
"""

import importlib
import io
import unittest
from pathlib import Path

from mstl import cli
from tests.conftest import read_strict_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the one fault each workload is known to show on every pass (see perfbench/README.md)
EXPECTED_FAULTS = {"soliton-roundtrip": {"forward": ["forward.kernel_tail_decay"]}}


def test_one_pass_of_each_workload(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, make_steps in workloads.WORKLOADS.items():
        outcomes = [(step.name, step.check(cli.main(step.argv), step.out))
                    for step in make_steps(701, tmp_path / name)]
        _, _, unknown = workloads.tally(outcomes)
        assert unknown == [], name
        faults = {step: o.faults for step, o in outcomes if o.faults}
        assert faults == EXPECTED_FAULTS.get(name, {}), name
    reports = sorted(tmp_path.rglob("report.json"))
    assert reports
    for path in reports:
        read_strict_json(path)  # JSON, not Python's NaN / Infinity tokens


def test_benchmark_unit_tests_pass(monkeypatch):
    # perfbench/test_perfbench.py, which imports oracles, spans and workloads as top-level modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    suite = unittest.defaultTestLoader.loadTestsFromModule(importlib.import_module("test_perfbench"))
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun > 0 and result.wasSuccessful(), result.failures + result.errors
