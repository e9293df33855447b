"""Benchmark of the mstl CLI pipelines, run in-process through ``mstl.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/mstl`` must exist).  One
client, closed loop: passes of the workload's CLI steps run one after another,
whole passes only, starting another until ``--seconds`` are spent (two
passes at least, so a run ends within one pass of ``--seconds``); the first
pass is a warm-up that is checked and counted but not timed into
``wall_s``.  Every step's outputs are checked (see ``workloads.py``).  BLAS
is pinned to one thread.  The last line of standard output is one JSON object:

* ``--trace 0``: end-to-end metrics ``setup_s`` (median over fresh
  interpreters importing ``mstl.cli``), ``wall_s`` (median pass time in
  reference seconds, see ``reference_s``) and ``peak_rss_mb`` (high-water
  resident memory of this process).
* ``--trace 1``: per-layer metrics from spans around each layer's public
  functions (median self time per pass, exact calls per pass), the import
  profile from ``python -X importtime``, and the accuracy figures.

The speed of a shared host drifts by a fifth over minutes, and all code
with it.  So after every pass the benchmark times a fixed yardstick (small
and stacked numpy algebra from Python loops, and a dense solve: the kinds of
work mstl does) for a tenth of the pass, and ``wall_s`` is the median pass
time scaled by ``REFERENCE_S`` over the yardstick's median: the pass time on
a machine where the yardstick takes ``REFERENCE_S``.  A change to mstl moves
``wall_s`` by its own share; a slow stretch of the host that slows pass and
yardstick alike cancels.  (Not every one does: see README.md.)

Outputs of the CLI go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: default OpenBLAS threads oversubscribe the
# cores the program's own per-x thread pool already uses
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
# yardstick time per pass, as a share of the pass; its nominal time
REFERENCE_SHARE = 0.1
REFERENCE_S = 0.04
IMPORT_PROFILES = 3
SUBPROCESS_TIMEOUT = 60

# accuracy figures; 0 where the workload has no step that measures one
ACCURACY = (
    "accuracy.roundtrip_rel_l1",
    "accuracy.tau_err",
    "accuracy.weight_rel_err",
    "accuracy.invert_max_err",
    "accuracy.kdv_max_err",
    "glm.invert.sigma_min",
    "glm.invert.residual_max",
    "glm.invert.overlap_gap",
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports mstl.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mstl.cli"], cwd=ROOT, env=_child_env(),
                   check=True, timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - t0


def import_profile() -> dict:
    """Cumulative import times of mstl.cli and of mstl.glm and mstl.conditions."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mstl.cli"],
                          cwd=ROOT, env=_child_env(), check=True, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    total = 0.0
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split(":", 1)[1].split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        seconds = int(cum) * 1e-6
        cumulative[name.strip()] = seconds
        if name.startswith(" mstl"):  # top level of the import tree
            total += seconds
    return {
        "import.total_s": total,
        "import.mstl.glm_s": cumulative["mstl.glm"],
        "import.mstl.conditions_s": cumulative["mstl.conditions"],
    }


class Yardstick:
    """Fixed numpy work from Python loops whose time measures the host's speed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        self.stack = rng.standard_normal((2, 512, 2, 2)) + 1j * rng.standard_normal((2, 512, 2, 2))
        self.dense = (8 * np.eye(256) + rng.standard_normal((256, 256))
                      + 1j * rng.standard_normal((256, 256)))
        self.rhs = rng.standard_normal((256, 4)) + 0j
        self.times = []
        self.once()  # warm-up, not kept

    def once(self) -> float:
        t0 = time.perf_counter()
        eye = np.eye(2, dtype=complex)
        for i in range(1100):  # per-point small solves, as in the separable solve
            np.linalg.inv(eye + 0.1 * self.small[i % 16]) * np.exp(-1e-3 * i)
        f, g = self.stack
        for i in range(45):  # stacked 2 x 2 products, as in the Jost sweeps
            f = 0.5 * (f @ g) + np.exp(1e-3j * i) * g
        for _ in range(5):  # dense solves, as in the GLM
            np.linalg.solve(self.dense, self.rhs)
        return time.perf_counter() - t0

    def run_for(self, seconds: float) -> None:
        """Time the yardstick at least once and until ``seconds`` are spent."""
        start = time.perf_counter()
        while True:
            self.times.append(self.once())
            if time.perf_counter() - start >= seconds:
                return

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.times)


def run_pass(steps, main) -> tuple[float, list]:
    """Run every step once; return the summed step time and each step's outcome."""
    wall = 0.0
    outcomes = []
    for step in steps:
        shutil.rmtree(step.out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = main(step.argv)
            except Exception:  # a traceback is a failed operation, not a crashed run
                rc = -1
            wall += time.perf_counter() - t0
        outcomes.append((step.name, step.check(rc, step.out)))
    return wall, outcomes


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mstl" / "cli.py").is_file():
        print(f"no mstl sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from mstl.cli import main as mstl_main

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    steps = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    yardstick = Yardstick()
    walls, layers, accuracy = [], [], {}
    attempted = failed = 0
    unknown = []
    start = time.perf_counter()
    n_pass = 0
    # whole passes only: start one more until --seconds are spent
    while n_pass < 2 or time.perf_counter() - start < args.seconds:
        if tracer:
            tracer.reset()
        wall, outcomes = run_pass(steps, mstl_main)
        n, n_failed, faults = workloads.tally(outcomes)
        attempted += n
        failed += n_failed
        unknown += faults
        for _, outcome in outcomes:
            accuracy.update(outcome.accuracy)
        if n_pass == 0:
            warmup = wall
        else:
            walls.append(wall)
            if tracer:
                layers.append(tracer.pass_summary(wall))
        yardstick.run_for(REFERENCE_SHARE * wall)
        n_pass += 1

    for line in sorted(set(unknown)):
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {n_pass} passes, {attempted} operations, {failed} failed; "
          f"warm-up {warmup:.3f} s, pass times {', '.join(f'{w:.3f}' for w in walls)} s; "
          f"yardstick median {statistics.median(yardstick.times):.4f} s "
          f"over {len(yardstick.times)}", file=sys.stderr)

    if tracer:
        metrics = {}
        for name in layers[0]:
            values = [row[name] for row in layers]
            if name.endswith(".calls") or name == "cli.bytes_written":  # exact counts
                unit = "B" if name == "cli.bytes_written" else "count"
                metrics[name] = _metric(statistics.median_low(values), unit)
            else:
                metrics[name] = _metric(statistics.median(values), "s")
        metrics["traced_wall_s"] = _metric(statistics.median(walls) * yardstick.scale(), "s")
        metrics["reference_s"] = _metric(statistics.median(yardstick.times), "s")
        profiles = [import_profile() for _ in range(IMPORT_PROFILES)]
        for name in profiles[0]:
            metrics[name] = _metric(statistics.median(p[name] for p in profiles), "s")
        for name in ACCURACY:
            metrics[name] = _metric(accuracy.get(name, 0.0), "1")
    else:
        setup = [time_setup() for _ in range(SETUP_SAMPLES)]
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.median(walls) * yardstick.scale(), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"correct": not unknown, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
