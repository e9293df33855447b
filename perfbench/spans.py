"""Spans around the public functions of each mstl layer, installed from outside.

``Tracer.install()`` replaces every binding a caller uses (module attributes
and names imported by other modules) with a wrapper that records one span:
name, start, end and parent.  Spans stay in memory; ``pass_summary`` turns
the spans of one pass into self times and exact call counts.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import os
import time
from dataclasses import dataclass

# layer name -> the (module, attribute) bindings that callers reach it through
LAYERS = {
    "forward.scattering_coefficients": [("mstl.forward", "scattering_coefficients")],
    "forward.find_bound_states": [("mstl.forward", "find_bound_states")],
    "forward.residue_matrix": [("mstl.forward", "residue_matrix")],
    "forward.weight_matrices": [("mstl.forward", "weight_matrices")],
    "glm.assemble_M": [("mstl.glm", "assemble_M")],
    "glm.invert": [("mstl.glm", "invert")],
    "solitons.separable_glm_solve": [
        ("mstl.solitons", "separable_glm_solve"),
        ("mstl.kdv", "separable_glm_solve"),
    ],
    "solitons.build_projector_chain": [("mstl.solitons", "build_projector_chain")],
    "kdv.soliton_trajectory": [("mstl.kdv", "soliton_trajectory")],
    "conditions.check_condition_A": [("mstl.conditions", "check_condition_A")],
    "conditions.check_condition_B_numeric": [("mstl.conditions", "check_condition_B_numeric")],
    "cli.io": [
        ("mstl.cli", "read_potential_csv"),
        ("mstl.cli", "write_potential_csv"),
        ("mstl.cli", "read_scattering_json"),
        ("mstl.cli", "write_scattering_json"),
        ("mstl.cli", "write_trajectory_csv"),
        ("mstl.cli", "write_report"),
    ],
    "domain.sampling": [
        ("mstl.domain", "bump_potential"),
        ("mstl.domain", "box_potential"),
        ("mstl.domain", "random_potential"),
        ("mstl.domain", "zero_potential"),
        ("mstl.cli", "bump_potential"),
        ("mstl.cli", "box_potential"),
        ("mstl.cli", "random_potential"),
        ("mstl.cli", "zero_potential"),
    ],
}

# cli writers take the output path first; their bytes are counted
_WRITERS = {"write_potential_csv", "write_scattering_json", "write_trajectory_csv", "write_report"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.bytes_written = 0
        self._current = contextvars.ContextVar("perfbench_span", default=-1)

    def _wrap(self, name, fn, count_bytes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._current.get())
            self.spans.append(span)
            token = self._current.set(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._current.reset(token)
                span.end = time.perf_counter()
            if count_bytes:
                self.bytes_written += os.path.getsize(args[0])
            return result

        return traced

    def install(self):
        for name, bindings in LAYERS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                count = module_name == "mstl.cli" and attr in _WRITERS
                setattr(module, attr, self._wrap(name, getattr(module, attr), count))

    def reset(self):
        self.spans.clear()
        self.bytes_written = 0

    def pass_summary(self, pass_wall: float) -> dict:
        """Self time and calls per layer, and the pass time outside every span.

        The wrapped functions run on the caller's thread, so child spans run one
        after another and their durations add up to the time they cover.
        """
        child = [0.0] * len(self.spans)
        top = 0.0
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
            else:
                top += s.end - s.start
        out = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for s, c in zip(self.spans, child):
            out[f"{s.name}.self_s"] += (s.end - s.start) - c
            out[f"{s.name}.calls"] += 1
        out["cli.bytes_written"] = self.bytes_written
        out["untraced_s"] = pass_wall - top
        return out
