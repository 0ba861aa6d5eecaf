"""Spans around the calls into each layer of robust_shannon, recorded from outside.

`Tracer.install()` replaces each public function listed in LAYERS, in every
`robust_shannon` module namespace that binds it, by a wrapper that records a
span: layer, parent span, op index, start and end. `SpdMatrix` is traced
through `__post_init__` on the class, which runs once per construction. Spans
stay in memory until `metrics()` reduces them and `save()` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, public name) pairs, timed at the call boundary.
LAYERS = (
    ("psd_geometry", "SpdMatrix"),
    ("psd_geometry", "random_psd_in_ball"),
    ("psd_geometry", "bw_distance"),
    ("psd_geometry", "transport_map"),
    ("classical", "rdf_from_spectrum"),
    ("classical", "capacity_from_gains"),
    ("classical", "gaussian_capacity"),
    ("compound", "compound_rdf"),
    ("compound", "compound_capacity"),
    ("compound", "sweep_compound"),
    ("oracle", "linear_sum_assignment"),
    ("oracle", "empirical_w2"),
    ("oracle", "sample_gaussian"),
    ("oracle", "brute_force_compound"),
    ("cli", "main"),
    ("cli", "emit"),
    ("cli", "load_covariance"),
)
LAYER_NAMES = tuple(f"{module}.{name}" for module, name in LAYERS)
SOLVERS = ("compound.compound_rdf", "compound.compound_capacity")
WATERFILLS = ("classical.rdf_from_spectrum", "classical.capacity_from_gains")
OVERHEAD_METRIC = "trace.overhead_frac"


def metric_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units["compound.iterations_per_solve"] = "count"
    units["compound.waterfills_per_iteration"] = "count"
    units[OVERHEAD_METRIC] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1  # index of the op in progress; spans of one op share it
        self._stack = [-1]
        self.layer = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iterations = array("i")  # solver spans: diagnostics.iterations

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "robust_shannon"]
        for layer_id, (module, name) in enumerate(LAYERS):
            target = getattr(sys.modules[f"robust_shannon.{module}"], name)
            if isinstance(target, type):
                target.__post_init__ = self._wrap(layer_id, target.__post_init__)
                continue
            wrapped = self._wrap(layer_id, target)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, key, wrapped)

    def _wrap(self, layer_id, fn):
        is_solver = LAYER_NAMES[layer_id] in SOLVERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(self._stack[-1])
            self.op_index.append(self.op)
            self.iterations.append(0)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self._stack.pop()
            if is_solver:
                self.iterations[index] = result.diagnostics.iterations
            return result

        return traced

    def metrics(self, ops: int, overhead_frac: float) -> dict:
        """Per-op calls and self time of each layer, plus the solver ratios."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=layer.size)
        self_time = duration - covered
        out = {}
        for layer_id, name in enumerate(LAYER_NAMES):
            mine = layer == layer_id
            out[f"{name}.calls"] = int(mine.sum()) / ops
            out[f"{name}.self_s"] = float(self_time[mine].sum()) / ops
        solver = np.isin(layer, [LAYER_NAMES.index(n) for n in SOLVERS])
        iterations = int(np.frombuffer(self.iterations, dtype=np.int32)[solver].sum())
        # A waterfill counts as solver work when any ancestor span is a solve.
        under_solver = np.zeros(layer.size, dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            has = ancestor >= 0
            under_solver[has] |= solver[ancestor[has]]
            ancestor[has] = parent[ancestor[has]]
        waterfill = np.isin(layer, [LAYER_NAMES.index(n) for n in WATERFILLS])
        out["compound.iterations_per_solve"] = iterations / max(int(solver.sum()), 1)
        out["compound.waterfills_per_iteration"] = int((waterfill & under_solver).sum()) / max(iterations, 1)
        out[OVERHEAD_METRIC] = overhead_frac
        return out

    def save(self, path):
        np.savez(
            path,
            layers=np.array(LAYER_NAMES),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_index, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            iterations=np.frombuffer(self.iterations, dtype=np.int32),
        )
