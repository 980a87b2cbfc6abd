"""Outside-in tracing for the traced benchmark run.

The tracer replaces esst functions with timing wrappers *where their
callers look them up* (``propagate`` is patched in ``esst.cli`` and in
``esst.experiments``, the kernel's helpers in ``esst._rk4_numpy``) and
records one span per call in memory: name, start, end, parent span, thread
and operation.  No esst source changes.  A pool-thread span whose own
thread has no open span gets the open sweep as its parent, so sweeps that
overlap across threads still add up.

Self times are computed per span as its duration minus the union of its
children's intervals, which stays correct when children overlap on
several threads.
"""
from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import esst.areas
import esst.cli
import esst.experiments
import esst._rk4_numpy as kernel

#: Spans that start an operation (one trajectory or one design point).
OPERATION_SPANS = {"propagator.propagate", "analytic.final_populations"}

#: Per-layer metrics of the traced run and their units.  Metric names must
#: start with a letter or digit, so module ``_rk4_numpy`` reports as
#: ``rk4_numpy``; span names keep the module's own name.
PER_LAYER_UNITS = {
    "rk4_numpy.rk4_run_s": "s",
    "rk4_numpy.hamiltonian_s": "s",
    "rk4_numpy.compose_s": "s",
    "rk4_numpy.step_self_s": "s",
    "rk4_numpy.ns_per_step": "ns",
    "rk4_numpy.h_evals": "count",
    "rk4_numpy.h_evals_per_step": "evals/step",
    "rk4_numpy.computed_flops_per_step": "flop/step",
    "rk4_numpy.computed_bytes_per_step": "B/step",
    "propagator.calls": "count",
    "propagator.steps": "count",
    "propagator.self_s": "s",
    "experiments.sweep_s": "s",
    "experiments.self_s": "s",
    "experiments.workers": "count",
    "experiments.busy_over_wall": "ratio",
    "experiments.csv_write_s": "s",
    "experiments.csv_bytes": "B",
    "areas.design_s": "s",
    "areas.complex_area_calls": "count",
    "areas.complex_area_s": "s",
    "areas.quad_nodes": "count",
    "areas.quad_passes_per_area": "ratio",
    "analytic.self_s": "s",
    "cli.main_s": "s",
    "config.load_s": "s",
    "tracing.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    op: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def kernel_cost(n: int, edges: int, pulses: int, stride: int) -> tuple[float, float]:
    """Computed floating-point operations and bytes moved per RK4 step.

    Derived from the array shapes of ``_rk4_numpy.rk4_run``, not measured.
    Conventions: a complex multiply is 6 flops, a complex add 2, a complex
    n x n matmul 8 n^3; exp and cos count as one flop each.  Bytes count
    every operand read and every result written by each numpy operation,
    16 per complex and 8 per real element, ignoring caches.
    """
    n2, n3 = n * n, n * n * n
    merge = (stride - 1) / stride  # compose: stride - 1 matmuls per stride
    # One Hamiltonian evaluation at one time: about 12 real ops per pulse,
    # 7 per edge, and the -1j scaling of the n x n matrix.
    ham_flops = 12 * pulses + 7 * edges + 6 * n2
    ham_bytes = 288 * pulses + 208 * edges + 48 * n2
    flops = (
        3 * ham_flops
        + 3 * (8 * n3 + 4 * n2)  # k2, k3, k4: matmul, scale, add
        + 14 * n2  # step matrix: I + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        + merge * 8 * n3
        + (8 * n2 + 8 * n) / stride  # one matvec and norm per sample
    )
    nbytes = 3 * ham_bytes + 3 * 128 * n2 + 288 * n2 + merge * 48 * n2
    return flops, nbytes


def _kernel_counts(args, result):
    n_steps, stride = int(args[2]), int(args[3])
    flops, nbytes = kernel_cost(args[4].shape[0], args[5].shape[0], args[10].shape[0], stride)
    return {"steps": n_steps, "flops": flops * n_steps, "bytes": nbytes * n_steps}


def _sites():
    """(module, attribute, span name, counter) for every traced call site."""
    propagate_steps = lambda a, r: {"steps": r.grid.n_steps}  # noqa: E731
    return [
        (esst.cli, "main", "cli.main", None),
        (esst.cli, "load_config", "config.load", None),
        (esst.cli, "write_trace_csv", "experiments.csv_write",
         lambda a, r: {"bytes": os.path.getsize(a[0])}),
        (esst.cli, "propagate", "propagator.propagate", propagate_steps),
        (esst.experiments, "propagate", "propagator.propagate", propagate_steps),
        (esst.experiments, "sweep_phase_duration", "experiments.sweep", None),
        (esst.experiments, "sweep_detuning", "experiments.sweep", None),
        (esst.experiments, "designed_pulses", "areas.design", None),
        (esst.experiments, "analytic_final_populations", "analytic.final_populations", None),
        (esst.areas, "complex_area", "areas.complex_area", None),
        (esst.areas, "_panel_quad", "areas.panel_quad",
         lambda a, r: {"nodes": int(a[3]) * esst.areas._GL_NODES.size}),
        (kernel, "rk4_run", "_rk4_numpy.rk4_run", _kernel_counts),
        (kernel, "_hamiltonian_batch", "_rk4_numpy.hamiltonian",
         lambda a, r: {"evals": len(a[0])}),
        (kernel, "_compose_ordered", "_rk4_numpy.compose", None),
    ]


class Tracer:
    """Records spans of the esst calls made while installed."""

    def __init__(self) -> None:
        self.passes: list[list[Span]] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._sweep: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Start a traced pass: wrap every call site."""
        self.passes.append([])
        for module, attr, name, count in _sites():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def remove(self) -> None:
        """End the traced pass: put every original function back."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        spans = self.passes[-1]

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._sweep
            if name in OPERATION_SPANS:
                op = next(self._ops)
            else:
                op = stack[-1].op if stack else None
            span = Span(next(self._ids), name, parent and parent.id,
                        threading.get_ident(), op, time.perf_counter())
            stack.append(span)
            is_sweep = name == "experiments.sweep"
            if is_sweep:
                outer_sweep, self._sweep = self._sweep, span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_sweep:
                    self._sweep = outer_sweep
                spans.append(span)
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    def write(self, path: str, header: dict) -> None:
        """Write every recorded span as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for index, spans in enumerate(self.passes):
                for span in spans:
                    fh.write(json.dumps({"pass": index, **asdict(span)}) + "\n")


def _union(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer did no work)."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name):
        return sum(
            (s.end - s.start)
            - _union([(c.start, c.end) for c in children[s.id]], s.start, s.end)
            for s in by_name[name]
        )

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    steps = count("_rk4_numpy.rk4_run", "steps")
    h_evals = count("_rk4_numpy.hamiltonian", "evals")
    rk4_s = busy("_rk4_numpy.rk4_run")
    sweeps = by_name["experiments.sweep"]
    sweep_s = busy("experiments.sweep")
    sweep_children = [c for s in sweeps for c in children[s.id]]
    areas = len(by_name["areas.complex_area"])
    return {
        "rk4_numpy.rk4_run_s": rk4_s,
        "rk4_numpy.hamiltonian_s": busy("_rk4_numpy.hamiltonian"),
        "rk4_numpy.compose_s": busy("_rk4_numpy.compose"),
        "rk4_numpy.step_self_s": self_time("_rk4_numpy.rk4_run"),
        "rk4_numpy.ns_per_step": ratio(rk4_s * 1e9, steps),
        "rk4_numpy.h_evals": h_evals,
        "rk4_numpy.h_evals_per_step": ratio(h_evals, steps),
        "rk4_numpy.computed_flops_per_step": ratio(count("_rk4_numpy.rk4_run", "flops"), steps),
        "rk4_numpy.computed_bytes_per_step": ratio(count("_rk4_numpy.rk4_run", "bytes"), steps),
        "propagator.calls": len(by_name["propagator.propagate"]),
        "propagator.steps": count("propagator.propagate", "steps"),
        "propagator.self_s": self_time("propagator.propagate"),
        "experiments.sweep_s": sweep_s,
        "experiments.self_s": self_time("experiments.sweep"),
        "experiments.workers": len({c.thread for c in sweep_children}),
        "experiments.busy_over_wall": ratio(sum(c.end - c.start for c in sweep_children), sweep_s),
        "experiments.csv_write_s": busy("experiments.csv_write"),
        "experiments.csv_bytes": count("experiments.csv_write", "bytes"),
        "areas.design_s": busy("areas.design"),
        "areas.complex_area_calls": areas,
        "areas.complex_area_s": busy("areas.complex_area"),
        "areas.quad_nodes": count("areas.panel_quad", "nodes"),
        "areas.quad_passes_per_area": ratio(len(by_name["areas.panel_quad"]), areas),
        "analytic.self_s": self_time("analytic.final_populations"),
        "cli.main_s": busy("cli.main"),
        "config.load_s": busy("config.load"),
    }


def layer_metrics(tracer: Tracer, traced_walls, untraced_walls) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead: median traced pass wall time minus median untraced."""
    per_pass = [pass_metrics(spans) for spans in tracer.passes]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["tracing.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out
