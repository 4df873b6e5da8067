"""Spans around the calls into each layer of polariton, recorded from the
benchmark's own files.

A layer is one module of ``src/polariton``.  ``Tracer.install`` wraps every
public function of those modules and swaps the wrapper in wherever a module
attribute, or a value of a module-level dict, *is* the original function:
``from .model import build_dicke_hamiltonian`` copies the reference into
other modules, and the builder registries hold references of their own.
``cli`` is not wrapped; each op's root span is the ``cli.main`` call.

Sweep points run on the CLI's worker-pool thread even with one worker, so
a span with no open parent in its own thread is parented to the root span
of the running op, which all threads share.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("model", "spectral", "holstein_primakoff", "witness", "dynamics", "classical", "svg")

# Per-layer time metrics: the self time of spans entered from another layer
# through one of these functions, together with the self time of the
# same-layer calls they make.
GROUPS = {
    "model.build_s": {
        "build_dicke_hamiltonian", "build_bilinear_hamiltonian",
        "build_jc_rwa_hamiltonian", "total_excitation_operator",
    },
    "model.expectation_s": {"expectation"},
    "spectral.eigendecompose_s": {"eigendecompose"},
    "spectral.ground_state_s": {"ground_state"},
    "witness.evaluate_s": {"witness_evaluate"},
    "witness.reduced_density_s": {"reduced_density"},
    "witness.entropy_s": {
        "linear_entropy", "gaussian_linear_entropy", "gaussian_ground_state",
        "linear_entropy_predicted",
    },
    "dynamics.rabi_flop_s": {"rabi_flop_signal"},
    "dynamics.semiclassical_s": {"semiclassical_trajectory"},
    "dynamics.vacuum_correlation_s": {"vacuum_correlation_spectrum"},
    "dynamics.flop_spectrum_s": {"flop_spectrum"},
    "classical.transmission_s": {"transmission_spectrum"},
    "classical.peak_splitting_s": {"peak_splitting"},
    "classical.agreement_s": {"classical_quantum_agreement"},
}
# Whole-layer self time, where the layer has more public functions than
# its groups cover; the holstein_primakoff and svg layers are one group each.
LAYER_TOTALS = {
    "model": "model.self_s",
    "spectral": "spectral.self_s",
    "holstein_primakoff": "holstein_primakoff.check_s",
    "witness": "witness.self_s",
    "dynamics": "dynamics.self_s",
    "classical": "classical.self_s",
    "svg": "svg.line_chart_s",
}
BUILDERS = GROUPS["model.build_s"]


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counted at the layer boundary from one call's arguments and result."""
    if name in BUILDERS:
        return {"model.build_calls": 1, "model.build_max_dim": result.dim}
    if name == "eigendecompose":
        return {"spectral.eigendecompose_calls": 1, "spectral.pairs_computed": result.count}
    if name in ("rabi_flop_signal", "semiclassical_trajectory"):
        return {"dynamics.samples": result.times.size}
    if name == "vacuum_correlation_spectrum":
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        return {"dynamics.samples": grid.n_samples}
    if name == "transmission_spectrum":
        return {"classical.grid_points": result.frequencies.size}
    if name == "peak_splitting":
        return {"classical.peaks_analysed": 1, "classical.peaks_split": int(result.flag == "split")}
    if name == "line_chart":
        return {"svg.points": len(args[0])}
    return {}


@dataclass(eq=False)
class Span:
    layer: str
    name: str
    key: str  # the function through which the layer was entered
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)
    base_bytes: int = 0
    max_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass(eq=False)
class OpTrace:
    """Spans of one op, rooted at its ``cli.main`` call."""

    op_id: int
    verb: str
    root: Span
    spans: list = field(default_factory=list)

    @property
    def cli_self(self) -> float:
        return self.root.self_time


class Tracer:
    """Records spans around polariton's public functions while installed.

    With ``memory`` set, each span also records the tracemalloc peak inside
    it, relative to the traced memory when it started.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.ops: list[OpTrace] = []
        self._op: OpTrace | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[Span] = []  # memory mode: spans open in any thread
        self._patches: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"polariton.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    originals[id(fn)] = (fn, self._wrap(layer, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "polariton" and not modname.startswith("polariton."):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(namespace, name, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._patch(value, key, originals[id(item)][1])
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()
        if self.memory:
            tracemalloc.stop()

    def _patch(self, container: dict, key, wrapper) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    def _wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, name, fn, args, kwargs)

        return wrapper

    # -------------------------------------------------------------- spans

    @contextlib.contextmanager
    def op(self, op_id: int, verb: str):
        """Root span of one op; every span recorded until it closes belongs to it."""
        trace = OpTrace(op_id, verb, Span("cli", verb, "cli"))
        self._op = trace
        trace.root.start = time.perf_counter()
        try:
            yield trace
        finally:
            trace.root.end = time.perf_counter()
            self._op = None
            self.ops.append(trace)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer, name, fn, args, kwargs):
        op = self._op
        if op is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else op.root
        span = Span(layer, name, parent.key if parent.layer == layer else name)
        stack.append(span)
        if self.memory:
            self._memory_mark(opening=span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if self.memory:
                self._memory_mark(closing=span)
            stack.pop()
            with self._lock:
                parent.child_time += span.duration
                op.spans.append(span)
        span.counts = _counts(name, args, kwargs, result)
        return result

    def _memory_mark(self, opening: Span | None = None, closing: Span | None = None) -> None:
        with self._lock:
            current, peak = tracemalloc.get_traced_memory()
            for span in self._open:
                span.max_bytes = max(span.max_bytes, peak)
            tracemalloc.reset_peak()
            if opening is not None:
                opening.base_bytes = opening.max_bytes = current
                self._open.append(opening)
            if closing is not None:
                self._open.remove(closing)


def layer_metrics(ops: list[OpTrace]) -> dict:
    """Per-layer times and counts summed over the given ops."""
    out = dict.fromkeys(list(GROUPS) + list(LAYER_TOTALS.values()), 0.0)
    out["cli.self_s"] = 0.0
    for op in ops:
        out["cli.self_s"] += op.cli_self
        for span in op.spans:
            out[LAYER_TOTALS[span.layer]] += span.self_time
            for metric, names in GROUPS.items():
                if metric.startswith(span.layer + ".") and span.key in names:
                    out[metric] += span.self_time
            for name, value in span.counts.items():
                if name == "model.build_max_dim":
                    out[name] = max(out.get(name, 0), value)
                else:
                    out[name] = out.get(name, 0) + value
    return out


def sum_gap(op: OpTrace) -> float:
    """|layer self times + cli self time - traced verb wall time| for one op."""
    total = op.cli_self + sum(span.self_time for span in op.spans)
    return abs(total - op.root.duration)


def peak_mb(ops: list[OpTrace], names) -> float:
    """Largest tracemalloc peak, in MB, inside any span of the named functions."""
    peaks = [s.max_bytes - s.base_bytes for op in ops for s in op.spans if s.name in names]
    return max(peaks, default=0) / 2**20
