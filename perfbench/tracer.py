"""Span recorder for the traced benchmark run.

The package is not instrumented. Instead, each public function listed in
``LAYERS`` is replaced, for the duration of the traced loop, by a wrapper
that opens a span before the call and closes it after. The wrapper is
installed under every name that refers to the function in any loaded
``djensemble`` module, because modules import each other's functions by
name (``cli.sample_shots`` and ``checks.sample_shots`` are both the
``qstate`` function) and a call through an unpatched alias would be missed.

Spans are kept in flat in-memory lists and written out once at the end.
Self time is computed from them afterwards: a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import logging
import sys
import time
from collections import Counter, defaultdict

# The layers are the package's modules; the names are the public functions
# whose calls are timed. "Class.method" names patch the class attribute.
LAYERS = {
    "qstate": ("sample_shots", "born_distribution", "embed", "expm_hermitian"),
    "polarization": ("embed_single", "gadget_compose", "composite_h"),
    "ensemble": (
        "u_eff_exact",
        "u_eff_paper",
        "PaperPolarizerMap.apply",
        "check_phases_claim",
        "microwave_rotation",
    ),
    "manybody": (
        "full_simulate_naive",
        "full_simulate_dicke",
        "symmetric_rotation",
        "coherent_dicke_amplitudes",
    ),
    "protocol": (
        "run_protocol",
        "exact_operation_sequence",
        "reference_dj_circuit",
        "enumerate_functions",
    ),
    "params": ("required_detuning",),
    "checks": (
        "check_wave_plate_gadgets",
        "check_microwave_pulses",
        "check_composite_rotations",
        "check_hamiltonian_forms",
        "check_medium_unitarity",
        "check_polarizer_claim",
        "check_naive_vs_collective",
        "check_dicke_vs_naive",
        "check_feasibility_presets",
        "check_protocol_patterns",
        "check_reference_circuit",
        "check_sampling",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# Bytes of one materialized symmetric-sector array: (N+1) x 4 complex128.
# This is computed from N, not measured.
_DICKE_BYTES_PER_LEVEL = 4 * 16


class SpanRecorder:
    """Flat span store: one entry per wrapped call, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.op_id = -1
        # per-op exact counts: calls per span name and the work counters
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self.counts[self.op_id][f"{name}.calls"] += 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[self.op_id][name] += value

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s summed over all spans of each name."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def op_counts(self, op_id: int) -> dict[str, float]:
        return dict(self.counts.get(op_id, {}))

    def dump(self) -> dict:
        """Spans as parallel columns; start and end are perf_counter seconds."""
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, s, e, p, o]
                for n, s, e, p, o in zip(
                    self.names, self.starts, self.ends, self.parents, self.op_ids
                )
            ],
        }


class LogSink(logging.Handler):
    """Null sink for the package's log warnings that counts what it drops.

    It is installed on the root logger in every run, traced or not, so that
    ``cli.main``'s ``basicConfig`` finds a handler and adds no stderr stream.
    While a recorder is attached, each linear-extension warning of the
    declared polarizer map is counted against the current op.
    """

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.recorder: SpanRecorder | None = None
        self.dropped = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.dropped += 1
        if (
            self.recorder is not None
            and record.name == "djensemble.ensemble"
            and "linear extension" in record.getMessage()
        ):
            self.recorder.count("ensemble.paper_map.linear_extensions", 1)


def _bound_arg(sig: inspect.Signature, args, kwargs, name: str):
    return sig.bind(*args, **kwargs).arguments[name]


def _counter_hook(span: str, fn):
    """Work counters read from a wrapped call's arguments or result."""
    sig = inspect.signature(fn)
    if span == "qstate.sample_shots":
        return lambda rec, a, k, r: rec.count(
            "qstate.sample_shots.shots", int(_bound_arg(sig, a, k, "shots"))
        )
    if span in ("manybody.full_simulate_naive", "manybody.full_simulate_dicke"):
        return lambda rec, a, k, r: rec.count(
            "manybody.atoms_simulated", int(_bound_arg(sig, a, k, "n_atoms"))
        )
    if span == "manybody.coherent_dicke_amplitudes":
        return lambda rec, a, k, r: rec.count(
            "manybody.dicke_bytes_computed",
            (int(_bound_arg(sig, a, k, "n_atoms")) + 1) * _DICKE_BYTES_PER_LEVEL,
        )
    if span == "ensemble.PaperPolarizerMap.apply":

        def paper_map(rec, a, k, r):
            rec.count("ensemble.paper_map.attempts", 1)
            rec.count("ensemble.paper_map.post_selection_sum", float(r.post_selection_probability))

        return paper_map
    return None


def _wrap(fn, span: str, recorder: SpanRecorder):
    hook = _counter_hook(span, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if hook is not None:
            hook(recorder, args, kwargs, result)
        return result

    return wrapper


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "djensemble" and m]


@contextlib.contextmanager
def traced(recorder: SpanRecorder, sink: LogSink):
    """Install span wrappers on every alias of every listed function.

    The package must already be imported.
    """
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
    undo: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}
    try:
        for layer, names in LAYERS.items():
            module = modules[layer]
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                wrapper = _wrap(original, f"{layer}.{name}", recorder)
                wrappers[id(original)] = wrapper
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        # aliases: names bound by `from x import f`, and tuples of functions
        # such as checks.ALL_CHECKS
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    undo.append((module, key, value))
                    setattr(module, key, wrappers[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    undo.append((module, key, value))
                    setattr(module, key, tuple(wrappers.get(id(v), v) for v in value))
        sink.recorder = recorder
        yield recorder
    finally:
        sink.recorder = None
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
