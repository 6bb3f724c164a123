"""djensemble benchmark: one client in a closed loop, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 15 --trace 0

A run measures set-up time in fresh processes, imports the package from
``src/``, runs one warm-up op, then runs ops back to back for
``--seconds`` (and at least ``MIN_OPS`` ops) and checks every op's output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with every listed package function wrapped in a
span, and reports per-op layer metrics (see ``tracer.py``).

End-to-end times are calibrated: a fixed kernel that does not touch the
package runs between ops (and between set-up processes), and each time is
scaled by ``CAL_REF_S`` over the kernel's time around it. The host's speed
drifts by tens of percent over seconds; the ratio cancels that drift but
not a change in the package. Raw wall times are kept in the full record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it, ``meta``,
holds the run's metadata. The full record, and in traced runs the spans,
are written under ``.perfbench_out/`` in the checkout. The exit code is 0
only when every op gave the expected output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS and OpenMP pools are pinned before numpy is first imported; one
# thread keeps the single-client loop steady and never exceeds nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The tail percentile needs at least ten ops beyond it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
MIN_TRACED_OPS = 2
SETUP_REPEATS = 9
SETUP_CODE = (
    "import djensemble.cli\n"
    "from djensemble.params import PRESETS, ensemble_config_from_report, required_detuning\n"
    "spec = PRESETS['cs-cell']\n"
    "ensemble_config_from_report(spec, required_detuning(spec))\n"
)

# Per-layer metrics printed by a traced run. Times of functions that some
# workload never calls are kept in the full record only, so every listed time
# is measured on every workload.
PER_LAYER_TIMES = (
    "qstate.self_s",
    "polarization.self_s",
    "ensemble.self_s",
    "protocol.self_s",
    "params.self_s",
    "qstate.born_distribution.self_s",
    "qstate.embed.self_s",
    "qstate.expm_hermitian.self_s",
    "polarization.embed_single.total_s",
    "ensemble.u_eff_exact.total_s",
    "protocol.run_protocol.total_s",
    "protocol.run_protocol.self_s",
)
PER_LAYER_COUNTERS = (
    ("qstate.sample_shots.shots", "count"),
    ("manybody.atoms_simulated", "count"),
    ("manybody.dicke_bytes_computed", "B"),
    ("ensemble.paper_map.linear_extensions", "count"),
    ("ensemble.paper_map.post_selection_mean", "ratio"),
)


# Calibration kernel: interpreter work, small-array numpy dispatch, a dense
# matmul, an FFT, a pass over a few MB and the creation of many small seeded
# generators, like the package's own mix. CAL_REF_S is its usual time on a
# 2-vCPU x86-64 cloud host, so calibrated times read as seconds on that host
# at its usual speed. The host's speed also jitters from one millisecond to
# the next, so each calibration point repeats the kernel for at least
# CAL_MIN_REPEATS runs and CAL_SHARE of the op it follows.
CAL_REF_S = 0.010
CAL_MIN_REPEATS = 3
CAL_SHARE = 0.05
_CAL = {}


def _kernel_s(np) -> float:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    digits = 0
    for i in range(6000):
        counts[i % 61] = counts.get(i % 61, 0) + i
        digits += len(str(i))
    a = _CAL["ramp"][:32].copy()
    for _ in range(400):
        a = (a * 0.999 + 0.5j).conj()
    m = _CAL["m"]
    for _ in range(8):
        m = m @ _CAL["m"]
        m /= np.abs(m).max()
    power = float((np.abs(np.fft.fft(_CAL["ramp"])) ** 2).sum())
    mass = float(np.abs(_CAL["big"]).sum())
    draws = sum(np.random.Generator(np.random.PCG64(child)).random()
                for child in np.random.SeedSequence(5).spawn(200))
    elapsed = time.perf_counter() - start
    if not (digits and power and mass and 0.0 < draws < 200.0 and np.isfinite(a).all()):
        raise RuntimeError("calibration kernel gave a wrong result")
    return elapsed


def calibration_s(budget_s: float = 0.0) -> float:
    """Median wall time of back-to-back runs of the calibration kernel.

    The kernel runs at least CAL_MIN_REPEATS times and until `budget_s` has
    passed.

    The cyclic garbage collector is off meanwhile, so a collection of the
    objects an op left behind is not charged to the kernel.
    """
    import gc

    import numpy as np

    if not _CAL:
        _CAL["m"] = ((np.arange(64 * 64).reshape(64, 64) % 7 - 3) / 8.0).astype(complex)
        _CAL["ramp"] = np.arange(1 << 14, dtype=complex)
        _CAL["big"] = np.linspace(0.0, 1.0, 1 << 18).astype(complex)
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs: list[float] = []
        while len(runs) < CAL_MIN_REPEATS or sum(runs) < budget_s:
            runs.append(_kernel_s(np))
        return statistics.median(runs)
    finally:
        if enabled:
            gc.enable()


def calibrated(raw: list[float], cals: list[float]) -> list[float]:
    """Scale raw[i] by CAL_REF_S over the mean of the kernel runs before and after it."""
    return [t * 2.0 * CAL_REF_S / (cals[i] + cals[i + 1]) for i, t in enumerate(raw)]


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import the CLI and build the default config.

    One untimed process first writes the bytecode cache, as a user's first
    command would. Returns the raw times and the calibration runs around them.
    """
    env = child_env()
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    cals = []
    for i in range(SETUP_REPEATS + 1):
        if i:
            cals.append(calibration_s(CAL_SHARE * times[-1] if times else 0.0))
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    cals.append(calibration_s(CAL_SHARE * times[-1]))
    return times, cals


def import_package():
    """Import djensemble from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import djensemble

    where = Path(djensemble.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"djensemble was imported from {where}, not from {SRC}")
    return djensemble


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, and its label."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / n


class Loop:
    """Closed loop, one client: the next op starts when the previous one is checked."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last_op_s = 0.0

    def run_one(self, recorder=None) -> tuple[float, float]:
        """One op and its check; returns the op's time and that of inputs, op and check."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        begin = time.perf_counter()
        x = self.workload.inputs(i)
        if recorder is not None:
            recorder.op_id = i
        start = time.perf_counter()
        try:
            result = self.workload.op(x)
            elapsed = time.perf_counter() - start
            errors = self.workload.check(x, result)
        except (Exception, SystemExit):  # argparse exits; either way the op failed and the loop goes on
            elapsed = time.perf_counter() - start
            errors = [f"op {i} raised:\n{traceback.format_exc()}"]
        if errors:
            self.failed += 1
            self.errors.extend(f"op {i}: {e}" for e in errors)
        self.last_op_s = elapsed
        return elapsed, time.perf_counter() - begin

    def run_for(self, seconds: float, min_ops: int, recorder=None) -> dict:
        """Ops until `seconds` have passed and `min_ops` are done, in whole cycles.

        The calibration kernel runs before the first op and after every op.
        """
        cycle = self.workload.cycle
        times: list[float] = []
        busy: list[float] = []
        cals = [calibration_s(CAL_SHARE * self.last_op_s)]
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or len(times) < min_ops
               or len(times) % cycle):
            op, whole = self.run_one(recorder)
            times.append(op)
            busy.append(whole)
            cals.append(calibration_s(CAL_SHARE * op))
        return {"times": times, "busy": busy, "cals": cals, "wall": time.perf_counter() - start}

    @staticmethod
    def rate(timing: dict) -> float:
        """Ops per calibrated second of inputs, op and check."""
        return len(timing["busy"]) / sum(calibrated(timing["busy"], timing["cals"]))


def end_to_end(loop: Loop, timing: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    times = calibrated(timing["times"], timing["cals"])
    setup_times = calibrated(*setup)
    value, percentile = tail(times)
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (Loop.rate(timing), "1/s"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_tail, _ = tail(timing["times"])
    extra = {
        "op_tail_percentile": percentile,
        "op_samples": len(times),
        "loop_wall_s": timing["wall"],
        "raw": {
            "op_p50_s": statistics.median(timing["times"]),
            "op_tail_s": raw_tail,
            "ops_per_s": len(times) / sum(timing["busy"]),
            "setup_s": statistics.median(setup[0]),
        },
        "calibration_ref_s": CAL_REF_S,
        "calibration_s": timing["cals"],
        "setup_calibration_s": setup[1],
        "setup_samples_s": setup[0],
        "op_times_s": timing["times"],
    }
    return metrics, extra


def per_layer(recorder, traced_ops: list[int], untraced_rate: float, traced_rate: float):
    import tracer

    n = len(traced_ops)
    functions = recorder.per_function()
    record = {}
    for name, rec in functions.items():
        for key, v in rec.items():
            record[f"{name}.{key}"] = v / n
    for layer, names in tracer.LAYERS.items():
        record[f"{layer}.self_s"] = sum(functions[f"{layer}.{f}"]["self_s"] for f in names) / n
    totals: dict[str, float] = {}
    for i in traced_ops:
        for key, v in recorder.op_counts(i).items():
            totals[key] = totals.get(key, 0) + v
    for key in ("qstate.sample_shots.shots", "manybody.atoms_simulated",
                "manybody.dicke_bytes_computed", "ensemble.paper_map.linear_extensions"):
        record[key] = totals.get(key, 0) / n
    attempts = totals.get("ensemble.paper_map.attempts", 0)
    record["ensemble.paper_map.post_selection_mean"] = (
        totals.get("ensemble.paper_map.post_selection_sum", 0.0) / attempts if attempts else 0.0
    )
    record["trace.ops_per_s_untraced"] = untraced_rate
    record["trace.ops_per_s_traced"] = traced_rate
    record["trace.overhead_ops_per_s"] = untraced_rate - traced_rate

    metrics = {}
    for fn in tracer.SPAN_NAMES:
        if not fn.startswith("checks."):
            metrics[f"{fn}.calls"] = (record[f"{fn}.calls"], "count")
    for key in PER_LAYER_TIMES:
        metrics[key] = (record[key], "s")
    for key, unit in PER_LAYER_COUNTERS:
        metrics[key] = (record[key], unit)
    for key in ("trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_ops_per_s"):
        metrics[key] = (record[key], "1/s")
    return metrics, record


def per_op_work_errors(recorder, workload, traced_ops: list[int]) -> list[str]:
    """Every listed function is called, and ops one cycle apart do identical work."""
    errors = []
    calls = recorder.per_function()
    for name in sorted(workload.expected_calls):
        if calls[name]["calls"] == 0:
            errors.append(f"self-test: {name} recorded no calls on {workload.name}")
    for a, b in zip(traced_ops, traced_ops[workload.cycle:]):
        if recorder.op_counts(a) != recorder.op_counts(b):
            errors.append(f"self-test: ops {a} and {b} did different work")
    return errors


def metadata(args, np, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_sizes": workload.sizes,
        "cycle": workload.cycle,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "warnings_sink": "root logger -> counting null handler; py.warnings captured",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit", "catalog", "sample", "large-n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "djensemble" / "__init__.py").is_file():
        print(f"error: no djensemble package under {SRC}", file=sys.stderr)
        return 2
    setup = ([], []) if args.trace else measure_setup()
    import_package()
    import logging

    import numpy as np

    import tracer
    import workloads

    sink = tracer.LogSink()
    logging.getLogger().addHandler(sink)
    logging.captureWarnings(True)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        loop = Loop(workload)
        loop.run_one()  # warm-up: fills caches, not timed
        extra = {}
        if args.trace:
            half = args.seconds / 2.0
            untraced_rate = Loop.rate(loop.run_for(half, MIN_TRACED_OPS))
            recorder = tracer.SpanRecorder()
            first = loop.next_op
            with tracer.traced(recorder, sink):
                traced_rate = Loop.rate(loop.run_for(half, MIN_TRACED_OPS, recorder))
            traced_ops = list(range(first, loop.next_op))
            metrics, record = per_layer(recorder, traced_ops, untraced_rate, traced_rate)
            loop.errors.extend(per_op_work_errors(recorder, workload, traced_ops))
            extra = {"per_layer_full": record, "traced_ops": len(traced_ops)}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(recorder.dump()), encoding="utf-8")
        else:
            metrics, extra = end_to_end(loop, loop.run_for(args.seconds, MIN_OPS), setup)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    meta = metadata(args, np, workload)
    meta["warnings_dropped"] = sink.dropped
    if "op_tail_percentile" in extra:
        meta["op_tail_percentile"] = round(extra["op_tail_percentile"], 2)
        meta["op_samples"] = extra["op_samples"]
    correct = not loop.errors
    for e in loop.errors:
        print(e, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:48s} {value:.6g} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"result": result, "meta": meta, **extra}, indent=1),
                           encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
