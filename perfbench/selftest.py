"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, for every workload, that
  * two different seeds give identical exact counts per op (calls of every
    listed function, shots sampled, atoms simulated, symmetric-sector bytes,
    polarizer-map applications and linear extensions), so the seed changes
    choices but never the amount of work;
  * every function the workload is known to call records at least one call
    under the tracer (a wrapper missed on some alias would record zero);
that the metric names and units a run prints are those BENCHMARK.json
declares; and that the benchmark, copied into a directory without the
package, exits with a non-zero code and prints no result. It also prints,
as information, the span with the largest total time on each workload.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (11, 12)
OPS = 2  # traced ops per workload and seed, after one untraced warm-up op


def traced_counts(workloads, tracer, sink, name: str, seed: int, scratch: Path):
    workload = workloads.WORKLOADS[name](seed, scratch)
    try:
        loop = run.Loop(workload)
        loop.run_one()
        recorder = tracer.SpanRecorder()
        first = loop.next_op
        with tracer.traced(recorder, sink):
            for _ in range(OPS):
                loop.run_one(recorder)
    finally:
        workload.close()
    ops = list(range(first, loop.next_op))
    return loop, recorder, ops, workload


def check_workloads() -> list[str]:
    import logging

    import tracer
    import workloads

    sink = tracer.LogSink()
    logging.getLogger().addHandler(sink)
    failures = []
    declared_checked = False
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        per_seed = []
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
                loop, recorder, ops, workload = traced_counts(
                    workloads, tracer, sink, name, seed, Path(scratch))
            failures += [f"{name} seed {seed}: {e}" for e in loop.errors]
            failures += [f"{name} seed {seed}: {e}"
                         for e in run.per_op_work_errors(recorder, workload, ops)]
            per_seed.append([recorder.op_counts(i) for i in ops])
            if not declared_checked:
                failures += check_declared_metrics(recorder, ops)
                declared_checked = True
            functions = recorder.per_function()
        if per_seed[0] != per_seed[1]:
            for i, (a, b) in enumerate(zip(*per_seed)):
                diff = {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
                if diff:
                    failures.append(f"{name}: op {i} counts differ between seeds in {sorted(diff)}")
        hottest = max((rec["total_s"], span) for span, rec in functions.items()
                      if span != "cli.main" and not span.startswith("checks."))
        print(f"{name:8s} counts per op equal across seeds {SEEDS}: "
              f"{per_seed[0] == per_seed[1]}; largest total below cli: {hottest[1]} "
              f"({hottest[0] / OPS:.3f} s/op)")
    return failures


def check_stripped_checkout() -> list[str]:
    """Without the package, the benchmark must fail fast and print no result."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bench = Path(tmp)
        shutil.copy2(run.ROOT / "BENCHMARK.json", bench / "BENCHMARK.json")
        shutil.copytree(run.ROOT / "perfbench", bench / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bench, capture_output=True, text=True, timeout=180,
        )
    lines = proc.stdout.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{")
    print(f"stripped checkout: exit {proc.returncode}, printed a result: {printed_result}")
    if proc.returncode == 0 or printed_result:
        return ["stripped checkout: expected a non-zero exit and no result line"]
    return []


def check_declared_metrics(recorder, ops) -> list[str]:
    """The metric names and units a run prints are the ones BENCHMARK.json declares."""
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    loop = run.Loop(None)
    loop.attempted = 1
    printed = {
        "end_to_end": run.end_to_end(loop, {
            "times": [1.0] * run.MIN_OPS, "busy": [1.0] * run.MIN_OPS,
            "cals": [run.CAL_REF_S] * (run.MIN_OPS + 1), "wall": 1.0,
        }, ([1.0], [run.CAL_REF_S] * 2))[0],
        "per_layer": run.per_layer(recorder, ops, 1.0, 1.0)[0],
    }
    failures = []
    for kind, metrics in printed.items():
        want = {m["name"]: m["unit"] for m in declared[kind]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        if want != got:
            failures.append(f"{kind}: BENCHMARK.json declares {sorted(want.items() - got.items())}, "
                            f"a run prints {sorted(got.items() - want.items())}")
    return failures


def check_tail() -> list[str]:
    times = [float(i) for i in range(1, 21)]
    value, percentile = run.tail(times)
    # 20 ops: the 10th smallest has exactly ten ops beyond it
    if (value, percentile) != (10.0, 50.0):
        return [f"tail of 1..20 gave {value} at p{percentile}"]
    return []


def check_calibrated() -> list[str]:
    ref = run.CAL_REF_S
    # a kernel at its reference time leaves a time as it is; a host running at
    # half speed (kernel twice as slow before and after) halves it back
    got = run.calibrated([1.0, 2.0], [ref, 2.0 * ref, 2.0 * ref])
    if [round(x, 12) for x in got] != [round(1.0 / 1.5, 12), 1.0]:
        return [f"calibrated([1, 2]) gave {got}"]
    return []


def main() -> int:
    run.pin_threads()
    run.import_package()
    failures = check_tail() + check_calibrated() + check_workloads() + check_stripped_checkout()
    for f in failures:
        print("FAIL", f)
    print(json.dumps({"selftest_passed": not failures, "failures": len(failures)}))
    return 0 if not failures else 1


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
