"""The benchmark's four workloads: seeded inputs, one op, and its oracle.

Each workload makes the inputs of op ``i`` from ``(seed, i)`` before the op
is timed. The seed chooses functions, angles, rotations and sampling seeds;
it never changes how much work an op does, so every op of a workload calls
the same package functions the same number of times (``selftest.py``
checks this).

The program is driven through ``cli.main(argv)`` in-process, with its
console output sent to a file in the run's scratch directory and its JSON
report read back with ``--out``. ``large-n`` has no CLI command and calls
the package modules directly. Every call goes through a module attribute
(``manybody.full_simulate_dicke``) so that the traced run sees it.

The expected results are written out here from the protocol's definition,
not taken from the package.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

import numpy as np

from djensemble import cli, manybody, params, polarization, protocol, qstate
from tracer import LAYERS

# Paper-mode coincidence pattern and true class of each catalog function.
PAPER_PATTERN = {
    "f1": "11", "f2": "11", "f3": "01", "f4": "01",
    "f5": "10", "f6": "10", "f7": "00", "f8": "00",
}
CLASS = {fid: "constant" if fid in ("f1", "f2") else "balanced" for fid in PAPER_PATTERN}
BALANCED = tuple(fid for fid in PAPER_PATTERN if CLASS[fid] == "balanced")
PATTERNS = ("00", "01", "10", "11")

PAPER_TOL = 1e-9
EXACT_TOL = 1e-10

ORACLE_ATOMS = 12
SAMPLE_SHOTS = 10_000
CATALOG_SHOTS = 100
REFERENCE_BITS = tuple(range(4, 13))
LARGE_N = 10**6
REPLAY_N = 512


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _default_config():
    spec = params.PRESETS["cs-cell"]
    return params.ensemble_config_from_report(spec, params.required_detuning(spec))


class _Cli:
    """Runs ``cli.main`` with stdout in a file and returns the JSON report."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.console = open(scratch / "console.txt", "w", encoding="utf-8")

    def __call__(self, name: str, argv: list[str]) -> tuple[int, Path]:
        out = self.scratch / f"{name}.json"
        with contextlib.redirect_stdout(self.console):
            rc = cli.main(argv + ["--out", str(out)])
        return rc, out

    def close(self) -> None:
        self.console.close()


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _check_distribution(fid: str, mode: str, dist: dict, where: str, errors: list) -> None:
    if mode == "paper":
        p = dist.get(PAPER_PATTERN[fid], 0.0)
        if p < 1.0 - PAPER_TOL:
            errors.append(f"{where} {fid}: paper pattern {PAPER_PATTERN[fid]} has p={p!r}")
    elif CLASS[fid] == "constant":
        if abs(dist.get("11", 0.0) - 1.0) > EXACT_TOL:
            errors.append(f"{where} {fid}: exact constant not deterministic at 11: {dist}")
    elif max(abs(dist.get(k, 0.0) - 0.25) for k in PATTERNS) > EXACT_TOL:
        errors.append(f"{where} {fid}: exact balanced output not uniform: {dist}")


def _check_run(rc: int, report: dict, mode: str, oracle: bool, errors: list) -> None:
    if rc != 0:
        errors.append(f"run --mode {mode} exited {rc}")
    results = report["results"]
    if sorted(e["function"] for e in results) != sorted(PAPER_PATTERN):
        errors.append(f"run --mode {mode}: wrong function set")
    for e in results:
        fid = e["function"]
        _check_distribution(fid, mode, e["distribution"], f"run {mode}", errors)
        if mode == "paper" and e["classification"] != CLASS[fid]:
            errors.append(f"run paper {fid}: classified {e['classification']!r}")
        if oracle:
            o = e["oracle"]
            if o["n_atoms"] != ORACLE_ATOMS or not o["max_difference_vs_run"] <= EXACT_TOL:
                errors.append(f"oracle replay {fid}: {o['n_atoms']} atoms, "
                              f"difference {o['max_difference_vs_run']!r}")


def _check_trace(rc: int, report: dict, mode: str, errors: list) -> None:
    if rc != 0:
        errors.append(f"trace --mode {mode} exited {rc}")
    for e in report["results"]:
        fid = e["function"]
        states = e["states"]
        expected = 4 if CLASS[fid] == "constant" else 6
        if len(states) != expected or states[-1]["state"] != "psi3":
            errors.append(f"trace {mode} {fid}: {len(states)} states recorded")
            continue
        amps = np.array([complex(re, im) for re, im in states[-1]["amplitudes"]])
        probs = (np.abs(amps) ** 2).reshape(2, 4).sum(axis=0)
        dist = {k: float(p) for k, p in zip(PATTERNS, probs)}
        _check_distribution(fid, mode, dist, f"trace {mode}", errors)


def _check_sample(rc: int, report: dict, mode: str, shots: int, errors: list) -> None:
    if rc != 0:
        errors.append(f"sample --mode {mode} exited {rc}")
    results = report["results"]
    if sorted(e["function"] for e in results) != sorted(PAPER_PATTERN):
        errors.append(f"sample --mode {mode}: wrong function set")
    for e in results:
        fid = e["function"]
        counts = e["counts"]
        if sum(counts.values()) != shots or not set(counts) <= set(PATTERNS):
            errors.append(f"sample {mode} {fid}: counts {counts} for {shots} shots")
        deterministic = mode == "paper" or CLASS[fid] == "constant"
        if deterministic and e["empirical_classification_rate"] != 1.0:
            errors.append(f"sample {mode} {fid}: rate {e['empirical_classification_rate']!r}")


class Audit:
    """``verify``, then the unreduced N=12 replay of the exact catalog."""

    name = "audit"
    cycle = 1
    sizes = {"n_atoms_oracle": ORACLE_ATOMS, "functions": 8, "verify_checks": 12}
    expected_calls = frozenset(
        ["qstate.sample_shots", "manybody.full_simulate_naive", "manybody.full_simulate_dicke",
         "protocol.run_protocol", "protocol.reference_dj_circuit", "cli.main"]
        + [f"checks.{name}" for name in LAYERS["checks"]]
    )

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.cli = _Cli(scratch)

    def inputs(self, i: int) -> dict:
        return {"seed": int(_rng(self.seed, i).integers(2**31))}

    def op(self, x: dict):
        verify = self.cli("verify", ["verify"])
        run = self.cli("run", ["run", "--function", "all", "--mode", "exact",
                               "--n-atoms-oracle", str(ORACLE_ATOMS), "--seed", str(x["seed"])])
        return verify, run

    def check(self, x: dict, result) -> list[str]:
        (vrc, vpath), (rrc, rpath) = result
        errors: list[str] = []
        verify = _load(vpath)
        if vrc != 0 or verify["all_passed"] is not True:
            errors.append(f"verify exited {vrc}, all_passed={verify['all_passed']!r}")
        _check_run(rrc, _load(rpath), "exact", True, errors)
        return errors

    def close(self) -> None:
        self.cli.close()


class Catalog:
    """Many short protocol jobs plus the gate-model reference circuit."""

    name = "catalog"
    cycle = 1
    sizes = {"functions": 8, "modes": 2, "sample_shots": CATALOG_SHOTS,
             "reference_bits": list(REFERENCE_BITS)}
    expected_calls = frozenset([
        "qstate.sample_shots", "qstate.born_distribution", "qstate.embed",
        "polarization.embed_single", "ensemble.u_eff_exact", "ensemble.u_eff_paper",
        "ensemble.PaperPolarizerMap.apply", "protocol.run_protocol",
        "protocol.reference_dj_circuit", "params.required_detuning", "cli.main",
    ])

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.cli = _Cli(scratch)

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        functions = []
        for n in REFERENCE_BITS:
            size = 2**n
            if rng.integers(2):
                table = np.zeros(size, dtype=int)
                table[rng.permutation(size)[: size // 2]] = 1
            else:
                table = np.full(size, int(rng.integers(2)))
            functions.append(protocol.BooleanFunction(n, tuple(int(b) for b in table)))
        return {"seed": int(rng.integers(2**31)), "functions": functions}

    def op(self, x: dict):
        reports = []
        for mode in ("paper", "exact"):
            for command in ("run", "trace"):
                argv = [command, "--function", "all", "--mode", mode]
                reports.append((command, mode, self.cli(f"{command}-{mode}", argv)))
            argv = ["sample", "--function", "all", "--mode", mode,
                    "--shots", str(CATALOG_SHOTS), "--seed", str(x["seed"])]
            reports.append(("sample", mode, self.cli(f"sample-{mode}", argv)))
        verdicts = [protocol.reference_dj_circuit(f) for f in x["functions"]]
        return reports, verdicts

    def check(self, x: dict, result) -> list[str]:
        reports, verdicts = result
        errors: list[str] = []
        for command, mode, (rc, path) in reports:
            report = _load(path)
            if command == "run":
                _check_run(rc, report, mode, False, errors)
            elif command == "trace":
                _check_trace(rc, report, mode, errors)
            else:
                _check_sample(rc, report, mode, CATALOG_SHOTS, errors)
        for f, verdict in zip(x["functions"], verdicts):
            truth = "constant" if sum(f.table) in (0, len(f.table)) else "balanced"
            if verdict.classification != truth or not verdict.deterministic:
                errors.append(f"reference n={f.n_bits}: {verdict.classification} for a {truth} function")
        return errors

    def close(self) -> None:
        self.cli.close()


class Sample:
    """10,000 shots per catalog function, alternating modes between ops."""

    name = "sample"
    cycle = 2
    sizes = {"functions": 8, "shots": SAMPLE_SHOTS}
    expected_calls = frozenset([
        "qstate.sample_shots", "qstate.born_distribution", "ensemble.u_eff_exact",
        "ensemble.u_eff_paper", "protocol.run_protocol", "cli.main",
    ])

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.cli = _Cli(scratch)

    def inputs(self, i: int) -> dict:
        # the mode follows the op index, not the seed, so ops i of two seeds do the same work
        return {"mode": ("exact", "paper")[i % 2], "seed": int(_rng(self.seed, i).integers(2**31))}

    def op(self, x: dict):
        argv = ["sample", "--function", "all", "--mode", x["mode"],
                "--shots", str(SAMPLE_SHOTS), "--seed", str(x["seed"])]
        return self.cli("sample", argv)

    def check(self, x: dict, result) -> list[str]:
        rc, path = result
        errors: list[str] = []
        _check_sample(rc, _load(path), x["mode"], SAMPLE_SHOTS, errors)
        return errors

    def close(self) -> None:
        self.cli.close()


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class LargeN:
    """Symmetric-sector replays: the catalog at N=10^6, an off-extreme loop at N=512."""

    name = "large-n"
    cycle = 1
    sizes = {"n_atoms": LARGE_N, "replay_n_atoms": REPLAY_N, "functions": 1}
    expected_calls = frozenset([
        "manybody.full_simulate_dicke", "manybody.symmetric_rotation",
        "manybody.coherent_dicke_amplitudes", "qstate.born_distribution",
        "qstate.expm_hermitian", "protocol.run_protocol",
        "protocol.exact_operation_sequence", "params.required_detuning",
    ])

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        initial = np.zeros((REPLAY_N + 1, 4), dtype=complex)
        initial[REPLAY_N, 0] = 1.0  # every atom in the primed level, both photons horizontal
        self.initial = initial.reshape(-1)

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        # balanced functions only: the constant oracles call different functions
        # (f1 has no oracle step, f2 one pulse), so drawing them would let the
        # seed change the work
        f = protocol.table1_function(BALANCED[int(rng.integers(len(BALANCED)))])
        theta = float(rng.uniform(0.1, 2.0 * math.pi - 0.1))
        u = _random_unitary(rng)
        h = polarization.hadamard_variant(1).matrix
        loop = (
            manybody.AtomRotation(h),
            manybody.EnsembleEvolution(theta),
            manybody.AtomRotation(u),
            manybody.AtomRotation(u.conj().T),
            manybody.EnsembleEvolution(-theta),
            manybody.AtomRotation(h.conj().T),
        )
        return {"function": f, "loop": loop}

    def op(self, x: dict):
        f = x["function"]
        config = _default_config()
        ops = protocol.exact_operation_sequence(f, config)
        big = manybody.full_simulate_dicke(LARGE_N, (0.0, 1.0), ops)
        big_dist = qstate.born_distribution(big, ("photon1", "photon2"))
        del big
        compact_dist = protocol.run_protocol(f, "exact", config).distribution()
        back = manybody.full_simulate_dicke(REPLAY_N, (0.0, 1.0), x["loop"])
        return big_dist, compact_dist, back.amplitudes

    def check(self, x: dict, result) -> list[str]:
        big_dist, compact_dist, back = result
        errors: list[str] = []
        fid = x["function"].id
        diff = max(abs(big_dist[k] - compact_dist[k]) for k in compact_dist)
        if not diff <= EXACT_TOL:
            errors.append(f"N={LARGE_N} {fid}: Dicke vs compact differ by {diff!r}")
        _check_distribution(fid, "exact", {f"{a}{b}": p for (a, b), p in big_dist.items()},
                            f"N={LARGE_N}", errors)
        drift = float(np.max(np.abs(back - self.initial)))
        if not drift <= EXACT_TOL:
            errors.append(f"N={REPLAY_N} off-extreme loop returned with error {drift!r}")
        return errors

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Audit, Catalog, Sample, LargeN)}
