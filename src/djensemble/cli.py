"""Command-line front end: run protocols, verify identities, compute
feasibility numbers, and sample detector coincidences.

Every command builds one JSON-serializable report; the console output is a
rendering of the same structure. Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .checks import run_all_checks
from .ensemble import EnsembleConfig
from .manybody import NAIVE_ATOM_LIMIT, full_simulate_naive
from .params import PRESETS, MediumSpec, ensemble_config_from_report, required_detuning
from .polarization import clicks_for_pattern
from .protocol import (
    MODES,
    classify,
    exact_operation_sequence,
    run_protocol,
    table1_function,
    table1_functions,
)
from .qstate import born_distribution, sample_shots

SCHEMA = "djensemble-report/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# Largest --shots accepted. Sampling takes about 30 ms per 10^6 shots on one
# core, so this is about 3 s per function and 24 s for --function all.
MAX_SHOTS = 10**8

# Medium file keys and the MediumSpec fields they set; without relaxation_s,
# MediumSpec's default relaxation time holds.
_MEDIUM_KEYS = {"length_m": "length", "n_atoms": "n_atoms", "coupling_rad_s": "coupling",
                "relaxation_s": "relaxation_time"}


def _default_config() -> EnsembleConfig:
    spec = PRESETS["cs-cell"]
    return ensemble_config_from_report(spec, required_detuning(spec))


def _report_skeleton(command: str, request: dict) -> dict:
    return {"schema": SCHEMA, "version": __version__, "command": command, "request": request}


def _pattern_key(pattern) -> str:
    return f"{pattern[0]}{pattern[1]}"


def _resolve_functions(function_id: str):
    if function_id == "all":
        return table1_functions()
    return (table1_function(function_id),)


class _OutError(Exception):
    """The report cannot be written to ``--out``."""


def _out_problem(out_path: str) -> str | None:
    """Why ``--out`` cannot name a report file, or None; checked before any work."""
    path = Path(out_path)
    if path.is_dir():
        return f"--out {out_path!r} is a directory"
    if not path.parent.is_dir():
        return f"--out {out_path!r}: no directory {str(path.parent)!r}"
    return None


def _emit(report: dict, out_path: str) -> None:
    # a NaN or Inf in a report is a fault of the program: fail, never write it
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    try:
        Path(out_path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _OutError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc


def _shot_count(text: str) -> int:
    """``--shots`` as an int; an integral float such as ``1e5`` is accepted too."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # also rejects nan and inf
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(value)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _run_functions(args, entry, **request) -> int:
    """Replay the protocol once per ``--function`` and report ``entry(f, trace, config)`` each."""
    try:
        functions = _resolve_functions(args.function)
    except ValueError as exc:
        return _fail(str(exc))
    config = _default_config()
    report = _report_skeleton(
        args.command, {"function": args.function, "mode": args.mode, **request}
    )
    report["results"] = [entry(f, run_protocol(f, args.mode, config), config) for f in functions]
    if args.out:
        _emit(report, args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.shots < 0:
        return _fail("--shots must be non-negative (0 means no sampling)")
    if args.shots > MAX_SHOTS:
        return _fail(f"--shots must be at most {MAX_SHOTS}")
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    if args.n_atoms_oracle is not None and not 1 <= args.n_atoms_oracle <= NAIVE_ATOM_LIMIT:
        return _fail(f"--n-atoms-oracle must be between 1 and {NAIVE_ATOM_LIMIT}")

    def entry(f, trace, config) -> dict:
        dist = trace.distribution()
        pattern, top = trace.pattern()
        deterministic = trace.deterministic()
        outcome = classify(pattern) if deterministic else None
        e = {
            "function": f.id,
            "table": list(f.table),
            "true_classification": f.classification,
            "mode": args.mode,
            "distribution": {_pattern_key(k): v for k, v in sorted(dist.items())},
            "top_pattern": _pattern_key(pattern),
            "top_probability": top,
            "deterministic": deterministic,
            "post_selection_probability": trace.post_selection_probability,
            "ensemble_evolution_calls": trace.ensemble_evolution_calls,
            "classification": outcome.classification if outcome else None,
            "function_pair": list(outcome.function_pair) if outcome else None,
        }
        if args.shots > 0:
            counts = sample_shots(dist, args.shots, args.seed)
            e["counts"] = {_pattern_key(k): v for k, v in sorted(counts.items())}
        if args.n_atoms_oracle is not None:
            oracle_state = full_simulate_naive(
                args.n_atoms_oracle, (0.0, 1.0), exact_operation_sequence(f, config)
            )
            oracle_dist = born_distribution(oracle_state, ("photon1", "photon2"))
            e["oracle"] = {
                "n_atoms": args.n_atoms_oracle,
                "distribution": {_pattern_key(k): v for k, v in sorted(oracle_dist.items())},
                "max_difference_vs_run": max(
                    abs(oracle_dist[k] - dist[k]) for k in oracle_dist
                ),
                "comparable": args.mode == "exact",
            }
        shown = ", ".join(f"{k}: {v:.6g}" for k, v in e["distribution"].items() if v > 1e-12)
        print(f"{f.id}: pattern {e['top_pattern']} (p={top:.9f}) "
              f"-> {e['classification'] or 'undetermined'}  [{shown}]")
        return e

    return _run_functions(args, entry, shots=args.shots, seed=args.seed)


def _cmd_verify(args) -> int:
    results = run_all_checks()
    report = _report_skeleton("verify", {})
    report["checks"] = [dataclasses.asdict(r) for r in results]
    all_passed = all(r.passed for r in results)
    report["all_passed"] = all_passed
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        tag = " (expected-inconsistent)" if r.expected_inconsistent else ""
        dev = f" deviation={r.deviation:.3e}" if r.deviation is not None else ""
        print(f"{r.name:<{width}}  {status}{tag}{dev}  {r.detail}")
    if args.out:
        _emit(report, args.out)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _load_medium(token: str) -> MediumSpec:
    if token in PRESETS:
        return PRESETS[token]
    path = Path(token)
    if not path.exists():
        raise ValueError(f"medium {token!r} is neither a preset ({', '.join(PRESETS)}) nor a file")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read medium file {token!r}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"medium file {token!r} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"medium file {token!r} must be a JSON object")
    fields = {}
    for key, name in _MEDIUM_KEYS.items():
        if key == "relaxation_s" and key not in data:
            continue
        value = data.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            found = f"got {value!r}" if key in data else "it is missing"
            raise ValueError(f"medium file {token!r}: {key!r} must be a number, {found}")
        fields[name] = value
    try:
        n_atoms = fields.pop("n_atoms")
        if isinstance(n_atoms, float) and n_atoms.is_integer():
            n_atoms = int(n_atoms)  # JSON writes 1e5 as a float
        return MediumSpec(n_atoms=n_atoms, **{name: float(v) for name, v in fields.items()})
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"malformed medium spec {token!r}: {exc}") from exc


def _cmd_params(args) -> int:
    try:
        spec = _load_medium(args.medium)
        feas = required_detuning(spec)
        config = ensemble_config_from_report(spec, feas)
    except ValueError as exc:
        return _fail(str(exc))
    report = _report_skeleton("params", {"medium": args.medium})
    report["medium"] = {
        "length_m": spec.length,
        "n_atoms": spec.n_atoms,
        "coupling_rad_s": spec.coupling,
        "relaxation_s": spec.relaxation_time,
    }
    report["feasibility"] = feas.as_dict()
    report["evolution_angle"] = config.theta
    print(f"transit time T = {feas.transit_time:.4g} s")
    print(f"required detuning = {feas.detuning:.4g} rad/s ({feas.detuning / (2 * math.pi):.4g} Hz cyclic)")
    print(f"detuning / coupling = {feas.ratio:.4g} (dispersive_ok={feas.dispersive_ok})")
    print(f"relaxation margin = {feas.decoherence_margin:.4g} (decoherence_ok={feas.decoherence_ok})")
    if args.out:
        _emit(report, args.out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.shots < 1:
        return _fail("sample requires --shots >= 1")
    if args.shots > MAX_SHOTS:
        return _fail(f"--shots must be at most {MAX_SHOTS}")
    if args.seed < 0:
        return _fail("--seed must be non-negative")

    def entry(f, trace, config) -> dict:
        counts = sample_shots(trace.distribution(), args.shots, args.seed)
        correct = sum(
            c for pattern, c in counts.items()
            if classify(pattern).classification == f.classification
        )
        coincidences = {
            "+".join(clicks_for_pattern(pattern)): count
            for pattern, count in sorted(counts.items())
            if count > 0
        }
        print(f"{f.id}: {coincidences} correct-rate {correct / args.shots:.4f}")
        return {
            "function": f.id,
            "mode": args.mode,
            "shots": args.shots,
            "seed": args.seed,
            "coincidences": coincidences,
            "counts": {_pattern_key(k): v for k, v in sorted(counts.items()) if v > 0},
            "empirical_classification_rate": correct / args.shots,
        }

    return _run_functions(args, entry, shots=args.shots, seed=args.seed)


def _cmd_trace(args) -> int:
    def entry(f, trace, config) -> dict:
        states = [
            {
                "state": name,
                "subsystems": [[n, d] for n, d in state.space.subsystems],
                "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
            }
            for name, state in trace.named_states()
        ]
        print(f"{f.id}: {len(states)} states recorded")
        return {
            "function": f.id,
            "mode": args.mode,
            "post_selection_probability": trace.post_selection_probability,
            "states": states,
        }

    return _run_functions(args, entry)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djensemble",
        description="Two-photon constant-vs-balanced protocol simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_seed=True):
        p.add_argument("--function", required=True, help="f1..f8 or 'all'")
        p.add_argument("--mode", default="paper", choices=MODES)
        if with_seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report to this path")

    run_p = sub.add_parser("run", help="protocol distribution and classification")
    add_common(run_p)
    run_p.add_argument("--shots", type=_shot_count, default=0, help="optional sampled counts")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the full identity and oracle check suite")
    verify_p.add_argument("--out", default=None)
    verify_p.set_defaults(func=_cmd_verify)

    params_p = sub.add_parser("params", help="feasibility numbers for a medium")
    params_p.add_argument("--medium", required=True, help="preset name or JSON file")
    params_p.add_argument("--out", default=None)
    params_p.set_defaults(func=_cmd_params)

    sample_p = sub.add_parser("sample", help="seeded detector coincidence counts")
    add_common(sample_p)
    sample_p.add_argument("--shots", type=_shot_count, default=0)
    sample_p.set_defaults(func=_cmd_sample)

    trace_p = sub.add_parser("trace", help="dump all intermediate states")
    add_common(trace_p, with_seed=False)
    trace_p.set_defaults(func=_cmd_trace)

    run_p.add_argument("--n-atoms-oracle", type=int, default=None,
                       help="replay the run on the unreduced oracle with this many atoms")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="warning: %(message)s", level=logging.WARNING)
    args = build_parser().parse_args(argv)
    if args.out is not None and (problem := _out_problem(args.out)):
        return _fail(problem)
    try:
        return args.func(args)
    except _OutError as exc:
        return _fail(str(exc))


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
