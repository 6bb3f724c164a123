"""Command-line front end: run protocols, verify identities, compute
feasibility numbers, and sample detector coincidences.

Every command builds one JSON-serializable report; the console output is a
rendering of the same structure, printed after the report is written to
``--out``, so a failed write leaves stdout empty. Exit codes: 0 success, 1
verification failure, 2 usage or input error. The parser checks each option
value as it reads it, by its type, choices or required flag; ``main``
reports a refusal, a bad medium file's too, as one ``error:`` line and
returns 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .checks import run_all_checks
from .manybody import NAIVE_ATOM_LIMIT, full_simulate_naive
from .params import PRESETS, MediumSpec, ensemble_config_from_report, required_detuning
from .polarization import clicks_for_pattern
from .protocol import (
    MODES,
    PATTERN_TO_PAIR,
    TABLE1_TABLES,
    build_oracle,
    classify,
    exact_operation_sequence,
    is_deterministic,
    run_protocol,
    table1_function,
    table1_functions,
    top_pattern,
)
from .qstate import born_distribution, sample_shots

SCHEMA = "djensemble-report/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# Largest --shots accepted. At this count `sample --mode exact` takes about
# 1.1 s for one function and 1.5 s for --function all, which draws the stream
# once for the five tables of its distinct oracles and counts it against the
# 11 distinct values among their 15 cumulative entries (process wall time,
# median of 5; shared 2-vCPU Xeon, numpy 2.4, Python 3.11).
MAX_SHOTS = 10**8


def _default_theta() -> float:
    spec = PRESETS["cs-cell"]
    return ensemble_config_from_report(spec, required_detuning(spec))


def _report_skeleton(command: str, request: dict) -> dict:
    return {"schema": SCHEMA, "version": __version__, "command": command, "request": request}


def _pattern_key(pattern) -> str:
    return f"{pattern[0]}{pattern[1]}"


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises its refusal where argparse would print its usage and exit 2."""

    def error(self, message: str):  # exit_on_error=False still exits on a missing or unknown argument (3.10, 3.11)
        raise argparse.ArgumentError(None, message)


def _out_path(text: str) -> str:
    """``--out`` as given, unless it is empty or names a directory or a file in a missing directory."""
    if not text:  # Path("") is "."
        raise argparse.ArgumentTypeError("an empty value names no file")
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r}: no directory {str(path.parent)!r}")
    return text


def _emit(report: dict, out_path: str | None, lines: list[str], code: int = EXIT_OK) -> int:
    """Write ``report`` to ``out_path``, if given, then print its console ``lines``; return ``code``.

    A failed write prints no line and returns EXIT_USAGE, so stdout stays empty.
    """
    if out_path:
        # a NaN or Inf in a report is a fault of the program: fail, never write it (C encoder: no indent)
        text = json.dumps(report, allow_nan=False) + "\n"
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write --out {out_path!r}: {exc.strerror or exc}")
    for line in lines:
        print(line)
    return code


def _count(least: int, most: float = math.inf):
    """The parser type of an integer from ``least`` to ``most``; an integral float such as ``1e5`` is one too."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            try:
                number = float(text)
            except ValueError:
                number = math.nan
            if not number.is_integer():  # also rejects nan and inf
                raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
            value = int(number)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text!r}")
        return value

    return count


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _run_functions(args, entry, naive_atoms=None, **request) -> int:
    """Replay each distinct step once per command; ``entry(f, trace, dist, counts, naive_dist)`` gives each (result, line).

    A function and its complement build the same oracle, so the same
    sequence: each group of ``--function``'s functions sharing one is
    replayed once, by its first member, and every member's entry reads that
    replay, in ``--function`` order. Each replay resumes from the prefix its
    sequence shares with the one replayed before it: under ``--function
    all`` every sequence after f1's reuses the opening Hadamards, and f5's
    and f7's reuse f3's medium step, so the command replays each distinct
    step once. A request that names ``shots`` builds each replay's
    distribution once and, for shots > 0, draws every replay's counts in
    one ``sample_shots`` call, which reads the seed's stream once; otherwise
    ``dist`` and ``counts`` are None. With ``naive_atoms``, each distinct
    sequence is also replayed once on the unreduced simulator at that many
    atoms, and ``naive_dist`` is its photon distribution; otherwise None.
    """
    functions = table1_functions() if args.function == "all" else (table1_function(args.function),)
    theta = _default_theta()
    report = _report_skeleton(
        args.command, {"function": args.function, "mode": args.mode, **request}
    )
    # oracles compare by their rotations' identity (shared, frozen constants) and their medium step's angle
    oracles = [build_oracle(f, theta) for f in functions]
    firsts = {}
    for oracle, f in zip(oracles, functions):
        firsts.setdefault(oracle, f)
    traces, previous = {}, None
    for oracle, f in firsts.items():
        traces[oracle] = previous = run_protocol(f, args.mode, theta, after=previous)
    dists = counts = naive_dists = dict.fromkeys(firsts)
    if "shots" in request:
        dists = {oracle: trace.distribution() for oracle, trace in traces.items()}
        if args.shots > 0:
            counts = dict(zip(dists, sample_shots(list(dists.values()), args.shots, args.seed)))
    if naive_atoms is not None:
        naive_dists = {
            oracle: born_distribution(
                full_simulate_naive(naive_atoms, (0.0, 1.0), exact_operation_sequence(f, theta)),
                ("photon1", "photon2"),
            )
            for oracle, f in firsts.items()
        }
    rows = [
        entry(f, traces[oracle], dists[oracle], counts[oracle], naive_dists[oracle])
        for oracle, f in zip(oracles, functions)
    ]
    report["results"] = [result for result, _ in rows]
    return _emit(report, args.out, [line for _, line in rows])


def _cmd_run(args) -> int:
    def entry(f, trace, dist, counts, naive_dist) -> dict:
        # the top pattern and the verdict come from the one Born pass
        pattern, top = top_pattern(dist)
        deterministic = is_deterministic(top)
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
        if counts is not None:
            e["counts"] = {_pattern_key(k): v for k, v in sorted(counts.items())}
        if naive_dist is not None:
            e["oracle"] = {
                "n_atoms": args.n_atoms_oracle,
                "distribution": {_pattern_key(k): v for k, v in sorted(naive_dist.items())},
                "max_difference_vs_run": max(
                    abs(naive_dist[k] - dist[k]) for k in naive_dist
                ),
                "comparable": args.mode == "exact",
            }
        shown = ", ".join(f"{k}: {v:.6g}" for k, v in e["distribution"].items() if v > 1e-12)
        return e, (f"{f.id}: pattern {e['top_pattern']} (p={top:.9f}) "
                   f"-> {e['classification'] or 'undetermined'}  [{shown}]")

    return _run_functions(args, entry, naive_atoms=args.n_atoms_oracle, shots=args.shots, seed=args.seed)


def _cmd_verify(args) -> int:
    results = run_all_checks()
    report = _report_skeleton("verify", {})
    report["checks"] = [dataclasses.asdict(r) for r in results]
    all_passed = all(r.passed for r in results)
    report["all_passed"] = all_passed
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        tag = " (expected-inconsistent)" if r.expected_inconsistent else ""
        dev = f" deviation={r.deviation:.3e}" if r.deviation is not None else ""
        lines.append(f"{r.name:<{width}}  {status}{tag}{dev}  {r.detail}")
    return _emit(report, args.out, lines, EXIT_OK if all_passed else EXIT_VERIFY_FAILED)


def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):  # raise the first key named a second time
        seen = set()
        raise KeyError(next(key for key, _ in pairs if key in seen or seen.add(key)))
    return data


def _load_medium(token: str) -> MediumSpec:
    if token in PRESETS:
        return PRESETS[token]
    path = Path(token)
    if not path.exists():
        raise ValueError(f"medium {token!r} is neither a preset ({', '.join(PRESETS)}) nor a file")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        raise ValueError(f"cannot read medium file {token!r}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except KeyError as exc:  # json.loads alone would keep a repeated key's last value
        raise ValueError(f"medium file {token!r}: repeated key {exc.args[0]!r}") from exc
    except (ValueError, RecursionError) as exc:  # nesting past the recursion limit
        raise ValueError(f"medium file {token!r} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"medium file {token!r} must be a JSON object")
    fields = dataclasses.fields(MediumSpec)
    if unknown := [key for key in data if key not in {f.name for f in fields}]:
        raise ValueError(f"medium file {token!r}: unknown key {unknown[0]!r}")
    values = {}
    for f in fields:
        if f.name not in data:
            if f.default is dataclasses.MISSING:
                raise ValueError(f"medium file {token!r}: {f.name!r} must be a number, it is missing")
            continue
        value = data[f.name]
        if f.type == "int" and isinstance(value, float) and value.is_integer():
            value = int(value)  # JSON writes 1e5 as a float
        values[f.name] = value
    try:
        return MediumSpec(**values)
    except ValueError as exc:
        raise ValueError(f"medium file {token!r}: {exc}") from exc


def _cmd_params(args) -> int:
    try:
        spec = _load_medium(args.medium)
        feas = required_detuning(spec)
        theta = ensemble_config_from_report(spec, feas)
    except ValueError as exc:
        return _fail(str(exc))
    report = _report_skeleton("params", {"medium": args.medium})
    report["medium"] = dataclasses.asdict(spec)
    report["feasibility"] = dataclasses.asdict(feas)
    report["evolution_angle"] = theta
    lines = [
        f"transit time T = {feas.transit_time_s:.4g} s",
        f"required detuning = {feas.detuning_rad_s:.4g} rad/s ({feas.detuning_cyclic_hz:.4g} Hz cyclic)",
        f"detuning / coupling = {feas.detuning_over_coupling:.4g} (dispersive_ok={feas.dispersive_ok})",
        f"relaxation margin = {feas.decoherence_margin:.4g} (decoherence_ok={feas.decoherence_ok})",
    ]
    return _emit(report, args.out, lines)


def _cmd_sample(args) -> int:
    # each detection pattern's verdict and detector pair, labelled once per command
    verdicts = {pattern: classify(pattern).classification for pattern in PATTERN_TO_PAIR}
    clicks = {pattern: "+".join(clicks_for_pattern(pattern)) for pattern in PATTERN_TO_PAIR}

    def entry(f, trace, dist, counts, naive_dist) -> dict:
        correct = sum(c for pattern, c in counts.items() if verdicts[pattern] == f.classification)
        coincidences = {clicks[pattern]: count for pattern, count in sorted(counts.items()) if count > 0}
        return {
            "function": f.id,
            "mode": args.mode,
            "shots": args.shots,
            "seed": args.seed,
            "coincidences": coincidences,
            "counts": {_pattern_key(k): v for k, v in sorted(counts.items()) if v > 0},
            "empirical_classification_rate": correct / args.shots,
        }, f"{f.id}: {coincidences} correct-rate {correct / args.shots:.4f}"

    return _run_functions(args, entry, shots=args.shots, seed=args.seed)


def _cmd_trace(args) -> int:
    def entry(f, trace, dist, counts, naive_dist) -> dict:
        states = [
            {
                "state": name,
                "subsystems": [[n, d] for n, d in state.space.subsystems],
                "amplitudes": state.amplitudes.view(float).reshape(-1, 2).tolist(),
            }
            for name, state in trace.states.items()
        ]
        return {
            "function": f.id,
            "mode": args.mode,
            "post_selection_probability": trace.post_selection_probability,
            "states": states,
        }, f"{f.id}: {len(states)} states recorded"

    return _run_functions(args, entry)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="djensemble",
        description="Two-photon constant-vs-balanced protocol simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_seed=True):
        p.add_argument("--function", required=True, choices=[*TABLE1_TABLES, "all"])
        p.add_argument("--mode", default="paper", choices=MODES)
        if with_seed:
            p.add_argument("--seed", type=_count(0), default=0)
        p.add_argument("--out", type=_out_path, help="write the JSON report to this path")

    run_p = sub.add_parser("run", help="protocol distribution and classification")
    add_common(run_p)
    run_p.add_argument("--shots", type=_count(0, MAX_SHOTS), default=0, help="optional sampled counts")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the full identity and oracle check suite")
    verify_p.add_argument("--out", type=_out_path)
    verify_p.set_defaults(func=_cmd_verify)

    params_p = sub.add_parser("params", help="feasibility numbers for a medium")
    params_p.add_argument("--medium", required=True, help="preset name or JSON file")
    params_p.add_argument("--out", type=_out_path)
    params_p.set_defaults(func=_cmd_params)

    sample_p = sub.add_parser("sample", help="seeded detector coincidence counts")
    add_common(sample_p)
    sample_p.add_argument("--shots", type=_count(1, MAX_SHOTS), required=True)
    sample_p.set_defaults(func=_cmd_sample)

    trace_p = sub.add_parser("trace", help="dump all intermediate states")
    add_common(trace_p, with_seed=False)
    trace_p.set_defaults(func=_cmd_trace)

    run_p.add_argument("--n-atoms-oracle", type=_count(1, NAIVE_ATOM_LIMIT),
                       help="replay the run on the unreduced oracle with this many atoms")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _fail(str(exc))
    return args.func(args)


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
