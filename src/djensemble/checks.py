"""Named verification checks behind the ``verify`` command.

Each check reports a measured deviation against its tolerance. The polarizer
claim audit is special: the declared rewrite is expected to be inconsistent
with the exact unitary, so that check passes when the inconsistency is
detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ensemble, manybody, params, polarization, protocol
from .qstate import sample_shots


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float | None
    detail: str
    expected_inconsistent: bool = False


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_wave_plate_gadgets() -> CheckResult:
    dev = 0.0
    for i, plates in polarization.HADAMARD_GADGETS.items():
        built = polarization.gadget_compose(plates).matrix
        dev = max(dev, _max_dev(built, polarization.hadamard_variant(i).matrix))
    return CheckResult("wave-plate gadget identities", dev <= 1e-12, dev, "raw matrix equality for all four variants")


def check_microwave_pulses() -> CheckResult:
    dev = 0.0
    for i, pulse in ensemble.HADAMARD_PULSES.items():
        built = ensemble.microwave_rotation(pulse).matrix
        dev = max(dev, _max_dev(built, polarization.hadamard_variant(i).matrix))
    not_gate = ensemble.microwave_rotation(ensemble.NOT_PULSE).matrix
    dev = max(dev, _max_dev(not_gate, np.array([[0.0, 1.0], [-1.0, 0.0]])))
    return CheckResult("microwave pulse identities", dev <= 1e-12, dev, "four Hadamard pulses plus the NOT pulse")


def check_composite_rotations() -> CheckResult:
    prime = polarization.composite_h("prime").matrix
    double = polarization.composite_h("double_prime").matrix
    e = np.exp(1j * math.pi / 4)
    dev = max(
        _max_dev(prime, np.diag([e, e.conjugate()])),
        _max_dev(double, np.diag([e.conjugate(), e])),
    )
    return CheckResult("composite diagonal rotations", dev <= 1e-12, dev, "pure +-pi/4 phases per polarization")


def check_hamiltonian_forms() -> CheckResult:
    config = ensemble.EnsembleConfig.from_theta(math.pi / 2)
    dev = _max_dev(ensemble.build_h_eff(config).matrix, ensemble.build_h_eff_linear(config).matrix)
    scale = float(np.max(np.abs(ensemble.build_h_eff(config).matrix)))
    rel = dev / scale if scale else dev
    return CheckResult("hamiltonian basis-form equivalence", rel <= 1e-12, rel, "projector assembly vs literal linear-basis terms (relative)")


def check_medium_unitarity() -> CheckResult:
    rng = np.random.default_rng(7)
    dev = 0.0
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        u = ensemble.u_eff_exact(ensemble.EnsembleConfig.from_theta(theta)).matrix
        dev = max(dev, _max_dev(u.conj().T @ u, np.eye(8)))
    return CheckResult("medium unitary at random angles", dev <= 1e-12, dev, "50 random evolution angles")


def check_polarizer_claim() -> CheckResult:
    report = ensemble.check_phases_claim(ensemble.EnsembleConfig.from_theta(math.pi / 2))
    dev = max(
        _max_dev(report.input_gram, np.eye(4)),
        _max_dev(report.claimed_abs_gram, np.ones((4, 4))),
        _max_dev(report.fidelities, 0.5 * np.ones(4)),
    )
    detected = (not report.consistent) and dev <= 1e-12
    return CheckResult(
        "polarizer claim audit",
        detected,
        dev,
        report.verdict,
        expected_inconsistent=True,
    )


def check_naive_vs_collective() -> CheckResult:
    config = ensemble.EnsembleConfig.from_theta(math.pi / 2)
    u = ensemble.u_eff_exact(config).matrix
    worst = 0.0
    for n in range(1, 7):
        for level in (0, 1):
            atom = np.zeros(2)
            atom[level] = 1.0
            naive = manybody.full_simulate_naive(
                n, atom, [manybody.EnsembleEvolution(config.theta)]
            )
            # every atom in ``level`` is row 0 or the last row, and column
            # 4 * level of u is the image of |level, HH>; with unit norm, the
            # other rows are zero when this one matches
            extreme_row = naive.amplitudes.reshape(2**n, 4)[-level]
            worst = max(worst, _max_dev(extreme_row, u[4 * level : 4 * level + 4, 4 * level]))
    return CheckResult("unreduced vs collective medium evolution", worst <= 1e-10, worst, "photon amplitudes of the extreme row, N=1..6")


def _random_su2(rng: np.random.Generator) -> np.ndarray:
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    norm = math.hypot(abs(a), abs(b))
    a, b = a / norm, b / norm
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def _random_off_extreme_sequence(rng: np.random.Generator) -> list:
    """Three rounds of random atom rotation, medium step and photon rotation.

    The random SU(2) atom rotation leaves the atoms off the extremes, so every
    medium step entangles excitation number with the photons.
    """
    ops = []
    for _ in range(3):
        ops.append(manybody.AtomRotation(_random_su2(rng)))
        ops.append(manybody.EnsembleEvolution(float(rng.uniform(-2 * math.pi, 2 * math.pi))))
        ops.append(manybody.PhotonRotation(int(rng.integers(1, 3)), _random_su2(rng)))
    return ops


def check_dicke_vs_naive() -> CheckResult:
    config = ensemble.EnsembleConfig.from_theta(math.pi / 2)
    cases = []
    for fid in ("f1", "f2", "f3", "f7"):
        ops = protocol.exact_operation_sequence(protocol.table1_function(fid), config)
        cases += [(n, ops) for n in (1, 3, 6)]
    rng = np.random.default_rng(2011)
    cases += [(n, _random_off_extreme_sequence(rng)) for n in (2, 4, 6, 2, 4, 6, 2, 4)]
    worst = 0.0
    for n, ops in cases:
        naive = manybody.full_simulate_naive(n, (0.0, 1.0), ops)
        dicke = manybody.full_simulate_dicke(n, (0.0, 1.0), ops)
        extracted = manybody.dicke_amplitudes_from_naive(naive, n)
        worst = max(worst, _max_dev(extracted.reshape(-1), dicke.amplitudes))
    return CheckResult(
        "symmetric-sector vs unreduced protocol",
        worst <= 1e-10,
        worst,
        "full protocol replays at N in {1,3,6}, 8 seeded random off-extreme sequences at N in {2,4,6}",
    )


def check_feasibility_presets() -> CheckResult:
    cs = params.required_detuning(params.PRESETS["cs-cell"])
    rb = params.required_detuning(params.PRESETS["rb-mot"])
    ok = (
        abs(cs.ratio - 12.35) <= 0.05
        and abs(cs.transit_time - 6.67e-13) <= 0.005 * 6.67e-13
        and 9.0 <= rb.ratio <= 9.5
        and abs(rb.transit_time - 1.67e-12) <= 0.005 * 1.67e-12
        and cs.dispersive_ok
        and rb.dispersive_ok
    )
    detail = f"cs ratio {cs.ratio:.3f}, rb ratio {rb.ratio:.3f}"
    return CheckResult("feasibility presets", ok, None, detail)


def check_protocol_patterns() -> CheckResult:
    config = ensemble.EnsembleConfig.from_theta(math.pi / 2)
    expected = {
        "f1": (1, 1), "f2": (1, 1), "f3": (0, 1), "f4": (0, 1),
        "f5": (1, 0), "f6": (1, 0), "f7": (0, 0), "f8": (0, 0),
    }
    worst = 0.0
    ok = True
    for f in protocol.table1_functions():
        trace = protocol.run_protocol(f, "paper", config)
        pattern, prob = trace.pattern()
        ok = ok and pattern == expected[f.id] and prob >= 1 - 1e-9
        outcome = protocol.classify(pattern)
        ok = ok and outcome.classification == f.classification and f.id in outcome.function_pair
        worst = max(worst, 1.0 - prob)
    return CheckResult("declared-mode protocol patterns", ok, worst, "all eight catalog functions, deviation is 1 - top probability")


def check_reference_circuit() -> CheckResult:
    ok = True
    for n in (1, 2, 3):
        for f in protocol.enumerate_functions(n):
            result = protocol.reference_dj_circuit(f)
            ok = ok and result.deterministic and result.classification == f.classification
            ok = ok and result.oracle_calls == 1
    return CheckResult("gate-model reference circuit", ok, None, "all constant and balanced functions, n = 1..3")


def check_sampling() -> CheckResult:
    counts_a = sample_shots({0: 0.5, 1: 0.5}, 10_000, seed=99)
    counts_b = sample_shots({0: 0.5, 1: 0.5}, 10_000, seed=99)
    ok = counts_a == counts_b and abs(counts_a[0] - 5000) <= 150
    return CheckResult("seeded sampling", ok, abs(counts_a[0] - 5000), "3-sigma window and bit reproducibility")


ALL_CHECKS = (
    check_wave_plate_gadgets,
    check_microwave_pulses,
    check_composite_rotations,
    check_hamiltonian_forms,
    check_medium_unitarity,
    check_polarizer_claim,
    check_naive_vs_collective,
    check_dicke_vs_naive,
    check_feasibility_presets,
    check_protocol_patterns,
    check_reference_circuit,
    check_sampling,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
