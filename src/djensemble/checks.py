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
from .qstate import born_distribution, sample_shots


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
    dev = _max_dev(ensemble.build_h_eff(config), ensemble.build_h_eff_linear(config))
    scale = float(np.max(np.abs(ensemble.build_h_eff(config))))
    rel = dev / scale if scale else dev
    return CheckResult("hamiltonian basis-form equivalence", rel <= 1e-12, rel, "projector assembly vs literal linear-basis terms (relative)")


def check_medium_unitarity() -> CheckResult:
    rng = np.random.default_rng(7)
    # row 4 * level + r is the product row |level, r>, with m = level primed atoms at N = 1
    identity_rows, levels = np.tile(np.eye(4, dtype=complex), (2, 1)), np.repeat([0.0, 1.0], 4)
    dev = 0.0
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        rows = identity_rows.copy()
        manybody._medium_phase(rows, theta, 1, levels)
        # row r of a level's rows is the image of |r>: U holds their transposes, and zeros off-level
        closed = np.zeros((8, 8), dtype=complex)
        closed[:4, :4], closed[4:, 4:] = rows[:4].T, rows[4:].T
        dev = max(dev, _max_dev(ensemble.u_eff_exact(theta).matrix, closed))
    detail = "50 random evolution angles, N = 1 phases on each atom level, off-level blocks zero"
    return CheckResult("medium vs circular closed form", dev <= 1e-12, dev, detail)


def check_polarizer_claim() -> CheckResult:
    report = ensemble.check_phases_claim(math.pi / 2)
    dev = max(
        _max_dev(report.claimed_abs_gram, np.ones((4, 4))),
        _max_dev(report.fidelities, 0.5 * np.ones(4)),
        _max_dev(report.singular_values, [[2.0, 0.0, 0.0, 0.0]] * 2),
    )
    # dev includes max ||G| - 1|, so it also says whether the claim is inconsistent
    detected = dev <= 1e-12
    return CheckResult(
        "polarizer claim audit",
        detected,
        dev,
        report.verdict,
        expected_inconsistent=True,
    )


def check_naive_vs_collective() -> CheckResult:
    u = ensemble.u_eff_exact(math.pi / 2).matrix
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in range(1, 7):
        for level in (0, 1):
            r1, r2 = _random_su2(rng), _random_su2(rng)
            ops = [manybody.PhotonRotation(1, r1), manybody.PhotonRotation(2, r2), manybody.EnsembleEvolution(math.pi / 2)]
            naive = manybody.full_simulate_naive(n, np.eye(2)[level], ops)
            # the photons start horizontal; block (level, level) of u is the medium with the atoms in ``level``
            photons = u[4 * level : 4 * level + 4, 4 * level : 4 * level + 4] @ np.kron(r1[:, 0], r2[:, 0])
            # every atom in ``level`` is row 0 or the last row; at unit norm the other rows are zero if it matches
            worst = max(worst, _max_dev(naive.amplitudes.reshape(2**n, 4)[-level], photons))
            if n >= 5:  # 2^n >= 32 rows, so born_distribution folds them
                marginal = born_distribution(naive, ("photon1", "photon2"))
                worst = max(worst, _max_dev(list(marginal.values()), np.abs(photons) ** 2))
    detail = "photon amplitudes of the extreme row after random photon rotations, N=1..6; photon marginals at N in {5,6}"
    return CheckResult("unreduced vs collective medium evolution", worst <= 1e-10, worst, detail)


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
    primed = (0.0, 1.0)
    cases = []
    for fid in ("f1", "f2", "f3", "f7"):
        ops = protocol.exact_operation_sequence(protocol.table1_function(fid), config)
        cases += [(n, primed, ops) for n in (1, 3, 6)]
    rng = np.random.default_rng(2011)
    cases += [(n, primed, _random_off_extreme_sequence(rng)) for n in (2, 3, 4, 5, 6, 2, 3, 4)]
    # every catalog medium step finds the atoms at the plain-ground extreme and
    # the random sequences leave the extremes first, so these start a medium
    # step from a product state at each extreme
    h1 = polarization.hadamard_variant(1).matrix
    at_extreme = [manybody.PhotonRotation(1, h1), manybody.EnsembleEvolution(math.pi / 2),
                  manybody.PhotonRotation(1, h1), manybody.PhotonRotation(2, h1)]
    cases += [(n, atom, at_extreme) for atom in (primed, (1.0, 0.0)) for n in (1, 3, 6)]
    worst = 0.0
    for n, atom, ops in cases:
        naive = manybody.full_simulate_naive(n, atom, ops)
        dicke = manybody.full_simulate_dicke(n, atom, ops)
        extracted = manybody.dicke_amplitudes_from_naive(naive, n)
        worst = max(worst, _max_dev(extracted.reshape(-1), dicke.amplitudes))
    return CheckResult(
        "symmetric-sector vs unreduced protocol",
        worst <= 1e-10,
        worst,
        "full protocol replays at N in {1,3,6}, 8 seeded random off-extreme sequences at N in {2,3,4,5,6}, "
        "a medium step at each extreme at N in {1,3,6}",
    )


def check_feasibility_presets() -> CheckResult:
    cs = params.required_detuning(params.PRESETS["cs-cell"])
    rb = params.required_detuning(params.PRESETS["rb-mot"])
    ok = (
        abs(cs.detuning_over_coupling - 12.35) <= 0.05
        and abs(cs.transit_time_s - 6.67e-13) <= 0.005 * 6.67e-13
        and 9.0 <= rb.detuning_over_coupling <= 9.5
        and abs(rb.transit_time_s - 1.67e-12) <= 0.005 * 1.67e-12
        and cs.dispersive_ok
        and rb.dispersive_ok
    )
    detail = f"cs ratio {cs.detuning_over_coupling:.3f}, rb ratio {rb.detuning_over_coupling:.3f}"
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
        ok = ok and pattern == expected[f.id] and protocol.is_deterministic(prob)
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
    """Every check's result, in order; a check that raises is a failed result.

    A defect that breaks a check's own run, such as a state that is no longer
    normalized, is a failed check and not a crash of the suite: the other
    checks still run and the report is still written.
    """
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:
            results.append(CheckResult(check.__name__, False, None, f"raised {type(exc).__name__}: {exc}"))
    return results
