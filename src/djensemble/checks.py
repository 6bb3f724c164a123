"""Named verification checks behind the ``verify`` command.

The ``CHECKS`` table holds each check's printed name and bound, and ``judge``
builds every ``CheckResult`` from it. The polarizer claim audit is special:
the declared rewrite is expected to be inconsistent with the exact unitary,
so that check passes when the inconsistency is detected.
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


def check_wave_plate_gadgets() -> tuple:
    dev = 0.0
    for i, plates in polarization.HADAMARD_GADGETS.items():
        built = polarization.gadget_compose(plates).matrix
        dev = max(dev, _max_dev(built, polarization.hadamard_variant(i).matrix))
    return dev, "raw matrix equality for all four variants"


def check_microwave_pulses() -> tuple:
    dev = 0.0
    for i, pulse in ensemble.HADAMARD_PULSES.items():
        built = ensemble.microwave_rotation(pulse).matrix
        dev = max(dev, _max_dev(built, polarization.hadamard_variant(i).matrix))
    not_gate = ensemble.microwave_rotation(ensemble.NOT_PULSE).matrix
    dev = max(dev, _max_dev(not_gate, np.array([[0.0, 1.0], [-1.0, 0.0]])))
    return dev, "four Hadamard pulses plus the NOT pulse"


def check_composite_rotations() -> tuple:
    prime = polarization.composite_h("prime").matrix
    double = polarization.composite_h("double_prime").matrix
    e = np.exp(1j * math.pi / 4)
    dev = max(
        _max_dev(prime, np.diag([e, e.conjugate()])),
        _max_dev(double, np.diag([e.conjugate(), e])),
    )
    return dev, "pure +-pi/4 phases per polarization"


def check_hamiltonian_forms() -> tuple:
    return _max_dev(ensemble.H_EFF, ensemble.h_eff_linear()), "projector assembly vs literal linear-basis terms"


def check_medium_unitarity() -> tuple:
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
    return dev, "50 random evolution angles, N = 1 phases on each atom level, off-level blocks zero"


def check_polarizer_claim() -> tuple:
    report = ensemble.check_phases_claim()
    dev = max(
        _max_dev(report.claimed_abs_gram, np.ones((4, 4))),
        _max_dev(report.fidelities, 0.5 * np.ones(4)),
        _max_dev(report.singular_values, [[2.0, 0.0, 0.0, 0.0]] * 2),
    )
    # dev includes max ||G| - 1|, so within its bound the inconsistency is detected
    return dev, report.verdict


def check_naive_vs_collective() -> tuple:
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
    return worst, "photon amplitudes of the extreme row after random photon rotations, N=1..6; photon marginals at N in {5,6}"


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


def check_dicke_vs_naive() -> tuple:
    primed = (0.0, 1.0)
    cases = []
    for fid in ("f1", "f2", "f3", "f7"):
        ops = protocol.exact_operation_sequence(protocol.table1_function(fid), math.pi / 2)
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
    return worst, (
        "full protocol replays at N in {1,3,6}, 8 seeded random off-extreme sequences at N in {2,3,4,5,6}, "
        "a medium step at each extreme at N in {1,3,6}"
    )


def check_feasibility_presets() -> tuple:
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
    return ok, None, f"cs ratio {cs.detuning_over_coupling:.3f}, rb ratio {rb.detuning_over_coupling:.3f}"


def check_protocol_patterns() -> tuple:
    expected = {
        "f1": (1, 1), "f2": (1, 1), "f3": (0, 1), "f4": (0, 1),
        "f5": (1, 0), "f6": (1, 0), "f7": (0, 0), "f8": (0, 0),
    }
    worst, ok = 0.0, True
    for f in protocol.table1_functions():
        trace = protocol.run_protocol(f, "paper", math.pi / 2)
        pattern, prob = trace.pattern()
        ok = ok and pattern == expected[f.id] and protocol.is_deterministic(prob)
        outcome = protocol.classify(pattern)
        ok = ok and outcome.classification == f.classification and f.id in outcome.function_pair
        worst = max(worst, 1.0 - prob)
    return ok, worst, "all eight catalog functions, deviation is 1 - top probability"


def check_reference_circuit() -> tuple:
    ok = True
    for n in (1, 2, 3):
        for f in protocol.enumerate_functions(n):
            result = protocol.reference_dj_circuit(f)
            ok = ok and result.deterministic and result.classification == f.classification
            ok = ok and result.oracle_calls == 1
    return ok, None, "all constant and balanced functions, n = 1..3"


def check_sampling() -> tuple:
    (counts_a,) = sample_shots([{0: 0.5, 1: 0.5}], 10_000, seed=99)
    (counts_b,) = sample_shots([{0: 0.5, 1: 0.5}], 10_000, seed=99)
    ok = counts_a == counts_b and abs(counts_a[0] - 5000) <= 150
    return ok, float(abs(counts_a[0] - 5000)), "3-sigma window and bit reproducibility"


# Each check's printed name, its bound, and whether its pass means the declared
# rewrite was found inconsistent. A check with a bound returns (deviation,
# detail) and passes at deviation <= bound; one without returns its verdict,
# (passed, deviation, detail).
CHECKS = {
    "check_wave_plate_gadgets": ("wave-plate gadget identities", 1e-12, False),
    "check_microwave_pulses": ("microwave pulse identities", 1e-12, False),
    "check_composite_rotations": ("composite diagonal rotations", 1e-12, False),
    "check_hamiltonian_forms": ("hamiltonian basis-form equivalence", 1e-12, False),
    "check_medium_unitarity": ("medium vs circular closed form", 1e-12, False),
    "check_polarizer_claim": ("polarizer claim audit", 1e-12, True),
    "check_naive_vs_collective": ("unreduced vs collective medium evolution", 1e-10, False),
    "check_dicke_vs_naive": ("symmetric-sector vs unreduced protocol", 1e-10, False),
    "check_feasibility_presets": ("feasibility presets", None, False),
    "check_protocol_patterns": ("declared-mode protocol patterns", None, False),
    "check_reference_circuit": ("gate-model reference circuit", None, False),
    "check_sampling": ("seeded sampling", None, False),
}
# flat, so that wrapping the items of module-level tuples wraps each check; a wrapper keeps the name
ALL_CHECKS = tuple(globals()[key] for key in CHECKS)


def judge(check) -> CheckResult:
    """Run ``check`` and hold its outcome to the row of ``CHECKS`` named by its function.

    A check that raises, say on a state that is no longer normalized, is a
    failed result under its printed name, not a crash of the suite.
    """
    try:
        outcome = check()
    except Exception as exc:
        outcome = exc
    name, bound, expected_inconsistent = CHECKS[check.__name__]
    if isinstance(outcome, Exception):
        outcome = False, None, f"raised {type(outcome).__name__}: {outcome}"
    elif bound is not None:
        outcome = outcome[0] <= bound, *outcome
    return CheckResult(name, *outcome, expected_inconsistent)


def run_all_checks() -> list[CheckResult]:
    """Every check's result, in order; one that raises still lets the rest run."""
    return [judge(check) for check in ALL_CHECKS]
