"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the console; tolerances are pinned here and are not configurable.
"""

import math
import time

import numpy as np

from djensemble.ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    EnsembleConfig,
    build_h_eff,
    build_h_eff_linear,
    check_phases_claim,
    microwave_rotation,
    u_eff_exact,
)
from djensemble.manybody import (
    EnsembleEvolution,
    PhotonRotation,
    dicke_amplitudes_from_naive,
    full_simulate_dicke,
    full_simulate_naive,
)
from djensemble.params import PRESETS, required_detuning
from djensemble.polarization import HADAMARD_GADGETS, composite_h, gadget_compose, hadamard_variant
from djensemble.protocol import (
    classify,
    enumerate_functions,
    exact_operation_sequence,
    reference_dj_circuit,
    run_protocol,
    table1_function,
    table1_functions,
)
from djensemble.qstate import StateVector, born_distribution, sample_shots

QUARTER_TURN = EnsembleConfig.from_theta(math.pi / 2)


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_01_wave_plate_gadget_identities():
    def run_products():
        dev = 0.0
        for i, plates in HADAMARD_GADGETS.items():
            built = gadget_compose(plates).matrix
            dev = max(dev, float(np.max(np.abs(built - hadamard_variant(i).matrix))))
        return dev

    run_products()  # warm-up
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        dev = run_products()
        elapsed.append(time.perf_counter() - start)
    best = min(elapsed)
    report(
        1,
        "wave-plate gadget identities",
        dev <= 1e-12 and best < 1e-3,
        f"max deviation {dev:.2e}, runtime {best * 1e3:.3f} ms",
    )


def test_02_microwave_realizations():
    dev = 0.0
    for i, pulse in HADAMARD_PULSES.items():
        built = microwave_rotation(pulse).matrix
        dev = max(dev, float(np.max(np.abs(built - hadamard_variant(i).matrix))))
    not_gate = microwave_rotation(NOT_PULSE).matrix
    swap_dev = max(
        float(np.max(np.abs(np.abs(not_gate @ [1.0, 0.0]) - [0.0, 1.0]))),
        float(np.max(np.abs(np.abs(not_gate @ [0.0, 1.0]) - [1.0, 0.0]))),
    )
    report(
        2,
        "microwave pulse realizations",
        dev <= 1e-12 and swap_dev <= 1e-12,
        f"hadamard deviation {dev:.2e}, NOT swap deviation {swap_dev:.2e}",
    )


def test_03_composite_rotations_are_diagonal_phases():
    e = np.exp(1j * math.pi / 4)
    dev = max(
        float(np.max(np.abs(composite_h("prime").matrix - np.diag([e, np.conj(e)])))),
        float(np.max(np.abs(composite_h("double_prime").matrix - np.diag([np.conj(e), e])))),
    )
    report(3, "composite diagonal rotations", dev <= 1e-12, f"max deviation {dev:.2e}")


def test_04_hamiltonian_form_equivalence():
    # unit energy scale so the absolute tolerance is meaningful
    config = EnsembleConfig.from_physics(1.0, 10.0, 10, 1.0)
    dev = float(np.max(np.abs(build_h_eff(config).matrix - build_h_eff_linear(config).matrix)))
    report(4, "hamiltonian basis-form equivalence", dev <= 1e-12, f"max deviation {dev:.2e}")


def test_05_feasibility_numbers():
    cs = required_detuning(PRESETS["cs-cell"])
    rb = required_detuning(PRESETS["rb-mot"])
    ok = (
        abs(cs.ratio - 12.35) <= 0.05
        and abs(cs.transit_time - 6.67e-13) <= 0.005 * 6.67e-13
        and 9.0 <= rb.ratio <= 9.5
        and abs(rb.transit_time - 1.67e-12) <= 0.005 * 1.67e-12
    )
    report(
        5,
        "feasibility presets",
        ok,
        f"cs ratio {cs.ratio:.4f}, cs T {cs.transit_time:.4g} s, "
        f"rb ratio {rb.ratio:.4f}, rb T {rb.transit_time:.4g} s",
    )


def test_06_paper_mode_end_to_end():
    expected = {
        "f1": (1, 1), "f2": (1, 1), "f3": (0, 1), "f4": (0, 1),
        "f5": (1, 0), "f6": (1, 0), "f7": (0, 0), "f8": (0, 0),
    }
    start = time.perf_counter()
    ok = True
    worst = 1.0
    for f in table1_functions():
        trace = run_protocol(f, "paper", QUARTER_TURN)
        pattern, prob = trace.pattern()
        worst = min(worst, prob)
        outcome = classify(pattern)
        ok = ok and pattern == expected[f.id] and prob >= 1.0 - 1e-9
        ok = ok and outcome.classification == f.classification
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(
        6,
        "declared-mode end to end",
        ok,
        f"worst top probability {worst:.12f}, runtime {elapsed * 1e3:.1f} ms",
    )


def test_07_exact_mode_constant_branch():
    ok = True
    for fid in ("f1", "f2"):
        trace = run_protocol(table1_function(fid), "exact", QUARTER_TURN)
        pattern, prob = trace.pattern()
        ok = ok and pattern == (1, 1) and prob >= 1.0 - 1e-9
        ok = ok and trace.ensemble_evolution_calls == 0
    report(7, "exact-mode constant branch", ok, "pattern (1,1) with no medium traversal")


def test_08_polarizer_claim_audit():
    audit = check_phases_claim(QUARTER_TURN)
    dev = max(
        float(np.max(np.abs(audit.input_gram - np.eye(4)))),
        float(np.max(np.abs(audit.claimed_abs_gram - np.ones((4, 4))))),
        float(np.max(np.abs(audit.fidelities - 0.5))),
    )
    ok = dev <= 1e-12 and not audit.consistent and "not unitary" in audit.verdict
    report(8, "polarizer claim audit", ok, f"max deviation from analytic values {dev:.2e}")


def test_09_oracle_equivalence():
    start = time.perf_counter()
    worst_marginal = 0.0
    u = u_eff_exact(QUARTER_TURN)
    rng = np.random.default_rng(123)
    for n in range(1, 11):
        for level in (0, 1):
            atom = np.zeros(2)
            atom[level] = 1.0
            for _ in range(2):
                # the photons start horizontal; random rotations give a random product input
                u1, u2 = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                          for _ in range(2))
                photons = np.kron(u1[:, 0], u2[:, 0])
                ops = [PhotonRotation(1, u1), PhotonRotation(2, u2), EnsembleEvolution(math.pi / 2)]
                naive = full_simulate_naive(n, atom, ops)
                marg = born_distribution(naive, ("photon1", "photon2"))
                amps = np.zeros(8, dtype=complex)
                amps[4 * level : 4 * level + 4] = photons
                evolved = u.apply(StateVector(u.space, amps))
                expected = born_distribution(evolved, ("photon1", "photon2"))
                worst_marginal = max(
                    worst_marginal, max(abs(marg[k] - expected[k]) for k in expected)
                )
    worst_dicke = 0.0
    for f in table1_functions():
        ops = exact_operation_sequence(f, QUARTER_TURN)
        for n in range(1, 11):
            naive = full_simulate_naive(n, (0.0, 1.0), ops)
            dicke = full_simulate_dicke(n, (0.0, 1.0), ops)
            extracted = dicke_amplitudes_from_naive(naive, n).reshape(-1)
            worst_dicke = max(worst_dicke, float(np.max(np.abs(extracted - dicke.amplitudes))))
    elapsed = time.perf_counter() - start
    ok = worst_marginal <= 1e-10 and worst_dicke <= 1e-10 and elapsed < 30.0
    report(
        9,
        "oracle equivalences",
        ok,
        f"collective marginal deviation {worst_marginal:.2e}, "
        f"symmetric-sector deviation {worst_dicke:.2e}, runtime {elapsed:.2f} s",
    )


def test_10_symmetric_sector_scaling():
    f = table1_function("f3")
    ops = exact_operation_sequence(f, QUARTER_TURN)
    full_simulate_dicke(1000, (0.0, 1.0), ops)  # warm-up
    start = time.perf_counter()
    dicke = full_simulate_dicke(100_000, (0.0, 1.0), ops)
    elapsed = time.perf_counter() - start
    trace = run_protocol(f, "exact", QUARTER_TURN)
    marg_d = born_distribution(dicke, ("photon1", "photon2"))
    marg_c = trace.distribution()
    dev = max(abs(marg_d[k] - marg_c[k]) for k in marg_c)
    ok = elapsed < 1.0 and dev <= 1e-10
    report(
        10,
        "symmetric-sector scaling at N = 100000",
        ok,
        f"runtime {elapsed:.3f} s, deviation vs collective {dev:.2e}",
    )


def test_11_reference_circuit():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for f in enumerate_functions(n):
            result = reference_dj_circuit(f)
            ok = ok and result.classification == f.classification
            ok = ok and result.deterministic
            ok = ok and result.classification_probability >= 1.0 - 1e-9
            ok = ok and result.oracle_calls == 1
            checked += 1
    report(11, "gate-model reference circuit", ok, f"{checked} functions classified, n = 1..3")


def test_12_sampling_statistics():
    counts_a = sample_shots({0: 0.5, 1: 0.5}, 10_000, seed=2024)
    counts_b = sample_shots({0: 0.5, 1: 0.5}, 10_000, seed=2024)
    three_sigma = 3 * math.sqrt(10_000 * 0.25)
    ok = counts_a == counts_b and abs(counts_a[0] - 5000) <= three_sigma
    report(
        12,
        "sampling statistics",
        ok,
        f"|count - 5000| = {abs(counts_a[0] - 5000)}, 3 sigma = {three_sigma:.0f}, reproducible",
    )
