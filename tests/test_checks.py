"""The verify checks detect the faults they are there for."""

import math

import numpy as np
import pytest

from djensemble import checks, ensemble, manybody, protocol


def test_dicke_vs_naive_passes_on_catalog_and_random_sequences():
    result = checks.judge(checks.check_dicke_vs_naive)
    assert result.passed and result.deviation <= 1e-10
    assert "8 seeded random off-extreme sequences" in result.detail


def test_dicke_vs_naive_rotates_off_the_extremes_at_both_parities(monkeypatch):
    # the sigma_x half bases are laid out differently for odd and even N
    rotated = []
    original = manybody.symmetric_rotation
    monkeypatch.setattr(
        manybody, "symmetric_rotation", lambda u, n, rows: rotated.append(n) or original(u, n, rows)
    )
    assert checks.judge(checks.check_dicke_vs_naive).passed
    assert len(rotated) == 16 and {n % 2 for n in rotated} == {0, 1}


def test_random_sequences_leave_the_extremes():
    rng = np.random.default_rng(5)
    for _ in range(4):
        ops = checks._random_off_extreme_sequence(rng)
        assert sum(isinstance(op, manybody.EnsembleEvolution) for op in ops) == 3
        state = manybody.full_simulate_dicke(4, (0.0, 1.0), ops[:2]).amplitudes.reshape(5, 4)
        # the medium step entangled excitation number with the photons
        assert np.linalg.svd(state, compute_uv=False)[1] > 1e-3


def test_dicke_vs_naive_catches_a_mirrored_medium_phase(monkeypatch):
    """Swapping tilt for its conjugate is the medium step with the two atomic
    levels exchanged. The Dicke run applies the same closed form whether or
    not the atoms sit at an extreme, so the catalog replays catch it too."""
    original = manybody._medium_phase
    monkeypatch.setattr(
        manybody, "_medium_phase", lambda rows, theta, n, m: original(rows, theta, n, n - m)
    )
    result = checks.judge(checks.check_dicke_vs_naive)
    assert not result.passed and result.deviation > 0.1
    ops = protocol.exact_operation_sequence(protocol.table1_function("f3"), math.pi / 2)
    naive = manybody.full_simulate_naive(3, (0.0, 1.0), ops)
    dicke = manybody.full_simulate_dicke(3, (0.0, 1.0), ops)
    extracted = manybody.dicke_amplitudes_from_naive(naive, 3).reshape(-1)
    assert np.max(np.abs(extracted - dicke.amplitudes)) > 0.1


def test_naive_vs_collective_catches_a_conjugated_naive_kernel(monkeypatch):
    """Conjugating the unreduced medium step leaves every photon marginal
    unchanged at the extremes, but not the amplitudes."""
    original = manybody._evolution_block
    monkeypatch.setattr(
        manybody, "_evolution_block", lambda lam_t, n_atoms: original(-lam_t, n_atoms)
    )
    result = checks.judge(checks.check_naive_vs_collective)
    assert not result.passed and result.deviation > 0.1


def test_medium_check_catches_a_medium_blind_to_the_angle_sign(monkeypatch):
    """exp(-i H |theta|) is unitary at every angle, so only a comparison with
    the closed form sees that negative angles run forward."""
    original = ensemble.u_eff_exact
    monkeypatch.setattr(ensemble, "u_eff_exact", lambda theta: original(abs(theta)))
    result = checks.judge(checks.check_medium_unitarity)
    assert not result.passed and result.deviation > 0.1


def test_naive_vs_collective_catches_a_photon_rotation_on_the_other_photon(monkeypatch):
    """The naive and Dicke runs share ``pair``; the compact input is built
    with np.kron, so a gate on the wrong photon shows."""
    post_init = manybody.PhotonRotation.__post_init__

    def swapped(self):
        post_init(self)
        pair = np.kron(self.matrix, np.eye(2)) if self.photon == 2 else np.kron(np.eye(2), self.matrix)
        object.__setattr__(self, "pair", pair)

    monkeypatch.setattr(manybody.PhotonRotation, "__post_init__", swapped)
    result = checks.judge(checks.check_naive_vs_collective)
    assert not result.passed and result.deviation > 0.1


def test_run_all_checks_repeats_its_results():
    """The simulators' per-N caches carry nothing from one run to the next."""
    assert checks.run_all_checks() == checks.run_all_checks()


def test_a_check_that_raises_is_a_failed_result(monkeypatch):
    """A raised check is reported under its table name, found by its function's name."""
    def check_dicke_vs_naive():
        raise ValueError("state must be normalized")

    monkeypatch.setattr(checks, "ALL_CHECKS", (checks.check_sampling, check_dicke_vs_naive, checks.check_wave_plate_gadgets))
    results = checks.run_all_checks()
    assert [r.name for r in results] == [
        "seeded sampling", "symmetric-sector vs unreduced protocol", "wave-plate gadget identities"
    ]
    assert results[0].passed and results[2].passed
    assert results[1] == checks.CheckResult(
        "symmetric-sector vs unreduced protocol", False, None, "raised ValueError: state must be normalized"
    )


def test_a_bound_check_passes_up_to_its_table_bound():
    bound = checks.CHECKS["check_wave_plate_gadgets"][1]
    for deviation, passed in ((bound, True), (np.nextafter(bound, 1.0), False)):
        def check_wave_plate_gadgets():
            return deviation, "forced by the test"

        assert checks.judge(check_wave_plate_gadgets) == checks.CheckResult(
            "wave-plate gadget identities", passed, deviation, "forced by the test"
        )


def test_the_table_names_every_check_once():
    assert [check.__name__ for check in checks.ALL_CHECKS] == list(checks.CHECKS)
    names = [name for name, _, _ in checks.CHECKS.values()]
    assert len(set(names)) == len(names) == 12
    assert [key for key, row in checks.CHECKS.items() if row[2]] == ["check_polarizer_claim"]


def test_run_all_checks_lets_a_keyboard_interrupt_through(monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(checks, "ALL_CHECKS", (interrupted,))
    with pytest.raises(KeyboardInterrupt):
        checks.run_all_checks()
