"""The verify checks detect the faults they are there for."""

import math

import numpy as np

from djensemble import checks, ensemble, manybody, protocol


def test_dicke_vs_naive_passes_on_catalog_and_random_sequences():
    result = checks.check_dicke_vs_naive()
    assert result.passed and result.deviation <= 1e-10
    assert "8 seeded random off-extreme sequences" in result.detail


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
    result = checks.check_dicke_vs_naive()
    assert not result.passed and result.deviation > 0.1
    ops = protocol.exact_operation_sequence(
        protocol.table1_function("f3"), ensemble.EnsembleConfig.from_theta(math.pi / 2)
    )
    naive = manybody.full_simulate_naive(3, (0.0, 1.0), ops)
    dicke = manybody.full_simulate_dicke(3, (0.0, 1.0), ops)
    extracted = manybody.dicke_amplitudes_from_naive(naive, 3).reshape(-1)
    assert np.max(np.abs(extracted - dicke.amplitudes)) > 0.1


def test_naive_vs_collective_catches_a_conjugated_naive_kernel(monkeypatch):
    """Conjugating the unreduced medium step leaves every photon marginal
    unchanged at the extremes, but not the amplitudes."""
    original = manybody._evolution_block
    monkeypatch.setattr(
        manybody, "_evolution_block", lambda lam_t, n_plain, n_primed: original(-lam_t, n_plain, n_primed)
    )
    result = checks.check_naive_vs_collective()
    assert not result.passed and result.deviation > 0.1

