"""The verify checks detect the faults they are there for."""

import numpy as np

from djensemble import checks, manybody


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
    """Swapping the phase profiles of the ++ and -- photon pairs off the
    extremes (tilt for its conjugate) is the medium step with the two atomic
    levels exchanged. The catalog replays never reach it: only the random
    sequences do."""
    original = manybody._DickeRun.ensemble_evolution

    def mirrored(self, theta):
        if self.general is None:
            alpha, beta = self.atom_vec
            if abs(alpha) <= 1e-14 or abs(beta) <= 1e-14:
                return original(self, theta)
            self._materialize()
        self.general = self.general[::-1].copy()
        original(self, theta)
        self.general = self.general[::-1].copy()

    monkeypatch.setattr(manybody._DickeRun, "ensemble_evolution", mirrored)
    result = checks.check_dicke_vs_naive()
    assert not result.passed and result.deviation > 0.1
