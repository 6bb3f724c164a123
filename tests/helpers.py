"""Helpers that only tests use: phase-insensitive state equality, the
zero-padded coherent Dicke vector and a config with a non-finite angle."""

from typing import NamedTuple

import numpy as np

from djensemble.ensemble import EnsembleConfig
from djensemble.manybody import coherent_dicke_amplitudes
from djensemble.qstate import StateVector


class PhaseMatch(NamedTuple):
    equal: bool
    phase: float | None


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float) -> PhaseMatch:
    """True iff |<a|b>| >= 1 - tol; also returns arg<a|b> on success."""
    if a.space.dims != b.space.dims:
        raise ValueError("dimension mismatch")
    ov = complex(np.vdot(a.amplitudes, b.amplitudes))
    if abs(ov) >= 1.0 - tol:
        return PhaseMatch(True, float(np.angle(ov)))
    return PhaseMatch(False, None)


def coherent_dicke_vector(single, n_atoms: int) -> np.ndarray:
    """All N + 1 amplitudes of ``coherent_dicke_amplitudes``, zero outside its band."""
    start, band = coherent_dicke_amplitudes(single, n_atoms)
    amps = np.zeros(n_atoms + 1, dtype=complex)
    amps[start : start + len(band)] = band
    return amps


def nonfinite_theta_config(interaction_time: float) -> EnsembleConfig:
    """A valid config whose angle is NaN (time 0) or +-inf (time +-1): the
    smallest subnormal detuning makes the light shift overflow to inf."""
    return EnsembleConfig(
        n_atoms=1, coupling=1.0, detuning=5e-324, interaction_time=interaction_time
    )
