"""Helpers that only tests use: phase-insensitive state equality and the
zero-padded coherent Dicke vector."""

from typing import NamedTuple

import numpy as np

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
