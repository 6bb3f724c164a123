"""Helpers that only tests use: phase-insensitive state equality, the
zero-padded coherent Dicke vector and a reference form of the binomial log
weight."""

import math
from typing import NamedTuple

import numpy as np

from djensemble.manybody import _STIRLERR_SMALL, coherent_dicke_amplitudes
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


def _stirlerr_reference(n):
    r = 1.0 / np.maximum(n, 16.0)
    r2 = r * r
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r2 / 1188) * r2) * r2) * r2) * r
    return np.where(n <= 15, _STIRLERR_SMALL[np.minimum(n, 15).astype(int)], series)


def _bd0_reference(x, lam):
    d = x - lam
    v = d / (x + lam)
    v2 = v * v
    term = 2.0 * x * v
    series = d * v
    for j in range(1, 10):
        term *= v2
        series += term * (1.0 / (2 * j + 1))
    with np.errstate(divide="ignore", over="ignore"):
        direct = x * np.log(np.where(x > 0, x / lam, 1.0)) + lam - x
    return np.where(np.abs(v) < 0.1, series, direct)


def log_binomial_reference(m, n_atoms, lam, mu):
    """``manybody._log_binomial`` with both forms of every stirlerr and bd0
    term computed for every entry, as np.where then picks them."""
    k = n_atoms - m
    with np.errstate(divide="ignore"):
        spread = np.where((m > 0) & (k > 0), np.log(2.0 * math.pi * m * k / n_atoms), 0.0)
    return (
        _stirlerr_reference(float(n_atoms))
        - _stirlerr_reference(m)
        - _stirlerr_reference(k)
        - _bd0_reference(m, lam)
        - _bd0_reference(k, mu)
        - 0.5 * spread
    )
