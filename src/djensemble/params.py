"""Experimental feasibility numbers: transit time, required detuning, margins.

Frequencies are angular (rad/s) throughout; the reports also carry the
cyclic value detuning/2pi for convenience.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .ensemble import EnsembleConfig

SPEED_OF_LIGHT = 2.99792458e8  # m/s
# detuning/coupling at or above which the second-order (dispersive)
# treatment of the medium holds
DISPERSIVE_THRESHOLD = 5.0
# relaxation time over transit time at or above which decoherence during the
# traversal is negligible
DECOHERENCE_THRESHOLD = 1e3


@dataclass(frozen=True)
class MediumSpec:
    """Geometry and coupling of one atomic medium."""

    length: float  # photon path through the medium, m
    n_atoms: int
    coupling: float  # rad/s
    relaxation_time: float = 1e-6  # s, ground-state coherence timescale

    def __post_init__(self):
        if isinstance(self.n_atoms, bool) or not isinstance(self.n_atoms, numbers.Integral):
            raise ValueError(f"n_atoms must be an integer, got {self.n_atoms!r}")
        for name in ("length", "n_atoms", "coupling", "relaxation_time"):
            check_medium_value(name, getattr(self, name))


def check_medium_value(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite positive float."""
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        if value > 0:
            raise ValueError(f"{name} must be at most {sys.float_info.max:.4g}, the largest float") from None
        x = -math.inf
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be finite and positive, got {x!r}")


@dataclass(frozen=True)
class FeasibilityReport:
    transit_time: float
    lambda_value: float
    detuning: float
    ratio: float
    decoherence_margin: float
    dispersive_ok: bool
    decoherence_ok: bool
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "transit_time_s": self.transit_time,
            "lambda_rad_s": self.lambda_value,
            "detuning_rad_s": self.detuning,
            "detuning_cyclic_hz": self.detuning / (2.0 * math.pi),
            "detuning_over_coupling": self.ratio,
            "decoherence_margin": self.decoherence_margin,
            "dispersive_ok": self.dispersive_ok,
            "decoherence_ok": self.decoherence_ok,
            "notes": list(self.notes),
        }


def transit_time(length: float) -> float:
    """Photon transit time through a medium of the given length."""
    if length <= 0:
        raise ValueError("length must be positive")
    return length / SPEED_OF_LIGHT


def required_detuning(spec: MediumSpec) -> FeasibilityReport:
    """Detuning that puts the medium traversal at a quarter-turn evolution angle.

    With the evolution angle fixed at pi/2 and lambda = coupling^2/detuning,
    the detuning is 2 g^2 N T / pi for transit time T.
    """
    out_of_range = "medium parameters put the detuning or a derived quantity out of floating-point range"
    t = transit_time(spec.length)
    try:
        detuning = 2.0 * spec.coupling**2 * spec.n_atoms * t / math.pi
        lam = spec.coupling**2 / detuning
        ratio = detuning / spec.coupling
        margin = spec.relaxation_time / t
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(out_of_range) from exc
    if not all(math.isfinite(v) and v > 0 for v in (t, detuning, lam, ratio, margin)):
        raise ValueError(out_of_range)
    dispersive_ok = ratio >= DISPERSIVE_THRESHOLD
    decoherence_ok = margin >= DECOHERENCE_THRESHOLD
    notes = []
    if not dispersive_ok:
        notes.append(
            f"detuning is only {ratio:.3g} couplings; below threshold {DISPERSIVE_THRESHOLD:g}"
        )
    if not decoherence_ok:
        notes.append(
            f"relaxation margin {margin:.3g} is below threshold {DECOHERENCE_THRESHOLD:g}"
        )
    return FeasibilityReport(
        transit_time=t,
        lambda_value=lam,
        detuning=detuning,
        ratio=ratio,
        decoherence_margin=margin,
        dispersive_ok=dispersive_ok,
        decoherence_ok=decoherence_ok,
        notes=tuple(notes),
    )


def ensemble_config_from_report(spec: MediumSpec, report: FeasibilityReport) -> EnsembleConfig:
    """Round-trip a feasibility report into a dynamics configuration."""
    return EnsembleConfig(
        n_atoms=spec.n_atoms,
        coupling=spec.coupling,
        detuning=report.detuning,
        interaction_time=report.transit_time,
    )


# Quoted media: a room-temperature cesium vapor cell and a rubidium
# magneto-optical trap.
PRESETS = {
    "cs-cell": MediumSpec(length=200e-6, n_atoms=100_000, coupling=2.91e8),
    "rb-mot": MediumSpec(length=0.5e-3, n_atoms=2_500_000, coupling=3.53e6),
}
