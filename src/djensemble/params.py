"""Experimental feasibility numbers: transit time, required detuning, margins.

Frequencies are angular (rad/s) throughout; the reports also carry the
cyclic value detuning/2pi for convenience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .qstate import check_count, check_positive

SPEED_OF_LIGHT = 2.99792458e8  # m/s
# detuning/coupling at or above which the second-order (dispersive)
# treatment of the medium holds
DISPERSIVE_THRESHOLD = 5.0
# relaxation time over transit time at or above which decoherence during the
# traversal is negligible
DECOHERENCE_THRESHOLD = 1e3


@dataclass(frozen=True)
class MediumSpec:
    """Geometry and coupling of one atomic medium; the fields are a medium file's keys.

    Each field's ``type`` is its annotation as a string ("float" or "int",
    the annotations being postponed), which the checks here and the medium
    file reader in ``cli`` go by.
    """

    length_m: float  # photon path through the medium
    n_atoms: int
    coupling_rad_s: float
    relaxation_s: float = 1e-6  # ground-state coherence timescale

    def __post_init__(self):
        # n_atoms too: a count past the float range is named here, not left
        # to overflow in required_detuning
        for f in fields(self):
            value = check_positive(f.name, getattr(self, f.name))
            if f.type == "float":
                object.__setattr__(self, f.name, value)
        check_count("n_atoms", self.n_atoms)


@dataclass(frozen=True)
class FeasibilityReport:
    """Feasibility numbers of one medium; the fields are the report's keys, in report order."""

    transit_time_s: float
    lambda_rad_s: float
    detuning_rad_s: float
    detuning_cyclic_hz: float
    detuning_over_coupling: float
    decoherence_margin: float
    dispersive_ok: bool
    decoherence_ok: bool
    notes: tuple[str, ...]


def transit_time(length_m: float) -> float:
    """Photon transit time through a medium of the given length."""
    t = check_positive("length_m", length_m) / SPEED_OF_LIGHT
    if t == 0.0:
        raise ValueError(f"length_m {length_m!r} is so small that the transit time underflows to 0")
    return t


def required_detuning(spec: MediumSpec) -> FeasibilityReport:
    """Detuning that puts the medium traversal at a quarter-turn evolution angle.

    With the evolution angle fixed at pi/2 and lambda = coupling^2/detuning,
    the detuning is 2 g^2 N T / pi for transit time T.
    """
    out_of_range = "medium parameters put the detuning or a derived quantity out of floating-point range"
    t = transit_time(spec.length_m)
    try:
        detuning = 2.0 * spec.coupling_rad_s**2 * spec.n_atoms * t / math.pi
        lam = spec.coupling_rad_s**2 / detuning
        ratio = detuning / spec.coupling_rad_s
        margin = spec.relaxation_s / t
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
        transit_time_s=t,
        lambda_rad_s=lam,
        detuning_rad_s=detuning,
        detuning_cyclic_hz=detuning / (2.0 * math.pi),
        detuning_over_coupling=ratio,
        decoherence_margin=margin,
        dispersive_ok=dispersive_ok,
        decoherence_ok=decoherence_ok,
        notes=tuple(notes),
    )


def ensemble_config_from_report(spec: MediumSpec, report: FeasibilityReport) -> float:
    """The medium angle theta = lambda * N * T that the protocol takes, pi/2 to rounding."""
    theta = report.lambda_rad_s * spec.n_atoms * report.transit_time_s
    if not math.isfinite(theta):  # lambda * N past the float range, at a transit time near underflow
        raise ValueError(
            "medium parameters put the angle lambda * n_atoms * transit time out of floating-point range"
        )
    return theta


# Quoted media: a room-temperature cesium vapor cell and a rubidium
# magneto-optical trap.
PRESETS = {
    "cs-cell": MediumSpec(length_m=200e-6, n_atoms=100_000, coupling_rad_s=2.91e8),
    "rb-mot": MediumSpec(length_m=0.5e-3, n_atoms=2_500_000, coupling_rad_s=3.53e6),
}
