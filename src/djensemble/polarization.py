"""Jones-calculus layer for the two polarization qubits.

Conventions: every photonic state and matrix is expressed in the linear
polarization basis, index 0 horizontal and index 1 vertical. ``LIN_TO_CIRC``
gives circular-mode coordinates where the medium needs them; the circular
mode basis orders the single-photon-in-plus mode before the
single-photon-in-minus mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import Operator, SpaceLabel, embed

PHOTON = SpaceLabel((("photon", 2),))

_SQRT2 = math.sqrt(2.0)

# Columns are the horizontal and vertical states written in circular-mode
# coordinates, so v_circular = LIN_TO_CIRC @ v_linear.
LIN_TO_CIRC = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / _SQRT2

_HADAMARD_VARIANTS = {
    1: np.array([[1.0, -1.0], [1.0, 1.0]]) / _SQRT2,
    2: np.array([[1.0, 1.0j], [1.0j, 1.0]]) / _SQRT2,
    3: np.array([[1.0, 1.0], [-1.0, 1.0]]) / _SQRT2,
    4: np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / _SQRT2,
}


def quarter_wave(angle: float) -> Operator:
    """Quarter-wave plate aligned at ``angle`` radians."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    m = (1.0j / _SQRT2) * np.array([[c - 1.0j, s], [s, -c - 1.0j]])
    return Operator(PHOTON, m, unitary_claim=True)


def half_wave(angle: float) -> Operator:
    """Half-wave plate aligned at ``angle`` radians; squares to -I."""
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    m = 1.0j * np.array([[c, s], [s, -c]])
    return Operator(PHOTON, m, unitary_claim=True)


def _canonical_angle(angle: float) -> float:
    # map to [-pi, pi)
    if not math.isfinite(angle):
        raise ValueError("wave-plate angle must be finite")
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class WavePlateSpec:
    """A retarder kind plus its alignment angle."""

    kind: str  # "quarter" or "half"
    angle: float

    def __post_init__(self):
        if self.kind not in ("quarter", "half"):
            raise ValueError(f"unknown wave-plate kind {self.kind!r}")
        object.__setattr__(self, "angle", _canonical_angle(float(self.angle)))

    def matrix(self) -> Operator:
        return quarter_wave(self.angle) if self.kind == "quarter" else half_wave(self.angle)


def hadamard_variant(i: int) -> Operator:
    """One of the four inequivalent single-qubit Hadamard rotations."""
    if i not in _HADAMARD_VARIANTS:
        raise ValueError(f"hadamard variant index must be 1..4, got {i}")
    return Operator(PHOTON, _HADAMARD_VARIANTS[i], unitary_claim=True)


def gadget_compose(plates) -> Operator:
    """Product of wave-plate matrices; the rightmost plate acts first on the photon."""
    plates = tuple(plates)
    if not plates:
        raise ValueError("wave-plate gadget needs at least one plate")
    result = plates[0].matrix()
    for plate in plates[1:]:
        result = result @ plate.matrix()
    return result


# Wave-plate realizations of the four Hadamard variants.
HADAMARD_GADGETS = {
    1: (WavePlateSpec("quarter", math.pi / 4), WavePlateSpec("quarter", math.pi / 4), WavePlateSpec("half", -3 * math.pi / 8)),
    2: (WavePlateSpec("quarter", math.pi / 4),),
    3: (WavePlateSpec("quarter", math.pi / 4), WavePlateSpec("quarter", math.pi / 4), WavePlateSpec("half", -math.pi / 8)),
    4: (WavePlateSpec("quarter", -math.pi / 4),),
}


def composite_h(kind: str) -> Operator:
    """Composite rotation h' = h1 h4 h3 or h'' = h1 h2 h3; both are diagonal phases."""
    if kind == "prime":
        ops = (hadamard_variant(1), hadamard_variant(4), hadamard_variant(3))
    elif kind == "double_prime":
        ops = (hadamard_variant(1), hadamard_variant(2), hadamard_variant(3))
    else:
        raise ValueError(f"kind must be 'prime' or 'double_prime', got {kind!r}")
    out = ops[0] @ ops[1] @ ops[2]
    off = max(abs(out.matrix[0, 1]), abs(out.matrix[1, 0]))
    if off > 1e-12:
        raise AssertionError(f"composite rotation is not diagonal, off-diagonal {off:.3e}")
    return out


def embed_single(name: str, matrix_2x2: np.ndarray, space: SpaceLabel) -> Operator:
    """Embed a 2x2 matrix acting on the named qubit subsystem."""
    op = Operator(SpaceLabel(((name, 2),)), matrix_2x2, unitary_claim=True)
    return embed(op, name, space)


_DETECTORS = {(1, 0): "HD1", (1, 1): "VD1", (2, 0): "HD2", (2, 1): "VD2"}


def clicks_for_pattern(pattern) -> tuple[str, str]:
    b1, b2 = pattern
    return _DETECTORS[(1, int(b1))], _DETECTORS[(2, int(b2))]
