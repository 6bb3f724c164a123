"""Jones-calculus layer for the two polarization qubits.

Conventions: every photonic state and matrix is expressed in the linear
polarization basis, index 0 horizontal and index 1 vertical. ``LIN_TO_CIRC``
gives circular-mode coordinates where the medium needs them; the circular
mode basis orders the single-photon-in-plus mode before the
single-photon-in-minus mode.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import Operator, SpaceLabel, check_count, check_real, embed

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
    angle = check_real("angle", angle)
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    m = (1.0j / _SQRT2) * np.array([[c - 1.0j, s], [s, -c - 1.0j]])
    return Operator(PHOTON, m)


def half_wave(angle: float) -> Operator:
    """Half-wave plate aligned at ``angle`` radians; squares to -I."""
    angle = check_real("angle", angle)
    c, s = math.cos(2.0 * angle), math.sin(2.0 * angle)
    m = 1.0j * np.array([[c, s], [s, -c]])
    return Operator(PHOTON, m)


def hadamard_variant(i: int) -> Operator:
    """One of the four inequivalent single-qubit Hadamard rotations."""
    if check_count("hadamard variant index", i) not in _HADAMARD_VARIANTS:
        raise ValueError(f"hadamard variant index must be 1..4, got {i}")
    return Operator(PHOTON, _HADAMARD_VARIANTS[i])


def gadget_compose(plates) -> Operator:
    """Product of wave-plate operators; the rightmost plate acts first on the photon."""
    plates = tuple(plates)
    if not plates:
        raise ValueError("wave-plate gadget needs at least one plate")
    result = plates[0]
    for plate in plates[1:]:
        result = result @ plate
    return result


# Wave-plate realizations of the four Hadamard variants, as plate operators.
HADAMARD_GADGETS = {
    1: (quarter_wave(math.pi / 4), quarter_wave(math.pi / 4), half_wave(-3 * math.pi / 8)),
    2: (quarter_wave(math.pi / 4),),
    3: (quarter_wave(math.pi / 4), quarter_wave(math.pi / 4), half_wave(-math.pi / 8)),
    4: (quarter_wave(-math.pi / 4),),
}


# Hadamard variants whose product is each composite rotation, leftmost first.
_COMPOSITE_VARIANTS = {"prime": (1, 4, 3), "double_prime": (1, 2, 3)}


def composite_h(kind: str) -> Operator:
    """Composite rotation h' = h1 h4 h3 or h'' = h1 h2 h3; both are diagonal phases."""
    if kind not in _COMPOSITE_VARIANTS:
        raise ValueError(f"kind must be 'prime' or 'double_prime', got {kind!r}")
    return gadget_compose(hadamard_variant(i) for i in _COMPOSITE_VARIANTS[kind])


def embed_single(name: str, gate: Operator, space: SpaceLabel) -> Operator:
    """Embed a built 2x2 gate on the named qubit; ``embed`` refuses a raw matrix."""
    return embed(gate, name, space)


def pattern_bits(pattern) -> tuple[int, int]:
    """A detection pattern as two int bits, photon 1's first; a ValueError unless two integers, each 0 or 1."""
    bits = tuple(check_count("pattern bit", b, 0) for b in pattern)
    if len(bits) != 2 or max(bits) > 1:
        raise ValueError(f"pattern must be two bits, got {pattern!r}")
    return bits


def clicks_for_pattern(pattern) -> tuple[str, str]:
    """The detectors that click: photon k's HDk for bit 0 (horizontal), VDk for bit 1."""
    b1, b2 = pattern_bits(pattern)
    return ("HD1", "VD1")[b1], ("HD2", "VD2")[b2]
