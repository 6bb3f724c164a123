"""Dispersive ensemble dynamics on the collective atom + two-photon space.

Two evolutions of the photon pair through the medium are provided:

* ``u_eff_exact``: the unitary generated by the effective Stark-shift
  Hamiltonian, from its exact eigendecomposition, which is computed once,
  at import.
* ``u_eff_paper``: the polarizer-style rewrite the protocol's design assumes
  for the same interaction, fixed at the quarter turn theta = pi/2 where the
  balanced oracle works (``is_quarter_turn``). It is the linear operator K,
  rank 1 on each atom branch with singular values (2, 0, 0, 0): it sends the
  four two-photon product rows to one circular polarization per photon, so it
  cannot be unitary, and ``check_phases_claim`` quantifies that conflict.

The collective atom register is two-dimensional and is exact only while the
atoms sit at the all-ground or all-excited-ground extremes, which the
protocol guarantees whenever the medium is traversed. hbar = 1 throughout,
and a medium traversal is given by its dimensionless angle theta = lambda N t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polarization import LIN_TO_CIRC
from .qstate import Hamiltonian, Operator, SpaceLabel, StateVector, check_real, expm_hermitian

ATOM = SpaceLabel((("atom", 2),))
PROTOCOL_SPACE = SpaceLabel((("atom", 2), ("photon1", 2), ("photon2", 2)))

# Projectors onto the circular photon modes, written in linear-basis
# coordinates via the basis change (the plus mode couples the plain ground
# level, the minus mode the primed one).
P_PLUS = LIN_TO_CIRC.conj().T @ np.diag([1.0, 0.0]) @ LIN_TO_CIRC
P_MINUS = LIN_TO_CIRC.conj().T @ np.diag([0.0, 1.0]) @ LIN_TO_CIRC

_I2 = np.eye(2)


def is_quarter_turn(theta: float) -> bool:
    """Whether ``theta`` is the quarter turn pi/2 that the balanced oracle needs; NaN is not."""
    return abs(theta - math.pi / 2) <= 1e-9


def collective_extreme(amplitudes) -> int | None:
    """The extreme holding the atoms, 0 (plain ground) or 1 (primed), else None.

    The leading axis of ``amplitudes`` is the atom level; a level of norm at
    most 1e-12 is empty, the other must be above it, and NaN is neither.
    """
    weights = np.linalg.norm(np.reshape(amplitudes, (2, -1)), axis=1)
    for extreme in (0, 1):
        if weights[extreme] > 1e-12 >= weights[1 - extreme]:
            return extreme
    return None


def microwave_rotation(pulse) -> Operator:
    """Single-atom rotation exp(-i H t) for a resonant drive ``pulse = (area, phase)``.

    The area is Omega*t; the generator, in units of the Rabi coupling, is
    -(e^{i phase}|g'><g| + h.c.), so the result is
    cos(area) I + i sin(area) (e^{i phase}|g'><g| + e^{-i phase}|g><g'|).
    """
    area, phase = pulse
    area, phase = check_real("area", area), check_real("phase", phase)
    generator = -np.array([[0.0, np.exp(-1j * phase)], [np.exp(1j * phase), 0.0]])
    return expm_hermitian(Hamiltonian(ATOM, generator), area)


# Pulse settings (area, phase) realizing the four Hadamard variants, and the atomic NOT.
HADAMARD_PULSES = {
    1: (math.pi / 4, -math.pi / 2),
    2: (math.pi / 4, 0.0),
    3: (math.pi / 4, math.pi / 2),
    4: (math.pi / 4, math.pi),
}
NOT_PULSE = (math.pi / 2, math.pi / 2)


def _photon_pair_sum(single: np.ndarray) -> np.ndarray:
    return np.kron(single, _I2) + np.kron(_I2, single)


# The effective Hamiltonian divided by (lambda * n_atoms), assembled from the
# circular-mode projectors: atoms at the plain-ground extreme shift photons
# in the plus mode, atoms at the primed extreme shift photons in the minus
# mode. Built once and read-only, so every caller shares the array.
H_EFF = np.kron(np.diag([1.0, 0.0]), _photon_pair_sum(P_PLUS)) + np.kron(
    np.diag([0.0, 1.0]), _photon_pair_sum(P_MINUS)
)
H_EFF.setflags(write=False)
# H_EFF checked and diagonalized once, for every u_eff_exact
_MEDIUM = Hamiltonian(PROTOCOL_SPACE, H_EFF)


def h_eff_linear() -> np.ndarray:
    """``H_EFF`` assembled directly from its linear-basis terms, as a read-only matrix.

    The per-photon coupling matrices are written out literally here, with the
    +-i/2 off-diagonal structure of the horizontal/vertical rewrite, as an
    independent construction route for the equivalence check.
    """
    m_plain = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    m_primed = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    h = np.kron(np.diag([1.0, 0.0]), _photon_pair_sum(m_plain)) + np.kron(
        np.diag([0.0, 1.0]), _photon_pair_sum(m_primed)
    )
    h.setflags(write=False)
    return h


def u_eff_exact(theta: float) -> Operator:
    """Exact medium unitary exp(-i H t) at the evolution angle theta = lambda * N * t."""
    return expm_hermitian(_MEDIUM, theta)


# The photon pair leaving the declared rewrite at the quarter turn, indexed
# by the atom branch (0: plain-ground extreme, 1: primed extreme, its mirror
# under the swap of both circular modes and both levels): each photon in
# (-i|0> +- |1>)/sqrt(2), for the ground branch -i times the circular plus mode.
_PHOTON_PAIRS = np.array(
    [np.kron(t, t) for t in np.array([[-1.0j, 1.0], [-1.0j, -1.0]]) / math.sqrt(2.0)]
)
# The rewrite as one linear operator K, block-diagonal over the atom branches.
# The phases of the two-photon rows |r1 r2>, at index 2*r1 + r2, with the
# turn's e^{-i pi/2} folded in, are -2i out_b, so on branch b K is the rank-1
# -2i |out_b><conj(out_b)|: symmetric, singular values (2, 0, 0, 0). Built
# once and read-only.
_K = sum(np.kron(np.diag(e), -2j * np.outer(pair, pair)) for e, pair in zip(np.eye(2), _PHOTON_PAIRS))
_K.setflags(write=False)


@dataclass(frozen=True)
class PaperMapResult:
    """The state K v / |K v| and, as ``post_selection_probability``, |K v|^2.

    For a unit input v that weight lies in [0, 4]: a squared norm, not a
    probability, and 1 to rounding on the protocol's inputs.
    ``linear_extension_used``: v populates more than one product row.
    """

    state: StateVector
    post_selection_probability: float
    linear_extension_used: bool


@dataclass(frozen=True)
class PaperPolarizerMap:
    """The declared polarizer rewrite K of the medium interaction at theta = pi/2.

    K is rank 1 on each atom branch, with singular values (2, 0, 0, 0), so
    the output is renormalized and the squared norm it retains is reported.
    """

    def apply(self, state: StateVector) -> PaperMapResult:
        if state.space != PROTOCOL_SPACE:
            raise ValueError("polarizer map is defined on the atom + two-photon space")
        if collective_extreme(state.amplitudes) is None:
            raise ValueError(
                "atom register must be exactly at one collective extreme; "
                "got weight on both levels"
            )
        out = _K @ state.amplitudes
        weight = float(np.vdot(out, out).real)
        if weight < 1e-24:
            raise ValueError("polarizer rewrite annihilates this input (zero post-selection weight)")
        return PaperMapResult(
            StateVector(PROTOCOL_SPACE, out / math.sqrt(weight)),
            weight,
            np.count_nonzero(np.abs(state.amplitudes) > 1e-12) > 1,
        )


def u_eff_paper() -> PaperPolarizerMap:
    """The declared (non-unitary) polarizer rewrite at the quarter turn."""
    return PaperPolarizerMap()


@dataclass(frozen=True, eq=False)
class PhasesClaimReport:
    """Consistency audit of the declared rewrite against the exact unitary at the quarter turn.

    ``singular_values`` are K's on each atom branch, shape (2, 4).
    """

    claimed_abs_gram: np.ndarray
    fidelities: np.ndarray
    consistent: bool
    verdict: str
    singular_values: np.ndarray


def check_phases_claim() -> PhasesClaimReport:
    """Compare the declared rewrite with the exact unitary at theta = pi/2 on the four rows.

    The four inputs are orthonormal while the declared outputs all share one
    polarization factor, so their pairwise absolute overlaps are 1: no
    unitary does that, and the report says so.
    """
    # the rows |00>, |11>, |01>, |10> with the atoms at the plain-ground extreme
    rows = [0, 3, 1, 2]
    claimed = _K[:, rows]  # a copy: fancy indexing
    claimed /= np.linalg.norm(claimed, axis=0)
    claimed_gram = claimed.conj().T @ claimed
    fid = np.abs(np.sum(claimed.conj() * u_eff_exact(math.pi / 2).matrix[:, rows], axis=0))
    # consistent unless the outputs are pairwise parallel
    consistent = bool(np.max(np.abs(np.abs(claimed_gram) - 1.0)) > 1e-12)
    verdict = "no inconsistency detected" if consistent else (
        "claimed map not unitary: orthonormal inputs are sent to pairwise parallel outputs")
    branch_blocks = _K.reshape(2, 4, 2, 4)[[0, 1], :, [0, 1], :]
    return PhasesClaimReport(
        claimed_abs_gram=np.abs(claimed_gram), fidelities=fid, consistent=consistent,
        verdict=verdict, singular_values=np.linalg.svd(branch_blocks, compute_uv=False),
    )
