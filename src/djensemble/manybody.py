"""Many-atom oracle simulators and symmetric-sector atom machinery.

``full_simulate_naive`` evolves the unreduced product space of N two-level
atoms plus both photons and is the ground truth for everything else; it is
capped at 12 atoms. ``full_simulate_dicke`` reproduces the same physics on
the permutation-symmetric sector at O(N) cost in the atomic dimension, which
is what makes the protocol runnable at realistic atom numbers.

Both simulators consume the same small operation vocabulary (per-atom
rotation, medium evolution, single-photon rotation), so a protocol sequence
can be replayed on either and compared. Both start from a product state:
one normalized single-atom 2-vector replicated over the ensemble, and a
two-photon 4-vector. ``protocol.run_protocol`` replays the same sequences
on the compact (atom, photon1, photon2) space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import P_MINUS, P_PLUS
from .polarization import LIN_TO_CIRC
from .qstate import CONSTRUCTION_ATOL, Operator, SpaceLabel, StateVector, expm_hermitian

NAIVE_ATOM_LIMIT = 12
# Dense symmetric rotations are O(N^3); anything bigger should stay on the
# coherent product fast path.
DENSE_ROTATION_LIMIT = 1024

_I2 = np.eye(2)
_B2 = np.kron(LIN_TO_CIRC, LIN_TO_CIRC)
# Photon-pair mode counts in the circular product basis (++, +-, -+, --).
_PLUS_COUNTS = np.array([2.0, 1.0, 1.0, 0.0])
_MINUS_COUNTS = np.array([0.0, 1.0, 1.0, 2.0])


def _check_unitary_2x2(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(m.conj().T @ m - _I2)) > 1e-10:
        raise ValueError("matrix is not unitary")
    return m


@dataclass(frozen=True)
class AtomRotation:
    """The same single-atom unitary applied to every atom in the ensemble."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_unitary_2x2(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class EnsembleEvolution:
    """Medium traversal for a total dimensionless angle theta = lambda*N*t."""

    theta: float


@dataclass(frozen=True)
class PhotonRotation:
    """A 2x2 polarization rotation on photon 1 or photon 2."""

    photon: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.photon not in (1, 2):
            raise ValueError("photon index must be 1 or 2")
        m = _check_unitary_2x2(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def coherent_dicke_amplitudes(single: np.ndarray, n_atoms: int) -> np.ndarray:
    """Symmetric-sector amplitudes of the N-fold product of one qubit state.

    Index m counts atoms in the primed level. Computed in log space so large
    N underflows gracefully to zero tails instead of overflowing.
    """
    alpha, beta = complex(single[0]), complex(single[1])
    amps = np.zeros(n_atoms + 1, dtype=complex)
    if abs(beta) == 0.0:
        amps[0] = alpha**n_atoms
        return amps
    if abs(alpha) == 0.0:
        amps[n_atoms] = beta**n_atoms
        return amps
    m = np.arange(n_atoms + 1)
    # lg[k] = ln k!, so ln C(N, m) = lg[N] - lg[m] - lg[N - m]; the sum is
    # accumulated in place to keep (N + 1)-long temporaries off the peak
    lg = np.fromiter(map(math.lgamma, range(1, n_atoms + 2)), float, n_atoms + 1)
    log_mag = 0.5 * (lg[-1] - lg - lg[::-1])
    log_mag += (n_atoms - m) * math.log(abs(alpha))
    log_mag += m * math.log(abs(beta))
    phase = (n_atoms - m) * np.angle(alpha) + m * np.angle(beta)
    with np.errstate(under="ignore"):
        amps = np.exp(log_mag + 1j * phase)
    return amps


def collective_op(single: np.ndarray, n_atoms: int) -> np.ndarray:
    """Sum over atoms of a single-atom operator, restricted to the symmetric sector."""
    s = np.asarray(single, dtype=complex)
    m = np.arange(n_atoms + 1)
    ladder = np.sqrt((n_atoms - m[:-1]) * (m[:-1] + 1.0))
    out = np.diag(s[0, 0] * (n_atoms - m) + s[1, 1] * m).astype(complex)
    out += np.diag(s[1, 0] * ladder, k=-1)
    out += np.diag(s[0, 1] * ladder, k=1)
    return out


def symmetric_rotation(u: np.ndarray, n_atoms: int) -> np.ndarray:
    """The N-fold tensor power of a single-qubit unitary on the symmetric sector.

    Splits off the global phase, writes the special-unitary part as the
    exponential of a Pauli axis, and exponentiates the matching collective
    generator.
    """
    if n_atoms > DENSE_ROTATION_LIMIT:
        raise ValueError(
            f"dense symmetric rotation requested for {n_atoms} atoms; "
            f"limit is {DENSE_ROTATION_LIMIT}"
        )
    u = _check_unitary_2x2(u)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    delta = np.angle(det) / 2.0
    v = u * np.exp(-1j * delta)
    cos_half = float(np.clip(np.real(np.trace(v)) / 2.0, -1.0, 1.0))
    t = math.acos(cos_half)
    phase = np.exp(1j * n_atoms * delta)
    if abs(math.sin(t)) < 1e-12:
        sign = 1.0 if cos_half > 0 else -1.0
        return phase * (sign**n_atoms) * np.eye(n_atoms + 1, dtype=complex)
    axis = (v - cos_half * _I2) * (1j / math.sin(t))
    axis = (axis + axis.conj().T) / 2.0
    space = SpaceLabel((("atoms", n_atoms + 1),))
    rot = expm_hermitian(Operator(space, collective_op(axis, n_atoms)), t)
    return phase * rot.matrix


# ---------------------------------------------------------------------------
# Unreduced brute-force simulator.
# ---------------------------------------------------------------------------


def naive_space(n_atoms: int) -> SpaceLabel:
    subs = tuple((f"atom{j}", 2) for j in range(n_atoms)) + (("photon1", 2), ("photon2", 2))
    return SpaceLabel(subs)


def _evolution_block(lam_t: float, n_plain: int, n_primed: int) -> np.ndarray:
    """4x4 photon-pair evolution for a fixed atomic configuration."""
    gen = n_plain * (np.kron(P_PLUS, _I2) + np.kron(_I2, P_PLUS))
    gen = gen + n_primed * (np.kron(P_MINUS, _I2) + np.kron(_I2, P_MINUS))
    w, v = np.linalg.eigh(gen)
    return (v * np.exp(-1j * lam_t * w)) @ v.conj().T


def _apply_axis(state: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    moved = np.tensordot(matrix, state, axes=([1], [axis]))
    return np.moveaxis(moved, 0, axis)


def full_simulate_naive(
    n_atoms: int,
    atom_init,
    ops,
    photon_init=None,
) -> StateVector:
    """Evolve the full product space of N atoms and both photons.

    ``atom_init`` is a per-atom 2-vector replicated across the ensemble;
    ``photon_init`` a 4-vector over the two photons in the linear basis
    (default: both horizontal). The medium evolution is evaluated per atomic
    configuration by counting atoms in each level, which is the literal
    action of the per-atom Hamiltonian sum.
    """
    if n_atoms > NAIVE_ATOM_LIMIT:
        raise ValueError(f"naive simulator is capped at {NAIVE_ATOM_LIMIT} atoms")
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    single = np.asarray(atom_init, dtype=complex)
    if photon_init is None:
        photon_init = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    photons = np.asarray(photon_init, dtype=complex).reshape(2, 2)
    state = photons
    for _ in range(n_atoms):
        state = np.tensordot(single, state, axes=0)
    popcount = np.array([bin(i).count("1") for i in range(2**n_atoms)])
    for op in ops:
        if isinstance(op, AtomRotation):
            for j in range(n_atoms):
                state = _apply_axis(state, op.matrix, j)
        elif isinstance(op, PhotonRotation):
            state = _apply_axis(state, op.matrix, n_atoms + op.photon - 1)
        elif isinstance(op, EnsembleEvolution):
            lam_t = op.theta / n_atoms
            flat = state.reshape(2**n_atoms, 4).copy()
            for m in range(n_atoms + 1):
                rows = popcount == m
                if not rows.any():
                    continue
                block = _evolution_block(lam_t, n_atoms - m, m)
                flat[rows] = flat[rows] @ block.T
            state = flat.reshape(state.shape)
        else:
            raise TypeError(f"unknown operation {op!r}")
    return StateVector(naive_space(n_atoms), state.reshape(-1))


def dicke_amplitudes_from_naive(state: StateVector, n_atoms: int) -> np.ndarray:
    """Project an (exactly symmetric) naive state onto the Dicke sector.

    Returns an (N+1, 4) array indexed by excitation number and photon pair.
    """
    flat = state.amplitudes.reshape(2**n_atoms, 4)
    popcount = np.array([bin(i).count("1") for i in range(2**n_atoms)])
    out = np.zeros((n_atoms + 1, 4), dtype=complex)
    for m in range(n_atoms + 1):
        rows = popcount == m
        out[m] = flat[rows].sum(axis=0) / math.sqrt(math.comb(n_atoms, m))
    return out


def atom_photon_entropy(state: StateVector) -> float:
    """Von Neumann entropy (nats) of the atoms/photons bipartition."""
    dims = state.space.dims
    flat = state.amplitudes.reshape(-1, dims[-2] * dims[-1])
    svals = np.linalg.svd(flat, compute_uv=False)
    p = svals**2
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Symmetric-sector simulator.
# ---------------------------------------------------------------------------


def dicke_space(n_atoms: int) -> SpaceLabel:
    return SpaceLabel((("atoms", n_atoms + 1), ("photon1", 2), ("photon2", 2)))


class _DickeRun:
    """Hybrid state: coherent product form while possible, else a full array.

    The product form keeps a single-atom vector and a photon 4-vector and
    costs O(1) per rotation; the medium evolution on a non-extreme atom state
    entangles excitation number with the photons and forces the general
    (N+1) x 4 form, where it is a diagonal phase profile in the circular
    photon basis.
    """

    def __init__(self, n_atoms: int, atom_vec: np.ndarray, photon_init: np.ndarray):
        self.n = n_atoms
        self.general: np.ndarray | None = None
        self.atom_vec: np.ndarray | None = np.array(atom_vec, dtype=complex)
        self.photon_vec: np.ndarray | None = np.array(photon_init, dtype=complex)

    def _materialize(self) -> None:
        if self.general is None:
            amps = coherent_dicke_amplitudes(self.atom_vec, self.n)
            self.general = np.outer(amps, self.photon_vec)
            self.atom_vec = None
            self.photon_vec = None

    def atom_rotation(self, u: np.ndarray) -> None:
        if self.general is None:
            vec = u @ self.atom_vec
            # one ulp of magnitude drift here becomes N ulps after the N-fold
            # product, so keep the single-atom vector exactly unit length
            self.atom_vec = vec / np.linalg.norm(vec)
        else:
            self.general = symmetric_rotation(u, self.n) @ self.general

    def photon_rotation(self, photon: int, u: np.ndarray) -> None:
        full = np.kron(u, _I2) if photon == 1 else np.kron(_I2, u)
        if self.general is None:
            self.photon_vec = full @ self.photon_vec
        else:
            self.general = self.general @ full.T

    def ensemble_evolution(self, theta: float) -> None:
        lam_t = theta / self.n
        if self.general is None:
            alpha, beta = self.atom_vec
            if abs(beta) <= 1e-14 or abs(alpha) <= 1e-14:
                n_plain = self.n if abs(beta) <= 1e-14 else 0
                block = _evolution_block(lam_t, n_plain, self.n - n_plain)
                self.photon_vec = block @ self.photon_vec
                return
            self._materialize()
        m = np.arange(self.n + 1)[:, None]
        exponent = (self.n - m) * _PLUS_COUNTS[None, :] + m * _MINUS_COUNTS[None, :]
        phases = np.exp(-1j * lam_t * exponent)
        circ = self.general @ _B2.T
        circ = circ * phases
        self.general = circ @ _B2.conj()

    def to_state(self) -> StateVector:
        self._materialize()
        # not renormalized: StateVector rejects any drift of the squared norm
        return StateVector(dicke_space(self.n), self.general.reshape(-1))


def full_simulate_dicke(
    n_atoms: int,
    atom_init,
    ops,
    photon_init=None,
) -> StateVector:
    """Evolve the symmetric sector: identical physics to the naive simulator.

    ``atom_init`` is the normalized single-atom 2-vector replicated across
    the ensemble, as for ``full_simulate_naive``; ``photon_init`` likewise.
    Cost is O(N) in the atomic dimension along the protocol path.
    """
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    single = np.asarray(atom_init, dtype=complex)
    if single.shape != (2,):
        raise ValueError("atom_init must be a single-atom 2-vector")
    if abs(np.linalg.norm(single) - 1.0) > CONSTRUCTION_ATOL:
        raise ValueError("atom_init must be normalized")
    if photon_init is None:
        photon_init = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    run = _DickeRun(n_atoms, single, np.asarray(photon_init, dtype=complex))
    for op in ops:
        if isinstance(op, AtomRotation):
            run.atom_rotation(op.matrix)
        elif isinstance(op, PhotonRotation):
            run.photon_rotation(op.photon, op.matrix)
        elif isinstance(op, EnsembleEvolution):
            run.ensemble_evolution(op.theta)
        else:
            raise TypeError(f"unknown operation {op!r}")
    return run.to_state()
