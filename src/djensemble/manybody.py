"""Many-atom oracle simulators and symmetric-sector atom machinery.

``full_simulate_naive`` evolves the unreduced product space of N two-level
atoms plus both photons and is the ground truth for everything else; it is
capped at 12 atoms. ``full_simulate_dicke`` reproduces the same physics on
the permutation-symmetric sector at O(N) cost in the atomic dimension, which
is what makes the protocol runnable at realistic atom numbers.

Both simulators consume the same small operation vocabulary (per-atom
rotation, medium evolution, single-photon rotation), so a protocol sequence
can be replayed on either and compared. Both start from a product state:
one normalized single-atom 2-vector replicated over the ensemble, and both
photons horizontal, |HH>. ``protocol.run_protocol`` replays the same
sequences on the compact (atom, photon1, photon2) space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import P_MINUS, P_PLUS
from .polarization import LIN_TO_CIRC
from .qstate import CONSTRUCTION_ATOL, SpaceLabel, StateVector, _frozen_complex

NAIVE_ATOM_LIMIT = 12
# The limit bounds the cached sigma_x eigenbasis that symmetric rotations use:
# it holds (N+1)^2 doubles and costs an O(N^3) eigendecomposition once per N,
# after which a rotation of (N+1) x k rows is O(N^2 k). Bigger ensembles stay
# on the coherent product path.
DENSE_ROTATION_LIMIT = 1024

_I2 = np.eye(2)
_B2 = np.kron(LIN_TO_CIRC, LIN_TO_CIRC)
# Both photons horizontal, the source output every simulation starts from.
_PHOTONS_HH = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
# Photon-pair generators of the medium step per atom in each level:
# n_plain * _GEN_PLUS + n_primed * _GEN_MINUS for a given configuration.
_GEN_PLUS = np.kron(P_PLUS, _I2) + np.kron(_I2, P_PLUS)
_GEN_MINUS = np.kron(P_MINUS, _I2) + np.kron(_I2, P_MINUS)
# Rows of the (N+1) x 4 Dicke array that the medium step phases at once;
# bounds its temporaries only.
_ROW_BLOCK = 1 << 16
# i^m for m mod 4, exactly
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, entry for entry, without its per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _check_atom_init(atom_init) -> np.ndarray:
    """The single-atom start vector: shape (2,), finite and of unit norm."""
    single = np.asarray(atom_init, dtype=complex)
    if single.shape != (2,):
        raise ValueError(f"atom_init must be a single-atom 2-vector, got shape {single.shape}")
    if not np.all(np.isfinite(single)):
        raise ValueError("atom_init must be finite (no NaN or Inf)")
    if abs(np.linalg.norm(single) - 1.0) > CONSTRUCTION_ATOL:
        raise ValueError("atom_init must be normalized")
    return single


def _check_unitary_2x2(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    # NaN compares False with any tolerance, so it must be rejected first
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite (no NaN or Inf)")
    if np.max(np.abs(m.conj().T @ m - _I2)) > 1e-10:
        raise ValueError("matrix is not unitary")
    return m


@dataclass(frozen=True)
class AtomRotation:
    """The same single-atom unitary applied to every atom in the ensemble."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_unitary_2x2(_frozen_complex(self.matrix)))


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
        object.__setattr__(self, "matrix", _check_unitary_2x2(_frozen_complex(self.matrix)))


# Loader's saddle-point form of the binomial weight ("Fast and Accurate
# Computation of Binomial Probabilities", 2000): ln b(m; N, p) is a sum of
# stirlerr and bd0 terms of size O(1), never a difference of ln k! terms of
# size N ln N, which cancelled about 9 digits at N = 10^6.
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# stirlerr(n) for n <= 15, where the asymptotic series is not yet exact to
# double precision; the cancellation here is among numbers below 30
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LN_2PI for n in range(1, 16)]
)
# exp() of a log amplitude below this is exactly 0: ln 2^-1074 is about
# -744.4, and the margin absorbs any rounding in the log
_LOG_AMP_CUT = math.log(2.0**-1074) - 16.0


def _stirlerr(n):
    """ln n! - ln(sqrt(2 pi n) (n/e)^n) for integer-valued n >= 0."""
    r = 1.0 / np.maximum(n, 16.0)
    r2 = r * r
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r2 / 1188) * r2) * r2) * r2) * r
    return np.where(n <= 15, _STIRLERR_SMALL[np.minimum(n, 15).astype(int)], series)


def _bd0(x: np.ndarray, lam: float) -> np.ndarray:
    """x ln(x / lam) + lam - x, without the cancellation near x = lam."""
    d = x - lam
    v = d / (x + lam)
    # for |v| < 0.1 each term of the series is below 1% of the one before
    v2 = v * v
    term = 2.0 * x * v
    series = d * v
    for j in range(1, 10):
        term *= v2
        series += term * (1.0 / (2 * j + 1))
    with np.errstate(divide="ignore", over="ignore"):
        direct = x * np.log(np.where(x > 0, x / lam, 1.0)) + lam - x
    return np.where(np.abs(v) < 0.1, series, direct)


def _log_binomial(m: np.ndarray, n_atoms: int, lam: float, mu: float) -> np.ndarray:
    """ln[C(N, m) p^m q^(N-m)] for float m in [0, N], with lam = N p and mu = N q.

    The form carries a factor exp(N - lam - mu), which cancels the rounding
    of p + q to first order: the weights sum to 1 to rounding at any N.
    """
    k = n_atoms - m
    with np.errstate(divide="ignore"):
        spread = np.where((m > 0) & (k > 0), np.log(2.0 * math.pi * m * k / n_atoms), 0.0)
    return (
        _stirlerr(float(n_atoms))
        - _stirlerr(m)
        - _stirlerr(k)
        - _bd0(m, lam)
        - _bd0(k, mu)
        - 0.5 * spread
    )


def _coherent_band(n_atoms: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices m and log amplitudes of the entries that do not underflow.

    ln b(m) is concave in m, so these entries form one interval about the
    mode. A window about the mode is widened until both of its ends fall
    below the cut or reach 0 and N; it starts at the Gaussian estimate of
    the interval, about 55 standard deviations to each side.
    """
    mode = min(n_atoms, int((n_atoms + 1) * p))
    half = 32 + int(56.0 * math.sqrt(n_atoms * p * q))
    while True:
        lo, hi = max(0, mode - half), min(n_atoms + 1, mode + half + 1)
        m = np.arange(lo, hi, dtype=float)
        log_amp = 0.5 * _log_binomial(m, n_atoms, n_atoms * p, n_atoms * q)
        if (lo == 0 or log_amp[0] < _LOG_AMP_CUT) and (hi == n_atoms + 1 or log_amp[-1] < _LOG_AMP_CUT):
            break
        half *= 2
    kept = np.flatnonzero(log_amp >= _LOG_AMP_CUT)
    band = slice(kept[0], kept[-1] + 1)
    return m[band], log_amp[band]


def coherent_dicke_amplitudes(single: np.ndarray, n_atoms: int) -> tuple[int, np.ndarray]:
    """Symmetric-sector amplitudes of the N-fold product of one qubit state.

    Index m counts atoms in the primed level. The single-atom vector is taken
    at unit norm, (alpha, beta) / s with s = sqrt(|alpha|^2 + |beta|^2), the
    rule ``_DickeRun.atom_rotation`` applies after every rotation, so the
    squared magnitudes are exactly the binomial weights b(m; N, |beta/s|^2).
    Returns ``(start, band)``: the amplitudes of m = start, start + 1, ...;
    every entry outside the band underflows and is exactly zero. The band is
    about 110 sqrt(N p q) entries about the mode N p, with p = |beta/s|^2 and
    q = 1 - p, each in Loader's saddle-point form to a few ulps, so the
    squared norm is 1 to rounding at any N. The cost is O(sqrt(N p q)).
    """
    alpha, beta = complex(single[0]), complex(single[1])
    scale = math.hypot(abs(alpha), abs(beta))
    if scale == 0.0:
        raise ValueError("the single-atom vector is zero")
    p = (abs(beta) / scale) ** 2
    q = (abs(alpha) / scale) ** 2
    # p or q underflows to 0 only for |beta/s| or |alpha/s| below about
    # 1.6e-162; the dropped amplitudes are then at most sqrt(N) times that
    if p == 0.0:
        return 0, np.array([(alpha / abs(alpha)) ** n_atoms])
    if q == 0.0:
        return n_atoms, np.array([(beta / abs(beta)) ** n_atoms])
    m, log_amp = _coherent_band(n_atoms, p, q)
    phase = (n_atoms - m) * np.angle(alpha) + m * np.angle(beta)
    with np.errstate(under="ignore"):
        return int(m[0]), np.exp(log_amp + 1j * phase)


@functools.lru_cache(maxsize=4)
def _sigma_x_basis(n_atoms: int) -> np.ndarray:
    """Real orthogonal eigenbasis X of the collective sigma_x on the symmetric sector.

    The collective sigma_x is the tridiagonal ladder with off-diagonal
    sqrt((N - m)(m + 1)); column k of X is its eigenvector of eigenvalue
    2k - N. X depends on N alone, so it is built once per N and returned
    read-only. Raises ValueError unless max |X^T X - I| <= CONSTRUCTION_ATOL
    and the computed eigenvalues are 2k - N: with unimodular diagonal
    factors on both sides, every rotation built on X is then unitary.
    """
    m = np.arange(n_atoms)
    ladder = np.sqrt((n_atoms - m) * (m + 1.0))
    w, x = np.linalg.eigh(np.diag(ladder, 1) + np.diag(ladder, -1))
    dev = float(np.max(np.abs(x.T @ x - np.eye(n_atoms + 1))))
    if dev > CONSTRUCTION_ATOL:
        raise ValueError(
            f"sigma_x eigenbasis for {n_atoms} atoms is not orthogonal: max |X^T X - I| = {dev:.3e}"
        )
    spread = float(np.max(np.abs(w - (2.0 * np.arange(n_atoms + 1) - n_atoms))))
    if spread > CONSTRUCTION_ATOL * max(1, n_atoms):
        raise ValueError(f"sigma_x eigenvalues for {n_atoms} atoms are off 2k - N by {spread:.3e}")
    x.setflags(write=False)
    return x


def symmetric_rotation(u: np.ndarray, n_atoms: int, rows: np.ndarray) -> np.ndarray:
    """The N-fold tensor power of a single-qubit unitary applied to symmetric-sector rows.

    ``rows`` has shape (N+1,) or (N+1, k), indexed by excitation number m;
    the result has the same shape and ``rows`` is left unchanged. The
    (N+1) x (N+1) matrix is never formed. Splits off the global phase and
    writes the special-unitary part as Rz(alpha) Ry(beta) Rz(gamma), with
    beta/2 = atan2(|v10|, |v00|), so small angles come from a sine and are
    not rounded away as acos would round them. On the symmetric sector
    Rz(phi) is the diagonal phase exp(-i phi (N - 2m) / 2), and Ry(beta) =
    D X diag(exp(-i beta lam / 2)) X^T D^dag with D = diag(i^m) and X the
    cached real eigenbasis of the collective sigma_x (eigenvalues lam = -N,
    -N + 2, ..., N). The factors are applied to the rows one at a time:
    phases, X^T, phases, X, phases, where each product with X is one real
    product on the float64 view of the rows. A call costs O(N^2 k), plus
    the O(N^3) eigenbasis once per N. A diagonal rotation (v10 == 0), the
    identity included, only multiplies each row by its phase.
    """
    if n_atoms > DENSE_ROTATION_LIMIT:
        raise ValueError(
            f"dense symmetric rotation requested for {n_atoms} atoms; "
            f"limit is {DENSE_ROTATION_LIMIT}"
        )
    u = _check_unitary_2x2(u)
    rows = np.asarray(rows)
    n1 = n_atoms + 1
    if rows.ndim not in (1, 2) or rows.shape[0] != n1:
        raise ValueError(f"rows must have shape ({n1},) or ({n1}, k), got {rows.shape}")
    block = rows.reshape(n1, -1)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    delta = np.angle(det) / 2.0
    v = u * np.exp(-1j * delta)
    # v00 = exp(-i(alpha + gamma)/2) cos(beta/2), v10 = exp(i(alpha - gamma)/2) sin(beta/2)
    a, b = v[0, 0], v[1, 0]
    m = np.arange(n1)
    tilt = n_atoms - 2.0 * m
    arg_a = float(np.angle(a))
    if b == 0.0:
        phase = np.exp(1j * (n_atoms * delta + arg_a * tilt))
        return (phase[:, None] * block).reshape(rows.shape)
    arg_b = float(np.angle(b))
    half_beta = math.atan2(abs(b), abs(a))
    # alpha = arg b - arg a and gamma = -(arg a + arg b); D and D^dag are
    # folded into the outer phases
    left = np.exp(1j * (n_atoms * delta + 0.5 * (arg_a - arg_b) * tilt)) * _I_POWERS[m % 4]
    right = np.exp(0.5j * (arg_a + arg_b) * tilt) * _I_POWERS[-m % 4]
    x = _sigma_x_basis(n_atoms)
    # X is real, so each product with it is one real product on the rows'
    # (N+1) x 2k float64 view, with no complex copy of X
    out = np.multiply(right[:, None], block, dtype=np.complex128)
    out = (x.T @ out.view(np.float64)).view(np.complex128)
    # column k of X carries eigenvalue lam_k = -tilt_k
    out *= np.exp(1j * half_beta * tilt)[:, None]
    out = (x @ out.view(np.float64)).view(np.complex128)
    out *= left[:, None]
    return out.reshape(rows.shape)


# ---------------------------------------------------------------------------
# Unreduced brute-force simulator.
# ---------------------------------------------------------------------------


def naive_space(n_atoms: int) -> SpaceLabel:
    subs = tuple((f"atom{j}", 2) for j in range(n_atoms)) + (("photon1", 2), ("photon2", 2))
    return SpaceLabel(subs)


def _evolution_block(lam_t: float, n_plain, n_primed) -> np.ndarray:
    """4x4 photon-pair evolution for a fixed atomic configuration.

    Array counts give a stack of blocks, one per entry, from one batched
    ``eigh``; scalar counts give one (4, 4) block.
    """
    n_plain = np.asarray(n_plain, dtype=float)[..., None, None]
    n_primed = np.asarray(n_primed, dtype=float)[..., None, None]
    w, v = np.linalg.eigh(n_plain * _GEN_PLUS + n_primed * _GEN_MINUS)
    return (v * np.exp(-1j * lam_t * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@functools.lru_cache(maxsize=NAIVE_ATOM_LIMIT)
def _excitation_order(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^N atomic basis rows stably sorted by excitation number.

    Returns ``(order, inverse, bounds)``, all read-only: ``order`` lists the
    row indices with popcount 0 first, then 1, and so on, each run in
    ascending index order; ``inverse`` undoes it, and rows of excitation m
    sit at ``order[bounds[m]:bounds[m + 1]]``. Built once per N.
    """
    index = np.arange(2**n_atoms)
    popcount = sum((index >> j) & 1 for j in range(n_atoms))
    order = np.argsort(popcount, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = index
    bounds = np.searchsorted(popcount[order], np.arange(n_atoms + 2))
    for arr in (order, inverse, bounds):
        arr.setflags(write=False)
    return order, inverse, bounds


def full_simulate_naive(n_atoms: int, atom_init, ops) -> StateVector:
    """Evolve the full product space of N atoms and both photons.

    ``atom_init`` is the normalized single-atom 2-vector replicated across
    the ensemble; the photons start horizontal. The medium evolution is
    evaluated per atomic configuration by counting atoms in each level,
    which is the literal action of the per-atom Hamiltonian sum.

    Every one of the 2^N x 4 amplitudes is evolved. An atom rotation applies
    u to each atom, four atoms at a time: one product of the 16 x 16 block
    u (x) u (x) u (x) u with the (2^j, 16, rest) view of the state per group,
    about N / 4 passes. A photon rotation is one right product on the
    (2^N, 4) view. A medium step gives each excitation number m its own
    4 x 4 block from its own ``eigh`` (all N + 1 of them in one batched
    call), gathers the rows into excitation order once, applies each block
    to its contiguous run of C(N, m) rows in place and scatters the rows
    back: O(2^N) work in three passes.
    """
    single = _check_atom_init(atom_init)
    if n_atoms > NAIVE_ATOM_LIMIT:
        raise ValueError(f"naive simulator is capped at {NAIVE_ATOM_LIMIT} atoms")
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    state = _PHOTONS_HH.reshape(2, 2)
    for _ in range(n_atoms):
        state = np.tensordot(single, state, axes=0)
    state = state.reshape(2**n_atoms, 4)
    for op in ops:
        if isinstance(op, AtomRotation):
            powers = [np.ones((1, 1))]
            while len(powers) <= min(4, n_atoms):
                powers.append(_kron(powers[-1], op.matrix))
            for j in range(0, n_atoms, 4):
                g = min(4, n_atoms - j)
                state = np.matmul(powers[g], state.reshape(2**j, 2**g, -1))
            state = state.reshape(2**n_atoms, 4)
        elif isinstance(op, PhotonRotation):
            u = op.matrix
            state = state @ (_kron(u, _I2) if op.photon == 1 else _kron(_I2, u)).T
        elif isinstance(op, EnsembleEvolution):
            order, inverse, bounds = _excitation_order(n_atoms)
            m = np.arange(n_atoms + 1)
            blocks = _evolution_block(op.theta / n_atoms, n_atoms - m, m)
            state = np.take(state, order, axis=0)
            for k in m:
                segment = state[bounds[k] : bounds[k + 1]]
                np.matmul(segment, blocks[k].T, out=segment)
            state = np.take(state, inverse, axis=0)
        else:
            raise TypeError(f"unknown operation {op!r}")
    return StateVector(naive_space(n_atoms), state.reshape(-1))


def dicke_amplitudes_from_naive(state: StateVector, n_atoms: int) -> np.ndarray:
    """Project an (exactly symmetric) naive state onto the Dicke sector.

    Returns an (N+1, 4) array indexed by excitation number and photon pair.
    """
    order, _, bounds = _excitation_order(n_atoms)
    rows = np.take(state.amplitudes.reshape(2**n_atoms, 4), order, axis=0)
    norms = np.sqrt([math.comb(n_atoms, m) for m in range(n_atoms + 1)])
    return np.add.reduceat(rows, bounds[:-1], axis=0) / norms[:, None]


# ---------------------------------------------------------------------------
# Symmetric-sector simulator.
# ---------------------------------------------------------------------------


def dicke_space(n_atoms: int) -> SpaceLabel:
    return SpaceLabel((("atoms", n_atoms + 1), ("photon1", 2), ("photon2", 2)))


def _medium_phase(rows: np.ndarray, theta: float, n_atoms: int, m: np.ndarray) -> None:
    """The medium step, in place, on photon-pair rows (k, 4) with m primed atoms each.

    In the circular basis the phase is exp(-i lam t [(N - m) n+ + m n-]) with
    lam t = theta / N: exp(-i theta) times tilt_m = exp(-i lam t (N - 2m)) on
    ++, times 1 on +- and -+, and times conj(tilt_m) on --.
    """
    tilt = np.exp(-1j * (theta / n_atoms) * (n_atoms - 2.0 * m))
    circ = rows @ _B2.T
    circ[:, 0] *= tilt
    circ[:, 3] *= tilt.conj()
    np.matmul(circ, np.exp(-1j * theta) * _B2.conj(), out=rows)


class _DickeRun:
    """Hybrid state: coherent product form while possible, else a full array.

    The product form keeps a single-atom vector and a photon 4-vector and
    costs O(1) per rotation; the medium evolution on a non-extreme atom state
    entangles excitation number with the photons and forces the general
    (N+1) x 4 form, where it is a diagonal phase profile in the circular
    photon basis.
    """

    def __init__(self, n_atoms: int, atom_vec: np.ndarray):
        self.n = n_atoms
        self.general: np.ndarray | None = None
        self.atom_vec: np.ndarray | None = np.array(atom_vec, dtype=complex)
        self.photon_vec: np.ndarray | None = _PHOTONS_HH.copy()

    def _materialize(self) -> None:
        if self.general is None:
            start, band = coherent_dicke_amplitudes(self.atom_vec, self.n)
            # write only the band: the zero pages of the rest are never
            # touched, so they never become resident
            self.general = np.zeros((self.n + 1, 4), dtype=complex)
            self.general[start : start + len(band)] = np.outer(band, self.photon_vec)
            self.atom_vec = None
            self.photon_vec = None

    def atom_rotation(self, u: np.ndarray) -> None:
        if self.general is None:
            vec = u @ self.atom_vec
            # one ulp of magnitude drift here becomes N ulps after the N-fold
            # product, so keep the single-atom vector exactly unit length
            self.atom_vec = vec / np.linalg.norm(vec)
        else:
            self.general = symmetric_rotation(u, self.n, self.general)

    def photon_rotation(self, photon: int, u: np.ndarray) -> None:
        full = _kron(u, _I2) if photon == 1 else _kron(_I2, u)
        if self.general is None:
            self.photon_vec = full @ self.photon_vec
        else:
            self.general = self.general @ full.T

    def ensemble_evolution(self, theta: float) -> None:
        if self.general is None:
            alpha, beta = self.atom_vec
            if abs(beta) <= 1e-14 or abs(alpha) <= 1e-14:
                m = 0 if abs(beta) <= 1e-14 else self.n
                _medium_phase(self.photon_vec.reshape(1, 4), theta, self.n, np.array([m]))
                return
            self._materialize()
        # one block of rows at a time, so no temporary grows with N
        for lo in range(0, self.n + 1, _ROW_BLOCK):
            rows = self.general[lo : lo + _ROW_BLOCK]
            _medium_phase(rows, theta, self.n, np.arange(lo, lo + len(rows)))

    def to_state(self) -> StateVector:
        """Hand the array over to the state; the run keeps no reference to it.

        Frozen and owned by nothing else, it passes into StateVector without a
        copy. Not renormalized: StateVector rejects any drift of the squared norm.
        """
        self._materialize()
        general, self.general = self.general, None
        general.setflags(write=False)
        return StateVector(dicke_space(self.n), general)


def full_simulate_dicke(n_atoms: int, atom_init, ops) -> StateVector:
    """Evolve the symmetric sector: identical physics to the naive simulator.

    ``atom_init`` is the normalized single-atom 2-vector replicated across
    the ensemble, and the photons start horizontal, as for
    ``full_simulate_naive``. The single-atom vector is kept at unit norm
    after every rotation, and the Dicke amplitudes are taken from it at unit
    norm, so the state's squared norm drifts by rounding only, at any N.

    Cost: rotations and medium steps on a product state with the atoms at an
    extreme are O(1). The first medium step off the extremes, or the end of
    the run, writes the (N+1) x 4 array, of which only the O(sqrt(N))
    coherent band is computed. After that a medium step is O(N) in place
    and an atom rotation is a symmetric rotation applied to the (N+1) x 4
    array (N <= 1024): two real O(N^2) products with the sigma_x
    eigenbasis, whose O(N^3) eigendecomposition is paid once per N. The
    returned state takes the final array without copying it.
    """
    single = _check_atom_init(atom_init)
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    run = _DickeRun(n_atoms, single)
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
