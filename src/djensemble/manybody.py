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
from .qstate import CONSTRUCTION_ATOL, SpaceLabel, StateVector

NAIVE_ATOM_LIMIT = 12
# A dense symmetric rotation is an (N+1) x (N+1) matrix from an O(N^3) real
# product, and the first rotation at each N also pays an O(N^3)
# eigendecomposition; bigger ensembles stay on the coherent product path.
DENSE_ROTATION_LIMIT = 1024

_I2 = np.eye(2)
_B2 = np.kron(LIN_TO_CIRC, LIN_TO_CIRC)
# Both photons horizontal, the source output every simulation starts from.
_PHOTONS_HH = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
# Rows of the (N+1) x 4 Dicke array that the medium step phases at once;
# bounds its temporaries only.
_ROW_BLOCK = 1 << 16
# i^m for m mod 4, exactly
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


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


def coherent_dicke_amplitudes(single: np.ndarray, n_atoms: int) -> np.ndarray:
    """Symmetric-sector amplitudes of the N-fold product of one qubit state.

    Index m counts atoms in the primed level. The single-atom vector is taken
    at unit norm, (alpha, beta) / s with s = sqrt(|alpha|^2 + |beta|^2), the
    rule ``_DickeRun.atom_rotation`` applies after every rotation, so the
    squared magnitudes are exactly the binomial weights b(m; N, |beta/s|^2).
    Only the band of m whose amplitude does not underflow is evaluated: about
    110 sqrt(N p q) entries about the mode N p, with p = |beta/s|^2 and
    q = 1 - p, each in Loader's saddle-point form to a few ulps, so the
    squared norm is 1 to rounding at any N. Every other entry is exactly
    zero; the cost is O(sqrt(N p q)) besides the zeroed (N+1)-array.
    """
    alpha, beta = complex(single[0]), complex(single[1])
    scale = math.hypot(abs(alpha), abs(beta))
    if scale == 0.0:
        raise ValueError("the single-atom vector is zero")
    p = (abs(beta) / scale) ** 2
    q = (abs(alpha) / scale) ** 2
    amps = np.zeros(n_atoms + 1, dtype=complex)
    # p or q underflows to 0 only for |beta/s| or |alpha/s| below about
    # 1.6e-162; the dropped amplitudes are then at most sqrt(N) times that
    if p == 0.0:
        amps[0] = (alpha / abs(alpha)) ** n_atoms
        return amps
    if q == 0.0:
        amps[n_atoms] = (beta / abs(beta)) ** n_atoms
        return amps
    m, log_amp = _coherent_band(n_atoms, p, q)
    phase = (n_atoms - m) * np.angle(alpha) + m * np.angle(beta)
    with np.errstate(under="ignore"):
        amps[int(m[0]) : int(m[-1]) + 1] = np.exp(log_amp + 1j * phase)
    return amps


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


def symmetric_rotation(u: np.ndarray, n_atoms: int) -> np.ndarray:
    """The N-fold tensor power of a single-qubit unitary on the symmetric sector.

    Splits off the global phase and writes the special-unitary part as
    Rz(alpha) Ry(beta) Rz(gamma), with beta/2 = atan2(|v10|, |v00|), so
    small angles come from a sine and are not rounded away as acos would
    round them. On the symmetric sector Rz(phi) is the diagonal phase
    exp(-i phi (N - 2m) / 2), and Ry(beta) = D X diag(exp(-i beta lam / 2))
    X^T D^dag with D = diag(i^m) and X the cached real eigenbasis of the
    collective sigma_x (eigenvalues lam = -N, -N + 2, ..., N). A call costs
    one real (2N+2) x (N+1) x (N+1) product plus O(N^2) phase scaling. A
    diagonal rotation (v10 == 0), the identity included, returns an exactly
    diagonal matrix.
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
    # v00 = exp(-i(alpha + gamma)/2) cos(beta/2), v10 = exp(i(alpha - gamma)/2) sin(beta/2)
    a, b = v[0, 0], v[1, 0]
    m = np.arange(n_atoms + 1)
    tilt = n_atoms - 2.0 * m
    arg_a = float(np.angle(a))
    if b == 0.0:
        return np.diag(np.exp(1j * (n_atoms * delta + arg_a * tilt)))
    arg_b = float(np.angle(b))
    half_beta = math.atan2(abs(b), abs(a))
    # alpha = arg b - arg a and gamma = -(arg a + arg b); D and D^dag are
    # folded into the outer phases
    left = np.exp(1j * (n_atoms * delta + 0.5 * (arg_a - arg_b) * tilt)) * _I_POWERS[m % 4]
    right = np.exp(0.5j * (arg_a + arg_b) * tilt) * _I_POWERS[-m % 4]
    x = _sigma_x_basis(n_atoms)
    # column k of X carries eigenvalue lam_k = -tilt_k; real and imaginary
    # parts of X diag(exp(-i beta lam / 2)) X^T come out of one real product
    n1 = n_atoms + 1
    stacked = np.empty((2 * n1, n1))
    np.multiply(x, np.cos(half_beta * tilt), out=stacked[:n1])
    np.multiply(x, np.sin(half_beta * tilt), out=stacked[n1:])
    prod = stacked @ x.T
    out = np.empty((n1, n1), dtype=complex)
    out.real = prod[:n1]
    out.imag = prod[n1:]
    out *= left[:, None]
    out *= right
    return out


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


def full_simulate_naive(n_atoms: int, atom_init, ops) -> StateVector:
    """Evolve the full product space of N atoms and both photons.

    ``atom_init`` is the normalized single-atom 2-vector replicated across
    the ensemble; the photons start horizontal. The medium evolution is
    evaluated per atomic configuration by counting atoms in each level,
    which is the literal action of the per-atom Hamiltonian sum.
    """
    single = _check_atom_init(atom_init)
    if n_atoms > NAIVE_ATOM_LIMIT:
        raise ValueError(f"naive simulator is capped at {NAIVE_ATOM_LIMIT} atoms")
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    state = _PHOTONS_HH.reshape(2, 2)
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

    def __init__(self, n_atoms: int, atom_vec: np.ndarray):
        self.n = n_atoms
        self.general: np.ndarray | None = None
        self.atom_vec: np.ndarray | None = np.array(atom_vec, dtype=complex)
        self.photon_vec: np.ndarray | None = _PHOTONS_HH.copy()

    def _materialize(self) -> None:
        if self.general is None:
            amps = coherent_dicke_amplitudes(self.atom_vec, self.n)
            # write only the band that does not underflow: the zero pages of
            # the rest are never touched, so they never become resident
            band = np.flatnonzero(amps)
            lo, hi = band[0], band[-1] + 1
            self.general = np.zeros((self.n + 1, 4), dtype=complex)
            self.general[lo:hi] = np.outer(amps[lo:hi], self.photon_vec)
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
        # In the circular basis the phase is exp(-i lam t [(N - m) n+ + m n-]):
        # exp(-i theta) times tilt_m = exp(-i lam t (N - 2m)) on ++, times 1 on
        # +- and -+, and times conj(tilt_m) on --. It is applied in place, one
        # block of rows at a time, so no temporary grows with N.
        back = np.exp(-1j * theta) * _B2.conj()
        for lo in range(0, self.n + 1, _ROW_BLOCK):
            rows = self.general[lo : lo + _ROW_BLOCK]
            tilt = np.exp(-1j * lam_t * (self.n - 2.0 * np.arange(lo, lo + len(rows))))
            circ = rows @ _B2.T
            circ[:, 0] *= tilt
            circ[:, 3] *= tilt.conj()
            np.matmul(circ, back, out=rows)

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
    and an atom rotation is a dense symmetric rotation (N <= 1024): one
    real O(N^3) product with the sigma_x eigenbasis, whose O(N^3)
    eigendecomposition is paid once per N. The returned state takes the
    final array without copying it.
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
