"""Many-atom oracle simulators and symmetric-sector atom machinery.

``full_simulate_naive`` evolves the unreduced product space of N two-level
atoms plus both photons and is the ground truth for everything else; it is
capped at 12 atoms. ``full_simulate_dicke`` reproduces the same physics on
the permutation-symmetric sector, where a product state costs O(1) and a
coherent band about 110 sqrt(N p q) rows, which is what makes the protocol
runnable at realistic atom numbers.

Both simulators consume the same small operation vocabulary (per-atom
rotation, medium evolution, single-photon rotation), so a protocol sequence
can be replayed on either and compared. Both start from a product state:
one normalized single-atom 2-vector replicated over the ensemble, and both
photons horizontal, |HH>. Both keep it as that product, one atom vector and
one photon-pair vector, until the first medium step couples the atoms to
the photons. ``protocol.run_protocol`` replays the same sequences on the
compact (atom, photon1, photon2) space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import ATOM, H_EFF, collective_extreme
from .polarization import LIN_TO_CIRC, PHOTON
from .qstate import CONSTRUCTION_ATOL, Operator, SpaceLabel, StateVector, band_rows, check_count, check_real

NAIVE_ATOM_LIMIT = 12
# The limit bounds the cached sigma_x eigenbasis that symmetric rotations use:
# two half bases of about (N+1)^2 / 2 doubles in all, from two O(N^3 / 8)
# eigendecompositions once per N, after which a rotation of (N+1) x k rows is
# O(N^2 k). Bigger ensembles stay on the coherent product path.
DENSE_ROTATION_LIMIT = 1024
# The most atoms whose dense amplitudes a DickeState builds: 64 (N + 1) bytes, 640 MB here.
DENSE_STATE_LIMIT = 10**7

_I2 = np.eye(2)
_B2 = np.kron(LIN_TO_CIRC, LIN_TO_CIRC)
# Both photons horizontal, the source output every simulation starts from.
_PHOTONS_HH = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
# H_EFF's diagonal blocks, the photon-pair generators per atom in each level:
# n_plain * _GEN_PLUS + n_primed * _GEN_MINUS for a given configuration.
_GEN_PLUS, _GEN_MINUS = H_EFF[:4, :4], H_EFF[4:, 4:]
# Rows of the Dicke band that the medium step phases at once;
# bounds its temporaries only.
_ROW_BLOCK = 1 << 16
# i^m for m mod 4, exactly
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, entry for entry, without its per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _atom_start(atom_init) -> np.ndarray:
    """The single-atom start vector: ``_atom_norm``'s rule, then the amplitudes of a ``StateVector`` on one atom."""
    _atom_norm(atom_init)
    return StateVector(ATOM, atom_init).amplitudes


@dataclass(frozen=True, eq=False)
class AtomRotation:
    """The same single-atom unitary applied to every atom; ``gate`` is its Operator, checked once, here."""

    matrix: np.ndarray
    gate: Operator = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "gate", Operator(ATOM, self.matrix))
        object.__setattr__(self, "matrix", self.gate.matrix)


@dataclass(frozen=True)
class EnsembleEvolution:
    """Medium traversal for a total dimensionless angle theta = lambda*N*t."""

    theta: float

    def __post_init__(self):
        check_real("theta", self.theta)


@dataclass(frozen=True, eq=False)
class PhotonRotation:
    """A 2x2 polarization rotation on photon 1 or 2; ``gate`` is its Operator, checked once, here."""

    photon: int
    matrix: np.ndarray
    # derived once, at construction: the checked gate and its read-only 4x4 gate on |p1 p2>
    gate: Operator = field(init=False, repr=False)
    pair: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if check_count("photon", self.photon) > 2:
            raise ValueError(f"photon must be 1 or 2, got {self.photon!r}")
        object.__setattr__(self, "gate", Operator(PHOTON, self.matrix))
        matrix = self.gate.matrix
        pair = _kron(matrix, _I2) if self.photon == 1 else _kron(_I2, matrix)
        pair.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pair", pair)


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


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n) for an array of integer-valued n >= 0."""
    r = 1.0 / np.maximum(n, 16.0)
    r2 = r * r
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r2 / 1188) * r2) * r2) * r2) * r
    return np.where(n <= 15, _STIRLERR_SMALL[np.minimum(n, 15).astype(int)], series)


def _bd0(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """x ln(x / lam) + lam - x, without the cancellation near x = lam; ``lam`` broadcasts against x."""
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
    # for |v| < 0.1 each term of the series is below 1% of the one before
    return np.where(np.abs(v) < 0.1, series, direct)


def _log_binomial(m: np.ndarray, n_atoms: int, lam: float, mu: float) -> np.ndarray:
    """ln[C(N, m) p^m q^(N-m)] for float m in [0, N], with lam = N p and mu = N q.

    The form carries a factor exp(N - lam - mu), which cancels the rounding
    of p + q to first order: the weights sum to 1 to rounding at any N.
    Each kernel runs once, on its terms stacked: stirlerr on [N, m, N - m],
    bd0 on [m, N - m] against [lam, mu].
    """
    k = n_atoms - m
    with np.errstate(divide="ignore"):
        spread = np.where((m > 0) & (k > 0), np.log(2.0 * math.pi * m * k / n_atoms), 0.0)
    stir = _stirlerr(np.stack((np.full_like(m, n_atoms), m, k)))
    dev = _bd0(np.stack((m, k)), np.array([[lam], [mu]]))
    return stir[0] - stir[1] - stir[2] - dev[0] - dev[1] - 0.5 * spread


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


def _atom_norm(single) -> tuple[complex, complex, float]:
    """A single-atom vector as (alpha, beta, its norm); a ValueError unless of shape (2,), nonzero and finite."""
    if (shape := np.shape(single)) != (2,):
        raise ValueError(f"the single-atom vector must be a 2-vector, got shape {shape}")
    alpha, beta = complex(single[0]), complex(single[1])
    scale = math.hypot(abs(alpha), abs(beta))
    if not 0.0 < scale < math.inf:  # NaN fails too
        raise ValueError("the single-atom vector must be nonzero with a finite norm")
    return alpha, beta, scale


def coherent_dicke_amplitudes(single: np.ndarray, n_atoms: int) -> tuple[int, np.ndarray]:
    """Symmetric-sector amplitudes of the N-fold product of one qubit state.

    Index m counts atoms in the primed level. The single-atom vector is read
    at unit norm, (alpha, beta) / s with s = sqrt(|alpha|^2 + |beta|^2), the one
    normalization of ``full_simulate_dicke``, so the squared magnitudes are
    exactly the binomial weights b(m; N, |beta/s|^2).
    Returns ``(start, band)``: the amplitudes of m = start, start + 1, ...;
    every entry outside the band underflows and is exactly zero. The band is
    about 110 sqrt(N p q) entries about the mode N p, with p = |beta/s|^2 and
    q = 1 - p, each in Loader's saddle-point form to a few ulps, so the
    squared norm is 1 to rounding at any N. The cost is O(sqrt(N p q)).
    """
    check_count("n_atoms", n_atoms)
    alpha, beta, scale = _atom_norm(single)
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


# eight entries of two half bases hold the bytes of four whole bases
@functools.lru_cache(maxsize=8)
def _sigma_x_basis(n_atoms: int) -> tuple[np.ndarray, ...]:
    """Real orthogonal eigenbasis of the collective sigma_x on the symmetric sector, in two halves.

    The collective sigma_x is the tridiagonal ladder with off-diagonal
    b_m = sqrt((N - m)(m + 1)) = b_(N-1-m), so it commutes with the reversal
    m -> N - m and splits into two tridiagonal blocks in the basis
    (e_m +- e_(N-m)) / sqrt 2: for even N, e_(N/2) joins the + block with
    coupling sqrt(2) b_(N/2-1); for odd N, the blocks end in the diagonal
    entries +-b_((N-1)/2). The + block has the eigenvalues 2k - N with
    k = N (mod 2). Returns ``(xp, xq, lam, tilt, powers, inverse)``,
    read-only and built once per N: the half bases, the exact eigenvalues of
    their columns, and the phase tables N - 2m, i^m and i^-m. Paired rows are
    scaled by 1/sqrt 2 (the middle row of even N by 1/2), so folding rows
    into r[:h] +- r[::-1][:h] and back needs no other factor. Raises
    ValueError unless each half has max |X^T X - I| <= CONSTRUCTION_ATOL and
    eigenvalues 2k - N: with unimodular diagonal factors on both sides,
    every rotation built on the halves is then unitary.
    """
    half, odd = divmod(n_atoms, 2)
    m = np.arange(n_atoms + 1)
    b = np.sqrt((n_atoms - m[: half + 1]) * (m[: half + 1] + 1.0))
    lam = 2.0 * m - n_atoms
    exact = (lam[odd::2], lam[1 - odd :: 2])
    halves = []
    for sign, w_exact in zip((1.0, -1.0), exact):
        mid = sign > 0 and not odd  # the + block of even N ends in e_(N/2), its own mirror
        t = np.diag(b[: len(w_exact) - 1], -1)  # eigh reads the lower triangle
        t[-1, -1] = odd * sign * b[half]
        if mid:
            t[-1, -2] *= math.sqrt(2.0)
        w, x = np.linalg.eigh(t)
        gram = np.matmul(x.T, x, out=t)  # X^T X - I in t's place: no temporary of a block's size
        gram.flat[:: len(w) + 1] -= 1.0
        dev = float(np.abs(gram, out=gram).max())
        if dev > CONSTRUCTION_ATOL:
            raise ValueError(
                f"sigma_x eigenbasis for {n_atoms} atoms is not orthogonal: max |X^T X - I| = {dev:.3e}"
            )
        spread = float(np.max(np.abs(w - w_exact)))
        if spread > CONSTRUCTION_ATOL * max(1, n_atoms):
            raise ValueError(f"sigma_x eigenvalues for {n_atoms} atoms are off 2k - N by {spread:.3e}")
        x *= math.sqrt(0.5)
        if mid:
            x[-1] *= math.sqrt(0.5)
        halves.append(x)
    tables = (*halves, np.concatenate(exact), -lam, _I_POWERS[m % 4], _I_POWERS[-m % 4])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _dense_rotation_atoms(n_atoms: int) -> int:
    """``n_atoms``, checked as a count within DENSE_ROTATION_LIMIT."""
    if check_count("n_atoms", n_atoms) > DENSE_ROTATION_LIMIT:
        raise ValueError(f"dense symmetric rotation requested for {n_atoms} atoms; limit is {DENSE_ROTATION_LIMIT}")
    return n_atoms


def symmetric_rotation(u: Operator, n_atoms: int, rows: np.ndarray) -> np.ndarray:
    """The N-fold tensor power of a single-qubit unitary applied to symmetric-sector rows.

    ``u`` is a built 2x2 Operator, used as built; a raw matrix is refused.
    ``rows`` has shape (N+1,) or (N+1, k), indexed by excitation number m;
    the result has the same shape and ``rows`` is left unchanged. The
    (N+1) x (N+1) matrix is never formed. Splits off the global phase and
    writes the special-unitary part as Rz(alpha) Ry(beta) Rz(gamma), with
    beta/2 = atan2(|v10|, |v00|), so small angles come from a sine and are
    not rounded away as acos would round them. On the symmetric sector
    Rz(phi) is the diagonal phase exp(-i phi (N - 2m) / 2), and Ry(beta) =
    D X diag(exp(-i beta lam / 2)) X^T D^dag with D = diag(i^m) and X the
    real eigenbasis of the collective sigma_x (eigenvalues lam = -N, -N + 2,
    ..., N), cached as two half bases. The factors are applied to the rows
    one at a time: phases; a fold into sum and difference halves, each times
    its half basis transposed; eigenphases; each half times its basis, and
    the unfold; phases. Each half product is one real product on a float64
    view, and the four take half the flops of the two with X. A call costs
    O(N^2 k), plus two half-size eigendecompositions once per N. A diagonal
    rotation (v10 == 0), the identity included, only multiplies each row by
    its phase.
    """
    _dense_rotation_atoms(n_atoms)
    if not isinstance(u, Operator):
        raise TypeError(f"a gate must be a built Operator, got {type(u).__name__}")
    if u.dim != 2:
        raise ValueError(f"operator dimension {u.dim} does not match a single atom's 2")
    u = u.matrix
    rows = np.asarray(rows)
    n1 = n_atoms + 1
    if rows.ndim not in (1, 2) or rows.shape[0] != n1:
        raise ValueError(f"rows must have shape ({n1},) or ({n1}, k), got {rows.shape}")
    block = rows.reshape(n1, -1)
    # Python scalars: numpy's overhead on 0-d values is most of a small-N call
    (u00, u01), (u10, u11) = u.tolist()
    det = u00 * u11 - u01 * u10
    delta = math.atan2(det.imag, det.real) / 2.0
    # v00 = exp(-i(alpha + gamma)/2) cos(beta/2), v10 = exp(i(alpha - gamma)/2) sin(beta/2)
    turn = complex(math.cos(delta), -math.sin(delta))
    a, b = u00 * turn, u10 * turn
    arg_a = math.atan2(a.imag, a.real)
    if b == 0.0:
        phase = np.exp(1j * (n_atoms * delta + arg_a * (n_atoms - 2.0 * np.arange(n1))))
        return (phase[:, None] * block).reshape(rows.shape)
    arg_b = math.atan2(b.imag, b.real)
    half_beta = math.atan2(abs(b), abs(a))
    xp, xq, lam, tilt, powers, inverse = _sigma_x_basis(n_atoms)
    hp, hq = len(xp), len(xq)
    # alpha = arg b - arg a and gamma = -(arg a + arg b); D and D^dag are
    # folded into the outer phases
    right = np.exp((0.5j * (arg_a + arg_b)) * tilt) * inverse
    out = np.multiply(right[:, None], block, dtype=np.complex128)
    f = out.view(np.float64)
    plus = (xp.T @ (f[:hp] + f[::-1][:hp])).view(np.complex128)
    minus = (xq.T @ (f[:hq] - f[::-1][:hq])).view(np.complex128)
    eigen = np.exp((-1j * half_beta) * lam)[:, None]
    plus *= eigen[:hp]
    minus *= eigen[hp:]
    plus, minus = xp @ plus.view(np.float64), xq @ minus.view(np.float64)
    np.add(plus[:hq], minus, out=f[:hq])
    np.subtract(plus[:hq], minus, out=f[::-1][:hq])
    if hp > hq:  # the middle row of even N
        np.add(plus[hq], plus[hq], out=f[hq])
    out *= (np.exp(1j * n_atoms * delta + (0.5j * (arg_a - arg_b)) * tilt) * powers)[:, None]
    return out.reshape(rows.shape)


# ---------------------------------------------------------------------------
# Unreduced brute-force simulator.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=NAIVE_ATOM_LIMIT)
def naive_space(n_atoms: int) -> SpaceLabel:
    subs = tuple((f"atom{j}", 2) for j in range(n_atoms)) + (("photon1", 2), ("photon2", 2))
    return SpaceLabel(subs)


@functools.lru_cache(maxsize=NAIVE_ATOM_LIMIT)
def _medium_eigenbasis(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of the photon-pair generator at each excitation number.

    With m atoms primed and N - m plain the generator is
    (N - m) G+ + m G-; one batched ``eigh`` over m = 0..N gives its
    eigenvalues ``w`` (N+1, 4), eigenvectors ``v`` (N+1, 4, 4) and ``vh``,
    the conjugate transpose of each block. All three are read-only and
    depend on N alone, so they are built once per N.
    """
    m = np.arange(n_atoms + 1, dtype=float)[:, None, None]
    w, v = np.linalg.eigh((n_atoms - m) * _GEN_PLUS + m * _GEN_MINUS)
    vh = v.conj().swapaxes(-1, -2)
    for arr in (w, v, vh):
        arr.setflags(write=False)
    return w, v, vh


def _evolution_block(lam_t: float, n_atoms: int) -> np.ndarray:
    """The (N+1, 4, 4) photon-pair evolutions; block m has m atoms primed."""
    w, v, vh = _medium_eigenbasis(n_atoms)
    # lam_t * w past the float range gives NaN blocks, which StateVector rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return (v * np.exp(-1j * lam_t * w)[..., None, :]) @ vh


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


def _naive_product(single: np.ndarray, photons: np.ndarray, n_atoms: int) -> np.ndarray:
    """The (2^N, 4) rows of single^(x)N (x) photons: N outer products, one ``np.dot`` each."""
    # np.tensordot(single, state, axes=0) without its reshaping: the same bits
    # for a complex atom, where a broadcast multiply rounds differently
    column, state = single[:, None], photons
    for _ in range(n_atoms):
        state = np.dot(column, state[None, :]).reshape(-1)
    return state.reshape(2**n_atoms, 4)


def full_simulate_naive(n_atoms: int, atom_init, ops) -> StateVector:
    """Evolve the full product space of N atoms and both photons.

    ``atom_init`` is the normalized single-atom 2-vector replicated across
    the ensemble; the photons start horizontal. The medium evolution is
    evaluated per atomic configuration by counting atoms in each level,
    which is the literal action of the per-atom Hamiltonian sum.

    Until the first medium step couples them, atoms and photons are a
    product: rotations multiply the single-atom 2-vector or the photon-pair
    4-vector, and nothing is renormalized. That step, or the end of the run,
    expands the product into the 2^N x 4 amplitudes, and from then on every
    one of them is evolved. An atom rotation applies u to each atom, four
    atoms at a time: one product of the 16 x 16 block u (x) u (x) u (x) u
    with the (2^j, 16, rest) view of the state per group, about N / 4 passes.
    A photon rotation is one right product on the (2^N, 4) view. A medium
    step gives each excitation number m its own 4 x 4 block from its own
    ``eigh`` (all N + 1 of them in one batched call, built once per N, so a
    step only applies the phases), gathers the rows into excitation order
    once, applies each block to its contiguous run of C(N, m) rows in place
    and scatters the rows back: O(2^N) work in three passes.
    """
    single = _atom_start(atom_init)
    if check_count("n_atoms", n_atoms) > NAIVE_ATOM_LIMIT:
        raise ValueError(f"naive simulator is capped at {NAIVE_ATOM_LIMIT} atoms")
    # ``state`` is None while the state is the product single^(x)N (x) photons
    photons, state = _PHOTONS_HH, None
    for op in ops:
        if isinstance(op, AtomRotation):
            if state is None:
                single = op.matrix @ single
                continue
            powers = [np.ones((1, 1))]
            while len(powers) <= min(4, n_atoms):
                powers.append(_kron(powers[-1], op.matrix))
            for j in range(0, n_atoms, 4):
                g = min(4, n_atoms - j)
                state = np.matmul(powers[g], state.reshape(2**j, 2**g, -1))
            state = state.reshape(2**n_atoms, 4)
        elif isinstance(op, PhotonRotation):
            if state is None:
                photons = op.pair @ photons
            else:
                state = state @ op.pair.T
        elif isinstance(op, EnsembleEvolution):
            if state is None:
                state = _naive_product(single, photons, n_atoms)
            order, inverse, bounds = _excitation_order(n_atoms)
            blocks = _evolution_block(op.theta / n_atoms, n_atoms)
            state = np.take(state, order, axis=0)
            for k in range(n_atoms + 1):
                segment = state[bounds[k] : bounds[k + 1]]
                np.matmul(segment, blocks[k].T, out=segment)
            state = np.take(state, inverse, axis=0)
        else:
            raise TypeError(f"unknown operation {op!r}")
    if state is None:
        state = _naive_product(single, photons, n_atoms)
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


@functools.lru_cache(maxsize=16)
def dicke_space(n_atoms: int) -> SpaceLabel:
    return SpaceLabel((("atoms", n_atoms + 1), ("photon1", 2), ("photon2", 2)))


@dataclass(frozen=True, eq=False)
class DickeState:
    """A symmetric-sector state of N atoms and both photons, in one of two forms.

    Either form's ``rows`` hold all of its weight, checked at unit norm, and
    ``qstate.born_distribution`` marginalizes the atoms from them alone. The
    product form is the single-atom 2-vector ``atom``, checked and read at
    unit norm as ``coherent_dicke_amplitudes`` reads it, on every atom, times
    the one row, the photon pair (``first`` must be 0). The band form (``atom`` None) is the
    photon-pair rows of m = first, first + 1, ... that ``band_rows`` returns,
    every other row 0. The dense ``amplitudes`` are built on the first
    request, for at most DENSE_STATE_LIMIT atoms.
    """

    n_atoms: int
    first: int
    rows: np.ndarray
    atom: tuple[complex, complex] | None = None

    def __post_init__(self):
        n_atoms = check_count("n_atoms", self.n_atoms)
        if self.atom is not None:
            alpha, beta, _ = _atom_norm(self.atom)
            object.__setattr__(self, "atom", (alpha, beta))
            if self.first != 0:
                raise ValueError(f"a product form's first must be 0, got {self.first!r}")
        # the product form's pair is checked as the one row of a space with one atomic level
        first, rows = band_rows(dicke_space(n_atoms if self.atom is None else 0), self.first, self.rows)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "rows", rows)

    @property
    def space(self) -> SpaceLabel:
        return dicke_space(self.n_atoms)

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        if self.n_atoms > DENSE_STATE_LIMIT:
            raise ValueError(f"dense amplitudes requested for {self.n_atoms} atoms; limit is {DENSE_STATE_LIMIT}")
        first, rows = self.first, self.rows
        if self.atom is not None:
            first, band = coherent_dicke_amplitudes(self.atom, self.n_atoms)
            rows = np.outer(band, rows)
        amps = np.zeros(4 * (self.n_atoms + 1), dtype=complex)
        amps.reshape(-1, 4)[first : first + len(rows)] = rows
        amps.setflags(write=False)
        return amps


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


def full_simulate_dicke(n_atoms: int, atom_init, ops) -> DickeState:
    """Evolve the symmetric sector: identical physics to the naive simulator.

    ``atom_init`` is the normalized single-atom 2-vector replicated across the
    ensemble, and the photons start horizontal, as for ``full_simulate_naive``.
    Product-state rotations do not renormalize it; the Dicke amplitudes are read
    from it at unit norm, so the squared norm drifts by rounding only, at any N.

    The state is photon-pair rows for a band of excitation numbers m; all
    other rows are zero. A product state is one row plus the single-atom
    vector, and its rotations and its medium steps with the atoms at an
    extreme are O(1). The first medium step off the extremes writes the
    O(sqrt(N)) rows of the coherent band. After that a medium step is
    O(band) in place and an atom rotation pads the rows to N + 1 for a
    symmetric rotation (N <= 1024): four real O(N^2 / 4) products with the
    halves of the sigma_x eigenbasis, built once per N by two O(N^3 / 8)
    eigendecompositions. The result is a ``DickeState`` in the form the run
    ends in: the product if no medium step left the extremes, else the band.
    """
    atom = _atom_start(atom_init)
    check_count("n_atoms", n_atoms)
    # ``rows`` holds m = first .. first + len(rows) - 1; ``atom`` is None once they hold the state
    rows, first = _PHOTONS_HH.reshape(1, 4).copy(), 0
    for op in ops:
        if isinstance(op, AtomRotation):
            if atom is None:
                padded = np.zeros((_dense_rotation_atoms(n_atoms) + 1, 4), dtype=complex)
                padded[first : first + len(rows)] = rows
                rows, first = symmetric_rotation(op.gate, n_atoms, padded), 0
            else:
                atom = op.matrix @ atom
        elif isinstance(op, PhotonRotation):
            rows = rows @ op.pair.T
        elif isinstance(op, EnsembleEvolution):
            if atom is not None:
                # phasing the empty level's residual r (|r| <= 1e-12) as absent errs by ~2|theta r|/sqrt(N)
                extreme = collective_extreme(atom)
                if extreme is None:
                    first, band = coherent_dicke_amplitudes(atom, n_atoms)
                    rows, atom = np.outer(band, rows), None
                else:
                    first = extreme * n_atoms
            # one block of rows at a time, so no temporary grows with N
            for lo in range(0, len(rows), _ROW_BLOCK):
                block = rows[lo : lo + _ROW_BLOCK]
                _medium_phase(block, op.theta, n_atoms, np.arange(first + lo, first + lo + len(block)))
        else:
            raise TypeError(f"unknown operation {op!r}")
    # Not renormalized: DickeState rejects any drift of the rows' squared norm.
    return DickeState(n_atoms, first if atom is None else 0, rows, atom)
