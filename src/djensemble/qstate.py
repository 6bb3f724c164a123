"""Dense complex linear algebra on small labeled tensor-product spaces.

Everything here is immutable: every amplitude and matrix input is copied on
construction and the copy marked read-only, so a value owns its arrays, no
caller can write to them after the check, all operations are pure functions
and values can be shared freely across threads. Values that hold arrays
compare by identity. ``born_distribution`` marginalizes a state that holds
``rows`` (``manybody.DickeState``) over its leading subsystem from those rows
alone; ``band_rows`` checks a band of them and widens it to whole fold
groups, so that a band's marginal has the bits of its dense amplitudes'.
An ``Operator`` is a checked unitary: its unitarity check runs on every
construction but ``embed``'s, which pads a checked operator with an exact
identity and so cannot fail it (U'^dag U' - I = I (x) (U^dag U - I), entry
for entry). A gate is checked once, where it is built: the kernels that
apply one, ``embed`` and ``manybody.symmetric_rotation``, take a built
Operator and refuse a raw matrix with a TypeError. A ``Hamiltonian`` is
checked and diagonalized once, where it is built, the same way: it must be
finite and Hermitian, and ``expm_hermitian`` takes a built Hamiltonian,
refuses a raw matrix with a TypeError and only exponentiates its stored
eigendecomposition. A state scans its amplitudes for NaN and Inf only when
their squared norm is not finite.

Scalar inputs are checked by three rules here, which the other modules call
instead of writing their own; each raises a ValueError naming the field:
``check_real`` (a finite real number), ``check_positive`` (a finite real
number above 0) and ``check_count`` (an integer of at least 1, or of at
least 0 for a level, a bit or a seed). A bool is neither a real number nor
a count.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# Construction-time tolerance for normalization, unitarity and hermiticity.
CONSTRUCTION_ATOL = 1e-12

# Uniforms drawn per vectorised step of sample_shots; bounds its memory only.
_SHOT_BLOCK = 1 << 20

# Rows of the marginal's (M, 2K) float view that born_distribution sums as one
# wide row. A row of 2K floats is too narrow for einsum's inner loop, which
# keeps one running sum per column, so the fold also bounds rounding: on the
# band of three off-extreme medium steps at N = 10^8 (atom (0.6, 0.8i), 527,840
# rows) a one-pass sum errs from a math.fsum of each column by 2.4e-14, the fold
# by 3.3e-16 (2.6e-15, 1.1e-16 at N = 10^6); 8 to 512 run at one speed.
_FOLD_ROWS = 32


def _frozen_complex(values) -> np.ndarray:
    """A read-only complex128 copy of ``values``."""
    try:
        arr = np.array(values, dtype=np.complex128)
    except OverflowError as exc:  # an int past the float range
        raise ValueError(f"entries must be finite: {exc}") from None
    arr.setflags(write=False)
    return arr


def check_real(name: str, value) -> float:
    """``value`` as a float; raise ValueError naming ``name`` unless it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be at most {sys.float_info.max:.4g} in magnitude, the largest float") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def check_positive(name: str, value) -> float:
    """``check_real``, and raise ValueError naming ``name`` unless the value is above 0."""
    x = check_real(name, value)
    if not x > 0:
        raise ValueError(f"{name} must be positive, got {x!r}")
    return x


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int; raise ValueError naming ``name`` unless it is an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _check_finite(arr: np.ndarray, what: str = "amplitudes") -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite (no NaN or Inf)")


@dataclass(frozen=True)
class SpaceLabel:
    """Ordered list of named subsystems; total dimension is their product."""

    subsystems: tuple[tuple[str, int], ...]
    # derived from ``subsystems`` once, at construction
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subs = tuple((str(name), check_count(f"dimension of {str(name)!r}", dim)) for name, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise ValueError("a space needs at least one subsystem")
        names = tuple(name for name, _ in subs)
        if len(set(names)) != len(names):
            raise ValueError(f"subsystem names must be unique, got {list(names)}")
        dims = tuple(dim for _, dim in subs)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))

    def index(self, name: str) -> int:
        for i, (sub, _) in enumerate(self.subsystems):
            if sub == name:
                return i
        raise ValueError(f"unknown subsystem {name!r}; have {self.names}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over a labeled space, in row-major subsystem order."""

    space: SpaceLabel
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_complex(self.amplitudes).reshape(-1)
        if amps.size != self.space.dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match space dimension {self.space.dim}"
            )
        _check_unit_norm(amps)
        object.__setattr__(self, "amplitudes", amps)


def _check_unit_norm(amps: np.ndarray) -> None:
    """Raise ValueError unless <psi|psi> is 1 within CONSTRUCTION_ATOL, naming any NaN or Inf."""
    norm2 = float(np.vdot(amps, amps).real)
    # a finite sum of squares has finite terms, so the amplitudes are
    # scanned for NaN and Inf only when the sum is not finite
    if not math.isfinite(norm2):
        _check_finite(amps)
        raise ValueError(f"amplitudes must be finite in squared norm, but <psi|psi> = {norm2!r}")
    if abs(norm2 - 1.0) > CONSTRUCTION_ATOL:
        raise ValueError(f"state must be normalized but <psi|psi> = {norm2!r}")


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense unitary matrix over a labeled space, checked at construction."""

    space: SpaceLabel
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_complex(self.matrix)
        dim = self.space.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {dim}")
        # A unitary's entries are at most 1 in modulus; bounding them rejects NaN
        # and Inf and keeps U^dag U from overflowing on entries near 1e300.
        largest = float(np.abs(mat).max())
        if not largest <= 2.0:
            _check_finite(mat, "matrix entries")
            raise ValueError(f"operator is not unitary: it has an entry of modulus {largest:.3e}")
        gram = mat.conj().T @ mat
        gram.flat[:: dim + 1] -= 1.0  # U^dag U - I
        dev = float(np.abs(gram).max())
        if not dev <= CONSTRUCTION_ATOL:
            raise ValueError(f"operator is not unitary: max |U^dag U - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.space.dim

    def apply(self, state: StateVector) -> StateVector:
        """The image state; raises ValueError if the operator changed its norm."""
        if state.space != self.space:
            raise ValueError("operator and state live on different spaces")
        return StateVector(self.space, self.matrix @ state.amplitudes)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        return Operator(self.space, self.matrix @ other.matrix)


def basis_state(space: SpaceLabel, occupancy: Sequence[int]) -> StateVector:
    """Product basis state with the given per-subsystem level indices."""
    occ = tuple(check_count("level", i, 0) for i in occupancy)
    if len(occ) != len(space.dims):
        raise ValueError("need one level index per subsystem")
    for level, dim in zip(occ, space.dims):
        if level >= dim:
            raise ValueError(f"level {level} out of range for dimension {dim}")
    amps = np.zeros(space.dim, dtype=np.complex128)
    flat = 0
    for level, dim in zip(occ, space.dims):
        flat = flat * dim + level
    amps[flat] = 1.0
    return StateVector(space, amps)


def band_rows(space: SpaceLabel, start: int, band: np.ndarray) -> tuple[int, np.ndarray]:
    """The leading-subsystem rows start, start + 1, ... of a state that is 0 elsewhere, for ``born_distribution``.

    ``band`` is checked by StateVector's norm rule and widened with zero rows
    to whole groups of _FOLD_ROWS rows (or to the last row), so the fold meets
    it as it meets the dense state's rows: the marginal has the same bits.
    Returns ``(first, rows)``, the rows read-only.
    """
    band = np.asarray(band, dtype=np.complex128)
    stop = check_count("start", start, 0) + len(band)
    shape = (space.dims[0], space.dim // space.dims[0])
    if band.shape[1:] != shape[1:] or stop > shape[0]:
        raise ValueError(f"band of shape {band.shape} from row {start} does not fit rows of shape {shape}")
    _check_unit_norm(band)
    first, end = start - start % _FOLD_ROWS, min(-(-stop // _FOLD_ROWS) * _FOLD_ROWS, shape[0])
    rows = np.zeros((end - first,) + band.shape[1:], dtype=np.complex128)
    rows[start - first : stop - first] = band
    rows.setflags(write=False)
    return first, rows


def embed(op: Operator, target: str, space: SpaceLabel) -> Operator:
    """Pad ``op``, which acts on the subsystem named ``target``, with identity on the rest of ``space``."""
    if not isinstance(op, Operator):
        raise TypeError(f"a gate must be a built Operator, got {type(op).__name__}")
    position = space.index(target)
    dims = space.dims
    if op.dim != dims[position]:
        raise ValueError(
            f"operator dimension {op.dim} does not match subsystem {target!r} of dimension {dims[position]}"
        )
    before, after = math.prod(dims[:position]), math.prod(dims[position + 1 :])
    # one broadcast product: entry [a, i, b, c, j, d] is op[i, j] * I[(a, b), (c, d)]
    identity = _padding_identity(before, after)
    big = op.matrix[None, :, None, None, :, None] * identity[:, None, :, :, None, :]
    big.setflags(write=False)
    return _padded_operator(space, big.reshape(space.dim, space.dim))


@functools.cache
def _padding_identity(before: int, after: int) -> np.ndarray:
    identity = np.eye(before * after)
    identity.setflags(write=False)
    return identity.reshape(before, after, before, after)


def _padded_operator(space: SpaceLabel, matrix: np.ndarray) -> Operator:
    """An Operator over ``embed``'s frozen padding of a checked operator, without re-checking it."""
    padded = object.__new__(Operator)
    vars(padded).update(space=space, matrix=matrix)
    return padded


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian matrix over a labeled space, checked and diagonalized once, at construction.

    ``eigenvalues`` w and the columns of ``eigenvectors`` v give H = v diag(w) v^dag;
    ``adjoint`` holds v^dag. Every array is read-only.
    """

    space: SpaceLabel
    matrix: np.ndarray
    # derived once, at construction: np.linalg.eigh of the checked matrix
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)
    adjoint: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _frozen_complex(self.matrix)
        dim = self.space.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {dim}")
        # a NaN entry would pass the Hermitian comparison below (nan > tol is False)
        _check_finite(mat, "generator entries")
        scale = max(1.0, float(np.max(np.abs(mat))))
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > CONSTRUCTION_ATOL * scale:
            raise ValueError(f"generator is not Hermitian: max |H - H^dag| = {dev:.3e}")
        w, v = np.linalg.eigh(mat)
        adjoint = v.conj().T
        for arr in (w, v, adjoint):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        object.__setattr__(self, "adjoint", adjoint)


def expm_hermitian(h: Hamiltonian, theta: float) -> Operator:
    """exp(-i * theta * H) on the Hamiltonian's space, from its stored eigendecomposition.

    ``theta`` carries the whole dimensionless evolution angle, so H should be
    supplied in dimensionless form.
    """
    if not isinstance(h, Hamiltonian):
        raise TypeError(f"a generator must be a built Hamiltonian, got {type(h).__name__}")
    theta = check_real("theta", theta)
    # theta * w past the float range gives NaN entries, which Operator rejects
    with np.errstate(over="ignore", invalid="ignore"):
        u = (h.eigenvectors * np.exp(-1j * theta * h.eigenvalues)) @ h.adjoint
    return Operator(h.space, u)


def born_distribution(state: StateVector, subsystems: Sequence[str]) -> dict:
    """Measurement probabilities over the product basis of the named subsystems.

    Unnamed subsystems are marginalized. Keys are level tuples in the
    requested order. The state has unit norm by construction, so the
    probabilities sum to 1 to rounding.
    """
    keep = [state.space.index(s) for s in subsystems]
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate subsystem in request")
    dims = state.space.dims
    kept_dims = [dims[i] for i in keep]
    drop = [i for i in range(len(dims)) if i not in keep]
    rows = getattr(state, "rows", None)
    # a state that holds ``rows`` (manybody.DickeState) holds all its weight on them
    amps = rows.reshape((-1, *dims[1:])) if rows is not None and 0 in drop else state.amplitudes.reshape(dims)
    # kept axes last, in the requested order: a view when they already are
    # (the photon marginal), so |a|^2 is summed in one pass with no
    # state-sized temporary
    rows = amps.transpose(drop + keep).reshape(-1, math.prod(kept_dims))
    parts = np.ascontiguousarray(rows).view(np.float64)
    n_rows, width = parts.shape
    folded = n_rows - n_rows % _FOLD_ROWS
    rest = parts[folded:]
    sums = np.einsum("mk,mk->k", rest, rest)
    if folded:
        # whole groups of _FOLD_ROWS rows are summed as single wide rows of a
        # view, then folded back to 2K; skipped for fewer rows, where the
        # empty pass would cost more than the sum (the 8-amplitude states)
        wide = parts[:folded].reshape(-1, _FOLD_ROWS * width)
        sums += np.einsum("ij,ij->j", wide, wide).reshape(_FOLD_ROWS, width).sum(axis=0)
    probs = sums[0::2] + sums[1::2]
    outcomes = itertools.product(*[range(d) for d in kept_dims])
    return {outcome: float(p) for outcome, p in zip(outcomes, probs)}


def _cumulative_table(dist: Mapping) -> tuple[list, np.ndarray]:
    """A table's outcomes and its cumulative sums before its last non-zero entry."""
    outcomes = list(dist.keys())
    p = np.array([float(dist[o]) for o in outcomes])
    if p.size == 0 or np.any(p < -1e-12) or not abs(p.sum() - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("malformed distribution: probabilities must be >= 0 and sum to 1")
    p = np.clip(p, 0.0, None)
    # Close the table at the last non-zero entry, so a rounding gap below 1
    # never falls to a trailing zero-probability outcome: every shot is below it.
    return outcomes, np.cumsum(p / p.sum())[: int(np.flatnonzero(p)[-1])]


def sample_shots(dists: Sequence[Mapping], shots: int, seed: int) -> list[dict]:
    """Draw ``shots`` outcomes from each probability table, reproducibly.

    Counter-based rule: the seed keys one Philox stream
    (``Generator(Philox(SeedSequence(seed)))``), and shot i of every table
    reads the i-th ``random()`` double of that stream against the table's
    cumulative sums. Shot i is a pure function of (seed, i), so a table's
    counts do not depend on the tables beside it, on evaluation order or on
    the block size used to bound memory, and the first k shots of a larger
    draw are exactly the k-shot draw. Every table is checked before the
    first draw. A call costs one pass over the stream plus O(E * shots),
    where E is the number of distinct cumulative sums over all its tables:
    the uniforms below each distinct sum are counted once, and every table
    reads its entries' counts from those. Returns one count dict per table,
    in order.
    """
    if isinstance(dists, Mapping) or not isinstance(dists, Sequence):
        raise TypeError(f"dists must be a sequence of probability tables, got {type(dists).__name__}")
    shots = check_count("shots", shots)
    seed = check_count("seed", seed, 0)
    tables = [_cumulative_table(dist) for dist in dists]
    # the same comparisons as one pass per table entry, so the same counts, bit for bit
    edges, edge_of_entry = np.unique(np.concatenate([np.empty(0), *(cdf for _, cdf in tables)]), return_inverse=True)
    below = np.zeros(len(edges), dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    for start in range(0, shots, _SHOT_BLOCK):
        u = rng.random(min(_SHOT_BLOCK, shots - start))
        for k, edge in enumerate(edges):
            below[k] += np.count_nonzero(u < edge)
    entries = np.split(below[edge_of_entry], np.cumsum([len(cdf) for _, cdf in tables[:-1]], dtype=int))
    results = []
    for (outcomes, _), counts in zip(tables, entries):
        totals = np.diff(counts, prepend=0, append=[shots] * (len(outcomes) - len(counts)))
        results.append({o: int(n) for o, n in zip(outcomes, totals)})
    return results
