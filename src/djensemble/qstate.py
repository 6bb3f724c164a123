"""Dense complex linear algebra on small labeled tensor-product spaces.

Everything here is immutable: amplitude and matrix arrays are copied on
construction and marked read-only, so all operations are pure functions and
values can be shared freely across threads. One input is taken without a
copy: a C-contiguous complex128 ndarray that owns its data and is already
read-only. Views of it are read-only too and no writable owner stands
behind it, so a caller that froze its own array has handed it over and
sharing it is as safe as a copy; ``full_simulate_dicke`` passes its final
(N+1) x 4 array this way and saves a copy of it (64 MB at N = 10^6). Every
other input, a read-only view of a writable array included, is copied.
The finite and norm checks run on every construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

# Construction-time tolerance for normalization, unitarity and hermiticity.
CONSTRUCTION_ATOL = 1e-12

# Uniforms drawn per vectorised step of sample_shots; bounds its memory only.
_SHOT_BLOCK = 1 << 20

__all__ = [
    "CONSTRUCTION_ATOL",
    "SpaceLabel",
    "StateVector",
    "Operator",
    "PhaseMatch",
    "basis_state",
    "embed",
    "expm_hermitian",
    "born_distribution",
    "sample_shots",
    "equal_up_to_global_phase",
]


def _as_frozen_complex(values) -> np.ndarray:
    frozen_owner = (
        type(values) is np.ndarray
        and not values.flags.writeable
        and values.flags.owndata
        and values.flags.c_contiguous
        and values.dtype == np.complex128
    )
    arr = values if frozen_owner else np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("amplitudes must be finite (no NaN or Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpaceLabel:
    """Ordered list of named subsystems; total dimension is their product."""

    subsystems: tuple[tuple[str, int], ...]
    # derived from ``subsystems`` once, at construction
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subs = tuple((str(name), int(dim)) for name, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if not subs:
            raise ValueError("a space needs at least one subsystem")
        names = tuple(name for name, _ in subs)
        if len(set(names)) != len(names):
            raise ValueError(f"subsystem names must be unique, got {list(names)}")
        dims = tuple(dim for _, dim in subs)
        if any(dim < 1 for dim in dims):
            raise ValueError("subsystem dimensions must be positive")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))

    def index(self, name: str) -> int:
        for i, (sub, _) in enumerate(self.subsystems):
            if sub == name:
                return i
        raise ValueError(f"unknown subsystem {name!r}; have {self.names}")


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector over a labeled space, in row-major subsystem order."""

    space: SpaceLabel
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_frozen_complex(self.amplitudes).reshape(-1)
        if amps.size != self.space.dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match space dimension {self.space.dim}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError(f"state must be normalized but <psi|psi> = {norm2!r}")
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>; spaces must match."""
        if self.space != other.space:
            raise ValueError("states live on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Dense square matrix over a labeled space, optionally asserted unitary."""

    space: SpaceLabel
    matrix: np.ndarray
    unitary_claim: bool = False

    def __post_init__(self):
        mat = _as_frozen_complex(self.matrix)
        dim = self.space.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dimension {dim}")
        if self.unitary_claim:
            gram = mat.conj().T @ mat
            gram.flat[:: dim + 1] -= 1.0  # U^dag U - I
            dev = float(np.abs(gram).max())
            if dev > CONSTRUCTION_ATOL:
                raise ValueError(f"operator claimed unitary but max |U^dag U - I| = {dev:.3e}")
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
        return Operator(
            self.space,
            self.matrix @ other.matrix,
            unitary_claim=self.unitary_claim and other.unitary_claim,
        )


def basis_state(space: SpaceLabel, occupancy: Sequence[int]) -> StateVector:
    """Product basis state with the given per-subsystem level indices."""
    occ = tuple(int(i) for i in occupancy)
    if len(occ) != len(space.dims):
        raise ValueError("need one level index per subsystem")
    for level, dim in zip(occ, space.dims):
        if not 0 <= level < dim:
            raise ValueError(f"level {level} out of range for dimension {dim}")
    amps = np.zeros(space.dim, dtype=np.complex128)
    flat = 0
    for level, dim in zip(occ, space.dims):
        flat = flat * dim + level
    amps[flat] = 1.0
    return StateVector(space, amps)


def embed(op: Operator, targets, space: SpaceLabel) -> Operator:
    """Pad ``op`` with identity on every subsystem of ``space`` not named in ``targets``.

    ``targets`` names the subsystems (in the order the operator's own factors
    should map onto them); the result is reordered to ``space``'s layout.
    """
    if isinstance(targets, str):
        targets = (targets,)
    positions = [space.index(t) for t in targets]
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate target subsystem")
    dims = space.dims
    target_dim = math.prod(dims[p] for p in positions)
    if op.dim != target_dim:
        raise ValueError(
            f"operator dimension {op.dim} does not match target subsystems of dimension {target_dim}"
        )
    rest = [p for p in range(len(dims)) if p not in positions]
    # kron(op, I) as one broadcast product: entry [i, a, j, b] is op[i, j] * I[a, b]
    identity = np.eye(math.prod(dims[p] for p in rest))
    big = op.matrix[:, None, :, None] * identity[None, :, None, :]
    current = positions + rest
    axis_of = {sub: i for i, sub in enumerate(current)}
    perm = [axis_of[p] for p in range(len(dims))]
    n = len(dims)
    shaped = big.reshape([dims[s] for s in current] * 2)
    shaped = shaped.transpose(perm + [n + i for i in perm])
    return Operator(space, shaped.reshape(space.dim, space.dim), unitary_claim=op.unitary_claim)


def expm_hermitian(h: Operator, theta: float) -> Operator:
    """exp(-i * theta * H) for Hermitian H, via eigendecomposition.

    ``theta`` carries the whole dimensionless evolution angle, so H should be
    supplied in dimensionless form.
    """
    mat = h.matrix
    scale = max(1.0, float(np.max(np.abs(mat))))
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > CONSTRUCTION_ATOL * scale:
        raise ValueError(f"generator is not Hermitian: max |H - H^dag| = {dev:.3e}")
    w, v = np.linalg.eigh(mat)
    u = (v * np.exp(-1j * float(theta) * w)) @ v.conj().T
    return Operator(h.space, u, unitary_claim=True)


def born_distribution(state: StateVector, subsystems: Sequence[str] | None = None) -> dict:
    """Measurement probabilities over the product basis of the named subsystems.

    Unnamed subsystems are marginalized. Keys are level tuples, or plain ints
    when a single subsystem is requested. The state has unit norm by
    construction, so the probabilities sum to 1 to rounding.
    """
    names = state.space.names
    if subsystems is None:
        subsystems = names
    keep = [state.space.index(s) for s in subsystems]
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate subsystem in request")
    dims = state.space.dims
    kept_dims = [dims[i] for i in keep]
    drop = [i for i in range(len(dims)) if i not in keep]
    # kept axes last, in the requested order: a view when they already are
    # (the photon marginal), so |a|^2 is summed in one pass with no
    # state-sized temporary
    rows = state.amplitudes.reshape(dims).transpose(drop + keep).reshape(-1, math.prod(kept_dims))
    parts = np.ascontiguousarray(rows).view(np.float64)
    sums = np.einsum("mk,mk->k", parts, parts)
    probs = sums[0::2] + sums[1::2]
    outcomes = itertools.product(*[range(d) for d in kept_dims])
    if len(keep) == 1:
        outcomes = (outcome[0] for outcome in outcomes)
    return {outcome: float(p) for outcome, p in zip(outcomes, probs)}


def sample_shots(dist: Mapping, shots: int, seed: int) -> dict:
    """Draw ``shots`` outcomes from a probability table, reproducibly.

    Counter-based rule: the seed keys one Philox stream
    (``Generator(Philox(SeedSequence(seed)))``), and shot i reads the i-th
    ``random()`` double of that stream against the cumulative table. Shot i
    is a pure function of (seed, i), so the counts do not depend on
    evaluation order or on the block size used to bound memory, and the
    first k shots of a larger draw are exactly the k-shot draw.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    outcomes = list(dist.keys())
    p = np.array([float(dist[o]) for o in outcomes])
    if p.size == 0 or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("malformed distribution: probabilities must be >= 0 and sum to 1")
    p = np.clip(p, 0.0, None)
    cdf = np.cumsum(p / p.sum())
    # Close the table at the last non-zero entry, so a rounding gap below 1
    # never falls to a trailing zero-probability outcome.
    cdf[np.flatnonzero(p)[-1]:] = 1.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    shots = int(shots)
    totals = np.zeros(len(outcomes), dtype=np.int64)
    for start in range(0, shots, _SHOT_BLOCK):
        u = rng.random(min(_SHOT_BLOCK, shots - start))
        totals += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(outcomes))
    return {o: int(n) for o, n in zip(outcomes, totals)}


class PhaseMatch(NamedTuple):
    equal: bool
    phase: float | None


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float) -> PhaseMatch:
    """True iff |<a|b>| >= 1 - tol; also returns arg<a|b> on success."""
    if a.space.dims != b.space.dims:
        raise ValueError("dimension mismatch")
    ov = complex(np.vdot(a.amplitudes, b.amplitudes))
    if abs(ov) >= 1.0 - tol:
        return PhaseMatch(True, float(np.angle(ov)))
    return PhaseMatch(False, None)
