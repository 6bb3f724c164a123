"""End-to-end two-qubit constant-vs-balanced discrimination protocol.

The pipeline follows the physical realization: both photons and the atomic
ensemble are Hadamard-rotated, a function-dependent oracle is applied (for
balanced functions: per-atom rotation, one medium traversal, then composite
photon rotations; for constant functions: identity or an atomic NOT), and a
final photon Hadamard maps the result onto a coincidence pattern.

The protocol is one operation sequence, ``exact_operation_sequence``.
``run_protocol`` replays it on the compact (atom, photon1, photon2) space,
where the atom slot holds the shared single-atom state; the physical
ensemble state is its N-fold product, so the two agree up to a global phase
and coincide exactly at the collective extremes. The unreduced and
symmetric-sector simulators in ``manybody`` replay the same sequence for
cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    PROTOCOL_SPACE,
    EnsembleConfig,
    microwave_rotation,
    u_eff_exact,
    u_eff_paper,
)
from .manybody import AtomRotation, EnsembleEvolution, PhotonRotation
from .polarization import composite_h, embed_single, hadamard_variant
from .qstate import StateVector, basis_state, born_distribution

MODES = ("exact", "paper")

# A run or circuit is deterministic when its verdict has probability within
# this distance of 1.
DETERMINISTIC_EPS = 1e-9

TABLE1_TABLES = {
    "f1": (0, 0, 0, 0),
    "f2": (1, 1, 1, 1),
    "f3": (0, 0, 1, 1),
    "f4": (1, 1, 0, 0),
    "f5": (0, 1, 0, 1),
    "f6": (1, 0, 1, 0),
    "f7": (0, 1, 1, 0),
    "f8": (1, 0, 0, 1),
}
_CATALOG_IDS = {table: fid for fid, table in TABLE1_TABLES.items()}

PATTERN_TO_PAIR = {
    (1, 1): ("f1", "f2"),
    (0, 1): ("f3", "f4"),
    (1, 0): ("f5", "f6"),
    (0, 0): ("f7", "f8"),
}

# Composite photon rotations selecting each balanced pair: (photon1, photon2).
H_EQ_ASSIGNMENTS = {
    "f3": ("double_prime", "prime"),
    "f4": ("double_prime", "prime"),
    "f5": ("prime", "double_prime"),
    "f6": ("prime", "double_prime"),
    "f7": ("double_prime", "double_prime"),
    "f8": ("double_prime", "double_prime"),
}


# The fixed operations of every sequence, built once by their own
# constructors (and checked there); the operations are frozen and their
# matrices read-only, so every sequence shares them.
_H1 = hadamard_variant(1).matrix
_PRE_HADAMARDS = (AtomRotation(_H1), PhotonRotation(1, _H1), PhotonRotation(2, _H1))
_POST_HADAMARDS = (PhotonRotation(1, _H1), PhotonRotation(2, _H1))
_ATOM_HADAMARD = AtomRotation(microwave_rotation(HADAMARD_PULSES[1]).matrix)
_ATOM_NOT = AtomRotation(microwave_rotation(NOT_PULSE).matrix)
_COMPOSITE_ROTATIONS = {
    (photon, kind): PhotonRotation(photon, matrix)
    for kind, matrix in ((k, composite_h(k).matrix) for k in ("prime", "double_prime"))
    for photon in (1, 2)
}
# Every atom in the primed level, both photons horizontal.
_PSI0 = basis_state(PROTOCOL_SPACE, (1, 0, 0))


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of an n-bit binary-valued function.

    ``id`` is derived from the table: its Table 1 name (f1..f8), or None.
    """

    n_bits: int
    table: tuple[int, ...]
    id: str | None = field(init=False)

    def __post_init__(self):
        table = tuple(int(b) for b in self.table)
        object.__setattr__(self, "table", table)
        if self.n_bits < 1:
            raise ValueError("n_bits must be positive")
        if len(table) != 2**self.n_bits:
            raise ValueError(f"table must have 2^{self.n_bits} entries")
        if any(b not in (0, 1) for b in table):
            raise ValueError("table entries must be bits")
        object.__setattr__(self, "id", _CATALOG_IDS.get(table))

    @property
    def classification(self) -> str:
        ones = sum(self.table)
        if ones in (0, len(self.table)):
            return "constant"
        if 2 * ones == len(self.table):
            return "balanced"
        return "neither"

    def value(self, x: int) -> int:
        return self.table[x]


def table1_function(fid: str) -> BooleanFunction:
    if fid not in TABLE1_TABLES:
        raise ValueError(f"unknown function id {fid!r}; expected f1..f8")
    return BooleanFunction(2, TABLE1_TABLES[fid])


def table1_functions() -> tuple[BooleanFunction, ...]:
    return tuple(table1_function(f"f{i}") for i in range(1, 9))


def enumerate_functions(n_bits: int) -> tuple[BooleanFunction, ...]:
    """All constant and balanced truth tables on n_bits inputs (n_bits <= 4)."""
    if not 1 <= n_bits <= 4:
        raise ValueError("enumeration is guarded to 1 <= n_bits <= 4")
    if n_bits == 2:
        return table1_functions()
    size = 2**n_bits
    functions = [
        BooleanFunction(n_bits, (0,) * size),
        BooleanFunction(n_bits, (1,) * size),
    ]
    for ones in itertools.combinations(range(size), size // 2):
        table = tuple(1 if i in ones else 0 for i in range(size))
        functions.append(BooleanFunction(n_bits, table))
    return tuple(functions)


def h_eq_for(f: BooleanFunction) -> tuple[str, str]:
    """Composite-rotation assignment (photon1, photon2) for a balanced function."""
    if f.id not in H_EQ_ASSIGNMENTS:
        raise ValueError(
            "composite rotations are defined for the balanced catalog functions f3..f8"
        )
    return H_EQ_ASSIGNMENTS[f.id]


def build_oracle(f: BooleanFunction, config: EnsembleConfig) -> tuple:
    """Operation steps realizing the function oracle.

    Balanced: per-atom Hadamard, one medium traversal, then the composite
    photon rotations. Constant: identity (all-zero function) or a per-atom
    NOT pulse (all-one function). No other classification is representable.
    """
    cls = f.classification
    if cls == "neither":
        raise ValueError("this realization only encodes constant or balanced functions")
    if cls == "constant":
        if f.value(0) == 0:
            return ()
        return (_ATOM_NOT,)
    kinds = h_eq_for(f)
    return (
        _ATOM_HADAMARD,
        EnsembleEvolution(config.theta),
        _COMPOSITE_ROTATIONS[1, kinds[0]],
        _COMPOSITE_ROTATIONS[2, kinds[1]],
    )


def exact_operation_sequence(f: BooleanFunction, config: EnsembleConfig) -> tuple:
    """The full protocol as one replayable operation list.

    Three Hadamards (atoms, photon 1, photon 2), the function oracle, then
    Hadamards on photon 1 and photon 2.
    """
    return _PRE_HADAMARDS + build_oracle(f, config) + _POST_HADAMARDS


@dataclass(frozen=True)
class Outcome:
    pattern: tuple[int, int]
    classification: str
    function_pair: tuple[str, str] | None


def classify(pattern) -> Outcome:
    """Constant iff both photons arrive vertical; the pattern also names the pair."""
    key = (int(pattern[0]), int(pattern[1]))
    if key not in PATTERN_TO_PAIR:
        raise ValueError(f"pattern must be two bits, got {pattern!r}")
    classification = "constant" if key == (1, 1) else "balanced"
    return Outcome(key, classification, PATTERN_TO_PAIR[key])


@dataclass(frozen=True)
class ProtocolTrace:
    """Ordered intermediate states of one protocol run.

    The atom subsystem of each state holds the shared single-atom vector;
    the primed intermediates are absent for constant functions, whose oracle
    involves no medium traversal.
    """

    function: BooleanFunction
    mode: str
    psi0: StateVector
    psi1: StateVector
    psi1_prime: StateVector | None
    psi1_double_prime: StateVector | None
    psi2: StateVector
    psi3: StateVector
    post_selection_probability: float
    ensemble_evolution_calls: int

    def distribution(self) -> dict:
        return born_distribution(self.psi3, ("photon1", "photon2"))

    def pattern(self) -> tuple[tuple[int, int], float]:
        dist = self.distribution()
        best = max(dist, key=dist.get)
        return best, dist[best]

    def deterministic(self) -> bool:
        return self.pattern()[1] >= 1.0 - DETERMINISTIC_EPS

    def named_states(self):
        yield "psi0", self.psi0
        yield "psi1", self.psi1
        if self.psi1_prime is not None:
            yield "psi1_prime", self.psi1_prime
        if self.psi1_double_prime is not None:
            yield "psi1_double_prime", self.psi1_double_prime
        yield "psi2", self.psi2
        yield "psi3", self.psi3


def run_protocol(f: BooleanFunction, mode: str, config: EnsembleConfig) -> ProtocolTrace:
    """Replay ``exact_operation_sequence`` on the compact space and record the trace.

    The medium step is the exact unitary or, in paper mode, the declared
    polarizer rewrite; either needs the atoms at a collective extreme.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    balanced = f.classification == "balanced"
    if balanced and abs(config.theta - math.pi / 2) > 1e-9:
        raise ValueError("balanced functions require the medium angle theta = pi/2")
    ops = exact_operation_sequence(f, config)

    state = _PSI0
    states = [state]
    post_selection = 1.0
    evolution_calls = 0
    for op in ops:
        if isinstance(op, AtomRotation):
            state = embed_single("atom", op.matrix, PROTOCOL_SPACE).apply(state)
        elif isinstance(op, EnsembleEvolution):
            if min(np.linalg.norm(state.amplitudes.reshape(2, 4), axis=1)) > 1e-12:
                raise ValueError(
                    "medium traversal reached with atoms away from the collective extremes "
                    "(protocol sequencing bug)"
                )
            evolution_calls += 1
            if mode == "exact":
                state = u_eff_exact(config).apply(state)
            else:
                result = u_eff_paper(op.theta).apply(state)
                state = result.state
                post_selection = result.post_selection_probability
        elif isinstance(op, PhotonRotation):
            state = embed_single(f"photon{op.photon}", op.matrix, PROTOCOL_SPACE).apply(state)
        else:
            raise TypeError(f"unknown operation {op!r}")
        states.append(state)

    # states[k] follows the first k ops: three pre-Hadamards, the oracle (for
    # a balanced function: atom rotation, medium, two photon rotations), and
    # the two post-Hadamards.
    return ProtocolTrace(
        function=f,
        mode=mode,
        psi0=states[0],
        psi1=states[3],
        psi1_prime=states[4] if balanced else None,
        psi1_double_prime=states[5] if balanced else None,
        psi2=states[-3],
        psi3=states[-1],
        post_selection_probability=post_selection,
        ensemble_evolution_calls=evolution_calls,
    )


# ---------------------------------------------------------------------------
# Generic gate-model reference circuit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceCircuitResult:
    classification: str
    deterministic: bool
    classification_probability: float
    top_pattern: tuple[int, ...]
    top_probability: float
    oracle_calls: int


def reference_dj_circuit(f: BooleanFunction) -> ReferenceCircuitResult:
    """Textbook n-bit circuit: query qubits |0..0>, one oracle call, Hadamards.

    With the ancilla in |->, the oracle call is the phase (-1)^f(x) on the
    query register, so the ancilla is left out. The final Hadamards are an
    unnormalised fast Walsh-Hadamard transform, one butterfly pass per
    qubit; pattern bits are big-endian (the first bit is the most
    significant input bit).

    The function is constant iff every query qubit measures 0. That event has
    probability exactly 1 or 0 for constant/balanced inputs, so the verdict
    is deterministic even when the balanced measurement pattern itself is
    spread; other truth tables give a probabilistic verdict and are flagged.
    """
    n = f.n_bits
    amps = 1.0 - 2.0 * np.array(f.table, dtype=float)
    for k in range(n):
        pairs = amps.reshape(2**k, 2, -1)
        amps = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(-1)
    probs = (amps / 2**n) ** 2

    p_all_zero = float(probs[0])
    top_index = int(np.argmax(probs))
    top_pattern = tuple((top_index >> (n - 1 - i)) & 1 for i in range(n))
    if p_all_zero >= 1.0 - DETERMINISTIC_EPS:
        classification, p_class, deterministic = "constant", p_all_zero, True
    elif p_all_zero <= DETERMINISTIC_EPS:
        classification, p_class, deterministic = "balanced", 1.0 - p_all_zero, True
    else:
        classification = "constant" if p_all_zero >= 0.5 else "balanced"
        p_class = max(p_all_zero, 1.0 - p_all_zero)
        deterministic = False
    return ReferenceCircuitResult(
        classification=classification,
        deterministic=deterministic,
        classification_probability=p_class,
        top_pattern=top_pattern,
        top_probability=float(probs[top_index]),
        oracle_calls=1,
    )
