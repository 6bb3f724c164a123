"""End-to-end two-qubit constant-vs-balanced discrimination protocol.

The pipeline follows the physical realization: both photons and the atomic
ensemble are Hadamard-rotated, a function-dependent oracle is applied (for
balanced functions: per-atom rotation, one medium traversal, then composite
photon rotations; for constant functions: identity or an atomic NOT), and a
final photon Hadamard maps the result onto a coincidence pattern.

A balanced oracle's photon rotations follow one per-photon rule: photon i
gets h'' when f depends on its input bit x_i and h' when it does not. Each
photon only learns whether f reads its own bit, which is why the two-bit
algorithm needs no entanglement (Collins, Kim and Holton, PRA 58, R1633,
1998). So a balanced f and its complement 1 - f share one oracle, built
from the same operation objects: f3/f4, f5/f6 and f7/f8 replay the same
sequence, and the eight catalog functions are five physical runs (the
algorithm neither can nor needs to tell f from its complement).

The protocol is one operation sequence, ``exact_operation_sequence``.
``run_protocol`` replays it with ``replay``, which takes any sequence, on
the compact (atom, photon1, photon2) space, where the atom slot holds the
shared single-atom state; the physical ensemble state is its N-fold
product, so the two agree up to a global phase and coincide exactly at the
collective extremes. Every sequence opens with the same three Hadamards,
and the balanced ones share the atom pulse and the medium step too; given
the trace replayed before it, ``run_protocol`` resumes after the prefix the
two sequences share, so a command that replays several functions replays
each distinct step once. The unreduced and symmetric-sector simulators in
``manybody`` replay the same sequence for cross-checks.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    PROTOCOL_SPACE,
    collective_extreme,
    is_quarter_turn,
    microwave_rotation,
    u_eff_exact,
    u_eff_paper,
)
from .manybody import AtomRotation, EnsembleEvolution, PhotonRotation
from .polarization import composite_h, embed_single, hadamard_variant, pattern_bits
from .qstate import StateVector, basis_state, born_distribution, check_count, check_real

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

# The fixed operations of every sequence, built once by their own
# constructors (and checked there); the operations are frozen and their
# matrices read-only, so every sequence shares them.
_H1 = hadamard_variant(1).matrix
_PRE_HADAMARDS = (AtomRotation(_H1), PhotonRotation(1, _H1), PhotonRotation(2, _H1))
_POST_HADAMARDS = _PRE_HADAMARDS[1:]
_ATOM_HADAMARD = AtomRotation(microwave_rotation(HADAMARD_PULSES[1]).matrix)
_ATOM_NOT = AtomRotation(microwave_rotation(NOT_PULSE).matrix)
# The closing rule, per photon: the table index whose entry differs from
# t[0] iff f depends on the photon's bit (the table is indexed 2 x1 + x2, and
# all six balanced 2-bit functions are affine), then the photon's (h', h'').
_CLOSING_RULE = tuple(
    (probe, tuple(PhotonRotation(photon, composite_h(kind).matrix) for kind in ("prime", "double_prime")))
    for photon, probe in ((1, 2), (2, 1))
)
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
        check_count("n_bits", self.n_bits)
        table = tuple(self.table)
        if len(table) != 2**self.n_bits:
            raise ValueError(f"table must have 2^{self.n_bits} entries")
        # checked before int(), which would take 1.9 to 1
        if any(b not in (0, 1) for b in table):
            raise ValueError(f"table entries must be bits, got {table!r}")
        table = tuple(int(b) for b in table)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "id", _CATALOG_IDS.get(table))

    @property
    def classification(self) -> str:
        ones = sum(self.table)
        if ones in (0, len(self.table)):
            return "constant"
        if 2 * ones == len(self.table):
            return "balanced"
        return "neither"


def table1_function(fid: str) -> BooleanFunction:
    if fid not in TABLE1_TABLES:
        raise ValueError(f"unknown function id {fid!r}; expected f1..f8")
    return BooleanFunction(2, TABLE1_TABLES[fid])


# The catalog, f1..f8, built and checked once; its functions are frozen.
_TABLE1_FUNCTIONS = tuple(map(table1_function, TABLE1_TABLES))


def table1_functions() -> tuple[BooleanFunction, ...]:
    return _TABLE1_FUNCTIONS


def enumerate_functions(n_bits: int) -> tuple[BooleanFunction, ...]:
    """All constant and balanced truth tables on n_bits inputs (n_bits <= 4)."""
    if check_count("n_bits", n_bits) > 4:
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


def build_oracle(f: BooleanFunction, theta: float) -> tuple:
    """Operation steps realizing the function oracle, with the medium angle ``theta``.

    Balanced (2-bit only): per-atom Hadamard, one medium traversal, then
    each photon's composite rotation by the closing rule. Constant: identity
    (all-zero function) or a per-atom NOT pulse (all-one function). No other
    classification is representable. The angle is checked for every
    function, though a constant one has no medium step.
    """
    theta = check_real("theta", theta)
    cls = f.classification
    if cls == "neither":
        raise ValueError("this realization only encodes constant or balanced functions")
    if cls == "constant":
        if f.table[0] == 0:
            return ()
        return (_ATOM_NOT,)
    if f.n_bits != 2:
        raise ValueError("composite rotations are defined for the balanced catalog functions f3..f8")
    t = f.table
    closing = tuple(rotations[t[0] != t[probe]] for probe, rotations in _CLOSING_RULE)
    return (_ATOM_HADAMARD, EnsembleEvolution(theta)) + closing


def exact_operation_sequence(f: BooleanFunction, theta: float) -> tuple:
    """The full protocol as one replayable operation list.

    Three Hadamards (atoms, photon 1, photon 2), the function oracle, then
    Hadamards on photon 1 and photon 2.
    """
    return _PRE_HADAMARDS + build_oracle(f, theta) + _POST_HADAMARDS


@dataclass(frozen=True)
class Outcome:
    pattern: tuple[int, int]
    classification: str
    function_pair: tuple[str, str] | None


def classify(pattern) -> Outcome:
    """Constant iff both photons arrive vertical; the pattern also names the pair."""
    key = pattern_bits(pattern)
    classification = "constant" if key == (1, 1) else "balanced"
    return Outcome(key, classification, PATTERN_TO_PAIR[key])


def is_deterministic(probability: float) -> bool:
    """Whether a verdict of this probability counts as deterministic."""
    return probability >= 1.0 - DETERMINISTIC_EPS


def top_pattern(dist: dict) -> tuple[tuple[int, int], float]:
    """The most probable pattern of a photon distribution, with its probability."""
    best = max(dist, key=dist.get)
    return best, dist[best]


@dataclass(frozen=True, eq=False)
class ReplaySteps:
    """One compact replay, step by step: what a later replay resumes from.

    ``states`` holds the state after each of ``ops``, the start first, and
    ``weights`` the last declared rewrite's weight at each of them.
    """

    mode: str
    ops: tuple
    states: tuple[StateVector, ...]
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ProtocolTrace:
    """Named intermediate states of one protocol run, in replay order.

    The atom subsystem of each state holds the shared single-atom vector;
    the primed intermediates are absent for constant functions, whose oracle
    involves no medium traversal. ``steps`` is the whole replay, which a
    later run resumes from.
    """

    states: Mapping[str, StateVector]
    post_selection_probability: float
    ensemble_evolution_calls: int
    steps: ReplaySteps = field(repr=False, compare=False)

    def distribution(self) -> dict:
        final = next(reversed(self.states.values()))
        return born_distribution(final, ("photon1", "photon2"))

    def pattern(self) -> tuple[tuple[int, int], float]:
        return top_pattern(self.distribution())


def replay(ops, mode: str, start: StateVector) -> tuple[list[StateVector], float]:
    """Replay ``ops`` on the compact space from ``start``.

    Returns the state after each op, ``start`` first, and the last declared
    rewrite's weight |Kv|^2 (1.0 if there was none). The medium step is the
    exact unitary or, in paper mode, the declared polarizer rewrite, which
    is fixed at the quarter turn; either needs the atoms at a collective
    extreme.
    """
    steps = replay_steps(ops, mode, start)
    return list(steps.states), steps.weights[-1]


def replay_steps(ops, mode: str, start: StateVector, after: ReplaySteps | None = None) -> ReplaySteps:
    """``replay``, step by step; with ``after``, resumed where ``ops`` leave ``after.ops``.

    ``after`` is a replay in the same mode. When it started from ``start``
    too, the replay takes its states and weights over the longest prefix the
    two sequences share and applies only the rest. Rotations match by
    identity (the protocol's are shared, frozen constants) and medium steps
    by angle, so every state is the same object, reached by the same
    arithmetic, as a fresh replay's.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    ops = tuple(ops)
    shared, states, weights = 0, [start], [1.0]
    if after is not None:
        if after.mode != mode:
            raise ValueError(f"a replay in {after.mode!r} mode cannot be resumed in {mode!r} mode")
        if after.states[0] is start:
            shared = next((k for k, (op, prior) in enumerate(zip(ops, after.ops)) if op != prior),
                          min(len(ops), len(after.ops)))
            states, weights = list(after.states[: shared + 1]), list(after.weights[: shared + 1])
    state, post_selection = states[-1], weights[-1]
    for op in ops[shared:]:
        if isinstance(op, AtomRotation):
            state = embed_single("atom", op.gate, PROTOCOL_SPACE).apply(state)
        elif isinstance(op, EnsembleEvolution):
            if collective_extreme(state.amplitudes) is None:
                raise ValueError(
                    "medium traversal reached with atoms away from the collective extremes "
                    "(protocol sequencing bug)"
                )
            if mode == "exact":
                state = u_eff_exact(op.theta).apply(state)
            elif not is_quarter_turn(op.theta):
                raise ValueError(f"the declared polarizer rewrite is fixed at theta = pi/2, got {op.theta!r}")
            else:
                result = u_eff_paper().apply(state)
                state = result.state
                post_selection = result.post_selection_probability
        elif isinstance(op, PhotonRotation):
            state = embed_single(f"photon{op.photon}", op.gate, PROTOCOL_SPACE).apply(state)
        else:
            raise TypeError(f"unknown operation {op!r}")
        states.append(state)
        weights.append(post_selection)
    return ReplaySteps(mode, ops, tuple(states), tuple(weights))


def run_protocol(f: BooleanFunction, mode: str, theta: float, after: ProtocolTrace | None = None) -> ProtocolTrace:
    """Replay ``exact_operation_sequence`` from every atom primed and name the trace's states.

    With ``after``, a trace run before in the same mode, the replay resumes
    after the prefix its sequence shares with that trace's (``replay_steps``).
    """
    ops = exact_operation_sequence(f, theta)
    balanced = f.classification == "balanced"
    if balanced and not is_quarter_turn(theta):
        raise ValueError("balanced functions require the medium angle theta = pi/2")
    steps = replay_steps(ops, mode, _PSI0, after.steps if after is not None else None)
    states = steps.states
    # states[k] follows the first k ops: three pre-Hadamards, the oracle (for
    # a balanced function: atom rotation, medium, two photon rotations), and
    # the two post-Hadamards.
    named = {"psi0": states[0], "psi1": states[3]}
    if balanced:
        named.update(psi1_prime=states[4], psi1_double_prime=states[5])
    named.update(psi2=states[-3], psi3=states[-1])
    medium_steps = sum(isinstance(op, EnsembleEvolution) for op in ops)
    return ProtocolTrace(MappingProxyType(named), steps.weights[-1], medium_steps, steps)


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
    unnormalised fast Walsh-Hadamard transform, one in-place butterfly pass per
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
        # a view: each pass writes its sums and differences back into amps
        pairs = amps.reshape(2**k, 2, -1)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    probs = (amps / 2**n) ** 2

    p_all_zero = float(probs[0])
    top_index = int(np.argmax(probs))
    top_pattern = tuple((top_index >> (n - 1 - i)) & 1 for i in range(n))
    if is_deterministic(p_all_zero):
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
