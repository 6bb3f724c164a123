import dataclasses
import itertools
import math

import numpy as np
import pytest
from helpers import equal_up_to_global_phase

from djensemble import protocol
from djensemble.ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    PROTOCOL_SPACE,
    microwave_rotation,
    u_eff_exact,
    u_eff_paper,
)
from djensemble.manybody import (
    AtomRotation,
    EnsembleEvolution,
    PhotonRotation,
    full_simulate_naive,
)
from djensemble.protocol import (
    BooleanFunction,
    build_oracle,
    classify,
    enumerate_functions,
    exact_operation_sequence,
    is_deterministic,
    reference_dj_circuit,
    replay,
    run_protocol,
    table1_function,
    table1_functions,
)
from djensemble.polarization import clicks_for_pattern, composite_h, hadamard_variant, half_wave
from djensemble.qstate import StateVector, basis_state, born_distribution, sample_shots

SQRT2 = math.sqrt(2.0)
THETA = math.pi / 2

TABLE1 = {
    "f1": (0, 0, 0, 0),
    "f2": (1, 1, 1, 1),
    "f3": (0, 0, 1, 1),
    "f4": (1, 1, 0, 0),
    "f5": (0, 1, 0, 1),
    "f6": (1, 0, 1, 0),
    "f7": (0, 1, 1, 0),
    "f8": (1, 0, 0, 1),
}

EXPECTED_PATTERNS = {
    "f1": (1, 1), "f2": (1, 1),
    "f3": (0, 1), "f4": (0, 1),
    "f5": (1, 0), "f6": (1, 0),
    "f7": (0, 0), "f8": (0, 0),
}


def state_from(atom, photon1, photon2):
    amps = np.kron(np.asarray(atom, dtype=complex), np.kron(photon1, photon2))
    return StateVector(PROTOCOL_SPACE, amps / np.linalg.norm(amps))


class TestBooleanFunction:
    @pytest.mark.parametrize("fid,table", sorted(TABLE1.items()))
    def test_catalog_bindings(self, fid, table):
        f = table1_function(fid)
        assert f.table == table
        assert f.classification == ("constant" if fid in ("f1", "f2") else "balanced")

    def test_neither_classification(self):
        assert BooleanFunction(2, (0, 0, 0, 1)).classification == "neither"

    def test_id_is_derived_from_table(self):
        assert BooleanFunction(2, (0, 0, 1, 1)).id == "f3"
        assert BooleanFunction(2, (0, 0, 0, 1)).id is None
        assert BooleanFunction(3, (0, 0, 1, 1) * 2).id is None
        with pytest.raises(TypeError):
            BooleanFunction(2, (0, 0, 0, 0), id="f2")

    @pytest.mark.parametrize("n_bits", [2.0, True, "2"])
    def test_non_integer_bit_count_rejected(self, n_bits):
        with pytest.raises(ValueError, match=f"^n_bits must be an integer, got {n_bits!r}$"):
            BooleanFunction(n_bits, (0, 0, 1, 1))

    @pytest.mark.parametrize("table", [(0, 0, 1, 1.9), (0, 0.5, 1, 1), (0, 0, 1, "1")], ids=["1.9", "0.5", "string"])
    def test_non_bit_entry_rejected(self, table):
        # int() would take 1.9 to 1, making this table f3
        with pytest.raises(ValueError, match="^table entries must be bits, got "):
            BooleanFunction(2, table)

    def test_any_iterable_of_bits_is_a_table(self):
        f = BooleanFunction(2, iter([np.int64(0), 0.0, True, 1]))
        assert f.table == (0, 0, 1, 1) and f.id == "f3"
        assert all(type(b) is int for b in f.table)

    def test_table_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            BooleanFunction(2, (0, 1))


class TestEnumeration:
    def test_two_bit_catalog_matches_table(self):
        functions = enumerate_functions(2)
        assert [f.id for f in functions] == [f"f{i}" for i in range(1, 9)]
        assert [f.table for f in functions] == [TABLE1[f"f{i}"] for i in range(1, 9)]

    def test_catalog_is_built_once(self):
        assert table1_functions() is table1_functions() is enumerate_functions(2)
        assert [f.table for f in table1_functions()] == [table1_function(f"f{i}").table for i in range(1, 9)]

    def test_one_bit_count(self):
        functions = enumerate_functions(1)
        assert len(functions) == 4
        assert sum(f.classification == "constant" for f in functions) == 2

    def test_three_bit_count(self):
        functions = enumerate_functions(3)
        assert len(functions) == 2 + math.comb(8, 4)

    def test_four_bit_count(self):
        assert len(enumerate_functions(4)) == 2 + math.comb(16, 8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_functions(5)

    @pytest.mark.parametrize(
        "n_bits,message",
        [(2.5, "^n_bits must be an integer, got 2.5$"), (True, "^n_bits must be an integer, got True$"),
         (0, "^n_bits must be at least 1, got 0$")],
        ids=["fraction", "bool", "zero"],
    )
    def test_bad_bit_count_is_named(self, n_bits, message):
        # 2.5 raised a TypeError from inside the enumeration
        with pytest.raises(ValueError, match=message):
            enumerate_functions(n_bits)


# The paper's composite rotations (photon1, photon2) for each balanced pair,
# written out as the reference the per-photon closing rule must reproduce.
PAPER_ASSIGNMENTS = {
    "f3": ("double_prime", "prime"),
    "f4": ("double_prime", "prime"),
    "f5": ("prime", "double_prime"),
    "f6": ("prime", "double_prime"),
    "f7": ("double_prime", "double_prime"),
    "f8": ("double_prime", "double_prime"),
}
KINDS = ("prime", "double_prime")


def closing_kinds(f):
    """The composite kinds (photon1, photon2) that close f's oracle, read from its matrices."""
    steps = build_oracle(f, THETA)[2:]
    assert [type(s) for s in steps] == [PhotonRotation, PhotonRotation]
    assert [s.photon for s in steps] == [1, 2]
    return tuple(next(k for k in KINDS if np.array_equal(s.matrix, composite_h(k).matrix)) for s in steps)


class TestOracleConstruction:
    def test_h_eq_assignments(self):
        assert closing_kinds(table1_function("f3")) == ("double_prime", "prime")
        assert closing_kinds(table1_function("f5")) == ("prime", "double_prime")
        assert closing_kinds(table1_function("f8")) == ("double_prime", "double_prime")

    @pytest.mark.parametrize("fid", sorted(PAPER_ASSIGNMENTS))
    def test_closing_rule_reproduces_the_paper_assignments(self, fid):
        assert closing_kinds(table1_function(fid)) == PAPER_ASSIGNMENTS[fid]

    def test_h_eq_rejects_constant(self):
        # a constant oracle has no closing rotations at all
        for fid in ("f1", "f2"):
            assert not any(isinstance(s, PhotonRotation) for s in build_oracle(table1_function(fid), THETA))

    def test_h_eq_binds_unlabeled_catalog_table(self):
        bare = BooleanFunction(2, (0, 0, 1, 1))  # built from the table, as f3's
        assert closing_kinds(bare) == ("double_prime", "prime")

    @pytest.mark.parametrize("table", [(0, 1), (0, 0, 0, 0, 1, 1, 1, 1), (0, 1, 1, 0, 1, 0, 0, 1)])
    def test_closing_rule_is_two_bit_only(self, table):
        f = BooleanFunction(len(table).bit_length() - 1, table)
        assert f.classification == "balanced"
        with pytest.raises(ValueError, match="^composite rotations are defined for the balanced catalog functions f3..f8$"):
            build_oracle(f, THETA)

    def test_identity_oracle(self):
        assert build_oracle(table1_function("f1"), THETA) == ()

    def test_not_oracle_flips_atoms_only(self):
        steps = build_oracle(table1_function("f2"), THETA)
        assert len(steps) == 1 and isinstance(steps[0], AtomRotation)
        flipped = steps[0].matrix @ (np.array([1.0, -1.0]) / SQRT2)
        np.testing.assert_allclose(np.abs(flipped), np.array([1.0, 1.0]) / SQRT2, atol=1e-12)

    def test_balanced_oracle_shape(self):
        steps = build_oracle(table1_function("f4"), THETA)
        kinds = [type(s) for s in steps]
        assert kinds == [AtomRotation, EnsembleEvolution, PhotonRotation, PhotonRotation]
        assert sum(isinstance(s, EnsembleEvolution) for s in steps) == 1

    def test_neither_rejected(self):
        with pytest.raises(ValueError, match="constant or balanced"):
            build_oracle(BooleanFunction(2, (0, 0, 0, 1)), THETA)


class TestSharedOperations:
    """The fixed steps of every sequence are built once, at import."""

    def shared(self):
        yield from protocol._PRE_HADAMARDS
        yield from protocol._POST_HADAMARDS
        yield protocol._ATOM_HADAMARD
        yield protocol._ATOM_NOT
        for _, rotations in protocol._CLOSING_RULE:
            yield from rotations

    def test_matrices_are_read_only_and_operations_frozen(self):
        for op in self.shared():
            assert not op.matrix.flags.writeable
            with pytest.raises(ValueError):
                op.matrix[0, 0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                op.matrix = np.eye(2)

    def test_matrices_equal_fresh_constructions(self):
        h1 = hadamard_variant(1).matrix
        for op in protocol._PRE_HADAMARDS + protocol._POST_HADAMARDS:
            assert np.array_equal(op.matrix, h1)
        assert np.array_equal(
            protocol._ATOM_HADAMARD.matrix, microwave_rotation(HADAMARD_PULSES[1]).matrix
        )
        assert np.array_equal(protocol._ATOM_NOT.matrix, microwave_rotation(NOT_PULSE).matrix)
        for photon, (_, rotations) in enumerate(protocol._CLOSING_RULE, 1):
            assert len(rotations) == len(KINDS)
            for kind, op in zip(KINDS, rotations):
                assert op.photon == photon
                assert np.array_equal(op.matrix, composite_h(kind).matrix)

    def test_sequences_share_the_fixed_steps(self):
        for f in table1_functions():
            ops = exact_operation_sequence(f, THETA)
            fixed = protocol._PRE_HADAMARDS + protocol._POST_HADAMARDS
            assert len(ops) >= 5 and all(a is b for a, b in zip(ops[:3] + ops[-2:], fixed))
            oracle = ops[3:-2]
            if f.classification == "balanced":
                kinds = PAPER_ASSIGNMENTS[f.id]
                (_, photon1), (_, photon2) = protocol._CLOSING_RULE
                assert oracle[0] is protocol._ATOM_HADAMARD
                assert oracle[1] == EnsembleEvolution(THETA)
                assert oracle[2] is photon1[KINDS.index(kinds[0])]
                assert oracle[3] is photon2[KINDS.index(kinds[1])]
            else:
                assert oracle == (() if f.id == "f1" else (protocol._ATOM_NOT,))


class TestPaperModeTraces:
    def test_initial_state(self):
        trace = run_protocol(table1_function("f3"), "paper", THETA)
        expected = state_from([0, 1], [1, 0], [1, 0])
        np.testing.assert_allclose(trace.states["psi0"].amplitudes, expected.amplitudes, atol=1e-15)

    def test_first_hadamard_layer(self):
        trace = run_protocol(table1_function("f3"), "paper", THETA)
        plus = np.array([1.0, 1.0]) / SQRT2
        expected = state_from([1, -1], plus, plus)  # atom written up to a sign
        equal, _ = equal_up_to_global_phase(trace.states["psi1"], expected, 1e-12)
        assert equal

    def test_atoms_prepared_at_plain_extreme(self):
        trace = run_protocol(table1_function("f3"), "paper", THETA)
        plus = np.array([1.0, 1.0]) / SQRT2
        expected = state_from([1, 0], plus, plus)
        equal, _ = equal_up_to_global_phase(trace.states["psi1_prime"], expected, 1e-12)
        assert equal

    def test_medium_output_shares_one_polarization(self):
        trace = run_protocol(table1_function("f3"), "paper", THETA)
        rotated = np.array([-1.0j, 1.0]) / SQRT2
        expected = state_from([1, 0], rotated, rotated)
        equal, _ = equal_up_to_global_phase(trace.states["psi1_double_prime"], expected, 1e-12)
        assert equal
        assert trace.post_selection_probability == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fid", ["f3", "f4", "f5", "f6", "f7", "f8"])
    def test_post_selection_is_the_maps_weight(self, fid):
        # about 1 - 1.8e-15 here, so a weight written as 1.0 shows
        trace = run_protocol(table1_function(fid), "paper", THETA)
        weight = u_eff_paper().apply(trace.states["psi1_prime"]).post_selection_probability
        assert trace.post_selection_probability == weight

    @pytest.mark.parametrize(
        "fid,p1,p2",
        [
            ("f3", (1, -1), (1, 1)),
            ("f4", (1, -1), (1, 1)),
            ("f5", (1, 1), (1, -1)),
            ("f6", (1, 1), (1, -1)),
            ("f7", (1, -1), (1, -1)),
            ("f8", (1, -1), (1, -1)),
        ],
    )
    def test_post_oracle_factorization(self, fid, p1, p2):
        trace = run_protocol(table1_function(fid), "paper", THETA)
        expected = state_from([1, 0], np.array(p1) / SQRT2, np.array(p2) / SQRT2)
        equal, _ = equal_up_to_global_phase(trace.states["psi2"], expected, 1e-12)
        assert equal

    @pytest.mark.parametrize("fid", sorted(EXPECTED_PATTERNS))
    def test_final_patterns(self, fid):
        trace = run_protocol(table1_function(fid), "paper", THETA)
        pattern, prob = trace.pattern()
        assert pattern == EXPECTED_PATTERNS[fid]
        assert prob >= 1.0 - 1e-9
        assert is_deterministic(prob)

    @pytest.mark.parametrize("fid", sorted(EXPECTED_PATTERNS))
    def test_classification_matches_truth(self, fid):
        f = table1_function(fid)
        trace = run_protocol(f, "paper", THETA)
        outcome = classify(trace.pattern()[0])
        assert outcome.classification == f.classification
        assert fid in outcome.function_pair

    def test_single_medium_traversal_for_balanced(self):
        for fid in ("f3", "f4", "f5", "f6", "f7", "f8"):
            trace = run_protocol(table1_function(fid), "paper", THETA)
            assert trace.ensemble_evolution_calls == 1

    def test_no_medium_traversal_for_constant(self):
        for fid in ("f1", "f2"):
            trace = run_protocol(table1_function(fid), "paper", THETA)
            assert trace.ensemble_evolution_calls == 0
            assert list(trace.states) == ["psi0", "psi1", "psi2", "psi3"]

    def test_wrong_angle_rejected_for_balanced(self):
        for mode in ("paper", "exact"):
            with pytest.raises(ValueError, match="^balanced functions require the medium angle theta = pi/2$"):
                run_protocol(table1_function("f3"), mode, 1.0)

    def test_constant_ignores_angle(self):
        trace = run_protocol(table1_function("f1"), "paper", 1.0)
        assert trace.pattern()[0] == (1, 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_protocol(table1_function("f1"), "classical", THETA)


class TestMediumAngle:
    """The protocol takes its medium angle as a float and checks it for every function.

    A constant function builds no medium step, so for f1 this check alone
    refuses a bad angle.
    """

    ENTRIES = {
        "run_protocol-exact": lambda f, theta: run_protocol(f, "exact", theta),
        "run_protocol-paper": lambda f, theta: run_protocol(f, "paper", theta),
        "exact_operation_sequence": exact_operation_sequence,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("fid", ["f1", "f3"])
    @pytest.mark.parametrize(
        "theta,message",
        [(math.nan, "^theta must be finite, got nan$"), (math.inf, "^theta must be finite, got inf$"),
         (-math.inf, "^theta must be finite, got -inf$"), (True, "^theta must be a real number, got True$"),
         ("1.5", "^theta must be a real number, got '1.5'$"), (None, "^theta must be a real number, got None$"),
         (1.5 + 0j, "^theta must be a real number, got \\(1.5\\+0j\\)$")],
        ids=["nan", "inf", "-inf", "bool", "string", "none", "complex"],
    )
    def test_bad_angle_is_named(self, entry, fid, theta, message):
        with pytest.raises(ValueError, match=message):
            self.ENTRIES[entry](table1_function(fid), theta)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, np.float64(7.0), 3])
    def test_any_finite_angle_builds_the_medium_step(self, theta):
        ops = exact_operation_sequence(table1_function("f3"), theta)
        assert ops[4] == EnsembleEvolution(float(theta))
        assert type(ops[4].theta) is float


class TestExactModeTraces:
    @pytest.mark.parametrize("fid", ["f1", "f2"])
    def test_constant_branch_is_mode_independent(self, fid):
        trace = run_protocol(table1_function(fid), "exact", THETA)
        pattern, prob = trace.pattern()
        assert pattern == (1, 1)
        assert prob >= 1.0 - 1e-9
        assert trace.ensemble_evolution_calls == 0

    def test_constant_branch_atom_state(self):
        plus = np.array([1.0, 1.0]) / SQRT2
        minus = np.array([1.0, -1.0]) / SQRT2
        vertical = np.array([0.0, 1.0])
        f1 = run_protocol(table1_function("f1"), "exact", THETA)
        equal, _ = equal_up_to_global_phase(f1.states["psi3"], state_from(minus, vertical, vertical), 1e-12)
        assert equal
        f2 = run_protocol(table1_function("f2"), "exact", THETA)
        equal, _ = equal_up_to_global_phase(f2.states["psi3"], state_from(plus, vertical, vertical), 1e-12)
        assert equal

    def test_medium_output_is_both_vertical(self):
        trace = run_protocol(table1_function("f3"), "exact", THETA)
        vertical = np.array([0.0, 1.0])
        expected = state_from([1, 0], vertical, vertical)
        equal, _ = equal_up_to_global_phase(trace.states["psi1_double_prime"], expected, 1e-12)
        assert equal

    @pytest.mark.parametrize("fid", ["f3", "f5", "f8"])
    def test_balanced_distribution_matches_naive_oracle(self, fid):
        f = table1_function(fid)
        trace = run_protocol(f, "exact", THETA)
        dist = trace.distribution()
        for n in (1, 2, 5, 10):
            naive = full_simulate_naive(n, (0.0, 1.0), exact_operation_sequence(f, THETA))
            oracle = born_distribution(naive, ("photon1", "photon2"))
            for key, value in oracle.items():
                assert dist[key] == pytest.approx(value, abs=1e-10)
        # reported, not asserted as a requirement: the exact unitary does not
        # reproduce the declared discrimination for balanced functions
        assert not is_deterministic(trace.pattern()[1])

    def test_post_selection_probability_is_one(self):
        trace = run_protocol(table1_function("f3"), "exact", THETA)
        assert trace.post_selection_probability == 1.0

    @pytest.mark.parametrize("fid", sorted(EXPECTED_PATTERNS))
    def test_trace_states_are_sequence_prefixes(self, fid):
        # at N = 1 the compact state is the physical state, so every recorded
        # state is the naive replay of a prefix of the operation sequence
        f = table1_function(fid)
        ops = exact_operation_sequence(f, THETA)
        trace = run_protocol(f, "exact", THETA)
        prefix = {"psi0": 0, "psi1": 3, "psi1_prime": 4, "psi1_double_prime": 5,
                  "psi2": len(ops) - 2, "psi3": len(ops)}
        assert len(trace.states) == (6 if f.classification == "balanced" else 4)
        for name, state in trace.states.items():
            naive = full_simulate_naive(1, (0.0, 1.0), ops[: prefix[name]])
            np.testing.assert_allclose(state.amplitudes, naive.amplitudes, atol=1e-12)


class TestReplay:
    """``replay`` takes any sequence, so its guards see inputs no catalog run makes."""

    START = basis_state(PROTOCOL_SPACE, (1, 0, 0))

    def test_start_first_and_no_weight_without_a_rewrite(self):
        states, weight = replay([], "paper", self.START)
        assert states == [self.START] and weight == 1.0

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_the_trace_names_states_of_the_replay(self, mode):
        f = table1_function("f5")
        trace = run_protocol(f, mode, THETA)
        states, weight = replay(exact_operation_sequence(f, THETA), mode, self.START)
        assert [s.amplitudes.tolist() for s in trace.states.values()] == [
            s.amplitudes.tolist() for s in (states[0], states[3], states[4], states[5], states[-3], states[-1])
        ]
        assert trace.post_selection_probability == weight

    def test_trace_states_are_read_only(self):
        trace = run_protocol(table1_function("f1"), "exact", THETA)
        with pytest.raises(TypeError):
            trace.states["psi3"] = trace.states["psi0"]

    def test_the_last_rewrite_weight_is_returned(self):
        # about 1 for the first rewrite and 4 for the second, on the first one's output rotated
        h1, turn = hadamard_variant(1).matrix, half_wave(0.3).matrix
        ops = [PhotonRotation(1, h1), PhotonRotation(2, h1), EnsembleEvolution(math.pi / 2),
               PhotonRotation(1, turn), PhotonRotation(2, turn), EnsembleEvolution(math.pi / 2)]
        states, weight = replay(ops, "paper", self.START)
        assert weight == u_eff_paper().apply(states[5]).post_selection_probability
        assert weight == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_unknown_operation_rejected(self, mode):
        with pytest.raises(TypeError, match="^unknown operation"):
            replay([PhotonRotation(1, hadamard_variant(1).matrix), object()], mode, self.START)

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_medium_off_the_extremes_rejected(self, mode):
        ops = [AtomRotation(hadamard_variant(1).matrix), EnsembleEvolution(math.pi / 2)]
        with pytest.raises(ValueError, match=r"^medium traversal reached .* \(protocol sequencing bug\)$"):
            replay(ops, mode, self.START)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^mode must be one of \('exact', 'paper'\), got 'classical'$"):
            replay([], "classical", self.START)

    @pytest.mark.parametrize("theta", [1.0, -math.pi / 2, math.pi / 2 + 1e-6, 5 * math.pi / 2])
    def test_paper_medium_only_at_the_quarter_turn(self, theta):
        ops = [EnsembleEvolution(theta)]
        with pytest.raises(ValueError, match=r"^the declared polarizer rewrite is fixed at theta = pi/2, got "):
            replay(ops, "paper", self.START)
        states, _ = replay(ops, "exact", self.START)
        np.testing.assert_array_equal(states[1].amplitudes, u_eff_exact(theta).apply(self.START).amplitudes)


class TestResume:
    """A run resumed after another's trace is the fresh run, from the states they share."""

    @staticmethod
    def assert_same_run(resumed, fresh):
        assert list(resumed.states) == list(fresh.states)
        for name, state in fresh.states.items():
            assert np.array_equal(resumed.states[name].amplitudes, state.amplitudes), name
        assert resumed.post_selection_probability == fresh.post_selection_probability
        assert resumed.ensemble_evolution_calls == fresh.ensemble_evolution_calls

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_every_ordered_catalog_pair_resumes_to_the_fresh_run(self, mode):
        for f, g in itertools.product(table1_functions(), repeat=2):
            before = run_protocol(f, mode, THETA)
            resumed = run_protocol(g, mode, THETA, after=before)
            self.assert_same_run(resumed, run_protocol(g, mode, THETA))
            # the opening Hadamards are shared by every pair, so psi1 is the earlier run's object
            assert resumed.states["psi1"] is before.states["psi1"], (f.id, g.id)

    @pytest.mark.parametrize("mode", protocol.MODES)
    def test_balanced_runs_share_the_medium_step(self, mode):
        f3 = run_protocol(table1_function("f3"), mode, THETA)
        for fid in ("f5", "f7"):
            resumed = run_protocol(table1_function(fid), mode, THETA, after=f3)
            # psi1_double_prime follows the medium step, psi2 the closing rotations
            assert resumed.states["psi1_double_prime"] is f3.states["psi1_double_prime"]
            assert resumed.states["psi2"] is not f3.states["psi2"]

    def test_another_medium_angle_is_not_shared(self):
        f3 = table1_function("f3")
        before = run_protocol(f3, "exact", THETA)
        resumed = run_protocol(f3, "exact", THETA + 1e-12, after=before)
        assert resumed.states["psi1_prime"] is before.states["psi1_prime"]
        assert resumed.states["psi1_double_prime"] is not before.states["psi1_double_prime"]
        self.assert_same_run(resumed, run_protocol(f3, "exact", THETA + 1e-12))

    @pytest.mark.parametrize("mode, other", [("exact", "paper"), ("paper", "exact")])
    def test_a_trace_of_the_other_mode_is_refused(self, mode, other):
        before = run_protocol(table1_function("f3"), other, THETA)
        with pytest.raises(ValueError, match=f"^a replay in '{other}' mode cannot be resumed in '{mode}' mode$"):
            run_protocol(table1_function("f5"), mode, THETA, after=before)

    def test_resume_data_stays_out_of_repr_and_comparison(self):
        trace = run_protocol(table1_function("f1"), "exact", THETA)
        assert "steps" not in repr(trace)
        clone = dataclasses.replace(trace, steps=run_protocol(table1_function("f2"), "paper", THETA).steps)
        assert clone == trace


class TestClassify:
    @pytest.mark.parametrize(
        "pattern,classification,pair",
        [
            ((1, 1), "constant", ("f1", "f2")),
            ((0, 1), "balanced", ("f3", "f4")),
            ((1, 0), "balanced", ("f5", "f6")),
            ((0, 0), "balanced", ("f7", "f8")),
        ],
    )
    def test_pattern_map(self, pattern, classification, pair):
        outcome = classify(pattern)
        assert outcome.classification == classification
        assert outcome.function_pair == pair

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            classify((2, 0))

    @pytest.mark.parametrize(
        "pattern,message",
        [((1.9, 1), "^pattern bit must be an integer, got 1.9$"),
         ((True, True), "^pattern bit must be an integer, got True$"),
         (("1", 1), "^pattern bit must be an integer, got '1'$"),
         ((-1, 0), "^pattern bit must be at least 0, got -1$"),
         ((0, 1, 1), r"^pattern must be two bits, got \(0, 1, 1\)$")],
        ids=["fraction", "bools", "string", "negative", "three-bits"],
    )
    def test_pattern_bits_are_integers(self, pattern, message):
        # (1.9, 1) and (True, True) read as constant, and (0, 1, 1) as balanced
        with pytest.raises(ValueError, match=message):
            classify(pattern)

    def test_numpy_integer_bits_accepted(self):
        assert classify((np.int64(0), np.int8(1))).function_pair == ("f3", "f4")

    def test_deterministic_within_one_part_in_a_billion(self):
        assert is_deterministic(1.0 - 0.9e-9)
        assert not is_deterministic(1.0 - 1.1e-9)


class TestDetection:
    """Seeded coincidences drawn from a run's distribution, as ``sample`` draws them."""

    def test_f7_coincidence_clicks(self):
        trace = run_protocol(table1_function("f7"), "paper", THETA)
        assert sample_shots([trace.distribution()], 5, seed=0)[0][(0, 0)] == 5
        assert clicks_for_pattern((0, 0)) == ("HD1", "HD2")

    def test_f1_coincidence_clicks(self):
        trace = run_protocol(table1_function("f1"), "exact", THETA)
        assert sample_shots([trace.distribution()], 1, seed=9)[0][(1, 1)] == 1
        assert clicks_for_pattern((1, 1)) == ("VD1", "VD2")


class TestReferenceCircuit:
    @pytest.mark.parametrize("fid", sorted(TABLE1))
    def test_table1_functions(self, fid):
        f = table1_function(fid)
        result = reference_dj_circuit(f)
        assert result.classification == f.classification
        assert result.deterministic
        assert result.classification_probability >= 1.0 - 1e-9
        assert result.oracle_calls == 1

    def test_constant_measures_all_zero(self):
        result = reference_dj_circuit(table1_function("f1"))
        assert result.top_pattern == (0, 0)
        assert result.top_probability >= 1.0 - 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_enumerated_functions(self, n):
        for f in enumerate_functions(n):
            result = reference_dj_circuit(f)
            assert result.classification == f.classification
            assert result.deterministic
            assert result.classification_probability >= 1.0 - 1e-9

    def test_three_bit_balanced_nonaffine(self):
        f = BooleanFunction(3, (0, 0, 0, 1, 0, 1, 1, 1))
        result = reference_dj_circuit(f)
        assert result.classification == "balanced"
        assert result.deterministic
        # the measurement pattern itself is spread even though the verdict is sharp
        assert result.top_probability < 0.9

    def test_neither_function_is_flagged(self):
        result = reference_dj_circuit(BooleanFunction(2, (0, 0, 0, 1)))
        assert not result.deterministic
        assert 0.0 < result.classification_probability < 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pattern_bits_are_big_endian(self, n):
        msb = BooleanFunction(n, [(x >> (n - 1)) & 1 for x in range(2**n)])
        lsb = BooleanFunction(n, [x & 1 for x in range(2**n)])
        for f, pattern in ((msb, (1,) + (0,) * (n - 1)), (lsb, (0,) * (n - 1) + (1,))):
            result = reference_dj_circuit(f)
            assert result.top_pattern == pattern
            assert result.top_probability == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense_hadamard_circuit(self, n):
        rng = np.random.default_rng(1000 + n)
        size = 2**n
        hadamard_n = np.ones((1, 1))
        for _ in range(n):
            hadamard_n = np.kron(hadamard_n, np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2)
        ones_counts = [0, size, size // 2, size // 2]
        neither = np.delete(np.arange(1, size), size // 2 - 1)  # not 0, size / 2 or size
        if neither.size:
            ones_counts += list(rng.choice(neither, 3))
        for ones in ones_counts:
            table = np.zeros(size, dtype=int)
            table[rng.permutation(size)[:ones]] = 1
            result = reference_dj_circuit(BooleanFunction(n, table))
            probs = np.abs(hadamard_n @ ((-1.0) ** table / 2 ** (n / 2))) ** 2
            p_all_zero = probs[0]
            assert result.top_probability == pytest.approx(probs.max(), abs=1e-12)
            assert result.classification_probability == pytest.approx(
                max(p_all_zero, 1.0 - p_all_zero), abs=1e-12
            )
            assert result.deterministic == (min(p_all_zero, 1.0 - p_all_zero) <= 1e-9)

    def test_every_small_function_matches_the_dense_hadamard_product(self):
        # the butterfly writes each pass back into its own array; every truth
        # table up to n = 3 and every enumerated one at n = 4, against the
        # dense product of n Hadamards, leaves each function's table as it was
        for n in range(1, 5):
            hadamard_n = np.ones((1, 1))
            for _ in range(n):
                hadamard_n = np.kron(hadamard_n, np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2)
            tables = itertools.product((0, 1), repeat=2**n) if n <= 3 else (f.table for f in enumerate_functions(4))
            for table in tables:
                f = BooleanFunction(n, table)
                result = reference_dj_circuit(f)
                assert f.table == tuple(table)
                probs = (hadamard_n @ ((-1.0) ** np.array(table) / 2 ** (n / 2))) ** 2
                assert abs(result.top_probability - probs.max()) <= 1e-15
                assert abs(probs[int("".join(map(str, result.top_pattern)), 2)] - probs.max()) <= 1e-15
                assert abs(result.classification_probability - max(probs[0], 1.0 - probs[0])) <= 1e-15

    def test_sixteen_bit_balanced_is_deterministic(self):
        table = np.zeros(2**16, dtype=int)
        table[np.random.default_rng(16).permutation(2**16)[: 2**15]] = 1
        result = reference_dj_circuit(BooleanFunction(16, table))
        assert result.classification == "balanced"
        assert result.deterministic
        assert result.oracle_calls == 1
