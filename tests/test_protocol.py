import dataclasses
import math

import numpy as np
import pytest

from djensemble import protocol
from djensemble.ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    PROTOCOL_SPACE,
    EnsembleConfig,
    microwave_rotation,
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
    h_eq_for,
    reference_dj_circuit,
    run_protocol,
    table1_function,
    table1_functions,
)
from djensemble.polarization import clicks_for_pattern, composite_h, hadamard_variant
from djensemble.qstate import StateVector, born_distribution, equal_up_to_global_phase, sample_shots

SQRT2 = math.sqrt(2.0)
CONFIG = EnsembleConfig.from_theta(math.pi / 2)

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

    def test_id_must_match_table(self):
        with pytest.raises(ValueError, match="does not match"):
            BooleanFunction(2, (0, 0, 0, 0), id="f2")

    def test_table_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            BooleanFunction(2, (0, 1))

    def test_value_indexing(self):
        f = table1_function("f3")
        assert [f.value(x) for x in range(4)] == [0, 0, 1, 1]


class TestEnumeration:
    def test_two_bit_catalog_matches_table(self):
        functions = enumerate_functions(2)
        assert [f.id for f in functions] == [f"f{i}" for i in range(1, 9)]
        assert [f.table for f in functions] == [TABLE1[f"f{i}"] for i in range(1, 9)]

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


class TestOracleConstruction:
    def test_h_eq_assignments(self):
        assert h_eq_for(table1_function("f3")) == ("double_prime", "prime")
        assert h_eq_for(table1_function("f5")) == ("prime", "double_prime")
        assert h_eq_for(table1_function("f8")) == ("double_prime", "double_prime")

    def test_h_eq_rejects_constant(self):
        with pytest.raises(ValueError):
            h_eq_for(table1_function("f1"))

    def test_h_eq_binds_unlabeled_catalog_table(self):
        bare = BooleanFunction(2, (0, 0, 1, 1))  # same table as f3, no id
        assert h_eq_for(bare) == ("double_prime", "prime")

    def test_identity_oracle(self):
        assert build_oracle(table1_function("f1"), CONFIG) == ()

    def test_not_oracle_flips_atoms_only(self):
        steps = build_oracle(table1_function("f2"), CONFIG)
        assert len(steps) == 1 and isinstance(steps[0], AtomRotation)
        flipped = steps[0].matrix @ (np.array([1.0, -1.0]) / SQRT2)
        np.testing.assert_allclose(np.abs(flipped), np.array([1.0, 1.0]) / SQRT2, atol=1e-12)

    def test_balanced_oracle_shape(self):
        steps = build_oracle(table1_function("f4"), CONFIG)
        kinds = [type(s) for s in steps]
        assert kinds == [AtomRotation, EnsembleEvolution, PhotonRotation, PhotonRotation]
        assert sum(isinstance(s, EnsembleEvolution) for s in steps) == 1

    def test_neither_rejected(self):
        with pytest.raises(ValueError, match="constant or balanced"):
            build_oracle(BooleanFunction(2, (0, 0, 0, 1)), CONFIG)


class TestSharedOperations:
    """The fixed steps of every sequence are built once, at import."""

    def shared(self):
        yield from protocol._PRE_HADAMARDS
        yield from protocol._POST_HADAMARDS
        yield protocol._ATOM_HADAMARD
        yield protocol._ATOM_NOT
        yield from protocol._COMPOSITE_ROTATIONS.values()

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
        for (photon, kind), op in protocol._COMPOSITE_ROTATIONS.items():
            assert op.photon == photon
            assert np.array_equal(op.matrix, composite_h(kind).matrix)

    def test_sequences_share_the_fixed_steps(self):
        for f in table1_functions():
            ops = exact_operation_sequence(f, CONFIG)
            fixed = protocol._PRE_HADAMARDS + protocol._POST_HADAMARDS
            assert len(ops) >= 5 and all(a is b for a, b in zip(ops[:3] + ops[-2:], fixed))
            oracle = ops[3:-2]
            if f.classification == "balanced":
                kinds = h_eq_for(f)
                assert oracle[0] is protocol._ATOM_HADAMARD
                assert oracle[1] == EnsembleEvolution(CONFIG.theta)
                assert oracle[2] is protocol._COMPOSITE_ROTATIONS[1, kinds[0]]
                assert oracle[3] is protocol._COMPOSITE_ROTATIONS[2, kinds[1]]
            else:
                assert oracle == (() if f.id == "f1" else (protocol._ATOM_NOT,))


class TestPaperModeTraces:
    def test_initial_state(self):
        trace = run_protocol(table1_function("f3"), "paper", CONFIG)
        expected = state_from([0, 1], [1, 0], [1, 0])
        np.testing.assert_allclose(trace.psi0.amplitudes, expected.amplitudes, atol=1e-15)

    def test_first_hadamard_layer(self):
        trace = run_protocol(table1_function("f3"), "paper", CONFIG)
        plus = np.array([1.0, 1.0]) / SQRT2
        expected = state_from([1, -1], plus, plus)  # atom written up to a sign
        equal, _ = equal_up_to_global_phase(trace.psi1, expected, 1e-12)
        assert equal

    def test_atoms_prepared_at_plain_extreme(self):
        trace = run_protocol(table1_function("f3"), "paper", CONFIG)
        plus = np.array([1.0, 1.0]) / SQRT2
        expected = state_from([1, 0], plus, plus)
        equal, _ = equal_up_to_global_phase(trace.psi1_prime, expected, 1e-12)
        assert equal

    def test_medium_output_shares_one_polarization(self):
        trace = run_protocol(table1_function("f3"), "paper", CONFIG)
        rotated = np.array([-1.0j, 1.0]) / SQRT2
        expected = state_from([1, 0], rotated, rotated)
        equal, _ = equal_up_to_global_phase(trace.psi1_double_prime, expected, 1e-12)
        assert equal
        assert trace.post_selection_probability == pytest.approx(1.0, abs=1e-12)

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
        trace = run_protocol(table1_function(fid), "paper", CONFIG)
        expected = state_from([1, 0], np.array(p1) / SQRT2, np.array(p2) / SQRT2)
        equal, _ = equal_up_to_global_phase(trace.psi2, expected, 1e-12)
        assert equal

    @pytest.mark.parametrize("fid", sorted(EXPECTED_PATTERNS))
    def test_final_patterns(self, fid):
        trace = run_protocol(table1_function(fid), "paper", CONFIG)
        pattern, prob = trace.pattern()
        assert pattern == EXPECTED_PATTERNS[fid]
        assert prob >= 1.0 - 1e-9
        assert trace.deterministic()

    @pytest.mark.parametrize("fid", sorted(EXPECTED_PATTERNS))
    def test_classification_matches_truth(self, fid):
        f = table1_function(fid)
        trace = run_protocol(f, "paper", CONFIG)
        outcome = classify(trace.pattern()[0])
        assert outcome.classification == f.classification
        assert fid in outcome.function_pair

    def test_single_medium_traversal_for_balanced(self):
        for fid in ("f3", "f4", "f5", "f6", "f7", "f8"):
            trace = run_protocol(table1_function(fid), "paper", CONFIG)
            assert trace.ensemble_evolution_calls == 1

    def test_no_medium_traversal_for_constant(self):
        for fid in ("f1", "f2"):
            trace = run_protocol(table1_function(fid), "paper", CONFIG)
            assert trace.ensemble_evolution_calls == 0
            assert trace.psi1_prime is None and trace.psi1_double_prime is None

    def test_wrong_angle_rejected_for_balanced(self):
        with pytest.raises(ValueError, match="pi/2"):
            run_protocol(table1_function("f3"), "paper", EnsembleConfig.from_theta(1.0))

    def test_constant_ignores_angle(self):
        trace = run_protocol(table1_function("f1"), "paper", EnsembleConfig.from_theta(1.0))
        assert trace.pattern()[0] == (1, 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_protocol(table1_function("f1"), "classical", CONFIG)


class TestExactModeTraces:
    @pytest.mark.parametrize("fid", ["f1", "f2"])
    def test_constant_branch_is_mode_independent(self, fid):
        trace = run_protocol(table1_function(fid), "exact", CONFIG)
        pattern, prob = trace.pattern()
        assert pattern == (1, 1)
        assert prob >= 1.0 - 1e-9
        assert trace.ensemble_evolution_calls == 0

    def test_constant_branch_atom_state(self):
        plus = np.array([1.0, 1.0]) / SQRT2
        minus = np.array([1.0, -1.0]) / SQRT2
        vertical = np.array([0.0, 1.0])
        f1 = run_protocol(table1_function("f1"), "exact", CONFIG)
        equal, _ = equal_up_to_global_phase(f1.psi3, state_from(minus, vertical, vertical), 1e-12)
        assert equal
        f2 = run_protocol(table1_function("f2"), "exact", CONFIG)
        equal, _ = equal_up_to_global_phase(f2.psi3, state_from(plus, vertical, vertical), 1e-12)
        assert equal

    def test_medium_output_is_both_vertical(self):
        trace = run_protocol(table1_function("f3"), "exact", CONFIG)
        vertical = np.array([0.0, 1.0])
        expected = state_from([1, 0], vertical, vertical)
        equal, _ = equal_up_to_global_phase(trace.psi1_double_prime, expected, 1e-12)
        assert equal

    @pytest.mark.parametrize("fid", ["f3", "f5", "f8"])
    def test_balanced_distribution_matches_naive_oracle(self, fid):
        f = table1_function(fid)
        trace = run_protocol(f, "exact", CONFIG)
        dist = trace.distribution()
        for n in (1, 2, 5, 10):
            naive = full_simulate_naive(n, (0.0, 1.0), exact_operation_sequence(f, CONFIG))
            oracle = born_distribution(naive, ("photon1", "photon2"))
            for key, value in oracle.items():
                assert dist[key] == pytest.approx(value, abs=1e-10)
        # reported, not asserted as a requirement: the exact unitary does not
        # reproduce the declared discrimination for balanced functions
        assert not trace.deterministic()

    def test_post_selection_probability_is_one(self):
        trace = run_protocol(table1_function("f3"), "exact", CONFIG)
        assert trace.post_selection_probability == 1.0

    @pytest.mark.parametrize("fid", sorted(EXPECTED_PATTERNS))
    def test_trace_states_are_sequence_prefixes(self, fid):
        # at N = 1 the compact state is the physical state, so every recorded
        # state is the naive replay of a prefix of the operation sequence
        f = table1_function(fid)
        ops = exact_operation_sequence(f, CONFIG)
        trace = run_protocol(f, "exact", CONFIG)
        prefix = {"psi0": 0, "psi1": 3, "psi1_prime": 4, "psi1_double_prime": 5,
                  "psi2": len(ops) - 2, "psi3": len(ops)}
        names = [name for name, _ in trace.named_states()]
        assert len(names) == (6 if f.classification == "balanced" else 4)
        for name, state in trace.named_states():
            naive = full_simulate_naive(1, (0.0, 1.0), ops[: prefix[name]])
            np.testing.assert_allclose(state.amplitudes, naive.amplitudes, atol=1e-12)


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


class TestDetection:
    """Seeded coincidences drawn from a run's distribution, as ``sample`` draws them."""

    def test_f7_coincidence_clicks(self):
        trace = run_protocol(table1_function("f7"), "paper", CONFIG)
        assert sample_shots(trace.distribution(), 5, seed=0)[(0, 0)] == 5
        assert clicks_for_pattern((0, 0)) == ("HD1", "HD2")

    def test_f1_coincidence_clicks(self):
        trace = run_protocol(table1_function("f1"), "exact", CONFIG)
        assert sample_shots(trace.distribution(), 1, seed=9)[(1, 1)] == 1
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

    def test_sixteen_bit_balanced_is_deterministic(self):
        table = np.zeros(2**16, dtype=int)
        table[np.random.default_rng(16).permutation(2**16)[: 2**15]] = 1
        result = reference_dj_circuit(BooleanFunction(16, table))
        assert result.classification == "balanced"
        assert result.deterministic
        assert result.oracle_calls == 1
