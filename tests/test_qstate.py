import math
import tracemalloc

import numpy as np
import pytest
from helpers import equal_up_to_global_phase

from djensemble.qstate import (
    _SHOT_BLOCK,
    Operator,
    SpaceLabel,
    StateVector,
    basis_state,
    born_distribution,
    embed,
    expm_hermitian,
    sample_shots,
)

QUBIT_A = SpaceLabel((("a", 2),))


def random_state(space, rng):
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(space, amps / np.linalg.norm(amps))


class TestSpaceLabel:
    def test_dims_and_index(self):
        space = SpaceLabel((("atom", 2), ("photon1", 2), ("photon2", 2)))
        assert space.dim == 8
        assert space.names == ("atom", "photon1", "photon2")
        assert space.index("photon2") == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SpaceLabel((("a", 2), ("a", 2)))

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            SpaceLabel((("a", 0),))

    def test_derived_attributes_are_kept_and_not_compared(self):
        space = SpaceLabel((("a", 2), ("b", 3)))
        assert space.dims is space.dims and space.names is space.names
        assert (space.names, space.dims, space.dim) == (("a", "b"), (2, 3), 6)
        twin = SpaceLabel([["a", 2.0], ["b", 3]])
        assert twin == space and hash(twin) == hash(space)
        assert repr(space) == "SpaceLabel(subsystems=(('a', 2), ('b', 3)))"


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(QUBIT_A, np.array([1.0, 1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(QUBIT_A, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "amps",
        [[np.nan, 0.0], [np.inf, 0.0], [0.6, complex(0.0, -np.inf)], [np.nan, np.inf]],
        ids=["nan", "inf", "imaginary-inf", "nan-and-inf"],
    )
    def test_nan_or_inf_gives_the_finite_message(self, amps):
        with pytest.raises(ValueError, match=r"^amplitudes must be finite \(no NaN or Inf\)$"):
            StateVector(QUBIT_A, np.array(amps))

    def test_overflowing_square_gives_a_finite_message(self):
        # every amplitude is finite, but the squared norm is not
        with pytest.raises(ValueError, match="must be finite in squared norm.*inf"):
            StateVector(QUBIT_A, np.array([1e200, 0.0]))

    @pytest.mark.parametrize("amps", [[3.0, 4.0], [1e-200, 0.0], [0.0, 0.0]], ids=["large", "tiny", "zero"])
    def test_unnormalized_finite_vector_gives_the_norm_message(self, amps):
        with pytest.raises(ValueError, match="^state must be normalized"):
            StateVector(QUBIT_A, np.array(amps))

    def test_finite_amplitudes_are_not_scanned(self, monkeypatch):
        from djensemble import qstate

        def scan(arr):
            raise AssertionError("a finite squared norm already shows finite amplitudes")

        monkeypatch.setattr(qstate, "_check_finite", scan)
        assert StateVector(QUBIT_A, np.array([0.6, 0.8j])).amplitudes[1] == 0.8j

    def test_amplitudes_are_read_only(self):
        state = basis_state(QUBIT_A, (0,))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_writable_input_is_copied(self):
        amps = np.array([1.0, 0.0], dtype=np.complex128)
        state = StateVector(QUBIT_A, amps)
        amps[0] = 0.0
        assert state.amplitudes[0] == 1.0

    def test_read_only_view_of_writable_owner_is_copied(self):
        owner = np.array([1.0, 0.0], dtype=np.complex128)
        view = owner.view()
        view.setflags(write=False)
        state = StateVector(QUBIT_A, view)
        owner[0] = 0.0
        assert state.amplitudes[0] == 1.0

    def test_frozen_owner_is_taken_without_a_copy(self):
        amps = np.array([0.6, 0.8j], dtype=np.complex128)
        amps.setflags(write=False)
        assert np.shares_memory(StateVector(QUBIT_A, amps).amplitudes, amps)

    def test_frozen_owner_is_still_checked(self):
        for amps, message in (([np.nan, 0.0], "finite"), ([1.0, 1.0], "normalized")):
            frozen = np.array(amps, dtype=np.complex128)
            frozen.setflags(write=False)
            with pytest.raises(ValueError, match=message):
                StateVector(QUBIT_A, frozen)


class TestOperator:
    def test_unitary_claim_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            Operator(QUBIT_A, np.array([[1.0, 0.0], [0.0, 2.0]]), unitary_claim=True)

    def test_dimension_must_match_space(self):
        with pytest.raises(ValueError, match="shape"):
            Operator(QUBIT_A, np.eye(3))

    def test_norm_changing_apply_raises(self):
        # states have unit norm by construction, so an operator that changes
        # the norm cannot produce one
        with pytest.raises(ValueError, match="normalized"):
            Operator(QUBIT_A, 2.0 * np.eye(2)).apply(basis_state(QUBIT_A, (0,)))


class TestEmbed:
    SPACE = SpaceLabel((("atom", 2), ("photon1", 2), ("photon2", 2)))

    def test_single_target_flip(self):
        x = Operator(SpaceLabel((("q", 2),)), np.array([[0.0, 1.0], [1.0, 0.0]]), unitary_claim=True)
        flipped = embed(x, "photon2", self.SPACE).apply(basis_state(self.SPACE, (0, 0, 0)))
        np.testing.assert_array_equal(flipped.amplitudes, basis_state(self.SPACE, (0, 0, 1)).amplitudes)

    def test_identity_embeds_to_identity(self):
        ident = Operator(SpaceLabel((("q", 2),)), np.eye(2), unitary_claim=True)
        np.testing.assert_array_equal(embed(ident, "photon1", self.SPACE).matrix, np.eye(8))

    def test_embed_matches_manual_kron(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op = Operator(SpaceLabel((("q", 2),)), m)
        embedded = embed(op, "photon1", self.SPACE).matrix
        np.testing.assert_allclose(embedded, np.kron(np.eye(2), np.kron(m, np.eye(2))), atol=1e-15)

    def test_padding_equals_kron_then_transpose(self):
        # every target of a 2 x 3 x 2 space
        space = SpaceLabel((("a", 2), ("b", 3), ("c", 2)))
        rng = np.random.default_rng(13)
        n = len(space.dims)
        for target in space.names:
            p = space.index(target)
            rest = [q for q in range(n) if q != p]
            k = space.dims[p]
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            op = Operator(SpaceLabel((("t", k),)), m)
            order = [p] + rest
            big = np.kron(m, np.eye(math.prod(space.dims[q] for q in rest)))
            back = [order.index(q) for q in range(n)]
            reference = (
                big.reshape([space.dims[q] for q in order] * 2)
                .transpose(back + [n + i for i in back])
                .reshape(space.dim, space.dim)
            )
            assert np.array_equal(embed(op, target, space).matrix, reference), target

    def test_unknown_subsystem(self):
        op = Operator(SpaceLabel((("q", 2),)), np.eye(2))
        with pytest.raises(ValueError, match="unknown subsystem"):
            embed(op, "nope", self.SPACE)

    def test_dimension_mismatch(self):
        op = Operator(SpaceLabel((("q", 3),)), np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            embed(op, "photon1", self.SPACE)


class TestExpmHermitian:
    def test_diagonal_projector(self):
        h = Operator(QUBIT_A, np.diag([1.0, 0.0]))
        u = expm_hermitian(h, math.pi / 2).matrix
        np.testing.assert_allclose(u, np.diag([-1.0j, 1.0]), atol=1e-15)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = Operator(SpaceLabel((("s", 4),)), m + m.conj().T)
        np.testing.assert_allclose(expm_hermitian(h, 0.0).matrix, np.eye(4), atol=1e-14)

    def test_group_property(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = Operator(SpaceLabel((("s", 3),)), m + m.conj().T)
            t1, t2 = rng.uniform(-3, 3, size=2)
            split = expm_hermitian(h, t1).matrix @ expm_hermitian(h, t2).matrix
            joint = expm_hermitian(h, t1 + t2).matrix
            np.testing.assert_allclose(split, joint, atol=1e-12)

    def test_microwave_generator_at_zero_phase(self):
        # drive generator at zero field phase, quarter pulse area
        h = Operator(QUBIT_A, -np.array([[0.0, 1.0], [1.0, 0.0]]))
        u = expm_hermitian(h, math.pi / 4).matrix
        h2 = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(u, h2, atol=1e-14)

    def test_real_generator_matches_complex_route(self):
        # a real symmetric generator takes the real eigendecomposition; a
        # diagonal phase conjugation moves it to the complex one
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6))
        space = SpaceLabel((("s", 6),))
        p = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, size=6)))
        real = expm_hermitian(Operator(space, m + m.T), 0.7).matrix
        cplx = expm_hermitian(Operator(space, p @ (m + m.T) @ p.conj().T), 0.7).matrix
        np.testing.assert_allclose(real, p.conj().T @ cplx @ p, atol=1e-13)

    def test_non_hermitian_rejected(self):
        h = Operator(QUBIT_A, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            expm_hermitian(h, 1.0)

    def test_result_is_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = Operator(SpaceLabel((("s", 5),)), m + m.conj().T)
            u = expm_hermitian(h, rng.uniform(-10, 10)).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


class TestBornDistribution:
    def test_equal_superposition(self):
        state = StateVector(QUBIT_A, np.array([1.0, 1.0]) / math.sqrt(2.0))
        dist = born_distribution(state, ("a",))
        assert dist == pytest.approx({(0,): 0.5, (1,): 0.5})

    def test_joint_basis_state(self):
        space = SpaceLabel((("photon1", 2), ("photon2", 2)))
        dist = born_distribution(basis_state(space, (1, 1)), space.names)
        assert dist[(1, 1)] == pytest.approx(1.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_sums_to_one_for_random_states(self):
        rng = np.random.default_rng(9)
        space = SpaceLabel((("a", 2), ("b", 3)))
        for _ in range(20):
            dist = born_distribution(random_state(space, rng), space.names)
            assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_marginal_subsystem(self):
        space = SpaceLabel((("a", 2), ("b", 2)))
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        amps = np.kron(plus, [1.0, 0.0])
        dist = born_distribution(StateVector(space, amps), ("a",))
        assert dist == pytest.approx({(0,): 0.5, (1,): 0.5})

    def test_subsystem_order_respected(self):
        space = SpaceLabel((("a", 2), ("b", 2)))
        amps = np.kron([1.0, 0.0], [0.0, 1.0])  # a=0, b=1
        dist = born_distribution(StateVector(space, amps), ("b", "a"))
        assert dist[(1, 0)] == pytest.approx(1.0)

    @pytest.mark.parametrize("names", [("a",), ("b",), ("c",), ("c", "a"), ("b", "c"), ("c", "a", "b")])
    def test_marginal_matches_squared_amplitudes(self, names):
        space = SpaceLabel((("a", 2), ("b", 3), ("c", 2)))
        state = random_state(space, np.random.default_rng(10))
        probs = (np.abs(state.amplitudes) ** 2).reshape(space.dims)
        keep = [space.index(n) for n in names]
        drop = tuple(i for i in range(3) if i not in keep)
        expected = np.moveaxis(probs, keep, range(3 - len(keep), 3)).sum(axis=tuple(range(len(drop))))
        dist = born_distribution(state, names)
        assert list(dist) == list(np.ndindex(expected.shape))
        np.testing.assert_allclose(list(dist.values()), expected.reshape(-1), atol=1e-15)

    def test_photon_marginal_allocates_no_state_sized_array(self):
        # the kept photon axes are already last, so the marginal is one pass
        # over a view of the amplitudes
        n = 10**6
        space = SpaceLabel((("atom", n + 1), ("photon1", 2), ("photon2", 2)))
        amps = np.zeros(space.dim, dtype=np.complex128)
        amps[[0, 4 + 1, 4 * (n // 2) + 2, 4 * n + 3]] = [0.5, 0.5j, -0.5, 0.5]
        amps.setflags(write=False)
        state = StateVector(space, amps)
        tracemalloc.start()
        try:
            dist = born_distribution(state, ("photon1", "photon2"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * state.amplitudes.nbytes
        assert dist == pytest.approx({k: 0.25 for k in np.ndindex(2, 2)})


class TestSampleShots:
    def test_deterministic_distribution(self):
        assert sample_shots({"A": 1.0}, 100, seed=1) == {"A": 100}

    def test_counts_sum_to_shots(self):
        counts = sample_shots({0: 0.25, 1: 0.75}, 500, seed=2)
        assert sum(counts.values()) == 500

    def test_binomial_three_sigma(self):
        counts = sample_shots({0: 0.5, 1: 0.5}, 10_000, seed=42)
        assert abs(counts[0] - 5000) <= 3 * 50

    def test_same_seed_reproduces(self):
        a = sample_shots({0: 0.3, 1: 0.7}, 2000, seed=7)
        b = sample_shots({0: 0.3, 1: 0.7}, 2000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_shots({0: 0.5, 1: 0.5}, 2000, seed=1)
        b = sample_shots({0: 0.5, 1: 0.5}, 2000, seed=2)
        assert a != b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_shots({0: 0.5, 1: 0.5}, 0, seed=1)
        with pytest.raises(ValueError, match="malformed"):
            sample_shots({0: 0.5, 1: 0.6}, 10, seed=1)

    def test_prefix_property(self):
        # Shot i depends only on (seed, i): a shorter draw is a prefix of a
        # longer one, also across a block boundary.
        dist = {"a": 0.2, "b": 0.3, "c": 0.5}
        longer = sample_shots(dist, _SHOT_BLOCK + 3, seed=11)
        for k in (1, 1000, _SHOT_BLOCK - 5, _SHOT_BLOCK + 1):
            shorter = sample_shots(dist, k, seed=11)
            assert all(shorter[o] <= longer[o] for o in dist)

    def test_multi_block_counts_sum_to_shots(self):
        shots = 2 * _SHOT_BLOCK + 7
        counts = sample_shots({0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}, shots, seed=5)
        assert sum(counts.values()) == shots
        assert all(isinstance(n, int) for n in counts.values())

    @pytest.mark.parametrize("zero", [0, 2, 4])
    def test_zero_probability_never_drawn(self, zero):
        dist = {i: (0.0 if i == zero else 0.25) for i in range(5)}
        counts = sample_shots(dist, 100_000, seed=8)
        assert counts[zero] == 0
        assert sum(counts.values()) == 100_000

    def test_memory_bounded_by_block(self):
        block_bytes = _SHOT_BLOCK * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            sample_shots({0: 0.25, 1: 0.75}, 3 * _SHOT_BLOCK + 7, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block_bytes

    def test_pinned_counts(self):
        assert sample_shots({0: 0.5, 1: 0.5}, 10_000, seed=42) == {0: 5017, 1: 4983}


class TestEqualUpToGlobalPhase:
    def test_pure_phase(self):
        a = basis_state(QUBIT_A, (0,))
        b = StateVector(QUBIT_A, np.exp(1j * math.pi / 4) * a.amplitudes)
        equal, phase = equal_up_to_global_phase(a, b, 1e-12)
        assert equal
        assert phase == pytest.approx(math.pi / 4)

    def test_orthogonal(self):
        equal, phase = equal_up_to_global_phase(
            basis_state(QUBIT_A, (0,)), basis_state(QUBIT_A, (1,)), 1e-12
        )
        assert not equal
        assert phase is None

    def test_dimension_mismatch(self):
        space3 = SpaceLabel((("a", 3),))
        with pytest.raises(ValueError, match="mismatch"):
            equal_up_to_global_phase(basis_state(QUBIT_A, (0,)), basis_state(space3, (0,)), 1e-12)

    def test_unnormalized_rejected(self):
        # an unnormalized state cannot be built, so it never reaches the comparison
        with pytest.raises(ValueError, match="normalized"):
            equal_up_to_global_phase(
                StateVector(QUBIT_A, np.array([2.0, 0.0])), basis_state(QUBIT_A, (0,)), 1e-12
            )
