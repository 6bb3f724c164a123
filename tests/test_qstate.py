import itertools
import math
import tracemalloc

import numpy as np
import pytest
from helpers import equal_up_to_global_phase

from djensemble.manybody import DickeState, dicke_space
from djensemble.qstate import (
    _FOLD_ROWS,
    _SHOT_BLOCK,
    Hamiltonian,
    Operator,
    SpaceLabel,
    StateVector,
    _padded_operator,
    _padding_identity,
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

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="^a space needs at least one subsystem$"):
            SpaceLabel(())

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            SpaceLabel((("a", 0),))

    @pytest.mark.parametrize(
        "dim,message",
        [(2.5, "must be an integer, got 2.5"), (2.0, "must be an integer, got 2.0"),
         ("2", "must be an integer, got '2'"), (True, "must be an integer, got True"),
         (None, "must be an integer, got None"), (0, "must be at least 1, got 0")],
        ids=["fraction", "integral-float", "string", "bool", "none", "zero"],
    )
    def test_dimensions_are_checked_before_int(self, dim, message):
        # int() made 2.5 and "2" into 2 and True into 1
        with pytest.raises(ValueError, match=f"^dimension of 'b' {message}$"):
            SpaceLabel((("a", 2), ("b", dim)))

    def test_numpy_integer_dimensions_accepted(self):
        space = SpaceLabel((("a", np.int64(2)), ("b", np.uint8(3))))
        assert space.dims == (2, 3) and all(type(d) is int for d in space.dims)

    def test_derived_attributes_are_kept_and_not_compared(self):
        space = SpaceLabel((("a", 2), ("b", 3)))
        assert space.dims is space.dims and space.names is space.names
        assert (space.names, space.dims, space.dim) == (("a", "b"), (2, 3), 6)
        twin = SpaceLabel([["a", np.int64(2)], ["b", 3]])
        assert twin == space and hash(twin) == hash(space)
        assert repr(space) == "SpaceLabel(subsystems=(('a', 2), ('b', 3)))"


class TestBasisState:
    @pytest.mark.parametrize(
        "occupancy,message",
        [((0.7, 1), "^level must be an integer, got 0.7$"), ((True, 0), "^level must be an integer, got True$"),
         (("1", 0), "^level must be an integer, got '1'$"), ((-1, 0), "^level must be at least 0, got -1$"),
         ((0, 2), "^level 2 out of range for dimension 2$")],
        ids=["fraction", "bool", "string", "negative", "past-the-dimension"],
    )
    def test_levels_are_checked_before_int(self, occupancy, message):
        # (0.7, 1) gave |0, 1>
        space = SpaceLabel((("a", 2), ("b", 2)))
        with pytest.raises(ValueError, match=message):
            basis_state(space, occupancy)

    def test_numpy_integer_levels_accepted(self):
        state = basis_state(SpaceLabel((("a", 2), ("b", 2))), (np.int64(1), np.uint8(0)))
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 1, 0])

    @pytest.mark.parametrize("occupancy", [(0,), (0, 1, 0)], ids=["short", "long"])
    def test_one_level_per_subsystem(self, occupancy):
        with pytest.raises(ValueError, match="^need one level index per subsystem$"):
            basis_state(SpaceLabel((("a", 2), ("b", 2))), occupancy)


class TestStateVector:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(QUBIT_A, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[1.0], [1.0, 0.0, 0.0]], ids=["short", "long"])
    def test_amplitude_length_must_match_space(self, amps):
        with pytest.raises(ValueError, match=f"^amplitude length {len(amps)} does not match space dimension 2$"):
            StateVector(QUBIT_A, amps)

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

    def test_frozen_owner_is_copied(self):
        # numpy lets an array that owns its data turn writing back on, so a
        # frozen owner is no promise that the caller will not write to it
        amps = np.array([0.6, 0.8j], dtype=np.complex128)
        amps.setflags(write=False)
        state = StateVector(QUBIT_A, amps)
        amps.setflags(write=True)
        amps[:] = [5.0, 7.0]
        assert state.amplitudes.tolist() == [0.6, 0.8j]
        assert born_distribution(state, ("a",)) == pytest.approx({(0,): 0.36, (1,): 0.64}, abs=1e-15)

    def test_equality_is_identity(self):
        state = StateVector(QUBIT_A, [0.6, 0.8j])
        assert state == state and state != StateVector(QUBIT_A, [0.6, 0.8j])
        assert hash(state) == hash(state)

    def test_frozen_owner_is_still_checked(self):
        for amps, message in (([np.nan, 0.0], "finite"), ([1.0, 1.0], "normalized")):
            frozen = np.array(amps, dtype=np.complex128)
            frozen.setflags(write=False)
            with pytest.raises(ValueError, match=message):
                StateVector(QUBIT_A, frozen)


class TestBandedState:
    N_ATOMS = 3 * _FOLD_ROWS + 4
    SPACE = dicke_space(N_ATOMS)

    def band(self, start, length, seed=0):
        rng = np.random.default_rng([seed, start, length])
        band = rng.normal(size=(length, 4)) + 1j * rng.normal(size=(length, 4))
        return band / np.linalg.norm(band)

    def test_band_is_written_into_frozen_zeros(self):
        # the rows widen to whole fold groups; the dense amplitudes, built on
        # request, hold the band and zeros
        band = self.band(40, 7)
        state = DickeState(self.N_ATOMS, 40, band)
        assert (state.first, len(state.rows)) == (32, 32) and not state.rows.flags.writeable
        rows = state.amplitudes.reshape(-1, 4)
        assert np.array_equal(rows[40:47], band) and not rows[:40].any() and not rows[47:].any()
        assert not state.amplitudes.flags.writeable and state.amplitudes.flags.owndata

    def test_public_constructions_have_no_support(self):
        # a band is held by the state that holds it, never flagged on a dense state
        assert not hasattr(basis_state(QUBIT_A, (0,)), "support")
        assert not hasattr(StateVector(QUBIT_A, [0.6, 0.8]), "support")

    def test_support_is_not_an_argument(self):
        with pytest.raises(TypeError, match="support"):
            StateVector(QUBIT_A, [1.0, 0.0], support=(0, 1))

    @pytest.mark.parametrize(
        "last_row, message",
        [
            ([0.1, 0.0, 0.0, 0.0], "^state must be normalized"),
            ([np.nan, 0.0, 0.0, 0.0], r"^amplitudes must be finite \(no NaN or Inf\)$"),
        ],
        ids=["off-norm", "nan"],
    )
    def test_band_is_checked_by_the_state_rule_to_its_last_row(self, last_row, message):
        band = np.vstack([self.band(3, 2), [last_row]])
        with pytest.raises(ValueError, match=message) as banded:
            DickeState(self.N_ATOMS, 3, band)
        whole = np.zeros((self.SPACE.dims[0], 4), dtype=complex)
        whole[3:6] = band
        with pytest.raises(ValueError) as dense:
            StateVector(self.SPACE, whole.reshape(-1))
        assert str(banded.value) == str(dense.value)

    @pytest.mark.parametrize("start, shape", [(-1, (2, 4)), (3 * _FOLD_ROWS + 4, (2, 4)), (0, (2, 2))])
    def test_band_must_fit_the_rows(self, start, shape):
        with pytest.raises(ValueError):
            DickeState(self.N_ATOMS, start, np.full(shape, 0.5))

    @pytest.mark.parametrize(
        "start, length", [(0, 1), (0, 3 * _FOLD_ROWS + 5), (5, 3), (31, 2), (33, _FOLD_ROWS), (36, 2 * _FOLD_ROWS + 1)]
    )
    @pytest.mark.parametrize(
        "names",
        [order for k in (1, 2, 3) for order in itertools.permutations(("atoms", "photon1", "photon2"), k)],
    )
    def test_marginal_is_the_whole_states_bit_for_bit(self, start, length, names):
        state = DickeState(self.N_ATOMS, start, self.band(start, length))
        whole = StateVector(self.SPACE, state.amplitudes)
        assert born_distribution(state, names) == born_distribution(whole, names)

    @pytest.mark.parametrize(
        "start, length, widened", [(40, 7, (32, 32)), (40, 31, (32, 64)), (70, 31, (64, 37)), (0, 1, (0, 32))]
    )
    def test_band_widens_to_whole_fold_groups_or_the_last_row(self, start, length, widened):
        state = DickeState(self.N_ATOMS, start, self.band(start, length))
        assert (state.first, len(state.rows)) == widened

    def test_marginal_reads_the_support_widened_to_whole_fold_groups_only(self):
        # rows 10..70 widen to 0..95; rows that are not the truth show which
        # are summed: rows 32..63 miss the weight on rows 10 and 70, and rows
        # 64..95 see row 70's
        state = DickeState(self.N_ATOMS, 10, np.vstack([[[0.6, 0, 0, 0]], np.zeros((59, 4)), [[0, 0, 0.8, 0]]]))
        assert (state.first, len(state.rows)) == (0, 96)
        rows = state.rows
        vars(state)["rows"] = rows[32:64]
        assert set(born_distribution(state, ("photon1", "photon2")).values()) == {0.0}
        vars(state)["rows"] = rows[64:96]
        assert born_distribution(state, ("photon1", "photon2")) == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.8**2, (1, 1): 0.0}


class TestOperator:
    def test_unitary_claim_enforced(self):
        with pytest.raises(ValueError, match="unitary"):
            Operator(QUBIT_A, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_hermitian_non_unitary_matrix_rejected(self):
        # a finite Hermitian matrix is a generator, not an operator
        with pytest.raises(ValueError, match="unitary"):
            Operator(QUBIT_A, np.diag([1.0, 0.0]))

    def test_dimension_must_match_space(self):
        with pytest.raises(ValueError, match="shape"):
            Operator(QUBIT_A, np.eye(3))

    def test_apply_across_spaces_refused(self):
        # the same dimension under another name is another space
        other = SpaceLabel((("b", 2),))
        with pytest.raises(ValueError, match="^operator and state live on different spaces$"):
            Operator(QUBIT_A, np.eye(2)).apply(basis_state(other, (0,)))

    def test_product_across_spaces_refused(self):
        other = SpaceLabel((("b", 2),))
        with pytest.raises(ValueError, match="^operators live on different spaces$"):
            Operator(QUBIT_A, np.eye(2)) @ Operator(other, np.eye(2))

    def test_frozen_owner_is_copied(self):
        u = np.eye(2, dtype=np.complex128)
        u.setflags(write=False)
        op = Operator(QUBIT_A, u)
        u.setflags(write=True)
        u[:] = [[5.0, 7.0], [7.0, 5.0]]
        np.testing.assert_array_equal(op.matrix, np.eye(2))
        assert not op.matrix.flags.writeable

    def test_equality_is_identity(self):
        op = Operator(QUBIT_A, np.eye(2))
        assert op == op and op != Operator(QUBIT_A, np.eye(2))
        assert hash(op) == hash(op)

    def test_norm_changing_apply_raises(self):
        # states have unit norm by construction, so an operator that changes
        # the norm cannot produce one, even one that skipped the unitarity check
        doubled = 2.0 * np.eye(2, dtype=complex)
        doubled.setflags(write=False)
        with pytest.raises(ValueError, match="normalized"):
            _padded_operator(QUBIT_A, doubled).apply(basis_state(QUBIT_A, (0,)))


class TestEmbed:
    SPACE = SpaceLabel((("atom", 2), ("photon1", 2), ("photon2", 2)))

    def test_single_target_flip(self):
        x = Operator(SpaceLabel((("q", 2),)), np.array([[0.0, 1.0], [1.0, 0.0]]))
        flipped = embed(x, "photon2", self.SPACE).apply(basis_state(self.SPACE, (0, 0, 0)))
        np.testing.assert_array_equal(flipped.amplitudes, basis_state(self.SPACE, (0, 0, 1)).amplitudes)

    def test_identity_embeds_to_identity(self):
        ident = Operator(SpaceLabel((("q", 2),)), np.eye(2))
        np.testing.assert_array_equal(embed(ident, "photon1", self.SPACE).matrix, np.eye(8))

    def test_embed_matches_manual_kron(self):
        rng = np.random.default_rng(11)
        m, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
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
            m, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
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

    @pytest.mark.parametrize("target", ["atom", "photon1", "photon2"])
    def test_unitary_embed_matches_manual_kron(self, target):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        op = Operator(SpaceLabel((("q", 2),)), q)
        factors = [q if name == target else np.eye(2) for name in self.SPACE.names]
        manual = np.kron(factors[0], np.kron(factors[1], factors[2]))
        assert np.array_equal(embed(op, target, self.SPACE).matrix, manual)

    def test_matrix_and_its_base_are_read_only(self):
        op = Operator(SpaceLabel((("q", 2),)), np.array([[0.0, 1.0], [1.0, 0.0]]))
        matrix = embed(op, "photon1", self.SPACE).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0
        # no writable owner stands behind the view either
        assert matrix.base is None or not matrix.base.flags.writeable

    def test_padding_is_not_checked_again(self, monkeypatch):
        op = Operator(SpaceLabel((("q", 2),)), np.array([[0.0, 1.0], [1.0, 0.0]]))

        def refuse(self):
            raise AssertionError("the padded operator was checked again")

        monkeypatch.setattr(Operator, "__post_init__", refuse)
        embedded = embed(op, "photon2", self.SPACE)
        assert embedded.space == self.SPACE and embedded.dim == 8

    def test_padding_keeps_the_source_gram_deviation(self):
        # U'^dag U' - I = I (x) (U^dag U - I): padding cannot move the deviation
        # that the 2x2 check measured, so checking the 8 x 8 again would add
        # nothing. The gram is summed by einsum in index order, the same for both
        # sizes; a BLAS product may group the 2x2 sum differently and move it an ulp.
        def gram_deviation(m):
            gram = np.einsum("ki,kj->ij", m.conj(), m)
            return float(np.abs(gram - np.eye(len(m))).max())

        rng = np.random.default_rng(23)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            op = Operator(SpaceLabel((("q", 2),)), q)
            for target in self.SPACE.names:
                padded = embed(op, target, self.SPACE).matrix
                assert abs(gram_deviation(padded) - gram_deviation(q)) <= 1e-16

    def test_padding_identity_is_shared_and_read_only(self):
        op = Operator(SpaceLabel((("q", 2),)), np.eye(2))
        embed(op, "photon1", self.SPACE)
        identity = _padding_identity(2, 2)
        assert identity is _padding_identity(2, 2)
        assert not identity.flags.writeable
        assert identity.base is None or not identity.base.flags.writeable

    def test_unknown_subsystem(self):
        op = Operator(SpaceLabel((("q", 2),)), np.eye(2))
        with pytest.raises(ValueError, match="unknown subsystem"):
            embed(op, "nope", self.SPACE)

    def test_dimension_mismatch(self):
        op = Operator(SpaceLabel((("q", 3),)), np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            embed(op, "photon1", self.SPACE)

    @pytest.mark.parametrize("gate", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]]], ids=["ndarray", "list"])
    def test_raw_matrix_refused(self, gate):
        # the padding is not checked, so only a gate checked where it was built may reach it
        with pytest.raises(TypeError, match="^a gate must be a built Operator, got (ndarray|list)$"):
            embed(gate, "photon1", self.SPACE)


class TestExpmHermitian:
    def test_diagonal_projector(self):
        u = expm_hermitian(Hamiltonian(QUBIT_A, np.diag([1.0, 0.0])), math.pi / 2).matrix
        np.testing.assert_allclose(u, np.diag([-1.0j, 1.0]), atol=1e-15)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        space = SpaceLabel((("s", 4),))
        np.testing.assert_allclose(expm_hermitian(Hamiltonian(space, m + m.conj().T), 0.0).matrix, np.eye(4), atol=1e-14)

    def test_group_property(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = Hamiltonian(SpaceLabel((("s", 3),)), m + m.conj().T)
            t1, t2 = rng.uniform(-3, 3, size=2)
            split = expm_hermitian(h, t1).matrix @ expm_hermitian(h, t2).matrix
            joint = expm_hermitian(h, t1 + t2).matrix
            np.testing.assert_allclose(split, joint, atol=1e-12)

    def test_microwave_generator_at_zero_phase(self):
        # drive generator at zero field phase, quarter pulse area
        u = expm_hermitian(Hamiltonian(QUBIT_A, -np.array([[0.0, 1.0], [1.0, 0.0]])), math.pi / 4).matrix
        h2 = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
        np.testing.assert_allclose(u, h2, atol=1e-14)

    def test_real_generator_matches_complex_route(self):
        # a real symmetric generator takes the real eigendecomposition; a
        # diagonal phase conjugation moves it to the complex one
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6))
        space = SpaceLabel((("s", 6),))
        p = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, size=6)))
        real = expm_hermitian(Hamiltonian(space, m + m.T), 0.7).matrix
        cplx = expm_hermitian(Hamiltonian(space, p @ (m + m.T) @ p.conj().T), 0.7).matrix
        np.testing.assert_allclose(real, p.conj().T @ cplx @ p, atol=1e-13)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(QUBIT_A, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_generator_rejected(self, bad):
        # a NaN entry would pass the Hermitian comparison: nan > tol is False
        with pytest.raises(ValueError, match="generator entries must be finite"):
            Hamiltonian(QUBIT_A, np.diag([bad, 0.0]))

    def test_result_is_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = m + m.conj().T
            u = expm_hermitian(Hamiltonian(SpaceLabel((("s", 5),)), h), rng.uniform(-10, 10)).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


class TestHamiltonian:
    """A generator is checked and diagonalized once, where it is built; ``expm_hermitian`` takes only a built one."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_is_refused_with_its_message(self, bad):
        with pytest.raises(ValueError, match=r"^generator entries must be finite \(no NaN or Inf\)$"):
            Hamiltonian(QUBIT_A, np.array([[0.0, bad], [bad, 0.0]]))

    def test_non_hermitian_matrix_is_refused_with_its_message(self):
        with pytest.raises(ValueError, match=r"^generator is not Hermitian: max \|H - H\^dag\| = 1\.000e\+00$"):
            Hamiltonian(QUBIT_A, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_shape_must_match_the_space(self):
        with pytest.raises(ValueError, match=r"^matrix shape \(3, 3\) does not match space dimension 2$"):
            Hamiltonian(QUBIT_A, np.eye(3))

    def test_arrays_are_read_only_copies(self):
        h = np.array([[1.0, 0.5j], [-0.5j, -1.0]])
        built = Hamiltonian(QUBIT_A, h)
        h[0, 0] = 7.0  # the caller's array is not the Hamiltonian's
        assert built.matrix[0, 0] == 1.0
        for arr in (built.matrix, built.eigenvalues, built.eigenvectors, built.adjoint):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_stored_eigendecomposition_is_eigh_of_the_matrix(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        built = Hamiltonian(SpaceLabel((("s", 4),)), m + m.conj().T)
        w, v = np.linalg.eigh(m + m.conj().T)
        assert np.array_equal(built.eigenvalues, w)
        assert np.array_equal(built.eigenvectors, v)
        assert np.array_equal(built.adjoint, v.conj().T)

    @pytest.mark.parametrize("raw", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]]], ids=["ndarray", "list"])
    def test_expm_hermitian_refuses_a_raw_matrix(self, raw):
        with pytest.raises(TypeError, match="^a generator must be a built Hamiltonian, got (ndarray|list)$"):
            expm_hermitian(raw, 1.0)

    def test_expm_hermitian_checks_its_angle(self):
        with pytest.raises(ValueError, match="^theta must be finite, got nan$"):
            expm_hermitian(Hamiltonian(QUBIT_A, np.eye(2)), math.nan)


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

    def test_duplicate_subsystem_refused(self):
        space = SpaceLabel((("a", 2), ("b", 2)))
        with pytest.raises(ValueError, match="^duplicate subsystem in request$"):
            born_distribution(basis_state(space, (0, 0)), ("a", "b", "a"))

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

    @pytest.mark.parametrize("rows", [1, _FOLD_ROWS - 1, _FOLD_ROWS, _FOLD_ROWS + 1, 3 * _FOLD_ROWS + 5])
    @pytest.mark.parametrize(
        "names",
        [order for k in (1, 2, 3) for order in itertools.permutations(("atoms", "photon1", "photon2"), k)],
    )
    def test_folded_marginal_matches_literal_sum(self, rows, names):
        # row counts on both sides of the fold width, with and without leftover rows
        space = SpaceLabel((("atoms", rows), ("photon1", 2), ("photon2", 2)))
        state = random_state(space, np.random.default_rng(rows))
        probs = (np.abs(state.amplitudes) ** 2).reshape(space.dims)
        keep = [space.index(n) for n in names]
        moved = np.moveaxis(probs, keep, range(3 - len(keep), 3))
        expected = moved.sum(axis=tuple(range(3 - len(keep))))
        dist = born_distribution(state, names)
        assert list(dist) == list(np.ndindex(expected.shape))
        np.testing.assert_allclose(list(dist.values()), expected.reshape(-1), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_compact_marginal_is_the_single_einsum(self, seed):
        # fewer rows than _FOLD_ROWS, as for the protocol's 8-amplitude
        # states: the sum is one einsum over the (rows, 2K) float view
        space = SpaceLabel((("atom", 2), ("photon1", 2), ("photon2", 2)))
        state = random_state(space, np.random.default_rng(seed))
        parts = state.amplitudes.reshape(2, 4).view(np.float64)
        sums = np.einsum("mk,mk->k", parts, parts)
        expected = sums[0::2] + sums[1::2]
        assert list(born_distribution(state, ("photon1", "photon2")).values()) == expected.tolist()

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
        assert sample_shots([{"A": 1.0}], 100, seed=1)[0] == {"A": 100}

    def test_counts_sum_to_shots(self):
        (counts,) = sample_shots([{0: 0.25, 1: 0.75}], 500, seed=2)
        assert sum(counts.values()) == 500

    def test_binomial_three_sigma(self):
        (counts,) = sample_shots([{0: 0.5, 1: 0.5}], 10_000, seed=42)
        assert abs(counts[0] - 5000) <= 3 * 50

    def test_same_seed_reproduces(self):
        (a,) = sample_shots([{0: 0.3, 1: 0.7}], 2000, seed=7)
        (b,) = sample_shots([{0: 0.3, 1: 0.7}], 2000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        (a,) = sample_shots([{0: 0.5, 1: 0.5}], 2000, seed=1)
        (b,) = sample_shots([{0: 0.5, 1: 0.5}], 2000, seed=2)
        assert a != b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_shots([{0: 0.5, 1: 0.5}], 0, seed=1)
        with pytest.raises(ValueError, match="malformed"):
            sample_shots([{0: 0.5, 1: 0.6}], 10, seed=1)

    @pytest.mark.parametrize(
        "shots,seed,message",
        [(5.5, 3, "^shots must be an integer, got 5.5$"), (True, 3, "^shots must be an integer, got True$"),
         (0, 3, "^shots must be at least 1, got 0$"), (5, 3.9, "^seed must be an integer, got 3.9$"),
         (5, -1, "^seed must be at least 0, got -1$"),
         (5, True, "^seed must be an integer, got True$")],
        ids=["fractional-shots", "bool-shots", "zero-shots", "fractional-seed", "negative-seed", "bool-seed"],
    )
    def test_shot_count_and_seed_are_named(self, shots, seed, message):
        # 5.5 shots drew 5, and seed 3.9 drew seed 3's counts
        with pytest.raises(ValueError, match=message):
            sample_shots([{0: 0.5, 1: 0.5}], shots, seed)

    def test_numpy_integer_shots_and_seed_accepted(self):
        assert sample_shots([{0: 0.5, 1: 0.5}], np.int64(100), np.uint32(7))[0] == sample_shots([{0: 0.5, 1: 0.5}], 100, 7)[0]

    @pytest.mark.parametrize("table", [{0: math.nan, 1: 1.0}, {0: 1.0, 1: math.nan}, {0: 0.5, 1: math.nan, 2: 0.5}])
    def test_nan_table_rejected(self, table):
        with pytest.raises(ValueError, match="malformed"):
            sample_shots([table], 10, seed=1)

    def test_prefix_property(self):
        # Shot i depends only on (seed, i): a shorter draw is a prefix of a
        # longer one, also across a block boundary.
        dist = {"a": 0.2, "b": 0.3, "c": 0.5}
        (longer,) = sample_shots([dist], _SHOT_BLOCK + 3, seed=11)
        for k in (1, 1000, _SHOT_BLOCK - 5, _SHOT_BLOCK + 1):
            (shorter,) = sample_shots([dist], k, seed=11)
            assert all(shorter[o] <= longer[o] for o in dist)

    def test_multi_block_counts_sum_to_shots(self):
        shots = 2 * _SHOT_BLOCK + 7
        (counts,) = sample_shots([{0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}], shots, seed=5)
        assert sum(counts.values()) == shots
        assert all(isinstance(n, int) for n in counts.values())

    @pytest.mark.parametrize("zero", [0, 2, 4])
    def test_zero_probability_never_drawn(self, zero):
        dist = {i: (0.0 if i == zero else 0.25) for i in range(5)}
        (counts,) = sample_shots([dist], 100_000, seed=8)
        assert counts[zero] == 0
        assert sum(counts.values()) == 100_000

    def test_memory_bounded_by_block(self):
        block_bytes = _SHOT_BLOCK * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            sample_shots([{0: 0.25, 1: 0.75}], 3 * _SHOT_BLOCK + 7, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block_bytes

    def test_pinned_counts(self):
        assert sample_shots([{0: 0.5, 1: 0.5}], 10_000, seed=42)[0] == {0: 5017, 1: 4983}

    @staticmethod
    def _searchsorted_reference(dist, shots, seed):
        """The binary-search sampler, written out: the same stream, table and blocks."""
        outcomes = list(dist)
        p = np.array([dist[o] for o in outcomes])
        cdf = np.cumsum(p / p.sum())
        cdf[np.flatnonzero(p)[-1]:] = 1.0
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        totals = np.zeros(len(outcomes), dtype=np.int64)
        for start in range(0, shots, _SHOT_BLOCK):
            u = rng.random(min(_SHOT_BLOCK, shots - start))
            totals += np.bincount(np.searchsorted(cdf, u, side="right"), minlength=len(outcomes))
        return {o: int(n) for o, n in zip(outcomes, totals)}

    @staticmethod
    def _random_table(rng, least=1):
        """A table of ``least`` to 8 outcomes with exact zeros, 1e-33 entries and, often, trailing zeros."""
        k = int(rng.integers(least, 9))
        p = rng.random(k) ** 3
        kind = rng.integers(0, 4, size=k)
        p[kind == 0] = 0.0
        p[kind == 1] = 1e-33
        if rng.random() < 0.4:
            p[int(rng.integers(1, k + 1)):] = 0.0
        if p.max() < 1e-30:
            p[int(rng.integers(0, k))] = 1.0
        return dict(enumerate((p / p.sum()).tolist()))

    def test_counts_equal_the_searchsorted_reference(self):
        rng = np.random.default_rng(1618)
        for _ in range(300):
            dist = self._random_table(rng)
            shots, seed = int(rng.integers(1, 3000)), int(rng.integers(0, 2**32))
            assert sample_shots([dist], shots, seed)[0] == self._searchsorted_reference(dist, shots, seed), dist

    @pytest.mark.parametrize("shots", [_SHOT_BLOCK - 1, _SHOT_BLOCK, _SHOT_BLOCK + 1, 2 * _SHOT_BLOCK + 5])
    def test_counts_equal_the_reference_across_blocks(self, shots):
        rng = np.random.default_rng(shots)
        dist = self._random_table(rng)
        assert sample_shots([dist], shots, 77)[0] == self._searchsorted_reference(dist, shots, 77)

    @pytest.mark.parametrize("shots", [1, 10_000, _SHOT_BLOCK - 1, _SHOT_BLOCK + 1])
    def test_each_table_counts_as_its_own_call(self, shots):
        # every table reads shot i from the i-th uniform, so the tables beside
        # it and their order leave its counts as they are alone
        rng = np.random.default_rng(shots + 3)
        dists = [self._random_table(rng, least=2) for _ in range(5)]
        alone = [sample_shots([dist], shots, 21)[0] for dist in dists]
        assert sample_shots(dists, shots, 21) == alone
        for _ in range(3):
            order = rng.permutation(len(dists))
            assert sample_shots([dists[i] for i in order], shots, 21) == [alone[i] for i in order]

    @pytest.mark.parametrize("shots", [10_000, _SHOT_BLOCK + 1])
    def test_shared_edges_are_counted_once_for_every_table(self, monkeypatch, shots):
        # nine table entries share the edges 0.25, 0.5 and 0.75, and 1e-33 is a tenth
        quarters = {i: 0.25 for i in range(4)}
        dists = [quarters, {"a": 0.5, "b": 0.5}, quarters, {0: 0.25, 1: 0.25, 2: 0.5}, {0: 1e-33, 1: 1.0}, {"x": 1.0}]
        alone = [sample_shots([dist], shots, 13)[0] for dist in dists]
        passes = []
        count_nonzero = np.count_nonzero

        def counted(below):
            passes.append(below.size)
            return count_nonzero(below)

        monkeypatch.setattr(np, "count_nonzero", counted)
        assert sample_shots(dists, shots, 13) == alone
        # one pass per distinct edge and block
        assert len(passes) == 4 * -(-shots // _SHOT_BLOCK)

    def test_no_tables_no_counts(self):
        assert sample_shots([], 10, seed=1) == []

    @pytest.mark.parametrize("dists", [{0: 0.5, 1: 0.5}, {}], ids=["table", "empty-table"])
    def test_bare_table_is_refused(self, dists):
        # a table's keys would otherwise be read as its tables
        with pytest.raises(TypeError, match="^dists must be a sequence of probability tables, got dict$"):
            sample_shots(dists, 10, seed=1)

    def test_every_table_is_checked_before_the_first_draw(self, monkeypatch):
        def poisoned(*args, **kwargs):
            raise AssertionError("no uniform may be drawn for a malformed table")

        monkeypatch.setattr(np.random, "Generator", poisoned)
        with pytest.raises(ValueError, match="malformed"):
            sample_shots([{0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.6}], 10, seed=1)

    def test_largest_uniform_never_reaches_a_trailing_zero(self, monkeypatch):
        # the running sum of seven sevenths ends at 0.9999999999999998, below
        # 1 - 2**-53, the largest double random() returns; closing the table
        # keeps that draw on outcome 6
        class LargestUniform:
            def __init__(self, bit_generator):
                pass

            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        dist = {i: 1 / 7 for i in range(7)}
        dist[7] = 0.0
        p = np.array(list(dist.values()))
        assert np.cumsum(p / p.sum())[-1] < np.nextafter(1.0, 0.0)
        monkeypatch.setattr(np.random, "Generator", LargestUniform)
        assert sample_shots([dist], 10, seed=1)[0] == {**{i: 0 for i in range(6)}, 6: 10, 7: 0}

    def test_table_with_rounding_above_one_before_the_last_entry(self):
        # the running sum of nine ninths is 1.0000000000000002 before a 1e-33
        # tail entry; closing the table there must give that entry no shots
        # and lose none
        dist = {i: 1 / 9 for i in range(9)}
        dist[9] = 1e-33
        p = np.array(list(dist.values()))
        assert np.cumsum(p / p.sum())[8] > 1.0
        (counts,) = sample_shots([dist], 5000, seed=9)
        assert counts == self._searchsorted_reference(dist, 5000, 9)
        assert counts[9] == 0 and sum(counts.values()) == 5000


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
