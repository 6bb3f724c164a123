import math

import numpy as np
import pytest

from djensemble.ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    P_MINUS,
    P_PLUS,
    PROTOCOL_SPACE,
    H_EFF,
    check_phases_claim,
    collective_extreme,
    h_eff_linear,
    is_quarter_turn,
    microwave_rotation,
    u_eff_exact,
    u_eff_paper,
)
from djensemble.params import PRESETS, ensemble_config_from_report, required_detuning
from djensemble.polarization import LIN_TO_CIRC, hadamard_variant
from djensemble.protocol import run_protocol, table1_function
from djensemble.qstate import Hamiltonian, SpaceLabel, StateVector, basis_state, expm_hermitian

SQRT2 = math.sqrt(2.0)

# Independent oracle pieces: the circular-mode projectors in linear
# coordinates, written out by expanding the mode states by hand.
P_PLUS_ORACLE = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
P_MINUS_ORACLE = 0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])


def photon_u_oracle(theta, projector):
    """Single-photon medium unitary from the projector identity exp(-i t P) = I + (e^{-it}-1) P."""
    return np.eye(2) + (np.exp(-1j * theta) - 1.0) * projector


def full_u_oracle(theta):
    up = photon_u_oracle(theta, P_PLUS_ORACLE)
    um = photon_u_oracle(theta, P_MINUS_ORACLE)
    return np.kron(np.diag([1.0, 0.0]), np.kron(up, up)) + np.kron(
        np.diag([0.0, 1.0]), np.kron(um, um)
    )


def circular_photons(matrix):
    """The matrix with both photons in circular-mode coordinates."""
    b = np.kron(np.eye(2), np.kron(LIN_TO_CIRC, LIN_TO_CIRC))
    return b @ matrix @ b.conj().T


def protocol_state(atom_level, photon_amps):
    amps = np.zeros(8, dtype=complex)
    amps[4 * atom_level : 4 * atom_level + 4] = photon_amps
    return StateVector(PROTOCOL_SPACE, amps)


class TestMicrowaveRotation:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_hadamard_pulses_exact(self, i):
        built = microwave_rotation(HADAMARD_PULSES[i]).matrix
        np.testing.assert_allclose(built, hadamard_variant(i).matrix, atol=1e-12)

    def test_not_pulse(self):
        built = microwave_rotation(NOT_PULSE).matrix
        np.testing.assert_allclose(built, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
        # flips the levels up to phase
        np.testing.assert_allclose(np.abs(built @ [1.0, 0.0]), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(built @ [0.0, 1.0]), [1.0, 0.0], atol=1e-12)

    def test_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            area, phase = rng.uniform(-math.pi, math.pi, size=2)
            built = microwave_rotation((area, phase)).matrix
            expected = math.cos(area) * np.eye(2) + 1j * math.sin(area) * np.array(
                [[0.0, np.exp(-1j * phase)], [np.exp(1j * phase), 0.0]]
            )
            np.testing.assert_allclose(built, expected, atol=1e-12)
            np.testing.assert_allclose(built.conj().T @ built, np.eye(2), atol=1e-12)


    @pytest.mark.parametrize(
        "area,phase,field",
        [(None, 0.0, "area"), (1.0, "0", "phase"), (1j, 0.0, "area"), (True, 0.0, "area"), (1.0, False, "phase")],
        ids=["none", "string", "complex", "bool-area", "bool-phase"],
    )
    def test_non_number_pulse_rejected(self, area, phase, field):
        value = area if field == "area" else phase
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
            microwave_rotation((area, phase))


class TestEffectiveHamiltonian:
    """``H_EFF`` is H / (lambda * n_atoms); the evolution angle carries every physical scale."""

    def test_double_plus_matrix_element(self):
        h_circ = circular_photons(H_EFF)
        # atom at the plain extreme with both photons in the plus mode
        assert h_circ[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_minus_modes_uncoupled_from_plain_atoms(self):
        h_circ = circular_photons(H_EFF)
        # atom plain, both photons in the minus mode: circular photon index 3
        assert abs(h_circ[3, 3]) < 1e-9

    def test_hermitian(self):
        np.testing.assert_allclose(H_EFF, H_EFF.conj().T, atol=1e-12)

    def test_linear_form_equivalence(self):
        assert np.max(np.abs(H_EFF - h_eff_linear())) <= 1e-12 * np.max(np.abs(H_EFF))

    def test_dimensionless_matrix_is_shared_and_read_only(self):
        assert not H_EFF.flags.writeable
        with pytest.raises(ValueError):
            H_EFF[0, 0] = 0.0

    def test_linear_form_is_read_only(self):
        h = h_eff_linear()
        assert type(h) is np.ndarray and h.dtype == np.complex128 and not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 0.0

    def test_dimensionless_matrix_is_the_projector_assembly(self):
        i2 = np.eye(2)
        expected = np.kron(np.diag([1.0, 0.0]), np.kron(P_PLUS, i2) + np.kron(i2, P_PLUS)) + np.kron(
            np.diag([0.0, 1.0]), np.kron(P_MINUS, i2) + np.kron(i2, P_MINUS)
        )
        assert np.array_equal(H_EFF, expected)
        assert np.max(np.abs(H_EFF - h_eff_linear())) <= 1e-12

    def test_linear_form_off_diagonals(self):
        shaped = h_eff_linear().reshape(2, 2, 2, 2, 2, 2)
        # plain-atom block, photon 1 coupling, photon 2 diagonal: entry i/2 below the diagonal
        assert shaped[0, 1, 0, 0, 0, 0] == pytest.approx(0.5j, rel=1e-12)
        assert shaped[0, 0, 0, 0, 1, 0] == pytest.approx(-0.5j, rel=1e-12)


class TestExactEvolution:
    def test_matches_projector_oracle(self):
        for theta in (0.0, 0.3, math.pi / 2, 1.7, -2.2):
            u = u_eff_exact(theta).matrix
            np.testing.assert_allclose(u, full_u_oracle(theta), atol=1e-12)

    def test_matches_a_fresh_eigh_of_h_eff_bit_for_bit(self):
        # H_EFF is diagonalized once, at import; every angle must still give
        # the entries of the route that diagonalizes it for each call
        w, v = np.linalg.eigh(H_EFF)
        rng = np.random.default_rng(44)
        for theta in rng.uniform(-20.0, 20.0, size=50):
            expected = (v * np.exp(-1j * theta * w)) @ v.conj().T
            assert np.array_equal(u_eff_exact(theta).matrix, expected)

    def test_zero_angle_identity(self):
        u = u_eff_exact(0.0).matrix
        np.testing.assert_allclose(u, np.eye(8), atol=1e-12)

    def test_unitary_at_random_angles(self):
        rng = np.random.default_rng(43)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
            u = u_eff_exact(theta).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_circular_eigenstate_phase(self):
        # plus mode on photon 1, minus mode on photon 2, atoms plain: eigenvalue 1
        u = u_eff_exact(math.pi / 2)
        plus = np.array([1.0, 1.0j]) / SQRT2
        minus = np.array([1.0, -1.0j]) / SQRT2
        state = protocol_state(0, np.kron(plus, minus))
        evolved = u.apply(state)
        np.testing.assert_allclose(evolved.amplitudes, -1j * state.amplitudes, atol=1e-12)

    def test_horizontal_inputs_rotate_per_photon(self):
        u = u_eff_exact(math.pi / 2)
        state = protocol_state(0, np.array([1.0, 0.0, 0.0, 0.0]))
        evolved = u.apply(state)
        single = np.exp(-1j * math.pi / 4) * np.array([1.0, 1.0]) / SQRT2
        expected = protocol_state(0, np.kron(single, single))
        np.testing.assert_allclose(evolved.amplitudes, expected.amplitudes, atol=1e-12)

    def test_angle_gives_the_config_form_bit_for_bit(self):
        # u_eff_exact takes the medium's angle into this same exponential
        spec = PRESETS["cs-cell"]
        theta = ensemble_config_from_report(spec, required_detuning(spec))
        before = expm_hermitian(Hamiltonian(PROTOCOL_SPACE, H_EFF), theta).matrix
        assert np.array_equal(u_eff_exact(theta).matrix, before)

    @pytest.mark.parametrize("build", [u_eff_exact], ids=["u_eff_exact"])
    @pytest.mark.parametrize("theta,message", [("1", "^theta must be a real number, got '1'$"),
                                               (True, "^theta must be a real number, got True$"),
                                               (None, "^theta must be a real number, got None$")],
                             ids=["string", "bool", "none"])
    def test_non_real_angle_is_named(self, build, theta, message):
        # "1" and True were taken as the angle 1, and None raised a TypeError
        with pytest.raises(ValueError, match=message):
            build(theta)


class TestCollectiveExtreme:
    """One rule for every replay: a level of norm at most 1e-12 is empty."""

    @staticmethod
    def rows(extreme, residual):
        amps = np.zeros((2, 4))
        amps[extreme, 0] = 1.0
        amps[1 - extreme, 2] = residual
        return amps

    @pytest.mark.parametrize("extreme", [0, 1])
    def test_a_norm_of_exactly_the_threshold_is_empty(self, extreme):
        assert collective_extreme(self.rows(extreme, 1e-12)) == extreme
        single = np.roll([1.0, 1e-12], extreme)
        assert collective_extreme(single) == extreme

    @pytest.mark.parametrize("extreme", [0, 1])
    def test_just_above_the_threshold_is_not_empty(self, extreme):
        above = np.nextafter(1e-12, 1.0)
        assert collective_extreme(self.rows(extreme, above)) is None
        assert collective_extreme(np.roll([1.0, above], extreme)) is None

    @pytest.mark.parametrize(
        "weights", [[math.nan, 1.0], [1.0, math.nan], [math.nan, 0.0], [math.nan, math.nan]]
    )
    def test_nan_weights_are_at_no_extreme(self, weights):
        assert collective_extreme(weights) is None

    def test_an_empty_register_is_at_no_extreme(self):
        assert collective_extreme(np.zeros(8)) is None


class TestPaperPolarizerMap:
    def test_declared_rows_at_quarter_turn(self):
        pmap = u_eff_paper()
        target = np.array([-1.0j, 1.0]) / SQRT2
        pair = np.kron(target, target)
        phases = {(0, 0): -1.0, (1, 1): 1.0, (0, 1): -1.0j, (1, 0): -1.0j}
        for (r1, r2), phase in phases.items():
            photon_amps = np.zeros(4)
            photon_amps[2 * r1 + r2] = 1.0
            result = pmap.apply(protocol_state(0, photon_amps))
            expected = protocol_state(0, phase * np.exp(-1j * math.pi / 2) * pair)
            np.testing.assert_allclose(result.state.amplitudes, expected.amplitudes, atol=1e-12)
            assert result.post_selection_probability == pytest.approx(1.0, abs=1e-12)
            assert not result.linear_extension_used

    def test_output_is_minus_i_times_plus_mode_per_photon(self):
        pmap = u_eff_paper()
        result = pmap.apply(protocol_state(0, np.array([1.0, 0, 0, 0])))
        photon = result.state.amplitudes.reshape(2, 2, 2)[0, :, 0]
        photon = photon / np.linalg.norm(photon)
        plus_mode_linear = np.array([1.0, 1.0j]) / SQRT2
        overlap = np.vdot(plus_mode_linear, photon)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_primed_branch_mirror(self):
        # the primed-extreme branch is the mode-swap conjugate of the plain one
        pmap = u_eff_paper()
        swap = np.diag([1.0, -1.0])
        for r1, r2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            photon_amps = np.zeros(4)
            photon_amps[2 * r1 + r2] = 1.0
            primed = pmap.apply(protocol_state(1, photon_amps)).state
            sign = (-1.0) ** (r1 + r2)
            plain = pmap.apply(protocol_state(0, sign * photon_amps)).state
            conjugated = np.kron(np.eye(2), np.kron(swap, swap)) @ plain.amplitudes
            flipped = np.roll(conjugated.reshape(2, 4), 1, axis=0).reshape(-1)
            np.testing.assert_allclose(primed.amplitudes, flipped, atol=1e-12)

    def test_superposition_uses_linear_extension(self):
        pmap = u_eff_paper()
        photon_amps = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        result = pmap.apply(protocol_state(0, photon_amps))
        assert result.linear_extension_used
        assert result.post_selection_probability == pytest.approx(1.0, abs=1e-12)

    def test_two_populated_rows_use_linear_extension(self):
        result = u_eff_paper().apply(protocol_state(0, np.array([1.0, 1.0, 0.0, 0.0]) / SQRT2))
        assert result.linear_extension_used

    def test_non_norm_preserving_weight(self):
        pmap = u_eff_paper()
        photon_amps = np.array([1.0, 0.0, 0.0, -1.0]) / SQRT2
        result = pmap.apply(protocol_state(0, photon_amps))
        # rows 00 and 11 carry opposite declared signs, so they add coherently
        assert result.post_selection_probability == pytest.approx(2.0, abs=1e-12)

    # Independent per-row oracle for the rewrite on branch b: the weight is
    # |sum_i r_i v_i|^2 over the declared row phases r (turn phase -i folded
    # in) and the state is that sum's phase times the declared photon pair.
    ROW_PHASES = {0: -1j * np.array([-1.0, -1.0j, -1.0j, 1.0]), 1: -1j * np.array([-1.0, 1.0j, 1.0j, 1.0])}
    PAIRS = {b: np.kron(t, t) for b, t in ((0, np.array([-1j, 1.0]) / SQRT2), (1, np.array([-1j, -1.0]) / SQRT2))}

    @pytest.mark.parametrize("branch,weight", [(0, 0.48167982841559187), (1, 2.0791824186916736)])
    def test_generic_superposition_matches_the_row_formula(self, branch, weight):
        rng = np.random.default_rng(1414 + branch)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        result = u_eff_paper().apply(protocol_state(branch, v))
        coeff = np.sum(self.ROW_PHASES[branch] * v)
        assert result.post_selection_probability == pytest.approx(abs(coeff) ** 2, abs=1e-12)
        assert result.post_selection_probability == pytest.approx(weight, abs=1e-12)
        # the seeded input tells the phases from their conjugates
        assert weight != pytest.approx(abs(np.sum(self.ROW_PHASES[branch].conj() * v)) ** 2, abs=0.05)
        expected = protocol_state(branch, coeff / abs(coeff) * self.PAIRS[branch])
        np.testing.assert_allclose(result.state.amplitudes, expected.amplitudes, atol=1e-12)
        assert result.linear_extension_used

    @pytest.mark.parametrize("branch", [0, 1])
    def test_input_along_the_conjugated_phases_has_weight_four(self, branch):
        v = self.ROW_PHASES[branch].conj() / 2.0
        result = u_eff_paper().apply(protocol_state(branch, v))
        assert result.post_selection_probability == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(
            result.state.amplitudes, protocol_state(branch, self.PAIRS[branch]).amplitudes, atol=1e-12
        )

    @pytest.mark.parametrize("fid", ["f3", "f4", "f5", "f6", "f7", "f8"])
    def test_protocol_inputs_have_weight_one(self, fid):
        trace = run_protocol(table1_function(fid), "paper", math.pi / 2)
        assert trace.post_selection_probability == pytest.approx(1.0, abs=1e-12)

    def test_annihilated_input_rejected(self):
        pmap = u_eff_paper()
        photon_amps = np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2
        with pytest.raises(ValueError, match="annihilates"):
            pmap.apply(protocol_state(0, photon_amps))

    def test_atom_superposition_rejected(self):
        pmap = u_eff_paper()
        amps = np.zeros(8)
        amps[0] = amps[4] = 1 / SQRT2
        with pytest.raises(ValueError, match="extreme"):
            pmap.apply(StateVector(PROTOCOL_SPACE, amps))

    def test_other_space_rejected(self):
        # eight amplitudes on another space: the map is K on the atom + two-photon space only
        space = SpaceLabel((("photon1", 2), ("photon2", 2), ("atom", 2)))
        with pytest.raises(ValueError, match="^polarizer map is defined on the atom \\+ two-photon space$"):
            u_eff_paper().apply(basis_state(space, (0, 0, 0)))


class TestPhasesClaim:
    def test_report_quantities(self):
        report = check_phases_claim()
        np.testing.assert_allclose(report.claimed_abs_gram, np.ones((4, 4)), atol=1e-12)
        np.testing.assert_allclose(report.fidelities, 0.5, atol=1e-12)
        assert not report.consistent
        assert "not unitary" in report.verdict

    def test_rank_one_on_each_branch(self):
        report = check_phases_claim()
        np.testing.assert_allclose(report.singular_values, [[2.0, 0.0, 0.0, 0.0]] * 2, atol=1e-12)

    def test_equality_is_identity(self):
        report = check_phases_claim()
        assert report == report and report != check_phases_claim()
        assert hash(report) == hash(report)

    def test_quarter_turn_rule(self):
        assert is_quarter_turn(math.pi / 2) and is_quarter_turn(math.pi / 2 + 1e-10)
        for theta in (math.pi / 2 + 2e-9, 0.0, -math.pi / 2, math.nan, math.inf, -math.inf):
            assert not is_quarter_turn(theta)

    def test_exact_map_would_pass_the_same_audit(self):
        # control: the exact unitary preserves the input gram, so the audit
        # criterion singles out the declared rewrite specifically
        u = u_eff_exact(math.pi / 2)
        rows = [(0, 0), (1, 1), (0, 1), (1, 0)]
        outs = []
        for r1, r2 in rows:
            amps = np.zeros(4)
            amps[2 * r1 + r2] = 1.0
            outs.append(u.apply(protocol_state(0, amps)))
        gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in outs] for a in outs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
