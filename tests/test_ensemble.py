import logging
import math

import numpy as np
import pytest

from djensemble.ensemble import (
    HADAMARD_PULSES,
    NOT_PULSE,
    P_MINUS,
    P_PLUS,
    PROTOCOL_SPACE,
    EnsembleConfig,
    MicrowavePulse,
    build_h_eff,
    build_h_eff_linear,
    check_phases_claim,
    h_eff_dimensionless,
    microwave_rotation,
    u_eff_exact,
    u_eff_paper,
)
from djensemble.polarization import LIN_TO_CIRC, hadamard_variant
from djensemble.qstate import StateVector

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


def circular_photons(op):
    """The operator's matrix with both photons in circular-mode coordinates."""
    b = np.kron(np.eye(2), np.kron(LIN_TO_CIRC, LIN_TO_CIRC))
    return b @ op.matrix @ b.conj().T


def protocol_state(atom_level, photon_amps):
    amps = np.zeros(8, dtype=complex)
    amps[4 * atom_level : 4 * atom_level + 4] = photon_amps
    return StateVector(PROTOCOL_SPACE, amps)


class TestEnsembleConfig:
    def test_from_physics_consistency(self):
        config = EnsembleConfig.from_physics(2.91e8, 3.59e9, 100_000, 6.67e-13)
        assert config.lambda_value == pytest.approx(2.91e8**2 / 3.59e9, rel=1e-15)
        assert config.theta == pytest.approx(config.lambda_value * 1e5 * 6.67e-13, rel=1e-15)

    @pytest.mark.parametrize("coupling,detuning", [(0.0, 10.0), (1.0, 0.0), (math.nan, 10.0)])
    def test_nonpositive_physics_rejected(self, coupling, detuning):
        with pytest.raises(ValueError, match="finite and positive"):
            EnsembleConfig.from_physics(coupling, detuning, 10, 1.0)

    def test_from_theta_hits_requested_angle(self):
        config = EnsembleConfig.from_theta(math.pi / 2)
        assert config.theta == pytest.approx(math.pi / 2, rel=1e-15)


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
            built = microwave_rotation(MicrowavePulse(area, phase)).matrix
            expected = math.cos(area) * np.eye(2) + 1j * math.sin(area) * np.array(
                [[0.0, np.exp(-1j * phase)], [np.exp(1j * phase), 0.0]]
            )
            np.testing.assert_allclose(built, expected, atol=1e-12)
            np.testing.assert_allclose(built.conj().T @ built, np.eye(2), atol=1e-12)

    def test_phase_canonicalized(self):
        pulse = MicrowavePulse(0.3, 3.5 * math.pi)
        assert -math.pi < pulse.phase <= math.pi
        same = microwave_rotation(MicrowavePulse(0.3, -math.pi / 2)).matrix
        np.testing.assert_allclose(microwave_rotation(pulse).matrix, same, atol=1e-12)


class TestEffectiveHamiltonian:
    def test_double_plus_matrix_element(self):
        config = EnsembleConfig.from_theta(1.0, n_atoms=50, coupling=2.0, detuning=20.0)
        h_circ = circular_photons(build_h_eff(config))
        scale = config.lambda_value * config.n_atoms
        # atom at the plain extreme with both photons in the plus mode
        assert h_circ[0, 0] == pytest.approx(2.0 * scale, rel=1e-12)

    def test_minus_modes_uncoupled_from_plain_atoms(self):
        config = EnsembleConfig.from_theta(1.0)
        h_circ = circular_photons(build_h_eff(config))
        # atom plain, both photons in the minus mode: circular photon index 3
        assert abs(h_circ[3, 3]) < 1e-9 * config.lambda_value * config.n_atoms

    def test_hermitian(self):
        h = build_h_eff(EnsembleConfig.from_theta(0.7)).matrix
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)

    def test_linear_form_equivalence(self):
        config = EnsembleConfig.from_theta(math.pi / 2)
        a = build_h_eff(config).matrix
        b = build_h_eff_linear(config).matrix
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_dimensionless_matrix_is_shared_and_read_only(self):
        h = h_eff_dimensionless().matrix
        assert h_eff_dimensionless().matrix is h
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 0.0

    def test_dimensionless_matrix_is_the_projector_assembly(self):
        i2 = np.eye(2)
        expected = np.kron(np.diag([1.0, 0.0]), np.kron(P_PLUS, i2) + np.kron(i2, P_PLUS)) + np.kron(
            np.diag([0.0, 1.0]), np.kron(P_MINUS, i2) + np.kron(i2, P_MINUS)
        )
        assert np.array_equal(h_eff_dimensionless().matrix, expected)
        config = EnsembleConfig.from_theta(0.9, n_atoms=40, coupling=2.0, detuning=25.0)
        linear = build_h_eff_linear(config).matrix / (config.lambda_value * config.n_atoms)
        assert np.max(np.abs(h_eff_dimensionless().matrix - linear)) <= 1e-12

    def test_linear_form_off_diagonals(self):
        h = build_h_eff_linear(EnsembleConfig.from_theta(1.0, n_atoms=1, coupling=1.0, detuning=10.0))
        scale = 0.1  # lambda * n_atoms
        shaped = h.matrix.reshape(2, 2, 2, 2, 2, 2)
        # plain-atom block, photon 1 coupling, photon 2 diagonal: entry i/2 below the diagonal
        assert shaped[0, 1, 0, 0, 0, 0] == pytest.approx(0.5j * scale, rel=1e-12)
        assert shaped[0, 0, 0, 0, 1, 0] == pytest.approx(-0.5j * scale, rel=1e-12)


class TestExactEvolution:
    def test_matches_projector_oracle(self):
        for theta in (0.0, 0.3, math.pi / 2, 1.7, -2.2):
            u = u_eff_exact(EnsembleConfig.from_theta(theta)).matrix
            np.testing.assert_allclose(u, full_u_oracle(theta), atol=1e-12)

    def test_zero_angle_identity(self):
        u = u_eff_exact(EnsembleConfig.from_theta(0.0)).matrix
        np.testing.assert_allclose(u, np.eye(8), atol=1e-12)

    def test_unitary_at_random_angles(self):
        rng = np.random.default_rng(43)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
            u = u_eff_exact(EnsembleConfig.from_theta(theta)).matrix
            np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_circular_eigenstate_phase(self):
        # plus mode on photon 1, minus mode on photon 2, atoms plain: eigenvalue 1
        u = u_eff_exact(EnsembleConfig.from_theta(math.pi / 2))
        plus = np.array([1.0, 1.0j]) / SQRT2
        minus = np.array([1.0, -1.0j]) / SQRT2
        state = protocol_state(0, np.kron(plus, minus))
        evolved = u.apply(state)
        np.testing.assert_allclose(evolved.amplitudes, -1j * state.amplitudes, atol=1e-12)

    def test_horizontal_inputs_rotate_per_photon(self):
        u = u_eff_exact(EnsembleConfig.from_theta(math.pi / 2))
        state = protocol_state(0, np.array([1.0, 0.0, 0.0, 0.0]))
        evolved = u.apply(state)
        single = np.exp(-1j * math.pi / 4) * np.array([1.0, 1.0]) / SQRT2
        expected = protocol_state(0, np.kron(single, single))
        np.testing.assert_allclose(evolved.amplitudes, expected.amplitudes, atol=1e-12)

    def test_dimensionless_generator_is_reused(self):
        h = h_eff_dimensionless().matrix
        config = EnsembleConfig.from_theta(1.3, n_atoms=7, coupling=3.0, detuning=30.0)
        np.testing.assert_allclose(
            build_h_eff(config).matrix, config.lambda_value * 7 * h, atol=1e-12
        )


class TestPaperPolarizerMap:
    def test_declared_rows_at_quarter_turn(self):
        pmap = u_eff_paper(math.pi / 2)
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
        pmap = u_eff_paper(math.pi / 2)
        result = pmap.apply(protocol_state(0, np.array([1.0, 0, 0, 0])))
        photon = result.state.amplitudes.reshape(2, 2, 2)[0, :, 0]
        photon = photon / np.linalg.norm(photon)
        plus_mode_linear = np.array([1.0, 1.0j]) / SQRT2
        overlap = np.vdot(plus_mode_linear, photon)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_primed_branch_mirror(self):
        # the primed-extreme branch is the mode-swap conjugate of the plain one
        pmap = u_eff_paper(math.pi / 2)
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

    def test_superposition_uses_linear_extension(self, caplog):
        pmap = u_eff_paper(math.pi / 2)
        photon_amps = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        with caplog.at_level(logging.WARNING, logger="djensemble.ensemble"):
            result = pmap.apply(protocol_state(0, photon_amps))
        assert result.linear_extension_used
        assert "not norm-preserving" in caplog.text
        assert result.post_selection_probability == pytest.approx(1.0, abs=1e-12)

    def test_non_norm_preserving_weight(self):
        pmap = u_eff_paper(math.pi / 2)
        photon_amps = np.array([1.0, 0.0, 0.0, -1.0]) / SQRT2
        result = pmap.apply(protocol_state(0, photon_amps))
        # rows 00 and 11 carry opposite declared signs, so they add coherently
        assert result.post_selection_probability == pytest.approx(2.0, abs=1e-12)

    def test_annihilated_input_rejected(self):
        pmap = u_eff_paper(math.pi / 2)
        photon_amps = np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2
        with pytest.raises(ValueError, match="annihilates"):
            pmap.apply(protocol_state(0, photon_amps))

    def test_atom_superposition_rejected(self):
        pmap = u_eff_paper(math.pi / 2)
        amps = np.zeros(8)
        amps[0] = amps[4] = 1 / SQRT2
        with pytest.raises(ValueError, match="extreme"):
            pmap.apply(StateVector(PROTOCOL_SPACE, amps))


class TestPhasesClaim:
    def test_report_quantities(self):
        report = check_phases_claim(EnsembleConfig.from_theta(math.pi / 2))
        np.testing.assert_allclose(report.input_gram, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(report.claimed_abs_gram, np.ones((4, 4)), atol=1e-12)
        np.testing.assert_allclose(report.fidelities, 0.5, atol=1e-12)
        assert not report.consistent
        assert "not unitary" in report.verdict

    def test_report_serializes(self):
        import json

        report = check_phases_claim(EnsembleConfig.from_theta(math.pi / 2))
        payload = json.dumps(report.as_dict())
        assert "claimed_abs_gram" in payload

    def test_requires_quarter_turn(self):
        with pytest.raises(ValueError, match="pi/2"):
            check_phases_claim(EnsembleConfig.from_theta(1.0))

    def test_exact_map_would_pass_the_same_audit(self):
        # control: the exact unitary preserves the input gram, so the audit
        # criterion singles out the declared rewrite specifically
        config = EnsembleConfig.from_theta(math.pi / 2)
        u = u_eff_exact(config)
        rows = [(0, 0), (1, 1), (0, 1), (1, 0)]
        outs = []
        for r1, r2 in rows:
            amps = np.zeros(4)
            amps[2 * r1 + r2] = 1.0
            outs.append(u.apply(protocol_state(0, amps)))
        gram = np.array([[a.overlap(b) for b in outs] for a in outs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
