import math

import numpy as np
import pytest

from djensemble.ensemble import P_PLUS, PROTOCOL_SPACE, EnsembleConfig
from djensemble.polarization import (
    HADAMARD_GADGETS,
    LIN_TO_CIRC,
    WavePlateSpec,
    clicks_for_pattern,
    composite_h,
    gadget_compose,
    hadamard_variant,
    half_wave,
    quarter_wave,
)
from djensemble.protocol import run_protocol, table1_function
from djensemble.qstate import (
    SpaceLabel,
    StateVector,
    born_distribution,
    equal_up_to_global_phase,
    sample_shots,
)

SQRT2 = math.sqrt(2.0)

# The four rotation matrices, written out independently of the constructors.
EXPECTED_VARIANTS = {
    1: np.array([[1, -1], [1, 1]]) / SQRT2,
    2: np.array([[1, 1j], [1j, 1]]) / SQRT2,
    3: np.array([[1, 1], [-1, 1]]) / SQRT2,
    4: np.array([[1, -1j], [-1j, 1]]) / SQRT2,
}


class TestWavePlates:
    def test_quarter_at_pi_over_4_is_h2(self):
        np.testing.assert_allclose(quarter_wave(math.pi / 4).matrix, EXPECTED_VARIANTS[2], atol=1e-15)

    def test_quarter_at_minus_pi_over_4_is_h4(self):
        np.testing.assert_allclose(quarter_wave(-math.pi / 4).matrix, EXPECTED_VARIANTS[4], atol=1e-15)

    def test_quarter_unitarity_and_det_random_angles(self):
        rng = np.random.default_rng(21)
        for angle in rng.uniform(-math.pi, math.pi, size=100):
            q = quarter_wave(angle).matrix
            np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-12)
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12

    def test_half_wave_at_pi_over_4_swaps_polarizations(self):
        h = half_wave(math.pi / 4).matrix
        np.testing.assert_allclose(h @ [0.0, 1.0], [1.0j, 0.0], atol=1e-15)
        np.testing.assert_allclose(h @ [1.0, 0.0], [0.0, 1.0j], atol=1e-15)

    def test_half_wave_at_zero(self):
        np.testing.assert_allclose(half_wave(0.0).matrix, 1j * np.diag([1.0, -1.0]), atol=1e-15)

    def test_half_wave_squares_to_minus_identity(self):
        rng = np.random.default_rng(22)
        for angle in rng.uniform(-math.pi, math.pi, size=50):
            h = half_wave(angle).matrix
            np.testing.assert_allclose(h @ h, -np.eye(2), atol=1e-12)

    def test_wave_plate_spec_canonicalizes_angle(self):
        spec = WavePlateSpec("half", 3 * math.pi)
        assert -math.pi <= spec.angle < math.pi
        np.testing.assert_allclose(spec.matrix().matrix, half_wave(math.pi).matrix, atol=1e-12)

    def test_wave_plate_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WavePlateSpec("third", 0.1)


class TestHadamardVariants:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_exact_matrices(self, i):
        np.testing.assert_array_equal(hadamard_variant(i).matrix, EXPECTED_VARIANTS[i])

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_unitary(self, i):
        m = hadamard_variant(i).matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("i", [0, 5, -1])
    def test_out_of_range(self, i):
        with pytest.raises(ValueError):
            hadamard_variant(i)


class TestGadgets:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_gadget_reproduces_variant_exactly(self, i):
        built = gadget_compose(HADAMARD_GADGETS[i]).matrix
        np.testing.assert_allclose(built, EXPECTED_VARIANTS[i], atol=1e-12)

    def test_single_plate_gadget(self):
        built = gadget_compose([WavePlateSpec("quarter", math.pi / 4)]).matrix
        np.testing.assert_allclose(built, EXPECTED_VARIANTS[2], atol=1e-12)

    def test_rightmost_plate_acts_first(self):
        # a half plate at pi/4 then a quarter at 0: compare against explicit order
        plates = [WavePlateSpec("quarter", 0.0), WavePlateSpec("half", math.pi / 4)]
        expected = quarter_wave(0.0).matrix @ half_wave(math.pi / 4).matrix
        np.testing.assert_allclose(gadget_compose(plates).matrix, expected, atol=1e-15)

    def test_empty_gadget_rejected(self):
        with pytest.raises(ValueError):
            gadget_compose([])


class TestCompositeRotations:
    def test_prime_is_diagonal_phase(self):
        e = np.exp(1j * math.pi / 4)
        np.testing.assert_allclose(composite_h("prime").matrix, np.diag([e, e.conjugate()]), atol=1e-12)

    def test_double_prime_is_diagonal_phase(self):
        e = np.exp(1j * math.pi / 4)
        np.testing.assert_allclose(
            composite_h("double_prime").matrix, np.diag([e.conjugate(), e]), atol=1e-12
        )

    def test_prime_actions_on_basis(self):
        prime = composite_h("prime").matrix
        double = composite_h("double_prime").matrix
        np.testing.assert_allclose(prime @ [1, 0], np.exp(1j * math.pi / 4) * np.array([1, 0]), atol=1e-12)
        np.testing.assert_allclose(double @ [0, 1], np.exp(1j * math.pi / 4) * np.array([0, 1]), atol=1e-12)
        np.testing.assert_allclose(double @ [1, 0], np.exp(-1j * math.pi / 4) * np.array([1, 0]), atol=1e-12)

    def test_prime_times_double_prime_is_identity(self):
        product = composite_h("prime").matrix @ composite_h("double_prime").matrix
        np.testing.assert_allclose(product, np.eye(2), atol=1e-12)

    def test_unit_modulus_entries(self):
        for kind in ("prime", "double_prime"):
            diag = np.diag(composite_h(kind).matrix)
            np.testing.assert_allclose(np.abs(diag), 1.0, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            composite_h("triple_prime")


class TestBasisConvert:
    """The linear-to-circular change of coordinates, ``LIN_TO_CIRC``."""

    def test_change_of_basis_matrix(self):
        np.testing.assert_allclose(LIN_TO_CIRC.conj().T @ LIN_TO_CIRC, np.eye(2), atol=1e-15)
        # columns are the horizontal and vertical states in mode coordinates
        np.testing.assert_allclose(LIN_TO_CIRC[:, 0], np.array([1.0, 1.0]) / SQRT2, atol=1e-15)
        np.testing.assert_allclose(
            LIN_TO_CIRC[:, 1], (1.0 / (1.0j * SQRT2)) * np.array([1.0, -1.0]), atol=1e-15
        )

    def test_horizontal_to_circular(self):
        converted = LIN_TO_CIRC @ np.array([1.0, 0.0])
        np.testing.assert_allclose(converted, np.array([1.0, 1.0]) / SQRT2, atol=1e-15)

    def test_plus_mode_to_linear(self):
        converted = LIN_TO_CIRC.conj().T @ np.array([1.0, 0.0])
        np.testing.assert_allclose(converted, np.array([1.0, 1.0j]) / SQRT2, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            back = LIN_TO_CIRC.conj().T @ (LIN_TO_CIRC @ amps)
            np.testing.assert_allclose(back, amps, atol=1e-14)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a, b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(np.vdot(a, b) - np.vdot(LIN_TO_CIRC @ a, LIN_TO_CIRC @ b)) < 1e-12

    def test_operator_conversion(self):
        # the medium's plus-mode projector is diagonal in circular coordinates
        circ = LIN_TO_CIRC @ P_PLUS @ LIN_TO_CIRC.conj().T
        np.testing.assert_allclose(circ, np.diag([1.0, 0.0]), atol=1e-15)


class TestSourceAndDetection:
    """The source output every run starts from, and detection as ``sample`` does it.

    A coincidence is one shot drawn by ``sample_shots`` from the photon pair's
    Born distribution and named by ``clicks_for_pattern``.
    """

    TWO_PHOTONS = SpaceLabel((("photon1", 2), ("photon2", 2)))

    def test_source_equals_both_horizontal_up_to_phase(self):
        # the pair is born H and V; a half-wave plate at pi/4 turns V into H
        photon = SpaceLabel((("photon", 2),))
        rotated = StateVector(photon, half_wave(math.pi / 4).matrix @ np.array([0.0, 1.0]))
        equal, phase = equal_up_to_global_phase(rotated, StateVector(photon, np.array([1.0, 0.0])), 1e-12)
        assert equal
        # the preparation plate contributes a quarter-turn phase
        assert abs(abs(phase) - math.pi / 2) < 1e-12

    def test_source_per_photon_distributions(self):
        trace = run_protocol(table1_function("f1"), "exact", EnsembleConfig.from_theta(math.pi / 2))
        for name in ("photon1", "photon2"):
            dist = born_distribution(trace.psi0, (name,))
            assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_detect_basis_state(self):
        state = StateVector(self.TWO_PHOTONS, np.array([0.0, 1.0, 0.0, 0.0]))  # |0,1>
        dist = born_distribution(state)
        assert dist[(0, 1)] == pytest.approx(1.0)
        assert sample_shots(dist, 1, seed=5)[(0, 1)] == 1
        assert clicks_for_pattern((0, 1)) == ("HD1", "VD2")

    def test_detect_product_superposition(self):
        plus = np.array([1.0, 1.0]) / SQRT2
        dist = born_distribution(StateVector(self.TWO_PHOTONS, np.kron(plus, [1.0, 0.0])))
        assert dist[(0, 0)] == pytest.approx(0.5)
        counts = sample_shots(dist, 30, seed=0)
        # photon 2 is horizontal with certainty; photon 1 shows both outcomes
        assert counts[(0, 1)] == counts[(1, 1)] == 0
        assert counts[(0, 0)] > 0 and counts[(1, 0)] > 0

    def test_detect_marginalizes_product_atom(self):
        amps = np.kron([0.0, 1.0], np.kron([1.0, 0.0], [1.0, 0.0]))
        dist = born_distribution(StateVector(PROTOCOL_SPACE, amps), ("photon1", "photon2"))
        assert dist[(0, 0)] == pytest.approx(1.0)

    def test_detect_same_seed_reproducible(self):
        plus = np.array([1.0, 1.0]) / SQRT2
        dist = born_distribution(StateVector(self.TWO_PHOTONS, np.kron(plus, plus)))
        assert sample_shots(dist, 1, seed=123) == sample_shots(dist, 1, seed=123)
