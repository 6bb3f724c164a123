"""Property tests: the Dicke simulator against the unreduced one on random
sequences, and the symmetric-sector rotation kernel against its oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_manybody import symmetric_rotation_bruteforce

from djensemble.manybody import (
    DENSE_ROTATION_LIMIT,
    AtomRotation,
    EnsembleEvolution,
    PhotonRotation,
    coherent_dicke_amplitudes,
    dicke_amplitudes_from_naive,
    full_simulate_dicke,
    full_simulate_naive,
    symmetric_rotation,
)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def unitaries(draw):
    """Any U(2): a global phase times an SU(2) element from three Euler angles."""
    delta, a, b = draw(angles), draw(angles), draw(angles)
    g = draw(st.floats(0.0, math.pi / 2))
    c, s = math.cos(g), math.sin(g)
    su2 = np.array(
        [[cmath.exp(1j * a) * c, -cmath.exp(1j * b) * s], [cmath.exp(-1j * b) * s, cmath.exp(-1j * a) * c]]
    )
    return cmath.exp(1j * delta) * su2


operations = st.one_of(
    st.builds(AtomRotation, unitaries()),
    st.builds(EnsembleEvolution, angles),
    st.builds(PhotonRotation, st.sampled_from((1, 2)), unitaries()),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n_atoms=st.integers(1, 6),
    polar=st.floats(0.0, math.pi / 2),
    azimuth=angles,
    ops=st.lists(operations, max_size=6),
)
def test_dicke_matches_naive_on_random_sequences(n_atoms, polar, azimuth, ops):
    atom = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    naive = full_simulate_naive(n_atoms, atom, ops)
    dicke = full_simulate_dicke(n_atoms, atom, ops)
    extracted = dicke_amplitudes_from_naive(naive, n_atoms).reshape(-1)
    np.testing.assert_allclose(dicke.amplitudes, extracted, rtol=0, atol=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(1, DENSE_ROTATION_LIMIT),
    u=unitaries(),
    polar=st.floats(0.0, math.pi / 2),
    azimuth=angles,
)
def test_symmetric_rotation_transports_coherent_states(n_atoms, u, polar, azimuth):
    v = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    rotated = symmetric_rotation(u, n_atoms) @ coherent_dicke_amplitudes(v, n_atoms)
    np.testing.assert_allclose(rotated, coherent_dicke_amplitudes(u @ v, n_atoms), rtol=0, atol=1e-11)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 6), u=unitaries())
def test_symmetric_rotation_matches_bruteforce(n_atoms, u):
    built = symmetric_rotation(u, n_atoms)
    np.testing.assert_allclose(built, symmetric_rotation_bruteforce(u, n_atoms), rtol=0, atol=1e-12)


class TestSymmetricRotationFixedCases:
    @pytest.mark.parametrize("n", [1, 5, 512])
    def test_pure_z_is_exactly_diagonal(self, n):
        a = cmath.exp(0.7j)
        u = cmath.exp(0.2j) * np.diag([a, a.conjugate()])
        built = symmetric_rotation(u, n)
        np.testing.assert_array_equal(built, np.diag(np.diag(built)))
        expected = [cmath.exp(0.2j * n) * a ** (n - m) * a.conjugate() ** m for m in range(n + 1)]
        np.testing.assert_allclose(np.diag(built), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 512])
    def test_x_like_flips_every_atom(self, n):
        # c = 0: |m> goes to |N - m> with the phase of the N-fold product
        b, c = cmath.exp(0.4j), cmath.exp(-1.3j)
        built = symmetric_rotation(np.array([[0.0, b], [c, 0.0]]), n)
        expected = np.zeros((n + 1, n + 1), dtype=complex)
        for m in range(n + 1):
            expected[n - m, m] = c ** (n - m) * b**m
        np.testing.assert_allclose(built, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 6, 511, 512])
    def test_minus_identity(self, n):
        built = symmetric_rotation(-np.eye(2), n)
        np.testing.assert_allclose(built, (-1) ** n * np.eye(n + 1), rtol=0, atol=1e-12)

    def test_small_tilt_beside_a_large_z_turn(self):
        # beta/2 = atan2(|v10|, |v00|) keeps a 1e-12 tilt next to a z turn
        n = 512
        vec = np.array([0.6, 0.8j])
        for t in (1e-8, 1e-12):
            rz = np.diag([cmath.exp(-0.9j), cmath.exp(0.9j)])
            ry = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            u = rz @ ry
            rotated = symmetric_rotation(u, n) @ coherent_dicke_amplitudes(vec, n)
            np.testing.assert_allclose(rotated, coherent_dicke_amplitudes(u @ vec, n), rtol=0, atol=1e-12)

    def test_unitary_at_the_limit(self):
        rng = np.random.default_rng(1024)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        d = symmetric_rotation(u, DENSE_ROTATION_LIMIT)
        assert np.max(np.abs(d.conj().T @ d - np.eye(DENSE_ROTATION_LIMIT + 1))) <= 1e-12
