"""Property tests: the Dicke simulator against the unreduced one on random
sequences, and the symmetric-sector rotation kernel against its oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import coherent_dicke_vector
from test_manybody import symmetric_rotation_bruteforce

from djensemble.ensemble import P_MINUS, P_PLUS
from djensemble.manybody import (
    DENSE_ROTATION_LIMIT,
    AtomRotation,
    EnsembleEvolution,
    PhotonRotation,
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


def naive_literal(n_atoms, atom_init, ops):
    """The unreduced simulator written out literally: one tensordot per atom,
    a kron-built generator and its own eigh per excitation number, and a
    boolean mask per excitation number over the popcount of each basis row."""
    i2 = np.eye(2)
    state = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for _ in range(n_atoms):
        state = np.tensordot(np.asarray(atom_init, dtype=complex), state, axes=0)
    popcount = np.array([bin(i).count("1") for i in range(2**n_atoms)])
    for op in ops:
        if isinstance(op, AtomRotation):
            for j in range(n_atoms):
                state = np.moveaxis(np.tensordot(op.matrix, state, axes=([1], [j])), 0, j)
        elif isinstance(op, PhotonRotation):
            axis = n_atoms + op.photon - 1
            state = np.moveaxis(np.tensordot(op.matrix, state, axes=([1], [axis])), 0, axis)
        else:
            lam_t = op.theta / n_atoms
            flat = state.reshape(2**n_atoms, 4).copy()
            for m in range(n_atoms + 1):
                gen = (n_atoms - m) * (np.kron(P_PLUS, i2) + np.kron(i2, P_PLUS))
                gen = gen + m * (np.kron(P_MINUS, i2) + np.kron(i2, P_MINUS))
                w, v = np.linalg.eigh(gen)
                block = (v * np.exp(-1j * lam_t * w)) @ v.conj().T
                rows = popcount == m
                flat[rows] = flat[rows] @ block.T
            state = flat.reshape(state.shape)
    return state.reshape(-1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n_atoms=st.integers(1, 8),
    polar=st.floats(0.0, math.pi / 2),
    azimuth=angles,
    ops=st.lists(operations, max_size=6),
)
def test_naive_matches_its_literal_form(n_atoms, polar, azimuth, ops):
    atom = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    naive = full_simulate_naive(n_atoms, atom, ops)
    np.testing.assert_allclose(naive.amplitudes, naive_literal(n_atoms, atom, ops), rtol=0, atol=1e-13)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(1, DENSE_ROTATION_LIMIT),
    u=unitaries(),
    polar=st.floats(0.0, math.pi / 2),
    azimuth=angles,
)
def test_symmetric_rotation_transports_coherent_states(n_atoms, u, polar, azimuth):
    v = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    rotated = symmetric_rotation(u, n_atoms, coherent_dicke_vector(v, n_atoms))
    np.testing.assert_allclose(rotated, coherent_dicke_vector(u @ v, n_atoms), rtol=0, atol=1e-11)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 6), u=unitaries())
def test_symmetric_rotation_matches_bruteforce(n_atoms, u):
    built = symmetric_rotation(u, n_atoms, np.eye(n_atoms + 1))
    np.testing.assert_allclose(built, symmetric_rotation_bruteforce(u, n_atoms), rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n_atoms=st.integers(1, 6), u=unitaries(), k=st.integers(1, 4))
def test_symmetric_rotation_applies_bruteforce_to_blocks(data, n_atoms, u, k):
    entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    block = np.array(data.draw(st.lists(entries, min_size=(n_atoms + 1) * k, max_size=(n_atoms + 1) * k)))
    block = block.reshape(n_atoms + 1, k)
    applied = symmetric_rotation(u, n_atoms, block)
    np.testing.assert_allclose(applied, symmetric_rotation_bruteforce(u, n_atoms) @ block, rtol=0, atol=1e-12)
    np.testing.assert_allclose(symmetric_rotation(u, n_atoms, block[:, 0]), applied[:, 0], rtol=0, atol=1e-14)


@settings(derandomize=True, max_examples=25, deadline=None)
@example(
    n_atoms=DENSE_ROTATION_LIMIT, u=np.array([[0.6, 0.8j], [0.8j, 0.6]]), polar=0.7, azimuth=0.3, theta=1.1
)
@given(
    n_atoms=st.integers(1, DENSE_ROTATION_LIMIT),
    u=unitaries(),
    polar=st.floats(0.1, math.pi / 2 - 0.1),
    azimuth=angles,
    theta=angles,
)
def test_rotation_and_its_inverse_restore_an_entangled_state(n_atoms, u, polar, azimuth, theta):
    # off the extremes the medium step writes the (N+1) x 4 array, so both
    # rotations after it run through symmetric_rotation, as in large-n's loop
    atom = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    medium = EnsembleEvolution(theta)
    materialized = full_simulate_dicke(n_atoms, atom, [medium])
    returned = full_simulate_dicke(n_atoms, atom, [medium, AtomRotation(u), AtomRotation(u.conj().T)])
    np.testing.assert_allclose(returned.amplitudes, materialized.amplitudes, rtol=0, atol=1e-10)


class TestSymmetricRotationFixedCases:
    @pytest.mark.parametrize("n", [1, 5, 512])
    def test_pure_z_is_exactly_diagonal(self, n):
        a = cmath.exp(0.7j)
        u = cmath.exp(0.2j) * np.diag([a, a.conjugate()])
        built = symmetric_rotation(u, n, np.eye(n + 1))
        np.testing.assert_array_equal(built, np.diag(np.diag(built)))
        expected = [cmath.exp(0.2j * n) * a ** (n - m) * a.conjugate() ** m for m in range(n + 1)]
        np.testing.assert_allclose(np.diag(built), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 512])
    def test_x_like_flips_every_atom(self, n):
        # c = 0: |m> goes to |N - m> with the phase of the N-fold product
        b, c = cmath.exp(0.4j), cmath.exp(-1.3j)
        built = symmetric_rotation(np.array([[0.0, b], [c, 0.0]]), n, np.eye(n + 1))
        expected = np.zeros((n + 1, n + 1), dtype=complex)
        for m in range(n + 1):
            expected[n - m, m] = c ** (n - m) * b**m
        np.testing.assert_allclose(built, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 6, 511, 512])
    def test_minus_identity(self, n):
        built = symmetric_rotation(-np.eye(2), n, np.eye(n + 1))
        np.testing.assert_allclose(built, (-1) ** n * np.eye(n + 1), rtol=0, atol=1e-12)

    def test_small_tilt_beside_a_large_z_turn(self):
        # beta/2 = atan2(|v10|, |v00|) keeps a 1e-12 tilt next to a z turn
        n = 512
        vec = np.array([0.6, 0.8j])
        for t in (1e-8, 1e-12):
            rz = np.diag([cmath.exp(-0.9j), cmath.exp(0.9j)])
            ry = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            u = rz @ ry
            rotated = symmetric_rotation(u, n, coherent_dicke_vector(vec, n))
            np.testing.assert_allclose(rotated, coherent_dicke_vector(u @ vec, n), rtol=0, atol=1e-12)

    def test_unitary_at_the_limit(self):
        rng = np.random.default_rng(1024)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        d = symmetric_rotation(u, DENSE_ROTATION_LIMIT, np.eye(DENSE_ROTATION_LIMIT + 1))
        assert np.max(np.abs(d.conj().T @ d - np.eye(DENSE_ROTATION_LIMIT + 1))) <= 1e-12
