"""Property tests: the Dicke simulator and the compact replay against the
unreduced one on random sequences, the symmetric-sector rotation kernel
against its oracles, and the public constructors on numbers at the edges of
the float range."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from helpers import coherent_dicke_vector
from test_manybody import symmetric_rotation_bruteforce

from djensemble.ensemble import (
    ATOM,
    P_MINUS,
    P_PLUS,
    PROTOCOL_SPACE,
    microwave_rotation,
    u_eff_exact,
)
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
from djensemble.params import MediumSpec, required_detuning
from djensemble.polarization import PHOTON, half_wave, quarter_wave
from djensemble.protocol import classify, replay, replay_steps, run_protocol, table1_function
from djensemble.qstate import Hamiltonian, Operator, SpaceLabel, basis_state, born_distribution, expm_hermitian

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def u2(delta, a, b, g):
    """A U(2) element: the phase delta times the SU(2) element of Euler angles a, b, g."""
    c, s = math.cos(g), math.sin(g)
    su2 = np.array(
        [[cmath.exp(1j * a) * c, -cmath.exp(1j * b) * s], [cmath.exp(-1j * b) * s, cmath.exp(-1j * a) * c]]
    )
    return cmath.exp(1j * delta) * su2


@st.composite
def unitaries(draw):
    """Any U(2): a global phase times an SU(2) element from three Euler angles."""
    return u2(draw(angles), draw(angles), draw(angles), draw(st.floats(0.0, math.pi / 2)))


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


# Past the strategy's N <= 8: at N = 9, 10 and 12 the last group of 1, 2 and
# 4 atoms acts on the (256, 2^g, 4) view, many narrow products.
WIDE_OPS = [
    AtomRotation(u2(0.3, 1.1, -0.4, 0.6)),
    EnsembleEvolution(1.2),
    PhotonRotation(1, u2(-0.8, 0.5, 2.0, 1.1)),
    AtomRotation(u2(1.7, -2.2, 0.9, 0.3)),
    EnsembleEvolution(-2.5),
    PhotonRotation(2, u2(0.1, -1.3, -0.7, 0.9)),
    AtomRotation(u2(-1.4, 0.2, 1.6, 1.4)),
]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n_atoms=st.integers(1, 8),
    polar=st.floats(0.0, math.pi / 2),
    azimuth=angles,
    ops=st.lists(operations, max_size=6),
)
@example(n_atoms=9, polar=0.9, azimuth=1.5, ops=WIDE_OPS)
@example(n_atoms=10, polar=0.9, azimuth=1.5, ops=WIDE_OPS)
@example(n_atoms=12, polar=0.9, azimuth=1.5, ops=WIDE_OPS)
def test_naive_matches_its_literal_form(n_atoms, polar, azimuth, ops):
    atom = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    naive = full_simulate_naive(n_atoms, atom, ops)
    np.testing.assert_allclose(naive.amplitudes, naive_literal(n_atoms, atom, ops), rtol=0, atol=1e-13)


su2s = st.builds(u2, st.just(0.0), angles, angles, st.floats(0.0, math.pi / 2))
# diagonal or anti-diagonal: each atom level goes to one level, so the atoms stay at an extreme
extreme_preserving = st.builds(
    lambda a, b, flip: np.diag([cmath.exp(1j * a), cmath.exp(1j * b)])[:: -1 if flip else 1],
    angles, angles, st.booleans(),
)
photon_rotations = st.builds(PhotonRotation, st.sampled_from((1, 2)), su2s)


@st.composite
def compact_sequences(draw, medium_angles=st.floats(-7.0, 7.0)):
    """1-3 rounds of an extreme-preserving atom gate, a photon rotation and a
    medium step, then an atom and a photon rotation: the compact replay needs
    the atoms at an extreme at each medium step, not at the end."""
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        ops += [AtomRotation(draw(extreme_preserving)), draw(photon_rotations),
                EnsembleEvolution(draw(medium_angles))]
    return ops + [AtomRotation(draw(su2s)), draw(photon_rotations)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n_atoms=st.integers(1, 8), level=st.sampled_from((0, 1)), ops=compact_sequences())
def test_compact_replay_matches_naive_on_random_sequences(n_atoms, level, ops):
    # at N = 1 the compact space is naive_space(1) under other names; at any N
    # the atoms are a product at every extreme, so the photon marginals agree
    states, weight = replay(ops, "exact", basis_state(PROTOCOL_SPACE, (level, 0, 0)))
    assert weight == 1.0 and len(states) == len(ops) + 1
    final = states[-1]
    single = full_simulate_naive(1, np.eye(2)[level], ops)
    np.testing.assert_allclose(final.amplitudes, single.amplitudes, rtol=0, atol=1e-10)
    photons = ("photon1", "photon2")
    compact = born_distribution(final, photons)
    naive = born_distribution(full_simulate_naive(n_atoms, np.eye(2)[level], ops), photons)
    np.testing.assert_allclose([compact[k] for k in naive], list(naive.values()), rtol=0, atol=1e-10)


@st.composite
def sequence_pairs(draw):
    """A mode and two compact sequences that share a prefix of random length.

    The prefix stops before the first sequence's closing atom rotation, so
    the atoms are at an extreme wherever the second one continues; paper
    mode keeps every medium step at the quarter turn its rewrite is fixed at.
    """
    mode = draw(st.sampled_from(("exact", "paper")))
    medium_angles = st.floats(-7.0, 7.0) if mode == "exact" else st.just(math.pi / 2)
    first = draw(compact_sequences(medium_angles))
    shared = draw(st.integers(0, len(first) - 2))
    return mode, first, first[:shared] + draw(compact_sequences(medium_angles)), shared


def replayed(ops, mode, start, after=None):
    """The replay's steps, or the message it was refused with: the paper rewrite annihilates some inputs."""
    try:
        return replay_steps(ops, mode, start, after=after)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(level=st.sampled_from((0, 1)), pair=sequence_pairs())
def test_resumed_replay_is_the_fresh_replay(level, pair):
    mode, first, second, shared = pair
    start = basis_state(PROTOCOL_SPACE, (level, 0, 0))
    before = replayed(first, mode, start)
    assume(not isinstance(before, str))
    resumed = replayed(second, mode, start, after=before)
    fresh = replayed(second, mode, start)
    if isinstance(fresh, str):
        assert resumed == fresh
        return
    assert resumed.states[: shared + 1] == before.states[: shared + 1]  # the same objects
    assert len(resumed.states) == len(fresh.states) == len(second) + 1
    for a, b in zip(resumed.states, fresh.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert resumed.weights == fresh.weights


# Numbers at every edge of the float range (NaN, +-inf, subnormals, 1e300)
# and ints past it; a 2x2 matrix of them or of complex numbers, or a unitary
# scaled off unit norm.
huge_ints = st.integers(-(10**400), 10**400) | st.sampled_from([10**400, -(10**400), 2**1024])
edge_numbers = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e300])
    | huge_ints
)
# and scalars that are not real numbers, for the entry points that take one
# angle, level, bit or dimension
edge_scalars = edge_numbers | st.sampled_from([True, False, None, "1", 1 + 0j, np.float64(0.5)])
edge_matrices = st.one_of(
    st.lists(edge_numbers | st.complex_numbers(), min_size=4, max_size=4).map(lambda v: [v[:2], v[2:]]),
    st.builds(np.multiply, st.sampled_from([1.0, 1.0 + 1e-11, 1e300, 5e-324]), unitaries()),
)


def replays(op):
    """The op alone on both many-atom backends, from an off-extreme start."""
    return [f(n, (0.6, 0.8), [op]).amplitudes for f in (full_simulate_naive, full_simulate_dicke) for n in (1, 3)]


def feasibility_values(spec):
    report = required_detuning(spec)
    return [report.transit_time_s, report.lambda_rad_s, report.detuning_rad_s, report.detuning_over_coupling,
            report.decoherence_margin]


# Each constructor with an (ordinary, edge) pair of strategies per argument
# and the values derived from what it builds.
CONSTRUCTORS = [
    (AtomRotation, [(unitaries(), edge_matrices)], lambda o: [o.matrix, *replays(o)]),
    (
        PhotonRotation,
        [(st.sampled_from([1, 2]), edge_numbers), (unitaries(), edge_matrices)],
        lambda o: [o.pair, *replays(o)],
    ),
    (
        EnsembleEvolution,
        [(angles, edge_numbers)],
        lambda o: [o.theta, u_eff_exact(o.theta).matrix, *replays(o)],
    ),
    # the protocol at its medium angle: f1 runs at any angle, f3 at the quarter turn only
    (
        lambda theta: run_protocol(table1_function("f1"), "paper", theta),
        [(angles, edge_scalars)],
        lambda o: [s.amplitudes for s in o.states.values()],
    ),
    (
        lambda theta: run_protocol(table1_function("f3"), "exact", theta),
        [(st.just(math.pi / 2), edge_scalars)],
        lambda o: [s.amplitudes for s in o.states.values()],
    ),
    (
        MediumSpec,
        [(st.floats(1e-5, 1.0), edge_numbers), (st.integers(1, 10**7), edge_numbers),
         (st.floats(1e6, 1e9), edge_numbers), (st.floats(1e-7, 1e-3), edge_numbers)],
        feasibility_values,
    ),
    (
        lambda area, phase: microwave_rotation((area, phase)),
        [(angles, edge_numbers), (angles, edge_numbers)],
        lambda o: [o.matrix],
    ),
    (u_eff_exact, [(angles, edge_scalars)], lambda o: [o.matrix]),
    (
        lambda theta: expm_hermitian(Hamiltonian(PHOTON, np.array([[1.0, 0.5j], [-0.5j, -1.0]])), theta),
        [(angles, edge_scalars)],
        lambda o: [o.matrix],
    ),
    (half_wave, [(angles, edge_scalars)], lambda o: [o.matrix]),
    (quarter_wave, [(angles, edge_scalars)], lambda o: [o.matrix]),
    (
        lambda a, b: basis_state(SpaceLabel((("a", 2), ("b", 3))), (a, b)),
        [(st.integers(0, 1), edge_scalars), (st.integers(0, 2), edge_scalars)],
        lambda o: [o.amplitudes],
    ),
    (lambda a, b: classify((a, b)), [(st.integers(0, 1), edge_scalars)] * 2, lambda o: list(o.pattern)),
    # the log of the dimension, finite for any accepted one, however large
    (lambda d: SpaceLabel((("a", d),)), [(st.integers(1, 8), edge_scalars)], lambda o: [math.log(o.dim)]),
]


@st.composite
def constructions(draw):
    """A constructor with each argument drawn ordinary or at an edge."""
    cls, arguments, derived = draw(st.sampled_from(CONSTRUCTORS))
    args = tuple(draw(edge if draw(st.booleans()) else ordinary) for ordinary, edge in arguments)
    return cls, args, derived


@settings(derandomize=True, max_examples=500, deadline=None)
@given(constructions())
@example((AtomRotation, ([[1e300, 1e300], [1e300, -1e300]],), lambda o: [o.matrix]))
@example((EnsembleEvolution, (2.0**1023,), lambda o: [u_eff_exact(o.theta).matrix, *replays(o)]))
def test_constructors_build_finite_values_or_raise_value_error(case):
    cls, args, derived = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning escapes like any other exception
        try:
            values = derived(cls(*args))
        except ValueError:
            return
    assert all(np.isfinite(np.asarray(v, dtype=complex)).all() for v in values)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n_atoms=st.integers(1, DENSE_ROTATION_LIMIT),
    u=unitaries(),
    polar=st.floats(0.0, math.pi / 2),
    azimuth=angles,
)
def test_symmetric_rotation_transports_coherent_states(n_atoms, u, polar, azimuth):
    v = np.array([math.cos(polar), cmath.exp(1j * azimuth) * math.sin(polar)])
    rotated = symmetric_rotation(Operator(ATOM, u), n_atoms, coherent_dicke_vector(v, n_atoms))
    np.testing.assert_allclose(rotated, coherent_dicke_vector(u @ v, n_atoms), rtol=0, atol=1e-11)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 6), u=unitaries())
def test_symmetric_rotation_matches_bruteforce(n_atoms, u):
    built = symmetric_rotation(Operator(ATOM, u), n_atoms, np.eye(n_atoms + 1))
    np.testing.assert_allclose(built, symmetric_rotation_bruteforce(u, n_atoms), rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n_atoms=st.integers(1, 6), u=unitaries(), k=st.integers(1, 4))
def test_symmetric_rotation_applies_bruteforce_to_blocks(data, n_atoms, u, k):
    entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    block = np.array(data.draw(st.lists(entries, min_size=(n_atoms + 1) * k, max_size=(n_atoms + 1) * k)))
    block = block.reshape(n_atoms + 1, k)
    applied = symmetric_rotation(Operator(ATOM, u), n_atoms, block)
    np.testing.assert_allclose(applied, symmetric_rotation_bruteforce(u, n_atoms) @ block, rtol=0, atol=1e-12)
    np.testing.assert_allclose(symmetric_rotation(Operator(ATOM, u), n_atoms, block[:, 0]), applied[:, 0], rtol=0, atol=1e-14)


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
        built = symmetric_rotation(Operator(ATOM, u), n, np.eye(n + 1))
        np.testing.assert_array_equal(built, np.diag(np.diag(built)))
        expected = [cmath.exp(0.2j * n) * a ** (n - m) * a.conjugate() ** m for m in range(n + 1)]
        np.testing.assert_allclose(np.diag(built), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 512])
    def test_x_like_flips_every_atom(self, n):
        # c = 0: |m> goes to |N - m> with the phase of the N-fold product
        b, c = cmath.exp(0.4j), cmath.exp(-1.3j)
        built = symmetric_rotation(Operator(ATOM, np.array([[0.0, b], [c, 0.0]])), n, np.eye(n + 1))
        expected = np.zeros((n + 1, n + 1), dtype=complex)
        for m in range(n + 1):
            expected[n - m, m] = c ** (n - m) * b**m
        np.testing.assert_allclose(built, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 6, 511, 512])
    def test_minus_identity(self, n):
        built = symmetric_rotation(Operator(ATOM, -np.eye(2)), n, np.eye(n + 1))
        np.testing.assert_allclose(built, (-1) ** n * np.eye(n + 1), rtol=0, atol=1e-12)

    def test_small_tilt_beside_a_large_z_turn(self):
        # beta/2 = atan2(|v10|, |v00|) keeps a 1e-12 tilt next to a z turn
        n = 512
        vec = np.array([0.6, 0.8j])
        for t in (1e-8, 1e-12):
            rz = np.diag([cmath.exp(-0.9j), cmath.exp(0.9j)])
            ry = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            u = rz @ ry
            rotated = symmetric_rotation(Operator(ATOM, u), n, coherent_dicke_vector(vec, n))
            np.testing.assert_allclose(rotated, coherent_dicke_vector(u @ vec, n), rtol=0, atol=1e-12)

    def test_unitary_at_the_limit(self):
        rng = np.random.default_rng(1024)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        d = symmetric_rotation(Operator(ATOM, u), DENSE_ROTATION_LIMIT, np.eye(DENSE_ROTATION_LIMIT + 1))
        assert np.max(np.abs(d.conj().T @ d - np.eye(DENSE_ROTATION_LIMIT + 1))) <= 1e-12
