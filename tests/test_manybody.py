import math
import tracemalloc

import numpy as np
import pytest
from helpers import coherent_dicke_vector

from djensemble.ensemble import EnsembleConfig, u_eff_exact
from djensemble.manybody import (
    NAIVE_ATOM_LIMIT,
    AtomRotation,
    EnsembleEvolution,
    PhotonRotation,
    _evolution_block,
    _excitation_order,
    _sigma_x_basis,
    coherent_dicke_amplitudes,
    dicke_amplitudes_from_naive,
    full_simulate_dicke,
    full_simulate_naive,
    symmetric_rotation,
)
from djensemble.polarization import hadamard_variant
from djensemble.protocol import exact_operation_sequence, table1_function, table1_functions
from djensemble.qstate import born_distribution

SQRT2 = math.sqrt(2.0)
H1 = hadamard_variant(1).matrix

P_PLUS_ORACLE = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
P_MINUS_ORACLE = 0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])


def atom_photon_schmidt_values(state, n_atoms):
    """Schmidt values of a naive-simulator state across the atoms|photons cut."""
    return np.linalg.svd(state.amplitudes.reshape(2**n_atoms, 4), compute_uv=False)


def random_su2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def symmetric_rotation_binomial(u, n):
    """Transport oracle: rotate coherent generators and match binomial coefficients."""
    a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        for m in range(n + 1):
            total = 0.0
            for q in range(max(0, k + m - n), min(k, m) + 1):
                total += (
                    math.comb(n - k, m - q)
                    * math.comb(k, q)
                    * a ** (n - k - m + q)
                    * b ** (m - q)
                    * c ** (k - q)
                    * d**q
                )
            out[k, m] = math.sqrt(math.comb(n, k) / math.comb(n, m)) * total
    return out


def symmetric_rotation_bruteforce(u, n):
    """Second oracle: full N-fold tensor power sandwiched by the symmetric isometry."""
    full = np.array([[1.0]])
    for _ in range(n):
        full = np.kron(full, u)
    iso = np.zeros((2**n, n + 1))
    for idx in range(2**n):
        m = bin(idx).count("1")
        iso[idx, m] = 1.0 / math.sqrt(math.comb(n, m))
    return iso.T @ full @ iso


def literal_hamiltonian(n, lam):
    """The per-atom, per-photon projector sum built term by term."""
    dim = 2**n * 4
    h = np.zeros((dim, dim), dtype=complex)
    plain = np.diag([1.0, 0.0])
    primed = np.diag([0.0, 1.0])
    eye_photons = np.eye(4)
    for j in range(n):
        atom_part = np.array([[1.0]])
        for jj in range(n):
            atom_part = np.kron(atom_part, plain if jj == j else np.eye(2))
        atom_part_primed = np.array([[1.0]])
        for jj in range(n):
            atom_part_primed = np.kron(atom_part_primed, primed if jj == j else np.eye(2))
        for k in range(2):
            photon_plus = np.kron(P_PLUS_ORACLE, np.eye(2)) if k == 0 else np.kron(np.eye(2), P_PLUS_ORACLE)
            photon_minus = np.kron(P_MINUS_ORACLE, np.eye(2)) if k == 0 else np.kron(np.eye(2), P_MINUS_ORACLE)
            h += lam * np.kron(atom_part, photon_plus)
            h += lam * np.kron(atom_part_primed, photon_minus)
    del eye_photons
    return h


class TestSigmaXBasis:
    @pytest.mark.parametrize("n", [1, 2, 7, 512])
    def test_rebuilds_the_ladder(self, n):
        x = _sigma_x_basis(n)
        lam = 2.0 * np.arange(n + 1) - n
        ladder = np.array([math.sqrt((n - m) * (m + 1)) for m in range(n)])
        sigma_x = np.diag(ladder, 1) + np.diag(ladder, -1)
        np.testing.assert_allclose((x * lam) @ x.T, sigma_x, rtol=0, atol=1e-12)
        assert _sigma_x_basis(n) is x
        assert not x.flags.writeable

    @pytest.mark.parametrize(
        "spoil,message",
        [(lambda w, x: (w, 1.01 * x), "orthogonal"), (lambda w, x: (w + 1e-6, x), "eigenvalues")],
        ids=["not-orthogonal", "wrong-spectrum"],
    )
    def test_bad_eigendecomposition_rejected(self, monkeypatch, spoil, message):
        # the per-N check is what makes every rotation built on X unitary
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda t: spoil(*eigh(t)))
        _sigma_x_basis.cache_clear()
        try:
            with pytest.raises(ValueError, match=message):
                _sigma_x_basis(5)
        finally:
            _sigma_x_basis.cache_clear()


class TestSymmetricRotation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            u = random_su2(rng)
            built = symmetric_rotation(u, n, np.eye(n + 1))
            np.testing.assert_allclose(built, symmetric_rotation_bruteforce(u, n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_matches_binomial_formula(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            u = random_su2(rng)
            built = symmetric_rotation(u, n, np.eye(n + 1))
            np.testing.assert_allclose(built, symmetric_rotation_binomial(u, n), atol=1e-11)

    def test_global_phase_carried(self):
        phase = np.exp(0.31j)
        u = phase * H1
        built = symmetric_rotation(u, 4, np.eye(5))
        np.testing.assert_allclose(built, phase**4 * symmetric_rotation(H1, 4, np.eye(5)), atol=1e-12)

    def test_transports_coherent_states(self):
        rng = np.random.default_rng(70)
        n = 25
        u = random_su2(rng)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = vec / np.linalg.norm(vec)
        direct = coherent_dicke_vector(u @ vec, n)
        rotated = symmetric_rotation(u, n, coherent_dicke_vector(vec, n))
        np.testing.assert_allclose(rotated, direct, atol=1e-11)

    def test_near_identity_special_case(self):
        built = symmetric_rotation(-np.eye(2), 3, np.eye(4))
        np.testing.assert_allclose(built, -np.eye(4), atol=1e-12)

    def test_small_angles_are_not_rounded_away(self):
        # cos t rounds to 1 for t below ~1e-8; the angle must come from sin t
        n = 512
        vec = np.array([0.6, 0.8j])
        nx, ny, nz = 0.48, 0.6, 0.64
        for t in (1e-8, 1e-10, 1e-13):
            c, s = math.cos(t), math.sin(t)
            u = np.array([[c - 1j * s * nz, (-1j * nx - ny) * s], [(-1j * nx + ny) * s, c + 1j * s * nz]])
            rotated = symmetric_rotation(u, n, coherent_dicke_vector(vec, n))
            np.testing.assert_allclose(rotated, coherent_dicke_vector(u @ vec, n), rtol=0, atol=1e-12)
        identity = symmetric_rotation(np.eye(2), n, coherent_dicke_vector(vec, n))
        np.testing.assert_array_equal(identity, coherent_dicke_vector(vec, n))

    def test_size_guard(self):
        # the limit is checked before the rows are looked at
        with pytest.raises(ValueError, match="limit"):
            symmetric_rotation(H1, 100_000, np.zeros(1))

    @pytest.mark.parametrize("shape", [(3,), (5,), (3, 4), (5, 4, 1)])
    def test_rows_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="rows must have shape"):
            symmetric_rotation(H1, 3, np.zeros(shape))

    def test_rows_are_not_changed(self):
        rng = np.random.default_rng(72)
        rows = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        before = rows.copy()
        for u in (random_su2(rng), np.eye(2)):
            symmetric_rotation(u, 5, rows)
            np.testing.assert_array_equal(rows, before)

    def test_memory_stays_near_the_rows(self):
        # at N = 1024 the (N+1) x (N+1) complex matrix is 16.8 MB; the rows
        # are 65.6 kB, so forming the matrix or any N^2 temporary shows here
        n = 1024
        rng = np.random.default_rng(73)
        rows = rng.normal(size=(n + 1, 4)) + 1j * rng.normal(size=(n + 1, 4))
        u = random_su2(rng)
        _sigma_x_basis(n)
        tracemalloc.start()
        try:
            symmetric_rotation(u, n, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rows.nbytes


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [AtomRotation, lambda m: PhotonRotation(2, m), lambda m: symmetric_rotation(m, 3, np.eye(4))],
    ids=["AtomRotation", "PhotonRotation", "symmetric_rotation"],
)
def test_non_finite_2x2_rejected(build, bad):
    # NaN compares False with the unitarity tolerance, so it must be caught first
    with pytest.raises(ValueError, match="finite"):
        build(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "build", [AtomRotation, lambda m: PhotonRotation(1, m)], ids=["AtomRotation", "PhotonRotation"]
)
def test_rotation_leaves_the_callers_array_writable(build):
    u = np.eye(2, dtype=complex)
    op = build(u)
    u[0, 0] = -1.0
    np.testing.assert_array_equal(op.matrix, np.eye(2))
    assert not op.matrix.flags.writeable
    # a frozen owner, such as another rotation's matrix, is shared, not copied
    assert build(op.matrix).matrix is op.matrix


class TestAtomState:
    """The ensemble starts in a product state: one single-atom 2-vector."""

    def test_product_to_dicke_matches_binomial(self):
        # N = 200 is large enough that an off-by-one in the ln C(N, m) table
        # shows in every entry
        vec = np.array([1.0, -1.0]) / SQRT2
        for n in (4, 200):
            amps = coherent_dicke_vector(vec, n)
            expected = [
                math.sqrt(math.comb(n, m)) * (1 / SQRT2) ** n * (-1.0) ** m for m in range(n + 1)
            ]
            np.testing.assert_allclose(amps, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_norm_is_one_to_rounding_at_large_n(self, n):
        for vec in ((0.6, 0.8), (0.8, 0.6j), (1 / SQRT2, 1 / SQRT2)):
            amps = coherent_dicke_vector(np.array(vec), n)
            assert abs(np.vdot(amps, amps).real - 1.0) <= 1e-13

    def test_only_the_underflow_tails_are_zero(self):
        # near an extreme the band is a few entries; each matches the closed
        # form, and the first one past the band would underflow anyway
        n = 10**6
        beta = 1e-16
        vec = np.array([-math.sqrt(1.0 - beta**2), beta])
        # only the band comes back, not the (N+1)-vector
        start, returned = coherent_dicke_amplitudes(vec, n)
        assert start == 0 and returned.size < 64
        amps = coherent_dicke_vector(vec, n)
        band = np.flatnonzero(amps)
        np.testing.assert_array_equal(band, np.arange(band.size))
        for m in range(band.size + 1):
            log_mag = 0.5 * math.log(math.comb(n, m)) + m * math.log(beta) + 0.5 * (n - m) * math.log1p(-beta**2)
            if m < band.size:
                assert abs(amps[m]) == pytest.approx(math.exp(log_mag), rel=1e-12)
            else:
                assert log_mag < math.log(2.0**-1074)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            coherent_dicke_amplitudes(np.zeros(2), 3)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            full_simulate_dicke(3, [1.0, 1.0], [])

    @pytest.mark.parametrize("simulate", [full_simulate_naive, full_simulate_dicke])
    @pytest.mark.parametrize(
        "atom_init,message",
        [([math.nan, 1.0], "finite"), ([1.0, 1.0], "normalized"),
         ([1.0, 0.0, 0.0], "2-vector"), (np.eye(2), "2-vector")],
        ids=["nan", "unnormalized", "three-vector", "two-by-two"],
    )
    def test_bad_atom_start_rejected(self, simulate, atom_init, message):
        # both simulators check the start vector before any work
        with pytest.raises(ValueError, match=message):
            simulate(2, atom_init, [])

    def test_apply_per_atom_prepares_plain_extreme(self):
        # H1 on every atom takes (|g> - |g'>)/sqrt2 to the plain extreme
        out = full_simulate_dicke(5, np.array([1.0, -1.0]) / SQRT2, [AtomRotation(H1)])
        expected = np.zeros(6 * 4)
        expected[0] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_apply_per_atom_identity(self):
        amps = coherent_dicke_vector(np.array([0.6, 0.8]), 6)
        np.testing.assert_allclose(symmetric_rotation(np.eye(2), 6, amps), amps, atol=1e-12)

    def test_rotation_from_full_extreme(self):
        out = full_simulate_dicke(5, (0.0, 1.0), [AtomRotation(H1)])
        expected = coherent_dicke_vector(np.array([-1.0, 1.0]) / SQRT2, 5)
        np.testing.assert_allclose(out.amplitudes.reshape(6, 4)[:, 0], expected, atol=1e-14)

    def test_dicke_rotation_matches_product_route(self):
        vec = np.array([0.6, 0.8j])
        rng = np.random.default_rng(71)
        u = random_su2(rng)
        via_dicke = symmetric_rotation(u, 7, coherent_dicke_vector(vec, 7))
        via_product = coherent_dicke_vector(u @ vec, 7)
        np.testing.assert_allclose(via_dicke, via_product, atol=1e-11)


class TestNaiveSimulator:
    def test_atom_cap(self):
        with pytest.raises(ValueError, match="capped"):
            full_simulate_naive(13, (0.0, 1.0), [])

    def test_single_atom_matches_collective_model(self):
        config = EnsembleConfig.from_theta(math.pi / 2)
        u = u_eff_exact(config).matrix
        for level in (0, 1):
            atom = np.zeros(2)
            atom[level] = 1.0
            naive = full_simulate_naive(1, atom, [EnsembleEvolution(config.theta)])
            collective_in = np.kron(atom, [1.0, 0.0, 0.0, 0.0])
            np.testing.assert_allclose(naive.amplitudes, u @ collective_in, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_extreme_atoms_match_collective_marginals(self, n):
        config = EnsembleConfig.from_theta(math.pi / 2)
        u = u_eff_exact(config).matrix
        rng = np.random.default_rng(80 + n)
        # the photons start horizontal; random rotations give a random product input
        u1, u2 = random_su2(rng), random_su2(rng)
        photons = np.kron(u1[:, 0], u2[:, 0])
        ops = [PhotonRotation(1, u1), PhotonRotation(2, u2), EnsembleEvolution(config.theta)]
        naive = full_simulate_naive(n, (1.0, 0.0), ops)
        expected = (u @ np.kron([1.0, 0.0], photons)).reshape(2, 4)[0]
        marg = born_distribution(naive, ("photon1", "photon2"))
        for idx, (r1, r2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            assert marg[(r1, r2)] == pytest.approx(abs(expected[idx]) ** 2, abs=1e-10)

    def test_matches_literal_hamiltonian_sum(self):
        for n in (1, 2, 3):
            theta = 1.1
            lam_t = theta / n
            h = literal_hamiltonian(n, 1.0)
            w, v = np.linalg.eigh(h)
            u_full = (v * np.exp(-1j * lam_t * w)) @ v.conj().T
            atom = np.array([0.5 - 0.5j, 0.5 + 0.5j]) / math.sqrt(1.0)
            atom = atom / np.linalg.norm(atom)
            joint = np.array([1.0])
            for _ in range(n):
                joint = np.kron(joint, atom)
            joint = np.kron(joint, [1.0, 0.0, 0.0, 0.0])
            expected = u_full @ joint
            naive = full_simulate_naive(n, atom, [EnsembleEvolution(theta)])
            np.testing.assert_allclose(naive.amplitudes, expected, atol=1e-12)

    def test_rotations_act_per_atom(self):
        naive = full_simulate_naive(3, (0.0, 1.0), [AtomRotation(H1)])
        per_atom = H1 @ np.array([0.0, 1.0])
        expected = np.array([1.0])
        for _ in range(3):
            expected = np.kron(expected, per_atom)
        expected = np.kron(expected, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(naive.amplitudes, expected, atol=1e-14)

    def test_photon_rotation_targets_one_photon(self):
        naive = full_simulate_naive(1, (1.0, 0.0), [PhotonRotation(2, H1)])
        expected = np.kron([1.0, 0.0], np.kron([1.0, 0.0], H1 @ [1.0, 0.0]))
        np.testing.assert_allclose(naive.amplitudes, expected, atol=1e-14)

    def test_superposed_atoms_entangle_with_photons(self):
        config = EnsembleConfig.from_theta(math.pi / 2)
        atom = np.array([1.0, -1.0]) / SQRT2
        naive = full_simulate_naive(3, atom, [EnsembleEvolution(config.theta)])
        assert atom_photon_schmidt_values(naive, 3)[1] > 0.1

    def test_extreme_atoms_do_not_entangle(self):
        config = EnsembleConfig.from_theta(math.pi / 2)
        naive = full_simulate_naive(3, (1.0, 0.0), [EnsembleEvolution(config.theta)])
        svals = atom_photon_schmidt_values(naive, 3)
        assert svals[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(svals[1:] < 1e-12)


class TestNaiveKernels:
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_stacked_blocks_match_per_configuration_calls(self, n):
        m = np.arange(n + 1)
        for lam_t in (0.13, -2.9):
            stacked = _evolution_block(lam_t, n - m, m)
            assert stacked.shape == (n + 1, 4, 4)
            for k in range(n + 1):
                np.testing.assert_allclose(stacked[k], _evolution_block(lam_t, n - k, k), rtol=0, atol=1e-15)

    def test_scalar_call_returns_one_block(self):
        block = _evolution_block(0.4, 3, 2)
        assert block.shape == (4, 4)
        np.testing.assert_allclose(block.conj().T @ block, np.eye(4), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, NAIVE_ATOM_LIMIT + 1))
    def test_excitation_order_is_a_read_only_sort_by_popcount(self, n):
        order, inverse, bounds = _excitation_order(n)
        assert _excitation_order(n)[0] is order
        for arr in (order, inverse, bounds):
            assert not arr.flags.writeable
        np.testing.assert_array_equal(np.sort(order), np.arange(2**n))
        np.testing.assert_array_equal(order[inverse], np.arange(2**n))
        popcount = np.array([bin(int(i)).count("1") for i in order])
        assert np.all(np.diff(popcount) >= 0)
        # stable: ascending index within each excitation number
        for k in range(n + 1):
            run = order[bounds[k] : bounds[k + 1]]
            assert len(run) == math.comb(n, k) and np.all(popcount[bounds[k] : bounds[k + 1]] == k)
            assert np.all(np.diff(run) > 0)


class TestDickeSimulator:
    @pytest.mark.parametrize("fid", [f.id for f in table1_functions()])
    def test_protocol_sequences_match_naive(self, fid):
        config = EnsembleConfig.from_theta(math.pi / 2)
        ops = exact_operation_sequence(table1_function(fid), config)
        for n in (1, 2, 4, 8, 12):
            naive = full_simulate_naive(n, (0.0, 1.0), ops)
            dicke = full_simulate_dicke(n, (0.0, 1.0), ops)
            extracted = dicke_amplitudes_from_naive(naive, n).reshape(-1)
            np.testing.assert_allclose(extracted, dicke.amplitudes, atol=1e-10)

    def test_non_extreme_evolution_matches_naive(self):
        config = EnsembleConfig.from_theta(math.pi / 2)
        ops = [AtomRotation(H1), EnsembleEvolution(config.theta)]
        for n in (2, 5, 9):
            naive = full_simulate_naive(n, (0.0, 1.0), ops)
            dicke = full_simulate_dicke(n, (0.0, 1.0), ops)
            extracted = dicke_amplitudes_from_naive(naive, n).reshape(-1)
            np.testing.assert_allclose(extracted, dicke.amplitudes, atol=1e-10)

    def test_rotation_after_entangling_evolution(self):
        # forces the dense symmetric rotation on the general representation
        config = EnsembleConfig.from_theta(math.pi / 2)
        rng = np.random.default_rng(90)
        u = random_su2(rng)
        ops = [AtomRotation(H1), EnsembleEvolution(config.theta), AtomRotation(u), PhotonRotation(1, H1)]
        for n in (2, 6):
            naive = full_simulate_naive(n, (0.0, 1.0), ops)
            dicke = full_simulate_dicke(n, (0.0, 1.0), ops)
            extracted = dicke_amplitudes_from_naive(naive, n).reshape(-1)
            np.testing.assert_allclose(extracted, dicke.amplitudes, atol=1e-10)

    def test_zero_excitation_is_plain_extreme(self):
        expected = np.zeros(7 * 4)
        expected[0] = 1.0
        out = full_simulate_dicke(6, (1.0, 0.0), [])
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_norm_drift_is_not_renormalized(self):
        # within the 1e-10 unitarity tolerance of an operation, but a squared
        # norm drift of 2e-11 is over StateVector's 1e-12
        drift = PhotonRotation(1, (1.0 + 1e-11) * np.eye(2))
        with pytest.raises(ValueError, match="normalized"):
            full_simulate_dicke(4, (0.0, 1.0), [drift])

    def test_off_extreme_medium_step_at_a_million_atoms(self):
        # the coherent amplitudes' norm drift once made this state fail
        # StateVector's normalization check
        out = full_simulate_dicke(10**6, (0.6, 0.8), [EnsembleEvolution(0.3)])
        assert sum(born_distribution(out, ("photon1", "photon2")).values()) == pytest.approx(1.0, abs=1e-12)

    def test_medium_step_memory_stays_near_the_state(self):
        # the medium step itself must add only block-sized temporaries
        tracemalloc.start()
        try:
            out = full_simulate_dicke(10**5, (0.6, 0.8), [EnsembleEvolution(0.3)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.amplitudes.nbytes

    def test_result_takes_the_run_array_without_a_copy(self):
        # at N = 10^6 a 4 MB row block is small beside the 64 MB state, so a
        # copy of the state at the hand-off would show as a peak near 2x
        tracemalloc.start()
        try:
            out = full_simulate_dicke(10**6, (0.6, 0.8), [EnsembleEvolution(0.3)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.amplitudes.nbytes

    def test_result_is_read_only(self):
        out = full_simulate_dicke(5, (0.6, 0.8), [EnsembleEvolution(0.3), AtomRotation(H1)])
        assert not out.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            out.amplitudes[0] = 0.0

    def test_large_ensemble_protocol_matches_collective(self):
        from djensemble.protocol import run_protocol

        config = EnsembleConfig.from_theta(math.pi / 2)
        f = table1_function("f3")
        dicke = full_simulate_dicke(100_000, (0.0, 1.0), exact_operation_sequence(f, config))
        trace = run_protocol(f, "exact", config)
        marg_d = born_distribution(dicke, ("photon1", "photon2"))
        marg_c = trace.distribution()
        for key in marg_c:
            assert marg_d[key] == pytest.approx(marg_c[key], abs=1e-10)
