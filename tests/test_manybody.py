import math
import tracemalloc

import numpy as np
import pytest
from helpers import coherent_dicke_vector

from djensemble import manybody
from djensemble.ensemble import ATOM, PROTOCOL_SPACE, u_eff_exact
from djensemble import checks, manybody
from djensemble.manybody import (
    DENSE_STATE_LIMIT,
    NAIVE_ATOM_LIMIT,
    AtomRotation,
    DickeState,
    EnsembleEvolution,
    PhotonRotation,
    _bd0,
    _evolution_block,
    _excitation_order,
    _log_binomial,
    _medium_eigenbasis,
    _sigma_x_basis,
    _stirlerr,
    coherent_dicke_amplitudes,
    dicke_amplitudes_from_naive,
    full_simulate_dicke,
    full_simulate_naive,
    symmetric_rotation,
)
from djensemble.polarization import embed_single, hadamard_variant
from djensemble.protocol import exact_operation_sequence, run_protocol, table1_function, table1_functions
from djensemble.qstate import Operator, StateVector, born_distribution

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


def two_pass_log_binomial(m, n_atoms, lam, mu):
    """Loader's ln b(m; N, p) with each stirlerr and bd0 term in its own pass, N's as a 0-d array."""
    k = n_atoms - m
    with np.errstate(divide="ignore"):
        spread = np.where((m > 0) & (k > 0), np.log(2.0 * math.pi * m * k / n_atoms), 0.0)
    return (
        _stirlerr(np.array(float(n_atoms)))
        - _stirlerr(m)
        - _stirlerr(k)
        - _bd0(m, lam)
        - _bd0(k, mu)
        - 0.5 * spread
    )


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


def unfold_halves(xp, xq):
    """The whole sigma_x eigenbasis from its two scaled half bases, the rotation's unfold column by column.

    Row m and its mirror N - m of a + column are the sum of the two
    placements of xp, so the middle row of even N, stored at 1/2, counts
    twice; a - column has +xq at m and -xq at N - m.
    """
    hp, hq = len(xp), len(xq)
    x = np.zeros((hp + hq, hp + hq))
    x[:hp, :hp] += xp
    x[::-1][:hp, :hp] += xp
    x[:hq, hp:] += xq
    x[::-1][:hq, hp:] -= xq
    return x


class TestSigmaXBasis:
    @pytest.mark.parametrize("n", [1, 2, 7, 512, 1024])
    def test_rebuilds_the_ladder(self, n):
        basis = _sigma_x_basis(n)
        xp, xq, lam, tilt, powers, inverse = basis
        # about half the bytes of the whole basis
        assert xp.shape == (n // 2 + 1,) * 2 and xq.shape == ((n + 1) // 2,) * 2
        np.testing.assert_array_equal(np.sort(lam), 2.0 * np.arange(n + 1) - n)
        x = unfold_halves(xp, xq)
        ladder = np.array([math.sqrt((n - m) * (m + 1)) for m in range(n)])
        sigma_x = np.diag(ladder, 1) + np.diag(ladder, -1)
        np.testing.assert_allclose(x.T @ x, np.eye(n + 1), rtol=0, atol=1e-12)
        # eigh's error grows with the spectral radius N: 1.2e-12 at N = 1024,
        # where one eigh of the whole ladder reads 1.9e-12
        np.testing.assert_allclose((x * lam) @ x.T, sigma_x, rtol=0, atol=1e-12 * max(1, n / 512))
        np.testing.assert_array_equal(tilt, n - 2.0 * np.arange(n + 1))
        np.testing.assert_array_equal(powers, [(1, 1j, -1, -1j)[m % 4] for m in range(n + 1)])
        np.testing.assert_array_equal(inverse, powers.conj())
        assert _sigma_x_basis(n) is basis
        assert not any(arr.flags.writeable for arr in basis)

    def test_build_forms_no_whole_size_matrix(self):
        # one (N+1) x (N+1) float array is 8.4 MB at N = 1024; an eigh of the
        # whole ladder holds it, X and its workspace at once (25 MB), and
        # each half-size eigh about a quarter of that
        n = 1024
        tracemalloc.start()
        try:
            _sigma_x_basis.__wrapped__(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (n + 1) ** 2 * 8

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
    # odd and even N split the sigma_x basis differently
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            u = random_su2(rng)
            built = symmetric_rotation(Operator(ATOM, u), n, np.eye(n + 1))
            np.testing.assert_allclose(built, symmetric_rotation_bruteforce(u, n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_matches_binomial_formula(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            u = random_su2(rng)
            built = symmetric_rotation(Operator(ATOM, u), n, np.eye(n + 1))
            np.testing.assert_allclose(built, symmetric_rotation_binomial(u, n), atol=1e-11)

    def test_global_phase_carried(self):
        phase = np.exp(0.31j)
        u = phase * H1
        built = symmetric_rotation(Operator(ATOM, u), 4, np.eye(5))
        np.testing.assert_allclose(built, phase**4 * symmetric_rotation(Operator(ATOM, H1), 4, np.eye(5)), atol=1e-12)

    def test_transports_coherent_states(self):
        rng = np.random.default_rng(70)
        n = 25
        u = random_su2(rng)
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = vec / np.linalg.norm(vec)
        direct = coherent_dicke_vector(u @ vec, n)
        rotated = symmetric_rotation(Operator(ATOM, u), n, coherent_dicke_vector(vec, n))
        np.testing.assert_allclose(rotated, direct, atol=1e-11)

    def test_near_identity_special_case(self):
        built = symmetric_rotation(Operator(ATOM, -np.eye(2)), 3, np.eye(4))
        np.testing.assert_allclose(built, -np.eye(4), atol=1e-12)

    def test_small_angles_are_not_rounded_away(self):
        # cos t rounds to 1 for t below ~1e-8; the angle must come from sin t
        n = 512
        vec = np.array([0.6, 0.8j])
        nx, ny, nz = 0.48, 0.6, 0.64
        for t in (1e-8, 1e-10, 1e-13):
            c, s = math.cos(t), math.sin(t)
            u = np.array([[c - 1j * s * nz, (-1j * nx - ny) * s], [(-1j * nx + ny) * s, c + 1j * s * nz]])
            rotated = symmetric_rotation(Operator(ATOM, u), n, coherent_dicke_vector(vec, n))
            np.testing.assert_allclose(rotated, coherent_dicke_vector(u @ vec, n), rtol=0, atol=1e-12)
        identity = symmetric_rotation(Operator(ATOM, np.eye(2)), n, coherent_dicke_vector(vec, n))
        np.testing.assert_array_equal(identity, coherent_dicke_vector(vec, n))

    def test_size_guard(self):
        # the limit is checked before the rows are looked at
        with pytest.raises(ValueError, match="limit"):
            symmetric_rotation(Operator(ATOM, H1), 100_000, np.zeros(1))

    @pytest.mark.parametrize("n", [0, -1, 2.0, True], ids=["zero", "negative", "float", "bool"])
    def test_atom_count_is_checked(self, n):
        with pytest.raises(ValueError, match="^n_atoms must be"):
            symmetric_rotation(Operator(ATOM, H1), n, np.eye(2))

    @pytest.mark.parametrize("shape", [(3,), (5,), (3, 4), (5, 4, 1)])
    def test_rows_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="rows must have shape"):
            symmetric_rotation(Operator(ATOM, H1), 3, np.zeros(shape))

    def test_rows_are_not_changed(self):
        rng = np.random.default_rng(72)
        rows = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        before = rows.copy()
        for u in (random_su2(rng), np.eye(2)):
            symmetric_rotation(Operator(ATOM, u), 5, rows)
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
            symmetric_rotation(Operator(ATOM, u), n, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rows.nbytes


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", [AtomRotation, lambda m: PhotonRotation(2, m)], ids=["AtomRotation", "PhotonRotation"])
def test_non_finite_2x2_rejected(build, bad):
    # NaN compares False with the unitarity tolerance, so it must be caught first
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        build(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("build", [AtomRotation, lambda m: PhotonRotation(2, m)], ids=["AtomRotation", "PhotonRotation"])
def test_one_unitarity_rule_for_every_gate(build):
    # U^dag U - I = 2e-11 is over qstate's 1e-12, which every gate is built
    # with; 8e-13 is under it
    with pytest.raises(ValueError, match="unitary"):
        build(H1 * (1.0 + 1e-11))
    build(H1 * (1.0 + 4e-13))


class TestEachGateCheckedOnce:
    """An operation checks its 2x2 when it is built; the replays take its ``gate`` unchecked.

    The kernels that apply a gate take only a built Operator, so a raw
    matrix cannot reach them unchecked.
    """

    @pytest.fixture
    def unitarity_checks(self, monkeypatch):
        calls = []
        post_init = Operator.__post_init__

        def counted(op):
            calls.append(op.dim)
            post_init(op)

        monkeypatch.setattr(Operator, "__post_init__", counted)
        return calls

    @pytest.mark.parametrize("mode, checks", [("exact", [8]), ("paper", [])])
    def test_compact_replay_checks_only_the_exact_medium(self, unitarity_checks, mode, checks):
        # the one check in exact mode is expm_hermitian's result, u_eff_exact
        run_protocol(table1_function("f3"), mode, math.pi / 2)
        assert unitarity_checks == checks

    def test_dicke_replay_checks_nothing(self, unitarity_checks, monkeypatch):
        rng = np.random.default_rng(28)
        ops = [AtomRotation(random_su2(rng)), EnsembleEvolution(0.3), AtomRotation(random_su2(rng)),
               PhotonRotation(1, random_su2(rng)), EnsembleEvolution(0.7), AtomRotation(H1)]
        gates = []
        rotate = manybody.symmetric_rotation

        def spied(u, *args):
            gates.append(u)
            return rotate(u, *args)

        monkeypatch.setattr(manybody, "symmetric_rotation", spied)
        unitarity_checks.clear()  # the checks of building ``ops``
        full_simulate_dicke(5, (0.6, 0.8), ops)
        assert unitarity_checks == []
        assert [type(u) for u in gates] == [Operator, Operator]

    @pytest.mark.parametrize("op", [AtomRotation(H1), PhotonRotation(2, hadamard_variant(2).matrix)],
                             ids=["AtomRotation", "PhotonRotation"])
    def test_gate_and_matrix_give_identical_results(self, op):
        # the kernels read the gate's matrix as built: an Operator rebuilt
        # from ``matrix`` gives the same bits
        assert op.gate.matrix is op.matrix
        rebuilt = Operator(op.gate.space, op.matrix)
        name = "atom" if isinstance(op, AtomRotation) else f"photon{op.photon}"
        assert np.array_equal(embed_single(name, op.gate, PROTOCOL_SPACE).matrix,
                              embed_single(name, rebuilt, PROTOCOL_SPACE).matrix)
        rows = np.random.default_rng(5).normal(size=(8, 4)) + 0j
        assert np.array_equal(symmetric_rotation(op.gate, 7, rows), symmetric_rotation(rebuilt, 7, rows))

    @pytest.mark.parametrize(
        "build, message",
        [(lambda u: embed_single("atom", u, PROTOCOL_SPACE),
          r"^operator dimension 8 does not match subsystem 'atom' of dimension 2$"),
         (lambda u: symmetric_rotation(u, 3, np.eye(4)), r"^operator dimension 8 does not match a single atom's 2$")],
        ids=["embed_single", "symmetric_rotation"],
    )
    def test_wrong_dimension_operator_refused_as_its_matrix_is(self, build, message):
        # a built Operator of the wrong dimension is refused with a ValueError,
        # its matrix with the TypeError of any raw matrix
        u = u_eff_exact(1.0)
        with pytest.raises(ValueError, match=message):
            build(u)
        with pytest.raises(TypeError, match=r"^a gate must be a built Operator, got ndarray$"):
            build(u.matrix)

    @pytest.mark.parametrize(
        "build",
        [lambda u: embed_single("atom", u, PROTOCOL_SPACE), lambda u: symmetric_rotation(u, 3, np.eye(4))],
        ids=["embed_single", "symmetric_rotation"],
    )
    @pytest.mark.parametrize(
        "matrix",
        [H1, H1 * (1.0 + 1e-11), np.array([[math.nan, 0.0], [0.0, 1.0]]), [[1.0, 0.0], [0.0, 1.0]]],
        ids=["unitary", "not-unitary", "nan", "list"],
    )
    def test_raw_matrix_refused(self, build, matrix):
        # unitary or not, a gate that was never built as an Operator is refused
        with pytest.raises(TypeError, match=r"^a gate must be a built Operator, got (ndarray|list)$"):
            build(matrix)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_medium_angle_rejected(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        EnsembleEvolution(theta)


@pytest.mark.parametrize("theta", [None, "0.3", 0.3 + 0j, True], ids=["none", "string", "complex", "bool"])
def test_non_number_medium_angle_rejected(theta):
    with pytest.raises(ValueError, match="^theta must be a real number, got "):
        EnsembleEvolution(theta)


@pytest.mark.parametrize(
    "build", [AtomRotation, lambda m: PhotonRotation(1, m)], ids=["AtomRotation", "PhotonRotation"]
)
def test_rotation_leaves_the_callers_array_writable(build):
    u = np.eye(2, dtype=complex)
    op = build(u)
    u[0, 0] = -1.0
    np.testing.assert_array_equal(op.matrix, np.eye(2))
    assert not op.matrix.flags.writeable


@pytest.mark.parametrize(
    "build", [AtomRotation, lambda m: PhotonRotation(1, m)], ids=["AtomRotation", "PhotonRotation"]
)
def test_rotation_copies_a_frozen_owner(build):
    # numpy lets an array that owns its data turn writing back on
    u = np.eye(2, dtype=complex)
    u.setflags(write=False)
    op = build(u)
    u.setflags(write=True)
    u[:] = [[5.0, 7.0], [7.0, 5.0]]
    for matrix in (op.matrix, op.gate.matrix):
        np.testing.assert_array_equal(matrix, np.eye(2))


@pytest.mark.parametrize(
    "build",
    [lambda: AtomRotation(np.eye(2)), lambda: PhotonRotation(1, np.eye(2)), lambda: DickeState(3, 1, [[0.6, 0.0, 0.8j, 0.0]])],
    ids=["AtomRotation", "PhotonRotation", "DickeState"],
)
def test_equality_is_identity(build):
    value = build()
    assert value == value and value != build()
    assert hash(value) == hash(value)


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

    @pytest.mark.parametrize("n", [6, 10**6])
    @pytest.mark.parametrize("c", [3.0, 1e-3])
    def test_scaled_vector_gives_the_unit_vectors_band(self, n, c):
        # full_simulate_dicke leaves its single-atom vector's norm as its
        # rotations round it; the band is read from the vector at unit norm
        vec = np.array([0.6, 0.8j])
        start, band = coherent_dicke_amplitudes(vec, n)
        scaled_start, scaled = coherent_dicke_amplitudes(c * vec, n)
        assert scaled_start == start
        np.testing.assert_allclose(scaled, band, rtol=0.0, atol=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            coherent_dicke_amplitudes(np.zeros(2), 3)

    def test_stacked_log_binomial_is_the_two_pass_form_bit_for_bit(self):
        # each kernel runs once on its stacked terms; every entry must keep
        # the bits of the form that ran one pass per term
        rng = np.random.default_rng(280)
        for _ in range(280):
            n = int(10.0 ** rng.uniform(0.0, 9.0))
            p = rng.choice([rng.uniform(), 10.0 ** rng.uniform(-12.0, -1.0), 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)])
            q = 1.0 - p
            # the band search's first window: its two ends and 256 entries between them
            mode, half = min(n, int((n + 1) * p)), 32 + int(56.0 * math.sqrt(n * p * q))
            lo, hi = max(0, mode - half), min(n + 1, mode + half + 1)
            ends = np.r_[lo : min(lo + 64, hi), max(hi - 64, lo) : hi]
            m = np.unique(np.concatenate([ends, rng.integers(lo, hi, 256)])).astype(float)
            stacked = _log_binomial(m, n, n * p, n * q)
            assert stacked.tobytes() == two_pass_log_binomial(m, n, n * p, n * q).tobytes(), (n, p)

    @pytest.mark.parametrize("vec", [[math.inf, 1.0], [math.nan, 0.0], [1.0, complex(math.nan, 0.0)]],
                             ids=["inf", "nan", "complex-nan"])
    def test_non_finite_vector_rejected(self, vec):
        # [inf, 1] gave NaN amplitudes and [nan, 0] failed converting NaN to an integer
        with pytest.raises(ValueError, match="^the single-atom vector must be nonzero with a finite norm$"):
            coherent_dicke_amplitudes(np.array(vec), 3)

    @pytest.mark.parametrize(
        "read",
        [lambda vec: coherent_dicke_amplitudes(vec, 4), lambda vec: DickeState(4, 0, [[1, 0, 0, 0]], vec)],
        ids=["coherent_dicke_amplitudes", "DickeState"],
    )
    @pytest.mark.parametrize(
        "vec,shape",
        [(np.array([0.6, 0.8, 5.0]), r"\(3,\)"), ((0.6,), r"\(1,\)"), ([[0.6, 0.8], [0.0, 1.0]], r"\(2, 2\)")],
        ids=["three-vector", "one-vector", "two-by-two"],
    )
    def test_vector_of_another_shape_is_refused(self, read, vec, shape):
        # the band of (0.6, 0.8) came back for three entries; one entry or a
        # 2 x 2 list raised IndexError, TypeError or an unpacking error
        with pytest.raises(ValueError, match=f"^the single-atom vector must be a 2-vector, got shape {shape}$"):
            read(vec)

    @pytest.mark.parametrize(
        "n_atoms,message",
        [(2.5, "^n_atoms must be an integer, got 2.5$"), (True, "^n_atoms must be an integer, got True$"),
         ("3", "^n_atoms must be an integer, got '3'$"), (0, "^n_atoms must be at least 1, got 0$"),
         (-3, "^n_atoms must be at least 1, got -3$")],
        ids=["fraction", "bool", "string", "zero", "negative"],
    )
    def test_bad_atom_count_rejected(self, n_atoms, message):
        # the same messages as full_simulate_dicke, before any arithmetic on N
        with pytest.raises(ValueError, match=message):
            coherent_dicke_amplitudes(np.array([0.6, 0.8]), n_atoms)

    def test_numpy_integer_atom_count_gives_the_binomial_band(self):
        start, band = coherent_dicke_amplitudes(np.array([0.6, 0.8]), np.int64(3))
        assert start == 0
        binomial = [math.comb(3, m) * 0.64**m * 0.36 ** (3 - m) for m in range(4)]
        np.testing.assert_allclose(np.abs(band) ** 2, binomial, rtol=1e-12)

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

    @pytest.mark.parametrize("simulate", [full_simulate_naive, full_simulate_dicke])
    @pytest.mark.parametrize("n_atoms", [True, 2.5, 3.0, "3"])
    def test_non_integer_atom_count_rejected(self, simulate, n_atoms):
        with pytest.raises(ValueError, match=f"^n_atoms must be an integer, got {n_atoms!r}$"):
            simulate(n_atoms, (0.0, 1.0), [])

    @pytest.mark.parametrize("simulate", [full_simulate_naive, full_simulate_dicke])
    def test_numpy_integer_atom_count_accepted(self, simulate):
        ops = [AtomRotation(H1), EnsembleEvolution(0.3), PhotonRotation(2, H1)]
        np.testing.assert_array_equal(
            simulate(np.int64(3), (0.0, 1.0), ops).amplitudes, simulate(3, (0.0, 1.0), ops).amplitudes
        )

    def test_apply_per_atom_prepares_plain_extreme(self):
        # H1 on every atom takes (|g> - |g'>)/sqrt2 to the plain extreme
        out = full_simulate_dicke(5, np.array([1.0, -1.0]) / SQRT2, [AtomRotation(H1)])
        expected = np.zeros(6 * 4)
        expected[0] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_apply_per_atom_identity(self):
        amps = coherent_dicke_vector(np.array([0.6, 0.8]), 6)
        np.testing.assert_allclose(symmetric_rotation(Operator(ATOM, np.eye(2)), 6, amps), amps, atol=1e-12)

    def test_rotation_from_full_extreme(self):
        out = full_simulate_dicke(5, (0.0, 1.0), [AtomRotation(H1)])
        expected = coherent_dicke_vector(np.array([-1.0, 1.0]) / SQRT2, 5)
        np.testing.assert_allclose(out.amplitudes.reshape(6, 4)[:, 0], expected, atol=1e-14)

    def test_dicke_rotation_matches_product_route(self):
        vec = np.array([0.6, 0.8j])
        rng = np.random.default_rng(71)
        u = random_su2(rng)
        via_dicke = symmetric_rotation(Operator(ATOM, u), 7, coherent_dicke_vector(vec, 7))
        via_product = coherent_dicke_vector(u @ vec, 7)
        np.testing.assert_allclose(via_dicke, via_product, atol=1e-11)


class TestNaiveSimulator:
    def test_atom_cap(self):
        with pytest.raises(ValueError, match="capped"):
            full_simulate_naive(13, (0.0, 1.0), [])

    def test_single_atom_matches_collective_model(self):
        u = u_eff_exact(math.pi / 2).matrix
        for level in (0, 1):
            atom = np.zeros(2)
            atom[level] = 1.0
            naive = full_simulate_naive(1, atom, [EnsembleEvolution(math.pi / 2)])
            collective_in = np.kron(atom, [1.0, 0.0, 0.0, 0.0])
            np.testing.assert_allclose(naive.amplitudes, u @ collective_in, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_extreme_atoms_match_collective_marginals(self, n):
        u = u_eff_exact(math.pi / 2).matrix
        rng = np.random.default_rng(80 + n)
        # the photons start horizontal; random rotations give a random product input
        u1, u2 = random_su2(rng), random_su2(rng)
        photons = np.kron(u1[:, 0], u2[:, 0])
        ops = [PhotonRotation(1, u1), PhotonRotation(2, u2), EnsembleEvolution(math.pi / 2)]
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
        atom = np.array([1.0, -1.0]) / SQRT2
        naive = full_simulate_naive(3, atom, [EnsembleEvolution(math.pi / 2)])
        assert atom_photon_schmidt_values(naive, 3)[1] > 0.1

    def test_extreme_atoms_do_not_entangle(self):
        naive = full_simulate_naive(3, (1.0, 0.0), [EnsembleEvolution(math.pi / 2)])
        svals = atom_photon_schmidt_values(naive, 3)
        assert svals[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(svals[1:] < 1e-12)


class TestNaiveKernels:
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_stacked_blocks_match_per_configuration_calls(self, n):
        for lam_t in (0.13, -2.9):
            stacked = _evolution_block(lam_t, n)
            assert stacked.shape == (n + 1, 4, 4)
            for k in range(n + 1):
                w, v = np.linalg.eigh((n - k) * manybody._GEN_PLUS + k * manybody._GEN_MINUS)
                block = v @ np.diag(np.exp(-1j * lam_t * w)) @ v.conj().T
                np.testing.assert_allclose(stacked[k], block, rtol=0, atol=1e-15)

    def test_scalar_call_returns_one_block(self):
        block = _evolution_block(0.4, 5)[2]
        assert block.shape == (4, 4)
        np.testing.assert_allclose(block.conj().T @ block, np.eye(4), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, NAIVE_ATOM_LIMIT + 1))
    def test_medium_eigenbasis_is_built_once_and_read_only(self, n):
        basis = _medium_eigenbasis(n)
        assert _medium_eigenbasis(n) is basis
        w, v, vh = basis
        assert w.shape == (n + 1, 4) and v.shape == vh.shape == (n + 1, 4, 4)
        for arr in basis:
            assert not arr.flags.writeable
        np.testing.assert_array_equal(vh, v.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("n", range(1, NAIVE_ATOM_LIMIT + 1))
    def test_product_start_equals_the_tensordot_chain(self, n):
        rng = np.random.default_rng(100 + n)
        atom = rng.normal(size=2) + 1j * rng.normal(size=2)
        atom /= np.linalg.norm(atom)
        expected = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex).reshape(2, 2)
        for _ in range(n):
            expected = np.tensordot(atom, expected, axes=0)
        start = full_simulate_naive(n, atom, []).amplitudes
        assert np.array_equal(start, expected.reshape(-1))

    def test_space_labels_are_built_once_per_n(self):
        assert manybody.naive_space(7) is manybody.naive_space(7)
        assert manybody.dicke_space(10**6) is manybody.dicke_space(10**6)
        assert manybody.naive_space(2).dims == (2, 2, 2, 2)
        assert manybody.dicke_space(5).dims == (6, 2, 2)

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


def dense_reference(n, atom, ops):
    """The unreduced replay as dense matrices on the whole 2^N x 4 space: u^(x)N (x) I4 for an
    atom rotation, I (x) the pair gate for a photon rotation, and the medium as one 4 x 4 block
    per atomic configuration, each from its own eigh."""
    i2 = np.eye(2)
    gen_plus = np.kron(P_PLUS_ORACLE, i2) + np.kron(i2, P_PLUS_ORACLE)
    gen_minus = np.kron(P_MINUS_ORACLE, i2) + np.kron(i2, P_MINUS_ORACLE)
    state = np.array([1.0 + 0j])
    for _ in range(n):
        state = np.kron(state, atom)
    state = np.kron(state, [1.0, 0.0, 0.0, 0.0])
    for op in ops:
        if isinstance(op, AtomRotation):
            power = np.array([[1.0]])
            for _ in range(n):
                power = np.kron(power, op.matrix)
            matrix = np.kron(power, np.eye(4))
        elif isinstance(op, PhotonRotation):
            pair = np.kron(op.matrix, i2) if op.photon == 1 else np.kron(i2, op.matrix)
            matrix = np.kron(np.eye(2**n), pair)
        else:
            matrix = np.zeros((4 * 2**n, 4 * 2**n), dtype=complex)
            for row in range(2**n):
                m = bin(row).count("1")
                w, v = np.linalg.eigh((n - m) * gen_plus + m * gen_minus)
                block = (v * np.exp(-1j * op.theta / n * w)) @ v.conj().T
                matrix[4 * row : 4 * row + 4, 4 * row : 4 * row + 4] = block
        state = matrix @ state
    return state


# Gate patterns: A an atom rotation, 1 and 2 a rotation of that photon, M a
# medium step. Gates before the first medium step act on the product, those
# after it on the 2^N x 4 amplitudes.
DEFERRAL_PATTERNS = {
    "empty": "",
    "no-medium": "A1A2",
    "one-medium": "A12AM2A1",
    "two-media": "1AM2AM1A2",
    "medium-first": "MA1",
}


def pattern_ops(pattern, rng):
    """The gates of a pattern, each unitary and angle drawn from ``rng``."""
    ops = []
    for gate in pattern:
        if gate == "A":
            ops.append(AtomRotation(random_su2(rng)))
        elif gate == "M":
            ops.append(EnsembleEvolution(rng.uniform(-7.0, 7.0)))
        else:
            ops.append(PhotonRotation(int(gate), random_su2(rng)))
    return ops


class TestNaiveDeferral:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", DEFERRAL_PATTERNS)
    def test_matches_the_dense_reference(self, n, name):
        rng = np.random.default_rng([n, list(DEFERRAL_PATTERNS).index(name)])
        atom = rng.normal(size=2) + 1j * rng.normal(size=2)
        atom /= np.linalg.norm(atom)
        ops = pattern_ops(DEFERRAL_PATTERNS[name], rng)
        naive = full_simulate_naive(n, atom, ops)
        np.testing.assert_allclose(naive.amplitudes, dense_reference(n, atom, ops), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ["empty", "no-medium", "two-media"])
    def test_the_product_is_expanded_once(self, monkeypatch, name):
        calls = []
        original = manybody._naive_product

        def counted(single, photons, n_atoms):
            calls.append(n_atoms)
            return original(single, photons, n_atoms)

        monkeypatch.setattr(manybody, "_naive_product", counted)
        full_simulate_naive(3, (0.6, 0.8), pattern_ops(DEFERRAL_PATTERNS[name], np.random.default_rng(5)))
        assert calls == [3]

    def test_unknown_operation_rejected_before_and_after_the_expansion(self):
        for ops in ([object()], [EnsembleEvolution(0.3), object()]):
            with pytest.raises(TypeError, match="^unknown operation"):
                full_simulate_naive(2, (1.0, 0.0), ops)


class TestPairGate:
    @pytest.mark.parametrize("photon", [1, 2])
    def test_pair_gate_is_read_only_and_equals_the_kron_form(self, photon):
        rng = np.random.default_rng(photon)
        op = PhotonRotation(photon, random_su2(rng))
        assert not op.pair.flags.writeable
        expected = np.kron(op.matrix, np.eye(2)) if photon == 1 else np.kron(np.eye(2), op.matrix)
        assert np.array_equal(op.pair, expected)

    def test_repr_sees_only_photon_and_matrix(self):
        op = PhotonRotation(1, H1)
        assert repr(op) == f"PhotonRotation(photon=1, matrix={op.matrix!r})"

    @pytest.mark.parametrize(
        "photon,message",
        [(1.0, "^photon must be an integer, got 1.0$"), (True, "^photon must be an integer, got True$"),
         (0, "^photon must be at least 1, got 0$"), (3, "^photon must be 1 or 2, got 3$")],
        ids=["float", "bool", "zero", "three"],
    )
    def test_bad_photon_index_is_named(self, photon, message):
        # 1.0 rotated photon 1 in the naive replay but was an unknown subsystem in the compact one
        with pytest.raises(ValueError, match=message):
            PhotonRotation(photon, H1)


class TestDickeSimulator:
    @pytest.mark.parametrize("fid", [f.id for f in table1_functions()])
    def test_protocol_sequences_match_naive(self, fid):
        ops = exact_operation_sequence(table1_function(fid), math.pi / 2)
        for n in (1, 2, 4, 8, 12):
            naive = full_simulate_naive(n, (0.0, 1.0), ops)
            dicke = full_simulate_dicke(n, (0.0, 1.0), ops)
            extracted = dicke_amplitudes_from_naive(naive, n).reshape(-1)
            np.testing.assert_allclose(extracted, dicke.amplitudes, atol=1e-10)

    def test_non_extreme_evolution_matches_naive(self):
        ops = [AtomRotation(H1), EnsembleEvolution(math.pi / 2)]
        for n in (2, 5, 9):
            naive = full_simulate_naive(n, (0.0, 1.0), ops)
            dicke = full_simulate_dicke(n, (0.0, 1.0), ops)
            extracted = dicke_amplitudes_from_naive(naive, n).reshape(-1)
            np.testing.assert_allclose(extracted, dicke.amplitudes, atol=1e-10)

    def test_rotation_after_entangling_evolution(self):
        # forces the dense symmetric rotation on the general representation
        rng = np.random.default_rng(90)
        u = random_su2(rng)
        ops = [AtomRotation(H1), EnsembleEvolution(math.pi / 2), AtomRotation(u), PhotonRotation(1, H1)]
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
        # each gate is 8e-13 off unitary, inside the 1e-12 every gate is built
        # with, but ten of them drift the squared norm by 8e-12, over
        # StateVector's 1e-12
        drift = PhotonRotation(1, (1.0 + 4e-13) * np.eye(2))
        with pytest.raises(ValueError, match="normalized"):
            full_simulate_dicke(4, (0.0, 1.0), [drift] * 10)

    def test_product_shortcut_inside_the_extreme_rule(self, monkeypatch):
        # |beta| = 5e-13 passes the 1e-12 extreme rule, so the medium step
        # phases the product form; forced through the coherent band's rows,
        # the run differs by about 2 theta |beta| / sqrt(N), 2e-15 here
        n, beta = 10**6, 5e-13
        atom = (math.sqrt(1.0 - beta**2), beta)
        ops = [PhotonRotation(1, H1), EnsembleEvolution(math.pi / 2), PhotonRotation(2, H1)]
        phased_rows = []
        medium_phase = manybody._medium_phase
        monkeypatch.setattr(
            manybody, "_medium_phase", lambda rows, *a: (phased_rows.append(len(rows)), medium_phase(rows, *a))
        )
        shortcut = full_simulate_dicke(n, atom, ops).amplitudes.reshape(n + 1, 4)
        assert phased_rows == [1]
        monkeypatch.setattr(manybody, "collective_extreme", lambda amplitudes: None)
        general = full_simulate_dicke(n, atom, ops).amplitudes.reshape(n + 1, 4)
        # the general step phases the band's rows and none of the zeros past it
        _, band = coherent_dicke_amplitudes(np.array(atom, dtype=complex), n)
        assert sum(phased_rows) == 1 + len(band)
        # both bands are a few rows at m = 0; every row past them is exactly 0
        assert np.max(np.abs(shortcut[:64] - general[:64])) <= 1e-10
        assert not shortcut[64:].any() and not general[64:].any()

    @pytest.mark.parametrize(
        "n,ops",
        [
            (10**6, exact_operation_sequence(table1_function("f3"), math.pi / 2)),
            (6, [AtomRotation(H1), EnsembleEvolution(0.7), PhotonRotation(1, H1), EnsembleEvolution(0.7)]),
        ],
        ids=["f3-at-a-million-atoms", "off-extreme-at-six-atoms"],
    )
    def test_coherent_rows_are_written_once(self, monkeypatch, n, ops):
        # the product state is written out at its first off-extreme medium
        # step or when its dense amplitudes are asked for, never both
        calls = []
        amplitudes = manybody.coherent_dicke_amplitudes
        monkeypatch.setattr(
            manybody, "coherent_dicke_amplitudes", lambda *a: (calls.append(a[1]), amplitudes(*a))[1]
        )
        state = full_simulate_dicke(n, (0.0, 1.0), ops)
        assert calls == ([] if state.atom is not None else [n])
        state.amplitudes
        assert calls == [n]

    @pytest.mark.parametrize("fid", [f.id for f in table1_functions() if f.classification == "balanced"])
    def test_balanced_functions_phase_one_row_per_medium_step(self, monkeypatch, fid):
        # with the atoms at an extreme, each medium step phases the product
        # state's one row, never the (N+1) x 4 rows
        n = 10**6
        ops = exact_operation_sequence(table1_function(fid), math.pi / 2)
        phased_rows = []
        medium_phase = manybody._medium_phase
        monkeypatch.setattr(
            manybody, "_medium_phase", lambda rows, *a: (phased_rows.append(len(rows)), medium_phase(rows, *a))
        )
        full_simulate_dicke(n, (0.0, 1.0), ops)
        steps = sum(isinstance(op, EnsembleEvolution) for op in ops)
        assert steps >= 1 and phased_rows == [1] * steps

    def test_off_extreme_medium_step_phases_only_the_band(self, monkeypatch):
        # the band is about 110 sqrt(N p q) = 53,000 rows at N = 10^6, p = 0.64
        phased_rows = []
        medium_phase = manybody._medium_phase
        monkeypatch.setattr(
            manybody, "_medium_phase", lambda rows, *a: (phased_rows.append(len(rows)), medium_phase(rows, *a))
        )
        full_simulate_dicke(10**6, (0.6, 0.8), [EnsembleEvolution(0.3)])
        assert 0 < sum(phased_rows) < 10**5

    @pytest.mark.parametrize(
        "n,atom,ops",
        [
            (10**5, (0.6, 0.8), [EnsembleEvolution(0.7), PhotonRotation(1, H1), EnsembleEvolution(-0.3)]),
            (6, (0.6, 0.8), [EnsembleEvolution(0.7), AtomRotation(H1), PhotonRotation(1, H1), EnsembleEvolution(0.7)]),
        ],
        ids=["off-extreme-at-1e5-atoms", "padded-for-a-rotation-at-six-atoms"],
    )
    @pytest.mark.parametrize("names", [("photon1", "photon2"), ("photon2", "photon1"), ("photon2",)])
    def test_banded_marginal_is_the_whole_states_bit_for_bit(self, n, atom, ops, names):
        banded = full_simulate_dicke(n, atom, ops)
        assert banded.atom is None
        whole = StateVector(banded.space, banded.amplitudes)
        assert born_distribution(banded, names) == born_distribution(whole, names)

    def test_band_marginal_is_unchanged_on_the_random_check_sequences(self):
        # verify's off-extreme sequences end in the band form; its marginal
        # keeps the bits of the dense state's, which the banded state had
        rng = np.random.default_rng(2011)
        for n in (2, 3, 4, 5, 6, 2, 3, 4):
            state = full_simulate_dicke(n, (0.0, 1.0), checks._random_off_extreme_sequence(rng))
            assert state.atom is None
            for names in (("photon1", "photon2"), ("photon2", "photon1"), ("photon1",)):
                whole = StateVector(state.space, state.amplitudes)
                assert born_distribution(state, names) == born_distribution(whole, names)

    @pytest.mark.parametrize(
        "n,atom,ops",
        [
            (10**6, (0.0, 1.0), exact_operation_sequence(table1_function("f3"), math.pi / 2)),
            (1024, (0.6, 0.8j), [AtomRotation(H1), PhotonRotation(1, H1), PhotonRotation(2, H1)]),
            (7, (0.0, 1.0), exact_operation_sequence(table1_function("f1"), math.pi / 2)),
            (1, (1.0, 0.0), [PhotonRotation(1, H1), EnsembleEvolution(0.7), PhotonRotation(2, H1)]),
        ],
        ids=["f3-at-a-million-atoms", "rotated-at-1024-atoms", "f1-at-seven-atoms", "extreme-medium-at-one-atom"],
    )
    @pytest.mark.parametrize("names", [("photon1", "photon2"), ("photon2", "photon1"), ("photon2",)])
    def test_product_marginal_is_its_dense_expansions(self, n, atom, ops, names):
        # the product form is marginalized as |pair|^2; its dense expansion
        # sums the coherent band's weights, 1 to rounding, against it
        product = full_simulate_dicke(n, atom, ops)
        assert product.atom is not None and product.rows.shape == (1, 4)
        dist = born_distribution(product, names)
        expanded = born_distribution(StateVector(product.space, product.amplitudes), names)
        assert dist.keys() == expanded.keys()
        assert max(abs(dist[k] - expanded[k]) for k in dist) <= 1e-15

    @pytest.mark.parametrize("n", range(1, NAIVE_ATOM_LIMIT + 1))
    def test_product_marginal_matches_naive(self, n):
        # with the atoms at an extreme the naive state has one nonzero row, so
        # the two differ by the two medium kernels' rounding (1.1e-15 here);
        # the catalog's atom rotations leave the naive replay itself up to
        # 5.7e-15 off the compact run at N <= 12, the product form 6.7e-16
        rng = np.random.default_rng([77, n])
        cases = [(np.eye(2)[level], [PhotonRotation(1, random_su2(rng)), PhotonRotation(2, random_su2(rng)),
                                     EnsembleEvolution(0.7), PhotonRotation(1, random_su2(rng))], 2e-15)
                 for level in (0, 1)]
        cases += [((0.0, 1.0), exact_operation_sequence(f, math.pi / 2), 1e-14) for f in table1_functions()]
        for atom, ops, tol in cases:
            product = full_simulate_dicke(n, atom, ops)
            assert product.atom is not None
            naive = born_distribution(full_simulate_naive(n, atom, ops), ("photon1", "photon2"))
            dist = born_distribution(product, ("photon1", "photon2"))
            assert max(abs(dist[k] - naive[k]) for k in naive) <= tol

    @pytest.mark.parametrize("n", [10**9, 10**12])
    def test_catalog_at_a_billion_atoms_and_more_matches_the_compact_run(self, n):
        # every catalog medium step finds the atoms at an extreme, so the run
        # ends as its product form and no row of the N + 1 is written
        for f in table1_functions():
            dicke = full_simulate_dicke(n, (0.0, 1.0), exact_operation_sequence(f, math.pi / 2))
            assert dicke.atom is not None
            marginal = born_distribution(dicke, ("photon1", "photon2"))
            compact = run_protocol(f, "exact", math.pi / 2).distribution()
            assert max(abs(marginal[k] - compact[k]) for k in compact) <= 1e-15, f.id

    @pytest.mark.parametrize("n", [DENSE_STATE_LIMIT + 1, 10**9])
    def test_dense_request_past_the_limit_names_n(self, n):
        state = full_simulate_dicke(n, (0.0, 1.0), exact_operation_sequence(table1_function("f3"), math.pi / 2))
        with pytest.raises(ValueError, match=f"^dense amplitudes requested for {n} atoms; limit is {DENSE_STATE_LIMIT}$"):
            state.amplitudes

    @pytest.mark.parametrize("c", [3.0, 1e-3])
    def test_product_form_reads_its_atom_at_unit_norm(self, c):
        # the dense amplitudes of a scaled atom are the unit atom's, at unit norm
        pair = np.array([[0.6, 0.0, 0.0, 0.8j]])
        unit = DickeState(6, 0, pair, np.array([0.6, 0.8j]))
        scaled = DickeState(6, 0, pair, c * np.array([0.6, 0.8j]))
        np.testing.assert_allclose(scaled.amplitudes, unit.amplitudes, rtol=0.0, atol=1e-14)
        assert abs(np.vdot(scaled.amplitudes, scaled.amplitudes).real - 1.0) <= 1e-14

    @pytest.mark.parametrize("atom", [(0, 0), (math.nan, 1), (math.inf, 0)], ids=["zero", "nan", "inf"])
    def test_product_form_refuses_an_atom_it_cannot_read(self, atom):
        # the atom is checked by coherent_dicke_amplitudes' rule when the state
        # is built, not first when its dense amplitudes are requested
        with pytest.raises(ValueError, match="^the single-atom vector must be nonzero with a finite norm$"):
            DickeState(10, 0, [[1, 0, 0, 0]], atom)

    def test_product_form_names_its_first_row(self):
        with pytest.raises(ValueError, match="^a product form's first must be 0, got 7$"):
            DickeState(10, 7, [[1, 0, 0, 0]], (1, 0))

    def test_rotation_limit_is_checked_before_the_band_is_padded(self):
        # the band after an off-extreme medium step at N = 10^12 is a few
        # hundred rows; padding it to N + 1 rows would need 58 TiB
        n, atom = 10**12, np.array([1.0, 1e-5]) / math.hypot(1.0, 1e-5)
        with pytest.raises(ValueError, match=f"^dense symmetric rotation requested for {n} atoms; limit is 1024$"):
            full_simulate_dicke(n, atom, [EnsembleEvolution(0.3), AtomRotation(H1)])

    def test_rotation_pads_the_band_at_its_excitation_numbers(self, monkeypatch):
        # near the primed extreme the band is the top few dozen of 1001 rows;
        # the same run with the band spelled out over every row from the start
        # must give the same bits
        n, atom = 1000, (1e-6, math.sqrt(1.0 - 1e-12))
        ops = [EnsembleEvolution(0.7), AtomRotation(H1), EnsembleEvolution(0.3), PhotonRotation(1, H1)]
        banded = full_simulate_dicke(n, atom, ops)
        amplitudes = manybody.coherent_dicke_amplitudes
        starts = []

        def whole(single, n_atoms):
            start, band = amplitudes(single, n_atoms)
            starts.append(start)
            rows = np.zeros(n_atoms + 1, dtype=complex)
            rows[start : start + len(band)] = band
            return 0, rows

        monkeypatch.setattr(manybody, "coherent_dicke_amplitudes", whole)
        dense = full_simulate_dicke(n, atom, ops)
        assert starts[0] > 900
        assert np.array_equal(banded.amplitudes, dense.amplitudes)

    def test_catalog_at_a_hundred_million_atoms_matches_the_compact_run(self):
        # the state is 6.4 GB of zeros about a band of a few dozen rows; only
        # the band is written or read
        n = 10**8
        for f in table1_functions():
            dicke = full_simulate_dicke(n, (0.0, 1.0), exact_operation_sequence(f, math.pi / 2))
            marginal = born_distribution(dicke, ("photon1", "photon2"))
            del dicke
            compact = run_protocol(f, "exact", math.pi / 2).distribution()
            assert max(abs(marginal[k] - compact[k]) for k in compact) <= 1e-10, f.id

    def test_off_extreme_medium_step_at_a_million_atoms(self):
        # the coherent amplitudes' norm drift once made this state fail
        # StateVector's normalization check
        out = full_simulate_dicke(10**6, (0.6, 0.8), [EnsembleEvolution(0.3)])
        assert sum(born_distribution(out, ("photon1", "photon2")).values()) == pytest.approx(1.0, abs=1e-12)

    def test_medium_step_memory_stays_near_the_state(self):
        # the medium step works on the band's rows alone: at N = 3e5 the
        # 28,960 band rows fit one 2^16-row block and the run peaks at 0.28x
        # the dense N + 1 rows, which are built only when asked for, after it
        tracemalloc.start()
        try:
            out = full_simulate_dicke(3 * 10**5, (0.6, 0.8), [EnsembleEvolution(0.3)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * out.amplitudes.nbytes

    @pytest.mark.parametrize("n", [2000, 10**5])
    def test_medium_step_blocks_phase_their_own_rows(self, monkeypatch, n):
        # 7-row blocks put each block's offset into m; the default block holds
        # the whole band (1,905 rows at N = 2000, 16,672 at N = 10^5)
        ops = [EnsembleEvolution(0.3), PhotonRotation(1, H1), EnsembleEvolution(0.7),
               PhotonRotation(2, H1), EnsembleEvolution(1.1)]
        whole = full_simulate_dicke(n, (0.6, 0.8), ops)
        monkeypatch.setattr(manybody, "_ROW_BLOCK", 7)
        blocked = full_simulate_dicke(n, (0.6, 0.8), ops)
        assert blocked.first == whole.first
        np.testing.assert_allclose(blocked.rows, whole.rows, rtol=0, atol=1e-15)
        names = ("photon1", "photon2")
        expected = list(born_distribution(whole, names).values())
        np.testing.assert_allclose(list(born_distribution(blocked, names).values()), expected, rtol=0, atol=1e-15)

    def test_replay_peak_memory_stays_below_the_dense_rows(self):
        # the result takes the band's rows, widened by band_rows, and no
        # dense array: at N = 10^6 the run peaks at 0.15x the 64 MB dense
        # rows, where writing them during the run would read 1x or more
        tracemalloc.start()
        try:
            out = full_simulate_dicke(10**6, (0.6, 0.8), [EnsembleEvolution(0.3)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * out.amplitudes.nbytes

    def test_result_is_read_only(self):
        out = full_simulate_dicke(5, (0.6, 0.8), [EnsembleEvolution(0.3), AtomRotation(H1)])
        assert not out.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            out.amplitudes[0] = 0.0

    @pytest.mark.parametrize("names", [("photon1", "photon2"), ("photon2", "photon1")])
    def test_million_atom_photon_marginal_matches_literal_sum(self, names):
        ops = exact_operation_sequence(table1_function("f3"), math.pi / 2)
        dicke = full_simulate_dicke(10**6, (0.0, 1.0), ops)
        probs = (np.abs(dicke.amplitudes) ** 2).reshape(-1, 2, 2).sum(axis=0)
        expected = probs if names == ("photon1", "photon2") else probs.T
        dist = born_distribution(dicke, names)
        np.testing.assert_allclose(list(dist.values()), expected.reshape(-1), rtol=0, atol=1e-15)

    def test_large_ensemble_protocol_matches_collective(self):
        from djensemble.protocol import run_protocol

        f = table1_function("f3")
        dicke = full_simulate_dicke(100_000, (0.0, 1.0), exact_operation_sequence(f, math.pi / 2))
        trace = run_protocol(f, "exact", math.pi / 2)
        marg_d = born_distribution(dicke, ("photon1", "photon2"))
        marg_c = trace.distribution()
        for key in marg_c:
            assert marg_d[key] == pytest.approx(marg_c[key], abs=1e-10)

    def test_rejects_an_unknown_operation_on_the_product_and_on_the_rows(self):
        # off the extremes the first medium step writes the rows
        for ops in ([object()], [EnsembleEvolution(0.3), object()]):
            with pytest.raises(TypeError, match="^unknown operation <object object"):
                full_simulate_dicke(2, (0.6, 0.8), ops)
