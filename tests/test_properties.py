"""Property tests: the Dicke simulator against the unreduced one on random sequences."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from djensemble.manybody import (
    AtomRotation,
    EnsembleEvolution,
    PhotonRotation,
    dicke_amplitudes_from_naive,
    full_simulate_dicke,
    full_simulate_naive,
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
