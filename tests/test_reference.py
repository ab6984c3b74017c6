"""bicorr's float results against the exact values of tests/reference.py.

The rank verdict reads sigma_max(C), which for a pure state is its concurrence.  Each float
sigma_max is asserted within a written bound of the exact concurrence of the amplitudes it was
computed from, decided in rational arithmetic, so no float rounding enters the judgement.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import concurrence_squared, within

from bicorr import states
from bicorr.qstate import density_from_pure

EPS = Fraction(2.0**-52)
# sigma_max(C) is within K_SIGMA_MAX eps of the concurrence: the worst error seen was 2.19 eps,
# on 10,000 Haar, 10,000 product and 2,000 weak states, and a cut of 2e-9 is 4.5e6 times this.
K_SIGMA_MAX = 4


def _far_from_the_reference(psi: np.ndarray) -> list[int]:
    """The rows of psi whose sigma_max(C) is not within K_SIGMA_MAX eps of the concurrence."""
    sigma_max = density_from_pure(psi).singular_values[..., 0].reshape(-1).tolist()
    bound = K_SIGMA_MAX * EPS
    rows = zip(psi.reshape(-1, 4).tolist(), sigma_max)
    return [i for i, (p, s) in enumerate(rows) if not within(s, concurrence_squared(p), bound)]


def test_the_reference_is_exact_on_known_states():
    assert concurrence_squared([1.0, 0.0, 0.0, 0.0]) == 0
    assert concurrence_squared(states.bell_state("psi-").tolist()) == 1
    # Unnormalized amplitudes name the normalized state: (1, 1, 1, 1) is a product state, and
    # (1, 0, 0, 2)/sqrt(5) has concurrence 2 * 2/5.
    assert concurrence_squared([1.0, 1.0, 1.0, 1.0]) == 0
    assert concurrence_squared([1.0, 0.0, 0.0, 2.0]) == Fraction(16, 25)
    assert concurrence_squared([1j, 0.0, 0.0, 2.0]) == Fraction(16, 25)
    # The float 0.8 is 4/5 + 0.2 eps, and 0.8 + 2e-16 is 4/5 + 1.2 eps.
    assert within(0.8, Fraction(16, 25), EPS) and not within(0.8, Fraction(16, 25), 0 * EPS)
    assert not within(0.8 + 2e-16, Fraction(16, 25), EPS)
    assert within(1e-300, Fraction(0), EPS) and not within(1e-15, Fraction(0), EPS)


def test_sigma_max_is_the_concurrence_within_its_bound():
    t = np.geomspace(1e-12, np.pi / 4, 2000)  # cos t|00> + sin t|11>, concurrence sin 2t
    zeros = np.zeros_like(t)
    for psi in (
        states.haar_random_pure(range(10_000)),
        states.random_product_pure(range(10_000)),
        np.stack([np.cos(t), zeros, zeros, np.sin(t)], axis=-1),
    ):
        assert _far_from_the_reference(psi) == []


parts = st.floats(-1.0, 1.0, allow_subnormal=True)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(re=st.lists(parts, min_size=4, max_size=4), im=st.lists(parts, min_size=4, max_size=4),
       off=st.floats(-4e-10, 4e-10))
def test_any_valid_amplitudes_have_sigma_max_within_its_bound(re, im, off):
    # Any amplitudes whose norm^2 is within NORM_TOL of 1, off it by up to about 8e-10.
    psi = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(psi)
    assume(norm > 0.0)
    psi = psi / norm * np.sqrt(1.0 + off)
    assume(abs(np.vdot(psi, psi).real - 1.0) <= 9e-10)
    assert _far_from_the_reference(psi) == []
