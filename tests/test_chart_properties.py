"""Property tests of the shared chart and two-term evaluator.

Derandomized: hypothesis draws the same examples on every run, so the
suite stays deterministic.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewave import bound_edge as be
from edgewave import sommerfeld

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)

alphas = st.floats(0.5, 2.0)
# k/alpha on either side of the branch point k = alpha, kept away from it
ratios = st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 2.5))


@PROPERTY
@given(k=st.floats(0.2, 3.0), a=st.floats(0.0, 2.0))
def test_two_term_vanishes_on_both_faces(k, a):
    X = a + np.geomspace(1e-3, 25.0, 200)
    th = np.linspace(0.1, 2.0 * math.pi - 0.1, 100)
    scale = np.abs(sommerfeld.two_term(k, k, 0.0, 0.0, a, a + np.cos(th),
                                       np.sin(th), -1)).max()
    for face in (0.0, -0.0):
        vals = sommerfeld.two_term(k, k, 0.0, 0.0, a, X, np.full_like(X, face), -1)
        assert np.abs(vals).max() <= 1e-12 * scale


@PROPERTY
@given(alpha=alphas, ratio=ratios)
def test_bound_field_vanishes_on_the_ray(alpha, ratio):
    f = be.make_field(alpha, ratio * alpha)
    assert be.ray_defect(f, n=200) <= 1e-12


@PROPERTY
@given(alpha=alphas, ratio=ratios)
def test_rapidity_is_odd_in_eps_bit_for_bit(alpha, ratio):
    _, lam_p = be.kappa_lambda(alpha, ratio * alpha, 1)
    _, lam_m = be.kappa_lambda(alpha, ratio * alpha, -1)
    assert np.complex128(lam_m).tobytes() == np.complex128(-lam_p).tobytes()
