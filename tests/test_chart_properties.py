"""Property tests of the shared chart and two-term evaluator.

Derandomized: hypothesis draws the same examples on every run, so the
suite stays deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewave import bound_edge as be
from edgewave import sommerfeld
from edgewave.geometry import chart

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
    # the eps = -1 branch's chart is the chart at -lambda
    p = be.WaveguideParams(alpha, ratio * alpha)
    X, Y = np.meshgrid(np.linspace(-3.0, 3.0, 13) / alpha,
                       np.linspace(-2.0, 2.0, 9) / alpha)
    got = chart(X, Y, 0.0, p.lam, -1)
    assert got.tobytes() == chart(X, Y, 0.0, -p.lam).tobytes()


def _bound_field(c):
    f = be.make_field(c * 1.0, c * 0.5)
    return lambda X, Y: be.field_values(f, X, Y)


def _exact_field(c):
    # the exact field's incident mode has amplitude 1 at every scale, so
    # psi_{c, c/2}(x/c, y/c) = psi_{1, 0.5}(x, y): divided by sqrt(c) here
    sol = be.solve_scattering(c * 1.0, c * 0.5)
    return lambda X, Y: sol.values(X, Y) / math.sqrt(c)


def _edge_field(c):
    geom = sommerfeld.EdgeGeometry(a=0.0)
    return lambda X, Y: sommerfeld.field_values(c * 2.0, geom, X, Y)


@pytest.mark.parametrize("field", [_bound_field, _exact_field, _edge_field],
                         ids=["two-branch", "exact", "sommerfeld"])
@pytest.mark.parametrize("c", [0.5, 2.0, 3.7])
def test_fields_scale_with_the_wavelength(field, c):
    # scaling alpha and k by c scales lengths by 1/c, and the amplitude
    # sqrt(pi/2|kappa|) by 1/sqrt(c): sqrt(c) psi_c(x/c, y/c) = psi_1(x, y)
    X, Y = np.random.default_rng(21).uniform(-6.0, 6.0, (2, 2000))
    want = field(1.0)(X, Y)
    got = math.sqrt(c) * field(c)(X / c, Y / c)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
