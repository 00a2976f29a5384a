"""The shared criterion checks: each must be able to fail."""

import math

import numpy as np
import pytest

from edgewave import criteria, delta_1d, sommerfeld


@pytest.mark.parametrize("k, a", [(2.0, 0.0), (0.5, 0.3)])
def test_edge_ray_zero_matches_one_call_per_point(k, a):
    # both faces go to field_values in one call; the number is the one
    # of a call per point
    geom = sommerfeld.EdgeGeometry(a=a)

    def point(x, y):
        return abs(complex(sommerfeld.field_values(k, geom, x, y)))

    ray = max(point(x, face) for x in a + np.geomspace(1e-3, 30.0, 1000)
              for face in (0.0, -0.0))
    th = np.linspace(0.1, 2 * math.pi - 0.1, 200)
    scale = max(point(a + math.cos(t), math.sin(t)) for t in th)
    got = criteria.edge_ray_zero(k, a, tol=1e-12)
    assert got.ok
    assert got.value == pytest.approx(ray / scale, rel=1e-15, abs=0)


def test_pole_check_sees_a_wrong_denominator(monkeypatch):
    alphas = (0.5, 0.7, 1.0, 2.0)
    assert criteria.bound_pole_location(alphas, tol=1e-12).ok

    def flipped(alpha, p):
        denom = p + 1j * alpha
        return 1j * alpha / denom, p / denom

    monkeypatch.setattr(delta_1d, "_amplitudes", flipped)
    # |A|^2 + |B|^2 = 1 holds for either sign, so only the residue at
    # p = i*alpha can see the pole in the wrong half-plane
    assert criteria.flux_conservation(alphas, tol=1e-13).ok
    pole = criteria.bound_pole_location(alphas, tol=1e-12)
    assert not pole.ok
    assert pole.value > 0.4
    # a small alpha puts the two candidate poles close together; the
    # contour must still enclose only i*alpha
    small = criteria.bound_pole_location((0.1,), tol=1e-12)
    assert not small.ok
    assert small.value > 0.09
