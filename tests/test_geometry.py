"""Edge-adapted square-root coordinates: real chart, rotated chart, identities."""

import math

import numpy as np
import pytest

from edgewave import geometry
from edgewave.geometry import PlanePoint


def _real_chart(x, y, a=0.0):
    # the real chart is the rotated one at lambda = 0, a real pair
    xi, eta = geometry.chart(x, y, a, 0.0)
    return float(xi), float(eta)


def _point(r, phi):
    # the point at distance r and angle phi about the origin; phi in
    # (pi, 2pi) gives y < 0, the lower sheet
    return r * math.cos(phi), r * math.sin(phi)


def test_real_chart_reference_points():
    # r = 2 on the top face: xi = eta = 1; bottom face flips both signs;
    # the ray's far side (phi = pi) gives (1, -1)
    xi, eta = _real_chart(2.0, 0.0)
    assert xi == pytest.approx(1.0, abs=1e-12)
    assert eta == pytest.approx(1.0, abs=1e-12)
    xi, eta = _real_chart(2.0, -0.0)
    assert xi == pytest.approx(-1.0, abs=1e-12)
    assert eta == pytest.approx(-1.0, abs=1e-12)
    xi, eta = _real_chart(-2.0, 0.0)
    assert xi == pytest.approx(1.0, abs=1e-12)
    assert eta == pytest.approx(-1.0, abs=1e-12)


def test_round_trip():
    # inverse of the real chart: y = xi^2 - eta^2, x - a = 2 xi eta
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = PlanePoint(rng.uniform(-5, 5), rng.uniform(-5, 5))
        a = rng.uniform(0, 2)
        if p.x == a and p.y == 0.0:
            continue
        r = math.hypot(p.x - a, p.y)
        xi, eta = _real_chart(p.x, p.y, a)
        x, y = 2.0 * xi * eta + a, xi * xi - eta * eta
        assert math.hypot(x - p.x, y - p.y) < 1e-12 * (1 + r)


def test_signed_zero_selects_the_face():
    # y = +0.0 is the top face (xi = eta > 0), y = -0.0 the bottom one
    top_xi, top_eta = _real_chart(3.0, 0.0)
    bot_xi, bot_eta = _real_chart(3.0, -0.0)
    assert top_xi == top_eta > 0.0
    assert bot_xi == bot_eta < 0.0
    assert top_xi == pytest.approx(-bot_xi)


def test_non_finite_point_rejected():
    for x, y in ((0.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            PlanePoint(x, y)


def test_every_finite_point_gives_a_finite_chart():
    # the halves are formed from (x - a)/16 and y/16, so no difference,
    # hypot or sum overflows; the bound field refuses |s xi| > 1e6 itself
    x = np.array([1e308, -1.7e308, 1.7e308, -1.7e308, 0.0])
    y = np.array([1.0, -1.7e308, 1.7e308, 0.0, 0.0])
    for a, lam in ((0.0, 0.0), (1.7e308, 0.3), (0.0, 0.5 + 1.2j)):
        assert np.isfinite(geometry.chart(x, y, a, lam)).all()
    assert not geometry.chart(0.0, 0.0, 0.0, 0.5 + 1.2j).any()   # the tip
    from edgewave import bound_edge
    f = bound_edge.make_field(1.0, 0.5)
    for point in ((1e308, 1.0), (-1.7e308, -1.7e308)):
        with pytest.raises(ValueError, match="restricted to"):
            bound_edge.field_values(f, *point)


def test_rotated_chart_reduces_to_real_chart():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r = rng.uniform(1e-3, 9.0)
        phi = rng.uniform(0.0, 2 * math.pi)
        xi, eta = geometry.chart(*_point(r, phi), 0.0, 0.0)
        chi = phi - 0.5 * math.pi
        assert abs(xi - math.sqrt(r) * math.cos(chi / 2)) < 1e-12
        assert abs(eta - (-math.sqrt(r) * math.sin(chi / 2))) < 1e-12


def test_rotated_chart_product_identities():
    # xi^2 - eta^2 = r sin(phi - i lam) and 4 xi^2 eta^2 + (xi^2-eta^2)^2 = r^2,
    # for real and complex rotation parameters alike
    rng = np.random.default_rng(13)
    for _ in range(100):
        r = rng.uniform(1e-3, 9.0)
        phi = rng.uniform(0.0, 2 * math.pi)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        # eta_lam is the second half of the pair at -lam
        xi, _ = geometry.chart(*_point(r, phi), 0.0, lam)
        _, eta = geometry.chart(*_point(r, phi), 0.0, -lam)
        d = xi * xi - eta * eta
        assert abs(d - r * np.sin(phi - 1j * lam)) < 1e-10 * (1 + r) * np.cosh(2.0)
        assert abs(4 * xi * xi * eta * eta + d * d - r * r) < 1e-9 * (1 + r * r) * np.cosh(4.0)


def test_conjugation_on_both_faces():
    # on the barrier faces the pair is a conjugate pair (real lam)
    rng = np.random.default_rng(17)
    for _ in range(100):
        r = rng.uniform(1e-3, 10.0)
        lam = rng.uniform(-2.0, 2.0)
        for y in (0.0, -0.0):
            xi, _ = geometry.chart(r, y, 0.0, lam)
            _, eta = geometry.chart(r, y, 0.0, -lam)
            assert abs(xi - np.conj(eta)) <= 1e-12 * (1 + math.sqrt(r))


def test_cross_branch_matching_on_faces():
    # xi at +lam equals eta at -lam on both faces: this is what makes the
    # two-term field vanish on the barrier for every rotation parameter
    rng = np.random.default_rng(19)
    for _ in range(50):
        r = rng.uniform(1e-3, 10.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for y in (0.0, -0.0):
            xi_p, eta_m = geometry.chart(r, y, 0.0, lam)
            assert abs(xi_p - eta_m) < 1e-11 * (1 + math.sqrt(r)) * np.cosh(2.0)

