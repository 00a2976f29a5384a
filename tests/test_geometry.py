"""Edge-adapted square-root coordinates: real chart, rotated chart, identities."""

import math

import numpy as np
import pytest

from edgewave import geometry
from edgewave.geometry import PlanePoint


def test_real_chart_reference_points():
    # r = 2 on the top face: xi = eta = 1; bottom face flips both signs;
    # the ray's far side (phi = pi) gives (1, -1)
    c = geometry.to_parabolic(PlanePoint(2.0, 0.0))
    assert c.xi == pytest.approx(1.0, abs=1e-12)
    assert c.eta == pytest.approx(1.0, abs=1e-12)
    c = geometry.to_parabolic(PlanePoint(2.0, -0.0))
    assert c.xi == pytest.approx(-1.0, abs=1e-12)
    assert c.eta == pytest.approx(-1.0, abs=1e-12)
    c = geometry.to_parabolic(PlanePoint(-2.0, 0.0))
    assert c.xi == pytest.approx(1.0, abs=1e-12)
    assert c.eta == pytest.approx(-1.0, abs=1e-12)


def test_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = PlanePoint(rng.uniform(-5, 5), rng.uniform(-5, 5), a=rng.uniform(0, 2))
        if p.x == p.a and p.y == 0.0:
            continue
        c = geometry.to_parabolic(p)
        q = geometry.from_parabolic(c.xi, c.eta, p.a)
        assert math.hypot(q.x - p.x, q.y - p.y) < 1e-12 * (1 + c.r)


def test_signed_zero_selects_the_face():
    top = geometry.to_parabolic(PlanePoint(3.0, 0.0))
    bot = geometry.to_parabolic(PlanePoint(3.0, -0.0))
    assert top.phi == 0.0
    assert bot.phi == pytest.approx(2 * math.pi)
    assert top.xi == pytest.approx(-bot.xi)


def test_tip_rejected():
    with pytest.raises(ValueError):
        geometry.to_parabolic(PlanePoint(1.0, 0.0, a=1.0))
    with pytest.raises(ValueError):
        PlanePoint(0.0, 0.0, a=-0.5)


def test_rotated_chart_reduces_to_real_chart():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r = rng.uniform(1e-3, 9.0)
        phi = rng.uniform(0.0, 2 * math.pi)
        xi, eta = geometry.bound_pair(r, phi, 0.0)
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
        xi, eta = geometry.bound_pair(r, phi, lam)
        d = xi * xi - eta * eta
        assert abs(d - r * np.sin(phi - 1j * lam)) < 1e-10 * (1 + r) * np.cosh(2.0)
        assert abs(4 * xi * xi * eta * eta + d * d - r * r) < 1e-9 * (1 + r * r) * np.cosh(4.0)


def test_conjugation_on_both_faces():
    # on the barrier faces the pair is a conjugate pair (real lam)
    rng = np.random.default_rng(17)
    for _ in range(100):
        r = rng.uniform(1e-3, 10.0)
        lam = rng.uniform(-2.0, 2.0)
        for phi in (0.0, 2 * math.pi):
            xi, eta = geometry.bound_pair(r, phi, lam)
            assert abs(xi - np.conj(eta)) <= 1e-12 * (1 + math.sqrt(r))


def test_cross_branch_matching_on_faces():
    # xi at +lam equals eta at -lam on both faces: this is what makes the
    # two-term field vanish on the barrier for every rotation parameter
    rng = np.random.default_rng(19)
    for _ in range(50):
        r = rng.uniform(1e-3, 10.0)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for phi in (0.0, 2 * math.pi):
            xi_p, _ = geometry.bound_pair(r, phi, lam)
            _, eta_m = geometry.bound_pair(r, phi, -lam)
            assert abs(xi_p - eta_m) < 1e-11 * (1 + math.sqrt(r)) * np.cosh(2.0)


def test_laplacian_factor():
    c = geometry.to_parabolic(PlanePoint(0.7, 1.9))
    assert geometry.laplacian_factor(c.xi, c.eta) == pytest.approx(
        1.0 / (4.0 * c.r), rel=1e-12)
    with pytest.raises(ValueError):
        geometry.laplacian_factor(0.0, 0.0)
