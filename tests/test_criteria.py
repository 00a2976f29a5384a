"""The shared criterion checks: each must be able to fail."""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from edgewave import bound_edge, criteria, delta_1d, sommerfeld, specfun


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


def test_fresnel_check_fails_on_an_overflowing_draw():
    # erf's OverflowError at one draw is that check's FAIL, naming it
    draws = [(2.0, 0.5 + 0.1j), (200.0, 1.9 - 1.0j), (2.0, -0.3j)]
    got = criteria.fresnel_cross_validation(draws, quad_tol=1e-12, tol=1e-9)
    assert not got.ok and got.value == math.inf
    assert got.detail.startswith("F at k = 200.0, xi = (1.9-1j): erf overflows")
    assert criteria.fresnel_cross_validation(draws[::2], 1e-12, 1e-9).ok


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


def _nan_at_one(values):
    spoilt = np.array(values)
    spoilt.flat[1] = np.nan
    return spoilt


_NAN = complex(math.nan, 0.0)


@pytest.mark.parametrize("owner, name, spoil, check", [
    (delta_1d, "scattering_coeffs",
     lambda co: dataclasses.replace(co, A=_NAN),
     lambda: criteria.flux_conservation((0.5, 1.0), tol=1e-13)),
    (delta_1d, "pole_residue", lambda res: _NAN,
     lambda: criteria.bound_pole_location((0.5, 1.0, 2.0), tol=1e-12)),
    (specfun, "fresnel_F", lambda f: dataclasses.replace(f, value=_NAN),
     lambda: criteria.fresnel_cross_validation(
         [(2.0, 0.5), (1.0, 1.0 + 0.5j), (0.5, -2.0)], quad_tol=1e-12,
         tol=1e-9)),
    (sommerfeld, "field_values", _nan_at_one,
     lambda: criteria.edge_ray_zero(2.0, 0.3, tol=1e-12)),
    (criteria, "chart", _nan_at_one,
     lambda: criteria.coordinate_conjugation(seed=1, tol=1e-12)),
    (bound_edge, "WaveguideParams",
     lambda p: types.SimpleNamespace(kappa=_NAN, lam=p.lam),
     lambda: criteria.guided_products((0.5, 1.0), tol=1e-12)),
], ids=["flux", "pole", "fresnel", "ray-zero", "conjugation", "products"])
def test_a_nan_sample_fails_its_check(monkeypatch, owner, name, spoil, check):
    # a Python max drops a NaN sample (every comparison with NaN is false),
    # which let each of these checks but the ray zero pass; one spoilt
    # sample, the second call's, must fail its check with a NaN value
    assert check().ok
    real, calls = getattr(owner, name), itertools.count()

    def spoilt_second(*args, **kwargs):
        got = real(*args, **kwargs)
        return spoil(got) if next(calls) == 1 else got

    monkeypatch.setattr(owner, name, spoilt_second)
    got = check()
    assert not got.ok
    assert math.isnan(got.value)
    assert "nan" in got.detail


def test_a_nan_order_fails_the_stencil_check(monkeypatch):
    # one NaN residual makes one observed order NaN; min(orders) dropped it
    real = sommerfeld.helmholtz_residual

    def nan_on_the_finest(grid, k, exclude_radius):
        got = real(grid, k, exclude_radius=exclude_radius)
        if grid.nx == 81:
            return dataclasses.replace(got, l2_res=math.nan)
        return got

    monkeypatch.setattr(sommerfeld, "helmholtz_residual", nan_on_the_finest)
    got = criteria.stencil_residual_order(2.0, (21, 41, 81), tol=1.8)
    assert not got.ok
    assert math.isnan(got.value)
    assert math.isnan(got.parts[-1]) and not math.isnan(got.parts[0])


def test_tail_slopes_follow_the_scale_law():
    # the closed form and the Born tail only scale with alpha, so each
    # slope over its expected slope is alpha = 1's at every unit of
    # length; lstsq's rank cut broke both checks at alpha <= 1e-13 and
    # >= 1e15 (the Born gap left is the continuum cutoff 20 max(alpha, 1))
    def ratios(alpha):
        guided = criteria.guided_tail_slope(alpha, tol=0.01)
        born = criteria.impurity_tail_slope(alpha, tol=0.05)
        assert guided.ok and born.ok
        return np.array([guided.value / -alpha, born.value / (-2.0 * alpha)])

    at_one = ratios(1.0)
    for j in (-150, 150, *np.random.default_rng(31).integers(-150, 151, 22)):
        assert np.all(np.abs(ratios(10.0 ** int(j)) - at_one) <= (1e-14, 1e-9))
    # the Born scan at both ends of the double range, where the guided
    # modes' E leaves it: phi_e's p^2 + alpha^2 overflowed above about
    # 6.7e152 and the bound channel's alpha^2 above 1.34e154; 2e-154 keeps
    # the scan's E a normal double
    for alpha in (7e153, 1.5e154, 1.54e154, 2e-154):
        born = criteria.impurity_tail_slope(alpha, tol=0.05)
        assert born.ok and abs(born.value / (-2.0 * alpha) - at_one[1]) <= 1e-9
