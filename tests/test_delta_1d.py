"""1-D delta-well bound state and scattering coefficients."""

import math

import numpy as np
import pytest

from edgewave import delta_1d


def test_bound_state_profile():
    w = delta_1d.DeltaWell(alpha=1.5)
    xs = np.linspace(-4, 4, 101)
    psi = delta_1d.psi0(w, xs)
    assert psi[50] == 1.0
    assert np.allclose(psi, np.exp(-1.5 * np.abs(xs)))


def test_strength_convention():
    with pytest.raises(ValueError):
        delta_1d.DeltaWell(alpha=-1.0)
    # NaN and inf constructed a well
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^alpha must be positive and finite"):
            delta_1d.DeltaWell(alpha=alpha)


def test_flux_conservation_log_sweep():
    w = delta_1d.DeltaWell(alpha=1.0)
    for p in np.geomspace(1e-3, 1e3, 100):
        c = delta_1d.scattering_coeffs(w, p)
        assert abs(abs(c.A) ** 2 + abs(c.B) ** 2 - 1.0) <= 1e-13


def test_coefficients_closed_form():
    w = delta_1d.DeltaWell(alpha=2.0)
    c = delta_1d.scattering_coeffs(w, 2.0)
    # at p = alpha: A = i/(1 - i), B = 1/(1 - i)
    assert c.A == pytest.approx((-1 + 1j) / 2, abs=1e-15)
    assert c.B == pytest.approx((1 + 1j) / 2, abs=1e-15)
    # B = 1 + A is an algebraic identity of the matching conditions
    for p in (0.1, 1.0, 7.3):
        c = delta_1d.scattering_coeffs(w, p)
        assert c.B == pytest.approx(1.0 + c.A, abs=1e-15)
    with pytest.raises(ValueError):
        delta_1d.scattering_coeffs(w, 0.0)
    # a NaN momentum gave NaN A and B with no error
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite p > 0"):
            delta_1d.scattering_coeffs(w, p)


def test_smatrix_pole_at_i_alpha():
    for alpha in (0.5, 1.0, 2.0):
        w = delta_1d.DeltaWell(alpha=alpha)
        pole = delta_1d.smatrix_pole(w)
        assert abs(pole - 1j * alpha) <= 1e-12


def test_pole_residue_contour():
    # contour integral of A around i*alpha: residue i*alpha
    w = delta_1d.DeltaWell(alpha=1.0)
    res = delta_1d.pole_residue(w)
    assert abs(res - 1j) <= 1e-10
