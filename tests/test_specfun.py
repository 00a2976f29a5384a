"""Complex error function and the Fresnel-type integral."""

import math
import tracemalloc

import numpy as np
import pytest

from edgewave import sommerfeld, specfun

mp = pytest.importorskip("mpmath")


def test_erf_real_axis_matches_scipy():
    from scipy.special import erf as erf_real
    xs = np.linspace(-5.5, 5.5, 113)
    got = specfun.erf_cx(xs + 0j)
    assert np.abs(got - erf_real(xs)).max() < 1e-14
    assert np.abs(got.imag).max() == 0.0


def test_erf_against_mpmath():
    rng = np.random.default_rng(7)
    mp.mp.dps = 30
    for _ in range(25):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        want = complex(mp.erf(mp.mpc(z.real, z.imag)))
        got = specfun.erf_cx(z)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_erf_symmetries_structural():
    # oddness and conjugation are enforced by quadrant folding, so they
    # hold exactly, not just to rounding
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        assert specfun.erf_cx(-z) == -specfun.erf_cx(z)
        assert specfun.erf_cx(np.conj(z)) == np.conj(specfun.erf_cx(z))


def test_erf_saturation_and_overflow():
    assert specfun.erf_cx(27.0 + 0.1j) == 1.0
    assert specfun.erf_cx(-27.0 + 0.1j) == -1.0
    with pytest.raises(OverflowError):
        specfun.erf_cx(0.2 + 40j)
    with pytest.raises(ValueError):
        specfun.erf_cx(2e6 + 0j)
    with pytest.raises(ValueError):
        specfun.erf_cx(complex(np.nan, 0.0))


def _faddeeva_cloud(name, rng, n=20_000):
    if name == "unit":          # |t| <= 2
        r, phi = 2.0 * np.sqrt(rng.uniform(0, 1, n)), rng.uniform(-0.5, 0.5, n)
        return r * np.exp(1j * math.pi * phi)
    if name == "real-axis":     # w near the real axis: Re t small, |Im t| <= 30
        return rng.uniform(0.0, 1e-3, n) + 1j * rng.uniform(-30.0, 30.0, n)
    # |t| log-uniform up to 1e6 over the whole half-plane Re t >= 0
    r, phi = 10.0 ** rng.uniform(-3.0, 6.0, n), rng.uniform(-0.5, 0.5, n)
    return r * np.exp(1j * math.pi * phi)


@pytest.mark.parametrize("cloud", ["unit", "real-axis", "large"])
def test_faddeeva_matches_wofz(cloud):
    # scipy's wofz is the oracle here only; L = -Re(-t^2) cancels the
    # real part of the exponent exactly, so both sides share one
    # unimodular factor and the comparison is of w(it) alone
    from scipy.special import wofz
    t = _faddeeva_cloud(cloud, np.random.default_rng(len(cloud)))
    t.real = np.abs(t.real)
    g = -t * t
    got = specfun._faddeeva(t, -g.real)
    g.real = 0.0
    want = np.exp(g) * wofz(1j * t)
    assert np.all(np.abs(got - want) <= 5e-14 * np.abs(want))


def test_erfc_near_zero_against_mpmath():
    # erfc(t) = e^L erfc(-z) at z = -t, L = 0, on both half-planes
    mp.mp.dps = 30
    rng = np.random.default_rng(5)
    t = rng.uniform(-0.05, 0.05, 200) + 1j * rng.uniform(-0.05, 0.05, 200)
    t = np.concatenate([t, [0.0, 1e-300, -1e-300j, 0.05, -0.05j]])
    got = specfun._erfc_neg(-t, 0.0)
    for ti, g in zip(t, got):
        want = complex(mp.erfc(mp.mpc(ti.real, ti.imag)))
        assert abs(g - want) <= 1e-14


def test_fresnel_reference_value():
    # F(0) = sqrt(pi)/(2 s): with k = 1/2 this is the classic
    # 0.626657068657750... * (1 + i)
    v = specfun.fresnel_F(0.5, 0.0).value
    ref = 0.6266570686577501
    assert abs(v.real - ref) < 1e-15
    assert abs(v.imag - ref) < 1e-15


def test_fresnel_frozen_values():
    cases = [
        (2.0, 1.0 + 0.5j, 6.2780876936601437e-01 + 6.2817512432605604e-01j),
        (0.7, -2.25, -1.0554510223590020e-01 + 1.1624376438205015e-01j),
    ]
    for k, xi, want in cases:
        got = specfun.fresnel_F(k, xi).value
        assert abs(got - want) < 1e-14


def test_fresnel_derivative_is_integrand():
    # dF/dxi = exp(2 i k xi^2), checked by central differences
    k = 1.3
    for xi in (0.4, -1.2, 0.8 + 0.3j):
        h = 1e-6
        fp = specfun.fresnel_F(k, xi + h).value
        fm = specfun.fresnel_F(k, xi - h).value
        want = np.exp(2j * k * xi ** 2)
        assert abs((fp - fm) / (2 * h) - want) < 1e-8


def test_fresnel_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.uniform(0.2, 3.0)
        if rng.uniform() < 0.5:
            xi = complex(rng.uniform(-4, 4), 0.0)
        else:
            xi = complex(rng.uniform(-2.5, 2.5), rng.uniform(-0.8, 0.8))
        a = specfun.fresnel_F(k, xi).value
        q = specfun.fresnel_F_quadrature(k, xi, tol=1e-12)
        assert abs(a - q.value) <= 1e-10 * max(1.0, abs(q.value))
        assert q.est_abs_error >= 0.0
    # at xi = 0 the quadrature is the Gaussian tail alone, F(0)
    for k in (0.3, 2.0):
        q = specfun.fresnel_F_quadrature(k, 0.0, tol=1e-12)
        assert abs(specfun.fresnel_F(k, 0.0).value - q.value) <= 1e-10


def test_fresnel_array_matches_scalar():
    k = 0.5 + 0.25j   # trapped-regime wavenumber is allowed
    xis = np.array([0.3, -1.7, 0.2 + 0.4j, -0.6 - 0.2j])
    arr = specfun.fresnel_F_array(k, xis)
    for i, xi in enumerate(xis):
        assert abs(arr[i] - specfun.fresnel_F(k, xi).value) < 1e-15
    # real k and real xi take the Fresnel route in both, bit for bit,
    # also when the real values come complex-typed
    xis = np.array([0.0, 1e-3, -1e-3, 2.0, -2.0, 300.0, -300.0])
    for k in (2.0, 2.0 + 0j):
        for arg in (xis, xis + 0j):
            arr = specfun.fresnel_F_array(k, arg)
            for i, xi in enumerate(arg):
                assert arr[i] == specfun.fresnel_F(k, xi).value


def test_fresnel_real_route_against_mpmath():
    mp.mp.dps = 40
    xis = np.concatenate([np.linspace(-30.0, 30.0, 61), [-1e-3, 1e-3, 0.37]])
    for k in (0.05, 1.0, 3.0, 50.0):
        s = specfun._rotation_root(k)
        pref = math.sqrt(math.pi) / (2.0 * s)
        got = specfun.fresnel_F_array(k, xis)
        ms = mp.sqrt(mp.mpf(2) * k) * mp.expjpi(mp.mpf(-1) / 4)
        for xi, g in zip(xis, got):
            want = mp.sqrt(mp.pi) / (2 * ms) * (1 + mp.erf(ms * mp.mpf(xi)))
            assert abs(g - complex(want)) <= 1e-12 * abs(pref)


def test_fresnel_input_contract():
    # the Fresnel route keeps erf_cx's contract: scipy's fresnel would
    # return nan or 0.5 silently
    with pytest.raises(ValueError):
        specfun.fresnel_F_array(2.0, [np.nan])
    with pytest.raises(ValueError):
        specfun.fresnel_F_array(2.0, [np.inf])
    with pytest.raises(ValueError):
        specfun.fresnel_F(2.0, 1e7)
    with pytest.raises(ValueError):
        sommerfeld.field_values(2.0, sommerfeld.EdgeGeometry(), [np.nan], [0.5])


@pytest.mark.parametrize("k, xi", [(math.nan, 1.0), (2.0, complex(math.nan, 0.0)),
                                   (2.0, math.inf)])
def test_quadrature_refuses_non_finite_input(k, xi):
    # each returned nan+nanj with a nan error estimate
    with pytest.raises(ValueError, match="finite"):
        specfun.fresnel_F_quadrature(k, xi)


def test_a_nan_error_estimate_is_not_converged():
    # "total_err > tol" is false for nan, so a nan estimate counted as
    # converged
    with pytest.raises(RuntimeError, match="did not converge"):
        specfun._adaptive_segment(lambda t: np.full(t.shape, np.nan), 0j,
                                  1.0 + 0j, 1e-10)
    with pytest.raises(ValueError, match="error estimate"):
        specfun.FresnelValue(value=0j, est_abs_error=math.nan)


def test_rotation_root_branch():
    s = specfun._rotation_root(2.0)
    assert s.real > 0
    assert abs(s * s - (-4j)) < 1e-14
    with pytest.raises(ValueError):
        specfun._rotation_root(0.0)


def test_quadrature_tol_validation():
    with pytest.raises(ValueError):
        specfun.fresnel_F_quadrature(1.0, 0.5, tol=1e-15)
    with pytest.raises(ValueError):
        specfun.fresnel_F_quadrature(1.0, 0.5, tol=1e-3)


B = specfun._BLOCK


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
def test_erf_blocks_keep_the_symmetries(n):
    rng = np.random.default_rng(n)
    z = rng.uniform(-6.0, 6.0, n) + 1j * rng.uniform(-6.0, 6.0, n)
    w = specfun.erf_cx(z)
    assert w.shape == (n,)
    assert np.array_equal(specfun.erf_cx(-z), -w)
    assert np.array_equal(specfun.erf_cx(np.conj(z)), np.conj(w))
    for i in [i for i in (0, B - 1, B, n - 1) if i < n]:
        assert abs(w[i] - specfun.erf_cx(z[i])) <= 4e-16 * abs(w[i])


def test_a_point_has_the_same_bits_in_any_array():
    # the Faddeeva kernel's products are out of place: an in-place complex
    # product on a one-element array rounds by another numpy loop than in
    # a longer one, which moved erf_cx at 165 of 400 points by up to 7.9e-16
    rng = np.random.default_rng(21)
    z = rng.uniform(-4.0, 4.0, 400) + 1j * rng.uniform(-4.0, 4.0, 400)
    xi = rng.uniform(-3.0, 3.0, 400) + 1j * rng.uniform(-1.0, 1.0, 400)
    for fn, arg in ((specfun.erf_cx, z),
                    (lambda v: specfun.fresnel_F_array(2.0, v), xi),
                    (lambda v: specfun.fresnel_F_array(1.5j, v), xi.real)):
        whole = fn(arg)
        for i in range(arg.size):
            assert fn(arg[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()


def test_erf_shapes():
    assert isinstance(specfun.erf_cx(0.5 + 0.5j), complex)
    z = np.linspace(-2.0, 2.0, 7)[None, :] + 1j * np.linspace(-1.0, 1.0, 5)[:, None]
    assert specfun.erf_cx(z).shape == (5, 7)
    assert specfun.erf_cx(z.T).shape == (7, 5)       # not contiguous
    empty = specfun.erf_cx(np.empty((0, 3), dtype=complex))
    assert empty.shape == (0, 3) and empty.dtype == complex


def test_erf_checks_the_whole_array_first():
    z = np.full(2 * B + 1, 0.5 + 0.5j)
    bad = z.copy()
    bad[-1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        specfun.erf_cx(bad)
    # the checks keep their order across blocks: non-finite, then
    # |z| > 1e6, then the overflow screen
    bad[0] = 0.2 + 40j
    bad[-1] = 0.5
    bad[2 * B] = np.nan
    with pytest.raises(ValueError, match="finite"):
        specfun.erf_cx(bad)
    bad[2 * B] = 2e6
    with pytest.raises(ValueError, match="1e6"):
        specfun.erf_cx(bad)
    bad[2 * B] = 0.5
    with pytest.raises(OverflowError):
        specfun.erf_cx(bad)


def test_erf_memory_per_point():
    # blocks into one output after the whole-array checks: about 23 B
    # per point (was 108); the output itself is 16
    rng = np.random.default_rng(2)
    z = rng.uniform(-4.0, 4.0, 120_000) + 1j * rng.uniform(-4.0, 4.0, 120_000)
    specfun.erf_cx(z)
    tracemalloc.start()
    try:
        specfun.erf_cx(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * z.size
