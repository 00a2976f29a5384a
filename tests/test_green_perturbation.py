"""Channel-resolved resolvent and the first-order impurity response."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0 as bessel_k0

from edgewave import green_perturbation as gp
from edgewave.geometry import PlanePoint


def test_bound_mode_normalized():
    for alpha in (0.5, 1.0, 2.0):
        val, _ = quad(lambda x: gp.phi_bound(alpha, x) ** 2, 0.0, np.inf)
        assert abs(2.0 * val - 1.0) < 1e-10


def test_line_kernel_solves_its_equation():
    # (mu + d2/dy2) g1 = delta: away from 0 the residual is O(h^2), and
    # the derivative jump across 0 equals 1 for both branches
    h = 1e-4
    for mu in (0.25, -0.75):
        for y in (0.7, -1.3):
            g0 = gp.line_kernel(y, mu)
            gp_ = gp.line_kernel(y + h, mu)
            gm = gp.line_kernel(y - h, mu)
            assert abs((gp_ + gm - 2 * g0) / h ** 2 + mu * g0) < 1e-5
        jump = (gp.line_kernel(h, mu) - gp.line_kernel(0.0, mu)) / h \
            - (gp.line_kernel(0.0, mu) - gp.line_kernel(-h, mu)) / h
        assert abs(jump - 1.0) < 1e-3
    with pytest.raises(ValueError):
        gp.line_kernel(1.0, 0.0)


def test_validation():
    with pytest.raises(ValueError):
        gp.make_green(1.0, 0.25)           # continuum open
    with pytest.raises(ValueError):
        gp.make_green(-1.0, -0.5)
    g = gp.make_green(1.0, -0.75)
    with pytest.raises(ValueError):
        gp.green_eval(g, PlanePoint(0.3, 0.2), PlanePoint(0.3, 0.2))


def test_free_limit_matches_bessel():
    # alpha = 0 removes the bound channel; the assembly must recover the
    # free-space kernel.  Frozen accuracies: the momentum cutoff bites
    # hardest at the smallest y-separation.
    E = -0.75
    q = math.sqrt(-E)
    g = gp.make_green(0.0, E)
    cases = [
        ((0.3, 0.2), (-0.5, -0.4), 1e-6),
        ((1.0, 0.0), (0.0, 0.7), 1e-6),
        ((2.0, 1.0), (-1.0, -1.5), 1e-10),
    ]
    for src, dst, tol in cases:
        gv = gp.green_eval(g, PlanePoint(*src), PlanePoint(*dst))
        r = math.hypot(dst[0] - src[0], dst[1] - src[1])
        exact = -bessel_k0(q * r) / (2 * math.pi)
        assert abs(gv.value - exact) / abs(exact) < tol
        assert gv.est_error < 1e-7


def test_symmetry():
    g = gp.make_green(1.0, -0.75)
    a = gp.green_eval(g, PlanePoint(0.4, 0.1), PlanePoint(-1.0, 2.0)).value
    b = gp.green_eval(g, PlanePoint(-1.0, 2.0), PlanePoint(0.4, 0.1)).value
    assert a == b


def test_gauss_legendre_rules_are_cached_read_only():
    # the rule for each node count is built once and shared; a caller
    # cannot write into it, and a cached call gives the same bits
    gp._gauss_legendre.cache_clear()
    g = gp.make_green(1.0, -0.75)
    first = gp.green_eval(g, PlanePoint(0.4, 0.1), PlanePoint(-1.0, 2.0))
    u, w = gp._gauss_legendre(64)
    assert gp._gauss_legendre(64)[0] is u
    assert not u.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref_u, ref_w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
    again = gp.green_eval(g, PlanePoint(0.4, 0.1), PlanePoint(-1.0, 2.0))
    assert again.value == first.value and again.est_error == first.est_error


def test_bound_channel_dominates_at_large_separation():
    alpha, k = 1.0, 0.5
    E = k * k - alpha * alpha
    g = gp.make_green(alpha, E)
    x, xp, dy = 0.5, 0.2, 14.0
    got = gp.green_eval(g, PlanePoint(xp, 0.0), PlanePoint(x, dy)).value
    mu0 = E + alpha ** 2
    want = gp.phi_bound(alpha, x) * gp.phi_bound(alpha, xp) \
        * gp.line_kernel(dy, mu0)
    assert abs(got - want) / abs(want) < 1e-4


def test_operator_mass_near_unity():
    # discrete (E - H) applied to G and summed over a source patch:
    # the mass defect pins the sign convention of both kernel branches
    g = gp.make_green(1.0, -0.75)
    m = gp.operator_mass(g, PlanePoint(0.8, 0.05), (0.05, 1.55),
                         (-0.75, 0.85), 0.1)
    assert m == pytest.approx(1.0, abs=0.05)
    assert m == pytest.approx(0.9928, abs=2e-3)
    # the sliced stencil against the per-node loop, on a patch that
    # crosses the x = 0 column; only the summation order differs
    src, h = PlanePoint(0.25, 0.05), 0.1
    xs = np.arange(-0.3, 0.5 + h / 2, h)
    ys = np.arange(-0.35, 0.35 + h / 2, h)
    G = np.array([[gp.green_eval(g, src, PlanePoint(x, y)).value for x in xs]
                  for y in ys])
    ref = 0.0 + 0.0j
    for j in range(1, len(ys) - 1):
        for i in range(1, len(xs) - 1):
            row = g.E * G[j, i] + (G[j, i - 1] + G[j, i + 1] + G[j - 1, i]
                                   + G[j + 1, i] - 4.0 * G[j, i]) / h ** 2
            if abs(xs[i]) < 1e-12:
                row += 2.0 * g.alpha * G[j, i] / h
            ref += row * h * h
    got = gp.operator_mass(g, src, (-0.3, 0.5), (-0.35, 0.35), h)
    assert got == pytest.approx(abs(ref), rel=1e-13)


def test_born_linearity_and_prefactor():
    alpha, k, a = 1.0, 0.5, 1.2
    probe = PlanePoint(0.0, -9.0)
    one = gp.born_correction(alpha, k, 1.0, a, probe)
    three = gp.born_correction(alpha, k, 3.0, a, probe)
    assert abs(three - 3.0 * one) <= 1e-14 * abs(three)
    g = gp.make_green(alpha, k * k - alpha * alpha)
    gv = gp.green_eval(g, PlanePoint(a, 0.0), probe).value
    assert one / gv == pytest.approx(math.exp(-alpha * a), rel=1e-12)
    with pytest.raises(ValueError):
        gp.born_correction(alpha, k, 1.0, -1.0, probe)
    with pytest.raises(ValueError):
        gp.born_correction(alpha, k, 1.0, 1.2, PlanePoint(1.2, 0.0))


def test_non_finite_offset_is_rejected_before_the_quadrature():
    # a NaN offset passed the a <= 0 guard and then doubled quadrature
    # nodes on a NaN integrand toward the node cap
    probe = PlanePoint(0.0, -12.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            gp.born_correction(1.0, 0.5, 1.0, bad, probe)
        with pytest.raises(ValueError, match="finite"):
            gp.tail_scan(1.0, 0.5, 1.0, [1.0, 1.5, 2.0, 3.0, bad], probe)


def test_tail_scan_frozen_slopes():
    for alpha, want in ((1.0, -2.0000006), (0.5, -1.0000003)):
        res = gp.tail_scan(alpha, 0.5 * alpha, 1.0,
                           [a / alpha for a in (1.0, 1.5, 2.0, 2.5, 3.0)],
                           PlanePoint(0.0, -12.0 / alpha))
        assert res.slope == pytest.approx(want, abs=5e-3)
        assert res.residual < 1e-5
        assert abs(res.slope + 2.0 * alpha) / (2.0 * alpha) < 0.05
        # the first amplitude is e^{-2 alpha a} up to the continuum dribble
        assert res.amplitudes[0] == pytest.approx(
            math.exp(-2.0), rel=1e-6)


def test_tail_scan_lambda_rescaling_shifts_only_the_offset():
    a_list = [1.0, 1.5, 2.0, 2.5, 3.0]
    probe = PlanePoint(0.0, -12.0)
    r1 = gp.tail_scan(1.0, 0.5, 1.0, a_list, probe)
    r2 = gp.tail_scan(1.0, 0.5, 10.0, a_list, probe)
    assert r2.slope == pytest.approx(r1.slope, abs=1e-12)
    assert np.allclose(r2.amplitudes, 10.0 * r1.amplitudes, rtol=1e-12)


def test_tail_scan_preconditions():
    probe = PlanePoint(0.0, -12.0)
    with pytest.raises(ValueError):
        gp.tail_scan(1.0, 0.5, 1.0, [1.0, 1.5, 2.0], probe)
    with pytest.raises(ValueError):
        gp.tail_scan(1.0, 0.5, 1.0, [1.0, 1.4, 1.8, 2.2], probe)


def test_tail_scan_span_guard_tolerates_rounding(monkeypatch):
    # offsets t/alpha, t = 1..3, span 2/alpha only up to rounding; the
    # guard alone is under test, so the Born amplitude is a stand-in
    monkeypatch.setattr(gp, "born_correction",
                        lambda alpha, k, lam, a, probe: math.exp(-2.0 * alpha * a))
    probe = PlanePoint(0.0, -12.0)
    for alpha in np.linspace(0.5, 2.0, 301):
        offsets = [t / alpha for t in (1.0, 1.5, 2.0, 2.5, 3.0)]
        res = gp.tail_scan(alpha, 0.5 * alpha, 1.0, offsets, probe)
        assert res.slope == pytest.approx(-2.0 * alpha, rel=1e-9)
        with pytest.raises(ValueError, match="span"):
            gp.tail_scan(alpha, 0.5 * alpha, 1.0,
                         [t / alpha for t in (1.0, 1.5, 2.0, 2.9)], probe)


def test_tail_scan_csv_and_summary():
    res = gp.tail_scan(1.0, 0.5, 1.0, [1.0, 1.5, 2.0, 2.5, 3.0],
                       PlanePoint(0.0, -12.0))
    csv = gp.tail_scan_csv(res)
    lines = csv.strip().split("\n")
    assert lines[0] == "a,amplitude"
    assert len(lines) == 6
    a0, amp0 = lines[1].split(",")
    assert float(a0) == 1.0 and float(amp0) == res.amplitudes[0]
    assert list(res.summary().keys()) == ["slope", "residual", "alpha", "k"]
