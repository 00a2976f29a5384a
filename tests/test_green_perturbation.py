"""Channel-resolved resolvent and the first-order impurity response."""

import dataclasses
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
    # non-finite alpha or E built, and green_eval then never returned
    for alpha, E, name in ((math.nan, -0.75, "alpha"), (math.inf, -0.75, "alpha"),
                           (1.0, math.nan, "E"), (1.0, -math.inf, "E"),
                           # a subnormal E has lost digits: at alpha =
                           # 3e-162 the Born slope was 3.8e-6 off the scale law
                           (1.0, -5e-324, "E"), (1e-160, -0.75e-320, "E")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gp.make_green(alpha, E)
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
    # reciprocity G(p, q) = G(q, p), bit for bit, over seeded draws of
    # the well, the energy below threshold and the two points
    rng = np.random.default_rng(21)
    for _ in range(20):
        alpha = rng.uniform(0.2, 3.0)
        g = gp.make_green(alpha, -alpha * alpha * rng.uniform(0.05, 1.5))
        p, q = (PlanePoint(*rng.uniform(-3.0, 3.0, 2)) for _ in range(2))
        assert gp.green_eval(g, p, q).value == gp.green_eval(g, q, p).value


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


def test_born_linearity_and_prefactor(monkeypatch):
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
    # e^{-alpha a} underflows at a = 800: the product is 0, no quadrature
    monkeypatch.setattr(gp, "_continuum_integral", None)
    assert gp.born_correction(alpha, k, 1.0, 800.0, probe) == 0j


def test_non_finite_offset_is_rejected_before_the_quadrature():
    # a NaN offset passed the a <= 0 guard and then doubled quadrature
    # nodes on a NaN integrand toward the node cap
    probe = PlanePoint(0.0, -12.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            gp.born_correction(1.0, 0.5, 1.0, bad, probe)
        with pytest.raises(ValueError, match="finite"):
            gp.tail_scan(1.0, 0.5, 1.0, [1.0, 1.5, 2.0, 3.0, bad], probe)


def test_non_finite_strength_and_probe_are_rejected():
    # a NaN probe drove the continuum quadrature toward its node cap, and
    # a NaN strength gave NaN amplitudes and a NaN slope
    a_list = [1.0, 1.5, 2.0, 2.5, 3.0]
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda_imp must be finite"):
            gp.born_correction(1.0, 0.5, lam, 1.2, PlanePoint(0.0, -12.0))
        with pytest.raises(ValueError, match="lambda_imp must be finite"):
            gp.tail_scan(1.0, 0.5, lam, a_list, PlanePoint(0.0, -12.0))
    for x, y in ((0.0, math.nan), (math.inf, -12.0)):
        with pytest.raises(ValueError, match="finite"):
            gp.tail_scan(1.0, 0.5, 1.0, a_list, PlanePoint(x, y))


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


def test_tail_scan_preconditions(monkeypatch):
    # every rule reads the input alone and is refused before the first
    # quadrature; a repeated offset among five was refused only after
    # every offset's quadrature, and alpha = 1e200 by ChannelGreen's E
    # without naming alpha or k
    monkeypatch.setattr(gp, "_continuum_integral", None)
    probe, offsets = PlanePoint(0.0, -12.0), [1.0, 1.5, 2.0, 3.0]
    for args, message in (
            ((1.0, 0.5, 1.0, [1.0, 1.5, 2.0], probe), "at least four"),
            ((1.0, 0.5, 1.0, [1.0, 1.0, 2.0, 3.0, 4.0], probe), "no repeat"),
            ((1.0, 0.5, 1.0, [1.0, 1.4, 1.8, 2.2], probe), "span at least 2/alpha"),
            ((1.0, 1.5, 1.0, offsets, probe), "0 < k < alpha"),
            ((1e200, 5e199, 1.0, offsets, probe),
             r"got -inf at alpha = 1e\+200, k = 5e\+199$"),
            ((1.0, 0.5, 1.0, offsets, PlanePoint(2.0, 0.0)),
             "on an impurity, at a = 2.0$")):
        for call in (gp.tail_scan_inputs, gp.tail_scan):
            with pytest.raises(ValueError, match=message):
                call(*args)


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


def test_tail_scan_refuses_a_degraded_fit():
    # the sane probe with the largest rms residual (k/alpha = 0.7, probe
    # (3, -8)/alpha) passes at 7.1e-3; a probe at x = 30 is far enough
    # from the guide that its slope reads +0.04 * 2 alpha, rms 0.046
    a_list = [1.0, 1.5, 2.0, 2.5, 3.0]
    res = gp.tail_scan(1.0, 0.7, 1.0, a_list, PlanePoint(3.0, -8.0))
    assert 5e-3 < res.residual < 0.02
    with pytest.raises(RuntimeError, match=r"rms residual 4\.568e-02 exceeds 0\.02"):
        gp.tail_scan(1.0, 0.5, 1.0, a_list, PlanePoint(30.0, -12.0))


def test_log_slope_fit_refuses_two_exponentials():
    # the one refusal rule of every log-slope fit: the Born tail scan,
    # the FD reflection scan and the guided tail check
    xs = np.linspace(1.0, 3.0, 5)
    slope, rms = gp.fit_log_slope(xs, np.exp(-2.0 * xs))
    assert slope == pytest.approx(-2.0, rel=1e-12) and rms < 1e-12
    with pytest.raises(RuntimeError,
                       match=r"^tail fit rms residual 8\.312e-02 exceeds 0\.02"):
        gp.fit_log_slope(xs, np.exp(-4.0 * xs) + 0.1 * np.exp(-xs))
    # abscissae with no spread have no slope: lstsq returned -1.6 at rms
    # 7.1e-4 for the first, which passed the gate, and -0.0 for the second
    for flat, values in (([2.0] * 4, math.exp(-4.0) * np.array([1.0, 1.001, 0.999, 1.0])),
                         ([2.0], [1.0])):
        with pytest.raises(ValueError, match="finite spread"):
            gp.fit_log_slope(flat, values)


def test_tail_scan_csv_and_fields():
    res = gp.tail_scan(1.0, *gp.tail_scan_defaults(1.0))
    csv = gp.tail_scan_csv(res)
    lines = csv.strip().split("\n")
    assert lines[0] == "a,amplitude"
    assert len(lines) == 6
    a0, amp0 = lines[1].split(",")
    assert float(a0) == 1.0 and float(amp0) == res.amplitudes[0]
    # the result holds what the scan found, not its inputs
    assert [f.name for f in dataclasses.fields(res)] == [
        "a_values", "amplitudes", "slope", "residual"]
