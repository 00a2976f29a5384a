"""Closed form for the guided mode at the barrier: exact properties and
measured defects; and the exact field of the barrier integral equation.

The defect numbers frozen here (axis jump, delta-matching defect) are
the structural properties of the two-branch formula itself, reproduced
from independent step sizes; they are findings, not tolerances to
tighten.  The exact field (solve_scattering) is checked against the
channel Green's function, the delta-line matching, the barrier condition
under refinement and flux conservation.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from edgewave import bound_edge as be
from edgewave import green_perturbation as gp
from edgewave.geometry import PlanePoint, chart
from edgewave.sommerfeld import two_term

ALPHA, K = 1.0, 0.5


@pytest.fixture(scope="module")
def field():
    return be.make_field(ALPHA, K)


def test_defining_products_both_regimes():
    for alpha in (0.5, 1.0, 2.0):
        for k in (0.5 * alpha, 2.0 * alpha):
            p = be.WaveguideParams(alpha, k)
            for eps in (1, -1):
                kap, lam = p.kappa, eps * p.lam
                assert abs(kap * cmath.exp(lam) - (k + alpha * eps)) <= 1e-12
                assert abs(kap * cmath.exp(-lam) - (k - alpha * eps)) <= 1e-12
                assert abs(kap ** 2 - (k * k - alpha * alpha)) <= 1e-12


def test_lambda_antisymmetry_in_eps():
    # the chart's eps = -1 branch is the rotation by -lambda, bit for bit
    X, Y = np.meshgrid(np.linspace(-3.0, 3.0, 13), np.linspace(-2.0, 2.0, 9))
    for k in (0.3, 2.7):
        lam = be.WaveguideParams(1.0, k).lam
        assert chart(X, Y, 0.0, lam, -1).tobytes() == chart(X, Y, 0.0, -lam).tobytes()


@pytest.mark.parametrize("alpha,k", [(1.0, 1.0 + 1e-8), (0.7, 0.7 * (1.0 + 3e-10)),
                                     (1.0, 0.999), (1.0, 0.99999)])
def test_kappa_keeps_its_digits_near_the_branch_point(alpha, k):
    # k*k - alpha*alpha is 5.0e-9, 7.5e-8, 1.4e-14 and 4.1e-13 (relative)
    # off E here; the product (k - alpha)(k + alpha) is within 1.6e-16,
    # and kappa within 1.3e-16 of its root
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    exact = (mp.mpf(k) - alpha) * (mp.mpf(k) + alpha)
    want = mp.sqrt(abs(exact))
    kap = be.WaveguideParams(alpha, k).kappa
    assert abs(abs(kap) - want) <= 2e-16 * want
    assert (kap.imag == 0.0) == (k > alpha)
    E = be.WaveguideParams(alpha, k).E
    assert E == (k - alpha) * (k + alpha)
    assert abs(E - exact) <= 2e-16 * abs(exact)


def test_kappa_refuses_a_product_below_the_normal_range():
    # (1e-200, 2e-200) raised ZeroDivisionError; at (1e-160, 2e-160)
    # kappa^2 = 3e-320 is subnormal and lambda was 5.6e-6 off, silently
    for alpha, k in ((1e-200, 2e-200), (1e-160, 2e-160)):
        with pytest.raises(ValueError, match=f"at alpha = {alpha!r}, k = {k!r}"):
            be.WaveguideParams(alpha, k)
        with pytest.raises(ValueError, match="not a finite normal double"):
            be.make_field(alpha, k)
        with pytest.raises(ValueError, match="not a finite normal double"):
            be.solve_scattering(k, alpha)


def test_params_do_not_depend_on_the_scalar_type():
    # numpy's complex division rounds (k + alpha)/kappa otherwise than
    # Python's: lam differed in the last bit for about a quarter of the
    # draws when alpha and k came in as np.float64; the record stores
    # floats, so both types give the same E, kappa, lam and field bytes
    rng = np.random.default_rng(11)
    X, Y = np.linspace(-3.0, 3.0, 7)[None, :], np.linspace(-2.0, 2.0, 5)[:, None]
    for alpha, k in rng.uniform(0.05, 5.0, (400, 2)):
        py = be.WaveguideParams(float(alpha), float(k))
        np_ = be.WaveguideParams(np.float64(alpha), np.float64(k))
        assert type(np_.alpha) is float and type(np_.k) is float
        assert (py.E, py.kappa, py.lam) == (np_.E, np_.kappa, np_.lam)
    for alpha, k in ((1.0, 0.5), (0.7, 1.3)):
        want = be.field_values(be.make_field(alpha, k), X, Y)
        got = be.field_values(be.make_field(np.float64(alpha), np.float64(k)), X, Y)
        assert got.tobytes() == want.tobytes()


def test_kappa_regimes():
    kap = be.WaveguideParams(1.0, 2.0).kappa
    assert kap.imag == 0.0 and kap.real == pytest.approx(math.sqrt(3.0))
    kap = be.WaveguideParams(1.0, 0.5).kappa
    assert kap.real == 0.0 and kap.imag == pytest.approx(math.sqrt(0.75))


def test_parameter_validation():
    # the branch is data: a sign outside +-1, alone or among good ones
    f = be.make_field(1.0, 0.5)
    for eps in (0, 2, math.nan, [1, 0], np.array([1.0, -1.0, math.nan])):
        with pytest.raises(ValueError, match="eps must be"):
            be.branch_field_values(f, [0.5, -0.5], 1.0, eps)
    for alpha, k in ((1.0, 1.0), (0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(ValueError):
            be.make_field(alpha, k)
        with pytest.raises(ValueError):
            be.WaveguideParams(alpha=alpha, k=k)


@pytest.mark.parametrize("alpha,k,name", [
    (math.nan, 0.5, "alpha"), (math.inf, 0.5, "alpha"),
    (1.0, math.nan, "k"), (1.0, math.inf, "k"), (-math.inf, 0.5, "alpha")])
def test_non_finite_parameters_are_rejected(alpha, k, name):
    # before evaluation, naming the parameter: erf_cx would otherwise
    # meet the non-finite value deep inside the field
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        be.WaveguideParams(alpha, k)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        be.make_field(alpha, k)


def test_frozen_point_values(field):
    cases = [
        ((1.0, 2.0), 1.9394091739317715e-01 - 4.1690709510802998e-01j),
        ((-1.5, -0.7), -1.2386212064254266e-17 - 8.1371972685256103e-02j),
        ((0.0, 3.0), 6.6856760842330165e-02 - 1.3434000009611342e+00j),
    ]
    for (x, y), want in cases:
        got = be.field_values(field, x, y)
        assert abs(got - want) < 1e-13
    assert be.field_values(field, 0.0, 0.0) == 0.0     # the tip


def test_vanishes_on_both_ray_faces(field):
    assert be.ray_defect(field, n=500) <= 1e-12


def test_ray_zero_in_trapped_and_open_regimes():
    for k in (0.5, 2.0):
        f = be.make_field(1.0, k)
        assert be.ray_defect(f, n=300) <= 1e-12


def test_two_branch_evaluator_consistency(field):
    X = np.array([0.7, -0.7, 0.0, -2.2, -0.0])
    Y = np.array([1.1, 1.1, -0.4, 2.0, 0.9])
    two = be.field_values(field, X, Y)
    right = be.branch_field_values(field, X, Y, 1)
    left = be.branch_field_values(field, X, Y, -1)
    assert two[0] == right[0]
    assert two[1] == left[1]
    assert two[2] == right[2]      # the axis itself uses the +1 branch,
    assert two[4] == right[4]      # on both signs of its zero
    assert two[3] == left[3]
    # an array of signs is the per-point calls, bit for bit
    eps = np.array([-1, 1, -1, 1, -1])
    mixed = be.branch_field_values(field, X, Y, eps)
    for i in range(X.size):
        assert mixed[i] == be.branch_field_values(field, X[i], Y[i], int(eps[i]))


@pytest.mark.parametrize("eps", [1, -1])
def test_scalar_eps_is_the_full_array_bit_for_bit(field, eps):
    # a scalar sign goes to the chart as it is, not broadcast per point
    X, Y = np.random.default_rng(40).uniform(-4.0, 4.0, (2, 300))
    full = be.branch_field_values(field, X, Y, np.full(X.shape, eps))
    assert be.branch_field_values(field, X, Y, eps).tobytes() == full.tobytes()
    assert be.branch_field_values(field, X, Y, np.int8(eps)).tobytes() == full.tobytes()

def test_branch_blocks_keep_the_ray_zero(field):
    # the tip and the top face of the ray are exact zeros on both sides
    # of every block boundary; the envelope multiplies in place
    from edgewave.specfun import _BLOCK as B
    for n in (B - 1, B, B + 1, 2 * B + 1):
        rng = np.random.default_rng(n)
        X = rng.uniform(-3.0, 3.0, n)
        Y = rng.uniform(-3.0, 3.0, n)
        at = [i for e in range(B, n, B) for i in (e - 2, e - 1, e, e + 1)]
        at = np.array([0, n - 1] + [i for i in at if i < n])
        X[at] = np.linspace(0.1, 2.0, at.size)
        X[at[::2]] = 0.0    # every other one is the tip
        Y[at] = 0.0
        for eps in (1, -1):
            vals = be.branch_field_values(field, X, Y, eps)
            assert vals.shape == (n,)
            assert np.all(vals[at] == 0.0)
    assert isinstance(be.branch_field_values(field, 1.0, 2.0, 1), complex)
    xs = np.linspace(-2.0, 2.0, 40)
    assert be.branch_field_values(field, xs[None, :], xs[:, None], 1).shape == (40, 40)
    assert be.branch_field_values(field, np.empty(0), np.empty(0), 1).shape == (0,)


def test_branch_memory_per_point(field):
    # two_term's blocks, the envelope's exponent inside erfc's: about
    # 28 B per point on meshes (was 212), for one branch and for the
    # two-branch field alike (45 while it gathered and scattered each side)
    n = 321
    X, Y = np.meshgrid(np.linspace(-3.0, 3.0, n), np.linspace(-3.0, 3.0, n))
    for evaluate in (lambda f, X, Y: be.branch_field_values(f, X, Y, 1),
                     be.field_values):
        evaluate(field, X, Y)
        tracemalloc.start()
        try:
            evaluate(field, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36 * n * n


def test_interior_pde_residual_off_seam_and_ray(field):
    # each open half-plane solves the Helmholtz equation exactly away
    # from the barrier cut: the five-point residual must shrink at
    # second order in windows clear of both x = 0 and the ray y = 0
    E = K * K - ALPHA * ALPHA
    for y_lo, y_hi in ((0.3, 1.3), (-1.3, -0.3)):
        res = []
        for h in (2e-3, 1e-3):
            xs = np.arange(0.5, 1.5 + h / 2, h)
            ys = np.arange(y_lo, y_hi + h / 2, h)
            X, Y = np.meshgrid(xs, ys)
            v = be.branch_field_values(field, X, Y, 1)
            lap = (v[1:-1, :-2] + v[1:-1, 2:] + v[:-2, 1:-1] + v[2:, 1:-1]
                   - 4.0 * v[1:-1, 1:-1]) / h ** 2
            r = np.abs(lap + E * v[1:-1, 1:-1])
            res.append(float(np.sqrt(np.mean(r ** 2))))
        scale = float(np.abs(be.branch_field_values(field, 1.0, 0.5, 1)))
        assert res[-1] < 1e-4 * scale
        assert math.log2(res[0] / res[1]) >= 1.8


def test_tail_slope_frozen_window():
    # slope of log|psi| vs |x| on the quiet side; the window and k were
    # chosen so the guided bracket dominates the tip halo
    for alpha in (1.0, 2.0):
        f = be.make_field(alpha, 0.2 * alpha)
        xs = np.linspace(-20.0 / alpha, -10.0 / alpha, 41)
        vals = be.field_values(f, xs, np.full_like(xs, 12.0 / alpha))
        slope, rms = gp.fit_log_slope(np.abs(xs), vals)
        assert abs(slope + alpha) / alpha <= 0.01
        assert rms < 0.01


def test_axis_jump_is_order_one(field):
    # measured between-branch mismatch on the waveguide axis
    assert be.axis_value_jump(field, -5.0) == pytest.approx(1.3506, abs=2e-3)
    assert be.axis_value_jump(field, 2.0) == pytest.approx(1.3193, abs=2e-3)


def test_delta_jump_defect_saturates(field):
    # the matching defect does not vanish with the step: it is a
    # property of the closed form, frozen from three separate steps
    got = [be.delta_jump_check(field, -5.0, h) for h in (1e-2, 1e-3, 1e-4)]
    for g, want in zip(got, (0.5037, 0.5015, 0.5013)):
        assert g == pytest.approx(want, abs=2e-3)
    assert be.delta_jump_check(field, 2.0, 1e-3) == pytest.approx(0.4799, abs=2e-3)
    with pytest.raises(ValueError):
        be.delta_jump_check(field, 0.0, 1e-3)


def _point(f, x, y, eps):
    """One branch value from a call of its own."""
    return complex(be.branch_field_values(f, x, y, eps))


@pytest.mark.parametrize("alpha, k", [(1.0, 0.5), (1.0, 2.0), (1.5, 1.05)])
def test_defect_checks_match_one_call_per_point(alpha, k):
    # delta_jump_check and ray_defect sample all their points of one
    # branch in one call; their numbers are those of one call per point
    f = be.make_field(alpha, k)
    for y, h in ((-5.0, 1e-3), (2.0, 1e-4)):
        p_plus, p_r = _point(f, 0.0, y, 1), _point(f, h, y, 1)
        p_minus, p_l = _point(f, 0.0, y, -1), _point(f, -h, y, -1)
        want = (abs((p_r - p_plus) / h - (p_minus - p_l) / h + 2.0 * alpha * p_plus)
                / (2.0 * alpha * abs(p_plus)))
        assert be.delta_jump_check(f, y, h) == pytest.approx(want, rel=1e-15, abs=0)
    n = 40
    ray = max(abs(_point(f, r, face, 1))
              for r in np.geomspace(1e-3, 20.0, n) for face in (0.0, -0.0))
    th = np.linspace(0.05, 2.0 * math.pi - 0.05, 256)
    scale = max(abs(complex(be.field_values(f, math.cos(t), math.sin(t))))
                for t in th)
    assert be.ray_defect(f, n=n) == pytest.approx(ray / scale, rel=1e-15, abs=0)


def test_jump_check_formula_on_pure_mode():
    # sanity for the diagnostic itself: the unperturbed guided mode
    # satisfies the matching condition, defect -> 0 linearly in h
    alpha, k = ALPHA, K

    def mode(x, y):
        return math.exp(-alpha * abs(x)) * cmath.exp(1j * k * y)

    defects = []
    for h in (1e-2, 1e-3):
        p0 = mode(0.0, 1.0)
        d_r = (mode(h, 1.0) - p0) / h
        d_l = (p0 - mode(-h, 1.0)) / h
        defects.append(abs((d_r - d_l) + 2 * alpha * p0) / (2 * alpha * abs(p0)))
    assert defects[0] < 0.01
    assert defects[1] < 1e-3


def test_quadrant_saturation_shape(field):
    # deep in the x < 0, y > 0 quadrant the field approaches
    # e^{-alpha|x|} (e^{-iky} - e^{+iky}) F(full), up to the tip halo
    kap = be.WaveguideParams(ALPHA, K).kappa
    s = cmath.sqrt(-2j * kap)
    if s.real < 0:
        s = -s
    F_full = math.sqrt(math.pi) / s
    x, y = -6.0, 8.0
    v = be.field_values(field, x, y)
    model = math.exp(-abs(x)) * (cmath.exp(-1j * K * y)
                                 - cmath.exp(1j * K * y)) * F_full
    assert abs(v - model) / abs(model) < 2e-2



def test_field_below_the_double_range_is_zero_not_overflow():
    # alpha = 50, k = 40: at the first three points log |psi| <= -12730,
    # -9002 and -12730, so the field is 0
    f = be.make_field(50.0, 40.0)
    X = np.array([-300.0, -300.0, 300.0, 0.0])
    Y = np.array([-300.0, 0.5, -300.0, -300.0])
    got = be.field_values(f, X, Y)
    assert got[:3].tobytes() == np.zeros(3, complex).tobytes()
    # on the axis e^{-alpha|x|} = 1, and the value is the one computed alone
    alone = be.field_values(f, X[3:], Y[3:])
    assert abs(alone[0]) > 0.1 and got[3:].tobytes() == alone.tobytes()
    # k > alpha, below the ray far from the tip: e^{-alpha|x|} (about
    # e^-800) and erf's Gaussian (about e^+800) are never formed apart,
    # so the field of size 5e-9 is finite, not an overflow
    v = be.field_values(be.make_field(1.0, 3.0), np.array([800.0]),
                        np.array([-1e-3]))
    assert np.isfinite(v).all() and 1e-9 < abs(v[0]) < 1e-8


def _mp_field(alpha, k, x, y):
    """The bound field at (x, y) by mpmath at 50 digits, from the double
    chart: e^{-alpha|x|} [e^{-iky} F(xi) - e^{iky} F(eta)]."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p = be.WaveguideParams(alpha, k)
    kap, lam = p.kappa, p.lam if x >= 0 else -p.lam
    xi, eta = chart(x, y, 0.0, lam)
    s = mp.sqrt(-2j * mp.mpc(kap.real, kap.imag))
    s = -s if s.real < 0 else s

    def F(w):
        return mp.sqrt(mp.pi) / (2 * s) * (1 + mp.erf(s * mp.mpc(w.real, w.imag)))

    phase = mp.exp(-1j * k * mp.mpf(y))
    return complex(mp.exp(-alpha * abs(mp.mpf(x)))
                   * (phase * F(complex(xi)) - mp.conj(phase) * F(complex(eta))))


@pytest.mark.parametrize("alpha,k", [(1.0, 0.5), (2.0, 0.6), (1.0, 2.0)])
def test_bound_field_matches_mpmath(alpha, k):
    # random clouds in both regimes: within 1e-15 of max|psi|, and each
    # point within 1e-12 of its own value.  Near the ray two O(1) terms
    # cancel to |psi| ~ 5e-4, which costs 2.1e-13 there; where erf is
    # near -1, 1 + erf cancelled to 1e-10 before erfc took it
    rng = np.random.default_rng(int(10 * alpha + 100 * k))
    X, Y = rng.uniform(-6.0, 6.0, 100), rng.uniform(-6.0, 6.0, 100)
    got = be.field_values(be.make_field(alpha, k), X, Y)
    want = np.array([_mp_field(alpha, k, x, y) for x, y in zip(X, Y)])
    err = np.abs(got - want)
    assert err.max() <= 1e-15 * np.abs(want).max()
    assert np.all(err <= 1e-12 * np.abs(want))


def test_bound_field_matches_mpmath_past_the_double_range():
    # alpha = 1, k = 3 just below the ray far from the tip, where
    # e^{-alpha|x|} and erf's Gaussian would each leave the double range,
    # to 1e-14 absolute (the round-off of the O(1) terms that cancel);
    # alpha = 50, k = 40 at (-15, 0), where e^{-alpha|x|} = e^-750 alone
    # underflows but the field is 2.8e-198
    for x in (800.0, 748.8):
        got = be.field_values(be.make_field(1.0, 3.0), x, -1e-3)
        assert abs(got - _mp_field(1.0, 3.0, x, -1e-3)) <= 1e-14
    got = be.field_values(be.make_field(50.0, 40.0), -15.0, 0.0)
    want = _mp_field(50.0, 40.0, -15.0, 0.0)
    assert abs(want) > 1e-198 and abs(got - want) <= 1e-13 * abs(want)


def _far_barrier_rule(alpha):
    """400 Gauss-Legendre nodes t = sqrt(s - a) over [0, sqrt(40/alpha)]
    and their weights."""
    u, w = np.polynomial.legendre.leggauss(400)
    t_end = math.sqrt(40.0 / alpha)
    return 0.5 * t_end * (u + 1.0), 0.5 * t_end * w


@pytest.mark.parametrize("alpha,k", [(1.0, 0.5), (1.0, 0.2), (1.0, 0.9), (2.0, 1.0)])
def test_far_barrier_moment_is_the_law(alpha, k):
    # the eps = +1 branch with its tip at (a, 0), over its far-field size
    # F(inf) = sqrt(pi/2|kappa|): its barrier density sigma0 = [psi_y]
    # across y = 0 has the moment (alpha/2ik) int e^{-alpha s} sigma0 ds
    # = (alpha + |kappa|) e^{-2 alpha a}/(2ik), R's far-barrier law;
    # 3.4e-9 to 4.9e-9 relative measured, the O(h^2) of the one-sided
    # differences of step h = 1e-4 (s - a) in sigma0
    p = be.WaveguideParams(alpha, k)
    kap = abs(p.kappa)
    t, wt = _far_barrier_rule(alpha)
    for a in (2.0, 6.0):
        s = a + t * t
        h = 1e-4 * (s - a)
        ys = np.array([[0.0], [1.0], [2.0], [-0.0], [-1.0], [-2.0]]) * h
        psi = two_term(k, p.kappa, p.lam, alpha, a, s, ys, -1, 1) \
            / math.sqrt(math.pi / (2.0 * kap))
        above = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * h)
        below = (3.0 * psi[3] - 4.0 * psi[4] + psi[5]) / (2.0 * h)
        moment = alpha / (2j * k) * np.sum(wt * 2.0 * t * np.exp(-alpha * s)
                                           * (above - below))
        law = (alpha + kap) * math.exp(-2.0 * alpha * a) / (2j * k)
        assert abs(moment / law - 1.0) <= 2e-8


@pytest.mark.parametrize("alpha,k", [(1.0, 0.5), (1.0, 0.2), (1.0, 0.9), (2.0, 1.0)])
def test_far_barrier_neumann_moment_is_the_law(alpha, k):
    # the paper's other polarisation: the Neumann branch (sign = +1) with
    # its tip at (a, 0), over F(inf), has the double-layer moment
    # (alpha/2) int e^{-alpha s} [psi] ds, [psi] = psi(s, +0) - psi(s, -0),
    # = (alpha - |kappa|) e^{-2 alpha a}/(2ik) on the same rule; face
    # values need no differences: 2.1e-14 to 2.5e-14 relative measured
    p = be.WaveguideParams(alpha, k)
    kap = abs(p.kappa)
    t, wt = _far_barrier_rule(alpha)
    for a in (2.0, 6.0):
        s = a + t * t
        psi = two_term(k, p.kappa, p.lam, alpha, a, s, np.array([[0.0], [-0.0]]),
                       1, 1) / math.sqrt(math.pi / (2.0 * kap))
        moment = alpha / 2.0 * np.sum(wt * 2.0 * t * np.exp(-alpha * s)
                                      * (psi[0] - psi[1]))
        law = (alpha - kap) * math.exp(-2.0 * alpha * a) / (2j * k)
        assert abs(moment / law - 1.0) <= 1e-12

# --- exact field from the barrier integral equation -------------------------

@pytest.fixture(scope="module")
def exact():
    return be.solve_scattering(ALPHA, K)


@pytest.fixture(scope="module")
def exact_fine():
    # the default 12 tip panels doubled
    return be.solve_scattering(ALPHA, K, panels=24)


def test_barrier_kernel_matches_channel_green(exact):
    # the image-line form of the delta-line Green's function against the
    # independent channel decomposition; at |dy| >= 0.8 the p_max cut-off
    # of green_eval stays below the tolerance
    g = gp.make_green(ALPHA, K * K - ALPHA * ALPHA)
    for x, y, s in ((0.7, 1.3, 0.4), (-1.1, -0.8, 0.2), (0.3, 0.9, 0.0)):
        want = gp.green_eval(g, PlanePoint(s, 0.0), PlanePoint(x, y)).value
        assert abs(exact.green(x, y, s) - want) < 1e-9


def test_image_integral_at_tip_is_rapidity_over_k(exact):
    # C(0, 0) = arccosh(alpha/kappa)/k; in the trapped regime the rapidity
    # of WaveguideParams is that arccosh on the branch kappa = i|kappa|,
    # lambda = ln((k + alpha)/|kappa|) - i pi/2
    lam = be.WaveguideParams(ALPHA, K).lam
    assert lam.imag == pytest.approx(-math.pi / 2, abs=1e-15)
    mesh = exact.mesh
    c00 = mesh.potential(0.0, 0.0)[0] @ np.exp(-ALPHA * mesh.s)
    assert c00 == pytest.approx(lam.real / K, abs=1e-12)


def test_exact_field_is_the_barrier_single_layer(exact):
    # values() folds the image term onto the barrier panels; summing the
    # Green's function over the same layer directly must give the same field
    mesh = exact.mesh
    for x, y in ((1.0, 1.5), (-0.7, -0.9)):
        direct = math.exp(-ALPHA * abs(x)) * cmath.exp(1j * K * y) + (
            mesh.ws * exact.layer) @ exact.green(x, y, mesh.s)
        assert abs(complex(exact.values(x, y)) - direct) < 1e-12


def test_mesh_weights_integrate_densities_in_s(exact):
    # ws @ rho = int rho ds, the tip's s^{-1/2} included
    mesh = exact.mesh
    decay = np.exp(-ALPHA * mesh.s)
    assert abs(mesh.ws @ (decay / np.sqrt(mesh.s)) - math.sqrt(math.pi / ALPHA)) <= 1e-14
    assert abs(mesh.ws @ decay - 1.0 / ALPHA) <= 1e-14


def test_scattered_field_is_even_in_y(exact):
    # the scattered field is a single layer on y = 0: psi minus the
    # incident mode takes the same value at (x, y) and (x, -y)
    X, Y = np.random.default_rng(41).uniform(-4.0, 4.0, (2, 200))

    def scattered(y):
        return exact.values(X, y) - np.exp(-ALPHA * np.abs(X) + 1j * K * y)

    up, down = scattered(Y), scattered(-Y)
    assert np.abs(up - down).max() <= 1e-14 * np.abs(exact.values(X, Y)).max()


def test_exact_field_satisfies_delta_matching(exact):
    # the two-branch formula leaves 0.50 (y = -5) and 0.48 (y = +2) here;
    # the exact field shrinks like the pure mode's alpha*h/2
    def defect(y, h):
        p0 = complex(exact.values(0.0, y))
        d_r = (complex(exact.values(h, y)) - p0) / h
        d_l = (p0 - complex(exact.values(-h, y))) / h
        return abs((d_r - d_l) + 2.0 * ALPHA * p0) / (2.0 * ALPHA * abs(p0))

    for y in (-5.0, 2.0):
        assert defect(y, 1e-2) < 0.01
        assert defect(y, 1e-3) < 1e-3


def test_exact_field_vanishes_on_barrier_under_refinement(exact, exact_fine):
    xs = np.linspace(0.013, 5.0, 200)      # off the collocation nodes
    worst = []
    for sol in (be.solve_scattering(ALPHA, K, panels=6), exact, exact_fine):
        top = np.abs(sol.values(xs, np.full_like(xs, 0.0))).max()
        bot = np.abs(sol.values(xs, np.full_like(xs, -0.0))).max()
        worst.append(max(top, bot))
    assert worst[0] > worst[1] > worst[2]
    assert worst[2] < 1e-9


def test_exact_flux_and_mesh_stability(exact, exact_fine):
    R, T = exact.reflection, exact.transmission
    assert T == 1.0 + R
    assert abs(abs(R) ** 2 + abs(T) ** 2 - 1.0) < 1e-12
    assert abs(exact_fine.reflection - R) < 1e-4
    assert abs(R) == pytest.approx(0.98658, abs=1e-5)
    assert abs(T) == pytest.approx(0.16330, abs=1e-5)
    # R itself, at the default 12 tip panels and at 32, where the mesh
    # has converged; the two differ by 3.1e-12
    assert abs(R - (-0.973333380243339 - 0.16110714182622293j)) <= 1e-13
    fine = be.solve_scattering(ALPHA, K, panels=32).reflection
    assert abs(fine - (-0.97333338024234 - 0.16110714182915j)) <= 1e-13


@pytest.mark.parametrize("c", [0.5, 3.7])
def test_exact_reflection_is_scale_free(exact, c):
    # scaling alpha and k by c only rescales lengths, so R depends on
    # k/alpha alone
    R = be.solve_scattering(c * ALPHA, c * K).reflection
    assert abs(R - exact.reflection) <= 1e-14


def _phase(alpha, k):
    # flux gives |R + 1/2| = 1/2 in the trapped regime, so one real phase
    # phi = arg(-(R + 1/2)) fixes R and T
    return cmath.phase(-(be.solve_scattering(alpha, k).reflection + 0.5))


@pytest.mark.parametrize("ratio", [0.003, 0.01])
def test_exact_phase_low_energy_law(ratio):
    # phi = (2/pi)(k/alpha) + (2/9pi)(k/alpha)^3 + O((k/alpha)^5); the
    # bound is the next term's size, (k/alpha)^5 = 2.4e-13 and 1e-10,
    # against differences of 3.2e-14 and 2.4e-12 measured
    law = 2.0 / math.pi * ratio + 2.0 / (9.0 * math.pi) * ratio ** 3
    assert abs(_phase(ALPHA, ratio * ALPHA) - law) <= ratio ** 5


@pytest.mark.parametrize("gap", [1e-4, 1e-5])
def test_exact_phase_threshold_law(gap):
    # with q = kappa/alpha, phi = pi/4 - q^2 (ln(2/q) + 1/2)/pi + o(q^2);
    # the bound is the next term's size, q^4 ln(2/q) = 2.0e-7 and 2.4e-9,
    # against differences of 3.2e-8 and 4.1e-10 measured
    k = (1.0 - gap) * ALPHA
    q = math.sqrt((ALPHA - k) * (ALPHA + k)) / ALPHA
    law = math.pi / 4.0 - q * q * (math.log(2.0 / q) + 0.5) / math.pi
    assert abs(_phase(ALPHA, k) - law) <= q ** 4 * math.log(2.0 / q)


def test_exact_solver_rejects_bad_input(exact):
    with pytest.raises(ValueError, match="trapped"):
        be.solve_scattering(1.0, 1.0)
    with pytest.raises(ValueError, match="trapped"):
        be.solve_scattering(1.0, 2.0)
    for alpha, k in ((0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(ValueError):
            be.solve_scattering(alpha, k)
    with pytest.raises(ValueError, match="^alpha must be positive and finite, got nan"):
        be.solve_scattering(math.nan, 0.5)
    with pytest.raises(ValueError):
        be.solve_scattering(1.0, 0.5, panels=3)
    with pytest.raises(ValueError, match="tip"):
        exact.values(0.0, 0.0)
    with pytest.raises(ValueError, match="tip"):
        exact.values(np.array([1.0, 0.0]), np.array([1.0, -0.0]))
    with pytest.raises(ValueError):
        exact.values(np.nan, 1.0)
    with pytest.raises(ValueError, match="s >= 0"):
        exact.green(1.0, 1.0, [0.5, -0.5])
    with pytest.raises(ValueError, match="coincident"):
        exact.green(0.5, 0.0, np.array([0.2, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        exact.green(1.0, np.inf, 0.5)
