"""Half-line barrier diffraction field and the stencil-residual check."""

import math
import tracemalloc

import numpy as np
import pytest

from edgewave import bound_edge, sommerfeld, specfun
from edgewave.geometry import chart
from edgewave.grid import EDGE

B = specfun._BLOCK


def traced_peak(fn):
    """Traced peak bytes of fn(), after one untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frozen_field_values():
    g = sommerfeld.EdgeGeometry(a=0.0)
    cases = [
        ((1.3, 0.7), 1.1972413479523345e+00 - 1.2887858250855384e+00j),
        ((-0.8, -1.1), -6.3958434176008705e-01 + 4.1276347373110067e-01j),
    ]
    for (x, y), want in cases:
        got = sommerfeld.field_values(2.0, g, x, y)
        assert abs(got - want) < 1e-13
    gn = sommerfeld.EdgeGeometry(a=0.5, bc="neumann")
    got = sommerfeld.field_values(1.2, gn, 1.7, 0.4)
    assert abs(got - (1.8946705906254686e+00 + 1.2989273691221870e+00j)) < 1e-13


def test_dirichlet_zero_on_both_faces():
    for a in (0.0, 1.3):
        g = sommerfeld.EdgeGeometry(a=a)
        rs = np.geomspace(1e-3, 25.0, 400)
        X = a + rs
        top = sommerfeld.field_values(2.0, g, X, np.full_like(X, 0.0))
        bot = sommerfeld.field_values(2.0, g, X, np.full_like(X, -0.0))
        th = np.linspace(0.1, 2 * math.pi - 0.1, 100)
        scale = np.abs(sommerfeld.field_values(
            2.0, g, a + np.cos(th), np.sin(th))).max()
        assert max(np.abs(top).max(), np.abs(bot).max()) <= 1e-12 * scale


def test_both_faces_read_exactly_zero():
    # on both faces the chart gives xi_lam = eta_{-lam} bit for bit and
    # both y-phases are 1, so the Dirichlet terms cancel to an exact 0:
    # the free edge, and each branch of the guided mode in both regimes
    rs = np.geomspace(1e-3, 25.0, 400)
    faces = np.array([[0.0], [-0.0]])
    for a in (0.0, 1.3):
        for k in (0.7, 2.0):
            psi = sommerfeld.field_values(k, sommerfeld.EdgeGeometry(a=a),
                                          a + rs, faces)
            assert (psi == 0.0).all()
    for alpha, k in ((1.0, 0.5), (1.0, 2.0)):
        f = bound_edge.make_field(alpha, k)
        for eps in (1, -1):
            assert (bound_edge.branch_field_values(f, rs, faces, eps) == 0.0).all()


def test_neumann_normal_derivative_vanishes():
    g = sommerfeld.EdgeGeometry(a=0.0, bc="neumann")
    k = 1.5
    for x, face in ((2.0, 1.0), (3.5, 1.0), (2.0, -1.0)):
        h = 1e-5
        # one-sided second-order difference into the chosen face
        f0 = sommerfeld.field_values(k, g, x, face * 0.0)
        f1 = sommerfeld.field_values(k, g, x, face * h)
        f2 = sommerfeld.field_values(k, g, x, face * 2 * h)
        d = (-3 * f0 + 4 * f1 - f2) / (2 * h * face)
        assert abs(d) < 1e-6


def test_bad_inputs():
    g = sommerfeld.EdgeGeometry(a=1.0)
    with pytest.raises(ValueError):
        sommerfeld.field_values(0.0, g, 2.0, 1.0)
    # rejected before evaluation, naming k: the Fresnel route would
    # otherwise meet the non-finite phase with RuntimeWarnings
    for k in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^k must be positive and finite"):
            sommerfeld.field_values(k, g, 2.0, 1.0)
    assert sommerfeld.field_values(2.0, g, 1.0, 0.0) == 0.0   # the tip
    with pytest.raises(ValueError):
        sommerfeld.EdgeGeometry(a=0.0, bc="absorbing")
    for a in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^tip abscissa a must be finite"):
            sommerfeld.EdgeGeometry(a=a)


def test_field_on_grid_marks_and_zeroes_the_ray():
    g = sommerfeld.EdgeGeometry(a=0.0)
    grid = sommerfeld.field_on_grid(2.0, g, -1.5, -1.5, 0.125, 0.125, 25, 25)
    on_ray = grid.mask == EDGE
    assert on_ray.sum() > 0
    assert np.abs(grid.values[on_ray]).max() == 0.0
    # a ray off the lattice can be neither zeroed nor masked
    with pytest.raises(ValueError, match="grid-aligned"):
        sommerfeld.field_on_grid(2.0, g, -1.5, -1.37, 0.125, 0.125, 25, 25)


def test_residual_order_two_levels():
    g = sommerfeld.EdgeGeometry(a=0.0)
    res = []
    for n in (101, 201):
        h = 6.0 / (n - 1)
        grid = sommerfeld.field_on_grid(2.0, g, -3.0, -3.0, h, h, n, n)
        rep = sommerfeld.helmholtz_residual(grid, 2.0, exclude_radius=0.5)
        assert rep.n_nodes > 0
        assert not rep.coarse_warning
        res.append(rep.l2_res)
    assert math.log2(res[0] / res[1]) >= 1.8


def test_residual_flags_and_errors():
    g = sommerfeld.EdgeGeometry(a=0.0)
    grid = sommerfeld.field_on_grid(0.4, g, -3.0, -3.0, 0.75, 0.75, 9, 9)
    rep = sommerfeld.helmholtz_residual(grid, 0.4)
    assert not rep.coarse_warning        # k * h = 0.3
    coarse = sommerfeld.field_on_grid(0.4, g, -6.0, -6.0, 1.5, 1.5, 9, 9)
    rep = sommerfeld.helmholtz_residual(coarse, 0.4)
    assert rep.n_nodes == 25
    assert rep.coarse_warning            # k * h = 0.6
    # on a 5 x 5 grid the two-cell band covers every interior node
    small = sommerfeld.field_on_grid(0.4, g, -3.0, -3.0, 1.5, 1.5, 5, 5)
    with pytest.raises(ValueError, match="all nodes excluded"):
        sommerfeld.helmholtz_residual(small, 0.4)
    # a grid under 3 nodes across has no five-point stencil
    thin = sommerfeld.field_on_grid(0.4, g, -3.0, -3.0, 1.5, 1.5, 5, 2)
    with pytest.raises(ValueError, match="too small for the five-point"):
        sommerfeld.helmholtz_residual(thin, 0.4)
    # the tip disk is placed from the mask, so it needs the ray on the grid
    above = sommerfeld.field_on_grid(0.4, g, -3.0, 0.75, 0.75, 0.75, 9, 9)
    with pytest.raises(ValueError, match="barrier tip"):
        sommerfeld.helmholtz_residual(above, 0.4, exclude_radius=0.5)


def _ray_points(n, a):
    """n points in the plane, with the tip and top-face points of the ray
    {y = +0.0, x > a} on both sides of every block boundary."""
    rng = np.random.default_rng(n)
    X = rng.uniform(-3.0, 3.0, n)
    Y = rng.uniform(-3.0, 3.0, n)
    at = [i for e in range(B, n, B) for i in (e - 2, e - 1, e, e + 1)]
    at = np.array([0, n - 1] + [i for i in at if i < n])
    X[at] = a + np.linspace(0.1, 2.5, at.size)
    X[at[::2]] = a          # every other one is the tip
    Y[at] = 0.0
    return X, Y, at


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
def test_two_term_blocks_keep_the_ray_zero(n):
    # the tip and the top face are exact zeros of the Dirichlet bracket
    # wherever they sit in the blocks, in the free-edge and the rotated
    # chart alike; the values do not depend on the split into calls
    a = 0.3
    X, Y, at = _ray_points(n, a)
    for kappa, lam in ((2.0, 0.0), (1.5j, 0.4 - 0.2j)):
        vals = sommerfeld.two_term(2.0, kappa, lam, 0.0, a, X, Y, -1)
        assert vals.shape == (n,)
        assert np.all(vals[at] == 0.0)
        cut = n // 3
        parts = np.concatenate([
            sommerfeld.two_term(2.0, kappa, lam, 0.0, a, X[:cut], Y[:cut], -1),
            sommerfeld.two_term(2.0, kappa, lam, 0.0, a, X[cut:], Y[cut:], -1)])
        assert np.abs(parts - vals).max() <= 4e-16 * np.abs(vals).max()


def _count_F_calls(monkeypatch):
    """The shapes of the arrays two_term hands to specfun._closed_form."""
    shapes = []

    def counted(kappa, pair, L):
        shapes.append(np.shape(pair))
        return specfun._closed_form(kappa, pair, L)

    monkeypatch.setattr(sommerfeld, "_closed_form", counted)
    return shapes


@pytest.mark.parametrize("n", [1, B + 1])
def test_two_term_makes_one_F_call_per_block(monkeypatch, n):
    # xi and eta reach F as one stacked pair: one specfun call per tile,
    # on the Fresnel route and the erf route alike; the trapped Dirichlet
    # chart (kappa = i|kappa|, Im lam = -pi/2, sign = -1) takes one call
    # on xi alone, and a complex lam off -pi/2, Im lam = +pi/2 or sign =
    # +1 keeps the pair
    shapes = _count_F_calls(monkeypatch)
    X = np.linspace(-3.0, 3.0, n)
    chunks = [min(B, n - s) for s in range(0, n, B)]
    p = bound_edge.WaveguideParams(1.0, 0.5)
    for kappa, lam, alpha, sign, lead in ((2.0, 0.0, 0.0, -1, (2, 1)),
                                          (1.5j, 0.4 - 0.2j, 1.0, -1, (2, 1)),
                                          (p.kappa, -p.lam, 1.0, -1, (2, 1)),
                                          (p.kappa, p.lam, 1.0, 1, (2, 1)),
                                          (p.kappa, p.lam, 1.0, -1, (1,))):
        shapes.clear()
        sommerfeld.two_term(2.0, kappa, lam, alpha, 0.0, X, 0.7, sign)
        assert shapes == [lead + (c,) for c in chunks]


@pytest.mark.parametrize("n", [2, B + 1])
def test_two_branch_field_makes_one_F_call_per_block(monkeypatch, n):
    # the branch is data: points on both sides of the guide, interleaved,
    # take one pass of tiles, not one pass per side, and in the trapped
    # regime F runs on xi alone
    shapes = _count_F_calls(monkeypatch)
    X = np.where(np.arange(n) % 2, -1.0, 1.0) * np.linspace(0.1, 3.0, n)
    bound_edge.field_values(bound_edge.make_field(1.0, 0.5), X, 0.7)
    assert shapes == [(1, min(B, n - s)) for s in range(0, n, B)]


def test_two_term_tiles_whole_rows(monkeypatch):
    # a grid's tiles are whole rows, at most B points each; a row wider
    # than B is split into column chunks
    shapes = _count_F_calls(monkeypatch)
    f = bound_edge.make_field(1.0, 0.5)
    for ny, nx in ((201, 201), (3, B + 7)):
        shapes.clear()
        xs, ys = np.linspace(-3.0, 3.0, nx), np.linspace(-3.0, 3.0, ny)
        bound_edge.field_values(f, xs[None, :], ys[:, None])
        if nx > B:
            want = [(1, B), (1, 7)] * ny
        else:
            rows = B // nx
            want = [(min(rows, ny - r), nx) for r in range(0, ny, rows)]
        assert shapes == want


@pytest.mark.parametrize("alpha,m", [(1.0, 0.5), (0.5, 0.3), (2.0, 0.7),
                                     (1.0, 0.999), (1.0, 0.01), (300.0, 0.5)])
def test_trapped_field_matches_the_two_F_bracket(alpha, m):
    # the one-F route against the bracket with F on both chart
    # coordinates: both branches and the two-branch field, on a grid in
    # units of 1/alpha with the axis (x = +-0.0) and both faces of the
    # ray (y = +-0.0); the faces stay exact zeros.  The scale is the
    # larger of max|psi| and the terms' max|e^L F|, the size of the
    # reference's own rounding: at (1, 0.01) the eps = -1 bracket cancels
    # to 0.075 of its terms, and on the row y = 0 the reference is 1e-15
    # off mpmath (see the next test), 1.3e-14 of max|psi|
    p = bound_edge.WaveguideParams(alpha, m * alpha)
    f = bound_edge.BoundEdgeField(p)
    xs = np.append(np.linspace(-3.0, 3.0, 121), -0.0) / alpha
    ys = np.append(np.linspace(-3.0, 3.0, 121), -0.0)[:, None] / alpha

    def two_F(eps):
        X, Y = np.broadcast_arrays(xs[None, :], ys)
        pair = chart(X, Y, 0.0, p.lam, eps)
        F = specfun._closed_form(p.kappa, pair, -alpha * np.abs(X))
        phase = np.exp(-1j * p.k * Y)
        return phase * F[0] - phase.conj() * F[1], np.abs(F).max()

    faces = (ys == 0.0) & (xs >= 0.0)
    (right, r_terms), (left, l_terms) = two_F(1), two_F(-1)
    cases = ((bound_edge.branch_field_values(f, xs, ys, 1), right, r_terms),
             (bound_edge.branch_field_values(f, xs, ys, -1), left, l_terms),
             (bound_edge.field_values(f, xs, ys),
              np.where(np.signbit(xs) & (xs != 0.0), left, right),
              max(r_terms, l_terms)))
    for got, want, terms in cases:
        assert got.shape == want.shape
        scale = max(np.abs(want).max(), terms)
        assert np.abs(got - want).max() <= 1e-14 * scale
        assert (got[faces] == 0.0).all() and (want[faces] == 0.0).all()


def test_one_F_route_is_the_accurate_one_where_the_bracket_cancels():
    # eps = -1 at alpha = 1, k = 0.01, on the row y = 0 left of the tip:
    # |e^{-iky} F(xi)| is 0.556 and the bracket 0.0031; there the
    # two-F bracket is 1.0e-15 off mpmath (1.3e-14 of the grid's 0.075),
    # the one-F route within 1e-16
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    alpha, k, x = mp.mpf(1), mp.mpf("0.01"), mp.mpf(-0.12000000000000011)
    kappa = 1j * mp.sqrt(alpha * alpha - k * k)
    lam = -mp.log((k + alpha) / kappa)
    w = mp.sqrt(-x) / mp.sqrt(2)                 # y = +0.0: rs = w, rc = 0
    xi = (mp.cosh(lam / 2) + 1j * mp.sinh(lam / 2)) * w
    s = mp.sqrt(-2j * kappa)
    F = lambda z: mp.sqrt(mp.pi) / (2 * s) * mp.erfc(-s * z)
    want = complex(mp.exp(alpha * x) * (F(xi) - F(-xi)))
    f = bound_edge.make_field(1.0, 0.01)
    got = bound_edge.branch_field_values(f, -0.12000000000000011, 0.0, -1)
    assert abs(got - want) <= 1e-16


def test_two_F_fields_on_views_are_the_meshgrid_bits():
    # the free edge and the propagating bound field keep the two-F
    # bracket: on the axes, on meshes() views and on np.meshgrid copies
    # they are the same bytes, with the y-phase taken once per row
    n = 141
    h = 6.0 / (n - 1)
    grid = sommerfeld.field_on_grid(2.0, sommerfeld.EdgeGeometry(), -3.0, -3.0,
                                    h, h, n, n)
    axes = (grid.xs()[None, :], grid.ys()[:, None])
    fields = (
        lambda X, Y: sommerfeld.field_values(2.0, sommerfeld.EdgeGeometry(), X, Y),
        lambda X, Y: sommerfeld.field_values(
            1.2, sommerfeld.EdgeGeometry(a=3 * h, bc="neumann"), X, Y),
        lambda X, Y: bound_edge.field_values(bound_edge.make_field(1.0, 3.0), X, Y),
        lambda X, Y: bound_edge.branch_field_values(
            bound_edge.make_field(1.0, 3.0), X, Y, -1))
    for values in fields:
        want = values(*np.meshgrid(grid.xs(), grid.ys())).tobytes()
        assert values(*axes).tobytes() == want
        assert values(*grid.meshes()).tobytes() == want


def test_two_term_shapes():
    g = sommerfeld.EdgeGeometry(a=0.0)
    v = sommerfeld.field_values(2.0, g, 1.3, 0.7)
    assert np.ndim(v) == 0 and isinstance(v, complex)
    assert sommerfeld.field_values(2.0, g, 0.0, 0.0) == 0.0   # the tip
    n = 150
    xs = np.linspace(-3.0, 3.0, n)
    got = sommerfeld.field_values(2.0, g, xs[None, :], xs[:, None])
    assert got.shape == (n, n)
    X, Y = np.meshgrid(xs, xs)
    want = sommerfeld.field_values(2.0, g, X, Y)
    assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()
    empty = sommerfeld.field_values(2.0, g, np.empty(0), np.empty(0))
    assert empty.shape == (0,) and empty.dtype == complex


def test_field_on_grid_memory_per_point():
    # the closed form runs in blocks into one output on the grid's axes:
    # with the mask, about 21 B per point (129 on the whole array, 38
    # with two coordinate meshes)
    g = sommerfeld.EdgeGeometry(a=0.0)
    n = 401
    h = 6.0 / (n - 1)
    peak = traced_peak(
        lambda: sommerfeld.field_on_grid(2.0, g, -3.0, -3.0, h, h, n, n))
    assert peak <= 40 * n * n


@pytest.mark.parametrize("radius", [0.0, 0.5])
def test_residual_memory_per_point(radius):
    # the stencil on the interior, accumulated in place: about 33 B per
    # point (was 65), the tip disk from the 1-D axes
    g = sommerfeld.EdgeGeometry(a=0.0)
    n = 401
    h = 6.0 / (n - 1)
    grid = sommerfeld.field_on_grid(2.0, g, -3.0, -3.0, h, h, n, n)
    peak = traced_peak(
        lambda: sommerfeld.helmholtz_residual(grid, 2.0, exclude_radius=radius))
    assert peak <= 40 * n * n


@pytest.mark.parametrize("k", [0.7, 2.0])
def test_free_edge_babinet(k):
    # Babinet below the ray: psi_D(x, y) + psi_N(-x, y) = F(inf) e^{-iky},
    # F(inf) = sqrt(pi)/s, s = sqrt(-2ik) with Re s > 0; the one check of
    # the Neumann closed form on the whole lower half plane
    rng = np.random.default_rng(19)
    x, y = rng.uniform(-5.0, 5.0, 400), rng.uniform(-5.0, -0.01, 400)
    dirichlet = sommerfeld.field_values(k, sommerfeld.EdgeGeometry(a=0.0), x, y)
    neumann = sommerfeld.field_values(
        k, sommerfeld.EdgeGeometry(a=0.0, bc="neumann"), -x, y)
    s = np.sqrt(-2j * k)
    assert s.real > 0
    gap = dirichlet + neumann - np.sqrt(np.pi) / s * np.exp(-1j * k * y)
    scale = max(np.abs(dirichlet).max(), np.abs(neumann).max())
    assert np.abs(gap).max() <= 1e-14 * scale
