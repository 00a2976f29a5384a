"""Closed-form field for the waveguide mode meeting the edge barrier.

A particle bound transversely to the x = 0 axis by the attractive delta
well (delta_1d) and travelling in y with wavenumber k has total energy
E = k^2 - alpha^2.  In the presence of the barrier {y = 0, x >= 0} the
candidate closed form is

    psi(x, y) = exp(-alpha|x|) [ exp(-iky) F(xi) - exp(+iky) F(eta*) ],

where F is the Fresnel-type integral with wavenumber kappa = sqrt(E)
(continued to i*sqrt(-E) in the trapped regime k < alpha), and (xi,
eta*) are rotated parabolic coordinates whose rotation parameter lambda
solves

    kappa e^{+lambda} = k + alpha*eps,   kappa e^{-lambda} = k - alpha*eps,

with eps = sgn(x) the side of the waveguide axis.  We take lambda =
Log((k + alpha*eps)/kappa), which makes the first product exact by
construction and the second exact up to rounding; it also gives
lambda(-eps) = -lambda(+eps) identically in both regimes.

Branch choice for eta*.  The second coordinate is evaluated with the
rotation parameter negated: eta* = eta_{-lambda}.  For real lambda this
equals the literal complex conjugate of eta, and it is the unique
continuation of that rule which keeps the barrier condition exact for
complex lambda: at phi = 0 and phi = 2pi one has xi_{lambda} =
eta_{-lambda} identically, so the two terms cancel on both faces of the
ray for every lambda.  The literal conjugate would break the ray
condition in the trapped regime.  The bracket is sommerfeld.two_term,
the free-edge formula in the rotated chart, so the free edge (lambda =
0, kappa = k, alpha = 0) and this field share one evaluator.

Known defects of this closed form (measured, not patched):

* The two eps-branches do not agree on the waveguide axis x = 0: the
  field has an O(1) jump across the axis away from the tip (the second
  term's coordinate flips sign between the branches).  Each open half
  x > 0, x < 0 satisfies the Helmholtz equation exactly; the defect is
  confined to the matching line.
* Consequently the delta-well jump condition at x = 0 is not satisfied:
  delta_jump_check returns an O(1) relative defect independent of the
  step size.

These are properties of the formula itself, reproducible from the
saturated values of F in each quadrant; the diagnostics below report
their magnitudes.  The two-branch formula is kept as it stands, frozen
seam included.

Exact field: solve_scattering.  In the trapped regime 0 < k < alpha the
full-domain field is obtained instead from a barrier integral equation.
With the delta-line Green's function ((E - H)G = delta, kappa =
sqrt(alpha^2 - k^2), source (s, 0) with s >= 0)

    G = alpha e^{-alpha(|x|+s)} e^{ik|y|} / (2ik) - K0(kappa R) / (2 pi)
        + (alpha / 2 pi) C(|x| + s, |y|),
    C(u, y) = int_0^inf e^{-alpha t} K0(kappa sqrt((u - t)^2 + y^2)) dt,

the field is psi = e^{-alpha|x| + iky} + int_0^inf G((x, y), (s, 0))
sigma(s) ds, and the barrier density sigma solves

    int_0^inf G((x, 0), (s, 0)) sigma(s) ds = -e^{-alpha x},   x > 0.

sigma ~ s^{-1/2} at the tip, so it is discretized in t = sqrt(s), where
2 t sigma(t^2) is smooth, on Gauss-Legendre panels (Nystrom, with
Lagrange product weights graded toward every near-singular target).  The
C term is a K0 line potential of the image density mu(x') = e^{-alpha
x'} int_{s >= max(0, -x')} sigma(s) e^{-alpha s} ds, evaluated at
(|x|, y); its x' < 0 half is folded onto the barrier panels as the
density nu(v) = int_v^inf sigma(s) e^{-alpha(s - v)} ds seen from
(-|x|, y).  The bound channel leaves R e^{-alpha|x| + ik|y|} with R =
(alpha / 2ik) int e^{-alpha s} sigma ds: below the tip the reflected
mode R e^{-alpha|x| - iky}, above it the transmitted one with T = 1 + R.
Only the bound-channel part of the discrete operator is imaginary, and
it is the same rank-one product that defines R, so |R|^2 + |T|^2 = 1
holds to rounding for any panel count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import k0

from .sommerfeld import two_term

__all__ = [
    "WaveguideParams",
    "BoundEdgeField",
    "BarrierScattering",
    "kappa_lambda",
    "make_field",
    "field_values",
    "branch_field_values",
    "solve_scattering",
    "delta_jump_check",
    "axis_value_jump",
    "ray_defect",
]

def _check_alpha_k(alpha: float, k: float) -> None:
    for name, v in (("alpha", alpha), ("k", k)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def kappa_lambda(alpha: float, k: float, eps: int) -> tuple[complex, complex]:
    """Solve the defining products for (kappa, lambda).

    kappa = sqrt(k^2 - alpha^2) for k > alpha (propagating regime) and
    i*sqrt(alpha^2 - k^2) for k < alpha (trapped regime, upper branch).
    lambda is the principal log of (k + alpha)/kappa for eps = +1 and
    its exact negation for eps = -1; the branch keeps exp(-iky)F(xi)
    bounded on the physical sheet.
    """
    _check_alpha_k(alpha, k)
    if k == alpha:
        raise ValueError("k = alpha is the branch point between the regimes")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if k > alpha:
        kappa = complex(math.sqrt(k * k - alpha * alpha))
    else:
        kappa = 1j * math.sqrt(alpha * alpha - k * k)
    # (k + alpha)/kappa and (k - alpha)/kappa are exact reciprocals, so
    # the eps = -1 rapidity is the negation of the eps = +1 one; taking
    # the log once keeps the antisymmetry (and both products) bit-exact
    lam = cmath.log((k + alpha) / kappa)
    return kappa, lam if eps == 1 else -lam


@dataclass(frozen=True)
class WaveguideParams:
    """Well strength alpha and wavenumber k of the guided mode, checked
    by kappa_lambda on every build; each branch evaluation takes its
    (kappa, lambda) from kappa_lambda again, so neither is stored."""

    alpha: float
    k: float

    def __post_init__(self):
        kappa_lambda(self.alpha, self.k, 1)

    @property
    def E(self) -> float:
        """Total energy k^2 - alpha^2 of the guided mode."""
        return self.k * self.k - self.alpha * self.alpha


@dataclass(frozen=True)
class BoundEdgeField:
    """Closed-form field configuration (tip fixed at the origin): the
    guided-mode parameters.

    There is no amplitude parameter, and the amplitude is not 1: far
    from the tip on the axis |psi| is sqrt(pi/2|kappa|), 1.347 at
    alpha = 1, k = 0.5 and 0.952 at alpha = 2, k = 1.
    """

    params: WaveguideParams


def make_field(alpha: float, k: float) -> BoundEdgeField:
    return BoundEdgeField(params=WaveguideParams(alpha=alpha, k=k))


def branch_field_values(f: BoundEdgeField, X, Y, eps: int) -> np.ndarray:
    """Evaluate one eps-branch of the closed form everywhere.

    This is the analytic continuation of the half-plane formula for side
    eps across the whole plane.  It is what a solver needs for boundary
    data on a subdomain that touches the axis from one side, where the
    two-branch evaluator would pick the wrong face at x = 0.

    It is one two_term call with the envelope rate alpha, which puts
    e^{-alpha|x|} inside erfc's exponential: a point whose field lies
    below the double range gets 0, and e^{-alpha|x|} and erf's Gaussian
    never overflow or underflow apart.
    """
    alpha, k = f.params.alpha, f.params.k
    kap, lam = kappa_lambda(alpha, k, eps)
    return two_term(k, kap, lam, alpha, 0.0, X, Y, -1)


def field_values(f: BoundEdgeField, X, Y) -> np.ndarray:
    """Two-branch field: eps = sgn(x), with eps = +1 on the axis itself."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    X, Y = np.broadcast_arrays(X, Y)
    out = np.empty(X.shape, dtype=complex)
    right = X >= 0.0
    if right.any():
        out[right] = branch_field_values(f, X[right], Y[right], 1)
    if (~right).any():
        out[~right] = branch_field_values(f, X[~right], Y[~right], -1)
    return out


# --- exact field from the barrier integral equation -------------------------

_ORDER = 16            # Gauss nodes per barrier panel
_TIP_DECAY = 30.0      # uniform tip panels cover alpha*s <= 30
_HALO_DECAY = 36.0     # the barrier is cut at kappa*s = 36
_PIECE_ORDER = 12      # Gauss nodes per graded piece
_MAX_LEVELS = 30       # grading stops at 2^-30 of a panel
_CHUNK = 256           # rows per batch of near-field or evaluation work
_TIP_PANELS = 12       # default uniform panels over the tip stretch


def _trapped_kappa(alpha: float, k: float) -> float:
    """kappa = sqrt(alpha^2 - k^2) > 0, after checking 0 < k < alpha."""
    _check_alpha_k(alpha, k)
    if k >= alpha:
        raise ValueError("only the trapped regime 0 < k < alpha (E < 0) "
                         "is supported")
    return math.sqrt((alpha - k) * (alpha + k))


class _BarrierPanels:
    """Gauss-Legendre panels in t = sqrt(s) along the barrier.

    Uniform panels cover the tip stretch alpha*s <= 30; beyond it the
    widths grow geometrically until kappa*s >= 36, where the tip halo has
    decayed.  A density rho on the barrier is held as g(t_j) = 2 t_j
    rho(t_j^2) at the nodes, so int rho ds = int g dt, and g is smooth
    even where rho ~ s^{-1/2}.
    """

    def __init__(self, alpha: float, kappa: float, panels: int):
        t_tip = math.sqrt(_TIP_DECAY / alpha)
        t_end = math.sqrt(_HALO_DECAY / kappa)
        edges = list(np.linspace(0.0, t_tip, panels + 1))
        width = t_tip / panels
        while edges[-1] < t_end:
            width *= 1.0 + 2.0 / panels
            edges.append(edges[-1] + width)
        self.kappa = kappa
        self.edges = np.array(edges)
        self.half = 0.5 * np.diff(self.edges)
        self.u, w = np.polynomial.legendre.leggauss(_ORDER)
        self.t = (self.edges[:-1, None] + self.half[:, None] * (self.u + 1.0)).ravel()
        self.w = (self.half[:, None] * w).ravel()
        self.s = self.t ** 2
        self.panel_of = np.repeat(np.arange(self.half.size), _ORDER)
        self.interp = np.linalg.inv(np.polynomial.legendre.legvander(self.u, _ORDER - 1))
        self.piece = np.polynomial.legendre.leggauss(_PIECE_ORDER)

    def _graded(self, u0: np.ndarray, levels: int, sides) -> tuple[np.ndarray, np.ndarray]:
        """Gauss pieces on [-1, 1] halving toward u0 (one row per u0)."""
        g, gw = self.piece
        frac = np.append(2.0 ** -np.arange(levels + 1), 0.0)
        nodes, weights = [], []
        for side in sides:
            cuts = u0[:, None] + side * (1.0 - side * u0)[:, None] * frac
            mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
            half = 0.5 * np.abs(cuts[:, :-1] - cuts[:, 1:])
            nodes.append((mid[..., None] + half[..., None] * g).reshape(u0.size, -1))
            weights.append((half[..., None] * gw).reshape(u0.size, -1))
        return np.concatenate(nodes, axis=1), np.concatenate(weights, axis=1)

    def _product_weights(self, uq: np.ndarray, fq: np.ndarray) -> np.ndarray:
        """W[n, m] with sum_m W[n, m] g_m = sum_q fq[n, q] g(uq[n, q]) for
        every degree < _ORDER polynomial g through the panel's nodes."""
        vander = np.polynomial.legendre.legvander(uq, _ORDER - 1)
        return np.einsum("nq,nqm->nm", fq, vander) @ self.interp

    def potential(self, x, y) -> np.ndarray:
        """A with (A @ g)_i = int K0(kappa |(x_i, y_i) - (t^2, 0)|) g(t) dt."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.abs(np.asarray(y, dtype=float).ravel())
        A = k0(self.kappa * np.hypot(x[:, None] - self.s, y[:, None])) * self.w
        # the kernel is singular where t^2 = x + i|y|; panels closer to
        # that root than their own length get product weights on pieces
        # graded toward it, down to the root's distance from the real axis
        root = np.sqrt(x + 1j * y)
        n_pan = self.half.size
        home = np.searchsorted(self.edges, root.real, side="right") - 1
        rows, pans = [], []
        for off in (-1, 0, 1, 2):       # widths never shrink to the right
            j = home + off
            ok = (j >= 0) & (j < n_pan)
            j = np.where(ok, j, 0)
            gap = np.maximum(np.maximum(self.edges[j] - root.real,
                                        root.real - self.edges[j + 1]), 0.0)
            ok &= np.hypot(gap, root.imag) < 2.0 * self.half[j]
            rows.append(np.nonzero(ok)[0])
            pans.append(j[ok])
        rows = np.concatenate(rows)
        pans = np.concatenate(pans)
        u0 = np.clip((root.real[rows] - self.edges[pans]) / self.half[pans] - 1.0,
                     -1.0, 1.0)
        depth = np.maximum(root.imag[rows] / self.half[pans], 2.0 ** -_MAX_LEVELS)
        levels = np.maximum(np.ceil(np.log2(2.0 / depth)), 1).astype(int)
        cols = np.arange(_ORDER)
        for lev in np.unique(levels):
            batch = np.nonzero(levels == lev)[0]
            for c in range(0, batch.size, _CHUNK):
                sel = batch[c:c + _CHUNK]
                r, j = rows[sel], pans[sel]
                uq, wq = self._graded(u0[sel], int(lev), (1.0, -1.0))
                tq = self.edges[j, None] + self.half[j, None] * (uq + 1.0)
                live = wq > 0.0     # pieces of zero length sit on the root
                dist = np.where(live, np.hypot(x[r, None] - tq ** 2, y[r, None]), 1.0)
                fq = np.where(live, wq * k0(self.kappa * dist), 0.0) * self.half[j, None]
                A[r[:, None], j[:, None] * _ORDER + cols] = self._product_weights(uq, fq)
        return A

    def tail(self, alpha: float) -> np.ndarray:
        """N with (N @ g)_i = int_{t_i} g(t) e^{-alpha (t^2 - t_i^2)} dt."""
        pan = self.panel_of
        later = pan[None, :] > pan[:, None]
        gap = np.where(later, self.s[None, :] - self.s[:, None], 0.0)
        N = np.where(later, self.w * np.exp(-alpha * gap), 0.0)
        cols = np.arange(_ORDER)
        for c in range(0, self.t.size, _CHUNK):
            i = np.arange(c, min(c + _CHUNK, self.t.size))
            j = pan[i]
            uq, wq = self._graded(self.u[i % _ORDER], _MAX_LEVELS, (1.0,))
            tq = self.edges[j, None] + self.half[j, None] * (uq + 1.0)
            fq = wq * self.half[j, None] * np.exp(-alpha * (tq ** 2 - self.s[i, None]))
            N[i[:, None], j[:, None] * _ORDER + cols] = self._product_weights(uq, fq)
        return N


@dataclass(frozen=True)
class BarrierScattering:
    """Exact field of the guided mode e^{-alpha|x| + iky} meeting the
    barrier {y = 0, x >= 0}, from solve_scattering (trapped regime).

    reflection and transmission are the amplitudes of e^{-alpha|x| - iky}
    below the tip and of e^{-alpha|x| + iky} above it.  ``layer`` holds
    2 t sigma(t^2) at the mesh nodes t (weights mesh.w, s = mesh.s), so
    the scattered field is sum_j mesh.w[j] layer[j] green(x, y, s_j).
    """

    alpha: float
    k: float
    reflection: complex
    transmission: complex
    mesh: _BarrierPanels = field(repr=False, compare=False)
    layer: np.ndarray = field(repr=False, compare=False)
    densities: np.ndarray = field(repr=False, compare=False)

    def values(self, X, Y) -> np.ndarray:
        """Total field at (X, Y); raises at the tip."""
        X, Y = np.broadcast_arrays(np.asarray(X, dtype=float),
                                   np.asarray(Y, dtype=float))
        x, y = X.ravel(), Y.ravel()
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("evaluation points must be finite")
        if np.any((x == 0.0) & (y == 0.0)):
            raise ValueError("the tip is excluded")
        ay = np.abs(y)
        # every point needs the barrier potentials at (x, |y|) and at its
        # mirror (-x, |y|); a grid symmetric in x shares them
        keys, where = np.unique(np.concatenate([x + 1j * ay, -x + 1j * ay]),
                                return_inverse=True)
        pot = np.empty((keys.size, 4), dtype=complex)
        for c in range(0, keys.size, 8 * _CHUNK):
            part = keys[c:c + 8 * _CHUNK]
            pot[c:c + part.size] = self.mesh.potential(part.real, part.imag) @ self.densities
        n = x.size
        right = x >= 0.0
        direct = np.where(right, pot[where[:n], 0], pot[where[:n], 1])
        mirror = np.where(right, pot[where[n:], 2], pot[where[n:], 3])
        guided = np.exp(-self.alpha * np.abs(x)) * (
            np.exp(1j * self.k * y) + self.reflection * np.exp(1j * self.k * ay))
        return (guided + direct + mirror).reshape(X.shape)

    def green(self, x: float, y: float, s):
        """G((x, y), (s, 0)) for sources s >= 0 (an array too), C on this solve's mesh."""
        s = np.asarray(s, dtype=float)
        r = np.hypot(x - s, y)
        if not (np.isfinite(r).all() and (s >= 0).all() and (r > 0).all()):
            raise ValueError("x, y and s must be finite, s >= 0 and the points "
                             "not coincident, where the kernel is log-singular")
        alpha, k, mesh, u = self.alpha, self.k, self.mesh, abs(x) + s
        image = mesh.potential(u, np.full(u.shape, y)) @ (2.0 * mesh.t * np.exp(-alpha * mesh.s))
        return (alpha * np.exp(-alpha * u) * cmath.exp(1j * k * abs(y)) / (2j * k)
                - k0(mesh.kappa * r) / (2.0 * math.pi)
                + alpha / (2.0 * math.pi) * image.reshape(u.shape))[()]


def solve_scattering(alpha: float, k: float,
                     panels: int = _TIP_PANELS) -> BarrierScattering:
    """Solve the barrier integral equation for 0 < k < alpha.

    ``panels`` uniform t-panels of 16 Gauss nodes span the tip stretch;
    the halo panels beyond grow by 1 + 2/panels each, a ratio below the
    golden mean for panels >= 4, so a target is never near a panel more
    than two places to its right.
    """
    kappa = _trapped_kappa(alpha, k)
    if int(panels) != panels or panels < 4:
        raise ValueError("panels must be an integer >= 4")
    bp = _BarrierPanels(alpha, kappa, int(panels))
    s, t = bp.s, bp.t
    on_line = np.zeros_like(s)
    mode = np.exp(-alpha * s)
    moment = bp.w * mode                        # q -> int sigma e^{-alpha s} ds
    direct = bp.potential(s, on_line)
    nu = (2.0 * t)[:, None] * bp.tail(alpha)    # q -> weighted image density
    image = bp.potential(-s, on_line) @ nu
    c_line = direct @ (2.0 * t * mode)          # C(x, 0) on the barrier
    bound = alpha / (2j * k)
    op = (alpha * image - direct) / (2.0 * math.pi) + np.outer(
        bound * mode + alpha / (2.0 * math.pi) * c_line, moment)
    q = np.linalg.solve(op, -mode)
    m0 = moment @ q
    reflection = complex(bound * m0)
    # the image density mu splits into its x' >= 0 half, m0 e^{-alpha x'}
    # seen from (|x|, y), and its x' < 0 half nu seen from (-|x|, y);
    # columns: direct potential for x >= 0, for x < 0, mirror potential
    # for x >= 0, for x < 0 (see BarrierScattering.values)
    own = -q / (2.0 * math.pi)
    image_pos = alpha / (2.0 * math.pi) * m0 * 2.0 * t * mode
    image_neg = alpha / (2.0 * math.pi) * (nu @ q)
    densities = np.stack([own + image_pos, own + image_neg,
                          image_neg, image_pos], axis=1)
    return BarrierScattering(alpha=alpha, k=k, reflection=reflection,
                             transmission=1.0 + reflection, mesh=bp,
                             layer=q, densities=densities)


# --- diagnostics ------------------------------------------------------------

def delta_jump_check(f: BoundEdgeField, y: float, h: float) -> float:
    """Relative defect of the delta-well matching condition at (0, y).

    Returns |[psi_x(0+) - psi_x(0-)] + 2*alpha*psi(0+)| / (2*alpha*|psi(0+)|)
    with one-sided differences of step h, each side evaluated on its own
    eps-branch, one call per branch.  For the pure guided mode
    exp(-alpha|x|+iky) this tends to 0 linearly in h; for the closed form
    here it saturates at an O(1) value (see the module docstring).
    """
    if y == 0.0:
        raise ValueError("y = 0 lies on the barrier, not the waveguide axis")
    alpha = f.params.alpha
    p_plus, p_r = map(complex, branch_field_values(f, [0.0, h], y, 1))
    p_minus, p_l = map(complex, branch_field_values(f, [0.0, -h], y, -1))
    d_right = (p_r - p_plus) / h
    d_left = (p_minus - p_l) / h
    return abs((d_right - d_left) + 2.0 * alpha * p_plus) / (2.0 * alpha * abs(p_plus))


def axis_value_jump(f: BoundEdgeField, y: float) -> float:
    """|psi(0+, y) - psi(0-, y)|: the between-branch mismatch on the axis."""
    p_plus = complex(branch_field_values(f, 0.0, y, 1))
    p_minus = complex(branch_field_values(f, 0.0, y, -1))
    return abs(p_plus - p_minus)


def ray_defect(f: BoundEdgeField, n: int = 1000) -> float:
    """max |psi| over both faces of the ray, relative to a field scale.

    Samples n log-spaced radii in [1e-3, 20] on each face (the rows
    y = +0.0 and y = -0.0 of one call) and normalizes by the max |psi| on
    a reference arc r = 1.
    """
    rs = np.geomspace(1e-3, 20.0, n)
    faces = branch_field_values(f, rs, np.array([[0.0], [-0.0]]), 1)
    worst = np.abs(faces).max()
    th = np.linspace(0.05, 2.0 * math.pi - 0.05, 256)
    scale = np.abs(field_values(f, np.cos(th), np.sin(th))).max()
    return float(worst / scale)
