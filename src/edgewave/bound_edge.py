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
complex lambda: on both faces of the ray (y = +0.0 and y = -0.0) the
chart gives xi_{lambda} = eta_{-lambda} bit for bit, so the two terms
cancel to an exact 0 there for every lambda.  The literal conjugate
would break the ray condition in the trapped regime.  The bracket is sommerfeld.two_term,
the free-edge formula in the rotated chart, so the free edge (lambda =
0, kappa = k, alpha = 0) and this field share one evaluator.

In the trapped regime two_term evaluates F on xi alone; the identity
and its derivation are in its docstring.

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
One routine, _layer_field, gives int G sigma ds at any points, image fold
included: the operator is that field on the barrier's own nodes for the
identity's columns, values() the incident mode plus that field of sigma.
Only the bound-channel part of the discrete operator is imaginary, and
it is the same rank-one product that defines R, so |R|^2 + |T|^2 = 1
holds to rounding for any panel count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import k0

from .sommerfeld import _TINY, _own, two_term

__all__ = [
    "WaveguideParams",
    "BoundEdgeField",
    "BarrierScattering",
    "make_field",
    "field_values",
    "branch_field_values",
    "solve_scattering",
    "delta_jump_check",
    "axis_value_jump",
    "ray_defect",
]

@dataclass(frozen=True)
class WaveguideParams:
    """Well strength alpha and wavenumber k of the guided mode, checked
    once, with the rotated chart they fix.

    E = (k - alpha)(k + alpha) is the total energy, a product that keeps
    its digits near the branch point k = alpha, where the difference of
    squares cancels; it must be a finite normal double.  kappa = sqrt(E)
    in the propagating regime k > alpha and i*sqrt(-E) in the trapped
    regime k < alpha (upper branch).  lam is the principal log of
    (k + alpha)/kappa, so kappa e^{+-lam} = k +- alpha; the eps = -1
    branch takes -lam, the log of the reciprocal (k - alpha)/kappa, so
    lambda is odd in eps bit for bit.
    """

    alpha: float
    k: float
    E: float = field(init=False)
    kappa: complex = field(init=False)
    lam: complex = field(init=False)

    def __post_init__(self):
        for name in ("alpha", "k"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            # a numpy scalar's complex division rounds (k + alpha)/kappa
            # otherwise than a float's: the record is the floats'
            object.__setattr__(self, name, float(v))
        alpha, k = self.alpha, self.k
        if k == alpha:
            raise ValueError(f"k != alpha is required: k = alpha = {k!r} is the "
                             f"branch point between the regimes")
        E = (k - alpha) * (k + alpha)
        if not _TINY <= abs(E) < math.inf:
            raise ValueError(f"(k - alpha)(k + alpha) = {E!r} at alpha = {alpha!r}, "
                             f"k = {k!r} is not a finite normal double")
        kappa = complex(math.sqrt(E)) if E > 0 else 1j * math.sqrt(-E)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "lam", cmath.log((k + alpha) / kappa))


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


def branch_field_values(f: BoundEdgeField, X, Y, eps) -> np.ndarray:
    """Evaluate the eps-branch of the closed form everywhere.

    This is the analytic continuation of the half-plane formula for side
    eps across the whole plane.  It is what a solver needs for boundary
    data on a subdomain that touches the axis from one side, where the
    two-branch evaluator would pick the wrong face at x = 0.  eps is +1,
    -1 or an array of them broadcasting with X and Y.

    It is one two_term call with the envelope rate alpha, which puts
    e^{-alpha|x|} inside erfc's exponential: a point whose field lies
    below the double range gets 0, and e^{-alpha|x|} and erf's Gaussian
    never overflow or underflow apart.
    """
    if not (np.abs(eps) == 1).all():
        raise ValueError("eps must be +1 or -1")
    p = f.params
    return two_term(p.k, p.kappa, p.lam, p.alpha, 0.0, X, Y, -1, eps)


def field_values(f: BoundEdgeField, X, Y) -> np.ndarray:
    """Two-branch field: eps = sgn(x), +1 on the axis itself (x = +-0.0),
    formed on X's own values (a broadcast X's repeats cut), so the signs of
    the grid's axes or meshes() views stay one row for two_term."""
    eps = np.where(_own(np.asarray(X)) >= 0.0, np.int8(1), np.int8(-1))
    return branch_field_values(f, X, Y, eps)


# --- exact field from the barrier integral equation -------------------------

_ORDER = 16            # Gauss nodes per barrier panel
_TIP_DECAY = 30.0      # uniform tip panels cover alpha*s <= 30
_HALO_DECAY = 36.0     # the barrier is cut at kappa*s = 36
_PIECE_ORDER = 12      # Gauss nodes per graded piece
_MAX_LEVELS = 30       # grading stops at 2^-30 of a panel
_CHUNK = 256           # rows per batch of near-field or evaluation work
_TIP_PANELS = 12       # default uniform panels over the tip stretch


class _BarrierPanels:
    """Gauss-Legendre panels in t = sqrt(s) along the barrier, seen from
    outside in s: nodes ``s``, weights ``ws`` with int rho ds = ws @ rho,
    and operators acting on density values at the nodes.

    Uniform panels cover the tip stretch alpha*s <= 30; beyond it the
    widths grow geometrically until kappa*s >= 36, where the tip halo has
    decayed.  Inside, a density is interpolated as g = 2 t rho(t^2),
    smooth even where rho ~ s^{-1/2}; the weights carry the Jacobian 2t.
    """

    def __init__(self, alpha: float, kappa: float, panels: int):
        t_tip = math.sqrt(_TIP_DECAY / alpha)
        t_end = math.sqrt(_HALO_DECAY / kappa)
        edges = list(np.linspace(0.0, t_tip, panels + 1))
        width = t_tip / panels
        while edges[-1] < t_end:
            width *= 1.0 + 2.0 / panels
            edges.append(edges[-1] + width)
        self.alpha, self.kappa = alpha, kappa
        self._edges = np.array(edges)
        self._half = 0.5 * np.diff(self._edges)
        self._u, w = np.polynomial.legendre.leggauss(_ORDER)
        t = (self._edges[:-1, None] + self._half[:, None] * (self._u + 1.0)).ravel()
        self._jac = 2.0 * t
        self.s = t ** 2
        self.decay = np.exp(-alpha * self.s)
        self.ws = self._jac * (self._half[:, None] * w).ravel()
        self._interp = np.linalg.inv(np.polynomial.legendre.legvander(self._u, _ORDER - 1))
        self._piece = np.polynomial.legendre.leggauss(_PIECE_ORDER)

    def _near(self, M, rows, pans, u0, levels, sides, kernel) -> None:
        """Write product weights over M's blocks (r, panel j) for the pairs
        in (rows, pans): int_panel kernel(r, s) rho(s) ds on Gauss pieces
        halving toward u0 on each of ``sides``, down to 2^-levels."""
        g, gw = self._piece
        cols = np.arange(_ORDER)
        for lev in np.unique(levels):
            frac = np.append(2.0 ** -np.arange(lev + 1), 0.0)
            batch = np.nonzero(levels == lev)[0]
            for c in range(0, batch.size, _CHUNK):
                sel = batch[c:c + _CHUNK]
                r, j, u = rows[sel], pans[sel], u0[sel]
                uq, wq = [], []
                for side in sides:
                    cuts = u[:, None] + side * (1.0 - side * u)[:, None] * frac
                    mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
                    half = 0.5 * np.abs(cuts[:, :-1] - cuts[:, 1:])
                    uq.append((mid[..., None] + half[..., None] * g).reshape(u.size, -1))
                    wq.append((half[..., None] * gw).reshape(u.size, -1))
                uq = np.concatenate(uq, axis=1)
                wq = np.concatenate(wq, axis=1) * self._half[j, None]
                tq = self._edges[j, None] + self._half[j, None] * (uq + 1.0)
                live = wq > 0.0     # pieces of zero length sit on the root
                fq = np.zeros(uq.shape)
                fq[live] = wq[live] * kernel(np.broadcast_to(r[:, None], uq.shape)[live],
                                             tq[live] ** 2)
                vander = np.polynomial.legendre.legvander(uq, _ORDER - 1)
                m = j[:, None] * _ORDER + cols
                M[r[:, None], m] = (np.einsum("nq,nqm->nm", fq, vander)
                                    @ self._interp) * self._jac[m]

    def potential(self, x, y) -> np.ndarray:
        """A with (A @ rho)_i = int K0(kappa |(x_i, y_i) - (s, 0)|) rho(s) ds."""
        x = np.asarray(x, dtype=float).ravel()
        y = np.abs(np.asarray(y, dtype=float).ravel())
        A = k0(self.kappa * np.hypot(x[:, None] - self.s, y[:, None])) * self.ws
        # the kernel is singular where t^2 = x + i|y|; panels closer to
        # that root than their own length get product weights on pieces
        # graded toward it, down to the root's distance from the real axis
        edges, half = self._edges, self._half
        root = np.sqrt(x + 1j * y)
        home = np.searchsorted(edges, root.real, side="right") - 1
        j = home[:, None] + np.arange(-1, 3)     # widths never shrink to the right
        ok = (j >= 0) & (j < half.size)
        j = np.where(ok, j, 0)
        gap = np.maximum(np.maximum(edges[j] - root.real[:, None],
                                    root.real[:, None] - edges[j + 1]), 0.0)
        ok &= np.hypot(gap, root.imag[:, None]) < 2.0 * half[j]
        rows = np.nonzero(ok)[0]
        pans = j[ok]
        u0 = np.clip((root.real[rows] - edges[pans]) / half[pans] - 1.0, -1.0, 1.0)
        depth = np.maximum(root.imag[rows] / half[pans], 2.0 ** -_MAX_LEVELS)
        levels = np.maximum(np.ceil(np.log2(2.0 / depth)), 1).astype(int)
        self._near(A, rows, pans, u0, levels, (1.0, -1.0),
                   lambda r, s: k0(self.kappa * np.hypot(x[r] - s, y[r])))
        return A

    @cached_property
    def tail(self) -> np.ndarray:
        """N with (N @ rho)_i = int_{s_i} rho(s) e^{-alpha (s - s_i)} ds."""
        alpha, n = self.alpha, self.s.size
        pan = np.arange(n) // _ORDER
        later = pan[None, :] > pan[:, None]
        gap = np.where(later, self.s[None, :] - self.s[:, None], 0.0)
        N = np.where(later, self.ws * np.exp(-alpha * gap), 0.0)
        self._near(N, np.arange(n), pan, np.tile(self._u, n // _ORDER),
                   np.full(n, _MAX_LEVELS), (1.0,),
                   lambda r, s: np.exp(-alpha * (s - self.s[r])))
        return N


def _layer_field(mesh: _BarrierPanels, k: float, x, y, sigma) -> np.ndarray:
    """int G((x_i, y_i), (s, 0)) sigma(s) ds at each point i for each column
    of the nodal densities sigma (n x m), as a (points, m) array: the bound
    channel through m0 = int e^{-alpha s} sigma ds, the direct K0 term seen
    from (x, |y|) and the image halves m0 e^{-alpha x'} from (|x|, |y|) and
    nu = N sigma from (-|x|, |y|).  Points share the potentials at (+-|x|, |y|).
    """
    alpha, decay = mesh.alpha, mesh.decay
    x, ay = np.ravel(x), np.abs(np.ravel(y))
    sigma = np.ascontiguousarray(sigma, dtype=complex)
    m = sigma.shape[1]
    m0 = (mesh.ws * decay) @ sigma
    # the direct density, nu and the shape of the x' >= 0 half; a real matrix
    # multiplies the interleaved parts of a complex one, never copied to complex
    cols = np.concatenate([-sigma, alpha * (mesh.tail @ sigma.view(float)).view(complex),
                           alpha * decay[:, None] + 0j], axis=1) / (2.0 * math.pi)
    keys, where = np.unique(np.abs(x) + 1j * ay, return_inverse=True)
    pot = np.empty((2, keys.size, 2 * m + 1), dtype=complex)    # from (+-|x|, |y|)
    for c in range(0, keys.size, 4 * _CHUNK):
        part = keys[c:c + 4 * _CHUNK]
        A = mesh.potential(np.concatenate([part.real, -part.real]),
                           np.concatenate([part.imag, part.imag]))
        pot[:, c:c + part.size] = (A @ cols.view(float)).view(complex).reshape(2, -1, 2 * m + 1)
    image = np.outer(pot[0, :, -1], m0) + pot[1, :, m:-1]
    bound = alpha * np.exp(-alpha * np.abs(x) + 1j * k * ay) / (2j * k)
    return pot[(x < 0.0).view(np.int8), where, :m] + image[where] + np.outer(bound, m0)


@dataclass(frozen=True)
class BarrierScattering:
    """Exact field of the guided mode e^{-alpha|x| + iky} meeting the
    barrier {y = 0, x >= 0}, from solve_scattering (trapped regime).

    reflection and transmission are the amplitudes of e^{-alpha|x| - iky}
    below the tip and of e^{-alpha|x| + iky} above it.  ``layer`` holds
    sigma at the mesh nodes mesh.s, so the scattered field is
    sum_j mesh.ws[j] layer[j] green(x, y, s_j).
    """

    alpha: float
    k: float
    reflection: complex
    transmission: complex
    mesh: _BarrierPanels = field(repr=False, compare=False)
    layer: np.ndarray = field(repr=False, compare=False)

    def values(self, X, Y) -> np.ndarray:
        """Total field at (X, Y); raises at the tip."""
        X, Y = np.broadcast_arrays(np.asarray(X, dtype=float),
                                   np.asarray(Y, dtype=float))
        x, y = X.ravel(), Y.ravel()
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("evaluation points must be finite")
        if np.any((x == 0.0) & (y == 0.0)):
            raise ValueError("the tip is excluded")
        scattered = _layer_field(self.mesh, self.k, x, y, self.layer[:, None])[:, 0]
        return (np.exp(-self.alpha * np.abs(x) + 1j * self.k * y)
                + scattered).reshape(X.shape)

    def green(self, x: float, y: float, s):
        """G((x, y), (s, 0)) for sources s >= 0 (an array too), C on this solve's mesh."""
        s = np.asarray(s, dtype=float)
        r = np.hypot(x - s, y)
        if not (np.isfinite(r).all() and (s >= 0).all() and (r > 0).all()):
            raise ValueError("x, y and s must be finite, s >= 0 and the points "
                             "not coincident, where the kernel is log-singular")
        alpha, k, mesh, u = self.alpha, self.k, self.mesh, abs(x) + s
        image = mesh.potential(u, np.full(u.shape, y)) @ mesh.decay
        return (alpha * np.exp(-alpha * u) * cmath.exp(1j * k * abs(y)) / (2j * k)
                - k0(mesh.kappa * r) / (2.0 * math.pi)
                + alpha / (2.0 * math.pi) * image.reshape(u.shape))[()]


def solve_scattering(alpha: float, k: float,
                     panels: int = _TIP_PANELS) -> BarrierScattering:
    """Solve the barrier integral equation for 0 < k < alpha.

    ``panels`` uniform panels in sqrt(s) of 16 Gauss nodes span the tip stretch;
    the halo panels beyond grow by 1 + 2/panels each, a ratio below the
    golden mean for panels >= 4, so a target is never near a panel more
    than two places to its right.
    """
    if k >= alpha:
        raise ValueError("only the trapped regime 0 < k < alpha (E < 0) "
                         "is supported")
    kappa = WaveguideParams(alpha, k).kappa.imag
    if int(panels) != panels or panels < 4:
        raise ValueError("panels must be an integer >= 4")
    mesh = _BarrierPanels(alpha, kappa, int(panels))
    op = _layer_field(mesh, k, mesh.s, np.zeros_like(mesh.s), np.eye(mesh.s.size))
    sigma = np.linalg.solve(op, -mesh.decay)
    reflection = complex(alpha / (2j * k) * ((mesh.ws * mesh.decay) @ sigma))
    return BarrierScattering(alpha=alpha, k=k, reflection=reflection,
                             transmission=1.0 + reflection, mesh=mesh,
                             layer=sigma)


# --- diagnostics ------------------------------------------------------------

def delta_jump_check(f: BoundEdgeField, y: float, h: float) -> float:
    """Relative defect of the delta-well matching condition at (0, y).

    Returns |[psi_x(0+) - psi_x(0-)] + 2*alpha*psi(0+)| / (2*alpha*|psi(0+)|)
    with one-sided differences of step h, each side evaluated on its own
    eps-branch, all four points in one call.  For the pure guided mode
    exp(-alpha|x|+iky) this tends to 0 linearly in h; for the closed form
    here it saturates at an O(1) value (see the module docstring).
    """
    if y == 0.0:
        raise ValueError("y = 0 lies on the barrier, not the waveguide axis")
    alpha = f.params.alpha
    p_plus, p_r, p_minus, p_l = map(complex, branch_field_values(
        f, [0.0, h, 0.0, -h], y, [1, 1, -1, -1]))
    d_right = (p_r - p_plus) / h
    d_left = (p_minus - p_l) / h
    return abs((d_right - d_left) + 2.0 * alpha * p_plus) / (2.0 * alpha * abs(p_plus))


def axis_value_jump(f: BoundEdgeField, y: float) -> float:
    """|psi(0+, y) - psi(0-, y)|: the between-branch mismatch on the axis."""
    p_plus, p_minus = branch_field_values(f, 0.0, y, [1, -1])
    return abs(complex(p_plus - p_minus))


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
