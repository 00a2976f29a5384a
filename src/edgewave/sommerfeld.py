"""Half-line edge diffraction of a free plane wave, in closed form.

The field for a wave incident along the -y direction on the barrier
{y = 0, x >= a} is

    psi(x, y) = exp(-iky) F(xi) - exp(+iky) F(eta)     (Dirichlet)

with F the half-line Fresnel-type integral (specfun) and (xi, eta) the
parabolic coordinates about the tip (geometry).  The incident wave has
amplitude |F(inf)| = sqrt(pi/2k), not 1: |psi| at (-400, 5) is 1.817 at
k = 0.5 and 0.869 at k = 2.  Every frozen number assumes this
normalisation.  On the barrier ray the two coordinates coincide,
xi = eta, and the y-phases both collapse to 1, so the Dirichlet
combination cancels exactly - this is the mechanism behind the
boundary condition, not a numerical tolerance.

The Neumann variant replaces the difference by a sum.  That choice makes
d(xi)/dy + d(eta)/dy vanish on the ray (xi and eta are conjugate
harmonic coordinates there), so the normal derivative cancels instead;
it is validated numerically in the test suite rather than taken on
faith.

The bracket is :func:`two_term` at rotation lambda = 0, kappa = k and
alpha = 0.  The guided mode at the barrier (bound_edge) is the same
bracket with the rapidity lambda, kappa = sqrt(k^2 - alpha^2) and its
envelope e^{-alpha|x|}: Sommerfeld diffraction in a rotated chart.

:func:`helmholtz_residual` applies the five-point stencil to a grid
field, outside a fixed two-cell band around the barrier ray and the
waveguide axis and, on request, outside a disk about the tip it finds
in the grid's mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import chart
from .grid import _TINY, EDGE, FieldGrid, check_nodes, excluded_band, pow2_scale, tabulate
from .specfun import _closed_form, _tiles

__all__ = [
    "EdgeGeometry",
    "ResidualReport",
    "field_on_grid",
    "field_values",
    "helmholtz_residual",
    "two_term",
]

_DIRICHLET = "dirichlet"
_NEUMANN = "neumann"


@dataclass(frozen=True)
class EdgeGeometry:
    a: float = 0.0
    bc: str = _DIRICHLET

    def __post_init__(self):
        if not 0 <= self.a < math.inf:
            raise ValueError(f"tip abscissa a must be finite and >= 0, got {self.a}")
        if self.bc not in (_DIRICHLET, _NEUMANN):
            raise ValueError(f"bc must be '{_DIRICHLET}' or '{_NEUMANN}'")


def two_term(k: float, kappa: complex, lam: complex, alpha: float, a: float,
             X, Y, sign: int, eps=1) -> np.ndarray:
    """e^{-alpha|x|} [exp(-iky) F(xi_lam; kappa)
    + sign * exp(+iky) F(eta_{-lam}; kappa)], lam taken as eps*lam.

    (xi_lam, eta_{-lam}) is the rotated chart about the tip (a, 0),
    built once per point by geometry.chart.  At lambda = 0 the pair is
    real, so a real kappa with alpha = 0 takes specfun's Fresnel route;
    else L = -alpha|x| enters erfc's exponent.  eps, +-1 for all points
    or per point, is broadcast with X and Y (it may set the output's
    shape).  k is real, so the second y-phase is the conjugate of the
    first.  On both faces of the ray xi_lam = eta_{-lam} for every
    lambda, so with sign = -1 the two terms cancel there.  The tip gives
    F(0) - F(0) = 0.

    One F per trapped point.  Every trapped guided mode is Dirichlet
    (sign = -1) with kappa = i|kappa| and lam = mu - i pi/2 ((k +
    alpha)/kappa is negative imaginary).  With C, S = cosh, sinh(mu/2)
    the chart's (cosh, i sinh)(lam/2) are ((C - iS), (C + iS))/sqrt 2, so
    on the eps = +1 branch xi = sqrt 2 (C rs - i S rc) and eta = -conj
    xi, on the eps = -1 branch xi = sqrt 2 (C rc - i S rs) and eta = conj
    xi.  The rotation root s = sqrt(2|kappa|) is real, so erfc's
    conjugation symmetry and erfc(u) + erfc(-u) = 2 (A&S 7.1.9-10) give,
    with F_inf = sqrt(pi)/s = sqrt(pi/2|kappa|) and w = e^{-iky} F(xi),
    e^{iky} F(eta) = F_inf e^L e^{iky} - conj w on the first branch and
    conj w on the second (F here carries its e^L).  The bracket is then
    (1 + eps) Re w + i (1 - eps) Im w - F_inf e^L e^{iky} [eps = +1],
    with F on xi alone.  This is decided once per call from (kappa, lam,
    sign); any other triple, the free edge and the propagating regime
    included, keeps the two-F bracket.  Where xi == eta bit for bit (the
    faces, the tip) the bracket is the two-F one, F(eta) being F(xi): an
    exact 0 there.

    X, Y and eps are broadcast together and viewed as rows of the
    broadcast shape's last axis, without copies up to two dimensions.
    The work runs in specfun's tiles of whole rows of a fixed number of
    points (a row wider than that in column chunks) written into one
    complex output.  An input constant along an axis (a stride-0 axis of
    its broadcast) is taken once per tile along it: the y-phase on Y's
    own rows, L, e^L and eps on X's own columns, so the grid's axes or
    meshes() views pay the phase once per row.  field_on_grid, which
    passes the grid's axes, thus peaks near 21 bytes per point at 401^2
    (129 on the whole array at once), of which the output is 16.  0-d
    input gives a scalar.
    """
    kappa, lam = complex(kappa), complex(lam)
    X, Y, E = np.broadcast_arrays(np.asarray(X, dtype=float),
                                  np.asarray(Y, dtype=float), np.asarray(eps))
    out = np.empty(X.shape, dtype=complex)
    cols = X.shape[-1] if X.ndim else 1
    rows = out.size // cols if cols else 0
    X, Y, E, view = (v.reshape(rows, cols) for v in (X, Y, E, out))
    one_f = sign == -1 and kappa.real == 0.0 and lam.imag == -0.5 * math.pi
    if one_f:
        f_inf = math.sqrt(math.pi / (2.0 * kappa.imag))

    for rs, cs in _tiles(rows, cols):
        x, y, eps = _own(X[rs, cs]), _own(Y[rs, cs]), _own(E[rs, cs])
        L = -alpha * np.abs(x) if alpha else 0.0
        pair = chart(x, y, a, lam, eps)
        F = _closed_form(kappa, pair[0] if one_f else pair, L)
        # after F, whose domain check refuses a tile where k*y overflows
        phase = np.exp(-1j * k * y)
        o = view[rs, cs]
        if not one_f:
            np.multiply(phase, F[0], out=o)
            o += sign * phase.conj() * F[1]
            continue
        # one F: (1 + eps) Re w + i (1 - eps) Im w - F_inf e^L e^{iky}
        # [eps = +1], and the two-F bracket where xi == eta bit for bit
        w = phase * F
        g = -f_inf * (eps > 0) * np.exp(L)
        np.multiply(w.real, 1 + eps, out=o.real)
        np.multiply(w.imag, 1 - eps, out=o.imag)
        o.real += g * phase.real
        o.imag -= g * phase.imag
        same = pair[0] == pair[1]
        if same.any():
            o[same] = (w + sign * phase.conj() * F)[same]
    return out[()]


def _own(A: np.ndarray) -> np.ndarray:
    """A's own values: each stride-0 axis of a broadcast view cut to length 1."""
    return A[tuple([slice(None) if s else slice(1) for s in A.strides])]


def field_values(k: float, geom: EdgeGeometry, X, Y) -> np.ndarray:
    """Vectorized field evaluation (tip included; the value there is 0)."""
    if not 0 < k < np.inf:
        raise ValueError(f"k must be positive and finite, got {k!r}")
    return two_term(k, k, 0.0, 0.0, geom.a, X, Y,
                    -1 if geom.bc == _DIRICHLET else 1)


def field_on_grid(k: float, geom: EdgeGeometry, x0: float, y0: float,
                  dx: float, dy: float, nx: int, ny: int) -> FieldGrid:
    """Tabulate the field: Dirichlet barrier nodes are exact zeros (the
    analytic value there), Neumann ones keep the upper-face value.  A
    barrier ray off the lattice raises ``ValueError`` (from build_mask)."""
    return tabulate(lambda X, Y: field_values(k, geom, X, Y),
                    x0, y0, dx, dy, nx, ny, edge_a=geom.a, delta_line=False,
                    dirichlet=geom.bc == _DIRICHLET)


@dataclass(frozen=True)
class ResidualReport:
    max_res: float
    l2_res: float        # root-mean-square over included nodes
    n_nodes: int
    dx: float
    dy: float
    coarse_warning: bool


def helmholtz_residual(grid: FieldGrid, k,
                       exclude_radius: float = 0.0) -> ResidualReport:
    """Five-point stencil residual |(Lap_h + k^2) psi| over interior nodes.

    Nodes within two cells (city-block) of the barrier ray or of the
    waveguide axis are dropped: the field's derivatives jump across
    those lines, so the straight Cartesian stencil does not apply there.
    ``exclude_radius`` additionally drops a fixed disk around the tip,
    the first EDGE node of the mask, where the sqrt(r) behavior makes the
    local truncation error blow up as the mesh refines; with a
    mesh-independent disk the residual converges at the stencil's second
    order.  ``k`` may be complex (k^2 = E for the trapped regime).  A
    spacing whose square is not a normal double raises ``ValueError``
    naming it.

    The stencil runs on the interior only, accumulated in place in the
    order of the formula, with |.| written into one float array, and the
    tip disk is taken from the broadcast 1-D axes: about 33 bytes per
    node beyond the grid itself (65 with full-size temporaries).
    """
    if grid.nx < 3 or grid.ny < 3:
        raise ValueError("grid too small for the five-point stencil")
    v = grid.values
    hx2 = grid.dx * grid.dx
    hy2 = grid.dy * grid.dy
    for name, h, h2 in (("dx", grid.dx, hx2), ("dy", grid.dy, hy2)):
        if not _TINY <= h2 < math.inf:
            raise ValueError(f"{name} = {h!r}: its square {h2!r} is not a "
                             f"normal double, so the stencil's 1/{name}^2 "
                             f"has lost its digits")
    check_nodes(grid.x0, grid.y0, grid.dx, grid.dy, grid.nx, grid.ny)
    # interior nodes only, accumulated in place in the order of
    # (v[x+1] - 2v + v[x-1]) / hx2 + (v[y+1] - 2v + v[y-1]) / hy2 + k^2 v
    c = v[1:-1, 1:-1]
    lap = c * -2.0
    lap += v[1:-1, 2:]
    lap += v[1:-1, :-2]
    lap /= hx2
    term = c * -2.0
    term += v[2:, 1:-1]
    term += v[:-2, 1:-1]
    term /= hy2
    lap += term
    np.multiply(c, complex(k) ** 2, out=term)
    lap += term
    del term
    res = np.abs(lap)
    del lap

    keep = ~excluded_band(grid.mask, square=False)[1:-1, 1:-1]
    if exclude_radius > 0.0:
        jj, ii = np.nonzero(grid.mask == EDGE)
        if ii.size == 0:
            raise ValueError("exclude_radius needs a barrier tip on the grid")
        tip = ii.argmin()
        xs = grid.xs()[None, 1:-1] - (grid.x0 + grid.dx * ii[tip])
        ys = grid.ys()[1:-1, None] - (grid.y0 + grid.dy * jj[tip])
        keep &= np.hypot(xs, ys) > exclude_radius

    included = res[keep]
    if included.size == 0:
        raise ValueError("all nodes excluded from the residual")
    max_res = float(included.max())
    # squared at one exact power-of-two scale, so the squares of residuals
    # below about 1e-154 do not underflow to 0
    s = pow2_scale(max_res)
    return ResidualReport(
        max_res=max_res,
        l2_res=float(np.sqrt(np.mean((included * s) ** 2)) / s),
        n_nodes=int(included.size),
        dx=grid.dx,
        dy=grid.dy,
        coarse_warning=bool(abs(complex(k)) * max(grid.dx, grid.dy) > 0.5),
    )
