"""Finite-difference oracle for the waveguide + barrier boundary problem.

Independent brute-force solver used to cross-check every closed form in
the package: five-point Laplacian, the attractive delta line folded in
as a 1/dx potential column (first-order accurate), the barrier ray
{y = 0, x >= a} as pinned Dirichlet rows, outer frame pinned to supplied
analytic data.  The assembled operator rows read

    (E + Laplacian_h + (2*alpha/dx) on the x = 0 column) psi = f,

so applying a row to the constant field returns E.  ``assemble`` keeps
the full system, pinned identity rows included.  Every coefficient is
real (``E``, the spacings and ``alpha`` are real), so ``assemble``
stores them as float64, with int32 node numbers.  ``solve`` does no
sparse factorisation and runs no eigensolver: it inverts the separable
interior-box operator with the fast sine transform (``scipy.fft.dst``,
type I, orthonormal), takes the delta column as a rank-one update per
transverse mode, and meets the barrier rows through a small dense
capacitance matrix (``numpy.linalg.solve``), so solves are direct and
deterministic.  Every solve must meet the residual gate
||A x - rhs|| <= 1e-10 ||rhs|| on the assembled system, which ties the
fast solve to the independently assembled operator.  ``compare`` drops
a fixed band of two cells around the barrier ray and the waveguide
axis.

The module also carries the discrete transverse mode the reflection
experiment needs.  For the scattering run the incident wave must be an
exact solution of the *discrete* interior equations -- otherwise its
O(dx) defect radiates a spurious scattered field that floors the
reflected amplitude and ruins the decay fit.  Hence: the transverse
profile is the ground eigenvector of the discrete 1-D operator (not
exp(-alpha|x|)), found as the root of its secular equation, and the
energy uses the lattice dispersion E = mu_h + 2(1 - cos(k dx))/dx^2
(not mu_h + k^2).

scipy.fft and scipy.sparse are imported by the functions that call
them, so a program that imports this module and never solves does not
load them; no function here loads scipy.linalg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (DELTA_LINE, EDGE, EXCLUDE_CELLS, INTERIOR, OUTER, FieldGrid,
                   build_mask, check_nodes, excluded_band, pow2_scale)
from .green_perturbation import TailScanResult, fit_log_slope

__all__ = [
    "FdProblem",
    "SparseSystem",
    "assemble",
    "solve",
    "compare",
    "discrete_mode",
    "solve_guided_scatter",
    "reflected_amplitudes",
    "reflection_scan",
]

_SOLVE_TOL = 1e-10       # residual gate, relative to ||rhs||
_MAX_BOX_SOLVES = 2      # refinement steps before the gate is final
_GUIDED_H = 0.1          # grid step of the guided-mode reflection experiment
_MAX_SECULAR_STEPS = 100  # discrete_mode's Newton-bisection cap
_ROW_BLOCK = 4096        # points per row block of box_solve's corrections


@dataclass(frozen=True)
class FdProblem:
    """Grid, physics and boundary data for one oracle solve.

    ``boundary`` is an elementwise sampler (X, Y) -> complex values for
    the outer frame (None means homogeneous); it is called once, with the
    1-D coordinate arrays of the OUTER nodes only.  ``forcing`` supplies
    an interior right-hand side for manufactured-solution runs.  ``E``,
    ``alpha``, ``dx`` and ``dy`` must be real and finite: the operator is
    assembled and solved in real arithmetic.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    E: float
    alpha: float = 0.0
    edge_a: float | None = None
    boundary: Callable | None = None
    forcing: Callable | None = None

    def __post_init__(self):
        for name in ("E", "alpha", "dx", "dy"):
            v = getattr(self, name)
            if np.iscomplexobj(v) or not math.isfinite(v):
                raise ValueError(f"{name} must be real and finite, got {v!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid too small")
        check_nodes(self.x0, self.y0, self.dx, self.dy, self.nx, self.ny)
        # resolution guard: several nodes per wavelength / decay length
        if math.sqrt(abs(self.E)) * max(self.dx, self.dy) > 0.5:
            raise ValueError("grid too coarse for |E|: sqrt(|E|)*dx must be <= 0.5")
        if self.alpha * max(self.dx, self.dy) > 0.5:
            raise ValueError("grid too coarse for alpha: alpha*dx must be <= 0.5")


@dataclass(frozen=True)
class SparseSystem:
    """The assembled rows of one ``FdProblem`` as COO triplets.

    ``rows`` and ``cols`` are int32 node numbers (node j * nx + i for
    column i, row j), ``vals`` the float64 coefficients, ``rhs`` the
    complex right-hand side and ``mask`` the node tags of ``build_mask``.
    """

    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    problem: FdProblem
    mask: np.ndarray = field(repr=False)


def assemble(p: FdProblem) -> SparseSystem:
    """Build the sparse rows for the discrete operator (raises if the
    waveguide axis or the barrier is not grid-aligned).

    The triplets are allocated once at their exact count, 5 per bulk
    node and 1 per frame or EDGE node, and filled in this order: the
    bulk centres, their x-1, x+1, y-1 and y+1 neighbours, the frame
    identity rows, then the EDGE identity rows.  ``rows`` and ``cols``
    are int32, so a grid of nx * ny >= 2**31 nodes raises ``ValueError``
    before any allocation; ``vals`` is float64; ``rhs`` is complex.
    """
    nx, ny = p.nx, p.ny
    n_nodes = nx * ny
    if n_nodes >= 2 ** 31:
        raise ValueError(f"grid of {nx} x {ny} nodes has 2**31 or more "
                         f"unknowns; node numbers are int32")
    mask = build_mask(p.x0, p.y0, p.dx, p.dy, nx, ny,
                      edge_a=p.edge_a, delta_line=p.alpha != 0.0)
    node = np.arange(n_nodes, dtype=np.int32).reshape(ny, nx)
    xs, ys = p.x0 + p.dx * np.arange(nx), p.y0 + p.dy * np.arange(ny)
    rhs = np.zeros(n_nodes, dtype=complex)

    bulk = (mask == INTERIOR) | (mask == DELTA_LINE)
    cen = node[bulk]
    frame = mask == OUTER
    outer = node[frame]
    edge = node[mask == EDGE]
    nnz = 5 * cen.size + outer.size + edge.size
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz)
    at = 0

    def put(r, c, v):
        nonlocal at
        rows[at:at + r.size], cols[at:at + r.size] = r, c
        vals[at:at + r.size] = v
        at += r.size

    put(cen, cen, p.E - 2.0 / p.dx ** 2 - 2.0 / p.dy ** 2)
    vals[:cen.size][mask[bulk] == DELTA_LINE] += 2.0 * p.alpha / p.dx
    for shift, w in ((-1, p.dx), (1, p.dx), (-nx, p.dy), (nx, p.dy)):
        put(cen, cen + shift, 1.0 / w ** 2)
    if p.forcing is not None:
        X, Y = np.meshgrid(xs, ys)
        rhs[cen] = np.asarray(p.forcing(X, Y), dtype=complex)[bulk]

    put(outer, outer, 1.0)
    if p.boundary is not None:
        # the frame's coordinates from the 1-D axes, in the mask's order
        rhs[outer] = p.boundary(np.broadcast_to(xs, (ny, nx))[frame],
                                np.broadcast_to(ys[:, None], (ny, nx))[frame])

    put(edge, edge, 1.0)

    return SparseSystem(n=n_nodes, rows=rows, cols=cols, vals=vals, rhs=rhs,
                        problem=p, mask=mask)


def solve(s: SparseSystem) -> FieldGrid:
    """Direct solve by fast diagonalisation, refined until the residual
    meets 1e-10 * ||rhs||.

    The OUTER frame is pinned to ``rhs`` and moved to the right side with
    the assembled ``A``.  Off the barrier row the operator on the interior
    box is separable, L = I (x) T_x + T_y (x) I, with T_y the Dirichlet
    second difference -2/dy^2, 1/dy^2 and T_x = D_x + c e e^T: the same
    second difference in x shifted by E, plus c = 2 alpha/dx on the delta
    column e.  The orthonormal DST-I matrix S, symmetric and orthogonal,
    diagonalises both: D_x = S_x diag(lam) S_x and T_y = S_y diag(mu) S_y
    with lam = E - 4/dx^2 sin^2(pi k / 2(m+1)), mu likewise without E
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964), so no eigensolver
    runs.  Per y-mode j the delta column is the rank-one term c s0 s0^T
    of D_x + mu_j in x-mode space, s0 = S_x e, folded into the mode
    coefficients h_j = inv_j * (S_y f S_x)_j, inv = 1 / (mu + lam), by
    Sherman-Morrison: h_j -= beta_j (h_j . s0) inv_j s0, with
    beta_j = c / (1 + c W_j) and W_j = (S_x (inv_j s0))[e].  S is
    applied as the fast sine transform ``scipy.fft.dst(type=1,
    norm="ortho")`` (Hockney, J. ACM 12, 1965), which takes the complex
    right-hand side one real part at a time; the few rows of S the
    corrections need are transforms of unit vectors.  The Dirichlet EDGE
    rows B psi = g, B the identity on the EDGE nodes, are met by one
    source per EDGE node through the dense m x m capacitance matrix
    B L^-1 P (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
    1971), solved by ``numpy.linalg.solve``; the gate checks them
    against ``A``.  Both corrections act on h in row blocks, so no
    full-size product is formed.  The solve is iterative
    refinement (Moler, J. ACM 14, 1967) of at most two steps.  Each step
    adds the box solve L~^-1 r to x, sets the EDGE nodes to their pinned
    values, bit for bit, then forms r = rhs - A x once (A applied to the
    float view [Re x | Im x], so its values are never copied to
    complex), for the gate and as the next step's right-hand
    side, and stops as soon as ||r|| <= 1e-10 ||rhs||.  One step usually
    passes with a 10-100x margin; the 601^2 grid on [-3, 3]^2 needs the
    second.  Raises ``ValueError`` for non-finite ``rhs`` or
    coefficients, ``RuntimeError`` if the residual on the full complex
    system is not finite or exceeds the gate after the last step; the
    message gives min|mu + lam| / max|mu + lam| and, with a delta
    column, min|1 + c W_j|, small near an eigenvalue of the
    barrier-free box.
    """
    if not np.isfinite(s.rhs).all():
        raise ValueError("rhs holds non-finite values (boundary or forcing data)")
    if not np.isfinite(s.vals).all():
        raise ValueError("system coefficients hold non-finite values")
    from scipy.sparse import coo_matrix

    p = s.problem
    nx, ny = p.nx, p.ny
    A = coo_matrix((s.vals, (s.rows, s.cols)), shape=(s.n, s.n))
    tag = s.mask.ravel()
    edge = np.flatnonzero(tag == EDGE)
    x = np.where(tag == OUTER, s.rhs, 0.0)

    def box(v):                          # view of the interior box
        return v.reshape(ny, nx)[1:-1, 1:-1]

    with np.errstate(all="ignore"):
        box_solve, spectrum = _box_solver(s, edge)
        scale = np.linalg.norm(s.rhs)
        r = _residual(A, x, s.rhs)
        for _ in range(_MAX_BOX_SOLVES):
            box(x)[...] += box_solve(box(r))
            del r                        # before the next one is formed
            if edge.size:
                x[edge] = s.rhs[edge]
            r = _residual(A, x, s.rhs)
            res = np.linalg.norm(r)
            if res <= _SOLVE_TOL * scale:
                break
    if not np.isfinite(res) or (scale > 0 and res > _SOLVE_TOL * scale):
        raise RuntimeError(
            f"solver residual {res:.3e} exceeds {_SOLVE_TOL:.1e} * ||rhs|| "
            f"({scale:.3e}); of the barrier-free box {spectrum}, small near "
            f"one of its eigenvalues")
    return FieldGrid(x0=p.x0, y0=p.y0, dx=p.dx, dy=p.dy, nx=nx, ny=ny,
                     values=x.reshape(ny, nx), mask=s.mask)


def _residual(A, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - A x for the real ``A`` and complex ``x``, without a complex
    copy of A's values: A acts on the (n, 2) float view [Re x | Im x]."""
    ax = (A @ x.view(float).reshape(-1, 2)).view(complex).ravel()
    return np.subtract(rhs, ax, out=ax)


def _sine_rows(m: int, idx) -> np.ndarray:
    """Rows ``idx`` of the orthonormal DST-I matrix S on m nodes.

    S[k, j] = sqrt(2/(m+1)) sin(pi (k+1)(j+1)/(m+1)) is symmetric, so row
    i is the transform of the unit vector e_i.
    """
    from scipy.fft import dst

    unit = (np.arange(m) == np.reshape(idx, (-1, 1))).astype(float)
    return dst(unit, type=1, norm="ortho", overwrite_x=True)


def _second_difference_eigs(m: int, h: float) -> np.ndarray:
    """Eigenvalues -4/h^2 sin^2(pi k / 2(m+1)), k = 1..m, of the Dirichlet
    second difference on m nodes, in the order of the DST-I modes."""
    k = np.arange(1, m + 1)
    return -4.0 / h ** 2 * np.sin(np.pi * k / (2 * (m + 1))) ** 2


def _box_solver(s: SparseSystem, edge: np.ndarray):
    """Solver for the interior-box rows of ``s``, the frame moved out.

    The barrier rows are the Dirichlet identity, not read from the
    assembled entries.  Returns (box_solve, spectrum).  ``box_solve``
    maps a complex right-hand side on the interior box, whose EDGE
    entries are the constraint data g, to the solution there; its first
    sine transform runs in place, so it overwrites its argument.
    Between the transforms it works in mode space: h = inv * S_y f S_x,
    the capacitance sources added, then the delta column's
    Sherman-Morrison correction, both in row blocks of about
    ``_ROW_BLOCK`` points, so no full-size product is formed.
    ``spectrum`` names min|mu + lam| / max|mu + lam| and, with a delta
    column, min|1 + c W|.
    """
    from scipy.fft import dst

    p = s.problem
    mx, my = p.nx - 2, p.ny - 2
    denom = _second_difference_eigs(my, p.dy)[:, None] \
        + (p.E + _second_difference_eigs(mx, p.dx))[None, :]
    spectrum = (f"min|mu+lam|/max|mu+lam| is "
                f"{np.abs(denom).min() / np.abs(denom).max():.1e}")
    inv = np.reciprocal(denom, out=denom)
    rows = max(1, _ROW_BLOCK // mx)
    blocks = [slice(j, j + rows) for j in range(0, my, rows)]
    # the EDGE nodes sit on box row jb, box columns ib
    ib = edge % p.nx - 1
    delta = np.flatnonzero((s.mask[1:-1, 1:-1] == DELTA_LINE).any(axis=0))
    if delta.size:
        # in x-modes the delta column adds c s0 s0^T, s0 = S_x e_i0; row j
        # of W = S_x (inv * s0) is (D_x + mu_j)^-1 e.  Only its columns i0
        # and ib are kept, read off the sine transform that carries h to x
        # space rather than summed: near a box eigenvalue beta is large and
        # the capacitance must match that transform's rounding (summed, the
        # residual 1e-9 from one grew 7x, past the gate)
        i0, c = int(delta[0]), 2.0 * p.alpha / p.dx
        s0 = _sine_rows(mx, i0)[0]
        cols = np.r_[i0, ib]
        wcols = np.concatenate([
            dst(inv[b] * s0, type=1, norm="ortho", axis=1,
                overwrite_x=True)[:, cols] for b in blocks])
        secular = 1.0 + c * wcols[:, 0]
        beta = c / secular
        spectrum += (f" and min|1 + c W| of its delta column "
                     f"{np.abs(secular).min():.1e}")
    if edge.size:
        # in y-modes B reads S_y[jb]
        jb = edge[0] // p.nx - 1
        sy = _sine_rows(my, jb)[0]
        qi = _sine_rows(mx, ib)
        # capacitance matrix B L^-1 P, P injecting one source per EDGE node
        gamma = sy * sy
        cap = ((gamma @ inv) * qi) @ qi.T
        if delta.size:
            wb = wcols[:, 1:]
            cap -= ((gamma * beta) * wb.T) @ wb

    def box_solve(f):
        if edge.size:
            g = f[jb, ib]
            f[jb, ib] = 0.0
        h = dst(dst(f, type=1, norm="ortho", axis=1, overwrite_x=True),
                type=1, norm="ortho", axis=0, overwrite_x=True)
        h *= inv
        if edge.size:
            # sources sigma with B L^-1 (f + P sigma) = g
            b_psi = (sy @ h) @ qi.T
            if delta.size:
                b_psi -= (sy * (beta * (h @ s0))) @ wb
            src = np.linalg.solve(cap, g - b_psi) @ qi
        if edge.size or delta.size:
            for blk in blocks:
                hb, invb = h[blk], inv[blk]
                if edge.size:
                    hb += (sy[blk, None] * invb) * src
                if delta.size:
                    hb -= (beta[blk] * (hb @ s0))[:, None] * (invb * s0)
        t = dst(h, type=1, norm="ortho", axis=1, overwrite_x=True)
        return dst(t, type=1, norm="ortho", axis=0, overwrite_x=True)

    return box_solve, spectrum


def compare(analytic: FieldGrid, fd: FieldGrid, E: float | None = None) -> dict:
    """Relative discrepancy report between two fields on the same grid.

    Interior nodes only; bands of two cells around the barrier ray and
    the waveguide axis are excluded (square dilation of the tagged
    nodes).  Returns a dict with keys l2_rel, max_rel, dx, dy, E, n_nodes
    and a per-quadrant breakdown under "quadrants"; a quadrant starts two
    cells off each axis, 2 dx in x and 2 dy in y.  An analytic field
    that is 0 on every kept node has no scale to compare against and
    raises ``ValueError``.
    """
    for attr in ("x0", "y0", "dx", "dy", "nx", "ny"):
        if not math.isclose(getattr(analytic, attr), getattr(fd, attr),
                            rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"grids differ in {attr}")
    keep = (fd.mask == INTERIOR) & ~excluded_band(fd.mask, square=True)
    if not keep.any():
        raise ValueError("no nodes left to compare")
    amax = np.abs(analytic.values[keep]).max()
    if amax == 0.0:
        # no scale to measure the discrepancy against, relative or not
        raise ValueError("the analytic field is 0 on every compared node")

    diff = fd.values - analytic.values
    # both norms at one exact power-of-two scale, so the squares of a
    # field below about 1e-154 do not underflow to a 0 / 0
    s = pow2_scale(amax)

    def _rel(sel):            # nan for an empty or all-zero selection
        ref = np.linalg.norm(analytic.values[sel] * s)
        if ref == 0.0:
            return float("nan")
        return float(np.linalg.norm(diff[sel] * s) / ref)

    # the 1-D axes broadcast in the masks: no full coordinate meshes
    X, Y = fd.xs()[None, :], fd.ys()[:, None]
    bx, by = EXCLUDE_CELLS * fd.dx, EXCLUDE_CELLS * fd.dy
    quads = {
        "x<0,y>0": (X < -bx) & (Y > by),
        "x>0,y>0": (X > bx) & (Y > by),
        "x<0,y<0": (X < -bx) & (Y < -by),
        "x>0,y<0": (X > bx) & (Y < -by),
    }
    return {
        "l2_rel": _rel(keep),
        "max_rel": float(np.abs(diff[keep]).max() / amax),
        "dx": fd.dx, "dy": fd.dy, "E": E,
        "n_nodes": int(keep.sum()),
        "quadrants": {name: _rel(keep & sel) for name, sel in quads.items()},
    }


# --- discrete transverse mode ----------------------------------------------

def discrete_mode(alpha: float, xs: np.ndarray) -> tuple[float, np.ndarray]:
    """Ground state of the discrete transverse operator on nodes xs.

    Dirichlet ends; the delta well contributes -2*alpha/h at the x = 0
    node, which must be an interior grid node.  In the DST-I basis S of
    the m interior nodes the operator is diag(nu) - c s0 s0^T, with
    nu_k = 4/h^2 sin^2(pi k / 2(m+1)) the negated Dirichlet second
    difference, c = 2 alpha/h and s0 = S e the basis read at x = 0.  The
    ground energy w is the root below nu_1 of the secular equation
    1 = g(w) = c sum_k s0_k^2 / (nu_k - w) (Bunch, Nielsen & Sorensen,
    Numer. Math. 31, 1978), which lies in [nu_1 - c, nu_1 - c s0_1^2]
    because sum_k s0_k^2 = 1.  Newton's method on 1/g - 1 runs from the
    upper end, with a bisection step whenever it leaves the bracket; the
    mode is S (s0 / (nu - w)), one sine transform, so no eigensolver
    runs.  At alpha = 0 it is the first sine mode.  Returns (energy,
    mode) with the mode normalized to sum(phi^2) * h = 1 and phi(0) > 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n = len(xs)
    h = xs[1] - xs[0]
    i0 = int(np.argmin(np.abs(xs)))
    if abs(xs[i0]) > 1e-12 or not 0 < i0 < n - 1:
        raise ValueError("x = 0 must be an interior grid node")
    from scipy.fft import dst

    m = n - 2
    nu = -_second_difference_eigs(m, h)
    if alpha == 0.0:
        w, y = nu[0], np.eye(1, m)[0]
    else:
        c = 2.0 * alpha / h
        s0 = _sine_rows(m, i0 - 1)[0]
        s0sq = s0 * s0
        lo, hi = nu[0] - c, nu[0] - c * s0sq[0]
        w = hi
        for _ in range(_MAX_SECULAR_STEPS):
            q = s0sq / (nu - w)
            g = c * q.sum()
            if g < 1.0:
                lo = w
            else:
                hi = w
            nxt = w + (g - g * g) / (c * (q / (nu - w)).sum())
            if nxt == w:
                break
            w = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        y = s0 / (nu - w)
    phi = np.zeros(n)
    # phi(0) > 0 needs no sign flip: S y reads g / c > 0 at x = 0, and
    # the first sine mode is positive everywhere
    phi[1:-1] = dst(y, type=1, norm="ortho")
    phi /= math.sqrt(float(np.sum(phi ** 2)) * h)
    return float(w), phi


# --- guided-mode reflection experiment -------------------------------------

def solve_guided_scatter(alpha: float, k: float, a: float | None):
    """FD total field for the discrete guided mode meeting the barrier.

    The domain is [-8, 8]/alpha x [-13, 5]/alpha at grid step 0.1, with
    the mode incident from below; outer frame pinned to the incident wave.  ``a = None``
    removes the barrier (consistency run: the scattered part must vanish
    to solver precision).  Returns (xs, ys, phi, scattered) with the
    scattered field psi - psi0 on the full grid.
    """
    if k <= 0 or alpha <= 0:
        raise ValueError("alpha and k must be positive")
    L = 8.0 / alpha
    y0, y1 = -13.0 / alpha, 5.0 / alpha
    nx = 2 * int(round(L / _GUIDED_H)) + 1
    xs = np.linspace(-L, L, nx)
    hx = xs[1] - xs[0]
    ny = int(round((y1 - y0) / hx)) + 1
    ys = np.linspace(y0, y0 + (ny - 1) * hx, ny)

    mu, phi = discrete_mode(alpha, xs)
    E = mu + 2.0 * (1.0 - math.cos(k * hx)) / hx ** 2

    def incident(X, Y):
        return np.interp(X, xs, phi) * np.exp(1j * k * Y)

    prob = FdProblem(x0=xs[0], y0=ys[0], dx=hx, dy=hx, nx=nx, ny=ny,
                     E=E, alpha=alpha, edge_a=a, boundary=incident)
    total = solve(assemble(prob))
    psi0 = phi[None, :] * np.exp(1j * k * ys)[:, None]
    return xs, ys, phi, total.values - psi0


def reflected_amplitudes(alpha: float, k: float,
                         a: float) -> tuple[float, float, float]:
    """(|reflected|, |forward|, |halo|) guided-channel amplitudes.

    Projects the scattered field onto the discrete transverse mode row
    by row, then least-squares fits the three-term longitudinal model
    {e^{-iky}, e^{+iky}, e^{+kappa y}} over the window y in
    [-10, -6]/alpha below the tip.  Requires the trapped regime k < alpha
    (the halo term needs real kappa).
    """
    if not 0 < k < alpha:
        raise ValueError("the fit model needs the trapped regime 0 < k < alpha")
    if not a > 0:
        # the frame pinned to the incident wave then closes a cavity
        # around the tip, and the fit returns |reflected| = |forward|
        raise ValueError("the reflection experiment needs a > 0; for a tip "
                         "on the axis use bound_edge.solve_scattering")
    xs, ys, phi, s = solve_guided_scatter(alpha, k, a)
    hx = xs[1] - xs[0]
    c = (s * phi[None, :]).sum(axis=1) * hx
    kap = math.sqrt((alpha - k) * (alpha + k))     # product form, exact near k = alpha
    sel = (ys >= -10.0 / alpha) & (ys <= -6.0 / alpha)
    yy = ys[sel]
    basis = np.vstack([np.exp(-1j * k * yy), np.exp(1j * k * yy),
                       np.exp(kap * yy)]).T
    coef, *_ = np.linalg.lstsq(basis, c[sel], rcond=None)
    return abs(coef[0]), abs(coef[1]), abs(coef[2])


def reflection_scan(alpha: float, k: float, a_list) -> TailScanResult:
    """Reflected guided amplitude vs barrier offset, with the log-slope fit."""
    a_arr = np.asarray(sorted(a_list), dtype=float)
    amps = np.array([reflected_amplitudes(alpha, k, a)[0] for a in a_arr])
    slope, resid = fit_log_slope(a_arr, amps)
    return TailScanResult(a_values=a_arr, amplitudes=amps, slope=slope,
                          residual=resid)
