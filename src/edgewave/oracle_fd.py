"""Finite-difference oracle for the waveguide + barrier boundary problem.

Independent brute-force solver used to cross-check every closed form in
the package: five-point Laplacian, the attractive delta line folded in
as a 1/dx potential column (first-order accurate), the barrier ray
{y = 0, x >= a} as pinned Dirichlet rows (or a one-sided mirror stencil
for the Neumann variant), outer frame pinned to supplied analytic data.
The assembled operator rows read

    (E + Laplacian_h + (2*alpha/dx) on the x = 0 column) psi = f,

so applying a row to the constant field returns E.  ``assemble`` keeps
the full system, pinned identity rows included.  Every coefficient is
real (``E``, the spacings and ``alpha`` are real), so ``assemble``
stores them as float64.  ``solve`` does no sparse factorisation and
runs no eigensolver: it inverts the separable interior-box operator with
the fast sine transform (``scipy.fft.dst``, type I, orthonormal), takes
the delta column as a rank-one update per transverse mode, and meets the
barrier rows through a small dense capacitance matrix, so solves are
direct and deterministic.  Every solve must meet the residual gate
||A x - rhs|| <= 1e-10 ||rhs|| on the assembled system, which ties the
fast solve to the independently assembled operator.  ``compare`` drops
a fixed band of two cells around the barrier ray and the waveguide
axis.

The module also carries the discrete transverse mode the reflection
experiment needs.  For the scattering run the incident wave must be an
exact solution of the *discrete* interior equations -- otherwise its
O(dx) defect radiates a spurious scattered field that floors the
reflected amplitude and ruins the decay fit.  Hence: the transverse
profile is the ground eigenvector of the discrete 1-D
operator (not exp(-alpha|x|)) and the energy uses the lattice dispersion
E = mu_h + 2(1 - cos(k dx))/dx^2 (not mu_h + k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.fft import dst
from scipy.linalg import eigh_tridiagonal, lu_factor, lu_solve
from scipy.ndimage import binary_dilation
from scipy.sparse import coo_matrix

from .grid import DELTA_LINE, EDGE, INTERIOR, OUTER, FieldGrid, build_mask
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
_EXCLUDE_CELLS = 2       # compare() band around the barrier and the axis
_GUIDED_H = 0.1          # grid step of the guided-mode reflection experiment


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
    bc: str = "dirichlet"
    boundary: Callable | None = None
    forcing: Callable | None = None

    def __post_init__(self):
        for name in ("E", "alpha", "dx", "dy"):
            v = getattr(self, name)
            if np.iscomplexobj(v) or not math.isfinite(v):
                raise ValueError(f"{name} must be real and finite, got {v!r}")
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError("bc must be 'dirichlet' or 'neumann'")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid too small")
        # resolution guard: several nodes per wavelength / decay length
        if math.sqrt(abs(self.E)) * max(self.dx, self.dy) > 0.5:
            raise ValueError("grid too coarse for |E|: sqrt(|E|)*dx must be <= 0.5")
        if self.alpha * max(self.dx, self.dy) > 0.5:
            raise ValueError("grid too coarse for alpha: alpha*dx must be <= 0.5")


@dataclass(frozen=True)
class SparseSystem:
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

    ``vals`` is float64; ``rhs`` is complex.
    """
    mask = build_mask(p.x0, p.y0, p.dx, p.dy, p.nx, p.ny,
                      edge_a=p.edge_a, delta_line=p.alpha != 0.0)
    nx, ny = p.nx, p.ny
    n_nodes = nx * ny
    node = np.arange(n_nodes).reshape(ny, nx)
    X, Y = np.meshgrid(p.x0 + p.dx * np.arange(nx), p.y0 + p.dy * np.arange(ny))

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_nodes, dtype=complex)

    bulk = (mask == INTERIOR) | (mask == DELTA_LINE)
    cen = node[bulk]
    coef = np.full(cen.shape, p.E - 2.0 / p.dx ** 2 - 2.0 / p.dy ** 2,
                   dtype=float)
    coef[mask[bulk] == DELTA_LINE] += 2.0 * p.alpha / p.dx
    rows.append(cen); cols.append(cen); vals.append(coef)
    wx = np.full(cen.shape, 1.0 / p.dx ** 2, dtype=float)
    wy = np.full(cen.shape, 1.0 / p.dy ** 2, dtype=float)
    rows.append(cen); cols.append(cen - 1); vals.append(wx)
    rows.append(cen); cols.append(cen + 1); vals.append(wx)
    rows.append(cen); cols.append(cen - nx); vals.append(wy)
    rows.append(cen); cols.append(cen + nx); vals.append(wy)
    if p.forcing is not None:
        rhs[cen] = np.asarray(p.forcing(X, Y), dtype=complex)[bulk]

    frame = mask == OUTER
    outer = node[frame]
    rows.append(outer); cols.append(outer)
    vals.append(np.ones(outer.shape))
    if p.boundary is not None:
        rhs[outer] = p.boundary(X[frame], Y[frame])

    edge = node[mask == EDGE]
    if edge.size:
        rows.append(edge); cols.append(edge)
        vals.append(np.ones(edge.shape))
        if p.bc == "neumann":
            # one-sided mirror toward the upper face; a single-valued grid
            # cannot carry independent data on the two faces of the cut
            rows.append(edge); cols.append(edge + nx)
            vals.append(np.full(edge.shape, -1.0))

    return SparseSystem(
        n=n_nodes,
        rows=np.concatenate(rows), cols=np.concatenate(cols),
        vals=np.concatenate(vals), rhs=rhs, problem=p, mask=mask,
    )


def solve(s: SparseSystem) -> FieldGrid:
    """Direct solve by fast diagonalisation; verifies the residual against
    1e-10 * ||rhs||.

    The OUTER frame is pinned to ``rhs`` and moved to the right side with
    the assembled ``A``.  Off the barrier row the operator on the interior
    box is separable, L = I (x) T_x + T_y (x) I, with T_y the Dirichlet
    second difference -2/dy^2, 1/dy^2 and T_x = D_x + c e e^T: the same
    second difference in x shifted by E, plus c = 2 alpha/dx on the delta
    column e.  The orthonormal DST-I matrix S, symmetric and orthogonal,
    diagonalises both: D_x = S_x diag(lam) S_x and T_y = S_y diag(mu) S_y
    with lam = E - 4/dx^2 sin^2(pi k / 2(m+1)), mu likewise without E
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964), so no eigensolver
    runs.  Per y-mode j the delta column is a rank-one update of
    D_x + mu_j, folded in by Sherman-Morrison with W = (S_x[e] * inv) S_x,
    inv = 1 / (mu + lam), and beta_j = c / (1 + c W[j, e]).  S is
    applied as the fast sine transform ``scipy.fft.dst(type=1,
    norm="ortho")`` (Hockney, J. ACM 12, 1965), which takes the complex
    right-hand side one real part at a time; the few rows of S the
    corrections need are transforms of unit vectors.  The EDGE rows of
    ``A`` (identity for Dirichlet, e - e_above for Neumann) are
    constraints B psi = g, met by one source per EDGE node through the
    dense m x m capacitance matrix B L^-1 P (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971).  One correction step
    x += L~^-1 (rhs - A x) follows; then the Dirichlet EDGE nodes take
    their pinned values and each Neumann EDGE node its upper neighbour's,
    bit for bit.  Raises ``ValueError`` for non-finite ``rhs`` or
    coefficients, ``RuntimeError`` if the residual on the full complex
    system is not finite or exceeds the gate; the message gives
    min|mu + lam| / max|mu + lam| and, with a delta column,
    min|1 + c W[j, e]|, small near an eigenvalue of the barrier-free box.
    """
    if not np.isfinite(s.rhs).all():
        raise ValueError("rhs holds non-finite values (boundary or forcing data)")
    if not np.isfinite(s.vals).all():
        raise ValueError("system coefficients hold non-finite values")
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
        box(x)[...] = box_solve(box(s.rhs - A @ x))
        box(x)[...] += box_solve(box(s.rhs - A @ x))
        if edge.size:
            x[edge] = s.rhs[edge] if p.bc == "dirichlet" else x[edge + nx]
        res = np.linalg.norm(A @ x - s.rhs)
        scale = np.linalg.norm(s.rhs)
    if not np.isfinite(res) or (scale > 0 and res > _SOLVE_TOL * scale):
        raise RuntimeError(
            f"solver residual {res:.3e} exceeds {_SOLVE_TOL:.1e} * ||rhs|| "
            f"({scale:.3e}); of the barrier-free box {spectrum}, small near "
            f"one of its eigenvalues")
    return FieldGrid(x0=p.x0, y0=p.y0, dx=p.dx, dy=p.dy, nx=nx, ny=ny,
                     values=x.reshape(ny, nx), mask=s.mask)


def _sine_rows(m: int, idx) -> np.ndarray:
    """Rows ``idx`` of the orthonormal DST-I matrix S on m nodes.

    S[k, j] = sqrt(2/(m+1)) sin(pi (k+1)(j+1)/(m+1)) is symmetric, so row
    i is the transform of the unit vector e_i.
    """
    unit = (np.arange(m) == np.reshape(idx, (-1, 1))).astype(float)
    return dst(unit, type=1, norm="ortho", overwrite_x=True)


def _second_difference_eigs(m: int, h: float) -> np.ndarray:
    """Eigenvalues -4/h^2 sin^2(pi k / 2(m+1)), k = 1..m, of the Dirichlet
    second difference on m nodes, in the order of the DST-I modes."""
    k = np.arange(1, m + 1)
    return -4.0 / h ** 2 * np.sin(np.pi * k / (2 * (m + 1))) ** 2


def _box_solver(s: SparseSystem, edge: np.ndarray):
    """Solver for the interior-box rows of ``s``, the frame moved out.

    Returns (box_solve, spectrum).  ``box_solve`` maps a complex
    right-hand side on the interior box, whose EDGE entries are the
    constraint data g, to the solution there; it zeroes those entries of
    its argument.  ``spectrum`` names min|mu + lam| / max|mu + lam| and,
    with a delta column, min|1 + c W[j, e]|.
    """
    p = s.problem
    mx, my = p.nx - 2, p.ny - 2
    denom = _second_difference_eigs(my, p.dy)[:, None] \
        + (p.E + _second_difference_eigs(mx, p.dx))[None, :]
    inv = 1.0 / denom
    spectrum = (f"min|mu+lam|/max|mu+lam| is "
                f"{np.abs(denom).min() / np.abs(denom).max():.1e}")
    delta = np.flatnonzero((s.mask[1:-1, 1:-1] == DELTA_LINE).any(axis=0))
    if delta.size:
        # row j of W is (D_x + mu_j)^-1 e, e the delta column i0
        i0, c = int(delta[0]), 2.0 * p.alpha / p.dx
        s0 = _sine_rows(mx, i0)[0]
        W = dst(s0 * inv, type=1, norm="ortho", overwrite_x=True)
        secular = 1.0 + c * W[:, i0]
        beta = c / secular
        spectrum += (f" and min|1 + c W| of its delta column "
                     f"{np.abs(secular).min():.1e}")
    if edge.size:
        # the EDGE nodes sit on box row jb, box columns ib; row e of B is
        # d_e e_e + u_e e_above, with u dropped below the top frame (the
        # frame value already sits in g)
        jb, ib = edge[0] // p.nx - 1, edge % p.nx - 1
        on = s.mask.ravel()[s.rows] == EDGE
        r, cl, v = s.rows[on], s.cols[on], s.vals[on]
        e = np.searchsorted(edge, r)
        links = [cl == r] + ([cl == r + p.nx] if jb + 1 < my else [])
        coef = np.array([np.bincount(e[k], v[k], minlength=edge.size)
                         for k in links])
        rows = _sine_rows(my, jb + np.arange(len(coef)))
        qi = _sine_rows(mx, ib)
        # capacitance matrix B L^-1 P, P injecting one source per EDGE node
        gamma = coef.T @ (rows * rows[0])
        cap = ((gamma @ inv) * qi) @ qi.T
        if delta.size:
            wb = W[:, ib]
            cap -= ((gamma * beta) * wb.T) @ wb
        cap = lu_factor(cap, check_finite=False)

    def box_solve(f):
        if edge.size:
            g = f[jb, ib]
            f[jb, ib] = 0.0
        h = dst(dst(f, type=1, norm="ortho", axis=1),
                type=1, norm="ortho", axis=0, overwrite_x=True)
        h *= inv
        if edge.size:
            # sources sigma with B L^-1 (f + P sigma) = g
            b_psi = (rows @ h) @ qi.T
            if delta.size:
                b_psi -= (rows * (beta * (h @ s0))) @ wb
            sigma = lu_solve(cap, g - (coef * b_psi).sum(axis=0),
                             check_finite=False)
            h += (rows[0][:, None] * inv) * (sigma @ qi)
        t = dst(h, type=1, norm="ortho", axis=1, overwrite_x=True)
        if delta.size:
            t -= (beta * t[:, i0])[:, None] * W
        return dst(t, type=1, norm="ortho", axis=0, overwrite_x=True)

    return box_solve, spectrum


def compare(analytic: FieldGrid, fd: FieldGrid, E: float | None = None) -> dict:
    """Relative discrepancy report between two fields on the same grid.

    Interior nodes only; bands of two cells around the barrier ray and
    the waveguide axis are excluded (square dilation of the tagged
    nodes).  Returns a dict with keys l2_rel, max_rel, dx, dy, E, n_nodes
    and a per-quadrant breakdown under "quadrants".
    """
    for attr in ("x0", "y0", "dx", "dy", "nx", "ny"):
        if not math.isclose(getattr(analytic, attr), getattr(fd, attr),
                            rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"grids differ in {attr}")
    mask = fd.mask
    keep = mask == INTERIOR
    special = (mask == EDGE) | (mask == DELTA_LINE)
    if special.any():
        size = 2 * _EXCLUDE_CELLS + 1
        keep &= ~binary_dilation(special, structure=np.ones((size, size), bool))
    if not keep.any():
        raise ValueError("no nodes left to compare")

    diff = fd.values - analytic.values

    def _rel(sel):            # nan for an empty or all-zero selection
        ref = np.linalg.norm(analytic.values[sel])
        if ref == 0.0:
            return float("nan")
        return float(np.linalg.norm(diff[sel]) / ref)

    X, Y = fd.meshes()
    b = _EXCLUDE_CELLS * fd.dx
    quads = {
        "x<0,y>0": (X < -b) & (Y > b),
        "x>0,y>0": (X > b) & (Y > b),
        "x<0,y<0": (X < -b) & (Y < -b),
        "x>0,y<0": (X > b) & (Y < -b),
    }
    amax = np.abs(analytic.values[keep]).max()
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
    node, which must be on the grid.  Returns (energy, mode) with the
    mode normalized to sum(phi^2) * h = 1 and phi(0) > 0.
    """
    n = len(xs)
    h = xs[1] - xs[0]
    i0 = int(np.argmin(np.abs(xs)))
    if abs(xs[i0]) > 1e-12:
        raise ValueError("x = 0 must be a grid node")
    diag = np.full(n - 2, 2.0 / h ** 2)
    diag[i0 - 1] -= 2.0 * alpha / h
    off = np.full(n - 3, -1.0 / h ** 2)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    phi = np.zeros(n)
    phi[1:-1] = v[:, 0]
    phi /= math.sqrt(float(np.sum(phi ** 2)) * h)
    if phi[i0] < 0:
        phi = -phi
    return float(w[0]), phi


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
    kap = math.sqrt(alpha * alpha - k * k)
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
                          residual=resid, alpha=alpha, k=k)
