"""First-order (Born) response of the guided mode to a point impurity.

The unperturbed Hamiltonian is H = -d2/dx2 - 2*alpha*delta(x) - d2/dy2.
Its transverse spectrum consists of the single bound state

    phi0(x) = sqrt(alpha) exp(-alpha|x|),    energy -alpha^2,

and even/odd scattering states at transverse momentum p:

    phi_e(x) = [p cos(px) - alpha sin(p|x|)] / sqrt(pi (p^2 + alpha^2)),
    phi_o(x) = sin(px) / sqrt(pi),

normalized so that the completeness relation carries a plain dp measure.
The resolvent at total energy E, convention (E - H) G = delta, separates
channel by channel with the 1-D line kernel

    g1(y; mu) = exp(i sqrt(mu)|y|) / (2i sqrt(mu))        for mu > 0,
    g1(y; mu) = -exp(-sqrt(-mu)|y|) / (2 sqrt(-mu))       for mu < 0,

where mu is the energy left to the longitudinal motion (E + alpha^2 in
the bound channel, E - p^2 in the continuum).  Both branches solve
(mu + d2/dy2) g1 = delta(y); the sign of the mu < 0 branch is fixed by
that equation, and the operator-mass check in the tests pins it: summing
(E + Laplacian_h) G over a patch around the source must give +1.

Only energies below the continuum threshold (E < 0) are supported: every
continuum channel is then closed and the p-integral is a smooth decaying
integrand after the substitution p = sqrt(-E) sinh u, which cancels the
1/(2 sqrt(p^2 - E)) density exactly.  The integral is cut at
p_max = 20 max(alpha, 1), and Gauss-Legendre nodes are doubled until the
value moves by less than 1e-8.

An impurity lam_imp * delta(x - a) delta(y) acting on the incoming guided
mode psi0 = exp(-alpha|x| + iky) produces, to first order,

    psi1(x, y) = lam_imp * G((x, y), (a, 0)) * exp(-alpha * a),

and the bound-channel factor of G contributes a second exp(-alpha*a), so
|psi1| at a fixed probe falls off as exp(-2*alpha*a).  tail_scan measures
that slope by least squares over a list of impurity offsets; like every
log-slope fit (fit_log_slope) it refuses an rms residual above 0.02
(probes near the guide stay at or below 7.1e-3; a probe far from it
leaves quadrature noise, rms 0.046 to 0.45).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlanePoint
from .grid import pow2_scale

__all__ = [
    "ChannelGreen",
    "GreenValue",
    "TailScanResult",
    "fit_log_slope",
    "make_green",
    "phi_bound",
    "phi_even",
    "phi_odd",
    "line_kernel",
    "green_eval",
    "born_correction",
    "tail_scan",
    "tail_scan_defaults",
    "tail_scan_inputs",
    "tail_scan_csv",
    "operator_mass",
]

_N_START = 64
# leggauss diagonalises an n x n companion matrix: 0.7 s at 2048 nodes,
# 5 s at 4096, so an integrand that no rule resolves fails within seconds
_N_MAX = 2048
_QUAD_TOL = 1e-8         # absolute move of the last node doubling
_TAIL_RMS_MAX = 0.02     # largest rms residual of a usable log-slope fit
_TINY = float(np.finfo(float).tiny)     # the least normal double


@dataclass(frozen=True)
class ChannelGreen:
    """Channel decomposition of the resolvent at fixed energy E < 0."""

    alpha: float
    E: float

    def __post_init__(self):
        # a non-finite alpha or E gives a NaN integrand, and the continuum
        # quadrature would double its nodes toward the cap
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        # a subnormal E has lost digits: at alpha = 3e-162 the Born slope
        # is 3.8e-6 off the scale law
        if not -math.inf < self.E <= -_TINY:
            raise ValueError("E must be finite, a normal double and below the "
                             f"continuum threshold (E < 0), got {self.E!r}")


def make_green(alpha: float, E: float) -> ChannelGreen:
    return ChannelGreen(alpha=alpha, E=E)


def phi_bound(alpha: float, x) -> np.ndarray:
    return math.sqrt(alpha) * np.exp(-alpha * np.abs(x))


def phi_even(alpha: float, p, x) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    # p and alpha at one exact power-of-two scale: p reaches 20 alpha, so
    # p^2 + alpha^2 itself leaves the double range above alpha = 6.7e152
    s = pow2_scale(max(alpha, float(np.abs(p).max(initial=0.0))))
    ps, als = s * p, s * alpha
    return (ps * np.cos(p * x) - als * np.sin(p * np.abs(x))) \
        / np.sqrt(math.pi * (ps * ps + als * als))


def phi_odd(p, x) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return np.sin(p * x) / math.sqrt(math.pi)


def line_kernel(y: float, mu: float) -> complex:
    """1-D resolvent kernel g1(y; mu) in the (E - H)G = delta convention."""
    if mu == 0.0:
        raise ValueError("mu = 0 is the channel branch point")
    if mu > 0:
        q = math.sqrt(mu)
        return np.exp(1j * q * abs(y)) / (2j * q)
    q = math.sqrt(-mu)
    return -math.exp(-q * abs(y)) / (2.0 * q)


@dataclass(frozen=True)
class GreenValue:
    """Green's function value with the quadrature convergence estimate.

    est_error reports the move of the last node-doubling step; the p_max
    truncation is a separate systematic, negligible at separated points
    because the integrand decays like exp(-sqrt(p^2 - E)|dy|).
    """

    value: complex
    est_error: float


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, built once
    per n (n only doubles from _N_START to _N_MAX, so the cache is small)."""
    u, w = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _continuum_integral(g: ChannelGreen, x: float, xp: float,
                        dy: float) -> tuple[complex, float]:
    # p = sqrt(-E) sinh u turns dp/(2 sqrt(p^2 - E)) into du/2
    s = math.sqrt(-g.E)
    u_max = math.asinh(20.0 * max(g.alpha, 1.0) / s)     # p_max

    def total(n: int) -> float:
        u, w = _gauss_legendre(n)
        u = 0.5 * u_max * (u + 1.0)
        w = 0.5 * u_max * w
        p = s * np.sinh(u)
        dens = (phi_even(g.alpha, p, x) * phi_even(g.alpha, p, xp)
                + phi_odd(p, x) * phi_odd(p, xp))
        rad = np.exp(-s * np.cosh(u) * abs(dy))
        return float(np.sum(w * dens * rad) * (-0.5))

    n = _N_START
    prev = total(n)
    while True:
        n *= 2
        cur = total(n)
        delta = abs(cur - prev)
        if delta < _QUAD_TOL:
            return complex(cur), delta
        if n >= _N_MAX:
            raise RuntimeError(
                f"continuum quadrature did not converge: last move {delta:.3e} "
                f"at {n} nodes (tol {_QUAD_TOL:.1e})")
        prev = cur


def green_eval(g: ChannelGreen, frm: PlanePoint, to: PlanePoint) -> GreenValue:
    """G(to, frm) at energy g.E, bound channel plus continuum quadrature."""
    if frm.x == to.x and frm.y == to.y:
        raise ValueError("coincident points: the kernel is log-singular")
    dy = to.y - frm.y
    cont, est = _continuum_integral(g, to.x, frm.x, dy)
    if g.alpha > 0:
        # E + alpha^2 at one exact power-of-two scale: alpha^2 leaves the
        # double range above alpha = 1.34e154, where E and mu0 stay in it
        s = pow2_scale(max(g.alpha, math.sqrt(-g.E)))
        mu0 = (g.E * s * s + (g.alpha * s) ** 2) / s / s
        bound = (phi_bound(g.alpha, to.x) * phi_bound(g.alpha, frm.x)
                 * line_kernel(dy, mu0))
    else:
        bound = 0.0
    return GreenValue(value=complex(bound) + cont, est_error=est)


def _incident_decay(alpha: float, k: float, lambda_imp: float, a: float,
                    p: PlanePoint) -> tuple[ChannelGreen, float]:
    """born_correction's input checks, then its Green function and the
    incident mode's factor e^{-alpha a} at the impurity; no quadrature."""
    if not (math.isfinite(a) and a > 0):
        # a NaN offset would otherwise drive the continuum quadrature to
        # its node cap on a NaN integrand
        raise ValueError(f"the impurity offset a must be positive and finite, got {a!r}")
    if not math.isfinite(lambda_imp):
        raise ValueError(f"the impurity strength lambda_imp must be finite, "
                         f"got {lambda_imp!r}")
    if p.x == a and p.y == 0.0:
        raise ValueError(f"the probe lies on an impurity, at a = {a!r}")
    try:
        # E in product form, which keeps its digits near the branch point k = alpha
        g = make_green(alpha, (k - alpha) * (k + alpha))
    except ValueError as exc:
        raise ValueError(f"{exc} at alpha = {alpha!r}, k = {k!r}") from None
    return g, math.exp(-alpha * a)


def born_correction(alpha: float, k: float, lambda_imp: float, a: float,
                    p: PlanePoint) -> complex:
    """First-order field of the impurity lam*delta(x-a)delta(y) at point p.

    The incident guided mode exp(-alpha|x| + iky) has energy
    E = k^2 - alpha^2, which must stay below the continuum threshold.
    """
    g, decay = _incident_decay(alpha, k, lambda_imp, a, p)
    if decay == 0.0:
        # the incident mode underflows at the impurity: the product is 0
        # whatever the continuum quadrature returns
        return 0j
    gv = green_eval(g, PlanePoint(a, 0.0), p)
    return lambda_imp * gv.value * decay


@dataclass(frozen=True)
class TailScanResult:
    """Fitted decay of the Born amplitude with impurity offset."""

    a_values: np.ndarray
    amplitudes: np.ndarray
    slope: float
    residual: float


def fit_log_slope(xs, values) -> tuple[float, float]:
    """Least-squares slope of log|values| vs xs; returns (slope, rms residual).
    The line is fitted in closed form on u = (x - mean x)/ptp(x): no rank
    cut, no unit of length.  Raises ``ValueError`` unless the xs have a
    finite spread, ``RuntimeError`` if the rms residual exceeds 0.02."""
    xs = np.asarray(xs, dtype=float)
    logs = np.log(np.abs(np.asarray(values)))
    span = np.ptp(xs)
    if not 0 < span < math.inf:
        raise ValueError(f"a log-slope fit needs xs with a finite spread, got {span!r}")
    u, dev = (xs - xs.mean()) / span, logs - logs.mean()
    b = u @ dev / (u @ u)
    slope, rms = float(b / span), float(np.sqrt(np.mean((dev - b * u) ** 2)))
    if not rms <= _TAIL_RMS_MAX:
        raise RuntimeError(
            f"tail fit rms residual {rms:.3e} exceeds {_TAIL_RMS_MAX}: "
            f"the values do not follow one exponential (slope {slope:.3e})")
    return slope, rms


def tail_scan_defaults(alpha: float) -> tuple[float, float, list, PlanePoint]:
    """(k, lambda_imp, offsets, probe): verify's Born scan and ``edgewave tail``'s defaults."""
    return (0.5 * alpha, 1.0, [t / alpha for t in (1.0, 1.5, 2.0, 2.5, 3.0)],
            PlanePoint(0.0, -12.0 / alpha))


def tail_scan_inputs(alpha: float, k: float, lambda_imp: float, a_list,
                     probe: PlanePoint) -> tuple[np.ndarray, np.ndarray]:
    """tail_scan's input rules, each a ValueError: 0 < k < alpha, each
    offset's own checks (born_correction's), at least four offsets with no
    repeat, a span of 2/alpha with a few ulps of slack (t/alpha, t = 1..3,
    spans it only up to rounding).  Returns (sorted offsets, e^{-alpha a})."""
    if not 0 < k < alpha:
        raise ValueError(f"the tail scan needs 0 < k < alpha, got "
                         f"alpha = {alpha!r}, k = {k!r}")
    a_arr = np.array(sorted(a_list), dtype=float)
    if len(a_arr) < 4 or not np.all(np.diff(a_arr)):
        raise ValueError("the tail scan needs at least four offsets with no repeat")
    decays = np.array([_incident_decay(alpha, k, lambda_imp, a, probe)[1]
                       for a in a_arr.tolist()])
    if not np.ptp(a_arr) >= 2.0 / alpha * (1.0 - 4.0 * np.finfo(float).eps):
        raise ValueError("the tail scan offsets must span at least 2/alpha")
    return a_arr, decays


def _refuse_underflow(a_arr: np.ndarray, amps: np.ndarray,
                      floor: float = 0.0) -> None:
    """Refuse a fit whose amplitudes are all 0 (or below floor), or 0
    from some offset on."""
    if not amps.any() or np.all(amps < floor):
        raise ValueError("all amplitudes underflowed; fit is degenerate")
    if not np.all(amps):
        raise ValueError(f"the amplitude underflowed to 0 from offset "
                         f"a = {a_arr[amps == 0][0]:.6g}; fit is degenerate")


def tail_scan(alpha: float, k: float, lambda_imp: float, a_list,
              probe: PlanePoint) -> TailScanResult:
    """Born amplitude |psi1(probe)| against impurity offset, with log fit."""
    # the inputs and an underflowing e^{-alpha a} are refused before the
    # first quadrature, a product that underflows alone after it
    a_arr, decays = tail_scan_inputs(alpha, k, lambda_imp, a_list, probe)
    _refuse_underflow(a_arr, decays)
    amps = np.array([abs(born_correction(alpha, k, lambda_imp, a, probe))
                     for a in a_arr])
    _refuse_underflow(a_arr, amps, floor=1e-300)
    slope, resid = fit_log_slope(a_arr, amps)
    return TailScanResult(a_values=a_arr, amplitudes=amps, slope=slope,
                          residual=resid)


def tail_scan_csv(res: TailScanResult) -> str:
    lines = ["a,amplitude"]
    for a, c in zip(res.a_values, res.amplitudes):
        lines.append(f"{a:.16e},{c:.16e}")
    return "\n".join(lines) + "\n"


def operator_mass(g: ChannelGreen, src: PlanePoint, x_range, y_range,
                  h: float) -> float:
    """Sum of (E + Laplacian_h + 2 alpha delta_h) G over a patch, times h^2.

    For the exact resolvent in the (E - H)G = delta convention this mass
    is +1 once the patch encloses the source; the discretization defect
    is dominated by the rows nearest the source and the x = 0 column.
    """
    xs = np.arange(x_range[0], x_range[1] + 0.5 * h, h)
    ys = np.arange(y_range[0], y_range[1] + 0.5 * h, h)
    nx, ny = len(xs), len(ys)
    G = np.empty((ny, nx), dtype=complex)
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            G[j, i] = green_eval(g, src, PlanePoint(x, y)).value
    mid = G[1:-1, 1:-1]
    lap = (G[1:-1, :-2] + G[1:-1, 2:] + G[:-2, 1:-1] + G[2:, 1:-1]
           - 4.0 * mid) / (h * h)
    row = g.E * mid + lap
    on_axis = np.isclose(xs[1:-1], 0.0, atol=1e-12)
    row[:, on_axis] += 2.0 * g.alpha * mid[:, on_axis] / h
    return float(abs((row * h * h).sum()))
