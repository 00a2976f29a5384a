"""Complex error function and the half-line Fresnel-type integral.

Three evaluation routes are provided for

    F(xi; k) = integral of exp(2 i k tau^2) dtau from -infinity to xi,

the building block of the edge-diffraction closed forms:

* erf closed form - F = sqrt(pi)/(2 s) * erfc(-s xi), s = sqrt(-2 i k),
  Re s > 0 (the contour rotated so the integral converges absolutely),
  by erfc(u) = e^{-u^2} w(iu) (A&S 7.1.3) with a real log-scale L (the
  bound edge's -alpha|x|) inside that one exponential, giving e^L F.
  The Faddeeva function w is Weideman's rational expansion (J. A. C.
  Weideman, SIAM J. Numer. Anal. 31 (1994) 1497-1518) with N = 36 terms
  and L_W = sqrt(N/sqrt 2), one polynomial evaluated a block at a time;
  against scipy.special's Faddeeva function its relative error is at most
  2.5e-14 from |t| = 0 to 1e6, the real axis of w included.
* real-argument Fresnel form - for real k > 0 and real xi the erf
  argument lies on the ray s xi = e^{-i pi/4} sqrt(2k) xi, where
  erf(e^{-i pi/4} u) = (1 - i)(C(z) + i S(z)), z = u sqrt(2/pi)
  (Abramowitz & Stegun 7.3.22), so
  F = sqrt(pi/k)/4 * ((1 + 2C(z)) + i (1 + 2S(z))), z = 2 xi sqrt(k/pi),
  with Fresnel's real integrals C and S from scipy.
* :func:`fresnel_F_quadrature` - adaptive Gauss-Kronrod integration
  along the rotated tail plus the straight segment 0 -> xi.  It shares
  no special-function code with the closed forms and serves as their
  oracle.

:func:`fresnel_F` and :func:`fresnel_F_array` pick between the two
closed forms on values, not on dtype: the Fresnel form when k has zero
imaginary part and positive real part and every xi has an imaginary
part of exactly zero (the free edge), the erf form otherwise (the bound
edge in both regimes).  Both forms keep the input contract of
:func:`erf_cx`, whose argument check and Faddeeva core the erf form
shares: a non-finite xi or |s xi| > 1e6 raises ``ValueError``.

For real k this reproduces the conditionally convergent Fresnel limit;
for k on the positive imaginary axis (evanescent regime) the integrand
decays and everything is elementary.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fresnel

__all__ = [
    "FresnelValue",
    "erf_cx",
    "fresnel_F",
    "fresnel_F_array",
    "fresnel_F_quadrature",
]

# exp over- and underflows beyond ~709.78 and ~-745.1: screen at +-708
_EXP_RANGE = 708.0
# points per block of the array evaluators here and in sommerfeld: the
# temporaries of one block stay in cache and off the process peak
_BLOCK = 4096


def _tiles(rows: int, cols: int):
    """(row slice, column slice) tiles of whole rows covering a rows x cols
    array, at most _BLOCK points each; a wider row in column chunks."""
    if cols > _BLOCK:
        return ((slice(r, r + 1), slice(c, c + _BLOCK))
                for r in range(rows) for c in range(0, cols, _BLOCK))
    step = _BLOCK // max(cols, 1)
    return ((slice(r, r + step), slice(None)) for r in range(0, rows, step))


# Weideman's expansion of w in the closed upper half-plane, with N terms:
# w(z) = 2 p(Z)/(L_W - iz)^2 + 1/(sqrt(pi) (L_W - iz)), Z = (L_W + iz)/(L_W - iz),
# p(Z) = sum_n a_n Z^(n-1); a_n is his DFT of f(t) = e^{-t^2}(L_W^2 + t^2)
# at t = L_W tan(pi j/2M), M = 2N, written as the cosine sum of an even f;
# the table holds 2 a_n (exact doubling), so 2 p(Z) costs no multiply
_W_TERMS = 36
_L_W = math.sqrt(_W_TERMS / math.sqrt(2.0))
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _weideman_coefficients() -> list[float]:
    m = 2 * _W_TERMS
    j = np.arange(1, m)
    tj = _L_W * np.tan(j * (math.pi / (2 * m)))
    f = np.exp(-tj * tj) * (_L_W * _L_W + tj * tj)
    n = np.arange(1, _W_TERMS + 1)
    a = (_L_W * _L_W + 2.0 * (np.cos(np.outer(n, j) * (math.pi / m)) @ f)) / m
    return a.tolist()


_W_COEFFS = _weideman_coefficients()


@dataclass(frozen=True)
class FresnelValue:
    """Value of F with a crude absolute error estimate."""

    value: complex
    est_abs_error: float

    def __post_init__(self):
        if not self.est_abs_error >= 0:
            raise ValueError("error estimate must be a number >= 0")


def _check(z: np.ndarray, L) -> None:
    """Both erf routes' check: ValueError for non-finite z, then |z| > 1e6;
    then OverflowError where e^{L - z^2} would overflow."""
    if not np.all(np.isfinite(z)):
        raise ValueError("erf requires finite arguments")
    if np.any(np.abs(z) > 1e6):
        raise ValueError("erf restricted to |z| <= 1e6")
    if np.any(L - (z.real * z.real - z.imag * z.imag) > _EXP_RANGE):
        raise OverflowError("erf overflows: Re(L - z^2) above exp's range")


def _faddeeva(t: np.ndarray, L) -> np.ndarray:
    """e^{L - t^2} w(it) for Re t >= 0, where w is stable and |w| <= 1.
    L goes into the real part alone: at L = 0 the bits are exp(-t^2)'s.

    w(it) is Weideman's expansion at z = it: d = L_W + t and
    Z = (L_W - t)/d, which Re t >= 0 keeps in the closed unit disk, and
    p(Z) by Horner.  Its complex products are out of place: numpy 2.4
    rounds an in-place product on a one-element array by another loop
    than the same product in a longer array, so a point's bits would
    depend on the length of the array it sits in.  Relative to
    scipy.special's Faddeeva function it is within 2.5e-14 (|t| up to
    1e6, Re t = 0 included); erfc(t) near t = 0 is within 5e-15
    absolute.  A call makes about 80 ufunc calls whatever its size, so a
    one-point call is all overhead.
    """
    g = np.asarray(-t * t)
    g.real += L
    np.exp(g, out=g)
    d = t + _L_W
    z = _L_W - t
    z /= d
    p = z * _W_COEFFS[-1]
    for a in _W_COEFFS[-2:0:-1]:
        p += a
        p = p * z
    p += _W_COEFFS[0]
    p /= d
    p += _RSQRT_PI
    p /= d
    return p * g


def _erfc_neg(z: np.ndarray, L) -> np.ndarray:
    """e^L erfc(-z) = e^L (1 + erf z): e^{L - z^2} w(-iz) where Re z <= 0,
    2 e^L - e^{L - z^2} w(iz) where Re z > 0 (sign bits), so an underflow
    of both exponentials gives 0, never an overflow met by an underflow."""
    _check(z, L)
    left = np.signbit(z.real)
    core = _faddeeva(np.where(left, -z, z), L)
    return np.where(left, core, 2.0 * np.exp(L) - core)


def _erf_block(z: np.ndarray) -> np.ndarray:
    """erf_cx on one contiguous 1-D block of screened arguments: fold,
    core, unfold."""
    # fold into the principal quadrant: each part by its magnitude
    parts = z.view(float)
    out = 1.0 - _faddeeva(np.abs(parts).view(complex), 0.0)
    # saturated region: exp(-z^2) underflows, erf == 1 to ~1e-300
    np.copyto(out, 1.0, where=z.real * z.real - z.imag * z.imag > _EXP_RANGE)
    # unfold: erf(-z) = -erf(z) and erf(conj z) = conj(erf z) negate each
    # part of erf with the same part of z; the sign bit, not "< 0", so
    # that a -0.0 part is reflected too
    np.negative(out.view(float), out=out.view(float), where=np.signbit(parts))
    if not np.all(np.isfinite(out)):
        raise OverflowError("erf overflow escaped the pre-screen")
    return out


def erf_cx(z):
    """Error function of complex argument.

    Accepts scalars or numpy arrays.  Odd symmetry and conjugation
    symmetry are enforced structurally: the input is folded into the
    quadrant Re z >= 0, Im z >= 0, evaluated there, and unfolded, so
    erf(-z) == -erf(z) and erf(conj z) == conj(erf z) hold exactly.

    The input checks run on the whole array first; the evaluation then
    runs in consecutive blocks of a fixed number of points written into
    one output array, so the traced peak is about 20 bytes per point, of
    which the output is 16 (108 on the whole array at once).

    Raises
    ------
    OverflowError
        When Re(z^2) is below the double-precision exponent range, so
        |erf z| itself overflows (arguments near the imaginary axis).
    ValueError
        For |z| > 1e6 or non-finite input; either wins over an overflow
        anywhere in the array.
    """
    z = np.asarray(z, dtype=complex)
    _check(z, 0.0)

    out = np.empty(z.shape, dtype=complex)
    flat = out.reshape(-1)
    for _, cs in _tiles(1, flat.size):
        flat[cs] = _erf_block(z.flat[cs])
    if out.ndim == 0:
        return complex(out)
    return out


def _rotation_root(k) -> complex:
    """s = sqrt(-2ik) with Re s > 0 (the convergent-contour branch)."""
    k = complex(k)
    if k == 0:
        raise ValueError("k = 0: the integral diverges")
    s = np.sqrt(-2j * k)    # numpy's principal root: Re s >= 0
    if s.real == 0.0:
        raise ValueError("branch ambiguity: Re sqrt(-2ik) = 0 exactly")
    return complex(s)


def _closed_form(k, xi, L) -> np.ndarray:
    """e^L F(xi; k) for an array of xi and a real L (a scalar or an array
    broadcasting to xi's shape), by one closed form for the whole array;
    Fresnel's only at L = 0."""
    s = _rotation_root(k)
    k = complex(k)
    xi = np.asarray(xi)
    if (k.imag != 0.0 or not k.real > 0.0 or np.any(xi.imag)
            or np.count_nonzero(L)):
        return math.sqrt(math.pi) / (2.0 * s) * _erfc_neg(s * xi, L)
    z = np.asarray(xi.real, dtype=float) * (2.0 * math.sqrt(k.real / math.pi))
    # |z| = |s xi| sqrt(2/pi); "not <=" also catches nan and inf
    if not np.all(np.abs(z) <= 1e6 * math.sqrt(2.0 / math.pi)):
        raise ValueError("fresnel_F requires finite xi with |s xi| <= 1e6")
    out = np.empty(z.shape, dtype=complex)
    fresnel(z, out=(out.imag, out.real))
    # F = sqrt(pi/k)/4 ((1 + 2C) + i (1 + 2S)), on the interleaved parts
    parts = out.reshape(-1).view(float)
    scale = 0.25 * math.sqrt(math.pi / k.real)
    parts *= 2.0 * scale
    parts += scale
    return out if out.ndim else complex(out)


def fresnel_F(k, xi) -> FresnelValue:
    """Closed-form F(xi; k), with the route of :func:`fresnel_F_array`.

    The error estimate is a forward bound, with the prefactor pref =
    sqrt(pi)/(2 s) formed here: either backend is accurate to ~1e-13
    relative of |pref| (1 + |erf(s xi)|), and pref erf(s xi) = F - pref.
    The erf route's Faddeeva kernel (Weideman, N = 36) is within 2.5e-14
    of scipy.special's relative to |w|, and erf near 0 within 5e-15 absolute.
    """
    value = complex(_closed_form(k, np.array([xi]), 0.0)[0])
    pref = math.sqrt(math.pi) / (2.0 * _rotation_root(k))
    est = 1e-13 * (abs(pref) + abs(value - pref))
    return FresnelValue(value=value, est_abs_error=est)


def fresnel_F_array(k, xi: np.ndarray) -> np.ndarray:
    """Vectorized closed-form F for grid work (values only)."""
    return _closed_form(k, xi, 0.0)


# --- independent quadrature oracle -----------------------------------------
#
# 15-point Kronrod extension of 7-point Gauss, the workhorse pair for
# adaptive quadrature.  Nodes/weights for [-1, 1].

_K15_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993945, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_K15_WEIGHTS = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.06309209262997855,
    0.02293532201052922,
])
# Gauss-7 lives on the odd-indexed Kronrod nodes
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_G7_WEIGHTS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])

_MAX_SUBDIVISIONS = 4000


def _gk_panel(f, a: complex, b: complex):
    """One G7/K15 panel on the straight segment a->b; returns (I, err)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = f(mid + half * _K15_NODES)
    k15 = half * np.sum(_K15_WEIGHTS * t)
    g7 = half * np.sum(_G7_WEIGHTS * t[_G7_IDX])
    return k15, abs(k15 - g7)


def _adaptive_segment(f, a: complex, b: complex, tol: float):
    """Adaptive bisection with a worst-panel-first queue.

    The target is tol relative to the magnitude of the running total
    (with an absolute floor of tol itself), since the integrand can
    reach huge magnitudes on strongly complex segments where a fixed
    absolute tolerance would sit below machine precision.  The panels
    sit in a heap keyed on (-err, -serial): the largest error is split
    first, and of equal errors the panel made last.
    """
    val, err = _gk_panel(f, a, b)
    panels = [(-err, 0, a, b, val)]
    total = val
    total_err = err
    n = 0
    while not total_err <= tol * max(1.0, abs(total)) and n < _MAX_SUBDIVISIONS:
        neg_err0, _, a0, b0, v0 = heapq.heappop(panels)
        m = 0.5 * (a0 + b0)
        v1, e1 = _gk_panel(f, a0, m)
        v2, e2 = _gk_panel(f, m, b0)
        total += v1 + v2 - v0
        total_err += e1 + e2 + neg_err0
        heapq.heappush(panels, (-e1, -2 * n - 1, a0, m, v1))
        heapq.heappush(panels, (-e2, -2 * n - 2, m, b0, v2))
        n += 1
    if not total_err <= tol * max(1.0, abs(total)):     # a NaN estimate too
        raise RuntimeError(
            f"quadrature did not converge: est error {total_err:g} > tol {tol:g} "
            f"* max(1, |I|); partial value {total!r}"
        )
    return total, total_err


def fresnel_F_quadrature(k, xi, tol: float = 1e-10) -> FresnelValue:
    """F(xi; k) by adaptive Gauss-Kronrod quadrature.

    The improper tail is taken along the rotated ray tau = u / s
    (s = sqrt(-2ik), Re s > 0), on which the integrand is exactly
    exp(-u^2); it is truncated at u = -8.6 (remainder < 1e-32) and
    integrated numerically - deliberately *not* replaced by the known
    Gaussian value, so this route stays independent of the closed form.
    The remaining piece is integrated along the straight segment from
    0 to xi.
    """
    if not 1e-14 <= tol <= 1e-4:
        raise ValueError("tol out of the supported range [1e-14, 1e-4]")
    xi = complex(xi)
    k = complex(k)
    if not np.all(np.isfinite([k, xi])):
        raise ValueError("fresnel_F_quadrature requires finite k and xi")
    s = _rotation_root(k)

    tail, tail_err = _adaptive_segment(
        lambda u: np.exp(-u * u), -8.6 + 0j, 0.0 + 0j, tol / 2.0
    )
    tail /= s
    tail_err /= abs(s)

    if xi != 0:
        seg, seg_err = _adaptive_segment(
            lambda t: np.exp(2j * k * t * t), 0.0 + 0j, xi, tol / 2.0
        )
    else:
        seg, seg_err = 0.0 + 0j, 0.0
    return FresnelValue(value=tail + seg, est_abs_error=tail_err + seg_err + 1e-32)
