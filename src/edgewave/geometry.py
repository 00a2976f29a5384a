"""One chart: the parabolic double-cover coordinates about the tip.

The physical plane carries a half-line barrier {y = 0, x >= a}.  The
chart w = sqrt((a - x) + iy) / sqrt(2) has its cut on the barrier and
unfolds the cut plane, so the two faces of the barrier become distinct
lines; the IEEE sign of a zero y picks the face, y = +0.0 the top one
and y = -0.0 the bottom one (Kahan, "Branch cuts for complex elementary
functions, or much ado about nothing's sign bit", 1987).  :func:`chart`
is the only place that makes that decision.  A complex rotation
parameter lambda turns the angle phi about the tip into
phi - i*lambda; the free edge uses lambda = 0, the guided mode the
rapidity lam of bound_edge.WaveguideParams.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PlanePoint", "chart"]


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"a plane point needs finite x and y, "
                             f"got ({self.x!r}, {self.y!r})")


def chart(x, y, a: float, lam: complex, eps=1) -> np.ndarray:
    """(xi_lam, eta_{-lam}) = (p rc + q rs, p rc - q rs) about the tip
    (a, 0), stacked as one array of shape (2,) + the broadcast shape.

    With u = x - a and r = |(u, y)| the chart is w = rs + i rc, |rc| =
    sqrt(r + u)/2 and rs = sqrt(r - u)/2, with rc rs = |y|/4: the half
    that does not cancel is taken directly, the other as |y|/4 over it
    (Kahan's stable square root), and rc carries y's sign bit.  Both are
    formed from u/16 and y/16, so every finite point and tip give a
    finite pair; the tip itself gives (0, 0).  On both faces rs = 0, so xi_lam = eta_{-lam}
    exactly for every lam.  At lam = 0 the pair is the real chart
    (rc + rs, rc - rs), a real array, with y = xi^2 - eta^2 and
    x - a = 2 xi eta.  Else (p, q) = (cosh(lam/2) -/+ i sinh(lam/2)): with
    A = (phi - i*lam)/2 the rotated chart sqrt(r/2) (cos A + sin A,
    cos A - sin A) is (p c + q s, q c - p s) in c, s = cos, sin of phi/2,
    and negating lam swaps p and q, which gives eta_{-lam}; for real lam
    it is conj(eta_lam).  A sign eps = +-1 per point (or one for all)
    multiplies i sinh(lam/2): the rotation by eps*lam bit for bit, as
    cosh is even and sinh odd.
    """
    u = np.asarray(x, dtype=float) * 0.0625 - 0.0625 * a
    v = np.asarray(y, dtype=float) * 0.0625
    # t is 0 only at the tip, where v is 0 too, and else above 1e-162
    t = np.sqrt(np.hypot(u, v) + np.abs(u))
    big, small = 2.0 * t, 2.0 * np.abs(v) / np.maximum(t, 5e-324)
    left = u < 0.0
    rc = np.copysign(np.where(left, small, big), v)
    rs = np.where(left, big, small)
    if lam:
        ch, ish = cmath.cosh(0.5 * lam), eps * (1j * cmath.sinh(0.5 * lam))
        rc, rs = (ch - ish) * rc, (ch + ish) * rs
    return np.stack((rc + rs, rc - rs))
