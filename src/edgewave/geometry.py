"""One chart: polar and parabolic double-cover coordinates about the tip.

The physical plane carries a half-line barrier {y = 0, x >= a}.  Writing
z = y + i(x - a) = w^2 unfolds the cut plane into the w = xi + i*eta
plane, where the two faces of the barrier become genuinely distinct
lines.  The polar angle phi about the tip (:func:`polar`) runs over the
closed interval [0, 2pi], with phi = 0 (approach from y > 0) and
phi = 2pi (approach from y < 0) kept as distinct sheets of the same ray.
On the ray the IEEE sign of the zero in y picks the face: y = +0.0 is
the top face, y = -0.0 the bottom one.  This module is the only place
that makes that decision.

The rotated chart (:func:`rotated_pair`) takes phi to phi - i*lambda with
a complex rotation parameter lambda:

    xi  = sqrt(r/2) (cos A + sin A),  eta = sqrt(r/2) (cos A - sin A),
    A   = (phi - i*lambda) / 2,

so that y = xi^2 - eta^2 and x - a = 2 xi eta at lambda = 0, the real
chart.  The free edge uses lambda = 0; the guided mode uses the
rapidity of bound_edge.kappa_lambda.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlanePoint",
    "polar",
    "rotated_pair",
]


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"a plane point needs finite x and y, "
                             f"got ({self.x!r}, {self.y!r})")


def polar(X, Y, a: float = 0.0):
    """Polar coordinates (r, phi) about the tip (a, 0), phi in [0, 2pi].

    np.signbit (not `< 0`) promotes the angle -0.0 of a point on the ray
    with y = -0.0 to the lower sheet phi = 2pi, so the two faces of the
    ray stay distinct.  The tip itself gives r = 0.
    """
    U = np.asarray(X, dtype=float) - a
    V = np.asarray(Y, dtype=float)
    phi = np.arctan2(V, U)
    return np.hypot(U, V), np.where(np.signbit(phi), phi + 2.0 * math.pi, phi)


def rotated_pair(r, phi, lam: complex) -> np.ndarray:
    """(xi_lam, eta_{-lam}) = (p rc + q rs, p rc - q rs) for arrays of (r, phi),
    stacked as one complex array of shape (2,) + r's shape.

    rc, rs = sqrt(r/2) (cos(phi/2), sin(phi/2)) are the real halves of
    the chart and (p, q) = (cosh(lam/2) - i sinh(lam/2), cosh(lam/2) +
    i sinh(lam/2)).  With A = (phi - i*lam)/2 and c, s the cos and sin of
    phi/2, cos A + sin A = p c + q s and cos A - sin A = q c - p s, so
    the rotated chart needs no trigonometry on arrays beyond the real
    one; negating lam swaps p and q, which gives eta_{-lam}.  This is
    the pair the two-term field takes.  On both faces of the ray (rs = 0)
    xi_lam = eta_{-lam} for every lam, and for real lam eta_{-lam} is
    conj(eta_lam).  At lam = 0 it is the real chart (rc + rs, rc - rs).
    """
    half = 0.5 * np.asarray(phi)
    root = np.sqrt(np.asarray(r) / 2.0)
    rc, rs = root * np.cos(half), root * np.sin(half)
    ch, sh = cmath.cosh(0.5 * lam), cmath.sinh(0.5 * lam)
    p, q = ch - 1j * sh, ch + 1j * sh
    prc, qrs = p * rc, q * rs
    return np.stack((prc + qrs, prc - qrs))
