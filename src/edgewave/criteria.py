"""The checks behind ``edgewave verify`` and the acceptance gate.

Each function measures one claim on samples and a tolerance chosen by
the caller, and returns a :class:`Check` named after it (underscores as
hyphens); verify and the gate differ only in those arguments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bound_edge, delta_1d, green_perturbation, sommerfeld, specfun
from .geometry import chart

RAY_NEAR = 1e-3     # edge_ray_zero's nearest face sample from the tip
RAY_REACH = 30.0    # and its farthest

@dataclass(frozen=True)
class Check:
    """``value``: worst defect, lowest order (all in ``parts``) or slope."""

    name: str
    value: float
    tol: float
    ok: bool
    detail: str
    parts: tuple[float, ...] = ()


def _worst_within(name: str, defects, tol: float, label: str) -> Check:
    """worst <= tol by one numpy max over every sample: a NaN fails it."""
    worst = float(np.max(defects))
    return Check(name, worst, tol, worst <= tol,
                 f"{label} {worst:.16e} (tol {tol:.1e})")


def _slope_within(name: str, slope, want, tol: float, label: str) -> Check:
    """|slope - want| / |want| <= tol: a NaN slope fails it."""
    rel = abs(slope - want) / abs(want)
    return Check(name, slope, tol, rel <= tol,
                 f"{label} {slope:.16e} vs {want:.16e} (rel {rel:.16e}, tol {tol:.0%})")


def flux_conservation(alphas, tol: float) -> Check:
    """max | |A|^2 + |B|^2 - 1 | over p in alpha * [1e-3, 1e3] (100 points)."""
    coeffs = [delta_1d.scattering_coeffs(delta_1d.DeltaWell(alpha=alpha), p)
              for alpha in alphas for p in np.geomspace(1e-3, 1e3, 100) * alpha]
    return _worst_within("flux-conservation",
                         [abs(abs(co.A) ** 2 + abs(co.B) ** 2 - 1.0)
                          for co in coeffs], tol, "max flux defect")


def bound_pole_location(alphas, tol: float) -> Check:
    """max |pole_residue - i*alpha|: the residue of A at smatrix_pole."""
    return _worst_within(
        "bound-pole-location",
        [abs(delta_1d.pole_residue(delta_1d.DeltaWell(alpha=a)) - 1j * a)
         for a in alphas], tol, "max pole residue defect")


def fresnel_cross_validation(draws, quad_tol: float, tol: float) -> Check:
    """max |closed - quadrature| / max(1, |quadrature|) of F over (k, xi).

    A draw whose F leaves the double range or erf's domain (an
    OverflowError, as at k = 200 with |Im xi| near 1, or a ValueError, as
    at k = 1e300) fails the check with a line naming it."""
    defects = []
    for k, xi in draws:
        try:
            closed = specfun.fresnel_F(k, xi).value
        except (OverflowError, ValueError) as exc:
            return Check("fresnel-cross-validation", math.inf, tol, False,
                         f"F at k = {k!r}, xi = {xi!r}: {exc}")
        quad = specfun.fresnel_F_quadrature(k, xi, tol=quad_tol).value
        defects.append(abs(closed - quad) / max(1.0, abs(quad)))
    return _worst_within("fresnel-cross-validation", defects, tol,
                         "max scaled |closed - quadrature|")


def edge_ray_zero(k: float, a: float, tol: float) -> Check:
    """max |psi| on the barrier faces (to RAY_REACH) over max |psi| on the unit circle."""
    geom = sommerfeld.EdgeGeometry(a=a)
    X = a + np.geomspace(RAY_NEAR, RAY_REACH, 1000)
    # both faces in one call: the row y = +0.0 and the row y = -0.0
    faces = sommerfeld.field_values(k, geom, X, np.array([[0.0], [-0.0]]))
    th = np.linspace(0.1, 2 * math.pi - 0.1, 200)
    scale = np.abs(sommerfeld.field_values(
        k, geom, a + np.cos(th), np.sin(th))).max()
    return _worst_within("edge-ray-zero", np.abs(faces) / scale, tol,
                         "max ray |psi|/scale")


def stencil_residual_order(k: float, sizes, tol: float) -> Check:
    """Lowest order of the free edge's residual over n x n grids on [-3, 3]^2."""
    geom = sommerfeld.EdgeGeometry(a=0.0)
    res = []
    for n in sizes:
        h = 6.0 / (n - 1)
        grid = sommerfeld.field_on_grid(k, geom, -3.0, -3.0, h, h, n, n)
        res.append(sommerfeld.helmholtz_residual(
            grid, k, exclude_radius=0.5).l2_res)
    orders = tuple(math.log2(r0 / r1) for r0, r1 in zip(res, res[1:]))
    lowest = float(np.min(orders))
    return Check("stencil-residual-order", lowest, tol, lowest >= tol,
                 f"observed orders {', '.join(f'{o:.16e}' for o in orders)} "
                 f"(need >= {tol:g})", orders)


def coordinate_conjugation(seed: int, tol: float) -> Check:
    """max |xi - conj(eta)| at the points (r, +0.0) and (r, -0.0) on both
    faces, 100 draws of r and real lambda; for real lambda conj(eta_lam)
    is eta_{-lam}, the pair's second half."""
    draws = np.random.default_rng(seed).uniform((1e-3, -2.0), (10.0, 2.0), (100, 2))
    return _worst_within(
        "coordinate-conjugation",
        [np.abs(np.subtract(*chart(r, [0.0, -0.0], 0.0, lam)))
         for r, lam in draws], tol, "max |xi - conj(eta)|")


def guided_products(alphas, tol: float) -> Check:
    """max relative defect of kappa e^{+-lambda} = k +- alpha, both regimes
    (eps = -1: -lambda), each over |k +- alpha| so that any alpha scale
    is held to the same rounding."""
    defects = []
    for alpha, m in itertools.product(alphas, (0.5, 2.0)):
        p = bound_edge.WaveguideParams(alpha, m * alpha)
        for lam, want in ((p.lam, m * alpha + alpha), (-p.lam, m * alpha - alpha)):
            defects.append(abs(p.kappa * np.exp(lam) - want) / abs(want))
    return _worst_within("guided-products", defects, tol,
                         "max relative product defect")


def guided_tail_slope(alpha: float, tol: float) -> Check:
    """Slope of log|psi| against |x| behind the barrier; must be -alpha."""
    f = bound_edge.make_field(alpha, 0.2 * alpha)
    xs = np.linspace(-20.0 / alpha, -10.0 / alpha, 41)
    vals = bound_edge.field_values(f, xs, np.full_like(xs, 12.0 / alpha))
    slope, _ = green_perturbation.fit_log_slope(np.abs(xs), vals)
    return _slope_within("guided-tail-slope", slope, -alpha, tol, "tail slope")


def impurity_tail_slope(alpha: float, tol: float) -> Check:
    """Slope of the Born tail log|psi1| against the offset; must be -2 alpha."""
    res = green_perturbation.tail_scan(
        alpha, *green_perturbation.tail_scan_defaults(alpha))
    return _slope_within("impurity-tail-slope", res.slope, -2.0 * alpha, tol, "slope")
