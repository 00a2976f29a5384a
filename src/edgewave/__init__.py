"""Exact and numerical fields for a delta-line waveguide meeting an
impenetrable half-line barrier: special functions, closed forms, a Born
tail scan, and a finite-difference oracle."""

__version__ = "0.1.0"

from .delta_1d import DeltaWell, psi0, scattering_coeffs, smatrix_pole
from .geometry import PlanePoint
from .sommerfeld import EdgeGeometry, field_on_grid, helmholtz_residual
from .specfun import erf_cx, fresnel_F, fresnel_F_quadrature
from .bound_edge import make_field, delta_jump_check
from .green_perturbation import born_correction, green_eval, make_green, tail_scan

__all__ = [
    "DeltaWell", "psi0", "scattering_coeffs", "smatrix_pole",
    "PlanePoint",
    "EdgeGeometry", "field_on_grid", "helmholtz_residual",
    "erf_cx", "fresnel_F", "fresnel_F_quadrature",
    "make_field", "delta_jump_check",
    "born_correction", "green_eval", "make_green", "tail_scan",
    "__version__",
]
