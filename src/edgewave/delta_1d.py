"""Spectrum of the 1D attractive delta well -d^2/dx^2 - 2*alpha*delta(x).

The well is parametrized by the decay rate alpha of its single bound
state exp(-alpha|x|) (energy -alpha^2).  The matching condition
psi'(0+) - psi'(0-) = -g psi(0) then fixes the delta strength g = 2*alpha,
which is the convention used throughout this package: a potential column
of strength 2*alpha/dx in the finite-difference oracle, and the same
factor in the jump-defect diagnostics.

Scattering states at momentum p carry the amplitude pair
    A = i*alpha / (p - i*alpha)   (scattered, exp(-ipx) side)
    B = p / (p - i*alpha)         (transmitted, exp(ipx) side)
whose common denominator has a simple pole at p = i*alpha - the bound
state showing up as a pole of the scattering amplitudes on the positive
imaginary momentum axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeltaWell",
    "ScatteringCoefficients",
    "psi0",
    "scattering_coeffs",
    "smatrix_pole",
    "pole_residue",
]

_CONTOUR_NODES = 256


@dataclass(frozen=True)
class DeltaWell:
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ScatteringCoefficients:
    p: float
    A: complex
    B: complex


def psi0(well: DeltaWell, x) -> float:
    """Bound-state wave function exp(-alpha |x|) (unnormalized, psi0(0)=1)."""
    return np.exp(-well.alpha * np.abs(x))


def scattering_coeffs(well: DeltaWell, p: float) -> ScatteringCoefficients:
    """Amplitude pair (A, B) at real momentum p > 0."""
    if not 0 < p < math.inf:
        raise ValueError(f"continuum states require a finite p > 0, got {p}")
    return ScatteringCoefficients(p, *_amplitudes(well.alpha, p))


def _amplitudes(alpha: float, p):
    """(A, B) at real or complex momentum p, over the denominator p - i*alpha."""
    denom = p - 1j * alpha
    return 1j * alpha / denom, p / denom


def smatrix_pole(well: DeltaWell) -> complex:
    """Zero p = i*alpha of the common amplitude denominator p - i*alpha."""
    return 1j * well.alpha


def pole_residue(well: DeltaWell) -> complex:
    """Residue of A(p) at the pole, by a trapezoid contour integral.

    The circle of radius alpha/2 about i*alpha keeps the mirror point
    -i*alpha, where a flipped denominator would put the pole, outside at
    four radii.  The trapezoid rule on a circle converges spectrally for
    analytic integrands, so 256 nodes give machine accuracy here.
    Expected value: residue of A = i*alpha/(p - i*alpha) at p = i*alpha,
    i.e. i*alpha.
    """
    pole = smatrix_pole(well)
    radius = 0.5 * well.alpha
    th = 2.0 * math.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES
    z = pole + radius * np.exp(1j * th)
    a_vals, _ = _amplitudes(well.alpha, z)
    # (1/2pi i) * contour integral of A dp
    dz = 1j * radius * np.exp(1j * th) * (2.0 * math.pi / _CONTOUR_NODES)
    return complex(np.sum(a_vals * dz) / (2j * math.pi))
