"""Rectangular complex-field grids and their CSV exchange format.

The grid is the common currency between the analytic field evaluators,
the stencil-residual checks, and the finite-difference solver.  Values
are stored row-major by y then x (``values[j, i]`` sits at
``(x0 + i*dx, y0 + j*dy)``), which matches the CSV ordering.

:func:`read_csv` accepts only what :func:`write_csv` can have written:
a header and rows of four numbers that repeat one x axis in every row
at a constant y, with finite, strictly increasing and uniformly spaced
x and y.  Anything else raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# node classification tags
INTERIOR = 0
EDGE = 1
DELTA_LINE = 2
OUTER = 3

_ALIGN_TOL = 1e-12


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a uniform rectangular lattice.

    Attributes
    ----------
    x0, y0 : float
        Coordinates of the first node (south-west corner).
    dx, dy : float
        Node spacings, both > 0.
    nx, ny : int
        Node counts along x and y.
    values : ndarray, shape (ny, nx), complex
    mask : ndarray, shape (ny, nx), uint8
        Per-node tag: INTERIOR, EDGE (on the barrier ray), DELTA_LINE
        (on the waveguide axis x = 0) or OUTER (outermost frame).
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacings must be positive")
        if self.values.shape != (self.ny, self.nx):
            raise ValueError("values must have shape (ny, nx)")
        if self.mask.shape != (self.ny, self.nx):
            raise ValueError("mask must have shape (ny, nx)")

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshes(self):
        """Return (X, Y) coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.xs(), self.ys())


def aligned_index(value: float, origin: float, step: float) -> int:
    """Index of the grid line passing through ``value``, or raise.

    The caller guarantees alignment by construction; a residual larger
    than a few ulp means the requested feature (barrier ray, waveguide
    axis) would fall between grid lines, which the solver cannot honor.
    """
    t = (value - origin) / step
    i = int(round(t))
    if abs(t - i) > _ALIGN_TOL * max(1.0, abs(t)) + _ALIGN_TOL:
        raise ValueError(
            f"coordinate {value!r} is not grid-aligned (origin {origin!r}, step {step!r})"
        )
    return i


def build_mask(x0, y0, dx, dy, nx, ny, edge_a=None, delta_line=False) -> np.ndarray:
    """Classify grid nodes.

    ``edge_a`` is the tip abscissa of the barrier ray {y = 0, x >= a};
    ``None`` means no barrier.  ``delta_line`` marks the x = 0 column.
    The outermost frame is tagged OUTER; EDGE wins over DELTA_LINE at
    the crossing node.
    """
    mask = np.full((ny, nx), INTERIOR, dtype=np.uint8)
    mask[0, :] = OUTER
    mask[-1, :] = OUTER
    mask[:, 0] = OUTER
    mask[:, -1] = OUTER
    xs = x0 + dx * np.arange(nx)
    ys = y0 + dy * np.arange(ny)
    if delta_line and xs[0] < 0.0 < xs[-1]:
        i0 = aligned_index(0.0, x0, dx)
        col = mask[:, i0]
        col[col == INTERIOR] = DELTA_LINE
    if edge_a is not None and ys[0] <= 0.0 <= ys[-1]:
        j0 = aligned_index(0.0, y0, dy)
        # a tip left of the grid means the ray covers the whole row
        ia = 0 if edge_a <= xs[0] else aligned_index(edge_a, x0, dx)
        row = mask[j0, ia:]
        row[row != OUTER] = EDGE
    return mask


def _fmt(v: float) -> str:
    # 17 significant digits: round-trips double precision exactly
    return f"{v:.16e}"


def write_csv(grid: FieldGrid, path) -> None:
    """Write ``x,y,re,im`` rows, row-major by y then x.

    The bytes are a fixed format: the header ``x,y,re,im``, then one
    line per node holding all four numbers as ``"%.16e"`` (17
    significant digits, so doubles round-trip exactly; -0.0, ``inf``,
    ``-inf`` and ``nan`` spelled as Python formats them), each line
    ending in ``\n``.  Each grid row is formatted by one ``%`` template
    and written with one call, so memory stays at one row.
    """
    # tail.join(heads) puts each row's y and value slots after every x
    heads = [_fmt(x) + "," for x in grid.xs()] + [""]
    pairs = np.empty((grid.nx, 2))
    with open(path, "w") as fh:
        fh.write("x,y,re,im\n")
        for y, row in zip(grid.ys(), grid.values):
            tail = _fmt(y) + ",%.16e,%.16e\n"
            pairs[:, 0] = row.real
            pairs[:, 1] = row.imag
            fh.write(tail.join(heads) % tuple(pairs.ravel().tolist()))


def _check_axis(v: np.ndarray, name: str) -> None:
    """Raise unless ``v`` is finite, strictly increasing and uniformly spaced.

    Nodes are compared with the chord through the end nodes.  The
    tolerance, 16 eps * max|v|, covers the rounding of ``x0 + dx*i`` in
    the writer and of the chord (about 7 eps * max|v| at worst).
    """
    if not np.isfinite(v).all():
        raise ValueError(f"CSV {name} values must be finite")
    if v.size < 2:
        return
    if not (np.diff(v) > 0).all():
        raise ValueError(f"CSV {name} values are not strictly increasing")
    chord = v[0] + (v[-1] - v[0]) * (np.arange(v.size) / (v.size - 1))
    if np.abs(v - chord).max() > 16 * np.finfo(float).eps * np.abs(v).max():
        raise ValueError(f"CSV {name} values are not uniformly spaced")


def read_csv(path) -> FieldGrid:
    """Reconstruct a FieldGrid from the CSV written by :func:`write_csv`.

    Raises ``ValueError`` unless the rows describe a full uniform grid
    in the writer's order.  The mask is not stored in the CSV; it is
    rebuilt as all-INTERIOR with the OUTER frame, which is enough for
    round-trip checks.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != 4:
        raise ValueError("CSV must hold x,y,re,im rows below its header")
    # nx is the first run of equal y (a nan y0 gives nx = 1, caught below)
    breaks = np.flatnonzero(data[1:, 1] != data[0, 1])
    nx = int(breaks[0]) + 1 if breaks.size else data.shape[0]
    ny, rest = divmod(data.shape[0], nx)
    if rest:
        raise ValueError("CSV does not describe a full rectangular grid")
    X = data[:, 0].reshape(ny, nx)
    Y = data[:, 1].reshape(ny, nx)
    xs, ys = X[0], Y[:, 0]
    if not ((X == xs).all() and (Y == ys[:, None]).all()):
        raise ValueError("CSV rows must repeat one x axis at constant y")
    _check_axis(xs, "x")
    _check_axis(ys, "y")
    values = np.ascontiguousarray(data[:, 2:]).view(complex).reshape(ny, nx)
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    mask = build_mask(xs[0], ys[0], dx, dy, nx, ny)
    return FieldGrid(
        x0=float(xs[0]), y0=float(ys[0]), dx=float(dx), dy=float(dy),
        nx=nx, ny=ny, values=values, mask=mask,
    )
