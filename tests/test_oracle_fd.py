"""Finite-difference oracle: assembly, convergence, and the frozen
comparison numbers for the closed forms."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dst
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from edgewave import bound_edge as be
from edgewave import oracle_fd as ofd
from edgewave import sommerfeld
from edgewave.grid import (DELTA_LINE, EDGE, FieldGrid, INTERIOR, OUTER,
                           build_mask, dilate)


def _matrix(sys):
    return coo_matrix((sys.vals, (sys.rows, sys.cols)),
                      shape=(sys.n, sys.n)).tocsr()


def test_interior_rows_annihilate_constants_up_to_E():
    p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                      E=2.0, alpha=1.0, edge_a=0.0)
    sys = ofd.assemble(p)
    row_sums = np.asarray(_matrix(sys) @ np.ones(sys.n, dtype=complex))
    flat = sys.mask.ravel()
    assert np.abs(row_sums[flat == INTERIOR] - 2.0).max() < 1e-10
    assert np.abs(row_sums[flat == DELTA_LINE] - (2.0 + 2.0 / 0.25)).max() < 1e-10


def test_problem_validation():
    with pytest.raises(ValueError):
        ofd.FdProblem(x0=0, y0=0, dx=0.5, dy=0.5, nx=9, ny=9, E=9.0)  # coarse
    with pytest.raises(ValueError):
        ofd.FdProblem(x0=0, y0=0, dx=0.1, dy=0.1, nx=2, ny=9, E=1.0)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        ofd.FdProblem(x0=0, y0=0, dx=0.1, dy=0.1, nx=9, ny=9, E=1.0, alpha=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        # sqrt(|E|)*dx = 0.02 passes; alpha*dx = 0.6 does not
        ofd.FdProblem(x0=0, y0=0, dx=0.03, dy=0.03, nx=9, ny=9,
                      E=19.99 ** 2 - 400.0, alpha=20.0)
    # the operator is real: complex or non-finite parameters never
    # reach the assembly
    good = dict(x0=0, y0=0, dx=0.1, dy=0.1, nx=9, ny=9, E=1.0)
    for name, bad in (("E", 1.0 + 0j), ("E", np.complex128(1.0)),
                      ("E", math.nan), ("E", -math.inf), ("alpha", math.inf),
                      ("alpha", math.nan), ("dx", math.nan), ("dy", math.inf)):
        with pytest.raises(ValueError, match=name):
            ofd.FdProblem(**{**good, name: bad})
    # nodes that coincide as doubles: 1e17 + 0.1 i rounds to 1e17
    for axis in ("x", "y"):
        with pytest.raises(ValueError, match=f"the {axis} nodes"):
            ofd.FdProblem(**{**good, f"{axis}0": 1e17})
    # misaligned barrier tip
    p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                      E=1.0, edge_a=0.13)
    with pytest.raises(ValueError):
        ofd.assemble(p)


def test_identity_rows_return_boundary_data():
    # frame rows are plain identities: the solve must reproduce the
    # sampler there to solver precision
    p = ofd.FdProblem(x0=0.0, y0=0.0, dx=0.1, dy=0.1, nx=4, ny=3, E=1.0,
                      boundary=lambda X, Y: X + 2j * Y)
    grid = ofd.solve(ofd.assemble(p))
    X, Y = grid.meshes()
    frame = grid.mask == OUTER
    assert frame.sum() == 10           # 3x4 grid has two interior nodes
    assert np.abs((grid.values - (X + 2j * Y))[frame]).max() < 1e-12


def test_boundary_sampled_once_on_the_frame():
    calls = []

    def sampler(X, Y):
        calls.append(X.shape)
        return X + 2j * Y

    p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                      E=1.0, alpha=1.0, edge_a=0.0, boundary=sampler)
    sys = ofd.assemble(p)
    frame = sys.mask == OUTER
    assert calls == [(int(frame.sum()),)]
    X, Y = np.meshgrid(-1.0 + 0.25 * np.arange(9), -1.0 + 0.25 * np.arange(9))
    assert np.array_equal(sys.rhs.reshape(9, 9)[frame], (X + 2j * Y)[frame])


# the ids name the barrier condition, Dirichlet, the one the oracle solves
@pytest.mark.parametrize("alpha", [0.0, 1.0],
                         ids=["0.0-dirichlet", "1.0-dirichlet"])
def test_assemble_fills_int32_triplets_in_order(alpha):
    nx, ny = 13, 11
    p = ofd.FdProblem(x0=-1.5, y0=-1.25, dx=0.25, dy=0.25, nx=nx, ny=ny,
                      E=1.0, alpha=alpha, edge_a=0.0)
    sys = ofd.assemble(p)
    assert sys.rows.dtype == sys.cols.dtype == np.int32
    assert sys.vals.dtype == np.float64
    node = np.arange(nx * ny).reshape(ny, nx)
    cen = node[(sys.mask == INTERIOR) | (sys.mask == DELTA_LINE)]
    outer, edge = node[sys.mask == OUTER], node[sys.mask == EDGE]
    assert (sys.mask == DELTA_LINE).any() == (alpha != 0.0)
    assert edge.size == 6
    # centre, x-1, x+1, y-1, y+1, frame, then edge
    want_rows = [cen] * 5 + [outer, edge]
    want_cols = [cen, cen - 1, cen + 1, cen - nx, cen + nx, outer, edge]
    assert sys.vals.size == 5 * cen.size + outer.size + edge.size
    assert np.array_equal(sys.rows, np.concatenate(want_rows))
    assert np.array_equal(sys.cols, np.concatenate(want_cols))


def test_assemble_refuses_2_31_nodes_before_allocating():
    # 46341^2 = 2**31 + 4633 node numbers do not fit in int32
    p = ofd.FdProblem(x0=0.0, y0=0.0, dx=0.01, dy=0.01, nx=46341, ny=46341,
                      E=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*31"):
            ofd.assemble(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _guided_peak_per_unknown():
    # traced peak of assemble + solve of the 29,141-unknown guided system
    ofd.solve_guided_scatter(1.0, 0.5, 2.5)        # warm the caches
    tracemalloc.start()
    try:
        xs, ys, _, _ = ofd.solve_guided_scatter(1.0, 0.5, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = xs.size * ys.size
    assert n == 29141
    return peak / n


def test_guided_solve_memory_per_unknown():
    # int32 triplets filled in place and residuals on the float view of x
    # keep the traced peak near 200 B per unknown (it was 322)
    assert _guided_peak_per_unknown() <= 224


def test_box_solve_transforms_the_residual_in_place():
    # the first sine transform of each box solve writes into the residual
    # that solve() discards, not into a new complex array: 182 B per
    # unknown measured, 198 with the copy
    assert _guided_peak_per_unknown() <= 192


def test_box_solve_forms_no_full_size_products():
    # the delta column's Sherman-Morrison correction and the capacitance
    # sources act on the x-mode coefficients in row blocks, with no
    # stored W, and each residual is dropped before the next is formed:
    # 155 B per unknown measured, 182 with W and its full-size products
    assert _guided_peak_per_unknown() <= 164


def test_import_defers_the_solver_scipy_modules_to_first_use():
    # importing the oracle loads none of scipy.fft, scipy.linalg and
    # scipy.sparse; a solve with a barrier and a delta column and one
    # discrete_mode call load scipy.fft and scipy.sparse and never
    # scipy.linalg: the capacitance solve is numpy's and the transverse
    # mode a secular root, not an eigensolver
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from edgewave import oracle_fd as ofd
        from edgewave.grid import DELTA_LINE, EDGE
        mods = ("scipy.fft", "scipy.linalg", "scipy.sparse")
        print([m for m in mods if m in sys.modules])
        p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                          E=-0.75, alpha=1.0, edge_a=0.0,
                          boundary=lambda X, Y: np.cos(X + Y))
        system = ofd.assemble(p)
        assert {DELTA_LINE, EDGE} <= set(system.mask.ravel().tolist())
        ofd.solve(system)
        ofd.discrete_mode(1.0, np.linspace(-1.0, 1.0, 9))
        print([m for m in mods if m in sys.modules])
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(ofd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "['scipy.fft', 'scipy.sparse']"]


def _reduced_vs_full(p):
    # reference: the unreduced system solved in complex arithmetic
    sys = ofd.assemble(p)
    assert sys.vals.dtype == np.float64
    grid = ofd.solve(sys)
    ref = spsolve(_matrix(sys).astype(complex).tocsc(), sys.rhs)
    x = grid.values.ravel()
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    return grid


def test_reduced_solve_matches_full_system_dirichlet():
    # small 6c-like grid: barrier from the tip on the delta line
    alpha, k = 1.0, 0.5
    f = be.make_field(alpha, k)
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61,
                      E=k * k - alpha * alpha, alpha=alpha, edge_a=0.0,
                      boundary=lambda X, Y: be.field_values(f, X, Y))
    grid = _reduced_vs_full(p)
    edge = grid.mask == EDGE
    assert edge.any()
    assert np.all(grid.values[edge] == 0.0)


def test_reduced_solve_matches_full_system_without_barrier():
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61,
                      E=0.25 - 1.0, alpha=1.0,
                      boundary=lambda X, Y: np.exp(-np.abs(X) + 0.5j * Y))
    grid = _reduced_vs_full(p)
    assert not (grid.mask == EDGE).any()


@pytest.mark.parametrize("edge_a,alpha", [(0.0, 1.0), (None, 1.0)],
                         ids=["dirichlet-0.0-1.0", "dirichlet-None-1.0"])
def test_reduced_solve_matches_full_system_with_complex_forcing(edge_a, alpha):
    # Re and Im of the right-hand side are both nonzero inside the grid,
    # so the two real solves are each exercised there
    px, py, E = 0.7, 1.1, 2.3

    def exact(X, Y):
        return np.exp(1j * (px * X + py * Y))

    def forcing(X, Y):
        return (E - px * px - py * py) * exact(X, Y) + (0.3 - 0.8j) * X * Y

    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61, E=E,
                      alpha=alpha, edge_a=edge_a,
                      boundary=exact, forcing=forcing)
    sys = ofd.assemble(p)
    inside = sys.rhs[sys.mask.ravel() != OUTER]
    assert np.abs(inside.real).max() > 0.5 and np.abs(inside.imag).max() > 0.5
    _reduced_vs_full(p)


_STRUCTURE_BOX = dict(x0=-1.0, y0=-1.0, dx=0.1, dy=0.1, nx=21, ny=21,
                      E=2.0, alpha=1.0, edge_a=0.3)


@pytest.mark.parametrize("change", [
    dict(y0=-1.9),                         # barrier row below the top frame
    dict(edge_a=-5.0),                     # tip left of the grid: whole row
    dict(dy=0.07, y0=-0.7),                # dx != dy
    dict(alpha=0.0),                       # no delta line
    dict(edge_a=0.0),                      # tip on the delta line
    dict(edge_a=-0.4),                     # delta line crosses the barrier
    dict(nx=4, ny=3, x0=-0.1, y0=-0.1, edge_a=0.1),
    dict(nx=3, ny=3, x0=-0.1, y0=-0.1, edge_a=0.0),
], ids=[f"{name}-dirichlet" for name in (
    "top-row", "whole-row", "dx-ne-dy", "no-delta", "tip-on-delta",
    "delta-crosses", "4x3", "3x3")])
def test_fast_solve_matches_full_system_structure(change):
    # the capacitance rows, the delta column and the box transforms meet
    # every placement of the barrier row and the axis
    p = ofd.FdProblem(**{**_STRUCTURE_BOX, **change},
                      boundary=lambda X, Y: np.exp(1j * (0.7 * X + 1.1 * Y)),
                      forcing=lambda X, Y: (0.3 - 0.8j) * X * Y + 1.0)
    grid = _reduced_vs_full(p)
    j, i = np.nonzero(grid.mask == EDGE)
    assert j.size
    assert np.all(grid.values[j, i] == 0.0)


def test_near_resonance_gate_names_the_box_spectrum():
    # the fast solve inverts the barrier-free box; within 1e-12 of its
    # (3, 3) eigenvalue the gate fails and says how close E is to it,
    # while 1e-9 away the solve passes
    n = 141
    h = 6.0 / (n - 1)
    e33 = 2.0 * (2.0 - 2.0 * math.cos(3.0 * math.pi / (n - 1))) / h ** 2
    assert e33 == pytest.approx(4.9329, abs=1e-4)

    def problem(rel):
        return ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=n, ny=n,
                             E=e33 * (1.0 + rel), edge_a=0.0,
                             boundary=lambda X, Y: np.exp(1j * (X + 2.0 * Y)))

    with pytest.raises(RuntimeError, match=r"min\|mu\+lam\|/max\|mu\+lam\|"):
        ofd.solve(ofd.assemble(problem(1e-12)))
    ofd.solve(ofd.assemble(problem(1e-9)))


def test_near_resonance_gate_names_the_delta_column():
    # the same gate with the delta column: E on an eigenvalue of the
    # barrier-free box with its delta column, found apart from the solver
    # (eigvalsh_tridiagonal on T_x, the analytic y eigenvalue), fails at
    # 1e-12 and names min|1 + c W|; 1e-9 away the solve passes
    n, alpha = 141, 1.0
    h = 6.0 / (n - 1)
    diag = np.full(n - 2, -2.0 / h ** 2)
    diag[(n - 3) // 2] += 2.0 * alpha / h          # the x = 0 column
    nu = eigvalsh_tridiagonal(diag, np.full(n - 3, 1.0 / h ** 2))
    mu3 = -4.0 / h ** 2 * math.sin(3.0 * math.pi / (2.0 * (n - 1))) ** 2
    e = -(nu[-1] + mu3)                            # guided x-mode, y-mode 3
    assert e == pytest.approx(1.4771, abs=1e-4)

    def problem(rel):
        return ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=n, ny=n,
                             E=e * (1.0 + rel), alpha=alpha, edge_a=0.0,
                             boundary=lambda X, Y: np.exp(1j * (X + 2.0 * Y)))

    with pytest.raises(RuntimeError, match=r"min\|1 \+ c W\| of its delta "
                                           r"column [0-9.]+e-1[0-9]"):
        ofd.solve(ofd.assemble(problem(1e-12)))
    ofd.solve(ofd.assemble(problem(1e-9)))


def test_refinement_stops_once_the_gate_holds(monkeypatch):
    # each step solves the box on the last residual; on the Sommerfeld
    # box one box solve meets the 1e-10 ||rhs|| gate at 101^2 (1.4e-12),
    # at 601^2 it does not (1.2e-10) and the second step does (6.5e-11)
    solves = []
    box_solver = ofd._box_solver

    def counting(s, edge):
        box_solve, spectrum = box_solver(s, edge)

        def counted(f):
            solves.append(s.n)
            return box_solve(f)
        return counted, spectrum

    monkeypatch.setattr(ofd, "_box_solver", counting)
    k, g = 2.0, sommerfeld.EdgeGeometry(a=0.0)
    for n, want in ((101, 1), (601, 2)):
        h = 6.0 / (n - 1)
        p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=n, ny=n,
                          E=k * k, edge_a=0.0,
                          boundary=lambda X, Y: sommerfeld.field_values(k, g, X, Y))
        sys = ofd.assemble(p)
        solves.clear()
        grid = ofd.solve(sys)
        assert len(solves) == want, n
        res = np.linalg.norm(_matrix(sys) @ grid.values.ravel() - sys.rhs)
        assert res <= 1e-10 * np.linalg.norm(sys.rhs)


def test_gate_ties_the_fast_solve_to_the_assembled_operator():
    # the fast solve builds its operator from the problem, not from the
    # assembled entries; the x+1 coupling of one node just above the
    # barrier halved in A alone is caught by the residual gate
    g = sommerfeld.EdgeGeometry(a=0.0)
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61,
                      E=4.0, edge_a=0.0,
                      boundary=lambda X, Y: sommerfeld.field_values(2.0, g, X, Y))
    sys = ofd.assemble(p)
    ofd.solve(sys)
    edge = np.flatnonzero(sys.mask.ravel() == EDGE)
    above = edge[edge.size // 2] + p.nx
    link = np.flatnonzero((sys.rows == above) & (sys.cols == above + 1))
    assert link.size == 1 and sys.vals[link[0]] == 1.0 / p.dx ** 2
    vals = sys.vals.copy()
    vals[link] *= 0.5
    with pytest.raises(RuntimeError, match="exceeds"):
        ofd.solve(dataclasses.replace(sys, vals=vals))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 179])
def test_sine_basis_is_symmetric_orthogonal_and_folds(m):
    # the orthonormal DST-I of the unit vectors is the dense sine matrix
    # S[k, j] = sqrt(2/(m+1)) sin(pi (k+1)(j+1)/(m+1)), the product
    # reduced mod 2(m+1) to keep the sine argument small
    k = np.arange(1, m + 1)
    S = math.sqrt(2.0 / (m + 1)) * np.sin(
        np.pi * (np.outer(k, k) % (2 * (m + 1))) / (m + 1))
    D = dst(np.eye(m), type=1, norm="ortho")
    assert np.abs(D - S).max() < 1e-15
    assert np.array_equal(ofd._sine_rows(m, np.arange(m)), D)
    # the formula's row m, sin(pi (k+1)) = 0, comes back as zero
    assert not ofd._sine_rows(m, [m]).any()
    # S is its own inverse, and complex input is split into its parts
    assert np.abs(dst(D, type=1, norm="ortho") - np.eye(m)).max() < 1e-14
    X = np.random.default_rng(m).standard_normal((2, m, m + 3))
    Z = X[0] + 1j * X[1]
    for axis in (0, 1):
        got = dst(Z, type=1, norm="ortho", axis=axis)
        assert np.array_equal(
            got, dst(X[0], type=1, norm="ortho", axis=axis)
            + 1j * dst(X[1], type=1, norm="ortho", axis=axis))
    # the eigenvalues of the second difference, -4 sin^2 / h^2, match a
    # dense eigensolver
    lap = -2.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
    assert np.abs(np.sort(ofd._second_difference_eigs(m, 1.0))
                  - np.linalg.eigvalsh(lap)).max() < 1e-13


def test_solve_rejects_non_finite_rhs():
    def nan_right(X, Y):
        return np.where(X > 0.5, np.nan, 1.0 + 0j)

    for data in (dict(boundary=nan_right), dict(forcing=nan_right)):
        p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                          E=1.0, **data)
        with pytest.raises(ValueError, match="non-finite"):
            ofd.solve(ofd.assemble(p))


def test_solve_rejects_non_finite_coefficients():
    # the error names the cause wherever the bad entry sits: the first
    # stored entry (row 10, interior), the pinned row 0, the centre row 40
    p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                      E=1.0, boundary=lambda X, Y: np.exp(1j * (X + Y)))
    sys = ofd.assemble(p)
    tag = sys.mask.ravel()
    assert sys.rows[0] == 10 and tag[10] == INTERIOR
    assert tag[0] == OUTER and tag[40] == INTERIOR
    for idx in (0, np.flatnonzero(sys.rows == 0)[0],
                np.flatnonzero(sys.rows == 40)[0]):
        for bad in (np.nan, np.inf):
            vals = sys.vals.copy()
            vals[idx] = bad
            with pytest.raises(ValueError, match="coefficients"):
                ofd.solve(dataclasses.replace(sys, vals=vals))


def test_solve_rejects_non_finite_residual():
    # finite data of size 1e308 overflows in the solve; the gate must
    # raise instead of returning the non-finite solution
    p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                      E=1.0, boundary=lambda X, Y: 1e308 * np.exp(1j * (X + Y)))
    sys = ofd.assemble(p)
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="residual"):
        ofd.solve(sys)


def test_manufactured_solution_second_order():
    # smooth plane wave, no delta, no barrier: halving dx must shrink
    # the error by about 4
    px, py, E = 0.7, 1.1, 2.3

    def exact(X, Y):
        return np.exp(1j * (px * X + py * Y))

    def forcing(X, Y):
        return (E - px * px - py * py) * exact(X, Y)

    errs = []
    for n in (41, 81, 161):
        h = 1.0 / (n - 1)
        p = ofd.FdProblem(x0=0.0, y0=0.0, dx=h, dy=h, nx=n, ny=n, E=E,
                          boundary=exact, forcing=forcing)
        grid = ofd.solve(ofd.assemble(p))
        X, Y = grid.meshes()
        errs.append(float(np.abs(grid.values - exact(X, Y)).max()))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_dirichlet_edge_rows_vanish():
    # the barrier rows are homogeneous identities, and the solve sets
    # the Dirichlet EDGE nodes to their pinned value, so the barrier is zero
    g = sommerfeld.EdgeGeometry(a=0.0)
    p = ofd.FdProblem(x0=-2.0, y0=-2.0, dx=0.1, dy=0.1, nx=41, ny=41,
                      E=4.0, edge_a=0.0,
                      boundary=lambda X, Y: sommerfeld.field_values(2.0, g, X, Y))
    grid = ofd.solve(ofd.assemble(p))
    assert np.abs(grid.values[grid.mask == EDGE]).max() < 1e-12


def test_free_field_compare_frozen():
    # barrier diffraction at E = k^2, analytic frame data: the measured
    # discrepancy is dominated by O(dx) cut effects near the ray
    k = 2.0
    g = sommerfeld.EdgeGeometry(a=0.0)
    h = 6.0 / 200
    ana = sommerfeld.field_on_grid(k, g, -3.0, -3.0, h, h, 201, 201)
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=201, ny=201,
                      E=k * k, edge_a=0.0,
                      boundary=lambda X, Y: sommerfeld.field_values(k, g, X, Y))
    fd = ofd.solve(ofd.assemble(p))
    rep = ofd.compare(ana, fd, E=k * k)
    assert rep["l2_rel"] <= 0.02
    assert rep["l2_rel"] == pytest.approx(0.0057, abs=5e-4)
    assert set(rep) >= {"l2_rel", "max_rel", "dx", "dy", "E", "quadrants"}


def test_oracle_converges_under_refinement():
    # frozen sequence 1.138e-2 / 5.717e-3 / 2.928e-3: first order, the
    # signature of the tip and cut discretization
    k = 2.0
    g = sommerfeld.EdgeGeometry(a=0.0)
    frozen = (1.1379e-2, 5.7172e-3, 2.9284e-3)
    got = []
    for n, want in zip((101, 201, 401), frozen):
        h = 6.0 / (n - 1)
        ana = sommerfeld.field_on_grid(k, g, -3.0, -3.0, h, h, n, n)
        p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=n, ny=n,
                          E=k * k, edge_a=0.0,
                          boundary=lambda X, Y: sommerfeld.field_values(k, g, X, Y))
        rep = ofd.compare(ana, ofd.solve(ofd.assemble(p)), E=k * k)
        got.append(rep["l2_rel"])
        assert rep["l2_rel"] == pytest.approx(want, rel=0.1)
    assert got[0] > got[1] > got[2]


def test_compare_trivia():
    p = ofd.FdProblem(x0=-1.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9, E=1.0,
                      boundary=lambda X, Y: np.exp(1j * (X + Y)))
    grid = ofd.solve(ofd.assemble(p))
    rep = ofd.compare(grid, grid)
    assert rep["l2_rel"] == 0.0
    shifted = FieldGrid(x0=0.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                        values=grid.values, mask=grid.mask)
    # a field that is 0 on every compared node gave nan with a warning
    zero = dataclasses.replace(grid, values=np.zeros_like(grid.values))
    # on a 5 x 5 grid the band around the axis x = 0 covers every node
    mask = build_mask(-1.0, -1.0, 0.5, 0.5, 5, 5, delta_line=True)
    banded = FieldGrid(x0=-1.0, y0=-1.0, dx=0.5, dy=0.5, nx=5, ny=5,
                       values=np.ones((5, 5), complex), mask=mask)
    for analytic, fd, match in ((grid, shifted, "grids differ"),
                                (zero, grid, "0 on every compared node"),
                                (banded, banded, "no nodes left")):
        with pytest.raises(ValueError, match=match):
            ofd.compare(analytic, fd)


def _quadrants_from_meshes(ana, fd):
    """compare's quadrant breakdown with its masks built on full meshes."""
    keep = fd.mask == INTERIOR
    keep &= ~dilate((fd.mask == EDGE) | (fd.mask == DELTA_LINE), 2, square=True)
    X, Y = fd.meshes()
    bx, by = 2 * fd.dx, 2 * fd.dy
    out = {}
    for name, sel in (("x<0,y>0", (X < -bx) & (Y > by)), ("x>0,y>0", (X > bx) & (Y > by)),
                      ("x<0,y<0", (X < -bx) & (Y < -by)), ("x>0,y<0", (X > bx) & (Y < -by))):
        ref = np.linalg.norm(ana.values[keep & sel])
        out[name] = (float(np.linalg.norm((fd.values - ana.values)[keep & sel]) / ref)
                     if ref else float("nan"))
    return out


def test_compare_quadrants_match_the_mesh_selection():
    # the masks come from the broadcast 1-D axes; the selection, and so
    # the report, is the one full coordinate meshes give
    alpha, k = 1.0, 0.5
    f = be.make_field(alpha, k)
    h = 3.0 / 100
    p = ofd.FdProblem(x0=0.0, y0=-3.0, dx=h, dy=h, nx=101, ny=201,
                      E=k * k - alpha * alpha, edge_a=0.0,
                      boundary=lambda X, Y: be.branch_field_values(f, X, Y, 1))
    half = ofd.solve(ofd.assemble(p))
    X, Y = half.meshes()
    cases = [(dataclasses.replace(half, values=be.branch_field_values(f, X, Y, 1)),
              half)]
    g = sommerfeld.EdgeGeometry(a=0.0)
    h = 6.0 / 140
    ana = sommerfeld.field_on_grid(2.0, g, -3.0, -3.0, h, h, 141, 141)
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=141, ny=141, E=4.0,
                      edge_a=0.0,
                      boundary=lambda X, Y: sommerfeld.field_values(2.0, g, X, Y))
    cases.append((ana, ofd.solve(ofd.assemble(p))))
    reports = [ofd.compare(ana, fd)["quadrants"] for ana, fd in cases]
    for (ana, fd), got in zip(cases, reports):
        want = _quadrants_from_meshes(ana, fd)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[q], want[q], equal_nan=True) for q in want)
    # the half domain has no x < 0 nodes; the full one fills all four
    assert math.isnan(reports[0]["x<0,y>0"])
    assert all(math.isfinite(v) for v in reports[1].values())


def test_compare_quadrants_take_dy_for_y():
    # at dx != dy a quadrant starts 2 dy off the x axis, not 2 dx: an
    # error on the rows 2 dy < |y| <= 2 dx left of the axis lands in
    # both left quadrants and in no other
    x0, y0, dx, dy, nx, ny = -2.0, -2.0, 0.1, 0.05, 41, 81
    mask = build_mask(x0, y0, dx, dy, nx, ny, edge_a=0.0, delta_line=True)
    ana = FieldGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                    values=np.ones((ny, nx), dtype=complex), mask=mask)
    off_axis = np.abs(np.arange(ny) - (ny - 1) // 2)[:, None]
    left = np.arange(nx)[None, :] < (nx - 1) // 2
    err = np.where(((off_axis == 3) | (off_axis == 4)) & left, 0.1, 0.0)
    fd = dataclasses.replace(ana, values=ana.values + err)
    got = ofd.compare(ana, fd)["quadrants"]
    assert got["x<0,y>0"] > 0.0 and got["x<0,y<0"] > 0.0
    assert got["x>0,y>0"] == got["x>0,y<0"] == 0.0
    want = _quadrants_from_meshes(ana, fd)
    assert all(np.array_equal(got[q], want[q], equal_nan=True) for q in want)


def test_bound_edge_full_domain_frozen_mismatch():
    # the closed form is exact per half-plane but jumps across the
    # waveguide axis; the oracle feels that seam everywhere, and the
    # full-domain discrepancy saturates at the frozen 44% level
    alpha, k = 1.0, 0.5
    E = k * k - alpha * alpha
    f = be.make_field(alpha, k)
    h = 6.0 / 200
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=201, ny=201,
                      E=E, alpha=alpha, edge_a=0.0,
                      boundary=lambda X, Y: be.field_values(f, X, Y))
    fd = ofd.solve(ofd.assemble(p))
    X, Y = fd.meshes()
    ana = FieldGrid(x0=-3.0, y0=-3.0, dx=h, dy=h, nx=201, ny=201,
                    values=be.field_values(f, X, Y), mask=fd.mask)
    rep = ofd.compare(ana, fd, E=E)
    assert rep["l2_rel"] == pytest.approx(0.4372, abs=0.02)
    # the quiet lower-left quadrant is tiny in magnitude, so its
    # relative discrepancy blows up; the others sit at the seam level
    assert rep["quadrants"]["x<0,y<0"] > 1.0
    assert rep["quadrants"]["x<0,y>0"] == pytest.approx(0.181, abs=0.02)


def test_bound_edge_half_domain_agreement():
    # restricted to one side with matching one-branch boundary data the
    # oracle confirms the closed form to a few 1e-4: the seam is the
    # only obstruction
    alpha, k = 1.0, 0.5
    E = k * k - alpha * alpha
    f = be.make_field(alpha, k)
    h = 3.0 / 100
    for side, x0, edge in ((-1, -3.0, None), (1, 0.0, 0.0)):
        p = ofd.FdProblem(
            x0=x0, y0=-3.0, dx=h, dy=h, nx=101, ny=201, E=E,
            alpha=0.0, edge_a=edge,
            boundary=lambda X, Y, s=side: be.branch_field_values(f, X, Y, s))
        fd = ofd.solve(ofd.assemble(p))
        X, Y = fd.meshes()
        ana = FieldGrid(x0=x0, y0=-3.0, dx=h, dy=h, nx=101, ny=201,
                        values=be.branch_field_values(f, X, Y, side),
                        mask=fd.mask)
        rep = ofd.compare(ana, fd, E=E)
        assert rep["l2_rel"] < 1e-3


def test_transverse_ground_energy_convergence():
    # frozen: 6.24e-4 at h = 0.05, 1.56e-4 at h = 0.025 (alpha = 1);
    # the kink sits on a node and the mode is even, so the observed
    # order is two
    e1 = abs(ofd.discrete_mode(1.0, np.linspace(-12.0, 12.0, 481))[0] + 1.0)
    e2 = abs(ofd.discrete_mode(1.0, np.linspace(-12.0, 12.0, 961))[0] + 1.0)
    assert e1 == pytest.approx(6.242e-4, rel=0.05)
    assert e2 == pytest.approx(1.562e-4, rel=0.05)
    assert e1 / e2 > 3.5


def test_discrete_mode_shape():
    xs = np.linspace(-8.0, 8.0, 161)
    mu, phi = ofd.discrete_mode(1.0, xs)
    assert mu < 0
    assert phi[80] > 0
    assert abs(np.sum(phi ** 2) * (xs[1] - xs[0]) - 1.0) < 1e-12
    # decay envelope close to the continuum mode
    assert np.abs(phi / phi[80] - np.exp(-np.abs(xs))).max() < 0.02
    with pytest.raises(ValueError):
        ofd.discrete_mode(1.0, np.linspace(-8.05, 8.0, 161))


@pytest.mark.parametrize("alpha,xs", [
    (1.0, np.linspace(-8.0, 8.0, 161)),
    (0.5, np.linspace(-16.0, 16.0, 321)),
    (1.0, np.linspace(-3.0, 5.0, 81)),
    (0.0, np.linspace(-8.0, 8.0, 161)),
    (1.0, np.linspace(-1.0, 1.0, 9)),
], ids=["guided-29k", "guided-116k", "off-centre", "alpha-0", "weak"])
def test_discrete_mode_matches_a_dense_eigensolver(alpha, xs):
    # the secular root and its one-transform mode against the dense
    # tridiagonal operator; "weak" has no state below 0 (the tent
    # 1 - |x| has w = 0 exactly) and "off-centre" puts x = 0 on node 30
    # of 81
    h = xs[1] - xs[0]
    m, i0 = xs.size - 2, int(np.argmin(np.abs(xs)))
    H = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h ** 2
    H[i0 - 1, i0 - 1] -= 2.0 * alpha / h
    ev, vec = np.linalg.eigh(H)
    want = np.zeros(xs.size)
    want[1:-1] = vec[:, 0] / math.sqrt(np.sum(vec[:, 0] ** 2) * h)
    want *= np.sign(want[i0])
    w, phi = ofd.discrete_mode(alpha, xs)
    assert abs(w - ev[0]) <= 1e-12
    assert phi[0] == phi[-1] == 0.0 and phi[i0] > 0
    assert np.abs(phi - want).max() <= 1e-12
    assert np.abs(H @ phi[1:-1] - w * phi[1:-1]).max() <= 1e-12 * np.abs(H).max()


def test_discrete_mode_rejects_a_negative_well_or_an_end_node():
    # the secular root lies below nu_1 only for an attractive well on an
    # interior node
    with pytest.raises(ValueError, match="alpha"):
        ofd.discrete_mode(-1.0, np.linspace(-1.0, 1.0, 9))
    with pytest.raises(ValueError, match="interior"):
        ofd.discrete_mode(1.0, np.linspace(0.0, 1.0, 9))


def test_scatter_consistency_without_barrier():
    # the discrete incident mode is an exact solution of the discrete
    # equations: removing the barrier must leave no scattered field
    _, _, _, s = ofd.solve_guided_scatter(1.0, 0.5, None)
    assert np.abs(s).max() < 1e-10


def test_reflection_scan_frozen():
    res = ofd.reflection_scan(1.0, 0.5, [1.0, 1.5, 2.0, 2.5])
    assert res.slope == pytest.approx(-2.0173, abs=0.01)
    assert abs(res.slope + 2.0) / 2.0 < 0.15
    frozen = (4.0840e-1, 1.4950e-1, 5.4330e-2, 1.9837e-2)
    for got, want in zip(res.amplitudes, frozen):
        assert got == pytest.approx(want, rel=1e-3)


def test_reflection_needs_trapped_regime():
    with pytest.raises(ValueError):
        ofd.reflected_amplitudes(1.0, 2.0, 1.0)
    for k in (0.0, -0.5):
        with pytest.raises(ValueError, match="alpha and k must be positive"):
            ofd.solve_guided_scatter(1.0, k, 1.0)


def test_reflection_rejects_tip_on_or_past_the_axis():
    # at a = 0 the pinned frame closes a cavity and the fit would report
    # |reflected| = |forward|; the exact answer comes from the barrier
    # integral equation instead
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="bound_edge.solve_scattering"):
            ofd.reflected_amplitudes(1.0, 0.5, a)
