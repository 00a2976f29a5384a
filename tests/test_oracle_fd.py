"""Finite-difference oracle: assembly, convergence, and the frozen
comparison numbers for the closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.fft import dst
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from edgewave import bound_edge as be
from edgewave import oracle_fd as ofd
from edgewave import sommerfeld
from edgewave.grid import DELTA_LINE, EDGE, FieldGrid, INTERIOR, OUTER


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
    with pytest.raises(ValueError):
        ofd.FdProblem(x0=0, y0=0, dx=0.1, dy=0.1, nx=9, ny=9, E=1.0,
                      bc="robin")
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


def test_reduced_solve_matches_full_system_neumann():
    g = sommerfeld.EdgeGeometry(a=0.0, bc="neumann")
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61,
                      E=4.0, edge_a=0.0, bc="neumann",
                      boundary=lambda X, Y: sommerfeld.field_values(2.0, g, X, Y))
    grid = _reduced_vs_full(p)
    j, i = np.nonzero(grid.mask == EDGE)
    assert j.size
    # the mirror node takes its upper neighbour's value bit for bit
    assert np.array_equal(grid.values[j, i], grid.values[j + 1, i])


def test_reduced_solve_matches_full_system_without_barrier():
    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61,
                      E=0.25 - 1.0, alpha=1.0,
                      boundary=lambda X, Y: np.exp(-np.abs(X) + 0.5j * Y))
    grid = _reduced_vs_full(p)
    assert not (grid.mask == EDGE).any()


@pytest.mark.parametrize("bc,edge_a,alpha", [
    ("dirichlet", 0.0, 1.0), ("neumann", 0.0, 0.0), ("dirichlet", None, 1.0)])
def test_reduced_solve_matches_full_system_with_complex_forcing(bc, edge_a, alpha):
    # Re and Im of the right-hand side are both nonzero inside the grid,
    # so the two real solves are each exercised there
    px, py, E = 0.7, 1.1, 2.3

    def exact(X, Y):
        return np.exp(1j * (px * X + py * Y))

    def forcing(X, Y):
        return (E - px * px - py * py) * exact(X, Y) + (0.3 - 0.8j) * X * Y

    p = ofd.FdProblem(x0=-3.0, y0=-3.0, dx=0.1, dy=0.1, nx=61, ny=61, E=E,
                      alpha=alpha, edge_a=edge_a, bc=bc,
                      boundary=exact, forcing=forcing)
    sys = ofd.assemble(p)
    inside = sys.rhs[sys.mask.ravel() != OUTER]
    assert np.abs(inside.real).max() > 0.5 and np.abs(inside.imag).max() > 0.5
    _reduced_vs_full(p)


_STRUCTURE_BOX = dict(x0=-1.0, y0=-1.0, dx=0.1, dy=0.1, nx=21, ny=21,
                      E=2.0, alpha=1.0, edge_a=0.3)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("change", [
    dict(y0=-1.9),                         # barrier row below the top frame
    dict(edge_a=-5.0),                     # tip left of the grid: whole row
    dict(dy=0.07, y0=-0.7),                # dx != dy
    dict(alpha=0.0),                       # no delta line
    dict(edge_a=0.0),                      # tip on the delta line
    dict(edge_a=-0.4),                     # delta line crosses the barrier
    dict(nx=4, ny=3, x0=-0.1, y0=-0.1, edge_a=0.1),
    dict(nx=3, ny=3, x0=-0.1, y0=-0.1, edge_a=0.0),
], ids=["top-row", "whole-row", "dx-ne-dy", "no-delta", "tip-on-delta",
        "delta-crosses", "4x3", "3x3"])
def test_fast_solve_matches_full_system_structure(bc, change):
    # the capacitance rows, the delta column and the box transforms meet
    # every placement of the barrier row and the axis
    p = ofd.FdProblem(**{**_STRUCTURE_BOX, **change}, bc=bc,
                      boundary=lambda X, Y: np.exp(1j * (0.7 * X + 1.1 * Y)),
                      forcing=lambda X, Y: (0.3 - 0.8j) * X * Y + 1.0)
    grid = _reduced_vs_full(p)
    j, i = np.nonzero(grid.mask == EDGE)
    assert j.size
    if bc == "dirichlet":
        assert np.all(grid.values[j, i] == 0.0)
    else:
        assert np.array_equal(grid.values[j, i], grid.values[j + 1, i])


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
    other = FieldGrid(x0=0.0, y0=-1.0, dx=0.25, dy=0.25, nx=9, ny=9,
                      values=grid.values, mask=grid.mask)
    with pytest.raises(ValueError):
        ofd.compare(grid, other)


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


def test_reflection_rejects_tip_on_or_past_the_axis():
    # at a = 0 the pinned frame closes a cavity and the fit would report
    # |reflected| = |forward|; the exact answer comes from the barrier
    # integral equation instead
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="bound_edge.solve_scattering"):
            ofd.reflected_amplitudes(1.0, 0.5, a)
