"""Command-line interface: determinism, config precedence, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import edgewave
from edgewave import cli, criteria
from edgewave.grid import read_csv


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify")
    code2, out2, _ = run_cli(capsys, "verify")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    lines = [l for l in out1.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    assert "all checks passed" in out1


def test_verify_passes_at_alpha_0_7(capsys):
    # 3/alpha - 1/alpha rounds below 2/alpha here; the tail-scan span
    # guard must still accept the offsets
    code, out, _ = run_cli(capsys, "verify", "--alpha=0.7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    def failing(alphas, tol):
        return criteria.Check("guided-products", 1.0, tol, False, "forced")

    monkeypatch.setattr(criteria, "guided_products", failing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL guided-products: forced" in lines
    assert sum(l.startswith("PASS") for l in lines) == 8
    assert lines[-1] == "verify: CHECKS FAILED"


def test_field_csv_round_trips_and_repeats(tmp_path, capsys):
    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    args = ["--nx=31", "--ny=31", "--dx=0.2", "--dy=0.2", "--x0=-3", "--y0=-3"]
    assert run_cli(capsys, "field", f"--out={out1}", *args)[0] == 0
    assert run_cli(capsys, "field", f"--out={out2}", *args)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    grid = read_csv(out1)
    assert grid.nx == 31 and grid.ny == 31
    assert np.isfinite(grid.values).all()


def test_field_bound_mode(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, "field", "--mode=bound", "--alpha=1",
                         "--k=0.5", "--nx=21", "--ny=21", "--dx=0.3",
                         "--dy=0.3", f"--out={out}")
    assert code == 0
    assert read_csv(out).nx == 21


def test_tail_summary_record(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, _ = run_cli(capsys, "tail", "--alpha=1",
                              "--a_list=1:0.5:3", f"--out={out}")
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert list(rec) == ["slope", "residual", "alpha", "k"]
    assert rec["slope"] == pytest.approx(-2.0, rel=0.05)
    assert rec["k"] == 0.5
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,amplitude"
    assert len(lines) == 6


_RECORD_CASES = pytest.mark.parametrize("mode_args,E", [
    pytest.param((), 4.0, id="sommerfeld"),
    pytest.param(("--mode=bound", "--alpha=1", "--k=0.5"), -0.75, id="bound"),
])
_RECORD_GRID = ("--nx=61", "--ny=61", "--dx=0.1", "--dy=0.1", "--x0=-3",
                "--y0=-3", "--k=2")


@_RECORD_CASES
def test_residual_record(capsys, mode_args, E):
    code, stdout, _ = run_cli(capsys, "residual", *_RECORD_GRID, *mode_args)
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert {"max_res", "l2_res", "n_nodes", "dx", "dy"} <= set(rec)
    assert list(rec) == ["max_res", "l2_res", "n_nodes", "dx", "dy",
                         "coarse_warning"]


@_RECORD_CASES
def test_oracle_record(capsys, mode_args, E):
    code, stdout, _ = run_cli(capsys, "oracle", *_RECORD_GRID, *mode_args)
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["E"] == E
    # the bound l2_rel measures the two-branch seam, so it is not pinned
    if not mode_args:
        assert rec["l2_rel"] < 0.05


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx=41\nny=41\ndx=0.15\ndy=0.15\nx0=-3\ny0=-3\n# note\n")
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "field", f"--config={cfg}", "--nx=21",
                         f"--out={out}")
    assert code == 0
    grid = read_csv(out)
    assert grid.nx == 21      # flag beats file
    assert grid.ny == 41      # file beats default


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "tail", "--alpha=-1")[0] == 2
    assert run_cli(capsys, "tail", "--a_list=1:2")[0] == 2
    # a range is counted before it is built: 2,000,001 and about 1e300
    # offsets are usage errors, not a scan that never ends
    for bad in ("1,,2", "1,x", "1,2,3,nan", "1:0.5:inf", "1:1e-6:3",
                "1:1e-300:2"):
        code, _, err = run_cli(capsys, "tail", f"--a_list={bad}")
        assert code == 2
        assert err.startswith("usage error: a_list must be ")
    # flags are whole keys: no abbreviation, and no key h
    for flag in ("--h=0.5", "--h", "--alph=1"):
        code, _, err = run_cli(capsys, "field", flag)
        assert code == 2
        assert "unrecognized arguments" in err
    assert run_cli(capsys, "field", "--mode=bound", "--a=0.5")[0] == 2
    # the bound closed form is the Dirichlet field: no Neumann comparison
    bound = ("--mode=bound", "--alpha=1", "--k=0.5", "--nx=101", "--ny=101",
             "--dx=0.06", "--dy=0.06", f"--out={tmp_path / 'never.csv'}")
    code, _, err = run_cli(capsys, "field", "--bc=neumann", *bound)
    assert code == 2
    assert "bc = dirichlet" in err
    # the FD oracle solves the Dirichlet barrier only, in either mode
    for argv in (("--bc=neumann",), ("--bc=neumann", *bound)):
        code, _, err = run_cli(capsys, "oracle", *argv)
        assert code == 2
        assert err.startswith("usage error: bc must be one of ")
    # non-finite numbers are usage errors naming the key, alpha included
    # where it is not read
    for key in ("k", "dx", "dy", "alpha"):
        for value in ("inf", "-inf", "nan"):
            code, _, err = run_cli(capsys, "field", f"--{key}={value}",
                                   f"--out={tmp_path / 'never.csv'}")
            assert code == 2
            assert err.startswith(f"usage error: {key} must be ")
    # a value outside its key's values exits 2 naming the key, before any
    # grid, scan or quadrature runs; a NaN probe used to hang the quadrature
    # and a NaN lam to print a NaN slope with exit 0
    for argv, key in ((("field", "--a=-1"), "a"), (("verify", "--a=-1"), "a"),
                      (("oracle", "--a=nan"), "a"), (("field", "--x0=inf"), "x0"),
                      (("field", "--y0=nan"), "y0"), (("tail", "--lam=nan"), "lam"),
                      (("tail", "--lam=inf"), "lam"),
                      (("tail", "--probe_x=inf"), "probe_x"),
                      (("tail", "--probe_y=nan"), "probe_y"),
                      (("field", "--nx=oops"), "nx")):
        code, _, err = run_cli(capsys, *argv, f"--out={tmp_path / 'never.csv'}")
        assert code == 2
        assert err.startswith(f"usage error: {key} must be ")
        assert "invalid literal" not in err and "could not convert" not in err
    # each command takes only the keys it reads, and mode and bc only
    # their named values
    for argv in (("verify", "--mode=bogus"), ("verify", "--bc=absorbing"),
                 ("verify", "--nx=7"), ("tail", "--dx=9"),
                 ("field", "--c0=2")):
        code, _, err = run_cli(capsys, *argv, f"--out={tmp_path / 'never.csv'}")
        assert code == 2
        assert "unrecognized arguments" in err
    for argv, key in ((("field", "--bc=absorbing"), "bc"),
                      (("oracle", "--mode=bogus"), "mode")):
        code, _, err = run_cli(capsys, *argv, f"--out={tmp_path / 'never.csv'}")
        assert code == 2
        assert err.startswith(f"usage error: {key} must be one of ")
    assert not (tmp_path / "never.csv").exists()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=3\n")
    assert run_cli(capsys, "field", f"--config={cfg}")[0] == 2
    cfg.write_text("nx=41\n")
    code, _, err = run_cli(capsys, "verify", f"--config={cfg}")
    assert code == 2
    assert err.startswith("usage error: unknown config key 'nx'")
    cfg.write_text("bc=absorbing\n")
    assert run_cli(capsys, "residual", f"--config={cfg}")[0] == 2
    # a bad file value is an error even where a later line or a flag
    # overrides it
    for text, flags in (("lam=nan\n", ()), ("lam=nan\n", ("--lam=1",)),
                        ("lam=nan\nlam=1\n", ())):
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "tail", f"--config={cfg}", *flags,
                               f"--out={tmp_path / 'never.csv'}")
        assert code == 2
        assert err.startswith("usage error: lam must be ")
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (("tail", "--a_list=1,2,3"), "a_list must be at least four distinct"),
    (("tail", "--a_list=1,1,2,3"), "a_list must be at least four distinct"),
    (("tail", "--a_list=-1,0.5,1,2,3"), "a_list must be at least four"),
    (("tail", "--a_list=1,1.5,2,2.5"), "span at least 2/alpha"),
    (("tail", "--alpha=1", "--probe_x=1", "--probe_y=0"), "on an impurity"),
    (("field", "--mode=bound", "--alpha=1", "--k=1"), "k != alpha"),
    (("oracle", "--mode=bound", "--alpha=1", "--k=1"), "k != alpha"),
], ids=["three-offsets", "repeated-offset", "negative-offset", "short-span",
        "probe-on-impurity", "field-k-equals-alpha", "oracle-k-equals-alpha"])
def test_static_input_rules_exit_2(tmp_path, capsys, argv, message):
    # each rule reads the input alone, so breaking it is a usage error
    # before any quadrature or grid runs (each used to exit 1)
    out = tmp_path / "never.csv"
    code, stdout, err = run_cli(capsys, *argv, f"--out={out}")
    assert code == 2 and stdout == ""
    assert err.startswith("usage error: ") and message in err
    assert not out.exists()


def test_numerical_failure_exits_1(capsys):
    # resolution guard trips inside the oracle: not a usage problem
    code, _, err = run_cli(capsys, "oracle", "--k=20", "--dx=0.1",
                           "--dy=0.1", "--nx=31", "--ny=31")
    assert code == 1
    assert "numerical failure" in err


def test_oracle_delta_line_resolution_exits_1(capsys):
    # alpha*dx = 0.6 trips the delta-line guard while sqrt(|E|)*dx = 0.02
    # passes the wavelength guard
    code, _, err = run_cli(capsys, "oracle", "--mode=bound", "--alpha=20",
                           "--k=19.99", "--dx=0.03", "--dy=0.03",
                           "--nx=21", "--ny=21", "--x0=-0.3", "--y0=-0.3")
    assert code == 1
    assert "numerical failure" in err
    assert "alpha*dx" in err


def test_unaligned_barrier_exits_1(tmp_path, capsys):
    # a tip between grid lines leaves the ray off the lattice: the grid
    # could neither zero it nor keep it out of the residual
    grid = ["--a=0.05", "--dx=0.03", "--dy=0.03", "--nx=21", "--ny=21",
            "--x0=-0.3", "--y0=-0.3"]
    for cmd in ("field", "residual"):
        code, _, err = run_cli(capsys, cmd, *grid, f"--out={tmp_path / 'f'}")
        assert code == 1
        assert err.startswith("numerical failure: ")
        assert "not grid-aligned" in err
    assert not (tmp_path / "f").exists()


def test_bound_field_below_the_ray_far_from_the_tip_exits_0(tmp_path, capsys):
    # just below the ray far from the tip at k > alpha, e^{-alpha|x|}
    # (about e^-800) and erf's Gaussian (about e^+800) would each leave
    # the double range; inside one exponential the field, about 5e-9, is
    # written, finite, with exit 0 (it used to exit 1 on an OverflowError)
    out = tmp_path / "b.csv"
    code, _, err = run_cli(capsys, "field", "--mode=bound", "--k=3",
                           "--alpha=1", "--x0=760", "--y0=-0.004",
                           "--dx=10", "--dy=0.001", "--nx=5", "--ny=3",
                           f"--out={out}")
    assert code == 0 and err == ""
    vals = read_csv(out).values
    assert np.isfinite(vals).all() and 0 < np.abs(vals).max() < 1e-7
    # far out at alpha = 50, k = 40 the field lies below the double range
    code, _, _ = run_cli(capsys, "field", "--mode=bound", "--k=40",
                         "--alpha=50", "--x0=-300", "--y0=-300",
                         "--dx=30", "--dy=30", "--nx=21", "--ny=21",
                         f"--out={out}")
    assert code == 0


def _timed(capsys, *argv):
    t0 = time.perf_counter()
    got = run_cli(capsys, *argv)
    return (*got, time.perf_counter() - t0)


def test_residual_refuses_a_spacing_whose_square_is_not_normal(tmp_path, capsys):
    # dx^2 or dy^2 below the least normal double made the stencil print
    # "max_res": nan with exit 0
    for flags, name in ((("--dx=1e-300", "--nx=41", "--ny=5"), "dx"),
                        (("--dy=5e-324",), "dy")):
        code, stdout, err, wall = _timed(capsys, "residual", *flags,
                                         f"--out={tmp_path / 'never'}")
        assert code == 1 and stdout == "" and wall < 1.0
        assert err.startswith(f"numerical failure: {name} = ")
        assert "not a normal double" in err
    assert not (tmp_path / "never").exists()


# a spacing below the ulp of the origin makes -3 + j*1e-30 round to -3 for
# every j: field wrote a dump read_csv refuses, residual printed max_res
# 3.97 and oracle blamed a box eigenvalue (residual 4.3e+45)
def _refuses_coincident_nodes(capsys, out, *argv, axis="y"):
    code, stdout, err, wall = _timed(capsys, *argv, f"--out={out}")
    assert code == 1 and stdout == "" and wall < 1.0
    assert err.startswith(f"numerical failure: the {axis} nodes ")
    assert "are not strictly increasing as doubles" in err
    assert not out.exists()


def test_field_refuses_coincident_nodes(tmp_path, capsys):
    _refuses_coincident_nodes(capsys, tmp_path / "f.csv", "field",
                              "--dy=1e-30", "--nx=5", "--ny=3")
    _refuses_coincident_nodes(capsys, tmp_path / "f.csv", "field",
                              "--dx=5e-324", "--x0=-1", "--nx=5", "--ny=3",
                              axis="x")


def test_residual_refuses_coincident_nodes(tmp_path, capsys):
    _refuses_coincident_nodes(capsys, tmp_path / "r.txt", "residual",
                              "--dy=1e-30", "--nx=41", "--ny=41")


def test_oracle_refuses_coincident_nodes(tmp_path, capsys):
    _refuses_coincident_nodes(capsys, tmp_path / "o.csv", "oracle",
                              "--dy=1e-30", "--nx=41", "--ny=41")


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # `edgewave oracle ... | head -1` ended in a BrokenPipeError traceback;
    # here the reader of the pipe is gone before the command starts
    env = dict(os.environ, PYTHONPATH=str(Path(edgewave.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "edgewave.cli", "field", "--nx=5",
             "--ny=5", f"--out={tmp_path / 'f.csv'}"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "stdout" in proc.stderr


def test_free_edge_k_below_the_cancellation_floor_exits_2(tmp_path, capsys):
    # below k*R = 1e-11 the two terms of size sqrt(pi/2k) cancel: k =
    # 5e-324 wrote nan, k = 1e-300 exact zeros where psi is 2.69, and the
    # oracle printed "l2_rel": nan, each with exit 0
    out = tmp_path / "never.csv"
    for argv in (("field", "--k=5e-324"), ("field", "--k=1e-300"),
                 ("oracle", "--k=1e-300"), ("residual", "--k=1e-300")):
        code, stdout, err, wall = _timed(capsys, *argv, f"--out={out}")
        assert code == 2 and stdout == "" and wall < 1.0
        assert err.startswith("usage error: k = ")
        assert "lose its digits" in err
    assert not out.exists()
    # just above the floor: R = 3 sqrt 2 on a grid over [-3, 3]^2
    k = 1.0001e-11 / (3.0 * math.sqrt(2.0))
    code, _, _ = run_cli(capsys, "field", f"--k={k!r}", "--nx=5", "--ny=5",
                         "--dx=1.5", "--dy=1.5", f"--out={out}")
    assert code == 0 and np.isfinite(read_csv(out).values).all()


def test_oracle_prints_only_quadrants_with_nodes(capsys):
    # the 41^2 grid from (-3, -3) covers x, y < 0 only: the three empty
    # quadrants printed nan lines
    code, stdout, _, wall = _timed(capsys, "oracle", "--k=1e-8",
                                   "--nx=41", "--ny=41")
    assert code == 0 and wall < 1.0
    assert "nan" not in stdout
    assert [line.split(":")[0] for line in stdout.splitlines()[1:]] == [
        "  quadrant x<0,y<0"]


def test_tail_refuses_an_underflowed_mode_quickly(tmp_path, capsys):
    # e^{-alpha a} is 0 at every offset, so each Born amplitude is 0
    # before any quadrature; the refusal took about 50 s
    out = tmp_path / "t.csv"
    code, stdout, err, wall = _timed(capsys, "tail", "--alpha=1e6",
                                     f"--out={out}")
    assert code == 1 and stdout == "" and wall < 1.0
    assert err.startswith("numerical failure: all amplitudes underflowed")
    assert not out.exists()


def test_tail_far_probe_at_alpha_3_exits_1_quickly(tmp_path, capsys):
    # cos(p 1e300) cannot be resolved: the continuum quadrature stops at
    # its largest rule instead of diagonalising ever larger Legendre
    # companion matrices (the command ran for minutes)
    out = tmp_path / "t.csv"
    code, stdout, err, wall = _timed(capsys, "tail", "--alpha=3",
                                     "--probe_x=1e300", f"--out={out}")
    assert code == 1 and stdout == "" and wall < 5.0
    assert err.startswith("numerical failure: continuum quadrature did not "
                          "converge")
    assert not out.exists()


def test_degraded_tail_fit_exits_1(tmp_path, capsys):
    # a probe far from the guide leaves quadrature noise in the Born
    # amplitude; the fit's rms residual, 0.45, is refused
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(capsys, "tail", "--probe_x=1e300",
                                f"--out={out}")
    assert code == 1
    assert err.startswith("numerical failure: tail fit rms residual ")
    assert stdout == ""
    assert not out.exists()


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def huge(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.31 GiB for an array with "
                          "shape (100000, 100000) and data type uint8")

    monkeypatch.setattr(cli, "tabulate", huge)
    code, _, err = run_cli(capsys, "field", "--nx=100000", "--ny=100000",
                           f"--out={tmp_path / 'f.csv'}")
    assert code == 1
    assert err == ("out of memory: Unable to allocate 9.31 GiB for an array "
                   "with shape (100000, 100000) and data type uint8\n")
    assert "Traceback" not in err


def test_alpha_checked_only_where_used(tmp_path, capsys):
    grid = ["--nx=21", "--ny=21", "--dx=0.3", "--dy=0.3"]
    zero = tmp_path / "zero.csv"
    default = tmp_path / "default.csv"
    assert run_cli(capsys, "field", "--alpha=0", f"--out={zero}", *grid)[0] == 0
    assert run_cli(capsys, "field", f"--out={default}", *grid)[0] == 0
    assert zero.read_bytes() == default.read_bytes()
    assert run_cli(capsys, "field", "--mode=bound", "--alpha=0", *grid)[0] == 2
    assert run_cli(capsys, "tail", "--alpha=0")[0] == 2
    assert run_cli(capsys, "verify", "--alpha=0")[0] == 2


def test_cli_import_leaves_out_the_solver_scipy_and_ndimage():
    # the FD solve loads its scipy modules; no other command pays for them
    code = ("import sys, edgewave.cli; print([m for m in ('scipy.fft', "
            "'scipy.linalg', 'scipy.sparse', 'scipy.ndimage') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(edgewave.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
