"""Command-line interface: determinism, config precedence, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import edgewave
from edgewave import cli, criteria, green_perturbation
from edgewave.grid import read_csv


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    code1, out1, _ = run_cli(capsys, "verify")
    code2, out2, _ = run_cli(capsys, "verify", f"--out={tmp_path / 'v.txt'}")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    lines = [l for l in out1.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(l.startswith("PASS") for l in lines)
    assert "all checks passed" in out1
    # --out holds the nine check lines, without the verdict
    assert (tmp_path / "v.txt").read_text() == "".join(l + "\n" for l in lines)


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


@pytest.mark.parametrize("alpha", ["1e5", "1e10"])
def test_verify_passes_at_large_alpha(capsys, alpha):
    # guided-products compared kappa e^{+-lambda} with k +- alpha as an
    # absolute difference: 1.5e-11 at alpha = 1e5 and 1.9e-6 at 1e10
    # failed its 1e-12 for a correct closed form; relative, 1.6e-16 and
    # 2.0e-16
    code, out, _ = run_cli(capsys, "verify", f"--alpha={alpha}")
    assert code == 0
    assert "PASS guided-products: max relative product defect " in out
    assert out.splitlines()[-1] == "verify: all checks passed"


@pytest.mark.parametrize("alpha", ["1e200", "1e-200"])
def test_verify_refuses_an_alpha_its_guided_modes_refuse(capsys, alpha):
    # (k - alpha)(k + alpha) leaves the normal doubles at the checks' k =
    # 0.2, 0.5 and 2 alpha: a usage error naming alpha before any check
    # runs (it was a numerical failure, exit 1, out of guided-products)
    code, out, err = run_cli(capsys, "verify", f"--alpha={alpha}")
    assert code == 2 and out == ""
    assert err.startswith("usage error: (k - alpha)(k + alpha) = ")
    assert f"at alpha = {float(alpha)!r}, k = " in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", ["200", "1e6", "1e300"])
def test_verify_prints_its_table_when_F_overflows(capsys, k):
    # at large k some Fresnel draws leave the double range (at 1e300 erf's
    # domain): that check fails with a line naming the draw, and the other
    # eight still print (at 1e300 the ray zero and the stencil order raised
    # past verify, which printed one line and no table)
    code, out, err = run_cli(capsys, "verify", f"--k={k}")
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert "FAIL fresnel-cross-validation: F at k = " in out
    if k == "1e300":
        # a check whose numerics raise is one FAIL line naming it
        for name in ("edge-ray-zero", "stencil-residual-order"):
            assert f"FAIL {name}: numerical failure: fresnel_F requires " in out
    assert out.splitlines()[-1] == "verify: CHECKS FAILED"
    assert "Traceback" not in err and "numerical failure" not in err


def test_verdicts_do_not_depend_on_the_unit_of_length(tmp_path, capsys):
    # lstsq's rank cut dropped a column of the log-slope fit once its
    # abscissae were far from 1: verify exited 1 with no table at these
    # alpha, and this scan with rms 1.414
    for alpha in ("1e-13", "1e15"):
        code, out, _ = run_cli(capsys, "verify", f"--alpha={alpha}")
        assert code == 0 and out.splitlines()[-1] == "verify: all checks passed"
    code, out, _ = run_cli(capsys, "tail", "--alpha=1e15",
                           "--a_list=1e-15,1.5e-15,2e-15,2.5e-15,3e-15",
                           f"--out={tmp_path / 't.csv'}")
    assert code == 0
    assert json.loads(out.splitlines()[0])["slope"] == pytest.approx(
        -2.0000006e15, rel=1e-7)
    # a tip far out still leaves its nearest face samples off the tip
    assert run_cli(capsys, "verify", "--a=1.7e13")[0] == 0


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
    # a probe at y = 1e308: the continuum's decay exponent overflows and
    # its factor is 0, so the guided channel's slope -2 is left, with no
    # numpy warning (an overflow in multiply was printed)
    code, stdout, err = run_cli(capsys, "tail", "--probe_y=1e308", f"--out={out}")
    assert code == 0 and err == ""
    assert json.loads(stdout.splitlines()[0])["slope"] == pytest.approx(-2.0, rel=1e-12)


_RECORD_CASES = pytest.mark.parametrize("mode_args,E", [
    pytest.param((), 4.0, id="sommerfeld"),
    pytest.param(("--mode=bound", "--alpha=1", "--k=0.5"), -0.75, id="bound"),
    # near the branch point E is the product (k - alpha)(k + alpha), where
    # k*k - alpha*alpha is 5.0e-9 (relative) off
    pytest.param(("--mode=bound", "--alpha=1", "--k=1.00000001"),
                 (1.00000001 - 1.0) * (1.00000001 + 1.0), id="bound-near-branch"),
])
_RECORD_GRID = ("--nx=61", "--ny=61", "--dx=0.1", "--dy=0.1", "--x0=-3",
                "--y0=-3", "--k=2")


@_RECORD_CASES
def test_residual_record(tmp_path, capsys, mode_args, E):
    out = tmp_path / "r.txt"
    code, stdout, _ = run_cli(capsys, "residual", *_RECORD_GRID, *mode_args,
                              f"--out={out}")
    assert code == 0
    assert out.read_text() == stdout        # --out holds the printed line
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
    # the bound form's |kappa|*R floor, and a (k - alpha)(k + alpha) below
    # the normal range, are one-line usage errors naming alpha and k; the
    # first grid wrote |psi| up to 3.7e64 with exit 0
    for argv in (("--alpha=1e-160", "--k=2e-160", "--nx=21", "--ny=21",
                  "--dx=0.3", "--dy=0.3"),
                 ("--alpha=1e-200", "--k=2e-200"), ("--alpha=1e-13", "--k=2e-13")):
        alpha, k = (arg.split("=")[1] for arg in argv[:2])
        for command in ("field", "residual", "oracle"):
            code, stdout, err = run_cli(capsys, command, "--mode=bound", *argv,
                                        f"--out={tmp_path / 'never.csv'}")
            assert code == 2 and stdout == "" and err.count("\n") == 1
            assert err.startswith("usage error: ")
            assert f"alpha = {alpha}, k = {k}" in err
    # just above the floor: R = 3 sqrt 2 on a grid over [-3, 3]^2
    alpha = 1.0001e-11 / (3.0 * math.sqrt(2.0) * math.sqrt(0.75))
    code, _, _ = run_cli(capsys, "field", "--mode=bound", f"--alpha={alpha!r}",
                         f"--k={0.5 * alpha!r}", "--nx=5", "--ny=5", "--dx=1.5",
                         "--dy=1.5", f"--out={tmp_path / 'above.csv'}")
    assert code == 0 and np.isfinite(read_csv(tmp_path / "above.csv").values).all()
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
    # grid, scan or quadrature runs; a NaN probe used to hang the quadrature,
    # a NaN lam to print a NaN slope with exit 0, and a zero lam, which has
    # no Born field at all, to exit 1 blaming an underflow
    for argv, key in ((("field", "--a=-1"), "a"), (("verify", "--a=-1"), "a"),
                      (("oracle", "--a=nan"), "a"), (("field", "--x0=inf"), "x0"),
                      (("field", "--y0=nan"), "y0"), (("tail", "--lam=nan"), "lam"),
                      (("tail", "--lam=inf"), "lam"), (("tail", "--lam=0"), "lam"),
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
    (("tail", "--a_list=1,2,3"), "needs at least four offsets with no repeat"),
    (("tail", "--a_list=1,1,2,3"), "needs at least four offsets with no repeat"),
    (("tail", "--a_list=-1,0.5,1,2,3"), "offset a must be positive and finite, got -1.0"),
    (("tail", "--a_list=1,1.5,2,2.5"), "span at least 2/alpha"),
    (("tail", "--alpha=1", "--probe_x=1", "--probe_y=0"), "on an impurity"),
    (("tail", "--a_list=1,1,2,3,4"), "with no repeat"),
    (("tail", "--alpha=1e200"), "at alpha = 1e+200, k = 5e+199"),
    (("verify", "--a=1e16"), "a = 1e+16: the face samples"),
    (("verify", "--a=1e20"), "a = 1e+20: the face samples"),
    (("field", "--mode=bound", "--alpha=1", "--k=1"), "k != alpha"),
    (("oracle", "--mode=bound", "--alpha=1", "--k=1"), "k != alpha"),
    (("residual", "--mode=bound", "--alpha=1", "--k=1"), "k != alpha"),
], ids=["three-offsets", "repeated-offset", "negative-offset", "short-span",
        "probe-on-impurity", "repeat-among-five", "scan-E-overflows",
        "verify-tip-at-1e16", "verify-tip-at-1e20", "field-k-equals-alpha",
        "oracle-k-equals-alpha", "residual-k-equals-alpha"])
def test_static_input_rules_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # each rule reads the input alone, so breaking it is a usage error
    # before any quadrature or grid runs (each used to exit 1; a repeat
    # among five offsets only after every offset's quadrature)
    monkeypatch.setattr(green_perturbation, "_continuum_integral", None)
    out = tmp_path / "never.csv"
    code, stdout, err = run_cli(capsys, *argv, f"--out={out}")
    assert code == 2 and stdout == "" and err.count("\n") == 1
    assert err.startswith("usage error: ") and message in err
    assert not out.exists()


def test_numerical_failure_exits_1(capsys):
    # resolution guard trips inside the oracle: not a usage problem; a
    # bound field that is e^-5000 on every compared node, 0 as a double,
    # has no scale to compare against (it printed nan and exited 0); and a
    # Born probe at x = 1e308 overflows p x in the continuum quadrature,
    # refused at its first sum (five numpy RuntimeWarnings came first, and
    # the rule doubled on to 2048 nodes)
    for argv, message in (
            (("oracle", "--k=20", "--dx=0.1", "--dy=0.1", "--nx=31", "--ny=31"), ""),
            (("oracle", "--mode=bound", "--alpha=50", "--k=40", "--x0=100",
              "--y0=100", "--dx=0.005", "--dy=0.005", "--nx=41", "--ny=41"),
             "the analytic field is 0 on every compared node"),
            (("tail", "--probe_x=1e308"),
             "continuum quadrature is not finite: nan at 64 nodes")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("numerical failure: " + message)
        assert err.count("\n") == 1


def test_y_phase_overflow_is_refused_in_one_line(tmp_path, capsys):
    # k*y overflows in two_term's y-phase; F's domain check refuses the
    # tile first, so the refusal comes with no numpy RuntimeWarning (two
    # were printed before it)
    for argv in (("field", "--k=1e300", "--dy=1e300", "--nx=11", "--ny=11"),
                 ("residual", "--k=1e300", "--dy=1e300", "--nx=11", "--ny=11"),
                 ("oracle", "--k=1e300", "--y0=1", "--dy=1e15", "--nx=7")):
        code, stdout, err = run_cli(capsys, *argv, f"--out={tmp_path / 'never'}")
        assert code == 1 and stdout == "" and err.count("\n") == 1
        assert err.startswith("numerical failure: fresnel_F requires finite xi")
    assert not (tmp_path / "never").exists()


def test_l2_norms_of_a_field_below_1e_154(capsys):
    # the bound field vanishes like k (max|psi| 3.1e-302 at k = 1e-300):
    # its squares underflowed, so oracle printed l2_rel nan beside max_rel
    # 3.6e-3 with exit 0, and residual an l2_res of 0
    code, stdout, _ = run_cli(capsys, "oracle", "--mode=bound", "--k=1e-300",
                              "--nx=11", "--ny=11")
    assert code == 0 and "nan" not in stdout
    rec = json.loads(stdout.splitlines()[0])
    assert rec["l2_rel"] == pytest.approx(2.5898e-3, rel=1e-4)
    assert rec["max_rel"] == pytest.approx(3.6231e-3, rel=1e-4)
    code, stdout, _ = run_cli(capsys, "residual", "--mode=bound", "--k=1e-300",
                              "--nx=41", "--ny=41")
    rec = json.loads(stdout)
    assert code == 0 and rec["max_res"] == pytest.approx(8.6351e-302, rel=1e-4)
    assert rec["l2_res"] == pytest.approx(3.8442e-302, rel=1e-4)


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
    # "max_res": nan with exit 0; the nodes start at 0 so that they stay
    # distinct doubles (from -3 they coincide, which tabulate refuses
    # first, naming the axis)
    for flags, name in ((("--x0=0", "--dx=1e-300", "--nx=41", "--ny=5"), "dx"),
                        (("--y0=0", "--dy=5e-324"), "dy")):
        code, stdout, err, wall = _timed(capsys, "residual", *flags,
                                         f"--out={tmp_path / 'never'}")
        assert code == 1 and stdout == "" and wall < 1.0
        assert err.startswith(f"numerical failure: {name} = ")
        assert "not a normal double" in err
    assert not (tmp_path / "never").exists()
    _refuses_coincident_nodes(capsys, tmp_path / "never", "residual",
                              "--dx=1e-300", "--nx=41", "--ny=5", axis="x")
    _refuses_coincident_nodes(capsys, tmp_path / "never", "residual",
                              "--dy=5e-324")


# a spacing below the ulp of the origin makes -3 + j*1e-30 round to -3 for
# every j: field wrote a dump read_csv refuses, residual printed max_res
# 3.97 and oracle blamed a box eigenvalue (residual 4.3e+45)
def _refuses_coincident_nodes(capsys, out, *argv, axis="y"):
    code, stdout, err, wall = _timed(capsys, *argv, f"--out={out}")
    assert code == 1 and stdout == "" and wall < 1.0
    assert err.startswith(f"numerical failure: the {axis} nodes ")
    assert "are not strictly increasing as doubles" in err
    assert err.count("\n") == 1            # the refusal alone, no warnings
    assert not out.exists()


def test_field_refuses_coincident_nodes(tmp_path, capsys):
    _refuses_coincident_nodes(capsys, tmp_path / "f.csv", "field",
                              "--dy=1e-30", "--nx=5", "--ny=3")
    _refuses_coincident_nodes(capsys, tmp_path / "f.csv", "field",
                              "--dx=5e-324", "--x0=-1", "--nx=5", "--ny=3",
                              axis="x")
    # nodes past the largest double, refused with no numpy warning
    _refuses_coincident_nodes(capsys, tmp_path / "f.csv", "field",
                              "--x0=1e308", "--dx=1e308", "--nx=5", "--ny=3",
                              axis="x")


def _refuses_overflowing_nodes(capsys, out, command):
    # nodes past the largest double: residual and oracle printed four
    # numpy RuntimeWarnings and blamed F (or erf in bound mode); tabulate
    # refuses the lattice before it samples, naming the x axis
    for mode in ("sommerfeld", "bound"):
        _refuses_coincident_nodes(capsys, out, command, f"--mode={mode}",
                                  "--x0=1e308", "--dx=1e308", "--nx=5",
                                  "--ny=5", axis="x")


def test_residual_refuses_coincident_nodes(tmp_path, capsys):
    _refuses_coincident_nodes(capsys, tmp_path / "r.txt", "residual",
                              "--dy=1e-30", "--nx=41", "--ny=41")
    _refuses_overflowing_nodes(capsys, tmp_path / "r.txt", "residual")


def test_oracle_refuses_coincident_nodes(tmp_path, capsys):
    _refuses_coincident_nodes(capsys, tmp_path / "o.csv", "oracle",
                              "--dy=1e-30", "--nx=41", "--ny=41")
    _refuses_overflowing_nodes(capsys, tmp_path / "o.csv", "oracle")


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
    # oracle printed "l2_rel": nan, each with exit 0; verify's samples
    # reach R = 30, and at k = 1e-100 it warned of an invalid divide and
    # exited 1 on a division by zero (k = 1e-14 passed)
    out = tmp_path / "never.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (("field", "--k=5e-324"), ("field", "--k=1e-300"),
                     ("oracle", "--k=1e-300"), ("residual", "--k=1e-300"),
                     ("verify", "--k=1e-100"), ("verify", "--k=1e-300"),
                     ("verify", "--k=1e-14")):
            code, stdout, err, wall = _timed(capsys, *argv, f"--out={out}")
            assert code == 2 and stdout == "" and wall < 1.0
            assert err.startswith("usage error: k = ") and err.count("\n") == 1
            assert "lose its digits" in err
    assert not out.exists()
    assert run_cli(capsys, "verify", "--k=1e-12")[0] == 0
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
                                     "--a_list=1:0.5:3", f"--out={out}")
    assert code == 1 and stdout == "" and wall < 1.0
    assert err.startswith("numerical failure: all amplitudes underflowed")
    assert not out.exists()


def test_tail_refuses_a_partly_underflowed_mode(tmp_path, capsys, monkeypatch):
    # at alpha = 300 the Born amplitude is 0 from a = 2.5 on but not at
    # a = 1: the fit met log(0) with a RuntimeWarning and refused a nan
    # residual, and then it spent 1.5 s on quadrature at a = 1, 1.5 and 2
    # before refusing; e^{-alpha a} is tested at every offset first
    quadratures = []
    integral = green_perturbation._continuum_integral
    monkeypatch.setattr(green_perturbation, "_continuum_integral",
                        lambda *args: quadratures.append(args) or integral(*args))
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(capsys, "tail", "--alpha=300",
                                "--a_list=1:0.5:3", f"--out={out}")
    assert code == 1 and stdout == ""
    assert err == ("numerical failure: the amplitude underflowed to 0 from "
                   "offset a = 2.5; fit is degenerate\n")
    assert not out.exists()
    assert quadratures == []


@pytest.mark.parametrize("alpha", ["0.5", "0.9", "40", "300", "1e6", "1e-13", "1e15"])
def test_tail_defaults_are_verifys_scan_at_any_alpha(tmp_path, capsys, alpha):
    # the offsets, k and probe scale with 1/alpha as verify's do; with the
    # absolute offsets 1:0.5:3 every alpha < 1 exited 2 (span below
    # 2/alpha), alpha = 40 exited 1 on a degraded fit and alpha = 300 on
    # an underflow
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(capsys, "tail", f"--alpha={alpha}", f"--out={out}")
    assert code == 0 and err == ""
    rec, a = json.loads(stdout.splitlines()[0]), float(alpha)
    assert rec["alpha"] == a and rec["k"] == 0.5 * a
    # slope over -2 alpha is alpha = 1's, 1.0000003012474905
    assert abs(rec["slope"] / (-2.0 * a) - 1.0000003012474905) <= 1e-9
    res = green_perturbation.tail_scan(a, *green_perturbation.tail_scan_defaults(a))
    assert out.read_text() == green_perturbation.tail_scan_csv(res)


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
