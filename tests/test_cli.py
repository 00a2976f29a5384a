"""Command-line interface: determinism, config precedence, exit codes."""

import json

import numpy as np
import pytest

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


def test_residual_record(capsys):
    code, stdout, _ = run_cli(capsys, "residual", "--nx=61", "--ny=61",
                              "--dx=0.1", "--dy=0.1", "--x0=-3", "--y0=-3")
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert {"max_res", "l2_res", "n_nodes", "dx", "dy"} <= set(rec)


def test_oracle_record(capsys):
    code, stdout, _ = run_cli(capsys, "oracle", "--nx=61", "--ny=61",
                              "--dx=0.1", "--dy=0.1", "--x0=-3", "--y0=-3",
                              "--k=2")
    assert code == 0
    rec = json.loads(stdout.splitlines()[0])
    assert rec["l2_rel"] < 0.05
    assert rec["E"] == 4.0


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
        assert err.startswith("usage error: ")
    # flags are whole keys: no abbreviation, and no key h
    for flag in ("--h=0.5", "--h", "--alph=1"):
        code, _, err = run_cli(capsys, "field", flag)
        assert code == 2
        assert "unrecognized arguments" in err
    assert run_cli(capsys, "field", "--nx=oops")[0] == 2
    assert run_cli(capsys, "field", "--mode=bound", "--a=0.5")[0] == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=3\n")
    assert run_cli(capsys, "field", f"--config={cfg}")[0] == 2


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


def test_overflow_exits_1(tmp_path, capsys):
    # erf_cx overflows far out on the bound-mode grid: a numerical
    # failure, reported without a traceback
    code, _, err = run_cli(capsys, "field", "--mode=bound", "--k=40",
                           "--alpha=50", "--x0=-300", "--y0=-300",
                           "--dx=30", "--dy=30", "--nx=21", "--ny=21",
                           f"--out={tmp_path / 'b.csv'}")
    assert code == 1
    assert err.startswith("numerical failure: ")


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
