"""Command-line front end: field dumps, residual checks, verification suite,
impurity tail scans and finite-difference oracle comparisons.

All numeric output uses fixed 17-significant-digit scientific notation, so
a config repeats its artifacts byte for byte on one machine, build, BLAS
thread count and SIMD level (across them the last digits may move).
Flags use the ``--key=value`` form with the key spelled out (no
abbreviations); the same keys may be given in a plain ``key=value``
config file (one per line, ``#`` comments), with precedence flag > file
> default.  Each command takes only the keys it reads, and each key
admits the values its parser states.  Exit status: 0 all checks passed,
1 numerical failure, out of memory or a closed stdout, 2 usage error (an
unknown command, a flag or key the command does not read, a value
outside its key's values, or a rule joining keys that the input alone
breaks).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from functools import partial

import numpy as np

from . import bound_edge, criteria, green_perturbation, oracle_fd, sommerfeld
from .geometry import PlanePoint
from .grid import FieldGrid, tabulate, write_csv

_A_RANGE_STEPS = 1000   # steps one start:step:stop range of a_list may span
# below this k*R (R the grid's largest distance from the tip, k the
# form's wavenumber: k for the free edge, |kappa| for the bound form)
# the two terms of size sqrt(pi/2k) cancel to the O(sqrt R) field and
# take its digits: against mpmath the Dirichlet free edge is within
# 5.1e-11 of max|psi| for k*R in [1e-11, 1e-10] on six boxes 2e-6 to 600
# wide, and 1.8e-10 off at k*R = 4.2e-13; k = 1e-300 gave zeros, 5e-324
# nan.  The bound form at |kappa|*R = 1e-11 on 20 points of [-3, 3]^2 is
# 3.3e-10 (k = alpha/2) and 2.2e-10 (k = 2 alpha) of max|psi| off, and
# 7.2e-10 and 4.6e-10 at 3e-12
_KR_FLOOR = 1e-11


def _parse_a_list(spec: str) -> list[float]:
    """Accept 'start:step:stop' (inclusive) or a comma-separated list of
    finite numbers; ValueError for anything else."""
    is_range = ":" in spec
    values = [float(p) for p in spec.split(":" if is_range else ",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(spec)
    if not is_range:
        return values
    start, step, stop = values            # ValueError unless three
    # counted before it is built; the span is inf for a subnormal step
    if not (step > 0 and stop >= start
            and (stop - start) / step <= _A_RANGE_STEPS):
        raise ValueError(spec)
    n = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(n)]


# the values a key admits: (what they are, conversion, test of the result)
_FINITE = ("a finite number", float, math.isfinite)
_NONZERO = ("a nonzero finite number", float, lambda v: v != 0 and math.isfinite(v))
_POSITIVE = ("a positive finite number", float, lambda v: 0 < v < math.inf)
_NON_NEGATIVE = ("a finite number >= 0", float, lambda v: 0 <= v < math.inf)
_COUNT = ("an integer >= 2", int, lambda n: n >= 2)
_PATH = ("a file name", str, lambda s: True)
_OFFSETS = (f"finite numbers, as start:step:stop (step > 0, stop >= "
            f"start, at most {_A_RANGE_STEPS} steps) or a comma list",
            _parse_a_list, lambda v: True)


def _one_of(*names: str):
    return f"one of {', '.join(names)}", str, names.__contains__


# each command's keys: (default, values); a None default is derived by
# the command or means "not given"
_GRID_KEYS = {
    "mode": ("sommerfeld", _one_of("sommerfeld", "bound")),
    "alpha": ("1", _FINITE),        # positive in bound mode: _closed_form
    "k": ("2", _POSITIVE),
    "a": ("0", _NON_NEGATIVE),
    "bc": ("dirichlet", _one_of("dirichlet", "neumann")),
    "x0": ("-3", _FINITE),
    "y0": ("-3", _FINITE),
    "dx": ("0.03", _POSITIVE),
    "dy": ("0.03", _POSITIVE),
    "nx": ("201", _COUNT),
    "ny": ("201", _COUNT),
    "out": (None, _PATH),
}
# the FD oracle solves the Dirichlet barrier only
_ORACLE_KEYS = {**_GRID_KEYS, "bc": ("dirichlet", _one_of("dirichlet"))}
_LATTICE = ("x0", "y0", "dx", "dy", "nx", "ny")     # the keys that place the nodes
_TAIL_KEYS = {
    "alpha": ("1", _POSITIVE),
    "k": (None, _POSITIVE),         # None: from verify's scan, tail_scan_defaults
    "lam": (None, _NONZERO),        # a zero impurity has no Born field
    "a_list": (None, _OFFSETS),
    "probe_x": (None, _FINITE),
    "probe_y": (None, _FINITE),
    "out": (None, _PATH),
}
_VERIFY_KEYS = {"alpha": ("1", _POSITIVE), "k": ("2", _POSITIVE),
                "a": ("0", _NON_NEGATIVE), "out": (None, _PATH)}


def _coerce(key: str, raw: str, values):
    """``raw`` as a value of ``key``, or a usage error naming the key."""
    what, convert, admits = values
    try:
        val = convert(raw)
        if admits(val):
            return val
    except ValueError:
        pass
    raise SystemExit(f"usage error: {key} must be {what}, got {raw!r}")


def _read_config_file(path: str, keys) -> list[tuple[str, str]]:
    """The raw ``(key, value)`` pairs of a config file, in file order."""
    pairs = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SystemExit(
                        f"usage error: {path}:{lineno}: expected key=value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in keys:
                    raise SystemExit(f"usage error: unknown config key {key!r}")
                pairs.append((key, raw))
    except OSError as exc:
        raise SystemExit(f"usage error: cannot read config {path}: {exc}") from exc
    return pairs


def _merge(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; every value given is
    checked, one that a later line or a flag overrides included."""
    keys = _COMMANDS[args.command][1]
    pairs = [(key, default) for key, (default, _) in keys.items()]
    if args.config:
        pairs += _read_config_file(args.config, keys)
    pairs += [(key, getattr(args, key)) for key in keys]
    cfg = dict.fromkeys(keys)
    cfg.update((key, _coerce(key, raw, keys[key][1]))
               for key, raw in pairs if raw is not None)
    return cfg


def _kv(record: dict) -> str:
    """Render a flat record as a deterministic JSON-like line."""
    parts = []
    for key, val in record.items():
        if isinstance(val, bool):
            parts.append(f'"{key}": {"true" if val else "false"}')
        elif isinstance(val, float):
            parts.append(f'"{key}": {val:.16e}')
        elif val is None:
            parts.append(f'"{key}": null')
        else:
            parts.append(f'"{key}": {val}')
    return "{" + ", ".join(parts) + "}"


def _closed_form(cfg: dict):
    """(E, wave, alpha, values) of the closed form ``mode`` names, where
    ``wave`` is the form's wavenumber (k for the free edge, kappa for the
    bound form) and ``values(X, Y)`` samples the field; the one place
    that reads ``mode``.  Each entry refuses a configuration outside its
    form's domain: the bound form needs a = 0, bc = dirichlet and the
    (alpha, k) that WaveguideParams admits, k != alpha among them, and
    both need |wave| times the grid's reach R from the tip to be at
    least _KR_FLOOR."""
    alpha, k = cfg["alpha"], cfg["k"]
    if cfg["mode"] == "bound":
        if cfg["a"] != 0.0 or cfg["bc"] != "dirichlet":
            raise SystemExit("usage error: the bound closed form requires "
                             "a = 0 and bc = dirichlet")
        try:
            f = bound_edge.make_field(alpha, k)
        except ValueError as exc:
            raise SystemExit(f"usage error: {exc}") from exc
        E, wave = f.params.E, f.params.kappa
        what, form, name = (f"alpha = {alpha!r}, k = {k!r}: |kappa| = {abs(wave)!r}",
                            "bound", "|kappa|")
        values = lambda X, Y: bound_edge.field_values(f, X, Y)
    else:
        geom = sommerfeld.EdgeGeometry(a=cfg["a"], bc=cfg["bc"])
        E, wave, alpha = k * k, k, 0.0
        what, form, name = f"k = {k!r}", "free-edge", "k"
        values = lambda X, Y: sommerfeld.field_values(k, geom, X, Y)
    x1 = cfg["x0"] + (cfg["nx"] - 1) * cfg["dx"]
    y1 = cfg["y0"] + (cfg["ny"] - 1) * cfg["dy"]
    reach = max(math.hypot(x - cfg["a"], y)
                for x in (cfg["x0"], x1) for y in (cfg["y0"], y1))
    _require_reach(what, wave, "the grid's", reach, form, name)
    return E, wave, alpha, values


def _require_reach(what: str, wave, whose: str, reach: float, form: str,
                   name: str) -> None:
    """A usage error unless |wave| times ``reach`` is at least _KR_FLOOR."""
    if not abs(wave) * reach >= _KR_FLOOR:
        raise SystemExit(
            f"usage error: {what} times {whose} largest distance from "
            f"the tip, {reach!r}, is below {_KR_FLOOR:g}: the {form} "
            f"field's two terms of size sqrt(pi/2{name}) cancel and lose "
            f"its digits")


def _analytic_grid(cfg: dict, alpha: float, values) -> FieldGrid:
    return tabulate(values, *(cfg[key] for key in _LATTICE), edge_a=cfg["a"],
                    delta_line=alpha != 0.0, dirichlet=cfg["bc"] == "dirichlet")


def _cmd_field(cfg: dict) -> int:
    grid = _analytic_grid(cfg, *_closed_form(cfg)[2:])
    out = cfg["out"] or "field.csv"
    write_csv(grid, out)
    print(f"wrote {out}")
    return 0


def _cmd_residual(cfg: dict) -> int:
    _, wave, alpha, values = _closed_form(cfg)
    rep = sommerfeld.helmholtz_residual(_analytic_grid(cfg, alpha, values), wave)
    line = _kv(dataclasses.asdict(rep))
    print(line)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(line + "\n")
    return 0


def _cmd_tail(cfg: dict) -> int:
    alpha = cfg["alpha"]
    try:
        k, lam, a_list, probe = green_perturbation.tail_scan_defaults(alpha)
        given = lambda key, default: default if cfg[key] is None else cfg[key]
        scan = (alpha, given("k", k), given("lam", lam), given("a_list", a_list),
                PlanePoint(given("probe_x", probe.x), given("probe_y", probe.y)))
        green_perturbation.tail_scan_inputs(*scan)
    except ValueError as exc:
        raise SystemExit(f"usage error: {exc}") from exc
    res = green_perturbation.tail_scan(*scan)
    out = cfg["out"] or "tail.csv"
    with open(out, "w") as fh:
        fh.write(green_perturbation.tail_scan_csv(res))
    print(_kv({"slope": res.slope, "residual": res.residual, "alpha": alpha, "k": scan[1]}))
    print(f"wrote {out}")
    return 0


def _cmd_oracle(cfg: dict) -> int:
    E, _, alpha, values = _closed_form(cfg)
    ana = _analytic_grid(cfg, alpha, values)
    prob = oracle_fd.FdProblem(**{key: cfg[key] for key in _LATTICE}, E=E,
                               alpha=alpha, edge_a=cfg["a"], boundary=values)
    fd = oracle_fd.solve(oracle_fd.assemble(prob))
    rep = oracle_fd.compare(ana, fd, E=E)
    flat = {k2: v for k2, v in rep.items() if k2 != "quadrants"}
    print(_kv(flat))
    # a quadrant without nodes has no error to report: no line
    for name, val in rep["quadrants"].items():
        if not math.isnan(val):
            print(f'  quadrant {name}: {val:.16e}')
    if cfg["out"]:
        write_csv(fd, cfg["out"])
        print(f"wrote {cfg['out']}")
    return 0


def _run_check(run: partial) -> criteria.Check:
    """run(), or a FAIL naming the check if its numerics raise."""
    try:
        return run()
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        return criteria.Check(run.func.__name__.replace("_", "-"), math.nan,
                              math.nan, False, f"numerical failure: {exc}")


def _cmd_verify(cfg: dict) -> int:
    alpha, k, a = cfg["alpha"], cfg["k"], cfg["a"]
    # edge_ray_zero's samples reach farthest; the stencil boxes 3 sqrt 2
    _require_reach(f"k = {k!r}", k, "verify's free-edge samples'",
                   criteria.RAY_REACH, "free-edge", "k")
    if a + criteria.RAY_NEAR == a:
        raise SystemExit(
            f"usage error: a = {a!r}: the face samples a + r from "
            f"r = {criteria.RAY_NEAR:g} round to the tip a")
    # the guided modes the checks build: k = 0.2, 0.5 and 2 alpha
    for m in (0.2, 0.5, 2.0):
        try:
            bound_edge.make_field(alpha, m * alpha)
        except ValueError as exc:
            raise SystemExit(f"usage error: {exc}") from exc
    rng = np.random.default_rng(0)
    draws = [(k, complex(rng.uniform(-3, 3), rng.uniform(-1, 1)))
             for _ in range(8)]
    checks = [_run_check(run) for run in (
        partial(criteria.flux_conservation, [alpha], tol=1e-13),
        partial(criteria.bound_pole_location, (0.5, 1.0, 2.0), tol=1e-12),
        partial(criteria.fresnel_cross_validation, draws, quad_tol=1e-12, tol=1e-9),
        partial(criteria.edge_ray_zero, k, a, tol=1e-12),
        partial(criteria.stencil_residual_order, k, (101, 201, 401), tol=1.8),
        partial(criteria.coordinate_conjugation, seed=1, tol=1e-12),
        partial(criteria.guided_products, [alpha], tol=1e-12),
        partial(criteria.guided_tail_slope, alpha, tol=0.01),
        partial(criteria.impurity_tail_slope, alpha, tol=0.05),
    )]
    text = "".join(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}\n"
                   for c in checks)
    all_ok = all(c.ok for c in checks)
    print(text + "verify:", "all checks passed" if all_ok else "CHECKS FAILED")
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    return 0 if all_ok else 1


_COMMANDS = {
    "field": (_cmd_field, _GRID_KEYS),
    "residual": (_cmd_residual, _GRID_KEYS),
    "verify": (_cmd_verify, _VERIFY_KEYS),
    "tail": (_cmd_tail, _TAIL_KEYS),
    "oracle": (_cmd_oracle, _ORACLE_KEYS),
}


def _build_parser() -> argparse.ArgumentParser:
    # no prefix abbreviations: a flag is one of the keys, spelled out, or
    # a usage error (``--h`` must not become ``--help``)
    parser = argparse.ArgumentParser(
        prog="edgewave", allow_abbrev=False,
        description="Waveguide-edge diffraction fields, verification suite, "
                    "tail scans and finite-difference oracle runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", default=None,
                        help="key=value file; flags override it")
        for key in keys:
            sp.add_argument(f"--{key}", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = _COMMANDS[args.command][0](_merge(args))
        sys.stdout.flush()          # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:     # stdout to devnull: the exit flush must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("edgewave: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # our usage errors carry their message in the code attribute
        print(exc.code if isinstance(exc.code, str) else str(exc),
              file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
