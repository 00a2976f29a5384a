"""Command-line front end: field dumps, residual checks, verification suite,
impurity tail scans and finite-difference oracle comparisons.

All numeric output uses fixed 17-significant-digit scientific notation so
identical configs produce byte-identical artifacts.  Flags use the
``--key=value`` form with the key spelled out (no abbreviations); the
same keys may be given in a plain ``key=value`` config file (one per
line, ``#`` comments), with precedence flag > file > default.  Exit
status: 0 all checks passed, 1 numerical failure, 2 usage error (an
unknown command, flag or key, or a value that does not parse).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bound_edge, criteria, green_perturbation, oracle_fd, sommerfeld
from .geometry import PlanePoint
from .grid import build_mask, write_csv, FieldGrid
from .grid import _fmt as fmt

_DEFAULTS = {
    "mode": "sommerfeld",
    "alpha": 1.0,
    "k": 2.0,
    "a": 0.0,
    "bc": "dirichlet",
    "c0": 1.0,
    "x0": -3.0,
    "y0": -3.0,
    "dx": 0.03,
    "dy": 0.03,
    "nx": 201,
    "ny": 201,
    "lam": 1.0,
    "a_list": "1:0.5:3",
    "probe_x": 0.0,
    "probe_y": None,
    "out": None,
}

_TYPES = {
    "mode": str, "bc": str, "a_list": str, "out": str,
    "nx": int, "ny": int,
}

_A_RANGE_STEPS = 1000   # steps one start:step:stop range of a_list may span


def _coerce(key: str, raw: str):
    ty = _TYPES.get(key, float)
    try:
        return ty(raw)
    except ValueError as exc:
        raise SystemExit(f"usage error: bad value for {key}: {raw!r}") from exc


def _read_config_file(path: str) -> dict:
    cfg = {}
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
                if key not in _DEFAULTS:
                    raise SystemExit(f"usage error: unknown config key {key!r}")
                cfg[key] = _coerce(key, raw)
    except OSError as exc:
        raise SystemExit(f"usage error: cannot read config {path}: {exc}") from exc
    return cfg


def _parse_a_list(spec: str) -> list[float]:
    """Accept 'start:step:stop' (inclusive) or a comma-separated list."""
    is_range = ":" in spec
    try:
        values = [float(p) for p in spec.split(":" if is_range else ",")]
        ok = all(map(math.isfinite, values))
    except ValueError:
        ok = False
    if not ok:
        raise SystemExit(f"usage error: a_list needs finite numbers: {spec!r}")
    if not is_range:
        return values
    if len(values) != 3:
        raise SystemExit("usage error: a range must be start:step:stop")
    start, step, stop = values
    if step <= 0 or stop < start:
        raise SystemExit("usage error: need step > 0 and stop >= start")
    span = (stop - start) / step          # inf for a subnormal step
    if not span <= _A_RANGE_STEPS:
        raise SystemExit(f"usage error: a range may span at most {_A_RANGE_STEPS} steps")
    n = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def _merge(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    explicit = set()
    if args.config:
        file_cfg = _read_config_file(args.config)
        cfg.update(file_cfg)
        explicit |= set(file_cfg)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _coerce(key, val)
            explicit.add(key)
    cfg["_explicit"] = explicit
    return cfg


def _kv(record: dict) -> str:
    """Render a flat record as a deterministic JSON-like line."""
    parts = []
    for key, val in record.items():
        if isinstance(val, bool):
            parts.append(f'"{key}": {"true" if val else "false"}')
        elif isinstance(val, float):
            parts.append(f'"{key}": {fmt(val)}')
        elif val is None:
            parts.append(f'"{key}": null')
        else:
            parts.append(f'"{key}": {val}')
    return "{" + ", ".join(parts) + "}"


def _analytic_grid(cfg: dict) -> FieldGrid:
    if cfg["mode"] == "sommerfeld":
        geom = sommerfeld.EdgeGeometry(a=cfg["a"], bc=cfg["bc"])
        return sommerfeld.field_on_grid(
            cfg["k"], geom, cfg["x0"], cfg["y0"], cfg["dx"], cfg["dy"],
            cfg["nx"], cfg["ny"], C0=cfg["c0"])
    if cfg["mode"] == "bound":
        if cfg["a"] != 0.0:
            raise SystemExit(
                "usage error: the bound closed form requires a = 0")
        f = bound_edge.make_field(cfg["alpha"], cfg["k"], C0=cfg["c0"])
        mask = build_mask(cfg["x0"], cfg["y0"], cfg["dx"], cfg["dy"],
                          cfg["nx"], cfg["ny"], edge_a=0.0, delta_line=True)
        xs = cfg["x0"] + cfg["dx"] * np.arange(cfg["nx"])
        ys = cfg["y0"] + cfg["dy"] * np.arange(cfg["ny"])
        X, Y = np.meshgrid(xs, ys)
        vals = bound_edge.field_values(f, X, Y)
        return FieldGrid(x0=cfg["x0"], y0=cfg["y0"], dx=cfg["dx"],
                         dy=cfg["dy"], nx=cfg["nx"], ny=cfg["ny"],
                         values=vals, mask=mask)
    raise SystemExit(f"usage error: unknown mode {cfg['mode']!r}")


def _cmd_field(cfg: dict) -> int:
    grid = _analytic_grid(cfg)
    out = cfg["out"] or "field.csv"
    write_csv(grid, out)
    print(f"wrote {out}")
    return 0


def _cmd_residual(cfg: dict) -> int:
    grid = _analytic_grid(cfg)
    E = cfg["k"] ** 2 if cfg["mode"] == "sommerfeld" \
        else cfg["k"] ** 2 - cfg["alpha"] ** 2
    k_eff = math.sqrt(E) if E >= 0 else 1j * math.sqrt(-E)
    rep = sommerfeld.helmholtz_residual(grid, k_eff)
    record = {"max_res": rep.max_res, "l2_res": rep.l2_res,
              "n_nodes": rep.n_nodes, "dx": rep.dx, "dy": rep.dy,
              "coarse_warning": rep.coarse_warning}
    line = _kv(record)
    print(line)
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(line + "\n")
    return 0


def _cmd_tail(cfg: dict) -> int:
    alpha = cfg["alpha"]
    # the global default k targets the open regime; the scan lives in the
    # trapped one, so an unset k falls back to alpha/2
    k = cfg["k"] if "k" in cfg.get("_explicit", ()) else 0.5 * alpha
    if not 0 < k < alpha:
        raise SystemExit("usage error: tail scan needs 0 < k < alpha")
    probe_y = cfg["probe_y"] if cfg["probe_y"] is not None else -12.0 / alpha
    probe = PlanePoint(cfg["probe_x"], probe_y)
    res = green_perturbation.tail_scan(
        alpha, k, cfg["lam"], _parse_a_list(cfg["a_list"]), probe)
    out = cfg["out"] or "tail.csv"
    with open(out, "w") as fh:
        fh.write(green_perturbation.tail_scan_csv(res))
    print(_kv(res.summary()))
    print(f"wrote {out}")
    return 0


def _cmd_oracle(cfg: dict) -> int:
    ana = _analytic_grid(cfg)
    if cfg["mode"] == "sommerfeld":
        E, alpha, edge_a = cfg["k"] ** 2, 0.0, cfg["a"]
        geom = sommerfeld.EdgeGeometry(a=cfg["a"], bc=cfg["bc"])

        def sampler(X, Y):
            return sommerfeld.field_values(cfg["k"], geom, X, Y, C0=cfg["c0"])
    else:
        E = cfg["k"] ** 2 - cfg["alpha"] ** 2
        alpha, edge_a = cfg["alpha"], 0.0
        f = bound_edge.make_field(cfg["alpha"], cfg["k"], C0=cfg["c0"])

        def sampler(X, Y):
            return bound_edge.field_values(f, X, Y)

    prob = oracle_fd.FdProblem(
        x0=cfg["x0"], y0=cfg["y0"], dx=cfg["dx"], dy=cfg["dy"],
        nx=cfg["nx"], ny=cfg["ny"], E=E, alpha=alpha, edge_a=edge_a,
        bc=cfg["bc"], boundary=sampler)
    fd = oracle_fd.solve(oracle_fd.assemble(prob))
    rep = oracle_fd.compare(ana, fd, E=E)
    flat = {k2: v for k2, v in rep.items() if k2 != "quadrants"}
    print(_kv(flat))
    for name, val in rep["quadrants"].items():
        print(f'  quadrant {name}: {fmt(val)}')
    if cfg["out"]:
        write_csv(fd, cfg["out"])
        print(f"wrote {cfg['out']}")
    return 0


def _cmd_verify(cfg: dict) -> int:
    alpha, k = cfg["alpha"], cfg["k"]
    rng = np.random.default_rng(0)
    draws = [(k, complex(rng.uniform(-3, 3), rng.uniform(-1, 1)))
             for _ in range(8)]
    checks = [
        criteria.flux_conservation([alpha], tol=1e-13),
        criteria.bound_pole_location((0.5, 1.0, 2.0), tol=1e-12),
        criteria.fresnel_cross_validation(draws, quad_tol=1e-12, tol=1e-9),
        criteria.edge_ray_zero(k, cfg["a"], tol=1e-12),
        criteria.stencil_residual_order(k, (101, 201, 401), tol=1.8),
        criteria.coordinate_conjugation(seed=1, tol=1e-12),
        criteria.guided_products([alpha], tol=1e-12),
        criteria.guided_tail_slope(alpha, tol=0.01),
        criteria.impurity_tail_slope(alpha, tol=0.05),
    ]
    text = "".join(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}\n"
                   for c in checks)
    all_ok = all(c.ok for c in checks)
    print(text + "verify:", "all checks passed" if all_ok else "CHECKS FAILED")
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    return 0 if all_ok else 1


_COMMANDS = {
    "field": _cmd_field,
    "residual": _cmd_residual,
    "verify": _cmd_verify,
    "tail": _cmd_tail,
    "oracle": _cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    # no prefix abbreviations: a flag is one of the keys, spelled out, or
    # a usage error (``--h`` must not become ``--help``)
    parser = argparse.ArgumentParser(
        prog="edgewave", allow_abbrev=False,
        description="Waveguide-edge diffraction fields, verification suite, "
                    "tail scans and finite-difference oracle runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", default=None,
                        help="key=value file; flags override it")
        for key in _DEFAULTS:
            sp.add_argument(f"--{key}", default=None)
    return parser


def run(command: str, cfg: dict) -> int:
    """Dispatch a merged, validated config; returns the exit status."""
    # alpha enters only the bound closed form, tail scans and verify
    keys = ["k", "dx", "dy"]
    if cfg["mode"] == "bound" or command in ("tail", "verify"):
        keys.append("alpha")
    for key in keys:
        if not cfg[key] > 0:
            raise SystemExit(f"usage error: {key} must be positive")
    if cfg["nx"] < 2 or cfg["ny"] < 2:
        raise SystemExit("usage error: nx, ny must be >= 2")
    return _COMMANDS[command](cfg)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args.command, _merge(args))
    except SystemExit as exc:
        # our usage errors carry their message in the code attribute
        print(exc.code if isinstance(exc.code, str) else str(exc),
              file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
