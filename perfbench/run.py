"""Run one edgewave benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fd-oracle --seed 1 --seconds 48 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory, so nothing needs installing.  Jobs run closed-loop in this
one process, one at a time.  ``--seconds`` sets how many blocks of jobs
the seed expands to, sized by their job time on the reference machine
(``workloads.BLOCK_SECONDS``), so a seed fixes the work exactly.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` records spans over half as many blocks, replays the same
jobs untraced, and prints the per-layer metrics; the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.  Both print, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit and
sample count, the job mix and the provenance.

``correct`` is false when a job's output contradicts its reference or
when the exact work counts differ between two runs of the same jobs.
A job that raises, or a ``verify`` that exits non-zero, counts in
``failed`` (and in the printed ``fail_frac``) and enters the latency
percentiles as +inf.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# one BLAS thread (nproc is 2): the solves use SuperLU's own kernels, and
# a second thread only adds run-to-run spread on a shared machine
BLAS_THREADS = "1"
# fresh processes timed for setup_s; their median is reported
SETUP_PROBES = 3


def _parse_args(workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import, run the warm-up job, report, exit")
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _git_commit():
    """Commit id read from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "blas_threads": BLAS_THREADS,
            "git_commit": _git_commit()}


def _run_job(rec, job_id, cls, params):
    """Run and check one job; returns its record."""
    from workloads import JOBS, CheckFailed
    run, check = JOBS[cls]
    rec.start_job(job_id)
    status, error = "ok", None
    t0 = time.perf_counter()
    try:
        with rec.span("bench.job"):
            out = run(rec, params)
    except Exception as exc:  # the job boundary: count it and go on
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if status == "ok":
        try:
            check(params, out)
        except CheckFailed as exc:
            status, error = "wrong", str(exc)
    return {"id": job_id, "class": cls, "params": params, "wall": wall,
            "status": status, "error": error, "counts": dict(rec.counts)}


def _run_all(rec, jobs):
    return [_run_job(rec, i, cls, params) for i, (cls, params) in enumerate(jobs)]


def _rank(sorted_vals, q):
    """Nearest-rank q-th percentile."""
    return sorted_vals[max(0, math.ceil(q / 100.0 * len(sorted_vals)) - 1)]


def _tail_percentile(n):
    """Highest whole percentile up to 90 with at least ten jobs beyond it."""
    for q in range(90, 0, -1):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None


def _setup_probes(args):
    """Time SETUP_PROBES fresh processes from start to the first timed job."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    setup, imports, counts = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line:
            raise RuntimeError(f"setup probe exited {code}")
        rep = json.loads(line)
        setup.append(t1 - t0)
        imports.append(rep["import_s"])
        counts.append(rep["counts"])
    return setup, imports, counts


def _print_classes(records):
    by_class = {}
    for r in records:
        by_class.setdefault(r["class"], []).append(r["wall"])
    for cls, walls in sorted(by_class.items()):
        print(f"class {cls}: {len(walls)} jobs, wall median {statistics.median(walls):.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s")


def _report_failures(records):
    reasons = Counter((r["class"], r["status"], r["error"])
                      for r in records if r["status"] != "ok")
    for (cls, status, why), n in sorted(reasons.items()):
        print(f"{status} {cls} x{n}: {why}")


def _end_to_end(records, setup):
    """The end-to-end metrics and, per metric, how it was sampled."""
    n = len(records)
    passed = sum(r["status"] == "ok" for r in records)
    times = sorted(r["wall"] if r["status"] == "ok" else math.inf for r in records)
    q = _tail_percentile(n)
    busy = sum(r["wall"] for r in records)
    values = {
        "setup_s": statistics.median(setup),
        "job_p50_s": _rank(times, 50),
        "job_tail_s": _rank(times, q) if q else times[-1],
        "jobs_per_s": passed / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: "
                   + " ".join(f"{s:.3f}" for s in setup),
        "job_p50_s": f"n={n} jobs",
        "job_tail_s": f"p{q}, n={n} jobs, {n - math.ceil(q / 100.0 * n)} beyond"
                      if q else f"max, n={n} jobs",
        "jobs_per_s": f"{passed} passed / {busy:.3f} s of job time",
        "peak_rss_mb": "getrusage ru_maxrss of this process",
    }
    return values, notes


def _per_layer(spans, records, replay, imports, names):
    from spans import aggregate, layer_metric
    agg = aggregate(spans)
    special = {
        "setup.import_s": statistics.median(imports),
        "bench.self_s": agg.get("bench.job", {}).get("busy_s", 0.0),
        "bench.trace_overhead_s": sum(r["wall"] for r in records)
        - sum(r["wall"] for r in replay),
    }
    return {name: special[name] if name in special else layer_metric(agg, name)
            for name in names}


def _work_digest(records):
    """Hash of every job's class, parameters and work counts: two runs
    with the same seed and length must print the same digest."""
    work = [(r["class"], r["params"], r["counts"]) for r in records]
    return hashlib.sha256(json.dumps(work, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args = _parse_args([w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(SRC, "edgewave", "__init__.py")):
        print(f"perfbench: no edgewave package under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    from spans import Recorder

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    warm_cls, warm_params = workloads.WARMUP[args.workload]
    if args.setup_probe:
        warm = _run_job(Recorder(False), 0, warm_cls, warm_params)
        if warm["status"] != "ok":
            print(f"warm-up job {warm['status']}: {warm['error']}", file=sys.stderr)
            return 1
        print(json.dumps({"import_s": import_s, "counts": warm["counts"]}), flush=True)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(_provenance(args)))
    setup, imports, probe_counts = _setup_probes(args)
    imports.append(import_s)
    warm = _run_job(Recorder(False), 0, warm_cls, warm_params)
    errors = [f"warm-up job {warm['status']}: {warm['error']}"] \
        if warm["status"] != "ok" else []
    if any(c != warm["counts"] for c in probe_counts):
        errors.append("warm-up counts differ between processes")

    # a traced run spends half its time on the replay
    share = args.seconds / (2.0 if args.trace else 1.0)
    blocks = max(1, round(share / workloads.BLOCK_SECONDS[args.workload]))
    jobs = workloads.plan(args.workload, args.seed, blocks)
    print(f"{len(jobs)} jobs in {blocks} blocks")
    if args.trace:
        traced = Recorder(True)
        records = _run_all(traced, jobs)
        replay = [_run_job(Recorder(False), r["id"], r["class"], r["params"])
                  for r in records]
        errors += [f"job {a['id']} ({a['class']}) counts {a['counts']} traced, "
                   f"{b['counts']} untraced" for a, b in zip(records, replay)
                   if a["counts"] != b["counts"]]
        metrics = spec["per_layer"]
        values = _per_layer(traced.spans, records, replay, imports,
                            [m["name"] for m in metrics])
        notes = {}
        path = os.path.join(workloads.OUT_DIR,
                            f"trace-{args.workload}-{args.seed}.jsonl")
        traced.write(path, _provenance(args),
                     [{k: r[k] for k in ("id", "class", "params", "wall", "status",
                                         "error")} for r in records])
        print(f"per-layer metrics from {len(traced.spans)} spans over the traced "
              f"pass; spans written to {os.path.relpath(path, ROOT)}")
    else:
        records = _run_all(Recorder(False), jobs)
        metrics = spec["end_to_end"]
        values, notes = _end_to_end(records, setup)

    _print_classes(records)
    _report_failures(records)
    failed = sum(r["status"] != "ok" for r in records)
    print(f"fail_frac {failed / len(records):.6g} ({failed}/{len(records)} jobs failed)")
    print(f"work digest {_work_digest(records)}")
    units = {m["name"]: m["unit"] for m in metrics}
    for name, val in values.items():
        print(f"{name} {val:.6g} {units[name]}" + (f" ({notes[name]})" if name in notes else ""))
    if not all(math.isfinite(v) for v in values.values()):
        errors.append("a metric is not finite: more than one job in ten failed")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if not all(math.isfinite(v) for v in values.values()):
        return 1
    result = {
        "correct": not errors and all(r["status"] != "wrong" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]}
                    for name, val in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
