"""Spans and counts around the benchmark's calls into edgewave modules.

A span covers one call from a benchmark job into a public function of
an edgewave module (the layers), or one whole job (``bench.job``).  It
records name, start, end, parent span and job id, plus the work counts
the job attaches to it (``unknowns``, ``nnz``, ``points``, ``bytes``).
Spans stay in memory and are written once, as JSON lines, at exit.

Counts are kept per job in both modes, because the determinism check
compares them between a traced and an untraced pass over the same jobs;
only the traced mode keeps timestamps and spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Recorder:
    """The current job's counts and, when tracing, every job's spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job_id: int | None = None
        self.counts: Counter = Counter()

    def start_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.counts = Counter()

    @contextmanager
    def span(self, name: str):
        """Time one call; the body may attach counts to the yielded dict.

        An exception leaving the body marks the span failed and is
        re-raised.  ``failed`` may also be set by the body, for a call
        that reports failure through its return value.
        """
        attrs: dict = {}
        rec = None
        if self.trace:
            rec = {"id": len(self.spans), "name": name,
                   "parent": self._stack[-1] if self._stack else None,
                   "job": self.job_id, "start": time.perf_counter()}
            self.spans.append(rec)
            self._stack.append(rec["id"])
        try:
            yield attrs
        except BaseException:
            attrs["failed"] = 1
            raise
        finally:
            if rec is not None:
                rec["end"] = time.perf_counter()
                self._stack.pop()
                rec.update(attrs)
            if name != "bench.job":
                self.counts[f"{name}.calls"] += 1
                for key, val in attrs.items():
                    self.counts[f"{name}.{key}"] += val

    def write(self, path, header: dict, jobs: list[dict]) -> None:
        """JSON lines: the header, one line per job, one per span."""
        with open(path, "w") as fh:
            for rec in [header, *jobs, *self.spans]:
                fh.write(json.dumps(rec) + "\n")


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: self time ``busy_s``, ``calls`` and summed counts.

    Self time is a span's duration minus the time its child spans
    cover; children of one span never overlap, since jobs run one call
    at a time.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        a["busy_s"] += s["end"] - s["start"] - child_time[s["id"]]
        a["calls"] += 1
        for key, val in s.items():
            if key not in ("id", "name", "parent", "job", "start", "end"):
                a[key] += val
    return agg


def layer_metric(agg: dict, name: str) -> float:
    """Value of a per-layer metric ``<module>.<function>.<kind>``.

    Counts and busy time are sums over the traced pass; the rates
    divide a count by the layer's own busy time.
    """
    layer, kind = name.rsplit(".", 1)
    a = agg.get(layer, {})
    busy = a.get("busy_s", 0.0)
    if kind == "us_per_call":
        return 1e6 * busy / a["calls"] if a.get("calls") else 0.0
    if kind == "mb_per_s":
        return a.get("bytes", 0.0) / 1e6 / busy if busy else 0.0
    if kind.endswith("_per_s"):
        return a.get(kind[: -len("_per_s")], 0.0) / busy if busy else 0.0
    return float(a.get(kind, 0.0))
