"""Spans and the per-layer wall-time ledger of a traced benchmark run.

Two instruments, both used only in the traced run (``--trace``):

* :class:`Tracer` records a span around each call the benchmark makes
  into a layer.  Spans stay in memory and are written once at the end.
* :func:`layer_ledger` splits one profiled call (stdlib ``cProfile``)
  into layers by the file each function lives in.  Time spent in C
  builtins and in non-repro Python (stdlib) is charged to the callers
  that spent it, using pstats' per-caller times, so ``list.append`` in
  the scheduler counts as scheduler time.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time

#: Layers of the ledger, in pipeline order.  ``numpy`` covers numpy and
#: scipy; ``other`` is what no layer claims (profiler and harness frames).
LAYERS = (
    "workloads", "sparse", "plan", "trees", "collectives", "pselinv",
    "simulate", "obs", "volume", "runner", "analysis", "numpy",
)

#: ``src/repro``-relative path prefix -> layer.  The longest matching
#: prefix wins; every module of the package must be covered (tested).
MODULE_LAYERS = {
    "workloads/": "workloads",
    "sparse/": "sparse",
    "core/plan.py": "plan",
    "core/plan_unsym.py": "plan",
    "core/grid.py": "plan",
    "comm/trees.py": "trees",
    "comm/": "collectives",
    "core/pselinv.py": "pselinv",
    "core/pselinv_unsym.py": "pselinv",
    "core/__init__.py": "pselinv",
    "simulate/": "simulate",
    "obs/": "obs",
    "core/volume.py": "volume",
    "runner/": "runner",
    "cli.py": "runner",
    "__init__.py": "runner",
    "__main__.py": "runner",
    "analysis/": "analysis",
    "check/": "analysis",
}

_PKG_MARK = "/src/repro/"
_NUMPY_MARKS = ("/numpy/", "/scipy/")


def layer_of_module(relpath: str) -> str | None:
    """Layer of a ``src/repro``-relative module path (None if unmapped)."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if relpath.startswith(prefix) and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


def layer_of_function(func: tuple) -> str | None:
    """Layer owning a pstats function key ``(file, line, name)``."""
    filename, _, name = func
    path = filename.replace(os.sep, "/")
    i = path.rfind(_PKG_MARK)
    if i >= 0:
        return layer_of_module(path[i + len(_PKG_MARK):])
    if any(mark in path for mark in _NUMPY_MARKS):
        return "numpy"
    if filename == "~" and ("numpy" in name or "scipy" in name):
        return "numpy"
    return None


def layer_ledger(stats: pstats.Stats) -> dict[str, float]:
    """Self time (s) per layer of one profile, plus ``other``.

    A function no layer owns hands its self time to its callers, in
    proportion to the time it spent under each caller, recursively;
    time with no owning ancestor (or only a recursive one) is ``other``.
    """
    raw = stats.stats  # func -> (cc, nc, tt, ct, callers)
    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func: tuple, active: set) -> dict[str, float]:
        if func in shares:
            return shares[func]
        own = layer_of_function(func)
        if own is not None:
            out = {own: 1.0}
        else:
            callers = raw[func][4] if func in raw else {}
            edges = [
                (caller, edge[2] or edge[3] or edge[1])
                for caller, edge in callers.items()
                if caller not in active
            ]
            total = sum(w for _, w in edges)
            out = {}
            if total <= 0:
                out["other"] = 1.0
            else:
                active.add(func)
                for caller, w in edges:
                    for layer, s in share_of(caller, active).items():
                        out[layer] = out.get(layer, 0.0) + s * w / total
                active.discard(func)
        shares[func] = out
        return out

    ledger = dict.fromkeys((*LAYERS, "other"), 0.0)
    for func, (_, _, tt, _, _) in raw.items():
        for layer, s in share_of(func, set()).items():
            ledger[layer] += tt * s
    return ledger


class Tracer:
    """In-memory spans: name, start, end (``perf_counter`` seconds) and
    the index of the enclosing span, plus one cProfile profile of the
    :meth:`profiled` spans."""

    active = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def profiled(self, name: str):
        """A span whose body also runs under the profiler."""
        with self.span(name) as rec:
            rec["profiled"] = True
            self.profile.enable()
            try:
                yield rec
            finally:
                self.profile.disable()

    def profiled_wall(self) -> float:
        """Summed wall time of the profiled spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s.get("profiled"))

    def export(self) -> list[dict]:
        """Spans with duration and self time (duration minus the time
        covered by direct children), relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            {
                "name": s["name"],
                "parent": s["parent"],
                "start_s": s["start"] - t0,
                "duration_s": s["end"] - s["start"],
                "self_s": s["end"] - s["start"] - child_time[i],
            }
            for i, s in enumerate(self.spans)
        ]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    active = False

    def span(self, name: str):
        return contextlib.nullcontext()

    profiled = span
