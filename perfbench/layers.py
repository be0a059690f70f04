"""Layer attribution for the traced run, measured from outside the program.

Two instruments, both owned by the benchmark:

* :func:`fold_profile` folds a ``cProfile`` self-time table into the layers
  of :data:`metrics.LAYERS` by the module that defines each function.  The
  sim, ntier and workload layers run as generator resumes, so their time can
  only be attributed per function, not around a call boundary.  Time in a
  C builtin is charged to the layer of its caller, except ``_heapq``, which
  is a layer of its own (the kernel's pending-event heap).
* :class:`SpanTracer` wraps plain public calls on live objects (the
  controller's period hook, the model refit, the collector drain) and keeps
  each call as a span in memory: name, start, end and the enclosing span.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

#: repro module path (under ``src/repro/``) -> layer.  Directories map all
#: their modules; files override their directory.
_MODULE_LAYERS = {
    "sim/": "sim.core",
    "sim/events.py": "sim.events",
    "sim/resources.py": "sim.resources",
    "sim/processor.py": "sim.processor",
    "ntier/": "ntier.servers",
    "ntier/balancer.py": "ntier.balancer",
    "ntier/sharding.py": "ntier.balancer",
    "ntier/cache.py": "ntier.cache",
    "workload/": "workload",
    "monitor/": "monitor",
    "broker/": "broker",
    "control/": "control",
    "model/": "control",
    "cluster/": "control",
}


def layer_of(filename: str) -> str:
    """The layer of the module defined in ``filename``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    idx = path.rfind(marker)
    if idx < 0:
        return "other"
    rel = path[idx + len(marker):]
    if rel in _MODULE_LAYERS:
        return _MODULE_LAYERS[rel]
    head = rel.split("/", 1)[0] + "/"
    return _MODULE_LAYERS.get(head, "other")


def fold_profile(stats: dict) -> Dict[str, float]:
    """Self seconds per layer from a ``cProfile.Profile().stats`` table.

    ``stats`` maps ``(file, line, func)`` to ``(cc, nc, tottime, cumtime,
    callers)`` where ``callers`` maps each caller to its own per-edge
    ``(cc, nc, tottime, cumtime)``.
    """
    out: Dict[str, float] = {}

    def charge(layer: str, seconds: float) -> None:
        out[layer] = out.get(layer, 0.0) + seconds

    for (filename, _line, func), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename != "~":
            charge(layer_of(filename), tottime)
        elif "_heapq" in func:
            charge("heapq", tottime)
        else:
            edge_total = sum(edge[2] for edge in callers.values())
            if edge_total <= 0.0:
                charge("other", tottime)
                continue
            for (cfile, _cl, _cf), edge in callers.items():
                layer = "other" if cfile == "~" else layer_of(cfile)
                charge(layer, tottime * edge[2] / edge_total)
    return out


#: (Deployment attribute, method, span name) for every call the traced run
#: records as a span.
SPAN_TARGETS = (
    ("controller", "on_period_end", "control.period"),
    ("controller", "compute_plan", "control.plan"),
    ("estimator", "refit", "model.refit"),
    ("collector", "drain", "monitor.drain"),
)


class SpanTracer:
    """In-memory spans around calls of wrapped bound methods."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent index or -1)
        self.spans: List[Tuple[str, int, int, int]] = []
        self._stack: List[int] = []
        self._wrapped: List[Tuple[object, str]] = []

    def wrap(self, obj: Optional[object], attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)`` call."""
        if obj is None or not hasattr(obj, attr):
            return
        inner = getattr(obj, attr)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, clock(), 0, parent))
            self._stack.append(idx)
            try:
                return inner(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx] = (name, self.spans[idx][1], clock(), parent)

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap(self) -> None:
        """Remove every wrapper (the class methods show through again)."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self milliseconds)``.

        A span's self time is its duration minus the part its child spans
        cover.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls, ms = out.get(name, (0, 0.0))
            out[name] = (calls + 1, ms + (end - start - child_ns[i]) / 1e6)
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON rows ``[name, start_ns, end_ns, parent]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
