"""A fixed pure-Python workload whose rate follows the host's current speed.

Shared cloud hosts change speed under a running process.  On a 2-vCPU Intel
Xeon virtual machine each vCPU switched between two speeds about 1.7x apart
every second or so, and the share of fast time drifted over minutes, so raw
host seconds of one simulation spread by 15-50 % between runs.
:class:`HostSpeed` samples the host between slices of a simulation so that
host seconds can be converted to *nominal* seconds: seconds on a host where
this loop runs :data:`NOMINAL` iterations per second.  Nominal seconds of the
same simulations spread by 2-3 %.

The loop mixes what the simulator's interpreter work is made of -- generator
resumes, attribute stores, float arithmetic and binary-heap updates -- but
uses none of the simulator's code, so a faster simulator leaves it unchanged.
"""

from __future__ import annotations

import time
from heapq import heapify, heapreplace

#: Iterations per second of :meth:`HostSpeed.sample` on the nominal host.
NOMINAL = 1.0e6


class _Cell:
    __slots__ = ("value", "visits")

    def __init__(self) -> None:
        self.value = 0.0
        self.visits = 0


def _worker(cell: _Cell):
    value = 0.0
    while True:
        step = yield value
        cell.visits += 1
        value = (value * 0.5 + step) % 97.0
        cell.value = value


class HostSpeed:
    """Samples the host's speed in iterations per second of a fixed loop."""

    def __init__(self, width: int = 64, depth: int = 256) -> None:
        self._gens = [_worker(_Cell()) for _ in range(width)]
        for gen in self._gens:
            next(gen)
        self._heap = [(float(i), i) for i in range(depth)]
        heapify(self._heap)

    def sample(self, rounds: int) -> float:
        """Run ``rounds`` iterations; returns iterations per host second."""
        gens, heap, width = self._gens, self._heap, len(self._gens)
        start = time.perf_counter()
        for i in range(rounds):
            value = gens[i % width].send(1.0)
            heapreplace(heap, (heap[0][0] + value, i))
        return rounds / (time.perf_counter() - start)
