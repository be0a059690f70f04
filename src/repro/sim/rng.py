"""Named, reproducible random streams.

Every stochastic component draws from its own named stream so that changing
one component's consumption pattern (e.g. adding a server) does not perturb
the random sequence seen by unrelated components.  Streams are derived from a
single root seed via ``numpy.random.SeedSequence.spawn``-style keying, so a
whole experiment is reproducible from one integer.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

from repro.errors import ConfigurationError

#: Values a :class:`BlockDraws` reader takes from its stream per refill.
BLOCK_SIZE = 1024

#: Kinds of value a :class:`BlockDraws` reader serves.
BLOCK_KINDS = ("uniform", "exponential")


class BlockDraws:
    """Serves one stream's values from blocks, in the order scalar calls would.

    ``kind="uniform"`` serves ``Generator.random()`` values and
    ``kind="exponential"`` serves ``Generator.standard_exponential()``
    values, each refilled ``BLOCK_SIZE`` at a time and converted with
    ``.tolist()``.  numpy fills both arrays with the per-element routine a
    scalar call runs, so the i-th value :meth:`next` returns equals the
    i-th scalar draw from the stream, bit for bit; and since numpy's
    ``exponential(scale)`` is ``scale * standard_exponential()``, so does
    ``scale * next()`` (``tests/test_workload.py::TestBlockDraws`` pins
    both).

    A reader reads ahead, so it must be its stream's only consumer, and it
    serves one kind: interleaving two kinds on one stream would reorder
    the values.  A reader that is never read draws nothing.
    """

    __slots__ = ("_fill", "_block")

    def __init__(self, gen: np.random.Generator, kind: str) -> None:
        if kind not in BLOCK_KINDS:
            raise ConfigurationError(
                f"unknown block kind {kind!r}; pick from {BLOCK_KINDS}"
            )
        self._fill = gen.random if kind == "uniform" else gen.standard_exponential
        #: Undrawn values of the current block, next value last.
        self._block: list = []

    def next(self) -> float:
        """The stream's next value."""
        block = self._block
        if not block:
            block = self._block = self._fill(BLOCK_SIZE).tolist()
            block.reverse()
        return block.pop()


class RandomStreams:
    """Factory of independent, named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed for the experiment.  Equal seeds and equal stream names
        yield identical sequences across runs and platforms.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The stream key is derived from a CRC of the name so that stream
        identity depends only on the name, never on creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential variate with the given mean from ``name``."""
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw one uniform variate on ``[low, high)`` from ``name``."""
        return float(self.stream(name).uniform(low, high))
