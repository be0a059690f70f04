"""Seeded key-popularity streams for the stateful tiers.

The browse-only mix of the paper has no notion of data identity — every
request is interchangeable.  The cache and sharding tiers need the opposite:
each request touches one *key*, and key popularity follows the heavy-tailed
(Zipf) distributions measured for web workloads.  A
:class:`ZipfKeySampler` draws keys over a *finite* keyspace from its own
named random stream (``workload.keys``), so keyed scenarios stay
deterministic per seed and keyless scenarios draw nothing extra.

The skew exponent ``s`` weights key ``k`` (1-based rank) proportionally to
``1/k**s``; ``s = 0`` is uniform, ``s ≈ 1`` classic Zipf, larger values
concentrate traffic on a few hot keys — and, through the consistent-hash
ring, on a hot *shard*.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.rng import BlockDraws


class ZipfKeySampler:
    """Draws integer keys ``0 .. keys-1`` with Zipf(s) popularity.

    Unlike ``numpy``'s unbounded ``zipf``, the keyspace is finite (a cache
    hit rate over an infinite keyspace is meaningless), so the probability
    mass function is normalised explicitly and sampled by inverse CDF.
    Uniforms come from ``rng`` in blocks (:class:`~repro.sim.rng.BlockDraws`),
    so the sampler must be its stream's only consumer.
    """

    def __init__(self, keys: int, exponent: float, rng: np.random.Generator) -> None:
        if keys < 1:
            raise ConfigurationError(f"keyspace must hold >= 1 key, got {keys}")
        if exponent < 0:
            raise ConfigurationError(f"zipf exponent must be >= 0, got {exponent}")
        self.keys = int(keys)
        self.exponent = float(exponent)
        self._draws = BlockDraws(rng, "uniform")
        ranks = np.arange(1, self.keys + 1, dtype=float)
        weights = ranks ** (-self.exponent)
        self._cdf = np.cumsum(weights / weights.sum())
        # bisect_right over the list finds searchsorted(side="right")'s index.
        self._cdf_list = self._cdf.tolist()

    def sample(self) -> int:
        """One key draw; key 0 is the most popular."""
        idx = bisect_right(self._cdf_list, self._draws.next())
        return min(idx, self.keys - 1)

    def hot_fraction(self, top: int) -> float:
        """Probability mass on the ``top`` most popular keys (diagnostics)."""
        if top < 1:
            return 0.0
        return float(self._cdf[min(top, self.keys) - 1])
