"""Controller-side aggregation of the metric stream.

The optimization controller "analyzes the data from Kafka and makes
adaptation decisions" (Section IV).  :class:`MetricCollector` is the
analysis half: it drains the metric topic, keeps a bounded per-server
history, and answers the two questions controllers ask —

* *tier statistics* over the last control period (mean CPU utilization,
  aggregate throughput, concurrency) for threshold-based VM scaling, and
* *(concurrency, throughput) training samples* per tier for the online
  model estimator.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.broker.broker import KafkaBroker
from repro.broker.consumer import Consumer
from repro.broker.records import MetricRecord
from repro.monitor.agent import METRICS_TOPIC

if TYPE_CHECKING:  # pragma: no cover
    pass


@dataclass(frozen=True)
class TierStats:
    """Aggregated view of one tier over a horizon (see ``tier_stats``)."""

    tier: str
    servers: int
    mean_cpu_utilization: float
    max_cpu_utilization: float
    throughput: float
    mean_concurrency_per_server: float
    total_concurrency: float
    mean_response_time: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TierStats {self.tier} servers={self.servers}"
            f" cpu={self.mean_cpu_utilization:.2f} X={self.throughput:.0f}"
            f" conc={self.mean_concurrency_per_server:.1f}>"
        )


class MetricCollector:
    """Consumes the metric topic and serves aggregate queries."""

    def __init__(
        self,
        broker: KafkaBroker,
        group: str = "dcm-controller",
        topic: str = METRICS_TOPIC,
        history: int = 600,
    ) -> None:
        self.consumer = Consumer(broker, group=group, topics=[topic])
        self.history = history
        self._by_server: Dict[str, Deque[MetricRecord]] = defaultdict(
            lambda: deque(maxlen=self.history)
        )
        self._tier_of: Dict[str, str] = {}

    # -- ingestion -----------------------------------------------------------------
    def drain(self) -> int:
        """Consume all new records; returns how many were ingested."""
        count = 0
        while True:
            batch = self.consumer.poll(max_records=1000)
            if not batch:
                break
            for record in batch:
                self._by_server[record.source].append(record)
                self._tier_of[record.source] = record.tier
            count += len(batch)
        return count

    def forget(self, server_name: str) -> None:
        """Drop a removed server's history (after scale-in)."""
        self._by_server.pop(server_name, None)
        self._tier_of.pop(server_name, None)

    # -- queries -------------------------------------------------------------------
    def servers(self, tier: Optional[str] = None) -> List[str]:
        """Known server names, optionally restricted to one tier."""
        names = sorted(self._by_server)
        if tier is None:
            return names
        return [n for n in names if self._tier_of.get(n) == tier]

    def recent(self, server_name: str, since: float) -> List[MetricRecord]:
        """Records for one server with ``timestamp > since``."""
        return [r for r in self._by_server.get(server_name, ()) if r.timestamp > since]

    def records(self, tier: str) -> List[MetricRecord]:
        """Every retained record of ``tier``'s servers, time-sorted."""
        rows: List[MetricRecord] = []
        for name in self.servers(tier):
            rows.extend(self.recent(name, 0.0))
        return sorted(rows, key=lambda r: r.timestamp)

    def latest(self, server_name: str) -> Optional[MetricRecord]:
        """The most recent record for a server."""
        records = self._by_server.get(server_name)
        return records[-1] if records else None

    def tier_stats(self, tier: str, since: float) -> Optional[TierStats]:
        """Aggregate a tier's records newer than ``since``.

        Per-server metrics are time-averaged over their windows, then
        utilizations/concurrencies are averaged across servers while
        throughputs are summed — matching how an operator reads a
        CloudWatch-style dashboard.  Returns ``None`` with no data.
        """
        per_server_cpu: List[float] = []
        per_server_conc: List[float] = []
        per_server_xput: List[float] = []
        rt_weighted = 0.0
        rt_weight = 0.0
        for name in self.servers(tier):
            records = self.recent(name, since)
            if not records:
                continue
            weights = [r.window for r in records]
            total_w = sum(weights) or 1.0
            per_server_cpu.append(
                sum(r.get("cpu_utilization") * w for r, w in zip(records, weights)) / total_w
            )
            per_server_conc.append(
                sum(r.get("concurrency") * w for r, w in zip(records, weights)) / total_w
            )
            per_server_xput.append(
                sum(r.get("throughput") * w for r, w in zip(records, weights)) / total_w
            )
            for r in records:
                completed = r.get("throughput") * r.window
                rt_weighted += r.get("mean_response_time") * completed
                rt_weight += completed
        if not per_server_cpu:
            return None
        return TierStats(
            tier=tier,
            servers=len(per_server_cpu),
            mean_cpu_utilization=sum(per_server_cpu) / len(per_server_cpu),
            max_cpu_utilization=max(per_server_cpu),
            throughput=sum(per_server_xput),
            mean_concurrency_per_server=sum(per_server_conc) / len(per_server_conc),
            total_concurrency=sum(per_server_conc),
            mean_response_time=rt_weighted / rt_weight if rt_weight else 0.0,
        )

    def training_samples(
        self, tier: str, since: float = 0.0, visit_ratio: float = 1.0
    ) -> List[Tuple[float, float]]:
        """Per-server ``(concurrency, HTTP-equivalent throughput)`` pairs.

        Each record contributes one sample: the server's mean processing
        concurrency over the window and its interaction throughput divided
        by the tier's visit ratio (a MySQL serving 2 queries/request at
        1600 q/s contributes an 800 req/s sample).  These are exactly the
        single-server (K = 1) points Eq (7) is fitted on.
        """
        samples: List[Tuple[float, float]] = []
        for name in self.servers(tier):
            for r in self.recent(name, since):
                conc = r.get("concurrency")
                xput = r.get("throughput") / visit_ratio
                if conc > 0 and xput > 0:
                    samples.append((conc, xput))
        return samples
