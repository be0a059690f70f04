"""Per-VM monitoring agents.

"We install a monitoring agent in each VM to collect both the system-level
metrics and the application-level metrics ... at every one second"
(Section IV).  :class:`MonitoringAgent` is that agent: a simulation process
sampling its server each interval and producing a keyed record to the metric
topic.  :class:`MonitorFleet` keeps one agent per live server as the
topology scales.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.broker.producer import Producer
from repro.errors import BrokerError
from repro.monitor.metrics import ServerMetricsSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.ntier.server import TierServer
    from repro.ntier.topology import NTierSystem
    from repro.sim.core import Environment

#: The paper's sampling cadence.
DEFAULT_SAMPLE_INTERVAL = 1.0

#: Topic carrying all server metric records.
METRICS_TOPIC = "server-metrics"


class MonitoringAgent:
    """Samples one server every ``interval`` seconds into the broker."""

    def __init__(
        self,
        env: "Environment",
        server: "TierServer",
        producer: Producer,
        topic: str = METRICS_TOPIC,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        self.env = env
        self.server = server
        self.producer = producer
        self.topic = topic
        self.interval = interval
        self.samples_sent = 0
        self.samples_dropped = 0
        self._sampler = ServerMetricsSampler(env, server)
        self._running = True
        self._process = env.process(self._run())

    def stop(self) -> None:
        """Stop sampling (the agent exits at its next tick)."""
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the agent loop is active."""
        return self._running

    def _run(self):
        while self._running:
            yield self.env.timeout(self.interval)
            if not self._running:
                break
            record = self._sampler.sample()
            try:
                self.producer.send(self.topic, record, key=self.server.name)
            except BrokerError:
                # Broker outage: drop the sample and keep sampling — a real
                # agent buffers-then-drops rather than dying with the broker.
                self.samples_dropped += 1
                continue
            self.samples_sent += 1
        return self.samples_sent


class MonitorFleet:
    """Keeps exactly one monitoring agent per live server in a system.

    The controller calls :meth:`reconcile` (cheap, idempotent) after scaling
    actions; agents for removed servers are stopped automatically.
    """

    def __init__(
        self,
        env: "Environment",
        system: "NTierSystem",
        producer: Producer,
        topic: str = METRICS_TOPIC,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        self.env = env
        self.system = system
        self.producer = producer
        self.topic = topic
        self.interval = interval
        self._agents: Dict[str, MonitoringAgent] = {}
        self.reconcile()

    @property
    def agents(self) -> Dict[str, MonitoringAgent]:
        """Live agents keyed by server name."""
        return dict(self._agents)

    def reconcile(self) -> None:
        """Start agents for new servers, stop agents for removed ones."""
        current = {s.name: s for s in self.system.all_servers()}
        for name in list(self._agents):
            if name not in current:
                self._agents.pop(name).stop()
        for name, server in current.items():
            if name not in self._agents:
                self._agents[name] = MonitoringAgent(
                    self.env, server, self.producer, self.topic, self.interval
                )

    def stop(self) -> None:
        """Stop every agent."""
        for agent in self._agents.values():
            agent.stop()
        self._agents.clear()
