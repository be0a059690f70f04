"""MySQL database server model.

The paper's most performance-sensitive tier (Fig 2(a)): query throughput
peaks around 36–40 concurrent queries and *degrades* beyond — gently at
first (the quadratic crosstalk term), then sharply once lock convoys and
buffer-pool contention set in (our thrash term past the knee).

MySQL has no explicit request thread-pool knob in the paper; its
request-processing concurrency is whatever the upstream Tomcat connection
pools let through, bounded by ``max_connections`` (a wide default, as in
stock MySQL — hitting it means connection errors, not queueing).

A query is one CPU burst, so the server is a
:class:`~repro.ntier.server.SingleStageServer`: queries run as callbacks,
not processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.errors import CapacityError
from repro.ntier.contention import MYSQL_CONTENTION, ContentionModel
from repro.ntier.request import Request
from repro.ntier.server import SingleStageServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class MySQLServer(SingleStageServer):
    """One MySQL instance (read-only replica semantics for browse workloads)."""

    tier = "db"

    def __init__(
        self,
        env: "Environment",
        name: str,
        max_connections: int = 400,
        contention: ContentionModel = MYSQL_CONTENTION,
        role: str = "standalone",
        shard: "int | None" = None,
    ) -> None:
        super().__init__(env, name, contention)
        self.max_connections = int(max_connections)
        #: ``standalone`` (unsharded multi-master), ``primary`` or
        #: ``replica``.  The shard router reads these; the plain balancer
        #: ignores them.
        self.role = role
        #: Shard index this server belongs to (``None`` when unsharded, or
        #: until the shard router auto-assigns a scale-out server).
        self.shard = shard

    def set_max_connections(self, size: int) -> None:
        """Resize the connection cap (soft-config resize path).

        Raising the cap admits queued-out load immediately; lowering it only
        gates *new* queries — in-flight ones run to completion, as a live
        ``SET GLOBAL max_connections`` would behave.
        """
        if size < 1:
            raise CapacityError(f"{self.name}: max_connections must be >= 1")
        self.max_connections = int(size)

    @property
    def active_queries(self) -> int:
        """Queries currently executing (the paper's 'request processing
        concurrency in MySQL')."""
        return self.cpu.active_jobs

    def _admit(self, request: Request, kwargs: Dict[str, Any]) -> float:
        if self.active_queries >= self.max_connections:
            raise CapacityError(f"{self.name}: max_connections exceeded")
        # Admitted: from here on the query may commit even if the client-side
        # attempt dies (an orphaned in-flight query finishes on its own), so
        # the retry guard must treat the attempt as non-replayable.
        request.db_started += 1
        return kwargs.get("demand", 0.0)

    def _commit(self, request: Request, kwargs: Dict[str, Any]) -> None:
        # The query committed.  Aborted/partial queries never get here, so a
        # retry after a *failed* attempt is safe iff this counter did not
        # move (the retry policy's idempotency guard).
        request.db_commits += 1

    def snapshot(self) -> dict:
        """Extend the base counters with connection statistics."""
        snap = super().snapshot()
        snap.update(
            {
                "active_queries": float(self.active_queries),
                "max_connections": float(self.max_connections),
            }
        )
        if self.shard is not None:
            snap["shard"] = float(self.shard)
        return snap
