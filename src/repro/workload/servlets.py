"""The RUBBoS servlet catalogue and workload mixes.

RUBBoS (the paper's benchmark, a Slashdot-like bulletin board) exposes 24
servlets.  The paper uses the *CPU-intensive browse-only* mix.  We model all
24 with per-servlet CPU demands for each tier and per-servlet DB query
counts; a :class:`ServletCatalog` bundles the servlets with mix weights and
handles demand sampling.

Calibration
-----------
The browse-only mix is normalised so that its weighted-mean demands hit the
targets implied by the paper's Table I (see DESIGN.md §2):

* mean Tomcat demand per request  = ``S0_tomcat / gamma_tomcat``  = 2.5748 ms
* mean total MySQL demand per request = ``S0_mysql / gamma_mysql`` = 1.6157 ms

so that with the ground-truth contention laws the Tomcat tier peaks at
~946 req/s at concurrency 20 and the MySQL tier at ~865 req/s at
concurrency 36 — the paper's measured values.  Relative differences between
servlets are preserved by the normalisation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ntier.contention import MYSQL_CONTENTION, TOMCAT_CONTENTION
from repro.ntier.request import DemandProfile
from repro.sim.rng import BlockDraws

#: Calibration targets (seconds) — Table I values divided by gamma.
TOMCAT_MEAN_DEMAND = TOMCAT_CONTENTION.s0 / 11.03
MYSQL_MEAN_DEMAND = MYSQL_CONTENTION.s0 / 4.45

#: Supported per-request demand distributions.
DISTRIBUTIONS = ("deterministic", "exponential")


@dataclass(frozen=True)
class Servlet:
    """One RUBBoS servlet: its identity and mean resource demands.

    ``db_query_demands`` holds the mean CPU demand of each individual query
    the servlet issues to MySQL (so both the *number* of interactions and
    their sizes are modelled — the paper's "an HTTP request may trigger
    multiple interactions").
    """

    name: str
    category: str  # "browse" or "write"
    apache_demand: float
    tomcat_demand: float
    db_query_demands: Tuple[float, ...]

    @property
    def db_queries(self) -> int:
        """Number of MySQL queries this servlet issues."""
        return len(self.db_query_demands)

    @property
    def db_total_demand(self) -> float:
        """Mean total MySQL demand per request."""
        return float(sum(self.db_query_demands))

    def sample_demand(
        self, rng: np.random.Generator, distribution: str = "exponential"
    ) -> DemandProfile:
        """Draw one request's demands from this servlet's distributions."""
        if distribution == "exponential":
            return DemandProfile(
                apache=float(rng.exponential(self.apache_demand)),
                tomcat=float(rng.exponential(self.tomcat_demand)),
                db_queries=tuple(float(rng.exponential(d)) for d in self.db_query_demands),
            )
        return self._mean_demand(distribution)

    def draw_demand(self, draws: BlockDraws, distribution: str) -> DemandProfile:
        """:meth:`sample_demand` served from an ``"exponential"`` block reader.

        Each exponential demand is ``float(mean * e)``: numpy's own formula,
        drawn in the same order, and a Python float even for a numpy-scalar
        mean (the stress harness's), so the profile equals ``sample_demand``
        on the reader's stream float for float.  ``"deterministic"`` draws
        nothing.
        """
        if distribution == "exponential":
            e = draws.next
            return DemandProfile(
                float(self.apache_demand * e()),
                float(self.tomcat_demand * e()),
                tuple([float(d * e()) for d in self.db_query_demands]),
            )
        return self._mean_demand(distribution)

    def _mean_demand(self, distribution: str) -> DemandProfile:
        if distribution == "deterministic":
            return DemandProfile(
                apache=self.apache_demand,
                tomcat=self.tomcat_demand,
                db_queries=self.db_query_demands,
            )
        raise ConfigurationError(
            f"unknown demand distribution {distribution!r}; pick from {DISTRIBUTIONS}"
        )


# ---------------------------------------------------------------------------
# The 24 RUBBoS servlets.  Demands are *relative* shapes (milliseconds-ish);
# browse-only weights follow the RUBBoS browse transition mix.  The catalogue
# constructor rescales demands to the calibration targets above.
# ---------------------------------------------------------------------------

# name, category, apache, tomcat, per-query db demands, browse-mix weight
_RAW_SERVLETS: Sequence[tuple] = (
    ("StoriesOfTheDay",          "browse", 0.20e-3, 2.0e-3, (0.55e-3, 0.65e-3), 0.200),
    ("ViewStory",                "browse", 0.20e-3, 2.2e-3, (0.90e-3, 0.85e-3), 0.250),
    ("ViewComment",              "browse", 0.20e-3, 2.4e-3, (0.80e-3, 0.75e-3), 0.150),
    ("BrowseCategories",         "browse", 0.15e-3, 1.8e-3, (0.70e-3,), 0.080),
    ("BrowseStoriesByCategory",  "browse", 0.20e-3, 3.0e-3, (0.95e-3, 0.85e-3), 0.120),
    ("OlderStories",             "browse", 0.20e-3, 3.2e-3, (0.85e-3, 0.75e-3), 0.060),
    ("SearchInStories",          "browse", 0.25e-3, 4.0e-3, (0.95e-3, 0.90e-3, 0.85e-3), 0.080),
    ("SearchInComments",         "browse", 0.25e-3, 4.5e-3, (1.05e-3, 1.00e-3, 0.95e-3), 0.030),
    ("SearchInUsers",            "browse", 0.20e-3, 3.5e-3, (0.80e-3, 0.75e-3), 0.020),
    ("AboutMe",                  "browse", 0.20e-3, 3.0e-3, (0.80e-3, 0.75e-3, 0.70e-3), 0.010),
    # Write/interaction servlets: present in the catalogue (used by the
    # read-write extension mix) but weight 0 in the browse-only mix.
    ("StoreStory",               "write", 0.25e-3, 3.5e-3, (1.20e-3, 1.00e-3, 0.90e-3), 0.0),
    ("SubmitStory",              "write", 0.20e-3, 2.0e-3, (0.60e-3,), 0.0),
    ("StoreComment",             "write", 0.25e-3, 3.2e-3, (1.10e-3, 0.95e-3), 0.0),
    ("PostComment",              "write", 0.20e-3, 2.0e-3, (0.60e-3,), 0.0),
    ("RegisterUser",             "write", 0.20e-3, 2.5e-3, (0.90e-3, 0.80e-3), 0.0),
    ("BrowseStoriesByDate",      "browse", 0.20e-3, 3.0e-3, (0.90e-3, 0.80e-3), 0.0),
    ("Author",                   "write", 0.20e-3, 2.2e-3, (0.75e-3,), 0.0),
    ("AuthorTasks",              "write", 0.20e-3, 2.8e-3, (0.85e-3, 0.80e-3), 0.0),
    ("ReviewStories",            "write", 0.25e-3, 3.6e-3, (1.00e-3, 0.95e-3), 0.0),
    ("AcceptStory",              "write", 0.20e-3, 2.4e-3, (0.90e-3, 0.85e-3), 0.0),
    ("RejectStory",              "write", 0.20e-3, 2.2e-3, (0.85e-3,), 0.0),
    ("ModerateComment",          "write", 0.20e-3, 2.6e-3, (0.80e-3, 0.75e-3), 0.0),
    ("StoreModeratorLog",        "write", 0.20e-3, 2.4e-3, (0.95e-3, 0.85e-3), 0.0),
    ("ViewUserInfo",             "browse", 0.20e-3, 2.4e-3, (0.80e-3, 0.70e-3), 0.0),
)


class ServletCatalog:
    """A set of servlets plus a request mix, with calibrated demands.

    Parameters
    ----------
    servlets:
        The servlets in the application.
    mix:
        Mapping servlet name -> probability (must sum to 1 over the names it
        contains; names absent from the mapping have probability 0).
    demand_distribution:
        ``"exponential"`` (realistic variability, default) or
        ``"deterministic"``.
    demand_scale:
        Multiplies *all* demands.  >1 slows every tier down proportionally —
        optimal concurrencies are unchanged (they depend only on the
        contention law) while capacities scale by ``1/demand_scale``; used to
        run large experiments faster at reduced request volume.
    """

    def __init__(
        self,
        servlets: Sequence[Servlet],
        mix: Dict[str, float],
        demand_distribution: str = "exponential",
        demand_scale: float = 1.0,
    ) -> None:
        if demand_distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown demand distribution {demand_distribution!r}"
            )
        if demand_scale <= 0:
            raise ConfigurationError(f"demand_scale must be > 0, got {demand_scale}")
        by_name = {s.name: s for s in servlets}
        if len(by_name) != len(servlets):
            raise ConfigurationError("duplicate servlet names in catalogue")
        unknown = set(mix) - set(by_name)
        if unknown:
            raise ConfigurationError(f"mix references unknown servlets: {sorted(unknown)}")
        total = sum(mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"mix probabilities sum to {total}, expected 1")
        if any(p < 0 for p in mix.values()):
            raise ConfigurationError("mix probabilities must be non-negative")

        self.servlets: Tuple[Servlet, ...] = tuple(
            replace(
                s,
                apache_demand=s.apache_demand * demand_scale,
                tomcat_demand=s.tomcat_demand * demand_scale,
                db_query_demands=tuple(d * demand_scale for d in s.db_query_demands),
            )
            for s in servlets
        )
        self._by_name = {s.name: s for s in self.servlets}
        self.demand_distribution = demand_distribution
        self.demand_scale = demand_scale
        self._mix_names = tuple(n for n, p in mix.items() if p > 0)
        self._mix_probs = np.array([mix[n] for n in self._mix_names], dtype=float)
        self._mix_probs /= self._mix_probs.sum()
        self._mix_cum = np.cumsum(self._mix_probs)
        self._mix_cum_list = self._mix_cum.tolist()
        self._mix_servlets = tuple(self._by_name[n] for n in self._mix_names)

    # -- lookup -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.servlets)

    def __getitem__(self, name: str) -> Servlet:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"no servlet named {name!r}") from None

    # -- sampling ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Servlet:
        """Draw one servlet according to the mix."""
        idx = int(np.searchsorted(self._mix_cum, rng.random(), side="right"))
        return self._mix_servlets[min(idx, len(self._mix_servlets) - 1)]

    def draw(self, draws: BlockDraws) -> Servlet:
        """:meth:`sample` served from a ``"uniform"`` block reader.

        ``bisect_right`` over a list copy of the mix CDF finds the index
        ``searchsorted(side="right")`` finds, so the servlet equals
        ``sample`` on the reader's stream.
        """
        idx = bisect_right(self._mix_cum_list, draws.next())
        return self._mix_servlets[min(idx, len(self._mix_servlets) - 1)]

    # -- aggregate workload characteristics ------------------------------------------
    def mean_demands(self) -> Dict[str, float]:
        """Mix-weighted mean demands per HTTP request (seconds)."""
        apache = tomcat = db = queries = 0.0
        for servlet, p in zip(self._mix_servlets, self._mix_probs):
            apache += p * servlet.apache_demand
            tomcat += p * servlet.tomcat_demand
            db += p * servlet.db_total_demand
            queries += p * servlet.db_queries
        return {
            "apache": apache,
            "tomcat": tomcat,
            "db_total": db,
            "db_queries": queries,
        }

    def visit_ratios(self) -> Dict[str, float]:
        """The paper's V_m: mean visits per HTTP request at each tier."""
        return {"web": 1.0, "app": 1.0, "db": self.mean_demands()["db_queries"]}


def read_write_catalog(
    write_fraction: float = 0.15,
    demand_distribution: str = "exponential",
    demand_scale: float = 1.0,
) -> ServletCatalog:
    """An extension mix: RUBBoS browse traffic plus write interactions.

    The paper evaluates the CPU-intensive browse-only mix; RUBBoS also ships
    a "submission" mix with ~15 % write interactions (story/comment posts,
    moderation).  This catalogue blends the browse mix with the write
    servlets at ``write_fraction``, keeping the same demand calibration for
    the browse portion.

    Scope note: multiple MySQL servers are treated as multi-master (every
    server accepts every query).  Replication lag and primary-only write
    routing are out of scope — this mix exists to study *load shapes*, not
    consistency.
    """
    if not 0.0 <= write_fraction < 1.0:
        raise ConfigurationError(
            f"write_fraction must be in [0, 1), got {write_fraction}"
        )
    browse_weights = {
        name: weight for (name, _c, _a, _t, _q, weight) in _RAW_SERVLETS if weight > 0
    }
    write_names = [
        name for (name, category, _a, _t, _q, _w) in _RAW_SERVLETS
        if category == "write"
    ]
    mix: Dict[str, float] = {
        name: w * (1.0 - write_fraction) for name, w in browse_weights.items()
    }
    if write_fraction > 0:
        per_write = write_fraction / len(write_names)
        for name in write_names:
            mix[name] = mix.get(name, 0.0) + per_write
    return browse_only_catalog(
        demand_distribution=demand_distribution,
        demand_scale=demand_scale,
        mix_overrides=mix,
    )


def browse_only_catalog(
    demand_distribution: str = "exponential",
    demand_scale: float = 1.0,
    mix_overrides: Optional[Dict[str, float]] = None,
) -> ServletCatalog:
    """The paper's CPU-intensive browse-only workload, calibrated to Table I.

    Demands are normalised so the browse-mix means equal
    :data:`TOMCAT_MEAN_DEMAND` and :data:`MYSQL_MEAN_DEMAND` exactly, making
    the ground-truth tier capacity curves match the paper's.
    """
    mix = {name: weight for (name, _c, _a, _t, _q, weight) in _RAW_SERVLETS if weight > 0}
    if mix_overrides is not None:
        mix = dict(mix_overrides)
    raw = [
        Servlet(name, category, a, t, tuple(q), )
        for (name, category, a, t, q, _w) in _RAW_SERVLETS
    ]
    # Normalise demands against the (possibly overridden) mix.
    total = sum(mix.values())
    mix = {n: p / total for n, p in mix.items()}
    by_name = {s.name: s for s in raw}
    mean_tomcat = sum(p * by_name[n].tomcat_demand for n, p in mix.items())
    mean_db = sum(p * by_name[n].db_total_demand for n, p in mix.items())
    tomcat_factor = TOMCAT_MEAN_DEMAND / mean_tomcat
    db_factor = MYSQL_MEAN_DEMAND / mean_db
    calibrated = [
        replace(
            s,
            tomcat_demand=s.tomcat_demand * tomcat_factor,
            db_query_demands=tuple(d * db_factor for d in s.db_query_demands),
        )
        for s in raw
    ]
    return ServletCatalog(
        calibrated,
        mix,
        demand_distribution=demand_distribution,
        demand_scale=demand_scale,
    )
