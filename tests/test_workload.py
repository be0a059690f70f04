"""Tests for servlet catalogue, sessions, generators, traces, burstiness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ntier import HardwareConfig, NTierSystem, SoftResourceConfig
from repro.sim import Environment, RandomStreams
from repro.sim.rng import BLOCK_SIZE, BlockDraws
from repro.workload import (
    JMeterGenerator,
    MYSQL_MEAN_DEMAND,
    RubbosGenerator,
    TOMCAT_MEAN_DEMAND,
    TraceDrivenGenerator,
    UserSession,
    WorkloadTrace,
    arrival_counts,
    browse_only_catalog,
    index_of_dispersion,
    large_variation,
    mmpp2_trace,
    sine_trace,
    spike_trace,
    step_trace,
)


def make_system(env, seed=3, **kwargs):
    return NTierSystem(env, RandomStreams(seed), **kwargs)


class TestServletCatalog:
    def test_has_24_servlets(self):
        assert len(browse_only_catalog()) == 24

    def test_browse_mix_calibration_targets(self):
        cat = browse_only_catalog()
        means = cat.mean_demands()
        assert means["tomcat"] == pytest.approx(TOMCAT_MEAN_DEMAND, rel=1e-9)
        assert means["db_total"] == pytest.approx(MYSQL_MEAN_DEMAND, rel=1e-9)

    def test_visit_ratio_db_about_two(self):
        # The paper's example: one HTTP request -> ~2 MySQL queries.
        v = browse_only_catalog().visit_ratios()
        assert v["web"] == 1.0
        assert v["app"] == 1.0
        assert 1.8 <= v["db"] <= 2.2

    def test_browse_mix_only_contains_browse_servlets(self):
        cat = browse_only_catalog()
        for _ in range(50):
            s = cat.sample(np.random.default_rng(0))
            assert s.category == "browse"

    def test_deterministic_demand_sampling(self):
        cat = browse_only_catalog(demand_distribution="deterministic")
        servlet = cat["ViewStory"]
        rng = np.random.default_rng(0)
        d1 = servlet.sample_demand(rng, "deterministic")
        d2 = servlet.sample_demand(rng, "deterministic")
        assert d1 == d2
        assert d1.tomcat == servlet.tomcat_demand

    def test_exponential_demand_sampling_mean(self):
        servlet = browse_only_catalog()["ViewStory"]
        rng = np.random.default_rng(0)
        draws = [servlet.sample_demand(rng, "exponential").tomcat for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(servlet.tomcat_demand, rel=0.08)

    def test_demand_scale_scales_everything(self):
        base = browse_only_catalog()
        scaled = browse_only_catalog(demand_scale=4.0)
        assert scaled.mean_demands()["tomcat"] == pytest.approx(
            4.0 * base.mean_demands()["tomcat"]
        )
        assert scaled.mean_demands()["db_queries"] == base.mean_demands()["db_queries"]

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            browse_only_catalog(demand_distribution="weird")
        servlet = browse_only_catalog()["ViewStory"]
        with pytest.raises(ConfigurationError):
            servlet.sample_demand(np.random.default_rng(0), "weird")

    def test_sampling_respects_mix_weights(self):
        cat = browse_only_catalog()
        rng = np.random.default_rng(12)
        names = [cat.sample(rng).name for _ in range(6000)]
        frac_view_story = names.count("ViewStory") / len(names)
        assert frac_view_story == pytest.approx(0.25, abs=0.03)


class TestSessions:
    def test_session_issues_requests_in_closed_loop(self):
        env = Environment()
        system = make_system(env)
        session = UserSession(env, system, think_time=0.0)
        session.start()
        env.run(until=1.0)
        session.stop()
        assert session.requests_issued > 10
        # Closed loop: completions can lag issuance by at most one request.
        assert system.completed_count() >= session.requests_issued - 1

    def test_think_time_slows_request_rate(self):
        env = Environment()
        system = make_system(env)
        rng = np.random.default_rng(0)
        fast = UserSession(env, system, think_time=0.0)
        slow = UserSession(env, system, think_time=1.0, think_rng=rng)
        fast.start()
        slow.start()
        env.run(until=10.0)
        assert fast.requests_issued > 5 * slow.requests_issued

    def test_positive_think_requires_rng(self):
        env = Environment()
        system = make_system(env)
        with pytest.raises(ConfigurationError):
            UserSession(env, system, think_time=1.0)

    def test_jmeter_population_size(self):
        env = Environment()
        system = make_system(env)
        gen = JMeterGenerator(env, system, concurrency=7)
        gen.start()
        env.run(until=0.5)
        assert len(gen.sessions) == 7
        assert all(s.running for s in gen.sessions)
        gen.stop()
        with pytest.raises(ConfigurationError):
            gen.start()

    def test_rubbos_generator_resize(self):
        env = Environment()
        system = make_system(env)
        gen = RubbosGenerator(env, system, users=5)
        assert gen.users == 5
        gen.set_users(12)
        assert gen.users == 12
        gen.set_users(3)
        assert gen.users == 3
        assert gen.user_history[-1] == (0.0, 3)
        gen.stop()
        assert gen.users == 0

    def test_rubbos_throughput_tracks_users(self):
        """Interactive law sanity: X ~ users/(R+Z) while unsaturated."""
        env = Environment()
        system = make_system(env)
        gen = RubbosGenerator(env, system, users=30, think_time=1.0)
        env.run(until=30.0)
        xput = system.completed_count() / 30.0
        assert xput == pytest.approx(30.0 / 1.0, rel=0.2)


class TestTraces:
    def test_interpolation(self):
        tr = WorkloadTrace((0.0, 10.0, 20.0), (0.0, 1.0, 0.5))
        assert tr.level_at(0.0) == 0.0
        assert tr.level_at(5.0) == pytest.approx(0.5)
        assert tr.level_at(15.0) == pytest.approx(0.75)
        assert tr.level_at(100.0) == 0.5  # clamped

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace((0.0,), (1.0,))
        with pytest.raises(ConfigurationError):
            WorkloadTrace((1.0, 2.0), (1.0, 1.0))  # must start at 0
        with pytest.raises(ConfigurationError):
            WorkloadTrace((0.0, 0.0), (1.0, 1.0))  # strictly increasing
        with pytest.raises(ConfigurationError):
            WorkloadTrace((0.0, 1.0), (1.0, -1.0))  # non-negative

    def test_scaled_and_stretched(self):
        tr = WorkloadTrace((0.0, 10.0), (1.0, 2.0))
        assert tr.scaled(2.0).level_at(10.0) == 4.0
        assert tr.stretched(3.0).duration == 30.0

    def test_sample_covers_duration(self):
        tr = WorkloadTrace((0.0, 5.0), (1.0, 1.0))
        points = tr.sample(1.0)
        assert points[0][0] == 0.0
        assert points[-1][0] == 5.0

    def test_csv_roundtrip(self, tmp_path):
        tr = large_variation()
        path = str(tmp_path / "trace.csv")
        tr.to_csv(path)
        back = WorkloadTrace.from_csv(path)
        assert back.times == tr.times
        assert back.levels == tr.levels

    def test_step_trace(self):
        tr = step_trace([1.0, 2.0, 3.0], 10.0)
        assert tr.level_at(5.0) == 1.0
        assert tr.level_at(15.0) == 2.0
        assert tr.level_at(25.0) == 3.0

    def test_sine_trace_bounds(self):
        tr = sine_trace(100.0, 50.0, 0.2, 0.8)
        levels = [lvl for _, lvl in tr.sample(1.0)]
        assert min(levels) >= 0.19
        assert max(levels) <= 0.81

    def test_spike_trace(self):
        tr = spike_trace(100.0, 0.2, 0.9, 40.0, 20.0)
        assert tr.level_at(30.0) == pytest.approx(0.2)
        assert tr.level_at(50.0) == pytest.approx(0.9)
        assert tr.level_at(80.0) == pytest.approx(0.2)

    def test_large_variation_matches_paper_narrative(self):
        tr = large_variation()
        assert tr.duration == 600.0
        # quiet start, first burst in the 50-90s window
        assert tr.level_at(30.0) < 0.3
        assert tr.level_at(80.0) >= 0.5
        assert tr.level_at(80.0) > 1.8 * tr.level_at(30.0)
        # second climb to peak around 240-300s
        assert tr.level_at(270.0) == pytest.approx(1.0)
        # trough before the flash crowd
        assert tr.level_at(525.0) < 0.4
        # flash crowd at ~540-560s
        assert tr.level_at(550.0) >= 0.5
        assert tr.level_at(550.0) > 1.4 * tr.level_at(525.0)
        assert tr.peak_to_mean > 1.5


class TestTraceDriven:
    def test_population_follows_trace(self):
        env = Environment()
        system = make_system(env)
        tr = WorkloadTrace((0.0, 5.0, 6.0, 10.0), (0.0, 0.0, 1.0, 1.0))
        gen = TraceDrivenGenerator(env, system, tr, max_users=20, think_time=1.0)
        gen.start()
        env.run(until=3.0)
        assert gen.population.users == 0
        env.run(until=8.0)
        assert gen.population.users == 20
        env.run(until=12.0)
        assert gen.population.users == 0  # trace ended, all stopped

    def test_double_start_rejected(self):
        env = Environment()
        system = make_system(env)
        gen = TraceDrivenGenerator(
            env, system, WorkloadTrace((0.0, 1.0), (0.5, 0.5)), max_users=4
        )
        gen.start()
        with pytest.raises(ConfigurationError):
            gen.start()


class TestBurstiness:
    def test_poisson_index_near_one(self):
        rng = np.random.default_rng(0)
        arrivals = np.cumsum(rng.exponential(0.1, size=20000))
        counts = arrival_counts(arrivals, 1.0)
        assert index_of_dispersion(counts) == pytest.approx(1.0, abs=0.25)

    def test_bursty_stream_has_high_index(self):
        rng = np.random.default_rng(0)
        # ON/OFF: 10x rate difference between alternating 10s phases.
        arrivals = []
        t = 0.0
        for phase in range(20):
            rate = 50.0 if phase % 2 else 5.0
            end = t + 10.0
            while t < end:
                t += rng.exponential(1.0 / rate)
                arrivals.append(t)
        idx = index_of_dispersion(arrival_counts(arrivals, 1.0))
        assert idx > 5.0

    def test_index_validation(self):
        with pytest.raises(ConfigurationError):
            index_of_dispersion([1.0])
        with pytest.raises(ConfigurationError):
            index_of_dispersion([0.0, 0.0])

    def test_mmpp2_trace_levels_alternate(self):
        rng = np.random.default_rng(5)
        tr = mmpp2_trace(300.0, low=0.2, high=0.9, mean_low_sojourn=30.0,
                         mean_high_sojourn=15.0, rng=rng)
        levels = {lvl for _, lvl in zip(tr.times, tr.levels)}
        assert 0.2 in levels and 0.9 in levels
        assert tr.duration == 300.0

    def test_mmpp2_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            mmpp2_trace(0.0, 0.1, 0.9, 10.0, 10.0, rng)
        with pytest.raises(ConfigurationError):
            mmpp2_trace(100.0, 0.9, 0.1, 10.0, 10.0, rng)


class TestReadWriteCatalog:
    def test_write_fraction_respected(self):
        from repro.workload import read_write_catalog

        cat = read_write_catalog(write_fraction=0.2)
        rng = np.random.default_rng(4)
        names = [cat.sample(rng) for _ in range(6000)]
        writes = sum(1 for s in names if s.category == "write") / len(names)
        assert writes == pytest.approx(0.2, abs=0.03)

    def test_zero_fraction_is_browse_only(self):
        from repro.workload import read_write_catalog

        cat = read_write_catalog(write_fraction=0.0)
        rng = np.random.default_rng(4)
        assert all(cat.sample(rng).category == "browse" for _ in range(200))

    def test_calibration_holds_for_blend(self):
        from repro.workload import read_write_catalog
        from repro.workload.servlets import MYSQL_MEAN_DEMAND, TOMCAT_MEAN_DEMAND

        cat = read_write_catalog(write_fraction=0.15)
        means = cat.mean_demands()
        assert means["tomcat"] == pytest.approx(TOMCAT_MEAN_DEMAND, rel=1e-9)
        assert means["db_total"] == pytest.approx(MYSQL_MEAN_DEMAND, rel=1e-9)

    def test_invalid_fraction(self):
        from repro.workload import read_write_catalog

        with pytest.raises(ConfigurationError):
            read_write_catalog(write_fraction=1.0)
        with pytest.raises(ConfigurationError):
            read_write_catalog(write_fraction=-0.1)

    def test_system_runs_under_blend(self):
        from repro.workload import read_write_catalog

        env = Environment()
        system = NTierSystem(
            env,
            RandomStreams(6),
            hardware=HardwareConfig(1, 1, 1),
            soft=SoftResourceConfig.DEFAULT,
            catalog=read_write_catalog(write_fraction=0.15, demand_scale=8.0),
        )
        RubbosGenerator(env, system, users=60, think_time=1.0)
        env.run(until=20.0)
        assert system.completed_count() > 200


class TestBlockDraws:
    """The request path reads its workload streams a block at a time
    (``repro.sim.rng.BlockDraws``).  That is only sound while numpy's
    array fills run the per-element routine its scalar calls run; these
    tests pin that agreement, float for float, against the per-call
    reference (``ServletCatalog.sample`` + ``Servlet.sample_demand``)."""

    #: Enough requests to cross at least two blocks of every stream.
    N = 2 * BLOCK_SIZE + 300

    @staticmethod
    def _submit_all(catalog, n, seed, **kwargs):
        env = Environment()
        system = NTierSystem(env, RandomStreams(seed), catalog=catalog, **kwargs)
        return system, [system.submit()[0] for _ in range(n)]

    @pytest.mark.parametrize("write_fraction", [0.0, 0.15])
    def test_submit_equals_the_per_call_draws(self, write_fraction):
        from repro.workload import read_write_catalog

        catalog = (
            browse_only_catalog() if write_fraction == 0.0
            else read_write_catalog(write_fraction=write_fraction)
        )
        _system, requests = self._submit_all(catalog, self.N, seed=21)
        twin = RandomStreams(21)
        mix, demand = twin.stream("workload.mix"), twin.stream("workload.demand")
        for i, request in enumerate(requests):
            servlet = catalog.sample(mix)
            expected = servlet.sample_demand(demand, "exponential")
            assert request.servlet is servlet, (
                f"request {i}: block-drawn mix picked {request.servlet.name}, "
                f"numpy's per-call draw picks {servlet.name}"
            )
            got = request.demand
            assert (got.apache, got.tomcat, got.db_queries) == (
                expected.apache, expected.tomcat, expected.db_queries
            ), (
                f"request {i} ({servlet.name}): block-drawn demands {got} != "
                f"per-call demands {expected}; numpy's array fill no longer "
                "matches its scalar draws"
            )
            assert all(type(v) is float for v in (got.apache, got.tomcat, *got.db_queries))
        # The draws covered 1-, 2- and 3-query servlets.
        assert {len(r.demand.db_queries) for r in requests} == {1, 2, 3}

    def test_zipf_keys_equal_searchsorted_over_the_cdf(self):
        from repro.ntier import CacheSpec

        spec = CacheSpec(keys=500, zipf=1.1)
        system, requests = self._submit_all(
            browse_only_catalog(), self.N, seed=8, cache=spec
        )
        cdf = system._key_sampler._cdf
        keys = RandomStreams(8).stream("workload.keys")
        for i, request in enumerate(requests):
            idx = int(np.searchsorted(cdf, keys.random(), side="right"))
            assert request.key == min(idx, spec.keys - 1), (
                f"request {i}: block-drawn key {request.key} != per-call key"
            )

    def test_numpy_scalar_means_still_give_python_floats(self):
        # The stress harness builds servlets from mix means (numpy scalars).
        from repro.workload.servlets import Servlet

        servlet = Servlet("S", "browse", np.float64(0.0), np.float64(2.5e-3),
                          (np.float64(1.2e-3),))
        draws = BlockDraws(np.random.default_rng(4), "exponential")
        twin = np.random.default_rng(4)
        for _ in range(BLOCK_SIZE + 10):
            got = servlet.draw_demand(draws, "exponential")
            expected = servlet.sample_demand(twin, "exponential")
            assert got == expected
            assert all(type(v) is float for v in (got.apache, got.tomcat, *got.db_queries))

    def test_deterministic_and_named_requests_draw_nothing(self):
        catalog = browse_only_catalog(demand_distribution="deterministic")
        env = Environment()
        streams = RandomStreams(5)
        system = NTierSystem(env, streams, catalog=catalog)
        before = {
            name: streams.stream(name).bit_generator.state
            for name in ("workload.mix", "workload.demand")
        }
        for name in ("ViewStory", "SearchInStories", "BrowseCategories"):
            request, _done = system.submit(name)
            servlet = catalog[name]
            assert request.servlet is servlet
            assert request.demand.tomcat == servlet.tomcat_demand
            assert request.demand.db_queries == servlet.db_query_demands
        for name, state in before.items():
            assert streams.stream(name).bit_generator.state == state, name

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            BlockDraws(np.random.default_rng(0), "normal")
