"""Tests for the mini-Kafka substrate: logs, topics, producers, consumers."""

import pytest

from repro.broker import Consumer, KafkaBroker, MetricRecord, PartitionLog, Producer
from repro.errors import BrokerError
from repro.sim import Environment


class TestPartitionLog:
    def test_offsets_monotone(self):
        log = PartitionLog()
        assert log.append("a") == 0
        assert log.append("b") == 1
        assert log.end_offset == 2
        assert log.base_offset == 0

    def test_read_from_offset(self):
        log = PartitionLog()
        for i in range(5):
            log.append(i)
        assert log.read(2, 2) == [(2, 2), (3, 3)]
        assert log.read(5) == []
        assert log.read(99) == []

    def test_negative_offset_rejected(self):
        log = PartitionLog()
        with pytest.raises(BrokerError):
            log.read(-1)

    def test_retention_trims_but_never_renumbers(self):
        log = PartitionLog(retention=10)
        for i in range(100):
            log.append(i)
        assert log.end_offset == 100
        assert log.base_offset > 0
        assert len(log) >= 10
        # Reading an expired offset clamps forward to the earliest retained.
        rows = log.read(0, 3)
        assert rows[0][0] == log.base_offset
        assert rows[0][1] == log.base_offset  # values equal their offsets here

    def test_invalid_retention(self):
        with pytest.raises(BrokerError):
            PartitionLog(retention=0)


class TestBrokerTopics:
    def test_create_and_lookup(self):
        broker = KafkaBroker(Environment())
        broker.create_topic("metrics", partitions=3)
        assert broker.topics() == ["metrics"]
        assert len(broker.topic("metrics").partitions) == 3

    def test_duplicate_topic_rejected(self):
        broker = KafkaBroker(Environment())
        broker.create_topic("t")
        with pytest.raises(BrokerError):
            broker.create_topic("t")

    def test_unknown_topic_rejected(self):
        broker = KafkaBroker(Environment())
        with pytest.raises(BrokerError):
            broker.produce("nope", 1)
        with pytest.raises(BrokerError):
            broker.topic("nope")

    def test_keyed_partitioning_is_sticky(self):
        broker = KafkaBroker(Environment())
        broker.create_topic("t", partitions=4)
        parts = {broker.produce("t", i, key="tomcat-1")[0] for i in range(10)}
        assert len(parts) == 1  # same key -> same partition

    def test_different_keys_spread(self):
        broker = KafkaBroker(Environment())
        broker.create_topic("t", partitions=4)
        parts = {broker.produce("t", 0, key=f"server-{i}")[0] for i in range(32)}
        assert len(parts) > 1

    def test_fetch_bad_partition(self):
        broker = KafkaBroker(Environment())
        broker.create_topic("t", partitions=1)
        with pytest.raises(BrokerError):
            broker.fetch("t", 5, 0)


class TestProducerConsumer:
    def _setup(self, partitions=2):
        env = Environment()
        broker = KafkaBroker(env)
        broker.create_topic("metrics", partitions=partitions)
        return env, broker

    def test_produce_consume_roundtrip(self):
        env, broker = self._setup()
        producer = Producer(broker)
        consumer = Consumer(broker, group="g", topics=["metrics"])
        for i in range(5):
            producer.send("metrics", f"v{i}", key=f"k{i}")
        values = consumer.poll()
        assert sorted(values) == [f"v{i}" for i in range(5)]
        assert consumer.poll() == []  # nothing new
        assert producer.records_sent == 5
        assert consumer.records_consumed == 5

    def test_per_key_ordering_preserved(self):
        env, broker = self._setup(partitions=4)
        producer = Producer(broker)
        consumer = Consumer(broker, group="g", topics=["metrics"])
        for i in range(10):
            producer.send("metrics", ("tomcat-1", i), key="tomcat-1")
        values = [v for v in consumer.poll() if v[0] == "tomcat-1"]
        assert [i for _k, i in values] == list(range(10))

    def test_committed_offsets_shared_across_group_restarts(self):
        env, broker = self._setup()
        producer = Producer(broker)
        c1 = Consumer(broker, group="g", topics=["metrics"])
        producer.send("metrics", "first", key="a")
        assert c1.poll() == ["first"]
        producer.send("metrics", "second", key="a")
        # A fresh consumer in the same group resumes after "first".
        c2 = Consumer(broker, group="g", topics=["metrics"])
        assert c2.poll() == ["second"]

    def test_different_groups_are_independent(self):
        env, broker = self._setup()
        producer = Producer(broker)
        producer.send("metrics", "x", key="a")
        ca = Consumer(broker, group="a", topics=["metrics"])
        cb = Consumer(broker, group="b", topics=["metrics"])
        assert ca.poll() == ["x"]
        assert cb.poll() == ["x"]

    def test_manual_commit(self):
        env, broker = self._setup()
        producer = Producer(broker)
        producer.send("metrics", "x", key="a")
        c1 = Consumer(broker, group="g", topics=["metrics"], auto_commit=False)
        assert c1.poll() == ["x"]
        # Not committed: a group sibling still sees the record.
        c2 = Consumer(broker, group="g", topics=["metrics"], auto_commit=False)
        assert c2.poll() == ["x"]
        c1.commit()
        c3 = Consumer(broker, group="g", topics=["metrics"])
        assert c3.poll() == []

    def test_seek_to_end_skips_history(self):
        env, broker = self._setup()
        producer = Producer(broker)
        for i in range(5):
            producer.send("metrics", i, key="a")
        consumer = Consumer(broker, group="g", topics=["metrics"])
        consumer.seek_to_end()
        assert consumer.poll() == []
        producer.send("metrics", "new", key="a")
        assert consumer.poll() == ["new"]

    def test_lag(self):
        env, broker = self._setup()
        producer = Producer(broker)
        consumer = Consumer(broker, group="g", topics=["metrics"])
        assert consumer.lag() == 0
        for i in range(7):
            producer.send("metrics", i, key="a")
        assert consumer.lag() == 7
        consumer.poll()
        assert consumer.lag() == 0

    def test_poll_wait_blocks_until_produce(self):
        env, broker = self._setup()
        producer = Producer(broker)
        consumer = Consumer(broker, group="g", topics=["metrics"])
        got = {}

        def consume(env):
            records = yield from consumer.poll_wait(timeout=100.0)
            got["records"] = records
            got["time"] = env.now

        def produce_later(env):
            yield env.timeout(4.0)
            producer.send("metrics", "late", key="a")

        env.process(consume(env))
        env.process(produce_later(env))
        env.run()
        assert got["records"] == ["late"]
        assert got["time"] == pytest.approx(4.0)

    def test_poll_wait_times_out_empty(self):
        env, broker = self._setup()
        consumer = Consumer(broker, group="g", topics=["metrics"])
        got = {}

        def consume(env):
            records = yield from consumer.poll_wait(timeout=2.0)
            got["records"] = records
            got["time"] = env.now

        env.process(consume(env))
        env.run()
        assert got["records"] == []
        assert got["time"] == pytest.approx(2.0)

    def test_consumer_requires_existing_topic(self):
        env, broker = self._setup()
        with pytest.raises(BrokerError):
            Consumer(broker, group="g", topics=["missing"])
        with pytest.raises(BrokerError):
            Consumer(broker, group="g", topics=[])


class TestMetricRecord:
    def test_roundtrip(self):
        rec = MetricRecord(
            timestamp=12.0,
            source="tomcat-1",
            tier="app",
            window=1.0,
            metrics={"throughput": 800.0, "concurrency": 18.5},
        )
        back = MetricRecord.from_dict(rec.to_dict())
        assert back == rec
        assert back.get("throughput") == 800.0
        assert back.get("missing", -1.0) == -1.0
