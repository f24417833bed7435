import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_reading
from oracles import assert_summary_close, naive_summary
from syncmesh.model import (
    NUMERIC_FIELDS,
    SensorReading,
    TimeRange,
    ValidationError,
    canonical_order,
    reading_key,
    summarize,
)
from syncmesh.store import LocalStore


def filled_store(rng, n=200, node_id="node-00"):
    store = LocalStore(node_id)
    readings = [make_reading(rng, node_id=node_id) for _ in range(n)]
    store.load_many(readings)
    return store, readings


def test_store_keys_on_each_readings_own_key(rng):
    """Neither `load_many` nor `insert` allocates a key tuple of its own."""
    store, readings = filled_store(rng)
    extra = make_reading(rng, sensor_id="extra")
    store.insert(extra)
    assert len(store) == len(set(map(reading_key, [*readings, extra])))
    assert all(key is r._key for key, r in store._by_key.items())


class TestInsert:
    def test_first_insert_returns_true(self, rng):
        store = LocalStore("node-00")
        reading = make_reading(rng)
        assert store.insert(reading) is True
        assert store.all_readings() == (reading,)

    def test_duplicate_is_idempotent(self, rng):
        store = LocalStore("node-00")
        reading = make_reading(rng)
        same_key = SensorReading(reading.node_id, reading.sensor_id,
                                 reading.timestamp, temperature=-1.0)
        assert store.insert(reading) is True
        assert store.insert(reading) is False
        assert store.insert(same_key) is False
        assert store.all_readings() == (reading,)
        assert len(store) == 1

    def test_invalid_reading_rejected(self, rng):
        store = LocalStore("node-00")
        bad = SensorReading("node-00", "s1", 10, humidity=150.0)
        with pytest.raises(ValidationError):
            store.insert(bad)
        assert len(store) == 0


class TestQuery:
    def test_empty_store(self):
        store = LocalStore("node-00")
        assert store.query(TimeRange(0, 10**15)) == ()

    def test_half_open_interval(self, rng):
        store = LocalStore("node-00")
        for ts in (10, 20, 30):
            store.insert(make_reading(rng, timestamp=ts, sensor_id=f"s{ts}"))
        got = store.query(TimeRange(10, 30))
        assert [r.timestamp for r in got] == [10, 20]

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        store = LocalStore("node-00")
        readings = [make_reading(rng, node_id="node-00",
                                 timestamp=rng.randrange(1, 100_000))
                    for _ in range(10_000)]
        store.load_many(readings)
        stored = {}
        for r in readings:  # oracle keeps first-per-key like the store
            stored.setdefault((r.node_id, r.sensor_id, r.timestamp), r)
        for _ in range(25):
            a = rng.randrange(0, 100_000)
            b = rng.randrange(0, 100_000)
            start, end = min(a, b), max(a, b) + 1
            expected = sorted(
                (r for r in stored.values() if start <= r.timestamp < end),
                key=lambda r: (r.timestamp, r.sensor_id, r.node_id))
            assert list(store.query(TimeRange(start, end))) == expected

    def test_interleaved_insert_query(self, rng):
        store = LocalStore("node-00")
        store.insert(make_reading(rng, timestamp=50, sensor_id="a"))
        assert len(store.query(TimeRange(1, 100))) == 1
        store.insert(make_reading(rng, timestamp=60, sensor_id="b"))
        assert len(store.query(TimeRange(1, 100))) == 2


_store_readings = st.builds(
    SensorReading,
    node_id=st.sampled_from(("node-00", "node-01")),
    sensor_id=st.sampled_from(("s1", "s2", "s3")),
    timestamp=st.integers(1, 6),
    temperature=st.integers(0, 3).map(float),
)
_store_steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), _store_readings),
    st.tuples(st.just("query"), st.integers(0, 7), st.integers(0, 7)),
), max_size=30)


@settings(max_examples=300)
@given(_store_steps)
def test_interleaved_inserts_and_queries_match_first_writes(steps):
    """Few keys, so writes repeat keys with other data and share timestamps
    across sensors, and range bounds often fall on a stored timestamp."""
    store = LocalStore("node-00")
    first: dict[tuple, SensorReading] = {}

    def expected(start, end):
        return tuple(sorted(
            (r for r in first.values() if start <= r.timestamp < end),
            key=lambda r: (r.timestamp, r.sensor_id, r.node_id)))

    for step in steps:
        if step[0] == "insert":
            r = step[1]
            store.insert(r)
            first.setdefault((r.node_id, r.sensor_id, r.timestamp), r)
        else:
            _, start, end = step
            assert store.query(TimeRange(start, end)) == expected(start, end)
    assert store.all_readings() == expected(0, 8)
    assert len(store) == len(first)


class TestAggregate:
    def test_hand_arithmetic(self, rng):
        store = LocalStore("node-00")
        for i, t in enumerate((10.0, 20.0)):
            base = make_reading(rng, timestamp=i + 1, sensor_id=f"s{i}")
            store.insert(SensorReading(
                node_id=base.node_id, sensor_id=base.sensor_id,
                timestamp=base.timestamp, temperature=t))
        agg = summarize(store.query(TimeRange(1, 10)),
                        ("temperature",)).as_dict["temperature"]
        assert (agg.mean, agg.count, agg.min, agg.max) == (15.0, 2, 10.0, 20.0)

    def test_empty_range_has_no_aggregates(self, rng):
        store, _ = filled_store(rng, 20)
        assert summarize(store.query(TimeRange(10**14, 10**14 + 1)),
                         NUMERIC_FIELDS).fields == ()

    def test_matches_naive_oracle(self):
        rng = random.Random(1234)
        store = LocalStore("node-00")
        readings = [make_reading(rng, timestamp=rng.randrange(1, 50_000))
                    for _ in range(10_000)]
        store.load_many(readings)
        full = TimeRange(1, 50_001)
        assert_summary_close(summarize(store.query(full), NUMERIC_FIELDS),
                             naive_summary(store.query(full), NUMERIC_FIELDS))

    def test_agrees_with_query_fold(self, rng):
        store, _ = filled_store(rng, 300)
        for _ in range(10):
            a = rng.randrange(0, 10**12)
            b = rng.randrange(0, 10**12)
            window = TimeRange(min(a, b), max(a, b) + 1)
            assert_summary_close(summarize(store.query(window), NUMERIC_FIELDS),
                                 naive_summary(store.query(window), NUMERIC_FIELDS))


_invalid_readings = st.builds(
    SensorReading, node_id=st.just("node-00"), sensor_id=st.just("s1"),
    timestamp=st.integers(1, 6), humidity=st.just(150.0))


def _insert_loop(store, readings):
    """What `load_many` must equal: `insert` on each reading in turn."""
    n = 0
    for r in readings:
        n += store.insert(r) is True
    return n


def _outcome(load, store, readings):
    try:
        return load(store, readings), None
    except ValidationError as e:
        return None, e.field


class TestLoadMany:
    @settings(max_examples=300)
    @given(st.lists(_store_readings, max_size=6),
           st.lists(st.one_of(_store_readings, _invalid_readings), max_size=20))
    def test_equals_an_insert_loop(self, before, batch):
        """New, duplicate and invalid readings in any mix, on a store whose
        canonical view is already cached."""
        loaded, looped = LocalStore("node-00"), LocalStore("node-00")
        for store in (loaded, looped):
            for r in before:
                store.insert(r)
            store.all_readings()
        got = _outcome(LocalStore.load_many, loaded, batch)
        assert got == _outcome(_insert_loop, looped, batch)
        assert loaded.all_readings() == looped.all_readings()
        assert all(a is b for a, b in zip(loaded.all_readings(), looped.all_readings()))
        fresh = SensorReading("node-00", "fresh", 99)
        assert loaded.insert(fresh) is looped.insert(fresh) is True
        assert loaded.all_readings() == looped.all_readings()
        assert len(loaded) == len(looped)

    def test_new_duplicate_and_invalid_without_a_listener(self, rng):
        readings = [make_reading(rng, timestamp=i + 1, sensor_id=f"s{i}") for i in range(6)]
        store = LocalStore("node-00")
        assert store.load_many(readings[:4] + readings[2:]) == 6
        assert store.load_many(readings) == 0
        assert store.all_readings() == tuple(readings)
        at_50 = make_reading(rng, timestamp=50)
        assert store.insert(at_50) is True
        assert len(store) == 7
        bad = SensorReading("node-00", "s-bad", 60, humidity=150.0)
        with pytest.raises(ValidationError):
            store.load_many([bad])
        assert len(store) == 7
        at_70 = make_reading(rng, timestamp=70)
        assert store.insert(at_70) is True
        assert len(store) == 8
        assert store.all_readings() == (*readings, at_50, at_70)

    def test_invalid_reading_partway_keeps_the_readings_before_it(self, rng):
        store = LocalStore("node-00")
        first = make_reading(rng, timestamp=5, sensor_id="s0")
        store.insert(first)
        assert store.all_readings() == (first,)  # the canonical view is cached
        before = [make_reading(rng, timestamp=ts, sensor_id="s1") for ts in (1, 9)]
        bad = SensorReading("node-00", "s2", 3, humidity=150.0)
        after = make_reading(rng, timestamp=2, sensor_id="s3")
        with pytest.raises(ValidationError):
            store.load_many([before[0], first, before[1], bad, after])
        assert store.all_readings() == (before[0], first, before[1])
        assert store.insert(after) is True
        assert store.all_readings() == (before[0], after, first, before[1])


@given(st.lists(st.integers(min_value=1, max_value=10**9), unique=True,
                min_size=1, max_size=60))
@settings(max_examples=60)
def test_query_insert_consistency(timestamps):
    rng = random.Random(7)
    store = LocalStore("node-00")
    readings = {make_reading(rng, timestamp=ts, sensor_id=f"s{ts}") for ts in timestamps}
    store.load_many(readings)
    full = store.query(TimeRange(1, max(timestamps) + 1))
    assert set(full) == readings
    assert list(map(canonical_order, full)) == sorted(map(canonical_order, readings))
