import copy
import dataclasses
import hashlib
import inspect
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_reading
from oracles import assert_summary_close, naive_summary, union_collect
from syncmesh import wire
from syncmesh.model import (
    FIELD_NAMES,
    NUMERIC_FIELDS,
    CodecId,
    FieldAggregate,
    QueryRequest,
    QueryResponse,
    Scope,
    SensorReading,
    Summary,
    TimeRange,
    TransformerSpec,
    ValidationError,
    canonical_json,
    canonical_order,
    merge_reading_sets,
    merge_summaries,
    reading_key,
    summarize,
    validate_reading,
    validate_request,
)


def _req(**kw):
    defaults = dict(request_id="r1", range=TimeRange(0, 1000),
                    projection=frozenset(), transformer=None, scope=Scope.LOCAL)
    defaults.update(kw)
    return QueryRequest(**defaults)


class TestValidateRequest:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate_request(_req(range=TimeRange(0, 0)))
        assert err.value.field == "range"

    def test_legal_projection_ok(self):
        validate_request(_req(range=TimeRange(1, 2),
                              projection=frozenset({"temperature"})))

    def test_unknown_projection_field(self):
        with pytest.raises(ValidationError) as err:
            validate_request(_req(projection=frozenset({"wind_speed"})))
        assert err.value.field == "projection"

    def test_inverted_range(self):
        with pytest.raises(ValidationError) as err:
            validate_request(_req(range=TimeRange(10, 5)))
        assert err.value.field == "range"

    def test_empty_request_id(self):
        with pytest.raises(ValidationError) as err:
            validate_request(_req(request_id=""))
        assert err.value.field == "request_id"

    def test_nameless_transformer(self):
        with pytest.raises(ValidationError) as err:
            validate_request(_req(transformer=TransformerSpec.of("")))
        assert err.value.field == "transformer"


class TestValidateReading:
    def test_valid(self, rng):
        validate_reading(make_reading(rng))

    @pytest.mark.parametrize("kw,field", [
        (dict(timestamp=0), "timestamp"),
        (dict(timestamp=-5), "timestamp"),
        (dict(humidity=150.0), "humidity"),
        (dict(humidity=-1.0), "humidity"),
        (dict(p1=-0.1), "p1"),
        (dict(p2=-2.0), "p2"),
    ])
    def test_invalid(self, rng, kw, field):
        base = make_reading(rng)
        bad = SensorReading(**{**_as_kwargs(base), **kw})
        with pytest.raises(ValidationError) as err:
            validate_reading(bad)
        assert err.value.field == field

    def test_none_fields_allowed(self, rng):
        base = make_reading(rng)
        validate_reading(SensorReading(**{
            **_as_kwargs(base),
            "humidity": None, "p1": None, "p2": None, "temperature": None,
        }))


def _as_kwargs(r: SensorReading) -> dict:
    return dict(node_id=r.node_id, sensor_id=r.sensor_id, timestamp=r.timestamp,
                lat=r.lat, lon=r.lon, p1=r.p1, p2=r.p2,
                temperature=r.temperature, humidity=r.humidity, pressure=r.pressure)


# -- serialization round trips -------------------------------------------------

_ids = st.text(alphabet="abcdefgh-0123456789", min_size=1, max_size=12)
_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_opt_floats = st.one_of(st.none(), _floats)

_readings = st.builds(
    SensorReading,
    node_id=_ids, sensor_id=_ids,
    timestamp=st.integers(min_value=1, max_value=2**53),
    lat=_opt_floats, lon=_opt_floats,
    p1=_opt_floats, p2=_opt_floats,
    temperature=_opt_floats, humidity=_opt_floats, pressure=_opt_floats,
)

_ranges = st.builds(
    TimeRange,
    start=st.integers(min_value=0, max_value=10**12),
    end=st.integers(min_value=0, max_value=10**12),
)

_requests = st.builds(
    QueryRequest,
    request_id=_ids,
    range=_ranges,
    projection=st.frozensets(st.sampled_from(FIELD_NAMES), max_size=4),
    transformer=st.one_of(
        st.none(),
        st.builds(TransformerSpec.of,
                  st.sampled_from(["identity", "downsample", "aggregate_mean"]),
                  st.dictionaries(st.sampled_from(["k", "fields"]),
                                  st.sampled_from(["2", "temperature"]), max_size=2))),
    scope=st.sampled_from(Scope),
)


@given(_readings)
def test_reading_roundtrip(reading):
    encoded = canonical_json(reading.to_json_dict())
    assert SensorReading.from_json_dict(json.loads(encoded)) == reading


@given(_ranges)
def test_range_roundtrip(time_range):
    assert TimeRange.from_json_dict(
        json.loads(canonical_json(time_range.to_json_dict()))) == time_range


@given(_requests)
def test_request_roundtrip(req):
    assert QueryRequest.from_json_dict(
        json.loads(canonical_json(req.to_json_dict()))) == req


@given(st.lists(_readings, max_size=8), st.booleans(), st.booleans())
@settings(max_examples=60)
def test_response_roundtrip(readings, partial, as_summary):
    if as_summary:
        payload = summarize(readings, NUMERIC_FIELDS)
    else:
        payload = merge_reading_sets([readings])
    resp = QueryResponse(
        request_id="r1", payload=payload,
        contributing_nodes=frozenset(r.node_id for r in readings),
        partial=partial, codec=CodecId.GZIP)
    decoded = QueryResponse.from_json_dict(json.loads(canonical_json(resp.to_json_dict())))
    assert decoded == resp


@given(st.lists(_readings, min_size=2, max_size=6))
def test_reading_order_is_total(readings):
    keys = [canonical_order(r) for r in readings]
    ordered = sorted(keys)
    # antisymmetry and transitivity on the materialized order
    for i in range(len(ordered) - 1):
        assert ordered[i] <= ordered[i + 1]
    assert sorted(ordered, reverse=True)[::-1] == ordered


# -- summaries ------------------------------------------------------------------

class TestSummarize:
    def test_hand_values(self):
        readings = [
            SensorReading("n", "s", 1, temperature=10.0),
            SensorReading("n", "s", 2, temperature=20.0),
        ]
        agg = summarize(readings, ("temperature",)).as_dict["temperature"]
        assert agg.count == 2
        assert agg.mean == 15.0
        assert agg.min == 10.0
        assert agg.max == 20.0

    def test_empty_range_has_no_fields(self):
        assert summarize([], NUMERIC_FIELDS).fields == ()

    def test_none_excluded_from_count(self):
        readings = [
            SensorReading("n", "s", 1, temperature=10.0, pressure=None),
            SensorReading("n", "s", 2, temperature=None, pressure=100.0),
        ]
        s = summarize(readings, ("temperature", "pressure")).as_dict
        assert s["temperature"].count == 1
        assert s["pressure"].count == 1

    def test_against_naive_oracle(self, rng):
        readings = [make_reading(rng) for _ in range(500)]
        assert_summary_close(summarize(readings, NUMERIC_FIELDS),
                             naive_summary(readings, NUMERIC_FIELDS))

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ValidationError):
            summarize([], ("node_id",))


class TestMerge:
    def test_merge_is_not_mean_of_means(self):
        a = summarize([SensorReading("n", "s", 1, temperature=10.0),
                       SensorReading("n", "s", 2, temperature=30.0)], ("temperature",))
        b = summarize([SensorReading("n", "s", 3, temperature=50.0)], ("temperature",))
        merged = merge_summaries([a, b]).as_dict["temperature"]
        assert merged.count == 3
        assert merged.mean == pytest.approx(30.0)  # not (20 + 50) / 2

    def test_merge_reading_sets_dedups(self, rng):
        r1 = make_reading(rng)
        merged = merge_reading_sets([[r1], [r1]])
        assert merged == (r1,)

    def test_merge_orders_canonically(self, rng):
        readings = [make_reading(rng, sensor_id=f"s{i}") for i in range(20)]
        merged = merge_reading_sets([readings[10:], readings[:10]])
        assert list(merged) == sorted(readings, key=canonical_order)


def _dict_path(parts):
    """The union as the dict path builds it: first reading per key, sorted."""
    return union_collect(dict(enumerate(parts)), 0, 10**13)


def _same_readings(got, expected):
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


class TestMergeRepeatedParts:
    """A part equal to an earlier one is skipped; the union does not change."""

    def _part(self, rng, n=30):
        readings = [make_reading(rng, sensor_id=f"s{i % 5}") for i in range(n)]
        return tuple(readings + readings[:4])  # keys repeat inside the part

    def test_the_same_object_repeated(self, rng):
        part = self._part(rng)
        parts = [part] * 12
        assert _same_readings(merge_reading_sets(parts), _dict_path(parts))

    def test_equal_but_distinct_tuples(self, rng):
        first = self._part(rng)
        copy = tuple(dataclasses.replace(r) for r in first)
        assert copy == first and copy[0] is not first[0]
        for parts in ([first, copy], [copy, first], [first, copy, first]):
            assert _same_readings(merge_reading_sets(parts), _dict_path(parts))

    def test_a_same_length_part_that_differs(self, rng):
        first = self._part(rng)
        changed = list(first)
        changed[3] = dataclasses.replace(changed[3], temperature=-99.0)  # key collides
        changed[7] = make_reading(rng, sensor_id="s-new")  # a new key
        changed = tuple(changed)
        assert len(changed) == len(first) and changed != first
        for parts in ([first, changed], [changed, first], [first, changed, first]):
            merged = merge_reading_sets(parts)
            assert _same_readings(merged, _dict_path(parts))
            assert changed[7] in merged


# Readings over a few identity keys, so that parts drawn from them repeat keys.
_KEYED_READINGS = st.builds(
    lambda node, sensor, ts, t: SensorReading(
        f"node-{node}", f"s{sensor}", ts, temperature=float(t)),
    st.integers(0, 2), st.integers(0, 2), st.integers(1, 4), st.integers(-3, 3))


@given(pool=st.lists(_KEYED_READINGS, min_size=1, max_size=12),
       picks=st.lists(st.tuples(st.lists(st.integers(0, 11), max_size=12),
                                st.sampled_from(["as drawn", "canonical", "again"])),
                      max_size=5))
@settings(max_examples=300)
def test_merge_equals_the_dict_path_for_any_parts(pool, picks):
    """Duplicate keys inside and across parts, unsorted parts, and a part
    repeated as the same object or as an equal copy."""
    parts = []
    for indices, how in picks:
        part = tuple(pool[i % len(pool)] for i in indices)
        if how == "canonical":
            part = tuple(sorted(part, key=canonical_order))
        elif how == "again" and parts:
            part = parts[-1] if len(parts) % 2 else tuple(list(parts[-1]))
        parts.append(part)
    assert _same_readings(merge_reading_sets(parts), _dict_path(parts))


@given(pool=st.lists(_KEYED_READINGS, max_size=12, unique_by=reading_key),
       copies=st.integers(0, 3))
def test_one_strictly_canonical_part_comes_back_as_it_is(pool, copies):
    part = tuple(sorted(pool, key=canonical_order))
    parts = [part] + [part, tuple(list(part))] * copies
    merged = merge_reading_sets(parts)
    assert merged is part
    assert _same_readings(merged, _dict_path(parts))


def test_canonical_field_order_in_encoding(rng):
    reading = make_reading(rng)
    keys = list(reading.to_json_dict().keys())
    assert keys == list(FIELD_NAMES)


def test_projection_keeps_identity_fields(rng):
    reading = make_reading(rng)
    keys = list(reading.to_json_dict(frozenset({"temperature"})).keys())
    assert keys == ["node_id", "sensor_id", "timestamp", "temperature"]


def test_field_aggregate_mean_matches_sum_count():
    agg = FieldAggregate(count=4, sum=10.0, min=1.0, max=4.0)
    assert agg.mean == 2.5
    decoded = FieldAggregate.from_json_dict(json.loads(canonical_json(agg.to_json_dict())))
    assert decoded == agg


def test_summary_roundtrip(rng):
    readings = [make_reading(rng) for _ in range(50)]
    summary = summarize(readings, NUMERIC_FIELDS)
    assert Summary.from_json_dict(json.loads(canonical_json(summary.to_json_dict()))) == summary


# -- the reading contract -------------------------------------------------------

_FIXED = SensorReading("node-00", "sensor-000", 1_672_531_200_000,
                       42.6, 23.3, 12.5, 8.25, 21.5, 55.0, None)
# sha256 of pickle.dumps(_FIXED), taken before readings kept their key.
_FIXED_PICKLE_SHA256 = (
    "fc5bdd37427cc54bc6ae47179a26009b298d3c693dfaeb8e06f3e90f7b0948d3")


def test_reading_signature_keeps_its_parameters():
    params = inspect.signature(SensorReading).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if name in ("node_id", "sensor_id", "timestamp")
         else None)
        for name in ("node_id", "sensor_id", "timestamp", "lat", "lon", "p1", "p2",
                     "temperature", "humidity", "pressure")]


@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(SensorReading)])
def test_every_reading_slot_is_frozen(name):
    reading = SensorReading("node-00", "s1", 1000, p1=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(reading, name, getattr(reading, name))


def _encoded(reading):
    """The reading with its JSON text kept, as after a first encode."""
    wire.encode_readings((reading,))
    assert reading._json is not None
    return reading


_CONSTRUCTIONS = {
    "positional": lambda r: SensorReading(
        r.node_id, r.sensor_id, r.timestamp, r.lat, r.lon, r.p1, r.p2,
        r.temperature, r.humidity, r.pressure),
    "keyword": lambda r: SensorReading(**_as_kwargs(r)),
    "replace": lambda r: dataclasses.replace(_encoded(r), p1=99.0),
    "from_json_dict": lambda r: SensorReading.from_json_dict(r.to_json_dict()),
    "projected": lambda r: _encoded(r).projected(frozenset({"temperature"})),
    "pickle": lambda r: pickle.loads(pickle.dumps(_encoded(r))),
    "copy": lambda r: copy.copy(_encoded(r)),
    "deepcopy": lambda r: copy.deepcopy(_encoded(r)),
}


@pytest.mark.parametrize("path", sorted(_CONSTRUCTIONS))
def test_every_construction_keeps_the_identity_key(rng, path):
    source = make_reading(rng)
    built = _CONSTRUCTIONS[path](source)
    assert all(hasattr(built, name) for name in SensorReading.__slots__)
    assert reading_key(built) == (built.node_id, built.sensor_id, built.timestamp)
    assert reading_key(built) == reading_key(source)
    assert built._json is None
    if path not in ("replace", "projected"):
        assert built == source


def test_pickled_reading_keeps_its_bytes():
    """Neither the kept key nor the kept text is pickled."""
    for reading in (_FIXED, _encoded(copy.copy(_FIXED))):
        data = pickle.dumps(reading)
        assert hashlib.sha256(data).hexdigest() == _FIXED_PICKLE_SHA256
        assert pickle.loads(data) == reading
