"""Shared domain types: sensor readings, queries, responses and summaries.

All types are immutable value objects with a canonical JSON text encoding
(fixed field order, compact separators) so that equal values always encode
to byte-identical text.
"""

from __future__ import annotations

import bisect
import enum
import json
import operator
from dataclasses import dataclass, field, fields

# Canonical field order of a reading's JSON object.
FIELD_NAMES = (
    "node_id",
    "sensor_id",
    "timestamp",
    "geo",
    "p1",
    "p2",
    "temperature",
    "humidity",
    "pressure",
)
NUMERIC_FIELDS = ("p1", "p2", "temperature", "humidity", "pressure")

MS_PER_DAY = 86_400_000

# A reading's deduplication identity, (node_id, sensor_id, timestamp), kept on
# the reading, and its canonical sort key, (timestamp, sensor_id, node_id),
# built in C.
reading_key = operator.attrgetter("_key")
canonical_order = operator.attrgetter("timestamp", "sensor_id", "node_id")
_timestamp = operator.attrgetter("timestamp")


def in_canonical_order(readings) -> "ReadingSet":
    """The readings as a tuple sorted by `canonical_order`."""
    return tuple(sorted(readings, key=canonical_order))


def time_slice(ordered: "ReadingSet", time_range: "TimeRange") -> "ReadingSet":
    """Readings of `ordered` (canonical order) with timestamp in [start, end)."""
    lo = bisect.bisect_left(ordered, time_range.start, key=_timestamp)
    hi = bisect.bisect_left(ordered, time_range.end, lo, key=_timestamp)
    return ordered[lo:hi]


class ValidationError(ValueError):
    """A value violated an invariant; names the first offending field."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name}: {reason}")
        self.field = field_name
        self.reason = reason


class Scope(enum.Enum):
    LOCAL = "LOCAL"
    MESH = "MESH"


class CodecId(enum.IntEnum):
    NONE = 0
    GZIP = 1
    FASTLZ = 2


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One timestamped multi-field measurement from one sensor on one node.

    `timestamp` is integer UTC milliseconds. Numeric fields may be None when
    the source row lacked them (absent values never count toward aggregates).

    Two slots are not part of the reading's value, so equality, hash, repr
    and pickle ignore them. `_key` holds the identity tuple
    `(node_id, sensor_id, timestamp)`, built once at construction; it is what
    `reading_key` returns, so every store, replica and merge keys on the
    reading's own tuple. `_json` holds `canonical_json(self.to_json_dict())`,
    written by the wire layer the first time the reading is encoded.

    `__init__`, which unpickling and copying run too, is written by hand: it
    sets each slot through the slot's own descriptor instead of one
    `object.__setattr__` per field, and the class stays frozen.
    """

    node_id: str
    sensor_id: str
    timestamp: int
    lat: float | None = None
    lon: float | None = None
    p1: float | None = None
    p2: float | None = None
    temperature: float | None = None
    humidity: float | None = None
    pressure: float | None = None
    _json: bytes | None = field(default=None, init=False, compare=False, repr=False)
    _key: tuple[str, str, int] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __init__(self, node_id: str, sensor_id: str, timestamp: int,
                 lat: float | None = None, lon: float | None = None,
                 p1: float | None = None, p2: float | None = None,
                 temperature: float | None = None, humidity: float | None = None,
                 pressure: float | None = None) -> None:
        _set_node_id(self, node_id)
        _set_sensor_id(self, sensor_id)
        _set_timestamp(self, timestamp)
        _set_lat(self, lat)
        _set_lon(self, lon)
        _set_p1(self, p1)
        _set_p2(self, p2)
        _set_temperature(self, temperature)
        _set_humidity(self, humidity)
        _set_pressure(self, pressure)
        set_reading_json(self, None)
        _set_key(self, (node_id, sensor_id, timestamp))

    def __getstate__(self):
        return [getattr(self, name) for name in _READING_STATE]

    def __setstate__(self, state):
        self.__init__(*state)

    def to_json_dict(self) -> dict:
        out: dict = {
            "node_id": self.node_id,
            "sensor_id": self.sensor_id,
            "timestamp": self.timestamp,
            "geo": {"lat": self.lat, "lon": self.lon},
        }
        for name in NUMERIC_FIELDS:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SensorReading":
        geo = obj.get("geo") or {}
        return cls(
            node_id=obj["node_id"],
            sensor_id=obj["sensor_id"],
            timestamp=obj["timestamp"],
            lat=geo.get("lat"),
            lon=geo.get("lon"),
            p1=obj.get("p1"),
            p2=obj.get("p2"),
            temperature=obj.get("temperature"),
            humidity=obj.get("humidity"),
            pressure=obj.get("pressure"),
        )


# What pickle keeps of a reading: its value, without the kept key and text.
_READING_STATE = tuple(f.name for f in fields(SensorReading) if f.init)

# The slots' own descriptor setters, in field order: the one way a reading's
# slots are written. `set_reading_json(r, text)` keeps a reading's JSON text.
(_set_node_id, _set_sensor_id, _set_timestamp, _set_lat, _set_lon, _set_p1,
 _set_p2, _set_temperature, _set_humidity, _set_pressure, set_reading_json,
 _set_key) = (
    getattr(SensorReading, f.name).__set__ for f in fields(SensorReading))


def validate_reading(r: SensorReading) -> None:
    """Raise ValidationError on the first violated reading invariant."""
    if not r.node_id:
        raise ValidationError("node_id", "must be non-empty")
    if not r.sensor_id:
        raise ValidationError("sensor_id", "must be non-empty")
    if not isinstance(r.timestamp, int) or r.timestamp <= 0:
        raise ValidationError("timestamp", "must be a positive integer (UTC ms)")
    if r.humidity is not None and not 0.0 <= r.humidity <= 100.0:
        raise ValidationError("humidity", "must be within [0, 100]")
    if r.p1 is not None and r.p1 < 0.0:
        raise ValidationError("p1", "must be non-negative")
    if r.p2 is not None and r.p2 < 0.0:
        raise ValidationError("p2", "must be non-negative")


@dataclass(frozen=True, slots=True)
class TimeRange:
    """Half-open interval [start, end) in UTC milliseconds."""

    start: int
    end: int

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end

    def to_json_dict(self) -> dict:
        return {"start": self.start, "end": self.end}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TimeRange":
        return cls(start=obj["start"], end=obj["end"])


@dataclass(frozen=True, slots=True)
class TransformerSpec:
    """Names a built-in transformer (`payloads.BUILTIN_TRANSFORMERS`). Its
    JSON keeps a `params` object, which is always empty."""

    name: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "params": {}}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TransformerSpec":
        if obj.get("params"):
            raise ValidationError("params", "must be empty")
        return cls(name=obj["name"])


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """Unified request schema: time range, optional transformer, scope. Its
    JSON keeps a `projection` list, which is always empty.

    Every memo key holds a request, so its hash, that of its fields' tuple,
    is computed once, at construction, into `_hash`, which is not part of
    its value. A str's hash differs between processes, so a pickled request
    is rebuilt from its fields (`__reduce__`), never given its hash."""

    request_id: str
    range: TimeRange
    transformer: TransformerSpec | None = None
    scope: Scope = Scope.LOCAL
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.request_id, self.range, self.transformer, self.scope)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return QueryRequest, (self.request_id, self.range, self.transformer,
                              self.scope)

    def to_json_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "range": self.range.to_json_dict(),
            "projection": [],
            "transformer": self.transformer.to_json_dict() if self.transformer else None,
            "scope": self.scope.value,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "QueryRequest":
        if obj.get("projection"):
            raise ValidationError("projection", "must be empty")
        transformer = obj.get("transformer")
        return cls(
            request_id=obj["request_id"],
            range=TimeRange.from_json_dict(obj["range"]),
            transformer=TransformerSpec.from_json_dict(transformer) if transformer else None,
            scope=Scope(obj["scope"]),
        )


def validate_request(req: QueryRequest) -> None:
    """Raise ValidationError for the first violated QueryRequest invariant."""
    if not req.request_id:
        raise ValidationError("request_id", "must be non-empty")
    if not isinstance(req.range, TimeRange):
        raise ValidationError("range", "missing time range")
    if req.range.start >= req.range.end:
        raise ValidationError("range", "start must be strictly before end")
    if req.transformer is not None and not req.transformer.name:
        raise ValidationError("transformer", "name must be non-empty")
    if not isinstance(req.scope, Scope):
        raise ValidationError("scope", "must be LOCAL or MESH")


@dataclass(frozen=True, slots=True)
class FieldAggregate:
    """Per-field aggregate; mean derives from (sum, count) so that partial
    aggregates merge. Count, min and max merge exactly; the float sum, and so
    the mean, depends on the order in which parts are added."""

    count: int
    sum: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FieldAggregate":
        return cls(count=obj["count"], sum=obj["sum"], min=obj["min"], max=obj["max"])


@dataclass(frozen=True, slots=True)
class Summary:
    """Per-field aggregates over a reading set; fields with count 0 are absent."""

    fields: tuple[tuple[str, FieldAggregate], ...] = ()

    @classmethod
    def of(cls, aggregates: dict[str, FieldAggregate]) -> "Summary":
        ordered = tuple(
            (name, aggregates[name]) for name in NUMERIC_FIELDS if name in aggregates
        )
        return cls(fields=ordered)

    @property
    def as_dict(self) -> dict[str, FieldAggregate]:
        return dict(self.fields)

    def to_json_dict(self) -> dict:
        return {name: agg.to_json_dict() for name, agg in self.fields}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Summary":
        return cls.of({name: FieldAggregate.from_json_dict(v) for name, v in obj.items()})


ReadingSet = tuple[SensorReading, ...]


def summarize(readings, fields) -> Summary:
    """Aggregate the given numeric fields; None values do not count."""
    aggregates: dict[str, FieldAggregate] = {}
    for name in fields:
        if name not in NUMERIC_FIELDS:
            raise ValidationError("fields", f"{name} is not a numeric field")
        count = 0
        total = 0.0
        lo = hi = None
        for r in readings:
            v = getattr(r, name)
            if v is None:
                continue
            count += 1
            total += v
            if lo is None or v < lo:
                lo = v
            if hi is None or v > hi:
                hi = v
        if count > 0:
            aggregates[name] = FieldAggregate(count=count, sum=total, min=lo, max=hi)
    return Summary.of(aggregates)


def merge_summaries(parts) -> Summary:
    """Merge partial summaries field by field via (sum, count, min, max).

    Count, min and max are exact; the float sum is added in part order, so two
    merge orders of the same readings can differ in the last bits of sum and
    mean."""
    merged: dict[str, FieldAggregate] = {}
    for part in parts:
        for name, agg in part.fields:
            cur = merged.get(name)
            if cur is None:
                merged[name] = agg
            else:
                merged[name] = FieldAggregate(
                    count=cur.count + agg.count,
                    sum=cur.sum + agg.sum,
                    min=min(cur.min, agg.min),
                    max=max(cur.max, agg.max),
                )
    return Summary.of(merged)


def merge_reading_sets(parts) -> ReadingSet:
    """Union of reading sets, deduplicated by key, in canonical order.

    A part equal to an earlier one adds nothing, so it is skipped: the p2p
    client gets the same range from every replica. A tuple that is the one
    distinct part and whose canonical keys strictly increase is that union
    already (its identity keys, the same fields, are then unique), so it is
    returned as it is."""
    distinct: list = []
    for part in parts:
        if any(len(part) == len(seen) and part == seen for seen in distinct):
            continue
        distinct.append(part)
    if (len(distinct) == 1 and isinstance(distinct[0], tuple)
            and _strictly_canonical(distinct[0])):
        return distinct[0]
    by_key: dict[tuple, SensorReading] = {}
    keep_first = by_key.setdefault
    for part in distinct:
        for key, r in zip(map(reading_key, part), part):
            keep_first(key, r)
    return in_canonical_order(by_key.values())


def _strictly_canonical(readings: ReadingSet) -> bool:
    """Whether the readings' canonical keys strictly increase."""
    keys = list(map(canonical_order, readings))
    return all(map(operator.lt, keys, keys[1:]))


@dataclass(frozen=True, slots=True)
class QueryResponse:
    """Merged reply to a query: a reading set or a summary, plus provenance."""

    request_id: str
    payload: "ReadingSet | Summary"
    contributing_nodes: frozenset[str] = frozenset()
    partial: bool = False
    codec: CodecId = CodecId.NONE

    @property
    def payload_kind(self) -> str:
        return "summary" if isinstance(self.payload, Summary) else "readings"

    def to_json_dict(self) -> dict:
        if isinstance(self.payload, Summary):
            payload = self.payload.to_json_dict()
        else:
            payload = [r.to_json_dict() for r in self.payload]
        return {
            "request_id": self.request_id,
            "payload_kind": self.payload_kind,
            "payload": payload,
            "contributing_nodes": sorted(self.contributing_nodes),
            "partial": self.partial,
            "codec": self.codec.name,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "QueryResponse":
        if obj["payload_kind"] == "summary":
            payload: ReadingSet | Summary = Summary.from_json_dict(obj["payload"])
        else:
            payload = tuple(SensorReading.from_json_dict(r) for r in obj["payload"])
        return cls(
            request_id=obj["request_id"],
            payload=payload,
            contributing_nodes=frozenset(obj["contributing_nodes"]),
            partial=obj["partial"],
            codec=CodecId[obj["codec"]],
        )


def canonical_json(obj) -> bytes:
    """Compact, deterministic JSON bytes (assumes dicts built in field order)."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")
