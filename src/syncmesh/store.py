"""Per-node local database: time-indexed readings, aggregation, change stream.

The store is an in-memory key -> reading map, its canonical order cached as
one tuple until the next insert, with an optional JSON-lines snapshot.
Inserts are idempotent on (node_id, sensor_id, timestamp); each accepted
insert emits one ChangeEvent to every registered listener, in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .model import (
    NUMERIC_FIELDS,
    ReadingSet,
    SensorReading,
    Summary,
    TimeRange,
    canonical_json,
    in_canonical_order,
    reading_key,
    summarize,
    time_slice,
    validate_reading,
)


@dataclass(frozen=True, slots=True)
class ChangeEvent:
    reading: SensorReading
    seq: int


class Duplicate:
    """Returned by insert when the reading's key is already stored."""

    __slots__ = ()

    def __repr__(self):
        return "Duplicate()"


DUPLICATE = Duplicate()


class ListenerHandle:
    def __init__(self, store: "LocalStore", callback):
        self._store = store
        self._callback = callback

    def cancel(self) -> None:
        self._store._listeners = [
            h for h in self._store._listeners if h is not self
        ]


class LocalStore:
    """Time-ordered reading storage for one node."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._by_key: dict[tuple[str, str, int], SensorReading] = {}
        self._ordered: ReadingSet | None = None
        self._listeners: list[ListenerHandle] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._by_key)

    def insert(self, reading: SensorReading) -> ChangeEvent | Duplicate:
        """Persist one reading; emits a ChangeEvent unless the key is a duplicate."""
        validate_reading(reading)
        key = reading_key(reading)
        if key in self._by_key:
            return DUPLICATE
        self._by_key[key] = reading
        self._ordered = None
        self._seq += 1
        event = ChangeEvent(reading=reading, seq=self._seq)
        if self._listeners:
            for handle in list(self._listeners):
                handle._callback(event)
        return event

    def load_many(self, readings) -> int:
        """Insert many readings; returns how many were new.

        The same as `insert` on each in turn. With no listener registered no
        ChangeEvent is built, but `seq` advances once per new reading, also
        when an invalid reading stops the load partway."""
        if self._listeners:
            return sum(isinstance(self.insert(r), ChangeEvent) for r in readings)
        by_key = self._by_key
        keep_first = by_key.setdefault
        before = len(by_key)
        try:
            for r in readings:
                validate_reading(r)
                keep_first(reading_key(r), r)
        finally:
            added = len(by_key) - before
            if added:
                self._ordered = None
                self._seq += added
        return added

    def all_readings(self) -> ReadingSet:
        """Every reading in canonical order, cached until the next insert."""
        if self._ordered is None:
            self._ordered = in_canonical_order(self._by_key.values())
        return self._ordered

    def query(self, time_range: TimeRange) -> ReadingSet:
        """Readings with timestamp in [start, end), in canonical order."""
        return time_slice(self.all_readings(), time_range)

    def aggregate(self, time_range: TimeRange, fields=NUMERIC_FIELDS) -> Summary:
        """Per-field summary over the range; None values are not counted."""
        return summarize(self.query(time_range), fields)

    def register_listener(self, callback) -> ListenerHandle:
        """callback(ChangeEvent) fires once per subsequent insert, in seq order."""
        handle = ListenerHandle(self, callback)
        self._listeners.append(handle)
        return handle

    # -- snapshot ------------------------------------------------------------

    def save_snapshot(self, path) -> None:
        """One canonical-JSON reading per line, LF-terminated, timestamp-ascending."""
        with open(path, "wb") as f:
            for r in self.all_readings():
                f.write(canonical_json(r.to_json_dict()))
                f.write(b"\n")

    @classmethod
    def load_snapshot(cls, path, node_id: str | None = None) -> "LocalStore":
        text = Path(path).read_bytes().decode("utf-8")
        readings = [
            SensorReading.from_json_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        if node_id is None:
            node_id = readings[0].node_id if readings else "node-00"
        store = cls(node_id)
        store.load_many(readings)
        return store
