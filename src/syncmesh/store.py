"""Per-node local database: time-indexed readings and range queries.

The store is an in-memory key -> reading map, its canonical order cached as
one tuple until the next insert. Inserts are idempotent on
(node_id, sensor_id, timestamp): the first reading stored under a key stays.
"""

from __future__ import annotations

from .model import (
    ReadingSet,
    SensorReading,
    TimeRange,
    in_canonical_order,
    reading_key,
    time_slice,
    validate_reading,
)


class LocalStore:
    """Time-ordered reading storage for one node."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._by_key: dict[tuple[str, str, int], SensorReading] = {}
        self._ordered: ReadingSet | None = None

    def __len__(self) -> int:
        return len(self._by_key)

    def insert(self, reading: SensorReading) -> bool:
        """Persist one reading; False when its key is already stored."""
        validate_reading(reading)
        key = reading_key(reading)
        if key in self._by_key:
            return False
        self._by_key[key] = reading
        self._ordered = None
        return True

    def load_many(self, readings) -> int:
        """Insert many readings; returns how many were new.

        The same as `insert` on each in turn, also when an invalid reading
        stops the load partway: the readings before it stay. It validates
        readings its callers outside the tests validated already (about 4 ms
        of a 12-node, 30-day dataset): the store keeps its own invariant."""
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
        return added

    def all_readings(self) -> ReadingSet:
        """Every reading in canonical order, cached until the next insert."""
        if self._ordered is None:
            self._ordered = in_canonical_order(self._by_key.values())
        return self._ordered

    def query(self, time_range: TimeRange) -> ReadingSet:
        """Readings with timestamp in [start, end), in canonical order."""
        return time_slice(self.all_readings(), time_range)
