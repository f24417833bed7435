"""Per-node local database: time-indexed readings and range queries.

The store is an in-memory key -> reading map, its canonical order cached as
one tuple until the next insert. Inserts are idempotent on
(node_id, sensor_id, timestamp): the first reading stored under a key stays.
A batch loads whole or not at all: one invalid reading loads none of it.
"""

from __future__ import annotations

from .model import (
    ReadingSet,
    SensorReading,
    TimeRange,
    ValidationError,
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
        """Insert many readings; returns how many were new. The same as
        `insert` on each in turn, but all or none: a reading that fails
        `validate_reading` raises its error, and the readings this call
        added before it are taken out again. They are the map's last keys,
        as a dict keeps its insertion order. So a caller that loads a batch
        only if every reading is valid validates each once, by the load."""
        by_key = self._by_key
        keep_first = by_key.setdefault
        before = len(by_key)
        try:
            for r in readings:
                validate_reading(r)
                keep_first(reading_key(r), r)
        except BaseException:
            for _ in range(len(by_key) - before):
                by_key.popitem()
            raise
        added = len(by_key) - before
        if added:
            self._ordered = None
        return added

    def apply_batch(self, readings: ReadingSet) -> None:
        """Load a shipped batch whole, or none of it if a reading is invalid:
        one bad batch must not end the run."""
        try:
            self.load_many(readings)
        except (ValidationError, TypeError):
            pass

    def all_readings(self) -> ReadingSet:
        """Every reading in canonical order, cached until the next insert."""
        if self._ordered is None:
            self._ordered = in_canonical_order(self._by_key.values())
        return self._ordered

    def query(self, time_range: TimeRange) -> ReadingSet:
        """Readings with timestamp in [start, end), in canonical order."""
        return time_slice(self.all_readings(), time_range)
