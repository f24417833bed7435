"""A node's local database: inserts, duplicates, range queries, aggregation.

Run: python demos/01_local_store.py
"""

from syncmesh.model import SensorReading, TimeRange, summarize
from syncmesh.store import LocalStore

store = LocalStore("node-00")

# `insert` returns True when it stores the reading.
stored = 0
for hour in range(24):
    stored += store.insert(SensorReading(
        node_id="node-00", sensor_id="sensor-000", timestamp=(hour + 1) * 3_600_000,
        lat=42.69, lon=23.32, p1=12.0 + hour, p2=6.0 + hour / 2,
        temperature=15.0 + hour / 3, humidity=55.0, pressure=101_300.0))

print(f"stored {stored} of 24 readings, the store holds {len(store)}")

# Inserts are idempotent on (node_id, sensor_id, timestamp): a duplicate key
# returns False and the first reading stays.
first = store.all_readings()[0]
dup = store.insert(SensorReading(
    node_id=first.node_id, sensor_id=first.sensor_id, timestamp=first.timestamp,
    temperature=99.0))
print(f"duplicate insert -> {dup}, still {len(store)} readings, "
      f"temperature at t={first.timestamp} is {store.all_readings()[0].temperature:.2f}")

# `load_many` is `insert` on each reading in turn and counts the new ones.
added = store.load_many(store.all_readings()[:5])
print(f"reloading 5 stored readings adds {added}")

# Half-open range query [6h, 12h): readings at hours 6..11.
morning = store.query(TimeRange(6 * 3_600_000, 12 * 3_600_000))
print(f"morning window holds {len(morning)} readings, "
      f"first at t={morning[0].timestamp}")

# Aggregates over a range carry (count, sum, min, max); mean derives from
# sum/count.
summary = summarize(store.query(TimeRange(1, 10**15)), ("temperature", "p1"))
for name, agg in summary.fields:
    print(f"{name}: count={agg.count} mean={agg.mean:.2f} "
          f"min={agg.min:.2f} max={agg.max:.2f}")
