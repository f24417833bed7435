"""Independent brute-force oracles used to check system results.

Deliberately naive: plain loops over full concatenations, no reuse of the
library's merge or index paths.
"""


def union_collect(partitions, start, end):
    """Expected Collect result: dedup by (node, sensor, ts), sort canonically."""
    seen = {}
    for readings in partitions.values():
        for r in readings:
            if start <= r.timestamp < end:
                key = (r.node_id, r.sensor_id, r.timestamp)
                if key not in seen:
                    seen[key] = r
    return sorted(seen.values(), key=lambda r: (r.timestamp, r.sensor_id, r.node_id))


def naive_summary(readings, fields):
    """Expected per-field aggregates via a flat second pass per statistic."""
    out = {}
    for name in fields:
        values = [getattr(r, name) for r in readings if getattr(r, name) is not None]
        if not values:
            continue
        total = 0.0
        for v in values:
            total += v
        out[name] = {
            "count": len(values),
            "sum": total,
            "min": min(values),
            "max": max(values),
            "mean": total / len(values),
        }
    return out


def assert_summary_close(summary, expected, rel=1e-9):
    """Compare a Summary against the naive oracle within relative tolerance."""
    got = {name: agg for name, agg in summary.fields}
    assert set(got) == set(expected), (sorted(got), sorted(expected))
    for name, exp in expected.items():
        agg = got[name]
        assert agg.count == exp["count"], name
        assert agg.min == exp["min"], name
        assert agg.max == exp["max"], name
        assert abs(agg.sum - exp["sum"]) <= rel * max(1.0, abs(exp["sum"])), name
        assert abs(agg.mean - exp["mean"]) <= rel * max(1.0, abs(exp["mean"])), name


def reference_fold(batches):
    """The readings, in canonical order, of the store that central's server
    or a p2p peer builds from the (writer, batch) pairs it holds, given in
    arrival order.

    `syncmesh.baselines` must load the same readings. A batch counts only
    when it is valid and holds only its writer's readings; of those, the
    first copy of each (node, sensor, timestamp) key stays."""
    from syncmesh.model import ValidationError, validate_reading

    first = {}
    for writer, batch in batches:
        try:
            for r in batch:
                validate_reading(r)
        except ValidationError:
            continue
        if any(r.node_id != writer for r in batch):
            continue
        for r in batch:
            first.setdefault((r.node_id, r.sensor_id, r.timestamp), r)
    return tuple(sorted(first.values(),
                        key=lambda r: (r.timestamp, r.sensor_id, r.node_id)))


def reference_encode_response(resp):
    """The uncompressed response body as first spliced: one join of the
    head, the readings array and the tail, or the generic canonical
    encoding of a summary.

    `syncmesh.wire.response_parts` must give parts whose join is this."""
    from syncmesh.model import Summary, canonical_json
    from syncmesh.wire import encode_readings

    if isinstance(resp.payload, Summary):
        return canonical_json(resp.to_json_dict())
    return b"".join((
        b'{"request_id":', canonical_json(resp.request_id),
        b',"payload_kind":"readings","payload":', encode_readings(resp.payload),
        b',"contributing_nodes":', canonical_json(sorted(resp.contributing_nodes)),
        b',"partial":', canonical_json(resp.partial),
        b',"codec":', canonical_json(resp.codec.name), b"}"))


def reference_compress(data: bytes) -> bytes:
    """FASTLZ compression as first written: greedy, one byte at a time.

    The library's compressor must emit exactly these tokens. The table is keyed
    by the 3-byte sequence packed into an int and holds every scanned position
    plus each match's last position; a match is extended byte by byte.
    """
    data = bytes(data)
    n = len(data)
    out = bytearray()
    if n < 4:
        _reference_literals(out, data, 0, n)
        return bytes(out)
    table = {}
    pos = 0
    lit_start = 0
    limit = n - 2
    while pos < limit:
        key = data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16)
        candidate = table.get(key)
        table[key] = pos
        if candidate is None or pos - candidate > 8192:
            pos += 1
            continue
        length = 3
        max_len = n - pos
        while length < max_len and data[candidate + length] == data[pos + length]:
            length += 1
        _reference_literals(out, data, lit_start, pos)
        _reference_match(out, length, pos - candidate)
        tail = pos + length - 1
        if tail < limit:
            table[data[tail] | (data[tail + 1] << 8) | (data[tail + 2] << 16)] = tail
        pos += length
        lit_start = pos
    _reference_literals(out, data, lit_start, n)
    return bytes(out)


def _reference_literals(out, data, start, end):
    while start < end:
        run = min(32, end - start)
        out.append(run - 1)
        out += data[start : start + run]
        start += run


def _reference_match(out, length, distance):
    offset = distance - 1
    while length >= 3:
        chunk = min(length, 264)
        if length - chunk in (1, 2):
            chunk = length - 3
        if chunk <= 8:
            out.append(((chunk - 2) << 5) | (offset >> 8))
            out.append(offset & 0xFF)
        else:
            out.append(0xE0 | (offset >> 8))
            out.append(chunk - 9)
            out.append(offset & 0xFF)
        length -= chunk


# sha256 of generate_synthetic(12, 30, 48, seed=7, balance_across=12), taken
# from the generator that wrote each row to a StringIO.
SEED7_12_NODE_CSV_SHA256 = (
    "709759516662541ce6734b04adab5fd8f2a1b0f3dad025c3bc923e6af9730bc0")


def reference_generate(n_sensors, days, readings_per_sensor_per_day, seed,
                       balance_across=None):
    """The synthetic CSV as first written: the stdlib's `lognormvariate`,
    `uniform` and `gauss` draw every value.

    `syncmesh.bench.generate_synthetic` must return the same text.
    """
    import io
    import random

    from syncmesh.bench import SYNTHETIC_EPOCH_S, balanced_sensor_ids

    if balance_across:
        sensor_ids = balanced_sensor_ids(n_sensors, balance_across)
    else:
        sensor_ids = [f"sensor-{i:03d}" for i in range(n_sensors)]
    interval_s = 86_400 // readings_per_sensor_per_day
    out = io.StringIO()
    out.write("sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity,pressure\n")
    for sensor_id in sensor_ids:
        rng = random.Random(f"{seed}|{sensor_id}")
        lat = round(42.55 + rng.random() * 0.3, 5)
        lon = round(23.20 + rng.random() * 0.4, 5)
        for step in range(days * readings_per_sensor_per_day):
            ts = SYNTHETIC_EPOCH_S + step * interval_s
            p1 = round(rng.lognormvariate(2.6, 0.7), 2)
            p2 = round(rng.lognormvariate(2.1, 0.7), 2)
            temperature = round(rng.uniform(-10.0, 40.0), 2)
            humidity = round(rng.uniform(0.0, 100.0), 2)
            pressure = "" if step % 7 == 3 else f"{rng.gauss(101_325.0, 300.0):.1f}"
            out.write(f"{sensor_id},{lat},{lon},{ts},{p1},{p2},{temperature},"
                      f"{humidity},{pressure}\n")
    return out.getvalue()


def reference_ingest(text, n_nodes, source="<memory>"):
    """CSV ingest as first written: one helper call per cell, one comparison
    per row for the time span.

    `syncmesh.bench.ingest_csv_text` must return an equal manifest and equal
    partitions, and raise the same errors.
    """
    import csv
    import io

    from syncmesh.bench import (
        REQUIRED_COLUMNS,
        DatasetManifest,
        EmptyDataset,
        MissingColumn,
        node_index_for,
    )
    from syncmesh.model import SensorReading, validate_reading

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset(f"{source}: no header row")
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    index = {}
    for name in REQUIRED_COLUMNS:
        pos = columns.get(name.lower())
        if pos is None:
            raise MissingColumn(name)
        index[name] = pos
    if "pressure" in columns:
        index["pressure"] = columns["pressure"]

    node_ids = [f"node-{i:02d}" for i in range(n_nodes)]
    partitions = {n: [] for n in node_ids}
    rows = 0
    malformed = 0
    t_min = None
    t_max = None
    for raw in reader:
        if not raw or all(not cell.strip() for cell in raw):
            continue
        try:
            sensor_id = raw[index["sensor_id"]].strip()
            if not sensor_id:
                raise ValueError("empty sensor_id")
            node_id = node_ids[node_index_for(sensor_id, n_nodes)]
            reading = SensorReading(
                node_id=node_id,
                sensor_id=sensor_id,
                timestamp=_reference_timestamp_ms(raw[index["timestamp"]]),
                lat=_reference_float(raw[index["lat"]]),
                lon=_reference_float(raw[index["lon"]]),
                p1=_reference_float(raw[index["P1"]]),
                p2=_reference_float(raw[index["P2"]]),
                temperature=_reference_float(raw[index["temperature"]]),
                humidity=_reference_float(raw[index["humidity"]]),
                pressure=(_reference_float(raw[index["pressure"]])
                          if "pressure" in index else None),
            )
            validate_reading(reading)
        except (ValueError, IndexError):
            malformed += 1
            continue
        partitions[node_id].append(reading)
        rows += 1
        if t_min is None or reading.timestamp < t_min:
            t_min = reading.timestamp
        if t_max is None or reading.timestamp > t_max:
            t_max = reading.timestamp
    if rows == 0:
        raise EmptyDataset(f"{source}: no ingestible data rows")
    manifest = DatasetManifest(
        source=source,
        row_count=rows,
        malformed_rows=malformed,
        time_start=t_min,
        time_end=t_max,
        per_node_counts=tuple((n, len(partitions[n])) for n in node_ids),
    )
    return manifest, {n: tuple(rs) for n, rs in partitions.items()}


def _reference_timestamp_ms(raw):
    from datetime import datetime, timezone

    raw = raw.strip()
    if not raw:
        raise ValueError("empty timestamp")
    try:
        return int(raw) * 1000
    except ValueError:
        pass
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def _reference_float(raw):
    raw = raw.strip()
    if not raw:
        return None
    return float(raw)
