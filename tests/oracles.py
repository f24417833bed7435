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


class ReferenceReplica:
    """The p2p replica as first written: one (version, reading) entry per key.

    `syncmesh.baselines.P2PReplica` must give the same readings, winning
    writers and digest. Every write compares whole (timestamp, writer)
    versions, and every read sorts and filters the full replica.
    """

    def __init__(self):
        self._entries = {}

    def apply(self, reading, version):
        key = (reading.node_id, reading.sensor_id, reading.timestamp)
        current = self._entries.get(key)
        if current is not None and version <= current[0]:
            return False
        self._entries[key] = (version, reading)
        return True

    def apply_batch(self, readings, writer):
        for r in readings:
            self.apply(r, (r.timestamp, writer))

    def writer(self, key):
        entry = self._entries.get(key)
        return None if entry is None else entry[0][1]

    def readings(self):
        return tuple(sorted((r for _, r in self._entries.values()),
                            key=lambda r: (r.timestamp, r.sensor_id, r.node_id)))

    def query_range(self, time_range):
        return tuple(r for r in self.readings() if time_range.contains(r.timestamp))

    def digest(self):
        from syncmesh.payloads import fingerprint
        from syncmesh.wire import encode_readings

        return fingerprint(encode_readings(self.readings()))


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
