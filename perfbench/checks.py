"""Correctness checks for benchmark repetitions, computed apart from the program.

The oracle parses the generated CSV text with the stdlib `csv` module, assigns
each sensor to its node by the documented hash rule, and answers every query
by brute force. None of it calls into `syncmesh`, so a fault in ingestion,
storage, the wire format or a merge shows up as a mismatch here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import operator
from dataclasses import dataclass

MS_PER_DAY = 86_400_000
ENVELOPE_HEADER_BYTES = 64
NUMERIC_FIELDS = ("p1", "p2", "temperature", "humidity", "pressure")
_CSV_FIELDS = ("P1", "P2", "temperature", "humidity", "pressure")
# A reading as one tuple, in this order, on both sides of a comparison.
READING_FIELDS = ("node_id", "sensor_id", "timestamp", "lat", "lon") + NUMERIC_FIELDS
_reading_row = operator.attrgetter(*READING_FIELDS)
# Unit roundoff of IEEE double. Any order of summing n terms, merged partial
# sums included, is within (n - 1) * u * sum(|x|) of the exact sum.
_UNIT_ROUNDOFF = 2.0 ** -53


def _float_or_none(raw: str):
    raw = raw.strip()
    return float(raw) if raw else None


class Oracle:
    """Brute-force answers over one generated dataset, readings as tuples."""

    def __init__(self, csv_text: str, n_nodes: int):
        rows = {}
        for rec in csv.DictReader(io.StringIO(csv_text)):
            sensor = rec["sensor_id"].strip()
            digest = hashlib.sha256(sensor.encode("utf-8")).digest()
            node = f"node-{int.from_bytes(digest[:8], 'big') % n_nodes:02d}"
            ts = int(rec["timestamp"]) * 1000
            rows.setdefault((node, sensor, ts), (
                node, sensor, ts, _float_or_none(rec["lat"]),
                _float_or_none(rec["lon"]),
                *(_float_or_none(rec.get(column) or "") for column in _CSV_FIELDS)))
        self.readings = sorted(rows.values(), key=lambda r: (r[2], r[1], r[0]))
        self.time_end = max(r[2] for r in self.readings) + 1

    def window(self, days: int) -> list[tuple]:
        """Readings of the trailing `days`, closed at the last reading."""
        start = self.time_end - days * MS_PER_DAY
        return [r for r in self.readings if start <= r[2] < self.time_end]


def collect_digest(rows: list[tuple]) -> str:
    """sha256 of the canonical compact JSON array of the readings."""
    def as_dict(r):
        out = {"node_id": r[0], "sensor_id": r[1], "timestamp": r[2],
               "geo": {"lat": r[3], "lon": r[4]}}
        out.update(zip(NUMERIC_FIELDS, r[5:]))
        return out

    text = json.dumps([as_dict(r) for r in rows], separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer_rows(payload) -> list[tuple]:
    """A program collect answer as the oracle's reading tuples."""
    return list(map(_reading_row, payload))


@dataclass(frozen=True)
class FieldExpect:
    count: int
    min: float
    max: float
    sum: float  # math.fsum: correctly rounded
    sum_tol: float
    mean: float
    mean_tol: float


@dataclass(frozen=True)
class Expected:
    """The oracle's answer for one query window, small enough to keep.

    `rows_hash` is Python's hash of the tuple of reading tuples: it compares
    a whole answer in milliseconds, and a wrong answer meets it by chance
    with odds of about 2**-64."""

    count: int
    rows_hash: int
    digest: str
    fields: dict


def expect(rows: list[tuple]) -> Expected:
    fields = {}
    for i, name in enumerate(NUMERIC_FIELDS, start=5):
        values = [r[i] for r in rows if r[i] is not None]
        if not values:
            continue
        exact = math.fsum(values)
        tol = len(values) * _UNIT_ROUNDOFF * math.fsum(abs(v) for v in values)
        mean = exact / len(values)
        fields[name] = FieldExpect(
            count=len(values), min=min(values), max=max(values), sum=exact,
            sum_tol=tol, mean=mean,
            mean_tol=tol / len(values) + 2 * _UNIT_ROUNDOFF * abs(mean))
    return Expected(count=len(rows), rows_hash=hash(tuple(rows)),
                    digest=collect_digest(rows), fields=fields)


def check_collect(payload, want: Expected) -> list[str]:
    """(a) A collect answer is the deduplicated, canonically ordered union."""
    if len(payload) != want.count:
        return [f"collect answer has {len(payload)} readings, "
                f"the union has {want.count}"]
    if hash(tuple(answer_rows(payload))) != want.rows_hash:
        return ["collect answer differs from the union oracle"]
    return []


def check_reported_digest(digest: str, want: Expected) -> list[str]:
    """(a) The digest a collect repetition reports is the union's."""
    if digest != want.digest:
        return ["reported digest differs from the union oracle's"]
    return []


def check_transform(summary, want: Expected) -> list[str]:
    """(b) Exact count/min/max; sum and mean within the summation error bound."""
    got = {name: agg for name, agg in summary.fields}
    if sorted(got) != sorted(want.fields):
        return [f"summary fields {sorted(got)} != {sorted(want.fields)}"]
    errors = []
    for name, exp in want.fields.items():
        agg = got[name]
        if agg.count != exp.count:
            errors.append(f"{name}: count {agg.count} != {exp.count}")
        if agg.min != exp.min or agg.max != exp.max:
            errors.append(f"{name}: min/max ({agg.min}, {agg.max}) != "
                          f"({exp.min}, {exp.max})")
        if not abs(agg.sum - exp.sum) <= exp.sum_tol:
            errors.append(f"{name}: sum {agg.sum!r} off fsum {exp.sum!r} "
                          f"by more than {exp.sum_tol:.3g}")
        if not abs(agg.mean - exp.mean) <= exp.mean_tol:
            errors.append(f"{name}: mean {agg.mean!r} off {exp.mean!r} "
                          f"by more than {exp.mean_tol:.3g}")
    return errors


def check_bytes(row, system: str) -> list[str]:
    """(c) Per-repetition byte identity; syncmesh and sharded ship no data."""
    errors = []
    link_total = row.bytes_client + row.bytes_internal + row.bytes_server
    phase_total = row.ingest_bytes_total + row.query_bytes_total
    if link_total != phase_total:
        errors.append(f"bytes by link class {link_total} != "
                      f"bytes by phase {phase_total}")
    if system in ("syncmesh", "sharded") and row.ingest_bytes_total != 0:
        errors.append(f"{system} shipped {row.ingest_bytes_total} ingest bytes")
    return errors


def check_complete(row) -> list[str]:
    """(d) A complete answer with a positive request time."""
    errors = []
    if row.partial:
        errors.append("partial answer")
    if not row.request_time_ms > 0:
        errors.append(f"request time {row.request_time_ms} ms is not positive")
    return errors


def check_envelope_log(ledger_total: int, log) -> list[str]:
    """(c) The ledger total equals the sum of 64 + len(body) over the log."""
    logged = sum(ENVELOPE_HEADER_BYTES + len(entry.envelope.body) for entry in log)
    if ledger_total != logged:
        return [f"ledger total {ledger_total} != {logged} logged envelope bytes"]
    return []


def check_matrix_digest(digest: str, recorded: str | None) -> list[str]:
    """(e) One seed and one source tree always write the same matrix.csv."""
    if recorded is not None and digest != recorded:
        return [f"matrix.csv digest {digest[:12]} != {recorded[:12]} "
                f"recorded for the same seed and source"]
    return []
