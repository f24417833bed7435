"""Dataset ingestion, scenario orchestration and metrics export.

A scenario run is fully deterministic: the dataset comes from a seeded
generator (or a fixed CSV), per-repetition link latencies derive from
seed + repetition index, and all payload encodings are pure functions.
Repetitions therefore vary in timing but never in result content.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import operator
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from math import cos, exp, log, sin, sqrt, tau
from pathlib import Path
from random import Random

from .baselines import CentralBaseline, P2PBaseline, ShardedBaseline
from .model import (
    MS_PER_DAY,
    QueryRequest,
    Scope,
    SensorReading,
    TimeRange,
    TransformerSpec,
    validate_reading,
)
from .netsim import LinkClass, Network, TrafficLedger, build_topology
from .node import HEARTBEAT_TIMEOUT_MS, MeshClient, SyncMeshNode, run_query
from .payloads import BUILTIN_TRANSFORMERS, PayloadOps
from .store import LocalStore
from . import fastlz, netsim

SYSTEMS = ("syncmesh", "central", "sharded", "p2p")
SCENARIOS = ("collect", "transform")
NETWORK_SIZES = (3, 6, 9, 12)
WINDOWS_DAYS = (1, 7, 14, 30)

DEFAULT_REPETITIONS = 20
DEFAULT_LINK_BANDWIDTH = 1250.0  # bytes per virtual ms (10 Mbit/s)
QUERY_SETTLE_MS = 500.0

SYNTHETIC_DAYS = 30
SYNTHETIC_READINGS_PER_DAY = 48
SYNTHETIC_EPOCH_S = 1_672_531_200  # 2023-01-01T00:00:00Z

REQUIRED_COLUMNS = ("sensor_id", "lat", "lon", "timestamp", "P1", "P2",
                    "temperature", "humidity")
_timestamp = operator.attrgetter("timestamp")
# `random.normalvariate`'s constant, 4 * exp(-0.5) / sqrt(2.0).
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


class ConfigError(ValueError):
    """Scenario parameters outside the supported experiment matrix."""


class MissingColumn(ValueError):
    def __init__(self, column: str):
        super().__init__(f"dataset is missing required column: {column}")
        self.column = column


class EmptyDataset(ValueError):
    pass


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    system: str
    scenario: str
    n_nodes: int
    window_days: int
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 0
    dataset: str = "synthetic"

    def to_json_dict(self, gather_timeout_ms: float) -> dict:
        """The config as run. Each node record holds the heartbeat timeout
        and the transformers every node runs with, and the gather deadline
        the run derived (`_scenario_gather_timeout`)."""
        return {
            "system": self.system,
            "scenario": self.scenario,
            "n_nodes": self.n_nodes,
            "window_days": self.window_days,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "dataset": self.dataset,
            "link_bandwidth_bytes_per_ms": DEFAULT_LINK_BANDWIDTH,
            "node_configs": [
                {"node_id": f"node-{i:02d}",
                 "heartbeat_timeout_ms": HEARTBEAT_TIMEOUT_MS,
                 "gather_timeout_ms": gather_timeout_ms,
                 "registered_transformers": sorted(BUILTIN_TRANSFORMERS)}
                for i in range(self.n_nodes)
            ],
        }


def validate_config(cfg: ScenarioConfig, unsafe: bool = False) -> None:
    if cfg.system not in SYSTEMS:
        raise ConfigError(f"system must be one of {SYSTEMS}, got {cfg.system!r}")
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if not unsafe:
        if cfg.n_nodes not in NETWORK_SIZES:
            raise ConfigError(
                f"n_nodes must be one of {NETWORK_SIZES} (or pass unsafe params)")
        if cfg.window_days not in WINDOWS_DAYS:
            raise ConfigError(
                f"window_days must be one of {WINDOWS_DAYS} (or pass unsafe params)")
    else:
        if cfg.n_nodes < 1 or cfg.window_days < 1:
            raise ConfigError("n_nodes and window_days must be positive")


# ---------------------------------------------------------------------------
# dataset generation and ingestion
# ---------------------------------------------------------------------------

def node_index_for(sensor_id: str, n_nodes: int) -> int:
    """Stable sensor -> node assignment via hashing; all of a sensor's
    readings live on exactly one node."""
    digest = hashlib.sha256(sensor_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_nodes


def balanced_sensor_ids(n_sensors: int, n_buckets: int) -> list[str]:
    """Deterministic sensor ids whose hash assignment cycles the buckets,
    giving each node the same number of sensors (the experiment keeps the
    per-node data volume constant as the network grows)."""
    ids = []
    for i in range(n_sensors):
        want = i % n_buckets
        k = 0
        while True:
            candidate = f"sensor-{i:03d}-{k}"
            if node_index_for(candidate, n_buckets) == want:
                ids.append(candidate)
                break
            k += 1
    return ids


def generate_synthetic(n_sensors: int, days: int, readings_per_sensor_per_day: int,
                       seed: int, balance_across: int | None = None) -> str:
    """Deterministic synthetic air-quality CSV; returns the file text.

    Each sensor draws from its own `random.Random` through `random()` alone.
    The stdlib's `lognormvariate`, `uniform` and `gauss` are written out
    inline with their formulas and draw order, so the floats, and the text,
    are the ones those methods give."""
    if min(n_sensors, days, readings_per_sensor_per_day) < 1:
        raise ConfigError("all synthetic dataset counts must be positive")
    if balance_across:
        sensor_ids = balanced_sensor_ids(n_sensors, balance_across)
    else:
        sensor_ids = [f"sensor-{i:03d}" for i in range(n_sensors)]
    interval_s = 86_400 // readings_per_sensor_per_day
    out = io.StringIO()
    write = out.write
    write("sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity,pressure\n")
    for sensor_id in sensor_ids:
        random = Random(f"{seed}|{sensor_id}").random
        gauss_next = None  # the second Box-Muller deviate, as `gauss` keeps it
        lat = round(42.55 + random() * 0.3, 5)
        lon = round(23.20 + random() * 0.4, 5)
        prefix = f"{sensor_id},{lat},{lon},"
        for step in range(days * readings_per_sensor_per_day):
            ts = SYNTHETIC_EPOCH_S + step * interval_s
            # lognormvariate(2.6, 0.7) and (2.1, 0.7): exp of a
            # Kinderman-Monahan normal deviate.
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            p1 = round(exp(2.6 + z * 0.7), 2)
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            p2 = round(exp(2.1 + z * 0.7), 2)
            # uniform(a, b) is a + (b - a) * random().
            temperature = round(-10.0 + 50.0 * random(), 2)
            humidity = round(0.0 + 100.0 * random(), 2)
            # Every seventh row omits the optional pressure reading; the
            # others take gauss(101_325.0, 300.0), a Box-Muller pair per two.
            if step % 7 == 3:
                pressure = ""
            else:
                z = gauss_next
                gauss_next = None
                if z is None:
                    x2pi = random() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    z = cos(x2pi) * g2rad
                    gauss_next = sin(x2pi) * g2rad
                pressure = f"{101_325.0 + z * 300.0:.1f}"
            write(f"{prefix}{ts},{p1},{p2},{temperature},{humidity},{pressure}\n")
    return out.getvalue()


@dataclass(frozen=True)
class DatasetManifest:
    source: str
    row_count: int
    malformed_rows: int
    time_start: int
    time_end: int
    per_node_counts: tuple[tuple[str, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "row_count": self.row_count,
            "malformed_rows": self.malformed_rows,
            "time_start": self.time_start,
            "time_end": self.time_end,
            "per_node_counts": dict(self.per_node_counts),
        }


def _parse_timestamp_ms(raw: str) -> int:
    raw = raw.strip()
    if not raw:
        raise ValueError("empty timestamp")
    try:
        return int(raw) * 1000  # epoch seconds at source resolution
    except ValueError:
        pass
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def _parse_float(raw: str) -> float | None:
    raw = raw.strip()
    if not raw:
        return None
    return float(raw)


def ingest_csv_text(text: str, n_nodes: int,
                    source: str = "<memory>") -> tuple[DatasetManifest, dict]:
    """Parse CSV text into per-node reading partitions.

    Malformed rows are counted and skipped; raises MissingColumn/EmptyDataset.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset(f"{source}: no header row")
    columns = {name.strip().lower(): i for i, name in enumerate(header)}
    positions = []
    for name in REQUIRED_COLUMNS:
        pos = columns.get(name.lower())
        if pos is None:
            raise MissingColumn(name)
        positions.append(pos)
    # A missing pressure column reads as an empty cell in every row.
    has_pressure = "pressure" in columns
    if has_pressure:
        positions.append(columns["pressure"])
    cells_of = operator.itemgetter(*positions)

    node_ids = [f"node-{i:02d}" for i in range(n_nodes)]
    partitions: dict[str, list[SensorReading]] = {n: [] for n in node_ids}
    node_of_sensor: dict[str, str] = {}
    malformed = 0
    for raw in reader:
        if not "".join(raw).strip():
            continue  # a blank row: every cell empty or whitespace
        try:
            cells = cells_of(raw)
            if not has_pressure:
                cells += ("",)
            sensor_id, lat, lon, ts, p1, p2, temperature, humidity, pressure = cells
            sensor_id = sensor_id.strip()
            if not sensor_id:
                raise ValueError("empty sensor_id")
            node_id = node_of_sensor.get(sensor_id)
            if node_id is None:
                node_id = node_ids[node_index_for(sensor_id, n_nodes)]
                node_of_sensor[sensor_id] = node_id
            try:
                # Plain cells; anything else takes the parse helpers below.
                reading = SensorReading(
                    node_id, sensor_id, int(ts) * 1000,
                    float(lat) if lat else None, float(lon) if lon else None,
                    float(p1) if p1 else None, float(p2) if p2 else None,
                    float(temperature) if temperature else None,
                    float(humidity) if humidity else None,
                    float(pressure) if pressure else None)
            except ValueError:
                reading = SensorReading(
                    node_id, sensor_id, _parse_timestamp_ms(ts),
                    *map(_parse_float, cells[1:3]),
                    *map(_parse_float, cells[4:]))
            validate_reading(reading)
        except (ValueError, IndexError):
            malformed += 1
            continue
        partitions[node_id].append(reading)
    rows = sum(map(len, partitions.values()))
    if rows == 0:
        raise EmptyDataset(f"{source}: no ingestible data rows")
    manifest = DatasetManifest(
        source=source,
        row_count=rows,
        malformed_rows=malformed,
        time_start=min(map(_timestamp, chain.from_iterable(partitions.values()))),
        time_end=max(map(_timestamp, chain.from_iterable(partitions.values()))),
        per_node_counts=tuple((n, len(partitions[n])) for n in node_ids),
    )
    return manifest, {n: tuple(rs) for n, rs in partitions.items()}


def ingest_csv(path, n_nodes: int) -> tuple[DatasetManifest, dict]:
    text = Path(path).read_text(encoding="utf-8")
    return ingest_csv_text(text, n_nodes, source=str(path))


def trailing_window(manifest: DatasetManifest, days: int) -> TimeRange:
    """The last `days` of the dataset, closed at the final reading."""
    end = manifest.time_end + 1
    return TimeRange(start=end - days * MS_PER_DAY, end=end)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class SyncMeshSystem:
    """Mesh of autonomous nodes; the lowest-id node coordinates client queries."""

    def __init__(self, net: Network, stores: dict[str, LocalStore],
                 ops: PayloadOps, gather_timeout_ms: float | None):
        self.net = net
        self.nodes = []
        for node_id in sorted(stores):
            node = SyncMeshNode(stores[node_id], ops, gather_timeout_ms)
            node.attach(net, net.topology)
            self.nodes.append(node)
        self.coordinator_id = self.nodes[0].node_id
        self.client = MeshClient()
        self.client.attach(net)

    def ingest(self) -> float:
        return 0.0  # data is born local; there is nothing to ship

    def query(self, req: QueryRequest, at: float) -> tuple:
        for node in self.nodes:
            node.broadcast_heartbeat(self.net.clock)
        return run_query(self.net, self.client, self.coordinator_id, req, at)


class _PhaseReplay:
    """The recorded ingest phase of one system that ships data (central or
    p2p) on one dataset, installed on later runs instead of re-simulating
    identical events.

    The end state of the phase (the central server store, the p2p replicas)
    is a function of its streams: the batches one sender delivered to one
    receiver, in arrival order. So one end state is kept per distinct key,
    the delivered envelopes stably sorted by (receiver, sender), and equal
    keys mean equal states however the streams interleave; the states are
    numbered in the order they were built. A link serializes its sends in
    order, so every seed that delivers every batch gives one key. The
    duration, the traffic ledger and the number of the end state depend
    on the latency seed, so they are kept per seed: a new seed simulates
    the phase once, and builds an end state only for a key not seen before.

    The memo entries of the ingest live in `scope`, the (system, dataset)
    namespace: what a sender encodes does not depend on what arrives. The
    query that follows answers from the installed end state, so its
    entries live in `scope` plus that state's number."""

    def __init__(self, state_attr: str, scope: tuple):
        self.state_attr = state_attr
        self.scope = scope
        self.states: list = []
        self.numbers: dict[tuple, int] = {}
        self.traffic: dict[int, tuple[float, TrafficLedger, int]] = {}

    def ingest(self, system, net: Network, seed: int) -> tuple[float, TrafficLedger]:
        """Run the phase from t=0 on the new `net`, or replay it and log
        nothing; returns its duration and its ledger."""
        system.ops.scope_key = self.scope
        hit = self.traffic.get(seed)
        if hit is None:
            duration = system.ingest()
            ledger = net.ledger
            number = self._end_state(system)
            self.traffic[seed] = (duration, ledger, number)
        else:
            duration, ledger, number = hit
            net.clock = max(net.clock, duration)
        # Every run answers from a kept state, never from one it just built.
        setattr(system, self.state_attr, self.states[number])
        system.ops.scope_key = self.scope + (number,)
        return duration, ledger

    def _end_state(self, system) -> int:
        """The number of the kept end state of what `system` was delivered,
        built from its batches (the first read does that) when none is."""
        streams = tuple(sorted((env for env, _ in system.delivered),
                               key=operator.attrgetter("receiver", "sender")))
        number = self.numbers.get(streams)
        if number is None:
            number = self.numbers[streams] = len(self.states)
            self.states.append(getattr(system, self.state_attr))
        return number


# Where each system that ships data keeps its ingest end state.
_SHIPPED_STATE = {"central": "server_store", "p2p": "replicas"}


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

@dataclass
class DatasetBundle:
    manifest: DatasetManifest
    partitions: dict
    stores: dict[str, LocalStore]
    key: tuple  # its key in `MatrixCaches.datasets`


@dataclass
class MatrixCaches:
    """Work shared across scenario runs: parsed datasets, topologies, pure
    payload work, and completed ingest-phase outcomes.

    The ingest/sync phase of a repetition is fully determined by (dataset,
    topology seed); configs that differ only in scenario or window
    replay the recorded outcome instead of re-simulating it. `phases` holds
    one `_PhaseReplay` per (system, dataset). `topologies` holds each
    topology built, under (n_nodes, seed, with_server); no run changes one
    after `build_topology`, so every run with that key shares it. `helper`
    parses the tail of each large FASTLZ body, and every second FASTLZ
    ingest batch, on a second core; the command that made these caches
    owns it and closes it. With none, every body is compressed on one
    core, to the same bytes. `endings` holds the `fastlz.Ending` of each
    FASTLZ readings response parsed whole, under (head bytes, sha256 of the
    readings array): its stream, which `payloads` holds too, and two
    integers per body, kept for the command so that a later body with the
    same head and array, such as the sharded router's answer after
    central's, resumes that parse (`PayloadOps`)."""

    datasets: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)
    payloads: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    helper: fastlz.Helper | None = None
    endings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RepetitionRow:
    rep: int
    request_time_ms: float
    ingest_time_ms: float
    bytes_client: int
    bytes_internal: int
    bytes_server: int
    partial: bool
    digest: str
    ingest_bytes_total: int
    query_bytes_total: int


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    manifest: DatasetManifest
    rows: list[RepetitionRow]

    @property
    def request_time_mean_ms(self) -> float:
        return statistics.fmean(r.request_time_ms for r in self.rows)

    @property
    def request_time_std_ms(self) -> float:
        return statistics.pstdev(r.request_time_ms for r in self.rows)

    def mean_total_bytes(self) -> float:
        return sum(r.bytes_client + r.bytes_internal + r.bytes_server
                   for r in self.rows) / len(self.rows)


def _dataset_bundle(cfg: ScenarioConfig, caches: MatrixCaches) -> DatasetBundle:
    if cfg.dataset == "synthetic":
        key = ("synthetic", cfg.seed, cfg.n_nodes)
    else:
        key = ("file", cfg.dataset, cfg.n_nodes)
    bundle = caches.datasets.get(key)
    if bundle is not None:
        return bundle
    if cfg.dataset == "synthetic":
        text = generate_synthetic(
            n_sensors=cfg.n_nodes, days=SYNTHETIC_DAYS,
            readings_per_sensor_per_day=SYNTHETIC_READINGS_PER_DAY,
            seed=cfg.seed, balance_across=cfg.n_nodes)
        manifest, partitions = ingest_csv_text(text, cfg.n_nodes, source="synthetic")
    else:
        manifest, partitions = ingest_csv(cfg.dataset, cfg.n_nodes)
    stores: dict[str, LocalStore] = {}
    for node_id, readings in partitions.items():
        store = LocalStore(node_id)
        store.load_many(readings)
        stores[node_id] = store
    bundle = DatasetBundle(manifest=manifest, partitions=partitions,
                           stores=stores, key=key)
    caches.datasets[key] = bundle
    return bundle


def _scenario_gather_timeout(manifest: DatasetManifest) -> float:
    """The gather deadline of every scenario run on this dataset: the
    default deadline of a topology whose slowest link is the top of the
    latency range (`node.default_gather_timeout_ms`), plus headroom for
    serializing the largest conceivable transfer."""
    return (2.0 * netsim.LATENCY_RANGE_MS[1] + 100.0
            + (4.0 * manifest.row_count * 300.0 / DEFAULT_LINK_BANDWIDTH + 500.0))


def _build_request(cfg: ScenarioConfig, window: TimeRange) -> QueryRequest:
    transformer = None
    if cfg.scenario == "transform":
        transformer = TransformerSpec("aggregate_mean")
    return QueryRequest(request_id="q", range=window, transformer=transformer,
                        scope=Scope.MESH)


def run_scenario(cfg: ScenarioConfig, caches: MatrixCaches | None = None,
                 unsafe: bool = False) -> ScenarioResult:
    """Execute one configuration: per repetition, build a network over the
    topology of its reseeded latencies (one per key in `caches`), run the
    system's ingest phase and one client request, and record timing,
    per-link-class traffic and the result digest. Without `caches`, the run
    makes its own, with a `fastlz.Helper` it closes before it returns."""
    validate_config(cfg, unsafe)
    if caches is not None:
        return _run_scenario(cfg, caches)
    with fastlz.Helper() as helper:
        return _run_scenario(cfg, MatrixCaches(helper=helper))


def _run_scenario(cfg: ScenarioConfig, caches: MatrixCaches) -> ScenarioResult:
    bundle = _dataset_bundle(cfg, caches)
    window = trailing_window(bundle.manifest, cfg.window_days)
    # One system over one dataset: the namespace of its memo entries and
    # of its kept ingest end state.
    scope = (cfg.system, bundle.key)
    ops = PayloadOps(caches.payloads, scope_key=scope, helper=caches.helper,
                     endings=caches.endings)
    gather_timeout = _scenario_gather_timeout(bundle.manifest)
    req = _build_request(cfg, window)
    with_server = cfg.system in ("central", "sharded")
    replay = None
    if cfg.system in _SHIPPED_STATE:
        replay = caches.phases.setdefault(
            scope, _PhaseReplay(_SHIPPED_STATE[cfg.system], scope))

    rows: list[RepetitionRow] = []
    for rep in range(cfg.repetitions):
        topo_key = (cfg.n_nodes, cfg.seed + rep, with_server)
        topo = caches.topologies.get(topo_key)
        if topo is None:
            topo = caches.topologies[topo_key] = build_topology(
                cfg.n_nodes, seed=cfg.seed + rep, with_server=with_server,
                bandwidth_bytes_per_ms=DEFAULT_LINK_BANDWIDTH)
        net = Network(topo)
        if cfg.system == "syncmesh":
            system = SyncMeshSystem(net, bundle.stores, ops, gather_timeout)
        elif cfg.system == "central":
            system = CentralBaseline(net, bundle.partitions, ops)
        elif cfg.system == "sharded":
            system = ShardedBaseline(net, bundle.stores, ops, gather_timeout)
        else:
            system = P2PBaseline(net, bundle.partitions, ops, gather_timeout)
        try:
            if replay is None:
                ingest_ms = system.ingest()
                ingest_phase = net.ledger
            else:
                ingest_ms, ingest_phase = replay.ingest(system, net, cfg.seed + rep)
            mark = len(net.envelope_log)
            t_q = net.clock + QUERY_SETTLE_MS
            resp, rtt = system.query(req, t_q)
            query_phase = TrafficLedger(net.envelope_log[mark:])
        finally:
            net.close()
        by_class = ingest_phase.by_class() + query_phase.by_class()

        def combined(*classes: LinkClass) -> int:
            return sum(by_class[c] for c in classes)

        digest = ops.payload_digest(resp.payload, req, resp.contributing_nodes)
        rows.append(RepetitionRow(
            rep=rep,
            request_time_ms=rtt,
            ingest_time_ms=ingest_ms,
            bytes_client=combined(LinkClass.CLIENT_NODE, LinkClass.CLIENT_SERVER),
            bytes_internal=combined(LinkClass.NODE_NODE),
            bytes_server=combined(LinkClass.NODE_SERVER),
            partial=resp.partial,
            digest=digest,
            ingest_bytes_total=ingest_phase.total(),
            query_bytes_total=query_phase.total(),
        ))
    return ScenarioResult(config=cfg, manifest=bundle.manifest, rows=rows)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "system", "scenario", "n_nodes", "window_days", "rep",
    "request_time_ms", "ingest_time_ms",
    "bytes_client", "bytes_internal", "bytes_server",
    "partial", "digest", "ingest_bytes_total", "query_bytes_total",
    "request_time_mean_ms", "request_time_std_ms",
)


def results_to_csv(results) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for result in results:
        cfg = result.config
        prefix = [cfg.system, cfg.scenario, cfg.n_nodes, cfg.window_days]
        for row in result.rows:
            writer.writerow(prefix + [
                row.rep,
                f"{row.request_time_ms:.3f}",
                f"{row.ingest_time_ms:.3f}",
                row.bytes_client, row.bytes_internal, row.bytes_server,
                "true" if row.partial else "false",
                row.digest,
                row.ingest_bytes_total, row.query_bytes_total,
                "", "",
            ])
        writer.writerow(prefix + [
            "summary", "", "", "", "", "", "", "", "", "",
            f"{result.request_time_mean_ms:.3f}",
            f"{result.request_time_std_ms:.3f}",
        ])
    return out.getvalue()


def results_to_json(results) -> str:
    payload = {
        "results": [
            {
                "config": r.config.to_json_dict(
                    _scenario_gather_timeout(r.manifest)),
                "dataset": r.manifest.to_json_dict(),
                "rows": [
                    {
                        "rep": row.rep,
                        "request_time_ms": round(row.request_time_ms, 3),
                        "ingest_time_ms": round(row.ingest_time_ms, 3),
                        "bytes_client": row.bytes_client,
                        "bytes_internal": row.bytes_internal,
                        "bytes_server": row.bytes_server,
                        "partial": row.partial,
                        "digest": row.digest,
                        "ingest_bytes_total": row.ingest_bytes_total,
                        "query_bytes_total": row.query_bytes_total,
                    }
                    for row in r.rows
                ],
                "summary": {
                    "request_time_mean_ms": round(r.request_time_mean_ms, 3),
                    "request_time_std_ms": round(r.request_time_std_ms, 3),
                },
            }
            for r in results
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def export_results(results, fmt: str, path) -> None:
    if fmt == "csv":
        text = results_to_csv(results)
    elif fmt == "json":
        text = results_to_json(results)
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def parse_results_csv(text: str) -> tuple[list[dict], list[dict]]:
    """Read an exported CSV back into typed data rows and summary rows."""
    reader = csv.DictReader(io.StringIO(text))
    data, summaries = [], []
    for raw in reader:
        base = {
            "system": raw["system"],
            "scenario": raw["scenario"],
            "n_nodes": int(raw["n_nodes"]),
            "window_days": int(raw["window_days"]),
        }
        if raw["rep"] == "summary":
            base["request_time_mean_ms"] = float(raw["request_time_mean_ms"])
            base["request_time_std_ms"] = float(raw["request_time_std_ms"])
            summaries.append(base)
        else:
            base.update({
                "rep": int(raw["rep"]),
                "request_time_ms": float(raw["request_time_ms"]),
                "ingest_time_ms": float(raw["ingest_time_ms"]),
                "bytes_client": int(raw["bytes_client"]),
                "bytes_internal": int(raw["bytes_internal"]),
                "bytes_server": int(raw["bytes_server"]),
                "partial": raw["partial"] == "true",
                "digest": raw["digest"],
                "ingest_bytes_total": int(raw["ingest_bytes_total"]),
                "query_bytes_total": int(raw["query_bytes_total"]),
            })
            data.append(base)
    return data, summaries


# ---------------------------------------------------------------------------
# full experiment matrix
# ---------------------------------------------------------------------------

def matrix_configs(seed: int, systems=SYSTEMS, scenarios=SCENARIOS,
                   sizes=NETWORK_SIZES, windows=WINDOWS_DAYS,
                   repetitions: int = DEFAULT_REPETITIONS) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(system=system, scenario=scenario, n_nodes=n,
                       window_days=w, repetitions=repetitions, seed=seed)
        for system in systems
        for scenario in scenarios
        for n in sizes
        for w in windows
    ]


def run_matrix(seed: int, out_dir, systems=SYSTEMS, scenarios=SCENARIOS,
               sizes=NETWORK_SIZES, windows=WINDOWS_DAYS,
               repetitions: int = DEFAULT_REPETITIONS,
               progress=None) -> list[ScenarioResult]:
    """Run the whole experiment grid and write matrix.csv + manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    configs = matrix_configs(seed, systems, scenarios, sizes, windows, repetitions)
    results = []
    with fastlz.Helper() as helper:
        caches = MatrixCaches(helper=helper)
        for i, cfg in enumerate(configs):
            if progress is not None:
                progress(f"[{i + 1}/{len(configs)}] {cfg.system} {cfg.scenario} "
                         f"n={cfg.n_nodes} days={cfg.window_days}")
            results.append(run_scenario(cfg, caches))
    (out / "matrix.csv").write_text(results_to_csv(results), encoding="utf-8")
    manifest = {
        "seed": seed,
        "repetitions": repetitions,
        "configs": [r.config.to_json_dict(_scenario_gather_timeout(r.manifest))
                    for r in results],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    return results
