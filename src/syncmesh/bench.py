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
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

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
from .netsim import LinkClass, Network, build_topology
from .node import MeshClient, NodeConfig, SyncMeshNode, run_query
from .payloads import PayloadOps, request_token
from .store import LocalStore

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
OPTIONAL_COLUMNS = ("pressure",)


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
    link_bandwidth_bytes_per_ms: float | None = DEFAULT_LINK_BANDWIDTH
    heartbeat_interval_ms: float = 1000.0
    heartbeat_timeout_ms: float = 3000.0
    gather_timeout_ms: float | None = None  # None: derived per scenario

    def node_config_for(self, node_id: str, gather_timeout_ms: float | None) -> NodeConfig:
        return NodeConfig(
            node_id=node_id,
            heartbeat_interval_ms=self.heartbeat_interval_ms,
            heartbeat_timeout_ms=self.heartbeat_timeout_ms,
            gather_timeout_ms=gather_timeout_ms,
        )

    def to_json_dict(self) -> dict:
        gather = self.gather_timeout_ms
        node_ids = [f"node-{i:02d}" for i in range(self.n_nodes)]
        return {
            "system": self.system,
            "scenario": self.scenario,
            "n_nodes": self.n_nodes,
            "window_days": self.window_days,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "dataset": self.dataset,
            "link_bandwidth_bytes_per_ms": self.link_bandwidth_bytes_per_ms,
            "node_configs": [
                self.node_config_for(node_id, gather).to_json_dict()
                for node_id in node_ids
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
    """Deterministic synthetic air-quality CSV; returns the file text."""
    import random

    if min(n_sensors, days, readings_per_sensor_per_day) < 1:
        raise ConfigError("all synthetic dataset counts must be positive")
    if balance_across:
        sensor_ids = balanced_sensor_ids(n_sensors, balance_across)
    else:
        sensor_ids = [f"sensor-{i:03d}" for i in range(n_sensors)]
    interval_s = 86_400 // readings_per_sensor_per_day
    out = io.StringIO()
    out.write("sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity,pressure\n")
    for idx, sensor_id in enumerate(sensor_ids):
        rng = random.Random(f"{seed}|{sensor_id}")
        lat = round(42.55 + rng.random() * 0.3, 5)
        lon = round(23.20 + rng.random() * 0.4, 5)
        for step in range(days * readings_per_sensor_per_day):
            ts = SYNTHETIC_EPOCH_S + step * interval_s
            p1 = round(rng.lognormvariate(2.6, 0.7), 2)
            p2 = round(rng.lognormvariate(2.1, 0.7), 2)
            temperature = round(rng.uniform(-10.0, 40.0), 2)
            humidity = round(rng.uniform(0.0, 100.0), 2)
            # Every seventh row omits the optional pressure reading.
            pressure = "" if step % 7 == 3 else f"{rng.gauss(101_325.0, 300.0):.1f}"
            out.write(f"{sensor_id},{lat},{lon},{ts},{p1},{p2},"
                      f"{temperature},{humidity},{pressure}\n")
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
    index: dict[str, int] = {}
    for name in REQUIRED_COLUMNS:
        pos = columns.get(name.lower())
        if pos is None:
            raise MissingColumn(name)
        index[name] = pos
    for name in OPTIONAL_COLUMNS:
        pos = columns.get(name.lower())
        if pos is not None:
            index[name] = pos

    node_ids = [f"node-{i:02d}" for i in range(n_nodes)]
    partitions: dict[str, list[SensorReading]] = {n: [] for n in node_ids}
    node_of_sensor: dict[str, str] = {}
    rows = 0
    malformed = 0
    t_min: int | None = None
    t_max: int | None = None
    for raw in reader:
        if not raw or all(not cell.strip() for cell in raw):
            continue
        try:
            sensor_id = raw[index["sensor_id"]].strip()
            if not sensor_id:
                raise ValueError("empty sensor_id")
            node_id = node_of_sensor.get(sensor_id)
            if node_id is None:
                node_id = node_ids[node_index_for(sensor_id, n_nodes)]
                node_of_sensor[sensor_id] = node_id
            reading = SensorReading(
                node_id=node_id,
                sensor_id=sensor_id,
                timestamp=_parse_timestamp_ms(raw[index["timestamp"]]),
                lat=_parse_float(raw[index["lat"]]),
                lon=_parse_float(raw[index["lon"]]),
                p1=_parse_float(raw[index["P1"]]),
                p2=_parse_float(raw[index["P2"]]),
                temperature=_parse_float(raw[index["temperature"]]),
                humidity=_parse_float(raw[index["humidity"]]),
                pressure=_parse_float(raw[index["pressure"]]) if "pressure" in index else None,
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

    def __init__(self, net: Network, topology, stores: dict[str, LocalStore],
                 ops: PayloadOps, cfg: ScenarioConfig,
                 gather_timeout_ms: float | None):
        self.net = net
        self.nodes = []
        for node_id in sorted(stores):
            node = SyncMeshNode(
                stores[node_id],
                cfg.node_config_for(node_id, gather_timeout_ms),
                ops=ops)
            node.attach(net, topology)
            self.nodes.append(node)
        self.coordinator_id = self.nodes[0].node_id
        self.client = MeshClient("client")
        self.client.attach(net)

    def ingest(self, at: float = 0.0) -> float:
        return 0.0  # data is born local; there is nothing to ship

    def query(self, req: QueryRequest, at: float) -> tuple:
        for node in self.nodes:
            node.broadcast_heartbeat(self.net.clock)
        return run_query(self.net, self.client, self.coordinator_id, req, at)

    def close(self) -> None:
        for node in self.nodes:
            node.detach()


class _PhaseReplay:
    """Replays a previously simulated ingest phase on a fresh network.

    The outcome (duration, ledger counts, end state) of an ingest/sync phase
    is a deterministic function of the cache key, so later configurations
    install the recorded result instead of re-running identical events."""

    def __init__(self, net, cache: dict | None, key: tuple | None):
        self.net = net
        self.cache = cache
        self.key = key

    def fetch(self):
        if self.cache is None or self.key is None:
            return None
        return self.cache.get(self.key)

    def replay_traffic(self, duration: float, ledger_bytes: dict, at: float) -> None:
        for bucket, n in ledger_bytes.items():
            self.net.ledger.bytes[bucket] = self.net.ledger.bytes.get(bucket, 0) + n
        self.net.clock = max(self.net.clock, at + duration)

    def record(self, duration: float, state) -> None:
        if self.cache is not None and self.key is not None:
            self.cache[self.key] = (duration, dict(self.net.ledger.bytes), state)


class _CentralRunner:
    def __init__(self, net, topology, bundle, ops, cfg, gather_timeout_ms,
                 phase_cache=None, phase_key=None):
        self.system = CentralBaseline(net, topology, bundle.partitions, ops)
        self._replay = _PhaseReplay(
            net, phase_cache, ("central-ingest",) + phase_key if phase_key else None)

    def ingest(self, at: float = 0.0) -> float:
        hit = self._replay.fetch()
        if hit is not None:
            duration, ledger_bytes, server_store = hit
            self.system.server_store = server_store
            self._replay.replay_traffic(duration, ledger_bytes, at)
            return duration
        duration = self.system.ingest(at)
        self._replay.record(duration, self.system.server_store)
        return duration

    def query(self, req, at):
        return self.system.query(req, at)

    def close(self) -> None:
        pass


class _ShardedRunner:
    def __init__(self, net, topology, bundle, ops, cfg, gather_timeout_ms,
                 phase_cache=None, phase_key=None):
        self.system = ShardedBaseline(net, topology, bundle.stores, ops,
                                      gather_timeout_ms=gather_timeout_ms)

    def ingest(self, at: float = 0.0) -> float:
        return self.system.ingest(at)

    def query(self, req, at):
        return self.system.query(req, at)

    def close(self) -> None:
        pass


class _P2PRunner:
    def __init__(self, net, topology, bundle, ops, cfg, gather_timeout_ms,
                 phase_cache=None, phase_key=None):
        self.system = P2PBaseline(net, topology, bundle.partitions, ops,
                                  gather_timeout_ms=gather_timeout_ms)
        self._replay = _PhaseReplay(
            net, phase_cache, ("p2p-sync",) + phase_key if phase_key else None)

    def ingest(self, at: float = 0.0) -> float:
        hit = self._replay.fetch()
        if hit is not None:
            duration, ledger_bytes, replicas = hit
            self.system.replicas = replicas
            self._replay.replay_traffic(duration, ledger_bytes, at)
            return duration
        duration = self.system.sync(at)
        self._replay.record(duration, self.system.replicas)
        return duration

    def query(self, req, at):
        return self.system.client_collect(req, at)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

@dataclass
class DatasetBundle:
    manifest: DatasetManifest
    partitions: dict
    stores: dict[str, LocalStore]
    scope_key: str


@dataclass
class MatrixCaches:
    """Work shared across scenario runs: parsed datasets, pure payload work,
    and completed ingest-phase outcomes.

    The ingest/sync phase of a repetition is fully determined by (dataset,
    topology seed, bandwidth); configs that differ only in scenario or window
    replay the recorded outcome instead of re-simulating it."""

    datasets: dict = field(default_factory=dict)
    payloads: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)


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
        scope = f"syn|{cfg.seed}|{cfg.n_nodes}"
    else:
        key = ("file", cfg.dataset, cfg.n_nodes)
        scope = f"file|{cfg.dataset}|{cfg.n_nodes}"
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
                           stores=stores, scope_key=scope)
    caches.datasets[key] = bundle
    return bundle


_RUNNERS = {
    "syncmesh": None,  # special-cased below: needs stores + node configs
    "central": _CentralRunner,
    "sharded": _ShardedRunner,
    "p2p": _P2PRunner,
}


def _scenario_gather_timeout(cfg: ScenarioConfig, manifest: DatasetManifest) -> float:
    if cfg.gather_timeout_ms is not None:
        return cfg.gather_timeout_ms
    timeout = 2.0 * 300.0 + 100.0
    bw = cfg.link_bandwidth_bytes_per_ms
    if bw:
        # Headroom for serialization of the largest conceivable transfer.
        timeout += 4.0 * manifest.row_count * 300.0 / bw + 500.0
    return timeout


def _build_request(cfg: ScenarioConfig, window: TimeRange) -> QueryRequest:
    transformer = None
    if cfg.scenario == "transform":
        transformer = TransformerSpec.of("aggregate_mean")
    return QueryRequest(request_id="q", range=window, projection=frozenset(),
                        transformer=transformer, scope=Scope.MESH)


def run_scenario(cfg: ScenarioConfig, caches: MatrixCaches | None = None,
                 unsafe: bool = False) -> ScenarioResult:
    """Execute one configuration: per repetition, rebuild the network with
    reseeded latencies, run the system's ingest phase and one client request,
    and record timing, per-link-class traffic and the result digest."""
    validate_config(cfg, unsafe)
    caches = caches if caches is not None else MatrixCaches()
    bundle = _dataset_bundle(cfg, caches)
    window = trailing_window(bundle.manifest, cfg.window_days)
    ops = PayloadOps(caches.payloads, scope_key=bundle.scope_key)
    gather_timeout = _scenario_gather_timeout(cfg, bundle.manifest)
    req = _build_request(cfg, window)
    with_server = cfg.system in ("central", "sharded")

    rows: list[RepetitionRow] = []
    for rep in range(cfg.repetitions):
        topo = build_topology(
            cfg.n_nodes, seed=cfg.seed + rep, with_server=with_server,
            bandwidth_bytes_per_ms=cfg.link_bandwidth_bytes_per_ms)
        net = Network(topo)
        if cfg.system == "syncmesh":
            system = SyncMeshSystem(net, topo, bundle.stores, ops, cfg,
                                    gather_timeout_ms=gather_timeout)
        else:
            phase_key = (bundle.scope_key, cfg.seed + rep,
                         cfg.link_bandwidth_bytes_per_ms)
            system = _RUNNERS[cfg.system](net, topo, bundle, ops, cfg,
                                          gather_timeout,
                                          phase_cache=caches.phases,
                                          phase_key=phase_key)
        try:
            ingest_ms = system.ingest(0.0)
            ingest_phase = net.reset_ledger()
            t_q = net.clock + QUERY_SETTLE_MS
            resp, rtt = system.query(req, t_q)
            query_phase = net.ledger
        finally:
            system.close()
        ingest_by_class = ingest_phase.by_class()
        query_by_class = query_phase.by_class()

        def combined(*classes: LinkClass) -> int:
            return sum(ingest_by_class.get(c, 0) + query_by_class.get(c, 0)
                       for c in classes)

        digest = ops.payload_digest(
            resp.payload,
            source=f"{cfg.system}|{request_token(req)}|"
                   f"{','.join(sorted(resp.contributing_nodes))}")
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
                "config": r.config.to_json_dict(),
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
    caches = MatrixCaches()
    configs = matrix_configs(seed, systems, scenarios, sizes, windows, repetitions)
    results = []
    for i, cfg in enumerate(configs):
        if progress is not None:
            progress(f"[{i + 1}/{len(configs)}] {cfg.system} {cfg.scenario} "
                     f"n={cfg.n_nodes} days={cfg.window_days}")
        results.append(run_scenario(cfg, caches))
    (out / "matrix.csv").write_text(results_to_csv(results), encoding="utf-8")
    manifest = {
        "seed": seed,
        "repetitions": repetitions,
        "configs": [cfg.to_json_dict() for cfg in configs],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    return results
