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
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from .baselines import CentralBaseline, P2PBaseline, ShardedBaseline
from .model import (
    MS_PER_DAY,
    CodecId,
    QueryRequest,
    Scope,
    SensorReading,
    TimeRange,
    TransformerSpec,
    validate_reading,
)
from .netsim import LinkClass, Network, TrafficLedger, build_topology
from .node import (
    HEARTBEAT_TIMEOUT_MS, MeshClient, SyncMeshNode, heartbeat_round, run_query)
from .payloads import BUILTIN_TRANSFORMERS, PayloadOps
from .store import LocalStore
# The dataset's epoch is one of bench's names, as its days and rate are.
from .synthetic import SYNTHETIC_EPOCH_S, rows_request, write_rows
from . import cores, netsim

SYSTEMS = ("syncmesh", "central", "sharded", "p2p")
SCENARIOS = ("collect", "transform")
NETWORK_SIZES = (3, 6, 9, 12)
WINDOWS_DAYS = (1, 7, 14, 30)

DEFAULT_REPETITIONS = 20
QUERY_SETTLE_MS = 500.0

SYNTHETIC_DAYS = 30
SYNTHETIC_READINGS_PER_DAY = 48
# The fewest synthetic rows written on two cores. One core writes a row in
# about 5.5 us, and a helper's first job waits some 25 ms on its start, so
# below about 9,000 rows a split would slow a command that starts one.
SPLIT_MIN_ROWS = 10_000

REQUIRED_COLUMNS = ("sensor_id", "lat", "lon", "timestamp", "P1", "P2",
                    "temperature", "humidity")
_CSV_HEADER = "sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity,pressure\n"
_timestamp = operator.attrgetter("timestamp")


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
            **asdict(self),
            "link_bandwidth_bytes_per_ms": netsim.LINK_BANDWIDTH,
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
    """Deterministic synthetic air-quality CSV; returns the file text: the
    header, then `synthetic.write_rows` of every sensor.

    A sensor's rows depend on no other's. So a dataset of two or more
    sensors and at least `SPLIT_MIN_ROWS` rows is written on two cores,
    where the process's helper takes a job (`cores.ROWS`): it writes the
    second half of the sensors while this process writes the first, and
    the text is the two joined. If the helper declines or fails, this
    process writes the rest itself; the text is the same either way."""
    rate = readings_per_sensor_per_day
    if min(n_sensors, days, rate) < 1:
        raise ConfigError("all synthetic dataset counts must be positive")
    if rate > 86_400:
        raise ConfigError(f"at most 86400 readings per sensor per day (one "
                          f"a second), got {rate}")
    if balance_across:
        sensor_ids = balanced_sensor_ids(n_sensors, balance_across)
    else:
        sensor_ids = [f"sensor-{i:03d}" for i in range(n_sensors)]
    cut = n_sensors  # the sensors from here on are the helper's
    helper = cores.helper
    if n_sensors >= 2 and n_sensors * days * rate >= SPLIT_MIN_ROWS:
        # This process keeps the larger half: a helper that has not started
        # yet answers its first job some 25 ms late.
        half = (n_sensors + 1) // 2
        if helper.send(cores.ROWS,
                       rows_request(sensor_ids[half:], days, rate, seed)):
            cut = half
    mine = write_rows(sensor_ids[:cut], days, rate, seed)
    theirs = ""
    if cut < n_sensors:
        theirs = helper.reply(bytes.decode)
        if theirs is None:
            theirs = write_rows(sensor_ids[cut:], days, rate, seed)
    return _CSV_HEADER + mine + theirs


@dataclass(frozen=True)
class DatasetManifest:
    source: str
    row_count: int
    malformed_rows: int
    time_start: int
    time_end: int
    per_node_counts: tuple[tuple[str, int], ...]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "per_node_counts": dict(self.per_node_counts)}


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"dataset {path} is not UTF-8: {exc.reason} at "
                          f"byte {exc.start}") from None
    return ingest_csv_text(text, n_nodes, source=str(path))


def trailing_window(manifest: DatasetManifest, days: int) -> TimeRange:
    """The last `days` of the dataset, closed at the final reading."""
    end = manifest.time_end + 1
    return TimeRange(start=end - days * MS_PER_DAY, end=end)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class SyncMeshSystem:
    """Mesh of autonomous nodes; the lowest-id node coordinates client queries.

    The nodes work at the same time, each next to its own data, so before a
    MESH query is sent every neighbor's LOCAL answer and GZIP body is built
    by `PayloadOps.build_ahead`, the build-ahead rule the sharded router
    follows too: the helper deflates each body while the next is encoded.
    Each neighbor finds its body in the memo when its LOCAL query arrives;
    one built for a neighbor the coordinator skips is never sent. The
    coordinator's own answer merges the replies, so it is built when they
    have arrived, on one core."""

    def __init__(self, net: Network, stores: dict[str, LocalStore],
                 ops: PayloadOps, gather_timeout_ms: float):
        self.net = net
        self.stores = stores
        self.ops = ops
        self.nodes = []
        for node_id in sorted(stores):
            node = SyncMeshNode(stores[node_id], ops,
                                gather_timeout_ms=gather_timeout_ms)
            node.attach(net)
            self.nodes.append(node)
        self.coordinator_id = self.nodes[0].node_id
        self.client = MeshClient()
        self.client.attach(net)

    def ingest(self) -> float:
        return 0.0  # data is born local; there is nothing to ship

    def query(self, req: QueryRequest, at: float) -> tuple:
        heartbeat_round(self.nodes, self.net.clock)
        if req.scope is Scope.MESH:
            self.ops.build_ahead(replace(req, scope=Scope.LOCAL),
                                 self.nodes[0].neighbor_ids, self.stores,
                                 CodecId.GZIP)
        return run_query(self.net, self.client, self.coordinator_id, req, at)


class _PhaseReplay:
    """The recorded ingest phase of one system that ships data (central or
    p2p) on one dataset, installed on later runs instead of re-simulating
    identical events.

    The end state of the phase is the system's `stores`, a dict from each
    receiver (central's server, the p2p peers) to a `LocalStore`, built by
    one rule for both (`baselines._Shipping`). It is a function of its
    streams: the batches one sender delivered to one receiver, in
    arrival order, those the rule refuses included. So one end state is
    kept per distinct key, the delivered envelopes stably sorted by
    (receiver, sender), and since every key has one writer, equal keys mean
    equal states however the streams interleave; the states are numbered
    in the order they were built. A link serializes its sends in
    order, so every seed that delivers every batch gives one key. The
    duration, the traffic ledger and the number of the end state depend
    on the latency seed, so they are kept per seed: a new seed simulates
    the phase once, and builds an end state only for a key not seen before.

    The memo entries of the ingest live in `scope`, the (system, dataset)
    namespace: what a sender encodes does not depend on what arrives. The
    query that follows answers from the installed end state, so its
    entries live in `scope` plus that state's number."""

    def __init__(self, scope: tuple):
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
        system.stores = self.states[number]
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
            self.states.append(system.stores)
        return number


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
    one `_PhaseReplay` per (system, dataset) of central and p2p, which
    keeps each end state, the system's `stores`. `topologies` holds each
    topology built, under (n_nodes, seed, with_server); no run changes one
    after `build_topology`, so every run with that key shares it.
    `endings` holds the `fastlz.Ending` of each FASTLZ readings response
    parsed whole or rejoined, under its head and its array's last reading:
    its stream, which `payloads` holds too, a few integers and the body's
    tail, kept for the command so that a later body with the same head and
    array, such as the sharded router's answer after central's, resumes
    that parse, and one whose array ends with that array, such as a longer
    window's, rejoins it (`PayloadOps`)."""

    datasets: dict = field(default_factory=dict)
    topologies: dict = field(default_factory=dict)
    payloads: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
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

    def config_record(self) -> dict:
        """The config as run, with the gather deadline its dataset gave."""
        return self.config.to_json_dict(_scenario_gather_timeout(self.manifest))


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
    """The gather deadline of every owner run on this dataset, the one
    deadline rule: a round trip over a link at the top of the latency range
    (`netsim.LATENCY_RANGE_MS`) plus 100 ms, plus headroom for serializing
    the largest conceivable transfer, 4 x 300 bytes per dataset row at
    `netsim.LINK_BANDWIDTH`, plus 500 ms."""
    return (2.0 * netsim.LATENCY_RANGE_MS[1] + 100.0
            + (4.0 * manifest.row_count * 300.0 / netsim.LINK_BANDWIDTH + 500.0))


def _build_request(cfg: ScenarioConfig, window: TimeRange) -> QueryRequest:
    transformer = None
    if cfg.scenario == "transform":
        transformer = TransformerSpec("aggregate_mean")
    return QueryRequest(request_id="q", range=window, transformer=transformer,
                        scope=Scope.MESH)


# The names of the link classes a row's byte columns sum.
_CLIENT_NODE, _CLIENT_SERVER, _NODE_NODE, _NODE_SERVER = (
    c.name for c in (LinkClass.CLIENT_NODE, LinkClass.CLIENT_SERVER,
                     LinkClass.NODE_NODE, LinkClass.NODE_SERVER))


def run_scenario(cfg: ScenarioConfig, caches: MatrixCaches | None = None,
                 unsafe: bool = False) -> ScenarioResult:
    """Execute one configuration: per repetition, build a network over the
    topology of its reseeded latencies (one per key in `caches`), run the
    system's ingest phase and one client request, and record timing,
    per-link-class traffic and the result digest. Without `caches`, the run
    makes its own."""
    validate_config(cfg, unsafe)
    caches = caches or MatrixCaches()
    bundle = _dataset_bundle(cfg, caches)
    window = trailing_window(bundle.manifest, cfg.window_days)
    # One system over one dataset: the namespace of its memo entries and
    # of its kept ingest end state.
    scope = (cfg.system, bundle.key)
    ops = PayloadOps(caches.payloads, scope_key=scope, endings=caches.endings)
    gather_timeout = _scenario_gather_timeout(bundle.manifest)
    req = _build_request(cfg, window)
    with_server = cfg.system in ("central", "sharded")
    replay = None
    if cfg.system in ("central", "p2p"):
        replay = caches.phases.setdefault(scope, _PhaseReplay(scope))

    rows: list[RepetitionRow] = []
    for rep in range(cfg.repetitions):
        topo_key = (cfg.n_nodes, cfg.seed + rep, with_server)
        topo = caches.topologies.get(topo_key)
        if topo is None:
            topo = caches.topologies[topo_key] = build_topology(
                cfg.n_nodes, seed=cfg.seed + rep, with_server=with_server)
        net = Network(topo)
        if cfg.system == "syncmesh":
            system = SyncMeshSystem(net, bundle.stores, ops, gather_timeout)
        elif cfg.system == "central":
            system = CentralBaseline(net, bundle.partitions, ops)
        elif cfg.system == "sharded":
            system = ShardedBaseline(net, bundle.stores, ops,
                                     gather_timeout_ms=gather_timeout)
        else:
            system = P2PBaseline(net, bundle.partitions, ops,
                                 gather_timeout_ms=gather_timeout)
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
        # Both phases' bytes per link class, by name (`TrafficLedger`).
        sent = Counter(ingest_phase.class_bytes)
        sent.update(query_phase.class_bytes)
        rows.append(RepetitionRow(
            rep=rep,
            request_time_ms=rtt,
            ingest_time_ms=ingest_ms,
            bytes_client=sent[_CLIENT_NODE] + sent[_CLIENT_SERVER],
            bytes_internal=sent[_NODE_NODE],
            bytes_server=sent[_NODE_SERVER],
            partial=resp.partial,
            digest=ops.payload_digest(resp.payload, req, resp.contributing_nodes),
            ingest_bytes_total=ingest_phase.total(),
            query_bytes_total=query_phase.total(),
        ))
    return ScenarioResult(config=cfg, manifest=bundle.manifest, rows=rows)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

# Each record exported is one dataclass's fields, in order. A column is a
# field's name, then, by its declared type (the annotation's text), how its
# value is written to the CSV, read back from it, and written to the JSON.
# The fields are read once, here: a wrapper put in `RepetitionRow`'s place,
# as a profiler's, leaves the export as it is.
_FORMATS = {
    "str": (str, str, str),
    "int": (str, int, int),
    "float": ("{:.3f}".format, float, lambda v: round(v, 3)),
    "bool": ({True: "true", False: "false"}.get, "true".__eq__, bool),
}
# A row's cell of the matrix: system, scenario, n_nodes and window_days.
_CELL = [(f.name, *_FORMATS[f.type]) for f in fields(ScenarioConfig)[:4]]
_ROW = [(f.name, *_FORMATS[f.type]) for f in fields(RepetitionRow)]
_SUMMARY = [(name, *_FORMATS["float"])
            for name in ("request_time_mean_ms", "request_time_std_ms")]
CSV_COLUMNS = tuple(column[0] for column in _CELL + _ROW + _SUMMARY)


def _csv_cells(record, columns) -> list:
    return [text(getattr(record, name)) for name, text, _, _ in columns]


def _json_fields(record, columns) -> dict:
    return {name: value(getattr(record, name)) for name, _, _, value in columns}


def _read_cells(raw: dict, columns) -> dict:
    return {name: read(raw[name]) for name, _, read, _ in columns}


def results_to_csv(results) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    no_summary = [""] * len(_SUMMARY)
    no_row = ["summary"] + [""] * (len(_ROW) - 1)  # "summary" as its first field
    for result in results:
        cell = _csv_cells(result.config, _CELL)
        for row in result.rows:
            writer.writerow(cell + _csv_cells(row, _ROW) + no_summary)
        writer.writerow(cell + no_row + _csv_cells(result, _SUMMARY))
    return out.getvalue()


def results_to_json(results) -> str:
    payload = {"results": [
        {"config": r.config_record(),
         "dataset": r.manifest.to_json_dict(),
         "rows": [_json_fields(row, _ROW) for row in r.rows],
         "summary": _json_fields(r, _SUMMARY)}
        for r in results
    ]}
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
    data, summaries = [], []
    for raw in csv.DictReader(io.StringIO(text)):
        record = _read_cells(raw, _CELL)
        if raw[_ROW[0][0]] == "summary":
            record.update(_read_cells(raw, _SUMMARY))
            summaries.append(record)
        else:
            record.update(_read_cells(raw, _ROW))
            data.append(record)
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
    """Check every config of the grid, then run them all and write
    matrix.csv + manifest.json."""
    configs = matrix_configs(seed, systems, scenarios, sizes, windows, repetitions)
    if not configs:
        raise ConfigError("the matrix is empty: give each list at least one value")
    for cfg in configs:
        validate_config(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    caches = MatrixCaches()
    for i, cfg in enumerate(configs):
        if progress is not None:
            progress(f"[{i + 1}/{len(configs)}] {cfg.system} {cfg.scenario} "
                     f"n={cfg.n_nodes} days={cfg.window_days}")
        results.append(run_scenario(cfg, caches))
    (out / "matrix.csv").write_text(results_to_csv(results), encoding="utf-8")
    manifest = {
        "seed": seed,
        "repetitions": repetitions,
        "configs": [r.config_record() for r in results],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    return results
