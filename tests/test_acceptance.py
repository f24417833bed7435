"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite completes in a few minutes on a laptop.
"""

import hashlib
import random
import time

import pytest

from conftest import make_reading, payload_kind
from oracles import assert_summary_close, naive_summary, union_collect
from syncmesh.baselines import CentralBaseline, P2PBaseline, P2PReplica, ShardedBaseline
from syncmesh.bench import (
    MatrixCaches,
    ScenarioConfig,
    SyncMeshSystem,
    run_scenario,
    trailing_window,
)
from syncmesh.cli import main as cli_main
from syncmesh.model import (
    NUMERIC_FIELDS,
    CodecId,
    QueryRequest,
    Scope,
    SensorReading,
    TimeRange,
    TransformerSpec,
)
from syncmesh.netsim import LinkClass, Network, build_topology
from syncmesh.node import MeshClient, SyncMeshNode, run_query
from syncmesh.store import LocalStore
from syncmesh.wire import HEADER_SIZE, MessageKind, compress, decompress, encode_readings

MASTER_SEED = 7
FULL = TimeRange(1, 10**15)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def caches():
    return MatrixCaches()


def scenario_totals(caches, system, scenario, n_nodes=3, window_days=30, reps=2):
    cfg = ScenarioConfig(system=system, scenario=scenario, n_nodes=n_nodes,
                         window_days=window_days, repetitions=reps, seed=MASTER_SEED)
    result = run_scenario(cfg, caches)
    totals = {row.bytes_client + row.bytes_internal + row.bytes_server
              for row in result.rows}
    assert len(totals) == 1  # byte counts are latency-independent
    return result, totals.pop()


# -- criterion 1 -----------------------------------------------------------

def _fresh_systems(parts):
    """All four systems over one partition map, each on its own network."""
    out = {}
    topo = build_topology(len(parts), seed=11, with_server=True)
    net = Network(topo)
    central = CentralBaseline(net, parts)
    central.ingest()
    out["central"] = (net, central)

    topo2 = build_topology(len(parts), seed=11, with_server=True)
    net2 = Network(topo2)
    stores = {}
    for nid, readings in parts.items():
        stores[nid] = LocalStore(nid)
        stores[nid].load_many(readings)
    out["sharded"] = (net2, ShardedBaseline(net2, stores))

    topo3 = build_topology(len(parts), seed=11, with_server=False)
    net3 = Network(topo3)
    p2p = P2PBaseline(net3, parts)
    p2p.sync()
    out["p2p"] = (net3, p2p)

    topo4 = build_topology(len(parts), seed=11, with_server=False)
    net4 = Network(topo4)
    mesh_stores = {}
    for nid, readings in parts.items():
        mesh_stores[nid] = LocalStore(nid)
        mesh_stores[nid].load_many(readings)
    nodes = []
    for nid in sorted(mesh_stores):
        node = SyncMeshNode(mesh_stores[nid])
        node.attach(net4, topo4)
        nodes.append(node)
    client = MeshClient()
    client.attach(net4)
    for node in nodes:
        node.broadcast_heartbeat(0.0)
    out["syncmesh"] = (net4, (client, nodes[0].node_id))
    return out


def _query_system(name, net, system, req):
    if name == "syncmesh":
        client, coordinator = system
        resp, _ = run_query(net, client, coordinator, req, net.clock + 500.0)
        return resp
    resp, _ = system.query(req, net.clock + 500.0)
    return resp


def test_c01_oracle_equivalence():
    rng = random.Random(MASTER_SEED)
    t0 = time.perf_counter()
    cases = 0
    for case in range(50):
        n = rng.choice((3, 4))
        node_ids = [f"node-{i:02d}" for i in range(n)]
        parts = {
            nid: tuple(make_reading(rng, node_id=nid, sensor_id=f"{nid}-s{j % 3}",
                                    timestamp=rng.randrange(1, 100_000))
                       for j in range(rng.randrange(10, 50)))
            for nid in node_ids
        }
        a, b = sorted((rng.randrange(1, 100_000), rng.randrange(1, 100_000)))
        window = TimeRange(a, b + 1)
        expected_collect = union_collect(parts, window.start, window.end)
        expected_summary = naive_summary(
            [r for r in expected_collect], NUMERIC_FIELDS)
        systems = _fresh_systems(parts)
        for name, (net, system) in systems.items():
            collect = QueryRequest(request_id=f"c{case}", range=window, scope=Scope.MESH)
            resp = _query_system(name, net, system, collect)
            assert list(resp.payload) == expected_collect, (name, case)
            transform = QueryRequest(
                request_id=f"t{case}", range=window, scope=Scope.MESH,
                transformer=TransformerSpec("aggregate_mean"))
            resp_t = _query_system(name, net, system, transform)
            assert_summary_close(resp_t.payload, expected_summary, rel=1e-9)
        cases += 1
    elapsed = time.perf_counter() - t0
    report(1, cases == 50 and elapsed < 30.0,
           f"50 randomized datasets x 4 systems match oracles (elapsed {elapsed:.1f}s)")


def test_c02_collect_traffic_ordering(caches):
    totals = {}
    for system in ("syncmesh", "central", "sharded", "p2p"):
        _, totals[system] = scenario_totals(caches, system, "collect")
    ordered = (totals["syncmesh"] < totals["sharded"] <= totals["central"]
               < totals["p2p"])
    reduction = 1.0 - totals["syncmesh"] / totals["central"]
    report(2, ordered and reduction >= 0.30,
           f"collect 3n/30d totals {totals}; mesh {reduction:.1%} below central")


def test_c03_transform_traffic(caches):
    totals = {}
    for system in ("syncmesh", "central", "sharded", "p2p"):
        _, totals[system] = scenario_totals(caches, system, "transform")
    is_min = totals["syncmesh"] == min(totals.values())
    mesh_share = totals["syncmesh"] / totals["central"]
    sharded_cut = 1.0 - totals["sharded"] / totals["central"]
    report(3, is_min and mesh_share < 0.05 and sharded_cut >= 0.50,
           f"transform totals {totals}; mesh {mesh_share:.2%} of central, "
           f"sharded {sharded_cut:.1%} below central")


def test_c04_p2p_amplification(caches):
    cfg = ScenarioConfig(system="p2p", scenario="collect", n_nodes=3,
                         window_days=30, repetitions=1, seed=MASTER_SEED)
    from syncmesh.bench import _dataset_bundle
    bundle = _dataset_bundle(cfg, caches)
    n = cfg.n_nodes
    topo = build_topology(n, seed=MASTER_SEED, with_server=False)
    net = Network(topo)
    system = P2PBaseline(net, bundle.partitions)
    system.sync()
    body_bytes = 0
    envelopes = 0
    for readings in bundle.partitions.values():
        for i in range(0, len(readings), 500):
            body_bytes += len(encode_readings(readings[i:i + 500]))
            envelopes += 1
    closed_form = 2 * (n - 1) * body_bytes + HEADER_SIZE * 2 * (n - 1) * envelopes
    measured = (net.ledger.get(LinkClass.NODE_NODE, MessageKind.GOSSIP)
                + net.ledger.get(LinkClass.NODE_NODE, MessageKind.GOSSIP_ECHO))
    raw_payload = sum(len(encode_readings(rs)) for rs in bundle.partitions.values())
    report(4, measured == closed_form and measured >= 2 * raw_payload,
           f"sync bytes {measured} == closed form {closed_form} "
           f">= 2x raw payload {2 * raw_payload}")


def test_c05_scaling_growth(caches):
    growth = {}
    for system in ("syncmesh", "sharded", "central"):
        means = {}
        for n in (3, 12):
            cfg = ScenarioConfig(system=system, scenario="collect", n_nodes=n,
                                 window_days=30, repetitions=20, seed=MASTER_SEED)
            means[n] = run_scenario(cfg, caches).request_time_mean_ms
        growth[system] = means[12] / means[3]
    ordered = growth["syncmesh"] < growth["sharded"] < growth["central"]
    report(5, ordered and growth["syncmesh"] <= 1.6,
           "request-time growth 3->12 nodes: " +
           ", ".join(f"{s}={g:.3f}" for s, g in growth.items()))


def _syncmesh_run(caches, scenario, n_nodes, window_days, send_query=True):
    cfg = ScenarioConfig(system="syncmesh", scenario=scenario, n_nodes=n_nodes,
                         window_days=window_days, repetitions=1, seed=MASTER_SEED)
    from syncmesh.bench import (DEFAULT_LINK_BANDWIDTH, _dataset_bundle,
                                _scenario_gather_timeout)
    bundle = _dataset_bundle(cfg, caches)
    topo = build_topology(n_nodes, seed=MASTER_SEED,
                          bandwidth_bytes_per_ms=DEFAULT_LINK_BANDWIDTH)
    net = Network(topo)
    from syncmesh.payloads import PayloadOps
    system = SyncMeshSystem(net, bundle.stores, PayloadOps(),
                            gather_timeout_ms=_scenario_gather_timeout(bundle.manifest))
    if send_query:
        window = trailing_window(bundle.manifest, window_days)
        transformer = (TransformerSpec("aggregate_mean")
                       if scenario == "transform" else None)
        req = QueryRequest(request_id="q", range=window, scope=Scope.MESH,
                           transformer=transformer)
        system.query(req, 500.0)
    else:
        for node in system.nodes:
            node.broadcast_heartbeat(0.0)
        net.run_until_quiescent()
    return net


def test_c06_data_locality(caches):
    scanned = 0
    for n_nodes in (3, 6):
        for window_days in (1, 30):
            net = _syncmesh_run(caches, "transform", n_nodes, window_days)
            tags = [payload_kind(e.envelope) for e in net.envelope_log]
            assert "readings" not in tags, (n_nodes, window_days)
            assert "summary" in tags
            scanned += len(tags)
    idle = _syncmesh_run(caches, "collect", 3, 1, send_query=False)
    idle_kinds = {kind for (link_class, kind) in idle.ledger.bytes
                  if link_class is LinkClass.NODE_NODE}
    report(6, idle_kinds == {MessageKind.HEARTBEAT},
           f"no reading-set envelopes in {scanned} transform transmissions; "
           f"idle node-node traffic kinds: {sorted(k.name for k in idle_kinds)}")


# The seed-7 matrix as pinned in ROADMAP.md; a change that moves it on
# purpose says which columns moved, and why, and pins the new digests.
C07_SHA256 = {
    "matrix.csv": "01b0082386b4400d04514d41d8183463d83c0e02945b7da9b626d6054625e4fd",
    "manifest.json": "123a8079133ec123b7ae5ae6d637b024bdc0f3e89c8c4c931988b757e14c13bc",
}


def test_c07_matrix_determinism(tmp_path, monkeypatch):
    """Two runs write the pinned bytes, and each shares one ingest end state
    per shipped system and dataset across all 20 seeds."""
    made = []
    init = MatrixCaches.__init__

    def recorded(caches, *args, **kwargs):
        init(caches, *args, **kwargs)
        made.append(caches)

    monkeypatch.setattr(MatrixCaches, "__init__", recorded)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["matrix", "--seed", "7", "--out", str(out_a), "--quiet"]) == 0
    assert cli_main(["matrix", "--seed", "7", "--out", str(out_b), "--quiet"]) == 0
    assert len(made) == 2
    for caches in made:
        assert sorted((system, key[2]) for system, key in caches.phases) == [
            (system, n) for system in ("central", "p2p") for n in (3, 6, 9, 12)]
        for replay in caches.phases.values():
            assert len(replay.states) == 1, replay.scope
            assert sorted(replay.traffic) == list(range(7, 27)), replay.scope
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in C07_SHA256
    )
    digests = {name: hashlib.sha256((out_a / name).read_bytes()).hexdigest()
               for name in C07_SHA256}
    size = (out_a / "matrix.csv").stat().st_size
    report(7, same and digests == C07_SHA256,
           f"two `bench matrix --seed 7` runs byte-identical "
           f"(matrix.csv {size} bytes), sha256 "
           + ", ".join(f"{name} {d[:8]}" for name, d in digests.items()))


def test_c08_churn_partial_results(rng):
    node_ids = ["node-00", "node-01", "node-02"]
    parts = {
        nid: tuple(make_reading(rng, node_id=nid, sensor_id=f"{nid}-s",
                                timestamp=1000 + j)
                   for j in range(25))
        for nid in node_ids
    }
    topo = build_topology(3, seed=3, with_server=False)
    net = Network(topo)
    gather_timeout = 500.0
    nodes = []
    for nid in node_ids:
        store = LocalStore(nid)
        store.load_many(parts[nid])
        node = SyncMeshNode(store, gather_timeout_ms=gather_timeout)
        node.attach(net, topo)
        nodes.append(node)
    client = MeshClient()
    client.attach(net)
    for node in nodes:
        node.broadcast_heartbeat(0.0)
    net.run_until_quiescent()
    net.set_available("node-02", False)  # churn after announcing itself
    req = QueryRequest(request_id="q", range=FULL, scope=Scope.MESH)
    resp, rtt = run_query(net, client, "node-00", req, net.clock + 10.0)
    expected = union_collect({k: parts[k] for k in ("node-00", "node-01")},
                             FULL.start, FULL.end)
    client_leg = 2 * topo.link_between("client", "node-00").latency_ms
    gather_time = rtt - client_leg
    ok = (resp.partial is True
          and list(resp.payload) == expected
          and resp.contributing_nodes == {"node-00", "node-01"}
          and gather_time <= gather_timeout + 1e-6)
    report(8, ok, f"one of three nodes down: partial=True, exactly two nodes' "
                  f"data, gather {gather_time:.0f} ms <= timeout {gather_timeout:.0f} ms")


def test_c09_codecs(caches):
    rng = random.Random(MASTER_SEED)
    for codec in (CodecId.NONE, CodecId.GZIP, CodecId.FASTLZ):
        for _ in range(1000):
            data = rng.randbytes(rng.randrange(0, 600))
            assert decompress(codec, compress(codec, data)) == data
    checked = 0
    from syncmesh.bench import _dataset_bundle
    for n_nodes in (3, 12):
        cfg = ScenarioConfig(system="syncmesh", scenario="collect",
                             n_nodes=n_nodes, window_days=30, repetitions=1,
                             seed=MASTER_SEED)
        bundle = _dataset_bundle(cfg, caches)
        for window_days in (1, 7, 14, 30):
            window = trailing_window(bundle.manifest, window_days)
            payloads = [store.query(window) for store in bundle.stores.values()]
            payloads.append(union_collect(bundle.partitions, window.start, window.end))
            for payload in payloads:
                raw = encode_readings(tuple(payload))
                if len(raw) < 4096:
                    continue
                gz = compress(CodecId.GZIP, raw)
                flz = compress(CodecId.FASTLZ, raw)
                assert len(gz) <= len(flz) <= len(raw), (n_nodes, window_days)
                checked += 1
    report(9, checked > 0,
           f"3000 random round-trips ok; GZIP <= FASTLZ <= raw on "
           f"{checked} collect payloads >= 4 KiB")


def test_c10_eventual_consistency(rng):
    schedules_ok = 0
    for schedule in range(20):
        sched_rng = random.Random(1000 + schedule)
        keys = [("node-00", f"s{k}", 1000 + k) for k in range(4)]
        writes = []
        for _ in range(sched_rng.randrange(15, 40)):
            node, sensor, ts = sched_rng.choice(keys)  # collisions guaranteed
            writer = f"node-{sched_rng.randrange(3):02d}"
            value = float(ts % 97) + float(int(writer[-2:]))
            writes.append((SensorReading(node, sensor, ts, temperature=value),
                           writer))
        digests = set()
        winners = {}
        for trial in range(6):
            replica = P2PReplica()
            order = writes[:]
            sched_rng.shuffle(order)
            for reading, writer in order:
                replica.apply_batch((reading,), writer)
            digests.add(replica.digest())
            for r in replica.readings():
                winners[(r.node_id, r.sensor_id, r.timestamp)] = r.temperature
        assert len(digests) == 1, schedule
        # LWW winner is the max (timestamp, writer) version for each key
        expected = {}
        for reading, writer in writes:
            version = (reading.timestamp, writer)
            k = (reading.node_id, reading.sensor_id, reading.timestamp)
            if k not in expected or version > expected[k][0]:
                expected[k] = (version, reading.temperature)
        for k, (_, temp) in expected.items():
            assert winners[k] == temp, (schedule, k)
        schedules_ok += 1
    # and the full-system view: after a real sync, replica digests agree
    node_ids = ["node-00", "node-01", "node-02"]
    parts = {nid: tuple(make_reading(rng, node_id=nid, timestamp=j + 1)
                        for j in range(200)) for nid in node_ids}
    topo = build_topology(3, seed=2, with_server=False)
    net = Network(topo)
    system = P2PBaseline(net, parts)
    system.sync()
    digests = {replica.digest() for replica in system.replicas.values()}
    report(10, schedules_ok == 20 and len(digests) == 1,
           f"20 collision-bearing write schedules converge; "
           f"synced replica digests identical")
