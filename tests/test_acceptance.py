"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite completes in a few minutes on a laptop.
"""

import hashlib
import random
import time
from dataclasses import replace

import pytest

from conftest import GATHER_TIMEOUT_MS, make_reading, payload_kind
from oracles import (
    assert_summary_close, naive_summary, reference_fold, union_collect)
from syncmesh import baselines
from syncmesh.baselines import CentralBaseline, P2PBaseline, ShardedBaseline
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
from syncmesh.netsim import LINK_BANDWIDTH, LinkClass, Network, build_topology
from syncmesh.node import MeshClient, SyncMeshNode, run_query
from syncmesh.payloads import PayloadOps, fingerprint
from syncmesh.store import LocalStore
from syncmesh.wire import (
    HEADER_SIZE, Envelope, MessageKind, compress, decompress, encode_readings,
    read_payload)

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
    out["sharded"] = (net2, ShardedBaseline(
        net2, stores, gather_timeout_ms=GATHER_TIMEOUT_MS))

    topo3 = build_topology(len(parts), seed=11, with_server=False)
    net3 = Network(topo3)
    p2p = P2PBaseline(net3, parts, gather_timeout_ms=GATHER_TIMEOUT_MS)
    p2p.sync()
    out["p2p"] = (net3, p2p)

    topo4 = build_topology(len(parts), seed=11, with_server=False)
    net4 = Network(topo4)
    mesh_stores = {}
    for nid, readings in parts.items():
        mesh_stores[nid] = LocalStore(nid)
        mesh_stores[nid].load_many(readings)
    out["syncmesh"] = (net4, SyncMeshSystem(net4, mesh_stores, PayloadOps(),
                                            GATHER_TIMEOUT_MS))
    return out


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
            resp, _ = system.query(collect, net.clock + 500.0)
            assert list(resp.payload) == expected_collect, (name, case)
            transform = QueryRequest(
                request_id=f"t{case}", range=window, scope=Scope.MESH,
                transformer=TransformerSpec("aggregate_mean"))
            resp_t, _ = system.query(transform, net.clock + 500.0)
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
    from syncmesh.bench import _dataset_bundle, _scenario_gather_timeout
    bundle = _dataset_bundle(cfg, caches)
    n = cfg.n_nodes
    topo = build_topology(n, seed=MASTER_SEED, with_server=False)
    net = Network(topo)
    system = P2PBaseline(
        net, bundle.partitions,
        gather_timeout_ms=_scenario_gather_timeout(bundle.manifest))
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
    from syncmesh.bench import _dataset_bundle, _scenario_gather_timeout
    bundle = _dataset_bundle(cfg, caches)
    topo = build_topology(n_nodes, seed=MASTER_SEED)
    net = Network(topo)
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
        node.attach(net)
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
    # The client leg: the query and the response, each serialized and sent
    # over the client link.
    client_leg = 2 * topo.link_between("client", "node-00").latency_ms + sum(
        e.envelope.wire_size / LINK_BANDWIDTH for e in net.envelope_log
        if {e.envelope.sender, e.envelope.receiver} == {"client", "node-00"})
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


def _c10_schedule(sched_rng, node_ids, batch_size):
    """Each node's own readings, and GOSSIP deliveries in a shuffled order:
    every batch of every node to every other peer, retransmits of some (as
    the same object or as bytes to decode), other writers' copies of a
    node's keys with other data, and a node's invalid copies of its own."""
    parts = {nid: tuple(SensorReading(nid, f"s{k % 3}", 1000 + k,
                                      temperature=float(sched_rng.randrange(100)))
                        for k in range(sched_rng.randrange(4, 13)))
             for nid in node_ids}
    genuine = [(nid, parts[nid][i:i + batch_size]) for nid in node_ids
               for i in range(0, len(parts[nid]), batch_size)]
    batches = genuine + [sched_rng.choice(genuine) for _ in range(5)]
    for _ in range(3):
        writer, owner = sched_rng.sample(node_ids, 2)
        batches.append((writer, (replace(sched_rng.choice(parts[owner]),
                                         temperature=-1.0),)))
    for _ in range(2):
        writer = sched_rng.choice(node_ids)
        batches.append((writer, (replace(sched_rng.choice(parts[writer]),
                                         humidity=200.0),)))
    deliveries = [(writer, peer, batch, sched_rng.random() < 0.5)
                  for writer, batch in batches
                  for peer in node_ids if peer != writer]
    sched_rng.shuffle(deliveries)
    return parts, deliveries


def test_c10_eventual_consistency(monkeypatch):
    """G-Set convergence, driven through `P2PBaseline`: every key has one
    writer, so a replica is a grow-only set whose union is commutative,
    associative and idempotent. However GOSSIP deliveries are ordered,
    retransmitted, forged by another writer or invalid, every peer reaches
    one digest, the reference fold of what it received."""
    monkeypatch.setattr(baselines, "INGEST_BATCH_SIZE", 4)
    node_ids = ["node-00", "node-01", "node-02"]
    schedules_ok = 0
    for schedule in range(20):
        sched_rng = random.Random(1000 + schedule)
        parts, deliveries = _c10_schedule(sched_rng, node_ids, 4)
        net = Network(build_topology(3, seed=schedule, with_server=False))
        system = P2PBaseline(net, parts, gather_timeout_ms=GATHER_TIMEOUT_MS)
        for i, (writer, peer, batch, as_bytes) in enumerate(deliveries):
            net.send(Envelope(kind=MessageKind.GOSSIP, sender=writer,
                              receiver=peer, body=encode_readings(batch),
                              payload=None if as_bytes else batch), 10.0 * i)
        net.run_until_quiescent()
        system.sync()  # seeds each peer's own partition, then gossips it again
        arrived = sorted((e for e in net.envelope_log
                          if e.envelope.kind is MessageKind.GOSSIP),
                         key=lambda e: e.deliver_at)
        digests = set()
        for peer, replica in system.replicas.items():
            own = parts[peer]
            writes = [(peer, own[i:i + 4]) for i in range(0, len(own), 4)]
            writes += [(e.envelope.sender, read_payload(e.envelope))
                       for e in arrived if e.envelope.receiver == peer]
            assert replica.all_readings() == reference_fold(writes), (schedule, peer)
            digests.add(fingerprint(encode_readings(replica.all_readings())))
        assert len(digests) == 1, schedule
        assert replica.all_readings() == tuple(
            union_collect(parts, FULL.start, FULL.end))
        schedules_ok += 1
    report(10, schedules_ok == 20,
           "20 shuffled GOSSIP schedules with retransmits, forged and invalid "
           "batches converge: every peer holds the reference fold")
