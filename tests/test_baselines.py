import hashlib
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FASTLZ_BOMB, GZIP_BOMB, HOSTILE_QUERIES, make_reading, payload_kind)
from oracles import (
    ReferenceReplica,
    assert_summary_close,
    naive_summary,
    reference_encode_response,
    union_collect,
)
from syncmesh import baselines, bench, fastlz, payloads
from syncmesh.baselines import (
    CentralBaseline,
    P2PBaseline,
    P2PReplica,
    ShardedBaseline,
)
from syncmesh.model import (
    NUMERIC_FIELDS,
    QueryRequest,
    Scope,
    SensorReading,
    Summary,
    TimeRange,
    TransformerSpec,
    reading_key,
)
from syncmesh.netsim import (
    Endpoint,
    EndpointKind,
    LinkClass,
    Network,
    Topology,
    TrafficLedger,
    build_topology,
)
from syncmesh.payloads import all_valid
from syncmesh.store import LocalStore
from syncmesh.model import CodecId
from syncmesh.wire import (
    HEADER_SIZE,
    Envelope,
    MessageKind,
    compress,
    encode_readings,
    read_payload,
)

FULL = TimeRange(1, 10**15)


def partitions_for(rng, node_ids, per_node=40):
    return {
        nid: tuple(make_reading(rng, node_id=nid, sensor_id=f"{nid}-s{j % 4}",
                                timestamp=rng.randrange(1, 10**9))
                   for j in range(per_node))
        for nid in node_ids
    }


def server_topology(n):
    return build_topology(n, seed=5, with_server=True)


def stores_from(partitions):
    stores = {}
    for nid, readings in partitions.items():
        store = LocalStore(nid)
        store.load_many(readings)
        stores[nid] = store
    return stores


def collect_req(request_id="q1"):
    return QueryRequest(request_id=request_id, range=FULL, scope=Scope.MESH)


def transform_req(request_id="q1"):
    return QueryRequest(request_id=request_id, range=FULL, scope=Scope.MESH,
                        transformer=TransformerSpec("aggregate_mean"))


class TestCentral:
    def test_empty_ingest_is_zero(self):
        topo = server_topology(3)
        net = Network(topo)
        system = CentralBaseline(net, {f"node-{i:02d}": () for i in range(3)})
        assert system.ingest() == 0.0
        assert net.ledger.total() == 0

    def test_single_batch_duration_is_link_latency(self, rng):
        topo = Topology()
        topo.add_endpoint(Endpoint("node-00", EndpointKind.NODE))
        topo.add_endpoint(Endpoint("server", EndpointKind.SERVER))
        topo.add_endpoint(Endpoint("client", EndpointKind.CLIENT))
        topo.add_link("node-00", "server", 80.0)
        topo.add_link("client", "server", 30.0)
        net = Network(topo)
        system = CentralBaseline(
            net, {"node-00": tuple(make_reading(rng, node_id="node-00",
                                                timestamp=i + 1)
                                   for i in range(100))})
        assert system.ingest() == pytest.approx(80.0)

    def test_ingested_store_equals_union_oracle(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(3)], per_node=600)
        system = CentralBaseline(net, parts)
        system.ingest()
        expected = union_collect(parts, FULL.start, FULL.end)
        assert list(system.server_store.all_readings()) == expected

    def test_query_equals_oracles_and_stays_off_mesh(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(3)])
        system = CentralBaseline(net, parts)
        system.ingest()
        mark = len(net.envelope_log)
        resp, _ = system.query(collect_req(), net.clock + 100.0)
        assert list(resp.payload) == union_collect(parts, FULL.start, FULL.end)

        resp2, _ = system.query(transform_req("q2"), net.clock + 100.0)
        everything = [r for rs in parts.values() for r in rs]
        assert_summary_close(resp2.payload, naive_summary(everything, NUMERIC_FIELDS))
        by_class = TrafficLedger(net.envelope_log[mark:]).by_class()
        assert by_class.get(LinkClass.NODE_NODE, 0) == 0
        assert by_class.get(LinkClass.NODE_SERVER, 0) == 0

    def test_query_phase_kinds_are_query_response_only(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(3)])
        system = CentralBaseline(net, parts)
        system.ingest()
        mark = len(net.envelope_log)
        system.query(transform_req(), net.clock + 100.0)
        kinds = {kind for _, kind in TrafficLedger(net.envelope_log[mark:]).bytes}
        assert kinds == {MessageKind.QUERY, MessageKind.RESPONSE}


class TestSharded:
    def test_collect_equals_union_oracle(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(3)])
        system = ShardedBaseline(net, stores_from(parts))
        resp, _ = system.query(collect_req(), 0.0)
        assert list(resp.payload) == union_collect(parts, FULL.start, FULL.end)
        assert resp.contributing_nodes == frozenset(parts)

    def test_transform_ships_summaries_only(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(3)])
        system = ShardedBaseline(net, stores_from(parts))
        resp, _ = system.query(transform_req(), 0.0)
        everything = [r for rs in parts.values() for r in rs]
        assert_summary_close(resp.payload, naive_summary(everything, NUMERIC_FIELDS))
        node_server_tags = {payload_kind(e.envelope) for e in net.envelope_log
                            if e.link_class is LinkClass.NODE_SERVER
                            and e.envelope.kind is MessageKind.RESPONSE}
        assert node_server_tags == {"summary"}
        assert not any(payload_kind(e.envelope) == "readings" for e in net.envelope_log)

    def test_router_holds_no_readings(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        system = ShardedBaseline(
            net, stores_from(partitions_for(rng, ["node-00", "node-01", "node-02"])))
        assert not hasattr(system, "store")

    def test_all_shards_down_gives_partial_empty(self, rng):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(3)])
        system = ShardedBaseline(net, stores_from(parts),
                                 gather_timeout_ms=200.0)
        for nid in parts:
            net.set_available(nid, False)
        resp, rtt = system.query(collect_req(), 0.0)
        assert resp.partial is True
        assert resp.payload == ()
        assert resp.contributing_nodes == frozenset()


@pytest.mark.parametrize("scenario, rtt, by_class, digest, router_sha256", [
    ("collect", 5601.842157070763,
     {LinkClass.CLIENT_SERVER: 120455, LinkClass.NODE_SERVER: 116205},
     "36299a86bec9582475eac99cea7d564f3f9eab66a83201a6b9a2d6fb3afd0947",
     "387d8492ffed7282336cd0317c9b36cbe3be13462648cfa34c6351595cec30d4"),
    ("transform", 5506.065357070763,
     {LinkClass.CLIENT_SERVER: 734, LinkClass.NODE_SERVER: 1708},
     "3f53e0149ebda0f578d263e20c496577ddb422c50351515d59dd5ee4e9af2ed2",
     "6f0ce3604f4cd6aec52e65f114b87a8926af6d958a079e8dc47b9c799f20612e"),
], ids=["collect", "transform"])
def test_a_down_shard_adds_nothing_to_the_answer(scenario, rtt, by_class,
                                                digest, router_sha256):
    """The seed-7 3-node, 30-day dataset with node-01 down before the
    query, on a memo: the router builds node-01's body ahead with the
    others', but the answer is the two live shards' alone, partial, with
    the request time, bytes, digest and router body pinned here (those of
    a router that built no body ahead). The log holds no RESPONSE from
    node-01."""
    cfg = bench.ScenarioConfig(system="sharded", scenario=scenario, n_nodes=3,
                               window_days=30, repetitions=1, seed=7)
    caches = bench.MatrixCaches()
    bundle = bench._dataset_bundle(cfg, caches)
    ops = payloads.PayloadOps(caches.payloads, ("sharded", bundle.key),
                              caches.endings)
    net = Network(build_topology(
        3, seed=7, with_server=True,
        bandwidth_bytes_per_ms=bench.DEFAULT_LINK_BANDWIDTH))
    system = ShardedBaseline(net, bundle.stores, ops,
                             bench._scenario_gather_timeout(bundle.manifest))
    net.set_available("node-01", False)
    req = bench._build_request(cfg, bench.trailing_window(bundle.manifest, 30))
    resp, got_rtt = system.query(req, 500.0)
    responses = [e.envelope for e in net.envelope_log
                 if e.envelope.kind is MessageKind.RESPONSE]
    assert [env.sender for env in responses] == ["node-02", "node-00", "server"]
    assert any(key[1] == "node-01" and len(key) == 6
               for key in caches.payloads)  # built, and never sent
    assert resp.partial is True
    assert resp.contributing_nodes == {"node-00", "node-02"}
    assert got_rtt == rtt
    assert dict(net.ledger.by_class()) == by_class
    assert ops.payload_digest(resp.payload, req,
                              resp.contributing_nodes) == digest
    assert hashlib.sha256(bytes(responses[-1].body)).hexdigest() == router_sha256


class TestP2PSync:
    def test_closed_form_amplification(self, rng, monkeypatch):
        monkeypatch.setattr(baselines, "INGEST_BATCH_SIZE", 25)
        n = 3
        topo = build_topology(n, seed=5, with_server=False)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)], per_node=60)
        system = P2PBaseline(net, parts)
        system.sync()
        body_bytes = 0
        envelopes = 0
        for nid, readings in parts.items():
            for i in range(0, len(readings), 25):
                body_bytes += len(encode_readings(readings[i:i + 25]))
                envelopes += 1
        expected = 2 * (n - 1) * body_bytes + HEADER_SIZE * 2 * (n - 1) * envelopes
        gossip = net.ledger.get(LinkClass.NODE_NODE, MessageKind.GOSSIP)
        echo = net.ledger.get(LinkClass.NODE_NODE, MessageKind.GOSSIP_ECHO)
        assert gossip + echo == expected
        assert gossip == echo  # echo bodies have equal size by construction
        raw_payload = sum(len(encode_readings(rs)) for rs in parts.values())
        assert gossip + echo >= 2 * raw_payload

    def test_replicas_converge_to_identical_digests(self, rng):
        n = 3
        topo = build_topology(n, seed=6, with_server=False)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)])
        system = P2PBaseline(net, parts)
        system.sync()
        digests = {nid: replica.digest() for nid, replica in system.replicas.items()}
        assert len(set(digests.values())) == 1
        expected = union_collect(parts, FULL.start, FULL.end)
        assert list(system.replicas["node-00"].readings()) == expected

    def test_replicas_key_on_each_readings_own_key(self, rng):
        """No replica allocates a key tuple of its own."""
        n = 3
        net = Network(build_topology(n, seed=6, with_server=False))
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)])
        system = P2PBaseline(net, parts)
        system.sync()
        for replica in system.replicas.values():
            assert len(replica) == sum(map(len, parts.values()))
            assert all(key is r._key for key, r in replica._readings.items())
            assert all(key is replica._readings[key]._key
                       for key in replica._writers)

    def test_synced_replicas_share_one_view(self, rng):
        n = 3
        topo = build_topology(n, seed=6, with_server=False)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)])
        system = P2PBaseline(net, parts)
        system.sync()
        reference = ReferenceReplica()
        for origin, readings in parts.items():
            reference.apply_batch(readings, origin)
        replicas = list(system.replicas.values())
        assert all(replica is replicas[0] for replica in replicas)
        views = [replica.readings() for replica in replicas]
        assert all(view is views[0] for view in views)
        assert views[0] == reference.readings()

    def test_a_replica_that_missed_gossip_keeps_its_own_view(self, rng):
        n = 3
        topo = build_topology(n, seed=6, with_server=False)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)])
        system = P2PBaseline(net, parts)
        net.set_available("node-02", False)  # receives no gossip
        system.sync()
        replicas = system.replicas
        assert replicas["node-01"].readings() is replicas["node-00"].readings()
        assert replicas["node-02"].readings() is not replicas["node-00"].readings()
        alone = ReferenceReplica()
        alone.apply_batch(parts["node-02"], "node-02")
        assert replicas["node-02"].readings() == alone.readings()

    def test_a_full_sync_builds_one_replica_for_every_peer(self, rng, monkeypatch):
        """Every peer got the same writes, so all share one reading map: each
        delivered reading is applied once, not once per peer, and each batch
        is validated once, not once per delivery."""
        monkeypatch.setattr(baselines, "INGEST_BATCH_SIZE", 15)
        n = 4
        net = Network(build_topology(n, seed=6, with_server=False))
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)])
        applied, judged = [], []
        apply_batch = P2PReplica.apply_batch

        def counted_apply(replica, readings, writer):
            applied.append(len(readings))
            apply_batch(replica, readings, writer)

        def counted_valid(batch):
            judged.append(id(batch))
            return all_valid(batch)  # payloads.all_valid; only baselines is patched

        monkeypatch.setattr(P2PReplica, "apply_batch", counted_apply)
        monkeypatch.setattr(baselines, "all_valid", counted_valid)
        system = P2PBaseline(net, parts)
        system.sync()
        replicas = list(system.replicas.values())
        total = sum(map(len, parts.values()))
        assert all(r._readings is replicas[0]._readings
                   and r._writers is replicas[0]._writers for r in replicas)
        assert len(replicas[0]) == total
        assert sum(applied) == total
        # 40 readings a peer in batches of 15: 3 batches each.
        assert len(judged) == len(set(judged)) == n * 3

    def test_query_range_returns_one_tuple_per_range_until_an_apply(self, rng):
        replica = P2PReplica()
        replica.apply_batch(
            tuple(make_reading(rng, timestamp=t) for t in range(1, 21)), "node-00")
        window = TimeRange(5, 15)
        first = replica.query_range(window)
        assert replica.query_range(TimeRange(5, 15)) is first
        assert replica.query_range(TimeRange(5, 16)) is not first
        assert [r.timestamp for r in first] == list(range(5, 15))
        replica.apply_batch(
            (make_reading(rng, node_id="node-01", timestamp=7),), "node-01")
        after_apply = replica.query_range(window)
        assert after_apply is not first and len(after_apply) == 11
        replica.apply_batch(
            (make_reading(rng, node_id="node-02", timestamp=8),), "node-02")
        after_batch = replica.query_range(window)
        assert after_batch is not after_apply and len(after_batch) == 12
        assert replica.query_range(window) is after_batch

    def test_lww_last_writer_wins_any_order(self):
        base = SensorReading("node-00", "s0", 1000, temperature=1.0)
        contender = SensorReading("node-00", "s0", 1000, temperature=2.0)
        writes = [(base, "node-00"), (contender, "node-01")]
        for order in (writes, writes[::-1]):
            replica = P2PReplica()
            for reading, writer in order:
                replica.apply_batch((reading,), writer)
            assert replica.readings()[0].temperature == 2.0  # node-01 wins tie

    def test_random_write_schedules_converge(self):
        # One value per version: a writer may retransmit a write but never
        # reuses its version for different data.
        rng = random.Random(5150)
        keys = [("node-00", "s0", ts) for ts in range(1, 6)]
        writes = []
        for _ in range(40):
            node, sensor, ts = rng.choice(keys)
            writer = f"node-{rng.randrange(3):02d}"
            value = float(ts * 7 + int(writer[-2:]))
            reading = SensorReading(node, sensor, ts, temperature=value)
            writes.append((reading, writer))
        digests = set()
        for _ in range(20):
            replica = P2PReplica()
            shuffled = writes[:]
            rng.shuffle(shuffled)
            for reading, writer in shuffled:
                replica.apply_batch((reading,), writer)
            digests.add(replica.digest())
        assert len(digests) == 1


# Few keys and writers, so writes collide, retransmit an equal version (with
# the same or different data) and arrive in any writer order.
_writers = st.sampled_from(("node-00", "node-01", "node-02"))
_replica_readings = st.builds(
    SensorReading, st.sampled_from(("node-00", "node-01")),
    st.sampled_from(("s0", "s1")), st.integers(1, 4),
    temperature=st.sampled_from((0.0, 1.0, 2.0)))
_replica_ops = st.lists(st.one_of(
    st.tuples(st.just("apply"), _replica_readings, _writers),
    st.tuples(st.just("batch"), st.lists(_replica_readings, max_size=6), _writers),
    st.tuples(st.just("query"), st.integers(0, 5), st.integers(1, 5))),
    max_size=30)


class TestP2PReplicaModel:
    """`P2PReplica` against the tuple-per-entry `ReferenceReplica`."""

    @given(_replica_ops)
    @settings(max_examples=300)
    def test_matches_reference(self, ops):
        replica, reference = P2PReplica(), ReferenceReplica()
        for op, arg, other in ops:
            if op == "apply":
                replica.apply_batch((arg,), other)
                reference.apply(arg, (arg.timestamp, other))
            elif op == "batch":
                replica.apply_batch(tuple(arg), other)
                reference.apply_batch(arg, other)
            else:
                time_range = TimeRange(arg, arg + other)
                assert (replica.query_range(time_range)
                        == reference.query_range(time_range))
        assert replica.readings() == reference.readings()
        assert len(replica) == len(reference.readings())
        for r in reference.readings():
            key = (r.node_id, r.sensor_id, r.timestamp)
            assert replica.writer(key) == reference.writer(key)
        assert replica.digest() == reference.digest()


@st.composite
def _p2p_runs(draw):
    """A small mesh: partitions (over a key space that origins share when
    `collide`, so writes to one key conflict), some invalid readings, peers
    going down and up during sync, then resends of gossip batches, as the same
    batch object or as bytes to decode, and two batches of one writer that
    write one key with different data, sent to peers in any order."""
    node_ids = [f"node-{i:02d}" for i in range(draw(st.integers(2, 4)))]
    collide = draw(st.booleans())
    partitions = {}
    for origin in node_ids:
        readings = st.builds(
            SensorReading,
            st.sampled_from(("node-00", "node-01") if collide else (origin,)),
            st.sampled_from(("s0", "s1")), st.integers(1, 3),
            temperature=st.sampled_from((0.0, 1.0, 2.0)),
            humidity=st.sampled_from((None, None, None, 200.0)))
        partitions[origin] = tuple(draw(st.lists(
            readings, unique_by=reading_key, max_size=7)))
    toggles = draw(st.lists(st.tuples(
        st.sampled_from(node_ids), st.floats(0.0, 700.0), st.booleans()),
        max_size=3))
    resend = st.tuples(st.integers(0, 99), st.sampled_from(node_ids),
                       st.booleans())
    before_read = draw(st.lists(resend, max_size=3))
    after_read = draw(st.lists(resend, max_size=2))
    conflicts = draw(st.lists(st.sampled_from(((), (0, 1), (1, 0))),
                              min_size=len(node_ids) - 1,
                              max_size=len(node_ids) - 1))
    return partitions, toggles, before_read, conflicts, after_read


class TestP2PReplicasFollowTheirWrites:
    """However the batches arrive, each peer's replica is the reference fold
    of that peer's own writes in arrival order: its partition, then each
    valid GOSSIP batch delivered to it, and it stays so after a later
    GOSSIP."""

    @staticmethod
    def _reference(system, net, peer):
        replica = ReferenceReplica()
        own = system.partitions[peer]
        writes = [(peer, own[i:i + baselines.INGEST_BATCH_SIZE])
                  for i in range(0, len(own), baselines.INGEST_BATCH_SIZE)]
        arrived = sorted((e for e in net.envelope_log
                          if e.delivered and e.envelope.receiver == peer
                          and e.envelope.kind is MessageKind.GOSSIP),
                         key=lambda e: e.deliver_at)
        writes += [(e.envelope.sender, read_payload(e.envelope)) for e in arrived]
        for writer, batch in writes:
            if all_valid(batch):
                replica.apply_batch(batch, writer)
        return replica

    @staticmethod
    def _resend(net, pick, peer, as_bytes):
        gossip = [e.envelope for e in net.envelope_log
                  if e.envelope.kind is MessageKind.GOSSIP]
        if not gossip:
            return
        env = gossip[pick % len(gossip)]
        if peer == env.sender:
            peer = env.receiver
        net.send(replace(env, receiver=peer,
                         payload=None if as_bytes else env.payload), net.clock)
        net.run_until_quiescent()

    @staticmethod
    def _send_conflicting(net, peers, orders):
        """Two batches of the greatest writer to one key, with different
        data, to each other peer in its drawn order: the first to arrive
        stays, so peers with the same writes can end up different."""
        writer = peers[-1]
        batches = [(SensorReading("node-00", "s0", 1, temperature=t),)
                   for t in (5.0, 6.0)]
        for peer, order in zip(peers, orders):
            for i in order:
                net.send(Envelope(kind=MessageKind.GOSSIP, sender=writer,
                                  receiver=peer, body=encode_readings(batches[i]),
                                  payload=batches[i]), net.clock)
                net.run_until_quiescent()

    @given(_p2p_runs())
    @settings(max_examples=150, deadline=None)
    def test_each_replica_is_its_own_writes_folded_in_order(self, run):
        partitions, toggles, before_read, conflicts, after_read = run
        net = Network(build_topology(len(partitions), seed=3))
        with mock.patch.object(baselines, "INGEST_BATCH_SIZE", 2):
            system = P2PBaseline(net, partitions)
            for peer, at, up in toggles:
                net.call_at(at, lambda net, now, peer=peer, up=up:
                            net.set_available(peer, up))
            system.sync()
            for peer in partitions:
                net.set_available(peer, True)
            for resend in before_read:
                self._resend(net, *resend)
            self._send_conflicting(net, sorted(partitions), conflicts)
            references = {peer: self._reference(system, net, peer)
                          for peer in partitions}

            def check():
                for peer, replica in system.replicas.items():
                    reference = references[peer]
                    assert replica.readings() == reference.readings(), peer
                    for r in reference.readings():
                        assert replica.writer(reading_key(r)) == \
                            reference.writer(reading_key(r))

            check()
            for resend in after_read:
                self._resend(net, *resend)
                references = {peer: self._reference(system, net, peer)
                              for peer in partitions}
                check()


class TestP2PCollect:
    def _synced(self, rng, n=3):
        topo = build_topology(n, seed=8, with_server=False)
        net = Network(topo)
        parts = partitions_for(rng, [f"node-{i:02d}" for i in range(n)])
        system = P2PBaseline(net, parts)
        system.sync()
        return net, parts, system, len(net.envelope_log)

    def test_client_downloads_every_replica_fully(self, rng):
        net, parts, system, mark = self._synced(rng)
        resp, _ = system.client_collect(collect_req(), net.clock + 100.0)
        union_bytes = len(encode_readings(tuple(
            union_collect(parts, FULL.start, FULL.end))))
        responses = [e.envelope for e in net.envelope_log[mark:]
                     if e.envelope.kind is MessageKind.RESPONSE]
        assert len(responses) == 3
        body_total = sum(len(e.body) for e in responses)
        assert body_total >= 3 * union_bytes  # no dedup on the wire

    def test_result_equals_union_after_dedup(self, rng):
        net, parts, system, _ = self._synced(rng)
        resp, _ = system.client_collect(collect_req(), net.clock + 100.0)
        assert list(resp.payload) == union_collect(parts, FULL.start, FULL.end)
        assert resp.partial is False

    def test_one_peer_down_still_complete(self, rng):
        net, parts, system, _ = self._synced(rng)
        system.gather.timeout_ms = 300.0
        net.set_available("node-02", False)
        resp, _ = system.client_collect(collect_req(), net.clock + 100.0)
        assert list(resp.payload) == union_collect(parts, FULL.start, FULL.end)
        assert resp.partial is False

    def test_transform_aggregates_client_side(self, rng):
        net, parts, system, mark = self._synced(rng)
        resp, _ = system.client_collect(transform_req(), net.clock + 100.0)
        everything = [r for rs in parts.values() for r in rs]
        assert isinstance(resp.payload, Summary)
        assert_summary_close(resp.payload, naive_summary(everything, NUMERIC_FIELDS))
        # peers still shipped raw readings; aggregation happened at the client
        assert any(payload_kind(e.envelope) == "readings"
                   for e in net.envelope_log[mark:])


class TestP2PSharedResponseArray:
    """A synced mesh answers a range from one replica with one tuple, so the
    readings array of every peer's RESPONSE body is encoded once and held
    once; each body's bytes and the ledger are what they were."""

    @pytest.fixture(scope="class")
    def dataset(self):
        text = bench.generate_synthetic(
            n_sensors=4, days=30, readings_per_sensor_per_day=48, seed=7,
            balance_across=4)
        return bench.ingest_csv_text(text, 4)

    @pytest.mark.parametrize("days", [1, 30])
    def test_every_peer_body_holds_one_array(self, dataset, monkeypatch, days):
        manifest, parts = dataset
        net = Network(build_topology(4, seed=8))
        system = P2PBaseline(net, parts)
        system.sync()
        mark = len(net.envelope_log)
        encoded = []
        encode_readings_ = payloads.wire.encode_readings

        def counted(readings):
            encoded.append(len(readings))
            return encode_readings_(readings)

        monkeypatch.setattr(payloads.wire, "encode_readings", counted)
        window = bench.trailing_window(manifest, days)
        req = QueryRequest(request_id="q1", range=window, scope=Scope.MESH)
        resp, _ = system.client_collect(req, net.clock + 100.0)

        expected = union_collect(parts, window.start, window.end)
        assert list(resp.payload) == expected
        if days == 1:  # a strict slice of the replica, a new tuple per call
            assert 0 < len(expected) < sum(map(len, parts.values()))
        assert encoded == [len(expected)]
        query_phase = net.envelope_log[mark:]
        responses = [e.envelope for e in query_phase
                     if e.envelope.kind is MessageKind.RESPONSE]
        assert sorted(env.sender for env in responses) == sorted(parts)
        arrays = [env.body.parts[1] for env in responses]
        assert all(array is arrays[0] for array in arrays)
        for env in responses:
            assert bytes(env.body) == reference_encode_response(env.payload)
            assert env.wire_size == HEADER_SIZE + len(bytes(env.body))
        assert TrafficLedger(query_phase).total() == sum(
            HEADER_SIZE + len(bytes(e.envelope.body)) for e in query_phase)


class TestCrossSystemEquivalence:
    def test_collect_set_equal_everywhere(self, rng):
        node_ids = [f"node-{i:02d}" for i in range(3)]
        parts = partitions_for(rng, node_ids, per_node=50)
        expected = union_collect(parts, FULL.start, FULL.end)

        topo = server_topology(3)
        net = Network(topo)
        central = CentralBaseline(net, parts)
        central.ingest()
        got_central, _ = central.query(collect_req(), net.clock + 10.0)

        topo2 = server_topology(3)
        net2 = Network(topo2)
        sharded = ShardedBaseline(net2, stores_from(parts))
        got_sharded, _ = sharded.query(collect_req(), 0.0)

        topo3 = build_topology(3, seed=5, with_server=False)
        net3 = Network(topo3)
        p2p = P2PBaseline(net3, parts)
        p2p.sync()
        got_p2p, _ = p2p.client_collect(collect_req(), net3.clock + 10.0)

        assert list(got_central.payload) == expected
        assert list(got_sharded.payload) == expected
        assert list(got_p2p.payload) == expected


class TestInvalidBodies:
    """A query body that does not decode, or a body that decodes to an
    invalid request or batch, is dropped by every baseline handler; later
    queries are still answered in full."""

    def _system(self, rng, kind):
        topo = server_topology(3)
        net = Network(topo)
        parts = partitions_for(rng, topo.node_ids(), per_node=10)
        if kind == "central":
            system = CentralBaseline(net, parts)
        elif kind == "sharded":
            system = ShardedBaseline(net, stores_from(parts))
        else:
            system = P2PBaseline(net, parts)
        system.ingest()
        return net, system, parts

    @pytest.mark.parametrize("bad", sorted(HOSTILE_QUERIES))
    @pytest.mark.parametrize("kind, receiver", [
        ("central", "server"), ("sharded", "server"), ("sharded", "node-01"),
        ("p2p", "node-01")])
    def test_invalid_query_dropped(self, rng, kind, receiver, bad):
        net, system, parts = self._system(rng, kind)
        net.send(Envelope(kind=MessageKind.QUERY, sender="client",
                          receiver=receiver, request_id="bad",
                          body=HOSTILE_QUERIES[bad]), net.clock)
        net.run_until_quiescent()
        assert not [e for e in net.envelope_log
                    if e.envelope.request_id == "bad" and e.envelope.sender != "client"]
        resp, _ = system.query(collect_req(), net.clock + 500.0)
        assert resp.partial is False
        assert list(resp.payload) == union_collect(parts, FULL.start, FULL.end)

    @pytest.mark.parametrize("kind", ["central", "p2p"])
    def test_a_batch_with_an_invalid_reading_loads_none(self, rng, kind):
        """Delivered before the first read and after it; the p2p peer still
        echoes the batch."""
        net, system, parts = self._system(rng, kind)
        receiver = "server" if kind == "central" else "node-01"
        message = MessageKind.INGEST if kind == "central" else MessageKind.GOSSIP

        def held():
            if kind == "central":
                return system.server_store.all_readings()
            return system.replicas[receiver].readings()

        batch = (make_reading(rng, node_id="node-00", timestamp=7),
                 SensorReading("node-00", "sensor-x", 9, humidity=200.0, p1=-5.0))
        body = compress(CodecId.FASTLZ, encode_readings(batch))
        for _ in range(2):
            net.send(Envelope(kind=message, sender="node-00", receiver=receiver,
                              codec=CodecId.FASTLZ, body=body), net.clock)
            net.run_until_quiescent()
            assert list(held()) == union_collect(parts, FULL.start, FULL.end)
        echoes = [e for e in net.envelope_log
                  if e.envelope.kind is MessageKind.GOSSIP_ECHO
                  and e.envelope.body == body]
        assert len(echoes) == (2 if kind == "p2p" else 0)


    @pytest.mark.parametrize("codec, bomb", [
        (CodecId.FASTLZ, FASTLZ_BOMB), (CodecId.GZIP, GZIP_BOMB)],
        ids=["fastlz", "gzip"])
    @pytest.mark.parametrize("kind", ["central", "p2p"])
    def test_a_body_that_decompresses_past_the_cap_is_dropped(
            self, rng, monkeypatch, kind, codec, bomb):
        """Under the real cap the same body is an empty batch, taken."""
        net, system, parts = self._system(rng, kind)
        cap = fastlz.MAX_OUTPUT
        monkeypatch.setattr(fastlz, "MAX_OUTPUT", 10_000)
        receiver = "server" if kind == "central" else "node-01"
        message = MessageKind.INGEST if kind == "central" else MessageKind.GOSSIP
        bomb_envelope = Envelope(kind=message, sender="node-00", receiver=receiver,
                                 codec=codec, body=bomb, request_id="bomb")
        delivered = list(system.delivered)
        net.send(bomb_envelope, net.clock)
        net.run_until_quiescent()
        assert system.delivered == delivered
        assert not [e for e in net.envelope_log
                    if e.envelope.request_id == "bomb" and e.envelope.sender != "node-00"]
        resp, _ = system.query(collect_req(), net.clock + 500.0)
        assert resp.partial is False
        assert list(resp.payload) == union_collect(parts, FULL.start, FULL.end)

        monkeypatch.setattr(fastlz, "MAX_OUTPUT", cap)
        net.send(bomb_envelope, net.clock)
        net.run_until_quiescent()
        assert system.delivered == delivered + [(bomb_envelope, ())]


def _batch_envelope(kind, sender, receiver, batch, request_id=""):
    return Envelope(kind=kind, sender=sender, receiver=receiver,
                    codec=CodecId.FASTLZ, request_id=request_id,
                    body=compress(CodecId.FASTLZ, encode_readings(batch)))


class TestDeliveredBatches:
    """The server and the peers keep every batch delivered to them, whatever
    its request id, and apply them in arrival order."""

    def _central(self):
        return CentralBaseline(Network(server_topology(3)), {})

    def _p2p(self):
        return P2PBaseline(Network(build_topology(3, seed=5)),
                           {f"node-{i:02d}": () for i in range(3)})

    @pytest.mark.parametrize("request_id", ["", "i000000"])
    def test_two_ingests_under_one_name_are_both_stored(self, rng, request_id):
        system = self._central()
        batches = [tuple(make_reading(rng, timestamp=t) for t in (1, 2)),
                   tuple(make_reading(rng, timestamp=t) for t in (3, 4))]
        for at, batch in enumerate(batches):
            system.net.send(_batch_envelope(
                MessageKind.INGEST, "node-00", "server", batch, request_id), at)
        system.net.run_until_quiescent()
        assert system.server_store.all_readings() == batches[0] + batches[1]

    def test_an_invalid_batch_under_a_used_name_removes_nothing(self, rng):
        net, system, parts = TestInvalidBodies()._system(rng, "central")
        stored = system.server_store.all_readings()
        batch = (SensorReading("node-00", "sensor-x", 9, humidity=200.0),)
        net.send(_batch_envelope(MessageKind.INGEST, "node-00", "server",
                                 batch, "i000000"), net.clock)
        net.run_until_quiescent()
        assert system.server_store.all_readings() == stored
        assert len(system.server_store) == sum(map(len, parts.values()))

    def test_an_invalid_batch_loads_nothing_and_is_judged_once(
            self, rng, monkeypatch):
        """The server loads none of it, so it counts as no write; each
        delivered batch is validated once, by the load."""
        judged = []

        def counted_valid(batch):
            judged.append(id(batch))
            return all_valid(batch)  # payloads.all_valid; only baselines is patched

        monkeypatch.setattr(baselines, "all_valid", counted_valid)
        net, system, parts = TestInvalidBodies()._system(rng, "central")
        batch = (SensorReading("node-00", "sensor-x", 9, humidity=200.0),)
        net.send(_batch_envelope(MessageKind.INGEST, "node-00", "server", batch),
                 net.clock)
        net.run_until_quiescent()
        assert list(system.server_store.all_readings()) == union_collect(
            parts, FULL.start, FULL.end)
        assert len(judged) == len(set(judged)) == len(system.delivered) == 4

    def test_a_batch_holding_another_nodes_reading_is_dropped(self, rng):
        """node-01's batch holds node-00's reading: it is not delivered,
        nothing of it is loaded, the run goes on, and node-00's own copy,
        arriving later, stays."""
        system = self._central()
        foreign = make_reading(rng, timestamp=5)
        own = make_reading(rng, sensor_id=foreign.sensor_id, timestamp=5)
        mixed = (make_reading(rng, node_id="node-01", timestamp=6), foreign)
        system.net.send(_batch_envelope(
            MessageKind.INGEST, "node-01", "server", mixed), 0.0)
        system.net.send(_batch_envelope(
            MessageKind.INGEST, "node-00", "server", (own,)), 1000.0)
        system.net.run_until_quiescent()
        assert [env.sender for env, _ in system.delivered] == ["node-00"]
        assert system.server_store.all_readings() == (own,)
        resp, _ = system.query(collect_req(), system.net.clock + 10.0)
        assert resp.payload == (own,) and resp.partial is False

    def test_the_first_arrival_of_a_key_stays(self, rng):
        """One sender's two batches write one key: its first arrival stays."""
        system = self._central()
        early = make_reading(rng, timestamp=5)
        late = make_reading(rng, sensor_id=early.sensor_id, timestamp=5)
        for at, reading in ((0.0, early), (1000.0, late)):
            system.net.send(_batch_envelope(
                MessageKind.INGEST, "node-00", "server", (reading,)), at)
        system.net.run_until_quiescent()
        assert system.server_store.all_readings() == (early,)

    def test_two_gossips_under_one_name_are_both_applied(self, rng):
        system = self._p2p()
        batches = [tuple(make_reading(rng, timestamp=t) for t in (1, 2)),
                   tuple(make_reading(rng, timestamp=t) for t in (3, 4))]
        for at, batch in enumerate(batches):
            system.net.send(_batch_envelope(
                MessageKind.GOSSIP, "node-00", "node-01", batch, "g000000"), at)
        system.net.run_until_quiescent()
        assert system.replicas["node-01"].readings() == batches[0] + batches[1]

    def test_one_writers_first_gossip_of_a_key_stays(self, rng):
        system = self._p2p()
        early = make_reading(rng, timestamp=5)
        late = make_reading(rng, sensor_id=early.sensor_id, timestamp=5)
        for at, reading in ((0.0, early), (1000.0, late)):
            system.net.send(_batch_envelope(
                MessageKind.GOSSIP, "node-00", "node-01", (reading,)), at)
        system.net.run_until_quiescent()
        assert system.replicas["node-01"].readings() == (early,)

    @pytest.mark.parametrize("kind", ["central", "p2p"])
    def test_a_batch_after_the_first_read_leaves_the_read_state_and_is_in_the_next(
            self, rng, kind):
        """A state once read is never written: the next batch drops it, the
        read after that builds one holding both batches, and a state set
        from outside stays as it was set."""
        system = self._central() if kind == "central" else self._p2p()
        receiver = "server" if kind == "central" else "node-01"
        message = MessageKind.INGEST if kind == "central" else MessageKind.GOSSIP

        def state():
            return system.server_store if kind == "central" else system.replicas

        def contents(held):
            if kind == "central":
                return held.all_readings(), len(held)
            return {peer: (replica.readings(), len(replica),
                           [replica.writer(reading_key(r))
                            for r in replica.readings()])
                    for peer, replica in held.items()}

        def deliver(batch):
            system.net.send(_batch_envelope(
                message, "node-00", receiver, batch), system.net.clock)
            system.net.run_until_quiescent()

        def held():
            current = state()
            return (current.all_readings() if kind == "central"
                    else current["node-01"].readings())

        first = (make_reading(rng, timestamp=1),)
        second = (make_reading(rng, timestamp=2),)
        deliver(first)
        assert held() == first
        read = state()
        before = contents(read)
        deliver(second)
        assert contents(read) == before
        assert held() == first + second
        assert state() is not read

        installed = LocalStore("server") if kind == "central" else {
            node_id: P2PReplica() for node_id in system.partitions}
        if kind == "central":
            system.server_store = installed
        else:
            system.replicas = installed
        assert held() == ()
        deliver((make_reading(rng, timestamp=3),))
        assert len(held()) == 3
        assert (len(installed) if kind == "central"
                else sum(map(len, installed.values()))) == 0
