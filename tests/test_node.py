import pytest

from conftest import HOSTILE_QUERIES, make_reading, payload_kind
from oracles import assert_summary_close, naive_summary, union_collect
from syncmesh.model import (
    NUMERIC_FIELDS,
    CodecId,
    QueryRequest,
    Scope,
    SensorReading,
    TimeRange,
    TransformerSpec,
)
from syncmesh.netsim import (
    Endpoint,
    EndpointKind,
    LinkClass,
    Network,
    Topology,
    build_topology,
)
from syncmesh.node import (
    MeshClient,
    NeighborModel,
    SyncMeshNode,
    UnknownNode,
    run_query,
)
from syncmesh.payloads import TransformerUnknown, apply_transformer, read_query
from syncmesh.store import LocalStore
from syncmesh.wire import MessageKind, encode_readings, encode_request
from syncmesh.wire import Envelope

FULL = TimeRange(1, 10**15)


class Mesh:
    """Small fully meshed test network with one client."""

    def __init__(self, n=3, node_latency=50.0, client_latency=10.0,
                 latencies=None, gather_timeout_ms=None):
        self.topo = Topology()
        self.node_ids = [f"node-{i:02d}" for i in range(n)]
        for node_id in self.node_ids:
            self.topo.add_endpoint(Endpoint(node_id, EndpointKind.NODE))
        self.topo.add_endpoint(Endpoint("client", EndpointKind.CLIENT))
        latencies = latencies or {}
        for i, a in enumerate(self.node_ids):
            for b in self.node_ids[i + 1:]:
                self.topo.add_link(a, b, latencies.get((a, b), node_latency))
            self.topo.add_link("client", a, latencies.get(("client", a), client_latency))
        self.net = Network(self.topo)
        self.stores = {nid: LocalStore(nid) for nid in self.node_ids}
        self.nodes = {}
        for nid in self.node_ids:
            node = SyncMeshNode(self.stores[nid],
                                gather_timeout_ms=gather_timeout_ms)
            node.attach(self.net, self.topo)
            self.nodes[nid] = node
        self.client = MeshClient()
        self.client.attach(self.net)

    def load(self, data: dict) -> None:
        for nid, readings in data.items():
            self.stores[nid].load_many(readings)

    def heartbeat_round(self, at=0.0) -> None:
        for node in self.nodes.values():
            node.broadcast_heartbeat(at)

    def mesh_query(self, req=None, at=500.0, target=None):
        req = req or QueryRequest(request_id="q1", range=FULL, scope=Scope.MESH)
        return run_query(self.net, self.client, target or self.node_ids[0], req, at)


def disjoint_data(rng, node_ids, per_node=40):
    return {
        nid: [make_reading(rng, node_id=nid, sensor_id=f"{nid}-s{j % 5}",
                           timestamp=rng.randrange(1, 10**9))
              for j in range(per_node)]
        for nid in node_ids
    }


class TestHandleRequest:
    def test_local_query_on_empty_store(self):
        mesh = Mesh(n=3)
        req = QueryRequest(request_id="q1", range=FULL, scope=Scope.LOCAL)
        resp, _ = mesh.mesh_query(req)
        assert resp.payload == ()
        assert resp.partial is False
        assert resp.contributing_nodes == frozenset({"node-00"})
        assert resp.codec is CodecId.GZIP

    def test_mesh_collect_equals_union_oracle(self, rng):
        mesh = Mesh(n=3)
        data = disjoint_data(rng, mesh.node_ids)
        mesh.load(data)
        mesh.heartbeat_round()
        resp, _ = mesh.mesh_query()
        expected = union_collect(data, FULL.start, FULL.end)
        assert list(resp.payload) == expected
        assert resp.partial is False
        assert resp.contributing_nodes == frozenset(mesh.node_ids)

    def test_mesh_transform_merges_counts_not_means(self):
        mesh = Mesh(n=3)
        for i, temp in enumerate((10.0, 20.0, 30.0)):
            nid = mesh.node_ids[i]
            mesh.stores[nid].insert(SensorReading(nid, f"s{i}", 100, temperature=temp))
        mesh.heartbeat_round()
        req = QueryRequest(request_id="q1", range=FULL, scope=Scope.MESH,
                           transformer=TransformerSpec("aggregate_mean"))
        resp, _ = mesh.mesh_query(req)
        agg = resp.payload.as_dict["temperature"]
        assert agg.mean == pytest.approx(20.0)
        assert agg.count == 3

    def test_merge_correctness_against_concatenation(self, rng):
        mesh = Mesh(n=3)
        data = disjoint_data(rng, mesh.node_ids, per_node=120)
        mesh.load(data)
        mesh.heartbeat_round()
        req = QueryRequest(request_id="qt", range=FULL, scope=Scope.MESH,
                           transformer=TransformerSpec("aggregate_mean"))
        resp, _ = mesh.mesh_query(req)
        everything = [r for rs in data.values() for r in rs]
        assert_summary_close(resp.payload, naive_summary(everything, NUMERIC_FIELDS))

    def test_unknown_transformer_raises(self):
        mesh = Mesh(n=1)
        req = QueryRequest(request_id="q1", range=FULL, scope=Scope.LOCAL,
                           transformer=TransformerSpec("no_such_fn"))
        with pytest.raises(TransformerUnknown):
            mesh.nodes["node-00"].handle_request(req, 0.0, requester="client")



class TestScatterGather:
    def test_parallel_rtt_is_max_of_neighbor_roundtrips(self, rng):
        mesh = Mesh(n=3, client_latency=10.0,
                    latencies={("node-00", "node-01"): 50.0,
                               ("node-00", "node-02"): 100.0})
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=2))
        mesh.heartbeat_round()
        resp, rtt = mesh.mesh_query(at=500.0)
        # client->coord 10, fan-out max(2*50, 2*100) = 200, coord->client 10
        assert rtt == pytest.approx(220.0)

    def test_down_neighbor_not_contacted(self, rng):
        mesh = Mesh(n=3)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=3))
        mesh.heartbeat_round()
        mesh.net.run_until_quiescent()  # deliver heartbeats
        mesh.net.set_available("node-02", False)
        # node-02's heartbeat is stale only after the timeout; drop it instead
        mesh.nodes["node-00"].neighbors.last_heartbeat.pop("node-02")
        resp, _ = mesh.mesh_query(at=500.0)
        queries = [e for e in mesh.net.envelope_log
                   if e.envelope.kind is MessageKind.QUERY
                   and e.envelope.sender == "node-00"]
        assert len(queries) == 1
        assert queries[0].envelope.receiver == "node-01"
        assert resp.partial is True  # a topology member is missing
        assert "node-02" not in resp.contributing_nodes

    def test_silent_drop_times_out(self, rng):
        mesh = Mesh(n=3, node_latency=50.0, client_latency=10.0,
                    gather_timeout_ms=400.0)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=3))
        mesh.heartbeat_round()
        mesh.net.call_at(400.0, lambda n, t: n.set_available("node-02", False))
        resp, rtt = mesh.mesh_query(at=500.0)
        assert resp.partial is True
        assert resp.contributing_nodes == {"node-00", "node-01"}
        # dispatch at 510 (client latency), timeout fires 400ms later, +10 home
        assert rtt == pytest.approx(10.0 + 400.0 + 10.0)

    def test_fanout_bound_and_depth_one(self, rng):
        mesh = Mesh(n=4)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=2))
        mesh.heartbeat_round()
        mesh.net.run_until_quiescent()
        log_start = len(mesh.net.envelope_log)
        mesh.mesh_query(at=500.0)
        queries = [e.envelope for e in mesh.net.envelope_log[log_start:]
                   if e.envelope.kind is MessageKind.QUERY]
        fanned = [e for e in queries if e.sender == "node-00"]
        assert len(fanned) == 3  # one per available neighbor
        assert all(e.sender in ("client", "node-00") for e in queries)  # depth 1


class TestHeartbeats:
    def test_boundary_inclusive(self):
        model = NeighborModel(["node-01"], timeout_ms=3000.0)
        model.record("node-01", 1000.0)
        assert model.is_available("node-01", 3999.0) is True   # 2999 elapsed
        assert model.is_available("node-01", 4000.0) is True   # exactly 3000
        assert model.is_available("node-01", 4001.0) is False  # 3001 elapsed

    def test_unknown_sender_rejected(self):
        model = NeighborModel(["node-01"], timeout_ms=3000.0)
        with pytest.raises(UnknownNode):
            model.record("intruder", 0.0)

    def test_never_heartbeating_member_never_contacted(self, rng):
        mesh = Mesh(n=3)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=2))
        # only node-01 announces itself
        mesh.nodes["node-01"].broadcast_heartbeat(0.0)
        resp, _ = mesh.mesh_query(at=500.0)
        queries = [e.envelope for e in mesh.net.envelope_log
                   if e.envelope.kind is MessageKind.QUERY
                   and e.envelope.sender == "node-00"]
        assert [e.receiver for e in queries] == ["node-01"]
        assert resp.partial is True

    def test_stale_heartbeat_skips_neighbor(self, rng):
        mesh = Mesh(n=2)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=2))
        mesh.heartbeat_round(at=0.0)
        resp, _ = mesh.mesh_query(at=5000.0)  # well past the timeout
        assert resp.partial is True
        assert resp.contributing_nodes == {"node-00"}


class TestTransformers:
    def test_aggregate_mean_matches_store_oracle(self, rng):
        readings = [make_reading(rng) for _ in range(400)]
        summary = apply_transformer(TransformerSpec("aggregate_mean"), readings)
        assert_summary_close(summary, naive_summary(readings, NUMERIC_FIELDS))

    def test_unknown_name(self):
        with pytest.raises(TransformerUnknown):
            apply_transformer(TransformerSpec("mystery"), ())


class TestTrafficInvariants:
    def test_transform_never_ships_reading_sets(self, rng):
        mesh = Mesh(n=3)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=30))
        mesh.heartbeat_round()
        req = QueryRequest(request_id="q1", range=FULL, scope=Scope.MESH,
                           transformer=TransformerSpec("aggregate_mean"))
        mesh.mesh_query(req)
        tags = {payload_kind(e.envelope) for e in mesh.net.envelope_log}
        assert "readings" not in tags
        assert "summary" in tags

    def test_collect_does_ship_reading_sets(self, rng):
        mesh = Mesh(n=3)
        mesh.load(disjoint_data(rng, mesh.node_ids, per_node=5))
        mesh.heartbeat_round()
        mesh.mesh_query()
        assert any(payload_kind(e.envelope) == "readings"
                   for e in mesh.net.envelope_log)

    def test_idle_mesh_is_heartbeat_only(self):
        mesh = Mesh(n=3)
        mesh.heartbeat_round()
        mesh.net.run_until_quiescent()
        kinds = {kind for (link_class, kind) in mesh.net.ledger.bytes
                 if link_class is LinkClass.NODE_NODE}
        assert kinds == {MessageKind.HEARTBEAT}

    def test_interleaved_requests_keep_results_separate(self, rng):
        mesh = Mesh(n=3)
        data = disjoint_data(rng, mesh.node_ids, per_node=20)
        mesh.load(data)
        mesh.heartbeat_round()
        ranges = [TimeRange(1, 10**8), TimeRange(1, 10**15)]
        reqs = [QueryRequest(request_id=f"q{i}", range=rng_, scope=Scope.MESH)
                for i, rng_ in enumerate(ranges)]
        for i, req in enumerate(reqs):
            mesh.client.send_query(mesh.net, "node-00", req, 500.0 + i)
        mesh.net.run_until_quiescent()
        for req, rng_ in zip(reqs, ranges):
            resp, _ = mesh.client.received[req.request_id]
            assert list(resp.payload) == union_collect(data, rng_.start, rng_.end)


class TestMalformedBodies:
    """An envelope whose body does not decode, or decodes to an invalid
    request, is dropped, and so is a heartbeat from a non-neighbor; a
    baseline kind (INGEST, GOSSIP) is ignored, valid or not: no store
    changes and the run goes on."""

    @pytest.mark.parametrize("kind, sender, body", [
        pytest.param(MessageKind.INGEST, "node-01", encode_readings((SensorReading(
            "node-01", "sensor-x", 5, humidity=50.0),)), id="ingest-valid-reading"),
        pytest.param(MessageKind.GOSSIP, "node-01", encode_readings((SensorReading(
            "node-01", "sensor-x", 5, humidity=200.0),)), id="gossip-humidity-200"),
        pytest.param(MessageKind.HEARTBEAT, "client", b"", id="heartbeat-from-client"),
        *(pytest.param(MessageKind.QUERY, "client", body,
                       id="local-query-" + name.removeprefix("local-")
                       if name.startswith("local-") else "query-" + name)
          for name, body in HOSTILE_QUERIES.items()),
    ])
    def test_bad_body_is_dropped_and_later_query_answered(self, rng, kind,
                                                           sender, body):
        topo = build_topology(3, seed=5)
        net = Network(topo)
        nodes = []
        for node_id in topo.node_ids():
            store = LocalStore(node_id)
            store.load_many(make_reading(rng, node_id=node_id) for _ in range(5))
            node = SyncMeshNode(store)
            node.attach(net, topo)
            nodes.append(node)
        client = MeshClient()
        client.attach(net)
        for node in nodes:
            node.broadcast_heartbeat(0.0)
        stored = [len(node.store) for node in nodes]

        net.send(Envelope(kind=kind, sender=sender, receiver="node-00", body=body), 0.0)
        net.run_until_quiescent()
        assert [len(node.store) for node in nodes] == stored
        assert client.received == {}

        req = QueryRequest(request_id="q1", range=FULL, scope=Scope.MESH)
        resp, _ = run_query(net, client, "node-00", req, net.clock + 500.0)
        assert resp.partial is False
        assert len(resp.payload) == sum(stored)


class TestReadQuery:
    """`payloads.read_query`, the one rule by which every query handler
    drops a query."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_QUERIES))
    def test_hostile_query_gives_none(self, name):
        env = Envelope(kind=MessageKind.QUERY, sender="client",
                       receiver="node-00", body=HOSTILE_QUERIES[name])
        assert read_query(env) is None

    def test_valid_request_gives_an_equal_one(self):
        req = QueryRequest(request_id="q1", range=FULL, scope=Scope.MESH,
                           transformer=TransformerSpec("aggregate_mean"))
        env = Envelope(kind=MessageKind.QUERY, sender="client",
                       receiver="node-00", body=encode_request(req))
        assert read_query(env) == req
        assert read_query(Envelope(kind=MessageKind.RESPONSE, sender="client",
                                   receiver="node-00", body=env.body)) is None
