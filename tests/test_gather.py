"""The one scatter-gather, as the mesh node, the sharded router and the p2p
client use it: which replies count, and that the owner finishes once."""

import pytest

from conftest import make_reading
from syncmesh import bench
from syncmesh.baselines import P2PBaseline, ShardedBaseline
from syncmesh.model import CodecId, QueryRequest, QueryResponse, Scope, TimeRange
from syncmesh.netsim import Network, build_topology
from syncmesh.node import Gather, MeshClient, SyncMeshNode, run_query
from syncmesh.payloads import PayloadOps
from syncmesh.store import LocalStore
from syncmesh.wire import Envelope, MessageKind

FULL = TimeRange(1, 10**15)
TIMEOUT_MS = 5000.0  # every link is at most 300 ms, so replies sent early arrive first
TARGETS = ("node-01", "node-02")
OUTSIDER = "node-03"  # linked to the owner, never asked


class Owner:
    """One gather owner on a 4-node topology whose targets never answer on
    their own: every reply the owner sees is one the test sends. The owner
    is built with `timeout_ms` as its gather deadline."""

    def __init__(self, kind, rng, timeout_ms=TIMEOUT_MS):
        self.kind = kind
        self.net = Network(build_topology(4, seed=3, with_server=kind == "router"))
        self.heartbeating = []
        if kind == "node":
            nodes = [SyncMeshNode(LocalStore(f"node-{i:02d}"),
                                  gather_timeout_ms=timeout_ms)
                     for i in range(4)]
            for node in nodes:
                node.attach(self.net)
            self.heartbeating = nodes[1:3]  # node-03 sends none: skipped
            self.id, self.gather = "node-00", nodes[0].gather
            self.client = MeshClient()
            self.client.attach(self.net)
        elif kind == "router":
            system = ShardedBaseline(
                self.net, {t: LocalStore(t) for t in TARGETS},
                gather_timeout_ms=timeout_ms)
            self.id, self.gather, self.client = "server", system.gather, system.client
        else:
            system = P2PBaseline(self.net, {t: () for t in TARGETS},
                                 gather_timeout_ms=timeout_ms)
            self.id, self.gather, self.system = "client", system.gather, system
        for target in TARGETS:
            self.net.register(target, lambda net, env, now: None)
        self.readings = [make_reading(rng, node_id="node-01") for _ in range(4)]
        self.finished = []
        start = self.gather.start

        def counted_start(net, req, targets, now, finish):
            def counted(responses, timeouts, at):
                self.finished.append((req.request_id, tuple(responses), timeouts,
                                      now, at))
                finish(responses, timeouts, at)
            start(net, req, targets, now, counted)

        self.gather.start = counted_start

    def next_start(self):
        """A time to start the next gather at: 100 ms after a heartbeat
        round, once the round is heard, so the node's targets are fresh."""
        for node in self.heartbeating:
            node.broadcast_heartbeat(self.net.clock)
        self.net.run_until_quiescent()
        return self.net.clock + 100.0

    def reply_at(self, at, sender, request_id, payload=()):
        resp = QueryResponse(request_id=request_id, payload=payload,
                             contributing_nodes=frozenset({sender}),
                             partial=False, codec=CodecId.NONE)
        req = QueryRequest(request_id=request_id, range=FULL)
        env = PayloadOps().response_envelope(req, resp, sender, self.id)
        self.net.call_at(at, lambda net, now: net.send(env, now))

    def garbage_at(self, at, sender, request_id):
        env = Envelope(kind=MessageKind.RESPONSE, sender=sender,
                       receiver=self.id, body=b"{not json",
                       request_id=request_id)
        self.net.call_at(at, lambda net, now: net.send(env, now))

    def query(self, request_id, at):
        """Start one gather at `at`, run to quiescence, return the answer."""
        req = QueryRequest(request_id=request_id, range=FULL, scope=Scope.MESH)
        if self.kind == "p2p":
            return self.system.client_collect(req, at)[0]
        target = "node-00" if self.kind == "node" else "server"
        self.client.send_query(self.net, target, req, at)
        self.net.run_until_quiescent()
        return self.client.received[request_id][0]

    def answers(self, request_id):
        """RESPONSE envelopes the owner itself sent for request_id."""
        return [e for e in self.net.envelope_log
                if e.envelope.kind is MessageKind.RESPONSE
                and e.envelope.sender == self.id
                and e.envelope.request_id == request_id]


@pytest.mark.parametrize("kind", ["node", "router", "p2p"])
def test_gather_counts_first_reply_of_each_target_once(rng, kind):
    owner = Owner(kind, rng)
    t0 = owner.next_start()

    first, second, outsiders, late = ((r,) for r in owner.readings)

    # Every target replies: the gather completes before its deadline.
    owner.reply_at(t0 + 500, OUTSIDER, "g1", outsiders)
    owner.garbage_at(t0 + 500, "node-01", "g1")
    owner.reply_at(t0 + 1000, "node-01", "g1", first)
    owner.reply_at(t0 + 1500, "node-01", "g1", second)
    owner.reply_at(t0 + 2000, "node-02", "g1")
    resp = owner.query("g1", t0)
    assert owner.net.clock < t0 + TIMEOUT_MS  # the deadline was cancelled
    assert len(owner.finished) == 1
    request_id, responders, timeouts, started, at = owner.finished[0]
    assert (request_id, responders, timeouts) == ("g1", TARGETS, frozenset())
    assert at < started + TIMEOUT_MS
    assert resp.payload == first
    assert {"node-01", "node-02"} <= resp.contributing_nodes
    assert OUTSIDER not in resp.contributing_nodes

    # One target replies in time and one late: the deadline finishes it.
    t1 = owner.next_start()
    owner.reply_at(t1 + 500, "node-02", "g2")
    owner.reply_at(t1 + TIMEOUT_MS + 500, "node-01", "g2", late)
    resp = owner.query("g2", t1)
    assert len(owner.finished) == 2
    request_id, responders, timeouts, started, at = owner.finished[1]
    assert (request_id, responders, timeouts) == ("g2", ("node-02",),
                                                  frozenset({"node-01"}))
    assert at == started + TIMEOUT_MS
    assert resp.payload == ()
    assert "node-01" not in resp.contributing_nodes

    if kind != "p2p":  # the p2p client answers itself, not over the network
        assert len(owner.answers("g1")) == len(owner.answers("g2")) == 1


@pytest.mark.parametrize("configured", [1234.5])
@pytest.mark.parametrize("kind", ["node", "router", "p2p"])
def test_deadline_is_the_configured_one_or_the_topology_default(rng, kind,
                                                               configured):
    """A gather that gets no reply finishes at the owner's deadline."""
    owner = Owner(kind, rng, timeout_ms=configured)
    resp = owner.query("d1", owner.next_start())
    ((request_id, responders, timeouts, started, at),) = owner.finished
    assert (request_id, responders, timeouts) == ("d1", (), frozenset(TARGETS))
    assert at == started + configured
    assert resp.payload == () and resp.partial is True


@pytest.mark.parametrize("build", [
    lambda net, stores: Gather("node-00"),
    lambda net, stores: SyncMeshNode(stores["node-00"]),
    lambda net, stores: bench.SyncMeshSystem(net, stores, PayloadOps()),
    lambda net, stores: ShardedBaseline(net, stores),
    lambda net, stores: P2PBaseline(net, dict.fromkeys(stores, ())),
], ids=["Gather", "SyncMeshNode", "SyncMeshSystem", "ShardedBaseline",
        "P2PBaseline"])
def test_no_gather_is_built_without_a_deadline(build):
    net = Network(build_topology(3, seed=3, with_server=True))
    stores = {n: LocalStore(n) for n in net.topology.node_ids()}
    with pytest.raises(TypeError, match="timeout_ms"):
        build(net, stores)


def test_a_p2p_collect_over_bandwidth_limited_links_gets_every_reply():
    """The 3-node, 30-day, seed-7 dataset over 1,250 B/ms links: each
    peer's reply of the whole replica takes seconds to serialize, and the
    scenario's deadline waits for all three."""
    cfg = bench.ScenarioConfig(system="p2p", scenario="collect", n_nodes=3,
                               window_days=30, repetitions=1, seed=7)
    bundle = bench._dataset_bundle(cfg, bench.MatrixCaches())
    net = Network(build_topology(3, seed=7))
    system = P2PBaseline(
        net, bundle.partitions,
        gather_timeout_ms=bench._scenario_gather_timeout(bundle.manifest))
    system.sync()
    req = bench._build_request(cfg, bench.trailing_window(bundle.manifest, 30))
    resp, _ = system.client_collect(req, net.clock + 100.0)
    assert len(resp.payload) == bundle.manifest.row_count == 4320
    assert resp.partial is False
    assert resp.contributing_nodes == set(bundle.partitions)


def test_chained_queries_after_one_heartbeat_round_reach_every_neighbor():
    """A round that closes cancels its deadline, so the clock stops at the
    answer: two queries chained after one heartbeat round, each gathering
    with a 2,500 ms deadline, both find their neighbors fresh
    (`HEARTBEAT_TIMEOUT_MS` is 3,000 ms). Were the deadline left to run, the
    second query would start after it and find them stale."""
    net = Network(build_topology(3, seed=3))
    nodes = [SyncMeshNode(LocalStore(node_id), gather_timeout_ms=2500.0)
             for node_id in net.topology.node_ids()]
    for node in nodes:
        node.attach(net)
        node.broadcast_heartbeat(0.0)
    client = MeshClient()
    client.attach(net)
    net.run_until_quiescent()
    for request_id in ("c1", "c2"):
        req = QueryRequest(request_id=request_id, range=FULL, scope=Scope.MESH)
        resp, _ = run_query(net, client, "node-00", req, net.clock + 100.0)
        assert resp.partial is False
        assert resp.contributing_nodes == set(net.topology.node_ids())


@pytest.mark.parametrize("kind", ["node", "router"])
def test_a_second_start_of_one_request_id_replaces_the_first(rng, kind):
    """A second query with the id of a gather still open replaces that
    gather: the replies close the second one, the first one's deadline is
    dropped with it, and the run ends with one answer."""
    owner = Owner(kind, rng)
    t0 = owner.next_start()
    target = "node-00" if kind == "node" else "server"
    req = QueryRequest(request_id="dup", range=FULL, scope=Scope.MESH)
    owner.client.send_query(owner.net, target, req, t0)
    owner.client.send_query(owner.net, target, req, t0 + 1.0)
    for sender in TARGETS:
        owner.reply_at(t0 + 1000, sender, "dup")
    owner.net.run_until_quiescent()
    ((request_id, responders, timeouts, started, at),) = owner.finished
    assert (request_id, responders, timeouts) == ("dup", TARGETS, frozenset())
    assert owner.net.clock < t0 + TIMEOUT_MS
    assert len(owner.answers("dup")) == 1
