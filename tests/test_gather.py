"""The one scatter-gather, as the mesh node, the sharded router and the p2p
client use it: which replies count, and that the owner finishes once."""

import pytest

from conftest import make_reading
from syncmesh.baselines import P2PBaseline, ShardedBaseline
from syncmesh.model import CodecId, QueryRequest, QueryResponse, Scope, TimeRange
from syncmesh.netsim import Network, build_topology
from syncmesh.node import (
    MeshClient,
    SyncMeshNode,
    default_gather_timeout_ms,
)
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
    is built with `timeout_ms` as its gather deadline (None: the default)."""

    def __init__(self, kind, rng, timeout_ms=TIMEOUT_MS):
        self.kind = kind
        self.net = Network(build_topology(4, seed=3, with_server=kind == "router"))
        if kind == "node":
            nodes = [SyncMeshNode(LocalStore(f"node-{i:02d}"),
                                  gather_timeout_ms=timeout_ms)
                     for i in range(4)]
            for node in nodes:
                node.attach(self.net, self.net.topology)
                # Gathers start long after the one heartbeat round below.
                node.neighbors.timeout_ms = 1e9
            for node in nodes[1:3]:  # node-03 sends no heartbeat: skipped
                node.broadcast_heartbeat(0.0)
            self.net.run_until_quiescent()
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
                                      at - now))
                finish(responses, timeouts, at)
            start(net, req, targets, now, counted)

        self.gather.start = counted_start

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
    t0 = owner.net.clock + 100.0

    first, second, outsiders, late = ((r,) for r in owner.readings)

    # Every target replies: the gather completes before its deadline.
    owner.reply_at(t0 + 500, OUTSIDER, "g1", outsiders)
    owner.garbage_at(t0 + 500, "node-01", "g1")
    owner.reply_at(t0 + 1000, "node-01", "g1", first)
    owner.reply_at(t0 + 1500, "node-01", "g1", second)
    owner.reply_at(t0 + 2000, "node-02", "g1")
    resp = owner.query("g1", t0)
    assert owner.net.clock >= t0 + TIMEOUT_MS  # the deadline fired, and did nothing
    assert len(owner.finished) == 1
    request_id, responders, timeouts, elapsed = owner.finished[0]
    assert (request_id, responders, timeouts) == ("g1", TARGETS, frozenset())
    assert elapsed < TIMEOUT_MS
    assert resp.payload == first
    assert {"node-01", "node-02"} <= resp.contributing_nodes
    assert OUTSIDER not in resp.contributing_nodes

    # One target replies in time and one late: the deadline finishes it.
    t1 = owner.net.clock + 100.0
    owner.reply_at(t1 + 500, "node-02", "g2")
    owner.reply_at(t1 + TIMEOUT_MS + 500, "node-01", "g2", late)
    resp = owner.query("g2", t1)
    assert len(owner.finished) == 2
    request_id, responders, timeouts, elapsed = owner.finished[1]
    assert (request_id, responders, timeouts) == ("g2", ("node-02",),
                                                  frozenset({"node-01"}))
    assert elapsed == TIMEOUT_MS
    assert resp.payload == ()
    assert "node-01" not in resp.contributing_nodes

    if kind != "p2p":  # the p2p client answers itself, not over the network
        assert len(owner.answers("g1")) == len(owner.answers("g2")) == 1


@pytest.mark.parametrize("configured", [None, 1234.5])
@pytest.mark.parametrize("kind", ["node", "router", "p2p"])
def test_deadline_is_the_configured_one_or_the_topology_default(rng, kind,
                                                               configured):
    """With no deadline configured, a gather that gets no reply finishes at
    the default of the network's topology; with one configured, at that."""
    owner = Owner(kind, rng, timeout_ms=configured)
    default = default_gather_timeout_ms(owner.net.topology)
    assert default != 1234.5
    resp = owner.query("d1", owner.net.clock + 100.0)
    ((request_id, responders, timeouts, elapsed),) = owner.finished
    assert (request_id, responders, timeouts) == ("d1", (), frozenset(TARGETS))
    assert elapsed == (default if configured is None else configured)
    assert resp.payload == () and resp.partial is True
