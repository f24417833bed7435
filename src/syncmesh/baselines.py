"""The three comparison systems, built on the same store/wire/netsim substrate.

- central: every node ships its readings to one cloud store; clients query it.
- sharded: data stays on the nodes (shards); a router fans the query out and
  unifies the answer, aggregating shard-locally for transform queries.
- p2p: full replication, uncompressed, every data envelope echoed at equal
  size; clients pull from every peer and deduplicate locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    Scope,
    SensorReading,
    TimeRange,
)
from .netsim import Network, Topology
from .node import MeshClient, run_query
from .payloads import PayloadOps, apply_transformer, evaluate_query, request_token
from .store import LocalStore
from . import wire
from .wire import Envelope, MessageKind

INGEST_BATCH_SIZE = 500


def _batches(readings: ReadingSet, size: int):
    for i in range(0, len(readings), size):
        yield i // size, readings[i : i + size]


class CentralBaseline:
    """Central cloud store: ingest everything, answer queries server-side."""

    def __init__(self, net: Network, topology: Topology,
                 partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None = None,
                 server_id: str = "server", client_id: str = "client",
                 batch_size: int = INGEST_BATCH_SIZE):
        self.net = net
        self.partitions = partitions
        self.ops = ops or PayloadOps()
        self.server_id = server_id
        self.batch_size = batch_size
        self.server_store = LocalStore(server_id)
        self.client = MeshClient(client_id)
        self.client.attach(net)
        net.register(server_id, self._on_envelope)

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind not in (MessageKind.INGEST, MessageKind.QUERY):
            return
        try:
            payload = wire.read_payload(env)
        except wire.MalformedBody:
            return  # dropped: one bad envelope must not end the run
        if env.kind is MessageKind.INGEST:
            self.server_store.load_many(payload)
            return
        req = payload
        resp = QueryResponse(
            request_id=req.request_id,
            payload=evaluate_query(self.server_store, req),
            contributing_nodes=frozenset({self.server_id}),
            partial=False, codec=CodecId.FASTLZ)
        net.send(
            self.ops.response_envelope(
                resp, self.server_id, env.sender, req.projection,
                source=f"central|{request_token(req)}"),
            now)

    def ingest(self, at: float = 0.0) -> float:
        """Stream every node's readings to the server; returns virtual ms from
        first send to last delivery."""
        sent = False
        for node_id in sorted(self.partitions):
            for i, batch in _batches(self.partitions[node_id], self.batch_size):
                body = self.ops.readings_bytes(
                    batch, CodecId.FASTLZ, source=f"ingest|{node_id}|{i}")
                self.net.send(
                    Envelope(kind=MessageKind.INGEST, sender=node_id,
                             receiver=self.server_id, body=body,
                             codec=CodecId.FASTLZ, request_id=f"i{i:06d}",
                             payload_tag="readings", payload=batch),
                    at)
                sent = True
        if not sent:
            return 0.0
        return self.net.run_until_quiescent() - at

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return run_query(self.net, self.client, self.server_id, req, at)


@dataclass
class _RouterGather:
    request: QueryRequest
    requester: str
    expected: frozenset[str]
    responses: dict[str, QueryResponse] = field(default_factory=dict)
    timeouts: frozenset[str] = frozenset()
    done: bool = False


class ShardedBaseline:
    """Shard-per-node store behind a unifying router at the server endpoint."""

    def __init__(self, net: Network, topology: Topology,
                 stores: dict[str, LocalStore],
                 ops: PayloadOps | None = None,
                 gather_timeout_ms: float | None = None,
                 server_id: str = "server", client_id: str = "client"):
        self.net = net
        self.stores = stores
        self.ops = ops or PayloadOps()
        self.server_id = server_id
        self.gather_timeout_ms = (
            gather_timeout_ms if gather_timeout_ms is not None
            else 2.0 * topology.max_latency_ms() + 100.0)
        self.client = MeshClient(client_id)
        self.client.attach(net)
        self._pending: dict[str, _RouterGather] = {}
        net.register(server_id, self._on_router_envelope)
        for node_id in sorted(stores):
            net.register(node_id, self._on_shard_envelope)

    # -- shards --------------------------------------------------------------

    def _on_shard_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is not MessageKind.QUERY:
            return
        try:
            req = wire.read_payload(env)
        except wire.MalformedBody:
            return  # dropped: one bad envelope must not end the run
        resp = QueryResponse(
            request_id=req.request_id,
            payload=evaluate_query(self.stores[env.receiver], req),
            contributing_nodes=frozenset({env.receiver}),
            partial=False, codec=CodecId.FASTLZ)
        net.send(
            self.ops.response_envelope(
                resp, env.receiver, env.sender, req.projection,
                source=f"shard|{env.receiver}|{request_token(req)}"),
            now)

    # -- router --------------------------------------------------------------

    def _on_router_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.QUERY:
            try:
                req = wire.read_payload(env)
            except wire.MalformedBody:
                return  # dropped: one bad envelope must not end the run
            self._route(req, env.sender, now)
        elif env.kind is MessageKind.RESPONSE:
            gather = self._pending.get(env.request_id)
            if gather is None or gather.done or env.sender not in gather.expected:
                return
            if env.sender in gather.responses:
                return
            try:
                gather.responses[env.sender] = wire.read_payload(env)
            except wire.MalformedBody:
                return  # an undecodable reply counts as no reply
            if len(gather.responses) == len(gather.expected):
                self._finish(gather, now)

    def _route(self, req: QueryRequest, requester: str, now: float) -> None:
        shards = sorted(self.stores)
        gather = _RouterGather(request=req, requester=requester,
                               expected=frozenset(shards))
        self._pending[req.request_id] = gather
        forwarded = QueryRequest(
            request_id=req.request_id, range=req.range,
            projection=req.projection, transformer=req.transformer,
            scope=Scope.LOCAL)
        body = wire.encode_request(forwarded)
        for shard in shards:
            self.net.send(
                Envelope(kind=MessageKind.QUERY, sender=self.server_id,
                         receiver=shard, body=body, request_id=req.request_id,
                         payload_tag="query", payload=forwarded),
                now)

        def fire(_net, at):
            pending = self._pending.get(req.request_id)
            if pending is gather and not gather.done:
                gather.timeouts = gather.expected - frozenset(gather.responses)
                self._finish(gather, at)

        self.net.call_at(now + self.gather_timeout_ms, fire)

    def _finish(self, gather: _RouterGather, now: float) -> None:
        gather.done = True
        self._pending.pop(gather.request.request_id, None)
        responders = sorted(gather.responses)
        token = request_token(gather.request)
        parts = [gather.responses[s].payload for s in responders]
        if parts:
            merged = self.ops.merge(parts, merge_key=(token, "router", tuple(responders)))
        elif gather.request.transformer is not None:
            merged = apply_transformer(gather.request.transformer, ())
        else:
            merged = ()
        contributing = frozenset().union(
            *(gather.responses[s].contributing_nodes for s in responders)) \
            if responders else frozenset()
        resp = QueryResponse(
            request_id=gather.request.request_id, payload=merged,
            contributing_nodes=contributing,
            partial=bool(gather.timeouts), codec=CodecId.FASTLZ)
        self.net.send(
            self.ops.response_envelope(
                resp, self.server_id, gather.requester, gather.request.projection,
                source=f"router|{token}|{','.join(responders)}"),
            now)

    def ingest(self, at: float = 0.0) -> float:
        # Data already lives on the shards.
        return 0.0

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return run_query(self.net, self.client, self.server_id, req, at)


class P2PReplica:
    """Replicated key-value view with last-write-wins conflict resolution."""

    def __init__(self):
        self._entries: dict[tuple, tuple[tuple, SensorReading]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def apply(self, reading: SensorReading, version: tuple) -> bool:
        """Upsert under LWW; greater (timestamp, writer) version wins."""
        key = (reading.node_id, reading.sensor_id, reading.timestamp)
        current = self._entries.get(key)
        if current is not None and version <= current[0]:
            return False
        self._entries[key] = (version, reading)
        return True

    def apply_batch(self, readings: ReadingSet, writer: str) -> None:
        """LWW-apply a gossip batch; version is (reading timestamp, writer)."""
        entries = self._entries
        for r in readings:
            key = (r.node_id, r.sensor_id, r.timestamp)
            version = (r.timestamp, writer)
            current = entries.get(key)
            if current is None or version > current[0]:
                entries[key] = (version, r)

    def readings(self) -> ReadingSet:
        return tuple(sorted((r for _, r in self._entries.values()),
                            key=lambda r: r.sort_key))

    def query_range(self, time_range: TimeRange) -> ReadingSet:
        return tuple(r for r in self.readings() if time_range.contains(r.timestamp))

    def digest(self) -> str:
        from .payloads import fingerprint

        return fingerprint(wire.encode_readings(self.readings()))


class _P2PCollectClient:
    """Queries every peer, deduplicates client-side, optionally aggregates."""

    def __init__(self, client_id: str, peers, ops: PayloadOps,
                 gather_timeout_ms: float):
        self.client_id = client_id
        self.peers = tuple(sorted(peers))
        self.ops = ops
        self.gather_timeout_ms = gather_timeout_ms
        self.received: dict[str, tuple[QueryResponse, float]] = {}
        self._pending: dict[str, _RouterGather] = {}

    def attach(self, net: Network) -> None:
        net.register(self.client_id, self._on_envelope)

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is not MessageKind.RESPONSE:
            return
        gather = self._pending.get(env.request_id)
        if gather is None or gather.done or env.sender not in gather.expected:
            return
        if env.sender in gather.responses:
            return
        try:
            gather.responses[env.sender] = wire.read_payload(env)
        except wire.MalformedBody:
            return  # an undecodable reply counts as no reply
        if len(gather.responses) == len(gather.expected):
            self._finish(gather, now)

    def send_query(self, net: Network, req: QueryRequest, at: float) -> None:
        gather = _RouterGather(request=req, requester=self.client_id,
                               expected=frozenset(self.peers))
        self._pending[req.request_id] = gather
        stripped = QueryRequest(
            request_id=req.request_id, range=req.range,
            projection=req.projection, transformer=None, scope=Scope.LOCAL)
        body = wire.encode_request(stripped)
        for peer in self.peers:
            net.send(
                Envelope(kind=MessageKind.QUERY, sender=self.client_id,
                         receiver=peer, body=body, request_id=req.request_id,
                         payload_tag="query", payload=stripped),
                at)

        def fire(_net, at_):
            pending = self._pending.get(req.request_id)
            if pending is gather and not gather.done:
                gather.timeouts = gather.expected - frozenset(gather.responses)
                self._finish(gather, at_)

        net.call_at(at + self.gather_timeout_ms, fire)

    def _finish(self, gather: _RouterGather, now: float) -> None:
        gather.done = True
        self._pending.pop(gather.request.request_id, None)
        responders = sorted(gather.responses)
        token = request_token(gather.request)
        parts = [gather.responses[p].payload for p in responders]
        merged = self.ops.merge(
            parts, merge_key=(token, "p2p-union", tuple(responders))) if parts else ()
        if gather.request.transformer is not None:
            spec = gather.request.transformer
            merged = self.ops.memo(
                ("p2p-transform", token, tuple(responders)),
                lambda: apply_transformer(spec, merged))
        resp = QueryResponse(
            request_id=gather.request.request_id, payload=merged,
            contributing_nodes=frozenset(responders),
            partial=not responders and bool(self.peers),
            codec=CodecId.NONE)
        self.received[gather.request.request_id] = (resp, now)


class P2PBaseline:
    """Eventually-consistent full replication over uncompressed gossip."""

    def __init__(self, net: Network, topology: Topology,
                 partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None = None,
                 gather_timeout_ms: float | None = None,
                 client_id: str = "client",
                 batch_size: int = INGEST_BATCH_SIZE):
        self.net = net
        self.partitions = partitions
        self.ops = ops or PayloadOps()
        self.batch_size = batch_size
        self.gather_timeout_ms = (
            gather_timeout_ms if gather_timeout_ms is not None
            else 2.0 * topology.max_latency_ms() + 100.0)
        self.replicas: dict[str, P2PReplica] = {
            node_id: P2PReplica() for node_id in sorted(partitions)}
        for node_id in sorted(partitions):
            net.register(node_id, self._on_envelope)
        self.client = _P2PCollectClient(client_id, self.replicas, self.ops,
                                        self.gather_timeout_ms)
        self.client.attach(net)

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        # GOSSIP_ECHO is a protocol ack and carries no new data.
        if env.kind not in (MessageKind.GOSSIP, MessageKind.QUERY):
            return
        me = env.receiver
        try:
            payload = wire.read_payload(env)
        except wire.MalformedBody:
            return  # dropped: one bad envelope must not end the run
        if env.kind is MessageKind.GOSSIP:
            self.replicas[me].apply_batch(payload, env.sender)
            net.send(
                Envelope(kind=MessageKind.GOSSIP_ECHO, sender=me,
                         receiver=env.sender, body=env.body,
                         request_id=env.request_id, payload_tag="echo"),
                now)
            return
        req = payload
        token = request_token(req)
        resp = QueryResponse(
            request_id=req.request_id,
            payload=self.ops.memo(("p2p-peer-view", me, token),
                                  lambda: self.replicas[me].query_range(req.range)),
            contributing_nodes=frozenset({me}), partial=False,
            codec=CodecId.NONE)
        net.send(
            self.ops.response_envelope(resp, me, env.sender, req.projection,
                                       source=f"p2p-peer|{me}|{token}"),
            now)

    def sync(self, at: float = 0.0) -> float:
        """Push every reading, uncompressed, from its origin to every peer."""
        for origin in sorted(self.partitions):
            self.replicas[origin].apply_batch(self.partitions[origin], origin)
        sent = False
        for origin in sorted(self.partitions):
            peers = [p for p in sorted(self.replicas) if p != origin]
            for i, batch in _batches(self.partitions[origin], self.batch_size):
                body = self.ops.readings_bytes(
                    batch, CodecId.NONE, source=f"gossip|{origin}|{i}")
                for peer in peers:
                    self.net.send(
                        Envelope(kind=MessageKind.GOSSIP, sender=origin,
                                 receiver=peer, body=body,
                                 request_id=f"g{i:06d}", payload_tag="readings",
                                 payload=batch),
                        at)
                    sent = True
        if not sent:
            return 0.0
        return self.net.run_until_quiescent() - at

    # Alias so all systems share the ingest/query surface.
    def ingest(self, at: float = 0.0) -> float:
        return self.sync(at)

    def client_collect(self, req: QueryRequest, at: float,
                       limit: float = 1e12) -> tuple[QueryResponse, float]:
        self.client.send_query(self.net, req, at)
        self.net.run_until_quiescent(limit)
        if req.request_id not in self.client.received:
            raise RuntimeError(f"no p2p result for {req.request_id}")
        resp, done_at = self.client.received[req.request_id]
        return resp, done_at - at

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return self.client_collect(req, at)
