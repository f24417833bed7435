"""The three comparison systems, built on the same store/wire/netsim substrate.

- central: every node ships its readings to one cloud store; clients query it.
- sharded: data stays on the nodes (shards); a router fans the query out and
  unifies the answer, aggregating shard-locally for transform queries.
- p2p: full replication, uncompressed, every data envelope echoed at equal
  size; clients pull from every peer and deduplicate locally.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter

from .model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    Scope,
    SensorReading,
    TimeRange,
    in_canonical_order,
    reading_key,
    time_slice,
)
from .netsim import CLIENT_ID, SERVER_ID, Network
from .node import QUERY_TIME_LIMIT_MS, Gather, MeshClient, run_query
from .payloads import (
    PayloadOps,
    all_valid,
    apply_transformer,
    evaluate_query,
    fingerprint,
    read_query,
)
from .store import LocalStore
from . import wire
from .wire import Envelope, MessageKind

INGEST_BATCH_SIZE = 500


class _Validity:
    """Whether every reading of a batch is valid, judged once per batch
    object; the owner holds each batch it judges, so no id is reused."""

    def __init__(self):
        self._by_id: dict[int, bool] = {}

    def __call__(self, batch: ReadingSet) -> bool:
        valid = self._by_id.get(id(batch))
        if valid is None:
            valid = self._by_id[id(batch)] = all_valid(batch)
        return valid


def _batches(readings: ReadingSet):
    """Each ingest batch with its offset in `readings`."""
    size = INGEST_BATCH_SIZE
    for offset in range(0, len(readings), size):
        yield offset, readings[offset : offset + size]


def _send_batches(net: Network, ops: PayloadOps, kind: MessageKind,
                  codec: CodecId, id_prefix: str, streams) -> float:
    """Send, at t=0, each (sender, batches, receivers) of `streams`: every
    (offset, batch) in order, each to every receiver, encoded once. Every
    body is built before the first send, in one `PayloadOps.batch_bodies`
    call, so that `fastlz.compress_all` can compress FASTLZ batches two at
    a time.
    Returns virtual ms to the last delivery, or 0.0 when nothing was
    sent."""
    sends = [(sender, offset, batch, receivers)
             for sender, batches, receivers in streams
             for offset, batch in batches]
    bodies = ops.batch_bodies([send[:3] for send in sends], codec)
    sent = False
    for (sender, offset, batch, receivers), body in zip(sends, bodies):
        request_id = f"{id_prefix}{offset // INGEST_BATCH_SIZE:06d}"
        for receiver in receivers:
            net.send(Envelope(kind=kind, sender=sender, receiver=receiver,
                              body=body, codec=codec, request_id=request_id,
                              payload=batch), 0.0)
            sent = True
    return net.run_until_quiescent() if sent else 0.0


class CentralBaseline:
    """Central cloud store: ingest everything, answer queries server-side.

    A node ships only its own readings: the server drops an INGEST batch
    holding a reading of another node, as it drops a body that does not
    decode. It notes each other batch in `delivered`, in arrival order,
    with the envelope that carried it. So no two senders write one key,
    and `server_store`, the first copy of each key, depends only on each
    sender's stream of batches in its own order. The store is built when
    first read and dropped by the next batch that arrives. Nothing writes
    a store once it is built, so one set from outside (a
    `bench._PhaseReplay` end state of the same streams) is read as it was
    kept until the next batch arrives."""

    def __init__(self, net: Network, partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None = None):
        self.net = net
        self.partitions = partitions
        self.ops = ops or PayloadOps()
        self.delivered: list[tuple[Envelope, ReadingSet]] = []
        self._store: LocalStore | None = None
        self.client = MeshClient()
        self.client.attach(net)
        net.register(SERVER_ID, self._on_envelope)

    @property
    def server_store(self) -> LocalStore:
        """Every valid delivered batch loaded in arrival order, so the first
        copy of a reading key stays; a batch with an invalid reading loads
        none."""
        if self._store is None:
            self._store = LocalStore(SERVER_ID)
            for _, batch in self.delivered:
                if all_valid(batch):
                    self._store.load_many(batch)
        return self._store

    @server_store.setter
    def server_store(self, store: LocalStore) -> None:
        self._store = store

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.INGEST:
            try:
                batch = wire.read_payload(env)
            except wire.MalformedBody:
                return  # dropped: one bad envelope must not end the run
            if any(r.node_id != env.sender for r in batch):
                return  # dropped: a node ships only its own readings
            self.delivered.append((env, batch))
            self._store = None
            return
        req = read_query(env)
        if req is None:
            return
        resp = QueryResponse(
            request_id=req.request_id,
            payload=self.ops.answer(
                (SERVER_ID,), req,
                lambda: evaluate_query(self.server_store, req)),
            contributing_nodes=frozenset({SERVER_ID}),
            partial=False, codec=CodecId.FASTLZ)
        net.send(
            self.ops.response_envelope(req, resp, SERVER_ID, env.sender), now)

    def ingest(self) -> float:
        """Stream every node's readings to the server; returns virtual ms from
        first send to last delivery."""
        return _send_batches(
            self.net, self.ops, MessageKind.INGEST, CodecId.FASTLZ, "i",
            ((node_id, _batches(self.partitions[node_id]), (SERVER_ID,))
             for node_id in sorted(self.partitions)))

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return run_query(self.net, self.client, SERVER_ID, req, at)


class ShardedBaseline:
    """Shard-per-node store behind a unifying router at the server endpoint.

    The modeled shards work at the same time, so the router builds every
    shard's answer and RESPONSE body as it routes a query, before the query
    is sent, in one `PayloadOps.response_bodies` call: `fastlz.compress_all`
    then compresses the FASTLZ bodies whole, two at a time. Each shard, when
    its query arrives, finds its body in the memo. Without a memo nothing
    is built ahead, and each shard builds its own body once. A body built
    for a shard that is down is never sent."""

    def __init__(self, net: Network, stores: dict[str, LocalStore],
                 ops: PayloadOps | None = None,
                 gather_timeout_ms: float | None = None):
        self.net = net
        self.stores = stores
        self.ops = ops or PayloadOps()
        self.client = MeshClient()
        self.client.attach(net)
        self.gather = Gather(SERVER_ID, gather_timeout_ms)
        net.register(SERVER_ID, self._on_router_envelope)
        for node_id in sorted(stores):
            net.register(node_id, self._on_shard_envelope)

    # -- shards --------------------------------------------------------------

    def _on_shard_envelope(self, net: Network, env: Envelope, now: float) -> None:
        req = read_query(env)
        if req is None:
            return
        net.send(self.ops.response_envelope(
            req, self._reply(env.receiver, req), env.receiver, env.sender), now)

    def _reply(self, shard: str, req: QueryRequest) -> QueryResponse:
        """The shard's answer to req, over its own store alone."""
        return QueryResponse(
            request_id=req.request_id,
            payload=self.ops.answer(
                (shard,), req, lambda: evaluate_query(self.stores[shard], req)),
            contributing_nodes=frozenset({shard}),
            partial=False, codec=CodecId.FASTLZ)

    # -- router --------------------------------------------------------------

    def _on_router_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.RESPONSE:
            self.gather.on_response(env, now)
            return
        req = read_query(env)
        if req is not None:
            self._route(req, env.sender, now)

    def _route(self, req: QueryRequest, requester: str, now: float) -> None:
        def finish(responses, timeouts, at):
            if responses:
                merged = self.ops.merge(
                    SERVER_ID, req,
                    {s: r.payload for s, r in responses.items()})
            elif req.transformer is not None:
                merged = apply_transformer(req.transformer, ())
            else:
                merged = ()
            resp = QueryResponse(
                request_id=req.request_id, payload=merged,
                contributing_nodes=frozenset().union(
                    *(r.contributing_nodes for r in responses.values())),
                partial=bool(timeouts), codec=CodecId.FASTLZ)
            self.net.send(
                self.ops.response_envelope(req, resp, SERVER_ID, requester), at)

        shards = sorted(self.stores)
        local = replace(req, scope=Scope.LOCAL)  # what each shard is sent
        if self.ops.cache is not None:
            self.ops.response_bodies(local, [
                (shard, frozenset({shard}), False, CodecId.FASTLZ,
                 lambda shard=shard: self._reply(shard, local))
                for shard in shards])
        self.gather.start(self.net, local, shards, now, finish)

    def ingest(self) -> float:
        # Data already lives on the shards.
        return 0.0

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return run_query(self.net, self.client, SERVER_ID, req, at)


class P2PReplica:
    """Replicated key-value view with last-write-wins conflict resolution.

    A write's version is (timestamp, writer) and its timestamp is part of the
    key, so two writes to one key differ only in writer: the greater writer
    wins and an equal one (a retransmit) keeps the first write. The replica
    keeps one key -> reading and one key -> writer dict, and caches its
    readings in canonical order until the next apply changes them, and each
    range's slice of them until the next apply: every peer that holds this
    replica answers one range with one tuple.
    """

    def __init__(self):
        self._readings: dict[tuple, SensorReading] = {}
        self._writers: dict[tuple, str] = {}
        self._ordered: ReadingSet | None = None
        self._slices: dict[TimeRange, ReadingSet] = {}

    def __len__(self) -> int:
        return len(self._readings)

    def apply_batch(self, readings: ReadingSet, writer: str) -> None:
        """LWW-apply a gossip batch; version is (reading timestamp, writer)."""
        self._slices = {}
        by_key = self._readings
        writers = self._writers
        for key, r in zip(map(reading_key, readings), readings):
            current = writers.get(key)
            if current is None or writer > current:
                by_key[key] = r
                writers[key] = writer
                self._ordered = None

    def writer(self, key: tuple) -> str | None:
        """The writer whose write to `key` (node, sensor, timestamp) won."""
        return self._writers.get(key)

    def readings(self) -> ReadingSet:
        if self._ordered is None:
            self._ordered = in_canonical_order(self._readings.values())
        return self._ordered

    def query_range(self, time_range: TimeRange) -> ReadingSet:
        sliced = self._slices.get(time_range)
        if sliced is None:
            sliced = self._slices[time_range] = time_slice(
                self.readings(), time_range)
        return sliced

    def digest(self) -> str:
        return fingerprint(wire.encode_readings(self.readings()))


class P2PBaseline:
    """Eventually-consistent full replication over uncompressed gossip.

    Each peer notes the GOSSIP batches it receives in `delivered`, in
    arrival order, with the envelope that carried it. `replicas` is the end
    state of `sync`'s own partitions and those batches: built from them
    when first read and dropped by the next batch that arrives (or by the
    first `sync`), so the read after it builds again. Nothing writes a
    replica once it is built, so replicas set from outside (a
    `bench._PhaseReplay` end state of the same streams) are read as they
    were kept until the next batch arrives. A batch with an invalid reading
    is no write, on every peer that receives it."""

    def __init__(self, net: Network, partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None = None,
                 gather_timeout_ms: float | None = None):
        self.net = net
        self.partitions = partitions
        self.ops = ops or PayloadOps()
        self.delivered: list[tuple[Envelope, ReadingSet]] = []
        # Each peer's own partition in the (offset, batch) pairs `sync`
        # gossips; None until it runs.
        self._seeds: dict[str, list[tuple[int, ReadingSet]]] | None = None
        self._valid = _Validity()  # judges batches held in delivered or _seeds
        self._replicas: dict[str, P2PReplica] | None = None
        for node_id in sorted(partitions):
            net.register(node_id, self._on_envelope)
        # The client pulls from every peer and merges on its own side.
        self.gather = Gather(CLIENT_ID, gather_timeout_ms)
        self.received: dict[str, tuple[QueryResponse, float]] = {}
        net.register(CLIENT_ID, self._on_client_envelope)

    @property
    def replicas(self) -> dict[str, P2PReplica]:
        """Each peer's replica: its own partition once `sync` has run, then
        each valid batch it received, LWW-applied in arrival order.

        The greater writer wins a key and one writer's first write to it
        stays, so a replica depends only on each writer's writes in that
        writer's order. Peers whose (writer, batch object) writes are the
        same after a stable sort by writer hold one replica, built once."""
        if self._replicas is None:
            writes = {node_id: [] for node_id in sorted(self.partitions)}
            arrivals = [(origin, origin, batch)
                        for origin, batches in (self._seeds or {}).items()
                        for _, batch in batches]
            arrivals += [(env.receiver, env.sender, batch)
                         for env, batch in self.delivered]
            for peer, writer, batch in arrivals:
                if self._valid(batch):
                    writes[peer].append((writer, batch))
            replicas: dict[str, P2PReplica] = {}
            built: dict[tuple, P2PReplica] = {}
            for node_id, peer_writes in writes.items():
                peer_writes.sort(key=itemgetter(0))
                group = tuple((writer, id(batch)) for writer, batch in peer_writes)
                replica = built.get(group)
                if replica is None:
                    replica = built[group] = P2PReplica()
                    for writer, batch in peer_writes:
                        replica.apply_batch(batch, writer)
                replicas[node_id] = replica
            self._replicas = replicas
        return self._replicas

    @replicas.setter
    def replicas(self, replicas: dict[str, P2PReplica]) -> None:
        self._replicas = replicas

    def _on_client_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.RESPONSE:
            self.gather.on_response(env, now)

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        me = env.receiver
        if env.kind is MessageKind.GOSSIP:
            try:
                batch = wire.read_payload(env)
            except wire.MalformedBody:
                return  # dropped: one bad envelope must not end the run
            self.delivered.append((env, batch))
            self._replicas = None
            net.send(
                Envelope(kind=MessageKind.GOSSIP_ECHO, sender=me,
                         receiver=env.sender, body=env.body,
                         request_id=env.request_id),
                now)
            return
        req = read_query(env)
        if req is None:
            return  # GOSSIP_ECHO, an ack with no new data, or a query to drop
        resp = QueryResponse(
            request_id=req.request_id,
            payload=self.replicas[me].query_range(req.range),
            contributing_nodes=frozenset({me}), partial=False,
            codec=CodecId.NONE)
        net.send(
            self.ops.response_envelope(req, resp, me, env.sender), now)

    def sync(self) -> float:
        """Push every reading, uncompressed, from its origin to every peer."""
        if self._seeds is None:
            self._seeds = {origin: list(_batches(self.partitions[origin]))
                           for origin in sorted(self.partitions)}
            self._replicas = None
        return _send_batches(
            self.net, self.ops, MessageKind.GOSSIP, CodecId.NONE, "g",
            ((origin, batches, [p for p in self._seeds if p != origin])
             for origin, batches in self._seeds.items()))

    # Alias so all systems share the ingest/query surface.
    def ingest(self) -> float:
        return self.sync()

    def client_collect(self, req: QueryRequest,
                       at: float) -> tuple[QueryResponse, float]:
        """Pull the range from every peer without the transformer, then
        deduplicate and apply the transformer at the client."""
        def finish(responses, timeouts, done_at):
            payload = self.ops.merge(
                self.gather.sender, req,
                {s: r.payload for s, r in responses.items()}) if responses else ()
            if req.transformer is not None:
                merged = payload
                payload = self.ops.answer(
                    tuple(responses), req,
                    lambda: apply_transformer(req.transformer, merged))
            resp = QueryResponse(
                request_id=req.request_id, payload=payload,
                contributing_nodes=frozenset(responses),
                partial=bool(timeouts) and not responses,
                codec=CodecId.NONE)
            self.received[req.request_id] = (resp, done_at)

        self.gather.start(self.net, replace(req, transformer=None),
                          sorted(self.partitions), at, finish)
        self.net.run_until_quiescent(QUERY_TIME_LIMIT_MS)
        if req.request_id not in self.received:
            raise RuntimeError(f"no p2p result for {req.request_id}")
        resp, done_at = self.received[req.request_id]
        return resp, done_at - at

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return self.client_collect(req, at)
