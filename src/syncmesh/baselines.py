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
)
from .netsim import CLIENT_ID, SERVER_ID, Network
from .node import QUERY_TIME_LIMIT_MS, Gather, MeshClient, run_query
from .payloads import (
    PayloadOps,
    apply_transformer,
    evaluate_query,
    read_query,
)
from .store import LocalStore
from . import wire
from .wire import Envelope, MessageKind

INGEST_BATCH_SIZE = 500


def _admitted(writer: str, batch: ReadingSet) -> bool:
    """Whether a store loads `batch` from `writer`: a node ships only its own
    readings. So every key has one writer, and the first copy of it that a
    store loads stays. A batch must be valid too, which
    `LocalStore.apply_batch` checks."""
    return all(r.node_id == writer for r in batch)


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


class _Shipping:
    """The shipped data of a system that ships readings away from the node
    that made them: central, whose one receiver is the server, and p2p,
    whose receivers are the peers. Each receiver notes every batch that
    decodes in `delivered`, in arrival order, with the envelope that
    carried it, and drops a body that does not (`_receive`). The end
    state, `stores`, is built from them when first read and dropped by the
    next batch that arrives. Nothing writes a store once it is built, so
    stores set from outside (a `bench._PhaseReplay` end state of the same
    streams) are read as they were kept until the next batch arrives."""

    store_type = LocalStore  # each receiver's store

    def __init__(self, net: Network, partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None, receivers):
        self.net = net
        self.partitions = partitions
        self.ops = ops or PayloadOps()
        self.delivered: list[tuple[Envelope, ReadingSet]] = []
        self.receivers = tuple(receivers)
        # Each receiver's own (offset, batch) pairs, loaded before what it
        # receives; None until a p2p `sync` gossips them.
        self.seeds: dict[str, list[tuple[int, ReadingSet]]] | None = None
        self._stores: dict[str, LocalStore] | None = None

    @property
    def stores(self) -> dict[str, LocalStore]:
        """Each receiver's store: its own batches (`seeds`; central's server
        has none), then each batch it received, in arrival order, stably
        sorted by writer, each loaded if `_admitted`. A batch holding a
        reading of another node, or an invalid one, loads nothing, so every
        key has one writer, its first copy stays, and the sort loads the
        same readings. Receivers whose (writer, batch object) lists are the
        same share one store, built once, which judges each batch once."""
        if self._stores is None:
            seeds = self.seeds or {}
            arrivals = {receiver: [(receiver, batch)
                                   for _, batch in seeds.get(receiver, ())]
                        for receiver in self.receivers}
            for env, batch in self.delivered:
                arrivals[env.receiver].append((env.sender, batch))
            stores: dict[str, LocalStore] = {}
            built: dict[tuple, LocalStore] = {}
            for receiver, writes in arrivals.items():
                # A peer's own batches come first in its arrivals; sorted,
                # they sit where every other peer holds them.
                writes.sort(key=itemgetter(0))
                group = tuple((writer, id(batch)) for writer, batch in writes)
                store = built.get(group)
                if store is None:
                    store = built[group] = self.store_type(receiver)
                    for writer, batch in writes:
                        if _admitted(writer, batch):
                            store.apply_batch(batch)
                stores[receiver] = store
            self._stores = stores
        return self._stores

    @stores.setter
    def stores(self, stores: dict[str, LocalStore]) -> None:
        self._stores = stores

    def _receive(self, env: Envelope) -> bool:
        """Note the batch `env` carries and drop the built stores; False,
        noting nothing, when its body does not decode."""
        try:
            batch = wire.read_payload(env)
        except wire.MalformedBody:
            return False  # dropped: one bad envelope must not end the run
        self.delivered.append((env, batch))
        self._stores = None
        return True


class CentralBaseline(_Shipping):
    """Central cloud store: ingest everything, answer queries server-side.

    The p2p case with one receiver, the server, and no batches of its own:
    `server_store` is `stores[SERVER_ID]`, a plain `LocalStore`."""

    def __init__(self, net: Network, partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None = None):
        super().__init__(net, partitions, ops, (SERVER_ID,))
        self.client = MeshClient()
        self.client.attach(net)
        net.register(SERVER_ID, self._on_envelope)

    @property
    def server_store(self) -> LocalStore:
        return self.stores[SERVER_ID]

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.INGEST:
            self._receive(env)
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

    The modeled shards work at the same time, so as it routes a query the
    router builds every shard's answer and RESPONSE body before the query
    is sent, by `PayloadOps.build_ahead`, the build-ahead rule the mesh
    coordinator's fan-out follows too: `fastlz.compress_all` then
    compresses the FASTLZ bodies whole, two at a time. Each shard, when its
    query arrives, finds its body in the memo. Without a memo nothing is
    built ahead, and each shard builds its own body once. A body built for
    a shard that is down is never sent."""

    def __init__(self, net: Network, stores: dict[str, LocalStore],
                 ops: PayloadOps | None = None, *,
                 gather_timeout_ms: float):
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
        shard = env.receiver
        resp = self.ops.local_response(shard, self.stores[shard], req,
                                       CodecId.FASTLZ)
        net.send(self.ops.response_envelope(req, resp, shard, env.sender), now)

    # -- router --------------------------------------------------------------

    def _on_router_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.RESPONSE:
            self.gather.on_response(net, env, now)
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
        self.ops.build_ahead(local, shards, self.stores, CodecId.FASTLZ)
        self.gather.start(self.net, local, shards, now, finish)

    def ingest(self) -> float:
        # Data already lives on the shards.
        return 0.0

    def query(self, req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
        return run_query(self.net, self.client, SERVER_ID, req, at)


class P2PReplica(LocalStore):
    """A peer's replica: a `LocalStore` that several peers may share, named
    for the first of them. It keeps each range's slice until the next
    write, so every peer that holds it answers one range with one tuple."""

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self._slices: dict[TimeRange, ReadingSet] = {}

    def insert(self, reading: SensorReading) -> bool:
        self._slices = {}
        return super().insert(reading)

    def load_many(self, readings) -> int:
        self._slices = {}
        return super().load_many(readings)

    def query_range(self, time_range: TimeRange) -> ReadingSet:
        sliced = self._slices.get(time_range)
        if sliced is None:
            sliced = self._slices[time_range] = self.query(time_range)
        return sliced


class P2PBaseline(_Shipping):
    """Eventually-consistent full replication over uncompressed gossip.

    Every peer is a receiver, with its own partition as its own batches
    once `sync` has run, and echoes every GOSSIP batch that decodes. Its
    store is a `P2PReplica`; peers that got the same batches share one."""

    store_type = P2PReplica

    def __init__(self, net: Network, partitions: dict[str, ReadingSet],
                 ops: PayloadOps | None = None, *,
                 gather_timeout_ms: float):
        super().__init__(net, partitions, ops, sorted(partitions))
        for node_id in self.receivers:
            net.register(node_id, self._on_envelope)
        # The client pulls from every peer and merges on its own side.
        self.gather = Gather(CLIENT_ID, gather_timeout_ms)
        self.received: dict[str, tuple[QueryResponse, float]] = {}
        net.register(CLIENT_ID, self._on_client_envelope)

    def _on_client_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.RESPONSE:
            self.gather.on_response(net, env, now)

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        me = env.receiver
        if env.kind is MessageKind.GOSSIP:
            if self._receive(env):
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
            payload=self.stores[me].query_range(req.range),
            contributing_nodes=frozenset({me}), partial=False,
            codec=CodecId.NONE)
        net.send(
            self.ops.response_envelope(req, resp, me, env.sender), now)

    def sync(self) -> float:
        """Push every reading, uncompressed, from its origin to every peer."""
        if self.seeds is None:
            self.seeds = {origin: list(_batches(self.partitions[origin]))
                          for origin in self.receivers}
            self._stores = None
        return _send_batches(
            self.net, self.ops, MessageKind.GOSSIP, CodecId.NONE, "g",
            ((origin, batches, [p for p in self.seeds if p != origin])
             for origin, batches in self.seeds.items()))

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
