"""The mesh node: coordinator entry point, scatter-gather over available
neighbors, transformer dispatch with scale-to-zero accounting, change-event
subscriptions, and heartbeat-driven neighbor availability tracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    Scope,
    Summary,
    TransformerSpec,
    validate_request,
)
from .netsim import EndpointKind, Network, Topology
from .payloads import (
    BUILTIN_TRANSFORMERS,
    PayloadOps,
    TransformerUnknown,
    request_token,
)
from .store import ChangeEvent, LocalStore
from . import wire
from .wire import Envelope, MessageKind


class UnknownNode(Exception):
    """Heartbeat or request from an id that is not a topology member."""


DEFAULT_HEARTBEAT_INTERVAL_MS = 1000.0
DEFAULT_HEARTBEAT_TIMEOUT_MS = 3000.0


@dataclass(frozen=True)
class NodeConfig:
    """Per-node runtime settings; serialized into scenario config files."""

    node_id: str
    heartbeat_interval_ms: float = DEFAULT_HEARTBEAT_INTERVAL_MS
    heartbeat_timeout_ms: float = DEFAULT_HEARTBEAT_TIMEOUT_MS
    gather_timeout_ms: float | None = None  # None: 2 * max one-way latency + 100
    registered_transformers: tuple[str, ...] = tuple(sorted(BUILTIN_TRANSFORMERS))

    def to_json_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "heartbeat_interval_ms": self.heartbeat_interval_ms,
            "heartbeat_timeout_ms": self.heartbeat_timeout_ms,
            "gather_timeout_ms": self.gather_timeout_ms,
            "registered_transformers": list(self.registered_transformers),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NodeConfig":
        return cls(
            node_id=obj["node_id"],
            heartbeat_interval_ms=obj["heartbeat_interval_ms"],
            heartbeat_timeout_ms=obj["heartbeat_timeout_ms"],
            gather_timeout_ms=obj.get("gather_timeout_ms"),
            registered_transformers=tuple(obj["registered_transformers"]),
        )


class NeighborModel:
    """Availability map of proximate nodes, driven by heartbeats."""

    def __init__(self, members, timeout_ms: float):
        self.members = frozenset(members)
        self.timeout_ms = timeout_ms
        self.last_heartbeat: dict[str, float] = {}

    def record(self, node_id: str, at: float) -> None:
        if node_id not in self.members:
            raise UnknownNode(node_id)
        prev = self.last_heartbeat.get(node_id)
        self.last_heartbeat[node_id] = at if prev is None else max(prev, at)

    def is_available(self, node_id: str, now: float) -> bool:
        last = self.last_heartbeat.get(node_id)
        return last is not None and now - last <= self.timeout_ms

    def available_at(self, now: float) -> list[str]:
        return sorted(m for m in self.members if self.is_available(m, now))


class TransformerRegistry:
    """Named transformer functions with an observable instance count.

    The count rises for the duration of each call and returns to zero when
    idle, mirroring on-demand function scaling.
    """

    def __init__(self, builtins: bool = True):
        self._fns: dict[str, object] = {}
        self.active: dict[str, int] = {}
        if builtins:
            for name, fn in BUILTIN_TRANSFORMERS.items():
                self.register(name, fn)

    def register(self, name: str, fn) -> None:
        self._fns[name] = fn
        self.active.setdefault(name, 0)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._fns))

    def run(self, spec: TransformerSpec, readings: ReadingSet) -> "ReadingSet | Summary":
        fn = self._fns.get(spec.name)
        if fn is None:
            raise TransformerUnknown(spec.name)
        self.active[spec.name] += 1
        try:
            return fn(readings, spec.params_dict)
        finally:
            self.active[spec.name] -= 1


@dataclass(frozen=True, slots=True)
class Subscription:
    subscriber: str
    filter: frozenset[str]
    id: str


@dataclass
class _Gather:
    request: QueryRequest
    requester: str
    local_payload: "ReadingSet | Summary"
    expected: frozenset[str]
    skipped: frozenset[str]
    started_at: float
    responses: dict[str, QueryResponse] = field(default_factory=dict)
    timeouts: frozenset[str] = frozenset()
    done: bool = False


class SyncMeshNode:
    """One autonomous mesh node around a local store."""

    def __init__(self, store: LocalStore, config: NodeConfig | None = None,
                 registry: TransformerRegistry | None = None,
                 ops: PayloadOps | None = None):
        self.store = store
        self.node_id = store.node_id
        self.config = config or NodeConfig(node_id=store.node_id)
        if registry is None:
            registry = TransformerRegistry(builtins=False)
            for name in self.config.registered_transformers:
                registry.register(name, BUILTIN_TRANSFORMERS[name])
        self.registry = registry
        self.ops = ops or PayloadOps()
        self.subscriptions: list[Subscription] = []
        self.change_transformer: TransformerSpec | None = None
        self.net: Network | None = None
        self.neighbors: NeighborModel | None = None
        self.gather_timeout_ms = self.config.gather_timeout_ms or 0.0
        self._pending: dict[str, _Gather] = {}
        self._listener = None
        self._sub_seq = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, net: Network, topology: Topology) -> None:
        self.net = net
        members = topology.neighbors_of(self.node_id, EndpointKind.NODE)
        self.neighbors = NeighborModel(members, self.config.heartbeat_timeout_ms)
        if self.config.gather_timeout_ms is None:
            self.gather_timeout_ms = 2.0 * topology.max_latency_ms() + 100.0
        net.register(self.node_id, self._on_envelope)
        self._listener = self.store.register_listener(self.on_change)

    def detach(self) -> None:
        if self._listener is not None:
            self._listener.cancel()
            self._listener = None

    # -- heartbeats ------------------------------------------------------------

    def broadcast_heartbeat(self, at: float) -> None:
        for member in sorted(self.neighbors.members):
            self.net.send(
                Envelope(kind=MessageKind.HEARTBEAT, sender=self.node_id,
                         receiver=member), at)

    def schedule_heartbeats(self, start: float, until: float) -> None:
        """Emit one heartbeat round every interval in [start, until)."""
        t = start
        while t < until:
            self.net.call_at(t, lambda _net, now: self.broadcast_heartbeat(now))
            t += self.config.heartbeat_interval_ms

    def on_heartbeat(self, sender: str, at: float) -> None:
        self.neighbors.record(sender, at)

    # -- subscriptions ---------------------------------------------------------

    def add_subscription(self, subscriber: str, fields=frozenset()) -> Subscription:
        fields = frozenset(fields)
        for sub in self.subscriptions:
            if sub.subscriber == subscriber and sub.filter == fields:
                return sub
        self._sub_seq += 1
        sub = Subscription(subscriber=subscriber, filter=fields,
                           id=f"{self.node_id}-sub-{self._sub_seq}")
        self.subscriptions.append(sub)
        return sub

    def on_change(self, event: ChangeEvent) -> None:
        """Fan the change out to matching subscribers; fire-and-forget."""
        if not self.subscriptions:
            return
        if self.change_transformer is not None:
            self.registry.run(self.change_transformer, (event.reading,))
        for sub in self.subscriptions:
            if not _filter_matches(sub.filter, event.reading):
                continue
            body = wire.encode_reading(event.reading, sub.filter)
            self.net.send(
                Envelope(kind=MessageKind.NOTIFY, sender=self.node_id,
                         receiver=sub.subscriber, body=body,
                         payload_tag="reading",
                         payload=event.reading.projected(sub.filter)),
                self.net.clock)

    # -- request handling ----------------------------------------------------

    def handle_request(self, req: QueryRequest, now: float, requester: str) -> None:
        """Entry point for clients and peer nodes.

        LOCAL scope answers immediately from the local store; MESH scope
        starts a scatter-gather over currently-available neighbors and the
        requester is answered when it completes (or times out).
        """
        validate_request(req)
        if req.scope is Scope.LOCAL:
            payload = self._evaluate(req)
            self._respond(req, requester,
                          payload=payload,
                          contributing=frozenset({self.node_id}),
                          partial=False, now=now)
            return
        self._begin_gather(req, requester, now)

    def _evaluate(self, req: QueryRequest) -> "ReadingSet | Summary":
        readings = self.store.query(req.range)
        if req.transformer is None:
            return readings
        return self.registry.run(req.transformer, readings)

    def _begin_gather(self, req: QueryRequest, requester: str, now: float) -> None:
        local_payload = self._evaluate(req)
        available = self.neighbors.available_at(now)
        skipped = frozenset(self.neighbors.members) - frozenset(available)
        gather = _Gather(
            request=req, requester=requester, local_payload=local_payload,
            expected=frozenset(available), skipped=skipped, started_at=now)
        self._pending[req.request_id] = gather
        if not available:
            self._finalize(gather, now)
            return
        forwarded = QueryRequest(
            request_id=req.request_id, range=req.range,
            projection=req.projection, transformer=req.transformer,
            scope=Scope.LOCAL)
        body = wire.encode_request(forwarded)
        for neighbor in available:
            self.net.send(
                Envelope(kind=MessageKind.QUERY, sender=self.node_id,
                         receiver=neighbor, body=body,
                         request_id=req.request_id, payload_tag="query",
                         payload=forwarded),
                now)
        deadline = now + self.gather_timeout_ms

        def fire(_net, at):
            pending = self._pending.get(req.request_id)
            if pending is gather and not gather.done:
                gather.timeouts = gather.expected - frozenset(gather.responses)
                self._finalize(gather, at)

        self.net.call_at(deadline, fire)

    def _on_sub_response(self, env: Envelope, now: float) -> None:
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
            self._finalize(gather, now)

    def _finalize(self, gather: _Gather, now: float) -> None:
        gather.done = True
        self._pending.pop(gather.request.request_id, None)
        responders = sorted(set(gather.responses) - set(gather.timeouts))
        parts = [gather.local_payload] + [gather.responses[n].payload for n in responders]
        contributing = frozenset({self.node_id}).union(
            *(gather.responses[n].contributing_nodes for n in responders)) \
            if responders else frozenset({self.node_id})
        token = request_token(gather.request)
        merged = self.ops.merge(
            parts,
            merge_key=(token, self.node_id, tuple(responders)))
        partial = bool(gather.skipped) or bool(gather.timeouts)
        self._respond(gather.request, gather.requester,
                      payload=merged, contributing=contributing,
                      partial=partial, now=now)

    def _respond(self, req: QueryRequest, requester: str,
                 payload: "ReadingSet | Summary", contributing: frozenset[str],
                 partial: bool, now: float) -> None:
        resp = QueryResponse(
            request_id=req.request_id, payload=payload,
            contributing_nodes=contributing, partial=partial,
            codec=CodecId.GZIP)
        source = f"{self.node_id}|{request_token(req)}"
        self.net.send(
            self.ops.response_envelope(resp, self.node_id, requester,
                                       req.projection, source=source),
            now)

    # -- envelope dispatch -----------------------------------------------------

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.HEARTBEAT:
            self.on_heartbeat(env.sender, now)
        elif env.kind is MessageKind.RESPONSE:
            self._on_sub_response(env, now)
        elif env.kind in _PAYLOAD_KINDS:
            try:
                payload = wire.read_payload(env)
            except wire.MalformedBody:
                return  # dropped: one bad envelope must not end the run
            if env.kind is MessageKind.QUERY:
                self.handle_request(payload, now, requester=env.sender)
            elif env.kind is MessageKind.SUBSCRIBE:
                self.add_subscription(payload["subscriber"], payload["filter"])
            else:
                self.store.insert(payload)
        # INGEST / GOSSIP / GOSSIP_ECHO are baseline-system kinds.


_PAYLOAD_KINDS = (MessageKind.QUERY, MessageKind.SUBSCRIBE, MessageKind.NOTIFY)


def _filter_matches(fields: frozenset[str], reading) -> bool:
    """Empty filter matches everything; otherwise all named fields must be present."""
    if not fields:
        return True
    for name in fields:
        if name in ("node_id", "sensor_id", "timestamp"):
            continue
        if name == "geo":
            if reading.lat is None or reading.lon is None:
                return False
            continue
        if getattr(reading, name, None) is None:
            return False
    return True


class MeshClient:
    """Client endpoint that records responses as they arrive."""

    def __init__(self, client_id: str = "client"):
        self.client_id = client_id
        self.received: dict[str, tuple[QueryResponse, float]] = {}

    def attach(self, net: Network) -> None:
        net.register(self.client_id, self._on_envelope)

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is not MessageKind.RESPONSE:
            return
        try:
            resp = wire.read_payload(env)
        except wire.MalformedBody:
            return  # dropped: the query then reports no response
        self.received.setdefault(env.request_id, (resp, now))

    def send_query(self, net: Network, target: str, req: QueryRequest, at: float) -> None:
        net.send(
            Envelope(kind=MessageKind.QUERY, sender=self.client_id,
                     receiver=target, body=wire.encode_request(req),
                     request_id=req.request_id, payload_tag="query",
                     payload=req),
            at)


def run_query(net: Network, client: MeshClient, target: str,
              req: QueryRequest, at: float,
              limit: float = 1e12) -> tuple[QueryResponse, float]:
    """Send one query, run the network to quiescence, return (response, rtt_ms)."""
    client.send_query(net, target, req, at)
    net.run_until_quiescent(limit)
    if req.request_id not in client.received:
        raise RuntimeError(f"no response for {req.request_id}")
    resp, arrived = client.received[req.request_id]
    return resp, arrived - at
