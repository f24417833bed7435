"""The mesh node: coordinator entry point, scatter-gather over available
neighbors, and heartbeat-driven neighbor availability tracking. A node runs
the one built-in transformer, `aggregate_mean`
(`payloads.BUILTIN_TRANSFORMERS`), next to its data, through
`payloads.evaluate_query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    Scope,
    Summary,
    validate_request,
)
from .netsim import CLIENT_ID, Network
from .payloads import PayloadOps, evaluate_query, read_query
from .store import LocalStore
from . import wire
from .wire import Envelope, MessageKind


# How long a neighbor counts as available after its last heartbeat; the
# boundary is inclusive.
HEARTBEAT_TIMEOUT_MS = 3000.0


class SyncMeshNode:
    """One autonomous mesh node around a local store. Its neighbors are the
    nodes it is linked to; each counts as available for
    `HEARTBEAT_TIMEOUT_MS` after the latest heartbeat heard from it."""

    def __init__(self, store: LocalStore, ops: PayloadOps | None = None, *,
                 gather_timeout_ms: float):
        self.store = store
        self.node_id = store.node_id
        self.ops = ops or PayloadOps()
        self.net: Network | None = None
        self.neighbor_ids: list[str] = []
        self.last_heard: dict[str, float] = {}
        self.gather = Gather(self.node_id, gather_timeout_ms)

    # -- lifecycle -----------------------------------------------------------

    def attach(self, net: Network) -> None:
        self.net = net
        self.neighbor_ids = net.topology.neighbors_of(self.node_id)
        net.register(self.node_id, self._on_envelope)

    # -- heartbeats ------------------------------------------------------------

    def broadcast_heartbeat(self, at: float) -> None:
        for neighbor in self.neighbor_ids:
            self.net.send(
                Envelope(kind=MessageKind.HEARTBEAT, sender=self.node_id,
                         receiver=neighbor), at)

    def available_neighbors(self, now: float) -> list[str]:
        return [n for n in self.neighbor_ids if n in self.last_heard
                and now - self.last_heard[n] <= HEARTBEAT_TIMEOUT_MS]

    # -- request handling ----------------------------------------------------

    def handle_request(self, req: QueryRequest, now: float, requester: str) -> None:
        """Entry point for clients and peer nodes.

        LOCAL scope answers immediately from the local store; MESH scope
        starts a scatter-gather over currently-available neighbors and the
        requester is answered when it completes (or times out).
        """
        validate_request(req)
        if req.scope is Scope.LOCAL:
            resp = self.ops.local_response(self.node_id, self.store, req,
                                           CodecId.GZIP)
            self.net.send(self.ops.response_envelope(
                req, resp, self.node_id, requester), now)
            return
        payload = self.ops.answer(
            (self.node_id,), req,
            lambda: evaluate_query(self.store, req))
        available = self.available_neighbors(now)
        skipped = len(available) < len(self.neighbor_ids)

        def finish(responses, timeouts, at):
            # The local payload merges first; a neighbor's reply brings the
            # nodes that contributed to it.
            parts = {self.node_id: payload} | {
                s: r.payload for s, r in responses.items()}
            merged = self.ops.merge(self.node_id, req, parts)
            contributing = frozenset({self.node_id}).union(
                *(r.contributing_nodes for r in responses.values()))
            self._respond(req, requester, payload=merged,
                          contributing=contributing,
                          partial=bool(skipped or timeouts), now=at)

        if available:
            self.gather.start(self.net, req, available, now, finish)
        else:
            finish({}, frozenset(), now)

    def _respond(self, req: QueryRequest, requester: str,
                 payload: "ReadingSet | Summary", contributing: frozenset[str],
                 partial: bool, now: float) -> None:
        resp = QueryResponse(
            request_id=req.request_id, payload=payload,
            contributing_nodes=contributing, partial=partial,
            codec=CodecId.GZIP)
        self.net.send(
            self.ops.response_envelope(req, resp, self.node_id, requester), now)

    # -- envelope dispatch -----------------------------------------------------

    def _on_envelope(self, net: Network, env: Envelope, now: float) -> None:
        if env.kind is MessageKind.HEARTBEAT:
            if env.sender in self.neighbor_ids:
                self.last_heard[env.sender] = max(
                    now, self.last_heard.get(env.sender, now))
            # else dropped: a heartbeat from a non-neighbor must not end the run
        elif env.kind is MessageKind.RESPONSE:
            self.gather.on_response(net, env, now)
        elif env.kind is MessageKind.QUERY:
            req = read_query(env)
            if req is not None:  # else dropped: it must not end the run
                self.handle_request(req, now, requester=env.sender)
        # INGEST / GOSSIP / GOSSIP_ECHO are baseline-system kinds, ignored
        # here: nothing a mesh node receives writes to its store.


def heartbeat_round(nodes, at: float) -> None:
    """One heartbeat round: each of `nodes`, in order, heartbeats every
    neighbor at `at`."""
    for node in nodes:
        node.broadcast_heartbeat(at)


@dataclass
class _Round:
    expected: frozenset[str]
    finish: Callable
    responses: dict[str, QueryResponse] = field(default_factory=dict)
    deadline: list | None = None  # the scheduled event (`Network.call_at`)


class Gather:
    """Scatter-gather of LOCAL queries on behalf of one endpoint.

    `start` sends the query, as LOCAL, to every target and sets a deadline
    `timeout_ms` after the start. Every owner is built with its deadline;
    bench gives each one the scenario's (`bench._scenario_gather_timeout`).
    A LOCAL query is sent as it is, not copied. The deadline is cancelled
    when the round closes, so it neither runs nor moves the clock.
    A RESPONSE counts only from a target, only its first reply, and only if
    its body decodes. `finish(responses, timeouts, now)` then runs exactly
    once: when every target has replied, or when the deadline fires. It gets
    the replies keyed by sender in sorted order and the targets that timed
    out; what they mean is the owner's to decide.
    """

    def __init__(self, sender: str, timeout_ms: float):
        self.sender = sender
        self.timeout_ms = timeout_ms
        self._pending: dict[str, _Round] = {}

    def start(self, net: Network, req: QueryRequest, targets, now: float,
              finish: Callable) -> None:
        round_ = _Round(expected=frozenset(targets), finish=finish)
        abandoned = self._pending.get(req.request_id)
        if abandoned is not None:  # a second start of one id replaces the first
            net.cancel(abandoned.deadline)
        self._pending[req.request_id] = round_
        forwarded = (req if req.scope is Scope.LOCAL
                     else replace(req, scope=Scope.LOCAL))
        body = wire.encode_request(forwarded)
        for target in targets:
            net.send(
                Envelope(kind=MessageKind.QUERY, sender=self.sender,
                         receiver=target, body=body,
                         request_id=req.request_id, payload=forwarded),
                now)
        round_.deadline = net.call_at(
            now + self.timeout_ms,
            lambda net, at: self._close(net, req.request_id, at))

    def on_response(self, net: Network, env: Envelope, now: float) -> None:
        round_ = self._pending.get(env.request_id)
        if (round_ is None or env.sender not in round_.expected
                or env.sender in round_.responses):
            return
        try:
            round_.responses[env.sender] = wire.read_payload(env)
        except wire.MalformedBody:
            return  # an undecodable reply counts as no reply
        if len(round_.responses) == len(round_.expected):
            self._close(net, env.request_id, now)

    def _close(self, net: Network, request_id: str, now: float) -> None:
        round_ = self._pending.pop(request_id)
        net.cancel(round_.deadline)
        responses = {s: round_.responses[s] for s in sorted(round_.responses)}
        round_.finish(responses, round_.expected.difference(responses), now)


class MeshClient:
    """The client endpoint (`CLIENT_ID`); records responses as they arrive."""

    def __init__(self):
        self.received: dict[str, tuple[QueryResponse, float]] = {}

    def attach(self, net: Network) -> None:
        net.register(CLIENT_ID, self._on_envelope)

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
            Envelope(kind=MessageKind.QUERY, sender=CLIENT_ID,
                     receiver=target, body=wire.encode_request(req),
                     request_id=req.request_id, payload=req),
            at)


# Virtual time by which one query's run must be quiescent: a backstop against
# a run that never ends, far beyond any deadline.
QUERY_TIME_LIMIT_MS = 1e12


def run_query(net: Network, client: MeshClient, target: str,
              req: QueryRequest, at: float) -> tuple[QueryResponse, float]:
    """Send one query, run the network to quiescence, return (response, rtt_ms)."""
    client.send_query(net, target, req, at)
    net.run_until_quiescent(QUERY_TIME_LIMIT_MS)
    if req.request_id not in client.received:
        raise RuntimeError(f"no response for {req.request_id}")
    resp, arrived = client.received[req.request_id]
    return resp, arrived - at
