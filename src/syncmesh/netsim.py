"""Deterministic virtual-time network with byte-exact traffic accounting.

Every link serializes at `LINK_BANDWIDTH`, one queue per direction, and then
adds its one-way latency: an envelope sent on an idle link arrives
`wire_size / LINK_BANDWIDTH + latency_ms` later. Each send is logged, and a
TrafficLedger sums log entries by (link class, message kind). A single event
loop owns all state; ties break by insertion order.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

from .wire import Envelope, MessageKind

LATENCY_RANGE_MS = (20.0, 300.0)
LINK_BANDWIDTH = 1250.0  # bytes per virtual ms (10 Mbit/s), on every link
CLIENT_ID = "client"
SERVER_ID = "server"


class NoRoute(Exception):
    """Sender and receiver are not directly linked."""


class TimeLimitExceeded(Exception):
    """Events remained in the queue at the configured time limit."""


class UnknownEndpoint(KeyError):
    pass


class EndpointKind(enum.Enum):
    CLIENT = "CLIENT"
    NODE = "NODE"
    SERVER = "SERVER"


class LinkClass(enum.Enum):
    CLIENT_NODE = "client_node"
    NODE_NODE = "node_node"
    NODE_SERVER = "node_server"
    CLIENT_SERVER = "client_server"


_CLASS_BY_KINDS = {
    frozenset({EndpointKind.CLIENT, EndpointKind.NODE}): LinkClass.CLIENT_NODE,
    frozenset({EndpointKind.NODE}): LinkClass.NODE_NODE,
    frozenset({EndpointKind.NODE, EndpointKind.SERVER}): LinkClass.NODE_SERVER,
    frozenset({EndpointKind.CLIENT, EndpointKind.SERVER}): LinkClass.CLIENT_SERVER,
}


@dataclass(frozen=True, slots=True)
class Endpoint:
    id: str
    kind: EndpointKind


@dataclass(frozen=True, slots=True)
class Link:
    a: str
    b: str
    latency_ms: float
    link_class: LinkClass


def link_class_of(kind_a: EndpointKind, kind_b: EndpointKind) -> LinkClass:
    try:
        return _CLASS_BY_KINDS[frozenset({kind_a, kind_b})]
    except KeyError:
        raise NoRoute(f"no link class for {kind_a.value}-{kind_b.value}")


class Topology:
    """Endpoints plus direct links; no routing beyond one hop."""

    def __init__(self):
        self.endpoints: dict[str, Endpoint] = {}
        self.links: dict[tuple[str, str], Link] = {}

    def add_endpoint(self, endpoint: Endpoint) -> None:
        if endpoint.id in self.endpoints:
            raise ValueError(f"duplicate endpoint id: {endpoint.id}")
        self.endpoints[endpoint.id] = endpoint

    def add_link(self, a: str, b: str, latency_ms: float) -> Link:
        ka, kb = self.endpoints[a].kind, self.endpoints[b].kind
        link = Link(*sorted((a, b)), latency_ms=latency_ms,
                    link_class=link_class_of(ka, kb))
        self.links[(link.a, link.b)] = link
        return link

    def link_between(self, a: str, b: str) -> Link | None:
        return self.links.get(tuple(sorted((a, b))))

    def node_ids(self) -> list[str]:
        return sorted(e.id for e in self.endpoints.values() if e.kind is EndpointKind.NODE)

    def neighbors_of(self, endpoint_id: str, kind: EndpointKind | None = None) -> list[str]:
        out = []
        for link in self.links.values():
            other = None
            if link.a == endpoint_id:
                other = link.b
            elif link.b == endpoint_id:
                other = link.a
            if other is not None and (kind is None or self.endpoints[other].kind is kind):
                out.append(other)
        return sorted(out)


def _link_latency(seed: int, a: str, b: str) -> float:
    """Uniform draw from [20, 300] ms, seeded by (seed, ordered endpoint pair)."""
    a, b = sorted((a, b))
    digest = hashlib.sha256(f"{seed}|{a}|{b}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return rng.uniform(*LATENCY_RANGE_MS)


def build_topology(n_nodes: int, seed: int, with_server: bool = False) -> Topology:
    """Full node mesh plus one client linked to every node (and to the server
    when present); link latencies are drawn deterministically from the seed."""
    topo = Topology()
    node_ids = [f"node-{i:02d}" for i in range(n_nodes)]
    for node_id in node_ids:
        topo.add_endpoint(Endpoint(node_id, EndpointKind.NODE))
    topo.add_endpoint(Endpoint(CLIENT_ID, EndpointKind.CLIENT))
    if with_server:
        topo.add_endpoint(Endpoint(SERVER_ID, EndpointKind.SERVER))

    def connect(a: str, b: str) -> None:
        topo.add_link(a, b, _link_latency(seed, a, b))

    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1:]:
            connect(a, b)
    for node_id in node_ids:
        connect(CLIENT_ID, node_id)
        if with_server:
            connect(node_id, SERVER_ID)
    if with_server:
        connect(CLIENT_ID, SERVER_ID)
    return topo


class TrafficLedger:
    """Sent bytes per (link class, message kind) of log entries, delivered or
    not.

    The entries are summed under each class's name, a str: a `LinkClass`
    key would run the Python-level `Enum.__hash__` twice an entry. So the
    enum keys are built once per (class, kind) and once per class."""

    def __init__(self, entries):
        sums: dict[tuple[str, MessageKind], int] = {}
        for entry in entries:
            key = entry.link_class._name_, entry.envelope.kind
            sums[key] = sums.get(key, 0) + entry.envelope.wire_size
        per_class: dict[str, int] = {}
        for (name, _), n in sums.items():
            per_class[name] = per_class.get(name, 0) + n
        self.bytes = MappingProxyType(Counter(
            {(LinkClass[name], kind): n for (name, kind), n in sums.items()}))
        self._by_class = {LinkClass[name]: n for name, n in per_class.items()}

    def get(self, link_class: LinkClass, kind: MessageKind) -> int:
        return self.bytes.get((link_class, kind), 0)

    def by_class(self) -> Counter[LinkClass]:
        return Counter(self._by_class)

    def total(self) -> int:
        return sum(self.bytes.values())

    def to_csv(self) -> str:
        lines = ["link_class,message_kind,bytes"]
        for (link_class, kind), n in sorted(
            self.bytes.items(), key=lambda kv: (kv[0][0].value, kv[0][1].name)
        ):
            lines.append(f"{link_class.value},{kind.name},{n}")
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class LogEntry:
    """One envelope transmission as observed on its link."""

    sent_at: float
    deliver_at: float
    link_class: LinkClass
    envelope: Envelope
    delivered: bool = True


class Network:
    """Single-threaded discrete-event simulator over a fixed topology."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.clock = 0.0
        self.envelope_log: list[LogEntry] = []
        # Events are [at, seq, item]; `cancel` sets item to None.
        self._queue: list[list] = []
        self._seq = 0
        self._handlers: dict[str, object] = {}
        self._available: dict[str, bool] = {e: True for e in topology.endpoints}
        # Per-direction time at which a link finishes serializing its last send.
        self._link_busy_until: dict[tuple[str, str], float] = {}

    # -- wiring ------------------------------------------------------------

    def register(self, endpoint_id: str, handler) -> None:
        """handler(net, envelope, now) is invoked on each delivery."""
        if endpoint_id not in self.topology.endpoints:
            raise UnknownEndpoint(endpoint_id)
        self._handlers[endpoint_id] = handler

    def set_available(self, endpoint_id: str, available: bool) -> None:
        if endpoint_id not in self.topology.endpoints:
            raise UnknownEndpoint(endpoint_id)
        self._available[endpoint_id] = available

    # -- scheduling --------------------------------------------------------

    def call_at(self, at: float, fn) -> list:
        """Schedule fn(net, now); ties with equal time run in insertion order.
        Returns the event, which `cancel` takes."""
        return self._push(at, fn)

    def cancel(self, event: list) -> None:
        """Drop a scheduled event: it neither runs nor advances `clock`."""
        event[2] = None

    def send(self, env: Envelope, at: float) -> LogEntry | None:
        """Schedule delivery of env and log it on the link.

        Returns the logged entry, or None when the sender is currently
        unavailable (a down node transmits nothing). Raises NoRoute when the
        endpoints are unlinked.
        """
        link = self.topology.link_between(env.sender, env.receiver)
        if link is None:
            raise NoRoute(f"{env.sender} -> {env.receiver}")
        if not self._available[env.sender]:
            return None
        direction = (env.sender, env.receiver)
        start = max(at, self._link_busy_until.get(direction, 0.0))
        depart = start + env.wire_size / LINK_BANDWIDTH
        self._link_busy_until[direction] = depart
        deliver_at = depart + link.latency_ms
        entry = LogEntry(sent_at=at, deliver_at=deliver_at,
                         link_class=link.link_class, envelope=env)
        self.envelope_log.append(entry)
        self._push(deliver_at, entry)
        return entry

    def _push(self, at: float, item) -> list:
        self._seq += 1
        event = [at, self._seq, item]
        heapq.heappush(self._queue, event)
        return event

    # -- event loop --------------------------------------------------------

    def run_until_quiescent(self, limit: float = math.inf) -> float:
        """Process events in (time, insertion) order until the queue empties.

        Raises TimeLimitExceeded when events would remain beyond `limit`.
        """
        queue = self._queue
        while queue:
            if queue[0][0] > limit and queue[0][2] is not None:
                raise TimeLimitExceeded(f"events pending beyond t={limit}")
            at, _, item = heapq.heappop(queue)
            if item is None:  # cancelled
                continue
            self.clock = max(self.clock, at)
            if isinstance(item, LogEntry):
                env = item.envelope
                if not self._available[env.receiver]:
                    item.delivered = False
                    continue
                handler = self._handlers.get(env.receiver)
                if handler is not None:
                    handler(self, env, at)
            else:
                item(self, at)
        return self.clock

    @property
    def ledger(self) -> TrafficLedger:
        return TrafficLedger(self.envelope_log)

    def close(self) -> None:
        """Drop handlers, pending events and the log (so take the ledger
        first). Handlers hold the systems that hold this network, a cycle
        only the cycle collector would free."""
        self._handlers = {}
        self._queue = []
        self.envelope_log = []
