import dataclasses
import random
import sys
import zlib
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from syncmesh.model import QueryRequest, QueryResponse, SensorReading, canonical_json
from syncmesh.netsim import Network
from syncmesh.wire import read_payload


# A gather deadline for the small test networks: longer than a round trip
# over any `build_topology` link (at most 300 ms each way) plus the time to
# serialize a test's query and replies at `netsim.LINK_BANDWIDTH`.
GATHER_TIMEOUT_MS = 1000.0

# Short streams that decompress to far more than they hold: an empty JSON
# array padded with spaces, so a receiver would take each as an empty batch.
# FASTLZ: the literal "[ ", 40 long-match tokens that each copy 264 spaces
# from distance 1, then the literal "]": 125 bytes for 10,563.
FASTLZ_BOMB = b"\x01[ " + bytes([0xE0, 255, 0]) * 40 + b"\x00]"
FASTLZ_BOMB_OUTPUT = 2 + 40 * 264 + 1
GZIP_BOMB_OUTPUT = 100_000
GZIP_BOMB = zlib.compress(b"[" + b" " * (GZIP_BOMB_OUTPUT - 2) + b"]", 9)


def query_body(name=None, params=None, projection=(), scope="MESH",
               start=1, end=10**15, request_id="bad") -> bytes:
    """A QUERY body written as JSON in the request schema, field by field, so
    it can hold what no `QueryRequest` encodes: a non-empty projection or
    transformer params."""
    transformer = None if name is None else {"name": name, "params": params or {}}
    return canonical_json({
        "request_id": request_id, "range": {"start": start, "end": end},
        "projection": list(projection), "transformer": transformer,
        "scope": scope})


# QUERY bodies that every query handler drops (`payloads.read_query`): one
# that does not decode, one that fails validation, transformers that are not
# built in (`downsample` among them), and a non-empty projection or
# transformer params, even ones naming real fields.
HOSTILE_QUERIES = {
    "not-json": b"{not json",
    "empty-range": query_body(start=10, end=10),
    "unknown-transformer": query_body("no_such_transformer"),
    "projection-p1": query_body(projection=["p1"]),
    "downsample-k-0": query_body("downsample", {"k": "0"}),
    "local-downsample-k-0": query_body("downsample", {"k": "0"}, scope="LOCAL"),
    "downsample-k-not-int": query_body("downsample", {"k": "x"}),
    "aggregate-unknown-field": query_body("aggregate_mean", {"fields": "bogus"}),
    "aggregate-fields-p1": query_body("aggregate_mean", {"fields": "p1"}),
}


def make_reading(rng: random.Random, node_id="node-00", sensor_id=None,
                 timestamp=None) -> SensorReading:
    return SensorReading(
        node_id=node_id,
        sensor_id=sensor_id or f"sensor-{rng.randrange(40):03d}",
        timestamp=timestamp if timestamp is not None else rng.randrange(1, 10**12),
        lat=round(rng.uniform(-90, 90), 5),
        lon=round(rng.uniform(-180, 180), 5),
        p1=round(rng.lognormvariate(2.5, 0.8), 2),
        p2=round(rng.lognormvariate(2.0, 0.8), 2),
        temperature=round(rng.uniform(-10, 40), 2),
        humidity=round(rng.uniform(0, 100), 2),
        pressure=None if rng.random() < 0.2 else round(rng.gauss(101325, 300), 1),
    )


def payload_kind(env) -> str | None:
    """What an envelope carries, read from its payload (`read_payload`), not
    from any label: "query", "summary" or "readings"; None for a heartbeat or
    an echo, which carry nothing a receiver reads."""
    payload = read_payload(env)
    if isinstance(payload, QueryRequest):
        return "query"
    if isinstance(payload, QueryResponse):
        return payload.payload_kind
    return None if payload is None else "readings"


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(autouse=True)
def verify_wire(monkeypatch):
    """Every envelope sent with an attached object must decode back to it.

    Receivers read the attached object and never the body, so a body that
    disagrees with it would go unseen. The memo layer hands the same body
    bytes to many sends, so each distinct body is decoded once per test and
    later objects sent with it are compared with the last one that passed,
    which usually shares its parts and compares by identity. Holding the body
    keeps its id from being reused.
    """
    verified: dict[tuple, tuple] = {}
    send = Network.send

    def checked_send(net, env, at):
        if env.payload is not None:
            key = (env.kind, env.codec, id(env.body))
            seen = verified.get(key)
            if seen is None:
                expected = read_payload(dataclasses.replace(env, payload=None))
            else:
                expected = seen[1]
            assert env.payload == expected, (
                f"{env.kind.name} {env.sender}->{env.receiver}: "
                "attached payload differs from the decoded body")
            verified[key] = (env.body, env.payload)
        return send(net, env, at)

    monkeypatch.setattr(Network, "send", checked_send)
