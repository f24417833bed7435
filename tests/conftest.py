import dataclasses
import random
import sys
import zlib
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from syncmesh.model import SensorReading
from syncmesh.netsim import Network
from syncmesh.wire import read_payload


# Short streams that decompress to far more than they hold: an empty JSON
# array padded with spaces, so a receiver would take each as an empty batch.
# FASTLZ: the literal "[ ", 40 long-match tokens that each copy 264 spaces
# from distance 1, then the literal "]": 125 bytes for 10,563.
FASTLZ_BOMB = b"\x01[ " + bytes([0xE0, 255, 0]) * 40 + b"\x00]"
FASTLZ_BOMB_OUTPUT = 2 + 40 * 264 + 1
GZIP_BOMB_OUTPUT = 100_000
GZIP_BOMB = zlib.compress(b"[" + b" " * (GZIP_BOMB_OUTPUT - 2) + b"]", 9)


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
