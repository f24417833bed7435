"""Message framing, payload encoding, and the two response codecs.

Every message travels in an Envelope with a fixed 64-byte header, so traffic
accounting is exact: wire_size = 64 + len(body). Encoding functions are pure
and deterministic; equal inputs always produce byte-identical output.

A sender in this process also attaches the object its body encodes, so a
receiver reads that object through `read_payload` instead of decoding bytes
that were encoded a moment before. Only the body is ever counted. What an
envelope carries (a query, readings, a summary) is read from that object
too: no label set by the sender restates it.

An uncompressed body may be held as a `Body`: its bytes in parts, so that
bodies which differ only around one long readings array share that array.
Only its length is counted; its bytes are joined only where they are read
(`encode_envelope`, `read_payload`, equality and hashing).

A reading is encoded once: its canonical JSON text is written by a fixed
template and kept on the reading, and every later readings array, response
or digest joins the kept texts.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import fastlz
from .model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    SensorReading,
    Summary,
    canonical_json,
    set_reading_json,
)

HEADER_SIZE = 64
_GZIP_LEVEL = 6

_HEADER = struct.Struct(">BB6x16s16s16sQ")


class Body:
    """An immutable body held as byte parts, whose bytes are their join.

    `len` is the sum of the parts' lengths, kept when built, so counting a
    body joins nothing. Equality and hash are those of the joined bytes, so
    a Body equals the bytes it stands for and an Envelope compares and
    hashes as it would with those bytes."""

    __slots__ = ("parts", "_len")

    def __init__(self, parts):
        parts = tuple(parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_len", sum(map(len, parts)))

    def __setattr__(self, name, value):
        raise AttributeError("Body is immutable")

    def __len__(self) -> int:
        return self._len

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Body):
            other = bytes(other)
        elif not isinstance(other, (bytes, bytearray)):
            return NotImplemented
        return self._len == len(other) and bytes(self) == other

    def __hash__(self) -> int:
        return hash(bytes(self))

    def __repr__(self) -> str:
        return f"Body({len(self.parts)} parts, {self._len} bytes)"


class MessageKind(enum.IntEnum):
    QUERY = 1
    RESPONSE = 2
    INGEST = 3
    GOSSIP = 4
    GOSSIP_ECHO = 5
    HEARTBEAT = 8


@dataclass(frozen=True, slots=True)
class Envelope:
    """One framed message between two endpoints.

    `payload` is the object a receiver gets by decompressing and decoding
    `body` (`read_payload`); senders in this process attach it, and it is
    neither sent nor counted, nor compared. An uncompressed body may be a
    `Body`, counted by its length alone.
    """

    kind: MessageKind
    sender: str
    receiver: str
    body: bytes | Body = b""
    codec: CodecId = CodecId.NONE
    request_id: str = ""
    payload: object = field(default=None, compare=False, repr=False)

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + len(self.body)


def _pack_id(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 16:
        raise ValueError(f"id too long for 16-byte header field: {value!r}")
    return raw


def _unpack_id(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


def encode_envelope(env: Envelope) -> bytes:
    """Binary layout: kind(1) codec(1) reserved(6) sender(16) receiver(16)
    request_id(16) body_length(8, big-endian), then the body."""
    header = _HEADER.pack(
        env.kind.value,
        env.codec.value,
        _pack_id(env.sender),
        _pack_id(env.receiver),
        _pack_id(env.request_id),
        len(env.body),
    )
    return header + bytes(env.body)


def decode_envelope(data: bytes) -> Envelope:
    if len(data) < HEADER_SIZE:
        raise ValueError("short envelope header")
    kind, codec, sender, receiver, request_id, body_len = _HEADER.unpack_from(data)
    if len(data) != HEADER_SIZE + body_len:
        raise ValueError("envelope length mismatch")
    return Envelope(
        kind=MessageKind(kind),
        codec=CodecId(codec),
        sender=_unpack_id(sender),
        receiver=_unpack_id(receiver),
        request_id=_unpack_id(request_id),
        body=data[HEADER_SIZE:],
    )


def compress(codec: CodecId, data: bytes | Body) -> bytes | Body:
    """`data` compressed by `codec`."""
    if codec is CodecId.NONE:
        return data
    if codec is CodecId.GZIP:
        return zlib.compress(bytes(data), _GZIP_LEVEL)
    if codec is CodecId.FASTLZ:
        return fastlz.compress(bytes(data))
    raise ValueError(f"unknown codec: {codec}")


def decompress(codec: CodecId, data: bytes) -> bytes:
    """`data` decompressed; raises ValueError for output past
    `fastlz.MAX_OUTPUT`, the cap of every codec."""
    if codec is CodecId.NONE:
        return data
    if codec is CodecId.GZIP:
        cap = fastlz.MAX_OUTPUT
        stream = zlib.decompressobj()
        out = stream.decompress(data, cap + 1)
        if len(out) > cap:
            raise ValueError(f"decompressed output passes {cap} bytes")
        if not stream.eof:
            raise ValueError("incomplete or truncated stream")
        return out
    if codec is CodecId.FASTLZ:
        return fastlz.decompress(data)
    raise ValueError(f"unknown codec: {codec}")


_READING_TEMPLATE = (
    '{"node_id":%s,"sensor_id":%s,"timestamp":%s,"geo":{"lat":%s,"lon":%s},'
    '"p1":%s,"p2":%s,"temperature":%s,"humidity":%s,"pressure":%s}')


def _json_value(v) -> str:
    """`v` as `canonical_json` writes it."""
    cls = type(v)
    if cls is float:
        if v - v == 0.0:  # finite; NaN and infinities fall through and raise
            return float.__repr__(v)
    elif cls is int:
        return int.__repr__(v)
    elif cls is str:
        return encode_basestring_ascii(v)
    elif v is None:
        return "null"
    return canonical_json(v).decode("ascii")


def _reading_json(r: SensorReading) -> bytes:
    """`canonical_json(r.to_json_dict())`, written on the first call and kept
    on the reading. A value JSON cannot carry raises ValueError, and nothing
    is kept."""
    text = r._json
    if text is None:
        v = _json_value
        text = (_READING_TEMPLATE % (
            v(r.node_id), v(r.sensor_id), v(r.timestamp), v(r.lat), v(r.lon),
            v(r.p1), v(r.p2), v(r.temperature), v(r.humidity), v(r.pressure),
        )).encode("ascii")
        set_reading_json(r, text)
    return text


def encode_readings(readings: ReadingSet) -> bytes:
    """Canonical JSON array of readings, joined from their kept texts."""
    return b"[" + b",".join(map(_reading_json, readings)) + b"]"


def decode_readings(data: bytes) -> ReadingSet:
    return tuple(SensorReading.from_json_dict(obj) for obj in json.loads(data))


def encode_request(req: QueryRequest) -> bytes:
    return canonical_json(req.to_json_dict())


def decode_request(data: bytes) -> QueryRequest:
    return QueryRequest.from_json_dict(json.loads(data))


def response_parts(resp: QueryResponse,
                   readings_array=encode_readings) -> tuple[bytes, ...]:
    """The uncompressed canonical response body as parts whose join is
    `canonical_json(resp.to_json_dict())`.

    A `Summary` payload gives one part. A readings payload gives three: the
    head, the array `readings_array(resp.payload)` spliced from the texts its
    readings keep, and the tail."""
    if isinstance(resp.payload, Summary):
        return (canonical_json(resp.to_json_dict()),)
    return (
        b'{"request_id":' + canonical_json(resp.request_id)
        + b',"payload_kind":"readings","payload":',
        readings_array(resp.payload),
        b',"contributing_nodes":' + canonical_json(sorted(resp.contributing_nodes))
        + b',"partial":' + canonical_json(resp.partial)
        + b',"codec":' + canonical_json(resp.codec.name) + b"}")


def encode_response(resp: QueryResponse) -> bytes:
    """Uncompressed canonical response body; compress separately per resp.codec."""
    return b"".join(response_parts(resp))


def decode_response(data: bytes) -> QueryResponse:
    return QueryResponse.from_json_dict(json.loads(data))


class MalformedBody(ValueError):
    """An envelope body that does not decompress or decode as its kind says."""


def _decode_body(kind: MessageKind, data: bytes):
    if kind is MessageKind.QUERY:
        return decode_request(data)
    if kind is MessageKind.RESPONSE:
        return decode_response(data)
    if kind is MessageKind.INGEST or kind is MessageKind.GOSSIP:
        return decode_readings(data)
    return None  # HEARTBEAT and GOSSIP_ECHO carry nothing a receiver reads


def read_payload(env: Envelope):
    """The object `env.body` encodes.

    That is `env.payload` when the sender attached it. An envelope built from
    bytes alone is decompressed and decoded by kind; any failure to do so,
    decompressed output past the cap included, raises MalformedBody, so a
    receiver can drop the envelope.
    """
    if env.payload is not None:
        return env.payload
    try:
        return _decode_body(env.kind, decompress(env.codec, bytes(env.body)))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            zlib.error) as exc:
        raise MalformedBody(f"{env.kind.name} from {env.sender}: {exc!r}") from exc
