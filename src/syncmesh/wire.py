"""Message framing, payload encoding, and the two response codecs.

Every message travels in an Envelope with a fixed 64-byte header, so traffic
accounting is exact: wire_size = 64 + len(body). Encoding functions are pure
and deterministic; equal inputs always produce byte-identical output.

A sender in this process also attaches the object its body encodes, so a
receiver reads that object through `read_payload` instead of decoding bytes
that were encoded a moment before. Only the body is ever counted.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field, replace

from . import fastlz
from .model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    SensorReading,
    Summary,
    canonical_json,
)

HEADER_SIZE = 64
_GZIP_LEVEL = 6

_HEADER = struct.Struct(">BB6x16s16s16sQ")


class MessageKind(enum.IntEnum):
    QUERY = 1
    RESPONSE = 2
    INGEST = 3
    GOSSIP = 4
    GOSSIP_ECHO = 5
    SUBSCRIBE = 6
    NOTIFY = 7
    HEARTBEAT = 8


@dataclass(frozen=True, slots=True)
class Envelope:
    """One framed message between two endpoints.

    `payload_tag` is simulation metadata (e.g. "readings" vs "summary") used
    by traffic assertions; it is not part of the wire layout. `payload` is the
    object a receiver gets by decompressing and decoding `body`; senders in
    this process attach it, and it is neither sent nor counted.
    """

    kind: MessageKind
    sender: str
    receiver: str
    body: bytes = b""
    codec: CodecId = CodecId.NONE
    request_id: str = ""
    payload_tag: str | None = field(default=None, compare=False)
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
    return header + env.body


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


def compress(codec: CodecId, data: bytes) -> bytes:
    if codec is CodecId.NONE:
        return data
    if codec is CodecId.GZIP:
        return zlib.compress(data, _GZIP_LEVEL)
    if codec is CodecId.FASTLZ:
        return fastlz.compress(data)
    raise ValueError(f"unknown codec: {codec}")


def decompress(codec: CodecId, data: bytes) -> bytes:
    if codec is CodecId.NONE:
        return data
    if codec is CodecId.GZIP:
        return zlib.decompress(data)
    if codec is CodecId.FASTLZ:
        return fastlz.decompress(data)
    raise ValueError(f"unknown codec: {codec}")


def encode_readings(readings: ReadingSet, projection: frozenset[str] = frozenset()) -> bytes:
    """Canonical JSON array of readings with the projection applied."""
    return canonical_json([r.to_json_dict(projection) for r in readings])


def decode_readings(data: bytes) -> ReadingSet:
    return tuple(SensorReading.from_json_dict(obj) for obj in json.loads(data))


def encode_request(req: QueryRequest) -> bytes:
    return canonical_json(req.to_json_dict())


def decode_request(data: bytes) -> QueryRequest:
    return QueryRequest.from_json_dict(json.loads(data))


def encode_response(resp: QueryResponse, projection: frozenset[str] = frozenset()) -> bytes:
    """Uncompressed canonical response body; compress separately per resp.codec."""
    return canonical_json(resp.to_json_dict(projection))


def project_response(resp: QueryResponse, projection: frozenset[str]) -> QueryResponse:
    """The response as `decode_response(encode_response(resp, projection))`
    returns it: fields outside the projection read None."""
    if not projection or isinstance(resp.payload, Summary):
        return resp
    return replace(resp, payload=tuple(r.projected(projection) for r in resp.payload))


def decode_response(data: bytes) -> QueryResponse:
    return QueryResponse.from_json_dict(json.loads(data))


def encode_reading(reading: SensorReading, projection: frozenset[str] = frozenset()) -> bytes:
    return canonical_json(reading.to_json_dict(projection))


def decode_reading(data: bytes) -> SensorReading:
    return SensorReading.from_json_dict(json.loads(data))


def encode_subscribe(subscriber: str, fields=frozenset()) -> bytes:
    return canonical_json({"subscriber": subscriber, "filter": sorted(fields)})


def decode_subscribe(data: bytes) -> dict:
    obj = json.loads(data)
    return {"subscriber": obj["subscriber"], "filter": sorted(obj.get("filter") or ())}


class MalformedBody(ValueError):
    """An envelope body that does not decompress or decode as its kind says."""


def _decode_body(kind: MessageKind, data: bytes):
    if kind is MessageKind.QUERY:
        return decode_request(data)
    if kind is MessageKind.RESPONSE:
        return decode_response(data)
    if kind is MessageKind.INGEST or kind is MessageKind.GOSSIP:
        return decode_readings(data)
    if kind is MessageKind.NOTIFY:
        return decode_reading(data)
    if kind is MessageKind.SUBSCRIBE:
        return decode_subscribe(data)
    return None  # HEARTBEAT and GOSSIP_ECHO carry nothing a receiver reads


def read_payload(env: Envelope):
    """The object `env.body` encodes.

    That is `env.payload` when the sender attached it. An envelope built from
    bytes alone is decompressed and decoded by kind; any failure to do so
    raises MalformedBody, so a receiver can drop the envelope.
    """
    if env.payload is not None:
        return env.payload
    try:
        return _decode_body(env.kind, decompress(env.codec, env.body))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            zlib.error) as exc:
        raise MalformedBody(f"{env.kind.name} from {env.sender}: {exc!r}") from exc
