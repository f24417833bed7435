import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_reading
from syncmesh import fastlz
from syncmesh.model import (
    CodecId,
    QueryRequest,
    QueryResponse,
    Scope,
    TimeRange,
    TransformerSpec,
    merge_reading_sets,
)
from syncmesh.wire import (
    HEADER_SIZE,
    Envelope,
    MalformedBody,
    MessageKind,
    compress,
    decode_envelope,
    decode_readings,
    decode_response,
    decompress,
    encode_envelope,
    encode_reading,
    encode_readings,
    encode_request,
    encode_response,
    encode_subscribe,
    project_response,
    read_payload,
)

# Recorded once from the chosen DEFLATE implementation; regression fixture.
GZIP_SIZE_10K_RUN = 34

# 64-byte header: kind(1) codec(1) reserved(6) sender(16) receiver(16)
# request_id(16) body_length(8 BE), then the body.
GOLDEN_ENVELOPE_HEX = (
    "01010000000000006e6f64652d30300000000000000000006e6f64652d303100000000"
    "0000000000712d3030303100000000000000000000000000000000000568656c6c6f"
)


class TestCodecs:
    def test_none_is_identity(self):
        data = b"some bytes \x00\xff"
        assert compress(CodecId.NONE, data) == data
        assert decompress(CodecId.NONE, data) == data

    def test_gzip_run_size_frozen(self):
        out = compress(CodecId.GZIP, b"a" * 10_000)
        assert len(out) == GZIP_SIZE_10K_RUN
        assert len(out) < 200

    @pytest.mark.parametrize("codec", [CodecId.GZIP, CodecId.FASTLZ])
    def test_roundtrip_random(self, codec, rng):
        for _ in range(50):
            n = rng.randrange(0, 4000)
            data = bytes(rng.randrange(256) for _ in range(n))
            assert decompress(codec, compress(codec, data)) == data

    @pytest.mark.parametrize("codec", [CodecId.NONE, CodecId.GZIP, CodecId.FASTLZ])
    def test_deterministic(self, codec):
        data = (b"sensor payload " * 300) + bytes(range(256))
        assert compress(codec, data) == compress(codec, data)


class TestFastlz:
    @pytest.mark.parametrize("data", [
        b"",
        b"a",
        b"ab",
        b"abc",
        b"a" * 100_000,              # runs far beyond one match token
        b"ab" * 9000,                # distance-2 overlap copies
        bytes(range(256)) * 64,      # distances beyond 8192
        b"x" * 3 + b"y" * 3 + b"x" * 3,
    ], ids=["empty", "one", "two", "three", "long-run", "overlap",
            "far-distance", "xyx"])
    def test_roundtrip_edges(self, data):
        assert fastlz.decompress(fastlz.compress(data)) == data

    def test_incompressible_data_survives(self, rng):
        data = bytes(rng.randrange(256) for _ in range(20_000))
        out = fastlz.compress(data)
        assert fastlz.decompress(out) == data

    @given(st.binary(max_size=3000))
    @settings(max_examples=150)
    def test_roundtrip_property(self, data):
        assert fastlz.decompress(fastlz.compress(data)) == data

    def test_truncated_stream_rejected(self):
        out = fastlz.compress(b"abcabcabcabc" * 10)
        with pytest.raises(ValueError):
            fastlz.decompress(out[:-1])


class TestEnvelope:
    def test_wire_size_is_header_plus_body(self):
        env = Envelope(kind=MessageKind.QUERY, sender="a", receiver="b", body=b"x" * 100)
        assert env.wire_size == HEADER_SIZE + 100

    def test_golden_layout(self):
        env = Envelope(kind=MessageKind.QUERY, sender="node-00", receiver="node-01",
                       body=b"hello", codec=CodecId.GZIP, request_id="q-0001")
        raw = encode_envelope(env)
        assert raw.hex() == GOLDEN_ENVELOPE_HEX
        assert len(raw) == HEADER_SIZE + 5

    def test_roundtrip(self):
        env = Envelope(kind=MessageKind.GOSSIP_ECHO, sender="node-11",
                       receiver="client", body=b"\x00\x01\x02",
                       codec=CodecId.FASTLZ, request_id="r-42")
        assert decode_envelope(encode_envelope(env)) == env

    def test_id_too_long_rejected(self):
        env = Envelope(kind=MessageKind.QUERY, sender="x" * 17, receiver="b")
        with pytest.raises(ValueError):
            encode_envelope(env)

    def test_length_mismatch_rejected(self):
        raw = encode_envelope(Envelope(kind=MessageKind.NOTIFY, sender="a",
                                       receiver="b", body=b"abc"))
        with pytest.raises(ValueError):
            decode_envelope(raw + b"zz")


class TestEncodeReadings:
    def test_empty_set_is_two_bytes(self):
        assert encode_readings(()) == b"[]"

    def test_projection_contract(self, rng):
        reading = make_reading(rng)
        out = json.loads(encode_readings((reading,), frozenset({"temperature"})))
        assert list(out[0].keys()) == ["node_id", "sensor_id", "timestamp", "temperature"]

    def test_deterministic(self, rng):
        readings = merge_reading_sets([[make_reading(rng) for _ in range(40)]])
        assert encode_readings(readings) == encode_readings(readings)

    def test_roundtrip(self, rng):
        readings = merge_reading_sets([[make_reading(rng) for _ in range(25)]])
        assert decode_readings(encode_readings(readings)) == readings


class TestReadPayload:
    def _objects(self, rng):
        readings = merge_reading_sets([[make_reading(rng) for _ in range(12)]])
        req = QueryRequest(request_id="q1", range=TimeRange(1, 10**12),
                           projection=frozenset({"p1"}),
                           transformer=TransformerSpec.of("downsample", {"k": "2"}),
                           scope=Scope.MESH)
        resp = QueryResponse(request_id="q1", payload=readings,
                             contributing_nodes=frozenset({"node-00", "node-01"}),
                             codec=CodecId.FASTLZ)
        return readings, req, resp

    def test_bytes_only_envelope_decodes_by_kind(self, rng):
        readings, req, resp = self._objects(rng)
        cases = [
            (MessageKind.QUERY, CodecId.NONE, encode_request(req), req),
            (MessageKind.RESPONSE, CodecId.FASTLZ, encode_response(resp), resp),
            (MessageKind.INGEST, CodecId.FASTLZ, encode_readings(readings), readings),
            (MessageKind.GOSSIP, CodecId.NONE, encode_readings(readings), readings),
            (MessageKind.NOTIFY, CodecId.NONE, encode_reading(readings[0]), readings[0]),
            (MessageKind.SUBSCRIBE, CodecId.NONE, encode_subscribe("node-01", {"p2"}),
             {"subscriber": "node-01", "filter": ["p2"]}),
        ]
        for kind, codec, raw, expected in cases:
            env = Envelope(kind=kind, sender="a", receiver="b",
                           body=compress(codec, raw), codec=codec)
            assert read_payload(env) == expected, kind.name

    def test_attached_payload_is_returned_without_decoding(self, rng):
        readings, _, _ = self._objects(rng)
        env = Envelope(kind=MessageKind.GOSSIP, sender="a", receiver="b",
                       body=b"{not json", payload=readings)
        assert read_payload(env) is readings
        assert env == Envelope(kind=MessageKind.GOSSIP, sender="a", receiver="b",
                               body=b"{not json")

    def test_heartbeat_and_echo_carry_nothing(self):
        for kind in (MessageKind.HEARTBEAT, MessageKind.GOSSIP_ECHO):
            assert read_payload(Envelope(kind=kind, sender="a", receiver="b",
                                         body=b"[]")) is None

    @pytest.mark.parametrize("kind, codec, body", [
        (MessageKind.QUERY, CodecId.NONE, b"{not json"),
        (MessageKind.QUERY, CodecId.NONE, b"[]"),
        (MessageKind.QUERY, CodecId.NONE, b'{"request_id":"q","range":null}'),
        (MessageKind.NOTIFY, CodecId.NONE, b'{"sensor_id":"s","timestamp":5}'),
        (MessageKind.NOTIFY, CodecId.NONE, b"\xff\xfe"),
        (MessageKind.INGEST, CodecId.NONE, b'{"a":1}'),
        (MessageKind.INGEST, CodecId.FASTLZ, b"\x05ab"),
        (MessageKind.RESPONSE, CodecId.GZIP, b"not deflate"),
        (MessageKind.RESPONSE, CodecId.NONE, b'{"payload_kind":"readings"}'),
        (MessageKind.SUBSCRIBE, CodecId.NONE, b'{"filter":[]}'),
    ])
    def test_malformed_body_raises_one_type(self, kind, codec, body):
        env = Envelope(kind=kind, sender="a", receiver="b", body=body, codec=codec)
        with pytest.raises(MalformedBody):
            read_payload(env)

    @pytest.mark.parametrize("projection", [
        frozenset(), frozenset({"humidity"}), frozenset({"geo", "p1"}),
        frozenset({"node_id"}),
    ])
    def test_project_response_matches_decoded_body(self, rng, projection):
        _, _, resp = self._objects(rng)
        decoded = decode_response(encode_response(resp, projection))
        assert project_response(resp, projection) == decoded
