import hashlib
import json
import pickle
import random
import zlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FASTLZ_BOMB,
    FASTLZ_BOMB_OUTPUT,
    GZIP_BOMB,
    GZIP_BOMB_OUTPUT,
    make_reading,
)
from oracles import reference_compress, reference_encode_response
from syncmesh import bench, fastlz, wire
from syncmesh.payloads import PayloadOps, fingerprint
from syncmesh.model import (
    FIELD_NAMES,
    NUMERIC_FIELDS,
    CodecId,
    QueryRequest,
    QueryResponse,
    Scope,
    SensorReading,
    TimeRange,
    TransformerSpec,
    canonical_json,
    merge_reading_sets,
    summarize,
)
from syncmesh.wire import (
    HEADER_SIZE,
    Body,
    Envelope,
    MalformedBody,
    MessageKind,
    compress,
    decode_envelope,
    decode_readings,
    decode_response,
    decompress,
    encode_envelope,
    encode_readings,
    encode_request,
    encode_response,
    project_response,
    read_payload,
    response_parts,
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


_compressible = st.one_of(
    st.binary(max_size=3000),
    st.lists(st.sampled_from([b"a", b"ab", b"abc", b"xyz", b"\x00" * 5,
                              b'{"node_id":"node-0', b"sensor-", b"12.5,"]),
             max_size=400).map(b"".join),
    st.tuples(st.binary(min_size=1, max_size=40), st.integers(1, 300))
      .map(lambda t: t[0] * t[1]),
)


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
        b"abcd",
        b"aaaa",
    ], ids=["empty", "one", "two", "three", "long-run", "overlap",
            "far-distance", "xyx", "four", "four-same"])
    def test_roundtrip_edges(self, data):
        assert fastlz.compress(data) == reference_compress(data)
        assert fastlz.decompress(fastlz.compress(data)) == data

    def test_incompressible_data_survives(self, rng):
        data = bytes(rng.randrange(256) for _ in range(20_000))
        out = fastlz.compress(data)
        assert fastlz.decompress(out) == data

    @given(_compressible)
    @settings(max_examples=300)
    def test_roundtrip_property(self, data):
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert fastlz.decompress(out) == data

    def test_truncated_stream_rejected(self):
        out = fastlz.compress(b"abcabcabcabc" * 10)
        with pytest.raises(ValueError):
            fastlz.decompress(out[:-1])


class TestDecompressedOutputCap:
    """No codec writes more than `fastlz.MAX_OUTPUT` bytes, whatever the
    stream asks for."""

    @pytest.mark.parametrize("codec, bomb, size", [
        (CodecId.FASTLZ, FASTLZ_BOMB, FASTLZ_BOMB_OUTPUT),
        (CodecId.GZIP, GZIP_BOMB, GZIP_BOMB_OUTPUT),
    ], ids=["fastlz", "gzip"])
    def test_output_up_to_the_cap_decodes_and_past_it_raises(
            self, monkeypatch, codec, bomb, size):
        monkeypatch.setattr(fastlz, "MAX_OUTPUT", size)
        assert len(decompress(codec, bomb)) == size
        monkeypatch.setattr(fastlz, "MAX_OUTPUT", size - 1)
        with pytest.raises(ValueError, match="passes"):
            decompress(codec, bomb)
        env = Envelope(kind=MessageKind.INGEST, sender="a", receiver="b",
                       body=bomb, codec=codec)
        with pytest.raises(MalformedBody):
            read_payload(env)

    def test_a_truncated_gzip_stream_still_raises(self):
        with pytest.raises(ValueError):
            decompress(CodecId.GZIP, zlib.compress(b"abc" * 100)[:-3])


def _tokens(stream: bytes):
    """The (length, distance) of every match token in a FASTLZ stream."""
    out = []
    i = 0
    while i < len(stream):
        ctrl = stream[i]
        tag = ctrl >> 5
        if tag == 0:
            i += (ctrl & 0x1F) + 2
        elif tag == 7:
            out.append((stream[i + 1] + 9, (((ctrl & 0x1F) << 8) | stream[i + 2]) + 1))
            i += 3
        else:
            out.append((tag + 2, (((ctrl & 0x1F) << 8) | stream[i + 1]) + 1))
            i += 2
    return out


def _noise(n: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(n)


# sha256 of fastlz.compress(encode_readings(...)) over the seed-7 synthetic
# dataset (12 sensors, 30 days, 48 readings a day), taken with the byte-wise
# compressor and reading encoder.
SEED7_READINGS_SHA256 = "589e9c76d36b66860023397616db9f6e20ef9ead0b175d7a1760c4c5fb81024e"
SEED7_FASTLZ_SHA256 = "b833d62f3eac638199c5a75203644dfe7662aca2b4cb48acf46884b5513c9a15"

class TestFastlzTokens:
    """The word-wise compressor writes the byte-wise reference's tokens."""

    @pytest.mark.parametrize("run", [32, 33])
    def test_literal_run_before_match(self, run):
        head = bytes(range(run))
        data = head + head[:8]
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert _tokens(out) == [(8, run)]
        assert fastlz.decompress(out) == data

    @pytest.mark.parametrize("length", [8, 9, 263, 264, 265, 266, 529, 600, 1000])
    def test_match_length(self, length):
        block = _noise(length, seed=length)
        data = block + block
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert sum(n for n, _ in _tokens(out)) >= length
        assert {d for _, d in _tokens(out)} == {length}
        assert fastlz.decompress(out) == data

    @pytest.mark.parametrize("length", [8, 9, 263, 264, 265, 266, 529, 1000])
    def test_run_of_one_byte(self, length):
        data = b"a" * (length + 1)
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert sum(n for n, _ in _tokens(out)) == length
        assert fastlz.decompress(out) == data

    @pytest.mark.parametrize("bit", range(8))
    @pytest.mark.parametrize("at", [3, 4, 8, 31, 32, 33, 70])
    def test_match_ends_at_one_bit_difference(self, bit, at):
        block = _noise(80, seed=at)
        other = bytearray(block)
        other[at] ^= 1 << bit
        data = block + bytes(other)
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert (at, 80) in _tokens(out)
        assert fastlz.decompress(out) == data

    @pytest.mark.parametrize("last, length", [(b"d", 4), (b"e", 3), (b"", 3)])
    def test_match_at_the_end_of_the_data(self, last, length):
        """The 4th byte is the last input byte, or there is none."""
        data = b"abcd" + b"wxyz" + b"abc" + last
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert _tokens(out) == [(length, 8)]
        assert fastlz.decompress(out) == data

    @pytest.mark.parametrize("distance, found", [(8192, True), (8193, False)])
    def test_distance_limit(self, distance, found):
        block = b"\xfe\xfd\xfc\xfb\xfa\xf9"
        data = block + _noise(distance - len(block), seed=1).replace(b"\xfe", b"\x00") + block
        out = fastlz.compress(data)
        assert out == reference_compress(data)
        assert ((len(block), distance) in _tokens(out)) is found
        assert fastlz.decompress(out) == data

    def test_seed7_dataset_pinned(self):
        text = bench.generate_synthetic(12, 30, 48, seed=7)
        _, parts = bench.ingest_csv_text(text, 12)
        raw = encode_readings(merge_reading_sets(parts.values()))
        assert hashlib.sha256(raw).hexdigest() == SEED7_READINGS_SHA256
        assert hashlib.sha256(fastlz.compress(raw)).hexdigest() == SEED7_FASTLZ_SHA256


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
        raw = encode_envelope(Envelope(kind=MessageKind.GOSSIP, sender="a",
                                       receiver="b", body=b"abc"))
        with pytest.raises(ValueError):
            decode_envelope(raw + b"zz")

    def test_kind_values_are_pinned(self):
        assert {k.name: k.value for k in MessageKind} == {
            "QUERY": 1, "RESPONSE": 2, "INGEST": 3, "GOSSIP": 4,
            "GOSSIP_ECHO": 5, "HEARTBEAT": 8}

    @pytest.mark.parametrize("kind_byte", [6, 7])
    def test_unknown_kind_byte_rejected(self, kind_byte):
        raw = encode_envelope(Envelope(kind=MessageKind.QUERY, sender="a",
                                       receiver="b", body=b"abc"))
        with pytest.raises(ValueError):
            decode_envelope(bytes([kind_byte]) + raw[1:])


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


_ids = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["node-00", "nöde-ü", 'say "hi"', "back\\slash", "\u2603\U0001f600",
                     "tab\tnew\nline", ""]),
)
_values = st.one_of(
    st.none(),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, 2**70, -(2**70), 0.1]),
)
_readings = st.builds(
    SensorReading, node_id=_ids, sensor_id=_ids,
    timestamp=st.one_of(st.integers(), st.booleans()),
    lat=_values, lon=_values, p1=_values, p2=_values, temperature=_values,
    humidity=_values, pressure=_values)


def _reference_readings(readings) -> bytes:
    return canonical_json([r.to_json_dict() for r in readings])


class TestReadingText:
    """Each reading's text is written once, by template, and equals the
    generic canonical encoding of its JSON dict."""

    @given(st.lists(_readings, max_size=6))
    @settings(max_examples=200)
    def test_readings_match_reference(self, readings):
        want = _reference_readings(readings)
        assert encode_readings(readings) == want
        assert encode_readings(readings) == want  # from the kept texts
        for r in readings:
            assert encode_readings((r,)) == canonical_json([r.to_json_dict()])

    @given(st.lists(_readings, max_size=6), st.frozensets(_ids, max_size=3),
           st.booleans(), st.sampled_from(list(CodecId)), _ids)
    @settings(max_examples=100)
    def test_response_matches_reference(self, readings, contributing, partial,
                                        codec, request_id):
        resp = QueryResponse(request_id=request_id, payload=tuple(readings),
                             contributing_nodes=contributing, partial=partial,
                             codec=codec)
        want = canonical_json(resp.to_json_dict())
        assert encode_response(resp) == want
        assert encode_response(resp) == want
        assert encode_readings(readings) == _reference_readings(readings)

    def test_projection_ignores_kept_text(self, rng):
        reading = make_reading(rng)
        full = encode_readings((reading,))
        projection = frozenset({"p1"})
        assert encode_readings((reading,), projection) == canonical_json(
            [reading.to_json_dict(projection)])
        assert encode_readings((reading,)) == full

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["lat", "p1", "pressure"])
    def test_non_finite_raises_every_time(self, bad, field):
        reading = SensorReading("node-00", "s", 5, **{field: bad})
        resp = QueryResponse(request_id="q", payload=(reading,))
        for _ in range(2):
            with pytest.raises(ValueError):
                encode_readings((reading,))
            with pytest.raises(ValueError):
                encode_response(resp)

    def test_value_unchanged_by_encoding(self, rng):
        reading = make_reading(rng)
        twin = SensorReading(**{name: getattr(reading, name) for name in (
            "node_id", "sensor_id", "timestamp", "lat", "lon", "p1", "p2",
            "temperature", "humidity", "pressure")})
        before = (hash(reading), repr(reading), pickle.dumps(reading))
        encode_readings((reading,))
        assert reading == twin
        assert (hash(reading), repr(reading), pickle.dumps(reading)) == before
        restored = pickle.loads(pickle.dumps(reading))
        assert restored == reading
        assert encode_readings((restored,)) == encode_readings((reading,))


class TestBody:
    PARTS = (b'{"head":', b"[1,2,3]", b"}")
    JOINED = b'{"head":[1,2,3]}'

    def test_len_and_bytes(self):
        body = Body(self.PARTS)
        assert len(body) == len(self.JOINED)
        assert bytes(body) == self.JOINED
        assert body.parts == self.PARTS
        with pytest.raises(AttributeError):
            body.parts = ()

    def test_equality_and_hash_are_those_of_the_joined_bytes(self):
        body = Body(self.PARTS)
        split_elsewhere = Body((self.JOINED[:3], self.JOINED[3:]))
        for same in (self.JOINED, bytearray(self.JOINED), split_elsewhere,
                     Body(self.PARTS)):
            assert body == same and same == body
            assert not body != same
        for same in (self.JOINED, split_elsewhere):
            assert hash(body) == hash(same)
        assert {self.JOINED: "found"}[body] == "found"
        same_length = Body((b'{"head":', b"[1,2,4]", b"}"))
        for other in (same_length, self.JOINED[:-1], self.JOINED + b" ",
                      bytes(same_length), Body(()), b""):
            assert body != other and other != body
        assert body != self.JOINED.decode()

    def test_envelope_with_a_body_encodes_and_compares_as_its_bytes(self):
        env = Envelope(kind=MessageKind.RESPONSE, sender="node-03",
                       receiver="client", body=Body(self.PARTS),
                       request_id="q-7")
        joined = replace(env, body=self.JOINED)
        raw = encode_envelope(env)
        assert raw == encode_envelope(joined)
        assert env.wire_size == joined.wire_size == len(raw)
        decoded = decode_envelope(raw)
        assert decoded == env and env == decoded
        assert hash(decoded) == hash(env)
        assert decoded.body == self.JOINED


_finite = st.one_of(st.none(), st.floats(-1e6, 1e6))
_summed_readings = st.builds(
    SensorReading, node_id=_ids, sensor_id=_ids, timestamp=st.integers(0, 10**12),
    p1=_finite, p2=_finite, temperature=_finite, humidity=_finite,
    pressure=_finite)


@st.composite
def _responses(draw):
    readings = tuple(draw(st.lists(_summed_readings, max_size=6)))
    if draw(st.booleans()):
        fields = draw(st.lists(st.sampled_from(NUMERIC_FIELDS), min_size=1,
                               max_size=5, unique=True))
        payload = summarize(readings, tuple(fields))
    else:
        payload = readings
    return QueryResponse(
        request_id=draw(_ids), payload=payload,
        contributing_nodes=draw(st.frozensets(_ids, max_size=3)),
        partial=draw(st.booleans()), codec=draw(st.sampled_from(list(CodecId))))


class TestResponseParts:
    """The one response builder joins to the body as first spliced."""

    @given(_responses(), st.one_of(
        st.just(frozenset()),
        st.frozensets(st.sampled_from(FIELD_NAMES), min_size=1, max_size=4)))
    @settings(max_examples=150)
    def test_joined_parts_match_reference(self, resp, projection):
        want = reference_encode_response(resp, projection)
        parts = response_parts(resp, projection)
        assert b"".join(parts) == want
        assert encode_response(resp, projection) == want
        body = Body(parts)
        assert body == want and len(body) == len(want)
        assert compress(resp.codec, body) == compress(resp.codec, want)
        assert decompress(resp.codec, compress(resp.codec, want)) == want

    def test_an_unprojected_readings_payload_splices_the_given_array(self, rng):
        readings = merge_reading_sets([[make_reading(rng) for _ in range(5)]])
        resp = QueryResponse(request_id="q", payload=readings,
                             contributing_nodes=frozenset({"node-01"}))
        array = encode_readings(readings)
        head, spliced, tail = response_parts(resp, readings_array=lambda _: array)
        assert spliced is array
        assert head + spliced + tail == reference_encode_response(resp)
        assert len(response_parts(resp, frozenset({"p1"}))) == 1

    def test_a_digest_hashes_the_held_array_or_encodes(self, rng):
        """`PayloadOps.payload_digest` hashes the readings array it holds for
        an answer and encodes one it holds none for: the same digest."""
        held = merge_reading_sets([[make_reading(rng) for _ in range(6)]])
        other = merge_reading_sets([[make_reading(rng) for _ in range(4)]])
        ops = PayloadOps()
        req = QueryRequest(request_id="q", range=TimeRange(1, 10**12),
                           scope=Scope.MESH)
        ops.response_envelope(
            req, QueryResponse(request_id="q", payload=held), "a", "b")
        calls = []

        def counted(readings):
            calls.append(readings)
            return encode_readings(readings)

        for payload in (held, other):
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wire, "encode_readings", counted)
                digest = ops.payload_digest(payload)
            assert digest == fingerprint(encode_readings(payload))
            assert calls == ([] if payload is held else [other])


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
        summary = replace(resp, payload=summarize(readings, ("p1", "humidity")),
                          codec=CodecId.GZIP)
        cases = [
            (MessageKind.QUERY, CodecId.NONE, encode_request(req), req),
            (MessageKind.RESPONSE, CodecId.FASTLZ, encode_response(resp), resp),
            (MessageKind.INGEST, CodecId.FASTLZ, encode_readings(readings), readings),
            (MessageKind.GOSSIP, CodecId.NONE, encode_readings(readings), readings),
            (MessageKind.INGEST, CodecId.NONE, encode_readings(readings[:1]),
             readings[:1]),
            (MessageKind.RESPONSE, CodecId.GZIP, encode_response(summary), summary),
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
        (MessageKind.GOSSIP, CodecId.NONE, b'[{"sensor_id":"s","timestamp":5}]'),
        (MessageKind.GOSSIP, CodecId.NONE, b"\xff\xfe"),
        (MessageKind.INGEST, CodecId.NONE, b'{"a":1}'),
        (MessageKind.INGEST, CodecId.FASTLZ, b"\x05ab"),
        (MessageKind.RESPONSE, CodecId.GZIP, b"not deflate"),
        (MessageKind.RESPONSE, CodecId.NONE, b'{"payload_kind":"readings"}'),
        (MessageKind.RESPONSE, CodecId.NONE,
         b'{"request_id":"q","payload_kind":"summary","payload":{"p1":1}}'),
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
