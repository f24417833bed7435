"""Query evaluation, response assembly and payload merging.

These helpers are shared by the mesh node and every baseline so that all
systems answer queries with identical semantics. `PayloadOps` optionally
memoizes encode/merge results: all of them are pure functions of
deterministic inputs, so repeated benchmark repetitions can reuse work
without changing any byte that goes on the wire.
"""

from __future__ import annotations

import hashlib

from .model import (
    NUMERIC_FIELDS,
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    Summary,
    ValidationError,
    canonical_json,
    in_canonical_order,
    merge_reading_sets,
    merge_summaries,
    summarize,
    validate_reading,
    validate_request,
)
from . import wire


class TransformerUnknown(Exception):
    """The requested transformer name is not registered on this node."""


def transform_identity(readings: ReadingSet, params: dict[str, str]) -> ReadingSet:
    return tuple(readings)


def transform_aggregate_mean(readings: ReadingSet, params: dict[str, str]) -> Summary:
    raw = params.get("fields")
    fields = tuple(raw.split(",")) if raw else NUMERIC_FIELDS
    return summarize(readings, fields)


def transform_downsample(readings: ReadingSet, params: dict[str, str]) -> ReadingSet:
    k = int(params.get("k", "1"))
    if k < 1:
        raise ValueError("downsample step k must be >= 1")
    return in_canonical_order(readings)[::k]


BUILTIN_TRANSFORMERS = {
    "identity": transform_identity,
    "aggregate_mean": transform_aggregate_mean,
    "downsample": transform_downsample,
}


def apply_transformer(spec, readings: ReadingSet) -> "ReadingSet | Summary":
    fn = BUILTIN_TRANSFORMERS.get(spec.name)
    if fn is None:
        raise TransformerUnknown(spec.name)
    return fn(readings, spec.params_dict)


def answerable(req: QueryRequest, transformers=BUILTIN_TRANSFORMERS) -> bool:
    """Whether a received query passes `validate_request` and names a
    transformer of `transformers` (name -> function) that accepts its
    parameters, judged by a dry run on no readings. Handlers drop a query
    that does not, so one bad request cannot end the run."""
    try:
        validate_request(req)
        spec = req.transformer
        if spec is not None:
            fn = transformers.get(spec.name)
            if fn is None:
                return False
            fn((), spec.params_dict)
    except (ValueError, TypeError):
        return False
    return True


def all_valid(readings) -> bool:
    """Whether every reading passes `validate_reading`. Handlers load none of
    a received batch that does not."""
    try:
        for r in readings:
            validate_reading(r)
    except (ValidationError, TypeError):
        return False
    return True


def evaluate_query(store, req: QueryRequest,
                   run=apply_transformer) -> "ReadingSet | Summary":
    """The single-store answer to a query: raw readings, or the output of
    `run(transformer, readings)`."""
    readings = store.query(req.range)
    if req.transformer is None:
        return readings
    return run(req.transformer, readings)


def merge_payloads(parts) -> "ReadingSet | Summary":
    """Merge per-node partial payloads; all parts must share one kind."""
    parts = list(parts)
    if parts and isinstance(parts[0], Summary):
        return merge_summaries(parts)
    return merge_reading_sets(parts)


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def request_token(req: QueryRequest) -> str:
    """Stable token for everything that determines a query's answer.

    Cache sources must embed this so two requests over different ranges,
    projections or transformers can never share an entry.
    """
    transformer = "-"
    if req.transformer is not None:
        params = ";".join(f"{k}={v}" for k, v in req.transformer.params)
        transformer = f"{req.transformer.name}({params})"
    projection = ",".join(sorted(req.projection))
    return f"{req.range.start}:{req.range.end}|{projection}|{transformer}"


class PayloadOps:
    """Response assembly with optional cross-repetition memoization.

    `scope_key` namespaces cache entries by dataset so two scenarios sharing
    one cache can never collide. With cache=None every call computes afresh.
    """

    def __init__(self, cache: dict | None = None, scope_key: str = ""):
        self.cache = cache
        self.scope_key = scope_key

    def memo(self, key, fn):
        if self.cache is None:
            return fn()
        full = (self.scope_key,) + key
        try:
            return self.cache[full]
        except KeyError:
            value = fn()
            self.cache[full] = value
            return value

    # -- outgoing ----------------------------------------------------------

    def response_envelope(self, resp: QueryResponse, sender: str, receiver: str,
                          projection=frozenset(),
                          source: str | None = None) -> wire.Envelope:
        """RESPONSE envelope for resp: the compressed canonical body, memoized
        per source, and as payload the response the receiver would decode."""
        def build():
            raw = wire.encode_response(resp, projection)
            return wire.compress(resp.codec, raw)

        if source is None:
            body = build()
        else:
            key = ("resp", source, resp.request_id, resp.codec.value,
                   resp.partial, tuple(sorted(resp.contributing_nodes)),
                   tuple(sorted(projection)))
            body = self.memo(key, build)
        return wire.Envelope(
            kind=wire.MessageKind.RESPONSE, sender=sender, receiver=receiver,
            body=body, codec=resp.codec, request_id=resp.request_id,
            payload_tag=resp.payload_kind,
            payload=wire.project_response(resp, projection))

    def readings_bytes(self, readings: ReadingSet, codec: CodecId,
                       source: str | None = None) -> bytes:
        def build():
            return wire.compress(codec, wire.encode_readings(readings))

        if source is None:
            return build()
        return self.memo(("readings", source, codec.value), build)

    # -- merging -----------------------------------------------------------

    def merge(self, parts, merge_key: tuple | None = None) -> "ReadingSet | Summary":
        if merge_key is None:
            return merge_payloads(parts)
        return self.memo(("merge",) + merge_key, lambda: merge_payloads(parts))

    def payload_digest(self, payload: "ReadingSet | Summary",
                       source: str | None = None) -> str:
        """Hex digest of the uncompressed canonical payload encoding."""
        def build():
            if isinstance(payload, Summary):
                return fingerprint(canonical_json(payload.to_json_dict()))
            return fingerprint(wire.encode_readings(payload))

        if source is None:
            return build()
        return self.memo(("digest", source), build)
