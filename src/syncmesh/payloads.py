"""Query evaluation, response assembly and payload merging.

These helpers are shared by the mesh node and every baseline so that all
systems answer queries with identical semantics. `PayloadOps` optionally
memoizes answers and encode/merge results: all of them are pure functions
of deterministic inputs, so repeated benchmark repetitions can reuse work
without changing any byte that goes on the wire. The memo key of each
call is built here, from that call's own inputs, never by its caller; a
cache hit costs one dict lookup and re-computes nothing.
"""

from __future__ import annotations

import hashlib
import os.path

from .model import (
    NUMERIC_FIELDS,
    CodecId,
    QueryRequest,
    QueryResponse,
    ReadingSet,
    Summary,
    ValidationError,
    canonical_json,
    merge_reading_sets,
    merge_summaries,
    summarize,
    validate_reading,
    validate_request,
)
from . import cores, fastlz, wire


class TransformerUnknown(Exception):
    """The requested transformer name is not built in."""


def transform_aggregate_mean(readings: ReadingSet) -> Summary:
    return summarize(readings, NUMERIC_FIELDS)


# The one transformer table: every system runs these, by name.
BUILTIN_TRANSFORMERS = {"aggregate_mean": transform_aggregate_mean}


def apply_transformer(spec, readings: ReadingSet) -> Summary:
    """The output of the built-in transformer `spec` names over readings."""
    fn = BUILTIN_TRANSFORMERS.get(spec.name)
    if fn is None:
        raise TransformerUnknown(spec.name)
    return fn(readings)


def read_query(env: wire.Envelope) -> QueryRequest | None:
    """The request a QUERY envelope carries, or None for any other kind and
    for a query to drop: its body does not decode to a request
    (`QueryRequest.from_json_dict`), the request fails `validate_request`,
    or it names a transformer that is not built in. Every query handler
    reads through this, so one bad request cannot end the run."""
    if env.kind is not wire.MessageKind.QUERY:
        return None
    try:
        req = wire.read_payload(env)
        validate_request(req)
        if (req.transformer is not None
                and req.transformer.name not in BUILTIN_TRANSFORMERS):
            return None
    except (ValueError, TypeError):
        return None
    return req


def all_valid(readings) -> bool:
    """Whether every reading passes `validate_reading`. Handlers load none of
    a received batch that does not."""
    try:
        for r in readings:
            validate_reading(r)
    except (ValidationError, TypeError):
        return False
    return True


def evaluate_query(store, req: QueryRequest) -> "ReadingSet | Summary":
    """The single-store answer to a query: raw readings, or the built-in
    transformer's output over them."""
    readings = store.query(req.range)
    if req.transformer is None:
        return readings
    return apply_transformer(req.transformer, readings)


def merge_payloads(parts) -> "ReadingSet | Summary":
    """Merge per-node partial payloads; all parts must share one kind."""
    parts = list(parts)
    if parts and isinstance(parts[0], Summary):
        return merge_summaries(parts)
    return merge_reading_sets(parts)


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _gzip_bodies(responses) -> list[bytes]:
    """`[wire.compress(GZIP, wire.encode_response(r)) for r in responses]`,
    encoded in turn. While this process encodes a body, a running helper
    (`cores.helper`) deflates the one before it, if that one has at least
    `fastlz.SPLIT_MIN_BYTES`: it is sent as a `cores.GZIP` job as soon as
    it is encoded, and the reply is read once the next body is, so the
    helper holds one job at a time. The last body, with nothing left to
    encode beside it, is deflated here, and so is one the helper declines
    or fails; the bytes are the same either way."""
    helper = cores.helper
    out = []
    held = None  # the body the helper is deflating
    for i, resp in enumerate(responses, 1):
        body = wire.encode_response(resp)
        if held is not None:
            reply = helper.reply(bytes)
            out.append(wire.compress(CodecId.GZIP, held) if reply is None
                       else reply)
            held = None
        if (i < len(responses) and len(body) >= fastlz.SPLIT_MIN_BYTES
                and helper.running and helper.send(cores.GZIP, body)):
            held = body
        else:
            out.append(wire.compress(CodecId.GZIP, body))
    return out


class PayloadOps:
    """Response assembly with optional cross-repetition memoization.

    Each method builds its own memo key from its arguments, so a caller
    passes what it already holds and never writes a key. `scope_key`, set
    once per scenario run as (system, dataset key), namespaces the entries,
    so a key names only what varies inside one system's run over one
    dataset: the request (a frozen `QueryRequest`, compared by value),
    who answers, sends or merges, and which nodes contributed. Within the
    namespace each owner's data is fixed, so an answer depends on the
    owners and the request alone. A system that ships its data answers
    from what its ingest delivered, so `bench._PhaseReplay` adds the
    number of that end state to the namespace of its query. Keys of
    different methods differ in length, so they never meet: one part for
    an answer, two for a digest, three for a merge, four for an encoded
    batch and five for a response body. `batch_bodies` takes a list in one
    call, and still keys each body on its own. So the memo may hold a body
    built before its query arrives: a fan-out, the sharded router's or the
    mesh coordinator's, is preceded by one `build_ahead`, the one
    build-ahead rule, which builds every target's answer and body
    together, and each target finds its own in the memo. With cache=None
    every call computes afresh.

    An uncompressed (`CodecId.NONE`) response body is sent as a `wire.Body`
    of parts and never joined here: its readings array is encoded once per
    answer object, and every body built around that same object holds the
    one array. A synced p2p mesh answers a range from one shared replica
    with one tuple, so its peers' bodies differ only in head and tail. The
    envelope counts the body's length; its bytes are joined only where they
    are read. The answer is held beside its array, so its id is not reused
    while this object lives, with or without a cache.

    `endings`, a dict owned by the caller (by default this object's own),
    keeps the `fastlz.Ending` of each FASTLZ readings response body parsed
    whole, alone or in a `fastlz.compress_all` batch, under (head bytes,
    sha256 of the readings array) with the body's tail: the stream the
    memo already holds, and two integers. A later body with the same key
    `fastlz.resume`s that parse: it shares the head, the array and the
    common prefix of the two tails, so only its own tail is parsed. A
    resumed body keeps the ending it resumed. The array's digest is held
    beside its answer, as an encoded array is, so `payload_digest` reads
    it instead of encoding and hashing the array again. The bytes are the
    same either way.
    """

    def __init__(self, cache: dict | None = None, scope_key=(),
                 endings: dict | None = None):
        self.cache = cache
        self.scope_key = scope_key
        self.endings = {} if endings is None else endings
        self._arrays: dict[int, tuple[ReadingSet, bytes]] = {}
        self._digests: dict[int, tuple[ReadingSet, bytes]] = {}

    def memo(self, key: tuple, fn):
        if self.cache is None:
            return fn()
        full = (self.scope_key,) + key
        try:
            return self.cache[full]
        except KeyError:
            value = fn()
            self.cache[full] = value
            return value

    # -- answering ---------------------------------------------------------

    def answer(self, owners: tuple[str, ...], req: QueryRequest,
               compute) -> "ReadingSet | Summary":
        """`compute()`, the answer to req over the data that `owners` hold:
        one node's or server's local answer, or a client's transform over
        the readings merged from those peers."""
        return self.memo(((owners, req),), compute)

    # -- outgoing ----------------------------------------------------------

    def local_response(self, owner: str, store, req: QueryRequest,
                       codec: CodecId) -> QueryResponse:
        """`owner`'s complete answer to req over its own `store` alone, to
        be sent with `codec`: a shard's answer to any query, and a mesh
        node's to a LOCAL one."""
        return QueryResponse(
            request_id=req.request_id,
            payload=self.answer((owner,), req,
                                lambda: evaluate_query(store, req)),
            contributing_nodes=frozenset({owner}), partial=False, codec=codec)

    def response_envelope(self, req: QueryRequest, resp: QueryResponse,
                          sender: str, receiver: str) -> wire.Envelope:
        """RESPONSE envelope answering req: resp's body, and resp itself as
        payload. The body is memoized under a key of five parts (sender,
        req, contributing nodes, partial, codec), the same for every
        receiver, so it may have been built by `build_ahead`."""
        body = self.memo((sender, req, resp.contributing_nodes, resp.partial,
                          resp.codec), lambda: self._bodies([resp])[0])
        return wire.Envelope(
            kind=wire.MessageKind.RESPONSE, sender=sender, receiver=receiver,
            body=body, codec=resp.codec, request_id=resp.request_id, payload=resp)

    def build_ahead(self, req: QueryRequest, owners, stores: dict,
                    codec: CodecId) -> None:
        """Before a fan-out sends req to `owners`, build each one's
        `local_response` over its store in `stores` (owner -> store), and
        its body, into the memo under `response_envelope`'s key. The
        targets of a modeled fan-out work at the same time, so their bodies
        are built together, in one `_bodies` call: FASTLZ bodies two at a
        time, GZIP ones each deflated by the helper while the next is
        encoded. Each target then finds its body in the memo when req
        arrives; one built for a target that never gets req is never sent.
        Without a memo nothing is built ahead, so no body is built twice.
        On a cache hit it costs one memo lookup per target."""
        if self.cache is None:
            return
        keys = {owner: (owner, req, frozenset({owner}), False, codec)
                for owner in owners}
        fresh = {}

        def build(owner):
            if not fresh:  # the first miss builds every body the cache lacks
                missing = [o for o, key in keys.items()
                           if (self.scope_key,) + key not in self.cache]
                fresh.update(zip(missing, self._bodies([
                    self.local_response(o, stores[o], req, codec)
                    for o in missing])))
            return fresh[owner]

        for owner, key in keys.items():
            self.memo(key, lambda: build(owner))

    def _bodies(self, responses) -> list:
        """The body of each response. GZIP bodies are deflated as
        `_gzip_bodies` says. A FASTLZ readings body resumes the ending kept
        under its head and the sha256 of its array when it can; the rest are
        compressed whole, in one `fastlz.compress_all`, and a readings body
        keeps its ending."""
        bodies = [None] * len(responses)
        gzip = []  # the index of each GZIP body
        whole = []  # (index, body, (key, tail) or None) to compress whole
        for i, resp in enumerate(responses):
            if resp.codec is CodecId.NONE:
                bodies[i] = wire.Body(
                    wire.response_parts(resp, self._readings_array))
                continue
            if resp.codec is CodecId.GZIP:
                gzip.append(i)
                continue
            parts = wire.response_parts(resp)
            body = b"".join(parts)
            if len(parts) == 1:
                whole.append((i, body, None))
                continue
            head, array, tail = parts
            digest = hashlib.sha256(array).digest()
            self._digests[id(resp.payload)] = (resp.payload, digest)
            del parts, array  # the body holds them: free before the parse
            key = (head, digest)
            kept = self.endings.get(key)
            if kept is not None:
                kept_tail, ending = kept
                common = (len(body) - len(tail)
                          + len(os.path.commonprefix((kept_tail, tail))))
                bodies[i] = fastlz.resume(body, ending, common)
                if bodies[i] is not None:
                    continue
            whole.append((i, body, (key, tail)))
        for i, body in zip(gzip, _gzip_bodies([responses[i] for i in gzip])):
            bodies[i] = body
        endings = fastlz.compress_all([body for _, body, _ in whole])
        for (i, _, keep), ending in zip(whole, endings):
            bodies[i] = ending.stream
            if keep is not None:
                key, tail = keep
                self.endings[key] = (tail, ending)
        return bodies

    def _readings_array(self, readings: ReadingSet) -> bytes:
        """`wire.encode_readings(readings)`, encoded once per object."""
        held = self._arrays.get(id(readings))
        if held is None:
            held = self._arrays[id(readings)] = (
                readings, wire.encode_readings(readings))
        return held[1]

    def batch_bodies(self, batches, codec: CodecId) -> list:
        """The compressed encoding of each (sender, start, batch) of
        `batches`, where the batch is the slice of the sender's partition
        that begins at offset `start`. Each body is memoized under its own
        key, once per batch; the FASTLZ bodies the cache lacks are
        compressed together by `fastlz.compress_all`."""
        keys = [(sender, start, len(batch), codec)
                for sender, start, batch in batches]
        missing = [i for i, key in enumerate(keys) if self.cache is None
                   or (self.scope_key,) + key not in self.cache]
        bodies = [wire.encode_readings(batches[i][2]) for i in missing]
        if codec is CodecId.FASTLZ:
            bodies = [ending.stream for ending in fastlz.compress_all(bodies)]
        else:
            bodies = [wire.compress(codec, body) for body in bodies]
        fresh = dict(zip(missing, bodies))
        return [self.memo(key, lambda: fresh[i]) for i, key in enumerate(keys)]

    # -- merging -----------------------------------------------------------

    def merge(self, owner: str, req: QueryRequest,
              parts_by_sender: dict) -> "ReadingSet | Summary":
        """Merge the parts `owner` holds for req, in the dict's order."""
        return self.memo((owner, req, tuple(parts_by_sender)),
                         lambda: merge_payloads(parts_by_sender.values()))

    def payload_digest(self, payload: "ReadingSet | Summary",
                       req: QueryRequest | None = None,
                       contributing: frozenset[str] = frozenset()) -> str:
        """Hex digest of the uncompressed canonical payload encoding, the
        answer to req from the `contributing` nodes. Without a cache the
        two may be left out. A readings payload whose array, or its digest,
        this object holds is not encoded again."""
        def build():
            if isinstance(payload, Summary):
                return fingerprint(canonical_json(payload.to_json_dict()))
            held = self._arrays.get(id(payload))
            if held is not None:
                return fingerprint(held[1])
            held = self._digests.get(id(payload))
            if held is not None:
                return held[1].hex()
            return fingerprint(wire.encode_readings(payload))

        return self.memo((req, contributing), build)
