"""The process's second core: FASTLZ's spliced parse and a parse resumed
from a kept ending write the reference stream, a kept ending does not
outlive the command that owns it, the synthetic dataset written on two
cores is the reference text, and the process's one helper does not outlive
the interpreter."""

import collections
import gc
import hashlib
import io
import os
import random
import re
import signal
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from oracles import (
    SEED7_12_NODE_CSV_SHA256,
    reference_compress,
    reference_generate,
)
from syncmesh import baselines, bench, cores, fastlz, payloads, synthetic
from syncmesh.model import CodecId, Scope, merge_reading_sets
from syncmesh.wire import encode_readings

# A helper process starts only on a host with two usable CPUs. An unwaited
# Popen or an unclosed pipe is an error in every test (pyproject.toml).
TWO_CPUS = pytest.mark.skipif(cores._usable_cpus() < 2,
                              reason="one usable CPU starts no helper")


class InProcessHelper(cores.Helper):
    """A `cores.Helper` whose jobs run in this process: `Helper.reply`
    reads the one frame the helper's loop would write. It holds one job at
    a time, as a real helper's caller must."""

    _frame = None

    def send(self, job, body):
        assert self._frame is None, "a second job sent before the reply"
        self._frame = cores._answer(job, bytes(body))
        return True

    def _read(self):
        frame, self._frame = self._frame, None
        return frame


class FailingHelper(InProcessHelper):
    """An `InProcessHelper` that, at its `at`-th send, declines it or takes
    it and then has no reply; from then on it declines, as a closed helper
    does."""

    def __init__(self, at, how):
        super().__init__()
        self.at, self.how, self.sends = at, how, 0

    def send(self, job, body):
        if self._closed:
            return False
        self.sends += 1
        if self.sends == self.at and self.how == "declines":
            self.close()
            return False
        return super().send(job, body)

    def _read(self):
        frame = super()._read()
        if self.sends == self.at and self.how == "no reply":
            raise ValueError("no reply")  # `Helper.reply` closes the helper
        return frame


class ReplyingProcess:
    """Stands in for a helper's process: it takes what is sent to it and
    answers with `reply`, and it records what it was sent when killed."""

    def __init__(self, reply):
        self.stdin, self.stdout = io.BytesIO(), io.BytesIO(reply)
        self.sent = None

    def kill(self):
        self.sent = self.stdin.getvalue()

    def wait(self):
        return -9


@pytest.fixture
def install(monkeypatch):
    """Makes a helper the module's one helper, for the test; each one
    installed is closed at teardown. A closed helper gives the one-core
    stream."""
    installed = []

    def install(helper):
        monkeypatch.setattr(cores, "helper", helper)
        installed.append(helper)
        return helper

    yield install
    for helper in installed:
        helper.close()


def _closed_helper() -> cores.Helper:
    helper = cores.Helper()
    helper.close()
    return helper


@pytest.fixture
def splices(monkeypatch):
    """Counts of split parses that spliced and that fell back."""
    paths = collections.Counter()
    agree = fastlz._parse_to_agreement

    def recorded(*args):
        result = agree(*args)
        paths["spliced" if result[2] is not None else "fall-back"] += 1
        return result

    monkeypatch.setattr(fastlz, "_parse_to_agreement", recorded)
    return paths


@pytest.fixture
def whole_jobs(monkeypatch, splices):
    """A function that gives the number of whole bodies the helper has
    answered so far, `fastlz.compress_all`'s jobs: the PARSE replies read,
    less the split parses' tails, each of which `splices` counts."""
    read = []
    reply = cores.Helper.reply

    def recorded(helper, reader):
        got = reply(helper, reader)
        if reader is fastlz._ending and got is not None:
            read.append(got)
        return got

    monkeypatch.setattr(cores.Helper, "reply", recorded)
    return lambda: len(read) - sum(splices.values())


def _reading_json(sensor: int, ts: int, value: int) -> bytes:
    return (b'{"node_id":"node-%02d","sensor_id":"sensor-%03d","timestamp":%d,'
            b'"temperature":%d.%02d},' % (sensor % 12, sensor, ts, value // 100,
                                          value % 100))


def _readings_body(count: int) -> bytes:
    """A readings array of `count` readings; at 1500 (139 KB) its split
    parse splices."""
    return b"[%s]" % b"".join(
        _reading_json(i % 41, 1_600_000_000_000 + 60_000 * i, i * 37 % 4000)
        for i in range(count))


@st.composite
def _bodies(draw):
    """Reading-JSON fragments over a drawn number of distinct readings (few
    give long matches, so the two parses soon agree; many rarely do), with
    runs of a small alphabet, copies of earlier stretches longer than one
    match token (264 bytes), literal runs longer than 32 bytes and longer
    than the 8192-byte reach of a match, and sometimes a copy that the body
    ends inside."""
    distinct = draw(st.integers(1, 200))
    body = bytearray(b"[")
    for i in draw(st.lists(st.integers(0, 10**6), min_size=150, max_size=300)):
        i %= distinct
        body += _reading_json(i % 41, 1_600_000_000_000 + 60_000 * i, i * 37 % 4000)
    for at, kind, seed in draw(st.lists(st.tuples(
            st.floats(0, 1),
            st.sampled_from(["alphabet", "copy", "literal", "noise"]),
            st.integers(0, 2**32)), max_size=8)):
        rng = random.Random(seed)
        cut = int(at * len(body))
        if kind == "alphabet":
            piece = bytes(rng.choice(b"ab") for _ in range(rng.randrange(40, 700)))
        elif kind == "copy":
            start = rng.randrange(cut + 1)
            piece = bytes(body[start:start + rng.randrange(265, 1200)])
        elif kind == "literal":
            piece = rng.randbytes(rng.randrange(33, 120))
        else:  # no match for more than 8192 bytes
            piece = rng.randbytes(rng.randrange(8192, 12288))
        body[cut:cut] = piece
    if draw(st.booleans()):
        start = draw(st.integers(0, len(body) - 1))
        body += body[start:start + draw(st.integers(3, 900))]
    return bytes(body)


def test_a_split_parse_writes_the_reference_stream(monkeypatch, install,
                                                   splices):
    """Any split point and window (`fastlz._WINDOW` patched): the output is
    the one-core stream, whether the two parses were spliced or this
    process parsed on alone, and its ending resumes the same body to that
    stream (after a splice its reach is the helper's, shifted, or the
    splice's, when it lies later)."""

    @given(body=_bodies(), split=st.integers(0, 4096),
           window=st.integers(0, 40).map(lambda k: 1024 * k))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def split_parse(body, split, window):
        monkeypatch.setattr(fastlz, "_WINDOW", window)
        install(InProcessHelper())
        before = splices["spliced"]
        ending = fastlz._compress(body, min(split, len(body)))
        event("spliced" if splices["spliced"] > before else "fall-back")
        assert ending.stream == reference_compress(body)
        assert fastlz.resume(body, ending, len(body)) in (None, ending.stream)

    split_parse()
    assert splices["spliced"] and splices["fall-back"], splices


def test_compress_all_writes_each_reference_stream(monkeypatch, install):
    """Any list of bodies, short ones and an odd count among them, with a
    helper that takes every second body, that declines one partway through
    or that has no reply for one: each output is the one-core stream."""
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)  # every list of two

    @given(bodies=st.lists(st.one_of(_bodies(), st.binary(max_size=3)),
                           max_size=7),
           how=st.sampled_from(["takes all", "declines", "no reply"]),
           at=st.integers(1, 4))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def compress_all(bodies, how, at):
        helper = install(FailingHelper(at, how))
        event(f"{'odd' if len(bodies) % 2 else 'even'} count, {how}")
        out = [ending.stream for ending in fastlz.compress_all(bodies)]
        assert out == [reference_compress(body) for body in bodies]
        assert helper._frame is None

    compress_all()


def test_every_stream_is_bytes(monkeypatch, install, splices):
    """A memoryview slice of a reply frame compares equal to its bytes, so
    only the type shows which one reaches a memo entry or an envelope:
    spliced, whole from the helper, parsed here or resumed, a stream is
    `bytes`."""
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)
    body = _readings_body(1500)
    one_core = fastlz._compress(body).stream
    install(InProcessHelper())
    ending = fastlz.compress_ending(body)
    streams = [one_core, fastlz.compress(body),
               ending.stream,
               *(e.stream for e in fastlz.compress_all([body, body])),
               fastlz.resume(body[:-1] + b",]", ending, len(body) - 1)]
    assert splices == {"spliced": 2}
    assert [type(stream) for stream in streams] == [bytes] * 6
    assert streams[1:5] == [streams[0]] * 4


@pytest.mark.parametrize("kind, at", [
    pytest.param("live", None, marks=TWO_CPUS), ("in-process", None),
    ("declines", 1), ("declines", 2), ("no reply", 1), ("no reply", 2),
    ("closed", None)])
def test_compress_all_keeps_each_bodys_ending(started, install, splices,
                                              kind, at):
    """Three bodies, the last of at least `SPLIT_MIN_BYTES`: the first two
    go as a pair, the helper taking the second whole, and the last is split.
    With a live helper, an in-process one, one that declines or has no
    reply to its first job (the whole body) or its second (the split
    tail), or a closed one, each stream is the one-core stream, and each
    ending resumes its body, extended by more readings, to `compress`'s
    bytes."""
    bodies = [_readings_body(count) for count in (600, 700, 2200)]
    assert len(bodies[-1]) >= fastlz.SPLIT_MIN_BYTES
    if kind == "live":
        helper = install(cores.Helper())
    elif kind == "in-process":
        helper = install(InProcessHelper())
    elif kind == "closed":
        helper = install(_closed_helper())
    else:
        helper = install(FailingHelper(at, kind))
    endings = fastlz.compress_all(bodies)
    assert [e.stream for e in endings] == [
        fastlz._compress(body).stream for body in bodies]
    assert splices == ({"spliced": 1} if kind in ("live", "in-process")
                       else {})
    more = _readings_body(40)[1:]
    for body, ending in zip(bodies, endings):
        extended = body[:-1] + b"," + more
        got = fastlz.resume(extended, ending, len(body) - 1)
        assert got is not None and got == fastlz._compress(extended).stream
    if kind != "live":
        assert getattr(helper, "_frame", None) is None
    assert _exited(started) == ([False] if kind == "live" else [])


@pytest.mark.parametrize("batch", [False, True],
                         ids=["compress", "compress_all"])
@pytest.mark.parametrize("frame", ["shorter than its ending",
                                   "longer than MAX_OUTPUT"])
def test_a_bad_reply_frame_closes_the_helper(monkeypatch, install, frame,
                                             batch):
    """A helper whose reply frame cannot hold an ending, or is the right
    reply but longer than `cores.MAX_REPLY` (patched), is closed after the one
    request it took; every body is still the one-core stream."""
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)
    bodies = [_readings_body(count) for count in (600, 700, 800)]
    # The second body goes whole to a batch's helper; `compress` splits.
    split = max((len(bodies[0]) - fastlz._WINDOW // 2) // 2, 0)
    tail = bodies[1] if batch else bodies[0][split:]
    reply = fastlz._parse_tail(tail)
    if frame == "shorter than its ending":
        reply = reply[:15]
    else:
        monkeypatch.setattr(cores, "MAX_REPLY", len(reply) - 1)
    helper = install(cores.Helper())
    proc = ReplyingProcess(cores._REPLY.pack(len(reply)) + reply)
    helper._proc = proc
    if batch:
        out = [ending.stream for ending in fastlz.compress_all(bodies)]
    else:
        out = [fastlz.compress(body) for body in bodies]
    assert proc.sent == cores._REQUEST.pack(cores.PARSE, len(tail)) + tail
    assert helper._proc is None and not helper.send(cores.PARSE, bodies[0])
    assert out == [reference_compress(body) for body in bodies]


def test_the_helper_program_answers_one_frame_per_tail():
    """The helper program on any host, without `Helper`: one request frame
    in, one reply frame out, equal to `_parse_tail`'s; at the end of its
    input it exits with status 0."""
    tail = _readings_body(400)
    want = fastlz._parse_tail(tail)
    ending = fastlz.compress_ending(tail)
    assert want == (fastlz._ENDING.pack(ending.reach, ending.anchor)
                    + ending.stream)
    proc = subprocess.Popen([sys.executable, "-I", "-S", cores.__file__],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    with proc:
        proc.stdin.write(cores._REQUEST.pack(cores.PARSE, len(tail)) + tail)
        proc.stdin.flush()
        (size,) = cores._REPLY.unpack(proc.stdout.read(cores._REPLY.size))
        got = proc.stdout.read(size)
        proc.stdin.close()
        rest = proc.stdout.read()
        status = proc.wait(timeout=60)
    assert got == want and rest == b"" and status == 0


@TWO_CPUS
def test_the_seed7_ingest_batches_through_a_real_helper(monkeypatch, install):
    """The 36 FASTLZ batches of a 12-node central ingest over the seed-7
    dataset, compressed two at a time with a real helper."""
    text = bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12)
    _, parts = bench.ingest_csv_text(text, 12)
    bodies = [encode_readings(batch) for node in sorted(parts)
              for _, batch in baselines._batches(parts[node])]
    replies = []
    reply = cores.Helper.reply

    def recorded(helper, read):
        got = reply(helper, read)
        replies.append(got is not None)
        return got

    monkeypatch.setattr(cores.Helper, "reply", recorded)
    install(cores.Helper())
    two_core = [ending.stream for ending in fastlz.compress_all(bodies)]
    assert len(bodies) == 36 and replies == [True] * 18
    assert two_core == [fastlz._compress(body).stream for body in bodies]


@TWO_CPUS
def test_the_seed7_arrays_through_a_real_helper(monkeypatch, install, splices):
    """An ingest batch, a node's partition and the whole readings array of
    the seed-7 dataset, each parsed on two cores by a real helper."""
    text = bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12)
    _, parts = bench.ingest_csv_text(text, 12)
    batch = encode_readings(parts["node-00"][:500])
    shard = encode_readings(parts["node-00"])
    whole = encode_readings(merge_reading_sets(parts.values()))
    one_core = [fastlz._compress(body).stream for body in (batch, shard, whole)]
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)  # the batch too
    install(cores.Helper())
    two_core = [fastlz.compress(body) for body in (batch, shard, whole)]
    assert splices == {"spliced": 3}
    assert two_core == one_core
    assert two_core[:2] == [reference_compress(batch), reference_compress(shard)]


# ---------------------------------------------------------------------------
# resuming a kept parse
# ---------------------------------------------------------------------------

@st.composite
def _shared_prefixes(draw):
    """A kept body and a body that shares a drawn prefix of it and then ends
    in another tail. The kept body is one or two `_bodies` (two often pass
    the 32 KiB past which a split starts after byte 0). The prefix is short
    (under 8194 bytes), ends inside one of the kept body's last matches, at
    one of its last 2 bytes, or anywhere; or it ends where one of those
    matches ends, and the other body goes on copying from the distance of
    an earlier equal stretch, which can make that match longer in it; or
    the kept body ends in a 600-byte copy of an earlier stretch, a match
    longer than one token, and the prefix ends near its first token's end;
    or the bodies are equal, or one is a prefix of the other."""
    kept = draw(_bodies())
    if draw(st.booleans()):
        kept += draw(_bodies())
    cut = draw(st.sampled_from(["short", "inside a match", "at a match end",
                                "last 2 bytes", "anywhere", "equal",
                                "a prefix", "extended", "past a first token"]))
    event(f"prefix {cut}")
    if cut == "past a first token":
        start = draw(st.integers(0, max(len(kept) - 600, 0)))
        at = len(kept) + draw(st.integers(250, 290))
        kept += kept[start:start + 600]
    n = len(kept)
    if cut == "equal":
        return kept, kept
    if cut == "extended":
        return kept, kept + draw(_bodies())
    if cut in ("inside a match", "at a match end"):
        ending = fastlz._compress(kept)
        found = fastlz._matches(ending.stream, ending.anchor, ending.reach, n)
        matches = list(zip(found[0::3], found[1::3]))
        start, end = draw(st.sampled_from(matches[-40:] or [(n - 1, n)]))
    if cut == "short":
        at = draw(st.integers(0, min(n, 8193)))
    elif cut == "inside a match":
        at = draw(st.integers(start + 1, max(start + 1, end - 1)))
    elif cut == "at a match end":
        distances = [d for d in range(1, min(start, 8192) + 1)
                     if kept[start - d:end - d] == kept[start:end]]
        d = draw(st.sampled_from(distances[:8] or [1]))
        return kept, kept[:end] + kept[end - d:end - d + 300]
    elif cut == "last 2 bytes":
        at = n - draw(st.integers(1, 2))
    elif cut != "past a first token":
        at = draw(st.integers(0, n))
    if cut == "a prefix":
        return kept, kept[:at]
    other = draw(st.one_of(
        st.binary(min_size=1, max_size=200),
        st.builds(lambda body: body[:300], _bodies()),
        st.just(b',"contributing_nodes":["node-00","node-01"],"partial":false}')))
    return kept, kept[:at] + other


def test_a_resumed_parse_writes_the_reference_stream(monkeypatch, install,
                                                     splices):
    """A body resumed from the ending of another with a common prefix, kept
    by a split parse (`SPLIT_MIN_BYTES` patched to 0) or a one-core one: the
    stream is the reference one, whether it resumed or was parsed whole."""
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)
    paths = collections.Counter()

    @given(pair=_shared_prefixes())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def resumed(pair):
        kept_body, body = pair
        common = len(os.path.commonprefix((kept_body, body)))
        expected = reference_compress(body)
        for helper in (InProcessHelper(), _closed_helper()):
            install(helper)
            before = splices["spliced"]
            kept = fastlz.compress_ending(kept_body)
            assert kept.stream == reference_compress(kept_body)
            got = fastlz.resume(body, kept, common)
            path = "fall-back" if got is None else "resumed"
            if splices["spliced"] > before:
                path += " from a spliced ending"
            event(path)
            paths[path] += 1
            assert (fastlz.compress(body) if got is None else got) == expected

    resumed()
    assert paths["resumed"] and paths["fall-back"], paths
    assert paths["resumed from a spliced ending"], paths


def _seed7_config(system, n_nodes, days):
    return bench.ScenarioConfig(system=system, scenario="collect",
                                n_nodes=n_nodes, window_days=days,
                                repetitions=1, seed=7)


@pytest.fixture
def resumes(monkeypatch):
    """(body, stream or None) for each `fastlz.resume` call, and the bodies
    of each `fastlz.compress_ending` call."""
    calls = {"resume": [], "whole": []}
    resume, compress_ending = fastlz.resume, fastlz.compress_ending

    def recorded_resume(data, kept, common):
        got = resume(data, kept, common)
        calls["resume"].append((data, got))
        return got

    def recorded_whole(data):
        calls["whole"].append(data)
        return compress_ending(data)

    monkeypatch.setattr(fastlz, "resume", recorded_resume)
    monkeypatch.setattr(fastlz, "compress_ending", recorded_whole)
    return calls


def _router_body(body) -> bool:
    """Whether a response body is a sharded router's: it names more than
    one contributing node."""
    return b'"contributing_nodes":["node-00","node-01"' in body


@TWO_CPUS
def test_every_seed7_router_body_resumes_the_central_parse(started, install,
                                                          resumes):
    """Central, then sharded, collect over every window at 3 and 12 nodes in
    one `MatrixCaches` with a real helper: each router answer has the head
    and array of the central server's, and resumes its kept parse."""
    install(cores.Helper())
    caches = bench.MatrixCaches()
    for n_nodes in (3, 12):
        for system in ("central", "sharded"):
            for days in bench.WINDOWS_DAYS:
                bench.run_scenario(_seed7_config(system, n_nodes, days), caches)
    routers = [(body, got) for body, got in resumes["resume"]
               if _router_body(body)]
    assert len(routers) == 2 * len(bench.WINDOWS_DAYS)
    assert not any(map(_router_body, resumes["whole"]))
    for body, got in routers:
        assert got == fastlz._compress(body).stream
    assert _exited(started) == [False]  # one helper, still serving


@TWO_CPUS
def test_a_helper_killed_before_the_central_body_leaves_resumes_exact(
        monkeypatch, started, install, resumes, splices):
    """The helper dies after a 3-node central ingest and before the server's
    30-day answer, so that answer's ending comes from this process; the
    router's answer still resumes it, to the one-core bytes."""
    compress_ending = fastlz.compress_ending
    helper = install(cores.Helper())

    def kill_first(data):
        if helper._proc is not None:
            helper._proc.kill()
            helper._proc.wait(timeout=10)
        return compress_ending(data)

    monkeypatch.setattr(fastlz, "compress_ending", kill_first)
    caches = bench.MatrixCaches()
    rows = [bench.run_scenario(_seed7_config(system, 3, 30), caches).rows
            for system in ("central", "sharded")]
    assert not splices  # no body was split after the kill
    routers = [(body, got) for body, got in resumes["resume"]
               if _router_body(body)]
    assert (len(routers) == 1
            and routers[0][1] == fastlz._compress(routers[0][0]).stream)
    assert _exited(started) == [True]
    assert rows == [_one_core_rows(install, _seed7_config(system, 3, 30))
                    for system in ("central", "sharded")]


_SHARD_BODY = re.compile(rb'"contributing_nodes":\["node-\d+"\]')


def test_a_cold_12_node_sharded_collect_builds_each_shard_body_once(
        monkeypatch, install):
    """A cold 12-node, 30-day sharded collect, with an in-process helper so
    that every parse is seen: its router builds the twelve shard bodies
    ahead, and each is parsed once, whole; each shard's own answer and
    `response_envelope` are memo hits. The same command again on the same
    caches parses nothing, and its fan-out costs one memo lookup per shard:
    12 in all, beside each shard's answer and body and the router's merge,
    body and digest."""
    install(InProcessHelper())
    parsed, lookups = [], []
    compress, parse_tail, resume = (fastlz._compress, fastlz._parse_tail,
                                    fastlz.resume)
    memo = payloads.PayloadOps.memo

    def compressed(data, split=None):
        parsed.append(bytes(data))
        return compress(data, split)

    def tail_parsed(tail):
        parsed.append(bytes(tail))
        return parse_tail(tail)

    def resumed(data, kept, common):
        parsed.append(bytes(data))
        return resume(data, kept, common)

    def looked_up(ops, key, fn):
        lookups.append((key, (ops.scope_key,) + key in ops.cache))
        return memo(ops, key, fn)

    monkeypatch.setattr(fastlz, "_compress", compressed)
    monkeypatch.setattr(fastlz, "_parse_tail", tail_parsed)
    monkeypatch.setattr(fastlz, "resume", resumed)
    monkeypatch.setattr(payloads.PayloadOps, "memo", looked_up)
    caches = bench.MatrixCaches()
    cfg = _seed7_config("sharded", 12, 30)
    rows = bench.run_scenario(cfg, caches).rows
    shard_bodies = [body for body in parsed if _SHARD_BODY.search(body)]
    assert len(shard_bodies) == len(set(shard_bodies)) == 12
    assert all(body.startswith(b'{"request_id":') for body in shard_bodies)
    by_key = collections.defaultdict(list)
    for key, hit in lookups:
        by_key[key].append(hit)
    window = bench.trailing_window(caches.datasets[("synthetic", 7, 12)]
                                   .manifest, 30)
    local = replace(bench._build_request(cfg, window), scope=Scope.LOCAL)
    for shard in (f"node-{i:02d}" for i in range(12)):
        answer = (((shard,), local),)
        body = (shard, local, frozenset({shard}), False, CodecId.FASTLZ)
        assert by_key[answer] == by_key[body] == [False, True]
    parsed.clear()
    lookups.clear()
    assert bench.run_scenario(cfg, caches).rows == rows
    assert parsed == []
    assert len(lookups) == 12 + 2 * 12 + 3 and all(hit for _, hit in lookups)


def test_a_command_keeps_no_ending_once_it_returns(monkeypatch):
    """`run_scenario` without caches keeps its endings in caches of its own,
    which go when it returns; caches passed in keep theirs."""
    made = []

    class Tracked(fastlz.Ending):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(fastlz, "Ending", Tracked)
    bench.run_scenario(_seed7_config("sharded", 3, 30))
    gc.collect()
    assert made and all(ref() is None for ref in made)
    caches = bench.MatrixCaches()
    bench.run_scenario(_seed7_config("sharded", 3, 30), caches)
    kept = [ending for _, ending in caches.endings.values()]
    assert len(kept) == 4 and all(isinstance(e, Tracked) for e in kept)


# ---------------------------------------------------------------------------
# the helper's lifetime
# ---------------------------------------------------------------------------

@pytest.fixture
def started(monkeypatch):
    """Every process the test starts, in order."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    yield procs
    for proc in procs:  # a test that failed may leave one running
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _exited(started) -> list[bool]:
    """Whether each started process has exited; then drops and collects them,
    so that an unwaited process or an open pipe warns inside the test."""
    exited = [proc.poll() is not None for proc in started]
    started.clear()
    gc.collect()
    return exited


def _config(system="sharded", scenario="collect") -> bench.ScenarioConfig:
    """Three nodes over 30 days: a sharded collect compresses four bodies of
    more than `fastlz.SPLIT_MIN_BYTES`."""
    return bench.ScenarioConfig(system=system, scenario=scenario, n_nodes=3,
                                window_days=30, repetitions=2, seed=7)


def _one_core_rows(install, cfg):
    """The rows of `cfg` with every body compressed in this process."""
    install(_closed_helper())
    return bench.run_scenario(cfg, bench.MatrixCaches()).rows


@TWO_CPUS
def test_two_commands_in_one_process_start_one_helper(started, install,
                                                      splices, whole_jobs):
    """A 3-node sharded collect compresses its three large shard bodies
    together, the first two as a pair (one whole-body job) and the third
    split, and then splits the router's; a central transform sends no
    large body, but its nine ingest batches (about 855 KB) go to the helper
    two at a time (four whole-body jobs). Both commands use the one helper,
    which serves on after they return."""
    configs = [_config(), _config("central", "transform")]
    install(cores.Helper())
    rows = [bench.run_scenario(cfg).rows for cfg in configs]
    assert splices["spliced"] == 2 and whole_jobs() == 5
    assert _exited(started) == [False]
    assert rows == [_one_core_rows(install, cfg) for cfg in configs]


@TWO_CPUS
def test_no_helper_outlives_the_interpreter():
    """A program compresses a 300 KB body, which starts its helper, hands
    the helper a 3 MB body and exits without reading the reply. The exit
    hook kills the helper, still parsing, and waits for it: its pid is gone
    once the program has exited."""
    program = (
        "from syncmesh import cores, fastlz\n"
        "body = b''.join(b'{\"t\":%d,\"v\":%d},' % (i, i * 37 % 4000)\n"
        "                for i in range(16000))\n"
        "assert len(body) >= 300_000\n"
        "fastlz.compress(body)\n"
        "print(cores.helper._proc.pid, flush=True)\n"
        "assert cores.helper.send(cores.PARSE, body * 10)\n")
    src = str(Path(fastlz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, check=True, timeout=120)
    pid = int(done.stdout)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


@TWO_CPUS
def test_a_forked_child_never_uses_its_parents_helper(install, splices):
    """A child forked after the helper started finds its helper unstarted,
    so it starts its own process for its first large body and writes the
    one-core stream. It closes only its own process, and nothing in it
    warns; the parent's helper serves on and splices its next body. The
    child's exit status has a bit set for each check that failed."""
    body = _readings_body(3000)
    assert len(body) >= fastlz.SPLIT_MIN_BYTES
    helper = install(cores.Helper())
    fastlz.compress(body)
    parent_pid = helper._proc.pid
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pid = os.fork()
        if pid == 0:  # the child: its verdict is its exit status
            failed = 255
            try:
                checks = [
                    cores.helper is helper and helper._proc is None,
                    fastlz.compress(body[1:]) == fastlz._compress(body[1:]).stream,
                    cores.helper._proc.pid != parent_pid,
                    splices["spliced"] == 2,
                ]
                cores.helper.close()
                gc.collect()
                checks.append(not caught)
                failed = sum(1 << i for i, ok in enumerate(checks) if not ok)
            finally:
                os._exit(failed)
    for _ in range(1200):  # up to 60 s
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not exit within 60 s")
    assert os.waitstatus_to_exitcode(status) == 0
    assert not caught
    assert helper._proc.pid == parent_pid and helper._proc.poll() is None
    assert fastlz.compress(body[2:]) == fastlz._compress(body[2:]).stream
    assert splices["spliced"] == 2


@TWO_CPUS
@pytest.mark.parametrize("when, system", [
    pytest.param("after the first send", "sharded", id="after the first send"),
    pytest.param("after a reply", "sharded", id="after a reply"),
    pytest.param("after the first send", "central",
                 id="central, after the first send"),
    pytest.param("after a reply", "central", id="central, after a reply"),
])
def test_a_helper_killed_mid_command_leaves_the_bytes_exact(
        monkeypatch, started, install, splices, whole_jobs, when, system):
    """A sharded collect sends its helper a whole shard body first, the
    second of the pair its router builds ahead; a central collect sends it
    every second ingest batch first. After the kill every body is
    compressed in this process."""
    send, reply = cores.Helper.send, cores.Helper.reply
    taken, replies = [], []

    def kill(helper):
        helper._proc.kill()
        helper._proc.wait(timeout=10)

    def send_then_kill(helper, *args):
        taken.append(send(helper, *args))
        if when == "after the first send" and taken[-1]:
            kill(helper)
        return taken[-1]

    def reply_then_kill(helper, read):
        got = reply(helper, read)
        replies.append(got is not None)
        if when == "after a reply" and got is not None:
            kill(helper)
        return got

    monkeypatch.setattr(cores.Helper, "send", send_then_kill)
    monkeypatch.setattr(cores.Helper, "reply", reply_then_kill)
    install(cores.Helper())
    rows = bench.run_scenario(_config(system)).rows
    killed_at_send = when == "after the first send"
    assert taken.count(True) == 1 and taken[0]
    assert replies == [not killed_at_send]
    assert not splices and whole_jobs() == (0 if killed_at_send else 1)
    assert _exited(started) == [True]  # and never restarted
    assert rows == _one_core_rows(install, _config(system))


@TWO_CPUS
def test_a_failed_helper_stays_closed_for_the_process(monkeypatch, started,
                                                      install, splices):
    """A helper killed at its first send is closed for good: the commands
    after it split no body and start no process, and every command writes
    the one-core rows."""
    send = cores.Helper.send

    def send_then_kill(helper, *args):
        taken = send(helper, *args)
        if taken:
            helper._proc.kill()
            helper._proc.wait(timeout=10)
        return taken

    monkeypatch.setattr(cores.Helper, "send", send_then_kill)
    install(cores.Helper())
    configs = [_config(), _config(), _config("central", "transform")]
    rows = [bench.run_scenario(configs[0]).rows]
    assert _exited(started) == [True]
    rows += [bench.run_scenario(cfg).rows for cfg in configs[1:]]
    assert _exited(started) == []
    assert not splices
    assert rows == [_one_core_rows(install, cfg) for cfg in configs]


@pytest.mark.parametrize("system, scenario", [
    ("syncmesh", "collect"), ("syncmesh", "transform"), ("p2p", "collect"),
    ("p2p", "transform"), ("sharded", "transform"),
])
def test_a_command_without_a_large_fastlz_body_starts_no_process(
        started, install, system, scenario):
    install(cores.Helper())
    bench.run_scenario(_config(system, scenario))
    assert _exited(started) == []


def test_a_dataset_under_the_split_minimum_starts_no_process(started, install):
    """`bench gen --sensors 4 --days 2`'s 384 rows and the 3-node matrix
    dataset's 4,320 are under `SPLIT_MIN_ROWS`: one core writes them."""
    install(cores.Helper())
    bench.generate_synthetic(4, 2, 48, seed=0)
    bench.generate_synthetic(3, 30, 48, seed=7, balance_across=3)
    assert _exited(started) == []


def test_one_usable_cpu_starts_no_process(monkeypatch, started, install,
                                          splices):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    install(cores.Helper())
    rows = bench.run_scenario(_config()).rows
    assert _exited(started) == []
    assert not splices
    assert rows == _one_core_rows(install, _config())


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_host_without_sched_getaffinity_counts_its_cpus(
        monkeypatch, started, install, splices, whole_jobs, cpus):
    """Where `os.sched_getaffinity` is missing (only Linux has it), the
    helper counts the host's CPUs: one starts no process, two start one.
    The rows are the one-core rows either way."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    install(cores.Helper())
    rows = bench.run_scenario(_config()).rows
    assert _exited(started) == [False] * (cpus - 1)
    assert splices["spliced"] == 2 * (cpus - 1)
    assert whole_jobs() == cpus - 1
    assert rows == _one_core_rows(install, _config())


# ---------------------------------------------------------------------------
# the synthetic dataset on two cores
# ---------------------------------------------------------------------------

def _record_sends(helper) -> list:
    """(job, taken) for each job `helper` is sent from now on."""
    sent = []
    send = helper.send

    def recorded(job, body):
        sent.append((job, send(job, body)))
        return sent[-1][1]

    helper.send = recorded
    return sent


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", [
    pytest.param("live", marks=TWO_CPUS), "in-process", "declines",
    "no reply", "closed", "one usable CPU"])
def test_a_split_dataset_is_the_reference_text(monkeypatch, started, install,
                                               kind):
    """The seed-7 12-node dataset at the default `SPLIT_MIN_ROWS`, then 1-13
    sensors over two days, balanced or not, with the minimum patched to 0 so
    that every dataset of two or more sensors is offered to the helper: a
    live helper or an in-process stand-in writes the second half, one that
    declines its third job or has no reply to it leaves this process to
    write the rest, and a closed helper, or one on a host with one usable
    CPU, takes none. The text is the reference generator's every time."""
    if kind == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if kind == "live" or kind == "one usable CPU":
        helper = install(cores.Helper())
    elif kind == "in-process":
        helper = install(InProcessHelper())
    elif kind == "closed":
        helper = install(_closed_helper())
    else:
        helper = install(FailingHelper(3, kind))
    sent = _record_sends(helper)
    text = bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12)
    assert _sha256(text) == SEED7_12_NODE_CSV_SHA256
    monkeypatch.setattr(bench, "SPLIT_MIN_ROWS", 0)
    for n_sensors in range(1, 14):
        for balance_across in (None, n_sensors):
            got = bench.generate_synthetic(n_sensors, 2, 24, seed=7,
                                           balance_across=balance_across)
            assert got == reference_generate(n_sensors, 2, 24, 7,
                                             balance_across)
    offered = 1 + 2 * 12  # every dataset of two or more sensors
    taken = {"live": offered, "in-process": offered, "declines": 2,
             "no reply": 3}.get(kind, 0)
    assert sent == ([(cores.ROWS, True)] * taken
                    + [(cores.ROWS, False)] * (offered - taken))
    if kind in ("in-process", "declines", "no reply"):
        assert helper._frame is None
    assert _exited(started) == ([False] if kind == "live" else [])


@pytest.mark.parametrize("process", [
    pytest.param("real", marks=TWO_CPUS), "stand-in"])
@pytest.mark.parametrize("bad", ["unknown job", "unreadable request"])
def test_a_job_the_helper_cannot_read_ends_its_loop(monkeypatch, started,
                                                    install, bad, process):
    """A rows job of a kind the helper does not know, or whose request it
    cannot read, ends the helper's loop: it answers neither that job nor a
    good one after it. The caller reads no reply, closes the helper and
    writes the rows itself, to the reference text; nothing raises, and the
    real helper's process has exited and been waited for."""
    monkeypatch.setattr(bench, "SPLIT_MIN_ROWS", 0)
    helper = install(cores.Helper())
    if bad == "unknown job":
        send = helper.send
        helper.send = lambda job, body: send(9, body)
    else:
        monkeypatch.setattr(bench, "rows_request", lambda *args: b"30\n48")
    proc = None
    if process == "stand-in":
        proc = helper._proc = ReplyingProcess(b"")
    text = bench.generate_synthetic(4, 2, 24, seed=7, balance_across=4)
    assert text == reference_generate(4, 2, 24, 7, 4)
    assert helper._proc is None and not helper.send(cores.PARSE, b"abc")
    assert _exited(started) == ([True] if process == "real" else [])
    if proc is not None:  # what it was sent, to the loop itself
        good = cores._REQUEST.pack(cores.PARSE, 3) + b"abc"
        out = io.BytesIO()
        cores._serve(io.BytesIO(proc.sent + good), out)
        job = 9 if bad == "unknown job" else cores.ROWS
        assert proc.sent.startswith(cores._REQUEST.pack(
            job, len(proc.sent) - cores._REQUEST.size))
        assert out.getvalue() == b""


def test_the_helper_program_writes_a_rows_reply():
    """The helper program on any host, without `Helper`: a rows job's reply
    frame holds the rows of the sensors it names, and a rows job that
    cannot be read ends the program with status 0 and no reply."""
    ids = bench.balanced_sensor_ids(3, 3)
    request = synthetic.rows_request(ids[1:], 2, 24, 7)
    lines = reference_generate(3, 2, 24, 7, 3).splitlines(keepends=True)
    want = "".join(lines[1 + 2 * 24:])  # past the header and the first sensor
    proc = subprocess.Popen([sys.executable, "-I", "-S", cores.__file__],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    with proc:
        proc.stdin.write(cores._REQUEST.pack(cores.ROWS, len(request)) + request)
        proc.stdin.flush()
        (size,) = cores._REPLY.unpack(proc.stdout.read(cores._REPLY.size))
        got = proc.stdout.read(size)
        proc.stdin.write(cores._REQUEST.pack(cores.ROWS, 2) + b"\xff\n")
        proc.stdin.flush()
        rest = proc.stdout.read()
        status = proc.wait(timeout=60)
    assert got.decode() == want and rest == b"" and status == 0


@TWO_CPUS
def test_a_split_fastlz_body_right_after_a_rows_job(install, started, splices):
    """One helper writes the 12-node dataset's second half, then parses the
    tail of a split FASTLZ body: the body's stream is the reference one,
    and the next dataset is the pinned text again."""
    install(cores.Helper())
    texts = [bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12)]
    body = _readings_body(3000)
    assert fastlz.compress(body) == reference_compress(body)
    assert splices == {"spliced": 1}
    texts.append(bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12))
    assert [_sha256(t) for t in texts] == [SEED7_12_NODE_CSV_SHA256] * 2
    assert _exited(started) == [False]
