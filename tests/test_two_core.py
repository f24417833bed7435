"""FASTLZ on two cores and resumed parses: the spliced parse and a parse
resumed from a kept ending write the reference stream, and neither the
helper process nor a kept ending outlives the command that owns it."""

import collections
import gc
import io
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from oracles import reference_compress
from syncmesh import baselines, bench, fastlz
from syncmesh.model import merge_reading_sets
from syncmesh.wire import encode_readings

# An unwaited Popen or an unclosed pipe warns in its __del__, where pytest
# reports it as an unraisable-exception warning: both are errors here.
NO_LEAKS = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
# A helper process starts only on a host with two usable CPUs.
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="one usable CPU starts no helper")


class InProcessHelper(fastlz.Helper):
    """A `fastlz.Helper` whose side of a split parse or a whole body runs in
    this process: `Helper.reply` reads the one frame `_parse_tail` writes.
    It holds one body at a time, as a real helper's caller must."""

    _frame = None

    def send(self, data, split):
        assert self._frame is None, "a second body sent before the reply"
        self._frame = fastlz._parse_tail(data[split:])
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

    def send(self, data, split):
        if self._closed:
            return False
        self.sends += 1
        if self.sends == self.at and self.how == "declines":
            self.close()
            return False
        return super().send(data, split)

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


def test_a_split_parse_writes_the_reference_stream(monkeypatch, splices):
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
        before = splices["spliced"]
        ending = fastlz._compress(body, InProcessHelper(),
                                  min(split, len(body)))
        event("spliced" if splices["spliced"] > before else "fall-back")
        assert ending.stream == reference_compress(body)
        assert fastlz.resume(body, ending, len(body)) in (None, ending.stream)

    split_parse()
    assert splices["spliced"] and splices["fall-back"], splices


def test_compress_all_writes_each_reference_stream(monkeypatch):
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
        helper = FailingHelper(at, how)
        event(f"{'odd' if len(bodies) % 2 else 'even'} count, {how}")
        out = fastlz.compress_all(bodies, helper)
        assert out == [reference_compress(body) for body in bodies]
        assert helper._frame is None

    compress_all()


def test_every_stream_is_bytes(monkeypatch, splices):
    """A memoryview slice of a reply frame compares equal to its bytes, so
    only the type shows which one reaches a memo entry or an envelope:
    spliced, whole from the helper, parsed here or resumed, a stream is
    `bytes`."""
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)
    body = _readings_body(1500)
    helper = InProcessHelper()
    ending = fastlz.compress_ending(body, helper)
    streams = [fastlz.compress(body), fastlz.compress(body, helper),
               ending.stream, *fastlz.compress_all([body, body], helper),
               fastlz.resume(body[:-1] + b",]", ending, len(body) - 1)]
    assert splices == {"spliced": 2}
    assert [type(stream) for stream in streams] == [bytes] * 6
    assert streams[1:5] == [streams[0]] * 4


@pytest.mark.parametrize("batch", [False, True],
                         ids=["compress", "compress_all"])
@pytest.mark.parametrize("frame", ["shorter than its ending",
                                   "longer than MAX_OUTPUT"])
def test_a_bad_reply_frame_closes_the_helper(monkeypatch, frame, batch):
    """A helper whose reply frame cannot hold an ending, or is the right
    reply but longer than `MAX_OUTPUT` (patched), is closed after the one
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
        monkeypatch.setattr(fastlz, "MAX_OUTPUT", len(reply) - 1)
    helper = fastlz.Helper()
    proc = ReplyingProcess(fastlz._FRAME.pack(len(reply)) + reply)
    helper._proc = proc
    if batch:
        out = fastlz.compress_all(bodies, helper)
    else:
        out = [fastlz.compress(body, helper) for body in bodies]
    assert proc.sent == fastlz._FRAME.pack(len(tail)) + tail
    assert helper._proc is None and not helper.send(bodies[0], 0)
    assert out == [reference_compress(body) for body in bodies]


@NO_LEAKS
def test_the_helper_program_answers_one_frame_per_tail():
    """The helper program on any host, without `Helper`: one request frame
    in, one reply frame out, equal to `_parse_tail`'s; at the end of its
    input it exits with status 0."""
    tail = _readings_body(400)
    want = fastlz._parse_tail(tail)
    ending = fastlz.compress_ending(tail)
    assert want == (fastlz._FRAME.pack(ending.reach)
                    + fastlz._FRAME.pack(ending.anchor) + ending.stream)
    proc = subprocess.Popen([sys.executable, "-I", "-S", fastlz.__file__],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    with proc:
        proc.stdin.write(fastlz._FRAME.pack(len(tail)) + tail)
        proc.stdin.flush()
        (size,) = fastlz._FRAME.unpack(proc.stdout.read(fastlz._FRAME.size))
        got = proc.stdout.read(size)
        proc.stdin.close()
        rest = proc.stdout.read()
        status = proc.wait(timeout=60)
    assert got == want and rest == b"" and status == 0


@TWO_CPUS
def test_the_seed7_ingest_batches_through_a_real_helper(monkeypatch):
    """The 36 FASTLZ batches of a 12-node central ingest over the seed-7
    dataset, compressed two at a time with a real helper."""
    text = bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12)
    _, parts = bench.ingest_csv_text(text, 12)
    bodies = [encode_readings(batch) for node in sorted(parts)
              for _, batch in baselines._batches(parts[node])]
    replies = []
    reply = fastlz.Helper.reply

    def recorded(helper):
        got = reply(helper)
        replies.append(got is not None)
        return got

    monkeypatch.setattr(fastlz.Helper, "reply", recorded)
    with fastlz.Helper() as helper:
        two_core = fastlz.compress_all(bodies, helper)
    assert len(bodies) == 36 and replies == [True] * 18
    assert two_core == [fastlz.compress(body) for body in bodies]


@TWO_CPUS
def test_the_seed7_arrays_through_a_real_helper(monkeypatch, splices):
    """An ingest batch, a node's partition and the whole readings array of
    the seed-7 dataset, each parsed on two cores by a real helper."""
    text = bench.generate_synthetic(12, 30, 48, seed=7, balance_across=12)
    _, parts = bench.ingest_csv_text(text, 12)
    batch = encode_readings(parts["node-00"][:500])
    shard = encode_readings(parts["node-00"])
    whole = encode_readings(merge_reading_sets(parts.values()))
    one_core = [fastlz.compress(body) for body in (batch, shard, whole)]
    monkeypatch.setattr(fastlz, "SPLIT_MIN_BYTES", 0)  # the batch too
    with fastlz.Helper() as helper:
        two_core = [fastlz.compress(body, helper) for body in (batch, shard, whole)]
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
        ending = fastlz.compress_ending(kept)
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


def test_a_resumed_parse_writes_the_reference_stream(monkeypatch, splices):
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
        for helper in (InProcessHelper(), None):
            before = splices["spliced"]
            kept = fastlz.compress_ending(kept_body, helper)
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

    def recorded_whole(data, helper=None):
        calls["whole"].append(data)
        return compress_ending(data, helper)

    monkeypatch.setattr(fastlz, "resume", recorded_resume)
    monkeypatch.setattr(fastlz, "compress_ending", recorded_whole)
    return calls


def _router_body(body) -> bool:
    """Whether a response body is a sharded router's: it names more than
    one contributing node."""
    return b'"contributing_nodes":["node-00","node-01"' in body


@NO_LEAKS
@TWO_CPUS
def test_every_seed7_router_body_resumes_the_central_parse(started, resumes):
    """Central, then sharded, collect over every window at 3 and 12 nodes in
    one `MatrixCaches` with a real helper: each router answer has the head
    and array of the central server's, and resumes its kept parse."""
    with fastlz.Helper() as helper:
        caches = bench.MatrixCaches(helper=helper)
        for n_nodes in (3, 12):
            for system in ("central", "sharded"):
                for days in bench.WINDOWS_DAYS:
                    bench.run_scenario(_seed7_config(system, n_nodes, days),
                                       caches)
    routers = [(body, got) for body, got in resumes["resume"]
               if _router_body(body)]
    assert len(routers) == 2 * len(bench.WINDOWS_DAYS)
    assert not any(map(_router_body, resumes["whole"]))
    for body, got in routers:
        assert got == fastlz.compress(body)
    assert _exited(started) == [True]


@NO_LEAKS
@TWO_CPUS
def test_a_helper_killed_before_the_central_body_leaves_resumes_exact(
        monkeypatch, started, resumes, splices):
    """The helper dies after a 3-node central ingest and before the server's
    30-day answer, so that answer's ending comes from this process; the
    router's answer still resumes it, to the one-core bytes."""
    compress_ending = fastlz.compress_ending

    def kill_first(data, helper=None):
        if helper is not None and helper._proc is not None:
            helper._proc.kill()
            helper._proc.wait(timeout=10)
        return compress_ending(data, helper)

    monkeypatch.setattr(fastlz, "compress_ending", kill_first)
    with fastlz.Helper() as helper:
        caches = bench.MatrixCaches(helper=helper)
        rows = [bench.run_scenario(_seed7_config(system, 3, 30), caches).rows
                for system in ("central", "sharded")]
    assert not splices  # no body was split after the kill
    routers = [(body, got) for body, got in resumes["resume"]
               if _router_body(body)]
    assert len(routers) == 1 and routers[0][1] == fastlz.compress(routers[0][0])
    assert rows == [_one_core_rows(_seed7_config(system, 3, 30))
                    for system in ("central", "sharded")]
    assert _exited(started) == [True]


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


def _one_core_rows(cfg):
    return bench.run_scenario(cfg, bench.MatrixCaches()).rows


@NO_LEAKS
@TWO_CPUS
def test_the_helper_has_exited_when_a_command_returns(started, splices):
    rows = bench.run_scenario(_config()).rows
    assert splices["spliced"] == 4
    assert _exited(started) == [True]
    assert rows == _one_core_rows(_config())


@NO_LEAKS
@TWO_CPUS
def test_the_helper_has_exited_when_a_command_raises(monkeypatch, started, splices):
    def fail(*args, **kwargs):
        raise RuntimeError("a repetition failed")

    monkeypatch.setattr(bench, "RepetitionRow", fail)
    with pytest.raises(RuntimeError, match="a repetition failed"):
        bench.run_scenario(_config())
    assert splices["spliced"] == 4
    assert _exited(started) == [True]


@NO_LEAKS
@TWO_CPUS
@pytest.mark.parametrize("when, system", [
    pytest.param("after the first send", "sharded", id="after the first send"),
    pytest.param("after a reply", "sharded", id="after a reply"),
    pytest.param("after the first send", "central",
                 id="central, after the first send"),
    pytest.param("after a reply", "central", id="central, after a reply"),
])
def test_a_helper_killed_mid_command_leaves_the_bytes_exact(
        monkeypatch, started, splices, when, system):
    """A sharded collect splits its large response bodies; a central
    collect sends its helper every second ingest batch first. After the
    kill every body is compressed in this process."""
    send, reply = fastlz.Helper.send, fastlz.Helper.reply
    taken, replies = [], []

    def kill(helper):
        helper._proc.kill()
        helper._proc.wait(timeout=10)

    def send_then_kill(helper, *args):
        taken.append(send(helper, *args))
        if when == "after the first send" and taken[-1]:
            kill(helper)
        return taken[-1]

    def reply_then_kill(helper):
        got = reply(helper)
        replies.append(got is not None)
        if when == "after a reply" and got is not None:
            kill(helper)
        return got

    monkeypatch.setattr(fastlz.Helper, "send", send_then_kill)
    monkeypatch.setattr(fastlz.Helper, "reply", reply_then_kill)
    rows = bench.run_scenario(_config(system)).rows
    killed_at_send = when == "after the first send"
    assert taken.count(True) == 1 and taken[0]
    assert replies == [not killed_at_send]
    assert splices["spliced"] == (
        1 if system == "sharded" and not killed_at_send else 0)
    assert _exited(started) == [True]  # and never restarted
    assert rows == _one_core_rows(_config(system))


@NO_LEAKS
@pytest.mark.parametrize("system, scenario", [
    ("syncmesh", "collect"), ("syncmesh", "transform"), ("p2p", "collect"),
    ("p2p", "transform"), ("sharded", "transform"),
])
def test_a_command_without_a_large_fastlz_body_starts_no_process(
        started, system, scenario):
    bench.run_scenario(_config(system, scenario))
    assert _exited(started) == []


@NO_LEAKS
@TWO_CPUS
def test_a_central_ingest_starts_one_helper_and_closes_it(started):
    """A 3-node central transform sends no large body, but its nine ingest
    batches (about 855 KB) go to the helper two at a time."""
    cfg = _config("central", "transform")
    rows = bench.run_scenario(cfg).rows
    assert _exited(started) == [True]
    assert rows == _one_core_rows(cfg)


@NO_LEAKS
def test_one_usable_cpu_starts_no_process(monkeypatch, started, splices):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rows = bench.run_scenario(_config()).rows
    assert _exited(started) == []
    assert not splices
    assert rows == _one_core_rows(_config())


@NO_LEAKS
@TWO_CPUS
def test_a_matrix_closes_its_helper(tmp_path, started):
    bench.run_matrix(7, tmp_path, systems=("sharded",), scenarios=("collect",),
                     sizes=(3,), windows=(30,), repetitions=1)
    assert _exited(started) == [True]
