"""FASTLZ on two cores: the spliced parse writes the reference stream, and
the helper process lives no longer than the command that owns it."""

import collections
import gc
import os
import random
import subprocess

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


class InProcessHelper:
    """The helper's side of a split parse or a whole body, run in this
    process; it holds one body at a time, as a real helper's caller must."""

    _reply = None

    def send(self, data, split, window):
        assert self._reply is None, "a second body sent before the reply"
        self._reply = fastlz._parse_tail(data[split:], window)
        return True

    def reply(self):
        (marks, out), self._reply = self._reply, None
        return memoryview(marks).cast("q"), bytes(out)


class FailingHelper(InProcessHelper):
    """An `InProcessHelper` that, at its `at`-th send, declines it or takes
    it and then has no reply; from then on it declines, as a closed helper
    does."""

    def __init__(self, at, how):
        self.at, self.how, self.sends, self.closed = at, how, 0, False

    def send(self, data, split, window):
        if self.closed:
            return False
        self.sends += 1
        if self.sends == self.at and self.how == "declines":
            self.closed = True
            return False
        return super().send(data, split, window)

    def reply(self):
        got = super().reply()
        if self.sends == self.at and self.how == "no reply":
            self.closed = True
            return None
        return got


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


def test_a_split_parse_writes_the_reference_stream(splices):
    """Any split point and window: the output is the one-core stream, whether
    the two parses were spliced or this process parsed on alone."""

    @given(body=_bodies(), split=st.integers(0, 4096),
           window=st.integers(0, 40).map(lambda k: 1024 * k))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def split_parse(body, split, window):
        before = splices["spliced"]
        out = fastlz._compress(body, InProcessHelper(), min(split, len(body)),
                               window)
        event("spliced" if splices["spliced"] > before else "fall-back")
        assert out == reference_compress(body)

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
        assert helper._reply is None

    compress_all()


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
