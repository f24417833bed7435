"""The benchmark's own tests: every check rejects a faulty answer.

Run from the repository root: python3 -m pytest perfbench
"""

import dataclasses
import functools
import signal
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from syncmesh import baselines, bench, cli, model, netsim, payloads, wire  # noqa: E402

SEED, NODES, DAYS = 3, 3, 1


@pytest.fixture(scope="module")
def dataset():
    """The program's own collect answer over a small generated dataset."""
    text = bench.generate_synthetic(NODES, 2, 48, SEED, balance_across=NODES)
    manifest, partitions = bench.ingest_csv_text(text, NODES)
    window = bench.trailing_window(manifest, DAYS)
    union = model.merge_reading_sets(partitions.values())
    answer = tuple(r for r in union if window.contains(r.timestamp))
    want = checks.expect(checks.Oracle(text, NODES).window(DAYS))
    return answer, want


def test_collect_accepts_the_union_and_rejects_a_dropped_reading(dataset):
    answer, want = dataset
    digest = payloads.PayloadOps().payload_digest(answer)
    assert checks.check_collect(answer, want) == []
    assert checks.check_reported_digest(digest, want) == []
    dropped = answer[:7] + answer[8:]
    assert checks.check_collect(dropped, want)
    dropped_digest = payloads.PayloadOps().payload_digest(dropped)
    assert checks.check_reported_digest(dropped_digest, want)


def test_collect_rejects_one_changed_value_or_order(dataset):
    answer, want = dataset
    changed = answer[:3] + (dataclasses.replace(answer[3], p1=answer[3].p1 + 0.01),) \
        + answer[4:]
    assert checks.check_collect(changed, want)
    assert checks.check_reported_digest(
        payloads.PayloadOps().payload_digest(changed), want)
    swapped = answer[:3] + (answer[4], answer[3]) + answer[5:]
    assert checks.check_collect(swapped, want)


def _replace_field(summary, name, **changes):
    fields = dict(summary.fields)
    fields[name] = dataclasses.replace(fields[name], **changes)
    return model.Summary.of(fields)


def test_transform_accepts_any_summation_order(dataset):
    answer, want = dataset
    forward = model.summarize(answer, model.NUMERIC_FIELDS)
    backward = model.summarize(answer[::-1], model.NUMERIC_FIELDS)
    halves = model.merge_summaries([
        model.summarize(answer[::2], model.NUMERIC_FIELDS),
        model.summarize(answer[1::2], model.NUMERIC_FIELDS)])
    for summary in (forward, backward, halves):
        assert checks.check_transform(summary, want) == []


def test_transform_rejects_a_perturbed_sum_count_or_extreme(dataset):
    answer, want = dataset
    summary = model.summarize(answer, model.NUMERIC_FIELDS)
    agg = summary.as_dict["temperature"]
    assert checks.check_transform(
        _replace_field(summary, "temperature", sum=agg.sum * (1 + 1e-9)), want)
    assert checks.check_transform(
        _replace_field(summary, "p2", count=summary.as_dict["p2"].count - 1), want)
    assert checks.check_transform(
        _replace_field(summary, "humidity", max=summary.as_dict["humidity"].max + 0.5),
        want)
    fewer = model.Summary.of({k: v for k, v in summary.fields if k != "pressure"})
    assert checks.check_transform(fewer, want)


def _row(**changes):
    row = bench.RepetitionRow(
        rep=0, request_time_ms=412.5, ingest_time_ms=0.0, bytes_client=1000,
        bytes_internal=5000, bytes_server=0, partial=False, digest="d",
        ingest_bytes_total=0, query_bytes_total=6000)
    return dataclasses.replace(row, **changes)


def test_row_checks_reject_a_miscounted_byte_partial_or_untimed_answer():
    assert checks.check_bytes(_row(), "syncmesh") == []
    assert checks.check_bytes(_row(bytes_client=1001), "syncmesh")
    assert checks.check_bytes(_row(query_bytes_total=5999), "central")
    assert checks.check_bytes(
        _row(ingest_bytes_total=100, query_bytes_total=5900), "sharded")
    assert checks.check_bytes(
        _row(ingest_bytes_total=100, query_bytes_total=5900), "p2p") == []
    assert checks.check_complete(_row()) == []
    assert checks.check_complete(_row(partial=True))
    assert checks.check_complete(_row(request_time_ms=0.0))


def test_envelope_log_check_rejects_one_miscounted_byte():
    net = netsim.Network(netsim.build_topology(3, seed=1))
    for receiver in ("node-01", "node-02"):
        net.send(wire.Envelope(kind=wire.MessageKind.QUERY, sender="node-00",
                               receiver=receiver, body=b"x" * 37), 0.0)
    net.run_until_quiescent()
    assert checks.check_envelope_log(net.ledger.total(), net.envelope_log) == []
    assert checks.check_envelope_log(net.ledger.total() + 1, net.envelope_log)


def test_matrix_digest_check_rejects_a_changed_digest():
    assert checks.check_matrix_digest("ab" * 32, None) == []
    assert checks.check_matrix_digest("ab" * 32, "ab" * 32) == []
    assert checks.check_matrix_digest("ab" * 32, "cd" * 32)


def _run(tmp_path, argv_tail, reps):
    """One `bench run` command through the probe and every check."""
    expect = harness.Expectations(bench.generate_synthetic, bench.WINDOWS_DAYS)
    expect.prepare(SEED, (NODES,))
    probe = harness.Probe(types.SimpleNamespace(
        bench=bench, payloads=payloads, netsim=netsim), expect)
    speed = hostspeed.HostSpeed()
    probe.install(check_ledger=True)
    speed.start()
    try:
        argv = ["run", "--nodes", str(NODES), "--days", str(DAYS),
                "--reps", str(reps), "--seed", str(SEED),
                "--out", str(tmp_path / "out.csv")] + argv_tail
        return harness.run_op(cli.main, argv, probe, speed)
    finally:
        speed.stop()
        probe.uninstall()


@pytest.mark.parametrize("system", bench.SYSTEMS)
@pytest.mark.parametrize("scenario", bench.SCENARIOS)
def test_every_repetition_of_the_program_passes(tmp_path, system, scenario):
    result = _run(tmp_path, ["--system", system, "--scenario", scenario], 2)
    assert result.failures == []
    assert result.passed == 2 and result.wrong == 0
    assert len(result.rep_times) == 2 and result.setup > 0 and result.rest > 0


def test_a_dropped_reading_inside_the_program_is_a_wrong_answer(
        tmp_path, monkeypatch):
    merge = payloads.merge_reading_sets
    monkeypatch.setattr(payloads, "merge_reading_sets",
                        lambda parts: merge(parts)[1:])
    result = _run(tmp_path, ["--system", "syncmesh", "--scenario", "collect"], 2)
    assert result.passed == 0 and result.wrong == 2
    assert len(result.failures) == 2


def test_repetitions_are_timed_when_topologies_are_shared(tmp_path, monkeypatch):
    orig = bench.build_topology
    build = functools.lru_cache(maxsize=None)(
        lambda n_nodes, **kwargs: orig(n_nodes, seed=0, **kwargs))
    monkeypatch.setattr(bench, "build_topology",
                        lambda n_nodes, seed, **kwargs: build(n_nodes, **kwargs))
    result = _run(tmp_path, ["--system", "p2p", "--scenario", "transform"], 3)
    assert result.failures == [] and result.passed == 3
    assert len(result.rep_times) == 3
    assert build.cache_info().misses == 1


def test_setup_is_dataset_building_not_the_server_store_load():
    expect = harness.Expectations(bench.generate_synthetic, bench.WINDOWS_DAYS)
    expect.prepare(SEED, (NODES,))
    probe = harness.Probe(types.SimpleNamespace(
        bench=bench, payloads=payloads, netsim=netsim), expect)
    probe.install()
    try:
        bench.run_scenario(bench.ScenarioConfig(
            system="central", scenario="collect", n_nodes=NODES,
            window_days=DAYS, repetitions=2, seed=SEED))
    finally:
        probe.uninstall()
    (call,) = probe.take()
    # generate, ingest, and one store load per node; the server's loads of
    # shipped readings belong to the repetitions
    assert len(call.setup) == 2 + NODES
    assert len(call.reps) == 2 and not any(rep.errors for rep in call.reps)


def test_gaps_leave_out_covered_and_outside_spans():
    spans = [(0.0, 1.0), (2.0, 3.0), (2.5, 4.0), (9.0, 11.0)]
    assert harness._gaps(1.5, 10.0, spans) == [(1.5, 2.0), (4.0, 9.0)]
    assert harness._gaps(5.0, 6.0, spans) == [(5.0, 6.0)]


def test_a_raising_command_fails_all_its_repetitions(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("store offline")

    monkeypatch.setattr(baselines, "evaluate_query", boom)
    result = _run(tmp_path, ["--system", "central", "--scenario", "collect"], 2)
    assert result.passed == 0 and result.wrong == 0
    assert any("store offline" in f for f in result.failures)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    inner = tracer._span_wrapper(lambda: time.sleep(0.02), "inner", None)
    outer = tracer._span_wrapper(lambda: (time.sleep(0.01), inner(), inner()),
                                 "outer", None)
    outer()
    profile = tracer.profile()
    assert profile["inner"]["calls"] == 2
    assert profile["outer"]["busy_s"] >= 0.05
    assert 0.01 <= profile["outer"]["self_s"] < profile["outer"]["busy_s"] - 0.035
    assert profile["inner"]["self_s"] == pytest.approx(profile["inner"]["busy_s"])


def test_tracer_restores_every_patched_function():
    before = (wire.encode_readings, payloads.wire.encode_readings,
              netsim.Network.send, bench.build_topology)
    tracer = tracing.Tracer()
    tracer.install()
    assert wire.encode_readings is not before[0]
    tracer.uninstall()
    after = (wire.encode_readings, payloads.wire.encode_readings,
             netsim.Network.send, bench.build_topology)
    assert after == before
    assert tracer.missing == []


def test_scaled_time_leaves_out_probing_and_follows_host_speed():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_PROBE_S
    speed.starts, speed.ends, speed.probe_s = [1.0, 3.0], [1.1, 3.1], [ref, 2 * ref]
    assert speed.scaled(0.0, 1.0) == pytest.approx(1.0)  # nearest sample: 1.0
    assert speed.scaled(0.5, 2.0) == pytest.approx(1.4)  # 0.1 s probing inside
    assert speed.scaled(2.0, 4.0) == pytest.approx(0.95)  # host at half speed


def test_sampler_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    speed.start()
    time.sleep(2.2 * hostspeed.SAMPLE_EVERY_S)
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(speed.probe_s) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile([5.0], 99) == 5.0
