import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GATHER_TIMEOUT_MS
from oracles import (
    SEED7_12_NODE_CSV_SHA256,
    reference_fold,
    reference_generate,
    reference_ingest,
    union_collect,
)
from syncmesh.bench import (
    DatasetManifest,
    EmptyDataset,
    MatrixCaches,
    MissingColumn,
    ConfigError,
    ScenarioConfig,
    balanced_sensor_ids,
    generate_synthetic,
    ingest_csv,
    ingest_csv_text,
    matrix_configs,
    node_index_for,
    parse_results_csv,
    results_to_csv,
    results_to_json,
    run_scenario,
    trailing_window,
    validate_config,
    _scenario_gather_timeout,
)
from syncmesh import baselines, bench, netsim, payloads, wire
from syncmesh.baselines import CentralBaseline, P2PBaseline
from syncmesh.cli import main
from syncmesh.model import (
    MS_PER_DAY,
    SensorReading,
    TimeRange,
    in_canonical_order,
)
from syncmesh.netsim import Network, build_topology
from syncmesh.payloads import PayloadOps, fingerprint
from syncmesh.wire import encode_readings


def small_cfg(**kw):
    defaults = dict(system="syncmesh", scenario="collect", n_nodes=3,
                    window_days=1, repetitions=2, seed=7)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestGenerateSynthetic:
    def test_row_count_is_product(self):
        text = generate_synthetic(10, 30, 48, seed=1)
        assert text.count("\n") - 1 == 10 * 30 * 48

    def test_same_seed_byte_identical(self):
        assert generate_synthetic(4, 2, 24, seed=9) == generate_synthetic(4, 2, 24, seed=9)

    def test_different_seed_differs(self):
        assert generate_synthetic(4, 2, 24, seed=1) != generate_synthetic(4, 2, 24, seed=2)

    def test_ingests_cleanly(self):
        text = generate_synthetic(6, 3, 24, seed=3)
        manifest, partitions = ingest_csv_text(text, 3)
        assert manifest.malformed_rows == 0
        assert manifest.row_count == 6 * 3 * 24
        assert sum(dict(manifest.per_node_counts).values()) == manifest.row_count

    def test_balanced_ids_cycle_nodes(self):
        ids = balanced_sensor_ids(12, 12)
        assert sorted(node_index_for(s, 12) for s in ids) == list(range(12))

    def test_value_ranges(self):
        text = generate_synthetic(2, 2, 24, seed=4)
        _, partitions = ingest_csv_text(text, 2)
        for readings in partitions.values():
            for r in readings:
                assert -10.0 <= r.temperature <= 40.0
                assert 0.0 <= r.humidity <= 100.0
                assert r.p1 > 0 and r.p2 > 0

    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 1, 1, seed=0)

    def test_rejects_more_than_one_reading_a_second(self):
        """Above 86,400 a day, `86_400 // rate` is 0 s and every row of a
        sensor would have one timestamp; at 86,400 they are 1 s apart."""
        with pytest.raises(ConfigError, match="86400"):
            generate_synthetic(1, 1, 86_401, seed=0)
        manifest, _ = ingest_csv_text(generate_synthetic(1, 1, 86_400, seed=0), 1)
        assert manifest.row_count == 86_400
        assert manifest.time_end - manifest.time_start == 86_399_000

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 48),
           st.one_of(st.integers(-2**63, 2**63), st.sampled_from([0, -1, 7, 10**30])),
           st.booleans())
    def test_equals_the_reference_generator(self, n_sensors, days, per_day,
                                            seed, balanced):
        """The inline draws give the stdlib methods' floats, so the text."""
        balance_across = n_sensors if balanced else None
        assert (generate_synthetic(n_sensors, days, per_day, seed, balance_across)
                == reference_generate(n_sensors, days, per_day, seed,
                                      balance_across))

    def test_twelve_node_dataset_pinned(self):
        """The dataset every 12-node run and golden is built from."""
        text = generate_synthetic(12, 30, 48, seed=7, balance_across=12)
        assert hashlib.sha256(text.encode()).hexdigest() == SEED7_12_NODE_CSV_SHA256

_HEADER = ("sensor_id", "lat", "lon", "timestamp", "P1", "P2",
           "temperature", "humidity", "pressure")


def _mostly(valid, odd):
    """Nine draws in ten from `valid`, so most rows load and the rest are
    malformed in about one cell."""
    return st.integers(0, 9).flatmap(lambda i: odd if i == 0 else valid)


_pad = _mostly(st.just(""), st.sampled_from((" ", "\t", "  ")))
_numbers = _mostly(
    st.one_of(st.integers(0, 99).map(str), st.floats(0, 99, allow_nan=False).map(repr)),
    st.sampled_from(("", " ", "x", "-1.5", "150", "1e3", "inf", "1_0", "-0.0",
                     "0x10", "1.5.2")))
_timestamps = _mostly(
    st.integers(1, 2 * 10**9).map(str),
    st.sampled_from(("", "  ", "0", "-3", "1.5", "soon", "2023-01-01T00:00:05",
                     "2023-01-01T00:00:05Z", "2023-01-01 01:00:05+01:00",
                     "2023-01-01")))
_sensors = _mostly(st.sampled_from(("s1", "s2", "sensor-003")),
                   st.sampled_from(("", "  ")))


def _cell(values):
    return st.tuples(_pad, values, _pad).map("".join)


def _cell_for(name):
    if name == "sensor_id":
        return _cell(_sensors)
    if name == "timestamp":
        return _cell(_timestamps)
    return _cell(_numbers)


@st.composite
def _csv_texts(draw):
    names = list(_HEADER)
    if draw(st.booleans()):
        names.remove("pressure")
    names = draw(st.permutations(names))
    header = [draw(st.tuples(_pad, st.sampled_from((n, n.upper(), n.lower())), _pad)
                   .map("".join)) for n in names]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("row",) * 6 + ("blank", "short")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", ",,", " , ", "\t"))))
            continue
        cells = [draw(_cell_for(n)) for n in names]
        if kind == "short":
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _ingest_outcome(ingest, text, n_nodes):
    try:
        return ingest(text, n_nodes)
    except (EmptyDataset, MissingColumn) as e:
        return type(e), str(e)


class TestIngestCsv:
    def test_header_only_is_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            ingest_csv_text("sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity\n", 3)

    def test_missing_column_named(self):
        with pytest.raises(MissingColumn) as err:
            ingest_csv_text("sensor_id,lat,lon,timestamp,P1,P2,temperature\ns,1,2,10,1,1,5\n", 3)
        assert err.value.column == "humidity"

    def test_partition_conservation_and_determinism(self):
        text = generate_synthetic(20, 1, 50, seed=11)  # 1000 rows
        m1, p1 = ingest_csv_text(text, 4)
        m2, p2 = ingest_csv_text(text, 4)
        assert m1.row_count == 1000
        assert sum(dict(m1.per_node_counts).values()) == 1000
        assert m1 == m2
        assert p1 == p2

    def test_sensor_affinity(self):
        text = generate_synthetic(8, 2, 12, seed=2)
        _, partitions = ingest_csv_text(text, 4)
        home = {}
        for node_id, readings in partitions.items():
            for r in readings:
                assert home.setdefault(r.sensor_id, node_id) == node_id

    def test_malformed_rows_counted_and_skipped(self):
        text = (
            "sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity\n"
            "s1,42.0,23.0,1000,5.0,2.0,20.0,50.0\n"
            "s1,42.0,23.0,not-a-time,5.0,2.0,20.0,50.0\n"
            "s1,42.0,23.0,2000,5.0,2.0,20.0,150.0\n"   # humidity out of range
            "s1,42.0,23.0,3000,-5.0,2.0,20.0,50.0\n"    # negative p1
            "s1,42.0,23.0,4000,5.0,2.0,20.0,50.0\n"
        )
        manifest, _ = ingest_csv_text(text, 2)
        assert manifest.row_count == 2
        assert manifest.malformed_rows == 3

    def test_iso_timestamps_accepted(self):
        text = (
            "sensor_id,lat,lon,timestamp,P1,P2,temperature,humidity\n"
            "s1,42.0,23.0,2023-01-01T00:00:05,5.0,2.0,20.0,50.0\n"
        )
        manifest, partitions = ingest_csv_text(text, 1)
        reading = partitions["node-00"][0]
        assert reading.timestamp == 1_672_531_205_000

    @settings(max_examples=150, deadline=None)
    @given(_csv_texts(), st.integers(1, 4))
    def test_equals_the_reference_ingest(self, text, n_nodes):
        """Padded, empty and non-numeric cells, blank and short rows, ISO
        timestamps, and headers reordered, in upper case or without pressure."""
        assert (_ingest_outcome(ingest_csv_text, text, n_nodes)
                == _ingest_outcome(reference_ingest, text, n_nodes))

    def test_generated_dataset_equals_the_reference_ingest(self):
        text = generate_synthetic(6, 3, 24, seed=3, balance_across=3)
        assert ingest_csv_text(text, 3) == reference_ingest(text, 3)

    def test_path_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(generate_synthetic(3, 1, 8, seed=6), encoding="utf-8")
        manifest, _ = ingest_csv(path, 3)
        assert manifest.row_count == 24
        assert manifest.source == str(path)


class TestValidateConfig:
    def test_standard_grid_values_ok(self):
        validate_config(small_cfg())

    @pytest.mark.parametrize("kw", [
        dict(system="warehouse"),
        dict(scenario="stream"),
        dict(n_nodes=5),
        dict(window_days=2),
        dict(repetitions=0),
    ])
    def test_rejected(self, kw):
        with pytest.raises(ConfigError):
            validate_config(small_cfg(**kw))

    def test_unsafe_allows_off_matrix_sizes(self):
        validate_config(small_cfg(n_nodes=5, window_days=2), unsafe=True)

    def test_config_json_includes_node_records(self):
        obj = small_cfg().to_json_dict(1234.5)
        assert len(obj["node_configs"]) == 3
        record = obj["node_configs"][0]
        assert set(record) == {"node_id", "heartbeat_timeout_ms",
                               "gather_timeout_ms", "registered_transformers"}
        assert [r["node_id"] for r in obj["node_configs"]] == [
            "node-00", "node-01", "node-02"]
        assert record["heartbeat_timeout_ms"] == 3000.0
        assert record["gather_timeout_ms"] == 1234.5
        assert record["registered_transformers"] == ["aggregate_mean"]


class TestTrailingWindow:
    def test_anchored_at_dataset_end(self):
        manifest = DatasetManifest(source="x", row_count=1, malformed_rows=0,
                                   time_start=10, time_end=5_000_000,
                                   per_node_counts=(("node-00", 1),))
        window = trailing_window(manifest, 1)
        assert window.end == 5_000_001
        assert window.start == 5_000_001 - MS_PER_DAY


def test_scenario_gather_deadline_follows_the_latency_range(monkeypatch):
    """A scenario's deadline is a round trip over a link at the top of
    `netsim.LATENCY_RANGE_MS` plus 100 ms, plus the time to serialize
    4 x 300 bytes per dataset row at `netsim.LINK_BANDWIDTH`, plus 500 ms."""
    manifest = DatasetManifest(source="x", row_count=1000, malformed_rows=0,
                               time_start=0, time_end=1,
                               per_node_counts=(("node-00", 1000),))
    transfer = 4.0 * 1000 * 300.0 / netsim.LINK_BANDWIDTH + 500.0
    assert transfer == 1460.0
    assert _scenario_gather_timeout(manifest) == 2.0 * 300.0 + 100.0 + transfer
    monkeypatch.setattr(netsim, "LATENCY_RANGE_MS", (20.0, 900.0))
    assert _scenario_gather_timeout(manifest) == 2.0 * 900.0 + 100.0 + transfer


def _gather_timeouts(config: dict) -> set:
    return {record["gather_timeout_ms"] for record in config["node_configs"]}


def test_manifest_records_the_deadline_each_run_used(tmp_path):
    """Every node record of a written config holds the gather deadline its
    run derived from the dataset, in `bench matrix` and `bench run` alike."""
    assert main(["matrix", "--seed", "7", "--reps", "1", "--sizes", "3",
                 "--out", str(tmp_path), "--quiet"]) == 0
    configs = json.loads((tmp_path / "manifest.json").read_text())["configs"]
    caches = MatrixCaches()
    dataset = bench._dataset_bundle(small_cfg(), caches).manifest
    deadline = _scenario_gather_timeout(dataset)
    assert deadline == 2.0 * 300.0 + 100.0 + (4.0 * 4320 * 300.0 / 1250.0 + 500.0)
    assert len(configs) == 32
    assert all(_gather_timeouts(config) == {deadline} for config in configs)

    out = tmp_path / "run.json"
    assert main(["run", "--system", "syncmesh", "--scenario", "collect",
                 "--nodes", "6", "--days", "1", "--reps", "1", "--seed", "7",
                 "--format", "json", "--out", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    dataset = bench._dataset_bundle(small_cfg(n_nodes=6), caches).manifest
    assert result["dataset"] == dataset.to_json_dict()
    assert len(result["config"]["node_configs"]) == 6
    assert _gather_timeouts(result["config"]) == {
        _scenario_gather_timeout(dataset)}


class TestRunScenario:
    def test_syncmesh_digest_matches_union_oracle(self):
        caches = MatrixCaches()
        cfg = small_cfg(repetitions=2)
        result = run_scenario(cfg, caches)
        bundle = caches.datasets[("synthetic", 7, 3)]
        window = trailing_window(bundle.manifest, 1)
        expected = tuple(union_collect(bundle.partitions, window.start, window.end))
        assert expected  # the window is non-empty
        oracle_digest = fingerprint(encode_readings(expected))
        assert all(row.digest == oracle_digest for row in result.rows)

    def test_syncmesh_has_no_ingest_phase(self):
        result = run_scenario(small_cfg(repetitions=1))
        assert result.rows[0].ingest_time_ms == 0.0
        assert result.rows[0].ingest_bytes_total == 0

    def test_digest_identical_across_repetitions(self):
        for system in ("central", "p2p"):
            result = run_scenario(small_cfg(system=system, repetitions=3))
            assert len({row.digest for row in result.rows}) == 1

    def test_request_times_vary_with_reseeded_latencies(self):
        result = run_scenario(small_cfg(repetitions=3))
        times = [row.request_time_ms for row in result.rows]
        assert len(set(times)) > 1

    def test_rows_match_repetitions(self):
        result = run_scenario(small_cfg(repetitions=4))
        assert [row.rep for row in result.rows] == [0, 1, 2, 3]

    def test_shared_caches_keep_one_ingest_end_state_per_dataset(self):
        """The end state of an ingest depends on the delivered batches alone,
        and every seed delivers all of them, so one end state is kept and
        later configurations install it, whatever their seed; duration,
        bytes and the number of the end state are kept per seed. And no
        memo entry one configuration leaves changes another's rows,
        whichever runs first."""
        configs = [small_cfg(system=system, scenario=scenario,
                             window_days=window, repetitions=3)
                   for system in bench.SYSTEMS
                   for scenario in bench.SCENARIOS
                   for window in (1, 7)]
        fresh = [run_scenario(cfg, MatrixCaches()).rows for cfg in configs]
        for order in (range(len(configs)), reversed(range(len(configs)))):
            caches = MatrixCaches()
            for i in order:
                assert run_scenario(configs[i], caches).rows == fresh[i], configs[i]
        dataset = ("synthetic", 7, 3)
        assert sorted(caches.phases) == [("central", dataset), ("p2p", dataset)]
        for replay in caches.phases.values():
            assert sorted(replay.traffic) == [7, 8, 9]
            assert len(replay.states) == 1
            assert {number for _, _, number in replay.traffic.values()} == {0}
        (kept_store,) = caches.phases[("central", dataset)].states
        (kept_replicas,) = caches.phases[("p2p", dataset)].states

        # The kept state equals the one each later seed builds itself, and
        # the reference fold of what that seed delivered.
        bundle = caches.datasets[dataset]
        partitions = bundle.partitions
        for seed in (8, 9):
            topo = build_topology(3, seed=seed, with_server=True)
            central = CentralBaseline(Network(topo), partitions)
            central.ingest()
            assert (central.server_store.all_readings()
                    == kept_store.all_readings()
                    == _reference_state(central))
            topo = build_topology(3, seed=seed)
            p2p = P2PBaseline(
                Network(topo), partitions,
                gather_timeout_ms=_scenario_gather_timeout(bundle.manifest))
            p2p.sync()
            assert (_end_state_contents(p2p.replicas)
                    == _end_state_contents(kept_replicas)
                    == _reference_state(p2p))

    def test_a_second_pass_over_the_matrix_adds_no_memo_entry(self):
        """Memo keys name only what the work depends on: running every
        3-node configuration again on the same caches finds each entry the
        first pass made, and the rows do not change."""
        caches = MatrixCaches()
        configs = matrix_configs(7, sizes=(3,), repetitions=2)
        first = [run_scenario(cfg, caches).rows for cfg in configs]
        keys = set(caches.payloads)
        assert len(keys) == 210
        assert [run_scenario(cfg, caches).rows for cfg in configs] == first
        assert set(caches.payloads) == keys


# The owners whose answer a 3-node transform query needs: the mesh node and
# its two neighbors, the central server, the three shards, the p2p client.
_ANSWERING_OWNERS = {"syncmesh": 3, "central": 1, "sharded": 3, "p2p": 1}


def test_each_answer_is_computed_once(monkeypatch):
    """Repetitions on shared caches reuse each owner's answer and the p2p
    client's transform; with the memo off every repetition computes them."""
    calls = []
    summarize = payloads.summarize

    def counted(readings, fields):
        if readings:  # not the dry run on no readings that `read_query` makes
            calls.append(len(readings))
        return summarize(readings, fields)

    monkeypatch.setattr(payloads, "summarize", counted)
    shared = MatrixCaches()
    for system, owners in _ANSWERING_OWNERS.items():
        cfg = small_cfg(system=system, scenario="transform", repetitions=3)
        calls.clear()
        rows = run_scenario(cfg, shared).rows
        assert len(calls) == owners, system
        calls.clear()
        assert run_scenario(cfg, MatrixCaches(payloads=None)).rows == rows
        assert len(calls) == 3 * owners, system


def test_topologies_are_shared_and_never_mutated(monkeypatch):
    """A matrix builds each (n, seed, with_server) topology once, and no run
    changes an endpoint or a link of one it shares."""
    build = bench.build_topology
    built = []

    def recorded(n_nodes, seed, **kwargs):
        topo = build(n_nodes, seed=seed, **kwargs)
        built.append(((n_nodes, seed, kwargs["with_server"]), topo,
                      dict(topo.endpoints), dict(topo.links)))
        return topo

    monkeypatch.setattr(bench, "build_topology", recorded)
    caches = MatrixCaches()
    for cfg in matrix_configs(7, sizes=(3,), windows=(1, 7), repetitions=2):
        run_scenario(cfg, caches)
    keys = [key for key, *_ in built]
    assert sorted(keys) == sorted(caches.topologies) == [
        (3, seed, with_server) for seed in (7, 8) for with_server in (False, True)]
    for key, topo, endpoints, links in built:
        assert caches.topologies[key] is topo
        assert topo.endpoints == endpoints and topo.links == links


def _end_state_contents(state):
    """What a kept end state holds: the central store's readings, or each
    peer's."""
    if isinstance(state, dict):
        return {peer: replica.all_readings() for peer, replica in state.items()}
    return state.all_readings()


def test_kept_end_states_are_never_written(monkeypatch):
    """Each end state a `_PhaseReplay` keeps is the same object, holding the
    same readings, after every later config has answered from it."""
    end_state = bench._PhaseReplay._end_state
    kept = {}

    def recorded(replay, system):
        number = end_state(replay, system)
        if (replay.scope, number) not in kept:
            state = replay.states[number]
            kept[replay.scope, number] = (replay, state, _end_state_contents(state))
        return number

    monkeypatch.setattr(bench._PhaseReplay, "_end_state", recorded)
    caches = MatrixCaches()
    for cfg in matrix_configs(7, sizes=(3,), repetitions=3):
        if cfg.system in ("central", "p2p"):
            run_scenario(cfg, caches)
    assert {scope[0] for scope, _ in kept} == {"central", "p2p"}
    for (_, number), (replay, state, contents) in kept.items():
        assert replay.states[number] is state
        assert _end_state_contents(state) == contents


@pytest.mark.parametrize("system", ["central", "p2p"])
def test_the_end_state_follows_what_was_delivered(system):
    """A seed whose run never delivers node-01's batches keeps an end state
    without node-01's readings; a later seed that delivers every batch gets
    the full state, not the first one kept, and so does its answer from
    the memo both seeds share."""
    partitions = bench._dataset_bundle(small_cfg(), MatrixCaches()).partitions
    scope = (system, "dataset")
    replay = bench._PhaseReplay(bench._SHIPPED_STATE[system], scope)
    ops = PayloadOps({}, scope)
    req = bench._build_request(small_cfg(window_days=30), TimeRange(0, 10**15))

    def run(seed, down=()):
        net = Network(build_topology(3, seed=seed, with_server=system == "central"))
        if system == "central":
            shipped = CentralBaseline(net, partitions, ops)
        else:  # a deadline that every peer's full replica can meet
            shipped = P2PBaseline(net, partitions, ops, gather_timeout_ms=1e6)
        for node_id in down:
            net.set_available(node_id, False)
        replay.ingest(shipped, net, seed)
        resp, _ = shipped.query(req, net.clock + 10.0)
        return shipped, resp.payload

    def union(*node_ids):
        return in_canonical_order(chain.from_iterable(
            partitions[n] for n in node_ids))

    everyone = sorted(partitions)
    (partial, partial_answer), (full, full_answer) = (
        run(7, down=["node-01"]), run(8))
    if system == "central":
        assert partial.server_store.all_readings() == union("node-00", "node-02")
        assert full.server_store.all_readings() == union(*everyone)
        assert partial_answer == union("node-00", "node-02")
    else:
        assert {n: r.all_readings() for n, r in partial.replicas.items()} == {
            "node-00": union("node-00", "node-02"), "node-01": union("node-01"),
            "node-02": union("node-00", "node-02")}
        assert {n: r.all_readings() for n, r in full.replicas.items()} == {
            n: union(*everyone) for n in everyone}
    assert full_answer == union(*everyone)
    assert len(replay.states) == 2
    assert [replay.traffic[seed][2] for seed in (7, 8)] == [0, 1]
    assert getattr(partial, replay.state_attr) is replay.states[0]
    assert getattr(full, replay.state_attr) is replay.states[1]
    assert ops.scope_key == scope + (1,)


def test_a_replayed_ingest_logs_nothing_and_returns_the_kept_ledger():
    """The first ingest of a seed is simulated and its log summed; a replay
    of that seed adds no entry to its network and returns the same ledger,
    duration and clock."""
    partitions = bench._dataset_bundle(small_cfg(), MatrixCaches()).partitions
    scope = ("central", "dataset")
    replay = bench._PhaseReplay("server_store", scope)
    runs = []
    for _ in range(2):
        net = Network(build_topology(3, seed=7, with_server=True))
        central = CentralBaseline(net, partitions, PayloadOps({}, scope))
        duration, ledger = replay.ingest(central, net, 7)
        runs.append((duration, ledger, list(net.envelope_log), net.clock))
    (duration, ledger, log, clock), replayed = runs
    assert ledger.bytes == netsim.TrafficLedger(log).bytes
    assert ledger.get(netsim.LinkClass.NODE_SERVER, wire.MessageKind.INGEST) > 0
    assert replayed == (duration, ledger, [], clock)


def _two_orders(first, second):
    """Two central runs that deliver one batch of `first` and one of
    `second`, each a (sender, reading), in opposite orders."""
    runs = []
    for order in ((first, second), (second, first)):
        topo = build_topology(2, seed=7, with_server=True)
        central = CentralBaseline(Network(topo), {})
        for at, (sender, reading) in zip((0.0, 1000.0), order):
            central.net.send(wire.Envelope(
                kind=wire.MessageKind.INGEST, sender=sender,
                receiver=netsim.SERVER_ID, body=wire.encode_readings((reading,)),
                request_id="i000000"), at)
        central.net.run_until_quiescent()
        runs.append(central)
    return runs


def test_the_senders_streams_name_the_end_state():
    """Two senders' batches leave one end state in either interleaving; one
    sender's two batches that write one key with different data leave the
    first arrival's copy, so each order keeps its own."""
    replay = bench._PhaseReplay("server_store", ("central", "dataset"))
    one = ("node-00", SensorReading("node-00", "s", 1_000, temperature=1.0))
    other = ("node-01", SensorReading("node-01", "s", 1_000, temperature=2.0))
    rewrite = ("node-00", SensorReading("node-00", "s", 1_000, temperature=2.0))
    assert [replay._end_state(run) for run in _two_orders(one, other)] == [0, 0]
    assert [replay._end_state(run) for run in _two_orders(one, rewrite)] \
        == [1, 2]
    assert [[r.temperature for r in store.all_readings()]
            for store in replay.states] == [[1.0, 2.0], [1.0], [2.0]]
    assert [replay._end_state(run) for run in _two_orders(one, rewrite)] \
        == [1, 2]
    assert len(replay.states) == 3


# Streams over a few keys: one sender's batches may write a key twice with
# different data, a batch may hold an invalid reading, and a central batch
# may hold another node's reading.
_STREAM_NODES = ("node-00", "node-01", "node-02")


@st.composite
def _streams(draw, system):
    streams = {}
    for sender in _STREAM_NODES:
        receivers = ((netsim.SERVER_ID,) if system == "central"
                     else [p for p in _STREAM_NODES if p != sender])
        owners = (st.sampled_from((sender, sender, sender, "node-00"))
                  if system == "central" else st.sampled_from(_STREAM_NODES[:2]))
        reading = st.builds(
            SensorReading, owners, st.just("s0"), st.integers(1, 2),
            temperature=st.sampled_from((0.0, 1.0, 2.0)),
            humidity=st.sampled_from((None, None, None, 200.0)))
        for receiver in receivers:
            batches = draw(st.lists(st.lists(reading, min_size=1, max_size=3)
                                    .map(tuple), max_size=3))
            if batches:
                streams[sender, receiver] = batches
    return streams


def _interleaving(draw, streams):
    """The batches of every stream, each stream in its own order, in a
    drawn order across streams."""
    tags = draw(st.permutations([stream for stream, batches in streams.items()
                                 for _ in batches]))
    batches = {stream: iter(streams[stream]) for stream in streams}
    return [(stream, next(batches[stream])) for stream in tags]


def _reference_state(shipped):
    """The end state folded from the batches `shipped`'s network delivered,
    in arrival order, by one rule for both systems: `reference_fold` of what
    the server received, or of each peer's own partition in the batches
    `sync` gossips and then what the peer received."""
    arrived = sorted((e for e in shipped.net.envelope_log if e.delivered
                      and e.envelope.kind in (wire.MessageKind.INGEST,
                                              wire.MessageKind.GOSSIP)),
                     key=lambda e: e.deliver_at)
    if isinstance(shipped, CentralBaseline):
        return reference_fold((e.envelope.sender, e.envelope.payload)
                              for e in arrived)
    size = baselines.INGEST_BATCH_SIZE
    states = {}
    for peer, own in shipped.partitions.items():
        writes = [(peer, own[i:i + size]) for i in range(0, len(own), size)]
        writes += [(e.envelope.sender, e.envelope.payload) for e in arrived
                   if e.envelope.receiver == peer]
        states[peer] = reference_fold(writes)
    return states


@pytest.mark.parametrize("system", ["central", "p2p"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_stream_key_is_exact(system, data):
    """Three runs through one replay: two interleavings of the same
    streams, then the first with one stream reversed. Each kept state is
    the reference fold of its own run's deliveries, and the two
    interleavings share one."""
    streams = data.draw(_streams(system))
    first = _interleaving(data.draw, streams)
    runs = [first, _interleaving(data.draw, streams)]
    reversible = sorted(stream for stream, batches in streams.items()
                        if len(batches) > 1)
    if reversible:
        flipped = data.draw(st.sampled_from(reversible))
        backwards = iter(streams[flipped][::-1])
        runs.append([(stream, next(backwards) if stream == flipped else batch)
                     for stream, batch in first])
    replay = bench._PhaseReplay(bench._SHIPPED_STATE[system], (system, "data"))
    numbers = []
    for seed, order in enumerate(runs):
        net = Network(build_topology(len(_STREAM_NODES), seed=seed,
                                     with_server=system == "central"))
        if system == "central":
            shipped = CentralBaseline(net, {})
            kind = wire.MessageKind.INGEST
        else:
            shipped = P2PBaseline(net, dict.fromkeys(_STREAM_NODES, ()),
                                  gather_timeout_ms=GATHER_TIMEOUT_MS)
            kind = wire.MessageKind.GOSSIP
        for i, ((sender, receiver), batch) in enumerate(order):
            net.send(wire.Envelope(kind=kind, sender=sender, receiver=receiver,
                                   body=encode_readings(batch), payload=batch),
                     1000.0 * i)
        net.run_until_quiescent()
        replay.ingest(shipped, net, seed)
        number = replay.traffic[seed][2]
        numbers.append(number)
        state = replay.states[number]
        assert _end_state_contents(state) == _reference_state(shipped)
        # Each reading held came from its own node, whatever was delivered.
        own_sends = {r for env, batch in shipped.delivered for r in batch
                     if r.node_id == env.sender}
        stores = state.values() if system == "p2p" else (state,)
        assert all(set(store.all_readings()) <= own_sends for store in stores)
    assert numbers[0] == numbers[1]


@pytest.mark.parametrize("system", ["syncmesh", "central", "sharded", "p2p"])
def test_receivers_read_attached_payloads_only(system, monkeypatch):
    """Every sender attaches the object it encoded, so no receiver falls back
    to decompressing and decoding a body the same process built."""
    read_payload = wire.read_payload

    def attached_only(env):
        assert env.payload is not None, f"{env.kind.name} decoded from bytes"
        return read_payload(env)

    monkeypatch.setattr(wire, "read_payload", attached_only)
    for scenario in ("collect", "transform"):
        result = run_scenario(small_cfg(system=system, scenario=scenario,
                                        repetitions=1))
        assert not result.rows[0].partial


@pytest.mark.parametrize("system", ["syncmesh", "central", "sharded", "p2p"])
def test_a_finished_repetition_is_freed_without_the_cycle_collector(
        system, monkeypatch):
    """Each repetition's network, systems and envelope log are freed by
    reference counting as soon as the repetition ends."""
    networks = []

    def recorded_network(topology):
        net = Network(topology)
        networks.append(weakref.ref(net))
        return net

    monkeypatch.setattr(bench, "Network", recorded_network)
    gc.collect()
    gc.disable()
    try:
        run_scenario(small_cfg(system=system))
        alive = [ref() is not None for ref in networks]
    finally:
        gc.enable()
    assert alive == [False, False]


class TestExport:
    def _results(self):
        caches = MatrixCaches()
        return [run_scenario(small_cfg(repetitions=3), caches),
                run_scenario(small_cfg(system="central", repetitions=3), caches)]

    def test_csv_shape_and_roundtrip(self):
        results = self._results()
        text = results_to_csv(results)
        data, summaries = parse_results_csv(text)
        assert len(data) == 6
        assert len(summaries) == 2
        by_system = {d["system"] for d in data}
        assert by_system == {"syncmesh", "central"}
        for result in results:
            match = [s for s in summaries if s["system"] == result.config.system][0]
            assert match["request_time_mean_ms"] == round(result.request_time_mean_ms, 3)
            assert match["request_time_std_ms"] == round(result.request_time_std_ms, 3)
        for row, parsed in zip(results[0].rows, data[:3]):
            assert parsed["bytes_client"] == row.bytes_client
            assert parsed["digest"] == row.digest
            assert parsed["request_time_ms"] == round(row.request_time_ms, 3)

    def test_json_export_parses(self):
        text = results_to_json(self._results())
        obj = json.loads(text)
        assert len(obj["results"]) == 2
        assert obj["results"][0]["summary"]["request_time_mean_ms"] > 0

    def test_export_deterministic(self):
        a = results_to_csv(self._results())
        b = results_to_csv(self._results())
        assert a == b


class TestTrends:
    @pytest.mark.parametrize("system", ["syncmesh", "central", "sharded", "p2p"])
    def test_collect_bytes_grow_with_window(self, system):
        caches = MatrixCaches()
        per_window = {}
        for days in (1, 7, 30):
            cfg = small_cfg(system=system, window_days=days, repetitions=1)
            per_window[days] = run_scenario(cfg, caches).rows[0].bytes_client
        assert per_window[1] <= per_window[7] <= per_window[30]

    @pytest.mark.parametrize("system", ["syncmesh", "sharded"])
    def test_transform_bytes_window_insensitive(self, system):
        caches = MatrixCaches()
        per_window = {}
        for days in (1, 30):
            cfg = small_cfg(system=system, scenario="transform",
                            window_days=days, repetitions=1)
            per_window[days] = run_scenario(cfg, caches).rows[0].bytes_client
        assert per_window[30] <= 2 * per_window[1]


def test_matrix_configs_cover_grid():
    configs = matrix_configs(seed=1)
    assert len(configs) == 4 * 2 * 4 * 4
    assert len({(c.system, c.scenario, c.n_nodes, c.window_days)
                for c in configs}) == len(configs)


# sha256 of matrix.csv from `bench matrix --seed 7 --reps 1 --sizes 3`: request
# times and bytes of every system, scenario and window at 3 nodes. A change to
# any wire byte or virtual timing moves it.
GOLDEN_SMALL_MATRIX_SHA256 = (
    "220c0001e5d526a86ceed9e85020a38d0e0f7584a35f9b97d7c49c5c05246733")
# sha256 of the manifest.json written next to it: the settings every config
# ran with, gather deadlines included. A change to any recorded setting
# moves it.
GOLDEN_SMALL_MANIFEST_SHA256 = (
    "a4150990541dcdf21d29a904eb1a4a650b043d5d2101d18331ab4117b2d8496c")


def test_small_matrix_output_is_golden(tmp_path):
    """Twice in one process: the second command, after the first one's
    caches and kept endings are gone, writes the same bytes."""
    for run in ("first", "second"):
        out = tmp_path / run
        code = main(["matrix", "--seed", "7", "--reps", "1", "--sizes", "3",
                     "--out", str(out), "--quiet"])
        assert code == 0
        digest = hashlib.sha256((out / "matrix.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SMALL_MATRIX_SHA256
        digest = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
        assert digest == GOLDEN_SMALL_MANIFEST_SHA256


def test_small_matrix_output_is_the_same_under_any_hash_seed(tmp_path):
    """The same seed gives the same bytes whatever `PYTHONHASHSEED` orders
    sets and dicts of strings by: each command runs in its own interpreter."""
    src = str(Path(bench.__file__).resolve().parent.parent)
    written = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run(
            [sys.executable, "-m", "syncmesh", "matrix", "--seed", "7",
             "--sizes", "3", "--reps", "1", "--out", str(out), "--quiet"],
            env=env, check=True, timeout=300, stdout=subprocess.DEVNULL)
        written.append([(out / name).read_bytes()
                        for name in ("matrix.csv", "manifest.json")])
    assert written[0] == written[1]
    assert hashlib.sha256(written[0][0]).hexdigest() == GOLDEN_SMALL_MATRIX_SHA256


# sha256 of the CSV from `bench run --system <system> --scenario <scenario>
# --nodes 12 --days 30 --reps 1 --seed 7`: one cold repetition at the size the
# benchmark's cold-local and cold-shipped workloads measure, where every p2p
# replica holds all 17,280 readings.
GOLDEN_RUN_AT_TWELVE_NODES_SHA256 = {
    ("central", "collect"):
        "33b0699adfdc95f0229ba39dd40889c02125b2e51e2c6add7a90015e46951dba",
    ("central", "transform"):
        "fdcc4f71183a88bb73af37e349d40a02dcb7be9e09997a90fe99042f4f2ea0b4",
    ("p2p", "collect"):
        "adc9f71ce00a1ac5a50f8d64a2011ca77016e06daa37a0e60db6c6237f0d0fdd",
    ("p2p", "transform"):
        "c59021f658e47b593bbe171ccfda70932ef235f4dd8d2011d5dd34073d3a70c4",
    ("sharded", "collect"):
        "ff95e12efb8aede065700123a469b43eca341a06e929095ccda9e21f75ecf460",
    ("sharded", "transform"):
        "de5d934a5c1828f39b84bc9fafda483e011076c402daebf8580c5aa7a551944a",
    ("syncmesh", "collect"):
        "7f263f528c85f08ed4c1d54029040ee67037964d1c43a05c75d3d558ebeb6d69",
    ("syncmesh", "transform"):
        "95e9b1fe886e460b848e748523855a622b4dbc0f60154f09f748b7929d6b1102",
}


@pytest.mark.parametrize("system,scenario", sorted(GOLDEN_RUN_AT_TWELVE_NODES_SHA256))
def test_run_at_twelve_nodes_is_golden(system, scenario, tmp_path):
    out = tmp_path / "run.csv"
    code = main(["run", "--system", system, "--scenario", scenario,
                 "--nodes", "12", "--days", "30", "--reps", "1", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_RUN_AT_TWELVE_NODES_SHA256[(system, scenario)]


# sha256 of the JSON from `bench run ... --seed 7 --format json`: the config
# record with its node records and gather deadline, the dataset manifest,
# every row and the summary. A change to any exported field, its order or
# its rounding moves it.
GOLDEN_RUN_JSON_SHA256 = {
    ("p2p", "transform", "3", "7", "3"):
        "36f49c8477ffb2fb3af72b03516c5d8d0477f609de64b4a12e734dcc1b271531",
    ("sharded", "collect", "3", "7", "2"):
        "0dad2629ff301996047b4ad0e126760155b90511178d851b0c873ebaaadfe7d7",
}


@pytest.mark.parametrize("system,scenario,nodes,days,reps",
                         sorted(GOLDEN_RUN_JSON_SHA256))
def test_run_json_export_is_golden(system, scenario, nodes, days, reps,
                                   tmp_path):
    out = tmp_path / "run.json"
    code = main(["run", "--system", system, "--scenario", scenario,
                 "--nodes", nodes, "--days", days, "--reps", reps,
                 "--seed", "7", "--format", "json", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_RUN_JSON_SHA256[(system, scenario, nodes, days, reps)]
