import json

import pytest

from oracles import union_collect
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
)
from syncmesh import wire
from syncmesh.model import MS_PER_DAY
from syncmesh.payloads import fingerprint
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
        obj = small_cfg().to_json_dict()
        assert len(obj["node_configs"]) == 3
        record = obj["node_configs"][0]
        assert set(record) == {"node_id", "heartbeat_interval_ms",
                               "heartbeat_timeout_ms", "gather_timeout_ms",
                               "registered_transformers"}


class TestTrailingWindow:
    def test_anchored_at_dataset_end(self):
        manifest = DatasetManifest(source="x", row_count=1, malformed_rows=0,
                                   time_start=10, time_end=5_000_000,
                                   per_node_counts=(("node-00", 1),))
        window = trailing_window(manifest, 1)
        assert window.end == 5_000_001
        assert window.start == 5_000_001 - MS_PER_DAY


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
