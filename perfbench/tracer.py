"""Wall-clock spans around the public functions of each `syncmesh` module.

The tracer patches functions from outside the package: every module-level
name bound to a traced function is replaced by a wrapper, and methods are
replaced on their class. Each call records one span (name, start, end,
parent, work) in memory; a span's self time is its duration minus the time
its direct child spans cover. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

MB = 1_000_000
PACKAGE = "syncmesh"


def _count(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _parts_count(parts) -> int:
    return sum(_count(p) for p in parts) if isinstance(parts, (list, tuple)) else 0


def _codec_name(args) -> str:
    return getattr(args[0], "name", str(args[0]))


# (module, attribute, span name, work counter). A method is "Class.method".
# The span name may depend on the arguments; work is computed after the call
# from (args, result) and is a byte or reading count.
TARGETS = (
    ("fastlz", "compress", "fastlz.compress", lambda a, r: len(a[0])),
    ("fastlz", "decompress", "fastlz.decompress", lambda a, r: len(r)),
    ("wire", "encode_readings", "wire.encode_readings", lambda a, r: _count(a[0])),
    ("wire", "decode_readings", "wire.decode_readings", lambda a, r: _count(r)),
    ("wire", "encode_response", "wire.encode_response", None),
    ("wire", "decode_response", "wire.decode_response", None),
    ("wire", "encode_request", "wire.encode_request", None),
    ("wire", "decode_request", "wire.decode_request", None),
    ("wire", "compress", lambda a: f"wire.compress.{_codec_name(a)}", None),
    ("wire", "decompress", lambda a: f"wire.decompress.{_codec_name(a)}", None),
    ("model", "summarize", "model.summarize", lambda a, r: _count(a[0])),
    ("model", "merge_reading_sets", "model.merge_reading_sets",
     lambda a, r: _parts_count(a[0])),
    ("model", "merge_summaries", "model.merge_summaries", None),
    ("store", "LocalStore.load_many", "store.load_many", lambda a, r: _count(a[1])),
    ("store", "LocalStore.query", "store.query", lambda a, r: _count(r)),
    ("netsim", "build_topology", "netsim.build_topology", None),
    ("netsim", "Network.run_until_quiescent", "netsim.run_until_quiescent", None),
    ("payloads", "fingerprint", "payloads.fingerprint", None),
    ("node", "SyncMeshNode.handle_request", "node.handle_request",
     lambda a, r: int(getattr(a[1].scope, "value", "") == "MESH")),
    ("baselines", "P2PReplica.apply_batch", "baselines.p2p_apply_batch",
     lambda a, r: _count(a[1])),
    ("baselines", "P2PReplica.query_range", "baselines.p2p_query_range", None),
    ("baselines", "P2PBaseline.sync", "baselines.p2p_sync", None),
    ("baselines", "CentralBaseline.ingest", "baselines.central_ingest", None),
    ("bench", "generate_synthetic", "bench.generate_synthetic", None),
    ("bench", "ingest_csv_text", "bench.ingest_csv_text",
     lambda a, r: r[0].row_count),
    ("bench", "results_to_csv", "bench.export", None),
    ("bench", "results_to_json", "bench.export", None),
    ("bench", "run_scenario", "bench.run_scenario", None),
)


class Tracer:
    """In-memory span recorder plus the counters that are not spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._caches: list = []  # MatrixCaches created in the current round
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    # -- patching ------------------------------------------------------------

    def _span_wrapper(self, fn, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def _replace(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, orig, new) -> None:
        """Rebind every module-level name in the package that holds `orig`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._replace(module, attr, new)

    def install(self) -> None:
        self.missing = []
        for mod_name, attr, name, work in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, method or attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._span_wrapper(orig, name, work)
            if owner_name:
                self._replace(owner, method, wrapper)
            else:
                self._replace_everywhere(orig, wrapper)
        self._install_counters()
        if self.missing:
            print(f"trace: targets not found: {', '.join(self.missing)}",
                  file=sys.stderr)

    def _install_counters(self) -> None:
        counters = self.counters

        def send(orig):
            def counted(net, env, at):
                delivery = orig(net, env, at)
                if delivery is not None:
                    counters["netsim.events"] += 1
                return delivery
            return counted

        def call_at(orig):
            def counted(net, at, fn):
                counters["netsim.events"] += 1
                return orig(net, at, fn)
            return counted

        def memo(orig):
            def counted(ops, key, fn):
                if ops.cache is not None:
                    counters["payloads.memo_lookups"] += 1
                    if (ops.scope_key,) + key in ops.cache:
                        counters["payloads.memo_hits"] += 1
                return orig(ops, key, fn)
            return counted

        def caches_init(orig):
            def recorded(caches, *args, **kwargs):
                orig(caches, *args, **kwargs)
                self._caches.append(caches)
            return recorded

        for mod_name, cls_name, attr, make in (
                ("netsim", "Network", "send", send),
                ("netsim", "Network", "call_at", call_at),
                ("payloads", "PayloadOps", "memo", memo),
                ("bench", "MatrixCaches", "__init__", caches_init)):
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._replace(cls, attr, functools.wraps(orig)(make(orig)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def end_round(self) -> None:
        """Count the round's cache entries, then let the caches go."""
        for caches in self._caches:
            self.counters["payloads.memo_entries"] += len(getattr(caches, "payloads", ()))
            self.counters["bench.phase_entries"] += len(getattr(caches, "phases", ()))
        self._caches.clear()

    def profile(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, busy seconds and total work.

        Busy time is the duration of the outermost call of a name, so a name
        that calls itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, work) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "busy_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["work"] += work or 0
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["busy_s"] += end - start
        return out

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start_us": round((start - t0) * 1e6, 1),
                                    "end_us": round((end - t0) * 1e6, 1),
                                    "work": work}, separators=(",", ":")))
                f.write("\n")


def _rate(work: float, seconds: float, scale: float = 1.0) -> float:
    return work / scale / seconds if seconds > 0 else 0.0


def layer_metrics(profile: dict, counters: Counter, rounds: int) -> dict[str, float]:
    """The per-layer metrics of the traced rounds, each per round."""
    def get(name, key="self_s"):
        return profile.get(name, {}).get(key, 0.0)

    def per_round(x):
        return x / rounds

    gzip_s = get("wire.compress.GZIP") + get("wire.decompress.GZIP")
    loop_self = get("netsim.run_until_quiescent")
    events = counters["netsim.events"]
    lookups = counters["payloads.memo_lookups"]
    return {
        "fastlz.compress_s": per_round(get("fastlz.compress")),
        "fastlz.compress_mb_s": _rate(get("fastlz.compress", "work"),
                                      get("fastlz.compress"), MB),
        "fastlz.decompress_s": per_round(get("fastlz.decompress")),
        "fastlz.decompress_mb_s": _rate(get("fastlz.decompress", "work"),
                                        get("fastlz.decompress"), MB),
        "wire.encode_readings_s": per_round(get("wire.encode_readings")),
        "wire.encode_readings_per_s": _rate(get("wire.encode_readings", "work"),
                                            get("wire.encode_readings")),
        "wire.decode_readings_s": per_round(get("wire.decode_readings")),
        "wire.decode_readings_per_s": _rate(get("wire.decode_readings", "work"),
                                            get("wire.decode_readings")),
        "wire.encode_response_s": per_round(get("wire.encode_response")),
        "wire.decode_response_s": per_round(get("wire.decode_response")),
        "wire.gzip_s": per_round(gzip_s),
        "model.summarize_s": per_round(get("model.summarize")),
        "model.summarize_readings_per_s": _rate(get("model.summarize", "work"),
                                                get("model.summarize")),
        "model.merge_reading_sets_s": per_round(get("model.merge_reading_sets")),
        "model.merge_readings_per_s": _rate(get("model.merge_reading_sets", "work"),
                                            get("model.merge_reading_sets")),
        "model.merge_summaries_s": per_round(get("model.merge_summaries")),
        "store.load_s": per_round(get("store.load_many")),
        "store.load_rows_per_s": _rate(get("store.load_many", "work"),
                                       get("store.load_many")),
        "store.query_s": per_round(get("store.query")),
        "store.query_readings_per_s": _rate(get("store.query", "work"),
                                            get("store.query")),
        "netsim.build_topology_s": per_round(get("netsim.build_topology")),
        "netsim.events": per_round(events),
        "netsim.loop_self_s": per_round(loop_self),
        "netsim.events_per_s": _rate(events, loop_self),
        "payloads.memo_lookups": per_round(lookups),
        "payloads.memo_hit_ratio": (counters["payloads.memo_hits"] / lookups
                                    if lookups else 0.0),
        "payloads.memo_entries": per_round(counters["payloads.memo_entries"]),
        "payloads.fingerprint_s": per_round(get("payloads.fingerprint")),
        "node.handle_request_s": per_round(get("node.handle_request")),
        "node.gathers": per_round(get("node.handle_request", "work")),
        "baselines.p2p_apply_batch_s": per_round(get("baselines.p2p_apply_batch")),
        "baselines.p2p_sync_s": per_round(get("baselines.p2p_sync", "busy_s")),
        "baselines.p2p_query_range_s": per_round(get("baselines.p2p_query_range")),
        "baselines.central_ingest_s": per_round(get("baselines.central_ingest",
                                                    "busy_s")),
        "bench.generate_s": per_round(get("bench.generate_synthetic")),
        "bench.ingest_csv_rows_per_s": _rate(get("bench.ingest_csv_text", "work"),
                                             get("bench.ingest_csv_text")),
        "bench.phase_entries": per_round(counters["bench.phase_entries"]),
        "bench.export_s": per_round(get("bench.export")),
    }
