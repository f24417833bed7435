"""Host-time benchmark of the syncmesh experiment grid.

Run from the repository root:

    python3 perfbench/run.py --workload matrix --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7      # every workload

One invocation runs one workload in this process; `all` runs each workload in
a fresh child process, one after another. The run repeats whole rounds of the
workload until `--seconds` have passed, checks every repetition against the
oracle, and prints each metric by name with its unit. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds and reports the per-layer metrics and the tracing
overhead. Results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import checks
import harness
import hostspeed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("matrix", "cold-local", "cold-shipped")
MIN_ROUNDS = 2  # a median over rounds needs two, even on a slow host
LAYER_UNITS = (("_mb_s", "MB/s"), ("_per_s", "1/s"), ("_ratio", "ratio"),
               ("_pct", "%"), ("_ms", "ms"), ("_bytes", "B"), ("_s", "s"))


def load_package() -> types.SimpleNamespace:
    """Import syncmesh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "syncmesh" / "__init__.py").is_file():
        raise SystemExit(f"error: no syncmesh package under {src}")
    sys.path.insert(0, str(src))
    import syncmesh
    from syncmesh import bench, cli, netsim, payloads

    if Path(syncmesh.__file__).resolve().parent != (src / "syncmesh").resolve():
        raise SystemExit(f"error: imported syncmesh from {syncmesh.__file__}")
    return types.SimpleNamespace(bench=bench, cli=cli, netsim=netsim,
                                 payloads=payloads, src=src / "syncmesh")


def machine(src: Path) -> dict:
    tree = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(ROOT), "source_sha256": tree.hexdigest()}


def git_sha(root: Path) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, first_round_rss_mb: float) -> dict:
    reps = [t * 1000.0 for t in harness.rep_times(rounds)]
    return {
        "wall_s": metric(harness.round_wall(rounds), "s"),
        "setup_s": metric(harness.round_setup(rounds), "s"),
        "peak_rss_mb": metric(first_round_rss_mb, "MB"),
        "rep_ms_p50": metric(statistics.median(reps), "ms"),
        "rep_ms_p99": metric(harness.percentile(reps, 99), "ms"),
    }


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)),
                "count")


def per_layer(tracer, traced, plain) -> dict:
    values = tracing.layer_metrics(tracer.profile(), tracer.counters, len(traced))
    rows = [row for r in traced for op in r for row in op.rows]
    values["netsim.wire_bytes"] = sum(
        row.ingest_bytes_total + row.query_bytes_total for row in rows) / len(traced)
    values["netsim.virtual_request_ms"] = statistics.fmean(
        row.request_time_ms for row in rows)
    values["trace.overhead_pct"] = (harness.round_wall(traced)
                                    / harness.round_wall(plain) - 1.0) * 100.0
    return {name: metric(v, layer_unit(name)) for name, v in sorted(values.items())}


def check_matrix_digests(rounds, key: str) -> list[str]:
    """(e) over this run's rounds and the digests recorded by earlier runs."""
    digests = {op.matrix_digest for r in rounds for op in r if op.matrix_digest}
    if not digests:
        return []
    record = RESULTS / "matrix-digests.json"
    known = json.loads(record.read_text()) if record.is_file() else {}
    errors = [] if len(digests) == 1 else [
        f"rounds wrote {len(digests)} different matrix.csv digests"]
    for digest in digests:
        errors += checks.check_matrix_digest(digest, known.get(key))
    if not errors:
        known[key] = digests.pop()
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, record)
    return errors


def run_workload(args) -> dict:
    m = load_package()
    workload = harness.workloads(m.bench.SYSTEMS, m.bench.SCENARIOS,
                                 m.bench.WINDOWS_DAYS)[args.workload]
    before = peak_rss_mb()
    speed = hostspeed.HostSpeed()
    probe_table_mb = peak_rss_mb() - before  # left out of peak_rss_mb
    expect = harness.Expectations(m.bench.generate_synthetic, m.bench.WINDOWS_DAYS)
    expect.prepare(args.seed, workload.sizes)
    oracle_rss_mb = peak_rss_mb() - probe_table_mb  # imports and the oracle
    probe = harness.Probe(m, expect)
    RESULTS.mkdir(exist_ok=True)
    info = machine(m.src)
    rss: list[float] = []  # peak after each round; later rounds add fragmentation

    def one_round():
        done = harness.run_round(workload, args.seed, m.cli.main, probe, speed,
                                 RESULTS)
        rss.append(peak_rss_mb() - probe_table_mb)
        return done

    def traced_round():
        probe.uninstall()  # the probe must wrap the traced functions
        tracer.install()
        probe.install(check_ledger=True)
        try:
            return one_round()
        finally:
            tracer.end_round()
            probe.uninstall()
            tracer.uninstall()
            probe.install()

    deadline = time.perf_counter() + args.seconds
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    probe.install()
    speed.start()
    try:
        # With --trace 1, untraced and traced rounds alternate, so that both
        # see the same host and neither gets all the warm-up.
        while (len(plain) < (1 if tracer else MIN_ROUNDS) or (tracer and not traced)
               or time.perf_counter() < deadline):
            if tracer is not None and len(traced) < len(plain):
                traced.append(traced_round())
            else:
                plain.append(one_round())
    finally:
        speed.stop()
        probe.uninstall()
    rounds = plain + traced

    ops = [op for r in rounds for op in r]
    attempted = workload.reps_per_round * len(rounds)
    failed = attempted - sum(op.passed for op in ops)
    wrong = sum(op.wrong for op in ops)
    failures = [f for op in ops for f in op.failures]
    digest_errors = check_matrix_digests(
        rounds, f"{info['source_sha256']}|seed={args.seed}|"
                f"{' '.join(workload.commands[0])}")
    metrics = (per_layer(tracer, traced, plain) if tracer
               else end_to_end(plain, rss[0]))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl.gz")
    # A raising or partial repetition only fails; a wrong answer, byte ledger
    # or matrix digest makes the whole run incorrect.
    result = {"correct": not digest_errors and wrong == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": info,
              "round_wall_s": [sum(op.wall for op in r) for r in rounds],
              "raw_round_wall_s": [sum(op.raw_wall for op in r) for r in rounds],
              "cpu_round_s": [sum(op.cpu for op in r) for r in rounds],
              "oracle_rss_mb": oracle_rss_mb, "round_rss_mb": rss,
              "wrong_answers": wrong,
              "pieces_s": [[op.pieces() for op in r] for r in rounds],
              "probe_s": speed.probe_s,
              "failures": (digest_errors + failures)[:50],
              "trace_targets_missing": tracer.missing if tracer else [],
              **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for line in (digest_errors + failures)[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: {name} exited with {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        for name, m in result["metrics"].items():
            print(f"{name:34s} {m['value']:16.6f} {m['unit']}")
        print(f"{'attempted':34s} {result['attempted']:9d} repetitions")
        print(f"{'failed':34s} {result['failed']:9d} repetitions")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
