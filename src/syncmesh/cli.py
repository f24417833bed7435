"""Benchmark command line: `bench run`, `bench matrix`, `bench gen`.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .model import ValidationError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; usage errors are 1
        raise _UsageError(message)


def _ints(raw: str) -> tuple[int, ...]:
    """A comma-separated list of integers."""
    try:
        return tuple(int(v) for v in raw.split(",") if v)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bench",
                     description="Run deterministic edge-mesh traffic benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario configuration")
    run.add_argument("--system", required=True,
                     help=f"one of {', '.join(bench.SYSTEMS)}")
    run.add_argument("--scenario", required=True,
                     help=f"one of {', '.join(bench.SCENARIOS)}")
    run.add_argument("--nodes", type=int, required=True)
    run.add_argument("--days", type=int, required=True)
    run.add_argument("--reps", type=int, default=bench.DEFAULT_REPETITIONS)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--dataset", default="synthetic",
                     help="CSV path, or 'synthetic' for the generated dataset")
    run.add_argument("--out", required=True)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--unsafe-params", action="store_true",
                     help="allow node counts / windows outside the standard experiment grid")

    matrix = sub.add_parser("matrix", help="run the full experiment matrix")
    matrix.add_argument("--seed", type=int, required=True)
    matrix.add_argument("--out", required=True, help="output directory")
    matrix.add_argument("--reps", type=int, default=bench.DEFAULT_REPETITIONS)
    matrix.add_argument("--systems", default=",".join(bench.SYSTEMS))
    matrix.add_argument("--scenarios", default=",".join(bench.SCENARIOS))
    matrix.add_argument("--sizes", type=_ints, default=bench.NETWORK_SIZES)
    matrix.add_argument("--windows", type=_ints, default=bench.WINDOWS_DAYS)
    matrix.add_argument("--quiet", action="store_true")

    gen = sub.add_parser("gen", help="emit a synthetic sensor CSV")
    gen.add_argument("--sensors", type=int, default=12)
    gen.add_argument("--days", type=int, default=30)
    gen.add_argument("--rate", type=int, default=48,
                     help="readings per sensor per day")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = bench.ScenarioConfig(
        system=args.system, scenario=args.scenario, n_nodes=args.nodes,
        window_days=args.days, repetitions=args.reps, seed=args.seed,
        dataset=args.dataset)
    result = bench.run_scenario(cfg, unsafe=args.unsafe_params)
    bench.export_results([result], args.format, args.out)
    print(f"{cfg.system}/{cfg.scenario} n={cfg.n_nodes} days={cfg.window_days}: "
          f"mean request {result.request_time_mean_ms:.1f} ms, "
          f"mean total {result.mean_total_bytes():.0f} bytes "
          f"-> {args.out}")
    return 0


def _cmd_matrix(args) -> int:
    progress = None if args.quiet else (lambda msg: print(msg, flush=True))
    results = bench.run_matrix(
        seed=args.seed, out_dir=args.out,
        systems=tuple(v for v in args.systems.split(",") if v),
        scenarios=tuple(v for v in args.scenarios.split(",") if v),
        sizes=args.sizes, windows=args.windows,
        repetitions=args.reps, progress=progress)
    print(f"wrote {len(results)} configurations to {Path(args.out) / 'matrix.csv'}")
    return 0


def _cmd_gen(args) -> int:
    text = bench.generate_synthetic(args.sensors, args.days, args.rate, args.seed)
    Path(args.out).write_text(text, encoding="utf-8")
    rows = text.count("\n") - 1
    print(f"wrote {rows} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        if args.command == "gen":
            return _cmd_gen(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, bench.ConfigError, bench.MissingColumn,
            bench.EmptyDataset, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
