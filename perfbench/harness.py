"""Workloads, repetition probe and round runner of the benchmark.

Every workload is a batch of `bench` command lines, run in-process through
`syncmesh.cli.main` exactly as a user would type them. A round is one pass
over the batch; a run repeats whole rounds. The probe wraps public names of
`syncmesh` to see inside each command:

- `bench.run_scenario`: one scenario configuration, its rows and errors;
- `bench.RepetitionRow`: built once per repetition, as its result, so its
  construction ends a repetition and the next one starts right after;
- `bench.generate_synthetic`, `bench.ingest_csv_text` and the
  `store.LocalStore.load_many` calls handed the partitions that ingest
  returned: the set-up, which builds the input datasets (a server store
  loading shipped readings is the write path, not set-up);
- `payloads.PayloadOps.payload_digest`: handed the answer a repetition
  produced, which is checked against the oracle there and then;
- in traced rounds, `netsim.Network.run_until_quiescent`, after which the
  ledger is checked against the envelope log.

The checks' own time is left out of every piece of a command's time, and
only their verdicts are kept.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

COLD_NODES = 12
COLD_DAYS = 30
# The matrix runs every system, scenario and window on the smallest network
# size, so that five or more rounds fit in one run; the cold workloads cover
# the largest size. Three repetitions give two cache-hit repetitions per
# cold first one.
MATRIX_SIZES = (3,)
MATRIX_REPS = 3
SYNTHETIC_DAYS = 30
SYNTHETIC_READINGS_PER_DAY = 48


class HarnessError(RuntimeError):
    """The benchmark cannot measure this program: a hook no longer fits."""


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]  # argv templates; {seed} {out}
    reps_per_round: int
    sizes: tuple[int, ...]  # network sizes, each with its own dataset

    def argv(self, index: int, seed: int, out_dir: Path) -> list[str]:
        return [a.format(seed=seed, out=out_dir / f"op{index}")
                for a in self.commands[index]]


def _cold(systems, scenarios) -> Workload:
    """`bench run` of one fresh repetition per system and scenario."""
    commands = tuple(
        ("run", "--system", system, "--scenario", scenario,
         "--nodes", str(COLD_NODES), "--days", str(COLD_DAYS),
         "--reps", "1", "--seed", "{seed}", "--out", "{out}.csv")
        for system in systems for scenario in scenarios)
    return Workload(commands, len(commands), (COLD_NODES,))


def workloads(systems, scenarios, windows) -> dict[str, Workload]:
    """The three workloads over the package's experiment grid."""
    matrix_reps = (MATRIX_REPS * len(systems) * len(scenarios)
                   * len(MATRIX_SIZES) * len(windows))
    return {
        "matrix": Workload(
            (("matrix", "--seed", "{seed}", "--reps", str(MATRIX_REPS),
              "--sizes", ",".join(map(str, MATRIX_SIZES)),
              "--out", "{out}", "--quiet"),),
            matrix_reps, MATRIX_SIZES),
        "cold-local": _cold(("syncmesh", "sharded"), scenarios),
        "cold-shipped": _cold(("central", "p2p"), scenarios),
    }


# ---------------------------------------------------------------------------
# oracle answers
# ---------------------------------------------------------------------------

class Expectations:
    """Oracle answers per (seed, nodes, window days), built before any round.

    Only the small `checks.Expected` summaries are kept. `generate` is the
    program's `generate_synthetic` as bound before the probe wraps it, so
    building the oracle never counts as set-up."""

    def __init__(self, generate, windows):
        self.generate = generate
        self.windows = tuple(windows)
        self._expected: dict = {}

    def prepare(self, seed: int, sizes) -> None:
        for n_nodes in sizes:
            if (seed, n_nodes, self.windows[0]) in self._expected:
                continue
            text = self.generate(
                n_sensors=n_nodes, days=SYNTHETIC_DAYS,
                readings_per_sensor_per_day=SYNTHETIC_READINGS_PER_DAY,
                seed=seed, balance_across=n_nodes)
            oracle = checks.Oracle(text, n_nodes)
            for w in self.windows:
                self._expected[(seed, n_nodes, w)] = checks.expect(oracle.window(w))

    def get(self, seed: int, n_nodes: int, days: int) -> checks.Expected | None:
        return self._expected.get((seed, n_nodes, days))


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

@dataclass
class Repetition:
    errors: list
    wrong: bool  # the answer or the byte ledger is wrong, not just missing


@dataclass
class ScenarioCall:
    """One `run_scenario` call: its repetitions' spans and verdicts."""

    cfg: object
    want: checks.Expected | None
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # (start, end) of dataset building
    skipped: list = field(default_factory=list)  # (start, end) of the checks
    partitions: list = field(default_factory=list)  # as ingest returned them
    reps: list = field(default_factory=list)
    answer_errors: list | None = None  # of the repetition in progress
    ledger_errors: list = field(default_factory=list)
    result: object = None

    def check_answer(self, payload) -> None:
        if self.want is None:
            self.answer_errors = ["no oracle answer for this configuration"]
        elif self.cfg.scenario == "collect":
            self.answer_errors = checks.check_collect(payload, self.want)
        else:
            self.answer_errors = checks.check_transform(payload, self.want)

    def finish_repetition(self, row) -> None:
        wrong = self.ledger_errors + checks.check_bytes(row, self.cfg.system)
        if self.cfg.scenario == "collect" and self.want is not None:
            wrong += checks.check_reported_digest(row.digest, self.want)
        answer = (["no answer reached the checks"] if self.answer_errors is None
                  else self.answer_errors)
        self.reps.append(Repetition(
            errors=wrong + answer + checks.check_complete(row),
            # a partial answer is an expected shortfall, not a wrong one
            wrong=bool(wrong) or (bool(self.answer_errors) and not row.partial
                                  and self.want is not None)))
        self.answer_errors, self.ledger_errors = None, []


class Probe:
    """Hooks that mark repetitions and check answers; see the module doc."""

    def __init__(self, modules, expect: Expectations):
        self.m = modules
        self.expect = expect
        self.calls: list[ScenarioCall] = []
        self._current: ScenarioCall | None = None
        self._patches: list[tuple] = []

    def _replace(self, owner, attr, make) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            raise HarnessError(f"{owner.__name__}.{attr} is gone")
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def install(self, check_ledger: bool = False) -> None:
        """Wrap the names as they are bound now, traced or not."""
        bench, payloads, netsim = self.m.bench, self.m.payloads, self.m.netsim
        clock = time.perf_counter

        def run_scenario(orig):
            def wrapper(cfg, *args, **kwargs):
                call = ScenarioCall(cfg=cfg, want=self.expect.get(
                    cfg.seed, cfg.n_nodes, cfg.window_days))
                self.calls.append(call)
                self._current = call
                call.starts.append(clock())
                try:
                    call.result = orig(cfg, *args, **kwargs)
                    return call.result
                finally:
                    del call.starts[len(call.ends):]  # no row, no repetition
                    call.partitions = []
                    self._current = None
            return wrapper

        def repetition_row(orig):
            def wrapper(*args, **kwargs):
                row = orig(*args, **kwargs)
                call = self._current
                if call is not None:
                    call.ends.append(clock())
                    call.finish_repetition(row)
                    call.starts.append(clock())
                return row
            return wrapper

        def skipped(call, check) -> None:
            start = clock()
            check()
            call.skipped.append((start, clock()))

        def payload_digest(orig):
            def wrapper(ops, payload, *args, **kwargs):
                call = self._current
                if call is not None:
                    skipped(call, lambda: call.check_answer(payload))
                return orig(ops, payload, *args, **kwargs)
            return wrapper

        def run_until_quiescent(orig):
            def wrapper(net, *args, **kwargs):
                clock_at = orig(net, *args, **kwargs)
                call = self._current
                if call is not None:
                    skipped(call, lambda: call.ledger_errors.extend(
                        checks.check_envelope_log(net.ledger.total(),
                                                  net.envelope_log)))
                return clock_at
            return wrapper

        def setup_step(orig, counts=lambda call, args: True):
            """Time the calls that `counts` says build the scenario's input."""
            def wrapper(*args, **kwargs):
                call = self._current
                if call is None or not counts(call, args):
                    return orig(*args, **kwargs)
                start = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    call.setup.append((start, clock()))
            return wrapper

        def ingest(orig):
            timed = setup_step(orig)

            def wrapper(*args, **kwargs):
                manifest, partitions = timed(*args, **kwargs)
                if self._current is not None:
                    self._current.partitions += partitions.values()
                return manifest, partitions
            return wrapper

        def load_many(orig):
            return setup_step(orig, lambda call, args: any(
                args[1] is p for p in call.partitions))

        self._replace(bench, "run_scenario", run_scenario)
        self._replace(bench, "RepetitionRow", repetition_row)
        self._replace(bench, "generate_synthetic", setup_step)
        self._replace(bench, "ingest_csv_text", ingest)
        self._replace(bench.LocalStore, "load_many", load_many)
        self._replace(payloads.PayloadOps, "payload_digest", payload_digest)
        if check_ledger:
            self._replace(netsim.Network, "run_until_quiescent", run_until_quiescent)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[ScenarioCall]:
        calls, self.calls = self.calls, []
        return calls


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    """One command: its times at reference host speed, rows and verdicts.

    The command's time is cut into pieces that each run once per round:
    the set-up of its scenario runs, each repetition, and the rest (argument
    parsing, export). `wall` is their sum; `raw_wall` and `cpu` are plain
    host and process CPU time of the whole command, checks included."""

    setup: float
    rep_times: list
    rest: float
    raw_wall: float
    cpu: float
    rows: list
    passed: int
    wrong: int
    failures: list
    matrix_digest: str | None = None

    @property
    def wall(self) -> float:
        return self.setup + sum(self.rep_times) + self.rest

    def pieces(self) -> list[float]:
        return [self.setup] + self.rep_times + [self.rest]


def _gaps(start: float, end: float, spans: list) -> list[tuple[float, float]]:
    """The parts of [start, end] that no span covers."""
    gaps, cursor = [], start
    for a, b in sorted(spans):
        if b <= cursor or a >= end:
            continue
        if a > cursor:
            gaps.append((cursor, a))
        cursor = max(cursor, b)
    if end > cursor:
        gaps.append((cursor, end))
    return gaps


def run_op(cli_main, argv: list[str], probe: Probe, speed) -> OpResult:
    """Run one command line in-process; its repetitions were checked as they ran."""
    # The last command leaves its caches as cyclic garbage; collected inside
    # this one, they would cost it time that depends on what ran before.
    gc.collect()
    sink = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()}"
    except Exception as exc:  # a raising repetition is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    end, cpu = time.perf_counter(), time.process_time() - cpu_start
    calls = probe.take()

    def scaled(a, b, leave_out):
        return sum(speed.scaled(x, y) for x, y in _gaps(a, b, leave_out))

    covered, setup, rep_times = [], 0.0, []
    rows, failures, passed, wrong = [], [], 0, 0
    for call in calls:
        setup += sum(speed.scaled(a, b) for a, b in call.setup)
        reps = list(zip(call.starts, call.ends))
        rep_times += [scaled(a, b, call.setup + call.skipped) for a, b in reps]
        covered += reps + call.setup + call.skipped
        if call.result is not None:
            rows += call.result.rows
        cfg = call.cfg
        for i, rep in enumerate(call.reps):
            if rep.errors:
                failures.append(f"{cfg.system}/{cfg.scenario} n={cfg.n_nodes} "
                                f"days={cfg.window_days} rep={i}: "
                                f"{'; '.join(rep.errors)}")
            else:
                passed += 1
            wrong += rep.wrong
    rest = scaled(start, end, covered)
    if error is not None:  # a failed command fails all its repetitions
        failures.append(f"{' '.join(argv[:3])}: {error}")
        passed = 0
    digest = None
    if argv[0] == "matrix" and error is None:
        out = Path(argv[argv.index("--out") + 1])
        digest = hashlib.sha256((out / "matrix.csv").read_bytes()).hexdigest()
    return OpResult(setup=setup, rep_times=rep_times, rest=rest,
                    raw_wall=end - start, cpu=cpu, rows=rows, passed=passed,
                    wrong=wrong, failures=failures, matrix_digest=digest)


def run_round(workload: Workload, seed: int, cli_main, probe: Probe, speed,
              scratch: Path) -> list[OpResult]:
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        return [run_op(cli_main, workload.argv(i, seed, Path(tmp)), probe, speed)
                for i in range(len(workload.commands))]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _typical(rounds: list[list[OpResult]], part) -> dict:
    """Each piece's median time across the rounds that ran it."""
    times: dict[tuple[int, int], list] = {}
    for r in rounds:
        for i, op in enumerate(r):
            for j, t in enumerate(part(op)):
                times.setdefault((i, j), []).append(t)
    return {key: statistics.median(ts) for key, ts in times.items()}


def round_wall(rounds: list[list[OpResult]]) -> float:
    """A round's time with each of its pieces at its median over the run."""
    return sum(_typical(rounds, OpResult.pieces).values())


def round_setup(rounds: list[list[OpResult]]) -> float:
    return sum(_typical(rounds, lambda op: [op.setup]).values())


def rep_times(rounds: list[list[OpResult]]) -> list[float]:
    return list(_typical(rounds, lambda op: op.rep_times).values())
