"""Outside-in benchmark of xstates: CLI sweeps and the scalar library chain.

Run from the repository root:

    python3 bench/run.py --workload cd-grid --seed 1 --seconds 20 --trace 0

Workloads (names and reasons are also listed in BENCHMARK.json):

* ``cd-grid``: ``xstates sweep-cd`` over a 101x101 coherence grid
  at the default diagonals and powers 2,3,4,5, CSV to a file (40,804 rows).
  Row-heavy with no tomograms: kernel, per-row XParams construction and
  .15g formatting dominate; covers every validity branch.
* ``werner-dirs``: ``xstates sweep-werner --num-dirs 64 --json``
  over 251 mixing weights and powers 1..6 (1,506 rows, 96,384 tomograms).
  Tomography and information dominate; the only workload on the JSON writer.
* ``scalar-calls``: one caller in a fresh process runs 20,000 seeded random
  valid states per batch through the public chain apply_power_channel ->
  classify -> negativity -> concurrence -> system_entropies -> tomogram ->
  shannon_report_from_table, with n in 1..8 and one of 8 direction pairs.
  No CLI, formatting or file.

Every run is a closed loop with one client: each child process (one CLI
invocation or one scalar batch) starts after the previous one has exited,
and invocations repeat until ``--seconds`` have passed.  A sweep child runs
``xstates.cli.main`` as ``python -m xstates`` does, from ``child.py``.  The seed picks the
coherence phases (cd-grid), the CLI's direction seed (werner-dirs) or the
states and directions (scalar-calls); the program only sees those flags and
inputs.

Timed children run under ``speed.SpeedSampler``, which times a fixed
reference operation every 10 ms; durations divided by it are in reference
operations ("refop") and do not move when the shared host changes speed,
which wall-clock durations here do by 20-30% between runs.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: interpreter start until ``import xstates`` returns, median
  over fresh interpreters started one after each timed step;
* ``rows_per_krefop``: output rows, or chain results, per thousand
  reference operations, median over invocations;
* ``call_p50_refop``: median duration of one call in reference operations,
  where a call is one CLI invocation or one state through the chain;
* ``peak_rss_mb``: median peak RSS of the child processes, each read with
  ``os.wait4``.

Lines before it print the environment, failed_frac, the same timings in
wall-clock units (``rows_per_s``, ``call_p50_us``) with the median reference
operation (``ref_ns``), and for scalar-calls calls_per_s and the p99
latencies.  The JSON line leaves those out: the wall-clock figures spread
wider than any useful bound, and every metric in it must exist on every
workload.

With ``--trace 1`` it alternates untraced and traced child runs and reports
the per-layer metrics of the traced run with the median total, from
``tracer.Tracer``; ``trace.overhead_s`` is that traced total minus the median
untraced total.

Every output is checked against ``oracle.py`` (dense numpy.linalg), and
repeated invocations of one configuration must be byte-identical.  A failed
operation is a nonzero exit, an exception, or an output that fails a check;
``failed`` counts them against ``attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

MIN_TIMED = 3
CHILD_TIMEOUT_S = 120.0
# Stop starting new children after this long, so that a run stays under
# three minutes even when the program has become much slower.
RUN_BUDGET_S = 140.0


@dataclass
class Child:
    exit: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], scratch: Path) -> Child:
    """Run one child to completion; its own peak RSS comes from ``os.wait4``.

    ``getrusage(RUSAGE_CHILDREN)`` would give the maximum over every child
    so far, which hides a child that used less than an earlier one.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            exit=proc.returncode,
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def setup_sample(scratch: Path) -> float:
    """Seconds from spawning an interpreter until ``import xstates`` returned.

    The child reads ``time.perf_counter`` (CLOCK_MONOTONIC, shared by all
    processes on Linux) right after the import.
    """
    code = "import xstates\nimport time\nprint(repr(time.perf_counter()), xstates.__file__)"
    start = time.perf_counter()
    child = spawn([sys.executable, "-c", code], scratch)
    if child.exit != 0:
        raise SystemExit(f"error: import xstates failed:\n{child.stderr.strip()}")
    stamp, where = child.stdout.split(maxsplit=1)
    if not Path(where.strip()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported xstates from {where.strip()}, not from {SRC}")
    return float(stamp) - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        for problem in problems:
            if len(self.problems) < 10 and problem not in self.problems:
                self.problems.append(problem)


# ---------------------------------------------------------------------------
# workloads
#
# Each workload runs one untimed warm-up, then timed steps (one child each),
# and for the per-layer run pairs of untraced and traced children.


class Sweep:
    """A CLI sweep: one ``python -m xstates`` child per invocation.

    The first output of a run is checked by the oracle; every later one must
    be byte-identical to it.
    """

    name = ""
    rows = 0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.output = scratch / "sweep.out"
        self.timed_stats = scratch / "timed.json"
        self.reference: dict = {}
        self.timed: list[dict] = []
        self.rss: list[float] = []

    def argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, text: str) -> tuple[list[str], dict]:
        raise NotImplementedError

    def command(self) -> list[str]:
        """A timed invocation: the CLI under the speed sampler."""
        return self.child_command(self.timed_stats, "speed")

    def traced_command(self, stats: Path, trace: bool) -> list[str]:
        return self.child_command(stats, "trace" if trace else "speed")

    def child_command(self, stats: Path, mode: str) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), "cli", str(stats), mode] + self.argv()

    def invoke(self, cmd: list[str]) -> Child:
        self.output.unlink(missing_ok=True)
        return spawn(cmd, self.scratch)

    def verify(self, child: Child) -> list[str]:
        """Problems with one invocation; the first good output is the reference."""
        if child.exit != 0:
            return [f"exit {child.exit}: {child.stderr.strip()[-300:]}"]
        if not self.output.is_file():
            return ["no output file"]
        digest = sha256(self.output)
        if not self.reference:
            problems, counts = self.check(self.output.read_text(encoding="utf-8"))
            self.reference.update(sha256=digest, counts=counts, problems=problems,
                                  output_bytes=self.output.stat().st_size)
            return problems
        if digest != self.reference["sha256"]:
            return [f"output differs from the first invocation (sha256 {digest[:16]})"]
        return list(self.reference["problems"])

    def run_checked(self, cmd: list[str], tally: Tally) -> Child:
        child = self.invoke(cmd)
        problems = self.verify(child)
        tally.add(1, bool(problems), problems)
        return child

    def warm_up(self, tally: Tally) -> None:
        self.run_checked(self.command(), tally)

    def step(self, tally: Tally) -> None:
        self.timed_stats.unlink(missing_ok=True)
        child = self.run_checked(self.command(), tally)
        self.rss.append(child.peak_rss_mb)
        if child.exit == 0 and self.timed_stats.is_file():
            self.timed.append(json.loads(self.timed_stats.read_text()))

    def metrics(self) -> tuple[dict, dict]:
        """Per-invocation figures; a call is one whole CLI invocation."""
        refops = [s["refops"] for s in self.timed]
        seconds = [s["total_s"] for s in self.timed]
        metrics = {
            "rows_per_krefop": median(self.rows * 1e3 / r for r in refops),
            "call_p50_refop": median(refops),
            "peak_rss_mb": median(self.rss),
        }
        info = {"invocations_timed": len(self.timed), "rows_per_invocation": self.rows,
                "rows_per_s": median(self.rows / t for t in seconds),
                "call_p50_us": median(seconds) * 1e6,
                "main_s": [round(t, 4) for t in seconds],
                "ref_ns": median(s["ref_ns"] for s in self.timed),
                "peak_rss_mb": self.rss}
        return metrics, info | self.output_info()

    def output_info(self) -> dict:
        return {"sha256": self.reference.get("sha256"),
                "output_bytes": self.reference.get("output_bytes"),
                "row_counts": self.reference.get("counts")}

    def traced(self, trace: bool, tally: Tally) -> dict | None:
        stats_path = self.scratch / "stats.json"
        child = self.run_checked(self.traced_command(stats_path, trace), tally)
        return json.loads(stats_path.read_text()) if child.exit == 0 else None

    def output_layers(self) -> dict:
        counts = self.reference.get("counts") or {}
        layers = {f"cli.{key}": counts.get(key, 0)
                  for key in ("rows", "rows_valid", "rows_entangled", "rows_zero_denominator")}
        layers["cli.output_bytes"] = self.reference.get("output_bytes", 0)
        layers["cli.valid_row_frac"] = counts["rows_valid"] / counts["rows"] if counts.get("rows") else 0.0
        return layers


class CdGrid(Sweep):
    name = "cd-grid"
    steps = 101
    n_list = (2, 3, 4, 5)
    # sweep-cd defaults, relied on by the oracle
    a, b, end = 0.33, 0.17, 0.5
    rows = steps * steps * len(n_list)

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = np.random.default_rng([seed, 1])
        self.c_phase, self.d_phase = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=2))

    def argv(self) -> list[str]:
        return ["sweep-cd", "--steps", str(self.steps), "--c-phase", repr(self.c_phase),
                "--d-phase", repr(self.d_phase), "--output", str(self.output)]

    def check(self, text: str):
        return oracle.check_cd_csv(text, a=self.a, b=self.b, c_phase=self.c_phase,
                                   d_phase=self.d_phase, end=self.end, steps=self.steps,
                                   n_list=self.n_list)


class WernerDirs(Sweep):
    name = "werner-dirs"
    steps = 251
    num_dirs = 64
    n_list = (1, 2, 3, 4, 5, 6)
    rows = steps * len(n_list)

    def argv(self) -> list[str]:
        return ["sweep-werner", "--steps", str(self.steps), "--num-dirs", str(self.num_dirs),
                "--seed", str(self.seed), "--json", "--output", str(self.output)]

    def check(self, text: str):
        return oracle.check_werner_json(text, p_min=0.0, p_max=1.0, steps=self.steps,
                                        n_list=self.n_list, num_dirs=self.num_dirs,
                                        seed=self.seed)


class ScalarCalls:
    """Batches of random valid states through the public scalar chain.

    Every batch has fresh inputs and every state's results are checked.
    """

    name = "scalar-calls"
    batch = 20_000
    num_pairs = 8
    rows = batch

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.batches = 0
        self.latencies: list[np.ndarray] = []  # ns
        self.latencies_refop: list[np.ndarray] = []
        self.loops: list[tuple[float, float]] = []  # (seconds, reference operations)
        self.ref_ns: list[float] = []
        self.rss: list[float] = []

    def inputs(self, batch_index: int) -> dict:
        rng = np.random.default_rng([self.seed, 3, batch_index])
        m = self.batch
        a = rng.uniform(0.02, 0.48, size=m)
        b = 0.5 - a
        c = b * rng.uniform(0.0, 1.0, size=m) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
        d = a * rng.uniform(0.0, 1.0, size=m) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
        pair_rng = np.random.default_rng([self.seed, 4])
        k = self.num_pairs
        return {
            "a": a, "b": b, "c": c, "d": d,
            "n": rng.integers(1, 9, size=m),
            "pair": rng.integers(0, k, size=m),
            "theta_a": np.arccos(1.0 - 2.0 * pair_rng.uniform(size=k)),
            "psi_a": pair_rng.uniform(0.0, 2.0 * np.pi, size=k),
            "theta_b": np.arccos(1.0 - 2.0 * pair_rng.uniform(size=k)),
            "psi_b": pair_rng.uniform(0.0, 2.0 * np.pi, size=k),
        }

    def run_batch(self, batch_index: int, trace: bool | None = None):
        """One child batch; returns (child, results, ok, stats).

        ``trace`` None runs a timed batch; False/True run one side of the
        per-layer pair and also return the child's stats.  Only a traced
        batch runs without the speed sampler.
        """
        inputs = self.inputs(batch_index)
        in_path, res_path = self.scratch / "inputs.npz", self.scratch / "results.npz"
        stats_path = self.scratch / "stats.json"
        np.savez(in_path, **inputs)
        for path in (res_path, stats_path):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "scalar", str(in_path), str(res_path),
               "-" if trace is None else str(stats_path), "trace" if trace else "speed"]
        child = spawn(cmd, self.scratch)
        if child.exit != 0 or not res_path.exists():
            return child, None, np.zeros(self.batch, dtype=bool), None
        with np.load(res_path) as z:
            results = {key: z[key] for key in z.files}
        ok = oracle.check_scalar(inputs, results)
        stats = json.loads(stats_path.read_text()) if trace is not None else None
        return child, results, ok, stats

    def run_checked(self, tally: Tally, trace: bool | None = None):
        index = self.batches if trace is None else 0
        child, results, ok, stats = self.run_batch(index, trace)
        self.batches += trace is None
        failed = int(np.sum(~ok))
        detail = f": {child.stderr.strip()[-300:]}" if child.exit else ""
        tally.add(self.batch, failed,
                  [f"batch {index}: {failed} states failed{detail}"] if failed else [])
        return child, results, stats

    def warm_up(self, tally: Tally) -> None:
        self.run_checked(tally)

    def step(self, tally: Tally) -> None:
        child, results, _ = self.run_checked(tally)
        if results is not None:
            self.latencies.append(results["latency_ns"])
            self.latencies_refop.append(results["latency_refop"])
            self.loops.append((float(results["loop_s"]), float(results["loop_refops"])))
            self.ref_ns.append(float(results["ref_ns"]))
        self.rss.append(child.peak_rss_mb)

    def metrics(self) -> tuple[dict, dict]:
        """A call is one state through the chain; a row is one state's results."""
        lat_us = np.concatenate(self.latencies) / 1e3 if self.latencies else np.array([math.nan])
        lat_ref = np.concatenate(self.latencies_refop) if self.latencies else np.array([math.nan])
        metrics = {
            "rows_per_krefop": median(self.batch * 1e3 / r for _, r in self.loops),
            "call_p50_refop": float(np.median(lat_ref)),
            "peak_rss_mb": median(self.rss),
        }
        info = {"batches_timed": len(self.loops), "states_per_batch": self.batch,
                "latency_samples": int(lat_us.size),
                "call_p99_refop": percentile_with_tail(lat_ref, 0.99),
                "rows_per_s": median(self.batch / t for t, _ in self.loops),
                "call_p50_us": float(np.median(lat_us)),
                "call_p99_us": percentile_with_tail(lat_us, 0.99),
                "ref_ns": median(self.ref_ns),
                "peak_rss_mb": self.rss}
        return metrics, info

    def traced(self, trace: bool, tally: Tally) -> dict | None:
        return self.run_checked(tally, trace)[2]

    def output_layers(self) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (CdGrid, WernerDirs, ScalarCalls)}


# ---------------------------------------------------------------------------
# runs


def median(values) -> float:
    """The median, or NaN when nothing was measured."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def percentile_with_tail(values, q: float, tail: int = 10):
    """The q-quantile, or None unless at least ``tail`` samples lie beyond it."""
    values = np.asarray(values)
    v = float(np.quantile(values, q))
    return v if np.sum(values > v) >= tail else None


def keep_going(done: int, loop_start: float, seconds: float, start: float) -> bool:
    now = time.perf_counter()
    if now - start > RUN_BUDGET_S:
        return False
    return done < MIN_TIMED or now - loop_start < seconds


def run_untraced(w, seconds: float, tally: Tally, start: float) -> tuple[dict, dict]:
    """Timed steps until ``seconds`` passed, each followed by a set-up sample.

    Spreading the set-up samples over the run lets their median see the
    same machine conditions as the timed steps.
    """
    setup_sample(w.scratch)  # fills the bytecode cache
    w.warm_up(tally)
    setup: list[float] = []
    loop_start = time.perf_counter()
    while keep_going(len(setup), loop_start, seconds, start):
        w.step(tally)
        setup.append(setup_sample(w.scratch))
    metrics, info = w.metrics()
    metrics["setup_s"] = statistics.median(setup)
    info["setup_samples_s"] = [round(s, 4) for s in setup]
    return metrics, info


def run_traced(w, seconds: float, tally: Tally, start: float) -> tuple[dict, dict]:
    """Alternate untraced and traced children; report the median traced one."""
    untraced, traced = [], []
    rounds = 0
    loop_start = time.perf_counter()
    while keep_going(rounds, loop_start, seconds, start):
        rounds += 1
        for trace in (False, True):
            stats = w.traced(trace, tally)
            if stats is not None:
                (traced if trace else untraced).append(stats)
    if not traced or not untraced:
        return {}, {"error": "no traced run completed"}
    traced.sort(key=lambda s: s["total_s"])
    layers = dict(traced[(len(traced) - 1) // 2]["layers"])
    untraced_s = statistics.median(s["total_s"] for s in untraced)
    layers["trace.overhead_s"] = layers["trace.total_s"] - untraced_s
    layers.update(w.output_layers())
    module_self = sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
    counts = {json.dumps({k: v for k, v in s["layers"].items() if k.endswith((".calls", ".errors"))},
                         sort_keys=True) for s in traced}
    info = {"traced_runs": len(traced), "untraced_runs": len(untraced),
            "untraced_total_s": untraced_s,
            "self_time_sum_error_s": module_self + layers["cli.other_s"]
            + layers["trace.caller_s"] - layers["trace.total_s"],
            "calls_repeat_exactly": len(counts) == 1}
    if isinstance(w, Sweep):
        info |= w.output_info()
    return layers, info


# ---------------------------------------------------------------------------
# environment and reporting


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric_specs(section: str) -> list[dict]:
    return json.loads(SPEC.read_text())[section]


def main() -> int:
    parser = argparse.ArgumentParser(description="xstates benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "xstates" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from the repository root; {SRC / 'xstates'} or {SPEC} is missing",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args)
        w = WORKLOADS[args.workload](args.seed, scratch)
        tally = Tally()
        run = run_traced if args.trace else run_untraced
        values, info = run(w, args.seconds, tally, start)
        specs = metric_specs("per_layer" if args.trace else "end_to_end")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    for problem in tally.problems:
        print("problem " + problem)
    metrics = {}
    for spec in specs:
        value = values.get(spec["name"], 0)
        if not math.isfinite(value):  # nothing measured: every attempt failed
            value = 0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value} {spec['unit']}")
    print(f"failed_frac = {failed_frac} ratio ({tally.failed} of {tally.attempted})")
    if not args.trace:
        # Wall-clock figures, which follow the host's speed; see speed.py.
        print(f"rows_per_s = {info['rows_per_s']} 1/s")
        print(f"call_p50_us = {info['call_p50_us']} us")
        print(f"ref_ns = {info['ref_ns']} ns (median reference operation)")
    if isinstance(w, ScalarCalls) and not args.trace:
        print(f"calls_per_s = {info['rows_per_s']} 1/s")
        for name, unit in (("call_p99_refop", "refop"), ("call_p99_us", "us")):
            p99 = info[name]
            print(f"{name} = {p99 if p99 is not None else 'n/a'} {unit} "
                  f"({info['latency_samples']} samples)")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
