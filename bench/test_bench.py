"""Tests of the benchmark itself: the oracle gate, RSS capture and tracing.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402

HERE = Path(__file__).resolve().parent


def _cli(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "xstates"] + argv,
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return proc.stdout


class SmallGrid(run.CdGrid):
    steps = 21
    rows = steps * steps * len(run.CdGrid.n_list)


def _change_digit(line: str, column: int) -> str:
    """Change the fourth significant digit of one numeric field."""
    fields = line.split(",")
    value = fields[column]
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    first = next(k for k, i in enumerate(digits) if value[i] != "0")
    pos = digits[first + 3]
    fields[column] = value[:pos] + str((int(value[pos]) + 1) % 10) + value[pos + 1:]
    return ",".join(fields)


@pytest.fixture(scope="module")
def cd_text() -> str:
    argv = SmallGrid(7, Path(".")).argv()
    out = argv.index("--output")
    del argv[out:out + 2]
    return _cli(argv)


def _cd_check(text: str, w: run.CdGrid):
    return oracle.check_cd_csv(text, a=w.a, b=w.b, c_phase=w.c_phase, d_phase=w.d_phase,
                               end=w.end, steps=w.steps, n_list=w.n_list)


def test_cd_oracle_accepts_real_output(cd_text):
    problems, counts = _cd_check(cd_text, SmallGrid(7, Path(".")))
    assert problems == []
    assert counts["rows"] == SmallGrid.rows
    assert 0 < counts["rows_entangled"] < counts["rows_valid"] < counts["rows"]


def _one_digit_changed(text: str) -> tuple[str, int]:
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if ",true,entangled," in line and i > 100)
    lines[row] = _change_digit(lines[row], 5)  # negativity
    return "\n".join(lines), row


def test_one_changed_digit_is_a_failed_operation(cd_text, tmp_path):
    bad_text, row = _one_digit_changed(cd_text)
    assert bad_text != cd_text
    problems, _ = _cd_check(bad_text, SmallGrid(7, Path(".")))
    assert len(problems) == 1 and f"row {row}:" in problems[0]

    # Through the benchmark's own loop: every invocation "writes" the
    # corrupted copy, so every invocation counts as failed.
    corrupted = tmp_path / "corrupted.csv"
    corrupted.write_text(bad_text)
    w = SmallGrid(7, tmp_path)
    copy = "import shutil, sys; shutil.copyfile(sys.argv[1], sys.argv[2])"
    w.command = lambda: [sys.executable, "-c", copy, str(corrupted), str(w.output)]
    tally = run.Tally()
    run.run_untraced(w, 0.0, tally, time.perf_counter())
    assert tally.attempted == 1 + run.MIN_TIMED
    assert tally.failed == tally.attempted

    # A later invocation whose bytes differ from the first is also counted.
    good = tmp_path / "good.csv"
    good.write_text(cd_text)
    sources = iter([good, good, corrupted, good])
    w = SmallGrid(7, tmp_path)
    w.command = lambda: [sys.executable, "-c", copy, str(next(sources)), str(w.output)]
    tally = run.Tally()
    run.run_untraced(w, 0.0, tally, time.perf_counter())
    assert (tally.attempted, tally.failed) == (4, 1)


def test_werner_oracle_catches_one_changed_value():
    kw = dict(p_min=0.0, p_max=1.0, steps=11, n_list=(1, 2, 3), num_dirs=6, seed=3)
    text = _cli(["sweep-werner", "--steps", "11", "--n-list", "1,2,3", "--num-dirs", "6",
                 "--seed", "3", "--json"])
    problems, counts = oracle.check_werner_json(text, **kw)
    assert problems == [] and counts["rows"] == 33
    doc = json.loads(text)
    doc["rows"][20][6] *= 1.001  # i_s of one direction pair in one row
    problems, _ = oracle.check_werner_json(json.dumps(doc, indent=2) + "\n", **kw)
    assert len(problems) == 1 and "row 20" in problems[0]


def test_scalar_oracle_catches_one_changed_value(tmp_path):
    w = run.ScalarCalls(5, tmp_path)
    w.batch = 500
    child, results, ok, _ = w.run_batch(0)
    assert child.exit == 0 and ok.all()
    results["values"][123, 2] += 1e-6  # s12 of one state
    ok = oracle.check_scalar(w.inputs(0), results)
    assert list(np.flatnonzero(~ok)) == [123]


def test_wait4_reports_each_childs_own_peak(tmp_path):
    big = run.spawn([sys.executable, "-c", "x = b'x' * (150 << 20)"], tmp_path)
    small = run.spawn([sys.executable, "-c", "pass"], tmp_path)
    assert big.exit == small.exit == 0
    assert small.peak_rss_mb < big.peak_rss_mb - 100
    # The cumulative figure stays at the largest child, hiding the drop.
    children_max_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    assert children_max_mb >= big.peak_rss_mb


def test_traced_self_times_add_up_to_total(tmp_path):
    w = SmallGrid(2, tmp_path)
    stats_path = tmp_path / "stats.json"
    child = w.invoke(w.traced_command(stats_path, True))
    assert child.exit == 0, child.stderr
    layers = json.loads(stats_path.read_text())["layers"]
    modules = ("cli", "xstate", "entanglement", "information", "tomography", "dense")
    self_sum = sum(layers.get(f"{m}.self_s", 0.0) for m in modules)
    assert self_sum + layers["cli.other_s"] == pytest.approx(layers["trace.total_s"], abs=1e-9)
    assert layers.get("tomography.calls", 0) == 0 and layers.get("dense.calls", 0) == 0
    assert layers["xstate.apply_power_channel.calls"] >= SmallGrid.rows
    assert layers["cli.row_s"] > 0 and layers["cli.format_s"] > 0 and layers["cli.write_s"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cd-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_sampler_counts_reference_operations():
    import speed

    with speed.SpeedSampler() as sampler:
        start = time.perf_counter_ns()
        ops = 0
        while time.perf_counter_ns() - start < 200_000_000:
            speed.reference_op(ops)
            ops += 1
        end = time.perf_counter_ns()
    assert len(sampler.refs) >= 10 and sampler.spent[0] > 0
    # The loop did ``ops`` reference operations; the sampler's figure uses
    # the fastest of each sample's repeats, so it reads a little higher.
    assert 0.7 < sampler.refops(start, end, sampler.spent[0]) / ops < 2.0

    with speed.SpeedSampler() as short:
        start = time.perf_counter_ns()
        end = time.perf_counter_ns()
    assert len(short.refs) == 1 and short.spent[0] == 0
    assert math.isfinite(short.refops(start, end, 0))
