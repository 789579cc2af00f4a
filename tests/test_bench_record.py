"""tools/bench_record.py: one record appended per benchmark run, earlier bytes kept."""

from __future__ import annotations

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"

# A stand-in for bench/run.py: a few lines, then the metrics line; it fails on seed 13.
STUB = """\
import json, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
print("env {}")
print("rows_per_krefop = 1.5 1/krefop")
print(json.dumps({"correct": True, "argv": sys.argv[1:]}))
sys.exit(seed == "13")
"""

# A stand-in that prints two metrics, each a function of the seed.
METRICS_STUB = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"correct": True, "metrics": {
    "rows_per_krefop": {"value": 1000.0 / seed, "unit": "1/krefop"},
    "peak_rss_mb": {"value": seed + 0.25, "unit": "MB"}}}))
"""

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def git(checkout: Path, *argv: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *argv],
                          cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


@pytest.fixture
def recorder(tmp_path, monkeypatch):
    """The tool, writing its records under ``tmp_path / "records"``, and a committed checkout
    whose bench/run.py is the stub."""
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    checkout, records = tmp_path / "checkout", tmp_path / "records"
    files = {"src/pkg/__init__.py": "x = 1\n", "src/pkg/sub/run.sh": "true\n",
             "bench/run.py": STUB, ".gitignore": "__pycache__/\n"}
    for name, text in files.items():
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(text)
    (checkout / "src/pkg/sub/run.sh").chmod(0o755)
    git(checkout, "init", "-q")
    git(checkout, "add", "-A")
    git(checkout, "commit", "-q", "-m", "stub")
    (checkout / "src/pkg/__pycache__").mkdir()  # ignored: not in the tree hash
    (checkout / "src/pkg/__pycache__/x.pyc").write_bytes(b"\0")
    records.mkdir()
    monkeypatch.setattr(tool, "ROOT", records)
    return tool, checkout, records / "BENCH_cd-grid.json"


def argv(checkout: Path, seed: int) -> list[str]:
    return ["--workload", "cd-grid", "--seed", str(seed), "--seconds", "2", "--label", "change",
            "--pair", "3", "--order", "2", "--tree", str(checkout)]


def test_appends_exactly_one_record_and_keeps_the_earlier_bytes(recorder, capsys):
    tool, checkout, out = recorder
    earlier = b'{"earlier": 1}\n{"earlier": "\xc3\xa9"}\n'
    out.write_bytes(earlier)
    assert tool.main(argv(checkout, 7)) == 0
    data = out.read_bytes()
    assert data.startswith(earlier)
    (line,) = data[len(earlier):].decode().splitlines(keepends=True)
    assert line.endswith("\n") and capsys.readouterr().out == line
    record = json.loads(line)
    assert record["last_line"] == json.dumps({"correct": True, "argv": [
        "--workload", "cd-grid", "--seed", "7", "--seconds", "2.0", "--trace", "0"]})
    assert {k: record[k] for k in ("workload", "seed", "seconds", "label", "pair", "order")} == {
        "workload": "cd-grid", "seed": 7, "seconds": 2.0, "label": "change", "pair": 3,
        "order": 2}
    # The tree hashes are git's own, for a checkout that matches its commit.
    assert record["tree"] == {top: git(checkout, "rev-parse", f"HEAD:{top}")
                              for top in ("src", "bench")}
    assert set(record["env"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert record["env"]["python"] == ".".join(map(str, sys.version_info[:3]))
    assert record["date"].endswith("+00:00")


def test_a_failed_run_or_a_torn_file_records_nothing(recorder, capsys):
    tool, checkout, out = recorder
    assert tool.main(argv(checkout, 13)) == 1  # the stub exits 1
    assert not out.exists()
    out.write_bytes(b'{"earlier": 1}')  # no newline at its end
    assert tool.main(argv(checkout, 7)) == 1
    assert out.read_bytes() == b'{"earlier": 1}'


def test_reports_the_count_median_and_quartiles_of_its_set(recorder, capsys):
    tool, checkout, out = recorder
    (checkout / "bench/run.py").write_text(METRICS_STUB)
    src = tool.tree_hash(checkout, "src")
    others = [{"label": "parent", "tree": {"src": src}, "seconds": 2.0},  # another label
              {"label": "change", "tree": {"src": src}, "seconds": 5.0}]  # other seconds
    out.write_text("".join(json.dumps({**other, "last_line": json.dumps(
        {"metrics": {"peak_rss_mb": {"value": 1e9}}})}) + "\n" for other in others))
    seeds = (7, 3, 11)
    for seed in seeds:
        assert tool.main(argv(checkout, seed)) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(out.read_text().splitlines(keepends=True)[2:])
    values = {"rows_per_krefop": [1000.0 / seed for seed in seeds],
              "peak_rss_mb": [seed + 0.25 for seed in seeds]}
    lines = [f"label 'change', src tree {src}, 2.0 s: 3 records"]
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        lines.append(f"  {name}: 3 values, median {statistics.median(xs)!r}, "
                     f"quartiles {q1!r} {q3!r}")
    err = captured.err.splitlines()
    assert err[0] == f"label 'change', src tree {src}, 2.0 s: 1 records"  # the first append's
    assert err[-3:] == lines
