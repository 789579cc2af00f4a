"""The scalar library, ``direction_pairs``, the single-state commands and small sweeps run
without numpy.

Only ``to_dense`` and sweeps of 2^15 measure cells or more load it; without it,
such a sweep exits 1 with one line, and a smaller one writes what it writes with it.

Each test runs a fresh interpreter, since this one has numpy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xstates

# Makes ``import numpy`` fail, as in an interpreter where numpy is not installed.
BLOCK_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseNumpy())
"""

# Prints the repr of every public scalar function's result on a few states.
SCALAR_CHAIN = """
import sys
from xstates import (
    Direction, XParams, apply_power_channel, classify, concurrence, negativity,
    shannon_report_from_table, spectrum, system_entropies, tomogram, validate, werner,
    werner_entanglement_threshold, werner_entanglement_threshold_lower,
)

states = [XParams(0.3, 0.2, 0.1 + 0.05j, 0.15j), werner(0.5), XParams(0.25, 0.25, 0.3, 0.0)]
pair = (Direction(theta=0.9, psi=0.3), Direction(theta=2.0, psi=1.1))
for p in states:
    print(repr(validate(p)), repr(spectrum(p)), repr(classify(p)))
    for n in (1, 2, 3):
        result = apply_power_channel(p, n)
        img = result.params
        print(repr(result), repr(validate(img)), repr(classify(img)))
        if validate(img) is None:
            table = tomogram(img, *pair)
            print(repr(negativity(img)), repr(concurrence(img)), repr(system_entropies(img)))
            print(repr(table), repr(shannon_report_from_table(table)))
print(repr(werner_entanglement_threshold(3)), repr(werner_entanglement_threshold_lower(4)))
assert "numpy" not in sys.modules, "the scalar chain loaded numpy"
"""


# Runs analyze and tomogram, text and JSON, valid and invalid, through the CLI's entry point.
SINGLE_STATE_COMMANDS = """
import sys
import xstates.cli

state = ["--a", "0.33", "--b", "0.17", "--c-abs", "0.1", "--d-abs", "0.2", "--c-phase", "0.7"]
angles = ["--theta-a", "1", "--theta-b", "0.5", "--psi-a", "0.3"]
not_psd = ["--a", "0.33", "--b", "0.17", "--c-abs", "0.2", "--d-abs", "0.1"]
for argv in (["analyze", *state, "--n", "3"], ["analyze", *state, "--n", "2", "--json"],
             ["analyze", *not_psd, "--n", "3"], ["tomogram", *state, "--n", "2", *angles],
             ["tomogram", *state, "--json", *angles], ["tomogram", *not_psd, "--n", "3", *angles]):
    print("exit", xstates.cli.main(argv))
assert "numpy" not in sys.modules, "a single-state command loaded numpy"
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(xstates.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_xstates_leaves_numpy_unloaded():
    proc = run_python("import sys, xstates\nprint(sorted(m for m in sys.modules if m.startswith('numpy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_single_state_commands_are_the_same_without_numpy():
    # Only the sweeps' blocks load numpy, at the first block.
    plain = run_python(SINGLE_STATE_COMMANDS)
    blocked = run_python(BLOCK_NUMPY + SINGLE_STATE_COMMANDS)
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    codes = [line for line in plain.stdout.splitlines() if line.startswith("exit ")]
    assert codes == [f"exit {code}" for code in (0, 0, 2, 0, 0, 2)]
    assert blocked.stdout == plain.stdout


@pytest.mark.parametrize("argv", [["sweep-cd", "--steps", "3"],
                                  ["sweep-werner", "--steps", "3", "--num-dirs", "4"]],
                         ids=["sweep-cd", "sweep-werner"])
def test_sweeps_leave_numpy_random_unloaded(argv, tmp_path):
    pytest.importorskip("numpy")
    # sweep-cd's spot check draws from the standard library's random, and
    # direction_pairs makes numpy's PCG64 stream itself.  numpy 2 loads
    # numpy.random only when it is first used, numpy 1 with numpy itself.
    code = f"""
import sys, numpy
if "numpy.random" in sys.modules:
    print("skip")
else:
    import xstates.cli
    assert xstates.cli.main([*{argv!r}, "--output", {str(tmp_path / "out")!r}]) == 0
    print("numpy.random" in sys.modules)
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "skip\n":
        pytest.skip("import numpy loads numpy.random itself")
    assert proc.stdout == "False\n"


def test_scalar_chain_is_the_same_without_numpy():
    plain = run_python(SCALAR_CHAIN)
    blocked = run_python(BLOCK_NUMPY + SCALAR_CHAIN)
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    # 3 states and 9 images, with measures and tomograms for the 7 valid images; the thresholds.
    assert plain.stdout.count("\n") == 3 + 9 + 2 * 7 + 1
    assert blocked.stdout == plain.stdout


def test_direction_pairs_are_the_same_without_numpy():
    code = """
import sys
from xstates import direction_pairs
for da, db in direction_pairs(9, 7):
    print(repr(da), repr(db))
assert "numpy" not in sys.modules, "direction_pairs loaded numpy"
"""
    plain = run_python(code)
    blocked = run_python(BLOCK_NUMPY + code)
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert plain.stdout.count("\n") == 9
    assert blocked.stdout == plain.stdout


@pytest.mark.parametrize("call", ["to_dense(werner(0.5))"])
def test_numpy_names_raise_import_error_without_numpy(call):
    code = BLOCK_NUMPY + f"""
from xstates import to_dense, werner
try:
    {call}
except ImportError as exc:
    print(exc.name)
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy\n"


# 33,124 and 33,150 measure cells: each sweep's blocks take the columnar kernels.
@pytest.mark.parametrize("command, size", [
    ("sweep-cd", ["--steps", "91", "--n-list", "2"]),
    ("sweep-werner", ["--steps", "85", "--num-dirs", "64"]),
], ids=["sweep-cd", "sweep-werner"])
def test_sweeps_without_numpy_exit_one_with_one_line(command, size, tmp_path):
    target = tmp_path / "out"
    code = BLOCK_NUMPY + f"""
import xstates.cli
for argv in ({size!r}, [*{size!r}, "--output", {str(target)!r}]):
    print("exit", xstates.cli.main([{command!r}, *argv]))
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "exit 1\nexit 1\n"
    assert proc.stderr == f"error: {command} needs numpy: No module named 'numpy'\n" * 2
    assert not target.exists()


# Runs each (scratch directory, argv) of CASES through the CLI's entry point, and prints the
# exit code, stdout, stderr and --output file of each as one JSON list.
RECORDED_RUNS = """
import contextlib, io, json, os, sys
import xstates.cli

results = []
for tmp, argv in CASES:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = xstates.cli.main(argv)
    target = os.path.join(tmp, "out")
    output = open(target, encoding="utf-8", newline="").read() if os.path.exists(target) else None
    results.append([code, out.getvalue(), err.getvalue(), output])
print(json.dumps(results))
assert "numpy" not in sys.modules, "a small sweep loaded numpy"
"""


def test_small_sweeps_give_the_recorded_bytes_without_numpy(tmp_path):
    # Every sweep golden that writes rows: all are below 2^15 measure cells.
    goldens = [json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(Path(__file__).with_name("golden").glob("sweep_*.json"))]
    goldens = [g for g in goldens if g["code"] == 0]
    cases = []
    for k, golden in enumerate(goldens):
        tmp = tmp_path / str(k)
        tmp.mkdir()
        if golden["config"] is not None:
            (tmp / "cfg").write_text(golden["config"].replace("{tmp}", str(tmp)), encoding="utf-8")
        cases.append((str(tmp), [arg.replace("{tmp}", str(tmp)) for arg in golden["argv"]]))
    proc = run_python(BLOCK_NUMPY + f"CASES = {cases!r}\n" + RECORDED_RUNS)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert {g["argv"][0] for g in goldens} == {"sweep-cd", "sweep-werner"} and len(goldens) >= 10
    for (tmp, _), golden, result in zip(cases, goldens, results, strict=True):
        result = [x.replace(tmp, "{tmp}") if isinstance(x, str) else x for x in result]
        assert result == [golden[key] for key in ("code", "stdout", "stderr", "output")]
