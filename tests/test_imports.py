"""The scalar library, ``direction_pairs`` and the single-state commands run without numpy.

Only the sweeps and ``to_dense`` load it; without it, a sweep exits 1 with
one line.

Each test runs a fresh interpreter, since this one has numpy loaded already.
"""

from __future__ import annotations

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


@pytest.mark.parametrize("command", ["sweep-cd", "sweep-werner"])
def test_sweeps_without_numpy_exit_one_with_one_line(command, tmp_path):
    target = tmp_path / "out"
    code = BLOCK_NUMPY + f"""
import xstates.cli
for argv in (["--steps", "2"], ["--steps", "2", "--output", {str(target)!r}]):
    print("exit", xstates.cli.main([{command!r}, *argv]))
"""
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "exit 1\nexit 1\n"
    assert proc.stderr == f"error: {command} needs numpy: No module named 'numpy'\n" * 2
    assert not target.exists()
