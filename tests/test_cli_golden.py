"""Golden CLI outputs: every case must reproduce its recorded bytes exactly.

Each fixture in ``tests/golden/`` stores one invocation's argv, optional
config file text, exit code, stdout, stderr and ``--output`` file content.
``{tmp}`` stands for a per-test scratch directory; the config file is written
to ``{tmp}/cfg`` and output files go to ``{tmp}/out``.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_cli_golden.py

That rewrites the fixtures and prints each ``PINNED`` sweep's sha256 and byte
length, which are copied into ``PINNED`` by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import force_pools, strict_json_loads
from xstates import cli
from xstates.cli import main

GOLDEN = Path(__file__).with_name("golden")

BELL_STATE = ["--a", "0.375", "--b", "0.125", "--c-abs", "0", "--d-abs", "0.25"]
PHASED_STATE = [
    "--a", "0.3", "--b", "0.2", "--c-abs", "0.1", "--c-phase", "0.4",
    "--d-abs", "0.15", "--d-phase", "1.2",
]
BAD_STATE = ["--a", "0.33", "--b", "0.17", "--c-abs", "0.2", "--d-abs", "0.1"]
# Valid, with its trace 1e-9 below 1; dividing by that trace at n = 1 pushes
# a - |d| of the image just past -EPS_PSD, so the image is not PSD.
EDGE_IMAGE_STATE = [
    "--a", "1e-06", "--b", "0.49999899950000004", "--c-abs", "0",
    "--d-abs", "1.000000999999999e-06", "--n", "1",
]
DIRS = ["--theta-a", "0.9", "--psi-a", "0.3", "--theta-b", "2.0", "--psi-b", "1.1"]

# name -> (argv, config text or None)
CASES: dict[str, tuple[list[str], str | None]] = {
    # analyze
    "analyze_text": (["analyze", *BELL_STATE, "--n", "2"], None),
    "analyze_json": (["analyze", "--json", *PHASED_STATE, "--n", "3"], None),
    "analyze_output": (["analyze", *PHASED_STATE, "--output", "{tmp}/out"], None),
    "analyze_config": (
        ["analyze", "--config", "{tmp}/cfg"],
        "# state\na = 0.3\nb = 0.2  # inner\nc_abs = 0.1\nc_phase = 0.4\nd_abs = 0.15\n"
        "d_phase = 1.2\nn = 3\noutput = {tmp}/out\n",
    ),
    "analyze_config_json_flag_wins": (
        ["analyze", "--json", "--config", "{tmp}/cfg", "--n", "1"],
        "a = 0.375\nb = 0.125\nc_abs = 0\nd_abs = 0.25\nn = 2\n",
    ),
    "analyze_invalid_text": (["analyze", *BAD_STATE], None),
    "analyze_invalid_json": (["analyze", "--json", *BAD_STATE], None),
    "analyze_missing_flag": (["analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "0"], None),
    "analyze_bad_power": (["analyze", *BELL_STATE, "--n", "0"], None),
    "analyze_negative_coherence": (
        ["analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "-0.1", "--d-abs", "0"],
        None,
    ),
    "analyze_bad_float_flag": (["analyze", *BELL_STATE, "--c-phase", "x"], None),
    "analyze_invalid_image": (["analyze", *EDGE_IMAGE_STATE], None),
    # tomogram
    "tomogram_text": (["tomogram", *BELL_STATE, "--n", "2", *DIRS], None),
    "tomogram_json": (
        ["tomogram", "--json", *PHASED_STATE, "--n", "2", *DIRS, "--phi-a", "0.5"],
        None,
    ),
    "tomogram_config": (
        ["tomogram", "--config", "{tmp}/cfg"],
        "a = 0.3\nb = 0.2\nc_abs = 0.1\nc_phase = 0.4\nd_abs = 0.15\nd_phase = 1.2\nn = 2\n"
        "theta_a = 0.9\nphi_a = 0.5\npsi_a = 0.3\ntheta_b = 2.0\nphi_b = 0.1\npsi_b = 1.1\n"
        "output = {tmp}/out\n",
    ),
    "tomogram_config_json": (
        ["tomogram", "--json", "--config", "{tmp}/cfg", "--theta-b", "1.5"],
        "a = 0.25\nb = 0.25\nc_abs = 0\nd_abs = 0\ntheta_a = 1.0\ntheta_b = 0.5\n",
    ),
    "tomogram_invalid_state": (["tomogram", *BAD_STATE, *DIRS], None),
    "tomogram_invalid_image": (
        ["tomogram", *EDGE_IMAGE_STATE, "--theta-a", "1", "--theta-b", "1"], None
    ),
    "tomogram_theta_out_of_range": (
        ["tomogram", *BELL_STATE, "--theta-a", "4.0", "--theta-b", "1.0"],
        None,
    ),
    "tomogram_missing_theta": (["tomogram", *BELL_STATE, "--theta-a", "1.0"], None),
    # sweep-cd
    "sweep_cd_csv_output": (
        ["sweep-cd", "--steps", "5", "--n-list", "2,3", "--c-abs-max", "0.4",
         "--d-abs-max", "0.4", "--output", "{tmp}/out"],
        None,
    ),
    "sweep_cd_csv_invalid_rows": (["sweep-cd", "--steps", "4", "--n-list", "1,3"], None),
    "sweep_cd_csv_phases": (
        ["sweep-cd", "--a", "0.3", "--b", "0.2", "--c-phase", "0.7", "--d-phase", "1.9",
         "--steps", "3", "--n-list", "2,5", "--seed", "3"],
        None,
    ),
    "sweep_cd_json": (["sweep-cd", "--steps", "3", "--n-list", "2,3", "--json"], None),
    "sweep_cd_format_json": (["sweep-cd", "--steps", "2", "--format", "json"], None),
    "sweep_cd_config": (
        ["sweep-cd", "--config", "{tmp}/cfg"],
        "a = 0.3\nb = 0.2\nc_phase = 0.7\nd_phase = 1.9\nc_abs_max = 0.3\nd_abs_max = 0.25\n"
        "steps = 3\nn_list = 2,4\nformat = json\nseed = 5\noutput = {tmp}/out\n",
    ),
    "sweep_cd_config_csv_flag_wins": (
        ["sweep-cd", "--config", "{tmp}/cfg", "--steps", "2"],
        "steps = 4\nn_list = 3\n",
    ),
    "sweep_cd_steps_one": (["sweep-cd", "--steps", "1"], None),
    "sweep_cd_bad_steps_flag": (["sweep-cd", "--steps", "x"], None),
    "sweep_cd_negative_grid_end": (["sweep-cd", "--steps", "3", "--c-abs-max", "-1"], None),
    "sweep_cd_bad_n_list": (["sweep-cd", "--steps", "3", "--n-list", "2,0"], None),
    # sweep-werner
    "sweep_werner_csv": (
        ["sweep-werner", "--steps", "5", "--n-list", "1,2,3", "--num-dirs", "3",
         "--seed", "4"],
        None,
    ),
    "sweep_werner_json": (
        ["sweep-werner", "--steps", "3", "--n-list", "2,3", "--num-dirs", "2", "--json"],
        None,
    ),
    "sweep_werner_out_of_range": (
        ["sweep-werner", "--p-min", "1.2", "--p-max", "1.4", "--steps", "3", "--n-list", "3",
         "--num-dirs", "2", "--output", "{tmp}/out"],
        None,
    ),
    "sweep_werner_config": (
        ["sweep-werner", "--config", "{tmp}/cfg"],
        "p_min = 0.1\np_max = 0.9\nsteps = 4\nn_list = 1,4\nnum_dirs = 2\nformat = csv\n"
        "seed = 7\noutput = {tmp}/out\n",
    ),
    "sweep_werner_config_json": (
        ["sweep-werner", "--json", "--config", "{tmp}/cfg"],
        "steps = 3\nn_list = 2\nnum_dirs = 1\n",
    ),
    "sweep_werner_p_range": (["sweep-werner", "--p-min", "0.6", "--p-max", "0.5"], None),
    "sweep_werner_num_dirs_zero": (["sweep-werner", "--steps", "3", "--num-dirs", "0"], None),
    # configuration errors
    "config_unknown_key": (["analyze", "--config", "{tmp}/cfg"], "a = 0.375\nwhat = 1\n"),
    "config_key_of_other_command": (["sweep-werner", "--config", "{tmp}/cfg"], "a = 0.3\n"),
    "config_duplicate_key": (["sweep-cd", "--config", "{tmp}/cfg"], "steps = 3\nsteps = 4\n"),
    "config_missing_equals": (["analyze", "--config", "{tmp}/cfg"], "a 0.375\n"),
    "config_bad_float": (["analyze", "--config", "{tmp}/cfg", *BELL_STATE], "c_phase = x\n"),
    "config_bad_int": (["sweep-cd", "--config", "{tmp}/cfg"], "steps = 2.5\n"),
    "config_bad_n_list": (["sweep-werner", "--config", "{tmp}/cfg"], "n_list = 1,x\n"),
    "config_format_xml": (["sweep-cd", "--config", "{tmp}/cfg"], "steps = 2\nformat = xml\n"),
    "config_steps_one": (["sweep-werner", "--config", "{tmp}/cfg"], "steps = 1\n"),
    "config_missing_file": (["analyze", "--config", "{tmp}/nope.cfg"], None),
    # top level
    "no_command": ([], None),
    "unknown_command": (["frobnicate"], None),
}


# Sweeps too large to store as text: name -> (argv, sha256 of stdout, byte length).
# Recorded from the commit before the direction-pair factors were hoisted out
# of the per-row loop of sweep-werner.
PINNED: dict[str, tuple[list[str], str, int]] = {
    "sweep_werner_41x16_csv": (
        ["sweep-werner", "--steps", "41", "--num-dirs", "16"],
        "3750529bf7a5afb5748b9c4a2688b17f19554e82d5f9faf19573fb45ab1941c7",
        85068,
    ),
    "sweep_werner_41x16_json": (
        ["sweep-werner", "--steps", "41", "--num-dirs", "16", "--json"],
        "4ca1a0c22d8e3ae865298dc8fb004ec98af805d367ad1076048627157e9ab1f6",
        132401,
    ),
    "sweep_werner_invalid_rows_json": (
        ["sweep-werner", "--p-min=-3", "--p-max=1", "--steps", "41", "--num-dirs", "8",
         "--json"],
        "3104cd6a3d21e125e34a682154d372a7cf30d9df272b2959c8bdca8dbcd15ae8",
        68673,
    ),
    # Recorded from the commit before I_s became one columnar pass per power
    # block and JSON rows stopped going through json.dumps.
    "sweep_werner_251x64_json": (
        ["sweep-werner", "--steps", "251", "--num-dirs", "64", "--seed", "101", "--json"],
        "005efcb0c606d8dca83b493e9f35a48c8849344203366d3e071e17ab81d92450",
        2775395,
    ),
    "sweep_werner_invalid_rows_csv": (
        ["sweep-werner", "--p-min=-3", "--p-max=3", "--steps", "61", "--num-dirs", "8",
         "--n-list", "1,2,3,4,5,6,7,8"],
        "aa457023078882b52f98a6e9f8b6e78facc1d83aa4b948907aea3cadf34633da",
        64517,
    ),
    # The sweep-cd digests below, except the two zero-denominator ones, were
    # re-recorded when negativity and concurrence became one closed form each,
    # correctly rounded, which moved the last digits of some of those cells.
    "sweep_cd_21_json": (
        ["sweep-cd", "--steps", "21", "--n-list", "1,3", "--json"],
        "5f9706d1478998d88cf139d4d9707907471aa2ffabb31bead734c0d3a69d95ad",
        123451,
    ),
    "sweep_cd_101_phases_csv": (
        ["sweep-cd", "--steps", "101", "--c-phase", "1.1", "--d-phase", "4.2"],
        "85a2314d34b410ef3c2e567477b73cafcf6389d394a367cc190774ef93256222",
        2980218,
    ),
    # Tr rho^n vanishes in every n = 1 row and at the origin for n = 2.
    "sweep_cd_zero_denominator_csv": (
        ["sweep-cd", "--a", "0", "--b", "0", "--steps", "3", "--n-list", "1,2"],
        "b32990fb7f37940170abe42db9271a57ff983b6851828b340408c48a3d46ad01",
        739,
    ),
    "sweep_cd_zero_denominator_json": (
        ["sweep-cd", "--a", "0", "--b", "0", "--steps", "3", "--n-list", "1,2", "--json"],
        "ca32aae434c6d684b1a2c9408f28246172894ba5a2b1fdfca36e4abe974eafa6",
        2685,
    ),
    "sweep_cd_invalid_rows_phases_csv": (
        ["sweep-cd", "--a", "0.4", "--b", "0.1", "--c-abs-max", "0.6", "--d-abs-max", "0.9",
         "--c-phase", "0.3", "--d-phase", "2", "--steps", "41", "--n-list", "1,2,3,7"],
        "5c5698fa54a1ff1ed611d708edeab9424a3bd104118f0540a4d28ec8de87c9a2",
        375545,
    ),
}


def digest_of(got: dict) -> tuple[str, int]:
    """The sha256 and byte length of a recorded run's stdout, as ``PINNED`` holds them."""
    data = got["stdout"].encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def run_case(argv: list[str], config: str | None, tmp: Path) -> dict:
    """Run one invocation in this process and return its recorded form."""
    tmp_text = str(tmp)
    argv = [arg.replace("{tmp}", tmp_text) for arg in argv]
    if config is not None:
        (tmp / "cfg").write_text(config.replace("{tmp}", tmp_text), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    target = tmp / "out"
    output = target.read_bytes().decode("utf-8") if target.exists() else None
    return {
        "code": code,
        "stdout": out.getvalue().replace(tmp_text, "{tmp}"),
        "stderr": err.getvalue().replace(tmp_text, "{tmp}"),
        "output": output,
    }


# Every recorded sweep is below 2^15 measure cells, so its rows come from the public scalar
# chain.  Each one that writes rows runs a second time on the columnar path, whose rows come
# from the block power map and kernels: "-pooled" on two CPUs or "-block" in one process.
#
# "-pooled": every other block is made in a forked worker, name -> the workers forked (none
# for one power, which stays in-process): invalid rows, rows without an image, phases, one
# power, --output and a config file.  The bytes must not change.
POOLED = {
    "sweep_cd_csv_output": 1, "sweep_cd_csv_invalid_rows": 1, "sweep_cd_csv_phases": 1,
    "sweep_cd_json": 1, "sweep_cd_config": 1, "sweep_werner_csv": 1, "sweep_werner_json": 1,
    "sweep_werner_out_of_range": 0, "sweep_werner_config_json": 0,
    "sweep_cd_zero_denominator_csv": 1, "sweep_cd_zero_denominator_json": 1,
    "sweep_cd_invalid_rows_phases_csv": 1, "sweep_werner_invalid_rows_json": 1,
}


BLOCK = sorted(name for name in CASES if name.startswith("sweep_") and name not in POOLED
               and json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["code"] == 0)


def _with_pooled(names):
    return [pytest.param(name, "", id=name) for name in sorted(names)] + [
        pytest.param(name, "pooled", id=f"{name}-pooled") for name in sorted(names)
        if name in POOLED]


@pytest.mark.parametrize("name, mode", _with_pooled(CASES) + [
    pytest.param(name, "block", id=f"{name}-block") for name in BLOCK])
def test_matches_recording(name, mode, tmp_path, monkeypatch):
    argv, config = CASES[name]
    recorded = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert recorded["argv"] == argv and recorded["config"] == config
    started = force_pools(monkeypatch, cpus=1 if mode == "block" else 2) if mode else []
    got = run_case(argv, config, tmp_path)
    for key in ("code", "stdout", "stderr", "output"):
        assert got[key] == recorded[key], key
    assert len(started) == (POOLED[name] if mode == "pooled" else 0)


# Every pinned sweep also runs on the columnar path on two CPUs, with each power's rows in
# chunks of CHUNK_ROWS rows and a shorter last one ("-chunks"), which the parent and one worker
# make in turn.  The pinned sweeps of 2^15 measure cells or more, which take the columnar path
# by themselves, also run on the public scalar chain ("-scalar").
CHUNK_ROWS = 8
SCALAR = ["sweep_cd_101_phases_csv", "sweep_werner_251x64_json"]


@pytest.mark.parametrize("name, mode", _with_pooled(PINNED) + [
    pytest.param(name, "chunks", id=f"{name}-chunks") for name in sorted(PINNED)] + [
    pytest.param(name, "scalar", id=f"{name}-scalar") for name in SCALAR])
def test_matches_pinned_digest(name, mode, tmp_path, monkeypatch):
    argv, digest, length = PINNED[name]
    started = force_pools(monkeypatch) if mode in ("pooled", "chunks") else []
    if mode == "chunks":  # a row's measures: 4, or one more than --num-dirs
        measures = 4 if argv[0] == "sweep-cd" else 1 + int(argv[argv.index("--num-dirs") + 1])
        monkeypatch.setattr(cli, "_CHUNK_CELLS", CHUNK_ROWS * measures)
    if mode == "scalar":
        monkeypatch.setattr(cli, "_POOL_CELLS", 1 << 62)
    got = run_case(argv, None, tmp_path)
    assert (got["code"], got["stderr"], got["output"]) == (0, "", None)
    assert digest_of(got) == (digest, length)
    assert len(started) == (1 if mode == "chunks" else POOLED[name] if mode == "pooled" else 0)


def test_json_outputs_are_strict_json():
    # A recorded stdout or --output file is JSON when it starts with "{"; text
    # reports and CSV never do.
    found = []
    for path in sorted(GOLDEN.glob("*.json")):
        recorded = json.loads(path.read_text(encoding="utf-8"))
        for text in (recorded["stdout"], recorded["output"]):
            if text and text.startswith("{"):
                strict_json_loads(text)
                found.append(path.stem)
    assert len(found) == 10  # every case that asks for JSON


def test_every_fixture_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, config) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(argv, config, Path(tmp))
        fixture = {"argv": argv, "config": config, **result}
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")
        print(f"{path.name}: exit {result['code']}", file=sys.stderr)
    for name, (argv, _, _) in PINNED.items():
        with tempfile.TemporaryDirectory() as tmp:
            digest, length = digest_of(run_case(argv, None, Path(tmp)))
        print(f"{name}: {digest!r}, {length}", file=sys.stderr)


if __name__ == "__main__":
    record()
