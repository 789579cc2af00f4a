import argparse
import cmath
import gc
import io
import json
import math
import multiprocessing
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import xstates
from xstates import (
    Direction,
    XParams,
    apply_power_channel,
    classify,
    concurrence,
    negativity,
    shannon_report_from_table,
    system_entropies,
    tomogram,
    werner,
)
from conftest import force_pools, strict_json_loads
from exact import concurrence_exact, entropy_exact, negativity_exact, spectrum_exact
from oracles import werner_i_n
from xstates import cli
from xstates.cli import _CELL_SEP, _CSV, _JSON, _ROW_SEP, _block_lines, main
from xstates.entanglement import _x_entanglement
from xstates.information import _x_entropies, _x_information
from xstates.xstate import ZeroDenominatorError, _x_classify, _x_power

LN4 = math.log(4.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SELF_CHECK_FAILED = re.compile(r"error: sweep row (\d+) failed its self-check\n")


def failed_row(capsys, *argv) -> int:
    """The row that ``main(argv)`` names in its one stderr line as it exits 1, writing nothing."""
    code, out, err = run(capsys, *argv)
    failed = SELF_CHECK_FAILED.fullmatch(err)
    assert (code, out, failed is not None) == (1, "", True), err
    return int(failed[1])


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


class TestAnalyze:
    def test_valid_state_report(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--a", "0.375", "--b", "0.125", "--c-abs", "0",
            "--d-abs", "0.25", "--n", "2",
        )
        assert code == 0
        rep = parse_report(out)
        assert rep["validity"] == "valid"
        assert rep["class_input"] == "entangled"
        assert rep["class_image"] == "entangled"
        assert_allclose(float(rep["negativity"]), 25 / 14, atol=1e-12, rtol=0)
        assert_allclose(float(rep["s12"]), 0.4582082379714534, atol=1e-12, rtol=0)

    def test_json_report_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--json", "--a", "0.3", "--b", "0.2", "--c-abs", "0.1",
            "--c-phase", "0.4", "--d-abs", "0.15", "--d-phase", "1.2", "--n", "3",
        )
        assert code == 0
        rep = json.loads(out)
        image = apply_power_channel(
            XParams(
                a=0.3, b=0.2,
                c=0.1 * complex(math.cos(0.4), math.sin(0.4)),
                d=0.15 * complex(math.cos(1.2), math.sin(1.2)),
            ),
            3,
        ).params
        assert rep["validity"] == "valid"
        assert_allclose(rep["image"]["a"], image.a, atol=1e-14, rtol=0)
        assert_allclose(rep["image"]["c_abs"], abs(image.c), atol=1e-14, rtol=0)
        assert_allclose(rep["image"]["d_phase"], 1.2, atol=1e-12, rtol=0)
        assert_allclose(rep["negativity"], negativity(image), atol=1e-12, rtol=0)
        assert_allclose(rep["concurrence"], concurrence(image), atol=1e-12, rtol=0)
        assert_allclose(rep["i_n"], system_entropies(image).i_n, atol=1e-12, rtol=0)

    def test_invalid_state_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--a", "0.33", "--b", "0.17", "--c-abs", "0.2", "--d-abs", "0.1"
        )
        assert code == 2
        rep = parse_report(out)
        assert rep["validity"] == "invalid_not_psd"

    def test_overflowing_spectrum_is_null_in_json(self, capsys):
        # a + |d| and b + |c| overflow; the text form prints inf, the JSON form null.
        state = ["--a", "1e308", "--b", "1e308", "--c-abs", "1e308", "--d-abs", "1e308"]
        code, out, err = run(capsys, "analyze", *state, "--json")
        assert (code, err) == (2, "")
        assert strict_json_loads(out) == {
            "validity": "invalid_trace", "spectrum": [None, None, 0.0, 0.0]}
        code, out, err = run(capsys, "analyze", *state)
        assert (code, err) == (2, "")
        assert parse_report(out) == {"validity": "invalid_trace", "spectrum": "inf inf 0 0"}

    def test_odd_power_image_of_valid_state(self, capsys):
        # valid input keeps a nonnegative spectrum, so any power image is valid
        code, out, _ = run(
            capsys,
            "analyze", "--a", "0.33", "--b", "0.17", "--c-abs", "0.16",
            "--c-phase", "0.5", "--d-abs", "0.32", "--n", "3",
        )
        assert code == 0
        rep = parse_report(out)
        assert rep["validity"] == "valid"
        assert rep["class_image"] in ("separable", "entangled")
        assert rep["negativity"] != ""

    def test_missing_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "0")
        assert code == 1
        assert "--d-abs" in err

    def test_bad_power_exits_one(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "0",
            "--d-abs", "0", "--n", "0",
        )
        assert code == 1
        assert "--n" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "0", "--d-abs", "0",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        rep = parse_report(target.read_text())
        assert rep["class_image"] == "separable"

    def test_config_file_provides_state(self, capsys, tmp_path):
        cfg = tmp_path / "state.cfg"
        cfg.write_text(
            "# analysis inputs\n"
            "a = 0.375\n"
            "b = 0.125  # inner diagonal\n"
            "c_abs = 0\n"
            "d_abs = 0.25\n"
            "n = 2\n"
        )
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert_allclose(float(parse_report(out)["negativity"]), 25 / 14, atol=1e-12, rtol=0)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "state.cfg"
        cfg.write_text("a = 0.375\nb = 0.125\nc_abs = 0\nd_abs = 0.25\nn = 2\n")
        code, out, _ = run(capsys, "analyze", "--config", str(cfg), "--n", "1")
        assert code == 0
        assert parse_report(out)["n"] == "1"

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "state.cfg"
        cfg.write_text("a = 0.375\nwhat = 1\n")
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 1
        assert "what" in err

    @pytest.mark.parametrize("line, why", [
        ("format = xml", "unknown format 'xml'"),
        ("steps = x", "config key 'steps': invalid literal for int() with base 10: 'x'"),
    ], ids=["choice", "type"])
    def test_bad_config_value_names_its_file_and_line(self, line, why, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"# a sweep\n\nn_list = 2\n{line}\n")
        code, out, err = run(capsys, "sweep-cd", "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {cfg}:4: {why}\n")

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "state.cfg"
        cfg.write_text("a 0.375\n")
        code, _, err = run(capsys, "analyze", "--config", str(cfg))
        assert code == 1

    def test_missing_config_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1


class TestTomogramCommand:
    def test_values_match_library(self, capsys):
        code, out, _ = run(
            capsys,
            "tomogram", "--a", "0.375", "--b", "0.125", "--c-abs", "0",
            "--d-abs", "0.25", "--n", "2", "--theta-a", "0.9", "--psi-a", "0.3",
            "--theta-b", "2.0", "--psi-b", "1.1",
        )
        assert code == 0
        rep = parse_report(out)
        image = apply_power_channel(werner(0.5), 2).params
        table = tomogram(
            image, Direction(theta=0.9, psi=0.3), Direction(theta=2.0, psi=1.1)
        )
        assert_allclose(float(rep["w_uu"]), table.w_uu, atol=1e-12, rtol=0)
        assert_allclose(float(rep["w_ud"]), table.w_ud, atol=1e-12, rtol=0)
        i_s = shannon_report_from_table(table).i_s
        assert_allclose(float(rep["i_s"]), i_s, atol=1e-12, rtol=0)

    def test_bell_peak_json(self, capsys):
        code, out, _ = run(
            capsys,
            "tomogram", "--json", "--a", "0.5", "--b", "0", "--c-abs", "0",
            "--d-abs", "0.5", "--theta-a", str(math.pi / 2), "--theta-b", str(math.pi / 2),
        )
        assert code == 0
        rep = json.loads(out)
        assert_allclose(rep["w_uu"], 0.5, atol=1e-14, rtol=0)
        assert_allclose(rep["w_ud"], 0.0, atol=1e-14, rtol=0)
        assert_allclose(rep["marginal_a"], [0.5, 0.5], atol=1e-14, rtol=0)
        assert_allclose(rep["h1"], math.log(2), atol=1e-13, rtol=0)

    def test_second_euler_angle_accepted_but_irrelevant(self, capsys):
        base = [
            "tomogram", "--a", "0.3", "--b", "0.2", "--c-abs", "0.1", "--d-abs", "0.2",
            "--theta-a", "1.1", "--psi-a", "0.7", "--theta-b", "0.4", "--psi-b", "2.2",
        ]
        _, out_plain, _ = run(capsys, *base)
        _, out_phi, _ = run(capsys, *base, "--phi-a", "2.9", "--phi-b", "0.6")
        assert out_plain == out_phi

    def test_theta_out_of_range_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            "tomogram", "--a", "0.25", "--b", "0.25", "--c-abs", "0", "--d-abs", "0",
            "--theta-a", "4.0", "--theta-b", "1.0",
        )
        assert code == 1
        assert "--theta-a" in err

    def test_invalid_state_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "tomogram", "--a", "0.33", "--b", "0.17", "--c-abs", "0.2", "--d-abs", "0.1",
            "--theta-a", "1.0", "--theta-b", "1.0",
        )
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "tomo.txt"
        code, out, _ = run(
            capsys,
            "tomogram", "--a", "0.25", "--b", "0.25", "--c-abs", "0", "--d-abs", "0",
            "--theta-a", "1.0", "--theta-b", "0.5", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        rep = parse_report(target.read_text())
        assert_allclose(float(rep["w_uu"]), 0.25, atol=1e-14, rtol=0)
        assert_allclose(float(rep["i_s"]), 0.0, atol=1e-12, rtol=0)


class TestSweepCd:
    def test_csv_structure_and_values(self, capsys, tmp_path):
        target = tmp_path / "cd.csv"
        code, _, _ = run(
            capsys,
            "sweep-cd", "--steps", "5", "--n-list", "2,3",
            "--c-abs-max", "0.4", "--d-abs-max", "0.4", "--output", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "c_abs,d_abs,n,valid,class,negativity,concurrence,s12,i_n"
        assert len(lines) == 1 + 5 * 5 * 2
        first = lines[1].split(",")
        assert first[:5] == ["0", "0", "2", "true", "separable"]
        assert_allclose(float(first[5]), 1.0, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("ends", [("-0.0", "-0.0"), ("-0.0", "0"), ("0", "-0.0")])
    def test_negative_zero_grid_end_is_zero(self, ends, capsys):
        # -0.0 passes the >= 0 check; its grid must not print -0 for a magnitude.
        argv = ["sweep-cd", "--steps", "2", "--n-list", "2"]
        code, out, _ = run(capsys, *argv, "--c-abs-max", ends[0], "--d-abs-max", ends[1])
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--c-abs-max", "0", "--d-abs-max", "0")[:2]
        assert all(line.startswith("0,0,2,") for line in out.splitlines()[1:])

    def test_rows_match_library(self, capsys, tmp_path):
        target = tmp_path / "cd.csv"
        run(
            capsys,
            "sweep-cd", "--steps", "3", "--n-list", "2", "--a", "0.3", "--b", "0.2",
            "--c-abs-max", "0.2", "--d-abs-max", "0.3", "--output", str(target),
        )
        for line in target.read_text().strip().splitlines()[1:]:
            parts = line.split(",")
            c_abs, d_abs = float(parts[0]), float(parts[1])
            image = apply_power_channel(XParams(a=0.3, b=0.2, c=c_abs, d=d_abs), 2).params
            assert parts[3] == "true"
            assert_allclose(float(parts[5]), negativity(image), atol=1e-12, rtol=0)
            assert_allclose(float(parts[8]), system_entropies(image).i_n, atol=1e-12, rtol=0)

    def test_invalid_rows_blank_measures(self, capsys, tmp_path):
        target = tmp_path / "cd.csv"
        # |d| up to 0.5 exceeds a = 0.33: odd power leaves invalid images
        run(
            capsys,
            "sweep-cd", "--steps", "11", "--n-list", "3", "--output", str(target),
        )
        lines = target.read_text().strip().splitlines()[1:]
        invalid = [ln for ln in lines if ",false," in ln]
        assert invalid
        for ln in invalid:
            parts = ln.split(",")
            assert parts[5] == "" and parts[6] == "" and parts[7] == "" and parts[8] == ""

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        argv = ["sweep-cd", "--steps", "21", "--n-list", "2,3"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep-cd", "--steps", "2", "--n-list", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["steps"] == 2
        assert payload["columns"][0] == "c_abs"
        assert len(payload["rows"]) == 4

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        target = tmp_path / "cd.csv"
        cfg.write_text(
            "steps = 3\nn_list = 2\na = 0.3\nb = 0.2\n"
            f"output = {target}\n"
        )
        code, _, _ = run(capsys, "sweep-cd", "--config", str(cfg))
        assert code == 0
        assert target.exists()
        assert len(target.read_text().strip().splitlines()) == 1 + 9

    def test_bad_steps_exits_one(self, capsys):
        code, _, err = run(capsys, "sweep-cd", "--steps", "1")
        assert code == 1
        assert "--steps" in err

    def test_fast_path_classifies_without_scalar_validate(self, monkeypatch):
        validate = xstates.xstate.validate
        calls = []
        monkeypatch.setattr("xstates.xstate.validate", lambda p: calls.append(p) or validate(p))
        # |c| = 0.2 > b is not PSD: its images are invalid at n = 3 and valid at n = 2.
        states = [XParams(a=0.33, b=0.17, c=c, d=d) for c in (0.0, 0.2) for d in (0.0, 0.1)]
        for n, valid in ((2, [True] * 4), (3, [True, True, False, False])):
            classes = [classify(apply_power_channel(p, n).params).value for p in states]
            calls.clear()
            block_n, verdicts, measures = cli._evaluate(n, states, cli._columnar_measures)
            assert block_n == n
            assert [cli._VERDICTS[v] for v in verdicts] == list(zip(valid, classes))
            # One column per measure, with a value for each valid row only.
            assert [len(col) for col in measures] == [sum(valid)] * 4
            assert calls == []  # the class of the whole block comes from _x_classify

    @pytest.mark.parametrize("c_phase, d_phase",
                             [(0.0, 0.0), (math.pi, -math.pi), (1e300, -1e300), (-1e300, math.pi)])
    @pytest.mark.parametrize("ends", [("0.5", "0.25"), ("0", "0.5"), ("0", "-0.0")])
    def test_grid_states_are_what_the_constructor_builds(self, c_phase, d_phase, ends, capsys,
                                                         monkeypatch):
        # Each grid state is the XParams of its point: the axis values, -0.0 ends and phases.
        force_pools(monkeypatch, cpus=1)  # the columnar path, which a grid this small skips
        evaluate, seen = cli._evaluate, []
        monkeypatch.setattr("xstates.cli._evaluate", lambda n, states, measure: (
            seen.append(states) or evaluate(n, states, measure)))
        argv = ["sweep-cd", "--steps", "3", "--n-list", "2", "--a", "0.3", "--b", "0.2",
                "--c-phase", repr(c_phase), "--d-phase", repr(d_phase),
                "--c-abs-max", ends[0], "--d-abs-max", ends[1]]
        assert run(capsys, *argv)[0] == 0
        c_unit, d_unit = cmath.exp(1j * c_phase), cmath.exp(1j * d_phase)
        # An end of -0.0 is taken as 0.0, so its axis is 0.0 throughout.
        c_axis, d_axis = ([-0.0 + (float(end) + 0.0) * k / 2 for k in range(3)] for end in ends)
        expected = [XParams(0.3, 0.2, c * c_unit, d * d_unit) for c in c_axis for d in d_axis]
        (states,) = seen
        assert len(states) == len(expected) == 9
        for state, twin in zip(states, expected):
            assert (state, hash(state), repr(state)) == (twin, hash(twin), repr(twin))

    def test_spot_check_catches_a_wrong_class(self, capsys, monkeypatch):
        # Swap separable with entangled, or not PSD with bad trace, in one row that
        # the spot check draws: block k, grid point j.
        drawn = random.Random(0).sample(range(2 * 25), 32)[0]
        k, j = divmod(drawn, 25)
        blocks = []

        def one_flipped(x):
            index = _x_classify(x)
            if len(blocks) == k:
                index[j] ^= 1
            blocks.append(x)
            return index

        monkeypatch.setattr("xstates.cli._x_classify", one_flipped)
        force_pools(monkeypatch, cpus=1)
        assert failed_row(capsys, "sweep-cd", "--steps", "5", "--n-list", "1,3") == drawn

    @pytest.mark.parametrize("kernel", [_x_entanglement, _x_entropies])
    def test_spot_check_catches_a_wrong_kernel(self, kernel, capsys, monkeypatch):
        monkeypatch.setattr(
            f"xstates.cli.{kernel.__name__}", lambda *a: np.nextafter(kernel(*a), np.inf)
        )
        force_pools(monkeypatch, cpus=1)
        # Every image of an even power is valid, and all 25 rows are checked.
        failed_row(capsys, "sweep-cd", "--steps", "5", "--n-list", "2")

    # One image column of the block power map one ulp up: a, b or Re d, which the measures
    # read on these grids.  In one process and in workers, the run fails and writes nothing.
    @pytest.mark.parametrize("column", [0, 1, 4], ids=["a", "b", "re_d"])
    @pytest.mark.parametrize("argv", [["sweep-cd", "--steps", "5"],
                                      ["sweep-werner", "--steps", "5", "--num-dirs", "2"]],
                             ids=["cd", "werner"])
    def test_spot_check_catches_a_power_map_one_ulp_off(self, column, argv, tmp_path, capsys,
                                                        monkeypatch):
        def nudged(x, n):
            images, vanished = _x_power(x, n)
            images[column] = np.nextafter(images[column], np.inf)
            return images, vanished

        monkeypatch.setattr(cli, "_x_power", nudged)
        out = tmp_path / "out"
        for cpus in (1, 2):
            started = force_pools(monkeypatch, cpus=cpus)
            for output in ([], ["--output", str(out)]):
                failed_row(capsys, *argv, "--n-list", "2,3", *output)
            assert len(started) == 2 * (cpus - 1)  # two runs of one worker
            assert_reaped(started)
        assert not out.exists()

    def test_spot_check_catches_rows_out_of_place(self, capsys, monkeypatch):
        measures = cli._columnar_measures

        def rotated(x):
            columns = measures(x)
            columns[2] = columns[2][1:] + columns[2][:1]  # S(rho) one row up
            return columns

        monkeypatch.setattr("xstates.cli._columnar_measures", rotated)
        force_pools(monkeypatch, cpus=1)
        # Every image of an even power is valid, and all 25 rows are checked.
        failed_row(capsys, "sweep-cd", "--steps", "5", "--n-list", "2")

    # Each row gets the measures of the row above.  Power 2's block comes first, and every
    # row of it is valid: the spot check inside that block refuses the shifted rows, before
    # power 3's block is made, in either format, in one process and in workers, and the run
    # writes nothing.
    @pytest.mark.parametrize("argv", [
        ["sweep-cd"], ["sweep-werner", "--p-min=-1", "--num-dirs", "1"],
        ["sweep-cd", "--json"], ["sweep-werner", "--p-min=-1", "--num-dirs", "1", "--json"]])
    def test_spot_check_reads_rows_through_the_writers_layout(self, argv, tmp_path, capsys,
                                                              monkeypatch):
        spread = cli._spread

        def shifted(verdicts, values):
            column = spread(verdicts, values)
            return column[-1:] + column[:-1]

        monkeypatch.setattr("xstates.cli._spread", shifted)
        out = tmp_path / "out"
        for pooled in (False, True):
            started = force_pools(monkeypatch) if pooled else []
            for output in ([], ["--output", str(out)]):
                failed_row(capsys, *argv, "--steps", "5", "--n-list", "2,3", *output)
            assert len(started) == 2 * pooled  # two runs of one worker
        assert not out.exists()

    # A line misplaced or misprinted by _block_lines alone, after the measures were made: the
    # check reads the drawn lines as written, so each mutant fails the run with one line and
    # writes nothing, in either format, in one process and in workers.  Every row here is
    # valid, and so checkable.
    # In chunks of ``cells`` measure cells, each power's 25 points (sweep-cd) or 5 weights
    # (sweep-werner) split into chunks of 7, 7, 7 and 4 rows or of 3 and 2: a mutant then
    # touches only each power's last chunk, of ``last`` rows, and "no_row_offset" checks each
    # drawn row's line against the point as many rows before it as its chunk's first row.
    @pytest.mark.parametrize("mutant, chunks", [
        pytest.param(mutant, chunks, id=mutant + "-chunks" * chunks)
        for chunks, mutants in ((False, ["rotated_rows", "swapped_cells", "one_digit_off"]),
                                (True, ["rotated_rows", "swapped_cells", "one_digit_off",
                                        "no_row_offset"]))
        for mutant in mutants])
    @pytest.mark.parametrize("argv, cells, last", [
        (["sweep-cd", "--n-list", "2,4"], 28, 4),
        (["sweep-werner", "--num-dirs", "2", "--n-list", "2,3"], 9, 2),
        (["sweep-cd", "--n-list", "2,4", "--json"], 28, 4),
        (["sweep-werner", "--num-dirs", "2", "--n-list", "2,3", "--json"], 9, 2),
    ], ids=["argv0", "argv1", "argv2", "argv3"])
    def test_spot_check_reads_the_lines_it_ships(self, mutant, chunks, argv, cells, last,
                                                 tmp_path, capsys, monkeypatch):
        block_lines, spot_check = cli._block_lines, cli._spot_check

        def mutated(block, heads, layout, style):
            n, verdicts, measures = block
            if not chunks or len(heads) == last:
                if mutant == "rotated_rows":  # each row gets the measures of the row above
                    measures = [m[-1:] + m[:-1] for m in measures]
                elif mutant == "swapped_cells":  # the last two measure cells of each row swap
                    measures = [*measures[:-2], measures[-1], measures[-2]]
                elif mutant == "one_digit_off":  # the last digit of each line, one up
                    return [re.sub(r"(\d)(\D*)$", lambda m: f"{(int(m[1]) + 1) % 10}{m[2]}", line)
                            for line in block_lines(block, heads, layout, style)]
            return block_lines((n, verdicts, measures), heads, layout, style)

        def no_row_offset(n, drawn, lines, lo, *rest):  # row j's line against point j - lo
            return spot_check(n, [i - lo for i in drawn], lines, 0, *rest)

        monkeypatch.setattr(cli, "_block_lines", mutated)
        if mutant == "no_row_offset":
            monkeypatch.setattr(cli, "_spot_check", no_row_offset)
        if chunks:
            monkeypatch.setattr(cli, "_CHUNK_CELLS", cells)
        out = tmp_path / "out"
        for pooled in (False, True):
            started = force_pools(monkeypatch) if pooled else []
            for output in ([], ["--output", str(out)]):
                failed_row(capsys, *argv, "--steps", "5", *output)
            assert len(started) == 2 * pooled  # two runs of one worker
            assert_reaped(started)
        assert not out.exists()

    def test_spot_check_recomputes_the_drawn_power_and_point(self, capsys, monkeypatch):
        cd_row = cli._cd_row
        calls = []

        def recording(n, state):
            calls.append((n, state))
            return cd_row(n, state)

        monkeypatch.setattr("xstates.cli._cd_row", recording)
        assert run(capsys, "sweep-cd", "--steps", "5", "--n-list", "2,3,4", "--seed", "8")[0] == 0
        # A grid this small takes the public chain: power by power, a block's 25 rows are
        # made, then its drawn rows are recomputed, in the order they were drawn; 32 are drawn
        # from the 3 blocks.
        axis = (0.0, 0.125, 0.25, 0.375, 0.5)
        grid = [XParams(a=0.33, b=0.17, c=c, d=d) for c in axis for d in axis]
        drawn = [divmod(i, 25) for i in random.Random(8).sample(range(75), 32)]
        assert calls == [
            call for k, n in enumerate((2, 3, 4))
            for call in [*((n, state) for state in grid),
                         *((n, grid[j]) for b, j in drawn if b == k)]]
        assert len(calls) == 75 + 32

    def test_spot_check_alone_calls_the_row_map_on_the_columnar_path(self, capsys, monkeypatch):
        cd_row = cli._cd_row
        calls = []

        def recording(n, state):
            calls.append((n, state))
            return cd_row(n, state)

        monkeypatch.setattr("xstates.cli._cd_row", recording)
        force_pools(monkeypatch, cpus=1)
        assert run(capsys, "sweep-cd", "--steps", "5", "--n-list", "2,3,4", "--seed", "8")[0] == 0
        # The blocks' images come from _x_power; only the 32 drawn rows go through _cd_row.
        axis = (0.0, 0.125, 0.25, 0.375, 0.5)
        grid = [XParams(a=0.33, b=0.17, c=c, d=d) for c in axis for d in axis]
        drawn = [divmod(i, 25) for i in random.Random(8).sample(range(75), 32)]
        assert calls == [(n, grid[j]) for k, n in enumerate((2, 3, 4)) for b, j in drawn if b == k]

    def test_trace_cancelling_below_the_guards_underflow_gives_invalid_rows(self, capsys):
        # Tr rho^7 is exactly 0 at every point; at |d| = 1.4e-45, 1e-12 * scale is 0 too.
        code, out, err = run(capsys, "sweep-cd", "--a", "0", "--b", "0", "--c-abs-max", "0",
                             "--d-abs-max", "1.4e-45", "--steps", "2", "--n-list", "7")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["0,0,7,false,,,,,", "0,1.4e-45,7,false,,,,,"] * 2

    def test_row_limit_by_arithmetic(self, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr("xstates.cli._grid", no_grid)
        # The default power list has 4 powers; --steps 401 stays well inside.
        assert 401**2 * 4 * 10 < cli._MAX_SIZE
        steps = math.isqrt(cli._MAX_SIZE // 4) + 1
        assert steps**2 * 4 > cli._MAX_SIZE
        code, out, err = run(capsys, "sweep-cd", "--steps", str(steps))
        assert (code, out) == (1, "")
        assert err == (
            f"error: --steps {steps} with 4 powers makes {steps**2 * 4} rows,"
            f" more than the limit of {cli._MAX_SIZE}\n"
        )
        # One step fewer is within the limit and reaches the grid.
        with pytest.raises(AssertionError, match="a grid was built"):
            main(["sweep-cd", "--steps", str(steps - 1)])

    @pytest.mark.parametrize("limit, code", [(63, 1), (64, 0)])
    def test_row_limit_on_a_small_grid(self, limit, code, capsys, monkeypatch):
        monkeypatch.setattr("xstates.cli._MAX_SIZE", limit)
        got, out, err = run(capsys, "sweep-cd", "--steps", "4")  # 4 * 4 * 4 = 64 rows
        assert got == code
        if code:
            assert (out, err.count("\n")) == ("", 1) and "64 rows" in err
        else:
            assert (len(out.splitlines()), err) == (1 + 64, "")


class TestSweepWerner:
    def test_structure_and_known_rows(self, capsys, tmp_path):
        target = tmp_path / "werner.csv"
        code, _, _ = run(
            capsys,
            "sweep-werner", "--steps", "5", "--n-list", "1,2", "--num-dirs", "3",
            "--output", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any(ln.startswith("# seed = 0") for ln in comments)
        assert any("threshold n=1" in ln and "0.333333333333333" in ln for ln in comments)
        assert any("threshold n=2" in ln and "lower" in ln for ln in comments)
        assert sum(1 for ln in comments if ln.startswith("# direction_pair")) == 3
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "p,n,valid,i_n,i_s_dir0,i_s_dir1,i_s_dir2,class"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 5 * 2
        by_key = {tuple(r.split(",")[:2]): r.split(",") for r in rows}
        bell = by_key[("1", "1")]
        assert_allclose(float(bell[3]), LN4, atol=1e-12, rtol=0)
        assert bell[-1] == "entangled"
        mixed = by_key[("0", "2")]
        assert_allclose(float(mixed[3]), 0.0, atol=1e-12, rtol=0)
        assert mixed[-1] == "separable"

    def test_shannon_bounded_by_quantum(self, capsys, tmp_path):
        target = tmp_path / "werner.csv"
        run(
            capsys,
            "sweep-werner", "--steps", "21", "--n-list", "1,3", "--num-dirs", "4",
            "--output", str(target),
        )
        for line in target.read_text().strip().splitlines():
            if line.startswith("#") or line.startswith("p,"):
                continue
            parts = line.split(",")
            i_n = float(parts[3])
            for val in parts[4:8]:
                assert float(val) <= i_n + 1e-10

    def test_out_of_range_weights_emit_invalid_rows(self, capsys, tmp_path):
        target = tmp_path / "werner.csv"
        run(
            capsys,
            "sweep-werner", "--p-min", "1.2", "--p-max", "1.4", "--steps", "3",
            "--n-list", "3", "--num-dirs", "2", "--output", str(target),
        )
        rows = [
            ln for ln in target.read_text().strip().splitlines()
            if not ln.startswith("#") and not ln.startswith("p,")
        ]
        assert rows
        for row in rows:
            parts = row.split(",")
            assert parts[2] == "false"
            assert parts[3] == "" and parts[4] == "" and parts[5] == ""

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "one.csv", tmp_path / "two.csv"
        argv = ["sweep-werner", "--steps", "11", "--n-list", "2", "--seed", "9"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep-werner", "--steps", "3", "--n-list", "2", "--num-dirs", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["thresholds"][0]["n"] == 2
        assert payload["thresholds"][0]["lower"] is not None
        assert len(payload["directions"]) == 2
        assert len(payload["rows"]) == 3

    def test_i_n_equals_the_library_bit_for_bit(self, capsys):
        # JSON floats round-trip, so == compares every bit; at n = 511 and 600
        # the Werner closed form's power sums overflow near p = 1.
        code, out, _ = run(
            capsys,
            "sweep-werner", "--p-min", "0.9", "--p-max", "1", "--steps", "5",
            "--n-list", "1,2,511,600", "--num-dirs", "1", "--json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 20
        assert all(
            valid and i_n == werner_i_n(p, n) for p, n, valid, i_n, *_ in rows
        )

    def test_spot_check_catches_a_wrong_fast_path(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "xstates.cli._x_information", lambda *a: np.nextafter(_x_information(*a), np.inf)
        )
        force_pools(monkeypatch, cpus=1)
        failed_row(capsys, "sweep-werner", "--steps", "5", "--num-dirs", "2")

    def test_spot_check_catches_swapped_pair_columns(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "xstates.cli._x_information", lambda *a: _x_information(*a)[:, [1, 0]]
        )
        force_pools(monkeypatch, cpus=1)
        failed_row(capsys, "sweep-werner", "--steps", "5", "--num-dirs", "2")

    def test_spot_check_sees_the_columnar_i_n(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "xstates.cli._x_entropies", lambda *a: np.nextafter(_x_entropies(*a), np.inf)
        )
        force_pools(monkeypatch, cpus=1)
        failed_row(capsys, "sweep-werner", "--steps", "5", "--num-dirs", "2")

    def test_size_limit_by_arithmetic(self, capsys, monkeypatch):
        def nothing_built(*args):
            raise AssertionError("a grid or a direction set was built")

        monkeypatch.setattr("xstates.cli._grid", nothing_built)
        monkeypatch.setattr("xstates.cli.direction_pairs", nothing_built)
        # The defaults are 401 steps and 6 powers; 64 direction pairs stay well inside.
        # Each pair counts once, beside its 401 * 6 I_s values.
        assert (401 * 6 + 1) * 64 * 10 < cli._MAX_SIZE
        num_dirs = cli._MAX_SIZE // (401 * 6 + 1) + 1
        size = (401 * 6 + 1) * num_dirs
        assert size > cli._MAX_SIZE
        code, out, err = run(capsys, "sweep-werner", "--num-dirs", str(num_dirs))
        assert (code, out) == (1, "")
        assert err == (
            f"error: --steps 401 with 6 powers and {num_dirs} direction pairs makes {size}"
            f" I_s values and direction pairs, more than the limit of {cli._MAX_SIZE}\n"
        )
        # One direction pair fewer is within the limit and reaches the grid.
        with pytest.raises(AssertionError, match="was built"):
            main(["sweep-werner", "--num-dirs", str(num_dirs - 1)])

    @pytest.mark.parametrize("num_dirs", ["0", "-1"])
    def test_num_dirs_refused_before_the_grid(self, num_dirs, capsys, monkeypatch):
        def nothing_built(*args):
            raise AssertionError("a grid or a direction set was built")

        monkeypatch.setattr("xstates.cli._grid", nothing_built)
        monkeypatch.setattr("xstates.cli.direction_pairs", nothing_built)
        # No direction pair makes a size of 0, which the size limit lets through
        # at any --steps: a weight grid of 10^9 values would be built first.
        code, out, err = run(
            capsys, "sweep-werner", "--steps", "1000000000", "--num-dirs", num_dirs
        )
        assert (code, out, err) == (1, "", f"error: --num-dirs must be >= 1, got {num_dirs}\n")

    @pytest.mark.parametrize("limit, code", [(23, 1), (24, 0)])
    def test_size_limit_on_a_small_grid(self, limit, code, capsys, monkeypatch):
        monkeypatch.setattr("xstates.cli._MAX_SIZE", limit)
        # 7 steps * 1 power * 3 direction pairs = 21 I_s values, plus the 3 pairs
        got, out, err = run(
            capsys, "sweep-werner", "--steps", "7", "--n-list", "1", "--num-dirs", "3"
        )
        assert got == code
        if code:
            assert (out, err.count("\n")) == ("", 1)
            assert "24 I_s values and direction pairs" in err
        else:
            assert (len(out.splitlines()), err) == (1 + 3 + 1 + 1 + 7, "")

    def test_direction_pairs_count_toward_the_limit(self, capsys, monkeypatch):
        def no_pairs(*args):
            raise AssertionError("direction pairs were built")

        monkeypatch.setattr("xstates.cli.direction_pairs", no_pairs)
        # 10^7 I_s values, at the limit, but 5 * 10^6 pairs of about 0.7 kB each.
        argv = ["sweep-werner", "--steps", "2", "--n-list", "1", "--num-dirs", "5000000"]
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err == (
            "error: --steps 2 with 1 powers and 5000000 direction pairs makes 15000000"
            f" I_s values and direction pairs, more than the limit of {cli._MAX_SIZE}\n"
        )

    def test_finite_image_of_a_huge_weight_keeps_its_rows(self, capsys):
        # Tr rho^2 overflows to inf, but the image (all zeros) is finite.
        code, out, err = run(
            capsys, "sweep-werner", "--p-min=1.6e154", "--p-max=1.6e154", "--n-list", "2",
            "--steps", "2",
        )
        assert (code, err) == (0, "")
        rows = [ln for ln in out.splitlines() if ln.startswith("1.6e+154,")]
        assert rows == ["1.6e+154,2,false,,,,,,invalid_trace"] * 2


class TestNegativeExponentArguments:
    def test_argparse_keeps_the_attribute_that_is_widened(self):
        assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)

    def test_separate_argument_equals_the_attached_form(self, capsys):
        base = ["sweep-werner", "--steps", "3", "--num-dirs", "2", "--json"]
        separate = run(capsys, *base, "--p-min", "-1e-1")
        assert separate == run(capsys, *base, "--p-min=-0.1")
        assert separate[0] == 0

    def test_analyze_reaches_validation(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--a", "1e308", "--b", "-1e308", "--c-abs", "0", "--d-abs", "0"
        )
        assert (code, err) == (2, "")
        assert parse_report(out)["validity"] == "invalid_trace"


def CD_LAYOUT(n, valid, cls, m):
    return [n, valid, cls, *m]


def WERNER_LAYOUT(n, valid, cls, m):
    return [n, valid, *m, cls]  # the class goes last


EDGE_FLOATS = [-0.0, 1e16, 0.1 + 0.2, 5e-324, -1.7976931348623157e308]

# Blocks (n, verdicts, measures), each with its grid points and layout.  A verdict indexes
# cli._VERDICTS: 0 and 1 are valid, 2 and 3 invalid, and -1 a row whose Tr rho^n vanished;
# werner_like and cd_like hold every one of them between them.  The measures of the sum_*
# blocks are finite, but their sum is inf or nan: the writer's one finite check per block
# fails, and its cell-by-cell search must then find nothing to refuse.
JSON_ROWS = {
    "one_cell": ([(0.5,)], (1, [0], [[0.5]]), CD_LAYOUT),
    "werner_like": ([(0.25,), (-3.0,), (1.5,), (0.5,)],
                    (2, [1, -1, 3, 0], [[0.1, 0.2], [1e-300, 0.0], [0.3, 0.4]]), WERNER_LAYOUT),
    "cd_like": ([(0.0, 0.5), (0.5, 0.0), (0.5, 0.5)],
                (3, [2, 0, -1], [[0.5], [0.25], [1.0], [0.75]]), CD_LAYOUT),
    "odd_cells": ([(x, y) for x in EDGE_FLOATS for y in EDGE_FLOATS[:2]],
                  (5, [0, 1] * 5, [EDGE_FLOATS * 2, EDGE_FLOATS[::-1] * 2]), CD_LAYOUT),
    "sum_inf": ([(0.0,), (0.5,)], (2, [0, 1], [[1e308, 1e308]]), CD_LAYOUT),
    "sum_nan": ([(0.0,), (0.5,)], (4, [1, 0], [[1e308, 1e308], [-1e308, -1e308]]), CD_LAYOUT),
}


def _json_heads(points):
    """The grid cells of each point as the JSON writer takes them: each followed by _CELL_SEP."""
    return ["".join(json.dumps(x) + _CELL_SEP for x in point) for point in points]


def _split(points, block, k):
    """A block and its grid points as two blocks: the rows before k, and the rows from k on."""
    n, verdicts, measures = block
    m = sum(0 <= v < 2 for v in verdicts[:k])
    return [(points[:k], (n, verdicts[:k], [c[:m] for c in measures])),
            (points[k:], (n, verdicts[k:], [c[m:] for c in measures]))]


@pytest.mark.parametrize("name", sorted(JSON_ROWS))
def test_json_rows_equal_json_dumps(name):
    points, block, layout = JSON_ROWS[name]
    n, verdicts, measures = block
    values = iter(zip(*measures))
    rows = []
    for point, v in zip(points, verdicts):
        valid, cls = cli._VERDICTS[v]
        rows.append([*point, *layout(n, valid, cls,
                                     next(values) if valid else [None] * len(measures))])
    assert next(values, None) is None  # one value per valid row
    # One block, and every split into two nonempty blocks.
    for parts in [[(points, block)]] + [_split(points, block, k) for k in range(1, len(points))]:
        texts = [_ROW_SEP.join(_block_lines(b, _json_heads(p), layout, _JSON)) for p, b in parts]
        text = '{\n  "rows": [\n    [\n      ' + _ROW_SEP.join(texts) + "\n    ]\n  ]\n}"
        assert text == json.dumps({"rows": rows}, indent=2)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_json_rows_reject_non_finite_cells(value):
    # RFC 8259 JSON has no Infinity or NaN; the JSON writer refuses a measure that is one,
    # in any row, rather than emit it.  CSV writes it as "%.15g" does.
    block = (2, [0, 1, 2], [[0.5, value], [0.25, 0.75]])
    heads = ["0,", "1,", "2,"]
    with pytest.raises(ValueError, match="JSON compliant"):
        _block_lines(block, _json_heads([(0,), (1,), (2,)]), CD_LAYOUT, _JSON)
    assert _block_lines(block, heads, CD_LAYOUT, _CSV) == [
        "0,2,true,separable,0.5,0.25", f"1,2,true,entangled,{value:.15g},0.75",
        "2,2,false,invalid_not_psd,,"]


def test_json_rows_are_encoded_one_power_at_a_time(capsys, monkeypatch):
    block_lines, sizes = cli._block_lines, []

    def recorded(block, heads, layout, style):
        lines = block_lines(block, heads, layout, style)
        sizes.append((block[0], len(lines), style is _JSON))
        return lines

    monkeypatch.setattr(cli, "_block_lines", recorded)
    argv = ["sweep-cd", "--steps", "5", "--n-list", "2,3,4", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["rows"]) == 75
    assert sizes == [(2, 25, True), (3, 25, True), (4, 25, True)]
    # In chunks of 40 measure cells, 10 rows of 4 measures: each power's 25 rows as 10, 10, 5.
    sizes.clear()
    monkeypatch.setattr(cli, "_CHUNK_CELLS", 40)
    assert run(capsys, *argv) == (0, out, "")
    assert sizes == [(n, rows, True) for n in (2, 3, 4) for rows in (10, 10, 5)]


def _csv_cell(value) -> str:
    """A JSON row value as the CSV writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".15g")


# At its first weight Tr rho^3 vanishes: a row without an image, whose class cell,
# the last, is empty.
WERNER_NO_IMAGE = ["sweep-werner", "--p-min=-1.5678054223290214", "--p-max=-1.5", "--steps", "2",
                   "--n-list", "3", "--num-dirs", "1"]


def _assert_csv_matches_json(csv_text: str, json_text: str) -> list[str]:
    """Assert that a sweep's CSV and JSON hold the same cells; give the CSV's data lines."""
    payload = strict_json_loads(json_text)
    header, *lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    assert header.split(",") == payload["columns"]
    assert [ln.split(",") for ln in lines] == [
        [_csv_cell(x) for x in row] for row in payload["rows"]]
    return lines


AGREEING = {
    "cd_phases": ["sweep-cd", "--steps", "7", "--n-list", "2,3", "--c-phase", "0.7",
                  "--d-phase", "-1.3"],
    "cd_odd_power": ["sweep-cd", "--steps", "11", "--n-list", "3"],
    "cd_zero_diagonal": ["sweep-cd", "--a", "0", "--b", "0", "--steps", "5", "--n-list", "1,2"],
    "werner_negative_weights": ["sweep-werner", "--p-min=-3", "--num-dirs", "3"],
    "werner_no_image": WERNER_NO_IMAGE,
}


# Each also with its blocks made in worker processes ("-pooled"), which must give the same bytes.
@pytest.mark.parametrize("name, pooled", [
    pytest.param(name, pooled, id=name + "-pooled" * pooled)
    for pooled in (False, True) for name in AGREEING])
def test_csv_and_json_agree_cell_by_cell(name, pooled, capsys, monkeypatch):
    argv = AGREEING[name]
    code, csv_text, _ = run(capsys, *argv)
    assert code == 0
    code, json_text, _ = run(capsys, *argv, "--json")
    assert code == 0
    if pooled:
        started = force_pools(monkeypatch)
        assert run(capsys, *argv) == (0, csv_text, "")
        assert run(capsys, *argv, "--json") == (0, json_text, "")
        # Two runs of one worker; a sweep of one power has one block, and makes it in-process.
        assert len(started) == (0 if name in ("cd_odd_power", "werner_no_image") else 2)
    lines = _assert_csv_matches_json(csv_text, json_text)
    # Each sweep here has invalid rows, with an empty measure cell.
    assert any("" in ln.split(",") for ln in lines)
    if argv == WERNER_NO_IMAGE:
        assert lines[0] == "-1.56780542232902,3,false,,,"


# Sweeps in chunks of ``cells`` measure cells, of the rows given for each power, made in one
# process and then by the parent and one worker in turn: the bytes are those of whole powers
# in one process.  At power 3, sweep-cd's rows from 40 on are invalid, so chunks 6 to 17 have
# no valid row, nor has sweep-werner's first chunk, its 14 lowest weights; WERNER_NO_IMAGE's
# first weight, a chunk of its own, has no image.
CHUNKED = {
    "cd_invalid_chunks": (["sweep-cd", "--steps", "11", "--n-list", "2,3"], 28, [7] * 17 + [2]),
    "werner_invalid_chunk": (["sweep-werner", "--p-min=-3", "--steps", "21", "--n-list", "2,3",
                              "--num-dirs", "1"], 28, [14, 7]),
    "werner_no_image": (WERNER_NO_IMAGE, 2, [1, 1]),
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["csv", "json"])
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunks_give_the_bytes_of_whole_powers(name, json_flag, capsys, monkeypatch):
    argv, cells, chunks = CHUNKED[name]
    argv = [*argv, *json_flag]
    text = serial_text(argv)
    block_lines, sizes, invalid = cli._block_lines, [], set()

    def recorded(block, heads, layout, style):
        n, verdicts, _ = block
        sizes.append(len(heads))
        if not any(0 <= v < 2 for v in verdicts):
            invalid.add(n)
        return block_lines(block, heads, layout, style)

    monkeypatch.setattr(cli, "_block_lines", recorded)
    monkeypatch.setattr(cli, "_CHUNK_CELLS", cells)
    assert run(capsys, *argv) == (0, text, "")
    assert sizes == chunks * len(argv[argv.index("--n-list") + 1].split(","))
    assert invalid == {3}  # a chunk without a valid row, at the odd power only
    started = force_pools(monkeypatch)
    assert run(capsys, *argv) == (0, text, "")
    assert len(started) == 1
    assert_reaped(started)


def _half_unit_in_15th_digit(cell: str) -> Fraction:
    """The most that writing a float with ``%.15g`` can move it, read from the cell it wrote."""
    return Fraction(5) * Fraction(10) ** (Decimal(cell).adjusted() - 15)


# README's Accuracy bounds, held by the cells a sweep prints, against tests/exact.py on each
# row's float image.  A JSON cell reads back as the float itself, so it meets the float's
# bound; a CSV cell is that float rounded once more, to 15 significant digits.
def test_printed_cells_meet_the_accuracy_bounds(capsys):
    argv = ["sweep-cd", "--steps", "21", "--n-list", "2,3"]
    code, csv_text, _ = run(capsys, *argv)
    assert code == 0
    code, json_text, _ = run(capsys, *argv, "--json")
    assert code == 0
    header, *csv_rows = [line.split(",") for line in csv_text.splitlines()]
    json_rows = strict_json_loads(json_text)["rows"]
    assert header[5:8] == ["negativity", "concurrence", "s12"]
    grid = [0.5 * k / 20 for k in range(21)]  # the CLI's grid for --c-abs-max 0.5, --steps 21
    unit = cmath.exp(1j * 0.0)  # the CLI's phase factor for a phase of 0
    points = [(n, c, d) for n in (2, 3) for c in grid for d in grid]
    assert len(csv_rows) == len(json_rows) == len(points)
    checked = {"negativity": 0, "concurrence": 0, "s12": 0}
    for (n, c, d), csv_row, json_row in zip(points, csv_rows, json_rows):
        assert json_row[:3] == [c, d, n] and csv_row[:2] == [format(c, ".15g"), format(d, ".15g")]
        if not json_row[3]:  # an invalid image has no measures
            continue
        image = apply_power_channel(XParams(0.33, 0.17, c * unit, d * unit), n).params
        moduli = image.a, image.b, abs(image.c), abs(image.d)
        spec = spectrum_exact(*moduli)
        exact = {"negativity": negativity_exact(*moduli), "concurrence": concurrence_exact(*moduli)}
        bound = {name: Fraction(math.ulp(float(value))) / 2 for name, value in exact.items()}
        if all(0 < w <= Fraction(1, 2) for w in spec):
            exact["s12"] = Fraction(entropy_exact(spec))
            bound["s12"] = 6 * Fraction(2) ** -53 * exact["s12"]
        for k, name in enumerate(["negativity", "concurrence", "s12"], start=5):
            if name in exact:
                checked[name] += 1
                assert abs(Fraction(json_row[k]) - exact[name]) <= bound[name], (json_row, name)
                printing = _half_unit_in_15th_digit(csv_row[k])
                assert abs(Fraction(csv_row[k]) - exact[name]) <= bound[name] + printing, (
                    csv_row, name)
    assert checked == {"negativity": 539, "concurrence": 539, "s12": 110}


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The cyclic collector switched on or off for one test, and its state put back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """main pauses the cyclic collector while a command runs, then restores its state."""

    CASES = {
        "exit_0": (["sweep-cd", "--steps", "3"], 0),
        # The handler's usage error: the grid end is checked there, not in main.
        "exit_1": (["sweep-cd", "--steps", "3", "--c-abs-max", "-1"], 1),
        "exit_2": (
            ["analyze", "--a", "0.33", "--b", "0.17", "--c-abs", "0.2", "--d-abs", "0.1"], 2),
    }

    @staticmethod
    def _spy(monkeypatch, name: str) -> list[bool]:
        seen = []
        handler = getattr(cli, name)

        def spy(args, options):
            seen.append(gc.isenabled())
            return handler(args, options)

        monkeypatch.setattr(cli, name, spy)
        return seen

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_paused_in_the_handler_and_restored(self, case, collector, capsys, monkeypatch):
        argv, code = self.CASES[case]
        seen = self._spy(monkeypatch, "cmd_" + argv[0].replace("-", "_"))
        assert run(capsys, *argv)[0] == code
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_restored_when_the_handler_raises(self, collector, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("spot check failed")

        monkeypatch.setattr(cli, "_spot_check", broken)
        seen = self._spy(monkeypatch, "cmd_sweep_cd")
        with pytest.raises(RuntimeError, match="spot check failed"):
            main(["sweep-cd", "--steps", "3"])
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_a_sweep_leaves_no_cycles(self, capsys):
        # What makes the pause safe: the only cycles a run leaves are argparse's,
        # and their number does not grow with the sweep.
        def cyclic_objects_after(steps: int) -> int:
            was = gc.isenabled()
            gc.disable()
            try:
                gc.collect()
                assert main(["sweep-cd", "--steps", str(steps)]) == 0
                return gc.collect()
            finally:
                if was:
                    gc.enable()

        small = cyclic_objects_after(5)
        assert 0 < small == cyclic_objects_after(41)


class TestTopLevel:
    def test_no_command_exits_one(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("command", [None, "analyze", "sweep-cd", "sweep-werner", "tomogram"])
    def test_help_lists_every_option_and_default(self, command, capsys):
        # argparse fills in %(default)s only when it prints the help.
        parser, commands = cli._build_parser()
        parser = parser if command is None else commands[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        entries, flag = {}, None  # one help entry per option, its wrapped lines joined
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  -"):
                flag = line.split()[0].rstrip(",")
                entries[flag] = line
            elif line.startswith("   ") and flag:
                entries[flag] += line
            else:
                flag = None
        options = [a for a in parser._actions if a.option_strings]
        assert sorted(entries) == sorted(a.option_strings[0] for a in options)
        for action in options:
            entry = " ".join(entries[action.option_strings[0]].split())
            assert set(action.option_strings) <= set(entry.replace(",", " ").split())
            if action.nargs != 0 and action.default is not None:
                assert entry.endswith(f"(default {action.default})"), entry


HOSTILE = {
    "nan_flag": (["analyze", "--a", "nan", "--b", "0.25", "--c-abs", "0", "--d-abs", "0"], None),
    "negative_d_abs": (
        ["analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "0", "--d-abs", "-0.1"], None
    ),
    "empty_n_list": (["sweep-cd", "--n-list", ","], None),
    "inf_grid_end": (["sweep-cd", "--c-abs-max", "inf"], None),
    "nan_weight": (["sweep-werner", "--p-min", "nan"], None),
    "inf_weight": (["sweep-werner", "--p-max", "inf"], None),
    "inf_from_config": (["sweep-cd", "--steps", "2"], "a = -inf\n"),
    "nan_angle_from_config": (
        ["tomogram", "--a", "0.25", "--b", "0.25", "--c-abs", "0", "--d-abs", "0",
         "--theta-a", "1", "--theta-b", "1"],
        "psi_b = nan\n",
    ),
    "output_in_missing_dir": (["sweep-cd", "--steps", "2", "--output", "{tmp}/no/x.csv"], None),
    "output_is_directory": (["sweep-werner", "--steps", "2", "--output", "{tmp}"], None),
    "overflowing_weight_span": (["sweep-werner", "--p-min=-1e308", "--p-max=1e308"], None),
    # x**n overflows or Tr rho^n underflows to zero inside the power map.
    "overflowing_weight": (
        ["sweep-werner", "--steps", "3", "--p-min=1e200", "--p-max=1e200"], None
    ),
    "overflowing_cd_power": (
        ["sweep-cd", "--a", "5", "--b", "-4.5", "--n-list", "1000", "--steps", "2"], None
    ),
    "overflowing_werner_power": (
        ["sweep-werner", "--p-min", "-5", "--n-list", "800", "--steps", "2"], None
    ),
    "overflowing_cd_power_of_huge_diagonals": (
        ["sweep-cd", "--steps", "2", "--a", "1e300", "--b", "1e300", "--n-list", "3"], None
    ),
    "overflowing_werner_power_of_huge_weights": (
        ["sweep-werner", "--steps", "2", "--p-min=-1e300", "--p-max=1e300", "--n-list", "2"], None
    ),
    # A power beyond the float range: the power map refuses it before the thresholds are made.
    "overflowing_werner_power_beyond_floats": (
        ["sweep-werner", "--steps", "2", "--num-dirs", "1", "--n-list", str(10**400)], None
    ),
    # Each psi is finite, but psi_a - psi_b overflows.
    "overflowing_psi_difference": (
        ["tomogram", "--a", "0.3", "--b", "0.2", "--c-abs", "0.1", "--d-abs", "0.1",
         "--theta-a", "1", "--theta-b", "1", "--psi-a", "1e308", "--psi-b", "-1e308"],
        None,
    ),
    "underflowing_trace": (
        ["analyze", "--a", "0.25", "--b", "0.25", "--c-abs", "0", "--d-abs", "0", "--n", "1000"],
        None,
    ),
    # main refuses a negative seed itself: error: --seed must be >= 0, got -1.
    "negative_cd_seed": (["sweep-cd", "--seed", "-1", "--steps", "2"], None),
    "negative_werner_seed": (["sweep-werner", "--seed", "-1", "--steps", "2"], None),
    "undecodable_config": (["analyze"], b"a = 0.3\xff\n"),
    # Each power is finite but a sum of two overflows, so the image is inf / inf.
    "overflowing_cd_diagonal_sum": (
        ["sweep-cd", "--a", "1e154", "--b=-1e154", "--n-list", "2", "--steps", "2",
         "--c-abs-max", "0", "--d-abs-max", "0"],
        None,
    ),
    # 10^10 steps^2 times 4 powers: refused before any grid is built.
    "too_many_cd_rows": (["sweep-cd", "--steps", "100000"], None),
    # 401 steps times 6 powers times 10^8 direction pairs: refused before any is drawn.
    "too_many_werner_cells": (["sweep-werner", "--num-dirs", "100000000"], None),
    # 10^7 I_s values, at the limit, but the 5 * 10^6 direction pairs count too.
    "too_many_werner_pairs": (
        ["sweep-werner", "--steps", "2", "--n-list", "1", "--num-dirs", "5000000"], None
    ),
    "overflowing_cd_coherence_sum": (
        ["sweep-cd", "--a", "0.3", "--b", "0.2", "--n-list", "1", "--steps", "2",
         "--c-abs-max", "1e308", "--d-abs-max", "1e308"],
        None,
    ),
    # end * k overflows in end * k / (steps - 1), though the grid value would be finite.
    "overflowing_cd_grid": (["sweep-cd", "--c-abs-max", "1e308", "--steps", "3", "--n-list", "2"],
                            None),
    "overflowing_werner_grid": (
        ["sweep-werner", "--p-min", "-1e308", "--p-max", "0", "--steps", "3", "--n-list", "1"],
        None,
    ),
    # The span grid is finite, but --p-min plus its last value rounds up to inf.
    "overflowing_werner_grid_start": (
        ["sweep-werner", "--p-min", "1.1e307", "--p-max", "1.7976931348623157e308",
         "--steps", "2"],
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_exits_one_with_one_line(name, capsys, tmp_path):
    argv, config = HOSTILE[name]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if config is not None:
        (tmp_path / "cfg").write_bytes(config if isinstance(config, bytes) else config.encode())
        argv += ["--config", str(tmp_path / "cfg")]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# The state and the power that the message of each overflowing x**n names.
POWER_OVERFLOWS = {
    "overflowing_cd_power": "XParams(a=5.0, b=-4.5, c=0j, d=0j) to the power 1000",
    "overflowing_werner_power": "XParams(a=-1.0, b=1.5, c=0j, d=(-2.5+0j)) to the power 800",
    "overflowing_cd_power_of_huge_diagonals":
        "XParams(a=1e+300, b=1e+300, c=0j, d=0j) to the power 3",
    "overflowing_werner_power_of_huge_weights":
        "XParams(a=-2.5e+299, b=2.5e+299, c=0j, d=(-5e+299+0j)) to the power 2",
    "overflowing_werner_power_beyond_floats":
        f"XParams(a=0.25, b=0.25, c=0j, d=0j) to the power {10**400}",
}


@pytest.mark.parametrize("name", sorted(k for k in HOSTILE if "_power" in k))
def test_overflowing_power_names_the_state_and_the_power(name, capsys):
    code, out, err = run(capsys, *HOSTILE[name][0])
    assert (code, out) == (1, "")
    assert err == f"error: OverflowError: an eigenvalue of {POWER_OVERFLOWS[name]} is not finite\n"
    assert "(34," not in err


def test_workers_report_the_first_failing_power_in_list_order(capsys, monkeypatch):
    argv = ["sweep-cd", "--a", "1e300", "--b", "1e300", "--steps", "3", "--n-list", "2,3"]
    serial = run(capsys, *argv)
    assert serial[:2] == (1, "") and "to the power 2 is not finite" in serial[2]
    started = force_pools(monkeypatch)
    evaluate = cli._evaluate

    def late_at_2(n, states, measure):  # so that power 3 fails first in time
        if n == 2:
            time.sleep(0.2)
        return evaluate(n, states, measure)

    monkeypatch.setattr(cli, "_evaluate", late_at_2)
    assert run(capsys, *argv) == serial
    assert len(started) == 1


# On three CPUs the parent makes k = 0 and 3 of six powers, its first worker k = 1 and 4,
# and its second k = 2 and 5; the results are read back in --n-list order.
@pytest.mark.parametrize("argv", [["sweep-cd", "--steps", "5"],
                                  ["sweep-werner", "--steps", "5", "--num-dirs", "2"]],
                         ids=["cd", "werner"])
def test_three_cpus_share_six_powers_with_two_workers(argv, capsys, monkeypatch):
    argv = [*argv, "--n-list", "1,2,3,4,5,6"]
    csv_text, json_text = serial_text(argv), serial_text([*argv, "--json"])
    started = force_pools(monkeypatch, cpus=3)
    assert run(capsys, *argv) == (0, csv_text, "")
    assert run(capsys, *argv, "--json") == (0, json_text, "")
    assert len(started) == 4  # two runs of two workers
    assert_reaped(started)


def test_a_later_worker_failing_first_in_time_does_not_win(capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "3", "--n-list", "2,3,4,5,6,7"]
    evaluate = cli._evaluate

    def fails_at_4_and_6(n, states, measure):
        if n == 4:  # k = 2, the second worker's first block: late
            time.sleep(0.3)
        if n in (4, 6):  # k = 4 is the first worker's second block
            raise OverflowError(f"x**n at the power {n}")
        return evaluate(n, states, measure)

    monkeypatch.setattr(cli, "_evaluate", fails_at_4_and_6)
    first = (1, "", "error: OverflowError: x**n at the power 4\n")
    force_pools(monkeypatch, cpus=1)  # the columnar path, in one process
    assert run(capsys, *argv) == first
    started = force_pools(monkeypatch, cpus=3)
    assert run(capsys, *argv) == first
    assert len(started) == 2
    assert_reaped(started)


# Each power's 25 points in chunks of 10, 10 and 5 rows: the parent makes blocks 0, 2 and 4,
# power 2's last chunk among them, and its worker blocks 1, 3 and 5, power 3's first chunk
# among them.  Power 2's chunk fails last in time, but first in the sweep's row order.
def test_a_later_chunk_failing_last_in_time_still_wins(capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "5", "--n-list", "2,3"]
    evaluate = cli._evaluate

    def fails_at_two_chunks(n, states, measure):
        if n == 2 and len(states) == 5:  # power 2's last chunk: late
            time.sleep(0.3)
            raise OverflowError("x**n at the power 2")
        if n == 3 and states[0].c == 0:  # power 3's first chunk, from |c| = 0
            raise ZeroDenominatorError("Tr rho^3 vanished")
        return evaluate(n, states, measure)

    monkeypatch.setattr(cli, "_evaluate", fails_at_two_chunks)
    monkeypatch.setattr(cli, "_CHUNK_CELLS", 40)
    first = (1, "", "error: OverflowError: x**n at the power 2\n")
    force_pools(monkeypatch, cpus=1)  # the columnar path, in one process
    assert run(capsys, *argv) == first
    started = force_pools(monkeypatch)
    assert run(capsys, *argv) == first
    assert len(started) == 1
    assert_reaped(started)


def assert_reaped(pids):
    """Each of ``pids`` was waited for: none is a child of this process any more."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# A worker that ends before it has sent its block of power 3: by its own exit, by a signal,
# or part-way through writing the block, which is larger than a pipe's buffer.  The parent
# makes that block itself, so the run writes what one process writes.
@pytest.mark.parametrize("death", ["exit", "sigkill", "mid_result"])
def test_a_worker_that_dies_costs_time_not_the_run(death, capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "41", "--n-list", "2,3"]
    serial = serial_text(argv)
    started, parent = force_pools(monkeypatch), os.getpid()
    if death == "mid_result":
        dump = pickle.dump

        def half_then_exit(obj, file, *args):
            if os.getpid() == parent:
                return dump(obj, file, *args)
            data = pickle.dumps(obj, *args)
            file.write(data[:len(data) // 2])
            file.flush()
            os._exit(70)

        monkeypatch.setattr(pickle, "dump", half_then_exit)
    else:
        evaluate = cli._evaluate

        def dying(n, states, measure):
            if n == 3 and os.getpid() != parent:
                if death == "exit":
                    os._exit(70)
                os.kill(os.getpid(), signal.SIGKILL)
            return evaluate(n, states, measure)

        monkeypatch.setattr(cli, "_evaluate", dying)
    assert run(capsys, *argv) == (0, serial, "")
    assert len(started) == 1
    assert_reaped(started)


# Each error the block path raises crosses the pipe as itself: the same exit code and
# line as in one process, or the same exception where main does not catch it.
@pytest.mark.parametrize("error", ["overflow", "zero_denominator", "csv_type_error",
                                   "unpicklable"])
def test_block_errors_cross_the_pipe_unchanged(error, capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "3", "--n-list", "2,3"]

    class Local(Exception):  # pickle finds no class by this name
        pass

    if error == "overflow":  # power 1 is finite, so power 2 fails, in the worker
        argv = ["sweep-cd", "--steps", "3", "--n-list", "1,2", "--a", "1e300", "--b", "1e300"]
    elif error in ("zero_denominator", "unpicklable"):
        evaluate = cli._evaluate

        def vanishes_at_3(n, states, measure):
            if n == 3:
                raise (ZeroDenominatorError if error == "zero_denominator" else Local)(
                    "Tr rho^3 vanished")
            return evaluate(n, states, measure)

        monkeypatch.setattr(cli, "_evaluate", vanishes_at_3)
    else:
        spread = cli._spread

        def shifted_at_3(verdicts, values):
            # Only power 3's block has invalid rows.  Shifted, a valid row there gets no
            # measures, which its template refuses before the spot check reads the row.
            column = spread(verdicts, values)
            return column[-1:] + column[:-1] if max(verdicts) > 1 else column

        monkeypatch.setattr(cli, "_spread", shifted_at_3)

    def outcome():
        try:
            return run(capsys, *argv)
        except (TypeError, Local) as exc:  # and what it was raised while handling
            return repr(exc), repr(exc.__context__), capsys.readouterr()

    force_pools(monkeypatch, cpus=1)  # the columnar path, in one process
    serial = outcome()
    started = force_pools(monkeypatch)
    assert outcome() == serial and len(started) == 1
    if error == "csv_type_error":
        assert serial[0].startswith("TypeError(") and serial[1:] == ("None", ("", ""))
    elif error == "unpicklable":
        assert serial == ("Local('Tr rho^3 vanished')", "None", ("", ""))
    elif error == "overflow":
        assert serial[:2] == (1, "") and serial[2].startswith("error: OverflowError: ")
    else:
        assert serial == (1, "", "error: ZeroDenominatorError: Tr rho^3 vanished\n")
    assert_reaped(started)


# A fresh interpreter with a worker forced: stdout is a pipe, so "x" sits in its buffer when
# the worker is forked; a worker that flushed it would print it again.
FORCED_WORKERS = """
import os, sys
from xstates import cli

forks, fork = [], os.fork

def recorded():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = recorded
os.sched_getaffinity = lambda pid: {0, 1}
cli._POOL_CELLS = 0
sys.stdout.write("x")
assert cli.main(sys.argv[1:]) == 0
assert len(forks) == 1, forks
print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules),
      file=sys.stderr)
"""


def test_workers_flush_nothing_and_load_no_multiprocessing(tmp_path):
    out = tmp_path / "out.csv"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(xstates.__file__).resolve().parents[1])
    argv = ["sweep-cd", "--steps", "5", "--n-list", "2,3", "--output", str(out)]
    proc = subprocess.run([sys.executable, "-c", FORCED_WORKERS, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x", "[]\n")
    assert out.read_text() == serial_text(argv[:-2])


# A fresh interpreter on three CPUs, killed from inside its own first block once both of its
# workers have begun theirs.  A worker holds none of the parent's pipe ends, its sibling's
# included, so its first result finds no reader: it ends there, having begun one block.
ORPHANED_WORKERS = """
import os, signal, sys, time
from xstates import cli

os.sched_getaffinity = lambda pid: {0, 1, 2}
cli._POOL_CELLS = 0
evaluate, begun, parent = cli._evaluate, sys.argv[1], os.getpid()

def slow(n, states, measure):
    while os.getpid() == parent:
        if len(open(begun).read().split()) == 2:
            os.kill(parent, signal.SIGKILL)
        time.sleep(0.01)
    with open(begun, "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(0.5)
    return evaluate(n, states, measure)

cli._evaluate = slow
cli.main(["sweep-cd", "--steps", "3", "--n-list", "2,3,4,5,6,7,8,9,10"])
"""


def running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # a zombie has ended, whether or not its new parent has reaped it
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_end_when_their_parent_dies(tmp_path):
    begun = tmp_path / "begun"
    begun.touch()
    env = dict(os.environ, PYTHONPATH=str(Path(xstates.__file__).resolve().parents[1]))
    # Not through pipes: a worker left running would hold them open.
    with open(tmp_path / "err", "w") as err:
        proc = subprocess.run([sys.executable, "-c", ORPHANED_WORKERS, str(begun)],
                              stdout=subprocess.DEVNULL, stderr=err, env=env, timeout=120)
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "err").read_text()
    workers = [int(pid) for pid in begun.read_text().split()]
    assert len(set(workers)) == 2
    deadline = time.monotonic() + 20
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, workers))
    assert sorted(map(int, begun.read_text().split())) == sorted(workers)  # one block each


def serial_text(argv):
    """The text that ``main(argv)`` writes to stdout, in one process."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


# On three CPUs, the pool's first pipe, its first fork or its second fork fails.
@pytest.mark.parametrize("failing", [0, 1, 2], ids=["no_pool", "first_fork", "second_fork"])
def test_a_failed_fork_makes_the_blocks_in_process(failing, capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "5", "--n-list", "2,3,4"]
    serial = run(capsys, *argv)
    # A child of the caller's own, which the sweep must leave running.
    bystander = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
    bystander.start()
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    started = force_pools(monkeypatch, cpus=3)
    fork, forks = os.fork, []

    def fork_fails_once(*args):
        forks.append(1)
        if len(forks) == failing:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork(*args)

    def no_pipe(*args):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(os, "fork", fork_fails_once)
    if not failing:
        monkeypatch.setattr(os, "pipe", no_pipe)
    try:
        assert run(capsys, *argv) == serial
        assert (len(started), len(forks)) == (max(failing - 1, 0), failing)
        # A worker forked before the failure is stopped and waited for, so no child of the
        # sweep outlives the run, and the pipes made for the pool are closed.
        assert_reaped(started)
        assert fds is None or len(os.listdir("/proc/self/fd")) == fds
        assert bystander.is_alive()
    finally:
        bystander.kill()
        bystander.join()


def test_a_failing_block_stops_the_workers_beginning_others(tmp_path, capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "3", "--n-list", "2,3,4,5,6,7,8,9"]
    evaluate, begun = cli._evaluate, tmp_path / "begun"

    def fails_at_2(n, states, measure):  # each other block takes half a second
        if n == 2:
            raise OverflowError("x**n at the power 2")
        with open(begun, "a") as fh:
            fh.write(f"{n}\n")
        time.sleep(0.5)
        return evaluate(n, states, measure)

    monkeypatch.setattr(cli, "_evaluate", fails_at_2)
    force_pools(monkeypatch, cpus=1)  # the columnar path, in one process
    assert run(capsys, *argv) == (1, "", "error: OverflowError: x**n at the power 2\n")
    assert not begun.exists()  # in one process, the run ends at the failing block
    started = force_pools(monkeypatch)
    assert run(capsys, *argv) == (1, "", "error: OverflowError: x**n at the power 2\n")
    # The parent makes power 2 itself and fails there before it reads a result, then kills
    # its worker: at most the worker's first block was begun.
    assert len(started) == 1 and len(begun.read_text().split() if begun.exists() else []) <= 1
    assert_reaped(started)


def test_a_worker_begins_no_block_after_its_first_failure(tmp_path, capsys, monkeypatch):
    argv = ["sweep-cd", "--steps", "3", "--n-list", "2,3,4,5,6,7"]
    evaluate, begun = cli._evaluate, tmp_path / "begun"

    def fails_at_3(n, states, measure):  # the worker's first block; the parent's takes 0.5 s
        if n == 3:
            raise OverflowError("x**n at the power 3")
        with open(begun, "a") as fh:
            fh.write(f"{n}\n")
        time.sleep(0.5)
        return evaluate(n, states, measure)

    monkeypatch.setattr(cli, "_evaluate", fails_at_3)
    started = force_pools(monkeypatch)
    assert run(capsys, *argv) == (1, "", "error: OverflowError: x**n at the power 3\n")
    assert len(started) == 1 and begun.read_text().split() == ["2"]
    assert_reaped(started)


# By measure cells (rows times measures per row): the bench's werner-dirs workload (251
# weights, 6 powers, 65 measures: 97,890 cells), cd-grid (40,804 rows of 4 measures:
# 163,216) and one power of its grid (40,804 cells, in five chunks) use workers; the
# SmallGrid of the bench's tests (21 x 21 points, 4 powers: 7,056 cells) stays in-process,
# as does a sweep-werner one weight short of the threshold.
WERNER_BELOW = (cli._POOL_CELLS - 1) // (6 * 65)


@pytest.mark.parametrize("argv, forks", [
    (["sweep-werner", "--steps", "251", "--num-dirs", "64", "--json"], 1),
    (["sweep-cd", "--steps", "21"], 0),
    (["sweep-werner", "--steps", str(WERNER_BELOW), "--num-dirs", "64"], 0),
    (["sweep-werner", "--steps", str(WERNER_BELOW + 1), "--num-dirs", "64"], 1),
    (["sweep-cd", "--steps", "101"], 1),
    (["sweep-cd", "--steps", "101", "--n-list", "3"], 1),
], ids=["werner_dirs", "small_grid", "werner_below", "werner_at", "cd_grid", "cd_one_power"])
def test_only_large_sweeps_start_workers(argv, forks, tmp_path, capsys, monkeypatch):
    started = force_pools(monkeypatch, from_cells=None)
    assert run(capsys, *argv, "--output", str(tmp_path / "out")) == (0, "", "")
    assert len(started) == forks
    assert_reaped(started)


def test_one_cpu_or_a_second_thread_keeps_a_sweep_in_process(capsys, monkeypatch):
    started = force_pools(monkeypatch)
    argv = ["sweep-cd", "--steps", "5", "--n-list", "2,3"]
    pooled = run(capsys, *argv)
    assert len(started) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # as under taskset -c 0
    assert run(capsys, *argv) == pooled
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run(capsys, *argv) == pooled
    finally:
        stop.set()
        thread.join()
    assert len(started) == 1


# The floats of the CLI contract's property test: the edges of the float range and
# of the domain, and ordinary values.
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1.7976931348623157e308,
    -1.7976931348623157e308, math.nan, math.inf, -math.inf,
])
CONTRACT_FLOATS = EDGE_FLOATS | st.floats(-2.0, 2.0)
# Each command's float options: first those without a default, always set, then the rest.
CONTRACT_OPTIONS = {
    "analyze": (["a", "b", "c-abs", "d-abs"], ["c-phase", "d-phase"]),
    "tomogram": (["a", "b", "c-abs", "d-abs", "theta-a", "theta-b"],
                 ["c-phase", "d-phase", "phi-a", "phi-b", "psi-a", "psi-b"]),
    "sweep-cd": ([], ["a", "b", "c-phase", "d-phase", "c-abs-max", "d-abs-max"]),
    "sweep-werner": ([], ["p-min", "p-max"]),
}
DEFAULT_POWERS = {"sweep-cd": 4, "sweep-werner": 6}


@st.composite
def contract_argv(draw) -> tuple[str, list[str], int]:
    """A command line over any command with tiny grids, and the row count of its grid."""
    command = draw(st.sampled_from(sorted(CONTRACT_OPTIONS)))
    required, optional = CONTRACT_OPTIONS[command]
    values = {name: draw(CONTRACT_FLOATS) for name in required}
    values.update((name, draw(CONTRACT_FLOATS)) for name in optional if draw(st.booleans()))
    if "b" in values and draw(st.booleans()):  # a valid state, so that some commands succeed
        a = values["a"] = draw(st.floats(0.0, 0.5))
        values["b"] = 0.5 - a
        if "c-abs" in values:
            values["c-abs"], values["d-abs"] = (x * draw(st.floats(0.0, 1.0)) for x in (0.5 - a, a))
    if command == "tomogram" and draw(st.booleans()):
        values["theta-a"], values["theta-b"] = (draw(st.floats(0.0, math.pi)) for _ in "ab")
    argv = [command, *(f"--{name}={value!r}" for name, value in values.items())]
    power = st.integers(-1, 8) | st.sampled_from([600, 2000])
    if command.startswith("sweep"):
        steps = draw(st.integers(1, 3))
        argv += ["--steps", str(steps)]
        rows, powers = steps ** (2 if command == "sweep-cd" else 1), DEFAULT_POWERS[command]
        if draw(st.booleans()):
            n_list = draw(st.lists(power, min_size=1, max_size=3))
            argv.append("--n-list=" + ",".join(map(str, n_list)))
            powers = len(n_list)
        if command == "sweep-werner":
            argv += ["--num-dirs", str(draw(st.integers(0, 2)))]
        return command, argv, rows * powers
    if draw(st.booleans()):
        argv.append(f"--n={draw(power)}")
    if draw(st.booleans()):
        argv.append("--json")
    return command, argv, 0


def _run_quiet(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=800, deadline=None)
@given(contract_argv())
@example(("sweep-cd", ["sweep-cd", "--c-abs-max=-0.0", "--d-abs-max=-0.0", "--steps", "2"], 16))
@example(("sweep-werner", ["sweep-werner", "--p-min=-0.0", "--p-max=0.0", "--steps", "2",
                           "--num-dirs", "1"], 12))
def test_cli_contract_holds_over_edge_floats(case):
    command, argv, rows = case
    code, out, err = _run_quiet(argv)
    assert code in (0, 1, 2)
    if code == 1 or (code == 2 and command == "tomogram"):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    assert err == ""
    if command in ("analyze", "tomogram"):
        report = strict_json_loads(out) if "--json" in argv else parse_report(out)
        # Only an invalid state's overflowing spectrum may print inf, in the text form.
        assert not any(re.search(r"\b(nan|inf)\b", str(value))
                       for key, value in report.items() if key != "spectrum")
        if command == "analyze":
            # exit 2 is the report of an invalid state, which has no image
            assert (report["validity"] == "valid") == (code == 0)
        if command == "analyze" and code == 0:
            image = report["image"]
            magnitudes = (image["c_abs"], image["d_abs"]) if "--json" in argv else re.findall(
                r"\b[cd]_abs=(\S+)", image)
            assert [math.copysign(1.0, float(x)) for x in magnitudes] == [1.0, 1.0]
        return
    code, json_text, err = _run_quiet([*argv, "--json"])
    assert (code, err) == (0, "")
    lines = _assert_csv_matches_json(out, json_text)
    assert len(lines) == rows
    cells = [line.split(",") for line in lines]
    grid_width = 2 if command == "sweep-cd" else 1
    assert not any(cell == "-0" for row in cells for cell in row[:grid_width])
    assert not any(cell in ("nan", "inf", "-inf") for row in cells for cell in row)


# Settings under which each command succeeds, and faults that each give one
# message.  None leaves an option unset.
GOOD_SETTINGS = {
    "analyze": {"a": "0.3", "b": "0.2", "c_abs": "0.1", "d_abs": "0.1"},
    "tomogram": {"a": "0.3", "b": "0.2", "c_abs": "0.1", "d_abs": "0.1", "theta_a": "1",
                 "theta_b": "1"},
    "sweep-cd": {"steps": "3", "n_list": "2"},
    "sweep-werner": {"steps": "3", "n_list": "1", "num_dirs": "1"},
}
# Faults of one option, by its dest: main checks these one option at a time.
OWN_FAULTS = {
    "a": ({"a": None}, "missing required option --a (flag or config)"),
    "c_abs": ({"c_abs": "-0.1"}, "--c-abs must be >= 0, got -0.1"),
    "c_phase": ({"c_phase": "nan"}, "--c-phase must be finite, got nan"),
    "d_abs": ({"d_abs": "-0.1"}, "--d-abs must be >= 0, got -0.1"),
    "n": ({"n": "0"}, "--n must be >= 1, got 0"),
    "theta_b": ({"theta_b": None}, "missing required option --theta-b (flag or config)"),
    "steps": ({"steps": "1"}, "--steps must be >= 2, got 1"),
    "seed": ({"seed": "-1"}, "--seed must be >= 0, got -1"),
    "num_dirs": ({"num_dirs": "0"}, "--num-dirs must be >= 1, got 0"),
}
# Faults that a handler finds, after every option's own checks have passed.
HANDLER_FAULTS = {
    "theta_a_range": ({"theta_a": "4"}, "--theta-a must lie in [0, pi], got 4.0"),
    "p_range": ({"p_min": "1", "p_max": "0"}, "--p-max 0.0 is below --p-min 1.0"),
}
FAULTS_OF = {
    "analyze": ["a", "c_abs", "c_phase", "d_abs", "n"],
    "tomogram": ["a", "c_abs", "c_phase", "d_abs", "n", "theta_a_range", "theta_b"],
    "sweep-cd": ["steps", "seed"],
    "sweep-werner": ["p_range", "steps", "num_dirs", "seed"],
}


def _argv(command: str, *faults: str) -> list[str]:
    settings = dict(GOOD_SETTINGS[command])
    for fault in faults:
        settings.update({**OWN_FAULTS, **HANDLER_FAULTS}[fault][0])
    argv = [command]
    for key, value in settings.items():
        if value is not None:
            argv += ["--" + key.replace("_", "-"), value]
    return argv


@pytest.mark.parametrize(
    "command, first, second",
    [(command, *pair) for command, faults in FAULTS_OF.items()
     for pair in combinations(faults, 2)],
)
def test_two_faults_report_the_first_option_in_parser_order(command, first, second, capsys):
    dests = [a.dest for a in cli._build_parser()[1][command]._actions]
    faults = {**OWN_FAULTS, **HANDLER_FAULTS}
    for fault in (first, second):
        assert run(capsys, *_argv(command, fault)) == (1, "", f"error: {faults[fault][1]}\n")
    # Each option's own checks in parser order, then the handler's.
    shown = min(first, second, key=lambda f: dests.index(f) if f in OWN_FAULTS else len(dests))
    assert run(capsys, *_argv(command, first, second)) == (1, "", f"error: {faults[shown][1]}\n")


def test_option_rules_come_from_the_parser():
    _, commands = cli._build_parser()
    actions = [a for sub in commands.values() for a in sub._actions]
    assert set(cli._AT_LEAST) <= {a.dest for a in actions}
    required = {a.dest for a in actions if a.type is float and a.default is None}
    assert required == {"a", "b", "c_abs", "d_abs", "theta_a", "theta_b"}


# What computes a whole power block at once, beside each sweep's per-row function.
BLOCK_WORK = {
    "sweep-cd": ("_evaluate", "_x_entanglement", "_x_entropies"),
    "sweep-werner": ("_evaluate", "_x_information", "_x_entropies"),
}


# Both sweeps make their rows through _cd_row.
@pytest.mark.parametrize("command, row", [("sweep-cd", "_cd_row"), ("sweep-werner", "_cd_row")])
@pytest.mark.parametrize("via_config", [False, True])
def test_negative_seed_rejected_before_any_row(command, row, via_config, capsys, tmp_path,
                                                monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was computed")

    for name in (row, *BLOCK_WORK[command]):
        monkeypatch.setattr(f"xstates.cli.{name}", no_row)
    argv = [command, "--steps", "2"]
    if via_config:
        (tmp_path / "cfg").write_text("seed = -1\n")
        argv += ["--config", str(tmp_path / "cfg")]
    else:
        argv += ["--seed", "-1"]
    assert run(capsys, *argv) == (1, "", "error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("name", ["overflowing_cd_grid", "overflowing_werner_grid"])
def test_overflowing_grid_rejected_before_any_row(name, capsys, monkeypatch):
    argv = HOSTILE[name][0]
    def no_row(*args):
        raise AssertionError("a row was computed")

    for fn in ("_cd_row", *BLOCK_WORK[argv[0]], "XParams", "werner"):
        monkeypatch.setattr(f"xstates.cli.{fn}", no_row)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: --\S.* over --steps 3 overflows a grid value .*\n", err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--a", "0.375", "--b", "0.125", "--c-abs", "0", "--d-abs", "0.25"],
        # Larger than stdout's buffer, so the write itself fails, not only the flush.
        ["sweep-werner", "--steps", "401"],
    ],
    ids=["short", "long"],
)
def test_full_stdout_exits_one_with_one_line(argv):
    src = Path(xstates.__file__).resolve().parents[1]
    # A buffered stdout, so the text can still sit in the buffer when Python exits.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "xstates", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write <stdout>: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv", [
    ["analyze", "--a", "0.375", "--b", "0.125", "--c-abs", "0", "--d-abs", "0.25"],
    ["sweep-cd", "--steps", "2", "--n-list", "2"],
], ids=["analyze", "sweep"])
def test_empty_output_path_fails_without_naming_stdout(argv, via_config, capsys, tmp_path):
    # An empty path, as "--output ''" or as "output =" in a config file, names no file;
    # stdout was never the target, so the error must not name it.
    if via_config:
        (tmp_path / "cfg").write_text("output =\n")
        argv = [*argv, "--config", str(tmp_path / "cfg")]
    else:
        argv = [*argv, "--output", ""]
    code, out, err = run(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: cannot write ") and "<stdout>" not in err


@pytest.mark.parametrize("argv", [
    ["sweep-cd", "--steps", "3", "--n-list", "2,3", "--seed", "4"],
    ["sweep-werner", "--steps", "4", "--n-list", "1,2", "--num-dirs", "2"],
], ids=["cd", "werner"])
def test_json_flag_beats_format_csv(argv, capsys, tmp_path):
    # --json picks JSON whatever the format option says, as a flag or from a config file.
    code, want, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "") and strict_json_loads(want)["rows"]
    (tmp_path / "cfg").write_text("format = csv\n")
    for extra in (["--format", "csv"], ["--config", str(tmp_path / "cfg")]):
        assert run(capsys, *argv, *extra, "--json") == (0, want, "")


# Config keys accepted by each subcommand, as listed before they were derived
# from the parser, with a value for each.
CONFIG_VALUES = {
    "analyze": {
        "a": "0.3", "b": "0.2", "c_abs": "0.1", "c_phase": "0.4", "d_abs": "0.15",
        "d_phase": "1.2", "n": "3", "output": "{out}",
    },
    "tomogram": {
        "a": "0.3", "b": "0.2", "c_abs": "0.1", "c_phase": "0.4", "d_abs": "0.15",
        "d_phase": "1.2", "n": "2", "theta_a": "0.9", "phi_a": "0.5", "psi_a": "0.3",
        "theta_b": "2.0", "phi_b": "0.1", "psi_b": "1.1", "output": "{out}",
    },
    "sweep-cd": {
        "a": "0.3", "b": "0.2", "c_phase": "0.7", "d_phase": "1.9", "c_abs_max": "0.3",
        "d_abs_max": "0.25", "steps": "3", "n_list": "2,4", "format": "json", "seed": "5",
        "output": "{out}",
    },
    "sweep-werner": {
        "p_min": "0.1", "p_max": "0.9", "steps": "4", "n_list": "1,4", "num_dirs": "2",
        "format": "csv", "seed": "7", "output": "{out}",
    },
}


@pytest.mark.parametrize("command", sorted(CONFIG_VALUES))
def test_config_file_matches_flags(command, capsys, tmp_path):
    values = CONFIG_VALUES[command]
    assert len(values) == {"analyze": 8, "tomogram": 14, "sweep-cd": 11, "sweep-werner": 8}[
        command
    ]
    results = []
    for via_config in (False, True):
        out = tmp_path / f"out{int(via_config)}"
        settings = {key: value.replace("{out}", str(out)) for key, value in values.items()}
        if via_config:
            cfg = tmp_path / "cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
            argv = [command, "--config", str(cfg)]
        else:
            argv = [command]
            for key, value in settings.items():
                argv += ["--" + key.replace("_", "-"), value]
        code, stdout, err = run(capsys, *argv)
        results.append((code, stdout, err, out.read_bytes()))
    assert results[0][0] == 0
    assert results[0] == results[1]


@pytest.mark.parametrize("command", sorted(CONFIG_VALUES))
def test_config_rejects_keys_of_other_commands(command, capsys, tmp_path):
    others = set().union(*CONFIG_VALUES.values()) | {"help", "json", "config", "command"}
    for key in sorted(others - set(CONFIG_VALUES[command])):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 1
        assert f"unknown config key {key!r}" in err


@pytest.mark.parametrize("command", sorted(CONFIG_VALUES))
def test_config_file_with_a_byte_order_mark_reads_as_without(command, capsys, tmp_path):
    out, cfg = tmp_path / "out", tmp_path / "cfg"
    text = "".join(f"{key} = {value.replace('{out}', str(out))}\n"
                   for key, value in CONFIG_VALUES[command].items())
    results = []
    for mark in (b"", b"\xef\xbb\xbf"):
        cfg.write_bytes(mark + text.encode())
        code, stdout, err = run(capsys, command, "--config", str(cfg))
        results.append((code, stdout, err, out.read_bytes()))
    assert results[0][0] == 0
    assert results[0] == results[1]


# Per command: the flags of a small run, then an option's full spelling, a prefix of it that
# is no option of the command, and a value.
PREFIXES = {
    "analyze": (["--a", "0.3", "--b", "0.2", "--c-abs", "0", "--d-abs", "0.1"], "--c-phase",
                "--c-ph", "0.4"),
    "sweep-cd/n": (["--steps", "2"], "--n-list", "--n", "3"),
    "sweep-cd/c-abs": (["--steps", "2"], "--c-abs-max", "--c-abs", "0.1"),
    "sweep-werner": (["--steps", "2"], "--num-dirs", "--num", "2"),
    "tomogram": (["--a", "0.3", "--b", "0.2", "--c-abs", "0", "--d-abs", "0.1", "--theta-a",
                  "1", "--theta-b", "1"], "--d-phase", "--d-ph", "0.4"),
}


@pytest.mark.parametrize("case", sorted(PREFIXES))
def test_option_prefixes_are_refused(case, capsys):
    base, flag, prefix, value = PREFIXES[case]
    command = [case.split("/")[0], *base]
    assert run(capsys, *command, prefix, value) == (
        1, "", f"error: unrecognized arguments: {prefix} {value}\n")
    spelled = run(capsys, *command, flag, value)
    assert spelled[0] == 0
    assert run(capsys, *command, f"{flag}={value}") == spelled
