"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line through ``record_criterion`` and
then asserts, so a plain ``pytest`` run ends with a per-criterion scoreboard.
Oracles here are independent of the closed forms under test: dense
comparisons go through ``numpy.linalg``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import (
    random_channel_image,
    random_separable_params,
    random_valid_params,
    record_criterion,
)
from oracles import werner_i_n
from xstates import (
    StateClass,
    XParams,
    ZeroDenominatorError,
    apply_power_channel,
    classify,
    concurrence,
    direction_pairs,
    negativity,
    ppt,
    shannon_report_from_table,
    spectrum,
    system_entropies,
    to_dense,
    tomogram,
    validate,
    werner,
    werner_entanglement_threshold,
)
from xstates.cli import main as cli_main

LN4 = math.log(4.0)

# frozen before the library existed, from the renormalized power of the
# Werner spectrum evaluated with numpy alone
I_N_HALF_N1 = 0.3127515147113675
I_N_HALF_N2 = 0.9280861231484376


def _entropy_of(weights) -> float:
    total = 0.0
    for w in weights:
        if w > 1e-12:
            total -= w * math.log(w)
    return total


def _indep_mutual_information(p: float, n: int) -> float:
    """Mutual information via numpy matrix powers and eigvalsh only."""
    rho = to_dense(werner(p))
    m = np.linalg.matrix_power(rho, n)
    m = m / np.trace(m).real
    t = m.reshape(2, 2, 2, 2)
    r1 = np.einsum("ikjk->ij", t)
    r2 = np.einsum("kikj->ij", t)
    s12 = _entropy_of(np.linalg.eigvalsh(m))
    s1 = _entropy_of(np.linalg.eigvalsh(r1))
    s2 = _entropy_of(np.linalg.eigvalsh(r2))
    return s1 + s2 - s12


def test_criterion_01_identity_power_is_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = random_valid_params(rng)
        image = apply_power_channel(p, 1).params
        dev = np.max(np.abs(to_dense(image) - to_dense(p)))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(
        1, ok, f"unit power reproduces inputs (max dev {worst:.2e}, {elapsed:.2f} s)"
    )
    assert ok


def test_criterion_02_closed_form_matches_dense_power():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = random_valid_params(rng)
        dense = to_dense(p)
        for n in range(1, 7):
            image = apply_power_channel(p, n).params
            oracle = np.linalg.matrix_power(dense, n)
            oracle = oracle / np.trace(oracle).real
            dev = np.max(np.abs(to_dense(image) - oracle))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    record_criterion(
        2, ok, f"closed-form power map matches dense evaluation (max dev {worst:.2e}, {elapsed:.2f} s)"
    )
    assert ok


def test_criterion_03_werner_separability_boundary():
    boundary = werner(1.0 / 3.0)
    min_ppt = min(spectrum(ppt(boundary)))
    below = classify(werner(1.0 / 3.0 - 1e-9))
    above = classify(werner(1.0 / 3.0 + 1e-9))
    at = classify(boundary)
    ok = (
        abs(min_ppt) <= 1e-12
        and below is StateClass.SEPARABLE
        and at is StateClass.SEPARABLE
        and above is StateClass.ENTANGLED
    )
    record_criterion(
        3, ok, f"mixing weight 1/3 sits on the separability boundary (min ppt eig {min_ppt:.2e})"
    )
    assert ok


def test_criterion_04_bisection_finds_image_thresholds():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        lo, hi = 1e-6, 1.0
        assert classify(apply_power_channel(werner(lo), n).params) is StateClass.SEPARABLE
        assert classify(apply_power_channel(werner(hi), n).params) is StateClass.ENTANGLED
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if classify(apply_power_channel(werner(mid), n).params) is StateClass.ENTANGLED:
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(0.5 * (lo + hi) - werner_entanglement_threshold(n)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    record_criterion(
        4, ok, f"bisection reproduces closed-form thresholds (max dev {worst:.2e}, {elapsed:.2f} s)"
    )
    assert ok


def test_criterion_05_pure_state_information_peak():
    worst = max(abs(werner_i_n(1.0, n) - LN4) for n in range(1, 7))
    ok = worst <= 1e-12
    record_criterion(
        5, ok, f"mutual information peaks at ln 4 for the pure state (max dev {worst:.2e})"
    )
    assert ok


def test_criterion_06_information_monotone_with_spot_values():
    p_grid = [k / 20.0 for k in range(1, 21)]
    worst_drop = 0.0
    for p in p_grid:
        values = [werner_i_n(p, n) for n in range(1, 7)]
        for lo, hi in zip(values, values[1:]):
            worst_drop = max(worst_drop, lo - hi)
    spot_dev = max(
        abs(werner_i_n(0.5, 1) - _indep_mutual_information(0.5, 1)),
        abs(werner_i_n(0.5, 2) - _indep_mutual_information(0.5, 2)),
    )
    frozen_dev = max(
        abs(werner_i_n(0.5, 1) - I_N_HALF_N1),
        abs(werner_i_n(0.5, 2) - I_N_HALF_N2),
    )
    ok = worst_drop <= 1e-12 and spot_dev <= 1e-6 and frozen_dev <= 1e-9
    record_criterion(
        6,
        ok,
        "mutual information grows with the power "
        f"(worst drop {worst_drop:.2e}, spot dev {spot_dev:.2e})",
    )
    assert ok


def test_criterion_07_entropic_inequalities():
    rng = np.random.default_rng(107)
    pairs = direction_pairs(100, seed=107)
    states = [random_valid_params(rng) for _ in range(600)]
    states += [random_channel_image(rng) for _ in range(400)]
    start = time.perf_counter()
    worst_excess = -math.inf
    worst_neg = math.inf
    worst_norm = 0.0
    for p in states:
        i_n = system_entropies(p).i_n
        worst_neg = min(worst_neg, i_n)
        for da, db in pairs:
            table = tomogram(p, da, db)
            worst_norm = max(worst_norm, abs(sum(table) - 1.0))
            i_s = shannon_report_from_table(table).i_s
            worst_excess = max(worst_excess, i_s - i_n)
            worst_neg = min(worst_neg, i_s)
    elapsed = time.perf_counter() - start
    ok = (
        worst_excess <= 1e-10
        and worst_neg >= -1e-10
        and worst_norm <= 1e-12
        and elapsed < 60.0
    )
    record_criterion(
        7,
        ok,
        "tomographic information never exceeds the quantum value "
        f"(max excess {worst_excess:.2e}, min value {worst_neg:.2e}, {elapsed:.1f} s)",
    )
    assert ok


def test_criterion_08_entropy_decreases_along_powers():
    rng = np.random.default_rng(108)
    worst_rise = 0.0
    for _ in range(1000):
        p = random_valid_params(rng)
        entropies = []
        for n in range(1, 7):
            result = apply_power_channel(p, n)
            assert validate(result.params) is None
            entropies.append(system_entropies(result.params).s12)
        for lo, hi in zip(entropies, entropies[1:]):
            worst_rise = max(worst_rise, hi - lo)
    ok = worst_rise <= 1e-12
    record_criterion(
        8, ok, f"joint entropy never grows with the power (worst rise {worst_rise:.2e})"
    )
    assert ok


def test_criterion_09_entanglement_measure_values():
    rng = np.random.default_rng(109)
    devs = [
        abs(negativity(werner(0.5)) - 1.25),
        abs(negativity(werner(1.0)) - 2.0),
        abs(concurrence(werner(0.5)) - 0.25),
        abs(concurrence(werner(1.0)) - 1.0),
    ]
    for _ in range(200):
        s = random_separable_params(rng)
        devs.append(abs(negativity(s) - 1.0))
        devs.append(abs(concurrence(s)))
    worst = max(devs)
    ok = worst <= 1e-12
    record_criterion(
        9, ok, f"negativity and concurrence hit their reference values (max dev {worst:.2e})"
    )
    assert ok


def test_criterion_10_measures_agree_with_classifier_on_grid():
    steps = 201
    grid = [0.5 * k / (steps - 1) for k in range(steps)]
    start = time.perf_counter()
    mismatches = 0
    invalid_counts = {}
    for n in (2, 3, 4, 5):
        invalid = 0
        for c_abs in grid:
            for d_abs in grid:
                p = XParams(a=0.33, b=0.17, c=c_abs, d=d_abs)
                try:
                    result = apply_power_channel(p, n)
                except ZeroDenominatorError:
                    invalid += 1
                    continue
                if validate(result.params) is not None:
                    invalid += 1
                    continue
                img = result.params
                flags = (
                    classify(img) is StateClass.ENTANGLED,
                    negativity(img) > 1.0 + 1e-12,
                    concurrence(img) > 1e-12,
                )
                if len(set(flags)) != 1:
                    mismatches += 1
        invalid_counts[n] = invalid
    elapsed = time.perf_counter() - start
    ok = (
        mismatches == 0
        and invalid_counts[2] == 0
        and invalid_counts[4] == 0
        and invalid_counts[3] > 0
        and invalid_counts[5] > 0
        and elapsed < 60.0
    )
    record_criterion(
        10,
        ok,
        "classifier, negativity and concurrence agree on the coherence grid "
        f"(mismatches {mismatches}, invalid per power {invalid_counts}, {elapsed:.1f} s)",
    )
    assert ok


def test_criterion_11_sweep_output_is_deterministic(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    argv = ["sweep-cd", "--steps", "61", "--n-list", "2,3", "--seed", "5"]
    assert cli_main(argv + ["--output", str(first)]) == 0
    assert cli_main(argv + ["--output", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    record_criterion(
        11, ok, f"repeated sweeps are byte-identical ({first.stat().st_size} bytes)"
    )
    assert ok
