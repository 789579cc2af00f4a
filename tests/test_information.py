import copy
import math
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    EDGE_STATES,
    direction_st,
    kernel_images_st,
    random_channel_image,
    random_direction_pair,
    random_valid_params,
    valid_params_st,
)
from oracles import entropy_dense, werner_i_n, werner_i_n_closed_form
from xstates import (
    EPS_PSD,
    Direction,
    InfoReport,
    InvalidSpectrumError,
    InvalidStateError,
    ShannonReport,
    XParams,
    apply_power_channel,
    direction_pairs,
    marginals,
    shannon_report_from_table,
    spectrum,
    system_entropies,
    to_dense,
    tomogram,
    von_neumann_entropy,
    werner,
)
from xstates.information import (
    _entropy, _x_entropies, _x_information, _xlogx, _xlogx_distinct,
)
from xstates.tomography import _pair_coefficients
from xstates.xstate import _x_columns

LN2 = math.log(2.0)
LN4 = math.log(4.0)

# frozen reference values (independent evaluation: eigenvalue sums by hand
# and the dense numpy matrix_power -> eigvalsh -> entropy pipeline)
S12_WERNER_HALF = 1.0735428464085231
I_N_WERNER_HALF_N1 = 0.3127515147113675
I_N_WERNER_HALF_N2 = 0.9280861231484376


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy((1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_uniform(self):
        assert_allclose(von_neumann_entropy((0.25,) * 4), LN4, atol=1e-15, rtol=0)

    def test_werner_half(self):
        assert_allclose(
            von_neumann_entropy(spectrum(werner(0.5))), S12_WERNER_HALF, atol=1e-12, rtol=0
        )

    def test_accepts_a_tomogram_table(self):
        t = tomogram(werner(0.5), Direction(theta=0.7, psi=0.2), Direction(theta=2.1))
        assert von_neumann_entropy(t) == von_neumann_entropy(tuple(t))

    def test_tiny_negative_clamped(self):
        # the -1e-13 weight clamps to zero instead of raising
        val = von_neumann_entropy((1.0 + 1e-13, -1e-13, 0.0, 0.0))
        assert abs(val) < 1e-11

    def test_negative_beyond_band_rejected(self):
        with pytest.raises(InvalidSpectrumError):
            von_neumann_entropy((1.0 + 1e-6, -1e-6, 0.0, 0.0))

    def test_bad_sum_rejected(self):
        for weights in ((0.5, 0.5, 0.5, 0.0), (math.nan,) * 4, (0.5, 0.5, math.nan)):
            with pytest.raises(InvalidSpectrumError):
                von_neumann_entropy(weights)


    def test_nan_weight_fails_the_sum_in_the_columnar_entropy_too(self):
        weights = [0.5, math.nan, 0.5, 0.0]
        with pytest.raises(InvalidSpectrumError) as scalar:
            von_neumann_entropy(weights)
        with pytest.raises(InvalidSpectrumError) as columnar:
            _entropy(map(_xlogx, np.array(weights)[:, None]))
        assert str(columnar.value) == str(scalar.value) == "weights sum to nan, expected 1"


class TestSystemEntropies:
    def test_bell_state(self):
        info = system_entropies(werner(1.0))
        assert_allclose(info.s12, 0.0, atol=1e-12, rtol=0)
        assert_allclose((info.s1, info.s2), (LN2, LN2), atol=1e-15, rtol=0)
        assert_allclose(info.i_n, LN4, atol=1e-12, rtol=0)

    def test_maximally_mixed(self):
        info = system_entropies(XParams(a=0.25, b=0.25, c=0.0, d=0.0))
        assert_allclose(info.s12, LN4, atol=1e-15, rtol=0)
        assert_allclose(info.i_n, 0.0, atol=1e-14, rtol=0)

    def test_marginals_always_ln2(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            info = system_entropies(random_valid_params(rng))
            assert_allclose((info.s1, info.s2), (LN2, LN2), atol=1e-12, rtol=0)
            assert_allclose(info.i_n, info.s1 + info.s2 - info.s12, atol=1e-15, rtol=0)

    def test_subadditivity(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            info = system_entropies(random_valid_params(rng))
            assert info.i_n >= -1e-12

    def test_invalid_rejected(self):
        with pytest.raises(InvalidStateError):
            system_entropies(XParams(a=0.33, b=0.17, c=0.2, d=0.1))


class TestWernerMutualInformation:
    def test_bell_saturates_for_every_power(self):
        for n in range(1, 7):
            assert_allclose(werner_i_n(1.0, n), LN4, atol=1e-12, rtol=0)

    def test_white_noise_carries_nothing(self):
        for n in range(1, 7):
            assert_allclose(werner_i_n(0.0, n), 0.0, atol=1e-14, rtol=0)

    def test_frozen_values(self):
        assert_allclose(werner_i_n(0.5, 1), I_N_WERNER_HALF_N1, atol=1e-12, rtol=0)
        assert_allclose(werner_i_n(0.5, 2), I_N_WERNER_HALF_N2, atol=1e-12, rtol=0)

    def test_matches_entropy_pipeline(self):
        for n in range(1, 7):
            for p in np.linspace(-1 / 3 + 1e-3, 1.0, 13):
                expected = werner_i_n_closed_form(p, n)
                assert_allclose(werner_i_n(p, n), expected, atol=1e-10, rtol=0)

    def test_even_power_outside_band(self):
        for p in (-2.5, 1.8):
            expected = werner_i_n_closed_form(p, 2)
            assert_allclose(werner_i_n(p, 2), expected, atol=1e-10, rtol=0)

    def test_bell_saturates_at_high_powers(self):
        # Powers where werner_i_n_closed_form's sums overflow: it returns inf
        # at n = 511 and raises OverflowError from n = 512.
        for n in (511, 512, 600, 10_000):
            assert abs(werner_i_n(1.0, n) - LN4) <= 1e-14
        assert math.isfinite(werner_i_n(0.9, 600))

    def test_matches_dense_route(self):
        for n, expected in ((1, I_N_WERNER_HALF_N1), (2, I_N_WERNER_HALF_N2)):
            m = np.linalg.matrix_power(to_dense(werner(0.5)), n)
            evals = np.linalg.eigvalsh(m / np.trace(m).real)
            assert_allclose(LN4 - von_neumann_entropy(evals), expected, atol=1e-10, rtol=0)

    def test_invalid_weight_rejected(self):
        with pytest.raises(InvalidStateError):
            werner_i_n(1.5, 3)
        with pytest.raises(InvalidStateError):
            werner_i_n(-0.4, 1)

    def test_monotone_in_power(self):
        for p in np.linspace(0.05, 1.0, 20):
            values = [werner_i_n(p, n) for n in range(1, 7)]
            assert all(y >= x - 1e-12 for x, y in zip(values, values[1:]))


class TestShannonReport:
    def test_holds_only_the_entropies(self):
        assert [f.name for f in fields(ShannonReport)] == ["h12", "h1", "h2", "i_s"]

    def test_maximally_mixed(self):
        rep = shannon_report_from_table(tomogram(
            XParams(a=0.25, b=0.25, c=0.0, d=0.0),
            Direction(theta=0.7, psi=0.2),
            Direction(theta=2.1, psi=1.5),
        ))
        assert_allclose(rep.h12, LN4, atol=1e-14, rtol=0)
        assert_allclose((rep.h1, rep.h2), (LN2, LN2), atol=1e-14, rtol=0)
        assert_allclose(rep.i_s, 0.0, atol=1e-13, rtol=0)

    def test_bell_along_z(self):
        z_up = Direction(theta=0.0)
        rep = shannon_report_from_table(tomogram(werner(1.0), z_up, z_up))
        assert_allclose(rep.h12, LN2, atol=1e-14, rtol=0)
        assert_allclose(rep.i_s, LN2, atol=1e-13, rtol=0)

    def test_marginal_entropies_ln2(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            table = tomogram(random_valid_params(rng), *random_direction_pair(rng))
            rep = shannon_report_from_table(table)
            assert_allclose((rep.h1, rep.h2), (LN2, LN2), atol=1e-12, rtol=0)

    @given(valid_params_st(), direction_st(), direction_st())
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_quantum_information(self, p, da, db):
        rep = shannon_report_from_table(tomogram(p, da, db))
        info = system_entropies(p)
        assert rep.i_s <= info.i_n + 1e-10
        assert rep.i_s >= -1e-10


_STATE = apply_power_channel(XParams(a=0.3, b=0.2, c=0.1 + 0.05j, d=0.15j), 3).params
_TABLE = tomogram(_STATE, Direction(theta=0.9, psi=0.3), Direction(theta=2.0))
# The chain builds its reports through the slots' setters; the public constructor must agree.
REPORTS = {
    "InfoReport": (system_entropies(_STATE), InfoReport, ["s12", "s1", "s2", "i_n"]),
    "ShannonReport": (shannon_report_from_table(_TABLE), ShannonReport, ["h12", "h1", "h2", "i_s"]),
}


@pytest.mark.parametrize("name", REPORTS)
class TestReportsAreSlottedFrozenDataclasses:
    def test_fields_and_constructor(self, name):
        report, cls, names = REPORTS[name]
        assert type(report) is cls
        assert [f.name for f in fields(report)] == names
        twin = cls(**{key: getattr(report, key) for key in names})
        assert (twin, hash(twin), repr(twin)) == (report, hash(report), repr(report))

    def test_asdict_and_replace(self, name):
        report, cls, names = REPORTS[name]
        assert asdict(report) == {key: getattr(report, key) for key in names}
        changed = replace(report, **{names[0]: 0.5})
        assert type(changed) is cls and getattr(changed, names[0]) == 0.5
        assert changed != report
        assert replace(changed, **{names[0]: getattr(report, names[0])}) == report
        with pytest.raises(TypeError):
            replace(report, extra=1.0)

    def test_fields_are_frozen(self, name):
        report = REPORTS[name][0]
        for f in fields(report):
            with pytest.raises(FrozenInstanceError):
                setattr(report, f.name, getattr(report, f.name))

    def test_slots_leave_no_instance_dict(self, name):
        report = REPORTS[name][0]
        assert not hasattr(report, "__dict__")
        # TypeError on Python 3.11, as for XParams: see tests/test_xstate.py.
        with pytest.raises((AttributeError, TypeError)):
            report.extra = 1

    def test_pickle_and_deepcopy_keep_equality_and_hash(self, name):
        report = REPORTS[name][0]
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert twin is not report
            assert (twin, hash(twin), repr(twin)) == (report, hash(report), repr(report))


BELL = werner(1.0)
Z_UP = Direction(theta=0.0)
Z_DOWN = Direction(theta=math.pi)
# Nine Werner states at power 3: their traces and tomogram marginals repeat a few values.
WERNER_CUBES = [apply_power_channel(werner(k / 8), 3).params for k in range(9)]

# Directions on the poles as well as anywhere on the sphere.
_pole_or_any = st.one_of(
    st.builds(Direction, theta=st.sampled_from([0.0, math.pi]), psi=st.floats(0.0, 6.3)),
    direction_st(),
)


class TestXInformation:
    def test_bell_along_z_takes_the_zero_weight_branch(self):
        t = tomogram(BELL, Z_UP, Z_UP)
        assert t.w_ud == 0.0
        table = _x_information(_x_columns([BELL]), [_pair_coefficients(Z_UP, Z_UP)])
        assert table.tolist() == [[shannon_report_from_table(t).i_s]] == [[LN2]]

    @given(
        st.lists(valid_params_st(), min_size=1, max_size=4),
        st.lists(st.tuples(_pole_or_any, _pole_or_any), min_size=1, max_size=4),
    )
    @example([BELL], [(Z_UP, Z_UP)])
    @example([BELL, werner(0.3)], [(Z_UP, Z_DOWN), (Z_DOWN, Direction(theta=1.1, psi=0.4))])
    # Many images that share their marginal weights, gathered from few logarithms.
    @example(WERNER_CUBES, direction_pairs(6, 7))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_table_chain_exactly(self, images, pairs):
        coefficients = [_pair_coefficients(da, db) for da, db in pairs]
        table = _x_information(_x_columns(images), coefficients)
        assert table.tolist() == [
            [shannon_report_from_table(tomogram(p, da, db)).i_s for da, db in pairs]
            for p in images
        ]

    def test_keeps_the_weight_checks(self):
        # Along z the two weights are the diagonal entries (a, b) themselves.
        along_z = [_pair_coefficients(Z_UP, Z_UP)]
        with pytest.raises(InvalidSpectrumError, match="negative weight"):
            _x_information(_x_columns([XParams(a=0.6, b=-0.1, c=0.0, d=0.0)]), along_z)
        with pytest.raises(InvalidSpectrumError, match="weights sum"):
            _x_information(_x_columns([XParams(a=0.3, b=0.3, c=0.0, d=0.0)]), along_z)


class TestXEntropies:
    @given(kernel_images_st())
    @example(EDGE_STATES)
    @settings(max_examples=300, deadline=None)
    def test_equals_system_entropies_exactly(self, images):
        s12, i_n = _x_entropies(_x_columns(images))
        reports = [system_entropies(p) for p in images]
        # float.hex also tells -0.0 from 0.0, which print differently.
        assert list(map(float.hex, s12.tolist())) == [r.s12.hex() for r in reports]
        assert list(map(float.hex, i_n.tolist())) == [r.i_n.hex() for r in reports]

    @given(kernel_images_st())
    @example(EDGE_STATES)
    @settings(max_examples=300, deadline=None)
    def test_s12_matches_dense_eigenvalues(self, images):
        s12, i_n = _x_entropies(_x_columns(images))
        for p, s, i in zip(images, s12.tolist(), i_n.tolist()):
            report = system_entropies(p)
            assert_allclose((report.s12, s), entropy_dense(p), atol=1e-10, rtol=0)
            assert_allclose((report.i_n, i), LN4 - entropy_dense(p), atol=1e-10, rtol=0)

    def test_pure_state_takes_the_zero_weight_branch(self):
        s12, i_n = _x_entropies(_x_columns([BELL]))
        assert (s12.tolist(), i_n.tolist()) == ([0.0], [LN4]) == (
            [system_entropies(BELL).s12], [system_entropies(BELL).i_n]
        )

    def test_keeps_the_weight_checks(self):
        # a - |d| = -0.01 is below the clamp band; a + b = 0.6 breaks the unit sum.
        for bad, message in (
            (XParams(a=0.3, b=0.2, c=0.0, d=0.31), "negative weight"),
            (XParams(a=0.3, b=0.3, c=0.0, d=0.0), "weights sum"),
        ):
            with pytest.raises(InvalidSpectrumError, match=message):
                _x_entropies(_x_columns([BELL, bad]))


def _hex(x):
    return x.shape, [v.hex() for v in x.ravel().tolist()]


# Weights of every kind _xlogx tells apart: clamped, zero of either sign, subnormal, NaN.
_weight_st = st.one_of(
    st.floats(-EPS_PSD, 0.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, 1.0), math.nan]),
)


@st.composite
def repeating_weights_st(draw, pool=_weight_st):
    """A 1-D or 2-D array, possibly empty, drawn from a handful of weights."""
    values = draw(st.lists(pool, min_size=1, max_size=5))
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 12)), st.tuples(st.integers(0, 4), st.integers(0, 5))
    ))
    size = math.prod(shape)
    flat = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    return np.array(flat, dtype=float).reshape(shape)


class TestXlogxDistinct:
    @given(repeating_weights_st())
    @example(np.array([[0.0, -0.0], [-0.0, 0.0]]))
    @example(np.array([-0.0, 0.0, -1e-13, 5e-324, -0.0]))
    @example(np.empty((0, 3)))
    @settings(max_examples=300, deadline=None)
    def test_equals_xlogx_exactly(self, x):
        expected, got = _xlogx(x), _xlogx_distinct(x)
        assert [_hex(a) for a in got] == [_hex(a) for a in expected]

    # Weights from [0, 1] only: a NaN would hide the bad weight from min() in both functions.
    @given(
        repeating_weights_st(st.floats(0.0, 1.0)),
        st.floats(max_value=-EPS_PSD, exclude_max=True),
    )
    @example(np.array([[0.5, 0.5], [0.5, 0.5]]), -2 * EPS_PSD)
    @settings(max_examples=100, deadline=None)
    def test_weight_below_the_band_raises_the_same_error(self, x, bad):
        x = np.append(x, [bad, bad])
        with pytest.raises(InvalidSpectrumError, match="negative weight") as expected:
            _xlogx(x)
        with pytest.raises(InvalidSpectrumError) as got:
            _xlogx_distinct(x)
        assert str(got.value) == str(expected.value)


class TestMarginalLogCount:
    """Each marginal weight takes one logarithm per distinct value; joint weights take one each."""

    @staticmethod
    def count_logs(monkeypatch, kernel, *args):
        calls = []
        log = math.log

        def counting_log(x):
            calls.append(x)
            return log(x)

        monkeypatch.setattr(math, "log", counting_log)
        kernel(*args)
        monkeypatch.undo()
        return len(calls)

    def test_x_information(self, monkeypatch):
        pairs = direction_pairs(6, 7)
        k, m = len(WERNER_CUBES), len(pairs)
        distinct = {
            marginal
            for p in WERNER_CUBES
            for da, db in pairs
            for marginal in marginals(tomogram(p, da, db))[0]
        }
        assert len(distinct) < k * m
        x, coefficients = _x_columns(WERNER_CUBES), [_pair_coefficients(*pair) for pair in pairs]
        calls = self.count_logs(monkeypatch, _x_information, x, coefficients)
        assert calls == 2 * k * m + len(distinct)

    def test_x_entropies(self, monkeypatch):
        k = len(WERNER_CUBES)
        distinct = {p.a + p.b for p in WERNER_CUBES}
        assert len(distinct) < k
        calls = self.count_logs(monkeypatch, _x_entropies, _x_columns(WERNER_CUBES))
        assert calls == 4 * k + len(distinct)


# Slack allowed before an inequality counts as violated.
INEQ_TOL = 1e-10


class Inequalities(NamedTuple):
    i_s: float
    i_n: float
    i_s_le_i_n: bool
    i_s_nonnegative: bool
    i_n_nonnegative: bool
    subadditive: bool


def inequalities(p, pairs):
    """The information inequalities of ``p`` for each direction pair, in the order of ``pairs``.

    ``system_entropies`` gives ``I_n`` and the entropies, and
    ``shannon_report_from_table`` of the pair's tomogram gives ``I_s``.
    """
    info = system_entropies(p)
    out = []
    for dir_a, dir_b in pairs:
        i_s = shannon_report_from_table(tomogram(p, dir_a, dir_b)).i_s
        out.append(Inequalities(
            i_s=i_s,
            i_n=info.i_n,
            i_s_le_i_n=i_s <= info.i_n + INEQ_TOL,
            i_s_nonnegative=i_s >= -INEQ_TOL,
            i_n_nonnegative=info.i_n >= -INEQ_TOL,
            subadditive=info.s1 + info.s2 >= info.s12 - INEQ_TOL,
        ))
    return out


class TestCheckInequalities:
    def test_all_hold_for_werner(self):
        pairs = direction_pairs(100, 3)
        records = inequalities(werner(0.5), pairs)
        assert len(records) == 100
        for rec in records:
            assert rec.i_s_le_i_n
            assert rec.i_s_nonnegative
            assert rec.i_n_nonnegative
            assert rec.subadditive
            assert_allclose(rec.i_n, I_N_WERNER_HALF_N1, atol=1e-12, rtol=0)

    def test_all_hold_for_channel_images(self):
        rng = np.random.default_rng(43)
        pairs = direction_pairs(20, 4)
        for _ in range(20):
            records = inequalities(random_channel_image(rng), pairs)
            assert all(
                r.i_s_le_i_n and r.i_s_nonnegative and r.i_n_nonnegative and r.subadditive
                for r in records
            )

    def test_kth_record_belongs_to_the_kth_pair(self):
        p = random_channel_image(np.random.default_rng(45))
        pairs = direction_pairs(6, 7)
        records = inequalities(p, pairs)
        assert records == [inequalities(p, [pair])[0] for pair in pairs]
        assert len({r.i_s for r in records}) == len(pairs)
        # The sweep's column k is pair k too.
        columns = _x_information(_x_columns([p]), [_pair_coefficients(*pair) for pair in pairs])
        assert columns.tolist() == [[r.i_s for r in records]]

    def test_boundary_equality_tolerated(self):
        records = inequalities(XParams(a=0.25, b=0.25, c=0.0, d=0.0), direction_pairs(10, 0))
        assert all(r.i_s_le_i_n and r.i_s_nonnegative for r in records)


class TestEntropyMonotonicity:
    def test_image_entropy_never_increases_with_power(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            p = random_valid_params(rng)
            values = [
                system_entropies(apply_power_channel(p, n).params).s12 for n in range(1, 7)
            ]
            assert all(y <= x + 1e-12 for x, y in zip(values, values[1:]))
