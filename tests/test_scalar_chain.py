"""The public scalar measures give the bits, and raise the errors, of their reference copies.

``tests/oracles.py`` holds the measures as the library once wrote them; each
case here compares a result by ``float.hex`` of every float in it, and a raised
error by its type, message and ``state_class``.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EDGE_STATES, clamp_band_params_st, direction_st, valid_params_st
from oracles import (
    classify_reference,
    concurrence_reference,
    marginals_reference,
    negativity_reference,
    shannon_report_from_table_reference,
    system_entropies_reference,
    tomogram_reference,
    von_neumann_entropy_reference,
)
from xstates import (
    EPS_PSD,
    Direction,
    TomogramTable,
    StateClass,
    XParams,
    apply_power_channel,
    classify,
    concurrence,
    marginals,
    negativity,
    shannon_report_from_table,
    system_entropies,
    tomogram,
    von_neumann_entropy,
)

NAN, INF = math.nan, math.inf
BEYOND_FLOAT_RANGE = complex(1.7e308, 1.7e308)  # finite parts, abs() overflows


def _bits(value):
    """The type of ``value`` and ``float.hex`` of each float in it; a class as it is."""
    if isinstance(value, StateClass):
        return value
    if isinstance(value, float):
        return float.hex(value)
    parts = [getattr(value, f.name) for f in fields(value)] if is_dataclass(value) else value
    return type(value).__name__, [float.hex(x) for x in parts]


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc), getattr(exc, "state_class", None)


def assert_same_outcome(fn, reference, *args):
    outcome = _outcome(fn, *args)
    assert outcome == _outcome(reference, *args)
    return outcome


# weights -------------------------------------------------------------------

_SPECIAL_WEIGHTS = [
    0.0, -0.0, 0.5, 1.0, -EPS_PSD, -0.5 * EPS_PSD, math.nextafter(-EPS_PSD, -INF), -1.0,
    5e-324, -5e-324, 2.2250738585072014e-308, NAN, INF, -INF,
]
_weight = st.one_of(
    st.floats(),  # any float: subnormal, huge, NaN, +-inf and +-0.0 included
    st.floats(-EPS_PSD, 0.0, exclude_max=True),  # the clamp band
    st.floats(-1.0, -EPS_PSD, exclude_max=True),  # just below it
    st.sampled_from(_SPECIAL_WEIGHTS),
)
_clamped = st.one_of(st.sampled_from([0.0, -0.0, -EPS_PSD, -5e-324]),
                     st.floats(-EPS_PSD, 0.0, exclude_max=True))


@st.composite
def distribution_st(draw) -> list[float]:
    """Weights that sum to 1 within EPS_TRACE, with zeros and clamp-band weights mixed in."""
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    total = sum(w)
    w = [x / total for x in w] if total > 0.0 else [1.0]
    return draw(st.permutations(w + draw(st.lists(_clamped, max_size=3))))


@st.composite
def table_st(draw) -> TomogramTable:
    """Tomograms with w_ud != w_du as well as (s, c, c, s) ones, with any weights."""
    kind = draw(st.sampled_from(["distribution", "symmetric", "any"]))
    if kind == "distribution":
        w = draw(distribution_st().filter(lambda w: len(w) <= 4))
        return TomogramTable(*draw(st.permutations(w + [0.0] * (4 - len(w)))))
    if kind == "symmetric":
        s, c = draw(_weight), draw(_weight)
        return TomogramTable(s, c, c, s)
    return TomogramTable(*(draw(_weight) for _ in range(4)))


class TestEntropies:
    @given(st.one_of(distribution_st(), st.lists(_weight, max_size=6)))
    @example([0.5, NAN, 0.5])
    @example([0.5, -0.0, 0.5, -EPS_PSD])
    @example([1.0, -2e-12])
    @example([INF, 1.0])
    @example([5e-324, 1.0])
    @settings(max_examples=400, deadline=None)
    def test_von_neumann_entropy(self, weights):
        assert_same_outcome(von_neumann_entropy, von_neumann_entropy_reference, weights)

    @given(table_st())
    @example(TomogramTable(0.4, 0.1, 0.2, 0.3))
    @example(TomogramTable(0.25, -0.0, 0.0, 0.75))
    @settings(max_examples=400, deadline=None)
    def test_marginals(self, table):
        got, want = marginals(table), marginals_reference(table)
        assert [[float.hex(x) for x in m] for m in got] == [[float.hex(x) for x in m] for m in want]

    @given(table_st())
    @example(TomogramTable(0.4, 0.1, 0.2, 0.3))  # w_ud != w_du: the second marginal differs
    @example(TomogramTable(0.25, -0.0, 0.0, 0.75))  # marginals (0.25, 0.75) and (0.25, 0.75)
    @example(TomogramTable(0.5, NAN, NAN, 0.5))
    @example(TomogramTable(INF, -INF, 0.5, 0.5))
    @settings(max_examples=400, deadline=None)
    def test_shannon_report_from_table(self, table):
        assert_same_outcome(shannon_report_from_table, shannon_report_from_table_reference, table)


# states --------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_coherence = st.one_of(st.complex_numbers(allow_nan=False, allow_infinity=False),
                       st.just(BEYOND_FLOAT_RANGE))


@st.composite
def not_psd_st(draw) -> XParams:
    """A state of unit trace with |c| beyond b or |d| beyond a by more than EPS_PSD."""
    p = draw(valid_params_st())
    excess = draw(st.one_of(st.floats(2e-12, 1.0), st.just(INF)))
    if draw(st.booleans()):
        c = BEYOND_FLOAT_RANGE if excess == INF else p.b + excess
        return XParams(a=p.a, b=p.b, c=c, d=p.d)
    d = BEYOND_FLOAT_RANGE if excess == INF else (p.a + excess) * 1j
    return XParams(a=p.a, b=p.b, c=p.c, d=d)


_states = st.one_of(
    valid_params_st(),
    clamp_band_params_st(),
    st.sampled_from(EDGE_STATES),
    st.builds(lambda p, n: apply_power_channel(p, n).params, valid_params_st(), st.integers(1, 9)),
    not_psd_st(),
    st.builds(XParams, a=_finite, b=_finite, c=_coherence, d=_coherence),  # mostly trace off
)

_INVALID = [
    XParams(a=0.3, b=0.2, c=BEYOND_FLOAT_RANGE, d=0.0),  # not PSD
    XParams(a=0.3, b=0.2, c=0.0, d=BEYOND_FLOAT_RANGE),  # not PSD
    XParams(a=0.4, b=0.2, c=0.0, d=0.0),  # trace off
    XParams(a=1e308, b=1e308, c=BEYOND_FLOAT_RANGE, d=BEYOND_FLOAT_RANGE),  # trace off first
    XParams(a=0.33, b=0.17, c=0.2, d=0.1),  # not PSD
]


MEASURES = [(classify, classify_reference), (negativity, negativity_reference),
            (concurrence, concurrence_reference), (system_entropies, system_entropies_reference)]


class TestMeasures:
    @given(_states, direction_st(), direction_st())
    @example(_INVALID[0], Direction(theta=1.0), Direction(theta=0.5))
    @example(_INVALID[1], Direction(theta=1.0), Direction(theta=0.5))
    @example(_INVALID[2], Direction(theta=1.0), Direction(theta=0.5))
    @example(_INVALID[3], Direction(theta=1.0), Direction(theta=0.5))
    @example(_INVALID[4], Direction(theta=1.0), Direction(theta=0.5))
    @settings(max_examples=400, deadline=None)
    def test_same_bits_and_errors(self, p, dir_a, dir_b):
        for fn, reference in MEASURES:
            assert_same_outcome(fn, reference, p)
        outcome = assert_same_outcome(tomogram, tomogram_reference, p, dir_a, dir_b)
        if outcome[0] == "value":
            table = tomogram(p, dir_a, dir_b)
            assert_same_outcome(shannon_report_from_table, shannon_report_from_table_reference,
                                table)

    def test_invalid_states_raise_each_class(self):
        # The examples above reach both invalid classes, through every measure.
        seen = {assert_same_outcome(fn, reference, p)[-1]
                for p in _INVALID for fn, reference in MEASURES}
        assert seen == {StateClass.INVALID_TRACE, StateClass.INVALID_NOT_PSD}
