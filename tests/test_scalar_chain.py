"""The public scalar measures give the bits, and raise the errors, of their reference copies.

``tests/oracles.py`` holds the measures written out again without the
library's memos; each case here compares a result by ``float.hex`` of every
float in it, and a raised error by its type, message and ``state_class``.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
import weakref
from dataclasses import fields, is_dataclass
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EDGE_STATES, clamp_band_params_st, direction_st, valid_params_st
from oracles import (
    classify_reference,
    concurrence_reference,
    marginals_reference,
    negativity_reference,
    pair_coefficients_reference,
    shannon_report_from_table_reference,
    spectrum_reference,
    system_entropies_reference,
    tomogram_reference,
    validate_reference,
    von_neumann_entropy_reference,
)
from xstates import (
    EPS_PSD,
    EPS_TRACE,
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
    spectrum,
    system_entropies,
    tomogram,
    validate,
    von_neumann_entropy,
)
from xstates import tomography
from xstates.information import _spectrum_entropy, _twin_entropy

NAN, INF = math.nan, math.inf
BEYOND_FLOAT_RANGE = complex(1.7e308, 1.7e308)  # finite parts, abs() overflows


def _bits(value):
    """The type of ``value`` and ``float.hex`` of each float in it; a class or None as it is."""
    if value is None or isinstance(value, StateClass):
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
    """Tomograms with w_ud != w_du as well as (s, c, c, s) ones, with any weights.

    The "tomogram" kind is shaped as tomogram makes its tables: (s, c, c, s)
    with s + c within EPS_TRACE of 1/2, so that the unit-sum test lands on
    either side of its edge, and s or c maybe a special weight.
    """
    kind = draw(st.sampled_from(["distribution", "symmetric", "tomogram", "any"]))
    if kind == "distribution":
        w = draw(distribution_st().filter(lambda w: len(w) <= 4))
        return TomogramTable(*draw(st.permutations(w + [0.0] * (4 - len(w)))))
    if kind == "symmetric":
        s, c = draw(_weight), draw(_weight)
        return TomogramTable(s, c, c, s)
    if kind == "tomogram":
        s = draw(st.one_of(st.floats(0.0, 0.5), _clamped, st.sampled_from(_SPECIAL_WEIGHTS)))
        c = 0.5 - s + draw(st.floats(-EPS_TRACE, EPS_TRACE))
        s, c = draw(st.permutations([s, c]))
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
    # (s, c, c, s) at the unit sum's edges, with s + c + c + s - 1 as noted: the last
    # float inside the test on each side, and the next one out
    @example(TomogramTable(0.3, 0.20000000049999997, 0.20000000049999997, 0.3))  # +9.99999861e-10
    @example(TomogramTable(0.3, 0.2000000005, 0.2000000005, 0.3))  # +1.00000008e-09
    @example(TomogramTable(0.3, 0.19999999950000003, 0.19999999950000003, 0.3))  # -9.99999861e-10
    @example(TomogramTable(0.3, 0.1999999995, 0.1999999995, 0.3))  # -1.00000008e-09
    # the joint sum inside (-9.99999972e-10) and the marginals' (s + c) + (s + c) out, and
    # the other way round
    @example(TomogramTable(0.1999999995, 0.3, 0.3, 0.1999999995))
    @example(TomogramTable(0.2, 0.2999999995, 0.2999999995, 0.2))
    # (s, c, c, s) with s or c not positive, subnormal or not finite
    @example(TomogramTable(0.0, 0.5, 0.5, 0.0))
    @example(TomogramTable(0.5, -0.0, -0.0, 0.5))
    @example(TomogramTable(0.0, 0.5, 0.5, -0.0))  # s == w_dd, with another sign
    @example(TomogramTable(-0.5 * EPS_PSD, 0.5, 0.5, -0.5 * EPS_PSD))
    @example(TomogramTable(0.5, -EPS_PSD, -EPS_PSD, 0.5))
    @example(TomogramTable(5e-324, 0.5, 0.5, 5e-324))
    @example(TomogramTable(0.5, 5e-324, 5e-324, 0.5))
    @example(TomogramTable(NAN, 0.5, 0.5, NAN))
    @example(TomogramTable(INF, 0.5, 0.5, INF))
    @example(TomogramTable(0.5, INF, INF, 0.5))
    @settings(max_examples=400, deadline=None)
    def test_shannon_report_from_table(self, table):
        assert_same_outcome(shannon_report_from_table, shannon_report_from_table_reference, table)

    # The kernels that system_entropies, shannon_report_from_table and the sweeps' blocks
    # share: each gives von_neumann_entropy's bits of its weights, or raises its error.
    @given(st.one_of(
        _weight,
        st.floats(0.5 - EPS_TRACE, 0.5 + EPS_TRACE),  # the unit sum's band, and beyond its edges
        st.sampled_from([0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]),
    ))
    # q + q - 1 at the band's edges: the last float inside the test on each side, and the
    # next one out
    @example(0.5000000004999999)
    @example(0.5000000005)
    @example(0.4999999995)
    @example(0.49999999949999996)
    @example(-0.0)
    @example(-0.5 * EPS_PSD)
    @example(math.nextafter(-EPS_PSD, -INF))
    @example(1e-310)
    @example(NAN)
    @settings(max_examples=400, deadline=None)
    def test_twin_entropy(self, q):
        assert_same_outcome(_twin_entropy, lambda q: von_neumann_entropy((q, q)), q)

    @given(table_st() | st.lists(st.floats(5e-324, 1.0), min_size=4, max_size=4).map(
        lambda w: TomogramTable(*(x / math.fsum(w) for x in w))))  # four positive weights
    @example(TomogramTable(0.4, 0.1, 0.2, 0.3))
    # ((l1 + l2) + l3) + l4 - 1 at the unit sum's edges, inside and out (see above)
    @example(TomogramTable(0.3, 0.20000000049999997, 0.20000000049999997, 0.3))
    @example(TomogramTable(0.3, 0.2000000005, 0.2000000005, 0.3))
    @example(TomogramTable(0.3, 0.19999999950000003, 0.19999999950000003, 0.3))
    @example(TomogramTable(0.3, 0.1999999995, 0.1999999995, 0.3))
    @example(TomogramTable(0.25, -0.0, 0.0, 0.75))
    @example(TomogramTable(0.5, -0.5 * EPS_PSD, 1e-310, 0.5))
    @example(TomogramTable(0.5, 0.5, math.nextafter(-EPS_PSD, -INF), 0.0))
    @example(TomogramTable(0.5, NAN, 0.25, 0.25))
    @settings(max_examples=400, deadline=None)
    def test_spectrum_entropy(self, table):
        assert_same_outcome(_spectrum_entropy, von_neumann_entropy, tuple(table))


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


@st.composite
def trace_edge_st(draw) -> XParams:
    """A valid state with a moved by up to EPS_TRACE / 2: 2(a + b) either side of 1 +- EPS_TRACE."""
    p = draw(valid_params_st())
    return XParams(a=p.a + draw(st.floats(-EPS_TRACE / 2, EPS_TRACE / 2)), b=p.b, c=p.c, d=p.d)


_SUBNORMAL = st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True)
_UNIT = st.floats(0.0, 1.0)
_UNIT_PHASE = st.sampled_from([1.0, -1.0, 1j, -1j])  # |x * phase| == x exactly
_HALF_AND_NEIGHBOURS = [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]


@st.composite
def spectrum_edge_st(draw) -> XParams:
    """A valid state on an edge of system_entropies' closed forms.

    Either the eigenvalue a - |d| is 0.0, in [-EPS_PSD, 0) or a positive
    subnormal, or the marginal weight q = a + b is 1/2 or one ulp either side.
    """
    kind = draw(st.sampled_from(["zero", "band", "subnormal", "q"]))
    if kind == "subnormal":  # a - |d| = a itself
        a, b, dm = draw(_SUBNORMAL), 0.5, 0.0
    elif kind == "q":
        # b in [q/2, 2q] makes q - b exact (Sterbenz), so a + b == q
        b = draw(st.floats(0.25, 0.5))
        a, b = draw(st.permutations([draw(st.sampled_from(_HALF_AND_NEIGHBOURS)) - b, b]))
        dm = a * draw(_UNIT)
    else:
        b = draw(st.floats(0.0, 0.5))
        a = 0.5 - b
        dm = a if kind == "zero" else a + draw(st.floats(0.0, 9e-13, exclude_min=True))
    c = b * draw(_UNIT) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return XParams(a=a, b=b, c=c, d=dm * draw(_UNIT_PHASE))


_states = st.one_of(
    valid_params_st(),
    spectrum_edge_st(),
    trace_edge_st(),
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

# The marginals are (q, q) with q = a + b.  Here 2q - 1 is as noted: the last float
# inside the trace test on each side, and the next one out; then b not positive or subnormal.
_Q_EDGES = [
    XParams(a=0.25000000049999993, b=0.25, c=0.1, d=0.2j),  # +9.99999861e-10
    XParams(a=0.25000000050000004, b=0.25, c=0.1, d=0.2j),  # +1.00000008e-09
    XParams(a=0.24999999950000001, b=0.25, c=0.1, d=0.2j),  # -9.99999972e-10
    XParams(a=0.24999999949999996, b=0.25, c=0.1, d=0.2j),  # -1.00000008e-09
    XParams(a=0.5, b=-0.0, c=0.0, d=0.5j),
    XParams(a=0.5 + 5e-13, b=-5e-13, c=0.0, d=0.5),
    XParams(a=0.5, b=5e-324, c=0.0, d=0.5),
    # q = 1/2 and one ulp either side of it
    XParams(a=0.3, b=0.2, c=0.1, d=0.2j),
    XParams(a=0.2500000000000001, b=0.25, c=0.1, d=0.2j),
    XParams(a=0.24999999999999994, b=0.25, c=0.1, d=0.2j),
]
# The last eigenvalue a - |d| at 0.0, in the clamp band and a positive subnormal.
_SPECTRUM_EDGES = [
    XParams(a=0.3, b=0.2, c=0.1, d=0.3j),
    XParams(a=0.3, b=0.2, c=0.1, d=0.3 + 5e-13),
    XParams(a=5e-324, b=0.5, c=0.1j, d=0.0),
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
    @example(_Q_EDGES[0], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[1], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[2], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[3], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[4], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[5], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[6], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[7], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[8], Direction(theta=1.0), Direction(theta=0.5))
    @example(_Q_EDGES[9], Direction(theta=1.0), Direction(theta=0.5))
    @example(_SPECTRUM_EDGES[0], Direction(theta=1.0), Direction(theta=0.5))
    @example(_SPECTRUM_EDGES[1], Direction(theta=1.0), Direction(theta=0.5))
    @example(_SPECTRUM_EDGES[2], Direction(theta=1.0), Direction(theta=0.5))
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


# memos ---------------------------------------------------------------------
# classify remembers the last XParams it classified, and tomogram the
# coefficients of recent Direction pairs, both by identity.  The pools hold
# objects equal in value but distinct, zeros of either sign, and every
# invalid class, so a verdict or coefficient read for the wrong object shows.

_TWIN = (0.3, 0.2, 0.1 + 0.05j, 0.15j)
STATE_POOL = [
    XParams(*_TWIN),
    XParams(*_TWIN),
    XParams(a=0.2, b=0.3, c=0j, d=0.1),
    XParams(a=0.2, b=0.3, c=-0j, d=0.1),
    XParams(a=0.2, b=0.3, c=complex(0.0, -0.0), d=-0.1),
    XParams(a=0.1, b=0.4, c=0.3, d=-0.05j),  # entangled
    apply_power_channel(XParams(*_TWIN), 3).params,
    *_INVALID,
]
DIRECTION_POOL = [
    Direction(theta=0.0), Direction(theta=-0.0),
    Direction(theta=1.0, psi=0.0), Direction(theta=1.0, psi=-0.0), Direction(theta=1.0, psi=0.0),
    Direction(theta=2.0, psi=0.5),
]

STATE_CALLS = [
    (classify, classify_reference), (validate, validate_reference),
    (spectrum, spectrum_reference), *MEASURES[1:],
]
PAIR_CALLS = [
    (lambda p, da, db: tomography._pair_coefficients(da, db),
     lambda p, da, db: pair_coefficients_reference(da, db)),
    (tomogram, tomogram_reference),
    (lambda p, da, db: shannon_report_from_table(tomogram(p, da, db)),
     lambda p, da, db: shannon_report_from_table_reference(tomogram_reference(p, da, db))),
]
_call = st.tuples(
    st.integers(0, len(STATE_CALLS) + len(PAIR_CALLS) - 1),
    st.sampled_from(STATE_POOL), st.sampled_from(DIRECTION_POOL), st.sampled_from(DIRECTION_POOL),
)


class TestMemos:
    @given(st.lists(_call, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_no_sequence_of_calls_changes_an_answer(self, calls):
        for k, p, dir_a, dir_b in calls:
            if k < len(STATE_CALLS):
                assert_same_outcome(*STATE_CALLS[k], p)
            else:
                assert_same_outcome(*PAIR_CALLS[k - len(STATE_CALLS)], p, dir_a, dir_b)

    def test_a_mutable_state_or_direction_is_never_remembered(self):
        q = SimpleNamespace(a=0.2, b=0.3, c=0.1, d=0.0)
        assert classify(q) is StateClass.SEPARABLE
        q.c = 0.25
        assert classify(q) is StateClass.ENTANGLED
        assert_same_outcome(negativity, negativity_reference, q)
        q.a = 0.4
        assert classify(q) is StateClass.INVALID_TRACE
        assert_same_outcome(negativity, negativity_reference, q)
        da, db = SimpleNamespace(theta=1.0, psi=0.0), Direction(theta=2.0)
        tomography._pair_coefficients(da, db)
        da.psi = 0.5
        assert tomography._pair_coefficients(da, db) == pair_coefficients_reference(da, db)

    def test_threads_never_share_a_verdict(self):
        states = [STATE_POOL[0], STATE_POOL[5], _INVALID[2], _INVALID[4]]
        want = [(classify_reference(p), _outcome(negativity_reference, p)) for p in states]
        mismatches = []

        def work():
            for _ in range(2000):
                for p, (cls, neg) in zip(states, want):
                    if classify(p) is not cls or _outcome(negativity, p) != neg:
                        mismatches.append(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_pair_memo_is_bounded_and_lets_go(self):
        dropped = Direction(theta=0.5)
        gone = weakref.ref(dropped)
        tomography._pair_coefficients(dropped, DIRECTION_POOL[0])
        del dropped
        assert gone() is not None  # the memo holds it
        size = tomography._PAIRS_MAX
        for k in range(3 * size):
            da, db = Direction(theta=k / (3 * size)), Direction(theta=1.0, psi=k)
            assert tomography._pair_coefficients(da, db) == pair_coefficients_reference(da, db)
            assert len(tomography._PAIRS) <= size
        assert gone() is None

    def test_an_invalid_pair_is_never_remembered(self):
        da, db = Direction(theta=1.0, psi=1e308), Direction(theta=1.0, psi=1e308)
        for _ in range(2):
            assert_same_outcome(tomography._pair_coefficients, pair_coefficients_reference, da, db)
        assert (id(da), id(db)) not in tomography._PAIRS
