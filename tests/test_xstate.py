import cmath
import copy
import math
import pickle
import re
import sys
from dataclasses import FrozenInstanceError, asdict, fields, replace
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    EDGE_STATES,
    clamp_band_params_st,
    kernel_images_st,
    params_from_weights,
    random_valid_params,
    valid_params_st,
)
from exact import image_exact, spectrum_exact, werner_thresholds_exact
from oracles import classify_dense, partial_transpose, power_channel_via_spectrum
from xstates import (
    EPS_PSD,
    EPS_TRACE,
    InvalidStateError,
    StateClass,
    XParams,
    ZeroDenominatorError,
    apply_power_channel,
    classify,
    concurrence,
    negativity,
    ppt,
    spectrum,
    to_dense,
    validate,
    werner,
    werner_entanglement_threshold,
    werner_entanglement_threshold_lower,
)
from xstates import cli
from xstates.xstate import _spectrum, _x_classify, _x_columns, _x_moduli, _x_power


class TestValidate:
    def test_valid_state(self):
        p = XParams(a=0.33, b=0.17, c=0.1, d=0.2)
        assert validate(p) is None

    def test_trace_violation(self):
        p = XParams(a=0.4, b=0.2, c=0.0, d=0.0)
        assert validate(p) is StateClass.INVALID_TRACE

    def test_psd_violation_inner(self):
        p = XParams(a=0.33, b=0.17, c=0.2, d=0.1)
        assert validate(p) is StateClass.INVALID_NOT_PSD

    def test_psd_violation_outer(self):
        p = XParams(a=0.1, b=0.4, c=0.0, d=0.2)
        assert validate(p) is StateClass.INVALID_NOT_PSD

    def test_negative_diagonal_caught(self):
        p = XParams(a=-0.1, b=0.6, c=0.0, d=0.0)
        assert validate(p) is StateClass.INVALID_NOT_PSD

    def test_boundary_within_tolerance(self):
        p = XParams(a=0.25, b=0.25, c=0.25 + 1e-13, d=0.0)
        assert validate(p) is None

    def test_trace_checked_first(self):
        p = XParams(a=0.1, b=0.1, c=0.5, d=0.5)
        assert validate(p) is StateClass.INVALID_TRACE



# The six real components of an X state, in the order a, b, Re c, Im c, Re d, Im d.
PARTS = ("a", "b", "re_c", "im_c", "re_d", "im_d")


def _parts(p: XParams) -> tuple:
    return (p.a, p.b, p.c.real, p.c.imag, p.d.real, p.d.imag)


def _mixed_with(part: str, value: float) -> XParams:
    """The maximally mixed state with one real component set to ``value``."""
    x = dict(zip(PARTS, (0.25, 0.25, 0.0, 0.0, 0.0, 0.0)), **{part: value})
    return XParams(
        a=x["a"], b=x["b"], c=complex(x["re_c"], x["im_c"]), d=complex(x["re_d"], x["im_d"])
    )


_P = XParams(a=0.3, b=0.2, c=0.1j, d=-0.05)
SLOTTED = [_P, apply_power_channel(_P, 3)]
# Power-map images, which apply_power_channel builds without XParams.__init__.
IMAGES = {
    name: apply_power_channel(p, n).params
    for name, p, n in (
        ("image_not_psd", XParams(a=0.33, b=0.17, c=0.2, d=0.1), 3),
        ("image_zero_coherences", XParams(a=0.25, b=0.25, c=-0.0, d=0.0), 5),
        ("image_subnormal_coherences", EDGE_STATES[3], 2),
        ("image_n600", werner(0.9), 600),
    )
}


class TestXParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", PARTS)
    def test_non_finite_rejected(self, part, value):
        with pytest.raises(ValueError, match="must be finite"):
            _mixed_with(part, value)

    @pytest.mark.parametrize(
        "value", [sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324],
        ids=["max", "-max", "subnormal", "-subnormal"],
    )
    @pytest.mark.parametrize("part", PARTS)
    def test_extreme_finite_accepted(self, part, value):
        p = _mixed_with(part, value)
        assert _parts(p)[PARTS.index(part)] == value

    def test_int_and_float_inputs_coerced(self):
        p = XParams(a=1, b=0, c=0.5, d=-2)
        assert [type(x) for x in (p.a, p.b, p.c, p.d)] == [float, float, complex, complex]
        assert (p.a, p.b, p.c, p.d) == (1.0, 0.0, 0.5 + 0j, -2 + 0j)
        q = replace(p, b=3, c=1)
        assert (type(q.b), type(q.c)) == (float, complex)

    @pytest.mark.parametrize("obj", SLOTTED, ids=lambda obj: type(obj).__name__)
    def test_fields_are_frozen(self, obj):
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))

    @pytest.mark.parametrize("obj", SLOTTED, ids=lambda obj: type(obj).__name__)
    def test_slots_leave_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        # A name that is not a field raises TypeError on Python 3.11: the frozen
        # __setattr__ calls super() with the class as it was before slots were added.
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1

    @pytest.mark.parametrize("obj", [*SLOTTED, *IMAGES.values()],
                             ids=[*(type(obj).__name__ for obj in SLOTTED), *IMAGES])
    def test_pickle_and_deepcopy_keep_equality_and_hash(self, obj):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin is not obj
            assert twin == obj
            assert hash(twin) == hash(obj)

    def test_asdict_and_replace(self):
        p, r = SLOTTED
        assert asdict(p) == {"a": 0.3, "b": 0.2, "c": 0.1j, "d": -0.05 + 0j}
        assert asdict(r) == {"params": asdict(r.params), "n": 3}
        assert replace(p, d=0.05) == XParams(a=0.3, b=0.2, c=0.1j, d=0.05)
        assert replace(r, n=5) == type(r)(params=r.params, n=5)
        with pytest.raises(TypeError):
            replace(r, valid=False)

    def test_channel_result_valid_reads_its_image(self):
        bad = XParams(a=0.3, b=0.2, c=0.25, d=0.0)  # not PSD: the image at odd n is not either
        for params, expected in ((_P, None), (bad, StateClass.INVALID_NOT_PSD)):
            r = apply_power_channel(params, 3)
            assert validate(r.params) is expected
            assert validate(type(r)(params=params, n=1).params) is expected
        # Validity is validate(result.params); the result holds no copy of it.
        assert [f.name for f in fields(r)] == ["params", "n"]
        assert not hasattr(r, "valid")


class TestSpectrum:
    def test_closed_form_entries(self):
        lam = spectrum(XParams(a=0.33, b=0.17, c=0.1, d=0.2))
        assert type(lam) is tuple and len(lam) == 4
        assert_allclose(lam, (0.53, 0.27, 0.07, 0.13), atol=1e-15, rtol=0)

    def test_pair_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = spectrum(random_valid_params(rng))
            assert lam[0] >= lam[3]
            assert lam[1] >= lam[2]

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_valid_params(rng)
            evals = np.linalg.eigvalsh(to_dense(p))
            assert_allclose(sorted(spectrum(p)), evals, atol=1e-10, rtol=0)


_tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308])
_wide = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e12, 1e12))


@st.composite
def _tiny_coherences_st(draw) -> XParams:
    p = draw(valid_params_st())
    return XParams(
        a=p.a, b=p.b, c=complex(draw(_tiny), draw(_tiny)), d=complex(draw(_tiny), draw(_tiny))
    )


@st.composite
def _invalid_st(draw) -> XParams:
    """Any finite parameters: mostly not a state, often with |lambda| > 1."""
    c = abs(draw(_wide)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    d = abs(draw(_wide)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return XParams(a=draw(_wide), b=draw(_wide), c=c, d=d)


def power_map_inputs_st():
    """(state, power) pairs: valid, edge and tiny-coherence states, and invalid ones at odd n."""
    any_n = st.integers(1, 60)
    odd_n = st.integers(0, 29).map(lambda k: 2 * k + 1)
    return st.one_of(
        st.tuples(valid_params_st(), any_n),
        st.tuples(st.sampled_from(EDGE_STATES), any_n),
        st.tuples(_tiny_coherences_st(), any_n),
        st.tuples(_invalid_st(), odd_n),
    )


def _image_inputs_st():
    """(states, power) pairs: kernel and edge states at n up to 600, invalid ones at odd n."""
    any_n = st.integers(1, 600)
    odd_n = st.integers(0, 299).map(lambda k: 2 * k + 1)
    return st.one_of(
        st.tuples(kernel_images_st(), any_n),
        st.tuples(st.lists(st.sampled_from(EDGE_STATES), min_size=1), any_n),
        st.tuples(st.lists(_invalid_st(), min_size=1, max_size=8), odd_n),
    )


def _outcome(power_map, p: XParams, n: int):
    """Every field of the image as float.hex strings, or the type and message of the exception."""
    try:
        r = power_map(p, n)
    except (ZeroDenominatorError, OverflowError) as exc:
        return type(exc), str(exc)
    return (r.n, validate(r.params), *map(float.hex, _parts(r.params)))


class TestPowerChannel:
    def test_identity_at_one(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_valid_params(rng)
            q = apply_power_channel(p, 1).params
            assert abs(q.a - p.a) < 1e-12
            assert abs(q.b - p.b) < 1e-12
            assert abs(q.c - p.c) < 1e-12
            assert abs(q.d - p.d) < 1e-12

    def test_werner_square_closed_form(self):
        res = apply_power_channel(werner(0.5), 2)
        assert validate(res.params) is None
        assert_allclose(res.params.a, 13 / 28, atol=1e-15, rtol=0)
        assert_allclose(res.params.b, 1 / 28, atol=1e-15, rtol=0)
        assert res.params.c == 0
        assert_allclose(res.params.d, 12 / 28, atol=1e-15, rtol=0)

    def test_phases_carried_over(self):
        p = XParams(a=0.3, b=0.2, c=0.15j, d=-0.25)
        q = apply_power_channel(p, 3).params
        assert_allclose(cmath.phase(q.c), math.pi / 2, atol=1e-15, rtol=0)
        assert_allclose(cmath.phase(q.d), math.pi, atol=1e-15, rtol=0)

    def test_zero_coherence_phase_convention(self):
        # phase(0) = 1: a zero coherence maps to exactly 0j, never to nan.
        for n in (1, 2, 3, 8):
            q = apply_power_channel(XParams(a=0.25, b=0.25, c=0.0, d=0.0), n).params
            assert (q.c, q.d) == (0j, 0j)
            q = apply_power_channel(XParams(a=0.3, b=0.2, c=-0.0, d=0.1j), n).params
            assert q.c == 0j and cmath.phase(q.d) == math.pi / 2

    def test_makes_no_validity_check(self, monkeypatch):
        monkeypatch.setattr("xstates.xstate.validate", lambda p: pytest.fail("validate called"))
        for p, n in ((_P, 3), (XParams(a=0.33, b=0.17, c=0.2, d=0.1), 3), (werner(0.5), 2)):
            apply_power_channel(p, n)

    def test_pure_state_fixed_point(self):
        p = XParams(a=0.5, b=0.0, c=0.0, d=0.5)
        for n in range(1, 7):
            q = apply_power_channel(p, n).params
            assert_allclose(
                (q.a, q.b, abs(q.c), abs(q.d)), (0.5, 0.0, 0.0, 0.5), atol=1e-14, rtol=0
            )

    def test_trace_renormalized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 7))
            q = apply_power_channel(p, n).params
            assert abs(q.trace - 1.0) < 1e-12

    @given(valid_params_st(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_composition(self, p, m, n):
        once = apply_power_channel(apply_power_channel(p, m).params, n).params
        direct = apply_power_channel(p, m * n).params
        assert abs(once.a - direct.a) < 1e-10
        assert abs(once.b - direct.b) < 1e-10
        assert abs(once.c - direct.c) < 1e-10
        assert abs(once.d - direct.d) < 1e-10

    @given(
        st.floats(-1, 1),
        st.floats(-1, 1),
        st.floats(0, 1),
        st.floats(0, 1),
        st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_even_power_always_valid(self, a, b, cm, dm, half_n):
        p = XParams(a=a, b=b, c=cm, d=dm)
        if max(abs(a) + dm, abs(b) + cm) < 1e-3:
            return  # essentially the zero matrix; nothing to normalize
        assert validate(apply_power_channel(p, 2 * half_n).params) is None

    def test_odd_power_can_invalidate(self):
        p = XParams(a=0.33, b=0.17, c=0.2, d=0.1)  # not PSD
        res = apply_power_channel(p, 3)
        assert validate(res.params) is StateClass.INVALID_NOT_PSD

    def test_zero_denominator(self):
        # Spectrum (|d|, 0, 0, -|d|): Tr rho^n is exactly 0 at odd n.  At |d| = 1.4e-45,
        # 1e-12 * scale underflows to 0 as well.
        for d, n in ((0.5, 3), (1.401298464324817e-45, 7)):
            with pytest.raises(ZeroDenominatorError):
                apply_power_channel(XParams(a=0.0, b=0.0, c=0.0, d=d), n)

    def test_overflowing_image_raises_overflow(self):
        # Each power is finite, but a sum of two of them is not.
        with pytest.raises(OverflowError, match="not finite"):
            apply_power_channel(XParams(a=1e154, b=-1e154, c=0.0, d=0.0), 2)
        with pytest.raises(OverflowError, match="not finite"):
            apply_power_channel(XParams(a=0.3, b=0.2, c=1e308, d=1e308), 1)

    @given(power_map_inputs_st())
    @example((XParams(a=0.0, b=0.0, c=0.0, d=0.5), 3))  # Tr rho^3 = 0
    @example((XParams(a=0.0, b=0.0, c=0.0, d=1.401298464324817e-45), 7))  # 1e-12 * scale = 0
    @example((XParams(a=1e154, b=-1e154, c=0.0, d=0.0), 2))  # a sum of powers overflows
    @example((XParams(a=0.3, b=0.2, c=1e308, d=-1e308j), 1))
    @example((XParams(a=0.3, b=0.2, c=1e308, d=0.0), 2))  # (0.2 + 1e308)^2 overflows
    # Tr rho^n = 2 (|d| + a)^n - 2 (|d| - a)^n against 1e-12 * scale: inside the band, then out
    @example((XParams(a=1e-13, b=0.0, c=0.0, d=0.5), 1))
    @example((XParams(a=1e-11, b=0.0, c=0.0, d=0.5), 1))
    @example((XParams(a=1e-13, b=0.0, c=0.0, d=0.5), 3))
    @example((XParams(a=1e-11, b=0.0, c=0.0, d=0.5), 3))
    @example((XParams(a=0.33, b=0.17, c=0.2, d=0.1), 2))  # not PSD, but no power is negative
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_as_through_the_spectrum(self, case):
        p, n = case
        assert _outcome(apply_power_channel, p, n) == _outcome(power_channel_via_spectrum, p, n)

    @given(_image_inputs_st())
    @example(([XParams(a=1e154, b=-1e154, c=0.0, d=0.0)], 2))  # a sum of powers overflows
    @example(([XParams(a=0.3, b=0.2, c=1e308, d=-1e308j)], 1))
    @example(([werner(0.9), *EDGE_STATES], 600))
    @settings(max_examples=200, deadline=None)
    def test_image_is_what_the_constructor_builds(self, case):
        # The image skips XParams.__init__; its fields must be what __init__ would
        # have accepted and stored unchanged.
        states, n = case
        for p in states:
            try:
                img = apply_power_channel(p, n).params
            except (ZeroDenominatorError, OverflowError):
                continue
            parts = (img.a, img.b, img.c, img.d)
            assert tuple(map(type, parts)) == (float, float, complex, complex)
            assert all(map(cmath.isfinite, parts))
            twin = XParams(*parts)
            assert (twin, hash(twin), repr(twin)) == (img, hash(img), repr(img))

    def test_bad_power_rejected(self):
        p = werner(0.2)
        for n in (0, -1, 1.5, "2"):
            with pytest.raises((ValueError, TypeError)):
                apply_power_channel(p, n)

    # A plain int >= 1 skips _check_power; everything else still goes through it.
    @pytest.mark.parametrize("n", [0, -1, True, 2.0, np.int64(3), "3"], ids=repr)
    def test_power_check_message(self, n):
        message = f"power must be a positive integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_power_channel(_P, n)

    def test_int_subclass_power_is_accepted(self):
        Power = IntEnum("Power", {"CUBE": 3})
        assert apply_power_channel(_P, Power.CUBE).params == apply_power_channel(_P, 3).params

    @pytest.mark.parametrize("p, n", [
        (XParams(a=1e300, b=1e300, c=0.0, d=0.0), 3),
        (XParams(a=5.0, b=-4.5, c=0.0, d=0.0), 1000),
    ])
    def test_overflowing_power_names_the_state_and_the_power(self, p, n):
        # x**n itself overflows, before any sum; no errno tuple such as (34, ...).
        message = f"an eigenvalue of {p!r} to the power {n} is not finite"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$") as info:
            apply_power_channel(p, n)
        assert info.value.__suppress_context__

    def test_matches_dense_power(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_valid_params(rng)
            n = int(rng.integers(1, 7))
            closed = to_dense(apply_power_channel(p, n).params)
            dense = np.linalg.matrix_power(to_dense(p), n)
            assert_allclose(closed, dense / np.trace(dense).real, atol=1e-10, rtol=0)

    def test_image_stays_x_shaped(self):
        # the dense power has no support outside the X pattern
        rng = np.random.default_rng(23)
        mask = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 0), (3, 3), (1, 1), (2, 2), (0, 3), (3, 0), (1, 2), (2, 1)):
            mask[i, j] = True
        for _ in range(50):
            m = np.linalg.matrix_power(to_dense(random_valid_params(rng)), int(rng.integers(1, 7)))
            m = m / np.trace(m).real
            assert np.max(np.abs(m[~mask])) < 1e-14


def _rows_outcome(states, n):
    """apply_power_channel of each state as the block power map gives it: the image columns
    (0 where Tr rho^n vanishes) and that mask, or the first error's type and message."""
    columns, vanished = [], []
    for p in states:
        try:
            img = apply_power_channel(p, n).params
        except ZeroDenominatorError:
            img = None
        except OverflowError as exc:
            return type(exc), str(exc)
        columns.append((0.0,) * 6 if img is None else _parts(img))
        vanished.append(img is None)
    return np.array(columns, float).reshape(-1, 6).T.view(np.int64).tolist(), vanished


def _block_outcome(states, n):
    """:func:`_rows_outcome` of the block power map, or OverflowError where it refuses the block:
    it names no state, so the sweep makes a refused block again by the scalar map."""
    try:
        images, vanished = _x_power(_x_columns(states), n)
    except OverflowError:
        return OverflowError
    return images.view(np.int64).tolist(), vanished.tolist()


@st.composite
def _cancelling_st(draw) -> XParams:
    """Tr rho^n = 2 ((|d| + a)^n + (a - |d|)^n) at odd n: a / |d| on either side of 1e-12."""
    d = draw(st.floats(0.05, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return XParams(a=draw(st.floats(1e-15, 1e-10)), b=draw(st.sampled_from([0.0, -0.0])),
                   c=0.0, d=d)


_signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def _signed_zeros_st(draw) -> XParams:
    """A -0.0 or 0.0 diagonal beside any other, and coherences on an axis, with signed zeros."""
    zero = draw(_signed_zero)
    other = draw(st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.5]))
    a, b = (zero, other) if draw(st.booleans()) else (other, zero)
    on_axis = st.sampled_from([0.0, -0.0, 0.1, -0.1])
    c, d = (complex(*draw(st.permutations([draw(_signed_zero), draw(on_axis)])))
            for _ in range(2))
    return XParams(a=a, b=b, c=c, d=d)


@st.composite
def _huge_phases_st(draw) -> XParams:
    """A valid state whose coherences are turned by a phase of +-1e300 or +-pi."""
    p = draw(valid_params_st())
    turn = st.sampled_from([1e300, -1e300, math.pi, -math.pi])
    return XParams(a=p.a, b=p.b, c=abs(p.c) * cmath.exp(1j * draw(turn)),
                   d=abs(p.d) * cmath.exp(1j * draw(turn)))


def _block_inputs_st():
    """(states, power): one block of kernel, edge and hostile states, at n up to 600."""
    any_n = st.integers(1, 600)
    odd_n = st.integers(0, 299).map(lambda k: 2 * k + 1)
    edges = st.one_of(st.sampled_from(EDGE_STATES), _huge_phases_st(), _signed_zeros_st())
    return st.one_of(
        st.tuples(kernel_images_st(), any_n),
        st.tuples(st.lists(edges, min_size=1, max_size=8), any_n),
        st.tuples(st.lists(st.one_of(_invalid_st(), _cancelling_st(), _signed_zeros_st(),
                                     valid_params_st()), min_size=1, max_size=8), odd_n),
    )


# Blocks that the power map refuses, as the CLI's HOSTILE sweeps make them: a power, or a sum
# of two, overflows; the first state that does names itself in the error.
HOSTILE_BLOCKS = [
    ([werner(0.5), werner(1e200)], 3),
    ([XParams(a=5.0, b=-4.5, c=c, d=d) for c in (0.0, 0.5) for d in (0.0, 0.5)], 1000),
    ([werner(-5.0), werner(1.0)], 800),
    ([XParams(a=1e300, b=1e300, c=0.0, d=0.0)], 3),
    ([werner(-1e300), werner(1e300)], 2),
    ([werner(0.0), werner(1.0)], 10**400),
    ([XParams(a=0.0, b=0.0, c=0.0, d=0.5), XParams(a=1e154, b=-1e154, c=0.0, d=0.0)], 2),
    ([XParams(a=0.3, b=0.2, c=c, d=d) for c in (0.0, 1e308) for d in (0.0, 1e308)], 1),
]


class TestBlockPowerMap:
    @given(_block_inputs_st())
    @example((EDGE_STATES, 600))
    @example(([XParams(a=0.0, b=0.0, c=0.0, d=1.401298464324817e-45), werner(0.3)], 7))
    @example(([XParams(a=0.0, b=0.0, c=0.0, d=0.5), XParams(a=-0.0, b=0.5, c=0.0, d=0.0)], 3))
    # Tr rho^n against 1e-12 * scale: inside the band, then out, at n = 1 and 3
    @example(([XParams(a=a, b=0.0, c=0.0, d=0.5) for a in (1e-13, 1e-11)], 1))
    @example(([XParams(a=a, b=0.0, c=0.0, d=0.5) for a in (1e-13, 1e-11)], 3))
    @example(([XParams(a=0.3, b=0.2, c=0.1 * cmath.exp(1e300j), d=-0.1j)], 5))
    @example(([XParams(a=0.3, b=0.2, c=complex(-0.0, 0.1), d=complex(0.1, -0.0))], 2))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_map_bit_for_bit(self, case):
        states, n = case
        want = _rows_outcome(states, n)
        assert _block_outcome(states, n) == (OverflowError if want[0] is OverflowError else want)

    # The sweep makes a refused block again by the scalar chain, row by row, so its first
    # refused row raises the scalar map's error (tests/test_cli.py checks the sweeps' lines).
    @pytest.mark.parametrize("states, n", HOSTILE_BLOCKS)
    def test_a_refused_block_raises_the_scalar_maps_error(self, states, n):
        assert _block_outcome(states, n) is OverflowError
        with pytest.raises(OverflowError) as refused:
            cli._public_block(n, states, lambda image: (), 0)
        assert (OverflowError, str(refused.value)) == _rows_outcome(states, n)


def _within_image_bound(got: float, want: Fraction, n: int) -> bool:
    """Whether ``got`` is within README's relative bound on the image's a and b at power n.

    The bound is 2(n + 5) units of 2^-53.  Each eigenvalue rounds once (one
    unit), which its n-th power carries n times, and libm's pow adds under an
    ulp (two units).  a and b are ratios of two sums of such powers, so
    2(n + 2) units, and the sums and the quotient round five more times.
    """
    return abs(Fraction(got) - want) <= Fraction(2 * (n + 5), 2**53) * want


class TestExactImage:
    """The image's a and b hold README's bound against tests/exact.py on PSD states at n <= 64."""

    @given(valid_params_st(), st.integers(1, 64))
    @example(werner(0.5), 64)
    @example(XParams(a=0.25, b=0.25, c=0.0, d=0.0), 64)
    @example(XParams(a=0.3, b=0.2, c=0.2j, d=0.1), 37)  # an eigenvalue at 0
    @example(XParams(a=0.34261296976367217, b=0.15738703023632786,
                     c=-0.05662217911381377 + 0.11351019613161802j,
                     d=0.05119019403006457 - 0.3387671930477438j), 2)  # 2.4 units measured
    @settings(max_examples=200, deadline=None)
    def test_a_and_b(self, p, n):
        cm, dm = abs(p.c), abs(p.d)
        spec = spectrum_exact(p.a, p.b, cm, dm)
        # No eigenvalue below 0, and no power below the normal range, where item 5's
        # underflow starts.
        assume(min(spec) >= 0 and not any(0 < x**n < Fraction(2) ** -1022 for x in spec))
        img = apply_power_channel(p, n).params
        want = image_exact(p.a, p.b, cm, dm, n)
        assert _within_image_bound(img.a, want[0], n), (img.a, float(want[0]))
        assert _within_image_bound(img.b, want[1], n), (img.b, float(want[1]))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: (l2^n - l3^n) / denom cancels at "
                                           "small |c|; 7.1e-6 relative at |c| = 1e-12, n = 5")
    def test_small_coherence_modulus(self):
        p, n = XParams(a=0.3, b=0.2, c=1e-12, d=0.1), 5
        want = image_exact(p.a, p.b, abs(p.c), abs(p.d), n)
        assert _within_image_bound(abs(apply_power_channel(p, n).params.c), want[2], n)

    # Item 5's underflow strata: every power underflows to 0, so Tr rho^n is refused as 0.
    @pytest.mark.xfail(strict=True, raises=ZeroDenominatorError,
                       reason="ROADMAP item 5: 0.25^1000 underflows, so Tr rho^n reads 0")
    def test_the_maximally_mixed_state_at_a_high_power_is_its_own_image(self):
        p = XParams(a=0.25, b=0.25, c=0.0, d=0.0)
        assert apply_power_channel(p, 1000).params == p

    @pytest.mark.xfail(strict=True, raises=ZeroDenominatorError,
                       reason="ROADMAP item 5: 0.4^2000 underflows, so Tr rho^n reads 0")
    def test_an_ordinary_state_at_a_high_power(self):
        p, n = XParams(a=0.3, b=0.2, c=0.1, d=0.1), 2000
        img, want = apply_power_channel(p, n).params, image_exact(p.a, p.b, 0.1, 0.1, n)
        assert _within_image_bound(img.a, want[0], n) and _within_image_bound(img.b, want[1], n)


class TestPpt:
    def test_swaps_coherences(self):
        p = XParams(a=0.33, b=0.17, c=0.1j, d=0.05)
        q = ppt(p)
        assert (q.a, q.b, q.c, q.d) == (0.33, 0.17, 0.05, 0.1j)

    def test_involution(self):
        p = XParams(a=0.3, b=0.2, c=0.1j, d=-0.05)
        assert ppt(ppt(p)) == p

    def test_werner_ppt_spectrum(self):
        lam = sorted(spectrum(ppt(werner(0.5))), reverse=True)
        assert_allclose(lam, (0.375, 0.375, 0.375, -0.125), atol=1e-15, rtol=0)

    def test_mixed_example_ppt_spectrum(self):
        p = XParams(a=0.33, b=0.17, c=0.1j, d=0.05)
        lam = sorted(spectrum(ppt(p)), reverse=True)
        assert_allclose(lam, (0.43, 0.23, 0.22, 0.12), atol=1e-15, rtol=0)


class TestClassify:
    def test_werner_below_threshold(self):
        assert classify(werner(0.2)) is StateClass.SEPARABLE

    def test_werner_above_threshold(self):
        assert classify(werner(0.5)) is StateClass.ENTANGLED

    def test_maximally_mixed(self):
        assert classify(XParams(a=0.25, b=0.25, c=0.0, d=0.0)) is StateClass.SEPARABLE

    def test_boundary_is_separable(self):
        assert classify(werner(1 / 3)) is StateClass.SEPARABLE

    def test_invalid_passes_through(self):
        assert classify(XParams(a=0.4, b=0.2, c=0, d=0)) is StateClass.INVALID_TRACE
        assert classify(XParams(a=0.33, b=0.17, c=0.2, d=0.1)) is StateClass.INVALID_NOT_PSD

    @given(valid_params_st(), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_phase_invariance(self, p, ph_c, ph_d):
        rotated = XParams(
            a=p.a,
            b=p.b,
            c=abs(p.c) * cmath.exp(1j * ph_c),
            d=abs(p.d) * cmath.exp(1j * ph_d),
        )
        assert classify(rotated) is classify(p)


def _across(below, x: float) -> tuple[float, float]:
    """Adjacent floats, near ``x``, where ``below`` turns from true to false as they grow."""
    if below(x):
        while below(up := math.nextafter(x, math.inf)):
            x = up
        return x, up
    while not below(down := math.nextafter(x, -math.inf)):
        x = down
    return down, x


# The margins of classify: a diagonal entry minus the modulus of a coherence
# against -EPS_PSD (a - |d| and b - |c| test positivity, a - |c| and b - |d| the
# partial transpose), and 2(a + b) - 1 against +-EPS_TRACE.
MARGINS = ("a-|d|", "b-|c|", "a-|c|", "b-|d|", "trace+", "trace-")


def _boundary_pair(margin: str, x: float, c: complex, d: complex) -> tuple[XParams, XParams]:
    """Two states one ulp apart, on either side of ``margin``'s boundary.

    The entry in ``margin`` moves and the other diagonal entry is 0.5 minus
    it; for the trace, ``x`` is ``a`` and ``b`` moves.
    """
    if margin.startswith("trace"):
        if margin == "trace+":
            below = lambda b: 2.0 * (x + b) - 1.0 <= EPS_TRACE  # noqa: E731
        else:
            below = lambda b: 2.0 * (x + b) - 1.0 < -EPS_TRACE  # noqa: E731
        start = 0.5 - x + (0.5 if margin == "trace+" else -0.5) * EPS_TRACE
        return tuple(XParams(a=x, b=b, c=c, d=d) for b in _across(below, start))
    m = abs(c if margin.endswith("|c|") else d)
    states = []
    for v in _across(lambda v: v - m < -EPS_PSD, m - EPS_PSD):
        a, b = (v, 0.5 - v) if margin[0] == "a" else (0.5 - v, v)
        states.append(XParams(a=a, b=b, c=c, d=d))
    return tuple(states)


# A modulus m near EPS_PSD would put the boundary v = m - EPS_PSD near 0, where
# the walk to it takes billions of ulps of v.
_coherence = st.builds(lambda m, phase: m * cmath.exp(1j * phase),
                       st.one_of(st.just(0.0), st.floats(0.01, 0.25)),
                       st.floats(0.0, 2.0 * math.pi))


@st.composite
def _boundary_st(draw) -> XParams:
    """A state one ulp to either side of one of classify's boundaries."""
    # An a near 0.5 would do the same to b at the trace boundary.
    pair = _boundary_pair(draw(st.sampled_from(MARGINS)), draw(st.floats(0.125, 0.375)),
                          draw(_coherence), draw(_coherence))
    return pair[draw(st.integers(0, 1))]


class TestColumnarClassify:
    @pytest.mark.parametrize("margin", MARGINS)
    def test_one_ulp_decides(self, margin):
        # The coherence in the margin is the larger, so only that margin is near 0.
        big, small = 0.15 * cmath.exp(0.4j), 0.1 * cmath.exp(-2j)
        c, d = (big, small) if margin.endswith("|c|") else (small, big)
        lo, hi = _boundary_pair(margin, 0.3, c, d)
        assert classify(lo) is not classify(hi)
        index = _x_classify(_x_columns([lo, hi])).tolist()
        assert [list(StateClass)[k] for k in index] == [classify(lo), classify(hi)]

    @given(st.lists(st.one_of(valid_params_st(), clamp_band_params_st(), _invalid_st(),
                              st.sampled_from(EDGE_STATES), _boundary_st()),
                    min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_equals_classify(self, states):
        index = _x_classify(_x_columns(states))
        assert [list(StateClass)[k] for k in index.tolist()] == [classify(p) for p in states]

    def test_empty(self):
        assert _x_classify(_x_columns([])).shape == (0,)

    @given(kernel_images_st())
    @example(EDGE_STATES)
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_ppt_eigenvalues(self, images):
        index = _x_classify(_x_columns(images)).tolist()
        for p, k in zip(images, index):
            m = to_dense(p)
            # Dense eigenvalues are off by about 1e-16: skip a state that close to -EPS_PSD.
            margins = (np.linalg.eigvalsh(partial_transpose(m)).min() + EPS_PSD,
                       np.linalg.eigvalsh(m).min() + EPS_PSD)
            if min(map(abs, margins)) > 1e-14:
                assert classify(p) is list(StateClass)[k] is classify_dense(p)


_finite = st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals included

# States whose real or imaginary parts are -0.0 or subnormal, which the columns must keep.
SIGNED_ZERO_STATES = [
    XParams(a=-0.0, b=0.5, c=complex(-0.0, 0.0), d=complex(0.0, -0.0)),
    XParams(a=0.3, b=5e-324, c=complex(5e-324, -0.0), d=complex(-0.0, -2.2250738585072e-308)),
    XParams(a=0.25, b=-0.0, c=complex(-5e-324, -5e-324), d=complex(-0.0, -0.0)),
]


class TestColumns:
    @staticmethod
    def assert_fields(states):
        # Column k holds state k's a, b, Re c, Im c, Re d and Im d, bit for bit.
        x = _x_columns(states)
        assert (x.shape, x.dtype) == ((6, len(states)), np.float64)
        assert [[v.hex() for v in column] for column in x.T.tolist()] == \
            [[v.hex() for v in _parts(p)] for p in states]

    def test_edge_and_signed_zero_states(self):
        self.assert_fields(EDGE_STATES + SIGNED_ZERO_STATES)
        for p in EDGE_STATES + SIGNED_ZERO_STATES:
            self.assert_fields([p])

    @given(st.lists(st.builds(XParams, _finite, _finite, st.builds(complex, _finite, _finite),
                              st.builds(complex, _finite, _finite)), max_size=8))
    @example([])  # shape (6, 0)
    @settings(max_examples=300, deadline=None)
    def test_drawn_states(self, states):
        self.assert_fields(states)


# |c| or |d| beyond the float range, though every part of it is finite, and each one's class.
_HUGE = complex(1.7e308, 1.7e308)
BEYOND_RANGE = {
    XParams(a=0.3, b=0.2, c=_HUGE, d=0.0): StateClass.INVALID_NOT_PSD,
    XParams(a=0.3, b=0.2, c=0.1, d=-_HUGE): StateClass.INVALID_NOT_PSD,
    XParams(a=0.3, b=0.2, c=_HUGE, d=_HUGE.conjugate()): StateClass.INVALID_NOT_PSD,
    XParams(a=0.9, b=0.9, c=_HUGE, d=0.0): StateClass.INVALID_TRACE,  # tested first
}


class TestModulusBeyondFloatRange:
    @pytest.mark.parametrize("p", BEYOND_RANGE)
    def test_classify_agrees_with_the_columns(self, p):
        with np.errstate(over="ignore"):
            index = _x_classify(_x_columns([p])).tolist()
        assert validate(p) is classify(p) is list(StateClass)[index[0]] is BEYOND_RANGE[p]

    @pytest.mark.parametrize("p", BEYOND_RANGE)
    def test_spectrum_has_inf_entries(self, p):
        lam = spectrum(p)
        assert math.inf in lam and -math.inf in lam
        with np.errstate(over="ignore"):
            columns = _spectrum(*_x_moduli(_x_columns([p])))
        assert lam == tuple(float(col[0]) for col in columns)

    def test_spectrum_keeps_the_finite_pair(self):
        first, second = list(BEYOND_RANGE)[:2]
        assert spectrum(first) == (0.3, math.inf, -math.inf, 0.3)
        assert spectrum(second) == (math.inf, 0.2 + 0.1, 0.2 - 0.1, -math.inf)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", BEYOND_RANGE)
    def test_power_map_raises_its_own_overflow(self, p, n):
        # Not the builtin 'absolute value too large' of abs(p.c).
        with pytest.raises(OverflowError, match=r"^the image of .* is not finite$"):
            apply_power_channel(p, n)

    @pytest.mark.parametrize("measure", [negativity, concurrence])
    def test_measures_raise_invalid_state(self, measure):
        with pytest.raises(InvalidStateError) as info:
            measure(next(iter(BEYOND_RANGE)))
        assert info.value.state_class is StateClass.INVALID_NOT_PSD


class TestWerner:
    def test_parameters(self):
        p = werner(0.5)
        assert_allclose(
            (p.a, p.b, abs(p.c), abs(p.d)), (0.375, 0.125, 0.0, 0.25), atol=1e-15, rtol=0
        )

    def test_spectrum(self):
        assert_allclose(spectrum(werner(0.5)), (0.625, 0.125, 0.125, 0.125), atol=1e-15, rtol=0)

    def test_bell_state_at_one(self):
        p = werner(1.0)
        assert_allclose((p.a, p.b, abs(p.c), abs(p.d)), (0.5, 0.0, 0.0, 0.5), atol=1e-15, rtol=0)

    def test_validity_interval(self):
        assert validate(werner(-1 / 3)) is None
        assert validate(werner(1.0)) is None
        assert validate(werner(-1 / 3 - 1e-6)) is not None
        assert validate(werner(1.0 + 1e-6)) is not None

    def test_ppt_boundary_at_one_third(self):
        lam = spectrum(ppt(werner(1 / 3)))
        assert abs(min(lam)) < 1e-12


class TestThresholds:
    def test_linear_case(self):
        assert_allclose(werner_entanglement_threshold(1), 1 / 3, atol=1e-15, rtol=0)

    def test_square_case(self):
        assert_allclose(werner_entanglement_threshold(2), 0.15470053837925146, atol=1e-15, rtol=0)

    def test_decreasing_in_n(self):
        values = [werner_entanglement_threshold(n) for n in range(1, 10)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] > 0

    def test_classification_flips_at_threshold(self):
        for n in (1, 2, 3, 4, 5):
            p_star = werner_entanglement_threshold(n)
            below = apply_power_channel(werner(p_star - 1e-6), n).params
            above = apply_power_channel(werner(p_star + 1e-6), n).params
            assert classify(below) is StateClass.SEPARABLE
            assert classify(above) is StateClass.ENTANGLED

    def test_lower_branch_even_only(self):
        assert_allclose(
            werner_entanglement_threshold_lower(2), -2.1547005383792515, atol=1e-14, rtol=0
        )
        with pytest.raises(ValueError):
            werner_entanglement_threshold_lower(3)

    def test_powers_beyond_the_float_range_give_the_limits(self):
        # 1 / n of an int is correctly rounded, 0.0 here; float(10**400) would overflow.
        assert werner_entanglement_threshold(10**400) == 0.0
        assert werner_entanglement_threshold_lower(10**400) == -1.0

    @given(st.integers(1, 2**53))
    @example(2**53)
    @example(3)
    def test_int_reciprocal_keeps_the_float_bits(self, n):
        # Below 2**53 an int is an exact float, so 1 / n rounds as 1.0 / n does.
        e = math.expm1(math.log(3.0) * (1.0 / n))
        assert werner_entanglement_threshold(n) == e / (e + 4.0)
        if n % 2 == 0:
            assert werner_entanglement_threshold_lower(n) == 1.0 + 4.0 / (3.0 ** (1.0 / n) - 3.0)

    # README's bound on both thresholds against tests/exact.py: 4 units of 2^-53 relative.
    # Over 20,000 log-uniform n, the worst measured were 3.8 units for the upper one and 3.0
    # for the lower, at the first two examples below.
    def test_within_the_bound_at_small_powers(self):
        for n in range(1, 65):
            self._assert_within_bound(n)

    @given(st.floats(0.0, 300.0).map(lambda t: round(10.0**t)))
    @example(7_900_291_776)
    @example(28_246_076_064)
    @example(10**17)  # the old form 1 - 4 / (3**(1/n) + 3) gave 0 here
    @settings(max_examples=200, deadline=None)
    def test_within_the_bound_at_log_uniform_powers(self, n):
        self._assert_within_bound(n)

    @staticmethod
    def _assert_within_bound(n):
        upper = werner_thresholds_exact(n)[0]
        lower = werner_thresholds_exact(n + n % 2)[1]
        for got, want in ((werner_entanglement_threshold(n), upper),
                          (werner_entanglement_threshold_lower(n + n % 2), lower)):
            assert abs(Fraction(got) - Fraction(want)) <= Fraction(4, 2**53) * abs(
                Fraction(want)), (n, got, want)

    def test_lower_branch_flip(self):
        for n in (2, 4):
            p_low = werner_entanglement_threshold_lower(n)
            inside = apply_power_channel(werner(p_low + 1e-6), n).params
            outside = apply_power_channel(werner(p_low - 1e-6), n).params
            assert classify(inside) is StateClass.SEPARABLE
            assert classify(outside) is StateClass.ENTANGLED
