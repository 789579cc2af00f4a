import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    EDGE_STATES,
    kernel_images_st,
    random_channel_image,
    random_separable_params,
    random_valid_params,
    valid_params_st,
)
from oracles import spin_flip
from xstates import (
    InvalidStateError,
    StateClass,
    XParams,
    apply_power_channel,
    classify,
    concurrence,
    negativity,
    ppt,
    spectrum,
    to_dense,
    werner,
)
from xstates.entanglement import _x_entanglement
from xstates.xstate import _x_columns


class TestNegativity:
    def test_werner_values(self):
        assert_allclose(negativity(werner(0.5)), 1.25, atol=1e-15, rtol=0)
        assert_allclose(negativity(werner(1.0)), 2.0, atol=1e-15, rtol=0)

    def test_separable_states_sit_at_one(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            assert_allclose(negativity(random_separable_params(rng)), 1.0, atol=1e-12, rtol=0)

    def test_matches_dense_trace_norm(self):
        rng = np.random.default_rng(72)
        for _ in range(200):
            p = random_valid_params(rng)
            trace_norm = np.abs(np.linalg.eigvalsh(to_dense(ppt(p)))).sum()
            assert_allclose(negativity(p), trace_norm, atol=1e-10, rtol=0)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidStateError):
            negativity(XParams(a=0.33, b=0.17, c=0.2, d=0.1))

    @given(valid_params_st(), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_phase_invariance(self, p, ph_c, ph_d):
        rotated = XParams(
            a=p.a,
            b=p.b,
            c=abs(p.c) * cmath.exp(1j * ph_c),
            d=abs(p.d) * cmath.exp(1j * ph_d),
        )
        assert abs(negativity(rotated) - negativity(p)) < 1e-12


class TestSpinFlip:
    def test_every_x_state_is_its_own_flip(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            p = random_valid_params(rng)
            q = spin_flip(p)
            assert_allclose(
                (q.a, q.b, q.c, q.d), (p.a, p.b, p.c, p.d), rtol=0.0, atol=1e-15
            )

    def test_fixed_point_survives_dense_comparison(self):
        p = XParams(a=0.3, b=0.2, c=0.12 * cmath.exp(0.7j), d=0.21 * cmath.exp(-1.1j))
        assert_allclose(to_dense(spin_flip(p)), to_dense(p), atol=1e-15, rtol=0)


class TestConcurrence:
    def test_maximally_mixed(self):
        assert concurrence(XParams(a=0.25, b=0.25, c=0.0, d=0.0)) == 0.0

    def test_werner_values(self):
        assert_allclose(concurrence(werner(0.5)), 0.25, atol=1e-15, rtol=0)
        assert_allclose(concurrence(werner(1.0)), 1.0, atol=1e-15, rtol=0)

    def test_separable_states_vanish(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            assert concurrence(random_separable_params(rng)) <= 1e-12

    def test_matches_dense_root_spectrum(self):
        # concurrence from the eigenvalues of rho * spin_flip(rho), densely
        rng = np.random.default_rng(75)
        for _ in range(200):
            p = random_valid_params(rng)
            m = to_dense(p)
            product = m @ to_dense(spin_flip(p))
            evals = np.linalg.eigvalsh(product)
            roots = sorted((math.sqrt(max(x, 0.0)) for x in evals), reverse=True)
            expected = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
            assert_allclose(concurrence(p), expected, atol=1e-10, rtol=0)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidStateError):
            concurrence(XParams(a=0.5, b=0.1, c=0.0, d=0.0))

    @given(valid_params_st(), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_phase_invariance(self, p, ph_c, ph_d):
        rotated = XParams(
            a=p.a,
            b=p.b,
            c=abs(p.c) * cmath.exp(1j * ph_c),
            d=abs(p.d) * cmath.exp(1j * ph_d),
        )
        assert abs(concurrence(rotated) - concurrence(p)) < 1e-12


class TestMeasureConsistency:
    def test_entangled_iff_negativity_above_one_iff_concurrence_positive(self):
        rng = np.random.default_rng(76)
        for k in range(500):
            p = random_valid_params(rng) if k % 2 == 0 else random_channel_image(rng)
            entangled = classify(p) is StateClass.ENTANGLED
            assert entangled == (negativity(p) > 1.0 + 1e-12)
            assert entangled == (concurrence(p) > 1e-12)

    def test_channel_amplifies_werner_measures(self):
        for p in np.linspace(0.4, 1.0, 7):
            neg = []
            conc = []
            for n in range(1, 6):
                image = apply_power_channel(werner(p), n).params
                neg.append(negativity(image))
                conc.append(concurrence(image))
            assert all(y >= x - 1e-12 for x, y in zip(neg, neg[1:]))
            assert all(y >= x - 1e-12 for x, y in zip(conc, conc[1:]))


class TestEntanglementReport:
    """Class, measures and PPT spectrum of one state, each from its own public call."""

    def test_separable_werner(self):
        p = werner(0.2)
        assert classify(p) is StateClass.SEPARABLE
        assert_allclose(negativity(p), 1.0, atol=1e-12, rtol=0)
        assert concurrence(p) <= 1e-12
        assert min(spectrum(ppt(p))) >= -1e-12

    def test_channel_image(self):
        image = apply_power_channel(werner(0.5), 2).params
        assert classify(image) is StateClass.ENTANGLED
        assert_allclose(negativity(image), 25 / 14, atol=1e-12, rtol=0)
        assert_allclose(concurrence(image), 2 * (12 / 28 - 1 / 28), atol=1e-12, rtol=0)
        assert_allclose(
            sorted(spectrum(ppt(image)), reverse=True),
            (13 / 28, 13 / 28, 13 / 28, -11 / 28),
            atol=1e-12,
            rtol=0,
        )


class TestXEntanglement:
    @given(kernel_images_st())
    @example(EDGE_STATES)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_measures_exactly(self, images):
        neg, conc = _x_entanglement(_x_columns(images))
        # float.hex also tells -0.0 from 0.0, which print differently.
        assert list(map(float.hex, neg.tolist())) == [negativity(p).hex() for p in images]
        assert list(map(float.hex, conc.tolist())) == [concurrence(p).hex() for p in images]

    def test_no_states(self):
        neg, conc = _x_entanglement(_x_columns([]))
        assert neg.shape == conc.shape == (0,)
