import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    direction_st,
    random_channel_image,
    random_direction_pair,
    random_valid_params,
    valid_params_st,
)
from oracles import su2_matrix, tomogram_dense_oracle, werner_tomogram
from xstates import (
    Direction,
    InvalidAngleError,
    InvalidStateError,
    XParams,
    ZeroDenominatorError,
    apply_power_channel,
    direction_pairs,
    marginals,
    tomogram,
    werner,
)
from xstates.tomography import _pair_from_unit_cube, _uniforms

HALF_PI = math.pi / 2


class TestDirection:
    def test_defaults(self):
        d = Direction(theta=1.0)
        assert (d.phi, d.psi) == (0.0, 0.0)

    def test_polar_angle_rejected_not_wrapped(self):
        with pytest.raises(InvalidAngleError):
            Direction(theta=-0.1)
        with pytest.raises(InvalidAngleError):
            Direction(theta=math.pi + 1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidAngleError):
            Direction(theta=math.nan)
        with pytest.raises(InvalidAngleError):
            Direction(theta=1.0, psi=math.inf)

    def test_endpoints_allowed(self):
        Direction(theta=0.0)
        Direction(theta=math.pi)


class TestSu2Matrix:
    def test_identity_at_zero(self):
        assert_allclose(su2_matrix(Direction(theta=0.0)), np.eye(2), atol=1e-15, rtol=0)

    def test_antidiagonal_at_pi(self):
        u = su2_matrix(Direction(theta=math.pi))
        assert_allclose(u, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15, rtol=0)

    @given(direction_st())
    @settings(max_examples=100, deadline=None)
    def test_special_unitary(self, d):
        u = su2_matrix(d)
        assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12, rtol=0)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


class TestTomogram:
    def test_table_is_the_four_weights(self):
        t = tomogram(werner(1.0), Direction(0.0), Direction(0.0))
        assert t == (0.5, 0.0, 0.0, 0.5)
        assert type(t)._fields == ("w_uu", "w_ud", "w_du", "w_dd")

    def test_z_axis_reads_diagonal(self):
        p = XParams(a=0.33, b=0.17, c=0.1j, d=0.05)
        t = tomogram(p, Direction(theta=0.0), Direction(theta=0.0))
        assert_allclose(t, (0.33, 0.17, 0.17, 0.33), atol=1e-15, rtol=0)

    def test_maximally_mixed_flat(self):
        p = XParams(a=0.25, b=0.25, c=0.0, d=0.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            da, db = random_direction_pair(rng)
            assert_allclose(tomogram(p, da, db), (0.25,) * 4, atol=1e-14, rtol=0)

    def test_bell_interference_peak(self):
        t = tomogram(werner(1.0), Direction(theta=HALF_PI), Direction(theta=HALF_PI))
        assert_allclose(t, (0.5, 0.0, 0.0, 0.5), atol=1e-15, rtol=0)

    def test_psi_rotates_interference_away(self):
        da = Direction(theta=HALF_PI, psi=HALF_PI)
        db = Direction(theta=HALF_PI)
        assert_allclose(tomogram(werner(1.0), da, db), (0.25,) * 4, atol=1e-14, rtol=0)

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            tomogram(XParams(a=0.33, b=0.17, c=0.2, d=0.1), Direction(0.5), Direction(0.5))

    @pytest.mark.parametrize("psi_b", [1e308, -1e308], ids=["sum", "difference"])
    def test_overflowing_angle_sum_rejected(self, psi_b):
        # Each angle is finite, but psi_a + psi_b or psi_a - psi_b is not.
        with pytest.raises(InvalidAngleError, match="must be finite"):
            tomogram(werner(0.5), Direction(1.0, psi=1e308), Direction(1.0, psi=psi_b))

    @given(valid_params_st(), direction_st(), direction_st())
    @settings(max_examples=150, deadline=None)
    def test_outcome_symmetry_and_normalization(self, p, da, db):
        t = tomogram(p, da, db)
        assert abs(t.w_uu - t.w_dd) < 1e-14
        assert abs(t.w_ud - t.w_du) < 1e-14
        assert abs(sum(t) - 1.0) < 1e-12
        assert all(w >= -1e-12 for w in t)

    @given(valid_params_st(), direction_st(), direction_st())
    @example(werner(1.0), Direction(0.0), Direction(0.0))
    @settings(max_examples=300, deadline=None)
    def test_weights_equal_the_complex_product_form(self, p, da, db):
        # The weights are written in real form; CPython's complex product
        # must give the same bits, in an (s, c, c, s) table.
        ca, cb = math.cos(0.5 * da.theta) ** 2, math.cos(0.5 * db.theta) ** 2
        sa, sb = 1.0 - ca, 1.0 - cb
        e_minus = cmath.exp(1j * (da.psi - db.psi))
        e_plus = cmath.exp(1j * (da.psi + db.psi))
        r = 0.5 * math.sin(da.theta) * math.sin(db.theta) * (p.c * e_minus + p.d * e_plus).real
        same = p.a * (ca * cb + sa * sb) + p.b * (ca * sb + sa * cb) + r
        cross = p.a * (ca * sb + sa * cb) + p.b * (ca * cb + sa * sb) - r
        t = tomogram(p, da, db)
        assert t == (same, cross, cross, same)

    def test_second_euler_angle_has_no_effect(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_valid_params(rng)
            theta_a, theta_b, psi_a, psi_b = rng.uniform(0, math.pi, size=4)
            phi_a, phi_b = rng.uniform(0, 2 * math.pi, size=2)
            plain = tomogram_dense_oracle(
                p, Direction(theta_a, 0.0, psi_a), Direction(theta_b, 0.0, psi_b)
            )
            shifted = tomogram_dense_oracle(
                p, Direction(theta_a, phi_a, psi_a), Direction(theta_b, phi_b, psi_b)
            )
            assert_allclose(plain, shifted, atol=1e-12, rtol=0)

    def test_matches_dense_oracle(self):
        # closed form vs dense rotation across states, images, and directions
        rng = np.random.default_rng(77)
        for k in range(1000):
            p = random_valid_params(rng) if k % 2 == 0 else random_channel_image(rng)
            da, db = random_direction_pair(rng)
            closed = tomogram(p, da, db)
            dense = tomogram_dense_oracle(p, da, db)
            assert_allclose(closed, dense, atol=1e-12, rtol=0)


class TestMarginals:
    def test_half_half_for_valid_states(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t = tomogram(random_valid_params(rng), *random_direction_pair(rng))
            first, second = marginals(t)
            assert_allclose(first, (0.5, 0.5), atol=1e-12, rtol=0)
            assert_allclose(second, (0.5, 0.5), atol=1e-12, rtol=0)

    def test_sums(self):
        t = tomogram(werner(0.8), Direction(theta=0.3, psi=1.0), Direction(theta=2.0))
        first, second = marginals(t)
        assert_allclose(first[0], t.w_uu + t.w_ud, atol=1e-15, rtol=0)
        assert_allclose(second[0], t.w_uu + t.w_du, atol=1e-15, rtol=0)


class TestDirectionPairs:
    def test_deterministic(self):
        assert direction_pairs(8, 5) == direction_pairs(8, 5)

    def test_seed_changes_random_tail_only(self):
        a = direction_pairs(8, 1)
        b = direction_pairs(8, 2)
        assert a[:4] == b[:4]
        assert a[4:] != b[4:]

    def test_angles_in_range(self):
        for da, db in direction_pairs(64, 0):
            for d in (da, db):
                assert 0.0 <= d.theta <= math.pi

    def test_count_validated(self):
        for count in (0, -1, 3.0, 2.5, "3", True, False, None):
            with pytest.raises(ValueError, match="count must be a positive integer"):
                direction_pairs(count, 0)

    def test_seed_validated(self):
        # None would draw from OS entropy and True would act as seed 1.
        for seed in (None, True, False, -1, 1.5, "3"):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                direction_pairs(3, seed)

    def test_tail_is_numpy_stream(self):
        cube = np.random.default_rng(7).uniform(0.0, 1.0, size=(4, 4)).tolist()
        assert direction_pairs(9, 7)[5:] == [_pair_from_unit_cube(x) for x in cube]


def numpy_uniforms(seed: int, k: int) -> list[str]:
    return [x.hex() for x in np.random.default_rng(seed).uniform(0.0, 1.0, size=k).tolist()]


class TestUniforms:
    """The seeded draws are numpy's PCG64 ``uniform`` stream, compared as ``float.hex``."""

    # Seeds above 2**128 have more than four 32-bit words, so the pool mixes in the rest;
    # 2**256 - 1 has eight full words, and a ninth, zero word would change the pool.
    @given(st.integers(0, 2**300), st.integers(0, 300))
    @example(2**300, 300)
    @example(2**256 - 1, 3)
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, seed, k):
        assert [x.hex() for x in _uniforms(seed, k)] == numpy_uniforms(seed, k)

    # The first three draws, from seeds of 1, 1, 1, 2, 3 and 5 little-endian 32-bit words.
    @pytest.mark.parametrize("seed, expected", [
        (0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"]),
        (1, ["0x1.060d7be6f245cp-1", "0x1.e6a32d7782a55p-1", "0x1.273d27b04760cp-3"]),
        (2**32 - 1, ["0x1.01fd7ea4c363ep-2", "0x1.c0a59175cb424p-3", "0x1.262df73ba3636p-2"]),
        (2**32, ["0x1.c78bd7c50b582p-1", "0x1.1d4132d1fc63bp-1", "0x1.9a109ff09b1bdp-1"]),
        (2**64, ["0x1.cc0542cb8f230p-2", "0x1.906d382019ab4p-2", "0x1.276873df88cbbp-1"]),
        (2**128, ["0x1.5ab98be352f88p-1", "0x1.f1a30952d2850p-3", "0x1.39391ab428710p-1"]),
    ], ids=["0", "1", "2**32-1", "2**32", "2**64", "2**128"])
    def test_exact_draws(self, seed, expected):
        assert [x.hex() for x in _uniforms(seed, 3)] == expected
        assert numpy_uniforms(seed, 3) == expected


class TestWernerTomogram:
    def test_flat_at_zero_weight(self):
        t = werner_tomogram(0.0, 3, Direction(theta=1.0), Direction(theta=2.0))
        assert_allclose(t, (0.25,) * 4, atol=1e-15, rtol=0)

    def test_z_axis_reads_image_diagonal(self):
        t = werner_tomogram(0.5, 1, Direction(theta=0.0), Direction(theta=0.0))
        assert_allclose(t, (0.375, 0.125, 0.125, 0.375), atol=1e-15, rtol=0)

    def test_bell_peak(self):
        t = werner_tomogram(1.0, 1, Direction(theta=HALF_PI), Direction(theta=HALF_PI))
        assert_allclose(t, (0.5, 0.0, 0.0, 0.5), atol=1e-15, rtol=0)

    def test_agrees_with_channel_pipeline(self):
        rng = np.random.default_rng(21)
        weights = list(np.linspace(-1 / 3 + 1e-3, 1.0, 9))
        for n in range(1, 7):
            for p in weights + ([-2.0, 1.7] if n % 2 == 0 else []):
                da, db = random_direction_pair(rng)
                direct = werner_tomogram(p, n, da, db)
                image = apply_power_channel(werner(p), n).params
                assert_allclose(direct, tomogram(image, da, db), atol=1e-12, rtol=0)

    def test_invalid_image_rejected(self):
        with pytest.raises(InvalidStateError):
            werner_tomogram(1.5, 3, Direction(theta=1.0), Direction(theta=1.0))

    def test_vanishing_normalization(self):
        root = 3.0 ** (1.0 / 3.0)
        p_zero = -(1.0 + root) / (3.0 - root)  # (1+3p)^3 + 3(1-p)^3 = 0
        with pytest.raises((ZeroDenominatorError, InvalidStateError)):
            werner_tomogram(p_zero, 3, Direction(theta=1.0), Direction(theta=1.0))

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError):
            werner_tomogram(0.5, 0, Direction(theta=1.0), Direction(theta=1.0))
