"""Spin tomograms of X states: joint outcome probabilities along rotated axes.

Measurement directions are parameterized by Euler angles of local SU(2)
rotations.  For X states the tomogram depends on the polar angles and on the
third Euler angles only; the second angle cancels and is kept just for
completeness of the rotation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .xstate import XParams, _valid_moduli


class InvalidAngleError(ValueError):
    """Raised for a polar angle outside [0, pi] or a non-finite angle."""


@dataclass(frozen=True)
class Direction:
    """Measurement axis for one qubit, as Euler angles (theta, phi, psi).

    ``theta`` is the polar angle and must lie in [0, pi]; out-of-range
    values are rejected rather than wrapped.
    """

    theta: float
    phi: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "psi", float(self.psi))
        if not all(math.isfinite(x) for x in (self.theta, self.phi, self.psi)):
            raise InvalidAngleError(f"angles must be finite, got {self}")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidAngleError(f"theta must lie in [0, pi], got {self.theta}")


class TomogramTable(NamedTuple):
    """Joint spin-projection probabilities for one direction pair.

    Outcomes are labeled u (up) and d (down) for the first and second qubit
    in that order.
    """

    w_uu: float
    w_ud: float
    w_du: float
    w_dd: float


# Pair coefficients by (id(dir_a), id(dir_b)): an entry holds its two Direction
# objects, so their ids stay theirs while it stands.  Cleared when full; threads
# racing on that can only overshoot the bound by a few entries or drop some.
_PAIRS: dict[tuple[int, int], tuple] = {}
_PAIRS_MAX = 256


def _pair_coefficients(dir_a: Direction, dir_b: Direction) -> tuple:
    """Everything the closed-form tomogram needs from one direction pair.

    Returns ``(f_plus, f_minus, sin(theta_a) sin(theta_b) / 2,
    e_minus.real, e_minus.imag, e_plus.real, e_plus.imag)`` with
    ``e_minus = e^{i(psi_a - psi_b)}`` and ``e_plus = e^{i(psi_a + psi_b)}``;
    a sweep computes it once per pair and reuses it for every state, and a
    pair of ``Direction`` objects seen lately is read from ``_PAIRS``.  Raises
    :class:`InvalidAngleError` when ``psi_a - psi_b`` or ``psi_a + psi_b``
    overflows.
    """
    key = (id(dir_a), id(dir_b))
    hit = _PAIRS.get(key)
    if hit is not None and hit[0] is dir_a and hit[1] is dir_b:
        return hit[2]
    psi_minus, psi_plus = dir_a.psi - dir_b.psi, dir_a.psi + dir_b.psi
    if not (math.isfinite(psi_minus) and math.isfinite(psi_plus)):
        raise InvalidAngleError(f"psi_a - psi_b and psi_a + psi_b must be finite,"
                                f" got {psi_minus} and {psi_plus}")
    ca = math.cos(0.5 * dir_a.theta) ** 2
    sa = 1.0 - ca
    cb = math.cos(0.5 * dir_b.theta) ** 2
    sb = 1.0 - cb
    e_minus = cmath.exp(1j * psi_minus)
    e_plus = cmath.exp(1j * psi_plus)
    coefficients = (
        ca * cb + sa * sb,
        ca * sb + sa * cb,
        0.5 * math.sin(dir_a.theta) * math.sin(dir_b.theta),
        e_minus.real, e_minus.imag, e_plus.real, e_plus.imag,
    )
    if dir_a.__class__ is Direction and dir_b.__class__ is Direction:  # frozen: cannot change
        if len(_PAIRS) >= _PAIRS_MAX:
            _PAIRS.clear()
        _PAIRS[key] = (dir_a, dir_b, coefficients)
    return coefficients


def _weights(a, b, c_re, c_im, d_re, d_im, coefficients):
    """The two distinct tomogram weights ``(w_uu, w_ud)`` of an X state.

    The state comes as six reals, so one expression serves a single state
    (floats) and a column of states against arrays of pair coefficients
    (numpy broadcasting).  ``Re(c e)`` is written out as
    ``c.re e.re - c.im e.im``, which rounds as CPython's complex product
    does; numpy's complex product does not.  No validity check: the caller
    vouches for the state.
    """
    f_plus, f_minus, sin_sin, em_re, em_im, ep_re, ep_im = coefficients
    r = sin_sin * ((c_re * em_re - c_im * em_im) + (d_re * ep_re - d_im * ep_im))
    same = a * f_plus + b * f_minus + r
    cross = a * f_minus + b * f_plus - r
    return same, cross


def tomogram(p: XParams, dir_a: Direction, dir_b: Direction) -> TomogramTable:
    """Closed-form joint tomogram of a valid X state.

    The four probabilities mix (a, b) through products of squared half-angle
    cosines/sines, plus one interference term fed by the coherences:

        w_uu = w_dd = a f+ + b f- + r,
        w_ud = w_du = a f- + b f+ - r,
        r = sin(theta_a) sin(theta_b)
            * Re(c e^{i(psi_a - psi_b)} + d e^{i(psi_a + psi_b)}) / 2.

    The second Euler angles drop out entirely.
    """
    _valid_moduli(p)
    same, cross = _weights(
        p.a, p.b, p.c.real, p.c.imag, p.d.real, p.d.imag, _pair_coefficients(dir_a, dir_b)
    )
    return tuple.__new__(TomogramTable, (same, cross, cross, same))


def marginals(table: TomogramTable) -> tuple[tuple[float, float], tuple[float, float]]:
    """Single-qubit outcome distributions implied by a joint tomogram."""
    uu, ud, du, dd = table
    return (uu + ud, du + dd), (uu + du, ud + dd)


# Kronecker sequence generators for the deterministic half of direction sets.
_KRONECKER_ALPHAS = (
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
    math.sqrt(5.0) - 2.0,
    math.sqrt(7.0) - 2.0,
)


def _pair_from_unit_cube(x: list[float]) -> tuple[Direction, Direction]:
    # arccos maps a uniform variate to a sphere-uniform polar angle
    theta_a = math.acos(1.0 - 2.0 * x[0])
    theta_b = math.acos(1.0 - 2.0 * x[1])
    psi_a = 2.0 * math.pi * x[2]
    psi_b = 2.0 * math.pi * x[3]
    return Direction(theta=theta_a, psi=psi_a), Direction(theta=theta_b, psi=psi_b)


# numpy's SeedSequence and PCG64 constants, for the seeded half of direction sets.
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _uniforms(seed: int, k: int) -> list[float]:
    """``numpy.random.default_rng(seed).uniform(0.0, 1.0, size=k).tolist()``, bit for bit.

    numpy's SeedSequence hashes the seed's little-endian 32-bit words into a pool
    of four, and the pool into PCG64's 128-bit state and increment.  Each draw
    steps the state and keeps the top 53 bits of its XSL-RR output.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length() or 1, 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int, multiplier: int = 0x931E8875) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(max(4, len(words))):  # the pool's own words, then the seed's others
        source = pool[src] if src < 4 else words[src]
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(source))
    hash_const = 0x8B51F9DD
    w = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]  # generate_state(8, uint32)
    initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 | 1  # bit 128 drops out below
    state = ((inc + initstate) * _PCG64_MULTIPLIER + inc) & _MASK128  # step, add, step
    drawn = []
    for _ in range(k):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        drawn.append((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0**-53)
    return drawn


def direction_pairs(count: int, seed: int) -> list[tuple[Direction, Direction]]:
    """Reproducible direction pairs for inequality and information sweeps.

    The first half walks a low-discrepancy Kronecker sequence on the
    (theta_a, theta_b, psi_a, psi_b) cube, the rest takes four numbers a pair
    from numpy's ``default_rng(seed).uniform(0.0, 1.0)`` stream, made here bit
    for bit without numpy; the same arguments always give the same list.
    ``count`` must be a positive ``int`` and ``seed`` a non-negative one
    (neither a ``bool``).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    n_grid = (count + 1) // 2
    kronecker = ([math.modf(k * alpha)[0] for alpha in _KRONECKER_ALPHAS]
                 for k in range(1, n_grid + 1))
    u = _uniforms(seed, 4 * (count - n_grid))
    drawn = (u[i:i + 4] for i in range(0, len(u), 4))
    return [_pair_from_unit_cube(x) for x in chain(kronecker, drawn)]
