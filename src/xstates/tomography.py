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

import numpy as np

from .xstate import XParams, require_valid


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


@dataclass(frozen=True)
class TomogramTable:
    """Joint spin-projection probabilities for one direction pair.

    Outcomes are labeled u (up) and d (down) for the first and second qubit
    in that order.
    """

    w_uu: float
    w_ud: float
    w_du: float
    w_dd: float
    dir_a: Direction
    dir_b: Direction

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w_uu, self.w_ud, self.w_du, self.w_dd)


def _pair_coefficients(dir_a: Direction, dir_b: Direction) -> tuple:
    """Everything the closed-form tomogram needs from one direction pair.

    Returns ``(f_plus, f_minus, sin(theta_a) sin(theta_b) / 2,
    e_minus.real, e_minus.imag, e_plus.real, e_plus.imag)`` with
    ``e_minus = e^{i(psi_a - psi_b)}`` and ``e_plus = e^{i(psi_a + psi_b)}``;
    a sweep computes it once per pair and reuses it for every state.
    """
    ca = math.cos(0.5 * dir_a.theta) ** 2
    sa = 1.0 - ca
    cb = math.cos(0.5 * dir_b.theta) ** 2
    sb = 1.0 - cb
    e_minus = cmath.exp(1j * (dir_a.psi - dir_b.psi))
    e_plus = cmath.exp(1j * (dir_a.psi + dir_b.psi))
    return (
        ca * cb + sa * sb,
        ca * sb + sa * cb,
        0.5 * math.sin(dir_a.theta) * math.sin(dir_b.theta),
        e_minus.real, e_minus.imag, e_plus.real, e_plus.imag,
    )


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
    require_valid(p)
    same, cross = _weights(
        p.a, p.b, p.c.real, p.c.imag, p.d.real, p.d.imag, _pair_coefficients(dir_a, dir_b)
    )
    return TomogramTable(
        w_uu=same, w_ud=cross, w_du=cross, w_dd=same, dir_a=dir_a, dir_b=dir_b
    )


def marginals(table: TomogramTable) -> tuple[tuple[float, float], tuple[float, float]]:
    """Single-qubit outcome distributions implied by a joint tomogram."""
    first = (table.w_uu + table.w_ud, table.w_du + table.w_dd)
    second = (table.w_uu + table.w_du, table.w_ud + table.w_dd)
    return first, second


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


def direction_pairs(count: int, seed: int) -> list[tuple[Direction, Direction]]:
    """Reproducible direction pairs for inequality and information sweeps.

    The first half walks a low-discrepancy Kronecker sequence on the
    (theta_a, theta_b, psi_a, psi_b) cube, the rest is drawn from a PRNG
    seeded with ``seed``; the same arguments always give the same list.
    ``count`` must be a positive ``int`` (not a ``bool``).
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    n_grid = (count + 1) // 2
    kronecker = ([math.modf(k * alpha)[0] for alpha in _KRONECKER_ALPHAS]
                 for k in range(1, n_grid + 1))
    drawn = np.random.default_rng(seed).uniform(0.0, 1.0, size=(count - n_grid, 4)).tolist()
    return [_pair_from_unit_cube(x) for x in chain(kronecker, drawn)]
