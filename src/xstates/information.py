"""Entropies and mutual information, von Neumann and tomographic.

All logarithms are natural.  The quantum mutual information of a valid X
state is ln 4 - S(rho) because both marginals are maximally mixed; the
tomographic (Shannon) mutual information of any measured direction pair is
bounded by it from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .xstate import (
    EPS_PSD,
    EPS_TRACE,
    XParams,
    apply_power_channel,
    require_valid,
    spectrum,
    werner,
)
from .tomography import Direction, TomogramTable, _weights, marginals, tomogram

# Slack allowed before an inequality counts as violated.
INEQ_TOL = 1e-10


class InvalidSpectrumError(ValueError):
    """Raised for eigenvalue/probability sets that are not a distribution."""


@dataclass(frozen=True)
class InfoReport:
    """Von Neumann entropies of the pair and its marginals."""

    s12: float
    s1: float
    s2: float
    i_n: float


@dataclass(frozen=True)
class ShannonReport:
    """Shannon entropies of one measured tomogram."""

    h12: float
    h1: float
    h2: float
    i_s: float


@dataclass(frozen=True)
class InequalityCheck:
    """Information inequalities evaluated for one direction pair."""

    i_s: float
    i_n: float
    i_s_le_i_n: bool
    i_s_nonnegative: bool
    i_n_nonnegative: bool
    subadditive: bool


def von_neumann_entropy(eigenvalues: Sequence[float]) -> float:
    """Entropy -sum(lam ln lam) of an eigenvalue distribution, in nats."""
    # 0 ln 0 = 0, after clamping [-EPS_PSD, 0) to exactly 0.
    total = 0.0
    acc = 0.0
    for x in eigenvalues:
        if x < -EPS_PSD:
            raise InvalidSpectrumError(f"negative weight {x} below tolerance")
        if x < 0.0:
            x = 0.0
        total += x
        if x > 0.0:
            acc -= x * math.log(x)
    if not abs(total - 1.0) <= EPS_TRACE:  # NaN fails too
        raise InvalidSpectrumError(f"weights sum to {total}, expected 1")
    return acc


def system_entropies(p: XParams) -> InfoReport:
    """Joint and marginal entropies of a valid X state.

    The marginal entropies are computed from the reduced diagonals; for any
    trace-normalized X state they equal ln 2.
    """
    require_valid(p)
    s12 = von_neumann_entropy(spectrum(p))
    q = p.a + p.b
    s1 = von_neumann_entropy((q, q))
    s2 = s1
    return InfoReport(s12=s12, s1=s1, s2=s2, i_n=s1 + s2 - s12)


def werner_mutual_information(p: float, n: int) -> float:
    """Quantum mutual information of the power-map image of a Werner state.

    The general X-state chain at ``werner(p)``: the power map, then
    :func:`system_entropies`.  Requires the image to be a genuine state;
    equals ln 4 at p = 1 for every n.
    """
    return system_entropies(apply_power_channel(werner(p), n).params).i_n


def shannon_report_from_table(table: TomogramTable) -> ShannonReport:
    """Shannon entropies of an already-computed tomogram."""
    h12 = von_neumann_entropy(table)
    first, second = marginals(table)
    h1 = von_neumann_entropy(first)
    h2 = von_neumann_entropy(second)
    return ShannonReport(h12=h12, h1=h1, h2=h2, i_s=h1 + h2 - h12)


def _xlogx(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with weights <= 0 set to 0, and ``x ln x`` of that, elementwise.

    Raises :class:`InvalidSpectrumError` for a weight below ``-EPS_PSD``, as
    :func:`von_neumann_entropy` does.  The logarithm is libm's ``math.log``
    per element, as there; a zero weight takes ``ln 1 = 0``.
    """
    if x.size and x.min() < -EPS_PSD:
        raise InvalidSpectrumError(f"negative weight {x.min()} below tolerance")
    positive = x > 0.0
    clamped = np.where(positive, x, 0.0)
    logs = map(math.log, np.where(positive, x, 1.0).ravel().tolist())
    return clamped, clamped * np.fromiter(logs, float, x.size).reshape(x.shape)


def _entropy(terms: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """:func:`von_neumann_entropy` elementwise, of weights given in order as :func:`_xlogx` pairs.

    The weight sums and the entropies accumulate in von_neumann_entropy's
    order, so each entry equals it bit for bit, and the unit-sum check is
    the same.
    """
    total = acc = 0.0
    for clamped, xlogx in terms:
        total = total + clamped
        acc = acc - xlogx
    off = np.abs(total - 1.0)
    if off.size and off.max() > EPS_TRACE:
        raise InvalidSpectrumError(f"weights sum to {total.flat[off.argmax()]}, expected 1")
    return acc


def _x_entropies(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``S(rho)`` and ``I_n`` of valid X states, one entry per state.

    ``x`` holds the states as :func:`~xstates.xstate._x_columns` builds them.
    Each entry equals ``system_entropies(p).s12`` and ``.i_n`` bit for bit.
    No validity check: the caller vouches for the states.
    """
    a, b, cm, dm = x[0], x[1], np.hypot(x[2], x[3]), np.hypot(x[4], x[5])
    s12 = _entropy(map(_xlogx, (a + dm, b + cm, b - cm, a - dm)))
    q = _xlogx(a + b)
    s1 = _entropy((q, q))
    return s12, s1 + s1 - s12


def _x_information(x: np.ndarray, coefficients: Sequence[tuple]) -> np.ndarray:
    """Tomographic information of X states, one row per state, one column per pair.

    ``x`` holds the states as :func:`~xstates.xstate._x_columns` builds them
    and ``coefficients`` the :func:`~xstates.tomography._pair_coefficients`
    of each pair.  Entry ``[i, k]`` is the public chain's ``i_s`` of state
    ``i`` and pair ``k``, bit for bit: numpy's ``+ - *`` round as Python
    floats do, and the entropies come from :func:`_entropy`.  Both marginals
    are ``(same + cross, cross + same)``, so one entropy serves for both.
    No validity check: the caller vouches for the states.
    """
    same, cross = _weights(*x[:, :, None], np.array(coefficients, dtype=float).T)
    s, c, u = _xlogx(same), _xlogx(cross), _xlogx(same + cross)
    h12 = _entropy((s, c, c, s))
    h1 = _entropy((u, u))
    return h1 + h1 - h12


def check_inequalities(
    p: XParams, pairs: Iterable[tuple[Direction, Direction]]
) -> list[InequalityCheck]:
    """Evaluate the information inequalities for each direction pair.

    Returns one record per pair, in the order of ``pairs``.  A violation
    beyond INEQ_TOL is reported in the records, not raised; for genuine
    states none is expected.
    """
    info = system_entropies(p)
    out = []
    for dir_a, dir_b in pairs:
        rep = shannon_report_from_table(tomogram(p, dir_a, dir_b))
        out.append(
            InequalityCheck(
                i_s=rep.i_s,
                i_n=info.i_n,
                i_s_le_i_n=rep.i_s <= info.i_n + INEQ_TOL,
                i_s_nonnegative=rep.i_s >= -INEQ_TOL,
                i_n_nonnegative=info.i_n >= -INEQ_TOL,
                subadditive=info.s1 + info.s2 >= info.s12 - INEQ_TOL,
            )
        )
    return out
