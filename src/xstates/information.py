"""Entropies and mutual information, von Neumann and tomographic.

All logarithms are natural.  The quantum mutual information of a valid X
state is ln 4 - S(rho) because both marginals are maximally mixed; the
tomographic (Shannon) mutual information of any measured direction pair is
bounded by it from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .xstate import (
    EPS_PSD,
    EPS_TRACE,
    XParams,
    _spectrum,
    _valid_moduli,
    _x_moduli,
)
from .tomography import TomogramTable, _weights, marginals

if TYPE_CHECKING:
    import numpy as np


class InvalidSpectrumError(ValueError):
    """Raised for eigenvalue/probability sets that are not a distribution."""


@dataclass(frozen=True, slots=True)
class InfoReport:
    """Von Neumann entropies of the pair and its marginals."""

    s12: float
    s1: float
    s2: float
    i_n: float


@dataclass(frozen=True, slots=True)
class ShannonReport:
    """Shannon entropies of one measured tomogram."""

    h12: float
    h1: float
    h2: float
    i_s: float


# The slots' own setters, which build a report without the generated __init__.
(_SET_S12, _SET_S1, _SET_S2, _SET_I_N), (_SET_H12, _SET_H1, _SET_H2, _SET_I_S) = (
    [vars(cls)[name].__set__ for name in cls.__slots__] for cls in (InfoReport, ShannonReport))


def von_neumann_entropy(eigenvalues: Sequence[float]) -> float:
    """Entropy -sum(lam ln lam) of an eigenvalue distribution, in nats."""
    # 0 ln 0 = 0, and [-EPS_PSD, 0) is clamped to exactly 0: neither adds to a sum.
    total = 0.0
    acc = 0.0
    for x in eigenvalues:
        if x > 0.0:
            total += x
            acc -= x * math.log(x)
        elif x < -EPS_PSD:
            raise InvalidSpectrumError(f"negative weight {x} below tolerance")
        elif x != x:  # NaN
            total += x
    if not abs(total - 1.0) <= EPS_TRACE:  # NaN fails too
        raise InvalidSpectrumError(f"weights sum to {total}, expected 1")
    return acc


def _spectrum_entropy(weights: tuple[float, float, float, float]) -> float:
    """``von_neumann_entropy`` of four weights, unrolled where all are positive.

    The closed form is the loop's arithmetic in the loop's order, total
    ``((l1 + l2) + l3) + l4`` and entropy ``(((0.0 - t1) - t2) - t3) - t4``,
    so its bits are the loop's.  Weights with a zero, clamp-band or NaN
    entry, or a sum off 1, go to the loop, which clamps or raises as ever.
    """
    l1, l2, l3, l4 = weights
    if (l1 > 0.0 and l2 > 0.0 and l3 > 0.0 and l4 > 0.0
            and abs(l1 + l2 + l3 + l4 - 1.0) <= EPS_TRACE):
        return ((((0.0 - l1 * math.log(l1)) - l2 * math.log(l2)) - l3 * math.log(l3))
                - l4 * math.log(l4))
    return von_neumann_entropy(weights)


def _twin_entropy(q: float) -> float:
    """``von_neumann_entropy((q, q))``, from one logarithm, or none at ``q = 1/2``.

    The closed form is the loop's arithmetic in the loop's order, total
    ``q + q`` and entropy ``(0.0 - t) - t``, so its bits are the loop's.
    A sum within ``EPS_TRACE`` of 1 makes ``q`` positive; any other ``q``,
    NaN included, goes to the loop, which raises as it always has.
    """
    if q == 0.5:  # a trace-normalized state's marginal, most often exactly
        return _HALF_ENTROPY
    if abs((q + q) - 1.0) <= EPS_TRACE:
        t = q * math.log(q)
        return (0.0 - t) - t
    return von_neumann_entropy((q, q))


_HALF_ENTROPY = von_neumann_entropy((0.5, 0.5))


def system_entropies(p: XParams) -> InfoReport:
    """Joint and marginal entropies of a valid X state.

    The marginal entropies are computed from the reduced diagonals; for any
    trace-normalized X state they equal ln 2.
    """
    cm, dm = _valid_moduli(p)
    s12 = _spectrum_entropy(_spectrum(p.a, p.b, cm, dm))
    s1 = _twin_entropy(p.a + p.b)
    report = object.__new__(InfoReport)
    _SET_S12(report, s12)
    _SET_S1(report, s1)
    _SET_S2(report, s1)
    _SET_I_N(report, s1 + s1 - s12)
    return report


def shannon_report_from_table(table: TomogramTable) -> ShannonReport:
    """Shannon entropies of an already-computed tomogram.

    A :func:`~xstates.tomography.tomogram` table ``(s, c, c, s)`` with
    ``s, c > 0`` takes two logarithms for ``h12`` and at most one for ``h1 = h2``,
    whose marginals are both ``(s + c, s + c)``; any other table takes
    :func:`von_neumann_entropy` of its weights and of each marginal.  Both
    give the same bits and errors.
    """
    s, c, c2, s2 = table
    # The loop's sums, left to right; a sum off 1 goes to the loop, which raises.
    if s > 0.0 and c > 0.0 and s == s2 and c == c2 and abs(s + c + c + s - 1.0) <= EPS_TRACE:
        ts, tc = s * math.log(s), c * math.log(c)
        h12 = (((0.0 - ts) - tc) - tc) - ts
        h1 = h2 = _twin_entropy(s + c)
    else:
        h12 = von_neumann_entropy(table)
        first, second = marginals(table)
        h1, h2 = von_neumann_entropy(first), von_neumann_entropy(second)
    report = object.__new__(ShannonReport)
    _SET_H12(report, h12)
    _SET_H1(report, h1)
    _SET_H2(report, h2)
    _SET_I_S(report, h1 + h2 - h12)
    return report


def _xlogx(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with weights <= 0 set to 0, and ``x ln x`` of that, elementwise; NaN stays NaN.

    Raises :class:`InvalidSpectrumError` for a weight below ``-EPS_PSD``, as
    :func:`von_neumann_entropy` does.  The logarithm is libm's ``math.log``
    per element, as there; a zero weight takes ``ln 1 = 0``.  The columns'
    joint weights take their logarithms here, the marginals in :func:`_twin_entropies`.
    """
    import numpy as np
    if x.size and x.min() < -EPS_PSD:
        raise InvalidSpectrumError(f"negative weight {x.min()} below tolerance")
    positive = x > 0.0
    clamped = np.where(x <= 0.0, 0.0, x)  # a NaN weight is kept, so that its sum fails
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
    off = abs(total - 1.0)
    if off.size and not off.max() <= EPS_TRACE:  # NaN fails too
        raise InvalidSpectrumError(f"weights sum to {total.flat[off.argmax()]}, expected 1")
    return acc


def _twin_entropies(m: np.ndarray) -> np.ndarray:
    """:func:`_twin_entropy` of each entry of ``m``, called once per distinct value.

    A marginal weight is 1/2 up to rounding, so a block repeats a few values.
    They go to the kernel in ascending order, NaN last, so an error names
    the smallest bad value.
    """
    import numpy as np
    # Flattened first: numpy 1.x returns a flat inverse, numpy 2.x one of the input's shape.
    values, inverse = np.unique(m.ravel(), return_inverse=True)
    return np.array([_twin_entropy(q) for q in values.tolist()], float)[inverse].reshape(m.shape)


def _x_mutual_information(q: np.ndarray, joint: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The joint entropies ``h12`` and the informations ``h1 + h1 - h12``, elementwise.

    ``joint`` holds the :func:`_xlogx` pairs of the joint weights, and ``q``
    each state's marginal weight: its marginals are both ``(q, q)``.
    """
    h12 = _entropy(joint)
    h1 = _twin_entropies(q)
    return h12, h1 + h1 - h12


def _x_entropies(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``system_entropies(p).s12`` and ``.i_n`` of each valid X state in the columns ``x``.

    The kernels are the scalar ones; see the note above
    :func:`~xstates.xstate._class_tests`.  No validity check: the caller
    vouches for the states.
    """
    a, b, cm, dm = _x_moduli(x)
    return _x_mutual_information(a + b, map(_xlogx, _spectrum(a, b, cm, dm)))


def _x_information(x: np.ndarray, coefficients: Sequence[tuple]) -> np.ndarray:
    """Tomographic information of X states, one row per state, one column per pair.

    ``x`` holds the states in columns and ``coefficients`` the
    :func:`~xstates.tomography._pair_coefficients` of each pair.  Entry
    ``[i, k]`` is the public chain's ``i_s`` of state ``i`` and pair ``k``,
    from the same kernels, with both marginals ``(same + cross, cross + same)``.
    No validity check: the caller vouches for the states.
    """
    import numpy as np
    same, cross = _weights(*x[:, :, None], np.array(coefficients, dtype=float).T)
    s, c = _xlogx(same), _xlogx(cross)
    return _x_mutual_information(same + cross, (s, c, c, s))[1]
