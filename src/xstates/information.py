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


def _entropies(joint, q, entropy):
    """Joint and marginal entropy, and mutual information, of weights whose marginals are (q, q).

    ``entropy`` takes the weights: floats for :func:`von_neumann_entropy`,
    :func:`_xlogx` pairs for :func:`_entropy`.
    """
    s12 = entropy(joint)
    s1 = entropy((q, q))
    return s12, s1, s1 + s1 - s12


def system_entropies(p: XParams) -> InfoReport:
    """Joint and marginal entropies of a valid X state.

    The marginal entropies are computed from the reduced diagonals; for any
    trace-normalized X state they equal ln 2.
    """
    cm, dm = _valid_moduli(p)
    s12, s1, i_n = _entropies(_spectrum(p.a, p.b, cm, dm), p.a + p.b, von_neumann_entropy)
    report = object.__new__(InfoReport)
    _SET_S12(report, s12)
    _SET_S1(report, s1)
    _SET_S2(report, s1)
    _SET_I_N(report, i_n)
    return report


def shannon_report_from_table(table: TomogramTable) -> ShannonReport:
    """Shannon entropies of an already-computed tomogram."""
    h12 = von_neumann_entropy(table)
    first, second = marginals(table)
    h1 = von_neumann_entropy(first)
    # Equal weights give equal bits; tomogram's (s, c, c, s) tables always have them.
    h2 = h1 if second == first else von_neumann_entropy(second)
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
    per element, as there; a zero weight takes ``ln 1 = 0``.  This is the
    one place the columnar kernels clamp, check and take logarithms;
    :func:`_xlogx_distinct` calls it on the distinct values of a column.
    """
    import numpy as np
    if x.size and x.min() < -EPS_PSD:
        raise InvalidSpectrumError(f"negative weight {x.min()} below tolerance")
    positive = x > 0.0
    clamped = np.where(x <= 0.0, 0.0, x)  # a NaN weight is kept, so that its sum fails
    logs = map(math.log, np.where(positive, x, 1.0).ravel().tolist())
    return clamped, clamped * np.fromiter(logs, float, x.size).reshape(x.shape)


def _xlogx_distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_xlogx` of ``x``, with one logarithm per distinct value, gathered back.

    For a marginal weight, which is 1/2 up to rounding and so repeats a few
    values.  Each output, and any error, equals ``_xlogx(x)``'s bit for bit:
    ``+0.0``, ``-0.0`` and every NaN map to the same outputs whichever copy
    :func:`numpy.unique` keeps, and an error names the same smallest weight.
    """
    import numpy as np
    # Flattened first: numpy 1.x returns a flat inverse, numpy 2.x one of the input's shape.
    values, inverse = np.unique(x.ravel(), return_inverse=True)
    clamped, xlogx = _xlogx(values)
    return clamped[inverse].reshape(x.shape), xlogx[inverse].reshape(x.shape)


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


def _x_entropies(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``system_entropies(p).s12`` and ``.i_n`` of each valid X state in the columns ``x``.

    The kernels are the scalar ones; see the note above
    :func:`~xstates.xstate._class_tests`.  No validity check: the caller
    vouches for the states.
    """
    a, b, cm, dm = _x_moduli(x)
    s12, _, i_n = _entropies(map(_xlogx, _spectrum(a, b, cm, dm)), _xlogx_distinct(a + b), _entropy)
    return s12, i_n


def _x_information(x: np.ndarray, coefficients: Sequence[tuple]) -> np.ndarray:
    """Tomographic information of X states, one row per state, one column per pair.

    ``x`` holds the states in columns and ``coefficients`` the
    :func:`~xstates.tomography._pair_coefficients` of each pair.  Entry
    ``[i, k]`` is the public chain's ``i_s`` of state ``i`` and pair ``k``,
    from the same kernels.  Both marginals are ``(same + cross, cross + same)``,
    1/2 up to rounding, so their logarithms are taken once per distinct value
    (:func:`_xlogx_distinct`); the joint weights, nearly all distinct, take
    one each.  No validity check: the caller vouches for the states.
    """
    import numpy as np
    same, cross = _weights(*x[:, :, None], np.array(coefficients, dtype=float).T)
    s, c = _xlogx(same), _xlogx(cross)
    return _entropies((s, c, c, s), _xlogx_distinct(same + cross), _entropy)[2]
