"""Entanglement measures for X states: negativity and concurrence.

The partial transpose of a valid X state has eigenvalues a +- |c| and b +- |d|,
so each measure is a closed form that rounds once (Wootters, PRL 80, 2245, 1998;
Yu and Eberly, QIC 7, 459, 2007).  classify calls a valid X state entangled exactly
when its concurrence exceeds 2 EPS_PSD: an eigenvalue a - |c| or b - |d| below -EPS_PSD.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .xstate import XParams, _valid_moduli, _x_moduli

if TYPE_CHECKING:
    import numpy as np


def negativity(p: XParams) -> float:
    """Trace norm of the partial transpose, 2 (max(a, |c|) + max(b, |d|)): 1 to 2."""
    cm, dm = _valid_moduli(p)
    a, b = p.a, p.b
    return 2.0 * ((cm if cm > a else a) + (dm if dm > b else b))


def concurrence(p: XParams) -> float:
    """Concurrence of a valid X state: 2 max(0, |c| - a, |d| - b)."""
    cm, dm = _valid_moduli(p)
    e, f = cm - p.a, dm - p.b
    e = f if f > e else e  # max(e, f), which keeps e unless f > e, without the builtin's call
    return 2.0 * e if e > 0.0 else 0.0


def _x_entanglement(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`negativity` and :func:`concurrence` of each valid X state in the columns ``x``.

    The scalar forms, with ``np.where`` and ``np.maximum``; see the note above
    :func:`~xstates.xstate._class_tests`.  The caller vouches for validity.
    """
    import numpy as np
    a, b, cm, dm = _x_moduli(x)
    e = np.maximum(cm - a, dm - b)
    neg = 2.0 * (np.where(cm > a, cm, a) + np.where(dm > b, dm, b))
    return neg, np.where(e > 0.0, 2.0 * e, 0.0)
