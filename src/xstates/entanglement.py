"""Entanglement measures for X states: negativity and concurrence.

Both measures collapse to short closed forms on the X family, and both must
agree with the PPT classification: a valid X state is entangled exactly when
its negativity exceeds 1, exactly when its concurrence is positive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .xstate import XParams, _spectrum, _valid_moduli, _x_moduli

if TYPE_CHECKING:
    import numpy as np


def _negativity(a, b, cm, dm):
    """Trace norm of the partial transpose, whose spectrum is a +- |c| and b +- |d|."""
    return abs(a + cm) + abs(a - cm) + abs(b + dm) + abs(b - dm)


def _excess(roots):
    """The largest of the ascending ``roots`` minus the other three."""
    return roots[3] - roots[2] - roots[1] - roots[0]


def negativity(p: XParams) -> float:
    """Trace norm of the partial transpose: 1 for separable states, up to 2."""
    cm, dm = _valid_moduli(p)
    return _negativity(p.a, p.b, cm, dm)


def concurrence(p: XParams) -> float:
    """Concurrence of a valid X state.

    Because rho equals its own spin flip, the usual root spectrum is just
    the state's eigenvalue magnitudes; the measure is the largest minus the
    other three, floored at zero.
    """
    cm, dm = _valid_moduli(p)
    excess = _excess(sorted(map(abs, _spectrum(p.a, p.b, cm, dm))))
    return excess if excess > 0.0 else 0.0  # max(0.0, excess), without the call


def _x_entanglement(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`negativity` and :func:`concurrence` of each valid X state in the columns ``x``.

    The kernels are the scalar ones; see the note above
    :func:`~xstates.xstate._class_tests`.  No validity check: the caller
    vouches for the states.
    """
    import numpy as np
    moduli = _x_moduli(x)
    excess = _excess(np.sort(np.abs(_spectrum(*moduli)), axis=0))
    return _negativity(*moduli), np.where(excess > 0.0, excess, 0.0)  # max(0.0, excess)
