"""Entanglement measures for X states: negativity and concurrence.

Both measures collapse to short closed forms on the X family, and both must
agree with the PPT classification: a valid X state is entangled exactly when
its negativity exceeds 1, exactly when its concurrence is positive.
"""

from __future__ import annotations

import numpy as np

from .xstate import XParams, require_valid, spectrum


def negativity(p: XParams) -> float:
    """Trace norm of the partial transpose: 1 for separable states, up to 2."""
    require_valid(p)
    cm, dm = abs(p.c), abs(p.d)
    return abs(p.a + cm) + abs(p.a - cm) + abs(p.b + dm) + abs(p.b - dm)


def concurrence(p: XParams) -> float:
    """Concurrence of a valid X state.

    Because rho equals its own spin flip, the usual root spectrum is just
    the state's eigenvalue magnitudes; the measure is the largest minus the
    other three, floored at zero.
    """
    require_valid(p)
    roots = sorted((abs(x) for x in spectrum(p)), reverse=True)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def _x_entanglement(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativity and concurrence of valid X states, one entry per state.

    ``x`` holds the states as :func:`~xstates.xstate._x_columns` builds them.
    Each entry equals :func:`negativity` and :func:`concurrence` bit for bit:
    numpy's ``+ -``, real ``abs``, ``hypot`` and sorting round as Python
    floats do, and the sums run in the same order.  No validity check: the
    caller vouches for the states.
    """
    a, b, cm, dm = x[0], x[1], np.hypot(x[2], x[3]), np.hypot(x[4], x[5])
    neg = np.abs(a + cm) + np.abs(a - cm) + np.abs(b + dm) + np.abs(b - dm)
    roots = np.sort(np.abs([a + dm, b + cm, b - cm, a - dm]), axis=0)  # ascending
    excess = roots[3] - roots[2] - roots[1] - roots[0]
    return neg, np.where(excess > 0.0, excess, 0.0)  # max(0.0, excess)
