"""Dense 4x4 matrix of an X state.

The rest of the package works on the parameter quadruple alone; this module
builds the full matrix for code that wants to check the closed forms with
general linear algebra such as ``numpy.linalg``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .xstate import XParams

if TYPE_CHECKING:
    import numpy as np


def to_dense(p: XParams) -> np.ndarray:
    """Dense complex matrix for an X-parameter quadruple."""
    import numpy as np
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = p.a
    m[1, 1] = m[2, 2] = p.b
    m[1, 2] = p.c
    m[2, 1] = p.c.conjugate()
    m[0, 3] = p.d
    m[3, 0] = p.d.conjugate()
    return m
