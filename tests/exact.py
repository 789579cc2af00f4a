"""Exact values of the entanglement measures, in rational arithmetic on the float inputs.

Each function takes the floats ``a``, ``b``, ``|c|`` and ``|d|`` of an X state
and works in :class:`fractions.Fraction`, sharing no code with ``xstates``.
``float()`` of a result is the exact value correctly rounded, since
``Fraction.__float__`` rounds correctly.
"""

from __future__ import annotations

from fractions import Fraction


def _partial_transpose_spectrum(a, b, cm, dm) -> tuple[Fraction, ...]:
    """The partial transpose's eigenvalues a + |c|, a - |c|, b + |d| and b - |d|, exactly."""
    a, b, cm, dm = map(Fraction, (a, b, cm, dm))
    return a + cm, a - cm, b + dm, b - dm


def negativity_exact(a, b, cm, dm) -> Fraction:
    """Trace norm of the partial transpose: the sum of its eigenvalues' magnitudes."""
    return sum(map(abs, _partial_transpose_spectrum(a, b, cm, dm)))


def concurrence_exact(a, b, cm, dm) -> Fraction:
    """Twice the depth below zero of the partial transpose's lowest eigenvalue, or 0.

    For a, b >= 0 that is Yu and Eberly's X-state concurrence
    2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33)),
    with rho_11 = rho_44 = a, rho_22 = rho_33 = b, rho_23 = c and rho_14 = d.
    """
    return max(Fraction(0), -2 * min(_partial_transpose_spectrum(a, b, cm, dm)))
