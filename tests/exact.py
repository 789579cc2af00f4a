"""Exact values of the measures, in rational and 60-digit decimal arithmetic on the float inputs.

Each function takes floats, ``a``, ``b``, ``|c|`` and ``|d|`` of an X state
(and a power) or a list of weights, and shares no code with ``xstates``.  The
image and the entanglement measures work in :class:`fractions.Fraction`;
``float()`` of a result is the exact value correctly rounded, since
``Fraction.__float__`` rounds correctly.
The entropies take logarithms in :mod:`decimal` at 60 significant digits, so
their relative error is below 1e-58, far under any float's.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 60


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


def spectrum_exact(a, b, cm, dm) -> tuple[Fraction, ...]:
    """The state's eigenvalues a + |d|, b + |c|, b - |c| and a - |d|, exactly."""
    a, b, cm, dm = map(Fraction, (a, b, cm, dm))
    return a + dm, b + cm, b - cm, a - dm


def image_exact(a, b, cm, dm, n: int) -> tuple[Fraction, ...]:
    """``a``, ``b``, ``|c|`` and ``|d|`` of the image under rho -> rho^n / Tr rho^n, exactly.

    The image's eigenvalues are the state's to the power ``n`` over their
    sum, and each block's pair gives its diagonal entry as half their sum
    and its coherence's modulus as half their difference.
    """
    l1, l2, l3, l4 = (x**n for x in spectrum_exact(a, b, cm, dm))
    trace = 2 * (l1 + l2 + l3 + l4)
    return (l1 + l4) / trace, (l2 + l3) / trace, abs(l2 - l3) / trace, abs(l1 - l4) / trace


def entropy_exact(weights) -> Decimal:
    """-sum(w ln w) over positive weights, floats or fractions, to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        total = Decimal(0)
        for w in map(Fraction, weights):
            if w <= 0:
                raise ValueError(f"weight {w} is not positive")
            w = Decimal(w.numerator) / Decimal(w.denominator)
            total -= w * w.ln()
        return +total


def werner_thresholds_exact(n: int) -> tuple[Decimal, Decimal]:
    """The Werner family's upper and lower entanglement thresholds at power ``n``, to 60 digits.

    With e = 3^(1/n) - 1, summed as the series of expm1(ln 3 / n) so that no digit cancels for
    large n, the upper threshold 1 - 4 / (3^(1/n) + 3) is e / (e + 4), and the lower one
    1 + 4 / (3^(1/n) - 3) is (e + 2) / (e - 2).
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        x = Decimal(3).ln() / n
        e, term, k = Decimal(0), Decimal(1), 0
        while True:
            k += 1
            term = term * x / k
            if e + term == e:
                break
            e += term
        ctx.prec = DIGITS
        return +(e / (e + 4)), +((e + 2) / (e - 2))
