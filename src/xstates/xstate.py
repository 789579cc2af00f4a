"""Core parameterization of two-qubit X states and the nonlinear power map.

An X state is fixed by two real diagonal entries and two complex coherences,

    rho = [[a, 0, 0, d],
           [0, b, c, 0],
           [0, c*, b, 0],
           [d*, 0, 0, a]],

with unit trace 2(a + b) = 1.  Everything here works on the parameter
quadruple directly, in closed form from the four eigenvalues a +- |d| and
b +- |c|; :func:`xstates.dense.to_dense` builds the 4x4 matrix for checks
with general linear algebra.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Numerical guard bands shared across the package.
EPS_TRACE = 1e-9
EPS_PSD = 1e-12


class ZeroDenominatorError(ZeroDivisionError):
    """Raised when the power-map normalization Tr rho^n vanishes."""


class InvalidStateError(ValueError):
    """Raised when an operation requires a genuine density matrix.

    Carries the offending :class:`StateClass` as ``state_class``.
    """

    def __init__(self, state_class: "StateClass", message: str | None = None):
        self.state_class = state_class
        super().__init__(message or f"not a valid density matrix: {state_class.value}")


class StateClass(Enum):
    """Separability verdict for an X-state parameter set."""

    # The classes of a valid state come first; _x_classify gives a verdict as its index.
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    INVALID_NOT_PSD = "invalid_not_psd"
    INVALID_TRACE = "invalid_trace"


@dataclass(frozen=True, slots=True)
class XParams:
    """Parameter quadruple (a, b, c, d) of a two-qubit X matrix.

    ``a`` and ``b`` are the outer/inner diagonal entries, each appearing
    twice; ``c`` and ``d`` are the inner and outer anti-diagonal coherences.
    The container itself does not require the parameters to describe a valid
    state; see :func:`validate`.
    """

    a: float
    b: float
    c: complex
    d: complex

    # Written out because the generated __init__ would set every field before
    # the conversion sets it again.  Power-map images skip it.
    def __init__(self, a: float, b: float, c: complex, d: complex):
        a, b, c, d = float(a), float(b), complex(c), complex(d)
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_C(self, c)
        _SET_D(self, d)
        if not (math.isfinite(a) and math.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
            raise ValueError(f"X parameters must be finite, got {self}")

    @property
    def trace(self) -> float:
        return 2.0 * (self.a + self.b)


# The slots' own setters: they get past the frozen __setattr__ without its name lookup.
_SET_A, _SET_B, _SET_C, _SET_D = (XParams.__dict__[name].__set__ for name in "abcd")


@dataclass(frozen=True, slots=True)
class ChannelResult:
    """Image of an X state under rho -> rho^n / Tr rho^n."""

    params: XParams
    n: int


_SET_PARAMS, _SET_N = (ChannelResult.__dict__[name].__set__ for name in ("params", "n"))


def _check_power(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"power must be a positive integer, got {n!r}")


_ONE = complex(1.0)  # the phase of a zero coherence: phase(0) = 1 keeps the power map defined


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where that is beyond the float range, as ``np.hypot`` gives."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


# Each closed form, here and in information.py, is written once over (a, b, |c|, |d|):
# floats for one state, or numpy arrays for a block of states in the columns that
# _x_columns builds, with the moduli from _x_moduli.  Both give the same bits: numpy's
# + - * /, comparisons, abs and hypot round as Python floats and abs of a complex do.
# Only these steps differ: the moduli, picking the first test that holds, the if-else
# and max that entanglement.py writes as np.where and np.maximum, the entropy of a list
# of weights, and the power map (written twice, see _x_power).  numpy is imported
# inside the functions that take or make a block (and in to_dense), never at module
# level, so `import xstates`, the scalar functions and direction_pairs run without it.


def _class_tests(a, b, cm, dm):
    """Classify's tests in its order: the trace is off, rho is not PSD, rho is not PPT."""
    return (abs(2.0 * (a + b) - 1.0) > EPS_TRACE,
            (dm - a > EPS_PSD) | (cm - b > EPS_PSD),  # a - |d| < -EPS_PSD: x - y is -(y - x)
            (cm - a > EPS_PSD) | (dm - b > EPS_PSD))


def _spectrum(a, b, cm, dm):
    """The eigenvalues a + |d|, b + |c|, b - |c| and a - |d|, in that order."""
    return a + dm, b + cm, b - cm, a - dm


def _x_moduli(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(a, b, |c|, |d|)`` of the states in the columns ``x``."""
    import numpy as np
    return x[0], x[1], np.hypot(x[2], x[3]), np.hypot(x[4], x[5])


# The last XParams classified, as (state, class, (|c|, |d|) or None when invalid).
# It is keyed by identity, which one `is` tests, not by value, which would
# compare four fields.  Only an XParams is stored: a frozen one cannot change.
# A reader takes the entry into a local once, so it never mixes two entries.
_LAST: tuple = (object(), None, None)


def _classified(p: XParams) -> tuple:
    """``_LAST``'s entry for ``p``, computed by :func:`_class_tests` and stored."""
    global _LAST
    try:
        cm, dm = abs(p.c), abs(p.d)
    except OverflowError:
        cm, dm = _modulus(p.c), _modulus(p.d)
    trace_off, not_psd, not_ppt = _class_tests(p.a, p.b, cm, dm)
    if trace_off:
        entry = (p, StateClass.INVALID_TRACE, None)
    elif not_psd:
        entry = (p, StateClass.INVALID_NOT_PSD, None)
    else:
        entry = (p, StateClass.ENTANGLED if not_ppt else StateClass.SEPARABLE, (cm, dm))
    if p.__class__ is XParams:
        _LAST = entry
    return entry


def validate(p: XParams) -> StateClass | None:
    """Check trace normalization and positivity.

    Returns ``None`` for a genuine density matrix, otherwise the failing
    :class:`StateClass`.  Trace is tested first: |2(a+b) - 1| <= EPS_TRACE.
    Positivity reduces to a >= |d| and b >= |c| within EPS_PSD, which also
    covers negative ``a`` or ``b`` and a modulus beyond the float range.
    """
    entry = _LAST
    if entry[0] is not p:
        entry = _classified(p)
    return entry[1] if entry[2] is None else None


def _valid_moduli(p: XParams) -> tuple[float, float]:
    """``(|c|, |d|)`` of a genuine state, for the measures to reuse.

    Raises :class:`InvalidStateError` with :func:`validate`'s class otherwise.
    """
    entry = _LAST
    if entry[0] is not p:
        entry = _classified(p)
    if entry[2] is None:
        raise InvalidStateError(entry[1])
    return entry[2]


def spectrum(p: XParams) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues of the X matrix, ordered (a+|d|, b+|c|, b-|c|, a-|d|).

    The outer block contributes a +- |d|, the inner block b +- |c|; no
    diagonalization is performed.  A modulus beyond the float range is inf.
    """
    try:
        cm, dm = abs(p.c), abs(p.d)
    except OverflowError:
        cm, dm = _modulus(p.c), _modulus(p.d)
    return _spectrum(p.a, p.b, cm, dm)


def _x_columns(states: list[XParams]) -> np.ndarray:
    """The columnar kernels' input: rows a, b, Re c, Im c, Re d and Im d, one column per state.

    The coherences go into two complex arrays, whose ``.real`` and ``.imag`` keep every bit.
    """
    import numpy as np
    c, d = np.array([p.c for p in states], complex), np.array([p.d for p in states], complex)
    return np.array([[p.a for p in states], [p.b for p in states], c.real, c.imag, d.real, d.imag])


def apply_power_channel(p: XParams, n: int) -> ChannelResult:
    """Apply the nonlinear map rho -> rho^n / Tr rho^n in closed form.

    The image is again an X matrix whose parameters are power sums of the
    input spectrum over the normalization 2 * sum(lam_i^n); the coherence
    phases are carried over unchanged.  Raises
    :class:`ZeroDenominatorError` when the normalization cancels to zero,
    which can happen for odd ``n`` on non-PSD input, and ``OverflowError``
    when a coherence's modulus, a power, or a sum of two powers, is too large
    for a float.
    """
    if n.__class__ is not int or n < 1:  # bool, float, numpy ints: the full check
        _check_power(n)
    pc, pd = p.c, p.d
    try:
        cm, dm = abs(pc), abs(pd)
    except OverflowError:
        cm, dm = _modulus(pc), _modulus(pd)
    l1, l2, l3, l4 = _spectrum(p.a, p.b, cm, dm)
    try:
        l1, l2, l3, l4 = l1**n, l2**n, l3**n, l4**n
    except OverflowError:
        raise OverflowError(f"an eigenvalue of {p} to the power {n} is not finite") from None
    denom = 2.0 * (l1 + l2 + l3 + l4)
    # With no power negative, the scale 2 * sum(|l_i^n|) is denom itself, so only 0 vanishes.
    if denom == 0.0 or (not (l1 >= 0.0 and l2 >= 0.0 and l3 >= 0.0 and l4 >= 0.0)
                        and abs(denom) < 1e-12 * (2.0 * (abs(l1) + abs(l2) + abs(l3) + abs(l4)))):
        raise ZeroDenominatorError(f"Tr rho^{n} vanishes for {p}")
    a, b = (l1 + l4) / denom, (l2 + l3) / denom
    c, d = (l2 - l3) / denom, (l1 - l4) / denom  # times the phases below
    # A finite scale keeps each quotient below 1e12 in size; once a sum of
    # powers overflows, the quotients are 0 or inf / inf = nan.
    if not math.isfinite(a + b + c + d):
        raise OverflowError(f"the image of {p} under rho^{n} / Tr rho^{n} is not finite")
    img = object.__new__(XParams)
    _SET_A(img, a)
    _SET_B(img, b)
    _SET_C(img, c * (pc / cm if cm else _ONE))
    _SET_D(img, d * (pd / dm if dm else _ONE))
    result = object.__new__(ChannelResult)
    _SET_PARAMS(result, img)
    _SET_N(result, n)
    return result


def ppt(p: XParams) -> XParams:
    """Partial transpose over the second qubit: swaps the two coherences."""
    return XParams(a=p.a, b=p.b, c=p.d, d=p.c)


def classify(p: XParams) -> StateClass:
    """Separability of an X state via the partial-transpose spectrum.

    Invalid inputs return their validation failure.  Otherwise the state is
    separable iff the partially transposed matrix stays PSD, i.e.
    a >= |c| and b >= |d| within EPS_PSD; the boundary counts as separable.
    """
    entry = _LAST
    if entry[0] is not p:
        entry = _classified(p)
    return entry[1]


def _x_classify(x: np.ndarray) -> np.ndarray:
    """:func:`classify` of each state in the columns ``x``, as its index in ``list(StateClass)``."""
    import numpy as np
    return np.select(_class_tests(*_x_moduli(x)), [3, 2, 1], 0)


def _x_power(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`apply_power_channel` of the states in the columns ``x``, bit for bit: the images'
    columns, 0 where Tr rho^n vanishes, and where it does.  Python's ``**`` raises each distinct
    eigenvalue to ``n`` once.  A state whose power or image overflows raises the scalar error."""
    import numpy as np
    with np.errstate(all="ignore"):
        try:
            moduli = _x_moduli(x)
            lam = np.array(_spectrum(*moduli))  # distinct by bits below: (-0.0)**3 is -0.0
            bits, inverse = np.unique(lam.view(np.int64), return_inverse=True)
            powers = np.array([v**n for v in bits.view(np.float64).tolist()], float)
            l1, l2, l3, l4 = powers[inverse].reshape(lam.shape)
            denom = 2.0 * (((l1 + l2) + l3) + l4)
            zero = (denom == 0.0) | (~((l1 >= 0.0) & (l2 >= 0.0) & (l3 >= 0.0) & (l4 >= 0.0)) & (
                abs(denom) < 1e-12 * (2.0 * (((abs(l1) + abs(l2)) + abs(l3)) + abs(l4)))))
            a, b, c, d = (l1 + l4) / denom, (l2 + l3) / denom, (l2 - l3) / denom, (l1 - l4) / denom
            if not np.isfinite(((a + b) + c) + d)[~zero].all():
                raise OverflowError("an image is not finite")
        except OverflowError:  # the first bad state raises its error; the block's, if none does
            for ra, rb, cr, ci, dr, di in x.T.tolist():
                with contextlib.suppress(ZeroDenominatorError):
                    apply_power_channel(XParams(ra, rb, complex(cr, ci), complex(dr, di)), n)
            raise
        zr, zi, m, q = x[2::2], x[3::2], np.array(moduli[2:]), np.array([c, d])  # c, d rows
        pr = np.where(m == 0.0, 1.0, (zr + zi * 0.0) / m)  # z / |z| as Python divides, or 1
        pi = np.where(m == 0.0, 0.0, (zi - zr * 0.0) / m)
        re, im = q * pr - 0.0 * pi, q * pi + 0.0 * pr  # q times that, as Python multiplies
    return np.where(zero, 0.0, [a, b, re[0], im[0], re[1], im[1]]), zero


def werner(p: float) -> XParams:
    """Werner family: p-weighted Bell projector mixed with white noise."""
    return XParams(a=(1.0 + p) / 4.0, b=(1.0 - p) / 4.0, c=0.0, d=p / 2.0)


def werner_entanglement_threshold(n: int) -> float:
    """Mixing weight above which the power-map image of a Werner state is entangled.

    Closed form 1 - 4 / (3**(1/n) + 3); equals 1/3 at n = 1 and decreases
    toward 0 as n grows.
    """
    _check_power(n)
    return 1.0 - 4.0 / (3.0 ** (1 / n) + 3.0)


def werner_entanglement_threshold_lower(n: int) -> float:
    """Lower entanglement threshold of the Werner family, even powers only.

    For even ``n`` the image is a valid state for every real mixing weight
    and becomes entangled again below 1 + 4 / (3**(1/n) - 3) < -1.  Odd
    powers have no lower branch (the state itself loses positivity), so a
    ``ValueError`` is raised.
    """
    _check_power(n)
    if n % 2:
        raise ValueError("lower threshold exists only for even powers")
    return 1.0 + 4.0 / (3.0 ** (1 / n) - 3.0)
