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
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

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
    # the conversion sets it again.  Sweeps build one XParams per grid point
    # here; their power-map images come from _image instead.
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


def _image(a: float, b: float, c: complex, d: complex) -> XParams:
    """An XParams built without __init__'s conversions and finiteness test.

    Only for fields that are already a finite float, float, complex and
    complex: apply_power_channel's image, once its overflow guard has passed.
    """
    p = object.__new__(XParams)
    _SET_A(p, a)
    _SET_B(p, b)
    _SET_C(p, c)
    _SET_D(p, d)
    return p


@dataclass(frozen=True, slots=True)
class ChannelResult:
    """Image of an X state under rho -> rho^n / Tr rho^n."""

    params: XParams
    n: int


def _check_power(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"power must be a positive integer, got {n!r}")


def _phase(z: complex, m: float) -> complex:
    # The phase of z, given m = abs(z).  Phase convention: phase(0) = 1 keeps
    # formulas well defined at zero.
    return z / m if m else complex(1.0)


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where that is beyond the float range, as ``np.hypot`` gives."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


# Each closed form, here and in entanglement.py and information.py, is written once
# over (a, b, |c|, |d|): floats for one state, or numpy arrays for a block of states
# in the columns that _x_columns builds, with the moduli from _x_moduli.  Both give
# the same bits: numpy's + - *, comparisons, abs, hypot and sort round as Python
# floats, abs of a complex and sorted do.  Only these steps differ between them:
# the moduli, picking the first test that holds, sorting, flooring at 0, and the
# entropy of a list of weights.


def _class_tests(a, b, cm, dm):
    """Classify's tests in its order: the trace is off, rho is not PSD, rho is not PPT."""
    return (abs(2.0 * (a + b) - 1.0) > EPS_TRACE,
            (a - dm < -EPS_PSD) | (b - cm < -EPS_PSD),
            (a - cm < -EPS_PSD) | (b - dm < -EPS_PSD))


def _spectrum(a, b, cm, dm):
    """The eigenvalues a + |d|, b + |c|, b - |c| and a - |d|, in that order."""
    return a + dm, b + cm, b - cm, a - dm


def _x_moduli(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(a, b, |c|, |d|)`` of the states in the columns ``x``."""
    return x[0], x[1], np.hypot(x[2], x[3]), np.hypot(x[4], x[5])


def validate(p: XParams) -> StateClass | None:
    """Check trace normalization and positivity.

    Returns ``None`` for a genuine density matrix, otherwise the failing
    :class:`StateClass`.  Trace is tested first: |2(a+b) - 1| <= EPS_TRACE.
    Positivity reduces to a >= |d| and b >= |c| within EPS_PSD, which also
    covers negative ``a`` or ``b`` and a modulus beyond the float range.
    """
    try:
        cm, dm = abs(p.c), abs(p.d)
    except OverflowError:
        cm, dm = _modulus(p.c), _modulus(p.d)
    trace_off, not_psd, _ = _class_tests(p.a, p.b, cm, dm)
    if trace_off:
        return StateClass.INVALID_TRACE
    if not_psd:
        return StateClass.INVALID_NOT_PSD
    return None


def require_valid(p: XParams) -> None:
    """Raise :class:`InvalidStateError` unless ``p`` is a genuine state."""
    bad = validate(p)
    if bad is not None:
        raise InvalidStateError(bad)


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
    """The columnar kernels' input: rows a, b, Re c, Im c, Re d and Im d, one column per state."""
    values = chain.from_iterable((p.a, p.b, p.c.real, p.c.imag, p.d.real, p.d.imag) for p in states)
    return np.fromiter(values, float, 6 * len(states)).reshape(-1, 6).T


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
    _check_power(n)
    try:
        cm, dm = abs(p.c), abs(p.d)
    except OverflowError:
        cm, dm = _modulus(p.c), _modulus(p.d)
    l1, l2, l3, l4 = _spectrum(p.a, p.b, cm, dm)
    l1, l2, l3, l4 = l1**n, l2**n, l3**n, l4**n
    denom = 2.0 * (l1 + l2 + l3 + l4)
    scale = 2.0 * (abs(l1) + abs(l2) + abs(l3) + abs(l4))
    if denom == 0.0 or abs(denom) < 1e-12 * scale:
        raise ZeroDenominatorError(f"Tr rho^{n} vanishes for {p}")
    a, b = (l1 + l4) / denom, (l2 + l3) / denom
    c, d = (l2 - l3) / denom, (l1 - l4) / denom  # times the phases below
    # A finite scale keeps each quotient below 1e12 in size; once a sum of
    # powers overflows, the quotients are 0 or inf / inf = nan.
    if not math.isfinite(a + b + c + d):
        raise OverflowError(f"the image of {p} under rho^{n} / Tr rho^{n} is not finite")
    return ChannelResult(_image(a, b, c * _phase(p.c, cm), d * _phase(p.d, dm)), n)


def ppt(p: XParams) -> XParams:
    """Partial transpose over the second qubit: swaps the two coherences."""
    return XParams(a=p.a, b=p.b, c=p.d, d=p.c)


def classify(p: XParams) -> StateClass:
    """Separability of an X state via the partial-transpose spectrum.

    Invalid inputs return their validation failure.  Otherwise the state is
    separable iff the partially transposed matrix stays PSD, i.e.
    a >= |c| and b >= |d| within EPS_PSD; the boundary counts as separable.
    """
    try:
        cm, dm = abs(p.c), abs(p.d)
    except OverflowError:
        cm, dm = _modulus(p.c), _modulus(p.d)
    trace_off, not_psd, not_ppt = _class_tests(p.a, p.b, cm, dm)
    if trace_off:
        return StateClass.INVALID_TRACE
    if not_psd:
        return StateClass.INVALID_NOT_PSD
    return StateClass.ENTANGLED if not_ppt else StateClass.SEPARABLE


def _x_classify(x: np.ndarray) -> np.ndarray:
    """:func:`classify` of each state in the columns ``x``, as its index in ``list(StateClass)``."""
    return np.select(_class_tests(*_x_moduli(x)), [3, 2, 1], 0)


def werner(p: float) -> XParams:
    """Werner family: p-weighted Bell projector mixed with white noise."""
    return XParams(a=(1.0 + p) / 4.0, b=(1.0 - p) / 4.0, c=0.0, d=p / 2.0)


def werner_entanglement_threshold(n: int) -> float:
    """Mixing weight above which the power-map image of a Werner state is entangled.

    Closed form 1 - 4 / (3**(1/n) + 3); equals 1/3 at n = 1 and decreases
    toward 0 as n grows.
    """
    _check_power(n)
    return 1.0 - 4.0 / (3.0 ** (1.0 / n) + 3.0)


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
    return 1.0 + 4.0 / (3.0 ** (1.0 / n) - 3.0)
