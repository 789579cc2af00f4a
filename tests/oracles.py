"""Reference implementations the tests compare the closed forms against.

Each one reaches its answer by a different route from the library: a dense
SU(2) rotation, a dense spin flip, the Werner power sums written out by
hand for the tomogram and the mutual information, or the power map through
``spectrum`` and phases of its own.
Eigenvalues and matrix powers need no helper: the tests call
``numpy.linalg`` directly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from xstates.dense import to_dense
from xstates.tomography import Direction, TomogramTable, _pair_coefficients
from xstates.xstate import (
    ChannelResult,
    XParams,
    ZeroDenominatorError,
    _check_power,
    require_valid,
    spectrum,
)


def su2_matrix(direction: Direction) -> np.ndarray:
    """SU(2) rotation for the Euler angles of ``direction``."""
    half = 0.5 * direction.theta
    c, s = math.cos(half), math.sin(half)
    ep = cmath.exp(0.5j * (direction.phi + direction.psi))
    em = cmath.exp(0.5j * (direction.phi - direction.psi))
    return np.array(
        [[c * ep, s * em], [-s * em.conjugate(), c * ep.conjugate()]],
        dtype=complex,
    )


def tomogram_dense_oracle(p: XParams, dir_a: Direction, dir_b: Direction) -> TomogramTable:
    """Tomogram by dense rotation: diagonal of (u_a x u_b) rho (u_a x u_b)^H."""
    require_valid(p)
    u = np.kron(su2_matrix(dir_a), su2_matrix(dir_b))
    w = np.diag(u @ to_dense(p) @ u.conj().T).real
    return TomogramTable(
        w_uu=float(w[0]),
        w_ud=float(w[1]),
        w_du=float(w[2]),
        w_dd=float(w[3]),
        dir_a=dir_a,
        dir_b=dir_b,
    )


def spin_flip(p: XParams) -> XParams:
    """Conjugate rho* by sigma_y x sigma_y and read the result back.

    The map is performed on the dense matrix rather than shortcut, even
    though every X matrix is its own spin flip.
    """
    yy = np.zeros((4, 4))
    yy[0, 3] = yy[3, 0] = -1.0
    yy[1, 2] = yy[2, 1] = 1.0
    m = yy @ to_dense(p).conj() @ yy
    return XParams(a=m[0, 0].real, b=m[1, 1].real, c=m[1, 2], d=m[0, 3])


def werner_tomogram(p: float, n: int, dir_a: Direction, dir_b: Direction) -> TomogramTable:
    """Tomogram of the power-map image of a Werner state, in closed form.

    Written directly over the power sums u = (1+3p)^n and v = (1-p)^n
    rather than through the channel, so it is an independent check of the
    general pipeline.  Valid for any real mixing weight whose image is a
    genuine state; raises otherwise.
    """
    _check_power(n)
    u = (1.0 + 3.0 * p) ** n
    v = (1.0 - p) ** n
    norm = u + 3.0 * v
    if abs(norm) < 1e-12 * (abs(u) + 3.0 * abs(v)) or norm == 0.0:
        raise ZeroDenominatorError(f"normalization vanishes at p={p}, n={n}")
    hi = 0.5 * (u + v) / norm
    lo = v / norm
    image = XParams(a=hi, b=lo, c=0.0, d=hi - lo)
    require_valid(image)
    # Shares f+ and f- with tomogram(); the coherence term below is its own.
    f_plus, f_minus = _pair_coefficients(dir_a, dir_b)[:2]
    r = (
        0.5
        * (hi - lo)
        * math.sin(dir_a.theta)
        * math.sin(dir_b.theta)
        * math.cos(dir_a.psi + dir_b.psi)
    )
    same = hi * f_plus + lo * f_minus + r
    cross = hi * f_minus + lo * f_plus - r
    return TomogramTable(
        w_uu=same, w_ud=cross, w_du=cross, w_dd=same, dir_a=dir_a, dir_b=dir_b
    )


def werner_i_n_closed_form(p: float, n: int) -> float:
    """Quantum mutual information of the power-map image of a Werner state.

    The closed form over the power sums u = (1+3p)^n and v = (1-p)^n with
    normalization z = u + 3v,

        I = ln 4 - ln z + (u ln u + 3 v ln v) / z,

    written without the channel or the spectrum.  Only for powers whose
    sums stay finite, and for images that are genuine states.
    """
    u = (1.0 + 3.0 * p) ** n
    v = (1.0 - p) ** n
    z = u + 3.0 * v
    t = 0.0
    if u > 0.0:
        t += u * math.log(u)
    if v > 0.0:
        t += 3.0 * v * math.log(v)
    return math.log(4.0) - math.log(z) + t / z


def _unit(z: complex) -> complex:
    """``z / |z|``, and 1 at zero."""
    return z / abs(z) if z else complex(1.0)


def power_channel_via_spectrum(p: XParams, n: int) -> ChannelResult:
    """rho -> rho^n / Tr rho^n through ``spectrum(p)``, as the library once computed it.

    Raises each eigenvalue in ``spectrum(p)`` to the power ``n`` and puts the
    image's coherences back on the input's phases, computed here.  Every
    float operation is the library's, in the same order, so the two must
    agree bit for bit, and raise the same exceptions.
    """
    _check_power(n)
    l1, l2, l3, l4 = (x**n for x in spectrum(p))
    denom = 2.0 * (l1 + l2 + l3 + l4)
    scale = 2.0 * (abs(l1) + abs(l2) + abs(l3) + abs(l4))
    if denom == 0.0 or abs(denom) < 1e-12 * scale:
        raise ZeroDenominatorError(f"Tr rho^{n} vanishes for {p}")
    a, b = (l1 + l4) / denom, (l2 + l3) / denom
    c, d = (l2 - l3) / denom, (l1 - l4) / denom
    if not math.isfinite(a + b + c + d):
        raise OverflowError(f"the image of {p} under rho^{n} / Tr rho^{n} is not finite")
    out = XParams(a=a, b=b, c=c * _unit(p.c), d=d * _unit(p.d))
    return ChannelResult(params=out, n=n)
