"""Reference implementations the tests compare the closed forms against.

Each one reaches its answer by a different route from the library: a dense
SU(2) rotation, a dense spin flip, a dense partial transpose, eigenvalues
from ``numpy.linalg``, the Werner power sums written out by hand for the
tomogram and the mutual information, or the power map through ``spectrum``
and phases of its own.  Beside them, :func:`werner_i_n` is the library's own
chain at a Werner state, which several tests hold against those references,
and the ``*_reference`` functions are the scalar measures written out again
without the library's memos, which the library must match bit for bit.
Matrix powers need no helper: the tests call ``numpy.linalg`` directly.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from xstates import (
    EPS_PSD,
    EPS_TRACE,
    InfoReport,
    InvalidSpectrumError,
    InvalidStateError,
    ShannonReport,
    StateClass,
    system_entropies,
)
from xstates.dense import to_dense
from xstates.tomography import Direction, InvalidAngleError, TomogramTable, _weights
from xstates.xstate import (
    ChannelResult,
    XParams,
    ZeroDenominatorError,
    _check_power,
    _spectrum,
    apply_power_channel,
    spectrum,
    werner,
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
    require_valid_reference(p)
    u = np.kron(su2_matrix(dir_a), su2_matrix(dir_b))
    w = np.diag(u @ to_dense(p) @ u.conj().T).real
    return TomogramTable(*map(float, w))


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


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Partial transpose of a two-qubit matrix over the second qubit, by index shuffling."""
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def classify_dense(p: XParams) -> StateClass:
    """The class of ``p`` from the dense trace and eigenvalues of rho and its partial transpose."""
    m = to_dense(p)
    if abs(np.trace(m).real - 1.0) > EPS_TRACE:
        return StateClass.INVALID_TRACE
    if np.linalg.eigvalsh(m).min() < -EPS_PSD:
        return StateClass.INVALID_NOT_PSD
    if np.linalg.eigvalsh(partial_transpose(m)).min() < -EPS_PSD:
        return StateClass.ENTANGLED
    return StateClass.SEPARABLE


def negativity_dense(p: XParams) -> float:
    """Trace norm of the dense partial transpose."""
    return float(np.abs(np.linalg.eigvalsh(partial_transpose(to_dense(p)))).sum())


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian matrix by ``eigh``, with negative eigenvalues taken as 0."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def concurrence_dense(p: XParams) -> float:
    """Wootters' concurrence of ``p`` from its dense spin flip.

    The roots are the singular values of sqrt(rho) sqrt(rho~), which are the
    square roots of the eigenvalues of rho rho~.  Taken from those
    eigenvalues instead, a root near 0 would be off by 1e-9 or more.
    """
    roots = np.linalg.svd(_sqrt_psd(to_dense(p)) @ _sqrt_psd(to_dense(spin_flip(p))),
                          compute_uv=False).tolist()  # descending
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def entropy_dense(p: XParams) -> float:
    """S(rho) from ``numpy.linalg.eigvalsh`` of the dense matrix, with 0 ln 0 = 0."""
    return -sum(x * math.log(x) for x in np.linalg.eigvalsh(to_dense(p)).tolist() if x > 0.0)


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
    require_valid_reference(image)
    # Shares f+ and f- with tomogram(); the coherence term below is its own.
    f_plus, f_minus = pair_coefficients_reference(dir_a, dir_b)[:2]
    r = (
        0.5
        * (hi - lo)
        * math.sin(dir_a.theta)
        * math.sin(dir_b.theta)
        * math.cos(dir_a.psi + dir_b.psi)
    )
    same = hi * f_plus + lo * f_minus + r
    cross = hi * f_minus + lo * f_plus - r
    return TomogramTable(same, cross, cross, same)


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


def werner_i_n(p: float, n: int) -> float:
    """I_n of the power-map image of ``werner(p)``, by the library's public chain.

    Not an independent route: ``apply_power_channel`` then ``system_entropies``,
    as ``sweep-werner``'s ``i_n`` column computes it.  Requires the image to be
    a genuine state.
    """
    return system_entropies(apply_power_channel(werner(p), n).params).i_n


def _unit(z: complex) -> complex:
    """``z / |z|``, and 1 at zero."""
    return z / abs(z) if z else complex(1.0)


def power_channel_via_spectrum(p: XParams, n: int) -> ChannelResult:
    """rho -> rho^n / Tr rho^n through ``spectrum(p)``, as the library once computed it.

    Raises each eigenvalue in ``spectrum(p)`` to the power ``n`` and puts the
    image's coherences back on the input's phases, computed here.  Every
    float operation is the library's, in the same order, so the two must
    agree bit for bit, and raise the same exceptions with the same messages.
    The vanishing test takes the scale ``2 * sum(|l_i^n|)`` for every
    spectrum, not only where a power is negative.
    """
    _check_power(n)
    try:
        l1, l2, l3, l4 = (x**n for x in spectrum(p))
    except OverflowError:
        raise OverflowError(f"an eigenvalue of {p} to the power {n} is not finite") from None
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


# The scalar measures without the library's memos: a validity check of their
# own, then the coherences' moduli once more; every weight clamped, then added;
# both marginal entropies computed; each result through its constructor.


def _modulus_reference(z: complex) -> float:
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def classify_reference(p: XParams) -> StateClass:
    """Separability of an X state via the partial-transpose spectrum."""
    cm, dm = _modulus_reference(p.c), _modulus_reference(p.d)
    if abs(2.0 * (p.a + p.b) - 1.0) > EPS_TRACE:
        return StateClass.INVALID_TRACE
    if (p.a - dm < -EPS_PSD) | (p.b - cm < -EPS_PSD):
        return StateClass.INVALID_NOT_PSD
    if (p.a - cm < -EPS_PSD) | (p.b - dm < -EPS_PSD):
        return StateClass.ENTANGLED
    return StateClass.SEPARABLE


def validate_reference(p: XParams) -> StateClass | None:
    """The failing class of an invalid state, or None for a genuine one."""
    bad = classify_reference(p)
    return bad if bad in (StateClass.INVALID_TRACE, StateClass.INVALID_NOT_PSD) else None


def spectrum_reference(p: XParams) -> tuple[float, float, float, float]:
    return _spectrum(p.a, p.b, _modulus_reference(p.c), _modulus_reference(p.d))


def require_valid_reference(p: XParams) -> None:
    """Raise :class:`InvalidStateError` unless ``p`` is a genuine state."""
    bad = classify_reference(p)
    if bad in (StateClass.INVALID_TRACE, StateClass.INVALID_NOT_PSD):
        raise InvalidStateError(bad)


def negativity_reference(p: XParams) -> float:
    require_valid_reference(p)
    return 2.0 * (max(p.a, abs(p.c)) + max(p.b, abs(p.d)))


def concurrence_reference(p: XParams) -> float:
    require_valid_reference(p)
    return max(0.0, 2.0 * (abs(p.c) - p.a), 2.0 * (abs(p.d) - p.b))


def pair_coefficients_reference(dir_a: Direction, dir_b: Direction) -> tuple:
    """``tomography._pair_coefficients``, computed on every call with no memo."""
    psi_minus, psi_plus = dir_a.psi - dir_b.psi, dir_a.psi + dir_b.psi
    if not (math.isfinite(psi_minus) and math.isfinite(psi_plus)):
        raise InvalidAngleError(f"psi_a - psi_b and psi_a + psi_b must be finite,"
                                f" got {psi_minus} and {psi_plus}")
    ca = math.cos(0.5 * dir_a.theta) ** 2
    sa = 1.0 - ca
    cb = math.cos(0.5 * dir_b.theta) ** 2
    sb = 1.0 - cb
    e_minus = cmath.exp(1j * psi_minus)
    e_plus = cmath.exp(1j * psi_plus)
    return (
        ca * cb + sa * sb,
        ca * sb + sa * cb,
        0.5 * math.sin(dir_a.theta) * math.sin(dir_b.theta),
        e_minus.real, e_minus.imag, e_plus.real, e_plus.imag,
    )


def tomogram_reference(p: XParams, dir_a: Direction, dir_b: Direction) -> TomogramTable:
    require_valid_reference(p)
    coefficients = pair_coefficients_reference(dir_a, dir_b)
    same, cross = _weights(p.a, p.b, p.c.real, p.c.imag, p.d.real, p.d.imag, coefficients)
    return TomogramTable(same, cross, cross, same)


def marginals_reference(table: TomogramTable) -> tuple[tuple[float, float], tuple[float, float]]:
    """Single-qubit outcome distributions implied by a joint tomogram."""
    first = (table.w_uu + table.w_ud, table.w_du + table.w_dd)
    second = (table.w_uu + table.w_du, table.w_ud + table.w_dd)
    return first, second


def von_neumann_entropy_reference(eigenvalues: Sequence[float]) -> float:
    """Entropy -sum(lam ln lam) of an eigenvalue distribution, in nats."""
    # 0 ln 0 = 0, after clamping [-EPS_PSD, 0) to exactly 0.
    total = 0.0
    acc = 0.0
    for x in eigenvalues:
        if x < -EPS_PSD:
            raise InvalidSpectrumError(f"negative weight {x} below tolerance")
        if x < 0.0:
            x = 0.0
        total += x
        if x > 0.0:
            acc -= x * math.log(x)
    if not abs(total - 1.0) <= EPS_TRACE:  # NaN fails too
        raise InvalidSpectrumError(f"weights sum to {total}, expected 1")
    return acc


def system_entropies_reference(p: XParams) -> InfoReport:
    """Joint and marginal entropies of a valid X state."""
    require_valid_reference(p)
    s12 = von_neumann_entropy_reference(_spectrum(p.a, p.b, abs(p.c), abs(p.d)))
    q = p.a + p.b
    s1 = von_neumann_entropy_reference((q, q))
    return InfoReport(s12=s12, s1=s1, s2=s1, i_n=s1 + s1 - s12)


def shannon_report_from_table_reference(table: TomogramTable) -> ShannonReport:
    """Shannon entropies of an already-computed tomogram."""
    h12 = von_neumann_entropy_reference(table)
    first, second = marginals_reference(table)
    h1 = von_neumann_entropy_reference(first)
    h2 = von_neumann_entropy_reference(second)
    return ShannonReport(h12=h12, h1=h1, h2=h2, i_s=h1 + h2 - h12)
