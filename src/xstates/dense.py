"""Brute-force dense 4x4 Hermitian linear algebra.

This module is the independent cross-check for the closed forms in the rest
of the package: it never looks at X-structure and computes everything from
the dense matrix alone.  Eigensystems come from a cyclic Jacobi sweep with
complex plane rotations, and matrix powers are taken by repeated
multiplication rather than through any diagonalization.
"""

from __future__ import annotations

import math

import numpy as np

from .xstate import XParams, _check_power

# Jacobi termination: off-diagonal Frobenius norm threshold and sweep cap.
_OFF_TOL = 1e-13
_MAX_SWEEPS = 100
_HERM_TOL = 1e-14


class NonHermitianError(ValueError):
    """Raised when an operation expecting a Hermitian matrix gets otherwise."""


class ZeroTraceError(ZeroDivisionError):
    """Raised when a matrix power cannot be normalized to unit trace."""


def to_dense(p: XParams) -> np.ndarray:
    """Dense complex matrix for an X-parameter quadruple."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = p.a
    m[1, 1] = m[2, 2] = p.b
    m[1, 2] = p.c
    m[2, 1] = p.c.conjugate()
    m[0, 3] = p.d
    m[3, 0] = p.d.conjugate()
    return m


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
        raise NonHermitianError("matrix is not Hermitian")
    return m


def _off_norm(h: np.ndarray) -> float:
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def hermitian_eig4(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a Hermitian matrix by cyclic Jacobi rotations.

    Each rotation zeroes one off-diagonal pair (p, q): with h = H[p,q] =
    |h| e^{i phi} and theta = atan2(2|h|, H[p,p] - H[q,q]) / 2, the unitary

        U[p,p] = cos t,  U[p,q] = -sin t e^{i phi},
        U[q,p] = sin t e^{-i phi},  U[q,q] = cos t

    annihilates the pair under H -> U^H H U.  Sweeps repeat until the
    off-diagonal Frobenius norm drops below 1e-13 (at most 100 sweeps).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues sorted descending; eigenvectors as the matching columns
        of a unitary matrix.
    """
    h = _check_hermitian(m).copy()
    n = h.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(_MAX_SWEEPS):
        if _off_norm(h) < _OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = h[p, q]
                mag = abs(hpq)
                if mag == 0.0:
                    continue
                phase = hpq / mag
                theta = 0.5 * math.atan2(2.0 * mag, (h[p, p] - h[q, q]).real)
                if theta > 0.25 * math.pi:
                    # small-angle branch, needed for cyclic convergence
                    theta -= 0.5 * math.pi
                c = math.cos(theta)
                s = math.sin(theta)
                # Column update H <- H U, then row update H <- U^H H.
                col_p = h[:, p].copy()
                col_q = h[:, q].copy()
                h[:, p] = c * col_p + s * phase.conjugate() * col_q
                h[:, q] = -s * phase * col_p + c * col_q
                row_p = h[p, :].copy()
                row_q = h[q, :].copy()
                h[p, :] = c * row_p + s * phase * row_q
                h[q, :] = -s * phase.conjugate() * row_p + c * row_q
                h[p, q] = 0.0
                h[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp + s * phase.conjugate() * vq
                v[:, q] = -s * phase * vp + c * vq
    evals = np.real(np.diag(h))
    order = np.argsort(-evals, kind="stable")
    return evals[order], v[:, order]


def matrix_power_normalize(m: np.ndarray, n: int) -> np.ndarray:
    """Return m^n / Tr m^n computed by repeated multiplication.

    Deliberately avoids eigendecomposition so the result is independent of
    the spectral closed forms it is used to check.  Raises
    :class:`ZeroTraceError` when the trace of the power cancels away.
    """
    _check_power(n)
    acc = _check_hermitian(m).copy()
    base = acc.copy()
    for _ in range(n - 1):
        acc = acc @ base
    tr = np.trace(acc).real
    scale = float(np.linalg.norm(acc))
    if scale == 0.0 or abs(tr) < 1e-12 * scale:
        raise ZeroTraceError(f"trace of matrix power {n} vanishes")
    return acc / tr


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    evals, _ = hermitian_eig4(m)
    return float(np.sum(np.abs(evals)))
