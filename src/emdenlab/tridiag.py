"""Deterministic eigenvalue tools for symmetric tridiagonal pencils.

Inertia counts come from LDL^T pivots (Sturm sequences), for a standard
matrix and for a pencil (A, M).  The k smallest eigenvalues of a standard
matrix come from LAPACK ``dstebz`` bisection with an absolute tolerance
near underflow, which keeps high relative accuracy on the graded
matrices of the stability assembly (Barlow & Demmel, SIAM J. Numer.
Anal. 27, 1990); the default tolerance does not.  The smallest pencil
eigenvalue is found by bisection on the pencil inertia.  All routines are
pure functions of their inputs, so repeated calls are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalError

#: Absolute bisection tolerance for ``dstebz``: near underflow, so every
#: eigenvalue is resolved to full relative accuracy.
STEBZ_TOL = 2.0 * np.finfo(float).tiny

_MAX_BISECT = 200


def _pivmin(e: np.ndarray) -> float:
    emax = float(np.max(e * e)) if e.size else 0.0
    return np.finfo(float).tiny * max(1.0, emax)


def count_below(d: np.ndarray, e: np.ndarray, shifts) -> np.ndarray | int:
    """Number of eigenvalues of tridiag(d, e) strictly below each shift.

    Vectorized over shifts: one sweep of the LDL^T pivot recurrence per
    matrix row, array arithmetic across all shifts at once.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    scalar = np.isscalar(shifts) or np.ndim(shifts) == 0
    x = np.atleast_1d(np.asarray(shifts, dtype=float))
    piv = _pivmin(e)
    dx = d[:, None] - x[None, :]
    e2 = e * e
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = dx[0]
        count = (q < 0.0).astype(np.int64)
        for i in range(1, d.size):
            # copysign floors |q| at the pivot minimum (exact zeros go positive)
            q = dx[i] - e2[i - 1] / np.copysign(np.maximum(np.abs(q), piv), q)
            count += q < 0.0
    return int(count[0]) if scalar else count


def smallest_eigenvalues(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of tridiag(d, e), ascending (LAPACK dstebz)."""
    n = np.size(d)
    if not 1 <= k <= n:
        raise NumericalError(f"cannot extract {k} eigenvalues from order {n}")
    return eigh_tridiagonal(
        d,
        e,
        eigvals_only=True,
        select="i",
        select_range=(0, k - 1),
        lapack_driver="stebz",
        tol=STEBZ_TOL,
    )


def count_below_pencil(
    ad: np.ndarray,
    ae: np.ndarray,
    md: np.ndarray,
    me: np.ndarray,
    shift: float,
) -> int:
    """Eigenvalues of the pencil (A, M) strictly below shift, M tridiagonal SPD.

    Counts negative LDL^T pivots of A - shift*M (Sylvester inertia).
    """
    n = ad.size
    piv = _pivmin(np.abs(ae) + abs(shift) * np.abs(me) if ae.size else np.zeros(0))
    q = ad[0] - shift * md[0]
    count = 1 if q < 0.0 else 0
    for i in range(1, n):
        if abs(q) < piv:
            q = -piv if q < 0.0 else piv
        off = ae[i - 1] - shift * me[i - 1]
        q = (ad[i] - shift * md[i]) - off * off / q
        if q < 0.0:
            count += 1
    return count


def min_eigenvalue_pencil(
    ad: np.ndarray,
    ae: np.ndarray,
    md: np.ndarray,
    me: np.ndarray,
) -> float:
    """Smallest eigenvalue of the pencil (A, M), both symmetric tridiagonal.

    M must be strictly diagonally dominant positive definite (true for the
    piecewise-linear mass matrices assembled here).
    """
    ad = np.asarray(ad, dtype=float)
    ae = np.asarray(ae, dtype=float)
    md = np.asarray(md, dtype=float)
    me = np.asarray(me, dtype=float)
    radius = np.zeros_like(md)
    if me.size:
        radius[:-1] += np.abs(me)
        radius[1:] += np.abs(me)
    m_floor = float(np.min(md - radius))
    if m_floor <= 0.0:
        raise NumericalError("mass matrix is not strictly diagonally dominant")
    a_norm = np.zeros_like(ad) + np.abs(ad)
    if ae.size:
        a_norm[:-1] += np.abs(ae)
        a_norm[1:] += np.abs(ae)
    bound = float(np.max(a_norm)) / m_floor
    lo, hi = -bound - 1.0, bound + 1.0
    for _ in range(_MAX_BISECT):
        mag = max(abs(lo), abs(hi))
        width_tol = max(1e-13 * mag, 4.0 * math.ulp(mag))
        if hi - lo <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        if count_below_pencil(ad, ae, md, me, mid) >= 1:
            hi = mid
        else:
            lo = mid
    else:
        raise NumericalError("pencil bisection did not converge")
    return 0.5 * (lo + hi)
