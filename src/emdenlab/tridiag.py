"""Deterministic eigenvalue tools for symmetric tridiagonal pencils.

Inertia counts come from LDL^T pivots (Sturm sequences), for a standard
matrix and for a pencil (A, M).  The k smallest eigenvalues of a standard
matrix come from LAPACK ``dstebz`` bisection with an absolute tolerance
near underflow.  The default tolerance is eps times the Gershgorin
width: it resolves the low end only to an absolute eps * ||T|| (a few
1e-9 on a stability matrix with 2/h^2 = 1e7) and loses the small
eigenvalues of a graded matrix altogether.  The pinned tolerance keeps
every eigenvalue to full relative accuracy whatever the scale or grading
(Barlow & Demmel, SIAM J. Numer. Anal. 27, 1990).  No pencil
eigenvalue is computed here: the pencil count certifies one known in
closed form, with no eigenvalue just below it and one just above it.  All routines are pure functions of
their inputs, so repeated calls are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

#: Absolute bisection tolerance for ``dstebz``: near underflow, so every
#: eigenvalue is resolved to full relative accuracy.
STEBZ_TOL = 2.0 * np.finfo(float).tiny


def _pivmin(e: np.ndarray) -> float:
    emax = float(np.max(e * e)) if e.size else 0.0
    return np.finfo(float).tiny * max(1.0, emax)


def count_below(d: np.ndarray, e: np.ndarray, shift: float) -> int:
    """Number of eigenvalues of tridiag(d, e) strictly below shift.

    Counts the negative LDL^T pivots of tridiag(d, e) - shift (Sylvester
    inertia), one row at a time in Python floats.
    """
    d = np.asarray(d, dtype=float).tolist()
    e = np.asarray(e, dtype=float)
    piv = _pivmin(e)
    q = d[0] - shift
    count = int(q < 0.0)
    for di, ei2 in zip(d[1:], (e * e).tolist()):
        # copysign floors |q| at the pivot minimum (exact zeros go positive)
        q = (di - shift) - ei2 / math.copysign(max(abs(q), piv), q)
        count += q < 0.0
    return count


def smallest_eigenvalues(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of tridiag(d, e), ascending (LAPACK dstebz)."""
    from scipy.linalg import eigh_tridiagonal

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
