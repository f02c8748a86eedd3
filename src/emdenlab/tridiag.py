"""Deterministic eigenvalue tools for symmetric tridiagonal pencils.

Inertia counts come from LDL^T pivots (Sturm sequences), in one loop on
Python floats.  The pencil count of (A, M) below a shift is the standard
count of A - shift*M below 0 (Sylvester inertia).  The k smallest
eigenvalues of a standard matrix come from LAPACK ``dstebz`` bisection
with an absolute tolerance near underflow.  The default tolerance is eps
times the Gershgorin width: it resolves the low end only to an absolute
eps * ||T|| (a few 1e-9 on a stability matrix with 2/h^2 = 1e7) and
loses the small eigenvalues of a graded matrix altogether.  The pinned
tolerance keeps every eigenvalue to full relative accuracy whatever the
scale or grading (Barlow & Demmel, SIAM J. Numer. Anal. 27, 1990).  No
pencil eigenvalue is computed here: the pencil count certifies one known
in closed form, with no eigenvalue just below it and one just above it.
All routines are pure functions of their inputs, so repeated calls are
bit-reproducible.
"""

from __future__ import annotations

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
    e = np.asarray(e, dtype=float)
    piv = _pivmin(e)
    d = (np.asarray(d, dtype=float) - shift).tolist()
    q = d[0]
    count = int(q < 0.0)
    for di, ei2 in zip(d[1:], (e * e).tolist()):
        # floor |q| at the pivot minimum; a zero (either sign) was counted
        # as non-negative, so it goes to +piv
        if -piv < q < piv:
            q = -piv if q < 0.0 else piv
        q = di - ei2 / q
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

    The standard count of the tridiagonal A - shift*M below 0.
    """
    return count_below(ad - shift * md, ae - shift * me, 0.0)
