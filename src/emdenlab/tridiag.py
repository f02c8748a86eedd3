"""Deterministic eigenvalue tools for symmetric tridiagonal pencils.

Inertia counts come from LDL^T pivots (Sturm sequences), in one loop on
Python floats.  A pivot at or above the pivot floor costs one comparison
per row; the count of negative pivots and the +-floor sit in the rare
branch below it.  The pencil count of (A, M) below a shift is the standard
count of A - shift*M below 0 (Sylvester inertia).  The k smallest
eigenvalues of a standard matrix come from LAPACK ``dstebz`` bisection
with an absolute tolerance near underflow; only this routine loads
``scipy.linalg``, and only a matrix with no closed-form spectrum (a
stability form whose potential varies along the nodes) needs it.  The
default tolerance is eps times the Gershgorin width: it resolves the low
end only to an absolute eps * ||T|| (a few 1e-9 on a stability matrix
with 2/h^2 = 1e7) and loses the small eigenvalues of a graded matrix
altogether.  The pinned
tolerance keeps every eigenvalue to full relative accuracy whatever the
scale or grading (Barlow & Demmel, SIAM J. Numer. Anal. 27, 1990).  No
pencil eigenvalue is computed here: the pencil count certifies one known
in closed form, with no eigenvalue just below it and one just above it,
and the standard count certifies the closed-form spectrum of a Toeplitz
stability form in the same way.
All routines are pure functions of their inputs, so repeated calls are
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

#: Absolute bisection tolerance for ``dstebz``: near underflow, so every
#: eigenvalue is resolved to full relative accuracy.
STEBZ_TOL = 2.0 * np.finfo(float).tiny


def _pivmin(e2: np.ndarray) -> float:
    emax = float(np.max(e2)) if e2.size else 0.0
    # a Python float, so a floored pivot keeps the loop off numpy scalars
    return float(np.finfo(float).tiny) * max(1.0, emax)


def count_below(d: np.ndarray, e: np.ndarray, shift: float) -> int:
    """Number of eigenvalues of tridiag(d, e) strictly below shift.

    Counts the negative LDL^T pivots of tridiag(d, e) - shift (Sylvester
    inertia), one row at a time in Python floats.  A pivot at or above
    the pivot floor costs one comparison before the next update; only a
    pivot below it takes the rare branch, which counts it if negative
    and floors |q| at the pivot minimum.
    """
    e = np.asarray(e, dtype=float)
    e2 = e * e
    piv = _pivmin(e2)
    d = (np.asarray(d, dtype=float) - shift).tolist()
    q = d[0]
    count = 0
    for di, ei2 in zip(d[1:], e2.tolist()):
        if q < piv:
            if q < 0.0:
                count += 1
                if q > -piv:
                    q = -piv
            else:
                # a zero (either sign) counts as non-negative: it goes to +piv
                q = piv
        q = di - ei2 / q
    return count + (q < 0.0)


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
