"""Deterministic eigenvalue tools for symmetric tridiagonal pencils.

Inertia counts come from LDL^T pivots (Sturm sequences), in a loop on
Python floats.  A ``Constant`` off-diagonal's square is formed once and the
loop runs over the diagonal alone; an array off-diagonal is zipped with
the diagonal row by row.  A pivot at or above the pivot floor costs one
comparison per row; the count of negative pivots and the +-floor sit in
the rare branch below it.  The pencil count of (A, M) below a shift is
the standard count of A - shift*M below 0 (Sylvester inertia).  The k smallest
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
A constant diagonal is a ``Constant``, its value and its length with no
array behind it, which the counts read as the value repeated.  So the two
constant-coefficient forms (the Hardy pencil and the stability form about
v_infinity) are counted on Python floats and load no numpy; only an array
argument loads numpy.  The stability form's off-diagonal is a ``Constant``
on every route; ``smallest_eigenvalues`` and numpy read it as its array.
Every routine takes a matrix of order n >= 1 with n - 1 off-diagonal
entries, a mass of the same shape, and finite entries and shift; anything
else is ``InvalidParameterError``, checked in O(1) on ``Constant``s.
All routines are pure functions of their inputs, so repeated calls are
bit-reproducible.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat

from .errors import InvalidParameterError, NumericalError

#: Absolute bisection tolerance for ``dstebz``: near underflow, so every
#: eigenvalue is resolved to full relative accuracy.
STEBZ_TOL = 2.0 * sys.float_info.min


class Constant:
    """A diagonal whose ``n`` entries all equal ``value``, with no array behind it.

    Immutable: ``value`` (a Python float) and ``n`` are set once.  ``len`` is n,
    and ``numpy.asarray`` gives the n entries.
    """

    __slots__ = ("value", "n")

    def __init__(self, value: float, n: int):
        object.__setattr__(self, "value", float(value))  # keeps the loop on Python floats
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Constant is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self.n

    def __array__(self, dtype=None, copy=None):
        import numpy as np

        return np.full(self.n, self.value, dtype=dtype)


def count_below(d, e, shift: float) -> int:
    """Number of eigenvalues of tridiag(d, e) strictly below shift.

    Counts the negative LDL^T pivots of tridiag(d, e) - shift (Sylvester
    inertia), one row at a time in Python floats.  A pivot at or above
    the pivot floor costs one comparison before the next update; only a
    pivot below it takes the rare branch, which counts it if negative
    and floors |q| at the pivot minimum.  d and e are arrays or
    ``Constant``s; a ``Constant`` feeds the loop its value repeated, and a
    ``Constant`` e is squared once, outside the loop.
    """
    _check(d, e, shift)
    if isinstance(e, Constant):
        emax = e.value * e.value
    else:
        import numpy as np

        e = np.asarray(e, dtype=float)
        e2 = e * e
        emax = float(np.max(e2)) if e2.size else 0.0
        e2 = e2.tolist()
    piv = sys.float_info.min * max(1.0, emax)  # unused where e is empty
    if isinstance(d, Constant):
        q = d.value - shift
        rows = repeat(q, d.n - 1)
    else:
        import numpy as np

        d = (np.asarray(d, dtype=float) - shift).tolist()
        q, rows = d[0], d[1:]
    count = 0
    # the same pivot guard in both loops; the first reads e^2 from a local
    if isinstance(e, Constant):
        for di in rows:
            if q < piv:
                if q < 0.0:
                    count += 1
                    if q > -piv:
                        q = -piv
                else:
                    # a zero (either sign) counts as non-negative: it goes to +piv
                    q = piv
            q = di - emax / q
    else:
        for di, ei2 in zip(rows, e2):
            if q < piv:
                if q < 0.0:
                    count += 1
                    if q > -piv:
                        q = -piv
                else:
                    q = piv
            q = di - ei2 / q
    return count + (q < 0.0)


def smallest_eigenvalues(d, e, k: int):
    """The k smallest eigenvalues of tridiag(d, e), ascending (LAPACK dstebz)."""
    from scipy.linalg import eigh_tridiagonal

    _check(d, e, 0.0)
    n = len(d)
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


def count_below_pencil(ad, ae, md, me, shift: float) -> int:
    """Eigenvalues of the pencil (A, M) strictly below shift, M tridiagonal SPD.

    The standard count of the tridiagonal A - shift*M below 0, which is a
    ``Constant`` on each diagonal where A's and M's both are.
    """
    _check(ad, ae, shift, md, me)
    return count_below(_minus(ad, shift, md), _minus(ae, shift, me), 0.0)


def _minus(a, shift: float, m):
    """a - shift*m entry by entry; a ``Constant`` where a and m both are."""
    if isinstance(a, Constant) and isinstance(m, Constant):
        return Constant(a.value - shift * m.value, a.n)
    return a - shift * m


def _check(d, e, shift: float, *mass) -> None:
    """``InvalidParameterError`` unless tridiag(d, e) is a matrix of order n >= 1
    with finite entries, a mass (md, me) if given has its lengths, and the shift
    is finite; O(1) on ``Constant``s.

    With a mass the entries go unchecked here: the pencil count checks those of
    A - shift*M, which are non-finite where an entry of A or M is.
    """
    n = len(d)
    if n < 1 or len(e) != n - 1:
        raise InvalidParameterError(
            f"a tridiagonal matrix needs n >= 1 diagonal and n - 1 off-diagonal entries, "
            f"got {n} and {len(e)}"
        )
    if mass and (len(mass[0]), len(mass[1])) != (n, n - 1):
        raise InvalidParameterError(
            f"the mass needs {n} and {n - 1} entries like the matrix, "
            f"got {len(mass[0])} and {len(mass[1])}"
        )
    if not (math.isfinite(shift) and (mass or _finite(d) and _finite(e))):
        raise InvalidParameterError("tridiagonal entries and the shift must be finite")


def _finite(x) -> bool:
    if isinstance(x, Constant):
        return math.isfinite(x.value)
    import numpy as np

    return bool(np.isfinite(np.asarray(x, dtype=float)).all())
