"""Parameter algebra for the weighted Lane-Emden equation.

The equation -div(|x|^theta grad v) = |x|^l |v|^(p-1) v posed in R^N
behaves, radially, like an unweighted problem in the effective dimension
N' = N + theta with Henon-type weight tau = l - theta.  This module holds
the exact algebra built on those indices:

* the Serrin exponent (N'+tau)/(N'-2) and the Sobolev-type exponent
  (N'+2+2*tau)/(N'-2),
* the potential-strength function f(p) = p*m*(N'-2-m), m = (2+tau)/(p-1),
  which measures the linearization of the equation at its explicit
  singular solution against the Hardy level (N'-2)^2/4,
* the two critical powers p_tilde_c = P_minus and p_c (the
  Joseph-Lundgren-type power, P_plus or infinity) where f crosses the
  Hardy level, obtained both in closed form and by bisection,
* the regime classification of a given power p, and
* the change of variables v = |x|^sigma u linking the weighted equation
  to the nonlinear Schrodinger equation with Hardy potential
  -Delta u = |x|^alpha |u|^(p-1) u + ell |x|^(-2) u.

Everything here is pure arithmetic on immutable values and is safe for
concurrent use.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import InvalidParameterError, NumericalError

#: Bisection in m stops when the bracket is narrower than this times m.
BISECTION_WIDTH = 1e-12
#: A returned root m must satisfy |g(m)| <= this * (m + c) * A (see ``critical_exponents``).
ROOT_RESIDUAL_TOL = 8.0 * 2.0**-52
#: Allowed disagreement between closed-form and bisection roots, relative to the root.
CROSSCHECK_TOL = 1e-8


def _require_p_above_one(p: float) -> None:
    if not p > 1.0:
        raise InvalidParameterError(f"p must exceed 1, got {p}")


def _check_fields(cls, N, a: float, b: float, p: float):
    """The ``cls`` tuple (N, a, b, p): an integer N >= 2 (stored as int), p > 1, finite a, b, p."""
    if not (float(N).is_integer() and N >= 2):  # NaN and inf are not integers
        raise InvalidParameterError(f"N must be an integer >= 2, got {N}")
    _require_p_above_one(p)
    for name, value in zip(cls._fields[1:], (a, b, p)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite")
    return tuple.__new__(cls, (int(N), a, b, p))


def _checked_make(cls, iterable):
    """``_make``, and so ``_replace``, of a checked record: through ``__new__`` and its checks."""
    return cls(*iterable)


class ProblemParams(namedtuple("ProblemParams", "N theta l p")):
    """Parameters (N, theta, l, p) of the weighted equation and their indices.

    ``standard_regime`` records the standing assumption N + theta > 2 and
    l - theta > -2 under which the critical-exponent theory applies.
    Parameters outside that regime are representable (the dual transform
    produces them) but most operations reject them.  ``serrin`` and
    ``sobolev`` are None exactly when N' = 2, where their quotients are
    singular.  ``c0``, the amplitude of the singular solution c0 r^(-m_exp),
    exists exactly when N' > 2, tau > -2 and p exceeds the Serrin exponent,
    and raises NumericalError where it leaves the float range.

    A named tuple: immutable, it compares, hashes and unpacks as the tuple
    (N, theta, l, p).  Construction, ``_make``, ``_replace`` and unpickling
    all run the checks (an integer N >= 2, p > 1, all finite).
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, N: int, theta: float, l: float, p: float):
        return _check_fields(cls, N, theta, l, p)

    @property
    def n_prime(self) -> float:
        return self.N + self.theta

    @property
    def tau(self) -> float:
        return self.l - self.theta

    @property
    def standard_regime(self) -> bool:
        return self.n_prime > 2.0 and self.tau > -2.0

    @property
    def m_exp(self) -> float:
        return (2.0 + self.tau) / (self.p - 1.0)

    @property
    def serrin(self) -> float | None:
        return None if self.n_prime == 2.0 else _serrin_sobolev(self.n_prime, self.tau)[0]

    @property
    def sobolev(self) -> float | None:
        return None if self.n_prime == 2.0 else _serrin_sobolev(self.n_prime, self.tau)[1]

    @property
    def c0(self) -> float | None:
        """(m (N'-2-m))^(1/(p-1)) where N' > 2 and the base is positive, else None."""
        np_, m = self.n_prime, self.m_exp
        base = m * (np_ - 2.0 - m)
        if not (np_ > 2.0 and base > 0.0):
            return None
        try:
            c0 = base ** (1.0 / (self.p - 1.0))
        except OverflowError:
            c0 = math.inf
        if not 0.0 < c0 < math.inf:
            raise NumericalError(f"c0 leaves the float range at N' = {np_}, p = {self.p}")
        return c0


def _require_regime(params: ProblemParams) -> None:
    if not params.standard_regime:
        raise InvalidParameterError("need N' > 2 and tau > -2")


def _require_singular(params: ProblemParams) -> None:
    """Raise ``InvalidParameterError`` unless the singular solution c0 r^(-m) exists.

    Tests the base m (N'-2-m) of c0, not c0 itself: a c0 out of the float
    range stops only the callers that read it.
    """
    _require_regime(params)
    m = params.m_exp
    if not m * (params.n_prime - 2.0 - m) > 0.0:
        raise InvalidParameterError("singular solution needs p above the Serrin exponent")


class RegimeLabel(str, Enum):
    """Position of p relative to the critical powers at (N', tau)."""

    BELOW_SERRIN = "below_serrin"
    SERRIN_TO_PTILDE = "serrin_to_ptilde"
    REMOVABILITY_WINDOW = "removability_window"
    SOBOLEV_EXACT = "sobolev_exact"
    AT_OR_ABOVE_PC = "at_or_above_pc"


class CriticalExponents(
    namedtuple("CriticalExponents", "serrin sobolev p_c p_tilde_c quadratic_coeffs")
):
    """Roots of f(p) = (N'-2)^2/4 for a fixed (N', tau).

    ``p_tilde_c``, the lower crossing, always exists and lies strictly
    between the Serrin and Sobolev exponents.  The upper crossing exists
    iff N' > 10 + 4*tau and then lies strictly above the Sobolev exponent;
    ``p_c`` is that crossing, and None (meaning +infinity) for
    2 < N' <= 10 + 4*tau.  Infinity is always this explicit None, never a
    float sentinel.  ``serrin`` and ``sobolev`` are the ends of the window
    that holds ``p_tilde_c``.  ``quadratic_coeffs`` are the coefficients
    (a, b, c) of the equivalent quadratic a*p**2 - b*p + c = 0.  A named
    tuple of those five fields, in that order.
    """

    __slots__ = ()


class SchrodingerParams(namedtuple("SchrodingerParams", "N alpha ell p")):
    """Parameters (N, alpha, ell, p) of the Hardy-potential equation.

    Requires ell < (N-2)^2/4 so that the exponent sigma of the change of
    variables v = |x|^sigma u is defined.  A named tuple whose construction,
    ``_make``, ``_replace`` and unpickling run ``ProblemParams``' checks and
    this one.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, N: int, alpha: float, ell: float, p: float):
        self = _check_fields(cls, N, alpha, ell, p)
        cap = _hardy_level(self.N)
        if not self.ell < cap:
            raise InvalidParameterError(
                f"ell must be below (N-2)^2/4 = {cap}, got {self.ell}"
            )
        return self

    @property
    def sigma(self) -> float:
        half = (self.N - 2.0) / 2.0
        return half - math.sqrt(half * half - self.ell)


class Classification(namedtuple("Classification", (
    "label", "condition_weight_balance", "p_c_weighted", "p_c_dimension",
    "removability_upper", "removability_applies",
))):
    """Regime label plus the auxiliary facts the label depends on.

    ``condition_weight_balance`` is the inequality
    tau <= (p-1)*theta / (2p + 2*sqrt(p(p-1))), which decides whether
    min(p_c(N',tau), p_c(N,0)) is attained by the weighted exponent.
    ``removability_applies`` is True when p sits strictly between
    p_tilde_c and that minimum and is not the Sobolev exponent; only then
    do the removable-singularity / fast-decay conclusions apply.  The
    label itself partitions (1, inf) using p_c(N', tau) alone.  A named
    tuple of those six fields, in that order.
    """

    __slots__ = ()


def _serrin_sobolev(n_prime: float, tau: float) -> tuple[float, float]:
    """Serrin exponent (N'+tau)/(N'-2) and Sobolev exponent (N'+2+2*tau)/(N'-2)."""
    return (n_prime + tau) / (n_prime - 2.0), (n_prime + 2.0 + 2.0 * tau) / (n_prime - 2.0)


def f_eval(p: float, n_prime: float, tau: float) -> float:
    """Potential strength f(p) = p * m * (N'-2-m) with m = (2+tau)/(p-1).

    Vanishes at the Serrin exponent and tends to (2+tau)*(N'-2) as
    p -> infinity.
    """
    _require_p_above_one(p)
    m = (2.0 + tau) / (p - 1.0)
    return p * m * (n_prime - 2.0 - m)


def gamma_of_p(p: float) -> float:
    """Upper endpoint 2p + 2*sqrt(p(p-1)) - 1 of the admissible test-power range."""
    _require_p_above_one(p)
    return 2.0 * p + 2.0 * math.sqrt(p * (p - 1.0)) - 1.0


def capital_gamma(p: float, tau: float) -> float:
    """Effective-dimension threshold whose crossing with N' locates p_c.

    Gamma(p) = 2*(2+tau)*(1 + 1/(p-1) + sqrt(1 + 1/(p-1))) + 2 is strictly
    decreasing on (1, inf), from +infinity down to 10 + 4*tau.
    """
    _require_p_above_one(p)
    s = 1.0 + 1.0 / (p - 1.0)
    return 2.0 * (2.0 + tau) * (s + math.sqrt(s)) + 2.0


def delta(n_prime: float, p: float, gamma: float, tau: float) -> float:
    """Capacity balance N'(p-1) - (2+tau)*gamma - 2p - tau.

    At gamma = gamma_of_p(p) this equals (p-1)*(N' - capital_gamma(p, tau))
    and vanishes exactly at p = p_c(N', tau).
    """
    _require_p_above_one(p)
    return n_prime * (p - 1.0) - (2.0 + tau) * gamma - 2.0 * p - tau


def hardy_constant(n_prime: float) -> float:
    """Hardy level (N'-2)^2/4: the best constant of the weighted form bound.

    The companion Caffarelli-Kohn-Nirenberg inequality has optimal
    constant 4/(N'-2)^2; this function returns the form-side value.
    """
    if not 2.0 < n_prime < math.inf:
        raise InvalidParameterError(f"need a finite N' > 2, got {n_prime}")
    return _hardy_level(n_prime)


def _hardy_level(n_prime: float) -> float:
    """(N'-2)^2/4 for any N'; NumericalError where it overflows."""
    try:
        return (n_prime - 2.0) ** 2 / 4.0
    except OverflowError:
        raise NumericalError(
            f"(N'-2)^2/4 overflows: it leaves the float range at N' = {n_prime}"
        ) from None


def _indices(n_prime: float, tau: float) -> tuple[float, float, float]:
    """(N'-2)^2/4, A = N'-2 and c = 2+tau, once N' and tau are in the regime."""
    if not -2.0 < tau < math.inf:
        raise InvalidParameterError(f"need a finite tau > -2, got {tau}")
    level = hardy_constant(n_prime)  # InvalidParameterError unless 2 < N' < inf
    return level, n_prime - 2.0, 2.0 + tau


def _hardy_gap(m: float, A: float, c: float) -> float:
    """g(m)/A, where g(m) = (m+c)(A-m) - A^2/4 is f(p) - (N'-2)^2/4 at m = c/(p-1).

    Written as (c - A/4) + (m/A)(A-c-m): no term overflows, and near
    N' = 10 + 4*tau, where m_c -> 0, c - A/4 is exact and nothing cancels.
    """
    return (c - 0.25 * A) + m / A * (A - c - m)


def crossing_by_bisection(n_prime: float, tau: float, which: str = "plus") -> float:
    """Root of f(p) = (N'-2)^2/4 found by bisection alone.

    Bisects g(m) = (m+c)(A-m) - A^2/4 in m = c/(p-1), with A = N'-2 and
    c = 2+tau, until the bracket is narrower than ``BISECTION_WIDTH`` times
    m, and returns p = 1 + c/m.  The brackets are fixed: ``which='minus'``
    bisects (A/2, A), which p maps onto (Serrin, Sobolev) and where g
    falls through zero; ``which='plus'`` (valid only for N' > 10 + 4*tau,
    i.e. A/4 > c) bisects (0, A/2), above the Sobolev exponent, where g
    rises through zero.  A p out of the float range is a
    :class:`NumericalError`.  Serves as the independent cross-check of the
    closed forms.
    """
    _, A, c = _indices(n_prime, tau)
    if which == "minus":
        lo, hi = 0.5 * A, A
    elif which != "plus":
        raise InvalidParameterError("which must be 'plus' or 'minus'")
    elif not 0.25 * A > c:
        raise InvalidParameterError("upper crossing exists only for N' > 10 + 4*tau")
    else:
        lo, hi = 0.0, 0.5 * A
    while hi - lo > BISECTION_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if (_hardy_gap(mid, A, c) > 0.0) == (which == "minus"):
            lo = mid
        else:
            hi = mid
    p = 1.0 + c / (0.5 * (lo + hi))
    if p == math.inf:
        raise NumericalError(f"the crossing leaves the float range at N'={n_prime}, tau={tau}")
    return p


def critical_exponents(n_prime: float, tau: float) -> CriticalExponents:
    """Critical powers at (N', tau), solved in the Emden-Fowler exponent m = (2+tau)/(p-1).

    With A = N'-2 and c = 2+tau, f(p) = (N'-2)^2/4 reads
    m^2 - (A-c)*m + A*(A/4-c) = 0, whose discriminant c*(c+2A) is positive
    on the whole regime.  Its larger root m_tilde = A/2 + A*c/(c + sqrt(c*(c+2A)))
    lies in (A/2, A) and gives p_tilde_c = 1 + c/m_tilde; when
    N' > 10 + 4*tau (A/4 > c) the smaller one, m_c = A*(A/4-c)/m_tilde,
    lies in (0, A/2) and gives p_c = 1 + c/m_c.  No step cancels, so both
    are within a few ulps of the exact roots of that A and c; at
    N' = 10 + 4*tau, p_tilde_c is 4/3 and p_c is None.  Each root m must
    satisfy |g(m)| <= ``ROOT_RESIDUAL_TOL`` * (m+c)*A,
    g(m) = (m+c)(A-m) - A^2/4, and each p must agree with
    :func:`crossing_by_bisection` to ``CROSSCHECK_TOL`` relative; any miss
    raises :class:`NumericalError`.  ``quadratic_coeffs`` are the same
    equation in p: a = (N'-2)*(N'-4*tau-10), b = 2*(N'-2)^2 - 4*(tau+2)*(tau+N')
    and c = (N'-2)^2.

    Raises :class:`InvalidParameterError` for N' <= 2 or tau <= -2, where
    the theory provides no positive solutions on punctured balls, and for
    a non-finite N' or tau; a coefficient out of the float range is a
    :class:`NumericalError`.
    """
    level, A, c = _indices(n_prime, tau)
    a = A * (n_prime - 4.0 * tau - 10.0)
    b = 2.0 * (4.0 * level) - 4.0 * (tau + 2.0) * (tau + n_prime)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericalError(f"quadratic coefficients overflow at N'={n_prime}, tau={tau}")
    serrin, sobolev = _serrin_sobolev(n_prime, tau)

    m_tilde = 0.5 * A + A * c / (c + math.sqrt(c * (c + 2.0 * A)))
    roots = {"minus": m_tilde}
    if 0.25 * A > c:
        roots["plus"] = A * (0.25 * A - c) / m_tilde
    p = {which: 1.0 + c / m for which, m in roots.items()}
    p_minus, p_plus = p["minus"], p.get("plus")

    # The window ordering is part of the contract: fail loudly if violated.
    if not (serrin < p_minus < sobolev):
        raise NumericalError(
            f"lower crossing {p_minus} escapes (serrin, sobolev) at N'={n_prime}, tau={tau}"
        )
    if p_plus is not None and not p_plus > sobolev:
        raise NumericalError(
            f"upper crossing {p_plus} is not above the Sobolev exponent at N'={n_prime}, tau={tau}"
        )
    for which, m in roots.items():
        if not abs(_hardy_gap(m, A, c)) <= ROOT_RESIDUAL_TOL * (m + c):
            raise NumericalError(
                f"closed-form root {p[which]} misses the Hardy level at N'={n_prime}, tau={tau}"
            )
        # Independent bisection cross-check of every returned root.
        bis = crossing_by_bisection(n_prime, tau, which)
        if not abs(bis - p[which]) <= CROSSCHECK_TOL * p[which]:
            raise NumericalError(
                f"closed-form P_{which} {p[which]} disagrees with bisection {bis}"
            )

    return CriticalExponents(
        serrin=serrin,
        sobolev=sobolev,
        p_c=p_plus,
        p_tilde_c=p_minus,
        quadratic_coeffs=(a, b, 4.0 * level),
    )


def _p_c_dimension(N: int) -> float | None:
    """p_c(N, 0) with None for +infinity (all N <= 10)."""
    if N <= 10:
        return None
    return critical_exponents(float(N), 0.0).p_c


def classify_p(params: ProblemParams) -> Classification:
    """Place p relative to the critical powers of (N', tau).

    The label partitions (1, inf): at or below the Serrin exponent, in
    (serrin, p_tilde_c], in the open window (p_tilde_c, p_c) off the
    Sobolev exponent, exactly at the Sobolev exponent (where the theory
    makes no removability claim), or at/above p_c.  The report also
    carries the weight-balance condition and min(p_c(N',tau), p_c(N,0)),
    since the removability conclusions require p below that minimum.
    """
    _require_regime(params)
    p = params.p
    np_, tau = params.n_prime, params.tau
    exps = critical_exponents(np_, tau)
    serrin, sobolev = exps.serrin, exps.sobolev

    sobolev_exact = math.isclose(p, sobolev, rel_tol=1e-12, abs_tol=0.0)
    if sobolev_exact:
        label = RegimeLabel.SOBOLEV_EXACT
    elif p <= serrin:
        label = RegimeLabel.BELOW_SERRIN
    elif p <= exps.p_tilde_c:
        label = RegimeLabel.SERRIN_TO_PTILDE
    elif exps.p_c is None or p < exps.p_c:
        label = RegimeLabel.REMOVABILITY_WINDOW
    else:
        label = RegimeLabel.AT_OR_ABOVE_PC

    balance = tau <= (p - 1.0) * params.theta / (2.0 * p + 2.0 * math.sqrt(p * (p - 1.0)))
    p_c_dim = _p_c_dimension(params.N)
    finite_uppers = [x for x in (exps.p_c, p_c_dim) if x is not None]
    upper = min(finite_uppers) if finite_uppers else None
    applies = (
        p > exps.p_tilde_c
        and not sobolev_exact
        and (upper is None or p < upper)
    )
    return Classification(
        label=label,
        condition_weight_balance=balance,
        p_c_weighted=exps.p_c,
        p_c_dimension=p_c_dim,
        removability_upper=upper,
        removability_applies=applies,
    )
