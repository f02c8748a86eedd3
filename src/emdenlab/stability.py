"""Discretized stability forms and radial Morse-index estimates.

The stability form of a solution v of the weighted equation is

    Q_v(psi) = integral( |x|^theta |grad psi|^2 - p |x|^l |v|^(p-1) psi^2 ),

over compactly supported test functions.  For radial psi on an annulus
[a, b], the Emden-Fowler change t = log r, phi = r^((N'-2)/2) psi turns
it exactly into integral( phi_t^2 + ((N'-2)^2/4 - P) phi^2 dt ) with the
O(1) potential P = p r^(2+tau) |v|^(p-1), formed in logs on v's own nodes
and linear in t between them (``potential``), or p e^((p-1) y) from a shot's
state y = log(r^m v); no power r^(N'-1) appears anywhere.  Central differences
on nodes uniform in t (``log_nodes``) give one symmetric tridiagonal matrix T,
assembled from P on those nodes; its negative eigenvalues estimate the Morse
index from below (radial test functions only, so the count is a lower bound
for the full index).  The count is an exact LDL^T inertia count.  About
v_infinity P is exactly the constant f(p), so no profile is sampled and T
is Toeplitz: its eigenvalues are (4/h^2) sin^2(k pi h / 2L) + (N'-2)^2/4 - f(p)
with L = log(b/a), taken in closed form and certified by inertia counts, as
the Hardy minimum below is.  Only a potential that varies along the nodes
takes its low spectrum from LAPACK bisection (see ``tridiag``).  Form
values are evaluated in t by the same rule (h phi^T T phi on the assembly
nodes); the Kelvin, dual and sigma maps send (P, phi) to itself or to its
reflection t -> -t, so ``invariance_check`` agrees to rounding.  A test
function is a ``RadialFunction`` that vanishes at both ends, so the
function-level maps of ``transforms`` carry psi as they carry v.

The Rayleigh bound of the weighted Hardy inequality uses the same
variables but exact piecewise-linear finite elements instead of
differences: only a conforming discretization guarantees the one-sided
bound min >= (N'-2)^2/4 on every annulus.

Both constant-coefficient forms, the Hardy minimum and the spectrum about
v_infinity, run on Python floats through ``tridiag.Constant`` and load no
numpy; numpy is imported inside the functions that touch arrays.  T is
built in one place, ``assemble_forms``, and ``radial_morse_index`` counts
the matrix it returns: its off-diagonal is always a ``Constant``, and so
is its diagonal where P is one number.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import InvalidParameterError, NumericalError
from .grids import MAX_NODES, RadialFunction, RadialGrid
from .params import (
    ProblemParams,
    SchrodingerParams,
    _hardy_level,
    _require_singular,
    f_eval,
    gamma_of_p,
    hardy_constant,
)
from .transforms import (
    TransformKind,
    dual_apply,
    dual_params,
    kelvin_apply,
    kelvin_params,
    sigma_apply,
    sigma_inverse,
)
from . import tridiag
from .tridiag import Constant

if TYPE_CHECKING:
    import numpy as np

#: Negative eigenvalues are counted below -NEGATIVE_TOL_FACTOR * matrix scale.
NEGATIVE_TOL_FACTOR = 1e-9


class TestFunction(RadialFunction):
    """Radial function vanishing at both ends of its grid."""

    __slots__ = ()
    __test__ = False  # keep pytest from collecting the class by name

    def __init__(self, grid: RadialGrid, values):
        super().__init__(grid, values)
        if self.values[0] != 0.0 or self.values[-1] != 0.0:
            raise InvalidParameterError("test function must vanish at both endpoints")


class FormAssembly(namedtuple("FormAssembly", "diag off h")):
    """Stability form on an annulus as one symmetric tridiagonal matrix.

    ``diag``/``off`` hold the central-difference matrix of
    -phi_tt + ((N'-2)^2/4 - P) phi on the n interior nodes of ``log_nodes``,
    uniform in t = log r with step ``h``.  Its eigenvalues are those of Q_v
    relative to integral(phi^2 dt) = integral(r^(N'-3) psi^2 dr).  A named
    tuple (diag, off, h).  ``off`` is a ``tridiag.Constant`` of n-1 entries
    -1/h^2; ``diag`` is a ``Constant`` of n entries where P is one number and
    an array otherwise.  ``numpy.asarray`` of either gives its entries.
    """

    __slots__ = ()


class SpectrumReport(namedtuple("SpectrumReport", (
    "eigenvalues", "negative_count", "min_eigenvalue", "negative_tol", "matrix_scale",
    "count_margin",
))):
    """Low end of the stability spectrum and the negative-eigenvalue count.

    ``eigenvalues`` lists the smallest eigenvalues as a tuple of floats
    (always including every negative one); ``negative_count`` is the exact
    inertia count below the noise tolerance ``negative_tol`` and is the
    radial Morse-index estimate (a lower bound for the full index).
    ``matrix_scale`` is the bound max|d| + 2 max|e| on the matrix norm that
    sets the tolerance, and ``count_margin`` the distance from the nearest
    listed eigenvalue to -``negative_tol``: how far the count is from
    flipping.  A named tuple of those six fields, in that order.
    """

    __slots__ = ()


def _log_step(a: float, b: float, n: int) -> float:
    """Step in t = log r of n interior nodes uniform in t on [a, b]."""
    if not (0.0 < a < b):
        raise InvalidParameterError("need 0 < a < b")
    if n < 8:
        raise InvalidParameterError("need at least 8 interior nodes")
    if not hasattr(n, "__index__"):  # an int as range() takes it: not 8.5, NaN or 10.0
        raise InvalidParameterError(f"the number of interior nodes must be an integer, got {n!r}")
    if n > MAX_NODES:
        raise InvalidParameterError(f"need at most MAX_NODES = {MAX_NODES} interior nodes, got {n}")
    L = math.log(b / a)
    if not math.isfinite(L):
        raise InvalidParameterError(f"log(b/a) must be finite, got b/a = {b / a!r}")
    return L / (n + 1)


def potential(p: float, power: float, f: RadialFunction, r) -> np.ndarray:
    """p r^power |f|^(p-1) at r: formed in logs on f's nodes, linear in t.

    ``power`` is 2+tau on the weighted side and 2+alpha on the Hardy side.
    At f's own nodes the values are the formula's, with nothing interpolated.
    """
    import numpy as np

    with np.errstate(divide="ignore", over="ignore"):  # f = 0 gives P = 0
        P = p * np.exp(power * f.grid.log_points + (p - 1.0) * np.log(np.abs(f.values)))
    if not np.all(np.isfinite(P)):
        raise NumericalError(f"potential p r^{power} |f|^{p - 1.0} leaves the float range")
    return RadialFunction(f.grid, P).interp(r)


def _form_value(level: float, P: np.ndarray, psi: TestFunction, power: float) -> float:
    """sum(diff(phi)^2 / diff(t)) + trapezoid((level - P) phi^2, t), phi = r^power psi."""
    import numpy as np

    t = psi.grid.log_points
    phi = psi.times_power(power)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(np.diff(phi) ** 2 / np.diff(t))
                      + np.trapezoid((level - P) * phi**2, t))
    if not math.isfinite(value):
        raise NumericalError(
            f"form value leaves the float range on [{psi.grid.r_min}, {psi.grid.r_max}]"
        )
    return value


def log_nodes(a: float, b: float, n: int) -> RadialGrid:
    """The n interior nodes and both ends of the assembly grid on [a, b].

    The nodes are uniform in t = log r.  For a profile v given on exactly
    this grid, ``potential`` on the interior nodes is ``assemble_forms``'s P.
    """
    _log_step(a, b, n)
    return RadialGrid.logspaced(a, b, n + 2)


def _abs_max(x) -> float:
    """max |x| of a ``tridiag.Constant`` or an array; NaN or inf if an entry is."""
    if isinstance(x, Constant):
        return abs(x.value)
    import numpy as np

    return float(np.max(np.abs(x)))


def assemble_forms(params: ProblemParams, P, a: float, b: float, n: int) -> FormAssembly:
    """Assemble the stability form with potential P on the annulus [a, b].

    P is one number or its n values on the interior nodes of ``log_nodes``,
    as ``profile_spectrum`` forms them from a shot on those nodes; the ends
    are Dirichlet.  ``off`` is a ``tridiag.Constant``, and so is ``diag``
    where P is one number, so that route loads no numpy.  A diagonal out of
    the float range (a huge N') raises ``NumericalError``.
    """
    h = _log_step(a, b, n)
    if isinstance(P, (int, float)) or getattr(P, "ndim", None) == 0:  # a numpy scalar too
        P = Constant(P, n)
    else:
        import numpy as np

        P = np.asarray(P, dtype=float)
        if P.shape != (n,):
            raise InvalidParameterError(f"potential needs 1 or {n} values, got shape {P.shape}")
    if not math.isfinite(_abs_max(P)):
        raise InvalidParameterError("potential values must be finite")
    top = 2.0 / h**2 + _hardy_level(params.n_prime)
    diag = Constant(top - P.value, n) if isinstance(P, Constant) else top - P
    if not math.isfinite(_abs_max(diag)):
        raise NumericalError(f"assembled diagonal leaves the float range at N' = {params.n_prime}")
    return FormAssembly(diag=diag, off=Constant(-1.0 / h**2, n - 1), h=h)


def radial_morse_index(params: ProblemParams, P, a: float, b: float, n: int) -> SpectrumReport:
    """Negative count and low spectrum of the stability form with potential P.

    P is taken as by ``assemble_forms``, and the count and the spectrum are
    those of the matrix it returns.  Eigenvalues below -1e-9 * (matrix
    scale) count as negative; the tolerance separates genuine instability
    from discretization noise.  The count is the inertia count of the
    assembled matrix.  For one number P the matrix is Toeplitz and the k
    smallest eigenvalues are (4/h^2) sin^2(j pi / (2(n+1))) + (level - P),
    j = 1..k, with level - P formed directly; they are returned only if
    they hold exactly the counted negative ones and the inertia count just
    above the k-th, at band = 64 eps (scale + level), is k.  The level
    enters the band because the assembled diagonal rounds 2/h^2 + level
    before P is subtracted, which the matrix scale does not bound where
    level - P cancels.  A failed certificate raises ``NumericalError``.
    That route runs on Python floats (``tridiag.Constant`` rows) and loads
    no numpy.  A potential given on the nodes takes the eigenvalues from
    LAPACK bisection on the same matrix.
    """
    d, e, h = assemble_forms(params, P, a, b, n)
    scale = _abs_max(d) + 2.0 * _abs_max(e)
    tol = NEGATIVE_TOL_FACTOR * scale
    negative = tridiag.count_below(d, e, -tol)
    k = min(max(negative + 8, 16), n)
    if isinstance(d, Constant):
        level = _hardy_level(params.n_prime)
        width, gap, x = 4.0 / h**2, level - float(P), math.pi / (2.0 * (n + 1))
        sines = [math.sin(j * x) for j in range(1, k + 1)]
        eigs = tuple(width * (s * s) + gap for s in sines)
        closed = sum(lam < -tol for lam in eigs)
        shift = eigs[-1] + 64.0 * sys.float_info.epsilon * (scale + level)
        bracket = tridiag.count_below(d, e, shift)
        if closed != negative or bracket != k:
            raise NumericalError(
                f"closed-form spectrum certificate failed: {closed} listed and {negative} "
                f"counted below {-tol!r}, and {bracket} counted below {shift!r} "
                f"(expected equal counts and {k})"
            )
    else:
        eigs = tuple(tridiag.smallest_eigenvalues(d, e, k).tolist())
        # The inertia count and the bisection see the same matrix, so the list
        # must hold at least that many negative eigenvalues (it may show a few
        # extra within the noise band around zero).
        if sum(lam < 0.0 for lam in eigs) < negative:
            raise NumericalError("inertia count disagrees with the extracted spectrum")
    return SpectrumReport(
        eigenvalues=eigs,
        negative_count=negative,
        min_eigenvalue=eigs[0],
        negative_tol=tol,
        matrix_scale=scale,
        count_margin=min(abs(lam + tol) for lam in eigs),
    )


def profile_spectrum(
    params: ProblemParams, a: float, b: float, n: int, kappa: float | None = None,
    tol: float = 1e-10,
) -> SpectrumReport:
    """Radial Morse count on [a, b] about v_infinity (``kappa=None``) or the shot v(0) = kappa.

    About v_infinity P is the constant f(p) and no profile is sampled.  A shot runs
    ``shoot``'s checks and integration, not its report, on ``log_nodes(a, b, n)`` to b
    with tolerance ``tol``; P = p e^((p-1) y) from its state y = log(r^m v) is exact
    where v underflows.  a, b and n are checked before the profile's conditions.
    """
    _log_step(a, b, n)
    if kappa is None:
        _require_singular(params)
        P = f_eval(params.p, params.n_prime, params.tau)  # = p r^(2+tau) (c0 r^(-m))^(p-1)
    else:
        from .radial_ode import _shot_state  # not loaded on the v_infinity and Hardy paths
        y = _shot_state(params, kappa, b, tol, grid=log_nodes(a, b, n))[1]
        P = [params.p * math.exp((params.p - 1.0) * x) for x in y[1:-1].tolist()]
    return radial_morse_index(params, P, a, b, n)


def _log_derivative(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    import numpy as np

    dv = np.empty_like(values)
    dv[1:-1] = (values[2:] - values[:-2]) / (t[2:] - t[:-2])
    h = t[1] - t[0]
    dv[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    dv[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return dv


def _log_second_derivative(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    import numpy as np

    h = t[1] - t[0]
    d2 = np.empty_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    d2[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / (h * h)
    d2[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / (h * h)
    return d2


def q_value(params: ProblemParams, v: RadialFunction, psi: TestFunction) -> float:
    """Q_v(psi) in t: phi = r^((N'-2)/2) psi, level (N'-2)^2/4, P from v.

    Quadratic in psi; the angular area factor is omitted on all routes.
    """
    P = potential(params.p, 2.0 + params.tau, v, psi.grid.points)
    return _form_value(_hardy_level(params.n_prime), P, psi, (params.n_prime - 2.0) / 2.0)


def q_value_schrodinger(
    schrodinger: SchrodingerParams, u: RadialFunction, phi: TestFunction
) -> float:
    """Hardy-potential form in t: chi = r^((N-2)/2) phi, level (N-2)^2/4 - ell."""
    P = potential(schrodinger.p, 2.0 + schrodinger.alpha, u, phi.grid.points)
    level = _hardy_level(schrodinger.N) - schrodinger.ell
    return _form_value(level, P, phi, (schrodinger.N - 2.0) / 2.0)


def hardy_rayleigh_min(theta: float, N: int, a: float, b: float, n: int) -> float:
    """Discrete minimum of the weighted Hardy Rayleigh quotient on [a, b].

    Minimizes integral(r^(N-1+theta) psi'^2) / integral(r^(N-3+theta) psi^2)
    over psi vanishing at a and b.  In t = log r with
    phi = r^((N'-2)/2) psi the quotient is exactly
    (N'-2)^2/4 + integral(phi_t^2) / integral(phi^2), so phi is taken
    piecewise linear on n interior nodes uniform in t, with exact element
    integrals and constant coefficients.  Conformity makes the result a
    minimum over a subspace of the continuum space, hence always at least
    (N'-2)^2/4 + (pi/L)^2 with L = log(b/a), and it decreases toward
    (N'-2)^2/4 as b/a grows.

    The constant-coefficient pencil has the closed-form smallest eigenvalue
    (N'-2)^2/4 + (12/h^2) s / (3 - 2s) with s = sin^2(pi / (2(n+1))),
    i.e. (6/h^2)(1 - cos x)/(2 + cos x) at x = pi/(n+1) without the
    cancellation in 1 - cos x.  It is certified against the assembled
    pencil by two inertia counts: none below value - band and exactly one
    below value + band, band = 64 eps (1/h^2 + (N'-2)^2/4).  A failed
    certificate, or a pencil entry out of the float range, raises
    ``NumericalError``.
    """
    level = hardy_constant(N + theta)
    h = _log_step(a, b, n)
    md, me = 4.0 * h / 6.0, h / 6.0
    stiff = Constant(2.0 / h + level * md, n), Constant(-1.0 / h + level * me, n - 1)
    mass = Constant(md, n), Constant(me, n - 1)
    s = math.sin(math.pi / (2.0 * (n + 1))) ** 2
    value = level + 12.0 / h**2 * s / (3.0 - 2.0 * s)
    band = 64.0 * sys.float_info.epsilon * (1.0 / h**2 + level)
    shifts = (value - band, value + band)
    try:
        counts = [tridiag.count_below_pencil(*stiff, *mass, shift) for shift in shifts]
    except InvalidParameterError:  # from valid inputs: an entry overflowed
        raise NumericalError(
            f"the Hardy pencil leaves the float range at N' = {N + theta!r}"
        ) from None
    if counts != [0, 1]:
        raise NumericalError(
            f"Hardy pencil certificate failed: {counts[0]} eigenvalues below "
            f"{value - band!r} and {counts[1]} below {value + band!r} (expected 0 and 1)"
        )
    return value


def invariance_check(
    kind: TransformKind | str,
    params: ProblemParams,
    v: RadialFunction,
    psi: TestFunction,
) -> tuple[float, float]:
    """Stability form on both sides of a transform.

    Returns (q_source, q_image) where the image uses the transform's own
    test-function map: Kelvin sends psi to |x|^(N'-2) psi on the inverted
    grid, the dual transform carries psi unchanged, and the sigma map
    divides by r^sigma and evaluates the Hardy-potential form.  In t every
    map sends the form's (P, phi) to (P(-t), phi(-t)) or leaves it as it
    is, so the two values agree to rounding.  Any other kind, ``sigma_inverse``
    included, is an ``InvalidParameterError``.
    """
    if kind not in (TransformKind.KELVIN, TransformKind.DUAL, TransformKind.SIGMA):
        raise InvalidParameterError(f"unsupported transform kind for invariance: {kind}")
    q_source = q_value(params, v, psi)
    if kind == TransformKind.KELVIN:
        return q_source, q_value(
            kelvin_params(params), kelvin_apply(v, params), kelvin_apply(psi, params)
        )
    if kind == TransformKind.DUAL:
        return q_source, q_value(dual_params(params), dual_apply(v), dual_apply(psi))
    return q_source, q_value_schrodinger(
        sigma_inverse(params), sigma_apply(v, params), sigma_apply(psi, params)
    )


def stable_estimate_check(
    params: ProblemParams,
    v: RadialFunction,
    gamma: float,
    m: int,
    psi: TestFunction,
) -> tuple[float, float]:
    """Both sides of the interior integral estimate for stable solutions.

    Returns (lhs, rhs_kernel): the weighted energy of |v|^((gamma-1)/2) v
    against psi^(2m), and the right-hand integral without its unspecified
    constant.  Diagnostic only -- callers check that lhs/rhs_kernel stays
    bounded over a family of test functions, not a specific constant.
    Requires gamma in [1, 2p + 2 sqrt(p(p-1)) - 1), integer
    m >= max((p+gamma)/(p-1), 2), and |psi| <= 1.  Raises NumericalError
    where either integral leaves the float range.
    """
    import numpy as np

    p = params.p
    gamma_max = gamma_of_p(p)
    if not (1.0 <= gamma < gamma_max):
        raise InvalidParameterError(
            f"gamma must lie in [1, {gamma_max}), got {gamma}"
        )
    m_floor = max((p + gamma) / (p - 1.0), 2.0)
    if not (float(m).is_integer() and m >= m_floor):  # NaN and inf are not integers
        raise InvalidParameterError(
            f"m must be an integer >= {m_floor}, got {m}"
        )
    if float(np.max(np.abs(psi.values))) > 1.0 + 1e-12:
        raise InvalidParameterError("test function must satisfy |psi| <= 1")

    # Every power of r is formed in logs next to the factor it scales, so
    # only an integrand that itself leaves the float range overflows.
    N, theta, l = params.N, params.theta, params.l
    t = psi.grid.log_points
    vv = v.interp(psi.grid.points)
    psi_abs = np.abs(psi.values)
    psi_t = _log_derivative(psi.values, t)
    # |psi'|^2 + |psi| |Laplacian psi| + |psi| |psi'| / r = base / r^2
    base = psi_t**2 + psi_abs * (np.abs(_log_second_derivative(psi.values, t)
                                        + (N - 2.0) * psi_t) + np.abs(psi_t))
    e = (p + gamma) / (p - 1.0)
    w = (theta * (gamma + p) - l * (gamma + 1.0)) / (p - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g_t = _log_derivative(np.abs(vv) ** ((gamma - 1.0) / 2.0) * vv, t)
        log_psi_pow = 2 * m * np.log(psi_abs)
        lhs_integrand = (
            np.exp((N + theta - 2.0) * t + 2.0 * np.log(np.abs(g_t)) + log_psi_pow)
            + np.exp((N + l) * t + (gamma + p) * np.log(np.abs(vv)) + log_psi_pow)
        )
        rhs_integrand = np.exp((N - 2.0 * e + w) * t + e * np.log(base))
        lhs = float(np.trapezoid(lhs_integrand, t))
        rhs_kernel = float(np.trapezoid(rhs_integrand, t))
    if not (math.isfinite(lhs) and math.isfinite(rhs_kernel)):
        raise NumericalError(
            f"stable estimate leaves the float range on [{psi.grid.r_min}, {psi.grid.r_max}]"
        )
    return lhs, rhs_kernel
