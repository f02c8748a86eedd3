"""Discretized stability forms and radial Morse-index estimates.

The stability form of a solution v of the weighted equation is

    Q_v(psi) = integral( |x|^theta |grad psi|^2 - p |x|^l |v|^(p-1) psi^2 ),

over compactly supported test functions.  Restricting to radial psi on an
annulus [a, b] and discretizing on a log grid turns Q_v into a symmetric
tridiagonal pencil (stiffness - potential, mass); the number of negative
pencil eigenvalues estimates the Morse index from below (radial test
functions only -- nonradial directions are not probed, so the count is a
lower bound for the full index).

Assembly follows a flux-form finite-difference scheme: cell conductances
of (r^(N'-1) psi')' evaluated at geometric cell midpoints keep the
stiffness symmetric, and the potential and mass are lumped by the
trapezoid rule.  The negative count is an exact LDL^T inertia count and
the low spectrum comes from LAPACK bisection (see ``tridiag``).

The Rayleigh bound of the weighted Hardy inequality is computed
separately with exact piecewise-linear finite elements in t = log r,
where the quotient has constant coefficients and no power of r is ever
formed; only a conforming discretization guarantees the one-sided bound
min >= (N'-2)^2/4 on every annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .grids import RadialFunction, RadialGrid
from .params import ProblemParams, SchrodingerParams, gamma_of_p, hardy_constant
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

#: Negative eigenvalues are counted below -NEGATIVE_TOL_FACTOR * matrix scale.
NEGATIVE_TOL_FACTOR = 1e-9


@dataclass(frozen=True)
class TestFunction:
    """Radial test function vanishing at both ends of its grid."""

    grid: RadialGrid
    values: np.ndarray

    __test__ = False  # keep pytest from collecting the class by name

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.points.shape:
            raise InvalidParameterError("values and grid have different lengths")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("test function values must be finite")
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise InvalidParameterError("test function must vanish at both endpoints")


@dataclass(frozen=True)
class FormAssembly:
    """Tridiagonal pencil of the stability form on an annulus.

    ``stiffness_diag``/``stiffness_off`` hold the weighted Dirichlet
    stiffness over the n interior nodes, ``potential_diag`` the lumped
    linearized potential and ``mass_diag`` the lumped weighted mass.
    """

    params: ProblemParams
    nodes: np.ndarray
    stiffness_diag: np.ndarray
    stiffness_off: np.ndarray
    potential_diag: np.ndarray
    mass_diag: np.ndarray
    interval: tuple[float, float]
    n: int

    def standardized(self) -> tuple[np.ndarray, np.ndarray]:
        """Mass-scaled standard form of the pencil (stiffness-potential, mass)."""
        d = (self.stiffness_diag - self.potential_diag) / self.mass_diag
        root = np.sqrt(self.mass_diag)
        e = self.stiffness_off / (root[:-1] * root[1:])
        return d, e

    def inertia_scaled(self) -> tuple[np.ndarray, np.ndarray]:
        """Congruence scaling of stiffness-potential by the r^(N'-3) weight.

        The potential of the singular profile is exactly f(p) times this
        weight, so in the scaled matrix every genuine negative direction
        has O(1) magnitude regardless of where on the annulus it lives.
        Congruence preserves inertia, making this the numerically safe
        basis for the negative count on wide annuli (where mass-pencil
        eigenvalues span many orders of magnitude).
        """
        N, theta = self.params.N, self.params.theta
        interior = self.nodes[1:-1]
        lump = 0.5 * (self.nodes[2:] - self.nodes[:-2])
        weight = interior ** (N - 3.0 + theta) * lump
        d = (self.stiffness_diag - self.potential_diag) / weight
        root = np.sqrt(weight)
        e = self.stiffness_off / (root[:-1] * root[1:])
        return d, e


@dataclass(frozen=True)
class SpectrumReport:
    """Low end of the pencil spectrum and the negative-eigenvalue count.

    ``eigenvalues`` lists the smallest eigenvalues (always including every
    negative one); ``negative_count`` is the exact inertia count below the
    noise tolerance and is the radial Morse-index estimate (a lower bound
    for the full index).
    """

    eigenvalues: np.ndarray
    negative_count: int
    min_eigenvalue: float
    negative_tol: float


def assemble_forms(
    params: ProblemParams, v: RadialFunction, a: float, b: float, n: int
) -> FormAssembly:
    """Assemble the stability pencil for v on the annulus [a, b].

    Uses n interior nodes of a log grid with Dirichlet ends.  v must cover
    [a, b]; its values are taken by log-linear interpolation at the nodes.
    """
    if not (0.0 < a < b):
        raise InvalidParameterError("need 0 < a < b")
    if n < 8:
        raise InvalidParameterError("need at least 8 interior nodes")
    nodes = np.geomspace(a, b, n + 2)
    try:
        vv = v.interp(nodes)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"v missing values on [{a}, {b}]: {exc}") from exc

    N, theta, l, p = params.N, params.theta, params.l, params.p
    dr = np.diff(nodes)
    mids = np.sqrt(nodes[:-1] * nodes[1:])
    conduct = mids ** (N - 1.0 + theta) / dr
    stiff_diag = conduct[:-1] + conduct[1:]
    stiff_off = -conduct[1:-1]
    lump = 0.5 * (nodes[2:] - nodes[:-2])
    interior = nodes[1:-1]
    pot_diag = p * interior ** (N - 1.0 + l) * np.abs(vv[1:-1]) ** (p - 1.0) * lump
    mass_diag = interior ** (N - 1.0 + theta) * lump
    return FormAssembly(
        params=params,
        nodes=nodes,
        stiffness_diag=stiff_diag,
        stiffness_off=stiff_off,
        potential_diag=pot_diag,
        mass_diag=mass_diag,
        interval=(float(a), float(b)),
        n=int(n),
    )


def radial_morse_index(
    params: ProblemParams,
    v: RadialFunction,
    a: float,
    b: float,
    n: int,
    n_eigenvalues: int | None = None,
) -> SpectrumReport:
    """Negative-count and low spectrum of the stability pencil on [a, b].

    Eigenvalues below -1e-9 * (matrix scale) count as negative; the
    tolerance separates genuine instability from discretization noise.
    """
    asm = assemble_forms(params, v, a, b, n)
    # Inertia (the Morse count) on the congruence-scaled form, where noise
    # and signal are uniformly separated across the annulus.
    hd, he = asm.inertia_scaled()
    scale = float(np.max(np.abs(hd))) + (2.0 * float(np.max(np.abs(he))) if he.size else 0.0)
    tol = NEGATIVE_TOL_FACTOR * scale
    negative = int(tridiag.count_below(hd, he, -tol))
    # Reported eigenvalues belong to the (stiffness - potential, mass) pencil.
    d, e = asm.standardized()
    k = n_eigenvalues if n_eigenvalues is not None else max(negative + 8, 16)
    k = min(int(k), int(n))
    if negative > k:
        raise NumericalError("negative eigenvalues exceed the extracted spectrum")
    eigs = tridiag.smallest_eigenvalues(d, e, k)
    # Sylvester inertia: the pencil has exactly as many strictly negative
    # eigenvalues as the form, so the list must contain at least that many
    # (it may show a few extra within the noise band around zero).
    if int(np.count_nonzero(eigs < 0.0)) < negative:
        raise NumericalError(
            "inertia count disagrees with the extracted pencil spectrum"
        )
    return SpectrumReport(
        eigenvalues=eigs,
        negative_count=negative,
        min_eigenvalue=float(eigs[0]),
        negative_tol=tol,
    )


def _log_derivative(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    dv = np.empty_like(values)
    dv[1:-1] = (values[2:] - values[:-2]) / (t[2:] - t[:-2])
    h = t[1] - t[0]
    dv[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    dv[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return dv


def _log_second_derivative(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    h = t[1] - t[0]
    d2 = np.empty_like(values)
    d2[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    d2[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / (h * h)
    d2[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / (h * h)
    return d2


def _require_support(v: RadialFunction, psi: TestFunction):
    slack = 1.0 + 1e-12
    if psi.grid.r_min * slack < v.grid.r_min or psi.grid.r_max > v.grid.r_max * slack:
        raise InvalidParameterError("support mismatch: psi grid exceeds v domain")


def q_value(params: ProblemParams, v: RadialFunction, psi: TestFunction) -> float:
    """Trapezoid value of the radial stability form Q_v(psi).

    Quadratic in psi: q_value(c*psi) = c^2 * q_value(psi).  The angular
    area factor is omitted consistently on all routes.
    """
    _require_support(v, psi)
    t = psi.grid.log_points
    r = psi.grid.points
    psi_prime = _log_derivative(psi.values, t) / r
    vv = v.interp(r)
    N, theta, l, p = params.N, params.theta, params.l, params.p
    integrand = (
        r ** (N - 1.0 + theta) * psi_prime**2
        - p * r ** (N - 1.0 + l) * np.abs(vv) ** (p - 1.0) * psi.values**2
    )
    return float(np.trapezoid(integrand * r, t))


def q_value_schrodinger(
    schrodinger: SchrodingerParams, u: RadialFunction, phi: TestFunction
) -> float:
    """Trapezoid value of the Hardy-potential stability form."""
    _require_support(u, phi)
    t = phi.grid.log_points
    r = phi.grid.points
    phi_prime = _log_derivative(phi.values, t) / r
    uu = u.interp(r)
    N, alpha, ell, p = schrodinger.N, schrodinger.alpha, schrodinger.ell, schrodinger.p
    integrand = r ** (N - 1.0) * (
        phi_prime**2
        - ell * phi.values**2 / r**2
        - p * r**alpha * np.abs(uu) ** (p - 1.0) * phi.values**2
    )
    return float(np.trapezoid(integrand * r, t))


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
    """
    level = hardy_constant(N + theta)
    if not (0.0 < a < b):
        raise InvalidParameterError("need 0 < a < b")
    if n < 8:
        raise InvalidParameterError("need at least 8 interior nodes")
    h = math.log(b / a) / (n + 1)
    mass_diag = np.full(n, 4.0 * h / 6.0)
    mass_off = np.full(n - 1, h / 6.0)
    stiff_diag = 2.0 / h + level * mass_diag
    stiff_off = -1.0 / h + level * mass_off
    return tridiag.min_eigenvalue_pencil(stiff_diag, stiff_off, mass_diag, mass_off)


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
    divides by r^sigma and evaluates the Hardy-potential form.  The two
    values agree up to quadrature accuracy.
    """
    kind = TransformKind(kind)
    q_source = q_value(params, v, psi)
    if kind is TransformKind.KELVIN:
        image = kelvin_params(params).params
        v_im = kelvin_apply(v, params)
        psi_raw = kelvin_apply(RadialFunction(psi.grid, psi.values), params)
        psi_im = TestFunction(grid=psi_raw.grid, values=psi_raw.values)
        return q_source, q_value(image, v_im, psi_im)
    if kind is TransformKind.DUAL:
        image = dual_params(params).params
        v_im = dual_apply(v)
        psi_raw = dual_apply(RadialFunction(psi.grid, psi.values))
        psi_im = TestFunction(grid=psi_raw.grid, values=psi_raw.values)
        return q_source, q_value(image, v_im, psi_im)
    if kind is TransformKind.SIGMA:
        schrodinger = sigma_inverse(params)
        u = sigma_apply(v, params)
        sigma = -params.theta / 2.0
        phi = TestFunction(
            grid=psi.grid, values=psi.values * psi.grid.points ** (-sigma)
        )
        return q_source, q_value_schrodinger(schrodinger, u, phi)
    raise InvalidParameterError(f"unsupported transform kind for invariance: {kind}")


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
    m >= max((p+gamma)/(p-1), 2), and |psi| <= 1.
    """
    p = params.p
    gamma_max = gamma_of_p(p)
    if not (1.0 <= gamma < gamma_max):
        raise InvalidParameterError(
            f"gamma must lie in [1, {gamma_max}), got {gamma}"
        )
    m_floor = max((p + gamma) / (p - 1.0), 2.0)
    if int(m) != m or m < m_floor:
        raise InvalidParameterError(
            f"m must be an integer >= {m_floor}, got {m}"
        )
    if float(np.max(np.abs(psi.values))) > 1.0 + 1e-12:
        raise InvalidParameterError("test function must satisfy |psi| <= 1")
    _require_support(v, psi)

    N, theta, l = params.N, params.theta, params.l
    t = psi.grid.log_points
    r = psi.grid.points
    vv = v.interp(r)
    g = np.abs(vv) ** ((gamma - 1.0) / 2.0) * vv
    g_prime = _log_derivative(g, t) / r
    psi_pow = psi.values ** (2 * m)
    lhs_integrand = (
        r ** (N - 1.0)
        * (r**theta * g_prime**2 + r**l * np.abs(vv) ** (gamma + p))
        * psi_pow
    )
    lhs = float(np.trapezoid(lhs_integrand * r, t))

    psi_prime = _log_derivative(psi.values, t) / r
    psi_tt = _log_second_derivative(psi.values, t)
    laplacian = (psi_tt + (N - 2.0) * _log_derivative(psi.values, t)) / r**2
    kernel = (
        psi_prime**2
        + np.abs(psi.values) * np.abs(laplacian)
        + np.abs(psi.values) * np.abs(psi_prime) / r
    ) ** ((p + gamma) / (p - 1.0))
    weight = r ** ((theta * (gamma + p) - l * (gamma + 1.0)) / (p - 1.0))
    rhs_integrand = r ** (N - 1.0) * weight * kernel
    rhs_kernel = float(np.trapezoid(rhs_integrand * r, t))
    return lhs, rhs_kernel
