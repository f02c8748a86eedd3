"""Radial solutions of the weighted equation.

A radial solution v(r) of the weighted equation satisfies

    v'' + (N'-1)/r * v' + r^tau * |v|^(p-1) v = 0,

equivalently the flux form (r^(N'-1) v')' + r^(N'-1+tau) v^p = 0.  This
module provides

* the explicit singular solution c0 * r^(-m), m = (2+tau)/(p-1),
* a shooting integrator for the regular solution with v(0) = kappa,
  started from a two-term series at a tiny radius (the ODE is singular
  at the origin) and advanced by an adaptive embedded Runge-Kutta 4(5)
  pair on the variables (v, r^(N'-1) v') in t = log r,
* the exact kappa-rescaling v_kappa(r) = kappa * v_1(kappa^((p-1)/(tau+2)) r),
* asymptotic-constant extraction (the limit of r^m v(r)), decay
  classification, and a centered-difference residual used as the
  independent oracle throughout the test suite.

Each shooting run is deterministic given (params, kappa, tol) and shares
no state; parameter sweeps may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InvalidParameterError, NumericalError
from .grids import RadialFunction, RadialGrid
from .params import DerivedIndices, ProblemParams, derive, f_eval

#: Series start radius relative to the intrinsic kappa scale.
SERIES_START_FACTOR = 1e-6
#: Relative drift per decade below which the scaled tail counts as converged.
SLOW_DRIFT_TOL = 5e-3
#: Relative mismatch of the fitted tail exponent against N'-2 for fast decay.
FAST_EXPONENT_TOL = 2e-2
#: Ordering noise band in units of the integration tolerance.  The true gap
#: between the regular and singular solutions decays algebraically below
#: machine precision in the far tail, so sign comparisons there only probe
#: integration noise; genuine crossings have O(1) relative amplitude.
ORDERING_NOISE_FACTOR = 1e3


class DecayClass(str, Enum):
    SLOW_DECAY = "slow_decay"
    FAST_DECAY = "fast_decay"
    INCONCLUSIVE = "inconclusive"


class Ordering(str, Enum):
    BELOW = "below"
    CROSSES = "crosses"
    ABOVE = "above"


@dataclass(frozen=True)
class ShootingResult:
    """Output of a shooting run with initial value kappa at the origin."""

    params: ProblemParams
    kappa: float
    solution: RadialFunction
    asymptotic_constant: float
    converged: bool
    classification: DecayClass
    ordering_vs_singular: Ordering

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise InvalidParameterError("kappa must be positive")


def v_infinity(params: ProblemParams, grid: RadialGrid, dtype=float) -> RadialFunction:
    """Singular solution c0 * r^(-m) sampled on the grid.

    Requires N' > 2, tau > -2 and p above the Serrin exponent, where the
    amplitude c0 = (m*(N'-2-m))^(1/(p-1)) is positive.  ``dtype`` selects
    the sampling precision; pass ``numpy.longdouble`` when downstream
    residual checks need headroom below the float64 quantization floor.
    """
    ind = derive(params)
    if not params.standard_regime:
        raise InvalidParameterError("need N' > 2 and tau > -2")
    if ind.c0 is None:
        raise InvalidParameterError(
            "singular solution needs p above the Serrin exponent"
        )
    one = np.asarray(1.0, dtype=dtype)
    r = grid.points.astype(dtype)
    np_, tau, p = [np.asarray(x, dtype=dtype) for x in (ind.n_prime, ind.tau, params.p)]
    m = (2.0 * one + tau) / (p - one)
    c0 = (m * (np_ - 2.0 * one - m)) ** (one / (p - one))
    values = c0 * r ** (-m)
    deriv = -m * values / r
    return RadialFunction(grid=grid, values=values, derivative=deriv)


def _series_state(kappa: float, r: float, ind: DerivedIndices, p: float):
    """Two-term origin series for (v, flux w = r^(N'-1) v').

    Integrating the flux form once with vanishing flux at the origin gives
    w(r) ~ -kappa^p r^(N'+tau)/(N'+tau), hence
    v(r) ~ kappa - kappa^p r^(2+tau)/((2+tau)(N'+tau)).
    """
    np_, tau = ind.n_prime, ind.tau
    rpow = r ** (2.0 + tau)
    v = kappa - kappa**p * rpow / ((2.0 + tau) * (np_ + tau))
    w = -(kappa**p) * rpow * r ** (np_ - 2.0) / (np_ + tau)
    return v, w


def shoot(
    params: ProblemParams,
    kappa: float,
    r_max: float,
    tol: float = 1e-10,
    *,
    grid: RadialGrid | None = None,
    r_min: float | None = None,
    points_per_decade: int = 128,
    r_start: float | None = None,
) -> ShootingResult:
    """Integrate the regular radial solution with v(0) = kappa out to r_max.

    Output is sampled on ``grid`` when given, else on a log grid from
    ``r_min`` (default: the series start radius) to ``r_max`` with
    ``points_per_decade`` nodes per decade.  ``tol`` is the local relative
    tolerance of the adaptive integrator.  The hypothesis p above the
    Sobolev exponent is enforced; there the solution is positive, strictly
    decreasing, and r^m v(r) tends to the singular amplitude c0.
    """
    ind = derive(params)
    if not params.standard_regime:
        raise InvalidParameterError("need N' > 2 and tau > -2")
    if not params.p > ind.sobolev:
        raise InvalidParameterError(
            f"shooting requires p above the Sobolev exponent {ind.sobolev}"
        )
    if not kappa > 0.0:
        raise InvalidParameterError("kappa must be positive")
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")

    scale = kappa ** (-(params.p - 1.0) / (2.0 + ind.tau))
    if r_start is None:
        r_start = SERIES_START_FACTOR * scale
    if grid is None:
        lo = r_min if r_min is not None else r_start
        if not (0.0 < lo < r_max):
            raise InvalidParameterError("need 0 < r_min < r_max")
        n = max(2, int(round(math.log10(r_max / lo) * points_per_decade)) + 1)
        grid = RadialGrid.logspaced(lo, r_max, n)
    if grid.r_max > r_max * (1.0 + 1e-12):
        raise InvalidParameterError("grid extends beyond r_max")
    r_start = min(r_start, grid.r_min)

    np_, tau, p = ind.n_prime, ind.tau, params.p
    v0, w0 = _series_state(kappa, r_start, ind, p)
    t_eval = grid.log_points
    t0 = min(math.log(r_start), float(t_eval[0]))
    t1 = float(t_eval[-1])

    def rhs(t, y):
        v, w = y
        dv = w * math.exp((2.0 - np_) * t)
        dw = -math.exp((np_ + tau) * t) * (abs(v) ** (p - 1.0)) * v
        return (dv, dw)

    def hit_zero(t, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    try:
        sol = solve_ivp(
            rhs,
            (t0, t1),
            (v0, w0),
            method="RK45",
            rtol=tol,
            atol=1e-290,
            t_eval=t_eval,
            events=hit_zero,
        )
    except OverflowError as exc:
        raise NumericalError(
            "powers of r in the shooting equation overflow at "
            f"N'+tau = {np_ + tau} on [{math.exp(t0)}, {math.exp(t1)}]"
        ) from exc
    if sol.status == 1:
        raise NumericalError(
            "solution crossed zero before r_max; tolerance too loose or "
            "p outside the shooting hypothesis"
        )
    if not sol.success:
        raise NumericalError(f"integrator failed: {sol.message}")

    values = sol.y[0]
    flux = sol.y[1]
    if values.size != t_eval.size:
        raise NumericalError("integrator returned a truncated solution")
    if np.any(values <= 0.0):
        raise NumericalError("negative or zero values encountered in shooting output")
    deriv = flux * grid.points ** (1.0 - np_)
    if np.any(deriv > 0.0):
        raise NumericalError("shooting output is not decreasing")

    solution = RadialFunction(grid=grid, values=values, derivative=deriv)

    if grid.decades >= 3.0 - 1e-9:
        estimate, converged = asymptotic_constant(solution, params)
        classification, _, _ = classify_decay(solution, params)
    else:
        # Too short for a trustworthy tail fit: report the naive endpoint
        # estimate and flag the run inconclusive.
        estimate = float(values[-1] * grid.r_max**ind.m_exp)
        converged = False
        classification = DecayClass.INCONCLUSIVE

    singular = v_infinity(params, grid)
    band = ORDERING_NOISE_FACTOR * tol * singular.values
    meaningfully_above = values > singular.values + band
    meaningfully_below = values < singular.values - band
    if np.any(meaningfully_above):
        ordering = Ordering.CROSSES if np.any(meaningfully_below) else Ordering.ABOVE
    else:
        # Never meaningfully above the singular solution; ties within the
        # noise band count toward "below".
        ordering = Ordering.BELOW

    return ShootingResult(
        params=params,
        kappa=kappa,
        solution=solution,
        asymptotic_constant=estimate,
        converged=converged,
        classification=classification,
        ordering_vs_singular=ordering,
    )


def rescale(v1: ShootingResult, kappa: float) -> RadialFunction:
    """Exact rescaling of a kappa = 1 run to initial value kappa.

    v_kappa(r) = kappa * v_1(kappa^((p-1)/(tau+2)) r): the grid contracts
    by kappa^(-(p-1)/(tau+2)) and the values scale by kappa, pointwise
    with no interpolation.
    """
    if not kappa > 0.0:
        raise InvalidParameterError("kappa must be positive")
    if v1.kappa != 1.0:
        raise InvalidParameterError("rescale expects a run with kappa = 1")
    ind = derive(v1.params)
    lam = (v1.params.p - 1.0) / (ind.tau + 2.0)
    factor = kappa ** (-lam)
    grid = v1.solution.grid.scaled(factor)
    values = kappa * v1.solution.values
    deriv = None
    if v1.solution.derivative is not None:
        deriv = kappa ** (1.0 + lam) * v1.solution.derivative
    return RadialFunction(grid=grid, values=values, derivative=deriv)


def _tail_window(v: RadialFunction) -> np.ndarray:
    cut = v.grid.r_max / 10.0
    mask = v.grid.points >= cut * (1.0 - 1e-12)
    if np.count_nonzero(mask) < 4:
        raise InvalidParameterError("too few points in the last decade")
    return mask


def asymptotic_constant(v: RadialFunction, params: ProblemParams) -> tuple[float, bool]:
    """Estimate of lim r^m v(r) from a linear fit over the last decade.

    ``converged`` is True when the fitted drift of r^m v across the decade
    stays below 0.5 percent of the fitted level.  The grid must span at
    least three decades.
    """
    if v.grid.decades < 3.0 - 1e-9:
        raise InvalidParameterError("asymptotics need a grid spanning >= 3 decades")
    ind = derive(params)
    mask = _tail_window(v)
    t = v.grid.log_points[mask]
    y = v.values[mask] * v.grid.points[mask] ** ind.m_exp
    slope, intercept = np.polyfit(t, y, 1)
    mid = 0.5 * (t[0] + t[-1])
    estimate = float(intercept + slope * mid)
    drift = abs(slope) * (t[-1] - t[0])
    converged = bool(drift <= SLOW_DRIFT_TOL * max(abs(estimate), 1e-300))
    return estimate, converged


def classify_decay(
    v: RadialFunction, params: ProblemParams
) -> tuple[DecayClass, float, float]:
    """Classify the tail of a positive profile as slow or fast decay.

    Returns (class, drift, fitted_exponent).  Slow decay means the scaled
    tail r^m v is flat to 0.5 percent per decade; fast decay means the
    fitted decay exponent of v matches N'-2 within 2 percent.  These
    thresholds are implementation choices, not theory values.
    """
    ind = derive(params)
    if np.any(v.values <= 0.0):
        raise InvalidParameterError("decay classification needs a positive profile")
    estimate, converged = asymptotic_constant(v, params)
    mask = _tail_window(v)
    t = v.grid.log_points[mask]
    logv = np.log(v.values[mask])
    slope, _ = np.polyfit(t, logv, 1)
    fitted_exponent = -float(slope)
    drift_rel = math.inf
    if estimate != 0.0:
        y = v.values[mask] * v.grid.points[mask] ** ind.m_exp
        yslope, _ = np.polyfit(t, y, 1)
        drift_rel = abs(yslope) * (t[-1] - t[0]) / abs(estimate)
    if converged:
        return DecayClass.SLOW_DECAY, drift_rel, fitted_exponent
    fast_ref = ind.n_prime - 2.0
    if fast_ref > 0.0 and abs(fitted_exponent - fast_ref) <= FAST_EXPONENT_TOL * fast_ref:
        return DecayClass.FAST_DECAY, drift_rel, fitted_exponent
    return DecayClass.INCONCLUSIVE, drift_rel, fitted_exponent


def residual(v: RadialFunction, params: ProblemParams) -> float:
    """Scaled sup-norm residual of the radial equation on the grid.

    Centered differences in t = log r approximate
    v'' + (N'-1)/r v' = (d2v/dt2 + (N'-2) dv/dt)/r^2; the residual against
    -r^tau |v|^(p-1) v is maximized over interior nodes and normalized by
    the largest nonlinear term.  Exact solutions give O(h^2).
    """
    if v.grid.n < 3:
        raise InvalidParameterError("residual needs at least three grid points")
    vals = v.values
    dtype = vals.dtype if np.issubdtype(vals.dtype, np.floating) else np.float64
    # Work in the precision of the samples: the log coordinates must carry
    # the same accuracy, or grid jitter re-floors the stencil noise.
    t = np.log(v.grid.points.astype(dtype))
    r = v.grid.points.astype(dtype)[1:-1]
    h_plus = t[2:] - t[1:-1]
    h_minus = t[1:-1] - t[:-2]
    d1 = (vals[2:] - vals[:-2]) / (h_plus + h_minus)
    d2 = 2.0 * (
        (vals[2:] - vals[1:-1]) / h_plus - (vals[1:-1] - vals[:-2]) / h_minus
    ) / (h_plus + h_minus)
    ind = derive(params)
    linear = (d2 + (dtype.type(ind.n_prime) - 2.0) * d1) / r**2
    nonlinear = (
        r ** dtype.type(ind.tau)
        * np.abs(vals[1:-1]) ** (dtype.type(params.p) - 1.0)
        * vals[1:-1]
    )
    res = np.abs(linear + nonlinear)
    scale = float(np.max(np.abs(nonlinear)))
    if scale == 0.0:
        return float(np.max(res))
    return float(np.max(res) / scale)


def sphere_constant_check(params: ProblemParams) -> float:
    """Residual of the constant solution of the angular limiting equation.

    Scaled profiles of radial solutions limit on constants w satisfying
    w^p = m*(N'-2-m) * w; the singular amplitude c0 satisfies this
    identity exactly, so the returned residual |c0^p - f(p)/p * c0|
    vanishes up to rounding.
    """
    ind = derive(params)
    if ind.c0 is None:
        raise InvalidParameterError("needs p above the Serrin exponent")
    level = f_eval(params.p, ind.n_prime, ind.tau) / params.p
    return abs(ind.c0**params.p - level * ind.c0)
