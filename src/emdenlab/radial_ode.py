"""Radial solutions of the weighted equation.

A radial solution v(r) of the weighted equation satisfies

    v'' + (N'-1)/r * v' + r^tau * |v|^(p-1) v = 0,

equivalently the flux form (r^(N'-1) v')' + r^(N'-1+tau) v^p = 0.  This
module provides

* the explicit singular solution c0 * r^(-m), m = (2+tau)/(p-1), formed
  in logs,
* a shooting integrator for the regular solution with v(0) = kappa in
  t = log r on the Emden-Fowler state y = log(r^m v), s = log(zeta),
  zeta = -r v'/v > 0: y' = m - e^s, s' = e^((p-1) y - s) - (N'-2) + e^s,
  with no power of r.  The ODE is singular at the origin, where the
  solution is its power series in x = kappa^(p-1) r^(2+tau)/((2+tau)(N'+tau)):
  24 terms give the state in closed form, in logs, up to the switch where
  the series is exact to rounding, and LSODA (the compiled routine of
  scipy.integrate.odeint, loaded without the scipy.integrate package,
  behind the ``solve_ivp`` seam) continues from there, on u = (p-1) y in
  place of y where (p-1) times its tolerance exceeds 1.  The fixed point
  (log c0, log m) is the singular solution, zeta > 0 makes v' < 0, a shot
  keeps y and forms v on read, and a spectrum reads y alone,
* the exact kappa-rescaling v_kappa(r) = kappa * v_1(kappa^((p-1)/(tau+2)) r),
* asymptotic-constant extraction (the limit of w, fit with the tail's
  linearisation at c0), decay classification of w (a converged tail is
  slow decay, so ``shoot`` classifies only the others), and a
  centered-difference residual used as the independent oracle
  throughout the test suite.

Each shooting run is deterministic given (params, kappa, tol) and shares
no state; parameter sweeps may run concurrently.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NumericalError
from .grids import RadialFunction, RadialGrid
from .params import (
    ProblemParams, _checked_make, _hardy_level, _require_regime, _require_singular, f_eval,
)

#: First node of ``shoot``'s default grid relative to the intrinsic kappa
#: scale, lowered near tau = -2 where q = (r/scale)^(2+tau) grows slowly in r.
SERIES_START_FACTOR = 1e-6
#: Terms of the origin series after its constant (fewer where a coefficient
#: would leave the float range).
SERIES_TERMS = 24
#: The series hands over to LSODA where its last term is this fraction of
#: its sum, far below rounding.
SERIES_SWITCH_TOL = 1e-17
#: Bound on the largest term of each series sum over the sum at the switch.
SERIES_CANCELLATION = 16.0
#: Most e-folds of q (each at least one LSODA step) from the switch to the grid.
MAX_SERIES_GAP = 1e5
#: Relative drift per decade below which the scaled tail counts as converged.
SLOW_DRIFT_TOL = 5e-3
#: Relative mismatch of the fitted tail exponent against N'-2 for fast decay.
FAST_EXPONENT_TOL = 2e-2
#: Ordering noise band on log(v / (c0 r^(-m))) in units of the integration
#: tolerance.  The true gap between the regular and singular solutions
#: decays algebraically below machine precision in the far tail, so sign
#: comparisons there only probe integration noise; genuine crossings have
#: O(1) relative amplitude.  On the (y, s) state that noise stays below
#: 20 tol for N' up to 100, while a first overshoot above c0 damped by
#: e^-12 over half a turn is still about 900 tol.
ORDERING_NOISE_FACTOR = 1e2


class DecayClass(str, Enum):
    SLOW_DECAY = "slow_decay"
    FAST_DECAY = "fast_decay"
    INCONCLUSIVE = "inconclusive"


class Ordering(str, Enum):
    BELOW = "below"
    CROSSES = "crosses"
    ABOVE = "above"


class ShootingResult(namedtuple("ShootingResult", (
    "params", "kappa", "log_scaled", "asymptotic_constant", "converged", "classification",
    "ordering_vs_singular", "nfev", "zeta_residual", "log_amplitude_residual",
))):
    """Output of a shooting run with initial value kappa at the origin.

    ``log_scaled`` is y = log w, w = r^m v, and ``solution`` forms v from it on read.
    ``nfev`` counts right-hand-side evaluations; ``zeta_residual`` = |zeta - m|
    and ``log_amplitude_residual`` = |y - log c0| are the end state's
    distances from the singular fixed point, both near 0 on slow decay.
    A named tuple of those ten fields, in that order; construction, ``_make``
    and ``_replace`` check that kappa is positive.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *fields, **named):
        self = super().__new__(cls, *fields, **named)
        if not self.kappa > 0.0:
            raise InvalidParameterError("kappa must be positive")
        return self

    @property
    def solution(self) -> RadialFunction:
        """v = e^(y - m t), formed on read; NumericalError where v underflows to 0."""
        grid = self.log_scaled.grid
        values = np.exp(self.log_scaled.values - self.params.m_exp * grid.log_points)
        if not np.all(values > 0.0):
            raise NumericalError(f"v = r^(-m) w underflows on [{grid.r_min}, {grid.r_max}]")
        return RadialFunction(grid=grid, values=values)


class OdeSolution(namedtuple("OdeSolution", "y nfev success message")):
    """What ``solve_ivp`` returns: the state on ``t_eval`` (one row per
    component), the right-hand-side evaluation count and the outcome, as a
    named tuple (y, nfev, success, message)."""

    __slots__ = ()


#: LSODA's outcome text for each ``istate`` it returns, as ``scipy.integrate.odeint`` words it.
_ISTATE_MESSAGES = {
    2: "Integration successful.",
    1: "Nothing was done; the integration time was 0.",
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}


@functools.cache
def _lsoda():
    """The ``odeint`` driver of scipy's compiled ``scipy.integrate._odepack``.

    The extension file is found on disk and loaded alone, once: neither
    ``scipy`` nor ``scipy.integrate`` runs its package import, which loads
    355 scipy modules that a shot never calls.  It is not entered in
    ``sys.modules``, so a later ``import scipy.integrate`` loads its own
    copy as usual.  A missing file is an ``ImportError`` naming where it
    was looked for.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("LSODA needs scipy, which is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], "integrate")
    spec = importlib.machinery.PathFinder.find_spec("scipy.integrate._odepack", [where])
    if spec is None:
        raise ImportError(f"scipy's compiled LSODA (_odepack) is missing from {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.odeint


def solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol, max_step) -> OdeSolution:
    """LSODA, the driver behind ``scipy.integrate.odeint``, with
    ``scipy.integrate.solve_ivp``'s call shape.

    ``fun(t, y)`` is integrated from ``t_span[0]``, with steps of at most
    ``max_step``, and sampled on ``t_eval``, which ends at ``t_span[1]``.
    A start within rounding of ``t_eval[0]``, where LSODA refuses to step,
    starts at ``t_eval[0]``.  Each output interval may take 500 steps, or
    500 per ``max_step`` where it is longer.  The compiled driver gets the
    arguments ``odeint`` passes it, so the results are odeint's to the bit,
    and the ``scipy.integrate`` package is never imported.  ``fun`` may
    return one array that it overwrites on each call: LSODA copies every
    result out at once, and a stand-in integrator must do the same.  A
    failure is ``success=False`` with odeint's message for LSODA's istate.
    """
    t0 = float(t_span[0])
    rounding = 4.0 * np.finfo(float).eps * max(abs(t0), abs(t_eval[0]))
    times = t_eval if t_eval[0] - t0 <= rounding else np.concatenate(([t0], t_eval))
    # odeint budgets 500 steps per output interval; an interval longer than
    # max_step gets 500 per max_step, as if it were cut into outputs
    longest = float(np.max(np.diff(times))) if times.size > 1 else 0.0
    budget = 500 * max(1, math.ceil(longest / max_step))
    # (fun, y0, t, args, Dfun, col_deriv, ml, mu, full_output, rtol, atol, tcrit,
    #  h0, hmax, hmin, ixpr, mxstep, mxhnil, mxordn, mxords, tfirst)
    y, info, istate = _lsoda()(fun, y0, times, (), None, 0, -1, -1, 1, rtol, atol, None,
                               0.0, max_step, 0.0, 0, budget, 0, 12, 5, 1)
    return OdeSolution(
        y=y[times.size - t_eval.size:].T,
        nfev=int(info["nfe"][-1]),
        success=istate == 2,
        message=_ISTATE_MESSAGES[istate],
    )


def v_infinity(params: ProblemParams, grid: RadialGrid, dtype=float) -> RadialFunction:
    """Singular solution c0 * r^(-m) sampled on the grid.

    Requires N' > 2, tau > -2 and p above the Serrin exponent, where the
    amplitude c0 = (m*(N'-2-m))^(1/(p-1)) is positive.  ``dtype`` selects
    the sampling precision; pass ``numpy.longdouble`` when downstream
    residual checks need headroom below the float64 quantization floor.
    Raises NumericalError where v would leave the normal range of that
    dtype on the grid.
    """
    _require_singular(params)
    # c0 r^(-m) = exp(m (log s - log r)) with log s = log(c0)/m: neither
    # s = c0^(1/m) nor any power of r is formed, so nothing under- or
    # overflows unless v itself does; extended precision keeps the
    # rounding of log v, up to |log v| eps, below that of v itself
    ext = np.longdouble
    np_, tau, p = ext(params.n_prime), ext(params.tau), ext(params.p)
    m = (2.0 + tau) / (p - 1.0)
    log_s = np.log(m * (np_ - 2.0 - m)) / (2.0 + tau)
    log_v = m * (log_s - np.log(grid.points.astype(ext)))
    info = np.finfo(dtype)
    if log_v[-1] < np.log(info.tiny) or log_v[0] > np.log(info.max):
        raise NumericalError(
            f"c0 r^(-m) leaves the {info.dtype} range at N' = {params.n_prime}, "
            f"tau = {params.tau} on [{grid.r_min}, {grid.r_max}]"
        )
    return RadialFunction(grid=grid, values=np.exp(log_v).astype(dtype))


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
    ``r_min`` to ``r_max`` with ``points_per_decade`` (positive) nodes per
    decade; without ``r_min`` the grid starts at ``r_start``, by default
    1e-6 of the kappa scale (lower near tau = -2).  The origin series gives
    the state on every node up to its switch (``_origin_series``) and LSODA
    the rest, from the switch or from a given ``r_start`` below it, and
    always at least the last interval; an ``r_start`` above the switch
    leaves the shot unchanged.  ``tol`` sets the relative and absolute
    tolerance of LSODA on the state (y, s), applied as tol/1000, and on
    (p-1) y in place of y where (p-1) tol/1000 exceeds 1.
    The hypothesis p above the Sobolev exponent is enforced; there the
    solution is positive, strictly decreasing, and r^m v(r) tends to the
    singular amplitude c0.  It reports the tail fit, classification and
    ordering of ``_shot_state``'s run; ``nfev`` counts LSODA's
    right-hand-side evaluations.
    """
    c0 = params.c0  # read first: its NumericalError precedes the shot's checks
    grid, y, s, nfev = _shot_state(params, kappa, r_max, tol, grid=grid, r_min=r_min,
                                   points_per_decade=points_per_decade, r_start=r_start)
    if not np.max(y) < math.log(np.finfo(float).max):
        raise NumericalError("non-finite state or w = e^y overflows in shooting output")
    w = RadialFunction(grid=grid, values=np.exp(y))

    try:
        estimate, converged = asymptotic_constant(w, params)
    except InvalidParameterError:
        # Too short or too coarse for a trustworthy tail fit: report the
        # naive endpoint estimate and flag the run inconclusive.
        estimate, converged = float(w.values[-1]), False
        classification = DecayClass.INCONCLUSIVE
    else:
        # converged is classify_decay's own slow-decay test on the same fit
        classification = (DecayClass.SLOW_DECAY if converged
                          else classify_decay(w, params)[0])

    gap = y - math.log(c0)  # log(v / (c0 r^(-m)))
    band = ORDERING_NOISE_FACTOR * tol
    if np.any(gap > band):
        ordering = Ordering.CROSSES if np.any(gap < -band) else Ordering.ABOVE
    else:
        # Never meaningfully above the singular solution; ties within the
        # noise band count toward "below".
        ordering = Ordering.BELOW

    return ShootingResult(
        params=params,
        kappa=kappa,
        log_scaled=RadialFunction(grid=grid, values=y),
        asymptotic_constant=estimate,
        converged=converged,
        classification=classification,
        ordering_vs_singular=ordering,
        nfev=nfev,
        zeta_residual=abs(math.exp(s[-1]) - params.m_exp),
        log_amplitude_residual=abs(float(gap[-1])),
    )


def _shot_state(params, kappa, r_max, tol, *, grid=None, r_min=None, points_per_decade=128,
                r_start=None) -> tuple[RadialGrid, np.ndarray, np.ndarray, int]:
    """(grid, y, s, nfev) of ``shoot``'s run: its checks and integration, none of its report."""
    _require_regime(params)
    if not params.p > params.sobolev:
        raise InvalidParameterError(
            f"shooting requires p above the Sobolev exponent {params.sobolev}"
        )
    if not kappa > 0.0:
        raise InvalidParameterError("kappa must be positive")
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    if not points_per_decade > 0:
        raise InvalidParameterError(f"points_per_decade must be positive, got {points_per_decade}")
    for name, value in (("kappa", kappa), ("r_max", r_max), ("tol", tol)):
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")

    np_, tau, p, m = params.n_prime, params.tau, params.p, params.m_exp
    try:  # the intrinsic length kappa^(-(p-1)/(2+tau))
        scale = kappa ** (-(p - 1.0) / (2.0 + tau))
    except OverflowError:
        raise NumericalError(
            f"length scale of kappa = {kappa} overflows at tau = {tau}"
        ) from None
    first = r_start
    if grid is None and r_min is None and r_start is None:
        # the default grid starts where q = (r/scale)^(2+tau) is small: at 1e-6
        # scale, or lower near tau = -2, where x = q/((2+tau)(N'+tau)) is sqrt(tol)
        log_cap = (0.5 * math.log(tol) + math.log((2.0 + tau) * (np_ + tau))
                   ) / (2.0 + tau)
        first = scale * min(SERIES_START_FACTOR, math.exp(min(log_cap, 0.0)))
        if not first > 0.0:
            raise NumericalError(f"series start radius underflows at tau = {tau}")
        if not first < r_max:
            raise NumericalError(
                f"series start radius {first:.6g} of kappa = {kappa} lies beyond "
                f"r_max = {r_max:.6g} at tau = {tau}"
            )
        if r_max / first == math.inf:
            raise NumericalError(f"series start radius underflows below r_max at tau = {tau}")
    if grid is None:
        lo, name = (r_min, "r_min") if r_min is not None else (first, "r_start")
        if not (0.0 < lo < r_max):
            raise InvalidParameterError("need 0 < r_min < r_max")
        if r_max / lo == math.inf:  # lo was given: a computed series start is checked above
            raise InvalidParameterError(f"log(r_max/{name}) must be finite")
        n = max(2, int(round(math.log10(r_max / lo) * points_per_decade)) + 1)
        grid = RadialGrid.logspaced(lo, r_max, n)
    if grid.r_max > r_max * (1.0 + 1e-12):
        raise InvalidParameterError("grid extends beyond r_max")

    # The origin series gives the state on every node up to its switch, all
    # in logs: log x = log x0 + (2+tau) t.  LSODA starts there, or at a given
    # r_start below it, and always integrates at least the last interval.
    t_eval = grid.log_points
    coeffs, log_x_switch = _origin_series(np_, tau, p)
    log_x0 = (p - 1.0) * math.log(kappa) - math.log((2.0 + tau) * (np_ + tau))
    t0 = min((log_x_switch - log_x0) / (2.0 + tau), float(t_eval[-2]))
    if r_start is not None:
        if not r_start > 0.0:
            raise InvalidParameterError(f"r_start must be positive, got {r_start}")
        t0 = min(t0, math.log(r_start))
    head = int(np.searchsorted(t_eval, t0, side="right"))
    gap = (2.0 + tau) * (float(t_eval[head]) - t0)  # e-folds of q, at least one step each
    if not gap <= MAX_SERIES_GAP:
        raise NumericalError(
            f"series start lies {gap:.3g} e-folds of q below the grid at tau = {tau}"
        )
    t_head = np.append(t_eval[:head], t0)
    log_x = log_x0 + (2.0 + tau) * t_head
    rest, zeta_sum = _series_sums(coeffs, np.exp(log_x))
    log_total = np.log1p(rest)  # log(1 + rest) would round away a rest below eps
    y_head = m * t_head + math.log(kappa) + log_total
    s_head = math.log(2.0 + tau) + log_x + np.log(zeta_sum) - log_total

    # LSODA at a thousandth of tol (floored where it rejects rtol as below
    # rounding) keeps the global error in log v inside the ordering band;
    # one e-fold of the series driver q per step keeps its step growth from
    # jumping the series-to-nonlinear transition
    inner_tol = max(tol / 1000.0, 100.0 * np.finfo(float).eps)
    p1, n2 = p - 1.0, np_ - 2.0
    # Where (p-1) inner_tol > 1, an absolute error of inner_tol in y would be
    # more than an e-fold of the nonlinear term e^((p-1) y - s): LSODA then
    # integrates u = (p-1) y, holding (p-1) y itself to inner_tol
    gain = p1 if p1 * inner_tol > 1.0 else 1.0
    gain_m, p1_over_gain = gain * m, p1 / gain
    state0 = (gain * float(y_head[-1]), float(s_head[-1]))
    slope = np.empty(2)  # one per run, so runs share no state

    def rhs(t, state):
        u, s = state.tolist()  # Python floats: numpy scalar arithmetic costs 4x
        zeta = math.exp(s)
        slope[0] = gain_m - gain * zeta
        slope[1] = math.exp(p1_over_gain * u - s) - n2 + zeta
        return slope  # LSODA reads an array in place but converts a tuple

    try:
        sol = solve_ivp(rhs, (t0, float(t_eval[-1])), state0, t_eval=t_eval[head:],
                        rtol=inner_tol, atol=inner_tol, max_step=1.0 / (2.0 + tau))
    except OverflowError as exc:
        # e^s overflows once the state leaves the cone v > 0, v' < 0
        raise NumericalError("shooting left v > 0, v' < 0; tolerance too loose") from exc
    if not sol.success:
        raise NumericalError(f"integrator failed: {sol.message}")

    if not np.all(np.isfinite(sol.y)):
        raise NumericalError("non-finite state or w = e^y overflows in shooting output")
    y = np.concatenate((y_head[:-1], sol.y[0] / gain))
    s = np.concatenate((s_head[:-1], sol.y[1]))
    return grid, y, s, int(sol.nfev)


def _origin_series(np_: float, tau: float, p: float) -> tuple[list[float], float]:
    """Coefficients [1, a_1, ..., a_K] of the regular solution's origin series
    v = kappa sum a_k x^k, and log x at its switch to LSODA.

    The variable x = q/((2+tau)(N'+tau)) makes a_1 = -1.  With c = 2+tau and
    b_k the coefficients of (sum a_k x^k)^p by Miller's power rule,
    a_k k (ck + N'-2) = -(N'+tau) b_(k-1).  The list ends at SERIES_TERMS,
    or earlier where a b_k leaves the float range.  The switch is the
    largest x <= 1, in halvings from where the last terms would be
    SERIES_SWITCH_TOL of sums of 1, at which the last term of each of
    ``_series_sums`` is at most SERIES_SWITCH_TOL times its sum and every
    term at most SERIES_CANCELLATION times it.
    """
    c, n2 = 2.0 + tau, np_ - 2.0
    a, b = [1.0], [1.0]
    while len(a) <= SERIES_TERMS and math.isfinite(b[-1]):
        k = len(a)
        a.append(-b[-1] * ((n2 + c) / (k * (c * k + n2))))  # |a_k| <= |b_(k-1)|
        b.append(sum(((p + 1.0) * j - k) * a[j] * b[k - j] for j in range(1, k + 1)) / k)
    K = len(a) - 1
    log_tol, log_last = math.log(SERIES_SWITCH_TOL), math.log(max(abs(a[K]), 1e-300))
    log_x = min((log_tol - log_last) / K, (log_tol - log_last - math.log(K)) / (K - 1), 0.0)
    while True:
        rest, zeta_sum = _series_sums(a, math.exp(log_x))
        total = 1.0 + rest
        terms = [abs(a[k]) * math.exp(k * log_x) for k in range(K + 1)]
        zeta_terms = [k * abs(a[k]) * math.exp((k - 1) * log_x) for k in range(1, K + 1)]
        if (terms[-1] <= SERIES_SWITCH_TOL * total and zeta_terms[-1] <= SERIES_SWITCH_TOL * zeta_sum
                and max(terms) <= SERIES_CANCELLATION * total
                and max(zeta_terms) <= SERIES_CANCELLATION * zeta_sum):
            return a, log_x
        log_x -= math.log(2.0)


def _series_sums(a, x):
    """S - 1 = sum_(k>=1) a_k x^k and Z = -sum k a_k x^(k-1) (1 at x = 0) by
    Horner, for x a float or an array: v = kappa S and zeta = -r v'/v =
    (2+tau) x Z/S.  S - 1 keeps the digits of a sum within eps of 1."""
    rest = zeta_sum = 0.0
    for k in range(len(a) - 1, 0, -1):
        rest = rest * x + a[k]
        zeta_sum = zeta_sum * x - k * a[k]
    return rest * x, zeta_sum


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
    tau = v1.params.tau
    lam = (v1.params.p - 1.0) / (tau + 2.0)
    try:  # the factor over- or underflows, or the grid leaves the float range
        grid = v1.log_scaled.grid.scaled(kappa ** (-lam))
    except (OverflowError, InvalidParameterError):
        raise NumericalError(
            f"grid rescaled to kappa = {kappa} leaves the float range at tau = {tau}"
        ) from None
    return RadialFunction(grid=grid, values=kappa * v1.solution.values)


def _linear_tail(w: RadialFunction) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The last decade's log radii, w = r^m v there, and a linear fit's mid-decade
    level of w with its drift across the decade relative to that level."""
    if np.ptp(w.grid.log_points) < (3.0 - 1e-9) * math.log(10.0):
        raise InvalidParameterError("asymptotics need a grid spanning >= 3 decades")
    mask = w.grid.points >= w.grid.r_max / 10.0 * (1.0 - 1e-12)
    if np.count_nonzero(mask) < 4:
        raise InvalidParameterError("too few points in the last decade")
    t, y = w.grid.log_points[mask], w.values[mask]
    if not np.all(y >= np.finfo(float).tiny):  # an underflowed tail would fit as level 0
        raise NumericalError("w = r^m v is not a normal positive float in the last decade")
    slope, intercept = np.polyfit(t, y, 1)
    level = float(intercept + slope * 0.5 * (t[0] + t[-1]))
    return t, y, level, abs(slope) * (t[-1] - t[0]) / max(abs(level), 1e-300)


def _linearised_limit(s: np.ndarray, y: np.ndarray, params: ProblemParams) -> float:
    """Constant of the least-squares fit of y(s) to c plus the linearisation.

    Near c0, w = r^m v solves w'' + (N'-2-2m) w' + (p-1) m (N'-2-m) (w - c0)
    = 0 in t = log r, with rho = (N'-2-2m)/2 and disc = (N'-2)^2 - 4 f(p):
    w - c0 is e^(-rho s) times cos and sin of sqrt(-disc)/2 s on the focus
    side, and a sum of e^((-rho +- sqrt(disc)/2) s) on the node side, fit
    as the slow mode and the two modes' difference quotient, which tends
    to s e^(-rho s) where disc = 0.  ``s`` >= 0 keeps every mode at most 1.
    A discriminant out of the float range raises ``NumericalError``.
    """
    np_ = params.n_prime
    rho = 0.5 * (np_ - 2.0 - 2.0 * params.m_exp)
    quarter = _hardy_level(np_) - f_eval(params.p, np_, params.tau)  # disc/4, exactly
    if not math.isfinite(quarter):
        raise NumericalError(f"tail discriminant leaves the float range at N' = {np_}")
    half = math.sqrt(abs(quarter))  # = sqrt(|disc|)/2, exactly
    if quarter < 0.0:
        decay = np.exp(-rho * s)
        modes = (decay * np.cos(half * s), decay * np.sin(half * s))
    else:
        half = max(half, 1e-300)
        slow = np.exp((half - rho) * s)
        modes = (slow, -slow * np.expm1(-2.0 * half * s) / (2.0 * half))
    basis = np.column_stack((np.ones_like(s), *modes))
    return float(np.linalg.lstsq(basis, y, rcond=None)[0][0])


def asymptotic_constant(w: RadialFunction, params: ProblemParams) -> tuple[float, bool]:
    """Estimate of lim w(r) from the last decade of the scaled profile w = r^m v.

    Where c0 exists the estimate is the limit of a least-squares fit of
    w to a constant plus the linearised tail at the singular solution,
    which does not lag the decaying tail as the mid-decade value of a
    linear fit does; otherwise it is that mid-decade value.  ``converged``
    is True when the drift of a linear fit of w across the decade stays
    below 0.5 percent of its mid-decade level.  The grid must span three
    decades, with four or more normal positive floats w in the last one.
    """
    c0 = params.c0  # read first: its NumericalError precedes the tail checks
    t, y, level, drift = _linear_tail(w)
    converged = bool(drift <= SLOW_DRIFT_TOL)
    if c0 is None:
        return level, converged
    return _linearised_limit(t - t[0], y, params), converged


def classify_decay(
    w: RadialFunction, params: ProblemParams
) -> tuple[DecayClass, float, float]:
    """Classify the tail of a positive scaled profile w = r^m v as slow or fast decay.

    Returns (class, drift, fitted_exponent).  Slow decay means w is flat
    to 0.5 percent per decade; fast decay means the fitted decay exponent
    of v, m minus the slope of log w, matches N'-2 within 2 percent.
    These thresholds are implementation choices, not theory values.
    """
    t, y, _, drift = _linear_tail(w)
    fitted_exponent = params.m_exp - float(np.polyfit(t, np.log(y), 1)[0])
    if drift <= SLOW_DRIFT_TOL:
        return DecayClass.SLOW_DECAY, drift, fitted_exponent
    fast_ref = params.n_prime - 2.0
    if fast_ref > 0.0 and abs(fitted_exponent - fast_ref) <= FAST_EXPONENT_TOL * fast_ref:
        return DecayClass.FAST_DECAY, drift, fitted_exponent
    return DecayClass.INCONCLUSIVE, drift, fitted_exponent


def residual(v: RadialFunction, params: ProblemParams) -> float:
    """Scaled sup-norm residual of the radial equation on the grid.

    Centered differences in t = log r approximate
    v'' + (N'-1)/r v' = (d2v/dt2 + (N'-2) dv/dt)/r^2; the residual against
    -r^tau |v|^(p-1) v is maximized over interior nodes and normalized by
    the largest nonlinear term.  Exact solutions give O(h^2).  A term or
    residual out of the samples' float range raises ``NumericalError``.
    """
    if v.grid.n < 3:
        raise InvalidParameterError("residual needs at least three grid points")
    vals = v.values
    dtype = vals.dtype  # always floating: RadialFunction keeps float64 or wider
    # Work in the precision of the samples: the log coordinates must carry
    # the same accuracy, or grid jitter re-floors the stencil noise.
    t = np.log(v.grid.points.astype(dtype))
    h_plus = t[2:] - t[1:-1]
    h_minus = t[1:-1] - t[:-2]
    d1 = (vals[2:] - vals[:-2]) / (h_plus + h_minus)
    d2 = 2.0 * (
        (vals[2:] - vals[1:-1]) / h_plus - (vals[1:-1] - vals[:-2]) / h_minus
    ) / (h_plus + h_minus)
    vi, ti = vals[1:-1], t[1:-1]
    # r^-2 and r^tau are formed in logs next to the factor each one scales,
    # so only a term that itself leaves the dtype's range raises.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 0 gives 0
        r2_laplacian = d2 + (dtype.type(params.n_prime) - 2.0) * d1
        linear = np.sign(r2_laplacian) * np.exp(np.log(np.abs(r2_laplacian)) - 2.0 * ti)
        nonlinear = np.sign(vi) * np.exp(
            dtype.type(params.tau) * ti + dtype.type(params.p) * np.log(np.abs(vi))
        )
        res = np.max(np.abs(linear + nonlinear))
        scale = np.max(np.abs(nonlinear))
        value = float(res / scale if scale != 0.0 else res)
    if not math.isfinite(value):
        raise NumericalError(
            f"residual leaves the float range on [{v.grid.r_min}, {v.grid.r_max}]"
        )
    return value


def sphere_constant_check(params: ProblemParams) -> float:
    """Residual of the constant solution of the angular limiting equation.

    Scaled profiles of radial solutions limit on constants w satisfying
    w^p = m*(N'-2-m) * w; the singular amplitude c0 satisfies this
    identity exactly, so the returned residual |c0^p - f(p)/p * c0|
    vanishes up to rounding.  NumericalError where c0^p leaves the float range.
    """
    _require_singular(params)
    c0 = params.c0
    level = f_eval(params.p, params.n_prime, params.tau) / params.p
    try:
        value = abs(c0**params.p - level * c0)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"c0^p leaves the float range at N' = {params.n_prime}")
    return value
