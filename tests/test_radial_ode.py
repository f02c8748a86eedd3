import math
import random
import re
import warnings

import numpy as np
import pytest

from emdenlab import (
    DecayClass,
    InvalidParameterError,
    NumericalError,
    Ordering,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    ShootingResult,
    asymptotic_constant,
    classify_decay,
    critical_exponents,
    dual_apply,
    dual_params,
    f_eval,
    kelvin_apply,
    kelvin_params,
    log_nodes,
    profile_spectrum,
    radial_ode,
    rescale,
    residual,
    shoot,
    sphere_constant_check,
    v_infinity,
)

PARAMS_11 = ProblemParams(11, 0.0, 0.0, 7.0)
PARAMS_5 = ProblemParams(5, 0.0, 0.0, 3.0)


def test_v_infinity_values_and_residual():
    grid = RadialGrid.logspaced(0.5, 2.0, 2001)
    v = v_infinity(PARAMS_5, grid)
    assert np.allclose(v.values, math.sqrt(2.0) / grid.points, rtol=1e-14)
    assert residual(v, PARAMS_5) < 1e-6


def test_v_infinity_rejects_below_serrin():
    with pytest.raises(InvalidParameterError):
        v_infinity(ProblemParams(5, 0.0, 0.0, 1.5), RadialGrid.logspaced(0.1, 1.0, 16))


def test_v_infinity_amplitude_vanishes_toward_serrin():
    grid = RadialGrid.logspaced(1.0, 2.0, 16)
    prev = None
    for eps in (1e-1, 1e-2, 1e-3):
        v = v_infinity(ProblemParams(5, 0.0, 0.0, 5.0 / 3.0 + eps), grid)
        peak = float(np.max(v.values))
        if prev is not None:
            assert peak < prev
        prev = peak
    assert prev < 1e-2


def test_v_infinity_kelvin_image_is_image_singular_solution():
    grid = RadialGrid.logspaced(0.2, 5.0, 3001)
    v = v_infinity(PARAMS_5, grid)
    image_params = kelvin_params(PARAMS_5)
    w = kelvin_apply(v, PARAMS_5)
    assert residual(w, image_params) < 1e-5


def test_shoot_asymptotics_and_ordering():
    res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10)
    c0 = PARAMS_11.c0
    assert res.asymptotic_constant == pytest.approx(c0, rel=1e-2)
    assert res.converged
    assert res.classification is DecayClass.SLOW_DECAY
    assert res.ordering_vs_singular is Ordering.BELOW
    # strict ordering where the gap is resolvable
    grid = res.solution.grid
    vinf = v_infinity(PARAMS_11, grid)
    head = grid.points <= 1e2
    assert np.all(res.solution.values[head] < vinf.values[head])


def test_shoot_positive_and_decreasing():
    res = shoot(PARAMS_11, kappa=2.5, r_max=1e4, tol=1e-9)
    assert np.all(res.solution.values > 0.0)
    assert np.all(np.diff(res.solution.values) <= 0.0)  # flat to rounding at the head


def test_shoot_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        shoot(PARAMS_11, kappa=-1.0, r_max=1e4)
    with pytest.raises(InvalidParameterError):
        shoot(ProblemParams(11, 0.0, 0.0, 1.4), kappa=1.0, r_max=1e4)  # below sobolev
    with pytest.raises(InvalidParameterError):
        shoot(ProblemParams(3, -1.0, -1.0, 3.0), kappa=1.0, r_max=1e4)  # N' = 2
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=0.0)
    with pytest.raises(InvalidParameterError, match="grid extends beyond r_max"):
        shoot(PARAMS_11, kappa=1.0, r_max=1e4, grid=RadialGrid.logspaced(1e-3, 1e5, 100))
    for r_min in (0.0, -1.0, 1e4, 1e5):  # a given start must lie in (0, r_max)
        with pytest.raises(InvalidParameterError, match=r"^need 0 < r_min < r_max$"):
            shoot(PARAMS_11, kappa=1.0, r_max=1e4, r_min=r_min)


@pytest.mark.parametrize("kappa", [0.0, -1.0])
def test_shooting_result_rejects_a_non_positive_kappa(kappa):
    grid = RadialGrid.logspaced(1e-3, 1e3, 10)
    with pytest.raises(InvalidParameterError, match="kappa must be positive"):
        ShootingResult(PARAMS_11, kappa, RadialFunction(grid, np.zeros(10)), 1.0, True,
                       DecayClass.SLOW_DECAY, Ordering.BELOW, 0, 0.0, 0.0)


def _start_lsoda_at(monkeypatch, kappa, r):
    """Move the origin series' switch of a kappa shot down to radius ``r``, so
    LSODA starts there and the series gives only the nodes below it."""
    real = radial_ode._origin_series

    def moved(np_, tau, p):
        coeffs, log_x = real(np_, tau, p)
        log_x0 = (p - 1.0) * math.log(kappa) - math.log((2.0 + tau) * (np_ + tau))
        lowered = log_x0 + (2.0 + tau) * math.log(r)
        assert lowered < log_x
        return coeffs, lowered

    monkeypatch.setattr(radial_ode, "_origin_series", moved)


def test_shoot_series_start_oracle(monkeypatch):
    # starting LSODA at r = 0.5e-6, below the grid, must not move the solution
    base = shoot(PARAMS_11, kappa=1.0, r_max=1e3, r_min=1e-4, tol=1e-11)
    _start_lsoda_at(monkeypatch, 1.0, 0.5e-6)
    halved = shoot(PARAMS_11, kappa=1.0, r_max=1e3, r_min=1e-4, tol=1e-11)
    dev = np.max(
        np.abs(halved.solution.values - base.solution.values) / base.solution.values
    )
    assert dev < 1e-9


@pytest.mark.parametrize("N, l, p", [(5, -1.9, 3.0), (5, -1.9, 1.5), (11, -1.97, 3.0)])
def test_series_start_near_tau_minus_two(monkeypatch, N, l, p):
    # at r = 1e-6 scale the series parameter q = (r/scale)^(2+tau) is 0.25
    # (tau = -1.9) or 0.66 (tau = -1.97); the default grid starts lower, and
    # LSODA started from half its first radius agrees with the series head
    params = ProblemParams(N, 0.0, l, p)
    base = shoot(params, kappa=1.0, r_max=1e6)
    grid = base.solution.grid
    _start_lsoda_at(monkeypatch, 1.0, 0.5 * grid.r_min)
    halved = shoot(params, kappa=1.0, r_max=1e6, grid=grid)
    dev = np.max(np.abs(halved.solution.values / base.solution.values - 1.0))
    assert dev < 1e-9


def test_series_start_is_unchanged_away_from_tau_minus_two():
    # where the 1e-6 factor already wins the start radius is bit-identical
    params = ProblemParams(5, 0.0, -0.5, 3.0)
    scale = 2.0 ** (-(params.p - 1.0) / 1.5)
    run = shoot(params, kappa=2.0, r_max=1e3)
    assert run.solution.grid.r_min == radial_ode.GRID_START_FACTOR * scale


def test_series_start_underflow_is_a_numerical_error():
    with pytest.raises(NumericalError, match="tau = -1.99"):
        shoot(ProblemParams(5, 0.0, -1.99, 1.5), kappa=1.0, r_max=1e6)


def test_scaling_law():
    lam = (PARAMS_11.p - 1.0) / (PARAMS_11.tau + 2.0)
    base = shoot(PARAMS_11, kappa=1.0, r_max=1e5, tol=1e-10)
    for kappa in (0.5, 2.0, 10.0):
        scaled_grid = base.solution.grid.scaled(kappa**-lam)
        direct = shoot(
            PARAMS_11, kappa=kappa, r_max=scaled_grid.r_max * (1 + 1e-12),
            tol=1e-10, grid=scaled_grid,
        )
        mapped = rescale(base, kappa)
        dev = np.max(np.abs(direct.solution.values - mapped.values) / mapped.values)
        assert dev < 1e-6, f"kappa={kappa}: {dev}"
        # asymptotic constant is kappa-independent
        assert direct.asymptotic_constant == pytest.approx(
            base.asymptotic_constant, rel=1e-6
        )


def test_asymptotic_constant_stable_under_tolerance_halving():
    loose = shoot(PARAMS_11, kappa=1.0, r_max=1e5, tol=2e-8)
    tight = shoot(PARAMS_11, kappa=1.0, r_max=1e5, tol=1e-8)
    rel = abs(loose.asymptotic_constant - tight.asymptotic_constant) / tight.asymptotic_constant
    assert rel < 1e-3


def test_rescale_identity_and_values():
    base = shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=1e-9)
    same = rescale(base, 1.0)
    assert np.array_equal(same.values, base.solution.values)
    two = rescale(base, 2.0)
    lam = (PARAMS_11.p - 1.0) / 2.0
    assert np.allclose(two.grid.points, base.solution.grid.points * 2.0**-lam, rtol=1e-15)
    assert np.array_equal(two.values, 2.0 * base.solution.values)
    with pytest.raises(InvalidParameterError):
        rescale(base, -1.0)
    with pytest.raises(InvalidParameterError):
        rescale(shoot(PARAMS_11, kappa=2.0, r_max=1e4, tol=1e-9), 2.0)


@pytest.mark.parametrize("kappa", [1e-300, 1e300], ids=["overflow", "underflow"])
def test_rescale_grid_out_of_the_float_range_is_a_numerical_error(kappa):
    # the grid factor kappa^(-3) overflows or underflows to 0
    base = shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=1e-9)
    with pytest.raises(NumericalError, match=re.escape(f"kappa = {kappa}")):
        rescale(base, kappa)


def test_asymptotic_constant_on_singular_solution():
    grid = RadialGrid.logspaced(1e-2, 1e2, 600)
    v = v_infinity(PARAMS_11, grid)
    w = RadialFunction(grid, v.times_power(PARAMS_11.m_exp))
    est, converged = asymptotic_constant(w, PARAMS_11)
    assert converged
    assert est == pytest.approx(PARAMS_11.c0, rel=1e-12)
    # shoot calls classify_decay only on unconverged tails: its slow-decay return is read here
    cls, drift, fitted = classify_decay(w, PARAMS_11)
    assert cls is DecayClass.SLOW_DECAY and drift <= 1e-12
    assert fitted == pytest.approx(PARAMS_11.m_exp, rel=1e-9)


def test_asymptotic_constant_fast_decay_drifts_to_zero():
    grid = RadialGrid.logspaced(1.0, 1e4, 800)
    w = RadialFunction(grid, 3.0 * grid.points ** (PARAMS_11.m_exp + 2.0 - 11.0))
    est, converged = asymptotic_constant(w, PARAMS_11)
    assert not converged
    cls, _, fitted = classify_decay(w, PARAMS_11)
    assert cls is DecayClass.FAST_DECAY
    assert fitted == pytest.approx(9.0, rel=1e-6)


def test_asymptotic_constant_needs_three_decades():
    grid = RadialGrid.logspaced(1.0, 10.0, 64)
    w = RadialFunction(grid, v_infinity(PARAMS_11, grid).times_power(PARAMS_11.m_exp))
    with pytest.raises(InvalidParameterError):
        asymptotic_constant(w, PARAMS_11)


def test_a_tail_discriminant_out_of_the_float_range_is_a_numerical_error():
    # N' = 1.3e154, tau = 5.85e154: c0 is finite (1.5e34) but f(p) overflows, and
    # with it the discriminant (N'-2)^2/4 - f(p)
    grid = RadialGrid.logspaced(1.0, 1e4, 400)
    params = ProblemParams(2, 1.3e154, 7.15e154, 10.0)
    with pytest.raises(NumericalError, match="tail discriminant leaves the float range"):
        asymptotic_constant(RadialFunction(grid, np.ones(grid.n)), params)


def test_tail_fit_of_an_underflowed_w_is_a_numerical_failure():
    # w = 3 r^-200 is 0 in double precision beyond r ~ 42: the fit would read
    # a converged level 0, so both tail functions raise instead
    grid = RadialGrid.logspaced(1.0, 1e4, 600)
    w = RadialFunction(grid, np.exp(math.log(3.0) - 200.0 * grid.log_points))
    for tail_function in (asymptotic_constant, classify_decay):
        with pytest.raises(NumericalError, match="normal positive float"):
            tail_function(w, PARAMS_11)


def test_tail_and_residual_read_no_c0():
    # m = 20 and c0 = 1560^200 overflows: residual and classify_decay need
    # only N', tau and m, so they return; asymptotic_constant needs c0
    params = ProblemParams(100, 0.0, -1.9, 1.005)
    grid = RadialGrid.logspaced(1.0, 1e4, 400)
    v = RadialFunction(grid, grid.points**-0.5)
    assert math.isfinite(residual(v, params))
    cls, drift, fitted = classify_decay(v, params)
    assert cls is DecayClass.INCONCLUSIVE and drift > 0.0
    assert fitted == pytest.approx(params.m_exp + 0.5, rel=1e-9)
    with pytest.raises(NumericalError, match="c0 leaves the float range"):
        asymptotic_constant(v, params)


def test_v_infinity_needs_c0_only_in_range_where_it_is_sampled():
    # c0 = 1560^200 overflows, but c0 r^-20 is a normal float on [1e20, 1e30]:
    # v_infinity works in logs and returns it; sphere_constant_check reads c0
    params = ProblemParams(100, 0.0, -1.9, 1.005)
    grid = RadialGrid.logspaced(1e20, 1e30, 50)
    log_c0 = math.log(params.m_exp * (98.0 - params.m_exp)) / (params.p - 1.0)
    got = np.log(v_infinity(params, grid).values)
    np.testing.assert_allclose(got, log_c0 - params.m_exp * grid.log_points, rtol=1e-12)
    with pytest.raises(NumericalError, match="c0 leaves the float range"):
        sphere_constant_check(params)


def test_shoot_where_w_overflows_is_a_numerical_failure():
    # c0 = 1.77e308 lies just under the float maximum, and the crossing
    # tail's first overshoot takes w = e^y above it
    with pytest.raises(NumericalError, match="overflows"):
        shoot(ProblemParams(30, 0.0, -1.9, 1.00743422), kappa=1.0, r_max=1e30)


def test_shoot_on_a_grid_too_coarse_for_a_tail_fit_is_inconclusive():
    # six decades, but two points in the last one: like a grid under three
    # decades, the shot reports its endpoint estimate as inconclusive
    for grid, reason in ((RadialGrid.logspaced(1e-3, 1e3, 10), "too few points"),
                         (RadialGrid.logspaced(1e-3, 1e-1, 300), "3 decades")):
        res = shoot(PARAMS_11, kappa=1.0, r_max=grid.r_max, grid=grid)
        assert res.classification is DecayClass.INCONCLUSIVE and not res.converged
        m = PARAMS_11.m_exp
        endpoint = res.solution.values[-1] * grid.r_max**m
        assert res.asymptotic_constant == pytest.approx(endpoint, rel=1e-9)
        with pytest.raises(InvalidParameterError, match=reason):
            asymptotic_constant(RadialFunction(grid, np.exp(res.log_scaled.values)), PARAMS_11)


def test_residual_zero_function():
    grid = RadialGrid.logspaced(0.1, 10.0, 64)
    v = RadialFunction(grid, np.zeros(64))
    assert residual(v, PARAMS_5) == 0.0


def test_residual_needs_three_points():
    v = RadialFunction(RadialGrid.logspaced(1.0, 2.0, 2), np.ones(2))
    with pytest.raises(InvalidParameterError, match="at least three grid points"):
        residual(v, PARAMS_5)


def test_residual_perturbed_singular_solution():
    # scaling c0 r^-m by c leaves residual (c^p - c) * max(nonlinear):
    # normalized, that is 1 - c^(1-p)
    grid = RadialGrid.logspaced(1.0, 4.0, 4001)
    v = v_infinity(PARAMS_5, grid)
    c = 1.01
    vp = RadialFunction(grid, c * v.values)
    expect = 1.0 - c ** (1.0 - PARAMS_5.p)
    assert residual(vp, PARAMS_5) == pytest.approx(expect, rel=1e-3)


def test_residual_refinement_is_second_order():
    r1 = residual(v_infinity(PARAMS_5, RadialGrid.logspaced(1.0, 100.0, 2000)), PARAMS_5)
    r2 = residual(v_infinity(PARAMS_5, RadialGrid.logspaced(1.0, 100.0, 4000)), PARAMS_5)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_shooting_output_residual_in_resolved_region():
    res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10, r_min=1e-2)
    assert residual(res.solution, PARAMS_11) < 5e-4


def test_transform_images_of_shooting_output_keep_residual():
    # For slope-comparable images the residual transfers within a small
    # factor; a steeper image (larger decay exponent) keeps O(h^2) decay
    # but with its own constant.
    res = shoot(PARAMS_5, kappa=1.0, r_max=1e4, tol=1e-10, r_min=1e-1)
    src = residual(res.solution, PARAMS_5)
    kel = residual(kelvin_apply(res.solution, PARAMS_5), kelvin_params(PARAMS_5))
    dua = residual(dual_apply(res.solution), dual_params(PARAMS_5))
    assert kel <= 10.0 * src
    assert dua <= 10.0 * src
    # steep image: check second-order convergence instead of the constant
    coarse = shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=1e-11, r_min=1e-1,
                   points_per_decade=128)
    fine = shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=1e-11, r_min=1e-1,
                 points_per_decade=256)
    image_params = kelvin_params(PARAMS_11)
    rc = residual(kelvin_apply(coarse.solution, PARAMS_11), image_params)
    rf = residual(kelvin_apply(fine.solution, PARAMS_11), image_params)
    assert rc / rf == pytest.approx(4.0, rel=0.2)


def test_sphere_constant_check():
    assert sphere_constant_check(PARAMS_5) <= 1e-12
    assert sphere_constant_check(ProblemParams(11, 0.0, 0.0, 13.0 / 9.0)) <= 1e-12
    with pytest.raises(InvalidParameterError, match="above the Serrin exponent"):
        sphere_constant_check(ProblemParams(5, 0.0, 0.0, 1.5))  # below serrin
    with pytest.raises(InvalidParameterError, match="need N' > 2 and tau > -2"):
        sphere_constant_check(ProblemParams(5, 0.0, -2.5, 3.0))  # p is above serrin = 5/6
    # consistency: the constant limit equals the singular amplitude
    res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10)
    level = f_eval(PARAMS_11.p, 11.0, 0.0) / PARAMS_11.p
    assert res.asymptotic_constant ** (PARAMS_11.p - 1.0) == pytest.approx(level, rel=1e-2)


@pytest.mark.parametrize("p", [2.0, 1.2, 1.045], ids=["p2", "p1.2", "p1.045-near-sobolev"])
def test_shoot_reaches_n_prime_100(p):
    # r^(N'+tau) leaves the float range on [1e-6, 1e6] at N' = 100, and
    # near Sobolev so does c0 r^(-m): no power of r may be formed
    params = ProblemParams(100, 0.0, 0.0, p)
    res = shoot(params, 1.0, 1e6, tol=1e-10)
    assert res.converged
    assert res.classification is DecayClass.SLOW_DECAY
    assert abs(res.asymptotic_constant / params.c0 - 1.0) <= 1e-6
    focus = f_eval(p, 100.0, 0.0) > 98.0**2 / 4.0
    assert res.ordering_vs_singular is (Ordering.CROSSES if focus else Ordering.BELOW)


def test_state_leaving_the_cone_is_a_numerical_error(monkeypatch):
    real = radial_ode.solve_ivp

    def start_outside(fun, t_span, y0, **kwargs):
        return real(fun, t_span, (y0[0], 800.0), **kwargs)  # zeta = e^800

    monkeypatch.setattr(radial_ode, "solve_ivp", start_outside)
    with pytest.raises(NumericalError, match="v > 0, v' < 0"):
        shoot(PARAMS_11, kappa=1.0, r_max=1e4)


def test_non_finite_lsoda_output_is_a_numerical_error(monkeypatch):
    # an integrator that reports success on a NaN state: a shot spectrum has
    # no later check, and would hand assemble_forms a NaN potential
    real = radial_ode.solve_ivp

    def nan_state(*args, **kwargs):
        sol = real(*args, **kwargs)
        return sol._replace(y=np.full_like(sol.y, math.nan), success=True)

    monkeypatch.setattr(radial_ode, "solve_ivp", nan_state)
    with pytest.raises(NumericalError, match="non-finite state"):
        shoot(PARAMS_11, kappa=1.0, r_max=1e4)
    with pytest.raises(NumericalError, match="non-finite state"):
        profile_spectrum(PARAMS_11, 1e-2, 1e2, 100, kappa=1.0)


def test_shoot_diagnostics():
    res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10)
    assert 0 < res.nfev < 5000
    # the end state sits on the singular fixed point (log c0, log m)
    assert res.zeta_residual < 1e-6
    assert res.log_amplitude_residual < 1e-6
    again = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10)
    assert (again.nfev, again.zeta_residual, again.log_amplitude_residual) == (
        res.nfev, res.zeta_residual, res.log_amplitude_residual
    )



@pytest.mark.parametrize("N, p, nfev", [(11, 7.0, 1200), (40, 3.0, 2303), (100, 2.0, 1816)],
                         ids=["N11-p7", "N40-p3", "N100-p2"])
def test_shooting_work_is_pinned(N, p, nfev):
    # the RHS evaluation count of LSODA on these shots: a change to the
    # integrator, its tolerances, its step bound, the state or the origin
    # series' switch moves it
    res = shoot(ProblemParams(N, 0.0, 0.0, p), kappa=1.0, r_max=1e6, tol=1e-10)
    assert (res.nfev, res.ordering_vs_singular) == (nfev, Ordering.BELOW)


R_MAX, TOL = 1e6, 1e-10


def _resolvable_draws(seed: int, count: int):
    """Seeded draws whose ordering and amplitude the shot can decide.

    With w = r^m v and t = log r, w - c0 obeys x'' + (N'-2-2m) x' +
    (p-1) m (N'-2-m) x = 0 to first order, discriminant (N'-2)^2 - 4 f(p).
    A draw is kept when its tail decays by e^-18 before R_MAX and, on the
    focus side, its first overshoot above c0 is damped by at most e^-12
    over half a turn, so it stands out of the ordering band.
    """
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        N = rng.randint(3, 100)
        theta, tau = rng.uniform(0.0, 0.5), rng.uniform(-0.5, 1.0)
        np_ = N + theta
        sobolev = (np_ + 2.0 + 2.0 * tau) / (np_ - 2.0)
        # every other draw stays close above Sobolev, where the focus side lies
        p = 1.0 + (sobolev - 1.0) * math.exp(rng.uniform(0.02, 2.5 if len(draws) % 2 else 0.4))
        kappa = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        m = (2.0 + tau) / (p - 1.0)
        f = p * m * (np_ - 2.0 - m)
        disc = (np_ - 2.0) ** 2 - 4.0 * f
        damping = np_ - 2.0 - 2.0 * m
        rho = 0.5 * (damping - math.sqrt(max(disc, 0.0)))
        omega = 0.5 * math.sqrt(max(-disc, 0.0))
        scale = kappa ** (-(p - 1.0) / (2.0 + tau))
        if rho * math.log(R_MAX / scale) < 18.0:
            continue
        if omega > 0.0 and math.pi * rho / omega > 12.0:
            continue
        c0 = (m * (np_ - 2.0 - m)) ** (1.0 / (p - 1.0))
        draws.append((ProblemParams(N, theta, theta + tau, p), kappa, disc < 0.0, c0))
    return draws


def test_ordering_matches_the_linearisation_discriminant_up_to_n_prime_100():
    draws = _resolvable_draws(seed=6, count=24)
    assert sum(params.n_prime > 48.0 for params, *_ in draws) >= 3
    assert {focus for _, _, focus, _ in draws} == {True, False}
    for params, kappa, focus, c0 in draws:
        res = shoot(params, kappa, R_MAX, tol=TOL)
        label = f"N'={params.n_prime}, tau={params.tau}, p={params.p}, kappa={kappa}"
        assert res.converged and res.classification is DecayClass.SLOW_DECAY, label
        want = Ordering.CROSSES if focus else Ordering.BELOW
        assert res.ordering_vs_singular is want, label
        assert abs(res.asymptotic_constant / c0 - 1.0) <= 1e-6, label


def _assert_profile_gates(res: ShootingResult):
    """The benchmark's profile gates: slow decay, ordering by p_c, A = c0."""
    params = res.params
    label = f"N'={params.n_prime}, tau={params.tau}, p={params.p}, kappa={res.kappa}"
    assert res.converged and res.classification is DecayClass.SLOW_DECAY, label
    p_c = critical_exponents(params.n_prime, params.tau).p_c
    want = Ordering.BELOW if p_c is not None and params.p >= p_c else Ordering.CROSSES
    assert res.ordering_vs_singular is want, label
    assert abs(res.asymptotic_constant / params.c0 - 1.0) <= 1e-6, label


def test_step_bound_keeps_the_first_steps_inside_the_series_region():
    # Unbounded, LSODA's step grows 10^4-fold over the nearly linear series
    # region and jumps the transition (t = -11.2 -> 2.2); the corrector then
    # overflows e^s and the shot fails with "shooting left v > 0, v' < 0".
    params = ProblemParams(13, -0.4593741724494682, 0.37878689028394286, 8.12420634423256)
    _assert_profile_gates(shoot(params, 1.2329126533190407, R_MAX, tol=TOL))


def test_start_within_rounding_of_the_first_output():
    # On the mapped grid of this rescale check the series start lies 1.8e-15
    # before the first output in t, where LSODA refuses to start.
    params = ProblemParams(41, 0.41763721421618216, 0.749617154404627, 1.8227283464470143)
    base = shoot(params, 1.0, R_MAX, tol=TOL, r_min=1e-6)
    _assert_profile_gates(base)
    mapped = rescale(base, 2.0)
    direct = shoot(params, 2.0, mapped.grid.r_max * (1.0 + 1e-12), tol=TOL, grid=mapped.grid)
    assert np.max(np.abs(direct.solution.values / mapped.values - 1.0)) <= 1e-6


def _dop853(fun, t_span, y0, *, t_eval, rtol, atol, max_step):
    from scipy.integrate import solve_ivp

    # the shot's fun overwrites one array per call, and DOP853 keeps its stages
    return solve_ivp(lambda t, y: np.array(fun(t, y)), t_span, y0, method="DOP853",
                     t_eval=t_eval, rtol=1e-13, atol=1e-13)


def _profile_draws(seed: int, count: int):
    """Seeded draws over the benchmark's profile domain: N 5-44, tau -0.5-1."""
    rng = random.Random(seed)
    for _ in range(count):
        N, theta, tau = rng.randint(5, 44), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 1.0)
        np_ = N + theta
        sobolev = (np_ + 2.0 + 2.0 * tau) / (np_ - 2.0)
        p = 1.0 + (sobolev - 1.0) * math.exp(rng.uniform(0.02, 2.5))
        kappa = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        yield ProblemParams(N, theta, theta + tau, p), kappa


@pytest.mark.parametrize(
    "draws, bound",
    [
        (lambda: _profile_draws(seed=11, count=30), 1e-9),
        # y = log(r^m v) reaches m |t| ~ 700 near Sobolev at N' ~ 100, and
        # rtol acts on y: measured 2.0e-9 here (RK45 at tol gave 7.9e-9)
        (lambda: ((params, kappa) for params, kappa, *_ in _resolvable_draws(11, 12)), 3e-9),
    ],
    ids=["profile-domain", "n-prime-to-100"],
)
def test_lsoda_agrees_with_a_tight_dop853_reference(monkeypatch, draws, bound):
    worst = 0.0
    for params, kappa in draws():
        got = np.log(shoot(params, kappa, R_MAX, tol=TOL).solution.values)
        with monkeypatch.context() as patch:
            patch.setattr(radial_ode, "solve_ivp", _dop853)
            ref = np.log(shoot(params, kappa, R_MAX, tol=TOL).solution.values)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= bound


def test_tolerance_below_the_lsoda_floor_runs_without_warnings():
    # tol / 1000 is floored at 100 eps, where LSODA still accepts rtol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-15)
    assert res.classification is DecayClass.SLOW_DECAY


def _public_odeint(fun, t_span, y0, *, t_eval, rtol, atol, max_step):
    """The reference: the same times, step budget and options through the public
    ``scipy.integrate.odeint`` wrapper, its warning silenced."""
    from scipy.integrate import ODEintWarning, odeint

    t0 = float(t_span[0])
    rounding = 4.0 * np.finfo(float).eps * max(abs(t0), abs(t_eval[0]))
    times = t_eval if t_eval[0] - t0 <= rounding else np.concatenate(([t0], t_eval))
    longest = float(np.max(np.diff(times))) if times.size > 1 else 0.0
    budget = 500 * max(1, math.ceil(longest / max_step))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(fun, y0, times, rtol=rtol, atol=atol, hmax=max_step,
                         mxstep=budget, full_output=True, tfirst=True)
    return y[times.size - t_eval.size:].T, int(info["nfe"][-1]), info["message"]


def _assert_matches_public_odeint(sol, fun, t_span, y0, **kwargs):
    y, nfev, message = _public_odeint(fun, t_span, y0, **kwargs)
    assert sol.y.tobytes() == y.tobytes()
    assert (sol.nfev, sol.success, sol.message) == (
        nfev, message == "Integration successful.", message)


def test_a_failing_integration_is_reported_not_warned():
    # y'' = -1e8 y needs far more than odeint's 500 steps per output interval
    def oscillator(t, y):
        return (y[1], -1e8 * y[0])

    kwargs = dict(t_eval=np.array([10.0]), rtol=1e-10, atol=1e-10, max_step=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = radial_ode.solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), **kwargs)
    assert not sol.success
    assert "Excess work" in sol.message
    assert sol.nfev > 0
    _assert_matches_public_odeint(sol, oscillator, (0.0, 10.0), (1.0, 0.0), **kwargs)


def test_the_compiled_driver_matches_the_public_odeint(monkeypatch):
    real = radial_ode.solve_ivp
    calls = []

    def compared(fun, t_span, y0, **kwargs):
        sol = real(fun, t_span, y0, **kwargs)
        _assert_matches_public_odeint(sol, fun, t_span, y0, **kwargs)
        calls.append(sol.success)
        return sol

    monkeypatch.setattr(radial_ode, "solve_ivp", compared)
    for params, kappa in _profile_draws(seed=27, count=20):
        shoot(params, kappa, R_MAX, tol=TOL)
    assert calls == [True] * 20


def test_a_missing_lsoda_extension_is_an_import_error_naming_where(monkeypatch):
    import importlib.machinery
    import os

    import scipy

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    where = os.path.join(os.path.dirname(scipy.__file__), "integrate")
    with pytest.raises(ImportError, match=f"missing from {re.escape(where)}$"):
        radial_ode._lsoda.__wrapped__()  # the uncached loader


def test_lsoda_without_scipy_is_an_import_error(monkeypatch):
    import importlib.util

    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    with pytest.raises(ImportError, match="^LSODA needs scipy, which is not installed$"):
        radial_ode._lsoda.__wrapped__()  # the uncached loader


def test_a_failing_integration_is_a_numerical_error(monkeypatch):
    real = radial_ode.solve_ivp

    def stiff(fun, t_span, y0, **kwargs):
        # a 1e5 rad per unit t oscillator in place of the profile equation
        return real(lambda t, y: (1e5 * y[1], -1e5 * y[0]), t_span, y0, **kwargs)

    monkeypatch.setattr(radial_ode, "solve_ivp", stiff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="integrator failed: Excess work"):
            shoot(PARAMS_11, kappa=1.0, r_max=1e4)


def test_a_long_first_interval_gets_a_step_budget_per_max_step(monkeypatch):
    # At tau = 20 the step bound 1/22 alone needs 557 steps from the series
    # start at 1e-6 to r_min = 1e5, beyond odeint's 500 per output interval
    params = ProblemParams(5, 0.0, 20.0, 20.0)
    res = shoot(params, 1.0, r_max=1e6, r_min=1e5, tol=TOL)
    monkeypatch.setattr(radial_ode, "solve_ivp", _dop853)
    ref = shoot(params, 1.0, r_max=1e6, r_min=1e5, tol=TOL)
    assert np.max(np.abs(np.log(res.solution.values / ref.solution.values))) <= 1e-8


def test_tail_fit_that_lagged_the_amplitude_gate():
    # The mid-decade value of a linear fit over the last decade read
    # |A/c0 - 1| = 1.04e-6 here, where the tail has decayed to e^-16.65
    params = ProblemParams(19, 0.0849295357785983, -0.4067771109795763, 1.208889200043005)
    _assert_profile_gates(shoot(params, 0.6241221154106373, R_MAX, tol=TOL))


@pytest.mark.parametrize(
    "params", [PARAMS_11, ProblemParams(11, 0.0, 0.0, 1.6)], ids=["node", "focus"]
)
def test_asymptotic_constant_extrapolates_the_linearised_tail(params):
    # r^m v - c0 is 1e-5 c0 at mid-decade and follows the linearisation at
    # c0 (only the last decade is read); a linear fit lags by about 1e-5
    rho = 0.5 * (params.n_prime - 2.0 - 2.0 * params.m_exp)
    disc = (params.n_prime - 2.0) ** 2 - 4.0 * f_eval(params.p, params.n_prime, params.tau)
    half = 0.5 * math.sqrt(abs(disc))
    grid = RadialGrid.logspaced(1.0, 1e4, 513)
    s = grid.log_points - (grid.log_points[-1] - 0.5 * math.log(10.0))
    if disc < 0.0:
        tail = np.exp(-rho * s) * np.cos(half * s + 1.0)
    else:
        tail = np.exp((half - rho) * s) - 0.5 * np.exp(-(half + rho) * s)
    w = RadialFunction(grid, params.c0 * (1.0 + 1e-5 * tail))
    est, converged = asymptotic_constant(w, params)
    assert converged
    assert est == pytest.approx(params.c0, rel=1e-12)


def test_shoot_names_the_start_radius_whose_ratio_overflows():
    with pytest.raises(InvalidParameterError, match=r"^log\(r_max/r_min\) must be finite$"):
        shoot(PARAMS_5, 1.0, 1e300, r_min=1e-10)


def _lower_switch(monkeypatch, decades=1.0):
    """Move the origin series' switch to LSODA ``decades`` decades of r lower."""
    real = radial_ode._origin_series

    def lowered(np_, tau, p):
        coeffs, log_x = real(np_, tau, p)
        return coeffs, log_x - (2.0 + tau) * decades * math.log(10.0)

    monkeypatch.setattr(radial_ode, "_origin_series", lowered)


@pytest.mark.parametrize("params, kappa, grid", [
    (PARAMS_11, 1.0, None),
    (ProblemParams(11, 0.0, 0.0, 1.6), 1.0, None),
    (ProblemParams(100, 0.0, 0.0, 2.0), 1.0, None),
    (ProblemParams(5, 0.0, -1.9, 3.0), 1.0, None),
    # the spectrum shot whose switch lies at log r = -2300
    (ProblemParams(20, 0.0, -1.997, 2.201936167302555), 3.0, log_nodes(1e-1, 1e3, 200)),
], ids=["node", "focus", "n100", "tau-1.9", "tau-1.997"])
def test_moving_the_switch_a_decade_lower_moves_y_by_less_than_1e_9(monkeypatch, params, kappa,
                                                                     grid):
    r_max = 1e3 if grid is not None else 1e6
    _, y, _, _ = radial_ode._shot_state(params, kappa, r_max, 1e-10, grid=grid)
    _lower_switch(monkeypatch)
    _, lower, _, _ = radial_ode._shot_state(params, kappa, r_max, 1e-10, grid=grid)
    assert np.max(np.abs(lower - y)) < 1e-9


def test_lsoda_integrates_at_least_the_last_interval(monkeypatch):
    # kappa = 0.002 puts the switch beyond r_max: the series gives every node
    # but the last, and LSODA still integrates that interval
    params = ProblemParams(67, 0.4199750224976402, -1.4417451111327608, 1.0094547745862608)
    kappa = 0.0020418035762916945
    real, calls = radial_ode.solve_ivp, []

    def recorded(fun, t_span, y0, **kwargs):
        calls.append(kwargs["t_eval"].size)
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(radial_ode, "solve_ivp", recorded)
    res = shoot(params, kappa, 1e6)
    assert calls == [1] and res.nfev > 0


def _mp_sums(np_, tau, p, x, digits=40):
    """S = sum a_k x^k and Z = -sum k a_k x^(k-1) of the full origin series at
    40 digits, summed until a term falls below 1e-38."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        c, n2, p, x = mp.mpf(2) + tau, mp.mpf(np_) - 2, mp.mpf(p), mp.mpf(x)
        a, b, total, zeta_sum, k = [mp.mpf(1)], [mp.mpf(1)], mp.mpf(1), mp.mpf(0), 0
        while k < 6 or abs(a[k] * x**k) > mp.mpf(10) ** -38:
            k += 1
            a.append(-b[k - 1] * (n2 + c) / (k * (c * k + n2)))
            b.append(mp.fsum(((p + 1) * j - k) * a[j] * b[k - j] for j in range(1, k + 1)) / k)
            total += a[k] * x**k
            zeta_sum -= k * a[k] * x ** (k - 1)
        return total, zeta_sum


def test_the_origin_series_matches_a_40_digit_series():
    # N' - 2 over 1e-3..1e2, 2+tau over 1e-3..20, p up to e^3 times the
    # Sobolev exponent's distance from 1; x at the switch and below it
    mp = pytest.importorskip("mpmath")
    rng, eps, worst = random.Random(29), np.finfo(float).eps, 0.0
    for _ in range(200):
        np_, c = 2.0 + 10.0 ** rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-3.0, 1.3)
        sobolev = (np_ - 2.0 + 2.0 * c) / (np_ - 2.0)
        draw = (np_, c - 2.0, 1.0 + (sobolev - 1.0) * math.exp(rng.uniform(0.0, 3.0)))
        coeffs, log_x = radial_ode._origin_series(*draw)
        for x in (math.exp(log_x), math.exp(log_x + rng.uniform(-8.0, 0.0))):
            rest, zeta_sum = radial_ode._series_sums(coeffs, x)
            got, want = (1.0 + rest, zeta_sum), _mp_sums(*draw, x)
            worst = max(worst, *(float(abs(g / w - 1)) for g, w in zip(got, want)))
    assert mp and worst <= 4.0 * eps, worst / eps


@pytest.mark.parametrize("np_, tau, p", [
    (2.0 + 1e-9, 0.0, 3.0), (2.0 + 1e-9, 0.0, 4e9),  # N' -> 2: p_S ~ 4/(N'-2)
    (5.0, -2.0 + 1e-12, 1.0 + 1e-12), (100.0, -1.9999999999999998, 1.0 + 4.4e-16),  # tau -> -2
    (100.0, 0.0, 1.05), (100.0, 98.0, 5.0),
    (5.0, 0.0, 1e150), (5.0, 0.0, 1e300), (5.0, 0.0, 1.7e308),  # huge p
])
def test_the_switch_bounds_the_series_at_the_domain_edges(np_, tau, p):
    coeffs, log_x = radial_ode._origin_series(np_, tau, p)
    K = len(coeffs) - 1
    assert all(map(math.isfinite, coeffs)) and math.isfinite(log_x) and log_x <= 0.0
    rest, zeta_sum = radial_ode._series_sums(coeffs, math.exp(log_x))
    total = 1.0 + rest
    terms = [abs(a) * math.exp(k * log_x) for k, a in enumerate(coeffs)]
    zeta_terms = [k * abs(a) * math.exp((k - 1) * log_x) for k, a in enumerate(coeffs) if k]
    assert max(terms) <= radial_ode.SERIES_CANCELLATION * total
    assert max(zeta_terms) <= radial_ode.SERIES_CANCELLATION * zeta_sum
    assert terms[-1] <= radial_ode.SERIES_SWITCH_TOL * total
    assert zeta_terms[-1] <= radial_ode.SERIES_SWITCH_TOL * zeta_sum
    # where (p+1)^k leaves the float range the series is shorter, not NaN
    assert K == radial_ode.SERIES_TERMS or p >= 1e150


def test_a_switch_beyond_the_step_budget_is_a_numerical_error():
    # kappa^(p-1) = 2^1e300: the series ends 1e300 e-folds of q below the grid
    params = ProblemParams(5, 0.0, 0.0, 1e300)
    with pytest.raises(NumericalError, match="e-folds of q below the grid at tau = 0.0"):
        shoot(params, 2.0, 1e3, grid=RadialGrid.logspaced(1e-3, 1e3, 100))


@pytest.mark.parametrize("N, p", [(11, 1e18), (11, 1e20), (3, 1e300), (100, 1e300)])
def test_huge_p_shots_keep_their_verdict(N, p):
    # (p-1) times LSODA's absolute tolerance on y exceeds 1, so it integrates
    # u = (p-1) y through the transition at x p ~ 1 that the series hands it;
    # the verdict is 0.17.0's, and the tail reaches c0 = 1 - O(1/p)
    params = ProblemParams(N, 0.0, 0.0, p)
    res = shoot(params, 1.0, 1e6)
    assert (res.classification, res.ordering_vs_singular, res.converged) == (
        DecayClass.SLOW_DECAY, Ordering.BELOW, True)
    assert abs(res.asymptotic_constant - params.c0) < 1e-14


@pytest.mark.parametrize("params, a, b", [
    (ProblemParams(11, 0.0, 0.0, 1e300), 1e-6, 1e6),
    (ProblemParams(5, 0.0, -1.9, 1e300), 1.8e-5, 3e8),
    (ProblemParams(3, -0.9271105946461669, -0.9271105946461669, 1e300), 5e-6, 0.04),
], ids=["N11", "tau-1.9", "N'2.07"])
def test_a_huge_p_shot_is_the_gelfand_limit(params, a, b):
    # v = 1 - phi/p with kappa = 1 turns the equation into the Gelfand problem
    # phi'' + (N'-1)/rho phi' = rho^tau e^(-phi) in rho = p^(1/(2+tau)) r; in
    # s = log rho, psi = (2+tau) s - phi solves psi'' + (N'-2) psi' =
    # (2+tau)(N'-2) - e^psi, and (p-1) log(r^m v) = psi - log p up to O(1/p)
    from scipy.integrate import solve_ivp as reference

    np_, c = params.n_prime, 2.0 + params.tau
    grid = log_nodes(a, b, 300)
    _, y, _, _ = radial_ode._shot_state(params, 1.0, b, 1e-10, grid=grid)
    s_eval = grid.log_points + math.log(params.p) / c
    s0 = -10.0 / c  # psi = c s - x with x = e^(c s)/(c (N'+tau)) below 1e-5 there
    x0 = math.exp(c * s0) / (c * (np_ + params.tau))
    ref = reference(lambda s, z: (z[1], c * (np_ - 2.0) - math.exp(z[0]) - (np_ - 2.0) * z[1]),
                    (s0, s_eval[-1]), (c * s0 - x0, c - c * x0), method="DOP853",
                    t_eval=s_eval, rtol=1e-13, atol=1e-13)
    assert np.max(np.abs((params.p - 1.0) * y + math.log(params.p) - ref.y[0])) < 1e-7
