import math

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
    asymptotic_constant,
    classify_decay,
    derive,
    dual_apply,
    dual_params,
    f_eval,
    kelvin_apply,
    kelvin_params,
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
    image_params = kelvin_params(PARAMS_5).params
    w = kelvin_apply(v, PARAMS_5)
    assert residual(w, image_params) < 1e-5


def test_shoot_asymptotics_and_ordering():
    res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10)
    c0 = derive(PARAMS_11).c0
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
    assert np.all(res.solution.derivative <= 0.0)


def test_shoot_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        shoot(PARAMS_11, kappa=-1.0, r_max=1e4)
    with pytest.raises(InvalidParameterError):
        shoot(ProblemParams(11, 0.0, 0.0, 1.4), kappa=1.0, r_max=1e4)  # below sobolev
    with pytest.raises(InvalidParameterError):
        shoot(ProblemParams(3, -1.0, -1.0, 3.0), kappa=1.0, r_max=1e4)  # N' = 2


def test_shoot_series_start_oracle():
    # halving the series start radius must not move the solution
    base = shoot(PARAMS_11, kappa=1.0, r_max=1e3, r_min=1e-4, tol=1e-11)
    halved = shoot(
        PARAMS_11, kappa=1.0, r_max=1e3, tol=1e-11,
        grid=base.solution.grid, r_start=0.5e-6,
    )
    dev = np.max(
        np.abs(halved.solution.values - base.solution.values) / base.solution.values
    )
    assert dev < 1e-9


def test_scaling_law():
    lam = (PARAMS_11.p - 1.0) / (derive(PARAMS_11).tau + 2.0)
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


def test_asymptotic_constant_on_singular_solution():
    grid = RadialGrid.logspaced(1e-2, 1e2, 600)
    v = v_infinity(PARAMS_11, grid)
    est, converged = asymptotic_constant(v, PARAMS_11)
    assert converged
    assert est == pytest.approx(derive(PARAMS_11).c0, rel=1e-12)


def test_asymptotic_constant_fast_decay_drifts_to_zero():
    grid = RadialGrid.logspaced(1.0, 1e4, 800)
    v = RadialFunction(grid, 3.0 * grid.points ** (2.0 - 11.0))
    est, converged = asymptotic_constant(v, PARAMS_11)
    assert not converged
    cls, _, fitted = classify_decay(v, PARAMS_11)
    assert cls is DecayClass.FAST_DECAY
    assert fitted == pytest.approx(9.0, rel=1e-6)


def test_asymptotic_constant_needs_three_decades():
    grid = RadialGrid.logspaced(1.0, 10.0, 64)
    v = v_infinity(PARAMS_11, grid)
    with pytest.raises(InvalidParameterError):
        asymptotic_constant(v, PARAMS_11)


def test_residual_zero_function():
    grid = RadialGrid.logspaced(0.1, 10.0, 64)
    v = RadialFunction(grid, np.zeros(64))
    assert residual(v, PARAMS_5) == 0.0


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
    kel = residual(kelvin_apply(res.solution, PARAMS_5), kelvin_params(PARAMS_5).params)
    dua = residual(dual_apply(res.solution), dual_params(PARAMS_5).params)
    assert kel <= 10.0 * src
    assert dua <= 10.0 * src
    # steep image: check second-order convergence instead of the constant
    coarse = shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=1e-11, r_min=1e-1,
                   points_per_decade=128)
    fine = shoot(PARAMS_11, kappa=1.0, r_max=1e4, tol=1e-11, r_min=1e-1,
                 points_per_decade=256)
    image_params = kelvin_params(PARAMS_11).params
    rc = residual(kelvin_apply(coarse.solution, PARAMS_11), image_params)
    rf = residual(kelvin_apply(fine.solution, PARAMS_11), image_params)
    assert rc / rf == pytest.approx(4.0, rel=0.2)


def test_sphere_constant_check():
    assert sphere_constant_check(PARAMS_5) <= 1e-12
    assert sphere_constant_check(ProblemParams(11, 0.0, 0.0, 13.0 / 9.0)) <= 1e-12
    with pytest.raises(InvalidParameterError):
        sphere_constant_check(ProblemParams(5, 0.0, 0.0, 1.5))  # below serrin
    # consistency: the constant limit equals the singular amplitude
    res = shoot(PARAMS_11, kappa=1.0, r_max=1e6, tol=1e-10)
    level = f_eval(PARAMS_11.p, 11.0, 0.0) / PARAMS_11.p
    assert res.asymptotic_constant ** (PARAMS_11.p - 1.0) == pytest.approx(level, rel=1e-2)


def test_shoot_exponent_overflow_is_a_numerical_error():
    with pytest.raises(NumericalError, match="N'\\+tau = 100"):
        shoot(ProblemParams(100, 0.0, 0.0, 2.0), 1.0, 1e6)
