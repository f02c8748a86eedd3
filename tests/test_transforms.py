import math
import warnings

import numpy as np
import pytest

from emdenlab import (
    InvalidParameterError,
    NumericalError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    SchrodingerParams,
    dual_apply,
    dual_params,
    kelvin_apply,
    kelvin_params,
    residual,
    sigma_inverse,
    sigma_params,
    v_infinity,
)


def test_kelvin_params_beta():
    t = kelvin_params(ProblemParams(5, 0.0, 0.0, 3.0))
    assert t.l == 2.0  # (N-2+theta)(p-1) - (4+l-2 theta)
    assert t.theta == 0.0
    assert t.N == 5


def test_kelvin_params_serrin_boundary():
    # at p = serrin the image tau equals -2 exactly
    params = ProblemParams(5, 0.5, 0.25, (5.5 - 0.25) / 3.5)
    assert params.p == params.serrin
    image = kelvin_params(params)
    assert image.l - image.theta == pytest.approx(-2.0, abs=1e-14)


def test_kelvin_params_tau_sign():
    rng = np.random.default_rng(2)
    for _ in range(50):
        N = int(rng.integers(3, 10))
        theta = rng.uniform(-1.0, 2.0)
        l = rng.uniform(-1.0, 2.0)
        p = rng.uniform(1.05, 6.0)
        params = ProblemParams(N, theta, l, p)
        if not params.standard_regime:
            continue
        image = kelvin_params(params)
        assert (image.l - image.theta > -2.0) == (p > params.serrin)


def test_kelvin_params_involution():
    params = ProblemParams(7, 0.5, 1.25, 2.5)
    twice = kelvin_params(kelvin_params(params))
    assert twice.l == pytest.approx(params.l, abs=1e-12)
    assert twice.theta == params.theta


def test_dual_params_identities():
    t = dual_params(ProblemParams(5, 0.0, 0.0, 3.0))
    assert t.theta == -6.0
    assert t.l == -10.0
    assert t.n_prime == -1.0
    assert t.n_prime + 5.0 == 4.0
    assert t.tau + 0.0 == -4.0


def test_dual_params_involution_and_mirror():
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = ProblemParams(
            int(rng.integers(2, 10)),
            float(rng.uniform(-8.0, 8.0)),
            float(rng.uniform(-8.0, 8.0)),
            float(rng.uniform(1.1, 5.0)),
        )
        image = dual_params(params)
        # derived indices carry one rounding each; identities hold to epsilon
        assert image.n_prime + params.n_prime == pytest.approx(4.0, abs=1e-12)
        assert image.tau + params.tau == pytest.approx(-4.0, abs=1e-12)
        back = dual_params(image)
        assert back.theta == pytest.approx(params.theta, abs=1e-13)
        assert back.l == pytest.approx(params.l, abs=1e-13)
        # mirror regime: N' > 2, tau > -2 maps to N' < 2, tau < -2
        if params.standard_regime:
            assert image.n_prime < 2.0 and image.tau < -2.0


def test_sigma_params_examples():
    sp = SchrodingerParams(5, 0.0, 0.0, 3.0)
    image = sigma_params(sp)
    assert image.theta == 0.0 and image.l == 0.0  # ell = 0 is the identity
    sp = SchrodingerParams(5, 0.0, 2.0, 3.0)
    image = sigma_params(sp)
    assert image.theta == pytest.approx(-2.0, abs=1e-14)
    assert image.l == pytest.approx(-4.0, abs=1e-14)


def test_sigma_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        N = int(rng.integers(3, 12))
        sp = SchrodingerParams(
            N,
            float(rng.uniform(-3.0, 3.0)),
            float(rng.uniform(-4.0, (N - 2.0) ** 2 / 4.0 - 1e-6)),
            float(rng.uniform(1.1, 6.0)),
        )
        back = sigma_inverse(sigma_params(sp))
        assert back.alpha == pytest.approx(sp.alpha, abs=1e-12)
        assert back.ell == pytest.approx(sp.ell, abs=1e-12)
        assert back.p == sp.p


def test_grid_reflect():
    grid = RadialGrid.logspaced(0.25, 16.0, 41)
    refl = grid.reflect()
    assert refl.r_min == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert refl.r_max == pytest.approx(4.0, rel=1e-15)
    twice = refl.reflect()
    assert np.max(np.abs(twice.points - grid.points) / grid.points) < 1e-15


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_logspaced_needs_two_points(n):
    # the same typed error as the constructor, not numpy's ValueError
    with pytest.raises(InvalidParameterError, match="at least two points"):
        RadialGrid.logspaced(1.0, 2.0, n)


@pytest.mark.parametrize("points, message", [
    ([1.0], "at least two points"),
    ([0.0, 1.0, 2.0], "finite and positive"),
    ([-1.0, 1.0], "finite and positive"),
    ([1.0, 1.0, 1.0], "strictly increasing"),
    ([2.0, 1.0, 0.5], "strictly increasing"),
    ([1.0, 2.0, 3.0], "not log-uniform"),
], ids=["one-point", "zero", "negative", "constant", "decreasing", "uniform"])
def test_grid_constructor_rejects_what_is_not_a_log_uniform_grid(points, message):
    with pytest.raises(InvalidParameterError, match=message):
        RadialGrid(np.array(points))


def test_kelvin_apply_maps_singular_to_image_singular():
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    grid = RadialGrid.logspaced(0.1, 10.0, 4001)
    v = v_infinity(params, grid)
    image_params = kelvin_params(params)
    w = kelvin_apply(v, params)
    ref = v_infinity(image_params, w.grid)
    assert np.max(np.abs(w.values - ref.values) / ref.values) < 1e-13
    # residual oracle on the image equation
    assert residual(w, image_params) < 1e-5


def test_kelvin_apply_involution():
    params = ProblemParams(6, 0.5, 1.0, 2.0)
    grid = RadialGrid.logspaced(0.5, 8.0, 101)
    rng = np.random.default_rng(1)
    v = RadialFunction(grid, rng.uniform(0.5, 2.0, size=101))
    back = kelvin_apply(kelvin_apply(v, params), params)
    assert np.max(np.abs(back.values - v.values) / np.abs(v.values)) < 1e-13
    assert np.max(np.abs(back.grid.points - grid.points) / grid.points) < 1e-15


def test_kelvin_apply_fast_decay_becomes_bounded():
    # a fast-decay tail r^(2-N') maps to a function with a finite limit
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    grid = RadialGrid.logspaced(10.0, 1e4, 301)
    gamma = 1.7
    v = RadialFunction(grid, gamma * grid.points ** (2.0 - 5.0))
    w = kelvin_apply(v, params)
    assert np.allclose(w.values, gamma, rtol=1e-12)


def test_kelvin_apply_weight_is_formed_in_logs():
    # r^98 alone overflows at r = 1e6, the image r^98 v = 1e-200 r^38 does not
    params = ProblemParams(100, 0.0, 0.0, 2.0)
    grid = RadialGrid.logspaced(1e-6, 1e6, 200)
    t = grid.log_points
    v = RadialFunction(grid, np.exp(math.log(1e-200) - 60.0 * t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = kelvin_apply(v, params)
    assert np.array_equal(w.grid.points, grid.reflect().points)
    image = w.values[::-1]  # at the source nodes r
    assert np.all(image[v.values == 0.0] == 0.0)  # v underflows beyond r ~ 10^2
    expect = np.exp(math.log(1e-200) + 38.0 * t)  # underflows below r ~ 10^-3
    normal = np.minimum(v.values, expect) >= np.finfo(float).tiny
    assert np.count_nonzero(normal) > 50
    assert np.max(np.abs(image[normal] / expect[normal] - 1.0)) < 1e-12
    with pytest.raises(NumericalError, match="float range"):
        kelvin_apply(RadialFunction(grid, np.ones(200)), params)


def test_dual_apply_involution_and_endpoints():
    grid = RadialGrid.logspaced(0.2, 5.0, 64)
    rng = np.random.default_rng(8)
    v = RadialFunction(grid, rng.normal(size=64))
    z = dual_apply(v)
    assert z.grid.r_min == pytest.approx(0.2, rel=1e-15)
    assert z.grid.r_max == pytest.approx(5.0, rel=1e-15)
    back = dual_apply(z)
    assert np.array_equal(back.values, v.values)


def test_dual_apply_singular_solution():
    # the dual image of c0 r^(-m) is c0 s^(+m), a solution of the dual equation
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    grid = RadialGrid.logspaced(0.1, 10.0, 2001)
    v = v_infinity(params, grid)
    z = dual_apply(v)
    expect = params.c0 * z.grid.points**params.m_exp
    assert np.max(np.abs(z.values - expect) / expect) < 1e-13
    image_params = dual_params(params)
    assert residual(z, image_params) < 1e-5


def test_transform_parameter_identities_are_exact():
    # affine maps beyond machine epsilon would break the involution exactness
    params = ProblemParams(9, -1.5, 2.25, 2.0)
    image = dual_params(params)
    assert image.theta == 4.0 - 18.0 + 1.5
    assert image.l == -18.0 - 2.25
