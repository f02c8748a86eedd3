import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

from emdenlab import (
    InvalidParameterError,
    NumericalError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    SchrodingerParams,
    TestFunction,
    TransformKind,
    assemble_forms,
    critical_exponents,
    dual_apply,
    dual_params,
    f_eval,
    hardy_constant,
    hardy_rayleigh_min,
    invariance_check,
    kelvin_apply,
    kelvin_params,
    log_nodes,
    potential,
    profile_spectrum,
    q_value,
    q_value_schrodinger,
    radial_morse_index,
    shoot,
    sigma_apply,
    stable_estimate_check,
    v_infinity,
)
from emdenlab import radial_ode, stability, tridiag
from emdenlab.cli import main


def bump(t, t0, t1):
    u = 2.0 * (t - t0) / (t1 - t0) - 1.0
    out = np.zeros_like(t)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def bump_test_function(a, b, n):
    grid = RadialGrid.logspaced(a, b, n)
    values = bump(grid.log_points, math.log(a), math.log(b))
    return TestFunction(grid, values)


def profile_on(params, a, b, n):
    pad = 1.0 + 1e-9
    grid = RadialGrid.logspaced(a / pad, b * pad, n)
    return v_infinity(params, grid)


def node_potential(params, v, a, b, n):
    # P of v on the interior assembly nodes, linear in t between v's nodes
    return potential(params.p, 2.0 + params.tau, v, log_nodes(a, b, n).points)[1:-1]


def spectrum_of(params, v, a, b, n):
    return radial_morse_index(params, node_potential(params, v, a, b, n), a, b, n)


def wiggly_profile(rng, params, grid):
    # A r^(-m) (1 + w sin(k t)) with p A^(p-1) a random multiple of the level:
    # P = p r^(2+tau) v^(p-1) is O(1) and straddles the level while v is
    # exponential in t = log r
    m = (2.0 + params.tau) / (params.p - 1.0)
    level = (params.n_prime - 2.0) ** 2 / 4.0
    amp = (rng.uniform(0.3, 2.0) * max(level, 0.5) / params.p) ** (1.0 / (params.p - 1.0))
    w, k = rng.uniform(0.0, 0.5), rng.uniform(0.2, 2.0)
    t = grid.log_points
    return RadialFunction(grid, amp * np.exp(-m * t) * (1.0 + w * np.sin(k * t)))


def test_assemble_zero_profile_is_positive_definite():
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    grid = RadialGrid.logspaced(0.05, 50.0, 512)
    zero = RadialFunction(grid, np.zeros(512))
    report = spectrum_of(params, zero, 0.1, 10.0, 200)
    assert report.negative_count == 0
    assert report.min_eigenvalue > 0.0


def test_assemble_takes_the_potential_on_its_nodes_or_as_one_number():
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    f_p = f_eval(3.0, 11.0, 0.0)
    one = assemble_forms(params, f_p, 1e-2, 1e2, 50)
    each = assemble_forms(params, np.full(50, f_p), 1e-2, 1e2, 50)
    # one number gives a tridiag.Constant diagonal whose entries are the array's, bit for bit
    assert isinstance(one.diag, tridiag.Constant) and len(one.diag) == 50
    assert np.asarray(one.diag).tobytes() == each.diag.tobytes() and one.h == each.h
    assert one.off.value == each.off.value == -1.0 / one.h**2 and len(one.off) == 49
    for P, reason in ((np.zeros(52), "1 or 50 values"), ([f_p], "1 or 50 values"),
                      (np.full(50, np.inf), "finite"), (math.nan, "finite")):
        with pytest.raises(InvalidParameterError, match=reason):
            radial_morse_index(params, P, 1e-2, 1e2, 50)


def test_an_assembled_diagonal_out_of_the_float_range_is_a_numerical_error():
    # N' = 1e154 puts the Hardy level near 2.5e307, and P = -1.79e308 takes
    # the diagonal top - P past the largest float
    with pytest.raises(NumericalError, match="assembled diagonal leaves the float range"):
        assemble_forms(ProblemParams(2, 1e154, 0.0, 3.0), -1.79e308, 1.0, 10.0, 8)


def test_assemble_refinement_is_second_order():
    params = ProblemParams(5, 0.0, 0.0, 1.75)
    v = profile_on(params, 1e-2, 1e2, 4096)
    mins = []
    for n in (250, 500, 1000):
        mins.append(spectrum_of(params, v, 1e-2, 1e2, n).min_eigenvalue)
    # Richardson: the error against the n -> inf limit halves by 4 each level
    d1 = abs(mins[1] - mins[0])
    d2 = abs(mins[2] - mins[1])
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)


def test_spectrum_dichotomy_core_cases():
    # stable at p >= p_c
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-3, 1e3, 3000)
    rep = spectrum_of(params, v, 1e-3, 1e3, 2000)
    assert rep.negative_count == 0
    assert rep.min_eigenvalue > -1e-8
    # stable below the lower critical power (N'=10 side)
    params = ProblemParams(10, 0.0, 0.0, 1.3)
    v = profile_on(params, 1e-3, 1e3, 3000)
    rep = spectrum_of(params, v, 1e-3, 1e3, 2000)
    assert rep.negative_count == 0
    # N = 5 singular profile in its stable range (f below the hardy level)
    params = ProblemParams(5, 0.0, 0.0, 1.75)
    v = profile_on(params, 1e-3, 1e3, 3000)
    rep = spectrum_of(params, v, 1e-3, 1e3, 2000)
    assert rep.negative_count == 0
    assert rep.min_eigenvalue >= -1e-8
    # unstable in between, count grows with the annulus
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    v = profile_on(params, 1e-4, 1e4, 4000)
    narrow = spectrum_of(params, v, 1e-2, 1e2, 2000)
    wide = spectrum_of(params, v, 1e-3, 1e3, 2000)
    wider = spectrum_of(params, v, 1e-4, 1e4, 2000)
    assert narrow.negative_count >= 1
    assert narrow.negative_count <= wide.negative_count <= wider.negative_count
    assert wider.negative_count > narrow.negative_count


@pytest.mark.parametrize(
    "N, p, a, b, n",
    [
        (11, 3.0, 1e-3, 1e3, 4000),
        # large N': a scheme in r shifts the Hardy level by O((h N')^2)
        (50, 1.1, 1e-6, 1e6, 2000),
        (100, 1.0408, 1e-3, 1e3, 2000),
        # v_infinity reaches 1e-285 at r = 1e10, where r^(-m) alone underflows
        (60, 1.06, 1e-2, 1e10, 4000),
    ],
    ids=["N11", "N50", "N100", "N60-near-underflow"],
)
def test_spectrum_matches_liouville_count(N, p, a, b, n):
    # negative count of the singular-profile form equals the sinusoid count
    # floor(L * sqrt(f - level) / pi) on [a, b], L = log(b/a)
    params = ProblemParams(N, 0.0, 0.0, p)
    v = profile_on(params, a, b, 6000)
    rep = spectrum_of(params, v, a, b, n)
    L = math.log(b / a)
    expect = math.floor(L * math.sqrt(f_eval(p, N, 0.0) - hardy_constant(N)) / math.pi)
    assert rep.negative_count == expect


@pytest.mark.parametrize(
    "N, p, a, b, n", [(11, 3.0, 1e-2, 1e2, 1000), (50, 1.1, 1e-6, 1e6, 2000)]
)
def test_singular_profile_spectrum_matches_discrete_closed_form(N, p, a, b, n):
    # sampled on the nodes themselves, v_infinity makes the potential the
    # constant f(p): the matrix is -D_h^2 + level - f(p), whose eigenvalues
    # are (4/h^2) sin^2(k pi h / 2L) + level - f(p)
    # (LAPACK bisection on the assembled matrix is checked the same way, so
    # the closed-form route of radial_morse_index is not its own oracle)
    params = ProblemParams(N, 0.0, 0.0, p)
    v = v_infinity(params, RadialGrid(np.geomspace(a, b, n + 2)))
    rep = spectrum_of(params, v, a, b, n)
    L = math.log(b / a)
    h = L / (n + 1)
    k = np.arange(1, len(rep.eigenvalues) + 1)
    shift = hardy_constant(N) - f_eval(p, N, 0.0)
    exact = 4.0 / h**2 * np.sin(k * math.pi * h / (2.0 * L)) ** 2 + shift
    np.testing.assert_allclose(rep.eigenvalues, exact, rtol=1e-10, atol=0.0)
    asm = assemble_forms(params, f_eval(p, N, 0.0), a, b, n)
    lapack = tridiag.smallest_eigenvalues(asm.diag, asm.off, k.size)
    np.testing.assert_allclose(lapack, exact, rtol=1e-10, atol=0.0)
    closed = radial_morse_index(params, f_eval(p, N, 0.0), a, b, n)
    np.testing.assert_allclose(closed.eigenvalues, exact, rtol=1e-10, atol=0.0)


def test_singular_profile_counts_across_the_domain():
    # seeded draws over N' up to 101, p from just above Serrin, annuli up to
    # b/a = 1e24 and n from 8 to 20000, with corners at n = 20000 and
    # b/a = 1e24: about v_infinity P is the constant f(p), so every spectrum
    # matches the discrete closed form, also where c0 r^(-m) itself leaves
    # the float range (and a RuntimeWarning fails the test); LAPACK bisection
    # on the assembled matrix must match it too, so each route keeps an
    # oracle that is not itself
    rng = np.random.default_rng(4)
    draws = [(100, 1.0, -1.5, 1.001, 1e-12, 1e12, 20000), (3, -0.5, 3.0, 10.0, 1e-12, 1e12, 20000)]
    for _ in range(40):
        N, theta, tau = int(rng.integers(3, 101)), rng.uniform(-0.5, 1.0), rng.uniform(-1.5, 3.0)
        decades, centre = rng.uniform(1.0, 24.0), rng.uniform(-6.0, 6.0)
        draws.append((N, theta, tau, 1.0 + 10.0 ** rng.uniform(-3.0, 1.0),
                       10.0 ** (centre - decades / 2), 10.0 ** (centre + decades / 2),
                       round(10.0 ** rng.uniform(math.log10(8), math.log10(20000)))))
    for N, theta, tau, serrin_factor, a, b, n in draws:
        n_prime = N + theta
        p = (n_prime + tau) / (n_prime - 2.0) * serrin_factor
        params = ProblemParams(N, theta, theta + tau, p)
        rep = radial_morse_index(params, f_eval(p, n_prime, tau), a, b, n)
        L = math.log(b / a)
        h = L / (n + 1)
        k = np.arange(1, n + 1)
        exact = (
            4.0 / h**2 * np.sin(k * math.pi * h / (2.0 * L)) ** 2
            + hardy_constant(n_prime) - f_eval(p, n_prime, tau)
        )
        assert rep.negative_count == np.count_nonzero(exact < -rep.negative_tol)
        scale = rep.matrix_scale
        assert rep.negative_tol == 1e-9 * scale
        np.testing.assert_allclose(rep.eigenvalues, exact[:len(rep.eigenvalues)],
                                   rtol=0.0, atol=1e-13 * scale)
        asm = assemble_forms(params, f_eval(p, n_prime, tau), a, b, n)
        lapack = tridiag.smallest_eigenvalues(asm.diag, asm.off, len(rep.eigenvalues))
        np.testing.assert_allclose(lapack, exact[:lapack.size], rtol=0.0, atol=1e-13 * scale)
        assert rep.count_margin == np.min(np.abs(np.asarray(rep.eigenvalues) + rep.negative_tol))


def test_singular_profile_outside_the_float_range_is_a_numerical_error():
    # c0 r^(-m) drops below the smallest normal float64 before r = 1e12
    params = ProblemParams(100, 0.0, 0.0, 1.0408)
    with pytest.raises(NumericalError, match=r"N' = 100.0, tau = 0.0 on \[0.000999"):
        profile_on(params, 1e-3, 1e12, 4000)


def test_sign_dichotomy_across_powers():
    # straddle p_tilde_c and p_c at N' = 11, tau = 0
    exps = critical_exponents(11.0, 0.0)
    level = hardy_constant(11.0)
    for p in (1.25, 1.28, 1.5, 3.0, 5.0, 6.8, 7.2, 9.0):
        params = ProblemParams(11, 0.0, 0.0, p)
        if params.c0 is None:
            continue
        v = profile_on(params, 1e-2, 1e2, 2000)
        rep = spectrum_of(params, v, 1e-2, 1e2, 1200)
        margin = f_eval(p, 11.0, 0.0) - level
        if abs(margin) < 0.3:
            continue  # too close to the threshold for the fixed annulus
        assert (rep.negative_count == 0) == (margin < 0.0), f"p={p}"


def test_eigensolver_dirichlet_sanity():
    n = 2000
    h = math.pi / (n + 1)
    d = np.full(n, 2.0 / h**2)
    e = np.full(n - 1, -1.0 / h**2)
    eigs = tridiag.smallest_eigenvalues(d, e, 4)
    for k, lam in enumerate(eigs, start=1):
        discrete = 4.0 / h**2 * math.sin(k * h / 2.0) ** 2
        assert lam == pytest.approx(discrete, rel=1e-10)
        assert lam == pytest.approx(float(k * k), rel=1e-3)


def _mp_count_below(d, e, x):
    # Sturm count at 60 digits: an oracle independent of float64 pivots
    import mpmath

    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        q = mpmath.mpf(d[0]) - x
        count = int(q < 0)
        for di, ei in zip(d[1:], e):
            q = mpmath.mpf(di) - x - mpmath.mpf(ei) ** 2 / q
            count += int(q < 0)
    return count


def test_count_below_matches_dense_eigenvalues():
    rng = np.random.default_rng(2024)
    checked = diagonal_shifts = 0
    for _ in range(200):
        n = int(rng.integers(2, 60))
        d = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        e = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        e[rng.random(n - 1) < 0.2] = 0.0  # split into decoupled blocks
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        lam = np.linalg.eigvalsh(T)
        gap = 1e-6 * np.linalg.norm(T, 2)
        # a shift equal to d[0] makes the first pivot exactly zero
        shifts = [*rng.uniform(lam[0] - 1.0, lam[-1] + 1.0, 6), *d[:3]]
        for j, s in enumerate(shifts):
            if np.min(np.abs(lam - s)) < gap:
                continue
            assert tridiag.count_below(d, e, float(s)) == np.count_nonzero(lam < s)
            checked += 1
            diagonal_shifts += j >= 6
    assert checked > 1000 and diagonal_shifts > 300
    # exact zero pivot in the middle row: q1 = (1 - 0) - 1/1 = 0
    d, e = np.ones(3), np.ones(2)
    assert tridiag.count_below(d, e, 0.0) == 1  # eigenvalues 1-sqrt(2), 1, 1+sqrt(2)


def _count_below_copysign(d, e, shift):
    # the earlier copysign guard, with -0.0 pivots taken as +0.0 (q + 0.0)
    piv = np.finfo(float).tiny * max(1.0, float(np.max(e * e)) if e.size else 0.0)
    q = d[0] - shift
    count = int(q < 0.0)
    for di, ei in zip(d[1:], e):
        q = (di - shift) - ei * ei / math.copysign(max(abs(q), piv), q + 0.0)
        count += q < 0.0
    return count


def test_count_below_pivot_guard_on_exact_zero_pivots():
    # exact-zero pivots from a shift equal to d[0], from zero off-diagonals
    # that split the matrix and from -0.0 entries, and nonzero pivots below
    # the floor (d = +-1e-310 next to |e| >= 1, so 0 < |q| < piv): the same
    # count as the copysign guard everywhere, and as a dense count away from
    # the spectrum (eigenvalues -1.53, -0.35, 1.88: a -0.0 pivot counted as
    # non-negative but floored to -piv gave 1)
    assert tridiag.count_below(np.array([-0.0, 1.0, -1.0]), np.array([1.0, 1.0]), 0.0) == 2
    # eigenvalues about -1 and 1: a sub-floor first pivot of either sign
    # is floored with its sign kept and counted only if negative
    for tiny in (1e-310, -1e-310, 5e-324, -5e-324):
        assert tridiag.count_below(np.array([tiny, tiny]), np.array([1.0]), 0.0) == 1
        assert tridiag.count_below(np.array([tiny, 0.0, tiny]), np.array([1.0, 0.0]), 0.0) == (
            1 + (tiny < 0.0))
    for d0, expect in ((1e-310, 0), (-1e-310, 1), (0.0, 0), (-0.0, 0), (-1.0, 1), (2.0, 0)):
        assert tridiag.count_below(np.array([d0]), np.array([]), 0.0) == expect
    rng = np.random.default_rng(12)
    cases = [
        (np.array([0.0, 1.0, -1.0]), np.array([1.0, 1.0]), 0.0),
        (np.array([-0.0, 1.0, -1.0]), np.array([1.0, 1.0]), 0.0),
        (np.array([-0.0, -0.0]), np.array([-0.0]), 0.0),
        (np.array([-0.0, -0.0]), np.array([-0.0]), -0.0),
        (np.array([2.0, 2.0, 3.0]), np.array([0.0, 1.0]), 2.0),
        (np.array([1.0]), np.array([]), 1.0),
        (np.array([1e-310, -1e-310, 1e-310]), np.array([1.0, -2.0]), 0.0),
        (np.array([-1e-310, 3.0, -1e-310]), np.array([0.0, 1.0]), 0.0),
        (np.array([-1e-310]), np.array([]), 0.0),
        (np.array([1e-310]), np.array([]), -0.0),
        (np.array([1e-310, -1e-310, 1e-310]), np.array([1.0, 1.0]), 0.0),
        (np.array([-1e-310, 3.0, -1e-310]), np.array([-2.0, -2.0]), 0.0),
        (np.array([-1e-310, 1e-310]), np.array([0.0]), 0.0),
        (np.array([1e-310, -0.0, -1e-310]), np.array([-0.0, -0.0]), -0.0),
        # a floored pivot that a huge coupling turns into a finite one (unfloored: inf)
        (np.array([-1e-310, 0.0, 1e-8]), np.array([1e150, 1e150]), 0.0),
    ]
    for _ in range(300):
        n = int(rng.integers(1, 40))
        d = rng.integers(-3, 4, n).astype(float)
        e = rng.integers(-2, 3, n - 1).astype(float)
        e[rng.random(n - 1) < 0.3] = 0.0
        d[d == 0.0] *= rng.choice([1.0, -1.0], np.count_nonzero(d == 0.0))
        e[e == 0.0] *= rng.choice([1.0, -1.0], np.count_nonzero(e == 0.0))
        cases.append((d, e, float(d[0])))
        cases.append((d, e, float(rng.choice([0.0, -0.0, 0.5, -1.5]))))
        # a constant coupling of either sign, zeros included
        cases.append((d, np.full(n - 1, float(rng.choice([0.0, -0.0, 1.0, -2.0]))), float(d[0])))
        # sub-floor entries of both signs where a pivot starts (row 0 or
        # after a zero off-diagonal), the other couplings at least 1
        d, e = d.copy(), e.copy()
        sub = rng.random(n) < 0.5
        d[sub] = rng.choice([1e-310, -1e-310], np.count_nonzero(sub))
        e[e != 0.0] = np.copysign(1.0 + np.abs(e[e != 0.0]), e[e != 0.0])
        cases.append((d, e, 0.0))
        cases.append((d, np.full(n - 1, float(rng.choice([1.0, -2.0, 3.0]))), 0.0))
    away = constant_e = 0
    for d, e, shift in cases:
        count = tridiag.count_below(d, e, shift)
        # a Python int, also where a pivot was floored
        assert type(count) is int and count == _count_below_copysign(d, e, shift), (d, e, shift)
        if np.all(e == e[:1]):
            # the same count from the loop that reads a Constant coupling once
            same = tridiag.count_below(d, tridiag.Constant(e[0] if e.size else 1.0, e.size), shift)
            assert type(same) is int and same == count, (d, e, shift)
            constant_e += 1
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        lam = np.linalg.eigvalsh(T)
        if np.min(np.abs(lam - shift)) > 1e-8 * max(1.0, np.max(np.abs(lam))):
            assert count == np.count_nonzero(lam < shift), (d, e, shift)
            away += 1
    assert away > 200 and constant_e > 300


_C = tridiag.Constant


@pytest.mark.parametrize("call, message", [
    # lengths that disagree: a zip would cut the longer diagonal short
    (lambda: tridiag.count_below(np.full(5, -1.0), np.full(2, 0.1), 0.0), "off-diagonal"),
    (lambda: tridiag.count_below(_C(-1.0, 5), _C(0.1, 2), 0.0), "off-diagonal"),
    # an empty matrix, and NaN or infinite shifts and entries
    (lambda: tridiag.count_below(_C(-1.0, 0), _C(0.0, 0), 0.0), "n >= 1"),
    (lambda: tridiag.count_below(np.array([]), np.array([]), 0.0), "n >= 1"),
    (lambda: tridiag.count_below(np.ones(3), np.ones(2), math.nan), "finite"),
    (lambda: tridiag.count_below(_C(1.0, 3), _C(1.0, 2), math.inf), "finite"),
    (lambda: tridiag.count_below(np.array([1.0, math.nan, 1.0]), np.ones(2), 0.0), "finite"),
    (lambda: tridiag.count_below(_C(1.0, 3), _C(-math.inf, 2), 0.0), "finite"),
    # a mass whose lengths differ from the matrix's (numpy would broadcast a length-1 one)
    (lambda: tridiag.count_below_pencil(np.ones(5), np.full(4, 0.1), np.ones(1), np.zeros(1),
                                        2.0), "mass"),
    (lambda: tridiag.count_below_pencil(np.ones(5), np.full(4, 0.1), np.ones(3), np.zeros(1),
                                        2.0), "mass"),
    (lambda: tridiag.count_below_pencil(_C(2.0, 4), _C(-1.0, 3), _C(1.0, 4), _C(0.1, 2),
                                        1.0), "mass"),
    (lambda: tridiag.count_below_pencil(_C(2.0, 4), _C(-1.0, 3), _C(1.0, 4), _C(0.1, 3),
                                        math.nan), "finite"),
    (lambda: tridiag.count_below_pencil(np.ones(4), np.zeros(3), np.full(4, math.inf),
                                        np.zeros(3), 0.5), "finite"),
    (lambda: tridiag.smallest_eigenvalues(np.ones(5), np.ones(2), 2), "off-diagonal"),
    (lambda: tridiag.smallest_eigenvalues(np.array([1.0, math.inf]), np.ones(1), 1), "finite"),
], ids=["arrays-short-e", "constants-short-e", "empty-constants", "empty-arrays", "nan-shift",
        "inf-shift", "nan-diagonal", "inf-constant-coupling", "pencil-mass-length-1",
        "pencil-mass-length-3", "pencil-constant-mass-short", "pencil-nan-shift",
        "pencil-inf-mass", "eigenvalues-short-e", "eigenvalues-inf-diagonal"])
def test_malformed_tridiagonal_input_is_invalid_input(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call()


@pytest.mark.parametrize("N, p", [(11, 7.0), (15, 3.0)])
def test_smallest_eigenvalues_match_high_precision_sturm_counts(N, p):
    # congruence by diag(r^(N'-2)) grades the stability matrix over 1e+-39
    # on [1e-3, 1e3]; LAPACK bisection at its default tolerance loses the
    # low end of such matrices by orders of magnitude, the pinned one must not
    pytest.importorskip("mpmath")
    params = ProblemParams(N, 0.0, 0.0, p)
    v = profile_on(params, 1e-3, 1e3, 3000)
    asm = assemble_forms(params, node_potential(params, v, 1e-3, 1e3, 2000), 1e-3, 1e3, 2000)
    weight = log_nodes(1e-3, 1e3, 2000).points[1:-1] ** (N - 2.0)
    d = asm.diag * weight
    e = asm.off * np.sqrt(weight[:-1] * weight[1:])
    for j, lam in enumerate(tridiag.smallest_eigenvalues(d, e, 4)):
        gap = 1e-9 * abs(lam)
        assert _mp_count_below(d, e, lam - gap) == j
        assert _mp_count_below(d, e, lam + gap) == j + 1


@pytest.mark.parametrize("k", [0, 6])
def test_smallest_eigenvalues_needs_1_to_n_of_them(k):
    with pytest.raises(NumericalError, match=f"cannot extract {k} eigenvalues from order 5"):
        tridiag.smallest_eigenvalues(np.full(5, 2.0), np.full(4, -1.0), k)


def test_radial_morse_index_needs_a_below_b():
    with pytest.raises(InvalidParameterError, match="need 0 < a < b"):
        radial_morse_index(ProblemParams(11, 0.0, 0.0, 3.0), 1.0, 1.0, 1.0, 100)


def test_eigenvector_matches_q_value():
    # q_value on an eigenvector-interpolated test function reproduces
    # eigenvalue * mass norm to discretization accuracy
    N, p = 11, 3.0
    params = ProblemParams(N, 0.0, 0.0, p)
    a, b, n = 1e-2, 1e2, 3000
    v = profile_on(params, a, b, n + 500)
    nodes = log_nodes(a, b, n)
    asm = assemble_forms(params, node_potential(params, v, a, b, n), a, b, n)
    eigs, vecs = eigh_tridiagonal(
        asm.diag, asm.off, select="i", select_range=(0, 0), lapack_driver="stebz",
        tol=tridiag.STEBZ_TOL,
    )
    lam, y = eigs[0], vecs[:, 0]
    # undo the Emden-Fowler scaling: the eigenvector holds phi = r^((N'-2)/2) psi
    values = np.zeros(n + 2)
    values[1:-1] = y * nodes.points[1:-1] ** (-(N - 2.0) / 2.0)
    psi = TestFunction(nodes, values)
    q = q_value(params, v, psi)
    mass = asm.h * float(np.sum(y * y))
    assert q == pytest.approx(lam * mass, rel=1e-2)


def test_q_value_of_an_eigenvector_is_its_eigenvalue_times_its_mass():
    # with v sampled on the assembly nodes the form value is h phi^T T phi
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = ProblemParams(int(rng.integers(3, 60)), 0.0, 0.0, rng.uniform(1.2, 6.0))
        a, b, n = 10.0 ** rng.uniform(-3.0, -1.0), 10.0 ** rng.uniform(1.0, 3.0), 1000
        nodes = log_nodes(a, b, n)
        v = wiggly_profile(rng, params, nodes)
        asm = assemble_forms(params, node_potential(params, v, a, b, n), a, b, n)
        eigs, vecs = eigh_tridiagonal(
            asm.diag, asm.off, select="i", select_range=(0, 0), lapack_driver="stebz",
            tol=tridiag.STEBZ_TOL,
        )
        lam, y = eigs[0], vecs[:, 0]
        values = np.zeros(n + 2)
        values[1:-1] = y * nodes.points[1:-1] ** (-(params.n_prime - 2.0) / 2.0)
        q = q_value(params, v, TestFunction(nodes, values))
        assert q == pytest.approx(lam * asm.h * float(np.sum(y * y)), rel=1e-10)


def test_q_value_basics():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-2, 1e2, 4000)
    psi = bump_test_function(0.1, 10.0, 2001)
    zero = TestFunction(psi.grid, np.zeros(psi.grid.n))
    assert q_value(params, v, zero) == 0.0
    q1 = q_value(params, v, psi)
    q2 = q_value(params, v, TestFunction(psi.grid, 2.0 * psi.values))
    assert q2 == pytest.approx(4.0 * q1, rel=1e-12)


def test_q_value_uses_the_level_of_the_assembled_matrix():
    # At N' = 14.5563, (N'-2)**2/4 (the assembly's and hardy_constant's level)
    # and half * half differ in the last bit, and so do the two form values
    params = ProblemParams(3, 11.5563, 11.5563, 3.0)
    half = (params.n_prime - 2.0) / 2.0
    level = hardy_constant(params.n_prime)
    assert level != half * half
    psi = bump_test_function(0.1, 10.0, 41)
    zero = RadialFunction(psi.grid, np.zeros(psi.grid.n))
    t, phi = psi.grid.log_points, psi.times_power(half)
    kinetic = float(np.sum(np.diff(phi) ** 2 / np.diff(t)))
    value = q_value(params, zero, psi)
    assert value == kinetic + float(np.trapezoid(level * phi**2, t))
    assert value != kinetic + float(np.trapezoid(half * half * phi**2, t))


def test_q_value_nonnegative_for_stable_profile():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-3, 1e3, 6000)
    t_lo, t_hi = math.log(1e-2), math.log(1e2)
    grid = RadialGrid.logspaced(1e-2, 1e2, 4001)
    rng = np.random.default_rng(21)
    for _ in range(5):
        c = rng.uniform(0.3, 0.7)
        w = rng.uniform(0.1, 0.9 * min(c, 1.0 - c))
        t0 = t_lo + (t_hi - t_lo) * (c - w)
        t1 = t_lo + (t_hi - t_lo) * (c + w)
        psi = TestFunction(grid, bump(grid.log_points, t0, t1))
        norm = np.trapezoid(
            grid.points ** (11.0 - 3.0) * psi.values**2 * grid.points,
            grid.log_points,
        )
        assert q_value(params, v, psi) >= -1e-8 * norm


def test_q_value_support_mismatch():
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    v = profile_on(params, 1.0, 10.0, 200)
    psi = bump_test_function(0.1, 100.0, 301)
    with pytest.raises(InvalidParameterError):
        q_value(params, v, psi)


def test_out_of_range_form_value_is_a_numerical_error():
    # N = 100 on [1e-6, 1e6]: an O(1) bump has a form value near 1e588 and
    # |v| = 1e200 at p = 3 a potential near 1e400, while bump * r^-49 has
    # phi = bump, whose value is finite although r^49 psi^2 would overflow
    params = ProblemParams(100, 0.0, 0.0, 2.0)
    grid = RadialGrid.logspaced(1e-6, 1e6, 2001)
    zero = RadialFunction(grid, np.zeros(grid.n))
    shape = bump(grid.log_points, grid.log_points[0], grid.log_points[-1])
    with pytest.raises(NumericalError, match="float range"):
        q_value(params, zero, TestFunction(grid, shape))
    with pytest.raises(NumericalError, match="float range"):
        q_value_schrodinger(SchrodingerParams(100, 0.0, 0.0, 2.0), zero, TestFunction(grid, shape))
    # N' = 1e308: power * log r overflows, also where psi = 0
    with pytest.raises(NumericalError, match="float range"):
        q_value(ProblemParams(3, 1e308, 1e308, 2.0), zero, TestFunction(grid, shape))
    huge = RadialFunction(grid, np.full(grid.n, 1e200))
    with pytest.raises(NumericalError, match="potential"):
        spectrum_of(ProblemParams(100, 0.0, 0.0, 3.0), huge, 1e-3, 1e3, 100)
    value = q_value(params, zero, TestFunction(grid, shape * grid.points**-49.0))
    t = grid.log_points
    kinetic = float(np.sum(np.diff(shape) ** 2 / np.diff(t)))
    assert value == pytest.approx(kinetic + 49.0**2 * np.trapezoid(shape**2, t), rel=1e-12)


def test_shoot_profile_spectrum_matches_a_dense_reference(capsys):
    # a shoot:<kappa> spectrum shoots on the assembly nodes, so P is
    # the formula's own value there; its low eigenvalues match those of P
    # interpolated from a profile sampled at 8192 points per decade
    rng = np.random.default_rng(61)
    for _ in range(8):
        N, tau, kappa = int(rng.integers(5, 41)), rng.uniform(-0.5, 1.0), rng.uniform(0.5, 2.0)
        sobolev = ProblemParams(N, 0.0, tau, 2.0).sobolev
        params = ProblemParams(N, 0.0, tau, sobolev * (1.0 + rng.uniform(0.02, 1.0)))
        a, b = 10.0 ** rng.uniform(-1.5, -0.5), 10.0 ** rng.uniform(2.0, 3.0)
        n = int(rng.integers(500, 2001))
        argv = ["spectrum", "--N", str(N), "--theta", "0", "--l", repr(tau), "--p",
                repr(params.p), "--profile", f"shoot:{kappa!r}", "--a", repr(a),
                "--b", repr(b), "--n", str(n)]
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)["results"]
        dense = shoot(params, kappa, r_max=2.0 * b, points_per_decade=8192).solution
        ref = spectrum_of(params, dense, a, b, n)
        assert got["negative_count"] == ref.negative_count
        np.testing.assert_allclose(got["eigenvalues"][:8], ref.eigenvalues[:8], rtol=0.0,
                                   atol=1e-5)


@pytest.mark.parametrize("kappa", [None, 1.0], ids=["v_infinity", "shoot"])
def test_profile_spectrum_is_the_report_of_its_potential(kappa, monkeypatch):
    # bit for bit: f(p) about v_infinity, math.exp on the shot's state otherwise
    # (np.exp differs in the last bit on some nodes)
    params, a, b, n = ProblemParams(11, 0.0, 0.0, 3.0), 1e-2, 1e3, 600
    if kappa is None:
        P = f_eval(params.p, params.n_prime, params.tau)
    else:
        y = shoot(params, kappa, r_max=b, grid=log_nodes(a, b, n)).log_scaled.values
        P = [params.p * math.exp((params.p - 1.0) * x) for x in y[1:-1].tolist()]
    seen = []
    monkeypatch.setattr(stability, "radial_morse_index",
                        lambda *args: seen.append(args[1]) or radial_morse_index(*args))
    got, want = profile_spectrum(params, a, b, n, kappa), radial_morse_index(params, P, a, b, n)
    assert np.asarray(seen[0]).tobytes() == np.asarray(P).tobytes()
    assert got.negative_count > 0
    assert np.asarray(got.eigenvalues).tobytes() == np.asarray(want.eigenvalues).tobytes()
    assert {**got._asdict(), "eigenvalues": None} == {**want._asdict(), "eigenvalues": None}


def test_shot_spectrum_reads_only_the_shot_state(monkeypatch):
    # the spectrum takes y from the shot's integration: neither shoot, its tail
    # fit and classification, nor c0 is read, and the report is the same
    params, a, b, n = ProblemParams(11, 0.0, 0.0, 7.0), 1e-1, 1e3, 400
    want = profile_spectrum(params, a, b, n, kappa=1.0)

    def unread(*args, **kwargs):
        raise AssertionError("a shot spectrum read the shot's report")

    for name in ("shoot", "asymptotic_constant", "classify_decay"):
        monkeypatch.setattr(radial_ode, name, unread)
    monkeypatch.setattr(ProblemParams, "c0", property(unread))
    got = profile_spectrum(params, a, b, n, kappa=1.0)
    assert np.asarray(got.eigenvalues).tobytes() == np.asarray(want.eigenvalues).tobytes()
    assert {**got._asdict(), "eigenvalues": None} == {**want._asdict(), "eigenvalues": None}


def test_shot_spectrum_near_the_origin_where_the_tail_fit_fails():
    # m = 30: w = r^m v is 1e-600 to 1e-360 on [1e-20, 1e-12], so the shot's own
    # tail fit fails there; P is about 0, so the spectrum starts just above
    # the level (N'-2)^2/4 = 1332.25, by at most (pi/L)^2
    params, a, b = ProblemParams(75, 0.0, 0.0, 1.0666666666666667), 1e-20, 1e-12
    with pytest.raises(NumericalError, match="not a normal positive float"):
        shoot(params, 1.0, r_max=b, grid=log_nodes(a, b, 400))
    report = profile_spectrum(params, a, b, 400, kappa=1.0)
    assert report.negative_count == 0
    assert 1332.25 < report.min_eigenvalue <= 1332.25 + (math.pi / math.log(b / a)) ** 2


def test_shot_spectrum_where_c0_leaves_the_float_range():
    # c0 = (m (N'-2-m))^(1/(p-1)) with p - 1 = 0.005 overflows, but the
    # state y and P = p e^((p-1) y) do not
    params = ProblemParams(100, 0.0, -1.9, 1.005)
    with pytest.raises(NumericalError, match="c0 leaves the float range"):
        params.c0
    report = profile_spectrum(params, 1e-3, 1e3, 2000, kappa=1.0)
    assert report.negative_count == 0 and math.isfinite(report.min_eigenvalue)


@pytest.mark.parametrize("kappa", [None, 1.0], ids=["v_infinity", "shoot"])
@pytest.mark.parametrize(("a", "b", "n", "message"), [
    (1e3, 1e-3, 100, "need 0 < a < b"),
    (1e-3, 1e3, 4, "need at least 8 interior nodes"),
], ids=["a-above-b", "n-below-8"])
def test_profile_spectrum_checks_the_annulus_before_the_profile(a, b, n, message, kappa):
    params = ProblemParams(11, 0.0, 0.0, 1.01)  # below Serrin: no singular or shot profile
    with pytest.raises(InvalidParameterError, match="Serrin|Sobolev"):
        profile_spectrum(params, 1e-3, 1e3, 100, kappa)
    with pytest.raises(InvalidParameterError, match=message):
        profile_spectrum(params, a, b, n, kappa)


@pytest.mark.parametrize(("params", "a", "b", "count"), [
    (ProblemParams(11, 0.0, 0.0, 3.0), 1e-3, 1e5, 6),
    # w = e^y is about e^-787 at a, below the float range, while v is about 1
    (ProblemParams(100, 0.0, -1.9, 1.012), 1e-41, 1e3, 0),
], ids=["n11", "w_underflows_at_a"])
def test_shoot_spectrum_potential_from_w_matches_potential_of_v(params, a, b, count, capsys):
    # profile_spectrum takes P = p w^(p-1) = p e^((p-1) y) from the shot's state
    # y = log(r^m v), which is p r^(2+tau) v^(p-1) since (p-1) m = 2+tau: it
    # matches ``potential`` of v on the nodes, and the count matches that potential's
    n = 3000
    res = shoot(params, 1.0, r_max=b, grid=log_nodes(a, b, n))
    from_w = params.p * np.exp((params.p - 1.0) * res.log_scaled.values[1:-1])
    from_v = node_potential(params, res.solution, a, b, n)
    np.testing.assert_allclose(from_w, from_v, rtol=1e-14, atol=0.0)
    argv = ["spectrum", "--N", str(params.N), "--theta", "0", "--l", repr(params.l), "--p",
            repr(params.p), "--profile", "shoot:1", "--a", repr(a), "--b", repr(b),
            "--n", str(n)]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)["results"]
    ref = radial_morse_index(params, from_v, a, b, n)
    assert got["negative_count"] == ref.negative_count == count
    np.testing.assert_allclose(got["eigenvalues"][:8], ref.eigenvalues[:8], rtol=1e-14, atol=0.0)


def test_hardy_rayleigh_min_bounds():
    # always above (N'-2)^2/4 and approaching it as the annulus widens
    vals = []
    for ba in (1e2, 1e4, 1e6):
        val = hardy_rayleigh_min(0.0, 5, 1.0, ba, 1500)
        assert val >= 2.25
        vals.append(val)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 2.25 * 1.05
    assert hardy_rayleigh_min(0.0, 4, 1e-2, 1e2, 1000) >= 1.0


@pytest.mark.parametrize(
    "N, a, b, n",
    [
        (5, 1.0, 1e4, 3000),
        (4, 1e-2, 1e2, 1000),
        (11, 1e-3, 1e3, 1000),
        (11, 1.0, 1e6, 1000),
        (15, 1e-2, 1e2, 1000),
    ],
)
def test_hardy_rayleigh_min_matches_closed_form(N, a, b, n):
    # P1 elements in t = log r: the discrete minimum of the constant
    # coefficient pencil is known exactly and sits above the continuum one
    L = math.log(b / a)
    h = L / (n + 1)
    c = math.cos(math.pi * h / L)
    level = hardy_constant(float(N))
    val = hardy_rayleigh_min(0.0, N, a, b, n)
    assert val == pytest.approx(level + 6.0 / h**2 * (1.0 - c) / (2.0 + c), rel=1e-9)
    assert val >= level + (math.pi / L) ** 2


def _hardy_pencil(n_prime, a, b, n):
    # the P1 pencil of hardy_rayleigh_min in t = log r, as dense matrices
    h = math.log(b / a) / (n + 1)
    level = hardy_constant(n_prime)
    mass = (h / 6.0) * (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
    stiff = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h + level * mass
    band = 64.0 * np.finfo(float).eps * (1.0 / h**2 + level)
    return stiff, mass, band


def test_hardy_rayleigh_min_matches_dense_generalized_eigensolver():
    # seeded draws over N' in [2.05, 100.5], b/a in [1.5, 1e24], n in
    # [8, 400]: LAPACK's dense generalized solver agrees within the band
    # that the two inertia counts certify
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_prime = rng.uniform(2.05, 100.5)
        N = max(2, math.floor(n_prime))
        ratio = 10.0 ** rng.uniform(math.log10(1.5), 24.0)
        a = 10.0 ** rng.uniform(-6.0, 6.0)
        n = int(rng.integers(8, 401))
        stiff, mass, band = _hardy_pencil(n_prime, a, a * ratio, n)
        dense = eigh(stiff, mass, eigvals_only=True, subset_by_index=[0, 0])[0]
        value = hardy_rayleigh_min(n_prime - N, N, a, a * ratio, n)
        assert abs(dense - value) <= band, (n_prime, ratio, n)


def test_count_below_pencil_matches_a_dense_generalized_count():
    # variable-coefficient SPD pencils, some split by exact-zero
    # off-diagonals: the pencil count is the dense count of eigh(A, M) and
    # the standard count of A - shift*M, at shifts 1e-8 or more relative
    # away from every eigenvalue
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(2, 80))
        h = rng.uniform(0.5, 2.0, n + 1) * 10.0 ** rng.uniform(-3.0, 1.0)
        k = rng.uniform(0.1, 10.0, n + 1) * 10.0 ** rng.uniform(-2.0, 2.0)
        md = (h[:-1] + h[1:]) / 3.0
        me = h[1:-1] / 6.0
        ad = k[:-1] / h[:-1] + k[1:] / h[1:] + rng.uniform(-1.0, 1.0) * md
        ae = -k[1:-1] / h[1:-1]
        if trial % 3 == 0:
            split = rng.random(n - 1) < 0.3
            ae[split] = 0.0
            me[split] = 0.0
        A = np.diag(ad) + np.diag(ae, 1) + np.diag(ae, -1)
        M = np.diag(md) + np.diag(me, 1) + np.diag(me, -1)
        lam = eigh(A, M, eigvals_only=True)
        shifts = [*(0.5 * (lam[:-1] + lam[1:]))[:5], *(lam[:3] * (1.0 + 1e-6)),
                  *(lam[:3] * (1.0 - 1e-6)), *rng.uniform(lam[0] - 1.0, lam[-1] + 1.0, 4)]
        for shift in shifts:
            if np.min(np.abs(lam - shift)) < 1e-8 * np.max(np.abs(lam)):
                continue
            count = tridiag.count_below_pencil(ad, ae, md, me, float(shift))
            assert count == np.count_nonzero(lam < shift), (trial, shift)
            assert count == tridiag.count_below(ad - shift * md, ae - shift * me, 0.0)
            checked += 1
    assert checked > 500


def _toeplitz_shifts(lam, rng, k):
    # closed-form eigenvalues (all of them on a small matrix; both ends and k
    # more on a large one) and one ulp to either side
    picks = lam if lam.size <= 32 else np.concatenate([lam[:2], lam[-2:], rng.choice(lam, k)])
    return np.concatenate([picks, np.nextafter(picks, -np.inf), np.nextafter(picks, np.inf)])


def test_constant_diagonals_count_as_their_arrays():
    # a tridiag.Constant is read as its value repeated: every standard and
    # pencil count equals that of the same matrix as np.full arrays, at each
    # closed-form eigenvalue d + 2 e cos(j pi/(n+1)) (the pencil's is its
    # ratio for A over M) and one ulp to either side, and at exact-zero
    # pivots (d = 0, or a shift equal to d)
    rng = np.random.default_rng(26)
    Constant = tridiag.Constant
    cases = [(0.0, 1.0, 8), (-0.0, -1.0, 9), (0.0, 0.5, 20000), (2.0, -1.0, 20000)]
    for _ in range(12):
        d = float(rng.choice([0.0, rng.uniform(-10.0, 10.0)]))
        n = round(10.0 ** rng.uniform(math.log10(8), math.log10(20000)))
        cases.append((d, rng.uniform(-5.0, 5.0), n))
    checked = 0
    for d, e, n in cases:
        x = np.arange(1, n + 1) * (math.pi / (n + 1))
        full = np.full(n, d), np.full(n - 1, e)
        const = Constant(d, n), Constant(e, n - 1)
        assert (len(const[0]), len(const[1])) == (n, n - 1)
        lam = d + 2.0 * e * np.cos(x)
        for shift in [*_toeplitz_shifts(lam, rng, 8).tolist(), d, 0.0, -0.0]:
            count = tridiag.count_below(*const, shift)
            assert type(count) is int and count == tridiag.count_below(*full, shift), (d, e, n)
            # an array diagonal with a Constant coupling, as a shot's form is
            assert tridiag.count_below(full[0], const[1], shift) == count, (d, e, n, shift)
            checked += 1
        # an SPD mass m_d > 2 |m_e| shares the sine eigenvectors
        md = rng.uniform(1.0, 4.0)
        me = rng.uniform(-0.49, 0.49) * md
        mass_full = np.full(n, md), np.full(n - 1, me)
        mass = Constant(md, n), Constant(me, n - 1)
        ratio = lam / (md + 2.0 * me * np.cos(x))
        for shift in _toeplitz_shifts(ratio, rng, 4).tolist():
            count = tridiag.count_below_pencil(*const, *mass, shift)
            assert count == tridiag.count_below_pencil(*full, *mass_full, shift), (d, e, n, shift)
            checked += 1
    assert checked > 1000


def test_hardy_rayleigh_min_is_the_closed_form_it_certifies():
    # the certificate counts on Constant diagonals and returns the closed
    # form level + (12/h^2) s/(3 - 2s) itself, to the bit
    rng = np.random.default_rng(27)
    for _ in range(200):
        n_prime = rng.uniform(2.05, 100.5)
        N = max(2, math.floor(n_prime))
        a = 10.0 ** rng.uniform(-6.0, 6.0)
        b = a * 10.0 ** rng.uniform(math.log10(1.5), 24.0)
        n = round(10.0 ** rng.uniform(math.log10(8), math.log10(20000)))
        h = math.log(b / a) / (n + 1)
        s = math.sin(math.pi / (2.0 * (n + 1))) ** 2
        value = hardy_constant(N + (n_prime - N)) + 12.0 / h**2 * s / (3.0 - 2.0 * s)
        assert hardy_rayleigh_min(n_prime - N, N, a, b, n) == value


@pytest.mark.parametrize("wrong", [0, 1, 2], ids=["never", "always-one", "two"])
def test_hardy_rayleigh_min_rejects_a_failed_certificate(wrong, monkeypatch):
    # the closed form is returned only if the pencil inertia brackets it
    monkeypatch.setattr(tridiag, "count_below_pencil", lambda *args: wrong)
    with pytest.raises(NumericalError, match="certificate"):
        hardy_rayleigh_min(0.0, 5, 1.0, 1e4, 100)


@pytest.mark.parametrize("call, wrong", [(0, 1), (0, -1), (1, 1), (1, -1)],
                         ids=["count-up", "count-down", "bracket-up", "bracket-down"])
def test_radial_morse_index_rejects_a_failed_certificate(call, wrong, monkeypatch, capsys):
    # the closed form is returned only if the inertia counts agree with it:
    # off by one in the count at -tol or in the one just above the k-th value
    count_below, calls = tridiag.count_below, []

    def off_by(d, e, shift):
        calls.append(shift)
        return count_below(d, e, shift) + (wrong if len(calls) - 1 == call else 0)

    monkeypatch.setattr(tridiag, "count_below", off_by)
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    with pytest.raises(NumericalError, match="certificate"):
        radial_morse_index(params, f_eval(3.0, 11.0, 0.0), 1e-2, 1e2, 100)
    calls.clear()
    argv = ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3", "--n", "100"]
    assert main(argv) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "numerical_failure" and "certificate" in error["message"]


def test_radial_morse_index_rejects_a_spectrum_short_of_its_count(monkeypatch):
    # a potential on the nodes takes its eigenvalues from LAPACK bisection on
    # the counted matrix: a list one negative eigenvalue short is refused
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    P = np.full(100, f_eval(3.0, 11.0, 0.0))
    assert radial_morse_index(params, P, 1e-2, 1e2, 100).negative_count >= 1
    smallest = tridiag.smallest_eigenvalues
    monkeypatch.setattr(tridiag, "smallest_eigenvalues", lambda d, e, k: smallest(d, e, k)[1:])
    with pytest.raises(NumericalError, match="inertia count disagrees"):
        radial_morse_index(params, P, 1e-2, 1e2, 100)


def test_hardy_rayleigh_matches_liouville_value():
    val = hardy_rayleigh_min(0.0, 5, 1.0, 1e4, 3000)
    L = math.log(1e4)
    assert val == pytest.approx(2.25 + (math.pi / L) ** 2, rel=1e-4)


def test_hardy_consistency_with_spectrum_sign():
    # min eigenvalue of the singular-profile form has the sign of
    # hardy level - f(p) up to discretization
    for p, stable in ((7.0, True), (3.0, False)):
        params = ProblemParams(11, 0.0, 0.0, p)
        v = profile_on(params, 1e-2, 1e2, 3000)
        rep = spectrum_of(params, v, 1e-2, 1e2, 1500)
        assert (rep.min_eigenvalue > -rep.negative_tol) == stable


def test_invariance_kelvin_dual_sigma():
    params = ProblemParams(5, 0.5, 0.7, 3.0)
    grid = RadialGrid.logspaced(0.05, 20.0, 40001)
    v = RadialFunction(grid, 1.3 * grid.points**-0.8 * (1.0 + 0.3 * np.sin(grid.log_points)))
    psi = bump_test_function(0.1, 10.0, 32001)
    for kind in ("kelvin", "dual", "sigma"):
        qs, qi = invariance_check(kind, params, v, psi)
        assert abs(qs - qi) / abs(qs) < 1e-6, kind


@pytest.mark.parametrize("kind", ["sigma_inverse", TransformKind.SIGMA_INVERSE, "bogus"],
                         ids=["sigma_inverse", "sigma_inverse-enum", "bogus"])
def test_invariance_check_rejects_a_kind_without_a_form_map(kind):
    # sigma_inverse maps parameters only, so it has no form map; an unknown kind is not
    # TransformKind's ValueError
    params = ProblemParams(5, 0.5, 0.7, 3.0)
    psi = bump_test_function(0.1, 10.0, 65)
    v = RadialFunction(psi.grid, psi.grid.points**-0.8)
    with pytest.raises(InvalidParameterError, match="unsupported transform kind for invariance"):
        invariance_check(kind, params, v, psi)


def test_invariance_sigma_identity_when_theta_zero():
    params = ProblemParams(5, 0.0, 1.0, 3.0)
    v = profile_on(params, 0.05, 20.0, 4001)
    psi = bump_test_function(0.1, 10.0, 2001)
    qs, qi = invariance_check("sigma", params, v, psi)
    assert qs == pytest.approx(qi, rel=1e-13)


def test_invariance_kelvin_on_singular_solution():
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    v = profile_on(params, 0.05, 20.0, 30001)
    psi = bump_test_function(0.1, 10.0, 24001)
    qs, qi = invariance_check("kelvin", params, v, psi)
    assert abs(qs - qi) / abs(qs) < 1e-6


def test_sigma_invariance_on_a_far_annulus():
    # psi = 1e-300 bump on [1e100, 1e200]: r^(-sigma) = r^-2 alone underflows
    # there, yet both forms are finite and equal, with no RuntimeWarning
    params = ProblemParams(2, 4.0, 4.0, 3.0)
    psi = bump_test_function(1e100, 1e200, 200)
    psi = TestFunction(psi.grid, 1e-300 * psi.values)
    for v in (RadialFunction(psi.grid, psi.grid.points**-0.9),
              RadialFunction(psi.grid, np.zeros(psi.grid.n))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qs, qi = invariance_check("sigma", params, v, psi)
        assert math.isfinite(qs) and qi == pytest.approx(qs, rel=1e-11)


def test_test_function_vanishes_at_both_ends_through_the_transforms():
    psi = bump_test_function(0.1, 10.0, 65)
    nonzero_end, nan = psi.values.copy(), psi.values.copy()
    nonzero_end[-1], nan[32] = 1e-300, math.nan
    for bad in (nonzero_end, nan, psi.values[:-1]):
        with pytest.raises(InvalidParameterError):
            TestFunction(psi.grid, bad)
    params = ProblemParams(5, 0.5, 0.7, 3.0)
    for image in (kelvin_apply(psi, params), dual_apply(psi), sigma_apply(psi, params)):
        assert type(image) is TestFunction
        assert image.values[0] == 0.0 and image.values[-1] == 0.0


def test_kelvin_and_dual_image_spectra_match_the_source():
    # both maps send (P, phi) to (P(-t), phi(-t)) on the reflected nodes, so
    # the image spectrum on [1/b, 1/a] is the source spectrum to rounding,
    # also where the profile lies between the nodes
    rng = np.random.default_rng(808)
    for _ in range(30):
        N, theta, tau = int(rng.integers(3, 41)), rng.uniform(-0.5, 1.0), rng.uniform(-1.0, 2.0)
        params = ProblemParams(N, theta, theta + tau, rng.uniform(1.2, 6.0))
        decades, centre = rng.uniform(1.0, 4.0), rng.uniform(-1.0, 1.0)
        a, b = 10.0 ** (centre - decades / 2), 10.0 ** (centre + decades / 2)
        n = int(rng.integers(100, 800))
        grid = RadialGrid.logspaced(a / 1.01, b * 1.01, int(rng.integers(50, 3000)))
        v = wiggly_profile(rng, params, grid)
        source = spectrum_of(params, v, a, b, n)
        for image, v_image in (
            (kelvin_params(params), kelvin_apply(v, params)),
            (dual_params(params), dual_apply(v)),
        ):
            rep = spectrum_of(image, v_image, 1.0 / b, 1.0 / a, n)
            assert rep.negative_count == source.negative_count
            np.testing.assert_allclose(rep.eigenvalues[:12], source.eigenvalues[:12], rtol=1e-10)


def test_transform_invariance_to_rounding_on_coarse_grids():
    # coarse draws up to N' = 100, where r-form quadratures differ at
    # O(h^2): the t-form values agree to rounding, with no RuntimeWarning
    # whatever the pytest warning filters.  The error is measured against
    # the form's own scale, its value at P = 0, since the kinetic, level and
    # potential parts may cancel to a small q (300x in some further draws)
    rng = np.random.default_rng(2027)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(100):
            N = int(rng.integers(3, 101))
            theta, tau = rng.uniform(-0.5, 1.5), rng.uniform(-1.0, 2.0)
            params = ProblemParams(N, theta, theta + tau, rng.uniform(1.2, 6.0))
            decades, centre = rng.uniform(0.5, 4.0), rng.uniform(-0.5, 0.5)
            a, b = 10.0 ** (centre - decades / 2), 10.0 ** (centre + decades / 2)
            vg = RadialGrid.logspaced(a / 1.5, b * 1.5, int(rng.integers(20, 3001)))
            v = wiggly_profile(rng, params, vg)
            pg = RadialGrid.logspaced(a, b, int(rng.integers(20, 3001)))
            psi = TestFunction(pg, bump(pg.log_points, math.log(a), math.log(b)))
            scale = q_value(params, RadialFunction(vg, np.zeros(vg.n)), psi)
            for kind in ("kelvin", "dual", "sigma"):
                qs, qi = invariance_check(kind, params, v, psi)
                assert abs(qs - qi) <= 1e-11 * max(abs(qs), scale), (kind, N, qs, qi)


def test_stable_estimate_check_basics():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-3, 1e3, 6000)
    psi = bump_test_function(0.1, 10.0, 2001)
    zero = TestFunction(psi.grid, np.zeros(psi.grid.n))
    assert stable_estimate_check(params, v, 1.5, 4, zero) == (0.0, 0.0)
    lhs, rhs = stable_estimate_check(params, v, 1.5, 4, psi)
    assert lhs > 0.0 and rhs > 0.0
    # gamma at its open upper limit is rejected
    from emdenlab import gamma_of_p

    with pytest.raises(InvalidParameterError):
        stable_estimate_check(params, v, gamma_of_p(7.0), 4, psi)
    with pytest.raises(InvalidParameterError):
        stable_estimate_check(params, v, 1.5, 1, psi)


def test_stable_estimate_bounded_ratio_across_scales():
    # the ratio lhs / rhs stays bounded as the bump support dilates
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-4, 1e4, 8000)
    gamma, m = 1.5, 4
    ratios = []
    for scale in (0.1, 0.3, 1.0):
        a, b = scale, scale * 10.0
        grid = RadialGrid.logspaced(a, b, 3001)
        psi = TestFunction(grid, bump(grid.log_points, math.log(a), math.log(b)))
        lhs, rhs = stable_estimate_check(params, v, gamma, m, psi)
        ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 50.0


def _stable_estimate_in_r(params, v, gamma, m, psi, dtype):
    """The estimate's integrals with the r^(N-1), r^theta, r^l weights formed
    as powers of r in ``dtype``: the oracle where that dtype has the range."""
    from emdenlab.stability import _log_derivative, _log_second_derivative

    N, theta, l, p = (dtype(x) for x in (params.N, params.theta, params.l, params.p))
    r = psi.grid.points.astype(dtype)
    t, vv, ps = np.log(r), v.values.astype(dtype), psi.values.astype(dtype)
    g_prime = _log_derivative(np.abs(vv) ** ((gamma - 1) / 2) * vv, t) / r
    lhs = r**N * (r**theta * g_prime**2 + r**l * np.abs(vv) ** (gamma + p)) * ps ** (2 * m)
    psi_prime = _log_derivative(ps, t) / r
    laplacian = (_log_second_derivative(ps, t) + (N - 2) * _log_derivative(ps, t)) / r**2
    kernel = (psi_prime**2 + np.abs(ps) * np.abs(laplacian) + np.abs(ps) * np.abs(psi_prime) / r
              ) ** ((p + gamma) / (p - 1))
    rhs = r**N * r ** ((theta * (gamma + p) - l * (gamma + 1)) / (p - 1)) * kernel
    return np.trapezoid(lhs, t), np.trapezoid(rhs, t)


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024, reason="needs an extended exponent")
def test_stable_estimate_check_forms_the_weights_in_logs():
    # r^(N-1) = 1e594 at N = 100 on [1e-6, 1e6], and about v_infinity at
    # p = 1.08 both integrals still fit in a float
    grid = RadialGrid.logspaced(1e-6, 1e6, 2001)
    t = grid.log_points
    values = np.sin(math.pi * (t - t[0]) / (t[-1] - t[0])) ** 2
    values[[0, -1]] = 0.0
    psi = TestFunction(grid, values)
    params = ProblemParams(100, 0.0, 0.0, 1.08)
    v = v_infinity(params, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lhs, rhs = stable_estimate_check(params, v, 1.5, 33, psi)
        # at p = 3 the integrals themselves leave the float range
        with pytest.raises(NumericalError, match="float range"):
            stable_estimate_check(ProblemParams(100, 0.0, 0.0, 3.0),
                                  v_infinity(ProblemParams(100, 0.0, 0.0, 3.0), grid), 1.5, 3, psi)
    want_lhs, want_rhs = _stable_estimate_in_r(params, v, 1.5, 33, psi, np.longdouble)
    assert lhs == pytest.approx(float(want_lhs), rel=1e-10)
    assert rhs == pytest.approx(float(want_rhs), rel=1e-10)


def test_pencil_solver_on_generalized_problem():
    # -psi'' = lambda * w(x) psi with w = 1 on (0, 1): the pencil inertia
    # puts exactly one eigenvalue within rel 1e-4 of pi^2 and none below
    n = 800
    h = 1.0 / (n + 1)
    ad = np.full(n, 2.0 / h)
    ae = np.full(n - 1, -1.0 / h)
    md = np.full(n, 4.0 * h / 6.0)
    me = np.full(n - 1, h / 6.0)
    assert tridiag.count_below_pencil(ad, ae, md, me, math.pi**2 * (1.0 - 1e-4)) == 0
    assert tridiag.count_below_pencil(ad, ae, md, me, math.pi**2 * (1.0 + 1e-4)) == 1
