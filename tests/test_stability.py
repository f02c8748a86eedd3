import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from emdenlab import (
    InvalidParameterError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    TestFunction,
    assemble_forms,
    critical_exponents,
    derive,
    f_eval,
    hardy_constant,
    hardy_rayleigh_min,
    invariance_check,
    q_value,
    radial_morse_index,
    stable_estimate_check,
    v_infinity,
)
from emdenlab import tridiag


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


def test_assemble_zero_profile_is_positive_definite():
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    grid = RadialGrid.logspaced(0.05, 50.0, 512)
    zero = RadialFunction(grid, np.zeros(512))
    report = radial_morse_index(params, zero, 0.1, 10.0, 200)
    assert report.negative_count == 0
    assert report.min_eigenvalue > 0.0


def test_assemble_refinement_is_second_order():
    params = ProblemParams(5, 0.0, 0.0, 1.75)
    v = profile_on(params, 1e-2, 1e2, 4096)
    mins = []
    for n in (250, 500, 1000):
        mins.append(radial_morse_index(params, v, 1e-2, 1e2, n).min_eigenvalue)
    # Richardson: the error against the n -> inf limit halves by 4 each level
    d1 = abs(mins[1] - mins[0])
    d2 = abs(mins[2] - mins[1])
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)


def test_spectrum_dichotomy_core_cases():
    # stable at p >= p_c
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-3, 1e3, 3000)
    rep = radial_morse_index(params, v, 1e-3, 1e3, 2000)
    assert rep.negative_count == 0
    assert rep.min_eigenvalue > -1e-8
    # stable below the lower critical power (N'=10 side)
    params = ProblemParams(10, 0.0, 0.0, 1.3)
    v = profile_on(params, 1e-3, 1e3, 3000)
    rep = radial_morse_index(params, v, 1e-3, 1e3, 2000)
    assert rep.negative_count == 0
    # N = 5 singular profile in its stable range (f below the hardy level)
    params = ProblemParams(5, 0.0, 0.0, 1.75)
    v = profile_on(params, 1e-3, 1e3, 3000)
    rep = radial_morse_index(params, v, 1e-3, 1e3, 2000)
    assert rep.negative_count == 0
    assert rep.min_eigenvalue >= -1e-8
    # unstable in between, count grows with the annulus
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    v = profile_on(params, 1e-4, 1e4, 4000)
    narrow = radial_morse_index(params, v, 1e-2, 1e2, 2000)
    wide = radial_morse_index(params, v, 1e-3, 1e3, 2000)
    wider = radial_morse_index(params, v, 1e-4, 1e4, 2000)
    assert narrow.negative_count >= 1
    assert narrow.negative_count <= wide.negative_count <= wider.negative_count
    assert wider.negative_count > narrow.negative_count


def test_spectrum_matches_liouville_count():
    # negative count of the singular-profile form equals the sinusoid count
    # floor(L * sqrt(f - level) / pi) on [a, b], L = log(b/a)
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    v = profile_on(params, 1e-3, 1e3, 6000)
    rep = radial_morse_index(params, v, 1e-3, 1e3, 4000)
    L = math.log(1e6)
    expect = math.floor(L * math.sqrt(f_eval(3.0, 11.0, 0.0) - hardy_constant(11.0)) / math.pi)
    assert rep.negative_count == expect


def test_sign_dichotomy_across_powers():
    # straddle p_tilde_c and p_c at N' = 11, tau = 0
    exps = critical_exponents(11.0, 0.0)
    level = hardy_constant(11.0)
    for p in (1.25, 1.28, 1.5, 3.0, 5.0, 6.8, 7.2, 9.0):
        params = ProblemParams(11, 0.0, 0.0, p)
        ind = derive(params)
        if ind.c0 is None:
            continue
        v = profile_on(params, 1e-2, 1e2, 2000)
        rep = radial_morse_index(params, v, 1e-2, 1e2, 1200)
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


@pytest.mark.parametrize("N, p", [(11, 7.0), (15, 3.0)])
def test_smallest_eigenvalues_match_high_precision_sturm_counts(N, p):
    # graded mass-scaled pencils where LAPACK bisection at its default
    # tolerance loses the low end; the pinned tolerance must not
    pytest.importorskip("mpmath")
    params = ProblemParams(N, 0.0, 0.0, p)
    v = profile_on(params, 1e-3, 1e3, 3000)
    d, e = assemble_forms(params, v, 1e-3, 1e3, 2000).standardized()
    for j, lam in enumerate(tridiag.smallest_eigenvalues(d, e, 4)):
        gap = 1e-9 * abs(lam)
        assert _mp_count_below(d, e, lam - gap) == j
        assert _mp_count_below(d, e, lam + gap) == j + 1


def test_eigenvector_matches_q_value():
    # q_value on an eigenvector-interpolated test function reproduces
    # eigenvalue * mass norm to discretization accuracy
    params = ProblemParams(11, 0.0, 0.0, 3.0)
    a, b, n = 1e-2, 1e2, 3000
    v = profile_on(params, a, b, n + 500)
    asm = assemble_forms(params, v, a, b, n)
    d, e = asm.standardized()
    eigs, vecs = eigh_tridiagonal(
        d, e, select="i", select_range=(0, 0), lapack_driver="stebz", tol=tridiag.STEBZ_TOL
    )
    lam, y = eigs[0], vecs[:, 0]
    # undo the mass scaling: pencil eigenvector is M^(-1/2) y
    x = y / np.sqrt(asm.mass_diag)
    values = np.zeros(n + 2)
    values[1:-1] = x
    psi = TestFunction(RadialGrid(asm.nodes), values)
    q = q_value(params, v, psi)
    mass = float(np.sum(asm.mass_diag * x * x))
    assert q == pytest.approx(lam * mass, rel=1e-2)


def test_q_value_basics():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    v = profile_on(params, 1e-2, 1e2, 4000)
    psi = bump_test_function(0.1, 10.0, 2001)
    zero = TestFunction(psi.grid, np.zeros(psi.grid.n))
    assert q_value(params, v, zero) == 0.0
    q1 = q_value(params, v, psi)
    q2 = q_value(params, v, TestFunction(psi.grid, 2.0 * psi.values))
    assert q2 == pytest.approx(4.0 * q1, rel=1e-12)


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
        rep = radial_morse_index(params, v, 1e-2, 1e2, 1500)
        assert (rep.min_eigenvalue > -rep.negative_tol) == stable


def test_invariance_kelvin_dual_sigma():
    params = ProblemParams(5, 0.5, 0.7, 3.0)
    grid = RadialGrid.logspaced(0.05, 20.0, 40001)
    v = RadialFunction(grid, 1.3 * grid.points**-0.8 * (1.0 + 0.3 * np.sin(grid.log_points)))
    psi = bump_test_function(0.1, 10.0, 32001)
    for kind in ("kelvin", "dual", "sigma"):
        qs, qi = invariance_check(kind, params, v, psi)
        assert abs(qs - qi) / abs(qs) < 1e-6, kind


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


def test_pencil_solver_on_generalized_problem():
    # -psi'' = lambda * w(x) psi with w = 1: pencil route equals standard route
    n = 800
    h = 1.0 / (n + 1)
    ad = np.full(n, 2.0 / h)
    ae = np.full(n - 1, -1.0 / h)
    md = np.full(n, 4.0 * h / 6.0)
    me = np.full(n - 1, h / 6.0)
    lam = tridiag.min_eigenvalue_pencil(ad, ae, md, me)
    assert lam == pytest.approx(math.pi**2, rel=1e-4)
