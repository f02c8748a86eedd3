"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(visible with ``pytest -s``).  Tolerances are fixed here and match the
module contracts; nothing is calibrated at run time.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import emdenlab as el
from emdenlab import (
    Ordering,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    SchrodingerParams,
    TestFunction,
)


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def bump(t, t0, t1):
    u = 2.0 * (t - t0) / (t1 - t0) - 1.0
    out = np.zeros_like(t)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def test_criterion_1_exponent_oracle_agreement():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        tau = rng.uniform(-1.5, 2.5)
        n_prime = 10.0 + 4.0 * tau + rng.uniform(0.4, 25.0)
        closed = el.critical_exponents(n_prime, tau).p_c
        bis = el.crossing_by_bisection(n_prime, tau, "plus")
        worst = max(worst, abs(closed - bis))
    elapsed = time.perf_counter() - t0
    pinned = el.critical_exponents(10.0, 0.0).p_tilde_c
    ok = worst <= 1e-8 and elapsed < 1.0 and pinned == 4.0 / 3.0
    report(
        1,
        ok,
        f"200 random closed-form vs bisection p_c, worst |diff| = {worst:.2e} "
        f"(tol 1e-8), P_-(10,0) == 4/3 exactly: {pinned == 4.0 / 3.0}, "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_joseph_lundgren_recovery():
    closed = (81.0 - 44.0 + 8.0 * math.sqrt(10.0)) / 9.0
    bis = el.crossing_by_bisection(11.0, 0.0, "plus")
    diff = abs(closed - bis)
    ok = diff <= 1e-10 and abs(el.critical_exponents(11.0, 0.0).p_c - closed) <= 1e-12
    report(
        2,
        ok,
        f"p_c(11,0) = (81-44+8*sqrt(10))/9 = {closed:.10f} vs bisection "
        f"{bis:.10f}, |diff| = {diff:.2e} (tol 1e-10)",
    )


def test_criterion_3_monotonicity_suite():
    t0 = time.perf_counter()
    n_values = [10.5] + list(range(11, 21))
    pcs_n = [el.critical_exponents(float(n), 0.0).p_c for n in n_values]
    dec = all(a > b for a, b in zip(pcs_n, pcs_n[1:]))
    taus = (-0.5, 0.0, 0.5, 1.0)
    pcs_t = [el.critical_exponents(20.0, t).p_c for t in taus]
    inc = all(a < b for a, b in zip(pcs_t, pcs_t[1:]))
    elapsed = time.perf_counter() - t0
    ok = dec and inc and elapsed < 1.0
    report(
        3,
        ok,
        f"p_c strictly decreasing over N'=10.5..20 at tau=0: {dec}; strictly "
        f"increasing over tau=-0.5..1 at N'=20: {inc}; runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_delta_identity():
    worst = 0.0
    for N, theta in ((5, 1.0), (11, -2.0)):
        n_prime = N + theta
        for p in (1.5, 2.0, 5.0, 10.0):
            tau_t = (p - 1.0) * theta / (2.0 * p + 2.0 * math.sqrt(p * (p - 1.0)))
            g = el.gamma_of_p(p)
            worst = max(
                worst,
                abs(el.delta(n_prime, p, g, tau_t) - el.delta(float(N), p, g, 0.0)),
            )
    ok = worst < 1e-10
    report(4, ok, f"weight-balance delta identity, worst |diff| = {worst:.2e} (tol 1e-10)")


def test_criterion_5_singular_solution_residual():
    base = ProblemParams(5, 0.0, 0.0, 3.0)
    kelvin = el.kelvin_params(base)
    sigma = el.sigma_params(SchrodingerParams(5, 0.0, 1.0, 3.0))
    cases = [("base", base), ("kelvin-image", kelvin), ("sigma-image", sigma)]
    # extended-precision sampling: the 1e-9 target sits below the float64
    # quantization floor of second differences
    worst = 0.0
    for _, params in cases:
        grid = RadialGrid.logspaced(1.0, 1.04, 2000)
        v = el.v_infinity(params, grid, dtype=np.longdouble)
        worst = max(worst, el.residual(v, params))
    ratios = []
    for _, params in cases:
        r1 = el.residual(el.v_infinity(params, RadialGrid.logspaced(1.0, 100.0, 2000)), params)
        r2 = el.residual(el.v_infinity(params, RadialGrid.logspaced(1.0, 100.0, 4000)), params)
        ratios.append(r1 / r2)
    second_order = all(abs(r - 4.0) < 0.4 for r in ratios)
    ok = worst <= 1e-9 and second_order
    report(
        5,
        ok,
        f"singular-solution residual at n=2000, worst over base+2 transformed "
        f"sets = {worst:.2e} (tol 1e-9); doubling ratios {[f'{r:.2f}' for r in ratios]} "
        f"(expect ~4)",
    )


def test_criterion_6_shooting_asymptotics():
    t0 = time.perf_counter()
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    res = el.shoot(params, kappa=1.0, r_max=1e6, tol=1e-10, r_min=1e-6)
    elapsed = time.perf_counter() - t0
    c0 = (26.0 / 9.0) ** (1.0 / 6.0)
    rel = abs(res.asymptotic_constant - c0) / c0
    below = res.ordering_vs_singular is Ordering.BELOW
    # strict pointwise check where the gap is numerically resolvable
    grid = res.solution.grid
    vinf = el.v_infinity(params, grid)
    head = grid.points <= 1e2
    strict = bool(np.all(res.solution.values[head] < vinf.values[head]))
    ok = rel <= 1e-2 and below and strict and elapsed < 10.0
    report(
        6,
        ok,
        f"asymptotic constant {res.asymptotic_constant:.6f} vs (26/9)^(1/6) = "
        f"{c0:.6f}, rel err {rel:.2e} (tol 1e-2); ordering below on grid: {below} "
        f"(strict where resolvable: {strict}); runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_7_scaling_law():
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    lam = (params.p - 1.0) / 2.0
    base = el.shoot(params, kappa=1.0, r_max=1e6, tol=1e-10, r_min=1e-6)
    mapped = el.rescale(base, 2.0)
    direct = el.shoot(
        params, kappa=2.0, r_max=mapped.grid.r_max * (1.0 + 1e-12),
        tol=1e-10, grid=mapped.grid,
    )
    dev = float(np.max(np.abs(direct.solution.values - mapped.values) / mapped.values))
    ok = dev < 1e-6
    report(
        7,
        ok,
        f"shoot(kappa=2) vs rescale(shoot(kappa=1), 2): max rel deviation "
        f"{dev:.2e} on the shared grid (tol 1e-6)",
    )


def test_criterion_8_spectrum_dichotomy():
    t0 = time.perf_counter()

    def count(N, p, a, b):
        params = ProblemParams(N, 0.0, 0.0, p)
        pad = 1.0 + 1e-9
        grid = RadialGrid.logspaced(a / pad, b * pad, 6000)
        v = el.v_infinity(params, grid)
        P = el.potential(p, 2.0 + params.tau, v, el.log_nodes(a, b, 4000).points)[1:-1]
        return el.radial_morse_index(params, P, a, b, 4000).negative_count

    stable_hi = count(11, 7.0, 1e-3, 1e3)
    stable_lo = count(10, 1.3, 1e-3, 1e3)
    unstable = count(11, 3.0, 1e-3, 1e3)
    widened = count(11, 3.0, 1e-4, 1e4)
    elapsed = time.perf_counter() - t0
    ok = (
        stable_hi == 0
        and stable_lo == 0
        and unstable >= 1
        and widened >= unstable
        and elapsed < 30.0
    )
    report(
        8,
        ok,
        f"negative counts on [1e-3,1e3], n=4000: p=7 -> {stable_hi} (want 0), "
        f"N'=10 p=1.3 -> {stable_lo} (want 0), p=3 -> {unstable} (want >= 1); "
        f"widened [1e-4,1e4] -> {widened} (no decrease); runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_9_hardy_bound():
    results = []
    for ba, n in ((1e1, 1000), (1e2, 1000), (1e3, 2000), (1e4, 4000), (1e6, 8000)):
        results.append((ba, n, el.hardy_rayleigh_min(0.0, 5, 1.0, ba, n)))
    all_above = all(val >= 2.25 for _, _, val in results)
    at_wide = results[-1][2]
    within = abs(at_wide - 2.25) / 2.25 <= 0.05
    ok = all_above and within
    report(
        9,
        ok,
        f"hardy Rayleigh minimum >= 2.25 on all annuli: {all_above}; at "
        f"b/a=1e6, n=8000: {at_wide:.4f} is within 5% of 2.25: {within}",
    )


def test_criterion_10_transform_invariance():
    rng = np.random.default_rng(77)
    worst = {"kelvin": 0.0, "dual": 0.0, "sigma": 0.0}
    for _ in range(10):
        N = int(rng.integers(3, 8))
        theta = float(rng.uniform(-1.0, 1.5))
        if N + theta <= 2.2:
            theta = 2.2 - N + 1.0
        l = float(rng.uniform(-1.0, 1.5))
        p = float(rng.uniform(1.6, 4.0))
        params = ProblemParams(N, theta, l, p)
        vg = RadialGrid.logspaced(0.05, 20.0, 60001)
        mu = float(rng.uniform(0.2, 1.5))
        amp = float(rng.uniform(0.5, 2.0))
        wig = float(rng.uniform(0.0, 0.4))
        v = RadialFunction(
            vg, amp * vg.points**-mu * (1.0 + wig * np.sin(vg.log_points))
        )
        pg = RadialGrid.logspaced(0.1, 10.0, 48001)
        psi = TestFunction(pg, bump(pg.log_points, math.log(0.1), math.log(10.0)))
        for kind in worst:
            qs, qi = el.invariance_check(kind, params, v, psi)
            worst[kind] = max(worst[kind], abs(qs - qi) / abs(qs))
    ok = all(w < 1e-6 for w in worst.values())
    report(
        10,
        ok,
        "transform invariance on 10 random (v, psi) pairs in [0.1, 10]: "
        + ", ".join(f"{k} worst rel diff {v:.2e}" for k, v in worst.items())
        + " (tol 1e-6)",
    )


def test_criterion_11_roundtrips():
    params = ProblemParams(7, 0.5, 1.0, 2.5)
    grid = RadialGrid.logspaced(0.02, 50.0, 4097)
    rng = np.random.default_rng(5)
    v = RadialFunction(grid, rng.uniform(0.5, 2.0, size=4097))
    kk = el.kelvin_apply(el.kelvin_apply(v, params), params)
    kelvin_dev = float(np.max(np.abs(kk.values - v.values) / np.abs(v.values)))
    dd = el.dual_apply(el.dual_apply(v))
    dual_exact = bool(np.array_equal(dd.values, v.values))
    grid_dev = float(np.max(np.abs(dd.grid.points - grid.points) / grid.points))
    worst_sigma = 0.0
    for _ in range(20):
        N = int(rng.integers(3, 12))
        sp = SchrodingerParams(
            N,
            float(rng.uniform(-3.0, 3.0)),
            float(rng.uniform(-4.0, (N - 2.0) ** 2 / 4.0 - 1e-6)),
            float(rng.uniform(1.1, 6.0)),
        )
        back = el.sigma_inverse(el.sigma_params(sp))
        worst_sigma = max(
            worst_sigma, abs(back.alpha - sp.alpha), abs(back.ell - sp.ell)
        )
    ok = kelvin_dev < 5e-14 and dual_exact and grid_dev < 5e-15 and worst_sigma <= 1e-12
    report(
        11,
        ok,
        f"kelvin twice: max rel dev {kelvin_dev:.2e} (machine precision); dual "
        f"twice: values bit-identical {dual_exact}, grid dev {grid_dev:.2e}; "
        f"sigma forward-inverse worst |diff| {worst_sigma:.2e} (tol 1e-12)",
    )


def test_criterion_12_cli_determinism(tmp_path):
    env_cmds = [
        ["exponents", "--N", "11", "--theta", "0.5", "--l", "1.5", "--p", "3"],
        ["classify", "--N", "11", "--theta", "0", "--l", "0", "--p", "3"],
        # closed-form v_infinity spectrum with its diagnostics, in both formats
        *(["spectrum", "--N", "11", "--theta", "0.5", "--l", "1.5", "--p", "3", "--a", "1e-3",
           "--b", "1e3", "--n", "4000", "--format", fmt] for fmt in ("json", "csv")),
    ]
    identical = True
    for cmd in env_cmds:
        full = [sys.executable, "-m", "emdenlab"] + cmd
        a = subprocess.run(full, capture_output=True, check=True).stdout
        b = subprocess.run(full, capture_output=True, check=True).stdout
        identical = identical and a == b
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 11:13:3\ntau = 0,0.5\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        subprocess.run(
            [sys.executable, "-m", "emdenlab", "sweep", "--config", str(cfg), "--out", str(out)],
            capture_output=True, check=True,
        )
    identical = identical and out1.read_bytes() == out2.read_bytes()
    report(12, identical, f"repeated CLI runs byte-identical: {identical}")
