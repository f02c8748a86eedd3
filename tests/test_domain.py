"""Seeded domain property tests for shooting and the Hardy minimum.

Across N 3-100, theta in [-0.5, 0.5], tau in [-1.95, 3] and kappa over
many decades, every ``shoot`` returns a result or raises a typed
``EmdenlabError``, and no ``RuntimeWarning`` or ``ODEintWarning`` escapes.
The CLI turns the same inputs into exit 0, 2 or 3 with JSON on stdout,
and so do ``exponents``, ``classify``, every ``transform`` kind and the
``v_infinity`` ``spectrum`` across N' 2-100.5, tau down to -2 + 1e-3 and
b/a up to 1e24.
Across N' 2.05-100.5, b/a 1.5-1e24 and n 8-20000, ``hardy_rayleigh_min``
returns a finite value above its continuum bound, with no warning.
"""

import json
import math
import random
import warnings

import pytest

from emdenlab import (
    EmdenlabError,
    ProblemParams,
    hardy_constant,
    hardy_rayleigh_min,
    shoot,
)
from emdenlab.cli import main

#: Besides log-uniform draws from [1e-3, 1e3]: far below the domain, where
#: the intrinsic length overflows or the series start leaves [0, r_max].
TINY_KAPPAS = (1e-10, 1e-30)


def _draws(seed: int, count: int):
    """(N, theta, tau, p, kappa) with p from just below Sobolev to 12x above."""
    rng = random.Random(seed)
    for i in range(count):
        N, theta, tau = rng.randint(3, 100), rng.uniform(-0.5, 0.5), rng.uniform(-1.95, 3.0)
        np_ = N + theta
        sobolev = (np_ + 2.0 + 2.0 * tau) / (np_ - 2.0)
        p = 1.0 + (sobolev - 1.0) * math.exp(rng.uniform(-0.2, 2.5))
        kappa = TINY_KAPPAS[i // 10 % 2] if i % 10 == 9 else 10.0 ** rng.uniform(-3.0, 3.0)
        yield N, theta, tau, p, kappa


def test_shoot_returns_or_raises_a_typed_error_across_the_domain():
    outcomes = {"result": 0, "error": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # RuntimeWarning and ODEintWarning alike
        for N, theta, tau, p, kappa in _draws(seed=17, count=60):
            try:
                res = shoot(ProblemParams(N, theta, theta + tau, p), kappa, 1e6)
            except EmdenlabError:
                outcomes["error"] += 1
                continue
            assert res.nfev > 0 and math.isfinite(res.asymptotic_constant)
            outcomes["result"] += 1
    # the draws reach both outcomes, so neither path is vacuous
    assert outcomes["result"] and outcomes["error"], outcomes


def _argv(N, theta, tau, p, kappa):
    # exponent notation throughout, negative values as separate tokens
    return ["shoot", "--N", str(N), "--theta", f"{theta:.6e}", "--l", f"{theta + tau:.6e}",
            "--p", f"{p:.9e}", "--kappa", f"{kappa:.6e}"]


@pytest.mark.parametrize(
    "argv",
    [_argv(*draw) for draw in _draws(seed=23, count=11)]
    + [["shoot", "--N", "5", "--theta", "0", "--l=-1.9", "--p", "2.6", "--kappa", "1e-10"]],
)
def test_cli_shoot_exits_with_json_across_the_domain(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    envelope = json.loads(capsys.readouterr().out)
    assert code in (0, 2, 3)
    assert ("error" in envelope) == (code != 0)
    if argv[-1] == "1e-10":  # the series start lies beyond r_max: a numerical failure
        assert code == 3, envelope


def test_hardy_rayleigh_min_across_the_domain():
    # a finite value above the continuum bound level + (pi/L)^2, with the
    # corners N' = 2.05 and 100.5, b/a = 1.5 and 1e24, n = 8 and 20000
    rng = random.Random(11)
    cases = [(100, 0.5, 1.0, 1e24, 8), (2, 0.05, 1.0, 1.5, 8), (100, 0.5, 1e-12, 1e12, 20000),
             (2, 0.05, 1e-12, 1e12, 20000), (100, 0.5, 1.0, 1.5, 20000)]
    for _ in range(30):
        n_prime = rng.uniform(2.05, 100.5)
        N = max(2, math.floor(n_prime))
        decades, centre = rng.uniform(math.log10(1.5), 24.0), rng.uniform(-6.0, 6.0)
        cases.append((N, n_prime - N, 10.0 ** (centre - decades / 2),
                      10.0 ** (centre + decades / 2), round(10.0 ** rng.uniform(math.log10(8), 4.3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N, theta, a, b, n in cases:
            val = hardy_rayleigh_min(theta, N, a, b, n)
            bound = hardy_constant(N + theta) + (math.pi / math.log(b / a)) ** 2
            assert math.isfinite(val) and val >= bound * (1.0 - 1e-12), (N, theta, a, b, n)


def _parameter_draws(seed: int, count: int):
    """(N, theta, tau, p, a, b, alpha, ell, n) across the documented domain."""
    rng = random.Random(seed)
    for _ in range(count):
        n_prime = rng.uniform(2.0, 100.5)
        N = max(2, min(100, math.floor(n_prime) + rng.choice((0, 1))))  # theta of either sign
        tau = -2.0 + 10.0 ** rng.uniform(-3.0, math.log10(5.0))
        p = 1.0 + 10.0 ** rng.uniform(-3.0, 1.3)
        a = 10.0 ** rng.uniform(-12.0, 0.0)
        b = a * 10.0 ** rng.uniform(math.log10(1.5), 24.0)
        alpha, ell = rng.uniform(-1.99, 3.0), rng.uniform(-10.0, (N - 2.0) ** 2 / 4.0)
        yield N, n_prime - N, tau, p, a, b, alpha, ell, rng.randint(8, 300)


def _command_argv(command, N, theta, tau, p, a, b, alpha, ell, n):
    # exponent notation throughout, negative values as separate tokens
    def e(x):
        return f"{x:.15e}"

    base = ["--N", str(N), "--theta", e(theta), "--l", e(theta + tau)]
    return {
        "exponents": ["exponents", *base],
        "exponents_p": ["exponents", *base, "--p", e(p)],
        "classify": ["classify", *base, "--p", e(p)],
        "kelvin": ["transform", "--kind", "kelvin", *base, "--p", e(p)],
        "dual": ["transform", "--kind", "dual", *base, "--p", e(p)],
        "sigma_inverse": ["transform", "--kind", "sigma_inverse", *base, "--p", e(p)],
        "sigma": ["transform", "--kind", "sigma", "--N", str(N), "--alpha", e(alpha),
                  "--ell", e(ell), "--p", e(p)],
        "spectrum": ["spectrum", *base, "--p", e(p), "--a", e(a), "--b", e(b), "--n", str(n)],
    }[command]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "command",
    ["exponents", "exponents_p", "classify", "kelvin", "dual", "sigma_inverse", "sigma",
     "spectrum"],
)
def test_cli_parameter_commands_exit_with_json_across_the_domain(command, capsys):
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for draw in _parameter_draws(seed=29, count=40):
            argv = _command_argv(command, *draw)
            code = main(argv)
            envelope = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
            assert code in (0, 2, 3) and ("error" in envelope) == (code != 0), argv
            codes.append(code)
    # most draws succeed, so the success path is not vacuous
    assert codes.count(0) >= len(codes) // 2, codes


def test_critical_exponents_near_tau_minus_two_at_n_prime_100_is_a_numerical_failure(capsys):
    # f' is about 6e5 at the root, so the Hardy-level residual misses its
    # tolerance: a conditioning limit reported as exit 3, not a loosened check
    theta, tau = 0.50197331908676, -1.996073505806603
    argv = ["exponents", "--N", "100", "--theta", repr(theta), "--l", repr(theta + tau)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    envelope = json.loads(capsys.readouterr().out)
    assert code == 3 and envelope["error"]["type"] == "numerical_failure", envelope
