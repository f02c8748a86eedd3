"""Seeded domain property tests for shooting and the Hardy minimum.

Across N 3-100, theta in [-0.5, 0.5], tau in [-1.95, 3] and kappa over
many decades, every ``shoot`` returns a result or raises a typed
``EmdenlabError``, and no ``RuntimeWarning`` or ``ODEintWarning`` escapes.
The CLI turns the same inputs into exit 0, 2 or 3 with JSON on stdout,
and so do ``exponents``, ``classify``, every ``transform`` kind and the
``v_infinity`` ``spectrum`` across N' 2-100.5, tau down to -2 + 1e-3 and
b/a up to 1e24.  ``spectrum --profile shoot:<kappa>`` does the same with
kappa over twelve decades, 1e-6 of the kappa scale above a and b/a up to 1e24, and
exits 2 only where p is not above the Sobolev exponent; ``sweep`` with
``mode = spectrum`` writes one CSV row per p, each with its results or
its error.  On annuli as close to the origin as a = 1e-40, where w = r^m v
underflows, ``profile_spectrum`` about a shot returns whenever p is above
the Sobolev exponent, since it reads only the shot's state.
With N'-2 from 1e-6, 2+tau from 1e-8 and N'-(10+4 tau) from 1e-10,
``critical_exponents`` returns both powers inside their windows and
within 4 ulp of 50-digit roots, and ``classify_p`` labels p as those
roots do.
Across N' 2.05-100.5, b/a 1.5-1e24 and n 8-20000, ``hardy_rayleigh_min``
returns a finite value above its continuum bound, with no warning.  An
infinite N', kappa, r_max or tol, or a b/a that overflows, is an
``InvalidParameterError`` (CLI exit 2).
With NaN, +-inf or +-1e300 in any float input, the exponent algebra,
``classify_p``, the parameter and function transforms, ``invariance_check``,
``stable_estimate_check``, ``q_value`` and ``RadialGrid.logspaced`` return
a finite result or raise an ``EmdenlabError``: a non-finite N' or tau is
invalid input, and an exponent coefficient out of the float range a
numerical failure.  A dimension N, an exponent m or a node count of 8.5,
NaN or inf, a node count beyond ``grids.MAX_NODES`` (also one that
``shoot``'s ``points_per_decade`` implies, 1e300 and 1e308 among them), a
non-finite ``points_per_decade`` and an ``invariance_check`` kind with no
form map are invalid input too.  So do
the function-level entry points and ``residual`` on annuli as far from
r = 1 as [1e100, 1e200] and [1e-200, 1e-100], with psi scaled by 1e-300
to 1e300, and so do the form assembly, the radial
spectrum, the tail fits, ``residual``, ``sphere_constant_check`` and
``v_infinity`` with N', theta, l or p as large as 1e160 to 1e300.
"""

import itertools
import json
import math
import random
import warnings
from functools import partial

import numpy as np
import pytest

from emdenlab import (
    EmdenlabError,
    InvalidParameterError,
    NumericalError,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    RegimeLabel,
    SchrodingerParams,
    TestFunction,
    TransformKind,
    assemble_forms,
    asymptotic_constant,
    classify_decay,
    classify_p,
    critical_exponents,
    crossing_by_bisection,
    dual_apply,
    dual_params,
    hardy_constant,
    hardy_rayleigh_min,
    invariance_check,
    kelvin_apply,
    kelvin_params,
    log_nodes,
    profile_spectrum,
    q_value,
    radial_morse_index,
    radial_ode,
    residual,
    shoot,
    sigma_apply,
    sigma_inverse,
    sigma_params,
    sphere_constant_check,
    stability,
    stable_estimate_check,
    v_infinity,
)
from emdenlab.cli import main
from emdenlab.grids import MAX_NODES

#: Besides log-uniform draws from [1e-3, 1e3]: far below the domain, where
#: the intrinsic length overflows or the default grid start leaves [0, r_max].
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
    if argv[-1] == "1e-10":  # the default grid start lies beyond r_max: a numerical failure
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
        # log(b/a) overflows, b is infinite, N' is infinite: invalid input,
        # not a failed certificate
        for theta, N, a, b in ((0.0, 5, 1e-300, 1e300), (0.0, 5, 1.0, math.inf),
                               (math.inf, 5, 1.0, 10.0)):
            with pytest.raises(InvalidParameterError):
                hardy_rayleigh_min(theta, N, a, b, 100)
        # a pencil entry that overflows is a numerical failure, not invalid input
        with pytest.raises(NumericalError, match="Hardy pencil leaves the float range"):
            hardy_rayleigh_min(1e154, 3, 1.0, 1e300, 8)
        # the spectrum too (it gave 16 equal eigenvalues of 15.25)
        with pytest.raises(InvalidParameterError, match=r"log\(b/a\) must be finite"):
            radial_morse_index(ProblemParams(11, 0, 0, 7), 5.0, 1e-300, 1e300, 50)


@pytest.mark.parametrize(
    "argv",
    [["shoot", "--rmax", "inf"], ["shoot", "--rmax", "nan"], ["shoot", "--kappa", "inf"],
     ["shoot", "--tol", "inf"], ["spectrum", "--profile", "shoot:inf"],
     ["spectrum", "--profile", "shoot:1", "--tol", "inf"],
     ["spectrum", "--n", "100", "--a", "1e-300", "--b", "1e300"], ["spectrum", "--b", "inf"]],
)
def test_cli_non_finite_input_exits_2(argv, capsys):
    # inf or nan, or a b/a that overflows, is invalid input: exit 2 with
    # JSON and no warning, not a traceback, exit 3 or a silent wrong spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--N", "11", "--theta", "0", "--l", "0", "--p", "7"])
    envelope = json.loads(capsys.readouterr().out)
    assert code == 2 and envelope["error"]["type"] == "invalid_input", envelope


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


def test_critical_exponents_near_tau_minus_two_at_n_prime_100_return_inside_their_windows(capsys):
    # f' is about 6e5 at the root in p; in m = (2+tau)/(p-1) the roots carry
    # no such factor, so both powers return inside their windows
    theta, tau = 0.50197331908676, -1.996073505806603
    argv = ["exponents", "--N", "100", "--theta", repr(theta), "--l", repr(theta + tau)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0, results
    assert results["serrin"] < results["p_tilde_c"] < results["sobolev"] < results["p_c"]


def _shoot_spectrum_draws(seed: int, count: int):
    """(argv, p above Sobolev, 1e-6 kappa scale above a) with kappa 1e-6-1e6 and b/a to 1e24."""
    rng = random.Random(seed)
    for _ in range(count):
        N, theta, tau = rng.randint(3, 100), rng.uniform(-0.5, 0.5), rng.uniform(-1.95, 3.0)
        np_ = N + theta
        sobolev = (np_ + 2.0 + 2.0 * tau) / (np_ - 2.0)
        p = 1.0 + (sobolev - 1.0) * math.exp(rng.uniform(-0.2, 2.5))
        kappa = 10.0 ** rng.uniform(-6.0, 6.0)
        a = 10.0 ** rng.uniform(-6.0, 3.0)
        b = a * 10.0 ** rng.uniform(math.log10(1.5), 24.0)
        argv = ["spectrum", "--N", str(N), "--theta", f"{theta:.6e}", "--l", f"{theta + tau:.6e}",
                "--p", f"{p:.9e}", "--profile", f"shoot:{kappa:.6e}", "--a", f"{a:.6e}",
                "--b", f"{b:.6e}", "--n", str(rng.randint(8, 2000))]
        start = kappa ** (-(p - 1.0) / (2.0 + tau)) * radial_ode.GRID_START_FACTOR
        yield argv, p > sobolev, start > a


def test_cli_shoot_spectrum_exits_with_json_across_the_domain(capsys):
    codes, starts_above_a = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, valid, start_above_a in _shoot_spectrum_draws(seed=41, count=60):
            code = main(argv)
            envelope = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
            assert code in (0, 2, 3) and ("error" in envelope) == (code != 0), argv
            # valid input never exits 2: not for a kappa scale above a, nor
            # for too few nodes in the last decade for a tail fit
            assert code != 2 or not valid, (argv, envelope)
            codes.append(code)
            starts_above_a += start_above_a and code == 0
    assert codes.count(0) >= len(codes) // 2 and starts_above_a >= 3, (codes, starts_above_a)


def _near_origin_draws(seed: int, count: int):
    """(params, a, b, n, kappa, p above Sobolev) with a in 1e-40-1e2 and b/a in 10-1e24."""
    rng = random.Random(seed)
    for _ in range(count):
        N, theta, tau = rng.randint(3, 100), rng.uniform(-0.5, 0.5), rng.uniform(-1.9, 3.0)
        np_ = N + theta
        sobolev = (np_ + 2.0 + 2.0 * tau) / (np_ - 2.0)
        p = 1.0 + (sobolev - 1.0) * math.exp(rng.uniform(-0.2, 2.5))
        kappa = 10.0 ** rng.uniform(-3.0, 3.0)
        a = 10.0 ** rng.uniform(-40.0, 2.0)
        b = a * 10.0 ** rng.uniform(1.0, 24.0)
        n = rng.randint(8, 300)
        yield ProblemParams(N, theta, theta + tau, p), a, b, n, kappa, p > sobolev


def test_shot_spectrum_on_annuli_near_the_origin_returns_above_sobolev():
    # a shot spectrum reads only the shot's state, so it returns where the
    # shot's report fails: w = kappa r^m underflows in the last decade, or c0
    # leaves the float range; below Sobolev it is invalid input
    failures, returned = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, a, b, n, kappa, valid in _near_origin_draws(seed=67, count=200):
            label = f"{params}, a={a!r}, b={b!r}, n={n}, kappa={kappa!r}"
            try:
                report = profile_spectrum(params, a, b, n, kappa=kappa)
            except InvalidParameterError:
                if valid:
                    failures.append(f"{label}: invalid input above Sobolev")
                continue
            except Exception as exc:  # collected, so one run lists every defect
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            if not (valid and _finite(report)):
                failures.append(f"{label}: returned {report}")
            returned += 1
    assert not failures, "\n".join(failures)
    assert returned >= 150, returned


def _critical_power_draws(seed: int, count: int):
    """(N', tau) with N'-2 from 1e-6, 2+tau from 1e-8 and N'-(10+4 tau) from 1e-10.

    Every third draw lies just above N' = 10 + 4*tau, where p_c -> infinity.
    tau is c - 2 for a double c, so 2 + tau is that c exactly.
    """
    rng = random.Random(seed)
    for i in range(count):
        c = 10.0 ** rng.uniform(-8.0, math.log10(24.0))
        if i % 3 == 2:  # A = N'-2 just above 4c
            A = 4.0 * c + 10.0 ** rng.uniform(-10.0, -2.0)
        else:
            A = 10.0 ** rng.uniform(-6.0, 2.0)
        yield 2.0 + A, c - 2.0


def _roots_50_digits(n_prime: float, tau: float):
    """p_tilde_c and p_c (None for infinity) of the doubles A = N'-2 and c = 2+tau, to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        A, c = mpmath.mpf(n_prime) - 2, mpmath.mpf(2.0 + tau)
        s = mpmath.sqrt(c * (c + 2 * A))
        m_tilde, m_c = (A - c + s) / 2, (A - c - s) / 2
        return 1 + c / m_tilde, (1 + c / m_c if m_c > 0 else None)


def test_critical_exponents_return_inside_their_windows_across_the_regime():
    # both closed-form roots pass the residual check and both bisection
    # cross-checks (or critical_exponents raises), with no warning
    failures, finite_p_c = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_prime, tau in _critical_power_draws(seed=71, count=600):
            try:
                exps = critical_exponents(n_prime, tau)
            except Exception as exc:  # collected, so one run lists every defect
                failures.append(f"({n_prime!r}, {tau!r}): {type(exc).__name__}: {exc}")
                continue
            upper = n_prime > 10.0 + 4.0 * tau
            if not (exps.serrin < exps.p_tilde_c < exps.sobolev
                    and (exps.p_c is not None) == upper
                    and (exps.p_c is None or exps.p_c > exps.sobolev)):
                failures.append(f"({n_prime!r}, {tau!r}): {exps}")
            finite_p_c += upper
    assert not failures, "\n".join(failures)
    assert finite_p_c >= 200, finite_p_c


def test_critical_exponents_are_within_4_ulp_of_50_digit_roots():
    for n_prime, tau in _critical_power_draws(seed=71, count=600):
        exps = critical_exponents(n_prime, tau)
        for p, exact in zip((exps.p_tilde_c, exps.p_c), _roots_50_digits(n_prime, tau)):
            assert (p is None) == (exact is None), (n_prime, tau)
            if p is not None:
                assert abs(p - exact) <= 4.0 * math.ulp(p), (n_prime, tau, p, exact)
    exps = critical_exponents(10.0, 0.0)
    assert exps.p_tilde_c == 4.0 / 3.0 and exps.p_c is None


def test_classify_labels_match_50_digit_roots_across_the_regime():
    # p on both sides of each root, from 1e-14 to 10% away, at Sobolev and
    # across (1, 3 Sobolev); a p within 1e-12 of a root may take either label.
    # N = 2 and theta = N'-2 give N' exactly; the reference roots take
    # 2 + tau as the double the library forms, since near N' = 10 + 4*tau
    # p_c moves with its rounding as 1/(N'-10-4*tau)
    rng = random.Random(73)
    labels = set()
    for n_prime, tau in _critical_power_draws(seed=71, count=300):
        theta = n_prime - 2.0
        params = ProblemParams(2, theta, theta + tau, 2.0)
        roots = [r for r in _roots_50_digits(params.n_prime, params.tau) if r is not None]
        ps = [float(r * (1 + sign * 10.0 ** rng.uniform(-14.0, -1.0)))
              for r in roots for sign in (-1, 1)]
        ps += [params.sobolev, 1.0 + (params.sobolev - 1.0) * 3.0 * rng.random()]
        for p in ps:
            if p <= 1.0 or any(abs(p - r) <= 1e-12 * r for r in roots):
                continue
            got = classify_p(params._replace(p=p)).label
            if math.isclose(p, params.sobolev, rel_tol=1e-12, abs_tol=0.0):
                want = RegimeLabel.SOBOLEV_EXACT
            elif p <= params.serrin:
                want = RegimeLabel.BELOW_SERRIN
            elif p <= roots[0]:
                want = RegimeLabel.SERRIN_TO_PTILDE
            elif len(roots) == 1 or p < roots[1]:
                want = RegimeLabel.REMOVABILITY_WINDOW
            else:
                want = RegimeLabel.AT_OR_ABOVE_PC
            assert got is want, (params._replace(p=p), roots)
            labels.add(got)
    assert len(labels) == 5, labels


def test_cli_sweep_spectrum_writes_a_row_per_p_across_the_domain(tmp_path, capsys):
    rng = random.Random(43)
    config = tmp_path / "sweep.cfg"
    rows = errors = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(12):
            n_prime = rng.uniform(2.0, 100.5)
            N = max(2, min(100, math.floor(n_prime) + rng.choice((0, 1))))
            tau = -2.0 + 10.0 ** rng.uniform(-3.0, math.log10(5.0))
            ps = [1.0 + 10.0 ** rng.uniform(-3.0, 1.3) for _ in range(4)]
            a = 10.0 ** rng.uniform(-12.0, 0.0)
            b = a * 10.0 ** rng.uniform(math.log10(1.5), 24.0)
            config.write_text(
                f"mode = spectrum\nN = {N}\ntheta = {n_prime - N:.15e}\n"
                f"l = {n_prime - N + tau:.15e}\np = {','.join(f'{p:.15e}' for p in ps)}\n"
                f"a = {a:.15e}\nb = {b:.15e}\nn = {rng.randint(8, 3000)}\n"
            )
            code = main(["sweep", "--config", str(config)])
            lines = capsys.readouterr().out.splitlines()
            assert code == 0, lines
            header, *cells = (line.split(",") for line in lines)
            assert header == ["N", "theta", "l", "p", "f_p", "hardy_level", "negative_count",
                              "min_eigenvalue", "error"]
            assert len(cells) == len(ps)
            for row in cells:
                failed = row[-1] != ""
                assert all((cell == "") == failed for cell in row[4:8]), row
                if not failed:
                    assert int(row[6]) >= 0 and math.isfinite(float(row[7]))
                rows += 1
                errors += failed
    assert 0 < errors < rows // 2, (errors, rows)


def test_v_infinity_spectrum_samples_no_profile(tmp_path, monkeypatch, capsys):
    # about v_infinity the potential is the constant f(p): neither the
    # spectrum nor a spectrum sweep samples or interpolates a profile, so
    # c0 r^(-m) outside the float range (down to 1e-2000 here) is no error
    def sampled(*args, **kwargs):
        raise AssertionError("a v_infinity spectrum sampled a profile")

    monkeypatch.setattr(radial_ode, "v_infinity", sampled)
    monkeypatch.setattr(RadialFunction, "interp", sampled)
    monkeypatch.setattr(RadialGrid, "logspaced", sampled)  # nor builds a grid
    common = ["--N", "100", "--theta", "0", "--l", "0"]
    assert main(["spectrum", *common, "--p", "1.0408", "--a", "1e-12", "--b", "1e12"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["negative_count"] == 174
    assert profile_spectrum(ProblemParams(100, 0.0, 0.0, 1.0408), 1e-12, 1e12, 2000
                            ).negative_count == 174
    config = tmp_path / "sweep.cfg"
    config.write_text("mode = spectrum\nN = 100\ntheta = 0\nl = 0\np = 1.0408,3\n"
                      "a = 1e-12\nb = 1e12\nn = 2000\n")
    assert main(["sweep", "--config", str(config)]) == 0
    assert [row.split(",")[-1] for row in capsys.readouterr().out.splitlines()[1:]] == ["", ""]
    # a, b and n are still reported before the profile's conditions (p is below Serrin)
    assert main(["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "1.01",
                 "--n", "4"]) == 2
    assert "interior nodes" in json.loads(capsys.readouterr().out)["error"]["message"]


#: NaN, both infinities and both signs of a finite value whose square overflows.
EXTREMES = (math.nan, math.inf, -math.inf, 1e300, -1e300)


def _finite(x) -> bool:
    """Every number in x, through tuples, arrays and slotted objects, is finite."""
    if x is None or isinstance(x, str):  # str covers the str enums
        return True
    if isinstance(x, (int, float)):
        return math.isfinite(x)
    if isinstance(x, np.ndarray):
        return bool(np.all(np.isfinite(x)))
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    slots = [name for cls in type(x).__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots, f"no fields to walk in {x!r}"
    return all(_finite(getattr(x, name)) for name in slots)


def _shoot_at_density(params, points_per_decade):
    """``shoot`` with kappa = 1 to r = 1e3 on its default grid at the given density."""
    return shoot(params, 1.0, 1e3, points_per_decade=points_per_decade)


def _extreme_calls(seed: int, draws: int):
    """(function, args) of each library entry point with one or two inputs extreme.

    The other inputs are drawn from the documented domain.  A call that
    needs parameters or a profile is made only where those were built.
    """
    rng = random.Random(seed)
    grid = RadialGrid.logspaced(1e-2, 1e2, 17)
    s = np.linspace(0.0, 1.0, grid.n)
    psi = TestFunction(grid, (4.0 * s * (1.0 - s)) ** 2)
    for x, _ in itertools.product(EXTREMES, range(draws)):
        N, theta, tau = rng.randint(3, 100), rng.uniform(-0.5, 0.5), rng.uniform(-1.9, 3.0)
        p, l = rng.uniform(1.1, 12.0), theta + tau
        v = RadialFunction(grid, grid.points ** -rng.uniform(0.1, 3.0))
        yield v.interp, (x,)
        for n_prime, t in ((x, tau), (N + theta, x), (x, x)):
            yield critical_exponents, (n_prime, t)
            for which in ("minus", "plus"):
                yield crossing_by_bisection, (n_prime, t, which)
        for args in ((N, x, l, p), (N, theta, x, p), (N, theta, l, x), (N, x, x, p)):
            yield ProblemParams, args
            try:
                params = ProblemParams(*args)
            except EmdenlabError:
                continue
            for fn in (classify_p, kelvin_params, dual_params, sigma_inverse):
                yield fn, (params,)
            yield kelvin_apply, (v, params)
            yield sigma_apply, (v, params)
            yield q_value, (params, v, psi)
            for kind in ("kelvin", "dual", "sigma", "sigma_inverse", "bogus"):
                yield invariance_check, (kind, params, v, psi)
            m = max(2, math.ceil((params.p + 1.0) / (params.p - 1.0)))  # the least m at gamma = 1
            yield stable_estimate_check, (params, v, 1.0, m, psi)
        yield ProblemParams, (x, theta, l, p)
        params = ProblemParams(N, theta, l, p)
        # a node count that is not an integer, NaN and inf among them, or one beyond MAX_NODES
        for n in (x, 8.5, 10**20, 2**63):
            yield hardy_rayleigh_min, (theta, N, 1.0, 10.0, n)
            yield profile_spectrum, (params, 1e-2, 1e2, n)
            yield log_nodes, (1e-2, 1e2, n)
            yield RadialGrid.logspaced, (1e-2, 1e2, n)
        for density in (x, 1e15, 1e308):  # more nodes than MAX_NODES, or an infinite count
            yield _shoot_at_density, (params._replace(p=2.0 * params.sobolev), density)
        ell = rng.uniform(-10.0, 0.9 * (N - 2.0) ** 2 / 4.0)
        for args in ((N, x, ell, p), (N, 0.0, x, p), (N, 0.0, ell, x)):
            yield SchrodingerParams, args
            try:
                yield sigma_params, (SchrodingerParams(*args),)
            except EmdenlabError:
                pass
        yield stable_estimate_check, (params, v, x, 100, psi)
        yield stable_estimate_check, (params, v, 1.0, x, psi)
        for r_min, r_max in ((x, 1e3), (1e-3, x), (x, x)):
            yield RadialGrid.logspaced, (r_min, r_max, 10)
        values = np.full(grid.n, x)
        yield RadialFunction, (grid, values)
        if math.isfinite(x):
            params, w = ProblemParams(N, theta, l, p), RadialFunction(grid, values)
            yield dual_apply, (w,)
            yield kelvin_apply, (w, params)
            yield sigma_apply, (w, params)
            yield q_value, (params, w, psi)


#: Annuli far from r = 1, where a power of r alone leaves the float range.
FAR_ANNULI = ((1e100, 1e200), (1e-200, 1e-100), (1e-150, 1e150))


def _far_annulus_calls(seed: int, draws: int):
    """(function, args) of the function-level entry points on ``FAR_ANNULI``.

    psi is the bump scaled by 1, 1e-300 and 1e300, v is r^(-k) with k in
    [0.1, 1] or zero, and the parameters are drawn from the documented domain.
    """
    rng = random.Random(seed)
    for (r_min, r_max), scale, _ in itertools.product(FAR_ANNULI, (1.0, 1e-300, 1e300),
                                                      range(draws)):
        grid = RadialGrid.logspaced(r_min, r_max, 17)
        s = np.linspace(0.0, 1.0, grid.n)
        psi = TestFunction(grid, scale * (4.0 * s * (1.0 - s)) ** 2)
        N, theta, tau = rng.randint(3, 100), rng.uniform(-0.5, 0.5), rng.uniform(-1.9, 3.0)
        params = ProblemParams(N, theta, theta + tau, rng.uniform(1.1, 12.0))
        m = max(2, math.ceil((params.p + 1.0) / (params.p - 1.0)))  # the least m at gamma = 1
        k = rng.uniform(0.1, 1.0)
        for v in (RadialFunction(grid, grid.points ** -k), RadialFunction(grid, np.zeros(grid.n))):
            yield kelvin_apply, (v, params)
            yield sigma_apply, (v, params)
            yield q_value, (params, v, psi)
            yield residual, (v, params)
            for kind in ("kelvin", "dual", "sigma"):
                yield invariance_check, (kind, params, v, psi)
            yield stable_estimate_check, (params, v, 1.0, m, psi)


#: Index values whose square, or a power of the amplitude c0, leaves the float range.
HUGE = (1e160, 1e200, 1e300)


def _huge_index_calls(seed: int, draws: int):
    """(function, args) of the entry points that read N', tau, m or c0, one index huge.

    N' is huge through theta, alone or with l (which keeps tau), tau through
    l, and p itself; the other inputs are drawn from the documented domain.
    P is one number and its values on the n interior nodes.
    """
    rng = random.Random(seed)
    grid = RadialGrid.logspaced(1e-2, 1e2, 65)  # four decades: enough for a tail fit
    n = 16
    for x, _ in itertools.product(HUGE, range(draws)):
        N, theta, tau = rng.randint(3, 100), rng.uniform(-0.5, 0.5), rng.uniform(-1.9, 3.0)
        p, l = rng.uniform(1.1, 12.0), theta + tau
        v = RadialFunction(grid, grid.points ** -rng.uniform(0.1, 3.0))
        P = rng.uniform(0.0, 100.0)
        nodes = np.array([rng.uniform(0.0, 100.0) for _ in range(n)])
        for args in ((N, x, l, p), (N, x, x, p), (N, theta, x, p), (N, theta, l, x)):
            params = ProblemParams(*args)
            for potential in (P, nodes):
                yield assemble_forms, (params, potential, 1e-2, 1e2, n)
                yield radial_morse_index, (params, potential, 1e-2, 1e2, n)
            for fn in (residual, classify_decay, asymptotic_constant):
                yield fn, (v, params)
            yield sphere_constant_check, (params,)
            yield v_infinity, (params, grid)


def _label(fn, args) -> str:
    shown = (a if isinstance(a, (int, float, str)) else type(a).__name__ for a in args)
    return f"{fn.__qualname__}({', '.join(map(str, shown))})"


def test_library_entry_points_return_finite_or_raise_typed_on_extreme_input():
    # NaN, +-inf and +-1e300 in every float input, annuli far from r = 1 and
    # huge indices: a finite result or an EmdenlabError, never a raw
    # OverflowError, a RuntimeWarning or a NaN
    failures, outcomes = [], {"result": 0, "error": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, args in itertools.chain(_extreme_calls(seed=53, draws=3),
                                        _far_annulus_calls(seed=59, draws=6),
                                        _huge_index_calls(seed=61, draws=4)):
            try:
                result = fn(*args)
            except EmdenlabError:
                outcomes["error"] += 1
                continue
            except Exception as exc:  # collected, so one run lists every defect
                failures.append(f"{_label(fn, args)}: {type(exc).__name__}: {exc}")
                continue
            outcomes["result"] += 1
            if not _finite(result):
                failures.append(f"{_label(fn, args)}: non-finite result {result}")
    assert not failures, "\n".join(failures)
    # both outcomes occur, so neither path is vacuous
    assert outcomes["result"] and outcomes["error"], outcomes


def test_node_counts_beyond_max_nodes_are_invalid_input():
    # one node past the cap is refused before anything is allocated; the cap itself is not
    params, n = ProblemParams(5, 0.0, 0.0, 3.0), MAX_NODES + 1
    for call in (partial(hardy_rayleigh_min, 0.0, 5, 1.0, 10.0, n),
                 partial(profile_spectrum, params, 1e-2, 1e2, n),
                 partial(profile_spectrum, params, 1e-2, 1e2, n, 1.0),
                 partial(assemble_forms, params, 1.0, 1e-2, 1e2, n),
                 partial(radial_morse_index, params, 1.0, 1e-2, 1e2, n),
                 partial(log_nodes, 1e-2, 1e2, n),
                 partial(RadialGrid.logspaced, 1.0, 10.0, n),
                 partial(shoot, params, 1.0, 10.0, r_min=1.0, points_per_decade=MAX_NODES)):
        with pytest.raises(InvalidParameterError, match="MAX_NODES = 10000000"):
            call()
    assert stability._log_step(1.0, 10.0, MAX_NODES) == math.log(10.0) / (MAX_NODES + 1)


@pytest.mark.parametrize("n_prime, tau", [(11.0, math.inf), (math.nan, 0.0), (math.inf, 1.0)])
def test_non_finite_indices_are_invalid_input(n_prime, tau):
    for call in (partial(critical_exponents, n_prime, tau),
                 partial(crossing_by_bisection, n_prime, tau, "minus")):
        with pytest.raises(InvalidParameterError):
            call()


@pytest.mark.parametrize("n_prime, tau", [(2.5, 1.7e308), (2.0000000000000004, 1e300)])
def test_a_crossing_beyond_the_float_range_is_a_numerical_failure(n_prime, tau):
    # p = 1 + (2+tau)/m overflows: 2+tau near the float maximum, or N'-2 one ulp
    with pytest.raises(NumericalError, match="leaves the float range"):
        crossing_by_bisection(n_prime, tau, "minus")


def test_exponents_whose_coefficients_overflow_are_a_numerical_failure(capsys):
    # N' = 1e200: (N'-2)^2 overflows, a typed exit 3 and not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["exponents", "--N", "3", "--theta", "1e200", "--l", "1e200"])
    envelope = json.loads(capsys.readouterr().out)
    assert code == 3 and envelope["error"]["type"] == "numerical_failure", envelope
