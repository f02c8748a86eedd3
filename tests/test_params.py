import math
from functools import partial

import numpy as np
import pytest

from emdenlab import params as params_module
from emdenlab import (
    InvalidParameterError,
    NumericalError,
    ProblemParams,
    RegimeLabel,
    SchrodingerParams,
    capital_gamma,
    classify_p,
    critical_exponents,
    crossing_by_bisection,
    delta,
    f_eval,
    gamma_of_p,
    hardy_constant,
)


def test_derive_unweighted_indices():
    params = ProblemParams(11, 0.0, 0.0, 2.0)
    assert params.n_prime == 11.0
    assert params.tau == 0.0
    assert params.serrin == pytest.approx(11.0 / 9.0, abs=1e-15)
    assert params.sobolev == pytest.approx(13.0 / 9.0, abs=1e-15)
    # root test: f vanishes at the Serrin exponent
    assert f_eval(params.serrin, params.n_prime, params.tau) == pytest.approx(0.0, abs=1e-12)


def test_derive_singular_amplitude():
    params = ProblemParams(5, 0.0, 0.0, 3.0)
    assert params.c0 == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_derive_effective_dimension_two_leaves_standard_regime():
    params = ProblemParams(3, -1.0, -1.0, 2.0)
    assert params.n_prime == 2.0
    assert not params.standard_regime
    assert params.serrin is None and params.sobolev is None and params.c0 is None


def test_derive_c0_out_of_the_float_range_raises_only_where_read():
    # c0 = 1560^200 overflows, c0 = (m (N'-2-m))^(1/0.00102) underflows to 0
    for p in (1.005, 1.00102041):
        params = ProblemParams(100, 0.0, -1.9, p)
        assert params.m_exp == pytest.approx(0.1 / (p - 1.0), rel=1e-12)
        assert (params.serrin, params.sobolev) == pytest.approx((98.1 / 98.0, 98.2 / 98.0))
        with pytest.raises(NumericalError, match="c0 leaves the float range"):
            params.c0


@pytest.mark.parametrize("N", [1, 2.5, math.inf, math.nan])
def test_problem_params_rejects_a_non_integer_or_small_dimension(N):
    with pytest.raises(InvalidParameterError, match="N must be an integer >= 2"):
        ProblemParams(N, 0.0, 0.0, 3.0)


def test_derive_rejects_p_at_most_one():
    with pytest.raises(InvalidParameterError):
        ProblemParams(5, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ProblemParams(5, 0.0, 0.0, 0.5)


def test_f_eval_values():
    # zero at the Serrin exponent
    assert f_eval(11.0 / 9.0, 11.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # large-p limit (2+tau)*(N'-2)
    assert f_eval(1e9, 11.0, 0.0) == pytest.approx(2.0 * 9.0, rel=1e-8)
    # direct arithmetic at p=7: 7*(1/3)*(26/3)
    assert f_eval(7.0, 11.0, 0.0) == pytest.approx(182.0 / 9.0, abs=1e-12)
    # cross-check against p * c0^(p-1)
    params = ProblemParams(11, 0.0, 0.0, 7.0)
    assert f_eval(7.0, 11.0, 0.0) == pytest.approx(7.0 * params.c0**6, rel=1e-13)
    with pytest.raises(InvalidParameterError):
        f_eval(1.0, 11.0, 0.0)


def test_gamma_of_p():
    assert gamma_of_p(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-5)
    assert gamma_of_p(2.0) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-14)
    assert gamma_of_p(3.0) > gamma_of_p(2.0)
    with pytest.raises(InvalidParameterError):
        gamma_of_p(1.0)


def test_capital_gamma():
    # large-p limit 10 + 4*tau
    assert capital_gamma(1e10, 0.0) == pytest.approx(10.0, rel=1e-4)
    assert capital_gamma(1e10, 0.5) == pytest.approx(12.0, rel=1e-4)
    assert capital_gamma(2.0, 0.0) == pytest.approx(10.0 + 4.0 * math.sqrt(2.0), abs=1e-13)
    # Gamma(p_c) = N' whenever p_c is finite
    for n_prime, tau in [(11.0, 0.0), (15.0, 0.5), (20.0, 1.0)]:
        p_c = critical_exponents(n_prime, tau).p_c
        assert capital_gamma(p_c, tau) == pytest.approx(n_prime, abs=1e-8)


def test_delta_identities():
    g2 = gamma_of_p(2.0)
    assert delta(11.0, 2.0, g2, 0.0) == pytest.approx(11.0 - 2.0 * (2.0 + g2), abs=1e-12)
    # delta at gamma(p) factors through capital_gamma
    for p in (1.5, 2.0, 5.0):
        for n_prime, tau in [(11.0, 0.0), (6.0, 0.3)]:
            lhs = delta(n_prime, p, gamma_of_p(p), tau)
            rhs = (p - 1.0) * (n_prime - capital_gamma(p, tau))
            assert lhs == pytest.approx(rhs, abs=1e-10)
    # vanishes exactly at p_c
    p_c = critical_exponents(11.0, 0.0).p_c
    assert delta(11.0, p_c, gamma_of_p(p_c), 0.0) == pytest.approx(0.0, abs=1e-7)


def test_delta_weight_balance_identity():
    # delta(N', p, gamma(p), tau~) == delta(N, p, gamma(p), 0) with
    # tau~ = (p-1)*theta / (2p + 2 sqrt(p(p-1))), for every p > 1
    for N, theta in [(5, 1.0), (11, -2.0)]:
        n_prime = N + theta
        for p in (1.5, 2.0, 5.0):
            tau_t = (p - 1.0) * theta / (2.0 * p + 2.0 * math.sqrt(p * (p - 1.0)))
            lhs = delta(n_prime, p, gamma_of_p(p), tau_t)
            rhs = delta(float(N), p, gamma_of_p(p), 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_critical_exponents_degenerate_quadratic():
    exps = critical_exponents(10.0, 0.0)
    assert exps.p_tilde_c == 4.0 / 3.0  # exact: linear root c/b
    assert exps.p_c is None
    a, b, c = exps.quadratic_coeffs
    assert a == 0.0


def test_critical_exponents_joseph_lundgren_point():
    exps = critical_exponents(11.0, 0.0)
    assert exps.p_c == pytest.approx((81.0 - 44.0 + 8.0 * math.sqrt(10.0)) / 9.0, abs=1e-13)
    assert exps.p_c == pytest.approx(6.9220, abs=5e-5)
    level = hardy_constant(11.0)
    assert abs(f_eval(exps.p_tilde_c, 11.0, 0.0) - level) <= 1e-10
    assert abs(f_eval(exps.p_c, 11.0, 0.0) - level) <= 1e-10


def test_critical_exponents_infinite_branch():
    assert critical_exponents(9.0, 0.0).p_c is None
    assert critical_exponents(10.5, 0.0).p_c is not None  # 10.5 > 10 + 4*0


def test_critical_exponents_window_ordering():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tau = rng.uniform(-1.8, 3.0)
        n_prime = rng.uniform(2.2, 40.0)
        if n_prime <= 2.0:
            continue
        exps = critical_exponents(n_prime, tau)
        serrin = (n_prime + tau) / (n_prime - 2.0)
        sobolev = (n_prime + 2.0 + 2.0 * tau) / (n_prime - 2.0)
        assert serrin < exps.p_tilde_c < sobolev
        if exps.p_c is not None:
            assert sobolev < exps.p_c


def test_crossing_by_bisection_rejects_an_unknown_branch():
    with pytest.raises(InvalidParameterError, match="which must be 'plus' or 'minus'"):
        crossing_by_bisection(11.0, 0.0, "middle")


@pytest.mark.parametrize("name, wrong, message", [
    ("_hardy_gap", lambda real, m, A, c: 2.0 * params_module.ROOT_RESIDUAL_TOL * (m + c),
     "misses the Hardy level"),
    ("crossing_by_bisection",
     lambda real, *args: real(*args) * (1.0 + 2.0 * params_module.CROSSCHECK_TOL),
     "disagrees with bisection"),
    ("_serrin_sobolev", lambda real, *args: (real(*args)[0],) * 2, r"escapes \(serrin, sobolev\)"),
    ("_serrin_sobolev", lambda real, *args: (real(*args)[0], 1e300),
     "is not above the Sobolev exponent"),
], ids=["residual", "bisection", "lower-window", "upper-window"])
def test_critical_exponents_rejects_a_root_its_checks_refute(name, wrong, message, monkeypatch):
    # a root whose Hardy gap is twice the residual bound, whose bisection twin
    # lies twice the cross-check bound away, or which leaves its window (an
    # empty (serrin, sobolev), or a Sobolev exponent of 1e300 above p_c) is a
    # numerical failure
    monkeypatch.setattr(params_module, name, partial(wrong, getattr(params_module, name)))
    with pytest.raises(NumericalError, match=message):
        critical_exponents(11.0, 0.0)


def test_critical_exponents_rejects_out_of_regime():
    with pytest.raises(InvalidParameterError):
        critical_exponents(2.0, 0.0)
    with pytest.raises(InvalidParameterError):
        critical_exponents(11.0, -2.0)


def test_sign_windows_of_f():
    # f - hardy level is negative below P_-, positive between P_- and P_+,
    # negative above P_+ (when P_+ exists); with no P_+ it stays positive.
    for n_prime, tau in [(11.0, 0.0), (14.0, 0.25), (6.0, 0.0)]:
        exps = critical_exponents(n_prime, tau)
        level = hardy_constant(n_prime)
        for p in np.linspace(1.001, 60.0, 900):
            sign = f_eval(p, n_prime, tau) - level
            if p < exps.p_tilde_c * (1.0 - 1e-9):
                assert sign < 0.0
            elif exps.p_c is None:
                if p > exps.p_tilde_c * (1.0 + 1e-9):
                    assert sign > 0.0
            elif exps.p_tilde_c * (1 + 1e-9) < p < exps.p_c * (1 - 1e-9):
                assert sign > 0.0
            elif p > exps.p_c * (1.0 + 1e-9):
                assert sign < 0.0


def test_p_c_monotonicity():
    taus = [0.0]
    values = [critical_exponents(n, 0.0).p_c for n in np.arange(10.5, 20.1, 0.5)]
    assert all(a > b for a, b in zip(values, values[1:]))
    values = [critical_exponents(20.0, t).p_c for t in (-0.5, 0.0, 0.5, 1.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_closed_form_agrees_with_bisection():
    rng = np.random.default_rng(11)
    for _ in range(60):
        tau = rng.uniform(-1.5, 2.0)
        n_prime = 10.0 + 4.0 * tau + rng.uniform(0.4, 20.0)
        exps = critical_exponents(n_prime, tau)
        assert abs(exps.p_c - crossing_by_bisection(n_prime, tau, "plus")) <= 1e-8
        assert abs(exps.p_tilde_c - crossing_by_bisection(n_prime, tau, "minus")) <= 1e-8


def test_removability_window_nonempty():
    rng = np.random.default_rng(3)
    for _ in range(40):
        tau = rng.uniform(-1.9, 2.5)
        n_prime = rng.uniform(2.1, 30.0)
        exps = critical_exponents(n_prime, tau)
        sobolev = (n_prime + 2.0 + 2.0 * tau) / (n_prime - 2.0)
        assert exps.p_tilde_c < sobolev
        if exps.p_c is not None:
            assert sobolev < exps.p_c


def test_classify_examples():
    assert classify_p(ProblemParams(11, 0.0, 0.0, 7.0)).label is RegimeLabel.AT_OR_ABOVE_PC
    assert classify_p(ProblemParams(11, 0.0, 0.0, 13.0 / 9.0)).label is RegimeLabel.SOBOLEV_EXACT
    assert classify_p(ProblemParams(11, 0.0, 0.0, 3.0)).label is RegimeLabel.REMOVABILITY_WINDOW
    assert classify_p(ProblemParams(11, 0.0, 0.0, 1.1)).label is RegimeLabel.BELOW_SERRIN
    assert classify_p(ProblemParams(11, 0.0, 0.0, 1.26)).label is RegimeLabel.SERRIN_TO_PTILDE


def test_classify_reports_weight_balance():
    cls = classify_p(ProblemParams(11, 0.0, 0.0, 3.0))
    assert cls.condition_weight_balance  # tau = 0 <= 0
    assert cls.removability_applies
    cls = classify_p(ProblemParams(11, 0.0, 0.5, 3.0))
    assert not cls.condition_weight_balance  # tau = 0.5 > 0 with theta = 0
    cls = classify_p(ProblemParams(11, 0.0, 0.0, 13.0 / 9.0))
    assert not cls.removability_applies


def test_classify_rejects_invalid():
    with pytest.raises(InvalidParameterError):
        classify_p(ProblemParams(2, 0.0, 0.0, 3.0))


def test_hardy_constant():
    assert hardy_constant(4.0) == 1.0
    assert hardy_constant(11.0) == 20.25
    for n_prime in (2.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="finite N' > 2"):
            hardy_constant(n_prime)
    # stability link: f(p_c) equals the hardy level when p_c is finite
    exps = critical_exponents(11.0, 0.0)
    assert f_eval(exps.p_c, 11.0, 0.0) == pytest.approx(hardy_constant(11.0), abs=1e-10)


def test_sigma_of():
    assert SchrodingerParams(5, 0.0, 0.0, 3.0).sigma == 0.0
    assert SchrodingerParams(5, 0.0, 2.0, 3.0).sigma == pytest.approx(1.0, abs=1e-14)
    assert SchrodingerParams(3, 0.0, 0.2, 2.0).sigma == pytest.approx(
        0.5 - math.sqrt(0.05), abs=1e-14
    )
    with pytest.raises(InvalidParameterError):
        SchrodingerParams(5, 0.0, 2.25, 3.0)


def test_sigma_quadratic_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        N = int(rng.integers(3, 12))
        ell = rng.uniform(-5.0, (N - 2.0) ** 2 / 4.0 - 1e-6)
        sp = SchrodingerParams(N, 0.0, ell, 2.0)
        s = sp.sigma
        assert abs(s * s - (N - 2.0) * s + ell) <= 1e-12


def test_hardy_condition_equivalence():
    # The Schrodinger-side inequality ell < ((2+alpha)/(p-1)) * (N-2-(2+alpha)/(p-1))
    # holds iff the sigma-mapped weighted problem is in the standard regime
    # with p above its Serrin exponent.
    from emdenlab import sigma_params

    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        N = int(rng.integers(3, 12))
        alpha = rng.uniform(-3.0, 3.0)
        ell = rng.uniform(-5.0, (N - 2.0) ** 2 / 4.0 - 1e-9)
        p = rng.uniform(1.05, 6.0)
        sp = SchrodingerParams(N, alpha, ell, p)
        image = sigma_params(sp)
        q = (2.0 + alpha) / (p - 1.0)
        lhs = ell < q * (N - 2.0 - q)
        rhs = image.standard_regime and (image.serrin is not None and p > image.serrin)
        if abs(ell - q * (N - 2.0 - q)) < 1e-9:
            continue  # skip knife-edge draws
        assert lhs == rhs
        checked += 1
    assert checked > 250
