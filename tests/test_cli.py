import csv
import json
import math
import subprocess
import sys
import warnings

import pytest

from emdenlab import (
    ProblemParams, cli, f_eval, hardy_constant, profile_spectrum, radial_morse_index,
)
from emdenlab.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys, expect_code=0):
    code, out = run_cli(args, capsys)
    assert code == expect_code, out
    return json.loads(out)


def test_exponents_degenerate_point(capsys):
    env = run_json(["exponents", "--N", "10", "--theta", "0", "--l", "0"], capsys)
    assert env["results"]["p_tilde_c"] == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert env["results"]["p_c"] == "infinity"
    assert env["inputs"] == {"N": 10, "theta": 0.0, "l": 0.0, "p": None}
    assert env["tool"] == "emdenlab"
    assert env["timestamp"] is None


def test_exponents_joseph_lundgren(capsys):
    env = run_json(["exponents", "--N", "11", "--theta", "0", "--l", "0"], capsys)
    assert env["results"]["p_c"] == pytest.approx(6.9220, abs=5e-5)


def test_exponents_with_p_reports_regime(capsys):
    env = run_json(
        ["exponents", "--N", "11", "--theta", "0", "--l", "0", "--p", "7"], capsys
    )
    assert env["results"]["regime"] == "at_or_above_pc"
    assert env["results"]["c0"] == pytest.approx((26.0 / 9.0) ** (1.0 / 6.0), rel=1e-12)


def test_exponents_invalid_input_is_machine_readable(capsys):
    code, out = run_cli(["exponents", "--N", "2", "--theta", "0", "--l", "0"], capsys)
    assert code == 2
    err = json.loads(out)
    assert err["error"]["type"] == "invalid_input"


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--N", "11", "--theta", "0"],
        ["exponents", "--N", "11", "--l", "0"],
        ["transform", "--kind", "kelvin", "--N", "5", "--theta", "0", "--l", "0"],
        ["transform", "--kind", "dual", "--N", "5", "--theta", "0", "--l", "0"],
        ["transform", "--kind", "sigma_inverse", "--N", "5", "--theta", "0", "--l", "0"],
        ["transform", "--kind", "sigma", "--alpha", "0", "--ell", "2", "--p", "3"],
    ],
    ids=["exponents-no-l", "exponents-no-theta", "kelvin-no-p", "dual-no-p",
         "sigma-inverse-no-p", "sigma-no-N"],
)
def test_missing_argument_is_invalid_input(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "invalid_input"


def test_classify_command(capsys):
    env = run_json(["classify", "--N", "11", "--theta", "0", "--l", "0", "--p", "3"], capsys)
    assert env["results"]["regime"] == "removability_window"
    assert env["results"]["condition_weight_balance"] is True


def test_shoot_writes_csv_with_exact_header(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    env = run_json(
        [
            "shoot", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
            "--kappa", "1", "--rmax", "1e4", "--tol", "1e-9", "--out", str(out),
        ],
        capsys,
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "r,v,scaled"
    first = lines[1].split(",")
    assert float(first[0]) > 0.0
    assert env["results"]["classification"] == "slow_decay"
    assert env["results"]["ordering_vs_singular"] == "below"
    # scaled column is r^m * v of the same row
    m = env["derived"]["m_exp"]
    r, v, scaled = (float(x) for x in first)
    assert scaled == pytest.approx(r**m * v, rel=1e-12)



def _reject_nan(token):
    if token == "NaN":
        raise ValueError("NaN is not JSON")
    return float(token)


@pytest.mark.parametrize("with_csv", [False, True], ids=["json", "csv"])
def test_shoot_where_r_to_the_m_leaves_the_float_range(with_csv, tmp_path, capsys):
    # m = 44.4: r^m overflows near r_max = 1e8 while r^m v stays near c0
    argv = ["shoot", "--N", "100", "--theta", "0", "--l", "0", "--p", "1.045", "--rmax", "1e8"]
    out = tmp_path / "profile.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(argv + (["--out", str(out)] if with_csv else []), capsys)
    assert code == 0, text
    results = json.loads(text, parse_constant=_reject_nan)["results"]
    assert math.isfinite(results["asymptotic_constant"])
    assert results["asymptotic_constant"] == pytest.approx(results["c0"], rel=1e-6)
    assert results["converged"] and results["classification"] == "slow_decay"
    if with_csv:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(math.isfinite(float(row["scaled"])) for row in rows)
        assert float(rows[-1]["scaled"]) == pytest.approx(results["c0"], rel=1e-6)


def test_spectrum_command(capsys):
    env = run_json(
        [
            "spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3",
            "--a", "1e-2", "--b", "1e2", "--n", "600",
        ],
        capsys,
    )
    results = env["results"]
    assert results["negative_count"] >= 1
    assert results["eigenvalues"][0] == results["min_eigenvalue"]
    diagnostics = results["diagnostics"]
    assert results["negative_tol"] == 1e-9 * diagnostics["matrix_scale"]
    assert diagnostics["count_margin"] == min(
        abs(x + results["negative_tol"]) for x in results["eigenvalues"]
    )


def test_spectrum_csv_cells_are_plain_numbers(capsys):
    code, out = run_cli(
        ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3", "--n", "200",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    cells = dict(zip(*csv.reader(out.splitlines())))
    eigenvalues = [float(x) for x in cells["results.eigenvalues"].split(";")]
    assert eigenvalues[0] == float(cells["results.min_eigenvalue"])


def test_spectrum_count_of_a_steep_profile_matches_liouville(capsys):
    # m = 100/3: the potential about v_infinity is the constant f(p), with
    # no samples of the steep profile to interpolate between
    env = run_json(
        [
            "spectrum", "--N", "60", "--theta", "0", "--l", "0", "--p", "1.06",
            "--a", "1e-2", "--b", "1e10", "--n", "2000",
        ],
        capsys,
    )
    liouville = math.log(1e12) * math.sqrt(f_eval(1.06, 60, 0.0) - hardy_constant(60)) / math.pi
    expect = math.floor(liouville)
    assert expect == 48
    assert env["results"]["negative_count"] == expect


def test_spectrum_shoot_profile(capsys):
    env = run_json(
        [
            "spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
            "--profile", "shoot:1.0", "--a", "1e-1", "--b", "1e3", "--n", "400",
            "--tol", "1e-9",
        ],
        capsys,
    )
    # shooting profile at p >= p_c is stable, like the singular one
    assert env["results"]["negative_count"] == 0


def test_transform_dual_identities(capsys):
    env = run_json(
        ["transform", "--kind", "dual", "--N", "5", "--theta", "0", "--l", "0", "--p", "3"],
        capsys,
    )
    assert env["results"]["identity_checks"]["n_prime_sum"] == 4.0
    assert env["results"]["identity_checks"]["tau_sum"] == -4.0


def test_transform_sigma(capsys):
    env = run_json(
        ["transform", "--kind", "sigma", "--N", "5", "--alpha", "0", "--ell", "2", "--p", "3"],
        capsys,
    )
    assert env["results"]["image"]["theta"] == pytest.approx(-2.0, abs=1e-14)
    assert env["results"]["image"]["l"] == pytest.approx(-4.0, abs=1e-14)
    assert env["results"]["identity_checks"]["sigma"] == pytest.approx(1.0, abs=1e-14)


def test_transform_sigma_invalid_ell(capsys):
    code, out = run_cli(
        ["transform", "--kind", "sigma", "--N", "5", "--alpha", "0", "--ell", "3", "--p", "3"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("kind", [
    ["sigma", "--alpha", "0", "--ell", "1"],
    ["sigma_inverse", "--theta", "0", "--l", "0"],
], ids=["sigma", "sigma_inverse"])
def test_transform_sigma_at_a_huge_dimension_is_a_numerical_failure(kind, capsys):
    # (N-2)^2/4 leaves the float range at N = 10^200: typed, not an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = run_json(["transform", "--kind", *kind, "--N", "1" + "0" * 200, "--p", "3"],
                       capsys, expect_code=3)
    assert env["error"]["type"] == "numerical_failure"
    assert "(N'-2)^2/4 overflows" in env["error"]["message"]


@pytest.mark.parametrize(("argv", "p_tilde_c", "p_c"), [
    (["exponents", "--N", "100", "--theta", "0", "--l=-1.997"],
     1.0000607509931772502, 1.0000617092331061803),
    (["classify", "--N", "100", "--theta", "0", "--l=-1.997", "--p", "2"],
     None, 1.0000617092331061803),
    (["exponents", "--N", "10", "--theta", "1e-9", "--l", "1e-9"],
     1.3333333332962962932, 5999999504.4744817479),
], ids=["tau-near-minus-two", "classify-tau-near-minus-two", "p_c-near-infinity"])
def test_critical_powers_near_the_ends_of_the_regime(argv, p_tilde_c, p_c, capsys):
    # tau = -1.997 at N' = 100, and N' = 10 + 1e-9 at tau = 0, where p_c is
    # about 6e9; the expected values are 50-digit roots, to 4.5e-16 relative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = run_json(argv, capsys)
    results, derived = env["results"], env["derived"]
    if argv[0] == "classify":
        assert results["regime"] == "at_or_above_pc"
        assert results["p_c_weighted"] == pytest.approx(p_c, rel=4.5e-16, abs=0.0)
        return
    assert derived["serrin"] < results["p_tilde_c"] < derived["sobolev"] < results["p_c"]
    assert results["p_tilde_c"] == pytest.approx(p_tilde_c, rel=4.5e-16, abs=0.0)
    assert results["p_c"] == pytest.approx(p_c, rel=4.5e-16, abs=0.0)


def test_sweep_exponents_monotone(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 11:15:5\ntau = 0\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_prime,tau,serrin,sobolev,p_tilde_c,p_c,error"
    pcs = [float(row.split(",")[5]) for row in lines[1:]]
    assert all(a > b for a, b in zip(pcs, pcs[1:]))


def test_sweep_tau_monotone(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 15\ntau = 0,0.5,1\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    lines = out.strip().splitlines()
    pcs = [float(row.split(",")[5]) for row in lines[1:]]
    assert all(a < b for a, b in zip(pcs, pcs[1:]))


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 11:15:0\ntau = 0\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert out == "n_prime,tau,serrin,sobolev,p_tilde_c,p_c,error\n"


def test_sweep_partial_failures_recorded(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 2,11\ntau = 0\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == ""  # failed row keeps only the inputs
    assert "N'" in lines[1] or "need" in lines[1]
    assert lines[2].split(",")[6] == ""  # good row has empty error cell


SPECTRUM_SWEEP = "mode = spectrum\nN = 11\ntheta = 0\nl = 0\np = 3\nn = 200\n"


@pytest.mark.parametrize(
    "config, argv",
    [
        (None, None),  # no such file
        (SPECTRUM_SWEEP.replace("theta = 0\n", ""), None),
        ("mode = exponents\nnprime = abc\ntau = 0\n", None),
        ("mode = exponents\nnprime = 11:15:2.5\ntau = 0\n", None),
        (SPECTRUM_SWEEP.replace("N = 11", "N = 11.7"), None),
        (SPECTRUM_SWEEP + "profile = shoot:1\n", None),
        (None, ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
                "--profile", "shoot:abc"]),
        (SPECTRUM_SWEEP.replace("p = 3\n", ""), None),
        ("mode = exponents\ntau = 0\n", None),
        ("mode = exponents\nnprime = 11\n", None),
        ("mode = exponents\nnprime = 11\nnprime = 12\ntau = 0\n", None),
    ],
    ids=["missing-file", "missing-key", "not-a-number", "fractional-count",
         "fractional-N", "unknown-key", "profile-kappa", "spectrum-no-p",
         "exponents-no-nprime", "exponents-no-tau", "duplicate-key"],
)
def test_malformed_sweep_or_profile_is_invalid_input(config, argv, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    if config is not None:
        cfg.write_text(config)
    code, out = run_cli(argv or ["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "invalid_input"


def test_duplicate_sweep_key_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 11\nnprime = 12\ntau = 0\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["message"] == f"{cfg}:3: duplicate key 'nprime'"


def test_sweep_spectrum_row_on_a_wide_annulus_at_large_n(tmp_path, capsys):
    # r^(N'-1) spans 1e+-174 on [1e-6, 1e6]: the mass scaling must not overflow
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "mode = spectrum\nN = 30\ntheta = 0\nl = 0\np = 3\na = 1e-6\nb = 1e6\nn = 1000\n"
    )
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    header, row = (line.split(",") for line in out.strip().splitlines())
    cells = dict(zip(header, row))
    assert cells["error"] == ""
    assert float(cells["f_p"]) < float(cells["hardy_level"])
    assert cells["negative_count"] == "0"


def test_shoot_at_n_prime_100(capsys):
    env = run_json(["shoot", "--N", "100", "--theta", "0", "--l", "0", "--p", "2"], capsys)
    results = env["results"]
    assert math.isfinite(results["asymptotic_constant"])
    assert results["asymptotic_constant"] == pytest.approx(results["c0"], rel=1e-6)
    diagnostics = results["diagnostics"]
    assert isinstance(diagnostics["nfev"], int) and diagnostics["nfev"] > 0
    assert diagnostics["zeta_residual"] < 1e-6
    assert diagnostics["log_amplitude_residual"] < 1e-6


@pytest.mark.parametrize("p", ["1.005", "1.00102041"], ids=["overflow", "underflow"])
def test_singular_amplitude_outside_the_float_range_exit_code(p, capsys):
    env = run_json(
        ["exponents", "--N", "100", "--theta", "0", "--l", "-1.9", "--p", p], capsys, expect_code=3
    )
    assert env["error"]["type"] == "numerical_failure"


def test_spectrum_at_a_huge_n_prime_is_a_numerical_failure(tmp_path, capsys):
    # N' = 1e200: (N'-2)^2/4 overflows; exit 3 with JSON, and each sweep row
    # records the error, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = run_json(["spectrum", "--N", "2", "--theta", "1e200", "--l", "1e200", "--p", "3",
                        "--n", "20"], capsys, expect_code=3)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mode = spectrum\nN = 2\ntheta = 1e200\nl = 1e200\np = 3,5\nn = 20\n")
        code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert err["error"]["type"] == "numerical_failure", err
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2 and all("overflows" in row["error"] for row in rows), rows


@pytest.mark.parametrize("points", ["0", "-5"])
def test_shoot_non_positive_points_per_decade_is_invalid_input(points, capsys):
    # it once gave a 2-point grid and an inconclusive tail with exit 0
    argv = ["shoot", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
            "--points-per-decade", points]
    err = run_json(argv, capsys, expect_code=2)
    assert err["error"]["type"] == "invalid_input"
    assert "points_per_decade" in err["error"]["message"]


def test_shoot_near_tau_minus_two(capsys):
    # tau = -1.927: the fixed start radius once put log1p's argument below -1
    env = run_json(["shoot", "--N", "3", "--theta=1.25957", "--l=-0.667567", "--p", "2.6319"],
                   capsys)
    assert env["results"]["classification"] == "slow_decay"
    assert env["results"]["asymptotic_constant"] == pytest.approx(env["results"]["c0"], rel=0.05)
    env = run_json(["shoot", "--N", "5", "--theta", "0", "--l=-1.99", "--p", "1.5"], capsys,
                   expect_code=3)
    assert env["error"]["type"] == "numerical_failure"
    assert "tau = -1.99" in env["error"]["message"]


def test_negative_value_in_exponent_notation_is_a_value(capsys):
    spaced = ["classify", "--N", "18", "--theta", "-9.189673215287408e-05",
              "--l", "-1.19", "--p", "11.9"]
    joined = ["classify", "--N", "18", "--theta=-9.189673215287408e-05",
              "--l", "-1.19", "--p", "11.9"]
    code, out = run_cli(spaced, capsys)
    assert code == 0, out
    assert json.loads(out)["inputs"]["theta"] == -9.189673215287408e-05
    assert run_cli(joined, capsys) == (0, out)


@pytest.mark.parametrize("value", ["-1.", "-1_0", "-2.5e-3", "-.5"])
def test_negative_value_after_a_space_is_the_option_value(value, capsys):
    # argparse takes "-1." and "-1_0" for options unless they are attached
    common = ["exponents", "--N", "20", "--l", "0"]
    code, out = run_cli([*common, "--theta", value], capsys)
    assert code == 0, out
    assert json.loads(out)["inputs"]["theta"] == float(value)
    assert run_cli([*common, f"--theta={value}"], capsys) == (0, out)


def test_spectrum_echoes_the_shooting_tolerance(capsys):
    env = run_json(["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
                    "--profile", "shoot:1", "--a", "0.1", "--b", "1e3", "--n", "100",
                    "--tol", "1e-8"], capsys)
    assert env["inputs"] == {"N": 11, "theta": 0.0, "l": 0.0, "p": 7.0, "profile": "shoot:1",
                             "a": 0.1, "b": 1e3, "n": 100, "tol": 1e-8}


def test_spectrum_profile_outside_the_float_range_exit_code(capsys):
    # c0 r^(-m) leaves the float64 range on [1e-12, 1e12], but the potential
    # about it is the constant f(p): the spectrum has its Liouville count
    env = run_json(
        ["spectrum", "--N", "100", "--theta", "0", "--l", "0", "--p", "1.0408",
         "--a", "1e-12", "--b", "1e12", "--n", "2000"],
        capsys,
    )
    liouville = math.log(1e24) * math.sqrt(f_eval(1.0408, 100, 0.0) - hardy_constant(100))
    assert math.floor(liouville / math.pi) == 174
    assert env["results"]["negative_count"] == 174


def test_spectrum_shoot_profile_on_a_coarse_grid_is_inconclusive_not_invalid(capsys):
    # n = 8 puts 2 nodes in the last decade of [1e-3, 1e3]: too few for the
    # shot's tail fit, which the spectrum does not read, so it still returns
    env = run_json(
        ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
         "--profile", "shoot:1", "--a", "1e-3", "--b", "1e3", "--n", "8"],
        capsys,
    )
    assert env["results"]["negative_count"] == 0


def test_spectrum_shoot_profile_near_the_origin_where_the_tail_fit_fails(capsys):
    # w = r^30 v underflows on [1e-20, 1e-12]: the shot's own report fails
    # (exit 3 before 0.14.0), the spectrum reads only its state and starts
    # just above the level (N'-2)^2/4 = 1332.25
    argv = ["spectrum", "--N", "75", "--theta", "0", "--l", "0", "--p", "1.0666666666666667",
            "--profile", "shoot:1", "--a", "1e-20", "--b", "1e-12", "--n", "400"]
    results = run_json(argv, capsys)["results"]
    assert results["negative_count"] == 0
    assert 1332.25 < results["min_eigenvalue"] < 1332.25 + 0.1
    shot = ["shoot", *argv[1:9], "--kappa", "1", "--rmin", "1e-20", "--rmax", "1e-12"]
    err = run_json(shot, capsys, expect_code=3)
    assert "not a normal positive float" in err["error"]["message"]


def test_spectrum_shoot_profile_reports_c0_outside_the_float_range(capsys):
    # a shot spectrum reads no c0, so the derived block prints it as null
    # where it leaves the float range, and the count is the library's
    argv = ["spectrum", "--N", "100", "--theta", "0", "--l=-1.9", "--p", "1.005",
            "--profile", "shoot:1", "--a", "1e-3", "--b", "1e3", "--n", "2000"]
    env = run_json(argv, capsys)
    assert env["derived"]["c0"] is None
    params = ProblemParams(100, 0.0, -1.9, 1.005)
    report = profile_spectrum(params, 1e-3, 1e3, 2000, kappa=1.0)
    assert env["results"]["negative_count"] == report.negative_count == 0
    assert env["results"]["eigenvalues"] == list(report.eigenvalues)
    # the parameter commands still read c0
    err = run_json(["classify", *argv[1:8]], capsys, expect_code=3)
    assert err["error"]["message"] == "c0 leaves the float range at N' = 100.0, p = 1.005"


@pytest.mark.parametrize("argv", [
    ["--N", "100", "--theta", "0", "--l=-1.9", "--p", "1.005", "--n", "100"],
    ["--N", "60", "--theta=0.0", "--l=-1.9797724287503649", "--p", "1.0027246832364296",
     "--a", "6.165266222187123e-13", "--b", "6228.143080579422", "--n", "19155"],
], ids=["n-prime-100", "n-prime-60"])
def test_v_infinity_spectrum_runs_where_only_c0_leaves_the_float_range(argv, capsys):
    # the closed form reads f(p), not c0: the singular solution's existence is
    # the sign of c0's base m (N'-2-m), so c0 prints as null
    env = run_json(["spectrum", *argv], capsys)
    assert env["derived"]["c0"] is None
    inputs = env["inputs"]
    params = ProblemParams(inputs["N"], inputs["theta"], inputs["l"], inputs["p"])
    report = profile_spectrum(params, inputs["a"], inputs["b"], inputs["n"])
    assert env["results"]["negative_count"] == report.negative_count == 0
    assert env["results"]["eigenvalues"] == list(report.eigenvalues)


@pytest.mark.parametrize(("argv", "code", "message"), [
    (["--rmax", "1e300", "--rmin", "1e-10"], 2, "log(r_max/r_min) must be finite"),
    # the default grid start is about 1e-306
    (["--kappa", "1e300"], 3, "default grid start radius underflows below r_max at tau = 0.0"),
], ids=["r_min", "series-start"])
def test_shoot_grid_whose_ratio_overflows_is_a_typed_error(argv, code, message, capsys):
    # r_max over the grid's start overflows: a typed error, not an OverflowError
    err = run_json(["shoot", "--N", "5", "--theta", "0", "--l", "0", "--p", "3", *argv], capsys,
                   expect_code=code)
    assert err["error"]["message"] == message


def test_spectrum_shoot_profile_with_its_series_start_above_a(capsys):
    # kappa = 0.01 puts the intrinsic scale at r = 1e6, beyond b = 1e3: the
    # origin series gives every assembly node but the last
    env = run_json(
        ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "7",
         "--profile", "shoot:0.01", "--a", "1e-3", "--b", "1e3", "--n", "400"],
        capsys,
    )
    assert env["results"]["negative_count"] == 0


def test_spectrum_shoot_profile_whose_series_start_lies_at_log_r_minus_2300(capsys):
    # near tau = -2 the origin series hands over to LSODA at log r = -2300, far
    # below the float range of r, so the start is formed in logs
    env = run_json(
        ["spectrum", "--N", "20", "--theta=0", "--l=-1.997", "--p", "2.201936167302555",
         "--profile", "shoot:3", "--n", "200", "--a", "1e-1", "--b", "1e3"],
        capsys,
    )
    assert env["results"]["negative_count"] == 0
    assert env["results"]["min_eigenvalue"] == pytest.approx(81.0186, rel=1e-5)


def test_spectrum_of_a_huge_p_shot_sees_its_hardy_type_potential(capsys):
    # at p = 1e300 the shot's P r^2 = p e^((p-1) y) is the Gelfand limit's
    # e^psi = 0.1458, above the Hardy level (N'-2)^2/4 = 0.0013 at N' = 2.073:
    # four decades hold one oscillation, so one negative eigenvalue
    env = run_json(
        ["spectrum", "--N", "3", "--theta=-0.9271105946461669", "--l=-0.9271105946461669",
         "--p=1e300", "--profile=shoot:1.0", "--n", "400", "--a=5.058372187918504e-06",
         "--b=0.04144809704688392"],
        capsys,
    )
    assert env["results"]["negative_count"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        # c0 = 1e250 with m = 0.5: c0^(1/m) = 1e500 is out of range, v is in 3e248-3e251
        ["--N", "22", "--theta", "0.5", "--l=-1.498", "--p", "1.004", "--n", "100"],
        # tau = -1.997: c0^(1/m) underflows to 0
        ["--N", "2", "--theta=0.2968522914958875", "--l=-1.7000200372412348",
         "--p=1.0183190369850659", "--a=9.949747592349819e-13", "--b=5941.882860195445",
         "--n", "287"],
    ],
    ids=["overflow", "underflow"],
)
def test_spectrum_profile_with_c0_to_the_1_over_m_out_of_range(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = run_json(["spectrum", *argv], capsys)
    assert env["results"]["negative_count"] >= 0
    assert all(math.isfinite(x) for x in env["results"]["eigenvalues"])


def test_sweep_infinity_is_empty_cell(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode = exponents\nnprime = 9\ntau = 0\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    row = out.strip().splitlines()[1].split(",")
    assert row[5] == ""


def test_json_roundtrip(capsys):
    env = run_json(["exponents", "--N", "11", "--theta", "0", "--l", "0"], capsys)
    assert json.loads(json.dumps(env)) == env


def test_flat_csv_format(capsys):
    code, out = run_cli(
        ["exponents", "--N", "11", "--theta", "0", "--l", "0", "--format", "csv"], capsys
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert "results.p_c" in header.split(",")


def test_determinism_byte_identical():
    cmd = [
        sys.executable, "-m", "emdenlab",
        "exponents", "--N", "11", "--theta", "0.5", "--l", "1.5", "--p", "3",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b


def test_numerical_failure_exit_code(capsys, monkeypatch):
    # build_parser() binds the command functions when main() runs, so a
    # module-level patch is visible and the failure path is exercised
    import emdenlab.cli as cli_mod
    from emdenlab.errors import NumericalError

    def boom(args):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod, "cmd_exponents", boom)
    code, out = run_cli(["exponents", "--N", "11", "--theta", "0", "--l", "0"], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "numerical_failure"


def test_shoot_length_scale_overflow_is_a_numerical_failure(capsys):
    # kappa^(-(p-1)/(2+tau)) = 1e480 at tau = -1.9
    argv = ["shoot", "--N", "5", "--theta", "0", "--l=-1.9", "--p", "2.6", "--kappa", "1e-30"]
    err = run_json(argv, capsys, expect_code=3)
    assert err["error"]["type"] == "numerical_failure"
    assert "overflows" in err["error"]["message"]


def test_shoot_series_start_beyond_r_max_is_a_numerical_failure(capsys):
    # kappa^(-(p-1)/(2+tau)) = 1e160 at tau = -1.9, so the default grid
    # start radius lies far beyond r_max
    argv = ["shoot", "--N", "5", "--theta", "0", "--l=-1.9", "--p", "2.6", "--kappa", "1e-10"]
    err = run_json(argv, capsys, expect_code=3)
    assert err["error"]["type"] == "numerical_failure"
    message = err["error"]["message"]
    assert "kappa = 1e-10" in message and "default grid start radius" in message


def test_a_given_grid_never_forms_the_kappa_length_scale(capsys):
    # kappa^(-(p-1)/(2+tau)) = 1e1350 at kappa = 1e-300, p = 10, tau = 0: only
    # the default grid reads it, so a spectrum on its own nodes and a shot from
    # --rmin return; there P = p r^2 v^9 underflows to 0, and v stays below c0 r^(-m)
    argv = ["--N", "5", "--theta", "0", "--l", "0", "--p", "10"]
    env = run_json(["spectrum", *argv, "--profile", "shoot:1e-300", "--a", "1e-3", "--b", "1e3",
                    "--n", "200"], capsys)
    free = radial_morse_index(ProblemParams(5, 0.0, 0.0, 10.0), 0.0, 1e-3, 1e3, 200)
    assert env["results"]["negative_count"] == free.negative_count == 0
    assert env["results"]["eigenvalues"] == pytest.approx(list(free.eigenvalues), rel=1e-13)
    env = run_json(["shoot", *argv, "--kappa", "1e-300", "--rmin", "1e-3", "--rmax", "1e6"],
                   capsys)
    assert env["results"]["ordering_vs_singular"] == "below"


#: N' = 75.14, m = 30.4, b/a = 1e23: v falls to about 1e-669 at b, while
#: w = r^m v stays near c0
_WIDE = ["--N", "75", "--theta=1.422965e-01", "--l=2.103800e-02", "--p", "1.061731941e+00"]


def test_spectrum_shoot_profile_where_v_underflows(capsys):
    # the potential comes from the shot's w, so the spectrum is well defined
    argv = ["spectrum", *_WIDE, "--profile", "shoot:1.416615e+01", "--a", "1.187770e-01",
            "--b", "1.135975e+22", "--n", "1990"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = run_json(argv, capsys)
    assert env["results"]["negative_count"] == 96


@pytest.mark.parametrize("with_csv", [False, True], ids=["json", "csv"])
def test_shoot_where_v_underflows(with_csv, tmp_path, capsys):
    # the report reads w; only the --out table's v column needs v itself
    out = tmp_path / "profile.csv"
    argv = ["shoot", *_WIDE, "--kappa", "14.16615", "--rmax", "1.135975e+22"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(argv + (["--out", str(out)] if with_csv else []), capsys)
    envelope = json.loads(text)
    if with_csv:
        assert code == 3 and "underflows" in envelope["error"]["message"], envelope
        assert not out.exists()
    else:
        results = envelope["results"]
        assert code == 0 and results["converged"], envelope
        assert abs(results["asymptotic_constant"] / results["c0"] - 1.0) <= 1e-6


@pytest.mark.parametrize("argv", [
    ["--l=-1.9", "--p", "1.012"],  # the default grid starts far below the kappa scale
    ["--l", "0", "--p", "1.045", "--rmin", "1e-8", "--rmax", "1e4"],
], ids=["near_tau_minus_two", "deep_rmin"])
def test_shoot_out_where_w_underflows_at_the_head(argv, tmp_path, capsys):
    # y = log(r^m v) is below -708 at the head of the grid while v is about
    # kappa there: v comes from y, so the table is written, and its scaled
    # column reads w rounded to the float range
    out = tmp_path / "profile.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["shoot", "--N", "100", "--theta", "0", *argv, "--out", str(out)],
                             capsys)
    assert code == 0, text
    with open(out, newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert all(v > 0.0 for _, v, _ in rows)
    assert rows[0][1] == pytest.approx(1.0, rel=1e-4) and rows[0][2] == 0.0


def test_exponents_without_p_reads_no_singular_amplitude(capsys):
    # without --p the placeholder power must not reach c0 (which would leave
    # the float range at p = 2.0): the fault reported is the level's overflow
    argv = ["exponents", "--N", "2", "--theta", "1e200", "--l", "1.5e200"]
    err = run_json(argv, capsys, expect_code=3)
    assert err["error"]["type"] == "numerical_failure"
    assert err["error"]["message"].startswith("(N'-2)^2/4 overflows"), err
    assert "p = 2.0" not in err["error"]["message"]


@pytest.mark.parametrize("p", [[], ["--p", "3"]], ids=["no-p", "p"])
@pytest.mark.parametrize(
    "weights", [["--N", "5", "--theta", "0", "--l", "0"], ["--N", "11", "--theta", "0", "--l", "0"]],
    ids=["p_c-infinite", "p_c-finite"],
)
def test_no_exponents_report_has_a_null_critical_power(weights, p, capsys):
    # an infinite critical power is the string "infinity", never null
    results = run_json(["exponents", *weights, *p], capsys)["results"]
    powers = {k: v for k, v in results.items() if k.startswith("p_")}
    assert set(powers) == {"p_tilde_c", "p_c"}
    assert None not in powers.values()
    code, out = run_cli(["exponents", *weights, *p, "--format", "csv"], capsys)
    header, row = (line.split(",") for line in out.strip().splitlines())
    cells = {k: v for k, v in zip(header, row) if k.startswith("results.p_")}
    assert code == 0 and set(cells) == {"results.p_tilde_c", "results.p_c"}
    assert "" not in cells.values()


#: One argv per report kind: every command but sweep, both spectrum profiles,
#: every transform kind, exponents with and without --p.
EVERY_REPORT = [
    ["exponents", "--N", "11", "--theta", "0", "--l", "0"],
    ["exponents", "--N", "11", "--theta", "0.5", "--l", "1.5", "--p", "3"],
    ["classify", "--N", "11", "--theta", "0", "--l", "0", "--p", "3"],
    ["shoot", "--N", "11", "--theta", "0", "--l", "0", "--p", "7", "--rmax", "1e4",
     "--points-per-decade", "16"],
    ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3", "--n", "100"],
    ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "7", "--profile", "shoot:1",
     "--a", "0.1", "--b", "1e3", "--n", "100"],
    ["transform", "--kind", "kelvin", "--N", "5", "--theta", "0", "--l", "0", "--p", "3"],
    ["transform", "--kind", "dual", "--N", "5", "--theta", "0", "--l", "0", "--p", "3"],
    ["transform", "--kind", "sigma_inverse", "--N", "5", "--theta", "0", "--l", "0", "--p", "3"],
    ["transform", "--kind", "sigma", "--N", "5", "--alpha", "0", "--ell", "2", "--p", "3"],
]
PLAIN_TYPES = {float, int, bool, str, type(None)}


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", EVERY_REPORT, ids=[
    "exponents", "exponents-p", "classify", "shoot", "spectrum", "spectrum-shoot", "kelvin",
    "dual", "sigma_inverse", "sigma"])
def test_every_report_leaf_is_a_plain_python_value(argv, fmt, tmp_path, monkeypatch, capsys):
    # the envelope is printed as built: a numpy scalar here would print as
    # np.float64(...) in a CSV cell, so each leaf must be exactly a plain type
    envelopes = []
    real = cli._envelope
    monkeypatch.setattr(cli, "_envelope", lambda *a: envelopes.append(real(*a)) or envelopes[-1])
    code, out = run_cli([*argv, "--format", fmt], capsys)
    assert code == 0, out
    [envelope] = envelopes
    assert {type(x) for x in _leaves(envelope)} <= PLAIN_TYPES
    assert "np." not in out


@pytest.mark.parametrize("config", [
    "mode = exponents\nnprime = 9:12:4\ntau = 0,1\n",
    "mode = spectrum\nN = 11\ntheta = 0\nl = 0\np = 1.5,3,7\nn = 100\n",
], ids=["exponents", "spectrum"])
def test_every_sweep_cell_is_a_plain_python_value(config, tmp_path, monkeypatch, capsys):
    cells = []
    real = cli._csv_cell
    monkeypatch.setattr(cli, "_csv_cell", lambda value: cells.append(value) or real(value))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0 and cells, out
    assert {type(x) for x in cells} <= PLAIN_TYPES
    assert "np." not in out


@pytest.mark.parametrize("config, argv, message", [
    (None, ["spectrum", "--N", "2", "--theta", "0", "--l", "0", "--p", "3"],
     "need N' > 2 and tau > -2"),
    (None, ["classify", "--N", "5", "--theta", "0", "--l=-2", "--p", "3"],
     "need N' > 2 and tau > -2"),
    (None, ["exponents", "--N", "5", "--theta", "0", "--l=-2"], "need N' > 2 and tau > -2"),
    (None, ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3",
            "--profile", "v_zero"], "profile must be 'v_infinity' or 'shoot:<kappa>'"),
    ("nprime = 11:15\ntau = 0\n", None, "range must be start:stop:count, got '11:15'"),
    ("nprime = 11:15:-1\ntau = 0\n", None, "range count must be >= 0"),
    ("nprime = 11\ntau = 0\nmode exponents\n", None, "expected 'key = value'"),
    ("mode = spectra\n", None, "unknown sweep mode 'spectra'"),
], ids=["spectrum-n-prime-2", "classify-tau-minus-2", "exponents-tau-minus-2",
        "unknown-profile", "two-part-range", "negative-count", "no-equals-sign", "unknown-mode"])
def test_input_check_names_its_fault(config, argv, message, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    if config is not None:
        cfg.write_text(config)
    err = run_json(argv or ["sweep", "--config", str(cfg)], capsys, expect_code=2)
    assert err["error"]["type"] == "invalid_input"
    assert message in err["error"]["message"]


def test_sweep_one_point_range_is_its_start(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("nprime = 11:15:1\ntau = 0\n")
    code, out = run_cli(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [(row["n_prime"], row["tau"]) for row in rows] == [("11.0", "0.0")]


@pytest.mark.parametrize("command", ["exponents", "sweep", "shoot"])
def test_unwritable_out_path_is_invalid_input(command, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("nprime = 11\ntau = 0\n")
    argv = {
        "exponents": ["exponents", "--N", "11", "--theta", "0", "--l", "0"],
        "sweep": ["sweep", "--config", str(cfg)],
        "shoot": ["shoot", "--N", "11", "--theta", "0", "--l", "0", "--p", "7", "--rmax", "1e3"],
    }[command]
    err = run_json([*argv, "--out", str(out)], capsys, expect_code=2)
    assert err["error"] == {
        "type": "invalid_input",
        "message": f"cannot write --out {str(out)!r}: No such file or directory",
    }
    assert not out.parent.exists()


@pytest.mark.parametrize("epoch", ["abc", "1.5", ""])
def test_malformed_source_date_epoch_is_invalid_input(epoch, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    err = run_json(["exponents", "--N", "11", "--theta", "0", "--l", "0"], capsys, expect_code=2)
    assert err["error"] == {
        "type": "invalid_input",
        "message": f"SOURCE_DATE_EPOCH must be an integer, got {epoch!r}",
    }
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    env = run_json(["exponents", "--N", "11", "--theta", "0", "--l", "0"], capsys)
    assert env["timestamp"] == 1700000000


def test_exponents_where_the_lower_crossing_is_near_2e8(capsys):
    # N' = 2 + 1e-8: the closed form and bisection differ by about one ulp of
    # p_tilde_c = 2.0000000247e8, far above an absolute 1e-8
    argv = ["exponents", "--N", "3", "--theta=-0.99999999", "--l=-0.99999999"]
    results = run_json(argv, capsys)["results"]
    assert results["p_tilde_c"] == pytest.approx(200000002.4654942, rel=1e-15)
    assert results["serrin"] < results["p_tilde_c"] < results["sobolev"]
