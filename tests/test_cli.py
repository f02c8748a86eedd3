import json
import math
import subprocess
import sys

import pytest

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


def test_spectrum_command(capsys):
    env = run_json(
        [
            "spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3",
            "--a", "1e-2", "--b", "1e2", "--n", "600",
        ],
        capsys,
    )
    assert env["results"]["negative_count"] >= 1
    assert env["results"]["eigenvalues"][0] == env["results"]["min_eigenvalue"]


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


def test_shoot_exponent_overflow_exit_code(capsys):
    env = run_json(
        ["shoot", "--N", "100", "--theta", "0", "--l", "0", "--p", "2"], capsys, expect_code=3
    )
    assert env["error"]["type"] == "numerical_failure"
    assert "N'+tau" in env["error"]["message"]


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
