"""Tests of the benchmark itself: its gates, its oracles and a tiny run of
every workload.  No timing bound is asserted anywhere."""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
import worker
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ oracles


def test_critical_powers_match_known_values():
    p_tilde, p_c = oracles.critical_powers(11.0, 0.0)
    assert p_c == pytest.approx(6.9220, abs=5e-5)
    assert abs(oracles.f(p_tilde, 11.0, 0.0) - oracles.level(11.0)) <= 1e-10
    p_tilde, p_c = oracles.critical_powers(10.0, 0.0)
    assert p_tilde == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert math.isinf(p_c)


def test_linearisation_discriminant_is_the_sign_dichotomy():
    # focus (omega > 0) exactly when f(p) exceeds the Hardy level
    for p in (1.5, 3.0, 6.0, 8.0):
        _, omega = oracles.linearisation(p, 11.0, 0.0)
        assert (omega > 0.0) == (oracles.f(p, 11.0, 0.0) > oracles.level(11.0))


# -------------------------------------------------------------------- gates


def _sweep_csv(count, error=""):
    return (
        "N,theta,l,p,f_p,hardy_level,negative_count,min_eigenvalue,error\n"
        f"11,0.0,0.0,3.0,1.0,20.25,{count},-1.0,{error}\n"
    )


def test_sweep_gate_rejects_a_count_off_by_one():
    row = {"p": 3.0, "n_prime": 11.0, "tau": 0.0, "a": 1e-3, "b": 1e3}
    want = oracles.liouville_count(3.0, 11.0, 0.0, 1e-3, 1e3)
    assert want == 8
    assert oracles.gate_sweep_rows(_sweep_csv(want), [row]) is None
    assert "Liouville" in oracles.gate_sweep_rows(_sweep_csv(want + 1), [row])
    assert "Liouville" in oracles.gate_sweep_rows(_sweep_csv(want - 1), [row])
    assert oracles.gate_sweep_rows(_sweep_csv("", "boom"), [row]) is not None


def _shoot_result(p, a, ordering="below", classification="slow_decay", converged=True):
    return SimpleNamespace(
        params=SimpleNamespace(p=p),
        converged=converged,
        classification=SimpleNamespace(value=classification),
        ordering_vs_singular=SimpleNamespace(value=ordering),
        asymptotic_constant=a,
    )


def test_shoot_gate_rejects_c0_off_by_1e5():
    c0 = oracles.c0(7.0, 11.0, 0.0)
    assert oracles.gate_shoot(_shoot_result(7.0, c0 * (1 + 1e-9)), 11.0, 0.0) is None
    assert "c0" in oracles.gate_shoot(_shoot_result(7.0, c0 * (1 + 1e-5)), 11.0, 0.0)
    # p = 7 >= p_c(11) = 6.922: the regular solution must stay below
    assert "ordering" in oracles.gate_shoot(_shoot_result(7.0, c0, "crosses"), 11.0, 0.0)
    assert oracles.gate_shoot(_shoot_result(7.0, c0, converged=False), 11.0, 0.0) is not None


def test_rescale_gate():
    assert oracles.gate_rescale([1.0, 2.0], [1.0, 2.0 * (1 + 1e-9)]) is None
    assert oracles.gate_rescale([1.0, 2.0], [1.0, 2.0 * (1 + 2e-6)]) is not None


def test_hardy_gate_rejects_a_value_below_the_bound():
    lower = oracles.hardy_lower(5.0, 1.0, 1e4)
    assert oracles.gate_hardy(lower * (1 + 1e-5), 5.0, 1.0, 1e4) is None
    assert "below" in oracles.gate_hardy(lower * (1 - 1e-9), 5.0, 1.0, 1e4)
    assert oracles.gate_hardy(lower * (1 + 1e-2), 5.0, 1.0, 1e4) is not None


def test_cli_gate_rejects_a_mismatched_byte():
    argv = ["exponents", "--N", "11", "--theta", "0", "--l", "0"]
    code, out = workloads._in_process(argv)
    assert code == 0
    assert oracles.gate_cli(argv, 0, out, out) is None
    flipped = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
    assert "differs" in oracles.gate_cli(argv, 0, flipped, out)
    assert "exit code" in oracles.gate_cli(argv, 3, out, out)


def test_cli_gate_rejects_a_spectrum_count_off_by_one():
    argv = ["spectrum", "--N", "11", "--theta", "0", "--l", "0", "--p", "3",
            "--a", "0.01", "--b", "100", "--n", "300"]
    code, out = workloads._in_process(argv)
    assert code == 0
    assert oracles.gate_cli(argv, 0, out, out) is None
    env = json.loads(out)
    env["results"]["negative_count"] += 1
    wrong = json.dumps(env).encode()
    assert "Liouville" in oracles.gate_cli(argv, 0, wrong, wrong)


def test_a_gate_miss_is_a_failed_operation(tmp_path):
    wl = workloads.HardyBound(1, tmp_path, tiny=True)
    op = next(wl.ops())
    latency, kind, message = worker.attempt(wl, op, lambda op: 0.0)
    assert kind == "GateMiss" and "below" in message
    kind = worker.attempt(wl, op, lambda op: math.log(-1.0))[1]
    assert kind == "ValueError"


def test_probe_reports_failure_kind(tmp_path, monkeypatch):
    wl = workloads.HardyBound(1, tmp_path, tiny=True)
    monkeypatch.setattr(wl, "call", lambda op: 1 / 0)
    assert wl.probe()["kind"] == "ZeroDivisionError"
    monkeypatch.setattr(wl, "call", lambda op: 0.0)
    assert wl.probe()["outcome"] == "wrong"


# ---------------------------------------------------------- generated inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def first(seed, sub):
        (tmp_path / sub).mkdir(exist_ok=True)
        wl = workloads.WORKLOADS[name](seed, tmp_path / sub)
        ops = list(itertools.islice(wl.ops(), 6))
        return json.dumps(ops).replace(str(tmp_path / sub), "")

    assert first(3, "a") == first(3, "b")
    assert first(3, "a") != first(4, "c")


# ------------------------------------------------------------- tiny runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_gates_and_traces_every_layer_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path, tiny=True)
    wl.warmup()
    records = [worker.attempt(wl, op, wl.call) for op in itertools.islice(wl.ops(), 2)]
    assert [r[1:] for r in records] == [(None, None)] * 2
    res = worker.traced_run(wl, seconds=120.0)
    assert res["failed"] == 0 and res["attempted"] == 2
    metrics = res["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(math.isfinite(v) for v in metrics.values())
    busiest = {
        "cli_cold": "cli.main.calls",
        "sweep_spectrum": "tridiag.sturm_row_updates",
        "shoot_profiles": "radial_ode.rhs_evals",
        "hardy_bound": "tridiag.pencil_row_updates",
    }[name]
    assert metrics[busiest] > 0


def _run(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_schema(trace):
    proc = _run(ROOT, "--workload", "hardy_bound", "--seed", "1", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "hardy_bound", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
