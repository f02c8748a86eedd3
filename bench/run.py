"""emdenlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``BENCHMARK.json`` and ``src/emdenlab``).  Python needs no build step:
the package is imported from ``src`` through ``PYTHONPATH``.

With ``--trace 0`` the workload is set up ``SETUP_REPEATS`` times in
fresh processes (``setup_s`` is their median) and the last of them runs
the timed, closed-loop phase.  With ``--trace 1`` one process runs the
first operations of the same stream untraced and then traced, and
reports per-layer metrics.  Human-readable lines come first on stdout;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Known-defect probes run after the timed
phase; they are reported but are not operations of the workload.

This script uses the standard library only and never imports emdenlab.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
#: Every run must end within 180 s; keep a margin for teardown.
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER = Path(__file__).with_name("worker.py")


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        # One BLAS thread: a single closed-loop client, and never above nproc.
        value = env.get(var, "1")
        env[var] = str(min(int(value), nproc)) if value.isdigit() and int(value) > 0 else "1"
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker exceeded the run budget") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def end_to_end(workload: str, setups: list[float], res: dict) -> tuple[dict, list[str]]:
    lat = res["latencies"]
    tail_s, tail_pct, beyond = tail(lat)
    n = len(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["passed"] / res["elapsed_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "peak_rss_mib": res["peak_rss_mib"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{res['passed']} passing ops in {res['elapsed_s']:.3f} s",
        "latency_p50_s": f"n={n}",
        "latency_tail_s": f"p{tail_pct:.1f}, n={n}, {beyond} beyond",
        "peak_rss_mib": "max over CLI children" if workload == "cli_cold" else "worker process",
    }
    failed_ratio = res["failed"] / res["attempted"]
    lines = [f"{k:<16} {v:.6g}  ({notes[k]})" for k, v in values.items()]
    lines.append(
        f"{'failed_ratio':<16} {failed_ratio:.6g}  ({res['failed']}/{res['attempted']}, "
        f"by type: {json.dumps(res['failures'])})"
    )
    lines += [f"  {kind}: {example}" for kind, example in res["failure_examples"].items()]
    return values, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="emdenlab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "emdenlab" / "__init__.py").is_file():
        return fail(f"no emdenlab sources under {root / 'src'}; run from a source checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    # Workloads left out of BENCHMARK.json (not gated) still run by name.
    names = sorted(json.loads(WORKER.with_name("workloads.json").read_text())["workloads"])
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")

    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(root)
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
              repr(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        if args.trace:
            res = spawn(common, env, deadline)
            values, units = res["metrics"], {m["name"]: m["unit"] for m in spec["per_layer"]}
            lines = [f"{k:<40} {values[k]:.6g} {units[k]}" for k in units]
        else:
            setups = [spawn([*common, "--setup-only"], env, deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            res = spawn(common, env, deadline)
            setups.append(res["setup_s"])
            values, lines = end_to_end(args.workload, setups, res)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            probe = res["probe"]
            lines.append(f"known-defect probe: {probe['outcome']} "
                         f"{probe.get('kind', '')} {probe.get('message', '')}".rstrip())
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(root), **res["versions"],
        "nproc": len(os.sched_getaffinity(0)), **{v: env[v] for v in BLAS_THREAD_VARS},
    }
    print("# " + json.dumps(stamp))
    for line in lines:
        print(line)
    wrong_probe = not args.trace and res["probe"]["outcome"] == "wrong"
    print(json.dumps({
        "correct": res["failed"] == 0 and not wrong_probe,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
