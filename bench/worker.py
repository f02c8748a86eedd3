"""One benchmark process: set up a workload, then time or trace its operations.

Started by ``run.py``; prints one JSON object as its last stdout line.
Operations run closed loop with one client: the next one starts when
the previous one has returned and been checked.  Latency covers the
call into ``emdenlab`` only; the oracle check runs after it, inside the
timed phase.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics

IMPORT_SAMPLES = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import emdenlab; "
    "print(time.perf_counter() - t)"
)


def attempt(wl, op, call):
    """(latency_s, failure kind or None, message) of one operation."""
    t0 = time.perf_counter()
    try:
        output = call(op)
    except Exception as exc:  # every failure is recorded, and the loop goes on
        return time.perf_counter() - t0, workloads.failure_kind(exc), str(exc)[:200]
    latency = time.perf_counter() - t0
    try:
        wl.check(op, output)
    except Exception as exc:
        return latency, workloads.failure_kind(exc), str(exc)[:200]
    return latency, None, None


def tally(records) -> dict:
    failures, examples = {}, {}
    for _, kind, message in records:
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
            examples.setdefault(kind, message)
    return {
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": failures,
        "failure_examples": examples,
    }


def peak_rss_mib(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def timed_run(wl, seconds: float) -> dict:
    stream = wl.ops()
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    while not records or time.perf_counter() < deadline:
        records.append(attempt(wl, next(stream), wl.call))
    elapsed = time.perf_counter() - start
    rss = peak_rss_mib(wl)
    return {
        **tally(records),
        "latencies": [r[0] for r in records],
        "passed": sum(1 for r in records if r[1] is None),
        "elapsed_s": elapsed,
        "peak_rss_mib": rss,
        "probe": wl.probe(),
    }


def traced_run(wl, seconds: float) -> dict:
    """Untraced then traced pass over the same first ``trace_ops`` operations."""
    ops = list(itertools.islice(wl.ops(), wl.trace_ops))
    plain = []
    start = time.perf_counter()
    for op in ops:
        plain.append(attempt(wl, op, wl.call))
        if time.perf_counter() - start >= seconds / 2:
            break
    ops = ops[: len(plain)]

    tracer = Tracer()
    if wl.name == "cli_cold":
        spans_file = wl.workdir / "spans.json"
        script = Path(__file__).with_name("tracer.py")

        def call(op):
            spans_file.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(script), str(spans_file), *op["argv"]],
                capture_output=True,
                timeout=workloads.CHILD_TIMEOUT_S,
            )
            child = json.loads(spans_file.read_text()) if spans_file.exists() else {"spans": []}
            base = len(tracer.spans)
            for name, t0, t1, parent, _, work in child["spans"]:
                tracer.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, tracer.op, work])
            return proc.returncode, proc.stdout, proc.stderr
    else:

        def call(op):
            tracer.install()
            try:
                return wl.call(op)
            finally:
                tracer.uninstall()

    traced = []
    for i, op in enumerate(ops):
        tracer.op = i
        traced.append(attempt(wl, op, call))
    plain_s = sum(r[0] for r in plain)
    traced_s = sum(r[0] for r in traced)
    imports = [
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                             check=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    metrics = {
        "cli.import_s": statistics.median(imports),
        **layer_metrics(tracer.spans),
        "trace.ops": len(traced),
        "trace.op_s": traced_s,
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    }
    return {**tally(traced), "metrics": metrics}


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import emdenlab  # noqa: F401  (import cost belongs to set-up)

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.warmup()
    out = {"setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        run = traced_run if args.trace else timed_run
        out.update(run(wl, args.seconds), versions=versions())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
