"""Seeded workload generators, operations, warm-ups and known-defect probes.

A workload turns a seed into an endless, deterministic stream of
operations (``ops``), runs one operation through a public entry point of
``emdenlab`` (``call``, the timed part) and checks the answer against the
benchmark's own oracle (``check``, untimed; raises on a wrong answer).
The stream does not depend on how fast the program is, so a faster
commit sees the same inputs, only more of them.

The variables that set an operation's cost (n, the annulus width, N',
the position of p) are drawn stratified: each cycle of 64 operations
takes one value from each 64th of a range, with the seed choosing the
value within the stratum.  The strata are visited in a fixed order per
variable that does not depend on the seed: bit-reversed for the main
cost variable, so any few operations span its range, and a fixed
shuffle for the others, so the variables are not correlated.  Every
seed thus sees nearly the same sequence of costs, and medians do not
depend on where the timed phase stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import oracles

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())
_STRATA_BITS = 6
_ORDERS = [[int(f"{i:0{_STRATA_BITS}b}"[::-1], 2) for i in range(1 << _STRATA_BITS)]]
_ORDERS += [random.Random(f"strata/{w}").sample(_ORDERS[0], len(_ORDERS[0])) for w in (1, 2)]
CHILD_TIMEOUT_S = 120.0


class GateMiss(Exception):
    """The program returned an answer that its oracle rejects."""

    kind = "GateMiss"


class ChildFailure(Exception):
    """A CLI child exited nonzero; ``kind`` names its error."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def failure_kind(exc: BaseException) -> str:
    return getattr(exc, "kind", type(exc).__name__)


def _strata(rng: random.Random, which: int = 0):
    """Stratified uniforms in [0, 1); ``which`` selects the visiting order."""
    order = _ORDERS[which]
    while True:
        for k in order:
            yield (k + rng.random()) / len(order)


def _lin(bounds, u: float) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * u


def _log(bounds, u: float) -> float:
    lo, hi = bounds
    return lo * (hi / lo) ** u


def _num(x: float) -> str:
    return repr(float(x))


def _require(reason: str | None):
    if reason is not None:
        raise GateMiss(reason)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        spec = SPEC["workloads"][self.name]
        # ``tiny`` shrinks the sizes for the benchmark's own tests.
        self.ranges = {**spec["ranges"], **(spec["tiny"] if tiny else {})}
        self.trace_ops = 2 if tiny else spec["trace_ops"]
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = Path(workdir)
        self.probe_spec = SPEC["probes"][self.name]

    def run(self, op):
        """Untimed convenience: call and check one operation."""
        self.check(op, self.call(op))

    def probe(self) -> dict:
        """Run the known-defect case once and report what happened."""
        try:
            self.run(self.probe_op())
        except GateMiss as exc:
            return {"outcome": "wrong", "kind": exc.kind, "message": str(exc)}
        except Exception as exc:  # the probe exists to record any failure
            return {"outcome": "failed", "kind": failure_kind(exc), "message": str(exc)[:200]}
        return {"outcome": "passed"}


# ------------------------------------------- spectrum rows (cli_cold, sweep_spectrum)

_ROW_CLASSES = ("window", "below", "window", "above")


def _spectrum_p(rng, r, cls: str, n_prime: float, tau: float, a: float, b: float, n: int):
    """A p of the row class whose negative count on n nodes the oracle decides."""
    p_tilde, p_c = oracles.critical_powers(n_prime, tau)
    serrin = oracles.serrin(n_prime, tau)
    if cls == "above" and not math.isfinite(p_c):
        cls = "below"
    for _ in range(200):
        if cls == "above":
            p = p_c * _lin(r["p_above_pc_factor"], rng.random())
        elif cls == "window":
            p = _lin((p_tilde, min(p_c, p_tilde + r["p_window_span"])), rng.random())
        else:
            p = _lin((serrin, p_tilde), _lin(r["p_below_position"], rng.random()))
        robust = oracles.liouville_count_is_robust(p, n_prime, tau, a, b, n, r["liouville_margin"])
        if robust and oracles.liouville_quotient(p, n_prime, tau, a, b) <= r["max_count"]:
            return p
    return _lin((serrin, p_tilde), r["p_below_position"][0])


# ------------------------------------------------------------------ cli_cold


def _in_process(argv: list[str]) -> tuple[int, bytes]:
    from emdenlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def _child_failure(code: int, stdout: bytes, stderr: bytes) -> ChildFailure:
    last = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
    if code == 1 and ":" in last[0]:
        kind, _, message = last[0].partition(":")
        return ChildFailure(kind.strip(), message.strip())
    try:
        error = json.loads(stdout)["error"]
        return ChildFailure(error["type"], error["message"])
    except (ValueError, KeyError, TypeError):
        return ChildFailure(f"exit{code}", last[0])


class CliCold(Workload):
    name = "cli_cold"

    def ops(self):
        r, rng = self.ranges, self.rng
        kinds = SPEC["workloads"][self.name]["kinds"]
        for i in range(sys.maxsize):
            kind = kinds[i % len(kinds)]
            N = rng.randint(*r["N"])
            theta = _lin(r["theta"], rng.random())
            tau = _lin(r["tau"], rng.random())
            p = _lin(r["p"], rng.random())
            common = ["--N", str(N), "--theta", _num(theta), "--l", _num(theta + tau)]
            if kind == "exponents":
                argv = ["exponents", *common]
            elif kind == "exponents_p":
                argv = ["exponents", *common, "--p", _num(p)]
            elif kind == "classify":
                argv = ["classify", *common, "--p", _num(p)]
            elif kind == "transform_sigma":
                cap = (N - 2.0) ** 2 / 4.0
                ell = _lin(r["ell_share_of_cap"], rng.random()) * cap
                alpha = _lin(r["alpha"], rng.random())
                argv = ["transform", "--kind", "sigma", "--N", str(N), "--alpha", _num(alpha),
                        "--ell", _num(ell), "--p", _num(p)]
            elif kind == "spectrum":
                decades = _lin(r["spectrum_decades"], rng.random())
                n = rng.randint(*r["spectrum_n"])
                a, b = 10.0 ** (-decades / 2), 10.0 ** (decades / 2)
                cls = _ROW_CLASSES[(i // len(kinds)) % len(_ROW_CLASSES)]
                p = _spectrum_p(rng, r, cls, N + theta, tau, a, b, n)
                argv = ["spectrum", *common, "--p", _num(p), "--a", _num(a), "--b", _num(b),
                        "--n", str(n)]
            elif kind.startswith("transform_"):
                argv = ["transform", "--kind", kind[len("transform_"):], *common, "--p", _num(p)]
            else:
                lo = N + theta
                hi = lo + _lin(r["sweep_nprime_span"], rng.random())
                taus = sorted(_lin(r["tau"], rng.random()) for _ in range(r["sweep_tau_count"]))
                cfg = self.workdir / f"cli_{i}.cfg"
                cfg.write_text(
                    "mode = exponents\n"
                    f"nprime = {_num(lo)}:{_num(hi)}:{r['sweep_nprime_count']}\n"
                    f"tau = {','.join(_num(t) for t in taus)}\n"
                )
                argv = ["sweep", "--config", str(cfg)]
            yield {"argv": argv}

    def call(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "emdenlab", *op["argv"]],
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, output):
        code, stdout, stderr = output
        if code != 0:
            raise _child_failure(code, stdout, stderr)
        _, expected = _in_process(op["argv"])
        _require(oracles.gate_cli(op["argv"], code, stdout, expected))

    def warmup(self):
        self.run({"argv": ["exponents", "--N", "11", "--theta", "0", "--l", "0"]})

    def probe_op(self):
        return {"argv": list(self.probe_spec["argv"])}


# ------------------------------------------------------------ sweep_spectrum


class SweepSpectrum(Workload):
    name = "sweep_spectrum"

    def _sweep(self, tag: str, N: int, theta: float, tau: float, ps, a: float, b: float, n: int):
        cfg = self.workdir / f"sweep_{tag}.cfg"
        cfg.write_text(
            "mode = spectrum\n"
            f"N = {N}\ntheta = {_num(theta)}\nl = {_num(theta + tau)}\n"
            f"p = {','.join(_num(p) for p in ps)}\n"
            f"a = {_num(a)}\nb = {_num(b)}\nn = {n}\n"
        )
        rows = [{"p": float(p), "n_prime": N + theta, "tau": tau, "a": a, "b": b} for p in ps]
        return {"config": str(cfg), "out": str(self.workdir / f"sweep_{tag}.csv"), "rows": rows, "n": n}

    def ops(self):
        r, rng = self.ranges, self.rng
        sizes, widths = _strata(rng, 0), _strata(rng, 1)
        row = 0
        for i in range(sys.maxsize):
            n = round(_log(r["n"], next(sizes)))
            decades = _lin(r["decades"], next(widths))
            centre = _lin(r["centre_decade"], rng.random())
            a, b = 10.0 ** (centre - decades / 2), 10.0 ** (centre + decades / 2)
            N = rng.randint(*r["N"])
            theta = _lin(r["theta"], rng.random())
            tau = _lin(r["tau"], rng.random())
            ps = []
            for _ in range(2 if n < r["two_rows_below_n"] else 1):
                cls = _ROW_CLASSES[row % len(_ROW_CLASSES)]
                ps.append(_spectrum_p(rng, r, cls, N + theta, tau, a, b, n))
                row += 1
            yield self._sweep(str(i), N, theta, tau, ps, a, b, n)

    def call(self, op):
        from emdenlab import cli

        return cli.main(["sweep", "--config", op["config"], "--out", op["out"]])

    def check(self, op, code):
        if code != 0:
            raise ChildFailure(f"exit{code}", "sweep returned nonzero")
        text = Path(op["out"]).read_text()
        errors = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:] if not line.endswith(",")]
        if errors:
            raise ChildFailure("row_error", errors[0])
        _require(oracles.gate_sweep_rows(text, op["rows"]))

    def warmup(self):
        self.run(self._sweep("warmup", 11, 0.0, 0.0, [3.0], 1e-2, 1e2, 200))

    def probe_op(self):
        c = self.probe_spec["config"]
        return self._sweep("probe", c["N"], c["theta"], c["l"] - c["theta"], [c["p"]], c["a"], c["b"], c["n"])


# ------------------------------------------------------------ shoot_profiles


class ShootProfiles(Workload):
    name = "shoot_profiles"

    def _resolvable(self, p, n_prime, tau, kappa) -> bool:
        """Whether the gates can decide this input at r_max and tol.

        The tail r^m v - c0 must decay by exp(-min_decay) before r_max, and
        on the focus side the first overshoot above c0 must survive the
        damping over half a turn, pi rho / omega <= max_half_turn_damping,
        to stand out of the ordering noise band (1e3 tol).
        """
        r = self.ranges
        rho, omega = oracles.linearisation(p, n_prime, tau)
        scale = kappa ** (-(p - 1.0) / (2.0 + tau))
        decays = rho * math.log(r["r_max"] / scale) >= r["min_decay"]
        return decays and (omega == 0.0 or math.pi * rho / omega <= r["max_half_turn_damping"])

    def ops(self):
        r, rng = self.ranges, self.rng
        dims, powers = _strata(rng, 0), _strata(rng, 1)
        for i in range(sys.maxsize):
            rescale = i % r["rescale_every"] == r["rescale_every"] - 1
            N = round(_lin(r["N"], next(dims)))
            u = next(powers)
            while True:
                theta = _lin(r["theta"], rng.random())
                tau = _lin(r["tau"], rng.random())
                n_prime = N + theta
                _, p_c = oracles.critical_powers(n_prime, tau)
                sob = oracles.sobolev(n_prime, tau)
                if i % 2 and math.isfinite(p_c):
                    p = p_c * _lin(r["p_above_pc_factor"], u)
                else:
                    p = _lin((sob, min(p_c, sob + r["p_above_sobolev_span"])), u)
                kappa = 1.0 if rescale else _log(r["kappa"], rng.random())
                if self._resolvable(p, n_prime, tau, kappa):
                    break
                u = rng.random()
            yield {"N": N, "theta": theta, "l": theta + tau, "p": p, "kappa": kappa, "rescale": rescale}

    def call(self, op):
        import emdenlab as el

        r = self.ranges
        params = el.ProblemParams(op["N"], op["theta"], op["l"], op["p"])
        if not op["rescale"]:
            return el.shoot(params, op["kappa"], r_max=r["r_max"], tol=r["tol"]), None
        base = el.shoot(params, 1.0, r_max=r["r_max"], tol=r["tol"], r_min=1e-6)
        mapped = el.rescale(base, 2.0)
        direct = el.shoot(
            params, 2.0, r_max=mapped.grid.r_max * (1.0 + 1e-12), tol=r["tol"], grid=mapped.grid
        )
        return base, (direct.solution.values, mapped.values)

    def check(self, op, output):
        result, pair = output
        _require(oracles.gate_shoot(result, op["N"] + op["theta"], op["l"] - op["theta"]))
        if pair is not None:
            _require(oracles.gate_rescale(*pair))

    def warmup(self):
        self.run({"N": 11, "theta": 0.0, "l": 0.0, "p": 7.0, "kappa": 1.0, "rescale": False})

    def probe_op(self):
        return {**self.probe_spec["params"], "rescale": False}


# --------------------------------------------------------------- hardy_bound


class HardyBound(Workload):
    name = "hardy_bound"

    def _max_decades(self, n_prime: float, n: int) -> float:
        lo, hi = self.ranges["decades"]
        d = hi
        while d > lo and oracles.pencil_halvings(n_prime, 1.0, 10.0**d, n) > self.ranges["max_halvings"]:
            d -= 0.01
        return d

    def ops(self):
        r, rng = self.ranges, self.rng
        sizes, dims, widths = _strata(rng, 0), _strata(rng, 1), _strata(rng, 2)
        while True:
            n = round(_log(r["n"], next(sizes)))
            n_prime = _lin(r["n_prime"], next(dims))
            d_max = self._max_decades(n_prime, n)
            decades = _lin((r["decades"][0], d_max), next(widths))
            centre = _lin(r["centre_decade"], rng.random())
            N = max(2, math.floor(n_prime))
            yield {"theta": n_prime - N, "N": N, "a": 10.0 ** (centre - decades / 2),
                   "b": 10.0 ** (centre + decades / 2), "n": n}

    def call(self, op):
        import emdenlab as el

        return el.hardy_rayleigh_min(op["theta"], op["N"], op["a"], op["b"], op["n"])

    def check(self, op, value):
        _require(oracles.gate_hardy(value, op["N"] + op["theta"], op["a"], op["b"]))

    def warmup(self):
        self.run({"theta": 0.0, "N": 5, "a": 1.0, "b": 1e2, "n": 1000})

    def probe_op(self):
        return dict(self.probe_spec["args"])


WORKLOADS = {w.name: w for w in (CliCold, SweepSpectrum, ShootProfiles, HardyBound)}
