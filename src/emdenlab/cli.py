"""Command-line front end.

Subcommands: exponents, classify, shoot, spectrum, transform, sweep.
Every command prints a JSON report envelope on stdout (or a flat CSV with
--format csv); shoot additionally writes its solution table to --out, and
sweep emits a CSV matrix.  Exit codes: 0 success, 2 invalid input,
3 numerical failure.  Every command but exponents needs --p;
exponents reports the regime of p only when --p is given.

Outputs are deterministic: identical inputs with the same tool version
produce byte-identical bytes.  The envelope's timestamp is therefore null
unless the SOURCE_DATE_EPOCH convention supplies a fixed value, which must
be an integer.  An unwritable --out path is invalid input (exit 2).  Every
envelope value is a plain float, int, bool, str or None, printed as given;
an infinite critical power is "infinity" in a report, an empty sweep cell.

Sweep configuration is a flat key-value text file, one ``key = value``
per line, ``#`` for comments.  Values may be a scalar, a comma list
(``0,0.5,1``), or ``start:stop:count`` for an inclusive linear range.
Keys for ``mode = exponents`` (the default): nprime, tau, each a
required list.  Keys for ``mode = spectrum``: N (an integer), theta and
l (required scalars), p (a required list), a, b (scalars, default 1e-3
and 1e3) and n (an integer, default 2000).  A missing file, a file that
is not UTF-8 text, an unknown key, a missing required key, a key given
twice, a malformed value, or a range or sweep of more than
MAX_SWEEP_CELLS (10**6) values or cells is invalid input (exit 2).

``spectrum`` and a spectrum sweep print ``stability.profile_spectrum``'s report, which
the ``stability`` docstrings define (``results.diagnostics`` is its last two fields).
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import sys

from . import __version__
from .errors import EmdenlabError, InvalidParameterError, NumericalError
from .params import (
    ProblemParams,
    SchrodingerParams,
    _require_regime,
    classify_p,
    critical_exponents,
    f_eval,
    hardy_constant,
)
from .transforms import (
    TransformKind,
    dual_params,
    kelvin_params,
    sigma_inverse,
    sigma_params,
)

INFINITY_TOKEN = "infinity"

#: Command-line values that make up a ProblemParams.
_PARAMS = ("N", "theta", "l", "p")

#: A value that starts "-" then a digit or "." and a digit, which argparse may take for an
#: option: "-1.", "-1_0", "-2.5e-3" or "-.5".
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

#: Keys per sweep mode besides ``mode``, each with its default (None: required).
_SWEEP_KEYS = {
    "exponents": {"nprime": None, "tau": None},
    "spectrum": dict.fromkeys(("N", "theta", "l", "p")) | {"a": "1e-3", "b": "1e3", "n": "2000"},
}

#: Most cells (rows) of a sweep, and most values of one range: at the cap an
#: exponents sweep takes about 22 s on a shared vCPU, writes 96 MB and peaks at 200 MiB.
MAX_SWEEP_CELLS = 10**6


def _or_infinity(x):
    return INFINITY_TOKEN if x is None else x


def _timestamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        return int(epoch)
    except ValueError:
        raise InvalidParameterError(
            f"SOURCE_DATE_EPOCH must be an integer, got {epoch!r}"
        ) from None


def _envelope(args, inputs: tuple[str, ...], derived: dict | None, results: dict) -> dict:
    """Report envelope of ``args.command``; ``inputs`` names the echoed arguments."""
    return {
        "tool": "emdenlab",
        "version": __version__,
        "command": args.command,
        "inputs": {name: getattr(args, name) for name in inputs},
        "derived": derived,
        "results": results,
        "timestamp": _timestamp(),
    }


def _flatten_csv(envelope: dict) -> str:
    flat: dict[str, object] = {}

    def walk(prefix, obj):
        for key in sorted(obj):
            value = obj[key]
            name = f"{prefix}{key}"
            if isinstance(value, dict):
                walk(f"{name}.", value)
            elif isinstance(value, list):
                flat[name] = ";".join(_csv_cell(v) for v in value)
            else:
                flat[name] = value

    walk("", envelope)
    keys = sorted(flat)
    return _csv_text([keys, [flat[k] for k in keys]])


def _write_csv(fh, rows) -> None:
    """Write ``rows`` to ``fh`` as CSV as they come, one line each, every cell by ``_csv_cell``."""
    import csv

    csv.writer(fh, lineterminator="\n").writerows(map(_csv_cell, row) for row in rows)


def _csv_text(rows) -> str:
    """CSV text of ``rows``, as ``_write_csv`` writes it."""
    buf = io.StringIO()
    _write_csv(buf, rows)
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _derived_block(params: ProblemParams) -> dict:
    try:
        c0 = params.c0
    except NumericalError:
        c0 = None  # null where it leaves the float range; a command that needs c0 reads it itself
    return {
        "n_prime": params.n_prime,
        "tau": params.tau,
        "m_exp": params.m_exp,
        "serrin": params.serrin,
        "sobolev": params.sobolev,
        "c0": c0,
        "standard_regime": params.standard_regime,
    }


def _problem_params(args, p: float | None) -> ProblemParams:
    if p is None:
        raise InvalidParameterError(f"--p is required for {args.command}")
    if args.N is None or args.theta is None or args.l is None:
        raise InvalidParameterError("--N, --theta and --l are required")
    return ProblemParams(N=args.N, theta=args.theta, l=args.l, p=p)


def _number(key: str, text: str, integer: bool = False) -> float | int:
    """The number written as ``text`` for ``key``; malformed text is invalid input."""
    try:
        value = float(text)
    except ValueError:
        raise InvalidParameterError(f"{key}: expected a number, got {text.strip()!r}") from None
    if not integer:
        return value
    if not value.is_integer():
        raise InvalidParameterError(f"{key}: expected an integer, got {text.strip()!r}")
    return int(value)


def cmd_exponents(args) -> dict:
    has_p = args.p is not None
    # Without --p the placeholder power reaches no result: m_exp and c0 are reported as null.
    params = _problem_params(args, args.p if has_p else 2.0)
    _require_regime(params)
    derived = _derived_block(params)
    if not has_p:
        derived["m_exp"] = derived["c0"] = None
    exps = critical_exponents(params.n_prime, params.tau)
    results = {
        "serrin": exps.serrin,
        "sobolev": exps.sobolev,
        "p_tilde_c": exps.p_tilde_c,
        "p_c": _or_infinity(exps.p_c),
        "hardy_level": hardy_constant(params.n_prime),
        "quadratic_coeffs": list(exps.quadratic_coeffs),
    }
    if has_p:
        cls = classify_p(params)
        results["c0"] = derived["c0"]
        results["f_p"] = f_eval(params.p, params.n_prime, params.tau)
        results["regime"] = cls.label.value
        results["condition_weight_balance"] = cls.condition_weight_balance
    return _envelope(args, _PARAMS, derived, results)


def cmd_classify(args) -> dict:
    params = _problem_params(args, args.p)
    cls = classify_p(params)
    results = {
        "regime": cls.label.value,
        "condition_weight_balance": cls.condition_weight_balance,
        "p_c_weighted": _or_infinity(cls.p_c_weighted),
        "p_c_dimension": _or_infinity(cls.p_c_dimension),
        "removability_upper": _or_infinity(cls.removability_upper),
        "removability_applies": cls.removability_applies,
    }
    return _envelope(args, _PARAMS, _derived_block(params), results)


def _emit(path: str | None, write) -> None:
    """Call ``write`` on stdout, or on the file ``path`` given as --out; an unwritable
    path is invalid input."""
    if not path:
        write(sys.stdout)
        return
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write --out {path!r}: {exc.strerror or exc}") from None


def cmd_shoot(args) -> dict:
    from .radial_ode import shoot

    params = _problem_params(args, args.p)
    result = shoot(
        params,
        kappa=args.kappa,
        r_max=args.rmax,
        tol=args.tol,
        r_min=args.rmin,
        points_per_decade=args.points_per_decade,
    )
    grid = result.log_scaled.grid
    if args.out:
        # v is formed before the file opens: where it underflows, no file is left.
        # Python floats, as _csv_cell would print a numpy scalar as np.float64(...)
        rows = [("r", "v", "scaled"), *zip(grid.points.tolist(), result.solution.values.tolist(),
                                           map(math.exp, result.log_scaled.values.tolist()))]
        _emit(args.out, lambda fh: _write_csv(fh, rows))
    results = {
        "kappa": result.kappa,
        "r_min": grid.r_min,
        "r_max": grid.r_max,
        "n_points": grid.n,
        "asymptotic_constant": result.asymptotic_constant,
        "converged": result.converged,
        "classification": result.classification.value,
        "ordering_vs_singular": result.ordering_vs_singular.value,
        "c0": params.c0,
        "csv": args.out,
        "diagnostics": {
            k: getattr(result, k) for k in ("nfev", "zeta_residual", "log_amplitude_residual")
        },
    }
    inputs = (*_PARAMS, "kappa", "rmax", "rmin", "tol", "points_per_decade")
    return _envelope(args, inputs, _derived_block(params), results)


def cmd_spectrum(args) -> dict:
    from .stability import profile_spectrum

    params = _problem_params(args, args.p)
    if args.profile == "v_infinity":
        kappa = None
    elif args.profile.startswith("shoot:"):
        kappa = _number("kappa of --profile shoot:<kappa>", args.profile[len("shoot:"):])
    else:
        raise InvalidParameterError("profile must be 'v_infinity' or 'shoot:<kappa>'")
    report = profile_spectrum(params, args.a, args.b, args.n, kappa, args.tol)
    results = {
        "a": args.a,
        "b": args.b,
        "n": args.n,
        "profile": args.profile,
        "negative_count": report.negative_count,
        "min_eigenvalue": report.min_eigenvalue,
        "negative_tol": report.negative_tol,
        "eigenvalues": list(report.eigenvalues),
        "diagnostics": {k: getattr(report, k) for k in ("matrix_scale", "count_margin")},
    }
    inputs = (*_PARAMS, "profile", "a", "b", "n", "tol")
    return _envelope(args, inputs, _derived_block(params), results)


def cmd_transform(args) -> dict:
    kind = TransformKind(args.kind)
    if kind is TransformKind.SIGMA:
        if args.N is None or args.alpha is None or args.ell is None or args.p is None:
            raise InvalidParameterError("sigma transform needs --N, --alpha, --ell, --p")
        sp = SchrodingerParams(N=args.N, alpha=args.alpha, ell=args.ell, p=args.p)
        image = sigma_params(sp)
        inputs = ("kind", "N", "alpha", "ell", "p")
        checks = {
            "sigma": sp.sigma,
            "sigma_quadratic_residual": sp.sigma**2 - (sp.N - 2.0) * sp.sigma + sp.ell,
        }
        derived = None
    else:
        params = _problem_params(args, args.p)
        inputs = ("kind", *_PARAMS)
        derived = _derived_block(params)
        if kind is TransformKind.SIGMA_INVERSE:
            sp = sigma_inverse(params)
            results = {
                "schrodinger": {"N": sp.N, "alpha": sp.alpha, "ell": sp.ell, "p": sp.p},
                "identity_checks": {"sigma": sp.sigma},
            }
            return _envelope(args, inputs, derived, results)
        if kind is TransformKind.KELVIN:
            image = kelvin_params(params)
            checks = {"tau_image": image.tau, "tau_image_above_minus2": image.tau > -2.0}
        else:  # TransformKind.DUAL
            image = dual_params(params)
            checks = {
                "n_prime_sum": params.n_prime + image.n_prime,
                "tau_sum": params.tau + image.tau,
            }
    results = {
        "image": {"N": image.N, "theta": image.theta, "l": image.l, "p": image.p},
        "image_n_prime": image.n_prime,
        "image_tau": image.tau,
        "image_standard_regime": image.standard_regime,
        "identity_checks": checks,
    }
    return _envelope(args, inputs, derived, results)


def _parse_values(key: str, text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"range must be start:stop:count, got {text!r}")
        start, stop = _number(key, parts[0]), _number(key, parts[1])
        count = _number(f"{key} range count", parts[2], integer=True)
        if count < 0:
            raise InvalidParameterError("range count must be >= 0")
        if count > MAX_SWEEP_CELLS:
            raise InvalidParameterError(
                f"{key} range count {count} exceeds MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}"
            )
        if count == 0:
            return []
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    if "," in text:
        return [_number(key, v) for v in text.split(",") if v.strip()]
    return [_number(key, text)]


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read sweep config: {exc}") from None
    except UnicodeDecodeError:
        raise InvalidParameterError(f"cannot read sweep config {path!r}: not UTF-8 text") from None
    config: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key in config:
            raise InvalidParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        config[key] = value
    return config


def cmd_sweep(args):
    """CSV rows of a sweep, header first: one row per input cell, each formed as it is
    read, failures recorded per row.  The config, axes and cell count are checked first."""
    config = _read_config(args.config)
    mode = config.pop("mode", "exponents")
    if mode not in _SWEEP_KEYS:
        raise InvalidParameterError(f"unknown sweep mode {mode!r}")
    unknown = sorted(set(config) - set(_SWEEP_KEYS[mode]))
    if unknown:
        raise InvalidParameterError(f"unknown keys for mode = {mode}: {', '.join(unknown)}")
    config = {**_SWEEP_KEYS[mode], **config}  # in table order, defaults filled in
    missing = [key for key, value in config.items() if value is None]
    if missing:
        raise InvalidParameterError(f"mode = {mode} needs {', '.join(missing)}")

    def values(key):
        return _parse_values(key, config[key]) if config[key] else []

    if mode == "exponents":
        inputs = ["n_prime", "tau"]
        outputs = ["serrin", "sobolev", "p_tilde_c", "p_c"]
        axes = [values("nprime"), values("tau")]

        def compute(n_prime, tau):
            exps = critical_exponents(n_prime, tau)
            return [exps.serrin, exps.sobolev, exps.p_tilde_c, exps.p_c]

    else:
        from .stability import profile_spectrum

        inputs = ["N", "theta", "l", "p"]
        outputs = ["f_p", "hardy_level", "negative_count", "min_eigenvalue"]
        N = _number("N", config["N"], integer=True)
        theta, l = _number("theta", config["theta"]), _number("l", config["l"])
        a, b = _number("a", config["a"]), _number("b", config["b"])
        n = _number("n", config["n"], integer=True)
        axes = [[N], [theta], [l], values("p")]

        def compute(N, theta, l, p):
            params = ProblemParams(N=N, theta=theta, l=l, p=p)
            report = profile_spectrum(params, a, b, n)
            return [
                f_eval(p, params.n_prime, params.tau),
                hardy_constant(params.n_prime),
                report.negative_count,
                report.min_eigenvalue,
            ]

    cells = math.prod(map(len, axes))  # before any cell is built
    if cells > MAX_SWEEP_CELLS:
        raise InvalidParameterError(f"{cells} cells exceed MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}")

    def row(point):
        try:
            return [*point, *compute(*point), None]
        except EmdenlabError as exc:
            return [*point, *[None] * len(outputs), str(exc)]

    header = [*inputs, *outputs, "error"]
    return itertools.chain([header], map(row, itertools.product(*axes)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emdenlab",
        description="Critical exponents, radial profiles and stability spectra "
        "of the weighted Lane-Emden equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--N", type=int, default=None, help="space dimension (integer >= 2)")
        p.add_argument("--theta", type=float, default=None, help="gradient weight exponent")
        p.add_argument("--l", type=float, default=None, help="nonlinearity weight exponent")
        p.add_argument("--p", type=float, default=None, help="nonlinearity power (> 1)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="optional output path")

    p_exp = sub.add_parser("exponents", help="critical exponent report")
    add_common(p_exp)
    p_exp.set_defaults(fn=cmd_exponents)

    p_cls = sub.add_parser("classify", help="regime classification of p")
    add_common(p_cls)
    p_cls.set_defaults(fn=cmd_classify)

    p_shoot = sub.add_parser("shoot", help="radial shooting run")
    add_common(p_shoot)
    p_shoot.add_argument("--kappa", type=float, default=1.0, help="initial value at the origin")
    p_shoot.add_argument("--rmax", type=float, default=1e6)
    p_shoot.add_argument("--rmin", type=float, default=None)
    p_shoot.add_argument("--tol", type=float, default=1e-10)
    p_shoot.add_argument("--points-per-decade", type=int, default=128)
    p_shoot.set_defaults(fn=cmd_shoot)

    p_spec = sub.add_parser("spectrum", help="stability spectrum on an annulus")
    add_common(p_spec)
    p_spec.add_argument("--profile", default="v_infinity", help="v_infinity or shoot:<kappa>")
    p_spec.add_argument("--a", type=float, default=1e-3)
    p_spec.add_argument("--b", type=float, default=1e3)
    p_spec.add_argument("--n", type=int, default=2000)
    p_spec.add_argument("--tol", type=float, default=1e-10)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_tr = sub.add_parser("transform", help="parameter-level transform")
    p_tr.add_argument("--kind", required=True, choices=[k.value for k in TransformKind])
    add_common(p_tr)
    p_tr.add_argument("--alpha", type=float, default=None)
    p_tr.add_argument("--ell", type=float, default=None)
    p_tr.set_defaults(fn=cmd_transform)

    p_sw = sub.add_parser("sweep", help="CSV sweep from a config file")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # attach such a value to the option before it: "--l -1." -> "--l=-1."
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and _NEGATIVE_NUMBER.match(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        if args.command == "sweep":  # each row is written as it is formed
            def write(fh):
                _write_csv(fh, result)
        else:
            if args.format == "json":
                text = json.dumps(result, sort_keys=True, indent=2) + "\n"
            else:
                text = _flatten_csv(result)

            def write(fh):
                fh.write(text)
        # shoot reserves --out for its solution table; its envelope
        # always goes to stdout
        _emit(None if args.command == "shoot" else args.out, write)
    except (InvalidParameterError, NumericalError) as exc:
        invalid = isinstance(exc, InvalidParameterError)
        error = {"type": "invalid_input" if invalid else "numerical_failure", "message": str(exc)}
        sys.stdout.write(json.dumps({"error": error}, sort_keys=True) + "\n")
        return 2 if invalid else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
