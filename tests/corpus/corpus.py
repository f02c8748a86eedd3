"""Same-results corpus: seeded command lines and the results each one gave.

``cases()`` draws the argv from a fixed seed.  They cover every command,
both sweep modes, JSON and CSV, ``--out`` files and the README's examples,
and the documented domain's cheap edges: N' -> 2, tau -> -2, N' = 100,
b/a = 1e24, p next to each critical power, and node counts just above
``MAX_NODES``, which fail before any work.  A case is its argv and, for a
sweep, the text of its config file.

``record(case, tmp)`` runs one case in process through ``cli.main`` with
its ``--out`` and ``--config`` paths moved into ``tmp``, and reduces what it
printed and wrote to an expectation: the exit code, every field of the
report or error object (the version left out), every column of a sweep
and a sampled shot table, and the last line of a usage error.
``mismatches(want, got)`` compares two: exactly, except floats, which match
to the relative tolerance ``RTOL`` states for their field.

Run as a script to rewrite ``expectations.jsonl`` (one entry a line) after
a deliberate change of results; it prints the argv of every entry that moved:

    PYTHONPATH=src python tests/corpus/corpus.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import shlex
import tempfile
import warnings
from pathlib import Path

from emdenlab.cli import main

SEED = 2013
EXPECTATIONS = Path(__file__).with_name("expectations.jsonl")
README = Path(__file__).resolve().parents[2] / "README.md"

#: Relative tolerance of each float field, by its last name: a report key or a
#: table column.  A float field missing here is an error of ``record``.
RTOL = {
    # echoed inputs and the exponent algebra: closed forms, to rounding
    **dict.fromkeys((
        "N", "theta", "l", "p", "alpha", "ell", "kappa", "rmax", "rmin", "tol", "a", "b",
        "n_prime", "tau", "m_exp", "serrin", "sobolev", "c0", "p_tilde_c", "p_c",
        "hardy_level", "quadratic_coeffs", "f_p", "condition_weight_balance", "p_c_weighted",
        "p_c_dimension", "removability_upper", "sigma", "image_n_prime", "image_tau",
        "tau_image", "n_prime_sum", "tau_sum", "r_min", "r_max", "r",
    ), 1e-12),
    # spectra: closed forms certified by counts, or LAPACK bisection
    **dict.fromkeys(("eigenvalues", "min_eigenvalue", "negative_tol", "matrix_scale"), 1e-9),
    "count_margin": 1e-6,
    # shots: LSODA at the shot's tol and the tail fit
    **dict.fromkeys(("asymptotic_constant", "v", "scaled"), 1e-6),
    # rounding residuals: only their sign and rough size
    **dict.fromkeys(("zeta_residual", "log_amplitude_residual", "sigma_quadratic_residual"), 1.0),
}

#: A table of more rows keeps only its first, middle and last.
TABLE_ROWS = 64

#: (N, theta, l): common points, then the domain's edges.
FAMILIES = (
    (11, 0.0, 0.0), (5, 0.0, 0.0), (3, 0.0, 0.0), (8, 0.5, 1.0), (4, 1.5, 1.0),
    (6, -1.0, 2.0), (20, 3.0, 4.0),
    (3, -1.0 + 1e-6, 0.0), (2, 1e-9, 0.0),  # N' -> 2
    (5, 0.0, -2.0 + 1e-6), (5, 1.0, -1.0 + 1e-12),  # tau -> -2
    (100, 0.0, 0.0), (11, 89.0, 89.0), (100, 0.0, 5.0),  # N' = 100
    (2, 0.0, 0.0), (5, 0.0, -2.0),  # N' = 2 and tau = -2: outside the regime
)

#: One more node than ``grids.MAX_NODES``.
ABOVE_MAX_NODES = "10000001"


def _critical_powers(n_prime: float, tau: float) -> list[float]:
    """Serrin, Sobolev and the real roots above 1 of the exponent quadratic
    a p^2 - b p + c = 0, from their closed forms; none outside the regime."""
    if not (n_prime > 2.0 and tau > -2.0):
        return []
    A = n_prime - 2.0
    powers = [(n_prime + tau) / A, (n_prime + 2.0 + 2.0 * tau) / A]
    a = A * (n_prime - 4.0 * tau - 10.0)
    b = 2.0 * A * A - 4.0 * (tau + 2.0) * (tau + n_prime)
    c = A * A
    disc = b * b - 4.0 * a * c
    if a == 0.0:
        powers.append(c / b)
    elif disc >= 0.0:
        powers += [(b - math.sqrt(disc)) / (2.0 * a), (b + math.sqrt(disc)) / (2.0 * a)]
    return [x for x in powers if 1.0 < x < math.inf]


def _params(family, p) -> list[str]:
    N, theta, l = family
    return ["--N", str(N), "--theta", repr(theta), "--l", repr(l), "--p", repr(p)]


def _readme_cases():
    """The README's command lines (a ``[...]`` part without and with it), the sweep
    line once per README config."""
    section = README.read_text().split("\n## Command line")[1].split("\n## ")[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    configs = re.findall(r"```ini\n(.*?)```", section, re.S)
    for line in block.splitlines():
        optional = re.search(r"\[(.*?)\]", line)
        variants = [line]
        if optional:
            variants = [line.replace(optional[0], ""), line.replace(optional[0], optional[1])]
        for variant in variants:
            argv = shlex.split(variant)[1:]
            for config in configs if argv[0] == "sweep" else [None]:
                yield {"argv": argv, "config": config}


def _sweep_cases():
    spectrum = "mode = spectrum\nN = 11\ntheta = 0\nl = 0\n"
    configs = [
        "mode = exponents\nnprime = 3:100:4\ntau = -1.999999,0,2.5\n",
        "nprime = 2,2.000001,11,100\ntau = -2,-1.999999999,0\n",  # rows that fail
        "nprime = 3:4:0\ntau = 0\n",  # an empty grid: the header alone
        spectrum + "p = 1.5:7.5:13\na = 1e-3\nb = 1e3\nn = 200\n",
        spectrum + "p = 1.2,1.25,1.3,2,7\na = 1e-12\nb = 1e12\nn = 40\n",  # p below Serrin fails
        spectrum + f"p = 3,7\nn = {ABOVE_MAX_NODES}\n",
        "mode = spectrum\nN = 5\ntheta = 0\nl = -1.999999\np = 1.01,2,5\nn = 40\n",
        # invalid configs: exit 2 before any row
        "mode = sideways\n", "nprime = 11\n", "nprime = 11\ntau = 0\ncolour = red\n",
        "nprime = 11\nnprime = 12\ntau = 0\n", "nprime = 11,x\ntau = 0\n", "nprime 11\n",
        spectrum + "p = 3\nn = 2.5\n", "nprime = 3:4:1000001\ntau = 0\n",
        "nprime = 3:4:1001\ntau = 0:1:1000\n",  # 1,001,000 cells: above MAX_SWEEP_CELLS
    ]
    for i, config in enumerate(configs):
        out = ["--out", "sweep.csv"] if i % 2 else []
        yield {"argv": ["sweep", "--config", "sweep.cfg", *out], "config": config}
    yield {"argv": ["sweep", "--config", "missing.cfg"], "config": None}


def _edge_cases(rng):
    """Each family at and next to each of its critical powers, by a drawn command."""
    for family in FAMILIES:
        N, theta, l = family
        for x in _critical_powers(N + theta, l - theta):
            for p in (x * (1.0 - 1e-6), x, x * (1.0 + 1e-12), x * (1.0 + 1e-6)):
                command = rng.choice(("exponents", "classify", "spectrum", "spectrum"))
                extra = ["--n", rng.choice(("8", "40", "200"))] if command == "spectrum" else []
                yield {"argv": [command, *_params(family, p), *extra], "config": None}
        yield {"argv": ["exponents", *_params(family, 3.0)[:-2]], "config": None}
        yield {"argv": ["spectrum", *_params(family, 7.0), "--a", "1e-12", "--b", "1e12",
                        "--n", "400"], "config": None}


def _drawn_cases(rng, count):
    """``count`` argv at drawn parameters, each command, format and output route."""
    commands = ("exponents", "classify", "shoot", "spectrum", "spectrum", "transform")
    for _ in range(count):
        family = rng.choice(FAMILIES[:7])
        serrin, sobolev = _critical_powers(family[0] + family[1], family[2] - family[1])[:2]
        command = rng.choice(commands)
        # p above Sobolev for a shot, above Serrin for a spectrum, anywhere above 1 else
        low = {"shoot": sobolev, "spectrum": serrin}.get(command, 1.0)
        p = round(low * (1.0 + 10.0 ** rng.uniform(-2.0, 0.7)), 6)
        argv = [command, *_params(family, p)]
        if command == "shoot":
            argv += ["--kappa", rng.choice(("1", "1e-3", "1e3", "0.5")),
                     "--rmax", rng.choice(("1e6", "1e3")),
                     "--points-per-decade", rng.choice(("128", "32"))]
            if rng.random() < 0.5:
                argv += ["--out", "profile.csv"]
        elif command == "spectrum":
            a, b = rng.choice((("1e-3", "1e3"), ("1e-1", "10"), ("1e-6", "1"), ("1e-12", "1e12")))
            argv += ["--a", a, "--b", b, "--n", rng.choice(("8", "40", "200", "2000"))]
            if rng.random() < 0.15:  # a shot's spectrum instead: p above Sobolev, n = 200
                p = round(sobolev * (1.0 + 10.0 ** rng.uniform(-2.0, 0.7)), 6)
                argv[-8:] = ["--p", repr(p), "--profile", "shoot:" + rng.choice(("1", "0.1", "10")),
                             "--a", a, "--b", b, "--n", "200"]
        elif command == "transform":
            kind = rng.choice(("kelvin", "dual", "sigma_inverse", "sigma"))
            if kind == "sigma":
                argv = ["transform", "--N", str(family[0]),
                        "--alpha", rng.choice(("0", "1", "-1.5")),
                        "--ell", rng.choice(("2", "0.5", "-1", "1e3")), "--p", repr(p)]
            argv[1:1] = ["--kind", kind]
        if rng.random() < 0.2:
            argv += ["--format", "csv"]
        if command != "shoot" and rng.random() < 0.1:
            argv += ["--out", "report.out"]
        yield {"argv": argv, "config": None}


def _error_cases():
    """Invalid input of each kind the CLI names, and a few that succeed at their limits."""
    base = _params((11, 0.0, 0.0), 7.0)
    shot = ["spectrum", *base, "--profile", "shoot:1"]
    argvs = [
        ["classify", "--N", "11", "--theta", "0", "--l", "0"],
        ["exponents", "--theta", "0", "--l", "0"],
        ["transform", "--kind", "sigma", "--N", "5", "--p", "3"],
        ["spectrum", *base, "--profile", "bogus"], ["spectrum", *base, "--profile", "shoot:x"],
        ["spectrum", *base, "--format", "xml"], ["spectrum", *base, "--n", "1.5"],
        ["spectrum", *base, "--n", "7"], ["spectrum", *base, "--n", "8"],
        ["spectrum", *base, "--n", ABOVE_MAX_NODES], [*shot, "--n", ABOVE_MAX_NODES],
        ["shoot", *base, "--points-per-decade", "10000000"],
        ["shoot", *base, "--points-per-decade", "0"],
        ["spectrum", *base, "--a", "1e-300", "--b", "1e300"],
        ["spectrum", *base, "--b", "inf"], ["spectrum", *base, "--a", "2", "--b", "1"],
        ["exponents", *base, "--out", "missing/report.json"],
        ["shoot", *base, "--out", "missing/profile.csv"],
        ["shoot", *base, "--kappa", "1e300"], ["shoot", *base, "--kappa", "1e-300"],
        ["shoot", "--N", "5", "--theta", "0", "--l", "0", "--p", "2"],  # below Sobolev
        ["shoot", "--N", "100", "--theta", "0", "--l", "0", "--p", "1.5"],
        ["spectrum", "--N", "5", "--theta", "0", "--l", "0", "--p", "1.5"],  # below Serrin
        ["exponents", "--N", "11", "--theta", "0", "--l", "0", "--p", "1"],
        ["exponents", "--N", "1", "--theta", "0", "--l", "0"],
        ["exponents", "--N", "11", "--theta", "0", "--l", "-inf"],
        ["exponents", "--N", "11", "--theta", "0", "--l=-inf"],
        ["classify", "--N", "11", "--theta", "-1e-05", "--l", "-.5", "--p", "3"],
        ["transform", "--kind", "dual", "--N", "11", "--theta", "0", "--l", "0", "--p", "1e300"],
    ]
    for name, values in (("kappa", ("nan", "inf", "-1")), ("rmax", ("nan", "inf")),
                         ("tol", ("nan", "inf", "-1"))):
        argvs += [["shoot", *base, f"--{name}={v}"] for v in values]
    for v in ("nan", "inf", "-1", "0"):  # the tol of a v_infinity spectrum and of a shot's
        argvs += [["spectrum", *base, "--n", "40", f"--tol={v}"],
                  [*shot, "--n", "40", f"--tol={v}"]]
    argvs += [["spectrum", *base, "--profile", f"shoot:{k}", "--n", "40"]
              for k in ("inf", "nan", "0")]
    return [{"argv": argv, "config": None} for argv in argvs]


def cases() -> list[dict]:
    """The corpus's cases, in a fixed order."""
    rng = random.Random(SEED)
    return [*_readme_cases(), *_sweep_cases(), *_error_cases(), *_edge_cases(rng),
            *_drawn_cases(rng, 160)]


def _cell(text: str):
    """A CSV cell as the value it prints: an int, a float, None for an empty cell,
    a list for a ';'-joined list, else the text."""
    if ";" in text:
        return [_cell(part) for part in text.split(";")]
    if text == "":
        return None
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if re.fullmatch(r"-?(\d+\.?\d*(e[-+]?\d+)?|nan|inf)", text):
        return float(text)
    return text


def _flat(obj, prefix="") -> dict:
    """A nested report as {dotted key: value}, as ``--format csv`` names its columns."""
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _parse(text: str):
    """What a command printed or wrote: None, a report's fields, or a table."""
    if not text:
        return None
    if text.startswith("{"):
        fields = _flat(json.loads(text))
    else:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], [[_cell(c) for c in row] for row in rows[1:]]
        if "tool" not in header:
            n = len(body)
            keep = range(n) if n <= TABLE_ROWS else sorted({0, n // 2, n - 1})
            return {"header": header, "n_rows": n, "rows": [[i, body[i]] for i in keep]}
        fields = dict(zip(header, body[0]))
    fields.pop("version", None)
    return {"fields": fields}


def _floats(parsed):
    """(field, value) of every float in a parsed output."""
    if parsed is None:
        return
    if "fields" in parsed:
        pairs = ((key.rsplit(".", 1)[-1], value) for key, value in parsed["fields"].items())
    else:
        pairs = ((col, value) for _, row in parsed["rows"]
                 for col, value in zip(parsed["header"], row))
    for field, value in pairs:
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, float):
                yield field, x


def record(case: dict, tmp) -> dict:
    """Run ``case`` in process with its paths in the directory ``tmp``; its expectation."""
    tmp = Path(tmp)
    argv = [str(tmp / arg) if flag in ("--out", "--config") else arg
            for flag, arg in zip(["", *case["argv"]], case["argv"])]
    if case["config"] is not None:
        (tmp / "sweep.cfg").write_text(case["config"], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    epoch = os.environ.pop("SOURCE_DATE_EPOCH", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # a usage error from argparse
        code = exc.code
    finally:
        if epoch is not None:
            os.environ["SOURCE_DATE_EPOCH"] = epoch

    def text(raw):
        return raw.replace(str(tmp), "$TMP")

    files = {path.name: _parse(text(path.read_text())) for path in sorted(tmp.rglob("*"))
             if path.is_file() and path.name != "sweep.cfg"}
    got = {**case, "exit": code, "stdout": _parse(text(out.getvalue())), "files": files,
           "stderr": text(err.getvalue()).strip().rsplit("\n", 1)[-1]}
    for parsed in [got["stdout"], *files.values()]:
        for field, _ in _floats(parsed):
            if field not in RTOL:
                raise KeyError(f"no tolerance stated for the float field {field!r}")
    return got


def _same(field, want, got) -> bool:
    if isinstance(want, list) and isinstance(got, list):
        return len(want) == len(got) and all(_same(field, w, g) for w, g in zip(want, got))
    if type(want) is float and type(got) is float:
        if want == got or (math.isnan(want) and math.isnan(got)):
            return True
        if not (math.isfinite(want) and math.isfinite(got)):
            return False
        return abs(want - got) <= RTOL[field] * max(abs(want), abs(got))
    return type(want) is type(got) and want == got


def _output_mismatches(where, want, got):
    if want is None or got is None or want.keys() != got.keys():
        if want != got:
            yield f"{where}: {want!r} != {got!r}"
        return
    if "fields" in want:
        w, g = want["fields"], got["fields"]
        for key in sorted(w.keys() | g.keys()):
            if key not in w or key not in g or not _same(key.rsplit(".", 1)[-1], w[key], g[key]):
                yield f"{where} {key}: {w.get(key, '<absent>')!r} != {g.get(key, '<absent>')!r}"
        return
    if (want["header"], want["n_rows"]) != (got["header"], got["n_rows"]):
        yield (f"{where}: header and rows {want['header']}, {want['n_rows']} "
               f"!= {got['header']}, {got['n_rows']}")
        return
    for (i, w), (_, g) in zip(want["rows"], got["rows"]):
        for col, wc, gc in zip(want["header"], w, g):
            if not _same(col, wc, gc):
                yield f"{where} row {i} {col}: {wc!r} != {gc!r}"


def mismatches(want: dict, got: dict) -> list[str]:
    """Each way the expectation ``got`` differs from ``want``, one line each."""
    lines = [f"{key}: {want[key]!r} != {got[key]!r}"
             for key in ("argv", "config", "exit", "stderr") if want[key] != got[key]]
    lines += _output_mismatches("stdout", want["stdout"], got["stdout"])
    if want["files"].keys() != got["files"].keys():
        lines.append(f"files: {sorted(want['files'])} != {sorted(got['files'])}")
    else:
        for name in want["files"]:
            lines += _output_mismatches(name, want["files"][name], got["files"][name])
    return lines


def load() -> list[dict]:
    """The committed expectations, in corpus order."""
    return [json.loads(line) for line in EXPECTATIONS.read_text().splitlines()]


def refresh() -> None:
    """Rewrite the expectations from this tree and print the argv of each moved entry."""
    old = {json.dumps([e["argv"], e["config"]]): e for e in load()} if EXPECTATIONS.exists() else {}
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as the test suite runs
        for case in cases():
            with tempfile.TemporaryDirectory() as tmp:
                got = record(case, tmp)
            key = json.dumps([case["argv"], case["config"]])
            if key not in old:
                print("new:", shlex.join(case["argv"]))
            elif moved := mismatches(old[key], got):
                more = [f"and {len(moved) - 3} more"] if len(moved) > 3 else []
                print("moved:", shlex.join(case["argv"]), *moved[:3], *more, sep="\n    ")
            lines.append(json.dumps(got, sort_keys=True) + "\n")
    EXPECTATIONS.write_text("".join(lines))
    print(f"{len(lines)} entries written to {EXPECTATIONS.name}")


if __name__ == "__main__":
    refresh()
