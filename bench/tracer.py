"""Per-layer tracing of emdenlab from outside the package.

``Tracer.install`` wraps the public functions of each package module
(for ``cli`` only ``main``, so that its self time covers argparse, the
envelope and emission) plus ``radial_ode.solve_ivp`` and the
``RadialGrid`` / ``RadialFunction`` constructors and ``interp``.  It then
rebinds every module attribute that refers to a wrapped function, which
covers the from-imports in ``cli``, ``radial_ode`` and ``stability``.
Module globals are looked up at call time, so calls between modules and
within one module pass through the wrappers.

A span is [name, start, end, parent index, op id, work count]; spans stay
in memory and are turned into metrics (or written out) at the end.  Self
time is a span's duration minus that of its direct children.

Run as a script, it traces one CLI invocation in a fresh process:
``python tracer.py SPANS_FILE <emdenlab argv...>``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "params", "transforms", "grids", "radial_ode", "stability", "tridiag")


# Work counts computed from argument shapes or results, keyed by span name.
_WORK = {
    "tridiag.count_below": lambda args, result: len(args[0]) * getattr(args[2], "size", 1),
    "tridiag.count_below_pencil": lambda args, result: len(args[0]),
    "tridiag.smallest_eigenvalues": lambda args, result: int(args[2]),
    "stability.radial_morse_index": lambda args, result: int(args[4]),
    "radial_ode.solve_ivp": lambda args, result: int(result.nfev),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work = _WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[5] = work(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the count, not the run
            return result

        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        import emdenlab

        modules = {layer: importlib.import_module(f"emdenlab.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            names = ["main"] if layer == "cli" else [
                name for name, obj in vars(mod).items()
                if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                and getattr(obj, "__module__", None) == mod.__name__
            ]
            for name in names:
                wrapped[id(getattr(mod, name))] = self._wrap(f"{layer}.{name}", getattr(mod, name))
        solve_ivp = modules["radial_ode"].solve_ivp
        wrapped[id(solve_ivp)] = self._wrap("radial_ode.solve_ivp", solve_ivp)
        for mod in (emdenlab, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        grids = modules["grids"]
        for cls, attr, name in (
            (grids.RadialGrid, "__init__", "grids.RadialGrid"),
            (grids.RadialFunction, "__init__", "grids.RadialFunction"),
            (grids.RadialFunction, "interp", "grids.interp"),
        ):
            self._set(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the benchmark from a list of spans."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, self_s, dur, work = (defaultdict(float) for _ in range(4))
    under_eigs_shifts = under_pencil_calls = 0
    for i, (name, start, end, parent, _, count) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        dur[name] += end - start
        work[name] += count or 0
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "tridiag.count_below" and parent_name == "tridiag.smallest_eigenvalues":
            under_eigs_shifts += spans[parent][5] or 0
        if name == "tridiag.count_below_pencil" and parent_name == "tridiag.min_eigenvalue_pencil":
            under_pencil_calls += 1

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "params.critical_exponents.calls": calls["params.critical_exponents"],
        "params.critical_exponents.self_s": self_s["params.critical_exponents"],
        "params.crossing_by_bisection.calls": calls["params.crossing_by_bisection"],
        "params.classify_p.self_s": self_s["params.classify_p"],
        "transforms.calls": layer("transforms", calls),
        "transforms.self_s": layer("transforms", self_s),
        "grids.RadialGrid.calls": calls["grids.RadialGrid"],
        "grids.interp.calls": calls["grids.interp"],
        "grids.self_s": layer("grids", self_s),
        "radial_ode.shoot.calls": calls["radial_ode.shoot"],
        "radial_ode.shoot.self_s": self_s["radial_ode.shoot"],
        "radial_ode.solve_ivp_s": dur["radial_ode.solve_ivp"],
        "radial_ode.tail_fit_s": self_s["radial_ode.asymptotic_constant"]
        + self_s["radial_ode.classify_decay"],
        "radial_ode.rhs_evals": work["radial_ode.solve_ivp"],
        "radial_ode.rhs_evals_per_profile": ratio(
            work["radial_ode.solve_ivp"], calls["radial_ode.solve_ivp"]
        ),
        "radial_ode.v_infinity_s": self_s["radial_ode.v_infinity"],
        "stability.assemble_forms.self_s": self_s["stability.assemble_forms"],
        "stability.radial_morse_index.self_s": self_s["stability.radial_morse_index"],
        "stability.matrix_order": work["stability.radial_morse_index"],
        "stability.hardy_rayleigh_min.self_s": self_s["stability.hardy_rayleigh_min"],
        "tridiag.count_below.calls": calls["tridiag.count_below"],
        "tridiag.count_below.self_s": self_s["tridiag.count_below"],
        "tridiag.sturm_row_updates": work["tridiag.count_below"],
        "tridiag.smallest_eigenvalues.calls": calls["tridiag.smallest_eigenvalues"],
        "tridiag.smallest_eigenvalues.self_s": self_s["tridiag.smallest_eigenvalues"],
        "tridiag.sweeps_per_eigenvalue": ratio(
            under_eigs_shifts, work["tridiag.smallest_eigenvalues"]
        ),
        "tridiag.min_eigenvalue_pencil.self_s": self_s["tridiag.min_eigenvalue_pencil"],
        "tridiag.count_below_pencil.calls": calls["tridiag.count_below_pencil"],
        "tridiag.count_below_pencil.self_s": self_s["tridiag.count_below_pencil"],
        "tridiag.pencil_row_updates": work["tridiag.count_below_pencil"],
        "tridiag.pencil_sweeps_per_min": ratio(
            under_pencil_calls, calls["tridiag.min_eigenvalue_pencil"]
        ),
    }


def main(argv: list[str]) -> int:
    """Trace one ``emdenlab`` CLI call in this process and write its spans."""
    path, cli_argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    from emdenlab import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
