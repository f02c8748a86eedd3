"""Cold imports: each command loads only the modules its computation needs.

Each check runs in a fresh interpreter, since this test process has
long since loaded numpy and scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import emdenlab

SRC = str(Path(emdenlab.__file__).resolve().parents[1])

#: Runs the statements in argv[1] one by one, stdout silenced, and prints
#: the modules of each group of top-level packages in argv[2] loaded after each.
_PROBE = """
import contextlib, io, json, sys
namespace = {}
loaded = []
for statement in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(statement, namespace)
    loaded.append([sorted(m for m in sys.modules if m.partition(".")[0] in packages)
                   for packages in json.loads(sys.argv[2])])
print(json.dumps(loaded))
"""

#: The stdlib modules that records and CSV output used to load on every start.
STDLIB = (("dataclasses", "inspect", "csv"),)


def modules_after(statements, groups=(("numpy", "scipy"), ("emdenlab",))):
    """statement -> (modules of each group) loaded once it has run.

    By default the groups are numpy and scipy, then emdenlab.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(statements), json.dumps(groups)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return dict(zip(statements, map(tuple, json.loads(out))))


def test_parameter_commands_load_neither_numpy_nor_scipy(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("mode = exponents\nnprime = 3:12:4\ntau = -1,0,1\n")
    commands = [
        ["exponents", "--N", "11", "--theta", "0", "--l", "0"],
        ["exponents", "--N", "11", "--theta", "0", "--l", "0", "--p", "7"],
        ["classify", "--N", "11", "--theta", "0", "--l", "0", "--p", "3"],
        ["transform", "--kind", "kelvin", "--N", "5", "--theta", "0", "--l", "0", "--p", "3"],
        ["transform", "--kind", "dual", "--N", "5", "--theta", "0", "--l", "0", "--p", "3"],
        ["transform", "--kind", "sigma", "--N", "5", "--alpha", "0", "--ell", "2", "--p", "3"],
        ["transform", "--kind", "sigma_inverse", "--N", "5", "--theta", "1", "--l", "0",
         "--p", "3"],
        ["sweep", "--config", str(config)],
    ]
    statements = ["import emdenlab", "from emdenlab import cli"]
    statements += [f"assert cli.main({argv!r}) == 0" for argv in commands]
    loaded = modules_after(statements)
    assert {s: heavy for s, (heavy, _) in loaded.items()} == {s: [] for s in statements}
    for statement, (_, own) in loaded.items():
        assert "emdenlab.stability" not in own, statement


def test_spectrum_loads_scipy_only_about_a_shot(tmp_path):
    # about v_infinity the spectrum is closed form, certified by inertia
    # counts on Python floats, so neither numpy nor scipy loads; a shot
    # profile needs numpy, scipy's compiled LSODA (loaded without the
    # scipy.integrate package) and LAPACK bisection
    config = tmp_path / "sweep.cfg"
    config.write_text("mode = spectrum\nN = 11\ntheta = 0\nl = 0\np = 2,3,7\nn = 200\n")
    common = ["--N", "11", "--theta", "0", "--l", "0"]
    singular = [
        ["spectrum", *common, "--p", "3", "--n", "200"],
        ["sweep", "--config", str(config)],
    ]
    shot = ["spectrum", *common, "--p", "7", "--profile", "shoot:1", "--a", "1e-1",
            "--b", "1e3", "--n", "200"]
    statements = ["from emdenlab import cli"]
    statements += [f"assert cli.main({argv!r}) == 0" for argv in [*singular, shot]]
    loaded = modules_after(statements)
    for statement in statements[1:-1]:
        heavy, own = loaded[statement]
        assert heavy == [], statement
        assert "emdenlab.radial_ode" not in own, statement
    heavy, own = loaded[statements[-1]]
    assert {"numpy", "scipy.linalg"} <= set(heavy)
    assert [m for m in heavy if m.startswith("scipy.integrate")] == []
    assert "emdenlab.radial_ode" in own


def test_shoot_loads_numpy_and_no_scipy_module():
    # LSODA's extension is loaded from its file, outside sys.modules, so a
    # later scipy.integrate imports as usual and changes no shot
    statements = [
        "from emdenlab import cli",
        "assert cli.main(['shoot', '--N', '11', '--theta', '0', '--l', '0', '--p', '7']) == 0",
        "import emdenlab; params = emdenlab.ProblemParams(11, 0, 0, 7);"
        " first = emdenlab.shoot(params, 1.0, 1e4).log_scaled.values.tobytes()",
        "import math, scipy.integrate;"
        " y = scipy.integrate.odeint(lambda y, t: -y, 1.0, [0.0, 1.0], rtol=1e-12, atol=1e-12);"
        " assert abs(y[-1, 0] - math.exp(-1.0)) < 1e-10",
        "assert emdenlab.shoot(params, 1.0, 1e4).log_scaled.values.tobytes() == first",
    ]
    loaded = modules_after(statements)
    for statement in statements[1:3]:
        heavy, own = loaded[statement]
        assert "numpy" in heavy, statement
        assert [m for m in heavy if m.partition(".")[0] == "scipy"] == [], statement
        assert "emdenlab.radial_ode" in own
    assert "scipy.integrate" in loaded[statements[3]][0]


def test_stability_loads_no_shooting_module():
    # profile_spectrum imports radial_ode only on its shot branch, and
    # stability and grids import numpy only inside the functions that use it
    heavy, own = modules_after(["import emdenlab.grids"])["import emdenlab.grids"]
    assert heavy == []
    assert own == ["emdenlab", "emdenlab.errors", "emdenlab.grids"]
    statement = "import emdenlab.stability"
    heavy, own = modules_after([statement])[statement]
    assert heavy == []
    assert own == ["emdenlab", "emdenlab.errors", "emdenlab.grids", "emdenlab.params",
                   "emdenlab.stability", "emdenlab.transforms", "emdenlab.tridiag"]


def test_hardy_minimum_loads_no_scipy():
    # a constant-coefficient pencil: its certificate counts on Python floats
    statement = "import emdenlab; emdenlab.hardy_rayleigh_min(0.0, 5, 1.0, 1e2, 1000)"
    heavy, own = modules_after([statement])[statement]
    assert heavy == []
    assert "emdenlab.radial_ode" not in own


def test_records_load_neither_dataclasses_nor_inspect(tmp_path):
    # records are named tuples and slotted classes; only a CSV writer loads csv
    exponents, spectrum = tmp_path / "exponents.cfg", tmp_path / "spectrum.cfg"
    exponents.write_text("nprime = 3:12:4\ntau = -1,0,1\n")
    spectrum.write_text("mode = spectrum\nN = 11\ntheta = 0\nl = 0\np = 2,3,7\nn = 200\n")
    common = ["--N", "11", "--theta", "0", "--l", "0"]
    reports = [
        ["exponents", *common],
        ["exponents", *common, "--p", "7"],
        ["classify", *common, "--p", "3"],
        ["transform", "--kind", "kelvin", *common, "--p", "3"],
        ["transform", "--kind", "dual", *common, "--p", "3"],
        ["transform", "--kind", "sigma", "--N", "5", "--alpha", "0", "--ell", "2", "--p", "3"],
        ["transform", "--kind", "sigma_inverse", "--N", "5", "--theta", "1", "--l", "0",
         "--p", "3"],
        ["spectrum", *common, "--p", "3", "--n", "200"],
    ]
    sweeps = [["sweep", "--config", str(exponents)], ["sweep", "--config", str(spectrum)]]
    statements = [f"assert cli.main({argv!r}) == 0" for argv in [*reports, *sweeps]]
    statements = ["from emdenlab import cli", *statements, "import emdenlab.stability",
                  "emdenlab.stability.hardy_rayleigh_min(0.0, 5, 1.0, 1e2, 1000)"]
    loaded = modules_after(statements, STDLIB)
    for statement in statements[:len(reports) + 1]:
        assert loaded[statement] == ([],), statement
    for statement in statements[len(reports) + 1:]:
        assert [m for m in loaded[statement][0] if m != "csv"] == [], statement


def test_shoot_loads_no_dataclasses():
    statements = [
        "from emdenlab import cli",
        "assert cli.main(['shoot', '--N', '11', '--theta', '0', '--l', '0', '--p', '7']) == 0",
    ]
    modules = modules_after(statements, STDLIB)[statements[-1]][0]
    assert "dataclasses" not in modules and "csv" not in modules


def test_every_public_name_is_its_home_module_attribute():
    for name in emdenlab.__all__:
        if name == "__version__":
            continue
        obj = getattr(emdenlab, name)
        assert obj.__module__.startswith("emdenlab."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(emdenlab.__all__) <= set(dir(emdenlab))
    namespace = {}
    exec("from emdenlab import *", namespace)
    assert set(emdenlab.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        emdenlab.no_such_name
