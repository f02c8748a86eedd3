"""The README's command-line examples, sweep configurations and library
sketch run as written, and the package version is the project's."""

import re
import shlex
from pathlib import Path

import pytest

import emdenlab
from emdenlab.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_README = (_ROOT / "README.md").read_text()
_SECTION = _README[_README.index("\n## Command line") :].split("\n## ")[1]


def _commands():
    """argv of each ``emdenlab`` line; a ``[...]`` part gives a run without and with it."""
    block = re.search(r"```sh\n(.*?)```", _SECTION, re.S).group(1)
    for line in block.splitlines():
        optional = re.search(r"\[(.*?)\]", line)
        variants = [line]
        if optional:
            variants = [line.replace(optional[0], ""), line.replace(optional[0], optional[1])]
        for variant in variants:
            yield shlex.split(variant)[1:]


COMMANDS = list(_commands())
SWEEP_CONFIGS = re.findall(r"```ini\n(.*?)```", _SECTION, re.S)
SWEEP_HEADERS = dict(re.findall(r"^- `mode = (\w+)`.*?`([\w,]+,error)`", _SECTION, re.S | re.M))


def _in_tmp(argv, tmp_path):
    """argv with every --out and --config path moved into tmp_path."""
    return [
        str(tmp_path / arg) if flag in ("--out", "--config") else arg
        for flag, arg in zip(["", *argv], argv)
    ]


@pytest.mark.parametrize("argv", [c for c in COMMANDS if c[0] != "sweep"], ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, capsys):
    code = main(_in_tmp(argv, tmp_path))
    assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("config", SWEEP_CONFIGS, ids=lambda c: re.search(r"mode = (\w+)", c)[1])
def test_readme_sweep_writes_its_documented_header(config, tmp_path, capsys):
    assert sorted(SWEEP_HEADERS) == ["exponents", "spectrum"]
    (sweep,) = [c for c in COMMANDS if c[0] == "sweep"]
    argv = _in_tmp(sweep, tmp_path)
    Path(argv[argv.index("--config") + 1]).write_text(config)
    assert main(argv) == 0, capsys.readouterr().out
    lines = Path(argv[argv.index("--out") + 1]).read_text().splitlines()
    assert lines[0] == SWEEP_HEADERS[re.search(r"^mode = (\w+)", config, re.M)[1]]
    assert len(lines) > 1 and all(line.endswith(",") for line in lines[1:])  # no row failed


def test_readme_library_sketch_runs():
    sketch = _README[_README.index("\n## Library sketch") :].split("\n## ")[1]
    exec(re.search(r"```python\n(.*?)```", sketch, re.S).group(1), {})


def test_pyproject_version_is_the_package_version():
    pyproject = (_ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == emdenlab.__version__
