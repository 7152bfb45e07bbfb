"""Import-set guards: each ``repro3d`` command loads only what it runs.

``repro/__init__.py`` resolves its public names on first access and the
CLI imports the library inside each command, so ``import repro.cli``
and building the parser load no numerics.  Each check runs in a fresh
interpreter, because the test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "tests" / "data" / "ramulator_1k.trace"


def _loaded_after(code: str, candidates) -> list:
    """Which of ``candidates`` are in ``sys.modules`` after ``code`` runs
    in a fresh interpreter (its stdout is discarded)."""
    script = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps([m for m in {list(candidates)!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env = {k: v for k, v in env.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_and_parser_load_no_numerics():
    heavy = (
        "numpy",
        "scipy",
        "repro.experiments",
        "repro.pdn",
        "repro.rmesh",
        "repro.controller",
        "repro.designs",
    )
    code = "from repro.cli import build_parser\nbuild_parser()"
    assert _loaded_after(code, heavy) == []


def _driver_modules() -> tuple:
    from repro.experiments import DRIVERS

    return tuple(f"repro.experiments.{module}" for module in DRIVERS.values())


def test_experiments_package_loads_no_driver():
    loaded = _loaded_after("import repro.experiments", _driver_modules() + ("scipy.optimize",))
    assert loaded == []


def test_registry_lookup_loads_that_driver_only():
    code = "from repro.experiments import registry\nregistry['ext_hmc']"
    loaded = _loaded_after(code, _driver_modules() + ("repro.opt", "scipy.optimize"))
    assert loaded == ["repro.experiments.ext_hmc_scheduling"]


def test_list_loads_no_driver():
    code = "from repro.cli import main\nmain(['list'])"
    assert _loaded_after(code, _driver_modules() + ("scipy.optimize",)) == []


def test_sim_loads_no_optimizer_or_driver():
    code = f"from repro.cli import main\nmain(['sim', '--trace', {str(TRACE)!r}])"
    loaded = _loaded_after(
        code, ("scipy.optimize", "repro.opt", "repro.experiments", "repro.controller")
    )
    assert loaded == ["repro.controller"]


def test_sim_with_lut_loads_no_solver(tmp_path):
    # An IR-aware policy reads its table from JSON: no stack is built,
    # so neither the PDN nor the solver (nor scipy) is imported.
    golden = ROOT / "tests" / "golden" / "controller_decisions.json"
    lut = tmp_path / "lut.json"
    lut.write_text(json.loads(golden.read_text())["lut"])
    code = (
        "from repro.cli import main\n"
        f"main(['sim', '--trace', {str(TRACE)!r}, '--policy', 'ir_fcfs', "
        f"'--lut', {str(lut)!r}])"
    )
    assert _loaded_after(code, ("repro.pdn", "repro.rmesh", "scipy")) == []


def test_obs_list_loads_no_numpy(tmp_path):
    code = (
        "from repro.cli import main\n"
        f"main(['obs', 'list', '--store', {str(tmp_path / 'history')!r}])"
    )
    assert _loaded_after(code, ("numpy",)) == []


def test_every_public_name_resolves():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    from repro import build_stack
    from repro.pdn import build_stack as direct

    assert build_stack is direct
    assert repro.pdn.build_stack is direct
    with pytest.raises(AttributeError):
        repro.no_such_name
