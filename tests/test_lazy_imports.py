"""scipy stays off the import path: each submodule loads where it is first used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfrag import model
from gfrag.model import Power, compute_RQ

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_SUBMODULES = (
    "scipy.integrate",
    "scipy.special",
    "scipy.optimize",
    "scipy.interpolate",
    "scipy.sparse",
    "scipy.linalg",
)

# the model file shown in the README
README_MODEL = {
    "r": 1.0,
    "a": {"type": "linear", "c0": 0.0, "c1": 1.0},
    "kernel": {"type": "uniform_binary"},
    "beta": {"type": "linear", "c0": 0.5, "c1": 0.5},
    "m": 2.0,
    "bc_convention": "value",
    "x_max": 30.0,
    "initial": {"type": "linear", "c0": 1.0, "c1": 2.5},
    "support": {
        "supp_a": [[0.0, "inf"]],
        "envelope": [{"left": 0.0, "right": 1.0, "value_left": 0.0, "value_right": 0.0}],
        "beta_sup": "inf",
        "tail": {"kind": "envelope_extends"},
    },
}


def _fresh_python(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )


def test_importing_the_cli_loads_no_scipy_submodule():
    probe = (
        "import sys, gfrag.cli\n"
        f"print(sorted(m for m in {LAZY_SUBMODULES!r} if m in sys.modules))"
    )
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command", ["validate", "solve-closed", "solve-pde", "eigen", "irreducible", "aeg"]
)
def test_each_command_runs_in_a_fresh_interpreter(tmp_path, command):
    # a missing lazy import fails on first use, and a submodule reached as an
    # attribute of its package resolves only if something imported it
    # earlier, so each command starts from a fresh interpreter
    path = tmp_path / "model.json"
    path.write_text(json.dumps(README_MODEL), encoding="utf-8")
    proc = _fresh_python("-m", "gfrag.cli", command, "--model", str(path),
                         "--out", str(tmp_path), "--cells", "200", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_quad_is_looked_up_through_the_module_attribute(monkeypatch):
    calls = []

    class CountingIntegrate:
        def __init__(self, inner):
            self._inner = inner

        def quad(self, *args, **kwargs):
            calls.append(args[1:3])
            return self._inner.quad(*args, **kwargs)

    monkeypatch.setattr(model, "integrate", CountingIntegrate(model.integrate))
    md = model.ModelDefinition(
        r=Power(1.0, 0.5), a=model.Linear(0.0, 1.0), kernel=model.UniformBinary(),
        beta=model.Constant(1.0), m=2.0,
    )
    rq = compute_RQ(md)
    assert rq.R(2.0) > 0.0
    assert len(calls) >= 1


def test_eigen_loads_no_scipy_optimize(tmp_path):
    # the shift floor takes its suprema exactly, with no numerical search
    path = tmp_path / "model.json"
    path.write_text(json.dumps(README_MODEL), encoding="utf-8")
    probe = (
        "import sys\n"
        "from gfrag.cli import main\n"
        "try:\n"
        f"    main(['eigen', '--model', {str(path)!r}, '--out', {str(tmp_path)!r}])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print('scipy.optimize' in sys.modules)"
    )
    proc = _fresh_python("-c", probe, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["solve-closed", "aeg"])
def test_closed_form_commands_load_no_scipy(tmp_path, command):
    # the closed-form splines are numpy-only
    path = tmp_path / "model.json"
    path.write_text(json.dumps(README_MODEL), encoding="utf-8")
    probe = (
        "import sys\n"
        "from gfrag.cli import main\n"
        "try:\n"
        f"    main([{command!r}, '--model', {str(path)!r}, '--out', {str(tmp_path)!r}])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = _fresh_python("-c", probe, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
