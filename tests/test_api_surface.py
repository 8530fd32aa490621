"""The names the package exports and the names the benchmark tracer patches.

Deleting or renaming a public function breaks its importers, and deleting a
name that ``gfbench/tracing.py`` wraps breaks the benchmark; both show here.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import gfrag

MODULES = sorted(f"gfrag.{info.name}" for info in pkgutil.iter_modules(gfrag.__path__))
TRACING = Path(__file__).resolve().parents[1] / "gfbench" / "tracing.py"


@pytest.mark.parametrize("name", ["gfrag"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_benchmark_tracer_installs_and_removes_cleanly():
    spec = importlib.util.spec_from_file_location("gfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [importlib.import_module(name) for name in MODULES]
    before = [dict(vars(module)) for module in modules]
    evaluate = gfrag.closed_form.ClosedFormSolution.evaluate

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert any(vars(m) != b for m, b in zip(modules, before))
    finally:
        # undoes a partial install too, so no wrapper outlives this test
        tracer.remove()

    for module, saved in zip(modules, before):
        changed = [k for k, v in vars(module).items() if saved.get(k, object()) is not v]
        assert not changed, f"{module.__name__} still patched: {changed}"
    assert gfrag.closed_form.ClosedFormSolution.evaluate is evaluate
