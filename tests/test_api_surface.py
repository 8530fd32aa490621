"""The names the package exports and the names the benchmark tracer patches.

Deleting or renaming a public function breaks its importers, and deleting a
name that ``gfbench/tracing.py`` wraps breaks the benchmark; both show here.
An exported name that nothing uses fails here too, and so does a console
command of pyproject.toml that does not resolve to a callable.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import gfrag

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(f"gfrag.{info.name}" for info in pkgutil.iter_modules(gfrag.__path__))
TRACING = ROOT / "gfbench" / "tracing.py"


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


def _names_read_by_the_library() -> set:
    """Every name that code in src/gfrag reads: loaded variables and attributes.

    A definition and an ``__all__`` entry (a string) read nothing, and a
    re-export in ``gfrag/__init__.py`` is an import, not a read.
    """
    names = set()
    for path in Path(gfrag.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _mentions(text: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_export_is_used_by_the_library_the_benchmark_or_the_readme():
    used = _names_read_by_the_library()
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "gfbench").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        f"{name}.{attr}"
        for name in ["gfrag"] + MODULES
        for attr in getattr(importlib.import_module(name), "__all__", ())
        # dunder names such as __version__ are conventions, not API
        if not attr.startswith("__")
        and attr not in used
        and not _mentions(bench, attr)
        and not _mentions(readme, attr)
    ]
    assert not unused, f"exported, but no library code, benchmark or README uses: {unused}"


def _console_scripts() -> dict:
    """The ``[project.scripts]`` table of pyproject.toml as {command: "module:attr"}.

    Read with a regex: ``tomllib`` is new in Python 3.11, above the floor.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return dict(re.findall(r'^\s*"?([\w.-]+)"?\s*=\s*"([^"]+)"', table.group(1) if table else "", re.M))


def test_every_console_script_resolves_to_a_callable():
    scripts = _console_scripts()
    assert "gfrag" in scripts, f"pyproject.toml declares no gfrag command: {scripts}"
    for command, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module.strip())
        for part in attr.strip().split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{command} = {target!r} does not resolve to a callable"
