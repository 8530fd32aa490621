"""Tests of the benchmark itself: seeded inputs, repeatable trace counts,
clean removal of the trace wrappers, and failure without gfrag.

Run with ``python -m pytest gfbench``.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the repository's src on sys.path)
from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, check, write_inputs  # noqa: E402

import gfrag.cli as cli  # noqa: E402
from gfrag import _kernels, closed_form, model, pde, resolvent, spectral  # noqa: E402

PATCHED_MODULES = (_kernels, cli, closed_form, model, pde, resolvent, spectral)


def _model_bytes(ops):
    return [Path(op.model_path).read_bytes() for op in ops]


def test_same_seed_writes_identical_model_files(tmp_path):
    for name, workload in WORKLOADS.items():
        first = write_inputs(workload, 7, tmp_path / name / "a")
        again = write_inputs(workload, 7, tmp_path / name / "b")
        other = write_inputs(workload, 8, tmp_path / name / "c")
        assert _model_bytes(first) == _model_bytes(again)
        assert _model_bytes(first) != _model_bytes(other)


def _coarse_ops(tmp_path, seed, names=tuple(WORKLOADS)):
    """One op cycle of each named workload on a 64-cell grid, to trace fast."""
    ops = []
    for name in names:
        workload = WORKLOADS[name]
        pool = write_inputs(workload, seed, tmp_path / "models" / name)
        ops += [dataclasses.replace(op, n_cells=64) for op in pool[: len(workload.families)]]
    return ops


def _traced_counts(ops, out_dir):
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            run.run_op(cli, op, out_dir, tracer, i)
    finally:
        tracer.remove()
    return {key: tracer.counts[key] for key in EXACT_COUNTS}


def test_two_traced_runs_give_identical_counts(tmp_path):
    ops = _coarse_ops(tmp_path, 3)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    first = _traced_counts(ops, out_dir)
    second = _traced_counts(ops, out_dir)
    assert first == second
    assert all(first[key] > 0 for key in EXACT_COUNTS), first


def test_timed_loop_ends_on_a_whole_cycle(tmp_path):
    ops = _coarse_ops(tmp_path, 4, names=("cli-mix",))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    cycle = WORKLOADS["cli-mix"].cycle
    results = run.timed_loop(cli, ops, out_dir, 1e-3, cycle)
    assert len(results) == cycle
    results = run.timed_loop(cli, ops * 8, out_dir, 0.5, cycle)
    assert results and len(results) % cycle == 0
    assert all(verdict.ok for _, verdict in results)


def test_irreducible_gate_checks_the_decision(tmp_path):
    ops = _coarse_ops(tmp_path, 6, names=("cli-mix",))
    op = next(op for op in ops if op.command == "irreducible")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run.run_op(cli, op, out_dir)[1].ok
    with redirect_stdout(io.StringIO()) as out:
        assert cli.run(cli.RunConfig(command="irreducible", model_path=op.model_path,
                                     output_dir=str(out_dir))) == 0
    stdout = out.getvalue()
    flipped = (stdout.replace("NOT_IRREDUCIBLE:", "IRREDUCIBLE:") if "NOT_IRREDUCIBLE:" in stdout
               else stdout.replace("IRREDUCIBLE:", "NOT_IRREDUCIBLE:"))
    assert check(op, 0, stdout, out_dir).ok
    assert not check(op, 0, flipped, out_dir).ok


def _module_state():
    state = {(m.__name__, k): v for m in PATCHED_MODULES for k, v in vars(m).items()}
    state.update(
        (("ClosedFormSolution", k), v) for k, v in vars(closed_form.ClosedFormSolution).items()
    )
    return state


def test_traced_run_removes_its_wrappers(tmp_path):
    before = _module_state()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    ops = _coarse_ops(tmp_path, 5, names=("cli-mix",))
    result = run.traced_run("cli-mix", cli, ops, out_dir, import_s=1.0)
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert set(result["metrics"]) == {name for name, _unit in LAYER_METRICS}
    assert result["attempted"] == 2 * len(ops)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "gfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "gfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        assert not (isinstance(doc, dict) and "metrics" in doc)
