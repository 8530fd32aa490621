"""gfrag benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 gfbench/run.py --workload eigen-mix --seed 1 --seconds 20 --trace 0

The benchmark's own tests run with ``python3 -m pytest gfbench``.

Workloads are described in ``workloads.py``.  With ``--trace 0`` the run
warms up with one untimed op per command, then runs whole op cycles for
about ``--seconds`` and reports the end-to-end metrics; set-up is timed
separately in fresh processes.  With
``--trace 1`` it runs the workload's fixed traced op list twice, first with
the wrappers of ``tracing.py`` installed and then without them, and
reports the per-layer metrics plus a self-time breakdown table; the op list
is fixed so that every count repeats exactly for a seed.

Every op passes through the checks in ``workloads.check``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  If gfrag cannot be imported or
run, the script exits non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".gfbench_work"
sys.path.insert(0, str(SRC))

from tracing import LAYER_METRICS, OP_SPAN, Tracer, breakdown_table, layer_metrics  # noqa: E402
from workloads import OUTPUT_FILES, WORKLOADS, Verdict, check, write_inputs  # noqa: E402

SETUP_PROBES = 3

# bounded metrics (BENCHMARK.json "end_to_end"); each exists on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("closed_form_rel_err", "ratio"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """Keep BLAS and OpenMP pools at or below the usable core count; must
    run before numpy is imported, and child processes inherit it."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)


_cap_blas_threads()


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfrag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "gfrag_source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up


def import_cli():
    """Import gfrag.cli from this checkout's src, never from an installed copy."""
    import gfrag.cli

    if SRC.resolve() not in Path(gfrag.cli.__file__).resolve().parents:
        raise ImportError(f"gfrag imported from {gfrag.cli.__file__}, not from {SRC}")
    return gfrag.cli


def setup(workload: str, seed: int, directory: Path):
    """Import the CLI and write the workload's inputs, as a run starts."""
    import_cli()
    return write_inputs(WORKLOADS[workload], seed, directory)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until it has imported
    gfrag.cli and written its inputs, once per probe."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# operations


def run_op(cli, op, out_dir: Path, tracer: Tracer | None = None, op_id: int = 0):
    """One CLI invocation, timed, then checked outside the timed region."""
    for name in OUTPUT_FILES[op.command]:
        (out_dir / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cfg = cli.RunConfig(
                command=op.command, model_path=op.model_path, output_dir=str(out_dir),
                n_cells=op.n_cells,
            )
            if tracer is None:
                rc = cli.run(cfg)
            else:
                tracer.op_id = op_id
                rc = tracer.call(OP_SPAN, cli.run, cfg)
        elapsed = perf_counter() - start
    except Exception:  # a crashing op counts as failed; the loop goes on
        elapsed = perf_counter() - start
        verdict = Verdict(False, traceback.format_exc())
    else:
        verdict = check(op, rc, out.getvalue(), out_dir)
    if not verdict.ok:
        print(f"op {op_id} {op.command} {op.model_path} failed: {verdict.reason}\n"
              f"{err.getvalue()}", file=sys.stderr)
    return elapsed, verdict


def warm_up(cli, ops, out_dir: Path):
    """One untimed op per command, so first-call costs in the process
    (lazy imports, allocator growth) stay out of the timed loop.  Ops
    rebuild their models from file, so this warms no model cache."""
    first = {}
    for op in ops:
        first.setdefault(op.command, op)
    return [run_op(cli, op, out_dir, op_id=-1)[1] for op in first.values()]


def timed_loop(cli, ops, out_dir: Path, seconds: float, unit: int):
    """Closed loop over whole units of ``unit`` ops, one op cycle, so every
    run sees the same mix of families and commands: the next op starts
    when the last returns, and a new unit starts while the time left holds
    at least half a unit at the mean pace so far, so a run ends within half
    a unit of ``seconds``.  At least one unit runs."""
    results = []
    start = perf_counter()
    while True:
        for _ in range(unit):
            results.append(run_op(cli, ops[len(results) % len(ops)], out_dir, op_id=len(results)))
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / (len(results) // unit) > seconds:
            return results


def reference_verdicts(cli, ops, out_dir: Path, results, n_ref: int):
    """Verdicts of the binary draws among the first ``n_ref`` ops, a set
    fixed by the seed alone, so the closed-form errors do not depend on how
    many ops a run's time allows.  They come from the timed loop; draws it
    did not reach run here, untimed.  Returns (op, verdict) pairs and the
    verdicts of the extra ops."""
    timed = [(op, v) for op, (_, v) in zip(ops, results[:n_ref]) if op.has_closed_form]
    extra = [(op, run_op(cli, op, out_dir, op_id=i)[1])
             for i, op in enumerate(ops[len(results):n_ref], start=len(results))
             if op.has_closed_form]
    return timed + extra, [v for _, v in extra]


def _metric_block(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def end_to_end_run(seconds: float, workload: str, cli, ops, out_dir: Path,
                   setup_samples: list[float]) -> dict:
    spec = WORKLOADS[workload]
    warm = warm_up(cli, ops, out_dir)
    results = timed_loop(cli, ops, out_dir, seconds, spec.cycle)
    times = [t for t, _ in results]
    good = [v for _, v in results if v.ok]
    reference, extra = reference_verdicts(cli, ops, out_dir, results, spec.ref_cycles * spec.cycle)
    errors = [v.closed_form_rel_err for _, v in reference if v.ok]
    untimed = warm + extra
    failed = len(results) - len(good) + sum(not v.ok for v in untimed)
    attempted = len(results) + len(untimed)
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(good) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
        # median over the fixed reference draws, whose errors spread over
        # decades on cli-mix; 1.0 (all wrong) when none passed
        "closed_form_rel_err": statistics.median(errors) if errors else 1.0,
    }
    print(f"ops: {len(warm)} warm-up, {len(results)} timed, {len(extra)} untimed reference, "
          f"{failed} failed; "
          f"set-up samples: {[round(s, 4) for s in setup_samples]}")
    print(f"error_rate = {failed / attempted:.6g} ratio")
    print_details(ops, results, reference)
    for name, unit in END_TO_END:
        print(f"{name} = {values[name]:.6g} {unit}")
    return {
        # every workload has binary draws whose outputs meet the closed form
        "correct": failed == 0 and bool(errors),
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block(values, END_TO_END),
    }


def print_details(ops, results, reference) -> None:
    """Unbounded figures: the tail percentile with its sample count,
    per-command times and the largest closed-form errors of the reference
    draws."""
    times = [t for t, _ in results]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    print(f"op_p90_s = {p90:.6g} s ({len(times)} samples, "
          f"{sum(t > p90 for t in times)} beyond it)")
    groups: dict = {}
    for i, (t, _) in enumerate(results):
        op = ops[i % len(ops)]
        groups.setdefault(f"{op.command} {op.family}", []).append(t)
    for key, group in groups.items():
        print(f"op times, {key}: n={len(group)} median={statistics.median(group):.4f} s "
              f"min={min(group):.4f} s max={max(group):.4f} s")
    passed = [(op, v) for op, v in reference if v.ok]
    if not passed:
        return
    command = passed[0][0].command
    if command == "eigen":
        worst = max(v.s0_abs_err for _, v in passed)
        print(f"s0_abs_err = {worst:.6e} (largest over {len(passed)} binary reference draws)")
    else:
        worst = max(v.closed_form_rel_err for _, v in passed)
        print(f"moment_rel_err, {command} = {worst:.6e} "
              f"(largest over {len(passed)} binary reference draws)")


def traced_run(workload: str, cli, ops, out_dir: Path, import_s: float) -> dict:
    subset = ops[: WORKLOADS[workload].trace_ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(cli, op, out_dir, tracer, i) for i, op in enumerate(subset)]
    finally:
        tracer.remove()
    untraced = [run_op(cli, op, out_dir, op_id=i) for i, op in enumerate(subset)]
    untraced_p50 = statistics.median(t for t, _ in untraced)
    values = layer_metrics(tracer, import_s, untraced_p50)
    print(breakdown_table(tracer, workload, untraced_p50))
    for name, unit in LAYER_METRICS:
        print(f"{name} = {values[name]:.6g} {unit}")
    failed = sum(not v.ok for _, v in traced + untraced)
    return {
        "correct": failed == 0,
        "attempted": len(traced) + len(untraced),
        "failed": failed,
        "metrics": _metric_block(values, LAYER_METRICS),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gfrag benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from the fixed traced op list")
    p.add_argument("--setup-only", action="store_true",
                   help="import gfrag and write the inputs, then print 'ready' (set-up probe)")
    args = p.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed, WORK / "setup-probe" / args.workload)
        print("ready", flush=True)
        return 0

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    start = perf_counter()
    cli = import_cli()
    import_s = perf_counter() - start
    ops = write_inputs(WORKLOADS[args.workload], args.seed, work / "models")
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    print(f"gfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        result = traced_run(args.workload, cli, ops, out_dir, import_s)
    else:
        result = end_to_end_run(args.seconds, args.workload, cli, ops, out_dir, setup_samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
