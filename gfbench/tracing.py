"""Spans and counts recorded around calls into gfrag's modules.

The wrappers live here, in the benchmark, and are installed on the name
each caller actually looks up: a by-name import such as
``gfrag.pde.advance_upwind`` is patched in the importing module, while a
name read through its module, such as ``gfrag._kernels.prefix_transport_scan``
inside ``gfrag.resolvent``, is patched on that module.  ``Tracer.remove``
restores every original, so untraced runs measure unpatched code.

A span is ``[name, start, end, parent, op]``; spans of one CLI invocation
share the op id.  A span's self time is its duration minus the durations
of its direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import os
import statistics
import weakref
from collections import Counter, defaultdict
from time import perf_counter

OP_SPAN = "op"


class _CountingIntegrate:
    """Stand-in for ``scipy.integrate`` inside ``gfrag.model`` that counts
    ``quad`` calls and forwards everything else."""

    def __init__(self, module, counts: Counter):
        self._module = module
        self._counts = counts

    def quad(self, *args, **kwargs):
        self._counts["model.quad.calls"] += 1
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._gain_seen: list[weakref.ref] = []

    # -- recording ---------------------------------------------------------

    def open_span_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _spanned(self, name: str, fn, after=None, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        # classes are wrapped too, so copy no attribute dict
        return functools.update_wrapper(wrapper, fn, updated=())

    def _counted_inside(self, span_name: str, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.open_span_name() == span_name:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call counters -------------------------------------------------

    def _scan_cells(self, key):
        def after(args, result):
            self.counts[key] += len(args[2])

        return after

    def _upwind_work(self, args, result):
        n_steps, gain = args[1], args[6]
        self.counts["kernels.advance_upwind.steps"] += n_steps
        self.counts["kernels.advance_upwind.bytes_computed"] += gain.nbytes * n_steps

    def _gain_outcome(self, args, result):
        self._gain_seen = [ref for ref in self._gain_seen if ref() is not None]
        if any(ref() is result for ref in self._gain_seen):
            self.counts["resolvent.gain_build.hits"] += 1
            return
        self._gain_seen.append(weakref.ref(result))
        self.counts["resolvent.gain_build.bytes_computed"] += result.nbytes

    def _csv_rows(self, args):
        def counted(rows):
            for row in rows:
                self.counts["cli.emit_csv.rows"] += 1
                yield row

        return (args[0], args[1], counted(args[2])) + tuple(args[3:])

    def _csv_bytes(self, args, result):
        self.counts["cli.emit_csv.bytes"] += os.path.getsize(args[0])

    def _sweep(self, key):
        def after(args, result):
            if self.open_span_name() == "spectral.perron":
                self.counts[key] += 1

        return after

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Install every wrapper; ``remove`` undoes it."""
        from gfrag import _kernels, cli, closed_form, model, pde, resolvent, spectral

        if self._patches:
            raise RuntimeError("tracer already installed")
        solution_cls = closed_form.ClosedFormSolution
        spanned = [
            (cli, "_load", "cli.load", None, None),
            (cli, "emit_csv", "cli.emit_csv", self._csv_bytes, self._csv_rows),
            (cli, "validate_assumptions", "model.validate", None, None),
            (cli, "compute_c_bar", "irreducibility.c_bar", None, None),
            (cli, "decide_irreducibility", "irreducibility.decide", None, None),
            (cli, "perron_eigenpair", "spectral.perron", None, None),
            (cli, "closed_form_eigenpair", "spectral.closed_form_eigenpair", None, None),
            (cli, "aeg_diagnostics", "spectral.aeg", None, None),
            (cli, "solve", "pde.solve", None, None),
            (spectral, "solve", "pde.solve", None, None),
            (spectral, "ResolventContext", "resolvent.context", None, None),
            (spectral, "apply_resolvent_K", "resolvent.neumann",
             self._sweep("spectral.forward_sweeps"), None),
            (spectral, "_resolvent_K_transpose", "resolvent.adjoint",
             self._sweep("spectral.adjoint_sweeps"), None),
            (spectral, "_generator_residual", "spectral.residual", None, None),
            (resolvent, "fragmentation_gain_matrix", "resolvent.gain_build",
             self._gain_outcome, None),
            (pde, "fragmentation_gain_matrix", "resolvent.gain_build", self._gain_outcome, None),
            (spectral, "fragmentation_gain_matrix", "resolvent.gain_build",
             self._gain_outcome, None),
            (_kernels, "prefix_transport_scan", "kernels.prefix_scan",
             self._scan_cells("kernels.prefix_scan.cells"), None),
            (_kernels, "adjoint_transport_scan", "kernels.adjoint_scan",
             self._scan_cells("kernels.adjoint_scan.cells"), None),
            (pde, "advance_upwind", "kernels.advance_upwind", self._upwind_work, None),
            (closed_form, "ClosedFormSolution", "closed_form.prepare", None, None),
            (spectral, "ClosedFormSolution", "closed_form.prepare", None, None),
            (solution_cls, "evaluate", "closed_form.evaluate", None, None),
        ]
        for owner, attr, name, after, before in spanned:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr), after, before))
        self._patch(
            resolvent,
            "apply_resolvent_Zbeta",
            self._counted_inside("resolvent.neumann", "resolvent.neumann.terms",
                                 resolvent.apply_resolvent_Zbeta),
        )
        self._patch(
            resolvent,
            "_apply_resolvent_Zbeta_transpose",
            self._counted_inside("resolvent.adjoint", "resolvent.adjoint.terms",
                                 resolvent._apply_resolvent_Zbeta_transpose),
        )
        self._patch(model, "integrate", _CountingIntegrate(model.integrate, self.counts))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - c for (_n, start, end, _p, _o), c in zip(self.spans, covered)]

    def by_name(self) -> tuple[dict, dict]:
        """Inclusive and self seconds summed per span name."""
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for rec, self_s in zip(self.spans, self.self_times()):
            inclusive[rec[0]] += rec[2] - rec[1]
            own[rec[0]] += self_s
        return inclusive, own

    def op_durations(self) -> list[float]:
        return [end - start for name, start, end, _p, _o in self.spans if name == OP_SPAN]


# per-layer metrics: (name, unit); values come from layer_metrics()
LAYER_METRICS = (
    ("kernels.prefix_scan.calls", "count"),
    ("kernels.prefix_scan.cells", "count"),
    ("kernels.prefix_scan.s", "s"),
    ("kernels.adjoint_scan.calls", "count"),
    ("kernels.adjoint_scan.cells", "count"),
    ("kernels.adjoint_scan.s", "s"),
    ("kernels.advance_upwind.calls", "count"),
    ("kernels.advance_upwind.steps", "count"),
    ("kernels.advance_upwind.s", "s"),
    ("kernels.advance_upwind.bytes_computed", "B"),
    ("resolvent.gain_build.calls", "count"),
    ("resolvent.gain_build.s", "s"),
    ("resolvent.gain_build.cache_hit_ratio", "ratio"),
    ("resolvent.gain_build.bytes_computed", "B"),
    ("resolvent.context.calls", "count"),
    ("resolvent.context.s", "s"),
    ("model.quad.calls", "count"),
    ("resolvent.neumann.solves", "count"),
    ("resolvent.neumann.terms", "count"),
    ("resolvent.neumann.s", "s"),
    ("resolvent.adjoint.solves", "count"),
    ("resolvent.adjoint.terms", "count"),
    ("resolvent.adjoint.s", "s"),
    ("spectral.perron.s", "s"),
    ("spectral.forward_sweeps", "count"),
    ("spectral.adjoint_sweeps", "count"),
    ("spectral.residual.s", "s"),
    ("pde.solve.s", "s"),
    ("pde.solve.self_s", "s"),
    ("cli.load.s", "s"),
    ("cli.emit_csv.calls", "count"),
    ("cli.emit_csv.rows", "count"),
    ("cli.emit_csv.bytes", "B"),
    ("cli.emit_csv.s", "s"),
    ("model.validate.s", "s"),
    ("closed_form.prepare.s", "s"),
    ("closed_form.evaluate.s", "s"),
    ("spectral.closed_form_eigenpair.s", "s"),
    ("spectral.aeg.s", "s"),
    ("irreducibility.c_bar.s", "s"),
    ("irreducibility.decide.s", "s"),
    ("import.s", "s"),
    ("trace.op_p50_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# counts that must repeat exactly between two traced runs on one seed
EXACT_COUNTS = (
    "kernels.prefix_scan.calls",
    "kernels.prefix_scan.cells",
    "kernels.adjoint_scan.calls",
    "kernels.adjoint_scan.cells",
    "kernels.advance_upwind.calls",
    "kernels.advance_upwind.steps",
    "resolvent.gain_build.calls",
    "resolvent.gain_build.hits",
    "resolvent.neumann.terms",
    "resolvent.adjoint.terms",
    "spectral.forward_sweeps",
    "spectral.adjoint_sweeps",
    "model.quad.calls",
)


def layer_metrics(tracer: Tracer, import_s: float, untraced_p50: float) -> dict:
    """Per-layer values named as in LAYER_METRICS."""
    c = tracer.counts
    inclusive, own = tracer.by_name()
    values = {}
    for name, unit in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if unit == "s" and field == "s":
            values[name] = inclusive.get(base, 0.0)
        elif field == "solves":
            values[name] = c[base + ".calls"]
        else:
            values[name] = c[name]
    gain_calls = c["resolvent.gain_build.calls"]
    values["resolvent.gain_build.cache_hit_ratio"] = (
        c["resolvent.gain_build.hits"] / gain_calls if gain_calls else 0.0
    )
    values["pde.solve.self_s"] = own.get("pde.solve", 0.0)
    values["import.s"] = import_s
    traced_p50 = statistics.median(tracer.op_durations())
    values["trace.op_p50_s"] = traced_p50
    values["trace.residual_s"] = own.get(OP_SPAN, 0.0)
    values["trace.overhead_frac"] = traced_p50 / untraced_p50
    return values


def breakdown_table(tracer: Tracer, workload: str, untraced_p50: float) -> str:
    """Self time per span name beside the traced op median.

    The self times of all spans, the op spans' own residual included, add
    up to the summed op wall time exactly.
    """
    _inclusive, own = tracer.by_name()
    ops = tracer.op_durations()
    total = sum(ops)
    traced_p50 = statistics.median(ops)
    lines = [
        f"layer breakdown, {workload}: {len(ops)} traced ops, "
        f"traced op_p50_s {traced_p50:.4f} s, untraced op_p50_s {untraced_p50:.4f} s",
        f"  {'layer (span)':<34} {'calls':>8} {'self_s':>10} {'share':>7}",
    ]
    rows = sorted(((s, n) for n, s in own.items() if n != OP_SPAN), reverse=True)
    for self_s, name in rows:
        calls = tracer.counts[name + ".calls"]
        lines.append(f"  {name:<34} {calls:>8} {self_s:>10.4f} {self_s / total:>7.1%}")
    residual = own.get(OP_SPAN, 0.0)
    lines.append(
        f"  {'residual (op outside all layers)':<34} {len(ops):>8} {residual:>10.4f} "
        f"{residual / total:>7.1%}"
    )
    lines.append(f"  {'total op wall':<34} {'':>8} {total:>10.4f} {1.0:>7.1%}")
    return "\n".join(lines)
