"""Spans around calls into the program's modules, and the per-layer metrics.

Tracing wraps a fixed list of public functions while it is active.  Each
wrapper records one span (name, start, end, parent span, the benchmark phase
it ran in, and a few exact counts such as cell-steps), and the wrappers are
removed again on exit.  Spans stay in memory; :meth:`Tracer.dump` writes them
out when the run ends.  Nothing under ``src/`` is modified on disk.

A module's functions are reached both as ``module.fn`` and through names that
other modules imported with ``from module import fn``; every such global of a
loaded ``phonon_inverse`` module is swapped for the wrapper, so calls made
inside the program are seen too.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) pairs that get a span; the span name is "module.function".
TRACED = (
    ("transport", "solve_forward"),
    ("transport", "solve_forward_batch"),
    ("transport", "solve_adjoint"),
    ("inverse", "loss_and_gradient"),
    ("inverse", "loss"),
    ("inverse", "total_loss"),
    ("inverse", "generate_data"),
    ("collision", "apply_collision"),
    ("optimize", "sgd_step_armijo"),
    ("diagnostics", "compute_macro_trace"),
    ("diagnostics", "write_macro_trace_csv"),
    ("cli", "run_diffusion_study"),
)

# Phases whose spans feed the per-layer metrics.  "check" work (finite
# differences, reference losses) and "aux" operations are traced but left out.
MEASURED_PHASES = ("setup", "op")


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    phase: str = ""
    kind: str = ""
    cell_steps: int = 0
    stored_bytes: int = 0
    written_bytes: int = 0
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: phases are tracked for nothing and no function is wrapped."""

    @contextmanager
    def phase(self, name: str):
        yield

    @contextmanager
    def installed(self):
        yield


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._phase = ""

    @contextmanager
    def phase(self, name: str):
        saved, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = saved

    @contextmanager
    def installed(self):
        swaps = []
        for module_name, fn_name in TRACED:
            module = sys.modules[f"phonon_inverse.{module_name}"]
            original = getattr(module, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for mod_key, mod in list(sys.modules.items()):
                if not (mod_key == "phonon_inverse" or mod_key.startswith("phonon_inverse.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swaps.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in swaps:
                setattr(mod, attr, original)

    def _wrap(self, name: str, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(
                name=name,
                start=0.0,
                parent=self._stack[-1] if self._stack else None,
                phase=self._phase,
            )
            index = len(self.spans)
            self.spans.append(span)
            if span.parent is not None:
                self.spans[span.parent].children.append(index)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            _annotate(span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = [
            {
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "phase": s.phase, "kind": s.kind,
                "cell_steps": s.cell_steps, "stored_bytes": s.stored_bytes,
                "written_bytes": s.written_bytes,
            }
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(records, handle)


def _annotate(span: Span, arguments: dict, result) -> None:
    """Exact counts for a finished span, taken from its arguments and result."""
    if span.name.startswith("transport."):
        grid = arguments["grid"]
        batch = len(arguments["sources"]) if "sources" in arguments else 1
        span.cell_steps = batch * (grid.n_t - 1) * grid.n_x * grid.n_mu * grid.n_omega
        if span.name == "transport.solve_forward_batch":
            span.kind = "batch"
        elif span.name == "transport.solve_adjoint":
            span.kind = "adjoint"
        elif arguments.get("moment_weights") is not None:
            span.kind = "moments"
        elif arguments.get("store_trajectory", True):
            span.kind = "stored"
        else:
            span.kind = "traces"
        values = getattr(result, "values", None)
        span.stored_bytes = 0 if values is None else int(values.nbytes)
    elif span.name == "diagnostics.write_macro_trace_csv":
        span.written_bytes = os.path.getsize(arguments["path"])


def _self_seconds(spans: list[Span], span: Span) -> float:
    return span.seconds - sum(spans[c].seconds for c in span.children)


def _has_ancestor(spans: list[Span], span: Span, names: tuple[str, ...]) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of setup and counted operations.

    Times are milliseconds per call (total over calls divided by the number of
    calls; 0 when the layer is never called).  "Self" times subtract the
    span's direct children.  ``*_per_op`` counts are totals over the counted
    operations divided by their number.
    """
    measured = [s for s in spans if s.phase in MEASURED_PHASES]
    in_ops = [s for s in measured if s.phase == "op"]

    def per_call_ms(selected: list[Span], seconds=lambda s: s.seconds) -> float:
        return 1e3 * sum(seconds(s) for s in selected) / len(selected) if selected else 0.0

    def named(name: str) -> list[Span]:
        return [s for s in measured if s.name == name]

    solves = [s for s in measured if s.name.startswith("transport.")]
    op_solves = [s for s in in_ops if s.name.startswith("transport.")]
    solve_cells = sum(s.cell_steps for s in solves)
    steps = [s for s in in_ops if s.name == "optimize.sgd_step_armijo"]
    step_names = ("optimize.sgd_step_armijo",)
    step_seconds = sum(s.seconds for s in steps)
    tracked = [
        s for s in in_ops
        if s.name == "inverse.total_loss" and _has_ancestor(spans, s, step_names)
    ]
    step_losses = [
        s for s in in_ops
        if s.name == "inverse.loss" and _has_ancestor(spans, s, step_names)
    ]
    writes = named("diagnostics.write_macro_trace_csv")
    write_seconds = sum(s.seconds for s in writes)
    self_of = functools.partial(_self_seconds, spans)

    def solve_ms(kind: str) -> float:
        return per_call_ms([s for s in solves if s.kind == kind])

    return {
        "transport.forward_traces_ms": solve_ms("traces"),
        "transport.forward_batch_ms": solve_ms("batch"),
        "transport.forward_stored_ms": solve_ms("stored"),
        "transport.adjoint_ms": solve_ms("adjoint"),
        "transport.forward_moments_ms": solve_ms("moments"),
        "transport.ns_per_cell_step": (
            1e9 * sum(s.seconds for s in solves) / solve_cells if solve_cells else 0.0
        ),
        "transport.cell_steps_per_op": sum(s.cell_steps for s in op_solves) / n_ops,
        "transport.solves_per_op": len(op_solves) / n_ops,
        "transport.stored_mb_per_op": sum(s.stored_bytes for s in op_solves) / 1e6 / n_ops,
        "inverse.loss_and_gradient_ms": per_call_ms(named("inverse.loss_and_gradient")),
        "inverse.assembly_self_ms": per_call_ms(named("inverse.loss_and_gradient"), self_of),
        "inverse.loss_ms": per_call_ms(named("inverse.loss")),
        "inverse.total_loss_ms": per_call_ms(named("inverse.total_loss")),
        "inverse.generate_data_ms": per_call_ms(named("inverse.generate_data")),
        "collision.apply_collision_ms": per_call_ms(named("collision.apply_collision")),
        "optimize.step_self_ms": per_call_ms(steps, self_of),
        "optimize.loss_evals_per_step": len(step_losses) / len(steps) if steps else 0.0,
        "optimize.tracking_share": (
            sum(s.seconds for s in tracked) / step_seconds if steps else 0.0
        ),
        "diagnostics.macro_trace_ms": per_call_ms(named("diagnostics.compute_macro_trace")),
        "diagnostics.csv_write_ms": per_call_ms(writes),
        "diagnostics.csv_mb_per_s": (
            sum(s.written_bytes for s in writes) / 1e6 / write_seconds if writes else 0.0
        ),
        "cli.study_self_ms": per_call_ms(named("cli.run_diffusion_study"), self_of),
    }
