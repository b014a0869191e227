"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sec52-armijo --seed 1 --seconds 35 --trace 0

The load is a closed loop in this one process: each operation starts when the
previous one returns.  Set-up is repeated and timed on its own (``setup_s`` is
the median), before the first round or spread between rounds; whole rounds of
operations run until they have taken ``--seconds``.  With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics from spans around the program's public functions (the
spans are also written to ``.perfbench_trace/``).

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run stops with an error and prints no result.
"""

from __future__ import annotations

import os

# The program is single-threaded numpy; pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "transport.forward_traces_ms": "ms",
    "transport.forward_batch_ms": "ms",
    "transport.forward_stored_ms": "ms",
    "transport.adjoint_ms": "ms",
    "transport.forward_moments_ms": "ms",
    "transport.ns_per_cell_step": "ns",
    "transport.cell_steps_per_op": "count",
    "transport.solves_per_op": "count",
    "transport.stored_mb_per_op": "MB",
    "inverse.loss_and_gradient_ms": "ms",
    "inverse.assembly_self_ms": "ms",
    "inverse.loss_ms": "ms",
    "inverse.total_loss_ms": "ms",
    "inverse.generate_data_ms": "ms",
    "collision.apply_collision_ms": "ms",
    "optimize.step_self_ms": "ms",
    "optimize.loss_evals_per_step": "count",
    "optimize.tracking_share": "ratio",
    "diagnostics.macro_trace_ms": "ms",
    "diagnostics.csv_write_ms": "ms",
    "diagnostics.csv_mb_per_s": "MB/s",
    "cli.study_self_ms": "ms",
}


def _import_program():
    """Import phonon_inverse from this checkout's ``src/``, refusing any other copy."""
    if not (SOURCE / "phonon_inverse" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SOURCE / 'phonon_inverse'}")
    sys.path.insert(0, str(SOURCE))
    import phonon_inverse

    location = Path(phonon_inverse.__file__).resolve()
    if SOURCE.resolve() not in location.parents:
        raise SystemExit(f"error: imported phonon_inverse from {location}, not from {SOURCE}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink the phase-space grid (harness self-check only)",
    )
    return parser.parse_args(argv)


def run(args) -> dict:
    from tracing import NullTracer, Tracer, layer_metrics
    from workloads import Recorder, RoundAborted, make_workload

    scratch = ROOT / ".perfbench_scratch" / str(os.getpid())
    try:
        workload = make_workload(args.workload, args.tiny, scratch)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    tracer = Tracer() if args.trace else NullTracer()
    rec = Recorder(tracer)
    try:
        with tracer.installed():
            setup_seconds = []

            def timed_setup():
                with tracer.phase("setup"):
                    start = time.perf_counter()
                    ctx = workload.setup(args.seed)
                    setup_seconds.append(time.perf_counter() - start)
                return ctx

            def more_setups(count: int) -> None:
                for _ in range(min(count, workload.setup_repeats - len(setup_seconds))):
                    workload.check_setup(ctx, timed_setup(), rec)

            ctx = timed_setup()
            if not workload.setups_between_rounds:
                more_setups(workload.setup_repeats)
            workload.before_rounds(ctx, rec)
            measured = 0.0
            rounds = 0
            while rounds == 0 or measured < args.seconds:
                attempted = rec.attempted
                start = time.perf_counter()
                try:
                    workload.round(ctx, rec, first=rounds == 0)
                except RoundAborted:
                    skipped = workload.ops_per_round - (rec.attempted - attempted)
                    rec.attempted += skipped
                    rec.failed += skipped
                measured += time.perf_counter() - start
                rounds += 1
                more_setups(workload.setups_between_rounds)
            more_setups(workload.setup_repeats)
            workload.close(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    for problem in rec.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ops = len(rec.op_seconds)
    ops_per_s = 1.0 / statistics.median(rec.op_seconds) if ops else 0.0
    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds, {rec.attempted} operations "
        f"({rec.failed} failed), {ops_per_s:.4g} ops/s, set-up "
        f"{[round(s, 4) for s in setup_seconds]} s",
        file=sys.stderr,
    )
    print(f"op wall s {[round(s, 4) for s in rec.op_seconds]}", file=sys.stderr)
    if args.trace:
        trace_path = ROOT / ".perfbench_trace" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(str(trace_path))
        values = layer_metrics(tracer.spans, max(ops, 1))
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": ops_per_s,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
