"""The benchmark workloads: set-up, one round of operations, and checks.

A round always repeats the same work from the same start state, so the work
per operation and the share of failed operations do not depend on how many
rounds a run fits into its time.  The program is reached only through public
functions of ``cli``, ``optimize``, ``inverse`` (and ``diagnostics`` for the
fig1 study, through ``cli``), always as ``module.function`` so that tracing
can wrap the call.

Checks compare the program's outputs with values the benchmark computes on
its own (closed-form profiles, the bulk-conductivity sum, a central finite
difference) or with properties the method must have; no earlier output is
stored and compared against.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from phonon_inverse import cli, inverse, optimize

# Acceptance item 05 bound: adjoint pairing against central differences.
FD_REL_BOUND = 0.05
# A ground-truth readout loss this small is the known batch-versus-single
# readout summation-order fault (ROADMAP item 1), not a wrong measurement.
READOUT_ROUNDOFF = 1e-30


class RoundAborted(Exception):
    """An operation raised; the rest of its round cannot run."""


@dataclass
class Recorder:
    """Counts operations, times the counted ones, and collects check failures."""

    tracer: object
    attempted: int = 0
    failed: int = 0
    op_seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def op(self, fn, counted: bool = True):
        """Run one operation; ``counted`` ones enter ``ops_per_s``."""
        self.attempted += 1
        with self.tracer.phase("op" if counted else "aux"):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self.failed += 1
                self.problems.append(f"operation raised {type(exc).__name__}: {exc}")
                raise RoundAborted from exc
            elapsed = time.perf_counter() - start
        if counted:
            self.op_seconds.append(elapsed)
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)


def _rms(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def _shrink_grid(config: cli.ExperimentConfig) -> None:
    """Tiny phase space for the harness self-check (4 omega, 8 mu, 11 x nodes)."""
    config.grid.dx = 0.1
    config.grid.n_mu = 8
    config.grid.domega = 1.2


# --------------------------------------------------------------------------
# sec52 reconstruction
# --------------------------------------------------------------------------


@dataclass
class Sec52Context:
    config: cli.ExperimentConfig
    grid: object
    truth: object
    start: object
    pairs: list
    objective: optimize.PairObjective
    truth_tau: np.ndarray
    start_error: float
    start_loss: float = math.nan


class Workload:
    name = ""
    ops_per_round = 0
    setup_repeats = 1
    # Set-ups after each round; 0 runs them all before the first round.
    setups_between_rounds = 0

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny

    def setup(self, seed: int):
        raise NotImplementedError

    def check_setup(self, first, again, rec: Recorder) -> None:
        """A repeated set-up must build the same inputs as the first."""

    def before_rounds(self, ctx, rec: Recorder) -> None:
        """Once-per-run checks that need no operation."""

    def round(self, ctx, rec: Recorder, first: bool) -> None:
        raise NotImplementedError

    def close(self, ctx) -> None:
        """Release what set-up created on disk."""


class Sec52Armijo(Workload):
    """One ``sgd_step_armijo`` iteration with total-loss tracking, as ``reconstruct``."""

    name = "sec52-armijo"
    setup_repeats = 3

    def __init__(self, tiny: bool) -> None:
        super().__init__(tiny)
        self.steps_per_round = 1 if tiny else 3
        self.ops_per_round = self.steps_per_round + (4 if tiny else 10)

    def setup(self, seed: int) -> Sec52Context:
        """Preset, grid, materials and synthetic data, as ``reconstruct`` builds them."""
        config = cli.assemble_config("sec52", None, seed)
        if self.tiny:
            _shrink_grid(config)
            config.validate()
        grid = config.make_grid()
        truth = config.make_material(grid)
        start = config.make_material(grid, tau_spec=config.optimizer.initial_tau)
        pairs = inverse.generate_data(truth, grid, config.make_pairs(truth))
        objective = optimize.PairObjective(
            pairs, start.with_tau, grid, tau_bounds=start.tau_bounds
        )
        # Closed-form profiles, evaluated here rather than taken from the program.
        omega = np.asarray(grid.omega_nodes)
        truth_tau = 1.0 / np.sqrt(5.0 * omega) + 1.0
        start_error = _rms(-0.15 * (omega - 4.0) + 1.4, truth_tau)
        return Sec52Context(config, grid, truth, start, pairs, objective, truth_tau, start_error)

    def check_setup(self, first: Sec52Context, again: Sec52Context, rec: Recorder) -> None:
        rec.check(
            [pair.datum for pair in again.pairs] == [pair.datum for pair in first.pairs],
            "repeated set-ups produced different data",
        )

    def before_rounds(self, ctx: Sec52Context, rec: Recorder) -> None:
        omega = np.asarray(ctx.grid.omega_nodes)
        rec.check(
            np.allclose(ctx.truth.tau, ctx.truth_tau, rtol=1e-14, atol=0.0)
            and np.allclose(ctx.start.tau, -0.15 * (omega - 4.0) + 1.4, rtol=1e-14, atol=0.0),
            "preset tau profiles differ from their closed forms",
        )
        rec.check(
            all(p.datum is not None and math.isfinite(p.datum) and p.datum > 0.0
                for p in ctx.pairs),
            "synthetic data are not all finite and positive",
        )
        with rec.tracer.phase("check"):
            ctx.start_loss = inverse.total_loss(ctx.start, ctx.grid, ctx.pairs)

    def round(self, ctx: Sec52Context, rec: Recorder, first: bool) -> None:
        o = ctx.config.optimizer
        state = optimize.initial_state(ctx.start.tau, seed=o.seed, reference_tau=ctx.truth.tau)
        for _ in range(self.steps_per_round):
            state = rec.op(lambda: optimize.sgd_step_armijo(
                state, ctx.objective, c=o.c, alpha_max=o.alpha_max,
                reference_tau=ctx.truth.tau, track_total_loss=True,
            ))
            row = state.history[-1]
            rec.check(math.isfinite(row.gradient_norm), "nonfinite gradient")
            rec.check(state.skipped_steps == 0, "the line search skipped a step")
            rec.check(math.isfinite(row.loss_total) and row.loss_total >= 0.0,
                      f"tracked total loss {row.loss_total!r} is not finite and nonnegative")
            lo, hi = ctx.config.material.tau_min, ctx.config.material.tau_max
            inside = np.isfinite(state.tau) & (state.tau >= lo) & (state.tau <= hi)
            rec.check(bool(inside.all()), f"iterate left the box [{lo}, {hi}]")
            rec.check(state.clamp_events == 0, "an update was clamped to the tau box")
        error = _rms(state.tau, ctx.truth_tau)
        rec.check(
            error < ctx.start_error,
            f"RMS error {error:.6g} after a round is not below its start value "
            f"{ctx.start_error:.6g}",
        )
        rec.check(
            state.history[-1].loss_total < ctx.start_loss,
            "tracked total loss after a round is not below its start value",
        )
        # Data were made from the truth by the same program: every readout at
        # the truth must reproduce its datum exactly.
        for pair in ctx.pairs:
            value, _ = rec.op(lambda: inverse.loss(ctx.truth, ctx.grid, pair), counted=False)
            if value != 0.0:
                rec.failed += 1
                rec.check(
                    value <= READOUT_ROUNDOFF,
                    f"loss at the ground truth is {value:.3g}, beyond readout roundoff",
                )
        if first:
            with rec.tracer.phase("check"):
                self._check_first_gradient(ctx, rec, state.history[1])

    @staticmethod
    def _check_first_gradient(ctx: Sec52Context, rec: Recorder, row) -> None:
        """Adjoint gradient at the start state against two forward solves."""
        gc = ctx.config.gradcheck
        index = row.sample
        pair = ctx.pairs[index]
        _, _, gradient = inverse.loss_and_gradient(ctx.start, ctx.grid, pair)
        rec.check(bool(np.all(np.isfinite(gradient))), "first gradient is not finite")
        rec.check(
            math.sqrt(float(gradient @ gradient)) == row.gradient_norm,
            "the first step did not use the start-state gradient of its sample",
        )
        peak = float(ctx.grid.omega_nodes[int(np.argmax(np.abs(gradient)))])
        rec.check(
            abs(peak - pair.source.omega0) < 0.5 * ctx.config.grid.domega,
            f"gradient peaks at omega = {peak:g}, not at the pulse node "
            f"{pair.source.omega0:g}",
        )
        direction = inverse.gradient_aligned_directions(
            gradient, ctx.grid, count=1, seed=gc.direction_seed + index, min_cos=gc.min_cos
        )[0]
        predicted = inverse.omega_inner(gradient, direction, ctx.grid)
        step = gc.step

        def loss_at(tau):
            return inverse.loss(ctx.start.with_tau(tau), ctx.grid, pair)[0]

        measured = (loss_at(ctx.start.tau + step * direction)
                    - loss_at(ctx.start.tau - step * direction)) / (2.0 * step)
        rel = abs(predicted - measured) / abs(measured) if measured != 0.0 else math.inf
        rec.check(
            rel <= FD_REL_BOUND,
            f"adjoint pairing {predicted:.6g} differs from the central difference "
            f"{measured:.6g} by {rel:.2%}",
        )


# --------------------------------------------------------------------------
# fig1 diffusion study
# --------------------------------------------------------------------------


@dataclass
class Fig1Context:
    config: cli.ExperimentConfig
    grids: list
    materials: list
    out_dir: Path
    digests: dict[str, str] | None = None


def _digests(paths: list[Path]) -> dict[str, str]:
    result = {}
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        result[path.name] = digest.hexdigest()
    return result


def _read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Fig1Diffusion(Workload):
    """One ``cli.run_diffusion_study`` under the fig1 preset."""

    name = "fig1-diffusion"
    ops_per_round = 1
    # The ~8 ms set-up runs at about 5 ms or about 10 ms for seconds at a time
    # on a shared VM; spreading many of them over the run lets the median see
    # both.
    setup_repeats = 100
    setups_between_rounds = 15

    def __init__(self, tiny: bool, scratch: Path) -> None:
        super().__init__(tiny)
        self.scratch = scratch

    def setup(self, seed: int) -> Fig1Context:
        config = cli.assemble_config("fig1", None, None)
        if self.tiny:
            _shrink_grid(config)
            config.diffusion.t_end = 0.15
            config.diffusion.settle_time = 0.05
            config.validate()
        # The seed sets the pulse amplitude.  The study is linear in it, so
        # the conductivities and residuals it reports do not change.
        config.source.amplitude = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        d = config.diffusion
        grids = [config.make_grid(dt=dt, t_end=d.t_end, epsilon=eps)
                 for eps, dt in zip(d.epsilons, d.dts)]
        materials = [config.make_material(grid) for grid in grids]
        out_dir = self.scratch / "fig1"
        return Fig1Context(config, grids, materials, out_dir)

    def round(self, ctx: Fig1Context, rec: Recorder, first: bool) -> None:
        shutil.rmtree(ctx.out_dir, ignore_errors=True)
        ctx.out_dir.mkdir(parents=True)
        written = rec.op(lambda: cli.run_diffusion_study(ctx.config, ctx.out_dir))
        with rec.tracer.phase("check"):
            digests = _digests(written)
            if ctx.digests is None:
                ctx.digests = digests
                self._check_outputs(ctx, rec)
            rec.check(digests == ctx.digests,
                      "a rerun wrote files that differ from the run's first operation")

    def _check_outputs(self, ctx: Fig1Context, rec: Recorder) -> None:
        d = ctx.config.diffusion
        grid, material = ctx.grids[0], ctx.materials[0]
        summary = {row["key"]: row["value"] for row in _read_table(ctx.out_dir / "summary.csv")}
        w = np.asarray(grid.omega_weights) / np.sum(grid.omega_weights)
        bulk = float(np.sum(w * material.tau * material.velocity**2 * material.g_star)) / 3.0
        reported = float(summary["kappa_bulk"])
        rec.check(abs(reported - bulk) <= 1e-12 * abs(bulk),
                  f"kappa_bulk {reported!r} differs from the recomputed {bulk!r}")

        kappa_rows = _read_table(ctx.out_dir / "kappa_summary.csv")
        residual_rows = _read_table(ctx.out_dir / "residuals.csv")
        rec.check([float(r["epsilon"]) for r in kappa_rows] == list(d.epsilons),
                  "kappa summary does not list the preset's epsilons in order")
        gaps = []
        for row in kappa_rows:
            settled, gap = float(row["kappa_settled"]), float(row["bulk_gap"])
            rec.check(abs(gap - abs(settled - bulk) / bulk) <= 1e-12 * gap,
                      "bulk_gap is not |kappa_settled - kappa_bulk| / kappa_bulk")
            gaps.append(gap)
        residuals = [float(r["diffusive_residual"]) for r in residual_rows]
        if not self.tiny:
            for label, values in (("bulk gap", gaps), ("diffusive residual", residuals)):
                for a, b in zip(values, values[1:]):
                    rec.check(b > 0.0 and a / b >= 1.5,
                              f"{label} shrinks by less than 1.5x per halving of epsilon")
            rec.check(gaps[-1] < 0.01, f"bulk gap {gaps[-1]:.3%} at the smallest epsilon")

        for eps, grid in zip(d.epsilons, ctx.grids):
            self._check_macro_trace(ctx.out_dir / f"macro_trace_eps{eps:g}.csv", grid, rec)

    @staticmethod
    def _check_macro_trace(path: Path, grid, rec: Recorder) -> None:
        t_nodes, x_nodes = grid.t_nodes, grid.x_nodes
        rows = 0
        ok = True
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rec.check(header == ["t", "x", "q", "T", "dT_dx", "kappa", "kappa_defined"],
                      f"{path.name}: unexpected header {header}")
            for rows, row in enumerate(reader, start=1):
                i, j = divmod(rows - 1, x_nodes.size)
                t, x, q, temp, grad, kappa = map(float, row[:6])
                defined = row[6] == "1"
                ok = ok and (
                    i < t_nodes.size and t == t_nodes[i] and x == x_nodes[j]
                    and math.isfinite(q) and math.isfinite(temp) and math.isfinite(grad)
                    and (math.isfinite(kappa) if defined else math.isnan(kappa))
                    and row[6] in ("0", "1")
                )
        rec.check(rows == t_nodes.size * x_nodes.size,
                  f"{path.name}: {rows} rows, expected {t_nodes.size} x {x_nodes.size}")
        rec.check(ok, f"{path.name}: a row is off-grid, nonfinite or wrongly flagged")

    def close(self, ctx: Fig1Context) -> None:
        shutil.rmtree(ctx.out_dir, ignore_errors=True)


def make_workload(name: str, tiny: bool, scratch: Path) -> Workload:
    if name == Sec52Armijo.name:
        return Sec52Armijo(tiny)
    if name == Fig1Diffusion.name:
        return Fig1Diffusion(tiny, scratch)
    raise ValueError(
        f"unknown workload {name!r}; expected {Sec52Armijo.name} or {Fig1Diffusion.name}"
    )
