"""Command-line experiment runner: configs in, CSV artifacts out.

This is the only module that touches the filesystem or the process exit
code.  A run is described by an :class:`ExperimentConfig` (INI file with
typed sections), assembled as defaults -> preset -> config file -> flags;
the effective config is echoed into the output directory as ``config.ini``
so every run is reproducible from its own artifacts.  All numeric output is
headered CSV with floats at full precision (".17g"), and nothing in the
outputs depends on wall-clock time, so re-running a command with the same
config and seed rewrites byte-identical files.

Subcommands:

- ``forward``          mu-averaged snapshots of the kinetic field plus the
                       boundary-temperature trace (optionally one frequency
                       slice at a chosen phase-space point).
- ``diffusion``        macroscopic traces across a list of epsilon values,
                       settled-conductivity and diffusive-residual tables;
                       the epsilon runs share the available CPUs.
- ``generate-data``    synthetic measured data for a pulse/readout sweep.
- ``reconstruct``      stochastic-gradient recovery of the relaxation time
                       from synthetic data, with history and snapshots.
- ``grad-check``       adjoint gradients against finite-difference oracles.
- ``grad-diagnostics`` norm/cosine geometry of the gradient bundle, before
                       and after random recombination.

Presets bundle the grids and constants of the four standard studies:
``fig1`` (diffusion-limit sweep), ``fig4`` (ballistic snapshot gallery),
``fig5`` (diffusive snapshot gallery with a frequency slice), and ``sec52``
(the full ten-pulse reconstruction).  Each is an INI overlay on the
defaults, read like a config file.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from phonon_inverse.collision import temperature_of
from phonon_inverse.diagnostics import (
    bulk_kappa,
    chapman_enskog_residual,
    compute_macro_trace,
    probe_index,
    settled_kappa,
    to_g,
    write_macro_trace_csv,
)
from phonon_inverse.grid import GridConfig, PhaseGrid, build_grid
from phonon_inverse.inverse import (
    SourceTestPair,
    fd_gradient_oracle,
    frechet_gradient,
    frequency_sweep_pairs,
    generate_data,
    gradient_aligned_directions,
    omega_inner,
)
from phonon_inverse.material import (
    GStarProfile,
    MaterialModel,
    TauProfile,
    build_material,
    constant_g_star,
    constant_tau,
    default_g_star,
    ground_truth_tau,
    initial_guess_tau,
)
from phonon_inverse.optimize import (
    PairObjective,
    gradient_geometry,
    min_pairwise_cosine,
    norm_ratio_spread,
    recombine_gradients,
    run_sgd,
)
from phonon_inverse.transport import (
    BoundarySource,
    SourceFunction,
    gaussian_source,
    solve_forward,
)


# --------------------------------------------------------------------------
# Config sections
# --------------------------------------------------------------------------


@dataclass
class GridSection:
    """Discretization of (t, x, mu, omega); x always spans [0, 1]."""

    dt: float = 0.005
    dx: float = 0.02
    domega: float = 0.4
    n_mu: int = 64
    t_end: float = 1.65
    omega_min: float = 0.4
    omega_max: float = 4.0
    epsilon: float = 1.0


@dataclass
class MaterialSection:
    """Coefficient profiles: ``tau``/``g_star`` accept ``ground_truth``,
    ``initial_guess`` (tau only), ``default`` (g_star only), or
    ``constant:<value>``; ``velocity`` is the two linear coefficients."""

    tau: str = "ground_truth"
    g_star: str = "default"
    velocity: tuple[float, float] = (2.5, -0.2)
    tau_min: float = 0.1
    tau_max: float = 10.0


@dataclass
class SourceSection:
    """Gaussian injection pulse for the forward and diffusion studies.

    ``amplitude`` scales the unit-peak pulse; zero gives an exactly dark
    boundary (useful for smoke tests).
    """

    t0: float = 0.04
    mu0: float = 0.96
    omega0: float = 2.0
    width_t: float = 0.01
    width_mu: float = 0.01
    width_omega: float = 0.1
    amplitude: float = 1.0


@dataclass
class ForwardSection:
    """Snapshot times for the forward demo; ``omega_slice`` is an optional
    (t, x, mu) triple naming one frequency profile to extract (t must be one
    of the snapshot times)."""

    snapshot_times: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.2)
    omega_slice: tuple[float, ...] = ()


@dataclass
class DiffusionSection:
    """Epsilon sweep for the diffusion study; one time step per epsilon
    (small epsilon needs the stiff-relaxation step bound)."""

    epsilons: tuple[float, ...] = (0.2, 0.1, 0.05)
    dts: tuple[float, ...] = (0.001, 0.0005, 0.00025)
    t_end: float = 0.5
    x_probe: float = 0.5
    settle_time: float = 0.125


@dataclass
class PairsSection:
    """Pulse/readout sweep: one experiment per entry of ``omega_centers``
    (empty means one per frequency node), all sharing the injection geometry
    and readout width."""

    t0: float = 0.1
    mu0: float = 0.93
    width_t: float = 0.01
    width_mu: float = 0.01
    width_omega: float = 0.1
    test_width: float = 0.08
    omega_centers: tuple[float, ...] = ()


@dataclass
class OptimizerSection:
    """Stochastic-descent settings; ``c``/``alpha_max`` drive the line-search
    method, ``alpha``/``delta`` the adaptive one.  ``initial_tau`` names the
    starting profile (same syntax as [material] tau)."""

    method: str = "armijo"
    initial_tau: str = "initial_guess"
    budget: int = 500
    seed: int = 0
    c: float = 1e-4
    alpha_max: float = 2e10
    alpha: float = 0.2
    delta: float = 1e-22
    stop_gradient_norm: float = 0.0
    snapshot_stride: int = 60


@dataclass
class GradCheckSection:
    """Gradient verification and geometry settings.  ``pair_indices`` selects
    which experiments to check (empty means all); directions are random but
    conditioned to keep at least ``min_cos`` projection on the gradient so
    the finite-difference ratio stays well-posed."""

    pair_indices: tuple[int, ...] = ()
    directions: int = 3
    step: float = 1e-3
    direction_seed: int = 20260825
    min_cos: float = 0.2
    recombine_seed: int = 0


_SECTION_ORDER = (
    "grid",
    "material",
    "source",
    "forward",
    "diffusion",
    "pairs",
    "optimizer",
    "gradcheck",
)


@dataclass
class ExperimentConfig:
    """Complete description of one run; validates before any solve."""

    grid: GridSection = field(default_factory=GridSection)
    material: MaterialSection = field(default_factory=MaterialSection)
    source: SourceSection = field(default_factory=SourceSection)
    forward: ForwardSection = field(default_factory=ForwardSection)
    diffusion: DiffusionSection = field(default_factory=DiffusionSection)
    pairs: PairsSection = field(default_factory=PairsSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    gradcheck: GradCheckSection = field(default_factory=GradCheckSection)

    # -- builders ----------------------------------------------------------

    def make_grid(self, **overrides: float) -> PhaseGrid:
        """The [grid] section's grid, with the fields in ``overrides`` replaced."""
        return build_grid(GridConfig(**{**vars(self.grid), **overrides}))

    def make_material(self, grid: PhaseGrid, tau_spec: str | None = None) -> MaterialModel:
        m = self.material
        spec = m.tau if tau_spec is None else tau_spec
        return build_material(
            _tau_profile(spec),
            _g_star_profile(m.g_star),
            grid.omega_nodes,
            velocity_coeffs=m.velocity,
            tau_bounds=(m.tau_min, m.tau_max),
        )

    def make_source(self) -> BoundarySource | SourceFunction:
        s = self.source
        params = BoundarySource(s.t0, s.mu0, s.omega0, (s.width_t, s.width_mu, s.width_omega))
        if s.amplitude == 1.0:
            return params
        base = gaussian_source(params)
        amplitude = s.amplitude

        def phi(t, mu, omega):
            return amplitude * base(t, mu, omega)

        return phi

    def make_pairs(self, material: MaterialModel) -> list[SourceTestPair]:
        p = self.pairs
        centers = np.asarray(p.omega_centers) if p.omega_centers else None
        return frequency_sweep_pairs(
            material,
            omega_centers=centers,
            t0=p.t0,
            mu0=p.mu0,
            source_widths=(p.width_t, p.width_mu, p.width_omega),
            test_width=p.test_width,
        )

    # -- validation and serialization ---------------------------------------

    def validate(self) -> None:
        """Check everything checkable without running a solve.

        Grid and material constructors re-validate their own invariants; this
        adds the cross-field and enum checks they cannot see.
        """
        for name in _SECTION_ORDER:
            for key, value in vars(getattr(self, name)).items():
                for v in value if isinstance(value, tuple) else (value,):
                    if isinstance(v, float) and not math.isfinite(v):
                        raise ValueError(f"[{name}] {key} must be finite, got {value}")
        _tau_profile(self.material.tau)
        _tau_profile(self.optimizer.initial_tau)
        _g_star_profile(self.material.g_star)
        if not self.material.tau_min < self.material.tau_max:
            raise ValueError(
                f"tau bounds must be increasing, got "
                f"[{self.material.tau_min}, {self.material.tau_max}]"
            )
        grid = self.make_grid()  # surfaces grid errors before any solve
        self.make_material(grid)
        for t in self.forward.snapshot_times:
            if not grid.t_nodes[0] <= t <= grid.t_nodes[-1]:
                raise ValueError(
                    f"snapshot time {t} outside the horizon "
                    f"[{grid.t_nodes[0]}, {grid.t_nodes[-1]}]"
                )
        if self.forward.omega_slice and len(self.forward.omega_slice) != 3:
            raise ValueError(
                f"omega_slice needs (t, x, mu), got {self.forward.omega_slice}"
            )
        d = self.diffusion
        if not d.epsilons:
            raise ValueError("diffusion epsilon list is empty")
        if len(d.epsilons) != len(d.dts):
            raise ValueError(
                f"diffusion lists disagree: {len(d.epsilons)} epsilons vs "
                f"{len(d.dts)} dts"
            )
        if any(e <= 0.0 for e in d.epsilons) or any(dt <= 0.0 for dt in d.dts):
            raise ValueError("diffusion epsilons and dts must be positive")
        if not 0.0 <= d.x_probe <= 1.0:
            raise ValueError(f"[diffusion] x_probe = {d.x_probe} lies outside the slab [0, 1]")
        if not d.settle_time < d.t_end:
            raise ValueError(f"[diffusion] settle_time = {d.settle_time} is not before t_end")
        if probe_index(grid.x_nodes, d.x_probe) == grid.n_x - 1:
            raise ValueError(
                f"[diffusion] x_probe = {d.x_probe} reads the reflecting wall "
                f"x = {grid.x_nodes[-1]:g}, where the flux vanishes and kappa is undefined"
            )
        o = self.optimizer
        if o.method not in ("armijo", "adagrad"):
            raise ValueError(f"unknown optimizer method '{o.method}'")
        if o.budget < 0:
            raise ValueError(f"budget must be nonnegative, got {o.budget}")
        if o.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {o.snapshot_stride}")
        for label, value in (("c", o.c), ("alpha_max", o.alpha_max),
                             ("alpha", o.alpha), ("delta", o.delta)):
            if not value > 0.0:
                raise ValueError(f"optimizer {label} must be positive, got {value}")
        if o.stop_gradient_norm < 0.0:
            raise ValueError(
                f"stop_gradient_norm must be nonnegative, got {o.stop_gradient_norm}"
            )
        gc = self.gradcheck
        if gc.directions < 1:
            raise ValueError(f"directions must be >= 1, got {gc.directions}")
        if not gc.step > 0.0:
            raise ValueError(f"fd step must be positive, got {gc.step}")
        if not 0.0 <= gc.min_cos < 1.0:
            raise ValueError(f"min_cos must lie in [0, 1), got {gc.min_cos}")
        if any(i < 0 for i in gc.pair_indices):
            raise ValueError(f"pair indices must be nonnegative, got {gc.pair_indices}")

    def to_ini(self) -> str:
        lines = []
        for name in _SECTION_ORDER:
            section = getattr(self, name)
            lines.append(f"[{name}]")
            for f in dataclasses.fields(section):
                lines.append(f"{f.name} = {_render_value(getattr(section, f.name))}")
            lines.append("")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# INI parsing
# --------------------------------------------------------------------------


def _parse_value(raw: str, hint, label: str):
    raw = raw.strip()
    try:
        if hint is float:
            return float(raw)
        if hint is int:
            return int(raw)
        if hint is str:
            return raw
        if get_origin(hint) is tuple:
            args = get_args(hint)
            item_type = args[0]
            parts = [p for p in (chunk.strip() for chunk in raw.split(",")) if p]
            values = tuple(item_type(p) for p in parts)
            if args[-1] is not Ellipsis and len(values) != len(args):
                raise ValueError(f"expected {len(args)} comma-separated values")
            return values
    except ValueError as exc:
        raise ValueError(f"{label}: cannot parse '{raw}': {exc}") from None
    raise TypeError(f"{label}: unsupported config field type {hint!r}")


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_config(path: Path, config: ExperimentConfig | None = None) -> ExperimentConfig:
    """Overlay an INI file onto ``config`` (or fresh defaults); see :func:`_overlay`."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ValueError(f"config file not found or unreadable: {path}")
    return _overlay(parser, ExperimentConfig() if config is None else config)


def _overlay(parser: configparser.ConfigParser, config: ExperimentConfig) -> ExperimentConfig:
    """Set every key ``parser`` has read on ``config``.

    Unknown sections and keys are rejected outright: a typo should fail the
    run, not silently fall back to a default.
    """
    # configparser keeps [DEFAULT] out of sections() and merges its keys into
    # every other section, so a non-empty one is checked as a section itself.
    section_names = parser.sections()
    if parser.defaults():
        section_names.insert(0, parser.default_section)
    for section_name in section_names:
        if section_name not in _SECTION_ORDER:
            raise ValueError(
                f"unknown config section [{section_name}]; "
                f"expected one of {', '.join(_SECTION_ORDER)}"
            )
        section = getattr(config, section_name)
        hints = get_type_hints(type(section))
        for key, raw in parser.items(section_name):
            if key not in hints:
                raise ValueError(
                    f"unknown key '{key}' in [{section_name}]; "
                    f"known keys: {', '.join(sorted(hints))}"
                )
            setattr(section, key, _parse_value(raw, hints[key], f"[{section_name}] {key}"))
    return config


def _tau_profile(spec: str) -> TauProfile:
    if spec == "ground_truth":
        return ground_truth_tau()
    if spec == "initial_guess":
        return initial_guess_tau()
    if spec.startswith("constant:"):
        return constant_tau(float(spec.partition(":")[2]))
    raise ValueError(
        f"unknown tau profile '{spec}'; "
        "use ground_truth, initial_guess, or constant:<value>"
    )


def _g_star_profile(spec: str) -> GStarProfile:
    if spec == "default":
        return default_g_star()
    if spec.startswith("constant:"):
        return constant_g_star(float(spec.partition(":")[2]))
    raise ValueError(f"unknown g_star profile '{spec}'; use default or constant:<value>")


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------


# INI overlays on the defaults, which are the fig1 diffusion sweep and the
# sec52 reconstruction; fig4 and fig5 are the snapshot galleries.
_PRESETS: dict[str, str] = {
    "fig1": "",
    "fig4": """
[grid]
t_end = 1.5
""",
    "fig5": """
[grid]
dt = 0.0005
t_end = 0.15
epsilon = 0.1

[forward]
snapshot_times = 0.04, 0.08, 0.12
omega_slice = 0.12, 0.5, 0.9675
""",
    "sec52": "",
}


@functools.lru_cache(maxsize=None)
def _preset_parser(name: str) -> configparser.ConfigParser:
    """A preset's INI text, parsed once: building a parser takes about 40 us."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(_PRESETS[name])
    return parser


# --------------------------------------------------------------------------
# CSV helpers
# --------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    return path


def _write_summary(path: Path, entries: Sequence[tuple[str, object]]) -> Path:
    return _write_csv(path, ["key", "value"], entries)


# --------------------------------------------------------------------------
# Runners
# --------------------------------------------------------------------------


def run_forward_demo(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Snapshot CSVs of the mu-averaged field plus the boundary trace."""
    grid = config.make_grid()
    material = config.make_material(grid)
    trajectory = solve_forward(
        material, grid, config.make_source(), snapshot_times=config.forward.snapshot_times
    )
    written = []
    # One file per distinct node: a time asked for twice, or two times that
    # round to one node, share it.
    by_node = {}
    if trajectory.snapshots is not None:
        by_node = dict(zip(trajectory.snapshot_times, trajectory.snapshots))
    snapshot_times, snapshots = list(by_node), list(by_node.values())
    header = ["x"] + [f"omega={w:g}" for w in grid.omega_nodes]
    for t_snap, snap in zip(snapshot_times, snapshots):
        mean_field = np.einsum("xmo,m->xo", snap, grid.mu_mean)
        rows = ([x, *mean_field[i]] for i, x in enumerate(grid.x_nodes))
        written.append(_write_csv(out_dir / f"snapshot_t{t_snap:g}.csv", header, rows))

    temperature = np.asarray(temperature_of(trajectory.left_trace, material, grid))
    written.append(_write_csv(
        out_dir / "boundary_trace.csv",
        ["t", "temperature"],
        zip(grid.t_nodes, temperature),
    ))
    peak = int(np.argmax(temperature))
    summary: list[tuple[str, object]] = [
        ("epsilon", grid.epsilon),
        ("dt", grid.dt),
        ("t_end", float(grid.t_nodes[-1])),
        ("n_snapshots", len(snapshots)),
        ("trace_peak_time", float(grid.t_nodes[peak])),
        ("trace_peak_value", float(temperature[peak])),
    ]
    # The injection transient dominates the raw trace; the echo of the pulse
    # returning to x = 0 is the peak after the source has switched off.
    cutoff = config.source.t0 + 6.0 * config.source.width_t
    settled = grid.t_nodes >= cutoff
    if settled.any():
        echo_at = int(np.argmax(np.where(settled, temperature, -np.inf)))
        summary += [
            ("return_peak_time", float(grid.t_nodes[echo_at])),
            ("return_peak_value", float(temperature[echo_at])),
        ]

    if config.forward.omega_slice:
        t_want, x_want, mu_want = config.forward.omega_slice
        node_times = np.asarray(snapshot_times)
        if node_times.size == 0:
            raise ValueError("omega_slice requested but no snapshots were taken")
        k = int(np.argmin(np.abs(node_times - t_want)))
        if abs(node_times[k] - t_want) > 0.5 * grid.dt + 1e-12:
            raise ValueError(
                f"omega_slice time {t_want} is not among the snapshot times "
                f"{tuple(snapshot_times)}"
            )
        ix = int(np.argmin(np.abs(grid.x_nodes - x_want)))
        imu = int(np.argmin(np.abs(grid.mu_nodes - mu_want)))
        written.append(_write_csv(
            out_dir / "omega_slice.csv",
            ["omega", "h"],
            zip(grid.omega_nodes, snapshots[k][ix, imu]),
        ))
        summary += [
            ("slice_t", float(node_times[k])),
            ("slice_x", float(grid.x_nodes[ix])),
            ("slice_mu", float(grid.mu_nodes[imu])),
        ]

    written.append(_write_summary(out_dir / "summary.csv", summary))
    return written


def _diffusion_run(
    config: ExperimentConfig, out_dir: Path, eps: float, dt: float
) -> tuple[Path, float, float, float]:
    """One epsilon of the diffusion study: march, write its macro trace, and
    return (path, settled kappa, relative drift, diffusive residual).

    Module level and self-contained so that a forked worker can run it: the
    config goes in, four values come back, and the trace never crosses a
    process.
    """
    d = config.diffusion
    grid = config.make_grid(dt=dt, t_end=d.t_end, epsilon=eps)
    material = config.make_material(grid)
    macro = compute_macro_trace(material, grid, config.make_source())
    path = out_dir / f"macro_trace_eps{eps:g}.csv"
    write_macro_trace_csv(macro, path)
    settled, drift = settled_kappa(macro, x_probe=d.x_probe, settle_time=d.settle_time)
    residual = chapman_enskog_residual(to_g(macro.final_h, material), material, grid)
    return path, settled, drift, residual


class _RanHere:
    """A call made at once in this process, read back like a pool's future."""

    def __init__(self, fn, *args) -> None:
        self._value = self._error = None
        try:
            self._value = fn(*args)
        except Exception as exc:  # raised by result(), as a future would
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_diffusion_study(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Macroscopic traces and conductivity/residual tables across epsilons."""
    # Imported here so that the other commands do not load concurrent.futures
    # and multiprocessing (about 1 MB of RSS and 5-10 ms of import).
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_all_start_methods, get_context

    d = config.diffusion
    runs = list(zip(d.epsilons, d.dts))
    # Largest run (smallest dt, most steps) first: this process marches it
    # while forked workers take the rest, largest first.  Workers are forked
    # so that they start with numpy and this package already imported.
    order = sorted(range(len(runs)), key=lambda i: runs[i][1])
    workers = min(len(runs), _available_cpus()) - 1
    pool = None
    if workers > 0 and "fork" in get_all_start_methods():
        pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    submit = _RanHere if pool is None else pool.submit
    try:
        futures = {i: submit(_diffusion_run, config, out_dir, *runs[i]) for i in order[1:]}
        futures[order[0]] = _RanHere(_diffusion_run, config, out_dir, *runs[order[0]])
        # Gathered in epsilon order, so a failure reports as a serial run would.
        outcomes = [futures[i].result() for i in range(len(runs))]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    grid = config.make_grid(dt=d.dts[0], t_end=d.t_end, epsilon=d.epsilons[0])
    bulk = bulk_kappa(config.make_material(grid), grid)
    written = [path for path, *_ in outcomes]
    kappa_rows = [(eps, dt, settled, drift, abs(settled - bulk) / bulk)
                  for (eps, dt), (_, settled, drift, _) in zip(runs, outcomes)]
    residual_rows = [(eps, dt, residual)
                     for (eps, dt), (*_, residual) in zip(runs, outcomes)]

    written.append(_write_csv(
        out_dir / "kappa_summary.csv",
        ["epsilon", "dt", "kappa_settled", "relative_drift", "bulk_gap"],
        kappa_rows,
    ))
    written.append(_write_csv(
        out_dir / "residuals.csv",
        ["epsilon", "dt", "diffusive_residual"],
        residual_rows,
    ))
    gaps = [row[4] for row in kappa_rows]
    residuals = [row[2] for row in residual_rows]
    written.append(_write_summary(out_dir / "summary.csv", [
        ("kappa_bulk", bulk),
        ("n_runs", len(kappa_rows)),
        ("bulk_gap_strictly_decreasing",
         all(b < a for a, b in zip(gaps, gaps[1:]))),
        ("residual_strictly_decreasing",
         all(b < a for a, b in zip(residuals, residuals[1:]))),
    ]))
    return written


def _pairs_with_data(config: ExperimentConfig, grid: PhaseGrid) -> list[SourceTestPair]:
    truth = config.make_material(grid)
    return generate_data(truth, grid, config.make_pairs(truth))


_PAIR_HEADER = [
    "pair_id", "t0", "mu0", "omega0",
    "width_t", "width_mu", "width_omega",
    "test_center", "test_width", "datum",
]


def _pair_rows(pairs: Sequence[SourceTestPair]) -> list[list]:
    rows = []
    for i, pair in enumerate(pairs):
        src = pair.source
        if not isinstance(src, BoundarySource):
            raise ValueError(f"pair {i} uses a custom source; cannot tabulate it")
        rows.append([
            i, src.t0, src.mu0, src.omega0, *src.widths,
            pair.test_center, pair.test_width, pair.datum,
        ])
    return rows


def run_generate_data(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Synthetic measurements for the configured pulse/readout sweep."""
    grid = config.make_grid()
    pairs = _pairs_with_data(config, grid)
    return [_write_csv(out_dir / "pairs.csv", _PAIR_HEADER, _pair_rows(pairs))]


def run_reconstruction(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Stochastic-gradient recovery of the relaxation time from synthetic data."""
    grid = config.make_grid()
    truth = config.make_material(grid)
    start = config.make_material(grid, tau_spec=config.optimizer.initial_tau)
    pairs = _pairs_with_data(config, grid)
    objective = PairObjective(pairs, start.with_tau, grid, tau_bounds=start.tau_bounds)

    o = config.optimizer
    snapshot_iterations = sorted(set(range(0, o.budget + 1, o.snapshot_stride)) | {o.budget})
    state, snapshots = run_sgd(
        start.tau, objective,
        method=o.method, budget=o.budget, seed=o.seed, reference_tau=truth.tau,
        c=o.c, alpha_max=o.alpha_max, alpha=o.alpha, delta=o.delta,
        stop_gradient_norm=o.stop_gradient_norm,
        snapshot_iterations=snapshot_iterations,
    )

    written = [_write_csv(out_dir / "pairs.csv", _PAIR_HEADER, _pair_rows(pairs))]
    history_fields = [f.name for f in dataclasses.fields(state.history[0])]
    written.append(_write_csv(
        out_dir / "history.csv",
        history_fields,
        ([getattr(row, name) for name in history_fields] for row in state.history),
    ))
    taken = sorted(snapshots)
    written.append(_write_csv(
        out_dir / "tau_snapshots.csv",
        ["omega"] + [f"n{k}" for k in taken],
        ([w, *(snapshots[k][i] for k in taken)] for i, w in enumerate(grid.omega_nodes)),
    ))
    written.append(_write_csv(
        out_dir / "tau_final.csv",
        ["omega", "tau", "tau_true"],
        zip(grid.omega_nodes, state.tau, truth.tau),
    ))
    first, last = state.history[0], state.history[-1]
    written.append(_write_summary(out_dir / "summary.csv", [
        ("method", o.method),
        ("budget", o.budget),
        ("seed", o.seed),
        ("iterations_run", state.iteration),
        ("error_initial", first.error),
        ("error_final", last.error),
        ("loss_initial", first.loss_total),
        ("loss_final", last.loss_total),
        ("clamp_events", state.clamp_events),
        ("skipped_steps", state.skipped_steps),
    ]))
    return written


def run_grad_check(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Adjoint gradients against finite-difference oracles, plus peak table."""
    grid = config.make_grid()
    start = config.make_material(grid, tau_spec=config.optimizer.initial_tau)
    pairs = _pairs_with_data(config, grid)
    gc = config.gradcheck
    indices = gc.pair_indices or tuple(range(len(pairs)))
    bad = [i for i in indices if i >= len(pairs)]
    if bad:
        raise ValueError(f"pair indices {bad} out of range; only {len(pairs)} pairs")

    gradients = {i: frechet_gradient(start, grid, pairs[i]) for i in indices}

    written = [_write_csv(
        out_dir / "gradients.csv",
        ["omega"] + [f"pair_{i}" for i in indices],
        ([w, *(gradients[i][k] for i in indices)] for k, w in enumerate(grid.omega_nodes)),
    )]

    fd_rows = []
    worst = 0.0
    for i in indices:
        gradient = gradients[i]
        directions = gradient_aligned_directions(
            gradient, grid, count=gc.directions,
            seed=gc.direction_seed + i, min_cos=gc.min_cos,
        )
        for j, direction in enumerate(directions):
            predicted = omega_inner(gradient, direction, grid)
            measured = fd_gradient_oracle(start, grid, pairs[i], direction, step=gc.step)
            error = abs(predicted - measured)
            rel = error / abs(measured) if measured != 0.0 else np.inf
            worst = max(worst, rel)
            fd_rows.append((i, j, predicted, measured, error, rel))
    written.append(_write_csv(
        out_dir / "fd_table.csv",
        ["pair_id", "direction", "predicted", "measured", "abs_error", "rel_error"],
        fd_rows,
    ))

    peak_rows = []
    aligned_count = 0
    for i in indices:
        src = pairs[i].source
        center = src.omega0 if isinstance(src, BoundarySource) else np.nan
        peak = float(grid.omega_nodes[int(np.argmax(np.abs(gradients[i])))])
        aligned = bool(np.isfinite(center)) and abs(peak - center) < 0.5 * grid.domega
        aligned_count += aligned
        peak_rows.append((i, center, peak, aligned))
    written.append(_write_csv(
        out_dir / "peak_alignment.csv",
        ["pair_id", "omega_center", "omega_peak", "aligned"],
        peak_rows,
    ))

    written.append(_write_summary(out_dir / "summary.csv", [
        ("n_pairs", len(indices)),
        ("directions_per_pair", gc.directions),
        ("fd_step", gc.step),
        ("min_cos", gc.min_cos),
        ("direction_seed", gc.direction_seed),
        ("worst_rel_error", worst),
        ("peaks_aligned", aligned_count),
    ]))
    return written


def run_grad_diagnostics(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Norm/cosine geometry of the gradient bundle, raw and recombined."""
    grid = config.make_grid()
    start = config.make_material(grid, tau_spec=config.optimizer.initial_tau)
    pairs = _pairs_with_data(config, grid)
    stack = np.stack([frechet_gradient(start, grid, pair) for pair in pairs])
    recombined = recombine_gradients(stack, rng_seed=config.gradcheck.recombine_seed)

    norms_raw, cosines_raw = gradient_geometry(stack, grid)
    norms_mix, cosines_mix = gradient_geometry(recombined, grid)

    n = len(pairs)
    written = [_write_csv(
        out_dir / "norms.csv",
        ["pair_id", "norm_raw", "norm_recombined"],
        zip(range(n), norms_raw, norms_mix),
    )]
    cosine_header = ["pair_id"] + [f"pair_{j}" for j in range(n)]
    for label, matrix in (("raw", cosines_raw), ("recombined", cosines_mix)):
        written.append(_write_csv(
            out_dir / f"cosines_{label}.csv",
            cosine_header,
            ([i, *matrix[i]] for i in range(n)),
        ))

    spread_raw = norm_ratio_spread(norms_raw)
    spread_mix = norm_ratio_spread(norms_mix)
    cos_raw = min_pairwise_cosine(cosines_raw)
    cos_mix = min_pairwise_cosine(cosines_mix)
    written.append(_write_summary(out_dir / "summary.csv", [
        ("recombine_seed", config.gradcheck.recombine_seed),
        ("norm_ratio_spread_raw", spread_raw),
        ("norm_ratio_spread_recombined", spread_mix),
        ("min_cosine_raw", cos_raw),
        ("min_cosine_recombined", cos_mix),
        ("spread_improved", spread_mix < spread_raw),
        ("min_cosine_improved", cos_mix > cos_raw),
    ]))
    return written


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


_RUNNERS: dict[str, Callable[[ExperimentConfig, Path], list[Path]]] = {
    "forward": run_forward_demo,
    "diffusion": run_diffusion_study,
    "generate-data": run_generate_data,
    "reconstruct": run_reconstruction,
    "grad-check": run_grad_check,
    "grad-diagnostics": run_grad_diagnostics,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonon-inverse",
        description=(
            "Kinetic phonon-transport experiments: forward demos, diffusion-limit "
            "studies, and relaxation-time reconstruction from boundary data."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", type=Path, default=None, metavar="PATH",
        help="INI file overlaying the preset (unknown keys rejected)",
    )
    common.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="output directory (default: ./<command>-out)",
    )
    common.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override the optimizer seed",
    )
    common.add_argument(
        "--preset", choices=sorted(_PRESETS), default=None,
        help="named study to start from (fig1: diffusion sweep, fig4/fig5: "
             "snapshot galleries, sec52: reconstruction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, runner in _RUNNERS.items():
        first_line = (runner.__doc__ or "").strip().splitlines()[0]
        subparsers.add_parser(name, parents=[common], help=first_line)
    return parser


def assemble_config(
    preset: str | None, config_path: Path | None, seed: int | None
) -> ExperimentConfig:
    """Defaults -> preset -> config file -> flag overrides, then validate."""
    config = ExperimentConfig()
    if preset is not None:
        _overlay(_preset_parser(preset), config)
    if config_path is not None:
        load_config(config_path, config)
    if seed is not None:
        config.optimizer.seed = seed
    config.validate()
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = assemble_config(args.preset, args.config, args.seed)
        out_dir = args.out if args.out is not None else Path(f"{args.command}-out")
        out_dir.mkdir(parents=True, exist_ok=True)
        echo = out_dir / "config.ini"
        echo.write_text(config.to_ini())
        written = [echo] + _RUNNERS[args.command](config, out_dir)
    except Exception as exc:  # surfaced as a single machine-readable line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
