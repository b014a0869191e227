"""Macroscopic observables and diffusion-limit diagnostics.

From a kinetic solution this module extracts the temperature T(t, x), the
heat flux q(t, x), the spatial temperature gradient, and the pointwise
conductivity kappa = -q / dT_dx (Fourier's law read backwards).  It also
provides the bulk conductivity integral the pointwise values relax to and
the first-order expansion residual that quantifies how far a field is from
the diffusive regime.

Conventions: all spectral averages are the grid module's normalized means,
used consistently on both sides of every kinetic-vs-bulk comparison, so the
checks do not depend on the absolute normalization of g*.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from phonon_inverse.collision import mean_omega, temperature_of
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel
from phonon_inverse.transport import BoundarySource, SourceFunction, solve_forward

logger = logging.getLogger(__name__)

# Pointwise conductivity is the ratio -q / dT_dx.  Where the gradient is
# below this fraction of the global temperature scale, or the flux below this
# fraction of its largest magnitude (rounding noise, as at the reflecting
# wall), kappa is undefined (stored as NaN, flagged in kappa_defined).
FLOOR_FRACTION = 1e-8

# write_macro_trace_csv formats this many time nodes (n_x rows each) per
# write, and its row template matches csv.writer's default dialect.
_CSV_BLOCK_ROWS = 64
_CSV_ROW = "%s,%s,%.17g,%.17g,%.17g,%.17g,%d\r\n"


@dataclass(frozen=True)
class MacroTrace:
    """Per-(t, x) macroscopic fields extracted from a kinetic run.

    ``kappa`` is NaN wherever ``kappa_defined`` is False (temperature too
    flat for the Fourier ratio to mean anything).  ``final_h`` is the
    h-formulation state at the last time node, shape (n_x, n_mu, n_omega),
    which the first-order residual reads.
    """

    t_nodes: FloatArray
    x_nodes: FloatArray
    q: FloatArray
    temperature: FloatArray
    dT_dx: FloatArray
    kappa: FloatArray
    kappa_defined: FloatArray
    final_h: FloatArray


def to_g(values_h: FloatArray, material: MaterialModel) -> FloatArray:
    """Convert h-formulation values to the original variables g = tau * h."""
    return values_h * material.tau


def _flux_weights(grid: PhaseGrid, speed: FloatArray) -> FloatArray:
    """The (mu, omega) heat-flux weight table.

    ``speed`` is v for a g-field and v tau for an h-field.
    """
    return grid.mu_omega_mean * grid.mu_nodes[:, None] * speed / grid.epsilon


def _macro_moment_weights(material: MaterialModel, grid: PhaseGrid) -> FloatArray:
    """Weight tables turning streamed h-moments into (temperature, flux)."""
    temperature_w = grid.mu_omega_mean / mean_omega(material.h_star, grid)
    flux_w = _flux_weights(grid, material.velocity * material.tau)
    return np.stack([temperature_w, flux_w])


def _assemble_macro_trace(
    t_nodes: FloatArray, x_nodes: FloatArray,
    temperature: FloatArray, q: FloatArray, dx: float, final_h: FloatArray,
) -> MacroTrace:
    dT_dx = np.gradient(temperature, dx, axis=1, edge_order=2)
    kappa, defined = _kappa_ratio(q, temperature, dT_dx)
    return MacroTrace(
        t_nodes=t_nodes, x_nodes=x_nodes, q=q, temperature=temperature,
        dT_dx=dT_dx, kappa=kappa, kappa_defined=defined, final_h=final_h,
    )


def _above_floor(values: FloatArray, scale: float) -> FloatArray:
    floor = FLOOR_FRACTION * scale
    return np.abs(values) >= floor if floor > 0.0 else np.abs(values) > 0.0


def _kappa_ratio(
    q: FloatArray, temperature: FloatArray, dT_dx: FloatArray
) -> tuple[FloatArray, FloatArray]:
    defined = _above_floor(dT_dx, np.abs(temperature).max()) & _above_floor(q, np.abs(q).max())
    kappa = np.full(q.shape, np.nan)
    np.divide(-q, dT_dx, out=kappa, where=defined)
    return kappa, defined


def compute_macro_trace(
    material: MaterialModel,
    grid: PhaseGrid,
    source: BoundarySource | SourceFunction,
) -> MacroTrace:
    """Run the forward solver in streaming-moment mode and extract the trace.

    The march keeps only (n_t, n_x, 2) moments and one final state: no
    boundary trace and no inflow table, so beyond those outputs its memory
    does not grow with the number of steps.  This handles long small-epsilon
    runs whose full trajectories would not fit comfortably in memory.
    """
    weights = _macro_moment_weights(material, grid)
    traj = solve_forward(
        material, grid, source, keep_left_trace=False,
        moment_weights=weights, snapshot_times=[grid.t_nodes[-1]],
    )
    temperature = traj.moments[:, :, 0]
    q = traj.moments[:, :, 1]
    return _assemble_macro_trace(
        grid.t_nodes, grid.x_nodes, temperature, q, grid.dx, traj.snapshots[0]
    )


def probe_index(x_nodes: FloatArray, x_probe: float) -> int:
    """Index of the x node nearest ``x_probe``, where :func:`settled_kappa` reads."""
    return int(np.argmin(np.abs(x_nodes - x_probe)))


def settled_kappa(
    macro: MacroTrace, x_probe: float = 0.5, settle_time: float = 0.125
) -> tuple[float, float]:
    """Late-time pointwise conductivity at one station and its drift.

    Returns (settled value, relative drift), where the settled value is the
    final-time kappa at the x node nearest ``x_probe`` and the drift is the
    largest relative deviation from it over t > ``settle_time``.
    """
    ix = probe_index(macro.x_nodes, x_probe)
    late = macro.t_nodes > settle_time
    if not late.any():
        raise ValueError(
            f"no time nodes after settle_time={settle_time}; horizon is "
            f"{macro.t_nodes[-1]}"
        )
    window = macro.kappa[late, ix]
    if not np.all(macro.kappa_defined[late, ix]):
        raise ValueError(
            f"kappa undefined somewhere after t={settle_time} at x="
            f"{macro.x_nodes[ix]}; the gradient is too flat to read a conductivity"
        )
    settled = float(window[-1])
    drift = float(np.abs(window - settled).max() / abs(settled))
    return settled, drift


def bulk_kappa(material: MaterialModel, grid: PhaseGrid) -> float:
    """Bulk conductivity: one third of the normalized mean of tau v^2 g*."""
    return float(grid.omega_mean @ (material.tau * material.velocity**2 * material.g_star)) / 3.0


def chapman_enskog_residual(
    slice_g: FloatArray,
    material: MaterialModel,
    grid: PhaseGrid,
) -> float:
    """Relative distance of a g-snapshot from its first-order diffusive form.

    The expansion predicts g ~ g* u - epsilon mu v tau g* du/dx with u the
    measured temperature.  Returns the quadrature-weighted relative L2 norm
    of the defect; order one in the ballistic regime, small and shrinking
    with epsilon in the diffusive regime.
    """
    if slice_g.shape != (grid.n_x, grid.n_mu, grid.n_omega):
        raise ValueError(
            f"expected a single-time slice of shape "
            f"{(grid.n_x, grid.n_mu, grid.n_omega)}, got {slice_g.shape}"
        )
    u = temperature_of(slice_g / material.tau, material, grid)
    du_dx = np.gradient(u, grid.dx, edge_order=2)
    leading = material.g_star * u[:, None, None]
    first_order = (
        -grid.mu_nodes[:, None]
        * (material.velocity * material.tau * material.g_star)
        * du_dx[:, None, None]
    )
    defect = slice_g - leading - grid.epsilon * first_order

    def weighted_norm(field: FloatArray) -> float:
        quad = np.einsum(
            "xmo,x,m,o->", field**2, grid.x_mean, grid.mu_mean, grid.omega_mean
        )
        return math.sqrt(quad)

    return weighted_norm(defect) / weighted_norm(slice_g)


def write_macro_trace_csv(macro: MacroTrace, path) -> None:
    """Dump a macroscopic trace as CSV rows (t, x, q, T, dT_dx, kappa, kappa_defined).

    One header row, then one row per (t, x) node with x varying fastest.
    Floats are written as ``.17g`` text, which reads back to the same
    double; an undefined kappa is written as ``nan`` next to a
    ``kappa_defined`` of 0.  Lines end in CRLF, as :func:`csv.writer` ends
    them, and no field is quoted.

    Rows are formatted a block of time nodes at a time, with one ``%``
    format and one write per block, so memory stays at one block however
    long the trace is.
    """
    n_x = macro.x_nodes.size
    t_text = [format(t, ".17g") for t in macro.t_nodes]
    x_text = [format(x, ".17g") for x in macro.x_nodes]
    columns = (macro.q, macro.temperature, macro.dT_dx, macro.kappa, macro.kappa_defined)
    with open(path, "w", newline="") as handle:
        handle.write("t,x,q,T,dT_dx,kappa,kappa_defined\r\n")
        for start in range(0, len(t_text), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            t_block = t_text[start:stop]
            n_rows = len(t_block) * n_x
            fields: list = [None] * (7 * n_rows)
            fields[0::7] = [t for t in t_block for _ in range(n_x)]
            fields[1::7] = x_text * len(t_block)
            for offset, column in enumerate(columns, start=2):
                fields[offset::7] = column[start:stop].ravel().tolist()
            handle.write(_CSV_ROW * n_rows % tuple(fields))
