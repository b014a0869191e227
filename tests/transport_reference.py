"""A plain (x, mu, omega) reference march for the transport kernel tests.

The solver marches the slab unfolded at its specular face; this module steps
the same scheme the direct way, on a state laid out as (x, mu, omega), with
the mu > 0 and mu < 0 halves upwinded from opposite sides and the boundary
rules written as index reversals.  Only the density's summation order
differs from the solver, so the two agree to rounding.  :func:`unfold` and
:func:`fold` convert between that layout and the solver's sheets, in which
stored trajectories are returned.  It also keeps the measurement as it was
read before the boundary response: the windowed average of a march's x = 0
temperature; and both steps' collision term in ``np.einsum`` form, which
the solver's K = 2 matrix products must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from phonon_inverse.collision import mean_omega, temperature_of
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel
from phonon_inverse.transport import BoundarySource, _StepTables, gaussian_source


def unfold(states: FloatArray) -> FloatArray:
    """The unfolded sheets (..., 2 n_x, n_mu/2, n_omega) of (..., n_x, n_mu, n_omega) states."""
    half = states.shape[-2] // 2
    return np.concatenate(
        [states[..., half:, :], states[..., ::-1, half - 1 :: -1, :]], axis=-3
    )


def fold(sheets: FloatArray) -> FloatArray:
    """The (..., n_x, n_mu, n_omega) states of unfolded sheets; the inverse of :func:`unfold`."""
    n_x = sheets.shape[-3] // 2
    return np.concatenate(
        [sheets[..., : n_x - 1 : -1, ::-1, :], sheets[..., :n_x, :, :]], axis=-2
    )


def reference_inflow(
    pulse: BoundarySource, material: MaterialModel, grid: PhaseGrid
) -> FloatArray:
    """Inflow values phi/tau on (t, mu > 0, omega) for a Gaussian pulse."""
    half = grid.n_mu // 2
    phi = gaussian_source(pulse)(
        grid.t_nodes[:, None, None], grid.mu_nodes[None, half:, None],
        grid.omega_nodes[None, None, :],
    )
    return phi / material.tau


def reference_step(
    state: FloatArray, material: MaterialModel, grid: PhaseGrid, inflow_row: FloatArray
) -> FloatArray:
    """One step from ``state`` (n_x, n_mu, n_omega), writing ``inflow_row`` at x = 0."""
    half = grid.n_mu // 2
    dt, dx, epsilon = grid.dt, grid.dx, grid.epsilon
    # Signed Courant numbers: positive for mu > 0, negative for mu < 0.
    courant = (dt / (epsilon * dx)) * grid.mu_nodes[:, None] * material.velocity
    relax_coef = dt / (epsilon**2 * material.tau)
    h_star_mean = mean_omega(material.h_star, grid)
    density = np.einsum("xmo,mo->x", state, grid.mu_omega_mean) / h_star_mean
    new = ((density[:, None, None] * material.h_star - state) * relax_coef) + state
    upwind = courant * (state[1:] - state[:-1])
    new[1:, half:] -= upwind[:, half:]
    new[:-1, :half] -= upwind[:, :half]
    new[0, half:] = inflow_row
    new[-1, :half] = new[-1, half:][::-1]
    new[0, :half] = new[1, :half]
    return new


def reference_march(
    material: MaterialModel, grid: PhaseGrid, inflow: FloatArray
) -> FloatArray:
    """Every state of the march from zero, shape (n_t, n_x, n_mu, n_omega).

    ``inflow`` holds the x = 0 values of the mu > 0 rows, shape
    (n_t, n_mu/2, n_omega), written after the step that lands on each node.
    """
    values = np.zeros((grid.n_t, grid.n_x, grid.n_mu, grid.n_omega))
    for n in range(1, grid.n_t):
        values[n] = reference_step(values[n - 1], material, grid, inflow[n])
    return values


def windowed_trace_average(
    left_trace: FloatArray,
    window_values: FloatArray,
    material: MaterialModel,
    grid: PhaseGrid,
) -> float:
    """Time average of window * boundary temperature for one (n_t, n_mu, n_omega) trace.

    The measurement read from a forward march's x = 0 trace, as the
    readouts were computed before the boundary response replaced it.
    """
    boundary_temperature = temperature_of(left_trace, material, grid)
    return float((boundary_temperature * window_values) @ grid.t_mean)


def einsum_outer(column: FloatArray, rows: FloatArray, out: FloatArray) -> None:
    """``transport._outer_into`` as an ``np.einsum`` outer product."""
    np.einsum("x,mo->xmo", column[:, 0], rows[0].reshape(out.shape[1:]), out=out)


def einsum_transposed_step(
    q: FloatArray, out: FloatArray, tables: _StepTables, scratch: FloatArray
) -> None:
    """``transport._transposed_step`` with its collision term in ``np.einsum`` form."""
    rows = q.shape[0]
    n_x = rows // 2
    q[-2] += q[-1]
    q[-1] = 0.0
    q[n_x - 1] += q[n_x]
    q[n_x] = 0.0
    q[0] = 0.0
    row_sums = q.reshape(rows, -1) @ tables.relax_h_star[0]
    folded = row_sums[:n_x] + row_sums[: n_x - 1 : -1]
    readout = tables.readout[0].reshape(out.shape[1:])
    np.einsum("x,mo->xmo", np.concatenate((folded, folded[::-1])), readout, out=out)
    np.multiply(tables.keep, q, out=scratch)
    out += scratch
    np.multiply(tables.courant, q[1:], out=scratch[:-1])
    out[:-1] += scratch[:-1]
