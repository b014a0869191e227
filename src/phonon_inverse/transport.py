"""Time integration of the kinetic transport systems.

Forward problem: in the scaled variables h = g/tau,

    dh/dt + (mu v / epsilon) dh/dx = relax[h] / (epsilon^2 tau),

on x in [0, 1], starting from h = 0, with Dirichlet inflow h = phi/tau at
x = 0 for mu > 0, specular reflection at x = 1, and free outflow at x = 0 for
mu < 0.  The adjoint problem runs backward in time from a zero terminal state
with an inflow proportional to the measurement mismatch; substituting
s = T - t and flipping the sign of mu turns it into the same forward-form
system, so one stepping kernel serves both.

Scheme: first-order upwind in x, forward Euler in t, explicit collision.
Stability requires both the advective bound dt <= epsilon dx / max|mu v| and
the relaxation bound dt <= 0.5 epsilon^2 min(tau); the solver re-validates
both against the actual material before stepping.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from phonon_inverse.collision import mean_omega
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel

logger = logging.getLogger(__name__)

SourceFunction = Callable[[FloatArray, FloatArray, FloatArray], FloatArray]


@dataclass(frozen=True)
class BoundarySource:
    """Gaussian injection pulse concentrated at (t0, mu0, omega0).

    ``widths`` are the standard deviations of the three unit-peak factors in
    (t, mu, omega) order.  mu0 must lie in (0, 1): the pulse enters through
    the x = 0 face, so only rightward directions are admissible.
    """

    t0: float
    mu0: float
    omega0: float
    widths: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.mu0 < 1.0:
            raise ValueError(f"mu0 must lie in (0, 1), got {self.mu0}")
        if len(self.widths) != 3 or any(w <= 0.0 for w in self.widths):
            raise ValueError(f"widths must be three positive values, got {self.widths}")


def gaussian_bump(z: FloatArray, width: float) -> FloatArray:
    """Unit-peak Gaussian factor exp(-z^2 / (2 width^2))."""
    return np.exp(-0.5 * (np.asarray(z, dtype=float) / width) ** 2)


def gaussian_source(params: BoundarySource) -> SourceFunction:
    """Separable boundary pulse phi(t, mu, omega); broadcasts over arrays."""

    def phi(t: FloatArray, mu: FloatArray, omega: FloatArray) -> FloatArray:
        return (
            gaussian_bump(np.asarray(t) - params.t0, params.widths[0])
            * gaussian_bump(np.asarray(mu) - params.mu0, params.widths[1])
            * gaussian_bump(np.asarray(omega) - params.omega0, params.widths[2])
        )

    return phi


@dataclass(frozen=True)
class Trajectory:
    """Solution stack over the time nodes, plus the x = 0 boundary trace.

    ``values`` has shape (n_t, n_x, n_mu, n_omega); it is None when the solve
    was asked to keep only the trace.  ``left_trace`` is the x = 0 slice,
    shape (n_t, n_mu, n_omega).  The first time slice is the initial
    condition exactly (no boundary overwrite is applied at the starting
    instant).

    ``moments`` holds streamed (mu, omega)-weighted reductions of the field,
    shape (n_t, n_x, K) for K requested weight tables — the memory-friendly
    way to extract macroscopic traces from long runs.  ``snapshots`` stacks
    full phase-space states at the requested times (nearest time nodes,
    recorded in ``snapshot_times``).
    """

    values: FloatArray | None
    left_trace: FloatArray
    moments: FloatArray | None = None
    snapshots: FloatArray | None = None
    snapshot_times: tuple[float, ...] | None = None


def _validate_stability(material: MaterialModel, grid: PhaseGrid) -> None:
    epsilon = grid.epsilon
    max_speed = material.max_characteristic_speed(grid.mu_nodes)
    advective_limit = epsilon * grid.dx / max_speed
    if grid.dt > advective_limit * (1.0 + 1e-12):
        raise ValueError(
            f"CFL violation: dt = {grid.dt} exceeds epsilon * dx / max|mu v| = "
            f"{advective_limit:.6g} (max characteristic speed {max_speed:.6g})"
        )
    relaxation_limit = 0.5 * epsilon**2 * float(material.tau.min())
    if grid.dt > relaxation_limit * (1.0 + 1e-12):
        raise ValueError(
            f"relaxation-stability violation: dt = {grid.dt} exceeds "
            f"0.5 * epsilon^2 * min(tau) = {relaxation_limit:.6g}"
        )


def source_table(
    source: BoundarySource | SourceFunction, grid: PhaseGrid
) -> FloatArray:
    """Evaluate phi on the inflow nodes (t, mu > 0, omega), shape (n_t, n_mu/2, n_omega)."""
    phi = gaussian_source(source) if isinstance(source, BoundarySource) else source
    mu_pos = grid.mu_nodes[grid.n_mu // 2 :]
    values = phi(
        grid.t_nodes[:, None, None],
        mu_pos[None, :, None],
        grid.omega_nodes[None, None, :],
    )
    return np.broadcast_to(
        np.asarray(values, dtype=float), (grid.n_t, mu_pos.size, grid.n_omega)
    ).copy()


def _inflow_table(
    source: BoundarySource | SourceFunction,
    material: MaterialModel,
    grid: PhaseGrid,
) -> FloatArray:
    """Boundary values h = phi/tau on (t, mu > 0, omega), shape (n_t, n_mu/2, n_omega)."""
    return source_table(source, grid) / material.tau


def _integrate(
    material: MaterialModel,
    grid: PhaseGrid,
    inflow: FloatArray,
    store_trajectory: bool,
    label: str,
    moment_weights: FloatArray | None = None,
    snapshot_steps: Sequence[int] = (),
    on_step: Callable[[int, FloatArray], None] | None = None,
) -> tuple[FloatArray | None, FloatArray, FloatArray | None, FloatArray | None]:
    """March the forward-form system for one source from a zero state.

    ``inflow`` holds the x = 0 boundary values for the mu > 0 rows, shape
    (n_t, n_mu/2, n_omega); slice n is written after the step that lands on
    t_nodes[n].  ``moment_weights`` (K, n_mu, n_omega) requests streamed
    per-step reductions; ``snapshot_steps`` requests full state copies at
    those step indices (a step may be asked for more than once);
    ``on_step(n, state)``, if given, sees each new state, which is only valid
    during the call.  Returns (trajectory or None, left trace, moments or
    None, snapshots or None).
    """
    n_t, n_x, n_mu, n_omega = grid.n_t, grid.n_x, grid.n_mu, grid.n_omega
    half = n_mu // 2
    if inflow.shape != (n_t, half, n_omega):
        raise ValueError(f"inflow must have shape {(n_t, half, n_omega)}, got {inflow.shape}")
    state_shape = (n_x, n_mu, n_omega)

    dt, dx, epsilon = grid.dt, grid.dx, grid.epsilon
    # Advective Courant numbers per (mu, omega); positive-mu block is the
    # upper half of the ascending node ordering.
    courant = (dt / (epsilon * dx)) * grid.mu_nodes[:, None] * material.velocity
    # Per-omega tables are spread over (mu, omega) so that each elementwise
    # update runs over whole contiguous (mu, omega) rows.
    relax_coef = np.broadcast_to(dt / (epsilon**2 * material.tau), (n_mu, n_omega)).copy()
    h_star = np.broadcast_to(material.h_star, (n_mu, n_omega)).copy()
    h_star_mean = mean_omega(material.h_star, grid)

    upwind = np.empty((n_x - 1, n_mu, n_omega))
    if store_trajectory:
        trajectory = np.zeros((n_t, *state_shape))
    else:
        trajectory = None
        scratch = [np.zeros(state_shape), np.empty(state_shape)]
        left = np.zeros((n_t, n_mu, n_omega))

    moments = None
    if moment_weights is not None:
        moments = np.zeros((n_t, n_x, moment_weights.shape[0]))
    snapshot_slots: dict[int, list[int]] = {}
    for j, step in enumerate(snapshot_steps):
        snapshot_slots.setdefault(int(step), []).append(j)
    snapshots = (
        np.zeros((len(snapshot_steps), *state_shape)) if snapshot_steps else None
    )

    state = trajectory[0] if store_trajectory else scratch[0]
    density = np.einsum("xmo,mo->x", state, grid.mu_omega_mean) / h_star_mean
    for n in range(1, n_t):
        new = trajectory[n] if store_trajectory else scratch[n % 2]
        # Collision pulls toward the kernel direction h*; edge rows receive a
        # partial update here and are overwritten by the boundary rules below.
        np.einsum("x,mo->xmo", density, h_star, out=new)
        new -= state
        new *= relax_coef
        new += state
        # One Courant-weighted difference between neighbouring x nodes serves
        # both directions: mu > 0 rows take it from the left, mu < 0 rows
        # from the right.
        np.subtract(state[1:], state[:-1], out=upwind)
        upwind *= courant
        new[1:, half:, :] -= upwind[:, half:, :]
        new[:-1, :half, :] -= upwind[:, :half, :]
        # Boundary rules, in dependency order: inflow rows at x = 0, specular
        # reflection at x = 1 (pairs mu with -mu via index reversal), then
        # first-order outflow extrapolation at x = 0.
        new[0, half:, :] = inflow[n]
        new[-1, :half, :] = new[-1, half:, :][::-1, :]
        new[0, :half, :] = new[1, :half, :]
        # The weights are positive, so the density of the new state is
        # nonfinite whenever any of its cells is.
        density = np.einsum("xmo,mo->x", new, grid.mu_omega_mean) / h_star_mean
        if not np.isfinite(density).all():
            raise RuntimeError(
                f"{label} solve produced a nonfinite value at step {n} "
                f"(t = {grid.t_nodes[n]:.6g})"
            )
        if not store_trajectory:
            left[n] = new[0]
        if moments is not None:
            moments[n] = np.einsum("xmo,kmo->xk", new, moment_weights)
        for j in snapshot_slots.get(n, ()):
            snapshots[j] = new
        if on_step is not None:
            on_step(n, new)
        state = new

    if store_trajectory:
        left = trajectory[:, 0].copy()
    logger.debug("%s solve: %d steps, epsilon=%g", label, n_t - 1, epsilon)
    return trajectory, left, moments, snapshots


def _snapshot_steps(grid: PhaseGrid, snapshot_times: Sequence[float]) -> list[int]:
    steps = []
    for t in snapshot_times:
        n = int(round((t - grid.t_nodes[0]) / grid.dt))
        if not 0 <= n < grid.n_t or abs(grid.t_nodes[n] - t) > 0.5 * grid.dt * (1 + 1e-9):
            raise ValueError(
                f"snapshot time {t} lies outside the time grid "
                f"[{grid.t_nodes[0]}, {grid.t_nodes[-1]}]"
            )
        steps.append(n)
    return steps


def solve_forward(
    material: MaterialModel,
    grid: PhaseGrid,
    source: BoundarySource | SourceFunction,
    store_trajectory: bool = True,
    moment_weights: FloatArray | None = None,
    snapshot_times: Sequence[float] = (),
) -> Trajectory:
    """Integrate the forward system for one boundary pulse.

    ``source`` is either a :class:`BoundarySource` or any callable
    phi(t, mu, omega); the inflow rows are set to phi/tau.  With
    ``store_trajectory=False`` only the x = 0 trace is kept, which is
    enough to evaluate measurements and much cheaper in memory; streamed
    ``moment_weights`` reductions and full-state ``snapshot_times`` copies
    cover the diagnostic uses that would otherwise need the whole stack.
    """
    _validate_stability(material, grid)
    inflow = _inflow_table(source, material, grid)
    steps = _snapshot_steps(grid, snapshot_times)
    values, left, moments, snapshots = _integrate(
        material, grid, inflow, store_trajectory, label="forward",
        moment_weights=moment_weights, snapshot_steps=steps,
    )
    return Trajectory(
        values=values,
        left_trace=left,
        moments=moments,
        snapshots=snapshots,
        snapshot_times=tuple(float(grid.t_nodes[n]) for n in steps) or None,
    )


def solve_forward_batch(
    material: MaterialModel,
    grid: PhaseGrid,
    sources: Sequence[BoundarySource | SourceFunction],
) -> FloatArray:
    """Left boundary traces for several pulses, one march per pulse.

    Returns shape (len(sources), n_t, n_mu, n_omega); row i is bitwise equal
    to ``solve_forward(..., store_trajectory=False).left_trace`` for
    ``sources[i]``.  Stability is validated once for the shared material.
    """
    _validate_stability(material, grid)
    return np.stack([
        _integrate(
            material, grid, _inflow_table(source, material, grid),
            store_trajectory=False, label="forward-batch",
        )[1]
        for source in sources
    ])


def solve_adjoint(
    material: MaterialModel,
    grid: PhaseGrid,
    mismatch_value: float,
    test_window: FloatArray,
    store_trajectory: bool = True,
    on_step: Callable[[int, FloatArray], None] | None = None,
) -> Trajectory:
    """Integrate the adjoint system backward from a zero terminal state.

    The adjoint field p satisfies, in forward time t,

        dp/dt + (mu v / epsilon) dp/dx = -relax[p] / (epsilon^2 tau),
        p(T) = 0,
        p(t, x=0, mu<0) = epsilon * mismatch * h* * window(t)
                          / (mu v tau * mean_omega h*),

    with specular reflection at x = 1.  Substituting s = T - t and mu -> -mu
    maps this onto the forward-form system marched by the shared kernel; the
    returned trajectory is re-indexed to forward time and the original mu
    ordering, so ``values[n]`` is p at t_nodes[n].

    ``test_window`` holds the readout window's values on the time nodes;
    ``mismatch_value`` is the scalar measurement residual it multiplies.
    ``on_step(n, p)``, if given, is called with p at t_nodes[n], shape
    (n_x, n_mu, n_omega), for n from n_t - 2 down to 0 as the backward march
    produces it; with ``store_trajectory=False`` this reduces the field
    without keeping it.
    """
    _validate_stability(material, grid)
    window = np.asarray(test_window, dtype=float)
    if window.shape != grid.t_nodes.shape:
        raise ValueError(
            f"test window must have one value per time node ({grid.n_t}), "
            f"got shape {window.shape}"
        )

    half = grid.n_mu // 2
    mu_pos = grid.mu_nodes[half:]
    h_star_mean = mean_omega(material.h_star, grid)
    # Inflow for the reversed system: at reversed time s the window is
    # evaluated at T - s, i.e. the forward nodes in reverse order; the sign
    # flip comes from writing the mu < 0 boundary value at -mu > 0.
    profile = (
        -grid.epsilon
        * mismatch_value
        / h_star_mean
        * material.h_star
        / (material.velocity * material.tau)
        / mu_pos[:, None]
    )
    inflow = window[::-1, None, None] * profile
    last = grid.n_t - 1
    reversed_step = None if on_step is None else (
        lambda s, state: on_step(last - s, state[:, ::-1, :].copy())
    )
    values, left, _, _ = _integrate(
        material, grid, inflow, store_trajectory, label="adjoint",
        on_step=reversed_step,
    )
    if values is not None:
        values = values[::-1, :, ::-1, :].copy()
    left = left[::-1, ::-1, :].copy()
    return Trajectory(values=values, left_trace=left)
