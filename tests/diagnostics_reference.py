"""Reference implementations the tests compare the package against.

None of these has a caller in the package: each is an independent route to
a quantity the package computes another way.  ``weighted_inner`` is the
1/h*-weighted product in which the collision operator is symmetric;
``heat_flux`` and ``macro_trace_from_values`` read the flux and the
macroscopic trace from (x, mu, omega) states, which the streamed moments
must reproduce; ``solve_heat_reference`` is the limiting heat equation the
diffusive runs approach.
"""

from __future__ import annotations

import math

import numpy as np

from phonon_inverse.collision import mean_mu_omega
from phonon_inverse.diagnostics import (
    MacroTrace,
    _assemble_macro_trace,
    _flux_weights,
    _macro_moment_weights,
)
from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel


def weighted_inner(
    a: FloatArray, b: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray | float:
    """The 1/h*-weighted inner product mean_{mu,omega}(a * b / h*).

    The collision operator is self-adjoint and negative semidefinite in this
    product.
    """
    return mean_mu_omega(a * b / material.h_star, grid)


def heat_flux(
    values_g: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray | float:
    """Spectral heat flux (1/epsilon) * mean_{mu,omega}(mu v g).

    ``values_g`` is in g-variables with trailing (mu, omega) axes; leading
    axes (t and/or x) pass through.
    """
    result = np.einsum("...mo,mo->...", values_g, _flux_weights(grid, material.velocity))
    if result.ndim == 0:
        return float(result)
    return result


def macro_trace_from_values(
    values_h: FloatArray,
    material: MaterialModel,
    grid: PhaseGrid,
    t_nodes: FloatArray | None = None,
) -> MacroTrace:
    """Extract the macroscopic trace from an h-trajectory in (t, x, mu, omega) layout.

    A stored solve's sheets read so after ``transport_reference.fold``.
    ``values_h`` may cover any subset of time slices; ``t_nodes`` labels them
    and defaults to the grid's full time axis.
    """
    t_nodes = grid.t_nodes if t_nodes is None else np.asarray(t_nodes, dtype=float)
    expected = (t_nodes.size, grid.n_x, grid.n_mu, grid.n_omega)
    if values_h.shape != expected:
        raise ValueError(
            f"values_h shape {values_h.shape} does not match {expected}; "
            "pass t_nodes when the trajectory covers a subset of times"
        )
    weights = _macro_moment_weights(material, grid)
    moments = np.einsum("txmo,kmo->txk", values_h, weights)
    return _assemble_macro_trace(
        t_nodes, grid.x_nodes, moments[:, :, 0], moments[:, :, 1], grid.dx, values_h[-1]
    )


def solve_heat_reference(
    kappa_over_capacity: float,
    initial_u: FloatArray,
    grid: PhaseGrid,
    left_trace: FloatArray | None = None,
    substeps: int | None = None,
) -> FloatArray:
    """Explicit reference solution of the limiting heat equation.

    Integrates du/dt = D d2u/dx2 with D = ``kappa_over_capacity`` over the
    grid's (t, x) nodes in conservative (flux) form.  Both walls are
    insulating (zero flux, mirroring the kinetic system's specular right
    wall); passing ``left_trace`` instead prescribes u(t, 0), the setup used
    when comparing against a kinetic run's boundary temperature.

    Each output step is internally divided into the fewest substeps
    satisfying the diffusion bound dt <= dx^2 / (2 D); an explicit
    ``substeps`` that violates it is refused.
    """
    diffusivity = float(kappa_over_capacity)
    if diffusivity <= 0.0:
        raise ValueError(f"diffusivity must be positive, got {diffusivity}")
    initial_u = np.asarray(initial_u, dtype=float)
    if initial_u.shape != (grid.n_x,):
        raise ValueError(
            f"initial_u must have one value per x node ({grid.n_x}), "
            f"got shape {initial_u.shape}"
        )
    limit = grid.dx**2 / (2.0 * diffusivity)
    if substeps is None:
        substeps = max(1, math.ceil(grid.dt / limit * (1.0 + 1e-12)))
    elif grid.dt / substeps > limit * (1.0 + 1e-12):
        raise ValueError(
            f"diffusion CFL violation: dt/substeps = {grid.dt / substeps:.6g} "
            f"exceeds dx^2 / (2 D) = {limit:.6g}"
        )
    if left_trace is not None:
        left_trace = np.asarray(left_trace, dtype=float)
        if left_trace.shape != (grid.n_t,):
            raise ValueError(
                f"left_trace must have one value per time node ({grid.n_t}), "
                f"got shape {left_trace.shape}"
            )

    ratio = diffusivity * (grid.dt / substeps) / grid.dx**2
    u = np.zeros((grid.n_t, grid.n_x))
    u[0] = initial_u
    if left_trace is not None:
        u[0, 0] = left_trace[0]
    current = u[0].copy()
    for n in range(1, grid.n_t):
        for k in range(1, substeps + 1):
            flux = np.diff(current)
            current[1:-1] += ratio * (flux[1:] - flux[:-1])
            # half-width end cells: factor 2 keeps the update conservative
            current[0] += 2.0 * ratio * flux[0]
            current[-1] -= 2.0 * ratio * flux[-1]
            if left_trace is not None:
                s = grid.t_nodes[n - 1] + (k / substeps) * grid.dt
                current[0] = np.interp(s, grid.t_nodes, left_trace)
        u[n] = current
    return u
