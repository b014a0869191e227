"""Linear relaxation collision operators and the temperature functional.

Fields are plain arrays whose trailing two axes are (mu, omega); any leading
axes (x, or t and x) pass through untouched, so the same functions serve
single snapshots and whole trajectories.

Two equivalent formulations appear throughout the solvers.  In the scaled
variables h = g / tau the operator is

    relax[h] = (mean_{mu,omega} h / mean_omega h*) * h* - h,

which drives h toward the equilibrium direction h* = g*/tau.  In the original
variables the same physics reads relax_g[g] = T g* - g with the temperature
T = mean_{mu,omega}(g/tau) / mean_omega(g*/tau).  All means are normalized
(the mean of a constant is that constant).

The operator conserves its own projection (mean of relax[h] vanishes on the
quadrature that defines it), is self-adjoint and negative semidefinite in the
1/h*-weighted inner product, and has kernel span{h*}; the tests pin each of
these properties down numerically.
"""

from __future__ import annotations

import numpy as np

from phonon_inverse.grid import FloatArray, PhaseGrid
from phonon_inverse.material import MaterialModel


def mean_mu_omega(field: FloatArray, grid: PhaseGrid) -> FloatArray | float:
    """Normalized mean over the trailing (mu, omega) axes."""
    result = field.reshape(*field.shape[:-2], -1) @ grid.mu_omega_mean.ravel()
    if result.ndim == 0:
        return float(result)
    return result


def mean_omega(values: FloatArray, grid: PhaseGrid) -> FloatArray | float:
    """Normalized mean over the trailing omega axis."""
    result = values @ grid.omega_mean
    if np.ndim(result) == 0:
        return float(result)
    return result


def kernel_projection(
    field: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray:
    """Projection of an h-formulation field onto the equilibrium direction h*.

    P[h] = (mean_{mu,omega} h / mean_omega h*) * h*.  The collision operator
    is P - identity, so P is exactly the projector onto its kernel.
    """
    ratio = np.asarray(mean_mu_omega(field, grid)) / mean_omega(material.h_star, grid)
    return ratio[..., np.newaxis, np.newaxis] * material.h_star


def apply_collision(
    field: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray:
    """Relaxation operator on an h-formulation field: P[h] - h."""
    return kernel_projection(field, material, grid) - field


def temperature_of(
    field: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray | float:
    """Temperature of an h-formulation field: mean_{mu,omega} h / mean_omega h*.

    Returns one value per leading axis (per x node for a snapshot, per (t, x)
    for a trajectory).
    """
    result = np.asarray(mean_mu_omega(field, grid)) / mean_omega(material.h_star, grid)
    if result.ndim == 0:
        return float(result)
    return result


def apply_collision_g(
    field: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray:
    """Relaxation operator in the original variables: T g* - g.

    T = mean_{mu,omega}(g/tau) / mean_omega(g*/tau); equals tau * relax[g/tau]
    pointwise, which the tests verify.
    """
    temperature = np.asarray(mean_mu_omega(field / material.tau, grid)) / mean_omega(
        material.h_star, grid
    )
    return temperature[..., np.newaxis, np.newaxis] * material.g_star - field


def weighted_inner(
    a: FloatArray, b: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray | float:
    """The 1/h*-weighted inner product mean_{mu,omega}(a * b / h*).

    The collision operator is self-adjoint and negative semidefinite in this
    product; exposed for the tests and for diagnostics.
    """
    return mean_mu_omega(a * b / material.h_star, grid)
