"""The linear relaxation collision operator and the temperature functional.

Fields are plain arrays whose trailing two axes are (mu, omega); any leading
axes (x, or t and x) pass through untouched, so the same functions serve
single snapshots and whole trajectories.

In the scaled variables h = g / tau the operator is

    relax[h] = T[h] h* - h,   T[h] = mean_{mu,omega} h / mean_omega h*,

which drives h toward the equilibrium direction h* = g*/tau; T is the
temperature functional.  All means are normalized (the mean of a constant is
that constant).

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


def apply_collision(
    field: FloatArray, material: MaterialModel, grid: PhaseGrid
) -> FloatArray:
    """Relaxation operator on an h-formulation field: T[h] h* - h."""
    temperature = np.asarray(temperature_of(field, material, grid))
    return temperature[..., np.newaxis, np.newaxis] * material.h_star - field
