"""
Forward transport at unit Knudsen number
========================================

Injects a short Gaussian pulse at the left face and watches it fly across
the slab, reflect at the right wall, and return: the boundary-temperature
trace at x = 0 peaks at the analytic round-trip time t = t0 + 2 / (mu0 v).
"""

import numpy as np

from phonon_inverse import (
    BoundarySource,
    GridConfig,
    arrival_time,
    build_grid,
    build_material,
    default_g_star,
    ground_truth_tau,
    solve_forward,
    temperature_of,
)

# -- setup: the standard band [0.4, 4.0] with the ground-truth material ------

grid = build_grid(GridConfig(
    dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=1.5,
    omega_min=0.4, omega_max=4.0, epsilon=1.0,
))
material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
pulse = BoundarySource(t0=0.04, mu0=0.96, omega0=2.0, widths=(0.01, 0.01, 0.1))

predicted = arrival_time(pulse.t0, pulse.mu0, pulse.omega0, material)
print(f"analytic round-trip arrival: t = {predicted:.4f}")

# -- solve, keeping phase-space snapshots at a few times ----------------------

snapshot_times = (0.1, 0.3, 0.5, 0.7, 0.9, 1.2)
trajectory = solve_forward(material, grid, pulse, snapshot_times=snapshot_times)

# The pulse crosses the slab: track the center of mass of the mu-averaged
# energy density until the reflection turns it around.
print("\npulse center of mass:")
for t_snap, snap in zip(trajectory.snapshot_times, trajectory.snapshots):
    density = np.einsum("xmo,m,o->x", snap, grid.mu_mean, grid.omega_weights)
    total = np.trapezoid(density, grid.x_nodes)
    center = np.trapezoid(grid.x_nodes * density, grid.x_nodes) / total
    print(f"  t = {t_snap:4.2f}:  <x> = {center:.3f}")

# -- the measured arrival: the echo in the boundary-temperature trace --------

# The raw trace is dominated by the injection transient, so look for the
# peak after the source has switched off (t0 + 6 sigma).
temperature = np.asarray(temperature_of(trajectory.left_trace, material, grid))
after_pulse = grid.t_nodes >= pulse.t0 + 6.0 * pulse.widths[0]
measured = grid.t_nodes[np.argmax(np.where(after_pulse, temperature, -np.inf))]
print(f"\nboundary echo peaks at t = {measured:.4f}"
      f"  (analytic {predicted:.4f}, offset {measured - predicted:+.4f})")
