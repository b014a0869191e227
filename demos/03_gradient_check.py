"""
Adjoint gradient vs finite differences
======================================

The loss of one pulse/readout experiment is differentiated with respect to
the relaxation time two ways: the adjoint (reverse mode through the
response march, one extra march for the whole gradient) and a central
finite difference along random directions (two losses per direction).  The
adjoint is the exact gradient of the discrete loss, so what separates the
two is the central difference's own O(step^2) truncation: about 1e-5 at
step 1e-3, and 100x less for each 10x smaller step.
"""

import numpy as np

from phonon_inverse import (
    GridConfig,
    build_grid,
    build_material,
    default_g_star,
    fd_gradient_oracle,
    frechet_gradient,
    frequency_sweep_pairs,
    generate_data,
    gradient_aligned_directions,
    ground_truth_tau,
    initial_guess_tau,
    omega_inner,
)

grid = build_grid(GridConfig(
    dt=0.005, dx=0.02, domega=0.4, n_mu=64, t_end=1.65,
    omega_min=0.4, omega_max=4.0, epsilon=1.0,
))
truth = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
guess = build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)

# One experiment per frequency node; data from the ground truth, gradient at
# the initial guess.
pairs = generate_data(truth, grid, frequency_sweep_pairs(truth))
pair = pairs[0]
print(f"experiment 0: pulse at omega = {pair.source.omega0},"
      f" readout centered at t = {pair.test_center:.4f}")

gradient = frechet_gradient(guess, grid, pair)
print("adjoint gradient (one value per frequency node):")
print(" ", np.array2string(gradient, precision=3))

# Random probe directions, conditioned to keep a real projection on the
# gradient so the relative error below is well-posed.
directions = gradient_aligned_directions(gradient, grid, count=3, seed=7)
print("\ndirection   adjoint prediction   finite difference    rel. error")
for k, direction in enumerate(directions):
    predicted = omega_inner(gradient, direction, grid)
    measured = fd_gradient_oracle(guess, grid, pair, direction, step=1e-3)
    rel = abs(predicted - measured) / abs(measured)
    print(f"    {k}       {predicted:+.6e}      {measured:+.6e}     {rel:.2e}")
