"""
Approach to the diffusion limit
===============================

As the Knudsen number epsilon shrinks, the kinetic solution behaves like a
heat equation: the pointwise conductivity -q / (dT/dx) settles to the bulk
value predicted by the relaxation-time average, and the defect against the
first-order diffusive ansatz decays with epsilon.
"""

from phonon_inverse import (
    BoundarySource,
    GridConfig,
    build_grid,
    build_material,
    bulk_kappa,
    chapman_enskog_residual,
    compute_macro_trace,
    default_g_star,
    ground_truth_tau,
    settled_kappa,
    to_g,
)

pulse = BoundarySource(t0=0.04, mu0=0.96, omega0=2.0, widths=(0.01, 0.01, 0.1))


def setup(epsilon, dt):
    # The explicit collision step needs dt ~ epsilon^2, so each epsilon gets
    # its own time step.
    grid = build_grid(GridConfig(
        dt=dt, dx=0.02, domega=0.4, n_mu=64, t_end=0.5,
        omega_min=0.4, omega_max=4.0, epsilon=epsilon,
    ))
    material = build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)
    return material, grid


def run(epsilon, dt):
    material, grid = setup(epsilon, dt)
    macro = compute_macro_trace(material, grid, pulse)
    settled, drift = settled_kappa(macro, x_probe=0.5, settle_time=0.125)
    residual = chapman_enskog_residual(to_g(macro.final_h, material), material, grid)
    return settled, drift, residual


# The bulk value needs only the material and the frequency grid, no march.
bulk = bulk_kappa(*setup(0.2, 0.001))
print(f"bulk conductivity (relaxation-time average): {bulk:.4f}\n")
print("epsilon    settled kappa   drift     |gap|/bulk   diffusive residual")
for epsilon, dt in ((0.2, 0.001), (0.1, 0.0005), (0.05, 0.00025)):
    settled, drift, residual = run(epsilon, dt)
    gap = abs(settled - bulk) / bulk
    print(f"  {epsilon:4.2f}     {settled:10.4f}   {drift:7.4f}   {gap:9.4f}    {residual:.4f}")

print("\nBoth columns shrink as epsilon -> 0: the kinetic run converges to")
print("Fourier conduction with the predicted conductivity.")
