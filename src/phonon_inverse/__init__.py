"""Frequency-resolved phonon transport and relaxation-time reconstruction.

The package solves a linearized BGK transport equation for phonon energy
distributions, computes macroscopic heat-conduction diagnostics including the
diffusion limit, and reconstructs the frequency-dependent relaxation time from
boundary-temperature measurements via adjoint gradients and stochastic
gradient descent.
"""

from phonon_inverse.collision import (
    apply_collision,
    mean_mu_omega,
    mean_omega,
    temperature_of,
)
from phonon_inverse.diagnostics import (
    MacroTrace,
    bulk_kappa,
    chapman_enskog_residual,
    compute_macro_trace,
    settled_kappa,
    to_g,
    write_macro_trace_csv,
)
from phonon_inverse.grid import GridConfig, PhaseGrid, build_grid
from phonon_inverse.inverse import (
    SourceTestPair,
    arrival_time,
    build_pair,
    central_difference,
    fd_gradient_oracle,
    forward_map,
    frechet_gradient,
    frequency_sweep_pairs,
    generate_data,
    gradient_aligned_directions,
    loss,
    loss_and_gradient,
    omega_inner,
    omega_norm,
    total_loss,
)
from phonon_inverse.material import (
    MaterialModel,
    build_material,
    constant_g_star,
    constant_tau,
    default_g_star,
    eval_tau,
    eval_velocity,
    ground_truth_tau,
    initial_guess_tau,
)
from phonon_inverse.optimize import (
    HistoryRow,
    OptimizerState,
    PairObjective,
    gradient_geometry,
    initial_state,
    min_pairwise_cosine,
    norm_ratio_spread,
    recombine_gradients,
    reconstruction_error,
    run_sgd,
    sgd_step_adagrad,
    sgd_step_armijo,
)
from phonon_inverse.transport import (
    BoundarySource,
    Trajectory,
    boundary_response,
    gaussian_bump,
    gaussian_source,
    solve_adjoint,
    solve_forward,
    solve_forward_batch,
)

__all__ = [
    "BoundarySource",
    "GridConfig",
    "HistoryRow",
    "MacroTrace",
    "MaterialModel",
    "OptimizerState",
    "PairObjective",
    "PhaseGrid",
    "SourceTestPair",
    "Trajectory",
    "apply_collision",
    "arrival_time",
    "boundary_response",
    "build_grid",
    "build_material",
    "build_pair",
    "bulk_kappa",
    "central_difference",
    "chapman_enskog_residual",
    "compute_macro_trace",
    "constant_g_star",
    "constant_tau",
    "default_g_star",
    "eval_tau",
    "eval_velocity",
    "fd_gradient_oracle",
    "forward_map",
    "frechet_gradient",
    "frequency_sweep_pairs",
    "gaussian_bump",
    "gaussian_source",
    "generate_data",
    "gradient_aligned_directions",
    "gradient_geometry",
    "ground_truth_tau",
    "initial_guess_tau",
    "initial_state",
    "loss",
    "loss_and_gradient",
    "mean_mu_omega",
    "mean_omega",
    "min_pairwise_cosine",
    "norm_ratio_spread",
    "omega_inner",
    "omega_norm",
    "recombine_gradients",
    "reconstruction_error",
    "run_sgd",
    "settled_kappa",
    "sgd_step_adagrad",
    "sgd_step_armijo",
    "solve_adjoint",
    "solve_forward",
    "solve_forward_batch",
    "temperature_of",
    "to_g",
    "total_loss",
]

__version__ = "0.1.0"
