"""End-to-end acceptance checklist.

Every guarantee the package advertises is exercised here, one test per item,
and each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``pytest -s
tests/test_acceptance.py`` to see the checklist).  The two full 500-iteration
reconstructions are marked ``slow``; everything else belongs to the fast
suite.  Numeric thresholds are stated inline next to each assertion.
"""

from __future__ import annotations

import filecmp
from pathlib import Path

import numpy as np
import pytest

from phonon_inverse.cli import main as cli_main
from phonon_inverse.collision import (
    apply_collision,
    mean_mu_omega,
    temperature_of,
)
from phonon_inverse.diagnostics import (
    bulk_kappa,
    chapman_enskog_residual,
    compute_macro_trace,
    settled_kappa,
    to_g,
)
from phonon_inverse.grid import GridConfig, build_grid
from phonon_inverse.inverse import (
    arrival_time,
    fd_gradient_oracle,
    frechet_gradient,
    frequency_sweep_pairs,
    generate_data,
    gradient_aligned_directions,
    omega_inner,
    omega_norm,
)
from phonon_inverse.material import (
    build_material,
    default_g_star,
    ground_truth_tau,
    initial_guess_tau,
)
from phonon_inverse.optimize import (
    PairObjective,
    gradient_geometry,
    min_pairwise_cosine,
    norm_ratio_spread,
    recombine_gradients,
    reconstruction_error,
    run_sgd,
)
from phonon_inverse.transport import BoundarySource, gaussian_source, solve_forward
from diagnostics_reference import weighted_inner

RNG_SEED = 20260825

# Reconstruction preset: the measurement layout and optimizer constants used
# by the ``reconstruct --preset sec52`` experiment.  Kept in one place so the
# acceptance run and the CLI preset cannot drift apart.
RECON_SEED = 0
ARMIJO = {"c": 1e-4, "alpha_max": 2e10}
ADAGRAD = {"alpha": 0.2, "delta": 1e-22}


def report(item: str, ok: bool, detail: str) -> None:
    """Print one checklist line, then enforce it."""
    print(f"[{'PASS' if ok else 'FAIL'}] {item}: {detail}")
    assert ok, f"{item}: {detail}"


def baseline_grid(
    dt: float = 0.005, dx: float = 0.02, t_end: float = 1.65, epsilon: float = 1.0
):
    return build_grid(
        GridConfig(
            dt=dt,
            dx=dx,
            domega=0.4,
            n_mu=64,
            t_end=t_end,
            omega_min=0.4,
            omega_max=4.0,
            epsilon=epsilon,
        )
    )


@pytest.fixture(scope="module")
def grid():
    return baseline_grid()


@pytest.fixture(scope="module")
def star_material(grid):
    return build_material(ground_truth_tau(), default_g_star(), grid.omega_nodes)


@pytest.fixture(scope="module")
def guess_material(grid):
    return build_material(initial_guess_tau(), default_g_star(), grid.omega_nodes)


@pytest.fixture(scope="module")
def measured_pairs(grid, star_material):
    return generate_data(star_material, grid, frequency_sweep_pairs(star_material))


@pytest.fixture(scope="module")
def guess_gradients(grid, guess_material, measured_pairs):
    return [frechet_gradient(guess_material, grid, p) for p in measured_pairs]


@pytest.fixture(scope="module")
def objective(grid, measured_pairs, guess_material):
    return PairObjective(measured_pairs, guess_material.with_tau, grid)


@pytest.fixture(scope="module")
def diffusion_runs():
    """Shared by the diffusion-limit and residual items: three kinetic runs
    with the relaxation-CFL-compliant time steps, each reduced to the settled
    conductivity and the final-time first-order residual."""
    bulk = None
    rows = {}
    for eps, dt in [(0.2, 0.001), (0.1, 0.0005), (0.05, 0.00025)]:
        run_grid = baseline_grid(dt=dt, t_end=0.5, epsilon=eps)
        material = build_material(
            ground_truth_tau(), default_g_star(), run_grid.omega_nodes
        )
        if bulk is None:
            bulk = bulk_kappa(material, run_grid)
        source = gaussian_source(
            BoundarySource(t0=0.04, mu0=0.96, omega0=2.0, widths=(0.01, 0.01, 0.1))
        )
        macro = compute_macro_trace(material, run_grid, source)
        settled, drift = settled_kappa(macro, x_probe=0.5, settle_time=0.125)
        residual = chapman_enskog_residual(to_g(macro.final_h, material), material, run_grid)
        rows[eps] = {
            "settled": settled,
            "drift": drift,
            "gap": abs(settled - bulk) / bulk,
            "residual": residual,
        }
    return bulk, rows


class TestCollisionOperator:
    def test_item_01_collision_identities(self, grid, star_material):
        """Conservation, kernel annihilation, self-adjointness, and negative
        semidefiniteness on 100 random fields at 1e-12 relative tolerance."""
        rng = np.random.default_rng(RNG_SEED)
        material = star_material
        shape = (grid.n_mu, grid.n_omega)
        worst = {"conserve": 0.0, "kernel": 0.0, "adjoint": 0.0, "negdef": -np.inf}
        for _ in range(100):
            a = rng.normal(size=shape)
            b = rng.normal(size=shape)
            c = rng.normal()
            la = apply_collision(a, material, grid)
            lb = apply_collision(b, material, grid)

            scale = abs(mean_mu_omega(np.abs(a), grid))
            worst["conserve"] = max(
                worst["conserve"], abs(mean_mu_omega(la, grid)) / scale
            )

            kernel_field = apply_collision(
                np.broadcast_to(c * material.h_star, shape), material, grid
            )
            kscale = max(abs(c) * float(np.max(material.h_star)), 1e-30)
            worst["kernel"] = max(
                worst["kernel"], float(np.max(np.abs(kernel_field))) / kscale
            )

            left = weighted_inner(la, b, material, grid)
            right = weighted_inner(a, lb, material, grid)
            sym_scale = max(abs(left), abs(right), 1e-30)
            worst["adjoint"] = max(worst["adjoint"], abs(left - right) / sym_scale)

            quad = weighted_inner(la, a, material, grid)
            qscale = max(abs(weighted_inner(a, a, material, grid)), 1e-30)
            worst["negdef"] = max(worst["negdef"], quad / qscale)

        ok = (
            worst["conserve"] <= 1e-12
            and worst["kernel"] <= 1e-12
            and worst["adjoint"] <= 1e-12
            and worst["negdef"] <= 1e-12
        )
        report(
            "item 01 collision identities",
            ok,
            "worst relative defect over 100 fields: "
            f"conservation {worst['conserve']:.2e}, kernel {worst['kernel']:.2e}, "
            f"self-adjointness {worst['adjoint']:.2e}, definiteness {worst['negdef']:.2e} "
            "(tolerance 1e-12)",
        )


class TestBallisticArrival:
    def test_item_02_arrival_time(self, star_material):
        """Analytic round-trip arrival 1.0321 +/- 1e-4, and the simulated
        boundary echo peaks within +/- 0.05 of it."""
        predicted = arrival_time(0.04, 0.96, 2.0, star_material)
        analytic_ok = abs(predicted - 1.0321) <= 1e-4

        run_grid = baseline_grid(t_end=1.5)
        material = build_material(
            ground_truth_tau(), default_g_star(), run_grid.omega_nodes
        )
        params = BoundarySource(t0=0.04, mu0=0.96, omega0=2.0, widths=(0.01, 0.01, 0.1))
        trajectory = solve_forward(
            material,
            run_grid,
            gaussian_source(params),
        )
        trace = np.asarray(temperature_of(trajectory.left_trace, material, run_grid))
        # The injection transient dominates the raw maximum; the echo is the
        # peak after the pulse has fully entered.
        settled = run_grid.t_nodes >= params.t0 + 6.0 * params.widths[0]
        echo_index = np.argmax(np.where(settled, trace, -np.inf))
        echo_time = run_grid.t_nodes[echo_index]
        echo_ok = abs(echo_time - predicted) <= 0.05

        report(
            "item 02 ballistic arrival",
            analytic_ok and echo_ok,
            f"analytic {predicted:.6f} (target 1.0321 +/- 1e-4), "
            f"simulated echo peak at t={echo_time:.4f} "
            f"(|diff| = {abs(echo_time - predicted):.4f} <= 0.05)",
        )


class TestDiffusionLimit:
    def test_item_03_settled_conductivity(self, diffusion_runs):
        """At eps=0.1 the pointwise conductivity settles (drift < 5% past
        t=0.125) within 10% of the bulk value, and the bulk gap shrinks
        monotonically across eps in {0.2, 0.1, 0.05}."""
        bulk, rows = diffusion_runs
        drift_ok = rows[0.1]["drift"] < 0.05
        gap_ok = rows[0.1]["gap"] < 0.10
        gaps = [rows[eps]["gap"] for eps in (0.2, 0.1, 0.05)]
        monotone_ok = gaps[0] > gaps[1] > gaps[2]
        report(
            "item 03 diffusion limit",
            drift_ok and gap_ok and monotone_ok,
            f"bulk conductivity {bulk:.4f}; eps=0.1 drift {rows[0.1]['drift']:.4f} "
            f"(< 0.05), relative gap {rows[0.1]['gap']:.4f} (< 0.10); "
            f"gaps across eps {gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}",
        )

    def test_item_04_first_order_residual(self, grid, star_material, diffusion_runs):
        """A field built exactly from the first-order expansion leaves only
        the temperature-gradient discretization error, and the kinetic-run
        residual shrinks with eps."""
        x = grid.x_nodes
        eps = 0.1
        u = 2.0 + np.sin(2 * np.pi * x)
        du = 2 * np.pi * np.cos(2 * np.pi * x)
        shape = star_material.velocity * star_material.tau * star_material.g_star
        slice_g = (
            star_material.g_star * u[:, None, None]
            - eps * grid.mu_nodes[:, None] * shape * du[:, None, None]
        )
        residual = chapman_enskog_residual(slice_g, star_material, baseline_grid(epsilon=eps))
        # Central differences on the sine profile err at most
        # max|u'''| dx^2 / 6; the constructed residual must sit below it.
        gradient_error_bound = eps * (2 * np.pi) ** 3 * grid.dx**2 / 6.0
        constructed_ok = residual < gradient_error_bound

        _, rows = diffusion_runs
        kinetic_ok = rows[0.05]["residual"] < rows[0.1]["residual"]
        report(
            "item 04 first-order residual",
            constructed_ok and kinetic_ok,
            f"constructed-field residual {residual:.2e} < discretization bound "
            f"{gradient_error_bound:.2e}; kinetic residual eps=0.05 "
            f"{rows[0.05]['residual']:.4f} < eps=0.1 {rows[0.1]['residual']:.4f}",
        )


class TestGradient:
    def test_item_05_adjoint_matches_finite_differences(
        self, grid, star_material, guess_material, measured_pairs, guess_gradients
    ):
        """Adjoint directional derivatives agree with the central-difference
        oracle within 5%, and within 1e-4, for every pair in 3 conditioned
        directions; the gradient is exact for the discrete loss, so the
        disagreement is the central difference's own O(step^2) truncation:
        on the worst pair, on the baseline grid and on one with dx and dt
        halved, a 10x smaller step shrinks it at least 50x; the gradient
        vanishes at the ground truth."""
        worst = 0.0
        worst_pair = -1
        for i, (pair, gradient) in enumerate(zip(measured_pairs, guess_gradients)):
            directions = gradient_aligned_directions(
                gradient, grid, count=3, seed=RNG_SEED + i
            )
            for direction in directions:
                predicted = omega_inner(gradient, direction, grid)
                measured = fd_gradient_oracle(
                    guess_material, grid, pair, direction, step=1e-3
                )
                rel = abs(predicted - measured) / abs(measured)
                if rel > worst:
                    worst, worst_pair = rel, i
        agree_ok = worst <= 0.05 and worst <= 1e-4

        def step_gaps(guess, grid, pair, gradient):
            """Worst disagreement over the pair's directions at steps 1e-3 and 1e-4."""
            gaps = []
            for step in (1e-3, 1e-4):
                gap = 0.0
                for direction in gradient_aligned_directions(
                    gradient, grid, count=3, seed=RNG_SEED + worst_pair
                ):
                    predicted = omega_inner(gradient, direction, grid)
                    measured = fd_gradient_oracle(guess, grid, pair, direction, step=step)
                    gap = max(gap, abs(predicted - measured) / abs(measured))
                gaps.append(gap)
            return gaps

        fine_grid = baseline_grid(dt=0.0025, dx=0.01)
        fine_star = build_material(
            ground_truth_tau(), default_g_star(), fine_grid.omega_nodes
        )
        fine_guess = build_material(
            initial_guess_tau(), default_g_star(), fine_grid.omega_nodes
        )
        fine_pairs = generate_data(
            fine_star, fine_grid, frequency_sweep_pairs(fine_star)
        )
        fine_gradient = frechet_gradient(fine_guess, fine_grid, fine_pairs[worst_pair])
        base_gaps = step_gaps(
            guess_material, grid, measured_pairs[worst_pair], guess_gradients[worst_pair]
        )
        fine_gaps = step_gaps(fine_guess, fine_grid, fine_pairs[worst_pair], fine_gradient)
        step_ok = all(coarse >= 50.0 * fine for coarse, fine in (base_gaps, fine_gaps))

        # Stationarity: at the generating parameters every pair is matched
        # exactly, so the gradient scale collapses.
        guess_scale = max(omega_norm(g, grid) for g in guess_gradients)
        star_scale = max(
            omega_norm(frechet_gradient(star_material, grid, p), grid)
            for p in measured_pairs
        )
        stationary_ok = star_scale <= 1e-8 * guess_scale

        report(
            "item 05 gradient vs finite differences",
            agree_ok and step_ok and stationary_ok,
            f"worst relative disagreement {worst:.3g} (<= 0.05 and <= 1e-4, pair "
            f"{worst_pair}); at steps 1e-3 / 1e-4: baseline grid {base_gaps[0]:.3g} / "
            f"{base_gaps[1]:.3g}, refined grid {fine_gaps[0]:.3g} / {fine_gaps[1]:.3g} "
            f"(>= 50x apart); gradient norm at truth {star_scale:.2e} <= 1e-8 x guess "
            f"scale {guess_scale:.2e}",
        )

    def test_item_06_peak_alignment(self, grid, measured_pairs, guess_gradients):
        """|gradient| peaks at the probed frequency for at least 8 of the 10
        sweep pairs."""
        aligned = 0
        for pair, gradient in zip(measured_pairs, guess_gradients):
            peak = grid.omega_nodes[int(np.argmax(np.abs(gradient)))]
            if abs(peak - pair.source.omega0) < 0.5 * grid.domega:
                aligned += 1
        report(
            "item 06 gradient peak alignment",
            aligned >= 8,
            f"{aligned}/10 pair gradients peak at their probe frequency (need >= 8)",
        )


class TestReconstruction:
    def test_item_07_smoke_100_iterations(
        self, objective, guess_material, star_material
    ):
        """Fast variant: both optimizers reduce the parameter error within a
        100-iteration budget."""
        tau0 = guess_material.tau
        tau_true = star_material.tau
        e0 = reconstruction_error(tau0, tau_true)
        finals = {}
        for method, extra in (("armijo", ARMIJO), ("adagrad", ADAGRAD)):
            state, _ = run_sgd(
                tau0,
                objective,
                method=method,
                budget=100,
                seed=RECON_SEED,
                reference_tau=tau_true,
                track_total_loss=False,
                **extra,
            )
            finals[method] = reconstruction_error(state.tau, tau_true)
        ok = all(e < e0 for e in finals.values())
        report(
            "item 07 reconstruction (100-iteration smoke)",
            ok,
            f"parameter error from {e0:.4f} to armijo {finals['armijo']:.4f}, "
            f"adagrad {finals['adagrad']:.4f} (both must decrease)",
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "method,extra",
        [("armijo", ARMIJO), ("adagrad", ADAGRAD)],
        ids=["armijo", "adagrad"],
    )
    def test_item_07_full_budget(
        self, objective, guess_material, star_material, method, extra
    ):
        """Full variant: a 500-iteration run must reach a tenth of the initial
        parameter error and a hundredth of the initial loss."""
        tau0 = guess_material.tau
        tau_true = star_material.tau
        e0 = reconstruction_error(tau0, tau_true)
        loss0 = objective.total_loss(tau0)
        state, _ = run_sgd(
            tau0,
            objective,
            method=method,
            budget=500,
            seed=RECON_SEED,
            reference_tau=tau_true,
            track_total_loss=False,
            **extra,
        )
        e_final = reconstruction_error(state.tau, tau_true)
        loss_final = objective.total_loss(state.tau)
        e_ok = e_final <= 0.1 * e0
        loss_ok = loss_final <= 1e-2 * loss0
        report(
            f"item 07 reconstruction (500 iterations, {method})",
            e_ok and loss_ok,
            f"error ratio {e_final / e0:.4f} (<= 0.1), "
            f"loss ratio {loss_final / loss0:.3e} (<= 1e-2)",
        )


class TestOptimizerMechanics:
    @staticmethod
    def _quadratic_objective(dimension: int = 6, terms: int = 5, seed: int = 3):
        rng = np.random.default_rng(seed)
        mats = []
        centers = []
        for _ in range(terms):
            half = rng.normal(size=(dimension, dimension))
            mats.append(half.T @ half + np.eye(dimension))
            centers.append(rng.normal(size=dimension))

        class Quadratic:
            n_terms = terms

            def loss(self, x, index):
                d = x - centers[index]
                return 0.5 * float(d @ mats[index] @ d)

            def loss_and_gradient(self, x, index):
                d = x - centers[index]
                return 0.5 * float(d @ mats[index] @ d), mats[index] @ d

            def clamp(self, x):
                return x

        return Quadratic()

    def test_item_08_step_rules(self):
        """Armijo steps satisfy the recorded sufficient-decrease inequality on
        recomputation; the adaptive scaling matrix accumulates monotonically
        and its rank-one step matches the closed form.  Tolerance 1e-10."""
        objective = self._quadratic_objective()
        x0 = np.full(6, 2.0)
        budget = 60
        c = 1e-4

        state, snapshots = run_sgd(
            x0,
            objective,
            method="armijo",
            budget=budget,
            seed=5,
            c=c,
            alpha_max=1.0,
            snapshot_iterations=range(budget + 1),
            track_total_loss=False,
        )
        worst_violation = -np.inf
        accepted = 0
        for row in state.history[1:]:
            if row.step_size == 0.0:
                continue
            accepted += 1
            before = snapshots[row.iteration - 1]
            after = snapshots[row.iteration]
            f_before, g = objective.loss_and_gradient(before, row.sample)
            f_after = objective.loss(after, row.sample)
            allowed = f_before - c * row.step_size * float(g @ g)
            worst_violation = max(worst_violation, f_after - allowed)
        armijo_ok = accepted > 0 and worst_violation <= 1e-10

        adastate, adasnaps = run_sgd(
            x0,
            objective,
            method="adagrad",
            budget=30,
            seed=5,
            alpha=0.1,
            delta=1e-8,
            snapshot_iterations=range(31),
            track_total_loss=False,
        )
        accumulator = np.zeros((6, 6))
        previous = np.linalg.eigvalsh(accumulator)
        eig_ok = True
        for row in adastate.history[1:]:
            _, g = objective.loss_and_gradient(adasnaps[row.iteration - 1], row.sample)
            accumulator += np.outer(g, g)
            current = np.linalg.eigvalsh(accumulator)
            if np.any(current < previous - 1e-10):
                eig_ok = False
            previous = current
        matrix_ok = bool(
            np.allclose(accumulator, adastate.adagrad_matrix, rtol=0, atol=1e-10)
        )

        # One adaptive step from rest: (delta I + g g^T)^(-1/2) g reduces to
        # g / sqrt(delta + |g|^2).
        alpha, delta = 0.25, 1e-3
        one_state, _ = run_sgd(
            x0,
            objective,
            method="adagrad",
            budget=1,
            seed=5,
            alpha=alpha,
            delta=delta,
            track_total_loss=False,
        )
        _, g0 = objective.loss_and_gradient(x0, one_state.history[1].sample)
        closed_form = x0 - alpha * g0 / np.sqrt(delta + float(g0 @ g0))
        rank_one_ok = bool(np.allclose(one_state.tau, closed_form, rtol=1e-10, atol=0))

        report(
            "item 08 optimizer step rules",
            armijo_ok and eig_ok and matrix_ok and rank_one_ok,
            f"sufficient decrease holds on all {accepted} accepted steps "
            f"(worst slack violation {worst_violation:.2e} <= 1e-10); scaling-matrix "
            f"eigenvalues nondecreasing over 30 steps; rank-one step matches "
            f"closed form",
        )


class TestGradientGeometry:
    def test_item_09_recombination(self, grid, guess_gradients):
        """Seeded uniform recombination strictly improves both conditioning
        summaries of the sweep-gradient bundle."""
        norms, cosines = gradient_geometry(guess_gradients, grid)
        spread_before = norm_ratio_spread(norms)
        cos_before = min_pairwise_cosine(cosines)

        recombined = recombine_gradients(guess_gradients, rng_seed=0)
        norms_after, cosines_after = gradient_geometry(recombined, grid)
        spread_after = norm_ratio_spread(norms_after)
        cos_after = min_pairwise_cosine(cosines_after)

        ok = spread_after < spread_before and cos_after > cos_before
        report(
            "item 09 gradient recombination",
            ok,
            f"norm-ratio spread {spread_before:.3f} -> {spread_after:.3f} "
            f"(must shrink); min pairwise cosine {cos_before:.3f} -> "
            f"{cos_after:.3f} (must grow)",
        )


class TestDeterminism:
    def test_item_10_byte_identical_reruns(self, tmp_path):
        """Re-running a preset with the same seed reproduces every CSV
        byte-for-byte."""
        checked = 0
        identical = True
        for preset, command in (("sec52", "generate-data"), ("fig5", "forward")):
            out_a = tmp_path / f"{preset}_a"
            out_b = tmp_path / f"{preset}_b"
            for out in (out_a, out_b):
                rc = cli_main(
                    [command, "--preset", preset, "--out", str(out)]
                )
                assert rc == 0
            names = sorted(p.name for p in out_a.iterdir())
            assert names == sorted(p.name for p in out_b.iterdir())
            for name in names:
                checked += 1
                if not filecmp.cmp(out_a / name, out_b / name, shallow=False):
                    identical = False
        report(
            "item 10 deterministic reruns",
            identical,
            f"{checked} files across presets sec52/fig5 byte-identical on rerun",
        )
